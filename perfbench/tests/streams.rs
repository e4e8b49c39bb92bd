//! Properties of the op streams, and the repeat check: deterministic
//! numbers must come out identical from two runs of one seed.

use pi2_perfbench::rng::Rng;
use pi2_perfbench::streams::{
    region_sql, session_log, slot_scenario, EpisodeStream, ExploreKind, ExploreStream, Gesture,
    ServeKind, ServeStream, SlotWindow, Window, ANCHORS, COVID_BOX, DEC_BOX, EPISODE_ORDER,
    EXPLORE_PATTERN, RA_BOX, RING, SERVE_PATTERN, SERVE_SESSIONS, SKY_STEP,
};
use pi2_perfbench::{explore, generate, serve, Budget};
use std::collections::{BTreeMap, HashSet};

const OPS: usize = 4096;

#[test]
fn one_seed_gives_one_stream() {
    let a: Vec<_> = ExploreStream::new(7).take(OPS).collect();
    let b: Vec<_> = ExploreStream::new(7).take(OPS).collect();
    let c: Vec<_> = ExploreStream::new(8).take(OPS).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);

    let a: Vec<_> = EpisodeStream::new(7).take(30).collect();
    let b: Vec<_> = EpisodeStream::new(7).take(30).collect();
    let c: Vec<_> = EpisodeStream::new(8).take(30).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);

    let a: Vec<_> = ServeStream::new(7).take(OPS).collect();
    let b: Vec<_> = ServeStream::new(7).take(OPS).collect();
    let c: Vec<_> = ServeStream::new(8).take(OPS).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// A bound in degrees lies exactly on the sky grid.
fn on_grid(v: f64) -> bool {
    let steps = v / SKY_STEP;
    steps == steps.trunc()
}

#[test]
fn explore_walk_stays_on_its_box_and_grid() {
    let mut current = Window::DEMO;
    for op in ExploreStream::new(3).take(OPS) {
        assert!(op.window.in_box(), "{op:?} left the box");
        assert_eq!(current.apply(op.gesture), op.window, "{op:?} does not follow from {current:?}");
        let ((r0, r1), (d0, d1)) = (op.window.ra(), op.window.dec());
        assert!([r0, r1, d0, d1].into_iter().all(on_grid), "{op:?} is off the grid");
        if let Some((dx, dy)) = op.gesture.pan_degrees() {
            assert!(on_grid(dx) && on_grid(dy) && (dx, dy) != (0.0, 0.0), "{op:?}");
        }
        current = op.window;
    }
}

#[test]
fn serve_walks_stay_on_their_boxes() {
    let mut rng = Rng::new(5, 0);
    for slot in 0..SERVE_SESSIONS {
        let (log, mut window) = session_log(slot_scenario(slot), &mut rng);
        assert_eq!(log.len(), 2);
        assert_ne!(log[0], log[1], "a log needs two different windows");
        for _ in 0..500 {
            let (_, next) = window.step(&mut rng);
            match next {
                SlotWindow::Sky(w) => {
                    assert!(w.in_box(), "{w:?}");
                    assert!(RA_BOX.0 <= w.cx && w.cx <= RA_BOX.1 && DEC_BOX.0 <= w.cy);
                }
                SlotWindow::Days(lo) => assert!(COVID_BOX.0 <= lo && lo <= COVID_BOX.1),
            }
            window = next;
        }
    }
}

#[test]
fn revisits_land_exactly_on_earlier_windows() {
    let mut seen = HashSet::from([Window::DEMO]);
    let mut revisits = 0;
    for op in ExploreStream::new(11).take(OPS) {
        if op.kind == ExploreKind::Revisit {
            revisits += 1;
            assert!(seen.contains(&op.window), "revisit to unseen {:?}", op.window);
            // The revisited window lowers to the same SQL as before.
            assert_eq!(region_sql(op.window), region_sql(*seen.get(&op.window).unwrap()));
        }
        seen.insert(op.window);
    }
    assert!(revisits > OPS / 8, "only {revisits} revisits");
}

fn shares<K: Ord + Copy>(kinds: impl Iterator<Item = K>) -> BTreeMap<K, usize> {
    let mut out = BTreeMap::new();
    for k in kinds {
        *out.entry(k).or_default() += 1;
    }
    out
}

#[test]
fn halves_have_the_same_op_mix() {
    let ops: Vec<_> = ExploreStream::new(5).take(OPS).collect();
    let (a, b) = ops.split_at(OPS / 2);
    assert_eq!(shares(a.iter().map(|o| o.kind)), shares(b.iter().map(|o| o.kind)));
    // Every width occurs equally often in both halves too.
    assert_eq!(shares(a.iter().map(|o| o.window.h)), shares(b.iter().map(|o| o.window.h)));
    assert_eq!(OPS % EXPLORE_PATTERN.len(), 0);

    let ops: Vec<_> = ServeStream::new(5).take(OPS).collect();
    let (a, b) = ops.split_at(OPS / 2);
    assert_eq!(shares(a.iter().map(|o| o.kind)), shares(b.iter().map(|o| o.kind)));
    assert_eq!(OPS % SERVE_PATTERN.len(), 0);
    let burst = |ops: &[pi2_perfbench::streams::ServeOp]| {
        ops.iter().filter(|o| o.kind == ServeKind::Gesture).map(|o| o.burst).sum::<usize>() as f64
            / ops.iter().filter(|o| o.kind == ServeKind::Gesture).count() as f64
    };
    assert!((burst(a) - burst(b)).abs() < 0.1, "mean burst {} vs {}", burst(a), burst(b));

    let episodes: Vec<_> = EpisodeStream::new(5).take(EPISODE_ORDER.len() * 10).collect();
    let (a, b) = episodes.split_at(episodes.len() / 2);
    assert_eq!(
        shares(a.iter().map(|e| (e.dataset, e.cells.len()))),
        shares(b.iter().map(|e| (e.dataset, e.cells.len())))
    );
}

#[test]
fn every_anchor_is_visited_once_a_round() {
    let round = EXPLORE_PATTERN.len() * ANCHORS.len();
    let jumps: Vec<Window> = ExploreStream::new(9)
        .take(round * 3)
        .filter(|o| o.kind == ExploreKind::Jump)
        .map(|o| o.window)
        .collect();
    for r in jumps.chunks(ANCHORS.len()) {
        let centres: HashSet<(i64, i64)> = r.iter().map(|w| (w.cx, w.cy)).collect();
        assert_eq!(centres, ANCHORS.iter().copied().collect::<HashSet<_>>());
    }
}

#[test]
fn zoom_gestures_are_powers_of_two() {
    for op in ExploreStream::new(2).take(OPS) {
        if let Gesture::Zoom { .. } = op.gesture {
            let f = op.gesture.zoom_factor().unwrap();
            assert!(f == 0.5 || f == 2.0);
        }
    }
}

/// A smaller explore catalog: the properties do not depend on size.
fn small_explore() -> explore::Config {
    explore::Config { rows: 100_000, setup_runs: 1, reference_checks: 2 }
}

#[test]
fn halves_scan_the_same_engine_blocks_per_op() {
    let config = small_explore();
    let mut fixture = explore::setup(&config).unwrap();
    let mut report = pi2_perfbench::measure::Report::new();
    // A warm-up round, then two halves of 16 rounds each: four ring
    // periods, so both halves start the ring at the same cells equally
    // often and pair widths with cells alike.
    let ops = explore::ROUND * (1 + 2 * RING.len() as u64);
    let phase = explore::timed(&mut fixture, &config, 4, Budget::ops(ops), false, &mut report);
    assert!(report.correct);
    assert_eq!(phase.scanned.len() as u64, ops);
    let measured = &phase.scanned[explore::ROUND as usize..];
    let (a, b) = measured.split_at(measured.len() / 2);
    let per_op = |h: &[u64]| h.iter().sum::<u64>() as f64 / h.len() as f64;
    let (a, b) = (per_op(a), per_op(b));
    assert!((a - b).abs() / a.max(b) < 0.10, "blocks scanned per op: {a} vs {b}");
}

/// Deterministic numbers of one short run.
fn explore_numbers(seed: u64) -> (f64, f64) {
    let config = small_explore();
    let mut fixture = explore::setup(&config).unwrap();
    let mut report = pi2_perfbench::measure::Report::new();
    let phase = explore::timed(
        &mut fixture,
        &config,
        seed,
        Budget::ops(explore::ROUND * 2),
        false,
        &mut report,
    );
    assert!(report.correct);
    phase.clock.metrics(&mut report);
    let scanned = phase.scanned.iter().sum::<u64>() as f64 / phase.scanned.len() as f64;
    (report.get("bytes_per_op").unwrap(), scanned)
}

#[test]
fn explore_repeats_exactly() {
    assert_eq!(explore_numbers(6), explore_numbers(6));
}

fn generate_numbers(seed: u64) -> (f64, u64) {
    let fixture = generate::setup();
    let mut report = pi2_perfbench::measure::Report::new();
    // One cycle through the datasets, minus the slow last SDSS step.
    let phase = generate::timed(&fixture, seed, Budget::ops(10), false, &mut report);
    assert!(report.correct);
    assert_eq!(phase.clock.failed, 0);
    (phase.cost.mean(), phase.states)
}

#[test]
fn generate_repeats_exactly() {
    let (cost, states) = generate_numbers(3);
    assert!(cost > 0.0 && states > 0);
    assert_eq!(generate_numbers(3), (cost, states));
}

fn serve_numbers(seed: u64) -> (u64, u64, f64) {
    let config = serve::Config {
        setup_runs: 1,
        work_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    let mut fixture = serve::setup(&config, seed, false).unwrap();
    let mut report = pi2_perfbench::measure::Report::new();
    let phase = serve::timed(&mut fixture, seed, Budget::ops(1500), false, &mut report);
    assert!(report.correct, "serve checks failed");
    assert_eq!(phase.clock.failed, 0);
    let (enqueued, coalesced) = serve::coalesce_counts(&fixture);
    let mut bytes = pi2_perfbench::measure::Report::new();
    phase.clock.metrics(&mut bytes);
    (enqueued, coalesced, bytes.get("bytes_per_op").unwrap())
}

#[test]
fn serve_repeats_exactly() {
    let first = serve_numbers(2);
    assert!(first.1 > 0, "nothing coalesced");
    assert_eq!(serve_numbers(2), first);
}
