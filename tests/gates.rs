//! Absolute performance gates on the interaction, streaming and fleet
//! paths. perfbench (`perfbench/README.md`) measures these paths against
//! the parent commit; these tests hold the fixed bounds that no relative
//! comparison can catch drifting.
//!
//! The render gate counts bytes, which are deterministic, so it runs in
//! every build. The sweep and fleet gates time wall-clock latency and
//! only mean something with optimizations on:
//! `cargo test --release -p pi2-bench --test gates`.

use pi2_core::scene::{delta_to_json, Renderer};
use pi2_core::{Event, FleetConfig, InterfaceSession, Pi2, SearchStrategy, SessionBuilder};
use pi2_difftree::DiffForest;
use pi2_engine::Catalog;
use pi2_interface::VizInteraction;
use pi2_render::SpecRenderer;
use pi2_server::{LocalClient, ServerState};
use pi2_telemetry::LatencyHistogram;
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn percentile_bytes(sorted: &[usize], q: f64) -> usize {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The Figure 1 closed pan/zoom cycle: dyadic deltas over dyadic witness
/// windows, so every cycle revisits bit-identical binding states.
fn sdss_cycle(chart: usize) -> Vec<Event> {
    vec![
        Event::Pan { chart, dx: 0.25, dy: 0.125 },
        Event::Pan { chart, dx: 0.25, dy: 0.0 },
        Event::Zoom { chart, factor: 2.0 },
        Event::Zoom { chart, factor: 0.5 },
        Event::Pan { chart, dx: -0.25, dy: -0.125 },
        Event::Pan { chart, dx: -0.25, dy: 0.0 },
    ]
}

/// A streaming client pays only the damage each gesture causes: over 30
/// SDSS cycles, the p50 patch frame costs at most a quarter of the p50
/// full spec a re-rendering client would download for the same state.
#[test]
fn render_delta_frames_cost_at_most_a_quarter_of_full_spec() {
    const CYCLES: usize = 30;
    const RATIO_BOUND: f64 = 0.25;
    let catalog = pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config::default());
    let pi2 = Pi2::builder(catalog).strategy(SearchStrategy::FullMerge).build();
    let g = pi2.generate(&pi2_datasets::sdss::demo_queries()).expect("sdss interface generates");
    let chart = g.interface.charts.first().expect("sdss chart").id;
    let mut session = pi2.session(&g);
    let (_snapshot, v0) = session.scene_snapshot().expect("initial scene snapshot");
    assert_eq!(v0, 1, "fresh scene starts at version 1");

    let mut delta_bytes = Vec::new();
    let mut full_bytes = Vec::new();
    for _ in 0..CYCLES {
        for event in sdss_cycle(chart) {
            let (_updates, delta) = session.dispatch_with_delta(event).expect("storm dispatch");
            if let Some(d) = delta {
                delta_bytes.push(serde_json::to_string(&delta_to_json(&d)).expect("delta").len());
            }
            let full = SpecRenderer.render_live(&session).expect("full spec renders");
            full_bytes.push(serde_json::to_string(&full).expect("spec serializes").len());
        }
    }
    assert!(!delta_bytes.is_empty(), "the storm produced no patch frames");
    delta_bytes.sort_unstable();
    full_bytes.sort_unstable();
    let delta_p50 = percentile_bytes(&delta_bytes, 0.50);
    let full_p50 = percentile_bytes(&full_bytes, 0.50);
    let ratio = delta_p50 as f64 / full_p50 as f64;
    assert!(
        ratio <= RATIO_BOUND,
        "delta p50 {delta_p50} B is {ratio:.3} of full-spec p50 {full_p50} B (bound {RATIO_BOUND})"
    );
}

/// One data size of the latency-vs-size sweep.
struct SweepPoint {
    warm_pan_p50: Duration,
    blocks_pruned: u64,
    delta_hits: u64,
    /// The most zone-map blocks any one fresh pan scanned row by row.
    max_pan_blocks_scanned: u64,
    /// Zone-map blocks in the table.
    table_blocks: u64,
}

/// A session over the fully merged SDSS demo forest at `rows` objects,
/// the id of its pannable chart, and a handle on its catalog (clones share
/// scan counters). Built without search so the sweep times dispatch only.
fn sdss_pan_session(rows: usize) -> (InterfaceSession, usize, Catalog) {
    let catalog = pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config::sized(rows));
    let queries = pi2_datasets::sdss::demo_queries();
    let mut forest = DiffForest::fully_merged(&queries);
    for t in &mut forest.trees {
        *t = pi2_difftree::rules::canonicalize(t, Some(&catalog));
    }
    let pannable = |c: &pi2_interface::Chart| {
        c.interactions.iter().any(|x| matches!(x, VizInteraction::PanZoom { .. }))
    };
    let ifaces = pi2_interface::map_forest(
        &forest,
        &catalog,
        &queries,
        &pi2_interface::MapperConfig::default(),
    )
    .expect("sdss sweep mapper");
    let interface =
        ifaces.into_iter().find(|i| i.charts.iter().any(pannable)).expect("pannable interface");
    let chart = interface.charts.iter().find(|c| pannable(c)).expect("pannable chart").id;
    let session = SessionBuilder::new(catalog.clone(), forest, interface).queries(&queries).build();
    (session, chart, catalog)
}

/// Warm pans replay a closed dyadic cycle (one priming cycle, then eleven
/// measured cycles of result-cache hits); then forward-only pans, first
/// along `ra` (`dx`) and then along `dec` (`dy`), each visit a fresh window
/// answered by delta recomputation.
fn sweep_point(rows: usize) -> SweepPoint {
    let (mut session, chart, catalog) = sdss_pan_session(rows);
    let pan = |dx| Event::Pan { chart, dx, dy: 0.0 };
    let cycle = [pan(0.25), pan(0.25), pan(-0.25), pan(-0.25)];
    for event in &cycle {
        session.dispatch(event.clone()).expect("priming pan");
    }
    let mut warm = LatencyHistogram::new();
    for _ in 1..12 {
        for event in &cycle {
            let started = Instant::now();
            session.dispatch(event.clone()).expect("warm pan");
            warm.record(started.elapsed());
        }
    }
    let fresh =
        (0..17).map(|_| pan(0.25)).chain((0..12).map(|_| Event::Pan { chart, dx: 0.0, dy: 0.25 }));
    let mut max_pan_blocks_scanned = 0;
    for event in fresh {
        let before = catalog.scan_counts().0;
        session.dispatch(event).expect("delta pan");
        max_pan_blocks_scanned = max_pan_blocks_scanned.max(catalog.scan_counts().0 - before);
    }
    SweepPoint {
        warm_pan_p50: warm.percentile(0.50),
        blocks_pruned: catalog.scan_counts().1,
        delta_hits: session.stats().delta_hits,
        max_pan_blocks_scanned,
        table_blocks: pi2_engine::columnar::block_count(rows) as u64,
    }
}

/// SDSS pans at 10k, 100k and 1M rows: every size answers fresh pans by
/// delta recomputation, zone maps prune blocks, and warm-pan latency does
/// not scale with data size (10x the rows costs at most 10x the p50). At
/// 1M rows each fresh pan scans at most a quarter of the table's blocks:
/// a `dec` move dirties every block (rows are stored in `ra` order), and
/// only the `ra` conjunct's zones can clear them.
#[test]
#[cfg_attr(debug_assertions, ignore = "latency gate: run with --release")]
fn interaction_sweep_prunes_and_warm_pans_scale_sublinearly() {
    const RATIO_BOUND: f64 = 10.0;
    let sizes = [10_000, 100_000, 1_000_000];
    let points: Vec<SweepPoint> = sizes.iter().map(|&n| sweep_point(n)).collect();
    for (rows, p) in sizes.iter().zip(&points) {
        assert!(p.delta_hits > 0, "{rows} rows: no pan was answered by delta recomputation");
        assert!(p.blocks_pruned > 0, "{rows} rows: zone maps pruned nothing");
    }
    let largest = &points[2];
    assert!(
        largest.max_pan_blocks_scanned * 4 <= largest.table_blocks,
        "a fresh pan at 1M rows scanned {} of {} blocks (bound: a quarter)",
        largest.max_pan_blocks_scanned,
        largest.table_blocks
    );
    let (mid, top) = (points[1].warm_pan_p50, points[2].warm_pan_p50);
    let ratio = top.as_secs_f64() / mid.as_secs_f64().max(1e-9);
    assert!(
        ratio <= RATIO_BOUND,
        "warm pan p50 at 1M rows ({top:?}) is {ratio:.2}x the 100k p50 ({mid:?}) \
         (bound {RATIO_BOUND}x)"
    );
}

/// Open a toy session, run `log` and generate over `client`. Returns the
/// fleet outcome and the time from `open` to the `generate` response.
fn time_to_interface(client: &LocalClient, log: &[String]) -> (String, Duration) {
    let start = Instant::now();
    let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
    assert_eq!(opened["ok"].as_bool(), Some(true), "open failed: {opened}");
    let session = opened["session"].as_i64().expect("session id");
    for sql in log {
        let ran = client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
        assert_eq!(ran["ok"].as_bool(), Some(true), "run_cell failed: {ran}");
    }
    let generated = client.request(json!({"cmd": "generate", "session": session}));
    let elapsed = start.elapsed();
    assert_eq!(generated["ok"].as_bool(), Some(true), "generate failed: {generated}");
    (generated["fleet"].as_str().unwrap_or("none").to_string(), elapsed)
}

/// The repeated log. Odd clients swap both literals and the cell order;
/// the two flips cancel, so every repeated client submits the identical
/// log and is served the cached entry verbatim.
fn base_log(client: usize) -> Vec<String> {
    let a = 1 + (client % 2);
    let mut log = vec![
        format!("SELECT p, count(*) FROM t WHERE a = {a} GROUP BY p"),
        format!("SELECT p, count(*) FROM t WHERE a = {} GROUP BY p", 3 - a),
    ];
    if client % 2 == 1 {
        log.reverse();
    }
    log
}

/// A literal-variant of the base log: the same fingerprint with other
/// literals, which the fleet respecializes instead of searching.
fn rebind_log(client: usize) -> Vec<String> {
    vec![
        format!("SELECT p, count(*) FROM t WHERE a = {} GROUP BY p", 3 + client % 2),
        "SELECT p, count(*) FROM t WHERE a = 0 GROUP BY p".to_string(),
    ]
}

/// A structurally unique log: the base log plus `v + 1` extra queries
/// (fingerprints keep multiplicity), so each needs its own generation.
fn variant_log(v: usize) -> Vec<String> {
    let mut log = base_log(0);
    log.extend((0..=v).map(|_| "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p".to_string()));
    log
}

/// 64 concurrent clients, 90% of them repeating one log: a cache hit
/// reaches its interface in under 1 ms at p50, and the single-flight
/// table runs exactly one generation per unique fingerprint, shedding
/// nothing.
#[test]
#[cfg_attr(debug_assertions, ignore = "latency gate: run with --release")]
fn fleet_cache_hits_within_1ms_and_one_generation_per_fingerprint() {
    const CLIENTS: usize = 64;
    const REPEAT_EVERY: usize = 10;
    let state = Arc::new(ServerState::with_fleet(FleetConfig::new().max_concurrent_cold(CLIENTS)));
    // Prime the base fingerprint and the toy catalog outside the storm.
    let (outcome, _) = time_to_interface(&LocalClient::new(Arc::clone(&state)), &base_log(0));
    assert_eq!(outcome, "miss", "priming generation must be the first cold miss");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let log = match i % REPEAT_EVERY {
                    r if r == REPEAT_EVERY - 1 => variant_log(i / REPEAT_EVERY),
                    r if r == REPEAT_EVERY - 2 => rebind_log(i),
                    _ => base_log(i),
                };
                time_to_interface(&LocalClient::new(state), &log)
            })
        })
        .collect();
    let mut hits = LatencyHistogram::new();
    for worker in workers {
        let (outcome, elapsed) = worker.join().expect("storm client");
        if outcome == "hit" {
            hits.record(elapsed);
        }
    }
    assert!(hits.count() > 0, "no client was served from the fleet cache");
    let hit_p50 = hits.percentile(0.50);
    assert!(hit_p50 < Duration::from_millis(1), "cache-hit p50 {hit_p50:?} (bound < 1 ms)");

    // One miss per unique fingerprint (the base log plus each variant);
    // rebinds replay the base entry and add none.
    let unique_fingerprints = CLIENTS.div_ceil(REPEAT_EVERY) as i64;
    let stats = LocalClient::new(state).request(json!({"cmd": "stats"}));
    let fleet = &stats["stats"]["fleet"];
    assert_eq!(fleet["misses"].as_i64(), Some(unique_fingerprints), "fleet stats: {fleet}");
    assert_eq!(fleet["sheds"].as_i64(), Some(0), "fleet stats: {fleet}");
}
