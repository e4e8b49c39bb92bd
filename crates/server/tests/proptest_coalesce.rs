//! Property tests for gesture coalescing: the pure [`coalesce`] function
//! that `SessionEntry::dispatch` applies to each request's events.
//!
//! The invariants under test are the documented merge semantics:
//! adjacent same-target pans sum their deltas, zooms multiply their
//! factors, brushes and set-widget events keep only the last value,
//! clicks never merge, and nothing merges across version or target
//! boundaries. To make the arithmetic invariants exact (`==`, not
//! approximate), generated pan deltas are dyadic rationals and zoom
//! factors are powers of two — both closed under the merge ops.

use pi2_core::prelude::Event;
use pi2_server::coalesce;
use proptest::prelude::*;
use serde_json::json;

mod common;
use common::arb_stream;

/// The merge key: two *adjacent* events merge iff their keys are equal
/// (and neither is a click — clicks never merge).
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Key {
    Pan(usize, usize),
    Zoom(usize, usize),
    Brush(usize, usize),
    Widget(usize, usize),
    Click,
}

fn key(version: usize, event: &Event) -> Key {
    match event {
        Event::Pan { chart, .. } => Key::Pan(version, *chart),
        Event::Zoom { chart, .. } => Key::Zoom(version, *chart),
        Event::Brush { chart, .. } => Key::Brush(version, *chart),
        Event::SetWidget { widget, .. } => Key::Widget(version, *widget),
        Event::Click { .. } => Key::Click,
    }
}

/// Sum of pan deltas for one (version, chart) across a whole stream —
/// preserved by coalescing because merging adds deltas and non-merged
/// pans pass through untouched.
fn pan_sum(stream: &[(usize, Event)], target: (usize, usize)) -> (f64, f64) {
    stream.iter().fold((0.0, 0.0), |(sx, sy), (v, e)| match e {
        Event::Pan { chart, dx, dy } if (*v, *chart) == target => (sx + dx, sy + dy),
        _ => (sx, sy),
    })
}

fn zoom_product(stream: &[(usize, Event)], target: (usize, usize)) -> f64 {
    stream.iter().fold(1.0, |p, (v, e)| match e {
        Event::Zoom { chart, factor } if (*v, *chart) == target => p * factor,
        _ => p,
    })
}

fn last_of(stream: &[(usize, Event)], k: Key) -> Option<&(usize, Event)> {
    stream.iter().rev().find(|(v, e)| key(*v, e) == k)
}

fn clicks(stream: &[(usize, Event)]) -> Vec<&(usize, Event)> {
    stream.iter().filter(|(_, e)| matches!(e, Event::Click { .. })).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coalescing is idempotent: the output has nothing left to merge.
    #[test]
    fn idempotent(stream in arb_stream()) {
        let once = coalesce(stream);
        let twice = coalesce(once.clone());
        prop_assert_eq!(once, twice);
    }

    /// Canonical form: no adjacent pair of the output shares a mergeable
    /// key (clicks are exempt — they are allowed to sit side by side).
    #[test]
    fn no_adjacent_mergeable_pairs_survive(stream in arb_stream()) {
        let out = coalesce(stream);
        for pair in out.windows(2) {
            let (a, b) = (key(pair[0].0, &pair[0].1), key(pair[1].0, &pair[1].1));
            prop_assert!(a != b || a == Key::Click, "unmerged adjacent pair: {pair:?}");
        }
    }

    /// Order is preserved: the output's key sequence equals the input's
    /// with runs of one mergeable key collapsed to a single entry.
    #[test]
    fn key_sequence_is_the_run_collapsed_input(stream in arb_stream()) {
        let expected: Vec<Key> = stream.iter().fold(Vec::new(), |mut acc, (v, e)| {
            let k = key(*v, e);
            if acc.last() != Some(&k) || k == Key::Click {
                acc.push(k);
            }
            acc
        });
        let got: Vec<Key> = coalesce(stream).iter().map(|(v, e)| key(*v, e)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Pan deltas sum, zoom factors multiply: the per-target totals are
    /// exactly preserved (dyadic inputs make this `==`-exact).
    #[test]
    fn pan_sums_and_zoom_products_are_preserved(stream in arb_stream()) {
        let out = coalesce(stream.clone());
        for version in 1..3usize {
            for chart in 0..3usize {
                let t = (version, chart);
                prop_assert_eq!(pan_sum(&stream, t), pan_sum(&out, t));
                prop_assert_eq!(zoom_product(&stream, t), zoom_product(&out, t));
            }
        }
    }

    /// Brushes and widget writes are last-wins: for every target, the
    /// final surviving value is the input's final value.
    #[test]
    fn brush_and_widget_are_last_wins(stream in arb_stream()) {
        let out = coalesce(stream.clone());
        for version in 1..3usize {
            for target in 0..3usize {
                for k in [Key::Brush(version, target), Key::Widget(version, target)] {
                    prop_assert_eq!(last_of(&out, k), last_of(&stream, k));
                }
            }
        }
    }

    /// Clicks are sacred: every click survives, in order, unmodified.
    #[test]
    fn every_click_survives_in_order(stream in arb_stream()) {
        let out = coalesce(stream.clone());
        prop_assert_eq!(clicks(&out), clicks(&stream));
    }
}

/// Dispatch equivalence on a real generated interface, for `set_widget`
/// bursts: replaying a burst one-request-per-event (nothing to coalesce)
/// and as one batched request (maximal coalescing) must land both
/// sessions in byte-identical rendered states, because widget sets (like
/// brushes) are last-wins. Pans and zooms carry no such promise: a
/// request's adjacent pans or zooms of one chart apply as one gesture,
/// clamped and rounded once, so `[pan 0.4, pan 0.4]` in one request can
/// move a date window by a day where two one-pan requests leave it in
/// place. Crash replay matches the live state either way, because the
/// journal records each request's events as they ran (`recovery.rs`).
#[test]
fn coalesced_and_raw_dispatch_render_identically() {
    use pi2_server::LocalClient;

    // A handful of deterministic bursts over the toy slider interface;
    // each burst mixes mergeable runs with interleavings.
    let bursts: Vec<Vec<serde_json::Value>> = vec![
        vec![
            json!({"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}}),
            json!({"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}),
            json!({"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}}),
        ],
        vec![
            json!({"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}),
            json!({"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}),
        ],
    ];

    let run = |batched: bool| -> Vec<String> {
        let client = LocalClient::standalone();
        let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
        let session = opened["session"].as_i64().expect("session id");
        for sql in [
            "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        ] {
            let r = client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
            assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
        }
        let generated = client.request(json!({"cmd": "generate", "session": session}));
        assert_eq!(generated["ok"].as_bool(), Some(true), "{generated}");

        let mut renders = Vec::new();
        for burst in &bursts {
            if batched {
                let r = client.request(
                    json!({"cmd": "gesture", "session": session, "events": burst.clone()}),
                );
                assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
            } else {
                for event in burst {
                    let r = client.request(
                        json!({"cmd": "gesture", "session": session, "events": [event.clone()]}),
                    );
                    assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
                }
            }
            let rendered = client.request(json!({"cmd": "render", "session": session}));
            renders.push(rendered["text"].as_str().expect("render text").to_string());
        }
        renders
    };

    assert_eq!(run(false), run(true), "coalesced dispatch diverged from raw dispatch");
}
