//! Tests for the `render_delta` endpoint and the scene-delta protocol it
//! speaks.
//!
//! The property test closes the loop the endpoint relies on: arbitrary
//! gesture streams, chunked and coalesced exactly as the server's queue
//! would, dispatched through `dispatch_with_delta`, with every resulting
//! delta round-tripped through the wire codec and applied to a client-side
//! scene — which must stay bit-for-bit equal to a fresh full render at
//! every step. The integration tests drive the real endpoint through
//! `LocalClient` and pin the resync contract: a stale client gets exactly
//! one snapshot, then plain frames from there on.

use pi2_core::prelude::{Pi2, SceneGraph, SearchStrategy};
use pi2_core::scene::{delta_from_json, delta_to_json, SCENE_HISTORY_CAP};
use pi2_server::{coalesce, LocalClient};
use proptest::prelude::*;
use serde_json::json;

mod common;
use common::arb_chunks;

const TOY_CELLS: [&str; 2] = [
    "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
    "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of coalesced gesture chunks, applied client-side
    /// as wire-codec deltas, equals a fresh full render after every event.
    #[test]
    fn coalesced_deltas_applied_client_side_equal_full_render(chunks in arb_chunks()) {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2.generate_sql(&TOY_CELLS).unwrap();
        let mut session = pi2.session(&g);

        let (mut client, mut version) = session.scene_snapshot().unwrap();
        prop_assert_eq!(version, 1);

        for chunk in chunks {
            // The server's queue coalesces each gesture burst before
            // dispatch; mirror that here (single interface version).
            let merged = coalesce(chunk.into_iter().map(|e| (1usize, e)).collect());
            for (_, event) in merged {
                match session.dispatch_with_delta(event) {
                    Ok((_updates, Some(delta))) => {
                        // Through the wire codec, as render_delta sends it.
                        let rt = delta_from_json(&delta_to_json(&delta)).unwrap();
                        prop_assert_eq!(rt.from_version, version);
                        client.apply(&rt).unwrap();
                        version = rt.to_version;
                    }
                    Ok((_updates, None)) => {}
                    // Rejected events (unknown chart, wrong widget value
                    // kind) must leave the scene untouched — the equality
                    // check below verifies exactly that.
                    Err(_) => {}
                }
                prop_assert_eq!(&client, &SceneGraph::build_from(&session).unwrap());
                prop_assert_eq!(version, session.scene_version());
            }
        }
    }
}

fn open_toy_interface(client: &LocalClient) -> i64 {
    let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
    assert_eq!(opened["ok"].as_bool(), Some(true), "{opened}");
    assert_eq!(
        opened["protocol"].as_i64(),
        Some(3),
        "open response must advertise the protocol revision: {opened}"
    );
    let session = opened["session"].as_i64().expect("session id");
    for sql in TOY_CELLS {
        let r = client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
        assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
    }
    let generated = client.request(json!({"cmd": "generate", "session": session}));
    assert_eq!(generated["ok"].as_bool(), Some(true), "{generated}");
    session
}

fn nudge_slider(client: &LocalClient, session: i64, value: f64) {
    let r = client.request(json!({
        "cmd": "gesture",
        "session": session,
        "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": value}}],
    }));
    assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
}

#[test]
fn stale_client_gets_exactly_one_resync_snapshot() {
    let client = LocalClient::standalone();
    let session = open_toy_interface(&client);

    // First contact (no `since`): one full snapshot at the live version.
    let first = client.request(json!({"cmd": "render_delta", "session": session}));
    assert_eq!(first["ok"].as_bool(), Some(true), "{first}");
    assert_eq!(first["resync"].as_bool(), Some(true), "{first}");
    assert!(first["scene"].as_object().is_some(), "resync carries a scene: {first}");
    let v1 = first["scene_version"].as_i64().expect("scene_version");
    assert_eq!(v1, 1);

    nudge_slider(&client, session, 2.0);

    // An up-to-date-ish client catches up with plain frames, no snapshot.
    let frames = client.request(json!({
        "cmd": "render_delta", "session": session, "since": v1,
    }));
    assert_eq!(frames["ok"].as_bool(), Some(true), "{frames}");
    assert!(frames["resync"].as_bool().is_none(), "no resync on a fresh client: {frames}");
    assert!(frames["scene"].as_object().is_none(), "{frames}");
    let patch = frames["frames"].as_array().expect("frames array");
    assert_eq!(patch.len(), 1, "one gesture, one frame: {frames}");
    assert_eq!(patch[0]["from"].as_i64(), Some(v1));
    let v2 = frames["scene_version"].as_i64().expect("scene_version");
    assert_eq!(patch[0]["to"].as_i64(), Some(v2));

    // A client claiming a version the server never issued is stale:
    // exactly one resync snapshot, never a frame chain.
    let stale = client.request(json!({
        "cmd": "render_delta", "session": session, "since": 999,
    }));
    assert_eq!(stale["ok"].as_bool(), Some(true), "{stale}");
    assert_eq!(stale["resync"].as_bool(), Some(true), "{stale}");
    assert!(stale["scene"].as_object().is_some(), "{stale}");
    assert_eq!(stale["frames"].as_array().map(Vec::len), Some(0), "{stale}");
    let resync_version = stale["scene_version"].as_i64().expect("scene_version");
    assert_eq!(resync_version, v2);

    // One snapshot is enough: from the advertised version the client is
    // fully caught up — no second resync, no frames.
    let after = client.request(json!({
        "cmd": "render_delta", "session": session, "since": resync_version,
    }));
    assert_eq!(after["ok"].as_bool(), Some(true), "{after}");
    assert!(after["resync"].as_bool().is_none(), "{after}");
    assert!(after["scene"].as_object().is_none(), "{after}");
    assert_eq!(after["frames"].as_array().map(Vec::len), Some(0), "{after}");
}

#[test]
fn history_eviction_falls_back_to_resync() {
    let client = LocalClient::standalone();
    let session = open_toy_interface(&client);

    // Establish version 1, then push the history ring past its capacity.
    let first = client.request(json!({"cmd": "render_delta", "session": session}));
    assert_eq!(first["scene_version"].as_i64(), Some(1), "{first}");
    for i in 0..(SCENE_HISTORY_CAP + 4) {
        nudge_slider(&client, session, if i % 2 == 0 { 2.0 } else { 1.0 });
    }

    // Version 1 fell out of the ring: the server must resync, not 500.
    let catchup = client.request(json!({
        "cmd": "render_delta", "session": session, "since": 1,
    }));
    assert_eq!(catchup["ok"].as_bool(), Some(true), "{catchup}");
    assert_eq!(catchup["resync"].as_bool(), Some(true), "{catchup}");
    assert!(catchup["scene"].as_object().is_some(), "{catchup}");
    let live = catchup["scene_version"].as_i64().expect("scene_version");
    assert!(live > SCENE_HISTORY_CAP as i64, "{catchup}");

    // A recent version still replays as frames.
    let recent = client.request(json!({
        "cmd": "render_delta", "session": session, "since": live - 2,
    }));
    assert_eq!(recent["ok"].as_bool(), Some(true), "{recent}");
    assert!(recent["resync"].as_bool().is_none(), "{recent}");
    assert_eq!(recent["frames"].as_array().map(Vec::len), Some(2), "{recent}");
}
