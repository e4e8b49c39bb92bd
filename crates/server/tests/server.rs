//! Integration tests for the session server: protocol round-trips,
//! cross-session isolation, a 16-client storm, the gesture event cap, and
//! graceful TCP shutdown.

use pi2_server::{LocalClient, Server, ServerState, TcpClient, MAX_GESTURE_EVENTS};
use serde_json::{json, Value};
use std::sync::Arc;

fn open_toy(client: &LocalClient) -> i64 {
    let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
    assert_eq!(opened["ok"].as_bool(), Some(true), "{opened}");
    let session = opened["session"].as_i64().expect("session id");
    for sql in [
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
    ] {
        let ran = client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
        assert_eq!(ran["ok"].as_bool(), Some(true), "{ran}");
    }
    let generated = client.request(json!({"cmd": "generate", "session": session}));
    assert_eq!(generated["version"].as_i64(), Some(1), "{generated}");
    session
}

fn set_slider(client: &LocalClient, session: i64, value: f64) -> Value {
    client.request(json!({
        "cmd": "gesture", "session": session,
        "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": value}}],
    }))
}

/// The SQL the first chart currently shows.
fn current_sql(client: &LocalClient, session: i64, value: f64) -> String {
    let resp = set_slider(client, session, value);
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    resp["updates"][0]["sql"].as_str().expect("sql").to_string()
}

#[test]
fn protocol_round_trips_ids_errors_and_data() {
    let client = LocalClient::standalone();

    // Request ids are echoed on success and on error.
    let r = client.request(json!({"cmd": "stats", "id": "abc"}));
    assert_eq!(r["id"].as_str(), Some("abc"));
    let r = client.request(json!({"cmd": "generate", "session": 999, "id": 7}));
    assert_eq!(r["ok"].as_bool(), Some(false));
    assert_eq!(r["id"].as_i64(), Some(7));
    assert_eq!(r["error"]["kind"].as_str(), Some("unknown_session"));

    // Unknown scenario and malformed lines give structured errors.
    let r = client.request(json!({"cmd": "open", "scenario": "nope"}));
    assert_eq!(r["error"]["kind"].as_str(), Some("unknown_scenario"));
    let r: Value = serde_json::from_str(&client.request_line("{{{")).expect("valid json");
    assert_eq!(r["error"]["kind"].as_str(), Some("bad_request"));

    let session = open_toy(&client);

    // Gesturing an unknown version is refused before dispatch.
    let r = client.request(json!({
        "cmd": "gesture", "session": session, "version": 5,
        "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}}],
    }));
    assert_eq!(r["error"]["kind"].as_str(), Some("unknown_version"));

    // include_data returns the rows themselves.
    let r = client.request(json!({
        "cmd": "gesture", "session": session, "include_data": true,
        "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}],
    }));
    assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
    let rows = r["updates"][0]["data"].as_array().expect("data rows");
    assert_eq!(rows.len() as i64, r["updates"][0]["rows"].as_i64().expect("row count"));

    // apply_binding is one-event sugar over the same dispatch path.
    let r = client.request(json!({
        "cmd": "apply_binding", "session": session, "widget": 0, "value": {"scalar": 1.0},
    }));
    assert_eq!(r["applied"].as_i64(), Some(1), "{r}");
    assert!(r["updates"][0]["sql"].as_str().expect("sql").contains("a = 1"));

    // A bad single-event gesture surfaces the session error.
    let r = client.request(json!({
        "cmd": "apply_binding", "session": session, "widget": 42, "value": {"scalar": 1.0},
    }));
    assert_eq!(r["error"]["kind"].as_str(), Some("session"), "{r}");

    // Render and per-session stats round-trip.
    let r = client.request(json!({"cmd": "render", "session": session}));
    assert!(r["text"].as_str().expect("text").contains("count(*) by p"), "{r}");
    let r = client.request(json!({"cmd": "stats", "session": session}));
    assert_eq!(r["scenario"].as_str(), Some("toy"));
    assert!(r["dispatched"].as_i64().expect("dispatched") >= 2, "{r}");

    // Close; the session is gone.
    let r = client.request(json!({"cmd": "close", "session": session}));
    assert_eq!(r["ok"].as_bool(), Some(true));
    let r = client.request(json!({"cmd": "render", "session": session}));
    assert_eq!(r["error"]["kind"].as_str(), Some("unknown_session"));
}

#[test]
fn rapid_fire_gestures_coalesce_before_dispatch() {
    let client = LocalClient::standalone();
    let session = open_toy(&client);
    let r = client.request(json!({
        "cmd": "gesture", "session": session,
        "events": [
            {"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}},
            {"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}},
            {"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}},
            {"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}},
        ],
    }));
    assert_eq!(r["applied"].as_i64(), Some(1), "{r}");
    assert_eq!(r["coalesced"].as_i64(), Some(3), "{r}");
    assert!(r["updates"][0]["sql"].as_str().expect("sql").contains("a = 2"));
}

#[test]
fn two_sessions_never_bleed_state() {
    let client = LocalClient::standalone();
    let a = open_toy(&client);
    let b = open_toy(&client);
    assert_ne!(a, b);

    // Drive A and B to different binding states, interleaved. (Sessions
    // start at the first witness binding `a = 1`, and unchanged bindings
    // are dependency-skipped, so every step below changes state.)
    assert!(current_sql(&client, a, 2.0).contains("a = 2"));
    assert!(current_sql(&client, b, 2.0).contains("a = 2"));
    assert!(current_sql(&client, b, 1.0).contains("a = 1"));
    // A must still be where A left it, despite B's dispatches (and vice
    // versa): render shows each session's live slider position.
    let render_a = client.request(json!({"cmd": "render", "session": a}));
    assert!(render_a["text"].as_str().expect("text").contains("◀─ 2 ─▶"), "{render_a}");
    let render_b = client.request(json!({"cmd": "render", "session": b}));
    assert!(render_b["text"].as_str().expect("text").contains("◀─ 1 ─▶"), "{render_b}");

    // Stats (dispatch counters, caches) are tracked per session.
    let stats_a = client.request(json!({"cmd": "stats", "session": a}));
    let stats_b = client.request(json!({"cmd": "stats", "session": b}));
    assert_eq!(stats_a["dispatched"].as_i64(), Some(1), "{stats_a}");
    assert_eq!(stats_b["dispatched"].as_i64(), Some(2), "{stats_b}");

    // Closing A leaves B fully operational.
    client.request(json!({"cmd": "close", "session": a}));
    assert!(current_sql(&client, b, 2.0).contains("a = 2"));
}

/// Sixteen concurrent clients on one server, each driving its own session
/// through a distinct slider sequence. Every client's final SQL must equal
/// the SQL a fresh single-session replay of the same sequence produces:
/// any cross-session leakage (shared bindings, the shared result cache
/// keyed wrongly, a registry mix-up) breaks the equality.
#[test]
fn sixteen_client_storm_has_zero_cross_session_leakage() {
    const CLIENTS: usize = 16;
    let state = Arc::new(ServerState::new());
    // Build + cache the toy catalog once so threads don't race the first
    // build (they would only waste work, but keep timings tight).
    open_toy(&LocalClient::new(Arc::clone(&state)));

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let client = LocalClient::new(state);
                let session = open_toy(&client);
                // Distinct per-client sequence ending on a client-specific
                // value: clients alternate targets while interleaving.
                let last = 1.0 + ((i % 2) as f64);
                let mut sql = String::new();
                for step in 0..4 {
                    let value = if step % 2 == 0 { 3.0 - last } else { last };
                    let resp = set_slider(&client, session, value);
                    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
                    sql = resp["updates"][0]["sql"].as_str().unwrap_or("").to_string();
                }
                (i, session, sql)
            })
        })
        .collect();
    let results: Vec<(usize, i64, String)> =
        workers.into_iter().map(|w| w.join().expect("worker")).collect();

    // Single-session replay on a fresh server: the ground truth.
    let reference = LocalClient::standalone();
    for (i, session, sql) in &results {
        let ref_session = open_toy(&reference);
        let last = 1.0 + ((i % 2) as f64);
        let mut expected = String::new();
        for step in 0..4 {
            let value = if step % 2 == 0 { 3.0 - last } else { last };
            let resp = set_slider(&reference, ref_session, value);
            expected = resp["updates"][0]["sql"].as_str().unwrap_or("?").to_string();
        }
        assert_eq!(sql, &expected, "client {i} (session {session}) leaked state");
    }

    // All sessions are live and the server-wide stats see them.
    let stats = LocalClient::new(Arc::clone(&state)).request(json!({"cmd": "stats"}));
    assert_eq!(stats["stats"]["active_sessions"].as_i64(), Some(1 + CLIENTS as i64), "{stats}");
    assert_eq!(stats["stats"]["errors"].as_i64(), Some(0), "{stats}");
    assert!(stats["stats"]["endpoints"]["gesture"]["count"].as_i64().expect("histogram") >= 64);

    // Engine counters for the shared toy catalog: the executions above all
    // ran somewhere, and the tallies surface through the stats endpoint.
    let engine = &stats["stats"]["engine"]["toy"];
    let columnar = engine["exec_columnar"].as_i64().expect("exec_columnar");
    let reference = engine["exec_reference"].as_i64().expect("exec_reference");
    assert!(columnar + reference > 0, "{stats}");
    assert!(engine["blocks_scanned"].as_i64().is_some(), "{stats}");
    assert!(engine["blocks_pruned"].as_i64().is_some(), "{stats}");
    assert!(engine["columnar_build_ms"].as_f64().is_some(), "{stats}");
}

/// Sixteen clients open the same scenario and log concurrently; the
/// fleet cache's single-flight table must collapse them onto exactly one
/// cold search. The fleet counters are the witness: one miss (the
/// leader), and every other generation either joined the leader's flight
/// or hit the published cache entry.
#[test]
fn sixteen_concurrent_opens_run_exactly_one_generation() {
    const CLIENTS: usize = 16;
    let state = Arc::new(ServerState::new());
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let client = LocalClient::new(state);
                open_toy(&client)
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let stats = LocalClient::new(Arc::clone(&state)).request(json!({"cmd": "stats"}));
    let fleet = &stats["stats"]["fleet"];
    assert_eq!(fleet["misses"].as_i64(), Some(1), "{stats}");
    let hits = fleet["hits"].as_i64().expect("hits");
    let joins = fleet["joins"].as_i64().expect("joins");
    assert_eq!(hits + joins, (CLIENTS - 1) as i64, "{stats}");
    assert_eq!(fleet["sheds"].as_i64(), Some(0), "{stats}");
    assert_eq!(fleet["entries"].as_i64(), Some(1), "{stats}");
}

/// A session whose log differs from a cached entry only in literal values
/// is served a respecialization of the cached design (`rebind`) bound to
/// its OWN literals — never the first session's literal-bearing snapshot.
#[test]
fn literal_variant_session_is_rebound_not_served_verbatim() {
    let state = Arc::new(ServerState::new());
    open_toy(&LocalClient::new(Arc::clone(&state))); // primes a = 1 / a = 2

    let client = LocalClient::new(Arc::clone(&state));
    let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
    assert_eq!(opened["ok"].as_bool(), Some(true), "{opened}");
    let session = opened["session"].as_i64().expect("session id");
    for sql in [
        "SELECT p, count(*) FROM t WHERE a = 3 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 0 GROUP BY p",
    ] {
        let ran = client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
        assert_eq!(ran["ok"].as_bool(), Some(true), "{ran}");
    }
    let generated = client.request(json!({"cmd": "generate", "session": session}));
    assert_eq!(generated["ok"].as_bool(), Some(true), "{generated}");
    assert_eq!(generated["fleet"].as_str(), Some("rebind"), "{generated}");
    assert_eq!(generated["degradation"].as_str(), Some("full"), "{generated}");

    // The rebound interface is interactive over this session's literals
    // (its default is the session's own first literal, a = 3, so moving
    // to the session's other literal must produce an update).
    let sql = current_sql(&client, session, 0.0);
    assert!(sql.contains("a = 0"), "rebound widget ignored the session's literal: {sql}");

    let stats = client.request(json!({"cmd": "stats"}));
    let fleet = &stats["stats"]["fleet"];
    assert_eq!(fleet["rebinds"].as_i64(), Some(1), "{stats}");
    assert_eq!(fleet["misses"].as_i64(), Some(1), "{stats}");
    assert_eq!(fleet["entries"].as_i64(), Some(1), "{stats}");
}

/// `cache: {"mode": "bypass"}` opts a session out of the fleet: its
/// generation runs a fresh private search that neither reads nor writes
/// the shared cache, and its responses carry no `fleet` outcome.
#[test]
fn cache_bypass_forces_a_fresh_private_search() {
    let state = Arc::new(ServerState::new());
    let shared = LocalClient::new(Arc::clone(&state));
    open_toy(&shared); // one cold generation, now cached

    let client = LocalClient::new(Arc::clone(&state));
    let opened =
        client.request(json!({"cmd": "open", "scenario": "toy", "cache": {"mode": "bypass"}}));
    assert_eq!(opened["ok"].as_bool(), Some(true), "{opened}");
    let session = opened["session"].as_i64().expect("session id");
    for sql in [
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
    ] {
        client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
    }
    let generated = client.request(json!({"cmd": "generate", "session": session}));
    assert_eq!(generated["ok"].as_bool(), Some(true), "{generated}");
    assert_eq!(generated["degradation"].as_str(), Some("full"), "{generated}");
    assert!(generated["fleet"].is_null(), "bypass must not touch the fleet: {generated}");

    // The bypass generation left every fleet counter where open_toy put it.
    let stats = shared.request(json!({"cmd": "stats"}));
    let fleet = &stats["stats"]["fleet"];
    assert_eq!(fleet["misses"].as_i64(), Some(1), "{stats}");
    assert_eq!(fleet["hits"].as_i64(), Some(0), "{stats}");
    assert_eq!(fleet["joins"].as_i64(), Some(0), "{stats}");
}

/// With the cold-generation cap at zero every cold search is shed by
/// admission control: it still runs immediately (never queues) but under
/// the overflow budget, and the response says so truthfully — the
/// degradation level is `anytime` and the fleet outcome is `shed`.
#[test]
fn admission_overflow_degrades_to_anytime_and_never_queues() {
    let state =
        Arc::new(ServerState::with_fleet(pi2_core::FleetConfig::new().max_concurrent_cold(0)));
    let client = LocalClient::new(Arc::clone(&state));
    let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
    let session = opened["session"].as_i64().expect("session id");
    for sql in [
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
    ] {
        client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
    }
    let generated = client.request(json!({"cmd": "generate", "session": session}));
    assert_eq!(generated["ok"].as_bool(), Some(true), "{generated}");
    assert_eq!(generated["degradation"].as_str(), Some("anytime"), "{generated}");
    assert_eq!(generated["fleet"].as_str(), Some("shed"), "{generated}");

    let stats = client.request(json!({"cmd": "stats"}));
    let fleet = &stats["stats"]["fleet"];
    assert!(fleet["sheds"].as_i64().expect("sheds") >= 1, "{stats}");
    // Shed results are never pinned: the cache must still be empty.
    assert_eq!(fleet["entries"].as_i64(), Some(0), "{stats}");
}

#[test]
fn oversized_gesture_is_a_bad_request() {
    let dir = std::env::temp_dir().join(format!("pi2-gesture-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (state, _) = ServerState::with_journal(
        pi2_core::prelude::FleetConfig::default(),
        pi2_server::JournalConfig::new(&dir),
    )
    .expect("with_journal");
    let client = LocalClient::new(Arc::new(state));
    let session = open_toy(&client);
    let dispatched = || {
        let stats = client.request(json!({"cmd": "stats", "session": session}));
        stats["dispatched"].as_u64().expect("dispatched")
    };
    let journal_bytes = || client.state().journal().expect("journal").bytes();
    let gesture = |n: usize| {
        let event = json!({"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}});
        client.request(json!({"cmd": "gesture", "session": session, "events": vec![event; n]}))
    };
    let (dispatched_before, bytes_before) = (dispatched(), journal_bytes());

    // One event past the cap: refused outright, nothing runs or is
    // journaled, and nothing marks it worth resending.
    let r = gesture(MAX_GESTURE_EVENTS + 1);
    assert_eq!(r["ok"].as_bool(), Some(false), "{r}");
    assert_eq!(r["error"]["kind"].as_str(), Some("bad_request"), "{r}");
    assert!(r["error"].get("retry").is_none(), "{r}");
    assert_eq!(dispatched(), dispatched_before);
    assert_eq!(journal_bytes(), bytes_before, "a refused gesture appends no frame");

    // At the cap the same gesture runs, coalesced to one dispatch.
    let r = gesture(MAX_GESTURE_EVENTS);
    assert_eq!(r["applied"].as_u64(), Some(1), "{r}");
    assert_eq!(r["coalesced"].as_u64(), Some(MAX_GESTURE_EVENTS as u64 - 1), "{r}");
    assert_eq!(dispatched(), dispatched_before + 1);
    assert!(journal_bytes() > bytes_before);
    std::fs::remove_dir_all(&dir).expect("remove journal dir");
}

#[test]
fn tcp_server_shuts_down_gracefully() {
    let state = Arc::new(ServerState::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
    let mut client = TcpClient::connect(server.local_addr()).expect("connect");

    let opened = client.request(json!({"cmd": "open", "scenario": "toy"})).expect("open");
    assert_eq!(opened["ok"].as_bool(), Some(true), "{opened}");

    let bye = client.request(json!({"cmd": "shutdown"})).expect("shutdown");
    assert_eq!(bye["draining"].as_bool(), Some(true), "{bye}");

    // While draining, non-stats verbs are refused (the connection may
    // instead already be closed — both are clean outcomes).
    match client.request(json!({"cmd": "open", "scenario": "toy"})) {
        Ok(refused) => {
            assert_eq!(refused["error"]["kind"].as_str(), Some("shutting_down"), "{refused}")
        }
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "{e}"
        ),
    }

    // join() returns only after every connection handler has exited.
    server.join();
    assert!(state.draining());

    // In-process requests are refused after drain, except stats.
    let local = LocalClient::new(state);
    let r = local.request(json!({"cmd": "run_cell", "session": 1, "sql": "SELECT 1"}));
    assert_eq!(r["error"]["kind"].as_str(), Some("shutting_down"));
    let r = local.request(json!({"cmd": "stats"}));
    assert_eq!(r["ok"].as_bool(), Some(true));
}

/// The keys of a JSON object, in order.
fn keys(v: &Value) -> Vec<&str> {
    v.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn render_delta_body_keys_are_pinned() {
    let client = LocalClient::standalone();
    let session = open_toy(&client);
    let render_delta = |since: Option<u64>| {
        let mut request = json!({"cmd": "render_delta", "session": session});
        if let Some(since) = since {
            request["since"] = json!(since);
        }
        client.request(request)
    };
    let snapshot = render_delta(None);
    assert_eq!(keys(&snapshot), ["ok", "scene_version", "frames", "resync", "scene", "version"]);
    let since = snapshot["scene_version"].as_u64().expect("scene_version");
    let up_to_date = render_delta(Some(since));
    assert_eq!(keys(&up_to_date), ["ok", "scene_version", "frames", "version"], "{up_to_date}");
    assert_eq!(set_slider(&client, session, 2.0)["ok"].as_bool(), Some(true));
    let frames = render_delta(Some(since));
    assert_eq!(keys(&frames), ["ok", "scene_version", "frames", "version"], "{frames}");
    assert_eq!(frames["frames"].as_array().map(Vec::len), Some(1), "{frames}");
}

#[test]
fn stats_shape_is_pinned() {
    let dir = std::env::temp_dir().join(format!("pi2-stats-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (state, _) = ServerState::with_journal(
        pi2_core::prelude::FleetConfig::default(),
        pi2_server::JournalConfig::new(&dir),
    )
    .expect("with_journal");
    let client = LocalClient::new(Arc::new(state));
    let session = open_toy(&client);
    for value in [2.0, 1.0, 2.0] {
        assert_eq!(set_slider(&client, session, value)["ok"].as_bool(), Some(true));
    }

    let all = client.request(json!({"cmd": "stats"}));
    let stats = &all["stats"];
    let endpoints = stats["endpoints"].as_object().expect("endpoints");
    assert!(endpoints.contains_key("gesture"), "{stats}");
    for (name, h) in endpoints.iter() {
        assert_eq!(
            keys(h),
            ["count", "p50_us", "p95_us", "p99_us", "mean_us", "max_us"],
            "endpoints.{name}"
        );
        assert!(h.as_object().expect("histogram").iter().all(|(_, v)| v.as_f64().is_some()));
    }
    assert_eq!(endpoints.get("gesture").expect("gesture")["count"].as_u64(), Some(3));
    assert_eq!(keys(&stats["session_totals"]), ["enqueued", "coalesced", "dispatched"]);
    assert_eq!(
        keys(&stats["fleet"]),
        ["hits", "misses", "joins", "sheds", "rebinds", "join_timeouts", "entries"]
    );
    assert_eq!(
        keys(&stats["journal"]),
        [
            "enabled",
            "journal_bytes",
            "sessions_recovered",
            "frames_replayed",
            "frames_skipped",
            "warnings"
        ]
    );
    assert_eq!(
        keys(&stats["engine"]["toy"]),
        ["blocks_scanned", "blocks_pruned", "exec_columnar", "exec_reference", "columnar_build_ms"]
    );

    let one = client.request(json!({"cmd": "stats", "session": session}));
    let v1 = &one["versions"]["v1"];
    assert_eq!(
        keys(v1),
        [
            "dispatches",
            "cache_hits",
            "cache_misses",
            "delta_hits",
            "delta_seeds",
            "columnar_execs",
            "reference_execs",
            "charts_updated",
            "charts_skipped"
        ],
        "{one}"
    );
    assert_eq!(one["dispatched"].as_u64(), Some(3), "{one}");
    assert_eq!(v1["dispatches"], one["dispatched"], "{one}");
    std::fs::remove_dir_all(&dir).expect("remove journal dir");
}
