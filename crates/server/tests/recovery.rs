//! Crash-safety integration tests: the write-ahead session journal,
//! restart recovery, resume-by-token, and the `req_id` dedupe window.
//!
//! "Crash" here is dropping a journaled `ServerState` without calling
//! `journal_clean_close` — exactly the state a `kill -9` leaves on disk
//! (the process-level version runs in `pi2-server --recovery-smoke`).

use pi2_core::prelude::FleetConfig;
use pi2_server::{JournalConfig, LocalClient, ServerState};
use pi2_telemetry::LatencyHistogram;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pi2-recovery-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaled(dir: &PathBuf, checkpoint_every: u64) -> (LocalClient, pi2_server::RecoveryReport) {
    let config = JournalConfig::new(dir).checkpoint_every(checkpoint_every);
    let (state, report) =
        ServerState::with_journal(FleetConfig::default(), config).expect("with_journal");
    (LocalClient::new(Arc::new(state)), report)
}

fn ok(client: &LocalClient, request: Value) -> Value {
    let response = client.request(request);
    assert_eq!(response["ok"].as_bool(), Some(true), "{response}");
    response
}

/// Open a toy session, run the two demo cells, generate, move the
/// slider. Returns (session, token, render text).
fn drive_toy(client: &LocalClient) -> (u64, String, String) {
    let opened = ok(client, json!({"cmd": "open", "scenario": "toy", "req_id": "r-open"}));
    let session = opened["session"].as_u64().expect("session id");
    let token = opened["session_token"].as_str().expect("session_token").to_string();
    for (i, sql) in [
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
    ]
    .iter()
    .enumerate()
    {
        ok(
            client,
            json!({
                "cmd": "run_cell", "session": session, "sql": *sql,
                "req_id": format!("r-cell-{i}"),
            }),
        );
    }
    ok(client, json!({"cmd": "generate", "session": session, "req_id": "r-gen"}));
    ok(
        client,
        json!({
            "cmd": "gesture", "session": session, "req_id": "r-gesture",
            "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}],
        }),
    );
    (session, token, render(client, session))
}

fn render(client: &LocalClient, session: u64) -> String {
    let rendered = ok(client, json!({"cmd": "render", "session": session}));
    rendered["text"].as_str().expect("render text").to_string()
}

#[test]
fn crash_recovery_resumes_byte_identical_render() {
    let dir = temp_dir("crash");
    let (client, report) = journaled(&dir, 3);
    assert_eq!(report.sessions_recovered, 0, "fresh journal");
    let (session, token, before) = drive_toy(&client);
    drop(client); // crash: no clean close, no final checkpoint

    let (client, report) = journaled(&dir, 3);
    assert_eq!(report.sessions_recovered, 1, "{report:?}");
    assert!(!report.clean);
    assert!(report.warnings.is_empty(), "{report:?}");
    let resumed = ok(&client, json!({"cmd": "resume", "token": token}));
    assert_eq!(resumed["session"].as_u64(), Some(session));
    assert_eq!(resumed["recovered"].as_bool(), Some(true));
    assert_eq!(resumed["latest_version"].as_u64(), Some(1));
    assert_eq!(render(&client, session), before, "recovered render must be byte-identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_finds_live_sessions_and_rejects_unknown_tokens() {
    let client = LocalClient::standalone();
    let opened = ok(&client, json!({"cmd": "open", "scenario": "toy"}));
    let token = opened["session_token"].as_str().expect("token");
    let resumed = ok(&client, json!({"cmd": "resume", "token": token}));
    assert_eq!(resumed["session"], opened["session"]);
    assert_eq!(resumed["recovered"].as_bool(), Some(false), "live, not rebuilt");
    let bogus = client.request(json!({"cmd": "resume", "token": "tok-feedfacecafebeef"}));
    assert_eq!(bogus["ok"].as_bool(), Some(false));
    assert_eq!(bogus["error"]["kind"].as_str(), Some("unknown_token"));
}

#[test]
fn retried_req_id_replays_the_cached_response() {
    // Dedupe is protocol-level: it works without any journal attached.
    let client = LocalClient::standalone();
    let opened = ok(&client, json!({"cmd": "open", "scenario": "toy"}));
    let session = opened["session"].as_u64().expect("session");
    let req = json!({
        "cmd": "run_cell", "session": session, "req_id": "retry-1",
        "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
    });
    let first = ok(&client, req.clone());
    assert!(first.get("deduped").is_none());
    let second = ok(&client, req);
    assert_eq!(second["deduped"].as_bool(), Some(true), "{second}");
    assert_eq!(second["cell"], first["cell"], "same cached effect, not a new cell");
    // A genuinely new request under a new id still lands a new cell.
    let third = ok(
        &client,
        json!({
            "cmd": "run_cell", "session": session, "req_id": "retry-2",
            "sql": "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        }),
    );
    assert_ne!(third["cell"], first["cell"]);
}

#[test]
fn clean_shutdown_skips_tail_replay() {
    let dir = temp_dir("clean");
    let (client, _) = journaled(&dir, 1000); // cadence never fires: the clean close must checkpoint
    let (session, token, before) = drive_toy(&client);
    client.state().journal_clean_close();
    drop(client);

    let (client, report) = journaled(&dir, 1000);
    assert!(report.clean, "{report:?}");
    assert_eq!(report.sessions_recovered, 1);
    assert_eq!(report.frames_replayed, 0, "clean restarts trust checkpoints alone");
    let resumed = ok(&client, json!({"cmd": "resume", "token": token}));
    assert_eq!(resumed["session"].as_u64(), Some(session));
    assert_eq!(render(&client, session), before);
    // A crash *after* the clean restart must still recover: the marker
    // was consumed, not left behind.
    drop(client);
    let (_, report) = journaled(&dir, 1000);
    assert!(!report.clean, "the clean marker is single-use");
    assert_eq!(report.sessions_recovered, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_req_id_frames_replay_once() {
    let dir = temp_dir("dupframe");
    let (client, _) = journaled(&dir, 1000); // no checkpoints: everything replays from frames
    let (session, _token, before) = drive_toy(&client);
    // Simulate an at-least-once append gone wrong: the same accepted
    // request journaled twice under one req_id.
    let journal = client.state().journal().expect("journal attached").clone();
    journal
        .append(
            session,
            None,
            &json!({
                "cmd": "run_cell", "session": session, "req_id": "r-cell-0",
                "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
            }),
        )
        .expect("append duplicate");
    drop(client);

    let (client, report) = journaled(&dir, 1000);
    assert_eq!(report.sessions_recovered, 1);
    assert!(report.frames_skipped >= 1, "{report:?}");
    assert!(report.warnings.iter().any(|w| w.contains("duplicate req_id")), "{report:?}");
    assert_eq!(render(&client, session), before, "the duplicate cell must not re-apply");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_newer_than_every_tail_frame_replays_nothing() {
    let dir = temp_dir("cknewer");
    // Checkpoint after every mutation: the final checkpoint covers every
    // frame left in the journal, so recovery must treat the whole tail
    // as superseded rather than double-applying it.
    let (client, _) = journaled(&dir, 1);
    let (session, token, before) = drive_toy(&client);
    drop(client);

    let (client, report) = journaled(&dir, 1);
    assert_eq!(report.sessions_recovered, 1);
    assert_eq!(report.frames_replayed, 0, "{report:?}");
    assert!(report.frames_skipped >= 1, "superseded frames are counted: {report:?}");
    let resumed = ok(&client, json!({"cmd": "resume", "token": token}));
    assert_eq!(resumed["session"].as_u64(), Some(session));
    assert_eq!(render(&client, session), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Review regression: with `checkpoint_every(1)` every mutation triggers
/// a checkpoint, so each checkpoint must snapshot a dedupe window that
/// already contains the req_id of the very mutation that triggered it.
/// If it doesn't, that frame is skipped at replay (lsn <= covered) AND
/// its id is missing from the rebuilt window — a post-crash retry then
/// applies the mutation a second time.
#[test]
fn checkpoint_boundary_req_id_survives_the_crash() {
    let dir = temp_dir("ckptrid");
    let (client, _) = journaled(&dir, 1);
    let (session, token, before) = drive_toy(&client);
    drop(client); // crash

    let (client, report) = journaled(&dir, 1);
    assert_eq!(report.sessions_recovered, 1, "{report:?}");
    ok(&client, json!({"cmd": "resume", "token": token}));
    // The client never saw the ack for its last cell; it retries under
    // the original req_id. The effect must already be present.
    let retried = ok(
        &client,
        json!({
            "cmd": "run_cell", "session": session, "req_id": "r-cell-1",
            "sql": "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        }),
    );
    assert_eq!(retried["deduped"].as_bool(), Some(true), "retry must not re-execute: {retried}");
    let gestured = ok(
        &client,
        json!({
            "cmd": "gesture", "session": session, "req_id": "r-gesture",
            "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}],
        }),
    );
    assert_eq!(gestured["deduped"].as_bool(), Some(true), "{gestured}");
    assert_eq!(render(&client, session), before, "retries must leave state untouched");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Review regression: `open` carries no session id, so its dedupe lives
/// in a server-level window. A retried open (TcpClient resends it after
/// a lost ack) must reattach to the session it already created, not
/// leak a second, orphaned one.
#[test]
fn retried_open_reuses_the_session_instead_of_leaking_one() {
    let client = LocalClient::standalone();
    let first = ok(&client, json!({"cmd": "open", "scenario": "toy", "req_id": "open-A"}));
    let second = ok(&client, json!({"cmd": "open", "scenario": "toy", "req_id": "open-A"}));
    assert_eq!(second["session"], first["session"], "{second}");
    assert_eq!(second["session_token"], first["session_token"]);
    assert_eq!(second["deduped"].as_bool(), Some(true), "{second}");
    assert_eq!(client.state().registry().len(), 1, "no orphan session");
    // A different id still opens a fresh session.
    let third = ok(&client, json!({"cmd": "open", "scenario": "toy", "req_id": "open-B"}));
    assert_ne!(third["session"], first["session"]);
    assert_eq!(client.state().registry().len(), 2);
}

/// The open dedupe window is reseeded from journaled open frames, so an
/// open retry that straddles a crash still reattaches.
#[test]
fn retried_open_dedupes_across_the_crash() {
    let dir = temp_dir("openrid");
    let (client, _) = journaled(&dir, 3);
    let (session, token, _) = drive_toy(&client); // opens with req_id "r-open"
    drop(client); // crash before the (hypothetical) open ack arrived

    let (client, report) = journaled(&dir, 3);
    assert_eq!(report.sessions_recovered, 1, "{report:?}");
    let retried = ok(&client, json!({"cmd": "open", "scenario": "toy", "req_id": "r-open"}));
    assert_eq!(retried["session"].as_u64(), Some(session), "{retried}");
    assert_eq!(retried["session_token"].as_str(), Some(token.as_str()));
    assert_eq!(retried["deduped"].as_bool(), Some(true), "{retried}");
    assert_eq!(client.state().registry().len(), 1, "retry must not open a second session");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Review regression: a session whose rebuild fails must keep its
/// journal frames through the post-recovery truncate — a transient
/// replay failure must not become permanent loss.
#[test]
fn failed_rebuild_keeps_its_journal_frames() {
    let dir = temp_dir("failkeep");
    let (client, _) = journaled(&dir, 1000);
    let (_session, token, before) = drive_toy(&client);
    // A frame tail for a session that cannot be rebuilt (its scenario
    // does not exist — standing in for any transient replay failure).
    let journal = client.state().journal().expect("journal").clone();
    journal.append(77, Some("tok-broken"), &json!({"cmd": "open", "scenario": "nope"})).unwrap();
    journal
        .append(77, None, &json!({"cmd": "run_cell", "session": 77, "sql": "SELECT 1"}))
        .unwrap();
    drop(client); // crash

    let (client, report) = journaled(&dir, 1000);
    assert_eq!(report.sessions_recovered, 1, "{report:?}");
    assert!(report.warnings.iter().any(|w| w.contains("session 77 not recovered")), "{report:?}");
    assert!(report.warnings.iter().any(|w| w.contains("journal retained")), "{report:?}");
    let (frames, _) = pi2_server::journal::scan(&dir).expect("scan");
    assert!(
        frames.iter().any(|f| f.session == 77),
        "session 77's frames must survive the post-recovery truncate"
    );
    // The healthy session is unaffected, and a second crash+recovery
    // still sees (and still preserves) the failed session's frames.
    let resumed = ok(&client, json!({"cmd": "resume", "token": token}));
    let session = resumed["session"].as_u64().unwrap();
    assert_eq!(render(&client, session), before);
    drop(client);
    let (_, report) = journaled(&dir, 1000);
    assert_eq!(report.sessions_recovered, 1);
    let (frames, _) = pi2_server::journal::scan(&dir).expect("scan");
    assert!(frames.iter().any(|f| f.session == 77), "frames survive repeated recoveries");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Review regression: mutations execute and journal under one
/// per-session order lock, so concurrent connections can never journal
/// frames in a different order than they executed — recovery replays
/// byte-identically even for racy histories.
#[test]
fn concurrent_mutations_journal_in_execution_order() {
    let dir = temp_dir("order");
    let (client, _) = journaled(&dir, 1000);
    let opened = ok(&client, json!({"cmd": "open", "scenario": "toy"}));
    let session = opened["session"].as_u64().unwrap();
    let token = opened["session_token"].as_str().unwrap().to_string();
    std::thread::scope(|scope| {
        for a in [1i64, 2] {
            let client = client.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    ok(
                        &client,
                        json!({
                            "cmd": "run_cell", "session": session,
                            "sql": format!("SELECT p, count(*) FROM t WHERE a = {a} GROUP BY p"),
                        }),
                    );
                }
            });
        }
    });
    ok(&client, json!({"cmd": "generate", "session": session}));
    let before = render(&client, session);
    drop(client); // crash

    let (client, report) = journaled(&dir, 1000);
    assert_eq!(report.sessions_recovered, 1, "{report:?}");
    ok(&client, json!({"cmd": "resume", "token": token}));
    assert_eq!(render(&client, session), before, "replay must match the live execution order");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Review regression: two in-flight requests carrying the same req_id
/// must produce exactly one effect — the order lock makes the dedupe
/// check-then-act atomic with execution.
#[test]
fn concurrent_same_req_id_executes_once() {
    let client = LocalClient::standalone();
    let opened = ok(&client, json!({"cmd": "open", "scenario": "toy"}));
    let session = opened["session"].as_u64().unwrap();
    let request = json!({
        "cmd": "run_cell", "session": session, "req_id": "dup-1",
        "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
    });
    let responses: Vec<Value> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let client = client.clone();
                let request = request.clone();
                scope.spawn(move || client.request(request))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).collect()
    });
    for r in &responses {
        assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
    }
    assert_eq!(responses[0]["cell"], responses[1]["cell"], "one effect, one cell index");
    assert_eq!(
        responses.iter().filter(|r| r["deduped"].as_bool() == Some(true)).count(),
        1,
        "exactly one of the pair is a replay: {responses:?}"
    );
    // The next cell lands at index 1: only one cell was ever added.
    let next = ok(
        &client,
        json!({
            "cmd": "run_cell", "session": session, "req_id": "dup-2",
            "sql": "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        }),
    );
    assert_eq!(next["cell"].as_u64(), Some(1), "{next}");
}

#[test]
fn recovered_sessions_stay_fully_operable() {
    let dir = temp_dir("operable");
    let (client, _) = journaled(&dir, 2);
    let (session, token, _) = drive_toy(&client);
    drop(client);

    let (client, _) = journaled(&dir, 2);
    ok(&client, json!({"cmd": "resume", "token": token}));
    // Life goes on: new cells, a new generation, new gestures — all
    // journaled again and recoverable after a *second* crash.
    ok(
        &client,
        json!({
            "cmd": "run_cell", "session": session,
            "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        }),
    );
    ok(&client, json!({"cmd": "generate", "session": session}));
    ok(
        &client,
        json!({
            "cmd": "gesture", "session": session,
            "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}}],
        }),
    );
    let before = render(&client, session);
    drop(client);

    let (client, report) = journaled(&dir, 2);
    assert_eq!(report.sessions_recovered, 1, "{report:?}");
    assert_eq!(render(&client, session), before, "second-generation state survives too");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash recovery under a storm of 1000 journaled sessions (checkpoint
/// cadence 2). Each session is built and its slider moved, and its render
/// is the control. A gesture storm that re-asserts every slider's value
/// (so any replayed prefix renders alike) is cut by a crash. Recovery must
/// bring back every session, each resume+render must match its control
/// byte for byte with p99 within 2 s, and after close-all and a second
/// crash no session and no `ckpt-*` file may survive recovery.
#[test]
#[cfg_attr(debug_assertions, ignore = "latency gate: run with --release")]
fn storm_of_1000_sessions_recovers_byte_identical_and_closes_clean() {
    const SESSIONS: usize = 1000;
    const RESUME_P99_BOUND: Duration = Duration::from_secs(2);
    let slider = |session: u64| {
        json!({
            "cmd": "gesture", "session": session,
            "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}],
        })
    };
    let dir = temp_dir("storm");
    let (client, _) = journaled(&dir, 2);
    let mut live = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        let opened = ok(&client, json!({"cmd": "open", "scenario": "toy"}));
        let session = opened["session"].as_u64().expect("session id");
        let token = opened["session_token"].as_str().expect("session_token").to_string();
        for sql in [
            "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        ] {
            ok(&client, json!({"cmd": "run_cell", "session": session, "sql": sql}));
        }
        ok(&client, json!({"cmd": "generate", "session": session}));
        ok(&client, slider(session));
        live.push((session, token));
    }
    let controls: Vec<String> = live.iter().map(|(session, _)| render(&client, *session)).collect();
    for k in 0..SESSIONS + SESSIONS / 2 {
        ok(&client, slider(live[k % SESSIONS].0));
    }
    drop(client); // crash mid-storm: no clean close, no final checkpoints

    let (client, report) = journaled(&dir, 2);
    assert_eq!(report.sessions_recovered as usize, SESSIONS, "{report:?}");
    let mut latency = LatencyHistogram::new();
    for ((session, token), control) in live.iter().zip(&controls) {
        let started = Instant::now();
        let resumed = ok(&client, json!({"cmd": "resume", "token": token}));
        let text = render(&client, *session);
        latency.record(started.elapsed());
        assert_eq!(resumed["session"].as_u64(), Some(*session), "{resumed}");
        assert!(text == *control, "session {session}: resumed render differs from the control");
    }
    let p99 = latency.percentile(0.99);
    assert!(p99 <= RESUME_P99_BOUND, "resume+render p99 {p99:?} (bound {RESUME_P99_BOUND:?})");

    for (session, _) in &live {
        ok(&client, json!({"cmd": "close", "session": session}));
    }
    drop(client); // crash again: the close tombstones must win
    let (client, after_close) = journaled(&dir, 2);
    assert_eq!(after_close.sessions_recovered, 0, "{after_close:?}");
    let checkpoints = std::fs::read_dir(&dir)
        .expect("journal dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .count();
    assert_eq!(checkpoints, 0, "checkpoint files survived close-all and recovery");
    let stats = client.state().stats_json();
    assert_eq!(stats["active_sessions"].as_u64(), Some(0), "{stats}");
    drop(client);
    std::fs::remove_dir_all(&dir).unwrap();
}
