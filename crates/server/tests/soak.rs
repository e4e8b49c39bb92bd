//! Soak / churn tests: many short-lived sessions opened, exercised, and
//! closed across the reactor's worker threads; a load storm holding
//! ≥ 1000 sessions live under mixed traffic; and a determinism check that
//! the TCP transport is byte-identical to the in-process `LocalClient`
//! for a replayed script.
//!
//! The churn soak runs 1000 sessions in release builds and 200 in debug
//! builds; the load storm's latency gate runs in release builds only.

use pi2_server::{Server, ServerConfig, ServerState, TcpClient};
use pi2_telemetry::LatencyHistogram;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Sessions the churn soak opens and closes.
const SOAK_SESSIONS: usize = if cfg!(debug_assertions) { 200 } else { 1000 };

/// Send `request` and require an `ok` response.
fn ok(client: &mut TcpClient, request: Value) -> Value {
    let response = client.request(request).expect("request");
    assert_eq!(response["ok"].as_bool(), Some(true), "{response}");
    response
}

/// Open a toy session and build it over `call` (which must return an
/// `ok` response): two notebook cells, then generate (the fleet cache
/// makes the repeats cheap). Returns the session id.
fn open_built(call: &mut impl FnMut(Value) -> Value) -> i64 {
    let opened = call(json!({"cmd": "open", "scenario": "toy"}));
    let session = opened["session"].as_i64().expect("session id");
    for sql in [
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
    ] {
        call(json!({"cmd": "run_cell", "session": session, "sql": sql}));
    }
    call(json!({"cmd": "generate", "session": session}));
    session
}

/// One session's whole life over `call`: open and build, a gesture
/// burst, close. Returns the session id it used.
fn churn_one(call: &mut impl FnMut(Value) -> Value) -> i64 {
    let session = open_built(call);
    call(json!({
        "cmd": "gesture", "session": session,
        "events": [
            {"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}},
            {"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}},
        ],
    }));
    call(json!({"cmd": "close", "session": session}));
    session
}

#[test]
fn churn_soak_leaves_no_residue() {
    const CLIENTS: usize = 8;
    let total = SOAK_SESSIONS;
    let state = Arc::new(ServerState::new());
    let server =
        Server::bind_with("127.0.0.1:0", Arc::clone(&state), ServerConfig::new()).expect("bind");
    let addr = server.local_addr();

    // CLIENTS connections churn `total` sessions between them; the
    // reactor multiplexes them across its worker pool.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let share = total / CLIENTS + usize::from(i < total % CLIENTS);
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                let mut sessions = Vec::with_capacity(share);
                for _ in 0..share {
                    sessions.push(churn_one(&mut |r| ok(&mut client, r)));
                }
                sessions
            })
        })
        .collect();
    let mut all_sessions = Vec::new();
    for h in handles {
        all_sessions.extend(h.join().expect("client thread"));
    }

    // Every session got a distinct id — no reuse even under churn.
    assert_eq!(all_sessions.len(), total);
    all_sessions.sort_unstable();
    all_sessions.dedup();
    assert_eq!(all_sessions.len(), total, "session ids were reused");

    // Nothing left behind: registry empty, counters balance.
    assert!(state.registry().is_empty(), "registry must be empty after close-all");
    let counters = state.counters();
    let opened = counters.opened.load(Ordering::Relaxed);
    let closed = counters.closed.load(Ordering::Relaxed);
    assert_eq!(opened, total as u64);
    assert_eq!(opened, closed + state.registry().len() as u64, "opens != closes + active");
    assert_eq!(counters.errors.load(Ordering::Relaxed), 0, "soak must be error-free");

    // The server's own stats agree.
    let mut client = TcpClient::connect(addr).expect("connect");
    let stats = client.request(json!({"cmd": "stats"})).expect("stats");
    assert_eq!(stats["stats"]["active_sessions"].as_i64(), Some(0), "{stats}");
    assert_eq!(stats["stats"]["opened"].as_i64(), Some(total as i64), "{stats}");
    assert_eq!(stats["stats"]["closed"].as_i64(), Some(total as i64), "{stats}");
    // `session_totals` aggregates *live* sessions only, so after
    // close-all it must read zero...
    assert_eq!(stats["stats"]["session_totals"]["dispatched"].as_i64(), Some(0), "{stats}");
    // ...while the endpoint telemetry proves every session's gesture
    // burst actually reached the server.
    let gestures = stats["stats"]["endpoints"]["gesture"]["count"].as_i64().expect("count");
    assert_eq!(gestures, total as i64, "one gesture request per churned session: {stats}");

    server.shutdown();
    server.join();

    // After drain every accepted connection was closed.
    let accepted = counters.connections_accepted.load(Ordering::Relaxed);
    let conn_closed = counters.connections_closed.load(Ordering::Relaxed);
    assert_eq!(accepted, CLIENTS as u64 + 1);
    assert_eq!(accepted, conn_closed, "drain must close every connection it accepted");
}

/// Deterministic LCG: the storm's op schedule must not change between
/// runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One closed-loop lane of the load storm: a blocking connection, the
/// built sessions pinned to it, and the latency of every request it sent.
struct Lane {
    client: TcpClient,
    sessions: Vec<i64>,
    latency: LatencyHistogram,
    rng: Lcg,
    flips: u64,
}

impl Lane {
    /// Connect and open `share` built sessions (untimed).
    fn ramp(addr: SocketAddr, share: usize, seed: u64) -> Lane {
        let mut client = TcpClient::connect(addr).expect("connect");
        let sessions = (0..share).map(|_| open_built(&mut |r| ok(&mut client, r))).collect();
        Lane { client, sessions, latency: LatencyHistogram::new(), rng: Lcg(seed), flips: 0 }
    }

    /// Send `request`, require `ok`, and record its latency.
    fn timed(&mut self, request: Value) -> Value {
        let started = Instant::now();
        let response = ok(&mut self.client, request);
        self.latency.record(started.elapsed());
        response
    }

    /// Run `ops` scheduled ops, one request in flight at a time: ~90%
    /// single-event gestures that alternate the slider, ~5% regenerates
    /// (fleet-cache hits), ~5% churn (a whole session life, request by
    /// request).
    fn storm(&mut self, ops: usize) {
        for _ in 0..ops {
            let roll = self.rng.next() % 100;
            let session = self.sessions[self.rng.next() as usize % self.sessions.len()];
            if roll < 90 {
                self.flips += 1;
                let scalar = if self.flips.is_multiple_of(2) { 1.0 } else { 2.0 };
                self.timed(json!({"cmd": "gesture", "session": session, "events": [
                    {"type": "set_widget", "widget": 0, "value": {"scalar": scalar}},
                ]}));
            } else if roll < 95 {
                self.timed(json!({"cmd": "generate", "session": session}));
            } else {
                churn_one(&mut |r| self.timed(r));
            }
        }
    }

    fn close_all(&mut self) {
        for session in std::mem::take(&mut self.sessions) {
            ok(&mut self.client, json!({"cmd": "close", "session": session}));
        }
    }
}

/// The reactor under a load storm over real TCP: 1024 built sessions live
/// on 8 closed-loop lanes (so at most 8 requests in flight) take 20k ops
/// of the `Lane::storm` mix. The storm's request p99 must stay within 20x
/// the p99 of the same mix driven through one session on an idle server,
/// every request must succeed, and teardown must leave no session behind.
/// Each lane is one connection, so the server carries 8 connections, not
/// many idle ones.
#[test]
#[cfg_attr(debug_assertions, ignore = "latency gate: run with --release")]
fn load_storm_p99_stays_within_20x_of_one_session() {
    const SESSIONS: usize = 1024;
    const LANES: usize = 8;
    const STORM_OPS: usize = 20_000;
    const BASELINE_OPS: usize = 2_000;
    const P99_BOUND: f64 = 20.0;

    let idle = Server::bind_with("127.0.0.1:0", Arc::new(ServerState::new()), ServerConfig::new())
        .expect("bind");
    let mut single = Lane::ramp(idle.local_addr(), 1, 1);
    single.storm(BASELINE_OPS);
    single.close_all();
    idle.shutdown();
    idle.join();

    let state = Arc::new(ServerState::new());
    let server =
        Server::bind_with("127.0.0.1:0", Arc::clone(&state), ServerConfig::new()).expect("bind");
    let addr = server.local_addr();
    let mut lanes: Vec<Lane> = std::thread::scope(|s| {
        let ramps: Vec<_> = (0..LANES)
            .map(|i| s.spawn(move || Lane::ramp(addr, SESSIONS / LANES, 2 + i as u64)))
            .collect();
        ramps.into_iter().map(|h| h.join().expect("ramp thread")).collect()
    });
    let mut stats = TcpClient::connect(addr).expect("connect");
    let peak = ok(&mut stats, json!({"cmd": "stats"}));
    let live = peak["stats"]["active_sessions"].as_u64().unwrap_or(0);
    assert!(live >= 1000 && live == SESSIONS as u64, "ramp reached {live} sessions: {peak}");

    std::thread::scope(|s| {
        for lane in &mut lanes {
            s.spawn(move || lane.storm(STORM_OPS / LANES));
        }
    });
    let mut storm = LatencyHistogram::new();
    for lane in &mut lanes {
        lane.close_all();
        storm.absorb(&lane.latency);
    }
    let end = ok(&mut stats, json!({"cmd": "stats"}));
    assert_eq!(end["stats"]["active_sessions"].as_u64(), Some(0), "sessions leaked: {end}");
    assert!(state.registry().is_empty(), "registry not empty after teardown");
    server.shutdown();
    server.join();

    let (single_p99, storm_p99) = (single.latency.percentile(0.99), storm.percentile(0.99));
    let ratio = storm_p99.as_secs_f64() / single_p99.as_secs_f64().max(1e-9);
    assert!(
        ratio <= P99_BOUND,
        "storm p99 {storm_p99:?} over {} requests is {ratio:.2}x the single-session p99 \
         {single_p99:?} (bound {P99_BOUND}x)",
        storm.count()
    );
}

/// The deterministic script both transports replay. `stats` is excluded
/// (latency histograms legitimately differ); everything else — session
/// ids, chart updates, render text, id echoes — must match to the byte.
fn script() -> Vec<String> {
    [
        json!({"cmd": "open", "scenario": "toy", "id": 1}),
        json!({"cmd": "run_cell", "session": 1,
            "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p", "id": 2}),
        json!({"cmd": "run_cell", "session": 1,
            "sql": "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p", "id": 3}),
        json!({"cmd": "generate", "session": 1, "id": 4}),
        json!({"cmd": "gesture", "session": 1, "version": 1, "id": 5, "events": [
            {"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}},
            {"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}},
        ]}),
        json!({"cmd": "render", "session": 1, "id": 6}),
        json!({"cmd": "gesture", "session": 1, "version": 1, "id": 7, "events": [
            {"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}},
        ]}),
        json!({"cmd": "render", "session": 1, "id": 8}),
        json!({"cmd": "close", "session": 1, "id": 9}),
        // Transport-level errors must be deterministic too.
        json!({"cmd": "render", "session": 1, "id": 10}),
        Value::String("this is not json".to_string()),
    ]
    .into_iter()
    .map(|v| match v {
        Value::String(raw) => raw,
        v => v.to_string(),
    })
    .collect()
}

#[test]
fn tcp_responses_are_byte_identical_to_local_client() {
    // In-process replay on a fresh state.
    let local = pi2_server::LocalClient::standalone();
    let expected: Vec<String> = script().iter().map(|line| local.request_line(line)).collect();

    // TCP replay on another fresh state (same id allocation from 1).
    let state = Arc::new(ServerState::new());
    let server = Server::bind_with("127.0.0.1:0", state, ServerConfig::new()).expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut got = Vec::new();
    for line in script() {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        got.push(response.trim_end_matches('\n').to_string());
    }
    server.shutdown();
    server.join();

    assert_eq!(got.len(), expected.len());
    for (i, (tcp, local)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(tcp, local, "response {i} diverged between TCP and LocalClient");
    }
}

/// Tombstone soundness under churn: sessions closed *before* the crash
/// must not be resurrected by recovery — even though their open/cell
/// frames may still sit in the journal — while sessions still open at
/// the kill must all come back resumable.
#[test]
fn closed_then_crashed_sessions_are_not_resurrected() {
    use pi2_core::prelude::FleetConfig;
    use pi2_server::{JournalConfig, LocalClient};

    let dir = std::env::temp_dir().join(format!("pi2-soak-tombstone-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journaled = || {
        let config = JournalConfig::new(&dir).checkpoint_every(2);
        let (state, report) = pi2_server::ServerState::with_journal(FleetConfig::default(), config)
            .expect("with_journal");
        (LocalClient::new(Arc::new(state)), report)
    };

    const SESSIONS: usize = 8;
    let (client, _) = journaled();
    let mut tokens = Vec::new();
    for i in 0..SESSIONS {
        let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
        assert_eq!(opened["ok"].as_bool(), Some(true), "{opened}");
        let session = opened["session"].as_u64().expect("session");
        let token = opened["session_token"].as_str().expect("token").to_string();
        let r = client.request(json!({
            "cmd": "run_cell", "session": session,
            "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        }));
        assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
        if i % 2 == 0 {
            // Closed before the crash: its tombstone frame must win over
            // its open/cell frames and any checkpoint already on disk.
            let r = client.request(json!({"cmd": "close", "session": session}));
            assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
        }
        tokens.push((session, token, i % 2 == 0));
    }
    drop(client); // crash: no clean close

    let (client, report) = journaled();
    assert_eq!(report.sessions_recovered as usize, SESSIONS / 2, "{report:?}");
    assert_eq!(report.tombstones as usize, SESSIONS / 2, "{report:?}");
    for (session, token, closed) in &tokens {
        let resumed = client.request(json!({"cmd": "resume", "token": token.clone()}));
        if *closed {
            assert_eq!(resumed["ok"].as_bool(), Some(false), "session {session}: {resumed}");
            assert_eq!(resumed["error"]["kind"].as_str(), Some("unknown_token"), "{resumed}");
        } else {
            assert_eq!(resumed["ok"].as_bool(), Some(true), "session {session}: {resumed}");
            assert_eq!(resumed["session"].as_u64(), Some(*session), "{resumed}");
        }
    }
    // No checkpoint residue for the tombstoned half.
    for (session, _, closed) in &tokens {
        let ckpt = dir.join(format!("ckpt-{session}.json"));
        if *closed {
            assert!(!ckpt.exists(), "closed session {session} left a checkpoint behind");
        }
    }
    let stats = client.state().stats_json();
    assert_eq!(stats["active_sessions"].as_u64(), Some(SESSIONS as u64 / 2), "{stats}");
    std::fs::remove_dir_all(&dir).unwrap();
}
