//! Protocol-robustness battery for the reactor transport.
//!
//! Throws hostile input at a live TCP server — malformed JSON, invalid
//! UTF-8, truncated lines, oversized requests, mid-request disconnects,
//! slow-loris partial writes — and asserts three invariants throughout:
//! every complete request line gets a *structured* error or success
//! response, the server never panics (it keeps serving new work
//! afterwards), and the session registry never leaks entries that a
//! client did not successfully open.

use pi2_server::{Server, ServerConfig, ServerState, TcpClient};
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Bind a reactor server with test-sized limits on an ephemeral port.
fn start(config: ServerConfig) -> (Server, Arc<ServerState>) {
    let state = Arc::new(ServerState::new());
    let server = Server::bind_with("127.0.0.1:0", Arc::clone(&state), config).expect("bind");
    (server, state)
}

/// A raw byte-level client: no framing help, so tests control exactly
/// what crosses the wire.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    fn connect(server: &Server) -> Self {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        RawClient { reader, writer: stream }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
        self.writer.flush().expect("flush");
    }

    fn read_response(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        assert!(!line.is_empty(), "server closed the connection unexpectedly");
        serde_json::from_str(line.trim()).expect("response is valid JSON")
    }
}

/// The connection must still serve a normal request — the strongest
/// "no panic, framing still in sync" witness.
fn assert_alive(client: &mut RawClient) {
    client.send(b"{\"cmd\": \"stats\", \"id\": \"alive\"}\n");
    let r = client.read_response();
    assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
    assert_eq!(r["id"].as_str(), Some("alive"), "{r}");
}

#[test]
fn malformed_json_gets_structured_error_and_connection_survives() {
    let (server, state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);

    for garbage in
        ["not json at all", "{{{", "[1, 2, 3]", "\"just a string\"", "{\"cmd\": \"nope\"}"]
    {
        client.send(format!("{garbage}\n").as_bytes());
        let r = client.read_response();
        assert_eq!(r["ok"].as_bool(), Some(false), "{garbage} -> {r}");
        assert_eq!(r["error"]["kind"].as_str(), Some("bad_request"), "{garbage} -> {r}");
    }
    assert_alive(&mut client);
    assert!(state.registry().is_empty(), "garbage must not create sessions");
    server.shutdown();
    server.join();
}

#[test]
fn deeply_nested_sql_gets_a_parse_error_not_a_stack_overflow() {
    let (server, state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);
    client.send(b"{\"cmd\": \"open\", \"scenario\": \"toy\"}\n");
    let opened = client.read_response();
    let session = opened["session"].as_i64().expect("session id");

    // Each of these overflowed a reactor worker's stack and aborted the
    // process before the parser bounded nesting and operator chains.
    for (sql, error) in [
        (format!("SELECT {}1{} FROM t", "(".repeat(1_000), ")".repeat(1_000)), "nests deeper"),
        (format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(20_000)), "nests deeper"),
        (format!("SELECT 1{} FROM t", "+1".repeat(10_000)), "operators"),
    ] {
        let line = json!({"cmd": "run_cell", "session": session, "sql": sql}).to_string();
        client.send(format!("{line}\n").as_bytes());
        let r = client.read_response();
        assert_eq!(r["ok"].as_bool(), Some(false), "{r}");
        assert_eq!(r["error"]["kind"].as_str(), Some("notebook"), "{r}");
        let message = r["error"]["message"].as_str().unwrap_or_default();
        assert!(message.contains(error), "{message}");
    }
    assert_alive(&mut client);
    assert_eq!(state.registry().len(), 1);
    server.shutdown();
    server.join();
}

/// `a = 1` joined by `AND` into a balanced tree of `2^k` leaves.
fn balanced_and(k: usize) -> String {
    if k == 0 {
        return "a = 1".to_string();
    }
    let half = balanced_and(k - 1);
    format!("({half} AND {half})")
}

/// A query that grows with its argument.
type Shape = fn(usize) -> String;

/// The largest argument for which `shape` still parses (acceptance is
/// monotone in it).
fn largest_accepted(shape: Shape) -> usize {
    let mut bad = 1;
    while pi2_sql::parse_query(&shape(bad)).is_ok() {
        bad *= 2;
    }
    let mut ok = bad / 2;
    while bad - ok > 1 {
        let mid = (ok + bad) / 2;
        if pi2_sql::parse_query(&shape(mid)).is_ok() {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    ok
}

#[test]
fn largest_accepted_sql_runs_and_generates_on_the_reactor() {
    // Toy-table queries that grow in nesting or in chain operators until
    // the parser's bounds reject them. The largest accepted one of each
    // goes through execution, normalization and generation on a reactor
    // worker, which must survive it.
    let shapes: [(&str, Shape); 10] = [
        ("parentheses", |n| {
            format!(
                "SELECT p, count(*) FROM t WHERE {}a = 1{} GROUP BY p",
                "(".repeat(n),
                ")".repeat(n)
            )
        }),
        ("NOT chain", |n| {
            format!("SELECT p, count(*) FROM t WHERE {}a = 1 GROUP BY p", "NOT ".repeat(n))
        }),
        ("unary minus", |n| format!("SELECT p, sum({}a) FROM t GROUP BY p", "- ".repeat(n))),
        ("function calls", |n| {
            format!("SELECT p, sum({}a{}) FROM t GROUP BY p", "abs(".repeat(n), ")".repeat(n))
        }),
        ("nested subqueries", |n| {
            let nest = "(SELECT a FROM t WHERE a IN ".repeat(n);
            format!(
                "SELECT p, count(*) FROM t WHERE a IN {nest}(SELECT a FROM t){} GROUP BY p",
                ")".repeat(n)
            )
        }),
        ("+ chain", |n| format!("SELECT p, sum(a{}) FROM t GROUP BY p", " + b".repeat(n))),
        ("AND chain", |n| {
            format!("SELECT p, count(*) FROM t WHERE a = 1{} GROUP BY p", " AND b = 2".repeat(n))
        }),
        ("OR chain", |n| {
            format!("SELECT p, count(*) FROM t WHERE a = 1{} GROUP BY p", " OR b = 2".repeat(n))
        }),
        ("balanced AND tree", |k| {
            format!("SELECT p, count(*) FROM t WHERE {} GROUP BY p", balanced_and(k))
        }),
        ("chain under nested subqueries", |n| {
            let nest = "(SELECT a FROM t WHERE a IN ".repeat(12);
            let chain = " + a".repeat(n);
            format!(
                "SELECT p, count(*) FROM t WHERE a IN {nest}(SELECT a{chain} FROM t){} GROUP BY p",
                ")".repeat(12)
            )
        }),
    ];
    let (server, _state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);
    for (name, shape) in shapes {
        let sql = shape(largest_accepted(shape));
        client.send(b"{\"cmd\": \"open\", \"scenario\": \"toy\"}\n");
        let session = client.read_response()["session"].as_i64().expect("session id");
        // Two cells that differ in their grouping, so generation has a
        // choice to turn into a widget.
        let regrouped =
            sql.replacen("SELECT p, ", "SELECT b, ", 1).replace("GROUP BY p", "GROUP BY b");
        for sql in [&sql, &regrouped] {
            let line = json!({"cmd": "run_cell", "session": session, "sql": sql}).to_string();
            client.send(format!("{line}\n").as_bytes());
            let r = client.read_response();
            assert_eq!(r["ok"].as_bool(), Some(true), "{name}: {r}");
        }
        client.send(format!("{}\n", json!({"cmd": "generate", "session": session})).as_bytes());
        let r = client.read_response();
        assert_eq!(r["ok"].as_bool(), Some(true), "{name}: {r}");
        assert_alive(&mut client);
    }
    server.shutdown();
    server.join();
}

#[test]
fn invalid_utf8_is_rejected_without_killing_the_framing() {
    let (server, state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);

    client.send(b"\xff\xfe\x80garbage\n");
    let r = client.read_response();
    assert_eq!(r["error"]["kind"].as_str(), Some("bad_request"), "{r}");
    assert!(r["error"]["message"].as_str().expect("message").contains("UTF-8"), "{r}");

    assert_alive(&mut client);
    assert!(state.registry().is_empty());
    server.shutdown();
    server.join();
}

#[test]
fn blank_lines_are_ignored_not_answered() {
    let (server, _state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);

    // Blank and whitespace-only lines produce no response at all; the
    // next real request's response must be the first thing we read.
    client.send(b"\n\n   \n\t\n{\"cmd\": \"stats\", \"id\": 42}\n");
    let r = client.read_response();
    assert_eq!(r["id"].as_i64(), Some(42), "{r}");
    server.shutdown();
    server.join();
}

#[test]
fn oversized_line_gets_too_large_error_and_framing_resyncs() {
    // A small cap so the test is cheap; the junk is 4× the cap.
    let cap = 16 * 1024;
    let (server, state) = start(ServerConfig::new().max_line_bytes(cap));
    let mut client = RawClient::connect(&server);

    let junk = vec![b'x'; cap * 4];
    client.send(&junk);
    // The error arrives *before* the newline: the server answers as soon
    // as the partial line crosses the cap.
    let r = client.read_response();
    assert_eq!(r["ok"].as_bool(), Some(false), "{r}");
    assert_eq!(r["error"]["kind"].as_str(), Some("too_large"), "{r}");

    // Finish the oversized line; everything up to that newline must be
    // discarded, and the next line parses normally.
    client.send(b"more junk after the error\n");
    assert_alive(&mut client);

    // An oversized line never half-creates anything.
    assert!(state.registry().is_empty());
    server.shutdown();
    server.join();
}

#[test]
fn oversized_line_split_across_many_writes_is_still_caught() {
    let cap = 8 * 1024;
    let (server, _state) = start(ServerConfig::new().max_line_bytes(cap));
    let mut client = RawClient::connect(&server);

    // Drip-feed 3× the cap in 1 KiB chunks with no newline.
    let chunk = vec![b'y'; 1024];
    for _ in 0..(cap * 3 / chunk.len()) {
        client.send(&chunk);
    }
    let r = client.read_response();
    assert_eq!(r["error"]["kind"].as_str(), Some("too_large"), "{r}");
    client.send(b"\n");
    assert_alive(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_byte_at_a_time_request_completes_correctly() {
    let (server, _state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);

    // One valid request, written one byte at a time with pauses: the
    // reactor must accumulate the partial line across many poll passes
    // without blocking other connections (exercised by a second client
    // completing a full round-trip mid-drip).
    let request = b"{\"cmd\": \"stats\", \"id\": \"loris\"}\n";
    let mut other = RawClient::connect(&server);
    for (i, byte) in request.iter().enumerate() {
        client.send(std::slice::from_ref(byte));
        if i % 8 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        if i == request.len() / 2 {
            // A slow sender must not stall the reactor for everyone else.
            assert_alive(&mut other);
        }
    }
    let r = client.read_response();
    assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
    assert_eq!(r["id"].as_str(), Some("loris"), "{r}");
    server.shutdown();
    server.join();
}

#[test]
fn truncated_line_then_disconnect_leaks_nothing() {
    let (server, state) = start(ServerConfig::new());

    // Half an `open` request, then the peer vanishes: no response owed,
    // no session may exist, and the server must keep serving.
    {
        let mut client = RawClient::connect(&server);
        client.send(b"{\"cmd\": \"open\", \"scenario\": \"to");
        // Give the reactor a chance to ingest the fragment.
        std::thread::sleep(Duration::from_millis(20));
    } // dropped: RST/FIN mid-line

    // The incomplete line must not have opened anything.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while state.counters().connections_closed.load(std::sync::atomic::Ordering::Relaxed) < 1 {
        assert!(std::time::Instant::now() < deadline, "reactor never reaped the dead peer");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(state.registry().is_empty(), "truncated open must not leak a session");

    let mut client = RawClient::connect(&server);
    assert_alive(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn disconnect_between_requests_keeps_sessions_adoptable_and_closable() {
    let (server, state) = start(ServerConfig::new());

    // Open a session, then drop the connection without closing it.
    let session = {
        let mut client = TcpClient::connect(server.local_addr()).expect("connect");
        let opened = client.request(json!({"cmd": "open", "scenario": "toy"})).expect("open");
        assert_eq!(opened["ok"].as_bool(), Some(true), "{opened}");
        opened["session"].as_i64().expect("session id")
    };

    // Sessions are independent of connections by design: the entry
    // survives the disconnect and a *new* connection can adopt it...
    assert_eq!(state.registry().len(), 1);
    let mut client = TcpClient::connect(server.local_addr()).expect("reconnect");
    let r = client
        .request(json!({"cmd": "run_cell", "session": session,
            "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p"}))
        .expect("run_cell");
    assert_eq!(r["ok"].as_bool(), Some(true), "{r}");

    // ...and closing it leaves the registry empty: nothing leaked.
    let r = client.request(json!({"cmd": "close", "session": session})).expect("close");
    assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
    assert!(state.registry().is_empty());
    server.shutdown();
    server.join();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, _state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);

    // Ten requests in one write; ten responses, ids in order. (More than
    // `max_lines_per_turn` would also work — excess lines just wait one
    // poll pass — but ten keeps the test instant.)
    let mut batch = String::new();
    for id in 0..10 {
        batch.push_str(&format!("{{\"cmd\": \"stats\", \"id\": {id}}}\n"));
    }
    client.send(batch.as_bytes());
    for id in 0..10 {
        let r = client.read_response();
        assert_eq!(r["id"].as_i64(), Some(id), "{r}");
        assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
    }
    server.shutdown();
    server.join();
}

#[test]
fn firehose_of_bad_lines_is_survived_and_counted() {
    let (server, state) = start(ServerConfig::new());
    let mut client = RawClient::connect(&server);

    const BAD: usize = 500;
    let mut batch = String::new();
    for i in 0..BAD {
        batch.push_str(&format!("this is not json #{i}\n"));
    }
    client.send(batch.as_bytes());
    for _ in 0..BAD {
        let r = client.read_response();
        assert_eq!(r["error"]["kind"].as_str(), Some("bad_request"), "{r}");
    }
    assert_alive(&mut client);
    assert!(
        state.counters().errors.load(std::sync::atomic::Ordering::Relaxed) >= BAD as u64,
        "every bad line must be counted as an error"
    );
    assert!(state.registry().is_empty());
    server.shutdown();
    server.join();
}

#[test]
fn half_open_peer_that_never_reads_is_eventually_cut_off() {
    // Tiny write cap: a peer that requests data but never drains its
    // socket must be disconnected once its responses exceed the cap,
    // instead of growing an unbounded write buffer.
    let (server, state) = start(ServerConfig::new().max_write_buffer(32 * 1024));
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");

    // `stats` responses are a few hundred bytes; thousands of them with
    // a never-reading client overflow a 32 KiB cap quickly. The client's
    // own send may block once kernel buffers fill, so write from a
    // thread and only until the server hangs up.
    let flood = std::thread::spawn(move || {
        let line = b"{\"cmd\": \"stats\"}\n";
        for _ in 0..200_000 {
            if writer.write_all(line).is_err() {
                return; // server cut us off — expected
            }
        }
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while state.counters().connections_closed.load(std::sync::atomic::Ordering::Relaxed) < 1 {
        assert!(std::time::Instant::now() < deadline, "write-cap breach never closed the conn");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Reading nothing, the peer eventually sees EOF/RST on its next read.
    let mut buf = [0u8; 4096];
    let mut reader = stream;
    reader.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    loop {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    flood.join().expect("flood thread");

    // And the server is still healthy for everyone else.
    let mut client = RawClient::connect(&server);
    assert_alive(&mut client);
    server.shutdown();
    server.join();
}

// ---- journal corruption ------------------------------------------------------
//
// The durability layer gets the same treatment as the wire: damaged
// journals must degrade to skipped frames and structured counters,
// never a panic and never a double-applied effect.

mod journal_corruption {
    use super::*;
    use pi2_core::prelude::FleetConfig;
    use pi2_server::{JournalConfig, LocalClient};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pi2-robust-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn journaled(dir: &PathBuf) -> (LocalClient, pi2_server::RecoveryReport) {
        // Cadence high enough that nothing checkpoints: recovery depends
        // entirely on the (damaged) frame tail.
        let config = JournalConfig::new(dir).checkpoint_every(1000);
        let (state, report) =
            ServerState::with_journal(FleetConfig::default(), config).expect("with_journal");
        (LocalClient::new(Arc::new(state)), report)
    }

    fn ok(client: &LocalClient, request: Value) -> Value {
        let response = client.request(request);
        assert_eq!(response["ok"].as_bool(), Some(true), "{response}");
        response
    }

    /// open + two cells + generate (+ optionally the slider gesture).
    fn drive(client: &LocalClient, gesture: bool) -> (u64, String) {
        let opened = ok(client, json!({"cmd": "open", "scenario": "toy"}));
        let session = opened["session"].as_u64().expect("session");
        for sql in [
            "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        ] {
            ok(client, json!({"cmd": "run_cell", "session": session, "sql": sql}));
        }
        ok(client, json!({"cmd": "generate", "session": session}));
        if gesture {
            ok(
                client,
                json!({
                    "cmd": "gesture", "session": session,
                    "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}],
                }),
            );
        }
        let rendered = ok(client, json!({"cmd": "render", "session": session}));
        (session, rendered["text"].as_str().expect("text").to_string())
    }

    #[test]
    fn truncated_final_frame_recovers_the_prefix() {
        let dir = temp_dir("torn");
        let (client, _) = journaled(&dir);
        let (session, _) = drive(&client, true);
        drop(client);
        // Tear the tail mid-frame, as a crash mid-append would.
        let path = dir.join("journal.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (client, report) = journaled(&dir);
        assert_eq!(report.sessions_recovered, 1, "{report:?}");
        assert!(!report.warnings.is_empty(), "torn tail must be reported: {report:?}");
        // The torn frame was the gesture: the recovered render is the
        // un-gestured control, not garbage and not a panic.
        let control = LocalClient::standalone();
        let (control_session, expected) = drive(&control, false);
        let rendered = ok(&client, json!({"cmd": "render", "session": session}));
        assert_eq!(rendered["text"].as_str(), Some(expected.as_str()));
        let _ = control_session;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_frame_is_skipped_and_counted_in_stats() {
        let dir = temp_dir("flip");
        let (client, _) = journaled(&dir);
        let (session, _) = drive(&client, true);
        drop(client);
        // Flip a payload bit in the second frame (the first run_cell):
        // frame 0's length header tells us where it ends.
        let path = dir.join("journal.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let frame0_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let frame1_payload = 8 + frame0_len + 8 + 4;
        bytes[frame1_payload] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let (client, report) = journaled(&dir);
        // The damaged cell frame is skipped; everything after it still
        // replays (generate now sees one cell — a *different* interface
        // is fine, a panic or a lost session is not).
        assert_eq!(report.sessions_recovered, 1, "{report:?}");
        assert!(report.frames_skipped >= 1, "{report:?}");
        assert!(!report.warnings.is_empty(), "{report:?}");
        let rendered = ok(&client, json!({"cmd": "render", "session": session}));
        assert!(!rendered["text"].as_str().unwrap_or("").is_empty());
        // The damage is observable in `stats` under `"journal"`.
        let stats = ok(&client, json!({"cmd": "stats"}));
        let journal = &stats["stats"]["journal"];
        assert_eq!(journal["enabled"].as_bool(), Some(true), "{stats}");
        assert_eq!(journal["sessions_recovered"].as_u64(), Some(1), "{stats}");
        assert!(journal["frames_skipped"].as_u64().unwrap_or(0) >= 1, "{stats}");
        assert!(journal["warnings"].as_u64().unwrap_or(0) >= 1, "{stats}");
        assert!(journal["journal_bytes"].as_u64().is_some(), "{stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A number that overflows `f64` is refused as it is parsed: the
    /// gesture is a `bad_request`, so nothing is applied that the journal
    /// could not record, and the recovered session renders as the live one.
    #[test]
    fn out_of_range_number_is_refused_and_recovery_matches_live_state() {
        let dir = temp_dir("overflow");
        let (client, _) = journaled(&dir);
        let (session, _) = drive(&client, true);
        let line = format!(
            r#"{{"cmd":"gesture","session":{session},"events":[{{"type":"set_widget","widget":0,"value":{{"scalar":1e400}}}}]}}"#
        );
        let response: Value = serde_json::from_str(&client.request_line(&line)).unwrap();
        assert_eq!(response["error"]["kind"].as_str(), Some("bad_request"), "{response}");
        let stats = ok(&client, json!({"cmd": "stats"}));
        assert_eq!(stats["stats"]["journal"]["warnings"].as_u64(), Some(0), "{stats}");
        let live = ok(&client, json!({"cmd": "render", "session": session}));
        drop(client);

        let (client, report) = journaled(&dir);
        assert_eq!(report.sessions_recovered, 1, "{report:?}");
        assert!(report.warnings.is_empty(), "{report:?}");
        let recovered = ok(&client, json!({"cmd": "render", "session": session}));
        assert_eq!(recovered["text"], live["text"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_journal_yields_empty_state_not_a_panic() {
        let dir = temp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("journal.log"), b"\xde\xad\xbe\xef not a journal at all").unwrap();
        std::fs::write(dir.join("ckpt-3.json"), b"{ truncated checkpoint").unwrap();
        let (client, report) = journaled(&dir);
        assert_eq!(report.sessions_recovered, 0);
        assert!(!report.warnings.is_empty(), "{report:?}");
        // The server is fully usable on top of the wreckage.
        let (_, text) = drive(&client, true);
        assert!(!text.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
