//! `serve`: a `pi2-server` with one reactor worker and a write-ahead
//! journal, holding 64 sessions over sdss and covid, driven closed-loop by
//! one [`TcpClient`] on one connection.
//!
//! The request mix is fixed (see [`SERVE_PATTERN`]): journaled `gesture`
//! bursts that the per-session queue coalesces, `render_delta` reads from
//! the client's last scene version, and a small share of regenerations
//! that recycle a session with a literal variant of its log, which the
//! fleet cache rebinds. Every request is one op.

use crate::measure::{median_setup, peak_rss_mb, OpClock, Report, Samples};
use crate::rng::Rng;
use crate::streams::{
    session_log, slot_scenario, Gesture, ServeKind, ServeStream, SlotGesture, SlotWindow,
    SERVE_PATTERN, SERVE_SESSIONS,
};
use crate::trace::Tracer;
use crate::{catch, traced_cycle, Budget};
use pi2_core::scene::{delta_from_json, scene_from_json};
use pi2_core::{FleetConfig, SceneGraph};
use pi2_server::{JournalConfig, LocalClient, Server, ServerConfig, ServerState, TcpClient};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Stream ops per measurement segment: 64 cycles of [`SERVE_PATTERN`],
/// so a segment recycles every session slot once.
pub const SEGMENT_OPS: usize = SERVE_PATTERN.len() * SERVE_SESSIONS;

/// Sizes of the serve workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Set-ups timed per run (the median is reported).
    pub setup_runs: usize,
    /// Directory (relative to the working directory) that holds the
    /// run's journal directories; removed again at the end.
    pub work_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config { setup_runs: 7, work_dir: PathBuf::from(".bench_work") }
    }
}

/// How requests reach the server.
enum Transport {
    /// Over TCP, through the reactor.
    Tcp(TcpClient),
    /// In process, straight into the dispatcher (no reactor, no socket).
    Local(LocalClient),
}

impl Transport {
    /// Send one request; returns the response and, when the transport
    /// saw it, its line length in bytes (newline included).
    fn call(&mut self, request: Value) -> Result<(Value, Option<usize>), String> {
        match self {
            Transport::Tcp(client) => {
                Ok((client.request(request).map_err(|e| e.to_string())?, None))
            }
            Transport::Local(client) => {
                let line = client.request_line(&request.to_string());
                let response: Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
                Ok((response, Some(line.len() + 1)))
            }
        }
    }
}

/// The client's view of one session slot.
struct Slot {
    session: u64,
    window: SlotWindow,
    /// Client-applied scene (none before the first snapshot) and the
    /// version it holds.
    replica: Option<SceneGraph>,
    version: u64,
    /// `render_delta` responses received but not yet applied to
    /// `replica` (see [`catch_up`]).
    pending: Vec<Value>,
    /// The scene version of the last `render_delta` response: the next
    /// read's `since`.
    since: u64,
}

/// A running server plus the client's state.
pub struct Fixture {
    server: Option<Server>,
    state: Arc<ServerState>,
    transport: Transport,
    slots: Vec<Slot>,
    rng: Rng,
    journal_dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

fn ok(response: &Value) -> bool {
    response["ok"].as_bool() == Some(true)
}

/// Send a request that must succeed.
fn expect_ok(transport: &mut Transport, request: Value) -> Result<Value, String> {
    let (response, _) = transport.call(request)?;
    if ok(&response) {
        Ok(response)
    } else {
        Err(format!("request failed: {response}"))
    }
}

/// Take a `render_delta` response: the next read asks from its version,
/// and its frames wait in `pending` until [`catch_up`]. Returns whether
/// it was a full resync.
fn receive_render(slot: &mut Slot, response: Value) -> Result<bool, String> {
    slot.since = response["scene_version"].as_u64().ok_or("render_delta without scene_version")?;
    let resync = response["resync"].as_bool() == Some(true);
    slot.pending.push(response);
    Ok(resync)
}

/// Apply a slot's pending responses to its replica, in order. The timed
/// loop calls this between segments, not between requests: decoding and
/// applying frames between requests would put client think time into
/// the closed loop, which the reactor's idle backoff (sleeps after 64
/// idle passes) turns into request latency.
fn catch_up(slot: &mut Slot) -> Result<(), String> {
    for response in std::mem::take(&mut slot.pending) {
        apply_render(slot, &response)?;
    }
    Ok(())
}

/// Apply one `render_delta` response to a slot's replica.
fn apply_render(slot: &mut Slot, response: &Value) -> Result<(), String> {
    if response["resync"].as_bool() == Some(true) {
        slot.replica = Some(scene_from_json(&response["scene"])?);
    } else {
        let replica = slot.replica.as_mut().ok_or("frames before any snapshot")?;
        for frame in response["frames"].as_array().ok_or("render_delta without frames")? {
            let delta = delta_from_json(frame)?;
            if delta.from_version != slot.version {
                return Err(format!(
                    "frame from v{} but the replica holds v{}",
                    delta.from_version, slot.version
                ));
            }
            replica.apply(&delta).map_err(|e| e.to_string())?;
            slot.version = delta.to_version;
        }
    }
    slot.version =
        response["scene_version"].as_u64().ok_or("render_delta without scene_version")?;
    Ok(())
}

/// The open-options every session uses: full merge (the server default),
/// no wall-clock generation deadline and no execution timeout.
fn open_request(scenario: &str) -> Value {
    json!({"cmd": "open", "scenario": scenario, "deadline_ms": 0, "timeout_ms": 0})
}

/// Open a session, run its log and generate its interface; returns the
/// session id.
fn build_slot(transport: &mut Transport, scenario: &str, log: &[String]) -> Result<u64, String> {
    let opened = expect_ok(transport, open_request(scenario))?;
    let session = opened["session"].as_u64().ok_or("open without session id")?;
    for sql in log {
        expect_ok(transport, json!({"cmd": "run_cell", "session": session, "sql": sql}))?;
    }
    let generated = expect_ok(transport, json!({"cmd": "generate", "session": session}))?;
    if generated["degradation"].as_str() != Some("full") {
        return Err(format!("generation degraded: {generated}"));
    }
    Ok(session)
}

/// Start a server (TCP) or a bare dispatcher (local) and open every slot.
pub fn setup(config: &Config, seed: u64, tcp: bool) -> Result<Fixture, String> {
    static SETUPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SETUPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = config.work_dir.join(format!("journal-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (state, recovery) =
        ServerState::with_journal(FleetConfig::default(), JournalConfig::new(&dir))
            .map_err(|e| format!("journal at {}: {e}", dir.display()))?;
    if recovery.sessions_recovered != 0 {
        return Err("fresh journal recovered sessions".into());
    }
    let state = Arc::new(state);
    let (server, transport) = if tcp {
        let server =
            Server::bind_with("127.0.0.1:0", Arc::clone(&state), ServerConfig::new().workers(1))
                .map_err(|e| format!("bind: {e}"))?;
        let client =
            TcpClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        (Some(server), Transport::Tcp(client))
    } else {
        (None, Transport::Local(LocalClient::new(Arc::clone(&state))))
    };
    let mut fixture = Fixture {
        server,
        state,
        transport,
        slots: Vec::with_capacity(SERVE_SESSIONS),
        rng: Rng::new(seed, 4),
        journal_dir: dir,
    };
    for slot in 0..SERVE_SESSIONS {
        let scenario = slot_scenario(slot);
        let (log, window) = session_log(scenario, &mut fixture.rng);
        let session = build_slot(&mut fixture.transport, scenario, &log)?;
        let mut s =
            Slot { session, window, replica: None, version: 0, pending: Vec::new(), since: 0 };
        let snapshot =
            expect_ok(&mut fixture.transport, json!({"cmd": "render_delta", "session": session}))?;
        receive_render(&mut s, snapshot)?;
        catch_up(&mut s)?;
        fixture.slots.push(s);
    }
    Ok(fixture)
}

/// Wire form of one slot gesture.
fn event_json(g: SlotGesture) -> Value {
    match g {
        SlotGesture::Sky(g @ Gesture::Pan { .. }) => {
            let (dx, dy) = g.pan_degrees().expect("pan");
            json!({"type": "pan", "chart": 0, "dx": dx, "dy": dy})
        }
        SlotGesture::Sky(g @ Gesture::Zoom { .. }) => {
            json!({"type": "zoom", "chart": 0, "factor": g.zoom_factor().expect("zoom")})
        }
        SlotGesture::Days(days) => json!({"type": "pan", "chart": 0, "dx": days as f64, "dy": 0.0}),
    }
}

/// Counters and samples of one timed phase.
pub struct Phase {
    /// Latency, CPU, bytes and failures of every request.
    pub clock: OpClock,
    /// Latency of untraced / traced requests (traced runs).
    pub untraced_us: Samples,
    /// See `untraced_us`.
    pub traced_us: Samples,
    /// `render_delta` responses, and how many were full resyncs.
    pub renders: (u64, u64),
    /// Spans of traced requests.
    pub tracer: Option<Tracer>,
}

/// One request of the stream, timed as one op.
fn request(
    fixture: &mut Fixture,
    phase: &mut Phase,
    kind: &'static str,
    index: &mut u64,
    traced: bool,
    body: Value,
) -> Result<Value, String> {
    let transport = &mut fixture.transport;
    let timer = phase.clock.start();
    let out = match (traced, phase.tracer.as_mut()) {
        (true, Some(tracer)) => {
            tracer.set_op(*index);
            let span = tracer.enter("op");
            let inner = tracer.enter(kind);
            let out = catch(|| transport.call(body));
            tracer.exit(inner);
            tracer.exit(span);
            out
        }
        _ => catch(|| transport.call(body)),
    };
    let good = out.as_ref().is_ok_and(|(r, _)| ok(r) && r.get("errors").is_none());
    let elapsed = phase.clock.finish(timer, good);
    if phase.tracer.is_some() {
        let us = elapsed.as_secs_f64() * 1e6;
        if traced {
            phase.traced_us.push(us)
        } else {
            phase.untraced_us.push(us)
        }
    }
    *index += 1;
    let (response, bytes) = out?;
    phase.clock.add_bytes(bytes.unwrap_or_else(|| response.to_string().len() + 1));
    if good {
        Ok(response)
    } else {
        Err(format!("{kind} failed: {response}"))
    }
}

/// Drive the request stream for `seed` until the budget runs out, then
/// check every slot's replica against a fresh snapshot and the server's
/// error and journal-warning counters.
pub fn timed(
    fixture: &mut Fixture,
    seed: u64,
    budget: Budget,
    trace: bool,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase {
        clock: OpClock::default(),
        untraced_us: Samples::new(),
        traced_us: Samples::new(),
        renders: (0, 0),
        tracer: trace.then(Tracer::new),
    };
    let started = Instant::now();
    let mut index = 0u64;
    let mut gestures = Rng::new(seed, 5);
    for (n, op) in ServeStream::new(seed).enumerate() {
        if !budget.running(started, index) {
            break;
        }
        if n > 0 && n % SEGMENT_OPS == 0 {
            catch_up_all(fixture, report);
            phase.clock.next_segment();
        }
        let traced = trace && traced_cycle(n as u64 / SERVE_PATTERN.len() as u64);
        let result: Result<(), String> = match op.kind {
            ServeKind::Gesture => {
                let slot = &mut fixture.slots[op.slot];
                let mut events = Vec::with_capacity(op.burst);
                for _ in 0..op.burst {
                    let (g, next) = slot.window.step(&mut gestures);
                    slot.window = next;
                    events.push(event_json(g));
                }
                let body = json!({"cmd": "gesture", "session": slot.session, "events": events});
                request(fixture, &mut phase, "gesture", &mut index, traced, body).map(|_| ())
            }
            ServeKind::RenderDelta => {
                let slot = &fixture.slots[op.slot];
                let body =
                    json!({"cmd": "render_delta", "session": slot.session, "since": slot.since});
                request(fixture, &mut phase, "render_delta", &mut index, traced, body).and_then(
                    |r| {
                        let resync = receive_render(&mut fixture.slots[op.slot], r)?;
                        phase.renders.0 += 1;
                        phase.renders.1 += u64::from(resync);
                        Ok(())
                    },
                )
            }
            ServeKind::Regen => regen(fixture, &mut phase, op.slot, &mut index, traced),
        };
        if let Err(e) = result {
            report.check(false, format!("serve op {index}: {e}"));
        }
    }
    report.check(phase.clock.attempted > 0, "no op ran");
    catch_up_all(fixture, report);
    check_end(fixture, report);
    phase
}

/// Recycle a slot: close its session and rebuild it from a literal
/// variant of its log; every request is one op.
fn regen(
    fixture: &mut Fixture,
    phase: &mut Phase,
    slot: usize,
    index: &mut u64,
    traced: bool,
) -> Result<(), String> {
    let scenario = slot_scenario(slot);
    let (log, window) = session_log(scenario, &mut fixture.rng);
    let old = fixture.slots[slot].session;
    request(fixture, phase, "close", index, traced, json!({"cmd": "close", "session": old}))?;
    let opened = request(fixture, phase, "open", index, traced, open_request(scenario))?;
    let session = opened["session"].as_u64().ok_or("open without session id")?;
    for sql in &log {
        let body = json!({"cmd": "run_cell", "session": session, "sql": sql});
        request(fixture, phase, "run_cell", index, traced, body)?;
    }
    let body = json!({"cmd": "generate", "session": session});
    let generated = request(fixture, phase, "generate", index, traced, body)?;
    if generated["degradation"].as_str() != Some("full") {
        phase.clock.failed += 1;
        return Err(format!("generation degraded: {generated}"));
    }
    let body = json!({"cmd": "render_delta", "session": session});
    let snapshot = request(fixture, phase, "render_delta", index, traced, body)?;
    // The old session's pending frames still apply (and are checked)
    // before this snapshot replaces the replica.
    let s = &mut fixture.slots[slot];
    s.session = session;
    s.window = window;
    let resync = receive_render(s, snapshot)?;
    phase.renders.0 += 1;
    phase.renders.1 += u64::from(resync);
    Ok(())
}

/// Apply every slot's pending responses (between segments and at the
/// end); a frame that does not apply fails the run's output check.
fn catch_up_all(fixture: &mut Fixture, report: &mut Report) {
    for (i, slot) in fixture.slots.iter_mut().enumerate() {
        if let Err(e) = catch_up(slot) {
            report.check(false, format!("slot {i}: {e}"));
        }
    }
}

/// End-of-run checks: every slot's client-applied scene equals a fresh
/// snapshot, and `stats` shows no errors and no journal warnings.
fn check_end(fixture: &mut Fixture, report: &mut Report) {
    for i in 0..fixture.slots.len() {
        let session = fixture.slots[i].session;
        let since = fixture.slots[i].since;
        let caught_up = expect_ok(
            &mut fixture.transport,
            json!({"cmd": "render_delta", "session": session, "since": since}),
        )
        .and_then(|r| apply_render(&mut fixture.slots[i], &r));
        let fresh =
            expect_ok(&mut fixture.transport, json!({"cmd": "render_delta", "session": session}))
                .and_then(|r| {
                    scene_from_json(&r["scene"]).map(|scene| (scene, r["scene_version"].as_u64()))
                });
        match (caught_up, fresh) {
            (Ok(_), Ok((scene, version))) => {
                report.check(
                    Some(&scene) == fixture.slots[i].replica.as_ref(),
                    format!("slot {i}: replica differs from snapshot"),
                );
                report.check(
                    version == Some(fixture.slots[i].version),
                    format!("slot {i}: replica version differs"),
                );
            }
            (Err(e), _) | (_, Err(e)) => report.check(false, format!("slot {i}: {e}")),
        }
    }
    let stats = fixture.state.stats_json();
    report
        .check(stats["errors"].as_u64() == Some(0), format!("server errors: {}", stats["errors"]));
    report.check(
        stats["journal"]["warnings"].as_u64() == Some(0),
        format!("journal warnings: {}", stats["journal"]["warnings"]),
    );
}

/// The untraced run: median set-up, timed phase, end-to-end metrics.
pub fn run(config: &Config, seed: u64, budget: Budget) -> Report {
    let mut report = Report::new();
    let (setup_s, fixture) = median_setup(config.setup_runs, || setup(config, seed, true));
    let mut fixture = match fixture {
        Ok(f) => f,
        Err(e) => {
            report.check(false, format!("serve set-up: {e}"));
            return report;
        }
    };
    let phase = timed(&mut fixture, seed, budget, false, &mut report);
    report.attempted = phase.clock.attempted;
    report.failed = phase.clock.failed;
    report.metric("setup_s", setup_s, "s");
    phase.clock.metrics(&mut report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("interface_cost", mean_interface_cost(&fixture), "cost");
    drop(fixture);
    let _ = std::fs::remove_dir(&config.work_dir);
    report
}

/// Gesture events `(enqueued, coalesced away)` across live sessions.
pub fn coalesce_counts(fixture: &Fixture) -> (u64, u64) {
    let totals = &fixture.state.stats_json()["session_totals"];
    (totals["enqueued"].as_u64().unwrap_or(0), totals["coalesced"].as_u64().unwrap_or(0))
}

/// Mean C(I, Q) of the interfaces the slots currently show.
fn mean_interface_cost(fixture: &Fixture) -> f64 {
    let mut costs = Samples::new();
    for slot in &fixture.slots {
        if let Some(entry) = fixture.state.registry().get(slot.session) {
            let core = entry.lock_core();
            if let Some(v) = core.notebook.versions().last() {
                costs.push(v.generated.cost.total);
            }
        }
    }
    costs.mean()
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run's share for serve: the server's own histograms and
/// counters, plus the reactor's share of latency (the same stream over
/// TCP and through [`LocalClient`]).
pub fn run_traced(
    config: &Config,
    seed: u64,
    budget: Budget,
    report: &mut Report,
    spans_dir: Option<&std::path::Path>,
) {
    let half = Budget { seconds: budget.seconds / 2.0, ..budget };
    let mut fixture = match setup(config, seed, true) {
        Ok(f) => f,
        Err(e) => return report.check(false, format!("serve set-up: {e}")),
    };
    let phase = timed(&mut fixture, seed, half, true, report);
    let ops = phase.clock.attempted;
    report.attempted += ops;
    report.failed += phase.clock.failed;
    let stats = fixture.state.stats_json();
    let endpoint = |name: &str| stats["endpoints"][name]["mean_us"].as_f64().unwrap_or(0.0);
    report.metric("server.gesture_us_mean", endpoint("gesture"), "us");
    report.metric("server.render_delta_us_mean", endpoint("render_delta"), "us");
    report.metric("server.generate_us_mean", endpoint("generate"), "us");
    let count = |v: &Value| v.as_u64().unwrap_or(0);
    let (enqueued, coalesced) = coalesce_counts(&fixture);
    report.metric("server.coalesce_ratio", ratio(coalesced, enqueued), "ratio");
    let fleet = &stats["fleet"];
    let served = count(&fleet["hits"]) + count(&fleet["rebinds"]);
    let lookups =
        served + count(&fleet["misses"]) + count(&fleet["joins"]) + count(&fleet["sheds"]);
    report.metric("fleet.hit_ratio", ratio(served, lookups), "ratio");
    report.metric("journal.bytes", count(&stats["journal"]["journal_bytes"]) as f64, "bytes");
    report.metric("journal.warnings", count(&stats["journal"]["warnings"]) as f64, "count");
    report.metric("scene.resync_ratio", ratio(phase.renders.1, phase.renders.0), "ratio");
    report.metric(
        "serve.trace_overhead_us",
        phase.traced_us.median() - phase.untraced_us.median(),
        "us",
    );
    let tracer = phase.tracer.as_ref().expect("traced phase has a tracer");
    if let Some(dir) = spans_dir {
        if let Err(e) = tracer.write_jsonl(&dir.join(format!("serve-{seed}.jsonl"))) {
            eprintln!("could not write serve spans: {e}");
        }
    }
    let tcp_p50 = phase.untraced_us.median();
    drop(fixture);

    // The same stream and op count again, in process: what is left of
    // the TCP p50 is the reactor and the socket.
    let mut local = match setup(config, seed, false) {
        Ok(f) => f,
        Err(e) => return report.check(false, format!("serve local set-up: {e}")),
    };
    let local_phase = timed(&mut local, seed, Budget::ops(ops), true, report);
    report.attempted += local_phase.clock.attempted;
    report.failed += local_phase.clock.failed;
    report.metric("server.reactor_us_p50", tcp_p50 - local_phase.untraced_us.median(), "us");
    drop(local);
    let _ = std::fs::remove_dir(&config.work_dir);
}
