//! Recovery conformance: arm one journal fault class and check that a
//! crash + restart of a journaled [`pi2_server::ServerState`] resumes
//! the session to exactly the interface the durability contract
//! promises — the pre-fault state for a torn append, the post-fault
//! state when only a checkpoint died, and warnings (never an abort)
//! when recovery itself cannot fsync.
//!
//! These oracles run against two sessions: one on the server's `toy`
//! scenario (the seed varies the cell log and the gesture) and one on
//! `covid` whose date window is panned by separate requests — a
//! fractional pair that rounds away live and an edge-clamped pan back —
//! so replay must dispatch each request's pans as they ran. The fuzz
//! catalog/log that drive the generation oracles don't apply here
//! because the protocol opens sessions by scenario name.

use crate::oracles::Failure;
use pi2_core::prelude::FleetConfig;
use pi2_faults::{inject, Fault};
use pi2_server::{JournalConfig, LocalClient, RecoveryReport, ServerState};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(class: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pi2-conformance-{class}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaled(
    dir: &PathBuf,
    checkpoint_every: u64,
    oracle: &'static str,
) -> Result<(LocalClient, RecoveryReport), Failure> {
    let config = JournalConfig::new(dir).checkpoint_every(checkpoint_every);
    let (state, report) = ServerState::with_journal(FleetConfig::default(), config)
        .map_err(|e| Failure::new(oracle, format!("recovery errored: {e}")))?;
    Ok((LocalClient::new(Arc::new(state)), report))
}

fn ok(client: &LocalClient, request: Value, oracle: &'static str) -> Result<Value, Failure> {
    let what = request["cmd"].as_str().unwrap_or("?").to_string();
    let response = client.request(request);
    if response["ok"].as_bool() != Some(true) {
        return Err(Failure::new(oracle, format!("{what} failed: {response}")));
    }
    Ok(response)
}

/// Sessions every oracle drives (and every recovery must rebuild).
const SESSIONS: u64 = 2;

struct Driven {
    /// The toy session whose slider the faulted gesture moves.
    session: u64,
    token: String,
    /// The covid session panned by separate requests.
    panned: u64,
}

/// Open a toy session and run a seed-varied cell log + generation. The
/// seed picks how many cells run and which literal the slider starts on.
/// Then open the covid leg ([`drive_pans`]).
fn drive(client: &LocalClient, seed: u64, oracle: &'static str) -> Result<Driven, Failure> {
    let opened = ok(client, json!({"cmd": "open", "scenario": "toy"}), oracle)?;
    let session = opened["session"]
        .as_u64()
        .ok_or_else(|| Failure::new(oracle, "open returned no session id"))?;
    let token = opened["session_token"]
        .as_str()
        .ok_or_else(|| Failure::new(oracle, "open returned no session_token"))?
        .to_string();
    let cells = 2 + (seed % 2) as usize; // 2 or 3 cells
    for i in 0..cells {
        let literal = 1 + (i + seed as usize) % 2;
        ok(
            client,
            json!({
                "cmd": "run_cell", "session": session,
                "sql": format!("SELECT p, count(*) FROM t WHERE a = {literal} GROUP BY p"),
            }),
            oracle,
        )?;
    }
    ok(client, json!({"cmd": "generate", "session": session}), oracle)?;
    gesture(client, session, slider_value(seed), oracle)?;
    let panned = drive_pans(client, seed, oracle)?;
    Ok(Driven { session, token, panned })
}

/// Open a covid session over two date-window cells, generate, and pan
/// its chart by four separate requests: a seed-varied fractional pair
/// (each rounds to no move; summed, they would move the window a day),
/// then a pan clamped at the domain edge and a small pan back (summed,
/// the clamp would swallow the pan back). Returns the session id.
fn drive_pans(client: &LocalClient, seed: u64, oracle: &'static str) -> Result<u64, Failure> {
    let opened = ok(client, json!({"cmd": "open", "scenario": "covid"}), oracle)?;
    let session = opened["session"]
        .as_u64()
        .ok_or_else(|| Failure::new(oracle, "open returned no session id"))?;
    for (from, to) in [("2021-11-06", "2021-11-21"), ("2021-11-21", "2021-12-06")] {
        let sql = format!(
            "SELECT date, sum(cases) AS cases FROM covid \
             WHERE date BETWEEN DATE '{from}' AND DATE '{to}' GROUP BY date ORDER BY date"
        );
        ok(client, json!({"cmd": "run_cell", "session": session, "sql": sql}), oracle)?;
    }
    ok(client, json!({"cmd": "generate", "session": session}), oracle)?;
    let fraction = 0.3 + 0.1 * (seed % 2) as f64;
    for dx in [fraction, fraction, 1000.0, -5.0] {
        ok(
            client,
            json!({
                "cmd": "gesture", "session": session,
                "events": [{"type": "pan", "chart": 0, "dx": dx, "dy": 0.0}],
            }),
            oracle,
        )?;
    }
    Ok(session)
}

fn slider_value(seed: u64) -> f64 {
    if seed.is_multiple_of(2) {
        1.0
    } else {
        2.0
    }
}

fn gesture(
    client: &LocalClient,
    session: u64,
    value: f64,
    oracle: &'static str,
) -> Result<Value, Failure> {
    ok(
        client,
        json!({
            "cmd": "gesture", "session": session,
            "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": value}}],
        }),
        oracle,
    )
}

fn render(client: &LocalClient, session: u64, oracle: &'static str) -> Result<String, Failure> {
    let rendered = ok(client, json!({"cmd": "render", "session": session}), oracle)?;
    rendered["text"]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| Failure::new(oracle, "render returned no text"))
}

/// The renders of both driven sessions, toy first.
fn renders(
    client: &LocalClient,
    driven: &Driven,
    oracle: &'static str,
) -> Result<[String; 2], Failure> {
    Ok([render(client, driven.session, oracle)?, render(client, driven.panned, oracle)?])
}

fn resume(client: &LocalClient, driven: &Driven, oracle: &'static str) -> Result<(), Failure> {
    let resumed = ok(client, json!({"cmd": "resume", "token": driven.token.clone()}), oracle)?;
    if resumed["session"].as_u64() != Some(driven.session) {
        return Err(Failure::new(oracle, format!("resume found the wrong session: {resumed}")));
    }
    if resumed["recovered"].as_bool() != Some(true) {
        return Err(Failure::new(oracle, format!("session was not marked recovered: {resumed}")));
    }
    Ok(())
}

/// `journal-torn-write`: an append torn mid-frame (crash between `write`
/// and the bytes reaching disk) loses exactly that request — recovery
/// must resume to the last intact state, warn about the torn tail, and
/// never double-apply or panic.
pub fn torn_write(seed: u64) -> Result<(), Failure> {
    const ORACLE: &str = "fault-journal-torn-write";
    let dir = temp_dir("torn", seed);
    // No cadence checkpoints: recovery leans fully on the frame tail.
    let (client, _) = journaled(&dir, 1000, ORACLE)?;
    let driven = drive(&client, seed, ORACLE)?;
    let mid = renders(&client, &driven, ORACLE)?;
    {
        // The *next* gesture's frame is torn; the in-memory effect still
        // happens (availability over durability), then the crash eats it.
        let _fault = inject(Fault::JournalTornWrite);
        gesture(&client, driven.session, 3.0 - slider_value(seed), ORACLE)?;
    }
    drop(client);

    let (client, report) = journaled(&dir, 1000, ORACLE)?;
    if report.sessions_recovered != SESSIONS {
        return Err(Failure::new(ORACLE, format!("session did not recover: {report:?}")));
    }
    if report.warnings.is_empty() {
        return Err(Failure::new(ORACLE, "torn tail produced no warning"));
    }
    resume(&client, &driven, ORACLE)?;
    let recovered = renders(&client, &driven, ORACLE)?;
    if recovered != mid {
        return Err(Failure::new(
            ORACLE,
            "recovered render diverged from the last durably-journaled state",
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `checkpoint-crash`: a checkpoint that dies after partially writing
/// its tmp file publishes nothing — recovery must ignore the leftover,
/// fall back to the previous checkpoint plus the (intact) journal tail,
/// and land on the *post*-mutation state.
pub fn checkpoint_crash(seed: u64) -> Result<(), Failure> {
    const ORACLE: &str = "fault-checkpoint-crash";
    let dir = temp_dir("ckptcrash", seed);
    // Checkpoint after every mutation so the faulted op is precisely
    // "frame durable, checkpoint dead".
    let (client, _) = journaled(&dir, 1, ORACLE)?;
    let driven = drive(&client, seed, ORACLE)?;
    let pre = renders(&client, &driven, ORACLE)?;
    let post = {
        let _fault = inject(Fault::CheckpointCrash);
        gesture(&client, driven.session, 3.0 - slider_value(seed), ORACLE)?;
        renders(&client, &driven, ORACLE)?
    };
    if post == pre {
        return Err(Failure::new(ORACLE, "faulted gesture had no visible effect to verify"));
    }
    drop(client);

    let (client, report) = journaled(&dir, 1, ORACLE)?;
    if report.sessions_recovered != SESSIONS {
        return Err(Failure::new(ORACLE, format!("session did not recover: {report:?}")));
    }
    if report.frames_replayed < 1 {
        return Err(Failure::new(
            ORACLE,
            format!("the uncheckpointed frame was not replayed: {report:?}"),
        ));
    }
    resume(&client, &driven, ORACLE)?;
    let recovered = renders(&client, &driven, ORACLE)?;
    if recovered != post {
        return Err(Failure::new(
            ORACLE,
            "recovered render lost the journaled-but-not-checkpointed mutation",
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `recovery-fsync`: every fsync during recovery errors. Recovery must
/// finish anyway (correct renders, warnings counted) and must leave the
/// journal un-truncated so a further crash still has the frames — which
/// a second, healthy recovery then proves.
pub fn recovery_fsync(seed: u64) -> Result<(), Failure> {
    const ORACLE: &str = "fault-recovery-fsync";
    let dir = temp_dir("fsync", seed);
    let (client, _) = journaled(&dir, 1000, ORACLE)?;
    let driven = drive(&client, seed, ORACLE)?;
    let post = renders(&client, &driven, ORACLE)?;
    drop(client);

    let (client, report) = {
        let _fault = inject(Fault::RecoveryFsync);
        journaled(&dir, 1000, ORACLE)?
    };
    if report.sessions_recovered != SESSIONS {
        return Err(Failure::new(ORACLE, format!("session did not recover: {report:?}")));
    }
    if report.warnings.is_empty() {
        return Err(Failure::new(ORACLE, "fsync failures during recovery went unreported"));
    }
    resume(&client, &driven, ORACLE)?;
    if renders(&client, &driven, ORACLE)? != post {
        return Err(Failure::new(ORACLE, "recovered render diverged under fsync errors"));
    }
    // The post-recovery truncate must have been withheld: the frames are
    // still on disk, so a crash right now recovers again, faultlessly.
    drop(client);
    let (client, report) = journaled(&dir, 1000, ORACLE)?;
    if report.sessions_recovered != SESSIONS {
        return Err(Failure::new(
            ORACLE,
            format!("second recovery after failed fsyncs lost the session: {report:?}"),
        ));
    }
    if renders(&client, &driven, ORACLE)? != post {
        return Err(Failure::new(ORACLE, "second recovery diverged"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
