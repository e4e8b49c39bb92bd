//! Validate the benchmark JSON artifacts (`target/BENCH_latency.json`,
//! `target/BENCH_load.json`, `target/BENCH_recovery.json`): present,
//! parseable, matching the expected schema, and — where an exhibit makes
//! a headline claim (load-storm tail, crash-recovery fidelity) — meeting
//! it. Exits non-zero on the first problem so CI fails when a regen binary
//! silently stops producing its artifact.

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))
}

fn expect_number(obj: &Value, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(v) if v.as_f64().is_some() => Ok(()),
        Some(_) => Err(format!("{ctx}: `{key}` is not a number")),
        None => Err(format!("{ctx}: missing `{key}`")),
    }
}

fn expect_string(obj: &Value, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(v) if v.as_str().is_some() => Ok(()),
        Some(_) => Err(format!("{ctx}: `{key}` is not a string")),
        None => Err(format!("{ctx}: missing `{key}`")),
    }
}

fn expect_bool(obj: &Value, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(v) if v.as_bool().is_some() => Ok(()),
        Some(_) => Err(format!("{ctx}: `{key}` is not a bool")),
        None => Err(format!("{ctx}: missing `{key}`")),
    }
}

/// `BENCH_latency.json`: a non-empty array of parallel-speedup rows.
fn check_latency(path: &Path) -> Result<(), String> {
    let v = load(path)?;
    let rows =
        v.as_array().ok_or_else(|| format!("{}: top level must be an array", path.display()))?;
    if rows.is_empty() {
        return Err(format!("{}: no rows", path.display()));
    }
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("{} row {i}", path.display());
        for key in ["workers", "per_worker_iterations", "cold_ms", "warm_ms", "cost"] {
            expect_number(row, key, &ctx)?;
        }
        expect_bool(row, "deterministic", &ctx)?;
        if row.get("stats").and_then(Value::as_object).is_none() {
            return Err(format!("{ctx}: missing `stats` object"));
        }
    }
    Ok(())
}

/// `BENCH_load.json`: versioned object with per-phase latency rows and
/// the load-storm summary. The reactor's headline claims are *enforced*:
/// at least 1k sessions sustained through the storm, storm p99 within
/// 20× of the single-session p99, and a clean teardown (zero sessions
/// left at the end).
fn check_load(path: &Path) -> Result<(), String> {
    let v = load(path)?;
    let ctx = path.display().to_string();
    if v.get("schema_version").and_then(Value::as_i64) != Some(1) {
        return Err(format!("{ctx}: `schema_version` must be 1"));
    }
    expect_string(&v, "scenario", &ctx)?;
    let rows = v
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing `rows` array"))?;
    if rows.is_empty() {
        return Err(format!("{ctx}: no rows"));
    }
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("{ctx} rows[{i}]");
        expect_string(row, "phase", &ctx)?;
        for key in ["count", "p50_us", "p95_us", "p99_us", "p999_us", "mean_us", "max_us"] {
            expect_number(row, key, &ctx)?;
        }
    }
    let summary = v.get("summary").ok_or_else(|| format!("{ctx}: missing `summary` object"))?;
    let sctx = format!("{ctx} summary");
    for key in [
        "sessions",
        "connections",
        "outstanding_cap",
        "measured_requests",
        "churn_cycles",
        "sheds",
        "shed_rate",
        "single_session_p99_us",
        "storm_p99_us",
        "storm_p999_us",
        "p99_ratio",
        "active_sessions_at_peak",
        "active_sessions_at_end",
    ] {
        expect_number(summary, key, &sctx)?;
    }
    expect_bool(summary, "p99_within_20x_single_session", &sctx)?;
    if summary["p99_within_20x_single_session"].as_bool() != Some(true) {
        return Err(format!(
            "{sctx}: `p99_within_20x_single_session` is false — the storm tail is not dead"
        ));
    }
    if summary["sessions"].as_i64().unwrap_or(0) < 1000 {
        return Err(format!("{sctx}: fewer than 1000 sessions sustained"));
    }
    if summary["active_sessions_at_peak"].as_i64() != summary["sessions"].as_i64() {
        return Err(format!("{sctx}: not all sessions were live at peak"));
    }
    if summary["active_sessions_at_end"].as_i64() != Some(0) {
        return Err(format!("{sctx}: sessions leaked past teardown"));
    }
    if v.get("server_stats").and_then(Value::as_object).is_none() {
        return Err(format!("{ctx}: missing `server_stats` object"));
    }
    Ok(())
}

/// `BENCH_recovery.json`: the crash-recovery storm gates — every ramped
/// session recovered with a byte-identical render, the resume tail held
/// its budget, and nothing survived close + crash.
fn check_recovery(path: &Path) -> Result<(), String> {
    let v = load(path)?;
    let ctx = path.display().to_string();
    if v.get("schema_version").and_then(Value::as_i64) != Some(1) {
        return Err(format!("{ctx}: `schema_version` must be 1"));
    }
    expect_string(&v, "scenario", &ctx)?;
    let summary = v.get("summary").ok_or_else(|| format!("{ctx}: missing `summary` object"))?;
    let sctx = format!("{ctx} summary");
    for key in [
        "sessions",
        "sessions_recovered",
        "frames_replayed",
        "frames_skipped",
        "recovery_warnings",
        "recovery_ms",
        "identical_renders",
        "resume_p50_ms",
        "resume_p99_ms",
        "resume_max_ms",
        "leaked_sessions_after_close",
        "leaked_checkpoints_after_close",
        "active_sessions_at_end",
    ] {
        expect_number(summary, key, &sctx)?;
    }
    if summary["sessions"].as_i64().unwrap_or(0) < 1000 {
        return Err(format!("{sctx}: fewer than 1000 sessions ramped"));
    }
    if summary["all_sessions_recovered"].as_bool() != Some(true) {
        return Err(format!("{sctx}: not every checkpointed session recovered"));
    }
    if summary["all_renders_identical"].as_bool() != Some(true) {
        return Err(format!(
            "{sctx}: a recovered session rendered differently than before the kill"
        ));
    }
    if summary["resume_p99_within_budget"].as_bool() != Some(true) {
        return Err(format!("{sctx}: resume+render p99 blew the 2s budget"));
    }
    if summary["zero_leakage_after_close"].as_bool() != Some(true) {
        return Err(format!("{sctx}: closed sessions leaked through recovery"));
    }
    Ok(())
}

type Check = fn(&Path) -> Result<(), String>;

fn main() -> ExitCode {
    let checks: [(&str, Check); 3] = [
        ("target/BENCH_latency.json", check_latency),
        ("target/BENCH_load.json", check_load),
        ("target/BENCH_recovery.json", check_recovery),
    ];
    let mut failed = false;
    for (path, check) in checks {
        match check(Path::new(path)) {
            Ok(()) => println!("ok: {path}"),
            Err(m) => {
                eprintln!("FAIL: {m}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
