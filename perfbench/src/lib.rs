//! # pi2-perfbench
//!
//! A steady benchmark for PI2. Three closed-loop workloads, each driven
//! by one client thread in one process:
//!
//! * [`explore`]: one analyst pans and zooms the Figure 1 interface over
//!   a 1,000,000-row SDSS catalog (engine and scene diffing).
//! * [`generate`]: notebook episodes over covid, sp500 and SDSS that
//!   invoke PI2 after every new cell (search, mapping and costing).
//! * [`serve`]: a `pi2-server` with one reactor worker and a journal,
//!   holding 64 sessions, driven by one TCP connection (protocol,
//!   coalescing, journal, fleet cache and reactor).
//!
//! An untraced run reports end-to-end metrics; a traced run
//! ([`traced`]) runs every workload with spans and reports per-layer
//! metrics. See `README.md` for the design and the noise findings behind
//! it.

pub mod explore;
pub mod generate;
pub mod measure;
pub mod rng;
pub mod serve;
pub mod streams;
pub mod trace;

use measure::Report;
use std::time::{Duration, Instant};

/// Workload names, in the order the traced run visits them.
pub const WORKLOADS: [&str; 3] = ["explore", "generate", "serve"];

/// How long a timed phase runs: until `seconds` of loop time pass or
/// `max_ops` ops complete, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Loop time (ops plus the output checks between them).
    pub seconds: f64,
    /// Op cap (tests use it to make runs of a fixed length).
    pub max_ops: Option<u64>,
}

impl Budget {
    /// A budget of `seconds` with no op cap.
    pub fn seconds(seconds: f64) -> Self {
        Budget { seconds, max_ops: None }
    }

    /// A budget of exactly `ops` ops.
    pub fn ops(ops: u64) -> Self {
        Budget { seconds: f64::INFINITY, max_ops: Some(ops) }
    }

    /// The loop condition, given when the loop started and how many ops
    /// have run.
    pub fn running(&self, started: Instant, ops: u64) -> bool {
        self.max_ops.is_none_or(|cap| ops < cap)
            && started.elapsed() < Duration::from_secs_f64(self.seconds.min(1e9))
    }
}

/// Whether the op in cycle `cycle` of a traced run is traced: whole
/// cycles of the workload's op pattern alternate, so traced and untraced
/// ops share one stream, one cache state and one op mix, and their p50
/// difference is the tracing overhead.
pub fn traced_cycle(cycle: u64) -> bool {
    cycle % 2 == 1
}

/// Run one workload untraced and return its end-to-end report.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Option<Report> {
    match workload {
        "explore" => {
            Some(explore::run(&explore::Config::default(), seed, Budget::seconds(seconds)))
        }
        "generate" => Some(generate::run(seed, Budget::seconds(seconds))),
        "serve" => Some(serve::run(&serve::Config::default(), seed, Budget::seconds(seconds))),
        _ => None,
    }
}

/// The traced run: every workload in turn, a third of `seconds` each,
/// with spans on alternate pattern cycles. Returns the per-layer report.
pub fn traced(seed: u64, seconds: f64, spans_dir: Option<&std::path::Path>) -> Report {
    let share = Budget::seconds(seconds / WORKLOADS.len() as f64);
    let mut report = Report::new();
    explore::run_traced(&explore::Config::default(), seed, share, &mut report, spans_dir);
    generate::run_traced(seed, share, &mut report, spans_dir);
    serve::run_traced(&serve::Config::default(), seed, share, &mut report, spans_dir);
    report
}

/// One-line host description printed with every run.
pub fn host_info() -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    format!(
        "{{\"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {cpus}, \"profile\": \"{}\"}}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}

/// Run `f`, turning a panic into `Err` with its message.
pub fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}"))),
    }
}
