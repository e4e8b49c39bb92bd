//! Samples, process counters and the one-line JSON result.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Raw samples of one quantity; percentiles are exact (nearest rank on
/// the sorted samples), not bucketed.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// No samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Add a duration in microseconds.
    pub fn push_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `q`-quantile by nearest rank (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The subset of `struct rusage` the benchmark reads (Linux layout:
/// two `timeval`s, then fourteen `long`s).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage`-sized buffer and
    // RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage
}

/// User plus system CPU time of the whole process, in microseconds.
pub fn process_cpu_us() -> f64 {
    let u = rusage();
    (u.utime[0] + u.stime[0]) as f64 * 1e6 + (u.utime[1] + u.stime[1]) as f64
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// One op of the timed phase.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    segment: u32,
    latency_us: f64,
    cpu_us: f64,
    bytes: u64,
}

/// Per-op accounting for the timed phase. Wall time and process CPU are
/// summed over op regions only, so output checks between ops do not
/// count.
///
/// Ops are grouped into segments, each one whole cycle of the workload's
/// fixed op pattern, so every complete segment holds the same op mix.
/// The first segment warms the caches and is not reported (unless it is
/// the only one), nor is the last, partial one. The end-to-end metrics
/// pool the ops of the remaining segments, so they always cover whole
/// cycles of the op mix.
#[derive(Debug, Default)]
pub struct OpClock {
    ops: Vec<OpRecord>,
    segment: u32,
    /// Segments per period of the op stream (0 or 1: every segment does
    /// the same work). Only whole periods are reported.
    period: usize,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (error response, degraded generation, panic).
    pub failed: u64,
}

/// An op region in progress (see [`OpClock::start`]).
pub struct OpTimer {
    started: Instant,
    cpu_us: f64,
}

impl OpClock {
    /// A clock for a stream whose segments differ in work but repeat
    /// every `period` segments: the reported segments are then a whole
    /// number of periods, so a faster or slower host, which finishes more
    /// or fewer segments, does not change their mix.
    pub fn with_period(period: u64) -> Self {
        OpClock { period: period as usize, ..Self::default() }
    }

    /// Start timing one op.
    pub fn start(&mut self) -> OpTimer {
        self.attempted += 1;
        let cpu_us = process_cpu_us();
        OpTimer { started: Instant::now(), cpu_us }
    }

    /// Finish an op; returns its latency.
    pub fn finish(&mut self, timer: OpTimer, ok: bool) -> Duration {
        let elapsed = timer.started.elapsed();
        self.ops.push(OpRecord {
            segment: self.segment,
            latency_us: elapsed.as_secs_f64() * 1e6,
            cpu_us: process_cpu_us() - timer.cpu_us,
            bytes: 0,
        });
        if !ok {
            self.failed += 1;
        }
        elapsed
    }

    /// Count `bytes` of output against the last finished op.
    pub fn add_bytes(&mut self, bytes: usize) {
        if let Some(op) = self.ops.last_mut() {
            op.bytes += bytes as u64;
        }
    }

    /// Start the next segment (call at each cycle boundary of the op
    /// pattern).
    pub fn next_segment(&mut self) {
        self.segment += 1;
    }

    /// The measured segments: complete ones after the warm-up segment,
    /// cut to whole periods (the last, partial one, the warm-up and a
    /// trailing part period are left out unless nothing else is left).
    fn segments(&self) -> Vec<&[OpRecord]> {
        let mut out: Vec<&[OpRecord]> = Vec::new();
        let mut start = 0;
        for i in 1..=self.ops.len() {
            if i == self.ops.len() || self.ops[i].segment != self.ops[start].segment {
                out.push(&self.ops[start..i]);
                start = i;
            }
        }
        let partial = self.ops.last().is_some_and(|op| op.segment == self.segment);
        if partial && out.len() > 1 {
            out.pop();
        }
        if out.len() > 1 {
            out.remove(0);
        }
        if self.period > 1 && out.len() >= self.period {
            out.truncate(out.len() / self.period * self.period);
        }
        out
    }

    /// The end-to-end metrics every workload reports from its timed
    /// phase, over every op of the measured segments. Pooling, rather than
    /// the median across segments of each segment's figure, gives the tail
    /// percentiles at least ten samples beyond them (an explore round has
    /// about three beyond its p99), and over four sets of five or six runs
    /// it spread less or about as much on every timed metric.
    pub fn metrics(&self, report: &mut Report) {
        let measured: Vec<&OpRecord> = self.segments().into_iter().flatten().collect();
        let ops = measured.len().max(1) as f64;
        let sum = |f: fn(&OpRecord) -> f64| measured.iter().map(|op| f(op)).sum::<f64>();
        let mut latency = Samples::new();
        for op in &measured {
            latency.push(op.latency_us);
        }
        report.metric("op_p50_us", latency.quantile(0.50), "us");
        report.metric("op_p90_us", latency.quantile(0.90), "us");
        report.metric("op_p99_us", latency.quantile(0.99), "us");
        report.metric("ops_per_s", ops / (sum(|op| op.latency_us) / 1e6), "1/s");
        report.metric("cpu_us_per_op", sum(|op| op.cpu_us) / ops, "us");
        report.metric("bytes_per_op", sum(|op| op.bytes as f64) / ops, "bytes");
    }
}

/// The median of `runs` timed set-ups; returns it in seconds together
/// with the product of the last one.
pub fn median_setup<T>(runs: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Samples::new();
    let mut last: Option<T> = None;
    for _ in 0..runs.max(1) {
        // Drop the previous product first so peak memory holds one copy.
        drop(last.take());
        let started = Instant::now();
        let product = setup();
        times.push(started.elapsed().as_secs_f64());
        last = Some(product);
    }
    (times.median(), last.expect("at least one set-up ran"))
}

/// The result line: `correct`, `attempted`, `failed` and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty, correct report.
    pub fn new() -> Self {
        Report { correct: true, ..Self::default() }
    }

    /// Add (or replace) a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// A metric's value, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Record a failed output check (printed to stderr).
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }

    /// The one-line JSON result. Values print with every digit Rust's
    /// shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}
