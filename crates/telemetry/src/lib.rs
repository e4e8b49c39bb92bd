//! Lightweight telemetry for the PI2 pipeline.
//!
//! A [`Registry`] collects named **counters** (monotonic u64) and named
//! **timers** (accumulated wall-clock durations with call counts) from any
//! number of threads. Phases of the pipeline time themselves with
//! [`Registry::span`] RAII guards; the search layer bumps counters for
//! iterations, expansions, and cache hits. A [`Snapshot`] freezes the
//! registry into plain data that `GenerationStats` embeds and that dumps
//! to a flat JSON object — all with no dependencies outside `std`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accumulated state for one named timer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimerStat {
    /// Total accumulated wall-clock time.
    pub total: Duration,
    /// Number of recorded intervals.
    pub count: u64,
}

impl TimerStat {
    /// Mean duration per recorded interval (zero if never recorded).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    timers: BTreeMap<String, TimerStat>,
}

/// A thread-safe sink for counters and timers.
///
/// Locking is a plain `std::sync::Mutex`: telemetry writes are rare
/// (per-phase, per-search) rather than per-iteration, so contention is
/// negligible next to the work being measured.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        *self.locked().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the named counter to `value`, discarding any previous value.
    pub fn set(&self, name: &str, value: u64) {
        self.locked().counters.insert(name.to_string(), value);
    }

    /// Record one interval of `elapsed` against the named timer.
    pub fn record(&self, name: &str, elapsed: Duration) {
        let mut inner = self.locked();
        let stat = inner.timers.entry(name.to_string()).or_default();
        stat.total += elapsed;
        stat.count += 1;
    }

    /// Start a RAII span; the elapsed time is recorded when the guard drops.
    pub fn span<'a>(&'a self, name: &'a str) -> Span<'a> {
        Span { registry: self, name, start: Instant::now() }
    }

    /// Time a closure and record it under `name`, passing through its result.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Current value of a counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.locked().counters.get(name).copied().unwrap_or(0)
    }

    /// Current state of a timer (default if absent).
    pub fn timer(&self, name: &str) -> TimerStat {
        self.locked().timers.get(name).copied().unwrap_or_default()
    }

    /// Freeze the current state into plain data.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.locked();
        Snapshot { counters: inner.counters.clone(), timers: inner.timers.clone() }
    }

    /// Merge another snapshot's counters and timers into this registry.
    pub fn absorb(&self, snap: &Snapshot) {
        let mut inner = self.locked();
        for (k, v) in &snap.counters {
            *inner.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &snap.timers {
            let stat = inner.timers.entry(k.clone()).or_default();
            stat.total += v.total;
            stat.count += v.count;
        }
    }
}

/// RAII timing guard returned by [`Registry::span`].
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a Registry,
    name: &'a str,
    start: Instant,
}

impl Span<'_> {
    /// Elapsed time so far without ending the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.registry.record(self.name, self.start.elapsed());
    }
}

/// An immutable copy of a registry's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Accumulated timers by name.
    pub timers: BTreeMap<String, TimerStat>,
}

impl Snapshot {
    /// Value of a counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total accumulated time of a timer (zero if absent).
    pub fn timer_total(&self, name: &str) -> Duration {
        self.timers.get(name).map(|t| t.total).unwrap_or(Duration::ZERO)
    }

    /// Ratio `hits / (hits + misses)` of two counters, or `None` if both
    /// are zero. The conventional names are `<prefix>.hits` / `<prefix>.misses`.
    pub fn hit_rate(&self, prefix: &str) -> Option<f64> {
        let hits = self.counter(&format!("{prefix}.hits"));
        let misses = self.counter(&format!("{prefix}.misses"));
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Render as a JSON object: counters as integers, timers as
    /// `{name}_ms` floats plus `{name}_count` integers. Names are
    /// sanitized (`.` becomes `_`) so the output is a flat object that is
    /// easy to consume.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", sanitize(name), value);
        }
        for (name, stat) in &self.timers {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}_ms\":{:.3},\"{}_count\":{}",
                sanitize(name),
                stat.total.as_secs_f64() * 1e3,
                sanitize(name),
                stat.count
            );
        }
        out.push('}');
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// A log-scaled latency histogram for wall-clock durations.
///
/// Buckets are base-2 exponential with `SUB_BITS` (3) bits of
/// sub-bucket mantissa (HDR-histogram style), giving ~12.5% relative
/// resolution across the whole nanosecond-to-seconds range with a small,
/// fixed memory footprint. Percentiles come back as the lower bound of the
/// bucket that crosses the requested rank, so reported values never
/// overstate latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Mantissa bits per octave: 8 sub-buckets, ~12.5% resolution.
    const SUB_BITS: u32 = 3;
    /// Enough buckets for durations up to ~2^63 ns (centuries).
    const BUCKETS: usize = ((64 - Self::SUB_BITS as usize) + 1) << Self::SUB_BITS as usize;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            total_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    fn bucket_of(nanos: u64) -> usize {
        let sub = 1u64 << Self::SUB_BITS;
        if nanos < sub {
            return nanos as usize;
        }
        let exp = 63 - nanos.leading_zeros();
        let shift = exp - Self::SUB_BITS;
        let mantissa = ((nanos >> shift) & (sub - 1)) as usize;
        ((((exp - Self::SUB_BITS) as usize) + 1) << Self::SUB_BITS as usize) | mantissa
    }

    /// Lower bound (in nanoseconds) of bucket `idx`.
    fn bucket_lower(idx: usize) -> u64 {
        let sub = 1usize << Self::SUB_BITS as usize;
        if idx < sub {
            return idx as u64;
        }
        let octave = (idx >> Self::SUB_BITS as usize) - 1;
        let mantissa = (idx & (sub - 1)) as u64;
        let base = 1u64 << (octave as u32 + Self::SUB_BITS);
        base + (mantissa << octave as u32)
    }

    /// Record one sample.
    pub fn record(&mut self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.total_nanos += nanos as u128;
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.total_nanos / self.count as u128) as u64)
        }
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_nanos)
        }
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket that
    /// crosses the rank; exact min/max at the extremes. Zero when empty.
    pub fn percentile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(Self::bucket_lower(idx).max(self.min_nanos));
            }
        }
        self.max()
    }

    /// Merge another histogram into this one.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Render as a flat JSON object fragment: `{"count":..,"p50_us":..,
    /// "p95_us":..,"p99_us":..,"mean_us":..,"max_us":..}`.
    pub fn to_json(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        format!(
            "{{\"count\":{},\"p50_us\":{:.3},\"p95_us\":{:.3},\"p99_us\":{:.3},\
             \"mean_us\":{:.3},\"max_us\":{:.3}}}",
            self.count,
            us(self.percentile(0.50)),
            us(self.percentile(0.95)),
            us(self.percentile(0.99)),
            us(self.mean()),
            us(self.max()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = Registry::new();
        reg.add("search.iterations", 10);
        reg.add("search.iterations", 5);
        assert_eq!(reg.counter("search.iterations"), 15);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn spans_record_on_drop() {
        let reg = Registry::new();
        {
            let _s = reg.span("phase.parse");
        }
        reg.time("phase.parse", || std::thread::sleep(Duration::from_millis(1)));
        let stat = reg.timer("phase.parse");
        assert_eq!(stat.count, 2);
        assert!(stat.total >= Duration::from_millis(1));
    }

    #[test]
    fn hit_rate_and_json() {
        let reg = Registry::new();
        reg.add("cache.hits", 3);
        reg.add("cache.misses", 1);
        reg.record("phase.map", Duration::from_millis(2));
        let snap = reg.snapshot();
        assert_eq!(snap.hit_rate("cache"), Some(0.75));
        assert_eq!(snap.hit_rate("other"), None);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hits\":3"));
        assert!(json.contains("\"phase_map_ms\""));
        assert!(json.contains("\"phase_map_count\":1"));
    }

    #[test]
    fn absorb_merges() {
        let a = Registry::new();
        a.add("n", 1);
        let b = Registry::new();
        b.add("n", 2);
        b.record("t", Duration::from_millis(1));
        a.absorb(&b.snapshot());
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.timer("t").count, 1);
    }

    #[test]
    fn latency_histogram_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn latency_histogram_percentiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Duration::from_micros(1));
        assert_eq!(h.max(), Duration::from_micros(1000));
        // Bucket lower bounds never overstate; resolution is ~12.5%.
        let p50 = h.percentile(0.50).as_micros() as f64;
        assert!((430.0..=500.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(0.99).as_micros() as f64;
        assert!((860.0..=990.0).contains(&p99), "p99 = {p99}");
        assert!(h.percentile(0.0) <= h.percentile(0.5));
        assert!(h.percentile(0.5) <= h.percentile(1.0));
    }

    #[test]
    fn latency_histogram_single_sample_is_exact_at_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(12_345));
        assert_eq!(h.percentile(0.0), Duration::from_nanos(12_345));
        assert_eq!(h.percentile(1.0), Duration::from_nanos(12_345));
        assert_eq!(h.mean(), Duration::from_nanos(12_345));
        // The mid-quantile falls in the sample's own bucket, whose lower
        // bound is clamped to the recorded min.
        assert_eq!(h.percentile(0.5), Duration::from_nanos(12_345));
    }

    #[test]
    fn latency_histogram_absorb_and_json() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Duration::from_micros(10));
        assert_eq!(a.max(), Duration::from_micros(1000));
        let json = a.to_json();
        assert!(json.contains("\"count\":2"), "{json}");
        assert!(json.contains("p99_us"), "{json}");
    }
}
