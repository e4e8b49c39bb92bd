//! Lightweight telemetry for the PI2 pipeline, with no dependencies
//! outside `std`.
//!
//! A [`Registry`] accumulates named **phase timers** (wall-clock totals
//! with call counts) from any number of threads; generation times its
//! parse, search, map and cost phases with [`Registry::time`], and a
//! [`Snapshot`] freezes the timers into the plain data that
//! `GenerationStats` embeds. A [`LatencyHistogram`] records per-request
//! latencies (the server keeps one per endpoint).

use std::collections::BTreeMap;
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

/// A thread-safe sink for phase timers.
///
/// Locking is a plain `std::sync::Mutex`: telemetry writes are rare
/// (per-phase, per-search) rather than per-iteration, so contention is
/// negligible next to the work being measured.
#[derive(Debug, Default)]
pub struct Registry {
    timers: Mutex<BTreeMap<String, TimerStat>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, TimerStat>> {
        self.timers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one interval of `elapsed` against the named timer.
    pub fn record(&self, name: &str, elapsed: Duration) {
        let mut timers = self.locked();
        let stat = timers.entry(name.to_string()).or_default();
        stat.total += elapsed;
        stat.count += 1;
    }

    /// Time a closure and record it under `name`, passing through its result.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Freeze the current timers into plain data.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { timers: self.locked().clone() }
    }
}

/// An immutable copy of a registry's timers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Accumulated timers by name.
    pub timers: BTreeMap<String, TimerStat>,
}

impl Snapshot {
    /// Total accumulated time of a timer (zero if absent).
    pub fn timer_total(&self, name: &str) -> Duration {
        self.timers.get(name).map(|t| t.total).unwrap_or(Duration::ZERO)
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    // `Registry::time` is the one way to record an interval: it records
    // once the timed closure's scope ends, alongside direct `record` calls.
    #[test]
    fn spans_record_on_drop() {
        let reg = Registry::new();
        reg.record("phase.parse", Duration::from_millis(2));
        let parsed = reg.time("phase.parse", || {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(parsed, 7);
        let stat = reg.snapshot().timers["phase.parse"];
        assert_eq!(stat.count, 2);
        assert!(stat.total >= Duration::from_millis(3));
    }

    // A snapshot carries the phase timers as plain data; absent timers
    // read as zero.
    #[test]
    fn hit_rate_and_json() {
        let reg = Registry::new();
        reg.record("phase.map", Duration::from_millis(2));
        let snap = reg.snapshot();
        assert_eq!(snap.timers["phase.map"].count, 1);
        assert_eq!(snap.timer_total("phase.map"), Duration::from_millis(2));
        assert_eq!(snap.timer_total("phase.cost"), Duration::ZERO);
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
    fn latency_histogram_absorb() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Duration::from_micros(10));
        assert_eq!(a.max(), Duration::from_micros(1000));
        assert_eq!(a.mean(), Duration::from_micros(505));
    }
}
