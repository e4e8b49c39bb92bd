//! In-memory spans for the traced run.
//!
//! A span is a name, a start and end (nanoseconds since the tracer was
//! made), its parent span and the op it belongs to. Spans stay in memory
//! while the run measures and can be written out when it ends.

use crate::measure::Samples;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`core.dispatch`, `scene.sync`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

impl Span {
    fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Collects spans for one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Attribute the following spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span now, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Record a span measured elsewhere (`start..end`), nested in the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
    }

    /// Record a span of `micros` ending now, nested in the innermost open
    /// span (for phases a layer timed itself).
    pub fn record_us(&mut self, name: &'static str, micros: f64) {
        let end = Instant::now();
        let start = end - std::time::Duration::from_nanos((micros * 1e3) as u64);
        self.record(name, start, end);
    }

    /// Every span so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, µs.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.duration_us());
        }
        out
    }

    /// Self time (duration minus direct children) of every span named
    /// `name`, µs.
    pub fn self_us(&self, name: &str) -> Samples {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.duration_us();
            }
        }
        let mut out = Samples::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            out.push((s.duration_us() - child_us[i]).max(0.0));
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let op = t.enter("op");
        std::thread::sleep(std::time::Duration::from_micros(100));
        let now = Instant::now();
        t.record("child", now - std::time::Duration::from_micros(30), now);
        std::thread::sleep(std::time::Duration::from_micros(100));
        t.exit(op);
        let total = t.durations_us("op").sum();
        let own = t.self_us("op").sum();
        assert!((total - own - 30.0).abs() < 1.0, "total {total} self {own}");
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
