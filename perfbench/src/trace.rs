//! Spans recorded by the benchmark around its calls into each layer, and
//! the small statistics the report needs.
//!
//! A span has a name, a start and end (ns since the tracer was made), and
//! the slot it belongs to, which the spans of one slot share. Spans are
//! kept in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `ofdm.demod`.
    pub name: &'static str,
    /// Slot (loop step) the span belongs to.
    pub slot: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; returns its result and the span's index.
    pub fn span<R>(&mut self, name: &'static str, slot: u64, f: impl FnOnce() -> R) -> (R, usize) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            slot,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        (r, self.spans.len() - 1)
    }

    /// Duration (µs) of the span at `idx`.
    pub fn us(&self, idx: usize) -> f64 {
        self.spans[idx].us()
    }

    /// Total duration (µs) of the spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .sum()
    }

    /// Total duration (µs) of the spans called `name` in `slot`.
    pub fn slot_total_us(&self, name: &str, slot: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.slot == slot)
            .map(Span::us)
            .sum()
    }

    /// Mean duration (µs) of the spans called `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0.0), |(n, sum), s| (n + 1, sum + s.us()));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"slot\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.slot, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Nearest-rank percentile `p` (0–100) of `v` (sorted in place).
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Resident set size of this process in MB, from `/proc/self/statm`
/// (0 where that file does not exist).
pub fn rss_mb() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/statm") else {
        return 0.0;
    };
    let pages: f64 = text
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    pages * 4096.0 / 1e6
}
