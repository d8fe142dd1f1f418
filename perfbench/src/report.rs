//! The benchmark's output: a run-metadata line, then (last) the result
//! line the contract asks for. Metric names and units live here and only
//! here; `smoke.py` checks them against `BENCHMARK.json`.

use crate::trace::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("slots_per_s", "1/s"),
    ("slot_p50_us", "us"),
    ("slot_p90_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs), with units. A metric whose layer is
/// not on a workload's path reads 0 there (see README.md).
pub const PER_LAYER: [(&str, &str); 24] = [
    ("ofdm.demod_us", "us"),
    ("decoder.extract_us", "us"),
    ("decoder.candidates", "count"),
    ("decoder.common_us", "us"),
    ("decoder.ue_us", "us"),
    ("decoder.ue_hypotheses", "count"),
    ("decoder.yield", "ratio"),
    ("decoder.validation_rejects", "count"),
    ("polar.build_us", "us"),
    ("polar.sc_us", "us"),
    ("scope.self_us", "us"),
    ("scope.tracked_ues", "count"),
    ("persist.journal_us", "us"),
    ("persist.bytes_per_slot", "B"),
    ("persist.durable_lag_slots", "count"),
    ("fleet.feed_us", "us"),
    ("fleet.queue_max", "count"),
    ("fleet.scaling", "ratio"),
    ("supervise.round_trip_us", "us"),
    ("supervise.ipc_us", "us"),
    ("supervise.wire_bytes_per_slot", "B"),
    ("metrics.cost_us", "us"),
    ("trace.slot_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// One run's findings.
#[derive(Default)]
pub struct Report {
    /// Metric values by name (end-to-end or per-layer, per the run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run metadata and correctness figures (printed, not bounded).
    pub info: BTreeMap<String, String>,
    /// Slots fed in the measured window.
    pub attempted: u64,
    /// Of those: lost, or reporting a DCI that matches no truth DCI.
    pub failed: u64,
    /// Every correctness check that failed, in words.
    pub violations: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The end-to-end metrics of a closed loop, from its per-slot
    /// latencies (µs) and its set-up times (s).
    pub fn set_end_to_end(&mut self, lat_us: &[f64], setups_s: &[f64]) {
        let mut lat = lat_us.to_vec();
        let mut setups = setups_s.to_vec();
        let busy_s = lat.iter().sum::<f64>() / 1e6;
        self.set("slots_per_s", lat.len() as f64 / busy_s);
        self.set("slot_p50_us", median(&mut lat));
        self.set("slot_p90_us", percentile(&mut lat, 90.0));
        self.set("setup_s", median(&mut setups));
    }

    /// Set to 0 the per-layer metrics of layers this workload's path does
    /// not include (names starting with one of `prefixes`).
    pub fn not_on_path(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, 0.0);
            }
        }
    }

    /// Record a metadata value (numbers and strings alike, pre-rendered).
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.insert(key.to_string(), value.to_string());
    }

    /// Record a correctness check: `ok` false adds a violation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Print the metadata line and then the result line, with `table`'s
    /// metrics in it, and return whether every check passed. A metric
    /// missing from the run or not finite is a violation (printed as 0).
    pub fn print(mut self, table: &[(&'static str, &'static str)]) -> bool {
        let mut body = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            if !v.is_finite() {
                self.violations.push(format!("metric {name} not measured"));
            }
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let mut info = String::new();
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(info, "{sep}\"{k}\": {}", json_value(v));
        }
        for v in &self.violations {
            eprintln!("perfbench: correctness: {v}");
        }
        let violations: Vec<String> = self.violations.iter().map(|v| json_str(v)).collect();
        println!(
            "{{\"run\": {{{info}}}, \"violations\": [{}]}}",
            violations.join(", ")
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        self.correct()
    }
}

/// A pre-rendered value: numbers and booleans verbatim, anything else
/// as a JSON string.
fn json_value(v: &str) -> String {
    let numeric = v.parse::<f64>().is_ok_and(f64::is_finite);
    if numeric || v == "true" || v == "false" {
        v.to_string()
    } else {
        json_str(v)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
