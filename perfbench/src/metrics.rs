//! Metric tables, summary statistics and the run's printed report.
//!
//! Every workload reports every end-to-end metric (the result line must
//! carry all of them), so the end-to-end names are generic and each
//! workload states what its unit of work is: a displayed frame for the
//! serving workloads, a simulated session for `sim-fleet`, an arrival
//! for `cluster-churn`. The human-readable report prints each value
//! under its workload-specific name as well (`client_fps`,
//! `sim_sessions_per_s`, ...), beside figures that are printed but not
//! bounded (`mtp_p50_ms`, `mtp_p95_ms`, `render_per_display`). A per-layer metric of a layer the
//! workload never calls reads 0, and the `<layer>.calls` counts show
//! which layers were called.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The layers, named after the workspace crates.
pub const LAYERS: [&str; 13] = [
    "raster", "codec", "core", "runtime", "serve", "client", "obs", "pipeline", "simtime",
    "workload", "netsim", "fleet", "cluster",
];

/// Per-layer metrics other than the `<layer>.calls` counts: name and
/// unit, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("raster.render_ms", "ms"),
    ("raster.fb_bytes_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.encoded_kb", "KB"),
    ("codec.decode_ms", "ms"),
    ("core.swap.handoff_us.block.p50", "us"),
    ("core.swap.handoff_us.block.p99", "us"),
    ("core.swap.handoff_us.overwrite.p50", "us"),
    ("core.swap.handoff_us.overwrite.p99", "us"),
    ("core.buf1.wait_space_ms", "ms"),
    ("core.buf2.wait_data_ms", "ms"),
    ("core.swap.drops", "count"),
    ("core.swap.priority_flushes", "count"),
    ("core.regulator.delay_ms", "ms"),
    ("core.regulator.delays", "count"),
    ("core.regulator.cancels", "count"),
    ("core.regulator.step_ns", "ns"),
    ("runtime.app.render_busy_frac", "ratio"),
    ("runtime.proxy.encode_busy_frac", "ratio"),
    ("runtime.render_per_display", "ratio"),
    ("serve.wire.write_frame_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.socket.hop_us", "us"),
    ("serve.admit.check_us", "us"),
    ("client.handshake_ms", "ms"),
    ("client.inputs_sent", "count"),
    ("client.inputs_scheduled", "count"),
    ("client.tagged_frames", "count"),
    ("obs.record_ns.ring", "ns"),
    ("obs.record_ns.null", "ns"),
    ("obs.trace_overhead.cpu_ms_per_frame", "ms"),
    ("obs.trace_overhead.mtp_p50_ms", "ms"),
    ("pipeline.session_ms", "ms"),
    ("pipeline.frames_per_session", "count"),
    ("fleet.parallel_efficiency", "ratio"),
    ("simtime.slab_queue_ns", "ns"),
    ("simtime.event_queue_ns", "ns"),
    ("workload.sample_ns", "ns"),
    ("netsim.link_send_ns", "ns"),
    ("cluster.solve_us", "us"),
    ("cluster.admitted", "count"),
    ("cluster.shed", "count"),
    ("cluster.requeues", "count"),
];

/// Percentile (`p` in 0..=100) of `values`, interpolating linearly
/// between the two nearest ranks; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (sessions, fleet runs, cluster runs, checks).
    pub attempted: u64,
    /// Attempted operations that failed their correctness check.
    pub failed: u64,
    /// End-to-end values by generic name.
    values: BTreeMap<&'static str, f64>,
    /// Per-layer values by name.
    layers: BTreeMap<&'static str, f64>,
    /// Report lines under the workload-specific names.
    lines: Vec<String>,
}

impl Outcome {
    /// Records one end-to-end value under its generic name, printed
    /// under the workload-specific `alias` with `unit`.
    pub fn e2e(&mut self, name: &'static str, alias: &str, value: f64, unit: &str) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
        self.figure(alias, value, unit, name);
    }

    /// Prints an end-to-end figure that `BENCHMARK.json` does not bound,
    /// with a comment (its sample count or base).
    pub fn figure(&mut self, name: &str, value: f64, unit: &str, comment: &str) {
        self.lines
            .push(format!("  {name:<28} {value:>12.4} {unit:<11} ({comment})"));
    }

    /// Records one per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Adds a free-form report line (checks, warnings, sample counts).
    pub fn note(&mut self, line: String) {
        self.lines.push(format!("  {line}"));
    }

    /// Counts one attempted operation and whether it failed; a failure
    /// is reported with `what` went wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("  FAILED: {}", what()));
        }
    }

    /// The human-readable report and the JSON result line. `layer_calls`
    /// holds the traced call count of each layer.
    pub fn render(
        &self,
        trace: bool,
        layer_calls: &BTreeMap<&'static str, u64>,
    ) -> (String, String) {
        let mut text = String::new();
        for line in &self.lines {
            let _ = writeln!(text, "{line}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            text,
            "  {:<28} {share:>12.4} {:<11} ({} of {} attempted)",
            "failed_share", "ratio", self.failed, self.attempted
        );
        let mut entries: Vec<(String, f64, &str)> = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                entries.push((
                    name.to_string(),
                    self.layers.get(name).copied().unwrap_or(0.0),
                    unit,
                ));
            }
            for layer in LAYERS {
                let calls = layer_calls.get(layer).copied().unwrap_or(0);
                entries.push((format!("{layer}.calls"), calls as f64, "count"));
            }
            for (name, value, unit) in &entries {
                let _ = writeln!(text, "  {name:<38} {value:>14.4} {unit}");
            }
        } else {
            for (name, unit) in END_TO_END {
                entries.push((
                    name.to_string(),
                    self.values.get(name).copied().unwrap_or(0.0),
                    unit,
                ));
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in entries.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        (text, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// `BENCHMARK.json` declares exactly the metrics this binary emits.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"name\":").count();
        let mut emitted: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        emitted.extend(PER_LAYER.iter().map(|(n, _)| n.to_string()));
        emitted.extend(LAYERS.iter().map(|l| format!("{l}.calls")));
        let workloads = crate::WORKLOADS.len();
        assert_eq!(declared, emitted.len() + workloads, "metric count differs");
        for name in emitted.iter().map(String::as_str).chain(crate::WORKLOADS) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
    }
}
