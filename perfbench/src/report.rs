//! Metric names, summary statistics and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_ms.p50", "ms"),
    ("compile_ms.p90", "ms"),
    ("compiles_per_s", "1/s"),
    ("kernel_us.geomean", "us"),
    ("serve_ms.p50", "ms"),
    ("serve_ms.p99", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "fraction"),
    ("synthesis.tv_solve_ms", "ms"),
    ("synthesis.walk_ms", "ms"),
    ("synthesis.enumerated", "count"),
    ("synthesis.scored", "count"),
    ("synthesis.subtrees_cut", "count"),
    ("synthesis.selections_pruned", "count"),
    ("synthesis.bound_evaluations", "count"),
    ("synthesis.prune_fallbacks", "count"),
    ("costmodel.estimate_us", "us"),
    ("sim.perf_eval_us", "us"),
    ("codegen.lower_us", "us"),
    ("codegen.emit_us", "us"),
    ("codegen.instr_lines", "count"),
    ("core.compile_ms", "ms"),
    ("core.stage_coverage", "ratio"),
    ("core.trace_overhead_ms", "ms"),
    ("core.artifact_encode_us", "us"),
    ("core.artifact_decode_us", "us"),
    ("core.artifact_bytes", "bytes"),
    ("cache.memory_hit_ms.p50", "ms"),
    ("cache.disk_hit_ms.p50", "ms"),
    ("cache.hit_rate", "fraction"),
    ("cache.memory_evictions", "count"),
    ("cache.disk_stores", "count"),
    ("cache.quarantined", "count"),
    ("service.synth_ms.p50", "ms"),
    ("service.syntheses", "count"),
    ("service.coalesced", "count"),
    ("service.max_queue_depth", "count"),
    ("service.shed", "count"),
    ("service.retries", "count"),
    ("service.prefetch_issued", "count"),
    ("service.prefetch_hits", "count"),
    ("service.prefetch_hit_share", "fraction"),
    ("parallel.pool_jobs", "count"),
    ("parallel.pool_items", "count"),
    ("parallel.lossy_hit_rate", "fraction"),
    ("layout.algebra_hit_rate", "fraction"),
    ("load.late_ms.p50", "ms"),
    ("load.late_ms.p99", "ms"),
];

/// The metric set a run prints: end-to-end or per-layer.
pub fn metric_set(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Named metric values collected by a workload. Names outside the printed
/// set are ignored; printed names a workload did not set read 0.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The outcome of one run, printed as the last line of standard output. A
/// run whose output checks fail exits with an error instead, so a printed
/// outcome is always correct.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The single-line JSON result for the selected metric set.
    pub fn to_json_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit)) in metric_set(trace).iter().enumerate() {
            let value = self.metrics.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// A finite float in JSON syntax with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// A JSON string literal (for the informational lines).
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule; 0 for an
/// empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive samples; 0 for an empty sample.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Consecutive equal sub-windows a timed run is split into for
/// [`windowed`] statistics.
pub const WINDOWS: usize = 10;

/// `stat` of the values whose time falls in each of [`WINDOWS`] consecutive
/// equal sub-windows of `[0, span)`, for the non-empty ones.
fn per_window(samples: &[(f64, f64)], span: f64, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let mut buckets = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        let i = (t / span * WINDOWS as f64).max(0.0) as usize;
        buckets[i.min(WINDOWS - 1)].push(v);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b))
        .collect()
}

/// The lower quartile over the [`WINDOWS`] sub-windows of a run of `stat`
/// per sub-window. Other work on a shared host only ever slows a sub-window
/// down, so this follows the program's own speed even when slowdowns cover
/// most of the run.
pub fn windowed(samples: &[(f64, f64)], span: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
    quantile(&per_window(samples, span, stat), 0.25)
}

/// Events per second: the upper quartile over the [`WINDOWS`] sub-windows
/// of a run of the per-window rate, from the events' times.
pub fn windowed_rate(times: &[f64], span: f64) -> f64 {
    let ones: Vec<(f64, f64)> = times.iter().map(|&t| (t, 1.0)).collect();
    let rates = per_window(&ones, span, |b| b.len() as f64 / (span / WINDOWS as f64));
    quantile(&rates, 0.75)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_statistics_ignore_slow_windows() {
        // Ten 1-second windows; the third to the ninth are ten times slower.
        let samples: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let t = f64::from(i) / 10.0;
                (t, if (2.0..9.0).contains(&t) { 10.0 } else { 1.0 })
            })
            .collect();
        assert_eq!(windowed(&samples, 10.0, median), 1.0);
        // The same windows complete half as many events.
        let times: Vec<f64> = (0..10)
            .flat_map(|k| {
                let n = if (2..9).contains(&k) { 5 } else { 10 };
                (0..n).map(move |j| f64::from(k) + f64::from(j) / f64::from(n))
            })
            .collect();
        assert_eq!(windowed_rate(&times, 10.0), 10.0);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.1234567891), "0.1234567891");
        assert_eq!(json_number(1e-9), "0.000000001");
    }
}
