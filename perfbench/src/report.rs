//! The result of one benchmark run and the statistics it is built from.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, with units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("shots_per_s", "1/s"),
    ("windows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serve_jobs_per_s", "1/s"),
];

/// The per-layer metrics every traced run prints, with units, in
/// `BENCHMARK.json` order. A layer a workload's path does not reach
/// reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("rng.sample_ns_per_shot", "ns"),
    ("stabilizer.init_ns_per_shot", "ns"),
    ("stabilizer.extract_ns_per_shot", "ns"),
    ("stabilizer.random_meas_per_batch", "count"),
    ("surface.uf.decode_ns_per_shot", "ns"),
    ("surface.uf.decode_ns_per_call", "ns"),
    ("surface.uf.nonempty_frac", "ratio"),
    ("surface.defects_per_shot", "count"),
    ("stabilizer.readout_ns_per_shot", "ns"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.twin_match", "bool"),
    ("surface17.ops_saved_frac", "ratio"),
    ("surface17.slots_saved_frac", "ratio"),
    ("core.error_model.draws_per_window", "count"),
    ("core.error_model.ns_per_draw", "ns"),
    ("stabilizer.sc17_esm_round_ns", "ns"),
    ("surface17.lut.decode_ns", "ns"),
    ("serve.wal.append_sync_us", "us"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.ack_p99_ms", "ms"),
    ("serve.terminal_p50_ms", "ms"),
    ("serve.terminal_p99_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_overhead_ratio", "ratio"),
    ("serve.health.shed", "count"),
    ("serve.health.batches", "count"),
    ("serve.health.reroutes", "count"),
    ("loadgen.lag_ms", "ms"),
];

/// One run's outcome: the operation accounting, whether every output
/// check passed, and the measured metrics by name.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: HashMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: HashMap::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a benchmark metric"
        );
        self.metrics.insert(name, value);
    }

    /// Records an output check: prints the outcome and marks the run
    /// incorrect when it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("check passed: {what}");
        } else {
            eprintln!("check failed: {what}");
            println!("check failed: {what}");
            self.correct = false;
        }
    }

    /// The human-readable lines followed by the one-line JSON result
    /// over the metric list of the run's mode.
    pub fn print(&self, trace: bool) {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in list {
            println!("{name:<36} {:>16.6} {unit}", self.value(name));
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        println!("{}", self.json(list));
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn json(&self, list: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        let mut finite = true;
        for (i, (name, unit)) in list.iter().enumerate() {
            let mut value = self.value(name);
            // JSON has no NaN or infinity; a metric that could not be
            // computed makes the run incorrect rather than unparsable.
            if !value.is_finite() {
                finite = false;
                value = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed
        )
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The reported set-up time of a run's set-up repetitions (seconds):
/// their median, with the quartiles printed beside it.
pub fn setup_s(times: &[f64]) -> f64 {
    let ms = |q| 1e3 * quantile(times, q);
    println!(
        "set-up: {} repetitions, p25 {:.4} ms, p50 {:.4} ms (reported), p75 {:.4} ms",
        times.len(),
        ms(0.25),
        ms(0.5),
        ms(0.75)
    );
    median(times)
}

/// The tail quantile the benchmark calls "p99": the highest percentile,
/// at most the 99th, that still has at least ten samples beyond it, and
/// never below the median (runs too short for a tail report their median).
pub fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.99)
}

/// `(p50, tail)` of `values`, stating the sample count under `label`.
pub fn p50_p99(label: &str, values: &[f64]) -> (f64, f64) {
    let q = tail_quantile(values.len());
    let (p50, tail) = (median(values), quantile(values, q));
    println!(
        "{label}: {} samples, p50 {p50:.3} ms, p{:.1} {tail:.3} ms",
        values.len(),
        100.0 * q
    );
    (p50, tail)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of process `pid` (`"self"` for this one) in
/// MB, from the kernel's `VmHWM` high-water mark.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
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

/// SplitMix64 finaliser: derives a workload's inputs from the benchmark
/// seed, salted per use so no two inputs share a stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_leaves_ten_samples_beyond() {
        assert!((tail_quantile(1000) - 0.99).abs() < 1e-12);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        assert!((tail_quantile(5) - 0.5).abs() < 1e-12);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, tail_quantile(100)), 90.0);
        assert_eq!(median(&values), 50.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metric("setup_s", 0.25);
        r.metric("serve_jobs_per_s", f64::NAN);
        let line = r.json(&END_TO_END[2..]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}, \
             \"serve_jobs_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
    }
}
