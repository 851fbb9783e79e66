//! Result of one benchmark run: the checks, the metrics, and the one
//! JSON line the run ends with.

use gadt_store::{obj, Json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (mutants or sessions).
    pub attempted: u64,
    /// Operations that failed: error frames, verdict or fingerprint
    /// mismatches, harness errors.
    pub failed: u64,
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The run's final JSON line.
    pub fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", Json::Real(*value)),
                        ("unit", Json::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ])
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Records the end-to-end figures of a loop that runs the same ops again
/// and again on `workers` threads or closed-loop clients.
///
/// `samples` holds `(op, ms)` for every checked op and `windows` the
/// `(Σ op ms, wall s)` of each window. The shared host only ever slows
/// an op down, and its slow spells can last longer than a quarter of a
/// run, so each op's typical time is the fastest of its own times;
/// `op_p50_ms` and `op_p90_ms` are quantiles of the typical times over
/// the ops. `ops_per_s` is workers × utilisation ÷ the mean typical
/// time, where utilisation is the median over windows of
/// Σ op time ÷ (workers × wall): a uniform slowdown leaves it unchanged,
/// while idle workers, serial phases and waits between ops lower it.
pub fn loop_metrics(
    report: &mut Report,
    workers: usize,
    samples: &[(usize, f64)],
    windows: &[(f64, f64)],
) {
    let mut per_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(op, t) in samples {
        per_op.entry(op).or_default().push(t);
    }
    let typical: Vec<f64> = per_op.values().map(|t| quantile(t, 0.0)).collect();
    if typical.is_empty() {
        return;
    }
    let utilisation: Vec<f64> = windows
        .iter()
        .map(|&(busy_ms, wall_s)| busy_ms / (workers as f64 * wall_s * 1e3))
        .collect();
    let mean_ms = typical.iter().sum::<f64>() / typical.len() as f64;
    report.metric(
        "ops_per_s",
        workers as f64 * quantile(&utilisation, 0.5) * 1e3 / mean_ms,
        "1/s",
    );
    report.metric("op_p50_ms", quantile(&typical, 0.5), "ms");
    report.metric("op_p90_ms", quantile(&typical, 0.9), "ms");
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` at least `reps` times and until one second has been
/// spent on it, and returns the last result with the median set-up time
/// in seconds. A cheap set-up is repeated more often, so that its median
/// is not at the mercy of scheduling jitter.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1) || (times.iter().sum::<f64>() < 1.0 && times.len() < 50) {
        // Drop the previous result first so set-ups do not overlap.
        drop(last.take());
        let t0 = Instant::now();
        let out = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (last.expect("at least one set-up"), quantile(&times, 0.5))
}

/// A deadline `secs` seconds from now.
pub struct Deadline(Instant);

impl Deadline {
    /// Starts the clock.
    pub fn after(secs: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(secs))
    }

    /// Whether the deadline has passed.
    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
    }

    #[test]
    fn loop_metrics_read_each_op_at_its_fastest() {
        // Op 0 takes 2 ms and was slowed in three of its four runs; op 1
        // takes 4 ms.
        let samples = [(0, 2.5), (0, 10.0), (0, 2.0), (0, 3.0), (1, 4.0), (1, 4.5)];
        // Two windows in which the two workers were busy half and all
        // of the time.
        let windows = [(12.0, 0.012), (12.0, 0.006)];
        let mut r = Report::default();
        loop_metrics(&mut r, 2, &samples, &windows);
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
        assert_eq!(get("op_p50_ms"), 3.0);
        assert!((get("op_p90_ms") - 3.8).abs() < 1e-9);
        // 2 workers × 0.75 utilisation per 3 ms.
        assert!((get("ops_per_s") - 500.0).abs() < 1e-6);
    }

    #[test]
    fn report_is_one_json_object() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        let line = r.json().to_string();
        let back = gadt_store::parse(&line).expect("parses");
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        assert!(back.get("metrics").and_then(|m| m.get("setup_s")).is_some());
    }
}
