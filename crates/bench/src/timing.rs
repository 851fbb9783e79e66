//! A minimal std-only benchmark harness.
//!
//! The offline build environment cannot fetch Criterion, so the
//! `benches/` targets (all `harness = false`) use this instead: each
//! benchmark auto-calibrates an iteration count to a target measuring
//! time, takes several samples, and reports the median ns/iteration.
//! The output is one aligned line per benchmark — grep-friendly for the
//! perf trajectory in EXPERIMENTS.md.

use std::time::{Duration, Instant};

/// A benchmark runner with a fixed per-sample time budget.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Wall-clock budget per sample.
    pub sample_time: Duration,
    /// Number of samples (the median is reported).
    pub samples: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sample_time: Duration::from_millis(120),
            samples: 7,
        }
    }
}

/// One benchmark result.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Benchmark name.
    pub name: String,
    /// Median time per iteration.
    pub per_iter: Duration,
    /// Iterations per sample used after calibration.
    pub iters: u64,
}

impl Timing {
    /// Iterations per second implied by the median.
    pub fn per_sec(&self) -> f64 {
        if self.per_iter.as_nanos() == 0 {
            return f64::INFINITY;
        }
        1e9 / self.per_iter.as_nanos() as f64
    }
}

impl Harness {
    /// Creates a harness with the default budget.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Grows the iteration count until one batch fills the sample budget.
    fn calibrate<R>(&self, f: &mut impl FnMut() -> R) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= self.sample_time || iters >= 1 << 30 {
                return iters;
            }
            iters = if elapsed.is_zero() {
                iters * 100
            } else {
                let scale = self.sample_time.as_secs_f64() / elapsed.as_secs_f64();
                (iters as f64 * scale.clamp(1.5, 100.0)).ceil() as u64
            };
        }
    }

    /// One sample: `iters` runs of `f`, averaged to time-per-iteration.
    fn sample<R>(iters: u64, f: &mut impl FnMut() -> R) -> Duration {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        t.elapsed() / iters as u32
    }

    fn report(&self, name: &str, iters: u64, median: Duration) -> Timing {
        let timing = Timing {
            name: name.to_string(),
            per_iter: median,
            iters,
        };
        // `n=` is iterations per sample × samples taken.
        println!(
            "{:<44} {:>12}/iter  ({:.1} iters/s, n={}×{})",
            timing.name,
            format_duration(median),
            timing.per_sec(),
            iters,
            self.samples.max(1)
        );
        timing
    }

    /// Times `f`, prints one result line, and returns the measurement.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Timing {
        let iters = self.calibrate(&mut f);
        let mut per_iter: Vec<Duration> = (0..self.samples.max(1))
            .map(|_| Self::sample(iters, &mut f))
            .collect();
        per_iter.sort();
        let median = per_iter[per_iter.len() / 2];
        self.report(name, iters, median)
    }

    /// Times two competing implementations with *interleaved* samples —
    /// `a` then `b`, back to back, repeated `samples` times — and returns
    /// the sample pair whose `a/b` time ratio is the median.
    ///
    /// For A-vs-B comparisons on a noisy machine this is far more stable
    /// than two independent [`Harness::bench`] calls: load drift that
    /// spans several samples hits both sides of each pair about equally,
    /// so the reported *ratio* stays representative even when absolute
    /// timings wander.
    pub fn bench_pair<A, B>(
        &self,
        name_a: &str,
        name_b: &str,
        mut a: impl FnMut() -> A,
        mut b: impl FnMut() -> B,
    ) -> (Timing, Timing) {
        let iters_a = self.calibrate(&mut a);
        let iters_b = self.calibrate(&mut b);
        let mut pairs: Vec<(Duration, Duration)> = (0..self.samples.max(1))
            .map(|_| (Self::sample(iters_a, &mut a), Self::sample(iters_b, &mut b)))
            .collect();
        pairs.sort_by(|x, y| {
            let rx = x.0.as_secs_f64() / x.1.as_secs_f64().max(f64::MIN_POSITIVE);
            let ry = y.0.as_secs_f64() / y.1.as_secs_f64().max(f64::MIN_POSITIVE);
            rx.total_cmp(&ry)
        });
        let (da, db) = pairs[pairs.len() / 2];
        (
            self.report(name_a, iters_a, da),
            self.report(name_b, iters_b, db),
        )
    }
}

/// Renders a duration with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let h = Harness {
            sample_time: Duration::from_millis(2),
            samples: 3,
        };
        let t = h.bench("noop_add", || std::hint::black_box(1u64) + 1);
        assert!(t.iters >= 1);
        assert!(t.per_iter < Duration::from_millis(1));
        assert!(t.per_sec() > 1000.0);
    }

    #[test]
    fn bench_pair_reports_both_sides() {
        let h = Harness {
            sample_time: Duration::from_millis(2),
            samples: 3,
        };
        let (a, b) = h.bench_pair(
            "pair_a",
            "pair_b",
            || std::hint::black_box(1u64) + 1,
            || std::hint::black_box([0u64; 64]).iter().sum::<u64>(),
        );
        assert!(a.iters >= 1 && b.iters >= 1);
        assert!(a.per_iter <= Duration::from_millis(1));
        assert!(b.per_iter <= Duration::from_millis(1));
    }

    #[test]
    fn duration_formatting_units() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
        assert!(format_duration(Duration::from_micros(12)).ends_with("µs"));
    }
}
