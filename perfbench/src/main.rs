//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload campaign|serve_pooled|serve_interactive \
//!           --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with no spans
//! recorded. With `--trace 1` it runs the same loop untraced for part of
//! the time, as the overhead baseline, then a traced run of the same
//! inputs, and prints the per-layer ledger. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (name → value
//! and unit). `--smoke` shrinks every input for the package's tests.
//! See `README.md` beside this package for what each metric means.

mod campaign;
mod pipeline;
mod report;
mod serve;
mod spans;

use report::Report;
use spans::Ledger;
use std::process::ExitCode;

/// End-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Spans around calls into a layer, in pipeline order. The per-layer
/// metric of span `a.b` is `a.b_ns`; of a dotless span `a`, `a.ns`.
pub const LAYER_SPANS: &[&str] = &[
    "serve.frame",
    "obs.json_validate",
    "store.json_parse",
    "pascal.parse",
    "pascal.sema",
    "mutate.sites",
    "mutate.apply",
    "pascal.print",
    "transform",
    "pascal.cfg",
    "vm.compile",
    "vm.run_fast",
    "analysis.controldep",
    "vm.traced_run",
    "trace.build_tree",
    "trace.render",
    "core.debug",
    "core.oracle",
    "store.lookup",
    "store.append_fsync",
];

/// Per-layer metrics every workload prints with `--trace 1`, besides
/// one `_ns` metric per entry of [`LAYER_SPANS`].
pub const PER_LAYER_EXTRA: &[(&str, &str)] = &[
    ("transform.growth", "ratio"),
    ("trace.events", "count/op"),
    ("trace.nodes", "count/op"),
    ("core.questions", "count/op"),
    ("core.slices", "count/op"),
    ("store.appends", "count/op"),
    ("campaign.screened_ratio", "ratio"),
    ("exec.parallel_efficiency", "ratio"),
    ("serve.ping_rtt_ns", "ns"),
    ("serve.create_rtt_ns", "ns"),
    ("serve.trace_rtt_ns", "ns"),
    ("serve.ask_rtt_ns", "ns"),
    ("serve.answer_rtt_ns", "ns"),
    ("process.peak_rss_mb", "MB"),
    ("serve.live_sessions", "count"),
    ("store.wal_records", "count"),
    ("ledger.traced_op_ms", "ms"),
    ("ledger.untraced_op_ms", "ms"),
    ("ledger.tracing_overhead_ms", "ms"),
    ("ledger.unexplained_ns", "ns/op"),
    ("ledger.coverage", "ratio"),
];

/// The per-layer metric name of a span.
pub fn layer_metric(span: &str) -> String {
    if span.contains('.') {
        format!("{span}_ns")
    } else {
        format!("{span}.ns")
    }
}

/// Every per-layer metric with its unit, in print order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    LAYER_SPANS
        .iter()
        .map(|s| (layer_metric(s), "ns/op"))
        .chain(PER_LAYER_EXTRA.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// Input sizes; `--smoke` picks the small set.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Generated programs behind the campaign's subjects: the first
    /// generator seed and how many.
    pub campaign_programs: (u64, usize),
    /// Generated programs mined for pooled-session candidates, one
    /// killed mutant each.
    pub pooled_programs: usize,
    /// Pooled sessions per server lifetime.
    pub pooled_segment: usize,
    /// Generated programs mined for killed mutants (interactive).
    pub interactive_programs: usize,
    /// Distinct killed mutants: interactive sessions per server lifetime.
    pub interactive_sources: usize,
    /// Mutants per campaign iteration, drawn by the campaign's own
    /// subsample; 0 runs every mutant of the subjects.
    pub campaign_mutants: usize,
}

const FULL: Sizes = Sizes {
    // Generator seeds 5–7: 883 mutants, few enough that each repeats
    // some 40 times in a run. Their mutants exercise the transform
    // (5 and 6 grow by a fifth to a third) and slicing (7), which most
    // generated programs do not.
    campaign_programs: (5, 3),
    campaign_mutants: 0,
    pooled_programs: 96,
    pooled_segment: 500,
    interactive_programs: 24,
    interactive_sources: 400,
};

const SMOKE: Sizes = Sizes {
    campaign_programs: (0, 3),
    campaign_mutants: 40,
    pooled_programs: 12,
    pooled_segment: 50,
    interactive_programs: 3,
    interactive_sources: 20,
};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizes: FULL,
        setup_reps: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            "--smoke" => {
                args.sizes = SMOKE;
                args.setup_reps = 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Records the ledger of a traced run: every layer's self time per op,
/// the work counters per op, coverage and the tracing overhead.
/// `e2e_ns` is the traced end-to-end time of one op that the layers
/// should add up to; `traced_ms` and `untraced_ms` are the op times a
/// user sees with and without spans.
pub fn ledger_metrics(
    report: &mut Report,
    ledger: &Ledger,
    ops: u64,
    e2e_ns: f64,
    traced_ms: f64,
    untraced_ms: f64,
) {
    let per = ops.max(1) as f64;
    for s in LAYER_SPANS {
        report.metric(layer_metric(s), ledger.self_of(s) as f64 / per, "ns/op");
    }
    let before = ledger.count("transform.stmts_before");
    let after = ledger.count("transform.stmts_after");
    report.metric(
        "transform.growth",
        after as f64 / before.max(1) as f64,
        "ratio",
    );
    for c in [
        "trace.events",
        "trace.nodes",
        "core.questions",
        "core.slices",
        "store.appends",
    ] {
        report.metric(c, ledger.count(c) as f64 / per, "count/op");
    }
    let explained_ns = ledger.layer_sum(LAYER_SPANS) as f64 / per;
    let coverage = explained_ns / e2e_ns.max(1.0);
    report.metric("ledger.traced_op_ms", traced_ms, "ms");
    report.metric("ledger.untraced_op_ms", untraced_ms, "ms");
    report.metric("ledger.tracing_overhead_ms", traced_ms - untraced_ms, "ms");
    report.metric("ledger.unexplained_ns", e2e_ns - explained_ns, "ns/op");
    report.metric("ledger.coverage", coverage, "ratio");
    report.metric("process.peak_rss_mb", report::peak_rss_mb(), "MB");
    if coverage < 0.95 {
        eprintln!("ledger: coverage {coverage:.3} is below the 0.95 bar");
    }
}

/// Puts the metrics in the declared order and adds every declared
/// metric the workload does not exercise, as 0.
fn complete(report: &mut Report, declared: &[(String, &'static str)]) {
    let mut out = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = report
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |&(_, v, _)| v);
        out.push((name.clone(), value, *unit));
    }
    for (name, _, _) in &report.metrics {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    report.metrics = out;
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "serve_pooled" => serve::run(&args, serve::Mix::Pooled),
        "serve_interactive" => serve::run(&args, serve::Mix::Interactive),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (campaign | serve_pooled | serve_interactive)");
            return ExitCode::from(2);
        }
    };
    let declared: Vec<(String, &'static str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    complete(&mut report, &declared);
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<28} {value:>16.4} {unit}");
    }
    println!("{}", report.json());
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
    }
    ExitCode::SUCCESS
}
