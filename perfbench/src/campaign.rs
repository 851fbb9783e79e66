//! The `campaign` workload: `gadt_mutate::run_campaign` on two worker
//! threads over every mutant of a few vetted generated subjects; the
//! seed draws the order of the subjects, and so of their mutants.
//!
//! The mutants are the same for every seed. A seed-drawn 500 of the
//! ~10k mutants of 24 subjects moved the mean mutant time by several
//! percent from seed to seed: 1% of the mutants carry 12% of it.

use crate::pipeline::{self, Golden};
use crate::report::{loop_metrics, ms, timed_setup, Deadline, Report};
use crate::spans::{self, Ledger};
use crate::Args;
use gadt_corpus::Lcg;
use gadt_mutate::{run_campaign, CampaignConfig, CampaignProgram, CampaignSummary, MutantStatus};
use gadt_obs::EventKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads of the campaign and of its traced replay.
const THREADS: usize = 2;

/// With `--smoke` the campaign runs its own seed-drawn subsample.
fn config(args: &Args) -> CampaignConfig {
    CampaignConfig {
        seed: args.seed,
        max_mutants: args.sizes.campaign_mutants,
        threads: THREADS,
        max_steps: pipeline::MAX_STEPS,
        ..CampaignConfig::default()
    }
}

/// What the untraced loop measured.
struct Untraced {
    mutants: u64,
    wall_s: f64,
    /// `(i, ms)`: the pipeline time of the i-th mutant in campaign
    /// order, from the campaign's own journal, once per iteration.
    samples: Vec<(usize, f64)>,
    /// Σ per-mutant ms and wall seconds of each iteration.
    windows: Vec<(f64, f64)>,
    first: Option<CampaignSummary>,
}

/// Runs whole campaigns until `deadline`; every iteration's fingerprint
/// must equal the first one's.
fn untraced(
    args: &Args,
    subjects: &[CampaignProgram],
    deadline: &Deadline,
    report: &mut Report,
) -> Untraced {
    let mut u = Untraced {
        mutants: 0,
        wall_s: 0.0,
        samples: Vec::new(),
        windows: Vec::new(),
        first: None,
    };
    let mut fingerprint = None;
    loop {
        let t0 = Instant::now();
        let summary = run_campaign(subjects, &config(args));
        let dt = t0.elapsed().as_secs_f64();
        match summary {
            Err(e) => {
                eprintln!("campaign: harness error: {e}");
                report.attempted += 1;
                report.failed += 1;
            }
            Ok(summary) => {
                let n = summary.total() as u64;
                report.attempted += n;
                u.mutants += n;
                u.wall_s += dt;
                let fp = summary.fingerprint();
                if *fingerprint.get_or_insert_with(|| fp.clone()) != fp {
                    eprintln!("campaign: fingerprint differs from the first iteration");
                    report.failed += n;
                }
                let start = u.samples.len();
                u.samples
                    .extend(summary.reports.iter().enumerate().filter_map(|(i, r)| {
                        r.journal
                            .events
                            .iter()
                            .filter(|e| e.kind == EventKind::Exit && e.name == "mutant")
                            .find_map(|e| e.dur)
                            .map(|d| (i, ms(d)))
                    }));
                let busy = u.samples[start..].iter().map(|s| s.1).sum();
                u.windows.push((busy, dt));
                if u.first.is_none() {
                    u.first = Some(summary);
                }
            }
        }
        if deadline.passed() {
            return u;
        }
    }
}

/// A mutant of the campaign: its subject's name, operator and ordinal.
type MutantId = (String, gadt_mutate::MutOp, u32);

/// One traced campaign iteration over the mutants `ids` (the campaign's
/// mutants, in campaign order): golden contexts on this thread,
/// then every mutant on `THREADS` workers, each call into a layer in a
/// span. Returns the statuses in campaign order and the wall time.
fn traced_iteration(
    subjects: &[CampaignProgram],
    ids: &[MutantId],
    ledger: &mut Ledger,
) -> Result<(Vec<MutantStatus>, f64), String> {
    let t0 = Instant::now();
    spans::enable();
    let goldens: Result<Vec<Golden>, String> = subjects.iter().map(pipeline::golden).collect();
    ledger.add(&spans::take());
    let goldens = goldens?;
    let work: Vec<(usize, usize)> = ids
        .iter()
        .map(|(name, op, ordinal)| {
            let g = goldens.iter().position(|g| &g.name == name)?;
            let site = goldens[g]
                .sites
                .iter()
                .position(|s| s.op == *op && s.ordinal == *ordinal)?;
            Some((g, site))
        })
        .collect::<Option<_>>()
        .ok_or("a campaign mutant has no site in its golden program")?;
    let next = AtomicUsize::new(0);
    let statuses = Mutex::new(vec![None; work.len()]);
    let traces = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    spans::enable();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(g, site)) = work.get(i) else { break };
                        let golden = &goldens[g];
                        let (status, _) =
                            spans::span("mutant", || pipeline::mutant(golden, &golden.sites[site]));
                        statuses.lock().expect("statuses poisoned")[i] = Some(status);
                    }
                    spans::take()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay worker panicked"))
            .collect::<Vec<_>>()
    });
    let wall = t0.elapsed().as_secs_f64();
    for t in &traces {
        ledger.add(t);
    }
    let statuses = statuses
        .into_inner()
        .expect("statuses poisoned")
        .into_iter()
        .map(|s| s.expect("every mutant ran"))
        .collect();
    Ok((statuses, wall))
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (first, programs) = args.sizes.campaign_programs;
    let (subjects, setup_s) = timed_setup(args.setup_reps, || {
        let vetted = pipeline::subjects(pipeline::INPUT_DRAW, first, programs);
        let n = vetted.len();
        Lcg::new(args.seed)
            .pick_distinct(n, n)
            .into_iter()
            .map(|i| vetted[i].clone())
            .collect::<Vec<_>>()
    });
    eprintln!(
        "campaign: {} vetted subjects of {programs}, set-up {setup_s:.3}s",
        subjects.len()
    );
    if !args.trace {
        let u = untraced(args, &subjects, &Deadline::after(args.seconds), &mut report);
        report.metric("setup_s", setup_s, "s");
        loop_metrics(&mut report, THREADS, &u.samples, &u.windows);
        return report;
    }

    // Traced run: an untraced half for the overhead baseline, then the
    // replay with spans.
    let u = untraced(
        args,
        &subjects,
        &Deadline::after(args.seconds / 2.0),
        &mut report,
    );
    let untraced_ms = u.wall_s * 1e3 / u.mutants.max(1) as f64;
    let busy_ms: f64 = u.windows.iter().map(|w| w.0).sum();
    let efficiency = busy_ms / (THREADS as f64 * u.wall_s * 1e3);
    let (ids, expected): (Vec<MutantId>, Vec<MutantStatus>) = u
        .first
        .map(|s| {
            s.reports
                .into_iter()
                .map(|r| ((r.program, r.op, r.ordinal), r.status))
                .unzip()
        })
        .unwrap_or_default();

    let mut ledger = Ledger::default();
    let deadline = Deadline::after(args.seconds / 2.0);
    let (mut mutants, mut wall_s) = (0u64, 0.0);
    loop {
        match traced_iteration(&subjects, &ids, &mut ledger) {
            Err(e) => {
                eprintln!("campaign: traced golden failed: {e}");
                report.attempted += 1;
                report.failed += 1;
            }
            Ok((statuses, wall)) => {
                let n = statuses.len() as u64;
                report.attempted += n;
                mutants += n;
                wall_s += wall;
                let wrong = statuses
                    .iter()
                    .zip(&expected)
                    .filter(|(a, b)| a != b)
                    .count()
                    + statuses.len().abs_diff(expected.len());
                if wrong > 0 {
                    eprintln!(
                        "campaign: traced replay disagrees with run_campaign on {wrong} mutants"
                    );
                    report.failed += wrong as u64;
                }
            }
        }
        if deadline.passed() {
            break;
        }
    }
    let ops = mutants.max(1);
    let traced_ms = wall_s * 1e3 / ops as f64;
    eprintln!("campaign ledger ({ops} mutants, {THREADS} threads):");
    eprint!("{}", ledger.render(ops));
    // The layers add up to thread time: THREADS workers per wall second.
    crate::ledger_metrics(
        &mut report,
        &ledger,
        ops,
        THREADS as f64 * traced_ms * 1e6,
        traced_ms,
        untraced_ms,
    );
    report.metric(
        "campaign.screened_ratio",
        ledger.count("campaign.screened") as f64 / ledger.count("campaign.mutants").max(1) as f64,
        "ratio",
    );
    report.metric("exec.parallel_efficiency", efficiency, "ratio");
    report
}
