//! Mutant campaigns: fault injection × the full GADT pipeline, fanned
//! out over [`gadt_exec::BatchExecutor`].
//!
//! A campaign takes a set of known-good programs, enumerates every
//! mutation site, (optionally) subsamples them with a seeded LCG, and
//! runs each mutant through transform → trace → debug twice — once with
//! slicing, once without — judged by the golden-reference oracle
//! ([`gadt::oracle::GoldenOracle`]). Per-mutant work is fully
//! independent, so results are byte-identical at any thread count; only
//! the journals' wall-clock fields differ.

use crate::operators::{enumerate_sites, materialize, MutationSite};
use crate::report::{CampaignSummary, LocalizationReport, MutantStatus};
use gadt::debugger::{DebugConfig, DebugOutcome, DebugResult, Strategy};
use gadt::error::{Error, Phase};
use gadt::oracle::{ChainOracle, CountingOracle, GoldenOracle};
use gadt::session::{self, Engine, PreparedProgram, TracedRun};
use gadt_exec::BatchExecutor;
use gadt_obs::{Journal, Recorder};
use gadt_pascal::ast::Program;
use gadt_pascal::interp::Limits;
use gadt_pascal::parser::parse_program;
use gadt_pascal::sema::{analyze, Module};
use gadt_pascal::value::Value;
use std::sync::Arc;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for mutant subsampling (only consulted when the site count
    /// exceeds `max_mutants`).
    pub seed: u64,
    /// Upper bound on mutants run; `0` means all sites.
    pub max_mutants: usize,
    /// Worker threads for the batch executor (`0` = all cores).
    pub threads: usize,
    /// Interpreter step budget per mutant run — injected faults
    /// routinely loop forever; exhaustion classifies as crashed.
    pub max_steps: u64,
    /// Execution engine for golden and mutant runs alike. Verdicts,
    /// fingerprints and journals are engine-invariant
    /// (`tests/mutation_conformance.rs` pins this down), so the stored
    /// verdict keys deliberately do *not* include the engine.
    pub engine: Engine,
    /// Traversal strategy for both debug sessions of every mutant.
    /// Question counts *do* depend on it, so non-default strategies get
    /// their own stored verdict keys (a `@<slug>` suffix); the default
    /// [`Strategy::TopDown`] keeps the historical key shape.
    pub strategy: Strategy,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xA11CE,
            max_mutants: 0,
            threads: 0,
            max_steps: 200_000,
            engine: Engine::default(),
            strategy: Strategy::TopDown,
        }
    }
}

/// One known-good subject program of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignProgram {
    /// Display name used in reports.
    pub name: String,
    /// Pascal source (must compile and run cleanly).
    pub source: String,
    /// Input stream for every run of this program and its mutants.
    pub input: Vec<Value>,
}

impl CampaignProgram {
    /// Convenience constructor for a no-input subject.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        CampaignProgram {
            name: name.into(),
            source: source.into(),
            input: Vec::new(),
        }
    }
}

/// The golden (un-mutated) context of one subject program, computed once
/// and shared read-only by every worker.
struct GoldenCtx {
    name: String,
    ast: Program,
    prepared: PreparedProgram,
    golden_run: TracedRun,
    /// Full execution-tree rendering — detects *any* behavioral divergence.
    golden_render: String,
    /// Top-level interface rendering — what a user of algorithmic
    /// debugging can actually observe (see [`interface_render`]).
    golden_interface: String,
    input: Vec<Value>,
    sites: Vec<MutationSite>,
    strategy: Strategy,
}

/// The observable top level of a run: the root node plus the In/Out line
/// of each top-level invocation. Algorithmic debugging starts from a
/// user-visible wrong result; a mutant whose program output and top-level
/// interfaces all match the golden run presents no such result, however
/// much its internals diverge.
fn interface_render(tree: &gadt_trace::ExecTree) -> String {
    let mut out = tree.render_node(tree.root);
    for &c in &tree.node(tree.root).children {
        out.push('\n');
        out.push_str(&tree.render_node(c));
    }
    out
}

fn golden_ctx(p: &CampaignProgram, config: &CampaignConfig) -> Result<GoldenCtx, Error> {
    let ctx = |e: Error| e.context(format!("golden program `{}`", p.name));
    let ast = parse_program(&p.source).map_err(|e| ctx(e.into()))?;
    let module = analyze(ast.clone()).map_err(|e| ctx(e.into()))?;
    let prepared = session::prepare_observed(module, &mut Recorder::disabled())
        .map_err(|e| ctx(Error::from_diagnostic(Phase::Transform, e)))?
        .with_engine(config.engine);
    let golden_run =
        session::run_traced(&prepared, p.input.iter().cloned()).map_err(|e| ctx(e.into()))?;
    let golden_render = golden_run.tree.render(golden_run.tree.root);
    let golden_interface = interface_render(&golden_run.tree);
    let sites = enumerate_sites(&ast);
    Ok(GoldenCtx {
        name: p.name.clone(),
        ast,
        prepared,
        golden_run,
        golden_render,
        golden_interface,
        input: p.input.clone(),
        sites,
        strategy: config.strategy,
    })
}

/// Runs a campaign over `programs`.
///
/// # Errors
/// Fails with a [`Phase`]-tagged [`Error`] when a *golden* program does
/// not parse, compile, transform, or run — that is a harness
/// configuration error, not a mutant outcome.
pub fn run_campaign(
    programs: &[CampaignProgram],
    config: &CampaignConfig,
) -> Result<CampaignSummary, Error> {
    let (contexts, work, limits) = plan(programs, config)?;
    let pool = BatchExecutor::new(config.threads);
    let reports = pool.run(work, |_, (prog_idx, site)| {
        run_mutant(&contexts[prog_idx], &site, limits)
    });
    Ok(CampaignSummary { reports })
}

/// A campaign's golden contexts, its `(program, site)` work list and the
/// limits every mutant run executes under.
type Plan = (Vec<GoldenCtx>, Vec<(usize, MutationSite)>, Limits);

/// The setup both campaign runners share: the golden context of every
/// program, and the work list, subsampled with the seeded LCG when it
/// exceeds `max_mutants`.
fn plan(programs: &[CampaignProgram], config: &CampaignConfig) -> Result<Plan, Error> {
    let contexts: Vec<GoldenCtx> = programs
        .iter()
        .map(|p| golden_ctx(p, config))
        .collect::<Result<_, _>>()?;

    let mut work: Vec<(usize, MutationSite)> = Vec::new();
    for (i, ctx) in contexts.iter().enumerate() {
        for site in &ctx.sites {
            work.push((i, site.clone()));
        }
    }
    if config.max_mutants > 0 && work.len() > config.max_mutants {
        work = subsample(work, config.max_mutants, config.seed);
    }
    let limits = Limits {
        max_steps: config.max_steps,
        // Injected faults routinely break recursion guards; the interpreter
        // executes Pascal calls by native recursion, so a tight depth limit
        // turns a runaway mutant into a crashed classification instead of a
        // native stack overflow. 64 is ~5x any legitimate subject's call
        // depth yet fits a 2 MiB stack even with debug-sized frames (the
        // single-thread batch path runs on the calling thread).
        max_depth: 64,
    };
    Ok((contexts, work, limits))
}

/// FNV-1a over a byte string — used to keep campaign verdict keys short.
fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The store key of one mutant's golden-reference verdict. A verdict is
/// only reusable while everything that determined it is unchanged, so
/// the key fingerprints the golden source, the input stream and the step
/// budget alongside the mutation site itself.
fn verdict_key(
    p: &CampaignProgram,
    max_steps: u64,
    strategy: Strategy,
    site: &MutationSite,
) -> String {
    let mut ident = p.source.as_bytes().to_vec();
    for v in &p.input {
        ident.extend_from_slice(v.to_string().as_bytes());
        ident.push(0);
    }
    ident.extend_from_slice(&max_steps.to_le_bytes());
    let mut key = format!(
        "campaign/{}/{:016x}/{}#{}@{}",
        p.name,
        fnv(&ident),
        site.op,
        site.ordinal,
        site.unit
    );
    // Question counts depend on the traversal strategy, so non-default
    // strategies key their own verdicts; TopDown keeps the historical
    // shape so existing stores stay warm.
    if strategy != Strategy::TopDown {
        key.push('@');
        key.push_str(strategy.slug());
    }
    key
}

/// Like [`run_campaign`], but with persistent golden-reference verdict
/// reuse: mutants whose verdict is already in `store` (same golden
/// source, input, step budget and mutation site) are **not** re-run —
/// their status comes back from disk with an empty journal — and every
/// freshly-judged mutant's status is recorded, streamed to the store in
/// campaign order as workers finish.
///
/// The summary's [`CampaignSummary::fingerprint`] is identical to a
/// fresh run's; only the journals of reused mutants are empty (the
/// store persists verdicts, not telemetry).
///
/// # Errors
/// Same golden-program errors as [`run_campaign`], plus a
/// [`Phase::Campaign`] error when the store cannot be read or written.
pub fn run_campaign_with_store(
    programs: &[CampaignProgram],
    config: &CampaignConfig,
    store: &gadt_store::SharedStore,
) -> Result<CampaignSummary, Error> {
    let (contexts, work, limits) = plan(programs, config)?;
    let keys: Vec<String> = work
        .iter()
        .map(|(i, site)| verdict_key(&programs[*i], config.max_steps, config.strategy, site))
        .collect();

    // Stored verdicts first (lookups in campaign order), then only the
    // remainder goes through the pipeline.
    let mut cached: Vec<Option<MutantStatus>> = Vec::with_capacity(work.len());
    {
        let mut guard = store.lock().expect("store mutex poisoned");
        for key in &keys {
            cached.push(
                guard
                    .lookup_verdict(key)
                    .as_ref()
                    .and_then(MutantStatus::from_json),
            );
        }
    }
    let fresh: Vec<(usize, usize, MutationSite)> = work
        .iter()
        .enumerate()
        .filter(|(slot, _)| cached[*slot].is_none())
        .map(|(slot, (prog_idx, site))| (slot, *prog_idx, site.clone()))
        .collect();

    let pool = BatchExecutor::new(config.threads);
    let mut sink_err: Option<std::io::Error> = None;
    let fresh_reports = pool.run_with_sink(
        fresh,
        |_, (slot, prog_idx, site)| (slot, run_mutant(&contexts[prog_idx], &site, limits)),
        |_, (slot, report)| {
            if sink_err.is_some() {
                return;
            }
            let mut guard = store.lock().expect("store mutex poisoned");
            if let Err(e) = guard.record_verdict(&keys[*slot], report.status.to_json()) {
                sink_err = Some(e);
            }
        },
    );
    if let Some(e) = sink_err {
        return Err(Error::new(
            Phase::Campaign,
            format!("recording campaign verdicts failed: {e}"),
        ));
    }
    store
        .lock()
        .expect("store mutex poisoned")
        .sync()
        .map_err(|e| Error::new(Phase::Campaign, format!("knowledge store sync failed: {e}")))?;

    // Reassemble in campaign order: cached verdicts become reports with
    // empty journals; fresh ones carry their full telemetry.
    let mut fresh_iter = fresh_reports.into_iter();
    let reports: Vec<LocalizationReport> = work
        .into_iter()
        .zip(cached)
        .map(|((prog_idx, site), cached_status)| match cached_status {
            Some(status) => LocalizationReport {
                program: contexts[prog_idx].name.clone(),
                op: site.op,
                ordinal: site.ordinal,
                mutated_unit: site.unit.clone(),
                description: site.description.clone(),
                status,
                journal: Journal::new(),
            },
            None => {
                let (_, report) = fresh_iter.next().expect("fresh report missing");
                report
            }
        })
        .collect();
    Ok(CampaignSummary { reports })
}

/// The full pipeline on one mutant: materialize → analyze → transform
/// → monitor-free crash screen → trace (bounded) → kill check → debug
/// twice (slicing on/off) against the golden oracle.
///
/// Every step journals into a per-mutant [`Recorder`]: a `mutant` root
/// span tagged with program/operator/ordinal, the standard
/// transform/trace/debug phase spans, and the two debug sessions adopted
/// under the `with_slicing.` / `without_slicing.` counter prefixes.
fn run_mutant(ctx: &GoldenCtx, site: &MutationSite, limits: Limits) -> LocalizationReport {
    let mut rec = Recorder::new();
    let mspan = gadt_obs::span!(
        rec,
        "mutant",
        program = ctx.name.as_str(),
        op = site.op.to_string(),
        ordinal = site.ordinal,
        unit = site.unit.as_str(),
    );
    let status = run_mutant_status(ctx, site, limits, &mut rec);
    rec.exit(mspan);
    LocalizationReport {
        program: ctx.name.clone(),
        op: site.op,
        ordinal: site.ordinal,
        mutated_unit: site.unit.clone(),
        description: site.description.clone(),
        status,
        journal: rec.finish(),
    }
}

fn run_mutant_status(
    ctx: &GoldenCtx,
    site: &MutationSite,
    limits: Limits,
    rec: &mut Recorder,
) -> MutantStatus {
    // The mutant as its printed text would parse, built in memory; a
    // mutant whose text does not parse is stillborn with the parser's
    // message.
    let module = match materialize(&ctx.ast, site) {
        None => {
            return MutantStatus::Stillborn {
                reason: "mutation site not found".into(),
            }
        }
        Some(parsed) => match parsed.and_then(analyze) {
            Ok(m) => m,
            Err(e) => return MutantStatus::Stillborn { reason: e.message },
        },
    };
    let prepared = match session::prepare_observed(module, rec) {
        Ok(p) => p.with_engine(ctx.prepared.engine()),
        Err(e) => return MutantStatus::Stillborn { reason: e.message },
    };

    let tspan = gadt_obs::span!(rec, "trace", inputs = 1u64);
    // Monitor-free crash screen: runaway mutants — the common kill mode,
    // and the most expensive to trace — burn their step budget here
    // without paying for dependence recording or tree building. The fast
    // path is result-identical to the traced run (same error, message
    // and span), so the Crashed classification is byte-for-byte what the
    // traced pipeline would have produced.
    if let Err(e) = prepared.execute_fast(ctx.input.clone(), limits) {
        rec.exit(tspan);
        return MutantStatus::Crashed { error: e.message };
    }
    let run = session::run_traced_limited(&prepared, ctx.input.iter().cloned(), limits);
    let run = match run {
        Ok(r) => {
            r.trace.observe(rec);
            r.tree.observe(rec);
            rec.exit(tspan);
            r
        }
        Err(e) => {
            rec.exit(tspan);
            return MutantStatus::Crashed { error: e.message };
        }
    };

    // Killed means *observably* killed: the program output or a top-level
    // invocation's In/Out interface differs. Internal-only divergence is
    // masked — no symptom a user could hand to the debugger.
    let observable =
        run.output != ctx.golden_run.output || interface_render(&run.tree) != ctx.golden_interface;
    if !observable {
        let diverged = run.tree.render(run.tree.root) != ctx.golden_render;
        return if diverged {
            MutantStatus::Masked
        } else {
            MutantStatus::Equivalent
        };
    }

    let dspan = gadt_obs::span!(rec, "debug");
    let mut with_rec = rec.child();
    let with = debug_against_golden(ctx, &prepared, &run, true, &mut with_rec);
    rec.adopt(with_rec.finish(), Some("with_slicing"));
    let mut without_rec = rec.child();
    let without = debug_against_golden(ctx, &prepared, &run, false, &mut without_rec);
    rec.adopt(without_rec.finish(), Some("without_slicing"));
    rec.exit(dspan);
    rec.add(
        "campaign.questions_saved_by_slicing",
        without.total_queries().saturating_sub(with.total_queries()) as u64,
    );

    let unit = match &with.result {
        DebugResult::BugLocalized { unit, .. } => unit.clone(),
        DebugResult::NoBugFound => {
            // The start node is assumed incorrect, so a started search
            // always localizes; a killed mutant reaching here means the
            // root had no children at all — blame the program unit.
            ctx.name.clone()
        }
    };
    // Loop units belong to their owning procedure's body; a bug placed in
    // `loop in p` is a bug in `p`.
    let blamed = unit.strip_prefix("loop in ").unwrap_or(&unit);
    let exact = blamed.eq_ignore_ascii_case(&site.unit);
    let (mut ev, mut st, mut ca) = (0, 0, 0);
    for s in &with.slice_stats {
        ev += s.events;
        st += s.stmts;
        ca += s.calls;
    }
    MutantStatus::Localized {
        unit,
        exact,
        questions_with_slicing: with.total_queries(),
        questions_without_slicing: without.total_queries(),
        slices_taken: with.slices_taken,
        slice_events: ev,
        slice_stmts: st,
        slice_calls: ca,
    }
}

fn debug_against_golden(
    ctx: &GoldenCtx,
    prepared: &PreparedProgram,
    run: &TracedRun,
    slicing: bool,
    rec: &mut Recorder,
) -> DebugOutcome {
    // The oracle judges the mutant's transformed tree against the golden
    // program's transformed tree, so In/Out shapes line up.
    let golden_module: &Module = &ctx.prepared.transformed.module;
    let oracle = GoldenOracle::from_tree(golden_module, &ctx.golden_run.tree)
        .with_cfg(Arc::clone(&ctx.prepared.cfg));
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(oracle));
    session::debug_observed(
        prepared,
        run,
        &mut chain,
        DebugConfig {
            strategy: ctx.strategy,
            slicing,
        },
        None,
        rec,
    )
}

/// Seeded Fisher–Yates prefix selection, then restored to campaign
/// order: deterministic in `seed`, independent of thread count.
fn subsample(
    mut work: Vec<(usize, MutationSite)>,
    max: usize,
    seed: u64,
) -> Vec<(usize, MutationSite)> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let n = work.len();
    for i in 0..max.min(n) {
        let j = i + (next() as usize) % (n - i);
        work.swap(i, j);
    }
    work.truncate(max);
    work.sort_by_key(|(prog, site)| (*prog, site.op, site.ordinal));
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::testprogs;

    fn small_campaign(threads: usize) -> CampaignSummary {
        let programs = vec![CampaignProgram::new("pqr", testprogs::PQR_FIXED)];
        let config = CampaignConfig {
            threads,
            max_mutants: 12,
            ..CampaignConfig::default()
        };
        run_campaign(&programs, &config).unwrap()
    }

    #[test]
    fn campaign_runs_and_reports() {
        let summary = small_campaign(1);
        assert_eq!(summary.total(), 12);
        assert!(summary.localized() > 0, "{}", summary.fingerprint());
        let rendered = summary.render();
        assert!(rendered.contains("mutants: 12 total"), "{rendered}");
    }

    #[test]
    fn thread_count_does_not_change_the_fingerprint() {
        let one = small_campaign(1).fingerprint();
        let four = small_campaign(4).fingerprint();
        assert_eq!(one, four);
    }

    #[test]
    fn thread_count_does_not_change_the_journal() {
        let one = small_campaign(1).journal();
        let four = small_campaign(4).journal();
        assert_eq!(one.fingerprint(), four.fingerprint());
        assert_eq!(one.counter("campaign.mutants"), 12);
        // Every localized mutant ran two debug sessions; their question
        // counters land under distinct prefixes.
        assert!(one.counter("with_slicing.debug.questions") > 0);
        assert!(
            one.counter("without_slicing.debug.questions")
                >= one.counter("with_slicing.debug.questions")
        );
        assert_eq!(
            one.counter("campaign.questions_saved_by_slicing"),
            one.counter("without_slicing.debug.questions")
                - one.counter("with_slicing.debug.questions")
        );
    }

    #[test]
    fn subsampling_is_seed_deterministic() {
        let p = parse_program(testprogs::SQRTEST_FIXED).unwrap();
        let sites = enumerate_sites(&p);
        let work: Vec<(usize, MutationSite)> = sites.into_iter().map(|s| (0, s)).collect();
        let a = subsample(work.clone(), 10, 42);
        let b = subsample(work.clone(), 10, 42);
        let c = subsample(work, 10, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn campaign_with_store_reuses_judged_verdicts() {
        let programs = vec![CampaignProgram::new("pqr", testprogs::PQR_FIXED)];
        let config = CampaignConfig {
            threads: 2,
            max_mutants: 8,
            ..CampaignConfig::default()
        };
        let dir = gadt_store::TempDir::new("campaign-store");

        // Run 1: everything fresh, every verdict persisted.
        let store = gadt_store::KnowledgeStore::open(dir.path())
            .unwrap()
            .into_shared();
        let first = run_campaign_with_store(&programs, &config, &store).unwrap();
        assert_eq!(first.total(), 8);
        {
            let guard = store.lock().unwrap();
            assert_eq!(guard.verdicts_len(), 8);
            assert_eq!(guard.verdict_hits(), 0);
        }
        let fp_disk = store.lock().unwrap().disk_fingerprint().unwrap();

        // Run 2 (new process simulated by a reopen): all 8 come from the
        // store, nothing is re-judged, and the store's bytes are
        // untouched.
        drop(store);
        let store = gadt_store::KnowledgeStore::open(dir.path())
            .unwrap()
            .into_shared();
        let second = run_campaign_with_store(&programs, &config, &store).unwrap();
        assert_eq!(second.fingerprint(), first.fingerprint());
        {
            let mut guard = store.lock().unwrap();
            assert_eq!(guard.verdict_hits(), 8);
            assert_eq!(guard.verdict_misses(), 0);
            guard.sync().unwrap();
            assert_eq!(guard.disk_fingerprint().unwrap(), fp_disk);
        }
        // Reused reports carry no telemetry — the store persists
        // verdicts, not journals.
        assert!(second.reports.iter().all(|r| r.journal.is_empty()));

        // A changed step budget invalidates the keys: nothing is reused.
        let altered = CampaignConfig {
            max_steps: config.max_steps + 1,
            ..config.clone()
        };
        let third = run_campaign_with_store(&programs, &altered, &store).unwrap();
        assert_eq!(third.fingerprint(), first.fingerprint());
        assert_eq!(store.lock().unwrap().verdicts_len(), 16);
    }

    #[test]
    fn mutant_status_round_trips_through_json() {
        use crate::report::MutantStatus;
        let statuses = vec![
            MutantStatus::Stillborn {
                reason: "does not compile".into(),
            },
            MutantStatus::Crashed {
                error: "step budget exhausted".into(),
            },
            MutantStatus::Equivalent,
            MutantStatus::Masked,
            MutantStatus::Localized {
                unit: "q".into(),
                exact: true,
                questions_with_slicing: 3,
                questions_without_slicing: 5,
                slices_taken: 1,
                slice_events: 10,
                slice_stmts: 4,
                slice_calls: 2,
            },
        ];
        for s in statuses {
            let j = s.to_json();
            // Survives an actual store round-trip through bytes.
            let reparsed = gadt_store::parse(&j.to_string()).unwrap();
            assert_eq!(MutantStatus::from_json(&reparsed), Some(s));
        }
        assert_eq!(
            MutantStatus::from_json(&gadt_store::Json::Str("garbage".into())),
            None
        );
    }

    #[test]
    fn golden_failure_is_a_campaign_error() {
        let programs = vec![CampaignProgram::new("bad", "program x; begin y := 1 end.")];
        let err = run_campaign(&programs, &CampaignConfig::default()).unwrap_err();
        assert_eq!(err.phase(), Phase::Compile);
        assert!(err.to_string().contains("bad"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
