//! The mutation pipeline of `gadt_mutate::run_campaign`, called layer by
//! layer through each crate's public functions so that every layer can
//! be timed from outside.
//!
//! The steps and their order mirror `run_campaign` exactly: golden
//! context per subject, then per mutant apply → print → parse → sema →
//! transform → CFG → VM compile → crash screen → traced run → tree →
//! kill check → two golden-oracle debug sessions. The benchmark checks
//! that this decomposition reproduces the campaign's per-mutant status.

use crate::spans::{count, span};
use gadt::debugger::{DebugConfig, DebugOutcome, DebugResult, Debugger, Strategy};
use gadt::oracle::{Answer, ChainOracle, GoldenOracle, Oracle};
use gadt_analysis::controldep::ProgramControlDeps;
use gadt_analysis::dyntrace::{DependenceRecorder, DynTrace};
use gadt_corpus::{CorpusCampaignConfig, Lcg};
use gadt_mutate::{apply, enumerate_sites, CampaignProgram, MutantStatus, MutationSite};
use gadt_pascal::ast::Program;
use gadt_pascal::cfg::{lower, ProgramCfg};
use gadt_pascal::interp::{Limits, Outcome};
use gadt_pascal::parser::parse_program;
use gadt_pascal::pretty::print_program;
use gadt_pascal::sema::{analyze, Module};
use gadt_pascal::value::Value;
use gadt_trace::{build_tree, ExecTree, NodeId};
use gadt_transform::Transformed;
use gadt_vm::{Vm, VmProgram};
use std::collections::BTreeMap;

/// Step budget of every mutant run (the campaign default).
pub const MAX_STEPS: u64 = 200_000;

/// The campaign's limits: its step budget and its depth guard.
pub fn campaign_limits() -> Limits {
    Limits {
        max_steps: MAX_STEPS,
        max_depth: 64,
    }
}

/// The one draw of the subjects' inputs that every benchmark seed uses.
/// Inputs set what every mutant and session costs, so drawing them from
/// the benchmark seed made the figures differ by seed, not by code.
pub const INPUT_DRAW: u64 = 0;

/// The campaign subjects for `seed`: the vetted generated programs of
/// generator seeds `first..first + count`, each reading input values
/// drawn from `seed` (in the generator's own range); a program whose
/// golden run fails on the drawn inputs keeps its generated ones.
pub fn subjects(seed: u64, first: u64, count: usize) -> Vec<CampaignProgram> {
    let vetted = gadt_corpus::corpus_subjects(&CorpusCampaignConfig {
        start_seed: first,
        programs: count,
        campaign: gadt_mutate::CampaignConfig {
            threads: 2,
            ..gadt_mutate::CampaignConfig::default()
        },
        ..CorpusCampaignConfig::default()
    });
    let mut lcg = Lcg::new(seed);
    vetted
        .into_iter()
        .map(|p| {
            let drawn = CampaignProgram {
                input: p
                    .input
                    .iter()
                    .map(|_| Value::Int(lcg.range(-9, 99)))
                    .collect(),
                ..p.clone()
            };
            if golden(&drawn).is_ok() {
                drawn
            } else {
                p
            }
        })
        .collect()
}

/// A program after Phase I: transformed, lowered and compiled.
pub struct Prepared {
    /// Transformed module plus mapping.
    pub transformed: Transformed,
    /// CFG of the transformed module.
    pub cfg: ProgramCfg,
    /// Bytecode of the transformed module.
    pub vm: VmProgram,
}

/// Parse + sema, each in its own span.
pub fn compile(source: &str) -> Result<Module, String> {
    let program = span("pascal.parse", || parse_program(source)).map_err(|e| e.message)?;
    span("pascal.sema", || analyze(program)).map_err(|e| e.message)
}

/// Transform + CFG lowering + VM compile (what `session::prepare` does).
pub fn prepare(module: &Module) -> Result<Prepared, String> {
    let transformed =
        span("transform", || gadt_transform::transform(module)).map_err(|e| e.message)?;
    if crate::spans::recording() {
        let before = module.program.stmt_count().max(1) as u64;
        count("transform.stmts_before", before);
        count(
            "transform.stmts_after",
            transformed.module.program.stmt_count() as u64,
        );
    }
    let cfg = span("pascal.cfg", || lower(&transformed.module));
    let vm = span("vm.compile", || {
        VmProgram::compile(&transformed.module, &cfg)
    });
    Ok(Prepared {
        transformed,
        cfg,
        vm,
    })
}

/// `run_campaign` prepares every program with `session::prepare` and
/// then selects the engine with `with_engine`, which compiles the
/// bytecode a second time; the benchmark repeats that work so the
/// ledger adds up to the campaign's own time.
fn recompile(p: &mut Prepared) {
    p.vm = span("vm.compile", || {
        VmProgram::compile(&p.transformed.module, &p.cfg)
    });
}

/// Control dependence + dependence-recording run + tree build (what
/// `session::run_traced_limited` does).
pub fn run_traced(
    p: &Prepared,
    input: &[Value],
    limits: Limits,
) -> Result<(Outcome, DynTrace, ExecTree), String> {
    let module = &p.transformed.module;
    let cd = span("analysis.controldep", || {
        ProgramControlDeps::compute(module, &p.cfg)
    });
    let (outcome, trace) = span("vm.traced_run", || {
        let mut rec = DependenceRecorder::new(&cd);
        let mut vm = Vm::new(module, &p.vm);
        vm.set_limits(limits);
        vm.set_input(input.iter().cloned());
        let outcome = vm.run_with(&mut rec);
        (outcome, rec.finish())
    });
    let outcome = outcome.map_err(|e| e.message)?;
    count("trace.events", trace.events.len() as u64);
    let tree = span("trace.build_tree", || build_tree(module, &trace));
    count("trace.nodes", tree.len() as u64);
    Ok((outcome, trace, tree))
}

/// The root node plus each top-level call's In/Out line: what a user
/// sees of a run (the campaign's kill criterion).
fn interface_render(tree: &ExecTree) -> String {
    let mut out = tree.render_node(tree.root);
    for &c in &tree.node(tree.root).children {
        out.push('\n');
        out.push_str(&tree.render_node(c));
    }
    out
}

/// The golden (un-mutated) context of one subject.
pub struct Golden {
    /// Subject name.
    pub name: String,
    /// Parsed source, the mutation base.
    pub ast: Program,
    /// The golden program after Phase I (the oracle's reference).
    pub prepared: Prepared,
    /// Golden program output.
    pub output: String,
    /// Golden execution tree.
    pub tree: ExecTree,
    render: String,
    interface: String,
    /// The subject's input stream.
    pub input: Vec<Value>,
    /// Every mutation site.
    pub sites: Vec<MutationSite>,
}

/// Builds one subject's golden context, as `run_campaign` does (it
/// parses the source twice: once for the mutation base, once to compile).
pub fn golden(p: &CampaignProgram) -> Result<Golden, String> {
    span("golden", || {
        let ast = span("pascal.parse", || parse_program(&p.source)).map_err(|e| e.message)?;
        let module = compile(&p.source)?;
        let mut prepared = prepare(&module)?;
        recompile(&mut prepared);
        let (outcome, _trace, tree) = run_traced(&prepared, &p.input, Limits::default())?;
        let (render, interface) = span("trace.render", || {
            (tree.render(tree.root), interface_render(&tree))
        });
        let sites = span("mutate.sites", || enumerate_sites(&ast));
        Ok(Golden {
            name: p.name.clone(),
            ast,
            prepared,
            output: outcome.output_text().to_string(),
            tree,
            render,
            interface,
            input: p.input.clone(),
            sites,
        })
    })
}

/// Times every `judge` of the wrapped oracle as `core.oracle`.
struct TimedOracle<O>(O);

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        span("core.oracle", || self.0.judge(module, tree, node))
    }
    fn source_name(&self) -> &str {
        self.0.source_name()
    }
}

/// One debug session of a mutant against the golden oracle.
fn debug(
    g: &Golden,
    p: &Prepared,
    trace: &DynTrace,
    tree: &ExecTree,
    slicing: bool,
) -> DebugOutcome {
    let outcome = span("core.debug", || {
        let oracle = GoldenOracle::from_tree(&g.prepared.transformed.module, g.tree.clone());
        let mut chain = ChainOracle::new();
        chain.push(TimedOracle(oracle));
        Debugger::new(
            &p.transformed.module,
            trace,
            DebugConfig {
                strategy: Strategy::TopDown,
                slicing,
            },
        )
        .with_mapping(&p.transformed.mapping)
        .run_program(tree, &mut chain)
    });
    count("core.questions", outcome.total_queries() as u64);
    count("core.slices", outcome.slices_taken as u64);
    outcome
}

/// A killed mutant with its golden session: the verdict for each query
/// the debugger asks, and the unit it localizes.
#[derive(Debug, Clone)]
pub struct Killed {
    /// Printed mutant source.
    pub source: String,
    /// Input stream.
    pub input: Vec<Value>,
    /// Golden verdict per rendered query (slicing on, top-down).
    pub verdicts: BTreeMap<String, Answer>,
    /// Unit the golden session localizes.
    pub unit: String,
}

/// One mutant's status, plus its golden session when it is killed.
pub fn mutant(g: &Golden, site: &MutationSite) -> (MutantStatus, Option<Killed>) {
    count("campaign.mutants", 1);
    let stillborn = |reason: String| (MutantStatus::Stillborn { reason }, None);
    let Some(ast) = span("mutate.apply", || apply(&g.ast, site)) else {
        return stillborn("mutation site not found".into());
    };
    let source = span("pascal.print", || print_program(&ast));
    let module = match compile(&source) {
        Ok(m) => m,
        Err(reason) => return stillborn(reason),
    };
    let mut p = match prepare(&module) {
        Ok(p) => p,
        Err(reason) => return stillborn(reason),
    };
    recompile(&mut p);
    let limits = campaign_limits();
    let screened = span("vm.run_fast", || {
        let mut vm = Vm::new(&p.transformed.module, &p.vm);
        vm.set_limits(limits);
        vm.set_input(g.input.iter().cloned());
        vm.run()
    });
    if let Err(e) = screened {
        count("campaign.screened", 1);
        return (MutantStatus::Crashed { error: e.message }, None);
    }
    let (outcome, trace, tree) = match run_traced(&p, &g.input, limits) {
        Ok(r) => r,
        Err(error) => return (MutantStatus::Crashed { error }, None),
    };
    let observable = span("trace.render", || {
        outcome.output_text() != g.output || interface_render(&tree) != g.interface
    });
    if !observable {
        let diverged = span("trace.render", || tree.render(tree.root) != g.render);
        let status = if diverged {
            MutantStatus::Masked
        } else {
            MutantStatus::Equivalent
        };
        return (status, None);
    }
    let with = debug(g, &p, &trace, &tree, true);
    let without = debug(g, &p, &trace, &tree, false);
    let unit = match &with.result {
        DebugResult::BugLocalized { unit, .. } => unit.clone(),
        DebugResult::NoBugFound => g.name.clone(),
    };
    let blamed = unit.strip_prefix("loop in ").unwrap_or(&unit);
    let exact = blamed.eq_ignore_ascii_case(&site.unit);
    let (mut ev, mut st, mut ca) = (0, 0, 0);
    for s in &with.slice_stats {
        ev += s.events;
        st += s.stmts;
        ca += s.calls;
    }
    let killed = matches!(with.result, DebugResult::BugLocalized { .. }).then(|| Killed {
        source,
        input: g.input.clone(),
        verdicts: with
            .transcript
            .iter()
            .map(|t| (t.query.clone(), t.answer.clone()))
            .collect(),
        unit: unit.clone(),
    });
    let status = MutantStatus::Localized {
        unit,
        exact,
        questions_with_slicing: with.total_queries(),
        questions_without_slicing: without.total_queries(),
        slices_taken: with.slices_taken,
        slice_events: ev,
        slice_stmts: st,
        slice_calls: ca,
    };
    (status, killed)
}
