//! The full GADT pipeline (§5, Figure 3): transformation → tracing →
//! debugging with assertions, test-case lookup, slicing, and a final
//! user-level oracle.
//!
//! Each phase has one body, which takes every knob explicitly:
//! [`prepare_observed`], [`run_traced_limited`] and [`debug_observed`].
//! [`prepare`], [`run_traced`] and [`debug`] are shorthands that pass
//! the defaults: no journal, default [`Limits`], no answer probe.
//! [`run_traced_batch`] traces many inputs in parallel through
//! [`run_traced`]. A journal's [`PhaseTimings`] roll-up gives each
//! phase's wall-clock time.
//!
//! For a whole pipeline in one expression (compile, transform, trace a
//! batch, debug, with one journal and an optional store) use the
//! `gadt-repro` facade, `Gadt::compile(src)?.transform()?.trace(inputs)?`.

use crate::debugger::{DebugConfig, DebugOutcome, Debugger};
use crate::oracle::ChainOracle;
use gadt_analysis::controldep::ProgramControlDeps;
use gadt_analysis::dyntrace::{DependenceRecorder, DynTrace};
use gadt_exec::BatchExecutor;
use gadt_obs::Recorder;
use gadt_pascal::cfg::{lower, ProgramCfg};
use gadt_pascal::error::Result;
use gadt_pascal::interp::{Limits, Monitor, Outcome};
use gadt_pascal::sema::Module;
use gadt_pascal::value::Value;
use gadt_trace::{build_tree, ExecTree};
use gadt_transform::{transform_observed, Transformed};
use gadt_vm::PreparedEngine;
use std::sync::{Arc, OnceLock};

/// The per-phase wall-clock roll-up, re-exported from `gadt-obs` where
/// it now lives (derive one from a journal via
/// [`gadt_obs::Journal::phase_timings`]).
pub use gadt_obs::PhaseTimings;

/// The execution-engine selector, re-exported from `gadt-vm` (select one
/// via [`PreparedProgram::with_engine`]).
pub use gadt_vm::Engine;

/// Phase I output: the transformed program, ready for tracing.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// Transformed module plus construct mapping.
    pub transformed: Transformed,
    /// The transformed module's CFG, lowered once and shared by every
    /// run (including all batch workers — no per-run clone).
    pub cfg: Arc<ProgramCfg>,
    /// The engine every run executes on, prepared once and shared by
    /// every run (including all batch workers).
    engine: PreparedEngine,
    /// The transformed module's control dependences, computed on the
    /// first traced run and reused by every later one.
    control_deps: OnceLock<ProgramControlDeps>,
}

impl PreparedProgram {
    /// Selects the execution engine for every later traced run. For
    /// [`Engine::Vm`] this compiles the transformed CFG to bytecode once;
    /// the program is shared by all subsequent (and parallel) runs.
    /// Selecting the engine already selected returns `self` unchanged,
    /// so its compiled program is kept rather than built again.
    /// Traces, slices, and journals are byte-identical across engines.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        if engine != self.engine.engine() {
            self.engine = PreparedEngine::new(&self.transformed.module, &self.cfg, engine);
        }
        self
    }

    /// The selected execution engine.
    pub fn engine(&self) -> Engine {
        self.engine.engine()
    }

    /// The transformed module's control dependences, which every traced
    /// run records against: computed on the first call, then shared.
    fn control_deps(&self) -> &ProgramControlDeps {
        self.control_deps
            .get_or_init(|| ProgramControlDeps::compute(&self.transformed.module, &self.cfg))
    }

    /// Runs the transformed program on the selected engine.
    ///
    /// # Errors
    /// Propagates runtime errors of the subject program (identical
    /// across engines, message and span).
    pub fn execute(
        &self,
        input: Vec<Value>,
        limits: Limits,
        monitor: &mut dyn Monitor,
    ) -> Result<Outcome> {
        self.engine
            .run_with(&self.transformed.module, input, limits, monitor)
    }

    /// Monitor-free run: identical output, step count, final globals,
    /// and errors to [`PreparedProgram::execute`] with a no-op monitor,
    /// but on [`Engine::Vm`] all event construction and read/write-set
    /// bookkeeping is statically compiled out. This is the kill-check /
    /// verdict-only entry point.
    ///
    /// # Errors
    /// Same conditions as [`PreparedProgram::execute`].
    pub fn execute_fast(&self, input: Vec<Value>, limits: Limits) -> Result<Outcome> {
        self.engine
            .run_fast(&self.transformed.module, input, limits)
    }
}

/// Runs the transformation phase on a copy of a module; a caller that
/// is done with its module should move it into [`prepare_observed`].
///
/// # Errors
/// Propagates transformation errors (see
/// [`gadt_transform::transform`]).
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt::session::prepare;
/// use gadt_pascal::{sema::compile, testprogs};
/// let m = compile(testprogs::SQRTEST)?;
/// let prepared = prepare(&m)?;
/// assert!(prepared.transformed.mapping.added_params.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn prepare(module: &Module) -> Result<PreparedProgram> {
    prepare_observed(module.clone(), &mut Recorder::disabled())
}

/// [`prepare`] on a module it consumes, with instrumentation: the
/// transformation rewrites the module's own program (see
/// [`gadt_transform::transform_observed`]) inside a `transform` span
/// with its round/growth counters, so a later
/// [`gadt_obs::Journal::phase_timings`] attributes Phase I correctly.
///
/// # Errors
/// Same as [`prepare`].
pub fn prepare_observed(module: Module, rec: &mut Recorder) -> Result<PreparedProgram> {
    let transformed = transform_observed(module, rec)?;
    let cfg = Arc::new(lower(&transformed.module));
    // The workspace-wide default engine (the compiled VM); the
    // tree-walker remains available via `with_engine` as the
    // differential reference.
    let engine = PreparedEngine::new(&transformed.module, &cfg, Engine::default());
    Ok(PreparedProgram {
        transformed,
        cfg,
        engine,
        control_deps: OnceLock::new(),
    })
}

/// Phase II output: the traced execution.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The dynamic trace (dependences + call records).
    pub trace: DynTrace,
    /// The execution tree built from it.
    pub tree: ExecTree,
    /// The program's captured output.
    pub output: String,
    /// The interpreter limits the run executed under.
    pub limits: Limits,
}

/// Runs the tracing phase: executes the transformed program on `input`,
/// recording the dynamic trace and building the execution tree (§5.2).
///
/// # Errors
/// Propagates runtime errors of the subject program.
pub fn run_traced(
    prepared: &PreparedProgram,
    input: impl IntoIterator<Item = Value>,
) -> Result<TracedRun> {
    run_traced_limited(prepared, input, Limits::default())
}

/// Like [`run_traced`] but with interpreter [`Limits`] — the mutation
/// harness's entry point: injected faults routinely produce runaway loops
/// or unbounded recursion, and a step budget turns those into clean
/// runtime errors (classified as *crashed* mutants) instead of hangs.
///
/// # Errors
/// Propagates runtime errors of the subject program, including limit
/// exhaustion.
pub fn run_traced_limited(
    prepared: &PreparedProgram,
    input: impl IntoIterator<Item = Value>,
    limits: Limits,
) -> Result<TracedRun> {
    let module = &prepared.transformed.module;
    let mut rec = DependenceRecorder::new(prepared.control_deps());
    let outcome = prepared.execute(input.into_iter().collect(), limits, &mut rec)?;
    let trace = rec.finish();
    let tree = build_tree(module, &trace);
    Ok(TracedRun {
        trace,
        tree,
        output: outcome.output_text().to_string(),
        limits,
    })
}

/// Runs the tracing phase on many inputs in parallel: each input goes
/// through [`run_traced`] on one of `threads` workers (`0` = all cores).
/// The control-dependence analysis is computed once per prepared
/// program, on its first traced run, and shared by every later run and
/// batch. Results come back in input order and are identical to
/// per-input [`run_traced`] calls.
///
/// The batch runs inside a `trace` span tagged with the input count.
/// Once the pool returns, every successful run's trace sizes
/// (`trace.runs`, `trace.events`, …) and execution-tree size
/// (`tree.nodes`) are recorded in input order, so the journal is the
/// same at any thread count.
///
/// # Errors
/// Propagates the runtime error of the lowest-indexed failing input —
/// the same error a sequential loop would surface first.
pub fn run_traced_batch(
    prepared: &PreparedProgram,
    inputs: Vec<Vec<Value>>,
    threads: usize,
    rec: &mut Recorder,
) -> Result<Vec<TracedRun>> {
    let span = gadt_obs::span!(rec, "trace", inputs = inputs.len());
    let runs = BatchExecutor::new(threads).run(inputs, |_, input| run_traced(prepared, input));
    for run in runs.iter().flatten() {
        run.trace.observe(rec);
        run.tree.observe(rec);
    }
    rec.exit(span);
    runs.into_iter().collect()
}

/// Phase III: debugs a traced run with the given oracle chain.
///
/// The chain should be ordered as the paper prescribes (§5.3.1):
/// assertions, then test-case lookup, then the user-level oracle
/// (interactive or simulated), typically wrapped in a
/// [`crate::oracle::CountingOracle`] to measure interactions.
pub fn debug(
    prepared: &PreparedProgram,
    run: &TracedRun,
    oracle: &mut ChainOracle<'_>,
    config: DebugConfig,
) -> DebugOutcome {
    debug_observed(
        prepared,
        run,
        oracle,
        config,
        None,
        &mut Recorder::disabled(),
    )
}

/// [`debug`] with an optional answer probe and instrumentation.
///
/// The probe feeds pooled knowledge to knowledge-aware traversal
/// strategies (see [`crate::strategy::AnswerProbe`]): it weighs nodes
/// during question selection without consuming oracle turns.
///
/// The session runs inside a `debug` span (tagged with the slicing
/// setting), and every question lands in the journal as a `question`
/// point event with `unit`/`source`/`answer` fields plus the counters
/// `debug.questions` and `debug.questions.by_source.<slug>`; every
/// accepted prune adds a `slice` event and `debug.slices`.
pub fn debug_observed(
    prepared: &PreparedProgram,
    run: &TracedRun,
    oracle: &mut ChainOracle<'_>,
    config: DebugConfig,
    probe: Option<Box<dyn crate::strategy::AnswerProbe>>,
    rec: &mut Recorder,
) -> DebugOutcome {
    let span = gadt_obs::span!(rec, "debug", slicing = config.slicing);
    let outcome = {
        let mut dbg = Debugger::new(&prepared.transformed.module, &run.trace, config)
            .with_mapping(&prepared.transformed.mapping)
            .with_obs(rec);
        if let Some(p) = probe {
            dbg = dbg.with_probe(p);
        }
        dbg.run_program(&run.tree, oracle)
    };
    rec.exit(span);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debugger::DebugResult;
    use crate::oracle::{CountingOracle, ReferenceOracle};
    use crate::testlookup::TestLookup;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;
    use gadt_tgen::{cases, frames, spec};

    /// The paper's §8 session, end to end: the full GADT system on
    /// sqrtest with the arrsum test database installed.
    #[test]
    fn paper_section8_session() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();

        // Build the arrsum test database (§5.3.2).
        let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
        let g = frames::generate_frames(&s, Default::default());
        let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
        let db =
            cases::run_cases(&m, "arrsum", &tc, &|ins, r| cases::arrsum_oracle(ins, r)).unwrap();
        let mut lookup = TestLookup::new();
        lookup.register("arrsum", db, Box::new(cases::arrsum_frame_selector));

        let mut chain = ChainOracle::new();
        chain.push(lookup);
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));

        let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
        let DebugResult::BugLocalized { unit, .. } = &out.result else {
            panic!("{}", out.render_transcript());
        };
        assert_eq!(unit, "decrement");
        assert_eq!(out.slices_taken, 2);
        // The arrsum query was answered by the test database, not the
        // user: 7 queries total, 6 from the simulated user.
        assert_eq!(out.total_queries(), 7, "{}", out.render_transcript());
        let arrsum_entry = out
            .transcript
            .iter()
            .find(|t| t.unit == "arrsum")
            .expect("arrsum was queried");
        assert_eq!(arrsum_entry.source, "test database");
        assert_eq!(
            out.queries_from("reference"),
            6,
            "{}",
            out.render_transcript()
        );
    }

    #[test]
    fn session_on_program_needing_transformation() {
        // A buggy program with global side effects: the pipeline must
        // transform, trace, and localize.
        let src = "program t; var total: integer;
             procedure addsq(k: integer);
             begin total := total + k * k + 1 end; (* bug: + 1 *)
             procedure run3;
             begin addsq(1); addsq(2); addsq(3) end;
             begin total := 0; run3; writeln(total) end.";
        let fixed_src = src.replace("k * k + 1", "k * k");
        let m = compile(src).unwrap();
        let fixed = compile(&fixed_src).unwrap();
        let prepared = prepare(&m).unwrap();
        // The transformed program exposes `total` as a parameter.
        assert!(!prepared.transformed.mapping.added_params.is_empty());
        let run = run_traced(&prepared, []).unwrap();
        assert_eq!(run.output, "17\n"); // 0+2+5+10

        // Reference oracle over the *transformed* fixed program, so the
        // In/Out shapes match.
        let fixed_prepared = prepare(&fixed).unwrap();
        let mut chain = ChainOracle::new();
        chain.push(ReferenceOracle::new(&fixed_prepared.transformed.module, []).unwrap());
        // Keep the transformed reference module alive for the oracle.
        let out = {
            let mut chain2 = ChainOracle::new();
            let r = ReferenceOracle::new(&fixed_prepared.transformed.module, []).unwrap();
            chain2.push(r);
            debug(&prepared, &run, &mut chain2, DebugConfig::default())
        };
        let DebugResult::BugLocalized { unit, .. } = &out.result else {
            panic!("{}", out.render_transcript());
        };
        assert_eq!(unit, "addsq", "{}", out.render_transcript());
    }

    #[test]
    fn traced_run_output_matches_plain_run() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();
        assert_eq!(run.output, "1001\n");
    }

    #[test]
    fn exit_parameters_visible_in_tree_after_transformation() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();
        let tm = &prepared.transformed.module;
        let q = run.tree.find_call(tm, "q").unwrap();
        let rendering = run.tree.render_node(q);
        // q's exit condition (the §6.1 "non-local goto result") is an Out
        // value of the call.
        assert!(rendering.contains("exitcond_q: 1"), "{rendering}");
    }
}

#[cfg(test)]
mod batch_session_tests {
    // Batch tracing against sequential tracing, the lowest-indexed error
    // and the journal of a failing batch are pinned in
    // `tests/parallel_determinism.rs`.
    use super::*;
    use gadt_pascal::sema::compile;
    use std::time::Duration;

    const SUMMER: &str = "program t; var n, s, i: integer;
         begin read(n); s := 0; for i := 1 to n do s := s + i; writeln(s) end.";

    #[test]
    fn repeated_traced_runs_match_a_fresh_preparation() {
        for (src, input) in [
            (SUMMER, vec![Value::Int(4)]),
            (gadt_pascal::testprogs::SQRTEST, vec![]),
        ] {
            let m = compile(src).unwrap();
            let warm = prepare(&m).unwrap();
            let fresh = run_traced(&prepare(&m).unwrap(), input.clone()).unwrap();
            let same = |run: &TracedRun| {
                assert_eq!(format!("{:?}", run.trace), format!("{:?}", fresh.trace));
                assert_eq!(format!("{:?}", run.tree), format!("{:?}", fresh.tree));
                assert_eq!(run.output, fresh.output);
            };
            for _ in 0..3 {
                same(&run_traced_limited(&warm, input.clone(), Limits::default()).unwrap());
                let batch =
                    run_traced_batch(&warm, vec![input.clone(); 2], 2, &mut Recorder::disabled());
                same(&batch.unwrap()[1]);
            }
            let tree = warm.clone().with_engine(Engine::TreeWalker);
            same(&run_traced(&tree, input.clone()).unwrap());
        }
    }

    #[test]
    fn batch_journal_gives_counters_and_phase_timings() {
        let m = compile(SUMMER).unwrap();
        let inputs: Vec<Vec<Value>> = (1..=4).map(|n| vec![Value::Int(n)]).collect();
        let mut rec = Recorder::new();
        let prepared = prepare_observed(m, &mut rec).unwrap();
        let runs = run_traced_batch(&prepared, inputs, 2, &mut rec).unwrap();
        assert_eq!(runs[2].output, "6\n");
        let journal = rec.finish();
        assert_eq!(journal.counter("trace.runs"), 4);
        assert_eq!(journal.counter("tree.built"), 4);
        assert!(journal.counter("trace.events") > 0);
        let timings = journal.phase_timings();
        assert!(timings.trace > Duration::ZERO);
        assert_eq!(timings.debug, Duration::ZERO);
        assert_eq!(timings.total(), timings.transform + timings.trace);
    }

    #[test]
    fn traced_runs_echo_their_limits() {
        let m = compile(SUMMER).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, vec![Value::Int(3)]).unwrap();
        assert_eq!(run.limits.max_steps, Limits::default().max_steps);

        let tight = Limits {
            max_steps: 1_000,
            max_depth: 32,
        };
        let limited = run_traced_limited(&prepared, vec![Value::Int(3)], tight).unwrap();
        assert_eq!(limited.limits.max_steps, 1_000);
        assert_eq!(limited.limits.max_depth, 32);
    }

    #[test]
    fn selecting_the_current_engine_keeps_its_compiled_program() {
        let vm = |p: &PreparedProgram| match &p.engine {
            PreparedEngine::Vm(program) => Arc::clone(program),
            PreparedEngine::TreeWalker(_) => panic!("not on the VM"),
        };
        let prepared = prepare(&compile(SUMMER).unwrap()).unwrap();
        assert_eq!(prepared.engine(), Engine::Vm);
        let compiled = vm(&prepared);
        let same = prepared.with_engine(Engine::Vm);
        assert!(Arc::ptr_eq(&compiled, &vm(&same)));

        // A real switch still recompiles.
        let back = same.with_engine(Engine::TreeWalker).with_engine(Engine::Vm);
        assert!(!Arc::ptr_eq(&compiled, &vm(&back)));
        assert_eq!(
            run_traced(&back, vec![Value::Int(3)]).unwrap().output,
            "6\n"
        );
    }
}

#[cfg(test)]
mod transparency_session_tests {
    use super::*;
    use crate::debugger::DebugConfig;
    use crate::oracle::{Answer, ChainOracle, FnOracle};
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    /// §6.1: session transcripts over a transformed program present the
    /// original constructs — globals as globals, exit parameters as
    /// non-local-goto questions.
    #[test]
    fn session_transcripts_are_transparent() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();
        let mut chain = ChainOracle::new();
        // Everything "incorrect" so the traversal visits q and records it.
        chain.push(FnOracle::new("probe", |_m: &Module, _t: &ExecTree, _n| {
            Answer::Incorrect { wrong_output: None }
        }));
        let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
        let q_entry = out
            .transcript
            .iter()
            .find(|t| t.unit == "q")
            .expect("q queried");
        assert!(
            q_entry
                .query
                .contains("performs the non-local goto to label 9"),
            "{}",
            q_entry.query
        );
        assert!(!q_entry.query.contains("exitcond"), "{}", q_entry.query);
    }
}
