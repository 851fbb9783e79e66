//! The full GADT pipeline (§5, Figure 3): transformation → tracing →
//! debugging with assertions, test-case lookup, slicing, and a final
//! user-level oracle. Batch entry points ([`run_traced_batch`],
//! [`trace_batch`]) trace many inputs in parallel; the `*_observed`
//! variants additionally record spans and counters into a
//! [`gadt_obs::Recorder`], from whose journal the historical
//! [`PhaseTimings`] roll-up is derived.

use crate::debugger::{DebugConfig, DebugOutcome, Debugger};
use crate::oracle::ChainOracle;
use gadt_analysis::controldep::ProgramControlDeps;
use gadt_analysis::dyntrace::{DependenceRecorder, DynTrace};
use gadt_exec::BatchExecutor;
use gadt_obs::{Journal, Recorder};
use gadt_pascal::cfg::{lower, ProgramCfg};
use gadt_pascal::error::Result;
use gadt_pascal::interp::{Interpreter, Limits, Monitor, Outcome};
use gadt_pascal::sema::Module;
use gadt_pascal::value::Value;
use gadt_trace::{build_tree, ExecTree};
use gadt_transform::{transform_observed, Transformed};
use gadt_vm::{Vm, VmProgram};
use std::sync::{Arc, OnceLock};

/// The per-phase wall-clock roll-up, re-exported from `gadt-obs` where
/// it now lives (derive one from a journal via
/// [`gadt_obs::Journal::phase_timings`]).
pub use gadt_obs::PhaseTimings;

/// The execution-engine selector, re-exported from `gadt-vm` (select one
/// via [`PreparedProgram::with_engine`] or the facade's
/// `Compiled::with_engine`).
pub use gadt_vm::Engine;

/// Phase I output: the transformed program, ready for tracing.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// Transformed module plus construct mapping.
    pub transformed: Transformed,
    /// The transformed module's CFG, lowered once and shared by every
    /// run (including all batch workers — no per-run clone).
    pub cfg: Arc<ProgramCfg>,
    /// Which engine executes traced runs.
    engine: Engine,
    /// The compiled bytecode program, present iff `engine` is
    /// [`Engine::Vm`]. Compiled once, shared by every run (including all
    /// batch workers).
    vm: Option<Arc<VmProgram>>,
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
        if engine == self.engine {
            return self;
        }
        self.engine = engine;
        self.vm = match engine {
            Engine::TreeWalker => None,
            Engine::Vm => Some(Arc::new(VmProgram::compile(
                &self.transformed.module,
                &self.cfg,
            ))),
        };
        self
    }

    /// The selected execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
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
        let module = &self.transformed.module;
        match &self.vm {
            None => {
                let mut interp = Interpreter::with_shared_cfg(module, Arc::clone(&self.cfg));
                interp.set_limits(limits);
                interp.set_input(input);
                interp.run_with(monitor)
            }
            Some(program) => {
                let mut vm = Vm::new(module, program);
                vm.set_limits(limits);
                vm.set_input(input);
                vm.run_with(monitor)
            }
        }
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
        let module = &self.transformed.module;
        match &self.vm {
            None => {
                let mut interp = Interpreter::with_shared_cfg(module, Arc::clone(&self.cfg));
                interp.set_limits(limits);
                interp.set_input(input);
                interp.run_with(&mut gadt_pascal::interp::NoopMonitor)
            }
            Some(program) => {
                let mut vm = Vm::new(module, program);
                vm.set_limits(limits);
                vm.set_input(input);
                vm.run()
            }
        }
    }
}

/// Runs the transformation phase on a module.
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
    prepare_observed(module, &mut Recorder::disabled())
}

/// [`prepare`] with instrumentation: the transformation runs inside a
/// `transform` span with its round/growth counters (see
/// [`gadt_transform::transform_observed`]), so a later
/// [`gadt_obs::Journal::phase_timings`] attributes Phase I correctly.
///
/// # Errors
/// Same as [`prepare`].
pub fn prepare_observed(module: &Module, rec: &mut Recorder) -> Result<PreparedProgram> {
    let transformed = transform_observed(module, rec)?;
    let cfg = lower(&transformed.module);
    let prepared = PreparedProgram {
        transformed,
        cfg: Arc::new(cfg),
        engine: Engine::TreeWalker,
        vm: None,
        control_deps: OnceLock::new(),
    };
    // Select the workspace-wide default engine (the compiled VM); the
    // tree-walker remains available via `with_engine` as the
    // differential reference.
    Ok(prepared.with_engine(Engine::default()))
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
    /// Which engine produced this run (provenance: server responses echo
    /// it without re-deriving it from the prepared program).
    pub engine: Engine,
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
///
/// [`Limits`]: gadt_pascal::interp::Limits
pub fn run_traced_limited(
    prepared: &PreparedProgram,
    input: impl IntoIterator<Item = Value>,
    limits: gadt_pascal::interp::Limits,
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
        engine: prepared.engine(),
        limits,
    })
}

/// Monitor-free, limit-bounded run — the mutation campaign's kill-check
/// screen: only the outcome (output, step count, final globals) or the
/// runtime error is produced, with no trace, tree, or event stream. On
/// [`Engine::Vm`] the observation machinery is statically compiled out;
/// results are byte-identical to a monitored [`run_traced_limited`]
/// run's outcome on either engine.
///
/// # Errors
/// Propagates runtime errors of the subject program, including limit
/// exhaustion.
pub fn run_fast_limited(
    prepared: &PreparedProgram,
    input: impl IntoIterator<Item = Value>,
    limits: Limits,
) -> Result<Outcome> {
    prepared.execute_fast(input.into_iter().collect(), limits)
}

/// Runs the tracing phase on many inputs in parallel: each input gets
/// its own interpreter and dependence recorder on one of `threads`
/// workers (`0` = all cores). The control-dependence analysis is
/// computed once per prepared program, on its first traced run, and
/// shared by every later run and batch. Results come back in input
/// order and are identical to per-input [`run_traced`] calls.
///
/// # Errors
/// Propagates the runtime error of the lowest-indexed failing input —
/// the same error a sequential loop would surface first.
pub fn run_traced_batch(
    prepared: &PreparedProgram,
    inputs: Vec<Vec<Value>>,
    threads: usize,
) -> Result<Vec<TracedRun>> {
    run_traced_batch_observed(prepared, inputs, threads, &mut Recorder::disabled())
}

/// [`run_traced_batch`] with instrumentation: the batch runs inside a
/// `trace` span tagged with the input count; every input records its
/// trace sizes (`trace.runs`, `trace.events`, …) and execution-tree size
/// (`tree.nodes`) into a per-input recorder, merged back in input order
/// so the journal is thread-count invariant.
///
/// # Errors
/// Same as [`run_traced_batch`].
pub fn run_traced_batch_observed(
    prepared: &PreparedProgram,
    inputs: Vec<Vec<Value>>,
    threads: usize,
    rec: &mut Recorder,
) -> Result<Vec<TracedRun>> {
    let module = &prepared.transformed.module;
    let cd = prepared.control_deps();
    let pool = BatchExecutor::new(threads);
    let span = gadt_obs::span!(rec, "trace", inputs = inputs.len());
    let result = pool.try_run_observed(inputs, rec, |_, input, irec| {
        let mut drec = DependenceRecorder::new(cd);
        let outcome = prepared.execute(input, Limits::default(), &mut drec)?;
        let trace = drec.finish();
        let tree = build_tree(module, &trace);
        trace.observe(irec);
        tree.observe(irec);
        Ok(TracedRun {
            trace,
            tree,
            output: outcome.output_text().to_string(),
            engine: prepared.engine(),
            limits: Limits::default(),
        })
    });
    rec.exit(span);
    result
}

/// The result of a timed batch session: Phase I output, one traced run
/// per input, the observability journal of both phases, and the
/// per-phase timings derived from it.
#[derive(Debug)]
pub struct BatchTraced {
    /// Phase I output (shared by every run).
    pub prepared: PreparedProgram,
    /// One traced run per input, in input order.
    pub runs: Vec<TracedRun>,
    /// The structured journal of the transform and trace phases: spans,
    /// per-run trace/tree size counters, and transform round counts.
    pub journal: Journal,
    /// Wall-clock per phase, derived from `journal` (`debug` is zero;
    /// fill it via [`debug_timed`] when a debugging phase follows).
    pub timings: PhaseTimings,
}

/// Batch entry point: transforms `module` once, then traces every input
/// of the batch in parallel on `threads` workers (`0` = all cores),
/// recording per-phase wall-clock timings.
///
/// # Errors
/// Propagates transformation errors and the first (by input index)
/// runtime error.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, value::Value};
/// let m = compile(
///     "program t; var n, s, i: integer;
///      begin read(n); s := 0; for i := 1 to n do s := s + i; writeln(s) end.",
/// )?;
/// let inputs: Vec<Vec<Value>> = (1..=8).map(|n| vec![Value::Int(n)]).collect();
/// let batch = gadt::session::trace_batch(&m, inputs, 0)?;
/// assert_eq!(batch.runs.len(), 8);
/// assert_eq!(batch.runs[3].output, "10\n"); // 1+2+3+4
/// assert!(batch.timings.total() > std::time::Duration::ZERO);
/// assert_eq!(batch.journal.counter("trace.runs"), 8);
/// # Ok(())
/// # }
/// ```
pub fn trace_batch(
    module: &Module,
    inputs: Vec<Vec<Value>>,
    threads: usize,
) -> Result<BatchTraced> {
    let mut rec = Recorder::new();
    let prepared = prepare_observed(module, &mut rec)?;
    let runs = run_traced_batch_observed(&prepared, inputs, threads, &mut rec)?;
    let journal = rec.finish();
    let timings = journal.phase_timings();
    Ok(BatchTraced {
        prepared,
        runs,
        journal,
        timings,
    })
}

/// Like [`debug`] but also measures the phase's wall-clock, recording it
/// into `timings.debug` (accumulating across calls, so a batch of debug
/// sessions sums into one Phase III figure).
pub fn debug_timed(
    prepared: &PreparedProgram,
    run: &TracedRun,
    oracle: &mut ChainOracle<'_>,
    config: DebugConfig,
    timings: &mut PhaseTimings,
) -> DebugOutcome {
    let mut rec = Recorder::new();
    let outcome = debug_observed(prepared, run, oracle, config, &mut rec);
    timings.debug += rec.finish().phase_timings().debug;
    outcome
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
    debug_observed(prepared, run, oracle, config, &mut Recorder::disabled())
}

/// [`debug`] with instrumentation: the session runs inside a `debug`
/// span (tagged with the slicing setting), and every question lands in
/// the journal as a `question` point event with `unit`/`source`/`answer`
/// fields plus the counters `debug.questions` and
/// `debug.questions.by_source.<slug>`; every accepted prune adds a
/// `slice` event and `debug.slices`.
pub fn debug_observed(
    prepared: &PreparedProgram,
    run: &TracedRun,
    oracle: &mut ChainOracle<'_>,
    config: DebugConfig,
    rec: &mut Recorder,
) -> DebugOutcome {
    debug_observed_with_probe(prepared, run, oracle, config, None, rec)
}

/// [`debug_observed`] with an optional pooled-knowledge probe for
/// knowledge-aware traversal strategies (see
/// [`crate::strategy::AnswerProbe`]): the probe weighs nodes during
/// question selection without consuming oracle turns.
pub fn debug_observed_with_probe(
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
    use super::*;
    use crate::debugger::DebugResult;
    use crate::oracle::{CountingOracle, ReferenceOracle};
    use gadt_pascal::sema::compile;
    use std::time::Duration;

    const SUMMER: &str = "program t; var n, s, i: integer;
         begin read(n); s := 0; for i := 1 to n do s := s + i; writeln(s) end.";

    #[test]
    fn batch_tracing_equals_sequential_tracing() {
        let m = compile(SUMMER).unwrap();
        let prepared = prepare(&m).unwrap();
        let inputs: Vec<Vec<Value>> = (1..=6).map(|n| vec![Value::Int(n)]).collect();
        let sequential: Vec<TracedRun> = inputs
            .iter()
            .map(|i| run_traced(&prepared, i.clone()).unwrap())
            .collect();
        for threads in [1, 2, 8] {
            let batch = run_traced_batch(&prepared, inputs.clone(), threads).unwrap();
            assert_eq!(batch.len(), sequential.len());
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(b.output, s.output, "threads={threads}");
                assert_eq!(b.trace.events.len(), s.trace.events.len());
                assert_eq!(b.tree.render(b.tree.root), s.tree.render(s.tree.root));
            }
        }
    }

    /// A prepared program computes its control dependences on its first
    /// traced run and reuses them: every later run, through any entry
    /// point or engine, traces exactly what a fresh preparation does.
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
                same(&run_traced_batch(&warm, vec![input.clone(); 2], 2).unwrap()[1]);
            }
            let tree = warm.clone().with_engine(Engine::TreeWalker);
            same(&run_traced(&tree, input.clone()).unwrap());
        }
    }

    #[test]
    fn batch_error_is_the_first_inputs_error() {
        // Input 2 underflows the read; inputs after it would too.
        let m = compile(SUMMER).unwrap();
        let prepared = prepare(&m).unwrap();
        let inputs = vec![vec![Value::Int(1)], vec![], vec![]];
        let err = run_traced_batch(&prepared, inputs, 4).unwrap_err();
        let seq_err = run_traced(&prepared, []).unwrap_err();
        assert_eq!(format!("{err}"), format!("{seq_err}"));
    }

    #[test]
    fn trace_batch_records_phase_timings_and_journal() {
        let m = compile(SUMMER).unwrap();
        let inputs: Vec<Vec<Value>> = (1..=4).map(|n| vec![Value::Int(n)]).collect();
        let batch = trace_batch(&m, inputs, 2).unwrap();
        assert_eq!(batch.runs.len(), 4);
        assert_eq!(batch.runs[2].output, "6\n");
        assert!(batch.timings.trace > Duration::ZERO);
        assert_eq!(batch.timings.debug, Duration::ZERO);
        assert_eq!(
            batch.timings.total(),
            batch.timings.transform + batch.timings.trace
        );
        let rendered = format!("{}", batch.timings);
        assert!(rendered.contains("transform"), "{rendered}");
        // The journal carries the structured view of the same phases.
        assert_eq!(batch.journal.counter("trace.runs"), 4);
        assert_eq!(
            batch.journal.counter("tree.built"),
            4,
            "{}",
            batch.journal.render_summary()
        );
        assert!(batch.journal.counter("trace.events") > 0);
        assert_eq!(batch.journal.phase_timings(), batch.timings);
    }

    #[test]
    fn traced_runs_echo_engine_and_limits_provenance() {
        let m = compile(SUMMER).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, vec![Value::Int(3)]).unwrap();
        assert_eq!(run.engine, prepared.engine());
        assert_eq!(run.limits.max_steps, Limits::default().max_steps);

        let tight = Limits {
            max_steps: 1_000,
            max_depth: 32,
        };
        let limited = run_traced_limited(&prepared, vec![Value::Int(3)], tight).unwrap();
        assert_eq!(limited.limits.max_steps, 1_000);
        assert_eq!(limited.limits.max_depth, 32);

        let tree = prepared.clone().with_engine(Engine::TreeWalker);
        let batch = run_traced_batch(&tree, vec![vec![Value::Int(2)]], 1).unwrap();
        assert_eq!(batch[0].engine, Engine::TreeWalker);
    }

    #[test]
    fn selecting_the_current_engine_keeps_its_compiled_program() {
        let prepared = prepare(&compile(SUMMER).unwrap()).unwrap();
        assert_eq!(prepared.engine(), Engine::Vm);
        let compiled = Arc::clone(prepared.vm.as_ref().unwrap());
        let same = prepared.with_engine(Engine::Vm);
        assert!(Arc::ptr_eq(&compiled, same.vm.as_ref().unwrap()));

        // A real switch still recompiles.
        let back = same.with_engine(Engine::TreeWalker).with_engine(Engine::Vm);
        assert!(!Arc::ptr_eq(&compiled, back.vm.as_ref().unwrap()));
        assert_eq!(
            run_traced(&back, vec![Value::Int(3)]).unwrap().output,
            "6\n"
        );
    }

    #[test]
    fn debug_timed_accumulates_phase3_time() {
        let buggy = compile(
            "program t; var r: integer;
             function sq(x: integer): integer; begin sq := x * x + 1 end;
             begin r := sq(6); writeln(r) end.",
        )
        .unwrap();
        let fixed = compile(
            "program t; var r: integer;
             function sq(x: integer): integer; begin sq := x * x end;
             begin r := sq(6); writeln(r) end.",
        )
        .unwrap();
        let batch = trace_batch(&buggy, vec![vec![]], 1).unwrap();
        let mut timings = batch.timings;
        let mut chain = ChainOracle::new();
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        let out = debug_timed(
            &batch.prepared,
            &batch.runs[0],
            &mut chain,
            DebugConfig::default(),
            &mut timings,
        );
        assert!(matches!(out.result, DebugResult::BugLocalized { ref unit, .. } if unit == "sq"));
        assert!(timings.debug > Duration::ZERO);
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

/// One-call convenience: debug `buggy_source` against `fixed_source` (the
/// reference implementation standing in for the user), with slicing
/// enabled and no test database.
///
/// # Errors
/// Propagates compile, transformation, and runtime errors of either
/// program.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt::debugger::DebugResult;
/// let outcome = gadt::session::quick_debug(
///     "program t; var r: integer;
///      function sq(x: integer): integer; begin sq := x * x + 1 end;
///      begin r := sq(6); writeln(r) end.",
///     "program t; var r: integer;
///      function sq(x: integer): integer; begin sq := x * x end;
///      begin r := sq(6); writeln(r) end.",
///     [],
/// )?;
/// assert!(matches!(outcome.result,
///     DebugResult::BugLocalized { ref unit, .. } if unit == "sq"));
/// # Ok(())
/// # }
/// ```
pub fn quick_debug(
    buggy_source: &str,
    fixed_source: &str,
    input: impl IntoIterator<Item = Value> + Clone,
) -> Result<DebugOutcome> {
    let buggy = gadt_pascal::sema::compile(buggy_source)?;
    let fixed = gadt_pascal::sema::compile(fixed_source)?;
    let prepared = prepare(&buggy)?;
    let run = run_traced(&prepared, input.clone())?;
    let mut chain = ChainOracle::new();
    chain.push(crate::oracle::CountingOracle::new(
        crate::oracle::ReferenceOracle::new(&fixed, input)?,
    ));
    Ok(debug(&prepared, &run, &mut chain, DebugConfig::default()))
}
