//! The one-import pipeline facade.
//!
//! [`Gadt`] chains the pipeline's phases as a typestate builder —
//! compile → transform → trace → debug — wrapping the free functions of
//! [`gadt::session`] and threading one observability
//! [`gadt_obs::Recorder`] through every phase, so a finished
//! chain hands back both the debugging outcome and the structured
//! journal of everything that happened:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gadt_repro::{Gadt, testprogs, DebugResult};
//! use gadt_repro::debugging::oracle::{ChainOracle, ReferenceOracle};
//!
//! let fixed = gadt_repro::pascal::sema::compile(testprogs::SQRTEST_FIXED)?;
//! let mut oracle = ChainOracle::new();
//! oracle.push(ReferenceOracle::new(&fixed, [])?);
//!
//! let session = Gadt::compile(testprogs::SQRTEST)?
//!     .transform()?
//!     .trace(vec![vec![]])?
//!     .debug(&mut oracle)?;
//!
//! assert!(matches!(session.outcome.result,
//!     DebugResult::BugLocalized { ref unit, .. } if unit == "decrement"));
//! assert_eq!(session.journal.counter("debug.questions"),
//!            session.outcome.total_queries() as u64);
//! # Ok(())
//! # }
//! ```

use gadt::debugger::{DebugConfig, DebugOutcome, Strategy};
use gadt::error::{Error, Phase, Result};
use gadt::handle::DebugHandle;
use gadt::oracle::ChainOracle;
use gadt::session::{self, PreparedProgram, TracedRun};
use gadt::stored::{StoreProbe, StoredKnowledgeOracle};
use gadt::strategy::AnswerProbe;
use gadt_obs::{Journal, Recorder};
use gadt_pascal::sema::Module;
use gadt_pascal::value::Value;
use gadt_store::{KnowledgeStore, SharedStore};
use std::path::Path;

/// Entry point of the facade: start a pipeline with [`Gadt::compile`].
#[derive(Debug)]
pub struct Gadt;

impl Gadt {
    /// Compiles Pascal source, yielding the first pipeline stage.
    ///
    /// # Errors
    /// A [`Phase::Compile`] error on lex/parse/type failures.
    pub fn compile(source: &str) -> Result<Compiled> {
        let module = gadt_pascal::sema::compile(source).map_err(Error::from)?;
        Ok(Compiled {
            module,
            threads: 0,
            strategy: Strategy::default(),
            rec: Recorder::new(),
            store: None,
        })
    }

    /// Starts the pipeline from an already-compiled module.
    pub fn from_module(module: Module) -> Compiled {
        Compiled {
            module,
            threads: 0,
            strategy: Strategy::default(),
            rec: Recorder::new(),
            store: None,
        }
    }
}

/// A compiled program, ready for the §6 transformation.
#[derive(Debug)]
pub struct Compiled {
    /// The compiled module.
    pub module: Module,
    threads: usize,
    strategy: Strategy,
    rec: Recorder,
    store: Option<SharedStore>,
}

impl Compiled {
    /// Sets the worker-thread count used by later batch phases
    /// (`0` = all cores, the default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the traversal strategy the debug phase uses when no
    /// explicit [`DebugConfig`] is passed (the default is
    /// [`Strategy::TopDown`], the paper's traversal). With
    /// [`Strategy::KnowledgeWeighted`] and an attached store, question
    /// selection weighs store-answerable nodes as free.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a persistent knowledge store at `path` (created if
    /// absent, recovered if a previous session crashed). The debug phase
    /// then answers queries from stored knowledge before consulting any
    /// live oracle, persists every new definite answer, and journals
    /// `store.hits` / `store.misses` / `store.recovered_lines`.
    ///
    /// # Errors
    /// A [`Phase::Store`] error when the store cannot be opened.
    pub fn with_store(mut self, path: impl AsRef<Path>) -> Result<Self> {
        let store = KnowledgeStore::open(path.as_ref()).map_err(|e| {
            Error::new(
                Phase::Store,
                format!(
                    "cannot open knowledge store {}: {e}",
                    path.as_ref().display()
                ),
            )
        })?;
        self.store = Some(store.into_shared());
        Ok(self)
    }

    /// Attaches an already-open shared store handle — the caller keeps a
    /// clone, e.g. to persist a `TestDb` into the same store.
    #[must_use]
    pub fn with_shared_store(mut self, store: SharedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Phase I: removes global side effects and non-local gotos,
    /// journaling round and growth counters under a `transform` span.
    ///
    /// # Errors
    /// A [`Phase::Transform`] error when a transformation fails or does
    /// not converge.
    pub fn transform(mut self) -> Result<Prepared> {
        let prepared = session::prepare_observed(self.module.clone(), &mut self.rec)
            .map_err(|e| Error::from_diagnostic(Phase::Transform, e))?;
        Ok(Prepared {
            module: self.module,
            prepared,
            threads: self.threads,
            strategy: self.strategy,
            rec: self.rec,
            store: self.store,
        })
    }
}

/// A transformed program, ready for traced execution.
#[derive(Debug)]
pub struct Prepared {
    /// The original (untransformed) module.
    pub module: Module,
    /// Phase I output: transformed module, mapping, CFG.
    pub prepared: PreparedProgram,
    threads: usize,
    strategy: Strategy,
    rec: Recorder,
    store: Option<SharedStore>,
}

impl Prepared {
    /// Phase II: traces every input of the batch in parallel on the
    /// [`Compiled::with_threads`] workers (input order preserved; the
    /// journal is thread-count invariant). The batch's wall-clock time is
    /// the journal's `phase_timings().trace`.
    ///
    /// # Errors
    /// A [`Phase::Trace`] error from the lowest-indexed failing input.
    pub fn trace(mut self, inputs: Vec<Vec<Value>>) -> Result<Traced> {
        let runs = session::run_traced_batch(&self.prepared, inputs, self.threads, &mut self.rec)
            .map_err(Error::from)?;
        Ok(Traced {
            prepared: self.prepared,
            runs,
            strategy: self.strategy,
            rec: self.rec,
            store: self.store,
        })
    }
}

/// Traced executions, ready for debugging.
#[derive(Debug)]
pub struct Traced {
    /// Phase I output (shared by every run).
    pub prepared: PreparedProgram,
    /// One traced run per input, in input order.
    pub runs: Vec<TracedRun>,
    strategy: Strategy,
    rec: Recorder,
    store: Option<SharedStore>,
}

impl Traced {
    /// Phase III: debugs the first traced run with the chain's selected
    /// strategy ([`Compiled::with_strategy`], default top-down) and
    /// slicing on.
    ///
    /// # Errors
    /// A [`Phase::Debug`] error when the chain holds no traced runs.
    pub fn debug(self, oracle: &mut ChainOracle<'_>) -> Result<Session> {
        let config = DebugConfig {
            strategy: self.strategy,
            ..DebugConfig::default()
        };
        self.debug_run(0, oracle, config)
    }

    /// Phase III on a chosen run and configuration.
    ///
    /// # Errors
    /// A [`Phase::Debug`] error when `index` is out of range.
    pub fn debug_run(
        mut self,
        index: usize,
        oracle: &mut ChainOracle<'_>,
        config: DebugConfig,
    ) -> Result<Session> {
        let run = self.runs.get(index).ok_or_else(|| {
            Error::new(
                Phase::Debug,
                format!(
                    "no traced run at index {index} ({} available)",
                    self.runs.len()
                ),
            )
        })?;
        let mut probe: Option<Box<dyn AnswerProbe>> = None;
        if let Some(store) = &self.store {
            // Stored knowledge answers first; every new definite answer
            // is persisted for the next session.
            oracle.push_front(StoredKnowledgeOracle::new(store.clone()));
            oracle.persist_answers_to(store.clone());
            if config.strategy == Strategy::KnowledgeWeighted {
                // Weight questions by what the store can already answer;
                // the probe reads without moving hit/miss counters.
                probe = Some(Box::new(StoreProbe::new(store.clone())));
            }
        }
        let outcome =
            session::debug_observed(&self.prepared, run, oracle, config, probe, &mut self.rec);
        if let Some(store) = &self.store {
            if let Some(e) = oracle.take_persist_error() {
                return Err(Error::new(
                    Phase::Store,
                    format!("persisting oracle answers failed: {e}"),
                ));
            }
            let mut guard = store.lock().expect("store mutex poisoned");
            guard.sync().map_err(|e| {
                Error::new(Phase::Store, format!("knowledge store sync failed: {e}"))
            })?;
            self.rec.add("store.hits", guard.answer_hits());
            self.rec.add("store.misses", guard.answer_misses());
            self.rec.add(
                "store.recovered_lines",
                guard.recovery().recovered_lines() as u64,
            );
        }
        Ok(Session {
            prepared: self.prepared,
            runs: self.runs,
            outcome,
            journal: self.rec.finish(),
            store: self.store,
        })
    }

    /// Starts an owned, resumable debugging session over one traced run
    /// — the server-side alternative to [`Traced::debug`]: instead of
    /// blocking on an oracle callback, the returned [`DebugHandle`] is
    /// pumped one `next_question()` / `answer(verdict)` pair at a time
    /// and can be parked between requests. The chain itself is not
    /// consumed; transparency rendering (§6.1) is wired in.
    ///
    /// # Errors
    /// A [`Phase::Debug`] error when `index` is out of range.
    pub fn debug_handle(&self, index: usize, config: DebugConfig) -> Result<DebugHandle> {
        let run = self.runs.get(index).ok_or_else(|| {
            Error::new(
                Phase::Debug,
                format!(
                    "no traced run at index {index} ({} available)",
                    self.runs.len()
                ),
            )
        })?;
        let mut handle = DebugHandle::new(
            std::sync::Arc::new(self.prepared.transformed.module.clone()),
            std::sync::Arc::new(run.trace.clone()),
            Some(self.prepared.transformed.mapping.clone()),
            run.tree.clone(),
            config,
        );
        if config.strategy == Strategy::KnowledgeWeighted {
            if let Some(store) = &self.store {
                handle = handle.with_probe(Box::new(StoreProbe::new(store.clone())));
            }
        }
        Ok(handle)
    }

    /// Ends the chain without a debug phase, yielding the runs and the
    /// journal of the phases so far.
    pub fn finish(self) -> (Vec<TracedRun>, Journal) {
        (self.runs, self.rec.finish())
    }
}

/// A finished facade chain: outcome plus the full pipeline journal.
#[derive(Debug)]
pub struct Session {
    /// Phase I output.
    pub prepared: PreparedProgram,
    /// The traced runs of Phase II.
    pub runs: Vec<TracedRun>,
    /// The debugging verdict and transcript.
    pub outcome: DebugOutcome,
    /// Spans, events and counters of every phase the chain ran.
    pub journal: Journal,
    /// The knowledge store the session wrote through, when one was
    /// attached with [`Compiled::with_store`].
    pub store: Option<SharedStore>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt::debugger::DebugResult;
    use gadt::oracle::ReferenceOracle;
    use gadt_pascal::testprogs;

    #[test]
    fn facade_runs_the_paper_pipeline() {
        let fixed = gadt_pascal::sema::compile(testprogs::SQRTEST_FIXED).unwrap();
        let mut oracle = ChainOracle::new();
        oracle.push(ReferenceOracle::new(&fixed, []).unwrap());
        let session = Gadt::compile(testprogs::SQRTEST)
            .unwrap()
            .with_threads(2)
            .transform()
            .unwrap()
            .trace(vec![vec![]])
            .unwrap()
            .debug(&mut oracle)
            .unwrap();
        let DebugResult::BugLocalized { unit, .. } = &session.outcome.result else {
            panic!("{}", session.outcome.render_transcript());
        };
        assert_eq!(unit, "decrement");
        assert_eq!(session.journal.counter("trace.runs"), 1);
        assert_eq!(
            session.journal.counter("debug.questions"),
            session.outcome.total_queries() as u64
        );
        assert_eq!(
            session.journal.counter("debug.slices"),
            session.outcome.slices_taken as u64
        );
    }

    #[test]
    fn with_store_persists_and_replays_the_session() {
        let dir = gadt_store::TempDir::new("facade-store");
        let fixed = gadt_pascal::sema::compile(testprogs::SQRTEST_FIXED).unwrap();

        // Session 1: the reference answers; everything is persisted.
        let mut oracle = ChainOracle::new();
        oracle.push(ReferenceOracle::new(&fixed, []).unwrap());
        let s1 = Gadt::compile(testprogs::SQRTEST)
            .unwrap()
            .with_store(dir.path())
            .unwrap()
            .transform()
            .unwrap()
            .trace(vec![vec![]])
            .unwrap()
            .debug(&mut oracle)
            .unwrap();
        assert!(matches!(&s1.outcome.result,
            DebugResult::BugLocalized { unit, .. } if unit == "decrement"));
        assert!(s1.journal.counter("store.misses") > 0);
        assert_eq!(s1.journal.counter("store.hits"), 0);
        let fp1 = s1
            .store
            .as_ref()
            .unwrap()
            .lock()
            .unwrap()
            .disk_fingerprint()
            .unwrap();

        // Session 2: the store answers everything; a consulted "user"
        // would panic. The store's bytes must not change.
        let mut replay = ChainOracle::new();
        replay.push(gadt::oracle::FnOracle::new(
            "user",
            |_m: &Module, _t: &gadt_trace::ExecTree, _n| {
                panic!("replayed session must not consult the user")
            },
        ));
        let s2 = Gadt::compile(testprogs::SQRTEST)
            .unwrap()
            .with_store(dir.path())
            .unwrap()
            .transform()
            .unwrap()
            .trace(vec![vec![]])
            .unwrap()
            .debug(&mut replay)
            .unwrap();
        assert!(matches!(&s2.outcome.result,
            DebugResult::BugLocalized { unit, .. } if unit == "decrement"));
        assert_eq!(s2.journal.counter("store.misses"), 0);
        assert!(s2.journal.counter("store.hits") > 0);
        for entry in &s2.outcome.transcript {
            assert_eq!(entry.source, gadt::STORED_SOURCE, "unit {}", entry.unit);
        }
        let fp2 = s2
            .store
            .as_ref()
            .unwrap()
            .lock()
            .unwrap()
            .disk_fingerprint()
            .unwrap();
        assert_eq!(fp1, fp2, "replay must leave the store byte-identical");
    }

    #[test]
    fn debug_handle_matches_the_callback_path_and_echoes_provenance() {
        use gadt::oracle::Oracle;
        let fixed = gadt_pascal::sema::compile(testprogs::SQRTEST_FIXED).unwrap();
        let traced = Gadt::compile(testprogs::SQRTEST)
            .unwrap()
            .transform()
            .unwrap()
            .trace(vec![vec![]])
            .unwrap();

        // Pump the owned handle with the reference oracle.
        let mut reference = ReferenceOracle::new(&fixed, []).unwrap();
        let mut handle = traced.debug_handle(0, DebugConfig::default()).unwrap();
        while let Some(q) = handle.next_question() {
            let node = q.node;
            let verdict = reference.judge(&traced.prepared.transformed.module, handle.tree(), node);
            handle.answer_from(verdict, reference.source_name());
        }
        let pumped = handle.into_outcome();

        // The synchronous callback path over the same traced chain.
        let mut oracle = ChainOracle::new();
        oracle.push(ReferenceOracle::new(&fixed, []).unwrap());
        let session = traced.debug(&mut oracle).unwrap();

        assert_eq!(pumped.result, session.outcome.result);
        assert_eq!(pumped.slices_taken, session.outcome.slices_taken);
        let p: Vec<&str> = pumped.transcript.iter().map(|t| t.query.as_str()).collect();
        let s: Vec<&str> = session
            .outcome
            .transcript
            .iter()
            .map(|t| t.query.as_str())
            .collect();
        assert_eq!(p, s, "handle pump must render the same transparent queries");

        // Provenance echo: each run's limits without re-deriving them.
        assert_eq!(session.runs.len(), 1);
        assert_eq!(
            session.runs[0].limits.max_steps,
            gadt_pascal::interp::Limits::default().max_steps
        );
    }

    #[test]
    fn compile_errors_carry_the_phase() {
        let err = Gadt::compile("program x; begin y := 1 end.").unwrap_err();
        assert_eq!(err.phase(), Phase::Compile);
        assert!(err.diagnostic().is_some());
    }

    #[test]
    fn debugging_without_runs_is_a_debug_phase_error() {
        let traced = Gadt::compile("program t; begin writeln(1) end.")
            .unwrap()
            .transform()
            .unwrap()
            .trace(vec![])
            .unwrap();
        let mut oracle = ChainOracle::new();
        let err = traced.debug(&mut oracle).unwrap_err();
        assert_eq!(err.phase(), Phase::Debug);
    }

    #[test]
    fn finish_returns_runs_and_journal() {
        let (runs, journal) = Gadt::compile("program t; begin writeln(7) end.")
            .unwrap()
            .transform()
            .unwrap()
            .trace(vec![vec![], vec![]])
            .unwrap()
            .finish();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].output, "7\n");
        assert_eq!(journal.counter("trace.runs"), 2);
        assert!(journal.phase_timings().trace > std::time::Duration::ZERO);
    }
}
