//! The compiled-program table, and in each program the traced-run
//! table: every session of one source text shares a single Phase I
//! result, and every session of that program that traces one input row
//! under one set of limits shares a single Phase II run.
//!
//! The paper's pipeline (Figure 3) transforms a program once and traces
//! it once per input; only querying happens per session. A `create`
//! therefore looks its exact source text up here and compiles (parse, sema, §6 transform, CFG lowering, VM compile) only
//! on a miss, and a `trace` looks each input row up in its program and
//! runs only the misses. Entries in both tables are [`Weak`]: a program
//! or a run lives exactly as long as some session holds it, so neither
//! table needs a capacity bound of its own.

use gadt::session::{prepare_observed, run_traced_limited, PreparedProgram, TracedRun};
use gadt_obs::{Journal, Recorder};
use gadt_pascal::interp::Limits;
use gadt_pascal::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Phase I of one source, and the runs traced from it.
#[derive(Debug)]
pub(crate) struct Program {
    /// The transformed, lowered and compiled program.
    pub(crate) prepared: PreparedProgram,
    /// What `prepare_observed` recorded while building `prepared`. Each
    /// session's recorder adopts a copy, so a session journals the same
    /// bytes whether its `create` hit the table or missed it.
    pub(crate) journal: Journal,
    /// Runs of this program that some session holds.
    runs: Mutex<HashMap<RunKey, Weak<Run>>>,
}

/// Phase II of one program on one input row under one set of limits.
#[derive(Debug)]
pub(crate) struct Run {
    /// The trace, its execution tree and the program's output.
    pub(crate) traced: TracedRun,
    /// What tracing recorded (trace and tree sizes). A session's
    /// recorder adopts a copy inside its `trace` span, so a session
    /// journals the same bytes whether its run was shared or traced.
    pub(crate) journal: Journal,
}

/// A run's key within its program: the exact input row, as its `Debug`
/// text (which tells `0.0` from `-0.0`), and the limits it ran under.
type RunKey = (String, Limits);

/// Compiles `source`, journaling into an untimed recorder.
///
/// # Errors
/// The error frame's message: `compile: …` or `transform: …`.
fn compile(source: &str) -> Result<Program, String> {
    let module = gadt_pascal::sema::compile(source).map_err(|e| format!("compile: {e}"))?;
    let mut rec = Recorder::untimed();
    let prepared = prepare_observed(module, &mut rec).map_err(|e| format!("transform: {e}"))?;
    Ok(Program {
        prepared,
        journal: rec.finish(),
        runs: Mutex::default(),
    })
}

impl Program {
    /// Traces `input` under `limits`, journaling into an untimed recorder.
    ///
    /// # Errors
    /// The error frame's message: `trace: …`.
    fn trace(&self, input: Vec<Value>, limits: Limits) -> Result<Run, String> {
        let traced =
            run_traced_limited(&self.prepared, input, limits).map_err(|e| format!("trace: {e}"))?;
        let mut rec = Recorder::untimed();
        traced.trace.observe(&mut rec);
        traced.tree.observe(&mut rec);
        Ok(Run {
            traced,
            journal: rec.finish(),
        })
    }

    /// Runs some session still holds.
    fn live_runs(&self) -> usize {
        lock(&self.runs)
            .values()
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

/// Shared programs keyed by exact source text.
#[derive(Default)]
pub(crate) struct ProgramTable {
    entries: Mutex<HashMap<String, Weak<Program>>>,
    compiles: AtomicU64,
    traces: AtomicU64,
}

fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table.lock().expect("program table poisoned")
}

impl ProgramTable {
    /// The shared program for `source`. A miss compiles outside the
    /// lock, so two concurrent misses of one key may both compile; the
    /// first to insert wins and the other's copy is dropped. Sources
    /// that fail to compile never enter the table.
    ///
    /// # Errors
    /// See [`compile`].
    pub(crate) fn get_or_compile(&self, source: &str) -> Result<Arc<Program>, String> {
        if let Some(p) = lock(&self.entries).get(source).and_then(Weak::upgrade) {
            return Ok(p);
        }
        let built = Arc::new(compile(source)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock(&self.entries);
        // Forget programs whose last session is gone.
        entries.retain(|_, w| w.strong_count() > 0);
        let slot = entries.entry(source.to_string()).or_default();
        if let Some(first) = slot.upgrade() {
            return Ok(first);
        }
        *slot = Arc::downgrade(&built);
        Ok(built)
    }

    /// The shared run of `program` on `input` under `limits`. Like a
    /// compile, a miss traces outside the lock and the first insert
    /// wins; runs that fail never enter the table.
    ///
    /// # Errors
    /// The error frame's message: `trace: …`.
    pub(crate) fn get_or_trace(
        &self,
        program: &Program,
        input: Vec<Value>,
        limits: Limits,
    ) -> Result<Arc<Run>, String> {
        let key = (format!("{input:?}"), limits);
        if let Some(run) = lock(&program.runs).get(&key).and_then(Weak::upgrade) {
            return Ok(run);
        }
        let traced = Arc::new(program.trace(input, limits)?);
        self.traces.fetch_add(1, Ordering::Relaxed);
        let mut runs = lock(&program.runs);
        // Forget runs whose last session is gone.
        runs.retain(|_, w| w.strong_count() > 0);
        let slot = runs.entry(key).or_default();
        if let Some(first) = slot.upgrade() {
            return Ok(first);
        }
        *slot = Arc::downgrade(&traced);
        Ok(traced)
    }

    /// Programs some session still holds.
    pub(crate) fn live(&self) -> usize {
        lock(&self.entries)
            .values()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Runs some session still holds, over every live program.
    pub(crate) fn live_runs(&self) -> usize {
        lock(&self.entries)
            .values()
            .filter_map(Weak::upgrade)
            .map(|p| p.live_runs())
            .sum()
    }

    /// Programs built since start (hits excluded).
    pub(crate) fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Runs traced since start (hits excluded).
    pub(crate) fn traces(&self) -> u64 {
        self.traces.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::testprogs;

    #[test]
    fn hits_share_one_program_until_its_last_holder_drops() {
        let table = ProgramTable::default();
        let first = table.get_or_compile(testprogs::SQRTEST).unwrap();
        let second = table.get_or_compile(testprogs::SQRTEST).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((table.live(), table.compiles()), (1, 1));

        drop(first);
        assert_eq!(table.live(), 1, "the second holder keeps it alive");
        drop(second);
        assert_eq!(table.live(), 0);

        // The next request compiles afresh, and the miss clears the dead
        // slot.
        let third = table.get_or_compile(testprogs::SQRTEST).unwrap();
        assert_eq!((table.live(), table.compiles()), (1, 2));
        assert_eq!(lock(&table.entries).len(), 1);
        drop(third);
    }

    #[test]
    fn keys_are_the_exact_source_text() {
        let table = ProgramTable::default();
        let first = table.get_or_compile(testprogs::SQRTEST).unwrap();

        // One byte more is another program.
        let spaced = format!("{} ", testprogs::SQRTEST);
        let other = table.get_or_compile(&spaced).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!((table.live(), table.compiles()), (2, 2));
    }

    #[test]
    fn a_shared_run_lives_until_its_last_holder_drops() {
        let table = ProgramTable::default();
        let program = table.get_or_compile(testprogs::SQRTEST).unwrap();
        let limits = Limits::default();
        let first = table.get_or_trace(&program, vec![], limits).unwrap();
        let second = table.get_or_trace(&program, vec![], limits).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((table.live_runs(), table.traces()), (1, 1));

        // Other limits are another run.
        let bounded = Limits {
            max_steps: 1_000_000,
            ..limits
        };
        let other = table.get_or_trace(&program, vec![], bounded).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(other.traced.output, first.traced.output);
        assert_eq!(other.journal.fingerprint(), first.journal.fingerprint());
        assert_eq!((table.live_runs(), table.traces()), (2, 2));

        drop((first, other));
        assert_eq!(table.live_runs(), 1, "the second holder keeps it alive");
        drop(second);
        assert_eq!(table.live_runs(), 0);

        // The next request traces afresh, and the miss clears the dead
        // entries.
        let again = table.get_or_trace(&program, vec![], limits).unwrap();
        assert_eq!((table.live_runs(), table.traces()), (1, 3));
        assert_eq!(lock(&program.runs).len(), 1);
        drop(again);
    }

    #[test]
    fn failed_runs_never_enter_the_table() {
        let table = ProgramTable::default();
        let program = table.get_or_compile(testprogs::SQRTEST).unwrap();
        let starved = Limits {
            max_steps: 1,
            ..Limits::default()
        };
        let err = table.get_or_trace(&program, vec![], starved).unwrap_err();
        assert!(err.starts_with("trace: "), "{err}");
        assert_eq!(table.traces(), 0);
        assert!(lock(&program.runs).is_empty());
    }
}
