//! The compiled-program table: every session of one source text on one
//! engine shares a single Phase I result.
//!
//! The paper's pipeline (Figure 3) transforms a program once; only
//! tracing and querying happen per input. A `create` therefore looks its
//! exact source text and engine up here and compiles (parse, sema, §6
//! transform, CFG lowering, VM compile) only on a miss. Entries are
//! [`Weak`]: a program lives exactly as long as some session holds it,
//! so the table needs no capacity bound of its own.

use gadt::session::{prepare_observed, Engine, PreparedProgram};
use gadt_obs::{Journal, Recorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Phase I of one source on one engine.
#[derive(Debug)]
pub(crate) struct Program {
    /// The transformed, lowered and compiled program.
    pub(crate) prepared: PreparedProgram,
    /// What `prepare_observed` recorded while building `prepared`. Each
    /// session's recorder adopts a copy, so a session journals the same
    /// bytes whether its `create` hit the table or missed it.
    pub(crate) journal: Journal,
}

/// Compiles `source` for `engine`, journaling into an untimed recorder.
///
/// # Errors
/// The error frame's message: `compile: …` or `transform: …`.
pub(crate) fn compile(source: &str, engine: Engine) -> Result<Program, String> {
    let module = gadt_pascal::sema::compile(source).map_err(|e| format!("compile: {e}"))?;
    let mut rec = Recorder::untimed();
    let mut prepared =
        prepare_observed(&module, &mut rec).map_err(|e| format!("transform: {e}"))?;
    if prepared.engine() != engine {
        prepared = prepared.with_engine(engine);
    }
    Ok(Program {
        prepared,
        journal: rec.finish(),
    })
}

/// Shared programs keyed by exact source text, one slot per engine.
#[derive(Default)]
pub(crate) struct ProgramTable {
    entries: Mutex<HashMap<String, Vec<Weak<Program>>>>,
    compiles: AtomicU64,
}

/// The live program among `slots` that runs on `engine`.
fn live_on(slots: &[Weak<Program>], engine: Engine) -> Option<Arc<Program>> {
    slots
        .iter()
        .filter_map(Weak::upgrade)
        .find(|p| p.prepared.engine() == engine)
}

impl ProgramTable {
    /// The shared program for `source` on `engine`. A miss compiles
    /// outside the lock, so two concurrent misses of one key may both
    /// compile; the first to insert wins and the other's copy is
    /// dropped. Sources that fail to compile never enter the table.
    ///
    /// # Errors
    /// See [`compile`].
    pub(crate) fn get_or_compile(
        &self,
        source: &str,
        engine: Engine,
    ) -> Result<Arc<Program>, String> {
        if let Some(p) = self
            .lock()
            .get(source)
            .and_then(|slots| live_on(slots, engine))
        {
            return Ok(p);
        }
        let built = Arc::new(compile(source, engine)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock();
        // Forget programs whose last session is gone.
        entries.retain(|_, slots| {
            slots.retain(|w| w.strong_count() > 0);
            !slots.is_empty()
        });
        let slots = entries.entry(source.to_string()).or_default();
        if let Some(first) = live_on(slots, engine) {
            return Ok(first);
        }
        slots.push(Arc::downgrade(&built));
        Ok(built)
    }

    /// Programs some session still holds.
    pub(crate) fn live(&self) -> usize {
        self.lock()
            .values()
            .flatten()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Programs built since start (hits excluded).
    pub(crate) fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Vec<Weak<Program>>>> {
        self.entries.lock().expect("program table poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::testprogs;

    #[test]
    fn hits_share_one_program_until_its_last_holder_drops() {
        let table = ProgramTable::default();
        let first = table
            .get_or_compile(testprogs::SQRTEST, Engine::Vm)
            .unwrap();
        let second = table
            .get_or_compile(testprogs::SQRTEST, Engine::Vm)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((table.live(), table.compiles()), (1, 1));

        drop(first);
        assert_eq!(table.live(), 1, "the second holder keeps it alive");
        drop(second);
        assert_eq!(table.live(), 0);

        // The next request compiles afresh, and the miss clears the dead
        // slot.
        let third = table
            .get_or_compile(testprogs::SQRTEST, Engine::Vm)
            .unwrap();
        assert_eq!((table.live(), table.compiles()), (1, 2));
        assert_eq!(table.lock().values().flatten().count(), 1);
        drop(third);
    }

    #[test]
    fn keys_are_the_exact_source_text_and_the_engine() {
        let table = ProgramTable::default();
        let vm = table
            .get_or_compile(testprogs::SQRTEST, Engine::Vm)
            .unwrap();
        let tree = table
            .get_or_compile(testprogs::SQRTEST, Engine::TreeWalker)
            .unwrap();
        assert!(!Arc::ptr_eq(&vm, &tree));
        assert_eq!(tree.prepared.engine(), Engine::TreeWalker);
        assert_eq!(vm.journal.fingerprint(), tree.journal.fingerprint());

        // One byte more is another program.
        let spaced = format!("{} ", testprogs::SQRTEST);
        let other = table.get_or_compile(&spaced, Engine::Vm).unwrap();
        assert!(!Arc::ptr_eq(&vm, &other));
        assert_eq!((table.live(), table.compiles()), (3, 3));
    }
}
