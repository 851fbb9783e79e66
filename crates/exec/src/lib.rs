//! # gadt-exec
//!
//! A std-only parallel batch execution engine for the GADT pipeline.
//!
//! The paper's three phases (§5, Figure 3) are embarrassingly parallel
//! at the *batch* level: every T-GEN test case is an independent run of
//! the transformed program, every slicing criterion prunes the execution
//! tree independently, and every traced input is an independent
//! interpreter run. [`BatchExecutor`] fans such batches out to a fixed
//! pool of scoped worker threads and hands the results back **in input
//! order**, so parallel execution is observationally identical to the
//! sequential loop it replaces — the determinism guarantee the
//! integration suite (`tests/parallel_determinism.rs`) pins down.
//!
//! Two entry points cover every batch: [`BatchExecutor::run`] and
//! [`BatchExecutor::run_with_sink`], which also streams each result to
//! a caller-side sink in input order (how one store writer persists a
//! batch). A fallible batch returns `Vec<Result<R, E>>`, and collecting
//! it yields the lowest-indexed error. Batches that journal record into
//! their `gadt-obs` recorder after the pool returns, walking the results
//! in input order, so this crate knows nothing of journals.
//!
//! The implementation uses only `std`: [`std::thread::scope`] for
//! borrow-friendly workers, an atomic cursor for work stealing, and an
//! [`std::sync::mpsc`] channel to collect `(index, result)` pairs.
//! No external crates, no unsafe code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Worker stack size. The interpreter executes Pascal calls by native
/// recursion, so a worker's stack must absorb the deepest dynamic call
/// chain its job may reach (mutation campaigns deliberately run mutants
/// whose recursion guard was broken); the platform default of 2 MiB is
/// not enough headroom.
const WORKER_STACK_BYTES: usize = 16 * 1024 * 1024;

/// A fixed-width work scheduler for independent jobs.
///
/// Construction is cheap (no threads are kept alive between batches);
/// each [`BatchExecutor::run`] call spins up a scoped pool, drains the
/// batch, and joins. Results always come back in input order regardless
/// of which worker finished first, so `run` is a drop-in replacement
/// for a sequential `map` over the batch.
///
/// # Examples
/// ```
/// let pool = gadt_exec::BatchExecutor::new(4);
/// let squares = pool.run((1..=8).collect(), |_idx, n: i64| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25, 36, 49, 64]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor {
    threads: usize,
}

impl BatchExecutor {
    /// Creates an executor with an explicit worker count. `0` selects
    /// the host's available parallelism (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        BatchExecutor { threads }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every item and returns the results in input order.
    ///
    /// `f` receives the item's index alongside the item, so callers can
    /// label or seed per-item work deterministically. With one worker
    /// (or at most one item) the batch runs inline on the calling
    /// thread — bit-for-bit the sequential loop, with no thread-spawn
    /// overhead.
    ///
    /// A fallible batch returns `Vec<Result<R, E>>`; collecting it with
    /// `.into_iter().collect::<Result<Vec<_>, _>>()` yields the error of
    /// the **lowest-indexed** failing job — the error a sequential loop
    /// with `?` would surface — whatever the worker count. Every job
    /// runs; none is cancelled by another's failure.
    ///
    /// # Panics
    /// A panic inside `f` propagates to the caller once the scope joins.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_with_sink(items, f, |_, _| {})
    }

    /// Like [`BatchExecutor::run`] but additionally streams each result
    /// through `sink` **in input order**, as soon as its turn arrives —
    /// the serialized-appender hook persistent consumers (one
    /// `gadt-store` writer fed by many workers) hang off the batch.
    ///
    /// Out-of-order finishes wait in a reorder buffer; `sink(i, &r)` is
    /// invoked on the calling thread for `i = 0, 1, 2, …` exactly once
    /// each — `Ok` and `Err` results alike — so a sink that appends to a
    /// write-ahead log produces the same bytes at any worker count. The
    /// full result vector is still returned in input order.
    ///
    /// # Panics
    /// A panic inside `f` propagates to the caller once the scope joins.
    pub fn run_with_sink<T, R, F, S>(&self, items: Vec<T>, f: F, mut sink: S) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
        S: FnMut(usize, &R),
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let r = f(i, t);
                    sink(i, &r);
                    r
                })
                .collect();
        }

        // Work distribution: an atomic cursor over index-addressed job
        // slots. Each slot is taken exactly once; the mutexes are
        // uncontended (a slot has one consumer) and exist only to give
        // the scoped workers shared `&` access to owned items.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let slots = &slots;
                let cursor = &cursor;
                let f = &f;
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("job slot poisoned")
                            .take()
                            .expect("job taken twice");
                        // A send only fails if the receiver is gone, which
                        // cannot happen while the scope holds it alive.
                        let _ = tx.send((i, f(i, item)));
                    })
                    .expect("spawn batch worker");
            }
            drop(tx);

            // Reorder buffer: emit to the sink the moment the next
            // input index becomes available, not when the batch ends.
            let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
            let mut next_emit = 0usize;
            for (i, r) in rx {
                results[i] = Some(r);
                while let Some(ready) = results.get(next_emit).and_then(Option::as_ref) {
                    sink(next_emit, ready);
                    next_emit += 1;
                }
            }
            results
                .into_iter()
                .map(|r| r.expect("worker dropped a job"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    // The fallible and journaled batches built on this executor are
    // pinned in `tests/parallel_determinism.rs`: the lowest-indexed error
    // of a failing batch, the journal kept of its successful jobs, and
    // thread-count invariance at 1, 2 and 8 workers.
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order() {
        let pool = BatchExecutor::new(8);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.run(items, |i, x| {
            assert_eq!(i, x);
            // Stagger completion so out-of-order finishes are likely.
            if x % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let pool = BatchExecutor::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = BatchExecutor::new(1);
        let main_thread = std::thread::current().id();
        let out = pool.run(vec![1, 2, 3], |_, x| {
            assert_eq!(std::thread::current().id(), main_thread);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = BatchExecutor::new(4);
        let out: Vec<i32> = pool.run(Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let pool = BatchExecutor::new(64);
        let out = pool.run(vec![10, 20], |_, x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn fallible_batches_collect_to_the_lowest_indexed_error() {
        let pool = BatchExecutor::new(8);
        let results = pool.run((0..50usize).collect(), |_, x| match x {
            13 | 31 => Err(format!("boom {x}")),
            _ => Ok(x),
        });
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 48);
        let collected: Result<Vec<usize>, String> = results.into_iter().collect();
        assert_eq!(collected.unwrap_err(), "boom 13");
    }

    #[test]
    fn borrowed_state_is_shared_across_workers() {
        let base = [100i64, 200, 300];
        let pool = BatchExecutor::new(4);
        let out = pool.run(vec![0usize, 1, 2], |_, i| base[i] + 1);
        assert_eq!(out, vec![101, 201, 301]);
    }

    #[test]
    fn sink_streams_in_input_order_at_any_thread_count() {
        for threads in [1, 2, 8] {
            let pool = BatchExecutor::new(threads);
            let mut seen: Vec<(usize, i64)> = Vec::new();
            let out = pool.run_with_sink(
                (0..40i64).collect(),
                |_, x| {
                    // Stagger so completion order differs from input order.
                    if x % 5 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    x * 3
                },
                |i, r| seen.push((i, *r)),
            );
            assert_eq!(out, (0..40).map(|x| x * 3).collect::<Vec<_>>());
            let expect: Vec<(usize, i64)> = (0..40usize).map(|i| (i, i as i64 * 3)).collect();
            assert_eq!(seen, expect, "threads={threads}");
        }
    }
}
