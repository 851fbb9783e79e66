//! Executable test cases, the test runner, and the test-report database.
//!
//! §2: "By extending the test specification with declarations and
//! executable statements the system can generate executable test cases
//! from test frames. During the execution of the test cases, test reports
//! are produced in a database. These test reports can easily be accessed
//! by using a coded form of the test frames."
//!
//! Here the "declarations and executable statements" become a Rust
//! *instantiator* (frame → concrete input values) and the unit under test
//! runs on the monitor-free path of either engine. Verdicts come from a
//! caller-supplied oracle predicate (the tester's expected results;
//! §5.3.2 notes "the reliability of testing is largely dependent on the
//! tester").
//!
//! Two runners share one case body: [`run_cases_batch`] takes the worker
//! count, the engine, an optional store to stream reports into and a
//! recorder to journal into; [`run_cases`] is the same batch with one
//! worker, the default engine, no store and no journal.

use crate::frames::{Frame, GeneratedFrames};
use gadt_pascal::cfg::lower;
use gadt_pascal::error::Result;
use gadt_pascal::interp::{Limits, ProcRun};
use gadt_pascal::sema::{Module, ProcId};
use gadt_pascal::value::Value;
use gadt_vm::PreparedEngine;
use std::collections::BTreeMap;
use std::sync::Arc;

pub use gadt_vm::Engine;

/// One executable test case: a frame plus concrete input values.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Index of the frame in its [`GeneratedFrames`].
    pub frame_index: usize,
    /// The frame's coded form (the database key).
    pub code: String,
    /// Concrete argument values for the unit under test.
    pub inputs: Vec<Value>,
}

/// Builds executable test cases from frames via an instantiator. Frames
/// the instantiator cannot realize (returns `None`) are skipped — e.g.
/// `more`-sized arrays when the unit's array type holds only two
/// elements.
pub fn instantiate_cases(
    frames: &GeneratedFrames,
    mut instantiate: impl FnMut(&Frame) -> Option<Vec<Value>>,
) -> Vec<TestCase> {
    frames
        .frames
        .iter()
        .enumerate()
        .filter_map(|(i, f)| {
            instantiate(f).map(|inputs| TestCase {
                frame_index: i,
                code: f.code(),
                inputs,
            })
        })
        .collect()
}

/// One test report.
#[derive(Debug, Clone, PartialEq)]
pub struct TestReport {
    /// The frame's coded form.
    pub code: String,
    /// The inputs used.
    pub inputs: Vec<Value>,
    /// Output values (reference params in order, then the function
    /// result if any).
    pub outputs: Vec<Value>,
    /// The verdict.
    pub passed: bool,
}

/// The test-report database for one unit, keyed by frame code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TestDb {
    /// The unit the reports are about.
    pub unit: String,
    reports: BTreeMap<String, Vec<TestReport>>,
}

impl TestDb {
    /// Creates an empty database for a unit.
    pub fn new(unit: impl Into<String>) -> Self {
        TestDb {
            unit: unit.into(),
            reports: BTreeMap::new(),
        }
    }

    /// Adds a report, deduplicating on `(code, inputs)`: re-running the
    /// same case (e.g. repeated [`run_cases_batch`] calls over one
    /// database) replaces the old report instead of accumulating
    /// duplicates, and the **latest** verdict wins.
    pub fn add(&mut self, report: TestReport) {
        let slot = self.reports.entry(report.code.clone()).or_default();
        match slot.iter_mut().find(|r| r.inputs == report.inputs) {
            Some(existing) => *existing = report,
            None => slot.push(report),
        }
    }

    /// The frame-level verdict used during debugging (§5.3.2): `None` if
    /// the frame was never tested, `Some(true)` if every report passed,
    /// `Some(false)` if any failed.
    pub fn frame_verdict(&self, code: &str) -> Option<bool> {
        let rs = self.reports.get(code)?;
        if rs.is_empty() {
            return None;
        }
        Some(rs.iter().all(|r| r.passed))
    }

    /// Total number of reports.
    pub fn len(&self) -> usize {
        self.reports.values().map(Vec::len).sum()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(code, reports)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[TestReport])> {
        self.reports.iter().map(|(c, r)| (c.as_str(), r.as_slice()))
    }

    /// Persists every report into a [`gadt_store::KnowledgeStore`].
    /// Appends are idempotent, so persisting the same database twice
    /// leaves the store's bytes unchanged. Returns how many reports were
    /// actually new knowledge.
    ///
    /// # Errors
    /// Store I/O errors.
    pub fn persist(&self, store: &mut gadt_store::KnowledgeStore) -> std::io::Result<usize> {
        let mut appended = 0;
        for (_, reports) in self.iter() {
            for r in reports {
                if store.append_report(stored_report(&self.unit, r))? {
                    appended += 1;
                }
            }
        }
        Ok(appended)
    }

    /// Rebuilds a database for `unit` from everything a store holds —
    /// the cross-session path: a later debugging session loads the
    /// reports a previous session's test phase persisted.
    pub fn load_from(store: &gadt_store::KnowledgeStore, unit: &str) -> TestDb {
        let mut db = TestDb::new(unit.to_ascii_lowercase());
        for r in store.unit_reports(unit) {
            db.add(TestReport {
                code: r.code.clone(),
                inputs: r.inputs.clone(),
                outputs: r.outputs.clone(),
                passed: r.passed,
            });
        }
        db
    }
}

fn stored_report(unit: &str, r: &TestReport) -> gadt_store::StoredReport {
    gadt_store::StoredReport {
        unit: unit.to_ascii_lowercase(),
        code: r.code.clone(),
        inputs: r.inputs.clone(),
        outputs: r.outputs.clone(),
        passed: r.passed,
    }
}

/// Runs test cases against one top-level procedure of a module, one
/// case after another on the default [`Engine`], unjournaled and
/// unpersisted: [`run_cases_batch`] with those defaults.
///
/// The oracle receives the inputs and the [`ProcRun`] and decides the
/// verdict.
///
/// # Errors
/// Propagates interpreter errors (a crashing unit is a test failure the
/// caller may prefer to record; this runner surfaces the error instead so
/// the tester notices). Every case runs; the error returned is the
/// lowest-indexed failing case's.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, testprogs};
/// use gadt_tgen::{spec, frames, cases};
/// let m = compile(testprogs::SQRTEST)?;
/// let s = spec::parse_spec(spec::ARRSUM_SPEC)?;
/// let g = frames::generate_frames(&s, Default::default());
/// let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
/// let db = cases::run_cases(&m, "arrsum", &tc, &cases::arrsum_oracle)?;
/// assert_eq!(db.frame_verdict("two.positive.small"), Some(true));
/// # Ok(())
/// # }
/// ```
pub fn run_cases(
    module: &Module,
    unit: &str,
    cases: &[TestCase],
    oracle: &(dyn Fn(&[Value], &ProcRun) -> bool + Sync),
) -> Result<TestDb> {
    run_cases_batch(
        1,
        Engine::default(),
        module,
        unit,
        cases,
        oracle,
        None,
        &mut gadt_obs::Recorder::disabled(),
    )
}

/// Runs test cases on `threads` workers (`0` = all cores), each case an
/// independent run of the unit on `engine`, and merges the reports into
/// the [`TestDb`] **in case order**: the database is the same at any
/// thread count and on either engine (`tests/parallel_determinism.rs`
/// pins this down). The unit's CFG is lowered, and for [`Engine::Vm`]
/// compiled to bytecode, once for the whole batch and shared by every
/// worker. The oracle is shared too, hence `Sync`; stateless verdict
/// predicates (like [`arrsum_oracle`]) qualify as-is.
///
/// With a `store`, every report streams into it in case order through
/// the executor's reorder-buffer sink, so the WAL bytes are the same at
/// any thread count, and a crash mid-batch leaves the finished prefix in
/// the WAL. Appending stops at the first append error; the store is
/// synced once the batch has succeeded.
///
/// With an enabled `rec`, the batch runs inside a `tgen_cases` span
/// tagged with the unit and case count, and each successful case adds
/// to the counters `tgen.cases` and `tgen.passed` or `tgen.failed`,
/// recorded in case order once the pool returns.
///
/// # Errors
/// In this order: an unknown unit; the lowest-indexed failing case's
/// interpreter error; the first store append error; a store sync error.
/// Store errors surface as runtime diagnostics.
#[allow(clippy::too_many_arguments)]
pub fn run_cases_batch(
    threads: usize,
    engine: Engine,
    module: &Module,
    unit: &str,
    cases: &[TestCase],
    oracle: &(dyn Fn(&[Value], &ProcRun) -> bool + Sync),
    store: Option<&gadt_store::SharedStore>,
    rec: &mut gadt_obs::Recorder,
) -> Result<TestDb> {
    let proc = resolve_unit(module, unit)?;
    let cfg = Arc::new(lower(module));
    let prepared = PreparedEngine::new(module, &cfg, engine);
    let span = gadt_obs::span!(rec, "tgen_cases", unit = unit, cases = cases.len());
    let mut append_err: Option<std::io::Error> = None;
    let reports = gadt_exec::BatchExecutor::new(threads).run_with_sink(
        cases.to_vec(),
        |_, case| run_case(&prepared, module, proc, oracle, case),
        |_, result| {
            // Successful reports only, and none after an append failed.
            let (Some(store), Ok(report), None) = (store, result, &append_err) else {
                return;
            };
            let mut guard = store.lock().expect("store mutex poisoned");
            if let Err(e) = guard.append_report(stored_report(unit, report)) {
                append_err = Some(e);
            }
        },
    );
    for report in reports.iter().flatten() {
        rec.incr("tgen.cases");
        rec.incr(if report.passed {
            "tgen.passed"
        } else {
            "tgen.failed"
        });
    }
    rec.exit(span);
    let reports = reports.into_iter().collect::<Result<Vec<_>>>()?;
    if let Some(e) = append_err {
        return Err(store_error("append", e));
    }
    if let Some(store) = store {
        let mut guard = store.lock().expect("store mutex poisoned");
        guard.sync().map_err(|e| store_error("sync", e))?;
    }
    let mut db = TestDb::new(unit);
    for report in reports {
        db.add(report);
    }
    Ok(db)
}

fn store_error(what: &str, e: std::io::Error) -> gadt_pascal::error::Diagnostic {
    gadt_pascal::error::Diagnostic::new(
        gadt_pascal::error::Stage::Runtime,
        format!("knowledge store {what} failed: {e}"),
        gadt_pascal::span::Span::dummy(),
    )
}

fn resolve_unit(module: &Module, unit: &str) -> Result<ProcId> {
    module.proc_by_name(unit).ok_or_else(|| {
        gadt_pascal::error::Diagnostic::new(
            gadt_pascal::error::Stage::Runtime,
            format!("unit `{unit}` not found"),
            gadt_pascal::span::Span::dummy(),
        )
    })
}

/// One case: run the unit, ask the oracle, and report. Verdict-only
/// batches never need the event stream: the monitor-free fast path
/// returns identical `ProcRun`s and errors on both engines.
fn run_case(
    engine: &PreparedEngine,
    module: &Module,
    proc: ProcId,
    oracle: &(dyn Fn(&[Value], &ProcRun) -> bool + Sync),
    case: TestCase,
) -> Result<TestReport> {
    let run = engine.run_proc_fast(module, proc, case.inputs.clone(), Limits::default())?;
    let passed = oracle(&case.inputs, &run);
    let mut outputs: Vec<Value> = run.outs.iter().map(|(_, v)| v.clone()).collect();
    if let Some(r) = &run.result {
        outputs.push(r.clone());
    }
    Ok(TestReport {
        code: case.code,
        inputs: case.inputs,
        outputs,
        passed,
    })
}

// ----------------------------------------------------------------------
// The paper's arrsum unit: instantiator, classifier, oracle
// ----------------------------------------------------------------------

/// Instantiates an `arrsum` frame (Figure 1's categories) into concrete
/// inputs `[a, n, b0]` for an `arrsum(a: array[1..cap]; n; var b)` unit.
/// Returns `None` when the frame cannot be realized with capacity `cap`
/// (e.g. `more` needs at least 3 elements).
pub fn arrsum_instantiator(frame: &Frame, cap: i64) -> Option<Vec<Value>> {
    let n: i64 = match frame.choice_of("size_of_array")? {
        "zero" => 0,
        "one" => 1,
        "two" => 2,
        "more" => {
            if cap < 3 {
                return None;
            }
            cap.min(5)
        }
        _ => return None,
    };
    if n > cap {
        return None;
    }
    let ty = frame.choice_of("type_of_elements").unwrap_or("positive");
    let dev = frame.choice_of("deviation").unwrap_or("small");
    // Base magnitude by deviation: small ≤ 10, average ≤ 100, large > 100.
    let spread: i64 = match dev {
        "small" => 2,
        "average" => 50,
        "large" => 500,
        _ => 2,
    };
    let mut elems = Vec::new();
    for i in 0..cap {
        let v = if i < n {
            let alternating = if i % 2 == 0 { 1 } else { -1 };
            match ty {
                "positive" => 5 + (i % 3) * spread.min(3),
                "negative" => -5 - (i % 3) * spread.min(3),
                "mixed" => alternating * (5 + i * spread / n.max(1)),
                _ => 5,
            }
        } else {
            0
        };
        elems.push(v);
    }
    Some(vec![elems.into(), Value::Int(n), Value::Int(0)])
}

/// Classifies concrete `arrsum` inputs back to a frame code — the
/// "function which automatically selects the suitable test frame" of
/// §5.3.2. Mirrors [`arrsum_instantiator`]'s deviation thresholds.
pub fn arrsum_frame_selector(inputs: &[Value]) -> Option<String> {
    let Value::Array(a) = inputs.first()? else {
        return None;
    };
    let n = inputs.get(1)?.as_int()?;
    let size = match n {
        0 => "zero",
        1 => "one",
        2 => "two",
        _ => "more",
    };
    let elems: Vec<i64> = (0..n)
        .filter_map(|i| a.get(a.lo + i).and_then(Value::as_int))
        .collect();
    let ty = if elems.is_empty() || elems.iter().all(|&x| x > 0) {
        "positive"
    } else if elems.iter().all(|&x| x < 0) {
        "negative"
    } else {
        "mixed"
    };
    let dev = if elems.is_empty() {
        "small"
    } else {
        let mean = elems.iter().sum::<i64>() as f64 / elems.len() as f64;
        let maxdev = elems
            .iter()
            .map(|&x| (x as f64 - mean).abs())
            .fold(0.0_f64, f64::max);
        if maxdev <= 10.0 {
            "small"
        } else if maxdev <= 100.0 {
            "average"
        } else {
            "large"
        }
    };
    Some(format!("{size}.{ty}.{dev}"))
}

/// The reference oracle for `arrsum`: the output `b` must equal the sum
/// of the first `n` elements.
pub fn arrsum_oracle(inputs: &[Value], run: &ProcRun) -> bool {
    let Some(Value::Array(a)) = inputs.first() else {
        return false;
    };
    let Some(n) = inputs.get(1).and_then(Value::as_int) else {
        return false;
    };
    let expected: i64 = (0..n)
        .filter_map(|i| a.get(a.lo + i).and_then(Value::as_int))
        .sum();
    run.outs
        .first()
        .and_then(|(_, v)| v.as_int())
        .is_some_and(|b| b == expected)
}

#[cfg(test)]
mod tests {
    // Thread-count and engine invariance of the batch, its journal and
    // the store bytes it writes are pinned in
    // `tests/parallel_determinism.rs`.
    use super::*;
    use crate::frames::{generate_frames, FrameGenOptions};
    use crate::spec::{parse_spec, ARRSUM_SPEC};
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    fn figure1_frames() -> GeneratedFrames {
        let s = parse_spec(ARRSUM_SPEC).unwrap();
        generate_frames(&s, FrameGenOptions::default())
    }

    #[test]
    fn instantiator_skips_unrealizable_frames() {
        let g = figure1_frames();
        let cases = instantiate_cases(&g, |f| arrsum_instantiator(f, 2));
        // `more` frames need ≥3 elements: only the 4 small-size frames
        // remain with capacity 2.
        let codes: Vec<&str> = cases.iter().map(|c| c.code.as_str()).collect();
        assert_eq!(
            codes,
            vec![
                "zero.positive.small",
                "one.positive.small",
                "two.positive.small",
                "two.negative.small"
            ]
        );
    }

    #[test]
    fn instantiator_with_larger_capacity_covers_all_frames() {
        let g = figure1_frames();
        let cases = instantiate_cases(&g, |f| arrsum_instantiator(f, 10));
        assert_eq!(cases.len(), g.frames.len());
    }

    #[test]
    fn running_cases_against_paper_arrsum_all_pass() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let g = figure1_frames();
        let cases = instantiate_cases(&g, |f| arrsum_instantiator(f, 2));
        let db = run_cases(&m, "arrsum", &cases, &|ins, run| arrsum_oracle(ins, run)).unwrap();
        assert_eq!(db.len(), 4);
        for (code, reports) in db.iter() {
            for r in reports {
                assert!(r.passed, "{code} failed: {:?}", r.outputs);
            }
        }
        assert_eq!(db.frame_verdict("two.positive.small"), Some(true));
        assert_eq!(db.frame_verdict("more.mixed.large"), None);
    }

    #[test]
    fn buggy_unit_produces_failing_reports() {
        let src = "program t;
             type intarray = array[1..2] of integer;
             var d: intarray; e: integer;
             procedure arrsum(a: intarray; n: integer; var b: integer);
             var i: integer;
             begin b := 1; for i := 1 to n do b := b + a[i]; end;
             begin arrsum(d, 2, e) end.";
        let m = compile(src).unwrap();
        let g = figure1_frames();
        let cases = instantiate_cases(&g, |f| arrsum_instantiator(f, 2));
        let db = run_cases(&m, "arrsum", &cases, &|ins, run| arrsum_oracle(ins, run)).unwrap();
        assert_eq!(db.frame_verdict("two.positive.small"), Some(false));
    }

    #[test]
    fn frame_selector_matches_instantiator() {
        // Classifier∘instantiator must be the identity on frame codes —
        // otherwise debugging-time lookups would miss the database.
        let g = figure1_frames();
        for f in &g.frames {
            if let Some(inputs) = arrsum_instantiator(f, 10) {
                let code = arrsum_frame_selector(&inputs).unwrap();
                assert_eq!(code, f.code(), "classifier disagrees for {f}");
            }
        }
    }

    #[test]
    fn frame_selector_on_the_paper_query() {
        // §8: the query arrsum(In [1,2], In 2, Out 3) classifies as
        // (two, positive, small).
        let inputs = vec![vec![1, 2].into(), Value::Int(2), Value::Int(0)];
        assert_eq!(
            arrsum_frame_selector(&inputs).unwrap(),
            "two.positive.small"
        );
    }

    #[test]
    fn db_verdicts() {
        let mut db = TestDb::new("u");
        assert!(db.is_empty());
        db.add(TestReport {
            code: "a".into(),
            inputs: vec![Value::Int(1)],
            outputs: vec![],
            passed: true,
        });
        db.add(TestReport {
            code: "a".into(),
            inputs: vec![Value::Int(2)],
            outputs: vec![],
            passed: false,
        });
        db.add(TestReport {
            code: "b".into(),
            inputs: vec![],
            outputs: vec![],
            passed: true,
        });
        assert_eq!(db.frame_verdict("a"), Some(false));
        assert_eq!(db.frame_verdict("b"), Some(true));
        assert_eq!(db.frame_verdict("c"), None);
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn add_dedupes_same_code_and_inputs_keeping_latest_verdict() {
        // Regression: repeated `run_cases_batch` calls over one database
        // used to pile up duplicate reports for identical case inputs.
        let mut db = TestDb::new("u");
        let report = |passed| TestReport {
            code: "a".into(),
            inputs: vec![Value::Int(7)],
            outputs: vec![Value::Int(14)],
            passed,
        };
        db.add(report(true));
        db.add(report(true));
        assert_eq!(db.len(), 1, "identical report must not duplicate");
        db.add(report(false));
        assert_eq!(db.len(), 1);
        assert_eq!(db.frame_verdict("a"), Some(false), "latest verdict wins");
        // Different inputs under the same code remain distinct reports.
        db.add(TestReport {
            inputs: vec![Value::Int(8)],
            ..report(true)
        });
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn rerunning_cases_into_one_db_does_not_duplicate() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let g = figure1_frames();
        let cases = instantiate_cases(&g, |f| arrsum_instantiator(f, 2));
        let once = run_cases_batch(
            2,
            Engine::default(),
            &m,
            "arrsum",
            &cases,
            &arrsum_oracle,
            None,
            &mut gadt_obs::Recorder::disabled(),
        )
        .unwrap();
        let mut twice = once.clone();
        for (_, reports) in once.iter() {
            for r in reports {
                twice.add(r.clone());
            }
        }
        assert_eq!(once, twice);
    }

    #[test]
    fn db_persists_and_loads_through_the_store() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let g = figure1_frames();
        let cases = instantiate_cases(&g, |f| arrsum_instantiator(f, 2));
        let db = run_cases(&m, "arrsum", &cases, &|i, r| arrsum_oracle(i, r)).unwrap();

        let dir = gadt_store::TempDir::new("tgen-persist");
        let mut store = gadt_store::KnowledgeStore::open(dir.path()).unwrap();
        assert_eq!(db.persist(&mut store).unwrap(), db.len());
        // Idempotent: persisting again writes nothing.
        assert_eq!(db.persist(&mut store).unwrap(), 0);

        let loaded = TestDb::load_from(&store, "ArrSum");
        assert_eq!(loaded, db);
        assert_eq!(TestDb::load_from(&store, "nosuch").len(), 0);
    }

    #[test]
    fn unknown_unit_is_an_error() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let err = run_cases(&m, "nosuch", &[], &|_, _| true).unwrap_err();
        assert_eq!(err.message, "unit `nosuch` not found");
    }
}
