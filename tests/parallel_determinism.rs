//! Determinism harness for the parallel batch engine: every parallel
//! entry point must produce byte-identical results to its sequential
//! counterpart at any thread count. Thread counts 1, 2 and 8 cover the
//! inline fast path, minimal contention, and more workers than cores.

use gadt::session::{prepare, run_traced, run_traced_batch, Engine};
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_pascal::value::Value;
use gadt_tgen::{cases, frames, spec};

const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn tgen_case_runs_are_thread_count_invariant() {
    let m = compile(testprogs::SQRTEST).unwrap();
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let oracle = |ins: &[Value], r: &gadt_pascal::interp::ProcRun| cases::arrsum_oracle(ins, r);
    let seq = cases::run_cases(&m, "arrsum", &tc, &oracle).unwrap();
    // Both engines build the identical database at every thread count.
    for engine in ENGINES {
        for threads in THREADS {
            let mut rec = Recorder::disabled();
            let par =
                cases::run_cases_batch(threads, engine, &m, "arrsum", &tc, &oracle, None, &mut rec)
                    .unwrap();
            assert_eq!(seq, par, "{engine:?} TestDb diverges at {threads} threads");
        }
    }
}

/// The knowledge store is byte-deterministic under parallel writers:
/// T-GEN batch persistence and a store-backed mutation campaign funnel
/// through the serialized appender, so the on-disk fingerprint is
/// identical at every thread count.
#[test]
fn knowledge_store_bytes_are_thread_count_invariant() {
    use gadt_mutate::{run_campaign_with_store, CampaignConfig, CampaignProgram};
    use gadt_store::{KnowledgeStore, TempDir};

    let m = compile(testprogs::SQRTEST).unwrap();
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let oracle = |ins: &[Value], r: &gadt_pascal::interp::ProcRun| cases::arrsum_oracle(ins, r);
    let programs = vec![CampaignProgram::new("pqr", testprogs::PQR_FIXED)];

    let mut fingerprints = Vec::new();
    for threads in THREADS {
        let dir = TempDir::new("det-store");
        let shared = KnowledgeStore::open(dir.path()).unwrap().into_shared();
        let mut rec = Recorder::disabled();
        let store = Some(&shared);
        cases::run_cases_batch(
            threads,
            Engine::default(),
            &m,
            "arrsum",
            &tc,
            &oracle,
            store,
            &mut rec,
        )
        .unwrap();
        let config = CampaignConfig {
            max_mutants: 6,
            threads,
            ..Default::default()
        };
        run_campaign_with_store(&programs, &config, &shared).unwrap();
        let mut guard = shared.lock().unwrap();
        guard.sync().unwrap();
        fingerprints.push((guard.disk_fingerprint().unwrap(), guard.wal_records()));
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "store bytes diverge at 2 threads"
    );
    assert_eq!(
        fingerprints[0], fingerprints[2],
        "store bytes diverge at 8 threads"
    );
}

#[test]
fn batch_tracing_matches_sequential_tracing() {
    let src = "program t; var n, i, s: integer;
         procedure step(x: integer; var acc: integer);
         begin acc := acc + x * x end;
         begin read(n); s := 0; for i := 1 to n do step(i, s); writeln(s) end.";
    let m = compile(src).unwrap();
    let prepared = prepare(&m).unwrap();
    let inputs: Vec<Vec<Value>> = (1..=12).map(|n| vec![Value::Int(n)]).collect();
    let seq: Vec<_> = inputs
        .iter()
        .map(|i| run_traced(&prepared, i.clone()).unwrap())
        .collect();
    for threads in THREADS {
        let par = run_traced_batch(
            &prepared,
            inputs.clone(),
            threads,
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(par.len(), seq.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.output, p.output);
            assert_eq!(s.trace.events.len(), p.trace.events.len());
            assert_eq!(s.tree.render(s.tree.root), p.tree.render(p.tree.root));
        }
    }
    // Engine axis: the same batch on the shared compiled bytecode must
    // reproduce the tree-walker's sequential traces at any thread count.
    let vm_prepared = prepare(&m).unwrap().with_engine(Engine::Vm);
    for threads in THREADS {
        let par = run_traced_batch(
            &vm_prepared,
            inputs.clone(),
            threads,
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(par.len(), seq.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(
                s.output, p.output,
                "VM output diverges at {threads} threads"
            );
            assert_eq!(s.trace.events.len(), p.trace.events.len());
            assert_eq!(s.tree.render(s.tree.root), p.tree.render(p.tree.root));
        }
    }
}

#[test]
fn trace_batch_reports_timings_and_matches_sequential() {
    let m = compile(
        "program t; var n, r: integer;
         function sq(x: integer): integer; begin sq := x * x end;
         begin read(n); r := sq(n); writeln(r) end.",
    )
    .unwrap();
    let inputs: Vec<Vec<Value>> = (1..=6).map(|n| vec![Value::Int(n)]).collect();
    let prepared = prepare(&m).unwrap();
    let (runs, journal) = gadt_repro::Gadt::from_module(m)
        .with_threads(2)
        .transform()
        .unwrap()
        .trace(inputs.clone())
        .unwrap()
        .finish();
    assert_eq!(runs.len(), inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let seq = run_traced(&prepared, input.clone()).unwrap();
        assert_eq!(seq.output, runs[i].output);
    }
    assert!(journal.phase_timings().total() > std::time::Duration::ZERO);
}

// ----------------------------------------------------------------------
// Byte-identity pins for the batch entry points. The digests were taken
// before the entry points were folded into one body each; every thread
// count and both engines must reproduce them. They cover what the
// executor's own unit tests once checked: the lowest-indexed error of a
// failing batch, the journal a failing batch keeps, and
// thread-count invariance. Only the helpers below name the entry
// points, so a signature change touches them and nothing else.
// ----------------------------------------------------------------------

use gadt::session::TracedRun;
use gadt_obs::{Journal, Recorder};
use gadt_store::{KnowledgeStore, SharedStore, TempDir};
use gadt_tgen::cases::{TestCase, TestDb};

const ENGINES: [Engine; 2] = [Engine::TreeWalker, Engine::Vm];

fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn arrsum_oracle(ins: &[Value], run: &gadt_pascal::interp::ProcRun) -> bool {
    cases::arrsum_oracle(ins, run)
}

/// The four capacity-2 arrsum cases of Figure 1's catalogue.
fn arrsum_cases() -> Vec<TestCase> {
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2))
}

/// The four capacity-2 cases with one capacity-3 case inserted at index
/// 2: SQRTEST's `arrsum` takes `array[1..2]`, so that case fails.
fn arrsum_cases_with_a_bad_third() -> Vec<TestCase> {
    let mut tc = arrsum_cases();
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let bad = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 3))
        .into_iter()
        .find(|c| c.code == tc[2].code)
        .unwrap();
    tc.insert(2, bad);
    tc
}

/// The T-GEN batch under an untimed recorder.
fn tgen_journaled(
    engine: Engine,
    threads: usize,
    tc: &[TestCase],
) -> (gadt_pascal::error::Result<TestDb>, Journal) {
    let m = compile(testprogs::SQRTEST).unwrap();
    let mut rec = Recorder::untimed();
    let db = cases::run_cases_batch(
        threads,
        engine,
        &m,
        "arrsum",
        tc,
        &arrsum_oracle,
        None,
        &mut rec,
    );
    (db, rec.finish())
}

/// The T-GEN batch streaming its reports into `store`.
fn tgen_stored(
    engine: Engine,
    threads: usize,
    tc: &[TestCase],
    store: &SharedStore,
) -> gadt_pascal::error::Result<TestDb> {
    let m = compile(testprogs::SQRTEST).unwrap();
    let mut rec = Recorder::disabled();
    let store = Some(store);
    cases::run_cases_batch(
        threads,
        engine,
        &m,
        "arrsum",
        tc,
        &arrsum_oracle,
        store,
        &mut rec,
    )
}

/// The batch tracer under an untimed recorder.
fn traced_journaled(
    prepared: &gadt::session::PreparedProgram,
    inputs: Vec<Vec<Value>>,
    threads: usize,
) -> (gadt_pascal::error::Result<Vec<TracedRun>>, Journal) {
    let mut rec = Recorder::untimed();
    let runs = run_traced_batch(prepared, inputs, threads, &mut rec);
    (runs, rec.finish())
}

/// The store's bytes after `f` wrote through a fresh store.
fn store_bytes_after(f: impl FnOnce(&SharedStore)) -> String {
    let dir = TempDir::new("pin-store");
    let shared = KnowledgeStore::open(dir.path()).unwrap().into_shared();
    f(&shared);
    let guard = shared.lock().unwrap();
    guard.disk_fingerprint().unwrap()
}

const TGEN_DB: &str = "92017296e90aea72";
const TGEN_JOURNAL: &str = "9b043c91bacfa59a";
const TGEN_STORE: &str = "e55efb52f28f9505";

#[test]
fn tgen_batch_results_journals_and_store_bytes_are_pinned() {
    let tc = arrsum_cases();
    for engine in ENGINES {
        for threads in THREADS {
            let at = format!("{engine:?} at {threads} threads");
            let (db, journal) = tgen_journaled(engine, threads, &tc);
            let db = db.unwrap();
            assert_eq!(digest(&format!("{db:?}")), TGEN_DB, "TestDb, {at}");
            let fp = journal.fingerprint();
            assert_eq!(digest(&fp), TGEN_JOURNAL, "journal, {at}:\n{fp}");
            let mut stored = None;
            let bytes = store_bytes_after(|store| {
                stored = Some(tgen_stored(engine, threads, &tc, store).unwrap());
            });
            assert_eq!(stored.as_ref(), Some(&db), "stored TestDb, {at}");
            assert_eq!(bytes, TGEN_STORE, "store bytes, {at}");
        }
    }
}

const BAD_TGEN_ERROR: &str = "runtime error at 0..0: argument for `a` has type \
     `array[1..3] of integer`, expected `array[1..2] of integer`";
const BAD_TGEN_JOURNAL: &str = "e499ebdfc082e3fe";
// Every case but the failing one was appended before the error: the WAL
// holds the same four reports as the passing batch's.
const BAD_TGEN_STORE: &str = "e55efb52f28f9505";

#[test]
fn failing_tgen_batch_keeps_its_error_journal_and_written_prefix() {
    let tc = arrsum_cases_with_a_bad_third();
    for engine in ENGINES {
        for threads in THREADS {
            let at = format!("{engine:?} at {threads} threads");
            let (db, journal) = tgen_journaled(engine, threads, &tc);
            assert_eq!(db.unwrap_err().to_string(), BAD_TGEN_ERROR, "{at}");
            assert_eq!(journal.counter("tgen.cases"), 4, "{at}");
            assert_eq!(journal.counter("tgen.passed"), 4, "{at}");
            let fp = journal.fingerprint();
            assert_eq!(digest(&fp), BAD_TGEN_JOURNAL, "journal, {at}:\n{fp}");
            let bytes = store_bytes_after(|store| {
                let err = tgen_stored(engine, threads, &tc, store).unwrap_err();
                assert_eq!(err.to_string(), BAD_TGEN_ERROR, "stored, {at}");
            });
            assert_eq!(bytes, BAD_TGEN_STORE, "store bytes, {at}");
        }
    }
}

const SUMMER: &str = "program t; var n, s, i: integer;
     begin read(n); s := 0; for i := 1 to n do s := s + i; writeln(s) end.";
const BAD_TRACE_ERROR: &str = "runtime error at 44..51: input exhausted";
const BAD_TRACE_JOURNAL: &str = "29ff6232595c99fb";

#[test]
fn failing_traced_batch_keeps_its_error_and_the_journal_of_its_runs() {
    let m = compile(SUMMER).unwrap();
    let inputs = vec![vec![Value::Int(1)], vec![], vec![Value::Int(3)]];
    for engine in ENGINES {
        let prepared = prepare(&m).unwrap().with_engine(engine);
        for threads in THREADS {
            let at = format!("{engine:?} at {threads} threads");
            let (runs, journal) = traced_journaled(&prepared, inputs.clone(), threads);
            assert_eq!(runs.unwrap_err().to_string(), BAD_TRACE_ERROR, "{at}");
            assert_eq!(journal.counter("trace.runs"), 2, "{at}");
            let fp = journal.fingerprint();
            assert_eq!(digest(&fp), BAD_TRACE_JOURNAL, "journal, {at}:\n{fp}");
        }
    }
}
