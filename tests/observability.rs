//! End-to-end checks of the structured observability layer: exact
//! counter values for the golden §8 sqrtest session, JSON-lines journal
//! validity, and thread-count invariance of campaign journals.

use gadt::oracle::{ChainOracle, ReferenceOracle};
use gadt::session;
use gadt::testlookup::TestLookup;
use gadt::DebugConfig;
use gadt_mutate::campaign::{run_campaign, CampaignConfig, CampaignProgram};
use gadt_obs::{Journal, Recorder};
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_tgen::{cases, frames, spec};

/// Runs the paper's §8 session (sqrtest, arrsum test database, simulated
/// user via reference oracle) under one recorder and returns the journal.
fn golden_sqrtest_journal() -> Journal {
    let m = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();

    let mut rec = Recorder::new();
    let prepared = session::prepare_observed(m.clone(), &mut rec).unwrap();
    let runs = session::run_traced_batch(&prepared, vec![vec![]], 1, &mut rec).unwrap();

    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let db = cases::run_cases_batch(
        1,
        session::Engine::default(),
        &m,
        "arrsum",
        &tc,
        &cases::arrsum_oracle,
        None,
        &mut rec,
    )
    .unwrap();
    let mut lookup = TestLookup::new();
    lookup.register("arrsum", db, Box::new(cases::arrsum_frame_selector));

    let mut chain = ChainOracle::new();
    chain.push(lookup);
    chain.push(ReferenceOracle::new(&fixed, []).unwrap());

    let out = session::debug_observed(
        &prepared,
        &runs[0],
        &mut chain,
        DebugConfig::default(),
        None,
        &mut rec,
    );
    assert_eq!(out.total_queries(), 7, "{}", out.render_transcript());
    rec.finish()
}

/// The golden session's counters, pinned exactly. Any change to how the
/// pipeline asks questions, slices, or traces must update these numbers
/// consciously.
#[test]
fn golden_sqrtest_session_pins_exact_counters() {
    let journal = golden_sqrtest_journal();

    // Phase III: 7 oracle questions — 1 answered by the test database,
    // 6 by the simulated user (reference oracle) — and 2 slices taken.
    assert_eq!(journal.counter("debug.questions"), 7);
    assert_eq!(
        journal.counter("debug.questions.by_source.test_database"),
        1
    );
    assert_eq!(
        journal.counter("debug.questions.by_source.simulated_user_reference_implementation"),
        6
    );
    assert_eq!(journal.counter("debug.slices"), 2);

    // Phase II: one traced run, 32 trace events over 14 dynamic calls
    // and 1 loop body, folded into a 15-node execution tree.
    assert_eq!(journal.counter("trace.runs"), 1);
    assert_eq!(journal.counter("trace.events"), 32);
    assert_eq!(journal.counter("trace.calls"), 14);
    assert_eq!(journal.counter("trace.loops"), 1);
    assert_eq!(journal.counter("tree.built"), 1);
    assert_eq!(journal.counter("tree.nodes"), 15);

    // Phase I: sqrtest's units already pass everything by parameter, so
    // the fixpoint is quiescent after a single round and grows nothing.
    assert_eq!(journal.counter("transform.rounds"), 1);
    assert_eq!(journal.counter("transform.added_params"), 0);
    assert_eq!(journal.counter("transform.synthetic_stmts"), 0);

    // The T-GEN database build journals its cases and verdicts: the
    // arrsum catalogue instantiates 4 cases, all passing.
    assert_eq!(journal.counter("tgen.cases"), 4);
    assert_eq!(journal.counter("tgen.passed"), 4);
    assert_eq!(journal.counter("tgen.failed"), 0);

    // One span pair per phase, in pipeline order.
    assert_eq!(journal.events_named("transform").count(), 2);
    assert_eq!(journal.events_named("trace").count(), 2);
    assert_eq!(journal.events_named("debug").count(), 2);
    // 7 question events, one per oracle query.
    assert_eq!(journal.events_named("question").count(), 7);
}

/// The golden session's whole journal, every event and counter, pinned
/// by a digest of its fingerprint (the timing-free serialization). On a
/// mismatch the assertion prints the fingerprint it got.
#[test]
fn golden_journal_fingerprint_is_pinned() {
    let fp = golden_sqrtest_journal().fingerprint();
    let digest = fp.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(format!("{digest:016x}"), "cd7164445a82af4e", "{fp}");
}

/// Every journal line must be valid JSON (checked by the std-only
/// validator — no serde in the tree).
#[test]
fn golden_journal_serializes_to_valid_json_lines() {
    let journal = golden_sqrtest_journal();
    let lines = journal.to_json_lines();
    assert!(!lines.is_empty());
    for line in lines.lines() {
        gadt_obs::json::validate(line).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e:?}"));
    }
}

/// A fixed-seed campaign journal is byte-identical at 1, 2, and 8
/// worker threads: wall-clock lives only in the journal's time fields,
/// which the fingerprint excludes.
#[test]
fn campaign_journal_is_thread_count_invariant() {
    let programs = vec![CampaignProgram::new("sqrtest", testprogs::SQRTEST_FIXED)];
    let journal_at = |threads: usize| -> Journal {
        let config = CampaignConfig {
            seed: 77,
            max_mutants: 10,
            threads,
            ..CampaignConfig::default()
        };
        run_campaign(&programs, &config).unwrap().journal()
    };
    let one = journal_at(1);
    let two = journal_at(2);
    let eight = journal_at(8);
    assert_eq!(one.fingerprint(), two.fingerprint(), "1 vs 2 threads");
    assert_eq!(one.fingerprint(), eight.fingerprint(), "1 vs 8 threads");
    assert_eq!(one.counter("campaign.mutants"), 10);
    assert!(one.counter("with_slicing.debug.questions") > 0);
}
