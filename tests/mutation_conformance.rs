//! Conformance harness for the mutation-based fault-injection engine:
//! a fixed-seed campaign across three known-good testprogs must be
//! localized accurately, deterministically at any thread count, and
//! with slicing saving questions on most mutants.

use gadt::session::Engine;
use gadt_corpus::{
    corpus_campaign, corpus_campaign_with_store, distribution_key, CorpusCampaignConfig,
};
use gadt_mutate::campaign::{run_campaign, CampaignConfig, CampaignProgram};
use gadt_mutate::operators::MutOp;
use gadt_mutate::report::{CampaignSummary, MutantStatus};
use gadt_obs::Recorder;
use gadt_pascal::testprogs;
use gadt_store::{KnowledgeStore, TempDir};
use std::collections::BTreeSet;

fn campaign_programs() -> Vec<CampaignProgram> {
    vec![
        CampaignProgram::new("sqrtest", testprogs::SQRTEST_FIXED),
        CampaignProgram::new("pqr", testprogs::PQR_FIXED),
        CampaignProgram::new("multichain", testprogs::MULTICHAIN),
    ]
}

fn full_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 2026,
        max_mutants: 0,
        threads,
        ..CampaignConfig::default()
    }
}

fn run_full(threads: usize) -> CampaignSummary {
    run_campaign(&campaign_programs(), &full_config(threads)).expect("golden programs are good")
}

fn run_full_on(engine: Engine, threads: usize) -> CampaignSummary {
    let config = CampaignConfig {
        engine,
        ..full_config(threads)
    };
    run_campaign(&campaign_programs(), &config).expect("golden programs are good")
}

/// The bytecode VM is a drop-in engine for the campaign: the full-run
/// fingerprint *and* the merged journal are byte-identical to the
/// tree-walker's, at 1, 2, and 8 worker threads. (Verdict keys ignore
/// the engine precisely because of this invariance.)
#[test]
fn full_campaign_is_engine_invariant_at_any_thread_count() {
    let tree = run_full(1);
    let tree_journal = tree.journal().fingerprint();
    for threads in [1, 2, 8] {
        let vm = run_full_on(Engine::Vm, threads);
        assert_eq!(
            tree.fingerprint(),
            vm.fingerprint(),
            "vm fingerprint diverges at {threads} threads"
        );
        assert_eq!(
            tree_journal,
            vm.journal().fingerprint(),
            "vm journal diverges at {threads} threads"
        );
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Digest of the full campaign's fingerprint, every report's
/// `render_line` (status, blamed unit, question counts, description).
const PINNED_CAMPAIGN_FINGERPRINT: u64 = 0x1971_7ff1_5696_3d0e;
/// Digest of the full campaign's merged journal fingerprint.
const PINNED_CAMPAIGN_JOURNAL: u64 = 0xc0e4_c765_5ac3_8b6a;

/// The other tests compare thread counts and engines with each other;
/// this one pins the absolute result, so a faster transform, parser or
/// analysis that changes any verdict, count or description fails here.
#[test]
fn full_campaign_fingerprints_are_pinned() {
    let summary = run_full(0);
    let fingerprint = fnv1a(&summary.fingerprint());
    let journal = fnv1a(&summary.journal().fingerprint());
    assert_eq!(
        (fingerprint, journal),
        (PINNED_CAMPAIGN_FINGERPRINT, PINNED_CAMPAIGN_JOURNAL),
        "actual digests ({fingerprint:#018x}, {journal:#018x})"
    );
}

/// Digest of the fingerprint of every mutant of generator seeds 5–7.
const PINNED_GENERATED_FINGERPRINT: u64 = 0x03da_6fcb_5a20_0af2;
/// Digest of the same campaign's merged journal fingerprint.
const PINNED_GENERATED_JOURNAL: u64 = 0x2447_8c7f_7567_19ce;

/// The benchmark's `campaign` subjects (generator seeds 5–7, here with
/// their generated inputs) under the default config, every mutant run:
/// the workload whose time the in-memory mutant materialization cuts
/// must keep every verdict, count and journal counter.
#[test]
fn generated_seed_campaign_fingerprints_are_pinned() {
    let config = CorpusCampaignConfig {
        start_seed: 5,
        programs: 3,
        ..CorpusCampaignConfig::default()
    };
    let summary = corpus_campaign(&config).expect("corpus subjects are golden");
    let fingerprint = fnv1a(&summary.fingerprint());
    let journal = fnv1a(&summary.journal().fingerprint());
    assert_eq!(
        (fingerprint, journal),
        (PINNED_GENERATED_FINGERPRINT, PINNED_GENERATED_JOURNAL),
        "actual digests ({fingerprint:#018x}, {journal:#018x}) over {} mutants",
        summary.total()
    );
}

/// The headline acceptance bar: ≥ 100 mutants over ≥ 3 programs, ≥ 90%
/// exact-unit localization, and slicing strictly fewer questions than the
/// unpruned search on at least half the localized mutants — all from one
/// fixed seed, byte-identical at 1, 2, and 8 worker threads.
#[test]
fn full_campaign_meets_conformance_bar_and_is_thread_deterministic() {
    let one = run_full(1);
    let two = run_full(2);
    let eight = run_full(8);
    assert_eq!(one.fingerprint(), two.fingerprint(), "1 vs 2 threads");
    assert_eq!(one.fingerprint(), eight.fingerprint(), "1 vs 8 threads");

    let programs: BTreeSet<&str> = one.reports.iter().map(|r| r.program.as_str()).collect();
    assert!(programs.len() >= 3, "campaign spans {programs:?}");
    assert!(one.total() >= 100, "only {} mutants", one.total());

    let accuracy = one.accuracy().expect("campaign localized mutants");
    assert!(
        accuracy >= 0.90,
        "exact-unit localization {:.1}% below the 90% bar:\n{}",
        accuracy * 100.0,
        misses(&one)
    );
    assert!(
        2 * one.strictly_fewer() >= one.localized(),
        "slicing saved questions on only {}/{} mutants",
        one.strictly_fewer(),
        one.localized()
    );
    let with = one.mean_questions_with_slicing().unwrap();
    let without = one.mean_questions_without_slicing().unwrap();
    assert!(
        with < without,
        "mean questions with slicing ({with:.2}) not below without ({without:.2})"
    );
}

/// Omission faults (deleted assignments) historically defeated dynamic
/// slicing: the deleted write leaves no dependence edge, so a naive slice
/// prunes away the faulty unit. The slicer compensates by keeping every
/// candidate writer of an undefined location; this pins that every
/// localized deleted-assignment mutant is blamed on exactly its unit.
#[test]
fn deleted_assignments_are_localized_exactly() {
    let summary = run_full(0);
    for r in &summary.reports {
        if r.op != MutOp::DeleteAssign {
            continue;
        }
        if let MutantStatus::Localized { unit, exact, .. } = &r.status {
            assert!(
                exact,
                "omission fault in `{}` blamed on `{}`: {}",
                r.mutated_unit,
                unit,
                r.render_line()
            );
        }
    }
}

/// The bounded smoke tier `ci.sh` runs: a seeded subsample must stay
/// deterministic and keep the same localization quality.
#[test]
fn bounded_smoke_campaign_is_deterministic_and_accurate() {
    let config = CampaignConfig {
        seed: 2026,
        max_mutants: 50,
        threads: 0,
        ..CampaignConfig::default()
    };
    let a = run_campaign(&campaign_programs(), &config).expect("golden programs are good");
    let b = run_campaign(&campaign_programs(), &config).expect("golden programs are good");
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "smoke tier must be stable"
    );
    assert_eq!(a.total(), 50);
    assert!(a.localized() > 0, "{}", a.render());
    let accuracy = a.accuracy().expect("smoke campaign localized mutants");
    assert!(
        accuracy >= 0.90,
        "smoke accuracy {:.1}%:\n{}",
        accuracy * 100.0,
        misses(&a)
    );
}

/// Corpus tier: the same conformance harness, scaled from three
/// hand-written subjects to a generated corpus worth thousands of
/// mutants. A fixed-seed subsample keeps the runtime bounded while
/// staying far above the 2000-mutant floor.
fn corpus_config(threads: usize) -> CorpusCampaignConfig {
    CorpusCampaignConfig {
        start_seed: 0,
        programs: 24,
        campaign: CampaignConfig {
            seed: 2026,
            max_mutants: 2500,
            threads,
            // Half the default budget: generated mutants that loop forever
            // dominate the runtime, and exhaustion classifies identically.
            max_steps: 100_000,
            ..CampaignConfig::default()
        },
        ..CorpusCampaignConfig::default()
    }
}

/// ≥ 2000 mutants over generated programs, byte-identical at 1, 2, and
/// 8 worker threads, with localization quality in the expected band.
#[test]
fn corpus_tier_scales_and_is_thread_invariant() {
    let one = corpus_campaign(&corpus_config(1)).expect("corpus subjects are golden");
    let two = corpus_campaign(&corpus_config(2)).expect("corpus subjects are golden");
    let eight = corpus_campaign(&corpus_config(8)).expect("corpus subjects are golden");
    assert_eq!(one.fingerprint(), two.fingerprint(), "1 vs 2 threads");
    assert_eq!(one.fingerprint(), eight.fingerprint(), "1 vs 8 threads");

    assert!(one.total() >= 2000, "only {} mutants", one.total());
    let programs: BTreeSet<&str> = one.reports.iter().map(|r| r.program.as_str()).collect();
    assert!(programs.len() >= 20, "campaign spans only {programs:?}");
    assert!(one.localized() >= 100, "only {} localized", one.localized());
    // Generated programs localize less cleanly than the curated
    // testprogs (multi-statement data flow through globals); the band
    // below is the measured baseline with slack, not the 90% bar.
    let accuracy = one.accuracy().expect("corpus campaign localized mutants");
    assert!(
        accuracy >= 0.60,
        "corpus exact-unit localization collapsed to {:.1}%",
        accuracy * 100.0
    );
    assert!(
        one.strictly_fewer() > 0,
        "slicing saved questions on no corpus mutant"
    );
}

/// The store-backed corpus campaign persists its accuracy distribution
/// under the fingerprint-addressed key and journals its headline
/// counters; a second run over the same corpus reuses stored verdicts.
#[test]
fn corpus_campaign_persists_distribution_and_reuses_verdicts() {
    let config = CorpusCampaignConfig {
        start_seed: 0,
        programs: 6,
        campaign: CampaignConfig {
            seed: 2026,
            max_mutants: 400,
            threads: 4,
            max_steps: 100_000,
            ..CampaignConfig::default()
        },
        ..CorpusCampaignConfig::default()
    };
    let dir = TempDir::new("corpus-campaign-store");
    let store = KnowledgeStore::open(dir.path()).unwrap().into_shared();

    let mut rec = Recorder::new();
    let summary =
        corpus_campaign_with_store(&config, &store, &mut rec).expect("corpus subjects are golden");
    let journal = rec.finish();
    assert_eq!(journal.counter("corpus.mutants"), summary.total() as u64);
    assert_eq!(
        journal.counter("corpus.localized"),
        summary.localized() as u64
    );

    // The persisted distribution is addressable and reconciles with the
    // in-memory summary.
    let key = distribution_key(&config);
    let stored = store
        .lock()
        .unwrap()
        .lookup_verdict(&key)
        .expect("distribution persisted");
    let int = |field: &str| stored.get(field).and_then(|j| j.as_int()).unwrap();
    assert_eq!(int("mutants"), summary.total() as i64);
    assert_eq!(int("localized"), summary.localized() as i64);
    assert_eq!(int("exact"), summary.exact() as i64);

    // Re-running the identical campaign against the same store answers
    // from persisted verdicts and reproduces the summary bit-for-bit.
    let before_hits = store.lock().unwrap().verdict_hits();
    let mut rec2 = Recorder::disabled();
    let again =
        corpus_campaign_with_store(&config, &store, &mut rec2).expect("corpus subjects are golden");
    assert_eq!(
        again.fingerprint(),
        summary.fingerprint(),
        "cached re-run diverged"
    );
    assert!(
        store.lock().unwrap().verdict_hits() > before_hits,
        "second run did not reuse stored verdicts"
    );
}

fn misses(summary: &CampaignSummary) -> String {
    summary
        .reports
        .iter()
        .filter(|r| matches!(r.status, MutantStatus::Localized { exact: false, .. }))
        .map(|r| r.render_line())
        .collect::<Vec<_>>()
        .join("\n")
}
