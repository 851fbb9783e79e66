//! Allocation budget of a campaign mutant.
//!
//! Runs `run_campaign` on one thread over the benchmark campaign's
//! subjects (the vetted generated programs of generator seed 5, three
//! of them, inputs drawn as the benchmark draws them) and counts every
//! heap allocation the campaign makes, golden set-up included. The
//! mean per mutant must equal [`BUDGET`].
//!
//! The count repeats exactly from run to run, so it guards what timing
//! cannot: a change that brings back a per-identifier `String` or a
//! per-node map fails here even on a machine too noisy to time it. A
//! change that saves allocations fails too, until `BUDGET` is lowered
//! to the count the failure prints, so a saving is recorded and cannot
//! be spent again unnoticed. This file is its own test binary with one
//! test, so nothing else allocates while the campaign is counted.

use gadt::session;
use gadt_corpus::{corpus_subjects, CorpusCampaignConfig, Lcg};
use gadt_mutate::campaign::{run_campaign, CampaignConfig, CampaignProgram};
use gadt_obs::Recorder;
use gadt_pascal::parser::parse_program;
use gadt_pascal::sema::analyze;
use gadt_pascal::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mean allocations per campaign mutant, golden set-up included.
const BUDGET: u64 = 1_523;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Whether `p`'s golden program compiles, transforms and runs traced.
fn golden_runs(p: &CampaignProgram) -> bool {
    let Ok(module) = parse_program(&p.source).and_then(analyze) else {
        return false;
    };
    session::prepare_observed(module, &mut Recorder::disabled())
        .and_then(|prepared| session::run_traced(&prepared, p.input.iter().cloned()))
        .is_ok()
}

/// The benchmark campaign's subjects: generator seeds 5..8, inputs
/// drawn from `Lcg::new(0)` in −9..99, each program keeping its
/// generated row when its golden run fails on the drawn one.
fn subjects() -> Vec<CampaignProgram> {
    let vetted = corpus_subjects(&CorpusCampaignConfig {
        start_seed: 5,
        programs: 3,
        campaign: CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        },
        ..CorpusCampaignConfig::default()
    });
    let mut lcg = Lcg::new(0);
    vetted
        .into_iter()
        .map(|p| {
            let drawn = CampaignProgram {
                input: p
                    .input
                    .iter()
                    .map(|_| Value::Int(lcg.range(-9, 99)))
                    .collect(),
                ..p.clone()
            };
            if golden_runs(&drawn) {
                drawn
            } else {
                p
            }
        })
        .collect()
}

#[test]
fn campaign_mutants_stay_within_their_allocation_budget() {
    let subjects = subjects();
    let config = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = run_campaign(&subjects, &config).expect("golden programs run");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let mutants = summary.total() as u64;
    drop(summary);
    assert!(mutants > 0, "the campaign ran no mutant");
    let mean = allocations / mutants;
    println!(
        "allocation budget: {allocations} allocations over {mutants} mutants, \
         {mean} per mutant (budget {BUDGET})"
    );
    assert!(
        mean <= BUDGET,
        "a campaign mutant makes {mean} allocations, over its budget of {BUDGET}"
    );
    assert!(
        mean >= BUDGET,
        "a campaign mutant makes {mean} allocations, under its budget of {BUDGET}: \
         set BUDGET to {mean}"
    );
}
