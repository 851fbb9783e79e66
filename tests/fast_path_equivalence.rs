//! Fast-path equivalence suite: the monitor-free fast path must be
//! *result-identical* to a monitored run with a no-op monitor — same
//! output, step count, final globals, and (for failing programs) the
//! same error, byte for byte — on **both** engines.
//!
//! Subjects: every curated paper fixture, every committed
//! corpus-regression reproducer, a 2000-seed generated-corpus sweep,
//! every mutant of the benchmark campaign's subjects (runaways
//! included), and isolated procedure runs. A separate test pins
//! campaign invariance:
//! the two-stage kill check (fast crash screen → traced run) must leave
//! kill verdicts and `CampaignSummary` fingerprints unchanged at 1, 2,
//! and 8 worker threads.

use gadt_corpus::gen::{generate, GenConfig};
use gadt_corpus::{corpus_subjects, CorpusCampaignConfig};
use gadt_mutate::{apply, enumerate_sites, run_campaign, CampaignConfig, CampaignProgram};
use gadt_pascal::cfg::lower;
use gadt_pascal::interp::{Limits, NoopMonitor, Outcome};
use gadt_pascal::parser::parse_program;
use gadt_pascal::pretty::print_program;
use gadt_pascal::sema::{compile, Module, MAIN_PROC};
use gadt_pascal::testprogs;
use gadt_pascal::types::Type;
use gadt_pascal::value::Value;
use gadt_transform::transform;
use gadt_vm::{Engine, PreparedEngine};
use std::collections::BTreeMap;

/// Shared input queue: enough values to satisfy any fixture's `read`s.
fn input() -> Vec<Value> {
    [3, 5, 2, 7, 1, 4, 6, 8].map(Value::Int).to_vec()
}

/// Curated fixtures plus every committed corpus-regression reproducer.
fn subjects() -> Vec<(String, String)> {
    let mut subs: Vec<(String, String)> = testprogs::ALL
        .iter()
        .map(|(n, s)| ((*n).to_string(), (*s).to_string()))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus_regressions");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus_regressions must exist")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "pas"))
        .collect();
    paths.sort();
    for p in paths {
        let name = p
            .file_stem()
            .expect("file stem")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&p).expect("readable reproducer");
        subs.push((name, src));
    }
    subs
}

/// Asserts that `run_fast` and `run_with(NoopMonitor)` agree on one
/// prepared engine — outcome fields or error text, byte for byte — and
/// returns the fast result as text, for comparisons across engines.
fn assert_fast_matches_monitored(
    name: &str,
    engine: &PreparedEngine<'_>,
    input: &[Value],
    limits: Limits,
) -> String {
    let fast = engine.run_fast(input.to_vec(), limits);
    let slow = engine.run_with(input.to_vec(), limits, &mut NoopMonitor);
    match (&fast, &slow) {
        (Ok(f), Ok(s)) => {
            let tag = format!("{name} [{}]", engine.engine());
            assert_eq!(f.output_text(), s.output_text(), "{tag}: output");
            assert_eq!(f.steps, s.steps, "{tag}: steps");
            assert_eq!(f.globals, s.globals, "{tag}: globals");
        }
        (Err(f), Err(s)) => {
            assert_eq!(
                f.to_string(),
                s.to_string(),
                "{name} [{}]: error text",
                engine.engine()
            );
        }
        _ => panic!(
            "{name} [{}]: outcome kind diverges: fast {fast:?} vs monitored {slow:?}",
            engine.engine()
        ),
    }
    match fast {
        Ok(o) => result_text(&o),
        Err(e) => format!("error: {e}"),
    }
}

/// An outcome as text, globals in name order.
fn result_text(o: &Outcome) -> String {
    let globals: BTreeMap<_, _> = o.globals.iter().collect();
    format!("steps {}\n{:?}\n{globals:?}", o.steps, o.output_text())
}

#[test]
fn fast_path_matches_monitored_on_fixtures() {
    for (name, src) in subjects() {
        let module = compile(&src).expect(&name);
        let cfg = lower(&module);
        for eng in [Engine::TreeWalker, Engine::Vm] {
            let engine = PreparedEngine::new(&module, &cfg, eng);
            assert_fast_matches_monitored(&name, &engine, &input(), Limits::default());
        }
    }
}

/// Step-limit exhaustion must produce the identical error on the fast
/// path — the screen-then-trace campaign design depends on it.
#[test]
fn fast_path_matches_monitored_on_limit_exhaustion() {
    for (name, src) in subjects() {
        let module = compile(&src).expect(&name);
        let cfg = lower(&module);
        let tight = Limits {
            max_steps: 7,
            ..Limits::default()
        };
        for eng in [Engine::TreeWalker, Engine::Vm] {
            let engine = PreparedEngine::new(&module, &cfg, eng);
            assert_fast_matches_monitored(&name, &engine, &input(), tight);
        }
    }
}

/// Isolated procedure runs (the T-GEN verdict path): `run_proc_fast`
/// agrees with the monitored entry point on result and error alike.
#[test]
fn fast_proc_runs_match_monitored() {
    fn sample_args(module: &Module, params: &[gadt_pascal::sema::VarId]) -> Vec<Value> {
        params
            .iter()
            .enumerate()
            .map(|(i, &p)| match &module.var(p).ty {
                Type::Integer => Value::Int(i as i64 + 2),
                Type::Real => Value::Real(1.5),
                Type::Boolean => Value::Bool(true),
                ty => Value::zero_of(ty),
            })
            .collect()
    }
    let mut covered = 0usize;
    for (name, src) in subjects() {
        let module = compile(&src).expect(&name);
        let cfg = lower(&module);
        for eng in [Engine::TreeWalker, Engine::Vm] {
            let engine = PreparedEngine::new(&module, &cfg, eng);
            for info in &module.procs {
                if info.id == MAIN_PROC || info.parent != Some(MAIN_PROC) {
                    continue;
                }
                let args = sample_args(&module, &info.params);
                let fast = engine.run_proc_fast(info.id, args.clone(), Limits::default());
                let slow = engine.run_proc_with(info.id, args, Limits::default(), &mut NoopMonitor);
                let tag = format!("{name} [{eng}] proc {}", info.name);
                match (&fast, &slow) {
                    (Ok(f), Ok(s)) => assert_eq!(format!("{f:?}"), format!("{s:?}"), "{tag}"),
                    (Err(f), Err(s)) => assert_eq!(f.to_string(), s.to_string(), "{tag}"),
                    _ => panic!("{tag}: outcome kind diverges: {fast:?} vs {slow:?}"),
                }
                covered += 1;
            }
        }
    }
    assert!(covered > 40, "only {covered} procedure runs covered");
}

/// 2000 generated programs: the fast path agrees with the monitored
/// path on both engines for every seed. This is the wide net — the
/// generator covers gotos, nested procedures, var params, arrays and
/// runaway-guard fuel patterns the curated fixtures do not combine.
#[test]
fn fast_path_matches_monitored_on_generated_corpus() {
    let config = GenConfig::default();
    for seed in 0..2000u64 {
        let p = generate(seed, &config);
        let module = compile(&p.source).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let cfg = lower(&module);
        for eng in [Engine::TreeWalker, Engine::Vm] {
            let engine = PreparedEngine::new(&module, &cfg, eng);
            assert_fast_matches_monitored(
                &format!("seed {seed}"),
                &engine,
                &p.input,
                Limits::default(),
            );
        }
    }
}

/// Every mutant of the benchmark campaign's subjects (generator seeds
/// 5–7), printed and compiled as the campaign does, with its subject's
/// input. Stillborn mutants are left out.
fn campaign_mutants() -> Vec<(String, String, Vec<Value>)> {
    let subjects = corpus_subjects(&CorpusCampaignConfig {
        start_seed: 5,
        programs: 3,
        ..CorpusCampaignConfig::default()
    });
    let mut mutants = Vec::new();
    for p in subjects {
        let ast = parse_program(&p.source).expect("subject parses");
        for site in enumerate_sites(&ast) {
            let mutant = apply(&ast, &site).expect("enumerated site applies");
            let name = format!("{} {} #{}", p.name, site.op, site.ordinal);
            mutants.push((name, print_program(&mutant), p.input.clone()));
        }
    }
    mutants
}

/// The campaign's crash screen on every one of its mutants, runaways
/// included: the fast path agrees with the monitored run on both
/// engines, and the two engines agree with each other, on the mutant as
/// compiled and on its §6 transform (what the campaign screens). The
/// budget is a tenth of the campaign's, enough for every runaway to
/// run away: the VM stops those that repeat a state early, with the
/// same error.
#[test]
fn fast_path_matches_monitored_on_campaign_mutants() {
    let limits = Limits {
        max_steps: 20_000,
        max_depth: 64,
    };
    let (mut runs, mut runaways) = (0, 0);
    for (name, src, input) in campaign_mutants() {
        let Ok(module) = compile(&src) else { continue };
        let transformed = transform(&module).ok().map(|t| t.module);
        for (tag, m) in [
            ("", Some(&module)),
            (" (transformed)", transformed.as_ref()),
        ] {
            let Some(m) = m else { continue };
            let cfg = lower(m);
            let name = format!("{name}{tag}");
            let [tree, vm] = [Engine::TreeWalker, Engine::Vm].map(|eng| {
                let engine = PreparedEngine::new(m, &cfg, eng);
                assert_fast_matches_monitored(&name, &engine, &input, limits)
            });
            assert_eq!(tree, vm, "{name}: engines diverge");
            runs += 1;
            runaways += usize::from(vm.contains("step limit of 20000 exceeded"));
        }
    }
    assert!(runs > 1700, "only {runs} mutant runs");
    assert!(runaways >= 42, "only {runaways} runaway runs");
}

/// The campaign's two-stage kill check (monitor-free crash screen, then
/// the traced pipeline) must leave verdicts and fingerprints exactly
/// where they were: identical across 1, 2, and 8 worker threads, with
/// crashed mutants actually classified (the screen must not eat them).
#[test]
fn campaign_verdicts_and_fingerprints_are_thread_invariant() {
    let programs = vec![
        CampaignProgram::new("pqr", testprogs::PQR_FIXED),
        CampaignProgram::new("sqrtest", testprogs::SQRTEST_FIXED),
    ];
    let run = |threads: usize| {
        let config = CampaignConfig {
            threads,
            max_mutants: 24,
            ..CampaignConfig::default()
        };
        run_campaign(&programs, &config).expect("campaign")
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one.fingerprint(), two.fingerprint());
    assert_eq!(one.fingerprint(), eight.fingerprint());
    assert_eq!(one.total(), 24);
    // The sample reliably contains observably-killed mutants; the crash
    // screen must leave localization intact.
    assert!(one.localized() > 0, "{}", one.fingerprint());
}
