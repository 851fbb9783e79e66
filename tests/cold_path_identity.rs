//! Byte-identity pins for the work every cold program pays: parse,
//! semantic analysis, the §6 transformation and control dependence.
//!
//! The digests were taken before those layers were tuned for speed.
//! They cover what users and later phases see: the transformed program
//! as printed, its original↔transformed mapping, every parse
//! diagnostic (message and span), the control dependences the slicers
//! consume, every campaign mutant as printed, the dynamic traces the
//! dependence recorder builds, and the side-effect summaries that drive
//! the §6 transformation and the static slicer. A change to any pin changes
//! observable behaviour; bump one only on purpose and say why in the
//! CHANGELOG.

use gadt_repro::analysis::controldep::{ControlDeps, PostDom};
use gadt_repro::analysis::slice_static::SliceContext;
use gadt_repro::corpus::{corpus_subjects, generate_batch, CorpusCampaignConfig, GenConfig, Lcg};
use gadt_repro::debugging::session::{prepare, run_traced_limited};
use gadt_repro::mutate::{apply, enumerate_sites, materialize};
use gadt_repro::pascal::ast::StmtId;
use gadt_repro::pascal::cfg::{lower, ProcCfg, Terminator};
use gadt_repro::pascal::error::Result as PascalResult;
use gadt_repro::pascal::interp::Limits;
use gadt_repro::pascal::parser::parse_program;
use gadt_repro::pascal::pretty::print_program;
use gadt_repro::pascal::sema::{analyze, compile, Module};
use gadt_repro::pascal::value::Value;
use gadt_repro::testprogs;
use gadt_repro::transform::transform;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn digest(bytes: &[u8]) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, bytes)
}

fn regressions() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus_regressions");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("regression dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pas"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("read regression"))
        })
        .collect()
}

/// `name program-digest mapping-digest`, or the digest of the error.
fn transform_line(name: &str, source: &str) -> String {
    let result = compile(source).and_then(|m| transform(&m));
    match result {
        Ok(t) => format!(
            "{name} {:016x} {:016x}",
            digest(print_program(&t.module.program).as_bytes()),
            digest(format!("{:?}", t.mapping).as_bytes())
        ),
        Err(e) => format!("{name} error {:016x}", digest(e.to_string().as_bytes())),
    }
}

fn assert_lines(pinned: &str, actual: &[String]) {
    let actual = actual.join("\n");
    assert_eq!(
        pinned.trim(),
        actual,
        "transformed programs or mappings changed; actual table:\n{actual}"
    );
}

const PINNED_FIXTURES: &str = "
sqrtest 5306fa4a7d1a1e05 cce60ba52af32b1c
sqrtest_fixed 09931352088516ef cce60ba52af32b1c
figure2 130985a003ab14df cce60ba52af32b1c
pqr c525c676b158dbac cce60ba52af32b1c
pqr_fixed 489b9b32a11a234b cce60ba52af32b1c
figure5 73878ebb0a02e3db cce60ba52af32b1c
section6_globals d3c2a9daa47789c4 53eff917a4f528e2
section6_goto eb87cb27249f9579 cbbb09f481a7786e
section6_loop_goto 3d2a91485f606f44 21e82e39cf6033b8
multichain 6a06843bc6b563bd cce60ba52af32b1c
";

const PINNED_REGRESSIONS: &str = "
dup_whilelab ec28c1dfa538c5dd c78c9333a908c504
fuel_repeat_slice e682864efa6db750 cce60ba52af32b1c
fuel_while_slice cc5c0da4a45928bb cce60ba52af32b1c
goto_exits_for a4970281d9591805 cce60ba52af32b1c
neg_parens 03d37723d5245e2f cce60ba52af32b1c
";

/// Digest of every `transform_line` of corpus seeds 0..500.
const PINNED_CORPUS_0_500: u64 = 0x601a_1244_83ab_fea6;

#[test]
fn transformed_fixtures_are_pinned() {
    let lines: Vec<String> = testprogs::ALL
        .iter()
        .map(|(name, src)| transform_line(name, src))
        .collect();
    assert_lines(PINNED_FIXTURES, &lines);
}

#[test]
fn transformed_regressions_are_pinned() {
    let lines: Vec<String> = regressions()
        .iter()
        .map(|(name, src)| transform_line(name, src))
        .collect();
    assert_lines(PINNED_REGRESSIONS, &lines);
}

#[test]
fn transformed_corpus_is_pinned() {
    let programs = generate_batch(0, 500, &GenConfig::default(), 2);
    let mut hash = digest(b"");
    for p in &programs {
        let line = transform_line(&p.seed.to_string(), &p.source);
        hash = fnv1a(hash, line.as_bytes());
        hash = fnv1a(hash, b"\n");
    }
    assert_eq!(hash, PINNED_CORPUS_0_500, "actual digest {hash:#018x}");
}

/// Printable bytes that stress the lexer and parser: delimiters,
/// operator prefixes, quotes, comment openers and identifier bytes.
const NOISE: &[u8] = b";:=.,()[]{}'+-*/<>^@ \n0123456789abzBEGINend_";

/// Applies one to three seeded byte edits: replace, delete, insert, or
/// truncate.
fn mutate_bytes(source: &str, rng: &mut Lcg) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(4) {
            0 => bytes[at] = *rng.pick(NOISE),
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, *rng.pick(NOISE)),
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8(bytes).expect("edits keep ASCII sources ASCII")
}

/// Digest of the parse result (the AST, or the diagnostic's stage,
/// message and span) of 24 byte-mutated copies of each of corpus seeds
/// 0..100, plus the unmutated sources.
const PINNED_PARSE_DIAGNOSTICS: u64 = 0x7069_1ae9_f045_72b7;

#[test]
fn parse_results_of_byte_mutated_sources_are_pinned() {
    let programs = generate_batch(0, 100, &GenConfig::default(), 2);
    let mut hash = digest(b"");
    let mut errors = 0;
    for p in &programs {
        let mut rng = Lcg::new(p.seed ^ 0x9e37_79b9);
        let mut sources = vec![p.source.clone()];
        sources.extend((0..24).map(|_| mutate_bytes(&p.source, &mut rng)));
        for src in sources {
            let result = parse_program(&src);
            errors += usize::from(result.is_err());
            hash = fnv1a(hash, format!("{result:?}\n").as_bytes());
        }
    }
    assert!(errors > 1000, "only {errors} mutated sources were rejected");
    assert_eq!(hash, PINNED_PARSE_DIAGNOSTICS, "actual digest {hash:#018x}");
}

/// Postdominator sets by the textbook `BTreeSet` dataflow: the
/// reference the production computation must agree with.
fn reference_postdom(cfg: &ProcCfg) -> Vec<BTreeSet<u32>> {
    let n = cfg.blocks.len();
    let exit = n;
    let all: BTreeSet<u32> = (0..=n as u32).collect();
    let mut sets: Vec<BTreeSet<u32>> = vec![all; n + 1];
    sets[exit] = BTreeSet::from([exit as u32]);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let succs: Vec<usize> = match &cfg.blocks[b].term {
                Terminator::Return | Terminator::NonLocalGoto { .. } => vec![exit],
                t => t.successors().iter().map(|s| s.0 as usize).collect(),
            };
            let mut inter: Option<BTreeSet<u32>> = None;
            for s in succs {
                inter = Some(match inter {
                    None => sets[s].clone(),
                    Some(acc) => acc.intersection(&sets[s]).copied().collect(),
                });
            }
            let mut new = inter.unwrap_or_default();
            new.insert(b as u32);
            if new != sets[b] {
                sets[b] = new;
                changed = true;
            }
        }
    }
    sets
}

/// Control dependence from the reference postdominators, by the same
/// Ferrante–Ottenstein–Warren projection: the branch statements that
/// control each statement.
fn reference_control_deps(cfg: &ProcCfg) -> BTreeMap<StmtId, BTreeSet<StmtId>> {
    let sets = reference_postdom(cfg);
    let pd = |a: u32, b: u32| sets[b as usize].contains(&a);
    let mut block_deps: BTreeMap<_, BTreeSet<_>> = BTreeMap::new();
    for (a, blk) in cfg.iter() {
        let Terminator::Branch {
            then_bb, else_bb, ..
        } = &blk.term
        else {
            continue;
        };
        for s in [*then_bb, *else_bb] {
            for (b, _) in cfg.iter() {
                if (b == s || pd(b.0, s.0)) && !(b != a && pd(b.0, a.0)) {
                    block_deps.entry(b).or_default().insert(a);
                }
            }
        }
    }
    let mut stmt_deps: BTreeMap<_, BTreeSet<_>> = BTreeMap::new();
    for (b, blk) in cfg.iter() {
        let Some(deps) = block_deps.get(&b) else {
            continue;
        };
        let dep_stmts: BTreeSet<_> = deps
            .iter()
            .filter_map(|a| match &cfg.block(*a).term {
                Terminator::Branch { stmt, .. } => Some(*stmt),
                _ => None,
            })
            .collect();
        if dep_stmts.is_empty() {
            continue;
        }
        for ins in &blk.instrs {
            stmt_deps
                .entry(ins.stmt)
                .or_default()
                .extend(dep_stmts.iter().copied());
        }
        if let Some(ts) = blk.term.stmt() {
            stmt_deps
                .entry(ts)
                .or_default()
                .extend(dep_stmts.iter().copied());
        }
    }
    stmt_deps
}

fn check_control_deps(name: &str, module: &Module) {
    let cfg = lower(module);
    for pcfg in &cfg.procs {
        let reference = reference_postdom(pcfg);
        let pdom = PostDom::compute(pcfg);
        for (b, _) in pcfg.iter() {
            for (a, _) in pcfg.iter() {
                assert_eq!(
                    pdom.postdominates(a, b),
                    reference[b.0 as usize].contains(&a.0),
                    "{name}: postdominates({a:?}, {b:?}) in {:?}",
                    pcfg.proc
                );
            }
        }
        // Every statement of the procedure, of its CFG and of the
        // reference: each one's controlling set must equal the
        // reference's, in the reference's order.
        let expected = reference_control_deps(pcfg);
        let actual = ControlDeps::compute(pcfg);
        let mut stmts: BTreeSet<StmtId> = module
            .proc_of_stmt
            .iter()
            .filter(|(_, p)| **p == pcfg.proc)
            .map(|(s, _)| *s)
            .collect();
        for (_, blk) in pcfg.iter() {
            stmts.extend(blk.instrs.iter().map(|i| i.stmt));
            stmts.extend(blk.term.stmt());
        }
        stmts.extend(expected.keys().copied());
        for s in stmts {
            let want: Vec<StmtId> = expected.get(&s).into_iter().flatten().copied().collect();
            let got: Vec<StmtId> = actual.controlling(s).collect();
            assert_eq!(
                got, want,
                "{name}: statements controlling {s:?} in {:?}",
                pcfg.proc
            );
        }
        // No dependence of a statement outside that set either.
        assert_eq!(
            actual.pairs().len(),
            expected.values().map(BTreeSet::len).sum::<usize>(),
            "{name}: control dependences of {:?}",
            pcfg.proc
        );
    }
}

/// Checks the original and, when it transforms, the transformed module.
fn check_source(name: &str, source: &str) {
    let module = compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    check_control_deps(name, &module);
    if let Ok(t) = transform(&module) {
        check_control_deps(&format!("{name} (transformed)"), &t.module);
    }
}

/// A procedure with blocks that cannot reach the exit, and one whose
/// goto leaves it for a label of its caller.
const UNUSUAL_SHAPES: &str = "program t; var x, trace: integer;
     procedure spin(n: integer);
     begin
       if n > 0 then
         while true do x := x + 1;
       x := 2
     end;
     procedure p(n: integer);
     label 9;
       procedure q(k: integer);
       begin
         if k > 0 then goto 9;
         trace := trace + 1
       end;
     begin
       q(n);
       trace := trace + 10;
       9: trace := trace + 100
     end;
     begin x := 0; trace := 0; spin(0); p(1); writeln(trace) end.";

#[test]
fn control_deps_match_the_reference_computation() {
    for (name, src) in testprogs::ALL {
        check_source(name, src);
    }
    for (name, src) in regressions() {
        check_source(&name, &src);
    }
    check_source("unusual shapes", UNUSUAL_SHAPES);
    for p in generate_batch(0, 2000, &GenConfig::default(), 2) {
        check_source(&format!("seed {}", p.seed), &p.source);
    }
}

/// Digest of `print_program(apply(..))` over every mutant of the fixtures
/// and of the benchmark campaign's subjects (generator seeds 5–7).
/// Mutants bring shapes transformed programs rarely have: empty
/// statements, duplicated assignments in compounds and `not` conditions.
const PINNED_PRINTED_MUTANTS: u64 = 0x3e5a_d3bd_de37_edbb;

#[test]
fn printed_mutants_are_pinned() {
    let mut subjects: Vec<(String, String)> = testprogs::ALL
        .iter()
        .map(|(name, src)| ((*name).to_string(), (*src).to_string()))
        .collect();
    let campaign = corpus_subjects(&CorpusCampaignConfig {
        start_seed: 5,
        programs: 3,
        ..CorpusCampaignConfig::default()
    });
    subjects.extend(campaign.into_iter().map(|p| (p.name, p.source)));
    let mut hash = digest(b"");
    let mut mutants = 0;
    for (name, src) in &subjects {
        let ast = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for site in enumerate_sites(&ast) {
            let mutant = apply(&ast, &site).expect("enumerated site applies");
            let line = format!("{name} {} {}\n", site.op, site.ordinal);
            hash = fnv1a(hash, line.as_bytes());
            hash = fnv1a(hash, print_program(&mutant).as_bytes());
            mutants += 1;
        }
    }
    assert!(mutants > 883, "only {mutants} mutants");
    assert_eq!(hash, PINNED_PRINTED_MUTANTS, "actual digest {hash:#018x}");
}

/// Folds `name` and the `Debug` text of the transformed program's
/// dynamic trace on `input` (or of the error) into `hash`, counting the
/// programs that traced.
fn fold_trace(hash: u64, traced: &mut usize, name: &str, source: &str, input: Vec<Value>) -> u64 {
    let limits = Limits {
        max_steps: 2_000_000,
        ..Limits::default()
    };
    let run = compile(source)
        .and_then(|m| prepare(&m))
        .and_then(|p| run_traced_limited(&p, input, limits));
    let text = match run {
        Ok(run) => {
            *traced += 1;
            format!("{name} {:?}\n", run.trace)
        }
        Err(e) => format!("{name} error {e}\n"),
    };
    fnv1a(hash, text.as_bytes())
}

/// Digests of every recorded trace: data and control dependences,
/// unresolved uses, call records and loop snapshots. Fixtures run on no
/// input except `figure2` (`5 6 7`); regressions on none; corpus seeds
/// 0..500 on their generated input rows.
const PINNED_TRACES_FIXTURES: u64 = 0x75c6_f455_b269_0579;
const PINNED_TRACES_REGRESSIONS: u64 = 0xe3ea_ae64_95a2_d8e1;
const PINNED_TRACES_CORPUS_0_500: u64 = 0x61e5_a735_a08f_7e62;

#[test]
fn dynamic_traces_are_pinned() {
    let mut traced = 0;
    let fixtures = testprogs::ALL.iter().fold(digest(b""), |h, (name, src)| {
        let input = if *name == "figure2" {
            vec![Value::Int(5), Value::Int(6), Value::Int(7)]
        } else {
            Vec::new()
        };
        fold_trace(h, &mut traced, name, src, input)
    });
    let regressions = regressions().iter().fold(digest(b""), |h, (name, src)| {
        fold_trace(h, &mut traced, name, src, Vec::new())
    });
    let corpus = generate_batch(0, 500, &GenConfig::default(), 2)
        .into_iter()
        .fold(digest(b""), |h, p| {
            fold_trace(h, &mut traced, &p.seed.to_string(), &p.source, p.input)
        });
    assert!(traced > 500, "only {traced} programs traced");
    let actual = [fixtures, regressions, corpus];
    assert_eq!(
        actual,
        [
            PINNED_TRACES_FIXTURES,
            PINNED_TRACES_REGRESSIONS,
            PINNED_TRACES_CORPUS_0_500
        ],
        "actual digests {actual:#018x?}"
    );
}

/// Folds `name`, then every procedure's name and the `Debug` text of its
/// side-effect summary, into `hash`.
fn fold_module_effects(hash: u64, name: &str, module: &Module) -> u64 {
    let cfg = lower(module);
    let fx = SliceContext::new(module, &cfg).fx;
    let mut hash = fnv1a(hash, format!("{name}\n").as_bytes());
    for info in &module.procs {
        let line = format!("{} {:?}\n", info.name, fx.of(info.id));
        hash = fnv1a(hash, line.as_bytes());
    }
    hash
}

/// Folds the effects of `module` and, when it transforms, of the
/// transformed module; a module that failed analysis folds its error.
fn fold_effects(hash: u64, name: &str, module: PascalResult<Module>) -> u64 {
    let module = match module {
        Ok(m) => m,
        Err(e) => return fnv1a(hash, format!("{name} error {e}\n").as_bytes()),
    };
    let hash = fold_module_effects(hash, name, &module);
    match transform(&module) {
        Ok(t) => fold_module_effects(hash, &format!("{name} transformed"), &t.module),
        Err(e) => fnv1a(hash, format!("{name} transform error {e}\n").as_bytes()),
    }
}

/// Digests of every procedure's MOD, REF, parameter read/write and exit
/// sets, before and after the transformation: fixtures, regressions,
/// corpus seeds 0..500, and every mutant of the benchmark campaign's
/// subjects (generator seeds 5–7) as the campaign analyzes it.
const PINNED_EFFECTS_FIXTURES: u64 = 0x776f_4c60_19b2_9e81;
const PINNED_EFFECTS_REGRESSIONS: u64 = 0x5b4e_b589_03c2_8203;
const PINNED_EFFECTS_CORPUS_0_500: u64 = 0x51ff_624f_ea93_02b2;
const PINNED_EFFECTS_MUTANTS: u64 = 0x7617_33c8_0250_33d5;

#[test]
fn side_effects_are_pinned() {
    let fixtures = testprogs::ALL.iter().fold(digest(b""), |h, (name, src)| {
        fold_effects(h, name, compile(src))
    });
    let regressions = regressions().iter().fold(digest(b""), |h, (name, src)| {
        fold_effects(h, name, compile(src))
    });
    let corpus = generate_batch(0, 500, &GenConfig::default(), 2)
        .iter()
        .fold(digest(b""), |h, p| {
            fold_effects(h, &p.seed.to_string(), compile(&p.source))
        });
    let subjects = corpus_subjects(&CorpusCampaignConfig {
        start_seed: 5,
        programs: 3,
        ..CorpusCampaignConfig::default()
    });
    let mut mutants = 0;
    let mut hash = digest(b"");
    for subject in &subjects {
        let ast = parse_program(&subject.source).expect("campaign subject parses");
        for site in enumerate_sites(&ast) {
            let name = format!("{} {} {}", subject.name, site.op, site.ordinal);
            let mutant = materialize(&ast, &site).expect("enumerated site applies");
            hash = fold_effects(hash, &name, mutant.and_then(analyze));
            mutants += 1;
        }
    }
    assert!(mutants > 850, "only {mutants} mutants");
    let actual = [fixtures, regressions, corpus, hash];
    assert_eq!(
        actual,
        [
            PINNED_EFFECTS_FIXTURES,
            PINNED_EFFECTS_REGRESSIONS,
            PINNED_EFFECTS_CORPUS_0_500,
            PINNED_EFFECTS_MUTANTS
        ],
        "actual digests {actual:#018x?}"
    );
}
