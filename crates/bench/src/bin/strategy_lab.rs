//! Traversal-strategy question-count lab:
//! `strategy_lab [out.json] [baseline.json] [--smoke]`.
//!
//! Measures the real quality metric of ROADMAP item 3 — oracle
//! questions per localized bug — for every [`Strategy`] over a large
//! seeded mutant corpus, plus the store-backed replay leg where the
//! knowledge-weighted strategy's probe actually has knowledge to
//! weigh. Writes the figures to `BENCH_strategies.json` (or the first
//! argument) and exits non-zero on any gate failure (`ci.sh`'s
//! `strategy` tier).
//!
//! Legs:
//! * `corpus` — the full campaign (paper fixtures + generated
//!   programs, every mutation site; ≥ 2000 mutants) under each
//!   strategy. Skipped under `--smoke`.
//! * `smoke` — the same campaign subsampled to 500 mutants: cheap
//!   enough for every CI run, deterministic, and recorded in the
//!   committed baseline so CI compares like against like.
//! * `replay` — seeded-store sessions: a top-down session persists its
//!   judgements, then optimal D&Q and the knowledge-weighted strategy
//!   replay the same symptom against the store; the figure is *live*
//!   (user) questions per session.
//!
//! Regression gates:
//! * optimal D&Q must ask strictly fewer questions per bug than
//!   top-down (mean, slicing off) on the corpus (or smoke) leg;
//! * the knowledge-weighted strategy must ask strictly fewer live
//!   questions than optimal D&Q on the replay leg;
//! * against a committed baseline, no strategy's smoke or replay mean
//!   may exceed its committed figure by more than 1% (campaigns are
//!   deterministic; the slack only absorbs float formatting).

use gadt::debugger::{DebugConfig, DebugResult, Strategy};
use gadt::oracle::{ChainOracle, CountingOracle, ReferenceOracle};
use gadt::session::{debug_observed, prepare, run_traced};
use gadt::{AnswerProbe, StoreProbe, StoredKnowledgeOracle};
use gadt_bench::genprog::{generate, mutate, GenConfig};
use gadt_mutate::campaign::{run_campaign, CampaignConfig, CampaignProgram};
use gadt_mutate::report::MutantStatus;
use gadt_obs::Recorder;
use gadt_pascal::interp::Interpreter;
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_store::{KnowledgeStore, TempDir};
use std::process::ExitCode;

/// One strategy's aggregate over one campaign leg.
struct Row {
    strategy: Strategy,
    mutants: usize,
    localized: usize,
    exact: usize,
    mean_sliced: f64,
    mean_unsliced: f64,
}

/// One strategy's aggregate over the replay leg.
struct ReplayRow {
    strategy: Strategy,
    sessions: usize,
    live_questions: usize,
}

impl ReplayRow {
    fn mean_live(&self) -> f64 {
        self.live_questions as f64 / self.sessions as f64
    }
}

/// The corpus: the paper's known-good fixtures plus a seeded fan of
/// generated programs, large enough that every mutation site summed
/// over the set clears 2000 mutants.
fn corpus_programs() -> Vec<CampaignProgram> {
    let mut programs = vec![
        CampaignProgram::new("sqrtest", testprogs::SQRTEST_FIXED),
        CampaignProgram::new("pqr", testprogs::PQR_FIXED),
        CampaignProgram::new("multichain", testprogs::MULTICHAIN),
    ];
    for j in 0..60u64 {
        let procs = 3 + (j as usize % 6);
        let seed = j * 53 + 11;
        let gp = generate(&GenConfig {
            procs,
            max_calls: 2,
            seed,
        });
        programs.push(CampaignProgram::new(
            format!("gen_{procs}_{seed}"),
            gp.source,
        ));
    }
    programs
}

fn campaign_leg(programs: &[CampaignProgram], max_mutants: usize) -> Vec<Row> {
    Strategy::ALL
        .into_iter()
        .map(|strategy| {
            let summary = run_campaign(
                programs,
                &CampaignConfig {
                    seed: 2026,
                    max_mutants,
                    threads: 0,
                    strategy,
                    ..CampaignConfig::default()
                },
            )
            .expect("corpus programs are good");
            let (mut sliced, mut unsliced, mut localized, mut exact) = (0usize, 0usize, 0, 0);
            for r in &summary.reports {
                if let MutantStatus::Localized {
                    questions_with_slicing,
                    questions_without_slicing,
                    exact: is_exact,
                    ..
                } = &r.status
                {
                    sliced += questions_with_slicing;
                    unsliced += questions_without_slicing;
                    localized += 1;
                    exact += usize::from(*is_exact);
                }
            }
            Row {
                strategy,
                mutants: summary.total(),
                localized,
                exact,
                mean_sliced: sliced as f64 / localized as f64,
                mean_unsliced: unsliced as f64 / localized as f64,
            }
        })
        .collect()
}

/// The replay leg: for each killed generated mutant, a top-down
/// session persists its judgements into a fresh store; then each
/// bisection strategy replays the identical symptom with the stored
/// answers in front of the simulated user. Live questions are the
/// ones the store could not answer.
fn replay_leg() -> Vec<ReplayRow> {
    let mut rows: Vec<ReplayRow> = [Strategy::DqOpt, Strategy::KnowledgeWeighted]
        .into_iter()
        .map(|strategy| ReplayRow {
            strategy,
            sessions: 0,
            live_questions: 0,
        })
        .collect();
    let mut sessions = 0usize;
    let mut j = 0u64;
    while sessions < 100 && j < 400 {
        j += 1;
        let procs = 3 + (j as usize % 6);
        let seed = j * 101 + 29;
        let gen = generate(&GenConfig {
            procs,
            max_calls: 2,
            seed,
        });
        let Some(mutation) = mutate(&gen, seed) else {
            continue;
        };
        let fixed = compile(&gen.source).unwrap();
        let Ok(buggy) = compile(&mutation.source) else {
            continue;
        };
        let (Ok(of), Ok(ob)) = (
            Interpreter::new(&fixed).run(),
            Interpreter::new(&buggy).run(),
        ) else {
            continue;
        };
        if of.output_text() == ob.output_text() {
            continue;
        }
        let Ok(prepared) = prepare(&buggy) else {
            continue;
        };
        let Ok(run) = run_traced(&prepared, []) else {
            continue;
        };
        sessions += 1;

        let dir = TempDir::new("strategy-lab-replay");
        let store = KnowledgeStore::open(dir.path()).unwrap().into_shared();
        {
            let mut chain = ChainOracle::new();
            chain.push(CountingOracle::new(
                ReferenceOracle::new(&fixed, []).unwrap(),
            ));
            chain.persist_answers_to(store.clone());
            let out = debug_observed(
                &prepared,
                &run,
                &mut chain,
                DebugConfig::default(),
                None,
                &mut Recorder::disabled(),
            );
            assert!(matches!(out.result, DebugResult::BugLocalized { .. }));
        }
        for row in &mut rows {
            let mut chain = ChainOracle::new();
            chain.push(CountingOracle::new(
                ReferenceOracle::new(&fixed, []).unwrap(),
            ));
            chain.push_front(StoredKnowledgeOracle::new(store.clone()));
            let probe = (row.strategy == Strategy::KnowledgeWeighted)
                .then(|| Box::new(StoreProbe::new(store.clone())) as Box<dyn AnswerProbe>);
            let out = debug_observed(
                &prepared,
                &run,
                &mut chain,
                DebugConfig {
                    strategy: row.strategy,
                    ..Default::default()
                },
                probe,
                &mut Recorder::disabled(),
            );
            row.sessions += 1;
            row.live_questions += out.queries_from("reference");
        }
    }
    rows
}

fn leg_json(rows: &[Row]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"mutants\": {}, \"localized\": {}, \
             \"exact\": {}, \"mean_questions_sliced\": {:.4}, \
             \"mean_questions_unsliced\": {:.4}}}{}\n",
            r.strategy.slug(),
            r.mutants,
            r.localized,
            r.exact,
            r.mean_sliced,
            r.mean_unsliced,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]");
    s
}

/// Reads one leg's per-strategy means from a committed baseline.
fn committed_leg(json: &gadt_store::Json, leg: &str) -> Option<Vec<(String, f64, f64)>> {
    let mut out = Vec::new();
    for r in json.get(leg)?.as_array()? {
        let real = |field: &str| -> Option<f64> {
            match r.get(field)? {
                gadt_store::Json::Real(x) => Some(*x),
                gadt_store::Json::Int(n) => Some(*n as f64),
                _ => None,
            }
        };
        out.push((
            r.get("strategy")?.as_str()?.to_string(),
            real("mean_questions_sliced")?,
            real("mean_questions_unsliced")?,
        ));
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let out = positional
        .next()
        .cloned()
        .unwrap_or_else(|| "BENCH_strategies.json".to_string());
    let baseline = positional.next().cloned();

    println!(
        "strategy_lab: questions-per-bug by traversal strategy{}\n",
        if smoke { " (smoke subsample)" } else { "" }
    );
    let programs = corpus_programs();

    let corpus = if smoke {
        Vec::new()
    } else {
        let rows = campaign_leg(&programs, 0);
        for r in &rows {
            println!(
                "  => corpus {}: {} mutants, {} localized ({} exact), \
                 mean q/bug {:.2} sliced / {:.2} unsliced",
                r.strategy.slug(),
                r.mutants,
                r.localized,
                r.exact,
                r.mean_sliced,
                r.mean_unsliced
            );
        }
        rows
    };
    let smoke_rows = campaign_leg(&programs, 500);
    for r in &smoke_rows {
        println!(
            "  => smoke {}: {} mutants, {} localized ({} exact), \
             mean q/bug {:.2} sliced / {:.2} unsliced",
            r.strategy.slug(),
            r.mutants,
            r.localized,
            r.exact,
            r.mean_sliced,
            r.mean_unsliced
        );
    }
    let replay = replay_leg();
    for r in &replay {
        println!(
            "  => replay {}: {} sessions, {} live questions ({:.2}/session)",
            r.strategy.slug(),
            r.sessions,
            r.live_questions,
            r.mean_live()
        );
    }

    let mut body = String::from("{\n  \"benchmark\": \"strategy_lab\",\n");
    if !corpus.is_empty() {
        body.push_str(&format!("  \"corpus\": {},\n", leg_json(&corpus)));
    }
    body.push_str(&format!("  \"smoke\": {},\n", leg_json(&smoke_rows)));
    body.push_str("  \"replay\": [\n");
    for (i, r) in replay.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"sessions\": {}, \"live_questions\": {}, \
             \"mean_live\": {:.4}}}{}\n",
            r.strategy.slug(),
            r.sessions,
            r.live_questions,
            r.mean_live(),
            if i + 1 < replay.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("strategy_lab: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");

    let mut failed = false;

    // Gate 1: optimal D&Q strictly beats top-down per bug (slicing
    // off — the isolated traversal comparison).
    let gate_rows = if corpus.is_empty() {
        &smoke_rows
    } else {
        &corpus
    };
    let mean_of = |s: Strategy| {
        gate_rows
            .iter()
            .find(|r| r.strategy == s)
            .map(|r| r.mean_unsliced)
            .unwrap()
    };
    if mean_of(Strategy::DqOpt) >= mean_of(Strategy::TopDown) {
        eprintln!(
            "strategy_lab: REGRESSION — dq_opt mean {:.2} q/bug does not beat \
             top_down's {:.2}",
            mean_of(Strategy::DqOpt),
            mean_of(Strategy::TopDown)
        );
        failed = true;
    }

    // Gate 2: with a seeded store, the knowledge-weighted strategy
    // asks strictly fewer live questions than optimal D&Q.
    let live_of = |s: Strategy| {
        replay
            .iter()
            .find(|r| r.strategy == s)
            .map(|r| r.live_questions)
            .unwrap()
    };
    if live_of(Strategy::KnowledgeWeighted) >= live_of(Strategy::DqOpt) {
        eprintln!(
            "strategy_lab: REGRESSION — knowledge_weighted replay asked {} live \
             questions, dq_opt {}",
            live_of(Strategy::KnowledgeWeighted),
            live_of(Strategy::DqOpt)
        );
        failed = true;
    }

    // Gate 3: committed-baseline comparison on the smoke and replay
    // legs (the legs every CI run measures).
    if let Some(path) = baseline {
        let parsed = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| gadt_store::parse(&t));
        match parsed.as_ref().and_then(|j| committed_leg(j, "smoke")) {
            Some(committed) => {
                for (slug, sliced, unsliced) in committed {
                    let Some(r) = smoke_rows.iter().find(|r| r.strategy.slug() == slug) else {
                        eprintln!("strategy_lab: committed strategy `{slug}` was not measured");
                        failed = true;
                        continue;
                    };
                    if r.mean_sliced > sliced * 1.01 || r.mean_unsliced > unsliced * 1.01 {
                        eprintln!(
                            "strategy_lab: REGRESSION — {slug} smoke means \
                             {:.2}/{:.2} exceed committed {sliced:.2}/{unsliced:.2}",
                            r.mean_sliced, r.mean_unsliced
                        );
                        failed = true;
                    }
                }
            }
            None => {
                eprintln!("strategy_lab: cannot read committed baseline {path}");
                failed = true;
            }
        }
        match parsed.as_ref().and_then(|j| j.get("replay")?.as_array()) {
            Some(committed) => {
                for r in committed {
                    let (Some(slug), Some(live)) = (
                        r.get("strategy").and_then(|s| s.as_str()),
                        r.get("live_questions").and_then(|n| n.as_int()),
                    ) else {
                        eprintln!("strategy_lab: malformed committed replay row");
                        failed = true;
                        continue;
                    };
                    let Some(row) = replay.iter().find(|x| x.strategy.slug() == slug) else {
                        eprintln!("strategy_lab: committed replay `{slug}` was not measured");
                        failed = true;
                        continue;
                    };
                    if (row.live_questions as i64) > live {
                        eprintln!(
                            "strategy_lab: REGRESSION — {slug} replay live questions \
                             {} exceed committed {live}",
                            row.live_questions
                        );
                        failed = true;
                    }
                }
            }
            None => {
                eprintln!("strategy_lab: committed baseline {path} has no replay leg");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
