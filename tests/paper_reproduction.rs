//! Cross-crate integration tests: every figure and worked example of the
//! paper, checked end to end through the public APIs (see DESIGN.md's
//! experiment index E1–E12).

use gadt::debugger::{DebugConfig, DebugResult};
use gadt::oracle::{Answer, ChainOracle, CountingOracle, ReferenceOracle};
use gadt::session::{debug, prepare, run_traced};
use gadt::testlookup::TestLookup;
use gadt_analysis::slice_dynamic::dynamic_slice_output;
use gadt_analysis::slice_static::{static_slice, SliceContext, SliceCriterion};
use gadt_pascal::cfg::lower;
use gadt_pascal::pretty::print_slice;
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_tgen::{cases, frames, spec};

/// E1 — Figure 1: the frames and script grouping the paper reports.
#[test]
fn e1_figure1_frames_and_scripts() {
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let s1: Vec<String> = g.script("script_1").iter().map(|f| f.to_string()).collect();
    assert_eq!(s1, vec!["(more, mixed, large)", "(more, mixed, average)"]);
    let codes: Vec<String> = g.frames.iter().map(|f| f.code()).collect();
    assert_eq!(codes.len(), 6);
    assert!(codes.contains(&"zero.positive.small".to_string()));
}

/// E2 — Figure 2: the static slice on `mul`, as an executable program.
#[test]
fn e2_figure2_static_slice() {
    let m = compile(testprogs::FIGURE2).unwrap();
    let cfg = lower(&m);
    let cx = SliceContext::new(&m, &cfg);
    let crit = SliceCriterion::at_program_end(&m, "mul").unwrap();
    let slice = static_slice(&cx, &crit);
    let printed = print_slice(&m.program, &slice.stmts);
    for needed in ["read(x, y)", "mul := 0", "if x <= 1 then", "mul := x * y"] {
        assert!(printed.contains(needed), "missing {needed}:\n{printed}");
    }
    for dropped in ["sum", "read(z)"] {
        assert!(
            !printed.contains(dropped),
            "should drop {dropped}:\n{printed}"
        );
    }
    // The slice compiles and preserves mul on both branches.
    let sm = compile(&printed).unwrap();
    for input in [vec![0i64, 3], vec![4, 5, 6]] {
        let run = |m: &gadt_pascal::Module| {
            let mut i = gadt_pascal::interp::Interpreter::new(m);
            i.set_input(input.iter().map(|&n| gadt_pascal::value::Value::Int(n)));
            i.run().unwrap()
        };
        assert_eq!(run(&m).global("mul"), run(&sm).global("mul"));
    }
}

/// E3 — §3: pure algorithmic debugging localizes the P/Q/R bug in R.
#[test]
fn e3_pqr_session() {
    let buggy = compile(testprogs::PQR).unwrap();
    let fixed = compile(testprogs::PQR_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(
        &prepared,
        &run,
        &mut chain,
        DebugConfig {
            slicing: false,
            ..Default::default()
        },
    );
    assert!(matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "r"));
    // The paper's session: P? no, Q? yes, R? no.
    assert_eq!(out.total_queries(), 3);
    assert_eq!(
        out.transcript[0].answer,
        Answer::Incorrect {
            wrong_output: Some(1)
        }
    );
    assert_eq!(out.transcript[1].answer, Answer::Correct);
}

/// E4 — Figures 4+7: the execution tree with the paper's exact values.
#[test]
fn e4_figure7_tree() {
    let m = compile(testprogs::SQRTEST).unwrap();
    let prepared = prepare(&m).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let tm = &prepared.transformed.module;
    let rendered = run.tree.render(run.tree.root);
    for line in [
        "sqrtest(In ary: [1,2], In n: 2, Out isok: false)",
        "arrsum(In a: [1,2], In n: 2, Out b: 3)",
        "computs(In y: 3, Out r1: 12, Out r2: 9)",
        "comput1(In y: 3, Out r1: 12)",
        "comput2(In y: 3, Out r2: 9)",
        "partialsums(In y: 3, Out s1: 6, Out s2: 6)",
        "add(In s1: 6, In s2: 6, Out r1: 12)",
        "square(In y: 3, Out r2: 9)",
        "sum1(In y: 3, Out s1: 6)",
        "sum2(In y: 3, Out s2: 6)",
        "increment(In y: 3) = 4",
        "decrement(In y: 3) = 4",
        "test(In r1: 12, In r2: 9, Out isok: false)",
    ] {
        assert!(rendered.contains(line), "missing {line} in:\n{rendered}");
    }
    let _ = tm;
}

/// E5/E6 — Figures 8 and 9: the pruned trees.
#[test]
fn e5_e6_pruned_trees() {
    let m = compile(testprogs::SQRTEST).unwrap();
    let cfg = lower(&m);
    let trace = gadt_analysis::dyntrace::record_trace(&m, &cfg, []).unwrap();
    let tree = gadt_trace::build_tree(&m, &trace);

    let call_of = |name: &str| {
        trace
            .calls
            .iter()
            .find(|c| m.proc(c.proc).name == name)
            .unwrap()
            .id
    };
    let names_of = |t: &gadt_trace::ExecTree| -> Vec<String> {
        t.preorder()
            .into_iter()
            .map(|n| t.node(n).name.clone())
            .collect()
    };

    let s8 = dynamic_slice_output(&m, &trace, call_of("computs"), 0);
    let fig8 = tree.prune(tree.find_call(&m, "computs").unwrap(), &s8);
    assert_eq!(
        names_of(&fig8),
        vec![
            "computs",
            "comput1",
            "partialsums",
            "sum1",
            "increment",
            "sum2",
            "decrement",
            "add"
        ]
    );

    let s9 = dynamic_slice_output(&m, &trace, call_of("partialsums"), 1);
    let fig9 = tree.prune(tree.find_call(&m, "partialsums").unwrap(), &s9);
    assert_eq!(names_of(&fig9), vec!["partialsums", "sum2", "decrement"]);
}

/// E7 — §8: the full GADT session, with the arrsum query answered by the
/// test database, two slices, and the bug in decrement.
#[test]
fn e7_full_gadt_session() {
    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();

    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let db = cases::run_cases(&buggy, "arrsum", &tc, &|i, r| cases::arrsum_oracle(i, r)).unwrap();
    let mut lookup = TestLookup::new();
    lookup.register("arrsum", db, Box::new(cases::arrsum_frame_selector));

    let mut chain = ChainOracle::new();
    chain.push(lookup);
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(&prepared, &run, &mut chain, DebugConfig::default());

    assert!(matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement"));
    assert_eq!(out.slices_taken, 2);
    assert_eq!(out.queries_from("test database"), 1);
    assert_eq!(out.queries_from("reference"), 6);

    // Pure AD on the same tree asks strictly more user questions.
    let mut pure = ChainOracle::new();
    pure.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out_pure = debug(
        &prepared,
        &run,
        &mut pure,
        DebugConfig {
            slicing: false,
            ..Default::default()
        },
    );
    assert!(out_pure.queries_from("reference") > out.queries_from("reference"));
}

/// E13 — the §8 session across *processes*: session 1 answers from the
/// test database and the simulated user, persisting every judgement
/// (and the test database itself) into a knowledge store; session 2
/// reopens the store cold and replays the identical session without a
/// single user question — all seven queries answered from disk — and
/// without writing a single new byte.
#[test]
fn e13_cross_session_store_replay_asks_zero_user_questions() {
    use gadt::StoredKnowledgeOracle;
    use gadt_store::{KnowledgeStore, TempDir};
    use gadt_tgen::cases::TestDb;

    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();

    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let db = cases::run_cases(&buggy, "arrsum", &tc, &|i, r| cases::arrsum_oracle(i, r)).unwrap();

    let dir = TempDir::new("e13-session");

    // Session 1 — live sources answer; every judgement lands on disk.
    let fp_after_first = {
        let store = KnowledgeStore::open(dir.path()).unwrap().into_shared();
        db.persist(&mut store.lock().unwrap()).unwrap();
        let mut lookup = TestLookup::new();
        lookup.register("arrsum", db.clone(), Box::new(cases::arrsum_frame_selector));
        let mut chain = ChainOracle::new();
        chain.push(lookup);
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        chain.persist_answers_to(store.clone());
        let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
        assert!(
            matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement")
        );
        assert_eq!(out.total_queries(), 7);
        let mut guard = store.lock().unwrap();
        assert!(chain.take_persist_error().is_none());
        assert_eq!(guard.answers_len(), 7);
        guard.sync().unwrap();
        guard.disk_fingerprint().unwrap()
    };

    // Session 2 — a cold open; the stored answers (and the reloaded
    // test database behind them) answer everything.
    let store = KnowledgeStore::open(dir.path()).unwrap().into_shared();
    let db2 = TestDb::load_from(&store.lock().unwrap(), "arrsum");
    assert_eq!(db2, db, "the test database survives the round trip");
    let mut lookup = TestLookup::new();
    lookup.register("arrsum", db2, Box::new(cases::arrsum_frame_selector));
    let mut chain = ChainOracle::new();
    chain.push(lookup);
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    chain.push_front(StoredKnowledgeOracle::new(store.clone()));
    chain.persist_answers_to(store.clone());
    let out = debug(&prepared, &run, &mut chain, DebugConfig::default());

    assert!(matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement"));
    assert_eq!(out.slices_taken, 2);
    assert_eq!(out.total_queries(), 7);
    assert_eq!(
        out.queries_from("reference"),
        0,
        "the user was consulted on replay:\n{}",
        out.render_transcript()
    );
    for entry in &out.transcript {
        assert!(
            entry.source == gadt::STORED_SOURCE || entry.source == "test database",
            "query answered live on replay: {} [{}]",
            entry.query,
            entry.source
        );
    }

    // Replay is read-only: not one byte changed on disk.
    let mut guard = store.lock().unwrap();
    assert!(chain.take_persist_error().is_none());
    guard.sync().unwrap();
    assert_eq!(guard.disk_fingerprint().unwrap(), fp_after_first);
    assert_eq!(guard.answer_misses(), 0, "every lookup should hit");
}

/// E11 — §6: each transformation example preserves semantics and removes
/// the targeted construct.
#[test]
fn e11_transformations() {
    use gadt_transform::transform;
    for (name, src) in [
        ("globals", testprogs::SECTION6_GLOBALS),
        ("goto", testprogs::SECTION6_GOTO),
        ("loop_goto", testprogs::SECTION6_LOOP_GOTO),
    ] {
        let m = compile(src).unwrap();
        let t = transform(&m).unwrap();
        let o1 = gadt_pascal::interp::Interpreter::new(&m).run().unwrap();
        let o2 = gadt_pascal::interp::Interpreter::new(&t.module)
            .run()
            .unwrap();
        assert_eq!(o1.output_text(), o2.output_text(), "{name}");
        // No global gotos remain.
        for (stmt, (owner, _)) in &t.module.goto_res {
            assert_eq!(
                t.module.proc_of_stmt[stmt], *owner,
                "{name}: global goto left"
            );
        }
        // No procedure-level variable side effects remain.
        let fx = gadt_analysis::effects::Effects::compute(&t.module);
        for p in &t.module.procs {
            if p.id != gadt_pascal::sema::MAIN_PROC {
                assert!(
                    !fx.has_global_side_effects(p.id),
                    "{name}: {} dirty",
                    p.name
                );
            }
        }
    }
}

/// E12 — §5.3.3: a misnamed variable in an argument is localized to the
/// calling procedure once all subcomputations check out.
#[test]
fn e12_misnamed_variable() {
    let src = "program t; var r: integer;
         procedure f(x: integer; var y: integer); begin y := x * 2 end;
         procedure caller(var r: integer);
         var a, b: integer;
         begin a := 1; b := 99; f(b, r) end;
         begin caller(r); writeln(r) end.";
    let fixed_src = src.replace("f(b, r)", "f(a, r)");
    let buggy = compile(src).unwrap();
    let fixed = compile(&fixed_src).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
    assert!(
        matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "caller"),
        "{}",
        out.render_transcript()
    );
}

/// Golden transcript — the §3 P/Q/R session, pinned verbatim. Any change
/// to traversal order, question wording, or answer attribution fails here
/// loudly instead of silently drifting from the paper.
#[test]
fn golden_transcript_pqr_session() {
    let buggy = compile(testprogs::PQR).unwrap();
    let fixed = compile(testprogs::PQR_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(
        &prepared,
        &run,
        &mut chain,
        DebugConfig {
            slicing: false,
            ..Default::default()
        },
    );
    let expected = "\
p(In a: 5, In c: 7, Out b: 10, Out d: 10)?
> no, error on output variable 2    [simulated user (reference implementation)]
q(In a: 5, Out b: 10)?
> yes    [simulated user (reference implementation)]
r(In c: 7, Out d: 10)?
> no, error on output variable 1    [simulated user (reference implementation)]
An error is localized inside the body of r.";
    assert_eq!(out.render_transcript().trim_end(), expected);
}

/// Golden transcript — the §8 slicing-pruned SQRTEST session, pinned
/// verbatim: seven questions straight down the pruned spine to
/// `decrement`, exactly the paper's walkthrough.
#[test]
fn golden_transcript_sqrtest_sliced_session() {
    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
    let expected = "\
sqrtest(In ary: [1,2], In n: 2, Out isok: false)?
> no, error on output variable 1    [simulated user (reference implementation)]
arrsum(In a: [1,2], In n: 2, Out b: 3)?
> yes    [simulated user (reference implementation)]
computs(In y: 3, Out r1: 12, Out r2: 9)?
> no, error on output variable 1    [simulated user (reference implementation)]
comput1(In y: 3, Out r1: 12)?
> no, error on output variable 1    [simulated user (reference implementation)]
partialsums(In y: 3, Out s1: 6, Out s2: 6)?
> no, error on output variable 2    [simulated user (reference implementation)]
sum2(In y: 3, Out s2: 6)?
> no, error on output variable 1    [simulated user (reference implementation)]
decrement(In y: 3) = 4?
> no, error on output variable 1    [simulated user (reference implementation)]
An error is localized inside the body of decrement.";
    assert_eq!(out.render_transcript().trim_end(), expected);
}

/// Golden transcript — the §8 session under Shapiro's divide-and-query.
/// Bisection skips the spine walk: four questions (vs top-down's seven)
/// land on `decrement`, and the pruned tree needs only one slice.
#[test]
fn golden_transcript_sqrtest_divide_and_query() {
    use gadt::debugger::Strategy;
    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(
        &prepared,
        &run,
        &mut chain,
        DebugConfig {
            strategy: Strategy::DivideAndQuery,
            ..Default::default()
        },
    );
    let expected = "\
comput1(In y: 3, Out r1: 12)?
> no, error on output variable 1    [simulated user (reference implementation)]
partialsums(In y: 3, Out s1: 6, Out s2: 6)?
> no, error on output variable 2    [simulated user (reference implementation)]
sum2(In y: 3, Out s2: 6)?
> no, error on output variable 1    [simulated user (reference implementation)]
decrement(In y: 3) = 4?
> no, error on output variable 1    [simulated user (reference implementation)]
An error is localized inside the body of decrement.";
    assert_eq!(out.render_transcript().trim_end(), expected);
    assert_eq!(out.total_queries(), 4);
    assert_eq!(out.slices_taken, 1);
}

/// Golden transcript — the §8 session under optimal divide-and-query
/// (Insa & Silva). The minimax split asks `sum1` where Shapiro descends
/// through `partialsums`, converging in four questions with no slice.
#[test]
fn golden_transcript_sqrtest_dq_opt() {
    use gadt::debugger::Strategy;
    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(
        &prepared,
        &run,
        &mut chain,
        DebugConfig {
            strategy: Strategy::DqOpt,
            ..Default::default()
        },
    );
    let expected = "\
comput1(In y: 3, Out r1: 12)?
> no, error on output variable 1    [simulated user (reference implementation)]
sum1(In y: 3, Out s1: 6)?
> yes    [simulated user (reference implementation)]
sum2(In y: 3, Out s2: 6)?
> no, error on output variable 1    [simulated user (reference implementation)]
decrement(In y: 3) = 4?
> no, error on output variable 1    [simulated user (reference implementation)]
An error is localized inside the body of decrement.";
    assert_eq!(out.render_transcript().trim_end(), expected);
    assert_eq!(out.total_queries(), 4);
    assert_eq!(out.slices_taken, 0);
}

/// Question-count ordering on the §8 session: optimal divide-and-query
/// never asks more than Shapiro's, which never asks more than top-down's
/// seven-question spine walk. All strategies agree on the verdict.
#[test]
fn strategy_question_counts_ordered_on_section8_session() {
    use gadt::debugger::Strategy;
    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut counts = std::collections::BTreeMap::new();
    for strategy in Strategy::ALL {
        let mut chain = ChainOracle::new();
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        let out = debug(
            &prepared,
            &run,
            &mut chain,
            DebugConfig {
                strategy,
                ..Default::default()
            },
        );
        assert!(
            matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement"),
            "{} disagrees on the verdict:\n{}",
            strategy.slug(),
            out.render_transcript()
        );
        counts.insert(strategy.slug(), out.total_queries());
    }
    assert_eq!(counts["top_down"], 7);
    assert!(counts["dq_opt"] <= counts["divide_and_query"]);
    assert!(counts["divide_and_query"] <= counts["top_down"]);
    // Without a knowledge store attached there is no probe, and the
    // knowledge-weighted strategy degenerates to optimal D&Q exactly.
    assert_eq!(counts["knowledge_weighted"], counts["dq_opt"]);
}

/// E14 — stored-knowledge replay under the knowledge-weighted strategy:
/// a top-down session persists its seven judgements; on replay, optimal
/// D&Q bisects into `sum1` (never stored) and must ask the user once,
/// while the knowledge-weighted strategy steers every question onto a
/// stored answer and asks the user nothing.
#[test]
fn e14_knowledge_weighted_replay_asks_strictly_fewer_live_questions() {
    use gadt::debugger::Strategy;
    use gadt::session::debug_observed;
    use gadt::{AnswerProbe, StoreProbe, StoredKnowledgeOracle};
    use gadt_obs::Recorder;
    use gadt_store::{KnowledgeStore, TempDir};

    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let dir = TempDir::new("e14-replay");
    let store = KnowledgeStore::open(dir.path()).unwrap().into_shared();

    // Session 1 — top-down, live user; all seven judgements persist.
    {
        let mut chain = ChainOracle::new();
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        chain.persist_answers_to(store.clone());
        let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
        assert_eq!(out.total_queries(), 7);
        assert!(chain.take_persist_error().is_none());
    }

    // Session 2 — replay each bisection strategy against the seeded store.
    let mut live = std::collections::BTreeMap::new();
    for strategy in [Strategy::DqOpt, Strategy::KnowledgeWeighted] {
        let mut chain = ChainOracle::new();
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        chain.push_front(StoredKnowledgeOracle::new(store.clone()));
        let probe = (strategy == Strategy::KnowledgeWeighted)
            .then(|| Box::new(StoreProbe::new(store.clone())) as Box<dyn AnswerProbe>);
        let out = debug_observed(
            &prepared,
            &run,
            &mut chain,
            DebugConfig {
                strategy,
                ..Default::default()
            },
            probe,
            &mut Recorder::disabled(),
        );
        assert!(
            matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement"),
            "{} replay verdict drifted:\n{}",
            strategy.slug(),
            out.render_transcript()
        );
        live.insert(strategy.slug(), out.queries_from("reference"));
    }
    assert_eq!(live["dq_opt"], 1, "optimal D&Q bisects into unstored sum1");
    assert_eq!(
        live["knowledge_weighted"], 0,
        "every question hits the store"
    );
    assert!(live["knowledge_weighted"] < live["dq_opt"]);
}
