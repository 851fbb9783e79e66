//! Edge-case integration tests: recursion meets slicing, divide-and-query
//! meets slicing, deep nesting meets transformation — the combinations a
//! downstream user will eventually hit.

use gadt::debugger::{DebugConfig, DebugResult, Debugger, Strategy};
use gadt::oracle::{ChainOracle, CountingOracle, ReferenceOracle};
use gadt::session::{prepare, run_traced, Engine};
use gadt_analysis::dyntrace::record_trace;
use gadt_analysis::slice_dynamic::dynamic_slice_output;
use gadt_analysis::slice_static::{static_slice, SliceContext, SliceCriterion};
use gadt_pascal::cfg::lower;
use gadt_pascal::parser::{parse_program, MAX_NESTING};
use gadt_pascal::pretty::print_program;
use gadt_pascal::sema::compile;

/// Dynamic slicing distinguishes recursion instances: slicing on one
/// call's output keeps only the instances that fed it.
#[test]
fn dynamic_slice_on_recursive_calls() {
    let src = "program t; var r: integer;
         function fact(n: integer): integer;
         begin
           if n <= 1 then fact := 1 else fact := n * fact(n - 1)
         end;
         begin r := fact(4); writeln(r) end.";
    let m = compile(src).unwrap();
    let cfg = lower(&m);
    let trace = record_trace(&m, &cfg, []).unwrap();
    // Instances: fact(4), fact(3), fact(2), fact(1).
    let fact_calls: Vec<u64> = trace
        .calls
        .iter()
        .filter(|c| m.proc(c.proc).name == "fact")
        .map(|c| c.id)
        .collect();
    assert_eq!(fact_calls.len(), 4);
    // Slicing on the innermost instance keeps only its own chain (and
    // the ancestry spine), not the outer multiplications that come after.
    let innermost = *fact_calls.last().unwrap();
    let slice = dynamic_slice_output(&m, &trace, innermost, 0);
    assert!(slice.keeps_call(innermost));
    // Every kept call is on the ancestor chain of the innermost call.
    for c in &slice.calls {
        let mut cur = Some(innermost);
        let mut on_chain = false;
        while let Some(x) = cur {
            if x == *c {
                on_chain = true;
                break;
            }
            cur = trace.call(x).parent;
        }
        assert!(on_chain, "call {c} is not an ancestor of the innermost");
    }
}

/// The static slicer terminates and produces a sound slice on recursive
/// procedures (the fixpoint must not diverge).
#[test]
fn static_slice_on_recursion_terminates() {
    let src = "program t; var r, junk: integer;
         function fib(n: integer): integer;
         begin
           if n <= 1 then fib := n else fib := fib(n - 1) + fib(n - 2)
         end;
         begin junk := 42; r := fib(10); writeln(r) end.";
    let m = compile(src).unwrap();
    let cfg = lower(&m);
    let cx = SliceContext::new(&m, &cfg);
    let crit = SliceCriterion::at_program_end(&m, "r").unwrap();
    let slice = static_slice(&cx, &crit);
    // The slice keeps fib's body and drops junk.
    let printed = gadt_pascal::pretty::print_slice(&m.program, &slice.stmts);
    assert!(printed.contains("fib"), "{printed}");
    assert!(!printed.contains("junk"), "{printed}");
    // And the printed slice still computes r correctly.
    let sm = compile(&printed).unwrap();
    let o1 = gadt_pascal::interp::Interpreter::new(&m).run().unwrap();
    let o2 = gadt_pascal::interp::Interpreter::new(&sm).run().unwrap();
    assert_eq!(o1.global("r"), o2.global("r"));
}

/// Debugging a buggy recursive function: the bug is localized to the
/// function even though dozens of instances appear in the tree.
#[test]
fn debugging_recursive_program() {
    let src = "program t; var r: integer;
         function sumto(n: integer): integer;
         begin
           if n <= 0 then sumto := 1 (* bug: should be 0 *)
           else sumto := n + sumto(n - 1)
         end;
         begin r := sumto(5); writeln(r) end.";
    let fixed_src = src.replace("sumto := 1 (* bug: should be 0 *)", "sumto := 0");
    let buggy = compile(src).unwrap();
    let fixed = compile(&fixed_src).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = Debugger::new(
        &prepared.transformed.module,
        &run.trace,
        DebugConfig::default(),
    )
    .run_program(&run.tree, &mut chain);
    assert!(
        matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "sumto"),
        "{}",
        out.render_transcript()
    );
}

/// Divide-and-query with slicing enabled still localizes correctly.
#[test]
fn divide_and_query_with_slicing() {
    let buggy = compile(gadt_pascal::testprogs::SQRTEST).unwrap();
    let fixed = compile(gadt_pascal::testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = Debugger::new(
        &prepared.transformed.module,
        &run.trace,
        DebugConfig {
            strategy: Strategy::DivideAndQuery,
            slicing: true,
        },
    )
    .run_program(&run.tree, &mut chain);
    assert!(
        matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement"),
        "{}",
        out.render_transcript()
    );
}

/// Transformation of a three-level nested program with mixed side
/// effects: uplevel locals, globals, and a non-local goto together.
#[test]
fn transformation_of_deeply_nested_mixed_effects() {
    let src = "program t; var g: integer;
         procedure level1;
         label 8;
         var x: integer;
           procedure level2;
           var y: integer;
             procedure level3;
             begin
               g := g + 1;
               x := x + 10;
               y := y + 100;
               if g > 1 then goto 8;
             end;
           begin y := 0; level3; level3; x := x + y end;
         begin x := 0; level2; 8: g := g + x end;
         begin g := 0; level1; writeln(g) end.";
    let m = compile(src).unwrap();
    let t = gadt_transform::transform(&m).unwrap();
    let o1 = gadt_pascal::interp::Interpreter::new(&m).run().unwrap();
    let o2 = gadt_pascal::interp::Interpreter::new(&t.module)
        .run()
        .unwrap();
    assert_eq!(o1.output_text(), o2.output_text());
    // Zero residual side effects.
    let fx = gadt_analysis::effects::Effects::compute(&t.module);
    for p in &t.module.procs {
        if p.id != gadt_pascal::sema::MAIN_PROC {
            assert!(
                !fx.has_global_side_effects(p.id),
                "{} retains side effects",
                p.name
            );
        }
    }
}

/// Tracing a program whose symptom is output text (write) rather than a
/// global: the tree still supports debugging.
#[test]
fn debugging_with_write_only_symptom() {
    let src = "program t;
         function double(x: integer): integer;
         begin double := x + x + 1 (* bug *) end;
         begin writeln(double(21)) end.";
    let fixed_src = src.replace("x + x + 1 (* bug *)", "x + x");
    let buggy = compile(src).unwrap();
    let fixed = compile(&fixed_src).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    assert_eq!(run.output, "43\n");
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = Debugger::new(
        &prepared.transformed.module,
        &run.trace,
        DebugConfig::default(),
    )
    .run_program(&run.tree, &mut chain);
    assert!(
        matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "double"),
        "{}",
        out.render_transcript()
    );
}

/// A program with two independent bugs: the debugger localizes one; after
/// "fixing" it, the second session localizes the other (the paper's
/// iterative story for the misnamed-variable case).
#[test]
fn two_bugs_found_in_successive_sessions() {
    let two_bugs = "program t; var r1, r2: integer;
         function f(x: integer): integer;
         begin f := x * 2 + 1 (* bug 1 *) end;
         function g(x: integer): integer;
         begin g := x - 3 (* bug 2: should be x + 3 *) end;
         begin r1 := f(10); r2 := g(10); writeln(r1, ' ', r2) end.";
    let one_bug = two_bugs.replace("x * 2 + 1 (* bug 1 *)", "x * 2");
    let fixed = one_bug.replace("x - 3 (* bug 2: should be x + 3 *)", "x + 3");

    let reference = compile(&fixed).unwrap();

    // Session 1 on the two-bug program.
    let buggy1 = compile(two_bugs).unwrap();
    let p1 = prepare(&buggy1).unwrap();
    let r1 = run_traced(&p1, []).unwrap();
    let mut c1 = ChainOracle::new();
    c1.push(CountingOracle::new(
        ReferenceOracle::new(&reference, []).unwrap(),
    ));
    let out1 = Debugger::new(&p1.transformed.module, &r1.trace, DebugConfig::default())
        .run_program(&r1.tree, &mut c1);
    let DebugResult::BugLocalized { unit: u1, .. } = &out1.result else {
        panic!()
    };
    assert_eq!(u1, "f", "top-down finds the first bug first");

    // Session 2 after fixing f.
    let buggy2 = compile(&one_bug).unwrap();
    let p2 = prepare(&buggy2).unwrap();
    let r2 = run_traced(&p2, []).unwrap();
    let mut c2 = ChainOracle::new();
    c2.push(CountingOracle::new(
        ReferenceOracle::new(&reference, []).unwrap(),
    ));
    let out2 = Debugger::new(&p2.transformed.module, &r2.trace, DebugConfig::default())
        .run_program(&r2.tree, &mut c2);
    let DebugResult::BugLocalized { unit: u2, .. } = &out2.result else {
        panic!()
    };
    assert_eq!(u2, "g");
}

/// The `case` statement interacts correctly with slicing: an arm that
/// does not execute, or whose values do not feed the criterion, is
/// dropped from the dynamic slice.
#[test]
fn case_statement_slices_precisely() {
    let src = "program t; var x, a, b: integer;
         begin
           read(x);
           a := 0; b := 0;
           case x of
             1: a := 10;
             2: b := 20
           else begin a := 1; b := 2 end
           end;
           writeln(a, ' ', b)
         end.";
    let m = compile(src).unwrap();
    let cfg = lower(&m);
    let trace = record_trace(&m, &cfg, [gadt_pascal::value::Value::Int(1)]).unwrap();
    // Slice on a at program end: the executed arm `a := 10` is relevant,
    // the b-chain is not.
    let cx = SliceContext::new(&m, &cfg);
    let crit = SliceCriterion::at_program_end(&m, "a").unwrap();
    let st = static_slice(&cx, &crit);
    let printed = gadt_pascal::pretty::print_slice(&m.program, &st.stmts);
    assert!(printed.contains("a := 10"), "{printed}");
    assert!(!printed.contains("b := 20"), "{printed}");
    // The static slice keeps the case dispatch (control dependence).
    assert!(printed.contains("case x of"), "{printed}");
    // The printed slice runs and preserves `a` for each input.
    let sm = compile(&printed).unwrap();
    for input in [1i64, 2, 7] {
        let mut i1 = gadt_pascal::interp::Interpreter::new(&m);
        i1.set_input([gadt_pascal::value::Value::Int(input)]);
        let mut i2 = gadt_pascal::interp::Interpreter::new(&sm);
        i2.set_input([gadt_pascal::value::Value::Int(input)]);
        assert_eq!(
            i1.run().unwrap().global("a"),
            i2.run().unwrap().global("a"),
            "input {input}\n{printed}"
        );
    }
    let _ = trace;
}

/// Debugging a program whose bug sits inside one `case` arm.
#[test]
fn debugging_a_buggy_case_arm() {
    let src = "program t; var r: integer;
         procedure grade(score: integer; var points: integer);
         begin
           case score div 10 of
             10, 9: points := 4;
             8: points := 3;
             7: points := 1 (* bug: should be 2 *)
           else points := 0
           end
         end;
         begin grade(75, r); writeln(r) end.";
    let fixed_src = src.replace("points := 1 (* bug: should be 2 *)", "points := 2");
    let buggy = compile(src).unwrap();
    let fixed = compile(&fixed_src).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    assert_eq!(run.output, "1\n");
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = Debugger::new(
        &prepared.transformed.module,
        &run.trace,
        DebugConfig::default(),
    )
    .run_program(&run.tree, &mut chain);
    assert!(
        matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "grade"),
        "{}",
        out.render_transcript()
    );
}

/// `case` statements survive the transformation pipeline (globals inside
/// arms are converted like any other access).
#[test]
fn case_with_global_side_effects_transforms() {
    let src = "program t; var mode, hits: integer;
         procedure bump(k: integer);
         begin
           case k of
             1: hits := hits + 1;
             2: hits := hits + 10
           else hits := hits + 100
           end
         end;
         begin
           hits := 0; mode := 0;
           bump(1); bump(2); bump(3);
           writeln(hits)
         end.";
    let m = compile(src).unwrap();
    let t = gadt_transform::transform(&m).unwrap();
    let o1 = gadt_pascal::interp::Interpreter::new(&m).run().unwrap();
    let o2 = gadt_pascal::interp::Interpreter::new(&t.module)
        .run()
        .unwrap();
    assert_eq!(o1.output_text(), "111\n");
    assert_eq!(o1.output_text(), o2.output_text());
    let fx = gadt_analysis::effects::Effects::compute(&t.module);
    let bump = t.module.proc_by_name("bump").unwrap();
    assert!(!fx.has_global_side_effects(bump));
}

/// Tracing an *isolated* unit run (the T-GEN runner's execution mode)
/// produces a well-formed call tree and dependence trace too, so failed
/// test cases can be debugged directly without re-running main.
#[test]
fn isolated_unit_runs_can_be_traced_and_debugged() {
    use gadt_analysis::controldep::ProgramControlDeps;
    use gadt_analysis::dyntrace::DependenceRecorder;
    use gadt_pascal::value::Value;

    let m = compile(gadt_pascal::testprogs::SQRTEST).unwrap();
    let cfg = lower(&m);
    let cd = ProgramControlDeps::compute(&m, &cfg);
    let mut rec = DependenceRecorder::new(&cd);
    let mut interp = gadt_pascal::interp::Interpreter::with_cfg(&m, cfg.clone());
    let computs = m.proc_by_name("computs").unwrap();
    let run = interp
        .run_proc_with(
            computs,
            vec![Value::Int(3), Value::Int(0), Value::Int(0)],
            &mut rec,
        )
        .unwrap();
    assert_eq!(run.outs[0].1, Value::Int(12)); // buggy r1
    assert_eq!(run.outs[1].1, Value::Int(9));

    let trace = rec.finish();
    let tree = gadt_trace::build_tree(&m, &trace);
    // The tree roots at the synthetic main frame with computs below it,
    // and the whole §8 sub-hierarchy underneath.
    let computs_node = tree.find_call(&m, "computs").unwrap();
    assert_eq!(
        tree.render_node(computs_node),
        "computs(In y: 3, Out r1: 12, Out r2: 9)"
    );
    assert!(tree.find_call(&m, "decrement").is_some());

    // And the debugger runs on it: slicing on r1 then descending finds
    // decrement, exactly as in the whole-program session.
    let fixed = compile(gadt_pascal::testprogs::SQRTEST_FIXED).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = Debugger::new(&m, &trace, DebugConfig::default()).run(&tree, tree.root, &mut chain);
    assert!(
        matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement"),
        "{}",
        out.render_transcript()
    );
}

/// A program `n` levels deep in one kind of nesting.
fn deep_program(shape: &str, n: usize) -> String {
    let r = |s: &str| s.repeat(n);
    let head = "program deep; var x: integer; b: boolean; a: array[1..1] of integer;";
    match shape {
        "begin" => format!(
            "{head} begin {}x := 1{}; writeln(x) end.",
            r("begin "),
            r(" end")
        ),
        "if" => format!(
            "{head} begin x := 1; {}x := 2; writeln(x) end.",
            r("if x > 0 then ")
        ),
        "else-if" => format!(
            "{head} begin x := 0; {}x := 2; writeln(x) end.",
            r("if x = 1 then x := 3 else ")
        ),
        "while" => format!(
            "{head} begin x := 0; {}x := 1; writeln(x) end.",
            r("while x < 1 do ")
        ),
        "repeat" => format!(
            "{head} begin x := 0; {}x := 1{}; writeln(x) end.",
            r("repeat "),
            r(" until x > 0")
        ),
        "case" => format!(
            "{head} begin x := 1; {}x := 2{}; writeln(x) end.",
            r("case x of 1: "),
            r(" end")
        ),
        "label" => {
            let labels: Vec<String> = (1..=n).map(|l| l.to_string()).collect();
            let prefixes: String = labels.iter().map(|l| format!("{l}: ")).collect();
            format!(
                "program deep; label {}; var x: integer; begin {prefixes}x := 1; writeln(x) end.",
                labels.join(", ")
            )
        }
        "procedure" => {
            let mut src = String::from("program deep; var x: integer;");
            for level in 0..n {
                src += &format!(" procedure p{level};");
            }
            src += " begin x := x + 1 end;";
            for level in (1..n).rev() {
                src += &format!(" begin p{level} end;");
            }
            src + " begin x := 0; p0; writeln(x) end."
        }
        "array" => format!(
            "program deep; type t = {}integer; var v: t; begin writeln(1) end.",
            r("array[1..1] of ")
        ),
        "parens" => format!("{head} begin x := {}1{}; writeln(x) end.", r("("), r(")")),
        "not" => format!("{head} begin b := {}true; writeln(b) end.", r("not ")),
        "sign" => format!("{head} begin x := {}1{}; writeln(x) end.", r("-("), r(")")),
        "chain" => format!("{head} begin x := 1{}; writeln(x) end.", r(" + 1")),
        "operand" => format!(
            "{head} begin x := {}1{}; writeln(x) end.",
            r("1 + ("),
            r(")")
        ),
        "index" => format!(
            "{head} begin a[1] := 1; x := {}1{}; writeln(x) end.",
            r("a["),
            r("]")
        ),
        "call" => format!(
            "program deep; var x: integer; function f(y: integer): integer; \
             begin f := y + 1 end; begin x := {}0{}; writeln(x) end.",
            r("f("),
            r(")")
        ),
        _ => unreachable!("{shape}"),
    }
}

/// The deepest program of each nesting shape the parser accepts goes
/// through analysis, the §6 transformation, CFG lowering, VM
/// compilation, a traced run on both engines and printing on a 2 MiB
/// stack; one level more is a parse error, where 10 000 nested `begin`s
/// once overflowed a 16 MiB stack in the parser.
#[test]
fn deepest_accepted_programs_run_on_a_small_stack() {
    let shapes = [
        "begin",
        "if",
        "else-if",
        "while",
        "repeat",
        "case",
        "label",
        "procedure",
        "array",
        "parens",
        "not",
        "sign",
        "chain",
        "operand",
        "index",
        "call",
    ];
    for shape in shapes {
        let deepest = (1..)
            .take_while(|&n| parse_program(&deep_program(shape, n)).is_ok())
            .last()
            .unwrap_or_else(|| panic!("{shape}: no depth parses"));
        let err = parse_program(&deep_program(shape, deepest + 1)).unwrap_err();
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_NESTING} levels"),
            "{shape}"
        );
        let src = deep_program(shape, deepest);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let module = compile(&src).unwrap();
                let vm = prepare(&module).unwrap();
                let walker = vm.clone().with_engine(Engine::TreeWalker);
                let on_vm = run_traced(&vm, []).unwrap();
                let walked = run_traced(&walker, []).unwrap();
                assert_eq!(on_vm.output, walked.output);
                assert_eq!(
                    on_vm.tree.render(on_vm.tree.root),
                    walked.tree.render(walked.tree.root)
                );
                print_program(&vm.transformed.module.program);
                print_program(&module.program);
            })
            .unwrap()
            .join()
            .unwrap_or_else(|_| panic!("{shape} at {deepest} levels"));
    }
}
