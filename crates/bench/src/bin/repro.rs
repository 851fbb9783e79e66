//! Regenerates every figure and quantitative claim of the paper.
//!
//! ```sh
//! cargo run -p gadt-bench --bin repro            # all experiments
//! cargo run -p gadt-bench --bin repro -- e7      # one experiment
//! ```
//!
//! Experiment ids follow DESIGN.md's index (E1–E12).

use gadt::debugger::{DebugConfig, DebugResult};
use gadt::oracle::{ChainOracle, CountingOracle, ReferenceOracle};
use gadt::session::{debug, prepare, run_traced};
use gadt::testlookup::TestLookup;
use gadt_analysis::dyntrace::record_trace;
use gadt_analysis::slice_dynamic::dynamic_slice_output;
use gadt_analysis::slice_static::{static_slice, SliceContext, SliceCriterion};
use gadt_bench::genprog::{generate, GenConfig};
use gadt_bench::measure::{interaction_sweep, methods};
use gadt_pascal::cfg::lower;
use gadt_pascal::interp::Interpreter;
use gadt_pascal::pretty::{print_program, print_slice};
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_pascal::value::Value;
use gadt_tgen::{cases, frames, spec};
use gadt_transform::{growth_factor, transform};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    if which.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: repro [e1 … e14 | all]");
        println!("Regenerates the paper's figures and quantitative claims.");
        println!("With no arguments, runs every experiment.");
        return;
    }
    let all = which.is_empty() || which.iter().any(|a| a == "all");
    let want = |id: &str| all || which.iter().any(|a| a == id);

    let experiments: Vec<(&str, &str, fn())> = vec![
        ("e1", "Figure 1: T-GEN frames and scripts for arrsum", e1),
        ("e2", "Figure 2: static slice of program p on mul", e2),
        ("e3", "§3: pure algorithmic debugging on P/Q/R", e3),
        ("e4", "Figures 4+7: sqrtest and its execution tree", e4),
        ("e5", "Figure 8: tree sliced on computs' first output", e5),
        (
            "e6",
            "Figure 9: tree sliced on partialsums' second output",
            e6,
        ),
        ("e7", "§8: the full GADT session on sqrtest", e7),
        ("e8", "Interaction sweep: pure AD vs AD+slicing vs GADT", e8),
        ("e9", "§9 claim: transformation growth < 2×", e9),
        ("e10", "§9/§4 claims: tree scaling and slice sizes", e10),
        ("e11", "§6: the transformation examples", e11),
        ("e12", "§5.3.3: the misnamed-variable scenario", e12),
        ("e13", "Ablations: traversal strategy and assertions", e13),
        (
            "e14",
            "Figures 5–6: irrelevant calls removed by slicing (§7)",
            e14,
        ),
    ];

    for (id, title, f) in experiments {
        if want(id) {
            println!("\n================================================================");
            println!("{} — {}", id.to_uppercase(), title);
            println!("================================================================\n");
            f();
        }
    }
}

fn e1() {
    let s = spec::parse_spec(spec::ARRSUM_SPEC).expect("spec");
    let g = frames::generate_frames(&s, Default::default());
    println!("frames ({}):", g.frames.len());
    for f in &g.frames {
        println!("  {f}");
    }
    for name in g.scripts.keys() {
        let members: Vec<String> = g.script(name).iter().map(|f| f.to_string()).collect();
        println!("{name}: {}", members.join(" "));
    }
    let s1: Vec<String> = g.script("script_1").iter().map(|f| f.to_string()).collect();
    println!(
        "\npaper: script_1 contains (more, mixed, large) and (more, mixed, average)\nmeasured: script_1 = {}  →  {}",
        s1.join(" "),
        if s1 == vec!["(more, mixed, large)", "(more, mixed, average)"] {
            "MATCH"
        } else {
            "MISMATCH"
        }
    );
}

fn e2() {
    let m = compile(testprogs::FIGURE2).expect("compile");
    let cfg = lower(&m);
    let cx = SliceContext::new(&m, &cfg);
    let criterion = SliceCriterion::at_program_end(&m, "mul").expect("mul");
    let slice = static_slice(&cx, &criterion);
    println!(
        "--- original (Figure 2a) ---\n{}",
        print_program(&m.program)
    );
    println!(
        "--- slice on mul (Figure 2b) ---\n{}",
        print_slice(&m.program, &slice.stmts)
    );
    let text = print_slice(&m.program, &slice.stmts);
    let keeps = ["read(x, y)", "mul := 0", "if x <= 1", "mul := x * y"];
    let drops = ["sum", "read(z)"];
    let ok = keeps.iter().all(|k| text.contains(k)) && drops.iter().all(|d| !text.contains(d));
    println!(
        "paper shape (keeps read/mul/if, drops sum/read(z)): {}",
        if ok { "MATCH" } else { "MISMATCH" }
    );
}

fn e3() {
    let buggy = compile(testprogs::PQR).expect("compile");
    let fixed = compile(testprogs::PQR_FIXED).expect("compile");
    let prepared = prepare(&buggy).expect("prepare");
    let run = run_traced(&prepared, []).expect("trace");
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
    println!("{}", out.render_transcript());
    let ok = matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "r");
    println!(
        "paper: error localized inside procedure R → {}",
        if ok { "MATCH" } else { "MISMATCH" }
    );
}

fn sqrtest_run() -> (gadt::session::PreparedProgram, gadt::session::TracedRun) {
    let buggy = compile(testprogs::SQRTEST).expect("compile");
    let prepared = prepare(&buggy).expect("prepare");
    let run = run_traced(&prepared, []).expect("trace");
    (prepared, run)
}

fn e4() {
    let (prepared, run) = sqrtest_run();
    println!("{}", run.tree.render(run.tree.root));
    let m = &prepared.transformed.module;
    let expect = [
        (
            "sqrtest",
            "sqrtest(In ary: [1,2], In n: 2, Out isok: false)",
        ),
        ("arrsum", "arrsum(In a: [1,2], In n: 2, Out b: 3)"),
        ("computs", "computs(In y: 3, Out r1: 12, Out r2: 9)"),
        ("test", "test(In r1: 12, In r2: 9, Out isok: false)"),
        ("partialsums", "partialsums(In y: 3, Out s1: 6, Out s2: 6)"),
        ("add", "add(In s1: 6, In s2: 6, Out r1: 12)"),
        ("square", "square(In y: 3, Out r2: 9)"),
        ("increment", "increment(In y: 3) = 4"),
        ("decrement", "decrement(In y: 3) = 4"),
    ];
    let mut ok = true;
    for (name, want) in expect {
        let node = run.tree.find_call(m, name).expect(name);
        let got = run.tree.render_node(node);
        if got != want {
            ok = false;
            println!("MISMATCH {name}: got {got}, want {want}");
        }
    }
    println!(
        "13 procedure invocations (paper Figure 7): measured {} calls → {}",
        run.tree
            .preorder()
            .iter()
            .filter(|&&n| matches!(run.tree.node(n).kind, gadt_trace::NodeKind::Call { .. }))
            .count()
            - 1, // minus Main
        if ok { "MATCH" } else { "MISMATCH" }
    );
}

fn e5() {
    let (prepared, run) = sqrtest_run();
    let m = &prepared.transformed.module;
    let computs = run
        .trace
        .calls
        .iter()
        .find(|c| m.proc(c.proc).name == "computs")
        .unwrap();
    let slice = dynamic_slice_output(m, &run.trace, computs.id, 0);
    let node = run.tree.find_call(m, "computs").unwrap();
    let pruned = run.tree.prune(node, &slice);
    println!("{}", pruned.render(pruned.root));
    let names: Vec<String> = pruned
        .preorder()
        .into_iter()
        .map(|n| pruned.node(n).name.to_string())
        .collect();
    let want = [
        "computs",
        "comput1",
        "partialsums",
        "sum1",
        "increment",
        "sum2",
        "decrement",
        "add",
    ];
    println!(
        "paper Figure 8 (left subtree only, comput2/square dropped): {}",
        if names == want { "MATCH" } else { "MISMATCH" }
    );
}

fn e6() {
    let (prepared, run) = sqrtest_run();
    let m = &prepared.transformed.module;
    let ps = run
        .trace
        .calls
        .iter()
        .find(|c| m.proc(c.proc).name == "partialsums")
        .unwrap();
    let slice = dynamic_slice_output(m, &run.trace, ps.id, 1);
    let node = run.tree.find_call(m, "partialsums").unwrap();
    let pruned = run.tree.prune(node, &slice);
    println!("{}", pruned.render(pruned.root));
    let names: Vec<String> = pruned
        .preorder()
        .into_iter()
        .map(|n| pruned.node(n).name.to_string())
        .collect();
    println!(
        "paper Figure 9 (partialsums → sum2 → decrement): {}",
        if names == ["partialsums", "sum2", "decrement"] {
            "MATCH"
        } else {
            "MISMATCH"
        }
    );
}

fn e7() {
    let buggy = compile(testprogs::SQRTEST).expect("compile");
    let fixed = compile(testprogs::SQRTEST_FIXED).expect("compile");
    let prepared = prepare(&buggy).expect("prepare");
    let run = run_traced(&prepared, []).expect("trace");

    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let db = cases::run_cases(&buggy, "arrsum", &tc, &|ins, r| {
        cases::arrsum_oracle(ins, r)
    })
    .unwrap();
    let mut lookup = TestLookup::new();
    lookup.register("arrsum", db, Box::new(cases::arrsum_frame_selector));

    let mut chain = ChainOracle::new();
    chain.push(lookup);
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
    println!("{}", out.render_transcript());
    println!("slices taken: {} (paper: 2)", out.slices_taken);
    println!(
        "user queries: {} of {} total; arrsum answered by test database: {}",
        out.queries_from("reference"),
        out.total_queries(),
        out.queries_from("test database")
    );

    // Comparison: pure AD on the same tree.
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
    println!(
        "\npure AD needs {} user queries; GADT needs {} → reduction {}",
        out_pure.queries_from("reference"),
        out.queries_from("reference"),
        if out.queries_from("reference") < out_pure.queries_from("reference") {
            "MATCH (paper: 'greatly reduced number of interactions')"
        } else {
            "MISMATCH"
        }
    );
    let ok = matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement");
    println!(
        "bug localized in decrement: {}",
        if ok { "MATCH" } else { "MISMATCH" }
    );
}

fn e8() {
    println!("workload: generated programs, one mutation each; user-interaction counts\n");
    for procs in [5, 8, 12] {
        let rows = interaction_sweep(8, procs);
        if rows.is_empty() {
            continue;
        }
        println!(
            "--- programs with {procs} procedures ({} mutants) ---",
            rows.len()
        );
        print!("{:<10} {:>10}", "seed", "tree size");
        for (name, _) in methods() {
            print!(" {name:>16}");
        }
        println!();
        for r in &rows {
            print!("{:<10} {:>10}", r.seed, r.tree_size);
            for (_, q, ok) in &r.counts {
                print!(" {:>14}{}", q, if *ok { "  " } else { " !" });
            }
            println!();
        }
        let avg =
            |i: usize| rows.iter().map(|r| r.counts[i].1 as f64).sum::<f64>() / rows.len() as f64;
        println!(
            "{:<10} {:>10} {:>16.1} {:>16.1} {:>16.1} {:>16.1}",
            "mean",
            "",
            avg(0),
            avg(1),
            avg(2),
            avg(3)
        );
        println!();
    }
    println!("shape check: mean(GADT) ≤ mean(AD+slicing) ≤ mean(pure AD) per block above");
}

fn e9() {
    println!(
        "{:<22} {:>8} {:>8} {:>8}",
        "program", "before", "after", "growth"
    );
    let mut worst: f64 = 0.0;
    for (name, src) in testprogs::ALL {
        let m = compile(src).unwrap();
        let t = transform(&m).unwrap();
        let g = growth_factor(&m, &t);
        worst = worst.max(g);
        println!(
            "{:<22} {:>8} {:>8} {:>7.2}×",
            name,
            m.program.stmt_count(),
            t.module.program.stmt_count(),
            g
        );
    }
    for seed in 0..5u64 {
        let gp = generate(&GenConfig {
            procs: 8,
            max_calls: 2,
            seed,
        });
        let m = compile(&gp.source).unwrap();
        let t = transform(&m).unwrap();
        let g = growth_factor(&m, &t);
        worst = worst.max(g);
        println!(
            "{:<22} {:>8} {:>8} {:>7.2}×",
            format!("generated(seed={seed})"),
            m.program.stmt_count(),
            t.module.program.stmt_count(),
            g
        );
    }
    println!(
        "\npaper §9: 'small procedures usually grow less than a factor of two'\nmeasured worst growth: {worst:.2}× → {}",
        if worst < 2.0 { "MATCH" } else { "MISMATCH" }
    );
}

fn e10() {
    // Tree size vs input size (§9: "strongly application dependent").
    const SCALED: &str = "
program scaled;
var n, i, s: integer;
procedure step(x: integer; var acc: integer);
begin acc := acc + x * x end;
begin
  read(n);
  s := 0;
  for i := 1 to n do step(i, s);
  writeln(s);
end.";
    let m = compile(SCALED).unwrap();
    let cfg = lower(&m);
    println!("tree size vs input size (program `scaled`):");
    println!("{:>6} {:>10} {:>10}", "n", "nodes", "events");
    for n in [1i64, 5, 10, 50, 200] {
        let trace = record_trace(&m, &cfg, [Value::Int(n)]).unwrap();
        let tree = gadt_trace::build_tree(&m, &trace);
        println!("{:>6} {:>10} {:>10}", n, tree.len(), trace.events.len());
    }
    println!("\npaper §9: execution-tree size is strongly application (input) dependent → linear growth above\n");

    // Slice sizes (§4: "a slice is often much smaller than the original
    // program").
    println!("slice sizes on generated programs (statements):");
    println!(
        "{:>6} {:>9} {:>14} {:>15}",
        "seed", "program", "static slice", "dynamic slice"
    );
    let mut ratios = Vec::new();
    for seed in 0..6u64 {
        let gp = generate(&GenConfig {
            procs: 10,
            max_calls: 2,
            seed,
        });
        let m = compile(&gp.source).unwrap();
        let cfg = lower(&m);
        let total = m.program.stmt_count();
        let cx = SliceContext::new(&m, &cfg);
        let crit = SliceCriterion::at_program_end(&m, "r1").unwrap();
        let st = static_slice(&cx, &crit);
        let trace = record_trace(&m, &cfg, []).unwrap();
        // Dynamic slice on the top procedure's first output.
        let top = trace.calls[1].id;
        let dy = dynamic_slice_output(&m, &trace, top, 0);
        println!(
            "{:>6} {:>9} {:>14} {:>15}",
            seed,
            total,
            st.len(),
            dy.stmts.len()
        );
        ratios.push((
            st.len() as f64 / total as f64,
            dy.stmts.len() as f64 / total as f64,
        ));
    }
    let avg_s = ratios.iter().map(|(s, _)| s).sum::<f64>() / ratios.len() as f64;
    let avg_d = ratios.iter().map(|(_, d)| d).sum::<f64>() / ratios.len() as f64;
    println!(
        "\nmean static-slice ratio {:.0}%, mean dynamic-slice ratio {:.0}% → {}",
        avg_s * 100.0,
        avg_d * 100.0,
        if avg_s < 1.0 && avg_d <= avg_s + 1e-9 {
            "MATCH (slices smaller than program; dynamic ≤ static)"
        } else {
            "MISMATCH"
        }
    );
}

fn e11() {
    for (title, src) in [
        ("global variables → parameters", testprogs::SECTION6_GLOBALS),
        ("global goto → exit parameter", testprogs::SECTION6_GOTO),
        (
            "goto out of a loop → leave flag",
            testprogs::SECTION6_LOOP_GOTO,
        ),
    ] {
        let m = compile(src).unwrap();
        let t = transform(&m).unwrap();
        println!("--- {title} ---");
        println!("{}", print_program(&t.module.program));
        let o1 = Interpreter::new(&m).run().unwrap();
        let o2 = Interpreter::new(&t.module).run().unwrap();
        println!(
            "semantics preserved ({} = {}): {}\n",
            o1.output_text().trim(),
            o2.output_text().trim(),
            if o1.output_text() == o2.output_text() {
                "MATCH"
            } else {
                "MISMATCH"
            }
        );
    }
}

fn e14() {
    let m = compile(testprogs::FIGURE5).expect("compile");
    let cfg = lower(&m);
    let trace = record_trace(&m, &cfg, []).expect("trace");
    let tree = gadt_trace::build_tree(&m, &trace);
    println!("--- Figure 6: the execution tree of the Figure 5 program ---\n");
    println!("{}", tree.render(tree.root));
    let pn = trace
        .calls
        .iter()
        .find(|c| m.proc(c.proc).name == "pn")
        .expect("pn call");
    let slice = dynamic_slice_output(&m, &trace, pn.id, 0);
    let pruned = tree.prune(tree.root, &slice);
    println!("--- after slicing on pn's output y ---\n");
    println!("{}", pruned.render(pruned.root));
    let names: Vec<String> = pruned
        .preorder()
        .into_iter()
        .map(|n| pruned.node(n).name.to_string())
        .collect();
    let ok = names.contains(&"pn".to_string())
        && !names.iter().any(|n| n == "p1" || n == "p2" || n == "p3");
    println!(
        "paper §7: p1..p(n-1) execute before pn but are irrelevant to y → {}",
        if ok {
            "MATCH (all removed)"
        } else {
            "MISMATCH"
        }
    );
}

fn e13() {
    use gadt::oracle::AssertionOracle;
    use gadt::Strategy;
    use gadt_bench::measure::strategy_ablation;

    // (a) Traversal strategy ablation, no slicing.
    println!("(a) traversal strategy (user queries, no slicing):\n");
    print!("{:>6} {:>10}", "seed", "tree size");
    for s in Strategy::ALL {
        print!(" {:>18}", s.slug());
    }
    println!();
    let rows = strategy_ablation(8, 10);
    let mut sums = vec![0.0f64; Strategy::ALL.len()];
    for r in &rows {
        print!("{:>6} {:>10}", r.seed, r.tree_size);
        for (i, q) in r.queries.iter().enumerate() {
            print!(" {:>18}", q);
            sums[i] += *q as f64;
        }
        println!();
    }
    if !rows.is_empty() {
        print!("{:>6} {:>10}", "mean", "");
        for s in &sums {
            print!(" {:>18.1}", s / rows.len() as f64);
        }
        println!();
    }
    println!("(every strategy localizes every planted bug; §7: the traversal choice does not affect correctness)\n");

    // (b) Assertions: partial specifications answer queries (§3, after
    // Drabent et al.): the §8 session with assertions for the arithmetic
    // helpers needs fewer user answers.
    let buggy = compile(testprogs::SQRTEST).unwrap();
    let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();

    let mut assertions = AssertionOracle::new();
    assertions.assert_unit("add", "r1 = s1 + s2");
    assertions.assert_unit("test", "isok = (r1 = r2)");
    assertions.assert_unit("arrsum", "b = a[1] + a[2]");
    assertions.assert_unit("square", "r2 = y * y");
    assertions.assert_unit("increment", "increment = y + 1");

    let mut chain = ChainOracle::new();
    chain.push(assertions);
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
    println!("(b) the §8 session with assertions installed:\n");
    println!("{}", out.render_transcript());
    println!(
        "user queries with assertions: {} (vs 6 with the test DB, 8 with pure AD); answered by assertions: {}",
        out.queries_from("reference"),
        out.queries_from("assertions")
    );
    let ok = matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement");
    println!(
        "bug still localized in decrement: {}",
        if ok { "MATCH" } else { "MISMATCH" }
    );
}

fn e12() {
    let src = "program t; var r: integer;
         procedure f(x: integer; var y: integer); begin y := x * 2 end;
         procedure caller(var r: integer);
         var a, b: integer;
         begin a := 1; b := 99; f(b, r) end; (* should be f(a, r) *)
         begin caller(r); writeln(r) end.";
    let fixed_src = src.replace("f(b, r) end; (* should be f(a, r) *)", "f(a, r) end;");
    let buggy = compile(src).unwrap();
    let fixed = compile(&fixed_src).unwrap();
    let prepared = prepare(&buggy).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut chain = ChainOracle::new();
    chain.push(CountingOracle::new(
        ReferenceOracle::new(&fixed, []).unwrap(),
    ));
    let out = debug(&prepared, &run, &mut chain, DebugConfig::default());
    println!("{}", out.render_transcript());
    let ok = matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "caller");
    println!(
        "paper §5.3.3: the misnamed-variable bug is correctly localized to the calling procedure → {}",
        if ok { "MATCH" } else { "MISMATCH" }
    );
}
