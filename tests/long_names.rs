//! Identifiers too long to store inline.
//!
//! `gadt_pascal::name::Name` keeps up to 22 bytes inline and boxes
//! longer text. No fixture or generated program has an identifier that
//! long, so this test gives a program one: every name it declares grows
//! by a 30-byte suffix. The long-name program goes through compile, the
//! §6 transformation (whose phase A and C synthesize parameter, variable
//! and label names from the long ones), a traced run, a golden-oracle
//! debug session and the printer, beside its short-name twin.

use gadt::debugger::{DebugConfig, DebugOutcome, DebugResult, Debugger};
use gadt::oracle::{ChainOracle, GoldenOracle};
use gadt::session::{prepare, run_traced};
use gadt_pascal::ast::{Block, Program};
use gadt_pascal::ast_mut::strip_spans;
use gadt_pascal::parser::parse_program;
use gadt_pascal::pretty::print_program;
use gadt_pascal::sema::{compile, VarKind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Appended to every declared name of the long-name twin.
const SUFFIX: &str = "_with_a_long_descriptive_suffix";

/// Globals written by a nested procedure (phase A), a goto from it to a
/// label of its caller (phase C), a loop unit, and a planted bug in
/// `scaled`.
const BUGGY: &str = "program ledger;
var total, count: integer;

procedure settle(n: integer);
label 9;
  procedure post(k: integer);
  begin
    total := total + k;
    if total > 5 then goto 9;
    count := count + 100
  end;
begin
  post(n);
  count := count + 1;
  9: count := count + 10
end;

function scaled(v: integer): integer;
var i, acc: integer;
begin
  acc := 0;
  i := 0;
  while i < v do begin
    acc := acc + 3;
    i := i + 1
  end;
  scaled := acc + 1 (* bug: should be acc *)
end;

begin
  total := 0;
  count := 0;
  settle(7);
  writeln(scaled(total));
  writeln(count)
end.";

fn fixed() -> String {
    BUGGY.replace(
        "scaled := acc + 1 (* bug: should be acc *)",
        "scaled := acc",
    )
}

/// Every name a program declares, lowercased.
fn declared_names(program: &Program) -> BTreeSet<String> {
    fn block(b: &Block, out: &mut BTreeSet<String>) {
        out.extend(b.consts.iter().map(|c| c.name.key().to_string()));
        out.extend(b.types.iter().map(|t| t.name.key().to_string()));
        for g in &b.vars {
            out.extend(g.names.iter().map(|n| n.key().to_string()));
        }
        for p in &b.procs {
            out.insert(p.name.key().to_string());
            for g in &p.params {
                out.extend(g.names.iter().map(|n| n.key().to_string()));
            }
            block(&p.block, out);
        }
    }
    let mut out = BTreeSet::from([program.name.key().to_string()]);
    block(&program.block, &mut out);
    out
}

/// `text` with [`SUFFIX`] after each identifier-shaped word that is one
/// of `names` (lowercase).
fn lengthen_words(text: &str, names: &BTreeSet<String>) -> String {
    let mut out = String::new();
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        out.push_str(word);
        if names.contains(&word.to_ascii_lowercase()) {
            out.push_str(SUFFIX);
        }
        word.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// The source with every identifier it declares lengthened.
fn lengthen(source: &str) -> String {
    lengthen_words(
        source,
        &declared_names(&parse_program(source).expect("parses")),
    )
}

/// What one twin's pipeline produced.
struct Session {
    output: String,
    /// The transformed program, printed.
    transformed: String,
    outcome: DebugOutcome,
}

/// Compile, transform and trace `buggy`, then debug it against the
/// transformed `fixed` program's traced run.
fn session(buggy: &str, fixed: &str) -> Session {
    let golden = prepare(&compile(fixed).expect("fixed compiles")).expect("fixed transforms");
    let golden_run = run_traced(&golden, []).expect("fixed runs");
    let prepared = prepare(&compile(buggy).expect("buggy compiles")).expect("buggy transforms");
    let run = run_traced(&prepared, []).expect("buggy runs");
    let mut chain = ChainOracle::new();
    chain.push(
        GoldenOracle::from_tree(&golden.transformed.module, &golden_run.tree)
            .with_cfg(Arc::clone(&golden.cfg)),
    );
    let outcome = Debugger::new(
        &prepared.transformed.module,
        &run.trace,
        DebugConfig::default(),
    )
    .with_mapping(&prepared.transformed.mapping)
    .run_program(&run.tree, &mut chain);

    // Every name the long twin declares, and every name its transformed
    // program and tree carry, is past the inline bound.
    if buggy.contains(SUFFIX) {
        let module = &prepared.transformed.module;
        for v in module.vars.iter().filter(|v| v.kind != VarKind::Temp) {
            assert!(!v.name.is_inline(), "variable `{}` is inline", v.name);
        }
        for p in &module.procs[1..] {
            assert!(!p.name.is_inline(), "procedure `{}` is inline", p.name);
        }
        for n in &run.tree.nodes {
            assert!(!n.name.is_inline(), "node `{}` is inline", n.name);
            for (name, _) in n.ins.iter().chain(&n.outs) {
                assert!(!name.is_inline(), "`{name}` of `{}` is inline", n.name);
            }
        }
    }
    Session {
        output: run.output.clone(),
        transformed: print_program(&prepared.transformed.module.program),
        outcome,
    }
}

fn unit_of(outcome: &DebugOutcome) -> &str {
    match &outcome.result {
        DebugResult::BugLocalized { unit, .. } => unit,
        DebugResult::NoBugFound => panic!("no bug found:\n{}", outcome.render_transcript()),
    }
}

#[test]
fn long_identifiers_localize_the_same_unit_as_their_short_twin() {
    let names = declared_names(&parse_program(BUGGY).unwrap());
    let (long_buggy, long_fixed) = (lengthen(BUGGY), lengthen(&fixed()));
    assert!(long_buggy.contains(&format!("scaled{SUFFIX}")));

    let short = session(BUGGY, &fixed());
    let long = session(&long_buggy, &long_fixed);
    assert_eq!(short.output, long.output);
    // The transformation names what it adds after the long names, and
    // otherwise rewrites both twins alike.
    assert!(long.transformed.contains(&format!("exitcond_post{SUFFIX}")));
    assert_eq!(long.transformed.replace(SUFFIX, ""), short.transformed);
    assert_eq!(unit_of(&short.outcome), "scaled");
    assert_eq!(unit_of(&long.outcome), format!("scaled{SUFFIX}"));

    // The same questions, named the long way, with the same answers.
    let questions = |o: &DebugOutcome| -> Vec<(String, String)> {
        o.transcript
            .iter()
            .map(|e| (e.query.clone(), e.answer.to_string()))
            .collect()
    };
    let expected: Vec<(String, String)> = questions(&short.outcome)
        .into_iter()
        .map(|(q, a)| (lengthen_words(&q, &names), a))
        .collect();
    assert!(expected.len() > 1, "{}", short.outcome.render_transcript());
    assert_eq!(questions(&long.outcome), expected);
}

#[test]
fn long_identifiers_print_and_reparse_to_the_same_program() {
    let long = lengthen(BUGGY);
    let mut parsed = parse_program(&long).unwrap();
    let printed = print_program(&parsed);
    assert!(
        printed.contains(&format!("procedure post{SUFFIX}")),
        "{printed}"
    );
    let mut reparsed = parse_program(&printed).unwrap();
    strip_spans(&mut parsed);
    strip_spans(&mut reparsed);
    assert_eq!(parsed, reparsed, "printed as\n{printed}");
    assert!(!parsed.name.name.is_inline());
}
