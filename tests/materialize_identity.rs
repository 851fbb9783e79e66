//! In-memory mutant materialization against the text round trip.
//!
//! A campaign analyzes `materialize(program, site)` where it once
//! printed `apply(program, site)` and parsed the text again. This suite
//! holds the two equal on every enumerated site of the curated fixtures,
//! the committed corpus regressions, generated programs, and hand-written
//! programs that put deleted and duplicated assignments in every
//! statement position: spans erased, ids and fresh-id counters included.
//! Where the printed text does not parse, both sides carry the parser's
//! diagnostic, and the campaign reports the mutant stillborn with it.

use gadt_corpus::gen::{generate_batch, GenConfig};
use gadt_mutate::{
    apply, enumerate_sites, materialize, run_campaign, CampaignConfig, CampaignProgram, MutOp,
    MutantStatus,
};
use gadt_pascal::ast_mut::strip_spans;
use gadt_pascal::parser::parse_program;
use gadt_pascal::pretty::print_program;
use gadt_pascal::testprogs;
use std::path::PathBuf;

/// A deleted and a duplicated assignment in every position: sequence
/// element, `then` and `else` branch, `while`/`repeat`/`for` body,
/// `case` arm and `else` arm, labeled statement, a compound's only
/// statement, and an inner `else` whose deletion leaves the outer `else`
/// to bind to the inner `if`.
const POSITIONS: &str = "program positions;
label 7;
var x, y, i: integer;
begin
  x := 1;
  if x > 0 then y := 2 else y := 3;
  if x > 5 then begin y := 4 end;
  while x < 3 do x := x + 1;
  repeat y := y - 1 until y < 0;
  for i := 1 to 2 do y := y + i;
  case x of
    1: y := 4;
    3: y := 5
  else y := 6
  end;
  7: y := y + 1;
  if x > 0 then
    if y > 0 then x := 1 else y := 1
  else y := 2;
  if x > 0 then
    while y > 9 do
      if y > 0 then x := 1 else y := 7
  else y := 8;
  writeln(x, y)
end.";

/// Empty statements the parser keeps and the printer drops or rewrites:
/// `;;`, a leading `;`, `; end`, and empties in single-statement
/// positions.
const EMPTIES: &str = "program empties;
label 7;
var x, y: integer;
procedure p(var a: integer);
begin ; a := a + 1;; end;
begin
  ;
  x := 1;;
  y := 2;
  if x > 0 then ;
  if x > 1 then y := 1 else ;
  while x > 5 do ;
  for y := 1 to 2 do ;
  case x of 1: ; 2: y := 2 else end;
  7: ;
  begin ; end;
  repeat ; x := x + 1; until x > 2;
  p(x);
  writeln(x, y);
end.";

/// The largest integer literal: its off-by-one mutant prints as
/// `-9223372036854775808`, which does not lex.
const LARGEST_LITERAL: &str = "program largest;
var x: integer;
begin
  x := 9223372036854775807;
  writeln(x)
end.";

/// Constructs the printer once wrote in forms that do not parse: a real
/// constant printed with an exponent, `readln()` for an argument-less
/// `readln`, and a chained comparison.
const PRINTER_GAPS: &str = "program gaps;
const big = 1.0e20; small = 1.5e-7;
var x, y: integer; b: boolean;
begin
  readln;
  x := 1;
  y := 2;
  b := (x = 1) = (y < 2);
  if (x < y) = b then writeln(big, small)
end.";

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

fn subjects() -> Vec<(String, String)> {
    let mut subjects: Vec<(String, String)> = [
        ("positions", POSITIONS),
        ("empties", EMPTIES),
        ("largest", LARGEST_LITERAL),
        ("gaps", PRINTER_GAPS),
    ]
    .into_iter()
    .chain(testprogs::ALL.iter().copied())
    .map(|(name, src)| (name.to_string(), src.to_string()))
    .collect();
    subjects.extend(regressions());
    subjects.extend(
        generate_batch(0, 16, &GenConfig::default(), 2)
            .into_iter()
            .map(|p| (format!("seed {}", p.seed), p.source)),
    );
    subjects
}

/// Checks every site of `source`; returns the sites and how many of
/// them print to text that does not parse.
fn check_subject(name: &str, source: &str) -> (usize, usize) {
    let ast = parse_program(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let sites = enumerate_sites(&ast);
    let mut unparsed = 0;
    for site in &sites {
        let what = format!("{name} {} #{}", site.op, site.ordinal);
        let printed = print_program(&apply(&ast, site).expect("enumerated site applies"));
        let reference = parse_program(&printed);
        match (
            materialize(&ast, site).expect("enumerated site applies"),
            reference,
        ) {
            (Ok(mut memory), Ok(mut text)) => {
                strip_spans(&mut memory);
                strip_spans(&mut text);
                assert_eq!(memory, text, "{what}: printed as\n{printed}");
            }
            (Err(memory), Err(text)) => {
                assert_eq!(memory, text, "{what}");
                unparsed += 1;
            }
            (memory, text) => panic!(
                "{what}: in memory {:?}, text {:?}\n{printed}",
                memory.err(),
                text.err()
            ),
        }
    }
    (sites.len(), unparsed)
}

#[test]
fn materialized_mutants_equal_their_reparsed_text() {
    let (mut sites, mut unparsed) = (0, 0);
    for (name, source) in subjects() {
        let (n, u) = check_subject(&name, &source);
        sites += n;
        unparsed += u;
    }
    assert!(sites > 3000, "only {sites} sites");
    // The largest literal's off-by-one is the one unparsable mutant.
    assert_eq!(
        unparsed, 1,
        "{unparsed} mutants print to text that does not parse"
    );
}

/// Deleting the inner `y := 1` empties the inner `else`, so the printed
/// outer `else y := 2` binds to the inner `if`; `materialize` moves it
/// there.
#[test]
fn deleting_an_inner_else_moves_the_outer_else_inward() {
    let ast = parse_program(POSITIONS).unwrap();
    let site = enumerate_sites(&ast)
        .into_iter()
        .find(|s| s.description == "delete `y := 1`")
        .unwrap();
    let printed = print_program(&materialize(&ast, &site).unwrap().unwrap());
    assert!(
        printed.contains("if y > 0 then\n      x := 1\n    else\n      y := 2;"),
        "{printed}"
    );
}

/// The parser's own message reaches the campaign report: the off-by-one
/// on the largest literal is stillborn, as when the campaign compiled
/// the printed text.
#[test]
fn unparsable_mutant_is_stillborn_with_the_parser_message() {
    let programs = vec![CampaignProgram::new("largest", LARGEST_LITERAL)];
    let config = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&programs, &config).expect("golden runs");
    let stillborn: Vec<_> = summary
        .reports
        .iter()
        .filter(|r| matches!(r.status, MutantStatus::Stillborn { .. }))
        .collect();
    assert_eq!(stillborn.len(), 1, "{}", summary.render());
    assert_eq!(stillborn[0].op, MutOp::OffByOneConst);
    assert_eq!(
        stillborn[0].status,
        MutantStatus::Stillborn {
            reason: "integer literal `9223372036854775808` out of range".into()
        }
    );
}
