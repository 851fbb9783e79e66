//! Parse → pretty-print → re-parse round trips over every bundled test
//! program: the printed form must reconstruct the same AST modulo spans,
//! ids included. This is the structural guarantee the mutation engine
//! relies on — `gadt_mutate::materialize` builds a mutant as the parser
//! would read back its printed text without printing it, which is only
//! sound while printing loses nothing.

use gadt_pascal::ast_mut::normalize;
use gadt_pascal::parser::parse_program;
use gadt_pascal::pretty::print_program;
use gadt_pascal::testprogs;

#[test]
fn all_testprogs_round_trip_modulo_spans() {
    for (name, src) in testprogs::ALL {
        let mut first = parse_program(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let printed = print_program(&first);
        let mut second = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{name}: printed form does not parse: {e}\n{printed}"));
        normalize(&mut first);
        normalize(&mut second);
        assert_eq!(first, second, "{name}: AST changed across print→parse");
    }
}

#[test]
fn printing_is_a_fixpoint_on_all_testprogs() {
    for (name, src) in testprogs::ALL {
        let ast = parse_program(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let once = print_program(&ast);
        let twice = print_program(&parse_program(&once).unwrap());
        assert_eq!(once, twice, "{name}: printing not a fixpoint");
    }
}
