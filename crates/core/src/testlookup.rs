//! The test-case lookup component (§5.3.2).
//!
//! "The test specifications and test reports implemented for the
//! procedures of a program can be used during the algorithmic debugging.
//! … For many procedures a function can be defined which automatically
//! selects the suitable test frame. … Then, the generated test report
//! database is checked with the selected test frame. If the test frame is
//! not included in the database or this frame produced a false test
//! report, then the debugging must go on inside the procedure. In the
//! case of \[a\] good test report the debugger skips this procedure."

use crate::oracle::{Answer, Oracle};
use gadt_pascal::sema::Module;
use gadt_pascal::value::Value;
use gadt_tgen::TestDb;
use gadt_trace::{ExecTree, NodeId, NodeKind};
use std::collections::BTreeMap;

/// Maps concrete input values to a frame code — the §5.3.2 "automatic
/// test frame selector function". `FnMut` so a selector may also be the
/// *interactive menu* of §5.3.2 (see [`gadt_tgen::menu::select_frame`]),
/// which reads the user's choices from an input stream.
pub type FrameSelector = Box<dyn FnMut(&[Value]) -> Option<String>>;

struct UnitTests {
    db: TestDb,
    selector: FrameSelector,
}

/// The test-case lookup oracle: per registered unit, a test-report
/// database plus a frame selector.
#[derive(Default)]
pub struct TestLookup {
    units: BTreeMap<String, UnitTests>,
    /// Frame codes looked up so far (unit, code, verdict) — for
    /// transcripts and experiments.
    log: Vec<(String, String, Option<bool>)>,
}

impl TestLookup {
    /// Creates an empty lookup component.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a unit's test database and frame selector.
    pub fn register(&mut self, unit: &str, db: TestDb, selector: FrameSelector) {
        self.units
            .insert(unit.to_ascii_lowercase(), UnitTests { db, selector });
    }

    /// The lookup log: `(unit, frame code, verdict)` per consulted query.
    pub fn log(&self) -> &[(String, String, Option<bool>)] {
        &self.log
    }
}

impl Oracle for TestLookup {
    fn judge(&mut self, _module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        let n = tree.node(node);
        if !matches!(n.kind, NodeKind::Call { .. }) {
            return Answer::DontKnow;
        }
        let Some(unit) = self.units.get_mut(n.name.to_ascii_lowercase().as_str()) else {
            return Answer::DontKnow;
        };
        // The frame selector receives the In values in parameter order.
        let ins: Vec<Value> = n.ins.iter().map(|(_, v)| v.clone()).collect();
        let Some(code) = (unit.selector)(&ins) else {
            return Answer::DontKnow;
        };
        let verdict = unit.db.frame_verdict(&code);
        self.log.push((n.name.to_string(), code, verdict));
        match verdict {
            // A good report: the debugger skips this procedure.
            Some(true) => Answer::Correct,
            // A false report or an untested frame: debugging goes on
            // inside the procedure — which for the oracle chain means
            // "this source cannot clear it"; the user (or reference)
            // makes the incorrectness call.
            Some(false) => Answer::Incorrect { wrong_output: None },
            None => Answer::DontKnow,
        }
    }

    fn source_name(&self) -> &str {
        "test database"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;
    use gadt_tgen::{cases, frames, spec};

    fn arrsum_lookup(module: &Module) -> TestLookup {
        let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
        let g = frames::generate_frames(&s, Default::default());
        let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
        let db = cases::run_cases(module, "arrsum", &tc, &|ins, run| {
            cases::arrsum_oracle(ins, run)
        })
        .unwrap();
        let mut lookup = TestLookup::new();
        lookup.register("arrsum", db, Box::new(cases::arrsum_frame_selector));
        lookup
    }

    fn tree_of(module: &Module) -> ExecTree {
        let cfg = gadt_pascal::cfg::lower(module);
        let trace = gadt_analysis::dyntrace::record_trace(module, &cfg, []).unwrap();
        gadt_trace::build_tree(module, &trace)
    }

    #[test]
    fn paper_arrsum_query_is_answered_without_the_user() {
        // §8 step 1: "GADT was able to check this procedure call without
        // any user interactions. Thus, the query arrsum(In a: [1, 2],
        // In n: 2, Out b: 3)? was never shown to the user."
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut lookup = arrsum_lookup(&m);
        let arrsum = tree.find_call(&m, "arrsum").unwrap();
        assert_eq!(lookup.judge(&m, &tree, arrsum), Answer::Correct);
        assert_eq!(lookup.log().len(), 1);
        assert_eq!(lookup.log()[0].1, "two.positive.small");
        assert_eq!(lookup.log()[0].2, Some(true));
    }

    #[test]
    fn unregistered_units_are_not_judged() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut lookup = arrsum_lookup(&m);
        let computs = tree.find_call(&m, "computs").unwrap();
        assert_eq!(lookup.judge(&m, &tree, computs), Answer::DontKnow);
    }

    #[test]
    fn untested_frame_defers_to_user() {
        let m = compile(testprogs::SQRTEST).unwrap();
        // Build a lookup whose DB only has the `zero` frame.
        let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
        let g = frames::generate_frames(&s, Default::default());
        let tc: Vec<_> = cases::instantiate_cases(&g, |f| {
            if f.code().starts_with("zero") {
                cases::arrsum_instantiator(f, 2)
            } else {
                None
            }
        });
        let db = cases::run_cases(&m, "arrsum", &tc, &|ins, run| {
            cases::arrsum_oracle(ins, run)
        })
        .unwrap();
        let mut lookup = TestLookup::new();
        lookup.register("arrsum", db, Box::new(cases::arrsum_frame_selector));
        let tree = tree_of(&m);
        let arrsum = tree.find_call(&m, "arrsum").unwrap();
        // The run's frame (two.positive.small) is not in the database.
        assert_eq!(lookup.judge(&m, &tree, arrsum), Answer::DontKnow);
    }

    #[test]
    fn failing_frame_reports_incorrect() {
        // Plant the bug inside arrsum itself, so its own frame fails.
        let src = testprogs::SQRTEST.replace("b := 0;", "b := 1;");
        let m = compile(&src).unwrap();
        let lookup_db = {
            let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
            let g = frames::generate_frames(&s, Default::default());
            let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
            cases::run_cases(&m, "arrsum", &tc, &|ins, run| {
                cases::arrsum_oracle(ins, run)
            })
            .unwrap()
        };
        let mut lookup = TestLookup::new();
        lookup.register("arrsum", lookup_db, Box::new(cases::arrsum_frame_selector));
        let tree = tree_of(&m);
        let arrsum = tree.find_call(&m, "arrsum").unwrap();
        assert_eq!(
            lookup.judge(&m, &tree, arrsum),
            Answer::Incorrect { wrong_output: None }
        );
    }
}

#[cfg(test)]
mod menu_lookup_tests {
    use super::*;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;
    use gadt_tgen::{cases, frames, menu, spec};
    use std::io::Cursor;

    /// §5.3.2's second mode: no automatic selector exists, so the user
    /// picks the frame from a menu built out of the test specification.
    #[test]
    fn menu_based_frame_selection_answers_the_query() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
        let g = frames::generate_frames(&s, Default::default());
        let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
        let db = cases::run_cases(&m, "arrsum", &tc, &|i, r| cases::arrsum_oracle(i, r)).unwrap();

        // The "user" answers the menu: size=two(3), type=positive(1),
        // deviation=small(1) — the frame the §8 query falls into.
        let spec_for_menu = s.clone();
        let mut answers = Cursor::new(b"3\n1\n1\n".to_vec());
        let selector: FrameSelector = Box::new(move |_ins| {
            let mut sink = Vec::new();
            menu::select_frame(&spec_for_menu, &mut answers, &mut sink, Default::default())
        });

        let mut lookup = TestLookup::new();
        lookup.register("arrsum", db, selector);

        let cfg = gadt_pascal::cfg::lower(&m);
        let trace = gadt_analysis::dyntrace::record_trace(&m, &cfg, []).unwrap();
        let tree = gadt_trace::build_tree(&m, &trace);
        let arrsum = tree.find_call(&m, "arrsum").unwrap();
        assert_eq!(lookup.judge(&m, &tree, arrsum), Answer::Correct);
        assert_eq!(lookup.log()[0].1, "two.positive.small");
    }
}
