//! The algorithmic debugging engine (§3, §5.3) with slicing integration
//! (§5.3.3, §7).
//!
//! The debugger traverses the execution tree asking an oracle about each
//! unit's behaviour. The search ends, localizing a bug in a unit `p`,
//! when `p` misbehaved but every unit called from `p` fulfilled the
//! oracle's expectations (§3). Traversal order is pluggable (see
//! [`crate::strategy`]); the [`Strategy`] enum names the built-in
//! implementations:
//!
//! * [`Strategy::TopDown`] — the paper's traversal (§7 notes the choice
//!   of traversal "doesn't matter" for correctness);
//! * [`Strategy::DivideAndQuery`] — Shapiro's query-minimizing heuristic;
//! * [`Strategy::DqOpt`] — Insa & Silva's Optimal Divide and Query;
//! * [`Strategy::KnowledgeWeighted`] — optimal split over store-aware
//!   weights: nodes answerable from pooled knowledge cost zero.
//!
//! When an oracle flags a *specific* wrong output of a node with several
//! outputs, the dynamic slicer prunes the subtree to the "corresponding
//! execution tree" (§5.3.3) and the search continues on the pruned tree —
//! exactly the §8 steps 2 and 4.

use crate::oracle::{Answer, ChainOracle, Oracle};
use gadt_analysis::dyntrace::DynTrace;
use gadt_analysis::slice_dynamic::SliceStats;
use gadt_pascal::sema::Module;
use gadt_trace::{ExecTree, NodeId};

/// Execution-tree traversal strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Ask top-down, descending into the first incorrect child.
    #[default]
    TopDown,
    /// Shapiro's divide-and-query: bisect the suspect subtree by weight.
    DivideAndQuery,
    /// Insa & Silva's Optimal Divide and Query: minimize the worst-case
    /// remaining suspect weight, committing to the deeper node on ties.
    DqOpt,
    /// Optimal split over knowledge-aware weights: suspects answerable
    /// from pooled knowledge (via an attached probe) cost zero and are
    /// drained first. Without a probe, identical to [`Strategy::DqOpt`].
    KnowledgeWeighted,
}

impl Strategy {
    /// Every built-in strategy, in ablation-report order.
    pub const ALL: [Strategy; 4] = [
        Strategy::TopDown,
        Strategy::DivideAndQuery,
        Strategy::DqOpt,
        Strategy::KnowledgeWeighted,
    ];

    /// The stable identifier used in journals, benchmarks, and the
    /// serve protocol (`top_down`, `divide_and_query`, `dq_opt`,
    /// `knowledge_weighted`).
    pub fn slug(self) -> &'static str {
        match self {
            Strategy::TopDown => "top_down",
            Strategy::DivideAndQuery => "divide_and_query",
            Strategy::DqOpt => "dq_opt",
            Strategy::KnowledgeWeighted => "knowledge_weighted",
        }
    }

    /// Parses a [`Strategy::slug`] back into a strategy.
    pub fn parse(s: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|st| st.slug() == s)
    }

    /// The strategy's [`crate::strategy::TraversalStrategy`]
    /// implementation.
    pub fn implementation(self) -> Box<dyn crate::strategy::TraversalStrategy> {
        use crate::strategy::*;
        match self {
            Strategy::TopDown => Box::new(TopDownStrategy),
            Strategy::DivideAndQuery => Box::new(DivideAndQueryStrategy),
            Strategy::DqOpt => Box::new(DqOptStrategy),
            Strategy::KnowledgeWeighted => Box::new(KnowledgeWeightedStrategy),
        }
    }
}

/// Debugger configuration.
#[derive(Debug, Clone, Copy)]
pub struct DebugConfig {
    /// Traversal strategy.
    pub strategy: Strategy,
    /// Whether to activate program slicing on specific-output error
    /// indications.
    pub slicing: bool,
}

impl Default for DebugConfig {
    fn default() -> Self {
        DebugConfig {
            strategy: Strategy::TopDown,
            slicing: true,
        }
    }
}

/// One query/answer pair in the session transcript.
#[derive(Debug, Clone)]
pub struct TranscriptEntry {
    /// The rendered query, e.g.
    /// `computs(In y: 3, Out r1: 12, Out r2: 9)?`.
    pub query: String,
    /// The unit asked about.
    pub unit: String,
    /// The answer given.
    pub answer: Answer,
    /// Which knowledge source answered (`"user"`, `"test database"`, …).
    pub source: String,
}

/// The debugger's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DebugResult {
    /// A bug was localized inside one unit's body.
    BugLocalized {
        /// The unit's display name (procedure/function or loop).
        unit: String,
        /// The rendered node the bug was localized at.
        rendering: String,
    },
    /// Every queried unit behaved as intended.
    NoBugFound,
}

/// The outcome of a debugging session.
#[derive(Debug, Clone)]
pub struct DebugOutcome {
    /// The verdict.
    pub result: DebugResult,
    /// Every query asked, in order, with its answer and source.
    pub transcript: Vec<TranscriptEntry>,
    /// How many times slicing pruned the tree.
    pub slices_taken: usize,
    /// Size accounting for each slice taken, in order.
    pub slice_stats: Vec<SliceStats>,
}

impl DebugOutcome {
    /// The number of queries answered by a given source (e.g. `"user"`).
    pub fn queries_from(&self, source_substr: &str) -> usize {
        self.transcript
            .iter()
            .filter(|t| t.source.contains(source_substr))
            .count()
    }

    /// Total number of queries asked.
    pub fn total_queries(&self) -> usize {
        self.transcript.len()
    }

    /// Renders the transcript in the paper's interaction format.
    pub fn render_transcript(&self) -> String {
        let mut out = String::new();
        for t in &self.transcript {
            out.push_str(&format!("{}?\n> {}    [{}]\n", t.query, t.answer, t.source));
        }
        match &self.result {
            DebugResult::BugLocalized { unit, .. } => {
                out.push_str(&format!(
                    "An error is localized inside the body of {unit}.\n"
                ));
            }
            DebugResult::NoBugFound => out.push_str("No erroneous unit was found.\n"),
        }
        out
    }
}

/// Runs algorithmic debugging over an execution tree.
///
/// `start` is the node whose behaviour is *known* to be wrong (usually
/// the root: the main program showed an external symptom). The start node
/// itself is not queried.
pub struct Debugger<'a> {
    module: &'a Module,
    trace: &'a DynTrace,
    config: DebugConfig,
    /// When set, queries are rendered in terms of the *original* program
    /// via the transformation mapping (§6.1 transparency).
    mapping: Option<&'a gadt_transform::Mapping>,
    /// When set, every question and slice is journaled: a `question`
    /// point event plus `debug.questions` / `debug.questions.by_source.*`
    /// / `debug.questions.by_strategy.*` counters per query, a `slice`
    /// event plus `debug.slices` per prune.
    obs: Option<&'a mut gadt_obs::Recorder>,
    /// When set, knowledge-aware strategies may treat nodes this probe
    /// can answer as free (zero weight).
    probe: Option<Box<dyn crate::strategy::AnswerProbe>>,
}

impl<'a> Debugger<'a> {
    /// Creates a debugger over one traced execution.
    pub fn new(module: &'a Module, trace: &'a DynTrace, config: DebugConfig) -> Self {
        Debugger {
            module,
            trace,
            config,
            mapping: None,
            obs: None,
            probe: None,
        }
    }

    /// Attaches a pooled-knowledge probe consulted by knowledge-aware
    /// strategies (never consumes an oracle turn; see
    /// [`crate::strategy::AnswerProbe`]).
    pub fn with_probe(mut self, probe: Box<dyn crate::strategy::AnswerProbe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Renders queries transparently relative to the original program
    /// (§6.1), using the transformation's construct mapping.
    pub fn with_mapping(mut self, mapping: &'a gadt_transform::Mapping) -> Self {
        self.mapping = Some(mapping);
        self
    }

    /// Journals per-question and per-slice events into `rec`.
    pub fn with_obs(mut self, rec: &'a mut gadt_obs::Recorder) -> Self {
        self.obs = Some(rec);
        self
    }

    /// Debugs starting from `start` (assumed incorrect, not queried).
    ///
    /// A thin driver loop over [`crate::handle::DebugState`]: pull the
    /// pending question, judge it through the oracle chain, feed the
    /// verdict back (the state journals it). Servers that cannot block
    /// on an oracle callback hold a [`crate::DebugHandle`] instead and
    /// pump it one request at a time — both paths share the state
    /// machine and produce byte-identical transcripts.
    pub fn run(
        mut self,
        tree: &ExecTree,
        start: NodeId,
        oracle: &mut ChainOracle<'_>,
    ) -> DebugOutcome {
        let mut state = crate::handle::DebugState::with_strategy(
            self.module,
            self.mapping,
            tree.clone(),
            start,
            self.config,
            self.config.strategy.implementation(),
            self.probe.take(),
        );
        let mut disabled = gadt_obs::Recorder::disabled();
        let rec = self.obs.unwrap_or(&mut disabled);
        while let Some(q) = state.next_question() {
            let answer = oracle.judge(self.module, state.tree(), q.node);
            let source = oracle.last_source().to_string();
            state.answer(self.module, self.trace, self.mapping, answer, &source, rec);
        }
        state.into_outcome()
    }

    /// Debugs a whole program run: the root (main) is the symptom.
    pub fn run_program(self, tree: &ExecTree, oracle: &mut ChainOracle<'_>) -> DebugOutcome {
        let root = tree.root;
        self.run(tree, root, oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CountingOracle, ReferenceOracle};
    use gadt_pascal::sema::{compile, Module};
    use gadt_pascal::testprogs;

    fn setup(src: &str) -> (Module, DynTrace, ExecTree) {
        let m = compile(src).unwrap();
        let cfg = gadt_pascal::cfg::lower(&m);
        let trace = gadt_analysis::dyntrace::record_trace(&m, &cfg, []).unwrap();
        let tree = gadt_trace::build_tree(&m, &trace);
        (m, trace, tree)
    }

    fn reference_chain<'m>(fixed: &'m Module) -> ChainOracle<'m> {
        let mut chain = ChainOracle::new();
        chain.push(CountingOracle::new(
            ReferenceOracle::new(fixed, []).unwrap(),
        ));
        chain
    }

    #[test]
    fn pqr_bug_localized_in_r() {
        // §3's example runs *pure* algorithmic debugging (no slicing):
        // the bug must land inside procedure r after asking p, q, r.
        let (m, trace, tree) = setup(testprogs::PQR);
        let fixed = compile(testprogs::PQR_FIXED).unwrap();
        let mut chain = reference_chain(&fixed);
        let dbg = Debugger::new(
            &m,
            &trace,
            DebugConfig {
                slicing: false,
                ..Default::default()
            },
        );
        let out = dbg.run_program(&tree, &mut chain);
        assert_eq!(
            out.result,
            DebugResult::BugLocalized {
                unit: "r".to_string(),
                rendering: "r(In c: 7, Out d: 10)".to_string()
            }
        );
        // Transcript: p? no → q? yes → r? no → bug in r.
        let units: Vec<&str> = out.transcript.iter().map(|t| t.unit.as_str()).collect();
        assert_eq!(units, vec!["p", "q", "r"]);
    }

    #[test]
    fn pqr_with_slicing_skips_the_irrelevant_q() {
        // With slicing enabled, p's error indication ("error on output d")
        // prunes q — one fewer question than pure algorithmic debugging.
        let (m, trace, tree) = setup(testprogs::PQR);
        let fixed = compile(testprogs::PQR_FIXED).unwrap();
        let mut chain = reference_chain(&fixed);
        let out = Debugger::new(&m, &trace, DebugConfig::default()).run_program(&tree, &mut chain);
        assert_eq!(
            out.result,
            DebugResult::BugLocalized {
                unit: "r".to_string(),
                rendering: "r(In c: 7, Out d: 10)".to_string()
            }
        );
        let units: Vec<&str> = out.transcript.iter().map(|t| t.unit.as_str()).collect();
        assert_eq!(units, vec!["p", "r"]);
        assert_eq!(out.slices_taken, 1);
    }

    #[test]
    fn sqrtest_bug_localized_in_decrement_with_slicing() {
        let (m, trace, tree) = setup(testprogs::SQRTEST);
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let mut chain = reference_chain(&fixed);
        let dbg = Debugger::new(&m, &trace, DebugConfig::default());
        let out = dbg.run_program(&tree, &mut chain);
        let DebugResult::BugLocalized { unit, .. } = &out.result else {
            panic!("no bug found: {}", out.render_transcript());
        };
        assert_eq!(unit, "decrement", "{}", out.render_transcript());
        // §8: two slices (on computs' first output, then on partialsums'
        // second output).
        assert_eq!(out.slices_taken, 2, "{}", out.render_transcript());
        // §8 query order: sqrtest, arrsum, computs | comput1,
        // partialsums | sum2, decrement.
        let units: Vec<&str> = out.transcript.iter().map(|t| t.unit.as_str()).collect();
        assert_eq!(
            units,
            vec![
                "sqrtest",
                "arrsum",
                "computs",
                "comput1",
                "partialsums",
                "sum2",
                "decrement"
            ],
            "{}",
            out.render_transcript()
        );
    }

    #[test]
    fn sqrtest_without_slicing_asks_more_questions() {
        let (m, trace, tree) = setup(testprogs::SQRTEST);
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();

        let mut with = reference_chain(&fixed);
        let out_with =
            Debugger::new(&m, &trace, DebugConfig::default()).run_program(&tree, &mut with);

        let mut without = reference_chain(&fixed);
        let out_without = Debugger::new(
            &m,
            &trace,
            DebugConfig {
                slicing: false,
                ..Default::default()
            },
        )
        .run_program(&tree, &mut without);

        // Both localize the same bug.
        assert_eq!(out_with.result, out_without.result);
        assert!(
            out_with.total_queries() < out_without.total_queries(),
            "slicing must reduce interactions: {} vs {}",
            out_with.total_queries(),
            out_without.total_queries()
        );
    }

    #[test]
    fn correct_program_reports_no_bug() {
        let (m, trace, tree) = setup(testprogs::SQRTEST_FIXED);
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let mut chain = reference_chain(&fixed);
        let dbg = Debugger::new(&m, &trace, DebugConfig::default());
        // Start from sqrtest and ask about it too: everything is correct,
        // so the "bug" would be in main — by convention, run_program on a
        // correct program blames nothing below main and returns main as
        // the unit. Use the child as start instead.
        let sqrtest = tree.find_call(&m, "sqrtest").unwrap();
        let out = dbg.run(&tree, tree.root, &mut chain);
        // All children of main are correct → bug "in main" means: the
        // symptom is outside any procedure — report it as such.
        let _ = sqrtest;
        match out.result {
            DebugResult::BugLocalized { unit, .. } => assert_eq!(unit, "Main"),
            DebugResult::NoBugFound => {}
        }
    }

    #[test]
    fn figure5_slicing_skips_irrelevant_calls() {
        let (m, trace, tree) = setup(testprogs::FIGURE5);
        // The oracle: pn should compute x*x.
        let mut chain = ChainOracle::new();
        chain.push(crate::oracle::FnOracle::new(
            "spec",
            |_m: &Module, t: &ExecTree, n| {
                let node = t.node(n);
                match node.name.as_str() {
                    "pn" => Answer::Incorrect {
                        wrong_output: Some(0),
                    },
                    _ => Answer::Correct,
                }
            },
        ));
        let dbg = Debugger::new(&m, &trace, DebugConfig::default());
        let out = dbg.run_program(&tree, &mut chain);
        let DebugResult::BugLocalized { unit, .. } = &out.result else {
            panic!()
        };
        assert_eq!(unit, "pn");
    }

    #[test]
    fn divide_and_query_localizes_same_bug() {
        let (m, trace, tree) = setup(testprogs::SQRTEST);
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let mut chain = reference_chain(&fixed);
        let dbg = Debugger::new(
            &m,
            &trace,
            DebugConfig {
                strategy: Strategy::DivideAndQuery,
                slicing: false,
            },
        );
        let out = dbg.run_program(&tree, &mut chain);
        let DebugResult::BugLocalized { unit, .. } = &out.result else {
            panic!("no bug: {}", out.render_transcript());
        };
        assert_eq!(unit, "decrement", "{}", out.render_transcript());
    }

    #[test]
    fn transcript_renders_like_the_paper() {
        let (m, trace, tree) = setup(testprogs::PQR);
        let fixed = compile(testprogs::PQR_FIXED).unwrap();
        let mut chain = reference_chain(&fixed);
        let out = Debugger::new(
            &m,
            &trace,
            DebugConfig {
                slicing: false,
                ..Default::default()
            },
        )
        .run_program(&tree, &mut chain);
        let rendered = out.render_transcript();
        assert!(rendered.contains("q(In a: 5, Out b: 10)?"), "{rendered}");
        assert!(rendered.contains("> yes"), "{rendered}");
        assert!(
            rendered.contains("An error is localized inside the body of r."),
            "{rendered}"
        );
    }

    #[test]
    fn misnamed_variable_blames_the_caller() {
        // §5.3.3's discussion: f is called with the wrong argument; every
        // subcomputation is correct for its inputs, so the calling
        // procedure is blamed.
        let src = "program t; var a, b, r: integer;
             procedure f(x: integer; var y: integer); begin y := x * 2 end;
             procedure caller(var r: integer);
             var a, b: integer;
             begin a := 1; b := 99; f(b, r) end;
             begin caller(r); writeln(r) end.";
        let (m, trace, tree) = setup(src);
        let mut chain = ChainOracle::new();
        chain.push(crate::oracle::FnOracle::new(
            "spec",
            |_m: &Module, t: &ExecTree, n| {
                let node = t.node(n);
                match node.name.as_str() {
                    // caller should produce r = 2 (from a), got 198.
                    "caller" => Answer::Incorrect {
                        wrong_output: Some(0),
                    },
                    // f(99) = 198 is correct for its inputs.
                    "f" => Answer::Correct,
                    _ => Answer::Correct,
                }
            },
        ));
        let out = Debugger::new(&m, &trace, DebugConfig::default()).run_program(&tree, &mut chain);
        assert_eq!(
            out.result,
            DebugResult::BugLocalized {
                unit: "caller".to_string(),
                rendering: "caller(Out r: 198)".to_string()
            }
        );
    }
}
