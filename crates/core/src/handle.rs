//! Resumable debugging sessions — the pull-based half of the §3 debugger.
//!
//! [`crate::Debugger`] drives a whole session in one call by invoking an
//! oracle callback for every question. That is fine for a CLI but
//! impossible for a server that must park a session *between* requests.
//! This module splits the traversal into an explicit state machine:
//!
//! * [`DebugState`] owns the traversal state — the current (possibly
//!   pruned) execution tree, the cursor, the transcript — but borrows
//!   nothing; callers pass the module / trace / mapping on each call.
//!   `gadt-serve` holds one per session across requests, passing the
//!   program and traced run that its sessions share.
//! * [`DebugHandle`] owns everything (`Arc`ed module and trace), exposing
//!   the no-argument [`DebugHandle::next_question`] /
//!   [`DebugHandle::answer`] pump.
//!
//! The synchronous [`crate::Debugger`] is a thin driver loop over
//! [`DebugState`]; both paths produce byte-identical transcripts (pinned
//! by `handle_pump_matches_chain_oracle_on_golden_session` below).

use crate::debugger::{DebugConfig, DebugOutcome, DebugResult, TranscriptEntry};
use crate::oracle::Answer;
use crate::strategy::{AnswerProbe, Knowledge, TraversalStrategy};
use gadt_analysis::dyntrace::DynTrace;
use gadt_analysis::slice_dynamic::{dynamic_slice_output, SliceStats};
use gadt_obs::Recorder;
use gadt_pascal::name::Name;
use gadt_pascal::sema::Module;
use gadt_pascal::Value;
use gadt_trace::{ExecTree, NodeId, NodeKind};
use gadt_transform::Mapping;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The judgement a client passes back to [`DebugHandle::answer`] — the
/// same three-way answer the oracle chain produces (§3's `yes` / `no` /
/// `no, error on output k` / `don't know`).
pub type Verdict = Answer;

/// One pending oracle question, rendered and addressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// The execution-tree node being asked about (valid in
    /// [`DebugHandle::tree`] / [`DebugState::tree`] *at the time the
    /// question was produced* — slicing replaces the tree).
    pub node: NodeId,
    /// The unit's display name (procedure/function or loop).
    pub unit: String,
    /// The rendered query, e.g.
    /// `computs(In y: 3, Out r1: 12, Out r2: 9)`.
    pub query: String,
    /// The unit's input values at this invocation.
    pub ins: Vec<(Name, Value)>,
    /// The unit's output values at this invocation.
    pub outs: Vec<(Name, Value)>,
}

/// What one [`DebugHandle::answer`] call did to the session.
#[derive(Debug, Clone)]
pub enum Step {
    /// The answer was recorded; more questions remain.
    Continue,
    /// The answer's error indication triggered a dynamic slice: the tree
    /// was pruned to the corresponding execution tree (§5.3.3) and the
    /// traversal restarted on it. More questions remain.
    Sliced(SliceStats),
    /// The session finished with this verdict (a slice may still have
    /// been taken on the way — check [`DebugHandle::slices_taken`]).
    Done(DebugResult),
}

/// Borrow-free debugging state machine.
///
/// Owns the current execution tree and the session transcript; the
/// module, trace, and optional transparency mapping are passed to each
/// call so the state itself can live in a session table indefinitely.
/// [`DebugHandle`] packages the two halves together for callers that
/// can afford owned (`Arc`ed) program artifacts.
///
/// Traversal is delegated to a [`TraversalStrategy`]: the state tracks
/// the *focus* (the deepest node known incorrect — the bug is in its
/// live subtree) and the set of nodes judged `Correct`/`DontKnow` so
/// far; the strategy chooses the next question from those two facts.
/// Judged nodes stay cleared across focus changes, so no strategy ever
/// re-asks an answered node; only a slice (which replaces the tree,
/// invalidating node ids) resets the set.
pub struct DebugState {
    tree: ExecTree,
    config: DebugConfig,
    strategy: Box<dyn TraversalStrategy>,
    probe: Option<Box<dyn AnswerProbe>>,
    /// Deepest node known to misbehave; never queried itself.
    focus: NodeId,
    /// Nodes judged `Correct`/`DontKnow` (their subtrees are exonerated).
    cleared: BTreeSet<NodeId>,
    pending: Option<Question>,
    transcript: Vec<TranscriptEntry>,
    slices_taken: usize,
    slice_stats: Vec<SliceStats>,
    done: Option<DebugResult>,
}

fn render(module: &Module, mapping: Option<&Mapping>, tree: &ExecTree, node: NodeId) -> String {
    match mapping {
        Some(m) => crate::transparency::render_query_original(m, module, tree, node),
        None => tree.render_node(node),
    }
}

impl DebugState {
    /// Starts a session over `tree` from `start` (assumed incorrect, not
    /// queried). A session over a node with no suspects is born finished:
    /// [`DebugState::next_question`] returns `None` immediately.
    pub fn new(
        module: &Module,
        mapping: Option<&Mapping>,
        tree: ExecTree,
        start: NodeId,
        config: DebugConfig,
    ) -> DebugState {
        let strategy = config.strategy.implementation();
        DebugState::with_strategy(module, mapping, tree, start, config, strategy, None)
    }

    /// Starts a session with an explicit strategy implementation and an
    /// optional [`AnswerProbe`] into pooled knowledge (consulted by
    /// knowledge-weighted strategies; never consumes an oracle turn).
    /// [`DebugState::new`] delegates here with
    /// [`crate::Strategy::implementation`] and no probe.
    pub fn with_strategy(
        module: &Module,
        mapping: Option<&Mapping>,
        tree: ExecTree,
        start: NodeId,
        config: DebugConfig,
        strategy: Box<dyn TraversalStrategy>,
        probe: Option<Box<dyn AnswerProbe>>,
    ) -> DebugState {
        let mut state = DebugState {
            tree,
            config,
            strategy,
            probe,
            focus: start,
            cleared: BTreeSet::new(),
            pending: None,
            transcript: Vec::new(),
            slices_taken: 0,
            slice_stats: Vec::new(),
            done: None,
        };
        state.settle(module, mapping);
        state
    }

    /// Attaches (or replaces) the pooled-knowledge probe mid-session and
    /// recomputes the pending question — probe-aware strategies may pick
    /// a different node once free answers become visible.
    pub fn attach_probe(
        &mut self,
        module: &Module,
        mapping: Option<&Mapping>,
        probe: Box<dyn AnswerProbe>,
    ) {
        self.probe = Some(probe);
        self.settle(module, mapping);
    }

    /// The current (possibly pruned) execution tree.
    pub fn tree(&self) -> &ExecTree {
        &self.tree
    }

    /// The pending question, or `None` when the session is finished.
    /// Idempotent: asking twice without answering returns the same
    /// question.
    pub fn next_question(&self) -> Option<&Question> {
        self.pending.as_ref()
    }

    /// The verdict, once the session has finished.
    pub fn result(&self) -> Option<&DebugResult> {
        self.done.as_ref()
    }

    /// Whether the session has finished.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }

    /// Every query asked so far, in order.
    pub fn transcript(&self) -> &[TranscriptEntry] {
        &self.transcript
    }

    /// How many times slicing pruned the tree so far.
    pub fn slices_taken(&self) -> usize {
        self.slices_taken
    }

    /// Answers the pending question and advances the traversal. Calling
    /// after the session finished returns [`Step::Done`] again without
    /// touching the transcript or `rec`.
    ///
    /// Journals the answer into `rec`: a `question` point event (unit,
    /// source, answer) with the counters `debug.questions`,
    /// `debug.questions.by_source.<slug>` and
    /// `debug.questions.by_strategy.<slug>`, then, when the answer
    /// prunes the tree, a `slice` event and `debug.slices`.
    pub fn answer(
        &mut self,
        module: &Module,
        trace: &DynTrace,
        mapping: Option<&Mapping>,
        verdict: Verdict,
        source: &str,
        rec: &mut Recorder,
    ) -> Step {
        if let Some(done) = &self.done {
            return Step::Done(done.clone());
        }
        let q = self
            .pending
            .as_ref()
            .expect("unfinished session always has a pending question");
        let node = q.node;
        if rec.is_enabled() {
            rec.incr("debug.questions");
            rec.incr(&format!(
                "debug.questions.by_source.{}",
                gadt_obs::slug(source)
            ));
            rec.incr(&format!(
                "debug.questions.by_strategy.{}",
                self.config.strategy.slug()
            ));
            gadt_obs::event!(
                rec,
                "question",
                unit = q.unit.as_str(),
                source = source,
                answer = verdict.to_string(),
            );
        }
        self.transcript.push(TranscriptEntry {
            query: q.query.clone(),
            unit: q.unit.clone(),
            answer: verdict.clone(),
            source: source.to_string(),
        });
        let mut sliced: Option<SliceStats> = None;
        match verdict {
            Answer::Correct | Answer::DontKnow => {
                // The judged subtree is out of the suspect set for the
                // rest of the session — no strategy may re-ask it.
                self.cleared.insert(node);
            }
            Answer::Incorrect { wrong_output } => {
                sliced = self.apply_slice(module, trace, node, wrong_output);
                if let Some(stats) = sliced {
                    rec.incr("debug.slices");
                    gadt_obs::event!(
                        rec,
                        "slice",
                        events = stats.events,
                        stmts = stats.stmts,
                        calls = stats.calls,
                    );
                }
                // After a slice the search restarts at the pruned root
                // (§8 steps 2 and 4); node ids belong to the replaced
                // tree, so the cleared set must be dropped with it.
                // Without a slice the search descends into the incorrect
                // node, never returning to its siblings; everything
                // judged so far stays cleared.
                if sliced.is_some() {
                    self.focus = self.tree.root;
                    self.cleared.clear();
                } else {
                    self.focus = node;
                }
            }
        }
        self.settle(module, mapping);
        match (&self.done, sliced) {
            (Some(r), _) => Step::Done(r.clone()),
            (None, Some(stats)) => Step::Sliced(stats),
            (None, None) => Step::Continue,
        }
    }

    /// Consumes the state into the same [`DebugOutcome`] the synchronous
    /// driver returns. An unfinished session reports
    /// [`DebugResult::NoBugFound`].
    pub fn into_outcome(self) -> DebugOutcome {
        DebugOutcome {
            result: self.done.unwrap_or(DebugResult::NoBugFound),
            transcript: self.transcript,
            slices_taken: self.slices_taken,
            slice_stats: self.slice_stats,
        }
    }

    /// §5.3.3: when a *specific* wrong output of a multi-output call is
    /// flagged, slice on it and prune the subtree. Returns the slice
    /// stats when a non-empty prune was taken (and replaces the tree).
    fn apply_slice(
        &mut self,
        module: &Module,
        trace: &DynTrace,
        node: NodeId,
        wrong_output: Option<usize>,
    ) -> Option<SliceStats> {
        if !self.config.slicing {
            return None;
        }
        let k = wrong_output?;
        let call = match &self.tree.node(node).kind {
            NodeKind::Call { call, .. } => *call,
            NodeKind::Loop { .. } => return None,
        };
        if self.tree.node(node).outs.len() <= 1 {
            return None;
        }
        let slice = dynamic_slice_output(module, trace, call, k);
        let pruned = self.tree.prune(node, &slice);
        if pruned.is_empty() {
            return None;
        }
        self.slices_taken += 1;
        let stats = slice.stats();
        self.slice_stats.push(stats);
        self.tree = pruned;
        Some(stats)
    }

    /// Recomputes the pending question from the strategy, or finishes
    /// the session when the focus's live subtree is exhausted (bug
    /// localized at the focus).
    fn settle(&mut self, module: &Module, mapping: Option<&Mapping>) {
        self.pending = None;
        if self.done.is_some() {
            return;
        }
        let focus = self.focus;
        let next = {
            let knowledge = Knowledge::new(&self.tree, focus, &self.cleared, self.probe.as_deref());
            self.strategy.next_query(&self.tree, &knowledge)
        };
        match next {
            Some(n) => {
                let node = self.tree.node(n);
                self.pending = Some(Question {
                    node: n,
                    unit: node.name.to_string(),
                    query: render(module, mapping, &self.tree, n),
                    ins: node.ins.clone(),
                    outs: node.outs.clone(),
                });
            }
            None => {
                self.done = Some(DebugResult::BugLocalized {
                    unit: self.tree.node(focus).name.to_string(),
                    rendering: render(module, mapping, &self.tree, focus),
                });
            }
        }
    }
}

/// An owned, resumable debugging session.
///
/// Holds the program artifacts (`Arc`ed module and trace, cloned
/// mapping) alongside a [`DebugState`], so a server can park it in a
/// session table and pump it one request at a time:
///
/// ```
/// use gadt::{DebugConfig, DebugHandle, Step, Verdict};
/// use std::sync::Arc;
///
/// let src = gadt_pascal::testprogs::PQR;
/// let module = Arc::new(gadt_pascal::compile(src).unwrap());
/// let cfg = gadt_pascal::cfg::lower(&module);
/// let trace =
///     Arc::new(gadt_analysis::dyntrace::record_trace(&module, &cfg, []).unwrap());
/// let tree = gadt_trace::build_tree(&module, &trace);
///
/// let mut handle = DebugHandle::new(module, trace, None, tree, DebugConfig::default());
/// while let Some(q) = handle.next_question().cloned() {
///     // p misbehaves, q is fine, r misbehaves — §3's session.
///     let verdict = match q.unit.as_str() {
///         "q" => Verdict::Correct,
///         _ => Verdict::Incorrect { wrong_output: None },
///     };
///     if let Step::Done(result) = handle.answer(verdict) {
///         let gadt::DebugResult::BugLocalized { unit, .. } = result else {
///             panic!()
///         };
///         assert_eq!(unit, "r");
///     }
/// }
/// assert!(handle.is_done());
/// ```
pub struct DebugHandle {
    module: Arc<Module>,
    trace: Arc<DynTrace>,
    mapping: Option<Mapping>,
    state: DebugState,
}

impl DebugHandle {
    /// Starts a session at the root of `tree` (the whole-program symptom).
    /// With `Some(mapping)`, queries render in terms of the *original*
    /// program (§6.1 transparency).
    pub fn new(
        module: Arc<Module>,
        trace: Arc<DynTrace>,
        mapping: Option<Mapping>,
        tree: ExecTree,
        config: DebugConfig,
    ) -> DebugHandle {
        let root = tree.root;
        DebugHandle::with_start(module, trace, mapping, tree, root, config)
    }

    /// Starts a session from an arbitrary known-incorrect node.
    pub fn with_start(
        module: Arc<Module>,
        trace: Arc<DynTrace>,
        mapping: Option<Mapping>,
        tree: ExecTree,
        start: NodeId,
        config: DebugConfig,
    ) -> DebugHandle {
        let state = DebugState::new(&module, mapping.as_ref(), tree, start, config);
        DebugHandle {
            module,
            trace,
            mapping,
            state,
        }
    }

    /// Attaches a pooled-knowledge probe (e.g. a
    /// [`crate::stored::StoreProbe`] over a shared store) so that
    /// probe-aware strategies can treat answerable nodes as free. The
    /// pending question is recomputed immediately.
    pub fn with_probe(mut self, probe: Box<dyn crate::strategy::AnswerProbe>) -> DebugHandle {
        self.state
            .attach_probe(&self.module, self.mapping.as_ref(), probe);
        self
    }

    /// The pending question, or `None` when the session is finished.
    pub fn next_question(&self) -> Option<&Question> {
        self.state.next_question()
    }

    /// Answers the pending question as the interactive user.
    pub fn answer(&mut self, verdict: Verdict) -> Step {
        self.answer_from(verdict, "user")
    }

    /// Answers the pending question, attributing it to a knowledge
    /// source (e.g. `"stored answer"` when a server pool answered).
    pub fn answer_from(&mut self, verdict: Verdict, source: &str) -> Step {
        self.state.answer(
            &self.module,
            &self.trace,
            self.mapping.as_ref(),
            verdict,
            source,
            &mut Recorder::disabled(),
        )
    }

    /// The current (possibly pruned) execution tree.
    pub fn tree(&self) -> &ExecTree {
        self.state.tree()
    }

    /// The module the session debugs.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Whether the session has finished.
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// The verdict, once the session has finished.
    pub fn result(&self) -> Option<&DebugResult> {
        self.state.result()
    }

    /// Every query asked so far, in order.
    pub fn transcript(&self) -> &[TranscriptEntry] {
        self.state.transcript()
    }

    /// How many times slicing pruned the tree so far.
    pub fn slices_taken(&self) -> usize {
        self.state.slices_taken()
    }

    /// Consumes the handle into a [`DebugOutcome`] (an unfinished
    /// session reports [`DebugResult::NoBugFound`]).
    pub fn into_outcome(self) -> DebugOutcome {
        self.state.into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debugger::{Debugger, Strategy};
    use crate::oracle::{ChainOracle, CountingOracle, Oracle, ReferenceOracle};
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    fn setup(src: &str) -> (Module, DynTrace, ExecTree) {
        let m = compile(src).unwrap();
        let cfg = gadt_pascal::cfg::lower(&m);
        let trace = gadt_analysis::dyntrace::record_trace(&m, &cfg, []).unwrap();
        let tree = gadt_trace::build_tree(&m, &trace);
        (m, trace, tree)
    }

    /// Pumps a handle with a reference oracle, mirroring what the
    /// synchronous driver does, and returns the outcome.
    fn pump(
        module: Arc<Module>,
        trace: Arc<DynTrace>,
        tree: ExecTree,
        fixed: &Module,
        config: DebugConfig,
    ) -> DebugOutcome {
        let mut oracle = CountingOracle::new(ReferenceOracle::new(fixed, []).unwrap());
        let mut handle = DebugHandle::new(module.clone(), trace, None, tree, config);
        let mut steps = 0usize;
        while let Some(q) = handle.next_question() {
            let node = q.node;
            let verdict = oracle.judge(&module, handle.tree(), node);
            handle.answer_from(verdict, oracle.source_name());
            steps += 1;
            assert!(steps < 10_000, "runaway session");
        }
        handle.into_outcome()
    }

    /// Acceptance pin: the pump reproduces the golden §8 transcript (7
    /// questions, 2 slices, decrement) identically to the ChainOracle
    /// driver path.
    #[test]
    fn handle_pump_matches_chain_oracle_on_golden_session() {
        let (m, trace, tree) = setup(testprogs::SQRTEST);
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();

        let mut chain = ChainOracle::new();
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        let golden =
            Debugger::new(&m, &trace, DebugConfig::default()).run_program(&tree, &mut chain);

        let pumped = pump(
            Arc::new(m),
            Arc::new(trace),
            tree,
            &fixed,
            DebugConfig::default(),
        );

        assert_eq!(golden.result, pumped.result);
        assert_eq!(golden.slices_taken, 2);
        assert_eq!(pumped.slices_taken, golden.slices_taken);
        assert_eq!(pumped.slice_stats, golden.slice_stats);
        assert_eq!(golden.total_queries(), 7);
        assert_eq!(pumped.total_queries(), golden.total_queries());
        for (g, p) in golden.transcript.iter().zip(pumped.transcript.iter()) {
            assert_eq!(g.query, p.query);
            assert_eq!(g.unit, p.unit);
            assert_eq!(g.answer, p.answer);
            assert_eq!(g.source, p.source);
        }
        assert_eq!(golden.render_transcript(), pumped.render_transcript());
    }

    #[test]
    fn handle_pump_matches_driver_under_divide_and_query() {
        let (m, trace, tree) = setup(testprogs::SQRTEST);
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let config = DebugConfig {
            strategy: Strategy::DivideAndQuery,
            slicing: false,
        };

        let mut chain = ChainOracle::new();
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        let golden = Debugger::new(&m, &trace, config).run_program(&tree, &mut chain);

        let pumped = pump(Arc::new(m), Arc::new(trace), tree, &fixed, config);
        assert_eq!(golden.result, pumped.result);
        let g: Vec<&str> = golden.transcript.iter().map(|t| t.unit.as_str()).collect();
        let p: Vec<&str> = pumped.transcript.iter().map(|t| t.unit.as_str()).collect();
        assert_eq!(g, p);
    }

    #[test]
    fn answering_a_finished_session_is_idempotent() {
        let (m, trace, tree) = setup(testprogs::PQR);
        let mut handle = DebugHandle::new(
            Arc::new(m),
            Arc::new(trace),
            None,
            tree,
            DebugConfig::default(),
        );
        while handle.next_question().is_some() {
            handle.answer(Verdict::Correct);
        }
        let before = handle.transcript().len();
        let Step::Done(result) = handle.answer(Verdict::Correct) else {
            panic!("finished session must keep reporting Done");
        };
        assert_eq!(Some(&result), handle.result());
        assert_eq!(handle.transcript().len(), before);
    }

    #[test]
    fn sliced_step_reports_stats() {
        let (m, trace, tree) = setup(testprogs::SQRTEST);
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let mut oracle = CountingOracle::new(ReferenceOracle::new(&fixed, []).unwrap());
        let module = Arc::new(m);
        let mut handle = DebugHandle::new(
            module.clone(),
            Arc::new(trace),
            None,
            tree,
            DebugConfig::default(),
        );
        let mut sliced_steps = 0usize;
        while let Some(q) = handle.next_question() {
            let node = q.node;
            let verdict = oracle.judge(&module, handle.tree(), node);
            match handle.answer_from(verdict, oracle.source_name()) {
                Step::Sliced(stats) => {
                    sliced_steps += 1;
                    assert!(stats.events > 0);
                }
                Step::Continue | Step::Done(_) => {}
            }
        }
        // §8 takes two slices; neither ends the session immediately.
        assert_eq!(sliced_steps, 2);
        assert_eq!(handle.slices_taken(), 2);
    }
}
