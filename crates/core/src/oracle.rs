//! Oracles: the sources of knowledge about *intended* program behaviour.
//!
//! Algorithmic debugging acquires "knowledge about the expected behavior
//! of the debugged program" through queries (§3). The paper's GADT system
//! consults, in order: assertions previously supplied by the user, the
//! test-case-lookup component, and finally the user (§5.3.1). Each of
//! these is an [`Oracle`] here; [`ChainOracle`] composes them and
//! [`CountingOracle`] measures what the paper calls "the number of user
//! interactions".

use gadt_pascal::cfg::ProgramCfg;
use gadt_pascal::name::Name;
use gadt_pascal::sema::Module;
use gadt_pascal::value::Value;
use gadt_trace::{ExecTree, NodeId, NodeKind};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An oracle's verdict on one execution-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// The unit behaved as intended for these inputs.
    Correct,
    /// The unit misbehaved.
    Incorrect {
        /// Index (into the node's `outs`) of a wrong output value, when
        /// the judge can point at one — the paper's "no, error on first
        /// output variable", which is what activates slicing (§5.3.3).
        wrong_output: Option<usize>,
    },
    /// This oracle cannot judge the node; ask the next source.
    DontKnow,
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Correct => write!(f, "yes"),
            Answer::Incorrect { wrong_output: None } => write!(f, "no"),
            Answer::Incorrect {
                wrong_output: Some(k),
            } => write!(f, "no, error on output variable {}", k + 1),
            Answer::DontKnow => write!(f, "don't know"),
        }
    }
}

/// A source of intended-behaviour knowledge.
pub trait Oracle {
    /// Judges one node of the execution tree.
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer;

    /// A short name for transcripts (`"user"`, `"test database"`, …).
    fn source_name(&self) -> &str;
}

/// Simulates the user from a *reference* (correct) implementation of the
/// same program: the intended behaviour of a unit on given inputs is what
/// the reference program's unit does on those inputs.
///
/// Judgement order:
/// 1. find a call of the same procedure with identical In values in the
///    reference execution tree and compare Out values;
/// 2. otherwise, if the procedure is top-level in the reference program,
///    execute it in isolation on the query's inputs;
/// 3. otherwise answer [`Answer::DontKnow`].
pub struct ReferenceOracle<'m> {
    reference: &'m Module,
    /// Owned when the oracle ran the reference itself, borrowed when a
    /// caller recorded it once for many oracles (mutation campaigns).
    reference_tree: Cow<'m, ExecTree>,
    /// Lowered at most once — seeded by [`ReferenceOracle::new`]'s
    /// reference run or by [`ReferenceOracle::with_cfg`], else lazily on
    /// the first isolated re-execution (judgement rule 2). Every later
    /// question shares it instead of re-lowering the reference module.
    cfg: OnceLock<Arc<ProgramCfg>>,
}

impl<'m> ReferenceOracle<'m> {
    /// Builds the oracle by running the reference program once (with the
    /// given input stream) and keeping its execution tree.
    ///
    /// # Errors
    /// Propagates reference-program runtime errors.
    pub fn new(
        reference: &'m Module,
        input: impl IntoIterator<Item = Value>,
    ) -> gadt_pascal::error::Result<Self> {
        let cfg = Arc::new(gadt_pascal::cfg::lower(reference));
        let trace =
            gadt_analysis::dyntrace::record_trace_shared(reference, Arc::clone(&cfg), input)?;
        let reference_tree = gadt_trace::build_tree(reference, &trace);
        Ok(ReferenceOracle::from_tree(reference, reference_tree).with_cfg(cfg))
    }

    /// Builds the oracle from an execution tree recorded earlier for the
    /// reference program — saves the reference re-run when many oracles
    /// over the same reference are constructed (mutation campaigns). A
    /// borrowed tree is judged in place, never copied.
    pub fn from_tree(reference: &'m Module, reference_tree: impl Into<Cow<'m, ExecTree>>) -> Self {
        ReferenceOracle {
            reference,
            reference_tree: reference_tree.into(),
            cfg: OnceLock::new(),
        }
    }

    /// Seeds the reference module's CFG, which isolated re-executions
    /// (judgement rule 2) run on, so the oracle never lowers it again.
    /// `cfg` must be the reference module's own.
    #[must_use]
    pub fn with_cfg(self, cfg: Arc<ProgramCfg>) -> Self {
        let _ = self.cfg.set(cfg);
        self
    }

    fn compare_outs(expected: &[(Name, Value)], actual: &[(Name, Value)]) -> Answer {
        if expected.len() != actual.len() {
            return Answer::Incorrect { wrong_output: None };
        }
        for (k, ((_, ev), (_, av))) in expected.iter().zip(actual).enumerate() {
            if ev != av {
                return Answer::Incorrect {
                    wrong_output: Some(k),
                };
            }
        }
        Answer::Correct
    }
}

impl Oracle for ReferenceOracle<'_> {
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        let n = tree.node(node);
        let NodeKind::Call { proc, .. } = &n.kind else {
            // Loop units have no In values to match on; judge only the
            // unambiguous case — exactly one loop instance with this name
            // in the reference run — by comparing final snapshots.
            if matches!(n.kind, NodeKind::Loop { .. }) {
                let tree = &*self.reference_tree;
                let mut matches = tree
                    .preorder_iter()
                    .map(|rid| tree.node(rid))
                    .filter(|r| matches!(r.kind, NodeKind::Loop { .. }) && r.name == n.name);
                if let (Some(r), None) = (matches.next(), matches.next()) {
                    return Self::compare_outs(&r.outs, &n.outs);
                }
            }
            return Answer::DontKnow;
        };
        let name = &module.proc(*proc).name;

        // 1. Same-name call with identical In values in the reference run.
        let tree = &*self.reference_tree;
        for r in tree.preorder_iter().map(|rid| tree.node(rid)) {
            let NodeKind::Call { proc: rp, .. } = &r.kind else {
                continue;
            };
            if !self.reference.proc(*rp).name.eq_ignore_ascii_case(name) {
                continue;
            }
            if r.ins == n.ins {
                return Self::compare_outs(&r.outs, &n.outs);
            }
        }

        // 2. Isolated re-execution of a top-level reference unit.
        if let Some(rp) = self.reference.proc_by_name(name) {
            let rinfo = self.reference.proc(rp);
            if rinfo.parent == Some(gadt_pascal::sema::MAIN_PROC) {
                // Reconstruct the argument list from the node's In values
                // (by parameter order) — var params take their In value
                // when read, zero otherwise.
                let mut args = Vec::new();
                let mut ok = true;
                for &p in &rinfo.params {
                    let pname = &self.reference.var(p).name;
                    let from_ins = n.ins.iter().find(|(i, _)| i == pname);
                    let from_outs = n.outs.iter().find(|(o, _)| o == pname);
                    match from_ins {
                        Some((_, v)) => args.push(v.clone()),
                        None if from_outs.is_some() => {
                            args.push(Value::zero_of(&self.reference.var(p).ty));
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let cfg = self
                        .cfg
                        .get_or_init(|| Arc::new(gadt_pascal::cfg::lower(self.reference)));
                    let mut interp = gadt_pascal::interp::Interpreter::with_shared_cfg(
                        self.reference,
                        Arc::clone(cfg),
                    );
                    if let Ok(run) = interp.run_proc(rp, args) {
                        let mut expected: Vec<(Name, Value)> = run
                            .outs
                            .iter()
                            .map(|(v, val)| (self.reference.var(*v).name.clone(), val.clone()))
                            .collect();
                        if let Some(res) = run.result {
                            expected.push((rinfo.name.clone(), res));
                        }
                        return Self::compare_outs(&expected, &n.outs);
                    }
                }
            }
        }
        Answer::DontKnow
    }

    fn source_name(&self) -> &str {
        "simulated user (reference implementation)"
    }
}

/// The mutation harness's *golden-reference* oracle: judges a mutant's
/// execution-tree nodes against the **un-mutated** ("golden") program,
/// replacing the human in automated bug-localization campaigns (after
/// Ohta & Mizuno's framework, PAPERS.md).
///
/// It is a [`ReferenceOracle`] over the golden program with a campaign-
/// appropriate source name; judgement rules are identical (tree match,
/// then isolated re-execution of top-level units, then
/// [`Answer::DontKnow`]).
pub struct GoldenOracle<'m> {
    inner: ReferenceOracle<'m>,
}

impl<'m> GoldenOracle<'m> {
    /// Builds the oracle by running the golden program once on `input`.
    ///
    /// # Errors
    /// Propagates golden-program runtime errors.
    pub fn new(
        golden: &'m Module,
        input: impl IntoIterator<Item = Value>,
    ) -> gadt_pascal::error::Result<Self> {
        Ok(GoldenOracle {
            inner: ReferenceOracle::new(golden, input)?,
        })
    }

    /// Builds the oracle from a pre-recorded golden execution tree — the
    /// per-mutant fast path: the campaign records the golden run once and
    /// lends its tree to each session's oracle.
    pub fn from_tree(golden: &'m Module, golden_tree: impl Into<Cow<'m, ExecTree>>) -> Self {
        GoldenOracle {
            inner: ReferenceOracle::from_tree(golden, golden_tree),
        }
    }

    /// Seeds the golden module's CFG; see [`ReferenceOracle::with_cfg`].
    #[must_use]
    pub fn with_cfg(self, cfg: Arc<ProgramCfg>) -> Self {
        GoldenOracle {
            inner: self.inner.with_cfg(cfg),
        }
    }
}

impl Oracle for GoldenOracle<'_> {
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        self.inner.judge(module, tree, node)
    }

    fn source_name(&self) -> &str {
        "golden reference (un-mutated program)"
    }
}

/// An oracle answering from user-supplied *assertions*: boolean
/// expressions in the Pascal expression language over a unit's In/Out
/// names (the paper's partial specifications, after Drabent et al.;
/// evaluated by our interpreter instead of DICE incremental compilation).
#[derive(Default)]
pub struct AssertionOracle {
    /// Unit name (lowercase) → assertion expressions. A node is Correct
    /// if all assertions hold, Incorrect if any fails.
    assertions: BTreeMap<String, Vec<String>>,
    /// Unit name → per-output assertions `(output name, expr)`. A failing
    /// output assertion produces the §5.3.3 error indication ("error on
    /// output variable k") that activates slicing.
    output_assertions: BTreeMap<String, Vec<(String, String)>>,
}

impl AssertionOracle {
    /// Creates an empty assertion base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an assertion for a unit, e.g.
    /// `add: "r1 = s1 + s2"`.
    pub fn assert_unit(&mut self, unit: &str, expr: impl Into<String>) {
        self.assertions
            .entry(unit.to_ascii_lowercase())
            .or_default()
            .push(expr.into());
    }

    /// Registers an assertion about one *specific output variable* of a
    /// unit. When it fails, the oracle answers with an error indication
    /// pointing at that output — which is what lets the debugger slice.
    pub fn assert_output(
        &mut self,
        unit: &str,
        output: impl Into<String>,
        expr: impl Into<String>,
    ) {
        self.output_assertions
            .entry(unit.to_ascii_lowercase())
            .or_default()
            .push((output.into(), expr.into()));
    }

    /// Evaluates one assertion against a node's In/Out values by
    /// synthesizing and running a tiny program.
    fn eval(expr: &str, values: &[(Name, Value)]) -> Option<bool> {
        let mut decls = String::new();
        let mut inits = String::new();
        for (name, v) in values {
            let ty = match v {
                Value::Int(_) => "integer".to_string(),
                Value::Real(_) => "real".to_string(),
                Value::Bool(_) => "boolean".to_string(),
                Value::Char(_) => "char".to_string(),
                Value::Str(_) => return None,
                Value::Array(a) => format!("array[{}..{}] of integer", a.lo, a.hi()),
            };
            decls.push_str(&format!("{name}: {ty}; "));
            match v {
                Value::Int(n) => inits.push_str(&format!("{name} := {n}; ")),
                Value::Real(x) => inits.push_str(&format!("{name} := {x:?}; ")),
                Value::Bool(b) => inits.push_str(&format!("{name} := {b}; ")),
                Value::Char(c) => inits.push_str(&format!("{name} := '{c}'; ")),
                Value::Array(a) => {
                    for (i, e) in a.elems.iter().enumerate() {
                        inits.push_str(&format!("{name}[{}] := {e}; ", a.lo + i as i64));
                    }
                }
                Value::Str(_) => return None,
            }
        }
        let src = format!(
            "program assertcheck; var {decls} gadt_ok: boolean;
             begin {inits} gadt_ok := {expr} end."
        );
        let m = gadt_pascal::sema::compile(&src).ok()?;
        let outcome = gadt_pascal::interp::Interpreter::new(&m).run().ok()?;
        outcome.global("gadt_ok").and_then(Value::as_bool)
    }
}

impl Oracle for AssertionOracle {
    fn judge(&mut self, _module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        let n = tree.node(node);
        let key = n.name.to_ascii_lowercase();
        let whole = self.assertions.get(key.as_str());
        let per_output = self.output_assertions.get(key.as_str());
        if whole.is_none() && per_output.is_none() {
            return Answer::DontKnow;
        }
        let exprs = whole.cloned().unwrap_or_default();
        let exprs = &exprs;
        let mut values: Vec<(Name, Value)> = n.ins.clone();
        for (name, v) in &n.outs {
            if !values.iter().any(|(vn, _)| vn == name) {
                values.push((name.clone(), v.clone()));
            } else {
                // Out value supersedes the In value of the same variable.
                if let Some(slot) = values.iter_mut().find(|(vn, _)| vn == name) {
                    slot.1 = v.clone();
                }
            }
        }
        let mut all_known = true;
        // Per-output assertions first: they yield precise error
        // indications for slicing.
        if let Some(outs) = per_output {
            for (out_name, expr) in outs.clone() {
                match Self::eval(&expr, &values) {
                    Some(true) => {}
                    Some(false) => {
                        let k = n
                            .outs
                            .iter()
                            .position(|(name, _)| name.eq_ignore_ascii_case(&out_name));
                        return Answer::Incorrect { wrong_output: k };
                    }
                    None => all_known = false,
                }
            }
        }
        for expr in exprs {
            match Self::eval(expr, &values) {
                Some(true) => {}
                Some(false) => return Answer::Incorrect { wrong_output: None },
                None => all_known = false,
            }
        }
        if all_known {
            Answer::Correct
        } else {
            Answer::DontKnow
        }
    }

    fn source_name(&self) -> &str {
        "assertions"
    }
}

/// An oracle driven by a closure — handy for scripted tests and the
/// interactive front end.
pub struct FnOracle<F> {
    f: F,
    name: String,
}

impl<F> FnOracle<F>
where
    F: FnMut(&Module, &ExecTree, NodeId) -> Answer,
{
    /// Wraps a closure as an oracle.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnOracle {
            f,
            name: name.into(),
        }
    }
}

impl<F> Oracle for FnOracle<F>
where
    F: FnMut(&Module, &ExecTree, NodeId) -> Answer,
{
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        (self.f)(module, tree, node)
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

/// Wraps an oracle and counts how many queries actually reached it — the
/// paper's measure of user burden.
pub struct CountingOracle<O> {
    inner: O,
    count: usize,
}

impl<O: Oracle> CountingOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        CountingOracle { inner, count: 0 }
    }

    /// Queries answered by the wrapped oracle so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl<O: Oracle> Oracle for CountingOracle<O> {
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        self.count += 1;
        self.inner.judge(module, tree, node)
    }

    fn source_name(&self) -> &str {
        self.inner.source_name()
    }
}

/// Chains oracles: the first non-[`Answer::DontKnow`] answer wins.
/// Records which source answered (for transcripts), and — when a
/// persist sink is attached via [`ChainOracle::persist_answers_to`] —
/// writes every definite answer into the knowledge store so later
/// sessions replay it from disk.
#[derive(Default)]
pub struct ChainOracle<'a> {
    oracles: Vec<Box<dyn Oracle + 'a>>,
    /// Source name of the last answering oracle.
    last_source: String,
    /// Persist sink: definite answers land here keyed by
    /// `(unit, In-values)`.
    persist: Option<gadt_store::SharedStore>,
    /// First store-append error, if any (judging cannot propagate it).
    persist_error: Option<std::io::Error>,
}

impl<'a> ChainOracle<'a> {
    /// Creates an empty chain.
    pub fn new() -> Self {
        ChainOracle::default()
    }

    /// Appends an oracle to the chain (consulted after earlier ones).
    pub fn push(&mut self, oracle: impl Oracle + 'a) {
        self.oracles.push(Box::new(oracle));
    }

    /// Prepends an oracle — consulted before everything already in the
    /// chain. This is how the stored-knowledge oracle takes precedence
    /// over live sources in a replayed session.
    pub fn push_front(&mut self, oracle: impl Oracle + 'a) {
        self.oracles.insert(0, Box::new(oracle));
    }

    /// Attaches a persist sink: from now on every definite answer (from
    /// any source except the store itself) is recorded into `store`
    /// under the queried node's `(unit, In-values)` fingerprint.
    pub fn persist_answers_to(&mut self, store: gadt_store::SharedStore) {
        self.persist = Some(store);
    }

    /// The source that produced the last answer.
    pub fn last_source(&self) -> &str {
        &self.last_source
    }

    /// Takes the first store-append error encountered while persisting
    /// answers, if any — judging swallows it to keep the session going;
    /// callers that care (the facade) surface it afterwards.
    pub fn take_persist_error(&mut self) -> Option<std::io::Error> {
        self.persist_error.take()
    }
}

impl Oracle for ChainOracle<'_> {
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        for o in &mut self.oracles {
            match o.judge(module, tree, node) {
                Answer::DontKnow => continue,
                answer => {
                    self.last_source = o.source_name().to_string();
                    // Persist new knowledge — but never answers that
                    // came *from* the store: re-recording them under a
                    // different source would dirty the WAL and break
                    // replay byte-determinism.
                    if self.last_source != crate::stored::STORED_SOURCE {
                        if let (Some(store), Some(stored)) =
                            (&self.persist, crate::stored::answer_to_stored(&answer))
                        {
                            let n = tree.node(node);
                            let ins: Vec<Value> = n.ins.iter().map(|(_, v)| v.clone()).collect();
                            let result = store.lock().expect("store mutex poisoned").record_answer(
                                &n.name,
                                &ins,
                                stored,
                                &self.last_source,
                            );
                            if let Err(e) = result {
                                if self.persist_error.is_none() {
                                    self.persist_error = Some(e);
                                }
                            }
                        }
                    }
                    return answer;
                }
            }
        }
        self.last_source = "nobody".to_string();
        Answer::DontKnow
    }

    fn source_name(&self) -> &str {
        "oracle chain"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    fn tree_of(module: &Module) -> ExecTree {
        let cfg = gadt_pascal::cfg::lower(module);
        let trace = gadt_analysis::dyntrace::record_trace(module, &cfg, []).unwrap();
        gadt_trace::build_tree(module, &trace)
    }

    #[test]
    fn reference_oracle_judges_sqrtest_nodes() {
        let buggy = compile(testprogs::SQRTEST).unwrap();
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let tree = tree_of(&buggy);
        let mut oracle = ReferenceOracle::new(&fixed, []).unwrap();

        let judge = |o: &mut ReferenceOracle<'_>, name: &str| {
            let node = tree.find_call(&buggy, name).unwrap();
            o.judge(&buggy, &tree, node)
        };
        // sqrtest produced false, reference produces true → incorrect.
        assert_eq!(
            judge(&mut oracle, "sqrtest"),
            Answer::Incorrect {
                wrong_output: Some(0)
            }
        );
        // arrsum: [1,2] → 3 in both.
        assert_eq!(judge(&mut oracle, "arrsum"), Answer::Correct);
        // computs: r1 wrong (12 vs 9), r2 right → error on output 0.
        assert_eq!(
            judge(&mut oracle, "computs"),
            Answer::Incorrect {
                wrong_output: Some(0)
            }
        );
        // partialsums: s1 right (6), s2 wrong (6 vs 3) → output 1.
        assert_eq!(
            judge(&mut oracle, "partialsums"),
            Answer::Incorrect {
                wrong_output: Some(1)
            }
        );
        // add(6, 6) = 12 is correct *for those inputs* (isolated rerun).
        assert_eq!(judge(&mut oracle, "add"), Answer::Correct);
        // decrement(3) = 4, reference says 2 → incorrect.
        assert_eq!(
            judge(&mut oracle, "decrement"),
            Answer::Incorrect {
                wrong_output: Some(0)
            }
        );
        // increment(3) = 4 in both.
        assert_eq!(judge(&mut oracle, "increment"), Answer::Correct);
    }

    #[test]
    fn reference_oracle_handles_nested_procs_via_tree_match() {
        let buggy = compile(testprogs::PQR).unwrap();
        let fixed = compile(testprogs::PQR_FIXED).unwrap();
        let tree = tree_of(&buggy);
        let mut oracle = ReferenceOracle::new(&fixed, []).unwrap();
        let q = tree.find_call(&buggy, "q").unwrap();
        assert_eq!(oracle.judge(&buggy, &tree, q), Answer::Correct);
        let r = tree.find_call(&buggy, "r").unwrap();
        assert_eq!(
            oracle.judge(&buggy, &tree, r),
            Answer::Incorrect {
                wrong_output: Some(0)
            }
        );
    }

    #[test]
    fn assertion_oracle_checks_boolean_specs() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut oracle = AssertionOracle::new();
        oracle.assert_unit("add", "r1 = s1 + s2");
        oracle.assert_unit("test", "isok = (r1 = r2)");
        oracle.assert_unit("decrement", "decrement = y - 1");

        let add = tree.find_call(&m, "add").unwrap();
        assert_eq!(oracle.judge(&m, &tree, add), Answer::Correct);
        let test = tree.find_call(&m, "test").unwrap();
        assert_eq!(oracle.judge(&m, &tree, test), Answer::Correct);
        // decrement(3) = 4 violates its assertion.
        let dec = tree.find_call(&m, "decrement").unwrap();
        assert_eq!(
            oracle.judge(&m, &tree, dec),
            Answer::Incorrect { wrong_output: None }
        );
        // No assertion for computs.
        let computs = tree.find_call(&m, "computs").unwrap();
        assert_eq!(oracle.judge(&m, &tree, computs), Answer::DontKnow);
    }

    #[test]
    fn assertion_oracle_with_arrays() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut oracle = AssertionOracle::new();
        oracle.assert_unit("arrsum", "b = a[1] + a[2]");
        let arrsum = tree.find_call(&m, "arrsum").unwrap();
        assert_eq!(oracle.judge(&m, &tree, arrsum), Answer::Correct);
    }

    #[test]
    fn chain_takes_first_definite_answer() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut chain = ChainOracle::new();
        chain.push(FnOracle::new("first", |_m: &Module, _t: &ExecTree, _n| {
            Answer::DontKnow
        }));
        chain.push(FnOracle::new("second", |_m: &Module, _t: &ExecTree, _n| {
            Answer::Correct
        }));
        chain.push(FnOracle::new("third", |_m: &Module, _t: &ExecTree, _n| {
            Answer::Incorrect { wrong_output: None }
        }));
        let node = tree.find_call(&m, "add").unwrap();
        assert_eq!(chain.judge(&m, &tree, node), Answer::Correct);
        assert_eq!(chain.last_source(), "second");
    }

    #[test]
    fn counting_oracle_counts_only_reached_queries() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut chain = ChainOracle::new();
        chain.push(FnOracle::new("answers-add", {
            let m2 = compile(testprogs::SQRTEST).unwrap();
            let add_name = "add".to_string();
            move |mm: &Module, t: &ExecTree, n| {
                let _ = &m2;
                if t.node(n).name == add_name {
                    let _ = mm;
                    Answer::Correct
                } else {
                    Answer::DontKnow
                }
            }
        }));
        let counting =
            CountingOracle::new(FnOracle::new("user", |_m: &Module, _t: &ExecTree, _n| {
                Answer::Correct
            }));
        chain.push(counting);
        let add = tree.find_call(&m, "add").unwrap();
        let sqrtest = tree.find_call(&m, "sqrtest").unwrap();
        assert_eq!(chain.judge(&m, &tree, add), Answer::Correct);
        assert_eq!(chain.last_source(), "answers-add");
        assert_eq!(chain.judge(&m, &tree, sqrtest), Answer::Correct);
        assert_eq!(chain.last_source(), "user");
    }

    #[test]
    fn answers_display_like_the_paper() {
        assert_eq!(Answer::Correct.to_string(), "yes");
        assert_eq!(Answer::Incorrect { wrong_output: None }.to_string(), "no");
        assert_eq!(
            Answer::Incorrect {
                wrong_output: Some(0)
            }
            .to_string(),
            "no, error on output variable 1"
        );
        assert_eq!(Answer::DontKnow.to_string(), "don't know");
    }
}

#[cfg(test)]
mod output_assertion_tests {
    use super::*;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    fn tree_of(module: &Module) -> ExecTree {
        let cfg = gadt_pascal::cfg::lower(module);
        let trace = gadt_analysis::dyntrace::record_trace(module, &cfg, []).unwrap();
        gadt_trace::build_tree(module, &trace)
    }

    #[test]
    fn failing_output_assertion_points_at_the_output() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut oracle = AssertionOracle::new();
        // computs should satisfy r1 = r2 (both compute sqr of the sum);
        // the buggy run has r1 = 12, r2 = 9.
        oracle.assert_output("computs", "r1", "r1 = r2");
        let computs = tree.find_call(&m, "computs").unwrap();
        assert_eq!(
            oracle.judge(&m, &tree, computs),
            Answer::Incorrect {
                wrong_output: Some(0)
            }
        );
    }

    #[test]
    fn passing_output_assertions_answer_correct() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let tree = tree_of(&m);
        let mut oracle = AssertionOracle::new();
        oracle.assert_output("partialsums", "s1", "s1 = y * (y + 1) div 2");
        let ps = tree.find_call(&m, "partialsums").unwrap();
        assert_eq!(oracle.judge(&m, &tree, ps), Answer::Correct);
    }

    #[test]
    fn output_assertions_drive_slicing_in_a_session() {
        // A session where *assertions alone* provide the error
        // indications: no reference oracle needed until deep inside.
        use crate::debugger::{DebugConfig, DebugResult, Debugger};
        let m = compile(testprogs::SQRTEST).unwrap();
        let fixed = compile(testprogs::SQRTEST_FIXED).unwrap();
        let cfg = gadt_pascal::cfg::lower(&m);
        let trace = gadt_analysis::dyntrace::record_trace(&m, &cfg, []).unwrap();
        let tree = gadt_trace::build_tree(&m, &trace);
        let mut assertions = AssertionOracle::new();
        assertions.assert_output("computs", "r1", "r1 = r2");
        let mut chain = ChainOracle::new();
        chain.push(assertions);
        chain.push(CountingOracle::new(
            ReferenceOracle::new(&fixed, []).unwrap(),
        ));
        let out = Debugger::new(&m, &trace, DebugConfig::default()).run_program(&tree, &mut chain);
        assert!(
            matches!(&out.result, DebugResult::BugLocalized { unit, .. } if unit == "decrement"),
            "{}",
            out.render_transcript()
        );
        // The computs query was answered by assertions, with slicing.
        let computs_entry = out.transcript.iter().find(|t| t.unit == "computs").unwrap();
        assert_eq!(computs_entry.source, "assertions");
        assert!(out.slices_taken >= 1);
    }
}
