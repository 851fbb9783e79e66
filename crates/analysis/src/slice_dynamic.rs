//! Dynamic interprocedural slicing (after Kamkar), over a recorded
//! [`DynTrace`].
//!
//! The debugger activates this when the user points at a *specific wrong
//! output variable* of a procedure invocation (§5.3.3, §7): the slice is
//! the backward closure over dynamic data and control dependences from
//! that value's defining event. The result identifies both the relevant
//! statements (for display) and the relevant dynamic calls (for pruning
//! the execution tree into the "corresponding execution tree" of §7).

use crate::dyntrace::{CallRecord, DynTrace};
use gadt_pascal::ast::{ParamMode, StmtId};
use gadt_pascal::interp::MemLoc;
use gadt_pascal::sema::{Module, VarId};
use std::collections::{BTreeSet, HashMap};

/// A dynamic slicing criterion: one output value of one dynamic call.
#[derive(Debug, Clone)]
pub struct DynCriterion {
    /// The dynamic call whose output is wrong.
    pub call: u64,
    /// The variable (a `var`/`out` parameter, the function result, or a
    /// written non-local) whose value at the call's exit is wrong.
    pub var: VarId,
}

impl DynCriterion {
    /// Criterion for the `index`-th output of a call (0-based over the
    /// call's `outs` list: reference parameters in declaration order, then
    /// the function result).
    pub fn output(trace: &DynTrace, call: u64, index: usize) -> Option<DynCriterion> {
        let rec = trace.call(call);
        rec.outs
            .get(index)
            .map(|(v, _)| DynCriterion { call, var: *v })
    }
}

/// The result of dynamic slicing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynSlice {
    /// Relevant event indices.
    pub events: BTreeSet<usize>,
    /// Source statements of relevant events.
    pub stmts: BTreeSet<StmtId>,
    /// Dynamic calls containing at least one relevant event, plus all
    /// their ancestors (so the pruned execution tree stays connected).
    pub calls: BTreeSet<u64>,
    /// Whether the backward closure is *complete*: the criterion value had
    /// a defining event and every use traversed had a reaching definition.
    /// An incomplete closure is the signature of an omission fault (a
    /// deleted or misdirected write). Such slices are *repaired* before
    /// being returned: every call that could have written the undefined
    /// location — the call owning its frame, and every call that received
    /// it by reference — is kept (see `repair_omissions`), so pruning on
    /// the slice remains sound even for faults of omission.
    pub complete: bool,
}

/// Size accounting for one dynamic slice — how much of the traced
/// execution the criterion actually depends on. Campaign reports use this
/// to quantify pruning (mean slice size vs. trace size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// Relevant trace events.
    pub events: usize,
    /// Distinct source statements among them.
    pub stmts: usize,
    /// Dynamic calls kept (including ancestors for connectivity).
    pub calls: usize,
}

impl DynSlice {
    /// Whether a dynamic call is relevant.
    pub fn keeps_call(&self, id: u64) -> bool {
        self.calls.contains(&id)
    }

    /// Size accounting for this slice.
    pub fn stats(&self) -> SliceStats {
        SliceStats {
            events: self.events.len(),
            stmts: self.stmts.len(),
            calls: self.calls.len(),
        }
    }
}

/// Computes the backward dynamic slice for `criterion`.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, cfg::lower, testprogs};
/// use gadt_analysis::dyntrace::record_trace;
/// use gadt_analysis::slice_dynamic::dynamic_slice_output;
/// let m = compile(testprogs::SQRTEST)?;
/// let cfg = lower(&m);
/// let trace = record_trace(&m, &cfg, [])?;
/// let computs = trace.calls.iter()
///     .find(|c| m.proc(c.proc).name == "computs").unwrap();
/// // Slice on computs' first output (r1), as in the paper's §8 step 2.
/// let slice = dynamic_slice_output(&m, &trace, computs.id, 0);
/// assert!(!slice.events.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn dynamic_slice(module: &Module, trace: &DynTrace, criterion: &DynCriterion) -> DynSlice {
    let rec = trace.call(criterion.call);
    let seed = criterion_def_event(module, trace, rec, criterion.var);

    match seed {
        Some(seed_event) => slice_from_seed(trace, seed_event, rec),
        None => {
            // The output was never defined during the call (it still has
            // its initial value): the write that should have defined it is
            // exactly what is missing. Keep every candidate writer.
            let mut slice = DynSlice::default();
            keep_ancestors(trace, criterion.call, &mut slice);
            let loc = rec
                .bindings
                .iter()
                .find(|(p, _)| *p == criterion.var)
                .map(|(_, l)| *l)
                .unwrap_or(MemLoc {
                    frame: rec.frame,
                    var: criterion.var,
                    elem: None,
                });
            repair_omissions(trace, &[loc], &mut slice);
            slice
        }
    }
}

/// Compensates for omission faults: for each location that was used (or
/// demanded as a criterion) without ever being defined, keeps every call
/// that *could have* written it — the call owning the location's frame,
/// and every call that received the location through a reference-parameter
/// binding. After the GADT transformation all data flows through explicit
/// parameters (no non-local access), so these are exactly the units a
/// deleted or misdirected write could hide in; keeping them makes pruning
/// on an incomplete slice sound.
fn repair_omissions(trace: &DynTrace, missing: &[MemLoc], slice: &mut DynSlice) {
    for loc in missing {
        for c in &trace.calls {
            let owns = c.frame == loc.frame;
            let bound = c.bindings.iter().any(|(_, b)| {
                b.frame == loc.frame
                    && b.var == loc.var
                    && (b.elem == loc.elem || b.elem.is_none() || loc.elem.is_none())
            });
            if owns || bound {
                keep_ancestors(trace, c.id, slice);
            }
        }
    }
}

fn keep_ancestors(trace: &DynTrace, mut call: u64, slice: &mut DynSlice) {
    loop {
        if !slice.calls.insert(call) {
            return;
        }
        match trace.call(call).parent {
            Some(p) => call = p,
            None => return,
        }
    }
}

/// Finds the event that defines the criterion variable's value observed at
/// the call's exit, for result variables and written non-locals. Reference
/// parameters are resolved via bindings in [`dynamic_slice_output`].
fn criterion_def_event(
    module: &Module,
    trace: &DynTrace,
    rec: &CallRecord,
    var: VarId,
) -> Option<usize> {
    let info = module.var(var);
    let range = rec.enter_idx..rec.exit_idx.min(trace.events.len());
    match info.kind {
        gadt_pascal::sema::VarKind::Result => trace.events[range]
            .iter()
            .rev()
            .find(|e| e.defs.iter().any(|d| d.frame == rec.frame && d.var == var))
            .map(|e| e.idx),
        _ => trace.events[range]
            .iter()
            .rev()
            .find(|e| e.defs.iter().any(|d| d.var == var))
            .map(|e| e.idx),
    }
}

/// Like [`dynamic_slice`] but resolves the criterion variable's *binding*
/// via the recorded call: for a reference-parameter output, the defining
/// events are those that wrote the bound caller-side location during the
/// call's dynamic extent. This is the precise entry point the debugger
/// uses for §5.3.3's "error on output variable k".
pub fn dynamic_slice_output(
    module: &Module,
    trace: &DynTrace,
    call: u64,
    out_index: usize,
) -> DynSlice {
    let rec = trace.call(call);
    let Some((var, _)) = rec.outs.get(out_index) else {
        return DynSlice::default();
    };
    let info = module.var(*var);
    let own_loc = MemLoc {
        frame: rec.frame,
        var: *var,
        elem: None,
    };
    let (seed, criterion_loc) = match info.kind {
        gadt_pascal::sema::VarKind::Param {
            mode: ParamMode::Var | ParamMode::Out,
            ..
        } => {
            // Resolve the parameter's binding and find the last write to
            // that location inside the call's extent.
            match rec.bindings.iter().find(|(p, _)| p == var) {
                Some((_, loc)) => {
                    let range = rec.enter_idx..rec.exit_idx.min(trace.events.len());
                    let seed = trace.events[range]
                        .iter()
                        .rev()
                        .find(|e| {
                            e.defs.iter().any(|d| {
                                d.frame == loc.frame
                                    && d.var == loc.var
                                    && (d.elem == loc.elem
                                        || d.elem.is_none()
                                        || loc.elem.is_none())
                            })
                        })
                        .map(|e| e.idx);
                    (seed, *loc)
                }
                None => (None, own_loc),
            }
        }
        _ => (criterion_def_event(module, trace, rec, *var), own_loc),
    };
    match seed {
        Some(seed_event) => slice_from_seed(trace, seed_event, rec),
        None => {
            // The criterion output was never written — an omission fault
            // at the criterion itself. Keep every candidate writer of the
            // bound location so the faulty unit survives pruning.
            let mut s = DynSlice::default();
            keep_ancestors(trace, call, &mut s);
            repair_omissions(trace, &[criterion_loc], &mut s);
            s
        }
    }
}

/// Slices from the *final* value of a program-level variable: the
/// criterion is the last event (anywhere in the run) that wrote the
/// variable's program-level storage location. This is the differential
/// fuzzing harness's entry point — the final value of each global is a
/// machine-checkable slicing criterion with a replay oracle (the slice,
/// re-run on the same input, must reproduce the value; after Ricciotti
/// et al.), with no user in the loop.
///
/// Returns `None` when the variable does not exist at program level or
/// was never written during the run (its final value is its
/// zero-initialization, so the empty slice trivially replays).
pub fn dynamic_slice_final(module: &Module, trace: &DynTrace, name: &str) -> Option<DynSlice> {
    let var = module.var_in_scope(gadt_pascal::sema::MAIN_PROC, name)?;
    let rec = trace.main_call();
    let main_frame = rec.frame;
    let seed = trace
        .events
        .iter()
        .rev()
        .find(|e| {
            e.defs
                .iter()
                .any(|d| d.frame == main_frame && d.var == var && d.elem.is_none())
        })
        .map(|e| e.idx)?;
    Some(slice_from_seed(trace, seed, rec))
}

/// Termination-sensitive replay closure (after Ricciotti et al.'s
/// soundness criterion: a slice must *replay* to the criterion value).
///
/// A backward dynamic slice keeps exactly the events the criterion
/// value depends on — which is correct for fault localization but not
/// for replay: printing the slice keeps whole *static* statements, and
/// re-running executes every kept statement each time control reaches
/// it. Two gaps open up:
///
/// * **termination**: a kept loop re-runs with its original exit
///   condition, but the statements that only drove the exit decision
///   (e.g. a fuel decrement) were sliced away — the replay diverges or
///   never terminates;
/// * **instance mismatch**: a kept statement re-executes in iterations
///   whose input-defining events were sliced away, so the replayed
///   instance reads values produced by different writes than in the
///   original run.
///
/// The closure fixes both by closing over *static* statements: while
/// any event of a kept statement has a data/control dependence on an
/// event of an unkept statement, that statement joins the slice. Two
/// structural closures ride along, because the printed slice re-emits
/// syntax that dynamic dependences alone do not reach:
///
/// * every loop/branch statement *enclosing* a kept statement — the
///   printed slice re-executes its condition even when the kept
///   statement's only kept instance ran unconditionally (e.g. the
///   first iteration of a `repeat` body has no control dependence on
///   the `until` condition, yet the replay still evaluates it);
/// * every call-site statement on the call chain of a kept event —
///   without the call, the replay never reaches the kept statement;
/// * every `goto` and labeled statement — a fired goto steers control
///   (e.g. exits a `for` early, fixing the control variable's final
///   value) yet defines nothing, so no dependence ever reaches it. Its
///   guards join the closure through the structural rule, and guards
///   replay with their original values, so gotos that never fired in
///   the recorded run stay dormant in the replay too.
///
/// The result — a superset of the input slice — executes, under replay,
/// exactly the same instance sequence with the same values for every
/// kept statement, so the criterion value is reproduced.
pub fn close_for_replay(module: &Module, trace: &DynTrace, slice: &mut DynSlice) {
    let (parents, jumps) = control_info(&module.program);
    slice.stmts.extend(jumps);
    let mut processed = vec![false; trace.events.len()];
    loop {
        let mut changed = false;
        for s in slice.stmts.clone() {
            let mut cur = s;
            while let Some(&p) = parents.get(&cur) {
                if !slice.stmts.insert(p) {
                    break;
                }
                changed = true;
                cur = p;
            }
        }
        for e in &trace.events {
            if processed[e.idx] || !slice.stmts.contains(&e.stmt) {
                continue;
            }
            processed[e.idx] = true;
            changed = true;
            slice.events.insert(e.idx);
            for &d in &e.data_deps {
                slice.stmts.insert(trace.events[d].stmt);
            }
            if let Some(c) = e.control_dep {
                slice.stmts.insert(trace.events[c].stmt);
            }
            if !e.unresolved_uses.is_empty() {
                slice.complete = false;
            }
            let mut call = e.call;
            loop {
                let rec = trace.call(call);
                if let Some(site) = rec.site_stmt {
                    slice.stmts.insert(site);
                }
                match rec.parent {
                    Some(p) => call = p,
                    None => break,
                }
            }
        }
        if !changed {
            break;
        }
    }
    for e in slice.events.clone() {
        keep_ancestors(trace, trace.events[e].call, slice);
    }
}

/// Walks the program once, producing (a) a map from each statement to its
/// nearest enclosing control statement (loop, `if`, or `case`) within the
/// same body — compound and labeled wrappers are transparent, they do not
/// gate execution — and (b) every `goto` statement and `label:` wrapper.
fn control_info(program: &gadt_pascal::ast::Program) -> (HashMap<StmtId, StmtId>, Vec<StmtId>) {
    use gadt_pascal::ast::{Block, Stmt, StmtKind};
    fn visit(
        s: &Stmt,
        enclosing: Option<StmtId>,
        map: &mut HashMap<StmtId, StmtId>,
        jumps: &mut Vec<StmtId>,
    ) {
        if let Some(p) = enclosing {
            map.insert(s.id, p);
        }
        match &s.kind {
            StmtKind::Compound(ss) => {
                for c in ss {
                    visit(c, enclosing, map, jumps);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit(then_branch, Some(s.id), map, jumps);
                if let Some(e) = else_branch {
                    visit(e, Some(s.id), map, jumps);
                }
            }
            StmtKind::Case { arms, else_arm, .. } => {
                for a in arms {
                    visit(&a.stmt, Some(s.id), map, jumps);
                }
                if let Some(e) = else_arm {
                    visit(e, Some(s.id), map, jumps);
                }
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                visit(body, Some(s.id), map, jumps);
            }
            StmtKind::Repeat { body, .. } => {
                for c in body {
                    visit(c, Some(s.id), map, jumps);
                }
            }
            StmtKind::Labeled { stmt, .. } => {
                jumps.push(s.id);
                visit(stmt, enclosing, map, jumps);
            }
            StmtKind::Goto(_) => jumps.push(s.id),
            _ => {}
        }
    }
    fn visit_block(b: &Block, map: &mut HashMap<StmtId, StmtId>, jumps: &mut Vec<StmtId>) {
        for p in &b.procs {
            visit_block(&p.block, map, jumps);
        }
        for s in &b.body {
            visit(s, None, map, jumps);
        }
    }
    let mut map = HashMap::new();
    let mut jumps = Vec::new();
    visit_block(&program.block, &mut map, &mut jumps);
    (map, jumps)
}

fn slice_from_seed(trace: &DynTrace, seed: usize, rec: &CallRecord) -> DynSlice {
    let mut slice = DynSlice {
        complete: true,
        ..DynSlice::default()
    };
    let mut missing: Vec<MemLoc> = Vec::new();
    let mut work = vec![seed];
    while let Some(e) = work.pop() {
        if !slice.events.insert(e) {
            continue;
        }
        let ev = &trace.events[e];
        if !ev.unresolved_uses.is_empty() {
            slice.complete = false;
            missing.extend(ev.unresolved_uses.iter().copied());
        }
        slice.stmts.insert(ev.stmt);
        for &d in &ev.data_deps {
            if !slice.events.contains(&d) {
                work.push(d);
            }
        }
        if let Some(c) = ev.control_dep {
            if !slice.events.contains(&c) {
                work.push(c);
            }
        }
    }
    for e in slice.events.clone() {
        keep_ancestors(trace, trace.events[e].call, &mut slice);
    }
    keep_ancestors(trace, rec.id, &mut slice);
    repair_omissions(trace, &missing, &mut slice);
    slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyntrace::record_trace;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    fn sqrtest_trace() -> (Module, DynTrace) {
        let m = compile(testprogs::SQRTEST).expect("compile");
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, []).expect("run");
        (m, t)
    }

    fn call_named(m: &Module, t: &DynTrace, name: &str) -> u64 {
        t.calls
            .iter()
            .find(|c| m.proc(c.proc).name == name)
            .unwrap_or_else(|| panic!("call {name} not found"))
            .id
    }

    fn kept_names(m: &Module, t: &DynTrace, s: &DynSlice) -> Vec<String> {
        t.calls
            .iter()
            .filter(|c| s.keeps_call(c.id))
            .map(|c| m.proc(c.proc).name.to_string())
            .collect()
    }

    #[test]
    fn figure8_slice_on_computs_first_output() {
        // §8 step 2: slice on computs' first output (r1 = 12) keeps the
        // comput1 subtree and drops comput2/square (Figure 8).
        let (m, t) = sqrtest_trace();
        let computs = call_named(&m, &t, "computs");
        let s = dynamic_slice_output(&m, &t, computs, 0);
        let kept = kept_names(&m, &t, &s);
        assert!(kept.contains(&"computs".to_string()), "{kept:?}");
        assert!(kept.contains(&"comput1".to_string()), "{kept:?}");
        assert!(kept.contains(&"partialsums".to_string()), "{kept:?}");
        assert!(kept.contains(&"sum1".to_string()), "{kept:?}");
        assert!(kept.contains(&"sum2".to_string()), "{kept:?}");
        assert!(kept.contains(&"increment".to_string()), "{kept:?}");
        assert!(kept.contains(&"decrement".to_string()), "{kept:?}");
        assert!(kept.contains(&"add".to_string()), "{kept:?}");
        assert!(!kept.contains(&"comput2".to_string()), "{kept:?}");
        assert!(!kept.contains(&"square".to_string()), "{kept:?}");
        assert!(!kept.contains(&"test".to_string()), "{kept:?}");
    }

    #[test]
    fn figure9_slice_on_partialsums_second_output() {
        // §8 step 4: slice on partialsums' second output (s2 = 6) keeps
        // sum2 → decrement and drops sum1/increment (Figure 9).
        let (m, t) = sqrtest_trace();
        let partialsums = call_named(&m, &t, "partialsums");
        let s = dynamic_slice_output(&m, &t, partialsums, 1);
        let kept = kept_names(&m, &t, &s);
        assert!(kept.contains(&"partialsums".to_string()), "{kept:?}");
        assert!(kept.contains(&"sum2".to_string()), "{kept:?}");
        assert!(kept.contains(&"decrement".to_string()), "{kept:?}");
        assert!(!kept.contains(&"sum1".to_string()), "{kept:?}");
        assert!(!kept.contains(&"increment".to_string()), "{kept:?}");
        assert!(!kept.contains(&"add".to_string()), "{kept:?}");
    }

    #[test]
    fn slice_on_first_output_of_partialsums_keeps_sum1() {
        let (m, t) = sqrtest_trace();
        let partialsums = call_named(&m, &t, "partialsums");
        let s = dynamic_slice_output(&m, &t, partialsums, 0);
        let kept = kept_names(&m, &t, &s);
        assert!(kept.contains(&"sum1".to_string()), "{kept:?}");
        assert!(kept.contains(&"increment".to_string()), "{kept:?}");
        assert!(!kept.contains(&"sum2".to_string()), "{kept:?}");
        assert!(!kept.contains(&"decrement".to_string()), "{kept:?}");
    }

    #[test]
    fn function_result_criterion() {
        let (m, t) = sqrtest_trace();
        let dec = call_named(&m, &t, "decrement");
        let s = dynamic_slice_output(&m, &t, dec, 0);
        let kept = kept_names(&m, &t, &s);
        assert!(kept.contains(&"decrement".to_string()), "{kept:?}");
        // arrsum computed the value 3 that feeds decrement's argument.
        assert!(kept.contains(&"arrsum".to_string()), "{kept:?}");
        assert!(!kept.contains(&"increment".to_string()), "{kept:?}");
    }

    #[test]
    fn figure5_dynamic_slice_drops_irrelevant_procs() {
        // §7: p1..p3 execute before pn but are irrelevant to y.
        let m = compile(testprogs::FIGURE5).unwrap();
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, []).unwrap();
        let pn = call_named(&m, &t, "pn");
        let s = dynamic_slice_output(&m, &t, pn, 0);
        let kept = kept_names(&m, &t, &s);
        assert!(kept.contains(&"pn".to_string()), "{kept:?}");
        assert!(!kept.contains(&"p1".to_string()), "{kept:?}");
        assert!(!kept.contains(&"p2".to_string()), "{kept:?}");
        assert!(!kept.contains(&"p3".to_string()), "{kept:?}");
    }

    #[test]
    fn slice_includes_control_dependences() {
        let m = compile(
            "program t; var x, y: integer;
             procedure p(c: integer; var r: integer);
             begin if c > 0 then r := 1 else r := 2 end;
             begin x := 5; p(x, y) end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, []).unwrap();
        let p = call_named(&m, &t, "p");
        let s = dynamic_slice_output(&m, &t, p, 0);
        // The branch and x := 5 must be in the slice.
        let branch_in = t
            .events
            .iter()
            .any(|e| e.branch_taken.is_some() && s.events.contains(&e.idx));
        assert!(branch_in, "branch instance must be in the slice");
        assert!(s.events.contains(&0), "x := 5 must be in the slice");
    }

    #[test]
    fn loop_carried_dependences_traced() {
        let m = compile(
            "program t; var i, s: integer;
             procedure acc(n: integer; var r: integer);
             var j: integer;
             begin r := 0; for j := 1 to n do r := r + j end;
             begin acc(3, s) end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, []).unwrap();
        let acc = call_named(&m, &t, "acc");
        let s = dynamic_slice_output(&m, &t, acc, 0);
        // All loop iterations' adds are in the slice.
        let add_events = t
            .events
            .iter()
            .filter(|e| s.events.contains(&e.idx) && !e.defs.is_empty())
            .count();
        assert!(add_events >= 4, "r := 0 plus three r := r + j updates");
    }

    #[test]
    fn criterion_on_never_written_output_keeps_only_spine() {
        let m = compile(
            "program t; var x: integer;
             procedure p(var y: integer); begin end;
             begin p(x) end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, []).unwrap();
        let p = call_named(&m, &t, "p");
        let s = dynamic_slice_output(&m, &t, p, 0);
        assert!(s.keeps_call(p));
        assert!(s.events.is_empty());
        assert!(!s.complete, "a slice with no criterion def is incomplete");
    }

    #[test]
    fn slice_over_uninitialized_read_is_incomplete() {
        // `r := u + 1` reads `u`, which nothing ever wrote — the classic
        // shape left behind by a deleted assignment. The slice must flag
        // itself incomplete so the debugger does not prune on it.
        let m = compile(
            "program t; var x: integer;
             procedure p(var r: integer); var u: integer; begin r := u + 1 end;
             begin p(x) end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, []).unwrap();
        let p = call_named(&m, &t, "p");
        let s = dynamic_slice_output(&m, &t, p, 0);
        assert!(!s.events.is_empty());
        assert!(!s.complete, "unresolved use must mark the slice incomplete");
    }

    #[test]
    fn fully_defined_slices_are_complete() {
        let (m, t) = sqrtest_trace();
        let computs = call_named(&m, &t, "computs");
        let s = dynamic_slice_output(&m, &t, computs, 0);
        assert!(s.complete, "all uses in SQRTEST have reaching defs");
    }
}
