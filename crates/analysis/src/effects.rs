//! Side-effect analysis in the style of Banning (the paper's cited basis
//! for detecting "variable side-effects and exit side-effects", §3/§6).
//!
//! For every procedure we compute:
//!
//! * **MOD** — non-local variables the procedure (or anything it calls)
//!   may write *directly* (not through a `var` parameter);
//! * **REF** — non-local variables it may read directly;
//! * **param reads/writes** — which formal parameters the procedure may
//!   read or write, transitively through calls that pass them on by
//!   reference;
//! * **exit effects** — the non-local labels the procedure may jump to
//!   via a global `goto` (directly or through callees).
//!
//! These sets drive the §6 transformations (which non-locals become
//! `in`/`out`/`var` parameters, which procedures need exit parameters)
//! and make call instructions' effects available to the static slicer.
//!
//! [`Effects::compute`] reads each procedure body once, off the analyzed
//! AST through sema's resolutions, and notes what the body's CFG
//! ([`gadt_pascal::cfg::lower`]) would contain. It copies the lowering's
//! rules:
//!
//! * a `for` loop writes its control variable and reads it (the header
//!   compares it with the limit, the step increments it);
//! * a call statement's reference argument binds the place without
//!   reading it, but a function call's counts as a read of it
//!   ([`RExpr::collect_uses`]);
//! * the lowerer parks statements after a `goto` in a fresh block, so
//!   they still count, but it drops the terminator of a block that a
//!   `goto` already ended: an `if` condition, an `until` condition or a
//!   non-local `goto` directly after a `goto` adds nothing. One
//!   `terminated` flag, set and cleared where the lowerer's is, tracks
//!   this.
//!
//! The case-scrutinee and `for`-limit temporaries belong to the
//! procedure and are not parameters, so they add nothing.

use gadt_pascal::ast::{Expr, ExprId, ExprKind, LValue, Stmt, StmtKind};
use gadt_pascal::cfg::{CallArg, InstrKind, RExpr};
use gadt_pascal::name::Name;
use gadt_pascal::sema::{for_var_key, Module, NameRes, ProcId, VarId};
use std::collections::BTreeSet;

/// Side-effect summary of one procedure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcEffects {
    /// Non-local variables possibly written (directly or via callees).
    pub mods: BTreeSet<VarId>,
    /// Non-local variables possibly read.
    pub refs: BTreeSet<VarId>,
    /// Formal parameters (by VarId) possibly read.
    pub param_reads: BTreeSet<VarId>,
    /// Formal parameters possibly written (meaningful for `var`/`out`).
    pub param_writes: BTreeSet<VarId>,
    /// Non-local goto targets: `(owner proc, label)` pairs this procedure
    /// may transfer control to (the paper's *exit side-effects*).
    pub exits: BTreeSet<(ProcId, Name)>,
}

impl ProcEffects {
    /// Notes that procedure `p` writes `v`; returns whether that was new.
    fn note_write(&mut self, module: &Module, p: ProcId, v: VarId) -> bool {
        let info = module.var(v);
        if info.owner != p {
            self.mods.insert(v)
        } else if info.is_param() {
            self.param_writes.insert(v)
        } else {
            false
        }
    }

    /// Notes that procedure `p` reads `v`; returns whether that was new.
    fn note_read(&mut self, module: &Module, p: ProcId, v: VarId) -> bool {
        let info = module.var(v);
        if info.owner != p {
            self.refs.insert(v)
        } else if info.is_param() {
            self.param_reads.insert(v)
        } else {
            false
        }
    }

    /// Folds the summary of a procedure that `caller` calls into the
    /// caller's; returns whether anything was new.
    fn absorb(&mut self, module: &Module, caller: ProcId, callee: &ProcEffects) -> bool {
        let mut changed = false;
        for &v in &callee.mods {
            changed |= self.note_write(module, caller, v);
        }
        for &v in &callee.refs {
            changed |= self.note_read(module, caller, v);
        }
        // Exit effects propagate until the label's owner is reached.
        for exit in &callee.exits {
            if exit.0 != caller && !self.exits.contains(exit) {
                self.exits.insert(exit.clone());
                changed = true;
            }
        }
        changed
    }
}

/// A variable bound to a reference (`var`/`out`) parameter at a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefArg {
    /// The procedure making the call.
    pub caller: ProcId,
    /// The callee's formal parameter.
    pub param: VarId,
    /// The caller's variable (or array) passed for it.
    pub arg: VarId,
}

/// Side-effect summaries for every procedure.
#[derive(Debug, Clone)]
pub struct Effects {
    per_proc: Vec<ProcEffects>,
    /// Per callee, the reference arguments of its calls.
    ref_args: Vec<Vec<RefArg>>,
}

impl Effects {
    /// The summary of one procedure.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn of(&self, p: ProcId) -> &ProcEffects {
        &self.per_proc[p.0 as usize]
    }

    /// Whether `p` has any global side effect the paper's transformation
    /// must remove (variable or exit).
    pub fn has_global_side_effects(&self, p: ProcId) -> bool {
        let e = self.of(p);
        !e.mods.is_empty() || !e.refs.is_empty() || !e.exits.is_empty()
    }

    /// The reference arguments of every call to `p`, statement or
    /// expression, except calls the lowering drops (in a condition
    /// directly after a `goto`, which never runs).
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn ref_args(&self, p: ProcId) -> &[RefArg] {
        &self.ref_args[p.0 as usize]
    }

    /// Computes effects for all procedures: one walk over each body for
    /// its direct effects, then a worklist fixpoint over the call graph
    /// that folds each callee's summary into its callers and maps its
    /// parameter reads and writes back through reference arguments.
    ///
    /// # Examples
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use gadt_pascal::sema::compile;
    /// use gadt_analysis::effects::Effects;
    /// let m = compile(gadt_pascal::testprogs::SECTION6_GLOBALS)?;
    /// let fx = Effects::compute(&m);
    /// let p = m.proc_by_name("p").unwrap();
    /// assert!(fx.has_global_side_effects(p));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(module: &Module) -> Self {
        let n = module.procs.len();
        let mut per_proc = Vec::with_capacity(n);
        let mut callers: Vec<Vec<ProcId>> = vec![Vec::new(); n];
        let mut ref_args: Vec<Vec<RefArg>> = vec![Vec::new(); n];
        for info in &module.procs {
            let mut walk = BodyWalk {
                module,
                proc: info.id,
                fx: ProcEffects::default(),
                callers: &mut callers,
                ref_args: &mut ref_args,
                terminated: false,
            };
            for s in module.proc_body(info.id) {
                walk.stmt(s);
            }
            per_proc.push(walk.fx);
        }

        // Every summary starts queued; a summary that grows re-queues the
        // procedures whose summaries are built from it. A self-call adds
        // nothing, but its reference arguments still map parameter to
        // parameter, so those run for every callee.
        let mut queued = vec![true; n];
        let mut work: Vec<ProcId> = module.procs.iter().map(|p| p.id).collect();
        while let Some(callee) = work.pop() {
            let c = callee.0 as usize;
            queued[c] = false;
            let mut requeue = |p: ProcId, work: &mut Vec<ProcId>| {
                if !std::mem::replace(&mut queued[p.0 as usize], true) {
                    work.push(p);
                }
            };
            // `callers` lists no self-calls, so the callee's summary can be
            // lent out while its callers absorb it.
            let callee_fx = std::mem::take(&mut per_proc[c]);
            for &caller in &callers[c] {
                if per_proc[caller.0 as usize].absorb(module, caller, &callee_fx) {
                    requeue(caller, &mut work);
                }
            }
            per_proc[c] = callee_fx;
            for a in &ref_args[c] {
                let callee_fx = &per_proc[c];
                let writes = callee_fx.param_writes.contains(&a.param);
                let reads = callee_fx.param_reads.contains(&a.param);
                let caller_fx = &mut per_proc[a.caller.0 as usize];
                let mut changed = false;
                if writes {
                    changed |= caller_fx.note_write(module, a.caller, a.arg);
                }
                if reads {
                    changed |= caller_fx.note_read(module, a.caller, a.arg);
                }
                if changed {
                    requeue(a.caller, &mut work);
                }
            }
        }

        Effects { per_proc, ref_args }
    }
}

/// One pass over a procedure body, noting its direct effects, its calls
/// and their reference arguments.
struct BodyWalk<'a> {
    module: &'a Module,
    proc: ProcId,
    fx: ProcEffects,
    /// Per callee, its callers other than itself.
    callers: &'a mut [Vec<ProcId>],
    ref_args: &'a mut [Vec<RefArg>],
    /// The lowerer's flag of the same name: whether the current block
    /// already has a terminator (only a `goto` leaves it set).
    terminated: bool,
}

impl BodyWalk<'_> {
    /// The lowerer's `terminate`: whether the terminator is kept.
    fn terminate(&mut self) -> bool {
        !std::mem::replace(&mut self.terminated, true)
    }

    fn read(&mut self, v: VarId) {
        self.fx.note_read(self.module, self.proc, v);
    }

    fn write(&mut self, v: VarId) {
        self.fx.note_write(self.module, self.proc, v);
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Assign { lhs, rhs } => {
                self.lvalue(lhs);
                self.expr(rhs);
                self.terminated = false;
            }
            StmtKind::Call { args, .. } => {
                self.call(self.module.call_res[&s.id], args, false);
                self.terminated = false;
            }
            StmtKind::Compound(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.terminate() {
                    self.expr(cond);
                }
                self.terminated = false;
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.terminated = false;
                    self.stmt(e);
                }
                self.terminated = false;
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_arm,
            } => {
                // The arms branch on the scrutinee's temporary alone.
                self.expr(scrutinee);
                for arm in arms {
                    self.terminated = false;
                    self.stmt(&arm.stmt);
                }
                if let Some(e) = else_arm {
                    self.terminated = false;
                    self.stmt(e);
                }
                self.terminated = false;
            }
            StmtKind::While { cond, body } => {
                // The condition opens the loop header's own block.
                self.expr(cond);
                self.terminated = false;
                self.stmt(body);
                self.terminated = false;
            }
            StmtKind::Repeat { body, cond } => {
                self.terminated = false;
                for st in body {
                    self.stmt(st);
                }
                if self.terminate() {
                    self.expr(cond);
                }
                self.terminated = false;
            }
            StmtKind::For { from, to, body, .. } => {
                let ctrl = self.var(for_var_key(s.id));
                self.expr(from);
                self.expr(to);
                self.write(ctrl);
                self.read(ctrl);
                self.terminated = false;
                self.stmt(body);
                self.terminated = false;
            }
            StmtKind::Goto(_) => {
                let (owner, label) = &self.module.goto_res[&s.id];
                if self.terminate() && *owner != self.proc {
                    self.fx.exits.insert((*owner, label.clone()));
                }
            }
            StmtKind::Labeled { stmt, .. } => {
                self.terminated = false;
                self.stmt(stmt);
            }
            StmtKind::Read { args, .. } => {
                for lv in args {
                    self.lvalue(lv);
                    self.terminated = false;
                }
            }
            StmtKind::Write { args, .. } => {
                for a in args {
                    self.expr(a);
                }
                self.terminated = false;
            }
        }
    }

    /// The variable an lvalue-like expression id resolved to.
    fn var(&self, id: ExprId) -> VarId {
        match &self.module.res[&id] {
            NameRes::Var(v) => *v,
            other => unreachable!("place resolved to {other:?}"),
        }
    }

    /// An assignment or `read` target: written, its index read.
    fn lvalue(&mut self, lv: &LValue) {
        let v = self.var(lv.id);
        if let Some(ix) = &lv.index {
            self.expr(ix);
        }
        self.write(v);
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::RealLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit(_) => {}
            ExprKind::Name(_) => match &self.module.res[&e.id] {
                NameRes::Var(v) => self.read(*v),
                NameRes::Const(_) => {}
                NameRes::Proc(callee) => self.call(*callee, &[], true),
                NameRes::Intrinsic(_) => unreachable!("bare intrinsic name"),
            },
            ExprKind::Index { index, .. } => {
                let base = self.var(e.id);
                self.read(base);
                self.expr(index);
            }
            ExprKind::Call { args, .. } => match &self.module.res[&e.id] {
                NameRes::Proc(callee) => self.call(*callee, args, true),
                NameRes::Intrinsic(_) => self.expr(&args[0]),
                other => unreachable!("call resolved to {other:?}"),
            },
            ExprKind::Unary { operand, .. } => self.expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
        }
    }

    /// A call of `callee`; `in_expr` for a function call, whose
    /// reference arguments count as reads of their places.
    fn call(&mut self, callee: ProcId, args: &[Expr], in_expr: bool) {
        let module = self.module;
        // A procedure's calls are all noted during its own walk, so an
        // earlier call to the same callee is the list's last entry.
        let callers = &mut self.callers[callee.0 as usize];
        if callee != self.proc && callers.last() != Some(&self.proc) {
            callers.push(self.proc);
        }
        for (&param, arg) in module.proc(callee).params.iter().zip(args) {
            let mode = module.var(param).param_mode();
            if !mode.expect("callee param has a mode").is_reference() {
                self.expr(arg);
                continue;
            }
            let place = self.var(arg.id);
            if in_expr {
                self.read(place);
            }
            match &arg.kind {
                ExprKind::Name(_) => {}
                ExprKind::Index { index, .. } => self.expr(index),
                other => unreachable!("reference arg is not an lvalue: {other:?}"),
            }
            self.ref_args[callee.0 as usize].push(RefArg {
                caller: self.proc,
                param,
                arg: place,
            });
        }
    }
}

/// The defs and uses of one instruction *as seen by the caller*, with
/// interprocedural effects folded in via the summaries. Used by the static
/// slicer.
#[derive(Debug, Clone, Default)]
pub struct InstrEffects {
    /// Variables possibly defined.
    pub defs: Vec<VarId>,
    /// Whether the defs are a *strong* (killing) update of a single
    /// scalar variable.
    pub strong: bool,
    /// Variables used.
    pub uses: Vec<VarId>,
}

/// Computes caller-visible defs/uses of an instruction.
pub fn instr_effects(module: &Module, fx: &Effects, kind: &InstrKind) -> InstrEffects {
    let mut out = InstrEffects::default();
    match kind {
        InstrKind::Assign { lhs, rhs } => {
            rhs.collect_uses(&mut out.uses);
            collect_expr_call_effects(module, fx, rhs, &mut out);
            if let Some(ix) = &lhs.index {
                ix.collect_uses(&mut out.uses);
                collect_expr_call_effects(module, fx, ix, &mut out);
                out.defs.push(lhs.var);
                out.strong = false; // weak update of one element
            } else {
                out.defs.push(lhs.var);
                out.strong = true;
            }
        }
        InstrKind::Call { callee, args } => {
            call_effects(module, fx, *callee, args, &mut out);
        }
        InstrKind::Read { target } => {
            if let Some(ix) = &target.index {
                ix.collect_uses(&mut out.uses);
                collect_expr_call_effects(module, fx, ix, &mut out);
                out.defs.push(target.var);
                out.strong = false;
            } else {
                out.defs.push(target.var);
                out.strong = true;
            }
        }
        InstrKind::Write { args, .. } => {
            for a in args {
                a.collect_uses(&mut out.uses);
                collect_expr_call_effects(module, fx, a, &mut out);
            }
        }
    }
    out
}

/// Folds one call's interprocedural defs/uses into `out`.
fn call_effects(
    module: &Module,
    fx: &Effects,
    callee: ProcId,
    args: &[CallArg],
    out: &mut InstrEffects,
) {
    let summary = fx.of(callee);
    for (&param, a) in module.proc(callee).params.iter().zip(args) {
        match a {
            CallArg::Value(e) => {
                // Value args are always evaluated; count their uses.
                e.collect_uses(&mut out.uses);
                collect_expr_call_effects(module, fx, e, out);
            }
            CallArg::Ref(place) => {
                if let Some(ix) = &place.index {
                    ix.collect_uses(&mut out.uses);
                    collect_expr_call_effects(module, fx, ix, out);
                }
                if summary.param_writes.contains(&param) {
                    out.defs.push(place.var);
                }
                if summary.param_reads.contains(&param) {
                    out.uses.push(place.var);
                }
            }
        }
    }
    // Non-local effects visible at this call site.
    for v in &summary.mods {
        out.defs.push(*v);
    }
    for v in &summary.refs {
        out.uses.push(*v);
    }
    out.strong = false;
}

fn collect_expr_call_effects(module: &Module, fx: &Effects, e: &RExpr, out: &mut InstrEffects) {
    match e {
        RExpr::Call { callee, args } => {
            call_effects(module, fx, *callee, args, out);
        }
        RExpr::Index { index, .. } => collect_expr_call_effects(module, fx, index, out),
        RExpr::Intrinsic { arg, .. } => collect_expr_call_effects(module, fx, arg, out),
        RExpr::Unary { operand, .. } => collect_expr_call_effects(module, fx, operand, out),
        RExpr::Binary { lhs, rhs, .. } => {
            collect_expr_call_effects(module, fx, lhs, out);
            collect_expr_call_effects(module, fx, rhs, out);
        }
        RExpr::Lit(_) | RExpr::Var(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::{compile, MAIN_PROC};
    use gadt_pascal::testprogs;

    fn effects(src: &str) -> (Module, Effects) {
        let m = compile(src).expect("compile");
        let fx = Effects::compute(&m);
        (m, fx)
    }

    fn names(m: &Module, set: &BTreeSet<VarId>) -> Vec<String> {
        let mut v: Vec<String> = set.iter().map(|x| m.var(*x).name.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn section6_globals_mod_ref() {
        let (m, fx) = effects(testprogs::SECTION6_GLOBALS);
        let p = m.proc_by_name("p").unwrap();
        let e = fx.of(p);
        assert_eq!(names(&m, &e.refs), vec!["x"]);
        assert_eq!(names(&m, &e.mods), vec!["z"]);
        assert!(e.param_writes.len() == 1); // writes var param y
        assert!(fx.has_global_side_effects(p));
    }

    #[test]
    fn effects_propagate_through_calls() {
        let (m, fx) = effects(
            "program t; var g: integer;
             procedure inner; begin g := g + 1 end;
             procedure outer; begin inner end;
             begin outer end.",
        );
        let outer = m.proc_by_name("outer").unwrap();
        assert_eq!(names(&m, &fx.of(outer).mods), vec!["g"]);
        assert_eq!(names(&m, &fx.of(outer).refs), vec!["g"]);
    }

    #[test]
    fn propagation_stops_at_owner() {
        let (m, fx) = effects(
            "program t;
             procedure outer;
             var x: integer;
               procedure inner; begin x := 1 end;
             begin inner end;
             begin outer end.",
        );
        let outer = m.proc_by_name("outer").unwrap();
        let inner = m.proc_by_name("inner").unwrap();
        // x is non-local to inner but local to outer.
        assert_eq!(names(&m, &fx.of(inner).mods), vec!["x"]);
        assert!(fx.of(outer).mods.is_empty());
        assert!(!fx.has_global_side_effects(outer));
    }

    #[test]
    fn param_write_through_ref_chain() {
        let (m, fx) = effects(
            "program t; var g: integer;
             procedure bottom(var b: integer); begin b := 1 end;
             procedure middle(var a: integer); begin bottom(a) end;
             begin middle(g) end.",
        );
        let middle = m.proc_by_name("middle").unwrap();
        let bottom = m.proc_by_name("bottom").unwrap();
        assert_eq!(fx.of(bottom).param_writes.len(), 1);
        assert_eq!(fx.of(middle).param_writes.len(), 1);
        // g itself is written only via explicit parameters: not in MOD.
        assert!(fx.of(middle).mods.is_empty());
        assert!(fx.of(MAIN_PROC).mods.is_empty());
    }

    #[test]
    fn ref_arg_binding_a_global_is_a_mod() {
        let (m, fx) = effects(
            "program t; var g: integer;
             procedure w(var b: integer); begin b := 1 end;
             procedure caller; begin w(g) end;
             begin caller end.",
        );
        // caller passes global g by ref to w which writes it → caller MODs g.
        let caller = m.proc_by_name("caller").unwrap();
        assert_eq!(names(&m, &fx.of(caller).mods), vec!["g"]);
    }

    #[test]
    fn exit_effects_detected_and_propagate() {
        let (m, fx) = effects(testprogs::SECTION6_GOTO);
        let q = m.proc_by_name("q").unwrap();
        let p = m.proc_by_name("p").unwrap();
        assert_eq!(fx.of(q).exits.len(), 1);
        let (owner, label) = fx.of(q).exits.iter().next().unwrap();
        assert_eq!(*owner, p);
        assert_eq!(label, "9");
        // p owns the label: the exit effect does not escape p.
        assert!(fx.of(p).exits.is_empty());
    }

    #[test]
    fn recursive_effects_reach_fixpoint() {
        let (m, fx) = effects(
            "program t; var g: integer;
             procedure p(n: integer);
             begin if n > 0 then begin g := g + 1; p(n - 1) end end;
             begin p(3) end.",
        );
        let p = m.proc_by_name("p").unwrap();
        assert_eq!(names(&m, &fx.of(p).mods), vec!["g"]);
        assert!(fx.of(p).param_reads.len() == 1);
    }

    #[test]
    fn sqrtest_is_side_effect_free_at_procedure_level() {
        // Figure 4's program communicates exclusively through parameters:
        // no procedure needs transformation (main writes its own globals).
        let (m, fx) = effects(testprogs::SQRTEST);
        for p in &m.procs {
            if p.id == MAIN_PROC {
                continue;
            }
            assert!(
                !fx.has_global_side_effects(p.id),
                "{} unexpectedly has global side effects",
                p.name
            );
        }
    }

    #[test]
    fn instr_effects_for_call_include_summary() {
        let (m, fx) = effects(
            "program t; var g, x: integer;
             procedure p(a: integer; var b: integer); begin b := a + g end;
             begin p(1, x) end.",
        );
        let cfg = lower(&m);
        let main = cfg.proc(MAIN_PROC);
        let call = &main.blocks[0].instrs[0];
        let eff = instr_effects(&m, &fx, &call.kind);
        let x = m.var_in_scope(MAIN_PROC, "x").unwrap();
        let g = m.var_in_scope(MAIN_PROC, "g").unwrap();
        assert!(eff.defs.contains(&x));
        assert!(eff.uses.contains(&g));
        assert!(!eff.strong);
    }

    #[test]
    fn write_only_out_params_not_read() {
        let (m, fx) = effects(
            "program t; var x: integer;
             procedure p(out z: integer); begin z := 1 end;
             begin p(x) end.",
        );
        let p = m.proc_by_name("p").unwrap();
        assert!(fx.of(p).param_reads.is_empty());
        assert_eq!(fx.of(p).param_writes.len(), 1);
    }

    #[test]
    fn conditions_directly_after_a_goto_add_nothing() {
        for body in [
            "goto 9; if g > 0 then x := 1; 9: x := 2",
            "repeat x := 1; goto 9 until g > 0; 9: x := 2",
        ] {
            let (m, fx) = effects(&format!(
                "program t; var g, x: integer;
                 procedure p; label 9; begin {body} end;
                 begin p end."
            ));
            let e = fx.of(m.proc_by_name("p").unwrap());
            assert!(e.refs.is_empty(), "{body}: {:?}", names(&m, &e.refs));
            assert_eq!(names(&m, &e.mods), vec!["x"], "{body}");
        }
    }

    #[test]
    fn dead_statements_after_a_goto_still_count() {
        let (m, fx) = effects(
            "program t; var g, x: integer;
             procedure p; label 9; begin goto 9; x := g; 9: end;
             begin p end.",
        );
        let e = fx.of(m.proc_by_name("p").unwrap());
        assert_eq!(names(&m, &e.refs), vec!["g"]);
        assert_eq!(names(&m, &e.mods), vec!["x"]);
    }

    #[test]
    fn non_local_goto_directly_after_a_goto_adds_no_exit() {
        let (m, fx) = effects(
            "program t; var x: integer;
             procedure p;
             label 8, 9;
               procedure q; begin goto 8; goto 9 end;
             begin q; 8: x := 1; 9: x := 2 end;
             begin p end.",
        );
        let p = m.proc_by_name("p").unwrap();
        let q = m.proc_by_name("q").unwrap();
        assert_eq!(
            fx.of(q).exits.iter().collect::<Vec<_>>(),
            vec![&(p, Name::new("8"))]
        );
    }

    #[test]
    fn only_a_function_calls_reference_argument_is_a_read() {
        let (m, fx) = effects(
            "program t; var g, r: integer;
             procedure s(var b: integer); begin b := 1 end;
             function f(var b: integer): integer; begin b := 1; f := 0 end;
             procedure viastmt; begin s(g) end;
             procedure viaexpr; begin r := f(g) end;
             begin viastmt; viaexpr end.",
        );
        let viastmt = fx.of(m.proc_by_name("viastmt").unwrap());
        assert_eq!(names(&m, &viastmt.mods), vec!["g"]);
        assert!(viastmt.refs.is_empty());
        let viaexpr = fx.of(m.proc_by_name("viaexpr").unwrap());
        assert_eq!(names(&m, &viaexpr.mods), vec!["g", "r"]);
        assert_eq!(names(&m, &viaexpr.refs), vec!["g"]);
    }

    #[test]
    fn for_loop_over_a_global_modifies_and_reads_it() {
        let (m, fx) = effects(
            "program t; var i, s: integer;
             procedure p; begin for i := 1 to 3 do s := 0 end;
             begin p end.",
        );
        let e = fx.of(m.proc_by_name("p").unwrap());
        assert_eq!(names(&m, &e.mods), vec!["i", "s"]);
        assert_eq!(names(&m, &e.refs), vec!["i"]);
    }

    #[test]
    fn self_call_maps_reference_parameters_onto_each_other() {
        let (m, fx) = effects(
            "program t; var x, y: integer;
             procedure p(var a, b: integer; n: integer);
             begin if n > 0 then p(b, a, n - 1) else a := 1 end;
             begin p(x, y, 1) end.",
        );
        let e = fx.of(m.proc_by_name("p").unwrap());
        assert_eq!(names(&m, &e.param_writes), vec!["a", "b"]);
        assert_eq!(names(&m, &e.param_reads), vec!["n"]);
        let main = fx.of(MAIN_PROC);
        assert!(main.mods.is_empty() && main.refs.is_empty());
        let p = m.proc_by_name("p").unwrap();
        assert_eq!(fx.ref_args(p).len(), 4);
    }
}
