//! Phases B and C: goto restructuring.
//!
//! **Phase B** (§6, "Handling gotos inside a loop addressed outside the
//! loop"): a `while`/`repeat` body containing a goto that exits the loop
//! is rewritten with a `leave` flag — the loop condition tests the flag,
//! the goto becomes `leave := k; goto whilelab` (with `whilelab` at the
//! end of the body), and an `if leave = k then goto L` dispatch follows
//! the loop. This keeps loops well-structured debugging units.
//!
//! **Phase C** (§6, "Breaking global gotos into several structured local
//! gotos"): a procedure performing a non-local goto gets an `out
//! exitcond: integer` parameter; the goto becomes `exitcond := k; goto
//! exitlab` with `exitlab` at the end of the body, and every call site is
//! followed by `if exitcond = k then goto L`. If the label is owned
//! further out, the caller's new goto is itself non-local and a later
//! round transforms the caller — exactly the paper's cascading scheme.
//! The dispatch chain after a call tests the exit codes in ascending
//! order.
//!
//! Both phases return [`Rewrite::Unchanged`] when they have nothing to
//! rewrite: phase B when no loop contains a goto to a label outside it,
//! phase C when every goto is local. The pipeline iterates B and C until
//! both do.

use crate::mapping::{AddedParam, ExitInfo, Mapping, ParamOrigin};
use crate::pipeline::reanalyze;
use crate::Rewrite;
use gadt_pascal::ast::*;
use gadt_pascal::error::{Diagnostic, Result, Stage};
use gadt_pascal::sema::{Module, ProcId, MAIN_PROC};
use gadt_pascal::span::Span;
use std::collections::{BTreeMap, BTreeSet, HashMap};

struct IdGen {
    next_stmt: u32,
    next_expr: u32,
}

impl IdGen {
    fn stmt(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }
    fn expr(&mut self) -> ExprId {
        let id = ExprId(self.next_expr);
        self.next_expr += 1;
        id
    }
    fn name(&mut self, n: &str) -> Expr {
        Expr {
            id: self.expr(),
            kind: ExprKind::Name(Ident::synthetic(n)),
            span: Span::dummy(),
        }
    }
    fn int(&mut self, v: i64) -> Expr {
        Expr {
            id: self.expr(),
            kind: ExprKind::IntLit(v),
            span: Span::dummy(),
        }
    }
    fn assign(&mut self, name: &str, v: i64) -> Stmt {
        let rhs = self.int(v);
        let lv_id = self.expr();
        Stmt {
            id: self.stmt(),
            kind: StmtKind::Assign {
                lhs: LValue {
                    id: lv_id,
                    base: Ident::synthetic(name),
                    index: None,
                    span: Span::dummy(),
                },
                rhs,
            },
            span: Span::dummy(),
        }
    }
    fn eq_test(&mut self, name: &str, v: i64) -> Expr {
        let lhs = self.name(name);
        let rhs = self.int(v);
        Expr {
            id: self.expr(),
            kind: ExprKind::Binary {
                op: BinOp::Eq,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span: Span::dummy(),
        }
    }
    fn goto(&mut self, label: &str) -> Stmt {
        Stmt {
            id: self.stmt(),
            kind: StmtKind::Goto(Ident::synthetic(label)),
            span: Span::dummy(),
        }
    }
}

// ----------------------------------------------------------------------
// Phase B: gotos out of loops
// ----------------------------------------------------------------------

/// Rewrites `while`/`repeat` loops containing gotos that exit the loop.
/// Returns the module of its own program, rewritten in place and
/// re-analyzed, and its mapping additions, or [`Rewrite::Unchanged`]
/// when no loop contains such a goto. The rewrite reads nothing but the
/// program.
///
/// # Errors
/// The rewritten program fails re-analysis (a transformation bug).
pub fn break_loop_gotos(module: Module) -> Result<Rewrite> {
    if !has_loop_exit_goto(&module) {
        return Ok(Rewrite::Unchanged(module));
    }
    let mut program = module.program;
    let mut ids = IdGen {
        next_stmt: program.next_stmt_id,
        next_expr: program.next_expr_id,
    };
    let mut mapping = Mapping::default();

    // B/C rounds alternate to a fixpoint, and phase C's call-site
    // dispatch gotos can turn previously-clean loops into candidates for
    // a later B round. The synthetic-name counter must resume past the
    // names minted by earlier rounds, or a second round would declare
    // `whilelab_1` (and `leave_1`) twice in the same procedure.
    fn seed_counter(block: &Block, counter: &mut usize) {
        for l in &block.labels {
            if let Some(n) = l
                .key()
                .strip_prefix("whilelab_")
                .and_then(|s| s.parse::<usize>().ok())
            {
                *counter = (*counter).max(n);
            }
        }
        for v in &block.vars {
            for name in &v.names {
                if let Some(n) = name
                    .key()
                    .strip_prefix("leave_")
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    *counter = (*counter).max(n);
                }
            }
        }
        for p in &block.procs {
            seed_counter(&p.block, counter);
        }
    }
    let mut counter = 0usize;
    seed_counter(&program.block, &mut counter);

    // Per-procedure rewriting, collecting new declarations.
    fn do_block(block: &mut Block, ids: &mut IdGen, mapping: &mut Mapping, counter: &mut usize) {
        for p in &mut block.procs {
            do_block(&mut p.block, ids, mapping, counter);
        }
        let mut new_vars: Vec<String> = Vec::new();
        let mut new_labels: Vec<String> = Vec::new();
        let body = std::mem::take(&mut block.body);
        block.body = rewrite_seq(body, ids, mapping, counter, &mut new_vars, &mut new_labels);
        for v in new_vars {
            block.vars.push(VarDecl {
                names: vec![Ident::synthetic(v)],
                ty: TypeExpr::Named(Ident::synthetic("integer")),
                span: Span::dummy(),
            });
        }
        for l in new_labels {
            block.labels.push(Ident::synthetic(l));
        }
    }

    do_block(&mut program.block, &mut ids, &mut mapping, &mut counter);
    program.next_stmt_id = ids.next_stmt;
    program.next_expr_id = ids.next_expr;
    Ok(Rewrite::Rewritten(reanalyze(program)?, mapping))
}

/// Whether some `while`/`repeat` loop of the program contains a goto to a
/// label outside it: exactly when [`break_loop_gotos`] has work.
fn has_loop_exit_goto(module: &Module) -> bool {
    if module.goto_res.is_empty() {
        return false;
    }
    let mut found = false;
    let mut visit = |s: &Stmt| found = found || !loop_exits(s).is_empty();
    module.program.block.walk_stmts(&mut visit);
    module
        .program
        .walk_procs(&mut |_, p| p.block.walk_stmts(&mut visit));
    found
}

/// The labels outside a `while`/`repeat` loop that gotos inside it
/// target, in first-occurrence order (empty for other statements).
fn loop_exits(s: &Stmt) -> Vec<String> {
    let mut exits = Vec::new();
    let body: &[Stmt] = match &s.kind {
        StmtKind::While { body, .. } => std::slice::from_ref(body),
        StmtKind::Repeat { body, .. } => body,
        _ => return exits,
    };
    let mut defined = BTreeSet::new();
    labels_defined_in(s, &mut defined);
    for st in body {
        exiting_gotos(st, &defined, &mut exits);
    }
    exits
}

/// Labels defined (as labeled statements) inside a statement.
fn labels_defined_in(s: &Stmt, out: &mut BTreeSet<String>) {
    s.walk(&mut |st| {
        if let StmtKind::Labeled { label, .. } = &st.kind {
            out.insert(label.key());
        }
    });
}

/// Gotos inside `s` targeting labels outside `defined`.
fn exiting_gotos(s: &Stmt, defined: &BTreeSet<String>, out: &mut Vec<String>) {
    s.walk(&mut |st| {
        if let StmtKind::Goto(l) = &st.kind {
            if !defined.contains(&l.key()) && !out.contains(&l.key()) {
                out.push(l.key());
            }
        }
    });
}

fn rewrite_seq(
    stmts: Vec<Stmt>,
    ids: &mut IdGen,
    mapping: &mut Mapping,
    counter: &mut usize,
    new_vars: &mut Vec<String>,
    new_labels: &mut Vec<String>,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        rewrite_one(s, ids, mapping, counter, new_vars, new_labels, &mut out);
    }
    out
}

fn rewrite_one(
    mut s: Stmt,
    ids: &mut IdGen,
    mapping: &mut Mapping,
    counter: &mut usize,
    new_vars: &mut Vec<String>,
    new_labels: &mut Vec<String>,
    out: &mut Vec<Stmt>,
) {
    // First rewrite nested statements.
    match &mut s.kind {
        StmtKind::Compound(inner) => {
            let taken = std::mem::take(inner);
            *inner = rewrite_seq(taken, ids, mapping, counter, new_vars, new_labels);
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            **then_branch = nest_one(
                std::mem::replace(then_branch.as_mut(), empty_stmt(ids)),
                ids,
                mapping,
                counter,
                new_vars,
                new_labels,
            );
            if let Some(e) = else_branch {
                **e = nest_one(
                    std::mem::replace(e.as_mut(), empty_stmt(ids)),
                    ids,
                    mapping,
                    counter,
                    new_vars,
                    new_labels,
                );
            }
        }
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
            **body = nest_one(
                std::mem::replace(body.as_mut(), empty_stmt(ids)),
                ids,
                mapping,
                counter,
                new_vars,
                new_labels,
            );
        }
        StmtKind::Repeat { body, .. } => {
            let taken = std::mem::take(body);
            *body = rewrite_seq(taken, ids, mapping, counter, new_vars, new_labels);
        }
        StmtKind::Labeled { stmt, .. } => {
            **stmt = nest_one(
                std::mem::replace(stmt.as_mut(), empty_stmt(ids)),
                ids,
                mapping,
                counter,
                new_vars,
                new_labels,
            );
        }
        StmtKind::Case { arms, else_arm, .. } => {
            for a in arms {
                let taken = std::mem::replace(&mut a.stmt, empty_stmt(ids));
                a.stmt = nest_one(taken, ids, mapping, counter, new_vars, new_labels);
            }
            if let Some(e) = else_arm {
                **e = nest_one(
                    std::mem::replace(e.as_mut(), empty_stmt(ids)),
                    ids,
                    mapping,
                    counter,
                    new_vars,
                    new_labels,
                );
            }
        }
        _ => {}
    }

    // Then handle this loop if it contains exiting gotos.
    let exits = loop_exits(&s);
    if exits.is_empty() {
        out.push(s);
        return;
    }
    *counter += 1;
    let n = *counter;
    let leave = format!("leave_{n}");
    let whilelab = format!("whilelab_{n}");
    new_vars.push(leave.clone());
    new_labels.push(whilelab.clone());

    // leave := 0 before the loop.
    let init = ids.assign(&leave, 0);
    mapping.add_synthetic(init.id, format!("leave flag init for loop {n}"));
    out.push(init);

    // Rewrite the loop itself.
    match &mut s.kind {
        StmtKind::While { cond, body } => {
            let old_cond = std::mem::replace(cond, ids.int(0));
            let test = ids.eq_test(&leave, 0);
            let cid = ids.expr();
            *cond = Expr {
                id: cid,
                kind: ExprKind::Binary {
                    op: BinOp::And,
                    lhs: Box::new(old_cond),
                    rhs: Box::new(test),
                },
                span: Span::dummy(),
            };
            let old_body = std::mem::replace(body.as_mut(), empty_stmt(ids));
            let rewritten = replace_exit_gotos(old_body, &exits, &leave, &whilelab, ids, mapping);
            let lab_stmt = labeled_empty(&whilelab, ids);
            let cmp_id = ids.stmt();
            mapping.add_synthetic(cmp_id, format!("loop {n} body wrapper"));
            **body = Stmt {
                id: cmp_id,
                kind: StmtKind::Compound(vec![rewritten, lab_stmt]),
                span: Span::dummy(),
            };
        }
        StmtKind::Repeat { cond, body } => {
            let old_cond = std::mem::replace(cond, ids.int(0));
            // repeat … until cond or (leave <> 0)
            let lhs_leave = ids.name(&leave);
            let zero = ids.int(0);
            let ne_id = ids.expr();
            let ne = Expr {
                id: ne_id,
                kind: ExprKind::Binary {
                    op: BinOp::Ne,
                    lhs: Box::new(lhs_leave),
                    rhs: Box::new(zero),
                },
                span: Span::dummy(),
            };
            let cid = ids.expr();
            *cond = Expr {
                id: cid,
                kind: ExprKind::Binary {
                    op: BinOp::Or,
                    lhs: Box::new(old_cond),
                    rhs: Box::new(ne),
                },
                span: Span::dummy(),
            };
            let taken = std::mem::take(body);
            let mut rewritten: Vec<Stmt> = taken
                .into_iter()
                .map(|st| replace_exit_gotos(st, &exits, &leave, &whilelab, ids, mapping))
                .collect();
            rewritten.push(labeled_empty(&whilelab, ids));
            *body = rewritten;
        }
        _ => unreachable!(),
    }
    out.push(s);

    // Dispatch after the loop.
    for (j, label) in exits.iter().enumerate() {
        let test = ids.eq_test(&leave, j as i64 + 1);
        let g = ids.goto(label);
        let if_id = ids.stmt();
        mapping.add_synthetic(if_id, format!("loop {n} exit dispatch to {label}"));
        out.push(Stmt {
            id: if_id,
            kind: StmtKind::If {
                cond: test,
                then_branch: Box::new(g),
                else_branch: None,
            },
            span: Span::dummy(),
        });
    }
}

/// Rewrites a single nested statement position (possibly expanding into a
/// compound).
fn nest_one(
    s: Stmt,
    ids: &mut IdGen,
    mapping: &mut Mapping,
    counter: &mut usize,
    new_vars: &mut Vec<String>,
    new_labels: &mut Vec<String>,
) -> Stmt {
    let mut out = Vec::new();
    rewrite_one(s, ids, mapping, counter, new_vars, new_labels, &mut out);
    if out.len() == 1 {
        out.pop().expect("one statement")
    } else {
        let id = ids.stmt();
        Stmt {
            id,
            kind: StmtKind::Compound(out),
            span: Span::dummy(),
        }
    }
}

fn empty_stmt(ids: &mut IdGen) -> Stmt {
    Stmt {
        id: ids.stmt(),
        kind: StmtKind::Empty,
        span: Span::dummy(),
    }
}

fn labeled_empty(label: &str, ids: &mut IdGen) -> Stmt {
    let inner = empty_stmt(ids);
    Stmt {
        id: ids.stmt(),
        kind: StmtKind::Labeled {
            label: Ident::synthetic(label),
            stmt: Box::new(inner),
        },
        span: Span::dummy(),
    }
}

/// Replaces `goto L_j` (for exiting labels) with
/// `begin leave := j; goto whilelab end` throughout a statement.
fn replace_exit_gotos(
    mut s: Stmt,
    exits: &[String],
    leave: &str,
    whilelab: &str,
    ids: &mut IdGen,
    mapping: &mut Mapping,
) -> Stmt {
    fn rec(
        s: &mut Stmt,
        exits: &[String],
        leave: &str,
        whilelab: &str,
        ids: &mut IdGen,
        mapping: &mut Mapping,
    ) {
        let replacement = if let StmtKind::Goto(l) = &s.kind {
            exits.iter().position(|e| *e == l.key())
        } else {
            None
        };
        if let Some(j) = replacement {
            let set = ids.assign(leave, j as i64 + 1);
            mapping.add_synthetic(set.id, format!("leave := {} for goto", j + 1));
            let g = ids.goto(whilelab);
            let id = ids.stmt();
            mapping.add_synthetic(id, "goto-out-of-loop replacement".to_string());
            *s = Stmt {
                id,
                kind: StmtKind::Compound(vec![set, g]),
                span: s.span,
            };
            return;
        }
        match &mut s.kind {
            StmtKind::Compound(stmts) | StmtKind::Repeat { body: stmts, .. } => {
                for st in stmts {
                    rec(st, exits, leave, whilelab, ids, mapping);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                rec(then_branch, exits, leave, whilelab, ids, mapping);
                if let Some(e) = else_branch {
                    rec(e, exits, leave, whilelab, ids, mapping);
                }
            }
            // Inner while/for loops: their own exiting gotos were already
            // handled (innermost-first), so any remaining exiting goto
            // belongs to this loop level.
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                rec(body, exits, leave, whilelab, ids, mapping);
            }
            StmtKind::Labeled { stmt, .. } => rec(stmt, exits, leave, whilelab, ids, mapping),
            StmtKind::Case { arms, else_arm, .. } => {
                for a in arms {
                    rec(&mut a.stmt, exits, leave, whilelab, ids, mapping);
                }
                if let Some(e) = else_arm {
                    rec(e, exits, leave, whilelab, ids, mapping);
                }
            }
            _ => {}
        }
    }
    rec(&mut s, exits, leave, whilelab, ids, mapping);
    s
}

// ----------------------------------------------------------------------
// Phase C: global gotos → exit parameters
// ----------------------------------------------------------------------

/// Breaks non-local gotos into exit-condition parameters plus local gotos
/// at the call sites (one cascading round; iterate until it returns
/// [`Rewrite::Unchanged`]). Returns the module of its own program,
/// rewritten in place and re-analyzed, and its mapping additions, or the
/// module unchanged when every goto is local; that check comes before
/// the label table is built.
///
/// # Errors
/// * a function performing a non-local goto is called inside an
///   expression (no statement position for the dispatch);
/// * a caller declares a label that captures the target's name;
/// * the rewritten program fails re-analysis (a transformation bug).
pub fn break_global_gotos(mut module: Module) -> Result<Rewrite> {
    if module
        .goto_res
        .iter()
        .all(|(stmt, (owner, _))| module.proc_of_stmt[stmt] == *owner)
    {
        return Ok(Rewrite::Unchanged(module));
    }
    // Globally stable label codes: every user-visible label of the program
    // gets a fixed integer, so cascading rounds (recursion, mutual
    // recursion) assign the same exit-condition value to the same label
    // and already-generated plumbing can be reused verbatim.
    let paths = crate::globals::proc_paths(&module);
    let mut all_labels: Vec<(String, ProcId, String)> = Vec::new();
    for (proc, labels) in &module.labels_of_proc {
        for l in labels {
            if l.starts_with("exitlab_") || l.starts_with("whilelab_") {
                continue;
            }
            all_labels.push((paths[proc].clone(), *proc, l.clone()));
        }
    }
    all_labels.sort();
    let label_code = |owner: ProcId, label: &str| -> i64 {
        all_labels
            .iter()
            .position(|(_, p, l)| *p == owner && l == label)
            .map(|i| i as i64 + 1)
            .unwrap_or(0)
    };

    // Procedures with *direct* non-local gotos this round; targets carry
    // their stable codes.
    let mut targets_of: BTreeMap<ProcId, Vec<(ProcId, String, i64)>> = BTreeMap::new();
    let mut goto_stmts: BTreeMap<StmtId, (ProcId, i64)> = BTreeMap::new();
    for (stmt, (owner, label)) in &module.goto_res {
        let q = module.proc_of_stmt[stmt];
        if *owner == q {
            continue;
        }
        let code = label_code(*owner, label);
        let list = targets_of.entry(q).or_default();
        if !list.iter().any(|(o, l, _)| o == owner && l == label) {
            list.push((*owner, label.clone(), code));
        }
        goto_stmts.insert(*stmt, (q, code));
    }
    // `goto_res` iterates in hash order; the call-site dispatch chain
    // follows each list, so put it in exit-code order.
    for list in targets_of.values_mut() {
        list.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.cmp(b)));
    }

    // Reject functions with exits used inside expressions: every
    // resolution to a proc in an expression is such a call. Report the
    // first in id order.
    let called_in_expr = module
        .res
        .iter()
        .filter_map(|(eid, res)| match res {
            gadt_pascal::sema::NameRes::Proc(p)
                if targets_of.contains_key(p) && module.proc(*p).is_function() =>
            {
                Some((*eid, *p))
            }
            _ => None,
        })
        .min();
    if let Some((_, p)) = called_in_expr {
        return Err(Diagnostic::new(
            Stage::Sema,
            format!(
                "function `{}` performs a non-local goto and is called inside an expression; \
                 the exit-parameter transformation requires statement-position calls",
                module.proc(p).name
            ),
            Span::dummy(),
        ));
    }

    let mut mapping = Mapping::default();
    let mut ids = IdGen {
        next_stmt: module.program.next_stmt_id,
        next_expr: module.program.next_expr_id,
    };

    // Choose exit parameter / label names per transformed proc.
    let mut exit_param: HashMap<ProcId, String> = HashMap::new();
    let mut exit_label: HashMap<ProcId, String> = HashMap::new();
    for &q in targets_of.keys() {
        let qn = module.proc(q).name.to_ascii_lowercase();
        exit_param.insert(q, format!("exitcond_{qn}"));
        exit_label.insert(q, format!("exitlab_{qn}"));
        mapping.add_param(
            &paths[&q],
            AddedParam {
                name: format!("exitcond_{qn}"),
                origin: ParamOrigin::ExitCondition,
            },
        );
        mapping.exit_info.insert(
            paths[&q].clone(),
            ExitInfo {
                param_name: format!("exitcond_{qn}"),
                targets: targets_of[&q]
                    .iter()
                    .map(|(o, l, code)| (*code, (paths[o].clone(), l.clone())))
                    .collect(),
            },
        );
    }

    // Callers needing a receiving variable, per (caller, callee). Calls
    // are visited in id order, so the first capture error reported does
    // not depend on hash order.
    let mut calls: Vec<(StmtId, ProcId)> = module
        .call_res
        .iter()
        .filter(|(_, callee)| targets_of.contains_key(callee))
        .map(|(stmt, callee)| (*stmt, *callee))
        .collect();
    calls.sort_unstable();
    let mut caller_vars: BTreeMap<(ProcId, ProcId), String> = BTreeMap::new();
    for (stmt, callee) in &calls {
        let caller = module.proc_of_stmt[stmt];
        let cn = module.proc(*callee).name.to_ascii_lowercase();
        caller_vars
            .entry((caller, *callee))
            .or_insert_with(|| format!("ec_{cn}"));
        // Label capture check: the dispatch `goto L` in the caller
        // must resolve to the original owner.
        for (owner, label, _) in &targets_of[callee] {
            let mut cur = Some(caller);
            while let Some(p) = cur {
                if p == *owner {
                    break;
                }
                if module
                    .labels_of_proc
                    .get(&p)
                    .is_some_and(|ls| ls.contains(label))
                {
                    return Err(Diagnostic::new(
                        Stage::Sema,
                        format!(
                            "label `{label}` of `{}` is captured by an inner declaration in `{}`",
                            module.proc(*owner).name,
                            module.proc(p).name
                        ),
                        Span::dummy(),
                    ));
                }
                cur = module.proc(p).parent;
            }
        }
    }

    // Rewrite.
    struct Cx<'a> {
        module: &'a Module,
        declared: &'a [Vec<ProcId>],
        targets_of: &'a BTreeMap<ProcId, Vec<(ProcId, String, i64)>>,
        goto_stmts: &'a BTreeMap<StmtId, (ProcId, i64)>,
        exit_param: &'a HashMap<ProcId, String>,
        exit_label: &'a HashMap<ProcId, String>,
        caller_vars: &'a BTreeMap<(ProcId, ProcId), String>,
    }

    fn do_block(
        cx: &Cx<'_>,
        block: &mut Block,
        owner: ProcId,
        ids: &mut IdGen,
        mapping: &mut Mapping,
    ) {
        for (i, decl) in block.procs.iter_mut().enumerate() {
            let pid = cx.declared[owner.0 as usize][i];
            do_block(cx, &mut decl.block, pid, ids, mapping);
            if let Some(param) = cx.exit_param.get(&pid) {
                // Reuse plumbing installed by an earlier cascading round
                // (recursive/mutually-recursive procedures).
                let already = decl
                    .params
                    .iter()
                    .any(|g| g.names.iter().any(|n| n.name.eq_ignore_ascii_case(param)));
                if !already {
                    decl.params.push(ParamGroup {
                        mode: ParamMode::Out,
                        names: vec![Ident::synthetic(param.clone())],
                        ty: TypeExpr::Named(Ident::synthetic("integer")),
                        span: Span::dummy(),
                    });
                    let lab = &cx.exit_label[&pid];
                    decl.block.labels.push(Ident::synthetic(lab.clone()));
                    let init = ids.assign(param, 0);
                    mapping.add_synthetic(init.id, format!("{param} := 0 at entry"));
                    decl.block.body.insert(0, init);
                    let lab_stmt = labeled_empty(lab, ids);
                    mapping.add_synthetic(lab_stmt.id, format!("exit label of {}", decl.name));
                    decl.block.body.push(lab_stmt);
                }
            }
        }
        // Receiving variables for calls made from this procedure (reused
        // when an earlier round already declared them).
        for ((caller, _), name) in cx.caller_vars.iter() {
            if *caller == owner {
                let exists = block
                    .vars
                    .iter()
                    .any(|g| g.names.iter().any(|n| n.name.eq_ignore_ascii_case(name)));
                if !exists {
                    block.vars.push(VarDecl {
                        names: vec![Ident::synthetic(name.clone())],
                        ty: TypeExpr::Named(Ident::synthetic("integer")),
                        span: Span::dummy(),
                    });
                }
            }
        }
        let body = std::mem::take(&mut block.body);
        block.body = body
            .into_iter()
            .map(|s| rewrite(cx, s, owner, ids, mapping))
            .collect();
    }

    fn rewrite(
        cx: &Cx<'_>,
        mut s: Stmt,
        owner: ProcId,
        ids: &mut IdGen,
        mapping: &mut Mapping,
    ) -> Stmt {
        // A non-local goto inside a transformed procedure.
        if let Some((q, code)) = cx.goto_stmts.get(&s.id) {
            let param = &cx.exit_param[q];
            let set = ids.assign(param, *code);
            mapping.add_synthetic(set.id, format!("{param} := {code}"));
            let g = ids.goto(&cx.exit_label[q]);
            mapping.add_synthetic(g.id, "local goto to exit label".to_string());
            let id = ids.stmt();
            mapping.add_synthetic(id, "global-goto replacement".to_string());
            return Stmt {
                id,
                kind: StmtKind::Compound(vec![set, g]),
                span: s.span,
            };
        }
        // A call to a transformed procedure.
        if let StmtKind::Call { args, .. } = &mut s.kind {
            if let Some(callee) = cx.module.call_res.get(&s.id) {
                if let Some(targets) = cx.targets_of.get(callee) {
                    let ec = cx.caller_vars[&(owner, *callee)].clone();
                    // Already wrapped by an earlier round? Then the exit
                    // argument is present and the dispatch chain follows
                    // the call — leave it untouched.
                    let already = matches!(
                        args.last().map(|a| &a.kind),
                        Some(ExprKind::Name(n)) if n.name.eq_ignore_ascii_case(&ec)
                    );
                    if already {
                        return s;
                    }
                    args.push(Expr {
                        id: ids.expr(),
                        kind: ExprKind::Name(Ident::synthetic(ec.clone())),
                        span: Span::dummy(),
                    });
                    let mut seq = vec![s];
                    for (towner, label, code) in targets.iter() {
                        // Local dispatch: the label name resolves lexically
                        // to `towner`'s declaration (capture was rejected).
                        let _ = towner;
                        let test = ids.eq_test(&ec, *code);
                        let g = ids.goto(label);
                        let if_id = ids.stmt();
                        mapping.add_synthetic(if_id, format!("exit dispatch to {label}"));
                        seq.push(Stmt {
                            id: if_id,
                            kind: StmtKind::If {
                                cond: test,
                                then_branch: Box::new(g),
                                else_branch: None,
                            },
                            span: Span::dummy(),
                        });
                    }
                    let id = ids.stmt();
                    mapping.add_synthetic(id, "call + exit dispatch".to_string());
                    return Stmt {
                        id,
                        kind: StmtKind::Compound(seq),
                        span: Span::dummy(),
                    };
                }
            }
            return s;
        }
        // Recurse structurally.
        match &mut s.kind {
            StmtKind::Compound(stmts) | StmtKind::Repeat { body: stmts, .. } => {
                let taken = std::mem::take(stmts);
                *stmts = taken
                    .into_iter()
                    .map(|st| rewrite(cx, st, owner, ids, mapping))
                    .collect();
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let t = std::mem::replace(then_branch.as_mut(), empty_stmt(ids));
                **then_branch = rewrite(cx, t, owner, ids, mapping);
                if let Some(e) = else_branch {
                    let t = std::mem::replace(e.as_mut(), empty_stmt(ids));
                    **e = rewrite(cx, t, owner, ids, mapping);
                }
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                let t = std::mem::replace(body.as_mut(), empty_stmt(ids));
                **body = rewrite(cx, t, owner, ids, mapping);
            }
            StmtKind::Labeled { stmt, .. } => {
                let t = std::mem::replace(stmt.as_mut(), empty_stmt(ids));
                **stmt = rewrite(cx, t, owner, ids, mapping);
            }
            StmtKind::Case { arms, else_arm, .. } => {
                for a in arms {
                    let t = std::mem::replace(&mut a.stmt, empty_stmt(ids));
                    a.stmt = rewrite(cx, t, owner, ids, mapping);
                }
                if let Some(e) = else_arm {
                    let t = std::mem::replace(e.as_mut(), empty_stmt(ids));
                    **e = rewrite(cx, t, owner, ids, mapping);
                }
            }
            _ => {}
        }
        s
    }

    // The block leaves the module, whose tables the walk reads.
    let mut block = std::mem::take(&mut module.program.block);
    let cx = Cx {
        module: &module,
        declared: &crate::globals::declared_procs(&module),
        targets_of: &targets_of,
        goto_stmts: &goto_stmts,
        exit_param: &exit_param,
        exit_label: &exit_label,
        caller_vars: &caller_vars,
    };
    do_block(&cx, &mut block, MAIN_PROC, &mut ids, &mut mapping);
    let mut program = module.program;
    program.block = block;
    program.next_stmt_id = ids.next_stmt;
    program.next_expr_id = ids.next_expr;
    Ok(Rewrite::Rewritten(reanalyze(program)?, mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::interp::Interpreter;
    use gadt_pascal::pretty::print_program;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    fn run_output(m: &Module) -> String {
        Interpreter::new(m)
            .run()
            .expect("runs")
            .output_text()
            .to_string()
    }

    #[test]
    fn loop_goto_rewrite_matches_paper_scheme() {
        let m = compile(testprogs::SECTION6_LOOP_GOTO).unwrap();
        let (tm, mapping) = break_loop_gotos(m.clone()).unwrap().expect_rewritten();
        let printed = print_program(&tm.program);
        assert!(printed.contains("leave_1"), "{printed}");
        assert!(printed.contains("whilelab_1"), "{printed}");
        assert!(
            printed.contains("while (i < 10) and (leave_1 = 0) do"),
            "{printed}"
        );
        assert!(printed.contains("if leave_1 = 1 then"), "{printed}");
        assert!(!mapping.synthetic_stmts.is_empty());
        // Semantics preserved.
        assert_eq!(run_output(&m), run_output(&tm));
    }

    #[test]
    fn loop_without_exit_gotos_untouched() {
        let m = compile(
            "program t; var i, s: integer;
             begin i := 0; while i < 3 do begin s := s + i; i := i + 1 end end.",
        )
        .unwrap();
        assert!(break_loop_gotos(m).unwrap().is_unchanged());
    }

    #[test]
    fn internal_goto_in_loop_untouched() {
        let m = compile(
            "program t; label 5; var i: integer;
             begin
               i := 0;
               while i < 3 do begin
                 i := i + 1;
                 if odd(i) then goto 5;
                 i := i + 10;
                 5: i := i + 0
               end
             end.",
        )
        .unwrap();
        assert!(
            break_loop_gotos(m).unwrap().is_unchanged(),
            "goto targeting a label inside the loop is internal"
        );
    }

    #[test]
    fn repeat_with_exit_goto() {
        let src = "program t; label 9; var i, s: integer;
             begin
               i := 0; s := 0;
               repeat
                 i := i + 1; s := s + i;
                 if s > 4 then goto 9
               until i = 10;
               s := -1;
               9: writeln(s)
             end.";
        let m = compile(src).unwrap();
        let (tm, _) = break_loop_gotos(m.clone()).unwrap().expect_rewritten();
        assert_eq!(run_output(&m), run_output(&tm));
    }

    #[test]
    fn global_goto_gets_exit_parameter() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let (tm, mapping) = break_global_gotos(m.clone()).unwrap().expect_rewritten();
        let printed = print_program(&tm.program);
        assert!(printed.contains("out exitcond_q: integer"), "{printed}");
        assert!(printed.contains("exitcond_q := 0"), "{printed}");
        assert!(printed.contains("exitcond_q := 1"), "{printed}");
        assert!(printed.contains("goto exitlab_q"), "{printed}");
        assert!(printed.contains("q(n, ec_q)"), "{printed}");
        assert!(printed.contains("if ec_q = 1 then"), "{printed}");
        assert!(
            mapping.exit_info.contains_key("p/q"),
            "{:?}",
            mapping.exit_info
        );
        assert_eq!(run_output(&m), run_output(&tm));
    }

    #[test]
    fn no_global_gotos_means_no_change() {
        let m = compile(testprogs::SQRTEST).unwrap();
        assert!(break_global_gotos(m).unwrap().is_unchanged());
    }

    #[test]
    fn local_gotos_leave_both_phases_nothing_to_do() {
        // A goto that leaves a loop is phase B's work but not phase C's.
        let m = compile(testprogs::SECTION6_LOOP_GOTO).unwrap();
        assert!(!m.goto_res.is_empty());
        assert!(break_global_gotos(m).unwrap().is_unchanged());
        // A local goto outside any loop is neither phase's work.
        let m = compile(
            "program t; label 9; var x: integer;
             procedure p(n: integer);
             label 5;
             begin
               if n > 0 then goto 5;
               x := n;
               5: x := x + 1
             end;
             begin
               x := 0; p(1);
               while x < 3 do x := x + 1;
               if x > 2 then goto 9;
               x := 10;
               9: writeln(x)
             end.",
        )
        .unwrap();
        assert_eq!(m.goto_res.len(), 2);
        let Rewrite::Unchanged(m) = break_loop_gotos(m).unwrap() else {
            panic!("phase B has nothing to rewrite");
        };
        assert!(break_global_gotos(m).unwrap().is_unchanged());
    }

    #[test]
    fn recursive_proc_with_nonlocal_goto() {
        // A recursive procedure whose non-local goto cascades through its
        // own call sites: the second round must *reuse* the exit plumbing
        // (same exit parameter, same stable exit code) instead of adding
        // duplicates.
        let src = "program t; var trace: integer;
             procedure p;
             label 9;
               procedure q(n: integer);
               begin
                 trace := trace + 1;
                 if trace > 3 then goto 9;
                 if n > 0 then q(n - 1);
                 trace := trace + 10;
               end;
             begin q(5); trace := trace + 100; 9: trace := trace + 1000; end;
             begin trace := 0; p; writeln(trace) end.";
        let m = compile(src).unwrap();
        let t = crate::pipeline::transform(&m).unwrap();
        assert_eq!(run_output(&m), run_output(&t.module));
        // Exactly one exit parameter on q.
        let q = t.module.proc_by_name("q").unwrap();
        let exit_params = t
            .module
            .proc(q)
            .params
            .iter()
            .filter(|p| t.module.var(**p).name.starts_with("exitcond"))
            .count();
        assert_eq!(exit_params, 1);
    }

    #[test]
    fn mutually_recursive_procs_with_nonlocal_gotos() {
        // The language has no `forward` declarations, so mutual recursion
        // goes through the scope rules: a nested procedure calls its
        // enclosing procedure, and both sit inside the goto's target.
        let src = "program t; var trace: integer;
             procedure p;
             label 9;
               procedure outerq(n: integer);
                 procedure innerq(k: integer);
                 begin
                   trace := trace + 1;
                   if trace > 4 then goto 9;
                   if k > 0 then outerq(k - 1);
                 end;
               begin
                 innerq(n);
                 trace := trace + 10;
               end;
             begin outerq(3); 9: trace := trace + 1000; end;
             begin trace := 0; p; writeln(trace) end.";
        let m = compile(src).unwrap();
        let t = crate::pipeline::transform(&m).unwrap();
        assert_eq!(run_output(&m), run_output(&t.module));
    }

    #[test]
    fn call_site_dispatch_follows_exit_codes() {
        // q jumps to three labels of p, so the call site gets a chain of
        // three dispatch tests. Sema's tables iterate in hash order; the
        // chain must not: every run prints one program, tests in code
        // order.
        let src = "program t; var trace: integer;
             procedure p(n: integer);
             label 1, 2, 3;
               procedure q(k: integer);
               begin
                 trace := trace + 1;
                 if k = 3 then goto 3;
                 if k = 1 then goto 1;
                 if k = 2 then goto 2;
               end;
             begin
               q(n);
               trace := trace + 10;
               1: trace := trace + 100;
               2: trace := trace + 1000;
               3: trace := trace + 10000;
             end;
             begin trace := 0; p(2); writeln(trace) end.";
        let mut printed = BTreeSet::new();
        for _ in 0..50 {
            let m = compile(src).unwrap();
            let t = crate::pipeline::transform(&m).unwrap();
            assert_eq!(run_output(&m), run_output(&t.module));
            printed.insert(print_program(&t.module.program));
        }
        assert_eq!(printed.len(), 1, "{printed:#?}");
        let program = printed.pop_first().unwrap();
        let at = |code: i64| {
            program
                .find(&format!("if ec_q = {code} then"))
                .unwrap_or_else(|| panic!("no dispatch for {code}:\n{program}"))
        };
        assert!(at(1) < at(2) && at(2) < at(3), "{program}");
    }

    #[test]
    fn two_level_global_goto_cascades() {
        // r (inside q inside p) jumps to p's label: after one round q's
        // caller dispatch contains a goto that is *still* non-local in q,
        // so a second round transforms q as well.
        let src = "program t; var trace: integer;
             procedure p;
             label 9;
               procedure q;
                 procedure r;
                 begin
                   trace := trace + 1;
                   goto 9;
                 end;
               begin
                 r;
                 trace := trace + 10;
               end;
             begin
               q;
               trace := trace + 100;
               9: trace := trace + 1000;
             end;
             begin trace := 0; p; writeln(trace) end.";
        let m = compile(src).unwrap();
        let mut cur = m.clone();
        let mut rounds = 0;
        let tm = loop {
            cur = match break_global_gotos(cur).unwrap() {
                Rewrite::Unchanged(done) => break done,
                Rewrite::Rewritten(next, _) => next,
            };
            rounds += 1;
            assert!(rounds < 6, "cascade must terminate");
        };
        assert_eq!(rounds, 2, "two cascading rounds expected");
        assert_eq!(run_output(&m), run_output(&tm));
    }
}
