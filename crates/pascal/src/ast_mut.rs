//! Mutable AST visitors and structural normalization.
//!
//! The immutable walkers in [`crate::ast`] serve the analyses; this
//! module adds their mutating counterparts, which the fault-injection
//! engine (`gadt-mutate`) uses to plant bugs into parsed programs, plus
//! id renumbering in the parser's order, [`reshape`] (the AST the parser
//! reads back from a program's printed text, computed without printing)
//! and a normal form for AST comparison "modulo spans".

use crate::ast::*;
use crate::span::Span;

/// Visits `stmt` and every statement nested inside it, pre-order.
///
/// The callback runs *before* the children are visited, so a callback
/// that rewrites `stmt.kind` (e.g. replacing an assignment with a
/// compound) will have the replacement's children visited too.
pub fn walk_stmt_mut(stmt: &mut Stmt, visit: &mut dyn FnMut(&mut Stmt)) {
    visit(stmt);
    match &mut stmt.kind {
        StmtKind::Compound(stmts) | StmtKind::Repeat { body: stmts, .. } => {
            for s in stmts {
                walk_stmt_mut(s, visit);
            }
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_stmt_mut(then_branch, visit);
            if let Some(e) = else_branch {
                walk_stmt_mut(e, visit);
            }
        }
        StmtKind::Case { arms, else_arm, .. } => {
            for a in arms {
                walk_stmt_mut(&mut a.stmt, visit);
            }
            if let Some(e) = else_arm {
                walk_stmt_mut(e, visit);
            }
        }
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk_stmt_mut(body, visit),
        StmtKind::Labeled { stmt, .. } => walk_stmt_mut(stmt, visit),
        StmtKind::Empty
        | StmtKind::Assign { .. }
        | StmtKind::Call { .. }
        | StmtKind::Goto(_)
        | StmtKind::Read { .. }
        | StmtKind::Write { .. } => {}
    }
}

/// Visits `expr` and every expression nested inside it, pre-order.
pub fn walk_expr_mut(expr: &mut Expr, visit: &mut dyn FnMut(&mut Expr)) {
    visit(expr);
    match &mut expr.kind {
        ExprKind::Index { index, .. } => walk_expr_mut(index, visit),
        ExprKind::Call { args, .. } => {
            for a in args {
                walk_expr_mut(a, visit);
            }
        }
        ExprKind::Unary { operand, .. } => walk_expr_mut(operand, visit),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr_mut(lhs, visit);
            walk_expr_mut(rhs, visit);
        }
        ExprKind::IntLit(_)
        | ExprKind::RealLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Name(_) => {}
    }
}

/// Visits the expressions owned *directly* by one statement node (not
/// those of nested statements), each recursively via [`walk_expr_mut`].
/// Array-index expressions of assignment and `read` targets are
/// included.
pub fn walk_stmt_exprs_mut(stmt: &mut Stmt, visit: &mut dyn FnMut(&mut Expr)) {
    match &mut stmt.kind {
        StmtKind::Assign { lhs, rhs } => {
            if let Some(i) = &mut lhs.index {
                walk_expr_mut(i, visit);
            }
            walk_expr_mut(rhs, visit);
        }
        StmtKind::Call { args, .. } | StmtKind::Write { args, .. } => {
            for a in args {
                walk_expr_mut(a, visit);
            }
        }
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::Repeat { cond, .. } => walk_expr_mut(cond, visit),
        StmtKind::Case { scrutinee, .. } => walk_expr_mut(scrutinee, visit),
        StmtKind::For { from, to, .. } => {
            walk_expr_mut(from, visit);
            walk_expr_mut(to, visit);
        }
        StmtKind::Read { args, .. } => {
            for lv in args {
                if let Some(i) = &mut lv.index {
                    walk_expr_mut(i, visit);
                }
            }
        }
        StmtKind::Empty | StmtKind::Compound(_) | StmtKind::Goto(_) | StmtKind::Labeled { .. } => {}
    }
}

/// Visits every procedure declaration of the program, depth-first in
/// declaration order (the same order as [`Program::walk_procs`]). The
/// callback receives each declaration before its nested declarations;
/// it should restrict itself to the declaration's *own* body
/// (`block.body`), since nested procedures get their own visit.
pub fn walk_procs_mut(program: &mut Program, visit: &mut dyn FnMut(&mut ProcDecl)) {
    fn rec(block: &mut Block, visit: &mut dyn FnMut(&mut ProcDecl)) {
        for p in &mut block.procs {
            visit(p);
            rec(&mut p.block, visit);
        }
    }
    rec(&mut program.block, visit);
}

/// Reassigns every statement and expression id (including `LValue` ids)
/// in the parser's order and resets the program's fresh-id counters.
///
/// The parser numbers each node when it finishes reading it: procedures
/// depth-first in declaration order, then the main body; within a body,
/// children before their parent (post-order), with an assignment's
/// target after its index and before its right-hand side, and a
/// `repeat` condition after the loop body. A renumbered parse therefore
/// keeps every id.
///
/// Mutation operators clone or synthesize AST nodes, which leaves
/// duplicate or placeholder ids behind; renumbering restores the
/// "ids are unique per program" invariant semantic analysis relies on.
pub fn renumber(program: &mut Program) {
    let mut ids = Numbering::default();
    let mut bodies: Vec<&mut Vec<Stmt>> = Vec::new();
    collect_bodies(&mut program.block, &mut bodies);
    for body in bodies {
        for s in body {
            ids.stmt(s);
        }
    }
    program.next_stmt_id = ids.next_stmt;
    program.next_expr_id = ids.next_expr;
}

/// The fresh-id counters of one [`renumber`] pass.
#[derive(Default)]
struct Numbering {
    next_stmt: u32,
    next_expr: u32,
}

impl Numbering {
    fn stmt(&mut self, s: &mut Stmt) {
        match &mut s.kind {
            StmtKind::Assign { lhs, rhs } => {
                self.lvalue(lhs);
                self.expr(rhs);
            }
            StmtKind::Call { args, .. } | StmtKind::Write { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            StmtKind::Read { args, .. } => {
                for lv in args {
                    self.lvalue(lv);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_arm,
            } => {
                self.expr(scrutinee);
                for a in arms {
                    self.stmt(&mut a.stmt);
                }
                if let Some(e) = else_arm {
                    self.stmt(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.expr(cond);
                self.stmt(body);
            }
            StmtKind::Repeat { body, cond } => {
                for s in body {
                    self.stmt(s);
                }
                self.expr(cond);
            }
            StmtKind::For { from, to, body, .. } => {
                self.expr(from);
                self.expr(to);
                self.stmt(body);
            }
            StmtKind::Compound(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
            StmtKind::Labeled { stmt, .. } => self.stmt(stmt),
            StmtKind::Empty | StmtKind::Goto(_) => {}
        }
        s.id = StmtId(self.next_stmt);
        self.next_stmt += 1;
    }

    fn lvalue(&mut self, lv: &mut LValue) {
        if let Some(i) = &mut lv.index {
            self.expr(i);
        }
        lv.id = self.expr_id();
    }

    fn expr(&mut self, e: &mut Expr) {
        match &mut e.kind {
            ExprKind::Index { index, .. } => self.expr(index),
            ExprKind::Call { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Unary { operand, .. } => self.expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::IntLit(_)
            | ExprKind::RealLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Name(_) => {}
        }
        e.id = self.expr_id();
    }

    fn expr_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr);
        self.next_expr += 1;
        id
    }
}

/// Collects every procedure body (depth-first, declaration order) and
/// finally the enclosing block's own body — the canonical body order
/// used by [`renumber`].
fn collect_bodies<'a>(block: &'a mut Block, out: &mut Vec<&'a mut Vec<Stmt>>) {
    for p in &mut block.procs {
        collect_bodies(&mut p.block, out);
    }
    out.push(&mut block.body);
}

/// Rewrites every span in the program to [`Span::dummy`], erasing
/// source positions: the "equality modulo spans" notion the round-trip
/// suite asserts.
pub fn strip_spans(program: &mut Program) {
    program.span = Span::dummy();
    program.name.span = Span::dummy();
    strip_block(&mut program.block);
}

fn strip_block(block: &mut Block) {
    block.span = Span::dummy();
    for l in &mut block.labels {
        l.span = Span::dummy();
    }
    for c in &mut block.consts {
        c.span = Span::dummy();
        c.name.span = Span::dummy();
    }
    for t in &mut block.types {
        t.span = Span::dummy();
        t.name.span = Span::dummy();
        strip_type(&mut t.ty);
    }
    for v in &mut block.vars {
        v.span = Span::dummy();
        for n in &mut v.names {
            n.span = Span::dummy();
        }
        strip_type(&mut v.ty);
    }
    for p in &mut block.procs {
        p.span = Span::dummy();
        p.name.span = Span::dummy();
        for g in &mut p.params {
            g.span = Span::dummy();
            for n in &mut g.names {
                n.span = Span::dummy();
            }
            strip_type(&mut g.ty);
        }
        if let Some(rt) = &mut p.return_type {
            strip_type(rt);
        }
        strip_block(&mut p.block);
    }
    for s in &mut block.body {
        strip_stmt(s);
    }
}

fn strip_type(t: &mut TypeExpr) {
    match t {
        TypeExpr::Named(n) => n.span = Span::dummy(),
        TypeExpr::Array { lo, hi, elem, span } => {
            *span = Span::dummy();
            for b in [lo, hi] {
                if let ArrayBound::Const(c) = b {
                    c.span = Span::dummy();
                }
            }
            strip_type(elem);
        }
    }
}

fn strip_stmt(stmt: &mut Stmt) {
    walk_stmt_mut(stmt, &mut |s| {
        s.span = Span::dummy();
        match &mut s.kind {
            StmtKind::Assign { lhs, .. } => {
                lhs.span = Span::dummy();
                lhs.base.span = Span::dummy();
            }
            StmtKind::Call { name, .. } => name.span = Span::dummy(),
            StmtKind::For { var, .. } => var.span = Span::dummy(),
            StmtKind::Goto(l) => l.span = Span::dummy(),
            StmtKind::Labeled { label, .. } => label.span = Span::dummy(),
            StmtKind::Read { args, .. } => {
                for lv in args {
                    lv.span = Span::dummy();
                    lv.base.span = Span::dummy();
                }
            }
            _ => {}
        }
        walk_stmt_exprs_mut(s, &mut |e| {
            e.span = Span::dummy();
            match &mut e.kind {
                ExprKind::Name(n) => n.span = Span::dummy(),
                ExprKind::Index { base, .. } => base.span = Span::dummy(),
                ExprKind::Call { name, .. } => name.span = Span::dummy(),
                _ => {}
            }
        });
    });
}

/// Rewrites `program` into the AST `parse_program` reads back from
/// `print_program(program)`, spans aside, without printing or parsing:
///
/// 1. the printer drops empty statements from statement sequences, and
///    writes an empty statement it must print (a `then` branch, a loop
///    or `for` body, a labeled statement, a `case` arm) as `begin end`,
///    which reads back as a childless compound; it drops an empty
///    `else` branch;
/// 2. an `else` printed after a `then` branch whose text ends in an `if`
///    without one binds to that inner `if`, as Pascal's dangling `else`
///    does;
/// 3. ids are renumbered in the parser's order ([`renumber`]).
///
/// The printer writes every other node as the parser reads it, except a
/// negative integer literal, which the parser never produces: the
/// printer writes it as a sign and a literal (and `i64::MIN` as a
/// literal out of range), so its text reads back differently or not at
/// all.
pub fn reshape(program: &mut Program) {
    reshape_block(&mut program.block);
    renumber(program);
}

fn reshape_block(block: &mut Block) {
    for p in &mut block.procs {
        reshape_block(&mut p.block);
    }
    reshape_seq(&mut block.body);
}

/// A statement sequence, whose empty statements the printer drops.
fn reshape_seq(stmts: &mut Vec<Stmt>) {
    stmts.retain(|s| !matches!(s.kind, StmtKind::Empty));
    for s in stmts {
        reshape_stmt(s);
    }
}

/// A statement the printer must write even when it is empty.
fn reshape_single(stmt: &mut Stmt) {
    if matches!(stmt.kind, StmtKind::Empty) {
        stmt.kind = StmtKind::Compound(Vec::new());
    } else {
        reshape_stmt(stmt);
    }
}

fn reshape_stmt(stmt: &mut Stmt) {
    match &mut stmt.kind {
        StmtKind::Compound(stmts) | StmtKind::Repeat { body: stmts, .. } => reshape_seq(stmts),
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            reshape_single(then_branch);
            if else_branch
                .as_ref()
                .is_some_and(|e| matches!(e.kind, StmtKind::Empty))
            {
                *else_branch = None;
            }
            if let Some(e) = else_branch {
                reshape_stmt(e);
                if let Some(slot) = open_if(then_branch) {
                    *slot = else_branch.take();
                }
            }
        }
        StmtKind::Case { arms, else_arm, .. } => {
            for a in arms {
                reshape_single(&mut a.stmt);
            }
            if let Some(e) = else_arm {
                reshape_single(e);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::For { body, .. }
        | StmtKind::Labeled { stmt: body, .. } => reshape_single(body),
        StmtKind::Empty
        | StmtKind::Assign { .. }
        | StmtKind::Call { .. }
        | StmtKind::Goto(_)
        | StmtKind::Read { .. }
        | StmtKind::Write { .. } => {}
    }
}

/// The missing `else` of the innermost `if` that the printed text of the
/// reshaped `stmt` ends in, if it ends in one: the `if` a following
/// `else` binds to.
fn open_if(stmt: &mut Stmt) -> Option<&mut Option<Box<Stmt>>> {
    match &mut stmt.kind {
        StmtKind::If {
            else_branch: Some(e),
            ..
        } => open_if(e),
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => open_if(then_branch).or(Some(else_branch)),
        StmtKind::While { body, .. }
        | StmtKind::For { body, .. }
        | StmtKind::Labeled { stmt: body, .. } => open_if(body),
        _ => None,
    }
}

/// Brings a program into the comparison normal form: [`reshape`], then
/// [`strip_spans`]. A program and the parse of its printed text have
/// equal normal forms, ids included.
pub fn normalize(program: &mut Program) {
    reshape(program);
    strip_spans(program);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn walk_stmt_mut_visits_everything() {
        let mut p = parse_program(crate::testprogs::SQRTEST).unwrap();
        let mut immut = 0;
        p.block.walk_stmts(&mut |_| immut += 1);
        crate::ast::Program::walk_procs(&p.clone(), &mut |_, pd| {
            pd.block.walk_stmts(&mut |_| immut += 1)
        });
        let mut mutable = 0;
        let mut count = |body: &mut Vec<Stmt>| {
            for s in body {
                walk_stmt_mut(s, &mut |_| mutable += 1);
            }
        };
        let mut bodies = Vec::new();
        collect_bodies(&mut p.block, &mut bodies);
        for b in bodies {
            count(b);
        }
        assert_eq!(immut, mutable);
    }

    #[test]
    fn renumber_makes_ids_unique_and_dense() {
        let mut p = parse_program(crate::testprogs::PQR).unwrap();
        // Clone a statement to create a duplicate id.
        let dup = p.block.body[0].clone();
        p.block.body.push(dup);
        renumber(&mut p);
        let mut seen = std::collections::BTreeSet::new();
        let mut bodies = Vec::new();
        collect_bodies(&mut p.block, &mut bodies);
        for body in bodies {
            for s in body.iter_mut() {
                walk_stmt_mut(s, &mut |s| {
                    assert!(seen.insert(s.id), "duplicate id {}", s.id);
                });
            }
        }
        assert_eq!(seen.len() as u32, p.next_stmt_id);
        assert_eq!(
            seen.iter().map(|s| s.0).max().map(|m| m + 1),
            Some(p.next_stmt_id)
        );
    }

    #[test]
    fn renumber_keeps_the_parsers_ids() {
        for (name, src) in crate::testprogs::ALL {
            let parsed = parse_program(src).unwrap();
            let mut renumbered = parsed.clone();
            renumber(&mut renumbered);
            assert_eq!(renumbered, parsed, "{name}");
        }
    }

    #[test]
    fn reshape_reads_back_like_the_printed_text() {
        let src = "program t; label 7; var x: integer;
                   begin ; x := 1;; if x > 0 then ; while x > 1 do ;
                   if x > 2 then x := 3 else ; 7: ; begin ; end end.";
        let parsed = parse_program(src).unwrap();
        let mut reread = parse_program(&crate::pretty::print_program(&parsed)).unwrap();
        let mut reshaped = parsed;
        reshape(&mut reshaped);
        strip_spans(&mut reshaped);
        strip_spans(&mut reread);
        assert_eq!(reshaped, reread);
        assert_eq!(reshaped.block.body.len(), 6);
    }

    #[test]
    fn normalize_prunes_trailing_empty_statements() {
        let a = {
            let mut p = parse_program("program t; var x: integer; begin x := 1; end.").unwrap();
            normalize(&mut p);
            p
        };
        let b = {
            let mut p = parse_program("program t; var x: integer; begin x := 1 end.").unwrap();
            normalize(&mut p);
            p
        };
        assert_eq!(a, b);
    }

    #[test]
    fn normalized_programs_detect_real_differences() {
        let mut a = parse_program("program t; var x: integer; begin x := 1 end.").unwrap();
        let mut b = parse_program("program t; var x: integer; begin x := 2 end.").unwrap();
        normalize(&mut a);
        normalize(&mut b);
        assert_ne!(a, b);
    }
}
