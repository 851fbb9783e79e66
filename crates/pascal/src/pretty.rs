//! Source printing, including *slice* printing.
//!
//! [`print_program`] renders an AST back to compilable source (used to
//! display transformed programs, §6). [`print_slice`] renders the program
//! restricted to a set of statement ids — the paper's Figure 2(b) form of
//! a slice: unused declarations and procedures are dropped, structure is
//! preserved. Printed slices re-parse and re-run, which is how the test
//! suite checks slice correctness end to end.

use crate::ast::*;
use crate::name::Name;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders a whole program as Pascal source.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{parser::parse_program, pretty::print_program};
/// let p = parse_program("program t; var x: integer; begin x := 1 end.")?;
/// let src = print_program(&p);
/// // The printed form re-parses.
/// parse_program(&src)?;
/// # Ok(())
/// # }
/// ```
pub fn print_program(program: &Program) -> String {
    Printer::new(None).program(program)
}

/// Renders the program restricted to the statements in `keep`.
///
/// Structural statements (compounds, `if`/loops, labels) are printed when
/// any contained statement is kept. Procedures with no kept statements are
/// dropped, as are variable declarations not referenced by kept code.
pub fn print_slice(program: &Program, keep: &BTreeSet<StmtId>) -> String {
    let keep = |id: StmtId| keep.contains(&id);
    let mut used = BTreeSet::new();
    collect_used_names(program, &keep, &mut used);
    Printer::new(Some(Slice { keep: &keep, used })).program(program)
}

/// What a slice print keeps: statements, and the names kept code uses.
struct Slice<'k> {
    keep: &'k dyn Fn(StmtId) -> bool,
    /// Normalized names referenced by kept statements; declarations of
    /// other names are dropped.
    used: BTreeSet<Name>,
}

/// Writes everything into one buffer, `out`.
struct Printer<'k> {
    out: String,
    indent: usize,
    /// `None` prints the whole program, every declaration kept, so
    /// printing is lossless up to empty statements.
    slice: Option<Slice<'k>>,
}

impl<'k> Printer<'k> {
    fn new(slice: Option<Slice<'k>>) -> Self {
        Printer {
            out: String::new(),
            indent: 0,
            slice,
        }
    }

    /// Starts a line at the current indentation.
    fn open(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    /// Ends the line with `term`.
    fn close(&mut self, term: &str) {
        self.out.push_str(term);
        self.out.push('\n');
    }

    fn line(&mut self, s: &str) {
        self.open();
        self.close(s);
    }

    fn keeps_name(&self, name: &Ident) -> bool {
        self.slice
            .as_ref()
            .is_none_or(|slice| slice.used.contains(&name.key()))
    }

    fn keeps_any(&self, names: &[Ident]) -> bool {
        names.iter().any(|n| self.keeps_name(n))
    }

    /// Whether `s` prints: some statement in it is kept and not empty.
    fn kept(&self, s: &Stmt) -> bool {
        let Some(slice) = &self.slice else {
            // Every statement is kept: the walk below would accept `s`
            // itself unless it is empty, and an empty one has no children.
            return !matches!(s.kind, StmtKind::Empty);
        };
        let mut any = false;
        s.walk(&mut |st| {
            if (slice.keep)(st.id) && !matches!(st.kind, StmtKind::Empty) {
                any = true;
            }
        });
        any
    }

    fn program(mut self, p: &Program) -> String {
        self.open();
        self.out.push_str("program ");
        self.out.push_str(&p.name.name);
        self.close(";");
        self.block(&p.block);
        // Replace trailing "end" of the outer block with "end."
        while self.out.ends_with('\n') {
            self.out.pop();
        }
        self.out.push_str(".\n");
        self.out
    }

    /// Writes the kept names of `names`, comma-separated.
    fn names(&mut self, names: &[Ident]) {
        let mut first = true;
        for name in names {
            if self.keeps_name(name) {
                if !first {
                    self.out.push_str(", ");
                }
                self.out.push_str(&name.name);
                first = false;
            }
        }
    }

    fn block(&mut self, b: &Block) {
        if self.keeps_any(&b.labels) {
            self.open();
            self.out.push_str("label ");
            self.names(&b.labels);
            self.close(";");
        }
        if b.consts.iter().any(|c| self.keeps_name(&c.name)) {
            self.line("const");
            self.indent += 1;
            for c in &b.consts {
                if !self.keeps_name(&c.name) {
                    continue;
                }
                self.open();
                self.out.push_str(&c.name.name);
                self.out.push_str(" = ");
                write_const(&mut self.out, &c.value);
                self.close(";");
            }
            self.indent -= 1;
        }
        if b.types.iter().any(|t| self.keeps_name(&t.name)) {
            self.line("type");
            self.indent += 1;
            for t in &b.types {
                if !self.keeps_name(&t.name) {
                    continue;
                }
                self.open();
                self.out.push_str(&t.name.name);
                self.out.push_str(" = ");
                write_type(&mut self.out, &t.ty);
                self.close(";");
            }
            self.indent -= 1;
        }
        if b.vars.iter().any(|g| self.keeps_any(&g.names)) {
            self.line("var");
            self.indent += 1;
            for g in &b.vars {
                if !self.keeps_any(&g.names) {
                    continue;
                }
                self.open();
                self.names(&g.names);
                self.out.push_str(": ");
                write_type(&mut self.out, &g.ty);
                self.close(";");
            }
            self.indent -= 1;
        }
        for proc in &b.procs {
            if self
                .slice
                .as_ref()
                .is_none_or(|slice| proc_is_kept(slice.keep, proc))
            {
                self.proc_decl(proc);
            }
        }
        self.line("begin");
        self.indent += 1;
        self.stmt_seq(&b.body);
        self.indent -= 1;
        self.line("end");
    }

    fn proc_decl(&mut self, p: &ProcDecl) {
        self.open();
        self.out.push_str(if p.is_function() {
            "function "
        } else {
            "procedure "
        });
        self.out.push_str(&p.name.name);
        if !p.params.is_empty() {
            self.out.push('(');
            for (i, g) in p.params.iter().enumerate() {
                if i > 0 {
                    self.out.push_str("; ");
                }
                self.out.push_str(match g.mode {
                    ParamMode::Value => "",
                    ParamMode::Var => "var ",
                    ParamMode::In => "in ",
                    ParamMode::Out => "out ",
                });
                for (j, n) in g.names.iter().enumerate() {
                    if j > 0 {
                        self.out.push_str(", ");
                    }
                    self.out.push_str(&n.name);
                }
                self.out.push_str(": ");
                write_type(&mut self.out, &g.ty);
            }
            self.out.push(')');
        }
        if let Some(rt) = &p.return_type {
            self.out.push_str(": ");
            write_type(&mut self.out, rt);
        }
        self.close(";");
        self.block(&p.block);
        // block() ends with "end"; append the declaration semicolon.
        while self.out.ends_with('\n') {
            self.out.pop();
        }
        self.out.push_str(";\n");
    }

    fn stmt_seq(&mut self, stmts: &[Stmt]) {
        let Some(last) = stmts.iter().rposition(|s| self.kept(s)) else {
            return;
        };
        for (i, s) in stmts[..=last].iter().enumerate() {
            if self.kept(s) {
                self.stmt(s, i < last);
            }
        }
    }

    /// Writes `args` comma-separated.
    fn exprs(&mut self, args: &[Expr]) {
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            write_expr(&mut self.out, a, 0);
        }
    }

    /// Writes a line `{head}{e}{tail}`.
    fn expr_line(&mut self, head: &str, e: &Expr, tail: &str) {
        self.open();
        self.out.push_str(head);
        write_expr(&mut self.out, e, 0);
        self.close(tail);
    }

    /// Writes `s`, or an empty `begin end` when nothing in it is kept.
    fn kept_or_empty(&mut self, s: &Stmt, semi: bool) {
        if self.kept(s) {
            self.stmt(s, semi);
        } else {
            self.line(if semi { "begin end;" } else { "begin end" });
        }
    }

    fn stmt(&mut self, s: &Stmt, semi: bool) {
        let term = if semi { ";" } else { "" };
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Assign { lhs, rhs } => {
                self.open();
                write_lvalue(&mut self.out, lhs);
                self.out.push_str(" := ");
                write_expr(&mut self.out, rhs, 0);
                self.close(term);
            }
            StmtKind::Call { name, args } => {
                self.open();
                self.out.push_str(&name.name);
                if !args.is_empty() {
                    self.out.push('(');
                    self.exprs(args);
                    self.out.push(')');
                }
                self.close(term);
            }
            StmtKind::Compound(stmts) => {
                self.line("begin");
                self.indent += 1;
                self.stmt_seq(stmts);
                self.indent -= 1;
                self.open();
                self.out.push_str("end");
                self.close(term);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr_line("if ", cond, " then");
                self.indent += 1;
                let then_kept = self.kept(then_branch);
                let else_kept = else_branch.as_ref().is_some_and(|e| self.kept(e));
                if then_kept {
                    self.stmt(then_branch, !else_kept && semi);
                } else {
                    self.line(if else_kept || !semi {
                        "begin end"
                    } else {
                        "begin end;"
                    });
                }
                self.indent -= 1;
                if else_kept {
                    self.line("else");
                    self.indent += 1;
                    self.stmt(else_branch.as_ref().expect("else_kept implies else"), semi);
                    self.indent -= 1;
                }
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_arm,
            } => {
                self.expr_line("case ", scrutinee, " of");
                self.indent += 1;
                // Dropped arms stay as empty arms: removing a label would
                // reroute its values to the else branch and change the
                // slice's behaviour.
                for arm in arms {
                    self.open();
                    for (i, c) in arm.labels.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        write_const(&mut self.out, c);
                    }
                    self.close(":");
                    self.indent += 1;
                    self.kept_or_empty(&arm.stmt, true);
                    self.indent -= 1;
                }
                if let Some(e) = else_arm {
                    self.line("else");
                    self.indent += 1;
                    self.kept_or_empty(e, true);
                    self.indent -= 1;
                }
                self.indent -= 1;
                self.open();
                self.out.push_str("end");
                self.close(term);
            }
            StmtKind::While { cond, body } => {
                self.expr_line("while ", cond, " do");
                self.indent += 1;
                self.kept_or_empty(body, semi);
                self.indent -= 1;
            }
            StmtKind::Repeat { body, cond } => {
                self.line("repeat");
                self.indent += 1;
                self.stmt_seq(body);
                self.indent -= 1;
                self.open();
                self.out.push_str("until ");
                write_expr(&mut self.out, cond, 0);
                self.close(term);
            }
            StmtKind::For {
                var,
                from,
                dir,
                to,
                body,
            } => {
                self.open();
                self.out.push_str("for ");
                self.out.push_str(&var.name);
                self.out.push_str(" := ");
                write_expr(&mut self.out, from, 0);
                self.out.push_str(match dir {
                    ForDir::To => " to ",
                    ForDir::Downto => " downto ",
                });
                write_expr(&mut self.out, to, 0);
                self.close(" do");
                self.indent += 1;
                self.kept_or_empty(body, semi);
                self.indent -= 1;
            }
            StmtKind::Goto(l) => {
                self.open();
                self.out.push_str("goto ");
                self.out.push_str(&l.name);
                self.close(term);
            }
            StmtKind::Labeled { label, stmt } => {
                self.open();
                self.out.push_str(&label.name);
                self.close(":");
                self.kept_or_empty(stmt, semi);
            }
            StmtKind::Read { args, newline } => {
                self.open();
                self.out.push_str(if *newline { "readln" } else { "read" });
                // `read()` does not parse; a bare `read` is the empty list.
                if !args.is_empty() {
                    self.out.push('(');
                    for (i, lv) in args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        write_lvalue(&mut self.out, lv);
                    }
                    self.out.push(')');
                }
                self.close(term);
            }
            StmtKind::Write { args, newline } => {
                self.open();
                self.out
                    .push_str(if *newline { "writeln" } else { "write" });
                if !args.is_empty() {
                    self.out.push('(');
                    self.exprs(args);
                    self.out.push(')');
                }
                self.close(term);
            }
        }
    }
}

/// Whether a slice keeps a non-empty statement of `p` or of a procedure
/// nested in it.
fn proc_is_kept(keep: &dyn Fn(StmtId) -> bool, p: &ProcDecl) -> bool {
    let mut any = false;
    p.block.walk_stmts(&mut |s| {
        if keep(s.id) && !matches!(s.kind, StmtKind::Empty) {
            any = true;
        }
    });
    any || p.block.procs.iter().any(|q| proc_is_kept(keep, q))
}

fn write_const(out: &mut String, c: &ConstValue) {
    match c {
        ConstValue::Int(n) => {
            let _ = write!(out, "{n}");
        }
        ConstValue::Real(x) => write_real(out, *x),
        ConstValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        ConstValue::Str(s) => write_quoted(out, s),
    }
}

/// Writes `s` as a quoted literal, doubling embedded quotes.
fn write_quoted(out: &mut String, s: &str) {
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
}

/// Writes a real literal in positional notation with a fraction, the
/// only form the lexer reads as a real: `{x:?}` writes `1e20` and
/// `1e-7`, which lex as an integer and a name.
fn write_real(out: &mut String, x: f64) {
    let _ = if x.fract() == 0.0 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    };
}

fn write_type(out: &mut String, t: &TypeExpr) {
    match t {
        TypeExpr::Named(n) => out.push_str(&n.name),
        TypeExpr::Array { lo, hi, elem, .. } => {
            out.push_str("array[");
            write_bound(out, lo);
            out.push_str("..");
            write_bound(out, hi);
            out.push_str("] of ");
            write_type(out, elem);
        }
    }
}

fn write_bound(out: &mut String, b: &ArrayBound) {
    match b {
        ArrayBound::Lit(n) => {
            let _ = write!(out, "{n}");
        }
        ArrayBound::Const(c) => out.push_str(&c.name),
    }
}

/// Renders an lvalue.
pub fn lvalue_str(lv: &LValue) -> String {
    let mut out = String::new();
    write_lvalue(&mut out, lv);
    out
}

fn write_lvalue(out: &mut String, lv: &LValue) {
    out.push_str(&lv.base.name);
    if let Some(i) = &lv.index {
        out.push('[');
        write_expr(out, i, 0);
        out.push(']');
    }
}

/// Renders an expression with minimal parentheses (full parenthesization
/// of nested binary operations, which always re-parses correctly).
pub fn expr_str(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

/// Writes `e` as an operand of an operator of precedence `parent`
/// (0 at the top: relational; 1 adding; 2 multiplying; 3 under a unary),
/// parenthesized where it binds more loosely.
fn write_expr(out: &mut String, e: &Expr, parent: u8) {
    match &e.kind {
        ExprKind::IntLit(n) => {
            let _ = write!(out, "{n}");
        }
        ExprKind::RealLit(x) => write_real(out, *x),
        ExprKind::BoolLit(b) => {
            let _ = write!(out, "{b}");
        }
        ExprKind::StrLit(s) => write_quoted(out, s),
        ExprKind::Name(n) => out.push_str(&n.name),
        ExprKind::Index { base, index } => {
            out.push_str(&base.name);
            out.push('[');
            write_expr(out, index, 0);
            out.push(']');
        }
        ExprKind::Call { name, args } => {
            out.push_str(&name.name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, 0);
            }
            out.push(')');
        }
        ExprKind::Unary { op, operand } => {
            // A sign is only legal at the head of a simple expression
            // (where it binds the whole leading term), so `-x` must be
            // parenthesized in *any* operand position: `a + -x` does not
            // parse, and `-x * y` re-parses as `-(x * y)`. `not` is a
            // factor operator and only needs parens under another unary.
            let (sign, parens) = match op {
                UnOp::Neg => ("-", parent > 0),
                UnOp::Not => ("not ", parent > 2),
            };
            if parens {
                out.push('(');
            }
            out.push_str(sign);
            write_expr(out, operand, 3);
            if parens {
                out.push(')');
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let prec = match op {
                BinOp::Mul | BinOp::FDiv | BinOp::Div | BinOp::Mod | BinOp::And => 2,
                BinOp::Add | BinOp::Sub | BinOp::Or => 1,
                _ => 0, // relational
            };
            let parens = prec < parent;
            if parens {
                out.push('(');
            }
            // Comparisons do not chain: `a = b = c` does not parse, so a
            // comparison on the left of one is parenthesized too.
            let chained =
                prec == 0 && matches!(&lhs.kind, ExprKind::Binary { op, .. } if op.is_relational());
            write_expr(out, lhs, if chained { 1 } else { prec });
            let _ = write!(out, " {op} ");
            write_expr(out, rhs, prec + 1);
            if parens {
                out.push(')');
            }
        }
    }
}

/// Collects the identifier names (normalized) appearing in kept statements
/// and in headers of procedures containing kept statements — the basis for
/// declaration pruning in slice printing.
fn collect_used_names(program: &Program, keep: &dyn Fn(StmtId) -> bool, used: &mut BTreeSet<Name>) {
    fn names_in_expr(e: &Expr, used: &mut BTreeSet<Name>) {
        match &e.kind {
            ExprKind::Name(n) => {
                used.insert(n.key());
            }
            ExprKind::Index { base, index } => {
                used.insert(base.key());
                names_in_expr(index, used);
            }
            ExprKind::Call { name, args } => {
                used.insert(name.key());
                for a in args {
                    names_in_expr(a, used);
                }
            }
            ExprKind::Unary { operand, .. } => names_in_expr(operand, used),
            ExprKind::Binary { lhs, rhs, .. } => {
                names_in_expr(lhs, used);
                names_in_expr(rhs, used);
            }
            _ => {}
        }
    }
    fn names_in_stmt(s: &Stmt, keep: &dyn Fn(StmtId) -> bool, used: &mut BTreeSet<Name>) {
        // Structural statements contribute when any descendant is kept;
        // leaf statements contribute only when themselves kept.
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                if keep(s.id) {
                    used.insert(lhs.base.key());
                    if let Some(i) = &lhs.index {
                        names_in_expr(i, used);
                    }
                    names_in_expr(rhs, used);
                }
            }
            StmtKind::Call { name, args } => {
                if keep(s.id) {
                    used.insert(name.key());
                    for a in args {
                        names_in_expr(a, used);
                    }
                }
            }
            StmtKind::Compound(stmts) => {
                for st in stmts {
                    names_in_stmt(st, keep, used);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut any = false;
                s.walk(&mut |st| {
                    if keep(st.id) {
                        any = true;
                    }
                });
                if any {
                    names_in_expr(cond, used);
                }
                names_in_stmt(then_branch, keep, used);
                if let Some(e) = else_branch {
                    names_in_stmt(e, keep, used);
                }
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_arm,
            } => {
                let mut any = false;
                s.walk(&mut |st| {
                    if keep(st.id) {
                        any = true;
                    }
                });
                if any {
                    names_in_expr(scrutinee, used);
                }
                for a in arms {
                    names_in_stmt(&a.stmt, keep, used);
                }
                if let Some(e) = else_arm {
                    names_in_stmt(e, keep, used);
                }
            }
            StmtKind::While { cond, body } => {
                let mut any = false;
                s.walk(&mut |st| {
                    if keep(st.id) {
                        any = true;
                    }
                });
                if any {
                    names_in_expr(cond, used);
                }
                names_in_stmt(body, keep, used);
            }
            StmtKind::Repeat { body, cond } => {
                let mut any = false;
                s.walk(&mut |st| {
                    if keep(st.id) {
                        any = true;
                    }
                });
                if any {
                    names_in_expr(cond, used);
                }
                for st in body {
                    names_in_stmt(st, keep, used);
                }
            }
            StmtKind::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let mut any = false;
                s.walk(&mut |st| {
                    if keep(st.id) {
                        any = true;
                    }
                });
                if any {
                    used.insert(var.key());
                    names_in_expr(from, used);
                    names_in_expr(to, used);
                }
                names_in_stmt(body, keep, used);
            }
            StmtKind::Goto(l) => {
                if keep(s.id) {
                    used.insert(l.key());
                }
            }
            StmtKind::Labeled { label, stmt } => {
                let mut any = false;
                s.walk(&mut |st| {
                    if keep(st.id) {
                        any = true;
                    }
                });
                if any {
                    used.insert(label.key());
                }
                names_in_stmt(stmt, keep, used);
            }
            StmtKind::Read { args, .. } => {
                if keep(s.id) {
                    for lv in args {
                        used.insert(lv.base.key());
                        if let Some(i) = &lv.index {
                            names_in_expr(i, used);
                        }
                    }
                }
            }
            StmtKind::Write { args, .. } => {
                if keep(s.id) {
                    for a in args {
                        names_in_expr(a, used);
                    }
                }
            }
            StmtKind::Empty => {}
        }
    }
    fn type_names(t: &TypeExpr, used: &mut BTreeSet<Name>) {
        match t {
            TypeExpr::Named(n) => {
                used.insert(n.key());
            }
            TypeExpr::Array { lo, hi, elem, .. } => {
                if let ArrayBound::Const(c) = lo {
                    used.insert(c.key());
                }
                if let ArrayBound::Const(c) = hi {
                    used.insert(c.key());
                }
                type_names(elem, used);
            }
        }
    }
    fn proc_names(p: &ProcDecl, keep: &dyn Fn(StmtId) -> bool, used: &mut BTreeSet<Name>) {
        let mut any = false;
        p.block.walk_stmts(&mut |s| {
            if keep(s.id) {
                any = true;
            }
        });
        let nested_any = p.block.procs.iter().any(|q| {
            let mut a = false;
            q.block.walk_stmts(&mut |s| {
                if keep(s.id) {
                    a = true;
                }
            });
            a
        });
        if any || nested_any {
            // Parameter names and types count as used.
            for g in &p.params {
                for n in &g.names {
                    used.insert(n.key());
                }
                type_names(&g.ty, used);
            }
            if let Some(rt) = &p.return_type {
                type_names(rt, used);
            }
        }
        for s in &p.block.body {
            names_in_stmt(s, keep, used);
        }
        for q in &p.block.procs {
            proc_names(q, keep, used);
        }
    }

    for s in &program.block.body {
        names_in_stmt(s, keep, used);
    }
    for p in &program.block.procs {
        proc_names(p, keep, used);
    }
    // Types referenced by used variables' declarations.
    fn var_decl_types(block: &Block, used: &mut BTreeSet<Name>) {
        let snapshot: Vec<Name> = used.iter().cloned().collect();
        for g in &block.vars {
            if g.names.iter().any(|n| snapshot.contains(&n.key())) {
                type_names(&g.ty, used);
            }
        }
        for p in &block.procs {
            var_decl_types(&p.block, used);
        }
    }
    var_decl_types(&program.block, used);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::sema::compile;

    fn roundtrip(src: &str) {
        let p = parse_program(src).expect("parse");
        let printed = print_program(&p);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printing is not a fixpoint");
    }

    #[test]
    fn roundtrip_all_fixtures() {
        for (name, src) in crate::testprogs::ALL {
            let p = parse_program(src).expect(name);
            let printed = print_program(&p);
            parse_program(&printed)
                .unwrap_or_else(|e| panic!("{name} reparse failed: {e}\n{printed}"));
        }
    }

    #[test]
    fn roundtrip_operators_preserve_precedence() {
        let src = "program t; var a, b, c, x: integer; r: boolean;
                   begin x := (a + b) * c; x := a + b * c;
                         r := (a < b) and (b < c); x := -(a + b) end.";
        let p = parse_program(src).unwrap();
        let printed = print_program(&p);
        let m1 = compile(src).unwrap();
        let m2 = compile(&printed).unwrap();
        // Semantically identical: same number of procs/vars.
        assert_eq!(m1.vars.len(), m2.vars.len());
        roundtrip(src);
        // Behavioural check.
        let src_run = "program t; var x: integer; r: boolean;
                       begin x := (1 + 2) * 3; r := (1 < 2) and (2 < 3); writeln(x, r) end.";
        let p = parse_program(src_run).unwrap();
        let printed = print_program(&p);
        let m_orig = compile(src_run).unwrap();
        let m_new = compile(&printed).unwrap();
        let o1 = crate::interp::Interpreter::new(&m_orig).run().unwrap();
        let o2 = crate::interp::Interpreter::new(&m_new).run().unwrap();
        assert_eq!(o1.output_text(), o2.output_text());
    }

    #[test]
    fn slice_printing_drops_unused_decls() {
        let p = parse_program(crate::testprogs::FIGURE2).unwrap();
        // Keep only `mul := 0`.
        let mut keep = BTreeSet::new();
        p.block.walk_stmts(&mut |s| {
            if let StmtKind::Assign { lhs, .. } = &s.kind {
                if lhs.base.name == "mul"
                    && matches!(
                        &s.kind,
                        StmtKind::Assign { rhs, .. } if matches!(rhs.kind, ExprKind::IntLit(0))
                    )
                {
                    keep.insert(s.id);
                }
            }
        });
        assert_eq!(keep.len(), 1);
        let printed = print_slice(&p, &keep);
        assert!(printed.contains("mul"));
        assert!(!printed.contains("sum"), "{printed}");
        assert!(!printed.contains("read"), "{printed}");
        // The slice re-parses and runs.
        let m = compile(&printed).unwrap();
        crate::interp::Interpreter::new(&m).run().unwrap();
    }

    #[test]
    fn slice_printing_keeps_if_structure() {
        let p = parse_program(crate::testprogs::FIGURE2).unwrap();
        // Keep mul-assignments and the read(x,y); the if-branch assigning
        // mul is inside the else.
        let mut keep = BTreeSet::new();
        p.block.walk_stmts(&mut |s| match &s.kind {
            StmtKind::Assign { lhs, .. } if lhs.base.name == "mul" => {
                keep.insert(s.id);
            }
            StmtKind::Read { args, .. } if args.iter().any(|a| a.base.name == "x") => {
                keep.insert(s.id);
            }
            _ => {}
        });
        let printed = print_slice(&p, &keep);
        assert!(printed.contains("if x <= 1 then"), "{printed}");
        assert!(printed.contains("mul := x * y"), "{printed}");
        assert!(!printed.contains("sum := x + y"), "{printed}");
        let m = compile(&printed).unwrap();
        let mut i = crate::interp::Interpreter::new(&m);
        i.set_input([crate::value::Value::Int(3), crate::value::Value::Int(5)]);
        let o = i.run().unwrap();
        assert_eq!(o.global("mul"), Some(&crate::value::Value::Int(15)));
    }

    #[test]
    fn slice_printing_drops_whole_procedures() {
        let p = parse_program(crate::testprogs::SQRTEST).unwrap();
        // Keep only main-body statements.
        let mut keep = BTreeSet::new();
        for s in &p.block.body {
            s.walk(&mut |st| {
                keep.insert(st.id);
            });
        }
        let printed = print_slice(&p, &keep);
        assert!(printed.contains("sqrtest"), "{printed}");
        // decrement has no kept statements → dropped.
        assert!(!printed.contains("decrement"), "{printed}");
    }

    #[test]
    fn in_out_modes_print_and_reparse() {
        let src = "program t; var a, b, c: integer;
                   procedure p(var y: integer; in x: integer; out z: integer);
                   begin y := x + 1; z := y - x end;
                   begin p(a, b, c) end.";
        roundtrip(src);
        let p = parse_program(src).unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("in x: integer"), "{printed}");
        assert!(printed.contains("out z: integer"), "{printed}");
    }

    #[test]
    fn labels_and_gotos_print() {
        roundtrip(crate::testprogs::SECTION6_LOOP_GOTO);
        let p = parse_program(crate::testprogs::SECTION6_LOOP_GOTO).unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("label 9;"), "{printed}");
        assert!(printed.contains("goto 9"), "{printed}");
        assert!(printed.contains("9:"), "{printed}");
    }

    #[test]
    fn printed_program_behaves_identically() {
        for (name, src) in crate::testprogs::ALL {
            if *name == "figure2" {
                continue; // needs input; covered elsewhere
            }
            let p = parse_program(src).unwrap();
            let printed = print_program(&p);
            let m1 = compile(src).unwrap();
            let m2 = compile(&printed).unwrap_or_else(|e| panic!("{name}: {e}\n{printed}"));
            let o1 = crate::interp::Interpreter::new(&m1).run().unwrap();
            let o2 = crate::interp::Interpreter::new(&m2).run().unwrap();
            assert_eq!(o1.output_text(), o2.output_text(), "{name}");
        }
    }
}
