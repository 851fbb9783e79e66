//! Abstract syntax tree for the Pascal subset.
//!
//! Every statement and expression carries a stable id assigned at parse
//! time. Ids survive transformation and CFG lowering, which is how slices
//! (sets of statement ids) map back to source and how the transformed
//! program stays linked to the original (§6.1 of the paper).
//!
//! Parameter modes include `in`/`out` in addition to Pascal's value/`var`;
//! the paper's transformation phase introduces these when converting global
//! variables to parameters (§6, "Conversion of global variables to
//! parameters").

use crate::name::Name;
use crate::span::Span;
use std::fmt;

/// Unique id of a statement within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Unique id of an expression within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An identifier occurrence. Pascal identifiers are case-insensitive;
/// [`Ident::key`] gives the normalized form used for name resolution while
/// `name` preserves the original spelling for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ident {
    /// Original spelling.
    pub name: Name,
    /// Source location.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a given span.
    pub fn new(name: impl Into<Name>, span: Span) -> Self {
        Ident {
            name: name.into(),
            span,
        }
    }

    /// Creates an identifier with a dummy span (for synthesized code).
    pub fn synthetic(name: impl Into<Name>) -> Self {
        Ident::new(name, Span::dummy())
    }

    /// The case-normalized resolution key.
    pub fn key(&self) -> Name {
        self.name.to_ascii_lowercase()
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// A complete program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name from the `program` heading.
    pub name: Ident,
    /// The outermost block (globals plus the main body).
    pub block: Block,
    /// Span of the whole program.
    pub span: Span,
    /// Next unassigned statement id (transforms allocate from here).
    pub next_stmt_id: u32,
    /// Next unassigned expression id.
    pub next_expr_id: u32,
}

/// A declaration part plus a body: the contents of a program, procedure, or
/// function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// `label` declarations.
    pub labels: Vec<Ident>,
    /// `const` declarations.
    pub consts: Vec<ConstDecl>,
    /// `type` declarations.
    pub types: Vec<TypeDecl>,
    /// `var` declarations.
    pub vars: Vec<VarDecl>,
    /// Nested procedure and function declarations.
    pub procs: Vec<ProcDecl>,
    /// The `begin … end` body statements.
    pub body: Vec<Stmt>,
    /// Span of the body.
    pub span: Span,
}

/// A constant declaration `name = literal;`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstDecl {
    /// Constant name.
    pub name: Ident,
    /// Constant value.
    pub value: ConstValue,
    /// Source span.
    pub span: Span,
}

/// The literal value of a constant declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstValue {
    /// Integer constant (possibly negated).
    Int(i64),
    /// Real constant (possibly negated).
    Real(f64),
    /// Boolean constant.
    Bool(bool),
    /// String/char constant.
    Str(String),
}

/// A type declaration `name = type-expr;`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDecl {
    /// Declared type name.
    pub name: Ident,
    /// The definition.
    pub ty: TypeExpr,
    /// Source span.
    pub span: Span,
}

/// A syntactic type expression.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// A named type: builtin (`integer`, `real`, `boolean`, `char`) or
    /// declared via `type`.
    Named(Ident),
    /// `array[lo..hi] of elem`.
    Array {
        /// Lower bound.
        lo: ArrayBound,
        /// Upper bound.
        hi: ArrayBound,
        /// Element type.
        elem: Box<TypeExpr>,
        /// Source span.
        span: Span,
    },
}

impl TypeExpr {
    /// The source span of this type expression.
    pub fn span(&self) -> Span {
        match self {
            TypeExpr::Named(id) => id.span,
            TypeExpr::Array { span, .. } => *span,
        }
    }
}

/// An array bound: a literal or a reference to a declared constant.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayBound {
    /// A (possibly negative) integer literal.
    Lit(i64),
    /// A constant name resolved during semantic analysis.
    Const(Ident),
}

/// A variable declaration group `a, b: integer;`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// The declared names.
    pub names: Vec<Ident>,
    /// Their common type.
    pub ty: TypeExpr,
    /// Source span.
    pub span: Span,
}

/// How a parameter is passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamMode {
    /// Pass by value (Pascal default).
    Value,
    /// Pass by reference (`var`). Read-write.
    Var,
    /// Read-only input introduced by the transformation phase (`in`).
    /// Semantically a value parameter that the body must not assign.
    In,
    /// Write-only output introduced by the transformation phase (`out`).
    /// Semantically a `var` parameter whose initial value must not be read.
    Out,
}

impl ParamMode {
    /// Whether an argument must be an lvalue (reference-like modes).
    pub fn is_reference(self) -> bool {
        matches!(self, ParamMode::Var | ParamMode::Out)
    }

    /// Whether the caller observes writes through this parameter.
    pub fn passes_back(self) -> bool {
        matches!(self, ParamMode::Var | ParamMode::Out)
    }
}

impl fmt::Display for ParamMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParamMode::Value => "",
            ParamMode::Var => "var",
            ParamMode::In => "in",
            ParamMode::Out => "out",
        };
        write!(f, "{s}")
    }
}

/// One parameter group `mode a, b: type`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGroup {
    /// Passing mode.
    pub mode: ParamMode,
    /// Names in the group.
    pub names: Vec<Ident>,
    /// The common type.
    pub ty: TypeExpr,
    /// Source span.
    pub span: Span,
}

/// A procedure or function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcDecl {
    /// Procedure/function name.
    pub name: Ident,
    /// Formal parameter groups in declaration order.
    pub params: Vec<ParamGroup>,
    /// `Some(t)` for a function returning `t`, `None` for a procedure.
    pub return_type: Option<TypeExpr>,
    /// Declarations and body.
    pub block: Block,
    /// Span of the whole declaration.
    pub span: Span,
}

impl ProcDecl {
    /// Whether this is a function (has a return type).
    pub fn is_function(&self) -> bool {
        self.return_type.is_some()
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Stable id.
    pub id: StmtId,
    /// The statement proper.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

/// Direction of a `for` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForDir {
    /// `for i := a to b`.
    To,
    /// `for i := a downto b`.
    Downto,
}

/// One arm of a `case` statement: constant labels and the statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// The constant labels selecting this arm.
    pub labels: Vec<ConstValue>,
    /// The arm's statement.
    pub stmt: Stmt,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// The empty statement.
    Empty,
    /// `lhs := rhs`.
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Assigned expression.
        rhs: Expr,
    },
    /// A procedure call statement.
    Call {
        /// Callee name.
        name: Ident,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `begin s1; …; sn end`.
    Compound(Vec<Stmt>),
    /// `if cond then … [else …]`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `case scrutinee of c1: s1; …; [else s] end`.
    Case {
        /// The selected expression (evaluated once).
        scrutinee: Expr,
        /// The arms in order.
        arms: Vec<CaseArm>,
        /// The optional `else` arm.
        else_arm: Option<Box<Stmt>>,
    },
    /// `while cond do body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `repeat body until cond`.
    Repeat {
        /// Body statements.
        body: Vec<Stmt>,
        /// Exit condition (true terminates the loop).
        cond: Expr,
    },
    /// `for var := from to/downto to_ do body`.
    For {
        /// Control variable.
        var: Ident,
        /// Initial value.
        from: Expr,
        /// Direction.
        dir: ForDir,
        /// Final value (evaluated once, per Pascal semantics).
        to: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `goto label`.
    Goto(Ident),
    /// `label: stmt`.
    Labeled {
        /// The label.
        label: Ident,
        /// The labeled statement.
        stmt: Box<Stmt>,
    },
    /// `read(v1, …)` / `readln(v1, …)`.
    Read {
        /// Targets read into.
        args: Vec<LValue>,
        /// Whether this was `readln`.
        newline: bool,
    },
    /// `write(e1, …)` / `writeln(e1, …)`.
    Write {
        /// Values written.
        args: Vec<Expr>,
        /// Whether this was `writeln`.
        newline: bool,
    },
}

/// An assignable location: a variable or an array element.
#[derive(Debug, Clone, PartialEq)]
pub struct LValue {
    /// Stable id (drawn from the expression id space) used to key name
    /// resolution results.
    pub id: ExprId,
    /// Base variable name (or function name inside a function body, for the
    /// Pascal `f := result` convention).
    pub base: Ident,
    /// `Some(i)` for `base[i]`.
    pub index: Option<Box<Expr>>,
    /// Source span.
    pub span: Span,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Stable id.
    pub id: ExprId,
    /// The expression proper.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "not"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (real division)
    FDiv,
    /// `div` (integer division)
    Div,
    /// `mod`
    Mod,
    /// `and`
    And,
    /// `or`
    Or,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinOp {
    /// Whether this is a comparison producing a boolean.
    pub fn is_relational(self) -> bool {
        use BinOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use BinOp::*;
        let s = match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            FDiv => "/",
            Div => "div",
            Mod => "mod",
            And => "and",
            Or => "or",
            Eq => "=",
            Ne => "<>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Real literal.
    RealLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// String literal (only meaningful in `write`; single chars are chars).
    StrLit(String),
    /// A plain name: a variable, constant, or zero-argument function call
    /// (disambiguated during semantic analysis).
    Name(Ident),
    /// `base[index]`.
    Index {
        /// Array variable.
        base: Ident,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `name(args)` — a function call.
    Call {
        /// Callee name.
        name: Ident,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Stmt {
    /// Iterates over this statement and all statements nested inside it.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Stmt)) {
        visit(self);
        match &self.kind {
            StmtKind::Compound(stmts) | StmtKind::Repeat { body: stmts, .. } => {
                for s in stmts {
                    s.walk(visit);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.walk(visit);
                if let Some(e) = else_branch {
                    e.walk(visit);
                }
            }
            StmtKind::Case { arms, else_arm, .. } => {
                for a in arms {
                    a.stmt.walk(visit);
                }
                if let Some(e) = else_arm {
                    e.walk(visit);
                }
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => body.walk(visit),
            StmtKind::Labeled { stmt, .. } => stmt.walk(visit),
            StmtKind::Empty
            | StmtKind::Assign { .. }
            | StmtKind::Call { .. }
            | StmtKind::Goto(_)
            | StmtKind::Read { .. }
            | StmtKind::Write { .. } => {}
        }
    }
}

impl Block {
    /// Iterates over all statements in the body (recursively), not entering
    /// nested procedure declarations.
    pub fn walk_stmts<'a>(&'a self, visit: &mut dyn FnMut(&'a Stmt)) {
        for s in &self.body {
            s.walk(visit);
        }
    }

    /// Counts statements in the body recursively (excluding nested procs).
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.walk_stmts(&mut |_| n += 1);
        n
    }
}

impl Program {
    /// Visits every procedure declaration in the program, depth-first,
    /// including nested ones. The callback receives the path of enclosing
    /// procedure names (outermost first; empty for top-level procedures).
    pub fn walk_procs<'a>(&'a self, visit: &mut dyn FnMut(&[&'a str], &'a ProcDecl)) {
        fn rec<'a>(
            block: &'a Block,
            path: &mut Vec<&'a str>,
            visit: &mut dyn FnMut(&[&'a str], &'a ProcDecl),
        ) {
            for p in &block.procs {
                visit(path, p);
                path.push(&p.name.name);
                rec(&p.block, path, visit);
                path.pop();
            }
        }
        let mut path = Vec::new();
        rec(&self.block, &mut path, visit);
    }

    /// Total number of statements in the program (all bodies).
    pub fn stmt_count(&self) -> usize {
        let mut n = self.block.stmt_count();
        self.walk_procs(&mut |_, p| n += p.block.stmt_count());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(id: u32, kind: StmtKind) -> Stmt {
        Stmt {
            id: StmtId(id),
            kind,
            span: Span::dummy(),
        }
    }

    #[test]
    fn walk_visits_nested_statements() {
        let inner = stmt(1, StmtKind::Empty);
        let s = stmt(
            0,
            StmtKind::While {
                cond: Expr {
                    id: ExprId(0),
                    kind: ExprKind::BoolLit(true),
                    span: Span::dummy(),
                },
                body: Box::new(stmt(2, StmtKind::Compound(vec![inner]))),
            },
        );
        let mut seen = Vec::new();
        s.walk(&mut |s| seen.push(s.id.0));
        assert_eq!(seen, vec![0, 2, 1]);
    }

    #[test]
    fn param_mode_predicates() {
        assert!(ParamMode::Var.is_reference());
        assert!(ParamMode::Out.is_reference());
        assert!(!ParamMode::Value.is_reference());
        assert!(!ParamMode::In.is_reference());
        assert!(ParamMode::Out.passes_back());
    }

    #[test]
    fn ident_key_normalizes_case() {
        assert_eq!(Ident::synthetic("ArrSum").key(), "arrsum");
    }
}
