//! Name resolution and type checking.
//!
//! Produces a [`Module`]: the program plus symbol tables and side tables
//! keyed by statement/expression ids. Downstream passes (CFG lowering,
//! side-effect analysis, slicing, transformation) all consume the `Module`
//! rather than re-resolving names.
//!
//! Scoping follows Pascal: procedures nest arbitrarily and may reference
//! variables of enclosing scopes (the paper calls any reference to a
//! variable "not locally declared in the current procedure" a *global
//! side-effect* when written — see §6). Non-local `goto`s into enclosing
//! blocks are legal here; the transformation phase removes them.

use crate::ast::*;
use crate::error::{Diagnostic, Result, Stage};
use crate::idhash::IdMap;
use crate::name::Name;
use crate::span::Span;
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;

/// Unique id of a variable (global, local, parameter, result, or temp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Unique id of a procedure/function. Id 0 is the main program body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

/// The main program body, modeled as procedure 0.
pub const MAIN_PROC: ProcId = ProcId(0);

impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What kind of storage a variable is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Declared at program level.
    Global,
    /// Declared in a procedure's `var` section.
    Local,
    /// A formal parameter.
    Param {
        /// Passing mode.
        mode: ParamMode,
        /// Zero-based position in the flattened parameter list.
        position: usize,
    },
    /// The pseudo-variable holding a function's result.
    Result,
    /// Compiler-synthesized temporary (e.g. `for`-loop limits).
    Temp,
}

/// Information about one variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// The variable's id.
    pub id: VarId,
    /// Original spelling.
    pub name: Name,
    /// Resolved type.
    pub ty: Type,
    /// Storage kind.
    pub kind: VarKind,
    /// The procedure owning the variable ([`MAIN_PROC`] for globals).
    pub owner: ProcId,
    /// Nesting level of the owner (0 = program).
    pub level: u32,
    /// Declaration site.
    pub span: Span,
}

impl VarInfo {
    /// Whether this is a formal parameter.
    pub fn is_param(&self) -> bool {
        matches!(self.kind, VarKind::Param { .. })
    }

    /// The parameter mode, if a parameter.
    pub fn param_mode(&self) -> Option<ParamMode> {
        match self.kind {
            VarKind::Param { mode, .. } => Some(mode),
            _ => None,
        }
    }
}

/// Information about one procedure or function.
#[derive(Debug, Clone)]
pub struct ProcInfo {
    /// The procedure's id.
    pub id: ProcId,
    /// Original spelling (`"<main>"` for the program body).
    pub name: Name,
    /// Flattened formal parameters, in declaration order.
    pub params: Vec<VarId>,
    /// Return type for functions.
    pub return_type: Option<Type>,
    /// The result pseudo-variable for functions.
    pub result_var: Option<VarId>,
    /// Enclosing procedure (`None` only for the main body).
    pub parent: Option<ProcId>,
    /// Nesting level (0 = main body, 1 = top-level procedures, …).
    pub level: u32,
    /// Declaration site.
    pub span: Span,
    /// Index path into nested `block.procs` vectors locating the
    /// declaration (empty for the main body).
    pub decl_path: Vec<usize>,
}

impl ProcInfo {
    /// Whether this is a function.
    pub fn is_function(&self) -> bool {
        self.return_type.is_some()
    }
}

/// Built-in functions available without declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `abs(x)` — absolute value (integer or real).
    Abs,
    /// `sqr(x)` — square (integer or real).
    Sqr,
    /// `odd(n)` — whether an integer is odd.
    Odd,
    /// `ord(c)` — character code.
    Ord,
    /// `chr(n)` — character from code.
    Chr,
    /// `trunc(x)` — real to integer, toward zero.
    Trunc,
    /// `round(x)` — real to nearest integer.
    Round,
}

impl Intrinsic {
    /// The intrinsic spelled `name`, in any case.
    fn lookup(name: &str) -> Option<Intrinsic> {
        use Intrinsic::*;
        [Abs, Sqr, Odd, Ord, Chr, Trunc, Round]
            .into_iter()
            .find(|i| i.name().eq_ignore_ascii_case(name))
    }

    /// The intrinsic's name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Abs => "abs",
            Intrinsic::Sqr => "sqr",
            Intrinsic::Odd => "odd",
            Intrinsic::Ord => "ord",
            Intrinsic::Chr => "chr",
            Intrinsic::Trunc => "trunc",
            Intrinsic::Round => "round",
        }
    }
}

/// What a name occurrence resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum NameRes {
    /// A variable (or parameter/result/temp).
    Var(VarId),
    /// A declared constant, with its value.
    Const(Value),
    /// A user function/procedure.
    Proc(ProcId),
    /// A built-in function.
    Intrinsic(Intrinsic),
}

/// A resolved, type-checked program.
///
/// The side tables are keyed by the ids the parser and sema issue
/// sequentially, so they hash with [`IdMap`]'s fast hasher rather than
/// SipHash; their iteration order is unspecified.
#[derive(Debug, Clone)]
pub struct Module {
    /// The (possibly transformed) AST.
    pub program: Program,
    /// All variables, indexed by [`VarId`].
    pub vars: Vec<VarInfo>,
    /// All procedures, indexed by [`ProcId`]; entry 0 is the main body.
    pub procs: Vec<ProcInfo>,
    /// Resolution of every name-like expression and lvalue, keyed by
    /// [`ExprId`].
    pub res: IdMap<ExprId, NameRes>,
    /// Type of every expression; for lvalues, the type of the target
    /// location.
    pub expr_ty: IdMap<ExprId, Type>,
    /// Callee of every call *statement*.
    pub call_res: IdMap<StmtId, ProcId>,
    /// Synthesized `for`-loop limit temporaries, keyed by the `for`
    /// statement's id.
    pub for_temps: IdMap<StmtId, VarId>,
    /// Synthesized `case`-scrutinee temporaries (the scrutinee is
    /// evaluated once), keyed by the `case` statement's id.
    pub case_temps: IdMap<StmtId, VarId>,
    /// Owning unit (procedure body) of every statement.
    pub proc_of_stmt: IdMap<StmtId, ProcId>,
    /// Resolution of every `goto`: the procedure lexically owning the label
    /// and the normalized label name. A goto whose owner differs from the
    /// goto's own procedure is a *global goto* (§6).
    pub goto_res: IdMap<StmtId, (ProcId, Name)>,
    /// Labels declared per procedure (normalized names).
    pub labels_of_proc: IdMap<ProcId, Vec<Name>>,
}

impl Module {
    /// Variable info by id.
    ///
    /// # Panics
    /// Panics if `id` is not a variable of this module.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// Procedure info by id.
    ///
    /// # Panics
    /// Panics if `id` is not a procedure of this module.
    pub fn proc(&self, id: ProcId) -> &ProcInfo {
        &self.procs[id.0 as usize]
    }

    /// The AST declaration of a procedure (`None` for the main body).
    pub fn proc_decl(&self, id: ProcId) -> Option<&ProcDecl> {
        let info = self.proc(id);
        if info.decl_path.is_empty() && id == MAIN_PROC {
            return None;
        }
        let mut block = &self.program.block;
        let mut decl = None;
        for &i in &info.decl_path {
            decl = Some(&block.procs[i]);
            block = &block.procs[i].block;
        }
        decl
    }

    /// The body statements of a procedure (the main body for
    /// [`MAIN_PROC`]).
    pub fn proc_body(&self, id: ProcId) -> &[Stmt] {
        match self.proc_decl(id) {
            Some(d) => &d.block.body,
            None => &self.program.block.body,
        }
    }

    /// Looks up a procedure by (case-insensitive) name.
    pub fn proc_by_name(&self, name: &str) -> Option<ProcId> {
        self.procs
            .iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
            .map(|p| p.id)
    }

    /// Looks up a variable by (case-insensitive) name within a procedure,
    /// falling back through enclosing scopes to globals.
    pub fn var_in_scope(&self, proc: ProcId, name: &str) -> Option<VarId> {
        let mut cur = Some(proc);
        while let Some(p) = cur {
            if let Some(v) = self
                .vars
                .iter()
                .find(|v| v.owner == p && v.name.eq_ignore_ascii_case(name))
            {
                return Some(v.id);
            }
            cur = self.proc(p).parent;
        }
        None
    }

    /// All variables owned by a procedure.
    pub fn vars_of(&self, proc: ProcId) -> impl Iterator<Item = &VarInfo> {
        self.vars.iter().filter(move |v| v.owner == proc)
    }

    /// Whether `var` is non-local to `proc` (declared in an enclosing
    /// scope, including program level). Such variables are the subject of
    /// the paper's side-effect analysis.
    pub fn is_nonlocal(&self, proc: ProcId, var: VarId) -> bool {
        self.var(var).owner != proc
    }
}

/// Runs name resolution and type checking over a parsed program.
///
/// # Errors
///
/// Returns the first semantic error (undeclared name, type mismatch, bad
/// argument, duplicate declaration, unresolved label, …).
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{parser::parse_program, sema::analyze};
/// let prog = parse_program("program t; var x: integer; begin x := 1 end.")?;
/// let module = analyze(prog)?;
/// assert_eq!(module.procs.len(), 1); // just the main body
/// # Ok(())
/// # }
/// ```
pub fn analyze(program: Program) -> Result<Module> {
    analyze_or_else(program, |e, _| e)
}

/// [`analyze`] with a caller-built error: on failure, `on_error` gets
/// the diagnostic together with the rejected program, so a caller can
/// render that program without paying for the rendering when analysis
/// succeeds.
///
/// # Errors
///
/// `on_error`'s value for the first semantic error.
pub fn analyze_or_else<E>(
    program: Program,
    on_error: impl FnOnce(Diagnostic, &Program) -> E,
) -> Result<Module, E> {
    let mut cx = Checker::new();
    if let Err(e) = cx.run(&program) {
        return Err(on_error(e, &program));
    }
    Ok(Module {
        program,
        vars: cx.vars,
        procs: cx.procs,
        res: cx.res,
        expr_ty: cx.expr_ty,
        call_res: cx.call_res,
        for_temps: cx.for_temps,
        case_temps: cx.case_temps,
        proc_of_stmt: cx.proc_of_stmt,
        goto_res: cx.goto_res,
        labels_of_proc: cx.labels_of_proc,
    })
}

/// Convenience: parse then analyze.
///
/// # Errors
/// Propagates lexical, syntax, and semantic errors.
pub fn compile(source: &str) -> Result<Module> {
    analyze(crate::parser::parse_program(source)?)
}

#[derive(Debug, Clone)]
enum ScopeEntry {
    Var(VarId),
    Const(Value),
    Proc(ProcId),
    TypeName(Type),
}

#[derive(Default)]
struct Scope {
    entries: HashMap<Name, ScopeEntry>,
}

struct Checker {
    vars: Vec<VarInfo>,
    procs: Vec<ProcInfo>,
    res: IdMap<ExprId, NameRes>,
    expr_ty: IdMap<ExprId, Type>,
    call_res: IdMap<StmtId, ProcId>,
    for_temps: IdMap<StmtId, VarId>,
    case_temps: IdMap<StmtId, VarId>,
    proc_of_stmt: IdMap<StmtId, ProcId>,
    goto_res: IdMap<StmtId, (ProcId, Name)>,
    labels_of_proc: IdMap<ProcId, Vec<Name>>,
    scopes: Vec<Scope>,
    /// Procedure whose body is currently being checked.
    current_proc: ProcId,
}

fn err(msg: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(Stage::Sema, msg, span)
}

/// `Some(c)` iff `s` is exactly one character long — the string/char
/// disambiguation rule for Pascal literals.
pub(crate) fn single_char(s: &str) -> Option<char> {
    let mut chars = s.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Some(c),
        _ => None,
    }
}

impl Checker {
    fn new() -> Self {
        Checker {
            vars: Vec::new(),
            procs: Vec::new(),
            res: IdMap::default(),
            expr_ty: IdMap::default(),
            call_res: IdMap::default(),
            for_temps: IdMap::default(),
            case_temps: IdMap::default(),
            proc_of_stmt: IdMap::default(),
            goto_res: IdMap::default(),
            labels_of_proc: IdMap::default(),
            scopes: Vec::new(),
            current_proc: MAIN_PROC,
        }
    }

    fn run(&mut self, program: &Program) -> Result<()> {
        // Main body is procedure 0.
        self.procs.push(ProcInfo {
            id: MAIN_PROC,
            name: Name::new("<main>"),
            params: Vec::new(),
            return_type: None,
            result_var: None,
            parent: None,
            level: 0,
            span: program.span,
            decl_path: Vec::new(),
        });
        self.scopes.push(Scope::default());
        self.check_block(&program.block, MAIN_PROC, &[])?;
        self.scopes.pop();
        Ok(())
    }

    fn define(&mut self, name: &Ident, entry: ScopeEntry) -> Result<()> {
        let scope = self.scopes.last_mut().expect("scope stack nonempty");
        if scope.entries.insert(name.key(), entry).is_some() {
            return Err(err(format!("duplicate declaration of `{name}`"), name.span));
        }
        Ok(())
    }

    /// Resolves `name` case-insensitively through the scope stack. Only a
    /// name with an uppercase letter in it is copied, lowercased, and
    /// only a boxed one of those allocates.
    fn lookup(&self, name: &Name) -> Option<&ScopeEntry> {
        let lower;
        let key = if name.as_bytes().iter().any(u8::is_ascii_uppercase) {
            lower = name.to_ascii_lowercase();
            &lower
        } else {
            name
        };
        self.scopes.iter().rev().find_map(|s| s.entries.get(key))
    }

    fn new_var(
        &mut self,
        name: Name,
        span: Span,
        ty: Type,
        kind: VarKind,
        owner: ProcId,
        level: u32,
    ) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            id,
            name,
            ty,
            kind,
            owner,
            level,
            span,
        });
        id
    }

    /// Declares everything in `block` (for procedure `owner`) and checks its
    /// body.
    fn check_block(&mut self, block: &Block, owner: ProcId, decl_path: &[usize]) -> Result<()> {
        let level = self.procs[owner.0 as usize].level;

        // Labels.
        let mut labels = Vec::new();
        for l in &block.labels {
            let key = l.key();
            if labels.contains(&key) {
                return Err(err(format!("duplicate label `{l}`"), l.span));
            }
            labels.push(key);
        }
        self.labels_of_proc.insert(owner, labels);

        // Constants.
        for c in &block.consts {
            let value = match &c.value {
                ConstValue::Int(n) => Value::Int(*n),
                ConstValue::Real(x) => Value::Real(*x),
                ConstValue::Bool(b) => Value::Bool(*b),
                ConstValue::Str(s) => match single_char(s) {
                    Some(c) => Value::Char(c),
                    None => Value::Str(s.clone()),
                },
            };
            self.define(&c.name, ScopeEntry::Const(value))?;
        }

        // Types.
        for t in &block.types {
            let ty = self.resolve_type(&t.ty)?;
            self.define(&t.name, ScopeEntry::TypeName(ty))?;
        }

        // Variables.
        for group in &block.vars {
            let ty = self.resolve_type(&group.ty)?;
            for name in &group.names {
                let kind = if owner == MAIN_PROC {
                    VarKind::Global
                } else {
                    VarKind::Local
                };
                let id = self.new_var(name.name.clone(), name.span, ty.clone(), kind, owner, level);
                self.define(name, ScopeEntry::Var(id))?;
            }
        }

        // Procedure headers first (so siblings can call each other and
        // recursion works), then their bodies.
        let mut child_ids = Vec::new();
        for (i, p) in block.procs.iter().enumerate() {
            let pid = ProcId(self.procs.len() as u32);
            let return_type = match &p.return_type {
                Some(t) => Some(self.resolve_type(t)?),
                None => None,
            };
            let mut path = decl_path.to_vec();
            path.push(i);
            self.procs.push(ProcInfo {
                id: pid,
                name: p.name.name.clone(),
                params: Vec::new(),
                return_type,
                result_var: None,
                parent: Some(owner),
                level: level + 1,
                span: p.span,
                decl_path: path,
            });
            self.define(&p.name, ScopeEntry::Proc(pid))?;
            child_ids.push(pid);
        }
        for (p, pid) in block.procs.iter().zip(child_ids.iter().copied()) {
            self.check_proc(p, pid)?;
        }

        // Body.
        let saved = self.current_proc;
        self.current_proc = owner;
        for s in &block.body {
            self.check_stmt(s)?;
        }
        self.current_proc = saved;

        // Every goto in this body must have resolved (checked in
        // check_stmt); verify all labels referenced by local labeled
        // statements were declared.
        let declared = &self.labels_of_proc[&owner];
        let mut label_err = None;
        for s in &block.body {
            s.walk(&mut |s| {
                if let StmtKind::Labeled { label, .. } = &s.kind {
                    let known = declared.iter().any(|d| d.eq_ignore_ascii_case(&label.name));
                    if !known && label_err.is_none() {
                        label_err = Some(err(
                            format!("label `{label}` not declared in this block"),
                            label.span,
                        ));
                    }
                }
            });
        }
        if let Some(e) = label_err {
            return Err(e);
        }
        Ok(())
    }

    fn check_proc(&mut self, decl: &ProcDecl, pid: ProcId) -> Result<()> {
        let level = self.procs[pid.0 as usize].level;
        self.scopes.push(Scope::default());

        // Parameters.
        let mut param_ids = Vec::new();
        let mut position = 0;
        for group in &decl.params {
            let ty = self.resolve_type(&group.ty)?;
            for name in &group.names {
                let id = self.new_var(
                    name.name.clone(),
                    name.span,
                    ty.clone(),
                    VarKind::Param {
                        mode: group.mode,
                        position,
                    },
                    pid,
                    level,
                );
                self.define(name, ScopeEntry::Var(id))?;
                param_ids.push(id);
                position += 1;
            }
        }
        self.procs[pid.0 as usize].params = param_ids;

        // Function result pseudo-variable.
        if let Some(rt) = self.procs[pid.0 as usize].return_type.clone() {
            let (name, span) = (decl.name.name.clone(), decl.name.span);
            let rid = self.new_var(name, span, rt, VarKind::Result, pid, level);
            self.procs[pid.0 as usize].result_var = Some(rid);
            // NOTE: the function's own name stays visible as a Proc from the
            // enclosing scope; assignment `f := e` special-cases the result
            // variable in `resolve_lvalue`.
        }

        let path = self.procs[pid.0 as usize].decl_path.clone();
        self.check_block(&decl.block, pid, &path)?;
        self.scopes.pop();
        Ok(())
    }

    fn resolve_type(&self, t: &TypeExpr) -> Result<Type> {
        match t {
            TypeExpr::Named(name) => {
                let builtin = [
                    ("integer", Type::Integer),
                    ("real", Type::Real),
                    ("boolean", Type::Boolean),
                    ("char", Type::Char),
                ];
                if let Some((_, ty)) = builtin
                    .into_iter()
                    .find(|(n, _)| name.name.eq_ignore_ascii_case(n))
                {
                    return Ok(ty);
                }
                match self.lookup(&name.name) {
                    Some(ScopeEntry::TypeName(ty)) => Ok(ty.clone()),
                    _ => Err(err(format!("unknown type `{name}`"), name.span)),
                }
            }
            TypeExpr::Array { lo, hi, elem, span } => {
                let lo = self.resolve_bound(lo, *span)?;
                let hi = self.resolve_bound(hi, *span)?;
                if lo > hi {
                    return Err(err(
                        format!("array lower bound {lo} exceeds upper bound {hi}"),
                        *span,
                    ));
                }
                let elem = Box::new(self.resolve_type(elem)?);
                Ok(Type::Array { lo, hi, elem })
            }
        }
    }

    fn resolve_bound(&self, b: &ArrayBound, span: Span) -> Result<i64> {
        match b {
            ArrayBound::Lit(n) => Ok(*n),
            ArrayBound::Const(name) => match self.lookup(&name.name) {
                Some(ScopeEntry::Const(Value::Int(n))) => Ok(*n),
                Some(ScopeEntry::Const(_)) => Err(err(
                    format!("array bound `{name}` is not an integer constant"),
                    span,
                )),
                _ => Err(err(format!("unknown constant `{name}`"), name.span)),
            },
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn check_stmt(&mut self, s: &Stmt) -> Result<()> {
        self.proc_of_stmt.insert(s.id, self.current_proc);
        match &s.kind {
            StmtKind::Empty => Ok(()),
            StmtKind::Assign { lhs, rhs } => {
                let lty = self.resolve_lvalue(lhs)?;
                let rty = self.check_expr(rhs)?;
                if !lty.assignable_from(&rty) {
                    return Err(err(format!("cannot assign `{rty}` to `{lty}`"), s.span));
                }
                Ok(())
            }
            StmtKind::Call { name, args } => {
                let pid = match self.lookup(&name.name) {
                    Some(ScopeEntry::Proc(pid)) => *pid,
                    Some(_) => return Err(err(format!("`{name}` is not a procedure"), name.span)),
                    None => return Err(err(format!("undeclared procedure `{name}`"), name.span)),
                };
                if self.procs[pid.0 as usize].is_function() {
                    return Err(err(
                        format!("function `{name}` called as a statement"),
                        name.span,
                    ));
                }
                self.check_call_args(pid, name, args)?;
                self.call_res.insert(s.id, pid);
                Ok(())
            }
            StmtKind::Compound(stmts) => {
                for st in stmts {
                    self.check_stmt(st)?;
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expect_bool(cond)?;
                self.check_stmt(then_branch)?;
                if let Some(e) = else_branch {
                    self.check_stmt(e)?;
                }
                Ok(())
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_arm,
            } => {
                let sty = self.check_expr(scrutinee)?;
                if !matches!(sty, Type::Integer | Type::Char | Type::Boolean) {
                    return Err(err(
                        format!("case selector must be an ordinal type, found `{sty}`"),
                        scrutinee.span,
                    ));
                }
                let mut seen: Vec<Value> = Vec::new();
                for arm in arms {
                    for label in &arm.labels {
                        let v = match (label, &sty) {
                            (ConstValue::Int(n), Type::Integer) => Value::Int(*n),
                            (ConstValue::Bool(b), Type::Boolean) => Value::Bool(*b),
                            (ConstValue::Str(c), Type::Char) => match single_char(c) {
                                Some(ch) => Value::Char(ch),
                                None => {
                                    return Err(err(
                                        format!("case label does not match selector type `{sty}`"),
                                        s.span,
                                    ))
                                }
                            },
                            _ => {
                                return Err(err(
                                    format!("case label does not match selector type `{sty}`"),
                                    s.span,
                                ))
                            }
                        };
                        if seen.contains(&v) {
                            return Err(err(format!("duplicate case label `{v}`"), s.span));
                        }
                        seen.push(v);
                    }
                    self.check_stmt(&arm.stmt)?;
                }
                if let Some(e) = else_arm {
                    self.check_stmt(e)?;
                }
                // Scrutinee temp (evaluated once).
                let owner = self.current_proc;
                let level = self.procs[owner.0 as usize].level;
                let tmp_name = Name::format(format_args!("case@{}", s.id.0));
                let tmp = self.new_var(tmp_name, Span::dummy(), sty, VarKind::Temp, owner, level);
                self.case_temps.insert(s.id, tmp);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.expect_bool(cond)?;
                self.check_stmt(body)
            }
            StmtKind::Repeat { body, cond } => {
                for st in body {
                    self.check_stmt(st)?;
                }
                self.expect_bool(cond)
            }
            StmtKind::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let vid = match self.lookup(&var.name) {
                    Some(ScopeEntry::Var(v)) => *v,
                    _ => return Err(err(format!("undeclared loop variable `{var}`"), var.span)),
                };
                if self.vars[vid.0 as usize].ty != Type::Integer {
                    return Err(err(
                        format!("loop variable `{var}` must be integer"),
                        var.span,
                    ));
                }
                // Key the control variable under a synthetic expr id? The
                // `for` header has no expression node for `var`; lowering
                // re-resolves it via `for_var_res`, recorded here keyed by
                // statement id through `for_temps`' sibling map.
                self.res.insert(
                    ExprId(u32::MAX - s.id.0), // reserved key space for for-vars
                    NameRes::Var(vid),
                );
                let fty = self.check_expr(from)?;
                let tty = self.check_expr(to)?;
                if fty != Type::Integer || tty != Type::Integer {
                    return Err(err("for-loop bounds must be integer", s.span));
                }
                // Synthesize the hidden limit temporary (Pascal evaluates
                // the final value once).
                let owner = self.current_proc;
                let level = self.procs[owner.0 as usize].level;
                let tmp_name = Name::format(format_args!("limit@{}", s.id.0));
                let tmp = self.new_var(
                    tmp_name,
                    Span::dummy(),
                    Type::Integer,
                    VarKind::Temp,
                    owner,
                    level,
                );
                self.for_temps.insert(s.id, tmp);
                self.check_stmt(body)
            }
            StmtKind::Goto(label) => {
                // Resolve lexically: nearest enclosing procedure declaring
                // the label.
                let mut cur = Some(self.current_proc);
                while let Some(p) = cur {
                    if self
                        .labels_of_proc
                        .get(&p)
                        .is_some_and(|ls| ls.iter().any(|l| l.eq_ignore_ascii_case(&label.name)))
                    {
                        self.goto_res.insert(s.id, (p, label.key()));
                        return Ok(());
                    }
                    cur = self.procs[p.0 as usize].parent;
                }
                Err(err(format!("undeclared label `{label}`"), label.span))
            }
            StmtKind::Labeled { stmt, .. } => self.check_stmt(stmt),
            StmtKind::Read { args, .. } => {
                for lv in args {
                    let ty = self.resolve_lvalue(lv)?;
                    if !matches!(ty, Type::Integer | Type::Real | Type::Char) {
                        return Err(err(format!("cannot read into a `{ty}` value"), lv.span));
                    }
                }
                Ok(())
            }
            StmtKind::Write { args, .. } => {
                for e in args {
                    self.check_expr(e)?;
                }
                Ok(())
            }
        }
    }

    fn expect_bool(&mut self, e: &Expr) -> Result<()> {
        let ty = self.check_expr(e)?;
        if ty != Type::Boolean {
            return Err(err(
                format!("condition must be boolean, found `{ty}`"),
                e.span,
            ));
        }
        Ok(())
    }

    fn check_call_args(&mut self, pid: ProcId, name: &Ident, args: &[Expr]) -> Result<()> {
        let arity = self.procs[pid.0 as usize].params.len();
        if arity != args.len() {
            return Err(err(
                format!("`{name}` expects {arity} argument(s), got {}", args.len()),
                name.span,
            ));
        }
        for (i, arg) in args.iter().enumerate() {
            let aty = self.check_expr(arg)?;
            let pinfo = &self.vars[self.procs[pid.0 as usize].params[i].0 as usize];
            let mode = pinfo.param_mode().expect("param var has param kind");
            if mode.is_reference() {
                // Must be an lvalue of the exact same type.
                let is_lvalue = match &arg.kind {
                    ExprKind::Name(_) => matches!(self.res.get(&arg.id), Some(NameRes::Var(_))),
                    ExprKind::Index { .. } => true,
                    _ => false,
                };
                if !is_lvalue {
                    return Err(err(
                        format!(
                            "argument for `{}` parameter `{}` must be a variable",
                            mode, pinfo.name
                        ),
                        arg.span,
                    ));
                }
                if let Some(NameRes::Var(v)) = self.res.get(&arg.id) {
                    if self.vars[v.0 as usize].param_mode() == Some(ParamMode::In) {
                        return Err(err(
                            format!(
                                "cannot pass read-only `in` parameter `{}` by reference",
                                self.vars[v.0 as usize].name
                            ),
                            arg.span,
                        ));
                    }
                }
                if aty != pinfo.ty {
                    return Err(err(
                        format!(
                            "type mismatch for `var` parameter `{}`: expected `{}`, got `{aty}`",
                            pinfo.name, pinfo.ty
                        ),
                        arg.span,
                    ));
                }
            } else if !pinfo.ty.assignable_from(&aty) {
                return Err(err(
                    format!(
                        "type mismatch for parameter `{}`: expected `{}`, got `{aty}`",
                        pinfo.name, pinfo.ty
                    ),
                    arg.span,
                ));
            }
        }
        Ok(())
    }

    /// Resolves an assignment target, recording resolution and type under
    /// the lvalue's id. Handles the `f := expr` function-result convention
    /// and rejects writes to `in` parameters and loop temps.
    fn resolve_lvalue(&mut self, lv: &LValue) -> Result<Type> {
        // Function result assignment: the base names the current function
        // (or an enclosing one, per Pascal).
        let mut cur = Some(self.current_proc);
        while let Some(p) = cur {
            let info = &self.procs[p.0 as usize];
            if info.name.eq_ignore_ascii_case(&lv.base.name) {
                if let Some(rv) = info.result_var {
                    if lv.index.is_some() {
                        return Err(err("cannot index a function result", lv.span));
                    }
                    let ty = self.vars[rv.0 as usize].ty.clone();
                    self.res.insert(lv.id, NameRes::Var(rv));
                    self.expr_ty.insert(lv.id, ty.clone());
                    return Ok(ty);
                }
            }
            cur = info.parent;
        }

        let vid = match self.lookup(&lv.base.name) {
            Some(ScopeEntry::Var(v)) => *v,
            Some(ScopeEntry::Const(_)) => {
                return Err(err(
                    format!("cannot assign to constant `{}`", lv.base),
                    lv.span,
                ))
            }
            _ => return Err(err(format!("undeclared variable `{}`", lv.base), lv.span)),
        };
        let info = &self.vars[vid.0 as usize];
        if info.param_mode() == Some(ParamMode::In) {
            return Err(err(
                format!("cannot assign to read-only `in` parameter `{}`", info.name),
                lv.span,
            ));
        }
        self.res.insert(lv.id, NameRes::Var(vid));
        let ty = match &lv.index {
            None => self.vars[vid.0 as usize].ty.clone(),
            Some(idx) => {
                let ity = self.check_expr(idx)?;
                if ity != Type::Integer {
                    return Err(err("array index must be integer", idx.span));
                }
                let info = &self.vars[vid.0 as usize];
                match &info.ty {
                    Type::Array { elem, .. } => (**elem).clone(),
                    other => {
                        return Err(err(
                            format!("cannot index non-array `{}` of type `{other}`", info.name),
                            lv.span,
                        ))
                    }
                }
            }
        };
        self.expr_ty.insert(lv.id, ty.clone());
        Ok(ty)
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn check_expr(&mut self, e: &Expr) -> Result<Type> {
        let ty = self.infer_expr(e)?;
        self.expr_ty.insert(e.id, ty.clone());
        Ok(ty)
    }

    fn infer_expr(&mut self, e: &Expr) -> Result<Type> {
        match &e.kind {
            ExprKind::IntLit(_) => Ok(Type::Integer),
            ExprKind::RealLit(_) => Ok(Type::Real),
            ExprKind::BoolLit(_) => Ok(Type::Boolean),
            ExprKind::StrLit(s) => Ok(if s.chars().count() == 1 {
                Type::Char
            } else {
                Type::String
            }),
            ExprKind::Name(name) => match self.lookup(&name.name) {
                Some(ScopeEntry::Var(v)) => {
                    let v = *v;
                    if self.vars[v.0 as usize].kind == VarKind::Result {
                        return Err(err(
                            format!("cannot read function result `{name}`"),
                            name.span,
                        ));
                    }
                    self.res.insert(e.id, NameRes::Var(v));
                    Ok(self.vars[v.0 as usize].ty.clone())
                }
                Some(ScopeEntry::Const(value)) => {
                    let value = value.clone();
                    let ty = value.type_of();
                    self.res.insert(e.id, NameRes::Const(value));
                    Ok(ty)
                }
                Some(ScopeEntry::Proc(pid)) => {
                    let pid = *pid;
                    let info = &self.procs[pid.0 as usize];
                    match &info.return_type {
                        Some(rt) if info.params.is_empty() => {
                            let rt = rt.clone();
                            self.res.insert(e.id, NameRes::Proc(pid));
                            Ok(rt)
                        }
                        Some(_) => Err(err(
                            format!("function `{name}` requires arguments"),
                            name.span,
                        )),
                        None => Err(err(
                            format!("procedure `{name}` used in an expression"),
                            name.span,
                        )),
                    }
                }
                Some(ScopeEntry::TypeName(_)) => {
                    Err(err(format!("type `{name}` used as a value"), name.span))
                }
                None => Err(err(format!("undeclared identifier `{name}`"), name.span)),
            },
            ExprKind::Index { base, index } => {
                let ity = self.check_expr(index)?;
                if ity != Type::Integer {
                    return Err(err("array index must be integer", index.span));
                }
                match self.lookup(&base.name) {
                    Some(ScopeEntry::Var(v)) => {
                        let v = *v;
                        self.res.insert(e.id, NameRes::Var(v));
                        match &self.vars[v.0 as usize].ty {
                            Type::Array { elem, .. } => Ok((**elem).clone()),
                            other => Err(err(
                                format!("cannot index non-array of type `{other}`"),
                                base.span,
                            )),
                        }
                    }
                    _ => Err(err(format!("undeclared array `{base}`"), base.span)),
                }
            }
            ExprKind::Call { name, args } => match self.lookup(&name.name) {
                Some(ScopeEntry::Proc(pid)) => {
                    let pid = *pid;
                    let Some(rt) = self.procs[pid.0 as usize].return_type.clone() else {
                        return Err(err(
                            format!("procedure `{name}` used in an expression"),
                            name.span,
                        ));
                    };
                    self.check_call_args(pid, name, args)?;
                    self.res.insert(e.id, NameRes::Proc(pid));
                    Ok(rt)
                }
                Some(_) => Err(err(format!("`{name}` is not a function"), name.span)),
                // A declaration shadows an intrinsic of the same name.
                None => match Intrinsic::lookup(&name.name) {
                    Some(intr) => {
                        self.res.insert(e.id, NameRes::Intrinsic(intr));
                        self.check_intrinsic(intr, name, args)
                    }
                    None => Err(err(format!("undeclared function `{name}`"), name.span)),
                },
            },
            ExprKind::Unary { op, operand } => {
                let ty = self.check_expr(operand)?;
                match op {
                    UnOp::Neg if ty.is_numeric() => Ok(ty),
                    UnOp::Neg => Err(err(format!("cannot negate a `{ty}` value"), e.span)),
                    UnOp::Not if ty == Type::Boolean => Ok(ty),
                    UnOp::Not => Err(err(
                        format!("`not` requires a boolean, found `{ty}`"),
                        e.span,
                    )),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                let rt = self.check_expr(rhs)?;
                self.binary_type(*op, &lt, &rt, e.span)
            }
        }
    }

    fn check_intrinsic(&mut self, intr: Intrinsic, name: &Ident, args: &[Expr]) -> Result<Type> {
        if args.len() != 1 {
            return Err(err(
                format!("`{}` expects exactly one argument", intr.name()),
                name.span,
            ));
        }
        let aty = self.check_expr(&args[0])?;
        let ok = |t: Type| Ok(t);
        match intr {
            Intrinsic::Abs | Intrinsic::Sqr if aty.is_numeric() => ok(aty),
            Intrinsic::Odd if aty == Type::Integer => ok(Type::Boolean),
            Intrinsic::Ord if aty == Type::Char => ok(Type::Integer),
            Intrinsic::Chr if aty == Type::Integer => ok(Type::Char),
            Intrinsic::Trunc | Intrinsic::Round if aty == Type::Real => ok(Type::Integer),
            _ => Err(err(
                format!("invalid argument type `{aty}` for `{}`", intr.name()),
                args[0].span,
            )),
        }
    }

    fn binary_type(&self, op: BinOp, lt: &Type, rt: &Type, span: Span) -> Result<Type> {
        use BinOp::*;
        match op {
            Add | Sub | Mul => {
                if lt.is_numeric() && rt.is_numeric() {
                    Ok(if *lt == Type::Real || *rt == Type::Real {
                        Type::Real
                    } else {
                        Type::Integer
                    })
                } else {
                    Err(err(
                        format!("operator `{op}` requires numbers, found `{lt}` and `{rt}`"),
                        span,
                    ))
                }
            }
            FDiv => {
                if lt.is_numeric() && rt.is_numeric() {
                    Ok(Type::Real)
                } else {
                    Err(err(
                        format!("operator `/` requires numbers, found `{lt}` and `{rt}`"),
                        span,
                    ))
                }
            }
            Div | Mod => {
                if *lt == Type::Integer && *rt == Type::Integer {
                    Ok(Type::Integer)
                } else {
                    Err(err(
                        format!("operator `{op}` requires integers, found `{lt}` and `{rt}`"),
                        span,
                    ))
                }
            }
            And | Or => {
                if *lt == Type::Boolean && *rt == Type::Boolean {
                    Ok(Type::Boolean)
                } else {
                    Err(err(
                        format!("operator `{op}` requires booleans, found `{lt}` and `{rt}`"),
                        span,
                    ))
                }
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let comparable = (lt.is_numeric() && rt.is_numeric())
                    || (lt == rt && lt.is_scalar())
                    || (*lt == Type::String && *rt == Type::String);
                if comparable {
                    Ok(Type::Boolean)
                } else {
                    Err(err(format!("cannot compare `{lt}` with `{rt}`"), span))
                }
            }
        }
    }
}

/// The reserved expression-id key under which a `for` statement's control
/// variable resolution is recorded (the `for` header has no expression node
/// for the variable itself).
pub fn for_var_key(stmt: StmtId) -> ExprId {
    ExprId(u32::MAX - stmt.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Module {
        compile(src).unwrap_or_else(|e| panic!("sema failed: {e}\nsource: {src}"))
    }

    fn check_err(src: &str) -> Diagnostic {
        match compile(src) {
            Ok(_) => panic!("expected error for: {src}"),
            Err(e) => e,
        }
    }

    #[test]
    fn globals_and_locals_are_distinguished() {
        let m = check(
            "program t; var g: integer;
             procedure p; var l: integer; begin l := g end;
             begin g := 1 end.",
        );
        let p = m.proc_by_name("p").unwrap();
        let g = m.var_in_scope(MAIN_PROC, "g").unwrap();
        let l = m.var_in_scope(p, "l").unwrap();
        assert_eq!(m.var(g).kind, VarKind::Global);
        assert_eq!(m.var(l).kind, VarKind::Local);
        assert!(m.is_nonlocal(p, g));
        assert!(!m.is_nonlocal(p, l));
    }

    #[test]
    fn nested_scope_resolution() {
        let m = check(
            "program t; var x: integer;
             procedure outer; var x: integer;
               procedure inner; begin x := 1 end;
             begin inner end;
             begin x := 0 end.",
        );
        // inner's x must resolve to outer's x, not the global.
        let outer = m.proc_by_name("outer").unwrap();
        let inner = m.proc_by_name("inner").unwrap();
        let x_inner = m.var_in_scope(inner, "x").unwrap();
        assert_eq!(m.var(x_inner).owner, outer);
    }

    #[test]
    fn function_result_assignment() {
        let m = check(
            "program t; var r: integer;
             function f(y: integer): integer; begin f := y + 1 end;
             begin r := f(1) end.",
        );
        let f = m.proc_by_name("f").unwrap();
        assert!(m.proc(f).result_var.is_some());
    }

    #[test]
    fn recursive_function_calls_allowed() {
        check(
            "program t; var r: integer;
             function fact(n: integer): integer;
             begin
               if n <= 1 then fact := 1 else fact := n * fact(n - 1)
             end;
             begin r := fact(5) end.",
        );
    }

    #[test]
    fn type_errors_detected() {
        assert!(check_err("program t; var x: integer; begin x := true end.")
            .message
            .contains("assign"));
        assert!(
            check_err("program t; var x: integer; begin if x then x := 1 end.")
                .message
                .contains("boolean")
        );
        assert!(
            check_err("program t; var x: integer; b: boolean; begin x := x div b end.")
                .message
                .contains("integers")
        );
    }

    #[test]
    fn undeclared_names_detected() {
        assert!(check_err("program t; begin x := 1 end.")
            .message
            .contains("undeclared"));
        assert!(check_err("program t; begin p(1) end.")
            .message
            .contains("undeclared"));
    }

    #[test]
    fn duplicate_declaration_detected() {
        assert!(
            check_err("program t; var x: integer; x: integer; begin end.")
                .message
                .contains("duplicate")
        );
    }

    #[test]
    fn names_resolve_in_any_case() {
        let m = check(
            "program t; var Total: integer;
             procedure Bump(N: integer); begin TOTAL := total + n end;
             begin BUMP(2); Total := ABS(-1) end.",
        );
        let total = m.var_in_scope(MAIN_PROC, "total").unwrap();
        let uses = m
            .res
            .values()
            .filter(|r| matches!(r, NameRes::Var(v) if *v == total));
        assert_eq!(uses.count(), 3);
        assert_eq!(
            m.call_res.values().copied().collect::<Vec<_>>(),
            vec![m.proc_by_name("bump").unwrap()]
        );
        assert!(m
            .res
            .values()
            .any(|r| matches!(r, NameRes::Intrinsic(Intrinsic::Abs))));
        let e = check_err("program t; var x: integer; X: integer; begin end.");
        assert_eq!(e.message, "duplicate declaration of `X`");
    }

    #[test]
    fn var_param_requires_lvalue() {
        let e = check_err(
            "program t; var x: integer;
             procedure p(var y: integer); begin y := 1 end;
             begin p(x + 1) end.",
        );
        assert!(e.message.contains("variable"), "{}", e.message);
    }

    #[test]
    fn in_param_is_read_only() {
        let e = check_err(
            "program t;
             procedure p(in x: integer); begin x := 1 end;
             begin end.",
        );
        assert!(e.message.contains("read-only"), "{}", e.message);
    }

    #[test]
    fn in_param_cannot_be_passed_by_reference() {
        let e = check_err(
            "program t;
             procedure q(var y: integer); begin y := 1 end;
             procedure p(in x: integer); begin q(x) end;
             begin end.",
        );
        assert!(e.message.contains("read-only"), "{}", e.message);
    }

    #[test]
    fn arity_mismatch_detected() {
        let e = check_err(
            "program t;
             procedure p(x: integer); begin end;
             begin p(1, 2) end.",
        );
        assert!(e.message.contains("argument"), "{}", e.message);
    }

    #[test]
    fn array_types_via_const_bound() {
        let m = check(
            "program t; const n = 3;
             type arr = array[1..n] of integer;
             var a: arr;
             begin a[1] := 1 end.",
        );
        let a = m.var_in_scope(MAIN_PROC, "a").unwrap();
        assert_eq!(
            m.var(a).ty,
            Type::Array {
                lo: 1,
                hi: 3,
                elem: Box::new(Type::Integer)
            }
        );
    }

    #[test]
    fn global_goto_resolves_to_enclosing_proc() {
        let m = check(
            "program t; label 9;
             procedure p;
               procedure q; begin goto 9 end;
             begin q end;
             begin 9: end.",
        );
        let (owner, label) = m
            .goto_res
            .values()
            .next()
            .expect("one goto resolved")
            .clone();
        assert_eq!(owner, MAIN_PROC);
        assert_eq!(label, "9");
    }

    #[test]
    fn undeclared_label_detected() {
        assert!(check_err("program t; begin goto 9 end.")
            .message
            .contains("label"));
    }

    #[test]
    fn intrinsics_type_check() {
        check(
            "program t; var x: integer; r: real; b: boolean; c: char;
             begin
               x := abs(-3); x := sqr(2); b := odd(x);
               x := ord('a'); c := chr(65);
               x := trunc(1.5); x := round(r)
             end.",
        );
        assert!(
            check_err("program t; var b: boolean; begin b := odd(1.5) end.")
                .message
                .contains("invalid argument")
        );
    }

    #[test]
    fn for_loop_creates_limit_temp() {
        let m = check(
            "program t; var i, s: integer;
             begin s := 0; for i := 1 to 10 do s := s + i end.",
        );
        assert_eq!(m.for_temps.len(), 1);
        let tmp = *m.for_temps.values().next().unwrap();
        assert_eq!(m.var(tmp).kind, VarKind::Temp);
    }

    #[test]
    fn paper_figure4_program_analyzes() {
        let src = crate::testprogs::SQRTEST;
        let m = check(src);
        // 12 procedures/functions + main.
        assert_eq!(m.procs.len(), 14);
        assert!(m.proc_by_name("decrement").unwrap().0 > 0);
        assert!(m.proc(m.proc_by_name("decrement").unwrap()).is_function());
    }

    #[test]
    fn proc_body_accessor_finds_nested() {
        let m = check(
            "program t;
             procedure a; procedure b; begin end; begin b end;
             begin a end.",
        );
        let b = m.proc_by_name("b").unwrap();
        assert!(m.proc_decl(b).is_some());
        assert!(m.proc_body(b).is_empty() || !m.proc_body(b).is_empty());
        assert_eq!(m.proc_decl(b).unwrap().name.name, "b");
    }

    #[test]
    fn proc_of_stmt_is_recorded() {
        let m = check(
            "program t; var x: integer;
             procedure p; begin x := 1 end;
             begin p end.",
        );
        let p = m.proc_by_name("p").unwrap();
        let body = m.proc_body(p);
        assert_eq!(m.proc_of_stmt[&body[0].id], p);
    }

    #[test]
    fn analyze_then_reanalyze_is_stable() {
        let src = "program t; var x: integer; begin x := 1 end.";
        let p1 = parse_program(src).unwrap();
        let m1 = analyze(p1.clone()).unwrap();
        let m2 = analyze(p1).unwrap();
        assert_eq!(m1.vars.len(), m2.vars.len());
        assert_eq!(m1.procs.len(), m2.procs.len());
    }
}
