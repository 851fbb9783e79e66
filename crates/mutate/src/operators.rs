//! Deterministic mutation operators over `gadt-pascal` ASTs.
//!
//! A *mutation site* is one place in a program where one operator can
//! plant one fault. [`enumerate_sites`] lists every site of a program in
//! a fixed traversal order; [`apply`] replays the same traversal and
//! performs the single requested mutation. Because both go through one
//! shared driver, a site's `(op, ordinal)` pair is a stable address: the
//! same pair always denotes the same fault, which is what makes mutant
//! campaigns reproducible from a seed.
//!
//! [`apply`] returns a mutant as planted, which serve clients and the
//! benchmark print; [`materialize`] returns it as the parser reads that
//! text back, which a campaign analyzes without printing it.

use gadt_pascal::ast::*;
use gadt_pascal::ast_mut::{renumber, reshape, walk_stmt_exprs_mut, walk_stmt_mut};
use gadt_pascal::error::Diagnostic;
use gadt_pascal::name::Name;
use gadt_pascal::parser::parse_program;
use gadt_pascal::pretty;
use std::collections::{BTreeMap, BTreeSet};

/// A mutation operator: one class of planted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MutOp {
    /// Weaken/strengthen a comparison: `=`↔`<>`, `<`↔`<=`, `>`↔`>=`.
    RelOpFlip,
    /// Swap an arithmetic operator: `+`↔`-`, `*`→`+`, `div`→`*`, ….
    ArithOpSwap,
    /// Replace an integer literal `n` with `n + 1`.
    OffByOneConst,
    /// Replace one variable reference with another visible in the unit.
    WrongVarRef,
    /// Delete an assignment statement.
    DeleteAssign,
    /// Execute an assignment statement twice.
    DuplicateAssign,
    /// Negate an `if`/`while`/`repeat` condition.
    NegateCondition,
}

impl MutOp {
    /// Every operator, in the traversal's tie-break order.
    pub const ALL: [MutOp; 7] = [
        MutOp::RelOpFlip,
        MutOp::ArithOpSwap,
        MutOp::OffByOneConst,
        MutOp::WrongVarRef,
        MutOp::DeleteAssign,
        MutOp::DuplicateAssign,
        MutOp::NegateCondition,
    ];

    /// Short stable name for reports (`rel-op-flip`, …).
    pub fn name(self) -> &'static str {
        match self {
            MutOp::RelOpFlip => "rel-op-flip",
            MutOp::ArithOpSwap => "arith-op-swap",
            MutOp::OffByOneConst => "off-by-one-const",
            MutOp::WrongVarRef => "wrong-var-ref",
            MutOp::DeleteAssign => "delete-assign",
            MutOp::DuplicateAssign => "duplicate-assign",
            MutOp::NegateCondition => "negate-condition",
        }
    }
}

impl std::fmt::Display for MutOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One place where one operator can plant one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationSite {
    /// The operator.
    pub op: MutOp,
    /// Per-operator index in traversal order; `(op, ordinal)` addresses
    /// the site stably across [`enumerate_sites`]/[`apply`].
    pub ordinal: u32,
    /// Display name of the unit owning the mutated statement: the
    /// procedure/function name, or the program name for the main body
    /// (matching execution-tree node names).
    pub unit: String,
    /// Human-readable description of the planted fault.
    pub description: String,
}

/// Lists every mutation site of `program`, in traversal order.
pub fn enumerate_sites(program: &Program) -> Vec<MutationSite> {
    let mut scratch = program.clone();
    let mut act = Action::enumerate();
    drive(&mut scratch, &mut act);
    act.sites
}

/// Applies the single mutation addressed by `(site.op, site.ordinal)`,
/// returning the mutated program as planted, with freshly renumbered
/// ids: a deleted assignment is an empty statement, a duplicated one a
/// compound of two copies. Returns `None` if the address does not exist
/// in `program` (wrong program or stale site).
pub fn apply(program: &Program, site: &MutationSite) -> Option<Program> {
    let (mut mutant, _) = plant(program, site)?;
    renumber(&mut mutant);
    Some(mutant)
}

/// The mutant [`apply`] plants, as the parser reads back its printed
/// text: for a `program` the parser produced, `materialize(program,
/// site)` equals `parse_program(&print_program(&apply(program, site)?))`
/// once spans are erased, ids and fresh-id counters included, or fails
/// with the same diagnostic. The mutant is [`reshape`]d in memory; only
/// an off-by-one on `9223372036854775807`, whose `-9223372036854775808`
/// the lexer rejects, goes through the text. A duplicated assignment
/// or a negated condition nests one or two levels deeper than the
/// golden, so within two levels of
/// [`MAX_NESTING`](gadt_pascal::parser::MAX_NESTING) the printed text
/// may be refused where the materialized mutant is not. Returns `None`
/// where [`apply`] does.
pub fn materialize(program: &Program, site: &MutationSite) -> Option<Result<Program, Diagnostic>> {
    let (mut mutant, negative_literal) = plant(program, site)?;
    if negative_literal {
        return Some(parse_program(&pretty::print_program(&mutant)));
    }
    reshape(&mut mutant);
    Some(Ok(mutant))
}

/// Clones `program` and plants the mutation `site` addresses, without
/// renumbering; the flag says whether it planted a negative integer
/// literal, which the printer cannot write back as one.
fn plant(program: &Program, site: &MutationSite) -> Option<(Program, bool)> {
    let mut mutant = program.clone();
    let mut act = Action::apply(site.op, site.ordinal);
    drive(&mut mutant, &mut act);
    act.done.then_some((mutant, act.negative_literal))
}

/// Shared traversal state: enumerating records sites, applying mutates
/// at the addressed locus. Ordinals are per-operator counters advanced
/// at every eligible locus, so both modes agree on addresses.
struct Action {
    target: Option<(MutOp, u32)>,
    counters: BTreeMap<MutOp, u32>,
    sites: Vec<MutationSite>,
    done: bool,
    negative_literal: bool,
}

impl Action {
    fn enumerate() -> Self {
        Action {
            target: None,
            counters: BTreeMap::new(),
            sites: Vec::new(),
            done: false,
            negative_literal: false,
        }
    }

    fn apply(op: MutOp, ordinal: u32) -> Self {
        Action {
            target: Some((op, ordinal)),
            ..Action::enumerate()
        }
    }

    /// Registers one locus for `op`; returns `true` exactly when the
    /// caller should perform the mutation (apply mode, address match).
    /// Only enumerate mode renders the description.
    fn locus(&mut self, op: MutOp, unit: &str, description: impl FnOnce() -> String) -> bool {
        let ordinal = {
            let c = self.counters.entry(op).or_insert(0);
            let o = *c;
            *c += 1;
            o
        };
        match self.target {
            None => {
                self.sites.push(MutationSite {
                    op,
                    ordinal,
                    unit: unit.to_string(),
                    description: description(),
                });
                false
            }
            Some((top, tord)) => {
                if top == op && tord == ordinal {
                    self.done = true;
                    true
                } else {
                    false
                }
            }
        }
    }
}

fn drive(program: &mut Program, act: &mut Action) {
    let program_name = program.name.name.clone();
    fn rec(block: &mut Block, act: &mut Action) {
        for p in &mut block.procs {
            let unit = p.name.name.clone();
            let own_key = p.name.key();
            visit_unit(&unit, &own_key, &mut p.block.body, act);
            rec(&mut p.block, act);
        }
    }
    rec(&mut program.block, act);
    let main_key = program.name.key();
    visit_unit(&program_name, &main_key, &mut program.block.body, act);
}

fn visit_unit(unit: &str, unit_key: &str, body: &mut Vec<Stmt>, act: &mut Action) {
    if act.done {
        return;
    }
    // Only wrong-variable loci need the candidates: applying another
    // operator never counts them.
    let cands = if act.target.is_none_or(|(op, _)| op == MutOp::WrongVarRef) {
        wrongvar_candidates(body, unit_key)
    } else {
        BTreeSet::new()
    };
    for s in body {
        walk_stmt_mut(s, &mut |s| stmt_loci(s, unit, &cands, act));
    }
}

fn stmt_loci(s: &mut Stmt, unit: &str, cands: &BTreeSet<Name>, act: &mut Action) {
    if act.done {
        return;
    }
    // Statement-level loci on assignments.
    if let StmtKind::Assign { lhs, rhs } = &s.kind {
        let rendered = || format!("{} := {}", pretty::lvalue_str(lhs), pretty::expr_str(rhs));
        if act.locus(MutOp::DeleteAssign, unit, || {
            format!("delete `{}`", rendered())
        }) {
            s.kind = StmtKind::Empty;
            return;
        }
        if act.locus(MutOp::DuplicateAssign, unit, || {
            format!("duplicate `{}`", rendered())
        }) {
            let copy = s.clone();
            s.kind = StmtKind::Compound(vec![copy.clone(), copy]);
            return;
        }
    }
    if let StmtKind::Assign { lhs, .. } = &mut s.kind {
        if lhs.index.is_none() {
            if let Some(repl) = replacement(cands, &lhs.base) {
                if act.locus(MutOp::WrongVarRef, unit, || {
                    format!("assign to `{repl}` instead of `{}`", lhs.base.name)
                }) {
                    lhs.base = Ident::synthetic(repl);
                    return;
                }
            }
        }
    }
    // Condition negation.
    let cond_slot = match &mut s.kind {
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::Repeat { cond, .. } => Some(cond),
        _ => None,
    };
    if let Some(cond) = cond_slot {
        if act.locus(MutOp::NegateCondition, unit, || {
            format!("negate `{}`", pretty::expr_str(cond))
        }) {
            negate(cond);
            return;
        }
    }
    // Expression-level loci.
    walk_stmt_exprs_mut(s, &mut |e| expr_locus(e, unit, cands, act));
}

fn expr_locus(e: &mut Expr, unit: &str, cands: &BTreeSet<Name>, act: &mut Action) {
    if act.done {
        return;
    }
    enum Plan {
        Op(BinOp, BinOp),
        Lit(i64),
        Name(Name),
    }
    let (op, plan) = match &e.kind {
        ExprKind::Binary { op, .. } if op.is_relational() => {
            (MutOp::RelOpFlip, Plan::Op(*op, flip_rel(*op)))
        }
        ExprKind::Binary { op, .. } if is_arith(*op) => {
            (MutOp::ArithOpSwap, Plan::Op(*op, swap_arith(*op)))
        }
        ExprKind::IntLit(n) => (MutOp::OffByOneConst, Plan::Lit(n.wrapping_add(1))),
        ExprKind::Name(id) => match replacement(cands, id) {
            Some(repl) => (MutOp::WrongVarRef, Plan::Name(repl)),
            None => return,
        },
        _ => return,
    };
    // A literal or a name renders exactly as written.
    let describe = || match &plan {
        Plan::Op(old, new) => format!("replace `{old}` with `{new}` in `{}`", pretty::expr_str(e)),
        Plan::Lit(new) => format!("replace `{}` with `{new}`", pretty::expr_str(e)),
        Plan::Name(repl) => format!("read `{repl}` instead of `{}`", pretty::expr_str(e)),
    };
    if act.locus(op, unit, describe) {
        match plan {
            Plan::Op(_, new) => {
                if let ExprKind::Binary { op, .. } = &mut e.kind {
                    *op = new;
                }
            }
            Plan::Lit(n) => {
                act.negative_literal = n < 0;
                e.kind = ExprKind::IntLit(n);
            }
            Plan::Name(name) => e.kind = ExprKind::Name(Ident::synthetic(name)),
        }
    }
}

fn flip_rel(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Le,
        BinOp::Le => BinOp::Lt,
        BinOp::Gt => BinOp::Ge,
        BinOp::Ge => BinOp::Gt,
        other => other,
    }
}

fn is_arith(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::FDiv
    )
}

fn swap_arith(op: BinOp) -> BinOp {
    match op {
        BinOp::Add => BinOp::Sub,
        BinOp::Sub => BinOp::Add,
        BinOp::Mul => BinOp::Add,
        BinOp::Div => BinOp::Mul,
        BinOp::Mod => BinOp::Add,
        BinOp::FDiv => BinOp::Mul,
        other => other,
    }
}

fn negate(cond: &mut Expr) {
    let (id, span) = (cond.id, cond.span);
    // The duplicated id on the moved-in operand is resolved by the
    // renumbering pass that follows every application.
    let inner = std::mem::replace(
        cond,
        Expr {
            id,
            kind: ExprKind::BoolLit(false),
            span,
        },
    );
    cond.kind = ExprKind::Unary {
        op: UnOp::Not,
        operand: Box::new(inner),
    };
}

/// Names eligible as wrong-variable replacements within one unit: plain
/// scalar variable references of the body, minus array bases, callee
/// names, and the unit's own name (the Pascal function-result variable).
/// Staying inside names the body already uses keeps most mutants
/// well-typed; a mistyped survivor is rejected at compile time and
/// classified stillborn.
fn wrongvar_candidates(body: &[Stmt], unit_key: &str) -> BTreeSet<Name> {
    enum Occ {
        Name(Name),
        Excl(Name),
    }
    fn collect_expr(e: &Expr, occs: &mut Vec<Occ>) {
        match &e.kind {
            ExprKind::Name(id) => occs.push(Occ::Name(id.key())),
            ExprKind::Index { base, index } => {
                occs.push(Occ::Excl(base.key()));
                collect_expr(index, occs);
            }
            ExprKind::Call { name, args } => {
                occs.push(Occ::Excl(name.key()));
                for a in args {
                    collect_expr(a, occs);
                }
            }
            ExprKind::Unary { operand, .. } => collect_expr(operand, occs),
            ExprKind::Binary { lhs, rhs, .. } => {
                collect_expr(lhs, occs);
                collect_expr(rhs, occs);
            }
            _ => {}
        }
    }
    fn collect_lvalue(lv: &LValue, occs: &mut Vec<Occ>) {
        match &lv.index {
            None => occs.push(Occ::Name(lv.base.key())),
            Some(i) => {
                occs.push(Occ::Excl(lv.base.key()));
                collect_expr(i, occs);
            }
        }
    }
    let mut occs = vec![Occ::Excl(Name::new(unit_key))];
    for s in body {
        s.walk(&mut |s| match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                collect_lvalue(lhs, &mut occs);
                collect_expr(rhs, &mut occs);
            }
            StmtKind::Call { name, args } => {
                occs.push(Occ::Excl(name.key()));
                for a in args {
                    collect_expr(a, &mut occs);
                }
            }
            StmtKind::Write { args, .. } => {
                for a in args {
                    collect_expr(a, &mut occs);
                }
            }
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::Repeat { cond, .. } => collect_expr(cond, &mut occs),
            StmtKind::Case { scrutinee, .. } => collect_expr(scrutinee, &mut occs),
            StmtKind::For { var, from, to, .. } => {
                occs.push(Occ::Name(var.key()));
                collect_expr(from, &mut occs);
                collect_expr(to, &mut occs);
            }
            StmtKind::Read { args, .. } => {
                for lv in args {
                    collect_lvalue(lv, &mut occs);
                }
            }
            _ => {}
        });
    }
    let mut names: BTreeSet<Name> = BTreeSet::new();
    let mut excluded: BTreeSet<Name> = BTreeSet::new();
    for occ in occs {
        match occ {
            Occ::Name(n) => {
                names.insert(n);
            }
            Occ::Excl(n) => {
                excluded.insert(n);
            }
        }
    }
    names.retain(|n| !excluded.contains(n));
    names
}

/// The cyclic-next candidate after `name`, or `None` when `name` is not
/// a candidate or has no alternative. Loci with no replacement are
/// skipped entirely (they consume no ordinal).
fn replacement(cands: &BTreeSet<Name>, name: &Ident) -> Option<Name> {
    if cands.len() < 2 {
        return None;
    }
    let key = name.key();
    if !cands.contains(&key) {
        return None;
    }
    cands
        .iter()
        .skip_while(|c| **c != key)
        .nth(1)
        .or_else(|| cands.iter().next())
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::parser::parse_program;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    #[test]
    fn enumeration_is_deterministic_and_nonempty() {
        for (name, src) in testprogs::ALL {
            let p = parse_program(src).unwrap();
            let a = enumerate_sites(&p);
            let b = enumerate_sites(&p);
            assert_eq!(a, b, "{name}");
            assert!(!a.is_empty(), "{name} has no mutation sites");
        }
    }

    #[test]
    fn ordinals_are_dense_per_operator() {
        let p = parse_program(testprogs::MULTICHAIN).unwrap();
        let sites = enumerate_sites(&p);
        for op in MutOp::ALL {
            let ords: Vec<u32> = sites
                .iter()
                .filter(|s| s.op == op)
                .map(|s| s.ordinal)
                .collect();
            let expect: Vec<u32> = (0..ords.len() as u32).collect();
            assert_eq!(ords, expect, "{op}");
        }
    }

    #[test]
    fn apply_changes_the_program_and_renumbers() {
        let p = parse_program(testprogs::MULTICHAIN).unwrap();
        for site in enumerate_sites(&p) {
            let m = apply(&p, &site).unwrap_or_else(|| panic!("site vanished: {site:?}"));
            let (mut a, mut b) = (p.clone(), m.clone());
            gadt_pascal::ast_mut::normalize(&mut a);
            gadt_pascal::ast_mut::normalize(&mut b);
            assert_ne!(a, b, "mutation had no structural effect: {site:?}");
        }
    }

    #[test]
    fn most_multichain_mutants_compile() {
        let p = parse_program(testprogs::MULTICHAIN).unwrap();
        let sites = enumerate_sites(&p);
        let compiled = sites
            .iter()
            .filter(|s| {
                let m = apply(&p, s).unwrap();
                compile(&gadt_pascal::pretty::print_program(&m)).is_ok()
            })
            .count();
        assert!(
            compiled * 10 >= sites.len() * 9,
            "only {compiled}/{} mutants compile",
            sites.len()
        );
    }

    #[test]
    fn stale_address_returns_none() {
        let p = parse_program(testprogs::PQR).unwrap();
        let site = MutationSite {
            op: MutOp::RelOpFlip,
            ordinal: 10_000,
            unit: "nowhere".into(),
            description: String::new(),
        };
        assert!(apply(&p, &site).is_none());
    }

    #[test]
    fn units_match_execution_tree_names() {
        let p = parse_program(testprogs::MULTICHAIN).unwrap();
        let units: BTreeSet<String> = enumerate_sites(&p).into_iter().map(|s| s.unit).collect();
        assert!(units.contains("probe3"), "{units:?}");
        assert!(
            units.contains("chain"),
            "main-body unit is the program name: {units:?}"
        );
    }
}
