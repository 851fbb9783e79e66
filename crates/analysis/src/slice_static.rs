//! Static interprocedural program slicing (Weiser 1984).
//!
//! A slice criterion is a program point plus a variable set; the slice is
//! the set of statements that might affect those variables' values at that
//! point. The algorithm is Weiser's relevant-variable iteration on the
//! CFG, with
//!
//! * control dependence feedback (predicates controlling included
//!   statements join the slice, and their uses become relevant);
//! * interprocedural *descend* (a call writing relevant variables demands
//!   a slice of the callee at its exit, and the callee's entry-relevant
//!   variables map back through the argument list);
//! * interprocedural *ascend* (a sliced procedure's entry-relevant
//!   variables induce criteria at every call site, so the slice crosses
//!   procedure boundaries in both directions, as in the paper's §4).
//!
//! All sets grow monotonically, so the global fixpoint terminates.

use crate::callgraph::CallGraph;
use crate::controldep::ProgramControlDeps;
use crate::effects::{instr_effects, Effects};
use gadt_pascal::ast::StmtId;
use gadt_pascal::cfg::{CallArg, InstrKind, ProgramCfg, Terminator};
use gadt_pascal::sema::{Module, ProcId, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// Where a slice criterion is anchored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlicePoint {
    /// Immediately after the given statement.
    AfterStmt(StmtId),
    /// At the procedure's exit.
    ProcExit,
}

/// A static slicing criterion: ⟨point, variables⟩ in one procedure.
#[derive(Debug, Clone)]
pub struct SliceCriterion {
    /// Procedure containing the point.
    pub proc: ProcId,
    /// The point.
    pub point: SlicePoint,
    /// The variables of interest.
    pub vars: BTreeSet<VarId>,
}

impl SliceCriterion {
    /// Criterion "value of global `name` at the end of the program" —
    /// the form used for the paper's Figure 2 example.
    pub fn at_program_end(module: &Module, name: &str) -> Option<SliceCriterion> {
        let v = module.var_in_scope(gadt_pascal::sema::MAIN_PROC, name)?;
        Some(SliceCriterion {
            proc: gadt_pascal::sema::MAIN_PROC,
            point: SlicePoint::ProcExit,
            vars: BTreeSet::from([v]),
        })
    }

    /// Criterion "value of `var` at the exit of `proc`" — the form used
    /// when a user flags a wrong output variable of a procedure (§5.3.3).
    pub fn at_proc_exit(proc: ProcId, vars: impl IntoIterator<Item = VarId>) -> SliceCriterion {
        SliceCriterion {
            proc,
            point: SlicePoint::ProcExit,
            vars: vars.into_iter().collect(),
        }
    }
}

/// The result of static slicing.
#[derive(Debug, Clone, Default)]
pub struct StaticSlice {
    /// Statements in the slice (across all procedures).
    pub stmts: BTreeSet<StmtId>,
    /// Variables relevant at each sliced procedure's entry.
    pub entry_relevant: BTreeMap<ProcId, BTreeSet<VarId>>,
}

impl StaticSlice {
    /// Whether a statement is in the slice.
    pub fn contains(&self, s: StmtId) -> bool {
        self.stmts.contains(&s)
    }

    /// Number of statements in the slice.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

/// Precomputed analysis context shared by slicing queries.
#[derive(Debug, Clone)]
pub struct SliceContext<'m> {
    /// The module being sliced.
    pub module: &'m Module,
    /// Its CFG.
    pub cfg: &'m ProgramCfg,
    /// Call graph.
    pub cg: CallGraph,
    /// Side-effect summaries.
    pub fx: Effects,
    /// Control dependence.
    pub cd: ProgramControlDeps,
}

impl<'m> SliceContext<'m> {
    /// Builds the analysis context for a module.
    pub fn new(module: &'m Module, cfg: &'m ProgramCfg) -> Self {
        let cg = CallGraph::build(cfg);
        let fx = Effects::compute(module);
        let cd = ProgramControlDeps::compute(module, cfg);
        SliceContext {
            module,
            cfg,
            cg,
            fx,
            cd,
        }
    }
}

/// Per-procedure accumulated demands during the fixpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ProcDemand {
    /// Variables relevant at procedure exit.
    exit_vars: BTreeSet<VarId>,
    /// Variables to inject as relevant immediately after a statement.
    inject_after: BTreeMap<StmtId, BTreeSet<VarId>>,
    /// Statements force-included (e.g. call sites discovered by ascend).
    force_include: BTreeSet<StmtId>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ProcResult {
    stmts: BTreeSet<StmtId>,
    entry_relevant: BTreeSet<VarId>,
}

/// Computes a static slice for `criterion`.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, cfg::lower, testprogs};
/// use gadt_analysis::slice_static::{static_slice, SliceContext, SliceCriterion};
/// let m = compile(testprogs::FIGURE2)?;
/// let cfg = lower(&m);
/// let cx = SliceContext::new(&m, &cfg);
/// let c = SliceCriterion::at_program_end(&m, "mul").unwrap();
/// let slice = static_slice(&cx, &c);
/// assert!(!slice.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn static_slice(cx: &SliceContext<'_>, criterion: &SliceCriterion) -> StaticSlice {
    let n = cx.module.procs.len();
    let mut demands: Vec<ProcDemand> = vec![ProcDemand::default(); n];
    let mut results: Vec<ProcResult> = vec![ProcResult::default(); n];
    let mut demanded: BTreeSet<ProcId> = BTreeSet::new();

    // Seed with the root criterion.
    demanded.insert(criterion.proc);
    match &criterion.point {
        SlicePoint::ProcExit => {
            demands[criterion.proc.0 as usize]
                .exit_vars
                .extend(criterion.vars.iter().copied());
        }
        SlicePoint::AfterStmt(s) => {
            demands[criterion.proc.0 as usize]
                .inject_after
                .entry(*s)
                .or_default()
                .extend(criterion.vars.iter().copied());
        }
    }

    // Global fixpoint.
    loop {
        let mut changed = false;
        for p in demanded.clone() {
            let demand = demands[p.0 as usize].clone();
            let (res, callee_demands) = slice_proc(cx, p, &demand, &results);
            if res != results[p.0 as usize] {
                results[p.0 as usize] = res;
                changed = true;
            }
            // Descend: register demands on callees.
            for (q, vars) in callee_demands {
                let d = &mut demands[q.0 as usize];
                let before = d.exit_vars.len();
                d.exit_vars.extend(vars);
                if d.exit_vars.len() != before || demanded.insert(q) {
                    changed = true;
                }
            }
        }
        // Ascend: entry-relevant variables induce criteria at call sites.
        for p in demanded.clone() {
            let entry_rel = results[p.0 as usize].entry_relevant.clone();
            if entry_rel.is_empty() && results[p.0 as usize].stmts.is_empty() {
                continue;
            }
            for site in cx.cg.sites().iter().filter(|s| s.callee == p) {
                let caller = site.caller;
                // Map entry-relevant callee vars back to caller vars.
                let mapped = map_entry_to_call_site(cx, caller, p, site.stmt, &entry_rel);
                let d = &mut demands[caller.0 as usize];
                let mut local_change = false;
                if !results[p.0 as usize].stmts.is_empty() {
                    local_change |= d.force_include.insert(site.stmt);
                }
                if !mapped.is_empty() {
                    let e = d.inject_after.entry(site.stmt).or_default();
                    // Injected *before* the call conceptually; the slicer
                    // treats inject_after at a call statement as "relevant
                    // just before the call executes" via the call's uses,
                    // so we inject after the *preceding* point by marking
                    // the call's own uses. Simpler: inject at the call and
                    // let the call's backward transfer see them.
                    let before = e.len();
                    e.extend(mapped);
                    local_change |= e.len() != before;
                }
                if local_change {
                    demanded.insert(caller);
                    changed = true;
                }
            }
        }
        if !changed {
            // Input-order preservation: a slice that drops an *earlier*
            // `read` would shift the input stream seen by kept reads
            // (Weiser's executable-slice I/O caveat). Keep every read
            // that can execute before a kept read.
            let mut extra = false;
            let kept: BTreeSet<StmtId> = results
                .iter()
                .flat_map(|r| r.stmts.iter().copied())
                .collect();
            for (proc_idx, read_stmt) in reads_to_preserve(cx, &kept) {
                let d = &mut demands[proc_idx];
                if d.force_include.insert(read_stmt) {
                    demanded.insert(ProcId(proc_idx as u32));
                    extra = true;
                }
            }
            if !extra {
                break;
            }
        }
    }

    let mut out = StaticSlice::default();
    for p in &demanded {
        let r = &results[p.0 as usize];
        out.stmts.extend(r.stmts.iter().copied());
        if !r.entry_relevant.is_empty() || !r.stmts.is_empty() {
            out.entry_relevant.insert(*p, r.entry_relevant.clone());
        }
    }
    out
}

/// Unkept `read` statements that may execute before a kept read and must
/// therefore stay in the slice to preserve input order. Returns
/// `(proc index, stmt)` pairs.
fn reads_to_preserve(cx: &SliceContext<'_>, kept: &BTreeSet<StmtId>) -> Vec<(usize, StmtId)> {
    // All read sites: (proc, block, instr index, stmt, kept?).
    struct ReadSite {
        proc: usize,
        block: u32,
        index: usize,
        stmt: StmtId,
        kept: bool,
    }
    let mut sites = Vec::new();
    for pcfg in &cx.cfg.procs {
        for (bid, b) in pcfg.iter() {
            for (i, ins) in b.instrs.iter().enumerate() {
                if matches!(ins.kind, InstrKind::Read { .. }) {
                    sites.push(ReadSite {
                        proc: pcfg.proc.0 as usize,
                        block: bid.0,
                        index: i,
                        stmt: ins.stmt,
                        kept: kept.contains(&ins.stmt),
                    });
                }
            }
        }
    }
    if !sites.iter().any(|s| s.kept) {
        return Vec::new();
    }
    // Per-proc forward reachability over blocks.
    let reachable_from = |proc: usize, from: u32| -> BTreeSet<u32> {
        let pcfg = &cx.cfg.procs[proc];
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if !seen.insert(b) {
                continue;
            }
            for s in pcfg.blocks[b as usize].term.successors() {
                stack.push(s.0);
            }
        }
        seen
    };
    // Procs contributing at least one kept statement (reads elsewhere
    // never run in the slice).
    let mut live_procs: BTreeSet<usize> = BTreeSet::new();
    for info in &cx.module.procs {
        let mut any = false;
        for st in cx.module.proc_body(info.id) {
            st.walk(&mut |x| any |= kept.contains(&x.id));
        }
        if any {
            live_procs.insert(info.id.0 as usize);
        }
    }
    let mut out = Vec::new();
    for r in sites.iter().filter(|s| !s.kept) {
        if !live_procs.contains(&r.proc) {
            continue;
        }
        let must_keep = sites.iter().filter(|k| k.kept).any(|k| {
            if k.proc != r.proc {
                // Cross-procedure ordering: keep conservatively.
                true
            } else if k.block == r.block {
                k.index > r.index
            } else {
                reachable_from(r.proc, r.block).contains(&k.block)
            }
        });
        if must_keep {
            out.push((r.proc, r.stmt));
        }
    }
    out
}

/// Maps a callee's entry-relevant variables to caller-side variables at a
/// call site: parameters map through the argument list, visible non-locals
/// map to themselves.
fn map_entry_to_call_site(
    cx: &SliceContext<'_>,
    caller: ProcId,
    callee: ProcId,
    stmt: StmtId,
    entry_rel: &BTreeSet<VarId>,
) -> BTreeSet<VarId> {
    let mut mapped = BTreeSet::new();
    for v in entry_rel {
        let info = cx.module.var(*v);
        if info.owner != callee {
            // A non-local: visible in the caller under the same VarId.
            mapped.insert(*v);
        }
    }
    // Parameters: find the call's argument list(s) — statement-level
    // calls and calls nested inside the statement's expressions.
    let params = &cx.module.proc(callee).params;
    let pcfg = cx.cfg.proc(caller);
    let map_args = |args: &[CallArg], mapped: &mut BTreeSet<VarId>| {
        for (param, arg) in params.iter().zip(args) {
            if !entry_rel.contains(param) {
                continue;
            }
            match arg {
                CallArg::Value(e) => {
                    let mut uses = Vec::new();
                    e.collect_uses(&mut uses);
                    mapped.extend(uses);
                }
                CallArg::Ref(place) => {
                    mapped.insert(place.var);
                    if let Some(ix) = &place.index {
                        let mut uses = Vec::new();
                        ix.collect_uses(&mut uses);
                        mapped.extend(uses);
                    }
                }
            }
        }
    };
    for (_, b) in pcfg.iter() {
        for ins in &b.instrs {
            if ins.stmt != stmt {
                continue;
            }
            if let InstrKind::Call { callee: c, args } = &ins.kind {
                if *c == callee {
                    map_args(args, &mut mapped);
                }
            }
            for_each_expr_call(&ins.kind, &mut |c, args| {
                if c == callee {
                    map_args(args, &mut mapped);
                }
            });
        }
        if let Terminator::Branch { cond, stmt: ts, .. } = &b.term {
            if *ts == stmt {
                walk_rexpr_calls(cond, &mut |c, args| {
                    if c == callee {
                        map_args(args, &mut mapped);
                    }
                });
            }
        }
    }
    mapped
}

/// Visits every function call nested in an instruction's expressions.
fn for_each_expr_call(kind: &InstrKind, f: &mut dyn FnMut(ProcId, &[CallArg])) {
    match kind {
        InstrKind::Assign { lhs, rhs } => {
            walk_rexpr_calls(rhs, f);
            if let Some(ix) = &lhs.index {
                walk_rexpr_calls(ix, f);
            }
        }
        InstrKind::Call { args, .. } => {
            for a in args {
                match a {
                    CallArg::Value(e) => walk_rexpr_calls(e, f),
                    CallArg::Ref(p) => {
                        if let Some(ix) = &p.index {
                            walk_rexpr_calls(ix, f);
                        }
                    }
                }
            }
        }
        InstrKind::Read { target } => {
            if let Some(ix) = &target.index {
                walk_rexpr_calls(ix, f);
            }
        }
        InstrKind::Write { args, .. } => {
            for a in args {
                walk_rexpr_calls(a, f);
            }
        }
    }
}

fn walk_rexpr_calls(e: &gadt_pascal::cfg::RExpr, f: &mut dyn FnMut(ProcId, &[CallArg])) {
    use gadt_pascal::cfg::RExpr as R;
    match e {
        R::Call { callee, args } => {
            f(*callee, args);
            for a in args {
                match a {
                    CallArg::Value(x) => walk_rexpr_calls(x, f),
                    CallArg::Ref(p) => {
                        if let Some(ix) = &p.index {
                            walk_rexpr_calls(ix, f);
                        }
                    }
                }
            }
        }
        R::Index { index, .. } => walk_rexpr_calls(index, f),
        R::Intrinsic { arg, .. } => walk_rexpr_calls(arg, f),
        R::Unary { operand, .. } => walk_rexpr_calls(operand, f),
        R::Binary { lhs, rhs, .. } => {
            walk_rexpr_calls(lhs, f);
            walk_rexpr_calls(rhs, f);
        }
        R::Lit(_) | R::Var(_) => {}
    }
}

/// Slices one procedure given its accumulated demand. Returns the result
/// plus exit-var demands discovered for callees.
fn slice_proc(
    cx: &SliceContext<'_>,
    proc: ProcId,
    demand: &ProcDemand,
    results: &[ProcResult],
) -> (ProcResult, BTreeMap<ProcId, BTreeSet<VarId>>) {
    let pcfg = cx.cfg.proc(proc);
    let nblocks = pcfg.blocks.len();
    let cd = cx.cd.of(proc);

    let mut slice: BTreeSet<StmtId> = demand.force_include.clone();
    let mut callee_demands: BTreeMap<ProcId, BTreeSet<VarId>> = BTreeMap::new();
    // Relevant variables at the entry of each block.
    let mut rel_entry: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); nblocks];
    let mut entry_relevant: BTreeSet<VarId> = BTreeSet::new();

    // Close slice under control dependence.
    fn include(s: StmtId, slice: &mut BTreeSet<StmtId>, cd: &crate::controldep::ControlDeps) {
        if slice.insert(s) {
            for b in cd.controlling(s).collect::<Vec<_>>() {
                include(b, slice, cd);
            }
        }
    }
    for s in demand.force_include.iter().copied().collect::<Vec<_>>() {
        include(s, &mut slice, cd);
    }

    loop {
        let mut changed = false;
        // Backward pass over blocks (reverse order is a decent heuristic).
        for bi in (0..nblocks).rev() {
            let block = &pcfg.blocks[bi];
            // Relevant after the terminator.
            let mut r: BTreeSet<VarId> = match &block.term {
                Terminator::Return | Terminator::NonLocalGoto { .. } => demand.exit_vars.clone(),
                t => {
                    let mut acc = BTreeSet::new();
                    for s in t.successors() {
                        acc.extend(rel_entry[s.0 as usize].iter().copied());
                    }
                    acc
                }
            };
            // Branch terminator.
            if let Terminator::Branch { cond, stmt, .. } = &block.term {
                if slice.contains(stmt) {
                    let mut uses = Vec::new();
                    cond.collect_uses(&mut uses);
                    r.extend(uses);
                }
            }
            // Instructions, backward.
            for ins in block.instrs.iter().rev() {
                // Criterion/ascend injections take effect after the instr.
                if let Some(vars) = demand.inject_after.get(&ins.stmt) {
                    r.extend(vars.iter().copied());
                }
                let eff = instr_effects(cx.module, &cx.fx, &ins.kind);
                let relevant_defs: Vec<VarId> =
                    eff.defs.iter().copied().filter(|d| r.contains(d)).collect();
                if !relevant_defs.is_empty() || slice.contains(&ins.stmt) {
                    if !relevant_defs.is_empty() {
                        include(ins.stmt, &mut slice, cd);
                    }
                    if eff.strong {
                        for d in &eff.defs {
                            r.remove(d);
                        }
                    }
                    // Refined call handling: demand callee slices and map
                    // entry-relevant variables back precisely.
                    if let InstrKind::Call { callee, args } = &ins.kind {
                        let exit_demand = callee_exit_demand(cx, *callee, args, &relevant_defs);
                        if !exit_demand.is_empty() {
                            callee_demands
                                .entry(*callee)
                                .or_default()
                                .extend(exit_demand.iter().copied());
                        }
                        let callee_entry = &results[callee.0 as usize].entry_relevant;
                        r.extend(map_callee_entry_uses(cx, *callee, args, callee_entry));
                    } else {
                        r.extend(eff.uses.iter().copied());
                    }
                    // Function calls nested in this statement's
                    // expressions: their results feed the included
                    // statement, so demand slices of their bodies too.
                    for_each_expr_call(&ins.kind, &mut |callee, args| {
                        let mut dem: BTreeSet<VarId> = BTreeSet::new();
                        if let Some(rv) = cx.module.proc(callee).result_var {
                            dem.insert(rv);
                        }
                        for (param, arg) in cx.module.proc(callee).params.iter().zip(args) {
                            if matches!(arg, CallArg::Ref(_)) {
                                dem.insert(*param);
                            }
                        }
                        dem.extend(cx.fx.of(callee).mods.iter().copied());
                        if !dem.is_empty() {
                            callee_demands.entry(callee).or_default().extend(dem);
                        }
                    });
                }
            }
            if r != rel_entry[bi] {
                rel_entry[bi] = r;
                changed = true;
            }
        }
        let new_entry = rel_entry[pcfg.entry.0 as usize].clone();
        if new_entry != entry_relevant {
            entry_relevant = new_entry;
            changed = true;
        }
        if !changed {
            break;
        }
    }

    // Unconditional jumps can decide whether relevant statements execute
    // at all; when the procedure contributes to the slice, keep its gotos,
    // their target labels, and the branches controlling the gotos, so the
    // printed slice preserves control flow (conservative, à la Weiser).
    if !slice.is_empty() {
        let body = cx.module.proc_body(proc);
        let mut gotos: Vec<StmtId> = Vec::new();
        let mut labels: Vec<StmtId> = Vec::new();
        for s in body {
            s.walk(&mut |st| match &st.kind {
                gadt_pascal::ast::StmtKind::Goto(_) => gotos.push(st.id),
                gadt_pascal::ast::StmtKind::Labeled { .. } => labels.push(st.id),
                _ => {}
            });
        }
        if !gotos.is_empty() {
            for g in gotos {
                include(g, &mut slice, cd);
            }
            for l in labels {
                slice.insert(l);
            }
        }
    }

    // Entry-relevant: restrict to parameters and non-locals (locals dead
    // at entry carry no information).
    let entry_relevant = entry_relevant
        .into_iter()
        .filter(|v| {
            let info = cx.module.var(*v);
            info.owner != proc || info.is_param()
        })
        .collect();

    (
        ProcResult {
            stmts: slice,
            entry_relevant,
        },
        callee_demands,
    )
}

/// Which variables must be relevant at the callee's exit, given the
/// caller-relevant definitions of this call.
fn callee_exit_demand(
    cx: &SliceContext<'_>,
    callee: ProcId,
    args: &[CallArg],
    relevant_defs: &[VarId],
) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    let params = &cx.module.proc(callee).params;
    for (param, arg) in params.iter().zip(args) {
        if let CallArg::Ref(place) = arg {
            if relevant_defs.contains(&place.var) {
                out.insert(*param);
            }
        }
    }
    if let Some(rv) = cx.module.proc(callee).result_var {
        // Function result is always the point of a function call.
        out.insert(rv);
    }
    // Non-local MODs that are relevant.
    for v in &cx.fx.of(callee).mods {
        if relevant_defs.contains(v) {
            out.insert(*v);
        }
    }
    out
}

/// Maps a callee's entry-relevant set to caller-side uses at this call.
fn map_callee_entry_uses(
    cx: &SliceContext<'_>,
    callee: ProcId,
    args: &[CallArg],
    callee_entry: &BTreeSet<VarId>,
) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    let params = &cx.module.proc(callee).params;
    for (param, arg) in params.iter().zip(args) {
        let wanted = callee_entry.contains(param);
        match arg {
            CallArg::Value(e) => {
                if wanted {
                    let mut uses = Vec::new();
                    e.collect_uses(&mut uses);
                    out.extend(uses);
                }
            }
            CallArg::Ref(place) => {
                if wanted {
                    out.insert(place.var);
                }
                if let Some(ix) = &place.index {
                    let mut uses = Vec::new();
                    ix.collect_uses(&mut uses);
                    out.extend(uses);
                }
            }
        }
    }
    // Visible non-locals relevant at callee entry.
    for v in callee_entry {
        if cx.module.var(*v).owner != callee {
            out.insert(*v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::ast::StmtKind;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::pretty::print_slice;
    use gadt_pascal::sema::{compile, MAIN_PROC};
    use gadt_pascal::testprogs;

    fn slice_on_global(src: &str, name: &str) -> (Module, StaticSlice) {
        let m = compile(src).expect("compile");
        let cfg = lower(&m);
        let cx = SliceContext::new(&m, &cfg);
        let c = SliceCriterion::at_program_end(&m, name).expect("global exists");
        let s = static_slice(&cx, &c);
        (m, s)
    }

    /// Collects the source text of sliced statements for readable asserts.
    fn kept_sources(m: &Module, src: &str, s: &StaticSlice) -> Vec<String> {
        let mut out = Vec::new();
        let mut visit = |st: &gadt_pascal::ast::Stmt| {
            if s.contains(st.id)
                && !matches!(st.kind, StmtKind::Compound(_) | StmtKind::Labeled { .. })
            {
                let text = st.span.text(src).lines().next().unwrap_or("").trim();
                out.push(text.to_string());
            }
        };
        m.program.block.walk_stmts(&mut visit);
        m.program
            .walk_procs(&mut |_, p| p.block.walk_stmts(&mut visit));
        out
    }

    #[test]
    fn figure2_slice_on_mul_matches_paper() {
        let (m, s) = slice_on_global(testprogs::FIGURE2, "mul");
        let kept = kept_sources(&m, testprogs::FIGURE2, &s);
        // Figure 2(b): read(x,y); mul := 0; if x <= 1 …; mul := x * y.
        assert!(kept.iter().any(|t| t.starts_with("read(x, y)")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("mul := 0")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("if x <= 1")), "{kept:?}");
        assert!(
            kept.iter().any(|t| t.starts_with("mul := x * y")),
            "{kept:?}"
        );
        // Dropped: sum := 0, sum := x + y, read(z).
        assert!(!kept.iter().any(|t| t.contains("sum")), "{kept:?}");
        assert!(!kept.iter().any(|t| t.starts_with("read(z)")), "{kept:?}");
    }

    #[test]
    fn figure2_slice_on_sum_is_the_complement_core() {
        let (m, s) = slice_on_global(testprogs::FIGURE2, "sum");
        let kept = kept_sources(&m, testprogs::FIGURE2, &s);
        assert!(kept.iter().any(|t| t.starts_with("sum := 0")), "{kept:?}");
        assert!(
            kept.iter().any(|t| t.starts_with("sum := x + y")),
            "{kept:?}"
        );
        assert!(!kept.iter().any(|t| t.starts_with("mul")), "{kept:?}");
    }

    #[test]
    fn sliced_program_reparses_and_preserves_criterion_value() {
        // Differential test: run original and slice on the same input and
        // compare the criterion variable.
        let (m, s) = slice_on_global(testprogs::FIGURE2, "mul");
        let printed = print_slice(&m.program, &s.stmts);
        let m2 = compile(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        for input in [vec![0i64, 9], vec![1, 5], vec![3, 5, 7], vec![10, 2, 4]] {
            let mut i1 = gadt_pascal::interp::Interpreter::new(&m);
            i1.set_input(input.iter().map(|&n| gadt_pascal::value::Value::Int(n)));
            let o1 = i1.run().expect("original runs");
            let mut i2 = gadt_pascal::interp::Interpreter::new(&m2);
            i2.set_input(input.iter().map(|&n| gadt_pascal::value::Value::Int(n)));
            let o2 = i2.run().expect("slice runs");
            assert_eq!(o1.global("mul"), o2.global("mul"), "input {input:?}");
        }
    }

    #[test]
    fn slice_descends_into_procedures() {
        let src = "program t; var a, b, r1, r2: integer;
             procedure f(x: integer; var y: integer); begin y := x * 2 end;
             procedure g(x: integer; var y: integer); begin y := x + 1 end;
             begin
               read(a); read(b);
               f(a, r1);
               g(b, r2);
               writeln(r1, r2)
             end.";
        let (m, s) = slice_on_global(src, "r1");
        let kept = kept_sources(&m, src, &s);
        assert!(kept.iter().any(|t| t.starts_with("f(a, r1)")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("y := x * 2")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("read(a)")), "{kept:?}");
        // g and b are irrelevant to r1.
        assert!(!kept.iter().any(|t| t.starts_with("g(b, r2)")), "{kept:?}");
        assert!(
            !kept.iter().any(|t| t.starts_with("y := x + 1")),
            "{kept:?}"
        );
        assert!(!kept.iter().any(|t| t.starts_with("read(b)")), "{kept:?}");
    }

    #[test]
    fn figure5_slice_drops_irrelevant_calls() {
        let (m, s) = slice_on_global(testprogs::FIGURE5, "y");
        let kept = kept_sources(&m, testprogs::FIGURE5, &s);
        assert!(kept.iter().any(|t| t.starts_with("pn(x, y)")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("x := 6")), "{kept:?}");
        assert!(!kept.iter().any(|t| t.starts_with("p1(u1)")), "{kept:?}");
        assert!(!kept.iter().any(|t| t.starts_with("p2(u2)")), "{kept:?}");
        assert!(!kept.iter().any(|t| t.starts_with("p3(u3)")), "{kept:?}");
    }

    #[test]
    fn criterion_inside_procedure_ascends_to_callers() {
        // Slice on `y` at the exit of pn: x's computation in main must be
        // included via ascend.
        let m = compile(testprogs::FIGURE5).unwrap();
        let cfg = lower(&m);
        let cx = SliceContext::new(&m, &cfg);
        let pn = m.proc_by_name("pn").unwrap();
        let y_param = m.var_in_scope(pn, "y").unwrap();
        let c = SliceCriterion::at_proc_exit(pn, [y_param]);
        let s = static_slice(&cx, &c);
        let kept = kept_sources(&m, testprogs::FIGURE5, &s);
        assert!(kept.iter().any(|t| t.starts_with("y := x * x")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("x := 6")), "{kept:?}");
        assert!(!kept.iter().any(|t| t.starts_with("u1 := 1")), "{kept:?}");
    }

    #[test]
    fn loops_keep_their_own_updates() {
        let src = "program t; var i, s, junk: integer;
             begin
               s := 0; junk := 0;
               for i := 1 to 5 do begin s := s + i; junk := junk + 2 end;
               writeln(s)
             end.";
        let (m, s) = slice_on_global(src, "s");
        let kept = kept_sources(&m, src, &s);
        assert!(kept.iter().any(|t| t.starts_with("s := 0")), "{kept:?}");
        assert!(
            kept.iter().any(|t| t.starts_with("for i := 1 to 5")),
            "{kept:?}"
        );
        assert!(kept.iter().any(|t| t.starts_with("s := s + i")), "{kept:?}");
        assert!(
            !kept.iter().any(|t| t.starts_with("junk := junk + 2")),
            "{kept:?}"
        );
    }

    #[test]
    fn while_predicate_variables_are_relevant() {
        let src = "program t; var i, n, s: integer;
             begin
               read(n); i := 0; s := 0;
               while i < n do begin s := s + 1; i := i + 1 end;
               writeln(s)
             end.";
        let (m, s) = slice_on_global(src, "s");
        let kept = kept_sources(&m, src, &s);
        // n controls the loop, so read(n) is in the slice.
        assert!(kept.iter().any(|t| t.starts_with("read(n)")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("i := 0")), "{kept:?}");
    }

    #[test]
    fn function_calls_slice_into_function_bodies() {
        let (m, s) = slice_on_global(testprogs::SQRTEST, "isok");
        // Everything contributing to isok is in the slice, including the
        // buggy decrement body.
        let decrement = m.proc_by_name("decrement").unwrap();
        let dec_stmts: Vec<StmtId> = m.proc_body(decrement).iter().map(|st| st.id).collect();
        assert!(
            dec_stmts.iter().any(|id| s.contains(*id)),
            "decrement body must be in the isok slice"
        );
    }

    #[test]
    fn slice_on_r1_excludes_r2_chain() {
        // Slice on sqrtest's r1 at its exit: comput2/square must be out.
        let m = compile(testprogs::SQRTEST).unwrap();
        let cfg = lower(&m);
        let cx = SliceContext::new(&m, &cfg);
        let sqrtest = m.proc_by_name("sqrtest").unwrap();
        let r1 = m.var_in_scope(sqrtest, "r1").unwrap();
        let c = SliceCriterion::at_proc_exit(sqrtest, [r1]);
        let s = static_slice(&cx, &c);
        let square = m.proc_by_name("square").unwrap();
        let square_in_slice = m.proc_body(square).iter().any(|st| {
            let mut any = false;
            st.walk(&mut |x| any |= s.contains(x.id));
            any
        });
        assert!(!square_in_slice, "square is irrelevant to r1");
        let sum2 = m.proc_by_name("sum2").unwrap();
        let sum2_in_slice = m.proc_body(sum2).iter().any(|st| {
            let mut any = false;
            st.walk(&mut |x| any |= s.contains(x.id));
            any
        });
        assert!(sum2_in_slice, "sum2 computes s2 which feeds r1 via add");
    }

    #[test]
    fn empty_criterion_gives_empty_slice() {
        let m = compile(testprogs::FIGURE2).unwrap();
        let cfg = lower(&m);
        let cx = SliceContext::new(&m, &cfg);
        let c = SliceCriterion::at_proc_exit(MAIN_PROC, []);
        let s = static_slice(&cx, &c);
        assert!(s.is_empty());
    }

    #[test]
    fn misnamed_variable_slice_excludes_mistyped_computation() {
        // §5.3.3: a misnamed variable in an argument causes a should-be
        // relevant computation to be sliced out; the slice on the wrong
        // output still contains the call itself.
        let src = "program t; var a, b, r: integer;
             procedure f(x: integer; var y: integer); begin y := x * 2 end;
             begin
               a := 1; b := 99;
               f(b, r); (* should have been f(a, r) *)
               writeln(r)
             end.";
        let (m, s) = slice_on_global(src, "r");
        let kept = kept_sources(&m, src, &s);
        assert!(kept.iter().any(|t| t.starts_with("f(b, r)")), "{kept:?}");
        assert!(kept.iter().any(|t| t.starts_with("b := 99")), "{kept:?}");
        assert!(!kept.iter().any(|t| t.starts_with("a := 1")), "{kept:?}");
    }

    #[test]
    fn earlier_reads_are_kept_to_preserve_input_order() {
        // Dropping read(a) would make read(b) consume a's input value
        // (Weiser's executable-slice I/O caveat). The slicer must keep it.
        let src = "program t; var a, b: integer;
             begin read(a); read(b); writeln(b) end.";
        let (m, s) = slice_on_global(src, "b");
        let printed = print_slice(&m.program, &s.stmts);
        assert!(printed.contains("read(a)"), "{printed}");
        let sm = compile(&printed).unwrap();
        let run = |mm: &Module| {
            let mut i = gadt_pascal::interp::Interpreter::new(mm);
            i.set_input([
                gadt_pascal::value::Value::Int(7),
                gadt_pascal::value::Value::Int(42),
            ]);
            i.run().unwrap().global("b").cloned()
        };
        assert_eq!(run(&m), run(&sm));
    }

    #[test]
    fn later_reads_can_still_be_dropped() {
        // The paper's Figure 2 relies on dropping read(z), which executes
        // strictly after the kept read — that stays possible.
        let src = "program t; var a, b, z: integer;
             begin read(a); read(b); read(z); writeln(b) end.";
        let (m, s) = slice_on_global(src, "b");
        let printed = print_slice(&m.program, &s.stmts);
        assert!(printed.contains("read(a)"), "{printed}");
        assert!(printed.contains("read(b)"), "{printed}");
        assert!(!printed.contains("read(z)"), "{printed}");
    }

    #[test]
    fn goto_programs_slice_conservatively_and_run() {
        let (m, s) = slice_on_global(testprogs::SECTION6_LOOP_GOTO, "s");
        let printed = print_slice(&m.program, &s.stmts);
        // The slice must re-parse; goto/label structure is preserved when
        // relevant.
        compile(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    }
}
