//! Postdominators and control dependence.
//!
//! Control dependence (Ferrante–Ottenstein–Warren on the CFG with a
//! virtual exit) tells the slicers which branch decides whether a
//! statement executes. Both the static slicer (include the predicates
//! controlling included statements) and the dynamic slicer (dynamic
//! control parents) consume this.

use gadt_pascal::ast::StmtId;
use gadt_pascal::cfg::{BlockId, ProcCfg, ProgramCfg, Terminator};
use gadt_pascal::sema::{Module, ProcId};

/// Postdominator sets for one procedure's CFG.
#[derive(Debug, Clone)]
pub struct PostDom {
    /// One bitset row of `words` words per block, then one for the
    /// virtual exit (bit `n` of every row): row `b` holds the blocks
    /// that postdominate block `b`, including `b`.
    rows: Vec<u64>,
    words: usize,
}

impl PostDom {
    /// Computes postdominators of a procedure CFG.
    pub fn compute(cfg: &ProcCfg) -> Self {
        let n = cfg.blocks.len();
        let exit = n; // virtual exit index
        let words = (n + 1).div_ceil(64);
        // Every row starts as the full set {0..=n}; the exit's row is
        // {exit}. Bits past `n` stay clear, so rows compare as sets.
        let mut full = vec![0u64; words];
        for i in 0..=n {
            full[i / 64] |= 1 << (i % 64);
        }
        let mut rows = full.repeat(n + 1);
        rows[exit * words..].fill(0);
        rows[exit * words + exit / 64] |= 1 << (exit % 64);

        let mut new = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                // The intersection of the successors' rows, plus `b`
                // itself. A block that leaves the procedure has the
                // virtual exit as its one successor.
                let (first, second) = match &cfg.blocks[b].term {
                    Terminator::Jump(t) => (t.0 as usize, None),
                    Terminator::Branch {
                        then_bb, else_bb, ..
                    } => (then_bb.0 as usize, Some(else_bb.0 as usize)),
                    Terminator::Return | Terminator::NonLocalGoto { .. } => (exit, None),
                };
                new.copy_from_slice(&rows[first * words..(first + 1) * words]);
                if let Some(s) = second {
                    for (w, x) in new.iter_mut().zip(&rows[s * words..(s + 1) * words]) {
                        *w &= x;
                    }
                }
                new[b / 64] |= 1 << (b % 64);
                let row = &mut rows[b * words..(b + 1) * words];
                if *row != *new {
                    row.copy_from_slice(&new);
                    changed = true;
                }
            }
        }
        PostDom { rows, words }
    }

    /// Whether block `a` postdominates block `b`.
    pub fn postdominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        a / 64 < self.words && self.rows[b * self.words + a / 64] >> (a % 64) & 1 == 1
    }
}

/// Control dependence for one procedure, at statement level.
///
/// One sorted list of `(statement, controlling branch statement)`
/// pairs: a lookup is a binary search, and computing it allocates the
/// list and the postdominator rows, not a set per statement.
#[derive(Debug, Clone)]
pub struct ControlDeps {
    pairs: Vec<(StmtId, StmtId)>,
}

impl ControlDeps {
    /// Computes control dependence for one procedure.
    ///
    /// A block `b` is control-dependent on a branch block `a` when `b`
    /// is a successor `s` of `a` or postdominates one, and does not
    /// strictly postdominate `a`; every statement of `b` (its
    /// instructions' and its terminator's) is then controlled by `a`'s
    /// branch statement. A loop predicate controls itself.
    pub fn compute(cfg: &ProcCfg) -> Self {
        let pdom = PostDom::compute(cfg);
        let mut pairs = Vec::new();
        for (a, blk) in cfg.iter() {
            let Terminator::Branch {
                then_bb,
                else_bb,
                stmt: branch,
                ..
            } = &blk.term
            else {
                continue;
            };
            for (b, dependent) in cfg.iter() {
                let pd_succ = [*then_bb, *else_bb]
                    .into_iter()
                    .any(|s| b == s || pdom.postdominates(b, s));
                let strictly_pd_a = b != a && pdom.postdominates(b, a);
                if pd_succ && !strictly_pd_a {
                    let stmts = dependent.instrs.iter().map(|i| i.stmt);
                    pairs.extend(stmts.chain(dependent.term.stmt()).map(|s| (s, *branch)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        ControlDeps { pairs }
    }

    /// Branch statements controlling `stmt`, in ascending order (empty
    /// if none).
    pub fn controlling(&self, stmt: StmtId) -> impl Iterator<Item = StmtId> + '_ {
        let start = self.pairs.partition_point(|&(s, _)| s < stmt);
        self.pairs[start..]
            .iter()
            .take_while(move |&&(s, _)| s == stmt)
            .map(|&(_, branch)| branch)
    }

    /// Every `(statement, controlling branch statement)` pair, sorted.
    pub fn pairs(&self) -> &[(StmtId, StmtId)] {
        &self.pairs
    }
}

/// Control dependence for every procedure of a program.
#[derive(Debug, Clone)]
pub struct ProgramControlDeps {
    per_proc: Vec<ControlDeps>,
}

impl ProgramControlDeps {
    /// Computes control dependence for all procedures.
    pub fn compute(_module: &Module, cfg: &ProgramCfg) -> Self {
        ProgramControlDeps {
            per_proc: cfg.procs.iter().map(ControlDeps::compute).collect(),
        }
    }

    /// The per-procedure result.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn of(&self, p: ProcId) -> &ControlDeps {
        &self.per_proc[p.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::ast::StmtKind;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::{compile, MAIN_PROC};

    /// Finds the statement id of the first statement whose printed form
    /// contains `needle`.
    fn stmt_matching(m: &Module, proc: ProcId, pred: impl Fn(&StmtKind) -> bool) -> StmtId {
        let mut found = None;
        for s in m.proc_body(proc) {
            s.walk(&mut |st| {
                if found.is_none() && pred(&st.kind) {
                    found = Some(st.id);
                }
            });
        }
        found.expect("statement not found")
    }

    #[test]
    fn if_branches_depend_on_condition() {
        let m = compile(
            "program t; var x, y: integer;
             begin
               read(x);
               if x > 0 then y := 1 else y := 2;
               y := 3
             end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let cd = ControlDeps::compute(cfg.proc(MAIN_PROC));
        let if_stmt = stmt_matching(&m, MAIN_PROC, |k| matches!(k, StmtKind::If { .. }));
        let then_assign = stmt_matching(&m, MAIN_PROC, |k| {
            matches!(k, StmtKind::Assign { rhs, .. }
                if matches!(rhs.kind, gadt_pascal::ast::ExprKind::IntLit(1)))
        });
        let after = stmt_matching(&m, MAIN_PROC, |k| {
            matches!(k, StmtKind::Assign { rhs, .. }
                if matches!(rhs.kind, gadt_pascal::ast::ExprKind::IntLit(3)))
        });
        let deps: Vec<StmtId> = cd.controlling(then_assign).collect();
        assert_eq!(deps, vec![if_stmt]);
        assert_eq!(cd.controlling(after).count(), 0);
        let read = stmt_matching(&m, MAIN_PROC, |k| matches!(k, StmtKind::Read { .. }));
        assert_eq!(cd.controlling(read).count(), 0);
    }

    #[test]
    fn loop_body_depends_on_loop_predicate() {
        let m = compile(
            "program t; var i, s: integer;
             begin while i < 3 do begin s := s + 1; i := i + 1 end end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let cd = ControlDeps::compute(cfg.proc(MAIN_PROC));
        let while_stmt = stmt_matching(&m, MAIN_PROC, |k| matches!(k, StmtKind::While { .. }));
        let body_assign = stmt_matching(&m, MAIN_PROC, |k| matches!(k, StmtKind::Assign { .. }));
        let deps: Vec<StmtId> = cd.controlling(body_assign).collect();
        assert_eq!(deps, vec![while_stmt]);
        // The loop predicate controls itself (back edge).
        let self_deps: Vec<StmtId> = cd.controlling(while_stmt).collect();
        assert_eq!(self_deps, vec![while_stmt]);
    }

    #[test]
    fn nested_ifs_stack_dependences() {
        let m = compile(
            "program t; var a, b, x: integer;
             begin
               if a > 0 then
                 if b > 0 then
                   x := 1
             end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let cd = ControlDeps::compute(cfg.proc(MAIN_PROC));
        let assign = stmt_matching(&m, MAIN_PROC, |k| matches!(k, StmtKind::Assign { .. }));
        // x := 1 is directly controlled by the inner if only; transitivity
        // comes from the inner if being controlled by the outer.
        let deps: Vec<StmtId> = cd.controlling(assign).collect();
        assert_eq!(deps.len(), 1);
        let inner_if = deps[0];
        let outer: Vec<StmtId> = cd.controlling(inner_if).collect();
        assert_eq!(outer.len(), 1);
        assert_ne!(outer[0], inner_if);
    }

    #[test]
    fn straight_line_has_no_dependences() {
        let m = compile("program t; var x: integer; begin x := 1; x := 2 end.").unwrap();
        let cfg = lower(&m);
        let cd = ControlDeps::compute(cfg.proc(MAIN_PROC));
        assert!(cd.pairs().is_empty());
    }

    #[test]
    fn postdom_basics() {
        let m = compile(
            "program t; var x: integer;
             begin if x > 0 then x := 1 else x := 2; x := 3 end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let pd = PostDom::compute(cfg.proc(MAIN_PROC));
        // The join block (containing x := 3) postdominates the entry.
        let main = cfg.proc(MAIN_PROC);
        let join = main
            .iter()
            .find(|(_, b)| {
                b.instrs
                    .iter()
                    .any(|i| matches!(&i.kind, gadt_pascal::cfg::InstrKind::Assign { rhs, .. }
                        if matches!(rhs, gadt_pascal::cfg::RExpr::Lit(gadt_pascal::value::Value::Int(3)))))
            })
            .map(|(id, _)| id)
            .expect("join block");
        assert!(pd.postdominates(join, main.entry));
        // Then-block does not postdominate entry.
        let then_blk = main
            .iter()
            .find(|(_, b)| {
                b.instrs
                    .iter()
                    .any(|i| matches!(&i.kind, gadt_pascal::cfg::InstrKind::Assign { rhs, .. }
                        if matches!(rhs, gadt_pascal::cfg::RExpr::Lit(gadt_pascal::value::Value::Int(1)))))
            })
            .map(|(id, _)| id)
            .unwrap();
        assert!(!pd.postdominates(then_blk, main.entry));
    }

    #[test]
    fn program_control_deps_cover_all_procs() {
        let m = compile(gadt_pascal::testprogs::SQRTEST).unwrap();
        let cfg = lower(&m);
        let pcd = ProgramControlDeps::compute(&m, &cfg);
        // arrsum's loop body assign is controlled by the for statement.
        let arrsum = m.proc_by_name("arrsum").unwrap();
        let cd = pcd.of(arrsum);
        assert!(!cd.pairs().is_empty());
    }
}

#[cfg(test)]
mod unreachable_tests {
    use super::*;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::{compile, MAIN_PROC};

    #[test]
    fn postdom_and_cd_handle_unreachable_blocks() {
        // `x := 2` is parked in an unreachable block after the goto.
        let m = compile(
            "program t; label 9; var x: integer;
             begin
               x := 1;
               goto 9;
               x := 2;
               if x > 0 then x := 3;
               9: writeln(x)
             end.",
        )
        .unwrap();
        let cfg = lower(&m);
        // Must not panic or loop; control dependences stay well-formed:
        // sorted, without repeats, and every controller is a branch.
        let main = cfg.proc(MAIN_PROC);
        let cd = ControlDeps::compute(main);
        assert!(cd.pairs().windows(2).all(|w| w[0] < w[1]));
        let branches: Vec<StmtId> = main
            .iter()
            .filter_map(|(_, b)| match &b.term {
                Terminator::Branch { stmt, .. } => Some(*stmt),
                _ => None,
            })
            .collect();
        assert!(!branches.is_empty());
        for &(_, branch) in cd.pairs() {
            assert!(branches.contains(&branch));
        }
        let _ = PostDom::compute(main);
    }

    #[test]
    fn static_slice_with_unreachable_code_is_executable() {
        use crate::slice_static::{static_slice, SliceContext, SliceCriterion};
        let m = compile(
            "program t; label 9; var x, y: integer;
             begin
               x := 1; y := 5;
               goto 9;
               y := 99;
               9: x := x + y;
               writeln(x)
             end.",
        )
        .unwrap();
        let cfg = lower(&m);
        let cx = SliceContext::new(&m, &cfg);
        let crit = SliceCriterion::at_program_end(&m, "x").unwrap();
        let slice = static_slice(&cx, &crit);
        let printed = gadt_pascal::pretty::print_slice(&m.program, &slice.stmts);
        let sm = gadt_pascal::sema::compile(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        let o1 = gadt_pascal::interp::Interpreter::new(&m).run().unwrap();
        let o2 = gadt_pascal::interp::Interpreter::new(&sm).run().unwrap();
        assert_eq!(o1.global("x"), o2.global("x"), "{printed}");
    }
}
