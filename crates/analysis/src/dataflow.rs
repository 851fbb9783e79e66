//! Classic intraprocedural data-flow analyses over the lowered CFG.
//!
//! Program slicing "is a data flow analysis technique" (paper §1); the
//! static slicer's relevant-variable iteration is built on the same
//! def/use machinery exposed here. Reaching definitions and liveness are
//! provided both as reusable analyses and as cross-checks for the slicer
//! (a variable relevant at a point must be live there).

use crate::effects::{instr_effects, Effects};
use gadt_pascal::ast::StmtId;
use gadt_pascal::cfg::{BlockId, ProcCfg, Terminator};
use gadt_pascal::sema::{Module, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// A definition site: instruction `index` in `block` defining `var`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefSite {
    /// Block containing the definition.
    pub block: BlockId,
    /// Instruction index within the block.
    pub index: usize,
    /// The defined variable.
    pub var: VarId,
    /// Source statement.
    pub stmt: StmtId,
}

/// Reaching definitions for one procedure.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// Definitions reaching the *entry* of each block.
    pub entry: BTreeMap<BlockId, BTreeSet<DefSite>>,
    /// All definition sites in the procedure.
    pub sites: Vec<DefSite>,
}

impl ReachingDefs {
    /// Computes reaching definitions for `proc`.
    ///
    /// Call instructions define their interprocedural MOD sets (weakly).
    pub fn compute(module: &Module, cfg: &ProcCfg, fx: &Effects) -> Self {
        // Collect definition sites and per-block gen/kill.
        let mut sites = Vec::new();
        for (bid, b) in cfg.iter() {
            for (i, ins) in b.instrs.iter().enumerate() {
                let eff = instr_effects(module, fx, &ins.kind);
                for v in eff.defs {
                    sites.push(DefSite {
                        block: bid,
                        index: i,
                        var: v,
                        stmt: ins.stmt,
                    });
                }
            }
        }

        let n = cfg.blocks.len();
        let mut entry: Vec<BTreeSet<DefSite>> = vec![BTreeSet::new(); n];
        let mut exit: Vec<BTreeSet<DefSite>> = vec![BTreeSet::new(); n];
        let preds = cfg.predecessors();

        let mut changed = true;
        while changed {
            changed = false;
            for (bid, b) in cfg.iter() {
                let bi = bid.0 as usize;
                let mut inset: BTreeSet<DefSite> = BTreeSet::new();
                for p in &preds[bi] {
                    inset.extend(exit[p.0 as usize].iter().copied());
                }
                if inset != entry[bi] {
                    entry[bi] = inset.clone();
                    changed = true;
                }
                // Transfer through the block.
                let mut cur = inset;
                for (i, ins) in b.instrs.iter().enumerate() {
                    let eff = instr_effects(module, fx, &ins.kind);
                    if eff.strong {
                        for v in &eff.defs {
                            cur.retain(|d| d.var != *v);
                        }
                    }
                    for v in &eff.defs {
                        cur.insert(DefSite {
                            block: bid,
                            index: i,
                            var: *v,
                            stmt: ins.stmt,
                        });
                    }
                }
                if cur != exit[bi] {
                    exit[bi] = cur;
                    changed = true;
                }
            }
        }

        ReachingDefs {
            entry: cfg.iter().map(|(id, _)| id).zip(entry).collect(),
            sites,
        }
    }

    /// The definitions of `var` reaching the entry of `block`.
    pub fn reaching(&self, block: BlockId, var: VarId) -> Vec<DefSite> {
        self.entry
            .get(&block)
            .map(|s| s.iter().filter(|d| d.var == var).copied().collect())
            .unwrap_or_default()
    }
}

/// Live variables for one procedure (backward may-analysis).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Variables live at the entry of each block.
    pub live_in: BTreeMap<BlockId, BTreeSet<VarId>>,
    /// Variables live at the exit of each block.
    pub live_out: BTreeMap<BlockId, BTreeSet<VarId>>,
}

impl Liveness {
    /// Computes liveness for `proc`, with `at_exit` live at every
    /// procedure exit (e.g. `var` parameters and the function result).
    pub fn compute(
        module: &Module,
        cfg: &ProcCfg,
        fx: &Effects,
        at_exit: &BTreeSet<VarId>,
    ) -> Self {
        let n = cfg.blocks.len();
        let mut live_in: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        let mut live_out: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];

        let mut changed = true;
        while changed {
            changed = false;
            for (bid, b) in cfg.iter().collect::<Vec<_>>().into_iter().rev() {
                let bi = bid.0 as usize;
                let mut out: BTreeSet<VarId> = BTreeSet::new();
                match &b.term {
                    Terminator::Return | Terminator::NonLocalGoto { .. } => {
                        out.extend(at_exit.iter().copied());
                    }
                    t => {
                        for s in t.successors() {
                            out.extend(live_in[s.0 as usize].iter().copied());
                        }
                    }
                }
                if let Terminator::Branch { cond, .. } = &b.term {
                    let mut uses = Vec::new();
                    cond.collect_uses(&mut uses);
                    out.extend(uses);
                }
                if out != live_out[bi] {
                    live_out[bi] = out.clone();
                    changed = true;
                }
                let mut cur = out;
                for ins in b.instrs.iter().rev() {
                    let eff = instr_effects(module, fx, &ins.kind);
                    if eff.strong {
                        for v in &eff.defs {
                            cur.remove(v);
                        }
                    }
                    cur.extend(eff.uses.iter().copied());
                }
                if cur != live_in[bi] {
                    live_in[bi] = cur;
                    changed = true;
                }
            }
        }

        Liveness {
            live_in: cfg.iter().map(|(id, _)| id).zip(live_in).collect(),
            live_out: cfg.iter().map(|(id, _)| id).zip(live_out).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::{compile, MAIN_PROC};

    fn setup(src: &str) -> (Module, gadt_pascal::cfg::ProgramCfg, Effects) {
        let m = compile(src).expect("compile");
        let cfg = lower(&m);
        let fx = Effects::compute(&m);
        (m, cfg, fx)
    }

    #[test]
    fn reaching_defs_straight_line() {
        let (m, cfg, fx) = setup(
            "program t; var x, y: integer;
             begin x := 1; y := x; x := 2 end.",
        );
        let rd = ReachingDefs::compute(&m, cfg.proc(MAIN_PROC), &fx);
        // Three definition sites total.
        assert_eq!(rd.sites.len(), 3);
    }

    #[test]
    fn reaching_defs_merge_at_join() {
        let (m, cfg, fx) = setup(
            "program t; var x, c: integer;
             begin
               read(c);
               if c > 0 then x := 1 else x := 2;
               c := x
             end.",
        );
        let rd = ReachingDefs::compute(&m, cfg.proc(MAIN_PROC), &fx);
        let x = m.var_in_scope(MAIN_PROC, "x").unwrap();
        // Find the join block (the one whose instr assigns c := x).
        let main = cfg.proc(MAIN_PROC);
        let join = main
            .iter()
            .find(|(_, b)| {
                b.instrs.iter().any(|i| {
                    matches!(&i.kind, gadt_pascal::cfg::InstrKind::Assign { lhs, rhs }
                        if lhs.index.is_none()
                        && matches!(rhs, gadt_pascal::cfg::RExpr::Var(_))
                        && m.var(lhs.var).name == "c")
                })
            })
            .map(|(id, _)| id)
            .expect("join block");
        let defs = rd.reaching(join, x);
        assert_eq!(defs.len(), 2, "both branch definitions reach the join");
    }

    #[test]
    fn strong_update_kills_previous_def() {
        let (m, cfg, fx) = setup(
            "program t; var x: integer;
             begin
               x := 1;
               x := 2;
               while x > 0 do x := x - 1
             end.",
        );
        let rd = ReachingDefs::compute(&m, cfg.proc(MAIN_PROC), &fx);
        let x = m.var_in_scope(MAIN_PROC, "x").unwrap();
        // Find the loop header block.
        let main = cfg.proc(MAIN_PROC);
        let header = main
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Branch { .. }))
            .map(|(id, _)| id)
            .unwrap();
        let defs = rd.reaching(header, x);
        // x := 1 must be killed; x := 2 and the loop body def reach.
        assert_eq!(defs.len(), 2);
    }

    #[test]
    fn array_defs_are_weak() {
        let (m, cfg, fx) = setup(
            "program t; var a: array[1..3] of integer; i: integer;
             begin a[1] := 1; a[2] := 2; i := a[1] end.",
        );
        let rd = ReachingDefs::compute(&m, cfg.proc(MAIN_PROC), &fx);
        let a = m.var_in_scope(MAIN_PROC, "a").unwrap();
        // Both element writes reach the end (weak updates).
        let main = cfg.proc(MAIN_PROC);
        let last_block = main.iter().last().map(|(id, _)| id).unwrap();
        let _ = last_block;
        let all_a: Vec<_> = rd.sites.iter().filter(|d| d.var == a).collect();
        assert_eq!(all_a.len(), 2);
    }

    #[test]
    fn liveness_backward_from_exit() {
        let (m, cfg, fx) = setup(
            "program t; var x, y, dead: integer;
             begin x := 1; dead := 5; y := x + 1; writeln(y) end.",
        );
        let x = m.var_in_scope(MAIN_PROC, "x").unwrap();
        let live = Liveness::compute(&m, cfg.proc(MAIN_PROC), &fx, &BTreeSet::new());
        // x is live after its definition (used by y := x+1) — at block
        // entry nothing is live in a single-block program, but x is not
        // live at exit.
        let main_entry = cfg.proc(MAIN_PROC).entry;
        assert!(!live.live_out[&main_entry].contains(&x));
    }

    #[test]
    fn loop_keeps_variables_live() {
        let (m, cfg, fx) = setup(
            "program t; var i, s: integer;
             begin
               i := 0; s := 0;
               while i < 10 do begin s := s + i; i := i + 1 end;
               writeln(s)
             end.",
        );
        let s = m.var_in_scope(MAIN_PROC, "s").unwrap();
        let i = m.var_in_scope(MAIN_PROC, "i").unwrap();
        let live = Liveness::compute(&m, cfg.proc(MAIN_PROC), &fx, &BTreeSet::new());
        // At the loop header both i and s are live.
        let main = cfg.proc(MAIN_PROC);
        let header = main
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Branch { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert!(live.live_in[&header].contains(&s));
        assert!(live.live_in[&header].contains(&i));
    }
}
