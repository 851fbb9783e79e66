//! Static call graph construction.
//!
//! Built from the lowered CFG, so calls inside expressions are included.
//! The static slicer's context ([`crate::slice_static::SliceContext`])
//! builds one. The side-effect fixpoint ([`crate::effects`]) does not use
//! it: that analysis notes each procedure's calls while it walks the
//! body, without a CFG.

use gadt_pascal::ast::StmtId;
use gadt_pascal::cfg::{CallArg, InstrKind, ProgramCfg, RExpr, Terminator};
use gadt_pascal::sema::{Module, ProcId};
use std::collections::BTreeSet;

/// One syntactic call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The procedure containing the call.
    pub caller: ProcId,
    /// The procedure being called.
    pub callee: ProcId,
    /// The statement the call occurs in (the call statement itself, or the
    /// enclosing statement for calls inside expressions).
    pub stmt: StmtId,
}

/// The program's static call graph.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Per caller: set of direct callees.
    callees: Vec<BTreeSet<ProcId>>,
    /// Per callee: set of direct callers.
    callers: Vec<BTreeSet<ProcId>>,
    /// All call sites.
    sites: Vec<CallSite>,
}

impl CallGraph {
    /// Builds the call graph of a module from its CFG.
    ///
    /// # Examples
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use gadt_pascal::{sema::compile, cfg::lower};
    /// use gadt_analysis::callgraph::CallGraph;
    /// let m = compile(
    ///     "program t; var x: integer;
    ///      procedure p; begin x := 1 end;
    ///      begin p end.",
    /// )?;
    /// let cg = CallGraph::build(&m, &lower(&m));
    /// let p = m.proc_by_name("p").unwrap();
    /// assert!(cg.callees_of(gadt_pascal::sema::MAIN_PROC).contains(&p));
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(module: &Module, cfg: &ProgramCfg) -> Self {
        let n = module.procs.len();
        let mut callees = vec![BTreeSet::new(); n];
        let mut callers = vec![BTreeSet::new(); n];
        let mut sites = Vec::new();
        for pcfg in &cfg.procs {
            let caller = pcfg.proc;
            let mut add = |callee: ProcId, stmt: StmtId| {
                callees[caller.0 as usize].insert(callee);
                callers[callee.0 as usize].insert(caller);
                sites.push(CallSite {
                    caller,
                    callee,
                    stmt,
                });
            };
            for (_, b) in pcfg.iter() {
                for ins in &b.instrs {
                    match &ins.kind {
                        InstrKind::Call { callee, args } => {
                            add(*callee, ins.stmt);
                            for a in args {
                                collect_expr_calls(a_expr(a), &mut |c| add(c, ins.stmt));
                            }
                        }
                        InstrKind::Assign { lhs, rhs } => {
                            collect_expr_calls(Some(rhs), &mut |c| add(c, ins.stmt));
                            if let Some(ix) = &lhs.index {
                                collect_expr_calls(Some(ix), &mut |c| add(c, ins.stmt));
                            }
                        }
                        InstrKind::Read { target } => {
                            if let Some(ix) = &target.index {
                                collect_expr_calls(Some(ix), &mut |c| add(c, ins.stmt));
                            }
                        }
                        InstrKind::Write { args, .. } => {
                            for a in args {
                                collect_expr_calls(Some(a), &mut |c| add(c, ins.stmt));
                            }
                        }
                    }
                }
                if let Terminator::Branch { cond, stmt, .. } = &b.term {
                    collect_expr_calls(Some(cond), &mut |c| add(c, *stmt));
                }
            }
        }
        CallGraph {
            callees,
            callers,
            sites,
        }
    }

    /// Direct callees of a procedure.
    pub fn callees_of(&self, p: ProcId) -> &BTreeSet<ProcId> {
        &self.callees[p.0 as usize]
    }

    /// Direct callers of a procedure.
    pub fn callers_of(&self, p: ProcId) -> &BTreeSet<ProcId> {
        &self.callers[p.0 as usize]
    }

    /// All call sites, in CFG order.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Procedures reachable from `root` (including `root`).
    pub fn reachable_from(&self, root: ProcId) -> BTreeSet<ProcId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                stack.extend(self.callees_of(p).iter().copied());
            }
        }
        seen
    }

    /// A bottom-up ordering: callees before callers where possible
    /// (cycles broken arbitrarily). Useful for one-pass summaries of
    /// non-recursive programs; recursive programs need the fixpoint in
    /// [`crate::effects`].
    pub fn bottom_up_order(&self) -> Vec<ProcId> {
        let n = self.callees.len();
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = visiting, 2 = done
        fn visit(
            p: usize,
            callees: &[BTreeSet<ProcId>],
            state: &mut [u8],
            order: &mut Vec<ProcId>,
        ) {
            if state[p] != 0 {
                return;
            }
            state[p] = 1;
            for c in &callees[p] {
                if state[c.0 as usize] == 0 {
                    visit(c.0 as usize, callees, state, order);
                }
            }
            state[p] = 2;
            order.push(ProcId(p as u32));
        }
        for p in 0..n {
            visit(p, &self.callees, &mut state, &mut order);
        }
        order
    }
}

fn a_expr(a: &CallArg) -> Option<&RExpr> {
    match a {
        CallArg::Value(e) => Some(e),
        CallArg::Ref(p) => p.index.as_deref(),
    }
}

fn collect_expr_calls(e: Option<&RExpr>, add: &mut dyn FnMut(ProcId)) {
    let Some(e) = e else { return };
    let mut calls = Vec::new();
    e.collect_calls(&mut calls);
    for c in calls {
        add(c);
    }
    // collect_calls already recurses into nested args.
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::{compile, MAIN_PROC};
    use gadt_pascal::testprogs;

    fn graph(src: &str) -> (Module, CallGraph) {
        let m = compile(src).expect("compile");
        let cfg = lower(&m);
        let cg = CallGraph::build(&m, &cfg);
        (m, cg)
    }

    #[test]
    fn sqrtest_call_structure() {
        let (m, cg) = graph(testprogs::SQRTEST);
        let sqrtest = m.proc_by_name("sqrtest").unwrap();
        let computs = m.proc_by_name("computs").unwrap();
        let comput1 = m.proc_by_name("comput1").unwrap();
        let sum2 = m.proc_by_name("sum2").unwrap();
        let decrement = m.proc_by_name("decrement").unwrap();
        assert!(cg.callees_of(MAIN_PROC).contains(&sqrtest));
        assert!(cg.callees_of(sqrtest).contains(&computs));
        assert!(cg.callees_of(computs).contains(&comput1));
        // decrement is called inside an expression in sum2.
        assert!(cg.callees_of(sum2).contains(&decrement));
        assert_eq!(cg.callers_of(decrement), &[sum2].into_iter().collect());
    }

    #[test]
    fn reachability_covers_whole_paper_program() {
        let (m, cg) = graph(testprogs::SQRTEST);
        let reach = cg.reachable_from(MAIN_PROC);
        assert_eq!(reach.len(), m.procs.len());
    }

    #[test]
    fn unreachable_proc_not_reported() {
        let (m, cg) = graph(
            "program t; var x: integer;
             procedure dead; begin x := 0 end;
             procedure live; begin x := 1 end;
             begin live end.",
        );
        let dead = m.proc_by_name("dead").unwrap();
        let reach = cg.reachable_from(MAIN_PROC);
        assert!(!reach.contains(&dead));
    }

    #[test]
    fn bottom_up_order_puts_callees_first() {
        let (m, cg) = graph(testprogs::SQRTEST);
        let order = cg.bottom_up_order();
        let pos = |p: ProcId| order.iter().position(|&q| q == p).unwrap();
        let sum2 = m.proc_by_name("sum2").unwrap();
        let decrement = m.proc_by_name("decrement").unwrap();
        assert!(pos(decrement) < pos(sum2));
        assert_eq!(order.len(), m.procs.len());
    }

    #[test]
    fn recursion_forms_cycle_but_terminates() {
        let (m, cg) = graph(
            "program t;
             function f(n: integer): integer;
             begin if n <= 0 then f := 0 else f := f(n - 1) end;
             begin writeln(f(3)) end.",
        );
        let f = m.proc_by_name("f").unwrap();
        assert!(cg.callees_of(f).contains(&f));
        assert_eq!(cg.bottom_up_order().len(), m.procs.len());
    }

    #[test]
    fn call_sites_record_statements() {
        let (_, cg) = graph(testprogs::PQR);
        // q and r called from p's body, p from main = 3 sites.
        assert_eq!(cg.sites().len(), 3);
    }
}
