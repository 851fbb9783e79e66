//! Static call sites.
//!
//! Built from the lowered CFG, so calls inside expressions are included.
//! The static slicer's context ([`crate::slice_static::SliceContext`])
//! builds one. The side-effect fixpoint ([`crate::effects`]) does not use
//! it: that analysis notes each procedure's calls while it walks the
//! body, without a CFG.

use gadt_pascal::ast::StmtId;
use gadt_pascal::cfg::{CallArg, InstrKind, ProgramCfg, RExpr, Terminator};
use gadt_pascal::sema::ProcId;

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

/// The program's static call graph, as its call sites.
#[derive(Debug, Clone)]
pub struct CallGraph {
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
    /// let cg = CallGraph::build(&lower(&m));
    /// let p = m.proc_by_name("p").unwrap();
    /// assert_eq!(cg.sites()[0].caller, gadt_pascal::sema::MAIN_PROC);
    /// assert_eq!(cg.sites()[0].callee, p);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(cfg: &ProgramCfg) -> Self {
        let mut sites = Vec::new();
        for pcfg in &cfg.procs {
            let caller = pcfg.proc;
            let mut add = |callee: ProcId, stmt: StmtId| {
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
        CallGraph { sites }
    }

    /// All call sites, in CFG order.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
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
    use gadt_pascal::sema::{compile, Module, MAIN_PROC};
    use gadt_pascal::testprogs;

    fn graph(src: &str) -> (Module, CallGraph) {
        let m = compile(src).expect("compile");
        let cg = CallGraph::build(&lower(&m));
        (m, cg)
    }

    fn calls(cg: &CallGraph, caller: ProcId, callee: ProcId) -> bool {
        cg.sites()
            .iter()
            .any(|s| s.caller == caller && s.callee == callee)
    }

    #[test]
    fn sqrtest_call_structure() {
        let (m, cg) = graph(testprogs::SQRTEST);
        let sqrtest = m.proc_by_name("sqrtest").unwrap();
        let computs = m.proc_by_name("computs").unwrap();
        let comput1 = m.proc_by_name("comput1").unwrap();
        let sum2 = m.proc_by_name("sum2").unwrap();
        let decrement = m.proc_by_name("decrement").unwrap();
        assert!(calls(&cg, MAIN_PROC, sqrtest));
        assert!(calls(&cg, sqrtest, computs));
        assert!(calls(&cg, computs, comput1));
        // decrement is called inside an expression in sum2.
        assert!(calls(&cg, sum2, decrement));
        let callers: Vec<ProcId> = cg
            .sites()
            .iter()
            .filter(|s| s.callee == decrement)
            .map(|s| s.caller)
            .collect();
        assert!(!callers.is_empty() && callers.iter().all(|&c| c == sum2));
    }

    #[test]
    fn recursion_is_a_site_of_its_own() {
        let (m, cg) = graph(
            "program t;
             function f(n: integer): integer;
             begin if n <= 0 then f := 0 else f := f(n - 1) end;
             begin writeln(f(3)) end.",
        );
        let f = m.proc_by_name("f").unwrap();
        assert!(calls(&cg, f, f));
    }

    #[test]
    fn call_sites_record_statements() {
        let (_, cg) = graph(testprogs::PQR);
        // q and r called from p's body, p from main = 3 sites.
        assert_eq!(cg.sites().len(), 3);
    }
}
