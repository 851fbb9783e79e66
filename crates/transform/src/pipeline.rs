//! The complete transformation pipeline (paper §5.1 / §6) plus
//! instrumentation rendering and growth metrics.

use crate::gotos::{break_global_gotos, break_loop_gotos};
use crate::mapping::Mapping;
use crate::Rewrite;
use gadt_pascal::ast::{Ident, ParamMode, ProcDecl, Stmt, StmtKind};
use gadt_pascal::error::{Diagnostic, Result, Stage};
use gadt_pascal::pretty::print_program;
use gadt_pascal::sema::{analyze_or_else, Module};
use gadt_pascal::span::Span;

/// A transformed, re-analyzed program plus its construct mapping.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The transformed module (equivalent semantics, no global side
    /// effects at the procedure level, no global gotos, loops without
    /// exit gotos).
    pub module: Module,
    /// The original↔transformed construct mapping (§5.1).
    pub mapping: Mapping,
}

/// Runs the full transformation phase:
///
/// 1. global variables → `in`/`out`/`var` parameters (phase A);
/// 2. gotos out of `while`/`repeat` loops → leave flags (phase B);
/// 3. global gotos → exit-condition parameters (phase C);
///
/// phases B and C alternate until a fixpoint, because each can expose
/// work for the other (the paper's "handled by a later transformation").
/// A phase with nothing to rewrite hands the module back unchanged; the
/// fixpoint is a round in which both do.
///
/// This copies `module` once and runs [`transform_observed`] on the
/// copy; a caller that is done with its module should move it there.
///
/// # Errors
/// * semantic errors in intermediate programs (a transformation bug —
///   surfaced rather than hidden);
/// * unsupported shapes: a function with exit side-effects called inside
///   an expression, or label capture (see [`break_global_gotos`]).
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, testprogs};
/// use gadt_transform::transform;
/// let m = compile(testprogs::SECTION6_GLOBALS)?;
/// let t = transform(&m)?;
/// let p = t.module.proc_by_name("p").unwrap();
/// // The transformed p takes the globals as parameters.
/// assert_eq!(t.module.proc(p).params.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn transform(module: &Module) -> Result<Transformed> {
    transform_observed(module.clone(), &mut gadt_obs::Recorder::disabled())
}

/// [`transform`] on a module it consumes, with instrumentation: wraps
/// the phase in a `transform` span and records the counters
/// `transform.rounds`, `transform.synthetic_stmts` and
/// `transform.added_params`. The program is never copied: each phase
/// rewrites the module's own program in place, and the transformed
/// module owns it.
///
/// # Errors
/// Same as [`transform`].
pub fn transform_observed(module: Module, rec: &mut gadt_obs::Recorder) -> Result<Transformed> {
    let span = gadt_obs::span!(rec, "transform");
    let result = transform_inner(module, rec);
    if let Ok(t) = &result {
        rec.add(
            "transform.synthetic_stmts",
            t.mapping.synthetic_stmts.len() as u64,
        );
        rec.add(
            "transform.added_params",
            t.mapping
                .added_params
                .values()
                .map(|v| v.len() as u64)
                .sum(),
        );
    }
    rec.exit(span);
    result
}

fn transform_inner(module: Module, rec: &mut gadt_obs::Recorder) -> Result<Transformed> {
    let (mut m, mut mapping) = match crate::globals::convert_globals(module)? {
        Rewrite::Rewritten(m, mapping) => (m, mapping),
        Rewrite::Unchanged(m) => (m, Mapping::default()),
    };
    for _round in 0..16 {
        rec.incr("transform.rounds");
        let mut fixpoint = true;
        for phase in [break_loop_gotos, break_global_gotos] {
            m = match phase(m)? {
                Rewrite::Unchanged(m) => m,
                Rewrite::Rewritten(m, map) => {
                    mapping.merge(map);
                    fixpoint = false;
                    m
                }
            };
        }
        if fixpoint {
            // Verify the §6 postconditions.
            debug_assert!(
                m.goto_res
                    .iter()
                    .all(|(s, (owner, _))| m.proc_of_stmt[s] == *owner),
                "global gotos must be eliminated"
            );
            return Ok(Transformed { module: m, mapping });
        }
    }
    Err(Diagnostic::new(
        Stage::Sema,
        "goto transformation did not converge",
        Span::dummy(),
    ))
}

/// Re-analyzes a transformed program. The program is printed only when
/// analysis fails, for the message of what is then a transformation bug.
pub(crate) fn reanalyze(prog: gadt_pascal::ast::Program) -> Result<Module> {
    analyze_or_else(prog, |e, prog| {
        Diagnostic::new(
            Stage::Sema,
            format!(
                "transformed program failed re-analysis: {e}\n--- transformed source ---\n{}",
                print_program(prog)
            ),
            e.span,
        )
    })
}

/// Statement-growth factor of a transformation (§9: "Small procedures
/// usually grow less than a factor of two after transformations").
pub fn growth_factor(original: &Module, transformed: &Transformed) -> f64 {
    let before = original.program.stmt_count().max(1) as f64;
    let after = transformed.module.program.stmt_count() as f64;
    after / before
}

/// Renders the transformed program with the paper's trace-generating
/// actions inserted (display only — the calls name conceptual runtime
/// routines; actual tracing happens through interpreter monitors):
///
/// ```pascal
/// procedure p(var y: …; in x: …; out z: …);
/// begin
///   create_exectree_rec;
///   save_incoming_values(x, y);
///   y := x + 1;
///   z := y - x;
///   save_outgoing_values(y, z);
/// end;
/// ```
pub fn instrumented_source(t: &Transformed) -> String {
    let mut program = t.module.program.clone();
    let mut next_stmt = program.next_stmt_id;
    let mut next_expr = program.next_expr_id;

    fn pseudo_call(name: &str, args: &[String], next_stmt: &mut u32, next_expr: &mut u32) -> Stmt {
        let arg_exprs = args
            .iter()
            .map(|a| {
                let e = gadt_pascal::ast::Expr {
                    id: gadt_pascal::ast::ExprId(*next_expr),
                    kind: gadt_pascal::ast::ExprKind::Name(Ident::synthetic(a.clone())),
                    span: Span::dummy(),
                };
                *next_expr += 1;
                e
            })
            .collect();
        let s = Stmt {
            id: gadt_pascal::ast::StmtId(*next_stmt),
            kind: StmtKind::Call {
                name: Ident::synthetic(name),
                args: arg_exprs,
            },
            span: Span::dummy(),
        };
        *next_stmt += 1;
        s
    }

    fn instrument(decl: &mut ProcDecl, next_stmt: &mut u32, next_expr: &mut u32) {
        for q in &mut decl.block.procs {
            instrument(q, next_stmt, next_expr);
        }
        let mut ins: Vec<String> = Vec::new();
        let mut outs: Vec<String> = Vec::new();
        for g in &decl.params {
            for n in &g.names {
                match g.mode {
                    ParamMode::Value | ParamMode::In => ins.push(n.name.clone()),
                    ParamMode::Var => {
                        ins.push(n.name.clone());
                        outs.push(n.name.clone());
                    }
                    ParamMode::Out => outs.push(n.name.clone()),
                }
            }
        }
        if decl.is_function() {
            outs.push(decl.name.name.clone());
        }
        let mut prologue = vec![pseudo_call(
            "create_exectree_rec",
            &[],
            next_stmt,
            next_expr,
        )];
        if !ins.is_empty() {
            prologue.push(pseudo_call(
                "save_incoming_values",
                &ins,
                next_stmt,
                next_expr,
            ));
        }
        let mut body = std::mem::take(&mut decl.block.body);
        prologue.append(&mut body);
        if !outs.is_empty() {
            prologue.push(pseudo_call(
                "save_outgoing_values",
                &outs,
                next_stmt,
                next_expr,
            ));
        }
        decl.block.body = prologue;
    }

    for decl in &mut program.block.procs {
        instrument(decl, &mut next_stmt, &mut next_expr);
    }
    print_program(&program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::interp::Interpreter;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;
    use gadt_pascal::value::Value;

    #[test]
    fn failed_reanalysis_prints_the_rejected_program() {
        let prog = gadt_pascal::parser::parse_program("program t; begin x := 1 end.").unwrap();
        let printed = print_program(&prog);
        let err = reanalyze(prog).unwrap_err();
        assert!(
            err.message
                .starts_with("transformed program failed re-analysis: "),
            "{}",
            err.message
        );
        assert!(
            err.message
                .ends_with(&format!("\n--- transformed source ---\n{printed}")),
            "{}",
            err.message
        );
    }

    fn outputs_match(src: &str, inputs: Vec<Vec<i64>>) {
        let m = compile(src).expect("compile");
        let t = transform(&m).expect("transform");
        for input in inputs {
            let mut i1 = Interpreter::new(&m);
            i1.set_input(input.iter().map(|&n| Value::Int(n)));
            let o1 = i1.run().expect("original");
            let mut i2 = Interpreter::new(&t.module);
            i2.set_input(input.iter().map(|&n| Value::Int(n)));
            let o2 = i2.run().expect("transformed");
            assert_eq!(o1.output_text(), o2.output_text(), "for input {input:?}");
        }
    }

    #[test]
    fn full_pipeline_on_all_fixtures() {
        for (name, src) in testprogs::ALL {
            if *name == "figure2" {
                outputs_match(src, vec![vec![0, 9], vec![5, 6, 7]]);
            } else {
                outputs_match(src, vec![vec![]]);
            }
        }
    }

    #[test]
    fn pipeline_removes_all_global_side_effects() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let t = transform(&m).unwrap();
        let fx = gadt_analysis::effects::Effects::compute(&t.module);
        for p in &t.module.procs {
            if p.id == gadt_pascal::sema::MAIN_PROC {
                continue;
            }
            assert!(
                !fx.has_global_side_effects(p.id),
                "{} keeps side effects: {:?}",
                p.name,
                fx.of(p.id)
            );
        }
    }

    #[test]
    fn combined_goto_and_globals() {
        // q writes a global *and* performs a non-local goto: both kinds of
        // side effect must be eliminated together.
        let src = "program t; var trace: integer;
             procedure p(n: integer);
             label 9;
               procedure q(n: integer);
               begin
                 trace := trace + 1;
                 if n > 0 then goto 9;
                 trace := trace + 10;
               end;
             begin
               q(n);
               trace := trace + 100;
               9: trace := trace + 1000;
             end;
             begin trace := 0; p(1); writeln(trace) end.";
        outputs_match(src, vec![vec![]]);
        let m = compile(src).unwrap();
        let t = transform(&m).unwrap();
        let fx = gadt_analysis::effects::Effects::compute(&t.module);
        let q = t.module.proc_by_name("q").unwrap();
        assert!(!fx.has_global_side_effects(q));
    }

    #[test]
    fn growth_stays_under_factor_two_for_paper_examples() {
        for (name, src) in testprogs::ALL {
            let m = compile(src).unwrap();
            let t = transform(&m).unwrap();
            let g = growth_factor(&m, &t);
            assert!(
                g < 2.0,
                "{name}: growth factor {g:.2} exceeds the paper's bound"
            );
        }
    }

    #[test]
    fn instrumented_source_shows_trace_actions() {
        let m = compile(testprogs::SECTION6_GLOBALS).unwrap();
        let t = transform(&m).unwrap();
        let src = instrumented_source(&t);
        assert!(src.contains("create_exectree_rec"), "{src}");
        assert!(
            src.contains("save_incoming_values(x, y)")
                || src.contains("save_incoming_values(y, x)"),
            "{src}"
        );
        assert!(src.contains("save_outgoing_values(y, z)"), "{src}");
    }

    #[test]
    fn mapping_tracks_synthetic_statements() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let t = transform(&m).unwrap();
        assert!(!t.mapping.synthetic_stmts.is_empty());
        // Every synthetic statement id actually exists in the program.
        let mut ids = std::collections::BTreeSet::new();
        t.module.program.block.walk_stmts(&mut |s| {
            ids.insert(s.id);
        });
        t.module.program.walk_procs(&mut |_, p| {
            p.block.walk_stmts(&mut |s| {
                ids.insert(s.id);
            })
        });
        for s in t.mapping.synthetic_stmts.keys() {
            assert!(ids.contains(s), "synthetic stmt {s} not in program");
        }
    }

    #[test]
    fn idempotent_on_clean_programs() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let t = transform(&m).unwrap();
        assert_eq!(t.module.program.block, m.program.block);
        assert!(t.mapping.synthetic_stmts.is_empty());
        assert!(t.mapping.added_params.is_empty());
    }

    #[test]
    fn observed_transform_records_span_and_counters() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let mut rec = gadt_obs::Recorder::untimed();
        let t = transform_observed(m, &mut rec).unwrap();
        let j = rec.finish();
        assert!(j.counter("transform.rounds") >= 1);
        assert_eq!(
            j.counter("transform.synthetic_stmts"),
            t.mapping.synthetic_stmts.len() as u64
        );
        let exits: Vec<_> = j
            .events_named("transform")
            .filter(|e| e.kind == gadt_obs::EventKind::Exit)
            .collect();
        assert_eq!(exits.len(), 1);
    }

    /// A loop in `p` leaves through a goto to `p`'s own label: phase B's
    /// work only.
    const LOOP_EXIT_IN_PROC: &str = "program t; var r: integer;
         procedure p(n: integer; var res: integer);
         label 9;
         var i: integer;
         begin
           i := 0;
           while i < 10 do begin
             i := i + 1;
             if i = n then goto 9
           end;
           9: res := i
         end;
         begin p(3, r); writeln(r) end.";

    /// `q` jumps to its parent's label and touches no non-local
    /// variable: phase C's work only.
    const GLOBAL_GOTO_ONLY: &str = "program t; var r: integer;
         procedure p(n: integer; var res: integer);
         label 9;
           procedure q(k: integer);
           begin
             if k > 0 then goto 9
           end;
         begin
           res := 1;
           q(n);
           res := 2;
           9: res := res + 10
         end;
         begin p(1, r); writeln(r) end.";

    #[test]
    fn phase_one_moves_the_program() {
        // Transforms `src` and checks that the transformed module owns the
        // input's program: its procedure list is the same buffer.
        let moved = |src: &str| {
            let m = compile(src).unwrap();
            assert!(!m.program.block.procs.is_empty());
            let procs = m.program.block.procs.as_ptr();
            let t = transform_observed(m, &mut gadt_obs::Recorder::untimed()).unwrap();
            assert_eq!(t.module.program.block.procs.as_ptr(), procs, "{src}");
            outputs_match(src, vec![vec![]]);
            t.mapping
        };
        let leave_flag = |m: &Mapping| {
            m.synthetic_stmts
                .values()
                .any(|d| d.starts_with("leave flag init"))
        };
        // No phase rewrites.
        let none = moved(testprogs::SQRTEST);
        assert!(none.added_params.is_empty() && none.synthetic_stmts.is_empty());
        // Phase A rewrites: globals become parameters.
        let a = moved(testprogs::SECTION6_GLOBALS);
        assert!(a
            .added_params
            .values()
            .flatten()
            .any(|p| matches!(p.origin, crate::ParamOrigin::Global(_))));
        // Phase B alone rewrites: a leave flag, no parameters.
        let b = moved(LOOP_EXIT_IN_PROC);
        assert!(leave_flag(&b) && b.added_params.is_empty());
        // Phase C alone rewrites: exit parameters, no leave flag.
        let c = moved(GLOBAL_GOTO_ONLY);
        assert!(!c.exit_info.is_empty() && !leave_flag(&c));
        assert!(c
            .added_params
            .values()
            .flatten()
            .all(|p| p.origin == crate::ParamOrigin::ExitCondition));
    }

    #[test]
    fn exit_param_values_match_goto_targets() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let t = transform(&m).unwrap();
        let info = &t.mapping.exit_info["p/q"];
        assert_eq!(info.targets.len(), 1);
        let (&code, target) = info.targets.iter().next().unwrap();
        assert_eq!(target, &("p".to_string(), "9".to_string()));
        assert_eq!(t.mapping.exit_target("p/q", code).unwrap().1, "9");
    }
}
