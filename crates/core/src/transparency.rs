//! Transparent debugging relative to the original program (§6.1).
//!
//! "Despite the fact that the program is transformed into an internal
//! form, the debugger still presents the original program when
//! interacting with the user." The transformation's construct
//! [`Mapping`] says which parameters were synthesized from globals and
//! which encode exit conditions; this module renders queries accordingly:
//!
//! * parameters converted from globals are labelled as global-variable
//!   values ("input values on these global variables … values on output
//!   parameters and free global variables");
//! * exit-condition parameters disappear from the value list and become
//!   the paper's question about the control transfer itself: "Given
//!   these values …, is it correct to perform this non-local goto?".

use gadt_pascal::sema::Module;
use gadt_trace::{ExecTree, NodeId, NodeKind};
use gadt_transform::{Mapping, ParamOrigin};
use std::fmt::Write as _;

/// Renders one execution-tree node in terms of the *original* program.
pub fn render_query_original(
    mapping: &Mapping,
    module: &Module,
    tree: &ExecTree,
    node: NodeId,
) -> String {
    let n = tree.node(node);
    let NodeKind::Call {
        proc, is_function, ..
    } = &n.kind
    else {
        return tree.render_node(node);
    };
    let path = proc_path(module, *proc);
    let added = mapping.added_params.get(path.as_str());
    let exit = mapping.exit_info.get(path.as_str());

    let origin_of = |name: &str| -> Option<&ParamOrigin> {
        added?
            .iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
            .map(|a| &a.origin)
    };

    let mut s = String::new();
    let _ = write!(s, "{}(", n.name);
    let mut first = true;
    let push = |s: &mut String, text: String, first: &mut bool| {
        if !*first {
            s.push_str(", ");
        }
        s.push_str(&text);
        *first = false;
    };

    for (name, v) in &n.ins {
        match origin_of(name) {
            Some(ParamOrigin::Global(g)) => push(&mut s, format!("In global {g}: {v}"), &mut first),
            Some(ParamOrigin::ExitCondition) => {}
            None => push(&mut s, format!("In {name}: {v}"), &mut first),
        }
    }
    let mut result = None;
    let mut goto_note: Option<String> = None;
    for (name, v) in &n.outs {
        if *is_function && name == &n.name {
            result = Some(v);
            continue;
        }
        match origin_of(name) {
            Some(ParamOrigin::Global(g)) => {
                push(&mut s, format!("Out global {g}: {v}"), &mut first)
            }
            Some(ParamOrigin::ExitCondition) => {
                // §6.1: "the non-local goto is treated as one of the
                // results from the procedure call".
                let value = v.as_int().unwrap_or(0);
                if let Some((owner, label)) = exit.and_then(|_| mapping.exit_target(&path, value)) {
                    let owner_disp = if owner.is_empty() {
                        "the main program".to_string()
                    } else {
                        format!("`{owner}`")
                    };
                    goto_note = Some(format!(
                        " — performs the non-local goto to label {label} of {owner_disp}; is that correct?"
                    ));
                }
            }
            None => push(&mut s, format!("Out {name}: {v}"), &mut first),
        }
    }
    s.push(')');
    if let Some(v) = result {
        let _ = write!(s, " = {v}");
    }
    if let Some(g) = goto_note {
        s.push_str(&g);
    }
    s
}

/// The lowercase `/`-joined procedure path used as the mapping key.
fn proc_path(module: &Module, proc: gadt_pascal::sema::ProcId) -> String {
    let mut parts = Vec::new();
    let mut cur = Some(proc);
    while let Some(p) = cur {
        let info = module.proc(p);
        if p != gadt_pascal::sema::MAIN_PROC {
            parts.push(info.name.to_ascii_lowercase());
        }
        cur = info.parent;
    }
    parts.reverse();
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{prepare, run_traced};
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    #[test]
    fn global_params_render_as_globals() {
        let m = compile(testprogs::SECTION6_GLOBALS).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();
        let tm = &prepared.transformed.module;
        let p = run.tree.find_call(tm, "p").unwrap();
        let q = render_query_original(&prepared.transformed.mapping, tm, &run.tree, p);
        assert_eq!(q, "p(In global x: 10, Out y: 11, Out global z: 1)");
    }

    #[test]
    fn exit_params_render_as_goto_questions() {
        let m = compile(testprogs::SECTION6_GOTO).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();
        let tm = &prepared.transformed.module;
        let q_node = run.tree.find_call(tm, "q").unwrap();
        let q = render_query_original(&prepared.transformed.mapping, tm, &run.tree, q_node);
        assert!(
            q.contains("performs the non-local goto to label 9 of `p`"),
            "{q}"
        );
        assert!(
            !q.contains("exitcond"),
            "exit parameter must be hidden: {q}"
        );
    }

    #[test]
    fn untransformed_programs_render_unchanged() {
        let m = compile(testprogs::SQRTEST).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();
        let tm = &prepared.transformed.module;
        let node = run.tree.find_call(tm, "computs").unwrap();
        let transparent = render_query_original(&prepared.transformed.mapping, tm, &run.tree, node);
        assert_eq!(transparent, run.tree.render_node(node));
    }

    #[test]
    fn normal_return_hides_exit_parameter_silently() {
        // A call that does NOT take the goto: exitcond = 0 → no note.
        let src = "program t; var trace: integer;
             procedure p(n: integer);
             label 9;
               procedure q(n: integer);
               begin
                 trace := trace + 1;
                 if n > 0 then goto 9;
               end;
             begin q(n); 9: trace := trace + 100; end;
             begin trace := 0; p(0); writeln(trace) end.";
        let m = compile(src).unwrap();
        let prepared = prepare(&m).unwrap();
        let run = run_traced(&prepared, []).unwrap();
        let tm = &prepared.transformed.module;
        let q_node = run.tree.find_call(tm, "q").unwrap();
        let q = render_query_original(&prepared.transformed.mapping, tm, &run.tree, q_node);
        assert!(!q.contains("non-local goto"), "{q}");
        assert!(!q.contains("exitcond"), "{q}");
    }
}
