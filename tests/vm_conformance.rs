//! Engine-conformance suite: every curated paper fixture plus every
//! committed corpus-regression reproducer must behave identically on
//! the tree-walking interpreter and the bytecode VM — program output,
//! monitor-event streams, execution trees, dynamic-slice results, and
//! isolated procedure runs are all compared byte for byte.

use gadt::session::{self, Engine};
use gadt_analysis::{dynamic_slice_final, dynamic_slice_output};
use gadt_pascal::cfg::lower;
use gadt_pascal::interp::Interpreter;
use gadt_pascal::sema::{compile, Module, VarKind, MAIN_PROC};
use gadt_pascal::testprogs;
use gadt_pascal::types::Type;
use gadt_pascal::value::Value;
use gadt_vm::conformance::EventLog;
use gadt_vm::PreparedEngine;

/// Shared input queue: enough values to satisfy any fixture's `read`s;
/// both engines always see the same stream.
fn input() -> Vec<Value> {
    [3, 5, 2, 7, 1, 4, 6, 8].map(Value::Int).to_vec()
}

/// All conformance subjects: the curated fixtures in
/// `gadt_pascal::testprogs::ALL` plus every minimized divergence
/// reproducer committed under `tests/corpus_regressions/`.
fn subjects() -> Vec<(String, String)> {
    let mut subs: Vec<(String, String)> = testprogs::ALL
        .iter()
        .map(|(n, s)| ((*n).to_string(), (*s).to_string()))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus_regressions");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus_regressions must exist")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "pas"))
        .collect();
    paths.sort();
    for p in paths {
        let name = p
            .file_stem()
            .expect("file stem")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&p).expect("readable reproducer");
        subs.push((name, src));
    }
    assert!(subs.len() >= 15, "only {} subjects", subs.len());
    subs
}

/// Session-level conformance: tracing through the full prepare → trace
/// pipeline on either engine yields the same output, the same recorded
/// event stream, the same execution tree, and the same dynamic slices
/// for every global's final value and every call's output.
#[test]
fn traced_runs_and_slices_are_engine_identical() {
    let mut checked_slices = 0usize;
    for (name, src) in subjects() {
        let module = compile(&src).expect(&name);
        let tree = session::prepare(&module).expect(&name);
        let vm = session::prepare(&module)
            .expect(&name)
            .with_engine(Engine::Vm);
        assert_eq!(vm.engine().name(), "vm");

        let t = session::run_traced(&tree, input()).expect(&name);
        let v = session::run_traced(&vm, input()).expect(&name);
        assert_eq!(t.output, v.output, "{name}: output");
        assert_eq!(
            format!("{:?}", t.trace.events),
            format!("{:?}", v.trace.events),
            "{name}: trace events"
        );
        assert_eq!(
            t.tree.render(t.tree.root),
            v.tree.render(v.tree.root),
            "{name}: execution tree"
        );

        let tm = &tree.transformed.module;
        let vym = &vm.transformed.module;
        let globals: Vec<String> = tm
            .vars_of(MAIN_PROC)
            .filter(|var| var.kind == VarKind::Global)
            .map(|var| var.name.to_string())
            .collect();
        for g in globals {
            let a = dynamic_slice_final(tm, &t.trace, &g);
            let b = dynamic_slice_final(vym, &v.trace, &g);
            assert_eq!(a, b, "{name}: final-value slice of `{g}`");
            checked_slices += 1;
        }
        for c in &t.trace.calls {
            for k in 0..c.outs.len() {
                let a = dynamic_slice_output(tm, &t.trace, c.id, k);
                let b = dynamic_slice_output(vym, &v.trace, c.id, k);
                assert_eq!(a, b, "{name}: output slice ({}, {k})", c.id);
                checked_slices += 1;
            }
        }
    }
    assert!(checked_slices > 30, "only {checked_slices} slices compared");
}

fn sample_args(module: &Module, params: &[gadt_pascal::sema::VarId]) -> Vec<Value> {
    params
        .iter()
        .enumerate()
        .map(|(i, &p)| match &module.var(p).ty {
            Type::Integer => Value::Int(i as i64 + 2),
            Type::Real => Value::Real(1.5),
            Type::Boolean => Value::Bool(true),
            ty => Value::zero_of(ty),
        })
        .collect()
}

/// Isolated-procedure conformance (the T-GEN execution path): every
/// top-level procedure of every subject runs on both engines with the
/// same sampled arguments, and the event streams plus the `ProcRun`
/// results (or the error messages) must match exactly.
#[test]
fn isolated_procedure_runs_are_engine_identical() {
    let mut covered = 0usize;
    for (name, src) in subjects() {
        let module = compile(&src).expect(&name);
        let cfg = lower(&module);
        let engine = PreparedEngine::new(&module, &cfg, Engine::Vm);
        for info in &module.procs {
            if info.id == MAIN_PROC || info.parent != Some(MAIN_PROC) {
                continue;
            }
            let args = sample_args(&module, &info.params);

            let mut tree_log = EventLog::new();
            let mut interp = Interpreter::with_cfg(&module, cfg.clone());
            let tree_run = interp.run_proc_with(info.id, args.clone(), &mut tree_log);

            let mut vm_log = EventLog::new();
            let vm_run = engine.run_proc_with(
                info.id,
                args,
                gadt_pascal::interp::Limits::default(),
                &mut vm_log,
            );

            assert_eq!(
                tree_log.events, vm_log.events,
                "{name}: events of run_proc {}",
                info.name
            );
            match (&tree_run, &vm_run) {
                (Ok(t), Ok(v)) => assert_eq!(
                    format!("{t:?}"),
                    format!("{v:?}"),
                    "{name}: ProcRun of {}",
                    info.name
                ),
                (Err(t), Err(v)) => assert_eq!(
                    t.to_string(),
                    v.to_string(),
                    "{name}: error of {}",
                    info.name
                ),
                _ => panic!(
                    "{name}: outcome kind of {} diverges: tree {tree_run:?} vs vm {vm_run:?}",
                    info.name
                ),
            }
            covered += 1;
        }
    }
    assert!(covered > 20, "only {covered} procedures covered");
}
