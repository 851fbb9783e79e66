//! In-crate differential suite: the bytecode VM against the
//! tree-walking reference interpreter, event by event.
//!
//! Every fixture in `gadt_pascal::testprogs::ALL` runs on both engines
//! through both entry points (`run_with` and `run_proc_with`), and the
//! full `Debug`-rendered event streams must match byte for byte, along
//! with outputs, step counts, and final globals. On divergence the test
//! prints the first differing event with context.

use gadt_pascal::cfg::lower;
use gadt_pascal::interp::{Interpreter, Limits, Outcome, ProcRun};
use gadt_pascal::parser::parse_program;
use gadt_pascal::sema::{analyze, Module, MAIN_PROC};
use gadt_pascal::testprogs;
use gadt_pascal::types::Type;
use gadt_pascal::value::Value;
use gadt_vm::conformance::EventLog;
use gadt_vm::{Engine, PreparedEngine};
use std::sync::Arc;

fn compile(src: &str) -> Module {
    analyze(parse_program(src).expect("parse")).expect("analyze")
}

fn assert_same_events(name: &str, what: &str, tree: &EventLog, vm: &EventLog) {
    if tree.events == vm.events {
        return;
    }
    let n = tree.events.len().min(vm.events.len());
    for i in 0..n {
        if tree.events[i] != vm.events[i] {
            panic!(
                "{name} [{what}]: event {i} diverges\n  tree: {:?}\n  vm:   {:?}\n  \
                 (tree emitted {} events, vm {})",
                tree.events[i],
                vm.events[i],
                tree.events.len(),
                vm.events.len()
            );
        }
    }
    panic!(
        "{name} [{what}]: event streams have a common prefix but different \
         lengths: tree {} vs vm {}\n  first extra: {:?}",
        tree.events.len(),
        vm.events.len(),
        if tree.events.len() > n {
            &tree.events[n]
        } else {
            &vm.events[n]
        }
    );
}

fn assert_same_outcome(name: &str, tree: &Outcome, vm: &Outcome) {
    assert_eq!(tree.output_text(), vm.output_text(), "{name}: output");
    assert_eq!(tree.steps, vm.steps, "{name}: steps");
    assert_eq!(tree.globals, vm.globals, "{name}: globals");
}

#[test]
fn run_with_is_byte_identical_across_engines() {
    // Enough values to satisfy any fixture's `read` statements; both
    // engines see the same queue.
    let input: Vec<Value> = [3, 5, 2, 7, 1, 4, 6, 8].map(Value::Int).to_vec();
    for (name, src) in testprogs::ALL {
        let module = compile(src);
        let cfg = Arc::new(lower(&module));

        let mut tree_log = EventLog::new();
        let mut interp = Interpreter::with_shared_cfg(&module, Arc::clone(&cfg));
        interp.set_input(input.iter().cloned());
        let tree_out = interp.run_with(&mut tree_log).expect(name);

        let engine = PreparedEngine::new(&module, &cfg, Engine::Vm);
        let mut vm_log = EventLog::new();
        let vm_out = engine
            .run_with(&module, input.clone(), Limits::default(), &mut vm_log)
            .expect(name);

        assert_same_events(name, "run", &tree_log, &vm_log);
        assert_same_outcome(name, &tree_out, &vm_out);
    }
}

/// Small argument vector for a procedure: distinct positive integers for
/// integer params, `true`/`1.5`/zero-values otherwise.
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

#[test]
fn run_proc_is_byte_identical_across_engines() {
    let mut covered = 0usize;
    for (name, src) in testprogs::ALL {
        let module = compile(src);
        let cfg = Arc::new(lower(&module));
        let engine = PreparedEngine::new(&module, &cfg, Engine::Vm);

        for info in &module.procs {
            if info.id == MAIN_PROC || info.parent != Some(MAIN_PROC) {
                continue;
            }
            let args = sample_args(&module, &info.params);

            let mut tree_log = EventLog::new();
            let mut interp = Interpreter::with_shared_cfg(&module, Arc::clone(&cfg));
            let tree_run: Result<ProcRun, _> =
                interp.run_proc_with(info.id, args.clone(), &mut tree_log);

            let mut vm_log = EventLog::new();
            let vm_run =
                engine.run_proc_with(&module, info.id, args, Limits::default(), &mut vm_log);

            let what = format!("run_proc {}", info.name);
            assert_same_events(name, &what, &tree_log, &vm_log);
            match (&tree_run, &vm_run) {
                (Ok(t), Ok(v)) => {
                    assert_eq!(
                        format!("{t:?}"),
                        format!("{v:?}"),
                        "{name} [{what}]: ProcRun"
                    );
                }
                (Err(t), Err(v)) => {
                    assert_eq!(t.to_string(), v.to_string(), "{name} [{what}]: error");
                }
                _ => panic!(
                    "{name} [{what}]: outcome kind diverges: tree {tree_run:?} vs vm {vm_run:?}"
                ),
            }
            covered += 1;
        }
    }
    assert!(
        covered > 20,
        "expected to exercise many procedures, got {covered}"
    );
}
