//! `gadt-vm`: a compiled bytecode execution core for the GADT
//! reproduction.
//!
//! The tree-walking interpreter in `gadt-pascal` is the semantic
//! reference: simple, auditable, and slow — every variable access is a
//! name lookup behind a static-link walk, and every re-execution (trace,
//! T-GEN case, mutant run) walks the CFG instruction tree again. This
//! crate lowers the CFG once into flat per-procedure bytecode with
//! **resolved variable slots** ([`compile::VmProgram`]) and executes it
//! on an explicit stack-frame VM ([`exec::Vm`]) that fires the *exact*
//! same [`Event`](gadt_pascal::interp::Event) stream: traces, dynamic
//! slices, execution trees, and campaign journals are byte-identical
//! across engines, which the differential harnesses in this repository
//! verify continuously.
//!
//! # Engine selection
//!
//! [`Engine`] names an execution strategy; [`PreparedEngine`] pairs a
//! module with a ready-to-run backend and exposes both entry points
//! (the whole program, or one procedure in isolation):
//!
//! ```
//! use gadt_pascal::{parser::parse_program, sema::analyze, cfg::lower};
//! use gadt_pascal::interp::{Limits, NoopMonitor};
//! use gadt_vm::{Engine, PreparedEngine};
//!
//! let module = analyze(parse_program(
//!     "program P; var x: integer; begin x := 2 + 2; writeln(x) end.",
//! ).unwrap()).unwrap();
//! let cfg = lower(&module);
//! let engine = PreparedEngine::new(&module, &cfg, Engine::Vm);
//! let out = engine
//!     .run_with(Vec::new(), Limits::default(), &mut NoopMonitor)
//!     .unwrap();
//! assert_eq!(out.output_text(), "4\n");
//! ```
//!
//! A `PreparedEngine` borrows the module and CFG immutably and keeps all
//! mutable run state per call, so one compiled program can serve any
//! number of concurrent runs (mutation campaigns share one across worker
//! threads).

pub mod compile;
pub mod conformance;
pub mod exec;

pub use compile::VmProgram;
pub use exec::Vm;

use gadt_pascal::cfg::ProgramCfg;
use gadt_pascal::error::Result;
use gadt_pascal::interp::{Interpreter, Limits, Monitor, NoopMonitor, Outcome, ProcRun};
use gadt_pascal::sema::{Module, ProcId};
use gadt_pascal::value::Value;
use std::sync::Arc;

/// Which execution engine runs the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The tree-walking reference interpreter
    /// ([`gadt_pascal::interp::Interpreter`]) — the semantic reference,
    /// retained for differential verification.
    TreeWalker,
    /// The compiled bytecode VM ([`exec::Vm`]) — the default engine.
    #[default]
    Vm,
}

impl Engine {
    /// A short stable name, for reports and benchmark records.
    pub fn name(self) -> &'static str {
        match self {
            Engine::TreeWalker => "tree",
            Engine::Vm => "vm",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

enum Backend {
    /// Tree-walker: one shared lowering, handed by `Arc` to a fresh
    /// interpreter per run (no per-run CFG clone).
    Tree(Arc<ProgramCfg>),
    /// Bytecode VM: compiled once, shared by every run.
    Vm(VmProgram),
}

/// A module paired with a ready-to-run execution backend: it runs the
/// whole program, or one top-level procedure in isolation, feeding
/// events to a monitor. Every run method takes `&self` — all per-run
/// state is internal to the call — so one prepared engine serves
/// concurrent callers.
pub struct PreparedEngine<'m> {
    module: &'m Module,
    engine: Engine,
    backend: Backend,
}

impl<'m> PreparedEngine<'m> {
    /// Prepares an engine over an already-lowered CFG. For
    /// [`Engine::Vm`] this compiles the bytecode program (one-time
    /// cost, amortized over every subsequent run).
    pub fn new(module: &'m Module, cfg: &'m ProgramCfg, engine: Engine) -> Self {
        let backend = match engine {
            // One clone total at preparation time; every run shares it.
            Engine::TreeWalker => Backend::Tree(Arc::new(cfg.clone())),
            Engine::Vm => Backend::Vm(VmProgram::compile(module, cfg)),
        };
        PreparedEngine {
            module,
            engine,
            backend,
        }
    }

    /// Which engine this backend runs on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The underlying module.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Runs the whole program with the given input queue.
    ///
    /// # Errors
    /// Runtime errors (identical across engines, message and span).
    pub fn run_with(
        &self,
        input: Vec<Value>,
        limits: Limits,
        monitor: &mut dyn Monitor,
    ) -> Result<Outcome> {
        match &self.backend {
            Backend::Tree(cfg) => {
                let mut interp = Interpreter::with_shared_cfg(self.module, Arc::clone(cfg));
                interp.set_limits(limits);
                interp.set_input(input);
                interp.run_with(monitor)
            }
            Backend::Vm(program) => {
                let mut vm = Vm::new(self.module, program);
                vm.set_limits(limits);
                vm.set_input(input);
                vm.run_with(monitor)
            }
        }
    }

    /// Runs one top-level procedure in isolation (the T-GEN entry
    /// point).
    ///
    /// # Errors
    /// Runtime errors, plus the argument-arity/type and isolation
    /// errors of [`Interpreter::run_proc_with`].
    pub fn run_proc_with(
        &self,
        proc: ProcId,
        args: Vec<Value>,
        limits: Limits,
        monitor: &mut dyn Monitor,
    ) -> Result<ProcRun> {
        match &self.backend {
            Backend::Tree(cfg) => {
                let mut interp = Interpreter::with_shared_cfg(self.module, Arc::clone(cfg));
                interp.set_limits(limits);
                interp.run_proc_with(proc, args, monitor)
            }
            Backend::Vm(program) => {
                let mut vm = Vm::new(self.module, program);
                vm.set_limits(limits);
                vm.run_proc_with(proc, args, monitor)
            }
        }
    }

    /// Monitor-free whole-program run: identical output, step count,
    /// final globals, and errors to [`PreparedEngine::run_with`] with a
    /// no-op monitor, but engines may skip all observation machinery.
    /// Use when only the *result* matters (kill checks, differential
    /// output comparison). On the VM a run whose machine state repeats
    /// returns its step-limit error early, as soon as the repeat shows.
    ///
    /// # Errors
    /// Same conditions as [`PreparedEngine::run_with`].
    pub fn run_fast(&self, input: Vec<Value>, limits: Limits) -> Result<Outcome> {
        match &self.backend {
            Backend::Tree(cfg) => {
                let mut interp = Interpreter::with_shared_cfg(self.module, Arc::clone(cfg));
                interp.set_limits(limits);
                interp.set_input(input);
                interp.run_with(&mut NoopMonitor)
            }
            Backend::Vm(program) => {
                let mut vm = Vm::new(self.module, program);
                vm.set_limits(limits);
                vm.set_input(input);
                vm.run()
            }
        }
    }

    /// Monitor-free isolated procedure run (the verdict-only T-GEN
    /// path); result-identical to [`PreparedEngine::run_proc_with`] with
    /// a no-op monitor, and like [`PreparedEngine::run_fast`] it returns
    /// a repeating run's step-limit error early on the VM.
    ///
    /// # Errors
    /// Same conditions as [`PreparedEngine::run_proc_with`].
    pub fn run_proc_fast(&self, proc: ProcId, args: Vec<Value>, limits: Limits) -> Result<ProcRun> {
        match &self.backend {
            Backend::Tree(cfg) => {
                let mut interp = Interpreter::with_shared_cfg(self.module, Arc::clone(cfg));
                interp.set_limits(limits);
                interp.run_proc_with(proc, args, &mut NoopMonitor)
            }
            Backend::Vm(program) => {
                let mut vm = Vm::new(self.module, program);
                vm.set_limits(limits);
                vm.run_proc(proc, args)
            }
        }
    }
}

impl std::fmt::Debug for PreparedEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedEngine")
            .field("engine", &self.engine)
            .finish()
    }
}
