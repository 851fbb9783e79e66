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
//! [`Engine`] names an execution strategy; [`PreparedEngine`] holds one
//! engine's ready-to-run state and exposes both entry points (the whole
//! program, or one procedure in isolation). It is the only code that
//! dispatches between the two engines; everything above it (sessions,
//! campaigns, T-GEN batches, the corpus differential) runs through it.
//!
//! ```
//! use gadt_pascal::{parser::parse_program, sema::analyze, cfg::lower};
//! use gadt_pascal::interp::{Limits, NoopMonitor};
//! use gadt_vm::{Engine, PreparedEngine};
//! use std::sync::Arc;
//!
//! let module = analyze(parse_program(
//!     "program P; var x: integer; begin x := 2 + 2; writeln(x) end.",
//! ).unwrap()).unwrap();
//! let cfg = Arc::new(lower(&module));
//! let engine = PreparedEngine::new(&module, &cfg, Engine::Vm);
//! let out = engine
//!     .run_with(&module, Vec::new(), Limits::default(), &mut NoopMonitor)
//!     .unwrap();
//! assert_eq!(out.output_text(), "4\n");
//! ```
//!
//! A `PreparedEngine` owns its compiled state behind an `Arc` and keeps
//! all mutable run state per call, so one prepared program can serve
//! any number of concurrent runs (mutation campaigns share one across
//! worker threads), and cloning it shares that state.

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

/// One engine's ready-to-run state, prepared from a module and its CFG.
/// It runs the whole program, or one top-level procedure in isolation,
/// feeding events to a monitor. Each run is handed the module the
/// engine was prepared from. Every run method takes `&self` — all
/// per-run state is internal to the call — so one prepared engine
/// serves concurrent callers.
#[derive(Clone)]
pub enum PreparedEngine {
    /// The tree-walker over the shared lowering, handed by `Arc` to a
    /// fresh interpreter per run (no CFG clone).
    TreeWalker(Arc<ProgramCfg>),
    /// The bytecode VM: compiled once, shared by every run.
    Vm(Arc<VmProgram>),
}

impl PreparedEngine {
    /// Prepares `engine` over a module's lowered CFG. For [`Engine::Vm`]
    /// this compiles the bytecode program (one-time cost, amortized
    /// over every subsequent run); the tree-walker shares `cfg`.
    pub fn new(module: &Module, cfg: &Arc<ProgramCfg>, engine: Engine) -> Self {
        match engine {
            Engine::TreeWalker => PreparedEngine::TreeWalker(Arc::clone(cfg)),
            Engine::Vm => PreparedEngine::Vm(Arc::new(VmProgram::compile(module, cfg))),
        }
    }

    /// Which engine this is.
    pub fn engine(&self) -> Engine {
        match self {
            PreparedEngine::TreeWalker(_) => Engine::TreeWalker,
            PreparedEngine::Vm(_) => Engine::Vm,
        }
    }

    /// Runs the whole program with the given input queue.
    ///
    /// # Errors
    /// Runtime errors (identical across engines, message and span).
    pub fn run_with(
        &self,
        module: &Module,
        input: Vec<Value>,
        limits: Limits,
        monitor: &mut dyn Monitor,
    ) -> Result<Outcome> {
        match self {
            PreparedEngine::TreeWalker(cfg) => {
                let mut interp = Interpreter::with_shared_cfg(module, Arc::clone(cfg));
                interp.set_limits(limits);
                interp.set_input(input);
                interp.run_with(monitor)
            }
            PreparedEngine::Vm(program) => {
                let mut vm = Vm::new(module, program);
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
        module: &Module,
        proc: ProcId,
        args: Vec<Value>,
        limits: Limits,
        monitor: &mut dyn Monitor,
    ) -> Result<ProcRun> {
        match self {
            PreparedEngine::TreeWalker(cfg) => {
                let mut interp = Interpreter::with_shared_cfg(module, Arc::clone(cfg));
                interp.set_limits(limits);
                interp.run_proc_with(proc, args, monitor)
            }
            PreparedEngine::Vm(program) => {
                let mut vm = Vm::new(module, program);
                vm.set_limits(limits);
                vm.run_proc_with(proc, args, monitor)
            }
        }
    }

    /// Monitor-free whole-program run: identical output, step count,
    /// final globals, and errors to [`PreparedEngine::run_with`] with a
    /// no-op monitor, but the VM skips all observation machinery.
    /// Use when only the *result* matters (kill checks, differential
    /// output comparison). On the VM a run whose machine state repeats
    /// returns its step-limit error early, as soon as the repeat shows.
    ///
    /// # Errors
    /// Same conditions as [`PreparedEngine::run_with`].
    pub fn run_fast(&self, module: &Module, input: Vec<Value>, limits: Limits) -> Result<Outcome> {
        match self {
            PreparedEngine::TreeWalker(_) => self.run_with(module, input, limits, &mut NoopMonitor),
            PreparedEngine::Vm(program) => {
                let mut vm = Vm::new(module, program);
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
    pub fn run_proc_fast(
        &self,
        module: &Module,
        proc: ProcId,
        args: Vec<Value>,
        limits: Limits,
    ) -> Result<ProcRun> {
        match self {
            PreparedEngine::TreeWalker(_) => {
                self.run_proc_with(module, proc, args, limits, &mut NoopMonitor)
            }
            PreparedEngine::Vm(program) => {
                let mut vm = Vm::new(module, program);
                vm.set_limits(limits);
                vm.run_proc(proc, args)
            }
        }
    }
}

impl std::fmt::Debug for PreparedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedEngine")
            .field("engine", &self.engine())
            .finish()
    }
}
