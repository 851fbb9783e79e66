//! CFG interpreter with monitor hooks.
//!
//! The interpreter executes the lowered [`crate::cfg`] form, which is what
//! makes `goto` — including the paper's "global gotos" out of nested
//! procedures — runnable. It is fully deterministic: input comes from a
//! queue, output goes to a buffer, variables are zero-initialized.
//!
//! A [`Monitor`] receives a stream of [`Event`]s:
//!
//! * call enter/exit with In/Out parameter values *and* the non-local
//!   variables each invocation read or wrote (the paper's "variables which
//!   cause global side-effects within the unit", §5.2) — the raw material
//!   for execution trees;
//! * loop enter/iteration/exit, because the paper debugs loops as units;
//! * one [`Event::Step`] per executed instruction/branch with the memory
//!   locations defined and used — the raw material for dynamic slicing.
//!
//! Var-parameters are true references (bindings resolve through parameter
//! chains to an ultimate location at call time), so the side-effect
//! behaviour the paper's transformations target is faithfully modeled.

use crate::ast::{BinOp, StmtId, UnOp};
use crate::cfg::{
    lower, BlockId, CallArg, Instr, InstrKind, LoopId, ProgramCfg, RExpr, Terminator,
};
use crate::error::{Diagnostic, Result, Stage};
use crate::sema::{Intrinsic, Module, ProcId, VarId, VarKind, MAIN_PROC};
use crate::span::Span;
use crate::types::Type;
use crate::value::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A concrete memory location at run time.
///
/// `frame` is a monotonically increasing frame instance id (so recursion
/// instances are distinct); `elem` is `Some(i)` for one array element and
/// `None` for a whole scalar/array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemLoc {
    /// Owning frame instance.
    pub frame: u64,
    /// The variable.
    pub var: VarId,
    /// Array element index, if element-granular.
    pub elem: Option<i64>,
}

/// Events delivered to a [`Monitor`] during execution.
#[derive(Debug, Clone)]
pub enum Event<'a> {
    /// A procedure/function invocation begins.
    CallEnter {
        /// Dynamic call instance id (0 is the main program).
        call: u64,
        /// New frame instance id.
        frame: u64,
        /// Callee.
        proc: ProcId,
        /// The call statement at the call site (`None` for main and for
        /// calls inside expressions, which carry the enclosing statement).
        site_stmt: Option<StmtId>,
        /// Parameter values at entry: value params as passed, reference
        /// params showing the referenced location's incoming value.
        args: &'a [(VarId, Value)],
        /// Reference-parameter bindings: the ultimate memory location each
        /// `var`/`out` parameter aliases (needed to resolve "output k of
        /// this call" criteria precisely).
        bindings: &'a [(VarId, MemLoc)],
        /// Current dynamic call depth (main = 0).
        depth: usize,
    },
    /// A procedure/function invocation ends.
    CallExit {
        /// Matching call instance id.
        call: u64,
        /// Matching frame instance id.
        frame: u64,
        /// Callee.
        proc: ProcId,
        /// Output values: reference parameters' final values, plus the
        /// function result under the result pseudo-variable.
        outs: &'a [(VarId, Value)],
        /// Non-local variables read (before any write) during the
        /// invocation's dynamic extent, with the value first read.
        nonlocal_reads: &'a [(VarId, Value)],
        /// Non-local variables written during the invocation, with their
        /// final values at exit.
        nonlocal_writes: &'a [(VarId, Value)],
        /// Reference parameters whose incoming value was read before any
        /// write (so the paper's queries can show them as `In` values).
        param_reads: &'a [VarId],
        /// Whether the invocation was aborted by a non-local goto.
        via_goto: bool,
    },
    /// Control entered a loop unit (iteration 1 starts).
    LoopEnter {
        /// The loop.
        loop_id: LoopId,
        /// Frame instance executing the loop.
        frame: u64,
        /// Dynamic loop instance id.
        instance: u64,
    },
    /// A new iteration begins (iteration ≥ 2): values of the variables the
    /// loop body assigns, as of the iteration boundary.
    LoopIter {
        /// The loop.
        loop_id: LoopId,
        /// Frame instance.
        frame: u64,
        /// Dynamic loop instance id.
        instance: u64,
        /// Iteration number now starting (2, 3, …).
        iteration: u64,
        /// Snapshot of loop-assigned variables.
        vars: &'a [(VarId, Value)],
    },
    /// Control left a loop unit.
    LoopExit {
        /// The loop.
        loop_id: LoopId,
        /// Frame instance.
        frame: u64,
        /// Dynamic loop instance id.
        instance: u64,
        /// Total header arrivals (≥ 1).
        iterations: u64,
        /// Snapshot of loop-assigned variables at exit.
        vars: &'a [(VarId, Value)],
    },
    /// One instruction or branch executed.
    Step {
        /// Global event index (monotone).
        idx: u64,
        /// Executing frame instance.
        frame: u64,
        /// Executing procedure.
        proc: ProcId,
        /// Block within the procedure.
        block: BlockId,
        /// Instruction index within the block; `None` for the terminator.
        instr: Option<usize>,
        /// Source statement.
        stmt: StmtId,
        /// Locations defined.
        defs: &'a [MemLoc],
        /// Locations used.
        uses: &'a [MemLoc],
        /// For branches: the outcome. For other steps `None`.
        branch_taken: Option<bool>,
    },
}

/// Receives execution events. All methods have no-op defaults.
pub trait Monitor {
    /// Called for every event, in execution order.
    fn on_event(&mut self, module: &Module, event: &Event<'_>);
}

/// A monitor that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopMonitor;

impl Monitor for NoopMonitor {
    fn on_event(&mut self, _module: &Module, _event: &Event<'_>) {}
}

/// Result of a successful run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Captured `write`/`writeln` output.
    output: String,
    /// Number of step events executed.
    pub steps: u64,
    /// Final values of program-level (global) variables, by lowercase name.
    pub globals: HashMap<String, Value>,
}

impl Outcome {
    /// Assembles an outcome from engine-produced parts. Used by other
    /// execution engines (the bytecode VM in `gadt-vm`) that construct
    /// outcomes identical to this interpreter's.
    pub fn from_parts(output: String, steps: u64, globals: HashMap<String, Value>) -> Outcome {
        Outcome {
            output,
            steps,
            globals,
        }
    }

    /// The captured textual output.
    pub fn output_text(&self) -> &str {
        &self.output
    }

    /// Final value of a global variable, by case-insensitive name.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(&name.to_ascii_lowercase())
    }
}

/// Result of running one procedure in isolation
/// ([`Interpreter::run_proc`]).
#[derive(Debug, Clone)]
pub struct ProcRun {
    /// Final values of reference parameters, in declaration order.
    pub outs: Vec<(VarId, Value)>,
    /// The function result, for functions.
    pub result: Option<Value>,
    /// Captured output.
    pub output: String,
    /// Steps executed.
    pub steps: u64,
}

/// Interpreter configuration limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Maximum number of step events before aborting.
    pub max_steps: u64,
    /// Maximum dynamic call depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 20_000_000,
            max_depth: 10_000,
        }
    }
}

struct FrameData {
    /// Monotonic frame instance id.
    id: u64,
    proc: ProcId,
    call: u64,
    vars: HashMap<VarId, Value>,
    /// Reference-parameter bindings to ultimate locations.
    bindings: HashMap<VarId, Loc>,
    /// Index (in the frame stack) of the lexically enclosing frame.
    static_link: Option<usize>,
    /// Active loops: (loop id, instance id, header arrivals).
    loop_stack: Vec<(LoopId, u64, u64)>,
    /// Non-local variables read before written: first-read values.
    nl_reads: Vec<(VarId, Value)>,
    /// Non-local variables written.
    nl_written: Vec<VarId>,
    /// Reference parameters whose incoming value was read before any
    /// write (these render as `In` in execution-tree queries).
    ref_read: Vec<VarId>,
    /// Reference parameters written so far.
    ref_written: Vec<VarId>,
    /// Where the call statement was (for CallEnter reporting).
    site_stmt: Option<StmtId>,
}

/// An absolute storage location: frame-stack index + variable + element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    frame_idx: usize,
    var: VarId,
    elem: Option<i64>,
    /// `Some(param)` when the location was reached through a reference-
    /// parameter binding (parameter-mediated accesses are not global side
    /// effects, and first-access kinds are tracked per parameter).
    via_param: Option<VarId>,
}

/// The Pascal interpreter.
///
/// See the [crate-level docs](crate) for a quickstart. Use
/// [`Interpreter::run_with`] to attach a [`Monitor`].
pub struct Interpreter<'m> {
    module: &'m Module,
    cfg: Arc<ProgramCfg>,
    input: VecDeque<Value>,
    output: String,
    limits: Limits,
    frames: Vec<FrameData>,
    next_frame: u64,
    next_call: u64,
    next_loop_instance: u64,
    steps: u64,
    /// Context of the instruction currently executing, used to attribute
    /// Step events for calls occurring inside expressions.
    cur_ctx: (BlockId, Option<usize>, StmtId),
    /// Cache: variables assigned inside each loop (for iteration
    /// snapshots).
    loop_vars: HashMap<LoopId, Vec<VarId>>,
}

impl<'m> std::fmt::Debug for Interpreter<'m> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("steps", &self.steps)
            .field("frames", &self.frames.len())
            .finish()
    }
}

fn rt_err(msg: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(Stage::Runtime, msg, span)
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter for a module (lowers its CFG internally; the
    /// lowering is deterministic, so block ids match any other `lower`
    /// of the same module).
    pub fn new(module: &'m Module) -> Self {
        Self::with_cfg(module, lower(module))
    }

    /// Creates an interpreter over an already-lowered CFG.
    pub fn with_cfg(module: &'m Module, cfg: ProgramCfg) -> Self {
        Self::with_shared_cfg(module, Arc::new(cfg))
    }

    /// Creates an interpreter sharing an already-lowered CFG (avoids
    /// cloning the CFG when many runs execute the same module — batch
    /// workers on different threads all point at one lowering).
    pub fn with_shared_cfg(module: &'m Module, cfg: Arc<ProgramCfg>) -> Self {
        Interpreter {
            module,
            cfg,
            input: VecDeque::new(),
            output: String::new(),
            limits: Limits::default(),
            frames: Vec::new(),
            next_frame: 0,
            next_call: 0,
            next_loop_instance: 0,
            steps: 0,
            cur_ctx: (BlockId(0), None, StmtId(0)),
            loop_vars: HashMap::new(),
        }
    }

    /// The lowered CFG being executed.
    pub fn cfg(&self) -> &ProgramCfg {
        &self.cfg
    }

    /// Replaces the execution limits.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Queues one input value for `read`.
    pub fn push_input(&mut self, v: Value) {
        self.input.push_back(v);
    }

    /// Queues one integer input.
    pub fn push_input_int(&mut self, n: i64) {
        self.input.push_back(Value::Int(n));
    }

    /// Queues many input values.
    pub fn set_input(&mut self, values: impl IntoIterator<Item = Value>) {
        self.input = values.into_iter().collect();
    }

    /// Runs the program to completion without a monitor.
    ///
    /// # Errors
    /// Returns a runtime [`Diagnostic`] on division by zero, array index
    /// out of bounds, exhausted input, arithmetic overflow, exceeded step
    /// or depth limits, or a non-local goto whose target is not active.
    pub fn run(&mut self) -> Result<Outcome> {
        self.run_with(&mut NoopMonitor)
    }

    /// Runs the program, delivering events to `monitor`.
    ///
    /// # Errors
    /// Same conditions as [`Interpreter::run`].
    pub fn run_with(&mut self, monitor: &mut dyn Monitor) -> Result<Outcome> {
        self.frames.clear();
        self.output.clear();
        self.steps = 0;
        self.next_frame = 0;
        self.next_call = 0;
        self.next_loop_instance = 0;

        self.push_frame(MAIN_PROC, None, HashMap::new(), HashMap::new(), None);
        self.fire_call_enter(monitor, &[]);
        let flow = self.exec_proc(monitor)?;
        debug_assert!(flow.is_none(), "main cannot exit via goto");
        // Capture globals before popping.
        let mut globals = HashMap::new();
        for v in self.module.vars_of(MAIN_PROC) {
            if v.kind == VarKind::Global {
                if let Some(val) = self.frames[0].vars.get(&v.id) {
                    globals.insert(v.name.to_ascii_lowercase(), val.clone());
                }
            }
        }
        self.fire_call_exit(monitor, false);
        self.frames.pop();
        Ok(Outcome {
            output: std::mem::take(&mut self.output),
            steps: self.steps,
            globals,
        })
    }

    /// Runs a single top-level procedure/function in isolation with the
    /// given argument values, without executing the main body — the entry
    /// point used by the T-GEN test runner to execute test cases against
    /// one unit.
    ///
    /// Globals are zero-initialized; reference parameters are backed by
    /// hidden storage whose final values appear in [`ProcRun::outs`].
    ///
    /// # Errors
    /// * the procedure is not declared at the program's top level (nested
    ///   procedures need their lexical parent's frame);
    /// * argument count/type mismatch;
    /// * any runtime error of [`Interpreter::run`].
    pub fn run_proc(&mut self, proc: ProcId, args: Vec<Value>) -> Result<ProcRun> {
        self.run_proc_with(proc, args, &mut NoopMonitor)
    }

    /// [`Interpreter::run_proc`] with a monitor attached.
    ///
    /// # Errors
    /// Same conditions as [`Interpreter::run_proc`].
    pub fn run_proc_with(
        &mut self,
        proc: ProcId,
        args: Vec<Value>,
        monitor: &mut dyn Monitor,
    ) -> Result<ProcRun> {
        let info = self.module.proc(proc).clone();
        if info.parent != Some(MAIN_PROC) {
            return Err(rt_err(
                format!("procedure `{}` is not declared at the top level", info.name),
                Span::dummy(),
            ));
        }
        if info.params.len() != args.len() {
            return Err(rt_err(
                format!(
                    "`{}` expects {} argument(s), got {}",
                    info.name,
                    info.params.len(),
                    args.len()
                ),
                Span::dummy(),
            ));
        }
        self.frames.clear();
        self.output.clear();
        self.steps = 0;
        self.next_frame = 0;
        self.next_call = 0;
        self.next_loop_instance = 0;

        self.push_frame(MAIN_PROC, None, HashMap::new(), HashMap::new(), None);
        self.fire_call_enter(monitor, &[]);

        let mut params = HashMap::new();
        let mut bindings = HashMap::new();
        let mut entry_args = Vec::new();
        for (&p, v) in info.params.iter().zip(args) {
            let pinfo = self.module.var(p).clone();
            let mode = pinfo.param_mode().expect("param mode");
            let v = match (&v, &pinfo.ty) {
                (Value::Int(n), Type::Real) => Value::Real(*n as f64),
                _ => v,
            };
            if !pinfo.ty.assignable_from(&v.type_of()) {
                return Err(rt_err(
                    format!(
                        "argument for `{}` has type `{}`, expected `{}`",
                        pinfo.name,
                        v.type_of(),
                        pinfo.ty
                    ),
                    Span::dummy(),
                ));
            }
            entry_args.push((p, v.clone()));
            if mode.is_reference() {
                // Hidden storage in the root frame, keyed by the param id.
                self.frames[0].vars.insert(p, v);
                bindings.insert(
                    p,
                    Loc {
                        frame_idx: 0,
                        var: p,
                        elem: None,
                        via_param: None,
                    },
                );
            } else {
                params.insert(p, v);
            }
        }
        self.push_frame(proc, Some(0), params, bindings, None);
        self.fire_call_enter(monitor, &entry_args);
        let flow = self.exec_proc(monitor)?;
        if flow.is_some() {
            return Err(rt_err(
                "non-local goto escaped an isolated procedure run",
                Span::dummy(),
            ));
        }
        let mut outs = Vec::new();
        for &p in &info.params {
            if self
                .module
                .var(p)
                .param_mode()
                .is_some_and(|m| m.passes_back())
            {
                if let Some(v) = self.frames[0].vars.get(&p) {
                    outs.push((p, v.clone()));
                }
            }
        }
        let result = info
            .result_var
            .and_then(|rv| self.top().vars.get(&rv).cloned());
        self.fire_call_exit(monitor, false);
        self.frames.pop();
        self.fire_call_exit(monitor, false);
        self.frames.pop();
        Ok(ProcRun {
            outs,
            result,
            output: std::mem::take(&mut self.output),
            steps: self.steps,
        })
    }

    // ------------------------------------------------------------------
    // Frames
    // ------------------------------------------------------------------

    fn push_frame(
        &mut self,
        proc: ProcId,
        static_link: Option<usize>,
        params: HashMap<VarId, Value>,
        bindings: HashMap<VarId, Loc>,
        site_stmt: Option<StmtId>,
    ) {
        let mut vars = HashMap::new();
        for v in self.module.vars_of(proc) {
            if !bindings.contains_key(&v.id) {
                vars.insert(v.id, Value::zero_of(&v.ty));
            }
        }
        for (k, val) in params {
            vars.insert(k, val);
        }
        let id = self.next_frame;
        self.next_frame += 1;
        let call = self.next_call;
        self.next_call += 1;
        self.frames.push(FrameData {
            id,
            proc,
            call,
            vars,
            bindings,
            static_link,
            loop_stack: Vec::new(),
            nl_reads: Vec::new(),
            nl_written: Vec::new(),
            ref_read: Vec::new(),
            ref_written: Vec::new(),
            site_stmt,
        });
    }

    fn top(&self) -> &FrameData {
        self.frames.last().expect("frame stack nonempty")
    }

    /// Resolves a variable reference in the current frame to an absolute
    /// location (following static links and reference bindings).
    fn resolve_var(&self, var: VarId) -> Loc {
        let top_idx = self.frames.len() - 1;
        let owner = self.module.var(var).owner;
        let mut idx = top_idx;
        loop {
            let f = &self.frames[idx];
            if f.proc == owner {
                if let Some(b) = f.bindings.get(&var) {
                    return Loc {
                        via_param: Some(var),
                        ..*b
                    };
                }
                return Loc {
                    frame_idx: idx,
                    var,
                    elem: None,
                    via_param: None,
                };
            }
            idx = f
                .static_link
                .expect("variable owner must be on the static chain");
        }
    }

    fn loc_with_elem(
        &mut self,
        var: VarId,
        index: Option<&RExpr>,
        span: Span,
        monitor: &mut dyn Monitor,
        uses: &mut Vec<MemLoc>,
    ) -> Result<Loc> {
        let base = self.resolve_var(var);
        match index {
            None => Ok(base),
            Some(ix) => {
                let iv = self.eval(ix, span, monitor, uses)?;
                let i = iv
                    .as_int()
                    .ok_or_else(|| rt_err("array index is not an integer", span))?;
                if base.elem.is_some() {
                    return Err(rt_err("cannot index a scalar location", span));
                }
                Ok(Loc {
                    elem: Some(i),
                    ..base
                })
            }
        }
    }

    fn memloc(&self, loc: Loc) -> MemLoc {
        MemLoc {
            frame: self.frames[loc.frame_idx].id,
            var: loc.var,
            elem: loc.elem,
        }
    }

    fn read_loc(&mut self, loc: Loc, span: Span) -> Result<Value> {
        let f = &self.frames[loc.frame_idx];
        let base = f
            .vars
            .get(&loc.var)
            .ok_or_else(|| rt_err("read of unbound variable", span))?;
        let value = match loc.elem {
            None => base.clone(),
            Some(i) => match base {
                Value::Array(a) => a
                    .get(i)
                    .ok_or_else(|| {
                        rt_err(
                            format!("array index {i} out of bounds [{}..{}]", a.lo, a.hi()),
                            span,
                        )
                    })?
                    .clone(),
                _ => return Err(rt_err("indexing a non-array value", span)),
            },
        };
        if let Some(p) = loc.via_param {
            let f = self.frames.last_mut().expect("frame");
            if !f.ref_written.contains(&p) && !f.ref_read.contains(&p) {
                f.ref_read.push(p);
            }
        }
        self.note_nonlocal_read(loc, &value);
        Ok(value)
    }

    /// Reads a location without recording side-effect or parameter-access
    /// bookkeeping (used to capture incoming values for reporting).
    fn peek_loc(&self, loc: Loc, span: Span) -> Result<Value> {
        let f = &self.frames[loc.frame_idx];
        let base = f
            .vars
            .get(&loc.var)
            .ok_or_else(|| rt_err("read of unbound variable", span))?;
        match loc.elem {
            None => Ok(base.clone()),
            Some(i) => match base {
                Value::Array(a) => a
                    .get(i)
                    .cloned()
                    .ok_or_else(|| rt_err("array index out of bounds", span)),
                _ => Err(rt_err("indexing a non-array value", span)),
            },
        }
    }

    fn write_loc(&mut self, loc: Loc, value: Value, span: Span) -> Result<()> {
        if let Some(p) = loc.via_param {
            let f = self.frames.last_mut().expect("frame");
            if !f.ref_written.contains(&p) {
                f.ref_written.push(p);
            }
        }
        self.note_nonlocal_write(loc);
        let f = &mut self.frames[loc.frame_idx];
        match loc.elem {
            None => {
                f.vars.insert(loc.var, value);
                Ok(())
            }
            Some(i) => {
                let base = f
                    .vars
                    .get_mut(&loc.var)
                    .ok_or_else(|| rt_err("write to unbound variable", span))?;
                match base {
                    Value::Array(a) => {
                        let (lo, hi) = (a.lo, a.hi());
                        let slot = a.get_mut(i).ok_or_else(|| {
                            rt_err(format!("array index {i} out of bounds [{lo}..{hi}]"), span)
                        })?;
                        *slot = value;
                        Ok(())
                    }
                    _ => Err(rt_err("indexing a non-array value", span)),
                }
            }
        }
    }

    /// Records direct non-local accesses on every active invocation between
    /// the accessor and the owner (the paper's global side-effect
    /// attribution). Accesses through reference-parameter bindings are
    /// parameter-mediated and not recorded.
    fn note_nonlocal_read(&mut self, loc: Loc, value: &Value) {
        let top = self.frames.len() - 1;
        if loc.via_param.is_some() || loc.frame_idx >= top {
            return;
        }
        for idx in ((loc.frame_idx + 1)..=top).rev() {
            let already_written = self.frames[idx].nl_written.contains(&loc.var);
            let already_read = self.frames[idx].nl_reads.iter().any(|(v, _)| *v == loc.var);
            if !already_written && !already_read {
                let v = value.clone();
                self.frames[idx].nl_reads.push((loc.var, v));
            }
        }
    }

    fn note_nonlocal_write(&mut self, loc: Loc) {
        let top = self.frames.len() - 1;
        if loc.via_param.is_some() || loc.frame_idx >= top {
            return;
        }
        for idx in (loc.frame_idx + 1)..=top {
            if !self.frames[idx].nl_written.contains(&loc.var) {
                self.frames[idx].nl_written.push(loc.var);
            }
        }
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    fn fire_call_enter(&mut self, monitor: &mut dyn Monitor, args: &[(VarId, Value)]) {
        let f = self.top();
        let mut bindings: Vec<(VarId, MemLoc)> = f
            .bindings
            .iter()
            .map(|(p, loc)| {
                (
                    *p,
                    MemLoc {
                        frame: self.frames[loc.frame_idx].id,
                        var: loc.var,
                        elem: loc.elem,
                    },
                )
            })
            .collect();
        bindings.sort_by_key(|(p, _)| *p);
        let f = self.top();
        let ev = Event::CallEnter {
            call: f.call,
            frame: f.id,
            proc: f.proc,
            site_stmt: f.site_stmt,
            args,
            bindings: &bindings,
            depth: self.frames.len() - 1,
        };
        monitor.on_event(self.module, &ev);
    }

    fn fire_call_exit(&mut self, monitor: &mut dyn Monitor, via_goto: bool) {
        let f = self.frames.last().expect("frame");
        let info = self.module.proc(f.proc);
        let mut outs = Vec::new();
        for &p in &info.params {
            let mode = self.module.var(p).param_mode().expect("param");
            if mode.passes_back() {
                if let Some(b) = f.bindings.get(&p) {
                    let fb = &self.frames[b.frame_idx];
                    if let Some(base) = fb.vars.get(&b.var) {
                        let v = match b.elem {
                            None => base.clone(),
                            Some(i) => match base {
                                Value::Array(a) => a.get(i).cloned().unwrap_or(Value::Int(0)),
                                other => other.clone(),
                            },
                        };
                        outs.push((p, v));
                    }
                }
            }
        }
        if let Some(rv) = info.result_var {
            if let Some(v) = f.vars.get(&rv) {
                outs.push((rv, v.clone()));
            }
        }
        let nl_writes: Vec<(VarId, Value)> = f
            .nl_written
            .iter()
            .map(|&v| {
                let loc = {
                    // Resolve from this frame's perspective.
                    let owner = self.module.var(v).owner;
                    let mut idx = self.frames.len() - 1;
                    loop {
                        if self.frames[idx].proc == owner {
                            break Loc {
                                frame_idx: idx,
                                var: v,
                                elem: None,
                                via_param: None,
                            };
                        }
                        match self.frames[idx].static_link {
                            Some(n) => idx = n,
                            None => {
                                break Loc {
                                    frame_idx: 0,
                                    var: v,
                                    elem: None,
                                    via_param: None,
                                }
                            }
                        }
                    }
                };
                let val = self.frames[loc.frame_idx]
                    .vars
                    .get(&v)
                    .cloned()
                    .unwrap_or(Value::Int(0));
                (v, val)
            })
            .collect();
        let f = self.top();
        let ev = Event::CallExit {
            call: f.call,
            frame: f.id,
            proc: f.proc,
            outs: &outs,
            nonlocal_reads: &f.nl_reads,
            nonlocal_writes: &nl_writes,
            param_reads: &f.ref_read,
            via_goto,
        };
        monitor.on_event(self.module, &ev);
    }

    fn loop_assigned_vars(&mut self, lid: LoopId) -> Vec<VarId> {
        if let Some(v) = self.loop_vars.get(&lid) {
            return v.clone();
        }
        let info = self.cfg.loop_info(lid).clone();
        let pcfg = self.cfg.proc(info.proc);
        let mut vars = Vec::new();
        for (_, b) in pcfg.iter() {
            if !b.loops.contains(&lid) {
                continue;
            }
            for ins in &b.instrs {
                match &ins.kind {
                    InstrKind::Assign { lhs, .. } | InstrKind::Read { target: lhs } => {
                        if !vars.contains(&lhs.var) {
                            vars.push(lhs.var);
                        }
                    }
                    InstrKind::Call { args, .. } => {
                        for a in args {
                            if let CallArg::Ref(p) = a {
                                if !vars.contains(&p.var) {
                                    vars.push(p.var);
                                }
                            }
                        }
                    }
                    InstrKind::Write { .. } => {}
                }
            }
        }
        // Only variables resolvable in the loop's own proc are snapshotted.
        vars.retain(|v| self.module.var(*v).kind != VarKind::Temp);
        self.loop_vars.insert(lid, vars.clone());
        vars
    }

    fn loop_snapshot(&mut self, lid: LoopId) -> Vec<(VarId, Value)> {
        let vars = self.loop_assigned_vars(lid);
        let mut snap = Vec::new();
        for v in vars {
            let loc = self.resolve_var(v);
            if let Ok(val) = self.peek_loc(loc, Span::dummy()) {
                snap.push((v, val));
            }
        }
        snap
    }

    /// Fires loop events implied by a control transfer from the current
    /// loop context to `to_block`.
    fn transfer_loops(&mut self, to_block: BlockId, monitor: &mut dyn Monitor) {
        let proc = self.top().proc;
        let to_loops = self.cfg.proc(proc).block(to_block).loops.clone();
        let cur: Vec<LoopId> = self.top().loop_stack.iter().map(|(l, _, _)| *l).collect();
        let mut common = 0;
        while common < cur.len() && common < to_loops.len() && cur[common] == to_loops[common] {
            common += 1;
        }
        // Exit loops we left, innermost first.
        for i in (common..cur.len()).rev() {
            let (lid, instance, iters) = self.top().loop_stack[i];
            let vars = self.loop_snapshot(lid);
            let frame = self.top().id;
            monitor.on_event(
                self.module,
                &Event::LoopExit {
                    loop_id: lid,
                    frame,
                    instance,
                    iterations: iters,
                    vars: &vars,
                },
            );
            self.frames.last_mut().expect("frame").loop_stack.pop();
        }
        // Enter loops newly containing the target.
        for &lid in &to_loops[common..] {
            let instance = self.next_loop_instance;
            self.next_loop_instance += 1;
            let frame = self.top().id;
            monitor.on_event(
                self.module,
                &Event::LoopEnter {
                    loop_id: lid,
                    frame,
                    instance,
                },
            );
            self.frames
                .last_mut()
                .expect("frame")
                .loop_stack
                .push((lid, instance, 1));
        }
        // Back-edge to the innermost active loop's header = new iteration.
        if let Some(&(lid, instance, iters)) = self.top().loop_stack.last() {
            if common == to_loops.len()
                && common == cur.len()
                && self.cfg.loop_info(lid).header == to_block
            {
                let iteration = iters + 1;
                let vars = self.loop_snapshot(lid);
                let frame = self.top().id;
                monitor.on_event(
                    self.module,
                    &Event::LoopIter {
                        loop_id: lid,
                        frame,
                        instance,
                        iteration,
                        vars: &vars,
                    },
                );
                self.frames
                    .last_mut()
                    .expect("frame")
                    .loop_stack
                    .last_mut()
                    .expect("loop")
                    .2 = iteration;
            }
        }
    }

    /// Fires exits for all loops still active in the top frame (used when
    /// returning or unwinding).
    fn exit_all_loops(&mut self, monitor: &mut dyn Monitor) {
        while let Some(&(lid, instance, iters)) = self.top().loop_stack.last() {
            let vars = self.loop_snapshot(lid);
            let frame = self.top().id;
            monitor.on_event(
                self.module,
                &Event::LoopExit {
                    loop_id: lid,
                    frame,
                    instance,
                    iterations: iters,
                    vars: &vars,
                },
            );
            self.frames.last_mut().expect("frame").loop_stack.pop();
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Executes the top frame's procedure. Returns `Some((owner, label))`
    /// if a non-local goto unwound past this frame.
    fn exec_proc(&mut self, monitor: &mut dyn Monitor) -> Result<Option<(ProcId, String)>> {
        let proc = self.top().proc;
        let entry = self.cfg.proc(proc).entry;
        self.exec_from(entry, monitor)
    }

    fn exec_from(
        &mut self,
        mut block: BlockId,
        monitor: &mut dyn Monitor,
    ) -> Result<Option<(ProcId, String)>> {
        let proc = self.top().proc;
        self.transfer_loops(block, monitor);
        // Cheap handle so instructions can be borrowed while `self` is
        // mutated (the CFG itself is immutable during execution).
        let cfg = Arc::clone(&self.cfg);
        'blocks: loop {
            let blk = cfg.proc(proc).block(block);
            let n_instrs = blk.instrs.len();
            for i in 0..n_instrs {
                let instr = &cfg.proc(proc).block(block).instrs[i];
                if let Some((owner, label)) = self.exec_instr(instr, block, i, monitor)? {
                    if owner == proc {
                        // A non-local goto from a callee lands here: resume
                        // at the label block, abandoning the rest of this
                        // block.
                        let target = cfg.proc(proc).labels[&label];
                        self.transfer_loops(target, monitor);
                        block = target;
                        continue 'blocks;
                    }
                    self.exit_all_loops(monitor);
                    return Ok(Some((owner, label)));
                }
            }
            let term = &cfg.proc(proc).block(block).term;
            match term {
                Terminator::Jump(b) => {
                    self.transfer_loops(*b, monitor);
                    block = *b;
                }
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                    stmt,
                } => {
                    self.cur_ctx = (block, None, *stmt);
                    let mut uses = Vec::new();
                    let v = self.eval(cond, Span::dummy(), monitor, &mut uses)?;
                    let taken = v
                        .as_bool()
                        .ok_or_else(|| rt_err("branch condition is not boolean", Span::dummy()))?;
                    self.fire_step(monitor, block, None, *stmt, &[], &uses, Some(taken))?;
                    let b = if taken { *then_bb } else { *else_bb };
                    self.transfer_loops(b, monitor);
                    block = b;
                }
                Terminator::Return => {
                    self.exit_all_loops(monitor);
                    return Ok(None);
                }
                Terminator::NonLocalGoto { owner, label, stmt } => {
                    self.fire_step(monitor, block, None, *stmt, &[], &[], None)?;
                    self.exit_all_loops(monitor);
                    if self.top().proc == *owner {
                        // Actually local (shouldn't happen; lowering uses Jump).
                        let target = cfg.proc(*owner).labels[label];
                        self.transfer_loops(target, monitor);
                        block = target;
                        continue;
                    }
                    return Ok(Some((*owner, label.clone())));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn fire_step(
        &mut self,
        monitor: &mut dyn Monitor,
        block: BlockId,
        instr: Option<usize>,
        stmt: StmtId,
        defs: &[MemLoc],
        uses: &[MemLoc],
        branch_taken: Option<bool>,
    ) -> Result<()> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(rt_err(
                format!("step limit of {} exceeded", self.limits.max_steps),
                Span::dummy(),
            ));
        }
        let f = self.top();
        let ev = Event::Step {
            idx: self.steps,
            frame: f.id,
            proc: f.proc,
            block,
            instr,
            stmt,
            defs,
            uses,
            branch_taken,
        };
        monitor.on_event(self.module, &ev);
        Ok(())
    }

    fn exec_instr(
        &mut self,
        instr: &Instr,
        block: BlockId,
        index: usize,
        monitor: &mut dyn Monitor,
    ) -> Result<Option<(ProcId, String)>> {
        self.cur_ctx = (block, Some(index), instr.stmt);
        match &instr.kind {
            InstrKind::Assign { lhs, rhs } => {
                let mut uses = Vec::new();
                let value = self.eval(rhs, instr.span, monitor, &mut uses)?;
                let loc = self.loc_with_elem(
                    lhs.var,
                    lhs.index.as_deref(),
                    instr.span,
                    monitor,
                    &mut uses,
                )?;
                let value = self.coerce_for_store(value, loc, instr.span)?;
                let def = self.memloc(loc);
                self.write_loc(loc, value, instr.span)?;
                self.fire_step(monitor, block, Some(index), instr.stmt, &[def], &uses, None)?;
                Ok(None)
            }
            InstrKind::Call { callee, args } => {
                let (flow, _frame) =
                    self.call(*callee, args, Some(instr.stmt), instr.span, monitor)?;
                match flow {
                    CallFlow::Normal(_) => Ok(None),
                    CallFlow::Unwind(owner, label) => Ok(Some((owner, label))),
                }
            }
            InstrKind::Read { target } => {
                let mut uses = Vec::new();
                let loc = self.loc_with_elem(
                    target.var,
                    target.index.as_deref(),
                    instr.span,
                    monitor,
                    &mut uses,
                )?;
                let raw = self
                    .input
                    .pop_front()
                    .ok_or_else(|| rt_err("input exhausted", instr.span))?;
                let value = self.coerce_for_store(raw, loc, instr.span)?;
                let def = self.memloc(loc);
                self.write_loc(loc, value, instr.span)?;
                self.fire_step(monitor, block, Some(index), instr.stmt, &[def], &uses, None)?;
                Ok(None)
            }
            InstrKind::Write { args, newline } => {
                let mut uses = Vec::new();
                for a in args {
                    let v = self.eval(a, instr.span, monitor, &mut uses)?;
                    self.output.push_str(&v.to_string());
                }
                if *newline {
                    self.output.push('\n');
                }
                self.fire_step(monitor, block, Some(index), instr.stmt, &[], &uses, None)?;
                Ok(None)
            }
        }
    }

    fn coerce_for_store(&self, value: Value, loc: Loc, span: Span) -> Result<Value> {
        // Determine the static type of the destination.
        let base_ty = &self.module.var(loc.var).ty;
        let ty: &Type = match (loc.elem, base_ty) {
            (Some(_), Type::Array { elem, .. }) => elem,
            (Some(_), _) => return Err(rt_err("indexing a non-array variable", span)),
            (None, t) => t,
        };
        coerce_store(value, ty, span)
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Performs a call: evaluates arguments, fires the call's Step event
    /// (so argument uses are ordered *before* the callee's events), runs
    /// the callee, and returns the flow plus the callee's frame instance
    /// id (needed to reference the function result location).
    fn call(
        &mut self,
        callee: ProcId,
        args: &[CallArg],
        site_stmt: Option<StmtId>,
        span: Span,
        monitor: &mut dyn Monitor,
    ) -> Result<(CallFlow, u64)> {
        if self.frames.len() >= self.limits.max_depth {
            return Err(rt_err(
                format!("call depth limit of {} exceeded", self.limits.max_depth),
                span,
            ));
        }
        let mut uses = Vec::new();
        let info = self.module.proc(callee).clone();
        let mut params = HashMap::new();
        let mut bindings = HashMap::new();
        let mut entry_args = Vec::new();
        for (&p, a) in info.params.iter().zip(args) {
            let pinfo = self.module.var(p).clone();
            match a {
                CallArg::Value(e) => {
                    let v = self.eval(e, span, monitor, &mut uses)?;
                    let v = match (&v, &pinfo.ty) {
                        (Value::Int(n), Type::Real) => Value::Real(*n as f64),
                        _ => v,
                    };
                    entry_args.push((p, v.clone()));
                    params.insert(p, v);
                }
                CallArg::Ref(place) => {
                    let loc = self.loc_with_elem(
                        place.var,
                        place.index.as_deref(),
                        span,
                        monitor,
                        &mut uses,
                    )?;
                    // Incoming value for reporting (no bookkeeping).
                    let current = self.peek_loc(loc, span)?;
                    entry_args.push((p, current));
                    bindings.insert(p, loc);
                }
            }
        }
        // The call's own Step event, in the caller's context, before the
        // callee runs: dynamic dependence of the callee's parameters hangs
        // off this event.
        let (ctx_block, ctx_instr, ctx_stmt) = self.cur_ctx;
        self.fire_step(monitor, ctx_block, ctx_instr, ctx_stmt, &[], &uses, None)?;
        // Static link: nearest frame on the current static chain whose proc
        // is the callee's lexical parent.
        let static_link = match info.parent {
            None => None,
            Some(parent) => {
                let mut idx = self.frames.len() - 1;
                loop {
                    if self.frames[idx].proc == parent {
                        break Some(idx);
                    }
                    match self.frames[idx].static_link {
                        Some(n) => idx = n,
                        None => break Some(0),
                    }
                }
            }
        };
        self.push_frame(callee, static_link, params, bindings, site_stmt);
        let callee_frame = self.top().id;
        self.fire_call_enter(monitor, &entry_args);
        let saved_ctx = self.cur_ctx;
        let flow = self.exec_proc(monitor)?;
        self.cur_ctx = saved_ctx;
        match flow {
            None => {
                // Normal return.
                let result = info
                    .result_var
                    .and_then(|rv| self.top().vars.get(&rv).cloned());
                self.fire_call_exit(monitor, false);
                self.frames.pop();
                Ok((CallFlow::Normal(result), callee_frame))
            }
            Some((owner, label)) => {
                // Unwind: this frame is finished abnormally. The landing
                // (if `owner` is the caller) happens in the caller's
                // `exec_from` loop.
                self.fire_call_exit(monitor, true);
                self.frames.pop();
                Ok((CallFlow::Unwind(owner, label), callee_frame))
            }
        }
    }

    // ------------------------------------------------------------------
    // Expression evaluation
    // ------------------------------------------------------------------

    fn eval(
        &mut self,
        e: &RExpr,
        span: Span,
        monitor: &mut dyn Monitor,
        uses: &mut Vec<MemLoc>,
    ) -> Result<Value> {
        match e {
            RExpr::Lit(v) => Ok(v.clone()),
            RExpr::Var(v) => {
                let loc = self.resolve_var(*v);
                uses.push(self.memloc(loc));
                self.read_loc(loc, span)
            }
            RExpr::Index { base, index } => {
                let loc = self.loc_with_elem(*base, Some(index), span, monitor, uses)?;
                uses.push(self.memloc(loc));
                self.read_loc(loc, span)
            }
            RExpr::Call { callee, args } => {
                let (flow, callee_frame) = self.call(*callee, args, None, span, monitor)?;
                match flow {
                    CallFlow::Normal(Some(v)) => {
                        // The result flows from the callee's result
                        // pseudo-variable into this expression.
                        if let Some(rv) = self.module.proc(*callee).result_var {
                            uses.push(MemLoc {
                                frame: callee_frame,
                                var: rv,
                                elem: None,
                            });
                        }
                        Ok(v)
                    }
                    CallFlow::Normal(None) => Err(rt_err("function returned no value", span)),
                    CallFlow::Unwind(..) => Err(rt_err(
                        "non-local goto out of a function used in an expression",
                        span,
                    )),
                }
            }
            RExpr::Intrinsic { which, arg } => {
                let v = self.eval(arg, span, monitor, uses)?;
                eval_intrinsic_op(*which, v, span)
            }
            RExpr::Unary { op, operand } => {
                let v = self.eval(operand, span, monitor, uses)?;
                eval_unary_op(*op, v, span)
            }
            RExpr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs, span, monitor, uses)?;
                let b = self.eval(rhs, span, monitor, uses)?;
                eval_binary_op(*op, a, b, span)
            }
        }
    }
}

// ----------------------------------------------------------------------
// Shared scalar semantics
//
// These free functions are the single implementation of Pascal's scalar
// operators, intrinsics, and store coercion. Both execution engines (this
// tree-walker and the bytecode VM in `gadt-vm`) call them, so runtime
// error messages and numeric behavior cannot drift between engines.
// ----------------------------------------------------------------------

/// Coerces `value` for a store into a destination of static type `ty`,
/// widening `integer` to `real` and rejecting unassignable types.
pub fn coerce_store(value: Value, ty: &Type, span: Span) -> Result<Value> {
    match (&value, ty) {
        (Value::Int(n), Type::Real) => Ok(Value::Real(*n as f64)),
        _ => {
            if ty.assignable_from(&value.type_of()) {
                Ok(value)
            } else {
                Err(rt_err(
                    format!("cannot store `{}` into `{ty}`", value.type_of()),
                    span,
                ))
            }
        }
    }
}

/// Applies a unary operator to an evaluated operand.
pub fn eval_unary_op(op: UnOp, v: Value, span: Span) -> Result<Value> {
    match (op, v) {
        (UnOp::Neg, Value::Int(n)) => n
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| rt_err("integer overflow in negation", span)),
        (UnOp::Neg, Value::Real(x)) => Ok(Value::Real(-x)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (op, v) => Err(rt_err(
            format!("invalid operand `{v}` for unary `{op}`"),
            span,
        )),
    }
}

/// Applies an intrinsic function to an evaluated argument.
pub fn eval_intrinsic_op(which: Intrinsic, v: Value, span: Span) -> Result<Value> {
    use Intrinsic::*;
    match (which, v) {
        (Abs, Value::Int(n)) => n
            .checked_abs()
            .map(Value::Int)
            .ok_or_else(|| rt_err("integer overflow in abs", span)),
        (Abs, Value::Real(x)) => Ok(Value::Real(x.abs())),
        (Sqr, Value::Int(n)) => n
            .checked_mul(n)
            .map(Value::Int)
            .ok_or_else(|| rt_err("integer overflow in sqr", span)),
        (Sqr, Value::Real(x)) => Ok(Value::Real(x * x)),
        (Odd, Value::Int(n)) => Ok(Value::Bool(n % 2 != 0)),
        (Ord, Value::Char(c)) => Ok(Value::Int(c as i64)),
        (Chr, Value::Int(n)) => u32::try_from(n)
            .ok()
            .and_then(char::from_u32)
            .map(Value::Char)
            .ok_or_else(|| rt_err(format!("chr({n}) out of range"), span)),
        (Trunc, Value::Real(x)) => Ok(Value::Int(x.trunc() as i64)),
        (Round, Value::Real(x)) => Ok(Value::Int(x.round() as i64)),
        (which, v) => Err(rt_err(
            format!("invalid argument `{v}` for {}", which.name()),
            span,
        )),
    }
}

/// Applies a binary operator to two evaluated operands.
pub fn eval_binary_op(op: BinOp, a: Value, b: Value, span: Span) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul => match (&a, &b) {
            (Value::Int(x), Value::Int(y)) => {
                let r = match op {
                    Add => x.checked_add(*y),
                    Sub => x.checked_sub(*y),
                    Mul => x.checked_mul(*y),
                    _ => unreachable!(),
                };
                r.map(Value::Int)
                    .ok_or_else(|| rt_err(format!("integer overflow in `{op}`"), span))
            }
            _ => {
                let (x, y) = two_reals(&a, &b, op, span)?;
                Ok(Value::Real(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    _ => unreachable!(),
                }))
            }
        },
        FDiv => {
            let (x, y) = two_reals(&a, &b, op, span)?;
            if y == 0.0 {
                return Err(rt_err("division by zero", span));
            }
            Ok(Value::Real(x / y))
        }
        Div | Mod => match (&a, &b) {
            (Value::Int(x), Value::Int(y)) => {
                if *y == 0 {
                    return Err(rt_err("division by zero", span));
                }
                let r = match op {
                    Div => x.checked_div(*y),
                    Mod => x.checked_rem(*y),
                    _ => unreachable!(),
                };
                r.map(Value::Int)
                    .ok_or_else(|| rt_err(format!("integer overflow in `{op}`"), span))
            }
            _ => Err(rt_err(format!("`{op}` requires integers"), span)),
        },
        And | Or => match (&a, &b) {
            (Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(match op {
                And => *x && *y,
                Or => *x || *y,
                _ => unreachable!(),
            })),
            _ => Err(rt_err(format!("`{op}` requires booleans"), span)),
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            let ord = compare(&a, &b, span)?;
            Ok(Value::Bool(match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }))
        }
    }
}

fn two_reals(a: &Value, b: &Value, op: BinOp, span: Span) -> Result<(f64, f64)> {
    match (a.as_real(), b.as_real()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(rt_err(
            format!("`{op}` requires numeric operands, found `{a}` and `{b}`"),
            span,
        )),
    }
}

fn compare(a: &Value, b: &Value, span: Span) -> Result<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Ok(x.cmp(y)),
        (Value::Char(x), Value::Char(y)) => Ok(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Ok(x.cmp(y)),
        _ => match (a.as_real(), b.as_real()) {
            (Some(x), Some(y)) => Ok(x.partial_cmp(&y).unwrap_or(Ordering::Equal)),
            _ => Err(rt_err(format!("cannot compare `{a}` with `{b}`"), span)),
        },
    }
}

enum CallFlow {
    /// The call returned normally (with the function result, if any).
    Normal(Option<Value>),
    /// A non-local goto is unwinding toward `(owner, label)`.
    Unwind(ProcId, String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sema::compile;

    fn run_src(src: &str) -> Outcome {
        let m = compile(src).expect("compile");
        let mut i = Interpreter::new(&m);
        i.run()
            .unwrap_or_else(|e| panic!("run failed: {e}\nsource: {src}"))
    }

    fn run_with_input(src: &str, input: Vec<i64>) -> Outcome {
        let m = compile(src).expect("compile");
        let mut i = Interpreter::new(&m);
        i.set_input(input.into_iter().map(Value::Int));
        i.run().expect("run")
    }

    #[test]
    fn arithmetic_and_output() {
        let o = run_src(
            "program t; var x: integer;
             begin x := 2 + 3 * 4; writeln(x) end.",
        );
        assert_eq!(o.output_text(), "14\n");
    }

    #[test]
    fn real_arithmetic() {
        let o = run_src(
            "program t; var x: real;
             begin x := 7 / 2; writeln(x) end.",
        );
        assert_eq!(o.output_text(), "3.5\n");
    }

    #[test]
    fn div_mod_semantics() {
        let o = run_src("program t; begin writeln(7 div 2, ' ', 7 mod 2, ' ', -7 div 2) end.");
        assert_eq!(o.output_text(), "3 1 -3\n");
    }

    #[test]
    fn division_by_zero_is_a_runtime_error() {
        let m = compile("program t; var x: integer; begin x := 1 div (x - x) end.").unwrap();
        let e = Interpreter::new(&m).run().unwrap_err();
        assert!(e.message.contains("division by zero"));
    }

    #[test]
    fn while_loop_runs() {
        let o = run_src(
            "program t; var i, s: integer;
             begin i := 1; s := 0;
               while i <= 5 do begin s := s + i; i := i + 1 end;
               writeln(s)
             end.",
        );
        assert_eq!(o.output_text(), "15\n");
    }

    #[test]
    fn for_loop_to_and_downto() {
        let o = run_src(
            "program t; var i, s: integer;
             begin
               s := 0; for i := 1 to 4 do s := s + i; writeln(s);
               s := 0; for i := 4 downto 2 do s := s + i; writeln(s)
             end.",
        );
        assert_eq!(o.output_text(), "10\n9\n");
    }

    #[test]
    fn for_loop_zero_iterations() {
        let o = run_src(
            "program t; var i, s: integer;
             begin s := 0; for i := 3 to 1 do s := s + 1; writeln(s) end.",
        );
        assert_eq!(o.output_text(), "0\n");
    }

    #[test]
    fn for_loop_limit_evaluated_once() {
        let o = run_src(
            "program t; var i, n, s: integer;
             begin
               n := 3; s := 0;
               for i := 1 to n do begin n := 100; s := s + 1 end;
               writeln(s)
             end.",
        );
        assert_eq!(o.output_text(), "3\n");
    }

    #[test]
    fn repeat_executes_at_least_once() {
        let o = run_src(
            "program t; var x: integer;
             begin x := 10; repeat x := x + 1 until true; writeln(x) end.",
        );
        assert_eq!(o.output_text(), "11\n");
    }

    #[test]
    fn read_and_write() {
        let o = run_with_input(
            "program t; var x, y: integer; begin read(x, y); writeln(x + y) end.",
            vec![3, 4],
        );
        assert_eq!(o.output_text(), "7\n");
    }

    #[test]
    fn input_exhausted_is_an_error() {
        let m = compile("program t; var x: integer; begin read(x) end.").unwrap();
        let e = Interpreter::new(&m).run().unwrap_err();
        assert!(e.message.contains("input exhausted"));
    }

    #[test]
    fn var_params_write_through() {
        let o = run_src(
            "program t; var x: integer;
             procedure inc2(var a: integer); begin a := a + 2 end;
             begin x := 5; inc2(x); writeln(x) end.",
        );
        assert_eq!(o.output_text(), "7\n");
    }

    #[test]
    fn var_param_array_element() {
        let o = run_src(
            "program t; var a: array[1..3] of integer;
             procedure setit(var e: integer); begin e := 42 end;
             begin setit(a[2]); writeln(a[1], ' ', a[2]) end.",
        );
        assert_eq!(o.output_text(), "0 42\n");
    }

    #[test]
    fn value_params_do_not_write_through() {
        let o = run_src(
            "program t; var x: integer;
             procedure p(a: integer); begin a := 99 end;
             begin x := 5; p(x); writeln(x) end.",
        );
        assert_eq!(o.output_text(), "5\n");
    }

    #[test]
    fn function_result_and_recursion() {
        let o = run_src(
            "program t;
             function fact(n: integer): integer;
             begin if n <= 1 then fact := 1 else fact := n * fact(n - 1) end;
             begin writeln(fact(6)) end.",
        );
        assert_eq!(o.output_text(), "720\n");
    }

    #[test]
    fn nested_procedure_uplevel_access() {
        let o = run_src(
            "program t; var g: integer;
             procedure outer;
             var x: integer;
               procedure inner; begin x := x + 10; g := g + 1 end;
             begin x := 1; inner; inner; writeln(x) end;
             begin g := 0; outer; writeln(g) end.",
        );
        assert_eq!(o.output_text(), "21\n2\n");
    }

    #[test]
    fn global_side_effects_visible() {
        let o = run_src(crate::testprogs::SECTION6_GLOBALS);
        // x=10; p(w): w := x+1 = 11; z := w-x = 1.
        assert_eq!(o.output_text(), "111\n");
    }

    #[test]
    fn local_goto_skips_code() {
        let o = run_src(
            "program t; label 9; var x: integer;
             begin x := 1; goto 9; x := 2; 9: writeln(x) end.",
        );
        assert_eq!(o.output_text(), "1\n");
    }

    #[test]
    fn goto_out_of_loop() {
        let o = run_src(crate::testprogs::SECTION6_LOOP_GOTO);
        // s accumulates 1+2+3 = 6, then 1+2+3+4=10 > 6 → goto 9 with s=10.
        assert_eq!(o.output_text(), "10\n");
    }

    #[test]
    fn nonlocal_goto_unwinds_frames() {
        let o = run_src(crate::testprogs::SECTION6_GOTO);
        // q: trace+1 =1, goto 9 skips +10 and skips p's +100, lands 9: +1000.
        assert_eq!(o.output_text(), "1001\n");
    }

    #[test]
    fn paper_sqrtest_produces_false() {
        let o = run_src(crate::testprogs::SQRTEST);
        assert_eq!(o.global("isok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn paper_sqrtest_fixed_produces_true() {
        let o = run_src(crate::testprogs::SQRTEST_FIXED);
        assert_eq!(o.global("isok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn figure2_both_branches() {
        let o = run_with_input(crate::testprogs::FIGURE2, vec![1, 5]);
        assert_eq!(o.global("sum"), Some(&Value::Int(6)));
        assert_eq!(o.global("mul"), Some(&Value::Int(0)));
        let o = run_with_input(crate::testprogs::FIGURE2, vec![3, 5, 7]);
        assert_eq!(o.global("sum"), Some(&Value::Int(0)));
        assert_eq!(o.global("mul"), Some(&Value::Int(15)));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let m = compile("program t; begin while true do begin end end.").unwrap();
        let mut i = Interpreter::new(&m);
        i.set_limits(Limits {
            max_steps: 1000,
            max_depth: 100,
        });
        let e = i.run().unwrap_err();
        assert!(e.message.contains("step limit"));
    }

    #[test]
    fn depth_limit_catches_infinite_recursion() {
        let m = compile(
            "program t;
             procedure p; begin p end;
             begin p end.",
        )
        .unwrap();
        let mut i = Interpreter::new(&m);
        i.set_limits(Limits {
            max_steps: 1_000_000,
            max_depth: 50,
        });
        let e = i.run().unwrap_err();
        assert!(e.message.contains("depth limit"));
    }

    #[test]
    fn array_out_of_bounds_is_a_runtime_error() {
        let m = compile(
            "program t; var a: array[1..3] of integer; i: integer;
             begin i := 4; a[i] := 1 end.",
        )
        .unwrap();
        let e = Interpreter::new(&m).run().unwrap_err();
        assert!(e.message.contains("out of bounds"));
    }

    #[test]
    fn integer_overflow_is_a_runtime_error() {
        let m = compile(
            "program t; var x: integer;
             begin x := 1; while true do x := x * 2 end.",
        )
        .unwrap();
        let e = Interpreter::new(&m).run().unwrap_err();
        assert!(e.message.contains("overflow"));
    }

    #[test]
    fn intrinsics_evaluate() {
        let o = run_src(
            "program t;
             begin writeln(abs(-5), ' ', sqr(3), ' ', odd(3), ' ', chr(65), ' ', ord('A'),
                           ' ', trunc(2.9), ' ', round(2.5)) end.",
        );
        assert_eq!(o.output_text(), "5 9 true A 65 2 3\n");
    }

    #[test]
    fn whole_array_value_param_is_copied() {
        let o = run_src(
            "program t; type arr = array[1..2] of integer; var a: arr;
             procedure p(b: arr); begin b[1] := 99 end;
             begin a[1] := 7; p(a); writeln(a[1]) end.",
        );
        assert_eq!(o.output_text(), "7\n");
    }

    #[test]
    fn events_are_delivered_in_order() {
        #[derive(Default)]
        struct Collector(Vec<String>);
        impl Monitor for Collector {
            fn on_event(&mut self, m: &Module, ev: &Event<'_>) {
                match ev {
                    Event::CallEnter { proc, .. } => {
                        self.0.push(format!("enter {}", m.proc(*proc).name))
                    }
                    Event::CallExit { proc, .. } => {
                        self.0.push(format!("exit {}", m.proc(*proc).name))
                    }
                    Event::LoopEnter { .. } => self.0.push("loop-enter".into()),
                    Event::LoopIter { iteration, .. } => self.0.push(format!("iter {iteration}")),
                    Event::LoopExit { iterations, .. } => {
                        self.0.push(format!("loop-exit {iterations}"))
                    }
                    Event::Step { .. } => {}
                }
            }
        }
        let m = compile(
            "program t; var i, s: integer;
             procedure p; begin s := s + 1 end;
             begin for i := 1 to 2 do p end.",
        )
        .unwrap();
        let mut mon = Collector::default();
        Interpreter::new(&m).run_with(&mut mon).unwrap();
        assert_eq!(
            mon.0,
            vec![
                "enter <main>",
                "loop-enter",
                "enter p",
                "exit p",
                "iter 2",
                "enter p",
                "exit p",
                "iter 3",
                "loop-exit 3",
                "exit <main>",
            ]
        );
    }

    #[test]
    fn call_exit_reports_nonlocal_writes() {
        struct Check(Vec<(String, Vec<String>)>);
        impl Monitor for Check {
            fn on_event(&mut self, m: &Module, ev: &Event<'_>) {
                if let Event::CallExit {
                    proc,
                    nonlocal_writes,
                    ..
                } = ev
                {
                    self.0.push((
                        m.proc(*proc).name.clone(),
                        nonlocal_writes
                            .iter()
                            .map(|(v, _)| m.var(*v).name.clone())
                            .collect(),
                    ));
                }
            }
        }
        let m = compile(crate::testprogs::SECTION6_GLOBALS).unwrap();
        let mut mon = Check(Vec::new());
        Interpreter::new(&m).run_with(&mut mon).unwrap();
        let p_exit = mon.0.iter().find(|(n, _)| n == "p").unwrap();
        assert_eq!(p_exit.1, vec!["z".to_string()]);
    }

    #[test]
    fn step_events_report_defs_and_uses() {
        struct Steps(Vec<(Vec<VarId>, Vec<VarId>)>);
        impl Monitor for Steps {
            fn on_event(&mut self, _m: &Module, ev: &Event<'_>) {
                if let Event::Step { defs, uses, .. } = ev {
                    self.0.push((
                        defs.iter().map(|d| d.var).collect(),
                        uses.iter().map(|u| u.var).collect(),
                    ));
                }
            }
        }
        let m = compile("program t; var x, y: integer; begin x := 1; y := x + x end.").unwrap();
        let mut mon = Steps(Vec::new());
        Interpreter::new(&m).run_with(&mut mon).unwrap();
        let x = m.var_in_scope(MAIN_PROC, "x").unwrap();
        let y = m.var_in_scope(MAIN_PROC, "y").unwrap();
        assert_eq!(mon.0.len(), 2);
        assert_eq!(mon.0[0].0, vec![x]);
        assert!(mon.0[0].1.is_empty());
        assert_eq!(mon.0[1].0, vec![y]);
        assert_eq!(mon.0[1].1, vec![x, x]);
    }

    #[test]
    fn outcome_exposes_globals() {
        let o = run_src("program t; var x: integer; b: boolean; begin x := 3; b := true end.");
        assert_eq!(o.global("x"), Some(&Value::Int(3)));
        assert_eq!(o.global("B"), Some(&Value::Bool(true)));
        assert_eq!(o.global("missing"), None);
    }
}

#[cfg(test)]
mod run_proc_tests {
    use super::*;
    use crate::sema::compile;

    #[test]
    fn run_proc_with_value_and_var_params() {
        let m = compile(crate::testprogs::SQRTEST).unwrap();
        let arrsum = m.proc_by_name("arrsum").unwrap();
        let mut i = Interpreter::new(&m);
        let run = i
            .run_proc(
                arrsum,
                vec![vec![1, 2].into(), Value::Int(2), Value::Int(0)],
            )
            .unwrap();
        assert_eq!(run.outs.len(), 1);
        assert_eq!(run.outs[0].1, Value::Int(3));
    }

    #[test]
    fn run_proc_function_result() {
        let m = compile(crate::testprogs::SQRTEST).unwrap();
        let dec = m.proc_by_name("decrement").unwrap();
        let mut i = Interpreter::new(&m);
        let run = i.run_proc(dec, vec![Value::Int(3)]).unwrap();
        assert_eq!(run.result, Some(Value::Int(4))); // the planted bug
    }

    #[test]
    fn run_proc_rejects_nested_procs() {
        let m = compile(crate::testprogs::PQR).unwrap();
        let q = m.proc_by_name("q").unwrap();
        let mut i = Interpreter::new(&m);
        let e = i
            .run_proc(q, vec![Value::Int(1), Value::Int(0)])
            .unwrap_err();
        assert!(e.message.contains("top level"));
    }

    #[test]
    fn run_proc_rejects_bad_arity_and_types() {
        let m = compile(crate::testprogs::SQRTEST).unwrap();
        let arrsum = m.proc_by_name("arrsum").unwrap();
        let mut i = Interpreter::new(&m);
        assert!(i.run_proc(arrsum, vec![Value::Int(1)]).is_err());
        let e = i
            .run_proc(arrsum, vec![Value::Int(1), Value::Int(2), Value::Int(0)])
            .unwrap_err();
        assert!(e.message.contains("type"), "{}", e.message);
    }
}
