//! The stack-frame VM.
//!
//! Executes a [`VmProgram`] with explicit frame, operand, and uses-buffer
//! stacks (no native recursion), firing the *exact* [`Event`] stream the
//! tree-walking interpreter fires — same ordering, same payloads, same
//! counters — so traces, slices, execution trees, and journals built on
//! either engine are byte-identical. Every bookkeeping quirk of the
//! interpreter is reproduced deliberately (e.g. reference-parameter
//! first-access lists are recorded on the *top* frame, and missing
//! variables in the non-local write walk default to `0`), because the
//! differential harness compares engines bug-for-bug.
//!
//! The monitor-free instantiation adds two things the traced one does
//! not need: a `CycleGuard` that ends a run at its first repeated
//! machine state, and integer kernels in front of the shared operator
//! semantics.

use crate::compile::{Op, SlotRef, StoreTy, VmProc, VmProgram};
use gadt_pascal::ast::BinOp;
use gadt_pascal::cfg::{BlockId, LoopId};
use gadt_pascal::error::{Diagnostic, Result, Stage};
use gadt_pascal::interp::{
    coerce_store, eval_binary_op, eval_intrinsic_op, eval_unary_op, Event, Limits, MemLoc, Monitor,
    NoopMonitor, Outcome, ProcRun,
};
use gadt_pascal::sema::{Module, ProcId, VarId, MAIN_PROC};
use gadt_pascal::span::Span;
use gadt_pascal::types::Type;
use gadt_pascal::value::Value;
use std::collections::{HashMap, VecDeque};

fn rt_err(msg: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(Stage::Runtime, msg, span)
}

/// The error of a run that exhausts its step budget: what the step
/// counter reports, and what the cycle guard reports early.
fn step_limit_exceeded(max_steps: u64) -> Diagnostic {
    rt_err(format!("step limit of {max_steps} exceeded"), Span::dummy())
}

/// An absolute storage location: frame-stack index + slot + element.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VmLoc {
    frame_idx: usize,
    slot: u32,
    /// The variable stored at `slot`, for event reporting.
    var: VarId,
    elem: Option<i64>,
    /// `Some(param)` when reached through a reference-parameter binding.
    via_param: Option<VarId>,
}

/// Saved caller state for a frame return.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReturnCtx {
    proc: ProcId,
    ip: usize,
    expr_pos: bool,
    span: Span,
}

#[derive(Clone)]
struct VmFrame {
    id: u64,
    call: u64,
    proc: ProcId,
    static_link: Option<usize>,
    slots: Vec<Value>,
    /// Extra root-frame storage for `run_proc` reference parameters,
    /// appended past the proc's own slots: (param, slot index).
    extras: Vec<(VarId, u32)>,
    /// Reference-parameter bindings: (param, ultimate location).
    bindings: Vec<(VarId, VmLoc)>,
    loop_stack: Vec<(LoopId, u64, u64)>,
    nl_reads: Vec<(VarId, Value)>,
    nl_written: Vec<VarId>,
    ref_read: Vec<VarId>,
    ref_written: Vec<VarId>,
    site_stmt: Option<gadt_pascal::ast::StmtId>,
    /// Operand-stack level at frame entry (for goto landing cleanup).
    stack_base: usize,
    /// Index of this frame's uses buffer in the uses stack.
    uses_top: usize,
    /// How to resume the caller, `None` for base frames.
    ret: Option<ReturnCtx>,
}

/// Argument record accumulated between `BeginCall` and `DoCall`.
#[derive(Default, Clone)]
struct PendingCall {
    entry_args: Vec<(VarId, Value)>,
    params: Vec<(u32, Value)>,
    bindings: Vec<(VarId, VmLoc)>,
}

/// Brent's cycle detection over the monitor-free machine state.
///
/// The fast path is deterministic: what it does next depends only on the
/// state below. So once the machine holds a state it already held, with
/// at least one step in between, the segment between the two ran without
/// error and repeats until the step budget runs out. The guard returns
/// that step-limit error at once; the run ends as it would have, sooner,
/// and its output is discarded with the error, as it always was.
///
/// **Hooks.** The guard looks at the state after every jump or branch
/// whose target is at or before the jumping op, and after every `goto`
/// lands. Elsewhere `ip` only moves forward within a frame and calls only
/// push frames, so every repeated state passes through a hook.
///
/// **Compared: everything a later op can read.**
/// - `proc` and `ip`: the next op;
/// - the operand stack, and each pending call's `params` and `bindings`,
///   which `DoCall` consumes;
/// - the remaining input length: input only shrinks from the front, so
///   the length fixes what `read` returns next;
/// - `cur_span`: errors and return contexts carry it;
/// - per frame: `proc`, `static_link`, `slots`, `extras` and `bindings`
///   (variable resolution and the isolated run's results), `ret` (where
///   `Ret` resumes) and `stack_base` (where a goto landing truncates).
///
/// **Left out: what no fast-path op reads.** The output only grows and is
/// never read back. The step counter must only have grown. The frame,
/// call and loop-instance counters name events, which the fast path does
/// not fire. `uses_stack`, and each frame's `id`, `call`, `loop_stack`,
/// `nl_reads`, `nl_written`, `ref_read`, `ref_written`, `site_stmt` and
/// `uses_top`, feed only the traced path, and pending calls'
/// `entry_args` only its events.
///
/// Values compare exactly ([`same_value`]): reals by bit pattern, arrays
/// element by element with their bounds.
///
/// **Cost.** One snapshot and two counters. The first snapshot waits
/// for [`FIRST_SNAPSHOT`] hooks, so a short run pays only the counter.
/// From then on each hook compares against the snapshot, cheap fields
/// first (`proc`, `ip`, frame count, input and stack length, steps),
/// array slots last, stopping at the first difference. When the hooks
/// since the snapshot reach the current power of two, the hook takes a
/// new snapshot into the same buffers and doubles the power. A run that
/// enters a cycle of `λ` hooks after `μ` hooks stops within about
/// `max(μ, FIRST_SNAPSHOT) + 2λ` hooks, and a run that never repeats
/// takes a logarithmic number of snapshots.
struct CycleGuard {
    /// Hooks since the snapshot was taken, or since the run began.
    hooks: u64,
    /// Hooks between this snapshot and the next; 0 until the run's first
    /// snapshot.
    power: u64,
    snap: Snapshot,
}

/// Hooks before a run's first snapshot. A snapshot copies every frame,
/// a real cost for short runs such as T-GEN cases of a few loop
/// iterations; a runaway pays only this many more hooks before it stops.
const FIRST_SNAPSHOT: u64 = 64;

/// The compared state of one hook (see [`CycleGuard`]). Frames and
/// pending calls are stored whole; only their compared fields are read.
struct Snapshot {
    proc: ProcId,
    ip: usize,
    steps: u64,
    input_len: usize,
    cur_span: Span,
    stack: Vec<Value>,
    pending: Vec<PendingCall>,
    frames: Vec<VmFrame>,
}

/// Exact value equality for the cycle guard. `Value`'s derived
/// `PartialEq` will not do: there `0.0 == -0.0`, which print differently,
/// and a NaN never equals itself.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Char(x), Value::Char(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Array(x), Value::Array(y)) => x.lo == y.lo && same_values(&x.elems, &y.elems),
        _ => false,
    }
}

fn same_values(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_value(x, y))
}

/// The compared fields of a pending call.
fn same_pending(a: &PendingCall, b: &PendingCall) -> bool {
    a.bindings == b.bindings
        && a.params.len() == b.params.len()
        && a.params
            .iter()
            .zip(&b.params)
            .all(|((sa, va), (sb, vb))| sa == sb && same_value(va, vb))
}

/// The compared fields of a frame, with its scalar slots; the guard
/// compares array slots last ([`same_slots`]).
fn same_frame(a: &VmFrame, b: &VmFrame) -> bool {
    a.proc == b.proc
        && a.static_link == b.static_link
        && a.stack_base == b.stack_base
        && a.ret == b.ret
        && a.extras == b.extras
        && a.bindings == b.bindings
        && a.slots.len() == b.slots.len()
        && same_slots(&a.slots, &b.slots, false)
}

/// Compares the array slots (`arrays`) or the other slots of two slot
/// lists of equal length. Scalars go first: a drifting loop counter
/// shows at once, where walking an unchanged array at every hook would
/// make a loop over it quadratic.
fn same_slots(a: &[Value], b: &[Value], arrays: bool) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| matches!(x, Value::Array(_)) != arrays || same_value(x, y))
}

/// The integer cases of [`eval_binary_op`]. `None` for an operator that
/// does not take two integers to an integer or boolean (`/`, `and`,
/// `or`), and for an overflow or a division by zero: `eval_binary_op`
/// then runs and reports the error in its own words.
#[inline]
fn int_binary(op: BinOp, x: i64, y: i64) -> Option<Value> {
    use BinOp::*;
    Some(match op {
        Add => Value::Int(x.checked_add(y)?),
        Sub => Value::Int(x.checked_sub(y)?),
        Mul => Value::Int(x.checked_mul(y)?),
        Div => Value::Int(x.checked_div(y)?),
        Mod => Value::Int(x.checked_rem(y)?),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        Lt => Value::Bool(x < y),
        Le => Value::Bool(x <= y),
        Gt => Value::Bool(x > y),
        Ge => Value::Bool(x >= y),
        FDiv | And | Or => return None,
    })
}

/// [`eval_binary_op`] behind the integer kernel: the fast path's
/// operator application.
#[inline]
fn fast_binary(op: BinOp, a: Value, b: Value, span: Span) -> Result<Value> {
    if let (Value::Int(x), Value::Int(y)) = (&a, &b) {
        if let Some(r) = int_binary(op, *x, *y) {
            return Ok(r);
        }
    }
    eval_binary_op(op, a, b, span)
}

/// One VM execution. Create via [`Vm::new`], feed input, then call
/// [`Vm::run_with`] or [`Vm::run_proc_with`]; the compiled program is
/// immutable and may be shared across any number of concurrent `Vm`s.
pub struct Vm<'m> {
    module: &'m Module,
    program: &'m VmProgram,
    input: VecDeque<Value>,
    output: String,
    limits: Limits,
    frames: Vec<VmFrame>,
    stack: Vec<Value>,
    uses_stack: Vec<Vec<MemLoc>>,
    pending: Vec<PendingCall>,
    next_frame: u64,
    next_call: u64,
    next_loop_instance: u64,
    steps: u64,
    cur_span: Span,
    guard: CycleGuard,
}

impl<'m> std::fmt::Debug for Vm<'m> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("steps", &self.steps)
            .field("frames", &self.frames.len())
            .finish()
    }
}

impl<'m> Vm<'m> {
    /// Creates a VM over a compiled program.
    pub fn new(module: &'m Module, program: &'m VmProgram) -> Self {
        Vm {
            module,
            program,
            input: VecDeque::new(),
            output: String::new(),
            limits: Limits::default(),
            frames: Vec::new(),
            stack: Vec::new(),
            uses_stack: Vec::new(),
            pending: Vec::new(),
            next_frame: 0,
            next_call: 0,
            next_loop_instance: 0,
            steps: 0,
            cur_span: Span::dummy(),
            guard: CycleGuard {
                hooks: 0,
                power: 0,
                snap: Snapshot {
                    proc: MAIN_PROC,
                    ip: 0,
                    steps: 0,
                    input_len: 0,
                    cur_span: Span::dummy(),
                    stack: Vec::new(),
                    pending: Vec::new(),
                    frames: Vec::new(),
                },
            },
        }
    }

    /// Replaces the execution limits.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Replaces the input queue.
    pub fn set_input(&mut self, values: impl IntoIterator<Item = Value>) {
        self.input = values.into_iter().collect();
    }

    fn reset(&mut self) {
        self.frames.clear();
        self.stack.clear();
        self.uses_stack.clear();
        self.pending.clear();
        self.output.clear();
        self.steps = 0;
        self.next_frame = 0;
        self.next_call = 0;
        self.next_loop_instance = 0;
        self.cur_span = Span::dummy();
        // The snapshot's buffers stay for reuse; `power == 0` marks them
        // stale.
        self.guard.hooks = 0;
        self.guard.power = 0;
    }

    /// Runs the whole program (the `run_with` entry point).
    ///
    /// # Errors
    /// The same runtime errors, with the same messages and spans, as
    /// [`gadt_pascal::interp::Interpreter::run_with`].
    pub fn run_with(&mut self, monitor: &mut dyn Monitor) -> Result<Outcome> {
        self.run_impl::<true>(monitor)
    }

    /// Monitor-free fast path: same output, step count, final globals,
    /// and errors as [`Vm::run_with`], but with all event construction
    /// and read/write-set bookkeeping statically compiled out. Use when
    /// only the *result* of a run matters (kill checks, differential
    /// output comparison, verdict-only batches).
    ///
    /// A run whose machine state repeats can only end by exhausting its
    /// step budget; it returns that step-limit error as soon as the
    /// repeat shows (see `CycleGuard`).
    pub fn run(&mut self) -> Result<Outcome> {
        self.run_impl::<false>(&mut NoopMonitor)
    }

    fn run_impl<const TRACE: bool>(&mut self, monitor: &mut dyn Monitor) -> Result<Outcome> {
        self.reset();
        if TRACE {
            self.uses_stack.push(Vec::new());
        }
        self.push_frame(MAIN_PROC, None, Vec::new(), Vec::new(), None, None);
        if TRACE {
            self.fire_call_enter(monitor, &[]);
        }
        self.exec::<TRACE>(MAIN_PROC, 1, monitor)?;
        // Capture globals before popping.
        let mut globals = HashMap::new();
        for (name, slot) in &self.program.proc(MAIN_PROC).globals {
            globals.insert(name.clone(), self.frames[0].slots[*slot as usize].clone());
        }
        if TRACE {
            self.fire_call_exit(monitor, false);
        }
        self.frames.pop();
        Ok(Outcome::from_parts(
            std::mem::take(&mut self.output),
            self.steps,
            globals,
        ))
    }

    /// Runs a single top-level procedure in isolation (the T-GEN entry
    /// point).
    ///
    /// # Errors
    /// The same conditions as
    /// [`gadt_pascal::interp::Interpreter::run_proc_with`].
    pub fn run_proc_with(
        &mut self,
        proc: ProcId,
        args: Vec<Value>,
        monitor: &mut dyn Monitor,
    ) -> Result<ProcRun> {
        self.run_proc_impl::<true>(proc, args, monitor)
    }

    /// Monitor-free fast path for isolated procedure runs: identical
    /// `ProcRun`/error results to [`Vm::run_proc_with`] with all event
    /// machinery statically compiled out. Like [`Vm::run`], it returns
    /// the step-limit error early when the machine state repeats.
    pub fn run_proc(&mut self, proc: ProcId, args: Vec<Value>) -> Result<ProcRun> {
        self.run_proc_impl::<false>(proc, args, &mut NoopMonitor)
    }

    fn run_proc_impl<const TRACE: bool>(
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
        self.reset();
        if TRACE {
            self.uses_stack.push(Vec::new());
        }
        self.push_frame(MAIN_PROC, None, Vec::new(), Vec::new(), None, None);
        if TRACE {
            self.fire_call_enter(monitor, &[]);
        }

        let callee = self.program.proc(proc);
        let mut params = Vec::new();
        let mut bindings = Vec::new();
        let mut entry_args = Vec::new();
        for (spec, v) in callee.params.iter().zip(args) {
            let pinfo = self.module.var(spec.var);
            let v = match (&v, spec.widen_real) {
                (Value::Int(n), true) => Value::Real(*n as f64),
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
            if TRACE {
                entry_args.push((spec.var, v.clone()));
            }
            if spec.is_ref {
                // Hidden storage appended to the root frame.
                let root = &mut self.frames[0];
                let slot = root.slots.len() as u32;
                root.slots.push(v);
                root.extras.push((spec.var, slot));
                bindings.push((
                    spec.var,
                    VmLoc {
                        frame_idx: 0,
                        slot,
                        var: spec.var,
                        elem: None,
                        via_param: None,
                    },
                ));
            } else {
                params.push((spec.slot, v));
            }
        }
        if TRACE {
            self.uses_stack.push(Vec::new());
        }
        self.push_frame(proc, Some(0), params, bindings, None, None);
        if TRACE {
            self.fire_call_enter(monitor, &entry_args);
        }
        self.exec::<TRACE>(proc, 2, monitor)?;

        let mut outs = Vec::new();
        for spec in &callee.params {
            if spec.passes_back {
                if let Some(&(_, slot)) = self.frames[0].extras.iter().find(|(p, _)| *p == spec.var)
                {
                    outs.push((spec.var, self.frames[0].slots[slot as usize].clone()));
                }
            }
        }
        let result = callee
            .result
            .map(|(_, slot)| self.top().slots[slot as usize].clone());
        if TRACE {
            self.fire_call_exit(monitor, false);
        }
        self.frames.pop();
        if TRACE {
            self.fire_call_exit(monitor, false);
        }
        self.frames.pop();
        Ok(ProcRun {
            outs,
            result,
            output: std::mem::take(&mut self.output),
            steps: self.steps,
        })
    }

    // ------------------------------------------------------------------
    // Frames and locations
    // ------------------------------------------------------------------

    fn push_frame(
        &mut self,
        proc: ProcId,
        static_link: Option<usize>,
        params: Vec<(u32, Value)>,
        bindings: Vec<(VarId, VmLoc)>,
        site_stmt: Option<gadt_pascal::ast::StmtId>,
        ret: Option<ReturnCtx>,
    ) {
        let vproc = self.program.proc(proc);
        let mut slots = vproc.zeros.clone();
        for (slot, v) in params {
            slots[slot as usize] = v;
        }
        let id = self.next_frame;
        self.next_frame += 1;
        let call = self.next_call;
        self.next_call += 1;
        self.frames.push(VmFrame {
            id,
            call,
            proc,
            static_link,
            slots,
            extras: Vec::new(),
            bindings,
            loop_stack: Vec::new(),
            nl_reads: Vec::new(),
            nl_written: Vec::new(),
            ref_read: Vec::new(),
            ref_written: Vec::new(),
            site_stmt,
            stack_base: self.stack.len(),
            uses_top: self.uses_stack.len().saturating_sub(1),
            ret,
        });
    }

    fn top(&self) -> &VmFrame {
        self.frames.last().expect("frame stack nonempty")
    }

    /// Resolves a compile-time [`SlotRef`] against the current frame
    /// stack: a fixed number of static-link hops, then (for reference
    /// parameters) one binding lookup.
    fn resolve(&self, sr: &SlotRef) -> VmLoc {
        let mut idx = self.frames.len() - 1;
        for _ in 0..sr.hops {
            idx = self.frames[idx]
                .static_link
                .expect("variable owner must be on the static chain");
        }
        if sr.binding {
            let f = &self.frames[idx];
            let (_, b) = f
                .bindings
                .iter()
                .find(|(p, _)| *p == sr.var)
                .expect("reference parameter is bound");
            VmLoc {
                via_param: Some(sr.var),
                ..*b
            }
        } else {
            VmLoc {
                frame_idx: idx,
                slot: sr.slot,
                var: sr.var,
                elem: None,
                via_param: None,
            }
        }
    }

    fn memloc(&self, loc: VmLoc) -> MemLoc {
        MemLoc {
            frame: self.frames[loc.frame_idx].id,
            var: loc.var,
            elem: loc.elem,
        }
    }

    fn read_loc<const TRACE: bool>(&mut self, loc: VmLoc, span: Span) -> Result<Value> {
        let base = &self.frames[loc.frame_idx].slots[loc.slot as usize];
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
        if TRACE {
            if let Some(p) = loc.via_param {
                let f = self.frames.last_mut().expect("frame");
                if !f.ref_written.contains(&p) && !f.ref_read.contains(&p) {
                    f.ref_read.push(p);
                }
            }
            self.note_nonlocal_read(loc, &value);
        }
        Ok(value)
    }

    /// Reads without bookkeeping (incoming-value capture for reporting).
    fn peek_loc(&self, loc: VmLoc, span: Span) -> Result<Value> {
        let base = &self.frames[loc.frame_idx].slots[loc.slot as usize];
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

    fn write_loc<const TRACE: bool>(&mut self, loc: VmLoc, value: Value, span: Span) -> Result<()> {
        if TRACE {
            if let Some(p) = loc.via_param {
                let f = self.frames.last_mut().expect("frame");
                if !f.ref_written.contains(&p) {
                    f.ref_written.push(p);
                }
            }
            self.note_nonlocal_write(loc);
        }
        let base = &mut self.frames[loc.frame_idx].slots[loc.slot as usize];
        match loc.elem {
            None => {
                *base = value;
                Ok(())
            }
            Some(i) => match base {
                Value::Array(a) => {
                    let (lo, hi) = (a.lo, a.hi());
                    let slot = a.get_mut(i).ok_or_else(|| {
                        rt_err(format!("array index {i} out of bounds [{lo}..{hi}]"), span)
                    })?;
                    *slot = value;
                    Ok(())
                }
                _ => Err(rt_err("indexing a non-array value", span)),
            },
        }
    }

    fn note_nonlocal_read(&mut self, loc: VmLoc, value: &Value) {
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

    fn note_nonlocal_write(&mut self, loc: VmLoc) {
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

    /// What the interpreter's `frames[idx].vars.get(&v)` returns: `None`
    /// when the variable is a reference parameter bound in that frame
    /// (bindings shadow storage) or not stored there at all.
    fn frame_value(&self, idx: usize, v: VarId) -> Option<&Value> {
        let f = &self.frames[idx];
        if f.bindings.iter().any(|(p, _)| *p == v) {
            return None;
        }
        if let Some(&slot) = self.program.proc(f.proc).slot_of.get(&v) {
            return Some(&f.slots[slot as usize]);
        }
        f.extras
            .iter()
            .find(|(p, _)| *p == v)
            .map(|&(_, slot)| &f.slots[slot as usize])
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
        let vproc = self.program.proc(f.proc);
        let mut outs = Vec::new();
        for spec in &vproc.params {
            if spec.passes_back {
                if let Some((_, b)) = f.bindings.iter().find(|(p, _)| *p == spec.var) {
                    let base = &self.frames[b.frame_idx].slots[b.slot as usize];
                    let v = match b.elem {
                        None => base.clone(),
                        Some(i) => match base {
                            Value::Array(a) => a.get(i).cloned().unwrap_or(Value::Int(0)),
                            other => other.clone(),
                        },
                    };
                    outs.push((spec.var, v));
                }
            }
        }
        if let Some((rv, slot)) = vproc.result {
            outs.push((rv, f.slots[slot as usize].clone()));
        }
        let nl_writes: Vec<(VarId, Value)> = f
            .nl_written
            .iter()
            .map(|&v| {
                // Resolve from this frame's perspective, by owner-proc
                // walk (with the interpreter's frame-0 fallback).
                let owner = self.module.var(v).owner;
                let mut idx = self.frames.len() - 1;
                let frame_idx = loop {
                    if self.frames[idx].proc == owner {
                        break idx;
                    }
                    match self.frames[idx].static_link {
                        Some(n) => idx = n,
                        None => break 0,
                    }
                };
                let val = self
                    .frame_value(frame_idx, v)
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

    /// Step counting + limit check alone: the fast path's replacement
    /// for [`Vm::fire_step`] (same count, same error, no event).
    #[inline]
    fn bump_step(&mut self) -> Result<()> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(step_limit_exceeded(self.limits.max_steps));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The cycle guard (monitor-free runs only)
    // ------------------------------------------------------------------

    /// A [`CycleGuard`] hook at `(proc, ip)`: the step-limit error when
    /// the machine is back in the snapshot's state, else maybe a new
    /// snapshot.
    #[inline]
    fn cycle_hook(&mut self, proc: ProcId, ip: usize) -> Result<()> {
        self.guard.hooks += 1;
        if self.guard.power == 0 {
            if self.guard.hooks >= FIRST_SNAPSHOT {
                self.snapshot(proc, ip);
            }
            return Ok(());
        }
        if self.repeats(proc, ip) {
            return Err(step_limit_exceeded(self.limits.max_steps));
        }
        if self.guard.hooks >= self.guard.power {
            self.snapshot(proc, ip);
        }
        Ok(())
    }

    /// Whether the machine at `(proc, ip)` holds the snapshot's state,
    /// with at least one step since.
    fn repeats(&self, proc: ProcId, ip: usize) -> bool {
        let s = &self.guard.snap;
        if s.proc != proc
            || s.ip != ip
            || s.frames.len() != self.frames.len()
            || s.input_len != self.input.len()
            || s.stack.len() != self.stack.len()
            || s.steps == self.steps
        {
            return false;
        }
        // The innermost frames first: their locals change most.
        let frames = || s.frames.iter().zip(&self.frames).rev();
        s.cur_span == self.cur_span
            && frames().all(|(a, b)| same_frame(a, b))
            && same_values(&s.stack, &self.stack)
            && s.pending.len() == self.pending.len()
            && s.pending
                .iter()
                .zip(&self.pending)
                .all(|(a, b)| same_pending(a, b))
            && frames().all(|(a, b)| same_slots(&a.slots, &b.slots, true))
    }

    #[cold]
    fn snapshot(&mut self, proc: ProcId, ip: usize) {
        let g = &mut self.guard;
        g.hooks = 0;
        g.power = (g.power * 2).max(1);
        let s = &mut g.snap;
        s.proc = proc;
        s.ip = ip;
        s.steps = self.steps;
        s.input_len = self.input.len();
        s.cur_span = self.cur_span;
        s.stack.clone_from(&self.stack);
        s.pending.clone_from(&self.pending);
        s.frames.clone_from(&self.frames);
    }

    /// The integer a fast-path read of `loc` yields, or `None` where the
    /// read must take the general path (a non-integer, or an index out
    /// of bounds, whose error that path reports).
    #[inline]
    fn int_at(&self, loc: VmLoc) -> Option<i64> {
        let base = &self.frames[loc.frame_idx].slots[loc.slot as usize];
        match (loc.elem, base) {
            (None, Value::Int(n)) => Some(*n),
            (Some(i), Value::Array(a)) => a.get(i)?.as_int(),
            _ => None,
        }
    }

    fn fire_step(
        &mut self,
        monitor: &mut dyn Monitor,
        step: u32,
        defs: &[MemLoc],
        uses: &[MemLoc],
        branch_taken: Option<bool>,
    ) -> Result<()> {
        let ctx = self.program.proc(self.top().proc).steps[step as usize];
        self.bump_step()?;
        let f = self.top();
        let ev = Event::Step {
            idx: self.steps,
            frame: f.id,
            proc: f.proc,
            block: ctx.block,
            instr: ctx.instr.map(|i| i as usize),
            stmt: ctx.stmt,
            defs,
            uses,
            branch_taken,
        };
        monitor.on_event(self.module, &ev);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Loop events
    // ------------------------------------------------------------------

    fn loop_snapshot(&self, lid: LoopId) -> Vec<(VarId, Value)> {
        let info = &self.program.loops[lid.0 as usize];
        let mut snap = Vec::new();
        for (v, sr) in &info.snapshot {
            let loc = self.resolve(sr);
            if let Ok(val) = self.peek_loc(loc, Span::dummy()) {
                snap.push((*v, val));
            }
        }
        snap
    }

    fn transfer_loops(&mut self, to_block: BlockId, monitor: &mut dyn Monitor) {
        let proc = self.top().proc;
        let to_loops = &self.program.proc(proc).block_loops[to_block.0 as usize];
        let cur: Vec<LoopId> = self.top().loop_stack.iter().map(|(l, _, _)| *l).collect();
        let mut common = 0;
        while common < cur.len() && common < to_loops.len() && cur[common] == to_loops[common] {
            common += 1;
        }
        let entering: Vec<LoopId> = to_loops[common..].to_vec();
        let to_len = to_loops.len();
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
        for lid in entering {
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
            if common == to_len
                && common == cur.len()
                && self.program.loops[lid.0 as usize].header == to_block
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
    // The dispatch loop
    // ------------------------------------------------------------------

    /// Runs bytecode starting at the top frame's entry until the frame at
    /// `base_frames` returns. `base_frames` is 1 for whole-program runs
    /// and 2 for isolated procedure runs.
    ///
    /// Monomorphized over `TRACE`: the `false` instantiation compiles
    /// out every event construction, uses-buffer push, and read/write
    /// bookkeeping while keeping step counting, limits, and all runtime
    /// errors byte-identical to the monitored run. It alone runs the
    /// [`CycleGuard`] hooks and the integer kernels ([`int_binary`]):
    /// two-integer operands and integer stores skip the general
    /// operator and coercion code, and everything else, every overflow
    /// and every division by zero included, still goes through it.
    fn exec<const TRACE: bool>(
        &mut self,
        start: ProcId,
        base_frames: usize,
        monitor: &mut dyn Monitor,
    ) -> Result<()> {
        let mut proc = start;
        let mut vproc: &VmProc = self.program.proc(proc);
        let mut ip = vproc.block_start[vproc.entry.0 as usize];
        if TRACE {
            self.transfer_loops(vproc.entry, monitor);
        }
        macro_rules! reload {
            ($p:expr, $i:expr) => {{
                proc = $p;
                vproc = self.program.proc(proc);
                ip = $i;
            }};
        }
        loop {
            let op = &vproc.code[ip];
            ip += 1;
            match op {
                Op::SpanCtx(span) => self.cur_span = *span,
                Op::Const(k) => self.stack.push(vproc.consts[*k as usize].clone()),
                Op::Load(sr) => {
                    let loc = self.resolve(&vproc.slotrefs[*sr as usize]);
                    if TRACE {
                        let ml = self.memloc(loc);
                        self.uses_stack.last_mut().expect("uses").push(ml);
                    }
                    let v = self.read_loc::<TRACE>(loc, self.cur_span)?;
                    self.stack.push(v);
                }
                Op::LoadElem(sr) => {
                    let loc = self.indexed_loc(&vproc.slotrefs[*sr as usize])?;
                    if TRACE {
                        let ml = self.memloc(loc);
                        self.uses_stack.last_mut().expect("uses").push(ml);
                    }
                    let v = self.read_loc::<TRACE>(loc, self.cur_span)?;
                    self.stack.push(v);
                }
                Op::LoadLoadBin { a, b, op } => {
                    let la = self.resolve(&vproc.slotrefs[*a as usize]);
                    if !TRACE {
                        let lb = self.resolve(&vproc.slotrefs[*b as usize]);
                        let r = self
                            .int_at(la)
                            .zip(self.int_at(lb))
                            .and_then(|(x, y)| int_binary(*op, x, y));
                        if let Some(r) = r {
                            self.stack.push(r);
                            continue;
                        }
                    }
                    if TRACE {
                        let ml = self.memloc(la);
                        self.uses_stack.last_mut().expect("uses").push(ml);
                    }
                    let va = self.read_loc::<TRACE>(la, self.cur_span)?;
                    let lb = self.resolve(&vproc.slotrefs[*b as usize]);
                    if TRACE {
                        let ml = self.memloc(lb);
                        self.uses_stack.last_mut().expect("uses").push(ml);
                    }
                    let vb = self.read_loc::<TRACE>(lb, self.cur_span)?;
                    let r = eval_binary_op(*op, va, vb, self.cur_span)?;
                    self.stack.push(r);
                }
                Op::LoadConstBin { sr, k, op } => {
                    let loc = self.resolve(&vproc.slotrefs[*sr as usize]);
                    if !TRACE {
                        if let Value::Int(y) = vproc.consts[*k as usize] {
                            if let Some(r) = self.int_at(loc).and_then(|x| int_binary(*op, x, y)) {
                                self.stack.push(r);
                                continue;
                            }
                        }
                    }
                    if TRACE {
                        let ml = self.memloc(loc);
                        self.uses_stack.last_mut().expect("uses").push(ml);
                    }
                    let v = self.read_loc::<TRACE>(loc, self.cur_span)?;
                    let c = vproc.consts[*k as usize].clone();
                    let r = eval_binary_op(*op, v, c, self.cur_span)?;
                    self.stack.push(r);
                }
                Op::Unary(op) => {
                    let v = self.stack.pop().expect("operand");
                    let r = eval_unary_op(*op, v, self.cur_span)?;
                    self.stack.push(r);
                }
                Op::Binary(op) => {
                    let b = self.stack.pop().expect("operand");
                    let a = self.stack.pop().expect("operand");
                    let r = if TRACE {
                        eval_binary_op(*op, a, b, self.cur_span)?
                    } else {
                        fast_binary(*op, a, b, self.cur_span)?
                    };
                    self.stack.push(r);
                }
                Op::IntrinsicCall(which) => {
                    let v = self.stack.pop().expect("operand");
                    let r = eval_intrinsic_op(*which, v, self.cur_span)?;
                    self.stack.push(r);
                }
                Op::BeginCall => {
                    if self.frames.len() >= self.limits.max_depth {
                        return Err(rt_err(
                            format!("call depth limit of {} exceeded", self.limits.max_depth),
                            self.cur_span,
                        ));
                    }
                    self.pending.push(PendingCall::default());
                    if TRACE {
                        self.uses_stack.push(Vec::new());
                    }
                }
                Op::PushArg { var, slot, widen } => {
                    let v = self.stack.pop().expect("argument");
                    let v = match (&v, widen) {
                        (Value::Int(n), true) => Value::Real(*n as f64),
                        _ => v,
                    };
                    let p = self.pending.last_mut().expect("pending call");
                    if TRACE {
                        p.entry_args.push((*var, v.clone()));
                    }
                    p.params.push((*slot, v));
                }
                Op::RefArg { sr, var, indexed } => {
                    let loc = if *indexed {
                        self.indexed_loc(&vproc.slotrefs[*sr as usize])?
                    } else {
                        self.resolve(&vproc.slotrefs[*sr as usize])
                    };
                    // The incoming-value capture doubles as the bounds
                    // check for indexed ref args: it must run (and its
                    // error must surface) in both modes.
                    let current = self.peek_loc(loc, self.cur_span)?;
                    let p = self.pending.last_mut().expect("pending call");
                    if TRACE {
                        p.entry_args.push((*var, current));
                    }
                    p.bindings.push((*var, loc));
                }
                Op::DoCall(site_idx) => {
                    let site = vproc.calls[*site_idx as usize];
                    // The call's own Step event, in the caller's context,
                    // before the callee runs.
                    if TRACE {
                        let uses = self.uses_stack.pop().expect("call uses");
                        self.fire_step(monitor, site.step, &[], &uses, None)?;
                        // Reuse the argument buffer as the callee's exec
                        // buffer.
                        let mut buf = uses;
                        buf.clear();
                        self.uses_stack.push(buf);
                    } else {
                        self.bump_step()?;
                    }
                    // Static link: nearest frame on the current static
                    // chain whose proc is the callee's lexical parent.
                    let callee = self.program.proc(site.callee);
                    let static_link = match callee.parent {
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
                    let pend = self.pending.pop().expect("pending call");
                    let ret = ReturnCtx {
                        proc,
                        ip,
                        expr_pos: site.expr_pos,
                        span: self.cur_span,
                    };
                    self.push_frame(
                        site.callee,
                        static_link,
                        pend.params,
                        pend.bindings,
                        site.site_stmt,
                        Some(ret),
                    );
                    if TRACE {
                        self.fire_call_enter(monitor, &pend.entry_args);
                    }
                    let entry = callee.entry;
                    reload!(site.callee, callee.block_start[entry.0 as usize]);
                    if TRACE {
                        self.transfer_loops(entry, monitor);
                    }
                }
                Op::Store {
                    sr,
                    indexed,
                    ty,
                    step,
                } => {
                    let loc = if *indexed {
                        self.indexed_loc(&vproc.slotrefs[*sr as usize])?
                    } else {
                        self.resolve(&vproc.slotrefs[*sr as usize])
                    };
                    let value = self.stack.pop().expect("store value");
                    let store_ty = &vproc.store_tys[*ty as usize];
                    let value = match (&value, store_ty) {
                        (Value::Int(_), StoreTy::Direct(Type::Integer)) if !TRACE => value,
                        _ => self.coerce(value, store_ty)?,
                    };
                    if TRACE {
                        let def = self.memloc(loc);
                        self.write_loc::<true>(loc, value, self.cur_span)?;
                        let uses = std::mem::take(self.uses_stack.last_mut().expect("uses"));
                        self.fire_step(monitor, *step, &[def], &uses, None)?;
                        let mut buf = uses;
                        buf.clear();
                        *self.uses_stack.last_mut().expect("uses") = buf;
                    } else {
                        self.write_loc::<false>(loc, value, self.cur_span)?;
                        self.bump_step()?;
                    }
                }
                Op::ReadInto {
                    sr,
                    indexed,
                    ty,
                    step,
                } => {
                    let loc = if *indexed {
                        self.indexed_loc(&vproc.slotrefs[*sr as usize])?
                    } else {
                        self.resolve(&vproc.slotrefs[*sr as usize])
                    };
                    let raw = self
                        .input
                        .pop_front()
                        .ok_or_else(|| rt_err("input exhausted", self.cur_span))?;
                    let value = self.coerce(raw, &vproc.store_tys[*ty as usize])?;
                    if TRACE {
                        let def = self.memloc(loc);
                        self.write_loc::<true>(loc, value, self.cur_span)?;
                        let uses = std::mem::take(self.uses_stack.last_mut().expect("uses"));
                        self.fire_step(monitor, *step, &[def], &uses, None)?;
                        let mut buf = uses;
                        buf.clear();
                        *self.uses_stack.last_mut().expect("uses") = buf;
                    } else {
                        self.write_loc::<false>(loc, value, self.cur_span)?;
                        self.bump_step()?;
                    }
                }
                Op::WritePush => {
                    let v = self.stack.pop().expect("write value");
                    self.output.push_str(&v.to_string());
                }
                Op::WriteEnd { newline, step } => {
                    if *newline {
                        self.output.push('\n');
                    }
                    if TRACE {
                        let uses = std::mem::take(self.uses_stack.last_mut().expect("uses"));
                        self.fire_step(monitor, *step, &[], &uses, None)?;
                        let mut buf = uses;
                        buf.clear();
                        *self.uses_stack.last_mut().expect("uses") = buf;
                    } else {
                        self.bump_step()?;
                    }
                }
                Op::JumpTo(b) => {
                    if TRACE {
                        let target = BlockId(*b);
                        self.transfer_loops(target, monitor);
                    }
                    let to = vproc.block_start[*b as usize];
                    if !TRACE && to < ip {
                        self.cycle_hook(proc, to)?;
                    }
                    ip = to;
                }
                Op::BranchIf {
                    then_bb,
                    else_bb,
                    step,
                } => {
                    let v = self.stack.pop().expect("condition");
                    let taken = v
                        .as_bool()
                        .ok_or_else(|| rt_err("branch condition is not boolean", Span::dummy()))?;
                    if TRACE {
                        let uses = std::mem::take(self.uses_stack.last_mut().expect("uses"));
                        self.fire_step(monitor, *step, &[], &uses, Some(taken))?;
                        let mut buf = uses;
                        buf.clear();
                        *self.uses_stack.last_mut().expect("uses") = buf;
                    } else {
                        self.bump_step()?;
                    }
                    let b = if taken { *then_bb } else { *else_bb };
                    let target = BlockId(b);
                    if TRACE {
                        self.transfer_loops(target, monitor);
                    }
                    let to = vproc.block_start[b as usize];
                    if !TRACE && to < ip {
                        self.cycle_hook(proc, to)?;
                    }
                    ip = to;
                }
                Op::CmpBranch {
                    op,
                    then_bb,
                    else_bb,
                    step,
                } => {
                    let b = self.stack.pop().expect("operand");
                    let a = self.stack.pop().expect("operand");
                    let r = if TRACE {
                        eval_binary_op(*op, a, b, self.cur_span)?
                    } else {
                        fast_binary(*op, a, b, self.cur_span)?
                    };
                    let taken = r
                        .as_bool()
                        .ok_or_else(|| rt_err("branch condition is not boolean", Span::dummy()))?;
                    if TRACE {
                        let uses = std::mem::take(self.uses_stack.last_mut().expect("uses"));
                        self.fire_step(monitor, *step, &[], &uses, Some(taken))?;
                        let mut buf = uses;
                        buf.clear();
                        *self.uses_stack.last_mut().expect("uses") = buf;
                    } else {
                        self.bump_step()?;
                    }
                    let t = if taken { *then_bb } else { *else_bb };
                    let target = BlockId(t);
                    if TRACE {
                        self.transfer_loops(target, monitor);
                    }
                    let to = vproc.block_start[t as usize];
                    if !TRACE && to < ip {
                        self.cycle_hook(proc, to)?;
                    }
                    ip = to;
                }
                Op::Ret => {
                    if TRACE {
                        self.exit_all_loops(monitor);
                    }
                    if self.frames.len() == base_frames {
                        return Ok(());
                    }
                    let result = vproc
                        .result
                        .map(|(_, slot)| self.top().slots[slot as usize].clone());
                    if TRACE {
                        self.fire_call_exit(monitor, false);
                    }
                    let popped = self.frames.pop().expect("frame");
                    if TRACE {
                        self.uses_stack.pop();
                    }
                    let rctx = popped.ret.expect("non-base frame has a return ctx");
                    self.cur_span = rctx.span;
                    if rctx.expr_pos {
                        match result {
                            Some(v) => {
                                if TRACE {
                                    if let Some((rv, _)) = vproc.result {
                                        self.uses_stack.last_mut().expect("uses").push(MemLoc {
                                            frame: popped.id,
                                            var: rv,
                                            elem: None,
                                        });
                                    }
                                }
                                self.stack.push(v);
                            }
                            None => {
                                return Err(rt_err("function returned no value", rctx.span));
                            }
                        }
                    }
                    reload!(rctx.proc, rctx.ip);
                }
                Op::Goto(g) => {
                    let site = vproc.gotos[*g as usize].clone();
                    if TRACE {
                        self.fire_step(monitor, site.step, &[], &[], None)?;
                        self.exit_all_loops(monitor);
                    } else {
                        self.bump_step()?;
                    }
                    if self.top().proc == site.owner {
                        let target = site.target;
                        self.land::<TRACE>(target, monitor);
                        let lp = self.top().proc;
                        reload!(lp, self.program.proc(lp).block_start[target.0 as usize]);
                        if !TRACE {
                            self.cycle_hook(proc, ip)?;
                        }
                        continue;
                    }
                    loop {
                        if self.frames.len() <= base_frames {
                            // Only reachable from isolated procedure runs:
                            // main-program lowering always finds the owner.
                            return Err(rt_err(
                                "non-local goto escaped an isolated procedure run",
                                Span::dummy(),
                            ));
                        }
                        if TRACE {
                            self.fire_call_exit(monitor, true);
                        }
                        let popped = self.frames.pop().expect("frame");
                        if TRACE {
                            self.uses_stack.pop();
                        }
                        let rctx = popped.ret.expect("non-base frame has a return ctx");
                        self.cur_span = rctx.span;
                        if rctx.expr_pos {
                            return Err(rt_err(
                                "non-local goto out of a function used in an expression",
                                rctx.span,
                            ));
                        }
                        if self.top().proc == site.owner {
                            let target = site.target;
                            self.land::<TRACE>(target, monitor);
                            let lp = self.top().proc;
                            reload!(lp, self.program.proc(lp).block_start[target.0 as usize]);
                            if !TRACE {
                                self.cycle_hook(proc, ip)?;
                            }
                            break;
                        }
                        if TRACE {
                            self.exit_all_loops(monitor);
                        }
                    }
                }
            }
        }
    }

    /// Lands a non-local goto in the (already top) owner frame: discard
    /// abandoned partial evaluation, then transfer loop context.
    fn land<const TRACE: bool>(&mut self, target: BlockId, monitor: &mut dyn Monitor) {
        let f = self.frames.last().expect("frame");
        let (sb, ut) = (f.stack_base, f.uses_top);
        self.stack.truncate(sb);
        if TRACE {
            self.uses_stack.truncate(ut + 1);
            self.uses_stack.last_mut().expect("uses").clear();
        }
        self.pending.clear();
        if TRACE {
            self.transfer_loops(target, monitor);
        }
    }

    /// Pops an index and resolves an element location (the interpreter's
    /// `loc_with_elem` with an index present).
    fn indexed_loc(&mut self, sr: &SlotRef) -> Result<VmLoc> {
        let iv = self.stack.pop().expect("index");
        let i = iv
            .as_int()
            .ok_or_else(|| rt_err("array index is not an integer", self.cur_span))?;
        let base = self.resolve(sr);
        if base.elem.is_some() {
            return Err(rt_err("cannot index a scalar location", self.cur_span));
        }
        Ok(VmLoc {
            elem: Some(i),
            ..base
        })
    }

    fn coerce(&self, value: Value, ty: &StoreTy) -> Result<Value> {
        match ty {
            StoreTy::Direct(t) => coerce_store(value, t, self.cur_span),
            StoreTy::ElemOfNonArray => Err(rt_err("indexing a non-array variable", self.cur_span)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::compile;

    const BUDGET: u64 = 100_000;

    /// Runs `src` on the fast path and then monitored, on one `Vm`, and
    /// returns both results as text plus the fast run's step count.
    fn fast_and_monitored(src: &str, input: &[i64]) -> (String, String, u64) {
        let module = compile(src).expect("compiles");
        let cfg = lower(&module);
        let program = VmProgram::compile(&module, &cfg);
        let mut vm = Vm::new(&module, &program);
        vm.set_limits(Limits {
            max_steps: BUDGET,
            ..Limits::default()
        });
        let text = |r: Result<Outcome>| match r {
            Ok(o) => format!("ok {} {:?}", o.steps, o.output_text()),
            Err(e) => format!("error: {e}"),
        };
        vm.set_input(input.iter().map(|&n| Value::Int(n)));
        let fast = text(vm.run());
        let fast_steps = vm.steps;
        vm.set_input(input.iter().map(|&n| Value::Int(n)));
        let monitored = text(vm.run_with(&mut NoopMonitor));
        (fast, monitored, fast_steps)
    }

    /// A runaway the guard must stop within `within` steps, with the
    /// monitored run's error.
    fn assert_stops_early(src: &str, within: u64) {
        let (fast, monitored, steps) = fast_and_monitored(src, &[]);
        assert_eq!(fast, monitored, "{src}");
        assert!(fast.contains("step limit of 100000 exceeded"), "{fast}");
        assert!(steps <= within, "stopped after {steps} steps: {src}");
    }

    #[test]
    fn stalled_loop_counters_stop_early() {
        assert_stops_early(
            "program t; var i, s: integer;
             begin i := 0; s := 0; while i < 10 do s := i * 2; writeln(s) end.",
            1_000,
        );
        assert_stops_early(
            "program t; var i, s: integer;
             begin i := 0; repeat s := s + i until i > 5; writeln(s) end.",
            1_000,
        );
    }

    #[test]
    fn drifting_counter_runs_the_whole_budget() {
        let (fast, monitored, steps) = fast_and_monitored(
            "program t; var i: integer; begin i := 0; while i >= 0 do i := i + 1 end.",
            &[],
        );
        assert_eq!(fast, monitored);
        assert!(fast.contains("step limit of 100000 exceeded"), "{fast}");
        assert_eq!(steps, BUDGET + 1);
    }

    #[test]
    fn a_loop_that_changes_only_an_array_is_no_repeat() {
        let (fast, monitored, _) = fast_and_monitored(
            "program t; var a: array[1..3] of integer; k: integer;
             begin k := 0; while a[3] < 200 do a[3] := a[3] + 1; writeln(a[3]) end.",
            &[],
        );
        assert_eq!(fast, monitored);
        assert!(fast.ends_with("\"200\\n\""), "{fast}");
    }

    #[test]
    fn goto_loops_stop_early() {
        // A local goto lowers to a backward jump.
        assert_stops_early(
            "program t; label 1; var i: integer;
             begin i := 0; 1: i := i * 1; goto 1 end.",
            1_000,
        );
        // A non-local goto passes no backward jump: the landing is the
        // only hook on the cycle.
        assert_stops_early(
            "program t; label 1; var i: integer;
             procedure p; begin i := i + 0; goto 1 end;
             begin i := 0; 1: p end.",
            1_000,
        );
    }

    #[test]
    fn loop_inside_an_argument_stops_early() {
        // While `f` spins, the operand stack holds `2` and a pending call
        // of `p` holds its first argument.
        assert_stops_early(
            "program t; var x: integer;
             function f(n: integer): integer; var k: integer;
             begin k := 0; while k < n do k := k * 1; f := k end;
             procedure p(a, b: integer); begin x := a + b end;
             begin p(1, 2 + f(3)); writeln(x) end.",
            1_000,
        );
    }

    #[test]
    fn a_loop_reading_input_ends_with_input_exhausted() {
        let input = [7; 500];
        let (fast, monitored, _) = fast_and_monitored(
            "program t; var x: integer; begin while true do read(x) end.",
            &input,
        );
        assert_eq!(fast, monitored);
        assert!(fast.contains("input exhausted"), "{fast}");
    }

    #[test]
    fn a_second_run_starts_with_a_clean_guard() {
        // The first run ends with a snapshot at `i = 95`. The second run
        // starts its loop at 94 after other steps: with that snapshot
        // still armed, its first hook would match it and stop a run that
        // terminates.
        let src = "program t; var n, w, i: integer;
             begin
               read(n);
               if n > 0 then begin w := 1; w := 2; w := 3 end;
               w := 0; i := n; n := 0;
               while i < 100 do i := i + 1;
               writeln(i)
             end.";
        let module = compile(src).expect("compiles");
        let cfg = lower(&module);
        let program = VmProgram::compile(&module, &cfg);
        let mut vm = Vm::new(&module, &program);
        for n in [0, 94] {
            vm.set_input([Value::Int(n)]);
            let out = vm.run().expect("terminates");
            assert_eq!(out.output_text(), "100\n");
            if n == 0 {
                assert_ne!(vm.guard.power, 0, "the first run took snapshots");
            }
        }
        vm.reset();
        assert_eq!((vm.guard.hooks, vm.guard.power), (0, 0));
    }

    #[test]
    fn kernels_match_the_shared_operator_semantics() {
        use BinOp::*;
        let ints = [i64::MIN, i64::MIN + 1, -7, -1, 0, 1, 3, i64::MAX];
        let mut values: Vec<Value> = ints.iter().map(|&n| Value::Int(n)).collect();
        values.extend([Value::Real(2.5), Value::Real(-0.0), Value::Bool(true)]);
        let text = |r: Result<Value>| match r {
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        };
        for op in [
            Add, Sub, Mul, FDiv, Div, Mod, And, Or, Eq, Ne, Lt, Le, Gt, Ge,
        ] {
            for a in &values {
                for b in &values {
                    let span = Span::dummy();
                    assert_eq!(
                        text(fast_binary(op, a.clone(), b.clone(), span)),
                        text(eval_binary_op(op, a.clone(), b.clone(), span)),
                        "{a:?} {op} {b:?}"
                    );
                }
            }
        }
    }

    /// Each kernel site (`Binary`, `LoadLoadBin`, `LoadConstBin`,
    /// `CmpBranch`) on the fast path gives the monitored run's result,
    /// and every error keeps `eval_binary_op`'s message.
    #[test]
    fn kernel_edge_cases_keep_their_messages() {
        let big = "a := 4611686018427387904";
        let min = "m := 0 - 4611686018427387904; m := m - 4611686018427387904";
        let cases = [
            (
                format!("{big}; b := a; c := a + b"),
                "integer overflow in `+`",
            ),
            (format!("{min}; m := m - 1"), "integer overflow in `-`"),
            (
                format!("{big}; c := (a + 0) * (a - 1)"),
                "integer overflow in `*`",
            ),
            (format!("{big}; b := 0; c := a div b"), "division by zero"),
            ("a := 5; c := a mod 0".to_string(), "division by zero"),
            (
                format!("{min}; b := 0 - 1; c := m div b"),
                "integer overflow in `div`",
            ),
            (
                format!("{min}; b := 0 - 1; c := m mod b"),
                "integer overflow in `mod`",
            ),
            (
                format!("{big}; if a * 2 > 0 then c := 1"),
                "integer overflow in `*`",
            ),
        ];
        for (body, message) in cases {
            let src = format!("program t; var a, b, c, m: integer; begin {body}; writeln(c) end.");
            let (fast, monitored, _) = fast_and_monitored(&src, &[]);
            assert_eq!(fast, monitored, "{body}");
            assert!(fast.contains(message), "{body}: {fast}");
        }
        let (fast, monitored, _) = fast_and_monitored(
            "program t; var a, b: integer; r: real;
             begin a := -7; b := 2; r := a; writeln(r); r := a + 1.5; writeln(r);
               r := 1.5 * a; writeln(r); r := a / b; writeln(r);
               writeln(a div b, a mod b, -a mod b);
               if a < 2.5 then writeln(1); if b = 2.0 then writeln(2);
               if a <> b then writeln(3); if a + 1 < b * 2 then writeln(4)
             end.",
            &[],
        );
        assert_eq!(fast, monitored);
        assert!(fast.starts_with("ok "), "{fast}");
    }
}
