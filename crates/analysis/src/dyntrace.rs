//! Dynamic trace recording: the substrate for dynamic interprocedural
//! slicing (Kamkar's method, which the paper's §9 reports as "under
//! implementation" — here it is implemented).
//!
//! Two interpreter [`Monitor`]s record a run:
//!
//! * A [`CallTreeRecorder`] records the dynamic call tree and nothing
//!   else: one [`CallRecord`] per invocation with In/Out values, one
//!   [`LoopRecord`] per loop instance, and the number of steps. That is
//!   all the paper's execution tree is built from (§5.2); the
//!   `gadt-trace` crate renders it. A campaign's kill check runs every
//!   mutant whose output matches its golden's under this monitor alone.
//! * A [`DependenceRecorder`] also captures every step with resolved
//!   dynamic data dependences (use → the event that last defined the
//!   used location) and dynamic control dependences (event → the most
//!   recent branch instance its statement is statically
//!   control-dependent on, or the call event that created its frame),
//!   which slicing a wrong output needs (§5.3.3). It owns a
//!   [`CallTreeRecorder`] and hands it every event, so both monitors
//!   record calls and loops through one body.

use crate::controldep::ProgramControlDeps;
use gadt_pascal::ast::StmtId;
use gadt_pascal::cfg::{BlockId, LoopId};
use gadt_pascal::idhash::IdMap;
use gadt_pascal::interp::{Event, MemLoc, Monitor};
use gadt_pascal::sema::{Module, ProcId, VarId};
use gadt_pascal::value::Value;
use std::collections::HashMap;

/// One recorded step (instruction or branch instance).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Position in the event list.
    pub idx: usize,
    /// Frame instance that executed the step.
    pub frame: u64,
    /// Procedure.
    pub proc: ProcId,
    /// Block.
    pub block: BlockId,
    /// Source statement.
    pub stmt: StmtId,
    /// Locations defined.
    pub defs: Vec<MemLoc>,
    /// Resolved data dependences: indices of defining events.
    pub data_deps: Vec<usize>,
    /// Used locations that resolved to *no* defining event — they were
    /// never written before this step. In a well-formed run every use has
    /// a reaching definition; an entry here is the dynamic signature of an
    /// omission fault (a deleted or misdirected write), where backward
    /// slices are structurally incomplete and must compensate (see
    /// `slice_dynamic`).
    pub unresolved_uses: Vec<MemLoc>,
    /// Resolved dynamic control dependence.
    pub control_dep: Option<usize>,
    /// For branch instances, the outcome.
    pub branch_taken: Option<bool>,
    /// The dynamic call this event belongs to.
    pub call: u64,
}

/// One dynamic procedure invocation.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Dynamic call id (0 = main).
    pub id: u64,
    /// Frame instance id.
    pub frame: u64,
    /// The procedure invoked.
    pub proc: ProcId,
    /// The invoking call (`None` for main).
    pub parent: Option<u64>,
    /// Call statement at the call site, if a call statement.
    pub site_stmt: Option<StmtId>,
    /// Call depth (main = 0).
    pub depth: usize,
    /// Parameter values at entry.
    pub args: Vec<(VarId, Value)>,
    /// Reference-parameter bindings to ultimate memory locations.
    pub bindings: Vec<(VarId, MemLoc)>,
    /// Output values at exit (reference params, function result).
    pub outs: Vec<(VarId, Value)>,
    /// Non-local variables read (first-read values).
    pub nonlocal_reads: Vec<(VarId, Value)>,
    /// Non-local variables written (exit values).
    pub nonlocal_writes: Vec<(VarId, Value)>,
    /// Reference parameters read before written (render as `In`).
    pub ref_params_read: Vec<VarId>,
    /// Index of the first event inside the call (== events recorded before
    /// entry).
    pub enter_idx: usize,
    /// Index one past the last event inside the call.
    pub exit_idx: usize,
    /// Whether the invocation was aborted by a non-local goto.
    pub via_goto: bool,
    /// Children call ids, in execution order.
    pub children: Vec<u64>,
    /// The caller's event that performed this call (parameters' defining
    /// event), if any.
    pub call_event: Option<usize>,
}

/// One dynamic loop instance.
#[derive(Debug, Clone)]
pub struct LoopRecord {
    /// Loop instance id.
    pub instance: u64,
    /// The static loop.
    pub loop_id: LoopId,
    /// The frame executing the loop.
    pub frame: u64,
    /// The call the loop instance belongs to.
    pub call: u64,
    /// Event index range of the instance.
    pub enter_idx: usize,
    /// End of the range (set at exit).
    pub exit_idx: usize,
    /// Total header arrivals.
    pub iterations: u64,
    /// Per-iteration snapshots of loop-assigned variables (iteration 2
    /// onward, plus the exit snapshot).
    pub snapshots: Vec<(u64, Vec<(VarId, Value)>)>,
}

/// A complete dynamic trace.
#[derive(Debug, Clone, Default)]
pub struct DynTrace {
    /// All step events, in execution order.
    pub events: Vec<TraceEvent>,
    /// All invocations, indexed by call id.
    pub calls: Vec<CallRecord>,
    /// All loop instances, indexed by instance id.
    pub loops: Vec<LoopRecord>,
}

impl DynTrace {
    /// The main invocation.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn main_call(&self) -> &CallRecord {
        &self.calls[0]
    }

    /// The record of one call.
    pub fn call(&self, id: u64) -> &CallRecord {
        &self.calls[id as usize]
    }

    /// Records this trace's sizes on `rec` as the counters
    /// `trace.events`, `trace.calls` and `trace.loops`, plus one
    /// `trace.runs` tick so merged journals count traced executions.
    pub fn observe(&self, rec: &mut gadt_obs::Recorder) {
        observe_run(rec, self.events.len(), &self.calls, &self.loops);
    }
}

/// A run's dynamic call tree without its step events: what a
/// [`CallTreeRecorder`] records, and all [`DynTrace`] holds besides its
/// events.
#[derive(Debug, Clone, Default)]
pub struct CallTree {
    /// All invocations, indexed by call id.
    pub calls: Vec<CallRecord>,
    /// All loop instances, indexed by instance id.
    pub loops: Vec<LoopRecord>,
    /// Steps executed. The event indices of the call and loop records
    /// count steps, so they equal a [`DynTrace`]'s event indices.
    pub steps: usize,
}

impl CallTree {
    /// Records the same counters as [`DynTrace::observe`], counting
    /// steps as `trace.events`.
    pub fn observe(&self, rec: &mut gadt_obs::Recorder) {
        observe_run(rec, self.steps, &self.calls, &self.loops);
    }
}

fn observe_run(
    rec: &mut gadt_obs::Recorder,
    events: usize,
    calls: &[CallRecord],
    loops: &[LoopRecord],
) {
    rec.incr("trace.runs");
    rec.add("trace.events", events as u64);
    rec.add("trace.calls", calls.len() as u64);
    rec.add("trace.loops", loops.len() as u64);
}

/// Records a run's [`CallTree`] while the interpreter runs, with no
/// dependence bookkeeping and no per-step record.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, interp::Interpreter, testprogs};
/// use gadt_analysis::dyntrace::CallTreeRecorder;
/// let m = compile(testprogs::SQRTEST)?;
/// let mut rec = CallTreeRecorder::new();
/// Interpreter::new(&m).run_with(&mut rec)?;
/// let tree = rec.finish();
/// assert_eq!(tree.calls.len(), 14); // main and 13 invocations
/// assert_eq!(tree.loops.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct CallTreeRecorder {
    tree: CallTree,
    /// Call stack of (call id).
    call_stack: Vec<u64>,
    /// Open loop instances: instance id → index in `tree.loops`.
    open_loops: IdMap<u64, usize>,
}

impl CallTreeRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        CallTreeRecorder::default()
    }

    /// Consumes the recorder, returning the call tree.
    pub fn finish(self) -> CallTree {
        self.tree
    }

    /// The innermost open call (main before the first call).
    fn current_call(&self) -> u64 {
        self.call_stack.last().copied().unwrap_or(0)
    }
}

impl Monitor for CallTreeRecorder {
    fn on_event(&mut self, _module: &Module, event: &Event<'_>) {
        let tree = &mut self.tree;
        match event {
            Event::Step { .. } => tree.steps += 1,
            Event::CallEnter {
                call,
                frame,
                proc,
                site_stmt,
                args,
                bindings,
                depth,
            } => {
                let parent = self.call_stack.last().copied();
                if let Some(p) = parent {
                    tree.calls[p as usize].children.push(*call);
                }
                // The caller's step that performed the call is the
                // latest one.
                let call_event = if *depth == 0 {
                    None
                } else {
                    tree.steps.checked_sub(1)
                };
                debug_assert_eq!(*call as usize, tree.calls.len());
                tree.calls.push(CallRecord {
                    id: *call,
                    frame: *frame,
                    proc: *proc,
                    parent,
                    site_stmt: *site_stmt,
                    depth: *depth,
                    args: args.to_vec(),
                    bindings: bindings.to_vec(),
                    outs: Vec::new(),
                    nonlocal_reads: Vec::new(),
                    nonlocal_writes: Vec::new(),
                    ref_params_read: Vec::new(),
                    enter_idx: tree.steps,
                    exit_idx: usize::MAX,
                    via_goto: false,
                    children: Vec::new(),
                    call_event,
                });
                self.call_stack.push(*call);
            }
            Event::CallExit {
                call,
                outs,
                nonlocal_reads,
                nonlocal_writes,
                param_reads,
                via_goto,
                ..
            } => {
                let rec = &mut tree.calls[*call as usize];
                rec.outs = outs.to_vec();
                rec.nonlocal_reads = nonlocal_reads.to_vec();
                rec.nonlocal_writes = nonlocal_writes.to_vec();
                rec.ref_params_read = param_reads.to_vec();
                rec.exit_idx = tree.steps;
                rec.via_goto = *via_goto;
                self.call_stack.pop();
            }
            Event::LoopEnter {
                loop_id,
                frame,
                instance,
            } => {
                let pos = tree.loops.len();
                tree.loops.push(LoopRecord {
                    instance: *instance,
                    loop_id: *loop_id,
                    frame: *frame,
                    call: self.call_stack.last().copied().unwrap_or(0),
                    enter_idx: tree.steps,
                    exit_idx: usize::MAX,
                    iterations: 1,
                    snapshots: Vec::new(),
                });
                self.open_loops.insert(*instance, pos);
            }
            Event::LoopIter {
                instance,
                iteration,
                vars,
                ..
            } => {
                if let Some(&pos) = self.open_loops.get(instance) {
                    let rec = &mut tree.loops[pos];
                    rec.iterations = *iteration;
                    rec.snapshots.push((*iteration, vars.to_vec()));
                }
            }
            Event::LoopExit {
                instance,
                iterations,
                vars,
                ..
            } => {
                if let Some(pos) = self.open_loops.remove(instance) {
                    let rec = &mut tree.loops[pos];
                    rec.iterations = *iterations;
                    rec.exit_idx = tree.steps;
                    rec.snapshots.push((*iterations, vars.to_vec()));
                }
            }
        }
    }
}

/// Records a dynamic trace while the interpreter runs.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, cfg::lower, interp::Interpreter};
/// use gadt_analysis::controldep::ProgramControlDeps;
/// use gadt_analysis::dyntrace::DependenceRecorder;
/// let m = compile("program t; var x: integer; begin x := 1; x := x + 1 end.")?;
/// let cfg = lower(&m);
/// let cd = ProgramControlDeps::compute(&m, &cfg);
/// let mut rec = DependenceRecorder::new(&cd);
/// Interpreter::new(&m).run_with(&mut rec)?;
/// let trace = rec.finish();
/// assert_eq!(trace.events.len(), 2);
/// assert_eq!(trace.events[1].data_deps, vec![0]); // x+1 uses x := 1
/// # Ok(())
/// # }
/// ```
pub struct DependenceRecorder<'a> {
    cd: &'a ProgramControlDeps,
    /// The call and loop records, which every event also goes to.
    call_tree: CallTreeRecorder,
    events: Vec<TraceEvent>,
    // Frame, loop-instance, variable and statement ids are issued
    // sequentially by the engine, so their maps use `IdMap`.
    /// Last definition per whole location.
    last_def: IdMap<(u64, VarId), WholeAndElems>,
    /// Per frame: the call event that created it.
    frame_call_event: IdMap<u64, Option<usize>>,
    /// Per frame: last branch event per branch statement.
    frame_branches: IdMap<u64, IdMap<StmtId, usize>>,
}

#[derive(Debug, Clone, Default)]
struct WholeAndElems {
    whole: Option<usize>,
    /// Keyed by array index, a runtime value the program's input can
    /// choose, so it keeps the flood-resistant default hasher.
    elems: HashMap<i64, usize>,
}

impl<'a> DependenceRecorder<'a> {
    /// Creates a recorder over precomputed control dependences.
    pub fn new(cd: &'a ProgramControlDeps) -> Self {
        DependenceRecorder {
            cd,
            call_tree: CallTreeRecorder::new(),
            events: Vec::new(),
            last_def: IdMap::default(),
            frame_call_event: IdMap::default(),
            frame_branches: IdMap::default(),
        }
    }

    /// Consumes the recorder, returning the trace.
    pub fn finish(self) -> DynTrace {
        let CallTree { calls, loops, .. } = self.call_tree.finish();
        DynTrace {
            events: self.events,
            calls,
            loops,
        }
    }

    /// Appends the events that last defined `u` to `deps` (the caller
    /// sorts and dedups); false when no event did.
    fn resolve_use(&self, u: &MemLoc, deps: &mut Vec<usize>) -> bool {
        let Some(slot) = self.last_def.get(&(u.frame, u.var)) else {
            return false;
        };
        let before = deps.len();
        match u.elem {
            // Element use: the later of the element def and whole def.
            Some(i) => deps.extend(slot.elems.get(&i).copied().max(slot.whole)),
            None => {
                // Whole use (scalar, or whole-array copy): all element defs
                // after the whole def still matter.
                deps.extend(slot.elems.values().copied());
                deps.extend(slot.whole);
            }
        }
        deps.len() > before
    }

    fn register_def(&mut self, d: &MemLoc, idx: usize) {
        let slot = self.last_def.entry((d.frame, d.var)).or_default();
        match d.elem {
            Some(i) => {
                slot.elems.insert(i, idx);
            }
            None => {
                slot.whole = Some(idx);
                slot.elems.clear();
            }
        }
    }

    fn control_parent(&self, frame: u64, proc: ProcId, stmt: StmtId) -> Option<usize> {
        // Most recent branch instance in this frame whose statement
        // statically controls `stmt`; otherwise the frame's call event.
        let branch = self.frame_branches.get(&frame).and_then(|branches| {
            self.cd
                .of(proc)
                .controlling(stmt)
                .filter_map(|b| branches.get(&b).copied())
                .max()
        });
        branch.or_else(|| self.frame_call_event.get(&frame).copied().flatten())
    }
}

impl Monitor for DependenceRecorder<'_> {
    fn on_event(&mut self, module: &Module, event: &Event<'_>) {
        self.call_tree.on_event(module, event);
        match event {
            Event::Step {
                frame,
                proc,
                block,
                stmt,
                defs,
                uses,
                branch_taken,
                ..
            } => {
                let idx = self.events.len();
                let mut data_deps: Vec<usize> = Vec::new();
                let mut unresolved_uses: Vec<MemLoc> = Vec::new();
                for u in *uses {
                    if !self.resolve_use(u, &mut data_deps) {
                        unresolved_uses.push(*u);
                    }
                }
                data_deps.sort_unstable();
                data_deps.dedup();
                let control_dep = self.control_parent(*frame, *proc, *stmt);
                for d in *defs {
                    self.register_def(d, idx);
                }
                if branch_taken.is_some() {
                    self.frame_branches
                        .entry(*frame)
                        .or_default()
                        .insert(*stmt, idx);
                }
                self.events.push(TraceEvent {
                    idx,
                    frame: *frame,
                    proc: *proc,
                    block: *block,
                    stmt: *stmt,
                    defs: defs.to_vec(),
                    data_deps,
                    unresolved_uses,
                    control_dep,
                    branch_taken: *branch_taken,
                    call: self.call_tree.current_call(),
                });
            }
            Event::CallEnter {
                call, frame, proc, ..
            } => {
                let call_event = self.call_tree.tree.calls[*call as usize].call_event;
                self.frame_call_event.insert(*frame, call_event);
                // Parameter values are defined "by the call": attribute
                // their definitions to the caller's call step so data flows
                // from argument uses into the callee.
                if let Some(ce) = call_event {
                    let info = module.proc(*proc);
                    for &p in &info.params {
                        self.register_def(
                            &MemLoc {
                                frame: *frame,
                                var: p,
                                elem: None,
                            },
                            ce,
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// Runs a module once and returns its dynamic trace.
///
/// Convenience wrapper; `input` is pushed before running. Clones the
/// lowering for the run — callers holding an `Arc`ed lowering (oracles,
/// batch harnesses) should use [`record_trace_shared`] instead.
///
/// # Errors
/// Propagates interpreter runtime errors.
pub fn record_trace(
    module: &Module,
    cfg: &gadt_pascal::cfg::ProgramCfg,
    input: impl IntoIterator<Item = Value>,
) -> gadt_pascal::error::Result<DynTrace> {
    record_trace_shared(module, std::sync::Arc::new(cfg.clone()), input)
}

/// [`record_trace`] over an already-shared lowering: no per-run CFG
/// clone.
///
/// # Errors
/// Propagates interpreter runtime errors.
pub fn record_trace_shared(
    module: &Module,
    cfg: std::sync::Arc<gadt_pascal::cfg::ProgramCfg>,
    input: impl IntoIterator<Item = Value>,
) -> gadt_pascal::error::Result<DynTrace> {
    let cd = ProgramControlDeps::compute(module, &cfg);
    let mut rec = DependenceRecorder::new(&cd);
    let mut interp = gadt_pascal::interp::Interpreter::with_shared_cfg(module, cfg);
    interp.set_input(input);
    interp.run_with(&mut rec)?;
    Ok(rec.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::{compile, MAIN_PROC};
    use gadt_pascal::testprogs;

    fn trace_of(src: &str, input: Vec<i64>) -> (Module, DynTrace) {
        let m = compile(src).expect("compile");
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, input.into_iter().map(Value::Int)).expect("run");
        (m, t)
    }

    #[test]
    fn data_deps_chain() {
        let (_, t) = trace_of(
            "program t; var x, y, z: integer;
             begin x := 1; y := x + 1; z := y * 2 end.",
            vec![],
        );
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[1].data_deps, vec![0]);
        assert_eq!(t.events[2].data_deps, vec![1]);
    }

    #[test]
    fn control_deps_on_branches() {
        let (_, t) = trace_of(
            "program t; var x, y: integer;
             begin read(x); if x > 0 then y := 1 else y := 2 end.",
            vec![5],
        );
        // events: read, branch, assign
        assert_eq!(t.events.len(), 3);
        let branch = &t.events[1];
        assert_eq!(branch.branch_taken, Some(true));
        assert_eq!(branch.data_deps, vec![0]);
        let assign = &t.events[2];
        assert_eq!(assign.control_dep, Some(1));
    }

    #[test]
    fn call_records_form_a_tree() {
        let (m, t) = trace_of(testprogs::SQRTEST, vec![]);
        // main + 15 calls (sqrtest, arrsum, computs, comput1, partialsums,
        // sum1, increment, sum2, decrement, add, comput2, square, test) —
        // 13 procedure invocations + main = 14 records.
        assert_eq!(t.calls.len(), 14);
        let main = t.main_call();
        assert_eq!(main.children.len(), 1);
        let sqrtest = t.call(main.children[0]);
        assert_eq!(m.proc(sqrtest.proc).name, "sqrtest");
        assert_eq!(sqrtest.children.len(), 3);
        let names: Vec<&str> = sqrtest
            .children
            .iter()
            .map(|&c| m.proc(t.call(c).proc).name.as_str())
            .collect();
        assert_eq!(names, vec!["arrsum", "computs", "test"]);
    }

    #[test]
    fn call_records_capture_figure7_values() {
        let (m, t) = trace_of(testprogs::SQRTEST, vec![]);
        let find = |name: &str| {
            t.calls
                .iter()
                .find(|c| m.proc(c.proc).name == name)
                .unwrap_or_else(|| panic!("call {name} not found"))
        };
        // arrsum(In [1,2], In 2, Out 3)
        let arrsum = find("arrsum");
        assert_eq!(arrsum.args[0].1.to_string(), "[1,2]");
        assert_eq!(arrsum.args[1].1, Value::Int(2));
        assert_eq!(arrsum.outs[0].1, Value::Int(3));
        // computs(In 3, Out 12, Out 9)
        let computs = find("computs");
        assert_eq!(computs.args[0].1, Value::Int(3));
        assert_eq!(computs.outs[0].1, Value::Int(12));
        assert_eq!(computs.outs[1].1, Value::Int(9));
        // decrement(In 3) = 4
        let dec = find("decrement");
        assert_eq!(dec.args[0].1, Value::Int(3));
        assert_eq!(dec.outs[0].1, Value::Int(4));
        // test(In 12, In 9, Out false)
        let test = find("test");
        assert_eq!(test.args[0].1, Value::Int(12));
        assert_eq!(test.args[1].1, Value::Int(9));
        assert_eq!(test.outs[0].1, Value::Bool(false));
    }

    #[test]
    fn param_defs_link_to_call_event() {
        let (m, t) = trace_of(
            "program t; var a, r: integer;
             procedure p(x: integer; var y: integer); begin y := x * 2 end;
             begin a := 21; p(a, r) end.",
            vec![],
        );
        // events: a := 21 (0), call step (1), y := x*2 (2)
        assert_eq!(t.events.len(), 3);
        let call_step = &t.events[1];
        assert_eq!(call_step.data_deps, vec![0], "call uses a");
        let body = &t.events[2];
        // x's def is the call step; y's target is caller's r.
        assert!(body.data_deps.contains(&1));
        let r = m.var_in_scope(MAIN_PROC, "r").unwrap();
        assert!(body.defs.iter().any(|d| d.var == r));
    }

    #[test]
    fn callee_events_control_depend_on_call() {
        let (_, t) = trace_of(
            "program t; var r: integer;
             procedure p(var y: integer); begin y := 7 end;
             begin p(r) end.",
            vec![],
        );
        // events: call step (0), body assign (1)
        let body = &t.events[1];
        assert_eq!(body.control_dep, Some(0));
    }

    #[test]
    fn array_element_dependences_are_precise() {
        let (_, t) = trace_of(
            "program t; var a: array[1..3] of integer; x: integer;
             begin a[1] := 10; a[2] := 20; x := a[1] end.",
            vec![],
        );
        // x := a[1] depends only on a[1] := 10.
        assert_eq!(t.events[2].data_deps, vec![0]);
    }

    #[test]
    fn whole_array_use_depends_on_all_element_defs() {
        let (_, t) = trace_of(
            "program t; type arr = array[1..2] of integer;
             var a: arr; s: integer;
             procedure p(b: arr; var r: integer); begin r := b[1] + b[2] end;
             begin a[1] := 1; a[2] := 2; p(a, s) end.",
            vec![],
        );
        // The call step uses whole `a` → both element defs.
        let call_step = t
            .events
            .iter()
            .find(|e| !e.data_deps.is_empty() && e.defs.is_empty())
            .expect("call step");
        assert_eq!(call_step.data_deps, vec![0, 1]);
    }

    #[test]
    fn loop_records_snapshot_iterations() {
        let (_, t) = trace_of(
            "program t; var i, s: integer;
             begin s := 0; for i := 1 to 3 do s := s + i end.",
            vec![],
        );
        assert_eq!(t.loops.len(), 1);
        let l = &t.loops[0];
        // 3 body iterations + final header arrival = 4 arrivals.
        assert_eq!(l.iterations, 4);
        assert!(l.exit_idx > l.enter_idx);
        assert!(!l.snapshots.is_empty());
    }

    #[test]
    fn function_result_flows_to_use_site() {
        let (_, t) = trace_of(
            "program t; var r: integer;
             function f(x: integer): integer; begin f := x + 1 end;
             begin r := f(41) end.",
            vec![],
        );
        // events: call step (0), f := x+1 (1), r := … (2)
        assert_eq!(t.events.len(), 3);
        let assign = &t.events[2];
        assert!(assign.data_deps.contains(&1), "{:?}", assign.data_deps);
    }
}
