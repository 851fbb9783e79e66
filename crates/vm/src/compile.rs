//! Bytecode compilation: lowering a [`ProgramCfg`] into flat per-procedure
//! op vectors with *resolved variable slots*.
//!
//! The tree-walking interpreter resolves every variable reference at run
//! time: a name lookup in a `HashMap<VarId, Value>` after a static-link
//! walk driven by owner-procedure comparison. The compiler moves all of
//! that to compile time:
//!
//! * every variable of a procedure gets a dense **slot** index into the
//!   frame's `Vec<Value>`;
//! * every variable *reference* becomes a `SlotRef`: a static-link hop
//!   count (the lexical level difference, a compile-time constant) plus
//!   the slot — or a reference-parameter binding lookup for `var`/`out`
//!   parameters;
//! * expressions flatten to stack ops, basic blocks concatenate into one
//!   `Vec<Op>` per procedure with a `block_start` table, and loop
//!   snapshot variable lists (which the tree-walker computes and caches
//!   lazily) are precomputed per loop.
//!
//! Nothing about the *semantics* moves: the op stream is arranged so the
//! VM fires the exact event sequence the interpreter does, in the same
//! order, with the same payloads (see `exec.rs`).

use gadt_pascal::ast::{BinOp, StmtId, UnOp};
use gadt_pascal::cfg::{BlockId, CallArg, InstrKind, LoopId, Place, ProgramCfg, RExpr, Terminator};
use gadt_pascal::idhash::IdMap;
use gadt_pascal::sema::{Intrinsic, Module, ProcId, VarId, VarKind, MAIN_PROC};
use gadt_pascal::span::Span;
use gadt_pascal::types::Type;
use gadt_pascal::value::Value;

/// A compile-time-resolved variable reference.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotRef {
    /// Static-link hops from the executing frame to the owner frame
    /// (the lexical level difference; 0 for locals and globals-in-main).
    pub hops: u32,
    /// Slot in the owner frame (meaningless when `binding` is set).
    pub slot: u32,
    /// The variable, for event reporting.
    pub var: VarId,
    /// Whether the variable is a reference parameter of its owner: the
    /// access must go through the owner frame's binding table.
    pub binding: bool,
}

/// Static context of a step-firing op: which block/instr/statement the
/// resulting `Event::Step` reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepCtx {
    pub block: BlockId,
    pub instr: Option<u32>,
    pub stmt: StmtId,
}

/// A call site's static data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallSite {
    pub callee: ProcId,
    /// The call statement for statement calls, `None` for calls inside
    /// expressions (mirrors the interpreter's `site_stmt`).
    pub site_stmt: Option<StmtId>,
    /// Whether the call occurs in expression position (its result feeds
    /// an enclosing expression; non-local gotos may not escape it).
    pub expr_pos: bool,
    /// Step context for the call's own Step event (the caller's).
    pub step: u32,
}

/// A non-local goto site's static data.
#[derive(Debug, Clone)]
pub(crate) struct GotoSite {
    pub owner: ProcId,
    /// The label's block in `owner`, resolved at compile time.
    pub target: BlockId,
    pub step: u32,
}

/// Destination type of a store, for coercion.
#[derive(Debug, Clone)]
pub(crate) enum StoreTy {
    /// Store into a destination of this static type.
    Direct(Type),
    /// The lowering indexed a non-array variable: always a runtime error
    /// (kept for bug-for-bug parity with the tree-walker).
    ElemOfNonArray,
}

/// One value-parameter spec, in declaration order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParamSpec {
    pub var: VarId,
    pub slot: u32,
    pub is_ref: bool,
    pub passes_back: bool,
    /// Integer arguments widen to real for real-typed parameters.
    pub widen_real: bool,
}

/// Bytecode operations. Expression ops push onto the operand stack;
/// statement-level ops pop their operands, perform the effect, and fire
/// the instruction's Step event.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Set the current error span (one per source instruction; dummy for
    /// branch conditions, mirroring the interpreter).
    SpanCtx(Span),
    /// Push a constant from the per-proc pool.
    Const(u32),
    /// Resolve a [`SlotRef`], record the use, push the value.
    Load(u32),
    /// Pop an index, resolve a [`SlotRef`] element, record the use, push.
    LoadElem(u32),
    /// Apply a unary operator to the top of stack.
    Unary(UnOp),
    /// Apply a binary operator to the top two stack values.
    Binary(BinOp),
    /// Apply an intrinsic to the top of stack.
    IntrinsicCall(Intrinsic),
    /// Begin a call: depth check, push a pending-call record and a fresh
    /// uses buffer for the argument evaluation.
    BeginCall,
    /// Pop a value argument into the pending call.
    PushArg { var: VarId, slot: u32, widen: bool },
    /// Bind a reference argument (popping an index first if `indexed`).
    RefArg { sr: u32, var: VarId, indexed: bool },
    /// Fire the call's Step event, push the callee frame, enter it.
    DoCall(u32),
    /// Assignment: pop index (if `indexed`) then value; coerce via
    /// `store_tys[ty]`; write; fire the Step event `step`.
    Store {
        sr: u32,
        indexed: bool,
        ty: u32,
        step: u32,
    },
    /// `read`: pop index (if `indexed`); take a value from the input
    /// queue; coerce; write; fire the Step event.
    ReadInto {
        sr: u32,
        indexed: bool,
        ty: u32,
        step: u32,
    },
    /// Pop a value and append its textual form to the output buffer.
    WritePush,
    /// Finish a `write`/`writeln` statement and fire its Step event.
    WriteEnd { newline: bool, step: u32 },
    /// Unconditional jump to a block (fires loop transfer events).
    JumpTo(u32),
    /// Pop the condition, fire the branch Step event, jump.
    BranchIf {
        then_bb: u32,
        else_bb: u32,
        step: u32,
    },
    /// Return from the current frame.
    Ret,
    /// Non-local goto: unwind frames toward the owner procedure.
    Goto(u32),
    /// Superinstruction: `Load(a); Load(b); Binary(op)` fused into one
    /// dispatch. Semantics (use recording, read bookkeeping, errors) are
    /// identical to the unfused sequence, in the same order.
    LoadLoadBin { a: u32, b: u32, op: BinOp },
    /// Superinstruction: `Load(sr); Const(k); Binary(op)` fused.
    LoadConstBin { sr: u32, k: u32, op: BinOp },
    /// Superinstruction: `Binary(cmp); BranchIf` fused — pop two
    /// operands, apply the comparison, fire the branch Step, jump.
    CmpBranch {
        op: BinOp,
        then_bb: u32,
        else_bb: u32,
        step: u32,
    },
}

/// Whether `op` is a comparison (always yields a boolean): the only
/// binaries fused into [`Op::CmpBranch`].
fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// A compiled procedure: dense slot table plus flat code.
#[derive(Debug)]
pub(crate) struct VmProc {
    /// Slot of each variable owned by the proc (slots are dense indices
    /// in `vars_of` order).
    pub slot_of: IdMap<VarId, u32>,
    /// Zero-initialized frame prototype (cloned per activation).
    pub zeros: Vec<Value>,
    /// Parameters in declaration order.
    pub params: Vec<ParamSpec>,
    /// The function-result pseudo-variable's slot, if any.
    pub result: Option<(VarId, u32)>,
    /// Lexical level (main = 0).
    pub level: u32,
    /// Lexical parent.
    pub parent: Option<ProcId>,
    /// Flattened code for all blocks.
    pub code: Vec<Op>,
    /// `code` offset of each block, by `BlockId.0`.
    pub block_start: Vec<usize>,
    /// Enclosing-loop chain per block (outermost first), by `BlockId.0`.
    pub block_loops: Vec<Vec<LoopId>>,
    pub entry: BlockId,
    // Per-proc pools referenced by ops.
    pub consts: Vec<Value>,
    pub slotrefs: Vec<SlotRef>,
    pub steps: Vec<StepCtx>,
    pub calls: Vec<CallSite>,
    pub gotos: Vec<GotoSite>,
    pub store_tys: Vec<StoreTy>,
    /// For `MAIN_PROC` only: global variables as (lowercase name, slot),
    /// for capturing [`gadt_pascal::interp::Outcome::globals`].
    pub globals: Vec<(String, u32)>,
}

/// Precomputed per-loop data.
#[derive(Debug)]
pub(crate) struct VmLoop {
    pub header: BlockId,
    /// Loop-assigned variables (the tree-walker's `loop_assigned_vars`
    /// order), resolved relative to the loop's own procedure.
    pub snapshot: Vec<(VarId, SlotRef)>,
}

/// A fully compiled program: immutable, shareable across threads, and
/// executable any number of times (the VM keeps all mutable state in a
/// per-run machine).
#[derive(Debug)]
pub struct VmProgram {
    pub(crate) procs: Vec<VmProc>,
    pub(crate) loops: Vec<VmLoop>,
}

impl VmProgram {
    /// Compiles a lowered CFG into bytecode. Deterministic: the same
    /// module and CFG always produce the same program.
    pub fn compile(module: &Module, cfg: &ProgramCfg) -> VmProgram {
        let mut procs = Vec::with_capacity(cfg.procs.len());
        for pcfg in &cfg.procs {
            let mut c = ProcCompiler::new(module, cfg, pcfg.proc);
            c.compile_proc();
            procs.push(c.finish());
        }
        // Procs are indexed by ProcId; the CFG lists them in id order.
        procs.sort_by_key(|(id, _)| id.0);
        let procs: Vec<VmProc> = procs.into_iter().map(|(_, p)| p).collect();

        let mut loops = Vec::with_capacity(cfg.loops.len());
        for info in &cfg.loops {
            let vars = loop_assigned_vars(module, cfg, info.id);
            let snapshot = vars
                .into_iter()
                .map(|v| (v, slot_ref(module, &procs, info.proc, v)))
                .collect();
            loops.push(VmLoop {
                header: info.header,
                snapshot,
            });
        }
        VmProgram { procs, loops }
    }

    pub(crate) fn proc(&self, id: ProcId) -> &VmProc {
        &self.procs[id.0 as usize]
    }
}

/// Resolves variable `v` as referenced from executing procedure `from`.
fn slot_ref(module: &Module, procs: &[VmProc], from: ProcId, v: VarId) -> SlotRef {
    let info = module.var(v);
    let owner = info.owner;
    let hops = procs[from.0 as usize].level - procs[owner.0 as usize].level;
    let binding = info.param_mode().is_some_and(|m| m.is_reference());
    let slot = procs[owner.0 as usize].slot_of[&v];
    SlotRef {
        hops,
        slot,
        var: v,
        binding,
    }
}

/// The tree-walker's `loop_assigned_vars`, reproduced statically: every
/// variable assigned (or passed by reference) inside the loop, in block
/// order, temps excluded.
fn loop_assigned_vars(module: &Module, cfg: &ProgramCfg, lid: LoopId) -> Vec<VarId> {
    let info = cfg.loop_info(lid);
    let pcfg = cfg.proc(info.proc);
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
    vars.retain(|v| module.var(*v).kind != VarKind::Temp);
    vars
}

/// Compiles one procedure. Slot assignment happens first (so intra-proc
/// `SlotRef`s resolve), then code emission; cross-proc slot lookups go
/// through a local owner-slot computation identical to the global one.
struct ProcCompiler<'a> {
    module: &'a Module,
    cfg: &'a ProgramCfg,
    proc: ProcId,
    out: VmProc,
}

impl<'a> ProcCompiler<'a> {
    fn new(module: &'a Module, cfg: &'a ProgramCfg, proc: ProcId) -> Self {
        let info = module.proc(proc);
        let mut slot_of = IdMap::default();
        let mut zeros = Vec::new();
        for v in module.vars_of(proc) {
            slot_of.insert(v.id, zeros.len() as u32);
            zeros.push(Value::zero_of(&v.ty));
        }
        let params = info
            .params
            .iter()
            .map(|&p| {
                let pv = module.var(p);
                let mode = pv.param_mode().expect("param mode");
                ParamSpec {
                    var: p,
                    slot: slot_of[&p],
                    is_ref: mode.is_reference(),
                    passes_back: mode.passes_back(),
                    widen_real: pv.ty == Type::Real,
                }
            })
            .collect();
        let result = info.result_var.map(|rv| (rv, slot_of[&rv]));
        let mut globals = Vec::new();
        if proc == MAIN_PROC {
            for v in module.vars_of(proc) {
                if v.kind == VarKind::Global {
                    globals.push((v.name.to_ascii_lowercase(), slot_of[&v.id]));
                }
            }
        }
        let pcfg = cfg.proc(proc);
        let block_loops = pcfg.blocks.iter().map(|b| b.loops.clone()).collect();
        ProcCompiler {
            module,
            cfg,
            proc,
            out: VmProc {
                slot_of,
                zeros,
                params,
                result,
                level: info.level,
                parent: info.parent,
                code: Vec::new(),
                block_start: Vec::new(),
                block_loops,
                entry: pcfg.entry,
                consts: Vec::new(),
                slotrefs: Vec::new(),
                steps: Vec::new(),
                calls: Vec::new(),
                gotos: Vec::new(),
                store_tys: Vec::new(),
                globals,
            },
        }
    }

    fn finish(self) -> (ProcId, VmProc) {
        (self.proc, self.out)
    }

    // -- pool helpers --------------------------------------------------

    fn sref(&mut self, v: VarId) -> u32 {
        let info = self.module.var(v);
        let owner = info.owner;
        let hops = self.module.proc(self.proc).level - self.module.proc(owner).level;
        let binding = info.param_mode().is_some_and(|m| m.is_reference());
        let slot = if owner == self.proc {
            self.out.slot_of[&v]
        } else {
            // Owner slots follow the same vars_of order everywhere.
            owner_slot(self.module, owner, v)
        };
        self.out.slotrefs.push(SlotRef {
            hops,
            slot,
            var: v,
            binding,
        });
        (self.out.slotrefs.len() - 1) as u32
    }

    fn konst(&mut self, v: &Value) -> u32 {
        self.out.consts.push(v.clone());
        (self.out.consts.len() - 1) as u32
    }

    fn step(&mut self, block: BlockId, instr: Option<usize>, stmt: StmtId) -> u32 {
        self.out.steps.push(StepCtx {
            block,
            instr: instr.map(|i| i as u32),
            stmt,
        });
        (self.out.steps.len() - 1) as u32
    }

    fn store_ty(&mut self, var: VarId, indexed: bool) -> u32 {
        let base_ty = &self.module.var(var).ty;
        let ty = match (indexed, base_ty) {
            (true, Type::Array { elem, .. }) => StoreTy::Direct((**elem).clone()),
            (true, _) => StoreTy::ElemOfNonArray,
            (false, t) => StoreTy::Direct(t.clone()),
        };
        self.out.store_tys.push(ty);
        (self.out.store_tys.len() - 1) as u32
    }

    // -- code emission -------------------------------------------------

    fn compile_proc(&mut self) {
        let pcfg = self.cfg.proc(self.proc);
        for (bi, block) in pcfg.blocks.iter().enumerate() {
            self.out.block_start.push(self.out.code.len());
            let block_at = self.out.code.len();
            let bid = BlockId(bi as u32);
            for (i, instr) in block.instrs.iter().enumerate() {
                self.out.code.push(Op::SpanCtx(instr.span));
                match &instr.kind {
                    InstrKind::Assign { lhs, rhs } => {
                        self.emit_expr(rhs, bid, Some(i), instr.stmt);
                        let indexed = self.emit_place_index(lhs, bid, Some(i), instr.stmt);
                        let sr = self.sref(lhs.var);
                        let ty = self.store_ty(lhs.var, indexed);
                        let step = self.step(bid, Some(i), instr.stmt);
                        self.out.code.push(Op::Store {
                            sr,
                            indexed,
                            ty,
                            step,
                        });
                    }
                    InstrKind::Call { callee, args } => {
                        self.emit_call(
                            *callee,
                            args,
                            Some(instr.stmt),
                            false,
                            bid,
                            Some(i),
                            instr.stmt,
                        );
                    }
                    InstrKind::Read { target } => {
                        let indexed = self.emit_place_index(target, bid, Some(i), instr.stmt);
                        let sr = self.sref(target.var);
                        let ty = self.store_ty(target.var, indexed);
                        let step = self.step(bid, Some(i), instr.stmt);
                        self.out.code.push(Op::ReadInto {
                            sr,
                            indexed,
                            ty,
                            step,
                        });
                    }
                    InstrKind::Write { args, newline } => {
                        for a in args {
                            self.emit_expr(a, bid, Some(i), instr.stmt);
                            self.out.code.push(Op::WritePush);
                        }
                        let step = self.step(bid, Some(i), instr.stmt);
                        self.out.code.push(Op::WriteEnd {
                            newline: *newline,
                            step,
                        });
                    }
                }
            }
            match &block.term {
                Terminator::Jump(b) => self.out.code.push(Op::JumpTo(b.0)),
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                    stmt,
                } => {
                    // The interpreter evaluates branch conditions with a
                    // dummy span and `instr: None` context.
                    self.out.code.push(Op::SpanCtx(Span::dummy()));
                    self.emit_expr(cond, bid, None, *stmt);
                    let step = self.step(bid, None, *stmt);
                    self.out.code.push(Op::BranchIf {
                        then_bb: then_bb.0,
                        else_bb: else_bb.0,
                        step,
                    });
                }
                Terminator::Return => self.out.code.push(Op::Ret),
                Terminator::NonLocalGoto { owner, label, stmt } => {
                    let target = self.cfg.proc(*owner).labels[label];
                    let step = self.step(bid, None, *stmt);
                    self.out.gotos.push(GotoSite {
                        owner: *owner,
                        target,
                        step,
                    });
                    let idx = (self.out.gotos.len() - 1) as u32;
                    self.out.code.push(Op::Goto(idx));
                }
            }
            // Peephole-fuse inside the block we just emitted. Safe at
            // this point because every jump targets a `block_start`
            // offset and this block's start is already recorded: index
            // shifts stay strictly within the block.
            self.fuse_block(block_at);
        }
    }

    /// Replaces adjacent op patterns within `code[start..]` by fused
    /// superinstructions (left-to-right greedy, longest pattern first).
    fn fuse_block(&mut self, start: usize) {
        let tail = self.out.code.split_off(start);
        let mut i = 0;
        while i < tail.len() {
            if i + 2 < tail.len() {
                if let (Op::Load(a), Op::Load(b), Op::Binary(op)) =
                    (&tail[i], &tail[i + 1], &tail[i + 2])
                {
                    self.out.code.push(Op::LoadLoadBin {
                        a: *a,
                        b: *b,
                        op: *op,
                    });
                    i += 3;
                    continue;
                }
                if let (Op::Load(sr), Op::Const(k), Op::Binary(op)) =
                    (&tail[i], &tail[i + 1], &tail[i + 2])
                {
                    self.out.code.push(Op::LoadConstBin {
                        sr: *sr,
                        k: *k,
                        op: *op,
                    });
                    i += 3;
                    continue;
                }
            }
            if i + 1 < tail.len() {
                if let (
                    Op::Binary(op),
                    Op::BranchIf {
                        then_bb,
                        else_bb,
                        step,
                    },
                ) = (&tail[i], &tail[i + 1])
                {
                    if is_cmp(*op) {
                        self.out.code.push(Op::CmpBranch {
                            op: *op,
                            then_bb: *then_bb,
                            else_bb: *else_bb,
                            step: *step,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
            self.out.code.push(tail[i].clone());
            i += 1;
        }
    }

    /// Emits the index expression of an lvalue, if any. Returns whether
    /// the place is element-indexed.
    fn emit_place_index(
        &mut self,
        place: &Place,
        block: BlockId,
        instr: Option<usize>,
        stmt: StmtId,
    ) -> bool {
        match &place.index {
            None => false,
            Some(ix) => {
                self.emit_expr(ix, block, instr, stmt);
                true
            }
        }
    }

    fn emit_expr(&mut self, e: &RExpr, block: BlockId, instr: Option<usize>, stmt: StmtId) {
        match e {
            RExpr::Lit(v) => {
                let k = self.konst(v);
                self.out.code.push(Op::Const(k));
            }
            RExpr::Var(v) => {
                let sr = self.sref(*v);
                self.out.code.push(Op::Load(sr));
            }
            RExpr::Index { base, index } => {
                self.emit_expr(index, block, instr, stmt);
                let sr = self.sref(*base);
                self.out.code.push(Op::LoadElem(sr));
            }
            RExpr::Call { callee, args } => {
                self.emit_call(*callee, args, None, true, block, instr, stmt);
            }
            RExpr::Intrinsic { which, arg } => {
                self.emit_expr(arg, block, instr, stmt);
                self.out.code.push(Op::IntrinsicCall(*which));
            }
            RExpr::Unary { op, operand } => {
                self.emit_expr(operand, block, instr, stmt);
                self.out.code.push(Op::Unary(*op));
            }
            RExpr::Binary { op, lhs, rhs } => {
                self.emit_expr(lhs, block, instr, stmt);
                self.emit_expr(rhs, block, instr, stmt);
                self.out.code.push(Op::Binary(*op));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_call(
        &mut self,
        callee: ProcId,
        args: &[CallArg],
        site_stmt: Option<StmtId>,
        expr_pos: bool,
        block: BlockId,
        instr: Option<usize>,
        stmt: StmtId,
    ) {
        let step = self.step(block, instr, stmt);
        self.out.calls.push(CallSite {
            callee,
            site_stmt,
            expr_pos,
            step,
        });
        let site = (self.out.calls.len() - 1) as u32;
        self.out.code.push(Op::BeginCall);
        let info = self.module.proc(callee).clone();
        for (&p, a) in info.params.iter().zip(args) {
            let pinfo = self.module.var(p);
            match a {
                CallArg::Value(e) => {
                    let widen = pinfo.ty == Type::Real;
                    let slot = owner_slot(self.module, callee, p);
                    self.emit_expr(e, block, instr, stmt);
                    self.out.code.push(Op::PushArg {
                        var: p,
                        slot,
                        widen,
                    });
                }
                CallArg::Ref(place) => {
                    let indexed = self.emit_place_index(place, block, instr, stmt);
                    let sr = self.sref(place.var);
                    self.out.code.push(Op::RefArg {
                        sr,
                        var: p,
                        indexed,
                    });
                }
            }
        }
        self.out.code.push(Op::DoCall(site));
    }
}

/// Slot of `v` within its owner procedure, computed from the canonical
/// `vars_of` order (the same order `ProcCompiler::new` assigns).
fn owner_slot(module: &Module, owner: ProcId, v: VarId) -> u32 {
    module
        .vars_of(owner)
        .position(|info| info.id == v)
        .expect("variable owned by proc") as u32
}
