//! Control-flow graph lowering.
//!
//! Every procedure body (and the main program body) lowers to a basic-block
//! CFG over a *resolved* instruction set: names are [`VarId`]s, callees are
//! [`ProcId`]s, constants are inlined. The same CFG drives
//!
//! * the interpreter ([`crate::interp`]), which is what makes `goto` —
//!   including non-local `goto` out of nested procedures — executable;
//! * the data-flow analyses and slicers in the `gadt-analysis` crate.
//!
//! Loops are first-class: the paper treats a loop as a debuggable *unit*
//! just like a procedure (§5.1), so each loop gets a [`LoopId`] and every
//! block records the stack of loops containing it. The interpreter raises
//! loop-enter/iterate/exit events by diffing those stacks across jumps,
//! which stays correct even when a `goto` exits a loop sideways.
//!
//! Statement ids ([`StmtId`]) survive lowering on every instruction and
//! terminator, so slices (statement-id sets) map between source, CFG, and
//! dynamic traces.

use crate::ast::{BinOp, Expr, ExprKind, ForDir, Stmt, StmtId, StmtKind, UnOp};
use crate::name::Name;
use crate::sema::{for_var_key, Intrinsic, Module, NameRes, ProcId, VarId};
use crate::span::Span;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Index of a basic block within one procedure's CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Unique id of a loop unit (program-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// A resolved expression: names replaced by ids, constants inlined.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A literal value (includes folded constants).
    Lit(Value),
    /// A scalar or whole-array variable read.
    Var(VarId),
    /// `base[index]`.
    Index {
        /// Array variable.
        base: VarId,
        /// Index expression.
        index: Box<RExpr>,
    },
    /// A user function call inside an expression.
    Call {
        /// Callee.
        callee: ProcId,
        /// Arguments, matching the callee's parameter modes.
        args: Vec<CallArg>,
    },
    /// A built-in function call.
    Intrinsic {
        /// Which intrinsic.
        which: Intrinsic,
        /// Its single argument.
        arg: Box<RExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<RExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<RExpr>,
        /// Right operand.
        rhs: Box<RExpr>,
    },
}

/// A resolved assignable place.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// Target variable.
    pub var: VarId,
    /// `Some(i)` for an array element.
    pub index: Option<Box<RExpr>>,
}

impl Place {
    /// A whole-variable place.
    pub fn var(var: VarId) -> Place {
        Place { var, index: None }
    }
}

/// One actual argument of a call.
#[derive(Debug, Clone, PartialEq)]
pub enum CallArg {
    /// Passed by value (`Value`/`In` modes).
    Value(RExpr),
    /// Passed by reference (`Var`/`Out` modes).
    Ref(Place),
}

/// A non-branching instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// What the instruction does.
    pub kind: InstrKind,
    /// The source statement this instruction came from.
    pub stmt: StmtId,
    /// Source span.
    pub span: Span,
}

/// Instruction kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrKind {
    /// `place := expr`.
    Assign {
        /// Target.
        lhs: Place,
        /// Source expression.
        rhs: RExpr,
    },
    /// A procedure call statement.
    Call {
        /// Callee.
        callee: ProcId,
        /// Arguments.
        args: Vec<CallArg>,
    },
    /// Read one value from the input stream into `target`.
    Read {
        /// Destination.
        target: Place,
    },
    /// Write values to the output stream.
    Write {
        /// Values to print.
        args: Vec<RExpr>,
        /// Whether to append a newline.
        newline: bool,
    },
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a boolean expression.
    Branch {
        /// Condition.
        cond: RExpr,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
        /// Originating statement (the `if`/`while`/`for`/`repeat`).
        stmt: StmtId,
    },
    /// Return from the procedure.
    Return,
    /// A non-local `goto` to a label owned by an enclosing procedure
    /// (§6's "global goto"; removed by the transformation phase).
    NonLocalGoto {
        /// The procedure lexically owning the label.
        owner: ProcId,
        /// Normalized label name.
        label: Name,
        /// The `goto` statement.
        stmt: StmtId,
    },
}

impl Terminator {
    /// Successor blocks within the same procedure.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return | Terminator::NonLocalGoto { .. } => vec![],
        }
    }

    /// The statement id attached to this terminator, if any.
    pub fn stmt(&self) -> Option<StmtId> {
        match self {
            Terminator::Branch { stmt, .. } | Terminator::NonLocalGoto { stmt, .. } => Some(*stmt),
            _ => None,
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// How the block ends.
    pub term: Terminator,
    /// Stack of loops containing this block, outermost first.
    pub loops: Vec<LoopId>,
}

/// A procedure's CFG.
#[derive(Debug, Clone)]
pub struct ProcCfg {
    /// Which procedure this is.
    pub proc: ProcId,
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// The entry block (always block 0).
    pub entry: BlockId,
    /// Blocks that labels resolve to (normalized label name → block),
    /// used to execute `goto` — including non-local gotos arriving from
    /// nested procedures.
    pub labels: HashMap<Name, BlockId>,
}

impl ProcCfg {
    /// The block with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Predecessor map (successor edges reversed).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, b) in self.iter() {
            for s in b.term.successors() {
                preds[s.0 as usize].push(id);
            }
        }
        preds
    }
}

/// Metadata about one loop unit.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The loop's id.
    pub id: LoopId,
    /// The procedure containing the loop.
    pub proc: ProcId,
    /// The source `while`/`for`/`repeat` statement.
    pub stmt: StmtId,
    /// The loop's header block (jumping here from inside the loop is a new
    /// iteration).
    pub header: BlockId,
}

/// The CFGs of all procedures in a module.
#[derive(Debug, Clone)]
pub struct ProgramCfg {
    /// Per-procedure CFGs, indexed by [`ProcId`].
    pub procs: Vec<ProcCfg>,
    /// All loop units.
    pub loops: Vec<LoopInfo>,
}

impl ProgramCfg {
    /// The CFG of one procedure.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn proc(&self, id: ProcId) -> &ProcCfg {
        &self.procs[id.0 as usize]
    }

    /// Loop metadata by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.0 as usize]
    }
}

fn const_to_value(c: &crate::ast::ConstValue) -> Value {
    match c {
        crate::ast::ConstValue::Int(n) => Value::Int(*n),
        crate::ast::ConstValue::Real(x) => Value::Real(*x),
        crate::ast::ConstValue::Bool(b) => Value::Bool(*b),
        crate::ast::ConstValue::Str(s) => match crate::sema::single_char(s) {
            Some(c) => Value::Char(c),
            None => Value::Str(s.clone()),
        },
    }
}

/// Lowers every procedure of a module to CFG form.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, cfg::lower};
/// let m = compile("program t; var x: integer; begin x := 1 end.")?;
/// let cfg = lower(&m);
/// assert_eq!(cfg.procs.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn lower(module: &Module) -> ProgramCfg {
    let mut loops = Vec::new();
    let mut procs = Vec::new();
    for info in &module.procs {
        let body = module.proc_body(info.id);
        let mut lw = Lowerer::new(module, info.id, &mut loops);
        let cfg = lw.lower_body(body);
        procs.push(cfg);
    }
    ProgramCfg { procs, loops }
}

struct Lowerer<'m> {
    module: &'m Module,
    proc: ProcId,
    blocks: Vec<BasicBlock>,
    cur: BlockId,
    /// Whether the current block already has a terminator.
    terminated: bool,
    label_blocks: HashMap<Name, BlockId>,
    loop_stack: Vec<LoopId>,
    loops: &'m mut Vec<LoopInfo>,
}

impl<'m> Lowerer<'m> {
    fn new(module: &'m Module, proc: ProcId, loops: &'m mut Vec<LoopInfo>) -> Self {
        Lowerer {
            module,
            proc,
            blocks: vec![BasicBlock {
                instrs: Vec::new(),
                term: Terminator::Return,
                loops: Vec::new(),
            }],
            cur: BlockId(0),
            terminated: false,
            label_blocks: HashMap::new(),
            loop_stack: Vec::new(),
            loops,
        }
    }

    fn lower_body(&mut self, body: &[Stmt]) -> ProcCfg {
        for s in body {
            self.stmt(s);
        }
        self.terminate(Terminator::Return);
        ProcCfg {
            proc: self.proc,
            blocks: std::mem::take(&mut self.blocks),
            entry: BlockId(0),
            labels: std::mem::take(&mut self.label_blocks),
        }
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            instrs: Vec::new(),
            term: Terminator::Return,
            loops: self.loop_stack.clone(),
        });
        id
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.terminated = false;
        // A label block created before entering/leaving loops gets its loop
        // context fixed to the context at switch time (the lexical one).
        self.blocks[b.0 as usize].loops = self.loop_stack.clone();
    }

    fn emit(&mut self, kind: InstrKind, stmt: StmtId, span: Span) {
        if self.terminated {
            // Unreachable code after a goto: park it in a fresh block.
            let b = self.new_block();
            self.switch_to(b);
        }
        self.blocks[self.cur.0 as usize]
            .instrs
            .push(Instr { kind, stmt, span });
    }

    /// Ends the current block with `term`, unless a `goto` already ended
    /// it. `gadt_analysis::effects` reads side effects off the AST by
    /// this same rule, so a change here needs one there.
    fn terminate(&mut self, term: Terminator) {
        if !self.terminated {
            self.blocks[self.cur.0 as usize].term = term;
            self.terminated = true;
        }
    }

    fn label_block(&mut self, key: &Name) -> BlockId {
        if let Some(&b) = self.label_blocks.get(key) {
            return b;
        }
        let b = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            instrs: Vec::new(),
            term: Terminator::Return,
            loops: Vec::new(),
        });
        self.label_blocks.insert(key.clone(), b);
        b
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Assign { lhs, rhs } => {
                let place = self.place_of_lvalue(lhs);
                let rhs = self.expr(rhs);
                self.emit(InstrKind::Assign { lhs: place, rhs }, s.id, s.span);
            }
            StmtKind::Call { args, .. } => {
                let callee = self.module.call_res[&s.id];
                let cargs = self.call_args(callee, args);
                self.emit(
                    InstrKind::Call {
                        callee,
                        args: cargs,
                    },
                    s.id,
                    s.span,
                );
            }
            StmtKind::Compound(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.expr(cond);
                let then_bb = self.new_block();
                let join = self.new_block();
                let else_bb = if else_branch.is_some() {
                    self.new_block()
                } else {
                    join
                };
                self.terminate(Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                    stmt: s.id,
                });
                self.switch_to(then_bb);
                self.stmt(then_branch);
                self.terminate(Terminator::Jump(join));
                if let Some(e) = else_branch {
                    self.switch_to(else_bb);
                    self.stmt(e);
                    self.terminate(Terminator::Jump(join));
                }
                self.switch_to(join);
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_arm,
            } => {
                // tmp := scrutinee; chain of equality branches.
                let tmp = self.module.case_temps[&s.id];
                let sval = self.expr(scrutinee);
                self.emit(
                    InstrKind::Assign {
                        lhs: Place::var(tmp),
                        rhs: sval,
                    },
                    s.id,
                    s.span,
                );
                let join = self.new_block();
                for arm in arms {
                    // cond: tmp = c1 or tmp = c2 …
                    let mut cond: Option<RExpr> = None;
                    for label in &arm.labels {
                        let lit = const_to_value(label);
                        let test = RExpr::Binary {
                            op: BinOp::Eq,
                            lhs: Box::new(RExpr::Var(tmp)),
                            rhs: Box::new(RExpr::Lit(lit)),
                        };
                        cond = Some(match cond {
                            None => test,
                            Some(acc) => RExpr::Binary {
                                op: BinOp::Or,
                                lhs: Box::new(acc),
                                rhs: Box::new(test),
                            },
                        });
                    }
                    let arm_bb = self.new_block();
                    let next_bb = self.new_block();
                    self.terminate(Terminator::Branch {
                        cond: cond.expect("case arm has at least one label"),
                        then_bb: arm_bb,
                        else_bb: next_bb,
                        stmt: s.id,
                    });
                    self.switch_to(arm_bb);
                    self.stmt(&arm.stmt);
                    self.terminate(Terminator::Jump(join));
                    self.switch_to(next_bb);
                }
                if let Some(e) = else_arm {
                    self.stmt(e);
                }
                self.terminate(Terminator::Jump(join));
                self.switch_to(join);
            }
            StmtKind::While { cond, body } => {
                let lid = self.begin_loop(s.id);
                let header = self.new_block_in_loop();
                self.loops[lid.0 as usize].header = header;
                self.terminate(Terminator::Jump(header));
                self.switch_to(header);
                let cond = self.expr(cond);
                let body_bb = self.new_block_in_loop();
                // Exit block lives outside the loop.
                self.loop_stack.pop();
                let exit = self.new_block();
                self.loop_stack.push(lid);
                self.terminate(Terminator::Branch {
                    cond,
                    then_bb: body_bb,
                    else_bb: exit,
                    stmt: s.id,
                });
                self.switch_to(body_bb);
                self.stmt(body);
                self.terminate(Terminator::Jump(header));
                self.end_loop();
                self.switch_to(exit);
            }
            StmtKind::Repeat { body, cond } => {
                let lid = self.begin_loop(s.id);
                let header = self.new_block_in_loop();
                self.loops[lid.0 as usize].header = header;
                self.terminate(Terminator::Jump(header));
                self.switch_to(header);
                for st in body {
                    self.stmt(st);
                }
                let cond = self.expr(cond);
                self.loop_stack.pop();
                let exit = self.new_block();
                self.loop_stack.push(lid);
                // `repeat … until cond` exits when cond is true.
                self.terminate(Terminator::Branch {
                    cond,
                    then_bb: exit,
                    else_bb: header,
                    stmt: s.id,
                });
                self.end_loop();
                self.switch_to(exit);
            }
            StmtKind::For {
                var: _,
                from,
                dir,
                to,
                body,
            } => {
                let ctrl = match self.module.res[&for_var_key(s.id)] {
                    NameRes::Var(v) => v,
                    _ => unreachable!("for-var resolution is always a variable"),
                };
                let limit = self.module.for_temps[&s.id];
                let from = self.expr(from);
                let to = self.expr(to);
                // limit := to; i := from  (bounds evaluated once)
                self.emit(
                    InstrKind::Assign {
                        lhs: Place::var(limit),
                        rhs: to,
                    },
                    s.id,
                    s.span,
                );
                self.emit(
                    InstrKind::Assign {
                        lhs: Place::var(ctrl),
                        rhs: from,
                    },
                    s.id,
                    s.span,
                );
                let lid = self.begin_loop(s.id);
                let header = self.new_block_in_loop();
                self.loops[lid.0 as usize].header = header;
                self.terminate(Terminator::Jump(header));
                self.switch_to(header);
                let cmp = match dir {
                    ForDir::To => BinOp::Le,
                    ForDir::Downto => BinOp::Ge,
                };
                let cond = RExpr::Binary {
                    op: cmp,
                    lhs: Box::new(RExpr::Var(ctrl)),
                    rhs: Box::new(RExpr::Var(limit)),
                };
                let body_bb = self.new_block_in_loop();
                self.loop_stack.pop();
                let exit = self.new_block();
                self.loop_stack.push(lid);
                self.terminate(Terminator::Branch {
                    cond,
                    then_bb: body_bb,
                    else_bb: exit,
                    stmt: s.id,
                });
                self.switch_to(body_bb);
                self.stmt(body);
                // i := i ± 1
                let step = match dir {
                    ForDir::To => BinOp::Add,
                    ForDir::Downto => BinOp::Sub,
                };
                self.emit(
                    InstrKind::Assign {
                        lhs: Place::var(ctrl),
                        rhs: RExpr::Binary {
                            op: step,
                            lhs: Box::new(RExpr::Var(ctrl)),
                            rhs: Box::new(RExpr::Lit(Value::Int(1))),
                        },
                    },
                    s.id,
                    s.span,
                );
                self.terminate(Terminator::Jump(header));
                self.end_loop();
                self.switch_to(exit);
            }
            StmtKind::Goto(_) => {
                let (owner, label) = self.module.goto_res[&s.id].clone();
                if owner == self.proc {
                    let target = self.label_block(&label);
                    self.terminate(Terminator::Jump(target));
                } else {
                    self.terminate(Terminator::NonLocalGoto {
                        owner,
                        label,
                        stmt: s.id,
                    });
                }
            }
            StmtKind::Labeled { label, stmt } => {
                let target = self.label_block(&label.key());
                self.terminate(Terminator::Jump(target));
                self.switch_to(target);
                self.stmt(stmt);
            }
            StmtKind::Read { args, .. } => {
                for lv in args {
                    let target = self.place_of_lvalue(lv);
                    self.emit(InstrKind::Read { target }, s.id, s.span);
                }
            }
            StmtKind::Write { args, newline } => {
                let args = args.iter().map(|e| self.expr(e)).collect();
                self.emit(
                    InstrKind::Write {
                        args,
                        newline: *newline,
                    },
                    s.id,
                    s.span,
                );
            }
        }
    }

    fn begin_loop(&mut self, stmt: StmtId) -> LoopId {
        let lid = LoopId(self.loops.len() as u32);
        self.loops.push(LoopInfo {
            id: lid,
            proc: self.proc,
            stmt,
            header: BlockId(0), // patched by caller
        });
        self.loop_stack.push(lid);
        lid
    }

    fn end_loop(&mut self) {
        self.loop_stack.pop();
    }

    fn new_block_in_loop(&mut self) -> BlockId {
        self.new_block()
    }

    fn place_of_lvalue(&mut self, lv: &crate::ast::LValue) -> Place {
        let var = match &self.module.res[&lv.id] {
            NameRes::Var(v) => *v,
            other => unreachable!("lvalue resolved to non-variable {other:?}"),
        };
        let index = lv.index.as_ref().map(|e| Box::new(self.expr(e)));
        Place { var, index }
    }

    fn call_args(&mut self, callee: ProcId, args: &[Expr]) -> Vec<CallArg> {
        let params = self.module.proc(callee).params.clone();
        params
            .iter()
            .zip(args)
            .map(|(p, a)| {
                let mode = self
                    .module
                    .var(*p)
                    .param_mode()
                    .expect("callee param has a mode");
                if mode.is_reference() {
                    CallArg::Ref(self.place_of_arg(a))
                } else {
                    CallArg::Value(self.expr(a))
                }
            })
            .collect()
    }

    fn place_of_arg(&mut self, e: &Expr) -> Place {
        match &e.kind {
            ExprKind::Name(_) => match &self.module.res[&e.id] {
                NameRes::Var(v) => Place::var(*v),
                other => unreachable!("reference arg resolved to {other:?}"),
            },
            ExprKind::Index { index, .. } => match &self.module.res[&e.id] {
                NameRes::Var(v) => Place {
                    var: *v,
                    index: Some(Box::new(self.expr(index))),
                },
                other => unreachable!("reference arg resolved to {other:?}"),
            },
            other => unreachable!("reference arg is not an lvalue: {other:?}"),
        }
    }

    fn expr(&mut self, e: &Expr) -> RExpr {
        match &e.kind {
            ExprKind::IntLit(n) => RExpr::Lit(Value::Int(*n)),
            ExprKind::RealLit(x) => RExpr::Lit(Value::Real(*x)),
            ExprKind::BoolLit(b) => RExpr::Lit(Value::Bool(*b)),
            ExprKind::StrLit(s) => {
                if s.chars().count() == 1 {
                    RExpr::Lit(Value::Char(s.chars().next().expect("nonempty")))
                } else {
                    RExpr::Lit(Value::Str(s.clone()))
                }
            }
            ExprKind::Name(_) => match &self.module.res[&e.id] {
                NameRes::Var(v) => RExpr::Var(*v),
                NameRes::Const(value) => RExpr::Lit(value.clone()),
                NameRes::Proc(pid) => RExpr::Call {
                    callee: *pid,
                    args: vec![],
                },
                NameRes::Intrinsic(_) => unreachable!("bare intrinsic name"),
            },
            ExprKind::Index { index, .. } => match &self.module.res[&e.id] {
                NameRes::Var(v) => RExpr::Index {
                    base: *v,
                    index: Box::new(self.expr(index)),
                },
                other => unreachable!("index base resolved to {other:?}"),
            },
            ExprKind::Call { args, .. } => match self.module.res[&e.id].clone() {
                NameRes::Proc(pid) => RExpr::Call {
                    callee: pid,
                    args: self.call_args(pid, args),
                },
                NameRes::Intrinsic(which) => RExpr::Intrinsic {
                    which,
                    arg: Box::new(self.expr(&args[0])),
                },
                other => unreachable!("call resolved to {other:?}"),
            },
            ExprKind::Unary { op, operand } => RExpr::Unary {
                op: *op,
                operand: Box::new(self.expr(operand)),
            },
            ExprKind::Binary { op, lhs, rhs } => RExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
        }
    }
}

impl RExpr {
    /// Collects every variable read by this expression (array reads count
    /// the base variable plus index uses; calls count their value-argument
    /// uses and reference arguments' index uses).
    pub fn collect_uses(&self, out: &mut Vec<VarId>) {
        match self {
            RExpr::Lit(_) => {}
            RExpr::Var(v) => out.push(*v),
            RExpr::Index { base, index } => {
                out.push(*base);
                index.collect_uses(out);
            }
            RExpr::Call { args, .. } => {
                for a in args {
                    match a {
                        CallArg::Value(e) => e.collect_uses(out),
                        CallArg::Ref(p) => {
                            // The callee may read through Var-mode refs;
                            // conservatively count the base as used.
                            out.push(p.var);
                            if let Some(i) = &p.index {
                                i.collect_uses(out);
                            }
                        }
                    }
                }
            }
            RExpr::Intrinsic { arg, .. } => arg.collect_uses(out),
            RExpr::Unary { operand, .. } => operand.collect_uses(out),
            RExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_uses(out);
                rhs.collect_uses(out);
            }
        }
    }

    /// Collects the callees of every function call inside this expression.
    pub fn collect_calls(&self, out: &mut Vec<ProcId>) {
        match self {
            RExpr::Call { callee, args } => {
                out.push(*callee);
                for a in args {
                    if let CallArg::Value(e) = a {
                        e.collect_calls(out);
                    } else if let CallArg::Ref(p) = a {
                        if let Some(i) = &p.index {
                            i.collect_calls(out);
                        }
                    }
                }
            }
            RExpr::Index { index, .. } => index.collect_calls(out),
            RExpr::Intrinsic { arg, .. } => arg.collect_calls(out),
            RExpr::Unary { operand, .. } => operand.collect_calls(out),
            RExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_calls(out);
                rhs.collect_calls(out);
            }
            RExpr::Lit(_) | RExpr::Var(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sema::{compile, MAIN_PROC};

    fn cfg_of(src: &str) -> (Module, ProgramCfg) {
        let m = compile(src).expect("compile");
        let c = lower(&m);
        (m, c)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, c) = cfg_of("program t; var x: integer; begin x := 1; x := x + 1 end.");
        let main = c.proc(MAIN_PROC);
        assert_eq!(main.blocks.len(), 1);
        assert_eq!(main.blocks[0].instrs.len(), 2);
        assert_eq!(main.blocks[0].term, Terminator::Return);
    }

    #[test]
    fn if_produces_diamond() {
        let (_, c) = cfg_of(
            "program t; var x: integer;
             begin if x = 0 then x := 1 else x := 2 end.",
        );
        let main = c.proc(MAIN_PROC);
        // entry + then + join + else
        assert_eq!(main.blocks.len(), 4);
        assert!(matches!(main.blocks[0].term, Terminator::Branch { .. }));
    }

    #[test]
    fn while_loop_blocks_are_tagged() {
        let (_, c) = cfg_of(
            "program t; var x: integer;
             begin while x < 10 do x := x + 1; x := 0 end.",
        );
        assert_eq!(c.loops.len(), 1);
        let main = c.proc(MAIN_PROC);
        let header = c.loops[0].header;
        assert_eq!(main.block(header).loops, vec![LoopId(0)]);
        // The exit block is not in the loop.
        let Terminator::Branch { else_bb, .. } = &main.block(header).term else {
            panic!("header must branch")
        };
        assert!(main.block(*else_bb).loops.is_empty());
    }

    #[test]
    fn for_loop_evaluates_limit_once() {
        let (m, c) = cfg_of(
            "program t; var i, n, s: integer;
             begin n := 3; for i := 1 to n do s := s + i end.",
        );
        let main = c.proc(MAIN_PROC);
        // First block must assign limit then control variable.
        let instrs = &main.blocks[0].instrs;
        assert!(instrs.len() >= 3);
        let InstrKind::Assign { lhs, .. } = &instrs[1].kind else {
            panic!()
        };
        assert_eq!(m.var(lhs.var).kind, crate::sema::VarKind::Temp);
    }

    #[test]
    fn nested_loops_stack() {
        let (_, c) = cfg_of(
            "program t; var i, j, s: integer;
             begin
               for i := 1 to 3 do
                 for j := 1 to 3 do
                   s := s + 1
             end.",
        );
        assert_eq!(c.loops.len(), 2);
        let main = c.proc(MAIN_PROC);
        let inner_header = c.loops[1].header;
        assert_eq!(main.block(inner_header).loops, vec![LoopId(0), LoopId(1)]);
    }

    #[test]
    fn local_goto_becomes_jump() {
        let (_, c) = cfg_of(
            "program t; label 9; var x: integer;
             begin x := 1; goto 9; x := 2; 9: x := 3 end.",
        );
        let main = c.proc(MAIN_PROC);
        let has_jump_to_label = main
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Jump(_)));
        assert!(has_jump_to_label);
        // `x := 2` is parked in an unreachable block but still present.
        let total_instrs: usize = main.blocks.iter().map(|b| b.instrs.len()).sum();
        assert_eq!(total_instrs, 3);
    }

    #[test]
    fn nonlocal_goto_becomes_special_terminator() {
        let (m, c) = cfg_of(crate::testprogs::SECTION6_GOTO);
        let q = m.proc_by_name("q").unwrap();
        let has_nonlocal = c
            .proc(q)
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::NonLocalGoto { .. }));
        assert!(has_nonlocal);
    }

    #[test]
    fn call_args_follow_modes() {
        let (m, c) = cfg_of(
            "program t; var x, y: integer;
             procedure p(a: integer; var b: integer); begin b := a end;
             begin p(x + 1, y) end.",
        );
        let main = c.proc(MAIN_PROC);
        let InstrKind::Call { callee, args } = &main.blocks[0].instrs[0].kind else {
            panic!()
        };
        assert_eq!(*callee, m.proc_by_name("p").unwrap());
        assert!(matches!(args[0], CallArg::Value(_)));
        assert!(matches!(args[1], CallArg::Ref(_)));
    }

    #[test]
    fn constants_are_inlined() {
        let (_, c) = cfg_of("program t; const k = 5; var x: integer; begin x := k end.");
        let main = c.proc(MAIN_PROC);
        let InstrKind::Assign { rhs, .. } = &main.blocks[0].instrs[0].kind else {
            panic!()
        };
        assert_eq!(*rhs, RExpr::Lit(Value::Int(5)));
    }

    #[test]
    fn read_splits_per_target() {
        let (_, c) = cfg_of("program t; var x, y: integer; begin read(x, y) end.");
        let main = c.proc(MAIN_PROC);
        assert_eq!(main.blocks[0].instrs.len(), 2);
        assert!(main.blocks[0]
            .instrs
            .iter()
            .all(|i| matches!(i.kind, InstrKind::Read { .. })));
    }

    #[test]
    fn collect_uses_finds_nested_reads() {
        let (m, c) = cfg_of(
            "program t; var a: array[1..5] of integer; i, x: integer;
             begin x := a[i + 1] * 2 end.",
        );
        let main = c.proc(MAIN_PROC);
        let InstrKind::Assign { rhs, .. } = &main.blocks[0].instrs[0].kind else {
            panic!()
        };
        let mut uses = Vec::new();
        rhs.collect_uses(&mut uses);
        let a = m.var_in_scope(MAIN_PROC, "a").unwrap();
        let i = m.var_in_scope(MAIN_PROC, "i").unwrap();
        assert!(uses.contains(&a));
        assert!(uses.contains(&i));
    }

    #[test]
    fn repeat_branches_back_on_false() {
        let (_, c) = cfg_of(
            "program t; var x: integer;
             begin x := 0; repeat x := x + 1 until x = 3 end.",
        );
        assert_eq!(c.loops.len(), 1);
        let main = c.proc(MAIN_PROC);
        let header = c.loops[0].header;
        // Some block in the loop branches with else → header.
        let branches_back = main
            .blocks
            .iter()
            .any(|b| matches!(&b.term, Terminator::Branch { else_bb, .. } if *else_bb == header));
        assert!(branches_back);
    }

    #[test]
    fn sqrtest_lowers_fully() {
        let (m, c) = cfg_of(crate::testprogs::SQRTEST);
        assert_eq!(c.procs.len(), m.procs.len());
        assert_eq!(c.loops.len(), 1); // the for-loop in arrsum
        let arrsum = m.proc_by_name("arrsum").unwrap();
        assert_eq!(c.loops[0].proc, arrsum);
    }
}
