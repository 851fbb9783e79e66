//! Differential checking of generated programs.
//!
//! Every corpus program goes through the full pipeline twice — original
//! and §6-transformed — and the harness asserts the properties the
//! paper's transformation claims:
//!
//! 1. **No front-end crash**: lexing, parsing, sema, transformation and
//!    both interpreter runs must return `Ok`/`Err`, never panic.
//! 2. **Semantic preservation**: the transformed program, on the same
//!    input, produces byte-identical output (each generated program ends
//!    by dumping every global, so state divergence is observable).
//! 3. **Slice soundness** (after Ricciotti et al., "slices that explain
//!    their work"): for every global, the backward dynamic slice from
//!    its final value, printed and re-run on the same input, must
//!    reproduce that value.
//!
//! The transformation's own postcondition is checked too: no procedure
//! of the transformed program but the main body may keep a global side
//! effect (a non-local read, write or `goto`), as
//! [`Effects::compute`] reads it.
//!
//! A violation of any of these is a [`Divergence`], addressed by the
//! generating `(seed, config)` pair; [`run_sweep`] additionally shrinks
//! each divergent program to a minimal reproducer.
//!
//! 4. **Engine agreement** (the third differential leg): the transformed
//!    program re-runs on the bytecode VM (`gadt-vm`), and its output,
//!    step count, final globals and full monitor-event digest must match
//!    the tree-walking interpreter's bit for bit.

use crate::gen::{generate, GenConfig, GeneratedProgram};
use crate::shrink::shrink_source;
use gadt::session;
use gadt_analysis::effects::Effects;
use gadt_exec::BatchExecutor;
use gadt_obs::Recorder;
use gadt_pascal::ast::{Program, Stmt, StmtId, StmtKind};
use gadt_pascal::cfg::lower;
use gadt_pascal::interp::{Interpreter, Limits, Monitor, Outcome};
use gadt_pascal::pretty::print_slice;
use gadt_pascal::sema::{compile, Module, MAIN_PROC};
use gadt_vm::conformance::EventHasher;
use gadt_vm::{Engine, PreparedEngine};
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Differential harness knobs.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Interpreter step budget per run (corpus programs terminate well
    /// under this; exceeding it is a divergence, not a hang).
    pub max_steps: u64,
    /// Whether to run the slice-soundness replay check.
    pub check_slices: bool,
    /// Whether to re-run the transformed program on the bytecode VM and
    /// compare output, steps, globals and the event-stream digest.
    pub check_vm: bool,
    /// Whether [`run_sweep`] shrinks divergent programs.
    pub shrink: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            max_steps: 2_000_000,
            check_slices: true,
            check_vm: true,
            shrink: true,
        }
    }
}

/// Where in the pipeline a divergence was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DivergenceKind {
    /// A panic escaped some pipeline stage.
    Panic,
    /// The generated program failed to compile (lexer/parser/sema
    /// rejected it) — a generator or front-end bug either way.
    CompileError,
    /// The *original* program hit a runtime error; the generator
    /// guarantees clean termination, so this is a finding.
    OriginalRunError,
    /// The transformation returned an error on a program it should
    /// handle.
    TransformError,
    /// A procedure of the transformed program other than the main body
    /// still has a global side effect (§6's postcondition).
    ResidualSideEffect,
    /// The transformed program hit a runtime error the original did not.
    TransformedRunError,
    /// Original and transformed outputs differ.
    OutputMismatch,
    /// The bytecode VM disagreed with the tree-walking interpreter on
    /// the same transformed program (output, steps, globals or event
    /// stream).
    VmDivergence,
    /// A dynamic slice failed the soundness replay check.
    SliceUnsound,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::Panic => "panic",
            DivergenceKind::CompileError => "compile-error",
            DivergenceKind::OriginalRunError => "original-run-error",
            DivergenceKind::TransformError => "transform-error",
            DivergenceKind::ResidualSideEffect => "residual-side-effect",
            DivergenceKind::TransformedRunError => "transformed-run-error",
            DivergenceKind::OutputMismatch => "output-mismatch",
            DivergenceKind::VmDivergence => "vm-divergence",
            DivergenceKind::SliceUnsound => "slice-unsound",
        };
        f.write_str(s)
    }
}

/// One detected divergence.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// What went wrong.
    pub kind: DivergenceKind,
    /// Pipeline stage (`compile`, `transform`, `run`, `slice:<var>`, …).
    pub stage: String,
    /// Human-readable detail (error/panic message or output diff).
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.kind, self.stage, self.detail)
    }
}

/// The verdict for one program.
#[derive(Debug, Clone)]
pub struct ProgramVerdict {
    /// The generating seed.
    pub seed: u64,
    /// `None` when the program passed every check.
    pub divergence: Option<Divergence>,
    /// Minimized source (filled by [`run_sweep`] when shrinking is on).
    pub minimized: Option<String>,
}

impl ProgramVerdict {
    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Aggregate result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// First seed checked.
    pub start_seed: u64,
    /// Programs checked.
    pub checked: usize,
    /// Programs with no divergence.
    pub clean: usize,
    /// Verdicts of divergent programs, in seed order.
    pub divergent: Vec<ProgramVerdict>,
}

impl SweepReport {
    /// One-line human summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "sweep: seeds {}..{}: {} checked, {} clean, {} divergent",
            self.start_seed,
            self.start_seed + self.checked as u64,
            self.checked,
            self.clean,
            self.divergent.len()
        );
        for v in &self.divergent {
            if let Some(d) = &v.divergence {
                s.push_str(&format!("\n  seed {}: {d}", v.seed));
            }
        }
        s
    }
}

/// Runs `f`, converting an escaped panic into a [`Divergence`].
fn guard<T>(stage: &str, f: impl FnOnce() -> Result<T, Divergence>) -> Result<T, Divergence> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Divergence {
                kind: DivergenceKind::Panic,
                stage: stage.to_string(),
                detail: msg,
            })
        }
    }
}

/// One-shot, monitor-free run on the default engine's fast path. The
/// original-run and slice-replay legs need only the outcome, and running
/// them on a different engine than the traced transformed run adds
/// engine diversity to the differential for free (errors are
/// byte-identical across engines, so verdicts are unchanged).
fn run_module(module: &Module, p: &GeneratedProgram, max_steps: u64) -> Result<Outcome, String> {
    let cfg = Arc::new(lower(module));
    let engine = PreparedEngine::new(module, &cfg, Engine::default());
    let limits = Limits {
        max_steps,
        ..Limits::default()
    };
    engine
        .run_fast(module, p.input.clone(), limits)
        .map_err(|e| e.to_string())
}

fn run_module_observed(
    module: &Module,
    p: &GeneratedProgram,
    max_steps: u64,
    monitor: &mut dyn Monitor,
) -> Result<Outcome, String> {
    let mut interp = Interpreter::new(module);
    interp.set_limits(Limits {
        max_steps,
        ..Limits::default()
    });
    interp.set_input(p.input.iter().cloned());
    interp.run_with(monitor).map_err(|e| e.to_string())
}

/// Statement ids of every `read` in the program — kept in printed
/// slices so the replay consumes the input stream at the same offsets.
fn read_stmts(program: &Program) -> BTreeSet<StmtId> {
    fn visit(stmt: &Stmt, acc: &mut BTreeSet<StmtId>) {
        if matches!(stmt.kind, StmtKind::Read { .. }) {
            acc.insert(stmt.id);
        }
        match &stmt.kind {
            StmtKind::Compound(body) | StmtKind::Repeat { body, .. } => {
                for s in body {
                    visit(s, acc);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit(then_branch, acc);
                if let Some(e) = else_branch {
                    visit(e, acc);
                }
            }
            StmtKind::Case { arms, else_arm, .. } => {
                for a in arms {
                    visit(&a.stmt, acc);
                }
                if let Some(e) = else_arm {
                    visit(e, acc);
                }
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => visit(body, acc),
            StmtKind::Labeled { stmt, .. } => visit(stmt, acc),
            _ => {}
        }
    }
    let mut acc = BTreeSet::new();
    for s in &program.block.body {
        visit(s, &mut acc);
    }
    acc
}

/// Runs every check on one program. Never panics: pipeline panics are
/// reported as [`DivergenceKind::Panic`].
pub fn check_program(p: &GeneratedProgram, config: &DiffConfig) -> ProgramVerdict {
    let divergence = check_inner(p, config).err();
    ProgramVerdict {
        seed: p.seed,
        divergence,
        minimized: None,
    }
}

fn check_inner(p: &GeneratedProgram, config: &DiffConfig) -> Result<(), Divergence> {
    // 1. Front end.
    let module = guard("compile", || {
        compile(&p.source).map_err(|e| Divergence {
            kind: DivergenceKind::CompileError,
            stage: "compile".into(),
            detail: e.to_string(),
        })
    })?;

    // 2. Original run.
    let original = guard("run-original", || {
        run_module(&module, p, config.max_steps).map_err(|detail| Divergence {
            kind: DivergenceKind::OriginalRunError,
            stage: "run-original".into(),
            detail,
        })
    })?;

    // 3. Transformation.
    let prepared = guard("transform", || {
        session::prepare(&module).map_err(|e| Divergence {
            kind: DivergenceKind::TransformError,
            stage: "transform".into(),
            detail: e.to_string(),
        })
    })?;

    // 3b. §6 postcondition: only the main body keeps global side effects.
    guard("transform-postcondition", || {
        residual_side_effect(&prepared.transformed.module)
    })?;

    // 4. Transformed run (event-hashed so the VM leg can compare the
    //    full monitor stream without a second reference run).
    let mut tree_hash = EventHasher::new();
    let transformed = guard("run-transformed", || {
        run_module_observed(
            &prepared.transformed.module,
            p,
            config.max_steps,
            &mut tree_hash,
        )
        .map_err(|detail| Divergence {
            kind: DivergenceKind::TransformedRunError,
            stage: "run-transformed".into(),
            detail,
        })
    })?;

    // 5. Output agreement.
    if original.output_text() != transformed.output_text() {
        return Err(Divergence {
            kind: DivergenceKind::OutputMismatch,
            stage: "compare-output".into(),
            detail: format!(
                "original:\n{}\ntransformed:\n{}",
                original.output_text(),
                transformed.output_text()
            ),
        });
    }

    // 5b. Third differential leg: the same transformed module on the
    //     bytecode VM must match the tree-walker bit for bit.
    if config.check_vm {
        check_vm(
            p,
            &prepared.transformed.module,
            &transformed,
            &tree_hash,
            config,
        )?;
    }

    // 6. Slice soundness over every global's final value.
    if config.check_slices {
        check_slices(p, &prepared, &transformed, config)?;
    }
    Ok(())
}

/// Fails when a procedure other than the main body of the transformed
/// `module` still reads, writes or jumps to something non-local.
fn residual_side_effect(module: &Module) -> Result<(), Divergence> {
    let fx = Effects::compute(module);
    match module
        .procs
        .iter()
        .find(|p| p.id != MAIN_PROC && fx.has_global_side_effects(p.id))
    {
        None => Ok(()),
        Some(p) => Err(Divergence {
            kind: DivergenceKind::ResidualSideEffect,
            stage: "transform-postcondition".into(),
            detail: format!("`{}` keeps global side effects: {:?}", p.name, fx.of(p.id)),
        }),
    }
}

/// Runs the transformed module on the bytecode VM and compares every
/// observable — output, step count, final globals, and the FNV digest of
/// the full `Debug`-rendered event stream — against the tree-walker run.
fn check_vm(
    p: &GeneratedProgram,
    tmodule: &Module,
    tree_out: &Outcome,
    tree_hash: &EventHasher,
    config: &DiffConfig,
) -> Result<(), Divergence> {
    guard("run-vm", || {
        let diverged = |detail: String| Divergence {
            kind: DivergenceKind::VmDivergence,
            stage: "run-vm".into(),
            detail,
        };
        let cfg = Arc::new(lower(tmodule));
        let engine = PreparedEngine::new(tmodule, &cfg, Engine::Vm);
        let limits = Limits {
            max_steps: config.max_steps,
            ..Limits::default()
        };
        let mut vm_hash = EventHasher::new();
        let vm_out = engine
            .run_with(tmodule, p.input.clone(), limits, &mut vm_hash)
            .map_err(|e| diverged(format!("vm failed where the tree-walker succeeded: {e}")))?;
        if vm_out.output_text() != tree_out.output_text() {
            return Err(diverged(format!(
                "output differs:\ntree:\n{}\nvm:\n{}",
                tree_out.output_text(),
                vm_out.output_text()
            )));
        }
        if vm_out.steps != tree_out.steps {
            return Err(diverged(format!(
                "step count differs: tree {} vs vm {}",
                tree_out.steps, vm_out.steps
            )));
        }
        if vm_out.globals != tree_out.globals {
            return Err(diverged(format!(
                "final globals differ:\ntree: {:?}\nvm:   {:?}",
                tree_out.globals, vm_out.globals
            )));
        }
        if vm_hash.digest() != tree_hash.digest() {
            return Err(diverged(format!(
                "event streams differ: tree digest {:016x} over {} events, \
                 vm digest {:016x} over {} events",
                tree_hash.digest(),
                tree_hash.count(),
                vm_hash.digest(),
                vm_hash.count()
            )));
        }
        Ok(())
    })
}

fn check_slices(
    p: &GeneratedProgram,
    prepared: &session::PreparedProgram,
    transformed_outcome: &Outcome,
    config: &DiffConfig,
) -> Result<(), Divergence> {
    let limits = Limits {
        max_steps: config.max_steps,
        ..Limits::default()
    };
    let traced = guard("trace", || {
        session::run_traced_limited(prepared, p.input.iter().cloned(), limits).map_err(|e| {
            Divergence {
                kind: DivergenceKind::TransformedRunError,
                stage: "trace".into(),
                detail: e.to_string(),
            }
        })
    })?;
    let tmodule = &prepared.transformed.module;
    let reads = read_stmts(&tmodule.program);
    let globals: Vec<gadt_pascal::name::Name> = tmodule
        .vars_of(gadt_pascal::sema::MAIN_PROC)
        .filter(|v| v.kind == gadt_pascal::sema::VarKind::Global)
        .map(|v| v.name.clone())
        .collect();
    for name in globals {
        let stage = format!("slice:{name}");
        guard(&stage, || {
            let Some(mut slice) = gadt_analysis::dynamic_slice_final(tmodule, &traced.trace, &name)
            else {
                return Ok(()); // never written: final value is the zero init
            };
            // The localization slice is termination-insensitive by
            // design; replay additionally needs the closure that keeps
            // loop-exit drivers and all instances of kept statements.
            gadt_analysis::close_for_replay(tmodule, &traced.trace, &mut slice);
            let mut keep = slice.stmts.clone();
            keep.extend(reads.iter().copied());
            let sliced_src = print_slice(&tmodule.program, &keep);
            let unsound = |detail: String| Divergence {
                kind: DivergenceKind::SliceUnsound,
                stage: stage.clone(),
                detail,
            };
            let smodule = compile(&sliced_src)
                .map_err(|e| unsound(format!("slice does not recompile: {e}\n{sliced_src}")))?;
            let replay = run_module(&smodule, p, config.max_steps)
                .map_err(|e| unsound(format!("slice replay failed: {e}\n{sliced_src}")))?;
            let want = transformed_outcome.global(&name).cloned();
            let got = replay.global(&name).cloned();
            if want != got {
                return Err(unsound(format!(
                    "final value of {name}: full run {want:?}, slice replay {got:?}\n{sliced_src}"
                )));
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Generates and checks `count` programs starting at `start_seed`,
/// fanning the checks over the deterministic batch executor and
/// shrinking every divergent program (when `config.shrink`). The report
/// is identical at any thread count.
pub fn run_sweep(
    start_seed: u64,
    count: usize,
    gen_config: &GenConfig,
    config: &DiffConfig,
    threads: usize,
) -> SweepReport {
    run_sweep_observed(
        start_seed,
        count,
        gen_config,
        config,
        threads,
        &mut Recorder::disabled(),
    )
}

/// [`run_sweep`] with instrumentation: counters for programs checked,
/// clean programs, and per-kind divergence tallies land in `rec`'s
/// journal under a `diff_sweep` span.
pub fn run_sweep_observed(
    start_seed: u64,
    count: usize,
    gen_config: &GenConfig,
    config: &DiffConfig,
    threads: usize,
    rec: &mut Recorder,
) -> SweepReport {
    let token = rec.enter("diff_sweep");
    let seeds: Vec<u64> = (0..count as u64).map(|i| start_seed + i).collect();
    let pool = BatchExecutor::new(threads);
    let verdicts = pool.run(seeds, |_, seed| {
        let p = generate(seed, gen_config);
        let mut v = check_program(&p, config);
        if config.shrink {
            if let Some(d) = &v.divergence {
                v.minimized = Some(shrink_source(&p, d.kind, config));
            }
        }
        v
    });
    let checked = verdicts.len();
    let divergent: Vec<ProgramVerdict> = verdicts.into_iter().filter(|v| !v.is_clean()).collect();
    let clean = checked - divergent.len();
    rec.add("programs_checked", checked as u64);
    rec.add("programs_clean", clean as u64);
    rec.add("programs_divergent", divergent.len() as u64);
    for v in &divergent {
        if let Some(d) = &v.divergence {
            rec.incr(&format!("divergence_{}", d.kind));
        }
    }
    rec.exit(token);
    SweepReport {
        start_seed,
        checked,
        clean,
        divergent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_pascal::testprogs;

    #[test]
    fn untransformed_global_access_is_a_residual_side_effect() {
        let m = compile(testprogs::SECTION6_GLOBALS).expect("fixture compiles");
        let d = residual_side_effect(&m).expect_err("p reads and writes globals");
        assert_eq!(d.kind, DivergenceKind::ResidualSideEffect);
        assert!(d.detail.starts_with("`p`"), "{}", d.detail);
        let t = gadt_transform::transform(&m).expect("fixture transforms");
        assert!(residual_side_effect(&t.module).is_ok());
    }
}
