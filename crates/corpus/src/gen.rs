//! Seeded, grammar-directed Pascal program generator.
//!
//! Every program is a pure function of `(seed, GenConfig)` — the only
//! randomness is the std-only [`Lcg`] — and is **well-typed and
//! terminating by construction**:
//!
//! * all variables are `integer`; conditions are fully parenthesized
//!   relational/logical forms, so no type or precedence surprises;
//! * every `while`/`repeat` loop is governed by a dedicated *fuel*
//!   variable that the loop scaffolding (and nothing else) decrements,
//!   and every `for` loop has a span-bounded header, so iteration counts
//!   are bounded;
//! * every call passes a strictly decreasing depth argument `d` and is
//!   guarded by `if d > 0`, so call chains (including recursion and
//!   mutual recursion through nesting) bottom out;
//! * every arithmetic result is range-limited by a `mod` wrapper and
//!   divisors are nonzero literals, so no overflow or division by zero;
//! * `read` statements appear only in the main body's straight-line
//!   prefix, and the generator supplies exactly that many input values;
//! * `goto`s are forward-only: loop-exit gotos target a landing label at
//!   the end of the owning body, and non-local gotos target landing
//!   labels of enclosing procedures (each label number globally unique,
//!   so no label capture).
//!
//! The constructs deliberately exercised are exactly what the §4/§6
//! transformations must preserve: global side effects in (possibly
//! deeply nested) procedures, gotos out of loops, non-local gotos out of
//! nested procedures, nested loops, procedure nesting, and recursion.
//!
//! Aliasing discipline: globals are split into a *shared* half that
//! procedures may read and write by name (this is what phase A rewrites
//! into `in`/`out` parameters) and a *channel* half that only the main
//! body touches and passes by `var` — so a `var` argument can never
//! alias a global the callee also accesses non-locally, which would have
//! ill-defined semantics under the paper's transformation.

use crate::lcg::Lcg;
use gadt_exec::BatchExecutor;
use gadt_pascal::idhash::{fnv1a, FNV1A_OFFSET};
use gadt_pascal::value::Value;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Size/shape knobs of the generator. All bounds are inclusive maxima;
/// the generator draws actual sizes per program.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of global variables (≥ 2; split into shared + channel).
    pub globals: usize,
    /// Maximum top-level procedure/function declarations.
    pub top_procs: usize,
    /// Maximum nested procedure declarations per top-level procedure.
    pub nested_per_proc: usize,
    /// Maximum statements drawn per body.
    pub max_stmts: usize,
    /// Maximum statement nesting depth (if/loop bodies).
    pub max_stmt_depth: usize,
    /// Maximum expression tree depth.
    pub max_expr_depth: usize,
    /// Maximum fuel (iteration budget) of `while`/`repeat` loops.
    pub max_fuel: i64,
    /// Maximum call-depth budget the main body hands to callees.
    pub max_call_depth: i64,
    /// Maximum `read` statements in the main body prefix.
    pub reads: usize,
    /// Whether to generate gotos (loop-exit and non-local).
    pub gotos: bool,
    /// Whether procedures/functions may call themselves.
    pub recursion: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            globals: 4,
            top_procs: 3,
            nested_per_proc: 2,
            max_stmts: 6,
            max_stmt_depth: 2,
            max_expr_depth: 3,
            max_fuel: 4,
            max_call_depth: 3,
            reads: 2,
            gotos: true,
            recursion: true,
        }
    }
}

/// One generated program: source text plus the exact input stream its
/// `read` statements consume.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedProgram {
    /// The generating seed.
    pub seed: u64,
    /// Program name (`gen<seed>`).
    pub name: String,
    /// Pascal source text.
    pub source: String,
    /// Input values, one per generated `read`.
    pub input: Vec<Value>,
}

/// Callable signature visible to the statement generator.
#[derive(Debug, Clone)]
struct ProcSig {
    name: String,
    value_params: usize,
    var_params: usize,
    is_function: bool,
    /// Shared globals this callable (transitively) reads or writes.
    touches: BTreeSet<String>,
}

impl ProcSig {
    fn header(&self) -> String {
        let mut h = String::new();
        let kw = if self.is_function {
            "function"
        } else {
            "procedure"
        };
        let _ = write!(h, "{kw} {}(d: integer", self.name);
        for i in 0..self.value_params {
            let _ = write!(h, "; a{i}: integer");
        }
        for i in 0..self.var_params {
            let _ = write!(h, "; var v{i}: integer");
        }
        h.push(')');
        if self.is_function {
            h.push_str(": integer");
        }
        h.push(';');
        h
    }
}

/// Per-body generation scope.
struct Scope {
    /// Names usable in expressions.
    readable: Vec<String>,
    /// Names assignable by generated statements (never fuel/loop vars).
    writable: Vec<String>,
    /// Candidates for `var` arguments at call sites.
    var_arg_pool: Vec<String>,
    /// Procedures callable as statements.
    callables: Vec<ProcSig>,
    /// Functions callable inside expressions.
    functions: Vec<ProcSig>,
    /// This body's landing label (goto target), if any.
    exit_label: Option<u32>,
    /// Landing labels of enclosing procedures (non-local goto targets).
    outer_labels: Vec<u32>,
    /// Function bodies stay pure: no IO, no gotos, no procedure calls.
    in_function: bool,
    /// Whether a depth parameter `d` is in scope (false in main).
    has_depth: bool,
    /// Locals to declare (accumulated while generating).
    locals: Vec<String>,
    /// Shared globals read or written so far.
    touches: BTreeSet<String>,
    /// Loop-nesting depth at the current generation point. Calls inside
    /// loops multiply by the iteration count, so call emission is cost-
    /// bounded: halved depth inside one loop, no calls under two.
    loop_depth: u32,
    fuel_n: u32,
    loop_n: u32,
    local_n: u32,
}

impl Scope {
    fn fresh_local(&mut self, prefix: &str) -> String {
        let n = match prefix {
            "f" => {
                self.fuel_n += 1;
                self.fuel_n - 1
            }
            "i" => {
                self.loop_n += 1;
                self.loop_n - 1
            }
            _ => {
                self.local_n += 1;
                self.local_n - 1
            }
        };
        let name = format!("{prefix}{n}");
        self.locals.push(name.clone());
        name
    }
}

/// Generator state shared across the whole program.
struct Gen {
    rng: Lcg,
    config: GenConfig,
    /// Globals procedures may name directly.
    shared_globals: Vec<String>,
    /// Globals only the main body touches (var-argument pool).
    channel_globals: Vec<String>,
    next_label: u32,
    next_proc: u32,
    next_fn: u32,
    input: Vec<Value>,
}

impl Gen {
    fn fresh_label(&mut self) -> u32 {
        self.next_label += 1;
        self.next_label
    }

    /// Marks a name as touched if it is a shared global.
    fn touch(&self, sc: &mut Scope, name: &str) {
        if self.shared_globals.iter().any(|g| g == name) {
            sc.touches.insert(name.to_string());
        }
    }
}

const MODULI: [i64; 6] = [97, 101, 811, 1009, 4999, 9973];
const DIVISORS: [i64; 6] = [2, 3, 5, 7, 11, 19];

/// Generates one program from a seed.
pub fn generate(seed: u64, config: &GenConfig) -> GeneratedProgram {
    let mut config = config.clone();
    config.globals = config.globals.max(2);
    let n = config.globals;
    let shared: Vec<String> = (0..n.div_ceil(2)).map(|i| format!("g{i}")).collect();
    let channel: Vec<String> = (n.div_ceil(2)..n).map(|i| format!("g{i}")).collect();
    let mut g = Gen {
        rng: Lcg::new(seed),
        config,
        shared_globals: shared,
        channel_globals: channel,
        next_label: 0,
        next_proc: 0,
        next_fn: 0,
        input: Vec::new(),
    };

    let main_label = if g.config.gotos && g.rng.chance(1, 2) {
        Some(g.fresh_label())
    } else {
        None
    };

    // Top-level declarations, in declaration order (callables accumulate
    // so later bodies can call earlier ones).
    let mut decls: Vec<String> = Vec::new();
    let mut callables: Vec<ProcSig> = Vec::new();
    let mut functions: Vec<ProcSig> = Vec::new();
    let top = 1 + g.rng.below(g.config.top_procs.max(1) as u64) as usize;
    for _ in 0..top {
        let as_function = g.rng.chance(3, 10);
        let outer: Vec<u32> = main_label.into_iter().collect();
        let (text, sig) = gen_proc(&mut g, 1, &callables, &functions, &outer, as_function);
        decls.push(text);
        if sig.is_function {
            functions.push(sig);
        } else {
            callables.push(sig);
        }
    }

    // Main body scope: all globals readable/writable; channel globals
    // are the var-argument pool.
    let globals: Vec<String> = g
        .shared_globals
        .iter()
        .chain(g.channel_globals.iter())
        .cloned()
        .collect();
    let mut sc = Scope {
        readable: globals.clone(),
        writable: globals.clone(),
        var_arg_pool: g.channel_globals.clone(),
        callables,
        functions,
        exit_label: main_label,
        outer_labels: Vec::new(),
        in_function: false,
        has_depth: false,
        locals: Vec::new(),
        touches: BTreeSet::new(),
        loop_depth: 0,
        fuel_n: 0,
        loop_n: 0,
        local_n: 0,
    };

    let mut body: Vec<String> = Vec::new();
    // Straight-line prefix: reads and seeding assignments.
    let reads = g.rng.below(g.config.reads as u64 + 1) as usize;
    for _ in 0..reads {
        let target = g.rng.pick(&globals).clone();
        body.push(format!("read({target});"));
        let v = g.rng.range(-9, 99);
        g.input.push(Value::Int(v));
    }
    for gv in &globals {
        if g.rng.chance(3, 5) {
            let v = g.rng.range(-9, 99);
            body.push(format!("{gv} := {v};"));
        }
    }

    let n_stmts = 2 + g.rng.below(g.config.max_stmts.max(2) as u64 - 1) as usize;
    let depth = g.config.max_stmt_depth;
    for _ in 0..n_stmts {
        body.extend(gen_stmt(&mut g, &mut sc, depth, false));
    }

    // Landing label (non-local gotos from procedures arrive here), then
    // the final dump that makes any state divergence observable.
    if let Some(l) = main_label {
        body.push(format!("{l}: g0 := g0;"));
    }
    for gv in &globals {
        body.push(format!("writeln({gv});"));
    }

    // main generated no locals of its own: fuel and loop variables in
    // the main body live in the globals section.
    let mut source = String::new();
    let name = format!("gen{seed}");
    let _ = writeln!(source, "program {name};");
    if let Some(l) = main_label {
        let _ = writeln!(source, "label {l};");
    }
    let mut all_globals = globals.clone();
    all_globals.extend(sc.locals.iter().cloned());
    let _ = writeln!(source, "var {}: integer;", all_globals.join(", "));
    for d in &decls {
        source.push('\n');
        source.push_str(d);
    }
    source.push_str("\nbegin\n");
    for line in &body {
        let _ = writeln!(source, "  {line}");
    }
    source.push_str("end.\n");

    GeneratedProgram {
        seed,
        name,
        source,
        input: g.input,
    }
}

/// Generates `count` programs starting at `start_seed`, fanned out over
/// the deterministic batch executor (`threads` = 0 means all cores).
/// Each program depends only on its own seed, so the result is
/// byte-identical at any thread count.
pub fn generate_batch(
    start_seed: u64,
    count: usize,
    config: &GenConfig,
    threads: usize,
) -> Vec<GeneratedProgram> {
    let seeds: Vec<u64> = (0..count as u64).map(|i| start_seed + i).collect();
    let pool = BatchExecutor::new(threads);
    pool.run(seeds, |_, seed| generate(seed, config))
}

/// FNV-1a fingerprint of a corpus: hashes every program's source and
/// input stream. Pinned by the determinism tests.
pub fn corpus_fingerprint(programs: &[GeneratedProgram]) -> String {
    let mut hash = FNV1A_OFFSET;
    for p in programs {
        hash = fnv1a(hash, p.source.as_bytes());
        for v in &p.input {
            hash = fnv1a(hash, v.to_string().as_bytes());
            hash = fnv1a(hash, &[0]);
        }
    }
    format!("{hash:016x}")
}

/// One procedure or function declaration (recursively generating nested
/// procedures), returning its text and signature.
fn gen_proc(
    g: &mut Gen,
    level: usize,
    callables: &[ProcSig],
    functions: &[ProcSig],
    outer_labels: &[u32],
    as_function: bool,
) -> (String, ProcSig) {
    let name = if as_function {
        g.next_fn += 1;
        format!("q{}", g.next_fn - 1)
    } else {
        g.next_proc += 1;
        format!("p{}", g.next_proc - 1)
    };
    let mut sig = ProcSig {
        name: name.clone(),
        value_params: g.rng.below(3) as usize,
        var_params: if as_function {
            0
        } else {
            g.rng.below(3) as usize
        },
        is_function: as_function,
        touches: BTreeSet::new(),
    };

    let exit_label = if !as_function && g.config.gotos && g.rng.chance(2, 3) {
        Some(g.fresh_label())
    } else {
        None
    };

    // Nested declarations (procedures only, one extra level).
    let mut nested_texts: Vec<String> = Vec::new();
    let mut nested_callables: Vec<ProcSig> = callables.to_vec();
    let mut nested_functions: Vec<ProcSig> = functions.to_vec();
    if g.config.recursion {
        // Visible for self/mutual recursion: the incomplete own signature
        // is enough (params are fixed before bodies are generated); its
        // `touches` is unioned in at the end by the caller of the cycle,
        // which is safe because nested callees never receive globals by
        // `var` anyway.
        if as_function {
            nested_functions.push(sig.clone());
        } else {
            nested_callables.push(sig.clone());
        }
    }
    let mut inner_labels: Vec<u32> = outer_labels.to_vec();
    if let Some(l) = exit_label {
        inner_labels.push(l);
    }
    if !as_function && level == 1 {
        let n = g.rng.below(g.config.nested_per_proc as u64 + 1) as usize;
        for _ in 0..n {
            let nested_fn = g.rng.chance(1, 4);
            let (text, nsig) = gen_proc(
                g,
                level + 1,
                &nested_callables,
                &nested_functions,
                &inner_labels,
                nested_fn,
            );
            sig.touches.extend(nsig.touches.iter().cloned());
            if nsig.is_function {
                nested_functions.push(nsig);
            } else {
                nested_callables.push(nsig);
            }
            nested_texts.push(text);
        }
    }

    // Scope for the body.
    let mut readable: Vec<String> = vec!["d".into()];
    let mut writable: Vec<String> = Vec::new();
    let mut var_arg_pool: Vec<String> = Vec::new();
    for i in 0..sig.value_params {
        readable.push(format!("a{i}"));
    }
    for i in 0..sig.var_params {
        readable.push(format!("v{i}"));
        writable.push(format!("v{i}"));
        var_arg_pool.push(format!("v{i}"));
    }
    if !as_function {
        for gv in &g.shared_globals.clone() {
            readable.push(gv.clone());
            writable.push(gv.clone());
        }
    } else {
        // Functions may read shared globals (phase A turns these into
        // `in` parameters) but never write them.
        for gv in &g.shared_globals.clone() {
            if g.rng.chance(1, 2) {
                readable.push(gv.clone());
            }
        }
    }
    let mut sc = Scope {
        readable,
        writable,
        var_arg_pool,
        callables: if as_function {
            Vec::new()
        } else {
            nested_callables
        },
        functions: nested_functions,
        exit_label,
        outer_labels: outer_labels.to_vec(),
        in_function: as_function,
        has_depth: true,
        locals: Vec::new(),
        touches: BTreeSet::new(),
        loop_depth: 0,
        fuel_n: 0,
        loop_n: 0,
        local_n: 0,
    };
    // Guarantee at least one plain local.
    let l0 = sc.fresh_local("l");
    sc.readable.push(l0.clone());
    sc.writable.push(l0);

    let n_stmts = 1 + g.rng.below(g.config.max_stmts.max(1) as u64) as usize;
    let depth = g.config.max_stmt_depth;
    let mut body: Vec<String> = Vec::new();
    for _ in 0..n_stmts {
        body.extend(gen_stmt(g, &mut sc, depth, false));
    }
    if as_function {
        // The result is always assigned on every path: an unconditional,
        // call-free final assignment.
        let e = gen_expr(g, &mut sc, g.config.max_expr_depth.min(2), false);
        let m = *g.rng.pick(&MODULI);
        body.push(format!("{name} := ({e}) mod {m};"));
    }
    if let Some(l) = exit_label {
        body.push(format!("{l}: l0 := l0;"));
    }

    sig.touches.extend(sc.touches.iter().cloned());

    let indent = "  ".repeat(level);
    let mut text = String::new();
    let _ = writeln!(text, "{indent}{}", sig.header());
    if let Some(l) = exit_label {
        let _ = writeln!(text, "{indent}label {l};");
    }
    if !sc.locals.is_empty() {
        let _ = writeln!(text, "{indent}var {}: integer;", sc.locals.join(", "));
    }
    for nt in &nested_texts {
        text.push_str(nt);
    }
    let _ = writeln!(text, "{indent}begin");
    for line in &body {
        let _ = writeln!(text, "{indent}  {line}");
    }
    let _ = writeln!(text, "{indent}end;");
    (text, sig)
}

/// One statement (possibly multi-line). `depth` is the remaining nesting
/// budget; `in_loop` enables loop-exit gotos.
fn gen_stmt(g: &mut Gen, sc: &mut Scope, depth: usize, in_loop: bool) -> Vec<String> {
    let roll = g.rng.below(100);
    match roll {
        // Plain assignment (possibly call-bearing).
        0..=29 => vec![gen_assign(g, sc)],
        // Conditional.
        30..=44 if depth > 0 => {
            let cond = gen_cond(g, sc, 1, false);
            let mut lines = vec![format!("if {cond} then begin")];
            let n = 1 + g.rng.below(2) as usize;
            for _ in 0..n {
                for l in gen_stmt(g, sc, depth - 1, in_loop) {
                    lines.push(format!("  {l}"));
                }
            }
            if g.rng.chance(1, 2) {
                lines.push("end else begin".into());
                for l in gen_stmt(g, sc, depth - 1, in_loop) {
                    lines.push(format!("  {l}"));
                }
            }
            lines.push("end;".into());
            lines
        }
        // Fuel-bounded while loop.
        45..=54 if depth > 0 => {
            let fuel = sc.fresh_local("f");
            let budget = g.rng.range(2, g.config.max_fuel.max(2));
            let cond = gen_cond(g, sc, 1, false);
            let mut lines = vec![
                format!("{fuel} := {budget};"),
                format!("while ({fuel} > 0) and ({cond}) do begin"),
                format!("  {fuel} := {fuel} - 1;"),
            ];
            let n = 1 + g.rng.below(2) as usize;
            sc.loop_depth += 1;
            for _ in 0..n {
                for l in gen_stmt(g, sc, depth - 1, true) {
                    lines.push(format!("  {l}"));
                }
            }
            sc.loop_depth -= 1;
            lines.push("end;".into());
            lines
        }
        // Fuel-bounded repeat loop.
        55..=62 if depth > 0 => {
            let fuel = sc.fresh_local("f");
            let budget = g.rng.range(2, g.config.max_fuel.max(2));
            let cond = gen_cond(g, sc, 1, false);
            let mut lines = vec![
                format!("{fuel} := {budget};"),
                "repeat".to_string(),
                format!("  {fuel} := {fuel} - 1;"),
            ];
            let n = 1 + g.rng.below(2) as usize;
            sc.loop_depth += 1;
            for _ in 0..n {
                for l in gen_stmt(g, sc, depth - 1, true) {
                    lines.push(format!("  {l}"));
                }
            }
            sc.loop_depth -= 1;
            lines.push(format!("until ({fuel} <= 0) or ({cond});"));
            lines
        }
        // Span-bounded for loop.
        63..=72 if depth > 0 => {
            let var = sc.fresh_local("i");
            let base = gen_leaf(g, sc);
            let span = g.rng.range(1, 4);
            let header = if g.rng.chance(1, 3) {
                format!("for {var} := ({base}) + {span} downto {base} do begin")
            } else {
                format!("for {var} := {base} to ({base}) + {span} do begin")
            };
            sc.readable.push(var.clone());
            let mut lines = vec![header];
            let n = 1 + g.rng.below(2) as usize;
            sc.loop_depth += 1;
            for _ in 0..n {
                for l in gen_stmt(g, sc, depth - 1, in_loop) {
                    lines.push(format!("  {l}"));
                }
            }
            sc.loop_depth -= 1;
            lines.push("end;".into());
            sc.readable.pop();
            lines
        }
        // Procedure call (depth-guarded outside main; suppressed under
        // doubly nested loops, where the iteration product would multiply
        // the call fan-out past any reasonable step budget).
        73..=84 if !sc.in_function && !sc.callables.is_empty() && sc.loop_depth < 2 => {
            match gen_call(g, sc) {
                Some(call) => {
                    if sc.has_depth {
                        vec![format!("if d > 0 then {call}")]
                    } else {
                        vec![call]
                    }
                }
                None => vec![gen_assign(g, sc)],
            }
        }
        // Output.
        85..=90 if !sc.in_function => {
            let e = gen_expr(g, sc, 1, false);
            if g.rng.chance(1, 4) {
                let tag = (b'a' + g.rng.below(26) as u8) as char;
                vec![format!("writeln('{tag}', {e});")]
            } else {
                vec![format!("writeln({e});")]
            }
        }
        // Loop-exit goto: forward jump to the owning body's landing label.
        91..=94 if in_loop && sc.exit_label.is_some() && !sc.in_function => {
            let l = sc.exit_label.unwrap();
            let cond = gen_cond(g, sc, 0, false);
            vec![format!("if {cond} then goto {l};")]
        }
        // Non-local goto out of the current procedure.
        95..=97 if !sc.outer_labels.is_empty() && !sc.in_function && sc.has_depth => {
            let l = *g.rng.pick(&sc.outer_labels);
            let cond = gen_cond(g, sc, 0, false);
            vec![format!("if {cond} then goto {l};")]
        }
        _ => vec![gen_assign(g, sc)],
    }
}

/// `w := (expr) mod m;`, occasionally call-bearing (then depth-guarded).
fn gen_assign(g: &mut Gen, sc: &mut Scope) -> String {
    if sc.writable.is_empty() {
        return "g0 := g0;".into();
    }
    let w = g.rng.pick(&sc.writable).clone();
    g.touch(sc, &w);
    let with_calls = !sc.functions.is_empty() && sc.loop_depth < 2 && g.rng.chance(1, 4);
    let depth = 1 + g.rng.below(g.config.max_expr_depth.max(1) as u64) as usize;
    let e = gen_expr(g, sc, depth, with_calls);
    let m = *g.rng.pick(&MODULI);
    let assign = format!("{w} := ({e}) mod {m};");
    if with_calls && sc.has_depth {
        format!("if d > 0 then {assign}")
    } else {
        assign
    }
}

/// A procedure call statement with a decreasing depth argument, value
/// arguments, and distinct non-aliasing var arguments. `None` when the
/// var-argument pool is too small for the chosen callee.
fn gen_call(g: &mut Gen, sc: &mut Scope) -> Option<String> {
    let sig = g.rng.pick(&sc.callables).clone();
    if sig.var_params > sc.var_arg_pool.len() {
        return None;
    }
    let mut args: Vec<String> = Vec::new();
    args.push(if sc.has_depth {
        // Inside a loop the call repeats per iteration, so halve the
        // depth budget to keep total invocations polynomial.
        if sc.loop_depth > 0 || g.rng.chance(1, 4) {
            "d div 2".into()
        } else {
            "d - 1".into()
        }
    } else if sc.loop_depth > 0 {
        g.rng
            .range(1, g.config.max_call_depth.max(2) - 1)
            .to_string()
    } else {
        g.rng.range(1, g.config.max_call_depth.max(1)).to_string()
    });
    for _ in 0..sig.value_params {
        args.push(gen_expr(g, sc, 1, false));
    }
    let picked = g.rng.pick_distinct(sc.var_arg_pool.len(), sig.var_params);
    for idx in picked {
        args.push(sc.var_arg_pool[idx].clone());
    }
    sc.touches.extend(sig.touches.iter().cloned());
    Some(format!("{}({});", sig.name, args.join(", ")))
}

/// An expression leaf: a literal or a readable variable.
fn gen_leaf(g: &mut Gen, sc: &mut Scope) -> String {
    if !sc.readable.is_empty() && g.rng.chance(3, 5) {
        let v = g.rng.pick(&sc.readable).clone();
        g.touch(sc, &v);
        v
    } else if g.rng.chance(1, 8) {
        format!("(-{})", g.rng.range(1, 99))
    } else {
        g.rng.range(0, 99).to_string()
    }
}

/// An integer expression of bounded depth. Multiplications are wrapped
/// in `mod` so intermediate values stay far from overflow; `div`/`mod`
/// only use nonzero literal divisors.
fn gen_expr(g: &mut Gen, sc: &mut Scope, depth: usize, calls: bool) -> String {
    if depth == 0 || g.rng.chance(3, 10) {
        return gen_leaf(g, sc);
    }
    match g.rng.below(100) {
        0..=24 => {
            let a = gen_expr(g, sc, depth - 1, calls);
            let b = gen_expr(g, sc, depth - 1, calls);
            format!("({a} + {b})")
        }
        25..=44 => {
            let a = gen_expr(g, sc, depth - 1, calls);
            let b = gen_expr(g, sc, depth - 1, calls);
            format!("({a} - {b})")
        }
        45..=59 => {
            let a = gen_expr(g, sc, depth - 1, calls);
            let b = gen_expr(g, sc, depth - 1, calls);
            let m = *g.rng.pick(&MODULI);
            format!("((({a}) * ({b})) mod {m})")
        }
        60..=69 => {
            let a = gen_expr(g, sc, depth - 1, calls);
            let k = *g.rng.pick(&DIVISORS);
            format!("({a} div {k})")
        }
        70..=79 => {
            let a = gen_expr(g, sc, depth - 1, calls);
            let k = *g.rng.pick(&DIVISORS);
            format!("({a} mod {k})")
        }
        80..=89 if calls && !sc.functions.is_empty() => {
            let sig = g.rng.pick(&sc.functions).clone();
            let mut args: Vec<String> = Vec::new();
            args.push(if sc.has_depth {
                if sc.loop_depth > 0 {
                    "(d div 2)".into()
                } else {
                    "(d - 1)".into()
                }
            } else if sc.loop_depth > 0 {
                g.rng
                    .range(1, g.config.max_call_depth.max(2) - 1)
                    .to_string()
            } else {
                g.rng.range(1, g.config.max_call_depth.max(1)).to_string()
            });
            for _ in 0..sig.value_params {
                args.push(gen_expr(g, sc, depth.saturating_sub(1), false));
            }
            sc.touches.extend(sig.touches.iter().cloned());
            format!("{}({})", sig.name, args.join(", "))
        }
        _ => {
            let a = gen_expr(g, sc, depth - 1, calls);
            format!("(-({a}))")
        }
    }
}

/// A boolean condition of bounded depth, fully parenthesized.
fn gen_cond(g: &mut Gen, sc: &mut Scope, depth: usize, calls: bool) -> String {
    if depth == 0 || g.rng.chance(1, 2) {
        let a = gen_expr(g, sc, 1, calls);
        let b = gen_expr(g, sc, 1, calls);
        let op = *g.rng.pick(&["=", "<>", "<", "<=", ">", ">="]);
        return format!("({a}) {op} ({b})");
    }
    match g.rng.below(3) {
        0 => {
            let a = gen_cond(g, sc, depth - 1, calls);
            let b = gen_cond(g, sc, depth - 1, calls);
            format!("({a}) and ({b})")
        }
        1 => {
            let a = gen_cond(g, sc, depth - 1, calls);
            let b = gen_cond(g, sc, depth - 1, calls);
            format!("({a}) or ({b})")
        }
        _ => {
            let a = gen_cond(g, sc, depth - 1, calls);
            format!("not ({a})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let c = GenConfig::default();
        let a = generate(42, &c);
        let b = generate(42, &c);
        assert_eq!(a, b);
        let other = generate(43, &c);
        assert_ne!(a.source, other.source);
    }

    #[test]
    fn batch_matches_individual_generation_at_any_thread_count() {
        let c = GenConfig::default();
        let seq: Vec<GeneratedProgram> = (0..16).map(|s| generate(s, &c)).collect();
        for threads in [1, 2, 8] {
            let batch = generate_batch(0, 16, &c, threads);
            assert_eq!(batch, seq, "threads={threads}");
        }
    }

    #[test]
    fn generated_programs_compile_and_terminate() {
        let c = GenConfig::default();
        for seed in 0..40 {
            let p = generate(seed, &c);
            let m = gadt_pascal::sema::compile(&p.source)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", p.source));
            let mut interp = gadt_pascal::interp::Interpreter::new(&m);
            interp.set_limits(gadt_pascal::interp::Limits {
                max_steps: 2_000_000,
                ..Default::default()
            });
            interp.set_input(p.input.iter().cloned());
            interp
                .run()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", p.source));
        }
    }

    #[test]
    fn corpus_exercises_the_target_constructs() {
        let c = GenConfig::default();
        let programs = generate_batch(0, 60, &c, 0);
        let all: String = programs.iter().map(|p| p.source.as_str()).collect();
        assert!(all.contains("goto"), "no gotos in 60 programs");
        assert!(all.contains("while"), "no while loops");
        assert!(all.contains("repeat"), "no repeat loops");
        assert!(all.contains("for"), "no for loops");
        assert!(all.contains("procedure"), "no procedures");
        assert!(all.contains("function"), "no functions");
        assert!(all.contains("read("), "no reads");
        // At least one nested procedure declaration (indented header).
        assert!(
            all.contains("\n    procedure") || all.contains("\n    function"),
            "no procedure nesting"
        );
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let c = GenConfig::default();
        let a = generate_batch(0, 5, &c, 1);
        let b = generate_batch(1, 5, &c, 1);
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        assert_eq!(corpus_fingerprint(&a), corpus_fingerprint(&a));
    }
}
