//! Random program generation and mutation-based bug planting — the
//! workload for the quantitative experiments (E8–E10 in DESIGN.md).
//!
//! Generated programs have the shape the paper's method targets: a tree
//! of procedures, each computing two output values from two inputs
//! through arithmetic and calls to lower-level procedures, so that
//! (a) execution trees are deep enough for algorithmic debugging to need
//! many queries, and (b) each unit has *several* outputs with separate
//! computation chains, giving slicing something to prune (§5.3.3).
//!
//! Bug planting mutates a single arithmetic operation or constant in one
//! procedure (the classic mutation operators), yielding a buggy/reference
//! program pair for the simulated-user oracle.

use std::fmt::Write as _;

/// A small deterministic linear congruential generator.
///
/// The workload generators below need nothing more than reproducible
/// streams of small integers, and the offline build environment has no
/// registry access for an external `rand` crate — so this is the whole
/// RNG: one Knuth-constant LCG step per draw, with an xorshift-multiply
/// finalizer so low bits are usable.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // Pre-mix so small consecutive seeds diverge immediately.
        Lcg(seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x1531_7acf))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }

    /// A uniform draw from the half-open range `lo..hi` (requires
    /// `lo < hi`).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// A uniform draw from the half-open range `lo..hi` (requires
    /// `lo < hi`).
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    /// A fair coin flip.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Parameters of a generated program.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of generated procedures (≥ 1).
    pub procs: usize,
    /// Maximum calls a procedure makes to lower-numbered procedures.
    pub max_calls: usize,
    /// RNG seed (generation is fully deterministic in the seed).
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            procs: 8,
            max_calls: 2,
            seed: 1,
        }
    }
}

/// A generated program plus the locations suitable for mutation.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// The source text.
    pub source: String,
    /// Names of the generated procedures (`p1` … `pN`).
    pub proc_names: Vec<String>,
}

/// Generates a random program per `cfg`.
///
/// Every procedure has the signature
/// `procedure pK(a, b: integer; var o1, o2: integer)` and computes `o1`
/// and `o2` through two *independent* chains (so slicing on one output
/// can drop the other chain's calls). Procedure `pK` may call `pJ` with
/// `J < K`; `main` calls the top procedure and prints both outputs.
pub fn generate(cfg: &GenConfig) -> GeneratedProgram {
    let mut rng = Lcg::new(cfg.seed);
    let n = cfg.procs.max(1);
    let mut src = String::new();
    let _ = writeln!(src, "program gen{};", cfg.seed);
    let _ = writeln!(src, "var r1, r2: integer;");
    let mut proc_names = Vec::new();

    for k in 1..=n {
        let name = format!("p{k}");
        let _ = writeln!(src, "procedure {name}(a, b: integer; var o1, o2: integer);");
        // Locals for intermediate values.
        let _ = writeln!(src, "var t1, t2, u1, u2: integer;");
        let _ = writeln!(src, "begin");

        // Chain 1 computes o1 from a; chain 2 computes o2 from b.
        for (inp, tv, uv, out) in [("a", "t1", "u1", "o1"), ("b", "t2", "u2", "o2")] {
            // Seed the chain with a simple expression.
            let c1 = rng.range_i64(1, 5);
            let c2 = rng.range_i64(1, 4);
            let op = ["+", "-", "*"][rng.range_usize(0, 3)];
            let _ = writeln!(src, "  {tv} := ({inp} {op} {c1}) * {c2} + 1;");
            // Route through a callee most of the time (deep trees make
            // the debugging-method comparison meaningful). Callees are
            // biased toward the next-lower procedure so call chains are
            // long rather than flat.
            let makes_call = k > 1 && cfg.max_calls > 0 && rng.range_i64(0, 10) < 7;
            if makes_call {
                let back = 1 + rng.range_usize(0, 2.min(k - 1));
                let callee = k - back;
                let _ = writeln!(src, "  p{callee}({tv}, {tv} + {c2}, {uv}, {out});");
                let _ = writeln!(src, "  {out} := {out} + {uv} mod 7;");
            } else {
                // Leaf computation: vary the shape so slicing and control
                // dependence get exercised (plain, branchy, or case).
                let c3 = rng.range_i64(2, 6);
                match rng.range_i64(0, 3) {
                    0 => {
                        let _ = writeln!(src, "  {uv} := {tv} mod {c3} + {tv} div {c3};");
                        let _ = writeln!(src, "  {out} := {tv} + {uv};");
                    }
                    1 => {
                        let _ = writeln!(
                            src,
                            "  if {tv} > {c3} then {uv} := {tv} - {c3} else {uv} := {c3} - {tv};"
                        );
                        let _ = writeln!(src, "  {out} := {uv} * 2 + 1;");
                    }
                    _ => {
                        let _ = writeln!(src, "  case {tv} mod 3 of");
                        let _ = writeln!(src, "    0: {uv} := {tv} + {c3};");
                        let _ = writeln!(src, "    1: {uv} := {tv} * 2");
                        let _ = writeln!(src, "  else {uv} := {tv} - 1");
                        let _ = writeln!(src, "  end;");
                        let _ = writeln!(src, "  {out} := {uv} + {c3};");
                    }
                }
            }
        }
        let _ = writeln!(src, "end;");
        proc_names.push(name);
    }

    let a0 = rng.range_i64(1, 20);
    let b0 = rng.range_i64(1, 20);
    let _ = writeln!(src, "begin");
    let _ = writeln!(src, "  p{n}({a0}, {b0}, r1, r2);");
    let _ = writeln!(src, "  writeln(r1, ' ', r2);");
    let _ = writeln!(src, "end.");

    GeneratedProgram {
        source: src,
        proc_names,
    }
}

/// A planted mutation.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The mutated source.
    pub source: String,
    /// The procedure whose body was mutated.
    pub in_proc: String,
}

/// Plants one bug by mutating an arithmetic constant or operator inside
/// one generated procedure. Returns `None` if no mutable site exists.
pub fn mutate(prog: &GeneratedProgram, seed: u64) -> Option<Mutation> {
    let mut rng = Lcg::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(17));
    // Find the body line ranges of each procedure.
    let lines: Vec<&str> = prog.source.lines().collect();
    let mut sites: Vec<(usize, String)> = Vec::new(); // (line idx, proc)
    let mut current: Option<String> = None;
    for (i, l) in lines.iter().enumerate() {
        if let Some(rest) = l.strip_prefix("procedure ") {
            let name = rest.split('(').next().unwrap_or("").trim().to_string();
            current = Some(name);
        } else if l.starts_with("begin") && !l.starts_with("begin.") {
            // main body begins at a column-0 begin after all procs; keep
            // `current` as-is (assignments before it belong to the proc).
        } else if let Some(p) = &current {
            if l.contains(":=") && (l.contains('+') || l.contains('*') || l.contains('-')) {
                sites.push((i, p.clone()));
            }
            if *l == "end;" {
                current = None;
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (line_idx, in_proc) = sites[rng.range_usize(0, sites.len())].clone();
    let line = lines[line_idx];
    // Mutation: flip the first `+` to `-` (or `-`→`+`, `*`→`+`).
    let mutated = if let Some(pos) = line.rfind("+ 1;") {
        format!("{}+ 2;", &line[..pos])
    } else if let Some(pos) = line.find('+') {
        format!("{}-{}", &line[..pos], &line[pos + 1..])
    } else if let Some(pos) = line.find('*') {
        format!("{}+{}", &line[..pos], &line[pos + 1..])
    } else if let Some(pos) = line.rfind('-') {
        format!("{}+{}", &line[..pos], &line[pos + 1..])
    } else {
        return None;
    };
    let mut out_lines: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    out_lines[line_idx] = mutated;
    Some(Mutation {
        source: out_lines.join("\n"),
        in_proc,
    })
}
