//! Tree-walker vs bytecode-VM baselines: `vm_baseline [out.json] [baseline.json]`.
//!
//! Runs the five workloads the VM phase-1/phase-2 work targets — batch
//! tracing, T-GEN case batches, a mutation campaign, the campaign's
//! monitor-free crash screen, and a hashed monitored run — on both
//! execution engines, prints the per-workload speedups, and writes the
//! figures to `BENCH_vm.json` (or the path given as the first argument).
//!
//! Regression gates (any failure exits 1 — `ci.sh`'s bench tier):
//! * the VM must beat the tree-walker on `trace_batch` (≥ 1.0×);
//! * the VM must beat the tree-walker on `campaign` by ≥ 1.3×;
//! * when a committed-baseline path is given as the second argument,
//!   no workload's speedup may fall below `0.8 ×` its committed figure
//!   (the slack absorbs machine noise, not structural regressions).

use gadt::obs::Recorder;
use gadt::session::{prepare, run_traced_batch, Engine};
use gadt_bench::genprog::{generate, GenConfig};
use gadt_bench::timing::Harness;
use gadt_mutate::campaign::{run_campaign, CampaignConfig, CampaignProgram};
use gadt_pascal::cfg::lower;
use gadt_pascal::interp::Limits;
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_pascal::value::Value;
use gadt_tgen::{cases, frames, spec};
use gadt_vm::conformance::EventHasher;
use gadt_vm::PreparedEngine;
use std::process::ExitCode;
use std::sync::Arc;

struct Workload {
    name: &'static str,
    units: usize,
    tree_ns: f64,
    vm_ns: f64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.tree_ns / self.vm_ns
    }
}

/// Batch tracing: the same prepared program, a fan of inputs, both
/// engines through `run_traced_batch`. Single-threaded so the figure is
/// an engine comparison, not a scheduler benchmark.
fn trace_workload(h: &Harness) -> Workload {
    let gp = generate(&GenConfig {
        procs: 10,
        max_calls: 3,
        seed: 11,
    });
    let m = compile(&gp.source).unwrap();
    let inputs: Vec<Vec<Value>> = (0..24).map(|_| Vec::new()).collect();
    let units = inputs.len();

    let tree = prepare(&m).unwrap().with_engine(Engine::TreeWalker);
    let vm = prepare(&m).unwrap().with_engine(Engine::Vm);
    let (t, v) = h.bench_pair(
        "trace_batch/tree",
        "trace_batch/vm",
        || run_traced_batch(&tree, inputs.clone(), 1, &mut Recorder::disabled()).unwrap(),
        || run_traced_batch(&vm, inputs.clone(), 1, &mut Recorder::disabled()).unwrap(),
    );
    Workload {
        name: "trace_batch",
        units,
        tree_ns: t.per_iter.as_nanos() as f64 / units as f64,
        vm_ns: v.per_iter.as_nanos() as f64 / units as f64,
    }
}

/// T-GEN case batches: the arrsum catalogue repeated into a batch big
/// enough to amortize, on one worker thread.
fn tgen_workload(h: &Harness) -> Workload {
    let m = compile(testprogs::SQRTEST).unwrap();
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let base = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let mut tc = Vec::new();
    for _ in 0..16 {
        tc.extend(base.iter().cloned());
    }
    let batch = |engine| {
        let mut rec = Recorder::disabled();
        cases::run_cases_batch(
            1,
            engine,
            &m,
            "arrsum",
            &tc,
            &cases::arrsum_oracle,
            None,
            &mut rec,
        )
        .unwrap()
    };

    let (t, v) = h.bench_pair(
        "tgen_batch/tree",
        "tgen_batch/vm",
        || batch(Engine::TreeWalker),
        || batch(Engine::Vm),
    );
    Workload {
        name: "tgen_batch",
        units: tc.len(),
        tree_ns: t.per_iter.as_nanos() as f64 / tc.len() as f64,
        vm_ns: v.per_iter.as_nanos() as f64 / tc.len() as f64,
    }
}

/// The campaign subject: a compute-heavy program whose golden run takes
/// tens of thousands of steps, with loops whose mutations produce the
/// full verdict spectrum — immediate crashes, step-budget runaways, and
/// observably-killed mutants with long traced runs. The loop guards use
/// `<>` bounds deliberately: mutations to an increment (deletion,
/// `+`→`-`, duplication, off-by-one) overshoot or stall the counter and
/// run away instead of exiting a little early, which is the common kill
/// mode for loop faults and exactly the regime the monitor-free crash
/// screen targets. Campaigns over trivial subjects measure pipeline
/// overhead (sema, rendering, oracle bookkeeping — all
/// engine-independent); this subject measures what large campaigns
/// actually pay for: execution.
const CHURN: &str = r#"
program churn;
var i, n, a, b, g, acc: integer;

procedure gcd(x, y: integer; var out: integer);
var t: integer;
begin
  while y <> 0 do begin
    t := x mod y;
    x := y;
    y := t
  end;
  out := x
end;

procedure mix(v: integer; var out: integer);
var k, s: integer;
begin
  s := 0;
  k := 0;
  while k <> 32 do begin
    s := (s + v * (k + 1)) mod 9973;
    k := k + 1
  end;
  out := s
end;

begin
  acc := 0;
  i := 0;
  n := 96;
  while i <> n do begin
    a := i * 7 + 3;
    b := i + 91;
    gcd(a, b, g);
    mix(g + i, a);
    acc := (acc + a + g) mod 100003;
    i := i + 1
  end;
  writeln(acc)
end.
"#;

/// A bounded mutation campaign (golden runs + every mutant's crash
/// screen → transform → trace → double debug pipeline) on each engine.
/// The step budget gives runaway mutants ~16x the golden run's steps —
/// the regime where the monitor-free crash screen pays off. CHURN's
/// mutants keep the 1 000 000-step budget: on the VM the screen's cycle
/// guard stops a mutant whose loop counter stalls at its first repeated
/// machine state, while the tree-walker burns the whole budget, so the
/// speedup here also measures the guard.
fn campaign_workload(h: &Harness) -> Workload {
    let programs = vec![CampaignProgram::new("churn", CHURN)];
    let units = 24usize;
    let config = |engine| CampaignConfig {
        max_mutants: units,
        threads: 1,
        max_steps: 1_000_000,
        engine,
        ..CampaignConfig::default()
    };
    let tree_config = config(Engine::TreeWalker);
    let vm_config = config(Engine::Vm);
    let (t, v) = h.bench_pair(
        "campaign/tree",
        "campaign/vm",
        || run_campaign(&programs, &tree_config).unwrap(),
        || run_campaign(&programs, &vm_config).unwrap(),
    );
    Workload {
        name: "campaign",
        units,
        tree_ns: t.per_iter.as_nanos() as f64 / units as f64,
        vm_ns: v.per_iter.as_nanos() as f64 / units as f64,
    }
}

/// The campaign's monitor-free crash screen in isolation: repeated
/// `PreparedProgram::execute_fast` calls on one prepared program — no
/// monitor, no dependence recorder, no tree build. This is the inner
/// loop every mutant pays before (or instead of) tracing.
fn campaign_fast_workload(h: &Harness) -> Workload {
    let gp = generate(&GenConfig {
        procs: 10,
        max_calls: 3,
        seed: 17,
    });
    let m = compile(&gp.source).unwrap();
    let units = 24usize;
    let limits = Limits::default();

    let tree = prepare(&m).unwrap().with_engine(Engine::TreeWalker);
    let vm = prepare(&m).unwrap().with_engine(Engine::Vm);
    let (t, v) = h.bench_pair(
        "campaign_fast/tree",
        "campaign_fast/vm",
        || {
            for _ in 0..units {
                tree.execute_fast(Vec::new(), limits).unwrap();
            }
        },
        || {
            for _ in 0..units {
                vm.execute_fast(Vec::new(), limits).unwrap();
            }
        },
    );
    Workload {
        name: "campaign_fast",
        units,
        tree_ns: t.per_iter.as_nanos() as f64 / units as f64,
        vm_ns: v.per_iter.as_nanos() as f64 / units as f64,
    }
}

/// A monitored run folded into the structural event hasher — the corpus
/// fuzzer's differential leg: full event stream, constant-memory digest,
/// no `Debug` rendering.
fn trace_hash_workload(h: &Harness) -> Workload {
    let gp = generate(&GenConfig {
        procs: 10,
        max_calls: 3,
        seed: 11,
    });
    let m = compile(&gp.source).unwrap();
    let cfg = Arc::new(lower(&m));
    let units = 24usize;

    let tree = PreparedEngine::new(&m, &cfg, Engine::TreeWalker);
    let vm = PreparedEngine::new(&m, &cfg, Engine::Vm);
    let (t, v) = h.bench_pair(
        "trace_hash/tree",
        "trace_hash/vm",
        || {
            let mut hasher = EventHasher::new();
            for _ in 0..units {
                tree.run_with(&m, Vec::new(), Limits::default(), &mut hasher)
                    .unwrap();
            }
            hasher.digest()
        },
        || {
            let mut hasher = EventHasher::new();
            for _ in 0..units {
                vm.run_with(&m, Vec::new(), Limits::default(), &mut hasher)
                    .unwrap();
            }
            hasher.digest()
        },
    );
    Workload {
        name: "trace_hash",
        units,
        tree_ns: t.per_iter.as_nanos() as f64 / units as f64,
        vm_ns: v.per_iter.as_nanos() as f64 / units as f64,
    }
}

/// Committed per-workload speedups from a previous `BENCH_vm.json`.
fn committed_speedups(path: &str) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = gadt_store::parse(&text)?;
    let mut out = Vec::new();
    for w in json.get("workloads")?.as_array()? {
        let name = w.get("name")?.as_str()?.to_string();
        let speedup = match w.get("speedup")? {
            gadt_store::Json::Real(x) => *x,
            gadt_store::Json::Int(n) => *n as f64,
            _ => return None,
        };
        out.push((name, speedup));
    }
    Some(out)
}

fn main() -> ExitCode {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_vm.json".to_string());
    let baseline = std::env::args().nth(2);
    let h = Harness::new();
    println!("vm_baseline: tree-walker vs bytecode VM (single worker)\n");

    let workloads = [
        trace_workload(&h),
        tgen_workload(&h),
        campaign_workload(&h),
        campaign_fast_workload(&h),
        trace_hash_workload(&h),
    ];

    println!();
    let mut body = String::from("{\n  \"benchmark\": \"vm_baseline\",\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        println!(
            "  => {}: tree {:.0} ns/unit, vm {:.0} ns/unit, speedup {:.2}x",
            w.name,
            w.tree_ns,
            w.vm_ns,
            w.speedup()
        );
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"units\": {}, \"tree_ns_per_unit\": {:.0}, \
             \"vm_ns_per_unit\": {:.0}, \"speedup\": {:.2}}}{}\n",
            w.name,
            w.units,
            w.tree_ns,
            w.vm_ns,
            w.speedup(),
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("vm_baseline: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");

    let mut failed = false;
    let trace = &workloads[0];
    if trace.speedup() < 1.0 {
        eprintln!(
            "vm_baseline: REGRESSION — vm is slower than the tree-walker \
             on the batch-trace workload ({:.2}x)",
            trace.speedup()
        );
        failed = true;
    }
    let campaign = workloads.iter().find(|w| w.name == "campaign").unwrap();
    if campaign.speedup() < 1.3 {
        eprintln!(
            "vm_baseline: REGRESSION — campaign speedup {:.2}x is below \
             the 1.3x floor (monitor-free crash screen + compiled engine)",
            campaign.speedup()
        );
        failed = true;
    }
    if let Some(path) = baseline {
        match committed_speedups(&path) {
            Some(committed) => {
                for (name, want) in committed {
                    let Some(w) = workloads.iter().find(|w| w.name == name) else {
                        eprintln!("vm_baseline: committed workload `{name}` was not measured");
                        failed = true;
                        continue;
                    };
                    let floor = want * 0.8;
                    if w.speedup() < floor {
                        eprintln!(
                            "vm_baseline: REGRESSION — {name} speedup {:.2}x fell below \
                             0.8x the committed {want:.2}x baseline",
                            w.speedup()
                        );
                        failed = true;
                    }
                }
            }
            None => {
                eprintln!("vm_baseline: cannot read committed baseline {path}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
