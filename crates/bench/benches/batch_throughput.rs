//! Sequential-vs-parallel batch throughput (the `BatchExecutor`
//! speedup landing in the perf trajectory): T-GEN case runs through
//! `run_cases` vs `run_cases_batch`, and batch tracing through
//! per-input `run_traced` vs `run_traced_batch`.
//!
//! Reports cases/sec per variant and the parallel speedup. On a
//! single-core host the parallel figures approximate the sequential
//! ones (scheduler overhead aside); the ≥2× target needs 4+ cores.

use gadt::obs::Recorder;
use gadt::session::{prepare, run_traced, run_traced_batch, Engine};
use gadt_bench::timing::Harness;
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_pascal::value::Value;
use gadt_tgen::{cases, frames, spec};

fn speedup_line(what: &str, seq_per_iter: f64, par_per_iter: f64, units: f64) {
    let seq_rate = units / seq_per_iter;
    let par_rate = units / par_per_iter;
    println!(
        "  => {what}: {seq_rate:.0} units/s sequential, {par_rate:.0} units/s parallel, speedup {:.2}x",
        seq_per_iter / par_per_iter
    );
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("batch_throughput on {threads} worker thread(s)\n");
    let h = Harness::new();

    // --- T-GEN case runs ------------------------------------------------
    let m = compile(testprogs::SQRTEST).unwrap();
    let s = spec::parse_spec(spec::ARRSUM_SPEC).unwrap();
    let g = frames::generate_frames(&s, Default::default());
    let base = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    // Repeat the frame catalogue so each batch is big enough to share.
    let mut tc = Vec::new();
    for _ in 0..16 {
        tc.extend(base.iter().cloned());
    }
    let oracle = |ins: &[Value], r: &gadt_pascal::interp::ProcRun| cases::arrsum_oracle(ins, r);
    let seq = h.bench(&format!("tgen/run_cases/seq/{}", tc.len()), || {
        cases::run_cases(&m, "arrsum", &tc, &oracle).unwrap()
    });
    let par = h.bench(&format!("tgen/run_cases/par{threads}/{}", tc.len()), || {
        let mut rec = Recorder::disabled();
        cases::run_cases_batch(
            threads,
            Engine::default(),
            &m,
            "arrsum",
            &tc,
            &oracle,
            None,
            &mut rec,
        )
        .unwrap()
    });
    speedup_line(
        "T-GEN cases",
        seq.per_iter.as_secs_f64(),
        par.per_iter.as_secs_f64(),
        tc.len() as f64,
    );

    // --- Batch tracing --------------------------------------------------
    let src = "program t; var n, i, s: integer;
         procedure step(x: integer; var acc: integer);
         begin acc := acc + x * x end;
         begin read(n); s := 0; for i := 1 to n do step(i, s); writeln(s) end.";
    let tm = compile(src).unwrap();
    let prepared = prepare(&tm).unwrap();
    let inputs: Vec<Vec<Value>> = (1..=32).map(|n| vec![Value::Int(n * 8)]).collect();
    let seq = h.bench(&format!("session/run_traced/seq/{}", inputs.len()), || {
        inputs
            .iter()
            .map(|i| run_traced(&prepared, i.clone()).unwrap())
            .collect::<Vec<_>>()
    });
    let par = h.bench(
        &format!("session/run_traced_batch/par{threads}/{}", inputs.len()),
        || {
            run_traced_batch(
                &prepared,
                inputs.clone(),
                threads,
                &mut Recorder::disabled(),
            )
            .unwrap()
        },
    );
    speedup_line(
        "traced inputs",
        seq.per_iter.as_secs_f64(),
        par.per_iter.as_secs_f64(),
        inputs.len() as f64,
    );
}
