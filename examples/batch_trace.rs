//! Batch tracing through the parallel engine: trace many inputs of one
//! program concurrently through the facade, get execution trees back in
//! input order, and read the phase timings (the paper's Figure 3
//! phases) off the journal.
//!
//! Usage: `cargo run --example batch_trace [threads]` — `0` (default)
//! means "use all cores".

use gadt_pascal::sema::compile;
use gadt_pascal::value::Value;
use gadt_repro::Gadt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads: usize = match std::env::args().nth(1) {
        Some(a) => a
            .parse()
            .map_err(|_| format!("invalid thread count `{a}` (expected a number)"))?,
        None => 0,
    };

    let m = compile(
        "program t; var n, i, s: integer;
         begin read(n); s := 0; for i := 1 to n do s := s + i; writeln(s) end.",
    )?;
    let inputs: Vec<Vec<Value>> = (1..=32).map(|n| vec![Value::Int(n)]).collect();
    let (runs, journal) = Gadt::from_module(m)
        .with_threads(threads)
        .transform()?
        .trace(inputs)?
        .finish();

    println!(
        "traced {} runs on {threads} thread(s) (0 = all cores)",
        runs.len()
    );
    for (i, run) in runs.iter().enumerate().step_by(8) {
        println!(
            "  input {:2} -> output {:>4}  ({} trace events)",
            i + 1,
            run.output.trim(),
            run.trace.events.len()
        );
    }
    println!("{}", journal.phase_timings());
    Ok(())
}
