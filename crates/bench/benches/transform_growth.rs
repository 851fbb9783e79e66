//! Benchmarks for the transformation phase (experiments E9/E11): the
//! full §6 pipeline on the paper's examples and generated programs, plus
//! the side-effect analysis feeding it.

use gadt_analysis::effects::Effects;
use gadt_bench::genprog::{generate, GenConfig};
use gadt_bench::timing::Harness;
use gadt_pascal::sema::compile;
use gadt_pascal::testprogs;
use gadt_transform::transform;

fn main() {
    let h = Harness::new();

    let m = compile(testprogs::SQRTEST).unwrap();
    h.bench("analysis/effects_sqrtest", || Effects::compute(&m));

    for (name, src) in [
        ("globals", testprogs::SECTION6_GLOBALS),
        ("goto", testprogs::SECTION6_GOTO),
        ("loop_goto", testprogs::SECTION6_LOOP_GOTO),
        ("sqrtest", testprogs::SQRTEST),
    ] {
        let m = compile(src).unwrap();
        h.bench(&format!("transform/fixtures/{name}"), || {
            transform(&m).unwrap()
        });
    }

    for procs in [5usize, 10, 20] {
        let gp = generate(&GenConfig {
            procs,
            max_calls: 2,
            seed: 1,
        });
        let m = compile(&gp.source).unwrap();
        h.bench(&format!("transform/generated/{procs}"), || {
            transform(&m).unwrap()
        });
    }
}
