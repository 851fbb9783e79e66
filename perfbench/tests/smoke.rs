//! Reduced-size runs of every workload: each must finish, pass its
//! output checks, and print every metric `BENCHMARK.json` declares, with
//! the declared unit.

use gadt_store::Json;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    gadt_store::parse(&text).expect("BENCHMARK.json parses with gadt_store::parse")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    gadt_store::parse(last).expect("the last line is JSON")
}

fn check(workload: &str) {
    let doc = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload} --trace {trace}: {result}"
        );
        assert_eq!(result.get("failed").and_then(Json::as_int), Some(0));
        assert!(result.get("attempted").and_then(Json::as_int).unwrap_or(0) >= 1);
        let metrics = result.get("metrics").expect("metrics object");
        let Json::Object(pairs) = metrics else {
            panic!("metrics is not an object")
        };
        let want = declared(&doc, section);
        assert_eq!(pairs.len(), want.len(), "{workload} --trace {trace}");
        for (name, unit) in want {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            let value = match m.get("value") {
                Some(Json::Real(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                other => panic!("{name} has value {other:?}"),
            };
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
}

#[test]
fn benchmark_json_has_the_contract_keys() {
    let doc = benchmark_json();
    let Json::Object(pairs) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["campaign", "serve_pooled", "serve_interactive"]);
    assert!(declared(&doc, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn campaign_smoke() {
    check("campaign");
}

#[test]
fn serve_pooled_smoke() {
    check("serve_pooled");
}

#[test]
fn serve_interactive_smoke() {
    check("serve_interactive");
}
