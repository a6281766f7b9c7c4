//! `--smoke`: every workload end to end at tiny sizes, timed and traced —
//! the same generators, oracle, checks and result line as a full run, in a
//! few seconds. This is what a CI job would run.

use std::process::Command;

use ramr_telemetry::json::{self, Value};

const WORKLOADS: [&str; 5] = ["wc-zipf", "hg-dense", "synth-cpu", "km-iterate", "serve-small"];

/// Runs the benchmark binary from the repository root (where
/// `BENCHMARK.json` and `benchmark/out/` resolve) and parses its last line.
fn smoke(workload: &str, trace: &str, seed: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_ramr-benchmark"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--smoke", "--workload", workload, "--seed", seed, "--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_workload_passes_its_checks_timed() {
    for workload in WORKLOADS {
        let result = smoke(workload, "0", "1");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{workload}");
        for name in ["static_job_ms", "adaptive_job_ms", "phoenix_job_ms", "setup_s"] {
            assert!(metric(&result, name) > 0.0, "{workload}: {name}");
        }
    }
}

#[test]
fn every_workload_passes_its_checks_traced_and_counts_repeat() {
    for workload in WORKLOADS {
        let first = smoke(workload, "1", "2");
        let again = smoke(workload, "1", "2");
        assert_eq!(first.get("correct"), Some(&Value::Bool(true)), "{workload}");
        for name in ["emitted_pairs", "output_keys"] {
            assert!(metric(&first, name) > 0.0, "{workload}: {name}");
            assert_eq!(metric(&first, name), metric(&again, name), "{workload}: {name} per seed");
        }
        let trace = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
        let doc = json::parse(&std::fs::read_to_string(&trace).expect("span file")).expect("JSON");
        assert!(doc.get("spans").and_then(Value::as_arr).is_some_and(|s| !s.is_empty()));
    }
}

#[test]
fn an_unknown_workload_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_ramr-benchmark"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--smoke", "--workload", "no-such-workload"])
        .output()
        .expect("benchmark binary runs");
    assert!(!output.status.success());
    assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""));
}
