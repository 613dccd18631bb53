//! Smoke test at tiny input sizes: every workload runs in both modes,
//! passes its output checks, and prints exactly the metrics
//! `BENCHMARK.json` declares for that mode, each with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

fn declared(mode: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec[mode]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--sites",
            "40",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output");
    serde_json::from_str(last).expect("last line is JSON")
}

fn check(workload: &str, trace: &str, mode: &str) {
    let result = run(workload, trace);
    let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert!(result["attempted"].as_u64().expect("attempted") >= 1);
    assert_eq!(result["failed"].as_u64(), Some(0));
    let metrics = result["metrics"].as_object().expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m["value"].as_f64().expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (name.clone(), m["unit"].as_str().expect("unit").to_string())
        })
        .collect();
    assert_eq!(printed, declared(mode), "{workload} --trace {trace}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in ["crawl", "analyze", "serve"] {
        check(workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in ["crawl", "analyze", "serve"] {
        check(workload, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
