//! The command line, end to end: one-second smoke runs of every workload, the seeded
//! wrong result, and `spec`.  The runs are serialised: each one uses every CPU.

use serde::{map_get, Value};
use std::process::{Command, Output};
use std::sync::Mutex;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn bench(args: &[&str]) -> Output {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    Command::new(env!("CARGO_BIN_EXE_parlo-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn result_line(output: &Output) -> Vec<(String, Value)> {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    let v: Value = serde_json::from_str(last).expect("the last line is JSON");
    v.as_map().expect("an object").to_vec()
}

fn metric_names(result: &[(String, Value)]) -> Vec<String> {
    map_get(result, "metrics")
        .and_then(Value::as_map)
        .expect("metrics")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn spec_names(spec: &[(String, Value)], key: &str) -> Vec<String> {
    map_get(spec, key)
        .and_then(Value::as_seq)
        .expect("a list")
        .iter()
        .map(|m| {
            map_get(m.as_map().unwrap(), "name")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn spec() -> Vec<(String, Value)> {
    let out = bench(&["spec"]);
    assert!(out.status.success());
    let v: Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    v.as_map().unwrap().to_vec()
}

#[test]
fn every_workload_runs_correctly_and_prints_every_end_to_end_metric() {
    let spec = spec();
    for workload in spec_names(&spec, "workloads") {
        for seed in ["1", "2"] {
            let out = bench(&[
                "run",
                "--workload",
                &workload,
                "--seed",
                seed,
                "--seconds",
                "1",
                "--trace",
                "0",
            ]);
            let result = result_line(&out);
            assert!(out.status.success(), "{workload} seed {seed}: {result:?}");
            assert_eq!(
                result.len(),
                4,
                "exactly correct, attempted, failed, metrics"
            );
            assert_eq!(map_get(&result, "correct"), Some(&Value::Bool(true)));
            assert_eq!(map_get(&result, "failed"), Some(&Value::U64(0)));
            assert!(matches!(map_get(&result, "attempted"), Some(&Value::U64(n)) if n > 100));
            assert_eq!(
                metric_names(&result),
                spec_names(&spec, "end_to_end"),
                "{workload}"
            );
        }
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    let out = bench(&[
        "run",
        "--workload",
        "micro_sweep",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    let result = result_line(&out);
    assert!(out.status.success(), "{result:?}");
    assert_eq!(metric_names(&result), spec_names(&spec(), "per_layer"));
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace_micro_sweep.json");
    let text = std::fs::read_to_string(trace).expect("the Chrome trace was written");
    let v: Value = serde_json::from_str(&text).expect("the trace is JSON");
    assert!(map_get(v.as_map().unwrap(), "traceEvents").is_some());
}

#[test]
fn a_seeded_wrong_result_flips_correct_and_the_exit_code() {
    for workload in ["micro_sweep", "mpdata", "irregular", "serve"] {
        let out = bench(&[
            "run",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.5",
            "--trace",
            "0",
            "--corrupt-reference",
            "1",
        ]);
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let result = result_line(&out);
        assert_eq!(
            map_get(&result, "correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        assert!(matches!(map_get(&result, "failed"), Some(&Value::U64(n)) if n > 0));
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &[
            "run",
            "--workload",
            "phoenix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["run", "--workload", "serve", "--seed", "1", "--trace", "0"][..],
        &["frobnicate"][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
