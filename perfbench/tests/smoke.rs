//! Reduced-size runs of every workload (`--smoke`): each must print every
//! metric `BENCHMARK.json` names, with its unit, pass its correctness
//! gate, and reproduce its deterministic digest across processes and
//! between traced and untraced runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["offline-ssb", "online-tpcch", "fleet-64"];

struct Run {
    digest: String,
    result: Value,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_lpa-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.split("digest=").nth(1))
        .expect("header line carries the digest")
        .to_string();
    let last = stdout.lines().last().expect("some output");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    Run { digest, result }
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{list} entry without string {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_result(workload: &str, r: &Value, list: &str) {
    let Value::Object(top) = r else {
        panic!("result is not an object");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert!(
        matches!(r.get("failed"), Some(Value::Int(0) | Value::UInt(0))),
        "{workload}"
    );
    let Some(Value::Object(metrics)) = r.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let want = declared(list);
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for (name, unit) in want {
        let m = metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{workload}: missing {name}"));
        assert_eq!(m.get("unit"), Some(&Value::Str(unit)), "{workload}: {name}");
        let value = match m.get("value") {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            Some(Value::UInt(u)) => *u as f64,
            other => panic!("{workload}: {name} value {other:?}"),
        };
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if list == "end_to_end" {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_gate() {
    for workload in WORKLOADS {
        let plain = run(workload, 7, false);
        check_result(workload, &plain.result, "end_to_end");
        let traced = run(workload, 7, true);
        check_result(workload, &traced.result, "per_layer");
        assert_eq!(
            plain.digest, traced.digest,
            "{workload}: tracing changed the outputs"
        );
    }
}

#[test]
fn outputs_repeat_per_seed_and_follow_the_seed() {
    for workload in WORKLOADS {
        let a = run(workload, 3, false);
        let b = run(workload, 3, false);
        assert_eq!(
            a.digest, b.digest,
            "{workload}: same seed, different outputs"
        );
        let c = run(workload, 4, false);
        assert_ne!(
            a.digest, c.digest,
            "{workload}: the seed does not reach the inputs"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_lpa-perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
