//! Smoke test of the benchmark itself: every workload runs at smoke
//! scale, prints every metric BENCHMARK.json names, and generates its
//! inputs from the seed alone.

use covidkg_json::Value;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_covidkg-benchmark");
const WORKLOADS: [&str; 4] = ["search-cold", "graph-cold", "wire-hot", "mixed-ingest"];

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn contract() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric under `key`.
fn declared(contract: &Value, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Run one smoke run; the parsed result line and the result file.
fn smoke(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = tmp(&format!("{workload}-{seed}-{}.json", u8::from(trace)));
    let output = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", out.to_str().expect("utf-8 path")])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        output.status.success(),
        "{workload} exited with {}: {last}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let result = Value::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {last}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_i64),
        Some(0),
        "{workload}: {last}"
    );
    assert!(result
        .get("attempted")
        .and_then(Value::as_i64)
        .is_some_and(|n| n >= 1));
    let file = Value::parse(&std::fs::read_to_string(&out).expect("result file"))
        .expect("result file parses");
    assert_eq!(
        file.get("scale").and_then(Value::as_str),
        Some("smoke"),
        "smoke results are marked"
    );
    assert!(
        file.get("claim").is_some_and(Value::is_null),
        "a benchmark claims nothing"
    );
    (result, file)
}

/// Every declared metric is in the result with its unit and a finite
/// value, and nothing else is.
fn assert_metrics(result: &Value, declared: &[(String, String)], what: &str) {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    for (name, unit) in declared {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?}"
        );
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{what}: metric {name} is missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{what}: metrics beyond the declared ones"
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let contract = contract();
    let end_to_end = declared(&contract, "end_to_end");
    let names: Vec<&str> = contract
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    for workload in WORKLOADS {
        assert_metrics(&smoke(workload, 11, false).0, &end_to_end, workload);
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let per_layer = declared(&contract(), "per_layer");
    assert_metrics(
        &smoke("mixed-ingest", 12, true).0,
        &per_layer,
        "mixed-ingest traced",
    );
}

#[test]
fn one_seed_gives_one_op_list() {
    // The digest is over the whole generated op list and the
    // publications to ingest.
    let digest = |seed: u64| {
        let (_, file) = smoke("search-cold", seed, false);
        file.get("ops_digest")
            .and_then(Value::as_str)
            .expect("ops_digest")
            .to_string()
    };
    let (a, b, c) = (digest(13), digest(13), digest(14));
    assert_eq!(a.len(), 16);
    assert_eq!(a, b, "the same seed must give the same ops");
    assert_ne!(a, c, "another seed must give other ops");
}

#[test]
fn the_default_run_length_is_the_contract_s() {
    let (_, file) = smoke("wire-hot", 15, false);
    assert_eq!(
        file.get("seconds").and_then(Value::as_f64),
        contract().get("run_seconds").and_then(Value::as_f64),
        "frozen::RUN_SECONDS and BENCHMARK.json's run_seconds differ"
    );
}
