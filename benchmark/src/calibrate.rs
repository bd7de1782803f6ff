//! `--calibrate`: does the benchmark repeat on this host?
//!
//! Two sets of full runs per workload on the one build, alternating
//! (A1 B1 A2 B2 ...) so both sets see the same host phases, each run
//! with another seed. Per end-to-end metric: both set medians, their
//! relative difference, each set's quartile spread and the spread of
//! all runs together. Fails when a difference exceeds half the metric's
//! bound, or the spread of all runs the bound.

use crate::estimators::{median, quartiles};
use crate::ops::Workload;
use covidkg_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Full runs per set.
const RUNS: usize = 5;

/// `(metric, bound, lower is better)` as `BENCHMARK.json` in the
/// working directory fixes them.
fn end_to_end() -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let contract = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "lower",
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn one_run(workload: Workload, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Value::parse(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed}: run was not correct: {last}",
            workload.name()
        ));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn run(out: Option<&str>) -> i32 {
    let end_to_end = match end_to_end() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut table = String::from(
        "| workload | metric | bound | median A | median B | B vs A | spread A | spread B | spread of all | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut failed = false;
    for workload in Workload::ALL {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for i in 0..RUNS {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = (set * 100 + i + 1) as u64;
                match one_run(workload, seed) {
                    Ok(metrics) => {
                        eprintln!(
                            "{} set {} seed {seed}: {metrics:?}",
                            workload.name(),
                            ["A", "B"][set]
                        );
                        for (name, v) in metrics {
                            values.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return 1;
                    }
                }
            }
        }
        for (name, bound, lower_better) in &end_to_end {
            let (Some(a), Some(b)) = (sets[0].get(name), sets[1].get(name)) else {
                eprintln!("{}: no run reported {name}", workload.name());
                return 1;
            };
            let (ma, mb) = (median(a), median(b));
            let worse = if *lower_better {
                mb / ma - 1.0
            } else {
                ma / mb - 1.0
            };
            // What the driver's acceptance computes over ten seeds; the
            // set-up time's spread is exempt there.
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            let verdict = if worse.abs() > bound / 2.0 {
                "medians differ by over half the bound"
            } else if name != "setup_s" && spread(&all) > *bound {
                "spread of all is over the bound"
            } else {
                "holds"
            };
            failed |= verdict != "holds";
            table.push_str(&format!(
                "| {} | {name} | {bound:.2} | {ma:.4} | {mb:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.2} % | {verdict} |\n",
                workload.name(),
                (mb / ma - 1.0) * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                spread(&all) * 100.0,
            ));
        }
    }
    print!("{table}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, &table) {
            eprintln!("write {path}: {e}");
            return 1;
        }
    }
    i32::from(failed)
}
