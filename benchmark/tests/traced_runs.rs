//! Runs the traced benchmark end to end on small plans: the class counts
//! of a seed repeat exactly, the live cluster agrees with the protocol
//! model read for read, and `BENCHMARK.json` names what the code reports.

use benchmark::json::{self, Value};
use benchmark::report::{END_TO_END, PER_LAYER};
use benchmark::traced::{self, Plan};
use benchmark::workload::{spec_named, SPECS};
use std::time::Duration;

const PLAN: Plan = Plan {
    requests: 1_500,
    window: Duration::from_millis(40),
};

fn class_counts(workload: &str, seed: u64) -> (Vec<f64>, Value) {
    let outcome = traced::run(spec_named(workload).unwrap(), seed, PLAN);
    assert!(outcome.correct(), "{workload}: {:?}", outcome.problems);
    let full = json::parse(&outcome.full_json()).unwrap();
    let counts = full.get("class_counts").unwrap();
    let counts = ["local", "remote", "disk", "fallback"]
        .map(|c| counts.get(c).unwrap().as_f64().unwrap())
        .to_vec();
    (counts, full)
}

#[test]
fn a_seed_repeats_its_class_counts_and_matches_the_model() {
    // The churn workload takes every path: local, remote, disk, writes.
    let (first, full) = class_counts("lib_churn_rw", 5);
    let (second, _) = class_counts("lib_churn_rw", 5);
    assert_eq!(first, second, "same seed, different class counts");
    assert!(
        first[..3].iter().all(|&c| c > 0.0),
        "a class is empty: {first:?}"
    );
    let metric = |name: &str| {
        full.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no metric {name}"))
    };
    assert_eq!(metric("core.model_mismatch"), 0.0);
    assert!(metric("rt.disk_share") >= 0.4);
    assert!(full.get("writes").unwrap().as_f64().unwrap() > 0.0);
    for (name, _) in PER_LAYER {
        metric(name);
    }
    let (other, _) = class_counts("lib_churn_rw", 6);
    assert_ne!(first, other, "another seed gave the same class counts");
}

#[test]
fn the_front_tier_is_traced_over_http() {
    let (counts, full) = class_counts("front_hot", 5);
    // After the warm-up every block of the 64 hot files is a local hit.
    assert_eq!(counts[1..], [0.0, 0.0, 0.0]);
    let value = |name: &str| {
        full.get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    assert_eq!(value("core.model_mismatch"), 0.0);
    assert!(value("front.http_rtt_ns") > value("front.backend_ns"));
    assert!(value("front.backend_ns") > 0.0);
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (text("name"), text("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let specs: Vec<String> = SPECS.iter().map(|s| s.name.to_string()).collect();
    assert_eq!(workloads, specs);
    let (bounds, _) = benchmark::compare::read_contract(&std::fs::read_to_string(path).unwrap())
        .expect("the contract parses");
    assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
}
