//! `--compare a.json b.json`: apply the per-metric bounds of
//! `BENCHMARK.json` to two result files and print one row per
//! (metric, workload).
//!
//! A result file is a JSON array of the full results `--out` writes (one
//! object is read as an array of one). Only timed results are compared;
//! several per workload are reduced to their median.

use crate::hist::{median, quantile};
use crate::json::{self, Value};
use std::fmt::Write as _;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

/// The `end_to_end` metrics and the workload names of a `BENCHMARK.json`.
///
/// # Errors
/// A message saying which member is missing or malformed.
pub fn read_contract(text: &str) -> Result<(Vec<Bound>, Vec<String>), String> {
    let doc = json::parse(text)?;
    let members = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} array"))
    };
    let bounds = members("end_to_end")?
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Some(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("an end_to_end entry lacks name, unit, better or bound")?;
    let workloads = members("workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("a workload entry lacks a name")?;
    Ok((bounds, workloads))
}

/// Every timed value of `metric` on `workload` in a result file.
fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let one = std::slice::from_ref(file);
    file.as_array()
        .unwrap_or(one)
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("mode").and_then(Value::as_str) == Some("timed")
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How a metric moved from the baseline to the candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// Worse by more than the bound, but the baseline's own runs spread
    /// wider than the bound and the two sides' runs overlap.
    Unresolved,
    /// One side has no value.
    Missing,
}

/// Judge one metric: `a` are the baseline's runs, `b` the candidate's.
/// Returns the verdict and the share by which the median got worse.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, 0.0);
    }
    let (ma, mb) = (median(a.iter().copied()), median(b.iter().copied()));
    let worse_by = if bound.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if worse_by <= bound.bound {
        return (Verdict::Within, worse_by);
    }
    let spread = if a.len() >= 4 {
        let quartile = |q| quantile(a.iter().copied(), q);
        (quartile(0.75) - quartile(0.25)) / ma
    } else {
        0.0
    };
    let every_run_worse = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if bound.higher_is_better { y < x } else { y > x })
    });
    if spread > bound.bound && !every_run_worse {
        (Verdict::Unresolved, worse_by)
    } else {
        (Verdict::Worse, worse_by)
    }
}

/// Compare two result files under a contract. Returns the table and
/// whether any row is worse or missing.
///
/// # Errors
/// A message if a file is not JSON or the contract is malformed.
pub fn compare(contract: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let (bounds, workloads) = read_contract(contract)?;
    let a = json::parse(a).map_err(|e| format!("baseline: {e}"))?;
    let b = json::parse(b).map_err(|e| format!("candidate: {e}"))?;
    let mut table = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "metric", "workload", "baseline", "candidate", "worse by", "bound"
    );
    let mut bad = false;
    for bound in &bounds {
        for workload in &workloads {
            let va = values(&a, workload, &bound.name);
            let vb = values(&b, workload, &bound.name);
            let (verdict, worse_by) = judge(bound, &va, &vb);
            bad |= matches!(verdict, Verdict::Worse | Verdict::Missing);
            let _ = writeln!(
                table,
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                bound.name,
                workload,
                median(va),
                median(vb),
                worse_by * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => "MISSING",
                }
            );
        }
    }
    Ok((table, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{
        "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
        "end_to_end": [
            {"name": "req_per_s", "unit": "req/s", "better": "higher", "bound": 0.1},
            {"name": "lat_p50_us", "unit": "us", "better": "lower", "bound": 0.1}
        ]
    }"#;

    fn result(workload: &str, mode: &str, rps: f64, p50: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"metrics\":{{\"req_per_s\":{{\"value\":{rps},\"unit\":\"req/s\"}},\"lat_p50_us\":{{\"value\":{p50},\"unit\":\"us\"}}}}}}"
        )
    }

    #[test]
    fn rows_say_within_or_worse_by_direction() {
        let a = format!(
            "[{},{},{}]",
            result("w1", "timed", 1000.0, 50.0),
            result("w2", "timed", 1000.0, 50.0),
            result("w1", "traced", 1.0, 1.0)
        );
        let b = format!(
            "[{},{}]",
            result("w1", "timed", 950.0, 60.0),
            result("w2", "timed", 1200.0, 45.0)
        );
        let (table, bad) = compare(CONTRACT, &a, &b).unwrap();
        assert!(bad);
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].contains("req_per_s") && rows[0].ends_with("within"));
        assert!(rows[1].ends_with("within"), "a gain is within: {}", rows[1]);
        assert!(rows[2].contains("lat_p50_us") && rows[2].ends_with("WORSE"));
        assert!(rows[3].ends_with("within"));
        let (_, bad) = compare(CONTRACT, &a, &a).unwrap();
        assert!(!bad);
    }

    #[test]
    fn a_noisy_baseline_makes_a_loss_unresolved_unless_every_run_lost() {
        let bound = Bound {
            name: "lat".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        let noisy = [80.0, 90.0, 100.0, 110.0, 130.0];
        assert_eq!(
            judge(&bound, &noisy, &[120.0, 125.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&bound, &noisy, &[140.0, 150.0]).0, Verdict::Worse);
        let steady = [99.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(&bound, &steady, &[120.0]).0, Verdict::Worse);
        assert_eq!(judge(&bound, &steady, &[105.0]).0, Verdict::Within);
        assert_eq!(judge(&bound, &steady, &[]).0, Verdict::Missing);
    }

    #[test]
    fn a_missing_workload_is_reported() {
        let a = format!("[{}]", result("w1", "timed", 1000.0, 50.0));
        let (table, bad) = compare(CONTRACT, &a, &a).unwrap();
        assert!(bad && table.contains("MISSING"));
        assert!(read_contract("{}").is_err());
    }
}
