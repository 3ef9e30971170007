//! Metric names and units, and the result a run prints and writes.
//!
//! The two tables here are the single source of the metric names;
//! `BENCHMARK.json` lists the same ones (a test compares them).

use crate::json::quote;
use std::fmt::Write as _;

/// End-to-end metrics, printed by a timed run (`--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("req_per_s", "req/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("cpu_ms_per_kreq", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`): name, unit.
/// A metric whose path the workload never takes reads 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("httpd.parse_ns", "ns"),
    ("httpd.write_ns", "ns"),
    ("front.range_ns", "ns"),
    ("front.dispatch_ns", "ns"),
    ("front.backend_ns", "ns"),
    ("front.http_rtt_ns", "ns"),
    ("front.unattributed_ns", "ns"),
    ("front.conn_setup_us", "us"),
    ("front.handoff_share", "ratio"),
    ("front.rejected", "count"),
    ("rt.read_local_ns", "ns"),
    ("rt.read_remote_ns", "ns"),
    ("rt.read_disk_ns", "ns"),
    ("rt.read_fallback_ns", "ns"),
    ("rt.self_local_ns", "ns"),
    ("rt.self_remote_ns", "ns"),
    ("rt.self_disk_ns", "ns"),
    ("rt.write_ns", "ns"),
    ("rt.local_share", "ratio"),
    ("rt.remote_share", "ratio"),
    ("rt.disk_share", "ratio"),
    ("rt.fallback_share", "ratio"),
    ("rt.evictions_per_kread", "count"),
    ("rt.forwards_per_kread", "count"),
    ("rt.store_fallbacks_per_kread", "count"),
    ("rt.fetch_sheds", "count"),
    ("rt.scale_2v1", "ratio"),
    ("core.access_local_ns", "ns"),
    ("core.access_remote_ns", "ns"),
    ("core.access_disk_ns", "ns"),
    ("core.write_ns", "ns"),
    ("core.model_mismatch", "count"),
    ("shard.get_ns", "ns"),
    ("shard.insert_ns", "ns"),
    ("lan.fetch_ns", "ns"),
    ("net.fetch_serial_ns", "ns"),
    ("net.fetch_batched_ns", "ns"),
    ("net.frames_per_train", "count"),
    ("net.frames_per_remote_hit", "count"),
    ("net.connects", "count"),
    ("net.teardowns", "count"),
    ("net.mesh_setup_ms", "ms"),
    ("disk.service_read_ns", "ns"),
    ("disk.store_read_ns", "ns"),
    ("disk.queue_self_ns", "ns"),
    ("disk.write_ns", "ns"),
    ("disk.coalesce_share", "ratio"),
    ("disk.readahead_hit_share", "ratio"),
    ("disk.physical_per_request", "ratio"),
    ("disk.seeks_per_kread", "count"),
    ("disk.max_queue_depth", "count"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.hist_record_ns", "ns"),
    ("obs.trace_push_ns", "ns"),
    ("obs.hops_per_read", "count"),
    ("obs.snapshot_us", "us"),
    ("obs.render_us", "us"),
    ("traces.build_ms", "ms"),
    ("traces.record_ns_per_req", "ns"),
    ("setup.store_create_s", "s"),
    ("setup.cluster_start_ms", "ms"),
    ("setup.warmup_s", "s"),
    ("setup.shutdown_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.explained_share", "ratio"),
    ("bench.window_cv", "ratio"),
    ("bench.noise_ratio", "ratio"),
];

/// Named values a run collects; reading a name never set gives 0.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set `name` (replacing an earlier value). Values that are not finite
    /// numbers are stored as 0: JSON has no way to write them.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, 0 if it was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Traced run (per-layer metrics) or timed run (end-to-end metrics).
    pub traced: bool,
    /// The seed the inputs came from.
    pub seed: u64,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed or returned wrong bytes, plus every failed
    /// end-of-run check.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Metrics,
    /// Values reported beside the table of the contract: name, value, unit.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Checks that failed, in words.
    pub problems: Vec<String>,
    /// Further members of the result file, as `"key":json` text.
    pub detail: Vec<String>,
}

impl Outcome {
    /// The metric table this run reports.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// True when no operation failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in self.table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                self.metrics.get(name),
                quote(unit)
            );
        }
        out.push('}');
        out
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The full result: the contract's members plus the machine stamp,
    /// the failed checks and the run's detail.
    pub fn full_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"mode\":{},\"stamp\":{{{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"fail_frac\":{},\"problems\":[{}],\"metrics\":{}",
            quote(self.workload),
            quote(if self.traced { "traced" } else { "timed" }),
            crate::machine::stamp_json(self.seed),
            self.correct(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.problems
                .iter()
                .map(|p| quote(p))
                .collect::<Vec<_>>()
                .join(","),
            self.metrics_json()
        );
        out.push_str(",\"extra\":{");
        for (i, (name, value, unit)) in self.extra.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"value\":{value},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                quote(name),
                quote(unit)
            );
        }
        out.push('}');
        for member in &self.detail {
            out.push(',');
            out.push_str(member);
        }
        out.push('}');
        out
    }

    /// Every metric by name and unit, for a person.
    pub fn human(&self) -> String {
        let mut out = format!(
            "{} ({}, seed {}): attempted {} failed {} fail_frac {}\n",
            self.workload,
            if self.traced { "traced" } else { "timed" },
            self.seed,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, unit) in self.table() {
            let _ = writeln!(out, "  {name:<32} {:>16.4} {unit}", self.metrics.get(name));
        }
        for (name, value, unit) in &self.extra {
            let _ = writeln!(out, "  {name:<32} {value:>16.4} {unit}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {p}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn outcome(traced: bool) -> Outcome {
        let mut metrics = Metrics::default();
        metrics.set("req_per_s", 1234.5);
        metrics.set("req_per_s", 1234.75);
        metrics.set("rt.local_share", f64::NAN);
        Outcome {
            workload: "lib_hot",
            traced,
            seed: 3,
            attempted: 10,
            failed: 0,
            metrics,
            extra: vec![("write_p50_us", 11.5, "us")],
            problems: Vec::new(),
            detail: vec!["\"windows\":[1,2]".into()],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_every_metric() {
        for traced in [false, true] {
            let o = outcome(traced);
            let v = json::parse(&o.contract_line()).unwrap();
            let keys: Vec<&str> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = v.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), o.table().len());
            for ((name, unit), (key, value)) in o.table().iter().zip(metrics) {
                assert_eq!(name, key);
                assert_eq!(value.get("unit").unwrap().as_str(), Some(*unit));
                assert!(value.get("value").unwrap().as_f64().is_some());
            }
        }
        let v = json::parse(&outcome(false).contract_line()).unwrap();
        let rps = v.get("metrics").unwrap().get("req_per_s").unwrap();
        assert_eq!(rps.get("value").unwrap().as_f64(), Some(1234.75));
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut o = outcome(false);
        assert!(o.correct());
        o.problems.push("block counts differ".into());
        assert!(!o.correct());
        let full = json::parse(&o.full_json()).unwrap();
        assert_eq!(full.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(full.get("problems").unwrap().as_array().unwrap().len(), 1);
        assert!(full.get("windows").is_some());
        let extra = full.get("extra").unwrap().get("write_p50_us").unwrap();
        assert_eq!(extra.get("value").unwrap().as_f64(), Some(11.5));
        assert!(o.human().contains("PROBLEM"));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
