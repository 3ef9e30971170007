//! Shared experiment plumbing: run matrices, CSV output, pretty tables.

use ccm_traces::{Preset, Workload};
use ccm_webserver::{CcmVariant, RunMetrics, ServerKind, SimConfig};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// The megabyte, for sweep definitions.
pub const MB: u64 = 1024 * 1024;

/// Full (paper-scale) or quick (smoke-test) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Paper-scale: 30k warm-up + 60k measured requests per point.
    Full,
    /// Smoke-test scale for CI: ~10× smaller.
    Quick,
}

impl ExperimentScale {
    /// Resolve from `--quick` argv or `CCM_QUICK=1`.
    pub fn from_env() -> ExperimentScale {
        let quick_flag = std::env::args().any(|a| a == "--quick");
        let quick_env = std::env::var("CCM_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
        if quick_flag || quick_env {
            ExperimentScale::Quick
        } else {
            ExperimentScale::Full
        }
    }

    fn apply(self, mut cfg: SimConfig) -> SimConfig {
        match self {
            ExperimentScale::Full => cfg,
            ExperimentScale::Quick => {
                cfg.warmup_requests = 4_000;
                cfg.measure_requests = 6_000;
                cfg.clients_per_node = 16;
                cfg
            }
        }
    }
}

/// The per-node memory sweep of Figure 2 (4–512 MB).
pub fn mem_sweep() -> Vec<u64> {
    vec![4, 8, 16, 32, 64, 128, 256, 512]
        .into_iter()
        .map(|m| m * MB)
        .collect()
}

/// The four server flavors of Figure 2, in plot order.
pub fn paper_servers() -> Vec<ServerKind> {
    vec![
        ServerKind::L2s { handoff: true },
        ServerKind::Ccm(CcmVariant::basic()),
        ServerKind::Ccm(CcmVariant::scheduled()),
        ServerKind::Ccm(CcmVariant::master_preserving()),
    ]
}

/// Caches workloads and runs simulations for one experiment binary.
pub struct Runner {
    scale: ExperimentScale,
    workloads: HashMap<Preset, Arc<Workload>>,
    /// Collected CSV rows (header written separately).
    rows: Vec<String>,
}

impl Runner {
    /// A runner at the scale selected by the environment.
    pub fn from_env() -> Runner {
        Runner::new(ExperimentScale::from_env())
    }

    /// A runner at an explicit scale.
    pub fn new(scale: ExperimentScale) -> Runner {
        Runner {
            scale,
            workloads: HashMap::new(),
            rows: Vec::new(),
        }
    }

    /// The scale in force.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The (cached) workload for a preset.
    pub fn workload(&mut self, preset: Preset) -> Arc<Workload> {
        self.workloads
            .entry(preset)
            .or_insert_with(|| Arc::new(preset.workload()))
            .clone()
    }

    /// Run one point: `server` on `nodes` nodes with `mem` bytes/node over
    /// `preset`, with optional config tweaks applied first.
    pub fn run_with(
        &mut self,
        preset: Preset,
        server: ServerKind,
        nodes: usize,
        mem: u64,
        tweak: impl FnOnce(&mut SimConfig),
    ) -> RunMetrics {
        let w = self.workload(preset);
        let mut cfg = self.scale.apply(SimConfig::paper(server, nodes, mem));
        tweak(&mut cfg);
        ccm_webserver::run(&cfg, &w)
    }

    /// Run one point with default configuration.
    pub fn run(
        &mut self,
        preset: Preset,
        server: ServerKind,
        nodes: usize,
        mem: u64,
    ) -> RunMetrics {
        self.run_with(preset, server, nodes, mem, |_| {})
    }

    /// Append a CSV data row (prefix columns + the metrics row).
    pub fn record(&mut self, prefix: &str, m: &RunMetrics) {
        self.rows.push(format!("{prefix},{}", m.csv_row()));
    }

    /// Write collected rows to `results/<name>.csv` with the given prefix
    /// header, returning the path.
    pub fn write_csv(&self, name: &str, prefix_header: &str) -> PathBuf {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path).expect("create csv");
        writeln!(f, "{prefix_header},{}", RunMetrics::csv_header()).unwrap();
        for r in &self.rows {
            writeln!(f, "{r}").unwrap();
        }
        path
    }
}

/// Where CSVs land: `$CCM_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("CCM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Fixed-width table printer for experiment stdout.
pub struct Table {
    header: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            widths: header.iter().map(|h| h.len()).collect(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.header, &self.widths));
        let total: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
        println!("{}", "-".repeat(total));
        for r in &self.rows {
            println!("{}", line(r, &self.widths));
        }
    }
}

/// Format requests/second for tables.
pub fn fmt_rps(x: f64) -> String {
    format!("{x:.0}")
}

/// Format a ratio (normalized throughput etc.).
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_the_papers() {
        let s = mem_sweep();
        assert_eq!(s.first(), Some(&(4 * MB)));
        assert_eq!(s.last(), Some(&(512 * MB)));
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn servers_cover_figure_2() {
        let labels: Vec<String> = paper_servers().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["l2s", "ccm-basic", "ccm-sched", "ccm-mp"]);
    }

    #[test]
    fn table_rendering_does_not_panic() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100000".into(), "x".into()]);
        t.print();
    }

    #[test]
    fn quick_scale_shrinks() {
        let cfg = ExperimentScale::Quick.apply(SimConfig::paper(
            ServerKind::L2s { handoff: true },
            4,
            MB,
        ));
        assert!(cfg.measure_requests <= 10_000);
    }
}
