//! `bench_load` — the live-cluster load matrix: every trace preset replayed
//! through a running middleware cluster on both LAN backends, with the
//! paper's closed-loop-client methodology, written to `BENCH_load.json`.
//!
//! Each cell is a full `ccm-load` run: N closed-loop clients per node
//! replay the preset's recorded stream, warm-up requests are discarded,
//! and the report carries throughput, latency quantiles, the hit-class
//! breakdown over the measurement window, and the reconciliation verdict
//! (driver counts vs. protocol stats vs. `ccm_rt_reads_total`).
//!
//! Besides the read-only preset matrix, the file carries two sections for
//! the write subsystem:
//!
//! * `"write"` — deterministic write-mix cells in both coherence modes
//!   (write-through and write-back), each reconciled against
//!   `ccm_rt_writes_total` and the flush counters and held to the
//!   durability epilogue.
//! * `"admission"` — the scan-heavy preset replayed with ghost-LRU
//!   admission off and on, plus the hit-ratio delta; the run aborts if
//!   admission fails to beat admission-off on this workload.
//!
//! And an `"openloop"` section — the open-loop arrival matrix on both
//! backends:
//!
//! * a steady-Poisson rate sweep in real time (three offered rates → the
//!   latency-vs-offered-load curve, queueing delay included);
//! * a flash crowd and a diurnal wave in deterministic virtual time,
//!   master-preserving vs global-LRU, through a bounded in-flight table
//!   sized so the crowd *sheds* — and the run aborts if the flash cell
//!   fails to count any shed arrivals, or if master-preserving loses the
//!   hit-ratio comparison through the crowd.
//!
//! `--quick` (or `CCM_QUICK=1`): two presets, shorter streams — the CI
//! smoke configuration. `--open-loop`: run only the open-loop matrix and
//! print its cells, leaving `BENCH_load.json` untouched (the exploration
//! mode the README quickstart uses).

use ccm_bench::harness::{json_section, write_bench_json, ExperimentScale};
use ccm_load::{run, run_on, Arrivals, LoadReport, LoadSpec, OpenLoopProcess};
use ccm_net::TcpLan;
use ccm_rt::WriteConfig;
use ccm_traces::{Preset, ScanConfig};
use std::sync::Arc;

fn spec_for(preset: Preset, quick: bool) -> LoadSpec {
    let mut spec = LoadSpec::new(preset);
    if quick {
        spec.head_files = Some(150);
        spec.warmup_requests = 150;
        spec.measure_requests = 300;
    }
    spec
}

/// One open-loop cell: the Calgary base cell (`--quick` shrinks the
/// window, not the shape) under `process`. The steady sweep runs in real
/// time through the default 32-slot table; an `adversarial` shape runs in
/// virtual time with a ~2.5 ms/request service model against 8 slots, so
/// a 4 krps crowd offers ~10 Erlangs (heavy shedding) and the baselines ~1.
fn ol_spec(quick: bool, process: OpenLoopProcess, adversarial: bool) -> LoadSpec {
    let mut spec = spec_for(Preset::Calgary, quick);
    if quick {
        spec.warmup_requests = 200;
        spec.measure_requests = 400;
    }
    spec.seed = 0x0B39;
    let (max_inflight, service_base_ns, service_per_block_ns) = if adversarial {
        (8, 2_000_000, 500_000)
    } else {
        (32, 200_000, 60_000)
    };
    spec.arrivals = Arrivals::Open {
        process,
        max_inflight,
        workers: 8,
        virtual_time: adversarial,
        service_base_ns,
        service_per_block_ns,
    };
    spec
}

/// One cell on the chosen cluster transport, reconciliation asserted.
fn run_cell(spec: &LoadSpec, backend: &str) -> LoadReport {
    let report = match backend {
        "channel" => run(spec),
        _ => {
            let lan = Arc::new(TcpLan::loopback(spec.nodes).expect("bind loopback listeners"));
            run_on(spec, lan, "tcp")
        }
    };
    println!("{}", report.summary());
    assert!(
        report.reconciled,
        "{backend} {}: driver and runtime counters disagree",
        report.preset
    );
    report
}

/// The open-loop matrix: {steady sweep, flash crowd, diurnal} × {channel,
/// tcp}, the adversarial cells across both policies.
fn openloop_matrix(quick: bool) -> Vec<LoadReport> {
    use ccm_core::ReplacementPolicy::{GlobalLru, MasterPreserving};
    let mut cells = Vec::new();
    // Three offered rates in real time: the latency-vs-offered-load
    // curve. Rates are scaled up in quick mode so the wall time stays
    // short even with fewer events.
    let rates: &[f64] = if quick {
        &[400.0, 1_200.0, 3_600.0]
    } else {
        &[200.0, 600.0, 1_800.0]
    };
    for backend in ["channel", "tcp"] {
        for &rate_rps in rates {
            let process = OpenLoopProcess::Poisson { rate_rps };
            cells.push(run_cell(&ol_spec(quick, process, false), backend));
        }
        let mut flash = Vec::new();
        for policy in [MasterPreserving, GlobalLru] {
            let crowd = OpenLoopProcess::FlashCrowd {
                base_rps: 400.0,
                peak_rps: 4_000.0,
                start_ns: 200_000_000,
                duration_ns: 400_000_000,
                crowd_fraction: 0.5,
            };
            let mut spec = ol_spec(quick, crowd, true);
            spec.policy = policy;
            let report = run_cell(&spec, backend);
            assert!(
                report.shed > 0,
                "{backend} flash crowd never hit the in-flight bound — \
                 the overload cell is not overloaded"
            );
            flash.push(cells.len());
            cells.push(report);

            let wave = OpenLoopProcess::Diurnal {
                trough_rps: 200.0,
                peak_rps: 2_400.0,
                period_ns: 500_000_000,
                steps: 24,
            };
            let mut spec = ol_spec(quick, wave, true);
            spec.policy = policy;
            cells.push(run_cell(&spec, backend));
        }
        // The headline: master-preserving must carry a better cluster
        // hit ratio than global-LRU *through the crowd*.
        let (mp, glru) = (&cells[flash[0]], &cells[flash[1]]);
        assert!(
            mp.total_hit_ratio() >= glru.total_hit_ratio(),
            "{backend}: master-preserving lost the flash crowd \
             (mp {:.4} vs glru {:.4})",
            mp.total_hit_ratio(),
            glru.total_hit_ratio()
        );
        println!(
            "{backend} flash crowd: mp hit {:.1}% vs glru {:.1}%, \
             shed {} of {} offered",
            100.0 * mp.total_hit_ratio(),
            100.0 * glru.total_hit_ratio(),
            mp.shed,
            mp.offered_events
        );
    }
    cells
}

fn main() {
    let quick = ExperimentScale::is_quick();
    if std::env::args().any(|a| a == "--open-loop") {
        let cells = openloop_matrix(quick);
        println!(
            "\nopen-loop only: {} cells, BENCH_load.json untouched",
            cells.len()
        );
        return;
    }
    let presets: &[Preset] = if quick {
        &[Preset::Calgary, Preset::Rutgers]
    } else {
        &Preset::all()
    };

    let mut cells = Vec::new();
    for &preset in presets {
        let spec = spec_for(preset, quick);
        for backend in ["channel", "tcp"] {
            cells.push(run_cell(&spec, backend));
        }
    }

    // Write-mix cells: deterministic replay (the write path's shadow
    // verification and counter reconciliation require in-order ops), one
    // cell per coherence mode.
    let mut write_cells = Vec::new();
    for (label, write) in [
        ("through", WriteConfig::through()),
        ("back", WriteConfig::back(32)),
    ] {
        let mut spec = spec_for(Preset::Calgary, true);
        spec.arrivals = Arrivals::closed(true);
        spec.write_ratio = 0.2;
        spec.write = write;
        let report = run_cell(&spec, "channel");
        assert_eq!(
            report.write_stats.lost, 0,
            "write-{label}: lost an acked write"
        );
        write_cells.push(report);
    }

    // Admission on/off on the scan-heavy variant: the same sweeping scan
    // stream, with and without the ghost-LRU filter. The cell is sized so
    // the scan *almost* fits: a single pass only creates masters (never
    // admission-gated), so the filter's value is stopping the replica
    // churn of repeated sweeps from displacing body masters. The window
    // covers many full sweeps — with one pass the two runs are identical
    // by construction.
    let scan = ScanConfig {
        scan_files: 128,
        scan_file_bytes: 8 * 1024,
        period: 2,
    };
    let mut admission_cells = Vec::new();
    for ghosts in [None, Some(256)] {
        let mut spec = spec_for(Preset::Calgary, true);
        spec.arrivals = Arrivals::closed(true);
        spec.capacity_blocks = 48;
        spec.warmup_requests = 600;
        spec.measure_requests = 3000;
        spec.scan = Some(scan);
        spec.admission_ghosts = ghosts;
        admission_cells.push(run_cell(&spec, "channel"));
    }
    let (adm_off, adm_on) = (&admission_cells[0], &admission_cells[1]);
    let delta = adm_on.total_hit_ratio() - adm_off.total_hit_ratio();
    assert!(
        delta > 0.0,
        "admission must beat admission-off on the scan-heavy preset \
         (on {:.4} vs off {:.4})",
        adm_on.total_hit_ratio(),
        adm_off.total_hit_ratio()
    );
    println!(
        "admission delta on {}: +{:.2}% total hit ratio ({} rejected, {} ghost hits)",
        adm_on.preset,
        100.0 * delta,
        adm_on.admission.rejected,
        adm_on.admission.ghost_hits
    );

    // The open-loop matrix: steady sweep, flash crowd, diurnal wave.
    let openloop_cells = openloop_matrix(quick);

    let sections = [
        json_section("cells", &cells),
        json_section("write", &write_cells),
        json_section("admission", &admission_cells),
        json_section("openloop", &openloop_cells),
        format!(
            "  \"admission_delta\": {{ \"preset\": \"{}\", \"off_hit_ratio\": {:.6}, \
             \"on_hit_ratio\": {:.6}, \"delta\": {:.6} }}",
            adm_on.preset,
            adm_off.total_hit_ratio(),
            adm_on.total_hit_ratio(),
            delta
        ),
    ];
    let json = format!(
        "{{\n  \"bench\": \"bench_load\",\n  \"quick\": {quick},\n{}\n}}\n",
        sections.join(",\n")
    );
    write_bench_json("load", &json);
}
