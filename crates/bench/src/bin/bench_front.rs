//! `bench_front` — the live CCM-vs-L2S showdown: every trace preset
//! replayed through the HTTP front door, crossed with every dispatch
//! policy, on both backends, written to `BENCH_front.json`.
//!
//! Each cell is a full `ccm-load` front-door run: closed-loop clients
//! replay the preset's recorded stream over keep-alive connections,
//! every response byte is verified against the backing store, and the
//! report carries the block-weighted hit ratio, handoff count, latency
//! quantiles, and the reconciliation verdict (driver counts vs. the
//! front tier's `ccm_front_*` counters vs. the backend's accounting).
//!
//! The matrix is `preset × dispatch policy × backend` — the paper's
//! comparison (block-granular cooperative caching vs. L2S's whole-file
//! locality routing) plus the dispatch axis the front tier adds.
//!
//! `--quick` (or `CCM_QUICK=1`): two presets, two policies, shorter
//! streams — the CI smoke configuration.

use ccm_bench::harness::{json_section, write_bench_json, ExperimentScale};
use ccm_front::PolicyKind;
use ccm_load::{run, Arrivals, BackendChoice, LoadSpec, Target};
use ccm_traces::Preset;

fn spec_for(preset: Preset, dispatch: PolicyKind, backend: BackendChoice, quick: bool) -> LoadSpec {
    let mut spec = LoadSpec::new(preset);
    spec.arrivals = Arrivals::closed(false);
    spec.target = Target::Front { dispatch, backend };
    if quick {
        spec.head_files = Some(150);
        spec.warmup_requests = 150;
        spec.measure_requests = 300;
    }
    spec
}

fn main() {
    let quick = ExperimentScale::is_quick();
    let presets: &[Preset] = if quick {
        &[Preset::Calgary, Preset::Rutgers]
    } else {
        &Preset::all()
    };
    let policies: &[PolicyKind] = if quick {
        &[PolicyKind::RoundRobin, PolicyKind::ContentAware]
    } else {
        &PolicyKind::all()
    };
    let backends = [BackendChoice::Ccm, BackendChoice::L2s];

    let mut cells = Vec::new();
    for &preset in presets {
        for &dispatch in policies {
            for backend in backends {
                let spec = spec_for(preset, dispatch, backend, quick);
                let report = run(&spec);
                println!("{}", report.summary());
                assert!(
                    report.reconciled,
                    "{} {} {}: driver and front-tier counters disagree",
                    report.backend(),
                    report.preset,
                    dispatch.name()
                );
                cells.push(report);
            }
        }
    }

    // The headline comparison the matrix exists for: CCM vs L2S hit
    // ratio per preset, each at its best dispatch policy.
    println!("\ncluster-memory hit ratio, best policy per backend:");
    for &preset in presets {
        let best = |name: &str| {
            cells
                .iter()
                .filter(|c| c.backend() == name && c.preset.starts_with(preset.name()))
                .map(|c| c.total_hit_ratio())
                .fold(0.0f64, f64::max)
        };
        println!(
            "  {:<10} ccm {:>5.1}%  l2s {:>5.1}%",
            preset.name(),
            100.0 * best("ccm"),
            100.0 * best("l2s"),
        );
    }

    let cells = json_section("cells", &cells);
    let json = format!("{{\n  \"bench\": \"bench_front\",\n  \"quick\": {quick},\n{cells}\n}}\n");
    write_bench_json("front", &json);
}
