//! The live-conformance suite: the *running* cluster must reproduce the
//! pure protocol's caching behavior on real trace workloads.
//!
//! `tests/runtime_vs_protocol.rs` proves the runtime's decisions equal the
//! bare [`ClusterCache`]'s on a synthetic catalog. This suite closes the
//! remaining gap to the paper's experiments: the *same seeded preset
//! replay* (`ccm-load`'s recorded stream, warm-up/measurement split and
//! all) is driven through both the pure-protocol simulator
//! ([`ccm_load::simulate`]) and a live middleware cluster
//! ([`ccm_load::run`]), across two presets, two memory points, and all
//! three replacement policies, asserting:
//!
//! * **Exact stats transfer** — the live measurement-window counters equal
//!   the simulator's bit for bit, with zero data-plane fallbacks, so every
//!   figure the simulator produces is a statement about the real server.
//! * **Ordering transfer** — the paper's policy ranking (master-preserving
//!   ≥ N-chance ≥ global-LRU on cluster hit ratio) holds *live* at every
//!   tested memory point because the underlying counters match.
//! * **Byte integrity** — every request's payload is verified against the
//!   backing store inside the driver (a corrupt serve panics the run).
//! * **Report determinism** — the same seed reproduces a bit-identical
//!   deterministic run report, on the channel backend and over TCP.

use ccm_load::{run, run_on, simulate, Arrivals, LoadSpec, SimReport};
use ccm_net::TcpLan;
use coopcache::core::ReplacementPolicy;
use coopcache::traces::Preset;
use std::sync::Arc;

/// The policy ladder, worst to best in the paper's figures.
const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::GlobalLru,
    ReplacementPolicy::NChance { chances: 2 },
    ReplacementPolicy::MasterPreserving,
];

/// The tested grid: two presets at two per-node memory points each — one
/// scarce (heavy eviction pressure) and one moderate, both well below the
/// working set so cooperation is the difference between policies.
fn grid() -> Vec<LoadSpec> {
    let mut cells = Vec::new();
    for preset in [Preset::Calgary, Preset::Rutgers] {
        for capacity in [24, 64] {
            let mut spec = LoadSpec::new(preset);
            spec.head_files = Some(240);
            spec.capacity_blocks = capacity;
            spec.warmup_requests = 400;
            spec.measure_requests = 900;
            spec.seed = 0x5EED;
            spec.arrivals = Arrivals::closed(true);
            cells.push(spec);
        }
    }
    cells
}

/// Every grid cell, live vs. simulator, for all three policies: the
/// measurement-window statistics must transfer exactly, and therefore so
/// must the paper's policy ordering.
#[test]
fn live_stats_match_the_simulator_and_preserve_policy_ordering() {
    for cell in grid() {
        let mut ratios = Vec::new();
        for policy in POLICIES {
            let mut spec = cell.clone();
            spec.policy = policy;
            let sim: SimReport = simulate(&spec);
            let live = run(&spec);
            assert_eq!(
                live.measured, sim.measured,
                "{} cap {} {:?}: live counters diverge from the protocol",
                live.preset, spec.capacity_blocks, policy
            );
            assert_eq!(live.blocks, sim.blocks);
            assert_eq!(live.bytes, sim.bytes);
            assert_eq!(live.measured.store_fallbacks, 0);
            assert!(live.reconciled);
            assert!(
                live.measured.remote_hits > 0,
                "{} cap {}: cell never exercised cooperation",
                live.preset,
                spec.capacity_blocks
            );
            ratios.push((live.total_hit_ratio(), live.preset.clone()));
        }
        // POLICIES is ordered worst → best; the live ratios must be too.
        let (basic, nchance, mp) = (ratios[0].0, ratios[1].0, ratios[2].0);
        assert!(
            mp >= nchance && nchance >= basic,
            "{} cap {}: live hit ratios break the paper's ordering: \
             global-lru {basic:.4}, n-chance {nchance:.4}, master-preserving {mp:.4}",
            ratios[0].1,
            cell.capacity_blocks
        );
        assert!(
            mp > basic,
            "{} cap {}: master-preserving must strictly beat global-LRU \
             (got {mp:.4} vs {basic:.4})",
            ratios[0].1,
            cell.capacity_blocks
        );
    }
}

/// Report determinism: rerunning the same deterministic spec reproduces a
/// bit-identical report projection (counters, digest, reconciliation — no
/// wall-clock fields), and the TCP backend produces the same counters and
/// payload digest as the channel backend.
#[test]
fn deterministic_reports_reproduce_across_reruns_and_backends() {
    let mut spec = LoadSpec::new(Preset::Calgary);
    spec.head_files = Some(240);
    spec.capacity_blocks = 48;
    spec.warmup_requests = 300;
    spec.measure_requests = 600;
    spec.seed = 0x5EED;
    spec.arrivals = Arrivals::closed(true);

    let a = run(&spec);
    let b = run(&spec);
    assert_eq!(
        a.deterministic_json(),
        b.deterministic_json(),
        "same seed must reproduce an identical run report"
    );

    let lan = Arc::new(TcpLan::loopback(spec.nodes).expect("bind loopback listeners"));
    let tcp = run_on(&spec, lan, "tcp");
    assert_eq!(
        tcp.measured, a.measured,
        "TCP counters diverge from channel"
    );
    assert_eq!(tcp.digest, a.digest, "TCP payload digest diverges");
    assert_eq!(tcp.bytes, a.bytes);
    assert!(tcp.reconciled);
}
