//! Open-loop conformance: the flash-crowd experiment must be a pure
//! function of its seed — bit-identical across reruns and across LAN
//! backends in virtual time — and the paper's policy ordering must
//! survive the crowd.
//!
//! The closed-loop suites (`tests/live_conformance.rs`) prove the live
//! cluster reproduces the pure protocol on steady replay. This suite
//! extends the guarantee to the adversarial arrival shapes: a flash
//! crowd driven open-loop through a bounded in-flight table, where
//! admission itself (the M/D/c/c loss system) is part of the seeded
//! determinism contract.

use std::sync::Arc;

use ccm_load::{run, run_on, Arrivals, LoadSpec, OpenLoopProcess};
use ccm_net::TcpLan;
use coopcache::core::ReplacementPolicy;
use coopcache::traces::Preset;

/// The conformance cell: a flash crowd onto the head's coldest file, hot
/// enough to shed at a 24-slot table.
fn crowd_spec() -> LoadSpec {
    let mut spec = LoadSpec::new(Preset::Calgary);
    spec.head_files = Some(120);
    spec.nodes = 4;
    spec.capacity_blocks = 48;
    spec.warmup_requests = 300;
    spec.measure_requests = 900;
    spec.seed = 0xF1A5;
    spec.arrivals = Arrivals::Open {
        process: OpenLoopProcess::FlashCrowd {
            base_rps: 400.0,
            peak_rps: 4_000.0,
            start_ns: 500_000_000,
            duration_ns: 600_000_000,
            crowd_fraction: 0.5,
        },
        max_inflight: 8,
        workers: 8,
        virtual_time: true,
        // Virtual service ~2.5 ms/request: the 4 krps crowd offers ~10
        // Erlangs against 8 slots (heavy counted shedding), the 400 rps
        // baseline ~1 Erlang (essentially none).
        service_base_ns: 2_000_000,
        service_per_block_ns: 500_000,
    };
    spec
}

#[test]
fn flash_crowd_virtual_run_is_bit_identical_across_reruns() {
    let spec = crowd_spec();
    let a = run(&spec);
    let b = run(&spec);
    assert!(a.reconciled);
    assert!(a.shed > 0, "crowd never hit the in-flight bound");
    assert_eq!(a.served + a.shed, a.offered_events);
    assert_eq!(a.deterministic_json(), b.deterministic_json());
}

#[test]
fn flash_crowd_virtual_run_is_identical_over_tcp() {
    let spec = crowd_spec();
    let channel = run(&spec);
    let lan = Arc::new(TcpLan::loopback(spec.nodes).expect("bind loopback"));
    let tcp = run_on(&spec, lan, "tcp");
    assert!(tcp.reconciled);
    // Same seed, same admission, same caching decisions — the transport
    // must be invisible to every deterministic field but its own label.
    assert_eq!(
        channel
            .deterministic_json()
            .replace("\"channel\"", "\"tcp\""),
        tcp.deterministic_json()
    );
}

#[test]
fn master_preserving_beats_global_lru_through_the_crowd() {
    let mut mp = crowd_spec();
    mp.policy = ReplacementPolicy::MasterPreserving;
    let mut glru = crowd_spec();
    glru.policy = ReplacementPolicy::GlobalLru;
    let mp_run = run(&mp);
    let glru_run = run(&glru);
    assert!(mp_run.reconciled && glru_run.reconciled);
    assert!(
        mp_run.total_hit_ratio() >= glru_run.total_hit_ratio(),
        "policy ordering inverted through the crowd: mp {:.4} < glru {:.4}",
        mp_run.total_hit_ratio(),
        glru_run.total_hit_ratio()
    );
    // Both policies face the identical offered schedule; the comparison
    // is apples-to-apples by construction.
    assert_eq!(mp_run.offered_events, glru_run.offered_events);
    assert_eq!(mp_run.shed + mp_run.served, glru_run.shed + glru_run.served);
}
