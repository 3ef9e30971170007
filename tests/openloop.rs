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
/// enough to shed at an 8-slot table.
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

/// The paper's policy ordering under two non-stationary shapes over the
/// same cell: the flash crowd of [`crowd_spec`], and a diurnal wave
/// (trough 200 / peak 2 400 rps, 500 ms period, 24 steps). Every count is
/// a pure function of the seed, so the cells are pinned exactly: a change
/// to the protocol, the arrival engine or admission shows up here as a
/// number, not as a drifting ratio.
#[test]
fn master_preserving_beats_global_lru_through_the_crowd() {
    let wave = OpenLoopProcess::Diurnal {
        trough_rps: 200.0,
        peak_rps: 2_400.0,
        period_ns: 500_000_000,
        steps: 24,
    };
    // (shape, (mp hits, glru hits), accesses, served, shed)
    let cells = [
        ("flash crowd", None, (571, 561), 598, 598, 302),
        ("diurnal", Some(wave), (793, 719), 820, 820, 80),
    ];
    for (shape, process, (mp_hits, glru_hits), accesses, served, shed) in cells {
        let cell = |policy| {
            let mut spec = crowd_spec();
            spec.policy = policy;
            if let (Some(p), Arrivals::Open { process, .. }) = (process, &mut spec.arrivals) {
                *process = p;
            }
            run(&spec)
        };
        let mp_run = cell(ReplacementPolicy::MasterPreserving);
        let glru_run = cell(ReplacementPolicy::GlobalLru);
        assert!(mp_run.reconciled && glru_run.reconciled, "{shape}");
        assert!(
            mp_run.total_hit_ratio() > glru_run.total_hit_ratio(),
            "{shape}: policy ordering lost: mp {:.4} <= glru {:.4}",
            mp_run.total_hit_ratio(),
            glru_run.total_hit_ratio()
        );
        // Both policies face the identical offered schedule; the
        // comparison is apples-to-apples by construction.
        assert_eq!(mp_run.offered_events, glru_run.offered_events);
        assert_eq!(mp_run.shed + mp_run.served, glru_run.shed + glru_run.served);
        for (run, hits) in [(&mp_run, mp_hits), (&glru_run, glru_hits)] {
            assert_eq!(
                (run.hits, run.accesses, run.served, run.shed),
                (hits, accesses, served, shed),
                "{shape} {:?}: pinned cell moved",
                run.spec.policy
            );
        }
    }
}
