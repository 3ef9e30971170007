//! The one driver against live clusters, across both seams: simulator
//! conformance, determinism across reruns and transports, mode-invariant
//! digests, counted shedding, metric visibility, the write mix.

mod common;

use ccm_front::PolicyKind;
use ccm_load::{run, simulate, Arrivals, BackendChoice, LoadSpec, OpenLoopProcess, Target};
use ccm_rt::{WriteConfig, WriteMode};
use ccm_traces::ScanConfig;
use common::{closed, deterministic_spec, front_spec, small_spec, tcp};

/// An open-loop cell busy enough to evict and cooperate.
fn open_spec(process: OpenLoopProcess, max_inflight: usize, virtual_time: bool) -> LoadSpec {
    let mut spec = small_spec();
    spec.measure_requests = 400;
    spec.seed = 0x09E7;
    spec.arrivals = Arrivals::Open {
        process,
        max_inflight,
        workers: 4,
        virtual_time,
        service_base_ns: 200_000,
        service_per_block_ns: 60_000,
    };
    spec
}

#[test]
fn deterministic_run_matches_the_simulator() {
    let spec = deterministic_spec();
    let live = run(&spec);
    let sim = simulate(&spec);
    assert_eq!(live.measured, sim.measured);
    assert_eq!(live.blocks, sim.blocks);
    assert_eq!(live.bytes, sim.bytes);
    assert_eq!(live.measured.store_fallbacks, 0);
    assert!(live.reconciled);
    assert!(live.measured.remote_hits > 0, "no cooperation exercised");
}

/// One deterministic cell per seam combination: closed-loop handles, the
/// front door, open-loop virtual time.
fn deterministic_cells() -> [LoadSpec; 3] {
    [
        deterministic_spec(),
        front_spec(PolicyKind::ContentAware, BackendChoice::Ccm),
        open_spec(OpenLoopProcess::Poisson { rate_rps: 500.0 }, 32, true),
    ]
}

#[test]
fn deterministic_reports_are_bit_identical_across_reruns() {
    for spec in deterministic_cells() {
        let (a, b) = (run(&spec), run(&spec));
        assert!(a.reconciled);
        assert_eq!(a.served + a.shed, a.offered_events);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        // Content-aware dispatch routes to the holder instead of fetching.
        let cooperated = a.measured.remote_hits > 0 || spec.target != Target::Handle;
        assert!(cooperated, "no cooperation exercised");
    }
}

#[test]
fn tcp_transport_matches_channel_bit_for_bit() {
    let mut front = front_spec(PolicyKind::ConsistentHash, BackendChoice::Ccm);
    front.warmup_requests = 80;
    front.measure_requests = 160;
    for spec in deterministic_cells().into_iter().chain([front]) {
        let (channel, tcp) = (run(&spec), tcp(&spec));
        assert!(tcp.reconciled);
        assert_eq!((&*channel.transport, &*tcp.transport), ("channel", "tcp"));
        assert_eq!(tcp.measured, channel.measured);
        // The cluster's interconnect must not change what was served: the
        // transport shows only where it is the handle target's `backend`.
        assert_eq!(
            channel
                .deterministic_json()
                .replace("\"backend\": \"channel\"", "\"backend\": \"tcp\""),
            tcp.deterministic_json()
        );
    }
}

#[test]
fn concurrent_mode_delivers_the_same_bytes_as_deterministic() {
    let front = front_spec(PolicyKind::RoundRobin, BackendChoice::Ccm);
    for mut spec in [deterministic_spec(), front] {
        let det = run(&spec);
        spec.arrivals = closed(false);
        let conc = run(&spec);
        // Interleaving changes the protocol's decisions, never the payload
        // (round-robin dispatch is an atomic sequence, so every request
        // reads the same verified bytes in both modes).
        assert_eq!(conc.digest, det.digest);
        assert_eq!(conc.bytes, det.bytes);
        assert_eq!(conc.blocks, det.blocks);
        assert!(conc.reconciled, "driver and runtime counters disagree");
        assert!(conc.rps() > 0.0);
        assert_eq!(conc.latency.count, spec.measure_requests as u64);
    }
}

#[test]
fn serve_metrics_scrapes_a_live_exposition() {
    let mut spec = small_spec();
    spec.warmup_requests = 60;
    spec.measure_requests = 120;
    spec.serve_metrics = true;
    let report = run(&spec);
    assert_eq!(report.metrics_scrape, Some(true));
    assert!(report.reconciled);
}

/// Write-through mix: every read after a write is verified against the
/// shadow payloads inside the driver, the write counters reconcile across
/// driver / protocol / registry, and the report replays bit-identically.
#[test]
fn write_through_mix_verifies_and_reconciles() {
    let mut spec = deterministic_spec();
    spec.write_ratio = 0.25;
    let a = run(&spec);
    assert!(a.writes > 0, "mix never wrote");
    assert!(a.reconciled, "write run failed reconciliation");
    assert_eq!(a.write_stats.lost, 0);
    // Write-through persists inline: nothing for the flusher to do.
    assert_eq!(a.write_stats.flushes, 0);
    assert_eq!(a.spec.write.mode, WriteMode::Through);
    let b = run(&spec);
    assert_eq!(a.deterministic_json(), b.deterministic_json());
}

/// Write-back mix: acks outrun the store, the dirty set drains through
/// budget pressure plus the end-of-run flush, and the same durability
/// verification (shadow vs. store) still closes — on both backends, with
/// identical deterministic reports.
#[test]
fn write_back_mix_flushes_and_matches_across_backends() {
    let mut spec = deterministic_spec();
    spec.write_ratio = 0.25;
    spec.write = WriteConfig::back(16);
    let channel = run(&spec);
    assert!(channel.writes > 0);
    assert!(channel.reconciled, "write-back run failed reconciliation");
    assert_eq!(channel.write_stats.lost, 0);
    assert!(channel.write_stats.flushes > 0, "write-back never flushed");
    assert!(channel
        .deterministic_json()
        .contains("\"write_mode\": \"back\""));
    let tcp = tcp(&spec);
    assert!(tcp.reconciled);
    assert_eq!(tcp.digest, channel.digest);
    assert_eq!(tcp.writes, channel.writes);
    assert_eq!(tcp.measured, channel.measured);
}

/// Scan-heavy preset with admission on vs. off: the filter must reject
/// one-touch scan blocks (rejections observed, ghost hits possible) and
/// must beat the unfiltered run's cluster-memory hit ratio.
#[test]
fn admission_resists_the_scan_tail() {
    let mut spec = deterministic_spec();
    spec.scan = Some(ScanConfig {
        scan_files: 64,
        scan_file_bytes: 4 * 1024,
        period: 3,
    });
    let off = run(&spec);
    assert!(off.reconciled);
    assert_eq!(off.admission.rejected, 0, "admission off must not reject");
    spec.admission_ghosts = Some(128);
    let on = run(&spec);
    assert!(on.reconciled);
    assert!(on.admission.rejected > 0, "scan touches never rejected");
    assert!(
        on.total_hit_ratio() > off.total_hit_ratio(),
        "admission lost hit ratio: {} vs {}",
        on.total_hit_ratio(),
        off.total_hit_ratio()
    );
    assert_eq!((off.hits, off.accesses), (233, 300));
    assert_eq!(
        (on.hits, on.accesses, on.admission.rejected),
        (240, 300, 72)
    );
}

#[test]
fn deterministic_front_run_reconciles_on_both_backends() {
    for backend in [BackendChoice::Ccm, BackendChoice::L2s] {
        let spec = front_spec(PolicyKind::RoundRobin, backend);
        let report = run(&spec);
        assert!(
            report.reconciled,
            "{} failed reconciliation",
            report.backend()
        );
        assert_eq!(report.served, spec.measure_requests as u64);
        assert!(report.hits > 0, "{backend:?}: warm cache never hit");
        assert!(report.accesses >= report.hits);
        assert_eq!(report.backend(), backend.label());
    }
}

#[test]
fn report_json_round_trips_the_key_fields() {
    let mut closed_loop = deterministic_spec();
    closed_loop.warmup_requests = 60;
    closed_loop.measure_requests = 120;
    let closed_keys: &[&str] = &[
        "\"backend\": \"channel\"",
        "\"preset\": \"calgary-head120\"",
        "\"transport\": \"channel\"",
    ];
    let front = front_spec(PolicyKind::LoadAware, BackendChoice::L2s);
    let front_keys: &[&str] = &[
        "\"backend\": \"l2s\"",
        "\"dispatch\": \"load-aware\"",
        "\"cache_policy\": \"whole-file-lru\"",
        "\"preset\": \"calgary-head100\"",
        "\"transport\": \"-\"",
    ];
    for (spec, keys) in [(closed_loop, closed_keys), (front, front_keys)] {
        let report = run(&spec);
        let det = report.deterministic_json();
        let full = report.to_json();
        let (transport, echo) = keys.split_last().expect("keys");
        for json in [&det, &full] {
            assert!(echo.iter().all(|key| json.contains(key)), "{json}");
            assert!(json.contains(&format!("\"digest\": \"{:#018x}\"", report.digest)));
            assert!(json.contains("\"reconciled\": true"));
        }
        // Wall-clock figures and the transport label stay out of the
        // deterministic projection.
        assert!(!det.contains("elapsed_s") && !det.contains("transport"));
        assert!(full.contains(transport));
        assert!(full.contains("\"elapsed_s\"") && full.contains("\"latency_ns\""));
        assert!(!report.summary().is_empty());
    }
}

#[test]
fn tight_inflight_bound_sheds_and_counts_every_arrival() {
    let spec = open_spec(OpenLoopProcess::Poisson { rate_rps: 4_000.0 }, 2, true);
    let r = run(&spec);
    assert!(r.shed > 0, "overload did not shed: {}", r.summary());
    assert_eq!(r.served + r.shed, r.offered_events, "arrivals lost");
    assert!(r.reconciled);
}

#[test]
fn flash_crowd_metrics_visible_on_live_scrape() {
    let crowd = OpenLoopProcess::FlashCrowd {
        base_rps: 300.0,
        peak_rps: 3_000.0,
        start_ns: 200_000_000,
        duration_ns: 300_000_000,
        crowd_fraction: 0.5,
    };
    let mut spec = open_spec(crowd, 32, true);
    spec.serve_metrics = true;
    let r = run(&spec);
    assert_eq!(r.metrics_scrape, Some(true), "open-loop families missing");
    assert!(r.reconciled);
}

#[test]
fn real_time_dispatcher_accounts_for_every_arrival() {
    // Fast enough that the window is ~0.1 s of wall time, hot enough
    // that a 4-slot table sheds under the burst.
    let mut spec = open_spec(OpenLoopProcess::Poisson { rate_rps: 3_000.0 }, 4, false);
    spec.measure_requests = 300;
    let r = run(&spec);
    assert_eq!(r.served + r.shed, r.offered_events, "arrivals lost");
    assert!(r.reconciled, "driver counts diverged from registry deltas");
    assert!(r.latency.count > 0);
}

#[test]
fn churn_rotation_runs_against_the_cluster() {
    let churn = OpenLoopProcess::Churn {
        rate_rps: 800.0,
        rotate_every_ns: 100_000_000,
        shift: 17,
    };
    let r = run(&open_spec(churn, 32, true));
    assert!(r.reconciled);
    assert!(r.deterministic_json().contains("\"process\": \"churn\""));
    assert!(r.served > 0);
}
