//! The refactor oracle for the one-driver fold: the `deterministic_json`
//! of six cells, captured from the three pre-fold drivers (closed-loop,
//! front-door, open-loop) at the parent commit. The one pipeline
//! must still emit every pinned `"key": value` pair — digest included, key
//! order free — on the channel LAN, and the CCM cells over `TcpLan` too.
//! The front tier's `range_every` / `faulted_blocks` keys went with the
//! range knob nobody set.

mod common;

use std::collections::BTreeSet;

use ccm_front::PolicyKind;
use ccm_load::{run, Arrivals, BackendChoice, LoadSpec, OpenLoopProcess, Target};
use ccm_rt::WriteConfig;
use ccm_traces::ScanConfig;
use common::{deterministic_spec as closed_cell, front_spec as front_cell};

const CLOSED_READ_ONLY: &str = r#"{
"backend": "channel", "preset": "calgary-head120", "policy": "master-preserving",
"nodes": 3, "clients_per_node": 2, "capacity_blocks": 48, "warmup_requests": 150,
"measure_requests": 300, "seed": 12648430, "deterministic": true, "blocks": 300,
"bytes": 227844, "digest": "0x41816c46586ef472", "local_hits": 186, "remote_hits": 79,
"disk_reads": 35, "store_fallbacks": 0, "forwards": 0, "local_hit_ratio": 0.620000,
"total_hit_ratio": 0.883333, "write_ratio": 0.000, "write_mode": "through", "writes": 0,
"flushes": 0, "lost_writes": 0, "admission_ghosts": null, "admission_admitted": 0,
"admission_rejected": 0, "admission_ghost_hits": 0, "reconciled": true
}"#;

const WRITE_BACK: &str = r#"{
"backend": "channel", "preset": "calgary-head120", "policy": "master-preserving",
"nodes": 3, "clients_per_node": 2, "capacity_blocks": 48, "warmup_requests": 150,
"measure_requests": 300, "seed": 12648430, "deterministic": true, "blocks": 226,
"bytes": 168466, "digest": "0x68e5cddbf0a6ea25", "local_hits": 108, "remote_hits": 91,
"disk_reads": 27, "store_fallbacks": 0, "forwards": 0, "local_hit_ratio": 0.477876,
"total_hit_ratio": 0.880531, "write_ratio": 0.250, "write_mode": "back", "writes": 74,
"flushes": 103, "lost_writes": 0, "admission_ghosts": null, "admission_admitted": 0,
"admission_rejected": 0, "admission_ghost_hits": 0, "reconciled": true
}"#;

const SCAN_ADMISSION: &str = r#"{
"backend": "channel", "preset": "calgary-head120-scan64", "policy": "master-preserving",
"nodes": 3, "clients_per_node": 2, "capacity_blocks": 48, "warmup_requests": 150,
"measure_requests": 300, "seed": 12648430, "deterministic": true, "blocks": 300,
"bytes": 563602, "digest": "0x2cba3c8083bdae82", "local_hits": 147, "remote_hits": 93,
"disk_reads": 60, "store_fallbacks": 0, "forwards": 30, "local_hit_ratio": 0.490000,
"total_hit_ratio": 0.800000, "write_ratio": 0.000, "write_mode": "through", "writes": 0,
"flushes": 0, "lost_writes": 0, "admission_ghosts": 128, "admission_admitted": 37,
"admission_rejected": 72, "admission_ghost_hits": 37, "reconciled": true
}"#;

const FRONT_CCM_RR: &str = r#"{
"backend": "ccm", "preset": "calgary-head100", "dispatch": "round-robin",
"cache_policy": "master-preserving", "nodes": 2, "clients_per_node": 2,
"capacity_blocks": 48, "warmup_requests": 100, "measure_requests": 200, "seed": 62471,
"deterministic": true, "requests": 200, "blocks": 200, "bytes": 150698,
"digest": "0x45c49b0cc6b8c552", "hits": 166, "accesses": 200, "hit_ratio": 0.830000,
"handoffs": 0, "reconciled": true
}"#;

const FRONT_L2S_CA: &str = r#"{
"backend": "l2s", "preset": "calgary-head100", "dispatch": "content-aware",
"cache_policy": "whole-file-lru", "nodes": 2, "clients_per_node": 2,
"capacity_blocks": 48, "warmup_requests": 100, "measure_requests": 200, "seed": 62471,
"deterministic": true, "requests": 200, "blocks": 200, "bytes": 150698,
"digest": "0x45c49b0cc6b8c552", "hits": 166, "accesses": 200, "hit_ratio": 0.830000,
"handoffs": 100, "reconciled": true
}"#;

const OPEN_FLASH: &str = r#"{
"backend": "channel", "preset": "calgary-head120", "policy": "master-preserving",
"process": "flash-crowd", "nodes": 4, "capacity_blocks": 48, "seed": 61861,
"virtual_time": true, "max_inflight": 8, "warmup_events": 200, "measure_events": 500,
"offered_events": 500, "expected_events": 455.0, "served": 309, "shed": 191,
"shed_ratio": 0.382000, "blocks": 309, "bytes": 287752, "digest": "0xcddddfe913e3bb67",
"offered_rps": 4395.6, "achieved_rps_virtual": 2716.5, "local_hits": 233,
"remote_hits": 48, "disk_reads": 28, "store_fallbacks": 0, "local_hit_ratio": 0.754045,
"total_hit_ratio": 0.909385, "reconciled": true
}"#;

/// The `"key": value` pairs of a flat JSON object (no value here holds a
/// comma).
fn pairs(json: &str) -> BTreeSet<String> {
    let inner = json.trim().trim_start_matches('{').trim_end_matches('}');
    inner.split(',').map(|p| p.trim().to_string()).collect()
}

/// Run `spec` on the channel LAN — and over TCP when `tcp` — and hold
/// each report to every pinned pair.
fn assert_pinned(spec: &LoadSpec, golden: &str, tcp: bool) {
    let check = |json: String, golden: String| {
        let got = pairs(&json);
        for pair in pairs(&golden) {
            assert!(
                got.contains(&pair),
                "pinned pair {pair} missing from {json}"
            );
        }
    };
    check(run(spec).deterministic_json(), golden.to_string());
    if tcp {
        // The handle target's `backend` is the transport label; nothing
        // else may differ.
        check(
            common::tcp(spec).deterministic_json(),
            golden.replace("\"backend\": \"channel\"", "\"backend\": \"tcp\""),
        );
    }
}

fn open_flash_cell() -> LoadSpec {
    let mut spec = closed_cell();
    spec.nodes = 4;
    spec.warmup_requests = 200;
    spec.measure_requests = 500;
    spec.seed = 0xF1A5;
    spec.arrivals = Arrivals::Open {
        process: OpenLoopProcess::FlashCrowd {
            base_rps: 400.0,
            peak_rps: 4_000.0,
            start_ns: 300_000_000,
            duration_ns: 400_000_000,
            crowd_fraction: 0.5,
        },
        max_inflight: 8,
        workers: 8,
        virtual_time: true,
        service_base_ns: 2_000_000,
        service_per_block_ns: 500_000,
    };
    spec
}

/// The six cells: closed-loop read-only; write-back with a flush cadence;
/// scan tail under admission ghosts; front CCM/round-robin; front
/// L2S/content-aware; an open-loop flash crowd in virtual time.
#[test]
fn every_pinned_pair_survives_the_fold() {
    let mut write_back = closed_cell();
    write_back.write_ratio = 0.25;
    write_back.write = WriteConfig::back_every_ops(16, 8);
    let mut scan = closed_cell();
    scan.scan = Some(ScanConfig {
        scan_files: 64,
        scan_file_bytes: 4 * 1024,
        period: 3,
    });
    scan.admission_ghosts = Some(128);
    let front_ccm = front_cell(PolicyKind::RoundRobin, BackendChoice::Ccm);
    let front_l2s = front_cell(PolicyKind::ContentAware, BackendChoice::L2s);
    assert_pinned(&closed_cell(), CLOSED_READ_ONLY, true);
    assert_pinned(&write_back, WRITE_BACK, true);
    assert_pinned(&scan, SCAN_ADMISSION, true);
    assert_pinned(&front_ccm, FRONT_CCM_RR, true);
    assert_pinned(&front_l2s, FRONT_L2S_CA, false);
    assert_pinned(&open_flash_cell(), OPEN_FLASH, true);
}

/// Every combination nobody drives is rejected up front, by name.
#[test]
fn validate_rejects_each_unsupported_combination() {
    let base = closed_cell();
    assert_eq!(base.validate(true), Ok(()), "the base cell is supported");
    let open = Arrivals::Open {
        process: OpenLoopProcess::Poisson { rate_rps: 400.0 },
        max_inflight: 32,
        workers: 8,
        virtual_time: true,
        service_base_ns: 200_000,
        service_per_block_ns: 60_000,
    };
    let front = |backend| Target::Front {
        dispatch: PolicyKind::RoundRobin,
        backend,
    };
    let writes = LoadSpec {
        write_ratio: 0.25,
        ..base.clone()
    };
    let write_mix = "write mix requires deterministic closed-loop arrivals on the handle";
    let scan = Some(ScanConfig {
        scan_files: 8,
        scan_file_bytes: 4096,
        period: 3,
    });
    #[rustfmt::skip]
    let cases = [
        (LoadSpec { nodes: 0, ..base.clone() }, false, "empty cluster"),
        (LoadSpec { measure_requests: 0, ..base.clone() }, false, "empty measurement window"),
        (LoadSpec { arrivals: Arrivals::Closed { clients_per_node: 0, deterministic: true }, ..base.clone() }, false, "no clients"),
        (LoadSpec { arrivals: open, target: front(BackendChoice::Ccm), ..base.clone() }, false, "open-loop arrivals into the front tier"),
        (LoadSpec { target: front(BackendChoice::Ccm), ..writes.clone() }, false, write_mix),
        (LoadSpec { arrivals: Arrivals::closed(false), ..writes.clone() }, false, write_mix),
        (LoadSpec { arrivals: open, ..writes.clone() }, false, write_mix),
        (LoadSpec { arrivals: open, scan, ..base.clone() }, false, "scan tail requires closed-loop arrivals"),
        (LoadSpec { serve_metrics: true, target: front(BackendChoice::Ccm), ..base.clone() }, false, "/metrics scrape is not driven through the front tier"),
        (LoadSpec { target: front(BackendChoice::L2s), ..base.clone() }, true, "L2S backend has no cluster transport"),
        (LoadSpec { admission_ghosts: Some(64), target: front(BackendChoice::L2s), ..base.clone() }, false, "L2S backend has no replica admission filter"),
    ];
    for (spec, on_transport, names) in cases {
        let err = spec.validate(on_transport).expect_err(names);
        assert!(err.contains(names), "{err:?} does not name {names:?}");
    }
}
