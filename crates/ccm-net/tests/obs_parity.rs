//! Cross-backend observability parity: a cluster over the in-process
//! channel LAN and one over the TCP LAN must expose the same middleware
//! and chaos metric families, with `chaos_stats()` and the registry
//! snapshot agreeing on both. The TCP backend additionally exposes
//! `ccm_net_*` wire series — and those must balance: every frame counted
//! out by a writer is counted in by the matching reader once the data
//! plane is quiescent.

use ccm_core::{BlockId, FileId, NodeId, ReplacementPolicy, BLOCK_SIZE};
use ccm_net::TcpLan;
use ccm_obs::{Registry, Snapshot};
use ccm_rt::{Catalog, Middleware, RtConfig, SyntheticStore};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const FILES: usize = 48;
const CAPACITY: usize = 16;

fn cfg(registry: &Registry) -> RtConfig {
    RtConfig {
        nodes: 2,
        capacity_blocks: CAPACITY,
        policy: ReplacementPolicy::MasterPreserving,
        fetch_timeout: Duration::from_secs(2),
        faults: None,
        obs: Some(registry.clone()),
        ..RtConfig::default()
    }
}

/// Prime one node, then read the same set from the other: exercises the
/// local, remote, and disk classes plus evictions on both backends.
fn workload(mw: &Middleware) {
    for f in 0..FILES {
        let b = BlockId::new(FileId(f as u32), 0);
        mw.handle(NodeId(0)).read_block(b);
    }
    for f in 0..FILES {
        let b = BlockId::new(FileId(f as u32), 0);
        mw.handle(NodeId(1)).read_block(b);
    }
    mw.quiesce();
}

fn families(snapshot: &Snapshot) -> BTreeSet<String> {
    snapshot.metrics.iter().map(|m| m.name.clone()).collect()
}

fn run_channel() -> (Snapshot, u64) {
    let catalog = Catalog::new(vec![BLOCK_SIZE; FILES]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));
    let registry = Registry::new();
    let mw = Middleware::start(cfg(&registry), catalog, store);
    workload(&mw);
    let snap = mw.registry().snapshot();
    let dropped = mw.chaos_stats().dropped;
    mw.shutdown();
    (snap, dropped)
}

fn run_tcp() -> (Snapshot, u64) {
    let catalog = Catalog::new(vec![BLOCK_SIZE; FILES]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));
    let registry = Registry::new();
    let lan = Arc::new(TcpLan::loopback_obs(2, &registry).expect("bind loopback"));
    let cfg = RtConfig {
        transport: Some(lan),
        ..cfg(&registry)
    };
    let mw = Middleware::start(cfg, catalog, store);
    workload(&mw);
    let snap = mw.registry().snapshot();
    let dropped = mw.chaos_stats().dropped;
    mw.shutdown();
    (snap, dropped)
}

#[test]
fn rt_and_chaos_families_match_across_backends() {
    let (ch, ch_dropped) = run_channel();
    let (tcp, tcp_dropped) = run_tcp();

    let middleware_families = |s: &Snapshot| -> BTreeSet<String> {
        families(s)
            .into_iter()
            .filter(|n| n.starts_with("ccm_rt_") || n.starts_with("ccm_chaos_"))
            .collect()
    };
    assert_eq!(
        middleware_families(&ch),
        middleware_families(&tcp),
        "middleware + chaos families must not depend on the transport"
    );

    // chaos_stats() works uniformly on both backends and agrees with the
    // registry's view (no faults configured, so both report zero drops).
    assert_eq!(ch_dropped, 0);
    assert_eq!(tcp_dropped, 0);
    assert_eq!(ch.counter_sum("ccm_chaos_dropped_total"), 0);
    assert_eq!(tcp.counter_sum("ccm_chaos_dropped_total"), 0);

    // Both backends ran the identical deterministic workload, so the
    // protocol-level counters agree exactly, not just structurally.
    for family in [
        "ccm_rt_reads_total",
        "ccm_rt_evictions_total",
        "ccm_rt_store_fallbacks_total",
    ] {
        assert_eq!(
            ch.counter_sum(family),
            tcp.counter_sum(family),
            "{family} must agree across backends"
        );
    }

    // Wire series exist only where there is a wire.
    let tcp_families = families(&tcp);
    for family in [
        "ccm_net_frames_out_total",
        "ccm_net_bytes_out_total",
        "ccm_net_frames_in_total",
        "ccm_net_bytes_in_total",
        "ccm_net_dials_total",
        "ccm_net_degrades_total",
    ] {
        assert!(
            tcp_families.contains(family),
            "TCP backend missing {family}"
        );
    }
    assert!(
        !families(&ch).iter().any(|n| n.starts_with("ccm_net_")),
        "channel backend must expose no wire series"
    );
}

#[test]
fn wire_counters_balance_once_quiescent() {
    let (tcp, _) = run_tcp();
    // Readers count a frame in before delivering it, and quiesce barriers
    // every connection, so out and in totals must agree exactly.
    let frames_out = tcp.counter_sum("ccm_net_frames_out_total");
    let frames_in = tcp.counter_sum("ccm_net_frames_in_total");
    assert!(frames_out > 0, "workload must cross the wire");
    assert_eq!(frames_out, frames_in, "every frame written must be read");
    assert_eq!(
        tcp.counter_sum("ccm_net_bytes_out_total"),
        tcp.counter_sum("ccm_net_bytes_in_total"),
        "byte accounting must balance too"
    );
    // Nothing may be left pending after quiesce + shutdown.
    let pending: i64 = tcp
        .metrics
        .iter()
        .filter(|m| m.name == "ccm_net_pending_replies")
        .map(|m| match m.value {
            ccm_obs::Value::Gauge(v) => v,
            _ => panic!("pending_replies must be a gauge"),
        })
        .sum();
    assert_eq!(pending, 0, "pending-reply depth must drain to zero");
}
