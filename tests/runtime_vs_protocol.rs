//! The threaded runtime and the pure protocol must agree.
//!
//! Driven single-threaded with the same access sequence, `ccm-rt`'s
//! middleware (threads, channels, real bytes) must produce *exactly* the
//! protocol statistics of a bare `ccm-core::ClusterCache` — the runtime adds
//! a data plane, not different caching decisions. Under concurrency it must
//! still deliver correct bytes, which `ccm-rt`'s own tests cover.

use coopcache::core::block::blocks_of_file;
use coopcache::core::{BlockId, CacheConfig, ClusterCache, FileId, NodeId, ReplacementPolicy};
use coopcache::rt::{Catalog, Middleware, RtConfig, SyntheticStore};
use coopcache::simcore::Rng;
use std::sync::Arc;

#[test]
fn runtime_matches_protocol_stats_single_threaded() {
    let nodes = 4;
    let cap = 32;
    let sizes: Vec<u64> = {
        let mut rng = Rng::new(3);
        (0..50).map(|_| rng.next_range(1, 3) * 8192).collect()
    };

    // Reference: the bare protocol.
    let mut reference = ClusterCache::new(CacheConfig::paper(
        nodes,
        cap,
        ReplacementPolicy::MasterPreserving,
    ));

    // Subject: the running middleware.
    let catalog = Catalog::new(sizes.clone());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 9));
    let mw = Middleware::start(
        RtConfig {
            nodes,
            capacity_blocks: cap,
            policy: ReplacementPolicy::MasterPreserving,
            ..RtConfig::default()
        },
        catalog,
        store,
    );

    let mut rng = Rng::new(11);
    for _ in 0..2_000 {
        let node = NodeId(rng.next_below(nodes as u64) as u16);
        let file = FileId(rng.next_below(50) as u32);
        for b in 0..blocks_of_file(sizes[file.0 as usize]) {
            reference.access(node, BlockId::new(file, b));
        }
        mw.handle(node).read_file(file);
    }

    let want = reference.stats();
    let got = mw.stats();
    assert_eq!(got.local_hits, want.local_hits, "local hits diverged");
    assert_eq!(got.remote_hits, want.remote_hits, "remote hits diverged");
    assert_eq!(got.disk_reads, want.disk_reads, "disk reads diverged");
    assert_eq!(got.forwards, want.forwards, "forwards diverged");
    assert_eq!(got.evict_drops, want.evict_drops, "evictions diverged");
    assert_eq!(
        mw.stats().store_fallbacks,
        0,
        "single-threaded use must never race"
    );
    mw.check_invariants();
    reference.check_invariants();
    mw.shutdown();
}

#[test]
fn runtime_serves_a_preset_workload() {
    // End-to-end: a calibrated preset's head (the hot files a real service
    // would see) served through the middleware, bytes verified.
    let preset = coopcache::traces::Preset::Calgary.workload();
    let sizes: Vec<u64> = preset.sizes()[..200].to_vec();
    let catalog = Catalog::new(sizes);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 1));
    let mw = Middleware::start(
        RtConfig {
            nodes: 4,
            capacity_blocks: 128,
            policy: ReplacementPolicy::MasterPreserving,
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );

    let mut rng = Rng::new(5);
    for i in 0..1_000u64 {
        let f = FileId(rng.next_below(200) as u32);
        let got = mw.handle(NodeId((i % 4) as u16)).read_file(f);
        assert_eq!(got.len() as u64, catalog.size_of(f));
    }
    let s = mw.stats();
    assert!(s.remote_hits > 0, "cooperation should have happened");
    assert!(
        s.total_hit_rate() > 0.5,
        "hot head should mostly hit: {}",
        s.total_hit_rate()
    );
    mw.shutdown();
}
