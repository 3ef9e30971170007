//! The multi-block read path, on both transports: `read_file` decides a
//! chunk of a file's blocks under one hold of the decision lock and fetches
//! each holder's remote hits as one `Transport::fetch_blocks` train.
//!
//! * With one caller it is the per-block read, batched: the same bytes,
//!   protocol statistics, per-class read counters, hint and admission
//!   counters as a `read_block` loop over the same operation sequence.
//! * A holder whose service thread is gone though the directory still
//!   names it degrades its blocks to the §3 store fallback at once, without
//!   sitting out the fetch timeout.
//! * Under a dropping fault plan each request meets the fault model on its
//!   own: exactly the dropped blocks fall back, and a same-seed rerun drops
//!   the same ones.
//!
//! The train counts on the wire are pinned by `ccm-net`'s
//! `tests/fast_path.rs`.

use ccm_core::{AdmissionConfig, CacheStats, DirectoryKind, FileId, NodeId, BLOCK_SIZE};
use ccm_rt::store::read_file_direct;
use ccm_rt::{Catalog, ChaosStats, FaultPlan, LinkFaults, RtConfig, SyntheticStore};
use ccm_testkit::{read_path_outcome, start_cluster, Backend, ReadMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn whole_file_reads_match_block_by_block_reads() {
    for backend in Backend::all() {
        for (directory, admission) in [
            (DirectoryKind::Perfect, None),
            (DirectoryKind::Hint, Some(AdmissionConfig::new(64))),
        ] {
            let whole = read_path_outcome(backend, directory, admission, ReadMode::WholeFile, 120);
            let blocks =
                read_path_outcome(backend, directory, admission, ReadMode::BlockByBlock, 120);
            assert_eq!(
                whole,
                blocks,
                "{} {directory:?}: batched and per-block reads diverge",
                backend.name()
            );
            // The sequence must exercise what batching reorders: remote
            // hits, and evictions that forward masters to peers.
            let s = whole.stats;
            assert!(s.remote_hits > 0 && s.forwards > 0, "{s:?}");
            assert_eq!(s.store_fallbacks, 0, "a quiesced single caller never races");
        }
    }
}

/// Node 1 masters `file`; node 0 then reads it with node 1's service
/// thread gone but the directory still naming node 1.
#[test]
fn a_dead_holders_blocks_fall_back_without_waiting() {
    for backend in Backend::all() {
        let catalog = Catalog::new(vec![4 * BLOCK_SIZE - 9; 2]);
        let store = Arc::new(SyntheticStore::new(catalog.clone(), 5));
        let timeout = Duration::from_secs(10);
        let cluster = start_cluster(
            backend,
            RtConfig {
                nodes: 3,
                capacity_blocks: 16,
                fetch_timeout: timeout,
                ..RtConfig::default()
            },
            catalog.clone(),
            store.clone(),
        );
        let file = FileId(1);
        cluster.handle(NodeId(1)).read_file(file);
        cluster.quiesce();
        cluster.sever_node(NodeId(1));
        let start = Instant::now();
        let got = cluster.handle(NodeId(0)).read_file(file);
        let waited = start.elapsed();
        assert_eq!(got, read_file_direct(&*store, &catalog, file));
        let s = cluster.stats();
        assert_eq!(
            s.remote_hits,
            4,
            "{}: the directory still names node 1",
            backend.name()
        );
        assert_eq!(
            s.store_fallbacks,
            4,
            "{}: every block fell back",
            backend.name()
        );
        assert!(
            waited < timeout / 4,
            "{}: the fall-back waited {waited:?} on a dead holder",
            backend.name()
        );
        drop(cluster);
    }
}

/// Node 1 masters an 8-block file; node 0 reads it through links that
/// drop half the data-plane messages.
fn read_through_dropping_links(backend: Backend, seed: u64) -> (CacheStats, ChaosStats, u64) {
    let catalog = Catalog::new(vec![8 * BLOCK_SIZE]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 3));
    let cluster = start_cluster(
        backend,
        RtConfig {
            nodes: 2,
            capacity_blocks: 16,
            fetch_timeout: Duration::from_millis(50),
            faults: Some(FaultPlan {
                link: LinkFaults {
                    drop_prob: 0.5,
                    ..LinkFaults::NONE
                },
                ..FaultPlan::quiet(seed)
            }),
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );
    let file = FileId(0);
    cluster.handle(NodeId(1)).read_file(file);
    let got = cluster.handle(NodeId(0)).read_file(file);
    assert_eq!(got, read_file_direct(&*store, &catalog, file));
    let remote =
        cluster
            .registry()
            .snapshot()
            .counter_sum_where("ccm_rt_reads_total", "class", "remote");
    let out = (cluster.stats(), cluster.chaos_stats(), remote);
    cluster.shutdown();
    out
}

#[test]
fn only_the_dropped_requests_fall_back() {
    for backend in Backend::all() {
        let (stats, chaos, remote) = read_through_dropping_links(backend, 4);
        assert_eq!(stats.remote_hits, 8);
        assert!(
            chaos.dropped > 0 && chaos.dropped < 8,
            "seed 4 must drop some requests, not all: {chaos:?}"
        );
        assert_eq!(stats.store_fallbacks, chaos.dropped, "{}", backend.name());
        assert_eq!(remote, 8 - chaos.dropped, "{}", backend.name());
        assert_eq!(
            read_through_dropping_links(backend, 4),
            (stats, chaos, remote),
            "{}: a same-seed rerun must drop the same requests",
            backend.name()
        );
    }
}
