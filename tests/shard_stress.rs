//! Seeded concurrency stress for the lock-sharded data plane.
//!
//! The directory refactor split each node's block store and the write-lock
//! registry into independently locked shards (`ccm_rt::ShardedMap`) so
//! concurrent lookups/installs/evictions on different blocks stop
//! serializing on one mutex. Sharding is worthless if it trades the
//! convoy for corruption, so this suite hammers the maps from many
//! threads with overlapping block sets and checks two oracles:
//!
//! * **Byte integrity** — every read, on any node, under any interleaving
//!   of installs and evictions, returns exactly the backing store's bytes
//!   for that block (and, for written blocks, exactly the last write).
//! * **Stat reconciliation** — after quiescing, the `ccm_rt_reads_total`
//!   counter classes (`local`/`remote`/`disk`/`fallback`) sum to exactly
//!   the number of reads issued: no read lost, none double-counted, even
//!   when shard locks let reads race.
//!
//! Both LAN backends run: the channel backend exercises the shard maps
//! under maximum concurrency (no wire latency between contenders), and
//! the TCP backend layers the reactor's pipelined peer fetches on top.

use ccm_testkit::{start_cluster, Backend};
use coopcache::core::{BlockId, FileId, NodeId, ReplacementPolicy, BLOCK_SIZE};
use coopcache::rt::store::BlockStore;
use coopcache::rt::{Catalog, MemStore, RtConfig};
use coopcache::simcore::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Files whose blocks are only ever read (the overlapping read set).
const READ_FILES: u32 = 8;
/// Files whose blocks are only ever written during the write phase, one
/// file per writer thread (disjoint write sets keep the oracle exact).
const WRITE_FILES: u32 = 4;
const BLOCKS_PER_FILE: u32 = 8;

fn reads_issued(backend: Backend) -> (usize, u64) {
    match backend {
        Backend::Channel => (6, 400),
        // Real sockets on a single-core runner: fewer ops, same shapes.
        Backend::Tcp => (4, 120),
    }
}

#[test]
fn sharded_maps_survive_overlapping_readers_and_writers() {
    for backend in Backend::all() {
        let (threads, ops) = reads_issued(backend);
        let catalog = Catalog::new(vec![
            BLOCK_SIZE * BLOCKS_PER_FILE as u64;
            (READ_FILES + WRITE_FILES) as usize
        ]);
        let store = Arc::new(MemStore::new(catalog.clone(), 77));
        // Ground truth for the read-only files, computed before any
        // concurrency starts.
        let truth: Vec<Vec<Vec<u8>>> = (0..READ_FILES)
            .map(|f| {
                (0..BLOCKS_PER_FILE)
                    .map(|i| store.read_block(BlockId::new(FileId(f), i)))
                    .collect()
            })
            .collect();

        let cluster = start_cluster(
            backend,
            RtConfig {
                nodes: 3,
                // Far smaller than the working set, so installs force
                // evictions and the shard remove paths run hot.
                capacity_blocks: 24,
                policy: ReplacementPolicy::MasterPreserving,
                fetch_timeout: Duration::from_secs(5),
                ..RtConfig::default()
            },
            catalog.clone(),
            store.clone(),
        );

        // Phase 1: overlapping readers. Every thread walks its own seeded
        // schedule over the same block set from rotating nodes.
        std::thread::scope(|s| {
            for t in 0..threads {
                let cluster = &cluster;
                let truth = &truth;
                s.spawn(move || {
                    let mut rng = Rng::new(0xD1CE + t as u64);
                    for _ in 0..ops {
                        let node = NodeId(rng.next_below(3) as u16);
                        let f = rng.next_below(READ_FILES as u64) as u32;
                        let i = rng.next_below(BLOCKS_PER_FILE as u64) as u32;
                        let got = cluster.handle(node).read_block(BlockId::new(FileId(f), i));
                        assert_eq!(
                            &got[..],
                            &truth[f as usize][i as usize][..],
                            "{}: thread {t} read wrong bytes for file {f} block {i}",
                            backend.name()
                        );
                    }
                });
            }
        });

        // Phase 2: disjoint writers (one file each, exercising the sharded
        // write-lock registry) racing more overlapping readers.
        std::thread::scope(|s| {
            for w in 0..WRITE_FILES {
                let cluster = &cluster;
                s.spawn(move || {
                    let file = FileId(READ_FILES + w);
                    for version in 1..=3u8 {
                        for i in 0..BLOCKS_PER_FILE {
                            let block = BlockId::new(file, i);
                            let data = vec![version ^ i as u8; BLOCK_SIZE as usize];
                            cluster
                                .handle(NodeId(w as u16 % 3))
                                .write_block(block, &data)
                                .expect("write");
                        }
                    }
                });
            }
            for t in 0..threads {
                let cluster = &cluster;
                let truth = &truth;
                s.spawn(move || {
                    let mut rng = Rng::new(0xFEED + t as u64);
                    for _ in 0..ops {
                        let node = NodeId(rng.next_below(3) as u16);
                        let f = rng.next_below(READ_FILES as u64) as u32;
                        let i = rng.next_below(BLOCKS_PER_FILE as u64) as u32;
                        let got = cluster.handle(node).read_block(BlockId::new(FileId(f), i));
                        assert_eq!(
                            &got[..],
                            &truth[f as usize][i as usize][..],
                            "{}: reader raced writers and saw torn bytes",
                            backend.name()
                        );
                    }
                });
            }
        });

        // Written blocks must read back as exactly the last version, from
        // a node that did not perform the writes.
        let mut readbacks = 0u64;
        for w in 0..WRITE_FILES {
            for i in 0..BLOCKS_PER_FILE {
                let want = vec![3u8 ^ i as u8; BLOCK_SIZE as usize];
                let got = cluster
                    .handle(NodeId((w as u16 + 1) % 3))
                    .read_block(BlockId::new(FileId(READ_FILES + w), i));
                assert_eq!(&got[..], &want[..], "{}: write lost", backend.name());
                readbacks += 1;
            }
        }

        // Stat reconciliation: every read landed in exactly one class.
        cluster.quiesce();
        let snap = cluster.registry().snapshot();
        let total: u64 = ["local", "remote", "disk", "fallback"]
            .iter()
            .map(|c| snap.counter_sum_where("ccm_rt_reads_total", "class", c))
            .sum();
        let issued = 2 * threads as u64 * ops + readbacks;
        assert_eq!(
            total,
            issued,
            "{}: ccm_rt_reads_total classes must reconcile with issued reads",
            backend.name()
        );

        cluster.shutdown();
    }
}
