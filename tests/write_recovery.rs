//! The dirty-crash recovery battery: the write subsystem's durability
//! contract under seeded link faults and node crashes, on both LAN
//! backends.
//!
//! The contract under test (see `ccm-rt`'s `write` module):
//!
//! * **Write-through** — an acked write is on the store before the ack;
//!   crashes lose nothing, ever.
//! * **Write-back** — a crash may lose at most `dirty_budget` acked
//!   writes, and every loss is *detected*: the block appears in
//!   `lost_writes()`, and reads serve the last **persisted** image (the
//!   pristine base or an earlier flushed payload) — never garbage, and
//!   never a silent claim that the lost write survived.
//!
//! Oracles: byte integrity on every read against a shadow model of the
//! acked payloads (corrected for detected losses), the loss bound, the
//! persisted-image rule on every detected loss, bit-identical same-seed
//! replay, and cross-backend agreement.

use ccm_testkit::{fnv1a, start_cluster, Backend, FNV_OFFSET};
use coopcache::core::{BlockId, CacheStats, FileId, NodeId, ReplacementPolicy};
use coopcache::rt::store::{read_file_direct, MemStore, SyntheticStore};
use coopcache::rt::BlockStore;
use coopcache::rt::{Catalog, FaultPlan, Middleware, RtConfig, WriteConfig, WriteMode};
use coopcache::simcore::Rng;
use coopcache::traces::WriteMix;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

const NODES: usize = 4;
const OPS: u64 = 160;
const DIRTY_BUDGET: usize = 6;
const WRITE_RATIO: f64 = 0.3;

/// Everything observable from one write-torture run. `PartialEq` is the
/// replayability oracle: same seed, same backend (or the other backend)
/// must reproduce this bit for bit.
#[derive(Debug, PartialEq, Eq)]
struct WriteOutcome {
    /// FNV-1a digest over every delivered read plus the final full
    /// read-back of the catalog through the protocol.
    digest: u64,
    /// Protocol counters at the end of the run.
    stats: CacheStats,
    /// (writes, flushes, lost, recovered) from the runtime's write stats.
    writes: (u64, u64, u64, u64),
    /// Every block whose acked write was recorded lost, in block order.
    lost_blocks: Vec<BlockId>,
    /// Crash/restart events executed.
    crashes: usize,
}

/// Drive `OPS` deterministic mixed read/write operations through a faulted
/// cluster, crash one node at the midpoint and restart it at the 3/4
/// mark, and hold every read to the shadow oracle. Quiesces after every
/// operation so the outcome is a pure function of `(backend, seed, mode)`.
fn run_write_torture(backend: Backend, seed: u64, mode: WriteMode, faults: bool) -> WriteOutcome {
    let mut size_rng = Rng::new(seed).substream(1);
    let sizes: Vec<u64> = (0..24).map(|_| 1 + size_rng.next_below(12_000)).collect();
    let catalog = Catalog::new(sizes);
    let n_files = catalog.num_files() as u64;
    let store = Arc::new(MemStore::new(catalog.clone(), seed));
    let pristine = SyntheticStore::new(catalog.clone(), seed);
    let write_cfg = match mode {
        WriteMode::Through => WriteConfig::through(),
        WriteMode::Back => WriteConfig::back(DIRTY_BUDGET),
    };
    let cfg = RtConfig {
        nodes: NODES,
        capacity_blocks: 16,
        policy: ReplacementPolicy::MasterPreserving,
        fetch_timeout: backend.torture_fetch_timeout(),
        faults: faults.then(|| FaultPlan::torture(seed, NODES, OPS)),
        write: write_cfg,
        ..RtConfig::default()
    };
    let mw = start_cluster(backend, cfg, catalog.clone(), store.clone());

    let mix = WriteMix::new(seed, WRITE_RATIO);
    let victim = NodeId((seed % NODES as u64) as u16);
    // The expected current bytes of every written block, corrected when a
    // crash demotes a block to its persisted image.
    let mut expected: HashMap<BlockId, Vec<u8>> = HashMap::new();
    // Every payload ever acked per block — the persisted-image rule says a
    // detected loss must read as one of these or the pristine base.
    let mut acked: HashMap<BlockId, Vec<Vec<u8>>> = HashMap::new();
    let mut seen_lost: BTreeSet<BlockId> = BTreeSet::new();
    let mut digest = FNV_OFFSET;
    let mut crashes = 0usize;
    let mut down = false;

    let mut op_rng = Rng::new(seed).substream(2);
    for op in 0..OPS {
        if op == OPS / 2 {
            mw.crash_node(victim);
            mw.check_invariants();
            down = true;
            crashes += 1;
            // Reconcile every loss the crash detected, on the spot.
            let lost_now: Vec<BlockId> = mw
                .lost_writes()
                .into_iter()
                .filter(|b| !seen_lost.contains(b))
                .collect();
            match mode {
                WriteMode::Through => {
                    assert!(lost_now.is_empty(), "write-through may never lose a write")
                }
                WriteMode::Back => assert!(
                    lost_now.len() <= DIRTY_BUDGET,
                    "crash lost {} writes, budget is {DIRTY_BUDGET}",
                    lost_now.len()
                ),
            }
            for b in lost_now {
                let img = store.read_block(b);
                let was_acked = acked.get(&b).is_some_and(|h| h.contains(&img));
                assert!(
                    img == pristine.read_block(b) || was_acked,
                    "lost block {b:?} persisted bytes are neither pristine nor \
                     a previously acked payload"
                );
                expected.insert(b, img);
                seen_lost.insert(b);
            }
        }
        if op == OPS * 3 / 4 {
            mw.restart_node(victim);
            mw.check_invariants();
            down = false;
        }

        let node = loop {
            let n = NodeId(op_rng.next_below(NODES as u64) as u16);
            if !(down && n == victim) {
                break n;
            }
        };
        let file = FileId(op_rng.next_below(n_files) as u32);
        if mix.is_write(op) {
            let block = BlockId::new(file, 0);
            let fill = (op as u8) ^ (file.0 as u8) ^ 0xB7;
            let payload = vec![fill; catalog.block_bytes(block) as usize];
            mw.handle(node)
                .write_block(block, &payload)
                .expect("MemStore accepts writes");
            acked.entry(block).or_default().push(payload.clone());
            expected.insert(block, payload);
        } else {
            let got = mw.handle(node).read_file(file);
            let mut want = read_file_direct(&*store, &catalog, file);
            for b in 0..coopcache::core::block::blocks_of_file(want.len() as u64) {
                if let Some(p) = expected.get(&BlockId::new(file, b)) {
                    let off = b as usize * coopcache::core::block::BLOCK_SIZE as usize;
                    want[off..off + p.len()].copy_from_slice(p);
                }
            }
            assert_eq!(
                got,
                want,
                "{} seed {seed} op {op}: file {file:?} diverged from the shadow",
                backend.name()
            );
            fnv1a(&mut digest, &got);
        }
        mw.quiesce();
    }

    // Drain the dirty set, then the whole catalog must read as the shadow
    // predicts — and every surviving acked payload must now be durable.
    mw.quiesce();
    mw.flush_dirty();
    assert_eq!(mw.dirty_blocks(), 0, "flush left the dirty set non-empty");
    mw.check_invariants();
    for (block, payload) in &expected {
        assert_eq!(
            &store.read_block(*block),
            payload,
            "block {block:?} not durable after the final flush"
        );
    }
    for f in 0..n_files {
        let file = FileId(f as u32);
        let got = mw.handle(NodeId(0)).read_file(file);
        fnv1a(&mut digest, &got);
    }

    let ws = mw.write_stats();
    let out = WriteOutcome {
        digest,
        stats: mw.stats(),
        writes: (ws.writes, ws.flushes, ws.lost, ws.recovered),
        lost_blocks: mw.lost_writes(),
        crashes,
    };
    mw.shutdown();
    out
}

/// CI shards the chaos seeds across a matrix via `WRITE_SEED_SHARD=<k>`
/// (mod 2); all seeds run locally when the variable is unset.
fn sharded_seeds() -> Vec<u64> {
    let shard: Option<u64> = std::env::var("WRITE_SEED_SHARD")
        .ok()
        .and_then(|v| v.parse().ok());
    (0..4u64)
        .filter(|s| shard.is_none_or(|k| s % 2 == k))
        .collect()
}

/// The durability contract under link faults and a mid-run crash, for
/// every seed shard on both backends: write-back losses stay within the
/// budget and are always detected with a persisted image (asserted inside
/// the driver), and the run must actually exercise writes and the crash.
#[test]
fn dirty_crash_durability_contract_holds_on_both_backends() {
    for seed in sharded_seeds() {
        for backend in Backend::all() {
            let out = run_write_torture(backend, seed, WriteMode::Back, true);
            assert_eq!(out.crashes, 1, "{} seed {seed}: no crash", backend.name());
            assert!(
                out.writes.0 > 0,
                "{} seed {seed}: no writes",
                backend.name()
            );
            assert!(
                out.writes.2 as usize <= DIRTY_BUDGET,
                "{} seed {seed}: lost {} > budget",
                backend.name(),
                out.writes.2
            );
        }
    }
}

/// Write-through under the same faults and crash: zero losses, every
/// acked payload durable the moment it was acked.
#[test]
fn write_through_crash_never_loses_an_acked_write() {
    for seed in sharded_seeds() {
        let out = run_write_torture(Backend::Channel, seed, WriteMode::Through, true);
        assert_eq!(out.writes.2, 0, "seed {seed}: write-through lost a write");
        assert!(out.lost_blocks.is_empty());
        assert_eq!(out.writes.1, 0, "write-through has nothing to flush");
        assert!(out.writes.0 > 0);
    }
}

/// Replayability: the same `(seed, mode)` produces a bit-identical
/// outcome — digest, protocol counters, write stats, and the exact set of
/// lost blocks — across reruns.
#[test]
fn same_seed_write_torture_is_bit_identical() {
    for seed in [3u64, 11] {
        let a = run_write_torture(Backend::Channel, seed, WriteMode::Back, true);
        let b = run_write_torture(Backend::Channel, seed, WriteMode::Back, true);
        assert_eq!(a, b, "seed {seed}: write-torture reruns diverged");
    }
}

/// Cross-backend agreement: loopback TCP must reproduce the channel
/// outcome bit for bit, losses included.
#[test]
fn channel_and_tcp_agree_on_write_outcomes() {
    let a = run_write_torture(Backend::Channel, 5, WriteMode::Back, true);
    let t = run_write_torture(Backend::Tcp, 5, WriteMode::Back, true);
    assert_eq!(a, t, "TCP write-torture outcome diverges from channel");
}

/// The graceful path loses nothing: a member that wrote dirty blocks and
/// then *leaves* (handoff, not crash) hands its masters over and flushes
/// its dirty set — zero lost masters, zero lost writes, every payload
/// durable.
#[test]
fn graceful_leave_loses_zero_masters_and_zero_writes() {
    let catalog = Catalog::new(vec![9_000; 12]);
    let store = Arc::new(MemStore::new(catalog.clone(), 77));
    let mw = Middleware::start(
        RtConfig {
            nodes: 3,
            capacity_blocks: 24,
            write: WriteConfig::back(32),
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );
    let leaver = NodeId(1);
    let mut payloads = Vec::new();
    for f in 0..8u32 {
        let block = BlockId::new(FileId(f), 0);
        let payload = vec![(f as u8) ^ 0x3E; catalog.block_bytes(block) as usize];
        mw.handle(leaver)
            .write_block(block, &payload)
            .expect("write");
        payloads.push((block, payload));
    }
    mw.quiesce();
    mw.leave_node(leaver);
    mw.check_invariants();
    assert_eq!(mw.stats().lost_masters, 0, "leave lost a master");
    assert!(mw.lost_writes().is_empty(), "leave lost an acked write");
    mw.flush_dirty();
    for (block, payload) in &payloads {
        assert_eq!(&store.read_block(*block), payload, "{block:?} not durable");
        assert_eq!(
            &*mw.handle(NodeId(0)).read_block(*block),
            payload,
            "{block:?} reads stale after the leave"
        );
    }
    mw.shutdown();
}
