//! Property-based tests for the cooperative caching protocol.
//!
//! These drive the state machines with arbitrary operation sequences and
//! check the invariants the paper's algorithm promises:
//!
//! * the per-node LRU behaves exactly like a naive reference model;
//! * cluster state stays structurally consistent (single master per block,
//!   directory exact, capacities respected) under any access pattern;
//! * the master-preserving policy never evicts a master from a node that
//!   still holds a replica;
//! * forwarding never cascades (at most one displaced block per access);
//! * runs are deterministic.

use ccm_core::lru::LruList;
use ccm_core::{
    AccessOutcome, BlockId, CacheConfig, ClusterCache, CopyKind, Departure, Disposition, FileId,
    NodeId, ReplacementPolicy,
};
use proptest::prelude::*;

fn block(i: u32) -> BlockId {
    BlockId::new(FileId(i / 64), i % 64)
}

// ---------------------------------------------------------------------------
// LRU vs. a naive reference model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LruOp {
    Push(u32),
    Touch(u32),
    Remove(u32),
    PopOldest,
    InsertByAge(u32, u8),
}

fn lru_ops() -> impl Strategy<Value = Vec<LruOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..50).prop_map(LruOp::Push),
            (0u32..50).prop_map(LruOp::Touch),
            (0u32..50).prop_map(LruOp::Remove),
            Just(LruOp::PopOldest),
            ((0u32..50), any::<u8>()).prop_map(|(b, a)| LruOp::InsertByAge(b, a)),
        ],
        0..200,
    )
}

/// Naive reference: a Vec of (block, age) kept sorted oldest-first.
#[derive(Default)]
struct NaiveLru {
    items: Vec<(u32, u64)>,
}

impl NaiveLru {
    fn contains(&self, b: u32) -> bool {
        self.items.iter().any(|&(x, _)| x == b)
    }
    fn push(&mut self, b: u32, age: u64) {
        self.items.push((b, age));
    }
    fn touch(&mut self, b: u32, age: u64) -> bool {
        if let Some(pos) = self.items.iter().position(|&(x, _)| x == b) {
            self.items.remove(pos);
            self.items.push((b, age));
            true
        } else {
            false
        }
    }
    fn remove(&mut self, b: u32) -> Option<u64> {
        let pos = self.items.iter().position(|&(x, _)| x == b)?;
        Some(self.items.remove(pos).1)
    }
    fn pop_oldest(&mut self) -> Option<(u32, u64)> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }
    /// Insert keeping age order; among equal ages the new entry goes on the
    /// *older* side (matches `LruList::insert_by_age`, which walks past
    /// strictly-smaller ages only).
    fn insert_by_age(&mut self, b: u32, age: u64) {
        let pos = self.items.partition_point(|&(_, a)| a < age);
        self.items.insert(pos, (b, age));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lru_matches_reference_model(ops in lru_ops()) {
        let mut real = LruList::new();
        let mut model = NaiveLru::default();
        let mut age = 0u64;
        for op in ops {
            age += 1;
            match op {
                LruOp::Push(b) => {
                    if !model.contains(b) {
                        real.push_mru(block(b), age);
                        model.push(b, age);
                    }
                }
                LruOp::Touch(b) => {
                    let r = real.touch(block(b), age);
                    let m = model.touch(b, age);
                    prop_assert_eq!(r, m);
                }
                LruOp::Remove(b) => {
                    let r = real.remove(block(b));
                    let m = model.remove(b);
                    prop_assert_eq!(r, m);
                }
                LruOp::PopOldest => {
                    let r = real.pop_oldest();
                    let m = model.pop_oldest().map(|(b, a)| (block(b), a));
                    prop_assert_eq!(r, m);
                }
                LruOp::InsertByAge(b, a) => {
                    // Forwarded blocks always carry an age from the past;
                    // clamp like the protocol guarantees.
                    let a = (a as u64) % (age + 1);
                    if !model.contains(b) {
                        real.insert_by_age(block(b), a);
                        model.insert_by_age(b, a);
                    }
                }
            }
            prop_assert_eq!(real.len(), model.items.len());
            real.check_invariants();
        }
        // Final drain order must agree exactly.
        let mut real_drain = Vec::new();
        while let Some(x) = real.pop_oldest() { real_drain.push(x); }
        let model_drain: Vec<(BlockId, u64)> =
            model.items.iter().map(|&(b, a)| (block(b), a)).collect();
        prop_assert_eq!(real_drain, model_drain);
    }
}

// ---------------------------------------------------------------------------
// Cluster-cache invariants under arbitrary access patterns
// ---------------------------------------------------------------------------

fn access_seq(nodes: u16, blocks: u32) -> impl Strategy<Value = Vec<(u16, u32)>> {
    prop::collection::vec(((0..nodes), (0..blocks)), 1..400)
}

/// One step of the crash/repair property tests: a normal access, a node
/// crash (with directory repair), or a revival of a crashed node.
#[derive(Debug, Clone)]
enum ClusterOp {
    Access(u16, u32),
    Fail(u16),
    Revive(u16),
}

fn cluster_ops(nodes: u16, blocks: u32) -> impl Strategy<Value = Vec<ClusterOp>> {
    prop::collection::vec(
        prop_oneof![
            ((0..nodes), (0..blocks)).prop_map(|(n, b)| ClusterOp::Access(n, b)),
            ((0..nodes), (0..blocks)).prop_map(|(n, b)| ClusterOp::Access(n, b)),
            ((0..nodes), (0..blocks)).prop_map(|(n, b)| ClusterOp::Access(n, b)),
            (0..nodes).prop_map(ClusterOp::Fail),
            (0..nodes).prop_map(ClusterOp::Revive),
        ],
        1..300,
    )
}

fn policies() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::GlobalLru),
        Just(ReplacementPolicy::MasterPreserving),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cluster_invariants_hold(
        seq in access_seq(4, 120),
        cap in 1usize..24,
        policy in policies(),
        promote in any::<bool>(),
    ) {
        let mut cfg = CacheConfig::paper(4, cap, policy);
        cfg.promote_on_master_drop = promote;
        let mut c = ClusterCache::new(cfg);
        for (i, &(n, b)) in seq.iter().enumerate() {
            c.access(NodeId(n), block(b));
            if i % 37 == 0 {
                c.check_invariants();
            }
        }
        c.check_invariants();
        // Capacity never exceeded and accounting adds up.
        prop_assert!(c.resident_blocks() <= 4 * cap);
        let s = c.stats();
        prop_assert_eq!(s.accesses(), seq.len() as u64);
    }

    #[test]
    fn master_preserving_never_sacrifices_master_while_holding_replicas(
        seq in access_seq(4, 120),
        cap in 1usize..16,
    ) {
        let mut c = ClusterCache::new(CacheConfig::paper(
            4, cap, ReplacementPolicy::MasterPreserving));
        for &(n, b) in &seq {
            let node = NodeId(n);
            let replicas_before = c.node(node).num_replicas();
            let out = c.access(node, block(b));
            if let Some(ev) = out.eviction() {
                if ev.victim_kind == CopyKind::Master {
                    prop_assert_eq!(
                        replicas_before, 0,
                        "master evicted while {} replicas were held", replicas_before
                    );
                }
            }
        }
    }

    #[test]
    fn forwarding_never_cascades(
        seq in access_seq(6, 200),
        cap in 1usize..12,
        policy in policies(),
    ) {
        // Structural: one access causes at most one eviction at the
        // requester; a forward displaces at most one block at exactly one
        // destination; a displaced block is dropped (never re-forwarded).
        // The types enforce most of this; here we check the dynamic part:
        // the destination's displaced block really left cluster memory.
        let mut c = ClusterCache::new(CacheConfig::paper(6, cap, policy));
        for &(n, b) in &seq {
            let out = c.access(NodeId(n), block(b));
            if let Some(ev) = out.eviction() {
                if let Disposition::Forwarded { to, displaced: Some((db, kind)), .. } =
                    ev.disposition
                {
                    prop_assert!(c.node(to).lookup(db).is_none(),
                        "displaced block still resident at destination");
                    if kind == CopyKind::Master {
                        prop_assert_eq!(c.master_location(db), None);
                    }
                    // The forwarded master itself did arrive.
                    prop_assert_eq!(c.master_location(ev.victim), Some(to));
                }
            }
        }
        c.check_invariants();
    }

    #[test]
    fn outcomes_are_classified_correctly(
        seq in access_seq(3, 60),
        cap in 2usize..16,
    ) {
        // A DiskRead must only happen when no master existed; a RemoteHit
        // must name the true pre-access master holder.
        let mut c = ClusterCache::new(CacheConfig::paper(
            3, cap, ReplacementPolicy::MasterPreserving));
        for &(n, b) in &seq {
            let blk = block(b);
            let pre_master = c.master_location(blk);
            let pre_local = c.node(NodeId(n)).lookup(blk);
            match c.access(NodeId(n), blk) {
                AccessOutcome::LocalHit { .. } => {
                    prop_assert!(pre_local.is_some());
                }
                AccessOutcome::RemoteHit { from, .. } => {
                    prop_assert_eq!(pre_master, Some(from));
                    prop_assert!(pre_local.is_none());
                }
                AccessOutcome::DiskRead { .. } => {
                    prop_assert!(pre_master.is_none());
                    prop_assert!(pre_local.is_none());
                    // And now the requester is the master holder.
                    prop_assert_eq!(c.master_location(blk), Some(NodeId(n)));
                }
            }
        }
    }

    #[test]
    fn runs_are_deterministic(seq in access_seq(4, 80), cap in 1usize..16) {
        let run = |seq: &[(u16, u32)]| {
            let mut c = ClusterCache::new(CacheConfig::paper(
                4, cap, ReplacementPolicy::GlobalLru));
            let outs: Vec<AccessOutcome> =
                seq.iter().map(|&(n, b)| c.access(NodeId(n), block(b))).collect();
            (outs, c.stats())
        };
        prop_assert_eq!(run(&seq), run(&seq));
    }

    #[test]
    fn invariants_hold_under_mixed_reads_and_writes(
        seq in prop::collection::vec(((0u16..4), (0u32..80), any::<bool>()), 1..300),
        cap in 1usize..16,
        policy in policies(),
    ) {
        let mut c = ClusterCache::new(CacheConfig::paper(4, cap, policy));
        let mut writes = 0u64;
        for (i, &(n, b, is_write)) in seq.iter().enumerate() {
            if is_write {
                let out = c.write(NodeId(n), block(b));
                writes += 1;
                // After a write the writer is the master holder and no other
                // node caches the block.
                prop_assert_eq!(c.master_location(block(b)), Some(NodeId(n)));
                for peer in 0..4u16 {
                    if peer != n {
                        prop_assert_eq!(c.node(NodeId(peer)).lookup(block(b)), None);
                    }
                }
                let _ = out;
            } else {
                c.access(NodeId(n), block(b));
            }
            if i % 41 == 0 {
                c.check_invariants();
            }
        }
        c.check_invariants();
        prop_assert_eq!(c.stats().writes, writes);
    }

    #[test]
    fn nchance_never_forwards_more_than_chances_between_references(
        seq in access_seq(4, 60),
        cap in 1usize..8,
    ) {
        // Statistical sanity: with chances = 0 a master is NEVER forwarded.
        let mut c = ClusterCache::new(CacheConfig::paper(
            4, cap, ReplacementPolicy::NChance { chances: 0 }));
        for &(n, b) in &seq {
            c.access(NodeId(n), block(b));
        }
        prop_assert_eq!(c.stats().forwards, 0, "0-chance must never forward");
        c.check_invariants();
    }

    #[test]
    fn repairs_preserve_directory_invariants(
        ops in cluster_ops(4, 100),
        cap in 1usize..16,
        policy in policies(),
    ) {
        // Interleave accesses with departures (`depart`, crashes and
        // graceful leaves in turn) and revivals; after every step the
        // structural invariants must hold: at most one master per block,
        // the directory exact, down nodes empty and never named as a master
        // location, and each departure's report accounting for every master
        // the node held (a graceful leave losing none).
        let mut c = ClusterCache::new(CacheConfig::paper(4, cap, policy));
        let mut down = [false; 4];
        let mut departures = 0;
        for op in ops {
            match op {
                ClusterOp::Access(n, b) => {
                    if !down[n as usize] {
                        c.access(NodeId(n), block(b));
                    }
                }
                ClusterOp::Fail(n) => {
                    let up = down.iter().filter(|d| !**d).count();
                    if !down[n as usize] && up > 1 {
                        let masters_before = c.node(NodeId(n)).num_masters();
                        departures += 1;
                        let how = if departures % 2 == 1 {
                            Departure::Crash
                        } else {
                            Departure::Graceful
                        };
                        let report = c.depart(NodeId(n), how).report;
                        down[n as usize] = true;
                        prop_assert_eq!(
                            report.remastered + report.lost_masters,
                            masters_before,
                            "repair must account for every master the node held"
                        );
                        if how == Departure::Graceful {
                            prop_assert_eq!(report.lost_masters, 0, "a leave lost a master");
                        }
                    }
                }
                ClusterOp::Revive(n) => {
                    if down[n as usize] {
                        c.revive_node(NodeId(n));
                        down[n as usize] = false;
                    }
                }
            }
            c.check_invariants();
            for i in 0..4u16 {
                if down[i as usize] {
                    prop_assert!(c.node(NodeId(i)).is_empty(), "down node must stay empty");
                }
            }
        }
        // No block's master may live on a down node.
        for b in 0..100u32 {
            if let Some(m) = c.master_location(block(b)) {
                prop_assert!(!down[m.0 as usize], "master on a down node");
            }
        }
        c.check_invariants();
    }

    #[test]
    fn master_preserving_holds_across_crash_repairs(
        ops in cluster_ops(4, 80),
        cap in 1usize..12,
    ) {
        // The paper's winning policy must keep its promise — never evict a
        // master while holding replicas — even when crash repairs have
        // re-mastered blocks and revived nodes are refilling from cold.
        let mut c = ClusterCache::new(CacheConfig::paper(
            4, cap, ReplacementPolicy::MasterPreserving));
        let mut down = [false; 4];
        for op in ops {
            match op {
                ClusterOp::Access(n, b) => {
                    if down[n as usize] {
                        continue;
                    }
                    let node = NodeId(n);
                    let replicas_before = c.node(node).num_replicas();
                    let out = c.access(node, block(b));
                    if let Some(ev) = out.eviction() {
                        if ev.victim_kind == CopyKind::Master {
                            prop_assert_eq!(
                                replicas_before, 0,
                                "master evicted while {} replicas were held",
                                replicas_before
                            );
                        }
                    }
                }
                ClusterOp::Fail(n) => {
                    let up = down.iter().filter(|d| !**d).count();
                    if !down[n as usize] && up > 1 {
                        c.depart(NodeId(n), Departure::Crash);
                        down[n as usize] = true;
                    }
                }
                ClusterOp::Revive(n) => {
                    if down[n as usize] {
                        c.revive_node(NodeId(n));
                        down[n as usize] = false;
                    }
                }
            }
        }
        c.check_invariants();
    }

    #[test]
    fn hint_directory_state_stays_consistent(
        seq in access_seq(4, 80),
        cap in 1usize..12,
    ) {
        let mut cfg = CacheConfig::paper(4, cap, ReplacementPolicy::MasterPreserving);
        cfg.directory = ccm_core::DirectoryKind::Hint;
        let mut c = ClusterCache::new(cfg);
        for &(n, b) in &seq {
            c.access(NodeId(n), block(b));
        }
        c.check_invariants();
        let hs = c.hint_stats();
        prop_assert_eq!(hs.lookups, hs.correct + hs.stale + hs.missing);
    }
}
