//! One node's block cache.
//!
//! A node cache is a fixed number of 8 KB block frames holding a mix of
//! **master** copies (the cluster's authoritative in-memory copy, tracked by
//! the global directory) and **replica** (non-master) copies fetched from
//! peers. Masters and replicas live on separate age-ordered LRU lists so that
//! every replacement-policy question the protocol asks — "what is my oldest
//! block?", "what is my oldest replica?", "do I hold any replicas at all?" —
//! is O(1).

use crate::block::BlockId;
use crate::lru::LruList;

/// Whether a cached copy is the cluster's master copy or a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    /// The authoritative in-memory copy; its location is in the directory.
    Master,
    /// A non-master copy fetched from a peer.
    Replica,
}

/// A single node's cache state.
///
/// Layout: aligned to 128 bytes (a pair of cache lines, the unit the
/// adjacent-line prefetcher moves), as `ccm-obs`'s trace shards are. The
/// node caches sit side by side in one `Vec`, and every local hit rewrites
/// its node's LRU head, so two callers on different nodes would otherwise
/// drag a shared line between their CPUs on each hit.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub struct NodeCache {
    capacity: usize,
    masters: LruList<BlockId>,
    replicas: LruList<BlockId>,
}

impl NodeCache {
    /// A cache with room for `capacity` blocks.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — the protocol needs at least one frame.
    pub fn new(capacity: usize) -> NodeCache {
        assert!(capacity > 0, "zero-capacity node cache");
        NodeCache {
            capacity,
            masters: LruList::new(),
            replicas: LruList::new(),
        }
    }

    /// Frame capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.masters.len() + self.replicas.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if every frame is occupied.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Resident master count.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Resident replica count.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The kind of the resident copy of `block`, if any.
    pub fn lookup(&self, block: BlockId) -> Option<CopyKind> {
        if self.masters.contains(block) {
            Some(CopyKind::Master)
        } else if self.replicas.contains(block) {
            Some(CopyKind::Replica)
        } else {
            None
        }
    }

    /// Age of the resident copy of `block`, if any.
    pub fn age_of(&self, block: BlockId) -> Option<u64> {
        self.masters
            .age_of(block)
            .or_else(|| self.replicas.age_of(block))
    }

    /// Refresh `block`'s recency to `age`. Returns the copy kind, or `None`
    /// if not resident.
    pub fn touch(&mut self, block: BlockId, age: u64) -> Option<CopyKind> {
        if self.masters.touch(block, age) {
            Some(CopyKind::Master)
        } else if self.replicas.touch(block, age) {
            Some(CopyKind::Replica)
        } else {
            None
        }
    }

    /// Insert a block at the MRU end.
    ///
    /// # Panics
    /// Panics if the cache is full (callers must evict first — eviction is a
    /// protocol decision, not a cache-local one) or the block is resident.
    pub fn insert(&mut self, block: BlockId, kind: CopyKind, age: u64) {
        assert!(!self.is_full(), "insert into full cache");
        assert!(self.lookup(block).is_none(), "double insert of {block:?}");
        match kind {
            CopyKind::Master => self.masters.push_mru(block, age),
            CopyKind::Replica => self.replicas.push_mru(block, age),
        }
    }

    /// Insert a *forwarded* master, preserving its original age (it arrives
    /// old and must not look freshly used).
    ///
    /// # Panics
    /// Panics if full or already resident as a master.
    pub fn insert_forwarded_master(&mut self, block: BlockId, age: u64) {
        assert!(!self.is_full(), "forwarded insert into full cache");
        assert!(
            !self.masters.contains(block),
            "forwarded master already resident"
        );
        self.masters.insert_by_age(block, age);
    }

    /// Remove `block`; returns `(kind, age)` if it was resident.
    pub fn remove(&mut self, block: BlockId) -> Option<(CopyKind, u64)> {
        if let Some(age) = self.masters.remove(block) {
            Some((CopyKind::Master, age))
        } else {
            self.replicas
                .remove(block)
                .map(|age| (CopyKind::Replica, age))
        }
    }

    /// Upgrade a resident replica to a master in place (used when a master is
    /// forwarded to a node that already holds a replica of the same block,
    /// and by the replica-promotion extension policy). Keeps the *newer* of
    /// the two ages.
    ///
    /// # Panics
    /// Panics if no replica of `block` is resident.
    pub fn promote_replica(&mut self, block: BlockId, forwarded_age: u64) {
        let age = self
            .replicas
            .remove(block)
            .expect("promote of non-resident replica");
        let new_age = age.max(forwarded_age);
        // Splice at age position: promotion must not refresh recency.
        self.masters.insert_by_age(block, new_age);
    }

    /// The node's oldest block across both lists: `(block, kind, age)`.
    pub fn oldest(&self) -> Option<(BlockId, CopyKind, u64)> {
        match (self.masters.peek_oldest(), self.replicas.peek_oldest()) {
            (None, None) => None,
            (Some((b, a)), None) => Some((b, CopyKind::Master, a)),
            (None, Some((b, a))) => Some((b, CopyKind::Replica, a)),
            (Some((mb, ma)), Some((rb, ra))) => {
                // Tie goes to the replica: dropping a replica is always the
                // cheaper outcome, and ties are common right after a fetch
                // (master touched and replica created on the same tick).
                if ma < ra {
                    Some((mb, CopyKind::Master, ma))
                } else {
                    Some((rb, CopyKind::Replica, ra))
                }
            }
        }
    }

    /// Age of the node's oldest block (`u64::MAX` when empty, so an empty
    /// node never looks like the global LRU victim).
    pub fn oldest_age(&self) -> u64 {
        self.oldest().map_or(u64::MAX, |(_, _, a)| a)
    }

    /// The oldest replica, if any.
    pub fn oldest_replica(&self) -> Option<(BlockId, u64)> {
        self.replicas.peek_oldest()
    }

    /// The oldest master, if any.
    pub fn oldest_master(&self) -> Option<(BlockId, u64)> {
        self.masters.peek_oldest()
    }

    /// Iterate all resident blocks (tests/diagnostics): `(block, kind, age)`.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, CopyKind, u64)> + '_ {
        self.masters
            .iter()
            .map(|(b, a)| (b, CopyKind::Master, a))
            .chain(self.replicas.iter().map(|(b, a)| (b, CopyKind::Replica, a)))
    }

    /// Structural invariants: capacity respected, no block on both lists,
    /// each list age-ordered.
    pub fn check_invariants(&self) {
        assert!(self.len() <= self.capacity, "over capacity");
        self.masters.check_invariants();
        self.replicas.check_invariants();
        for (b, _) in self.masters.iter() {
            assert!(
                !self.replicas.contains(b),
                "{b:?} resident as both master and replica"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::FileId;

    fn b(i: u32) -> BlockId {
        BlockId::new(FileId(0), i)
    }

    /// Adjacent node caches in the cluster's `Vec` never share a line pair.
    #[test]
    fn node_caches_sit_on_lines_of_their_own() {
        assert!(std::mem::align_of::<NodeCache>() >= 128);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = NodeCache::new(4);
        c.insert(b(1), CopyKind::Master, 1);
        c.insert(b(2), CopyKind::Replica, 2);
        assert_eq!(c.lookup(b(1)), Some(CopyKind::Master));
        assert_eq!(c.lookup(b(2)), Some(CopyKind::Replica));
        assert_eq!(c.lookup(b(3)), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.num_masters(), 1);
        assert_eq!(c.num_replicas(), 1);
        assert_eq!(c.remove(b(1)), Some((CopyKind::Master, 1)));
        assert_eq!(c.remove(b(1)), None);
        c.check_invariants();
    }

    #[test]
    fn oldest_spans_both_lists() {
        let mut c = NodeCache::new(4);
        c.insert(b(1), CopyKind::Master, 5);
        c.insert(b(2), CopyKind::Replica, 3);
        assert_eq!(c.oldest(), Some((b(2), CopyKind::Replica, 3)));
        assert_eq!(c.oldest_age(), 3);
        c.touch(b(2), 9);
        assert_eq!(c.oldest(), Some((b(1), CopyKind::Master, 5)));
    }

    #[test]
    fn oldest_tie_prefers_replica() {
        let mut c = NodeCache::new(4);
        c.insert(b(1), CopyKind::Master, 7);
        c.insert(b(2), CopyKind::Replica, 7);
        assert_eq!(c.oldest(), Some((b(2), CopyKind::Replica, 7)));
    }

    #[test]
    fn empty_cache_oldest_age_is_max() {
        let c = NodeCache::new(2);
        assert_eq!(c.oldest_age(), u64::MAX);
        assert_eq!(c.oldest(), None);
    }

    #[test]
    fn touch_reports_kind() {
        let mut c = NodeCache::new(4);
        c.insert(b(1), CopyKind::Master, 1);
        assert_eq!(c.touch(b(1), 2), Some(CopyKind::Master));
        assert_eq!(c.touch(b(9), 2), None);
        assert_eq!(c.age_of(b(1)), Some(2));
    }

    #[test]
    fn forwarded_master_keeps_age_order() {
        let mut c = NodeCache::new(4);
        c.insert(b(1), CopyKind::Master, 10);
        c.insert(b(2), CopyKind::Master, 20);
        c.insert_forwarded_master(b(3), 15);
        c.check_invariants();
        assert_eq!(c.oldest_master(), Some((b(1), 10)));
        // b(3) sits between 10 and 20.
        let ages: Vec<u64> = c
            .iter()
            .filter(|(_, k, _)| *k == CopyKind::Master)
            .map(|(_, _, a)| a)
            .collect();
        assert_eq!(ages, vec![20, 15, 10]);
    }

    #[test]
    fn promote_replica_moves_lists_without_refreshing() {
        let mut c = NodeCache::new(4);
        c.insert(b(1), CopyKind::Replica, 8);
        c.insert(b(2), CopyKind::Master, 20);
        c.promote_replica(b(1), 5);
        assert_eq!(c.lookup(b(1)), Some(CopyKind::Master));
        assert_eq!(c.age_of(b(1)), Some(8), "keeps newer of the two ages");
        assert_eq!(c.oldest_master(), Some((b(1), 8)));
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "full cache")]
    fn insert_into_full_panics() {
        let mut c = NodeCache::new(1);
        c.insert(b(1), CopyKind::Master, 1);
        c.insert(b(2), CopyKind::Master, 2);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        NodeCache::new(0);
    }

    #[test]
    fn fill_and_cycle() {
        let mut c = NodeCache::new(8);
        for i in 0..8 {
            c.insert(
                b(i),
                if i % 2 == 0 {
                    CopyKind::Master
                } else {
                    CopyKind::Replica
                },
                i as u64,
            );
        }
        assert!(c.is_full());
        for i in 0..8 {
            let (blk, _, _) = c.oldest().unwrap();
            assert_eq!(blk, b(i));
            c.remove(blk);
        }
        assert!(c.is_empty());
        c.check_invariants();
    }
}
