//! Lock-sharded block maps for the data plane.
//!
//! The protocol brain stays under one `Mutex<ClusterCache>` — global LRU
//! ordering, capacity accounting, and bit-identical replay all require
//! protocol decisions to be serialized. What does *not* need that
//! serialization is the data plane: the per-node block stores and the
//! per-block write-lock registry are plain maps whose operations commute
//! across distinct blocks. [`ShardedMap`] splits each of those maps into
//! `2^k` independently locked shards selected by block hash, so concurrent
//! reads/installs/evictions on different blocks stop contending on one
//! mutex per node while same-block operations still serialize. An insert or
//! removal writes its own shard and nothing shared: the map keeps no
//! length of its own, and `len` counts the shards when asked (the runtime
//! asks when its metric registry is scraped).

use ccm_core::BlockId;
use simcore::fxhash::FxHasher;
use simcore::sync::Mutex;
use simcore::FxHashMap;
use std::hash::{Hash, Hasher};

/// Shards per map. Fixed, power of two: plenty of stripes for the thread
/// counts this runtime sees (service threads + HTTP workers per node),
/// cheap enough to allocate per node.
const SHARDS: usize = 16;

/// A `FxHashMap<BlockId, V>` split across independently locked shards.
///
/// No state is shared across shards, so operations on blocks of different
/// shards touch no common cache line. `len` sums the shards one lock at a
/// time: exact whenever the map is externally quiesced.
pub struct ShardedMap<V> {
    shards: Box<[Mutex<FxHashMap<BlockId, V>>]>,
}

impl<V> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

fn shard_of(block: BlockId) -> usize {
    let mut h = FxHasher::default();
    block.hash(&mut h);
    // Low bits of fx output correlate with the last-written word; fold the
    // high bits down so file/index patterns spread across shards.
    let v = h.finish();
    ((v ^ (v >> 32)) as usize) & (SHARDS - 1)
}

impl<V> ShardedMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        let shards = (0..SHARDS)
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedMap { shards }
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&self, block: BlockId, value: V) -> Option<V> {
        self.shards[shard_of(block)].lock().insert(block, value)
    }

    /// Remove and return the value, if present.
    pub fn remove(&self, block: BlockId) -> Option<V> {
        self.shards[shard_of(block)].lock().remove(&block)
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Entry count, summed over the shards one lock at a time (exact when
    /// quiesced).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// True when no entries exist (exact when quiesced).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry, collected across shards (test/handoff use; not a
    /// consistent snapshot under concurrent writers).
    pub fn entries(&self) -> Vec<(BlockId, V)>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.lock().iter().map(|(k, v)| (*k, v.clone())));
        }
        out
    }
}

impl<V: Clone> ShardedMap<V> {
    /// Clone the value for `block`, if present.
    pub fn get(&self, block: BlockId) -> Option<V> {
        self.shards[shard_of(block)].lock().get(&block).cloned()
    }

    /// Get the value for `block`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&self, block: BlockId, make: impl FnOnce() -> V) -> V {
        let mut shard = self.shards[shard_of(block)].lock();
        if let Some(v) = shard.get(&block) {
            return v.clone();
        }
        let v = make();
        shard.insert(block, v.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm_core::FileId;

    fn b(f: u32, i: u32) -> BlockId {
        BlockId::new(FileId(f), i)
    }

    #[test]
    fn insert_get_remove_len() {
        let m: ShardedMap<u32> = ShardedMap::new();
        assert!(m.is_empty());
        for i in 0..1000 {
            assert_eq!(m.insert(b(i % 7, i), i), None);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(b(3, 3)), Some(3));
        assert_eq!(m.insert(b(3, 3), 99), Some(3), "replace keeps len");
        assert_eq!(m.len(), 1000);
        assert_eq!(m.remove(b(3, 3)), Some(99));
        assert_eq!(m.remove(b(3, 3)), None);
        assert_eq!(m.len(), 999);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(b(0, 0)), None);
    }

    #[test]
    fn get_or_insert_with_is_once() {
        let m: ShardedMap<std::sync::Arc<()>> = ShardedMap::new();
        let first = m.get_or_insert_with(b(1, 1), || std::sync::Arc::new(()));
        let again = m.get_or_insert_with(b(1, 1), || std::sync::Arc::new(()));
        assert!(std::sync::Arc::ptr_eq(&first, &again));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn keys_spread_across_shards() {
        // Sequential indices within one file (the dominant access pattern)
        // must not pile into a few shards.
        let mut hit = [false; SHARDS];
        for i in 0..64 {
            hit[shard_of(b(0, i))] = true;
        }
        let used = hit.iter().filter(|h| **h).count();
        assert!(used >= SHARDS / 2, "only {used}/{SHARDS} shards used");
    }

    #[test]
    fn entries_round_trips() {
        let m: ShardedMap<u32> = ShardedMap::new();
        for i in 0..50 {
            m.insert(b(1, i), i * 2);
        }
        let mut got = m.entries();
        got.sort_by_key(|(k, _)| k.index);
        assert_eq!(got.len(), 50);
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(k.index, i as u32);
            assert_eq!(*v, i as u32 * 2);
        }
    }
}
