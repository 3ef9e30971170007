//! The backend seam: what actually serves bytes once dispatch has picked
//! a node.
//!
//! Two interchangeable backends sit behind [`FrontBackend`], giving the
//! paper's comparison a live form:
//!
//! * [`CcmBackend`] — the cooperative caching middleware. A read at node
//!   *n* goes through that node's [`NodeHandle`], so remote hits, master
//!   forwarding, and disk fallback all happen exactly as in the runtime's
//!   own tests; the transport underneath (channel or TCP) is whatever the
//!   middleware was started on.
//! * [`L2sBackend`] — Bianchini & Carrera's server, live: per-node
//!   **whole-file** LRU caches with de-replication-aware eviction
//!   ([`FileCache`], the same type the simulator uses) and **no**
//!   cooperative peer fetch. A miss reads the local disk — L2S "assumes
//!   files are replicated everywhere" (§4.1), so every node's store holds
//!   every file.
//!
//! Hit accounting is block-weighted on both sides (an L2S whole-file hit
//! counts as `blocks_of(file)` block hits) so the two backends' hit ratios
//! compare on the paper's terms — fraction of 8 KB block accesses served
//! from cluster memory.

use ccm_core::{BlockId, FileId, NodeId, BLOCK_SIZE};
use ccm_l2s::FileCache;
use ccm_rt::store::read_file_direct;
use ccm_rt::{BlockStore, Catalog, Middleware, NodeHandle};
use simcore::sync::Mutex;
use std::sync::Arc;

/// Block-weighted cache accounting, comparable across backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitStats {
    /// Block accesses served from cluster memory (local or, for CCM,
    /// a peer's).
    pub hits: u64,
    /// Total block accesses.
    pub accesses: u64,
}

impl HitStats {
    /// Hits over accesses; 0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A cluster of servers the front tier can read files from.
pub trait FrontBackend: Send + Sync {
    /// Backend label for reports and metrics (`"ccm"` / `"l2s"`).
    fn name(&self) -> &'static str;

    /// Cluster size.
    fn nodes(&self) -> usize;

    /// The file catalog served.
    fn catalog(&self) -> &Catalog;

    /// Read the whole file at `node`.
    fn read_file(&self, node: NodeId, file: FileId) -> Vec<u8>;

    /// Read bytes `start..=end` (inclusive, in-bounds — the range module
    /// guarantees both) of `file` at `node`.
    fn read_range(&self, node: NodeId, file: FileId, start: u64, end: u64) -> Vec<u8>;

    /// Block-weighted hit accounting so far.
    fn hit_stats(&self) -> HitStats;

    /// Drain any in-flight background work so counters are stable.
    fn quiesce(&self) {}

    /// The block-path trace ring as JSON, the body of the tier's
    /// `GET /debug/trace`. `None` (answered `404`) when the backend keeps
    /// no ring.
    fn trace_json(&self) -> Option<String> {
        None
    }
}

/// The cooperative caching middleware as a front-tier backend.
pub struct CcmBackend {
    middleware: Arc<Middleware>,
    handles: Vec<NodeHandle>,
    catalog: Catalog,
}

impl CcmBackend {
    /// Wrap a running middleware. The caller keeps ownership of the
    /// cluster's lifecycle (shutdown stays wherever the middleware was
    /// started).
    pub fn new(middleware: Arc<Middleware>) -> CcmBackend {
        let handles = (0..middleware.nodes())
            .map(|n| middleware.handle(NodeId(n as u16)))
            .collect();
        let catalog = middleware.catalog().clone();
        CcmBackend {
            middleware,
            handles,
            catalog,
        }
    }

    /// The middleware underneath (stats, invariants, registry).
    pub fn middleware(&self) -> &Middleware {
        &self.middleware
    }
}

impl FrontBackend for CcmBackend {
    fn name(&self) -> &'static str {
        "ccm"
    }

    fn nodes(&self) -> usize {
        self.handles.len()
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn read_file(&self, node: NodeId, file: FileId) -> Vec<u8> {
        self.handles[node.index()].read_file(file)
    }

    fn read_range(&self, node: NodeId, file: FileId, start: u64, end: u64) -> Vec<u8> {
        // Only the blocks covering the range are touched — the point of
        // mapping HTTP ranges onto block reads — then the ends are trimmed.
        let first = start / BLOCK_SIZE;
        let blocks = first as u32..(end / BLOCK_SIZE) as u32 + 1;
        let mut out = self.handles[node.index()].read_blocks(file, blocks);
        let base = first * BLOCK_SIZE;
        out.truncate((end + 1 - base) as usize);
        out.drain(..(start - base) as usize);
        out
    }

    fn hit_stats(&self) -> HitStats {
        let s = self.middleware.stats();
        let hits = s.local_hits + s.remote_hits;
        HitStats {
            hits,
            accesses: hits + s.disk_reads,
        }
    }

    fn quiesce(&self) {
        self.middleware.quiesce();
    }

    fn trace_json(&self) -> Option<String> {
        Some(self.middleware.trace().dump_json())
    }
}

/// Mutable half of the live L2S backend (one lock: the simulator's
/// `L2sSystem` is single-threaded by design, and the live baseline keeps
/// its cluster-wide copy counts the same way).
struct L2sState {
    caches: Vec<FileCache>,
    /// Cluster-wide in-memory copy count per file (feeds the
    /// de-replication-aware eviction policy).
    copies: Vec<u32>,
    tick: u64,
    stats: HitStats,
}

/// Bianchini & Carrera's whole-file caching server, live.
pub struct L2sBackend {
    catalog: Catalog,
    store: Arc<dyn BlockStore>,
    state: Mutex<L2sState>,
}

impl L2sBackend {
    /// A cluster of `nodes` nodes, each with `capacity_bytes` of
    /// whole-file cache, over a fully replicated `store`.
    ///
    /// # Panics
    /// Panics on an empty cluster.
    pub fn new(
        catalog: Catalog,
        store: Arc<dyn BlockStore>,
        nodes: usize,
        capacity_bytes: u64,
    ) -> L2sBackend {
        assert!(nodes > 0, "empty cluster");
        let sizes: Arc<[u64]> = catalog.sizes().to_vec().into();
        let caches = (0..nodes)
            .map(|_| FileCache::new(capacity_bytes, sizes.clone()))
            .collect();
        L2sBackend {
            state: Mutex::new(L2sState {
                caches,
                copies: vec![0; catalog.num_files()],
                tick: 0,
                stats: HitStats::default(),
            }),
            catalog,
            store,
        }
    }

    /// Whole-file cache access at `node`: LRU touch, faulting the file in
    /// (with de-replication-aware eviction) on a miss.
    fn access(&self, node: NodeId, file: FileId) {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        let blocks = self.catalog.blocks_of(file) as u64;
        st.stats.accesses += blocks;
        let n = node.index();
        if st.caches[n].touch(file, tick) {
            st.stats.hits += blocks;
        } else if st.caches[n].fits(file) {
            let copies = std::mem::take(&mut st.copies);
            let evicted = st.caches[n].insert_with_evictions(file, tick, |f| copies[f.0 as usize]);
            st.copies = copies;
            for e in evicted {
                st.copies[e.0 as usize] -= 1;
            }
            st.copies[file.0 as usize] += 1;
        }
    }

    /// Full-state invariant check (tests): copy counts match the caches.
    pub fn check_invariants(&self) {
        let st = self.state.lock();
        let mut counts = vec![0u32; st.copies.len()];
        for c in &st.caches {
            c.check_invariants();
            for f in c.iter_oldest_first() {
                counts[f.0 as usize] += 1;
            }
        }
        assert_eq!(counts, st.copies, "copy counts drifted");
    }
}

impl FrontBackend for L2sBackend {
    fn name(&self) -> &'static str {
        "l2s"
    }

    fn nodes(&self) -> usize {
        self.state.lock().caches.len()
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn read_file(&self, node: NodeId, file: FileId) -> Vec<u8> {
        self.access(node, file);
        // The cache models memory residency; bytes always come from the
        // (local — full disk replication) store, so responses are
        // verifiable against it either way.
        read_file_direct(self.store.as_ref(), &self.catalog, file)
    }

    fn read_range(&self, node: NodeId, file: FileId, start: u64, end: u64) -> Vec<u8> {
        // Whole-file granularity: a range request still faults the whole
        // file — that is the L2S design point the paper's block-granular
        // middleware argues against.
        self.access(node, file);
        let first = (start / BLOCK_SIZE) as u32;
        let last = (end / BLOCK_SIZE) as u32;
        let mut out = Vec::with_capacity((end - start + 1) as usize);
        for b in first..=last {
            let block = self.store.read_block(BlockId::new(file, b));
            let base = b as u64 * BLOCK_SIZE;
            let lo = start.saturating_sub(base) as usize;
            let hi = ((end + 1 - base) as usize).min(block.len());
            out.extend_from_slice(&block[lo..hi]);
        }
        out
    }

    fn hit_stats(&self) -> HitStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm_rt::SyntheticStore;

    fn l2s(nodes: usize, cap: u64, sizes: Vec<u64>) -> L2sBackend {
        let catalog = Catalog::new(sizes);
        let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));
        L2sBackend::new(catalog, store, nodes, cap)
    }

    #[test]
    fn l2s_serves_store_bytes_and_counts_block_weighted() {
        let b = l2s(2, 64 * BLOCK_SIZE, vec![3 * BLOCK_SIZE + 5, 100]);
        let body = b.read_file(NodeId(0), FileId(0));
        assert_eq!(body.len() as u64, 3 * BLOCK_SIZE + 5);
        let s = b.hit_stats();
        assert_eq!((s.hits, s.accesses), (0, 4), "cold miss, 4 blocks");
        b.read_file(NodeId(0), FileId(0));
        let s = b.hit_stats();
        assert_eq!((s.hits, s.accesses), (4, 8), "warm hit, block-weighted");
        // A different node has its own cache: miss again.
        b.read_file(NodeId(1), FileId(0));
        assert_eq!(b.hit_stats().hits, 4);
        b.check_invariants();
    }

    #[test]
    fn l2s_range_slices_match_the_file() {
        let b = l2s(1, 64 * BLOCK_SIZE, vec![2 * BLOCK_SIZE + 17]);
        let full = b.read_file(NodeId(0), FileId(0));
        let (start, end) = (BLOCK_SIZE - 3, BLOCK_SIZE + 9);
        let part = b.read_range(NodeId(0), FileId(0), start, end);
        assert_eq!(part, full[start as usize..=end as usize]);
    }

    #[test]
    fn l2s_oversized_files_never_cache() {
        let b = l2s(1, BLOCK_SIZE, vec![4 * BLOCK_SIZE]);
        b.read_file(NodeId(0), FileId(0));
        b.read_file(NodeId(0), FileId(0));
        assert_eq!(b.hit_stats().hits, 0, "file larger than the cache");
        b.check_invariants();
    }
}
