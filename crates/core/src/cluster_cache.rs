//! The whole-cluster cooperative cache: access, eviction, and forwarding.
//!
//! [`ClusterCache`] holds every node's cache, the global directory, and the
//! global logical clock, and implements the paper's algorithm (§3) as one
//! atomic state machine:
//!
//! 1. A request for block `b` at node `n` is a **local hit** if `n` caches a
//!    copy (master or replica).
//! 2. Otherwise the directory locates the master `bₘ`. If some peer `m`
//!    holds it, `n` fetches a non-master copy from `m` (**remote hit**).
//! 3. If no master is in memory, `n` reads `b` from its home node's disk and
//!    becomes the new master holder (**disk read**).
//! 4. Inserting into a full cache evicts one block chosen by the
//!    [`ReplacementPolicy`]. An evicted replica is dropped. An evicted master
//!    is dropped if it is the oldest block in the system; otherwise it is
//!    **forwarded** to the peer holding the system's oldest block, which
//!    drops its own oldest block to make room. "(1) blocks forwarded to
//!    peers do not cause cascaded evictions, and (2) … a forwarded block
//!    [younger than everything at its destination] is dropped."
//!
//! State changes are applied at decision time, matching the paper's
//! optimistic assumptions (perfect, free, instantaneous directory and
//! global-age knowledge). The *costs* of what happened are returned to the
//! caller as an [`AccessOutcome`], which the simulator converts into CPU,
//! network, and disk events, and the threaded runtime converts into real
//! messages.

use crate::admission::{Admission, AdmissionConfig, AdmissionStats};
use crate::block::{BlockId, NodeId};
use crate::directory::{DirectoryKind, HintDirectory, HintStats, PerfectDirectory};
use crate::node_cache::{CopyKind, NodeCache};
use crate::policy::ReplacementPolicy;
use crate::stats::CacheStats;
use simcore::FxHashMap;

/// With a hint directory: how many wasted hops a request may chase through
/// stale hint chains before falling back to the authoritative home-node
/// path (Sarkar & Hartman forwarding bound).
const HINT_MAX_HOPS: usize = 3;

/// Configuration of a cluster cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Per-node capacity in 8 KB block frames.
    pub capacity_blocks: usize,
    /// Replacement policy (the paper's -Basic vs. master-preserving).
    pub policy: ReplacementPolicy,
    /// Perfect directory (paper's assumption) or hint-based (§6).
    pub directory: DirectoryKind,
    /// Extension (not in the paper): when a globally-oldest master would be
    /// dropped while replicas of it survive elsewhere, promote one replica to
    /// master instead of losing memory residency.
    pub promote_on_master_drop: bool,
    /// Replica-admission filter for scan resistance (`None` — the paper's
    /// behavior — admits every remote hit as a replica). See
    /// [`AdmissionConfig`].
    pub admission: Option<AdmissionConfig>,
}

impl CacheConfig {
    /// The paper's configuration for a given cluster size, per-node memory,
    /// and policy.
    pub fn paper(nodes: usize, capacity_blocks: usize, policy: ReplacementPolicy) -> CacheConfig {
        CacheConfig {
            nodes,
            capacity_blocks,
            policy,
            directory: DirectoryKind::Perfect,
            promote_on_master_drop: false,
            admission: None,
        }
    }
}

/// What happened to the block a node had to evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The victim was dropped from cluster memory (replica, or globally
    /// oldest master).
    Dropped,
    /// A dropped master was rescued by promoting a surviving replica at
    /// `holder` (extension; see [`CacheConfig::promote_on_master_drop`]).
    DroppedWithPromotion {
        /// The node whose replica became the new master.
        holder: NodeId,
    },
    /// The victim master was forwarded to `to`.
    Forwarded {
        /// The peer holding the system's oldest block.
        to: NodeId,
        /// The block the destination dropped to make room (never causes a
        /// further eviction), if it was full.
        displaced: Option<(BlockId, CopyKind)>,
        /// True if the destination already held a replica of the forwarded
        /// block and promoted it in place instead of storing a second copy.
        merged_with_replica: bool,
    },
}

/// Effects of a whole-block write (§6 extension); see
/// [`ClusterCache::write`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Nodes whose replica copies were invalidated (one message each).
    pub invalidated: Vec<NodeId>,
    /// The node whose master copy was superseded, if the writer was not
    /// already the master holder and a master existed.
    pub superseded_master: Option<NodeId>,
    /// Eviction at the writer to make room, if the block was not resident.
    pub eviction: Option<EvictionEffect>,
    /// What the writer held before the write.
    pub prior: Option<CopyKind>,
}

/// Result of offering a read-ahead block to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// An in-memory copy already existed; the disk need not read this block
    /// (it also ends the contiguous read-ahead run).
    AlreadyPresent,
    /// Installed as a master at the requester.
    Installed {
        /// Eviction performed to make room, if any.
        eviction: Option<EvictionEffect>,
    },
}

/// What a node's departure did to its blocks, in counts; see
/// [`ClusterCache::depart`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Masters of the departed node re-mastered: promoted from a surviving
    /// replica, or (on a graceful leave) handed off to a live peer.
    pub remastered: usize,
    /// Masters of a crashed node lost from cluster memory entirely (no
    /// surviving replica); the blocks degrade to disk-only.
    pub lost_masters: usize,
    /// Replica copies held by the departed node purged from the holder
    /// lists.
    pub replicas_purged: usize,
}

/// How a node leaves the cluster; see [`ClusterCache::depart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Departure {
    /// The node crashed: its memory is lost, and a master with no surviving
    /// replica degrades to disk-only.
    Crash,
    /// The node leaves on purpose: a master with no surviving replica is
    /// handed off to a live peer, so no block leaves cluster memory.
    Graceful,
}

/// What [`ClusterCache::depart`] did with the departed node's masters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Departed {
    /// The counts.
    pub report: RepairReport,
    /// Masters promoted onto a surviving replica holder, `(block, holder)`,
    /// in the departed node's iteration order. The holder already has the
    /// bytes.
    pub promoted: Vec<(BlockId, NodeId)>,
    /// Masters handed off on a graceful leave, `(block, peer)`. The bytes
    /// must follow them.
    pub handed_off: Vec<(BlockId, NodeId)>,
}

/// Side effects of making room for one incoming block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionEffect {
    /// The evicted block.
    pub victim: BlockId,
    /// What kind of copy it was at the evictor.
    pub victim_kind: CopyKind,
    /// Where it went.
    pub disposition: Disposition,
}

/// The result of one block access, with everything the caller must charge
/// time for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The requesting node already cached the block.
    LocalHit {
        /// Master or replica.
        kind: CopyKind,
    },
    /// Fetched a copy from the master holder `from`.
    RemoteHit {
        /// The peer that served the block.
        from: NodeId,
        /// Eviction performed at the requester to make room, if any.
        eviction: Option<EvictionEffect>,
        /// With a hint directory: a stale hint sent us to this node first
        /// (one wasted round trip).
        wasted_hop: Option<NodeId>,
        /// False if the admission filter served the block without caching a
        /// replica (always true with admission off).
        admitted: bool,
    },
    /// No master in memory: the block must be read from its home disk; the
    /// requester becomes the new master holder.
    DiskRead {
        /// Eviction performed at the requester to make room, if any.
        eviction: Option<EvictionEffect>,
        /// With a hint directory: a stale hint cost one wasted round trip.
        wasted_hop: Option<NodeId>,
    },
}

impl AccessOutcome {
    /// The eviction side effect, if any.
    pub fn eviction(&self) -> Option<EvictionEffect> {
        match self {
            AccessOutcome::LocalHit { .. } => None,
            AccessOutcome::RemoteHit { eviction, .. }
            | AccessOutcome::DiskRead { eviction, .. } => *eviction,
        }
    }
}

enum Directory {
    Perfect(PerfectDirectory),
    Hint(HintDirectory),
}

/// The cluster-wide cooperative cache state machine.
///
/// ```
/// use ccm_core::{AccessOutcome, BlockId, CacheConfig, ClusterCache, FileId,
///                NodeId, ReplacementPolicy};
///
/// let mut cache = ClusterCache::new(CacheConfig::paper(
///     2, 16, ReplacementPolicy::MasterPreserving));
/// let block = BlockId::new(FileId(7), 0);
///
/// // First access anywhere: a disk read; node 0 becomes the master holder.
/// assert!(matches!(cache.access(NodeId(0), block),
///                  AccessOutcome::DiskRead { .. }));
/// // A peer's access is served from node 0's memory.
/// assert!(matches!(cache.access(NodeId(1), block),
///                  AccessOutcome::RemoteHit { from: NodeId(0), .. }));
/// // And the peer now holds its own (non-master) copy.
/// assert!(matches!(cache.access(NodeId(1), block),
///                  AccessOutcome::LocalHit { .. }));
/// ```
///
/// Layout: `#[repr(C)]`, so the fields every access writes or checks —
/// `tick`, `hint_trail` and the front of `stats` (`local_hits`) — share the
/// first cache line, and a local hit writes that line alone (plus its own
/// node's [`NodeCache`]). `hint_trail` is written only when it holds
/// something, so a local hit leaves it untouched.
#[repr(C)]
pub struct ClusterCache {
    tick: u64,
    /// Wasted hops of the most recent hint-chain resolution (empty under a
    /// perfect directory or after a correct/missing hint). The runtime
    /// drains this with [`ClusterCache::take_hint_trail`] to perform the
    /// real wasted round trips; `AccessOutcome` stays `Copy` and carries
    /// only the first hop.
    hint_trail: Vec<NodeId>,
    stats: CacheStats,
    cfg: CacheConfig,
    nodes: Vec<NodeCache>,
    dir: Directory,
    /// Replica locations per block; maintained for the promotion extension
    /// and for invariant checking. Entries are kept sorted by node id.
    replica_holders: FxHashMap<BlockId, Vec<NodeId>>,
    /// Forwards each master has survived without being referenced (only
    /// maintained under an N-chance policy; Dahlin's recirculation count).
    recirculation: FxHashMap<BlockId, u32>,
    /// Nodes currently departed (or never joined): excluded from
    /// forwarding targets and kept empty until [`ClusterCache::revive_node`].
    down: Vec<bool>,
    /// Replica-admission filter, if configured (see [`AdmissionConfig`]).
    admission: Option<Admission>,
}

impl ClusterCache {
    /// Build an empty cluster cache.
    ///
    /// # Panics
    /// Panics if the cluster has no nodes or nodes have no capacity.
    pub fn new(cfg: CacheConfig) -> ClusterCache {
        assert!(cfg.nodes > 0, "empty cluster");
        let nodes = (0..cfg.nodes)
            .map(|_| NodeCache::new(cfg.capacity_blocks))
            .collect();
        let dir = match cfg.directory {
            DirectoryKind::Perfect => Directory::Perfect(PerfectDirectory::new()),
            DirectoryKind::Hint => Directory::Hint(HintDirectory::new(cfg.nodes)),
        };
        let down = vec![false; cfg.nodes];
        let admission = cfg.admission.map(|a| Admission::new(a, cfg.nodes));
        ClusterCache {
            tick: 0,
            hint_trail: Vec::new(),
            stats: CacheStats::new(),
            cfg,
            nodes,
            dir,
            replica_holders: FxHashMap::default(),
            recirculation: FxHashMap::default(),
            down,
            admission,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Admission-filter decision counters (zeroes with admission off).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission
            .as_ref()
            .map(|a| a.stats())
            .unwrap_or_default()
    }

    /// Hint-directory accuracy statistics (zeroes under a perfect directory).
    pub fn hint_stats(&self) -> HintStats {
        match &self.dir {
            Directory::Perfect(_) => HintStats::default(),
            Directory::Hint(h) => h.stats(),
        }
    }

    /// One node's cache (read-only view).
    pub fn node(&self, n: NodeId) -> &NodeCache {
        &self.nodes[n.index()]
    }

    /// The current logical tick (advances once per access).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Where the master of `block` lives right now, if anywhere (truth,
    /// regardless of directory kind).
    pub fn master_location(&self, block: BlockId) -> Option<NodeId> {
        match &self.dir {
            Directory::Perfect(d) => d.lookup(block),
            Directory::Hint(h) => h.truth(block),
        }
    }

    fn dir_set(&mut self, block: BlockId, node: NodeId) {
        match &mut self.dir {
            Directory::Perfect(d) => d.set(block, node),
            Directory::Hint(h) => h.set(block, node),
        }
    }

    fn dir_clear(&mut self, block: BlockId, witness: NodeId) {
        match &mut self.dir {
            Directory::Perfect(d) => d.clear(block),
            Directory::Hint(h) => h.clear(block, witness),
        }
    }

    fn dir_gossip(&mut self, learner: NodeId, block: BlockId, holder: NodeId) {
        if let Directory::Hint(h) = &mut self.dir {
            h.gossip(learner, block, holder);
        }
    }

    fn holders_add(&mut self, block: BlockId, node: NodeId) {
        let v = self.replica_holders.entry(block).or_default();
        match v.binary_search(&node) {
            Ok(_) => debug_assert!(false, "duplicate replica holder"),
            Err(pos) => v.insert(pos, node),
        }
    }

    fn holders_remove(&mut self, block: BlockId, node: NodeId) {
        if let Some(v) = self.replica_holders.get_mut(&block) {
            if let Ok(pos) = v.binary_search(&node) {
                v.remove(pos);
            }
            if v.is_empty() {
                self.replica_holders.remove(&block);
            }
        }
    }

    /// Access `block` from `node`, mutating cluster state and reporting what
    /// the caller must charge for. Each call advances the global LRU clock.
    pub fn access(&mut self, node: NodeId, block: BlockId) -> AccessOutcome {
        debug_assert!(!self.down[node.index()], "access through a down node");
        self.tick += 1;
        if !self.hint_trail.is_empty() {
            self.hint_trail.clear();
        }
        let tick = self.tick;
        let n = node.index();

        let limited = self.cfg.policy.forward_limit() != u32::MAX;

        // 1. Local hit?
        if let Some(kind) = self.nodes[n].touch(block, tick) {
            self.stats.local_hits += 1;
            if limited {
                // A reference resets the N-chance recirculation count.
                self.recirculation.remove(&block);
            }
            return AccessOutcome::LocalHit { kind };
        }

        // 2. Consult the directory. Under hints this chases a bounded chain
        // of possibly-stale hints (charging one wasted hop per wrong node)
        // before falling back to the authoritative path; the full trail is
        // parked in `hint_trail` for the runtime to replay as real messages.
        let (master_at, wasted_hop) = match &mut self.dir {
            Directory::Perfect(d) => (d.lookup(block), None),
            Directory::Hint(h) => {
                let r = h.resolve_from(node, block, HINT_MAX_HOPS);
                let first = r.hops.first().copied();
                self.hint_trail = r.hops;
                (r.master, first)
            }
        };

        match master_at {
            Some(m) => {
                debug_assert_ne!(m, node, "master here should have been a local hit");
                self.stats.remote_hits += 1;
                // The fetch is a message pair: piggyback hint exchange on it.
                if let Directory::Hint(h) = &mut self.dir {
                    h.exchange(node, m);
                }
                // Serving a peer's fetch refreshes the master's age: the
                // global-LRU reading of "age of last access".
                let touched = self.nodes[m.index()].touch(block, tick);
                debug_assert_eq!(touched, Some(CopyKind::Master));
                if limited {
                    self.recirculation.remove(&block);
                }
                // Replica-admission seam: a one-touch block is served but
                // not cached, so a sequential scan cannot displace the warm
                // set. Protocol state other than the requester's replica is
                // untouched either way.
                let admitted = match &mut self.admission {
                    Some(a) => a.admit(n, block),
                    None => true,
                };
                let eviction = if admitted {
                    let eviction = self.make_room(node);
                    self.nodes[n].insert(block, CopyKind::Replica, tick);
                    self.holders_add(block, node);
                    eviction
                } else {
                    None
                };
                AccessOutcome::RemoteHit {
                    from: m,
                    eviction,
                    wasted_hop,
                    admitted,
                }
            }
            None => {
                self.stats.disk_reads += 1;
                let eviction = self.make_room(node);
                self.nodes[n].insert(block, CopyKind::Master, tick);
                self.dir_set(block, node);
                AccessOutcome::DiskRead {
                    eviction,
                    wasted_hop,
                }
            }
        }
    }

    /// The peer (≠ `exclude`) holding the system's oldest block, with that
    /// age. Ties break toward the lowest node id, deterministically.
    fn peer_with_oldest(&self, exclude: usize) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for (i, cache) in self.nodes.iter().enumerate() {
            if i == exclude || self.down[i] {
                continue;
            }
            let age = cache.oldest_age();
            if age == u64::MAX {
                continue; // empty node: nothing older there
            }
            if best.is_none_or(|(_, a)| age < a) {
                best = Some((i, age));
            }
        }
        best
    }

    /// Free one frame at `node` if it is full. At most one block moves and at
    /// most one further block is dropped (no cascaded evictions).
    fn make_room(&mut self, node: NodeId) -> Option<EvictionEffect> {
        let n = node.index();
        if !self.nodes[n].is_full() {
            return None;
        }
        let (victim, kind, age) = self
            .cfg
            .policy
            .victim(&self.nodes[n])
            .expect("full cache has a victim");

        match kind {
            CopyKind::Replica => {
                self.nodes[n].remove(victim);
                self.holders_remove(victim, node);
                self.stats.evict_drops += 1;
                Some(EvictionEffect {
                    victim,
                    victim_kind: kind,
                    disposition: Disposition::Dropped,
                })
            }
            CopyKind::Master => {
                // Second chance: forward unless globally oldest — and, under
                // N-chance, unless the block has exhausted its recirculation
                // count without being referenced.
                let limit = self.cfg.policy.forward_limit();
                let exhausted = limit != u32::MAX
                    && self.recirculation.get(&victim).copied().unwrap_or(0) >= limit;
                match self.peer_with_oldest(n) {
                    Some((peer, peer_age)) if peer_age < age && !exhausted => {
                        self.nodes[n].remove(victim);
                        if limit != u32::MAX {
                            *self.recirculation.entry(victim).or_insert(0) += 1;
                        }
                        let disposition = self.deliver_forward(victim, age, peer, node);
                        self.stats.forwards += 1;
                        Some(EvictionEffect {
                            victim,
                            victim_kind: kind,
                            disposition,
                        })
                    }
                    _ => {
                        // Globally oldest (or out of chances): leaves memory.
                        self.nodes[n].remove(victim);
                        self.recirculation.remove(&victim);
                        self.stats.evict_drops += 1;
                        self.stats.master_drops += 1;
                        let disposition = if self.cfg.promote_on_master_drop {
                            self.try_promote_survivor(victim, node)
                        } else {
                            self.dir_clear(victim, node);
                            Disposition::Dropped
                        };
                        Some(EvictionEffect {
                            victim,
                            victim_kind: kind,
                            disposition,
                        })
                    }
                }
            }
        }
    }

    /// Deliver a forwarded master (with its original `age`) to `peer`.
    /// `evictor` learns the new location (it performed the send), keeping
    /// hint-directory staleness to third parties only.
    fn deliver_forward(
        &mut self,
        block: BlockId,
        age: u64,
        peer: usize,
        evictor: NodeId,
    ) -> Disposition {
        let peer_id = NodeId(peer as u16);

        // Destination already holds a replica: merge instead of duplicating.
        if self.nodes[peer].lookup(block) == Some(CopyKind::Replica) {
            self.nodes[peer].promote_replica(block, age);
            self.holders_remove(block, peer_id);
            self.dir_set(block, peer_id);
            self.dir_gossip(evictor, block, peer_id);
            self.stats.promotions += 1;
            return Disposition::Forwarded {
                to: peer_id,
                displaced: None,
                merged_with_replica: true,
            };
        }

        // Paper rule (2): if everything at the destination is now younger,
        // the forwarded block is dropped. (Cannot fire in the atomic model —
        // the peer was chosen for holding an older block — but the
        // message-passing runtime can race into it.)
        if self.nodes[peer].oldest_age() >= age {
            self.dir_clear(block, peer_id);
            self.stats.forward_drops += 1;
            self.stats.master_drops += 1;
            return Disposition::Dropped;
        }

        // Paper rule (1): make room by dropping the destination's oldest —
        // never triggering another forward (no cascades).
        let displaced = if self.nodes[peer].is_full() {
            let (d_block, d_kind, _) = self.nodes[peer].oldest().expect("full cache non-empty");
            self.nodes[peer].remove(d_block);
            self.stats.destination_drops += 1;
            match d_kind {
                CopyKind::Master => {
                    self.stats.master_drops += 1;
                    self.recirculation.remove(&d_block);
                    self.dir_clear(d_block, peer_id);
                }
                CopyKind::Replica => self.holders_remove(d_block, peer_id),
            }
            Some((d_block, d_kind))
        } else {
            None
        };

        self.nodes[peer].insert_forwarded_master(block, age);
        self.dir_set(block, peer_id);
        self.dir_gossip(evictor, block, peer_id);
        Disposition::Forwarded {
            to: peer_id,
            displaced,
            merged_with_replica: false,
        }
    }

    /// Extension: rescue a dropped master by promoting a surviving replica.
    fn try_promote_survivor(&mut self, block: BlockId, witness: NodeId) -> Disposition {
        let holder = self
            .replica_holders
            .get(&block)
            .and_then(|v| v.first().copied());
        match holder {
            Some(h) => {
                let age = self.nodes[h.index()]
                    .age_of(block)
                    .expect("holder list out of sync");
                self.nodes[h.index()].promote_replica(block, age);
                self.holders_remove(block, h);
                self.dir_set(block, h);
                self.stats.promotions += 1;
                Disposition::DroppedWithPromotion { holder: h }
            }
            None => {
                self.dir_clear(block, witness);
                Disposition::Dropped
            }
        }
    }

    /// Perform a whole-block write at `node` — the write protocol the paper
    /// leaves as future work (§6), in its simplest coherent form for a
    /// single-writer-at-a-time block:
    ///
    /// 1. every replica of the block at other nodes is **invalidated**;
    /// 2. the old master copy (wherever it is) is superseded — the writer
    ///    becomes the new master holder (a whole-block overwrite needs no
    ///    old data, so nothing is fetched);
    /// 3. the directory moves to the writer.
    ///
    /// Returns what the caller must pay for: invalidation messages, the
    /// superseded master's location, and any eviction at the writer.
    /// Dirty-block write-back policy is the caller's concern (the threaded
    /// runtime writes through to its backing store).
    pub fn write(&mut self, node: NodeId, block: BlockId) -> WriteOutcome {
        debug_assert!(!self.down[node.index()], "write through a down node");
        self.tick += 1;
        let tick = self.tick;
        let n = node.index();
        self.stats.writes += 1;

        // 1. Invalidate replicas everywhere else.
        let holders = self.replica_holders.remove(&block).unwrap_or_default();
        let mut invalidated = Vec::new();
        for h in holders {
            if h == node {
                // The writer's own replica is upgraded below, not invalidated;
                // put it back in the holder map until then.
                let v = self.replica_holders.entry(block).or_default();
                v.push(h);
                continue;
            }
            let removed = self.nodes[h.index()].remove(block);
            debug_assert_eq!(removed.map(|(k, _)| k), Some(CopyKind::Replica));
            self.stats.invalidations += 1;
            invalidated.push(h);
        }

        // 2. Supersede the old master and install the writer's copy.
        let prior = self.nodes[n].lookup(block);
        let old_master = self.master_location(block);
        let superseded_master = match prior {
            Some(CopyKind::Master) => {
                // In-place overwrite; refresh recency.
                self.nodes[n].touch(block, tick);
                None
            }
            Some(CopyKind::Replica) => {
                // Upgrade our replica: it becomes the (fresh) master.
                self.nodes[n].remove(block);
                self.holders_remove(block, node);
                if let Some(m) = old_master {
                    self.nodes[m.index()].remove(block);
                    self.stats.invalidations += 1;
                }
                self.nodes[n].insert(block, CopyKind::Master, tick);
                self.dir_set(block, node);
                old_master
            }
            None => {
                if let Some(m) = old_master {
                    self.nodes[m.index()].remove(block);
                    self.stats.invalidations += 1;
                }
                let eviction = self.make_room(node);
                self.nodes[n].insert(block, CopyKind::Master, tick);
                self.dir_set(block, node);
                return WriteOutcome {
                    invalidated,
                    superseded_master: old_master,
                    eviction,
                    prior: None,
                };
            }
        };
        if self.cfg.policy.forward_limit() != u32::MAX {
            self.recirculation.remove(&block);
        }
        WriteOutcome {
            invalidated,
            superseded_master,
            eviction: None,
            prior,
        }
    }

    /// Install a block read by extent read-ahead: the home disk read past the
    /// demanded block to the end of its 64 KB extent ("a reasonable system
    /// would likely implement some form of … caching, and/or prefetching",
    /// paper §5), and the requester becomes master holder of the extra
    /// blocks too. No-op (returns `None` with no state change) if the block
    /// already has an in-memory master anywhere or is resident at `node`;
    /// otherwise behaves like the tail of a disk-read access: evict if full,
    /// insert as master at the current tick, update the directory. Not
    /// counted as an access.
    pub fn install_prefetched(&mut self, node: NodeId, block: BlockId) -> PrefetchOutcome {
        if self.master_location(block).is_some() || self.nodes[node.index()].lookup(block).is_some()
        {
            return PrefetchOutcome::AlreadyPresent;
        }
        let eviction = self.make_room(node);
        self.nodes[node.index()].insert(block, CopyKind::Master, self.tick);
        self.dir_set(block, node);
        self.stats.prefetch_installs += 1;
        PrefetchOutcome::Installed { eviction }
    }

    /// Drain the wasted-hop trail of the most recent access (hint
    /// directories only; empty otherwise). Each listed node was visited on
    /// a stale hint's say-so and did not hold the master.
    pub fn take_hint_trail(&mut self) -> Vec<NodeId> {
        if self.hint_trail.is_empty() {
            // Nothing to take: leave the field, and its line, unwritten.
            return Vec::new();
        }
        std::mem::take(&mut self.hint_trail)
    }

    /// True if `node` is currently departed (or never joined).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Take `node` out of the cluster, the one path for every departure.
    ///
    /// Its replicas are purged from the holder lists. Each of its masters
    /// is re-mastered onto the first surviving replica holder
    /// (deterministic: lowest node id). A master with no surviving replica
    /// is, on a [`Departure::Crash`], cleared from the directory — the block
    /// degrades to disk-only until the next read re-creates a master — and,
    /// on a [`Departure::Graceful`] leave, handed off with its age to the
    /// live peer with the most free frames (ties to the lowest id), which
    /// drops its own oldest block if it is full (never cascading). The node
    /// ends down and empty, excluded from forwarding until
    /// [`ClusterCache::revive_node`]. A crash counts one `node_repairs`. A
    /// cold slot that should not start as a member leaves gracefully too:
    /// it holds nothing, so nothing moves and no statistic changes.
    ///
    /// # Panics
    /// Panics if the node is already down, or on a graceful leave of the
    /// last live node.
    pub fn depart(&mut self, node: NodeId, how: Departure) -> Departed {
        let n = node.index();
        assert!(!self.down[n], "node {node:?} is already down");
        self.down[n] = true;
        assert!(
            how == Departure::Crash || self.down.iter().any(|&d| !d),
            "cannot retire the last live node"
        );
        let contents: Vec<(BlockId, CopyKind, u64)> = self.nodes[n].iter().collect();
        let mut out = Departed::default();
        for (block, kind, age) in contents {
            self.nodes[n].remove(block);
            if kind == CopyKind::Replica {
                self.holders_remove(block, node);
                out.report.replicas_purged += 1;
                continue;
            }
            self.recirculation.remove(&block);
            // Down nodes hold nothing (purged when they left), so every
            // listed holder is a live candidate.
            let survivor = self
                .replica_holders
                .get(&block)
                .and_then(|v| v.first().copied());
            if let Some(h) = survivor {
                let age = self.nodes[h.index()]
                    .age_of(block)
                    .expect("holder list out of sync");
                self.nodes[h.index()].promote_replica(block, age);
                self.holders_remove(block, h);
                self.dir_set(block, h);
                self.stats.promotions += 1;
                out.report.remastered += 1;
                out.promoted.push((block, h));
            } else if how == Departure::Crash {
                self.dir_clear(block, node);
                out.report.lost_masters += 1;
            } else {
                let peer = self.hand_off(node, block, age);
                out.report.remastered += 1;
                out.handed_off.push((block, peer));
            }
        }
        if how == Departure::Crash {
            self.stats.node_repairs += 1;
        }
        self.stats.remasters += out.report.remastered as u64;
        self.stats.lost_masters += out.report.lost_masters as u64;
        out
    }

    /// Hand the leaving `from`'s master `block` (of age `age`) to the live
    /// peer with the most free frames, displacing that peer's oldest block
    /// if it is full. Returns the peer.
    fn hand_off(&mut self, from: NodeId, block: BlockId, age: u64) -> NodeId {
        let peer = self
            .live_nodes()
            .into_iter()
            .max_by_key(|p| {
                let c = &self.nodes[p.index()];
                (c.capacity() - c.len(), std::cmp::Reverse(p.index()))
            })
            .expect("a live peer exists");
        let p = peer.index();
        if self.nodes[p].is_full() {
            let (d_block, d_kind, _) = self.nodes[p].oldest().expect("full cache non-empty");
            self.nodes[p].remove(d_block);
            self.stats.destination_drops += 1;
            match d_kind {
                CopyKind::Master => {
                    self.stats.master_drops += 1;
                    self.recirculation.remove(&d_block);
                    self.dir_clear(d_block, peer);
                }
                CopyKind::Replica => self.holders_remove(d_block, peer),
            }
        }
        self.nodes[p].insert_forwarded_master(block, age);
        self.dir_set(block, peer);
        self.dir_gossip(from, block, peer);
        peer
    }

    /// Rejoin a departed (or never joined) node with a cold cache.
    ///
    /// # Panics
    /// Panics if the node is not down.
    pub fn revive_node(&mut self, node: NodeId) {
        let n = node.index();
        assert!(self.down[n], "node {node:?} is not down");
        debug_assert!(self.nodes[n].is_empty(), "down node accrued state");
        self.down[n] = false;
    }

    /// Deterministic hash used to shard blocks over the live set for
    /// re-mastering on membership changes (FNV-1a over the block id).
    fn block_shard(block: BlockId) -> u64 {
        let mut h = simcore::hash::FNV_OFFSET;
        simcore::hash::fnv1a(&mut h, &block.file.0.to_le_bytes());
        simcore::hash::fnv1a(&mut h, &block.index.to_le_bytes());
        h
    }

    /// Live (up) nodes in ascending id order.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| !self.down[i])
            .map(|i| NodeId(i as u16))
            .collect()
    }

    /// Re-master a deterministic ~1/n share of the cluster's blocks onto a
    /// freshly joined (live, cold) node: every master whose shard hash maps
    /// to the joiner under the new live set moves there, keeping its age,
    /// until the joiner is full. Returns the moved blocks with their *old*
    /// holders so the runtime can ship the bytes after them.
    ///
    /// # Panics
    /// Panics if the joiner is down or not cold.
    pub fn rebalance_on_join(&mut self, joiner: NodeId) -> Vec<(BlockId, NodeId)> {
        assert!(!self.down[joiner.index()], "joiner must be revived first");
        assert!(self.nodes[joiner.index()].is_empty(), "joiner must be cold");
        let live = self.live_nodes();
        let rank = live
            .iter()
            .position(|&n| n == joiner)
            .expect("joiner is live");
        // Snapshot all masters in deterministic (block) order.
        let mut masters: Vec<(BlockId, NodeId)> = match &self.dir {
            Directory::Perfect(d) => d.iter().collect(),
            Directory::Hint(_) => (0..self.nodes.len())
                .flat_map(|i| {
                    self.nodes[i]
                        .iter()
                        .filter(|(_, k, _)| *k == CopyKind::Master)
                        .map(move |(b, _, _)| (b, NodeId(i as u16)))
                })
                .collect(),
        };
        masters.sort_unstable_by_key(|&(b, _)| b);
        let mut moved = Vec::new();
        for (block, holder) in masters {
            if holder == joiner {
                continue;
            }
            if self.nodes[joiner.index()].is_full() {
                break;
            }
            if Self::block_shard(block) % live.len() as u64 != rank as u64 {
                continue;
            }
            // The joiner is cold, so it cannot hold a replica to merge with;
            // move the master keeping its age (it must not look fresh).
            let (kind, age) = self.nodes[holder.index()]
                .remove(block)
                .expect("directory points at a non-resident master");
            debug_assert_eq!(kind, CopyKind::Master);
            self.nodes[joiner.index()].insert_forwarded_master(block, age);
            self.dir_set(block, joiner);
            self.dir_gossip(holder, block, joiner);
            self.stats.remasters += 1;
            moved.push((block, holder));
        }
        moved
    }

    /// Total blocks resident across the cluster.
    pub fn resident_blocks(&self) -> usize {
        self.nodes.iter().map(|c| c.len()).sum()
    }

    /// Total master copies resident across the cluster.
    pub fn resident_masters(&self) -> usize {
        self.nodes.iter().map(|c| c.num_masters()).sum()
    }

    /// Full-state invariant check (O(cluster contents); tests only).
    ///
    /// Verifies: per-node structural invariants; at most one master per
    /// block, consistent with the directory in both directions; replica
    /// holder lists exact.
    pub fn check_invariants(&self) {
        let mut seen_masters: FxHashMap<BlockId, NodeId> = FxHashMap::default();
        let mut seen_replicas: FxHashMap<BlockId, Vec<NodeId>> = FxHashMap::default();
        for (i, cache) in self.nodes.iter().enumerate() {
            cache.check_invariants();
            assert!(
                !self.down[i] || cache.is_empty(),
                "down node {i} still holds blocks"
            );
            for (block, kind, _) in cache.iter() {
                match kind {
                    CopyKind::Master => {
                        let prev = seen_masters.insert(block, NodeId(i as u16));
                        assert!(prev.is_none(), "two masters for {block:?}");
                    }
                    CopyKind::Replica => {
                        seen_replicas
                            .entry(block)
                            .or_default()
                            .push(NodeId(i as u16));
                    }
                }
            }
        }
        for (&block, &holder) in seen_masters.iter() {
            assert_eq!(
                self.master_location(block),
                Some(holder),
                "directory missing/incorrect for {block:?}"
            );
        }
        // Directory must not point at phantom masters.
        let dir_len = match &self.dir {
            Directory::Perfect(d) => d.len(),
            Directory::Hint(h) => h.len(),
        };
        assert_eq!(dir_len, seen_masters.len(), "directory has phantom entries");
        // Replica holder lists exact.
        assert_eq!(
            self.replica_holders.len(),
            seen_replicas.len(),
            "replica holder key mismatch"
        );
        for (block, mut nodes) in seen_replicas {
            nodes.sort();
            assert_eq!(
                self.replica_holders.get(&block),
                Some(&nodes),
                "holder list mismatch for {block:?}"
            );
        }
    }

    /// Quiescent-state convergence audit (tests; O(masters × live nodes)).
    ///
    /// On top of [`ClusterCache::check_invariants`], verifies the hint
    /// directory's headline property at a quiescent point: every live node
    /// can locate every resident master through at most one bounded
    /// forwarding chain, and — because lazy correction rode that chain's
    /// reply — a second resolution from the same node is hint-exact (zero
    /// wasted hops). Under the perfect directory this is just the invariant
    /// check.
    ///
    /// Mutates hint tables and accuracy statistics (every resolution
    /// teaches its participants), so callers comparing [`HintStats`] across
    /// runs must capture them *before* auditing.
    pub fn audit_hint_convergence(&mut self) {
        self.check_invariants();
        let masters: Vec<(BlockId, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(i, cache)| {
                cache
                    .iter()
                    .filter(|&(_, kind, _)| kind == CopyKind::Master)
                    .map(|(block, _, _)| (block, NodeId(i as u16)))
                    .collect::<Vec<_>>()
            })
            .collect();
        let live = self.live_nodes();
        if let Directory::Hint(h) = &mut self.dir {
            for &(block, master) in &masters {
                for &node in &live {
                    let first = h.resolve_from(node, block, HINT_MAX_HOPS);
                    assert_eq!(
                        first.master,
                        Some(master),
                        "hint resolution diverged from truth for {block:?} at {node:?}"
                    );
                    let second = h.resolve_from(node, block, HINT_MAX_HOPS);
                    assert_eq!(second.master, Some(master));
                    assert!(
                        second.hops.is_empty(),
                        "stale hint for {block:?} at {node:?} survived a forwarding chain"
                    );
                }
            }
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

    fn cluster(nodes: usize, cap: usize, policy: ReplacementPolicy) -> ClusterCache {
        ClusterCache::new(CacheConfig::paper(nodes, cap, policy))
    }

    /// What every access writes or checks sits on the first cache line.
    #[test]
    fn access_fields_share_the_first_line() {
        use std::mem::offset_of;
        assert!(offset_of!(ClusterCache, tick) < 64);
        assert!(offset_of!(ClusterCache, hint_trail) + std::mem::size_of::<Vec<NodeId>>() <= 64);
        assert_eq!(offset_of!(CacheStats, local_hits), 0);
        assert!(offset_of!(ClusterCache, stats) + 8 <= 64);
    }

    /// Re-mastering shards are FNV-1a over the little-endian block id;
    /// the value was captured before the hash moved into `simcore::hash`.
    #[test]
    fn block_shard_is_pinned() {
        let shard = ClusterCache::block_shard(BlockId::new(FileId(7), 3));
        assert_eq!(shard, 0xabdc_f70e_b116_9ed1);
    }

    #[test]
    fn first_access_is_disk_read_and_creates_master() {
        let mut c = cluster(2, 4, ReplacementPolicy::GlobalLru);
        match c.access(NodeId(0), b(1)) {
            AccessOutcome::DiskRead { eviction: None, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.master_location(b(1)), Some(NodeId(0)));
        assert_eq!(c.node(NodeId(0)).lookup(b(1)), Some(CopyKind::Master));
        assert_eq!(c.stats().disk_reads, 1);
        c.check_invariants();
    }

    #[test]
    fn second_access_same_node_is_local_hit() {
        let mut c = cluster(2, 4, ReplacementPolicy::GlobalLru);
        c.access(NodeId(0), b(1));
        match c.access(NodeId(0), b(1)) {
            AccessOutcome::LocalHit {
                kind: CopyKind::Master,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().local_hits, 1);
    }

    #[test]
    fn peer_access_is_remote_hit_and_creates_replica() {
        let mut c = cluster(2, 4, ReplacementPolicy::GlobalLru);
        c.access(NodeId(0), b(1));
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::RemoteHit {
                from,
                eviction: None,
                ..
            } => {
                assert_eq!(from, NodeId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.node(NodeId(1)).lookup(b(1)), Some(CopyKind::Replica));
        // Master stays where it was.
        assert_eq!(c.master_location(b(1)), Some(NodeId(0)));
        assert_eq!(c.stats().remote_hits, 1);
        c.check_invariants();
    }

    #[test]
    fn replica_hit_is_local() {
        let mut c = cluster(2, 4, ReplacementPolicy::GlobalLru);
        c.access(NodeId(0), b(1));
        c.access(NodeId(1), b(1)); // replica at node 1
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::LocalHit {
                kind: CopyKind::Replica,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn eviction_drops_replica_first_under_master_preserving() {
        let mut c = cluster(2, 2, ReplacementPolicy::MasterPreserving);
        // Node 0: master b1 (via disk), replica b2 (master made at node 1).
        c.access(NodeId(0), b(1));
        c.access(NodeId(1), b(2));
        c.access(NodeId(0), b(2)); // replica of b2 at node 0; cache now full
                                   // New block: must evict. Master-preserving drops the replica b2 even
                                   // though the master b1 is older.
        let out = c.access(NodeId(0), b(3));
        let ev = out.eviction().expect("eviction expected");
        assert_eq!(ev.victim, b(2));
        assert_eq!(ev.victim_kind, CopyKind::Replica);
        assert_eq!(ev.disposition, Disposition::Dropped);
        assert_eq!(c.node(NodeId(0)).lookup(b(1)), Some(CopyKind::Master));
        c.check_invariants();
    }

    #[test]
    fn global_lru_evicts_oldest_master_and_forwards() {
        let mut c = cluster(2, 2, ReplacementPolicy::GlobalLru);
        // Node 1 gets an old block so it is the forward target.
        c.access(NodeId(1), b(9)); // tick 1: node 1 master b9 (oldest in system)
        c.access(NodeId(0), b(1)); // tick 2: node 0 master b1
        c.access(NodeId(0), b(2)); // tick 3: node 0 master b2; node 0 full
                                   // tick 4: node 0 needs room; victim = b1 (master, age 2). Node 1's
                                   // oldest (age 1) is older, so b1 is forwarded to node 1.
        let out = c.access(NodeId(0), b(3));
        let ev = out.eviction().expect("eviction");
        assert_eq!(ev.victim, b(1));
        assert_eq!(ev.victim_kind, CopyKind::Master);
        match ev.disposition {
            Disposition::Forwarded {
                to,
                displaced,
                merged_with_replica,
            } => {
                assert_eq!(to, NodeId(1));
                assert_eq!(displaced, None, "node 1 had spare room");
                assert!(!merged_with_replica);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.master_location(b(1)), Some(NodeId(1)));
        assert_eq!(c.stats().forwards, 1);
        c.check_invariants();
    }

    #[test]
    fn forward_displaces_destinations_oldest_without_cascade() {
        let mut c = cluster(2, 2, ReplacementPolicy::GlobalLru);
        c.access(NodeId(1), b(9)); // tick 1 (will be displaced)
        c.access(NodeId(1), b(8)); // tick 2; node 1 now full
        c.access(NodeId(0), b(1)); // tick 3
        c.access(NodeId(0), b(2)); // tick 4; node 0 full
        let out = c.access(NodeId(0), b(3)); // evict b1 (age 3) -> forward to node 1
        let ev = out.eviction().unwrap();
        match ev.disposition {
            Disposition::Forwarded { to, displaced, .. } => {
                assert_eq!(to, NodeId(1));
                // Node 1's oldest (b9, master) is dropped — even though it is
                // a master, per the no-cascade rule.
                assert_eq!(displaced, Some((b(9), CopyKind::Master)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            c.master_location(b(9)),
            None,
            "displaced master left memory"
        );
        assert_eq!(c.master_location(b(1)), Some(NodeId(1)));
        assert_eq!(c.stats().destination_drops, 1);
        c.check_invariants();
    }

    #[test]
    fn globally_oldest_master_is_dropped_not_forwarded() {
        let mut c = cluster(2, 2, ReplacementPolicy::GlobalLru);
        c.access(NodeId(0), b(1)); // tick 1: oldest in system
        c.access(NodeId(0), b(2)); // tick 2
        c.access(NodeId(1), b(3)); // tick 3 (peer holds only younger blocks)
        let out = c.access(NodeId(0), b(4)); // victim b1 age 1; peer oldest age 3
        let ev = out.eviction().unwrap();
        assert_eq!(ev.victim, b(1));
        assert_eq!(ev.disposition, Disposition::Dropped);
        assert_eq!(c.master_location(b(1)), None);
        assert_eq!(c.stats().master_drops, 1);
        // A later access anywhere must go to disk again.
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::DiskRead { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        c.check_invariants();
    }

    #[test]
    fn forward_onto_existing_replica_merges() {
        let mut c = cluster(2, 3, ReplacementPolicy::GlobalLru);
        c.access(NodeId(0), b(1)); // t1: master b1 at node 0
        c.access(NodeId(1), b(1)); // t2: replica b1 at node 1
                                   // Age node 1's replica below node 0's later blocks, then force node 0
                                   // to forward master b1 to node 1.
        c.access(NodeId(0), b(2)); // t3
        c.access(NodeId(0), b(3)); // t4; node 0 full: b1(t2-touch? no: master touched at t2), b2, b3
                                   // Node 0's LRU: b1 was touched at t2 (remote serve touches master).
        let out = c.access(NodeId(0), b(4)); // victim = b1 (master, age t2); peer oldest = replica b1 age t2
                                             // Peer's oldest age == victim age → NOT older → drop instead of forward.
        let ev = out.eviction().unwrap();
        assert_eq!(ev.victim, b(1));
        // With equal ages the master is globally oldest-tied; it must drop.
        assert_eq!(ev.disposition, Disposition::Dropped);
        c.check_invariants();

        // Now construct a true merge: rebuild with distinct ages.
        let mut c = cluster(2, 3, ReplacementPolicy::GlobalLru);
        c.access(NodeId(1), b(7)); // t1: node 1 old block
        c.access(NodeId(0), b(1)); // t2: master b1 at 0
        c.access(NodeId(1), b(1)); // t3: replica b1 at 1; master age now t3
        c.access(NodeId(0), b(2)); // t4
        c.access(NodeId(0), b(3)); // t5; node 0 full (b1@t3, b2, b3)
        let out = c.access(NodeId(0), b(4)); // victim b1 master age t3; peer oldest b7@t1 older → forward
        let ev = out.eviction().unwrap();
        match ev.disposition {
            Disposition::Forwarded {
                to,
                merged_with_replica,
                displaced,
            } => {
                assert_eq!(to, NodeId(1));
                assert!(merged_with_replica, "should merge with resident replica");
                assert_eq!(displaced, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.node(NodeId(1)).lookup(b(1)), Some(CopyKind::Master));
        assert_eq!(c.master_location(b(1)), Some(NodeId(1)));
        assert_eq!(c.stats().promotions, 1);
        c.check_invariants();
    }

    #[test]
    fn promotion_extension_rescues_dropped_master() {
        let mut cfg = CacheConfig::paper(2, 2, ReplacementPolicy::GlobalLru);
        cfg.promote_on_master_drop = true;
        let mut c = ClusterCache::new(cfg);
        c.access(NodeId(0), b(1)); // t1 master at 0
        c.access(NodeId(1), b(1)); // t2 replica at 1 (master touched t2)
        c.access(NodeId(1), b(2)); // t3: node 1 full (replica b1, master b2)
        c.access(NodeId(0), b(3)); // t4: node 0 full (master b1@t2, master b3)
                                   // Force node 0 to evict b1: is it globally oldest? node 1 oldest =
                                   // replica b1 @ t2 — ages tie, so b1 drops... to get a strict drop we
                                   // need victim to be globally oldest. It ties; peer_age < age is false
                                   // → drop path → promotion extension fires on surviving replica at 1.
        let out = c.access(NodeId(0), b(4));
        let ev = out.eviction().unwrap();
        assert_eq!(ev.victim, b(1));
        match ev.disposition {
            Disposition::DroppedWithPromotion { holder } => assert_eq!(holder, NodeId(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.master_location(b(1)), Some(NodeId(1)));
        assert_eq!(c.node(NodeId(1)).lookup(b(1)), Some(CopyKind::Master));
        c.check_invariants();
    }

    #[test]
    fn master_preserving_fills_memory_with_distinct_masters() {
        // 4 nodes x 8 frames; 32 distinct blocks touched round-robin from
        // different nodes, then re-touched. Under master-preserving, all 32
        // masters must be resident (memory first holds the working set).
        let mut c = cluster(4, 8, ReplacementPolicy::MasterPreserving);
        for round in 0..4 {
            for i in 0..32 {
                let node = NodeId((i % 4) as u16);
                let _ = c.access(node, b(i));
                let _ = round;
            }
        }
        assert_eq!(c.resident_masters(), 32, "all masters resident");
        assert_eq!(c.resident_blocks(), 32, "no room wasted on replicas");
        c.check_invariants();
    }

    #[test]
    fn stats_accumulate_consistently() {
        let mut c = cluster(3, 4, ReplacementPolicy::MasterPreserving);
        for i in 0..50u32 {
            c.access(NodeId((i % 3) as u16), b(i % 10));
        }
        let s = c.stats();
        assert_eq!(s.accesses(), 50);
        assert!(s.local_hits + s.remote_hits + s.disk_reads == 50);
        c.check_invariants();
    }

    #[test]
    fn hint_directory_reports_wasted_hops() {
        let mut cfg = CacheConfig::paper(3, 2, ReplacementPolicy::GlobalLru);
        cfg.directory = DirectoryKind::Hint;
        let mut c = ClusterCache::new(cfg);
        // Node 2 learns b1 is at node 0.
        c.access(NodeId(0), b(1)); // t1 master at 0
        c.access(NodeId(2), b(1)); // t2: NoHint lookup; learns at 0
                                   // Meanwhile make the master move to node 1 via forwarding.
        c.access(NodeId(1), b(9)); // t3 old block at node 1
        c.access(NodeId(0), b(2)); // t4 node 0 full (b1@t2, b2@t4)
        let _ = c.access(NodeId(0), b(3)); // evict b1 → forwarded to node 1? b1 age t2 vs node1 oldest t3 — t3 > t2 so b1 is globally oldest → dropped.
                                           // Accept either path; what we test is that a stale hint eventually
                                           // yields a wasted hop:
        let loc = c.master_location(b(1));
        // Evict node 2's replica of b1 so its next access is not a local hit.
        c.access(NodeId(2), b(5)); // fills node 2
        let _ = c.access(NodeId(2), b(6)); // evicts oldest at node 2 (replica b1)
        assert_eq!(c.node(NodeId(2)).lookup(b(1)), None);
        match c.access(NodeId(2), b(1)) {
            AccessOutcome::DiskRead { wasted_hop, .. } => {
                if loc.is_none() {
                    assert_eq!(wasted_hop, Some(NodeId(0)), "stale hint should cost a hop");
                }
            }
            AccessOutcome::RemoteHit { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.hint_stats().lookups > 0);
        c.check_invariants();
    }

    #[test]
    fn nchance_drops_master_after_exhausting_chances() {
        // chances = 1: a master may be forwarded once; the next eviction
        // without an intervening reference drops it.
        let mut c = cluster(3, 1, ReplacementPolicy::NChance { chances: 1 });
        c.access(NodeId(2), b(9)); // t1: node 2 holds the system's oldest
        c.access(NodeId(0), b(1)); // t2: master b1 at node 0 (cap 1: full)
                                   // t3: new block at node 0 evicts b1 -> forwarded (chance 1 used).
        let out = c.access(NodeId(0), b(2));
        match out.eviction().unwrap().disposition {
            Disposition::Forwarded { .. } => {}
            other => panic!("expected first forward, got {other:?}"),
        }
        // b1 now sits wherever it was forwarded. Force another eviction of
        // it without referencing it: fill its holder again.
        let holder = c.master_location(b(1)).expect("b1 still in memory");
        let out = c.access(holder, b(3)); // holder evicts b1 again
        let ev = out.eviction().unwrap();
        assert_eq!(ev.victim, b(1));
        assert_eq!(
            ev.disposition,
            Disposition::Dropped,
            "second unreferenced eviction must drop under 1-chance"
        );
        assert_eq!(c.master_location(b(1)), None);
        c.check_invariants();
    }

    #[test]
    fn nchance_reference_resets_the_count() {
        let mut c = cluster(3, 1, ReplacementPolicy::NChance { chances: 1 });
        c.access(NodeId(2), b(9)); // old block at node 2
        c.access(NodeId(0), b(1)); // master b1 at node 0
        c.access(NodeId(0), b(2)); // forwards b1 (chance used)
        let holder = c.master_location(b(1)).expect("in memory");
        // Reference b1 remotely: resets its recirculation count...
        let other = NodeId(if holder == NodeId(1) { 0 } else { 1 });
        c.access(other, b(1));
        // ...so the next eviction may forward it again rather than drop.
        let out = c.access(holder, b(4));
        if out.eviction().map(|e| e.victim) == Some(b(1)) {
            // Only assert when b1 was indeed the victim at the holder.
            match out.eviction().unwrap().disposition {
                Disposition::Forwarded { .. } | Disposition::Dropped => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        c.check_invariants();
    }

    #[test]
    fn write_to_unseen_block_creates_master() {
        let mut c = cluster(2, 4, ReplacementPolicy::MasterPreserving);
        let out = c.write(NodeId(1), b(5));
        assert_eq!(out.prior, None);
        assert_eq!(out.superseded_master, None);
        assert!(out.invalidated.is_empty());
        assert_eq!(c.master_location(b(5)), Some(NodeId(1)));
        assert_eq!(c.stats().writes, 1);
        c.check_invariants();
    }

    #[test]
    fn write_invalidates_replicas_and_supersedes_master() {
        let mut c = cluster(3, 4, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(0), b(1)); // master at 0
        c.access(NodeId(1), b(1)); // replica at 1
        c.access(NodeId(2), b(1)); // replica at 2
                                   // Node 2 writes: its replica upgrades; 0's master superseded; 1's
                                   // replica invalidated.
        let out = c.write(NodeId(2), b(1));
        assert_eq!(out.prior, Some(CopyKind::Replica));
        assert_eq!(out.superseded_master, Some(NodeId(0)));
        assert_eq!(out.invalidated, vec![NodeId(1)]);
        assert_eq!(c.master_location(b(1)), Some(NodeId(2)));
        assert_eq!(c.node(NodeId(0)).lookup(b(1)), None);
        assert_eq!(c.node(NodeId(1)).lookup(b(1)), None);
        assert_eq!(c.node(NodeId(2)).lookup(b(1)), Some(CopyKind::Master));
        assert_eq!(c.stats().invalidations, 2);
        c.check_invariants();
    }

    #[test]
    fn write_by_master_holder_is_in_place() {
        let mut c = cluster(2, 4, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(0), b(1));
        c.access(NodeId(1), b(1)); // replica at 1
        let out = c.write(NodeId(0), b(1));
        assert_eq!(out.prior, Some(CopyKind::Master));
        assert_eq!(out.superseded_master, None);
        assert_eq!(out.invalidated, vec![NodeId(1)]);
        assert_eq!(c.master_location(b(1)), Some(NodeId(0)));
        c.check_invariants();
    }

    #[test]
    fn read_after_write_hits_the_new_master() {
        let mut c = cluster(3, 4, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(0), b(1));
        c.write(NodeId(2), b(1));
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::RemoteHit { from, .. } => assert_eq!(from, NodeId(2)),
            other => panic!("unexpected {other:?}"),
        }
        c.check_invariants();
    }

    #[test]
    fn crash_remasters_from_surviving_replica() {
        let mut c = cluster(3, 4, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(0), b(1)); // master at 0
        c.access(NodeId(1), b(1)); // replica at 1
        c.access(NodeId(0), b(2)); // master at 0, no replica anywhere
        let report = c.depart(NodeId(0), Departure::Crash).report;
        assert_eq!(report.remastered, 1, "b1 re-mastered at node 1");
        assert_eq!(report.lost_masters, 1, "b2 lost with node 0");
        assert_eq!(report.replicas_purged, 0);
        assert!(c.is_down(NodeId(0)));
        assert_eq!(c.master_location(b(1)), Some(NodeId(1)));
        assert_eq!(c.node(NodeId(1)).lookup(b(1)), Some(CopyKind::Master));
        assert_eq!(c.master_location(b(2)), None);
        assert!(c.node(NodeId(0)).is_empty());
        let s = c.stats();
        assert_eq!(s.node_repairs, 1);
        assert_eq!(s.remasters, 1);
        assert_eq!(s.lost_masters, 1);
        c.check_invariants();
        // A lost block reads from disk again, mastered by the reader.
        match c.access(NodeId(2), b(2)) {
            AccessOutcome::DiskRead { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        c.check_invariants();
    }

    #[test]
    fn crash_purges_its_replicas() {
        let mut c = cluster(3, 4, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(0), b(1)); // master at 0
        c.access(NodeId(1), b(1)); // replica at 1
        c.access(NodeId(2), b(1)); // replica at 2
        let report = c.depart(NodeId(1), Departure::Crash).report;
        assert_eq!(report.replicas_purged, 1);
        assert_eq!(report.remastered, 0);
        assert_eq!(report.lost_masters, 0);
        // Master untouched; node 2's replica still valid.
        assert_eq!(c.master_location(b(1)), Some(NodeId(0)));
        assert_eq!(c.node(NodeId(2)).lookup(b(1)), Some(CopyKind::Replica));
        c.check_invariants();
    }

    #[test]
    fn down_node_is_not_a_forward_target() {
        let mut c = cluster(2, 2, ReplacementPolicy::GlobalLru);
        c.access(NodeId(1), b(9)); // t1: node 1 holds the system's oldest
        c.access(NodeId(0), b(1)); // t2
        c.access(NodeId(0), b(2)); // t3; node 0 full
        c.depart(NodeId(1), Departure::Crash);
        // Without the down-check, b1 (not globally oldest on ages alone)
        // would forward to node 1; it must drop instead.
        let out = c.access(NodeId(0), b(3));
        let ev = out.eviction().expect("eviction");
        assert_eq!(ev.victim, b(1));
        assert_eq!(ev.disposition, Disposition::Dropped);
        assert!(c.node(NodeId(1)).is_empty());
        c.check_invariants();
    }

    #[test]
    fn revived_node_rejoins_cold_and_works() {
        let mut c = cluster(2, 4, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(1), b(1));
        c.depart(NodeId(1), Departure::Crash);
        c.revive_node(NodeId(1));
        assert!(!c.is_down(NodeId(1)));
        assert!(c.node(NodeId(1)).is_empty(), "rejoin must be cold");
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::DiskRead { .. } => {} // its old master died with it
            other => panic!("unexpected {other:?}"),
        }
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics() {
        let mut c = cluster(2, 4, ReplacementPolicy::MasterPreserving);
        c.depart(NodeId(1), Departure::Crash);
        c.depart(NodeId(1), Departure::Crash);
    }

    #[test]
    fn join_rebalances_a_deterministic_share() {
        let mut c = cluster(4, 16, ReplacementPolicy::MasterPreserving);
        c.depart(NodeId(3), Departure::Graceful); // slot 3 not yet a member
        for i in 0..24 {
            c.access(NodeId((i % 3) as u16), b(i));
        }
        assert!(c.node(NodeId(3)).is_empty());
        c.revive_node(NodeId(3));
        let moved = c.rebalance_on_join(NodeId(3));
        assert!(!moved.is_empty(), "joiner must absorb some masters");
        for &(block, old) in &moved {
            assert_eq!(c.master_location(block), Some(NodeId(3)));
            assert_ne!(old, NodeId(3));
        }
        assert_eq!(c.node(NodeId(3)).num_masters(), moved.len());
        c.check_invariants();
        // Re-running the same history yields the same move set.
        let mut c2 = cluster(4, 16, ReplacementPolicy::MasterPreserving);
        c2.depart(NodeId(3), Departure::Graceful);
        for i in 0..24 {
            c2.access(NodeId((i % 3) as u16), b(i));
        }
        c2.revive_node(NodeId(3));
        assert_eq!(c2.rebalance_on_join(NodeId(3)), moved);
    }

    #[test]
    fn retire_preserves_masters() {
        let mut c = cluster(3, 8, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(2), b(1)); // master at 2, no replica
        c.access(NodeId(2), b(2)); // master at 2
        c.access(NodeId(0), b(2)); // replica of b2 at 0
        c.access(NodeId(0), b(3)); // master at 0 (stays put)
        let before = c.resident_masters();
        let gone = c.depart(NodeId(2), Departure::Graceful);
        assert!(c.is_down(NodeId(2)));
        assert!(c.node(NodeId(2)).is_empty());
        // b2 re-mastered from node 0's replica (no bytes move); b1 handed
        // off to a live peer (bytes must follow).
        assert_eq!(c.master_location(b(2)), Some(NodeId(0)));
        assert_eq!(gone.promoted, vec![(b(2), NodeId(0))]);
        assert_eq!(gone.handed_off.len(), 1);
        assert_eq!(gone.handed_off[0].0, b(1));
        assert_eq!(c.master_location(b(1)), Some(gone.handed_off[0].1));
        assert_eq!(gone.report.remastered, 2);
        assert_eq!(gone.report.lost_masters, 0);
        assert_eq!(c.resident_masters(), before, "no master lost on leave");
        assert_eq!(c.stats().node_repairs, 0, "a leave is not a repair");
        c.check_invariants();
    }

    #[test]
    fn hint_trail_is_exposed_and_bounded() {
        let mut cfg = CacheConfig::paper(4, 8, ReplacementPolicy::MasterPreserving);
        cfg.directory = DirectoryKind::Hint;
        let mut c = ClusterCache::new(cfg);
        c.access(NodeId(0), b(1)); // master at 0
        c.access(NodeId(2), b(1)); // node 2 learns: at 0 (replica installed)
        assert!(c.take_hint_trail().is_empty(), "no stale hint yet");
        c.check_invariants();
        // Churn a wider cluster until stale chains form: the longest trail
        // reaches the bound and none passes it.
        let mut cfg = CacheConfig::paper(8, 4, ReplacementPolicy::MasterPreserving);
        cfg.directory = DirectoryKind::Hint;
        let mut c = ClusterCache::new(cfg);
        let mut rng = simcore::Rng::new(31);
        let mut longest = 0;
        for _ in 0..4_000 {
            let node = NodeId(rng.next_below(8) as u16);
            c.access(node, b(rng.next_below(40) as u32));
            let trail = c.take_hint_trail();
            assert!(trail.len() <= HINT_MAX_HOPS, "trail {trail:?} too long");
            longest = longest.max(trail.len());
        }
        assert_eq!(longest, HINT_MAX_HOPS);
        c.check_invariants();
    }

    #[test]
    fn audit_passes_after_arbitrary_churn() {
        let mut cfg = CacheConfig::paper(5, 8, ReplacementPolicy::MasterPreserving);
        cfg.directory = DirectoryKind::Hint;
        let mut c = ClusterCache::new(cfg);
        let mut rng = simcore::Rng::new(31);
        for _ in 0..2_000 {
            let node = NodeId(rng.next_below(5) as u16);
            let block = b(rng.next_below(60) as u32);
            c.access(node, block);
            c.take_hint_trail();
        }
        // Churn the membership through the audit as well.
        c.audit_hint_convergence();
        c.depart(NodeId(4), Departure::Graceful);
        c.audit_hint_convergence();
        c.revive_node(NodeId(4));
        c.rebalance_on_join(NodeId(4));
        c.audit_hint_convergence();
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut c = cluster(4, 16, ReplacementPolicy::MasterPreserving);
            let mut rng = simcore::Rng::new(77);
            for _ in 0..5_000 {
                let node = NodeId(rng.next_below(4) as u16);
                let block = b(rng.next_below(100) as u32);
                c.access(node, block);
            }
            (c.stats(), c.resident_blocks(), c.resident_masters())
        };
        assert_eq!(run(), run());
    }

    fn admission_cluster(nodes: usize, cap: usize, ghost: usize) -> ClusterCache {
        let mut cfg = CacheConfig::paper(nodes, cap, ReplacementPolicy::MasterPreserving);
        cfg.admission = Some(AdmissionConfig::new(ghost));
        ClusterCache::new(cfg)
    }

    #[test]
    fn admission_rejects_first_touch_then_admits() {
        let mut c = admission_cluster(2, 4, 8);
        c.access(NodeId(0), b(1)); // disk read at node 0: never gated
        assert_eq!(c.node(NodeId(0)).lookup(b(1)), Some(CopyKind::Master));

        // First remote hit at node 1: served, not cached.
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::RemoteHit {
                from,
                eviction: None,
                admitted: false,
                ..
            } => assert_eq!(from, NodeId(0)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.node(NodeId(1)).lookup(b(1)), None);
        c.check_invariants();

        // Second remote hit: ghost hit, replica admitted.
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::RemoteHit { admitted: true, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.node(NodeId(1)).lookup(b(1)), Some(CopyKind::Replica));
        let s = c.admission_stats();
        assert_eq!((s.admitted, s.rejected, s.ghost_hits), (1, 1, 1));
        c.check_invariants();
    }

    #[test]
    fn admission_off_admits_everything() {
        let mut c = cluster(2, 4, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(0), b(1));
        match c.access(NodeId(1), b(1)) {
            AccessOutcome::RemoteHit { admitted: true, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.admission_stats(), AdmissionStats::default());
    }

    #[test]
    fn scan_does_not_displace_warm_set_under_admission() {
        // Node 1's cache is full of warm replicas (masters at node 0); a
        // one-touch scan of blocks mastered at node 2 passes through node 1.
        // With admission on nothing at node 1 is displaced; with admission
        // off the same scan evicts warm replicas.
        let warm = |c: &mut ClusterCache| {
            for i in 0..8 {
                c.access(NodeId(0), b(i)); // masters at node 0
                c.access(NodeId(1), b(i)); // (rejected under admission)
                c.access(NodeId(1), b(i)); // node 1 holds a replica
            }
            for i in 100..108 {
                c.access(NodeId(2), b(i)); // scan masters at node 2
                c.access(NodeId(1), b(i)); // one-touch scan through node 1
            }
        };

        let mut on = admission_cluster(3, 8, 4);
        warm(&mut on);
        for i in 0..8 {
            assert_eq!(
                on.node(NodeId(1)).lookup(b(i)),
                Some(CopyKind::Replica),
                "scan displaced warm replica {i}"
            );
        }
        assert_eq!(on.admission_stats().rejected, 8 + 8);
        assert_eq!(on.admission_stats().ghost_hits, 8);
        on.check_invariants();

        let mut off = cluster(3, 8, ReplacementPolicy::MasterPreserving);
        warm(&mut off);
        let displaced = (0..8)
            .filter(|&i| off.node(NodeId(1)).lookup(b(i)).is_none())
            .count();
        assert!(displaced > 0, "admission-off scan should displace warm set");
        off.check_invariants();
    }

    #[test]
    fn admission_deterministic_replay() {
        let run = || {
            let mut c = admission_cluster(4, 16, 32);
            let mut rng = simcore::Rng::new(78);
            for _ in 0..5_000 {
                let node = NodeId(rng.next_below(4) as u16);
                let block = b(rng.next_below(100) as u32);
                c.access(node, block);
            }
            c.check_invariants();
            (c.stats(), c.admission_stats(), c.resident_blocks())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_reports_remaster_targets() {
        let mut c = cluster(3, 8, ReplacementPolicy::MasterPreserving);
        c.access(NodeId(0), b(1)); // master at 0
        c.access(NodeId(1), b(1)); // replica at 1
        c.access(NodeId(0), b(2)); // master at 0, no replica
        let gone = c.depart(NodeId(0), Departure::Crash);
        assert_eq!(gone.report.remastered, 1);
        assert_eq!(gone.report.lost_masters, 1);
        assert_eq!(gone.promoted, vec![(b(1), NodeId(1))]);
        assert!(gone.handed_off.is_empty(), "a crash hands nothing off");
        assert_eq!(c.master_location(b(1)), Some(NodeId(1)));
        c.check_invariants();
    }
}
