//! Node service threads and the public middleware API.
//!
//! One [`Middleware`] instance is one emulated cluster: the shared protocol
//! state (`ccm-core`'s [`ClusterCache`] behind a mutex — the "perfect
//! directory" realized as shared memory), one block store per node, one
//! service thread per node answering peer traffic, and any number of
//! [`NodeHandle`]s through which the hosting service reads.
//!
//! Consistency model: protocol decisions are atomic (the cache mutex), but
//! data movement is not — bytes chase the decision over channels. Whenever
//! the data has not caught up with the metadata (a peer answers "don't have
//! it", a local hit's bytes are still in flight), the reader falls through
//! to the backing store, exactly the "eventual disk read" escape hatch the
//! paper describes for in-flight races (§3). The `store_fallbacks` counter
//! makes the frequency of that path observable.

use crate::fault::{ChaosLan, FaultPlan};
use crate::membership::{MemberState, Membership};
use crate::obs::{ReadClass, RtObs};
use crate::shard::ShardedMap;
use crate::store::{BlockStore, Catalog};
use crate::transport::{BlockStores, Lan, PeerMsg, Pending, Transport};
use crate::write::{WriteConfig, WriteMode, WriteStats};
use ccm_core::{
    AccessOutcome, AdmissionConfig, AdmissionStats, BlockId, CacheConfig, CacheStats, ClusterCache,
    CopyKind, Departure, DirectoryKind, Disposition, EvictionEffect, FileId, HintStats, NodeId,
    RepairReport, ReplacementPolicy, BLOCK_SIZE,
};
use ccm_disk::{service::DiskRead, DiskConfig, DiskService, DiskStats};
use ccm_obs::{Hop, Registry, Stopwatch, TraceRing};
use simcore::chan::Receiver;
use simcore::sync::Mutex;
use simcore::FxHashMap;
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Error from [`NodeHandle::write_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The backing [`BlockStore`] refused the write (read-only store).
    ReadOnlyStore,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::ReadOnlyStore => write!(f, "backing store is read-only"),
        }
    }
}

impl std::error::Error for WriteError {}

/// Runtime configuration: everything [`Middleware::start`] needs besides
/// the catalog and the backing store.
#[derive(Clone)]
pub struct RtConfig {
    /// Provisioned node slots: transport endpoints, stores, disk services
    /// and metrics are sized for this many nodes once, at start.
    pub nodes: usize,
    /// How many slots start as members: slots `0..members` start `Up` with
    /// a service thread, and the rest sit provisioned and cold until
    /// [`Middleware::join_node`] brings them in. `None` (the default) starts
    /// every slot.
    pub members: Option<usize>,
    /// The peer transport: `None` (the default) builds the in-process
    /// channel [`Lan`]; pass `ccm-net`'s `TcpLan`, or anything else
    /// implementing [`Transport`], to run the same cluster over it. `faults`
    /// composes on top of whichever it is.
    pub transport: Option<Arc<dyn Transport>>,
    /// How a requester locates a block's master: the paper's perfect
    /// directory (the default) or per-node hints (§6).
    pub directory: DirectoryKind,
    /// Per-node cache capacity in 8 KB block frames.
    pub capacity_blocks: usize,
    /// Replacement policy; defaults to the paper's winning variant.
    pub policy: ReplacementPolicy,
    /// How long a reader waits for a peer's block before falling through to
    /// the backing store. Bounded so a lost request or reply degrades to a
    /// disk read instead of hanging the reader.
    pub fetch_timeout: Duration,
    /// Link-level fault injection, if any (testing).
    pub faults: Option<FaultPlan>,
    /// Metric registry the cluster reports into. `None` creates a private
    /// one (reachable via [`Middleware::registry`]); pass a shared registry
    /// to co-locate runtime, transport, and HTTP metrics in one scrape.
    pub obs: Option<Registry>,
    /// Write-path coherence: write-through (the default) persists before
    /// acknowledging; write-back defers persistence to a flush under a
    /// bounded dirty budget. See [`crate::write`] for the durability
    /// contract.
    pub write: WriteConfig,
    /// Replica-admission control: `Some` installs the ghost-LRU scan
    /// filter at remote-hit replica admission (one-touch blocks are served
    /// without being cached until they re-touch); `None` (the default)
    /// admits everything, exactly the paper's behavior.
    pub admission: Option<AdmissionConfig>,
}

impl Default for RtConfig {
    fn default() -> RtConfig {
        RtConfig {
            nodes: 4,
            members: None,
            transport: None,
            directory: DirectoryKind::Perfect,
            capacity_blocks: 1024,
            policy: ReplacementPolicy::MasterPreserving,
            fetch_timeout: Duration::from_secs(2),
            faults: None,
            obs: None,
            write: WriteConfig::default(),
            admission: None,
        }
    }
}

/// One acknowledged, unpersisted write: whose store holds the bytes, and a
/// digest of exactly the payload that was acknowledged. The digest is what
/// keeps crash recovery honest — a survivor's copy only counts as the
/// write if its bytes hash to the acknowledged image (a replica whose
/// refresh was still in flight at the crash holds the *pre*-write image
/// and must be treated as a loss, not silently persisted as current).
#[derive(Clone, Copy)]
struct DirtyEntry {
    owner: NodeId,
    digest: u64,
}

/// The write-back dirty ledger: which node's store holds the authoritative
/// (acknowledged but unpersisted) bytes of each dirty block, plus a
/// first-dirtied queue for oldest-first flushing. Rewrites of an
/// already-dirty block leave a stale queue entry behind; pops skip entries
/// whose block is no longer in `owners`.
#[derive(Default)]
struct DirtyLedger {
    owners: FxHashMap<BlockId, DirtyEntry>,
    order: VecDeque<BlockId>,
}

/// FNV-1a over a block payload (the dirty-entry acknowledgment digest).
fn digest_bytes(data: &[u8]) -> u64 {
    let mut h = simcore::hash::FNV_OFFSET;
    simcore::hash::fnv1a(&mut h, data);
    h
}

impl DirtyLedger {
    /// Pop the oldest block that is still dirty.
    fn pop_oldest(&mut self) -> Option<BlockId> {
        while let Some(b) = self.order.pop_front() {
            if self.owners.contains_key(&b) {
                return Some(b);
            }
        }
        None
    }
}

/// What `Shared::flush_block` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushOutcome {
    /// The block was not dirty.
    Clean,
    /// Dirty bytes persisted to the backing store.
    Flushed,
    /// The dirty bytes were unreachable (owner store empty or the store
    /// refused the write); the block is now in the lost set.
    Lost,
}

struct Shared {
    cache: Mutex<ClusterCache>,
    /// Per-node block stores, shared with the transport (see
    /// [`Transport::attach_stores`]).
    stores: BlockStores,
    disk: Arc<dyn BlockStore>,
    /// One asynchronous disk service per node (default [`DiskConfig`]):
    /// every miss and degraded fallback is a queued, scheduled, coalesced
    /// read against `disk` — a chunk's consecutive disk-read decisions as
    /// one request — and the services keep no block bytes of their own.
    /// Kept by value so dropping `Shared` joins the worker threads.
    disks: Vec<DiskService>,
    catalog: Catalog,
    chaos: ChaosLan,
    /// Liveness flags: set once a node's service thread runs, and cleared
    /// first thing on every departure so readers stop targeting a leaving
    /// node before its repair completes. Clearing one is how a departure
    /// is claimed, so exactly one caller carries each out.
    alive: Vec<AtomicBool>,
    /// One slot per node: its service thread, `None` while it has none
    /// (not yet a member, departed, or severed).
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// The epoch-versioned member table: which of the provisioned slots
    /// currently participate in the protocol. Transitions are made only by
    /// [`Shared::admit`], [`Shared::depart`] and the heartbeat monitor's
    /// suspicion, each through [`Membership::transition`].
    membership: Membership,
    fetch_timeout: Duration,
    /// Metric handles and the block-path trace ring. Store fallbacks (reads
    /// that had to fall through to the backing store because the data plane
    /// had not caught up with a protocol decision) live here too, as
    /// per-node counters.
    obs: RtObs,
    /// Write-path coherence configuration (mode, dirty budget, cadence).
    write_cfg: WriteConfig,
    /// Per-block write serialization: the lock is held across persist (or
    /// dirty-record), the protocol write, invalidation fan-out, and the
    /// writer's store install, so concurrent same-block writers persist in
    /// exactly the order the protocol observes. Locks are created on first
    /// write of a block and retained (one `Arc` per ever-written block).
    write_locks: ShardedMap<Arc<Mutex<()>>>,
    /// Acknowledged writes across all nodes — the clock for the
    /// `WriteConfig::flush_every_ops` cadence.
    write_ops: AtomicU64,
    /// Write-back dirty ledger (empty under write-through).
    dirty: Mutex<DirtyLedger>,
    /// Acknowledged write-back writes whose dirty bytes died with a
    /// crashed master and could not be recovered. Reads of these blocks
    /// serve the last *persisted* (pre-write) image; the set makes the
    /// loss detectable instead of silent.
    lost_writes: Mutex<BTreeSet<BlockId>>,
}

/// How a member leaves the cluster. [`Shared::depart`] is the one path
/// for all three.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// [`Middleware::leave_node`]: the node persists its dirty blocks and
    /// hands its masters off, so nothing is lost.
    Leave,
    /// [`Middleware::crash_node`]: the node's memory is lost and the
    /// protocol is repaired around it.
    Crash,
    /// The heartbeat monitor declared the node dead: a crash whose service
    /// thread is unreachable, so it is left for shutdown to reap.
    Declared,
}

impl Shared {
    fn lan(&self) -> &dyn Transport {
        self.chaos.inner()
    }

    /// Start `node`'s service thread on a fresh inbox and mark the node
    /// alive: the one way a service thread starts, for the initial members
    /// and on every join.
    fn start_service(self: &Arc<Self>, node: NodeId) {
        let inbox = self.lan().reconnect(node);
        let shared = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ccm-node-{}", node.index()))
            .spawn(move || service_loop(shared, node, inbox))
            .expect("spawn node thread");
        self.threads.lock()[node.index()] = Some(handle);
        self.alive[node.index()].store(true, Ordering::Release);
    }

    /// Stop `node`'s service thread and join it: the one way a service
    /// thread stops. `None` if the node had no thread. The `Shutdown` is
    /// control-plane (every transport delivers it locally); once the thread
    /// exits, its receiver drops and in-flight sends to it fail fast.
    fn stop_service(&self, node: NodeId) -> Option<std::thread::Result<()>> {
        self.lan().send(node, node, PeerMsg::Shutdown);
        let handle = self.threads.lock()[node.index()].take()?;
        Some(handle.join())
    }

    /// Bring `node` into the cluster — the one path every join takes. Its
    /// service thread starts on a fresh inbox and the protocol revives its
    /// slot cold. With `rebalance`, a deterministic share of the resident
    /// masters is re-mastered onto it and their bytes follow, store to
    /// store (both backends keep node stores in-process; a networked
    /// deployment would stream them). Then the member table moves it to
    /// `Up`. Returns how many blocks moved onto it.
    ///
    /// # Panics
    /// Panics if the node is out of range or already up.
    fn admit(self: &Arc<Self>, node: NodeId, rebalance: bool) -> usize {
        assert!(node.index() < self.alive.len(), "no such node");
        assert!(
            !self.is_alive(node) && !self.membership.is_member(node),
            "node {node:?} is already up"
        );
        self.start_service(node);
        let moved = {
            let mut cache = self.cache.lock();
            cache.revive_node(node);
            if rebalance {
                cache.rebalance_on_join(node)
            } else {
                Vec::new()
            }
        };
        for &(block, from) in &moved {
            let dirty_from = self.dirty_owner(block) == Some(from);
            let data = match self.store_take(from, block) {
                Some(d) => {
                    if dirty_from {
                        // The dirty bytes move with the mastership: the
                        // joiner now owns the unpersisted image.
                        if let Some(e) = self.dirty.lock().owners.get_mut(&block) {
                            e.owner = node;
                        }
                    }
                    d
                }
                None => {
                    // Data-plane race: the old holder's bytes were already
                    // gone; warm the joiner from disk instead. For a dirty
                    // block that means the acknowledged write is gone too —
                    // record the loss rather than silently re-mastering the
                    // stale persisted image as current.
                    if dirty_from {
                        self.dirty.lock().owners.remove(&block);
                        self.mark_lost(block);
                    }
                    self.obs.node(from).store_fallbacks.inc();
                    self.obs.node(from).move_fallbacks.inc();
                    self.disk_read(node, block)
                }
            };
            self.store_insert(node, block, data);
        }
        self.membership.transition(node, MemberState::Up);
        moved.len()
    }

    /// Take `node` out of the cluster — the one path every departure
    /// takes. `None` if the node was not up: it never joined, or another
    /// caller took it out first.
    ///
    /// Clearing the liveness flag claims the departure, and readers stop
    /// targeting the node. Its service thread stops next (unless the
    /// monitor declared it unreachable), so no queued forward lands after
    /// its store is handed over. A leave persists the node's dirty blocks
    /// (its store is intact; only the thread has stopped), then hands its
    /// masters off and ships their bytes before clearing the store, so
    /// survivors inherit clean copies and nothing is lost. A crash wipes
    /// the store first, repairs the protocol around the lost memory and
    /// reconciles the dirty ledger. Last, the member table moves the node
    /// to `Left` or `Down`.
    ///
    /// # Panics
    /// Panics if the node is out of range, or on a leave of the last live
    /// node.
    fn depart(&self, node: NodeId, exit: Exit) -> Option<RepairReport> {
        assert!(node.index() < self.alive.len(), "no such node");
        if !self.alive[node.index()].swap(false, Ordering::AcqRel) {
            return None;
        }
        if exit != Exit::Declared {
            if let Some(joined) = self.stop_service(node) {
                joined.expect("node thread panicked");
            }
        }
        let report = if exit == Exit::Leave {
            let dirty: Vec<BlockId> = {
                let d = self.dirty.lock();
                d.owners
                    .iter()
                    .filter(|&(_, e)| e.owner == node)
                    .map(|(&b, _)| b)
                    .collect()
            };
            for block in dirty {
                if self.dirty_owner(block) == Some(node) {
                    self.flush_block(block);
                }
            }
            let gone = self.cache.lock().depart(node, Departure::Graceful);
            for &(block, to) in &gone.handed_off {
                let data = self.store_take(node, block).unwrap_or_else(|| {
                    self.obs.node(node).store_fallbacks.inc();
                    self.obs.node(node).move_fallbacks.inc();
                    self.disk_read(to, block)
                });
                self.store_insert(to, block, data);
            }
            self.stores[node.index()].clear();
            gone.report
        } else {
            self.stores[node.index()].clear();
            let gone = self.cache.lock().depart(node, Departure::Crash);
            self.recover_dirty_after_crash(node, &gone.promoted);
            gone.report
        };
        let state = if exit == Exit::Leave {
            MemberState::Left
        } else {
            MemberState::Down
        };
        self.membership.transition(node, state);
        Some(report)
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()].load(Ordering::Acquire)
    }

    fn store_insert(&self, node: NodeId, block: BlockId, data: Arc<[u8]>) {
        self.stores[node.index()].insert(block, data);
    }

    fn store_take(&self, node: NodeId, block: BlockId) -> Option<Arc<[u8]>> {
        self.stores[node.index()].remove(block)
    }

    fn store_get(&self, node: NodeId, block: BlockId) -> Option<Arc<[u8]>> {
        self.stores[node.index()].get(block)
    }

    /// Read `block` through `node`'s disk service (queued behind its
    /// scheduler, coalesced with concurrent misses of the same block).
    fn disk_read(&self, node: NodeId, block: BlockId) -> Arc<[u8]> {
        self.disk_bytes(node, block, self.disks[node.index()].read_async(block))
    }

    /// `block`'s bytes from `pending`, the result `node`'s disk service
    /// delivers for it. An injected I/O error is absorbed here: the read
    /// retries synchronously against the backing store, which cannot fail,
    /// so disk faults degrade latency but never the bytes served.
    fn disk_bytes(&self, node: NodeId, block: BlockId, pending: Receiver<DiskRead>) -> Arc<[u8]> {
        pending.recv().ok().and_then(Result::ok).unwrap_or_else(|| {
            self.obs.node(node).disk_error_fallbacks.inc();
            Arc::from(self.disk.read_block(block))
        })
    }

    /// The per-block write serialization lock for `block`.
    fn write_lock(&self, block: BlockId) -> Arc<Mutex<()>> {
        self.write_locks
            .get_or_insert_with(block, || Arc::new(Mutex::new(())))
    }

    /// Persist `block` through `node`'s disk service and invalidate it on
    /// every other service, so that no read submitted anywhere after the
    /// write attaches to a disk read that began before it.
    fn persist(&self, node: NodeId, block: BlockId, data: &[u8]) -> bool {
        if !self.disks[node.index()].write_block(block, data) {
            return false;
        }
        for (i, svc) in self.disks.iter().enumerate() {
            if i != node.index() {
                svc.invalidate(block);
            }
        }
        true
    }

    /// Record `block` as dirty with its authoritative bytes in `owner`'s
    /// store (write-back ack). A rewrite retargets the owner and digest in
    /// place.
    fn mark_dirty(&self, owner: NodeId, block: BlockId, digest: u64) {
        let mut d = self.dirty.lock();
        d.owners.insert(block, DirtyEntry { owner, digest });
        d.order.push_back(block);
    }

    /// Who currently owns `block`'s dirty bytes, if anyone.
    fn dirty_owner(&self, block: BlockId) -> Option<NodeId> {
        self.dirty.lock().owners.get(&block).map(|e| e.owner)
    }

    fn mark_lost(&self, block: BlockId) {
        self.lost_writes.lock().insert(block);
        self.obs.wb_lost.inc();
    }

    /// Flush `block`'s dirty bytes (if any) to the backing store,
    /// serialized against concurrent writers of the same block. Callers
    /// must hold no block write lock (the flush takes `block`'s).
    fn flush_block(&self, block: BlockId) -> FlushOutcome {
        let lock = self.write_lock(block);
        let _guard = lock.lock();
        let owner = self.dirty.lock().owners.remove(&block);
        let Some(entry) = owner else {
            return FlushOutcome::Clean;
        };
        match self.store_get(entry.owner, block) {
            Some(bytes) if self.persist(entry.owner, block, &bytes) => {
                self.obs.wb_flushes.inc();
                FlushOutcome::Flushed
            }
            _ => {
                // The owner's bytes are gone (should only happen in a
                // crash window) or the store is read-only: the write
                // cannot be persisted. Record the loss.
                self.mark_lost(block);
                FlushOutcome::Lost
            }
        }
    }

    /// Drain the whole dirty ledger, oldest first. Returns how many blocks
    /// were persisted.
    fn flush_dirty(&self) -> usize {
        let mut flushed = 0;
        loop {
            let block = self.dirty.lock().pop_oldest();
            let Some(block) = block else { break };
            if self.flush_block(block) == FlushOutcome::Flushed {
                flushed += 1;
            }
        }
        flushed
    }

    /// Flush oldest dirty blocks until the ledger fits the budget again
    /// (write-back acks call this after releasing their block lock).
    fn enforce_dirty_budget(&self) {
        loop {
            let victim = {
                let mut d = self.dirty.lock();
                if d.owners.len() <= self.write_cfg.dirty_budget {
                    return;
                }
                d.pop_oldest()
            };
            let Some(victim) = victim else { return };
            self.flush_block(victim);
        }
    }

    /// Reconcile the dirty ledger after `crashed`'s store was wiped and
    /// the directory repaired. For each dirty block the crashed node
    /// owned: if re-mastering handed the block to a survivor (`moves`)
    /// whose store holds bytes matching the acknowledged digest, persist
    /// them — the write survives. Otherwise the write is lost: recorded
    /// in the lost set, never silently replaced by the stale persisted
    /// image. A survivor copy that fails the digest check is a replica
    /// whose refresh was still in flight at the crash (pre-write bytes)
    /// and counts as a loss too.
    fn recover_dirty_after_crash(&self, crashed: NodeId, moves: &[(BlockId, NodeId)]) {
        let owned: Vec<(BlockId, u64)> = {
            let mut d = self.dirty.lock();
            let owned: Vec<(BlockId, u64)> = d
                .owners
                .iter()
                .filter(|&(_, e)| e.owner == crashed)
                .map(|(&b, e)| (b, e.digest))
                .collect();
            for &(b, _) in &owned {
                d.owners.remove(&b);
            }
            owned
        };
        if owned.is_empty() {
            return;
        }
        let targets: FxHashMap<BlockId, NodeId> = moves.iter().copied().collect();
        for (block, digest) in owned {
            let rescued = targets
                .get(&block)
                .and_then(|&to| self.store_get(to, block).map(|bytes| (to, bytes)))
                .filter(|(_, bytes)| digest_bytes(bytes) == digest);
            match rescued {
                Some((to, bytes)) if self.persist(to, block, &bytes) => {
                    self.obs.wb_recovered.inc();
                }
                _ => self.mark_lost(block),
            }
        }
    }

    /// Data-plane fallback read. Normally the backing store; but if the
    /// block is write-back dirty, disk holds the superseded image — the
    /// dirty owner's in-process store is authoritative, so read it
    /// directly (a networked deployment would re-request from the owner).
    /// Only if the owner's bytes are unreachable does this degrade to the
    /// store, which then serves the last persisted image.
    fn fallback_read(&self, node: NodeId, block: BlockId) -> Arc<[u8]> {
        if let Some(owner) = self.dirty_owner(block) {
            if let Some(bytes) = self.store_get(owner, block) {
                return bytes;
            }
        }
        self.disk_read(node, block)
    }

    /// The cluster's refresh hook, run by every snapshot of its registry
    /// (see [`Middleware::start`]): set the occupancy gauges and the epoch
    /// from the state that keeps them, and advance the hint and admission
    /// counters to the protocol's own tallies. No data path writes these
    /// series. It takes the decision lock, the store shard locks and the
    /// dirty ledger's lock one at a time, never two at once.
    fn refresh_obs(&self) {
        let obs = &self.obs;
        {
            let cache = self.cache.lock();
            obs.directory_blocks.set(cache.resident_blocks() as i64);
            let (h, a) = (cache.hint_stats(), cache.admission_stats());
            obs.advance_tallies([
                h.correct,
                h.stale,
                h.forward_hops,
                a.admitted,
                a.rejected,
                a.ghost_hits,
            ]);
        }
        for (node, store) in obs.nodes.iter().zip(self.stores.iter()) {
            node.store_blocks.set(store.len() as i64);
        }
        let dirty = self.dirty.lock().owners.len();
        obs.wb_dirty_blocks.set(dirty as i64);
        obs.epoch.set(self.membership.epoch() as i64);
    }

    /// Move data in sympathy with an eviction decision. `req` is the trace
    /// request id of the read that triggered the eviction (0 = untraced,
    /// e.g. a write-path eviction).
    fn apply_eviction(&self, evictor: NodeId, effect: EvictionEffect, req: u64) {
        // A dirty master never leaves the cache unpersisted: if the victim
        // is dirty *and this evictor owns its bytes*, flush before they
        // move or drop. (Forwarded masters would otherwise ride a
        // chaos-droppable Forward frame; a lost frame would leave the only
        // current copy nowhere and later disk fallbacks stale.) Evicting a
        // mere replica of someone else's dirty block needs no flush — the
        // owner still holds the bytes.
        if self.dirty_owner(effect.victim) == Some(evictor) {
            self.flush_block(effect.victim);
        }
        self.obs.node(evictor).evictions.inc();
        match effect.disposition {
            Disposition::Dropped | Disposition::DroppedWithPromotion { .. } => {
                // Promotion keeps the holder's existing bytes; the evictor's
                // copy is gone either way.
                self.store_take(evictor, effect.victim);
            }
            Disposition::Forwarded {
                to,
                displaced,
                merged_with_replica,
            } => {
                self.obs.node(evictor).forwards.inc();
                let data = self.store_take(evictor, effect.victim);
                if merged_with_replica {
                    // The destination already holds the bytes as a replica.
                    return;
                }
                // A missing victim usually means its bytes are still in
                // flight *to us*: a block forwarded here can be re-evicted
                // before our own service thread has processed that frame
                // (nothing forces the thread to run while the evicting
                // thread stays hot on local hits). Drain our inbox with a
                // barrier and look again before declaring the bytes lost.
                // The barrier bypasses the chaos wrapper (control-plane),
                // so an injected drop or delay of the forward still
                // surfaces as the fallback the fault model expects.
                let data = data.or_else(|| {
                    self.lan().barrier(evictor, self.fetch_timeout);
                    self.store_take(evictor, effect.victim)
                });
                // If our bytes were really gone (data-plane race), the
                // destination will fall back to the backing store on demand;
                // re-reading here keeps its store warm instead.
                let data = data.unwrap_or_else(|| {
                    self.obs.node(evictor).store_fallbacks.inc();
                    self.obs.node(evictor).move_fallbacks.inc();
                    self.disk_read(evictor, effect.victim)
                });
                self.obs.trace.push(
                    req,
                    evictor.index() as u16,
                    Hop::Forward {
                        to: to.index() as u16,
                    },
                );
                self.chaos.send(
                    evictor,
                    to,
                    PeerMsg::Forward {
                        block: effect.victim,
                        data,
                        displace: displaced.map(|(b, _)| b),
                    },
                );
            }
        }
    }
}

/// A running middleware cluster.
pub struct Middleware {
    shared: Arc<Shared>,
    /// The heartbeat failure detector, once started: its stop flag and
    /// thread handle (joined on shutdown).
    monitor: Mutex<Option<(Arc<AtomicBool>, JoinHandle<()>)>>,
}

/// A per-node client handle; cheap to clone and `Send`.
#[derive(Clone)]
pub struct NodeHandle {
    shared: Arc<Shared>,
    node: NodeId,
}

/// Most blocks one decision pass of [`NodeHandle::read_blocks`] covers: one
/// frame train's worth (`ccm-net`'s `MAX_TRAIN_BYTES` of 256 KiB over 8 KB
/// blocks). It bounds how long a multi-block read holds the decision lock
/// and how many payloads it has in flight.
const CHUNK_BLOCKS: usize = 32;

/// One block's protocol decision, taken under the decision lock and
/// carried out after it is released.
struct Step {
    block: BlockId,
    outcome: AccessOutcome,
    /// Nodes a stale hint sent the decision to before the right one.
    trail: Vec<NodeId>,
    /// Trace-ring request id (0 = untraced).
    req: u64,
    /// A remote hit's bytes once fetched; `None` falls back to the store.
    fetched: Option<Arc<[u8]>>,
    /// When the fetch that carried the block was issued; `None` if no
    /// fetch was.
    issued: Option<Stopwatch>,
    /// The train issued to this block's holder, on the first block it
    /// carries, until it is waited for.
    train: Option<Pending>,
    /// A disk read's result, from the request that carries its run, until
    /// it is served.
    disk: Option<Receiver<DiskRead>>,
    /// The block's bytes once served ahead of block order (local hits).
    served: Option<Arc<[u8]>>,
    /// The decision's eviction, until it is applied.
    eviction: Option<EvictionEffect>,
}

impl Step {
    /// The peer a remote-hit decision fetches from.
    fn remote_holder(&self) -> Option<NodeId> {
        match self.outcome {
            AccessOutcome::RemoteHit { from, .. } => Some(from),
            _ => None,
        }
    }
}

/// Serve one node's peer traffic until shutdown.
fn service_loop(shared: Arc<Shared>, node: NodeId, inbox: Receiver<PeerMsg>) {
    for msg in inbox.iter() {
        match msg {
            PeerMsg::BlockRequest { block, reply } => {
                // Zero-copy: the reply shares the store's buffer.
                let data = shared.store_get(node, block);
                // A send failure just means the requester gave up; ignore.
                let _ = reply.send(data);
            }
            PeerMsg::Forward {
                block,
                data,
                displace,
            } => {
                let store = &shared.stores[node.index()];
                if let Some(d) = displace {
                    // Same ABA guard as WriteInvalidate below: the protocol
                    // displaced `d` from this node *before* the frame was
                    // sent, so if the node holds it again by the time the
                    // frame is processed, it re-acquired the block in the
                    // meantime (a re-read re-installed it) and those bytes
                    // are current — a stale displacement must not wipe
                    // them. Unguarded, a starved service thread could
                    // delete a freshly re-installed copy and turn a later
                    // local hit or eviction forward into a spurious store
                    // fallback.
                    let holds = shared.cache.lock().node(node).lookup(d).is_some();
                    if !holds {
                        store.remove(d);
                    }
                }
                store.insert(block, data);
            }
            PeerMsg::WriteInvalidate { block } => {
                // Coherence invalidation: drop the superseded bytes; the
                // next read re-routes through the (possibly dirty) master.
                // Guard: the protocol removed this node's copy *before* the
                // frame was sent, so if the node holds one again by the
                // time the frame arrives, it re-acquired the block after
                // the write (a re-fetch from the new master, or its own
                // newer write) and those bytes are current — a stale
                // invalidation must not wipe them. Unguarded, a delayed
                // frame could even delete a dirty master's only copy and
                // turn an acked write into a spurious loss.
                let holds = shared.cache.lock().node(node).lookup(block).is_some();
                if !holds {
                    shared.store_take(node, block);
                }
            }
            PeerMsg::Barrier { reply } => {
                // Every message enqueued before the barrier has been
                // processed by now; the requester may have timed out.
                let _ = reply.send(());
            }
            PeerMsg::Ping { reply } => {
                // Heartbeat: answering at all is the proof of liveness.
                let _ = reply.send(());
            }
            PeerMsg::Shutdown => break,
        }
    }
}

impl Middleware {
    /// Start a cluster serving `catalog` from `disk` — the one
    /// constructor. `cfg` names everything else: the transport
    /// ([`RtConfig::transport`], the channel [`Lan`] by default), which
    /// slots start as members ([`RtConfig::members`]), the directory, the
    /// fault plan, the metric registry and the write mode. The middleware
    /// claims each member's inbox through [`Transport::reconnect`] and runs
    /// identically over every backend.
    ///
    /// The cluster is *provisioned* at `cfg.nodes` slots: transport
    /// endpoints, stores, disk services and metrics are all sized once,
    /// here. Each initial member's service thread starts the way a joiner's
    /// does; the other slots sit cold until [`Middleware::join_node`]
    /// brings them in.
    ///
    /// # Panics
    /// Panics if the transport's size is not `cfg.nodes`, if `cfg.members`
    /// is 0 or above `cfg.nodes`, and on a zero-node or zero-capacity
    /// configuration (via [`ClusterCache::new`]).
    pub fn start(cfg: RtConfig, catalog: Catalog, disk: Arc<dyn BlockStore>) -> Middleware {
        let transport = cfg
            .transport
            .unwrap_or_else(|| Arc::new(Lan::with_nodes(cfg.nodes)));
        assert_eq!(
            transport.nodes(),
            cfg.nodes,
            "transport size does not match cfg.nodes"
        );
        assert_ne!(
            cfg.write.flush_every_ops,
            Some(0),
            "flush_every_ops must be at least 1"
        );
        let membership = Membership::with_initial(cfg.nodes, cfg.members.unwrap_or(cfg.nodes));
        // The transport gets the stores (and only the stores: holding
        // `Shared` would be a cycle that leaks the disk workers) so it can
        // answer a peer fetch hit where the request already is.
        let stores: BlockStores = (0..cfg.nodes).map(|_| ShardedMap::new()).collect();
        transport.attach_stores(stores.clone());
        let plan = cfg.faults.unwrap_or_else(|| FaultPlan::quiet(0));
        let registry = cfg.obs.unwrap_or_default();
        let chaos = ChaosLan::with_registry(transport, &plan, &registry);
        let mut cache_cfg = CacheConfig::paper(cfg.nodes, cfg.capacity_blocks, cfg.policy);
        cache_cfg.directory = cfg.directory;
        cache_cfg.admission = cfg.admission;
        let mut cache = ClusterCache::new(cache_cfg);
        // A slot that does not start as a member leaves the protocol the
        // way a leaver does; it holds nothing, so nothing moves.
        for i in 0..cfg.nodes {
            if !membership.is_member(NodeId(i as u16)) {
                cache.depart(NodeId(i as u16), Departure::Graceful);
            }
        }
        let disks: Vec<DiskService> = (0..cfg.nodes)
            .map(|i| {
                DiskService::start_observed(
                    disk.clone(),
                    catalog.clone(),
                    DiskConfig::default(),
                    Some((plan.seed, plan.disk)),
                    Some(&registry),
                    &i.to_string(),
                )
            })
            .collect();
        let obs = RtObs::new(registry, cfg.nodes);
        let shared = Arc::new(Shared {
            cache: Mutex::new(cache),
            stores,
            disk,
            disks,
            catalog,
            chaos,
            alive: (0..cfg.nodes).map(|_| AtomicBool::new(false)).collect(),
            threads: Mutex::new((0..cfg.nodes).map(|_| None).collect()),
            membership,
            fetch_timeout: cfg.fetch_timeout,
            obs,
            write_cfg: cfg.write,
            write_locks: ShardedMap::new(),
            write_ops: AtomicU64::new(0),
            dirty: Mutex::new(DirtyLedger::default()),
            lost_writes: Mutex::new(BTreeSet::new()),
        });
        // Every scrape of the registry reads the series no data path
        // writes. The hook holds the cluster weakly: it does nothing once
        // the cluster is gone, and keeps no `Shared` alive.
        let cluster = Arc::downgrade(&shared);
        shared.obs.registry.on_snapshot(move || {
            if let Some(shared) = cluster.upgrade() {
                shared.refresh_obs();
            }
        });
        // Non-members get no thread: their inboxes stay dead, so sends to
        // them fail fast until they join.
        for node in shared.membership.members() {
            shared.start_service(node);
        }
        Middleware {
            shared,
            monitor: Mutex::new(None),
        }
    }

    /// [`Middleware::start`] over `transport`, which overrides
    /// `cfg.transport`. Kept for callers that pass the transport as an
    /// argument; the `benchmark/` package compiles against it.
    pub fn start_on(
        cfg: RtConfig,
        catalog: Catalog,
        disk: Arc<dyn BlockStore>,
        transport: Arc<dyn Transport>,
    ) -> Middleware {
        let cfg = RtConfig {
            transport: Some(transport),
            ..cfg
        };
        Middleware::start(cfg, catalog, disk)
    }

    /// A client handle bound to `node`.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn handle(&self, node: NodeId) -> NodeHandle {
        assert!(node.index() < self.shared.chaos.nodes(), "no such node");
        NodeHandle {
            shared: self.shared.clone(),
            node,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.shared.chaos.nodes()
    }

    /// The file catalog being served.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Protocol counters so far, with the runtime's store-fallback count
    /// merged in (read from the metric registry, where the counters live).
    pub fn stats(&self) -> CacheStats {
        let mut s = self.shared.cache.lock().stats();
        s.store_fallbacks = self.shared.obs.store_fallbacks();
        s
    }

    /// `node`'s disk-service statistics: requests (a run of blocks counts
    /// once), physical reads, coalesce hits, queue high-water mark,
    /// injected faults.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn disk_stats(&self, node: NodeId) -> DiskStats {
        self.shared.disks[node.index()].stats()
    }

    /// Disk-service reads that failed with an injected I/O error and were
    /// satisfied synchronously from the backing store instead (summed over
    /// nodes; deterministic for a fixed plan and quiesced history).
    pub fn disk_error_fallbacks(&self) -> u64 {
        self.shared.obs.disk_error_fallbacks()
    }

    /// Link faults injected so far (all zero without a fault plan).
    pub fn chaos_stats(&self) -> crate::fault::ChaosStats {
        self.shared.chaos.chaos_stats()
    }

    /// The metric registry this cluster reports into (the one passed via
    /// [`RtConfig::obs`], or a private one). Its snapshots read the
    /// cluster's occupancy gauges, epoch and protocol tallies current
    /// (taking the decision lock briefly).
    pub fn registry(&self) -> &Registry {
        &self.shared.obs.registry
    }

    /// The per-cluster block-path trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.shared.obs.trace
    }

    /// True if `node`'s service thread is running.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.shared.is_alive(node)
    }

    /// The cluster's membership table (an `Arc` clone; shared with the
    /// running middleware, so transitions made by the middleware are
    /// visible through it and [`Membership::wait_for_epoch`] works).
    pub fn membership(&self) -> Membership {
        self.shared.membership.clone()
    }

    /// The current membership epoch (also exported as `ccm_rt_epoch`).
    pub fn epoch(&self) -> u64 {
        self.shared.membership.epoch()
    }

    /// Hint-directory accuracy statistics (all zero under the perfect
    /// directory; takes the cache lock briefly).
    pub fn hint_stats(&self) -> HintStats {
        self.shared.cache.lock().hint_stats()
    }

    /// Replica-admission statistics (all zero with admission off; takes
    /// the cache lock briefly).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.shared.cache.lock().admission_stats()
    }

    /// Write-path counters: acknowledged writes, flushes, current dirty
    /// backlog, losses, recoveries.
    pub fn write_stats(&self) -> WriteStats {
        let obs = &self.shared.obs;
        WriteStats {
            writes: obs.nodes.iter().map(|n| n.writes.get()).sum(),
            flushes: obs.wb_flushes.get(),
            dirty: self.shared.dirty.lock().owners.len() as u64,
            lost: obs.wb_lost.get(),
            recovered: obs.wb_recovered.get(),
        }
    }

    /// Persist every dirty (acknowledged, unpersisted) write-back block,
    /// oldest first. Returns how many blocks were flushed. A no-op under
    /// write-through.
    pub fn flush_dirty(&self) -> usize {
        self.shared.flush_dirty()
    }

    /// How many acknowledged write-back writes are currently unpersisted.
    pub fn dirty_blocks(&self) -> usize {
        self.shared.dirty.lock().owners.len()
    }

    /// Every block whose acknowledged write-back write was lost (its dirty
    /// master crashed with no recoverable copy). Reads of these blocks
    /// serve the last persisted image — the loss is detected here, never
    /// silent. Sorted; empty under write-through and on graceful paths.
    pub fn lost_writes(&self) -> Vec<BlockId> {
        self.shared.lost_writes.lock().iter().copied().collect()
    }

    /// Bring a provisioned, departed or crashed slot into the cluster: its
    /// service thread starts cold, a deterministic share of the resident
    /// masters is re-mastered onto it with their bytes, and the membership
    /// epoch is bumped. Returns how many blocks were re-mastered onto the
    /// joiner. [`Middleware::restart_node`] is the same join without the
    /// share.
    ///
    /// # Panics
    /// Panics if the node is out of range or already up.
    pub fn join_node(&self, node: NodeId) -> usize {
        self.shared.admit(node, true)
    }

    /// Restart a departed or crashed `node` with a cold cache and an empty
    /// inbox: a [`Middleware::join_node`] that takes no share of the
    /// resident masters.
    ///
    /// # Panics
    /// Panics if the node is out of range or already up.
    pub fn restart_node(&self, node: NodeId) {
        self.shared.admit(node, false);
    }

    /// Gracefully remove `node` from the cluster: stop its service thread,
    /// persist its dirty blocks, hand its masters to survivors (promoting
    /// an existing replica where one exists, shipping bytes where not),
    /// purge its replicas, and bump the membership epoch. Unlike
    /// [`Middleware::crash_node`], no block is lost and no master degrades
    /// to disk-only (`lost_masters` is 0).
    ///
    /// # Panics
    /// Panics if the node is out of range, not up, or the last live node.
    pub fn leave_node(&self, node: NodeId) -> RepairReport {
        self.shared
            .depart(node, Exit::Leave)
            .unwrap_or_else(|| panic!("node {node:?} is already down or never joined"))
    }

    /// Crash `node`: its service thread stops, its block store is wiped, and
    /// the protocol directory is repaired — each of its masters is
    /// re-mastered from a surviving replica or degraded to disk-only, and
    /// its replicas are purged. Messages queued at the node die with it.
    /// The same departure as [`Middleware::leave_node`], minus the handoff.
    ///
    /// # Panics
    /// Panics if the node is out of range or not up.
    pub fn crash_node(&self, node: NodeId) -> RepairReport {
        self.shared
            .depart(node, Exit::Crash)
            .unwrap_or_else(|| panic!("node {node:?} is already down or never joined"))
    }

    /// Test aid: silently kill `node`'s service thread *without* repairing
    /// anything — liveness gating, the directory, the membership table, and
    /// its store all stay stale, which is what a power failure looks like
    /// from the outside. Reads degrade to store fallbacks until the
    /// heartbeat monitor (or an explicit [`Middleware::crash_node`]) takes
    /// the node out.
    ///
    /// # Panics
    /// Panics if the node is out of range or its thread is already gone.
    pub fn sever_node(&self, node: NodeId) {
        assert!(node.index() < self.nodes(), "no such node");
        self.shared
            .stop_service(node)
            .expect("node thread already gone")
            .expect("node thread panicked");
    }

    /// Start the heartbeat failure detector: every `interval` it pings each
    /// member's service thread through the transport and walks unresponsive
    /// members `Up` → `Suspect` → (after `max_misses` consecutive misses)
    /// `Down`, repairing the directory around them exactly like
    /// [`Middleware::crash_node`]. Pings bypass the chaos wrapper, so
    /// detection reflects real thread liveness rather than injected link
    /// faults.
    ///
    /// Detection timing is wall-clock driven and thus intentionally *not*
    /// deterministic; replay-exact tests drive membership transitions
    /// explicitly instead of enabling the monitor.
    ///
    /// # Panics
    /// Panics if a monitor is already running.
    pub fn start_heartbeat(&self, interval: Duration, timeout: Duration, max_misses: u32) {
        let mut slot = self.monitor.lock();
        assert!(slot.is_none(), "heartbeat monitor already running");
        let stop = Arc::new(AtomicBool::new(false));
        let shared = self.shared.clone();
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("ccm-hb-monitor".into())
            .spawn(move || heartbeat_loop(shared, flag, interval, timeout, max_misses))
            .expect("spawn heartbeat monitor");
        *slot = Some((stop, handle));
    }

    /// Quiescent-state audit (tests): protocol invariants plus hint-chain
    /// convergence — every live node locates every master within one
    /// bounded forwarding chain, after which its hint is exact. Mutates
    /// hint state, so capture [`Middleware::hint_stats`] *before* auditing
    /// when comparing runs.
    pub fn audit_quiescent(&self) {
        self.shared.cache.lock().audit_hint_convergence();
    }

    /// Quiesce the data plane: release every delayed message, then round-trip
    /// a [`PeerMsg::Barrier`] through each live node so all queued traffic is
    /// processed. After this, node stores reflect every protocol decision
    /// made so far — the state is a deterministic function of the operation
    /// history, which the replayability tests rely on.
    pub fn quiesce(&self) {
        self.shared.chaos.flush();
        for i in 0..self.nodes() {
            let node = NodeId(i as u16);
            if self.shared.is_alive(node) {
                self.shared.lan().barrier(node, Duration::from_secs(10));
            }
        }
    }

    /// Verify protocol invariants (tests; takes the cache lock).
    pub fn check_invariants(&self) {
        self.shared.cache.lock().check_invariants();
    }

    /// Stop all service threads and join them. Under write-back the dirty
    /// set is drained first (graceful shutdown loses nothing); an abortive
    /// teardown is `drop` without `shutdown`, which skips the flush.
    pub fn shutdown(self) {
        self.shared.flush_dirty();
        self.stop_threads(true);
    }

    fn stop_threads(&self, strict: bool) {
        if let Some((stop, handle)) = self.monitor.lock().take() {
            stop.store(true, Ordering::Release);
            let joined = handle.join();
            if strict {
                joined.expect("heartbeat monitor panicked");
            }
        }
        for i in 0..self.nodes() {
            // Nodes that are down or severed have no thread to stop.
            if let (true, Some(joined)) = (strict, self.shared.stop_service(NodeId(i as u16))) {
                joined.expect("node thread panicked");
            }
        }
    }
}

impl Drop for Middleware {
    fn drop(&mut self) {
        // Best-effort shutdown if the user forgot; ignore already-dead nodes.
        self.stop_threads(false);
    }
}

/// The failure-detector loop behind [`Middleware::start_heartbeat`]: sweep
/// every member each `interval`, walking non-responders Up → Suspect →
/// Down and repairing the directory around the declared-dead node.
fn heartbeat_loop(
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    interval: Duration,
    timeout: Duration,
    max_misses: u32,
) {
    let nodes = shared.chaos.nodes();
    let mut misses = vec![0u32; nodes];
    while !stop.load(Ordering::Acquire) {
        for (i, missed) in misses.iter_mut().enumerate() {
            let node = NodeId(i as u16);
            if !shared.membership.is_member(node) {
                *missed = 0;
                continue;
            }
            // Pings bypass the chaos wrapper (shared.lan() is the inner
            // transport): detection reflects real thread liveness, not
            // injected link faults.
            if shared.lan().ping(node, node, timeout) {
                *missed = 0;
                if shared.membership.state(node) == MemberState::Suspect {
                    shared.membership.transition(node, MemberState::Up);
                }
                continue;
            }
            *missed += 1;
            if *missed >= max_misses {
                // Declare it dead and take it out exactly like an explicit
                // crash (unless another caller already is).
                shared.depart(node, Exit::Declared);
                *missed = 0;
            } else if shared.membership.state(node) == MemberState::Up {
                shared.membership.transition(node, MemberState::Suspect);
            }
        }
        // Sleep in small slices so a stop request is honored promptly.
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::Acquire) {
            let slice = (interval - slept).min(Duration::from_millis(10));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

impl NodeHandle {
    /// The node this handle reads through.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Read one block through the cooperative cache.
    ///
    /// # Panics
    /// Panics if this handle's node is crashed.
    pub fn read_block(&self, block: BlockId) -> Arc<[u8]> {
        self.read_block_traced(block).0
    }

    /// Read one block, also returning its trace-ring request id so the
    /// block-path hops can be pulled from [`Middleware::trace`] afterwards
    /// (0 means untraced — the `obs-off` build). The one-block case of
    /// [`NodeHandle::read_blocks`].
    ///
    /// # Panics
    /// Panics if this handle's node is crashed.
    pub fn read_block_traced(&self, block: BlockId) -> (Arc<[u8]>, u64) {
        let mut served = None;
        self.read_run(block.file, block.index..block.index + 1, |data, req| {
            served = Some((data, req))
        });
        served.expect("a one-block run serves its block")
    }

    /// Read a whole file through the cooperative cache.
    ///
    /// # Panics
    /// Panics if the file is outside the catalog, or if this handle's node
    /// is crashed.
    pub fn read_file(&self, file: FileId) -> Vec<u8> {
        self.read_blocks(file, 0..self.shared.catalog.blocks_of(file))
    }

    /// Read a whole file, also returning the trace-ring request id of each
    /// block read (for post-mortem trace dumps; all 0 under `obs-off`).
    ///
    /// # Panics
    /// Panics if the file is outside the catalog, or if this handle's node
    /// is crashed.
    pub fn read_file_traced(&self, file: FileId) -> (Vec<u8>, Vec<u64>) {
        let blocks = self.shared.catalog.blocks_of(file);
        let mut out = Vec::with_capacity(self.span_bytes(file, 0..blocks));
        let mut reqs = Vec::with_capacity(blocks as usize);
        self.read_run(file, 0..blocks, |data, req| {
            out.extend_from_slice(&data);
            reqs.push(req);
        });
        (out, reqs)
    }

    /// Read blocks `blocks` of `file` through the cooperative cache and
    /// return their bytes concatenated — the one multi-block read behind
    /// [`NodeHandle::read_file`] (the whole range) and the front tier's
    /// HTTP ranges.
    ///
    /// The blocks are decided in chunks of up to 32 (one frame train's
    /// worth): one hold of the decision lock runs `ClusterCache::access`
    /// for each block of the chunk in block order, then each run of
    /// consecutive disk reads goes to this node's disk service as one
    /// request and each live holder's remote hits go on the wire as one
    /// `Transport::issue` train — every request issued before the first is
    /// waited for — then the blocks are served in block order as one-block
    /// reads would be — evictions, store installs, counters and trace
    /// hops. Local hits are served, and evictions that touch none of the
    /// chunk's blocks are applied, before the requests leave. With a single
    /// caller the decisions and their effects are those of a per-block
    /// [`NodeHandle::read_block`] loop.
    ///
    /// # Panics
    /// Panics if the file is outside the catalog, or if this handle's node
    /// is crashed.
    pub fn read_blocks(&self, file: FileId, blocks: Range<u32>) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.span_bytes(file, blocks.clone()));
        self.read_run(file, blocks, |data, _| out.extend_from_slice(&data));
        out
    }

    /// Bytes `blocks` of `file` hold.
    fn span_bytes(&self, file: FileId, blocks: Range<u32>) -> usize {
        let size = self.shared.catalog.size_of(file);
        let at = |b: u32| (b as u64 * BLOCK_SIZE).min(size);
        (at(blocks.end) - at(blocks.start)) as usize
    }

    /// The read path: decide, fetch and serve `blocks` of `file` chunk by
    /// chunk, handing each block's bytes and trace-ring request id to
    /// `serve` in block order.
    fn read_run(&self, file: FileId, blocks: Range<u32>, mut serve: impl FnMut(Arc<[u8]>, u64)) {
        assert!(
            self.shared.is_alive(self.node),
            "node {:?} is down",
            self.node
        );
        let mut steps = Vec::with_capacity(blocks.len().min(CHUNK_BLOCKS));
        let mut next = blocks.start;
        while next < blocks.end {
            let decided;
            (next, decided) = self.decide(file, next..blocks.end, &mut steps);
            // A local hit moves no bytes, and no other effect of its chunk
            // changes what it finds, so it is served at once: another
            // caller gets no more time to evict it first than a one-block
            // read would give.
            for step in steps.iter_mut() {
                if let AccessOutcome::LocalHit { .. } = step.outcome {
                    step.served = Some(self.serve_step(step, decided));
                }
            }
            self.evict_ahead(&mut steps);
            self.fetch(&mut steps);
            for step in steps.iter_mut() {
                let data = step
                    .served
                    .take()
                    .unwrap_or_else(|| self.serve_step(step, decided));
                serve(data, step.req);
            }
            steps.clear();
        }
    }

    /// Decide blocks of `file` from `blocks.start` on under one hold of the
    /// decision lock, appending a [`Step`] per block to the empty `steps`,
    /// and return the first block left undecided with the moment the lock
    /// was released. A chunk ends after [`CHUNK_BLOCKS`] blocks, and before
    /// a block one of its own decisions evicted (read serially, that
    /// block's fetch would follow the eviction's `Forward` to its new
    /// holder, so it must not be put on the wire ahead of it). The chunk's
    /// request ids and its Dispatch and PeerFetch hops are recorded in one
    /// trace batch stamped with that moment.
    fn decide(&self, file: FileId, blocks: Range<u32>, steps: &mut Vec<Step>) -> (u32, Stopwatch) {
        let obs = &self.shared.obs;
        let mut next = blocks.start;
        {
            let mut cache = self.shared.cache.lock();
            while next < blocks.end && steps.len() < CHUNK_BLOCKS {
                let block = BlockId::new(file, next);
                let evicted_here = steps
                    .iter()
                    .any(|s| s.outcome.eviction().is_some_and(|e| e.victim == block));
                if evicted_here {
                    break;
                }
                let outcome = cache.access(self.node, block);
                steps.push(Step {
                    block,
                    outcome,
                    trail: cache.take_hint_trail(),
                    req: 0,
                    fetched: None,
                    issued: None,
                    train: None,
                    disk: None,
                    served: None,
                    eviction: outcome.eviction(),
                });
                next += 1;
            }
        }
        let decided = Stopwatch::start();
        let mut batch = obs.trace.batch(decided, self.node.index() as u16);
        for step in steps.iter_mut() {
            step.req = batch.next_req_id();
            batch.push(
                step.req,
                Hop::Dispatch {
                    file: file.0,
                    block: step.block.index,
                },
            );
            if let Some(from) = step.remote_holder() {
                batch.push(
                    step.req,
                    Hop::PeerFetch {
                        from: from.index() as u16,
                    },
                );
            }
        }
        (next, decided)
    }

    /// Apply the chunk's evictions in block order, ahead of its fetches,
    /// up to the first one whose victim, or the block its `Forward`
    /// displaces, is a block of the chunk: that one, and every later one,
    /// waits for its block's serve, so no displacement the chunk decided
    /// overtakes the chunk's own fetch or install. The rest touch nothing
    /// the chunk reads, and applied now they give another caller no more
    /// time to re-acquire a victim before it leaves than a one-block read
    /// would.
    fn evict_ahead(&self, steps: &mut [Step]) {
        let (Some(first), Some(last)) = (steps.first(), steps.last()) else {
            return;
        };
        let (file, blocks) = (first.block.file, first.block.index..=last.block.index);
        let in_chunk = |b: BlockId| b.file == file && blocks.contains(&b.index);
        for step in steps.iter_mut() {
            let Some(e) = step.eviction else {
                continue;
            };
            let displaced = match e.disposition {
                Disposition::Forwarded { displaced, .. } => displaced.map(|(b, _)| b),
                _ => None,
            };
            if in_chunk(e.victim) || displaced.is_some_and(in_chunk) {
                return;
            }
            self.shared.apply_eviction(self.node, e, step.req);
            step.eviction = None;
        }
    }

    /// Issue the chunk's reads before its remaining effects: each run of
    /// consecutive disk reads as one request on this node's disk service,
    /// and one train per live holder, its blocks in block order. Every
    /// request is issued before the first is waited for, so the disk and
    /// the holders work at the same time. A holder that died since the
    /// decision cannot answer, so its blocks skip the round trip and its
    /// timeout and fall back when served. A disk result is waited for when
    /// its block is served.
    fn fetch(&self, steps: &mut [Step]) {
        let is_disk = |s: &Step| matches!(s.outcome, AccessOutcome::DiskRead { .. });
        let disk = &self.shared.disks[self.node.index()];
        for run in steps.chunk_by_mut(|a, b| is_disk(a) && is_disk(b)) {
            if is_disk(&run[0]) {
                let rxs = disk.read_run(run[0].block, run.len() as u32);
                for (s, rx) in run.iter_mut().zip(rxs) {
                    s.disk = Some(rx);
                }
            }
        }
        for i in 0..steps.len() {
            let from = match steps[i].remote_holder() {
                Some(from) if steps[i].issued.is_none() && self.shared.is_alive(from) => from,
                _ => continue,
            };
            let on_train = |s: &Step| s.remote_holder() == Some(from);
            let blocks: Vec<BlockId> = steps[i..]
                .iter()
                .filter(|s| on_train(s))
                .map(|s| s.block)
                .collect();
            let issued = Some(Stopwatch::start());
            steps[i].train = Some(self.shared.chaos.issue(self.node, from, &blocks));
            for s in steps[i..].iter_mut().filter(|s| on_train(s)) {
                s.issued = issued;
            }
        }
        for i in 0..steps.len() {
            let Some(train) = steps[i].train.take() else {
                continue;
            };
            let from = steps[i].remote_holder();
            for (s, data) in steps[i..]
                .iter_mut()
                .filter(|s| s.remote_holder() == from)
                .zip(train.wait(self.shared.fetch_timeout))
            {
                s.fetched = data;
            }
        }
    }

    /// Carry out one decided block: replay its wasted hint hops, apply its
    /// eviction if that did not go ahead, take its bytes (own store, fetch
    /// reply, or its disk run's result for it), install them, and count
    /// and trace the read: one clock read closes its latency sample and
    /// stamps its class hop and `Serve`, recorded in one trace batch.
    /// Returns the bytes.
    fn serve_step(&self, step: &mut Step, decided: Stopwatch) -> Arc<[u8]> {
        let (block, outcome, req) = (step.block, step.outcome, step.req);
        let (trail, fetched) = (std::mem::take(&mut step.trail), step.fetched.take());
        let obs = &self.shared.obs;
        // A block that came over the transport is timed from the fetch's
        // issue — the wait its reader saw, train-mates included; every
        // other block from its chunk's decision.
        let sw = step.issued.unwrap_or(decided);
        // Replay the wasted hint-chain hops as real round trips: each node a
        // stale hint pointed at is asked and answers "not here"; the reply
        // is discarded — the authoritative outcome below already accounts
        // for where the bytes are. This is what makes stale hints cost real
        // network time on both backends.
        for hop in trail {
            if self.shared.is_alive(hop) {
                let _ = self
                    .shared
                    .chaos
                    .issue(self.node, hop, &[block])
                    .wait(self.shared.fetch_timeout);
            }
        }
        // Only a miss evicts, and only one whose eviction did not go ahead
        // still carries it.
        if let Some(e) = step.eviction.take() {
            self.shared.apply_eviction(self.node, e, req);
        }
        let (data, class, hop) = match outcome {
            AccessOutcome::LocalHit { .. } => {
                match self.shared.store_get(self.node, block) {
                    Some(data) => (data, ReadClass::Local, Hop::LocalHit),
                    None => {
                        // Our bytes are still in flight (concurrent fetch of
                        // the same block); the backing store is authoritative
                        // — unless the block is write-back dirty, in which
                        // case the dirty owner's store is.
                        obs.node(self.node).store_fallbacks.inc();
                        let data = self.shared.fallback_read(self.node, block);
                        self.shared.store_insert(self.node, block, data.clone());
                        (data, ReadClass::Fallback, Hop::DiskFallback)
                    }
                }
            }
            AccessOutcome::RemoteHit { admitted, .. } => {
                let (data, class, hop) = match fetched {
                    Some(bytes) => {
                        let hop = Hop::PeerReply {
                            bytes: bytes.len() as u64,
                        };
                        (bytes, ReadClass::Remote, hop)
                    }
                    None => {
                        // The §3 race: the holder discarded the block (or the
                        // message was lost, or the holder crashed) while our
                        // request was in flight → eventual disk read. For a
                        // write-back dirty block the disk image is stale;
                        // `fallback_read` serves the dirty owner's bytes.
                        obs.node(self.node).store_fallbacks.inc();
                        (
                            self.shared.fallback_read(self.node, block),
                            ReadClass::Fallback,
                            Hop::DiskFallback,
                        )
                    }
                };
                // The admission filter can serve the bytes without caching
                // them: the data plane mirrors the protocol decision, so a
                // rejected replica is never installed in our store.
                if admitted {
                    self.shared.store_insert(self.node, block, data.clone());
                }
                (data, class, hop)
            }
            AccessOutcome::DiskRead { .. } => {
                let pending = step.disk.take().expect("fetch issued every disk read");
                let data = self.shared.disk_bytes(self.node, block, pending);
                self.shared.store_insert(self.node, block, data.clone());
                (data, ReadClass::Disk, Hop::DiskRead)
            }
        };
        let served = sw.lap(&obs.fetch_ns[class as usize]);
        obs.node(self.node).reads[class as usize].inc();
        let mut batch = obs.trace.batch(served, self.node.index() as u16);
        batch.push(req, hop);
        batch.push(
            req,
            Hop::Serve {
                bytes: data.len() as u64,
            },
        );
        data
    }

    /// Overwrite one whole block through the cooperative cache (the §6
    /// writes extension): invalidate every other node's copy and become
    /// the master holder. Persistence depends on the configured
    /// [`WriteMode`]: write-through persists to the backing store before
    /// the protocol invalidation fans out (a returned `Ok` is durable);
    /// write-back acknowledges from this node's store as a *dirty master*
    /// and defers persistence to a flush (see [`crate::write`] for the
    /// durability contract).
    ///
    /// Same-block writes are serialized on a per-block lock held across
    /// persist, the protocol write, and the invalidation fan-out, so
    /// concurrent writers to one block persist in exactly the order the
    /// protocol observes. Writes to distinct blocks and concurrent reads
    /// of anything proceed in parallel.
    ///
    /// # Errors
    /// [`WriteError::ReadOnlyStore`] if the backing store refuses writes
    /// (write-through only; write-back defers the store to flush time,
    /// where a refusal surfaces as a recorded lost write).
    ///
    /// # Panics
    /// Panics if this handle's node is crashed.
    pub fn write_block(&self, block: BlockId, data: &[u8]) -> Result<(), WriteError> {
        assert!(
            self.shared.is_alive(self.node),
            "node {:?} is down",
            self.node
        );
        let mode = self.shared.write_cfg.mode;
        let lock = self.shared.write_lock(block);
        let eviction;
        {
            let _serialize = lock.lock();
            if mode == WriteMode::Through {
                // 1. Write-through first: once peers are invalidated, any
                //    of their re-reads may fall through to the store and
                //    must see new data. `persist` also detaches every disk
                //    service's reads of the block, so no later read attaches
                //    to one that began before the write.
                if !self.shared.persist(self.node, block, data) {
                    return Err(WriteError::ReadOnlyStore);
                }
            }
            // 2. Protocol write (atomic): invalidate + become master.
            let out = self.shared.cache.lock().write(self.node, block);
            eviction = out.eviction;
            // 3. Data plane: drop superseded copies, install ours.
            //    Coherence invalidations route through the chaos wrapper
            //    but are never dropped (see the fault model); they do
            //    flush any delayed traffic on their link.
            for peer in out.invalidated {
                self.shared
                    .chaos
                    .send(self.node, peer, PeerMsg::WriteInvalidate { block });
            }
            if let Some(m) = out.superseded_master {
                self.shared
                    .chaos
                    .send(self.node, m, PeerMsg::WriteInvalidate { block });
            }
            self.shared.store_insert(self.node, block, Arc::from(data));
            if mode == WriteMode::Back {
                // The ack: our store now holds the only current copy.
                // (This also retargets the ledger when we supersede
                // another node's dirty master — its queued invalidation
                // will drop the old bytes.)
                self.shared.mark_dirty(self.node, block, digest_bytes(data));
            }
            self.shared.obs.node(self.node).writes.inc();
        }
        // Outside the per-block lock: the eviction concerns a *different*
        // block (a dirty victim is flushed under its own lock — nesting
        // the two would invert lock order against a concurrent writer of
        // the victim), and budget enforcement flushes other blocks too.
        if let Some(e) = eviction {
            self.shared.apply_eviction(self.node, e, 0);
        }
        if mode == WriteMode::Back {
            self.shared.enforce_dirty_budget();
            // Deterministic op-count cadence: every n-th acknowledged
            // write (cluster-wide) drains the whole dirty set inline — a
            // pure function of the request stream, so single-threaded
            // runs flush periodically with no wall-clock thread.
            if let Some(every) = self.shared.write_cfg.flush_every_ops {
                let ops = self.shared.write_ops.fetch_add(1, Ordering::Relaxed) + 1;
                if ops.is_multiple_of(every) {
                    self.shared.flush_dirty();
                }
            }
        }
        Ok(())
    }

    /// What kind of copy of `block` this node currently caches (diagnostic).
    pub fn cached_as(&self, block: BlockId) -> Option<CopyKind> {
        self.shared.cache.lock().node(self.node).lookup(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{read_file_direct, SyntheticStore};

    fn catalog(files: usize, size: u64) -> Catalog {
        Catalog::new(vec![size; files])
    }

    fn start(nodes: usize, cap: usize, files: usize, size: u64) -> Middleware {
        let cat = catalog(files, size);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        Middleware::start(
            RtConfig {
                nodes,
                capacity_blocks: cap,
                policy: ReplacementPolicy::MasterPreserving,
                ..RtConfig::default()
            },
            cat,
            store,
        )
    }

    /// Quiesce, scrape the registry the plain way, and check that every
    /// series the refresh hook keeps reads exactly what the runtime's own
    /// accessors report. Returns the scrape.
    fn scrape_matches_accessors(mw: &Middleware) -> ccm_obs::Snapshot {
        mw.quiesce();
        let snap = mw.registry().snapshot();
        let gauge =
            |name: &str, labels: &[(&str, &str)]| match snap.find(name, labels).map(|m| &m.value) {
                Some(&ccm_obs::Value::Gauge(v)) => v,
                other => panic!("no gauge {name} {labels:?}: {other:?}"),
            };
        assert_eq!(
            gauge("ccm_rt_directory_blocks", &[]),
            mw.shared.cache.lock().resident_blocks() as i64
        );
        for (i, store) in mw.shared.stores.iter().enumerate() {
            let node = i.to_string();
            assert_eq!(
                gauge("ccm_rt_store_blocks", &[("node", &node)]),
                store.len() as i64,
                "node {i}'s store"
            );
        }
        assert_eq!(gauge("ccm_rt_epoch", &[]), mw.epoch() as i64);
        assert_eq!(
            gauge("ccm_rt_wb_dirty_blocks", &[]),
            mw.dirty_blocks() as i64
        );
        let (h, a) = (mw.hint_stats(), mw.admission_stats());
        for (name, want) in [
            ("ccm_rt_hint_hits_total", h.correct),
            ("ccm_rt_hint_stale_total", h.stale),
            ("ccm_rt_hint_forward_hops_total", h.forward_hops),
            ("ccm_rt_admission_admitted_total", a.admitted),
            ("ccm_rt_admission_rejected_total", a.rejected),
            ("ccm_rt_admission_ghost_hits_total", a.ghost_hits),
        ] {
            assert_eq!(snap.counter_sum(name), want, "{name}");
        }
        snap
    }

    #[test]
    fn single_node_read_round_trip() {
        let mw = start(1, 64, 4, 20_000);
        let h = mw.handle(NodeId(0));
        let cat = mw.catalog().clone();
        let store = SyntheticStore::new(cat.clone(), 42);
        for f in 0..4u32 {
            let got = h.read_file(FileId(f));
            let want = read_file_direct(&store, &cat, FileId(f));
            assert_eq!(got, want, "file {f} corrupted");
        }
        let s = mw.stats();
        assert!(s.disk_reads > 0);
        assert_eq!(s.remote_hits, 0, "single node has no peers");
        mw.shutdown();
    }

    #[test]
    fn remote_hits_serve_peer_cached_blocks() {
        let mw = start(2, 64, 2, 20_000);
        let h0 = mw.handle(NodeId(0));
        let h1 = mw.handle(NodeId(1));
        let a = h0.read_file(FileId(0));
        let b = h1.read_file(FileId(0));
        assert_eq!(a, b);
        let s = mw.stats();
        assert!(
            s.remote_hits > 0,
            "second reader should hit node 0's masters"
        );
        assert_eq!(mw.stats().store_fallbacks, 0, "no races in sequential use");
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn repeated_reads_are_local_hits() {
        let mw = start(2, 64, 1, 30_000);
        let h = mw.handle(NodeId(1));
        h.read_file(FileId(0));
        let before = mw.stats();
        h.read_file(FileId(0));
        let after = mw.stats();
        assert_eq!(
            after.local_hits - before.local_hits,
            mw.catalog().blocks_of(FileId(0)) as u64
        );
        assert_eq!(after.disk_reads, before.disk_reads);
        mw.shutdown();
    }

    #[test]
    fn eviction_and_forwarding_preserve_integrity() {
        // Tiny caches force heavy eviction/forwarding traffic.
        let mw = start(3, 8, 20, 24_000);
        let cat = mw.catalog().clone();
        let store = SyntheticStore::new(cat.clone(), 42);
        for round in 0..3 {
            for f in 0..20u32 {
                let node = NodeId(((f as usize + round) % 3) as u16);
                let got = mw.handle(node).read_file(FileId(f));
                let want = read_file_direct(&store, &cat, FileId(f));
                assert_eq!(got, want, "file {f} corrupted in round {round}");
            }
        }
        mw.check_invariants();
        let s = mw.stats();
        assert!(s.evict_drops + s.forwards > 0, "caches must have churned");
        mw.shutdown();
    }

    #[test]
    fn concurrent_readers_stay_consistent() {
        let mw = Arc::new(start(4, 32, 30, 20_000));
        let cat = mw.catalog().clone();
        let mut threads = Vec::new();
        for t in 0..8u16 {
            let mw = mw.clone();
            let cat = cat.clone();
            threads.push(std::thread::spawn(move || {
                let store = SyntheticStore::new(cat.clone(), 42);
                let h = mw.handle(NodeId(t % 4));
                let mut rng = simcore::Rng::new(t as u64);
                for _ in 0..200 {
                    let f = FileId(rng.next_below(30) as u32);
                    let got = h.read_file(f);
                    let want = read_file_direct(&store, &cat, f);
                    assert_eq!(got, want, "file {f:?} corrupted under concurrency");
                }
            }));
        }
        for t in threads {
            t.join().expect("reader panicked");
        }
        mw.check_invariants();
        // Fallbacks may legitimately occur under concurrency; the point is
        // that they never broke integrity above.
        let s = mw.stats();
        assert!(s.accesses() >= 8 * 200);
        Arc::try_unwrap(mw).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn capacity_is_respected() {
        let mw = start(2, 16, 10, 40_000);
        for f in 0..10u32 {
            mw.handle(NodeId(0)).read_file(FileId(f));
        }
        let total = {
            let cache = &mw.shared.cache;
            let c = cache.lock();
            c.resident_blocks()
        };
        assert!(total <= 2 * 16, "resident {total} blocks exceed capacity");
        mw.shutdown();
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let mw = start(2, 16, 2, 10_000);
        mw.handle(NodeId(0)).read_file(FileId(0));
        drop(mw); // Drop impl joins the threads
    }

    #[test]
    fn writes_propagate_to_all_readers() {
        use crate::store::MemStore;
        let cat = catalog(4, 20_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 64,
                policy: ReplacementPolicy::MasterPreserving,
                ..RtConfig::default()
            },
            cat.clone(),
            store,
        );
        // Everyone warms up on file 0.
        for n in 0..3u16 {
            mw.handle(NodeId(n)).read_file(FileId(0));
        }
        // Node 2 overwrites block 1 of file 0.
        let block = BlockId::new(FileId(0), 1);
        let new_data = vec![0xAB; cat.block_bytes(block) as usize];
        mw.handle(NodeId(2))
            .write_block(block, &new_data)
            .expect("MemStore accepts writes");
        // Every node now reads the new bytes.
        for n in 0..3u16 {
            let got = mw.handle(NodeId(n)).read_block(block);
            assert_eq!(&*got, &new_data, "node {n} saw stale data");
        }
        let s = mw.stats();
        assert_eq!(s.writes, 1);
        assert!(s.invalidations >= 1);
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn writes_to_read_only_store_are_rejected() {
        let mw = start(2, 16, 2, 10_000);
        let block = BlockId::new(FileId(0), 0);
        let err = mw.handle(NodeId(0)).write_block(block, &[1, 2, 3]);
        assert_eq!(err, Err(WriteError::ReadOnlyStore));
        assert_eq!(mw.stats().writes, 0, "protocol untouched on refusal");
        mw.shutdown();
    }

    #[test]
    fn concurrent_disjoint_writers_and_readers() {
        use crate::store::MemStore;
        let cat = catalog(16, 16_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Arc::new(Middleware::start(
            RtConfig {
                nodes: 4,
                capacity_blocks: 32,
                policy: ReplacementPolicy::MasterPreserving,
                ..RtConfig::default()
            },
            cat.clone(),
            store,
        ));
        let mut threads = Vec::new();
        for t in 0..4u16 {
            let mw = mw.clone();
            let cat = cat.clone();
            threads.push(std::thread::spawn(move || {
                let h = mw.handle(NodeId(t));
                // Each thread owns files 4t..4t+4 for writing.
                for round in 0..20u8 {
                    for f in (t as u32 * 4)..(t as u32 * 4 + 4) {
                        let file = FileId(f);
                        let block = BlockId::new(file, 0);
                        let payload = vec![round ^ t as u8; cat.block_bytes(block) as usize];
                        h.write_block(block, &payload)
                            .expect("MemStore accepts writes");
                        let got = h.read_block(block);
                        assert_eq!(&*got, &payload, "writer read back stale data");
                    }
                }
            }));
        }
        for t in threads {
            t.join().expect("writer panicked");
        }
        mw.check_invariants();
        assert_eq!(mw.stats().writes, 4 * 20 * 4);
        Arc::try_unwrap(mw).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn node_failure_degrades_to_store_fallback() {
        // Raw failure (no repair): kill one node's service thread behind the
        // protocol's back; peers whose remote hits target it must fall back
        // to the backing store and keep returning correct bytes.
        use crate::store::read_file_direct;
        let cat = catalog(6, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 64,
                policy: ReplacementPolicy::MasterPreserving,
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        // Node 0 masters everything.
        for f in 0..6u32 {
            mw.handle(NodeId(0)).read_file(FileId(f));
        }
        // Kill node 0's service thread (a crash nobody has noticed).
        mw.sever_node(NodeId(0));
        // Node 1 still reads correct data for every file.
        for f in 0..6u32 {
            let got = mw.handle(NodeId(1)).read_file(FileId(f));
            let want = read_file_direct(&*store, &cat, FileId(f));
            assert_eq!(got, want, "file {f} wrong after node failure");
        }
        let fallbacks = mw.stats().store_fallbacks;
        assert!(fallbacks > 0, "fallbacks must have covered the dead node");
        assert_eq!(
            mw.registry()
                .snapshot()
                .counter_sum("ccm_rt_store_fallbacks_total"),
            fallbacks,
            "stats and the registry family are one count"
        );
        drop(mw);
    }

    #[test]
    fn crash_repairs_directory_and_restart_rejoins_cold() {
        let cat = catalog(6, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 64,
                policy: ReplacementPolicy::MasterPreserving,
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        // Node 0 masters everything; node 1 replicates files 0..3.
        for f in 0..6u32 {
            mw.handle(NodeId(0)).read_file(FileId(f));
        }
        for f in 0..3u32 {
            mw.handle(NodeId(1)).read_file(FileId(f));
        }
        mw.quiesce();
        let report = mw.crash_node(NodeId(0));
        assert!(!mw.is_alive(NodeId(0)));
        assert!(report.remastered > 0, "replicated files must re-master");
        assert!(report.lost_masters > 0, "unreplicated files must be lost");
        mw.check_invariants();
        let s = mw.stats();
        assert_eq!(s.node_repairs, 1);
        assert_eq!(s.remasters, report.remastered as u64);
        assert_eq!(s.lost_masters, report.lost_masters as u64);
        // Survivors keep serving every file, byte-exact.
        for f in 0..6u32 {
            let got = mw.handle(NodeId(1)).read_file(FileId(f));
            let want = read_file_direct(&*store, &cat, FileId(f));
            assert_eq!(got, want, "file {f} wrong after crash repair");
        }
        mw.check_invariants();
        // Restart: node 0 rejoins cold and serves correctly again.
        mw.restart_node(NodeId(0));
        assert!(mw.is_alive(NodeId(0)));
        assert_eq!(
            mw.handle(NodeId(0)).cached_as(BlockId::new(FileId(0), 0)),
            None
        );
        for f in 0..6u32 {
            let got = mw.handle(NodeId(0)).read_file(FileId(f));
            let want = read_file_direct(&*store, &cat, FileId(f));
            assert_eq!(got, want, "file {f} wrong after restart");
        }
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    #[should_panic(expected = "is down")]
    fn read_through_crashed_node_panics() {
        let mw = start(2, 16, 2, 10_000);
        mw.crash_node(NodeId(1));
        let h = mw.handle(NodeId(1));
        let _ = h.read_block(BlockId::new(FileId(0), 0));
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_crash_panics() {
        let mw = start(2, 16, 2, 10_000);
        mw.crash_node(NodeId(1));
        mw.crash_node(NodeId(1));
    }

    #[test]
    fn faulty_links_never_corrupt_data() {
        use crate::fault::{FaultPlan, LinkFaults};
        let cat = catalog(10, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 16,
                policy: ReplacementPolicy::MasterPreserving,
                fetch_timeout: Duration::from_millis(50),
                faults: Some(FaultPlan {
                    seed: 9,
                    link: LinkFaults {
                        drop_prob: 0.2,
                        dup_prob: 0.05,
                        delay_prob: 0.1,
                        delay_sends: 3,
                    },
                    crashes: Vec::new(),
                    disk: Default::default(),
                }),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        for round in 0..3 {
            for f in 0..10u32 {
                let node = NodeId(((f as usize + round) % 3) as u16);
                let got = mw.handle(node).read_file(FileId(f));
                let want = read_file_direct(&*store, &cat, FileId(f));
                assert_eq!(got, want, "file {f} corrupted under link faults");
            }
        }
        mw.check_invariants();
        let chaos = mw.chaos_stats();
        assert!(chaos.dropped > 0, "20% drops must have fired");
        mw.shutdown();
    }

    #[test]
    #[should_panic(expected = "no such node")]
    fn out_of_range_handle_panics() {
        let mw = start(2, 16, 2, 10_000);
        let _ = mw.handle(NodeId(5));
    }

    #[test]
    fn registry_counts_read_classes() {
        let mw = start(2, 64, 2, 20_000);
        let blocks = mw.catalog().blocks_of(FileId(0)) as u64;
        mw.handle(NodeId(0)).read_file(FileId(0)); // disk
        mw.handle(NodeId(0)).read_file(FileId(0)); // local
        mw.handle(NodeId(1)).read_file(FileId(0)); // remote
        let snap = scrape_matches_accessors(&mw);
        let class = |node: &str, class: &str| match snap
            .find("ccm_rt_reads_total", &[("class", class), ("node", node)])
            .map(|m| &m.value)
        {
            Some(ccm_obs::Value::Counter(v)) => *v,
            other => panic!("missing counter: {other:?}"),
        };
        assert_eq!(class("0", "disk"), blocks);
        assert_eq!(class("0", "local"), blocks);
        assert_eq!(class("1", "remote"), blocks);
        assert_eq!(class("1", "disk"), 0);
        // Read at scrape: the directory tracks both nodes' copies.
        assert!(matches!(
            snap.find("ccm_rt_directory_blocks", &[]).map(|m| &m.value),
            Some(&ccm_obs::Value::Gauge(g)) if g as u64 == 2 * blocks
        ));
        mw.shutdown();
    }

    #[test]
    fn join_rebalances_and_leave_hands_off() {
        let cat = catalog(8, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 4,
                members: Some(3),
                directory: DirectoryKind::Hint,
                capacity_blocks: 64,
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let members = mw.membership();
        assert!(!mw.is_alive(NodeId(3)), "non-member starts cold");
        for f in 0..8u32 {
            mw.handle(NodeId(f as u16 % 3)).read_file(FileId(f));
        }
        mw.quiesce();
        let moved = mw.join_node(NodeId(3));
        assert!(moved > 0, "joiner must absorb a share of masters");
        assert!(mw.is_alive(NodeId(3)));
        assert!(members.is_member(NodeId(3)));
        assert!(mw.epoch() > 0, "join must bump the epoch");
        mw.audit_quiescent();
        for f in 0..8u32 {
            let got = mw.handle(NodeId(3)).read_file(FileId(f));
            let want = read_file_direct(&*store, &cat, FileId(f));
            assert_eq!(got, want, "file {f} wrong after join");
        }
        mw.quiesce();
        let epoch_before_leave = mw.epoch();
        let masters_held = mw.shared.cache.lock().node(NodeId(1)).num_masters();
        let report = mw.leave_node(NodeId(1));
        assert_eq!(report.remastered, masters_held, "every master moves");
        assert_eq!(report.lost_masters, 0);
        assert!(!members.is_member(NodeId(1)));
        assert!(mw.epoch() > epoch_before_leave);
        mw.audit_quiescent();
        assert_eq!(
            mw.stats().lost_masters,
            0,
            "graceful leave must not lose blocks"
        );
        for f in 0..8u32 {
            let got = mw.handle(NodeId(0)).read_file(FileId(f));
            let want = read_file_direct(&*store, &cat, FileId(f));
            assert_eq!(got, want, "file {f} wrong after leave");
        }
        mw.check_invariants();
        mw.shutdown();
    }

    /// One slot walks through every door — a cold start, a restart, a
    /// leave, a join, a crash and a restart again — and each transition is
    /// one epoch bump to the state that door promises.
    #[test]
    fn every_way_in_and_out_is_one_transition() {
        let cat = catalog(6, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                members: Some(2),
                capacity_blocks: 64,
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let slot = NodeId(2);
        let members = mw.membership();
        assert_eq!(members.state(slot), MemberState::Provisioned);
        assert!(!mw.is_alive(slot));
        let read_all = |via: NodeId| {
            for f in 0..6u32 {
                let got = mw.handle(via).read_file(FileId(f));
                assert_eq!(got, read_file_direct(&*store, &cat, FileId(f)));
            }
            mw.quiesce();
        };
        read_all(NodeId(0));
        let doors: [(&str, MemberState); 5] = [
            ("restart", MemberState::Up),
            ("leave", MemberState::Left),
            ("join", MemberState::Up),
            ("crash", MemberState::Down),
            ("restart", MemberState::Up),
        ];
        for (i, (door, state)) in doors.into_iter().enumerate() {
            match door {
                "restart" => mw.restart_node(slot),
                "join" => assert!(mw.join_node(slot) > 0, "the joiner takes a share"),
                "leave" => assert_eq!(mw.leave_node(slot).lost_masters, 0),
                _ => drop(mw.crash_node(slot)),
            }
            assert_eq!(members.state(slot), state, "after {door}");
            assert_eq!(mw.epoch(), i as u64 + 1, "{door} is one transition");
            assert_eq!(mw.is_alive(slot), state == MemberState::Up);
            mw.check_invariants();
            read_all(if state == MemberState::Up {
                slot
            } else {
                NodeId(1)
            });
            scrape_matches_accessors(&mw);
        }
        assert_eq!(mw.stats().node_repairs, 1, "only the crash repairs");
        mw.shutdown();
    }

    #[test]
    fn clusters_sharing_a_registry_sum_their_tallies() {
        let registry = Registry::new();
        let cat = catalog(6, 20_000);
        let start = || {
            Middleware::start(
                RtConfig {
                    nodes: 3,
                    directory: DirectoryKind::Hint,
                    capacity_blocks: 8, // tiny: force forwarding → stale hints
                    obs: Some(registry.clone()),
                    ..RtConfig::default()
                },
                cat.clone(),
                Arc::new(SyntheticStore::new(cat.clone(), 42)),
            )
        };
        let (a, b) = (start(), start());
        let tallied = || {
            let snap = registry.snapshot();
            ["hits", "stale", "forward_hops"]
                .map(|t| snap.counter_sum(&format!("ccm_rt_hint_{t}_total")))
        };
        let want = |mw: &Middleware| {
            let h = mw.hint_stats();
            [h.correct, h.stale, h.forward_hops]
        };
        // Two callers read while two threads scrape: every scrape advances
        // the counter by growth no other scrape has added.
        std::thread::scope(|s| {
            for mw in [&a, &b] {
                s.spawn(move || {
                    for round in 0..4 {
                        for f in 0..6u32 {
                            let node = NodeId(((f as usize + round) % 3) as u16);
                            mw.handle(node).read_file(FileId(f));
                        }
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| (0..50).for_each(|_| _ = registry.snapshot()));
            }
        });
        let sum = std::array::from_fn(|i| want(&a)[i] + want(&b)[i]);
        assert!(want(&a)[0] > 0 && want(&b)[0] > 0, "both followed hints");
        assert_eq!(tallied(), sum, "the clusters' tallies sum");
        assert_eq!(tallied(), sum, "a second scrape adds nothing");
        // A cluster that is gone leaves its share and refreshes nothing.
        a.shutdown();
        assert_eq!(tallied(), sum);
        b.shutdown();
        assert_eq!(tallied(), sum);
    }

    #[test]
    #[should_panic(expected = "already up")]
    fn joining_a_member_panics() {
        let mw = start(2, 16, 2, 10_000);
        mw.join_node(NodeId(1));
    }

    /// Every departure claims the node's liveness flag first, so callers
    /// racing to take the same node out — a crash and the heartbeat
    /// monitor, say — carry it out exactly once.
    #[test]
    fn racing_departures_take_a_node_out_once() {
        let mw = start(3, 64, 4, 20_000);
        for f in 0..4u32 {
            mw.handle(NodeId(2)).read_file(FileId(f));
        }
        mw.quiesce();
        let exits = [Exit::Crash, Exit::Declared, Exit::Crash, Exit::Declared];
        let taken = std::thread::scope(|s| {
            let shared = &mw.shared;
            let racers = exits.map(|exit| s.spawn(move || shared.depart(NodeId(2), exit)));
            racers
                .into_iter()
                .map(|r| r.join().expect("no racer panics"))
                .filter(Option::is_some)
                .count()
        });
        assert_eq!(taken, 1, "exactly one racer takes the node out");
        assert_eq!(mw.stats().node_repairs, 1);
        assert_eq!(mw.epoch(), 1);
        assert_eq!(mw.membership().state(NodeId(2)), MemberState::Down);
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn hint_metrics_are_registered_and_move() {
        let cat = catalog(6, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                directory: DirectoryKind::Hint,
                capacity_blocks: 8, // tiny: force forwarding → stale hints
                ..RtConfig::default()
            },
            cat.clone(),
            store,
        );
        for round in 0..3 {
            for f in 0..6u32 {
                let node = NodeId(((f as usize + round) % 3) as u16);
                mw.handle(node).read_file(FileId(f));
            }
        }
        let snap = scrape_matches_accessors(&mw);
        let counter = |name: &str| snap.counter_sum(name);
        let hs = mw.hint_stats();
        assert_eq!(counter("ccm_rt_hint_hits_total"), hs.correct);
        assert_eq!(counter("ccm_rt_hint_stale_total"), hs.stale);
        assert_eq!(counter("ccm_rt_hint_forward_hops_total"), hs.forward_hops);
        assert!(hs.lookups > 0, "hint directory must have been consulted");
        assert!(matches!(
            snap.find("ccm_rt_epoch", &[]).map(|m| &m.value),
            Some(&ccm_obs::Value::Gauge(0))
        ));
        mw.shutdown();
    }

    #[test]
    fn heartbeat_monitor_detects_silent_failure() {
        let cat = catalog(4, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 64,
                fetch_timeout: Duration::from_millis(50),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        for f in 0..4u32 {
            mw.handle(NodeId(2)).read_file(FileId(f));
        }
        mw.quiesce();
        let members = mw.membership();
        mw.sever_node(NodeId(2));
        assert!(members.is_member(NodeId(2)), "failure starts silent");
        mw.start_heartbeat(Duration::from_millis(5), Duration::from_millis(25), 2);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while members.state(NodeId(2)) != MemberState::Down {
            assert!(
                std::time::Instant::now() < deadline,
                "monitor never declared the severed node dead"
            );
            let e = members.epoch();
            members.wait_for_epoch(e + 1, Duration::from_millis(100));
        }
        assert!(!members.is_member(NodeId(2)));
        assert!(!mw.is_alive(NodeId(2)));
        assert_eq!(mw.stats().node_repairs, 1, "detection repairs once");
        // Survivors keep serving correct bytes around the dead node.
        for f in 0..4u32 {
            let got = mw.handle(NodeId(0)).read_file(FileId(f));
            let want = read_file_direct(&*store, &cat, FileId(f));
            assert_eq!(got, want, "file {f} wrong after detection");
        }
        mw.check_invariants();
        mw.shutdown();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn trace_ring_records_the_block_path() {
        use ccm_obs::Hop;
        let mw = start(2, 64, 1, 20_000);
        // Remote-hit path: node 0 masters the block, node 1 fetches it.
        let block = BlockId::new(FileId(0), 0);
        mw.handle(NodeId(0)).read_block(block);
        let (_, req) = mw.handle(NodeId(1)).read_block_traced(block);
        assert!(req > 0, "instrumented build must assign request ids");
        let hops: Vec<Hop> = mw
            .trace()
            .dump_for(req)
            .into_iter()
            .map(|e| e.hop)
            .collect();
        assert_eq!(
            hops[0],
            Hop::Dispatch { file: 0, block: 0 },
            "first hop is the dispatch"
        );
        assert!(hops.contains(&Hop::PeerFetch { from: 0 }));
        assert!(matches!(hops.last(), Some(Hop::Serve { .. })));
        // The dump is valid JSON-ish and mentions the request.
        let json = mw.trace().dump_json();
        assert!(json.contains(&format!("\"req_id\":{req}")));
        mw.shutdown();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn a_local_hit_traces_three_hops_on_two_clock_reads() {
        let mw = start(1, 8, 1, BLOCK_SIZE);
        let block = BlockId::new(FileId(0), 0);
        mw.handle(NodeId(0)).read_block(block);
        let (_, req) = mw.handle(NodeId(0)).read_block_traced(block);
        let events = mw.trace().dump_for(req);
        let hops: Vec<Hop> = events.iter().map(|e| e.hop.clone()).collect();
        assert_eq!(
            hops,
            [
                Hop::Dispatch { file: 0, block: 0 },
                Hop::LocalHit,
                Hop::Serve { bytes: BLOCK_SIZE }
            ]
        );
        // The decision's stamp, then the one read that closed the block's
        // latency sample, shared by its class hop and its serve.
        assert!(events[0].at_ns <= events[1].at_ns);
        assert_eq!(events[1].at_ns, events[2].at_ns);
        mw.shutdown();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn a_decided_chunk_shares_one_stamp_and_each_served_block_one_more() {
        let mw = start(1, 128, 1, 70 * BLOCK_SIZE);
        let (_, reqs) = mw.handle(NodeId(0)).read_file_traced(FileId(0));
        assert_eq!(reqs.len(), 70);
        let trace = mw.trace();
        let events: Vec<Vec<ccm_obs::TraceEvent>> =
            reqs.iter().map(|&r| trace.dump_for(r)).collect();
        for (i, ev) in events.iter().enumerate() {
            let hops: Vec<Hop> = ev.iter().map(|e| e.hop.clone()).collect();
            let dispatch = Hop::Dispatch {
                file: 0,
                block: i as u32,
            };
            assert_eq!(hops[..2], [dispatch, Hop::DiskRead], "block {i}");
            assert!(matches!(hops[2..], [Hop::Serve { .. }]), "block {i}");
            assert!(ev[0].at_ns <= ev[1].at_ns, "block {i}");
            assert_eq!(ev[1].at_ns, ev[2].at_ns, "block {i}: class hop and serve");
        }
        // The first chunk (32 blocks) was decided under one lock hold and
        // dispatched at one moment; the second chunk was decided later.
        let dispatched = |i: usize| events[i][0].at_ns;
        assert!((0..32).all(|i| dispatched(i) == dispatched(0)));
        assert!(dispatched(32) > dispatched(31));
        mw.shutdown();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn fetch_latency_histograms_fill_by_class() {
        let mw = start(2, 64, 2, 20_000);
        mw.handle(NodeId(0)).read_file(FileId(0));
        mw.handle(NodeId(0)).read_file(FileId(0));
        mw.handle(NodeId(1)).read_file(FileId(0));
        let snap = mw.registry().snapshot();
        for class in ["local", "remote", "disk"] {
            match snap
                .find("ccm_rt_fetch_latency_ns", &[("class", class)])
                .map(|m| &m.value)
            {
                Some(ccm_obs::Value::Histogram(h)) => {
                    assert!(h.count() > 0, "class {class} must have samples");
                    assert!(h.quantile(0.5) > 0, "latencies are nonzero");
                }
                other => panic!("missing histogram for {class}: {other:?}"),
            }
        }
        mw.shutdown();
    }

    #[test]
    fn concurrent_same_block_writers_persist_in_protocol_order() {
        // Pin for the write-ordering gap this module used to document:
        // without per-block serialization, two same-block writers could
        // persist to the store in one order while the protocol recorded
        // the other, leaving disk and directory disagreeing about which
        // write was last. With the per-block lock, the persisted bytes
        // must equal what the last *protocol* write installed — which is
        // what every node reads back.
        use crate::store::MemStore;
        let cat = catalog(1, 16_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Arc::new(Middleware::start(
            RtConfig {
                nodes: 4,
                capacity_blocks: 32,
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        ));
        let block = BlockId::new(FileId(0), 0);
        let len = cat.block_bytes(block) as usize;
        let mut threads = Vec::new();
        for t in 0..4u16 {
            let mw = mw.clone();
            threads.push(std::thread::spawn(move || {
                let h = mw.handle(NodeId(t));
                for round in 0..50u8 {
                    // Unique fill per (writer, round): 4*50 = 200 < 256.
                    let payload = vec![t as u8 * 50 + round; len];
                    h.write_block(block, &payload)
                        .expect("MemStore accepts writes");
                }
            }));
        }
        for t in threads {
            t.join().expect("writer panicked");
        }
        mw.quiesce();
        let via_protocol = mw.handle(NodeId(0)).read_block(block);
        let raw = store.read_block(block);
        assert_eq!(
            &*via_protocol, &raw,
            "store persisted a different write than the protocol observed last"
        );
        assert_eq!(mw.stats().writes, 200);
        mw.check_invariants();
        Arc::try_unwrap(mw).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn write_back_acks_without_persisting_and_flush_drains() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        let cat = catalog(2, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 2,
                capacity_blocks: 32,
                write: WriteConfig::back(8),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let block = BlockId::new(FileId(0), 0);
        let payload = vec![0xAB; cat.block_bytes(block) as usize];
        mw.handle(NodeId(0))
            .write_block(block, &payload)
            .expect("write-back accepts writes");
        // Acked but not persisted: the store still serves the old image...
        assert_ne!(store.read_block(block), payload, "must not persist yet");
        assert_eq!(mw.dirty_blocks(), 1);
        // ...while every node coherently reads the new bytes.
        assert_eq!(&*mw.handle(NodeId(1)).read_block(block), &payload);
        scrape_matches_accessors(&mw);
        let flushed = mw.flush_dirty();
        assert_eq!(flushed, 1);
        assert_eq!(store.read_block(block), payload, "flush must persist");
        assert_eq!(mw.dirty_blocks(), 0);
        scrape_matches_accessors(&mw);
        let ws = mw.write_stats();
        assert_eq!((ws.writes, ws.flushes, ws.lost), (1, 1, 0));
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn write_back_budget_bounds_dirty_set() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        let cat = catalog(10, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 2,
                capacity_blocks: 64,
                write: WriteConfig::back(4),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let h = mw.handle(NodeId(0));
        let mut payloads = Vec::new();
        for f in 0..10u32 {
            let block = BlockId::new(FileId(f), 0);
            let payload = vec![f as u8 ^ 0xC3; cat.block_bytes(block) as usize];
            h.write_block(block, &payload).expect("write accepted");
            payloads.push((block, payload));
            assert!(
                mw.dirty_blocks() <= 4,
                "dirty set exceeded budget after write {f}"
            );
        }
        // Oldest-first: the six excess blocks were flushed in write order.
        for (block, payload) in &payloads[..6] {
            assert_eq!(&store.read_block(*block), payload, "{block:?} not flushed");
        }
        assert_eq!(mw.dirty_blocks(), 4);
        assert_eq!(mw.write_stats().flushes, 6);
        mw.shutdown();
    }

    #[test]
    fn dirty_eviction_flushes_instead_of_losing() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        // Single node, tiny cache, budget far above the write count: the
        // only flush pressure is eviction. A dirty master being evicted
        // must persist first — never drop the sole current copy.
        let cat = catalog(24, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 1,
                capacity_blocks: 8,
                write: WriteConfig::back(64),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let h = mw.handle(NodeId(0));
        let mut payloads = Vec::new();
        for f in 0..24u32 {
            let block = BlockId::new(FileId(f), 0);
            let payload = vec![f as u8 ^ 0x77; cat.block_bytes(block) as usize];
            h.write_block(block, &payload).expect("write accepted");
            payloads.push((block, payload));
        }
        let evicted_flushes = mw.write_stats().flushes;
        assert!(
            evicted_flushes >= 16,
            "evicting dirty masters must flush them (saw {evicted_flushes})"
        );
        assert!(mw.lost_writes().is_empty(), "nothing may be lost");
        mw.flush_dirty();
        for (block, payload) in &payloads {
            assert_eq!(&store.read_block(*block), payload, "{block:?} lost");
            assert_eq!(&*h.read_block(*block), payload, "{block:?} serves stale");
        }
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn write_back_crash_loses_boundedly_and_detectably() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        let cat = catalog(6, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 32,
                write: WriteConfig::back(8),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        // Node 2 dirties four blocks nobody re-reads: no current copy
        // survives its crash.
        let blocks: Vec<BlockId> = (0..4u32).map(|f| BlockId::new(FileId(f), 0)).collect();
        for &b in &blocks {
            let payload = vec![0xEE; cat.block_bytes(b) as usize];
            mw.handle(NodeId(2))
                .write_block(b, &payload)
                .expect("write");
        }
        mw.quiesce();
        assert_eq!(mw.dirty_blocks(), 4);
        mw.crash_node(NodeId(2));
        let lost = mw.lost_writes();
        assert_eq!(
            lost, blocks,
            "every unreplicated dirty block is lost — and named"
        );
        assert_eq!(mw.dirty_blocks(), 0, "ledger reconciled");
        let ws = mw.write_stats();
        assert_eq!((ws.lost, ws.recovered), (4, 0));
        // Lost blocks serve the last *persisted* image — the pristine
        // base — not garbage, and not a silent claim of the lost write.
        let pristine = SyntheticStore::new(cat.clone(), 42);
        for &b in &blocks {
            assert_eq!(
                &*mw.handle(NodeId(0)).read_block(b),
                &pristine.read_block(b),
                "lost block must serve the persisted image"
            );
        }
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn write_back_crash_recovers_from_survivor_replica() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        let cat = catalog(2, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 32,
                write: WriteConfig::back(8),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let block = BlockId::new(FileId(0), 0);
        let payload = vec![0x4D; cat.block_bytes(block) as usize];
        mw.handle(NodeId(2))
            .write_block(block, &payload)
            .expect("write");
        // Node 1 re-reads after the write: its replica holds the current
        // bytes, so the dirty master is no longer the only copy.
        assert_eq!(&*mw.handle(NodeId(1)).read_block(block), &payload);
        mw.quiesce();
        mw.crash_node(NodeId(2));
        assert!(
            mw.lost_writes().is_empty(),
            "the replica must rescue the write"
        );
        let ws = mw.write_stats();
        assert_eq!((ws.lost, ws.recovered), (0, 1));
        assert_eq!(store.read_block(block), payload, "recovery persists");
        assert_eq!(&*mw.handle(NodeId(0)).read_block(block), &payload);
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn graceful_leave_flushes_dirty_masters() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        let cat = catalog(4, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 3,
                capacity_blocks: 32,
                write: WriteConfig::back(16),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let mut payloads = Vec::new();
        for f in 0..3u32 {
            let block = BlockId::new(FileId(f), 0);
            let payload = vec![f as u8 ^ 0x91; cat.block_bytes(block) as usize];
            mw.handle(NodeId(1))
                .write_block(block, &payload)
                .expect("write");
            payloads.push((block, payload));
        }
        mw.quiesce();
        mw.leave_node(NodeId(1));
        assert!(mw.lost_writes().is_empty(), "graceful leave loses nothing");
        assert_eq!(mw.dirty_blocks(), 0, "leaver's dirty blocks were flushed");
        assert_eq!(mw.stats().lost_masters, 0);
        for (block, payload) in &payloads {
            assert_eq!(&store.read_block(*block), payload, "{block:?} not durable");
            assert_eq!(&*mw.handle(NodeId(0)).read_block(*block), payload);
        }
        mw.check_invariants();
        mw.shutdown();
    }

    #[test]
    fn shutdown_drains_the_dirty_set() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        let cat = catalog(1, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 2,
                capacity_blocks: 16,
                write: WriteConfig::back(8),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let block = BlockId::new(FileId(0), 0);
        let payload = vec![0x3C; cat.block_bytes(block) as usize];
        mw.handle(NodeId(0))
            .write_block(block, &payload)
            .expect("write");
        mw.shutdown();
        assert_eq!(store.read_block(block), payload, "shutdown must flush");
    }

    #[test]
    fn op_cadence_flushes_without_background_thread() {
        use crate::store::MemStore;
        use crate::write::WriteConfig;
        let cat = catalog(8, 8_000);
        let store = Arc::new(MemStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 2,
                capacity_blocks: 64,
                // Budget far above the write count: only the cadence can
                // be draining the ledger.
                write: WriteConfig::back_every_ops(64, 4),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let h = mw.handle(NodeId(0));
        for i in 0..8u32 {
            let block = BlockId::new(FileId(i % 8), 0);
            let payload = vec![i as u8; cat.block_bytes(block) as usize];
            h.write_block(block, &payload).expect("write");
            // Single-threaded and deterministic: the ledger drains on
            // every 4th acknowledged write and only then.
            let expect_dirty = ((i as usize) + 1) % 4;
            assert_eq!(mw.dirty_blocks(), expect_dirty, "after write {i}");
            if expect_dirty == 0 {
                assert_eq!(store.read_block(block), payload, "cadence must persist");
            }
        }
        assert_eq!(mw.write_stats().flushes, 8);
        mw.shutdown();
    }

    #[test]
    fn admission_gates_replica_installs_and_exports_metrics() {
        use ccm_core::AdmissionConfig;
        let cat = catalog(2, 20_000);
        let store = Arc::new(SyntheticStore::new(cat.clone(), 42));
        let mw = Middleware::start(
            RtConfig {
                nodes: 2,
                capacity_blocks: 64,
                admission: Some(AdmissionConfig::new(16)),
                ..RtConfig::default()
            },
            cat.clone(),
            store.clone(),
        );
        let blocks = cat.blocks_of(FileId(0));
        let block = BlockId::new(FileId(0), 0);
        let want = read_file_direct(&*store, &cat, FileId(0));
        // Node 0 masters the file (disk reads are never admission-gated).
        mw.handle(NodeId(0)).read_file(FileId(0));
        // First remote touch: served but rejected — no replica cached, in
        // the directory *or* the data plane.
        assert_eq!(mw.handle(NodeId(1)).read_file(FileId(0)), want);
        assert_eq!(mw.handle(NodeId(1)).cached_as(block), None);
        // Second touch: every block ghost-hits and is admitted.
        assert_eq!(mw.handle(NodeId(1)).read_file(FileId(0)), want);
        mw.quiesce();
        assert_eq!(
            mw.handle(NodeId(1)).cached_as(block),
            Some(CopyKind::Replica)
        );
        let adm = mw.admission_stats();
        assert_eq!(adm.rejected, blocks as u64);
        assert_eq!(adm.ghost_hits, blocks as u64);
        assert_eq!(adm.admitted, blocks as u64);
        // The registry families read the protocol counters exactly.
        let snap = scrape_matches_accessors(&mw);
        assert_eq!(
            snap.counter_sum("ccm_rt_admission_rejected_total"),
            adm.rejected
        );
        assert_eq!(
            snap.counter_sum("ccm_rt_admission_admitted_total"),
            adm.admitted
        );
        assert_eq!(
            snap.counter_sum("ccm_rt_admission_ghost_hits_total"),
            adm.ghost_hits
        );
        // Third read is now a local hit on the admitted replica.
        let before = mw.stats().local_hits;
        assert_eq!(mw.handle(NodeId(1)).read_file(FileId(0)), want);
        assert_eq!(mw.stats().local_hits, before + blocks as u64);
        mw.check_invariants();
        mw.shutdown();
    }
}
