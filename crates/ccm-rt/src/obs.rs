//! The runtime's metric handles: every counter, gauge, and histogram the
//! middleware exports, registered once at cluster start so the read path
//! never touches the registry — it pays one relaxed atomic per event.
//!
//! Metric catalog (see DESIGN.md "Observability" for the full naming
//! conventions). A series marked *read at scrape* is written by no data
//! path: the cluster's refresh hook (`Registry::on_snapshot`, registered by
//! `Middleware::start`) reads it from the state that keeps it whenever the
//! registry is snapshotted, so every scrape route sees it current.
//!
//! | name | type | labels | read at scrape |
//! |------|------|--------|----------------|
//! | `ccm_rt_reads_total` | counter | `node`, `class` = `local`/`remote`/`disk`/`fallback` | |
//! | `ccm_rt_evictions_total` | counter | `node` | |
//! | `ccm_rt_forwards_total` | counter | `node` | |
//! | `ccm_rt_store_fallbacks_total` | counter | `node` | |
//! | `ccm_rt_move_fallbacks_total` | counter | `node` | |
//! | `ccm_rt_disk_error_fallbacks_total` | counter | `node` | |
//! | `ccm_rt_store_blocks` | gauge | `node` | the node's store length |
//! | `ccm_rt_directory_blocks` | gauge | — | `ClusterCache::resident_blocks` |
//! | `ccm_rt_fetch_latency_ns` | histogram | `class` (timing: see below) | |
//! | `ccm_rt_hint_hits_total` | counter | — | `HintStats::correct` |
//! | `ccm_rt_hint_stale_total` | counter | — | `HintStats::stale` |
//! | `ccm_rt_hint_forward_hops_total` | counter | — | `HintStats::forward_hops` |
//! | `ccm_rt_epoch` | gauge | — | `Membership::epoch` |
//! | `ccm_rt_writes_total` | counter | `node` | |
//! | `ccm_rt_admission_admitted_total` | counter | — | `AdmissionStats::admitted` |
//! | `ccm_rt_admission_rejected_total` | counter | — | `AdmissionStats::rejected` |
//! | `ccm_rt_admission_ghost_hits_total` | counter | — | `AdmissionStats::ghost_hits` |
//! | `ccm_rt_wb_dirty_blocks` | gauge | — | the dirty ledger's length |
//! | `ccm_rt_wb_flushes_total` | counter | — | |
//! | `ccm_rt_wb_lost_total` | counter | — | |
//! | `ccm_rt_wb_recovered_total` | counter | — | |
//!
//! The hint counters export the `ccm-core` hint-directory statistics
//! (correct hints, stale hints, wasted forwarding hops); they stay at zero
//! under the perfect directory but are always registered, so a scrape sees
//! the family either way. `ccm_rt_epoch` exports the membership table's
//! epoch — it moves only when the cluster configuration changes.
//!
//! The admission counters export the `ccm-core` ghost-LRU admission
//! statistics and stay at zero with admission off; the `wb_*` family
//! tracks write-back dirty-block lifecycle (flushed / lost with a crashed
//! dirty master / recovered from a survivor's replica) and stays at zero
//! under write-through. Like the hint family, all are always registered.
//! A counter read at scrape advances by its cluster's growth since the
//! last scrape, so clusters that share a registry sum, as event counters
//! do.
//!
//! The read `class` is the *data-plane* outcome: a protocol-level remote
//! hit whose bytes had to come from the backing store (the §3 race) counts
//! as `fallback`, not `remote` — unlike `CacheStats`, which tallies the
//! protocol decision. The two views reconcile through
//! `ccm_rt_store_fallbacks_total`, which is the exact migration of the old
//! `Middleware::store_fallbacks` atomic (all fallback sites, including
//! eviction forwarding's disk re-read). `ccm_rt_move_fallbacks_total`
//! counts only the fallbacks that happen *outside* a traced read — an
//! eviction forward, join rebalance, or leave handoff whose source bytes
//! were already gone — so that `reads_total{class="fallback"} +
//! move_fallbacks == store_fallbacks` holds exactly, even under races.
//!
//! `ccm_rt_fetch_latency_ns` is the wait for one block's bytes, not for its
//! decision (a multi-block read decides a whole chunk under one lock hold).
//! A block that came over the transport — alone or in a train with the
//! other remote hits on its holder — is timed from that fetch's issue to
//! its serve, so a train's later blocks carry the round trip their reader
//! waited through, not a near-zero serve time. Every other block is timed
//! from its chunk's decision stamp — the one clock read taken once the
//! decision lock is released, which also stamps the chunk's dispatch hops —
//! to its serve: the serves ahead of it in the chunk, its store lookup,
//! disk read or fallback, plus its eviction and install. The clock read
//! that closes a sample also stamps the block's class hop and `serve`.

use ccm_core::NodeId;
use ccm_obs::{Counter, Gauge, Histogram, Registry, TraceRing};
use std::sync::atomic::{AtomicU64, Ordering};

/// How many block-path trace events the per-cluster ring retains.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// The four data-plane read outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// Bytes served from the node's own store.
    Local,
    /// Bytes fetched from a peer.
    Remote,
    /// Directory said disk; planned backing-store read.
    Disk,
    /// Data plane fell through to the backing store (§3 race).
    Fallback,
}

impl ReadClass {
    /// Label value.
    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Local => "local",
            ReadClass::Remote => "remote",
            ReadClass::Disk => "disk",
            ReadClass::Fallback => "fallback",
        }
    }
}

/// Per-node handles.
pub(crate) struct NodeObs {
    pub reads: [Counter; 4], // indexed by ReadClass as usize
    pub evictions: Counter,
    pub forwards: Counter,
    pub store_fallbacks: Counter,
    pub move_fallbacks: Counter,
    pub disk_error_fallbacks: Counter,
    pub store_blocks: Gauge,
    pub writes: Counter,
}

/// The protocol tallies exported as counters, in the order
/// [`RtObs::advance_tallies`] takes them: `HintStats::{correct, stale,
/// forward_hops}`, then `AdmissionStats::{admitted, rejected, ghost_hits}`.
const TALLIES: [(&str, &str); 6] = [
    (
        "ccm_rt_hint_hits_total",
        "Hint-directory lookups whose best-guess owner was correct",
    ),
    (
        "ccm_rt_hint_stale_total",
        "Hint-directory lookups that started from a stale hint",
    ),
    (
        "ccm_rt_hint_forward_hops_total",
        "Wasted forwarding hops charged while chasing stale hint chains",
    ),
    (
        "ccm_rt_admission_admitted_total",
        "Remote hits whose replica the admission filter let in",
    ),
    (
        "ccm_rt_admission_rejected_total",
        "Remote hits served without caching a replica (one-touch candidates)",
    ),
    (
        "ccm_rt_admission_ghost_hits_total",
        "Admissions granted because the block re-touched its ghost-list entry",
    ),
];

/// All of the runtime's metric handles plus the trace ring.
pub(crate) struct RtObs {
    pub registry: Registry,
    pub trace: TraceRing,
    pub nodes: Vec<NodeObs>,
    /// Fetch latency histograms indexed by ReadClass as usize.
    pub fetch_ns: [Histogram; 4],
    pub directory_blocks: Gauge,
    /// Current membership epoch.
    pub epoch: Gauge,
    /// Hint-directory and replica-admission tallies, in [`TALLIES`] order
    /// (zero under the perfect directory and with admission off).
    tallies: [Counter; 6],
    /// How much of each tally this cluster has added to its counter.
    exported: [AtomicU64; 6],
    /// Write-back dirty-block lifecycle (zero under write-through).
    pub wb_dirty_blocks: Gauge,
    pub wb_flushes: Counter,
    pub wb_lost: Counter,
    pub wb_recovered: Counter,
}

const CLASSES: [ReadClass; 4] = [
    ReadClass::Local,
    ReadClass::Remote,
    ReadClass::Disk,
    ReadClass::Fallback,
];

impl RtObs {
    pub fn new(registry: Registry, nodes: usize) -> RtObs {
        let node_obs = (0..nodes)
            .map(|i| {
                let n = NodeId(i as u16);
                let node = n.index().to_string();
                let l = [("node", node.as_str())];
                NodeObs {
                    reads: CLASSES.map(|c| {
                        registry.counter(
                            "ccm_rt_reads_total",
                            "Block reads by data-plane outcome class",
                            &[("node", node.as_str()), ("class", c.name())],
                        )
                    }),
                    evictions: registry.counter(
                        "ccm_rt_evictions_total",
                        "Cache eviction decisions applied by this node",
                        &l,
                    ),
                    forwards: registry.counter(
                        "ccm_rt_forwards_total",
                        "Evicted masters forwarded to a peer (second chance)",
                        &l,
                    ),
                    store_fallbacks: registry.counter(
                        "ccm_rt_store_fallbacks_total",
                        "Data-plane races resolved through the backing store (the paper's 'eventual disk read')",
                        &l,
                    ),
                    move_fallbacks: registry.counter(
                        "ccm_rt_move_fallbacks_total",
                        "Store fallbacks outside the read path (eviction forward / join / leave whose source bytes were gone)",
                        &l,
                    ),
                    disk_error_fallbacks: registry.counter(
                        "ccm_rt_disk_error_fallbacks_total",
                        "Disk-service reads that failed (injected I/O error) and were retried synchronously against the store",
                        &l,
                    ),
                    store_blocks: registry.gauge(
                        "ccm_rt_store_blocks",
                        "Blocks resident in this node's data store",
                        &l,
                    ),
                    writes: registry.counter(
                        "ccm_rt_writes_total",
                        "Block writes acknowledged through this node",
                        &l,
                    ),
                }
            })
            .collect();
        let fetch_ns = CLASSES.map(|c| {
            registry.histogram(
                "ccm_rt_fetch_latency_ns",
                "Block read latency by data-plane outcome class",
                &[("class", c.name())],
            )
        });
        let directory_blocks = registry.gauge(
            "ccm_rt_directory_blocks",
            "Blocks tracked by the global directory (refreshed at snapshot time)",
            &[],
        );
        let tallies = TALLIES.map(|(name, help)| registry.counter(name, help, &[]));
        let epoch = registry.gauge(
            "ccm_rt_epoch",
            "Membership epoch: bumped once per join/leave/crash/repair transition",
            &[],
        );
        let wb_dirty_blocks = registry.gauge(
            "ccm_rt_wb_dirty_blocks",
            "Acknowledged write-back writes not yet persisted",
            &[],
        );
        let wb_flushes = registry.counter(
            "ccm_rt_wb_flushes_total",
            "Dirty blocks persisted to the backing store by any flush path",
            &[],
        );
        let wb_lost = registry.counter(
            "ccm_rt_wb_lost_total",
            "Acknowledged write-back writes lost with a crashed dirty master",
            &[],
        );
        let wb_recovered = registry.counter(
            "ccm_rt_wb_recovered_total",
            "Dirty blocks rescued from a survivor's replica after their master crashed",
            &[],
        );
        RtObs {
            registry,
            trace: TraceRing::new(TRACE_RING_CAPACITY),
            nodes: node_obs,
            fetch_ns,
            directory_blocks,
            epoch,
            tallies,
            exported: Default::default(),
            wb_dirty_blocks,
            wb_flushes,
            wb_lost,
            wb_recovered,
        }
    }

    /// Advance each tally's counter by this cluster's growth since the
    /// last call: `now` is the protocol's current value, in [`TALLIES`]
    /// order. The caller holds the decision lock from reading `now` until
    /// this returns, so two scrapes never add the same growth twice.
    pub fn advance_tallies(&self, now: [u64; 6]) {
        for ((counter, exported), now) in self.tallies.iter().zip(&self.exported).zip(now) {
            counter.add(now - exported.swap(now, Ordering::Relaxed));
        }
    }

    #[inline]
    pub fn node(&self, node: NodeId) -> &NodeObs {
        &self.nodes[node.index()]
    }

    /// Sum of every node's store-fallback counter (the old aggregate view).
    pub fn store_fallbacks(&self) -> u64 {
        self.nodes.iter().map(|n| n.store_fallbacks.get()).sum()
    }

    /// Sum of every node's disk-error-fallback counter.
    pub fn disk_error_fallbacks(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.disk_error_fallbacks.get())
            .sum()
    }
}
