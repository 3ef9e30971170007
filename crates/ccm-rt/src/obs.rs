//! The runtime's metric handles: every counter, gauge, and histogram the
//! middleware updates, registered once at cluster start so the read path
//! never touches the registry — it pays one relaxed atomic per event.
//!
//! Metric catalog (see DESIGN.md "Observability" for the full naming
//! conventions):
//!
//! | name | type | labels |
//! |------|------|--------|
//! | `ccm_rt_reads_total` | counter | `node`, `class` = `local`/`remote`/`disk`/`fallback` |
//! | `ccm_rt_evictions_total` | counter | `node` |
//! | `ccm_rt_forwards_total` | counter | `node` |
//! | `ccm_rt_store_fallbacks_total` | counter | `node` |
//! | `ccm_rt_move_fallbacks_total` | counter | `node` |
//! | `ccm_rt_disk_error_fallbacks_total` | counter | `node` |
//! | `ccm_rt_store_blocks` | gauge | `node` |
//! | `ccm_rt_directory_blocks` | gauge | — |
//! | `ccm_rt_fetch_latency_ns` | histogram | `class` (timing: see below) |
//! | `ccm_rt_hint_hits_total` | counter | — |
//! | `ccm_rt_hint_stale_total` | counter | — |
//! | `ccm_rt_hint_forward_hops_total` | counter | — |
//! | `ccm_rt_epoch` | gauge | — |
//! | `ccm_rt_writes_total` | counter | `node` |
//! | `ccm_rt_admission_admitted_total` | counter | — |
//! | `ccm_rt_admission_rejected_total` | counter | — |
//! | `ccm_rt_admission_ghost_hits_total` | counter | — |
//! | `ccm_rt_wb_dirty_blocks` | gauge | — |
//! | `ccm_rt_wb_flushes_total` | counter | — |
//! | `ccm_rt_wb_lost_total` | counter | — |
//! | `ccm_rt_wb_recovered_total` | counter | — |
//!
//! The hint counters mirror the `ccm-core` hint-directory statistics
//! (correct hints, stale hints, wasted forwarding hops); they stay at zero
//! under the perfect directory but are always registered, so a scrape sees
//! the family either way. `ccm_rt_epoch` exports the membership table's
//! epoch — it moves only when the cluster configuration changes.
//!
//! The admission counters mirror the `ccm-core` ghost-LRU admission
//! statistics and stay at zero with admission off; the `wb_*` family
//! tracks write-back dirty-block lifecycle (flushed / lost with a crashed
//! dirty master / recovered from a survivor's replica) and stays at zero
//! under write-through. Like the hint family, all are always registered.
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
//! over its own serve: the store lookup, disk read or fallback, plus its
//! eviction and install.

use ccm_core::NodeId;
use ccm_obs::{Counter, Gauge, Histogram, Registry, TraceRing};

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

/// All of the runtime's metric handles plus the trace ring.
pub(crate) struct RtObs {
    pub registry: Registry,
    pub trace: TraceRing,
    pub nodes: Vec<NodeObs>,
    /// Fetch latency histograms indexed by ReadClass as usize.
    pub fetch_ns: [Histogram; 4],
    pub directory_blocks: Gauge,
    /// Hint-directory outcomes (zero under the perfect directory).
    pub hint_hits: Counter,
    pub hint_stale: Counter,
    pub hint_forward_hops: Counter,
    /// Current membership epoch.
    pub epoch: Gauge,
    /// Replica-admission outcomes (zero with admission off).
    pub admission_admitted: Counter,
    pub admission_rejected: Counter,
    pub admission_ghost_hits: Counter,
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
        let hint_hits = registry.counter(
            "ccm_rt_hint_hits_total",
            "Hint-directory lookups whose best-guess owner was correct",
            &[],
        );
        let hint_stale = registry.counter(
            "ccm_rt_hint_stale_total",
            "Hint-directory lookups that started from a stale hint",
            &[],
        );
        let hint_forward_hops = registry.counter(
            "ccm_rt_hint_forward_hops_total",
            "Wasted forwarding hops charged while chasing stale hint chains",
            &[],
        );
        let epoch = registry.gauge(
            "ccm_rt_epoch",
            "Membership epoch: bumped once per join/leave/crash/repair transition",
            &[],
        );
        let admission_admitted = registry.counter(
            "ccm_rt_admission_admitted_total",
            "Remote hits whose replica the admission filter let in",
            &[],
        );
        let admission_rejected = registry.counter(
            "ccm_rt_admission_rejected_total",
            "Remote hits served without caching a replica (one-touch candidates)",
            &[],
        );
        let admission_ghost_hits = registry.counter(
            "ccm_rt_admission_ghost_hits_total",
            "Admissions granted because the block re-touched its ghost-list entry",
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
            hint_hits,
            hint_stale,
            hint_forward_hops,
            epoch,
            admission_admitted,
            admission_rejected,
            admission_ghost_hits,
            wb_dirty_blocks,
            wb_flushes,
            wb_lost,
            wb_recovered,
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
