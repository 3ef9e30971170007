//! The pure-protocol reference: the same recorded stream replayed through
//! a bare [`ClusterCache`], no threads, no data plane.
//!
//! The threaded runtime's caching decisions are exactly the protocol's
//! (see `tests/runtime_vs_protocol.rs`), so for a deterministic drive the
//! live cluster's measurement-window statistics must equal this replay's
//! bit for bit — the conformance suite's oracle.

use crate::spec::{Arrivals, LoadSpec};
use ccm_core::block::blocks_of_file;
use ccm_core::{BlockId, CacheConfig, CacheStats, ClusterCache, FileId, NodeId};

/// What the reference replay observed over the measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// Protocol counters, delta over the measurement window.
    pub measured: CacheStats,
    /// Block accesses inside the measurement window.
    pub blocks: u64,
    /// Payload bytes requested inside the measurement window.
    pub bytes: u64,
}

impl SimReport {
    /// Cluster-memory hit ratio (local + remote) over the window.
    pub fn total_hit_ratio(&self) -> f64 {
        self.measured.total_hit_rate()
    }
}

/// Replay `spec`'s recorded request stream through the bare protocol:
/// request `i` issues from node `i % nodes`, touching every block of the
/// file, exactly as the live driver does. Returns the measurement-window
/// delta.
pub fn simulate(spec: &LoadSpec) -> SimReport {
    assert!(
        spec.write_ratio == 0.0 && matches!(spec.arrivals, Arrivals::Closed { .. }),
        "the protocol simulator models read-only closed-loop replay"
    );
    let wl = spec.workload();
    let requests = spec.record_stream();
    let mut cache = ClusterCache::new(CacheConfig::paper(
        spec.nodes,
        spec.capacity_blocks,
        spec.policy,
    ));

    let mut warm = CacheStats::new();
    let (mut blocks, mut bytes) = (0u64, 0u64);
    for (i, req) in requests.iter().enumerate() {
        if i == spec.warmup_requests {
            warm = cache.stats();
        }
        let node = NodeId((i % spec.nodes) as u16);
        let file = FileId(req.0);
        let size = wl.size_of(*req);
        for b in 0..blocks_of_file(size) {
            cache.access(node, BlockId::new(file, b));
        }
        if i >= spec.warmup_requests {
            blocks += blocks_of_file(size) as u64;
            bytes += size;
        }
    }
    cache.check_invariants();
    let measured = cache.stats().delta_since(&warm);
    debug_assert_eq!(measured.accesses(), blocks);
    SimReport {
        measured,
        blocks,
        bytes,
    }
}
