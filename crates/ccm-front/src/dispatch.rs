//! The dispatch seam: how the front door picks a serving node.
//!
//! Every policy implements [`Dispatch`]: a pure pick plus optional
//! `begin`/`end` brackets for load signals. Four policies ship:
//!
//! * [`RoundRobin`] — the paper's baseline arrival model, a stand-in for
//!   round-robin DNS.
//! * [`ConsistentHash`] — URL-hashed partitioning on a ring with virtual
//!   nodes ("Asymptotic Miss Ratio of LRU Caching with Consistent
//!   Hashing", PAPERS.md): each URL has one home node, so per-node caches
//!   partition the working set without coordination.
//! * [`ContentAware`] — the L2S policy itself, running on the *same*
//!   [`L2sRouter`] core the simulator uses: first-touch assignment to the
//!   least-loaded node, watermark-driven replication and de-replication.
//! * [`LoadAware`] — LARD-style least-outstanding-requests, driven by the
//!   `ccm_front_inflight` gauges the front tier exports (ties rotate, so
//!   an idle cluster degrades to round-robin instead of pinning node 0).

use ccm_core::{FileId, NodeId};
use ccm_l2s::{L2sConfig, L2sRouter};
use ccm_obs::{Gauge, Registry};
use simcore::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A front-door dispatch policy.
pub trait Dispatch: Send + Sync {
    /// The policy's label (metric label value, bench matrix key).
    fn name(&self) -> &'static str;

    /// Pick the serving node for a request for `path` (resolved to `file`
    /// when it names a catalog file) arriving at front endpoint `arrival`.
    fn pick(&self, arrival: NodeId, path: &str, file: Option<FileId>) -> NodeId;

    /// The picked node began serving a request (load-signal bracket).
    fn begin(&self, _node: NodeId) {}

    /// The node finished serving a request.
    fn end(&self, _node: NodeId) {}
}

/// Ring hash: FNV-1a finished with a SplitMix64 avalanche — raw FNV of
/// short, similar strings clusters in the high bits, which skews
/// ring-point placement badly.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = simcore::hash::FNV_OFFSET;
    simcore::hash::fnv1a(&mut h, bytes);
    simcore::rng::splitmix64(&mut h)
}

/// Rotate through nodes in arrival order — what round-robin DNS does.
pub struct RoundRobin {
    nodes: usize,
    next: AtomicUsize,
}

impl RoundRobin {
    /// A rotation over `nodes` nodes.
    ///
    /// # Panics
    /// Panics on an empty cluster.
    pub fn new(nodes: usize) -> RoundRobin {
        assert!(nodes > 0, "empty cluster");
        RoundRobin {
            nodes,
            next: AtomicUsize::new(0),
        }
    }
}

impl Dispatch for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&self, _arrival: NodeId, _path: &str, _file: Option<FileId>) -> NodeId {
        NodeId((self.next.fetch_add(1, Ordering::Relaxed) % self.nodes) as u16)
    }
}

/// Virtual-node points per physical node on the hash ring. Enough that
/// per-node load imbalance stays within a few percent at the cluster
/// sizes the paper uses (4–16 nodes).
const VNODES: usize = 64;

/// Hash-partitioned dispatch: each URL maps to one home node via a
/// consistent-hash ring, so node membership changes remap only the
/// neighboring arc, not the whole keyspace.
pub struct ConsistentHash {
    /// Sorted ring points.
    ring: Vec<(u64, NodeId)>,
}

impl ConsistentHash {
    /// A ring over `nodes` nodes with [`VNODES`] points each.
    ///
    /// # Panics
    /// Panics on an empty cluster.
    pub fn new(nodes: usize) -> ConsistentHash {
        assert!(nodes > 0, "empty cluster");
        let mut ring = Vec::with_capacity(nodes * VNODES);
        for n in 0..nodes {
            for v in 0..VNODES {
                let point = ring_hash(format!("node-{n}/vnode-{v}").as_bytes());
                ring.push((point, NodeId(n as u16)));
            }
        }
        ring.sort_unstable();
        ConsistentHash { ring }
    }
}

impl Dispatch for ConsistentHash {
    fn name(&self) -> &'static str {
        "consistent-hash"
    }

    fn pick(&self, _arrival: NodeId, path: &str, _file: Option<FileId>) -> NodeId {
        let h = ring_hash(path.as_bytes());
        // First ring point at or after the key, wrapping.
        let idx = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[idx % self.ring.len()].1
    }
}

/// The L2S content-aware policy over the shared [`L2sRouter`] core — the
/// live front door and the simulator make bit-identical decisions for the
/// same request sequence.
pub struct ContentAware {
    router: Mutex<L2sRouter>,
}

impl ContentAware {
    /// The paper's watermarks ([`L2sConfig::paper`]) over `nodes` nodes.
    ///
    /// # Panics
    /// Panics on an empty cluster.
    pub fn new(nodes: usize) -> ContentAware {
        let cfg = L2sConfig::paper(nodes, 0 /* capacity is the backend's business */);
        ContentAware {
            router: Mutex::new(L2sRouter::new(
                cfg.nodes,
                cfg.t_low,
                cfg.t_high,
                cfg.max_replicas,
            )),
        }
    }

    /// Routing counters (handoffs, replications, de-replications).
    pub fn router_stats(&self) -> ccm_l2s::RouterStats {
        self.router.lock().stats()
    }
}

impl Dispatch for ContentAware {
    fn name(&self) -> &'static str {
        "content-aware"
    }

    fn pick(&self, arrival: NodeId, _path: &str, file: Option<FileId>) -> NodeId {
        match file {
            // Non-file endpoints have no content to be aware of.
            None => arrival,
            Some(f) => self.router.lock().route(arrival, f).target,
        }
    }

    fn begin(&self, node: NodeId) {
        self.router.lock().begin_request(node);
    }

    fn end(&self, node: NodeId) {
        self.router.lock().end_request(node);
    }
}

/// LARD-style load-aware dispatch: send the request to the node with the
/// fewest outstanding front-tier requests, reading the same
/// `ccm_front_inflight` gauges `/metrics` exports. The front tier itself
/// maintains those gauges around every backend read (the registry dedupes
/// `(name, labels)`, so both sides hold the same handles); this policy
/// only reads them, so its `begin`/`end` are the no-op defaults. Ties
/// rotate through the tied nodes so sequential (deterministic) runs
/// spread like round-robin rather than pinning the lowest node id.
pub struct LoadAware {
    inflight: Vec<Gauge>,
    rotor: AtomicUsize,
}

/// Register (or re-fetch) the per-node front-tier inflight gauges —
/// shared between the server's request accounting and [`LoadAware`].
pub fn inflight_gauges(registry: &Registry, nodes: usize) -> Vec<Gauge> {
    (0..nodes)
        .map(|n| {
            registry.gauge(
                "ccm_front_inflight",
                "Requests currently being served through the front tier",
                &[("node", n.to_string().as_str())],
            )
        })
        .collect()
}

impl LoadAware {
    /// Register (or re-fetch) the per-node inflight gauges on `registry`.
    ///
    /// # Panics
    /// Panics on an empty cluster.
    pub fn new(registry: &Registry, nodes: usize) -> LoadAware {
        assert!(nodes > 0, "empty cluster");
        LoadAware {
            inflight: inflight_gauges(registry, nodes),
            rotor: AtomicUsize::new(0),
        }
    }
}

impl Dispatch for LoadAware {
    fn name(&self) -> &'static str {
        "load-aware"
    }

    fn pick(&self, _arrival: NodeId, _path: &str, _file: Option<FileId>) -> NodeId {
        let n = self.inflight.len();
        let start = self.rotor.fetch_add(1, Ordering::Relaxed) % n;
        let mut best = start;
        let mut best_load = self.inflight[start].get();
        for i in 1..n {
            let idx = (start + i) % n;
            let load = self.inflight[idx].get();
            if load < best_load {
                best = idx;
                best_load = load;
            }
        }
        NodeId(best as u16)
    }
}

/// The named policies, for CLI flags and bench matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`ConsistentHash`].
    ConsistentHash,
    /// [`ContentAware`].
    ContentAware,
    /// [`LoadAware`].
    LoadAware,
}

impl PolicyKind {
    /// Every policy, bench-matrix order.
    pub fn all() -> [PolicyKind; 4] {
        [
            PolicyKind::RoundRobin,
            PolicyKind::ConsistentHash,
            PolicyKind::ContentAware,
            PolicyKind::LoadAware,
        ]
    }

    /// The policy's label.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::ConsistentHash => "consistent-hash",
            PolicyKind::ContentAware => "content-aware",
            PolicyKind::LoadAware => "load-aware",
        }
    }

    /// Parse a CLI spelling (`round-robin`, `consistent-hash`,
    /// `content-aware`, `load-aware`).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::all().into_iter().find(|p| p.name() == s)
    }

    /// Build the policy for a cluster of `nodes` nodes. `registry` feeds
    /// the load-aware policy its inflight gauges; the others ignore it.
    pub fn build(self, registry: &Registry, nodes: usize) -> std::sync::Arc<dyn Dispatch> {
        match self {
            PolicyKind::RoundRobin => std::sync::Arc::new(RoundRobin::new(nodes)),
            PolicyKind::ConsistentHash => std::sync::Arc::new(ConsistentHash::new(nodes)),
            PolicyKind::ContentAware => std::sync::Arc::new(ContentAware::new(nodes)),
            PolicyKind::LoadAware => std::sync::Arc::new(LoadAware::new(registry, nodes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let rr = RoundRobin::new(3);
        let picks: Vec<u16> = (0..6)
            .map(|_| rr.pick(NodeId(0), "/file/1", None).0)
            .collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn consistent_hash_is_stable_and_spread() {
        let ch = ConsistentHash::new(4);
        let mut counts = [0u32; 4];
        for i in 0..4000 {
            let path = format!("/file/{i}");
            let a = ch.pick(NodeId(0), &path, None);
            let b = ch.pick(NodeId(3), &path, None);
            assert_eq!(a, b, "same URL, same home node, any arrival");
            counts[a.index()] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                (500..2000).contains(&c),
                "node {n} got {c} of 4000 — ring is badly unbalanced"
            );
        }
    }

    /// Ring placement is a wire-visible function of the shared FNV-1a and
    /// the SplitMix64 finish: these values were captured before the hash
    /// moved into `simcore::hash` and must never change.
    #[test]
    fn consistent_hash_placement_is_pinned() {
        assert_eq!(ring_hash(b"/file/42"), 0x8f75_cbd6_cf9e_f2da);
        let ch = ConsistentHash::new(4);
        assert_eq!(ch.ring[0].0, 0x009e_ddf7_f122_5f72);
        let picks: Vec<u16> = (0..16)
            .map(|i| ch.pick(NodeId(0), &format!("/file/{i}"), None).0)
            .collect();
        assert_eq!(picks, [2, 0, 1, 1, 1, 2, 3, 3, 2, 0, 1, 2, 1, 3, 3, 3]);
    }

    #[test]
    fn consistent_hash_remaps_only_an_arc() {
        let before = ConsistentHash::new(4);
        let after = ConsistentHash::new(5);
        let moved = (0..2000)
            .filter(|i| {
                let path = format!("/file/{i}");
                before.pick(NodeId(0), &path, None) != after.pick(NodeId(0), &path, None)
            })
            .count();
        // Adding a 5th node should move roughly 1/5 of the keyspace;
        // naive modulo hashing would move ~4/5.
        assert!(
            moved < 800,
            "{moved} of 2000 keys moved — not consistent hashing"
        );
    }

    #[test]
    fn content_aware_follows_the_assignment() {
        let ca = ContentAware::new(4);
        let first = ca.pick(NodeId(2), "/file/9", Some(FileId(9)));
        for arrival in 0..4u16 {
            assert_eq!(ca.pick(NodeId(arrival), "/file/9", Some(FileId(9))), first);
        }
        // Non-file paths stay put.
        assert_eq!(ca.pick(NodeId(3), "/metrics", None), NodeId(3));
    }

    #[test]
    fn load_aware_avoids_the_busy_node() {
        let registry = Registry::new();
        let la = LoadAware::new(&registry, 3);
        // The server maintains the gauges; the policy only reads them.
        let gauges = inflight_gauges(&registry, 3);
        gauges[0].adjust(5);
        gauges[1].adjust(5);
        for _ in 0..6 {
            assert_eq!(la.pick(NodeId(0), "/file/1", None), NodeId(2));
        }
        // Release: ties now rotate over all three nodes.
        gauges[0].adjust(-5);
        gauges[1].adjust(-5);
        let picks: std::collections::BTreeSet<u16> =
            (0..3).map(|_| la.pick(NodeId(0), "/x", None).0).collect();
        assert_eq!(picks.len(), 3, "idle ties rotate round-robin");
    }

    #[test]
    fn policy_kind_round_trips() {
        for p in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(PolicyKind::parse("nope"), None);
    }
}
