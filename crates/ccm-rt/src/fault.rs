//! Deterministic fault injection for the channel LAN.
//!
//! A [`FaultPlan`] is a seeded, declarative description of everything that
//! will go wrong in a run: per-link message drop / duplication / delay
//! probabilities and a per-node crash/restart schedule. [`ChaosLan`] wraps
//! [`Lan`] and applies the link faults; the torture harness applies the
//! crash schedule through `Middleware::crash_node` / `restart_node`.
//!
//! Determinism: every random decision comes from a per-link
//! [`simcore::Rng`] substream keyed by `(src, dst)`, consumed strictly in
//! that link's send order. No wall-clock time or ambient randomness is
//! involved, so the same plan over the same operation sequence makes the
//! same messages vanish — and the same `CacheStats` come out the other end.
//!
//! Fault model boundaries:
//!
//! * Only data-plane messages — [`PeerMsg::BlockRequest`] and
//!   [`PeerMsg::Forward`] — are chaos-eligible. Losing either is safe by
//!   design: the requester's bounded wait expires and it falls through to
//!   the backing store (the paper's §3 escape hatch), and a lost forward
//!   merely wastes the master's second chance.
//! * [`PeerMsg::Invalidate`] is delivered reliably and *flushes the link's
//!   delayed messages first*: an invalidation overtaken by a stale forward
//!   of the same block would resurrect superseded bytes, which no fault in
//!   the paper's model (lost messages, node crashes) can cause.
//! * [`PeerMsg::Barrier`] and [`PeerMsg::Shutdown`] are control-plane and
//!   bypass chaos entirely.
//!
//! A *delayed* message is held until `delay_sends` further messages leave
//! on the same link, then delivered after them — reordering expressed in
//! message counts rather than time, which keeps it deterministic.

use crate::transport::{PeerMsg, Pending, ReplyTo, Transport};
use ccm_core::{BlockId, NodeId};
use ccm_disk::DiskFaults;
use ccm_obs::{Counter, Registry};
use simcore::sync::Mutex;
use simcore::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Per-link fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a chaos-eligible message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
    /// Probability a message is held back (reordered).
    pub delay_prob: f64,
    /// How many subsequent sends on the same link a held message waits for.
    pub delay_sends: u64,
}

impl LinkFaults {
    /// No link faults at all.
    pub const NONE: LinkFaults = LinkFaults {
        drop_prob: 0.0,
        dup_prob: 0.0,
        delay_prob: 0.0,
        delay_sends: 0,
    };

    /// True if every probability is zero (the wrapper becomes pass-through).
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0 && self.dup_prob == 0.0 && self.delay_prob == 0.0
    }
}

/// One scheduled node crash, and optionally when it restarts.
///
/// Operation counts index the torture harness's driver sequence: the
/// harness crashes `node` just before its `at_op`-th operation and restarts
/// it before operation `restart_at_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node to kill.
    pub node: NodeId,
    /// Driver operation index at which the crash happens.
    pub at_op: u64,
    /// Operation index at which the node rejoins cold, if it does.
    pub restart_at_op: Option<u64>,
}

/// A complete, seeded description of a run's faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed; every per-link RNG substream derives from it.
    pub seed: u64,
    /// Fault probabilities applied to every link.
    pub link: LinkFaults,
    /// Node crash/restart schedule (applied by the harness, in order).
    pub crashes: Vec<CrashEvent>,
    /// Disk-level faults (slow reads, I/O errors) applied by every node's
    /// disk service; decisions are a pure hash of `(seed, block)`.
    pub disk: DiskFaults,
}

impl FaultPlan {
    /// A quiet plan: nothing goes wrong, but the wrapper is in place.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            link: LinkFaults::NONE,
            crashes: Vec::new(),
            disk: DiskFaults::NONE,
        }
    }

    /// The standard torture plan used by the chaos tests: lossy, duplicating,
    /// reordering links plus at least one crash/restart, all derived from
    /// `seed`. `ops` is the length of the driver sequence the crash schedule
    /// is placed within.
    pub fn torture(seed: u64, nodes: usize, ops: u64) -> FaultPlan {
        assert!(nodes > 1, "torture plan needs a peer to crash");
        let mut rng = Rng::new(seed).substream(0xC4A5);
        // Never crash node 0: the harness drives reads through it so the
        // cluster keeps serving while a peer is down.
        let node = NodeId(1 + rng.next_below(nodes as u64 - 1) as u16);
        let at_op = ops / 4 + rng.next_below(ops / 4 + 1);
        let restart_at_op = at_op + ops / 4;
        FaultPlan {
            seed,
            link: LinkFaults {
                drop_prob: 0.20,
                dup_prob: 0.05,
                delay_prob: 0.10,
                delay_sends: 3,
            },
            crashes: vec![CrashEvent {
                node,
                at_op,
                restart_at_op: Some(restart_at_op),
            }],
            disk: DiskFaults::NONE,
        }
    }

    /// The same plan with disk faults layered on: a copy of `self` whose
    /// node disk services will also inject slow reads and I/O errors.
    pub fn with_disk(mut self, disk: DiskFaults) -> FaultPlan {
        self.disk = disk;
        self
    }

    fn link_rng(&self, src: NodeId, dst: NodeId) -> Rng {
        Rng::new(self.seed).substream((src.index() as u64) << 32 | dst.index() as u64)
    }
}

/// Counts of faults actually injected (diagnostics; deterministic for a
/// fixed plan and send sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back for reordering.
    pub delayed: u64,
}

struct LinkState {
    rng: Rng,
    /// Messages sent on this link so far (chaos-eligible or not).
    sends: u64,
    /// Held messages: (deliver once `sends` reaches this, message).
    held: Vec<(u64, PeerMsg)>,
}

/// A [`Transport`] wrapper with a [`FaultPlan`] applied to its data-plane
/// traffic. Faults are injected on the sending side, *before* the inner
/// transport — so over the channel LAN a dropped message never enters the
/// inbox, and over `ccm-net`'s `TcpLan` it never reaches the socket. The
/// same plan therefore induces the same fault schedule on every backend.
pub struct ChaosLan {
    inner: Arc<dyn Transport>,
    faults: LinkFaults,
    /// Row-major `src * nodes + dst`; empty when `faults.is_none()`.
    links: Vec<Mutex<LinkState>>,
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
}

impl ChaosLan {
    /// Wrap `inner`, injecting the link faults of `plan`. Fault counters go
    /// onto a private registry; use [`ChaosLan::with_registry`] to expose
    /// them on a shared one (the middleware does).
    pub fn new(inner: Arc<dyn Transport>, plan: &FaultPlan) -> ChaosLan {
        ChaosLan::with_registry(inner, plan, &Registry::new())
    }

    /// Wrap `inner`, registering the injected-fault counters
    /// (`ccm_chaos_{dropped,duplicated,delayed}_total`) on `registry`.
    pub fn with_registry(
        inner: Arc<dyn Transport>,
        plan: &FaultPlan,
        registry: &Registry,
    ) -> ChaosLan {
        let nodes = inner.nodes();
        let links = if plan.link.is_none() {
            Vec::new()
        } else {
            let mut v = Vec::with_capacity(nodes * nodes);
            for src in 0..nodes {
                for dst in 0..nodes {
                    v.push(Mutex::new(LinkState {
                        rng: plan.link_rng(NodeId(src as u16), NodeId(dst as u16)),
                        sends: 0,
                        held: Vec::new(),
                    }));
                }
            }
            v
        };
        ChaosLan {
            inner,
            faults: plan.link,
            links,
            dropped: registry.counter(
                "ccm_chaos_dropped_total",
                "Chaos-eligible messages silently dropped by fault injection",
                &[],
            ),
            duplicated: registry.counter(
                "ccm_chaos_duplicated_total",
                "Messages delivered twice by fault injection",
                &[],
            ),
            delayed: registry.counter(
                "ccm_chaos_delayed_total",
                "Messages held back for reordering by fault injection",
                &[],
            ),
        }
    }

    /// The fault-free transport underneath.
    pub fn inner(&self) -> &dyn Transport {
        &*self.inner
    }

    /// Number of nodes attached.
    pub fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    /// Faults injected so far.
    pub fn chaos_stats(&self) -> ChaosStats {
        ChaosStats {
            dropped: self.dropped.get(),
            duplicated: self.duplicated.get(),
            delayed: self.delayed.get(),
        }
    }

    fn link(&self, src: NodeId, dst: NodeId) -> &Mutex<LinkState> {
        &self.links[src.index() * self.inner.nodes() + dst.index()]
    }

    /// Send `msg` from `src` to `dst` through the fault model. Returns false
    /// only when the destination is known dead; a dropped message still
    /// returns true — the sender cannot tell (that is the fault).
    pub fn send(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        if self.links.is_empty() {
            return self.inner.send(src, dst, msg);
        }
        let chaos_eligible = matches!(msg, PeerMsg::BlockRequest { .. } | PeerMsg::Forward { .. });
        let mut link = self.link(src, dst).lock();
        if !chaos_eligible {
            // Reliable messages must not overtake held data-plane traffic on
            // their link (an Invalidate arriving before a stale Forward of
            // the same block would later be undone by it).
            Self::release_all(&mut link, &*self.inner, src, dst);
            return self.inner.send(src, dst, msg);
        }
        link.sends += 1;
        let delivered = if link.rng.chance(self.faults.drop_prob) {
            self.dropped.inc();
            true // lost in the network; the sender cannot tell
        } else if link.rng.chance(self.faults.dup_prob) {
            self.duplicated.inc();
            let ok = self.inner.send(src, dst, msg.clone());
            self.inner.send(src, dst, msg);
            ok
        } else if link.rng.chance(self.faults.delay_prob) {
            self.delayed.inc();
            let release_at = link.sends + self.faults.delay_sends;
            link.held.push((release_at, msg));
            true
        } else {
            self.inner.send(src, dst, msg)
        };
        // Held messages whose wait expired leave *after* the current one —
        // that is the reordering.
        let due = link.sends;
        Self::release_due(&mut link, &*self.inner, src, dst, due);
        delivered
    }

    /// Request `block` from `holder` on behalf of `src`, waiting at most
    /// `timeout`. A dropped or delayed request (or reply path gone) surfaces
    /// as `None`, which callers treat as "fall through to the backing store".
    pub fn fetch_block(
        &self,
        src: NodeId,
        holder: NodeId,
        block: BlockId,
        timeout: Duration,
    ) -> Option<Arc<[u8]>> {
        if self.links.is_empty() {
            return self.inner.fetch_block(src, holder, block, timeout);
        }
        let (reply, reply_rx) = ReplyTo::channel();
        if !self.send(src, holder, PeerMsg::BlockRequest { block, reply }) {
            return None;
        }
        reply_rx.recv_timeout(timeout).ok().flatten()
    }

    /// Put the fetches of `blocks` from `holder` in flight on behalf of
    /// `src` — see [`Transport::issue`]. Without link faults the train passes
    /// whole to the inner transport (one pipelined train over `TcpLan`).
    /// Under a fault plan each request goes through the fault model on its
    /// own, in block order, and is answered or waited out (`timeout` each)
    /// before the next is sent, exactly as a loop of
    /// [`ChaosLan::fetch_block`] calls would: the train completes here and
    /// the `Pending` comes back ready.
    pub fn issue(
        &self,
        src: NodeId,
        holder: NodeId,
        blocks: &[BlockId],
        timeout: Duration,
    ) -> Pending {
        if self.links.is_empty() {
            return self.inner.issue(src, holder, blocks);
        }
        Pending::ready(
            blocks
                .iter()
                .map(|&b| self.fetch_block(src, holder, b, timeout))
                .collect(),
        )
    }

    /// Deliver every held message on every link, in link order. Part of
    /// quiescing the data plane between measurement points.
    pub fn flush(&self) {
        for (i, link) in self.links.iter().enumerate() {
            let src = NodeId((i / self.inner.nodes()) as u16);
            let dst = NodeId((i % self.inner.nodes()) as u16);
            Self::release_all(&mut link.lock(), &*self.inner, src, dst);
        }
    }

    fn release_due(
        link: &mut LinkState,
        inner: &dyn Transport,
        src: NodeId,
        dst: NodeId,
        due: u64,
    ) {
        // Held lists are tiny (a few messages); a linear sweep keeps release
        // order identical to hold order.
        let mut i = 0;
        while i < link.held.len() {
            if link.held[i].0 <= due {
                let (_, msg) = link.held.remove(i);
                inner.send(src, dst, msg);
            } else {
                i += 1;
            }
        }
    }

    fn release_all(link: &mut LinkState, inner: &dyn Transport, src: NodeId, dst: NodeId) {
        for (_, msg) in link.held.drain(..) {
            inner.send(src, dst, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Lan;
    use ccm_core::FileId;

    fn b(i: u32) -> BlockId {
        BlockId::new(FileId(0), i)
    }

    fn fwd(i: u32) -> PeerMsg {
        PeerMsg::Forward {
            block: b(i),
            data: vec![i as u8].into(),
            displace: None,
        }
    }

    fn drain(rx: &simcore::chan::Receiver<PeerMsg>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            if let PeerMsg::Forward { block, .. } = msg {
                out.push(block.index);
            }
        }
        out
    }

    #[test]
    fn quiet_plan_is_pass_through() {
        let (lan, inboxes) = Lan::new(2);
        let chaos = ChaosLan::new(Arc::new(lan), &FaultPlan::quiet(1));
        for i in 0..100 {
            assert!(chaos.send(NodeId(0), NodeId(1), fwd(i)));
        }
        assert_eq!(drain(&inboxes[1]).len(), 100);
        assert_eq!(chaos.chaos_stats(), ChaosStats::default());
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let (lan, inboxes) = Lan::new(2);
            let plan = FaultPlan {
                seed,
                link: LinkFaults {
                    drop_prob: 0.3,
                    ..LinkFaults::NONE
                },
                crashes: Vec::new(),
                disk: DiskFaults::NONE,
            };
            let chaos = ChaosLan::new(Arc::new(lan), &plan);
            for i in 0..200 {
                chaos.send(NodeId(0), NodeId(1), fwd(i));
            }
            (drain(&inboxes[1]), chaos.chaos_stats())
        };
        let (a1, s1) = run(7);
        let (a2, s2) = run(7);
        assert_eq!(a1, a2, "same seed must lose the same messages");
        assert_eq!(s1, s2);
        assert!(s1.dropped > 0, "30% drops over 200 sends must fire");
        assert_eq!(a1.len() as u64 + s1.dropped, 200);
        let (a3, _) = run(8);
        assert_ne!(a1, a3, "different seeds should differ");
    }

    #[test]
    fn delays_reorder_but_never_lose() {
        let (lan, inboxes) = Lan::new(2);
        let plan = FaultPlan {
            seed: 3,
            link: LinkFaults {
                delay_prob: 0.4,
                delay_sends: 2,
                ..LinkFaults::NONE
            },
            crashes: Vec::new(),
            disk: DiskFaults::NONE,
        };
        let chaos = ChaosLan::new(Arc::new(lan), &plan);
        for i in 0..100 {
            chaos.send(NodeId(0), NodeId(1), fwd(i));
        }
        chaos.flush();
        let mut got = drain(&inboxes[1]);
        assert!(chaos.chaos_stats().delayed > 0);
        assert_ne!(got, (0..100).collect::<Vec<_>>(), "no reordering happened");
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "a message was lost");
    }

    #[test]
    fn duplicates_arrive_twice() {
        let (lan, inboxes) = Lan::new(2);
        let plan = FaultPlan {
            seed: 5,
            link: LinkFaults {
                dup_prob: 0.5,
                ..LinkFaults::NONE
            },
            crashes: Vec::new(),
            disk: DiskFaults::NONE,
        };
        let chaos = ChaosLan::new(Arc::new(lan), &plan);
        for i in 0..50 {
            chaos.send(NodeId(0), NodeId(1), fwd(i));
        }
        let got = drain(&inboxes[1]);
        let dup = chaos.chaos_stats().duplicated;
        assert!(dup > 0);
        assert_eq!(got.len() as u64, 50 + dup);
    }

    #[test]
    fn reliable_messages_bypass_chaos_and_flush_the_link() {
        let (lan, inboxes) = Lan::new(2);
        let plan = FaultPlan {
            seed: 11,
            link: LinkFaults {
                delay_prob: 1.0,
                delay_sends: 1_000, // held practically forever
                ..LinkFaults::NONE
            },
            crashes: Vec::new(),
            disk: DiskFaults::NONE,
        };
        let chaos = ChaosLan::new(Arc::new(lan), &plan);
        chaos.send(NodeId(0), NodeId(1), fwd(1)); // held
        assert!(inboxes[1].is_empty(), "forward should be held");
        chaos.send(NodeId(0), NodeId(1), PeerMsg::Invalidate { block: b(1) });
        // The held forward must be released *before* the invalidate.
        match inboxes[1].recv().unwrap() {
            PeerMsg::Forward { block, .. } => assert_eq!(block, b(1)),
            _ => panic!("held forward should precede the invalidate"),
        }
        assert!(matches!(
            inboxes[1].recv().unwrap(),
            PeerMsg::Invalidate { .. }
        ));
    }

    #[test]
    fn dropped_fetch_times_out_to_none() {
        let (lan, inboxes) = Lan::new(2);
        let plan = FaultPlan {
            seed: 2,
            link: LinkFaults {
                drop_prob: 1.0,
                ..LinkFaults::NONE
            },
            crashes: Vec::new(),
            disk: DiskFaults::NONE,
        };
        let chaos = ChaosLan::new(Arc::new(lan), &plan);
        let got = chaos.fetch_block(NodeId(0), NodeId(1), b(4), Duration::from_millis(20));
        assert_eq!(
            got, None,
            "dropped request must surface as a store fallback"
        );
        assert!(inboxes[1].is_empty());
    }

    #[test]
    fn torture_plan_is_deterministic_and_has_a_crash() {
        let a = FaultPlan::torture(42, 4, 1000);
        let b = FaultPlan::torture(42, 4, 1000);
        assert_eq!(a, b);
        assert_eq!(a.crashes.len(), 1);
        let c = a.crashes[0];
        assert_ne!(c.node, NodeId(0));
        assert!(c.at_op >= 250 && c.at_op <= 500);
        assert_eq!(c.restart_at_op, Some(c.at_op + 250));
    }
}
