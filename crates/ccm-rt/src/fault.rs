//! Deterministic fault injection for the peer transport.
//!
//! A [`FaultPlan`] is a seeded, declarative description of everything that
//! will go wrong in a run: per-link message drop / duplication / delay
//! probabilities and a per-node crash/restart schedule. [`ChaosLan`] wraps
//! any [`Transport`] and applies the link faults; the torture harness
//! applies the crash schedule through `Middleware::crash_node` /
//! `restart_node`.
//!
//! Determinism: every random decision comes from a per-link
//! [`simcore::Rng`] substream keyed by `(src, dst)`, consumed strictly in
//! that link's send order. No wall-clock time or ambient randomness is
//! involved, so the same plan over the same operation sequence makes the
//! same messages vanish — and the same `CacheStats` come out the other end.
//!
//! Fault model boundaries:
//!
//! * Only data-plane traffic — the block requests of a train put in flight
//!   by [`ChaosLan::issue`], and [`PeerMsg::Forward`] — is chaos-eligible.
//!   Losing either is safe by design: the requester's bounded wait expires
//!   and it falls through to the backing store (the paper's §3 escape
//!   hatch), and a lost forward merely wastes the master's second chance.
//! * A train is faulted request by request, in block order, with the draws
//!   each request would take sent on its own; the survivors then go out as
//!   one train through the inner [`Transport::issue`], the one fetch path
//!   there is with faults and without. A duplicated request is asked for
//!   twice in that train.
//! * [`PeerMsg::WriteInvalidate`] is delivered reliably and *flushes the
//!   link's delayed messages first*: an invalidation overtaken by a stale
//!   forward of the same block would resurrect superseded bytes, which no
//!   fault in the paper's model (lost messages, node crashes) can cause.
//! * [`PeerMsg::Barrier`] and [`PeerMsg::Shutdown`] are control-plane and
//!   bypass chaos entirely.
//!
//! A *delayed* message is held until `delay_sends` further messages leave
//! on the same link, then delivered after them (after the whole train, for
//! a train) — reordering expressed in message counts rather than time,
//! which keeps it deterministic. A held block request goes out as a train
//! of its own that nobody waits for: its requester had given it up.

use crate::transport::{Completion, PeerMsg, Pending, Transport};
use ccm_core::{BlockId, NodeId};
use ccm_disk::DiskFaults;
use ccm_obs::{Counter, Registry};
use simcore::sync::Mutex;
use simcore::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Chaos-eligible messages sent on this link so far.
    sends: u64,
    /// Held messages: (deliver once `sends` reaches this, message).
    held: Vec<(u64, Held)>,
}

/// A message held back on a link.
enum Held {
    /// One handed to [`ChaosLan::send`].
    Msg(PeerMsg),
    /// One block request of a train.
    Fetch(BlockId),
}

/// What the fault model does to one chaos-eligible message.
enum Fate {
    Drop,
    Duplicate,
    Delay,
    Deliver,
}

/// A train sent through the fault model: the survivors' replies, put back
/// in the order of the blocks asked for.
struct Faulted {
    /// The survivors, as the inner transport issued them.
    train: Pending,
    /// The block position each request of `train` was sent for.
    positions: Vec<usize>,
    /// How many blocks were asked for.
    blocks: usize,
    /// A request is held on the link: its reply, like any that does not
    /// come, is waited for until the deadline.
    held: bool,
}

impl Completion for Faulted {
    fn wait(self: Box<Self>, timeout: Duration) -> Vec<Option<Arc<[u8]>>> {
        let deadline = Instant::now() + timeout;
        let mut replies = vec![None; self.blocks];
        for (&i, reply) in self.positions.iter().zip(self.train.wait(timeout)) {
            // A duplicated request: the first answer wins.
            replies[i] = replies[i].take().or(reply);
        }
        if self.held {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        }
        replies
    }
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

    /// Count one chaos-eligible message on `link` and draw its fate from the
    /// link's substream: drop, else duplicate, else delay.
    fn draw(&self, link: &mut LinkState) -> Fate {
        link.sends += 1;
        if link.rng.chance(self.faults.drop_prob) {
            self.dropped.inc();
            Fate::Drop
        } else if link.rng.chance(self.faults.dup_prob) {
            self.duplicated.inc();
            Fate::Duplicate
        } else if link.rng.chance(self.faults.delay_prob) {
            self.delayed.inc();
            Fate::Delay
        } else {
            Fate::Deliver
        }
    }

    /// Hold `held` on `link` until `delay_sends` further messages left it.
    fn hold(&self, link: &mut LinkState, held: Held) {
        let release_at = link.sends + self.faults.delay_sends;
        link.held.push((release_at, held));
    }

    /// Send `msg` from `src` to `dst` through the fault model. Returns false
    /// only when the destination is known dead; a dropped message still
    /// returns true — the sender cannot tell (that is the fault).
    pub fn send(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        if self.links.is_empty() {
            return self.inner.send(src, dst, msg);
        }
        let mut link = self.link(src, dst).lock();
        if !matches!(msg, PeerMsg::Forward { .. }) {
            // Reliable messages must not overtake held data-plane traffic on
            // their link (a WriteInvalidate arriving before a stale Forward of
            // the same block would later be undone by it).
            self.release_all(&mut link, src, dst);
            return self.inner.send(src, dst, msg);
        }
        let delivered = match self.draw(&mut link) {
            Fate::Drop => true, // lost in the network; the sender cannot tell
            Fate::Duplicate => {
                let ok = self.inner.send(src, dst, msg.clone());
                self.inner.send(src, dst, msg);
                ok
            }
            Fate::Delay => {
                self.hold(&mut link, Held::Msg(msg));
                true
            }
            Fate::Deliver => self.inner.send(src, dst, msg),
        };
        // Held messages whose wait expired leave *after* the current one —
        // that is the reordering.
        self.release_due(&mut link, src, dst);
        delivered
    }

    /// Put the fetches of `blocks` from `holder` in flight on behalf of
    /// `src` — see [`Transport::issue`]. Without link faults the train passes
    /// whole to the inner transport. Under a fault plan each request takes
    /// its draw in block order, and the survivors go out as one inner
    /// `issue` all the same (one pipelined train over `TcpLan`); held
    /// messages that came due leave after it. A dropped or held request
    /// reads `None` — the one dropped at once, the one held at the deadline
    /// — which callers treat as "fall through to the backing store".
    pub fn issue(&self, src: NodeId, holder: NodeId, blocks: &[BlockId]) -> Pending {
        if self.links.is_empty() {
            return self.inner.issue(src, holder, blocks);
        }
        let mut link = self.link(src, holder).lock();
        let (mut train, mut positions, mut held) = (Vec::new(), Vec::new(), false);
        for (i, &block) in blocks.iter().enumerate() {
            let copies = match self.draw(&mut link) {
                Fate::Drop => 0,
                Fate::Duplicate => 2,
                Fate::Delay => {
                    self.hold(&mut link, Held::Fetch(block));
                    held = true;
                    0
                }
                Fate::Deliver => 1,
            };
            for _ in 0..copies {
                train.push(block);
                positions.push(i);
            }
        }
        let train = self.inner.issue(src, holder, &train);
        self.release_due(&mut link, src, holder);
        Pending::wire(Box::new(Faulted {
            train,
            positions,
            blocks: blocks.len(),
            held,
        }))
    }

    /// Deliver every held message on every link, in link order. Part of
    /// quiescing the data plane between measurement points.
    pub fn flush(&self) {
        for (i, link) in self.links.iter().enumerate() {
            let src = NodeId((i / self.inner.nodes()) as u16);
            let dst = NodeId((i % self.inner.nodes()) as u16);
            self.release_all(&mut link.lock(), src, dst);
        }
    }

    /// Put one held message on the inner transport. A held fetch goes out
    /// as a train of its own whose replies are discarded.
    fn release(&self, src: NodeId, dst: NodeId, held: Held) {
        match held {
            Held::Msg(msg) => {
                self.inner.send(src, dst, msg);
            }
            Held::Fetch(block) => drop(self.inner.issue(src, dst, &[block])),
        }
    }

    /// Deliver the held messages whose wait is over, in hold order.
    fn release_due(&self, link: &mut LinkState, src: NodeId, dst: NodeId) {
        // Held lists are tiny (a few messages); a linear sweep keeps release
        // order identical to hold order.
        let mut i = 0;
        while i < link.held.len() {
            if link.held[i].0 <= link.sends {
                let (_, held) = link.held.remove(i);
                self.release(src, dst, held);
            } else {
                i += 1;
            }
        }
    }

    fn release_all(&self, link: &mut LinkState, src: NodeId, dst: NodeId) {
        for (_, held) in link.held.drain(..) {
            self.release(src, dst, held);
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
        chaos.send(
            NodeId(0),
            NodeId(1),
            PeerMsg::WriteInvalidate { block: b(1) },
        );
        // The held forward must be released *before* the invalidate.
        match inboxes[1].recv().unwrap() {
            PeerMsg::Forward { block, .. } => assert_eq!(block, b(1)),
            _ => panic!("held forward should precede the invalidate"),
        }
        assert!(matches!(
            inboxes[1].recv().unwrap(),
            PeerMsg::WriteInvalidate { .. }
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
        let got = chaos
            .issue(NodeId(0), NodeId(1), &[b(4)])
            .wait(Duration::from_millis(20));
        assert_eq!(
            got,
            vec![None],
            "dropped request must surface as a store fallback"
        );
        assert!(inboxes[1].is_empty());
    }

    /// An inner transport that answers every block it is issued with the
    /// block's index and records each `issue`.
    #[derive(Default)]
    struct Recorder {
        issued: Mutex<Vec<Vec<BlockId>>>,
    }

    impl Transport for Recorder {
        fn nodes(&self) -> usize {
            2
        }

        fn send(&self, _src: NodeId, _dst: NodeId, _msg: PeerMsg) -> bool {
            true
        }

        fn reconnect(&self, _node: NodeId) -> simcore::chan::Receiver<PeerMsg> {
            simcore::chan::unbounded().1
        }

        fn issue(&self, _src: NodeId, _holder: NodeId, blocks: &[BlockId]) -> Pending {
            self.issued.lock().push(blocks.to_vec());
            Pending::ready(
                blocks
                    .iter()
                    .map(|b| Some(vec![b.index as u8].into()))
                    .collect(),
            )
        }
    }

    /// A faulted train takes the draws its requests would take sent one by
    /// one, and still goes out as one inner `issue`: a block reads `None`
    /// exactly where a same-seed `send` of it would have been dropped or
    /// held, and every other block reads its bytes. Held requests leave
    /// later, each as a train of its own, in hold order.
    #[test]
    fn a_faulted_train_is_one_issue_with_the_per_request_draws() {
        let faults = LinkFaults {
            drop_prob: 0.2,
            dup_prob: 0.1,
            delay_prob: 0.1,
            delay_sends: 64, // nothing held comes due within the train
        };
        let blocks: Vec<BlockId> = (0..32).map(b).collect();
        let (src, dst) = (NodeId(0), NodeId(1));
        let mut fired = ChaosStats::default();
        for seed in 0..8 {
            let plan = FaultPlan {
                link: faults,
                ..FaultPlan::quiet(seed)
            };
            // The reference: each request's fate, read off the stats as a
            // same-seed wrapper sends a forward per block.
            let reference = ChaosLan::new(Arc::new(Recorder::default()), &plan);
            let (mut lost, mut held) = (Vec::new(), Vec::new());
            for i in 0..32 {
                let before = reference.chaos_stats();
                reference.send(src, dst, fwd(i));
                let after = reference.chaos_stats();
                if after.delayed > before.delayed {
                    held.push(i as usize);
                }
                if after.dropped > before.dropped || after.delayed > before.delayed {
                    lost.push(i as usize);
                }
            }

            let inner = Arc::new(Recorder::default());
            let chaos = ChaosLan::new(inner.clone(), &plan);
            let got = chaos
                .issue(src, dst, &blocks)
                .wait(Duration::from_millis(5));
            let stats = chaos.chaos_stats();
            assert_eq!(stats, reference.chaos_stats(), "seed {seed}: draws moved");
            for (i, reply) in got.iter().enumerate() {
                let want = (!lost.contains(&i)).then(|| Arc::from(&[i as u8][..]));
                assert_eq!(*reply, want, "seed {seed}: block {i}");
            }
            let issued = inner.issued.lock().clone();
            assert_eq!(issued.len(), 1, "seed {seed}: one train per issue");
            let survivors = 32 - lost.len() as u64 + stats.duplicated;
            assert_eq!(issued[0].len() as u64, survivors, "seed {seed}");

            chaos.flush();
            let released: Vec<Vec<BlockId>> = inner.issued.lock()[1..].to_vec();
            let want: Vec<Vec<BlockId>> = held.iter().map(|&i| vec![blocks[i]]).collect();
            assert_eq!(released, want, "seed {seed}: held requests");
            fired.dropped += stats.dropped;
            fired.duplicated += stats.duplicated;
            fired.delayed += stats.delayed;
        }
        assert!(fired.dropped > 0 && fired.duplicated > 0 && fired.delayed > 0);
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
