//! Peer messages, the transport abstraction, and the channel LAN.
//!
//! [`Transport`] is the seam between the middleware and whatever carries its
//! peer traffic. Two backends implement it: the in-process channel [`Lan`]
//! defined here (the original emulated LAN), and `ccm-net`'s `TcpLan`, which
//! moves the same [`PeerMsg`] traffic over real TCP sockets. [`Middleware`]
//! and the `ChaosLan` fault injector are written against the trait and run
//! unchanged over either backend (as does everything above the middleware,
//! the HTTP front tier included).
//!
//! In the channel backend each node owns an unbounded receiver; any thread
//! holding a [`Lan`] can address any node. A message that wants an answer
//! carries a [`ReplyTo`]: a per-request one-shot channel over the channel
//! backend; over a socket backend, which correlates replies by request id,
//! a [`ReplySink`] that writes the answer onto the request's connection.
//!
//! ## Issue now, wait later
//!
//! A peer fetch is two calls: [`Transport::issue`] puts a train of block
//! requests in flight and returns a [`Pending`] at once, and
//! [`Pending::wait`] collects the replies. A caller can therefore put every
//! holder's train on the wire before it waits for any of them, and every
//! wait — a fetch, a barrier, a ping — completes in one place.
//!
//! The sender fabric is reconnectable: when a node crashes its service
//! thread exits and drops the receiver, making every in-flight send to it
//! fail fast; [`Transport::reconnect`] installs a fresh channel so a
//! restarted node starts with an empty inbox (messages addressed to the
//! dead incarnation are gone, as they would be on a real reboot).
//!
//! ## Answering a fetch where it already is
//!
//! A `BlockRequest` is a lookup in the holder's block store — a sharded
//! map of `Arc<[u8]>` — and costs far less than waking the holder's
//! service thread to do it. [`Transport::attach_stores`] therefore hands a
//! transport the per-node stores, and a transport may answer a request
//! *hit* from the destination's store on whichever thread already has the
//! request in hand: the caller's for [`Lan`], the receiving reactor's for
//! `TcpLan`. Two rules keep that invisible to the protocol:
//!
//! * **A miss goes through the inbox, as always.** A `Forward{X}` still
//!   queued in the holder's inbox followed by a fetch of `X` from the same
//!   source must find the forwarded bytes, so a store miss is never
//!   answered directly — the request queues behind the forward and the
//!   service thread answers it. The short cut can add hits, never misses.
//! * **Liveness is the inbox's.** The short cut answers only while the
//!   destination's inbox incarnation still has a live receiver; a crashed,
//!   severed or not-yet-joined node answers nothing from its store,
//!   exactly as its dead inbox answers nothing.
//!
//! [`Middleware`]: crate::runtime::Middleware

use crate::shard::ShardedMap;
use ccm_core::{BlockId, NodeId};
use simcore::chan::{unbounded, Receiver, SendError, Sender};
use simcore::sync::RwLock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A message between cluster nodes.
///
/// `Clone` exists so a fault injector can duplicate a message in flight; the
/// runtime itself never clones messages.
#[derive(Clone)]
pub enum PeerMsg {
    /// "Send me a non-master copy of `block`" — answered with the bytes, or
    /// `None` if the block is no longer held (the in-flight race of §3; the
    /// requester falls through to the backing store).
    BlockRequest {
        /// The wanted block.
        block: BlockId,
        /// Where to deliver the reply.
        reply: ReplyTo<Option<Arc<[u8]>>>,
    },
    /// An evicted master forwarded here (second chance); carries its bytes
    /// and, when the protocol displaced a block at this node to make room,
    /// which one to drop from the local store.
    Forward {
        /// The forwarded block.
        block: BlockId,
        /// Its content. Shared so forwarding never copies the block: the
        /// same buffer is referenced by the sender's store, the message,
        /// and (after install) the destination's store.
        data: Arc<[u8]>,
        /// Block dropped here to make room, if any.
        displace: Option<BlockId>,
    },
    /// A coherence write at another node invalidated this node's copy of
    /// `block`; drop its bytes (§6 writes extension). Control-plane: the
    /// chaos wrapper never drops or delays it, matching the atomic protocol
    /// decision it trails.
    WriteInvalidate {
        /// The written block.
        block: BlockId,
    },
    /// Ack request: the service thread answers once every earlier message on
    /// this inbox has been processed. Used to quiesce the data plane.
    Barrier {
        /// Where to deliver the ack.
        reply: ReplyTo<()>,
    },
    /// Heartbeat probe: the service thread answers immediately to prove it
    /// is alive. Control-plane — the chaos wrapper never drops or delays a
    /// ping, so failure detection reflects real liveness, not injected link
    /// faults.
    Ping {
        /// Where to deliver the pong.
        reply: ReplyTo<()>,
    },
    /// Orderly shutdown of the node's service thread.
    Shutdown,
}

/// Where the answer to one [`PeerMsg`] goes, held by whoever answers it.
/// The first answer among a reply's clones wins, and a reply dropped
/// unsent — by the answering thread, or with the inbox of a node that
/// died — tells the requester at once that none is coming.
#[derive(Clone)]
pub enum ReplyTo<T> {
    /// The sending end of a one-shot channel ([`ReplyTo::channel`]), as over
    /// the channel [`Lan`]; dropped unsent, it disconnects.
    Channel(Sender<T>),
    /// A sink a wire backend hands its node's service thread, which writes
    /// the answer onto the connection the request came in on; dropped
    /// unsent, it writes the miss (for an ack, tears the connection down).
    Wire(Arc<dyn ReplySink<T>>),
}

/// An answer a wire backend writes itself: see [`ReplyTo::Wire`].
pub trait ReplySink<T>: Send + Sync {
    /// Write `reply` to the requester; only the first call takes effect.
    fn send(&self, reply: T);
}

impl<T> ReplyTo<T> {
    /// A reply on an in-process channel, and its receiving end.
    pub fn channel() -> (ReplyTo<T>, Receiver<T>) {
        let (tx, rx) = unbounded();
        (ReplyTo::Channel(tx), rx)
    }

    /// Answer the request.
    ///
    /// # Errors
    /// [`SendError`] (returning `reply`) when nobody holds the channel's
    /// receiving end any more: the requester is gone.
    pub fn send(&self, reply: T) -> Result<(), SendError<T>> {
        match self {
            ReplyTo::Channel(tx) => tx.send(reply),
            ReplyTo::Wire(sink) => {
                sink.send(reply);
                Ok(())
            }
        }
    }
}

/// The per-node data-plane block stores (index = node), as [`Middleware`]
/// builds them and as [`Transport::attach_stores`] shares them: bytes
/// striped across sharded locks (see [`crate::shard`]) so concurrent
/// operations on different blocks do not serialize. Buffers are `Arc<[u8]>`
/// end to end — decode, install, forward, and serve all share one
/// allocation.
///
/// [`Middleware`]: crate::runtime::Middleware
pub type BlockStores = Arc<[ShardedMap<Arc<[u8]>>]>;

/// Where a transport keeps the stores [`Transport::attach_stores`] gave it,
/// and the one rule by which it may answer a block request from them (see
/// the module docs): a hit only, and only for a live inbox.
#[derive(Default)]
pub struct AttachedStores(RwLock<Option<BlockStores>>);

impl AttachedStores {
    /// Install (or replace) the stores.
    pub fn attach(&self, stores: BlockStores) {
        *self.0.write() = Some(stores);
    }

    /// `node`'s bytes for `block`, if stores are attached, `node`'s store
    /// holds the block, and `inbox` — the inbox incarnation the request
    /// would otherwise be delivered to — still has a receiver. `None`
    /// means "deliver the request to the inbox".
    pub fn hit(&self, node: NodeId, inbox: &Sender<PeerMsg>, block: BlockId) -> Option<Arc<[u8]>> {
        let data = self.0.read().as_ref()?.get(node.index())?.get(block)?;
        inbox.is_connected().then_some(data)
    }
}

/// Peer fetches in flight: what [`Transport::issue`] returns, and the one
/// place a caller waits for their replies ([`Pending::wait`]).
///
/// Dropping a `Pending` without waiting abandons its replies: the backend
/// releases whatever it keeps for them, and replies that still arrive are
/// discarded.
#[must_use = "the replies are only collected by `Pending::wait`"]
pub struct Pending(Owed);

/// Where a block reply comes in on an in-process channel.
type ReplyRx = Receiver<Option<Arc<[u8]>>>;

enum Owed {
    /// Replies in request order; those still owed come on in-process reply
    /// channels, each with its index.
    InProcess {
        replies: Vec<Option<Arc<[u8]>>>,
        channels: Vec<(usize, ReplyRx)>,
    },
    /// One ack owed on an in-process channel (a barrier or a ping).
    Ack(Receiver<()>),
    /// Replies a wire backend (or the fault injector) completes its own way.
    Wire(Box<dyn Completion>),
}

/// How a wire backend completes the fetches it issued, or the `ChaosLan`
/// fault injector the train it faulted: see [`Pending::wire`].
pub trait Completion: Send {
    /// Block until every reply is in or `timeout` passes. Returns the
    /// replies in request order, `None` for each one that did not come.
    fn wait(self: Box<Self>, timeout: Duration) -> Vec<Option<Arc<[u8]>>>;
}

impl Pending {
    /// Replies already in hand (or known lost, as `None`).
    pub fn ready(replies: Vec<Option<Arc<[u8]>>>) -> Pending {
        Pending(Owed::InProcess {
            replies,
            channels: Vec::new(),
        })
    }

    /// An ack owed on `rx`: [`Pending::acked`] is true once it comes.
    pub fn ack(rx: Receiver<()>) -> Pending {
        Pending(Owed::Ack(rx))
    }

    /// Replies a wire backend (or the fault injector) owes and completes
    /// itself.
    pub fn wire(completion: Box<dyn Completion>) -> Pending {
        Pending(Owed::Wire(completion))
    }

    /// The default [`Transport::issue`]: one [`PeerMsg::BlockRequest`] per
    /// block through `transport.send`, each with its own reply channel, all
    /// sent before the first is waited for. A refused send reads as `None`.
    pub fn via_send<T: Transport + ?Sized>(
        transport: &T,
        src: NodeId,
        holder: NodeId,
        blocks: &[BlockId],
    ) -> Pending {
        let mut channels = Vec::with_capacity(blocks.len());
        for (i, &block) in blocks.iter().enumerate() {
            let (reply, rx) = ReplyTo::channel();
            if transport.send(src, holder, PeerMsg::BlockRequest { block, reply }) {
                channels.push((i, rx));
            }
        }
        Pending(Owed::InProcess {
            replies: vec![None; blocks.len()],
            channels,
        })
    }

    /// Wait at most `timeout` for every reply. Returns them in request
    /// order; `None` for a block means the holder no longer caches it, is
    /// unreachable, or did not answer in time (an ack reads as `Some` of an
    /// empty buffer).
    pub fn wait(self, timeout: Duration) -> Vec<Option<Arc<[u8]>>> {
        match self.0 {
            Owed::InProcess {
                mut replies,
                channels,
            } => {
                let deadline = Instant::now() + timeout;
                for (i, rx) in channels {
                    let left = deadline.saturating_duration_since(Instant::now());
                    replies[i] = rx.recv_timeout(left).ok().flatten();
                }
                replies
            }
            Owed::Ack(rx) => {
                let acked = rx.recv_timeout(timeout).is_ok();
                vec![acked.then(|| Arc::from(&[][..]))]
            }
            Owed::Wire(completion) => completion.wait(timeout),
        }
    }

    /// Wait at most `timeout`; true if every reply came.
    pub fn acked(self, timeout: Duration) -> bool {
        match self.0 {
            Owed::Ack(rx) => rx.recv_timeout(timeout).is_ok(),
            _ => self.wait(timeout).iter().all(Option::is_some),
        }
    }
}

/// What the middleware needs from a peer transport.
///
/// Implementations deliver [`PeerMsg`]s into per-node inboxes; the
/// middleware owns the service threads that drain them. The channel [`Lan`]
/// is the in-process backend; `ccm-net::TcpLan` is the socket backend.
///
/// Contract:
///
/// * `send` is fire-and-forget. `false` means the transport *knows* the
///   destination cannot receive (dead incarnation, link down); `true` means
///   the message was handed to the fabric — it may still be lost in flight.
/// * An answer comes back through the request's [`ReplyTo`]. A backend that
///   takes requests off a wire hands the service thread a [`ReplySink`] per
///   request, which answers even when dropped unsent.
/// * A remote [`PeerMsg::BlockRequest`], [`PeerMsg::Barrier`] or
///   [`PeerMsg::Ping`] goes out through [`Transport::issue`],
///   [`Transport::barrier`] or [`Transport::ping`]; a wire backend that
///   overrides all three may refuse one handed to `send` (`TcpLan` does).
/// * [`PeerMsg::Shutdown`] is control-plane and must be delivered locally
///   (never over a wire): it stops the destination's service thread, which
///   a real remote peer has no business doing.
/// * `reconnect` starts a fresh inbox incarnation for `node`, both at
///   startup and after a crash; messages addressed to the previous
///   incarnation must never reach the new one.
/// * `issue` returns without waiting; everything a fetch waits for is
///   waited for in [`Pending::wait`], against the deadline its caller
///   passes there. The requests carry no deadline of their own: a reply
///   that comes after its waiter left is discarded, and a `Pending`
///   dropped unwaited leaves nothing parked behind it.
pub trait Transport: Send + Sync + 'static {
    /// Number of nodes attached.
    fn nodes(&self) -> usize;

    /// Deliver `msg` from `src` into `dst`'s inbox. Returns false if the
    /// destination is known unreachable.
    fn send(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool;

    /// Install a fresh inbox for `node` (startup and node restart) and
    /// return its receive end for the node's service thread.
    fn reconnect(&self, node: NodeId) -> Receiver<PeerMsg>;

    /// Share the per-node block stores with the transport, so it may answer
    /// a [`PeerMsg::BlockRequest`] hit from the destination's store without
    /// its service thread (see the module docs for the two rules). The
    /// default ignores them: every request goes through the inbox.
    fn attach_stores(&self, _stores: BlockStores) {}

    /// Put a train of fetches in flight: request every block in `blocks`
    /// from `holder` on behalf of `src`, and return at once. The replies
    /// are collected by [`Pending::wait`], in request order against one
    /// deadline; a block that comes back `None` — the holder no longer
    /// caches it, is unreachable, or did not answer in time — falls back to
    /// the backing store (the §3 "eventual disk read" escape hatch).
    ///
    /// A caller may issue several trains before it waits for any, so trains
    /// to different holders overlap. The default is [`Pending::via_send`]:
    /// one [`PeerMsg::BlockRequest`] per block through `send`. A backend
    /// overrides it to answer where the request already is (the channel
    /// [`Lan`] serves store hits on the calling thread) or to put the train
    /// on the wire as one batch and complete it without a hand-off
    /// (`ccm-net`'s `TcpLan`).
    fn issue(&self, src: NodeId, holder: NodeId, blocks: &[BlockId]) -> Pending {
        Pending::via_send(self, src, holder, blocks)
    }

    /// Fetch one block: [`Transport::issue`] one request and wait at most
    /// `timeout` for it.
    fn fetch_block(
        &self,
        src: NodeId,
        holder: NodeId,
        block: BlockId,
        timeout: Duration,
    ) -> Option<Arc<[u8]>> {
        self.issue(src, holder, std::slice::from_ref(&block))
            .wait(timeout)
            .pop()
            .flatten()
    }

    /// Fetch a train of blocks: [`Transport::issue`] them and wait at most
    /// `timeout` for the replies, in request order.
    fn fetch_blocks(
        &self,
        src: NodeId,
        holder: NodeId,
        blocks: &[BlockId],
        timeout: Duration,
    ) -> Vec<Option<Arc<[u8]>>> {
        self.issue(src, holder, blocks).wait(timeout)
    }

    /// Quiesce `node`: ack once every message previously handed to the
    /// fabric for `node` has been processed by its service thread. False if
    /// the node is dead or the ack timed out.
    fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        let (reply, rx) = ReplyTo::channel();
        self.send(node, node, PeerMsg::Barrier { reply }) && Pending::ack(rx).acked(timeout)
    }

    /// Heartbeat `dst` on behalf of `src`: true once the destination's
    /// service thread answered the [`PeerMsg::Ping`] within `timeout`.
    /// False — a missed heartbeat — if the send was refused, the thread is
    /// gone, or the pong did not arrive in time.
    fn ping(&self, src: NodeId, dst: NodeId, timeout: Duration) -> bool {
        let (reply, rx) = ReplyTo::channel();
        self.send(src, dst, PeerMsg::Ping { reply }) && Pending::ack(rx).acked(timeout)
    }
}

/// Addressable senders to every node.
#[derive(Clone)]
pub struct Lan {
    fabric: Arc<Fabric>,
}

struct Fabric {
    peers: Vec<RwLock<Sender<PeerMsg>>>,
    stores: AttachedStores,
}

impl Lan {
    /// Build the LAN; returns the shared sender fabric plus each node's
    /// receive end.
    pub fn new(nodes: usize) -> (Lan, Vec<Receiver<PeerMsg>>) {
        let mut peers = Vec::with_capacity(nodes);
        let mut inboxes = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (tx, rx) = unbounded();
            peers.push(RwLock::new(tx));
            inboxes.push(rx);
        }
        let fabric = Fabric {
            peers,
            stores: AttachedStores::default(),
        };
        (
            Lan {
                fabric: Arc::new(fabric),
            },
            inboxes,
        )
    }

    /// Build the LAN without handing out inboxes; service threads obtain
    /// theirs through [`Transport::reconnect`] (the path `Middleware`
    /// startup uses for every backend).
    pub fn with_nodes(nodes: usize) -> Lan {
        Lan::new(nodes).0
    }

    /// Number of nodes attached.
    pub fn nodes(&self) -> usize {
        self.fabric.peers.len()
    }

    /// Send `msg` to `node`. Returns false if the node's service thread has
    /// already exited (its inbox is disconnected).
    pub fn send(&self, node: NodeId, msg: PeerMsg) -> bool {
        self.fabric.peers[node.index()].read().send(msg).is_ok()
    }

    /// Replace `node`'s channel with a fresh one (node restart). Messages
    /// queued for the old incarnation are dropped with it; returns the new
    /// receive end for the restarted service thread.
    pub fn reconnect(&self, node: NodeId) -> Receiver<PeerMsg> {
        let (tx, rx) = unbounded();
        *self.fabric.peers[node.index()].write() = tx;
        rx
    }

    /// Request `block` from `holder` and wait up to `timeout` for the reply:
    /// [`Transport::fetch_block`] over the channel fabric (see
    /// [`Transport::issue`] for how `Lan` answers it).
    pub fn fetch_block(
        &self,
        holder: NodeId,
        block: BlockId,
        timeout: Duration,
    ) -> Option<Arc<[u8]>> {
        Transport::fetch_block(self, holder, holder, block, timeout)
    }

    /// Send a [`PeerMsg::Barrier`] to `node` and wait up to `timeout` for
    /// the ack. True once every message enqueued before the barrier has been
    /// processed; false if the node is dead or the ack timed out.
    pub fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        Transport::barrier(self, node, timeout)
    }
}

impl Transport for Lan {
    fn nodes(&self) -> usize {
        Lan::nodes(self)
    }

    // All senders share one inbox per node, so the source is irrelevant —
    // the channel fabric is a perfect crossbar.
    fn send(&self, _src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        Lan::send(self, dst, msg)
    }

    fn reconnect(&self, node: NodeId) -> Receiver<PeerMsg> {
        Lan::reconnect(self, node)
    }

    fn attach_stores(&self, stores: BlockStores) {
        self.fabric.stores.attach(stores);
    }

    /// With the stores attached, a block the live holder's store has is
    /// answered here, on the calling thread, without waking the holder's
    /// service thread; a store miss goes through its inbox (module docs)
    /// and is waited for in [`Pending::wait`].
    fn issue(&self, _src: NodeId, holder: NodeId, blocks: &[BlockId]) -> Pending {
        let inbox = &self.fabric.peers[holder.index()];
        let mut replies = Vec::with_capacity(blocks.len());
        let mut channels = Vec::new();
        for (i, &block) in blocks.iter().enumerate() {
            let hit = self.fabric.stores.hit(holder, &inbox.read(), block);
            if hit.is_none() {
                let (reply, rx) = ReplyTo::channel();
                if self.send(holder, PeerMsg::BlockRequest { block, reply }) {
                    channels.push((i, rx));
                }
            }
            replies.push(hit);
        }
        Pending(Owed::InProcess { replies, channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm_core::FileId;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn b(i: u32) -> BlockId {
        BlockId::new(FileId(0), i)
    }

    #[test]
    fn messages_arrive_in_order() {
        let (lan, inboxes) = Lan::new(2);
        assert_eq!(lan.nodes(), 2);
        assert!(lan.send(
            NodeId(1),
            PeerMsg::Forward {
                block: b(1),
                data: vec![1].into(),
                displace: None
            }
        ));
        assert!(lan.send(
            NodeId(1),
            PeerMsg::Forward {
                block: b(2),
                data: vec![2].into(),
                displace: Some(b(9))
            }
        ));
        match inboxes[1].recv().unwrap() {
            PeerMsg::Forward {
                block,
                data,
                displace,
            } => {
                assert_eq!(block, b(1));
                assert_eq!(&data[..], &[1]);
                assert_eq!(displace, None);
            }
            _ => panic!("wrong message"),
        }
        match inboxes[1].recv().unwrap() {
            PeerMsg::Forward { block, .. } => assert_eq!(block, b(2)),
            _ => panic!("wrong message"),
        }
        assert!(inboxes[0].is_empty());
    }

    #[test]
    fn fetch_block_round_trips() {
        let (lan, inboxes) = Lan::new(1);
        let server = std::thread::spawn({
            let inbox = inboxes[0].clone();
            move || match inbox.recv().unwrap() {
                PeerMsg::BlockRequest { block, reply } => {
                    assert_eq!(block, b(7));
                    reply.send(Some(vec![42].into())).unwrap();
                }
                _ => panic!("wrong message"),
            }
        });
        let got = lan.fetch_block(NodeId(0), b(7), TIMEOUT);
        assert_eq!(got.as_deref(), Some(&[42u8][..]));
        server.join().unwrap();
    }

    #[test]
    fn attached_stores_answer_hits_only_and_only_for_live_inboxes() {
        let (lan, inboxes) = Lan::new(2);
        let stores: BlockStores = (0..2).map(|_| ShardedMap::new()).collect();
        stores[1].insert(b(4), vec![9].into());
        Transport::attach_stores(&lan, stores);
        // A hit: nobody services node 1's inbox, yet the fetch returns.
        let got = lan.fetch_block(NodeId(1), b(4), TIMEOUT);
        assert_eq!(got.as_deref(), Some(&[9u8][..]));
        assert!(inboxes[1].is_empty(), "a hit never reaches the inbox");
        // A miss is the service thread's to answer (nobody does, here).
        let got = lan.fetch_block(NodeId(1), b(5), Duration::from_millis(20));
        assert_eq!(got, None);
        assert_eq!(inboxes[1].len(), 1, "the miss was queued, not answered");
        // A dead inbox: the store still holds the block; nothing is served.
        drop(inboxes);
        assert_eq!(lan.fetch_block(NodeId(1), b(4), TIMEOUT), None);
    }

    /// `issue` + `wait` answers as the one-block fetches do, in request
    /// order: a store hit on the calling thread, a miss through the inbox
    /// (answered, or `None` at the deadline), and nothing from a dead inbox.
    #[test]
    fn issue_then_wait_answers_hits_misses_and_dead_inboxes() {
        let bytes = |v: u8| Some(Arc::<[u8]>::from(&[v][..]));
        let (lan, mut inboxes) = Lan::new(3);
        let stores: BlockStores = (0..3).map(|_| ShardedMap::new()).collect();
        stores[1].insert(b(4), vec![4].into());
        stores[2].insert(b(6), vec![6].into());
        Transport::attach_stores(&lan, stores);

        let pending = lan.issue(NodeId(0), NodeId(1), &[b(4), b(5)]);
        assert_eq!(inboxes[1].len(), 1, "only the miss reached the inbox");
        let server = std::thread::spawn({
            let inbox = inboxes[1].clone();
            move || match inbox.recv().unwrap() {
                PeerMsg::BlockRequest { block, reply } => {
                    assert_eq!(block, b(5));
                    reply.send(Some(vec![5].into())).unwrap();
                }
                _ => panic!("wrong message"),
            }
        });
        assert_eq!(pending.wait(TIMEOUT), vec![bytes(4), bytes(5)]);
        server.join().unwrap();

        // Nobody answers the miss now: it reads as `None` at the deadline,
        // and the hit behind it is still served.
        let got = lan
            .issue(NodeId(0), NodeId(1), &[b(5), b(4)])
            .wait(Duration::from_millis(20));
        assert_eq!(got, vec![None, bytes(4)]);

        // A dead inbox serves nothing, and nothing is left to wait for.
        drop(inboxes.remove(2));
        let t = Instant::now();
        let got = lan.issue(NodeId(0), NodeId(2), &[b(6), b(7)]).wait(TIMEOUT);
        assert_eq!(got, vec![None, None]);
        assert!(t.elapsed() < TIMEOUT / 2, "a dead inbox was waited out");
    }

    #[test]
    fn fetch_from_dead_node_is_none() {
        let (lan, inboxes) = Lan::new(1);
        drop(inboxes); // the service thread is gone
        assert_eq!(lan.fetch_block(NodeId(0), b(1), TIMEOUT), None);
        assert!(!lan.send(NodeId(0), PeerMsg::Shutdown));
    }

    #[test]
    fn dropped_reply_sender_reads_as_none() {
        let (lan, inboxes) = Lan::new(1);
        let server = std::thread::spawn({
            let inbox = inboxes[0].clone();
            move || {
                if let PeerMsg::BlockRequest { reply, .. } = inbox.recv().unwrap() {
                    drop(reply); // simulate a crash mid-request
                }
            }
        });
        assert_eq!(lan.fetch_block(NodeId(0), b(1), TIMEOUT), None);
        server.join().unwrap();
    }

    #[test]
    fn unanswered_fetch_times_out_instead_of_hanging() {
        let (lan, inboxes) = Lan::new(1);
        // Nobody services the inbox: the request sits unanswered. The
        // bounded wait returns None (disk fallback) instead of blocking.
        let got = lan.fetch_block(NodeId(0), b(1), Duration::from_millis(20));
        assert_eq!(got, None);
        drop(inboxes);
    }

    #[test]
    fn reconnect_replaces_the_inbox() {
        let (lan, inboxes) = Lan::new(1);
        assert!(lan.send(NodeId(0), PeerMsg::WriteInvalidate { block: b(1) }));
        drop(inboxes); // crash: queued message lost with the receiver
        assert!(!lan.send(NodeId(0), PeerMsg::Shutdown));
        let rx = lan.reconnect(NodeId(0));
        assert!(rx.is_empty(), "restarted node must see an empty inbox");
        assert!(lan.send(NodeId(0), PeerMsg::WriteInvalidate { block: b(2) }));
        match rx.recv().unwrap() {
            PeerMsg::WriteInvalidate { block } => assert_eq!(block, b(2)),
            _ => panic!("wrong message"),
        }
    }

    #[test]
    fn ping_round_trips_and_detects_death() {
        let (lan, inboxes) = Lan::new(2);
        let inbox = inboxes[1].clone();
        let server = std::thread::spawn(move || match inbox.recv().unwrap() {
            PeerMsg::Ping { reply } => {
                let _ = reply.send(());
            }
            _ => panic!("wrong message"),
        });
        assert!(Transport::ping(&lan, NodeId(0), NodeId(1), TIMEOUT));
        server.join().unwrap();
        drop(inboxes); // node 1's incarnation is gone
        assert!(!Transport::ping(
            &lan,
            NodeId(0),
            NodeId(1),
            Duration::from_millis(20)
        ));
    }

    #[test]
    fn barrier_acks_after_prior_messages() {
        let (lan, inboxes) = Lan::new(1);
        let inbox = inboxes[0].clone();
        let server = std::thread::spawn(move || {
            let mut forwards = 0;
            loop {
                match inbox.recv().unwrap() {
                    PeerMsg::Forward { .. } => forwards += 1,
                    PeerMsg::Barrier { reply } => {
                        let _ = reply.send(());
                        return forwards;
                    }
                    _ => panic!("wrong message"),
                }
            }
        });
        lan.send(
            NodeId(0),
            PeerMsg::Forward {
                block: b(1),
                data: vec![].into(),
                displace: None,
            },
        );
        lan.send(
            NodeId(0),
            PeerMsg::Forward {
                block: b(2),
                data: vec![].into(),
                displace: None,
            },
        );
        assert!(lan.barrier(NodeId(0), TIMEOUT));
        assert_eq!(server.join().unwrap(), 2, "barrier overtook a message");
    }
}
