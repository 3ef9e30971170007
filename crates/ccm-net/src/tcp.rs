//! `TcpLan` — the socket backend of the runtime's [`Transport`] trait.
//!
//! One listener per node on loopback (the per-node address a round-robin
//! DNS would hand out), one lazily established TCP connection per ordered
//! node pair, and the [`crate::wire`] codec in between. Every request that
//! wants a reply goes out in a train issued through [`Transport::issue`]
//! (a fetch), [`Transport::barrier`] or [`Transport::ping`]; each outbound
//! connection keeps a *pending table*, keyed by request id, of the train
//! slot each outstanding reply is owed to, and whoever reads the socket
//! hands each [`WireMsg::BlockReply`] / [`WireMsg::BarrierAck`] /
//! [`WireMsg::Pong`] on as it comes back. [`Transport::send`] carries only
//! what wants no reply, and refuses a remote request that does.
//!
//! ## Data plane: group-commit frame trains + one reactor per node
//!
//! Senders never write a frame directly. Each connection carries an
//! *outbox* [`FrameTrain`]; a sender stages its frames under the outbox
//! lock and, if no flush is in progress, becomes the writer: it detaches
//! the staged train and puts it on the wire with one vectored write,
//! looping while more frames accumulate behind it. A single in-flight
//! request therefore writes immediately (no batching delay), while
//! concurrent requests coalesce into one syscall — the classic
//! group-commit shape. Block payloads ride the train as shared
//! `Arc<[u8]>` segments, so an 8 KB block goes from the peer's store to
//! the socket without a copy.
//!
//! Requests on a dialed connection and replies on an accepted one are
//! written the same way (`Io`): a writer writes only what the socket
//! takes without blocking and hands a remainder, with the writer's turn,
//! to its node's reactor, which finishes it when the socket turns
//! writable. No thread sleeps on a full socket. [`MAX_TRAIN_BYTES`] bounds
//! the staged backlog of requests: their pushers briefly yield instead of
//! growing a train past the cap while the peer is slow. Replies have no
//! cap, since a capped reply writer could wait forever on a requester that
//! never reads its late replies.
//!
//! The serving side is one *reactor thread per node*. The reactor owns the
//! node's nonblocking listener and every inbound connection. Inbound frames
//! are reassembled incrementally ([`FrameAssembler`]) and then either
//!
//! * **answered by the reactor itself** — a [`WireMsg::BlockRequest`] whose
//!   block is in the node's attached store
//!   ([`Transport::attach_stores`]) is a lock-sharded map lookup, so the
//!   reactor stages the [`WireMsg::BlockReply`] on the connection's reply
//!   outbox in the same pass, with no other thread involved; or
//! * **forwarded to the service inbox** — everything that mutates the node
//!   (`Forward`, `WriteInvalidate`), everything that must observe the
//!   inbox order (`Barrier`, `Ping`), and every `BlockRequest` the reactor
//!   cannot answer: a store *miss*, no store attached, or a dead inbox
//!   incarnation. A request that needs a reply carries a [`ReplySink`]
//!   bound to its connection and request id, through which the service
//!   thread writes the reply itself; the reactor waits for none, so many
//!   requests stream down one connection *pipelined*.
//!
//! Both write through the connection's one reply outbox. A sink dropped
//! unsent answers anyway: a fetch with an explicit miss, an ack by tearing
//! the connection down.
//!
//! The miss fall-through is what keeps ordering: a `Forward{X}` still
//! queued in the inbox followed by a `BlockRequest{X}` on the same
//! connection resolves through the inbox, behind the forward, exactly as
//! if the reactor served nothing — the short cut can only add hits.
//! Liveness is the inbox's: the reactor answers only while the inbox
//! incarnation pinned at Hello time still has a live receiver, so a
//! crashed or severed node serves nothing from its (stale) store. Replies
//! correlate by request id, so a reactor-served reply overtaking one the
//! service thread still owes is legal on the wire.
//!
//! ## Reply side: the caller reads its own replies
//!
//! The read half of an outbound connection is held by at most one caller
//! at a time, and a reply goes from the socket straight to the thread that
//! waits for it. A caller that issues a train on a connection nobody reads
//! takes the read half with it. In [`Pending::wait`] this *leader* blocks
//! in the readiness wait on that one socket until its replies are in or its
//! deadline passes, and any other waiter's reply it reads on the way it
//! hands to that waiter. A caller that finds the connection read by someone
//! else parks until its replies are handed over. A lone remote hit thus
//! wakes two threads — the holder's reactor and the requesting caller. A
//! caller that issued a train but is waiting on another connection (a
//! chunk's trains to several holders all go out before the first wait)
//! holds the read half without polling it; a caller that comes to wait
//! there takes it over rather than park behind it.
//!
//! A leader that leaves (done, timed out or dropped) while other replies
//! are still owed frees the read half and *nudges* every waiter left in the
//! pending table: a flag set under the waiter's own lock, so a nudge that
//! lands before its owner parks is not lost. A nudged waiter tries to lead
//! again, and one that has not started waiting takes the read half when it
//! does.
//!
//! **Invariant:** whenever an outbound connection's pending table is
//! non-empty, either a caller holds the read half or every parked waiter in
//! the table has been nudged. The dialing node's reactor reads replies only
//! when the peer hangs up: it keeps the connection in its readiness set for
//! `POLLRDHUP`, so a peer's close is still noticed at once, and then reads
//! what the socket still holds, hands it on, and fails the connection.
//! Otherwise it only asks for writability while a request remainder is
//! owed.
//!
//! An idle reactor **blocks in `poll(2)`** on its listener, its sockets and
//! a wake pipe (new `Watch` work, a request or reply remainder, shutdown):
//! kernel readiness wakes it the moment a peer's bytes arrive, and it costs
//! nothing while there are none. It waits with a deadline only while an
//! accepted connection has yet to say Hello.
//!
//! ## Connection lifecycle
//!
//! * **Lazy connect** — the `src → dst` connection is dialed on first
//!   send. The first frame staged is a [`WireMsg::Hello`] naming the wire
//!   version and the source node (it coalesces with the first request);
//!   the accepting reactor rejects mismatched versions.
//! * **Failure** — a write error, an EOF or a decode error, or a peer's
//!   hang-up, tears the connection down: the socket is
//!   shut down both ways, the teardown is counted, and only then is every
//!   pending reply failed (waiting requesters observe an immediate miss,
//!   not a timeout, and fall back to the backing store), and the link
//!   enters backoff.
//! * **Reconnect** — after a teardown the link refuses sends (fail-fast
//!   `false`, the disk-fallback path) until a capped exponential backoff
//!   expires, then the next send dials again.
//! * **Crash/restart** — a crashed node's service thread drops its inbox
//!   receiver; frames demuxed on a connection pinned to that dead
//!   incarnation fail delivery and close the connection, which propagates
//!   the failure to the sending side. [`Transport::reconnect`] (node
//!   restart) installs a fresh inbox and severs every connection to and
//!   from the node — as a reboot would — so stale frames can never leak
//!   into the new incarnation; peers re-dial lazily.
//!
//! ## Deadlines
//!
//! Requests carry no wire-level deadline: the timeout a caller passes to
//! [`Pending::wait`] *is* the deadline, exactly as over the channel LAN
//! (`RtConfig::fetch_timeout`). A request whose connection dies resolves
//! early (disconnect), one whose reply is merely slow resolves at the
//! deadline; both degrade to the §3 disk read. A caller leaving at its
//! deadline takes its entries out of the pending table, so a reply that
//! comes later is read and discarded.
//!
//! The whole cluster shares one `TcpLan` in one process (every listener
//! plus every outbound link). The frame protocol carries no process-local
//! state, but the runtime above it does — protocol decisions come from one
//! in-process `ClusterCache` and `TcpLan` ships bytes only — so this is
//! not a multi-process transport yet; see DESIGN.md "Deployment modes" for
//! what that would take.
//!
//! [`Transport`]: ccm_rt::Transport
//! [`Transport::attach_stores`]: ccm_rt::Transport::attach_stores
//! [`Transport::issue`]: ccm_rt::Transport::issue
//! [`Transport::barrier`]: ccm_rt::Transport::barrier
//! [`Transport::ping`]: ccm_rt::Transport::ping
//! [`Transport::send`]: ccm_rt::Transport::send
//! [`Transport::reconnect`]: ccm_rt::Transport::reconnect
//! [`Pending::wait`]: ccm_rt::Pending::wait
//! [`PeerMsg`]: ccm_rt::PeerMsg
//! [`ReplySink`]: ccm_rt::ReplySink

use crate::wire::{FrameAssembler, FrameTrain, WireMsg, WIRE_VERSION};
use ccm_core::{BlockId, NodeId};
use ccm_obs::{Counter, Gauge, Registry};
use ccm_rt::{
    AttachedStores, BlockStores, Completion, PeerMsg, Pending, ReplySink, ReplyTo, Transport,
};
use simcore::chan::{unbounded, Receiver, Sender};
use simcore::sync::{Condvar, Mutex, RwLock};
use simcore::FxHashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-attempt dial timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Backoff after the first failure on a link.
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
/// Backoff ceiling (doubles per consecutive failure up to this).
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Staged-request ceiling per dialed connection: once a train holds this
/// many bytes while a writer has the turn, further request pushers yield
/// until it drains them (bounded memory under a slow peer). Replies have
/// no ceiling (module docs).
pub const MAX_TRAIN_BYTES: usize = 256 * 1024;

/// Wire/connection counters (diagnostics; monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Outbound connections successfully established (incl. re-dials).
    pub connects: u64,
    /// Dial attempts that failed.
    pub connect_failures: u64,
    /// Established connections torn down (error, EOF, or node restart).
    pub teardowns: u64,
    /// Frames written (requests, forwards, invalidates, barriers, pings,
    /// hellos, and replies).
    pub frames_sent: u64,
    /// Frames delivered to service inboxes or pending tables.
    pub frames_received: u64,
    /// Frame trains flushed — each is one vectored-write batch, so
    /// `frames_sent / trains_sent` is the realized coalescing factor.
    pub trains_sent: u64,
}

/// Per-directed-pair wire metric handles. Traffic metrics count at the
/// end that observes them — `frames_out`/`bytes_out` at the writing node,
/// `frames_in`/`bytes_in` at the reading node — so for a healthy link the
/// `{src,dst}` series converge from both sides. The connection-shaped
/// metrics (dials, teardowns, pending depth, backoff, degrades) live on
/// the pair as dialed, `src → dst`.
struct LinkObs {
    frames_out: Counter,
    bytes_out: Counter,
    /// Trains written (one vectored-write batch each); `frames_out /
    /// trains_out` is the link's realized coalescing factor.
    trains_out: Counter,
    frames_in: Counter,
    bytes_in: Counter,
    dials: Counter,
    dial_failures: Counter,
    teardowns: Counter,
    /// Sends refused or failed on this link; each one degrades the caller
    /// to the §3 backing-store read.
    degrades: Counter,
    pending_replies: Gauge,
    backoff_ms: Gauge,
}

/// Per-node reactor metric handles.
struct ReactorObs {
    /// Block requests answered from the attached store by the reactor
    /// itself (the rest went through the service inbox).
    served: Counter,
    /// Returns from the readiness wait — what an idle reactor must not do.
    wakeups: Counter,
}

/// All per-pair and per-node handles, registered once at construction so
/// the data path never touches the registry.
struct NetObs {
    /// Row-major `from * nodes + to`; `None` on the diagonal (self-sends
    /// short-circuit the wire entirely).
    links: Vec<Option<LinkObs>>,
    /// Index = node.
    reactors: Vec<ReactorObs>,
    nodes: usize,
}

impl NetObs {
    fn new(registry: &Registry, nodes: usize) -> NetObs {
        let mut links = Vec::with_capacity(nodes * nodes);
        for from in 0..nodes {
            for to in 0..nodes {
                if from == to {
                    links.push(None);
                    continue;
                }
                let (f, t) = (from.to_string(), to.to_string());
                let l = [("src", f.as_str()), ("dst", t.as_str())];
                links.push(Some(LinkObs {
                    frames_out: registry.counter(
                        "ccm_net_frames_out_total",
                        "Wire frames written, by direction",
                        &l,
                    ),
                    bytes_out: registry.counter(
                        "ccm_net_bytes_out_total",
                        "Wire bytes written (length prefixes included), by direction",
                        &l,
                    ),
                    trains_out: registry.counter(
                        "ccm_net_trains_out_total",
                        "Frame trains written (one vectored-write batch each), by direction",
                        &l,
                    ),
                    frames_in: registry.counter(
                        "ccm_net_frames_in_total",
                        "Wire frames read, by direction",
                        &l,
                    ),
                    bytes_in: registry.counter(
                        "ccm_net_bytes_in_total",
                        "Wire bytes read (length prefixes included), by direction",
                        &l,
                    ),
                    dials: registry.counter(
                        "ccm_net_dials_total",
                        "Dial attempts on this link",
                        &l,
                    ),
                    dial_failures: registry.counter(
                        "ccm_net_dial_failures_total",
                        "Dial attempts that failed",
                        &l,
                    ),
                    teardowns: registry.counter(
                        "ccm_net_teardowns_total",
                        "Established connections torn down (error, EOF, or restart)",
                        &l,
                    ),
                    degrades: registry.counter(
                        "ccm_net_degrades_total",
                        "Sends refused or failed on this link (caller degrades to the backing store)",
                        &l,
                    ),
                    pending_replies: registry.gauge(
                        "ccm_net_pending_replies",
                        "Requests awaiting a wire reply on this link",
                        &l,
                    ),
                    backoff_ms: registry.gauge(
                        "ccm_net_backoff_ms",
                        "Reconnect backoff being served (0 while the link is healthy)",
                        &l,
                    ),
                }));
            }
        }
        let reactors = (0..nodes)
            .map(|node| {
                let node = node.to_string();
                let l = [("node", node.as_str())];
                ReactorObs {
                    served: registry.counter(
                        "ccm_net_reactor_served_total",
                        "Block requests the reactor answered from the node's store itself",
                        &l,
                    ),
                    wakeups: registry.counter(
                        "ccm_net_reactor_wakeups_total",
                        "Returns of the reactor's readiness wait (an idle reactor makes none)",
                        &l,
                    ),
                }
            })
            .collect();
        NetObs {
            links,
            reactors,
            nodes,
        }
    }

    fn pair(&self, from: NodeId, to: NodeId) -> &LinkObs {
        self.links[from.index() * self.nodes + to.index()]
            .as_ref()
            .expect("the wire never carries self-sends")
    }
}

/// Who holds the read half of an outbound connection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reader {
    /// Nobody: the next caller to wait takes it.
    Idle,
    /// A caller with replies of its own owed, named by its [`Waiter`]'s
    /// address; `polling` while it is inside its wait on this socket.
    Caller { waiter: usize, polling: bool },
}

/// The receive side of an outbound connection: the pending table of
/// outstanding requests, keyed by request id, each owed to slot `.1` of an
/// issued train's [`Waiter`], and who reads their replies. Whenever the
/// table is non-empty a caller holds the read half or every parked waiter
/// in it has been nudged (see the module docs).
struct Rx {
    pending: FxHashMap<u64, (Arc<Waiter>, usize)>,
    reader: Reader,
    /// The connection failed: nothing more may register, so no entry can
    /// be orphaned to sit out its full timeout.
    closed: bool,
}

impl Rx {
    /// Refuse future registrations and fail every owed reply (each waiter
    /// observes an immediate disconnect rather than a timeout). Returns how
    /// many were dropped so the caller can settle the pending gauge.
    fn close(&mut self) -> usize {
        self.closed = true;
        let dropped = self.pending.len();
        for (_, (waiter, _)) in self.pending.drain() {
            waiter.poke(|s| s.failed = true);
        }
        dropped
    }
}

/// Where one issued train's replies land, and where its caller parks while
/// another reader reads them. Its lock is only ever taken inside (or
/// without) the connection's `rx` lock, never around it.
struct Waiter {
    slots: Mutex<Slots>,
    ready: Condvar,
}

struct Slots {
    /// In request order.
    replies: Vec<Option<Arc<[u8]>>>,
    /// Replies not in yet.
    owed: usize,
    /// The connection failed: the rest will never come.
    failed: bool,
    /// The read half was freed since the caller last parked: it must try
    /// to lead before it parks again.
    nudged: bool,
    /// The caller is asleep on `ready`.
    parked: bool,
}

impl Waiter {
    fn new(n: usize) -> Waiter {
        Waiter {
            slots: Mutex::new(Slots {
                replies: vec![None; n],
                owed: n,
                failed: false,
                nudged: false,
                parked: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn resolve(&self, i: usize, reply: Option<Arc<[u8]>>) {
        let mut s = self.slots.lock();
        s.replies[i] = reply;
        s.owed -= 1;
        if s.owed == 0 && s.parked {
            self.ready.notify_one();
        }
    }

    /// Change the slots by `f` and wake the caller if it is parked.
    fn poke(&self, f: impl FnOnce(&mut Slots)) {
        let mut s = self.slots.lock();
        f(&mut s);
        if s.parked {
            self.ready.notify_one();
        }
    }

    /// Every reply is in, or none more can come.
    fn done(&self) -> bool {
        let s = self.slots.lock();
        s.owed == 0 || s.failed
    }

    /// Sleep until done, nudged, or `deadline`.
    fn park(&self, deadline: Instant) {
        let left = deadline.saturating_duration_since(Instant::now());
        let mut s = self.slots.lock();
        s.parked = true;
        let (mut s, _) = self
            .ready
            .wait_timeout_while(s, left, |s| s.owed > 0 && !s.failed && !s.nudged);
        s.parked = false;
        s.nudged = false;
    }
}

/// The staged frames of one connection, plus the group-commit state.
#[derive(Default)]
struct Outbox {
    train: FrameTrain,
    /// A thread is currently flushing, or the reactor holds the turn with
    /// a remainder; pushers just stage and return.
    writing: bool,
    /// The connection failed; stage nothing more.
    dead: bool,
}

/// How a flush ended for the thread that ran it.
#[derive(Debug, PartialEq, Eq)]
enum Flush {
    /// Nothing is left to this thread: what was staged is on the wire, or
    /// another writer has the turn.
    Done,
    /// The socket filled up: the remainder waits in `rest`, and the
    /// writer's turn with it, for the reactor.
    Rest,
    /// A write failed; the connection is dead.
    Failed,
}

/// A connection's nonblocking socket and its one train writer: requests on
/// a dialed connection, replies on an accepted one. Whoever flushes while
/// nobody writes becomes the writer (group commit) and writes what the
/// socket takes without blocking; a remainder goes, with the writer's
/// turn, to the reactor, which finishes it on writability.
struct Io {
    sock: TcpStream,
    outbox: Mutex<Outbox>,
    /// A train the socket took only part of — non-empty only while
    /// `outbox.writing`, as the reactor's turn to finish it on writability.
    rest: Mutex<FrameTrain>,
}

impl Io {
    fn new(sock: TcpStream) -> Io {
        Io {
            sock,
            outbox: Mutex::default(),
            rest: Mutex::default(),
        }
    }

    /// Stop the data plane on this connection: refuse further staging and
    /// shut the socket down so the reactor (and the peer) observes it.
    fn kill(&self) {
        self.outbox.lock().dead = true;
        let _ = self.sock.shutdown(Shutdown::Both);
    }

    /// Stage `frames` as one unit behind those staged already; false if the
    /// connection is dead. While a writer is busy and `cap` bytes are
    /// staged, the pusher yields until the writer drains them.
    fn stage(&self, frames: &[WireMsg], cap: usize) -> bool {
        let mut ob = self.outbox.lock();
        while !ob.dead && ob.writing && ob.train.bytes() >= cap as u64 {
            drop(ob);
            std::thread::yield_now();
            ob = self.outbox.lock();
        }
        if ob.dead {
            return false;
        }
        for frame in frames {
            ob.train.push(frame);
        }
        true
    }

    /// Put the staged frames on the wire, unless a writer is at it already:
    /// the caller becomes the writer. `obs` is the link written on.
    fn flush(&self, obs: &LinkObs) -> Flush {
        let mut ob = self.outbox.lock();
        if ob.writing || ob.dead || ob.train.is_empty() {
            return Flush::Done;
        }
        ob.writing = true;
        drop(ob);
        self.write(obs, FrameTrain::new())
    }

    /// The reactor's turn on writability: finish the remainder, if any.
    fn resume(&self, obs: &LinkObs) -> Flush {
        let rest = std::mem::take(&mut *self.rest.lock());
        if rest.is_empty() {
            return Flush::Done;
        }
        self.write(obs, rest)
    }

    /// As the writer: write `train`, then each train staged meanwhile, as
    /// far as the socket takes them without blocking — until the outbox is
    /// empty (the turn is given back) or the socket is full (the remainder
    /// goes to `rest`). Frames count when their train is taken: a requester
    /// reads the counters only once its replies are in.
    fn write(&self, obs: &LinkObs, mut train: FrameTrain) -> Flush {
        loop {
            match train.write_some(&mut &self.sock) {
                Ok(true) => {}
                Ok(false) => {
                    *self.rest.lock() = train;
                    return Flush::Rest;
                }
                Err(_) => {
                    self.kill();
                    return Flush::Failed;
                }
            }
            let mut ob = self.outbox.lock();
            if ob.dead || ob.train.is_empty() {
                ob.writing = false;
                return Flush::Done;
            }
            train = ob.train.take();
            drop(ob);
            obs.frames_out.add(train.frames());
            obs.bytes_out.add(train.bytes());
            obs.trains_out.inc();
        }
    }

    /// The reactor's readiness entry for this socket: `events`, and
    /// writability while a remainder is owed.
    fn interest(&self, events: i16) -> PollFd {
        let rest = !self.rest.lock().is_empty();
        PollFd::new(&self.sock, events | if rest { POLLOUT } else { 0 })
    }
}

impl Drop for Io {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// An established outbound connection. The dialing side writes trains
/// through `io`, and the caller holding the read half (`rx.reader`) reads
/// replies from the same socket.
struct Conn {
    io: Io,
    rx: Mutex<Rx>,
    /// Reassembles reply frames. Locked for one read pass by the reader,
    /// or by the reactor noticing a hang-up; taken before `rx`.
    asm: Mutex<FrameAssembler>,
}

impl Conn {
    fn new(sock: TcpStream) -> Conn {
        Conn {
            io: Io::new(sock),
            rx: Mutex::new(Rx {
                pending: FxHashMap::default(),
                reader: Reader::Idle,
                closed: false,
            }),
            asm: Mutex::new(FrameAssembler::new()),
        }
    }
}

/// One directed link `src → dst`.
struct Link {
    conn: Option<Arc<Conn>>,
    backoff: Duration,
    /// Sends before this instant fail fast (the link is in backoff).
    retry_at: Option<Instant>,
}

struct NodeSlot {
    addr: SocketAddr,
    /// The current inbox incarnation. The reactor pins a clone per inbound
    /// connection at handshake time, so frames for a dead incarnation can
    /// never reach a restarted node.
    inbox: RwLock<Sender<PeerMsg>>,
}

/// Work handed to a node's reactor thread: watch an outbound connection
/// this node dialed — for a hang-up, and for room to finish a request
/// remainder. (Frames need no hand-off — the kernel wakes the reactor when
/// a peer's bytes reach one of its sockets.)
struct Watch {
    dst: NodeId,
    conn: Arc<Conn>,
}

impl Watch {
    /// Act on the readiness `revents` of the watched connection `node →
    /// dst`: on a hang-up read what is left and fail the connection, on
    /// writability finish the request remainder. False once it failed.
    fn serve(&self, shared: &TcpShared, node: NodeId, revents: i16) -> bool {
        if revents & !POLLOUT != 0 && !read_replies(shared, node, self.dst, &self.conn) {
            return false;
        }
        if revents & POLLOUT != 0
            && self.conn.io.resume(shared.obs.pair(node, self.dst)) == Flush::Failed
        {
            conn_failed(shared, node, self.dst, &self.conn);
            return false;
        }
        true
    }
}

struct TcpShared {
    slots: Vec<NodeSlot>,
    /// Row-major `src * nodes + dst`.
    links: Vec<Mutex<Link>>,
    /// Per-node reactor mailboxes (index = node) and the write ends of the
    /// pipes that wake a reactor blocked in its readiness wait to look at
    /// its mailbox or the stop flag.
    reactor_tx: Vec<Sender<Watch>>,
    wakers: Vec<UnixStream>,
    stores: AttachedStores,
    next_req: AtomicU64,
    stop: AtomicBool,
    obs: NetObs,
}

impl TcpShared {
    fn link(&self, src: NodeId, dst: NodeId) -> &Mutex<Link> {
        &self.links[src.index() * self.slots.len() + dst.index()]
    }

    fn local_deliver(&self, dst: NodeId, msg: PeerMsg) -> bool {
        self.slots[dst.index()].inbox.read().send(msg).is_ok()
    }

    /// Wake `node`'s reactor out of its readiness wait. A full pipe means
    /// wake-ups are already pending, which is all that is asked for.
    fn wake(&self, node: NodeId) {
        let _ = (&self.wakers[node.index()]).write(&[1]);
    }

    /// Tear an established connection down and arm the backoff. No-op if
    /// `conn` is not the link's current connection (a stale notice from an
    /// old connection must not kill its successor).
    fn teardown(&self, src: NodeId, dst: NodeId, conn: &Arc<Conn>) {
        let mut link = self.link(src, dst).lock();
        let is_current = link.conn.as_ref().is_some_and(|c| Arc::ptr_eq(c, conn));
        if is_current {
            if let Some(conn) = link.conn.take() {
                conn.io.kill(); // the reactor sees the shutdown and unwatches
            }
            link.retry_at = Some(Instant::now() + link.backoff);
            let o = self.obs.pair(src, dst);
            o.teardowns.inc();
            o.backoff_ms.set(link.backoff.as_millis() as i64);
            link.backoff = (link.backoff * 2).min(MAX_BACKOFF);
        }
    }
}

/// Fail a connection outright: stop its data plane, drop every pending
/// waiter (immediate disconnect, not timeout), settle the pending gauge,
/// and put the link into backoff if this is still its current connection.
fn conn_failed(shared: &TcpShared, src: NodeId, dst: NodeId, conn: &Arc<Conn>) {
    conn.io.kill();
    // Count the teardown *before* failing the waiters: a fetch that wakes
    // on the degrade path must already find its cause in the wire
    // counters.
    shared.teardown(src, dst, conn);
    let dropped = conn.rx.lock().close();
    if dropped > 0 {
        shared
            .obs
            .pair(src, dst)
            .pending_replies
            .adjust(-(dropped as i64));
    }
}

/// Stage `frames` on the connection's outbox as one unit and flush them
/// through its writer ([`Io`]); a remainder the socket does not take goes
/// to this node's reactor. A multi-frame stage is the pipelined-fetch path
/// — the whole batch lands in one train, one vectored write. Returns false
/// when the connection is (or goes) dead.
fn pump_frames(
    shared: &TcpShared,
    src: NodeId,
    dst: NodeId,
    conn: &Arc<Conn>,
    frames: &[WireMsg],
) -> bool {
    if !conn.io.stage(frames, MAX_TRAIN_BYTES) {
        return false;
    }
    match conn.io.flush(shared.obs.pair(src, dst)) {
        Flush::Done => true,
        Flush::Rest => {
            shared.wake(src); // the reactor asks for writability once woken
            true
        }
        Flush::Failed => {
            conn_failed(shared, src, dst, conn);
            false
        }
    }
}

/// The socket LAN. Construct with [`TcpLan::loopback`], hand it to
/// `Middleware::start` as `RtConfig::transport`, and the cluster's peer
/// traffic runs over real TCP connections.
pub struct TcpLan {
    shared: Arc<TcpShared>,
    reactors: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpLan {
    /// Bind `nodes` listeners on loopback ephemeral ports.
    ///
    /// # Errors
    /// Any socket error while binding or spawning reactors.
    pub fn loopback(nodes: usize) -> std::io::Result<TcpLan> {
        // A private registry: the counters still count (NetStats reads
        // them through the same handles), the series just go nowhere.
        TcpLan::loopback_obs(nodes, &Registry::default())
    }

    /// [`TcpLan::loopback`], registering per-link wire metrics
    /// (`ccm_net_*`) on `registry`. Pass the same registry through
    /// `RtConfig::obs` and every layer's series land in one snapshot.
    ///
    /// # Errors
    /// Any socket error while binding or spawning reactors.
    pub fn loopback_obs(nodes: usize, registry: &Registry) -> std::io::Result<TcpLan> {
        let mut listeners = Vec::with_capacity(nodes);
        let mut slots = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            let addr = listener.local_addr()?;
            listeners.push(listener);
            // Dummy incarnation: dead until `reconnect` installs a real
            // inbox (Middleware::start does, for every member).
            let (tx, _) = unbounded();
            slots.push(NodeSlot {
                addr,
                inbox: RwLock::new(tx),
            });
        }
        let mut reactor_tx = Vec::with_capacity(nodes);
        let mut wakers = Vec::with_capacity(nodes);
        let mut reactor_rx = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (tx, rx) = unbounded();
            let (waker, woken) = UnixStream::pair()?;
            waker.set_nonblocking(true)?;
            woken.set_nonblocking(true)?;
            reactor_tx.push(tx);
            wakers.push(waker);
            reactor_rx.push((rx, woken));
        }
        let shared = Arc::new(TcpShared {
            slots,
            links: (0..nodes * nodes)
                .map(|_| {
                    Mutex::new(Link {
                        conn: None,
                        backoff: INITIAL_BACKOFF,
                        retry_at: None,
                    })
                })
                .collect(),
            reactor_tx,
            wakers,
            stores: AttachedStores::default(),
            next_req: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            obs: NetObs::new(registry, nodes),
        });
        let reactors = listeners
            .into_iter()
            .zip(reactor_rx)
            .enumerate()
            .map(|(i, (listener, (cmds, woken)))| {
                let shared = shared.clone();
                let node = NodeId(i as u16);
                std::thread::Builder::new()
                    .name(format!("ccm-net-reactor-{i}"))
                    .spawn(move || reactor_loop(shared, node, listener, cmds, woken))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(TcpLan {
            shared,
            reactors: Mutex::new(reactors),
        })
    }

    /// The listen address of `node`.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.shared.slots[node.index()].addr
    }

    /// The per-link wire metrics summed over every link (a dial in progress
    /// counts as a connect).
    pub fn net_stats(&self) -> NetStats {
        let mut n = NetStats::default();
        for o in self.shared.obs.links.iter().flatten() {
            n.connects += o.dials.get() - o.dial_failures.get();
            n.connect_failures += o.dial_failures.get();
            n.teardowns += o.teardowns.get();
            n.frames_sent += o.frames_out.get();
            n.frames_received += o.frames_in.get();
            n.trains_sent += o.trains_out.get();
        }
        n
    }

    /// Ensure `src → dst` has a live connection, dialing if allowed.
    /// Returns `None` while the link is in backoff or the dial fails.
    fn ensure_conn(&self, link: &mut Link, src: NodeId, dst: NodeId) -> Option<Arc<Conn>> {
        if let Some(conn) = &link.conn {
            return Some(conn.clone());
        }
        if self.shared.stop.load(Ordering::Acquire) {
            return None;
        }
        if let Some(at) = link.retry_at {
            if Instant::now() < at {
                return None; // fail fast: the caller degrades to disk
            }
        }
        let addr = self.shared.slots[dst.index()].addr;
        let obs = self.shared.obs.pair(src, dst);
        obs.dials.inc();
        let fail = |link: &mut Link| {
            obs.dial_failures.inc();
            obs.backoff_ms.set(link.backoff.as_millis() as i64);
            link.retry_at = Some(Instant::now() + link.backoff);
            link.backoff = (link.backoff * 2).min(MAX_BACKOFF);
        };
        let dial = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).and_then(|sock| {
            sock.set_nodelay(true)?;
            sock.set_nonblocking(true)?;
            Ok(sock)
        });
        let sock = match dial {
            Ok(sock) => sock,
            Err(_) => {
                fail(link);
                return None;
            }
        };
        let conn = Arc::new(Conn::new(sock));
        // The Hello is staged, not written: it coalesces into the same
        // train as the first request, and `pump_frames` flushes them
        // together.
        conn.io.outbox.lock().train.push(&WireMsg::Hello {
            version: WIRE_VERSION,
            node: src,
        });
        // Our reactor watches every connection we dial.
        if self.shared.reactor_tx[src.index()]
            .send(Watch {
                dst,
                conn: conn.clone(),
            })
            .is_err()
        {
            // Reactor already gone (shutdown race): treat as a failed dial.
            fail(link);
            return None;
        }
        self.shared.wake(src);
        obs.backoff_ms.set(0);
        link.conn = Some(conn.clone());
        link.backoff = INITIAL_BACKOFF;
        link.retry_at = None;
        Some(conn)
    }

    /// Encode `msg` as a frame and stage it on the link's group-commit
    /// outbox. Returns false (after teardown) on any failure, and for a
    /// request that wants a reply, whose reply is dropped unsent: only a
    /// train its caller waits for puts one on the wire
    /// ([`Transport::issue`], [`TcpLan::barrier`], [`TcpLan::ping`]).
    fn send_wire(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        let obs = self.shared.obs.pair(src, dst);
        let frame = match msg {
            PeerMsg::Forward {
                block,
                data,
                displace,
            } => WireMsg::Forward {
                block,
                data,
                displace,
            },
            PeerMsg::WriteInvalidate { block } => WireMsg::WriteInvalidate { block },
            PeerMsg::BlockRequest { .. } | PeerMsg::Barrier { .. } | PeerMsg::Ping { .. } => {
                obs.degrades.inc();
                return false;
            }
            // Control-plane; `send` routes it locally before we get here.
            PeerMsg::Shutdown => unreachable!("Shutdown never crosses the wire"),
        };
        let conn = self.ensure_conn(&mut self.shared.link(src, dst).lock(), src, dst);
        let sent = conn.is_some_and(|conn| pump_frames(&self.shared, src, dst, &conn, &[frame]));
        if !sent {
            obs.degrades.inc();
        }
        sent
    }

    /// Register one [`Waiter`] slot per frame on `conn` (the link
    /// `src → dst`), then put the frames on the wire as one train;
    /// `frame(i, req_id)` builds the `i`th. The caller takes the read half
    /// if nobody holds it. `None` if the connection failed before the train
    /// went out: its in-flight frames died with it.
    fn train(
        &self,
        src: NodeId,
        dst: NodeId,
        conn: Arc<Conn>,
        n: usize,
        frame: impl Fn(usize, u64) -> WireMsg,
    ) -> Option<TcpWait> {
        let waiter = Arc::new(Waiter::new(n));
        let first = self.shared.next_req.fetch_add(n as u64, Ordering::Relaxed);
        {
            let mut rx = conn.rx.lock();
            if rx.closed {
                return None;
            }
            for i in 0..n {
                rx.pending.insert(first + i as u64, (waiter.clone(), i));
            }
            if rx.reader == Reader::Idle {
                rx.reader = Reader::Caller {
                    waiter: Arc::as_ptr(&waiter) as usize,
                    polling: false,
                };
            }
        }
        self.shared
            .obs
            .pair(src, dst)
            .pending_replies
            .adjust(n as i64);
        let frames: Vec<WireMsg> = (0..n).map(|i| frame(i, first + i as u64)).collect();
        let wait = TcpWait {
            shared: self.shared.clone(),
            conn,
            src,
            dst,
            waiter,
            first,
        };
        // On failure the dropped wait leaves the (closed) table.
        pump_frames(&self.shared, src, dst, &wait.conn, &frames).then_some(wait)
    }

    /// [`TcpLan::train`] on the link `src → dst`, dialing it if need be. A
    /// link in backoff or a connection that fails counts a degrade.
    fn dial_train(
        &self,
        src: NodeId,
        dst: NodeId,
        n: usize,
        frame: impl Fn(usize, u64) -> WireMsg,
    ) -> Option<Pending> {
        // The link lock is held for the dial only.
        let conn = self.ensure_conn(&mut self.shared.link(src, dst).lock(), src, dst);
        let wait = conn.and_then(|conn| self.train(src, dst, conn, n, frame));
        if wait.is_none() {
            self.shared.obs.pair(src, dst).degrades.inc();
        }
        Some(Pending::wire(Box::new(wait?)))
    }
}

impl Transport for TcpLan {
    fn nodes(&self) -> usize {
        self.shared.slots.len()
    }

    fn send(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        // Shutdown is control-plane (it stops the local service thread);
        // self-sends short-circuit the wire the way a kernel loops back a
        // socket to itself.
        if src == dst || matches!(msg, PeerMsg::Shutdown) {
            return self.shared.local_deliver(dst, msg);
        }
        self.send_wire(src, dst, msg)
    }

    /// Pipelined fetch: the requests go out as one frame train (one
    /// vectored write when the link is quiet), the peer answers them back to
    /// back (its reactor from its store, its service thread the rest) and
    /// batches the replies into reply trains, and the waiting caller reads
    /// them off the socket itself when nobody else is (module docs).
    fn issue(&self, src: NodeId, holder: NodeId, blocks: &[BlockId]) -> Pending {
        if src == holder || blocks.is_empty() {
            // Local fetches never touch the wire.
            return Pending::via_send(self, src, holder, blocks);
        }
        self.dial_train(src, holder, blocks.len(), |i, req_id| {
            WireMsg::BlockRequest {
                req_id,
                block: blocks[i],
            }
        })
        .unwrap_or_else(|| Pending::ready(vec![None; blocks.len()]))
    }

    fn reconnect(&self, node: NodeId) -> Receiver<PeerMsg> {
        // A reboot severs the node's TCP connections in both directions.
        // Killing each Conn shuts its socket down, so both reactors
        // observe the failure and unwatch; links are re-armed for an
        // immediate dial (the listener is already back up).
        let n = self.shared.slots.len();
        for other in 0..n {
            for (src, dst) in [(node.index(), other), (other, node.index())] {
                if src == dst {
                    continue;
                }
                let mut link = self.shared.links[src * n + dst].lock();
                let pair = self.shared.obs.pair(NodeId(src as u16), NodeId(dst as u16));
                if let Some(conn) = link.conn.take() {
                    conn.io.kill();
                    pair.teardowns.inc();
                }
                link.backoff = INITIAL_BACKOFF;
                link.retry_at = None;
                pair.backoff_ms.set(0);
            }
        }
        let (tx, rx) = unbounded();
        *self.shared.slots[node.index()].inbox.write() = tx;
        rx
    }

    fn attach_stores(&self, stores: BlockStores) {
        self.shared.stores.attach(stores);
    }

    fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // One wire barrier per live inbound connection: each ack proves that
        // connection's earlier frames were demuxed and processed. The local
        // barrier covers locally delivered messages and makes the whole
        // call fail when the node is down.
        let mut acks = Vec::new();
        for src in 0..self.shared.slots.len() {
            let src = NodeId(src as u16);
            if src == node {
                continue;
            }
            let conn = match &self.shared.link(src, node).lock().conn {
                Some(conn) => conn.clone(),
                None => continue, // never connected or torn down
            };
            // A link that dies before its barrier goes out lost its earlier
            // frames with it: there is nothing left to wait for.
            if let Some(wait) =
                self.train(src, node, conn, 1, |_, req_id| WireMsg::Barrier { req_id })
            {
                acks.push(Pending::wire(Box::new(wait)));
            }
        }
        let (reply, rx) = ReplyTo::channel();
        if !self.shared.local_deliver(node, PeerMsg::Barrier { reply }) {
            return false;
        }
        acks.push(Pending::ack(rx));
        acks.into_iter()
            .all(|ack| ack.acked(deadline.saturating_duration_since(Instant::now())))
    }

    /// A remote ping is a one-frame train, waited for like a fetch: the
    /// caller reads its own pong. (The runtime's heartbeat pings a node's
    /// own service thread, which never touches the wire.)
    fn ping(&self, src: NodeId, dst: NodeId, timeout: Duration) -> bool {
        if src == dst {
            let (reply, rx) = ReplyTo::channel();
            return self.shared.local_deliver(dst, PeerMsg::Ping { reply })
                && Pending::ack(rx).acked(timeout);
        }
        self.dial_train(src, dst, 1, |_, req_id| WireMsg::Ping { req_id })
            .is_some_and(|pong| pong.acked(timeout))
    }
}

impl Drop for TcpLan {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Killing every outbound connection wakes the leading callers
        // polling it; failing its table releases the callers parked behind
        // them.
        for link in &self.shared.links {
            if let Some(conn) = link.lock().conn.take() {
                conn.io.kill();
                conn.rx.lock().close();
            }
        }
        // A reactor with nothing to do sleeps in the kernel with no
        // timeout: wake each one so it sees `stop` now.
        for i in 0..self.shared.slots.len() {
            self.shared.wake(NodeId(i as u16));
        }
        for r in self.reactors.lock().drain(..) {
            let _ = r.join();
        }
    }
}

/// How long an accepted connection may sit silent before its Hello.
const HELLO_DEADLINE: Duration = Duration::from_secs(5);
/// Reads per connection per reactor pass (fairness bound).
const READS_PER_PASS: usize = 8;
/// Bytes per read call into a connection's assembler.
const READ_CHUNK: usize = 64 * 1024;

/// The reply side of an inbound connection to `node`: its socket and reply
/// outbox, shared by the reactor reading the connection and every [`Answer`]
/// the node's service thread holds for it.
struct Replies {
    shared: Arc<TcpShared>,
    node: NodeId,
    io: Io,
}

impl Replies {
    /// Stage `frame` behind the replies already staged (uncapped, see the
    /// module docs) and flush them on the link `node → src`.
    fn send(&self, src: NodeId, frame: WireMsg) {
        self.io.stage(&[frame], usize::MAX);
        if self.io.flush(self.shared.obs.pair(self.node, src)) == Flush::Rest {
            self.shared.wake(self.node); // the reactor asks for writability
        }
    }
}

/// How an [`Answer`] frames its reply to request `.0` (`None`: dropped
/// unsent); no frame at all tears the connection down.
type Framing<T> = fn(u64, Option<T>) -> Option<WireMsg>;

/// The answer the node's service thread owes one request of an inbound
/// connection; the first one sent wins. Dropped unsent it answers anyway —
/// a fetch with the explicit miss, an ack (the wire has no "no") by tearing
/// the connection down — so no requester waits out its deadline for it.
struct Answer<T> {
    replies: Arc<Replies>,
    src: NodeId,
    req_id: u64,
    framing: Framing<T>,
    sent: AtomicBool,
}

impl<T> Answer<T> {
    fn answer(&self, reply: Option<T>) {
        // A once-flag; the reply itself goes out under the outbox lock.
        if self.sent.swap(true, Ordering::Relaxed) {
            return;
        }
        match (self.framing)(self.req_id, reply) {
            Some(frame) => self.replies.send(self.src, frame),
            None => self.replies.io.kill(),
        }
    }
}

impl<T> ReplySink<T> for Answer<T> {
    fn send(&self, reply: T) {
        self.answer(Some(reply));
    }
}

impl<T> Drop for Answer<T> {
    fn drop(&mut self) {
        self.answer(None);
    }
}

/// One accepted (inbound) connection being served by a reactor.
struct InConn {
    /// The socket, read here, and the reply outbox.
    replies: Arc<Replies>,
    asm: FrameAssembler,
    /// Peer node, known after a valid Hello.
    src: Option<NodeId>,
    /// Inbox incarnation pinned at Hello time.
    inbox: Option<Sender<PeerMsg>>,
    deadline: Instant,
}

impl InConn {
    fn new(shared: &Arc<TcpShared>, node: NodeId, sock: TcpStream) -> InConn {
        InConn {
            replies: Arc::new(Replies {
                shared: shared.clone(),
                node,
                io: Io::new(sock),
            }),
            asm: FrameAssembler::new(),
            src: None,
            inbox: None,
            deadline: Instant::now() + HELLO_DEADLINE,
        }
    }

    /// The reply to request `req_id` from `src`, framed by `framing`.
    fn reply<T: 'static>(&self, src: NodeId, req_id: u64, framing: Framing<T>) -> ReplyTo<T> {
        ReplyTo::Wire(Arc::new(Answer {
            replies: self.replies.clone(),
            src,
            req_id,
            framing,
            sent: AtomicBool::new(false),
        }))
    }

    /// One nonblocking pass: read and resume a reply remainder (if the
    /// socket reported `ready`), demux, write the replies staged. Returns
    /// false when the connection must be dropped.
    fn poll(&mut self, ready: bool) -> bool {
        let (shared, node) = (&*self.replies.shared, self.replies.node);
        if ready && !read_pass(&mut self.asm, &self.replies.io.sock) {
            return false; // EOF (the peer is gone) or a socket error
        }
        // Demux complete frames.
        loop {
            let (frame, nbytes) = match self.asm.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => return false, // corrupt stream
            };
            let Some(src) = self.src else {
                // First frame must be a valid Hello from a real peer.
                match frame {
                    WireMsg::Hello { version, node: src }
                        if version == WIRE_VERSION
                            && src.index() < shared.slots.len()
                            && src != node =>
                    {
                        let in_obs = shared.obs.pair(src, node);
                        in_obs.frames_in.inc();
                        in_obs.bytes_in.add(nbytes);
                        self.src = Some(src);
                        // Pin the inbox incarnation: frames from a
                        // connection established before a crash must die
                        // with the old incarnation.
                        self.inbox = Some(shared.slots[node.index()].inbox.read().clone());
                        continue;
                    }
                    _ => return false, // wrong protocol/version/self-dial
                }
            };
            let in_obs = shared.obs.pair(src, node);
            in_obs.frames_in.inc();
            in_obs.bytes_in.add(nbytes);
            let inbox = self.inbox.as_ref().expect("inbox pinned with src");
            let msg = match frame {
                WireMsg::BlockRequest { req_id, block } => {
                    // Answered where the request already is. A miss is
                    // never answered here: it must queue behind any
                    // Forward of the block still in the inbox.
                    if let Some(data) = shared.stores.hit(node, inbox, block) {
                        let data = Some(data);
                        // Staged only: the pass's hits go out as one train.
                        let frame = WireMsg::BlockReply { req_id, data };
                        self.replies.io.stage(&[frame], usize::MAX);
                        shared.obs.reactors[node.index()].served.inc();
                        continue;
                    }
                    let reply = self.reply(src, req_id, |req_id, data| {
                        let data = data.flatten(); // dropped unsent: a miss
                        Some(WireMsg::BlockReply { req_id, data })
                    });
                    PeerMsg::BlockRequest { block, reply }
                }
                WireMsg::Forward {
                    block,
                    data,
                    displace,
                } => PeerMsg::Forward {
                    block,
                    data,
                    displace,
                },
                WireMsg::WriteInvalidate { block } => PeerMsg::WriteInvalidate { block },
                WireMsg::Barrier { req_id } => PeerMsg::Barrier {
                    reply: self.reply(src, req_id, |req_id, ack| {
                        ack.map(|()| WireMsg::BarrierAck { req_id })
                    }),
                },
                WireMsg::Ping { req_id } => PeerMsg::Ping {
                    reply: self.reply(src, req_id, |req_id, ack| {
                        ack.map(|()| WireMsg::Pong { req_id })
                    }),
                },
                // Requests travel src → dst only; a reply or second Hello
                // on an inbound connection is protocol corruption.
                WireMsg::Hello { .. }
                | WireMsg::BlockReply { .. }
                | WireMsg::BarrierAck { .. }
                | WireMsg::Pong { .. } => return false,
            };
            if let Err(refused) = inbox.send(msg) {
                // A dead incarnation: go down before the refused request's
                // reply answers, so the requester sees a teardown, not a miss.
                self.replies.io.kill();
                drop(refused);
                return false;
            }
        }
        if self.src.is_none() && Instant::now() >= self.deadline {
            return false; // silent connection never said Hello
        }
        if let Some(src) = self.src {
            // A remainder left here needs no wake-up: the reactor's next
            // wait asks for writability.
            let obs = shared.obs.pair(node, src);
            if ready {
                self.replies.io.resume(obs);
            }
            self.replies.io.flush(obs);
        }
        true
    }
}

impl Drop for InConn {
    fn drop(&mut self) {
        self.replies.io.kill();
    }
}

/// Read what `sock` has into `asm`, bounded for fairness, straight into the
/// assembler (one copy from the kernel). False at EOF or on a socket error.
fn read_pass(asm: &mut FrameAssembler, mut sock: &TcpStream) -> bool {
    for _ in 0..READS_PER_PASS {
        match asm.read_from(&mut sock, READ_CHUNK) {
            Ok(0) => return false,
            Ok(n) if n < READ_CHUNK => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// One read pass over an outbound connection `node → dst`: read what the
/// socket has, bounded for fairness, and hand each reply to whoever it is
/// owed to. Run by the caller holding the read half, and by the reactor
/// when the peer hangs up. Returns false when the connection failed (already
/// cleaned up).
fn read_replies(shared: &TcpShared, node: NodeId, dst: NodeId, conn: &Arc<Conn>) -> bool {
    let mut asm = conn.asm.lock();
    let mut ok = read_pass(&mut asm, &conn.io.sock);
    // Replies travel `dst → node`; the pending gauge lives on the link as
    // dialed, `node → dst`. Frames read before an EOF are still delivered.
    let in_obs = shared.obs.pair(dst, node);
    let link_obs = shared.obs.pair(node, dst);
    let mut rx = conn.rx.lock();
    loop {
        let (req_id, reply, n) = match asm.next_frame() {
            Ok(Some((WireMsg::BlockReply { req_id, data }, n))) => (req_id, data, n),
            // An ack fills its slot with an empty block.
            Ok(Some((WireMsg::BarrierAck { req_id } | WireMsg::Pong { req_id }, n))) => {
                (req_id, Some(Arc::from(&[][..])), n)
            }
            Ok(None) => break,
            // Only replies travel dst → node; anything else is protocol
            // corruption.
            Ok(Some(_)) | Err(_) => {
                ok = false;
                break;
            }
        };
        in_obs.frames_in.inc();
        in_obs.bytes_in.add(n);
        // No entry: its waiter left (timed out or dropped) — discard.
        if let Some((waiter, i)) = rx.pending.remove(&req_id) {
            link_obs.pending_replies.adjust(-1);
            waiter.resolve(i, reply);
        }
    }
    drop(rx);
    drop(asm);
    if !ok {
        conn_failed(shared, node, dst, conn);
    }
    ok
}

/// One train issued on the outbound connection `src → dst`, until it is
/// waited for or dropped.
struct TcpWait {
    shared: Arc<TcpShared>,
    conn: Arc<Conn>,
    src: NodeId,
    dst: NodeId,
    waiter: Arc<Waiter>,
    /// The train's request ids are `first..first + n`, slot by slot.
    first: u64,
}

impl TcpWait {
    /// How [`Reader::Caller`] names this caller.
    fn id(&self) -> usize {
        Arc::as_ptr(&self.waiter) as usize
    }

    /// Take the read half if it is free — idle, or held by a caller that is
    /// not polling it (one that issued a train and is waiting elsewhere).
    /// True if this caller now reads the socket.
    fn lead(&self) -> bool {
        let mut rx = self.conn.rx.lock();
        let free = !rx.closed
            && match rx.reader {
                Reader::Idle => true,
                Reader::Caller { waiter, polling } => waiter == self.id() || !polling,
            };
        if free {
            rx.reader = Reader::Caller {
                waiter: self.id(),
                polling: true,
            };
        }
        free
    }

    /// Wait until every reply is in, the connection fails, or `timeout`
    /// passes: as the reader, blocked on this one socket, handing others'
    /// replies on as they come; else asleep until the reader hands over
    /// ours or leaves.
    fn complete(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while !self.waiter.done() {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            if self.lead() {
                let mut fd = [PollFd::new(&self.conn.io.sock, POLLIN)];
                if wait_ready(&mut fd, Some(deadline - now)) > 0 {
                    read_replies(&self.shared, self.src, self.dst, &self.conn);
                }
            } else {
                self.waiter.park(deadline);
            }
        }
    }
}

impl Completion for TcpWait {
    fn wait(self: Box<Self>, timeout: Duration) -> Vec<Option<Arc<[u8]>>> {
        self.complete(timeout);
        let waiter = self.waiter.clone();
        drop(self); // leave first: nothing can resolve a slot after that
        let replies = std::mem::take(&mut waiter.slots.lock().replies);
        replies
    }
}

impl Drop for TcpWait {
    /// Leave the connection: give up the replies still owed (one that comes
    /// later is discarded), and free the read half if this caller holds it,
    /// nudging every waiter still owed a reply to take it up.
    fn drop(&mut self) {
        let (n, settled) = {
            let s = self.waiter.slots.lock();
            (s.replies.len() as u64, s.owed == 0 || s.failed)
        };
        let mut given_up = 0;
        {
            let mut rx = self.conn.rx.lock();
            if !settled {
                for req_id in self.first..self.first + n {
                    given_up += i64::from(rx.pending.remove(&req_id).is_some());
                }
            }
            if matches!(rx.reader, Reader::Caller { waiter, .. } if waiter == self.id()) {
                rx.reader = Reader::Idle;
                for (waiter, _) in rx.pending.values() {
                    waiter.poke(|s| s.nudged = true);
                }
            }
        }
        if given_up > 0 {
            let o = self.shared.obs.pair(self.src, self.dst);
            o.pending_replies.adjust(-given_up);
        }
    }
}

/// One `struct pollfd` of POSIX `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
/// The peer shut its write half (Linux); elsewhere only `POLLHUP`, which
/// is always reported, tells of a closed peer.
#[cfg(any(target_os = "linux", target_os = "android"))]
const POLLRDHUP: i16 = 0x2000;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const POLLRDHUP: i16 = 0;

impl PollFd {
    fn new(fd: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Readable, writable, hung up or in error: worth a nonblocking pass.
    fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Block until one of `fds` is ready or `timeout` passes (`None`: no
/// timeout), filling in each `revents`; returns how many are ready. The
/// only blocking call of the reactor and of a caller reading its replies,
/// and the workspace's only `unsafe`: std has no readiness wait and the
/// build has no registry, but std already links the platform's libc.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: std::ffi::c_int) -> std::ffi::c_int;
    }
    // Round up: waking a millisecond early would spin until the deadline.
    let ms = timeout.map_or(-1, |t| {
        t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as std::ffi::c_int
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` structs
    // with the field order and types of `struct pollfd`, `nfds` is exactly
    // its length, and `poll` reads `fd`/`events` and writes `revents` of
    // those entries only, for the duration of the call. A descriptor that
    // is closed or invalid is reported in `revents` (`POLLNVAL`), not UB.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, ms) };
    usize::try_from(n).unwrap_or_else(|_| {
        // EINTR (or a transient ENOMEM): `revents` is unspecified, so have
        // the caller try everything once — its reads are nonblocking.
        for f in fds.iter_mut() {
            f.revents = f.events;
        }
        fds.len()
    })
}

/// The per-node event loop: accepts inbound connections, answers their
/// block requests from the node's store or demuxes their frames to the
/// service inbox, writes the replies it answers, finishes the remainders
/// other writers leave on full sockets, and watches the connections this
/// node dialed for a hang-up. Every socket is nonblocking; the one place
/// the loop blocks is
/// [`wait_ready`], where a reactor with nothing to do sleeps in the kernel
/// until a socket, the listener or the wake pipe has something for it.
fn reactor_loop(
    shared: Arc<TcpShared>,
    node: NodeId,
    listener: TcpListener,
    cmds: Receiver<Watch>,
    mut woken: UnixStream,
) {
    let mut inbound: Vec<InConn> = Vec::new();
    let mut outbound: Vec<Watch> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let obs = &shared.obs.reactors[node.index()];
    // Checked before every wait: the wake-up that announces `stop` may have
    // been drained by the pass that ran while it was set.
    while !shared.stop.load(Ordering::Acquire) {
        // Interest set, in this order: listener, wake pipe, inbound
        // connections, watched outbound connections (a hang-up only) — each
        // connection with room for a remainder while one is owed.
        fds.clear();
        fds.push(PollFd::new(&listener, POLLIN));
        fds.push(PollFd::new(&woken, POLLIN));
        fds.extend(inbound.iter().map(|c| c.replies.io.interest(POLLIN)));
        fds.extend(outbound.iter().map(|w| w.conn.io.interest(POLLRDHUP)));
        // How long to sleep: until the nearest Hello deadline while a
        // connection is still anonymous; else until woken.
        let now = Instant::now();
        let timeout = inbound
            .iter()
            .filter(|c| c.src.is_none())
            .map(|c| c.deadline.saturating_duration_since(now))
            .min();
        wait_ready(&mut fds, timeout);
        obs.wakeups.inc();
        let mut fd = fds.iter();
        let accept = fd.next().expect("listener entry").ready();
        let mailbox = fd.next().expect("wake pipe entry").ready();
        // Serve what is ready. Connections adopted below were not in this
        // wait; the next one reports them at once if they have bytes.
        inbound.retain_mut(|c| c.poll(fd.next().expect("inbound entry").ready()));
        outbound.retain(|w| w.serve(&shared, node, fd.next().expect("outbound entry").revents));
        if mailbox {
            // Drain the wake bytes before the mailbox, so a wake-up sent
            // after this point finds the pipe readable again.
            let mut sink = [0u8; 64];
            while matches!(woken.read(&mut sink), Ok(n) if n > 0) {}
            while let Ok(watch) = cmds.try_recv() {
                outbound.push(watch);
            }
        }
        if accept {
            loop {
                match listener.accept() {
                    Ok((sock, _)) => {
                        let _ = sock.set_nodelay(true);
                        let _ = sock.set_nonblocking(true);
                        inbound.push(InConn::new(&shared, node, sock));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Out of descriptors or the like: the listener
                        // stays readable, so do not spin on it.
                        std::thread::sleep(Duration::from_millis(1));
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_frame;
    use ccm_core::FileId;

    /// The one train writer on a full socket: a flush that stages more than
    /// the socket takes returns at once with the remainder, and the writer's
    /// turn with it; frames staged meanwhile wait behind it; and `resume`
    /// finishes the lot, byte for byte, once the far end reads.
    #[test]
    fn a_full_socket_leaves_the_remainder_and_the_turn_to_resume() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sock = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        sock.set_nonblocking(true).unwrap();
        let (mut far, _) = listener.accept().unwrap();
        let io = Io::new(sock);
        let obs = NetObs::new(&Registry::default(), 2);
        let obs = obs.pair(NodeId(0), NodeId(1));

        // 16 MiB of forwards, more than a loopback socket buffers unread.
        let data: Arc<[u8]> = (0..8192).map(|i| i as u8).collect();
        let mut frames: Vec<WireMsg> = (0..2048)
            .map(|i| WireMsg::Forward {
                block: BlockId::new(FileId(1), i),
                data: data.clone(),
                displace: None,
            })
            .collect();
        assert!(io.stage(&frames, usize::MAX));
        assert_eq!(io.flush(obs), Flush::Rest);
        assert!(io.outbox.lock().writing, "the remainder holds the turn");
        assert!(!io.rest.lock().is_empty());

        let late = WireMsg::Barrier { req_id: 7 };
        assert!(io.stage(std::slice::from_ref(&late), usize::MAX));
        assert_eq!(io.flush(obs), Flush::Done, "the turn is taken");
        frames.push(late);
        let mut expect = Vec::new();
        for frame in &frames {
            write_frame(&mut expect, frame).unwrap();
        }

        let len = expect.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0; len];
            far.read_exact(&mut got).unwrap();
            got
        });
        loop {
            match io.resume(obs) {
                Flush::Done => break,
                Flush::Rest => std::thread::sleep(Duration::from_millis(1)),
                Flush::Failed => panic!("the far end reads"),
            }
        }
        assert!(!io.outbox.lock().writing, "the turn is given back");
        assert!(reader.join().unwrap() == expect, "the bytes differ");
        assert_eq!(obs.frames_out.get(), frames.len() as u64);
        assert_eq!(obs.trains_out.get(), 2);
    }
}
