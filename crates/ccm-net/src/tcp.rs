//! `TcpLan` — the socket backend of the runtime's [`Transport`] trait.
//!
//! One listener per node on loopback (the per-node address a round-robin
//! DNS would hand out), one lazily established TCP connection per ordered
//! node pair, and the [`crate::wire`] codec in between. The in-process
//! reply channels of [`PeerMsg`] never cross the socket: the sending side
//! parks each reply sender in a per-connection *pending table* keyed by
//! request id, and the node's reactor resolves it when the matching
//! [`WireMsg::BlockReply`] / [`WireMsg::BarrierAck`] comes back.
//!
//! ## Data plane: group-commit frame trains + one reactor per node
//!
//! Senders never write a frame directly. Each connection carries an
//! *outbox* [`FrameTrain`]; a sender pushes its frame under the outbox
//! lock and, if no flush is in progress, becomes the writer: it detaches
//! the staged train and puts it on the wire with one vectored write,
//! looping while more frames accumulate behind it. A single in-flight
//! request therefore writes immediately (no batching delay), while
//! concurrent requests coalesce into one syscall — the classic
//! group-commit shape. Block payloads ride the train as shared
//! `Arc<[u8]>` segments, so an 8 KB block goes from the peer's store to
//! the socket without a copy. [`MAX_TRAIN_BYTES`] bounds the staged
//! backlog: pushers briefly yield instead of growing a train past the cap
//! while the peer is slow.
//!
//! The receive side is one *reactor thread per node*. The reactor owns
//! the node's nonblocking listener, every inbound connection, and the read
//! half of every outbound connection the node dialed. Inbound frames are
//! reassembled incrementally ([`FrameAssembler`]) and then either
//!
//! * **answered by the reactor itself** — a [`WireMsg::BlockRequest`] whose
//!   block is in the node's attached store
//!   ([`Transport::attach_stores`]) is a lock-sharded map lookup, so the
//!   reactor pushes the [`WireMsg::BlockReply`] onto the connection's reply
//!   train in the same pass, with no other thread involved; or
//! * **forwarded to the service inbox** — everything that mutates the node
//!   (`Forward`, `Invalidate`, `WriteInvalidate`), everything that must
//!   observe the inbox order (`Barrier`, `Ping`), and every `BlockRequest`
//!   the reactor cannot answer: a store *miss*, no store attached, or a
//!   dead inbox incarnation. Requests that need replies park a
//!   per-connection FIFO of reply receivers which the reactor harvests
//!   without blocking, so many requests stream down one connection
//!   *pipelined* and their replies batch into a reply train.
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
//! An idle reactor **blocks in `poll(2)`** on its listener, its sockets and
//! a wake pipe (new `Watch` work, shutdown): kernel readiness wakes it the
//! moment a peer's bytes arrive, and it costs nothing while there are none.
//! It waits with a zero timeout only while the service thread owes a reply
//! it can learn of no other way (the reply channel cannot be polled by the
//! kernel), and with a deadline while an accepted connection has yet to
//! say Hello.
//!
//! ## Connection lifecycle
//!
//! * **Lazy connect** — the `src → dst` connection is dialed on first
//!   send. The first frame staged is a [`WireMsg::Hello`] naming the wire
//!   version and the source node (it coalesces with the first request);
//!   the accepting reactor rejects mismatched versions.
//! * **Failure** — a write error, a reactor-side EOF, or a decode error
//!   tears the connection down: the socket is shut down both ways, every
//!   pending reply sender is dropped (waiting requesters observe an
//!   immediate disconnect and fall back to the backing store), and the
//!   link enters backoff.
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
//! Requests carry no wire-level deadline: the requester's bounded
//! `recv_timeout` in [`Transport::fetch_block`] *is* the deadline, exactly
//! as over the channel LAN (`RtConfig::fetch_timeout`). A request whose
//! connection dies resolves early (disconnect), one whose reply is merely
//! slow resolves at the deadline; both degrade to the §3 disk read.
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
//! [`Transport::fetch_block`]: ccm_rt::Transport::fetch_block
//! [`Transport::reconnect`]: ccm_rt::Transport::reconnect
//! [`PeerMsg`]: ccm_rt::PeerMsg

use crate::wire::{FrameAssembler, FrameTrain, WireMsg, WIRE_VERSION};
use ccm_core::{BlockId, NodeId};
use ccm_obs::{Counter, Gauge, Registry};
use ccm_rt::{AttachedStores, BlockStores, PeerMsg, Transport};
use simcore::chan::{unbounded, Receiver, Sender, TryRecvError};
use simcore::sync::{Mutex, RwLock};
use simcore::FxHashMap;
use std::collections::VecDeque;
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

/// Staged-outbox ceiling per connection: once a train holds this many
/// bytes while a flush is in progress, further pushers yield until the
/// writer drains it (bounded memory under a slow peer).
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
    /// Frames written (requests, forwards, invalidates, barriers, hellos,
    /// and the replies written by reactors).
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

/// What a reply correlates back to.
enum Pending {
    Block(Sender<Option<Arc<[u8]>>>),
    Barrier(Sender<()>),
}

/// The per-connection table of outstanding requests. Once the connection
/// fails its table is *closed*; a sender that loses the race and tries to
/// register afterwards is refused, so no entry can ever be orphaned to
/// sit out its full timeout.
#[derive(Default)]
struct PendingMap {
    closed: AtomicBool,
    map: Mutex<FxHashMap<u64, Pending>>,
}

impl PendingMap {
    /// Register an outstanding request; false if the connection already
    /// failed (the caller must treat the send as failed).
    fn insert(&self, req_id: u64, p: Pending) -> bool {
        let mut m = self.map.lock();
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        m.insert(req_id, p);
        true
    }

    fn remove(&self, req_id: u64) -> Option<Pending> {
        self.map.lock().remove(&req_id)
    }

    /// Refuse future registrations and drop every waiter (each observes an
    /// immediate disconnect rather than a timeout). Returns how many
    /// waiters were dropped so the caller can settle the pending gauge.
    fn close(&self) -> usize {
        let mut m = self.map.lock();
        self.closed.store(true, Ordering::Release);
        let dropped = m.len();
        m.clear();
        dropped
    }
}

type PendingTable = Arc<PendingMap>;

/// The staged frames of one connection, plus the group-commit state.
struct Outbox {
    train: FrameTrain,
    /// A thread is currently flushing; pushers just stage and return.
    writing: bool,
    /// The connection failed; stage nothing more.
    dead: bool,
}

/// An established outbound connection. The socket is nonblocking; the
/// dialing side writes trains through `outbox`, the dialer's reactor reads
/// replies from the same socket.
struct Conn {
    sock: TcpStream,
    pending: PendingTable,
    outbox: Mutex<Outbox>,
}

impl Conn {
    fn new(sock: TcpStream) -> Conn {
        Conn {
            sock,
            pending: Arc::new(PendingMap::default()),
            outbox: Mutex::new(Outbox {
                train: FrameTrain::new(),
                writing: false,
                dead: false,
            }),
        }
    }

    /// Stop the data plane on this connection: refuse further staging and
    /// shut the socket down so the reactor (and any peer) observes it.
    fn kill(&self) {
        self.outbox.lock().dead = true;
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
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

/// Work handed to a node's reactor thread: watch the read half of an
/// outbound connection this node dialed and demux replies into its pending
/// table. (Frames need no hand-off — the kernel wakes the reactor when a
/// peer's bytes reach one of its sockets.)
struct Watch {
    dst: NodeId,
    conn: Arc<Conn>,
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
    connects: AtomicU64,
    connect_failures: AtomicU64,
    teardowns: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    trains_sent: AtomicU64,
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
    /// `pending` is not the link's current connection (a stale notice from
    /// an old connection must not kill its successor).
    fn teardown(&self, src: NodeId, dst: NodeId, pending: &PendingTable) {
        let mut link = self.link(src, dst).lock();
        let is_current = link
            .conn
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(&c.pending, pending));
        if is_current {
            if let Some(conn) = link.conn.take() {
                conn.kill(); // the reactor sees the shutdown and unwatches
            }
            link.retry_at = Some(Instant::now() + link.backoff);
            let o = self.obs.pair(src, dst);
            o.teardowns.inc();
            o.backoff_ms.set(link.backoff.as_millis() as i64);
            link.backoff = (link.backoff * 2).min(MAX_BACKOFF);
            self.teardowns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Fail a connection outright: stop its data plane, drop every pending
/// waiter (immediate disconnect, not timeout), settle the pending gauge,
/// and put the link into backoff if this is still its current connection.
fn conn_failed(shared: &TcpShared, src: NodeId, dst: NodeId, conn: &Arc<Conn>) {
    conn.kill();
    // Count the teardown *before* failing the waiters: a fetch that wakes
    // on the degrade path must already find its cause in the wire
    // counters.
    shared.teardown(src, dst, &conn.pending);
    let dropped = conn.pending.close();
    if dropped > 0 {
        shared
            .obs
            .pair(src, dst)
            .pending_replies
            .adjust(-(dropped as i64));
    }
}

/// Flush one detached train, retrying through `WouldBlock`. A full socket
/// drains without our help: the peer's reactor has this connection in its
/// readiness set whenever it waits, wakes as soon as bytes sit in the
/// receive buffer, and never blocks on anything but that wait (it hands
/// frames to an unbounded inbox and flushes its own replies nonblocking),
/// so the loop terminates unless the connection dies. Counts wire metrics
/// only once the whole train is on the wire.
fn write_train(
    shared: &TcpShared,
    src: NodeId,
    dst: NodeId,
    conn: &Conn,
    train: &mut FrameTrain,
) -> bool {
    loop {
        match train.write_some(&mut &conn.sock) {
            Ok(true) => {
                shared
                    .frames_sent
                    .fetch_add(train.frames(), Ordering::Relaxed);
                shared.trains_sent.fetch_add(1, Ordering::Relaxed);
                let o = shared.obs.pair(src, dst);
                o.frames_out.add(train.frames());
                o.bytes_out.add(train.bytes());
                o.trains_out.inc();
                return true;
            }
            Ok(false) => {
                if conn.outbox.lock().dead {
                    return false;
                }
                std::thread::yield_now();
            }
            Err(_) => return false,
        }
    }
}

/// Stage `frame` on the connection's outbox and make sure somebody
/// flushes it — see [`pump_frames`].
fn pump(shared: &TcpShared, src: NodeId, dst: NodeId, conn: &Arc<Conn>, frame: &WireMsg) -> bool {
    pump_frames(shared, src, dst, conn, std::slice::from_ref(frame))
}

/// Stage `frames` on the connection's outbox as one unit and make sure
/// somebody flushes them: if a writer is already active they ride its next
/// batch (group commit); otherwise the caller becomes the writer and
/// flushes staged trains until the outbox runs dry. A multi-frame stage is
/// the pipelined-fetch path — the whole batch lands in one train, one
/// vectored write. Returns false when the connection is (or goes) dead.
fn pump_frames(
    shared: &TcpShared,
    src: NodeId,
    dst: NodeId,
    conn: &Arc<Conn>,
    frames: &[WireMsg],
) -> bool {
    let cap = MAX_TRAIN_BYTES as u64;
    let mut ob = conn.outbox.lock();
    if ob.dead {
        return false;
    }
    // Backpressure: while a slow flush is in progress, don't grow the
    // staged train past the cap — wait for the writer to drain it (it is
    // in `write_train`, whose progress the peer's reactor guarantees).
    while ob.writing && ob.train.bytes() >= cap {
        drop(ob);
        std::thread::yield_now();
        ob = conn.outbox.lock();
        if ob.dead {
            return false;
        }
    }
    for frame in frames {
        ob.train.push(frame);
    }
    if ob.writing {
        return true; // the active writer flushes our frame with its batch
    }
    ob.writing = true;
    loop {
        let mut train = ob.train.take();
        drop(ob);
        if !write_train(shared, src, dst, conn, &mut train) {
            conn_failed(shared, src, dst, conn);
            conn.outbox.lock().writing = false;
            return false;
        }
        ob = conn.outbox.lock();
        if ob.dead || ob.train.is_empty() {
            ob.writing = false;
            // Our frame was flushed either way; a dead connection only
            // matters to whoever staged *after* the failure.
            return true;
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
            connects: AtomicU64::new(0),
            connect_failures: AtomicU64::new(0),
            teardowns: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            trains_sent: AtomicU64::new(0),
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

    /// Connection and frame counters so far.
    pub fn net_stats(&self) -> NetStats {
        let s = &self.shared;
        NetStats {
            connects: s.connects.load(Ordering::Relaxed),
            connect_failures: s.connect_failures.load(Ordering::Relaxed),
            teardowns: s.teardowns.load(Ordering::Relaxed),
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            frames_received: s.frames_received.load(Ordering::Relaxed),
            trains_sent: s.trains_sent.load(Ordering::Relaxed),
        }
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
            self.shared.connect_failures.fetch_add(1, Ordering::Relaxed);
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
        // train as the first request, and `pump` flushes them together.
        conn.outbox.lock().train.push(&WireMsg::Hello {
            version: WIRE_VERSION,
            node: src,
        });
        // Hand the read half to our reactor for reply demux.
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
        self.shared.connects.fetch_add(1, Ordering::Relaxed);
        obs.backoff_ms.set(0);
        link.conn = Some(conn.clone());
        link.backoff = INITIAL_BACKOFF;
        link.retry_at = None;
        Some(conn)
    }

    /// Encode `msg` as a frame, register a pending-table entry for
    /// reply-bearing messages, and stage it on the link's group-commit
    /// outbox. Returns false (after teardown) on any failure.
    fn send_wire(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        let obs = self.shared.obs.pair(src, dst);
        let mut link = self.shared.link(src, dst).lock();
        let Some(conn) = self.ensure_conn(&mut link, src, dst) else {
            obs.degrades.inc();
            return false;
        };
        drop(link);
        // Register reply correlation before the frame can hit the wire; a
        // closed table means the connection died under us.
        let correlate = |pending: Pending| -> Option<u64> {
            let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
            if !conn.pending.insert(req_id, pending) {
                return None;
            }
            obs.pending_replies.adjust(1);
            Some(req_id)
        };
        let frame = match msg {
            PeerMsg::BlockRequest { block, reply } => match correlate(Pending::Block(reply)) {
                Some(req_id) => WireMsg::BlockRequest { req_id, block },
                None => {
                    obs.degrades.inc();
                    conn_failed(&self.shared, src, dst, &conn);
                    return false;
                }
            },
            PeerMsg::Forward {
                block,
                data,
                displace,
            } => WireMsg::Forward {
                block,
                data,
                displace,
            },
            PeerMsg::Invalidate { block } => WireMsg::Invalidate { block },
            PeerMsg::WriteInvalidate { block, version } => {
                WireMsg::WriteInvalidate { block, version }
            }
            PeerMsg::Barrier { reply } => match correlate(Pending::Barrier(reply)) {
                Some(req_id) => WireMsg::Barrier { req_id },
                None => {
                    obs.degrades.inc();
                    conn_failed(&self.shared, src, dst, &conn);
                    return false;
                }
            },
            // A pong correlates exactly like a barrier ack: unit reply.
            PeerMsg::Ping { reply } => match correlate(Pending::Barrier(reply)) {
                Some(req_id) => WireMsg::Ping { req_id },
                None => {
                    obs.degrades.inc();
                    conn_failed(&self.shared, src, dst, &conn);
                    return false;
                }
            },
            // Control-plane; `send` routes it locally before we get here.
            PeerMsg::Shutdown => unreachable!("Shutdown never crosses the wire"),
        };
        if pump(&self.shared, src, dst, &conn, &frame) {
            true
        } else {
            // The pending entry (if any) died with the connection's table.
            obs.degrades.inc();
            false
        }
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

    /// Pipelined fetch: every request in the batch goes into flight before
    /// the first reply is awaited. The requests stage as one frame train
    /// (one vectored write when the link is quiet), the peer's reactor
    /// answers them back to back (from its store, or through its service
    /// thread) and batches the replies into reply trains — so the per-trip
    /// wakeup chain is paid once per batch instead of once per block.
    fn fetch_blocks(
        &self,
        src: NodeId,
        holder: NodeId,
        blocks: &[BlockId],
        timeout: Duration,
    ) -> Vec<Option<Arc<[u8]>>> {
        if src == holder || blocks.len() < 2 {
            // Local fetches never touch the wire; a single fetch gains
            // nothing from the batch plumbing.
            let deadline = Instant::now() + timeout;
            return blocks
                .iter()
                .map(|&b| {
                    let left = deadline.saturating_duration_since(Instant::now());
                    self.fetch_block(src, holder, b, left)
                })
                .collect();
        }
        let obs = self.shared.obs.pair(src, holder);
        let mut link = self.shared.link(src, holder).lock();
        let Some(conn) = self.ensure_conn(&mut link, src, holder) else {
            obs.degrades.inc();
            return vec![None; blocks.len()];
        };
        drop(link);
        let mut frames = Vec::with_capacity(blocks.len());
        let mut rxs = Vec::with_capacity(blocks.len());
        let mut died = false;
        for &block in blocks {
            let (tx, rx) = unbounded();
            let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
            if !conn.pending.insert(req_id, Pending::Block(tx)) {
                died = true; // connection failed mid-registration
                break;
            }
            obs.pending_replies.adjust(1);
            frames.push(WireMsg::BlockRequest { req_id, block });
            rxs.push(rx);
        }
        if died {
            obs.degrades.inc();
            conn_failed(&self.shared, src, holder, &conn);
        } else if !pump_frames(&self.shared, src, holder, &conn, &frames) {
            // The registered entries died with the connection's pending
            // table; their receivers resolve as immediate disconnects.
            obs.degrades.inc();
        }
        let deadline = Instant::now() + timeout;
        let mut out: Vec<Option<Arc<[u8]>>> = rxs
            .into_iter()
            .map(|rx| {
                let left = deadline.saturating_duration_since(Instant::now());
                rx.recv_timeout(left).ok().flatten()
            })
            .collect();
        out.resize(blocks.len(), None);
        out
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
                    conn.kill();
                    self.shared.teardowns.fetch_add(1, Ordering::Relaxed);
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
        // One wire barrier per live inbound connection: each ack proves
        // that connection's earlier frames were demuxed and processed. The
        // local barrier covers locally delivered messages and makes the
        // whole call fail when the node is down.
        let mut acks = Vec::new();
        for src in 0..self.shared.slots.len() {
            let src = NodeId(src as u16);
            if src == node {
                continue;
            }
            let conn = {
                let link = self.shared.link(src, node).lock();
                match &link.conn {
                    Some(conn) => conn.clone(),
                    None => continue, // never connected or torn down
                }
            };
            let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = unbounded();
            if !conn.pending.insert(req_id, Pending::Barrier(tx)) {
                continue; // connection just died; its frames died with it
            }
            let obs = self.shared.obs.pair(src, node);
            obs.pending_replies.adjust(1);
            if pump(&self.shared, src, node, &conn, &WireMsg::Barrier { req_id }) {
                acks.push(rx);
            }
            // On failure the link died: its in-flight frames are lost with
            // it, so there is nothing left to wait for.
        }
        let (tx, rx) = unbounded();
        if !self
            .shared
            .local_deliver(node, PeerMsg::Barrier { reply: tx })
        {
            return false;
        }
        acks.push(rx);
        acks.into_iter().all(|rx| {
            let left = deadline.saturating_duration_since(Instant::now());
            rx.recv_timeout(left).is_ok()
        })
    }
}

impl Drop for TcpLan {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Killing every outbound connection unblocks stuck writers and
        // lets each reactor observe the teardown.
        for link in &self.shared.links {
            if let Some(conn) = link.lock().conn.take() {
                conn.kill();
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

/// A reply the reactor owes an inbound connection, in request order.
enum ReplyWait {
    Block {
        req_id: u64,
        rx: Receiver<Option<Arc<[u8]>>>,
    },
    Ack {
        req_id: u64,
        pong: bool,
        rx: Receiver<()>,
    },
}

/// One accepted (inbound) connection being served by a reactor.
struct InConn {
    sock: TcpStream,
    asm: FrameAssembler,
    /// Peer node, known after a valid Hello.
    src: Option<NodeId>,
    /// Inbox incarnation pinned at Hello time.
    inbox: Option<Sender<PeerMsg>>,
    /// Replies owed, FIFO: the service thread answers its inbox in order,
    /// so only the front can become ready next — harvesting the front
    /// preserves the exact reply order of the old one-thread-per-conn
    /// demux while letting many requests stream in pipelined.
    waits: VecDeque<ReplyWait>,
    /// Outgoing reply train (persistent; partial flushes resume).
    wtrain: FrameTrain,
    /// Portions of `wtrain`'s running totals already credited to metrics.
    counted_frames: u64,
    counted_bytes: u64,
    deadline: Instant,
}

impl InConn {
    fn new(sock: TcpStream) -> InConn {
        InConn {
            sock,
            asm: FrameAssembler::new(),
            src: None,
            inbox: None,
            waits: VecDeque::new(),
            wtrain: FrameTrain::new(),
            counted_frames: 0,
            counted_bytes: 0,
            deadline: Instant::now() + HELLO_DEADLINE,
        }
    }

    /// True while the service thread owes this connection a reply. Its
    /// completion arrives on an in-process channel the kernel cannot
    /// signal, so the reactor must keep looking.
    fn owed(&self) -> bool {
        !self.waits.is_empty()
    }

    /// One nonblocking pass: read (if the socket reported `ready`), demux,
    /// harvest replies, flush. Returns false when the connection must be
    /// dropped.
    fn poll(&mut self, shared: &TcpShared, node: NodeId, ready: bool) -> bool {
        // Read whatever the socket has, bounded for fairness, straight
        // into the assembler (one copy from the kernel).
        let reads = if ready { READS_PER_PASS } else { 0 };
        for _ in 0..reads {
            match self.asm.read_from(&mut &self.sock, READ_CHUNK) {
                Ok(0) => return false, // EOF: peer is gone
                Ok(n) if n < READ_CHUNK => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
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
                        shared.frames_received.fetch_add(1, Ordering::Relaxed);
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
            shared.frames_received.fetch_add(1, Ordering::Relaxed);
            let in_obs = shared.obs.pair(src, node);
            in_obs.frames_in.inc();
            in_obs.bytes_in.add(nbytes);
            let inbox = self.inbox.as_ref().expect("inbox pinned with src");
            let delivered = match frame {
                WireMsg::BlockRequest { req_id, block } => {
                    if let Some(data) = shared.stores.hit(node, inbox, block) {
                        // Answered where the request already is. A miss is
                        // never answered here: it must queue behind any
                        // Forward of the block still in the inbox.
                        self.wtrain.push(&WireMsg::BlockReply {
                            req_id,
                            data: Some(data),
                        });
                        shared.obs.reactors[node.index()].served.inc();
                        true
                    } else {
                        let (tx, rx) = unbounded();
                        let ok = inbox
                            .send(PeerMsg::BlockRequest { block, reply: tx })
                            .is_ok();
                        if ok {
                            self.waits.push_back(ReplyWait::Block { req_id, rx });
                        }
                        ok
                    }
                }
                WireMsg::Forward {
                    block,
                    data,
                    displace,
                } => inbox
                    .send(PeerMsg::Forward {
                        block,
                        data,
                        displace,
                    })
                    .is_ok(),
                WireMsg::Invalidate { block } => inbox.send(PeerMsg::Invalidate { block }).is_ok(),
                WireMsg::WriteInvalidate { block, version } => inbox
                    .send(PeerMsg::WriteInvalidate { block, version })
                    .is_ok(),
                WireMsg::Barrier { req_id } => {
                    let (tx, rx) = unbounded();
                    let ok = inbox.send(PeerMsg::Barrier { reply: tx }).is_ok();
                    if ok {
                        self.waits.push_back(ReplyWait::Ack {
                            req_id,
                            pong: false,
                            rx,
                        });
                    }
                    ok
                }
                WireMsg::Ping { req_id } => {
                    let (tx, rx) = unbounded();
                    let ok = inbox.send(PeerMsg::Ping { reply: tx }).is_ok();
                    if ok {
                        self.waits.push_back(ReplyWait::Ack {
                            req_id,
                            pong: true,
                            rx,
                        });
                    }
                    ok
                }
                // Requests travel src → dst only; a reply or second Hello
                // on an inbound connection is protocol corruption.
                WireMsg::Hello { .. }
                | WireMsg::BlockReply { .. }
                | WireMsg::BarrierAck { .. }
                | WireMsg::Pong { .. } => false,
            };
            if !delivered {
                return false; // dead incarnation or corruption: kill conn
            }
        }
        if self.src.is_none() && Instant::now() >= self.deadline {
            return false; // silent connection never said Hello
        }
        // Harvest ready replies, in request order, into the reply train.
        while let Some(front) = self.waits.front() {
            match front {
                ReplyWait::Block { req_id, rx } => match rx.try_recv() {
                    Ok(data) => {
                        self.wtrain.push(&WireMsg::BlockReply {
                            req_id: *req_id,
                            data,
                        });
                        self.waits.pop_front();
                    }
                    // Node crashed before answering: the requester sees an
                    // explicit miss immediately, not a timeout.
                    Err(TryRecvError::Disconnected) => {
                        self.wtrain.push(&WireMsg::BlockReply {
                            req_id: *req_id,
                            data: None,
                        });
                        self.waits.pop_front();
                    }
                    Err(TryRecvError::Empty) => break,
                },
                ReplyWait::Ack { req_id, pong, rx } => match rx.try_recv() {
                    Ok(()) => {
                        let frame = if *pong {
                            WireMsg::Pong { req_id: *req_id }
                        } else {
                            WireMsg::BarrierAck { req_id: *req_id }
                        };
                        self.wtrain.push(&frame);
                        self.waits.pop_front();
                    }
                    // Node died mid-barrier/ping: no ack, let the
                    // requester time out (matches the channel backend).
                    Err(TryRecvError::Disconnected) => return false,
                    Err(TryRecvError::Empty) => break,
                },
            }
        }
        // Flush the reply train as far as the socket allows. Frames count
        // as sent when their train is handed to the socket, not after: the
        // requester can have the reply — and read the counters — before
        // this thread runs again. A full socket keeps the rest; the reactor
        // asks for writability while the train is non-empty and resumes.
        if !self.wtrain.is_empty() {
            let frames = self.wtrain.frames() - self.counted_frames;
            if frames > 0 {
                let src = self.src.expect("replies only exist post-hello");
                let bytes = self.wtrain.bytes() - self.counted_bytes;
                self.counted_frames = self.wtrain.frames();
                self.counted_bytes = self.wtrain.bytes();
                shared.frames_sent.fetch_add(frames, Ordering::Relaxed);
                shared.trains_sent.fetch_add(1, Ordering::Relaxed);
                let out_obs = shared.obs.pair(node, src);
                out_obs.frames_out.add(frames);
                out_obs.bytes_out.add(bytes);
                out_obs.trains_out.inc();
            }
            if self.wtrain.write_some(&mut &self.sock).is_err() {
                return false;
            }
        }
        true
    }
}

impl Drop for InConn {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// The read half of an outbound connection a node dialed: replies come
/// back here and resolve the pending table.
struct OutWatch {
    dst: NodeId,
    conn: Arc<Conn>,
    asm: FrameAssembler,
}

impl OutWatch {
    /// One nonblocking read + demux pass over a socket that reported
    /// ready. Returns false when the connection failed (already cleaned up).
    fn poll(&mut self, shared: &TcpShared, node: NodeId) -> bool {
        for _ in 0..READS_PER_PASS {
            match self.asm.read_from(&mut &self.conn.sock, READ_CHUNK) {
                Ok(0) => {
                    conn_failed(shared, node, self.dst, &self.conn);
                    return false;
                }
                Ok(n) if n < READ_CHUNK => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn_failed(shared, node, self.dst, &self.conn);
                    return false;
                }
            }
        }
        // Replies travel `dst → node`; the pending gauge lives on the
        // link as dialed, `node → dst`.
        let in_obs = shared.obs.pair(self.dst, node);
        let link_obs = shared.obs.pair(node, self.dst);
        loop {
            match self.asm.next_frame() {
                Ok(Some((WireMsg::BlockReply { req_id, data }, n))) => {
                    shared.frames_received.fetch_add(1, Ordering::Relaxed);
                    in_obs.frames_in.inc();
                    in_obs.bytes_in.add(n);
                    if let Some(Pending::Block(tx)) = self.conn.pending.remove(req_id) {
                        link_obs.pending_replies.adjust(-1);
                        let _ = tx.send(data); // requester may have timed out
                    }
                }
                Ok(Some((WireMsg::BarrierAck { req_id }, n)))
                | Ok(Some((WireMsg::Pong { req_id }, n))) => {
                    shared.frames_received.fetch_add(1, Ordering::Relaxed);
                    in_obs.frames_in.inc();
                    in_obs.bytes_in.add(n);
                    if let Some(Pending::Barrier(tx)) = self.conn.pending.remove(req_id) {
                        link_obs.pending_replies.adjust(-1);
                        let _ = tx.send(());
                    }
                }
                Ok(None) => break,
                // Only replies travel dst → node; anything else is
                // protocol corruption.
                Ok(Some(_)) | Err(_) => {
                    conn_failed(shared, node, self.dst, &self.conn);
                    return false;
                }
            }
        }
        true
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
/// reactor's only blocking call, and the workspace's only `unsafe`: std has
/// no readiness wait and the build has no registry, but std already links
/// the platform's libc.
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
/// service inbox, batches and writes their replies, and resolves replies
/// arriving on connections this node dialed. Every socket is nonblocking;
/// the one place the loop blocks is [`wait_ready`], where a reactor with
/// nothing to do sleeps in the kernel until a socket, the listener or the
/// wake pipe has something for it.
fn reactor_loop(
    shared: Arc<TcpShared>,
    node: NodeId,
    listener: TcpListener,
    cmds: Receiver<Watch>,
    mut woken: UnixStream,
) {
    let mut inbound: Vec<InConn> = Vec::new();
    let mut outbound: Vec<OutWatch> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let obs = &shared.obs.reactors[node.index()];
    loop {
        // Interest set, in this order: listener, wake pipe, inbound
        // connections (writability too while a reply train is stuck behind
        // a full socket), watched outbound connections.
        fds.clear();
        fds.push(PollFd::new(&listener, POLLIN));
        fds.push(PollFd::new(&woken, POLLIN));
        fds.extend(inbound.iter().map(|c| {
            let flush = if c.wtrain.is_empty() { 0 } else { POLLOUT };
            PollFd::new(&c.sock, POLLIN | flush)
        }));
        fds.extend(outbound.iter().map(|w| PollFd::new(&w.conn.sock, POLLIN)));
        // How long to sleep: not at all while the service thread owes a
        // reply (see `InConn::owed`); until the nearest Hello deadline
        // while a connection is still anonymous; else until woken.
        let owed = inbound.iter().any(InConn::owed);
        let timeout = if owed {
            Some(Duration::ZERO)
        } else {
            let now = Instant::now();
            inbound
                .iter()
                .filter(|c| c.src.is_none())
                .map(|c| c.deadline.saturating_duration_since(now))
                .min()
        };
        let n_ready = wait_ready(&mut fds, timeout);
        obs.wakeups.inc();
        if shared.stop.load(Ordering::Acquire) {
            break; // InConn/Conn drops close every socket
        }
        let mut ready = fds.iter().map(PollFd::ready);
        let accept = ready.next().expect("listener entry");
        let mailbox = ready.next().expect("wake pipe entry");
        // Serve what is ready. Connections adopted below were not in this
        // wait; the next one reports them at once if they have bytes.
        inbound.retain_mut(|c| c.poll(&shared, node, ready.next().expect("inbound entry")));
        outbound.retain_mut(|w| !ready.next().expect("outbound entry") || w.poll(&shared, node));
        if owed && n_ready == 0 {
            // Nothing but the service thread can make progress: let it run.
            std::thread::yield_now();
        }
        if mailbox {
            // Drain the wake bytes before the mailbox, so a wake-up sent
            // after this point finds the pipe readable again.
            let mut sink = [0u8; 64];
            while matches!(woken.read(&mut sink), Ok(n) if n > 0) {}
            while let Ok(Watch { dst, conn }) = cmds.try_recv() {
                outbound.push(OutWatch {
                    dst,
                    conn,
                    asm: FrameAssembler::new(),
                });
            }
        }
        if accept {
            loop {
                match listener.accept() {
                    Ok((sock, _)) => {
                        let _ = sock.set_nodelay(true);
                        let _ = sock.set_nonblocking(true);
                        inbound.push(InConn::new(sock));
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
