//! Ordering and liveness of the "answer where the request already is"
//! short cut, on both transports.
//!
//! A transport that has the nodes' block stores attached answers a block
//! request *hit* without the holder's service thread — on the caller's
//! thread over the channel `Lan`, on the receiving reactor over `TcpLan`.
//! The short cut must be invisible to the protocol, which these tests pin:
//!
//! * a store **miss** is never answered directly — it queues behind
//!   whatever the holder's inbox still holds, so a `Forward{X}` followed by
//!   a fetch of `X` from the same source finds the forwarded bytes even
//!   while the holder's service thread is stuck;
//! * a **dead inbox** answers nothing: a node whose service thread is gone
//!   (severed, crashed) or was never started serves no bytes from its
//!   store, however many it still holds;
//! * with **no store attached** everything round-trips through the inbox;
//! * a reply the service thread **drops unsent** still answers at once: a
//!   fetch reads `None`, a barrier or a ping `false`;
//! * through a running cluster, a remote read after a `write_block` returns
//!   what was written;
//! * a file read puts each holder's remote hits on the wire as one request
//!   train per 32-block decision chunk, and times each of those blocks
//!   from the train's issue.
//!
//! Over TCP the caller waiting for a train reads its replies off the
//! socket itself, and hands the read half on when it leaves. The last
//! tests pin those hand-offs: a follower is still answered after its
//! leader left, a leader cut off mid-wait or timed out leaves promptly and
//! leaves nothing behind, and so does a `Pending` dropped unwaited.

use ccm_core::{BlockId, FileId, NodeId, ReplacementPolicy, BLOCK_SIZE};
use ccm_net::TcpLan;
use ccm_obs::Registry;
use ccm_rt::{
    BlockStores, Catalog, Lan, MemStore, Middleware, PeerMsg, RtConfig, ShardedMap, SyntheticStore,
    Transport,
};
use ccm_testkit::Backend;
use simcore::chan::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

fn transport(backend: Backend, nodes: usize, registry: &Registry) -> Arc<dyn Transport> {
    match backend {
        Backend::Channel => Arc::new(Lan::with_nodes(nodes)),
        Backend::Tcp => Arc::new(TcpLan::loopback_obs(nodes, registry).expect("bind loopback")),
    }
}

fn stores(nodes: usize) -> BlockStores {
    (0..nodes).map(|_| ShardedMap::new()).collect()
}

fn block(i: u32) -> BlockId {
    BlockId::new(FileId(3), i)
}

fn bytes(fill: u8) -> Arc<[u8]> {
    vec![fill; BLOCK_SIZE as usize].into()
}

/// What the runtime's service thread does with the data plane, over one
/// node's store — but only once `gate` opens (a message or a disconnect).
fn gated_service(
    inbox: Receiver<PeerMsg>,
    stores: BlockStores,
    node: NodeId,
    gate: Receiver<()>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = gate.recv();
        let store = &stores[node.index()];
        for msg in inbox.iter() {
            match msg {
                PeerMsg::BlockRequest { block, reply } => {
                    let _ = reply.send(store.get(block));
                }
                PeerMsg::Forward { block, data, .. } => {
                    store.insert(block, data);
                }
                PeerMsg::Barrier { reply } | PeerMsg::Ping { reply } => {
                    let _ = reply.send(());
                }
                PeerMsg::WriteInvalidate { block } => {
                    store.remove(block);
                }
                PeerMsg::Shutdown => break,
            }
        }
    })
}

fn reactor_served(registry: &Registry) -> u64 {
    registry
        .snapshot()
        .counter_sum("ccm_net_reactor_served_total")
}

/// (i) `Forward{X}` then `fetch_block(X)` from the same source, with the
/// holder's service thread held behind a gate: the fetch must wait for the
/// forward and return its bytes — never a miss answered over its head.
#[test]
fn a_fetch_queues_behind_a_forward_of_the_same_block() {
    for backend in Backend::all() {
        let registry = Registry::new();
        let lan = transport(backend, 2, &registry);
        let _rx0 = lan.reconnect(NodeId(0));
        let rx1 = lan.reconnect(NodeId(1));
        let stores = stores(2);
        lan.attach_stores(stores.clone());
        let (open_gate, gate) = unbounded();
        let service = gated_service(rx1, stores.clone(), NodeId(1), gate);

        assert!(lan.send(
            NodeId(0),
            NodeId(1),
            PeerMsg::Forward {
                block: block(0),
                data: bytes(0xF0),
                displace: None,
            },
        ));
        let (done_tx, done_rx) = unbounded();
        let fetcher = std::thread::spawn({
            let lan = lan.clone();
            move || {
                let got = lan.fetch_block(NodeId(0), NodeId(1), block(0), TIMEOUT);
                let _ = done_tx.send(got);
            }
        });
        // The store does not hold the block yet and the service thread is
        // stuck: nothing may answer. (An implementation that served misses
        // directly would deliver `None` right here.)
        assert_eq!(
            done_rx.recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutError::Timeout),
            "{}: the fetch was answered over the queued forward's head",
            backend.name()
        );
        open_gate.send(()).expect("service waits at the gate");
        let got = done_rx.recv_timeout(TIMEOUT).expect("fetch completes");
        assert_eq!(
            got.as_deref(),
            Some(&bytes(0xF0)[..]),
            "{}: the fetch must return the forwarded bytes",
            backend.name()
        );
        fetcher.join().unwrap();

        // Now that the store holds it, the same fetch needs no service
        // thread at all.
        let served_before = reactor_served(&registry);
        let got = lan.fetch_block(NodeId(0), NodeId(1), block(0), TIMEOUT);
        assert_eq!(got.as_deref(), Some(&bytes(0xF0)[..]));
        if backend == Backend::Tcp {
            assert_eq!(
                reactor_served(&registry),
                served_before + 1,
                "a store hit is the reactor's to answer"
            );
        }

        assert!(lan.send(NodeId(1), NodeId(1), PeerMsg::Shutdown));
        service.join().unwrap();
    }
}

/// (ii, transport level) A node whose inbox has no receiver — its service
/// thread exited, or it never joined — answers nothing from its store.
#[test]
fn a_dead_inbox_serves_nothing_from_its_store() {
    for backend in Backend::all() {
        let registry = Registry::new();
        let lan = transport(backend, 3, &registry);
        let _rx0 = lan.reconnect(NodeId(0));
        let rx1 = lan.reconnect(NodeId(1));
        // Node 2 never joins: no `reconnect`, no service thread.
        let stores = stores(3);
        stores[1].insert(block(1), bytes(0x11));
        stores[2].insert(block(2), bytes(0x22));
        lan.attach_stores(stores.clone());

        // Alive: the hit is served (and over TCP, by the reactor).
        let got = lan.fetch_block(NodeId(0), NodeId(1), block(1), TIMEOUT);
        assert_eq!(got.as_deref(), Some(&bytes(0x11)[..]));
        // Severed: the service thread is gone, the store still holds bytes.
        drop(rx1);
        assert!(stores[1].get(block(1)).is_some());
        for _ in 0..2 {
            // Twice: over TCP the first attempt tears the connection down,
            // the second meets the link's fail-fast backoff.
            let got = lan.fetch_block(NodeId(0), NodeId(1), block(1), TIMEOUT);
            assert_eq!(got, None, "{}: a severed node answered", backend.name());
        }
        let got = lan.fetch_block(NodeId(0), NodeId(2), block(2), TIMEOUT);
        assert_eq!(got, None, "{}: an absent node answered", backend.name());
        if backend == Backend::Tcp {
            assert_eq!(reactor_served(&registry), 1, "only the live hit was served");
        }
    }
}

/// A cluster over `lan`, one node per transport slot.
fn cluster_cfg(lan: Arc<dyn Transport>, registry: &Registry) -> RtConfig {
    RtConfig {
        nodes: lan.nodes(),
        transport: Some(lan),
        capacity_blocks: 32,
        policy: ReplacementPolicy::MasterPreserving,
        fetch_timeout: Duration::from_secs(2),
        obs: Some(registry.clone()),
        ..RtConfig::default()
    }
}

/// (ii, cluster level) After `sever_node` and after `crash_node`, a read
/// routed at the dead node degrades to the §3 store fallback: right bytes,
/// one fallback counted, and not one byte out of the dead node's store.
#[test]
fn reads_aimed_at_a_severed_or_crashed_node_degrade_to_the_store() {
    for backend in Backend::all() {
        for crash in [false, true] {
            let registry = Registry::new();
            let catalog = Catalog::new(vec![BLOCK_SIZE; 8]);
            let disk = Arc::new(SyntheticStore::new(catalog.clone(), 21));
            let lan = transport(backend, 3, &registry);
            let mw = Middleware::start(cluster_cfg(lan.clone(), &registry), catalog, disk.clone());
            let b = BlockId::new(FileId(5), 0);
            let want = ccm_rt::BlockStore::read_block(&*disk, b);
            // Node 1 becomes the master of `b`; a peer read is a remote hit
            // served from node 1's store without its service thread.
            assert_eq!(&*mw.handle(NodeId(1)).read_block(b), &want[..]);
            assert_eq!(&*mw.handle(NodeId(0)).read_block(b), &want[..]);
            assert_eq!(mw.stats().remote_hits, 1);
            assert_eq!(mw.stats().store_fallbacks, 0);
            let direct = lan.fetch_block(NodeId(2), NodeId(1), b, TIMEOUT);
            assert_eq!(direct.as_deref(), Some(&want[..]));

            if crash {
                mw.crash_node(NodeId(1));
            } else {
                mw.sever_node(NodeId(1));
            }
            let direct = lan.fetch_block(NodeId(2), NodeId(1), b, TIMEOUT);
            assert_eq!(direct, None, "{}: a dead node answered", backend.name());
            // Through the protocol: node 2 has no copy. After a sever the
            // directory still points at node 1 (nothing was repaired), so
            // the read is a remote hit that degrades to a store fallback;
            // after a crash the directory was repaired around node 1.
            assert_eq!(&*mw.handle(NodeId(2)).read_block(b), &want[..]);
            let stats = mw.stats();
            if crash {
                assert_eq!(stats.store_fallbacks, 0);
            } else {
                assert_eq!(stats.remote_hits, 2, "the directory still names node 1");
                assert_eq!(stats.store_fallbacks, 1, "and the fetch degraded");
            }
            drop(mw);
        }
    }
}

/// (iii) No store attached — a stub peer whose service thread answers
/// every `BlockRequest` itself — still round-trips, through the inbox.
#[test]
fn a_transport_without_stores_round_trips_through_the_inbox() {
    for backend in Backend::all() {
        let registry = Registry::new();
        let lan = transport(backend, 2, &registry);
        let _rx0 = lan.reconnect(NodeId(0));
        let rx1 = lan.reconnect(NodeId(1));
        let service = std::thread::spawn(move || {
            for msg in rx1.iter() {
                match msg {
                    PeerMsg::BlockRequest { block, reply } => {
                        let _ = reply.send(Some(bytes(block.index as u8)));
                    }
                    PeerMsg::Shutdown => break,
                    _ => {}
                }
            }
        });
        for i in 0..16 {
            let got = lan.fetch_block(NodeId(0), NodeId(1), block(i), TIMEOUT);
            assert_eq!(got.as_deref(), Some(&bytes(i as u8)[..]));
        }
        let blocks: Vec<BlockId> = (0..16).map(block).collect();
        let got = lan.fetch_blocks(NodeId(0), NodeId(1), &blocks, TIMEOUT);
        for (i, data) in got.iter().enumerate() {
            assert_eq!(data.as_deref(), Some(&bytes(i as u8)[..]));
        }
        assert_eq!(reactor_served(&registry), 0, "there is no store to serve");
        assert!(lan.send(NodeId(1), NodeId(1), PeerMsg::Shutdown));
        service.join().unwrap();
    }
}

/// A service thread that drops a request's reply unsent — as a crashing
/// node's does — leaves no requester waiting out its timeout: a fetch
/// reads `None`, a barrier and a ping read `false`, all at once. Over the
/// channel `Lan` the reply channel disconnects; over `TcpLan` the reply
/// sink's `Drop` writes the explicit miss, or for an ack tears the
/// connection down.
#[test]
fn a_reply_dropped_unsent_answers_at_once() {
    for backend in Backend::all() {
        for op in ["fetch", "barrier", "ping"] {
            let registry = Registry::new();
            let lan = transport(backend, 2, &registry);
            let _rx0 = lan.reconnect(NodeId(0));
            let rx1 = lan.reconnect(NodeId(1));
            // Drops every message, and each request's reply with it.
            let service = std::thread::spawn(move || {
                for msg in rx1.iter() {
                    if matches!(msg, PeerMsg::Shutdown) {
                        break;
                    }
                }
            });
            // Dial the link first, so a barrier has a wire half.
            let dial = PeerMsg::WriteInvalidate { block: block(0) };
            assert!(lan.send(NodeId(0), NodeId(1), dial));
            let t = Instant::now();
            let answered = match op {
                "fetch" => lan
                    .fetch_block(NodeId(0), NodeId(1), block(1), TIMEOUT)
                    .is_some(),
                "barrier" => lan.barrier(NodeId(1), TIMEOUT),
                _ => lan.ping(NodeId(0), NodeId(1), TIMEOUT),
            };
            let took = t.elapsed();
            assert!(
                !answered,
                "{} {op}: a dropped reply answered",
                backend.name()
            );
            assert!(
                took < Duration::from_secs(1),
                "{} {op}: the dropped reply was waited out ({took:?})",
                backend.name()
            );
            assert!(lan.send(NodeId(1), NodeId(1), PeerMsg::Shutdown));
            service.join().unwrap();
        }
    }
}

/// (iv) A block written through `write_block` is what a following remote
/// read returns — the short cut reads the store the write installed into.
#[test]
fn a_remote_read_after_a_write_returns_the_written_bytes() {
    for backend in Backend::all() {
        let registry = Registry::new();
        let catalog = Catalog::new(vec![BLOCK_SIZE * 2; 4]);
        let disk = Arc::new(MemStore::new(catalog.clone(), 9));
        let lan = transport(backend, 3, &registry);
        let mw = Middleware::start(cluster_cfg(lan, &registry), catalog, disk);
        let b = BlockId::new(FileId(2), 1);
        for (round, fill) in [0xA1u8, 0xB2, 0xC3].into_iter().enumerate() {
            let writer = NodeId((round % 3) as u16);
            let reader = NodeId(((round + 1) % 3) as u16);
            let data = vec![fill; BLOCK_SIZE as usize];
            mw.handle(writer).write_block(b, &data).expect("writable");
            let before = mw.stats().remote_hits;
            assert_eq!(
                &*mw.handle(reader).read_block(b),
                &data[..],
                "{} round {round}: stale bytes after a write",
                backend.name()
            );
            assert_eq!(mw.stats().remote_hits, before + 1, "served by the writer");
            mw.quiesce();
        }
        assert_eq!(mw.stats().store_fallbacks, 0);
        if backend == Backend::Tcp {
            assert_eq!(
                reactor_served(&registry),
                3,
                "every remote read was a store hit at the writer's reactor"
            );
        }
        mw.shutdown();
    }
}

/// `frames_out` and `trains_out` on the wire link `src → dst`.
fn link_out(registry: &Registry, src: u16, dst: u16) -> (u64, u64) {
    let snap = registry.snapshot();
    let (s, d) = (src.to_string(), dst.to_string());
    let labels = [("dst", d.as_str()), ("src", s.as_str())];
    let count = |name| match snap.find(name, &labels).map(|m| &m.value) {
        Some(ccm_obs::Value::Counter(v)) => *v,
        other => panic!("no {name} series for {src}->{dst}: {other:?}"),
    };
    (
        count("ccm_net_frames_out_total"),
        count("ccm_net_trains_out_total"),
    )
}

/// A TCP cluster of `nodes` whose caches hold every file, plus its lan
/// (for dialing links ahead of a measurement) and store.
fn tcp_cluster(
    nodes: usize,
    sizes: Vec<u64>,
    registry: &Registry,
) -> (Middleware, Arc<TcpLan>, Arc<SyntheticStore>) {
    let catalog = Catalog::new(sizes);
    let disk = Arc::new(SyntheticStore::new(catalog.clone(), 17));
    let lan = Arc::new(TcpLan::loopback_obs(nodes, registry).expect("bind loopback"));
    let mut cfg = cluster_cfg(lan.clone(), registry);
    cfg.capacity_blocks = 128;
    let mw = Middleware::start(cfg, catalog, disk.clone());
    (mw, lan, disk)
}

/// (v) A file whose remote hits sit on one peer goes out as one request
/// train on that link; one split across two peers as one train each. Every
/// block served from a train is timed from the train's issue, so none of
/// the four samples can be a near-zero serve time.
#[test]
fn a_file_read_sends_one_request_train_per_holder() {
    let registry = Registry::new();
    let (mw, lan, disk) = tcp_cluster(3, vec![4 * BLOCK_SIZE; 2], &registry);
    let (one, split) = (FileId(0), FileId(1));
    mw.handle(NodeId(1)).read_file(one);
    for (b, holder) in [(0, 1), (1, 1), (2, 2), (3, 2)] {
        mw.handle(NodeId(holder)).read_block(BlockId::new(split, b));
    }
    // Dial both links first, so no Hello rides the measured trains.
    assert!(lan.ping(NodeId(0), NodeId(1), TIMEOUT));
    assert!(lan.ping(NodeId(0), NodeId(2), TIMEOUT));
    let want = |f| ccm_rt::store::read_file_direct(&*disk, mw.catalog(), f);

    let to1 = link_out(&registry, 0, 1);
    let got = mw.handle(NodeId(0)).read_file(one);
    assert_eq!(got, want(one));
    let after = link_out(&registry, 0, 1);
    assert_eq!(after.0 - to1.0, 4, "four block requests");
    assert_eq!(after.1 - to1.1, 1, "in one train");
    #[cfg(not(feature = "obs-off"))]
    {
        let remote = mw.registry().snapshot().histogram_merged_where(
            "ccm_rt_fetch_latency_ns",
            "class",
            "remote",
        );
        assert_eq!(remote.count(), 4, "one sample per remote block");
        assert!(
            remote.quantile(0.0) >= 1_000,
            "a block served from a train waited its round trip, not {} ns",
            remote.quantile(0.0)
        );
    }

    let (to1, to2) = (link_out(&registry, 0, 1), link_out(&registry, 0, 2));
    let got = mw.handle(NodeId(0)).read_file(split);
    assert_eq!(got, want(split));
    let (after1, after2) = (link_out(&registry, 0, 1), link_out(&registry, 0, 2));
    assert_eq!(
        (after1.0 - to1.0, after1.1 - to1.1),
        (2, 1),
        "node 1's half"
    );
    assert_eq!(
        (after2.0 - to2.0, after2.1 - to2.1),
        (2, 1),
        "node 2's half"
    );
    assert_eq!(mw.stats().remote_hits, 8);
    assert_eq!(mw.stats().store_fallbacks, 0);
    mw.shutdown();
}

/// (vi) A file longer than one decision chunk (32 blocks) takes one train
/// per chunk: 70 remote blocks are ⌈70/32⌉ = 3 request trains.
#[test]
fn a_file_longer_than_a_chunk_takes_one_train_per_chunk() {
    let registry = Registry::new();
    let (mw, lan, disk) = tcp_cluster(2, vec![70 * BLOCK_SIZE - 5], &registry);
    let file = FileId(0);
    mw.handle(NodeId(1)).read_file(file);
    assert!(lan.ping(NodeId(0), NodeId(1), TIMEOUT));
    let before = link_out(&registry, 0, 1);
    let got = mw.handle(NodeId(0)).read_file(file);
    assert_eq!(
        got,
        ccm_rt::store::read_file_direct(&*disk, mw.catalog(), file)
    );
    let after = link_out(&registry, 0, 1);
    assert_eq!(after.0 - before.0, 70, "one request per block");
    assert_eq!(after.1 - before.1, 3, "one train per 32-block chunk");
    let s = mw.stats();
    assert_eq!((s.remote_hits, s.store_fallbacks), (70, 0));
    mw.shutdown();
}

/// A 2-node TCP link `0 → 1` whose holder's store has block 0 and whose
/// holder's service thread stays held behind a gate until the returned
/// sender sends (or drops). The link is dialed, by a store hit the
/// holder's reactor answers.
struct GatedLink {
    registry: Registry,
    lan: Arc<TcpLan>,
    stores: BlockStores,
    open_gate: Sender<()>,
    service: std::thread::JoinHandle<()>,
    _rx0: Receiver<PeerMsg>,
}

fn gated_link() -> GatedLink {
    let registry = Registry::new();
    let lan = Arc::new(TcpLan::loopback_obs(2, &registry).expect("bind loopback"));
    let _rx0 = lan.reconnect(NodeId(0));
    let rx1 = lan.reconnect(NodeId(1));
    let stores = stores(2);
    stores[1].insert(block(0), bytes(0xA0));
    lan.attach_stores(stores.clone());
    let (open_gate, gate) = unbounded();
    let service = gated_service(rx1, stores.clone(), NodeId(1), gate);
    let got = lan.fetch_block(NodeId(0), NodeId(1), block(0), TIMEOUT);
    assert_eq!(got.as_deref(), Some(&bytes(0xA0)[..]));
    GatedLink {
        registry,
        lan,
        stores,
        open_gate,
        service,
        _rx0,
    }
}

impl GatedLink {
    /// Replies owed on the link `0 → 1`.
    fn pending(&self) -> i64 {
        let snap = self.registry.snapshot();
        match snap
            .find("ccm_net_pending_replies", &[("dst", "1"), ("src", "0")])
            .map(|m| &m.value)
        {
            Some(ccm_obs::Value::Gauge(v)) => *v,
            other => panic!("no pending gauge for 0->1: {other:?}"),
        }
    }

    fn requester_wakeups(&self) -> u64 {
        self.registry
            .snapshot()
            .counter_sum_where("ccm_net_reactor_wakeups_total", "node", "0")
    }

    fn finish(self) {
        let _ = self.open_gate.send(());
        assert!(self.lan.send(NodeId(1), NodeId(1), PeerMsg::Shutdown));
        self.service.join().unwrap();
    }
}

/// (a) Two callers share the link: the first (the leader) takes the read
/// half, the second (its follower) asks for a block whose bytes sit in a
/// `Forward` queued at the gated service thread, so its reply can only come
/// once the gate opens. The leader leaves with the follower's reply still
/// owed — with its own store hit in hand before the follower waits, or at
/// its deadline while the follower is already parked behind it. Either way
/// the follower reads its own reply within 50 ms of the gate opening, not
/// at its 5 s timeout, and the requesting node's reactor never wakes.
#[test]
fn a_follower_is_answered_after_its_leader_leaves() {
    for parked in [false, true] {
        follower_answered_after_leader_leaves(parked);
    }
}

fn follower_answered_after_leader_leaves(parked: bool) {
    let link = gated_link();
    let lan = &link.lan;
    assert!(lan.send(
        NodeId(0),
        NodeId(1),
        PeerMsg::Forward {
            block: block(1),
            data: bytes(0xB1),
            displace: None,
        },
    ));
    // Block 6 is a store miss: it waits at the gated service thread.
    let leader = lan.issue(NodeId(0), NodeId(1), &[block(if parked { 6 } else { 0 })]);
    let follower = lan.issue(NodeId(0), NodeId(1), &[block(1)]);
    assert_eq!(link.pending(), 2);
    let woke = link.requester_wakeups();
    let follower = if parked {
        let leading = std::thread::spawn(move || leader.wait(Duration::from_millis(100)));
        std::thread::sleep(Duration::from_millis(30)); // the leader polls
        let waiting = std::thread::spawn(move || follower.wait(TIMEOUT));
        assert_eq!(leading.join().unwrap(), vec![None], "the leader timed out");
        waiting
    } else {
        assert_eq!(leader.wait(TIMEOUT), vec![Some(bytes(0xA0))]);
        std::thread::spawn(move || follower.wait(TIMEOUT))
    };
    assert_eq!(link.pending(), 1, "the follower's reply is still owed");

    std::thread::sleep(Duration::from_millis(30));
    let opened = Instant::now();
    link.open_gate.send(()).expect("service waits at the gate");
    let got = follower.join().unwrap();
    let answered = Instant::now();
    assert_eq!(got, vec![Some(bytes(0xB1))]);
    assert!(
        answered - opened < Duration::from_millis(50),
        "the follower waited {:?} after the gate opened (parked: {parked})",
        answered - opened
    );
    assert_eq!(
        link.requester_wakeups(),
        woke,
        "the follower read its own reply (parked: {parked})"
    );
    assert_eq!(link.pending(), 0);
    link.finish();
}

/// (b) A leader whose holder is cut off mid-wait — the holder restarts,
/// which severs every connection to and from it — returns `None` at once
/// rather than at its deadline, and the teardown is already counted when
/// it does: a fetch that degrades finds its cause in the wire counters.
#[test]
fn a_leader_cut_off_mid_wait_returns_with_the_teardown_counted() {
    let link = gated_link();
    let lan = link.lan.clone();
    let restart = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        lan.reconnect(NodeId(1))
    });
    let t = Instant::now();
    // Block 2 is a store miss: it waits at the gated service thread.
    let got = link
        .lan
        .fetch_block(NodeId(0), NodeId(1), block(2), TIMEOUT);
    let took = t.elapsed();
    let teardowns = link.lan.net_stats().teardowns;
    let counted = link
        .registry
        .snapshot()
        .counter_sum("ccm_net_teardowns_total");
    assert_eq!(got, None);
    assert!(took < Duration::from_secs(1), "the leader waited {took:?}");
    assert_eq!((teardowns, counted), (1, 1), "teardown not yet counted");
    assert_eq!(link.pending(), 0);
    let _rx1 = restart.join().unwrap();
    let _ = link.open_gate.send(());
    link.service.join().unwrap();
}

/// (c) A leader that times out gives the connection back: its entry is
/// gone at once, the reply that comes late is read and discarded by the
/// next reader, and the next fetch on the link succeeds.
#[test]
fn a_leader_that_times_out_gives_the_link_back() {
    let link = gated_link();
    let lan = &link.lan;
    let t = Instant::now();
    let got = lan.fetch_block(NodeId(0), NodeId(1), block(3), Duration::from_millis(50));
    assert_eq!(got, None);
    assert!(t.elapsed() >= Duration::from_millis(50));
    assert_eq!(link.pending(), 0, "the timed-out entry is gone");
    // The late reply: the store gets block 3 before the gate opens, so it
    // comes back with bytes — and nobody may take them for a newer fetch.
    link.stores[1].insert(block(3), bytes(0xC3));
    link.open_gate.send(()).expect("service waits at the gate");
    assert!(lan.barrier(NodeId(1), TIMEOUT), "the late reply went out");
    assert_eq!(link.pending(), 0);
    for _ in 0..2 {
        let got = lan.fetch_block(NodeId(0), NodeId(1), block(0), TIMEOUT);
        assert_eq!(got.as_deref(), Some(&bytes(0xA0)[..]));
    }
    let got = lan.fetch_block(NodeId(0), NodeId(1), block(3), TIMEOUT);
    assert_eq!(got.as_deref(), Some(&bytes(0xC3)[..]));
    assert_eq!(link.pending(), 0);
    link.finish();
}

/// (d) A `Pending` dropped without a wait leaves no entry parked and hands
/// nothing to the reactor; the replies that still come are discarded.
#[test]
fn a_pending_dropped_unwaited_leaves_nothing_parked() {
    let link = gated_link();
    let lan = &link.lan;
    let woke = link.requester_wakeups();
    let pending = lan.issue(NodeId(0), NodeId(1), &[block(4), block(0)]);
    assert_eq!(link.pending(), 2);
    drop(pending);
    assert_eq!(link.pending(), 0, "a dropped Pending left entries parked");
    assert_eq!(
        link.requester_wakeups(),
        woke,
        "nothing was owed, so nothing went to the reactor"
    );
    link.open_gate.send(()).expect("service waits at the gate");
    let got = lan.fetch_blocks(NodeId(0), NodeId(1), &[block(0), block(4)], TIMEOUT);
    assert_eq!(got, vec![Some(bytes(0xA0)), None]);
    assert_eq!(link.pending(), 0);
    link.finish();
}

/// A follower left waiting after its leader is not left behind when the
/// transport goes away: dropping it shuts the socket the follower now reads
/// and fails its table, and the follower returns `None` at once instead of
/// at its timeout.
#[test]
fn dropping_the_transport_releases_a_parked_follower() {
    let GatedLink {
        lan,
        open_gate,
        service,
        ..
    } = gated_link();
    let leader = lan.issue(NodeId(0), NodeId(1), &[block(0)]);
    // Block 5 is a store miss: it waits at the gated service thread.
    let follower = lan.issue(NodeId(0), NodeId(1), &[block(5)]);
    assert_eq!(leader.wait(TIMEOUT), vec![Some(bytes(0xA0))]);
    let t = Instant::now();
    let waiting = std::thread::spawn(move || follower.wait(TIMEOUT));
    std::thread::sleep(Duration::from_millis(30));
    drop(lan);
    assert_eq!(waiting.join().unwrap(), vec![None]);
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "the follower waited {:?}",
        t.elapsed()
    );
    let _ = open_gate.send(());
    service.join().unwrap();
}

/// Many callers on one link take turns as its reader — leading, following,
/// taking over a leader that waits elsewhere — and every one of them gets
/// its own bytes.
#[test]
fn callers_sharing_a_link_each_get_their_own_replies() {
    let link = gated_link();
    for i in 0..32 {
        link.stores[1].insert(block(i), bytes(i as u8));
    }
    link.open_gate.send(()).expect("service waits at the gate");
    let callers: Vec<_> = (0..4u32)
        .map(|c| {
            let lan = link.lan.clone();
            std::thread::spawn(move || {
                for round in 0..200u32 {
                    let first = (c * 7 + round) % 28;
                    let blocks: Vec<BlockId> = (first..first + 1 + round % 4).map(block).collect();
                    // Two trains in flight at once, waited in reverse.
                    let a = lan.issue(NodeId(0), NodeId(1), &blocks[..1]);
                    let b = lan.issue(NodeId(0), NodeId(1), &blocks[1..]);
                    let got_b = b.wait(TIMEOUT);
                    let got_a = a.wait(TIMEOUT);
                    for (b, data) in blocks.iter().zip(got_a.iter().chain(&got_b)) {
                        assert_eq!(data.as_deref(), Some(&bytes(b.index as u8)[..]));
                    }
                }
            })
        })
        .collect();
    for c in callers {
        c.join().expect("a caller got wrong bytes");
    }
    assert_eq!(link.pending(), 0);
    link.finish();
}
