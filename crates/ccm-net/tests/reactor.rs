//! The reactor sleeps when it has nothing to do and wakes when it has.
//!
//! A `TcpLan` reactor blocks in a kernel readiness wait on its listener,
//! its sockets and a wake pipe. These tests pin both halves of that:
//!
//! * **asleep** — an idle, fully dialled mesh makes (next to) no reactor
//!   wake-ups, and dropping the transport does not have to wait out a nap;
//! * **awake** — a silent accepted connection still meets its Hello
//!   deadline although nothing else wakes the reactor, a fetch after a long
//!   silence is prompt (no lost wake-up), and a train bigger than the
//!   socket buffer drains in both directions, because a blocked reactor is
//!   woken by the bytes themselves;
//! * **not needed** — a fetch's replies are read by the caller waiting for
//!   them, so the requesting node's reactor sleeps through it; and the
//!   holder's service thread writes its own answers, so the holder's
//!   reactor wakes once per request and never for the reply.

use ccm_core::{BlockId, FileId, NodeId, BLOCK_SIZE};
use ccm_net::TcpLan;
use ccm_obs::Registry;
use ccm_rt::{BlockStores, PeerMsg, ShardedMap, Transport};
use simcore::chan::{unbounded, Receiver};
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

fn block(i: u32) -> BlockId {
    BlockId::new(FileId(1), i)
}

fn payload(i: u32) -> Arc<[u8]> {
    vec![i as u8; BLOCK_SIZE as usize].into()
}

/// A stand-in service thread: answers requests with a block derived from
/// the block index, counts forwards in arrival order, acks barriers. With a
/// `gate`, it starts serving only once the gate opens.
fn serve(
    inbox: Receiver<PeerMsg>,
    gate: Option<Receiver<()>>,
) -> std::thread::JoinHandle<Vec<u32>> {
    std::thread::spawn(move || {
        if let Some(gate) = gate {
            let _ = gate.recv();
        }
        let mut forwards = Vec::new();
        for msg in inbox.iter() {
            match msg {
                PeerMsg::BlockRequest { block, reply } => {
                    let _ = reply.send(Some(payload(block.index)));
                }
                PeerMsg::Forward { block, data, .. } => {
                    assert!(data.iter().all(|b| *b == block.index as u8));
                    forwards.push(block.index);
                }
                PeerMsg::Barrier { reply } | PeerMsg::Ping { reply } => {
                    let _ = reply.send(());
                }
                PeerMsg::Shutdown => break,
                _ => {}
            }
        }
        forwards
    })
}

/// Start every node's stand-in service and dial all `n * (n - 1)` links,
/// leaving the mesh connected, handshaken and quiet.
fn dialled_mesh(lan: &TcpLan, n: usize) -> Vec<std::thread::JoinHandle<Vec<u32>>> {
    let services: Vec<_> = (0..n)
        .map(|i| serve(lan.reconnect(NodeId(i as u16)), None))
        .collect();
    for src in 0..n {
        for dst in (0..n).filter(|&d| d != src) {
            assert!(lan.ping(NodeId(src as u16), NodeId(dst as u16), TIMEOUT));
        }
    }
    services
}

fn stop(lan: &TcpLan, services: Vec<std::thread::JoinHandle<Vec<u32>>>) {
    for (i, s) in services.into_iter().enumerate() {
        let node = NodeId(i as u16);
        assert!(lan.send(node, node, PeerMsg::Shutdown));
        s.join().unwrap();
    }
}

fn wakeups(registry: &Registry, node: usize) -> u64 {
    registry.snapshot().counter_sum_where(
        "ccm_net_reactor_wakeups_total",
        "node",
        &node.to_string(),
    )
}

/// An idle reactor costs nothing: with all 12 links of a 4-node mesh
/// dialled and nothing to carry, each reactor wakes at most a handful of
/// times in 300 ms. (A reactor that polls on a timer, however long, wakes
/// hundreds of times.)
#[test]
fn an_idle_mesh_makes_no_reactor_wakeups() {
    let registry = Registry::new();
    let lan = TcpLan::loopback_obs(4, &registry).expect("bind loopback");
    let services = dialled_mesh(&lan, 4);
    assert_eq!(lan.net_stats().connects, 12);
    std::thread::sleep(Duration::from_millis(50)); // let the last acks land
    let before: Vec<u64> = (0..4).map(|n| wakeups(&registry, n)).collect();
    assert!(before.iter().all(|&w| w > 0), "dialling woke every reactor");
    std::thread::sleep(Duration::from_millis(300));
    for (node, before) in before.into_iter().enumerate() {
        let woke = wakeups(&registry, node) - before;
        assert!(
            woke <= 8,
            "reactor {node} woke {woke} times in 300 ms with nothing to do"
        );
    }
    stop(&lan, services);
}

/// Reactors asleep in the kernel with no timeout must still notice the
/// transport going away at once.
#[test]
fn dropping_an_idle_transport_is_prompt() {
    let lan = TcpLan::loopback(4).expect("bind loopback");
    let services = dialled_mesh(&lan, 4);
    stop(&lan, services);
    std::thread::sleep(Duration::from_millis(50)); // everyone back to sleep
    let t = Instant::now();
    drop(lan);
    assert!(
        t.elapsed() < Duration::from_millis(100),
        "drop(TcpLan) took {:?} with idle reactors",
        t.elapsed()
    );
}

/// A connection that never says Hello is closed at its deadline (5 s) even
/// though no traffic wakes the reactor in the meantime. Ignored by default
/// because it has to sit the deadline out; CI's `release` job runs it.
#[test]
#[ignore = "sits out the 5 s Hello deadline"]
fn a_silent_connection_is_closed_at_the_hello_deadline() {
    let lan = TcpLan::loopback(2).expect("bind loopback");
    let _rx0 = lan.reconnect(NodeId(0));
    let mut raw = TcpStream::connect(lan.addr(NodeId(0))).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let t = Instant::now();
    let mut buf = [0u8; 16];
    // EOF (or a reset) is the reactor dropping us; a read timeout is not.
    let res = raw.read(&mut buf);
    let waited = t.elapsed();
    let closed = match &res {
        Ok(0) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        Ok(_) => false,
    };
    assert!(closed, "the silent connection was never closed: {res:?}");
    assert!(
        waited >= Duration::from_millis(4_500),
        "closed after {waited:?}: before the Hello deadline"
    );
    assert!(
        waited <= Duration::from_secs(6),
        "closed after {waited:?}: the deadline did not wake the reactor"
    );
}

/// No lost wake-up: after 200 ms of silence every reactor involved is
/// asleep, and the next fetch must still complete promptly — bounded well
/// below any timer a polling reactor could hide behind.
#[test]
fn a_fetch_after_silence_is_prompt() {
    let registry = Registry::new();
    let lan = TcpLan::loopback_obs(2, &registry).expect("bind loopback");
    let services = dialled_mesh(&lan, 2);
    let stores: BlockStores = (0..2).map(|_| ShardedMap::new()).collect();
    stores[1].insert(block(7), payload(7));
    lan.attach_stores(stores);
    let mut best = Duration::MAX;
    for round in 0..3 {
        std::thread::sleep(Duration::from_millis(200));
        let t = Instant::now();
        let got = lan.fetch_block(NodeId(0), NodeId(1), block(7), TIMEOUT);
        let took = t.elapsed();
        assert_eq!(got.as_deref(), Some(&payload(7)[..]));
        assert!(
            took < Duration::from_secs(1),
            "round {round}: {took:?} — a wake-up was lost"
        );
        best = best.min(took);
    }
    assert!(
        best < Duration::from_millis(5),
        "best of three fetches after silence took {best:?}"
    );
    assert_eq!(
        registry
            .snapshot()
            .counter_sum("ccm_net_reactor_served_total"),
        3,
        "the store hits never reached the service thread"
    );
    stop(&lan, services);
}

/// The caller reads its own replies: on a warm, quiet 2-node mesh one
/// `fetch_block` and one 4-block `fetch_blocks`, both served from the
/// holder's store, come back without one wake-up of the *requesting*
/// node's reactor. Only the holder's reactor, which serves them, and the
/// caller itself wake; a reply that went through the requester's reactor
/// and a channel hand-off would count at least one per reply train.
#[test]
fn a_fetch_leaves_the_requesting_reactor_asleep() {
    let registry = Registry::new();
    let lan = TcpLan::loopback_obs(2, &registry).expect("bind loopback");
    let services = dialled_mesh(&lan, 2);
    let stores: BlockStores = (0..2).map(|_| ShardedMap::new()).collect();
    for i in 0..4 {
        stores[1].insert(block(i), payload(i));
    }
    lan.attach_stores(stores);
    std::thread::sleep(Duration::from_millis(50)); // let the last pongs land
    let before = wakeups(&registry, 0);

    let got = lan.fetch_block(NodeId(0), NodeId(1), block(0), TIMEOUT);
    assert_eq!(got.as_deref(), Some(&payload(0)[..]));
    let blocks: Vec<BlockId> = (0..4).map(block).collect();
    let got = lan.fetch_blocks(NodeId(0), NodeId(1), &blocks, TIMEOUT);
    for (b, data) in blocks.iter().zip(&got) {
        assert_eq!(data.as_deref(), Some(&payload(b.index)[..]));
    }

    assert_eq!(
        wakeups(&registry, 0) - before,
        0,
        "the requesting node's reactor woke for replies its caller reads"
    );
    assert_eq!(
        registry
            .snapshot()
            .counter_sum("ccm_net_reactor_served_total"),
        5,
        "every block was a store hit at the holder's reactor"
    );
    stop(&lan, services);
}

/// The holder's service thread writes its own replies. On a warm 2-node
/// mesh, each of a batch of store-miss fetches, wire barriers and pings
/// wakes the holder's reactor exactly once, for the request frame, and the
/// requesting node's reactor not at all: the caller reads its own reply. A
/// reactor that had to learn of the service thread's answer itself would
/// wake again for it, and one that polled for it, many times.
#[test]
fn a_service_thread_answer_wakes_the_holders_reactor_once() {
    const N: u64 = 100;
    let registry = Registry::new();
    let lan = TcpLan::loopback_obs(2, &registry).expect("bind loopback");
    let services = dialled_mesh(&lan, 2);
    // Stores attached but empty: every fetch is a store miss.
    lan.attach_stores((0..2).map(|_| ShardedMap::new()).collect());
    std::thread::sleep(Duration::from_millis(50)); // let the last pongs land
    let fetch = |i: u64| {
        let got = lan.fetch_block(NodeId(0), NodeId(1), block(i as u32), TIMEOUT);
        got.as_deref() == Some(&payload(i as u32)[..])
    };
    let barrier = |_| lan.barrier(NodeId(1), TIMEOUT);
    let ping = |_| lan.ping(NodeId(0), NodeId(1), TIMEOUT);
    let kinds: [(&str, &dyn Fn(u64) -> bool); 3] =
        [("fetch", &fetch), ("barrier", &barrier), ("ping", &ping)];
    for (kind, op) in kinds {
        let before = [wakeups(&registry, 0), wakeups(&registry, 1)];
        for i in 0..N {
            assert!(op(i), "{kind} {i} was not answered");
        }
        let woke = [
            wakeups(&registry, 0) - before[0],
            wakeups(&registry, 1) - before[1],
        ];
        assert_eq!(
            woke,
            [0, N],
            "{kind}: reactor wake-ups [requester, holder] over {N} operations"
        );
    }
    assert_eq!(
        registry
            .snapshot()
            .counter_sum("ccm_net_reactor_served_total"),
        0,
        "every fetch went through the service thread"
    );
    stop(&lan, services);
}

/// More bytes than a socket buffer holds, in both directions, against a
/// peer whose service thread is held behind a gate. Request side: a writer
/// that finds the socket full hands the remainder to its node's reactor,
/// which finishes it on writability, and the pushers behind it yield at
/// the staged-bytes cap; that ends because the peer's reactor — blocked in
/// its readiness wait — is woken by the bytes and drains them into the
/// (unbounded) inbox whatever the service thread is doing. Reply side: 64
/// blocks (512 KiB) come back, written by the service thread as far as the
/// socket takes them, while the caller reads them.
#[test]
fn trains_larger_than_the_socket_buffer_drain_both_ways() {
    let lan = Arc::new(TcpLan::loopback(2).expect("bind loopback"));
    let _rx0 = lan.reconnect(NodeId(0));
    let (open_gate, gate) = unbounded();
    let service = serve(lan.reconnect(NodeId(1)), Some(gate));

    // 2 writers x 512 forwards x 8 KiB = 8 MiB toward the gated peer.
    const PER_WRITER: u32 = 512;
    let writers: Vec<_> = (0..2u32)
        .map(|w| {
            let lan = lan.clone();
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let b = block(w * PER_WRITER + i);
                    let msg = PeerMsg::Forward {
                        block: b,
                        data: payload(b.index),
                        displace: None,
                    };
                    assert!(lan.send(NodeId(0), NodeId(1), msg));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("a writer stuck on a full socket");
    }

    // 64 requests in one train; nothing is answered while the gate holds.
    let blocks: Vec<BlockId> = (0..64).map(block).collect();
    let fetcher = std::thread::spawn({
        let lan = lan.clone();
        let blocks = blocks.clone();
        move || lan.fetch_blocks(NodeId(0), NodeId(1), &blocks, TIMEOUT)
    });
    std::thread::sleep(Duration::from_millis(50));
    open_gate.send(()).expect("service waits at the gate");
    let got = fetcher.join().unwrap();
    for (b, data) in blocks.iter().zip(&got) {
        assert_eq!(data.as_deref(), Some(&payload(b.index)[..]));
    }

    assert!(lan.barrier(NodeId(1), TIMEOUT));
    assert!(lan.send(NodeId(1), NodeId(1), PeerMsg::Shutdown));
    let forwards = service.join().unwrap();
    assert_eq!(forwards.len(), 2 * PER_WRITER as usize, "forwards lost");
    for w in 0..2u32 {
        let mine: Vec<u32> = forwards
            .iter()
            .copied()
            .filter(|i| i / PER_WRITER == w)
            .collect();
        assert!(
            mine.windows(2).all(|p| p[0] < p[1]),
            "writer {w}'s forwards were reordered"
        );
    }
}

/// Replies nobody reads for a while: 1024 blocks (8 MiB) answered by the
/// service thread while the caller that issued them has not started to
/// wait. No writer blocks on the full socket — the service thread hands
/// what it does not take to the holder's reactor, which finishes it when
/// the caller's reads make room — and every block arrives intact.
#[test]
fn a_reply_remainder_is_finished_by_the_reactor() {
    let lan = TcpLan::loopback(2).expect("bind loopback");
    let _rx0 = lan.reconnect(NodeId(0));
    let (open_gate, gate) = unbounded();
    let service = serve(lan.reconnect(NodeId(1)), Some(gate));
    let blocks: Vec<BlockId> = (0..1024).map(block).collect();
    let pending = lan.issue(NodeId(0), NodeId(1), &blocks);
    open_gate.send(()).expect("service waits at the gate");
    std::thread::sleep(Duration::from_millis(100)); // nobody reads meanwhile
    let got = pending.wait(TIMEOUT);
    for (b, data) in blocks.iter().zip(&got) {
        assert_eq!(data.as_deref(), Some(&payload(b.index)[..]));
    }
    assert!(lan.send(NodeId(1), NodeId(1), PeerMsg::Shutdown));
    service.join().unwrap();
}
