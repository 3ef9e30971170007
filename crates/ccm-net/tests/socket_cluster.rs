//! Socket-mode integration tests: the cooperative caching runtime over
//! [`TcpLan`] must behave exactly like it does over the in-process channel
//! LAN, and peer links must survive a node crash/restart cycle.
//!
//! The acceptance oracle is strict: driving the *same* deterministic trace
//! workload through a channel-LAN cluster and a TCP cluster must produce
//! bit-identical bytes for every read and identical protocol statistics.
//! The workload and the digest-folding driver are `ccm-testkit`'s
//! [`acceptance_workload`] and [`drive`] — one copy, both backends.

use ccm_core::{BlockId, FileId, NodeId, ReplacementPolicy};
use ccm_net::TcpLan;
use ccm_rt::store::read_file_direct;
use ccm_rt::{Catalog, Middleware, ReplyTo, RtConfig, SyntheticStore, Transport};
use ccm_testkit::{acceptance_workload, drive, start_cluster, Backend};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cluster_config(nodes: usize) -> RtConfig {
    RtConfig {
        nodes,
        capacity_blocks: 24,
        policy: ReplacementPolicy::MasterPreserving,
        fetch_timeout: Duration::from_secs(2),
        faults: None,
        ..RtConfig::default()
    }
}

/// Acceptance: a 4-node cluster serving the trace workload over TCP
/// delivers bit-identical bytes — and identical protocol statistics — to
/// the same cluster over the channel LAN.
#[test]
fn tcp_cluster_matches_channel_lan_bit_for_bit() {
    let nodes = 4;
    let ops = 250;
    let wl = acceptance_workload();
    let catalog = Catalog::new(wl.sizes().to_vec());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));

    let chan_cluster = start_cluster(
        Backend::Channel,
        cluster_config(nodes),
        catalog.clone(),
        store.clone(),
    );
    let chan = drive(&chan_cluster, &*store, &catalog, &wl, nodes, ops, 11);
    chan_cluster.shutdown();

    let tcp_cluster = start_cluster(
        Backend::Tcp,
        cluster_config(nodes),
        catalog.clone(),
        store.clone(),
    );
    let lan = tcp_cluster.lan.clone().expect("tcp backend keeps its lan");
    let tcp = drive(&tcp_cluster, &*store, &catalog, &wl, nodes, ops, 11);
    tcp_cluster.shutdown();

    assert_eq!(
        chan.digest, tcp.digest,
        "byte digests diverge between backends"
    );
    assert_eq!(
        chan.stats, tcp.stats,
        "protocol statistics (fallback counts included) diverge between backends"
    );
    // The workload must actually exercise the wire: remote fetches happened
    // and the TCP backend moved real frames.
    assert!(
        tcp.stats.remote_hits > 0,
        "no remote hits: wire never exercised"
    );
    let ns = lan.net_stats();
    assert!(ns.connects > 0, "no TCP connections were established");
    assert!(
        ns.frames_sent > ns.connects,
        "no data frames beyond the hellos"
    );
}

/// Satellite (d): crash a node mid-stream, restart it, and the peer links
/// re-establish — remote fetches through the revived node succeed with
/// exact bytes and no extra disk fallbacks.
#[test]
fn peer_link_reestablishes_after_crash_and_restart() {
    let nodes = 4;
    let catalog = Catalog::new(vec![40_000; 12]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 13));
    let lan = Arc::new(TcpLan::loopback(nodes).expect("bind loopback listeners"));
    let cfg = RtConfig {
        transport: Some(lan.clone()),
        ..cluster_config(nodes)
    };
    let mw = Middleware::start(cfg, catalog.clone(), store.clone());
    let victim = NodeId(1);
    let reader = NodeId(0);

    // Warm the wire: victim masters file 2, reader fetches it remotely.
    let f = FileId(2);
    mw.handle(victim).read_file(f);
    let got = mw.handle(reader).read_file(f);
    assert_eq!(got, read_file_direct(&*store, &catalog, f));
    assert!(mw.stats().remote_hits > 0, "warm-up never hit the wire");
    let before = lan.net_stats();
    assert!(before.connects > 0);

    // Crash mid-stream: in-flight connections to and from the victim die.
    mw.crash_node(victim);
    assert!(!mw.is_alive(victim));
    mw.check_invariants();
    mw.restart_node(victim);
    assert!(mw.is_alive(victim));
    mw.check_invariants();
    let after_restart = lan.net_stats();
    assert!(
        after_restart.teardowns > before.teardowns,
        "restart must sever the victim's connections"
    );

    // The revived node masters a fresh file; a remote fetch of it forces a
    // new dial over the previously severed link.
    let g = FileId(7);
    mw.handle(victim).read_file(g);
    let fallbacks_before = mw.stats().store_fallbacks;
    let hits_before = mw.stats().remote_hits;
    let got = mw.handle(reader).read_file(g);
    assert_eq!(
        got,
        read_file_direct(&*store, &catalog, g),
        "post-restart remote read corrupted"
    );
    assert!(
        mw.stats().remote_hits > hits_before,
        "post-restart read did not travel the re-established link"
    );
    assert_eq!(
        mw.stats().store_fallbacks,
        fallbacks_before,
        "re-established link must serve without disk fallback"
    );
    assert!(
        lan.net_stats().connects > after_restart.connects,
        "no re-dial happened"
    );

    // And the reverse direction: the revived node fetches from a peer.
    let h = FileId(9);
    mw.handle(reader).read_file(h);
    let got = mw.handle(victim).read_file(h);
    assert_eq!(got, read_file_direct(&*store, &catalog, h));
    mw.quiesce();
    mw.check_invariants();
    mw.shutdown();
}

/// Raw transport behavior, no middleware: a live service answers block
/// requests and barriers; a dead inbox (crashed incarnation) makes the
/// requester observe a disconnect well before its deadline — the degrade-
/// to-disk path is fast, not a hang.
#[test]
fn dead_incarnation_degrades_fast_instead_of_hanging() {
    let lan = Arc::new(TcpLan::loopback(2).expect("bind loopback listeners"));
    let _rx0 = lan.reconnect(NodeId(0));
    let rx1 = lan.reconnect(NodeId(1));
    let block = BlockId::new(FileId(3), 1);

    // A minimal node-1 service: answer block requests with a recognizable
    // payload until the inbox dies.
    let service = std::thread::spawn(move || {
        while let Ok(msg) = rx1.recv() {
            match msg {
                ccm_rt::PeerMsg::BlockRequest { block, reply } => {
                    let _ = reply.send(Some(vec![block.index as u8; 16].into()));
                }
                ccm_rt::PeerMsg::Barrier { reply } => {
                    let _ = reply.send(());
                }
                ccm_rt::PeerMsg::Shutdown => break,
                _ => {}
            }
        }
    });

    let got = lan.fetch_block(NodeId(0), NodeId(1), block, Duration::from_secs(2));
    assert_eq!(
        got.as_deref(),
        Some(&[1u8; 16][..]),
        "live fetch over TCP failed"
    );
    assert!(lan.barrier(NodeId(1), Duration::from_secs(2)));

    // Kill the incarnation: the service drains its inbox and exits.
    assert!(lan.send(NodeId(1), NodeId(1), ccm_rt::PeerMsg::Shutdown));
    service.join().expect("service thread");

    // The demux can no longer deliver, so the connection dies and the
    // requester sees a disconnect (None) — quickly, not at the deadline.
    let start = Instant::now();
    let got = lan.fetch_block(NodeId(0), NodeId(1), block, Duration::from_secs(5));
    assert_eq!(got, None, "dead incarnation must miss");
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "dead-peer fetch should disconnect early, took {:?}",
        start.elapsed()
    );

    // Immediately after the teardown the link is in backoff: sends fail
    // fast (the caller's disk-fallback path), they do not stall.
    let start = Instant::now();
    let got = lan.fetch_block(NodeId(0), NodeId(1), block, Duration::from_secs(5));
    assert_eq!(got, None);
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "backoff send should fail fast, took {:?}",
        start.elapsed()
    );
    assert!(lan.net_stats().teardowns >= 1);
}

/// Heartbeat frames on the wire: a cross-node ping travels as a real
/// `Ping`/`Pong` frame pair (src != dst, so no local short-circuit), and
/// once the peer's service thread is gone the ping fails instead of
/// hanging — the membership monitor's miss signal.
#[test]
fn wire_ping_round_trips_and_detects_death() {
    let lan = Arc::new(TcpLan::loopback(2).expect("bind loopback listeners"));
    let _rx0 = lan.reconnect(NodeId(0));
    let rx1 = lan.reconnect(NodeId(1));
    let service = std::thread::spawn(move || {
        while let Ok(msg) = rx1.recv() {
            match msg {
                ccm_rt::PeerMsg::Ping { reply } => {
                    let _ = reply.send(());
                }
                ccm_rt::PeerMsg::Shutdown => break,
                _ => {}
            }
        }
    });

    let before = lan.net_stats();
    assert!(
        lan.ping(NodeId(0), NodeId(1), Duration::from_secs(2)),
        "cross-node ping must round-trip over the wire"
    );
    let after = lan.net_stats();
    assert!(
        after.frames_sent > before.frames_sent,
        "ping never produced a wire frame"
    );

    assert!(lan.send(NodeId(1), NodeId(1), ccm_rt::PeerMsg::Shutdown));
    service.join().expect("service thread");

    let start = Instant::now();
    assert!(
        !lan.ping(NodeId(0), NodeId(1), Duration::from_secs(5)),
        "ping to a dead incarnation must miss"
    );
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "dead-peer ping should disconnect early, took {:?}",
        start.elapsed()
    );
}

/// A remote block request, barrier or ping goes on the wire only through
/// `Transport::issue`, `Transport::barrier` and `Transport::ping`, whose
/// callers read their own replies. Handed to `send` instead, it is refused
/// at once and counted as a degrade: the reply is dropped unsent and the
/// link stays up.
#[test]
fn a_remote_barrier_or_ping_through_send_is_refused() {
    let registry = ccm_obs::Registry::new();
    let lan = TcpLan::loopback_obs(2, &registry).expect("bind loopback listeners");
    let _rx0 = lan.reconnect(NodeId(0));
    let rx1 = lan.reconnect(NodeId(1));
    let service = std::thread::spawn(move || {
        while let Ok(msg) = rx1.recv() {
            match msg {
                ccm_rt::PeerMsg::BlockRequest { block, reply } => {
                    let _ = reply.send(Some(vec![block.index as u8].into()));
                }
                ccm_rt::PeerMsg::Ping { reply } | ccm_rt::PeerMsg::Barrier { reply } => {
                    let _ = reply.send(());
                }
                ccm_rt::PeerMsg::Shutdown => break,
                _ => {}
            }
        }
    });
    let block = BlockId::new(FileId(0), 5);
    let fetch = |lan: &TcpLan| lan.fetch_block(NodeId(0), NodeId(1), block, Duration::from_secs(2));
    assert!(lan.ping(NodeId(0), NodeId(1), Duration::from_secs(2)));
    assert_eq!(fetch(&lan).as_deref(), Some(&[5u8][..]));
    let (reply, rx) = ReplyTo::channel();
    let fetch_msg = ccm_rt::PeerMsg::BlockRequest { block, reply };
    assert!(!lan.send(NodeId(0), NodeId(1), fetch_msg));
    assert!(
        rx.recv().is_err(),
        "the refused fetch's reply was dropped unsent"
    );
    for ping in [true, false] {
        let (reply, rx) = ReplyTo::channel();
        let msg = if ping {
            ccm_rt::PeerMsg::Ping { reply }
        } else {
            ccm_rt::PeerMsg::Barrier { reply }
        };
        assert!(!lan.send(NodeId(0), NodeId(1), msg));
        assert!(rx.recv().is_err(), "the refused reply was dropped unsent");
    }
    let snap = registry.snapshot();
    let degrades = snap.find("ccm_net_degrades_total", &[("dst", "1"), ("src", "0")]);
    assert!(
        matches!(degrades.map(|m| &m.value), Some(ccm_obs::Value::Counter(3))),
        "each refusal counts one degrade: {degrades:?}"
    );
    assert!(lan.ping(NodeId(0), NodeId(1), Duration::from_secs(2)));
    assert!(lan.barrier(NodeId(1), Duration::from_secs(2)));
    assert_eq!(fetch(&lan).as_deref(), Some(&[5u8][..]));
    assert_eq!(lan.net_stats().teardowns, 0, "the link stayed up");
    assert!(lan.send(NodeId(1), NodeId(1), ccm_rt::PeerMsg::Shutdown));
    service.join().expect("service thread");
}
