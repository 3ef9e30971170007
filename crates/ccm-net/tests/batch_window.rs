//! Flush-window edge cases for the batched frame-train data plane.
//!
//! The sender coalesces outstanding frames into vectored frame trains, but
//! the window is opportunistic — whoever finds the outbox unflushed writes
//! it now. These tests pin the boundaries of that design:
//!
//! * a **lone** request must flush immediately (no batching timer, no
//!   latency tax when there is nothing to coalesce with);
//! * a train staged **exactly to the byte cap** must compose, flush (in
//!   partial writes if the socket pushes back), and reassemble intact;
//! * a frame **at the 1 MiB frame cap** must round-trip even when it
//!   arrives straddled across many reads, while one byte over is rejected
//!   as corruption, not a panic or a hang;
//! * a peer that **dies mid-train** must fail the batch's pending replies
//!   fast — `None` well before the fetch deadline, so callers degrade to
//!   the backing store — and the failure must be counted.

use ccm_core::{BlockId, FileId, NodeId};
use ccm_net::wire::{FrameAssembler, FrameTrain, WireMsg, MAX_FRAME};
use ccm_net::{TcpLan, MAX_TRAIN_BYTES};
use ccm_rt::{PeerMsg, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A peer service answering block requests with `fill`-byte payloads,
/// stopping (and dropping its inbox) after `answer` replies if `answer`
/// is finite.
fn serve_n(
    rx: simcore::chan::Receiver<PeerMsg>,
    payload_len: usize,
    answer: Option<u64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut left = answer;
        while let Ok(msg) = rx.recv() {
            match msg {
                PeerMsg::BlockRequest { block, reply } => {
                    let _ = reply.send(Some(vec![block.index as u8; payload_len].into()));
                    if let Some(n) = left.as_mut() {
                        *n -= 1;
                        if *n == 0 {
                            break; // die mid-batch: inbox receiver drops
                        }
                    }
                }
                PeerMsg::Shutdown => break,
                _ => {}
            }
        }
    })
}

/// A lone request has nobody to coalesce with: the sender must put it on
/// the wire immediately rather than holding it for a batching window.
/// Strictly serial traffic therefore shows a coalescing factor of exactly
/// 1 — every frame rides its own train — and each round trip completes in
/// microseconds, not any timer tick.
#[test]
fn lone_request_flushes_immediately() {
    let lan = Arc::new(TcpLan::loopback(2).expect("bind loopback listeners"));
    let _rx0 = lan.reconnect(NodeId(0));
    let service = serve_n(lan.reconnect(NodeId(1)), 64, None);
    let block = BlockId::new(FileId(0), 0);

    // Warm the connection (Hello frames, dial) out of the measurement.
    for _ in 0..8 {
        lan.fetch_block(NodeId(0), NodeId(1), block, Duration::from_secs(2))
            .expect("warmup hit");
    }
    let before = lan.net_stats();
    let n = 50u64;
    let t0 = Instant::now();
    for _ in 0..n {
        lan.fetch_block(NodeId(0), NodeId(1), block, Duration::from_secs(2))
            .expect("hit");
    }
    let elapsed = t0.elapsed();
    let after = lan.net_stats();

    // One request frame out, one reply frame back, per fetch.
    assert_eq!(after.frames_sent - before.frames_sent, 2 * n);
    assert_eq!(
        after.trains_sent - before.trains_sent,
        after.frames_sent - before.frames_sent,
        "serial frames must each flush as their own train (no window wait)"
    );
    // Generous even for an unoptimized build on a loaded box; any
    // millisecond-scale flush timer would blow it by orders of magnitude.
    assert!(
        elapsed < Duration::from_millis(10 * n),
        "{n} serial fetches took {elapsed:?} — lone frames are being held back"
    );

    assert!(lan.send(NodeId(1), NodeId(1), PeerMsg::Shutdown));
    service.join().unwrap();
}

/// Compose a train whose staged bytes land exactly on the configured
/// per-connection cap, then flush it through a writer that accepts only
/// small slices — the partial-flush resume path — and reassemble every
/// frame bit-for-bit.
#[test]
fn exactly_full_train_flushes_and_reassembles() {
    let cap = MAX_TRAIN_BYTES;
    let mut train = FrameTrain::new();

    // Learn the per-frame overhead empirically so the test tracks the
    // encoding: a reply frame's wire size minus its payload length.
    let probe: Arc<[u8]> = vec![0u8; 1024].into();
    let overhead = {
        let mut t = FrameTrain::new();
        t.push(&WireMsg::BlockReply {
            req_id: 0,
            data: Some(probe),
        }) - 1024
    };

    let chunk = 8192usize;
    let mut req_id = 0u64;
    while (train.bytes() as usize) + overhead + chunk <= cap {
        let data: Arc<[u8]> = vec![(req_id % 251) as u8; chunk].into();
        train.push(&WireMsg::BlockReply {
            req_id,
            data: Some(data),
        });
        req_id += 1;
    }
    let remaining = cap - train.bytes() as usize;
    assert!(remaining >= overhead, "cap leaves room for a final frame");
    let data: Arc<[u8]> = vec![7u8; remaining - overhead].into();
    train.push(&WireMsg::BlockReply {
        req_id,
        data: Some(data),
    });
    assert_eq!(train.bytes() as usize, cap, "train filled to the byte");
    let staged = train.frames();

    // A writer that takes at most 4000 bytes per call: every frame
    // boundary in the train gets straddled by some write.
    struct Dribble(Vec<u8>);
    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(4000);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut out = Dribble(Vec::new());
    while !train.write_some(&mut out).unwrap() {}
    assert_eq!(out.0.len(), cap);

    let mut asm = FrameAssembler::new();
    let mut decoded = 0u64;
    for piece in out.0.chunks(4093) {
        asm.extend(piece);
        while let Some((msg, _)) = asm.next_frame().unwrap() {
            match msg {
                WireMsg::BlockReply {
                    req_id,
                    data: Some(data),
                } => {
                    let want = if req_id + 1 == staged {
                        7u8
                    } else {
                        (req_id % 251) as u8
                    };
                    assert!(data.iter().all(|b| *b == want), "frame {req_id} corrupted");
                }
                other => panic!("unexpected frame {other:?}"),
            }
            decoded += 1;
        }
    }
    assert_eq!(asm.pending_bytes(), 0, "no bytes left over");
    assert_eq!(decoded, staged, "every staged frame reassembled");
}

/// A frame sized exactly at [`MAX_FRAME`] must survive arriving straddled
/// across many small reads; a length prefix one byte over the cap must be
/// rejected as corruption (error, not panic, not an unbounded buffer).
#[test]
fn frame_at_the_cap_straddles_reads_and_over_cap_is_rejected() {
    // payload_len such that the encoded frame payload is exactly MAX_FRAME:
    // reply encoding is tag(1) + req_id(8) + presence(1) + len(4) + data.
    let data_len = MAX_FRAME as usize - (1 + 8 + 1 + 4);
    let data: Arc<[u8]> = vec![0xA5u8; data_len].into();
    let msg = WireMsg::BlockReply {
        req_id: 99,
        data: Some(data),
    };
    let mut wire = Vec::new();
    let mut train = FrameTrain::new();
    train.push(&msg);
    while !train.write_some(&mut wire).unwrap() {}
    assert_eq!(wire.len(), 4 + MAX_FRAME as usize);

    let mut asm = FrameAssembler::new();
    let mut got = None;
    for piece in wire.chunks(60_000) {
        asm.extend(piece);
        if let Some((m, bytes)) = asm.next_frame().unwrap() {
            assert_eq!(bytes, wire.len() as u64);
            got = Some(m);
        }
    }
    assert_eq!(got, Some(msg), "cap-sized frame must round-trip");

    // One byte over: rejected as soon as the length prefix is readable.
    let mut asm = FrameAssembler::new();
    asm.extend(&(MAX_FRAME + 1).to_le_bytes());
    asm.extend(&[0u8; 32]);
    let err = asm.next_frame().expect_err("oversized frame must error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A peer dying mid-batch must not strand the train's outstanding
/// replies until the deadline: the connection teardown resolves every
/// pending fetch with `None` (the §3 degrade signal) quickly, and the
/// teardown is visible in the wire counters.
#[test]
fn peer_death_mid_train_fails_pending_replies_fast() {
    let lan = Arc::new(TcpLan::loopback(2).expect("bind loopback listeners"));
    let _rx0 = lan.reconnect(NodeId(0));
    // Answer the 4-block warmup batch plus 4 frames of the kill batch,
    // then die with 12 requests still queued.
    let service = serve_n(lan.reconnect(NodeId(1)), 256, Some(8));

    let warm: Vec<BlockId> = (0..4).map(|i| BlockId::new(FileId(1), i)).collect();
    let got = lan.fetch_blocks(NodeId(0), NodeId(1), &warm, Duration::from_secs(2));
    assert!(got.iter().all(|d| d.is_some()), "warmup batch must hit");
    let before = lan.net_stats();

    let blocks: Vec<BlockId> = (0..16).map(|i| BlockId::new(FileId(2), i)).collect();
    let t0 = Instant::now();
    let got = lan.fetch_blocks(NodeId(0), NodeId(1), &blocks, Duration::from_secs(10));
    let elapsed = t0.elapsed();

    assert_eq!(got.len(), blocks.len(), "every slot resolves");
    let misses = got.iter().filter(|d| d.is_none()).count();
    assert!(
        misses >= 12,
        "at least the unanswered requests must fail ({misses} misses)"
    );
    assert!(
        elapsed < Duration::from_secs(4),
        "pending replies must fail fast on teardown, not wait out the \
         10s deadline (took {elapsed:?})"
    );
    // The connection survives — the orphaned requests' reply sinks answered
    // them with explicit misses. The *next* delivery attempt hits the
    // dead inbox, and that is when the teardown is detected and counted.
    let t0 = Instant::now();
    let got = lan.fetch_block(
        NodeId(0),
        NodeId(1),
        BlockId::new(FileId(2), 0),
        Duration::from_secs(10),
    );
    assert_eq!(got, None, "dead incarnation must miss");
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "post-death fetch must fail fast (took {:?})",
        t0.elapsed()
    );
    let after = lan.net_stats();
    assert!(
        after.teardowns > before.teardowns,
        "the death must be counted as a connection teardown"
    );
    service.join().unwrap();
}
