//! Property tests for the wire codec: every [`WireMsg`] survives an
//! encode/decode round trip bit-exactly, and the decoder rejects — without
//! panicking or over-reading — every truncation of a valid frame and
//! arbitrary garbage. The batched data plane gets the same treatment:
//! random frame trains written through [`FrameTrain`] (vectored, partial
//! writes) reassemble bit-exactly through [`FrameAssembler`] at every
//! split boundary, and truncation/garbage at any train offset is rejected,
//! never silently tolerated.

use ccm_core::{BlockId, FileId, NodeId};
use ccm_net::{decode, encode, write_frame, DecodeError, FrameAssembler, FrameTrain, WireMsg};
use proptest::prelude::*;
use std::sync::Arc;

/// A strategy over full-range block ids.
fn block() -> impl Strategy<Value = BlockId> {
    (any::<u32>(), any::<u32>()).prop_map(|(f, i)| BlockId::new(FileId(f), i))
}

/// A strategy over payload bytes (empty through a few KB; the codec is
/// length-driven, so size coverage matters more than content — the range
/// straddles [`FrameTrain::ZERO_COPY_MIN`] so both the copied and the
/// spliced encode paths are exercised).
fn payload() -> impl Strategy<Value = Arc<[u8]>> {
    prop::collection::vec(any::<u8>(), 0..4096).prop_map(Arc::<[u8]>::from)
}

/// A strategy covering every message variant.
fn wire_msg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(version, node)| WireMsg::Hello {
            version,
            node: NodeId(node),
        }),
        (any::<u64>(), block()).prop_map(|(req_id, block)| WireMsg::BlockRequest { req_id, block }),
        (any::<u64>(), prop::option::of(payload()))
            .prop_map(|(req_id, data)| WireMsg::BlockReply { req_id, data }),
        (block(), payload(), prop::option::of(block())).prop_map(|(block, data, displace)| {
            WireMsg::Forward {
                block,
                data,
                displace,
            }
        }),
        block().prop_map(|block| WireMsg::WriteInvalidate { block }),
        any::<u64>().prop_map(|req_id| WireMsg::Barrier { req_id }),
        any::<u64>().prop_map(|req_id| WireMsg::BarrierAck { req_id }),
        any::<u64>().prop_map(|req_id| WireMsg::Ping { req_id }),
        any::<u64>().prop_map(|req_id| WireMsg::Pong { req_id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encode → decode is the identity for every variant.
    #[test]
    fn roundtrip_is_identity(msg in wire_msg()) {
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        prop_assert_eq!(decode(&buf), Ok(msg));
    }

    /// Every strict prefix of a valid payload is rejected as truncated —
    /// never accepted, never panicking, never reading past the slice.
    #[test]
    fn every_truncation_is_rejected(msg in wire_msg()) {
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        for cut in 0..buf.len() {
            let got = decode(&buf[..cut]);
            prop_assert!(
                got.is_err(),
                "prefix of {} of {} bytes decoded to {:?}",
                cut,
                buf.len(),
                got
            );
        }
    }

    /// Appending garbage to a valid payload is rejected: a frame must be
    /// consumed exactly.
    #[test]
    fn trailing_garbage_is_rejected(msg in wire_msg(), junk in 1u8..=255) {
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        buf.push(junk);
        prop_assert_eq!(decode(&buf), Err(DecodeError::TrailingBytes));
    }

    /// Arbitrary byte soup never panics the decoder; whatever it returns is
    /// a total function of the input.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let first = decode(&bytes);
        prop_assert_eq!(decode(&bytes), first);
    }

    /// A corrupted tag byte outside the known set (tag 4 is retired) is an
    /// UnknownTag error.
    #[test]
    fn unknown_tags_are_rejected(msg in wire_msg(), tag in prop_oneof![Just(4u8), 10u8..=255]) {
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        buf[0] = tag;
        prop_assert_eq!(decode(&buf), Err(DecodeError::UnknownTag(tag)));
    }
}

/// Extreme values survive the round trip (belt to the property's suspenders:
/// these exact corners always run, regardless of generator luck).
#[test]
fn corner_values_roundtrip() {
    let corners = [
        WireMsg::Hello {
            version: u8::MAX,
            node: NodeId(u16::MAX),
        },
        WireMsg::BlockRequest {
            req_id: u64::MAX,
            block: BlockId::new(FileId(u32::MAX), u32::MAX),
        },
        WireMsg::BlockReply {
            req_id: 0,
            data: Some(Vec::new().into()),
        },
        WireMsg::BlockReply {
            req_id: u64::MAX,
            data: None,
        },
        WireMsg::Forward {
            block: BlockId::new(FileId(0), 0),
            data: vec![0xAB; 8192].into(),
            displace: Some(BlockId::new(FileId(u32::MAX), 0)),
        },
    ];
    for msg in corners {
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        assert_eq!(decode(&buf), Ok(msg));
    }
}

/// A writer that accepts at most `cap` bytes per call and interleaves
/// `WouldBlock`, modelling a congested nonblocking socket.
struct Throttled {
    out: Vec<u8>,
    cap: usize,
    calls: usize,
}

impl std::io::Write for Throttled {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.cap);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random train written through the vectored partial-write path is
    /// byte-identical to the per-frame `write_frame` stream, and
    /// reassembles to the original messages when the stream is cut into
    /// arbitrary-size reads.
    #[test]
    fn frame_trains_roundtrip_under_partial_io(
        msgs in prop::collection::vec(wire_msg(), 1..12),
        cap in 1usize..2048,
        chunk in 1usize..2048,
    ) {
        let mut train = FrameTrain::new();
        let mut expect = Vec::new();
        for m in &msgs {
            let wire = train.push(m);
            let direct = write_frame(&mut expect, m).unwrap();
            prop_assert_eq!(wire, direct);
        }
        prop_assert_eq!(train.frames(), msgs.len() as u64);
        prop_assert_eq!(train.bytes(), expect.len() as u64);

        let mut w = Throttled { out: Vec::new(), cap, calls: 0 };
        while !train.write_some(&mut w).unwrap() {}
        prop_assert_eq!(&w.out, &expect);

        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for piece in w.out.chunks(chunk) {
            asm.extend(piece);
            while let Some((msg, _)) = asm.next_frame().unwrap() {
                got.push(msg);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(asm.pending_bytes(), 0);
    }

    /// Cutting a train anywhere except a frame boundary leaves the
    /// assembler reporting buffered bytes (mid-frame EOF is detectable);
    /// cutting exactly at a boundary yields precisely the whole frames
    /// before the cut. No cut position panics or mis-decodes.
    #[test]
    fn every_train_truncation_is_detected(
        msgs in prop::collection::vec(wire_msg(), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let mut train = FrameTrain::new();
        let mut boundaries = vec![0usize];
        for m in &msgs {
            let wire = train.push(m);
            boundaries.push(boundaries.last().unwrap() + wire);
        }
        let mut stream = Vec::new();
        prop_assert!(train.write_some(&mut stream).unwrap());

        let cut = (cut_seed as usize) % (stream.len() + 1);
        let mut asm = FrameAssembler::new();
        asm.extend(&stream[..cut]);
        let mut n_complete = 0;
        while asm.next_frame().unwrap().is_some() {
            n_complete += 1;
        }
        let expect_complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(n_complete, expect_complete);
        let at_boundary = boundaries.contains(&cut);
        prop_assert_eq!(asm.pending_bytes() == 0, at_boundary);
    }

    /// Flipping one byte of a train either still parses frame-by-frame
    /// (the flip landed in payload data) or errors — the assembler never
    /// panics, hangs, or reads past its buffer.
    #[test]
    fn corrupted_trains_never_panic(
        msgs in prop::collection::vec(wire_msg(), 1..6),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut train = FrameTrain::new();
        for m in &msgs {
            train.push(m);
        }
        let mut stream = Vec::new();
        prop_assert!(train.write_some(&mut stream).unwrap());
        let pos = (pos_seed as usize) % stream.len();
        stream[pos] ^= flip;

        let mut asm = FrameAssembler::new();
        asm.extend(&stream);
        let mut frames = 0usize;
        loop {
            match asm.next_frame() {
                Ok(Some(_)) => frames += 1,
                Ok(None) => break,
                Err(_) => break, // rejected: fine, just must not panic
            }
            // Every accepted frame consumes ≥ 5 bytes, so this terminates.
            prop_assert!(frames <= stream.len());
        }
    }
}
