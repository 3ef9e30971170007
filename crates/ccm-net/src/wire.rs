//! The wire image of [`PeerMsg`] and its hand-rolled binary codec.
//!
//! `PeerMsg::BlockRequest` carries an in-band reply sink — a structure
//! that cannot leave the process. On the wire that sink becomes a request
//! id: the requester keeps `req_id → waiting train slot` in a pending
//! table (see [`crate::tcp`]) and the responder echoes the id back on
//! [`WireMsg::BlockReply`]. [`PeerMsg::Barrier`] splits the same way into
//! [`WireMsg::Barrier`] / [`WireMsg::BarrierAck`]. `PeerMsg::Shutdown` has
//! no wire form at all: it is control-plane and stays node-local.
//!
//! ## Frame format
//!
//! Every frame is a little-endian length prefix followed by a tagged body
//! (all integers little-endian):
//!
//! ```text
//! frame        := len:u32  payload            len = payload length, bytes
//! payload      := tag:u8 body
//! tag 0 Hello        := version:u8 node:u16
//! tag 1 BlockRequest := req_id:u64 block
//! tag 2 BlockReply   := req_id:u64 present:u8 [len:u32 data]   (if present)
//! tag 3 Forward      := block present:u8 [displaced_block] len:u32 data
//! tag 5 Barrier      := req_id:u64
//! tag 6 BarrierAck   := req_id:u64
//! tag 7 Ping         := req_id:u64
//! tag 8 Pong         := req_id:u64
//! tag 9 WriteInval   := block
//! block        := file:u32 index:u32
//! ```
//!
//! A payload longer than [`MAX_FRAME`] (1 MiB — two orders of magnitude
//! above the 8 KB block size) is rejected before allocation, so a garbage
//! length prefix cannot balloon memory. Decoding is exact: truncated
//! bodies, unknown tags, non-boolean `present` bytes, and trailing garbage
//! are all errors, never silently tolerated.
//!
//! No registry dependencies: this codec is ~200 lines of explicit
//! byte-shuffling, consistent with the workspace's everything-in-tree rule.
//!
//! [`PeerMsg`]: ccm_rt::PeerMsg

use ccm_core::{BlockId, FileId, NodeId};
use std::io::{self, IoSlice, Write};
use std::sync::Arc;

/// Wire protocol version, carried in [`WireMsg::Hello`]; bump on any frame
/// layout change so mismatched peers fail the handshake instead of
/// misparsing each other. Version 2 added the heartbeat frames
/// ([`WireMsg::Ping`] / [`WireMsg::Pong`]); version 3 added the coherence
/// write invalidation ([`WireMsg::WriteInvalidate`]); version 4 dropped
/// the unsent tag 4 invalidation and the write invalidation's version.
pub const WIRE_VERSION: u8 = 4;

/// Hard upper bound on a frame payload, in bytes.
pub const MAX_FRAME: u32 = 1 << 20;

/// A peer message as it crosses the socket. The in-process reply channels
/// of `PeerMsg` are replaced by `req_id` correlation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Connection preamble: the first frame on every connection, naming the
    /// protocol version and the connecting node.
    Hello {
        /// Must equal [`WIRE_VERSION`].
        version: u8,
        /// The connecting (source) node.
        node: NodeId,
    },
    /// "Send me a non-master copy of `block`"; answered by a
    /// [`WireMsg::BlockReply`] echoing `req_id`.
    BlockRequest {
        /// Correlation id, unique per connection manager.
        req_id: u64,
        /// The wanted block.
        block: BlockId,
    },
    /// Answer to a [`WireMsg::BlockRequest`]: the bytes, or `None` if the
    /// responder no longer holds the block (the §3 in-flight race).
    BlockReply {
        /// Correlation id of the request being answered.
        req_id: u64,
        /// The block bytes, if still held. Shared (`Arc<[u8]>`) so the
        /// encoder can splice the buffer into a frame train without copying
        /// and the decoder's allocation is the only one on the fetch path.
        data: Option<Arc<[u8]>>,
    },
    /// An evicted master forwarded here (second chance).
    Forward {
        /// The forwarded block.
        block: BlockId,
        /// Its content (shared, see [`WireMsg::BlockReply::data`]).
        data: Arc<[u8]>,
        /// Block dropped at the destination to make room, if any.
        displace: Option<BlockId>,
    },
    /// Ack request: answered with [`WireMsg::BarrierAck`] once every earlier
    /// frame on this connection has been processed by the service thread.
    Barrier {
        /// Correlation id.
        req_id: u64,
    },
    /// Answer to a [`WireMsg::Barrier`].
    BarrierAck {
        /// Correlation id of the barrier being acked.
        req_id: u64,
    },
    /// Heartbeat probe: answered with [`WireMsg::Pong`] once the
    /// destination's service thread dequeues it — the answer itself is the
    /// proof of liveness.
    Ping {
        /// Correlation id.
        req_id: u64,
    },
    /// Answer to a [`WireMsg::Ping`].
    Pong {
        /// Correlation id of the ping being answered.
        req_id: u64,
    },
    /// A coherence write at the source invalidated the destination's copy
    /// of `block` (fire-and-forget).
    WriteInvalidate {
        /// The written block.
        block: BlockId,
    },
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did.
    Truncated,
    /// The first byte is not a known message tag.
    UnknownTag(u8),
    /// An `Option` presence byte was neither 0 nor 1.
    BadPresence(u8),
    /// An embedded length field disagrees with the payload size.
    BadLength,
    /// Bytes remained after a complete message was decoded.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadPresence(b) => write!(f, "presence byte {b} is not 0/1"),
            DecodeError::BadLength => write!(f, "embedded length exceeds payload"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_HELLO: u8 = 0;
const TAG_BLOCK_REQUEST: u8 = 1;
const TAG_BLOCK_REPLY: u8 = 2;
const TAG_FORWARD: u8 = 3;
const TAG_BARRIER: u8 = 5;
const TAG_BARRIER_ACK: u8 = 6;
const TAG_PING: u8 = 7;
const TAG_PONG: u8 = 8;
const TAG_WRITE_INVALIDATE: u8 = 9;

fn put_block(out: &mut Vec<u8>, block: BlockId) {
    out.extend_from_slice(&block.file.0.to_le_bytes());
    out.extend_from_slice(&block.index.to_le_bytes());
}

fn put_req(out: &mut Vec<u8>, tag: u8, req_id: u64) {
    out.push(tag);
    out.extend_from_slice(&req_id.to_le_bytes());
}

/// Append the payload of `msg` (no length prefix) to `out` — the one
/// encoder of every frame layout. A block of at least
/// [`FrameTrain::ZERO_COPY_MIN`] bytes, always the payload's tail, is not
/// copied but returned, for the caller to append or splice in by reference.
fn put_payload<'m>(msg: &'m WireMsg, out: &mut Vec<u8>) -> Option<&'m Arc<[u8]>> {
    let data = match msg {
        WireMsg::Hello { version, node } => {
            out.extend_from_slice(&[TAG_HELLO, *version]);
            out.extend_from_slice(&node.0.to_le_bytes());
            None
        }
        WireMsg::BlockRequest { req_id, block } => {
            put_req(out, TAG_BLOCK_REQUEST, *req_id);
            put_block(out, *block);
            None
        }
        WireMsg::BlockReply { req_id, data } => {
            put_req(out, TAG_BLOCK_REPLY, *req_id);
            out.push(u8::from(data.is_some()));
            data.as_ref()
        }
        WireMsg::Forward {
            block,
            data,
            displace,
        } => {
            out.push(TAG_FORWARD);
            put_block(out, *block);
            out.push(u8::from(displace.is_some()));
            if let Some(d) = displace {
                put_block(out, *d);
            }
            Some(data)
        }
        WireMsg::WriteInvalidate { block } => {
            out.push(TAG_WRITE_INVALIDATE);
            put_block(out, *block);
            None
        }
        WireMsg::Barrier { req_id } => {
            put_req(out, TAG_BARRIER, *req_id);
            None
        }
        WireMsg::BarrierAck { req_id } => {
            put_req(out, TAG_BARRIER_ACK, *req_id);
            None
        }
        WireMsg::Ping { req_id } => {
            put_req(out, TAG_PING, *req_id);
            None
        }
        WireMsg::Pong { req_id } => {
            put_req(out, TAG_PONG, *req_id);
            None
        }
    }?;
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    if data.len() >= FrameTrain::ZERO_COPY_MIN {
        return Some(data);
    }
    out.extend_from_slice(data);
    None
}

/// Encode `msg` into `out` (payload only, no length prefix). `out` is
/// cleared first so a buffer can be reused across frames.
pub fn encode(msg: &WireMsg, out: &mut Vec<u8>) {
    out.clear();
    if let Some(data) = put_payload(msg, out) {
        out.extend_from_slice(data);
    }
    debug_assert!(out.len() <= MAX_FRAME as usize, "frame exceeds MAX_FRAME");
}

/// A cursor over a payload being decoded.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn block(&mut self) -> Result<BlockId, DecodeError> {
        let file = FileId(self.u32()?);
        let index = self.u32()?;
        Ok(BlockId::new(file, index))
    }

    fn presence(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadPresence(b)),
        }
    }

    fn bytes(&mut self) -> Result<Arc<[u8]>, DecodeError> {
        let len = self.u32()? as usize;
        // The embedded length can never legitimately exceed the payload
        // that carries it; checking before `take` keeps the error precise.
        if len > self.buf.len() - self.pos {
            return Err(DecodeError::BadLength);
        }
        Ok(Arc::from(self.take(len)?))
    }
}

/// Decode one payload produced by [`encode`]. The whole buffer must be
/// exactly one message.
pub fn decode(payload: &[u8]) -> Result<WireMsg, DecodeError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let msg = match c.u8()? {
        TAG_HELLO => WireMsg::Hello {
            version: c.u8()?,
            node: NodeId(c.u16()?),
        },
        TAG_BLOCK_REQUEST => WireMsg::BlockRequest {
            req_id: c.u64()?,
            block: c.block()?,
        },
        TAG_BLOCK_REPLY => {
            let req_id = c.u64()?;
            let data = if c.presence()? {
                Some(c.bytes()?)
            } else {
                None
            };
            WireMsg::BlockReply { req_id, data }
        }
        TAG_FORWARD => {
            let block = c.block()?;
            let displace = if c.presence()? {
                Some(c.block()?)
            } else {
                None
            };
            let data = c.bytes()?;
            WireMsg::Forward {
                block,
                data,
                displace,
            }
        }
        TAG_BARRIER => WireMsg::Barrier { req_id: c.u64()? },
        TAG_BARRIER_ACK => WireMsg::BarrierAck { req_id: c.u64()? },
        TAG_PING => WireMsg::Ping { req_id: c.u64()? },
        TAG_PONG => WireMsg::Pong { req_id: c.u64()? },
        TAG_WRITE_INVALIDATE => WireMsg::WriteInvalidate { block: c.block()? },
        t => return Err(DecodeError::UnknownTag(t)),
    };
    if c.pos != payload.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(msg)
}

/// Write `msg` as one length-prefixed frame and flush it. Returns the
/// total bytes put on the wire (length prefix included). The data plane
/// writes [`FrameTrain`]s; this one-frame encoder is the reference their
/// byte stream is tested against.
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> io::Result<usize> {
    let mut payload = Vec::new();
    encode(msg, &mut payload);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Incremental frame decoder for nonblocking reads.
///
/// Socket bytes arrive in arbitrary slices; [`FrameAssembler::extend`]
/// appends them and [`FrameAssembler::next_frame`] yields each complete
/// frame as it becomes decodable. An oversized length prefix (checked
/// before allocation) or any [`DecodeError`] poisons the stream with
/// `InvalidData`; partial frames simply wait for more bytes instead of
/// blocking a thread.
#[derive(Default)]
pub struct FrameAssembler {
    /// Fully initialized storage; the undecoded bytes live in
    /// `buf[pos..end]`. Length only ever grows (high-water mark), so a
    /// steady-state reader pays no re-zeroing.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameAssembler {
    /// An assembler with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reclaim the consumed prefix (in place) and make room for `extra`
    /// more bytes at the tail.
    fn reserve_tail(&mut self, extra: usize) {
        // Compact before growing; keeps the buffer bounded by one partial
        // frame plus whatever a single read delivers.
        if self.pos > 0 && (self.pos >= self.end || self.pos > 4096) {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() < self.end + extra {
            self.buf.resize(self.end + extra, 0);
        }
    }

    /// Append raw socket bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve_tail(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Bytes buffered but not yet consumed as frames. Non-zero at EOF means
    /// the peer died mid-frame.
    pub fn pending_bytes(&self) -> usize {
        self.end - self.pos
    }

    /// Read up to `max` bytes from `r` directly into the buffer — one copy
    /// from the kernel straight to where [`FrameAssembler::next_frame`]
    /// decodes, instead of bouncing through a caller-side scratch buffer.
    /// Returns the byte count exactly as `r.read` would (0 at EOF).
    ///
    /// # Errors
    /// Whatever `r.read` reports; the buffer is unchanged on error.
    pub fn read_from(&mut self, r: &mut impl io::Read, max: usize) -> io::Result<usize> {
        self.reserve_tail(max);
        let n = r.read(&mut self.buf[self.end..self.end + max])?;
        self.end += n;
        Ok(n)
    }

    /// Decode the next complete frame, if the buffer holds one. Returns the
    /// message and its on-wire size (length prefix included). `Ok(None)`
    /// means "need more bytes".
    pub fn next_frame(&mut self) -> io::Result<Option<(WireMsg, u64)>> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let msg = decode(&avail[4..total])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))?;
        self.pos += total;
        Ok(Some((msg, total as u64)))
    }
}

/// A batch of frames staged for one vectored write — the sender-side unit
/// of the group-commit data plane.
///
/// Headers and small frames are packed back-to-back into one contiguous
/// buffer; block payloads at or above [`FrameTrain::ZERO_COPY_MIN`] bytes
/// ride as shared `Arc<[u8]>` segments spliced in by reference, so an 8 KB
/// block travels from the store to the socket without being copied.
/// [`FrameTrain::write_some`] flushes with `write_vectored`, tracking
/// partial progress so nonblocking writers can resume after `WouldBlock`.
#[derive(Default)]
pub struct FrameTrain {
    /// Contiguous header/small-frame bytes; `Seg::Head` ranges index here.
    head: Vec<u8>,
    /// Ordered wire segments.
    segs: Vec<Seg>,
    /// Flush cursor: next segment index and byte offset within it.
    seg_idx: usize,
    seg_off: usize,
    frames: u64,
    bytes: u64,
}

enum Seg {
    Head { start: usize, len: usize },
    Blob(Arc<[u8]>),
}

impl FrameTrain {
    /// Payloads at least this large are spliced by reference instead of
    /// copied into the head buffer. Below it, the copy is cheaper than an
    /// extra iovec entry.
    pub const ZERO_COPY_MIN: usize = 512;

    /// An empty train.
    pub fn new() -> Self {
        Self::default()
    }

    /// No frames staged and nothing mid-flush.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Frames staged since construction or [`FrameTrain::take`].
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Wire bytes staged (length prefixes included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Detach the staged train, leaving `self` empty and ready to batch the
    /// next one. The flush cursor does not transfer: take only full trains.
    pub fn take(&mut self) -> FrameTrain {
        debug_assert_eq!(self.seg_idx, 0, "take() mid-flush loses progress");
        debug_assert_eq!(self.seg_off, 0, "take() mid-flush loses progress");
        std::mem::take(self)
    }

    /// Append one frame (length prefix + payload) to the head buffer; a
    /// large block payload is spliced in by reference, not copied. Returns
    /// the frame's wire size in bytes.
    pub fn push(&mut self, msg: &WireMsg) -> usize {
        let start = self.head.len();
        self.head.extend_from_slice(&[0; 4]); // the length, backfilled below
        let blob = put_payload(msg, &mut self.head);
        let head_len = self.head.len() - start;
        let wire = head_len + blob.map_or(0, |b| b.len());
        debug_assert!(wire - 4 <= MAX_FRAME as usize, "frame exceeds MAX_FRAME");
        self.head[start..start + 4].copy_from_slice(&((wire - 4) as u32).to_le_bytes());
        // Merge into the trailing head segment when one exists (it always
        // ends exactly at the old head length), else open a new one.
        match self.segs.last_mut() {
            Some(Seg::Head { len, .. }) => *len += head_len,
            _ => self.segs.push(Seg::Head {
                start,
                len: head_len,
            }),
        }
        if let Some(blob) = blob {
            self.segs.push(Seg::Blob(Arc::clone(blob)));
        }
        self.frames += 1;
        self.bytes += wire as u64;
        wire
    }

    /// Flush as much of the train as the writer accepts in one pass of
    /// vectored writes. Returns `true` once the whole train is on the wire;
    /// `false` with saved progress if the writer would block (the
    /// `WouldBlock` error is swallowed — call again when writable). All
    /// other errors surface.
    pub fn write_some(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.seg_idx < self.segs.len() {
            // Build the iovec list from the cursor forward.
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(self.segs.len() - self.seg_idx);
            for (i, seg) in self.segs[self.seg_idx..].iter().enumerate() {
                let s: &[u8] = match seg {
                    Seg::Head { start, len } => &self.head[*start..*start + *len],
                    Seg::Blob(b) => b,
                };
                let s = if i == 0 { &s[self.seg_off..] } else { s };
                if !s.is_empty() {
                    iov.push(IoSlice::new(s));
                }
            }
            if iov.is_empty() {
                break;
            }
            let n = match w.write_vectored(&iov) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.advance(n);
        }
        self.segs.clear();
        self.head.clear();
        self.seg_idx = 0;
        self.seg_off = 0;
        Ok(true)
    }

    fn advance(&mut self, mut n: usize) {
        while n > 0 && self.seg_idx < self.segs.len() {
            let seg_len = match &self.segs[self.seg_idx] {
                Seg::Head { len, .. } => *len,
                Seg::Blob(b) => b.len(),
            };
            let left = seg_len - self.seg_off;
            if n < left {
                self.seg_off += n;
                return;
            }
            n -= left;
            self.seg_idx += 1;
            self.seg_off = 0;
        }
        // Skip any zero-length segments the cursor landed on.
        while self.seg_idx < self.segs.len() {
            let seg_len = match &self.segs[self.seg_idx] {
                Seg::Head { len, .. } => *len,
                Seg::Blob(b) => b.len(),
            };
            if seg_len > self.seg_off {
                break;
            }
            self.seg_idx += 1;
            self.seg_off = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(f: u32, i: u32) -> BlockId {
        BlockId::new(FileId(f), i)
    }

    fn roundtrip(msg: WireMsg) {
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        assert_eq!(decode(&buf), Ok(msg));
    }

    #[test]
    fn every_variant_round_trips() {
        roundtrip(WireMsg::Hello {
            version: WIRE_VERSION,
            node: NodeId(7),
        });
        roundtrip(WireMsg::BlockRequest {
            req_id: u64::MAX,
            block: b(3, 9),
        });
        roundtrip(WireMsg::BlockReply {
            req_id: 0,
            data: None,
        });
        roundtrip(WireMsg::BlockReply {
            req_id: 1,
            data: Some(vec![0xAB; 8192].into()),
        });
        roundtrip(WireMsg::Forward {
            block: b(1, 2),
            data: vec![].into(),
            displace: None,
        });
        roundtrip(WireMsg::Forward {
            block: b(u32::MAX, u32::MAX),
            data: vec![1, 2, 3].into(),
            displace: Some(b(4, 5)),
        });
        roundtrip(WireMsg::Barrier { req_id: 42 });
        roundtrip(WireMsg::BarrierAck { req_id: 42 });
        roundtrip(WireMsg::Ping { req_id: 43 });
        roundtrip(WireMsg::Pong { req_id: 43 });
        roundtrip(WireMsg::WriteInvalidate { block: b(6, 7) });
    }

    #[test]
    fn every_truncation_is_rejected() {
        let msgs = [
            WireMsg::Hello {
                version: 1,
                node: NodeId(1),
            },
            WireMsg::BlockRequest {
                req_id: 5,
                block: b(1, 2),
            },
            WireMsg::BlockReply {
                req_id: 5,
                data: Some(vec![9; 17].into()),
            },
            WireMsg::Forward {
                block: b(1, 2),
                data: vec![7; 33].into(),
                displace: Some(b(3, 4)),
            },
            WireMsg::Barrier { req_id: 1 },
            WireMsg::Ping { req_id: 1 },
            WireMsg::Pong { req_id: 1 },
            WireMsg::WriteInvalidate { block: b(1, 2) },
        ];
        let mut buf = Vec::new();
        for msg in &msgs {
            encode(msg, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode(&buf[..cut]).is_err(),
                    "truncation to {cut} of {msg:?} must fail"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = Vec::new();
        encode(&WireMsg::Barrier { req_id: 3 }, &mut buf);
        buf.push(0);
        assert_eq!(decode(&buf), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode(&[200]), Err(DecodeError::UnknownTag(200)));
        assert_eq!(decode(&[4]), Err(DecodeError::UnknownTag(4)));
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_presence_byte_is_rejected() {
        let mut buf = Vec::new();
        encode(
            &WireMsg::BlockReply {
                req_id: 1,
                data: None,
            },
            &mut buf,
        );
        *buf.last_mut().unwrap() = 2;
        assert_eq!(decode(&buf), Err(DecodeError::BadPresence(2)));
    }

    #[test]
    fn lying_length_field_is_rejected() {
        let mut buf = Vec::new();
        encode(
            &WireMsg::BlockReply {
                req_id: 1,
                data: Some(vec![1, 2, 3].into()),
            },
            &mut buf,
        );
        // Inflate the embedded data length beyond the payload.
        let len_at = buf.len() - 3 - 4;
        buf[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&buf), Err(DecodeError::BadLength));
    }

    /// A mixed train: frames above and below the zero-copy threshold, in
    /// both splice positions (first, middle, last).
    fn sample_train_msgs() -> Vec<WireMsg> {
        vec![
            WireMsg::BlockReply {
                req_id: 1,
                data: Some(vec![0xA5; 8192].into()),
            },
            WireMsg::BlockRequest {
                req_id: 2,
                block: b(3, 4),
            },
            WireMsg::BlockReply {
                req_id: 3,
                data: Some(vec![7; 16].into()),
            },
            WireMsg::Forward {
                block: b(9, 9),
                data: vec![0x5A; 4096].into(),
                displace: Some(b(1, 1)),
            },
            WireMsg::BlockReply {
                req_id: 4,
                data: None,
            },
            WireMsg::Forward {
                block: b(2, 2),
                data: vec![1, 2, 3].into(),
                displace: None,
            },
            WireMsg::BlockReply {
                req_id: 5,
                data: Some(vec![0xEE; FrameTrain::ZERO_COPY_MIN].into()),
            },
        ]
    }

    #[test]
    fn train_bytes_equal_per_frame_writes() {
        // The train is an optimization, not a format change: its byte
        // stream must be exactly what write_frame would have produced.
        let msgs = sample_train_msgs();
        let mut train = FrameTrain::new();
        let mut expect = Vec::new();
        let mut expect_bytes = 0u64;
        for m in &msgs {
            let wire = train.push(m);
            expect_bytes += wire as u64;
            write_frame(&mut expect, m).unwrap();
        }
        assert_eq!(train.frames(), msgs.len() as u64);
        assert_eq!(train.bytes(), expect_bytes);
        assert_eq!(expect.len() as u64, expect_bytes);
        let mut got = Vec::new();
        assert!(train.write_some(&mut got).unwrap());
        assert!(train.is_empty());
        assert_eq!(got, expect);
    }

    /// A writer that accepts at most `cap` bytes per call and returns
    /// `WouldBlock` on every other call — the worst nonblocking socket.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn train_survives_partial_writes_and_wouldblock() {
        for cap in [1, 3, 17, 4096] {
            let msgs = sample_train_msgs();
            let mut train = FrameTrain::new();
            let mut expect = Vec::new();
            for m in &msgs {
                train.push(m);
                write_frame(&mut expect, m).unwrap();
            }
            let mut w = Throttled {
                out: Vec::new(),
                cap,
                calls: 0,
            };
            let mut rounds = 0;
            while !train.write_some(&mut w).unwrap() {
                rounds += 1;
                assert!(rounds < 1_000_000, "flush must terminate");
            }
            assert_eq!(w.out, expect, "cap {cap}");
        }
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let msgs = sample_train_msgs();
        let mut train = FrameTrain::new();
        for m in &msgs {
            train.push(m);
        }
        let mut stream = Vec::new();
        assert!(train.write_some(&mut stream).unwrap());
        for chunk in [1usize, 2, 5, 4093, stream.len()] {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            let mut wire_total = 0;
            for piece in stream.chunks(chunk) {
                asm.extend(piece);
                while let Some((msg, wire)) = asm.next_frame().unwrap() {
                    wire_total += wire;
                    got.push(msg);
                }
            }
            assert_eq!(got, msgs, "chunk {chunk}");
            assert_eq!(wire_total as usize, stream.len());
            assert_eq!(asm.pending_bytes(), 0);
        }
    }

    #[test]
    fn assembler_reports_mid_frame_truncation() {
        let mut train = FrameTrain::new();
        train.push(&WireMsg::BlockReply {
            req_id: 8,
            data: Some(vec![1; 2048].into()),
        });
        let mut stream = Vec::new();
        assert!(train.write_some(&mut stream).unwrap());
        let mut asm = FrameAssembler::new();
        asm.extend(&stream[..stream.len() - 1]);
        assert!(
            asm.next_frame().unwrap().is_none(),
            "incomplete frame waits"
        );
        assert!(asm.pending_bytes() > 0, "EOF here is mid-frame corruption");
    }

    #[test]
    fn assembler_rejects_oversized_length_prefix() {
        let mut asm = FrameAssembler::new();
        asm.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn assembler_rejects_garbage_payload() {
        let mut asm = FrameAssembler::new();
        asm.extend(&2u32.to_le_bytes());
        asm.extend(&[200, 200]);
        let err = asm.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_and_single_frame_trains() {
        let mut train = FrameTrain::new();
        assert!(train.is_empty());
        let mut sink = Vec::new();
        assert!(train.write_some(&mut sink).unwrap(), "empty train is done");
        assert!(sink.is_empty());

        // A lone small frame: one contiguous segment, no iovec overhead.
        let msg = WireMsg::Barrier { req_id: 1 };
        train.push(&msg);
        let mut expect = Vec::new();
        write_frame(&mut expect, &msg).unwrap();
        assert!(train.write_some(&mut sink).unwrap());
        assert_eq!(sink, expect);
    }
}
