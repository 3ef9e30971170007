//! Block-path trace events: a bounded per-cluster ring buffer of
//! structured hops, so a failing chaos run (or a curious operator) can
//! reconstruct exactly what one request did — dispatch, peer fetch, disk
//! fallback, serve — with monotonic timestamps, instead of printf
//! archaeology.
//!
//! The ring is sharded per thread: each thread appends to its own shard, a
//! cache-line-aligned mutex that callers on other stripes never take, which
//! holds up to `capacity` events. Events are recorded in batches
//! ([`TraceRing::batch`]): a batch holds its thread's shard once and stamps
//! every event it records with one moment, a [`Stopwatch`] its caller has
//! already read (the read path's decision, or the lap that closed a
//! block's latency sample), so a batch reads no clock of its own. A single
//! [`TraceRing::push`] is a one-event batch stamped now. Request ids come
//! from the shard too, in blocks taken from one ring-wide counter. A dump
//! merges the shards, sorts them by stamp and keeps the most recent
//! `capacity` events, so a single pusher sees exactly one ring of
//! `capacity`. Under `obs-off` the whole ring compiles to nothing.

#[cfg(not(feature = "obs-off"))]
use crate::stripe::{self, STRIPES};
use crate::Stopwatch;
#[cfg(not(feature = "obs-off"))]
use simcore::sync::{Mutex, MutexGuard};
#[cfg(not(feature = "obs-off"))]
use std::ops::Range;
#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "obs-off"))]
use std::sync::Arc;

/// One hop in a block request's life. Variants mirror the runtime's read
/// path; `node`/`from`/`to` are raw node indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hop {
    /// A request entered the middleware for `(file, block)`.
    Dispatch {
        /// File the block belongs to.
        file: u32,
        /// Block index within the file.
        block: u32,
    },
    /// The block was resident in the local store.
    LocalHit,
    /// The directory said `from` holds the block; a peer fetch was issued.
    PeerFetch {
        /// Node the fetch was sent to.
        from: u16,
    },
    /// The peer fetch came back with `bytes` bytes.
    PeerReply {
        /// Payload size of the reply.
        bytes: u64,
    },
    /// The peer fetch failed (timeout/crash/drop); degrading to disk — the
    /// paper's §3 "eventual disk read" escape hatch.
    DiskFallback,
    /// The directory had no cached copy; read from the backing store.
    DiskRead,
    /// An eviction forwarded this block to `to` (second-chance hop).
    Forward {
        /// Node the evicted block was forwarded to.
        to: u16,
    },
    /// The request completed; `bytes` returned to the caller.
    Serve {
        /// Bytes handed back.
        bytes: u64,
    },
}

impl Hop {
    /// Short machine-readable name (JSON `hop` field).
    pub fn name(&self) -> &'static str {
        match self {
            Hop::Dispatch { .. } => "dispatch",
            Hop::LocalHit => "local_hit",
            Hop::PeerFetch { .. } => "peer_fetch",
            Hop::PeerReply { .. } => "peer_reply",
            Hop::DiskFallback => "disk_fallback",
            Hop::DiskRead => "disk_read",
            Hop::Forward { .. } => "forward",
            Hop::Serve { .. } => "serve",
        }
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Request id (from [`TraceRing::next_req_id`]); groups hops.
    pub req_id: u64,
    /// Node index the hop happened on.
    pub node: u16,
    /// Monotonic nanoseconds since the ring was created.
    pub at_ns: u64,
    /// What happened.
    pub hop: Hop,
}

impl TraceEvent {
    /// Render as a single flat JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"req_id\":{},\"node\":{},\"at_ns\":{},\"hop\":\"{}\"",
            self.req_id,
            self.node,
            self.at_ns,
            self.hop.name()
        );
        match &self.hop {
            Hop::Dispatch { file, block } => {
                s.push_str(&format!(",\"file\":{file},\"block\":{block}"));
            }
            Hop::PeerFetch { from } => s.push_str(&format!(",\"from\":{from}")),
            Hop::PeerReply { bytes } | Hop::Serve { bytes } => {
                s.push_str(&format!(",\"bytes\":{bytes}"));
            }
            Hop::Forward { to } => s.push_str(&format!(",\"to\":{to}")),
            Hop::LocalHit | Hop::DiskFallback | Hop::DiskRead => {}
        }
        s.push('}');
        s
    }
}

/// Request ids a shard takes from the ring-wide counter at a time.
#[cfg(not(feature = "obs-off"))]
const ID_BLOCK: u64 = 64;

/// One thread's share of a ring, on cache lines of its own.
#[cfg(not(feature = "obs-off"))]
#[derive(Default)]
#[repr(align(128))]
struct Shard(Mutex<ShardInner>);

#[cfg(not(feature = "obs-off"))]
#[derive(Default)]
struct ShardInner {
    /// Up to `capacity` events, allocated on the first push; once full,
    /// `oldest` is the slot the next push overwrites.
    events: Vec<TraceEvent>,
    oldest: usize,
    /// Request ids this shard hands out next.
    ids: Range<u64>,
}

#[cfg(not(feature = "obs-off"))]
struct RingInner {
    shards: [Shard; STRIPES],
    capacity: usize,
    next_req: AtomicU64,
    epoch: std::time::Instant,
}

/// A bounded, overwrite-oldest ring of [`TraceEvent`]s. Cheap to clone
/// (shared interior); the runtime keeps one per cluster with events
/// labeled by node.
#[cfg(not(feature = "obs-off"))]
#[derive(Clone)]
pub struct TraceRing(Arc<RingInner>);

/// A bounded trace ring (`obs-off`: compiled to nothing).
#[cfg(feature = "obs-off")]
#[derive(Clone)]
pub struct TraceRing;

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceRing(cap={})", self.capacity())
    }
}

#[cfg(not(feature = "obs-off"))]
impl TraceRing {
    /// A ring holding the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing(Arc::new(RingInner {
            shards: Default::default(),
            capacity: capacity.max(1),
            next_req: AtomicU64::new(0),
            epoch: std::time::Instant::now(),
        }))
    }

    /// Events the ring retains.
    pub fn capacity(&self) -> usize {
        self.0.capacity
    }

    /// The calling thread's shard.
    fn shard(&self) -> &Mutex<ShardInner> {
        &self.0.shards[stripe::index()].0
    }

    /// Hold the calling thread's shard until the returned batch drops,
    /// stamping what it records `at` (the moment `at` was read), labeled
    /// `node`. The batch reads no clock. A thread holds one batch at a
    /// time: the shard's lock is not reentrant, so a second `batch`,
    /// `push` or `next_req_id` on the same thread before the first batch
    /// drops deadlocks or panics.
    pub fn batch(&self, at: Stopwatch, node: u16) -> Batch<'_> {
        let at_ns = at.0.saturating_duration_since(self.0.epoch).as_nanos() as u64;
        self.hold(at_ns, node)
    }

    fn hold(&self, at_ns: u64, node: u16) -> Batch<'_> {
        Batch {
            ring: &self.0,
            shard: self.shard().lock(),
            node,
            at_ns,
        }
    }

    /// A fresh, ring-unique request id (starts at 1; 0 is never issued, so
    /// callers can use it as "untraced"). Ids ascend within a thread.
    pub fn next_req_id(&self) -> u64 {
        self.hold(0, 0).next_req_id()
    }

    /// Record a hop for `req_id` on `node`, timestamped now: a one-event
    /// batch.
    pub fn push(&self, req_id: u64, node: u16, hop: Hop) {
        self.batch(Stopwatch::start(), node).push(req_id, hop);
    }

    /// All retained events, oldest first: every shard's, merged, and the
    /// most recent `capacity` of them kept.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for shard in &self.0.shards {
            let shard = shard.0.lock();
            let (newer, older) = shard.events.split_at(shard.oldest);
            events.extend_from_slice(older);
            events.extend_from_slice(newer);
        }
        // A batch is stamped before it holds its shard, so two threads on
        // one stripe can append out of stamp order: the merge sorts. The
        // sort is stable, so a batch's events keep their push order.
        events.sort_by_key(|e| (e.at_ns, e.req_id));
        let excess = events.len().saturating_sub(self.0.capacity);
        events.drain(..excess);
        events
    }

    /// Retained events for one request id, oldest first.
    pub fn dump_for(&self, req_id: u64) -> Vec<TraceEvent> {
        let mut events = self.dump();
        events.retain(|e| e.req_id == req_id);
        events
    }

    /// The whole retained ring as a JSON document:
    /// `{"capacity":N,"events":[...]}`.
    pub fn dump_json(&self) -> String {
        let events = self.dump();
        let mut s = format!("{{\"capacity\":{},\"events\":[", self.capacity());
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&e.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// Events recorded under one hold of the calling thread's trace shard,
/// all stamped with the moment the batch was taken at
/// ([`TraceRing::batch`]). The shard is released when the batch drops.
#[cfg(not(feature = "obs-off"))]
pub struct Batch<'a> {
    ring: &'a RingInner,
    shard: MutexGuard<'a, ShardInner>,
    node: u16,
    at_ns: u64,
}

/// A trace batch (`obs-off`: compiled to nothing).
#[cfg(feature = "obs-off")]
pub struct Batch<'a>(std::marker::PhantomData<&'a TraceRing>);

#[cfg(not(feature = "obs-off"))]
impl Batch<'_> {
    /// A fresh, ring-unique request id, as [`TraceRing::next_req_id`].
    pub fn next_req_id(&mut self) -> u64 {
        let ids = &mut self.shard.ids;
        if ids.is_empty() {
            let start = self.ring.next_req.fetch_add(ID_BLOCK, Ordering::Relaxed) + 1;
            *ids = start..start + ID_BLOCK;
        }
        let id = ids.start;
        ids.start += 1;
        id
    }

    /// Record a hop for `req_id` on the batch's node, at its stamp.
    pub fn push(&mut self, req_id: u64, hop: Hop) {
        let capacity = self.ring.capacity;
        let event = TraceEvent {
            req_id,
            node: self.node,
            at_ns: self.at_ns,
            hop,
        };
        let shard = &mut *self.shard;
        if shard.events.len() < capacity {
            if shard.events.capacity() == 0 {
                // Sized once: growing by doubling leaves the freed smaller
                // buffers behind in the pushing thread's malloc arena.
                shard.events.reserve_exact(capacity);
            }
            shard.events.push(event);
        } else {
            shard.events[shard.oldest] = event;
            shard.oldest = (shard.oldest + 1) % capacity;
        }
    }
}

#[cfg(feature = "obs-off")]
impl Batch<'_> {
    /// Always zero, the "untraced" id (`obs-off`).
    #[inline]
    pub fn next_req_id(&mut self) -> u64 {
        0
    }

    /// No-op (`obs-off`).
    #[inline]
    pub fn push(&mut self, _req_id: u64, _hop: Hop) {}
}

#[cfg(feature = "obs-off")]
impl TraceRing {
    /// A ring (`obs-off`: retains nothing).
    pub fn new(_capacity: usize) -> TraceRing {
        TraceRing
    }

    /// Always zero (`obs-off`).
    pub fn capacity(&self) -> usize {
        0
    }

    /// A batch that records nothing (`obs-off`).
    #[inline]
    pub fn batch(&self, _at: Stopwatch, _node: u16) -> Batch<'_> {
        Batch(std::marker::PhantomData)
    }

    /// Always zero, the "untraced" id (`obs-off`).
    pub fn next_req_id(&self) -> u64 {
        0
    }

    /// No-op (`obs-off`).
    pub fn push(&self, _req_id: u64, _node: u16, _hop: Hop) {}

    /// Always empty (`obs-off`).
    pub fn dump(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Always empty (`obs-off`).
    pub fn dump_for(&self, _req_id: u64) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// An empty document (`obs-off`).
    pub fn dump_json(&self) -> String {
        "{\"capacity\":0,\"events\":[]}".to_string()
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn push_and_dump_round_trips() {
        let ring = TraceRing::new(16);
        let id = ring.next_req_id();
        assert_eq!(id, 1);
        ring.push(id, 0, Hop::Dispatch { file: 3, block: 1 });
        ring.push(id, 0, Hop::PeerFetch { from: 2 });
        ring.push(id, 0, Hop::DiskFallback);
        ring.push(id, 0, Hop::Serve { bytes: 4096 });
        let events = ring.dump_for(id);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].hop, Hop::Dispatch { file: 3, block: 1 });
        assert_eq!(events[3].hop, Hop::Serve { bytes: 4096 });
        // Timestamps are monotone within a single-threaded pusher.
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.push(i, 0, Hop::LocalHit);
        }
        let events = ring.dump();
        assert_eq!(events.len(), 4);
        let ids: Vec<u64> = events.iter().map(|e| e.req_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_pushers_keep_the_latest_capacity_events() {
        const THREADS: u64 = 4;
        const PUSHES: u64 = 5_000;
        let ring = TraceRing::new(4096);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..PUSHES {
                        ring.push(t * PUSHES + i, t as u16, Hop::LocalHit);
                    }
                });
            }
        });
        let events = ring.dump();
        assert_eq!(events.len(), 4096);
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        for t in 0..THREADS {
            // A thread's retained events are an unbroken run of its pushes
            // that ends with its last one.
            let mut seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.node == t as u16)
                .map(|e| e.req_id - t * PUSHES)
                .collect();
            seqs.sort_unstable();
            let first = PUSHES - seqs.len() as u64;
            assert_eq!(seqs, (first..PUSHES).collect::<Vec<u64>>(), "thread {t}");
        }
    }

    #[test]
    fn concurrent_request_ids_are_unique_and_ascend_per_thread() {
        let ring = TraceRing::new(16);
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..1_000).map(|_| ring.next_req_id()).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
        let mut all: Vec<u64> = per_thread.concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4_000);
        assert!(all[0] > 0);
    }

    #[test]
    fn batch_ids_are_unique_and_ascend_per_thread_across_block_refills() {
        let ring = TraceRing::new(16);
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let ring = &ring;
                    s.spawn(move || {
                        let mut ids = Vec::new();
                        for round in 0..50 {
                            // Batches of 1..=5 ids, single takes between them,
                            // and one batch longer than an id block.
                            let mut batch = ring.batch(Stopwatch::start(), t);
                            let n = if round == 20 {
                                ID_BLOCK + 6
                            } else {
                                round % 5 + 1
                            };
                            ids.extend((0..n).map(|_| batch.next_req_id()));
                            drop(batch);
                            ids.push(ring.next_req_id());
                        }
                        ids
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
        let mut all: Vec<u64> = per_thread.concat();
        let taken = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), taken, "ids are ring-unique");
        assert!(all[0] > 0);
    }

    #[test]
    fn a_batch_stamps_every_event_with_its_moment() {
        let ring = TraceRing::new(16);
        let at = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut batch = ring.batch(at, 3);
        let req = batch.next_req_id();
        batch.push(req, Hop::Dispatch { file: 1, block: 2 });
        batch.push(req, Hop::LocalHit);
        batch.push(req, Hop::Serve { bytes: 8 });
        drop(batch);
        ring.push(req + 1, 3, Hop::LocalHit);
        let events = ring.dump();
        assert_eq!(events.len(), 4);
        let stamp = events[0].at_ns;
        assert!(events[..3].iter().all(|e| e.at_ns == stamp && e.node == 3));
        // The stamp is the batch's moment, not the time of its pushes: a
        // push after it, stamped then, is at least the sleep later.
        assert!(stamp + 2_000_000 <= events[3].at_ns);
    }

    #[test]
    fn dump_keeps_push_order_for_equal_stamps() {
        let ring = TraceRing::new(16);
        let hops = [
            Hop::Dispatch { file: 0, block: 0 },
            Hop::PeerFetch { from: 1 },
            Hop::PeerReply { bytes: 8 },
            Hop::DiskFallback,
            Hop::Serve { bytes: 8 },
        ];
        let mut batch = ring.batch(Stopwatch::start(), 0);
        for hop in &hops {
            batch.push(9, hop.clone());
        }
        drop(batch);
        let got: Vec<Hop> = ring.dump_for(9).into_iter().map(|e| e.hop).collect();
        assert_eq!(got, hops);
    }

    #[test]
    fn batches_wrap_the_ring() {
        let ring = TraceRing::new(4);
        for req in 0..5u64 {
            let mut batch = ring.batch(Stopwatch::start(), 0);
            batch.push(req, Hop::LocalHit);
            batch.push(req, Hop::Serve { bytes: req });
        }
        ring.push(5, 0, Hop::LocalHit);
        let events = ring.dump();
        let got: Vec<(u64, Hop)> = events.into_iter().map(|e| (e.req_id, e.hop)).collect();
        assert_eq!(
            got,
            vec![
                (3, Hop::Serve { bytes: 3 }),
                (4, Hop::LocalHit),
                (4, Hop::Serve { bytes: 4 }),
                (5, Hop::LocalHit),
            ]
        );
    }

    #[test]
    fn json_is_flat_and_tagged() {
        let ring = TraceRing::new(4);
        ring.push(7, 1, Hop::PeerFetch { from: 0 });
        let json = ring.dump_json();
        assert!(json.starts_with("{\"capacity\":4,\"events\":["));
        assert!(json.contains("\"req_id\":7"));
        assert!(json.contains("\"hop\":\"peer_fetch\""));
        assert!(json.contains("\"from\":0"));
    }
}
