//! The asynchronous disk service: a bounded scheduled queue, one worker
//! (one disk head), miss coalescing, and sequential readahead, per node.
//!
//! ## Request life cycle
//!
//! [`DiskService::read_async`] first consults the readahead cache, then
//! attaches to any in-flight request for the same block (one physical
//! read, everyone shares the `Arc<[u8]>`). Otherwise it blocks while
//! `queue_cap` demand requests are already pending (the backpressure
//! seam: callers feel a full disk queue as latency, exactly like a real
//! device), then enqueues into a [`SchedQueue`] ordered by the paper's
//! batched C-LOOK rule ([`DiskScheduler::Batched`]) — the simulator's own
//! queue, so the two serve identical arrivals in identical order. The
//! worker pops in scheduler order, performs the physical read outside the
//! lock, and delivers to every waiter.
//!
//! ## Readahead
//!
//! A demand read of block `i` right after a demand read of block `i-1` of
//! the same file marks a sequential stream; the service then enqueues up to
//! `readahead` internal requests for the following blocks. Internal
//! requests never block on backpressure (they are shed when the queue is
//! full), never fail a caller (injected errors on them are counted and
//! dropped), and park their bytes in a small single-shot cache that
//! [`DiskService::invalidate`] clears on writes.
//!
//! ## Faults
//!
//! [`DiskFaults`] injects seeded slow-disk latency and I/O errors. The
//! decision is a pure hash of `(seed, block)` — a marked block is *always*
//! slow or bad under that seed — so chaos-harness replays stay
//! bit-identical without any per-attempt RNG state. Demand-read errors
//! surface as [`DiskError::Io`]; the runtime degrades to its synchronous
//! store fallback, the same escape hatch it uses for data-plane races.

use crate::layout::DiskLayout;
use crate::store::{BlockStore, Catalog};
use ccm_cluster::{DiskScheduler, SchedQueue};
use ccm_core::block::BLOCK_SIZE;
use ccm_core::BlockId;
use ccm_obs::{Counter, Gauge, Histogram, Registry, Stopwatch};
use simcore::chan::{self, Receiver, Sender};
use simcore::sync::{Condvar, Mutex};
use simcore::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Result of one block read through the service.
pub type DiskRead = Result<Arc<[u8]>, DiskError>;

/// Why a disk read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// Injected I/O error (see [`DiskFaults::error_prob`]).
    Io,
    /// The service shut down before the read completed.
    Shutdown,
}

/// Seeded disk fault injection, embedded in the runtime's `FaultPlan`.
///
/// Decisions are keyed on `(seed, block)`, not per attempt: the marked
/// subset of blocks is fixed for a seed, which keeps same-seed torture
/// replays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaults {
    /// Probability a block's physical reads are slow.
    pub slow_prob: f64,
    /// Added latency for slow blocks.
    pub slow: Duration,
    /// Probability a block's physical reads fail with [`DiskError::Io`].
    pub error_prob: f64,
}

impl DiskFaults {
    /// No disk faults.
    pub const NONE: DiskFaults = DiskFaults {
        slow_prob: 0.0,
        slow: Duration::ZERO,
        error_prob: 0.0,
    };

    /// True if this plan can never fire.
    pub fn is_none(&self) -> bool {
        self.slow_prob <= 0.0 && self.error_prob <= 0.0
    }
}

impl Default for DiskFaults {
    fn default() -> DiskFaults {
        DiskFaults::NONE
    }
}

/// Disk service configuration.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Max pending *demand* requests before submitters block (backpressure).
    pub queue_cap: usize,
    /// Blocks to read ahead once a sequential stream is detected (0 = off).
    pub readahead: u32,
}

impl Default for DiskConfig {
    fn default() -> DiskConfig {
        DiskConfig {
            queue_cap: 128,
            readahead: 2,
        }
    }
}

/// Capacity of the single-shot readahead cache, in blocks.
const READAHEAD_CACHE: usize = 64;

/// Counter snapshot for tests and reports. Counters stay live under
/// `obs-off`, so assertions on coalescing/readahead hold in every build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Demand read requests submitted.
    pub requests: u64,
    /// Physical reads performed for demand requests.
    pub physical_demand_reads: u64,
    /// Physical reads performed for readahead.
    pub physical_readahead_reads: u64,
    /// Requests satisfied by attaching to an in-flight read.
    pub coalesce_hits: u64,
    /// Requests satisfied from the readahead cache.
    pub readahead_hits: u64,
    /// Readahead requests enqueued.
    pub readahead_issued: u64,
    /// Synchronous block writes persisted to the backing store.
    pub writes: u64,
    /// Injected I/O errors (demand and readahead).
    pub io_errors: u64,
    /// Injected slow-block delays served.
    pub slow_faults: u64,
    /// Seeks charged by the scheduler.
    pub seeks: u64,
    /// Largest pending-queue depth observed.
    pub max_queue_depth: u64,
}

impl DiskStats {
    /// All physical reads, demand plus readahead.
    pub fn physical_reads(&self) -> u64 {
        self.physical_demand_reads + self.physical_readahead_reads
    }
}

/// Metric handles — registry-backed when a [`Registry`] is attached, else
/// standalone (same types, nothing scrapes them).
struct Metrics {
    requests: Counter,
    physical_demand: Counter,
    physical_ra: Counter,
    coalesce_hits: Counter,
    readahead_hits: Counter,
    readahead_issued: Counter,
    writes: Counter,
    io_errors: Counter,
    slow_faults: Counter,
    seeks: Counter,
    queue_depth: Gauge,
    inflight: Gauge,
    batch_len: Histogram,
    latency_demand: Histogram,
    latency_ra: Histogram,
}

impl Metrics {
    fn standalone() -> Metrics {
        Metrics {
            requests: Counter::new(),
            physical_demand: Counter::new(),
            physical_ra: Counter::new(),
            coalesce_hits: Counter::new(),
            readahead_hits: Counter::new(),
            readahead_issued: Counter::new(),
            writes: Counter::new(),
            io_errors: Counter::new(),
            slow_faults: Counter::new(),
            seeks: Counter::new(),
            queue_depth: Gauge::new(),
            inflight: Gauge::new(),
            batch_len: Histogram::new(),
            latency_demand: Histogram::new(),
            latency_ra: Histogram::new(),
        }
    }

    fn registered(r: &Registry, node: &str) -> Metrics {
        let l = [("node", node)];
        Metrics {
            requests: r.counter(
                "ccm_disk_requests_total",
                "Demand block reads submitted to the disk service",
                &l,
            ),
            physical_demand: r.counter(
                "ccm_disk_reads_total",
                "Physical reads issued to the backing store, by kind",
                &[("node", node), ("kind", "demand")],
            ),
            physical_ra: r.counter(
                "ccm_disk_reads_total",
                "Physical reads issued to the backing store, by kind",
                &[("node", node), ("kind", "readahead")],
            ),
            coalesce_hits: r.counter(
                "ccm_disk_coalesce_hits_total",
                "Requests that attached to an in-flight read of the same block",
                &l,
            ),
            readahead_hits: r.counter(
                "ccm_disk_readahead_hits_total",
                "Requests satisfied from the readahead cache",
                &l,
            ),
            readahead_issued: r.counter(
                "ccm_disk_readahead_issued_total",
                "Readahead requests enqueued for detected sequential streams",
                &l,
            ),
            writes: r.counter(
                "ccm_disk_writes_total",
                "Synchronous block writes persisted to the backing store",
                &l,
            ),
            io_errors: r.counter(
                "ccm_disk_io_errors_total",
                "Injected I/O errors served by the fault plan",
                &l,
            ),
            slow_faults: r.counter(
                "ccm_disk_slow_faults_total",
                "Injected slow-block delays served by the fault plan",
                &l,
            ),
            seeks: r.counter(
                "ccm_disk_seeks_total",
                "Seeks charged by the scheduler (positioning + metadata)",
                &l,
            ),
            queue_depth: r.gauge(
                "ccm_disk_queue_depth",
                "Requests pending in the disk scheduler queue",
                &l,
            ),
            inflight: r.gauge(
                "ccm_disk_inflight",
                "Physical reads currently in progress",
                &l,
            ),
            batch_len: r.histogram(
                "ccm_disk_batch_len",
                "Length of head-contiguous runs served back to back",
                &l,
            ),
            latency_demand: r.histogram(
                "ccm_disk_read_latency_ns",
                "Physical read service time by request kind",
                &[("node", node), ("kind", "demand")],
            ),
            latency_ra: r.histogram(
                "ccm_disk_read_latency_ns",
                "Physical read service time by request kind",
                &[("node", node), ("kind", "readahead")],
            ),
        }
    }
}

/// Bookkeeping for one enqueued-or-inflight request.
struct PendingEntry {
    waiters: Vec<Sender<DiskRead>>,
    /// Readahead-originated (no caller is owed a reply).
    internal: bool,
    /// Counted against the demand backpressure cap at enqueue time.
    counted_demand: bool,
    /// Write generation at creation; stale results are never cached.
    gen: u64,
}

struct Core {
    queue: SchedQueue<BlockId>,
    pending: FxHashMap<u64, PendingEntry>,
    by_block: FxHashMap<BlockId, u64>,
    demand_queued: usize,
    ra_cache: FxHashMap<BlockId, Arc<[u8]>>,
    ra_order: VecDeque<BlockId>,
    /// file → index of its last demand read, for stream detection.
    last_block: FxHashMap<u32, u32>,
    write_gen: u64,
    batch_run: u64,
    stop: bool,
}

struct Inner {
    core: Mutex<Core>,
    /// Signalled when the queue gains work or the service stops.
    work: Condvar,
    /// Signalled when a demand slot frees up.
    space: Condvar,
    cfg: DiskConfig,
    store: Arc<dyn BlockStore>,
    catalog: Catalog,
    layout: DiskLayout,
    faults: Option<(u64, DiskFaults)>,
    m: Metrics,
}

/// A per-node asynchronous disk service. See the module docs for the
/// request life cycle; construction via [`DiskService::start`] or
/// [`DiskService::start_observed`].
pub struct DiskService {
    inner: Arc<Inner>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

const SLOW_SALT: u64 = 0x510D_15C0;
const ERR_SALT: u64 = 0xE440_D15C;

/// Per-block fault roll in `[0, 1)`: a pure function of the key, so every
/// attempt on a block under one seed decides identically.
fn roll(seed: u64, salt: u64, block: BlockId) -> f64 {
    let key =
        ((block.file.0 as u64) << 32 | block.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut s = seed ^ salt ^ key;
    (simcore::rng::splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64
}

impl DiskService {
    /// Start a service with no fault injection and unscraped metrics.
    pub fn start(store: Arc<dyn BlockStore>, catalog: Catalog, cfg: DiskConfig) -> DiskService {
        DiskService::start_observed(store, catalog, cfg, None, None, "0")
    }

    /// Start a service with optional seeded faults and, when `registry` is
    /// given, metrics registered under `ccm_disk_*` with `node` as the
    /// node label.
    pub fn start_observed(
        store: Arc<dyn BlockStore>,
        catalog: Catalog,
        cfg: DiskConfig,
        faults: Option<(u64, DiskFaults)>,
        registry: Option<&Registry>,
        node: &str,
    ) -> DiskService {
        let layout = DiskLayout::new(&catalog);
        let m = match registry {
            Some(r) => Metrics::registered(r, node),
            None => Metrics::standalone(),
        };
        let inner = Arc::new(Inner {
            core: Mutex::new(Core {
                queue: SchedQueue::new(DiskScheduler::Batched),
                pending: FxHashMap::default(),
                by_block: FxHashMap::default(),
                demand_queued: 0,
                ra_cache: FxHashMap::default(),
                ra_order: VecDeque::new(),
                last_block: FxHashMap::default(),
                write_gen: 0,
                batch_run: 0,
                stop: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            cfg: DiskConfig {
                queue_cap: cfg.queue_cap.max(1),
                ..cfg
            },
            store,
            catalog,
            layout,
            faults: faults.filter(|(_, f)| !f.is_none()),
            m,
        });
        let worker = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("ccm-disk".into())
                .spawn(move || worker_loop(&inner))
                .expect("spawn disk worker")
        };
        DiskService {
            inner,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Read one block, blocking until the service delivers it.
    pub fn read(&self, block: BlockId) -> DiskRead {
        match self.read_async(block).recv() {
            Ok(res) => res,
            Err(_) => Err(DiskError::Shutdown),
        }
    }

    /// Submit one block read; the receiver yields the result when a worker
    /// completes it. Blocks only while the demand queue is at capacity.
    pub fn read_async(&self, block: BlockId) -> Receiver<DiskRead> {
        let inner = &*self.inner;
        let (tx, rx) = chan::unbounded();
        let mut core = inner.core.lock();
        inner.m.requests.inc();
        if core.stop {
            let _ = tx.send(Err(DiskError::Shutdown));
            return rx;
        }
        // 1. Readahead cache: single-shot — the runtime caches the block
        // itself after this, so holding a second copy here is waste.
        if let Some(data) = core.ra_cache.remove(&block) {
            inner.m.readahead_hits.inc();
            note_stream_and_readahead(&mut core, inner, block);
            let _ = tx.send(Ok(data));
            return rx;
        }
        // 2. Coalesce onto an in-flight or queued read of the same block.
        if let Some(&seq) = core.by_block.get(&block) {
            if let Some(p) = core.pending.get_mut(&seq) {
                inner.m.coalesce_hits.inc();
                p.internal = false;
                p.waiters.push(tx);
                return rx;
            }
        }
        // 3. Backpressure, then enqueue a demand request.
        while core.demand_queued >= inner.cfg.queue_cap && !core.stop {
            core = inner.space.wait(core);
        }
        if core.stop {
            let _ = tx.send(Err(DiskError::Shutdown));
            return rx;
        }
        let seq = core
            .queue
            .push(inner.layout.addr_of(block), BLOCK_SIZE, 1, block);
        core.demand_queued += 1;
        let gen = core.write_gen;
        core.pending.insert(
            seq,
            PendingEntry {
                waiters: vec![tx],
                internal: false,
                counted_demand: true,
                gen,
            },
        );
        core.by_block.insert(block, seq);
        inner.m.queue_depth.set(core.queue.len() as i64);
        note_stream_and_readahead(&mut core, inner, block);
        inner.work.notify_one();
        rx
    }

    /// Drop any cached or future-cacheable copy of `block` (called on
    /// writes: readahead bytes fetched before the write must never be
    /// served after it).
    pub fn invalidate(&self, block: BlockId) {
        let mut core = self.inner.core.lock();
        core.write_gen += 1;
        core.ra_cache.remove(&block);
        // Detach any in-flight read of this block: waiters that raced the
        // write still get the old bytes (the §3 staleness contract), but
        // no *new* request may coalesce onto a pre-write read, and the
        // generation bump keeps its result out of the readahead cache.
        core.by_block.remove(&block);
    }

    /// Durably persist one block, synchronously. The write path bypasses the
    /// scheduler queue — a writer has already paid the coherence protocol's
    /// latency and must know durability before acking — and is never subject
    /// to fault injection (the chaos plans model read-side device trouble;
    /// an acked write-through write is the durability anchor the torture
    /// oracles verify against). Invalidation of stale cached read state
    /// happens under the same lock acquisition that bumps the write
    /// generation, so no pre-write read result can be cached after this
    /// returns. Returns false (with no state change charged) if the backing
    /// store is read-only.
    pub fn write_block(&self, block: BlockId, data: &[u8]) -> bool {
        {
            let mut core = self.inner.core.lock();
            if core.stop {
                return false;
            }
            core.write_gen += 1;
            core.ra_cache.remove(&block);
            core.by_block.remove(&block);
        }
        // The store write runs outside the lock: readers racing it get
        // before-or-after bytes (the §3 staleness contract), and the
        // generation bump above already fenced the readahead cache.
        let ok = self.inner.store.write_block(block, data);
        if ok {
            self.inner.m.writes.inc();
        }
        ok
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> DiskStats {
        let m = &self.inner.m;
        let max_queue_depth = {
            let core = self.inner.core.lock();
            core.queue.max_depth() as u64
        };
        DiskStats {
            requests: m.requests.get(),
            physical_demand_reads: m.physical_demand.get(),
            physical_readahead_reads: m.physical_ra.get(),
            coalesce_hits: m.coalesce_hits.get(),
            readahead_hits: m.readahead_hits.get(),
            readahead_issued: m.readahead_issued.get(),
            writes: m.writes.get(),
            io_errors: m.io_errors.get(),
            slow_faults: m.slow_faults.get(),
            seeks: m.seeks.get(),
            max_queue_depth,
        }
    }

    /// The catalog this service reads.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Stop the worker and fail every queued request with
    /// [`DiskError::Shutdown`]. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut core = self.inner.core.lock();
            if core.stop {
                return;
            }
            core.stop = true;
            for (_, p) in core.pending.drain() {
                for w in p.waiters {
                    let _ = w.send(Err(DiskError::Shutdown));
                }
            }
            core.by_block.clear();
            self.inner.work.notify_all();
            self.inner.space.notify_all();
        }
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for DiskService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for DiskService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DiskService({:?})", self.inner.cfg)
    }
}

/// Update the per-file stream tracker with a demand read of `block` and
/// enqueue internal readahead for the blocks that follow it. Readahead is
/// best-effort: it never blocks on backpressure and is shed when the
/// scheduler queue is already `queue_cap` deep.
fn note_stream_and_readahead(core: &mut Core, inner: &Inner, block: BlockId) {
    let file = block.file;
    let prev = core.last_block.insert(file.0, block.index);
    if inner.cfg.readahead == 0 {
        return;
    }
    let sequential = block.index > 0 && prev == Some(block.index - 1);
    if !sequential {
        return;
    }
    let blocks = inner.catalog.blocks_of(file);
    for k in 1..=inner.cfg.readahead {
        let Some(next) = block.index.checked_add(k) else {
            break;
        };
        if next >= blocks {
            break;
        }
        let nb = BlockId::new(file, next);
        if core.ra_cache.contains_key(&nb) || core.by_block.contains_key(&nb) {
            continue;
        }
        if core.queue.len() >= inner.cfg.queue_cap {
            break;
        }
        let seq = core.queue.push(inner.layout.addr_of(nb), BLOCK_SIZE, 1, nb);
        let gen = core.write_gen;
        core.pending.insert(
            seq,
            PendingEntry {
                waiters: Vec::new(),
                internal: true,
                counted_demand: false,
                gen,
            },
        );
        core.by_block.insert(nb, seq);
        inner.m.readahead_issued.inc();
        inner.m.queue_depth.set(core.queue.len() as i64);
        inner.work.notify_one();
    }
}

/// Park readahead bytes in the single-shot cache, evicting oldest-first.
fn ra_insert(core: &mut Core, block: BlockId, data: Arc<[u8]>) {
    if core.ra_order.len() >= READAHEAD_CACHE * 2 {
        // Taken and invalidated entries leave stale ids in the eviction
        // order; prune them before they dominate.
        let Core {
            ra_order, ra_cache, ..
        } = core;
        ra_order.retain(|b| ra_cache.contains_key(b));
    }
    while core.ra_cache.len() >= READAHEAD_CACHE {
        let Some(old) = core.ra_order.pop_front() else {
            break;
        };
        // Entries already taken or invalidated leave stale ids behind;
        // popping them frees nothing, so keep going.
        core.ra_cache.remove(&old);
    }
    core.ra_order.push_back(block);
    core.ra_cache.insert(block, data);
}

fn worker_loop(inner: &Inner) {
    let mut core = inner.core.lock();
    loop {
        if core.stop {
            return;
        }
        let Some(picked) = core.queue.pop() else {
            core = inner.work.wait(core);
            continue;
        };
        let seq = picked.seq;
        let block = picked.payload;
        // The pending entry outlives the pop (delivery removes it), but
        // shutdown may have drained it while we held no lock earlier.
        let Some(p) = core.pending.get(&seq) else {
            continue;
        };
        let internal = p.internal;
        let gen = p.gen;
        if p.counted_demand {
            core.demand_queued -= 1;
            inner.space.notify_one();
        }
        if picked.contiguous {
            core.batch_run += 1;
        } else {
            if core.batch_run > 0 {
                inner.m.batch_len.record(core.batch_run);
            }
            core.batch_run = 1;
        }
        inner.m.seeks.add(picked.seeks as u64);
        inner.m.queue_depth.set(core.queue.len() as i64);
        inner.m.inflight.adjust(1);
        drop(core);

        // Physical service, no lock held: injected faults, then the real
        // store read.
        let sw = Stopwatch::start();
        let mut injected_err = false;
        if let Some((seed, f)) = inner.faults {
            if f.slow_prob > 0.0 && roll(seed, SLOW_SALT, block) < f.slow_prob {
                inner.m.slow_faults.inc();
                std::thread::sleep(f.slow);
            }
            if f.error_prob > 0.0 && roll(seed, ERR_SALT, block) < f.error_prob {
                injected_err = true;
            }
        }
        let res: DiskRead = if injected_err {
            inner.m.io_errors.inc();
            Err(DiskError::Io)
        } else {
            if internal {
                inner.m.physical_ra.inc();
            } else {
                inner.m.physical_demand.inc();
            }
            Ok(Arc::from(inner.store.read_block(block)))
        };
        sw.stop(if internal {
            &inner.m.latency_ra
        } else {
            &inner.m.latency_demand
        });

        core = inner.core.lock();
        inner.m.inflight.adjust(-1);
        if let Some(p) = core.pending.remove(&seq) {
            if core.by_block.get(&block) == Some(&seq) {
                core.by_block.remove(&block);
            }
            if p.waiters.is_empty() {
                // Pure readahead: cache unless a write intervened.
                if let Ok(data) = &res {
                    if p.gen == core.write_gen && gen == p.gen {
                        ra_insert(&mut core, block, data.clone());
                    }
                }
            } else {
                for w in p.waiters {
                    let _ = w.send(res.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_rolls_are_deterministic_per_block() {
        let b = BlockId::new(ccm_core::FileId(3), 7);
        assert_eq!(roll(42, SLOW_SALT, b), roll(42, SLOW_SALT, b));
        assert_ne!(roll(42, SLOW_SALT, b), roll(43, SLOW_SALT, b));
        assert_ne!(roll(42, SLOW_SALT, b), roll(42, ERR_SALT, b));
        let r = roll(42, SLOW_SALT, b);
        assert!((0.0..1.0).contains(&r));
    }

    #[test]
    fn disk_faults_none_never_fires() {
        assert!(DiskFaults::NONE.is_none());
        assert!(DiskFaults::default().is_none());
        assert!(!DiskFaults {
            error_prob: 0.5,
            ..DiskFaults::NONE
        }
        .is_none());
    }
}
