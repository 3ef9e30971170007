//! The asynchronous disk service: a bounded scheduled queue, one worker
//! (one disk head) and miss coalescing, per node.
//!
//! ## Request life cycle
//!
//! [`DiskService::read_run`] submits a run: consecutive blocks of one file
//! that the caller's protocol decisions named as disk reads. A block that
//! a queued or in-flight request already covers attaches to that request
//! (one physical read, everyone shares the `Arc<[u8]>`). The rest of the
//! run blocks while `queue_cap` requests are already queued (the
//! backpressure seam: callers feel a full disk queue as latency, exactly
//! like a real device), then enters a [`SchedQueue`] as one request of
//! `span × BLOCK_SIZE` bytes and the 64 KB extents it touches, ordered by
//! the paper's batched C-LOOK rule ([`DiskScheduler::Batched`]) — the
//! simulator's own queue, charged as the simulator charges a run's disk
//! submit, so the two serve identical arrivals in identical order at
//! identical seek cost. [`DiskService::read`] is the one-block run. The
//! worker pops in scheduler order, reads the run's blocks in order outside
//! the lock, and delivers each block to its waiters as it lands.
//!
//! The service reads exactly the blocks it is asked for: it keeps no copy
//! of block bytes and reads nothing ahead. After a write
//! ([`DiskService::write_block`], or [`DiskService::invalidate`] on the
//! other nodes' services) no new read attaches to a read of that block
//! that began before it.
//!
//! ## Faults
//!
//! [`DiskFaults`] injects seeded slow-disk latency and I/O errors. The
//! decision is a pure hash of `(seed, block)` — a marked block is *always*
//! slow or bad under that seed, and inside a run it is slow or bad alone —
//! so chaos-harness replays stay bit-identical without any per-attempt RNG
//! state. Read errors surface as [`DiskError::Io`]; the runtime degrades
//! to its synchronous store fallback, the same escape hatch it uses for
//! data-plane races.

use crate::layout::DiskLayout;
use crate::store::{BlockStore, Catalog};
use ccm_cluster::{DiskScheduler, SchedQueue};
use ccm_core::block::BLOCK_SIZE;
use ccm_core::BlockId;
use ccm_obs::{Counter, Gauge, Histogram, Registry, Stopwatch};
use simcore::chan::{self, Receiver, Sender};
use simcore::sync::{Condvar, Mutex};
use simcore::FxHashMap;
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
    /// Max queued requests before submitters block (backpressure); a run
    /// is one request.
    pub queue_cap: usize,
}

impl Default for DiskConfig {
    fn default() -> DiskConfig {
        DiskConfig { queue_cap: 128 }
    }
}

/// Counter snapshot for tests and reports. Counters stay live under
/// `obs-off`, so assertions on coalescing hold in every build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read requests submitted: a run counts once, whatever its length.
    pub requests: u64,
    /// Physical block reads performed.
    pub physical_demand_reads: u64,
    /// Blocks that attached to a queued or in-flight read of the same
    /// block.
    pub coalesce_hits: u64,
    /// Always 0: the service reads nothing ahead. Kept for the benchmark's
    /// `disk.readahead_hit_share`.
    pub readahead_hits: u64,
    /// Synchronous block writes persisted to the backing store.
    pub writes: u64,
    /// Injected I/O errors.
    pub io_errors: u64,
    /// Injected slow-block delays served.
    pub slow_faults: u64,
    /// Seeks charged by the scheduler.
    pub seeks: u64,
    /// Largest pending-queue depth observed.
    pub max_queue_depth: u64,
}

impl DiskStats {
    /// All physical block reads.
    pub fn physical_reads(&self) -> u64 {
        self.physical_demand_reads
    }
}

/// Metric handles — registry-backed when a [`Registry`] is attached, else
/// standalone (same types, nothing scrapes them).
struct Metrics {
    requests: Counter,
    physical: Counter,
    coalesce_hits: Counter,
    writes: Counter,
    io_errors: Counter,
    slow_faults: Counter,
    seeks: Counter,
    queue_depth: Gauge,
    inflight: Gauge,
    batch_len: Histogram,
    latency: Histogram,
}

impl Metrics {
    fn standalone() -> Metrics {
        Metrics {
            requests: Counter::new(),
            physical: Counter::new(),
            coalesce_hits: Counter::new(),
            writes: Counter::new(),
            io_errors: Counter::new(),
            slow_faults: Counter::new(),
            seeks: Counter::new(),
            queue_depth: Gauge::new(),
            inflight: Gauge::new(),
            batch_len: Histogram::new(),
            latency: Histogram::new(),
        }
    }

    fn registered(r: &Registry, node: &str) -> Metrics {
        let l = [("node", node)];
        Metrics {
            requests: r.counter(
                "ccm_disk_requests_total",
                "Read requests submitted to the disk service (a run counts once)",
                &l,
            ),
            physical: r.counter(
                "ccm_disk_reads_total",
                "Physical reads issued to the backing store, by kind",
                &[("node", node), ("kind", "demand")],
            ),
            coalesce_hits: r.counter(
                "ccm_disk_coalesce_hits_total",
                "Blocks that attached to a queued or in-flight read of the same block",
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
                "Requests whose physical reads are in progress",
                &l,
            ),
            batch_len: r.histogram(
                "ccm_disk_batch_len",
                "Length of head-contiguous runs served back to back",
                &l,
            ),
            latency: r.histogram(
                "ccm_disk_read_latency_ns",
                "Physical read service time by request kind",
                &[("node", node), ("kind", "demand")],
            ),
        }
    }
}

struct Core {
    /// Runs in scheduler order: the first block and the block count.
    queue: SchedQueue<(BlockId, u32)>,
    /// The waiters of each queued or in-flight request, by its sequence
    /// number, each with the index of the block it waits for.
    pending: FxHashMap<u64, Vec<(u32, Sender<DiskRead>)>>,
    /// The request each not-yet-delivered block can attach to.
    by_block: FxHashMap<BlockId, u64>,
    batch_run: u64,
    stop: bool,
}

struct Inner {
    core: Mutex<Core>,
    /// Signalled when the queue gains work or the service stops.
    work: Condvar,
    /// Signalled when a queue slot frees up.
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
                batch_run: 0,
                stop: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            cfg: DiskConfig {
                queue_cap: cfg.queue_cap.max(1),
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
        self.read_async(block)
            .recv()
            .unwrap_or(Err(DiskError::Shutdown))
    }

    /// Submit a read of one block: the one-block [`DiskService::read_run`].
    pub fn read_async(&self, block: BlockId) -> Receiver<DiskRead> {
        let mut run = self.read_run(block, 1);
        run.pop().expect("a one-block run has one receiver")
    }

    /// Submit a read of the `span` blocks of `first`'s file from `first`
    /// on as one scheduled request, and return one receiver per block, in
    /// block order, that yields the block's result once the worker has
    /// read it. A block a queued or in-flight request already covers
    /// attaches to that request instead, and the run continues as a new
    /// request after it. Blocks only while `queue_cap` requests are
    /// queued.
    pub fn read_run(&self, first: BlockId, span: u32) -> Vec<Receiver<DiskRead>> {
        let inner = &*self.inner;
        let end = first.index + span;
        let mut rxs = Vec::with_capacity(span as usize);
        let mut core = inner.core.lock();
        inner.m.requests.inc();
        while (rxs.len() as u32) < span {
            let index = first.index + rxs.len() as u32;
            let block = BlockId::new(first.file, index);
            let attach_to = core.by_block.get(&block).copied();
            if core.stop {
                let (tx, rx) = chan::unbounded();
                let _ = tx.send(Err(DiskError::Shutdown));
                rxs.push(rx);
            } else if let Some(waiters) = attach_to.and_then(|seq| core.pending.get_mut(&seq)) {
                let (tx, rx) = chan::unbounded();
                waiters.push((index, tx));
                inner.m.coalesce_hits.inc();
                rxs.push(rx);
            } else if core.queue.len() >= inner.cfg.queue_cap {
                core = inner.space.wait(core);
            } else {
                // A new request from `block` up to the next block that is
                // already covered.
                let len = (index + 1..end)
                    .find(|&i| core.by_block.contains_key(&BlockId::new(first.file, i)))
                    .unwrap_or(end)
                    - index;
                let last = BlockId::new(first.file, index + len - 1);
                let seq = core.queue.push(
                    inner.layout.addr_of(block),
                    len as u64 * BLOCK_SIZE,
                    last.extent() - block.extent() + 1,
                    (block, len),
                );
                let mut waiters = Vec::with_capacity(len as usize);
                for i in index..index + len {
                    let (tx, rx) = chan::unbounded();
                    waiters.push((i, tx));
                    rxs.push(rx);
                    core.by_block.insert(BlockId::new(first.file, i), seq);
                }
                core.pending.insert(seq, waiters);
                inner.m.queue_depth.set(core.queue.len() as i64);
                inner.work.notify_one();
            }
        }
        rxs
    }

    /// Detach any queued or in-flight read of `block` (called on the other
    /// nodes' services after a write): waiters that raced the write still
    /// get before-or-after bytes (the §3 staleness contract), but no *new*
    /// read attaches to a read that began before the write.
    pub fn invalidate(&self, block: BlockId) {
        self.inner.core.lock().by_block.remove(&block);
    }

    /// Durably persist one block, synchronously. The write path bypasses the
    /// scheduler queue — a writer has already paid the coherence protocol's
    /// latency and must know durability before acking — and is never subject
    /// to fault injection (the chaos plans model read-side device trouble;
    /// an acked write-through write is the durability anchor the torture
    /// oracles verify against). Once the store holds the new bytes, any
    /// queued or in-flight read of the block is detached, as
    /// [`DiskService::invalidate`] does, so no read submitted after this
    /// returns attaches to one that may have read the old bytes. Returns
    /// false (with no state change charged) if the backing store is
    /// read-only.
    pub fn write_block(&self, block: BlockId, data: &[u8]) -> bool {
        if self.inner.core.lock().stop {
            return false;
        }
        // The store write runs outside the lock: readers racing it get
        // before-or-after bytes (the §3 staleness contract).
        let ok = self.inner.store.write_block(block, data);
        if ok {
            self.inner.m.writes.inc();
            self.invalidate(block);
        }
        ok
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> DiskStats {
        let m = &self.inner.m;
        let max_queue_depth = self.inner.core.lock().queue.max_depth() as u64;
        DiskStats {
            requests: m.requests.get(),
            physical_demand_reads: m.physical.get(),
            coalesce_hits: m.coalesce_hits.get(),
            readahead_hits: 0,
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
            for (_, waiters) in core.pending.drain() {
                for (_, w) in waiters {
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

/// One physical block read, no lock held: injected faults, then the real
/// store read.
fn read_physical(inner: &Inner, block: BlockId) -> DiskRead {
    let sw = Stopwatch::start();
    let mut res = None;
    if let Some((seed, f)) = inner.faults {
        if f.slow_prob > 0.0 && roll(seed, SLOW_SALT, block) < f.slow_prob {
            inner.m.slow_faults.inc();
            std::thread::sleep(f.slow);
        }
        if f.error_prob > 0.0 && roll(seed, ERR_SALT, block) < f.error_prob {
            inner.m.io_errors.inc();
            res = Some(Err(DiskError::Io));
        }
    }
    let res = res.unwrap_or_else(|| {
        inner.m.physical.inc();
        Ok(Arc::from(inner.store.read_block(block)))
    });
    sw.stop(&inner.m.latency);
    res
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
        inner.space.notify_one();
        let (seq, (first, span)) = (picked.seq, picked.payload);
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
        for index in first.index..first.index + span {
            let block = BlockId::new(first.file, index);
            drop(core);
            let res = read_physical(inner, block);
            core = inner.core.lock();
            if core.by_block.get(&block) == Some(&seq) {
                core.by_block.remove(&block);
            }
            // Shutdown drained the entry: nobody waits for the rest.
            let Some(waiters) = core.pending.get_mut(&seq) else {
                break;
            };
            waiters.retain(|(i, w)| {
                if *i == index {
                    let _ = w.send(res.clone());
                }
                *i != index
            });
        }
        core.pending.remove(&seq);
        inner.m.inflight.adjust(-1);
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
