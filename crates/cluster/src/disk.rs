//! The disk model: seeks, sequential transfer, and request scheduling.
//!
//! This component is behind the first of the paper's two -Basic findings:
//! "One disk is always the performance bottleneck because of interleaving of
//! request streams" (§5). Two streams each reading a contiguous 64 KB unit
//! cost 2 positioning+metadata seeks each when served back to back, but 12
//! seeks when their per-block requests interleave — and the first disk to
//! fall behind stays the system bottleneck. The paper's fix is "a simple
//! scheduling algorithm in our queue of disk requests"; here that is
//! [`DiskScheduler::Batched`], versus the naive [`DiskScheduler::Fifo`].
//!
//! That queue is [`SchedQueue`], written once and shared: the simulator's
//! [`Disk`] charges its picks Table 1 time, and the threaded runtime's disk
//! service (`ccm-disk`) serves its picks with real reads. The batched pick
//! rule:
//!
//! 1. a request whose address equals the current head position (earliest
//!    arrival among them) — continuing the sequential run is free;
//! 2. otherwise C-LOOK: the smallest `(address, arrival)` at or above the
//!    head;
//! 3. otherwise wrap to the smallest `(address, arrival)` overall.
//!
//! Seek accounting, matching Table 1 plus the 64 KB metadata rule (§4.2):
//! a request contiguous with the current head position pays a metadata seek
//! only for each extent after its first; any other request pays one
//! positioning seek plus one metadata seek per 64 KB extent it touches.

use crate::costs::CostModel;
use simcore::{SimDuration, SimTime, Utilization};
use std::collections::VecDeque;

/// How the pending-request queue is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskScheduler {
    /// Serve strictly in arrival order (the paper's -Basic).
    #[default]
    Fifo,
    /// Prefer the request contiguous with the head; otherwise sweep upward
    /// by address, wrapping (C-LOOK). This is the paper's "simple
    /// scheduling algorithm".
    Batched,
}

/// One disk read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// Caller correlation token, returned in the [`Completion`].
    pub tag: u64,
    /// Starting byte address on this disk.
    pub address: u64,
    /// Contiguous bytes to transfer.
    pub bytes: u64,
    /// Number of 64 KB extents this request touches (each charges one
    /// metadata seek unless the head is already inside the run).
    pub extents: u32,
}

/// A finished (or started-and-scheduled) disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's correlation token.
    pub tag: u64,
    /// When the transfer finishes.
    pub done: SimTime,
    /// Seeks this request paid (for statistics/ablation).
    pub seeks: u32,
}

/// Aggregate disk statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Requests fully served.
    pub requests: u64,
    /// Total positioning + metadata seeks paid.
    pub seeks: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

/// One pending request with its scheduling key and caller payload.
#[derive(Debug, Clone)]
struct Pending<T> {
    seq: u64,
    addr: u64,
    bytes: u64,
    extents: u32,
    payload: T,
}

/// A request the scheduler has picked for service.
#[derive(Debug, Clone)]
pub struct Picked<T> {
    /// Arrival sequence number (from [`SchedQueue::push`]).
    pub seq: u64,
    /// Contiguous bytes to transfer.
    pub bytes: u64,
    /// Whether the request continued the head's sequential run.
    pub contiguous: bool,
    /// Seeks charged: a contiguous request pays `extents - 1`, anything
    /// else `1 + extents`.
    pub seeks: u32,
    /// The caller's payload.
    pub payload: T,
}

/// The pending-request queue plus head position: the whole scheduler, with
/// no clock, threads or I/O attached.
#[derive(Debug, Clone)]
pub struct SchedQueue<T> {
    policy: DiskScheduler,
    queue: VecDeque<Pending<T>>,
    seq: u64,
    /// Byte address just past the last transfer (head position).
    head: u64,
    max_depth: usize,
}

impl<T> SchedQueue<T> {
    /// An empty queue with the head unpositioned (the first request always
    /// pays a positioning seek).
    pub fn new(policy: DiskScheduler) -> SchedQueue<T> {
        SchedQueue {
            policy,
            queue: VecDeque::new(),
            seq: 0,
            head: u64::MAX,
            max_depth: 0,
        }
    }

    /// Pending requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Largest pending depth observed.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Enqueue a request; returns its arrival sequence number.
    pub fn push(&mut self, addr: u64, bytes: u64, extents: u32, payload: T) -> u64 {
        self.seq += 1;
        self.queue.push_back(Pending {
            seq: self.seq,
            addr,
            bytes,
            extents,
            payload,
        });
        self.max_depth = self.max_depth.max(self.queue.len());
        self.seq
    }

    /// Pick the next request per the policy, advance the head past its
    /// transfer, and charge its seeks.
    pub fn pop(&mut self) -> Option<Picked<T>> {
        let idx = self.pick_index()?;
        let p = self.queue.remove(idx).expect("index in range");
        let contiguous = p.addr == self.head;
        let seeks = if contiguous {
            // Continuing the current sequential run: no positioning seek and
            // the first extent's metadata was already fetched.
            p.extents.saturating_sub(1)
        } else {
            1 + p.extents
        };
        self.head = p.addr + p.bytes;
        Some(Picked {
            seq: p.seq,
            bytes: p.bytes,
            contiguous,
            seeks,
            payload: p.payload,
        })
    }

    fn pick_index(&self) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        match self.policy {
            DiskScheduler::Fifo => Some(0),
            DiskScheduler::Batched => {
                // 1. A request continuing the current head run is free.
                if let Some(i) = self.queue.iter().position(|p| p.addr == self.head) {
                    return Some(i);
                }
                // 2. C-LOOK: smallest address at or above the head...
                let mut best: Option<(usize, u64, u64)> = None; // (idx, addr, seq)
                for (i, p) in self.queue.iter().enumerate() {
                    if p.addr >= self.head {
                        let better = match best {
                            None => true,
                            Some((_, a, s)) => (p.addr, p.seq) < (a, s),
                        };
                        if better {
                            best = Some((i, p.addr, p.seq));
                        }
                    }
                }
                if let Some((i, _, _)) = best {
                    return Some(i);
                }
                // 3. ...wrapping to the smallest address overall.
                let mut best: Option<(usize, u64, u64)> = None;
                for (i, p) in self.queue.iter().enumerate() {
                    let better = match best {
                        None => true,
                        Some((_, a, s)) => (p.addr, p.seq) < (a, s),
                    };
                    if better {
                        best = Some((i, p.addr, p.seq));
                    }
                }
                best.map(|(i, _, _)| i)
            }
        }
    }
}

/// A single disk: a [`SchedQueue`] of request tags, charged Table 1 time.
///
/// ```
/// use ccm_cluster::{CostModel, Disk, DiskRequest, DiskScheduler};
/// use simcore::SimTime;
///
/// let costs = CostModel::default();
/// let mut disk = Disk::new(DiskScheduler::Batched);
/// let first = disk
///     .submit(SimTime::ZERO, DiskRequest { tag: 1, address: 0, bytes: 8192, extents: 1 }, &costs)
///     .expect("idle disk starts immediately");
/// // A second request queues until the first completes.
/// assert!(disk
///     .submit(SimTime::ZERO, DiskRequest { tag: 2, address: 8192, bytes: 8192, extents: 1 }, &costs)
///     .is_none());
/// let second = disk.next_after_completion(first.done, &costs).unwrap();
/// assert_eq!(second.seeks, 0, "head-contiguous follow-up read seeks nothing");
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    queue: SchedQueue<u64>,
    busy: bool,
    util: Utilization,
    stats: DiskStats,
}

impl Disk {
    /// An idle disk with the head unpositioned (the first request always
    /// pays a positioning seek).
    pub fn new(scheduler: DiskScheduler) -> Disk {
        Disk {
            queue: SchedQueue::new(scheduler),
            busy: false,
            util: Utilization::new(),
            stats: DiskStats::default(),
        }
    }

    /// Pending (not yet started) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Largest pending-queue depth observed.
    pub fn max_queue_depth(&self) -> usize {
        self.queue.max_depth()
    }

    /// True if a transfer is in progress.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Totals served so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Accumulated busy time (seek + transfer), for utilization.
    pub fn busy_time(&self) -> SimDuration {
        self.util.busy()
    }

    /// Submit a request at `now`. If the disk was idle it starts immediately
    /// and the completion is returned — schedule an event for it. If busy,
    /// the request queues and `None` is returned; it will be started by a
    /// later [`Disk::next_after_completion`].
    pub fn submit(
        &mut self,
        now: SimTime,
        req: DiskRequest,
        costs: &CostModel,
    ) -> Option<Completion> {
        self.queue
            .push(req.address, req.bytes, req.extents, req.tag);
        if self.busy {
            None
        } else {
            self.start_next(now, costs)
        }
    }

    /// Called when the in-progress transfer's completion event fires: marks
    /// the disk idle and starts the next queued request, if any, returning
    /// its completion to schedule.
    pub fn next_after_completion(&mut self, now: SimTime, costs: &CostModel) -> Option<Completion> {
        debug_assert!(self.busy, "completion without a transfer in progress");
        self.busy = false;
        self.start_next(now, costs)
    }

    fn start_next(&mut self, now: SimTime, costs: &CostModel) -> Option<Completion> {
        let p = self.queue.pop()?;
        let service = costs.disk_time(p.bytes, p.seeks);
        self.busy = true;
        self.util.add_busy(service);
        self.stats.requests += 1;
        self.stats.seeks += p.seeks as u64;
        self.stats.bytes += p.bytes;
        Some(Completion {
            tag: p.payload,
            done: now + service,
            seeks: p.seeks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::hash::{fnv1a, FNV_OFFSET};
    use simcore::Rng;

    const B: u64 = 8192;
    const EXTENT: u64 = 64 * 1024;

    fn req(tag: u64, address: u64, bytes: u64) -> DiskRequest {
        DiskRequest {
            tag,
            address,
            bytes,
            extents: 1,
        }
    }

    fn run_all(disk: &mut Disk, costs: &CostModel, reqs: &[DiskRequest]) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut pending: Option<Completion> = None;
        for &r in reqs {
            if let Some(c) = disk.submit(SimTime::ZERO, r, costs) {
                assert!(pending.is_none());
                pending = Some(c);
            }
        }
        while let Some(c) = pending {
            out.push(c);
            pending = disk.next_after_completion(c.done, costs);
        }
        out
    }

    fn drain(q: &mut SchedQueue<u64>) -> Vec<u64> {
        std::iter::from_fn(|| q.pop().map(|p| p.payload)).collect()
    }

    #[test]
    fn idle_disk_starts_immediately() {
        let costs = CostModel::default();
        let mut d = Disk::new(DiskScheduler::Fifo);
        let c = d.submit(SimTime::ZERO, req(1, 0, 8192), &costs).unwrap();
        assert_eq!(c.tag, 1);
        assert!(d.is_busy());
        assert_eq!(d.queue_len(), 0);
    }

    #[test]
    fn busy_disk_queues() {
        let costs = CostModel::default();
        let mut d = Disk::new(DiskScheduler::Fifo);
        d.submit(SimTime::ZERO, req(1, 0, 8192), &costs).unwrap();
        assert!(d
            .submit(SimTime::ZERO, req(2, EXTENT, 8192), &costs)
            .is_none());
        assert_eq!(d.queue_len(), 1);
    }

    #[test]
    fn contiguous_requests_pay_no_seek() {
        let costs = CostModel::default();
        let mut d = Disk::new(DiskScheduler::Fifo);
        // Three back-to-back 8 KB reads within one extent starting at 0:
        // first pays positioning + metadata (2 seeks), rest pay none.
        let reqs = [req(1, 0, 8192), req(2, 8192, 8192), req(3, 16384, 8192)];
        let done = run_all(&mut d, &costs, &reqs);
        assert_eq!(done[0].seeks, 2);
        assert_eq!(done[1].seeks, 0);
        assert_eq!(done[2].seeks, 0);
        assert_eq!(d.stats().seeks, 2);
    }

    #[test]
    fn paper_interleaving_example_12_vs_4_seeks() {
        // Two streams of 3 blocks in different extents. Perfectly
        // interleaved FIFO arrival: a x b y c z.
        let costs = CostModel::default();
        let s1 = [req(1, 0, 8192), req(3, 8192, 8192), req(5, 16384, 8192)];
        let s2 = [
            req(2, EXTENT, 8192),
            req(4, EXTENT + 8192, 8192),
            req(6, EXTENT + 16384, 8192),
        ];
        let interleaved: Vec<DiskRequest> = s1
            .iter()
            .zip(s2.iter())
            .flat_map(|(&a, &b)| [a, b])
            .collect();

        let mut fifo = Disk::new(DiskScheduler::Fifo);
        run_all(&mut fifo, &costs, &interleaved);
        assert_eq!(fifo.stats().seeks, 12, "FIFO interleaving costs 12 seeks");

        let mut batched = Disk::new(DiskScheduler::Batched);
        run_all(&mut batched, &costs, &interleaved);
        assert_eq!(
            batched.stats().seeks,
            4,
            "batched scheduling restores 2 seeks per stream"
        );
    }

    #[test]
    fn batched_never_does_worse_than_fifo_on_seeks() {
        let costs = CostModel::default();
        let mut rng = simcore::Rng::new(123);
        for _ in 0..50 {
            let reqs: Vec<DiskRequest> = (0..40)
                .map(|i| {
                    let extent = rng.next_below(8);
                    let block = rng.next_below(8);
                    req(i, extent * EXTENT + block * 8192, 8192)
                })
                .collect();
            let mut fifo = Disk::new(DiskScheduler::Fifo);
            run_all(&mut fifo, &costs, &reqs);
            let mut batched = Disk::new(DiskScheduler::Batched);
            run_all(&mut batched, &costs, &reqs);
            assert!(
                batched.stats().seeks <= fifo.stats().seeks,
                "batched {} > fifo {}",
                batched.stats().seeks,
                fifo.stats().seeks
            );
        }
    }

    /// The one pick-and-seek rule, pinned: the service-order digest and
    /// total seeks of two seeded arrival families under both policies.
    /// Forty sets of 60 multi-extent requests with repeated addresses, and
    /// twenty sets of 40 one-block requests; the first request of each set
    /// starts on an idle disk, the rest drain in pick order.
    #[test]
    fn seeded_service_orders_are_pinned() {
        let costs = CostModel::default();
        let multi_extent = |seed: u64| -> Vec<DiskRequest> {
            let mut rng = Rng::new(0xD15C ^ seed);
            (0..60)
                .map(|tag| {
                    let address = rng.next_below(10) * EXTENT + rng.next_below(8) * B;
                    let extents = 1 + rng.next_below(3) as u32;
                    DiskRequest {
                        tag,
                        address,
                        bytes: extents as u64 * EXTENT,
                        extents,
                    }
                })
                .collect()
        };
        let one_block = |seed: u64| -> Vec<DiskRequest> {
            let mut rng = Rng::new(0xBEE5 ^ seed);
            (0..40)
                .map(|tag| req(tag, rng.next_below(8) * EXTENT + rng.next_below(8) * B, B))
                .collect()
        };
        let replay = |sched, sets: &[Vec<DiskRequest>]| {
            let (mut digest, mut seeks) = (FNV_OFFSET, 0);
            for reqs in sets {
                let mut disk = Disk::new(sched);
                for c in run_all(&mut disk, &costs, reqs) {
                    fnv1a(&mut digest, &c.tag.to_le_bytes());
                }
                seeks += disk.stats().seeks;
            }
            (digest, seeks)
        };
        let multi: Vec<_> = (0..40).map(multi_extent).collect();
        let single: Vec<_> = (0..20).map(one_block).collect();
        use DiskScheduler::{Batched, Fifo};
        assert_eq!(replay(Fifo, &multi), (0x17af_b0f3_dd0d_1125, 7123));
        assert_eq!(replay(Batched, &multi), (0xcb79_e7dd_3188_6f45, 6097));
        assert_eq!(replay(Fifo, &single), (0x5e32_73be_368a_6925, 1572));
        assert_eq!(replay(Batched, &single), (0x3c46_53f6_df29_20c5, 1018));
    }

    #[test]
    fn clook_sweeps_upward_then_wraps() {
        let costs = CostModel::default();
        let mut d = Disk::new(DiskScheduler::Batched);
        // Head starts at 0. Queue addresses out of order; first request (addr
        // 5*EXTENT) starts immediately since disk idle, moving head past it.
        let first = d
            .submit(SimTime::ZERO, req(0, 5 * EXTENT, 8192), &costs)
            .unwrap();
        for (i, addr) in [(1u64, 3 * EXTENT), (2, 7 * EXTENT), (3, 6 * EXTENT)] {
            assert!(d
                .submit(SimTime::ZERO, req(i, addr, 8192), &costs)
                .is_none());
        }
        // Head is now just past 5*EXTENT: sweep order should be 6, 7, then wrap to 3.
        let mut order = Vec::new();
        let mut next = d.next_after_completion(first.done, &costs);
        while let Some(c) = next {
            order.push(c.tag);
            next = d.next_after_completion(c.done, &costs);
        }
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn batched_prefers_head_contiguity_then_sweeps() {
        let mut q = SchedQueue::new(DiskScheduler::Batched);
        // Head unpositioned: first pop wraps to the smallest address (0),
        // then the run 0→B→2B is contiguous, then sweep picks 10B.
        q.push(10 * B, B, 1, 4);
        q.push(2 * B, B, 1, 3);
        q.push(0, B, 1, 1);
        q.push(B, B, 1, 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn equal_addresses_break_ties_by_arrival() {
        let mut q = SchedQueue::new(DiskScheduler::Batched);
        q.push(7 * B, B, 1, 1);
        q.push(7 * B, B, 1, 2);
        q.push(7 * B, B, 1, 3);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn completions_are_sequential_in_time() {
        let costs = CostModel::default();
        let mut d = Disk::new(DiskScheduler::Batched);
        let reqs: Vec<DiskRequest> = (0..10).map(|i| req(i, i * EXTENT, 65536)).collect();
        let done = run_all(&mut d, &costs, &reqs);
        for w in done.windows(2) {
            assert!(w[1].done > w[0].done);
        }
        assert_eq!(d.stats().requests, 10);
        assert_eq!(d.stats().bytes, 10 * 65536);
        assert!(d.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn multi_extent_request_charges_metadata_per_extent() {
        let costs = CostModel::default();
        let mut d = Disk::new(DiskScheduler::Fifo);
        let r = DiskRequest {
            tag: 1,
            address: EXTENT, // not at head → positioning seek
            bytes: 2 * EXTENT,
            extents: 2,
        };
        let c = d.submit(SimTime::ZERO, r, &costs).unwrap();
        assert_eq!(c.seeks, 3, "1 positioning + 2 metadata");
    }

    #[test]
    fn max_queue_depth_tracks_high_water() {
        let costs = CostModel::default();
        let mut d = Disk::new(DiskScheduler::Fifo);
        d.submit(SimTime::ZERO, req(1, 0, 8192), &costs);
        d.submit(SimTime::ZERO, req(2, EXTENT, 8192), &costs);
        d.submit(SimTime::ZERO, req(3, 2 * EXTENT, 8192), &costs);
        assert_eq!(d.max_queue_depth(), 2);
    }
}
