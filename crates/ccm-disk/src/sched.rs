//! The runtime disk scheduler: the simulator's queue discipline, extracted
//! as a pure data structure.
//!
//! [`SchedQueue`] mirrors `ccm_cluster::Disk`'s pending queue exactly —
//! same pick rule, same `(address, arrival)` tie-breaks, same head and
//! seek accounting — so the simulator and the threaded runtime provably
//! agree on service order (the parity test in `tests/parity.rs` feeds both
//! the same arrival sequence and asserts identical order). The pick rule
//! for [`SchedPolicy::Batched`], from the paper's "simple scheduling
//! algorithm in our queue of disk requests":
//!
//! 1. a request whose address equals the current head position (earliest
//!    arrival among them) — continuing the sequential run is free;
//! 2. otherwise C-LOOK: the smallest `(address, arrival)` at or above the
//!    head;
//! 3. otherwise wrap to the smallest `(address, arrival)` overall.
//!
//! [`SchedPolicy::Fifo`] is the paper's -Basic strawman: strict arrival
//! order, which collapses under interleaved sequential streams (12 seeks
//! where batching pays 4 — the simulator's
//! `paper_interleaving_example_12_vs_4_seeks` test, reproduced for this
//! queue by `tests/parity.rs`'s `paper_interleaving_example_matches`).

use std::collections::VecDeque;

/// How the pending-request queue is ordered. Runtime analog of
/// `ccm_cluster::DiskScheduler`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Serve strictly in arrival order.
    Fifo,
    /// Prefer the head-contiguous request; otherwise sweep upward by
    /// address, wrapping (C-LOOK).
    #[default]
    Batched,
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
    /// Starting byte address.
    pub addr: u64,
    /// Whether the request continued the head's sequential run.
    pub contiguous: bool,
    /// Seeks charged, using the simulator's rule: a contiguous request
    /// pays `extents - 1`, anything else `1 + extents`.
    pub seeks: u32,
    /// The caller's payload.
    pub payload: T,
}

/// The pending-request queue plus head position: everything the disk
/// scheduler needs, with no threads or I/O attached.
#[derive(Debug, Clone)]
pub struct SchedQueue<T> {
    policy: SchedPolicy,
    queue: VecDeque<Pending<T>>,
    seq: u64,
    head: u64,
    max_depth: usize,
}

impl<T> SchedQueue<T> {
    /// An empty queue with the head unpositioned (the first request always
    /// pays a positioning seek), matching `ccm_cluster::Disk::new`.
    pub fn new(policy: SchedPolicy) -> SchedQueue<T> {
        SchedQueue {
            policy,
            queue: VecDeque::new(),
            seq: 0,
            head: u64::MAX,
            max_depth: 0,
        }
    }

    /// Which policy this queue uses.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
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

    /// Current head position (byte address just past the last pop).
    pub fn head(&self) -> u64 {
        self.head
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
    /// transfer, and charge seeks — the exact decision
    /// `ccm_cluster::Disk::start_next` makes.
    pub fn pop(&mut self) -> Option<Picked<T>> {
        let idx = self.pick_index()?;
        let p = self.queue.remove(idx).expect("index in range");
        let contiguous = p.addr == self.head;
        let seeks = if contiguous {
            p.extents.saturating_sub(1)
        } else {
            1 + p.extents
        };
        self.head = p.addr + p.bytes;
        Some(Picked {
            seq: p.seq,
            addr: p.addr,
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
            SchedPolicy::Fifo => Some(0),
            SchedPolicy::Batched => {
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

#[cfg(test)]
mod tests {
    use super::*;

    const B: u64 = 8192;

    fn drain(q: &mut SchedQueue<u64>) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(p) = q.pop() {
            order.push(p.payload);
        }
        order
    }

    #[test]
    fn fifo_is_arrival_order() {
        let mut q = SchedQueue::new(SchedPolicy::Fifo);
        for (tag, addr) in [(1, 3 * B), (2, 0), (3, B)] {
            q.push(addr, B, 1, tag);
        }
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn batched_prefers_head_contiguity_then_sweeps() {
        let mut q = SchedQueue::new(SchedPolicy::Batched);
        // Head unpositioned: first pop wraps to the smallest address (0),
        // then the run 0→B→2B is contiguous, then sweep picks 10B.
        q.push(10 * B, B, 1, 4);
        q.push(2 * B, B, 1, 3);
        q.push(0, B, 1, 1);
        q.push(B, B, 1, 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn batched_wraps_like_c_look() {
        let mut q = SchedQueue::new(SchedPolicy::Batched);
        q.push(5 * B, B, 1, 1);
        assert_eq!(q.pop().expect("one pending").payload, 1);
        // Head is now past 5B; only smaller addresses remain → wrap to the
        // smallest, then sweep upward.
        q.push(4 * B, B, 1, 3);
        q.push(2 * B, B, 1, 2);
        assert_eq!(drain(&mut q), vec![2, 3]);
    }

    #[test]
    fn equal_addresses_break_ties_by_arrival() {
        let mut q = SchedQueue::new(SchedPolicy::Batched);
        q.push(7 * B, B, 1, 1);
        q.push(7 * B, B, 1, 2);
        q.push(7 * B, B, 1, 3);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn seek_accounting_matches_the_simulator_rule() {
        let mut q = SchedQueue::new(SchedPolicy::Batched);
        q.push(0, B, 1, 1);
        q.push(B, B, 1, 2);
        q.push(10 * B, B, 1, 3);
        let first = q.pop().expect("pending");
        assert!(!first.contiguous, "unpositioned head always seeks");
        assert_eq!(first.seeks, 2, "1 positioning + 1 metadata");
        let second = q.pop().expect("pending");
        assert!(second.contiguous);
        assert_eq!(second.seeks, 0, "continuing the run is free");
        let third = q.pop().expect("pending");
        assert_eq!(third.seeks, 2);
    }

    #[test]
    fn head_tracks_transfer_end() {
        let mut q = SchedQueue::new(SchedPolicy::Batched);
        assert_eq!(q.head(), u64::MAX);
        q.push(3 * B, 2 * B, 1, 1);
        q.pop().expect("pending");
        assert_eq!(q.head(), 5 * B);
    }
}
