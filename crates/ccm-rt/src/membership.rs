//! Dynamic cluster membership: a shared, epoch-versioned member table.
//!
//! The cluster is provisioned at a fixed *capacity* of node slots (the
//! transport, observability, and cache layers are all sized once, at
//! start), but the *active* set — which slots currently participate in the
//! protocol — changes at runtime: nodes join cold, leave gracefully, crash
//! and restart, or are declared dead by the heartbeat monitor.
//!
//! [`Membership`] is the single source of truth for that active set. Every
//! state change bumps a monotonically increasing **epoch** and signals a
//! condvar, so any thread can block until the cluster configuration it
//! observed has changed ([`Membership::wait_for_epoch`]) instead of
//! polling. The epoch is exported as the `ccm_rt_epoch` gauge.
//!
//! The table itself is deliberately dumb: `Middleware` makes every
//! transition, on one path for joins (`join_node`, `restart_node`) and one
//! for departures (`leave_node`, `crash_node`, and the heartbeat monitor
//! declaring a member dead), each pairing the transition with the cache
//! re-mastering and data-plane work it needs. Failure *detection* lives in
//! the heartbeat monitor (`Middleware::start_heartbeat`), which pings
//! service loops through the `Transport` seam and walks unresponsive
//! members Up → Suspect → Down.

use ccm_core::NodeId;
use simcore::sync::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// Lifecycle state of one provisioned node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Slot exists (transport bound, cache frame pool sized) but the node
    /// has never joined the cluster.
    Provisioned,
    /// Active member serving requests.
    Up,
    /// Missed at least one heartbeat; still treated as a member until the
    /// monitor gives up and declares it `Down`.
    Suspect,
    /// Crashed or declared dead: its memory is lost and repaired around.
    /// May rejoin (cold) later.
    Down,
    /// Left gracefully after handing its masters off. May rejoin later.
    Left,
}

impl MemberState {
    /// True for states that count as cluster members (`Up` or `Suspect` —
    /// a suspect is still routed to until the monitor declares it dead).
    pub fn is_member(self) -> bool {
        matches!(self, MemberState::Up | MemberState::Suspect)
    }
}

struct Table {
    epoch: u64,
    states: Vec<MemberState>,
}

/// Shared, epoch-versioned membership table for a cluster of fixed
/// capacity. Cheap to clone (an `Arc`); all clones observe the same state.
/// Only the runtime builds and moves one; everyone else observes it
/// through `Middleware::membership`.
#[derive(Clone)]
pub struct Membership {
    inner: Arc<(Mutex<Table>, Condvar)>,
}

impl Membership {
    /// A cluster provisioned for `capacity` slots of which the first
    /// `initial` start `Up`; the rest are `Provisioned` and may join later.
    /// Epoch starts at 0.
    ///
    /// # Panics
    /// Panics if `initial` is 0 or exceeds `capacity`.
    pub(crate) fn with_initial(capacity: usize, initial: usize) -> Membership {
        assert!(initial > 0, "a cluster needs at least one initial member");
        assert!(initial <= capacity, "more initial members than slots");
        let states = (0..capacity)
            .map(|i| {
                if i < initial {
                    MemberState::Up
                } else {
                    MemberState::Provisioned
                }
            })
            .collect();
        Membership {
            inner: Arc::new((Mutex::new(Table { epoch: 0, states }), Condvar::new())),
        }
    }

    /// The current epoch: bumped once per state transition.
    pub fn epoch(&self) -> u64 {
        self.inner.0.lock().epoch
    }

    /// The state of one slot.
    pub fn state(&self, node: NodeId) -> MemberState {
        self.inner.0.lock().states[node.index()]
    }

    /// True if `node` currently counts as a member (`Up` or `Suspect`).
    pub fn is_member(&self, node: NodeId) -> bool {
        self.state(node).is_member()
    }

    /// Member slots in ascending id order.
    pub fn members(&self) -> Vec<NodeId> {
        let t = self.inner.0.lock();
        t.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_member())
            .map(|(i, _)| NodeId(i as u16))
            .collect()
    }

    /// Move `node` to `to`, bump the epoch, and wake all epoch waiters.
    /// Returns the new epoch. No-op transitions (same state) still bump the
    /// epoch — callers transition only on real changes, and a spurious bump
    /// is harmless (waiters re-check state).
    pub(crate) fn transition(&self, node: NodeId, to: MemberState) -> u64 {
        let (lock, cvar) = &*self.inner;
        let mut t = lock.lock();
        t.states[node.index()] = to;
        t.epoch += 1;
        let epoch = t.epoch;
        cvar.notify_all();
        epoch
    }

    /// Block until the epoch reaches at least `at_least` or `timeout`
    /// elapses; returns the epoch observed on exit. The condvar-signalled
    /// path means joiners/monitors never poll the table.
    pub fn wait_for_epoch(&self, at_least: u64, timeout: Duration) -> u64 {
        let (lock, cvar) = &*self.inner;
        let (t, _) = cvar.wait_timeout_while(lock.lock(), timeout, |t| t.epoch < at_least);
        t.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_states_and_capacity() {
        let m = Membership::with_initial(4, 2);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.state(NodeId(0)), MemberState::Up);
        assert_eq!(m.state(NodeId(1)), MemberState::Up);
        assert_eq!(m.state(NodeId(2)), MemberState::Provisioned);
        assert_eq!(m.members(), vec![NodeId(0), NodeId(1)]);
        let all = Membership::with_initial(3, 3);
        assert_eq!(all.members().len(), 3);
    }

    #[test]
    fn transitions_bump_the_epoch() {
        let m = Membership::with_initial(3, 2);
        assert_eq!(m.transition(NodeId(2), MemberState::Up), 1);
        assert_eq!(m.transition(NodeId(0), MemberState::Down), 2);
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.members(), vec![NodeId(1), NodeId(2)]);
        assert!(!m.is_member(NodeId(0)));
    }

    #[test]
    fn suspect_still_counts_as_member() {
        let m = Membership::with_initial(2, 2);
        m.transition(NodeId(1), MemberState::Suspect);
        assert!(m.is_member(NodeId(1)));
        m.transition(NodeId(1), MemberState::Down);
        assert!(!m.is_member(NodeId(1)));
    }

    #[test]
    fn wait_for_epoch_is_signalled_not_polled() {
        let m = Membership::with_initial(2, 2);
        let m2 = m.clone();
        let waiter = std::thread::spawn(move || m2.wait_for_epoch(1, Duration::from_secs(10)));
        // Give the waiter a moment to block, then signal.
        std::thread::sleep(Duration::from_millis(10));
        m.transition(NodeId(1), MemberState::Left);
        assert_eq!(waiter.join().unwrap(), 1);
        // Already-reached epochs return immediately.
        assert_eq!(m.wait_for_epoch(1, Duration::from_millis(1)), 1);
        // Unreached epochs time out and report the current value.
        assert_eq!(m.wait_for_epoch(99, Duration::from_millis(5)), 1);
    }
}
