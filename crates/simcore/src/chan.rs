//! Unbounded multi-producer/multi-consumer channels.
//!
//! A minimal in-tree stand-in for `crossbeam::channel` — this repository
//! builds with no external dependencies, so the threaded runtime's LAN needs
//! its own channel primitive. Semantics match what the runtime relies on:
//!
//! * unbounded FIFO queue, `send` never blocks;
//! * both [`Sender`] and [`Receiver`] are cheaply cloneable and `Send`;
//! * `send` fails once every receiver is gone; `recv` fails once the queue
//!   is empty and every sender is gone (disconnection is observable from
//!   both ends, which is how the runtime detects crashed peers);
//! * [`Receiver::recv_timeout`] gives the bounded wait that the cooperative
//!   cache's "eventual disk read" escape hatch needs under fault injection.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver has been dropped.
/// Carries the rejected message back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the deadline.
    Timeout,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // A sender/receiver panicking mid-operation cannot leave the queue in
        // a torn state (all mutations are single statements), so poisoning is
        // ignored, matching crossbeam's behaviour.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sending half of a channel. Clone freely; the channel disconnects for
/// receivers once the last clone is dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel. Clone freely (each message is delivered
/// to exactly one receiver); the channel disconnects for senders once the
/// last clone is dropped.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue `msg`, waking one waiting receiver. Never blocks.
    ///
    /// # Errors
    /// [`SendError`] (returning the message) if every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        if st.receivers == 0 {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        drop(st);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// True while at least one receiver exists, i.e. while [`Sender::send`]
    /// would succeed. A snapshot: the last receiver may drop right after,
    /// exactly as it may right after a successful send.
    pub fn is_connected(&self) -> bool {
        self.shared.lock().receivers > 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake every blocked receiver so they observe the disconnect.
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next message, blocking until one arrives.
    ///
    /// # Errors
    /// [`RecvError`] if the channel is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self
                .shared
                .ready
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeue the next message, blocking at most `timeout`.
    ///
    /// # Errors
    /// [`RecvTimeoutError::Timeout`] when the deadline passes with the queue
    /// still empty; [`RecvTimeoutError::Disconnected`] when the channel is
    /// empty and every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Dequeue the next message without blocking.
    ///
    /// # Errors
    /// [`TryRecvError::Empty`] when nothing is queued;
    /// [`TryRecvError::Disconnected`] when additionally every sender is gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.lock();
        match st.queue.pop_front() {
            Some(msg) => Ok(msg),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// True if no message is currently queued.
    pub fn is_empty(&self) -> bool {
        self.shared.lock().queue.is_empty()
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// A blocking iterator yielding messages until the channel disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.receivers -= 1;
        // Senders never block, so nobody needs waking. But once no
        // receiver exists the queued messages can never be consumed, so
        // drop them now rather than when the last *sender* goes: a queued
        // message may itself carry a reply sender, and whoever waits on
        // that reply channel deserves its disconnect promptly (a crashed
        // service's unanswered requests must fail fast, not linger until
        // the surviving inbox sender is torn down).
        if st.receivers == 0 {
            let orphans = std::mem::take(&mut st.queue);
            drop(st); // message destructors may take other locks
            drop(orphans);
        }
    }
}

/// Blocking iterator over a channel; see [`Receiver::iter`].
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(10));
        tx.send(42u32).unwrap();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn send_to_dropped_receiver_fails() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(1u8), Err(SendError(1)));
    }

    #[test]
    fn is_connected_tracks_the_last_receiver() {
        let (tx, rx1) = unbounded::<u8>();
        let rx2 = rx1.clone();
        assert!(tx.is_connected());
        drop(rx1);
        assert!(tx.is_connected(), "one receiver is still alive");
        drop(rx2);
        assert!(!tx.is_connected());
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn recv_after_all_senders_dropped_drains_then_errors() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_recv_reports_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(3));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn iter_ends_on_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let got: Vec<u8> = rx.iter().collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn cloned_receivers_share_the_stream() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        for i in 0..100u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let a = std::thread::spawn(move || rx1.iter().count());
        let b = std::thread::spawn(move || rx2.iter().count());
        assert_eq!(a.join().unwrap() + b.join().unwrap(), 100);
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = unbounded();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(t * 100 + i).unwrap();
                }
            }));
        }
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..800).collect::<Vec<_>>());
    }
}
