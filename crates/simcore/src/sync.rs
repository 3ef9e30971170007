//! Poison-free lock and condition-variable wrappers.
//!
//! Thin wrappers over `std::sync` with `parking_lot`-style ergonomics
//! (no external dependency, no `Result` at every call site). A panic while a
//! guard is held does not poison these locks: the runtime's invariants are
//! checked explicitly (`check_invariants`), not inferred from poisoning, and
//! a torture test must be able to keep driving a cluster after one injected
//! failure panicked a worker thread.

/// The guard [`Mutex::lock`] returns, for callers that keep one.
pub use std::sync::MutexGuard;
use std::sync::{RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A mutual-exclusion lock; `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new lock.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock; `read()`/`write()` never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value` in a new lock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A condition variable paired with [`Mutex`] guards; waits never return
/// poison errors.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Release `guard`, block until notified, and reacquire the lock.
    /// Spurious wake-ups happen: callers re-check their condition.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Block while `condition` holds, for at most `timeout`. Returns the
    /// reacquired guard and whether the wait timed out with `condition`
    /// still true.
    pub fn wait_timeout_while<'a, T, F>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
        condition: F,
    ) -> (MutexGuard<'a, T>, bool)
    where
        F: FnMut(&mut T) -> bool,
    {
        let (guard, res) = self
            .0
            .wait_timeout_while(guard, timeout, condition)
            .unwrap_or_else(|e| e.into_inner());
        (guard, res.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn panic_while_held_does_not_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("injected");
        })
        .join();
        // A poisoned std mutex would panic here; ours keeps working.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wakes_a_waiter_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let mut ready = pair.0.lock();
        let notifier = {
            let pair = pair.clone();
            // Blocks on the lock until the waiter below releases it in
            // `wait`, so the notify cannot be lost before the wait starts.
            std::thread::spawn(move || {
                *pair.0.lock() = true;
                pair.1.notify_one();
            })
        };
        while !*ready {
            ready = pair.1.wait(ready);
        }
        drop(ready);
        notifier.join().expect("notifier");
    }

    #[test]
    fn condvar_wait_times_out() {
        let m = Mutex::new(0);
        let cv = Condvar::new();
        let (guard, timed_out) =
            cv.wait_timeout_while(m.lock(), Duration::from_millis(5), |_| true);
        assert!(timed_out);
        // A false condition returns at once, with the lock still held.
        let (guard, timed_out) = cv.wait_timeout_while(guard, Duration::from_secs(10), |_| false);
        assert!(!timed_out);
        assert_eq!(*guard, 0);
    }

    #[test]
    fn condvar_survives_a_panic_while_the_lock_is_held() {
        let pair = Arc::new((Mutex::new(0), Condvar::new()));
        let p2 = pair.clone();
        let _ = std::thread::spawn(move || {
            let _guard = p2.0.lock();
            panic!("injected");
        })
        .join();
        let guard = pair.0.lock();
        let notifier = {
            let pair = pair.clone();
            std::thread::spawn(move || {
                *pair.0.lock() = 1;
                pair.1.notify_all();
            })
        };
        let (guard, timed_out) = pair
            .1
            .wait_timeout_while(guard, Duration::from_secs(10), |v| *v == 0);
        assert!(!timed_out);
        assert_eq!(*guard, 1);
        drop(guard);
        notifier.join().expect("notifier");
    }
}
