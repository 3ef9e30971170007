//! The per-thread stripe index the trace ring and the histograms share.
//!
//! A thread takes the next index from a process-wide counter on its first
//! event and keeps it for life, so callers that start together land on
//! different stripes and write cache lines no other running caller writes.
//! Two threads whose indices wrap onto the same stripe stay correct; they
//! only share that stripe's lines again.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Stripes per trace ring and per histogram.
pub(crate) const STRIPES: usize = 8;

static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// This thread's stripe, in `0..STRIPES`.
#[inline]
pub(crate) fn index() -> usize {
    INDEX.with(|i| *i)
}
