//! Write-path coherence configuration: write-through vs. write-back.
//!
//! The paper's protocol is read-mostly (§2: "we focus on read traffic"),
//! with writes sketched as the §6 extension the middleware must eventually
//! carry. The runtime implements two coherence modes over the same
//! invalidation protocol:
//!
//! * **Write-through** ([`WriteMode::Through`], the default): the write is
//!   persisted to the backing store *before* the protocol invalidation
//!   fans out, so any reader that falls through to disk after being
//!   invalidated sees the new bytes. An acknowledged write is durable: it
//!   survives any combination of node crashes.
//! * **Write-back** ([`WriteMode::Back`]): the writing node becomes a
//!   *dirty master* — the write is acknowledged once the protocol
//!   invalidation is done and the bytes sit in the master's store;
//!   persistence is deferred to a flush. Flushes run on the thread that
//!   triggers them, never on a background timer, so same-seed runs stay
//!   deterministic: a write over the dirty budget flushes the oldest
//!   blocks, evicting a dirty master flushes it, every
//!   [`WriteConfig::flush_every_ops`]-th write drains the set, and
//!   `Middleware::flush_dirty`, `leave_node` and `shutdown` drain what
//!   they own. Losing the dirty master before its flush loses the write;
//!   the loss is *bounded* by [`WriteConfig::dirty_budget`] and
//!   *detected* — every lost block is recorded and reported, never
//!   silently served stale.
//!
//! Durability contract, precisely:
//!
//! * Write-through: an acknowledged write is never lost.
//! * Write-back: at most `dirty_budget` acknowledged writes (plus any
//!   concurrently in-flight ones) are unpersisted at any instant. A crash
//!   of a dirty master first tries recovery — if a survivor holds a
//!   current replica (a reader re-fetched the block after the write), its
//!   bytes are flushed and the write survives. Only when no current copy
//!   survives is the block marked lost; `Middleware::lost_writes` names
//!   every such block, and reads of a lost block serve the last *persisted*
//!   bytes (the pre-write image), exactly like a real write-back cache
//!   that lost its dirty lines.
//! * Both modes: graceful paths lose nothing — `leave_node` flushes the
//!   leaver's dirty blocks before handing off its masters, and
//!   `Middleware::shutdown` drains the dirty set before stopping.

/// When a write is persisted to the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Persist synchronously before acknowledging (durable acks).
    Through,
    /// Acknowledge from the dirty master; persist on flush (bounded,
    /// detected loss window).
    Back,
}

/// Write-path configuration carried on `RtConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteConfig {
    /// Coherence mode; [`WriteMode::Through`] by default.
    pub mode: WriteMode,
    /// Write-back only: maximum dirty (acknowledged, unpersisted) blocks.
    /// A write that would exceed the budget synchronously flushes the
    /// oldest dirty blocks before returning, so the loss window never
    /// grows past this many blocks (plus writes concurrently in flight).
    /// A budget of zero degenerates to flush-on-every-write.
    pub dirty_budget: usize,
    /// Write-back only: if set, every `n`-th acknowledged write (counted
    /// across all nodes) synchronously drains the whole dirty set before
    /// returning. An op-count cadence is a pure function of the request
    /// stream, so same-seed runs stay bit-identical while exercising
    /// periodic flushing. Zero is rejected at startup.
    pub flush_every_ops: Option<u64>,
}

impl WriteConfig {
    /// Write-through (the default).
    pub fn through() -> WriteConfig {
        WriteConfig {
            mode: WriteMode::Through,
            dirty_budget: 0,
            flush_every_ops: None,
        }
    }

    /// Write-back with the given dirty-block budget and no cadence.
    pub fn back(dirty_budget: usize) -> WriteConfig {
        WriteConfig {
            mode: WriteMode::Back,
            dirty_budget,
            flush_every_ops: None,
        }
    }

    /// Write-back with a deterministic op-count flush cadence: the whole
    /// dirty set is drained synchronously on every `every`-th acknowledged
    /// write.
    ///
    /// # Panics
    /// Panics on a cadence of zero.
    pub fn back_every_ops(dirty_budget: usize, every: u64) -> WriteConfig {
        assert!(every > 0, "flush cadence must be at least 1 op");
        WriteConfig {
            mode: WriteMode::Back,
            dirty_budget,
            flush_every_ops: Some(every),
        }
    }
}

impl Default for WriteConfig {
    fn default() -> WriteConfig {
        WriteConfig::through()
    }
}

/// Write-path counters, snapshot through `Middleware::write_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Writes acknowledged (both modes; sum over nodes).
    pub writes: u64,
    /// Dirty blocks persisted by any flush path (write-back).
    pub flushes: u64,
    /// Dirty blocks currently awaiting a flush (write-back).
    pub dirty: u64,
    /// Acknowledged writes lost with a crashed dirty master (write-back;
    /// each is named in `Middleware::lost_writes`).
    pub lost: u64,
    /// Dirty blocks rescued from a survivor's current replica after their
    /// master crashed (write-back).
    pub recovered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_write_through() {
        let cfg = WriteConfig::default();
        assert_eq!(cfg.mode, WriteMode::Through);
        assert_eq!(cfg.flush_every_ops, None);
    }

    #[test]
    fn back_carries_budget() {
        let cfg = WriteConfig::back(8);
        assert_eq!(cfg.mode, WriteMode::Back);
        assert_eq!(cfg.dirty_budget, 8);
        assert_eq!(cfg.flush_every_ops, None);
    }

    #[test]
    fn op_cadence_carries_through() {
        let cfg = WriteConfig::back_every_ops(8, 16);
        assert_eq!(cfg.mode, WriteMode::Back);
        assert_eq!(cfg.flush_every_ops, Some(16));
    }

    #[test]
    #[should_panic(expected = "at least 1 op")]
    fn zero_cadence_rejected() {
        WriteConfig::back_every_ops(8, 0);
    }
}
