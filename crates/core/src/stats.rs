//! Protocol event counters.
//!
//! These count *protocol* events (what happened to blocks), not time — the
//! simulator keeps its own timing statistics. Figure 4 of the paper is
//! computed directly from these: local hit rate = `local_hits / accesses`,
//! remote (global) hit rate = `remote_hits / accesses`.

/// Counters for one cluster-cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block accesses where the requesting node already held a copy.
    pub local_hits: u64,
    /// Accesses served by fetching a copy from a peer's master.
    pub remote_hits: u64,
    /// Accesses that had to read the block from disk (no master in memory).
    pub disk_reads: u64,
    /// Masters forwarded to a peer on eviction (the "second chance").
    pub forwards: u64,
    /// Forwarded masters dropped on arrival because every block at the
    /// destination was younger.
    pub forward_drops: u64,
    /// Blocks dropped outright on eviction (replicas, or globally oldest
    /// masters).
    pub evict_drops: u64,
    /// Of `evict_drops`, how many were master copies leaving memory entirely.
    pub master_drops: u64,
    /// Blocks dropped at a forward destination to make room (never cascades).
    pub destination_drops: u64,
    /// Replicas upgraded to master in place (forward landed on a node already
    /// holding a replica, or the replica-promotion extension fired).
    pub promotions: u64,
    /// Blocks installed by extent read-ahead (not counted as accesses).
    pub prefetch_installs: u64,
    /// Whole-block writes performed (§6 extension; not counted as accesses).
    pub writes: u64,
    /// Copies invalidated at other nodes by writes.
    pub invalidations: u64,
    /// Directory repairs after node crashes (`ClusterCache::depart`).
    pub node_repairs: u64,
    /// Masters of failed nodes re-mastered from a surviving replica.
    pub remasters: u64,
    /// Masters of failed nodes lost from cluster memory (no surviving
    /// replica; the block degrades to disk-only until next read).
    pub lost_masters: u64,
    /// Reads that fell through to the backing store because the data plane
    /// had not caught up with a protocol decision (in-flight races, lost
    /// messages, dead peers). Maintained by the threaded runtime, not by
    /// `ClusterCache` itself.
    pub store_fallbacks: u64,
}

impl CacheStats {
    /// Zeroed counters.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Total block accesses.
    pub fn accesses(&self) -> u64 {
        self.local_hits + self.remote_hits + self.disk_reads
    }

    /// Fraction of accesses served from the requesting node's own memory.
    pub fn local_hit_rate(&self) -> f64 {
        ratio(self.local_hits, self.accesses())
    }

    /// Fraction of accesses served from a peer's memory.
    pub fn remote_hit_rate(&self) -> f64 {
        ratio(self.remote_hits, self.accesses())
    }

    /// Fraction of accesses served from cluster memory at all — the paper's
    /// headline hit rate (Figure 4 stacks local + remote).
    pub fn total_hit_rate(&self) -> f64 {
        ratio(self.local_hits + self.remote_hits, self.accesses())
    }

    /// Fraction of accesses that went to disk.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.disk_reads, self.accesses())
    }

    /// Element-wise difference (for windowed measurement after warm-up).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            local_hits: self.local_hits - earlier.local_hits,
            remote_hits: self.remote_hits - earlier.remote_hits,
            disk_reads: self.disk_reads - earlier.disk_reads,
            forwards: self.forwards - earlier.forwards,
            forward_drops: self.forward_drops - earlier.forward_drops,
            evict_drops: self.evict_drops - earlier.evict_drops,
            master_drops: self.master_drops - earlier.master_drops,
            destination_drops: self.destination_drops - earlier.destination_drops,
            promotions: self.promotions - earlier.promotions,
            prefetch_installs: self.prefetch_installs - earlier.prefetch_installs,
            writes: self.writes - earlier.writes,
            invalidations: self.invalidations - earlier.invalidations,
            node_repairs: self.node_repairs - earlier.node_repairs,
            remasters: self.remasters - earlier.remasters,
            lost_masters: self.lost_masters - earlier.lost_masters,
            store_fallbacks: self.store_fallbacks - earlier.store_fallbacks,
        }
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_sum_to_one() {
        let s = CacheStats {
            local_hits: 10,
            remote_hits: 60,
            disk_reads: 30,
            ..CacheStats::default()
        };
        assert_eq!(s.accesses(), 100);
        assert!((s.local_hit_rate() - 0.10).abs() < 1e-12);
        assert!((s.remote_hit_rate() - 0.60).abs() < 1e-12);
        assert!((s.total_hit_rate() - 0.70).abs() < 1e-12);
        assert!((s.miss_rate() - 0.30).abs() < 1e-12);
        let total = s.local_hit_rate() + s.remote_hit_rate() + s.miss_rate();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CacheStats::new();
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.total_hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = CacheStats {
            local_hits: 5,
            remote_hits: 3,
            disk_reads: 2,
            forwards: 1,
            ..CacheStats::default()
        };
        let late = CacheStats {
            local_hits: 15,
            remote_hits: 13,
            disk_reads: 12,
            forwards: 11,
            ..CacheStats::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.local_hits, 10);
        assert_eq!(d.remote_hits, 10);
        assert_eq!(d.disk_reads, 10);
        assert_eq!(d.forwards, 10);
        assert_eq!(d.accesses(), 30);
    }

    #[test]
    fn delta_covers_repair_counters() {
        let early = CacheStats {
            node_repairs: 1,
            remasters: 2,
            lost_masters: 3,
            store_fallbacks: 4,
            ..CacheStats::default()
        };
        let late = CacheStats {
            node_repairs: 3,
            remasters: 7,
            lost_masters: 4,
            store_fallbacks: 10,
            ..CacheStats::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.node_repairs, 2);
        assert_eq!(d.remasters, 5);
        assert_eq!(d.lost_masters, 1);
        assert_eq!(d.store_fallbacks, 6);
    }
}
