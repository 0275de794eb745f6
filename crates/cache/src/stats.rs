//! Cache hit/miss accounting — the quantity Fig. 8 plots.

/// Counters maintained by [`crate::CacheTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (possibly after validation).
    pub hits: u64,
    /// Lookups that required a server fetch.
    pub misses: u64,
    /// Entries evicted to make room (capacity pressure).
    pub capacity_evictions: u64,
    /// Entries invalidated by a failed `CheckValid` (resynchronised).
    pub invalidations: u64,
    /// Dirty write-backs pushed toward the server.
    pub writebacks: u64,
    /// Clean→dirty transitions: entries that started accumulating a
    /// pending gradient. Every dirtied entry must later surface as a
    /// writeback or an accounted crash loss (gradient conservation).
    pub dirtied: u64,
    /// Entries installed by the lookahead prefetcher (as opposed to
    /// demand fetches). Every prefetch install must later surface as a
    /// prefetch hit or accounted waste (the prefetch ledger).
    pub prefetch_installs: u64,
    /// Hits whose entry was resident because of a prefetch and had not
    /// been demand-read since. A strict subset of `hits`.
    pub prefetch_hits: u64,
    /// Prefetched entries that left the cache (eviction, displacement,
    /// crash wipe, final drain) without ever serving a read.
    pub prefetch_wasted: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn miss_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.capacity_evictions += other.capacity_evictions;
        self.invalidations += other.invalidations;
        self.writebacks += other.writebacks;
        self.dirtied += other.dirtied;
        self.prefetch_installs += other.prefetch_installs;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_wasted += other.prefetch_wasted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.lookups(), 4);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            capacity_evictions: 3,
            invalidations: 4,
            writebacks: 5,
            dirtied: 6,
            prefetch_installs: 7,
            prefetch_hits: 8,
            prefetch_wasted: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits, 2);
        assert_eq!(a.misses, 4);
        assert_eq!(a.capacity_evictions, 6);
        assert_eq!(a.invalidations, 8);
        assert_eq!(a.writebacks, 10);
        assert_eq!(a.dirtied, 12);
        assert_eq!(a.prefetch_installs, 14);
        assert_eq!(a.prefetch_hits, 16);
        assert_eq!(a.prefetch_wasted, 18);
    }
}
