//! The tiered row store: bounded hot tier over the cold page log.
//!
//! The hot tier is a plain map capped at a per-shard row budget;
//! residency is decided by a `het-cache` eviction policy (any of the
//! zoo). A demoted row is appended to the cold log only if it was
//! modified while hot — a clean row's cold page is still current, so
//! demotion is free (the common case for read-heavy serving). Promotion
//! reads the row's page back and leaves the index entry in place.
//!
//! Every access, promotion, and demotion is a deterministic function of
//! the operation stream, and all modelled disk time accrues in the cold
//! log for the server to drain into simulated clocks. A `HashMap` backs
//! the hot tier, but nothing observable ever iterates it unordered:
//! exports sort, demotion order comes from the policy, and the cold
//! log's layout depends only on the demotion sequence.

use crate::cold::ColdLog;
use crate::{Key, RowStore, StoreStats, StoredRow, TieredConfig};
use het_cache::CachePolicy;
use std::collections::{BTreeSet, HashMap};
use std::io;

struct HotRow {
    row: StoredRow,
    /// Modified since promotion/creation — must be written back on
    /// demotion. Clean rows demote for free.
    dirty: bool,
}

/// A [`RowStore`] with a capacity-bounded in-memory hot tier over an
/// append-only cold page log. See the module docs.
pub struct TieredStore {
    shard: u64,
    capacity: usize,
    hot: HashMap<Key, HotRow>,
    policy: Box<dyn CachePolicy>,
    cold: ColdLog,
    /// Keys resident hot whose cold page is still indexed (promoted or
    /// overwritten-in-place); `len()` must not double-count them.
    hot_and_cold: usize,
    recovered_rows: usize,
    hot_hits: u64,
    promotions: u64,
    demotions: u64,
    clean_drops: u64,
}

impl TieredStore {
    /// Opens the store for one shard with a hot-tier budget of
    /// `hot_rows` (floored at 1). File-backed configurations replay any
    /// existing cold segments under `<dir>/shard-<shard>/` (crash
    /// recovery); recovered rows start cold.
    pub fn open(cfg: &TieredConfig, dim: usize, shard: u64, hot_rows: usize) -> io::Result<Self> {
        let capacity = hot_rows.max(1);
        let dir = cfg.dir.as_ref().map(|d| d.join(format!("shard-{shard}")));
        let (cold, recovered_rows) = ColdLog::open(
            dim,
            dir,
            cfg.segment_bytes,
            cfg.gc_ratio,
            cfg.gc_min_bytes,
            cfg.disk,
        )?;
        Ok(TieredStore {
            shard,
            capacity,
            hot: HashMap::new(),
            policy: cfg.policy.build(capacity),
            cold,
            hot_and_cold: 0,
            recovered_rows,
            hot_hits: 0,
            promotions: 0,
            demotions: 0,
            clean_drops: 0,
        })
    }

    /// The hot-tier row budget for this shard.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows recovered from an existing cold log at open (0 for fresh or
    /// memory-backed stores).
    pub fn recovered_rows(&self) -> usize {
        self.recovered_rows
    }

    /// Deterministic text rendering of the cold index and segment state
    /// — the compaction tests compare it byte-for-byte across runs.
    pub fn cold_fingerprint(&self) -> String {
        self.cold.index_fingerprint()
    }

    /// Forces a cold-tier compaction pass regardless of garbage ratio.
    pub fn force_compact(&mut self) {
        self.cold.compact().expect("cold tier I/O failed");
    }

    /// Evicts until the hot tier has room for one more row.
    fn make_room(&mut self) {
        while self.hot.len() >= self.capacity {
            let victim = self
                .policy
                .pop_victim()
                .expect("policy tracks every hot row");
            self.demote(victim);
        }
    }

    fn demote(&mut self, victim: Key) {
        let hr = self.hot.remove(&victim).expect("victim must be hot");
        if hr.dirty {
            let was_cold = self.cold.contains(victim);
            let (wb0, c0) = (self.cold.write_bytes, self.cold.compactions);
            self.cold
                .append_row(victim, &hr.row)
                .expect("cold tier I/O failed");
            if was_cold {
                self.hot_and_cold -= 1;
            }
            self.demotions += 1;
            if het_trace::enabled() {
                let idx = Some(self.shard);
                het_trace::counter_add_at("store", "demotions", idx, 1);
                het_trace::counter_add_at(
                    "store",
                    "cold_write_bytes",
                    idx,
                    self.cold.write_bytes - wb0,
                );
                let compactions = self.cold.compactions - c0;
                if compactions > 0 {
                    het_trace::counter_add_at("store", "compactions", idx, compactions);
                }
            }
        } else {
            debug_assert!(self.cold.contains(victim), "clean rows come from cold");
            self.hot_and_cold -= 1;
            self.clean_drops += 1;
            if het_trace::enabled() {
                het_trace::counter_add_at("store", "clean_drops", Some(self.shard), 1);
            }
        }
    }

    /// Reads `key`'s page back into the hot tier (it stays indexed cold
    /// too, clean). The caller must have checked `cold.contains(key)`.
    fn promote(&mut self, key: Key) {
        let rb0 = self.cold.read_bytes;
        let row = self
            .cold
            .read_row(key)
            .expect("cold tier I/O failed")
            .expect("promote: cold index must hold the key");
        let read_bytes = self.cold.read_bytes - rb0;
        self.make_room();
        // Cost for cost-aware policies: the disk bytes a refetch would
        // re-read; size: the row's in-memory footprint.
        self.policy
            .on_insert_cost(key, read_bytes.max(1), (row.vector.len() as u64 * 4).max(1));
        self.hot.insert(key, HotRow { row, dirty: false });
        self.hot_and_cold += 1;
        self.promotions += 1;
        if het_trace::enabled() {
            let idx = Some(self.shard);
            het_trace::counter_add_at("store", "promotions", idx, 1);
            het_trace::counter_add_at("store", "cold_read_bytes", idx, read_bytes);
        }
    }
}

impl RowStore for TieredStore {
    fn get(&mut self, key: Key) -> Option<&StoredRow> {
        if self.hot.contains_key(&key) {
            self.policy.on_access(key);
            self.hot_hits += 1;
            if het_trace::enabled() {
                het_trace::counter_add_at("store", "hot_hits", Some(self.shard), 1);
            }
        } else if self.cold.contains(key) {
            self.promote(key);
        } else {
            return None;
        }
        self.hot.get(&key).map(|h| &h.row)
    }

    fn apply(
        &mut self,
        key: Key,
        init: &mut dyn FnMut() -> StoredRow,
        f: &mut dyn FnMut(&mut StoredRow),
    ) {
        if self.hot.contains_key(&key) {
            self.policy.on_access(key);
            self.hot_hits += 1;
            if het_trace::enabled() {
                het_trace::counter_add_at("store", "hot_hits", Some(self.shard), 1);
            }
        } else if self.cold.contains(key) {
            self.promote(key);
        } else {
            self.make_room();
            self.hot.insert(
                key,
                HotRow {
                    row: init(),
                    dirty: true,
                },
            );
            self.policy.on_insert(key);
        }
        let h = self.hot.get_mut(&key).expect("resident after the above");
        h.dirty = true;
        f(&mut h.row);
    }

    fn insert(&mut self, key: Key, row: StoredRow) {
        if let Some(h) = self.hot.get_mut(&key) {
            h.row = row;
            h.dirty = true;
            self.policy.on_access(key);
        } else {
            let was_cold = self.cold.contains(key);
            self.make_room();
            self.hot.insert(key, HotRow { row, dirty: true });
            self.policy.on_insert(key);
            if was_cold {
                // The stale cold page stays indexed until this row is
                // demoted (dirty), which supersedes it.
                self.hot_and_cold += 1;
            }
        }
    }

    fn remove(&mut self, key: Key) -> Option<StoredRow> {
        if let Some(hr) = self.hot.remove(&key) {
            self.policy.on_remove(key);
            if self.cold.contains(key) {
                self.cold.mark_dead(key);
                self.hot_and_cold -= 1;
            }
            return Some(hr.row);
        }
        self.cold.remove(key).expect("cold tier I/O failed")
    }

    fn peek(&mut self, key: Key) -> Option<StoredRow> {
        if let Some(h) = self.hot.get(&key) {
            // No policy touch, no hit counter: observers must not
            // change what the run would otherwise do.
            return Some(h.row.clone());
        }
        if self.cold.contains(key) {
            return Some(
                self.cold
                    .read_row(key)
                    .expect("cold tier I/O failed")
                    .expect("cold index holds the key"),
            );
        }
        None
    }

    fn contains(&self, key: Key) -> bool {
        self.hot.contains_key(&key) || self.cold.contains(key)
    }

    fn clock_of(&self, key: Key) -> Option<u64> {
        if let Some(h) = self.hot.get(&key) {
            return Some(h.row.clock);
        }
        self.cold.clock_of(key)
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len() - self.hot_and_cold
    }

    fn sorted_keys(&self) -> Vec<Key> {
        let mut keys: BTreeSet<Key> = self.hot.keys().copied().collect();
        keys.extend(self.cold.keys());
        keys.into_iter().collect()
    }

    fn clear(&mut self) -> Vec<(Key, u64)> {
        let mut lost: Vec<(Key, u64)> = self.hot.iter().map(|(&k, h)| (k, h.row.clock)).collect();
        lost.extend(
            self.cold
                .clocks()
                .filter(|(k, _)| !self.hot.contains_key(k)),
        );
        lost.sort_unstable();
        for (key, _) in self.hot.drain() {
            self.policy.on_remove(key);
        }
        self.cold.clear().expect("cold tier I/O failed");
        self.hot_and_cold = 0;
        lost
    }

    fn resident_rows(&self) -> usize {
        self.hot.len()
    }

    fn take_io_ns(&mut self) -> u64 {
        self.cold.take_io_ns()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hot_hits: self.hot_hits,
            promotions: self.promotions,
            demotions: self.demotions,
            clean_drops: self.clean_drops,
            cold_read_bytes: self.cold.read_bytes,
            cold_write_bytes: self.cold.write_bytes,
            io_ns: self.cold.io_ns_total,
            compactions: self.cold.compactions,
            reclaimed_bytes: self.cold.reclaimed_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    fn tiered(hot_rows: usize) -> TieredStore {
        TieredStore::open(&TieredConfig::new(hot_rows), 2, 0, hot_rows).unwrap()
    }

    fn row(v: f32, clock: u64) -> StoredRow {
        StoredRow {
            vector: vec![v, -v],
            clock,
            opt_state: Vec::new(),
        }
    }

    #[test]
    fn hot_tier_stays_bounded_and_rows_survive_demotion() {
        let mut s = tiered(4);
        for k in 0..32u64 {
            s.insert(k, row(k as f32, k));
        }
        assert!(s.resident_rows() <= 4);
        assert_eq!(s.len(), 32);
        for k in 0..32u64 {
            assert_eq!(s.get(k), Some(&row(k as f32, k)), "key {k}");
        }
        assert!(s.take_io_ns() > 0, "demotions and promotions cost time");
        let st = s.stats();
        assert!(st.demotions >= 28);
        assert!(st.promotions > 0);
    }

    #[test]
    fn clean_demotion_writes_nothing() {
        let mut s = tiered(2);
        for k in 0..8u64 {
            s.insert(k, row(k as f32, 0));
        }
        // First read pass flushes the dirty leftovers still hot from
        // the inserts; after it every row is clean.
        for k in 0..8u64 {
            let _ = s.get(k);
        }
        // Second pass: each promotion is clean, so demoting it again
        // must not grow the log.
        let wb_before_reads = s.stats().cold_write_bytes;
        for k in 0..8u64 {
            let _ = s.get(k);
        }
        let st = s.stats();
        assert_eq!(
            st.cold_write_bytes, wb_before_reads,
            "clean demotions must not write"
        );
        assert!(st.clean_drops > 0);
    }

    #[test]
    fn shared_reads_decline_even_hot_rows() {
        // A hot hit moves the demotion order, so no read is shared.
        let mut s = tiered(4);
        s.insert(1, row(1.0, 0));
        assert!(s.get(1).is_some());
        assert_eq!(s.get_shared(1), None);
    }

    #[test]
    fn clock_queries_never_charge_io() {
        let mut s = tiered(1);
        for k in 0..6u64 {
            s.insert(k, row(1.0, k + 10));
        }
        let _ = s.take_io_ns();
        for k in 0..6u64 {
            assert_eq!(s.clock_of(k), Some(k + 10));
        }
        assert_eq!(s.take_io_ns(), 0, "clock_of is served from the index");
        assert_eq!(s.clock_of(99), None);
    }

    #[test]
    fn matches_flat_store_under_seeded_churn() {
        use het_rng::rngs::StdRng;
        use het_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5702E);
        let mut a = tiered(3);
        let mut b = MemStore::new();
        for step in 0..2000u64 {
            let key = rng.gen_range(0u64..40);
            match rng.gen_range(0u32..10) {
                0..=3 => {
                    for store in [&mut a as &mut dyn RowStore, &mut b as &mut dyn RowStore] {
                        store.apply(key, &mut || row(key as f32, 0), &mut |r| {
                            r.vector[0] += 1.0;
                            r.clock += 1;
                        });
                    }
                }
                4..=6 => {
                    assert_eq!(a.get(key).cloned(), b.get(key).cloned(), "step {step}");
                }
                7 => {
                    let r = row(step as f32, step);
                    a.insert(key, r.clone());
                    b.insert(key, r);
                }
                8 => {
                    assert_eq!(a.remove(key), b.remove(key), "step {step}");
                }
                _ => {
                    assert_eq!(a.clock_of(key), b.clock_of(key), "step {step}");
                    assert_eq!(a.contains(key), b.contains(key), "step {step}");
                }
            }
            assert_eq!(a.len(), b.len(), "len diverged at step {step}");
        }
        assert_eq!(a.sorted_keys(), b.sorted_keys());
        assert_eq!(a.clear(), b.clear());
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn same_op_stream_is_byte_identical() {
        let run = || {
            let mut s = tiered(2);
            for step in 0..500u64 {
                let key = (step * 7) % 23;
                s.apply(key, &mut || row(key as f32, 0), &mut |r| {
                    r.vector[1] -= 0.25;
                    r.clock += 1;
                });
                if step % 5 == 0 {
                    let _ = s.get((step * 3) % 23);
                }
            }
            (s.cold_fingerprint(), s.stats(), s.take_io_ns())
        };
        assert_eq!(run(), run(), "tiered store must be deterministic");
    }

    #[test]
    fn export_reads_in_place_without_promotion() {
        let mut s = tiered(2);
        for k in 0..10u64 {
            s.insert(k, row(k as f32, k));
        }
        // Flush so residency is settled, then record it.
        for k in 0..10u64 {
            let _ = s.get(k);
        }
        let resident_before = s.resident_rows();
        let promotions_before = s.stats().promotions;
        let _ = s.take_io_ns();

        let rows = s.export_rows();
        assert_eq!(rows.len(), 10);
        for (i, (k, r)) in rows.iter().enumerate() {
            assert_eq!(*k, i as u64, "export must be key-sorted");
            assert_eq!(r, &row(*k as f32, *k));
        }
        assert_eq!(
            s.resident_rows(),
            resident_before,
            "export must not promote"
        );
        assert_eq!(s.stats().promotions, promotions_before);
        assert!(s.take_io_ns() > 0, "cold rows were read from the log");
        assert_eq!(s.peek(3), Some(row(3.0, 3)));
        assert_eq!(s.peek(99), None);
    }

    #[test]
    fn overwrite_of_cold_key_keeps_single_identity() {
        let mut s = tiered(1);
        s.insert(10, row(1.0, 1));
        s.insert(11, row(2.0, 2)); // demotes 10 to cold
        assert_eq!(s.len(), 2);
        s.insert(10, row(3.0, 3)); // overwrites while a stale cold page exists
        assert_eq!(s.len(), 2, "overwrite must not double-count");
        assert_eq!(s.get(10), Some(&row(3.0, 3)));
        assert_eq!(s.clock_of(10), Some(3));
        let lost = s.clear();
        assert_eq!(lost, vec![(10, 3), (11, 2)]);
    }
}
