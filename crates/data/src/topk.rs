//! SpaceSaving heavy-hitter tracking (Metwally, Agrawal, El Abbadi 2005).
//!
//! HET's whole design rests on knowing that a small set of embeddings
//! receives most updates (Fig. 3). In production the hot set must be
//! discovered *online* with bounded memory — exactly the heavy-hitters
//! problem. This is the standard counter-based sketch for it: `k`
//! monitored keys; an unmonitored arrival replaces the minimum-count key
//! and inherits its count (as the overestimation bound). Guarantees:
//! any key with true frequency > N/k is monitored, and every estimate
//! overshoots by at most `min_count`.

use crate::{Key, Ranked};

/// A SpaceSaving sketch over embedding keys.
pub struct SpaceSaving {
    capacity: usize,
    /// key → estimated count (the rank), with its overestimation.
    counters: Ranked<u64, u64>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a sketch monitoring at most `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        SpaceSaving {
            capacity,
            counters: Ranked::with_capacity(capacity + 1),
            total: 0,
        }
    }

    /// Number of keys currently monitored.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Total observations so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records one observation of `key`.
    pub fn observe(&mut self, key: Key) {
        self.total += 1;
        if let Some(&(count, over)) = self.counters.get(key) {
            self.counters.set(key, count + 1, over);
        } else if self.counters.len() < self.capacity {
            self.counters.set(key, 1, 0);
        } else {
            // Replace the minimum: the newcomer inherits its count as
            // the overestimation bound.
            let (_, min_count, _) = self.counters.pop_min().expect("non-empty at capacity");
            self.counters.set(key, min_count + 1, min_count);
        }
    }

    /// The estimated count of a key, with its overestimation bound;
    /// `None` if the key is not monitored.
    pub fn estimate(&self, key: Key) -> Option<(u64, u64)> {
        self.counters.get(key).copied()
    }

    /// The monitored keys sorted by estimated count, descending.
    pub fn top(&self, n: usize) -> Vec<(Key, u64)> {
        self.counters
            .iter()
            .rev()
            .take(n)
            .map(|(&key, &(count, _))| (key, count))
            .collect()
    }

    /// Keys *guaranteed* to have true frequency above `threshold`
    /// (estimate − overestimation > threshold).
    pub fn guaranteed_above(&self, threshold: u64) -> Vec<Key> {
        let mut keys: Vec<Key> = self
            .counters
            .iter()
            .filter(|(_, &(count, over))| count - over > threshold)
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfSampler;
    use het_rng::rngs::SmallRng;
    use het_rng::SeedableRng;

    #[test]
    fn exact_when_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..5 {
            s.observe(1);
        }
        for _ in 0..3 {
            s.observe(2);
        }
        assert_eq!(s.estimate(1), Some((5, 0)));
        assert_eq!(s.estimate(2), Some((3, 0)));
        assert_eq!(s.estimate(9), None);
        assert_eq!(s.total(), 8);
        assert_eq!(s.top(1), vec![(1, 5)]);
        assert_eq!(s.guaranteed_above(2), vec![1, 2]);
        assert_eq!(s.guaranteed_above(4), vec![1]);
    }

    #[test]
    fn replacement_keeps_capacity_and_inherits_count() {
        let mut s = SpaceSaving::new(2);
        s.observe(1);
        s.observe(1);
        s.observe(2);
        s.observe(3); // evicts key 2 (count 1), inherits 1 -> (2, 1)
        assert_eq!(s.len(), 2);
        assert_eq!(s.estimate(2), None);
        assert_eq!(s.estimate(3), Some((2, 1)));
        // Key 3's guaranteed count is 2-1=1: not guaranteed above 1.
        assert_eq!(s.guaranteed_above(1), vec![1]);
    }

    #[test]
    fn estimates_never_undercount() {
        // SpaceSaving invariant: estimate >= true count for monitored
        // keys.
        let mut s = SpaceSaving::new(16);
        let z = ZipfSampler::new(200, 1.2);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let k = z.sample(&mut rng) as Key;
            *truth.entry(k).or_insert(0u64) += 1;
            s.observe(k);
        }
        for (k, (est, over)) in s.counters.iter().map(|(&k, &v)| (k, v)) {
            let t = truth.get(&k).copied().unwrap_or(0);
            assert!(est >= t, "estimate {est} under-counts true {t} for key {k}");
            assert!(est - over <= t, "guaranteed bound must not exceed truth");
        }
    }

    #[test]
    fn hot_keys_of_a_zipf_stream_are_captured() {
        let mut s = SpaceSaving::new(32);
        let z = ZipfSampler::new(10_000, 1.2);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100_000 {
            s.observe(z.sample(&mut rng) as Key);
        }
        let top: Vec<Key> = s.top(10).into_iter().map(|(k, _)| k).collect();
        // The five most popular Zipf ranks must all be monitored in the
        // top 10.
        for hot in 0..5 {
            assert!(
                top.contains(&(hot as Key)),
                "rank {hot} missing from {top:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SpaceSaving::new(0);
    }
}
