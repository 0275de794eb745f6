//! A keyed index held in rank order, lowest first.
//!
//! Every ordered eviction policy in `het-cache` and the [`SpaceSaving`]
//! sketch need the same structure: keys with a rank, where any key's
//! rank can be moved and the lowest-ranked key popped. [`Ranked`] keeps
//! the two halves of it — a hash map for lookup and an ordered set for
//! the minimum — in step, so no user writes that bookkeeping by hand.
//! Equal ranks are broken by key, so the order is total and a pure
//! function of the operations applied. Each key also carries a payload
//! `V` that rides along and never takes part in the order.
//!
//! [`SpaceSaving`]: crate::SpaceSaving

use crate::Key;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

/// Keys ordered by rank `R` (ties broken by key), each with a payload `V`.
pub struct Ranked<R, V = ()> {
    entries: HashMap<Key, (R, V)>,
    order: BTreeSet<(R, Key)>,
}

impl<R: Ord + Copy, V> Ranked<R, V> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Ranked {
            entries: HashMap::new(),
            order: BTreeSet::new(),
        }
    }

    /// Creates an empty index with room for `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        Ranked {
            entries: HashMap::with_capacity(capacity),
            order: BTreeSet::new(),
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The rank and payload of `key`, if held.
    pub fn get(&self, key: Key) -> Option<&(R, V)> {
        self.entries.get(&key)
    }

    /// Inserts `key` at `rank` with `value`, or moves it there and
    /// replaces its payload if already held.
    pub fn set(&mut self, key: Key, rank: R, value: V) {
        self.update(key, |_| (rank, value));
    }

    /// Sets `key`'s rank and payload to what `f` makes of the held ones
    /// (`None` when `key` is not held), with one hash lookup.
    pub fn update(&mut self, key: Key, f: impl FnOnce(Option<&(R, V)>) -> (R, V)) {
        let rank = match self.entries.entry(key) {
            Entry::Occupied(mut held) => {
                let next = f(Some(held.get()));
                let rank = next.0;
                self.order.remove(&(held.insert(next).0, key));
                rank
            }
            Entry::Vacant(slot) => slot.insert(f(None)).0,
        };
        self.order.insert((rank, key));
    }

    /// Removes `key`, returning its rank and payload.
    pub fn remove(&mut self, key: Key) -> Option<(R, V)> {
        let old = self.entries.remove(&key)?;
        self.order.remove(&(old.0, key));
        Some(old)
    }

    /// Removes and returns the lowest-ranked key with its rank and payload.
    pub fn pop_min(&mut self) -> Option<(Key, R, V)> {
        let (rank, key) = self.order.pop_first()?;
        let (_, value) = self.entries.remove(&key).expect("ordered key is held");
        Some((key, rank, value))
    }

    /// The held keys with their rank and payload, lowest rank first
    /// (reverse it for highest first).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&Key, &(R, V))> + '_ {
        self.order.iter().map(|(_, key)| {
            self.entries
                .get_key_value(key)
                .expect("ordered key is held")
        })
    }
}

impl<R: Ord + Copy, V> Default for Ranked<R, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<R: Ord + Copy, V>(r: &Ranked<R, V>) -> Vec<Key> {
        r.iter().map(|(&k, _)| k).collect()
    }

    #[test]
    fn set_moves_a_held_key() {
        let mut r: Ranked<u64> = Ranked::new();
        r.set(1, 10, ());
        r.set(2, 20, ());
        r.set(1, 30, ());
        assert_eq!(r.len(), 2);
        assert_eq!(keys(&r), vec![2, 1]);
        assert_eq!(r.get(1), Some(&(30, ())));
    }

    #[test]
    fn update_sees_the_held_entry_and_moves_it() {
        let mut r: Ranked<u64, u64> = Ranked::new();
        let bump = |held: Option<&(u64, u64)>| held.map_or((1, 0), |&(rank, n)| (rank + 10, n + 1));
        r.update(1, bump);
        r.update(2, bump);
        r.update(1, bump);
        assert_eq!(r.get(1), Some(&(11, 1)));
        assert_eq!(r.get(2), Some(&(1, 0)));
        assert_eq!(keys(&r), vec![2, 1]);
        assert_eq!(r.pop_min(), Some((2, 1, 0)));
        assert_eq!(r.pop_min(), Some((1, 11, 1)));
    }

    #[test]
    fn equal_ranks_break_by_key() {
        let mut r: Ranked<u64> = Ranked::new();
        for k in [7, 3, 5] {
            r.set(k, 1, ());
        }
        assert_eq!(keys(&r), vec![3, 5, 7]);
        assert_eq!(r.pop_min(), Some((3, 1, ())));
    }

    #[test]
    fn payload_never_changes_the_order() {
        let mut r: Ranked<u64, i64> = Ranked::new();
        r.set(1, 5, -100);
        r.set(2, 4, 100);
        r.set(3, 5, i64::MIN);
        assert_eq!(keys(&r), vec![2, 1, 3]);
        // Rewriting only the payload keeps the key where it was.
        r.set(2, 4, i64::MAX);
        assert_eq!(keys(&r), vec![2, 1, 3]);
    }

    #[test]
    fn pop_min_and_remove_return_the_payload() {
        let mut r: Ranked<(u64, u64), &str> = Ranked::new();
        r.set(1, (2, 0), "b");
        r.set(2, (1, 9), "a");
        r.set(3, (2, 1), "c");
        assert_eq!(r.remove(3), Some(((2, 1), "c")));
        assert_eq!(r.remove(3), None);
        assert_eq!(r.pop_min(), Some((2, (1, 9), "a")));
        assert_eq!(r.pop_min(), Some((1, (2, 0), "b")));
        assert_eq!(r.pop_min(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn iter_runs_lowest_rank_first() {
        let mut r: Ranked<u64, u64> = Ranked::with_capacity(4);
        for (k, rank) in [(10, 3), (11, 1), (12, 4), (13, 2)] {
            r.set(k, rank, k * 100);
        }
        let seen: Vec<(Key, u64, u64)> = r.iter().map(|(&k, &(rk, v))| (k, rk, v)).collect();
        assert_eq!(
            seen,
            vec![(11, 1, 1100), (13, 2, 1300), (10, 3, 1000), (12, 4, 1200)]
        );
        assert_eq!(r.iter().next_back().map(|(&k, _)| k), Some(12));
    }
}
