//! The flat in-memory row store — the historical `PsServer` shard map
//! behind the [`RowStore`] trait.

use crate::{Key, RowStore, StoredRow};
use std::collections::HashMap;

/// A plain `HashMap` of rows: every row is resident, no I/O is ever
/// modelled. Byte-identical in behaviour to the pre-trait flat map.
#[derive(Default)]
pub struct MemStore {
    table: HashMap<Key, StoredRow>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl RowStore for MemStore {
    fn get(&mut self, key: Key) -> Option<&StoredRow> {
        self.table.get(&key)
    }

    fn get_shared(&self, key: Key) -> Option<&StoredRow> {
        self.table.get(&key)
    }

    fn apply(
        &mut self,
        key: Key,
        init: &mut dyn FnMut() -> StoredRow,
        f: &mut dyn FnMut(&mut StoredRow),
    ) {
        f(self.table.entry(key).or_insert_with(init));
    }

    fn insert(&mut self, key: Key, row: StoredRow) {
        self.table.insert(key, row);
    }

    fn remove(&mut self, key: Key) -> Option<StoredRow> {
        self.table.remove(&key)
    }

    fn peek(&mut self, key: Key) -> Option<StoredRow> {
        self.table.get(&key).cloned()
    }

    fn contains(&self, key: Key) -> bool {
        self.table.contains_key(&key)
    }

    fn clock_of(&self, key: Key) -> Option<u64> {
        self.table.get(&key).map(|r| r.clock)
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn sorted_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.table.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    fn clear(&mut self) -> Vec<(Key, u64)> {
        let mut lost: Vec<(Key, u64)> = self.table.iter().map(|(&k, r)| (k, r.clock)).collect();
        self.table.clear();
        lost.sort_unstable();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32, clock: u64) -> StoredRow {
        StoredRow {
            vector: vec![v],
            clock,
            opt_state: Vec::new(),
        }
    }

    #[test]
    fn apply_initialises_then_mutates() {
        let mut s = MemStore::new();
        s.apply(7, &mut || row(1.0, 0), &mut |r| {
            r.vector[0] += 0.5;
            r.clock += 1;
        });
        assert_eq!(s.get(7), Some(&row(1.5, 1)));
        assert_eq!(s.get_shared(7), Some(&row(1.5, 1)));
        assert_eq!(s.get_shared(8), None);
        assert_eq!(s.clock_of(7), Some(1));
        assert_eq!(s.clock_of(8), None);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
        assert_eq!(s.take_io_ns(), 0, "flat store never models I/O");
    }

    #[test]
    fn sorted_keys_and_clear_are_ordered() {
        let mut s = MemStore::new();
        for k in [9u64, 1, 5] {
            s.insert(k, row(0.0, k));
        }
        assert_eq!(s.sorted_keys(), vec![1, 5, 9]);
        assert_eq!(s.clear(), vec![(1, 1), (5, 5), (9, 9)]);
        assert!(s.is_empty());
    }

    #[test]
    fn remove_returns_the_row() {
        let mut s = MemStore::new();
        s.insert(3, row(2.0, 4));
        assert_eq!(s.remove(3), Some(row(2.0, 4)));
        assert_eq!(s.remove(3), None);
    }
}
