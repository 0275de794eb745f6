//! Embedding working sets: what the trainer hands a model (resolved
//! vectors) and what the model hands back (per-key gradients).

use het_data::Key;
use std::collections::HashMap;

/// The resolved embeddings for one batch: key → vector, all of one
/// dimension. Built by the trainer from cache/PS reads.
#[derive(Clone, Debug, Default)]
pub struct EmbeddingStore {
    dim: usize,
    map: HashMap<Key, Vec<f32>>,
}

impl EmbeddingStore {
    /// An empty store for `dim`-dimensional embeddings.
    pub fn new(dim: usize) -> Self {
        EmbeddingStore {
            dim,
            map: HashMap::new(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Inserts a resolved vector.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn insert(&mut self, key: Key, vector: Vec<f32>) {
        assert_eq!(vector.len(), self.dim, "embedding dimension mismatch");
        self.map.insert(key, vector);
    }

    /// The vector for a key.
    ///
    /// # Panics
    /// Panics if the key was not resolved — a protocol bug: `Het.Read`
    /// must resolve every unique key of the batch before the model runs.
    pub fn get(&self, key: Key) -> &[f32] {
        self.map
            .get(&key)
            .unwrap_or_else(|| panic!("embedding key {key} was not resolved by Het.Read"))
            .as_slice()
    }

    /// Number of resolved keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is resolved.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether a key is resolved.
    pub fn contains(&self, key: Key) -> bool {
        self.map.contains_key(&key)
    }
}

/// Per-key accumulated embedding gradients produced by one batch.
#[derive(Clone, Debug, Default)]
pub struct SparseGrads {
    dim: usize,
    map: HashMap<Key, Vec<f32>>,
}

impl SparseGrads {
    /// An empty gradient set for `dim`-dimensional embeddings.
    pub fn new(dim: usize) -> Self {
        SparseGrads {
            dim,
            map: HashMap::new(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The key's slot, inserted as zeros if this is its first gradient.
    pub fn slot_mut(&mut self, key: Key) -> &mut [f32] {
        self.map.entry(key).or_insert_with(|| vec![0.0; self.dim])
    }

    /// Accumulates `grad` into the key's slot.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn accumulate(&mut self, key: Key, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim, "gradient dimension mismatch");
        for (s, &g) in self.slot_mut(key).iter_mut().zip(grad) {
            *s += g;
        }
    }

    /// Scales every accumulated gradient (e.g. to average over workers).
    pub fn scale(&mut self, factor: f32) {
        for v in self.map.values_mut() {
            v.iter_mut().for_each(|g| *g *= factor);
        }
    }

    /// The accumulated gradient of one key, if any.
    pub fn get(&self, key: Key) -> Option<&[f32]> {
        self.map.get(&key).map(Vec::as_slice)
    }

    /// Number of keys with gradients.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no gradients were produced.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(key, gradient)` pairs in an unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[f32])> {
        self.map.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Keys in sorted order (deterministic iteration for the trainer).
    pub fn sorted_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Merges another gradient set into this one.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn merge(&mut self, other: &SparseGrads) {
        assert_eq!(self.dim, other.dim, "gradient dimension mismatch");
        for (k, g) in other.iter() {
            self.accumulate(k, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_round_trip() {
        let mut s = EmbeddingStore::new(2);
        assert!(s.is_empty());
        s.insert(5, vec![1.0, 2.0]);
        assert_eq!(s.get(5), &[1.0, 2.0]);
        assert_eq!(s.len(), 1);
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert_eq!(s.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "not resolved")]
    fn missing_key_panics() {
        let s = EmbeddingStore::new(2);
        let _ = s.get(1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn store_wrong_dim_rejected() {
        let mut s = EmbeddingStore::new(2);
        s.insert(1, vec![0.0; 3]);
    }

    #[test]
    fn grads_accumulate_per_key() {
        let mut g = SparseGrads::new(2);
        g.accumulate(1, &[1.0, 2.0]);
        g.accumulate(1, &[0.5, -1.0]);
        g.accumulate(2, &[3.0, 3.0]);
        assert_eq!(g.get(1).unwrap(), &[1.5, 1.0]);
        assert_eq!(g.get(2).unwrap(), &[3.0, 3.0]);
        assert_eq!(g.get(3), None);
        assert_eq!(g.len(), 2);
        assert_eq!(g.sorted_keys(), vec![1, 2]);
    }

    #[test]
    fn grads_scale_and_merge() {
        let mut a = SparseGrads::new(1);
        a.accumulate(1, &[2.0]);
        let mut b = SparseGrads::new(1);
        b.accumulate(1, &[4.0]);
        b.accumulate(2, &[6.0]);
        a.merge(&b);
        a.scale(0.5);
        assert_eq!(a.get(1).unwrap(), &[3.0]);
        assert_eq!(a.get(2).unwrap(), &[3.0]);
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut g = SparseGrads::new(1);
        g.accumulate(1, &[1.0]);
        g.accumulate(2, &[2.0]);
        let total: f32 = g.iter().map(|(_, v)| v[0]).sum();
        assert_eq!(total, 3.0);
        assert!(!g.is_empty());
    }
}
