//! Shared plumbing for the three CTR models: assembling the dense input
//! matrix from resolved embeddings and scattering input gradients back
//! into per-key sparse gradients.

use crate::store::{EmbeddingStore, SparseGrads};
use het_data::CtrBatch;
use het_tensor::{Matrix, Scratch};

/// Builds the `(batch × fields·dim)` concatenated-embedding input and the
/// `(batch × dim)` per-example embedding sum (used by wide / first-order
/// terms).
pub fn build_inputs(batch: &CtrBatch, store: &EmbeddingStore) -> (Scratch, Scratch) {
    let dim = store.dim();
    let b = batch.len();
    let mut x = Scratch::new(b, batch.n_fields * dim);
    let mut sum = Scratch::zeros(b, dim);
    for i in 0..b {
        let sr = sum.row_mut(i);
        for (xf, &k) in x
            .row_mut(i)
            .chunks_exact_mut(dim)
            .zip(batch.example_keys(i))
        {
            let v = store.get(k);
            xf.copy_from_slice(v);
            for (s, &vv) in sr.iter_mut().zip(v) {
                *s += vv;
            }
        }
    }
    (x, sum)
}

/// Scatters gradients back to embedding keys: `dx` has the concatenated
/// layout (`batch × fields·dim`), `dsum` the summed layout
/// (`batch × dim`, broadcast to every field of the example). Either may
/// be `None`. A key's slot receives its `dx` slice, then its `dsum` row.
pub fn scatter_grads(
    batch: &CtrBatch,
    dx: Option<&Matrix>,
    dsum: Option<&Matrix>,
    out: &mut SparseGrads,
) {
    let dim = out.dim();
    if let Some(ds) = dsum {
        assert_eq!(ds.cols(), dim, "gradient dimension mismatch");
    }
    let add = |slot: &mut [f32], grad: &[f32]| {
        for (s, &g) in slot.iter_mut().zip(grad) {
            *s += g;
        }
    };
    for i in 0..batch.len() {
        for (f, &k) in batch.example_keys(i).iter().enumerate() {
            let slot = out.slot_mut(k);
            if let Some(dx) = dx {
                add(slot, &dx.row(i)[f * dim..(f + 1) * dim]);
            }
            if let Some(ds) = dsum {
                add(slot, ds.row(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store2() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(2);
        s.insert(0, vec![1.0, 2.0]);
        s.insert(10, vec![3.0, 4.0]);
        s.insert(11, vec![5.0, 6.0]);
        s
    }

    fn batch2() -> CtrBatch {
        // 2 examples, 2 fields.
        CtrBatch {
            keys: vec![0, 10, 0, 11],
            labels: vec![1.0, 0.0],
            n_fields: 2,
        }
    }

    #[test]
    fn inputs_concatenate_and_sum() {
        let (x, sum) = build_inputs(&batch2(), &store2());
        assert_eq!(x.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.row(1), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(sum.row(0), &[4.0, 6.0]);
        assert_eq!(sum.row(1), &[6.0, 8.0]);
    }

    #[test]
    fn scatter_accumulates_repeated_keys() {
        let mut g = SparseGrads::new(2);
        let dx = Matrix::from_vec(2, 4, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        scatter_grads(&batch2(), Some(&dx), None, &mut g);
        // Key 0 appears in both examples' field 0: 1+3.
        assert_eq!(g.get(0).unwrap(), &[4.0, 4.0]);
        assert_eq!(g.get(10).unwrap(), &[2.0, 2.0]);
        assert_eq!(g.get(11).unwrap(), &[4.0, 4.0]);
    }

    #[test]
    fn scatter_broadcasts_sum_grads() {
        let mut g = SparseGrads::new(2);
        let ds = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        scatter_grads(&batch2(), None, Some(&ds), &mut g);
        // Example 0's dsum goes to keys {0, 10}; example 1's to {0, 11}.
        assert_eq!(g.get(0).unwrap(), &[1.0, 1.0]);
        assert_eq!(g.get(10).unwrap(), &[1.0, 0.0]);
        assert_eq!(g.get(11).unwrap(), &[0.0, 1.0]);
    }
}
