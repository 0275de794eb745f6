//! DeepFM (Guo et al., IJCAI'17) — the paper's DFM workload.
//!
//! Three additive components over the shared field embeddings:
//! a deep MLP on the concatenated embeddings, the FM pairwise
//! interaction, and a first-order term (a learned projection of the
//! summed embeddings, standing in for per-feature scalar weights — see
//! DESIGN.md §6).

use crate::ctr_common::{build_inputs, scatter_grads};
use crate::store::{EmbeddingStore, SparseGrads};
use crate::{EmbeddingModel, EvalChunk, MetricKind};
use het_data::CtrBatch;
use het_rng::Rng;
use het_tensor::loss::bce_with_logits;
use het_tensor::{FmInteraction, HasParams, Linear, Matrix, Mlp, ParamVisitor, Scratch};

/// The DeepFM CTR model.
pub struct DeepFm {
    n_fields: usize,
    dim: usize,
    deep: Mlp,
    fm: FmInteraction,
    first_order: Linear,
}

impl DeepFm {
    /// Builds the model.
    pub fn new<R: Rng>(rng: &mut R, n_fields: usize, dim: usize, hidden: &[usize]) -> Self {
        let mut dims = vec![n_fields * dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        DeepFm {
            n_fields,
            dim,
            deep: Mlp::new(rng, &dims),
            fm: FmInteraction::new(n_fields, dim),
            first_order: Linear::new(rng, dim, 1),
        }
    }

    /// Number of categorical fields.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    fn logits(&self, x: &Matrix, sum: &Matrix) -> Scratch {
        let mut out = self.deep.forward_inference(x);
        out.axpy(1.0, &self.fm.forward_inference(x));
        out.axpy(1.0, &self.first_order.forward_inference(sum));
        out
    }
}

impl HasParams for DeepFm {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        self.deep.visit_params(v);
        self.first_order.visit_params(v);
    }
}

impl EmbeddingModel for DeepFm {
    type Batch = CtrBatch;

    fn embedding_dim(&self) -> usize {
        self.dim
    }

    fn forward_backward(
        &mut self,
        batch: &CtrBatch,
        embeddings: &EmbeddingStore,
    ) -> (f32, SparseGrads) {
        assert_eq!(
            batch.n_fields, self.n_fields,
            "batch/model field count mismatch"
        );
        let (x, sum) = build_inputs(batch, embeddings);
        let mut logits = self.deep.forward(&x);
        logits.axpy(1.0, &self.fm.forward(&x));
        logits.axpy(1.0, &self.first_order.forward(&sum));

        let (loss, dlogits) = bce_with_logits(&logits, &batch.labels);

        let mut dx = self.deep.backward(&dlogits);
        dx.axpy(1.0, &self.fm.backward(&dlogits));
        let dsum = self.first_order.backward(&dlogits);

        let mut grads = SparseGrads::new(self.dim);
        scatter_grads(batch, Some(&dx), Some(&dsum), &mut grads);
        (loss, grads)
    }

    fn evaluate(&self, batch: &CtrBatch, embeddings: &EmbeddingStore) -> EvalChunk {
        let (x, sum) = build_inputs(batch, embeddings);
        let logits = self.logits(&x, &sum);
        let scores = logits
            .as_slice()
            .iter()
            .map(|&z| het_tensor::activation::sigmoid(z))
            .collect();
        EvalChunk {
            scores,
            labels: batch.labels.clone(),
        }
    }

    fn metric_kind(&self) -> MetricKind {
        MetricKind::Auc
    }

    fn flops_per_batch(&self, n: usize) -> f64 {
        self.deep.flops(n) + self.fm.flops(n) + self.first_order.flops(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_data::{CtrConfig, CtrDataset};
    use het_rng::rngs::StdRng;
    use het_rng::SeedableRng;
    use het_tensor::Sgd;

    fn resolve(batch: &CtrBatch, dim: usize) -> EmbeddingStore {
        let mut store = EmbeddingStore::new(dim);
        for k in batch.unique_keys() {
            let v: Vec<f32> = (0..dim)
                .map(|i| {
                    let h = k
                        .wrapping_mul(0x2545F4914F6CDD1D)
                        .wrapping_add(i as u64 * 7);
                    ((h % 997) as f32 / 997.0 - 0.5) * 0.3
                })
                .collect();
            store.insert(k, v);
        }
        store
    }

    #[test]
    fn loss_decreases_under_training() {
        let ds = CtrDataset::new(CtrConfig::tiny(21));
        let batch = ds.train_batch(0, 64);
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = DeepFm::new(&mut rng, 4, 8, &[16]);
        let store = resolve(&batch, 8);
        let sgd = Sgd::new(0.05);
        let (first, _) = model.forward_backward(&batch, &store);
        sgd.step(&mut model);
        let mut last = first;
        for _ in 0..30 {
            let (l, _) = model.forward_backward(&batch, &store);
            sgd.step(&mut model);
            last = l;
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn embedding_gradient_matches_finite_difference() {
        let ds = CtrDataset::new(CtrConfig::tiny(31));
        let batch = ds.train_batch(1, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let mut model = DeepFm::new(&mut rng, 4, 4, &[8]);
        let mut store = resolve(&batch, 4);
        model.zero_grads();
        let (_, grads) = model.forward_backward(&batch, &store);
        model.zero_grads();

        let key = batch.unique_keys()[1];
        let comp = 2usize;
        let eps = 1e-3f32;
        let orig = store.get(key).to_vec();

        let mut p = orig.clone();
        p[comp] += eps;
        store.insert(key, p);
        let (x, sum) = build_inputs(&batch, &store);
        let lp = bce_with_logits(&model.logits(&x, &sum), &batch.labels).0;

        let mut m = orig.clone();
        m[comp] -= eps;
        store.insert(key, m);
        let (x, sum) = build_inputs(&batch, &store);
        let lm = bce_with_logits(&model.logits(&x, &sum), &batch.labels).0;

        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grads.get(key).unwrap()[comp];
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn fm_term_contributes_to_logit() {
        // With the deep tower zeroed out, logits must still vary with
        // embeddings through the FM term.
        let ds = CtrDataset::new(CtrConfig::tiny(2));
        let batch = ds.train_batch(0, 8);
        let mut rng = StdRng::seed_from_u64(6);
        let model = DeepFm::new(&mut rng, 4, 8, &[16]);
        let store_a = resolve(&batch, 8);
        let chunk_a = model.evaluate(&batch, &store_a);
        // Different embeddings -> different scores.
        let mut store_b = EmbeddingStore::new(8);
        for k in batch.unique_keys() {
            store_b.insert(k, vec![0.05; 8]);
        }
        let chunk_b = model.evaluate(&batch, &store_b);
        assert_ne!(chunk_a.scores, chunk_b.scores);
    }

    #[test]
    fn grads_cover_unique_keys() {
        let ds = CtrDataset::new(CtrConfig::tiny(2));
        let batch = ds.train_batch(0, 16);
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = DeepFm::new(&mut rng, 4, 8, &[16]);
        let store = resolve(&batch, 8);
        let (loss, grads) = model.forward_backward(&batch, &store);
        assert!(loss.is_finite());
        assert_eq!(grads.len(), batch.unique_keys().len());
        assert!(model.flops_per_batch(64) > 0.0);
        assert_eq!(model.metric_kind(), MetricKind::Auc);
    }
}
