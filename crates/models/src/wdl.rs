//! Wide & Deep (Cheng et al., 2016) — the paper's WDL workload.
//!
//! Deep side: an MLP over the concatenated field embeddings. Wide side:
//! a learned linear term over the *summed* field embeddings (standing in
//! for the original's cross-product scalar weights — see DESIGN.md §6:
//! this keeps one shared embedding table without changing communication
//! behaviour). The logit is the sum of both sides.

use crate::ctr_common::{build_inputs, scatter_grads};
use crate::store::{EmbeddingStore, SparseGrads};
use crate::{EmbeddingModel, EvalChunk, MetricKind};
use het_data::CtrBatch;
use het_rng::Rng;
use het_tensor::loss::bce_with_logits;
use het_tensor::{HasParams, Linear, Matrix, Mlp, ParamVisitor, Scratch};

/// The Wide & Deep CTR model.
pub struct WideDeep {
    n_fields: usize,
    dim: usize,
    deep: Mlp,
    wide: Linear,
}

impl WideDeep {
    /// Builds the model: embeddings of dimension `dim`, `n_fields`
    /// categorical fields, deep hidden widths `hidden`.
    pub fn new<R: Rng>(rng: &mut R, n_fields: usize, dim: usize, hidden: &[usize]) -> Self {
        let mut dims = vec![n_fields * dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        WideDeep {
            n_fields,
            dim,
            deep: Mlp::new(rng, &dims),
            wide: Linear::new(rng, dim, 1),
        }
    }

    /// Number of categorical fields.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    fn logits(&self, x: &Matrix, sum: &Matrix) -> Scratch {
        let mut deep = self.deep.forward_inference(x);
        let wide = self.wide.forward_inference(sum);
        deep.axpy(1.0, &wide);
        deep
    }
}

impl HasParams for WideDeep {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        self.deep.visit_params(v);
        self.wide.visit_params(v);
    }
}

impl EmbeddingModel for WideDeep {
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
        // The layers keep their own copies; `dx` can have `x`'s buffer.
        drop(x);
        let wide_out = self.wide.forward(&sum);
        logits.axpy(1.0, &wide_out);

        let (loss, dlogits) = bce_with_logits(&logits, &batch.labels);

        let dx = self.deep.backward(&dlogits);
        let dsum = self.wide.backward(&dlogits);

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
        self.deep.flops(n) + self.wide.flops(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_data::{CtrConfig, CtrDataset};
    use het_rng::rngs::StdRng;
    use het_rng::SeedableRng;
    use het_tensor::{FlatGrads, Sgd};

    fn resolve(ds: &CtrDataset, batch: &CtrBatch, dim: usize) -> EmbeddingStore {
        // Deterministic pseudo-embeddings keyed by hash for testing.
        let mut store = EmbeddingStore::new(dim);
        for k in crate::ModelBatch::unique_keys(batch) {
            let v: Vec<f32> = (0..dim)
                .map(|i| {
                    let h = k.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64);
                    ((h % 1000) as f32 / 1000.0 - 0.5) * 0.2
                })
                .collect();
            store.insert(k, v);
        }
        let _ = ds;
        store
    }

    #[test]
    fn forward_backward_produces_grads_for_every_key() {
        let ds = CtrDataset::new(CtrConfig::tiny(1));
        let batch = ds.train_batch(0, 16);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = WideDeep::new(&mut rng, 4, 8, &[16]);
        let store = resolve(&ds, &batch, 8);
        let (loss, grads) = model.forward_backward(&batch, &store);
        assert!(loss.is_finite() && loss > 0.0);
        let uniq = crate::ModelBatch::unique_keys(&batch);
        assert_eq!(grads.len(), uniq.len(), "every unique key gets a gradient");
        for k in uniq {
            assert!(grads.get(k).unwrap().iter().all(|g| g.is_finite()));
        }
    }

    #[test]
    fn training_reduces_loss_with_fixed_embeddings() {
        let ds = CtrDataset::new(CtrConfig::tiny(5));
        let batch = ds.train_batch(0, 64);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = WideDeep::new(&mut rng, 4, 8, &[16]);
        let store = resolve(&ds, &batch, 8);
        let sgd = Sgd::new(0.1);
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
        let ds = CtrDataset::new(CtrConfig::tiny(9));
        let batch = ds.train_batch(3, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = WideDeep::new(&mut rng, 4, 4, &[8]);
        let mut store = resolve(&ds, &batch, 4);
        model.zero_grads();
        let (_, grads) = model.forward_backward(&batch, &store);
        // Undo dense accumulation so it doesn't affect the re-evaluations.
        model.zero_grads();

        let key = crate::ModelBatch::unique_keys(&batch)[0];
        let comp = 1usize;
        let eps = 1e-3f32;
        let orig = store.get(key).to_vec();

        let mut perturbed = orig.clone();
        perturbed[comp] += eps;
        store.insert(key, perturbed);
        let (x, sum) = build_inputs(&batch, &store);
        let lp = bce_with_logits(&model.logits(&x, &sum), &batch.labels).0;

        let mut perturbed = orig.clone();
        perturbed[comp] -= eps;
        store.insert(key, perturbed);
        let (x, sum) = build_inputs(&batch, &store);
        let lm = bce_with_logits(&model.logits(&x, &sum), &batch.labels).0;

        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grads.get(key).unwrap()[comp];
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    /// A weight that went to infinity must show up in the loss even when
    /// every input it multiplies is zero (`0·∞ = NaN`): the product kernel
    /// skips no term and the ReLU lets NaN through.
    #[test]
    fn a_non_finite_weight_behind_zero_inputs_makes_the_loss_nan() {
        let ds = CtrDataset::new(CtrConfig::tiny(1));
        let batch = ds.train_batch(0, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = WideDeep::new(&mut rng, 4, 8, &[16]);
        let mut zeros = EmbeddingStore::new(8);
        for k in crate::ModelBatch::unique_keys(&batch) {
            zeros.insert(k, vec![0.0; 8]);
        }
        let (sane, _) = model.forward_backward(&batch, &zeros);
        assert!(sane.is_finite());

        struct BlowUpFirstWeight(bool);
        impl ParamVisitor for BlowUpFirstWeight {
            fn visit(&mut self, param: &mut [f32], _grad: &mut [f32]) {
                if !std::mem::replace(&mut self.0, true) {
                    param[0] = f32::INFINITY;
                }
            }
        }
        model.visit_params(&mut BlowUpFirstWeight(false));
        let (loss, _) = model.forward_backward(&batch, &zeros);
        assert!(loss.is_nan(), "loss {loss} hides the non-finite weight");
        let scores = model.evaluate(&batch, &zeros).scores;
        assert!(scores.iter().all(|s| s.is_nan()));
    }

    #[test]
    fn evaluate_returns_probabilities() {
        let ds = CtrDataset::new(CtrConfig::tiny(1));
        let batch = ds.test_batch(0, 32);
        let mut rng = StdRng::seed_from_u64(2);
        let model = WideDeep::new(&mut rng, 4, 8, &[16]);
        let store = resolve(&ds, &batch, 8);
        let chunk = model.evaluate(&batch, &store);
        assert_eq!(chunk.scores.len(), 32);
        assert!(chunk.scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert_eq!(model.metric_kind(), MetricKind::Auc);
    }

    #[test]
    fn dense_grads_flow_through_visitor() {
        let ds = CtrDataset::new(CtrConfig::tiny(1));
        let batch = ds.train_batch(0, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = WideDeep::new(&mut rng, 4, 8, &[16]);
        let store = resolve(&ds, &batch, 8);
        model.zero_grads();
        let _ = model.forward_backward(&batch, &store);
        let mut flat = FlatGrads::new();
        flat.export_from(&mut model);
        assert!(
            flat.as_slice().iter().any(|&g| g != 0.0),
            "dense grads nonzero"
        );
        assert!(model.flops_per_batch(128) > 0.0);
    }
}
