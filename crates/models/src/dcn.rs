//! Deep & Cross Network (Wang et al., ADKDD'17) — the paper's DCN
//! workload.
//!
//! A stack of cross layers and a deep MLP run in parallel over the
//! concatenated field embeddings; their outputs are concatenated and
//! projected to the logit. DCN has the most dense parameters of the
//! three CTR models, which is why the paper's Fig. 7 shows the pure-PS
//! baselines suffering most on it.

use crate::ctr_common::{build_inputs, scatter_grads};
use crate::store::{EmbeddingStore, SparseGrads};
use crate::{EmbeddingModel, EvalChunk, MetricKind};
use het_data::CtrBatch;
use het_rng::Rng;
use het_tensor::activation::{relu_backward, relu_inplace};
use het_tensor::loss::bce_with_logits;
use het_tensor::{CrossLayer, HasParams, Linear, Matrix, Mlp, ParamVisitor, Scratch};

/// The Deep & Cross CTR model.
pub struct DeepCross {
    n_fields: usize,
    dim: usize,
    cross: Vec<CrossLayer>,
    deep: Mlp,
    combine: Linear,
}

impl DeepCross {
    /// Builds the model with `n_cross` cross layers and deep widths
    /// `hidden` (the final hidden width feeds the combiner).
    ///
    /// # Panics
    /// Panics if `hidden` is empty or `n_cross` is zero.
    pub fn new<R: Rng>(
        rng: &mut R,
        n_fields: usize,
        dim: usize,
        n_cross: usize,
        hidden: &[usize],
    ) -> Self {
        assert!(n_cross > 0, "DCN needs at least one cross layer");
        assert!(
            !hidden.is_empty(),
            "DCN needs at least one deep hidden layer"
        );
        let width = n_fields * dim;
        let cross = (0..n_cross).map(|_| CrossLayer::new(rng, width)).collect();
        let mut dims = vec![width];
        dims.extend_from_slice(hidden);
        let deep = Mlp::new(rng, &dims);
        let combine = Linear::new(rng, width + hidden[hidden.len() - 1], 1);
        DeepCross {
            n_fields,
            dim,
            cross,
            deep,
            combine,
        }
    }

    /// Number of categorical fields.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    /// Number of cross layers.
    pub fn n_cross(&self) -> usize {
        self.cross.len()
    }

    fn logits_inference(&self, x: &Matrix) -> Scratch {
        let (first, rest) = self.cross.split_first().expect("at least one cross layer");
        let mut xl = first.forward_inference(x, x);
        for layer in rest {
            xl = layer.forward_inference(x, &xl);
        }
        let deep_out = self.deep.forward_inference(x);
        // Deep tower ends in a ReLU'd hidden layer in inference parity
        // with forward(): Mlp applies ReLU between layers only, so the
        // final hidden output is linear; apply ReLU to match forward().
        let combined = xl.hcat(&relu(deep_out));
        self.combine.forward_inference(&combined)
    }
}

fn relu(mut m: Scratch) -> Scratch {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    m
}

impl HasParams for DeepCross {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        for layer in &mut self.cross {
            layer.visit_params(v);
        }
        self.deep.visit_params(v);
        self.combine.visit_params(v);
    }
}

impl EmbeddingModel for DeepCross {
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
        let (x, _) = build_inputs(batch, embeddings);
        let width = x.cols();

        // Cross tower.
        let (first, rest) = self
            .cross
            .split_first_mut()
            .expect("at least one cross layer");
        let mut xl = first.forward(&x, &x);
        for layer in rest {
            xl = layer.forward(&x, &xl);
        }
        // Deep tower with an output ReLU (so inference parity is simple).
        let mut deep_out = self.deep.forward(&x);
        let mut deep_mask = Matrix::default();
        relu_inplace(&mut deep_out, &mut deep_mask);

        let combined = xl.hcat(&deep_out);
        let logits = self.combine.forward(&combined);
        let (loss, dlogits) = bce_with_logits(&logits, &batch.labels);

        // Backward through the combiner and split the gradient.
        let dcombined = self.combine.backward(&dlogits);
        let (mut dxl, mut ddeep) = dcombined.hsplit(width);

        // Deep tower backward (through the output ReLU).
        relu_backward(&mut ddeep, &deep_mask);
        let dx_deep = self.deep.backward(&ddeep);

        // Cross tower backward: walk layers in reverse, accumulating the
        // x0 contributions every layer produces.
        let mut dx0_total = Scratch::zeros(x.rows(), width);
        for layer in self.cross.iter_mut().rev() {
            let (dx0, dxl_prev) = layer.backward(&dxl);
            dx0_total.axpy(1.0, &dx0);
            dxl = dxl_prev;
        }
        // After the loop, dxl is the gradient w.r.t. the cross input x.
        let mut dx = dx_deep;
        dx.axpy(1.0, &dx0_total);
        dx.axpy(1.0, &dxl);

        let mut grads = SparseGrads::new(self.dim);
        scatter_grads(batch, Some(&dx), None, &mut grads);
        (loss, grads)
    }

    fn evaluate(&self, batch: &CtrBatch, embeddings: &EmbeddingStore) -> EvalChunk {
        let (x, _) = build_inputs(batch, embeddings);
        let logits = self.logits_inference(&x);
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
        let cross: f64 = self.cross.iter().map(|c| c.flops(n)).sum();
        cross + self.deep.flops(n) + self.combine.flops(n)
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
                        .wrapping_mul(0xBF58476D1CE4E5B9)
                        .wrapping_add(i as u64 * 13);
                    ((h % 991) as f32 / 991.0 - 0.5) * 0.3
                })
                .collect();
            store.insert(k, v);
        }
        store
    }

    #[test]
    fn loss_decreases_under_training() {
        let ds = CtrDataset::new(CtrConfig::tiny(41));
        let batch = ds.train_batch(0, 64);
        let mut rng = StdRng::seed_from_u64(10);
        let mut model = DeepCross::new(&mut rng, 4, 8, 2, &[16]);
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
    fn forward_and_inference_logits_agree() {
        let ds = CtrDataset::new(CtrConfig::tiny(43));
        let batch = ds.train_batch(0, 8);
        let mut rng = StdRng::seed_from_u64(10);
        let mut model = DeepCross::new(&mut rng, 4, 8, 3, &[16, 8]);
        let store = resolve(&batch, 8);
        // Run evaluate (inference path) before and compare to the logits
        // produced by the training path via loss gradient reconstruction:
        // simplest check — evaluate twice is stable, and forward_backward
        // on the same weights yields the same loss as recomputing from
        // evaluate's scores.
        let chunk = model.evaluate(&batch, &store);
        let (loss, _) = model.forward_backward(&batch, &store);
        let probs: Vec<f32> = chunk.scores;
        let manual: f64 = probs
            .iter()
            .zip(&batch.labels)
            .map(|(&p, &y)| {
                let p = (p as f64).clamp(1e-7, 1.0 - 1e-7);
                if y > 0.5 {
                    -p.ln()
                } else {
                    -(1.0 - p).ln()
                }
            })
            .sum::<f64>()
            / probs.len() as f64;
        assert!(
            (loss as f64 - manual).abs() < 1e-4,
            "training loss {loss} vs inference-derived {manual}"
        );
    }

    #[test]
    fn embedding_gradient_matches_finite_difference() {
        let ds = CtrDataset::new(CtrConfig::tiny(47));
        let batch = ds.train_batch(2, 4);
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = DeepCross::new(&mut rng, 4, 4, 2, &[8]);
        let mut store = resolve(&batch, 4);
        model.zero_grads();
        let (_, grads) = model.forward_backward(&batch, &store);
        model.zero_grads();

        let key = batch.unique_keys()[0];
        let comp = 0usize;
        let eps = 1e-3f32;
        let orig = store.get(key).to_vec();

        let mut p = orig.clone();
        p[comp] += eps;
        store.insert(key, p);
        let (x, _) = build_inputs(&batch, &store);
        let lp = bce_with_logits(&model.logits_inference(&x), &batch.labels).0;

        let mut m = orig.clone();
        m[comp] -= eps;
        store.insert(key, m);
        let (x, _) = build_inputs(&batch, &store);
        let lm = bce_with_logits(&model.logits_inference(&x), &batch.labels).0;

        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grads.get(key).unwrap()[comp];
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn has_more_dense_params_than_wdl() {
        // The paper notes DCN/DFM carry more dense parameters than WDL;
        // our implementations should preserve that ordering.
        let mut rng = StdRng::seed_from_u64(1);
        let mut dcn = DeepCross::new(&mut rng, 26, 16, 3, &[64, 32]);
        let mut wdl = crate::WideDeep::new(&mut rng, 26, 16, &[64, 32]);
        assert!(dcn.n_params() > wdl.n_params());
    }

    #[test]
    #[should_panic(expected = "at least one cross layer")]
    fn zero_cross_layers_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = DeepCross::new(&mut rng, 4, 8, 0, &[16]);
    }
}
