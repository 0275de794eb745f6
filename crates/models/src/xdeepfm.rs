//! xDeepFM (Lian et al., KDD'18) — cited by the paper (§2.2) as one of
//! the embedding-model family; included as a scope extension beyond the
//! three evaluated DLRM models.
//!
//! The distinctive part is the **Compressed Interaction Network** (CIN):
//! explicit vector-wise high-order interactions. With per-example field
//! matrix `X⁰ ∈ ℝ^{F×D}`, layer k computes, independently per embedding
//! dimension `d`,
//!
//! ```text
//! Xᵏ[:,d] = Wᵏ · vec( Xᵏ⁻¹[:,d] ⊗ X⁰[:,d] )        Wᵏ ∈ ℝ^{Hₖ × Hₖ₋₁·F}
//! ```
//!
//! each layer's output is sum-pooled over `d` and the pooled features of
//! all layers feed the logit next to a deep MLP and a first-order term.

use crate::ctr_common::{build_inputs, scatter_grads};
use crate::store::{EmbeddingStore, SparseGrads};
use crate::{EmbeddingModel, EvalChunk, MetricKind};
use het_data::CtrBatch;
use het_rng::Rng;
use het_tensor::loss::bce_with_logits;
use het_tensor::{HasParams, Linear, Matrix, Mlp, ParamVisitor, Scratch};

/// One CIN layer's parameters: `weight[h]` is the `H_prev·F` filter of
/// output feature map `h`, stored row-major as a Matrix (H × H_prev·F).
struct CinLayer {
    weight: Matrix,
    grad: Matrix,
    h_prev: usize,
    h_out: usize,
}

impl CinLayer {
    fn new<R: Rng>(rng: &mut R, fields: usize, h_prev: usize, h_out: usize) -> Self {
        let weight = het_tensor::init::xavier_uniform(rng, h_out, h_prev * fields);
        let grad = Matrix::zeros(h_out, h_prev * fields);
        CinLayer {
            weight,
            grad,
            h_prev,
            h_out,
        }
    }
}

/// The xDeepFM CTR model: CIN + deep MLP + first-order term over shared
/// field embeddings.
pub struct XDeepFm {
    n_fields: usize,
    dim: usize,
    cin: Vec<CinLayer>,
    /// Linear head over the concatenated sum-pooled CIN features.
    cin_out: Linear,
    deep: Mlp,
    first_order: Linear,
}

/// Per-example activations of the CIN, kept for backward.
struct CinState {
    /// `maps[k]` is X^k for every example: batch × (H_k × D).
    maps: Vec<Vec<Matrix>>,
}

impl XDeepFm {
    /// Builds the model with CIN feature-map sizes `cin_sizes`
    /// (e.g. `[8, 8]` for two interaction orders) and deep widths
    /// `hidden`.
    ///
    /// # Panics
    /// Panics if `cin_sizes` is empty.
    pub fn new<R: Rng>(
        rng: &mut R,
        n_fields: usize,
        dim: usize,
        cin_sizes: &[usize],
        hidden: &[usize],
    ) -> Self {
        assert!(!cin_sizes.is_empty(), "CIN needs at least one layer");
        let mut cin = Vec::with_capacity(cin_sizes.len());
        let mut h_prev = n_fields;
        for &h in cin_sizes {
            cin.push(CinLayer::new(rng, n_fields, h_prev, h));
            h_prev = h;
        }
        let pooled: usize = cin_sizes.iter().sum();
        let mut dims = vec![n_fields * dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        XDeepFm {
            n_fields,
            dim,
            cin,
            cin_out: Linear::new(rng, pooled, 1),
            deep: Mlp::new(rng, &dims),
            first_order: Linear::new(rng, dim, 1),
        }
    }

    /// Number of categorical fields.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    /// Reshapes the flat `(batch × F·D)` input into per-example `F×D`
    /// field matrices.
    fn field_matrices(&self, x: &Matrix) -> Vec<Matrix> {
        (0..x.rows())
            .map(|i| Matrix::from_vec(self.n_fields, self.dim, x.row(i).to_vec()))
            .collect()
    }

    /// CIN forward for the whole batch; returns the pooled features
    /// `(batch × Σ H_k)` and the per-layer activations.
    fn cin_forward(&self, x0: &[Matrix]) -> (Matrix, CinState) {
        let batch = x0.len();
        let pooled_width: usize = self.cin.iter().map(|l| l.h_out).sum();
        let mut pooled = Matrix::zeros(batch, pooled_width);
        let mut maps: Vec<Vec<Matrix>> = Vec::with_capacity(self.cin.len());

        for (k, layer) in self.cin.iter().enumerate() {
            let mut layer_maps = Vec::with_capacity(batch);
            for (i, x0_i) in x0.iter().enumerate() {
                let prev: &Matrix = if k == 0 { x0_i } else { &maps[k - 1][i] };
                let mut out = Matrix::zeros(layer.h_out, self.dim);
                for d in 0..self.dim {
                    // z = vec(prev[:,d] ⊗ x0[:,d]), then out[:,d] = W·z.
                    for h in 0..layer.h_out {
                        let w_row = layer.weight.row(h);
                        let mut acc = 0.0f32;
                        for p in 0..layer.h_prev {
                            let pv = prev.get(p, d);
                            if pv == 0.0 {
                                continue;
                            }
                            let base = p * self.n_fields;
                            for f in 0..self.n_fields {
                                acc += w_row[base + f] * pv * x0_i.get(f, d);
                            }
                        }
                        out.set(h, d, acc);
                    }
                }
                layer_maps.push(out);
            }
            maps.push(layer_maps);
        }

        // Sum-pool each layer over D into the pooled feature block.
        let mut col0 = 0usize;
        for (k, layer) in self.cin.iter().enumerate() {
            for (i, m) in maps[k].iter().enumerate().take(batch) {
                for h in 0..layer.h_out {
                    let s: f32 = (0..self.dim).map(|d| m.get(h, d)).sum();
                    pooled.set(i, col0 + h, s);
                }
            }
            col0 += layer.h_out;
        }
        (pooled, CinState { maps })
    }

    /// CIN backward: `dpooled` is `(batch × Σ H_k)`; accumulates the
    /// layer weight grads and returns `dX0` per example.
    fn cin_backward(&mut self, x0: &[Matrix], state: &CinState, dpooled: &Matrix) -> Vec<Matrix> {
        let batch = x0.len();
        let (dim, n_fields) = (self.dim, self.n_fields);
        let mut dx0: Vec<Matrix> = x0
            .iter()
            .map(|m| Matrix::zeros(m.rows(), m.cols()))
            .collect();
        // dmaps[i] holds the running gradient w.r.t. X^k for the layer
        // currently being processed (top-down).
        let mut dmaps: Vec<Option<Matrix>> = vec![None; batch];

        // Walk layers top-down; each layer first receives its pooled
        // gradient (broadcast over d), plus whatever flowed from above.
        let layer_offsets: Vec<usize> = {
            let mut offs = Vec::with_capacity(self.cin.len());
            let mut acc = 0;
            for l in &self.cin {
                offs.push(acc);
                acc += l.h_out;
            }
            offs
        };

        for k in (0..self.cin.len()).rev() {
            let (h_out, h_prev) = (self.cin[k].h_out, self.cin[k].h_prev);
            let col0 = layer_offsets[k];
            let mut next_dmaps: Vec<Option<Matrix>> = vec![None; batch];
            for i in 0..batch {
                // Gradient at this layer's output.
                let mut dxk = match dmaps[i].take() {
                    Some(m) => m,
                    None => Matrix::zeros(h_out, dim),
                };
                for h in 0..h_out {
                    let g = dpooled.get(i, col0 + h);
                    for d in 0..dim {
                        let v = dxk.get(h, d) + g;
                        dxk.set(h, d, v);
                    }
                }

                let prev: &Matrix = if k == 0 {
                    &x0[i]
                } else {
                    &state.maps[k - 1][i]
                };
                let mut dprev = Matrix::zeros(h_prev, dim);
                let x0_i = &x0[i];
                {
                    let layer = &mut self.cin[k];
                    for d in 0..dim {
                        for h in 0..h_out {
                            let g = dxk.get(h, d);
                            if g == 0.0 {
                                continue;
                            }
                            let w_row = layer.weight.row(h);
                            let g_row = layer.grad.row_mut(h);
                            for p in 0..h_prev {
                                let pv = prev.get(p, d);
                                let base = p * n_fields;
                                let mut dp = 0.0f32;
                                for f in 0..n_fields {
                                    let xv = x0_i.get(f, d);
                                    // dW
                                    g_row[base + f] += g * pv * xv;
                                    // dprev via W
                                    dp += w_row[base + f] * xv;
                                    // dx0
                                    let cur = dx0[i].get(f, d);
                                    dx0[i].set(f, d, cur + g * w_row[base + f] * pv);
                                }
                                let cur = dprev.get(p, d);
                                dprev.set(p, d, cur + g * dp);
                            }
                        }
                    }
                }
                if k == 0 {
                    dx0[i].axpy(1.0, &dprev);
                } else {
                    next_dmaps[i] = Some(dprev);
                }
            }
            dmaps = next_dmaps;
        }
        dx0
    }

    fn logits_inference(&self, x: &Matrix, sum: &Matrix) -> Scratch {
        let x0 = self.field_matrices(x);
        let (pooled, _) = self.cin_forward(&x0);
        let mut out = self.cin_out.forward_inference(&pooled);
        out.axpy(1.0, &self.deep.forward_inference(x));
        out.axpy(1.0, &self.first_order.forward_inference(sum));
        out
    }
}

impl HasParams for XDeepFm {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        for layer in &mut self.cin {
            v.visit(layer.weight.as_mut_slice(), layer.grad.as_mut_slice());
        }
        self.cin_out.visit_params(v);
        self.deep.visit_params(v);
        self.first_order.visit_params(v);
    }
}

impl EmbeddingModel for XDeepFm {
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
        let x0 = self.field_matrices(&x);

        let (pooled, state) = self.cin_forward(&x0);
        let mut logits = self.cin_out.forward(&pooled);
        logits.axpy(1.0, &self.deep.forward(&x));
        logits.axpy(1.0, &self.first_order.forward(&sum));

        let (loss, dlogits) = bce_with_logits(&logits, &batch.labels);

        let dpooled = self.cin_out.backward(&dlogits);
        let dx0 = self.cin_backward(&x0, &state, &dpooled);
        let mut dx = self.deep.backward(&dlogits);
        // Fold the CIN's per-example F×D gradients back into the flat
        // (batch × F·D) layout.
        for (i, dxi) in dx0.iter().enumerate() {
            let row = dx.row_mut(i);
            for (dst, &src) in row.iter_mut().zip(dxi.as_slice()) {
                *dst += src;
            }
        }
        let dsum = self.first_order.backward(&dlogits);

        let mut grads = SparseGrads::new(self.dim);
        scatter_grads(batch, Some(&dx), Some(&dsum), &mut grads);
        (loss, grads)
    }

    fn evaluate(&self, batch: &CtrBatch, embeddings: &EmbeddingStore) -> EvalChunk {
        let (x, sum) = build_inputs(batch, embeddings);
        let logits = self.logits_inference(&x, &sum);
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
        let cin: f64 = self
            .cin
            .iter()
            .map(|l| 6.0 * (l.h_out * l.h_prev * self.n_fields * self.dim) as f64)
            .sum();
        cin * n as f64 + self.deep.flops(n) + self.cin_out.flops(n) + self.first_order.flops(n)
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
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(i as u64 * 11);
                    ((h % 977) as f32 / 977.0 - 0.5) * 0.4
                })
                .collect();
            store.insert(k, v);
        }
        store
    }

    #[test]
    fn cin_first_layer_matches_pairwise_products() {
        // One CIN layer with a single feature map whose weights are all
        // ones computes, per d, Σ_{p,f} x0[p,d]·x0[f,d] = (Σ_f x0[f,d])².
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = XDeepFm::new(&mut rng, 2, 2, &[1], &[4]);
        for h in 0..1 {
            for c in 0..model.cin[0].weight.cols() {
                model.cin[0].weight.set(h, c, 1.0);
            }
        }
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]); // fields (1,2),(3,4)
        let x0 = model.field_matrices(&x);
        let (pooled, _) = model.cin_forward(&x0);
        // d=0: (1+3)² = 16 ; d=1: (2+4)² = 36 ; pooled = 52.
        assert!((pooled.get(0, 0) - 52.0).abs() < 1e-4);
    }

    #[test]
    fn embedding_gradient_matches_finite_difference() {
        let ds = CtrDataset::new(CtrConfig::tiny(57));
        let batch = ds.train_batch(2, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = XDeepFm::new(&mut rng, 4, 4, &[3, 2], &[8]);
        let mut store = resolve(&batch, 4);
        model.zero_grads();
        let (_, grads) = model.forward_backward(&batch, &store);
        model.zero_grads();

        let key = batch.unique_keys()[0];
        let comp = 1usize;
        let eps = 1e-3f32;
        let orig = store.get(key).to_vec();

        let mut p = orig.clone();
        p[comp] += eps;
        store.insert(key, p);
        let (x, sum) = build_inputs(&batch, &store);
        let lp = bce_with_logits(&model.logits_inference(&x, &sum), &batch.labels).0;

        let mut m = orig.clone();
        m[comp] -= eps;
        store.insert(key, m);
        let (x, sum) = build_inputs(&batch, &store);
        let lm = bce_with_logits(&model.logits_inference(&x, &sum), &batch.labels).0;

        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grads.get(key).unwrap()[comp];
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn cin_weight_gradient_matches_finite_difference() {
        let ds = CtrDataset::new(CtrConfig::tiny(59));
        let batch = ds.train_batch(1, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = XDeepFm::new(&mut rng, 4, 3, &[2], &[4]);
        let store = resolve(&batch, 3);
        model.zero_grads();
        let _ = model.forward_backward(&batch, &store);
        let analytic = model.cin[0].grad.get(0, 3);
        model.zero_grads();

        let eps = 1e-3f32;
        let orig = model.cin[0].weight.get(0, 3);
        let (x, sum) = build_inputs(&batch, &store);
        model.cin[0].weight.set(0, 3, orig + eps);
        let lp = bce_with_logits(&model.logits_inference(&x, &sum), &batch.labels).0;
        model.cin[0].weight.set(0, 3, orig - eps);
        let lm = bce_with_logits(&model.logits_inference(&x, &sum), &batch.labels).0;
        model.cin[0].weight.set(0, 3, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn loss_decreases_under_training() {
        let ds = CtrDataset::new(CtrConfig::tiny(61));
        let batch = ds.train_batch(0, 32);
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = XDeepFm::new(&mut rng, 4, 8, &[4, 4], &[16]);
        let store = resolve(&batch, 8);
        let sgd = Sgd::new(0.02);
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
    fn param_count_includes_cin_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = XDeepFm::new(&mut rng, 4, 8, &[3, 2], &[8]);
        // CIN: 3×(4·4) + 2×(3·4) = 48 + 24 = 72; plus cin_out (5+1)=6;
        // deep (32·8+8)+(8·1+1)=273; first (8+1)=9 → 360.
        assert_eq!(model.n_params(), 72 + 6 + 273 + 9);
        assert!(model.flops_per_batch(16) > 0.0);
        assert_eq!(model.metric_kind(), MetricKind::Auc);
        assert_eq!(model.n_fields(), 4);
    }
}
