//! GraphSAGE (Hamilton et al., NeurIPS'17) with mean aggregation — the
//! paper's GNN workload.
//!
//! Two layers over sampled neighbourhoods. Node-ID embeddings are the
//! only input features (as in the paper's Reddit note, §5.1), so *all*
//! feature traffic is embedding traffic:
//!
//! * layer 1: `h¹_v = relu(W₁·[x_v ; mean(x_u, u∈N(v))])` computed for
//!   the targets and their hop-1 samples in one stacked pass (so the
//!   shared `W₁` sees a single forward/backward);
//! * layer 2: `z_t = W₂·[h¹_t ; mean(h¹_u, u∈N(t))]`, softmax over
//!   classes.

use crate::store::{EmbeddingStore, SparseGrads};
use crate::{EmbeddingModel, EvalChunk, MetricKind};
use het_data::{GnnBatch, Key};
use het_rng::Rng;
use het_tensor::activation::{relu_backward, relu_inplace};
use het_tensor::loss::{accuracy, softmax_cross_entropy};
use het_tensor::{HasParams, Linear, Matrix, ParamVisitor, Scratch};

/// The 2-layer GraphSAGE node classifier.
pub struct GraphSage {
    dim: usize,
    hidden: usize,
    n_classes: usize,
    layer1: Linear,
    layer2: Linear,
    /// ReLU mask of layer 1's output, kept from forward to backward.
    mask1: Matrix,
}

impl GraphSage {
    /// Builds the model: `dim`-dimensional node embeddings, `hidden`
    /// units, `n_classes` output classes.
    pub fn new<R: Rng>(rng: &mut R, dim: usize, hidden: usize, n_classes: usize) -> Self {
        GraphSage {
            dim,
            hidden,
            n_classes,
            layer1: Linear::new(rng, 2 * dim, hidden),
            layer2: Linear::new(rng, 2 * hidden, n_classes),
            mask1: Matrix::default(),
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Gathers node embeddings into a `(nodes.len() × dim)` matrix.
    fn gather(&self, nodes: &[u32], store: &EmbeddingStore) -> Scratch {
        let mut m = Scratch::new(nodes.len(), self.dim);
        for (i, &v) in nodes.iter().enumerate() {
            m.row_mut(i).copy_from_slice(store.get(v as Key));
        }
        m
    }

    /// Mean over consecutive groups of `fanout` rows:
    /// `(parents·fanout × c) → (parents × c)`.
    fn group_mean(m: &Matrix, fanout: usize) -> Scratch {
        assert_eq!(
            m.rows() % fanout,
            0,
            "row count must be divisible by fanout"
        );
        let parents = m.rows() / fanout;
        let mut out = Scratch::zeros(parents, m.cols());
        let inv = 1.0 / fanout as f32;
        for p in 0..parents {
            let orow = out.row_mut(p);
            for f in 0..fanout {
                for (o, &v) in orow.iter_mut().zip(m.row(p * fanout + f)) {
                    *o += v * inv;
                }
            }
        }
        out
    }

    /// Inverse of [`GraphSage::group_mean`] for gradients: spreads each
    /// parent-row gradient equally over its `fanout` member rows.
    fn group_mean_backward(d: &Matrix, fanout: usize) -> Scratch {
        let mut out = Scratch::new(d.rows() * fanout, d.cols());
        let inv = 1.0 / fanout as f32;
        for p in 0..d.rows() {
            for f in 0..fanout {
                let orow = out.row_mut(p * fanout + f);
                for (o, &v) in orow.iter_mut().zip(d.row(p)) {
                    *o = v * inv;
                }
            }
        }
        out
    }

    /// Training forward pass; returns the logits.
    fn forward_full(&mut self, batch: &GnnBatch, store: &EmbeddingStore) -> Scratch {
        let b = batch.len();
        let x_targets = self.gather(&batch.targets, store);
        let x_hop1 = self.gather(&batch.hop1, store);
        let x_hop2_t = self.gather(&batch.hop2_targets, store);
        let x_hop2_h1 = self.gather(&batch.hop2_hop1, store);

        // Layer-1 inputs for targets and hop-1 nodes, stacked so W1 runs
        // once.
        let in_targets = x_targets.hcat(&Self::group_mean(&x_hop2_t, batch.fanout2));
        let in_hop1 = x_hop1.hcat(&Self::group_mean(&x_hop2_h1, batch.fanout2));
        let l1_input = in_targets.vcat(&in_hop1);

        let mut h1 = self.layer1.forward(&l1_input);
        relu_inplace(&mut h1, &mut self.mask1);

        let (h1_targets, h1_hop1) = h1.vsplit(b);
        let l2_input = h1_targets.hcat(&Self::group_mean(&h1_hop1, batch.fanout1));
        self.layer2.forward(&l2_input)
    }

    /// Inference-only logits.
    fn logits_inference(&self, batch: &GnnBatch, store: &EmbeddingStore) -> Scratch {
        let b = batch.len();
        let x_targets = self.gather(&batch.targets, store);
        let x_hop1 = self.gather(&batch.hop1, store);
        let x_hop2_t = self.gather(&batch.hop2_targets, store);
        let x_hop2_h1 = self.gather(&batch.hop2_hop1, store);

        let in_targets = x_targets.hcat(&Self::group_mean(&x_hop2_t, batch.fanout2));
        let in_hop1 = x_hop1.hcat(&Self::group_mean(&x_hop2_h1, batch.fanout2));
        let l1_input = in_targets.vcat(&in_hop1);

        let mut h1 = self.layer1.forward_inference(&l1_input);
        for v in h1.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let (h1_targets, h1_hop1) = h1.vsplit(b);
        let l2_input = h1_targets.hcat(&Self::group_mean(&h1_hop1, batch.fanout1));
        self.layer2.forward_inference(&l2_input)
    }

    /// Scatters a per-row node gradient matrix into sparse grads.
    fn scatter(nodes: &[u32], d: &Matrix, out: &mut SparseGrads) {
        for (i, &v) in nodes.iter().enumerate() {
            out.accumulate(v as Key, d.row(i));
        }
    }
}

impl HasParams for GraphSage {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        self.layer1.visit_params(v);
        self.layer2.visit_params(v);
    }
}

impl EmbeddingModel for GraphSage {
    type Batch = GnnBatch;

    fn embedding_dim(&self) -> usize {
        self.dim
    }

    fn forward_backward(
        &mut self,
        batch: &GnnBatch,
        embeddings: &EmbeddingStore,
    ) -> (f32, SparseGrads) {
        let b = batch.len();
        let logits = self.forward_full(batch, embeddings);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &batch.labels);

        // Layer 2 backward, split into self and neighbour parts.
        let dl2_input = self.layer2.backward(&dlogits);
        let (dh1_targets, dmean_h1) = dl2_input.hsplit(self.hidden);
        let dh1_hop1 = Self::group_mean_backward(&dmean_h1, batch.fanout1);

        // Stack to match the layer-1 forward, apply the ReLU mask.
        let mut dh1 = dh1_targets.vcat(&dh1_hop1);
        relu_backward(&mut dh1, &self.mask1);

        let dl1_input = self.layer1.backward(&dh1);
        let (d_in_targets, d_in_hop1) = dl1_input.vsplit(b);
        let (dx_targets, dmean_x_t) = d_in_targets.hsplit(self.dim);
        let (dx_hop1, dmean_x_h1) = d_in_hop1.hsplit(self.dim);
        let dx_hop2_t = Self::group_mean_backward(&dmean_x_t, batch.fanout2);
        let dx_hop2_h1 = Self::group_mean_backward(&dmean_x_h1, batch.fanout2);

        let mut grads = SparseGrads::new(self.dim);
        Self::scatter(&batch.targets, &dx_targets, &mut grads);
        Self::scatter(&batch.hop1, &dx_hop1, &mut grads);
        Self::scatter(&batch.hop2_targets, &dx_hop2_t, &mut grads);
        Self::scatter(&batch.hop2_hop1, &dx_hop2_h1, &mut grads);
        (loss, grads)
    }

    fn evaluate(&self, batch: &GnnBatch, embeddings: &EmbeddingStore) -> EvalChunk {
        let logits = self.logits_inference(batch, embeddings);
        // Per-example correctness as the "score"; accuracy = mean score.
        let mut scores = Vec::with_capacity(batch.len());
        for i in 0..batch.len() {
            let row = logits.row(i);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(c, _)| c)
                .unwrap_or(0);
            scores.push(if pred == batch.labels[i] { 1.0 } else { 0.0 });
        }
        let _ = accuracy(&logits, &batch.labels); // sanity: same definition
        EvalChunk {
            scores,
            labels: batch.labels.iter().map(|&l| l as f32).collect(),
        }
    }

    fn metric_kind(&self) -> MetricKind {
        MetricKind::Accuracy
    }

    fn flops_per_batch(&self, n: usize) -> f64 {
        // Layer 1 runs over n·(1 + fanout1) rows; approximate fanout1 ≈ 10.
        let l1_rows = n * 11;
        self.layer1.flops(l1_rows) + self.layer2.flops(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_data::{Graph, GraphConfig, NeighborSampler};
    use het_rng::rngs::StdRng;
    use het_rng::SeedableRng;
    use het_tensor::Sgd;

    fn setup() -> (Graph, NeighborSampler) {
        (
            Graph::generate(GraphConfig::tiny(7)),
            NeighborSampler::new(4, 3),
        )
    }

    fn resolve(batch: &GnnBatch, dim: usize) -> EmbeddingStore {
        let mut store = EmbeddingStore::new(dim);
        for k in batch.unique_keys() {
            let v: Vec<f32> = (0..dim)
                .map(|i| {
                    let h = k
                        .wrapping_mul(0x94D049BB133111EB)
                        .wrapping_add(i as u64 * 3);
                    ((h % 983) as f32 / 983.0 - 0.5) * 0.3
                })
                .collect();
            store.insert(k, v);
        }
        store
    }

    #[test]
    fn group_mean_and_backward_are_adjoint() {
        let m = Matrix::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mean = GraphSage::group_mean(&m, 2);
        assert_eq!(mean.row(0), &[2.0, 3.0]);
        assert_eq!(mean.row(1), &[6.0, 7.0]);
        let d = Matrix::from_vec(2, 2, vec![2.0, 2.0, 4.0, 4.0]);
        let back = GraphSage::group_mean_backward(&d, 2);
        assert_eq!(back.row(0), &[1.0, 1.0]);
        assert_eq!(back.row(3), &[2.0, 2.0]);
    }

    #[test]
    fn forward_backward_covers_all_batch_nodes() {
        let (g, s) = setup();
        let batch = s.train_batch(&g, 0, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = GraphSage::new(&mut rng, 8, 16, g.config().n_classes);
        let store = resolve(&batch, 8);
        let (loss, grads) = model.forward_backward(&batch, &store);
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(grads.len(), batch.unique_keys().len());
    }

    #[test]
    fn loss_decreases_under_training() {
        let (g, s) = setup();
        let batch = s.train_batch(&g, 0, 32);
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = GraphSage::new(&mut rng, 8, 16, g.config().n_classes);
        let store = resolve(&batch, 8);
        let sgd = Sgd::new(0.1);
        let (first, _) = model.forward_backward(&batch, &store);
        sgd.step(&mut model);
        let mut last = first;
        for _ in 0..40 {
            let (l, _) = model.forward_backward(&batch, &store);
            sgd.step(&mut model);
            last = l;
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn embedding_gradient_matches_finite_difference() {
        let (g, s) = setup();
        let batch = s.train_batch(&g, 1, 4);
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = GraphSage::new(&mut rng, 4, 8, g.config().n_classes);
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
        let lp = softmax_cross_entropy(&model.logits_inference(&batch, &store), &batch.labels).0;

        let mut m = orig.clone();
        m[comp] -= eps;
        store.insert(key, m);
        let lm = softmax_cross_entropy(&model.logits_inference(&batch, &store), &batch.labels).0;

        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grads.get(key).unwrap()[comp];
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn evaluate_scores_are_binary() {
        let (g, s) = setup();
        let batch = s.test_batch(&g, 0, 16);
        let mut rng = StdRng::seed_from_u64(5);
        let model = GraphSage::new(&mut rng, 8, 16, g.config().n_classes);
        let store = resolve(&batch, 8);
        let chunk = model.evaluate(&batch, &store);
        assert_eq!(chunk.scores.len(), 16);
        assert!(chunk.scores.iter().all(|&s| s == 0.0 || s == 1.0));
        assert_eq!(model.metric_kind(), MetricKind::Accuracy);
        assert!(model.flops_per_batch(32) > 0.0);
    }
}
