//! Embedding models on top of `het-tensor`, matching the paper's
//! workloads (§5): Wide&Deep (WDL), DeepFM (DFM), Deep&Cross (DCN) on
//! CTR data, and GraphSAGE on graphs.
//!
//! Models are deliberately split from embedding *storage*: a model never
//! owns the embedding table. The trainer resolves the batch's unique keys
//! through HET (cache + server) into an [`EmbeddingStore`], calls
//! [`EmbeddingModel::forward_backward`], and routes the returned
//! [`SparseGrads`] back through `Het.Write`. Dense parameters live inside
//! the model replica and are synchronised by AllReduce or a dense PS —
//! exactly the paper's hybrid decomposition (§3, Fig. 4).

#![warn(missing_docs)]

pub mod ctr_common;
pub mod dataset;
pub mod dcn;
pub mod dfm;
pub mod sage;
pub mod store;
pub mod wdl;

pub use dataset::{Dataset, GnnDataset};
pub use dcn::DeepCross;
pub use dfm::DeepFm;
pub use sage::GraphSage;
pub use store::{EmbeddingStore, SparseGrads};
pub use wdl::WideDeep;

use het_data::Key;
use het_tensor::HasParams;

/// How a workload's quality is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// ROC AUC over probability scores (CTR workloads; paper uses ~0.80
    /// thresholds on Criteo).
    Auc,
    /// Classification accuracy (GNN workloads; the paper sets manual
    /// thresholds).
    Accuracy,
}

/// Per-example evaluation output: a score and a {0,1} label. For AUC the
/// score is the predicted probability; for accuracy it is 1.0 iff the
/// prediction was correct (label unused).
#[derive(Clone, Debug, Default)]
pub struct EvalChunk {
    /// Model scores, one per example.
    pub scores: Vec<f32>,
    /// Ground-truth labels, one per example.
    pub labels: Vec<f32>,
}

impl EvalChunk {
    /// Appends another chunk.
    pub fn extend(&mut self, other: EvalChunk) {
        self.scores.extend(other.scores);
        self.labels.extend(other.labels);
    }

    /// Reduces the chunk under a metric kind.
    pub fn metric(&self, kind: MetricKind) -> f64 {
        match kind {
            MetricKind::Auc => het_data::auc(&self.scores, &self.labels),
            MetricKind::Accuracy => {
                if self.scores.is_empty() {
                    0.0
                } else {
                    self.scores.iter().map(|&s| s as f64).sum::<f64>() / self.scores.len() as f64
                }
            }
        }
    }
}

/// A mini-batch an embedding model can consume. `Send`: a trainer may
/// sample a batch on one thread and compute on it on another.
pub trait ModelBatch: Send {
    /// Sorted, deduplicated embedding keys the batch touches.
    fn unique_keys(&self) -> Vec<Key>;
    /// Number of examples.
    fn n_examples(&self) -> usize;
}

impl ModelBatch for het_data::CtrBatch {
    fn unique_keys(&self) -> Vec<Key> {
        het_data::CtrBatch::unique_keys(self)
    }
    fn n_examples(&self) -> usize {
        self.len()
    }
}

impl ModelBatch for het_data::GnnBatch {
    fn unique_keys(&self) -> Vec<Key> {
        het_data::GnnBatch::unique_keys(self)
    }
    fn n_examples(&self) -> usize {
        self.len()
    }
}

/// An embedding model: dense parameters inside, embeddings outside.
pub trait EmbeddingModel: HasParams + Send {
    /// The batch type this model trains on.
    type Batch: ModelBatch;

    /// Embedding dimension D.
    fn embedding_dim(&self) -> usize;

    /// Full forward + backward on one batch. Dense gradients accumulate
    /// inside the model (read back via `visit_params`/`FlatGrads`); the
    /// sparse embedding gradients are returned for `Het.Write`.
    /// Returns `(mean loss, sparse gradients)`.
    fn forward_backward(
        &mut self,
        batch: &Self::Batch,
        embeddings: &EmbeddingStore,
    ) -> (f32, SparseGrads);

    /// Inference-only evaluation of one batch.
    fn evaluate(&self, batch: &Self::Batch, embeddings: &EmbeddingStore) -> EvalChunk;

    /// Which metric `EvalChunk`s should be reduced under.
    fn metric_kind(&self) -> MetricKind;

    /// Estimated forward+backward FLOPs for a batch of `n` examples
    /// (drives the simulated compute-time model).
    fn flops_per_batch(&self, n: usize) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_chunk_auc_reduction() {
        let chunk = EvalChunk {
            scores: vec![0.9, 0.8, 0.2, 0.1],
            labels: vec![1.0, 1.0, 0.0, 0.0],
        };
        assert!((chunk.metric(MetricKind::Auc) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eval_chunk_accuracy_reduction() {
        let chunk = EvalChunk {
            scores: vec![1.0, 0.0, 1.0, 1.0],
            labels: vec![0.0; 4],
        };
        assert!((chunk.metric(MetricKind::Accuracy) - 0.75).abs() < 1e-12);
        let empty = EvalChunk::default();
        assert_eq!(empty.metric(MetricKind::Accuracy), 0.0);
    }

    #[test]
    fn eval_chunk_extend_concatenates() {
        let mut a = EvalChunk {
            scores: vec![1.0],
            labels: vec![1.0],
        };
        let b = EvalChunk {
            scores: vec![0.0, 0.5],
            labels: vec![0.0, 1.0],
        };
        a.extend(b);
        assert_eq!(a.scores, vec![1.0, 0.0, 0.5]);
        assert_eq!(a.labels, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn model_batch_impls_agree_with_inherent_methods() {
        let batch = het_data::CtrBatch {
            keys: vec![3, 1, 3, 2],
            labels: vec![0.0, 1.0],
            n_fields: 2,
        };
        assert_eq!(ModelBatch::unique_keys(&batch), vec![1, 2, 3]);
        assert_eq!(ModelBatch::n_examples(&batch), 2);
    }
}
