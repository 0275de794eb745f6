//! Synthetic workload generators for the HET reproduction.
//!
//! The paper evaluates on Criteo (CTR prediction) and three large graphs
//! (Reddit, Amazon, ogbn-mag). Those datasets are not available here, so
//! this crate generates synthetic equivalents that preserve the two
//! properties every HET experiment depends on:
//!
//! 1. **Skewed key popularity** (paper Fig. 3): categorical features are
//!    drawn from Zipf distributions, graphs from preferential attachment,
//!    so a small fraction of embeddings receives most updates.
//! 2. **Learnability**: labels are generated from a planted ground-truth
//!    model (logistic weights for CTR, homophilous communities for
//!    graphs), so AUC/accuracy rises during training and "time to reach a
//!    quality threshold" — the paper's main metric — is well defined.
//!
//! Both generators are deterministic functions of `(seed, index)`, so a
//! dataset is O(1) memory no matter how many examples the trainer draws,
//! and every simulated worker sees a disjoint shard by striding.

#![warn(missing_docs)]

pub mod ctr;
pub mod graph;
pub mod metrics;
pub mod ranked;
pub mod topk;
pub mod zipf;

pub use ctr::{CtrBatch, CtrConfig, CtrDataset};
pub use graph::{GnnBatch, Graph, GraphConfig, NeighborSampler};
pub use metrics::{auc, log_loss, LatencyHistogram};
pub use ranked::Ranked;
pub use topk::SpaceSaving;
pub use zipf::ZipfSampler;

/// An embedding key: a feature ID in the global embedding table.
pub type Key = u64;
