//! HET: the cache-enabled distributed embedding-training framework.
//!
//! This crate is the paper's contribution (Miao et al., PVLDB 15(2),
//! 2021): a client-side embedding cache with **per-embedding
//! clock-bounded consistency** that allows staleness for both reads and
//! writes, layered over a hybrid communication architecture (parameter
//! server for sparse embeddings, AllReduce for dense parameters).
//!
//! The pieces:
//!
//! * [`client`] — the HET client implementing the paper's Algorithms 1–3
//!   (`Read`, `Write`, `Fetch`, `Evict`, `CheckValid`) with wire-accurate
//!   communication accounting;
//! * [`config`] — system presets matching the paper's six evaluated
//!   systems (TF PS, TF Parallax, HET PS, HET AR, HET Hybrid, HET Cache)
//!   plus SSP for the conventional-consistency comparison;
//! * [`trainer`] — the discrete-event cluster simulation that trains real
//!   models (from `het-models`) across N simulated workers, producing
//!   convergence curves in simulated time;
//! * [`report`] — what an experiment returns: convergence curve, time
//!   breakdown, communication and cache statistics.
//!
//! # Quick example
//!
//! ```
//! use het_core::config::{SystemPreset, TrainerConfig};
//! use het_core::trainer::Trainer;
//! use het_data::{CtrConfig, CtrDataset};
//! use het_models::WideDeep;
//!
//! let dataset = CtrDataset::new(CtrConfig::tiny(7));
//! let config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
//! let mut trainer = Trainer::new(config, dataset, |rng| {
//!     WideDeep::new(rng, 4, 8, &[16])
//! });
//! let report = trainer.run();
//! assert!(report.total_iterations > 0);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod consistency;
pub mod fault;
pub mod prefetch;
pub mod report;
pub mod retry;
pub mod trainer;

pub use client::HetClient;
pub use config::{
    Backbone, DenseSync, SparseMode, StoreSpec, SyncMode, SystemConfig, SystemPreset, TieredConfig,
    TrainerConfig,
};
pub use fault::{FaultConfig, FaultRecord, FaultStats};
pub use prefetch::{PrefetchAudit, PrefetchSummary, Prefetcher};
pub use report::{ConvergencePoint, StoreSummary, TimeBreakdown, TrainReport};
pub use retry::RetryPolicy;
pub use trainer::Trainer;
