//! # HET — cache-enabled distributed framework for huge embedding models
//!
//! A from-scratch Rust reproduction of *"HET: Scaling out Huge Embedding
//! Model Training via Cache-enabled Distributed Framework"* (Miao, Zhang,
//! Shi, Nie, Yang, Tao, Cui — PVLDB 15(2), 2022).
//!
//! HET accelerates data-parallel training of models dominated by huge
//! embedding tables by giving every worker a **cache of hot embeddings**
//! governed by a **per-embedding clock-bounded consistency model** that
//! tolerates staleness on *both reads and writes*. This crate is the
//! one-stop facade: it re-exports the whole stack.
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | simulation | [`simnet`] | simulated links, collectives, byte accounting |
//! | math | [`tensor`] | matrices, layers, losses, SGD |
//! | workloads | [`data`] | Zipf CTR streams, power-law graphs, metrics |
//! | substrate | [`ps`] | sharded versioned embedding parameter server |
//! | substrate | [`cache`] | the cache table, clocks, LRU/LFU/LightLFU |
//! | runtime | [`runtime`] | the cluster event loop: processes, faults, clocks |
//! | framework | [`core`] | HET client, consistency model, trainer |
//! | models | [`models`] | WDL, DeepFM, DCN, GraphSAGE |
//! | serving | [`serve`] | online inference replicas over the cached store |
//! | observability | [`trace`] | deterministic structured event traces |
//!
//! ## Quickstart
//!
//! ```
//! use het::prelude::*;
//!
//! // A small Criteo-like CTR workload.
//! let dataset = CtrDataset::new(CtrConfig::tiny(42));
//! // Full HET: hybrid architecture + cache, staleness s = 10.
//! let config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
//! let mut trainer = Trainer::new(config, dataset, |rng| {
//!     WideDeep::new(rng, 4, 8, &[16])
//! });
//! let report = trainer.run();
//! println!(
//!     "{}: {:.3} metric after {} iterations, {:.1}% comm reduction possible",
//!     report.system, report.final_metric, report.total_iterations,
//!     100.0 * report.cache.hit_rate()
//! );
//! ```

#![warn(missing_docs)]

pub use het_cache as cache;
pub use het_core as core;
pub use het_data as data;
pub use het_json as json;
pub use het_models as models;
pub use het_ps as ps;
pub use het_runtime as runtime;
pub use het_serve as serve;
pub use het_simnet as simnet;
pub use het_tensor as tensor;
pub use het_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use het_cache::{CacheStats, PolicyKind};
    pub use het_core::config::{
        Backbone, DenseSync, SparseMode, StoreSpec, SyncMode, SystemConfig, SystemPreset,
        TieredConfig, TrainerConfig,
    };
    pub use het_core::{
        FaultRecord, FaultStats, HetClient, PrefetchAudit, PrefetchSummary, Prefetcher,
        StoreSummary, TrainReport, Trainer,
    };
    pub use het_data::{
        auc, CtrBatch, CtrConfig, CtrDataset, GnnBatch, Graph, GraphConfig, Key, NeighborSampler,
        ZipfSampler,
    };
    pub use het_models::{
        Dataset, DeepCross, DeepFm, EmbeddingModel, EmbeddingStore, GnnDataset, GraphSage,
        MetricKind, SparseGrads, WideDeep,
    };
    pub use het_ps::{
        CheckpointRow, FailoverOutcome, PsConfig, PsServer, ServerOptimizer, ShardCheckpointStore,
    };
    pub use het_runtime::{ClusterRuntime, Ctx, Event, ExecutionBackend, Process, ProcessId};
    pub use het_serve::{
        run_chaos, run_colocated, run_threaded_colocated, run_threaded_serve, AutoscaleConfig,
        ChaosConfig, ChaosReport, ColocatedReport, ReshardPlan, ServeConfig, ServeReport, ServeSim,
        SupervisionConfig,
    };
    pub use het_simnet::{
        ClusterSpec, CommCategory, CommStats, FaultEvent, FaultPlan, FaultSpec, LinkSpec,
        SimDuration, SimTime,
    };
}
