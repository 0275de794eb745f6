//! System and trainer configuration, including the paper's six evaluated
//! system presets.

use het_cache::PolicyKind;
pub use het_ps::{StoreSpec, TieredConfig};
use het_simnet::{ClusterSpec, FaultSpec, TieBreak};

/// How dense (non-embedding) parameters are synchronised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenseSync {
    /// Dense parameters live on the parameter server; workers push
    /// gradients and pull fresh parameters every iteration (TF PS,
    /// HET PS).
    Ps,
    /// Dense gradients are ring-AllReduced between workers every
    /// iteration (the hybrid systems and HET AR).
    AllReduce,
}

impl std::fmt::Display for DenseSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DenseSync::Ps => "ps",
            DenseSync::AllReduce => "allreduce",
        })
    }
}

impl std::str::FromStr for DenseSync {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ps" => Ok(DenseSync::Ps),
            "allreduce" => Ok(DenseSync::AllReduce),
            _ => Err(format!("unknown dense sync '{s}' (try: ps allreduce)")),
        }
    }
}

/// How sparse (embedding) parameters are handled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SparseMode {
    /// Pull the batch's embeddings from the PS at read, push gradients at
    /// write, every iteration (TF PS, HET PS, TF Parallax, HET Hybrid).
    PsDirect,
    /// Every worker holds a full replica of the embedding table; sparse
    /// gradients are AllGathered between workers each round (HET AR —
    /// the paper's §2.3 note that AllReduce degenerates to AllGather for
    /// sparse data; memory-restricted like HugeCTR).
    AllGather,
    /// The paper's contribution: a per-worker cache with per-embedding
    /// clock-bounded consistency and stale writes.
    Cached {
        /// Staleness threshold `s` of `CheckValid`.
        staleness: u64,
        /// Cache capacity as a fraction of the total key space (the
        /// paper's §5.1 default is 0.10).
        capacity_fraction: f64,
        /// Eviction policy (§4.3; the paper's default is its light LFU).
        policy: PolicyKind,
    },
}

/// Worker synchronisation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Bulk-synchronous rounds with a barrier per iteration.
    Bsp,
    /// Fully asynchronous free-running workers.
    Asp,
    /// Stale Synchronous Parallel with a *worker-clock* bound — the
    /// conventional consistency model the paper contrasts with (§2.1,
    /// §3.4). Workers may run at most `staleness` iterations ahead of the
    /// slowest worker.
    Ssp {
        /// Maximum iteration lead over the slowest worker.
        staleness: u64,
    },
}

impl std::fmt::Display for SyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncMode::Bsp => f.write_str("bsp"),
            SyncMode::Asp => f.write_str("asp"),
            SyncMode::Ssp { staleness } => write!(f, "ssp:{staleness}"),
        }
    }
}

impl std::str::FromStr for SyncMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "bsp" => Ok(SyncMode::Bsp),
            "asp" => Ok(SyncMode::Asp),
            _ => s
                .strip_prefix("ssp:")
                .and_then(|n| n.parse().ok())
                .map(|staleness| SyncMode::Ssp { staleness })
                .ok_or_else(|| format!("unknown sync mode '{s}' (try: bsp asp ssp:<staleness>)")),
        }
    }
}

/// Backbone/runtime quality knobs. The paper attributes the gap between
/// TF-based and HET-based variants of the *same* architecture entirely to
/// backbone optimisations (§5.1): computation/communication overlap
/// (§4.1), message fusion and pre-fetching (§4.2), and kernel efficiency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Backbone {
    /// Overlap sparse communication with computation: iteration time is
    /// `max(compute, sparse_comm)` instead of their sum (§4.1).
    pub overlap: bool,
    /// Fuse per-key pulls/pushes/clock checks into one message per
    /// protocol step (§4.2); without it every key pays a header.
    pub fuse_messages: bool,
    /// Multiplier on compute time (>1 models a less efficient kernel
    /// stack).
    pub compute_factor: f64,
}

impl Backbone {
    /// The HET runtime: overlapping, fused messages, efficient kernels.
    pub fn het() -> Self {
        Backbone {
            overlap: true,
            fuse_messages: true,
            compute_factor: 1.0,
        }
    }

    /// The TensorFlow 1.15 baseline runtime as characterised in §5.1
    /// (no overlap, no message fusion, slower kernels).
    pub fn tensorflow() -> Self {
        Backbone {
            overlap: false,
            fuse_messages: false,
            compute_factor: 1.5,
        }
    }
}

/// A complete system description (architecture × consistency × backbone).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Human-readable name used in reports and benches.
    pub name: &'static str,
    /// Dense parameter path.
    pub dense: DenseSync,
    /// Sparse embedding path.
    pub sparse: SparseMode,
    /// Worker synchronisation.
    pub sync: SyncMode,
    /// Runtime quality.
    pub backbone: Backbone,
}

impl SystemConfig {
    /// Refuses a pairing that would silently mis-train. ASP and SSP
    /// workers step on their own and never meet in a round, so a dense
    /// AllReduce would never sync their dense parameters and a sparse
    /// AllGather would drop every sparse gradient: both need `bsp`.
    /// The error names the fields.
    pub fn validate(&self) -> Result<(), String> {
        if self.sync == SyncMode::Bsp {
            return Ok(());
        }
        let mut collectives = Vec::new();
        if self.dense == DenseSync::AllReduce {
            collectives.push("dense allreduce");
        }
        if self.sparse == SparseMode::AllGather {
            collectives.push("sparse allgather");
        }
        if collectives.is_empty() {
            return Ok(());
        }
        Err(format!(
            "sync {} cannot run {}: only bsp workers meet in a round",
            self.sync,
            collectives.join(" or ")
        ))
    }
}

/// The six systems of the paper's evaluation (§5), plus SSP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SystemPreset {
    /// TensorFlow parameter server, ASP.
    TfPs,
    /// Parallax-style hybrid (PS for sparse, AllReduce for dense) on the
    /// TF backbone, BSP.
    TfParallax,
    /// HET's backbone with a plain PS architecture, ASP.
    HetPs,
    /// HET's backbone with AllReduce/AllGather for everything, BSP.
    HetAr,
    /// HET's hybrid architecture without the cache, BSP.
    HetHybrid,
    /// Full HET: hybrid + cache with staleness `s`, BSP rounds.
    HetCache {
        /// The staleness threshold `s`.
        staleness: u64,
    },
    /// Conventional SSP over the PS architecture (comparison baseline).
    Ssp {
        /// Worker-clock staleness bound.
        staleness: u64,
    },
}

impl SystemPreset {
    /// The seven presets, in the paper's order, with staleness 0.
    pub const ALL: [SystemPreset; 7] = [
        SystemPreset::TfPs,
        SystemPreset::TfParallax,
        SystemPreset::HetPs,
        SystemPreset::HetAr,
        SystemPreset::HetHybrid,
        SystemPreset::HetCache { staleness: 0 },
        SystemPreset::Ssp { staleness: 0 },
    ];

    /// The preset with its staleness bound set to `staleness` (a no-op
    /// on the presets without one).
    pub fn with_staleness(self, staleness: u64) -> Self {
        match self {
            SystemPreset::HetCache { .. } => SystemPreset::HetCache { staleness },
            SystemPreset::Ssp { .. } => SystemPreset::Ssp { staleness },
            other => other,
        }
    }

    /// Materialises the preset with default cache parameters
    /// (capacity 10 % of the key space, light LFU — the paper's §5.1
    /// setup).
    pub fn config(self) -> SystemConfig {
        match self {
            SystemPreset::TfPs => SystemConfig {
                name: "TF PS",
                dense: DenseSync::Ps,
                sparse: SparseMode::PsDirect,
                sync: SyncMode::Asp,
                backbone: Backbone::tensorflow(),
            },
            SystemPreset::TfParallax => SystemConfig {
                name: "TF Parallax",
                dense: DenseSync::AllReduce,
                sparse: SparseMode::PsDirect,
                sync: SyncMode::Bsp,
                backbone: Backbone::tensorflow(),
            },
            SystemPreset::HetPs => SystemConfig {
                name: "HET PS",
                dense: DenseSync::Ps,
                sparse: SparseMode::PsDirect,
                sync: SyncMode::Asp,
                backbone: Backbone::het(),
            },
            SystemPreset::HetAr => SystemConfig {
                name: "HET AR",
                dense: DenseSync::AllReduce,
                sparse: SparseMode::AllGather,
                sync: SyncMode::Bsp,
                backbone: Backbone::het(),
            },
            SystemPreset::HetHybrid => SystemConfig {
                name: "HET Hybrid",
                dense: DenseSync::AllReduce,
                sparse: SparseMode::PsDirect,
                sync: SyncMode::Bsp,
                backbone: Backbone::het(),
            },
            SystemPreset::HetCache { staleness } => SystemConfig {
                name: "HET Cache",
                dense: DenseSync::AllReduce,
                sparse: SparseMode::Cached {
                    staleness,
                    capacity_fraction: 0.10,
                    policy: PolicyKind::light_lfu(),
                },
                sync: SyncMode::Bsp,
                backbone: Backbone::het(),
            },
            SystemPreset::Ssp { staleness } => SystemConfig {
                name: "SSP",
                dense: DenseSync::Ps,
                sparse: SparseMode::PsDirect,
                sync: SyncMode::Ssp { staleness },
                backbone: Backbone::het(),
            },
        }
    }
}

/// The report name lower-cased and hyphenated (`HET Cache` is
/// `het-cache`). The staleness bound is not part of the spelling, so
/// [`str::parse`] gives staleness 0 and a caller that reads it
/// separately sets it with [`SystemPreset::with_staleness`].
impl std::fmt::Display for SystemPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.config().name.to_lowercase().replace(' ', "-"))
    }
}

impl std::str::FromStr for SystemPreset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|p| p.to_string() == s)
            .ok_or_else(|| {
                let names = Self::ALL.map(|p| p.to_string()).join(" ");
                format!("unknown system '{s}' (try: {names})")
            })
    }
}

/// Everything a training run needs besides the dataset and model.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Cluster shape and link speeds.
    pub cluster: ClusterSpec,
    /// Mini-batch size per worker (paper: 128).
    pub batch_size: usize,
    /// Embedding dimension D.
    pub dim: usize,
    /// Learning rate (shared by workers and the server).
    pub lr: f32,
    /// Hard cap on total iterations summed over workers.
    pub max_iterations: u64,
    /// Evaluate every this many global iterations.
    pub eval_every: u64,
    /// Number of test batches per evaluation.
    pub eval_batches: usize,
    /// Stop as soon as the metric reaches this value (the paper's
    /// convergence-threshold methodology).
    pub target_metric: Option<f64>,
    /// L2 clip applied by the server to each pushed (possibly
    /// accumulated) embedding gradient; `None` disables. Stabilises
    /// models with multiplicative interaction terms under large
    /// staleness (see `het_ps::PsConfig::grad_clip`).
    pub server_grad_clip: Option<f32>,
    /// Master seed: model init, worker data order.
    pub seed: u64,
    /// Deterministic fault injection (crashes, outages, stragglers,
    /// degraded links, message drops); the trainer supplies the cluster
    /// shape. The zero spec (the default) is injection off, and a run
    /// with an empty schedule is bit-identical to it.
    pub faults: FaultSpec,
    /// Take a full PS checkpoint every this many global iterations
    /// (0 = only the initial one) when the fault plan has a shard
    /// outage. A failover restores the last checkpoint; everything
    /// since is lost and accounted.
    pub checkpoint_every: u64,
    /// Same-time ordering rule for the async event queue (ASP/SSP).
    /// `Fifo` preserves the historical schedule; the oracle fuzzer
    /// sweeps the other rules to explore adversarial interleavings.
    pub tie_break: TieBreak,
    /// Deliberate consistency-protocol sabotage: widens every cache
    /// client's admitted staleness bound by this much *without*
    /// updating the oracle's model. Zero (the default) is a strict
    /// no-op. Only the oracle's self-tests set this — it exists to
    /// prove the checker catches a broken `CheckValid`.
    pub sabotage_extra_staleness: u64,
    /// Lookahead prefetch depth in batches (§4.2's pre-fetching, made
    /// exact by the deterministic data cursor): each worker's next
    /// `lookahead_depth` batches have their deduped key sets pulled
    /// concurrently with the current compute span and installed into
    /// the cache before the read that needs them. `0` (the default)
    /// disables the prefetcher entirely and reproduces the legacy path
    /// byte-for-byte. Only meaningful under `SparseMode::Cached`.
    pub lookahead_depth: u64,
    /// Row-store backend for every PS shard. [`StoreSpec::Mem`] (the
    /// default) is the flat in-memory table and reproduces the legacy
    /// simulation byte-for-byte; [`StoreSpec::Tiered`] bounds resident
    /// rows per the spec's hot budget and spills the rest to a modelled
    /// cold tier whose disk time flows into the simulated clocks.
    pub store: StoreSpec,
}

impl TrainerConfig {
    /// The paper's cluster-A style default: 8 workers, 1 server, 1 GbE.
    pub fn cluster_a(system: SystemPreset) -> Self {
        TrainerConfig {
            system: system.config(),
            cluster: ClusterSpec::cluster_a(8, 1),
            batch_size: 128,
            dim: 16,
            lr: 0.05,
            max_iterations: 20_000,
            eval_every: 500,
            eval_batches: 8,
            target_metric: None,
            server_grad_clip: Some(1.0),
            seed: 0xBEEF,
            faults: FaultSpec::default(),
            checkpoint_every: 50,
            tie_break: TieBreak::Fifo,
            sabotage_extra_staleness: 0,
            lookahead_depth: 0,
            store: StoreSpec::Mem,
        }
    }

    /// A fast configuration for unit/integration tests: 4 workers, tiny
    /// batches.
    pub fn tiny(system: SystemPreset) -> Self {
        TrainerConfig {
            system: system.config(),
            cluster: ClusterSpec::cluster_a(4, 1),
            batch_size: 16,
            dim: 8,
            lr: 0.05,
            max_iterations: 200,
            eval_every: 50,
            eval_batches: 4,
            target_metric: None,
            server_grad_clip: Some(1.0),
            seed: 0xBEEF,
            faults: FaultSpec::default(),
            checkpoint_every: 50,
            tie_break: TieBreak::Fifo,
            sabotage_extra_staleness: 0,
            lookahead_depth: 0,
            store: StoreSpec::Mem,
        }
    }

    /// Overrides the cache fraction/policy when the system is cached;
    /// no-op otherwise.
    pub fn with_cache(mut self, capacity_fraction: f64, policy: het_cache::PolicyKind) -> Self {
        if let SparseMode::Cached { staleness, .. } = self.system.sparse {
            self.system.sparse = SparseMode::Cached {
                staleness,
                capacity_fraction,
                policy,
            };
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_architecture_table() {
        let tf_ps = SystemPreset::TfPs.config();
        assert_eq!(tf_ps.dense, DenseSync::Ps);
        assert_eq!(tf_ps.sync, SyncMode::Asp);
        assert!(!tf_ps.backbone.overlap);

        let parallax = SystemPreset::TfParallax.config();
        assert_eq!(parallax.dense, DenseSync::AllReduce);
        assert_eq!(parallax.sparse, SparseMode::PsDirect);

        let het_ar = SystemPreset::HetAr.config();
        assert_eq!(het_ar.sparse, SparseMode::AllGather);

        let hybrid = SystemPreset::HetHybrid.config();
        assert_eq!(hybrid.sparse, SparseMode::PsDirect);
        assert!(hybrid.backbone.overlap);

        let cache = SystemPreset::HetCache { staleness: 100 }.config();
        match cache.sparse {
            SparseMode::Cached {
                staleness,
                capacity_fraction,
                ..
            } => {
                assert_eq!(staleness, 100);
                assert!((capacity_fraction - 0.10).abs() < 1e-12);
            }
            other => panic!("expected cached sparse mode, got {other:?}"),
        }
    }

    #[test]
    fn ssp_preset_bounds_worker_clocks() {
        let ssp = SystemPreset::Ssp { staleness: 3 }.config();
        assert_eq!(ssp.sync, SyncMode::Ssp { staleness: 3 });
    }

    #[test]
    fn with_cache_overrides_only_cached_systems() {
        let cfg = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 5 })
            .with_cache(0.25, PolicyKind::Lru);
        match cfg.system.sparse {
            SparseMode::Cached {
                capacity_fraction,
                policy,
                staleness,
            } => {
                assert_eq!(staleness, 5);
                assert!((capacity_fraction - 0.25).abs() < 1e-12);
                assert_eq!(policy, PolicyKind::Lru);
            }
            other => panic!("unexpected {other:?}"),
        }
        let untouched = TrainerConfig::tiny(SystemPreset::TfPs).with_cache(0.25, PolicyKind::Lru);
        assert_eq!(untouched.system.sparse, SparseMode::PsDirect);
    }

    #[test]
    fn async_sync_modes_refuse_round_collectives() {
        for preset in SystemPreset::ALL {
            assert_eq!(preset.config().validate(), Ok(()), "{preset}");
        }
        let mut het_ar = SystemPreset::HetAr.config();
        het_ar.sync = SyncMode::Ssp { staleness: 2 };
        let err = het_ar.validate().unwrap_err();
        assert!(
            err.contains("sync ssp:2") && err.contains("dense allreduce or sparse allgather"),
            "{err}"
        );
        let mut hybrid = SystemPreset::HetHybrid.config();
        hybrid.sync = SyncMode::Asp;
        let err = hybrid.validate().unwrap_err();
        assert!(
            err.contains("sync asp cannot run dense allreduce:"),
            "{err}"
        );
        hybrid.dense = DenseSync::Ps;
        assert_eq!(hybrid.validate(), Ok(()));
    }

    #[test]
    fn spellings_read_back_to_the_same_value() {
        for sync in [SyncMode::Bsp, SyncMode::Asp, SyncMode::Ssp { staleness: 3 }] {
            assert_eq!(sync.to_string().parse(), Ok(sync), "{sync}");
        }
        for dense in [DenseSync::Ps, DenseSync::AllReduce] {
            assert_eq!(dense.to_string().parse(), Ok(dense), "{dense}");
        }
        for preset in SystemPreset::ALL {
            assert_eq!(preset.to_string().parse(), Ok(preset), "{preset}");
            let bounded = preset.with_staleness(7);
            let back = bounded
                .to_string()
                .parse()
                .map(|p: SystemPreset| p.with_staleness(7));
            assert_eq!(back, Ok(bounded), "{preset}");
        }
        for bad in ["ssp", "ssp:x", "BSP"] {
            assert!(bad.parse::<SyncMode>().is_err(), "{bad}");
        }
        assert!("all-reduce".parse::<DenseSync>().is_err());
        for bad in ["het_cache", "ssp:3", ""] {
            assert!(bad.parse::<SystemPreset>().is_err(), "{bad}");
        }
    }

    #[test]
    fn backbone_presets_differ() {
        assert!(Backbone::het().overlap);
        assert!(!Backbone::tensorflow().overlap);
        assert!(Backbone::tensorflow().compute_factor > Backbone::het().compute_factor);
    }
}
