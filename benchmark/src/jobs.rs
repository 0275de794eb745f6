//! The five workloads' jobs, built from the public `het` facade only.
//!
//! Every size here is a *count* (iterations, requests), never a
//! duration, so the modelled numbers and every sim output repeat exactly
//! for a given `--seed`. The counts themselves live in
//! `driver::Sizes`.

use het::prelude::*;
use het::serve::ServeConfig;
use het_rng::rngs::StdRng;
use het_rng::SplitMix64;
use std::sync::Mutex;
use std::time::Instant;

/// Threads every threaded workload runs on (one OS thread per worker /
/// replica). The runner refuses to start when `nproc` is lower.
pub const THREADS: usize = 2;

/// Mini-batch size of every training workload (the paper's 128).
pub const BATCH: usize = 128;

/// Test batches of the final evaluation: 2 048 held-out examples, so
/// the quality metric's sampling error stays near one point.
pub const EVAL_BATCHES: usize = 16;

/// Requests per serving micro-batch.
pub const SERVE_BATCH: usize = 8;

/// The named workloads. Later issues cite these names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WdlSim,
    GnnSim,
    GnnThreadsBsp,
    GnnThreadsAsp,
    ServeThreads,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WdlSim,
        Workload::GnnSim,
        Workload::GnnThreadsBsp,
        Workload::GnnThreadsAsp,
        Workload::ServeThreads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WdlSim => "wdl_sim",
            Workload::GnnSim => "gnn_sim",
            Workload::GnnThreadsBsp => "gnn_threads_bsp",
            Workload::GnnThreadsAsp => "gnn_threads_asp",
            Workload::ServeThreads => "serve_threads",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True when the timed call runs on OS threads.
    pub fn threaded(self) -> bool {
        !matches!(self, Workload::WdlSim | Workload::GnnSim)
    }
}

/// Derives an independent stream seed from the benchmark seed, so the
/// dataset, the trainer and the serving streams never alias.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A training job: everything `Trainer::new` needs, plus the numbers
/// the layer probes size themselves from.
pub trait TrainJob: Sync {
    type Model: EmbeddingModel<Batch = <Self::Data as Dataset>::Batch>;
    type Data: Dataset;

    fn config(&self) -> TrainerConfig;
    fn dataset(&self) -> Self::Data;
    fn model(&self, rng: &mut StdRng) -> Self::Model;
    /// `(m, k, n)` of the model's first dense layer at batch size.
    fn first_layer_shape(&self) -> (usize, usize, usize);
    /// The floor the final metric must clear for a rep to count.
    fn metric_floor(&self) -> f64;
}

/// Paper Fig. 2 recipe: WDL on the Criteo-shaped stream behind the HET
/// cache, cluster A (8 workers / 1 server).
pub struct WdlJob {
    pub seed: u64,
    pub iterations: u64,
    /// 8 in the recipe; the layer pass resizes to [`THREADS`] to compare
    /// the two schedulers on one job.
    pub workers: usize,
}

pub const WDL_FIELDS: usize = 26;
pub const WDL_DIM: usize = 32;
const WDL_HIDDEN: [usize; 2] = [64, 32];

impl TrainJob for WdlJob {
    type Model = WideDeep;
    type Data = CtrDataset;

    fn config(&self) -> TrainerConfig {
        let mut c = TrainerConfig::cluster_a(SystemPreset::HetCache { staleness: 100 })
            .with_cache(0.10, PolicyKind::light_lfu());
        c.cluster = ClusterSpec::cluster_a(self.workers, 1);
        c.batch_size = BATCH;
        c.dim = WDL_DIM;
        c.lr = 0.05;
        c.max_iterations = self.iterations;
        // One evaluation, at the end (`finalize` always evaluates).
        c.eval_every = u64::MAX;
        c.eval_batches = EVAL_BATCHES;
        c.seed = derive_seed(self.seed, 2);
        c
    }

    fn dataset(&self) -> CtrDataset {
        // `het_bench`'s `ctr_dataset` shape: 26 fields, the Criteo
        // vocabulary profile scaled to ~52 k keys, Zipf-skewed.
        let mut cfg = CtrConfig::criteo_like(derive_seed(self.seed, 1));
        cfg.vocab_sizes = Some(het::data::ctr::scaled_criteo_vocabs(WDL_FIELDS * 2_000));
        cfg.n_train = 50_000;
        cfg.n_test = 4_000;
        CtrDataset::new(cfg)
    }

    fn model(&self, rng: &mut StdRng) -> WideDeep {
        WideDeep::new(rng, WDL_FIELDS, WDL_DIM, &WDL_HIDDEN)
    }

    fn first_layer_shape(&self) -> (usize, usize, usize) {
        (BATCH, WDL_FIELDS * WDL_DIM, WDL_HIDDEN[0])
    }

    fn metric_floor(&self) -> f64 {
        // AUC after 720 iterations is 0.73 ± 0.012 over seeds; ISSUE 11's
        // 0.70 is 2.5 σ away and would fail a run in a hundred, so the
        // gate sits at 4 σ.
        0.68
    }
}

/// GraphSAGE on the Reddit-shaped graph, 2 workers / 1 server. The same
/// struct serves `gnn_sim`, `gnn_threads_bsp` (identical config, other
/// backend) and `gnn_threads_asp` (`HetPs`: no cache, dense PS, ASP).
pub struct GnnJob {
    pub seed: u64,
    pub iterations: u64,
    pub preset: SystemPreset,
}

pub const GNN_DIM: usize = 16;
const GNN_HIDDEN: usize = 32;
const GNN_NODES: usize = 40_000;
const GNN_FANOUT: (usize, usize) = (8, 4);

impl TrainJob for GnnJob {
    type Model = GraphSage;
    type Data = GnnDataset;

    fn config(&self) -> TrainerConfig {
        let mut c = TrainerConfig::cluster_a(self.preset);
        c.cluster = ClusterSpec::cluster_a(THREADS, 1);
        c.batch_size = BATCH;
        c.dim = GNN_DIM;
        c.lr = 0.6;
        c.max_iterations = self.iterations;
        c.eval_every = u64::MAX;
        c.eval_batches = EVAL_BATCHES;
        c.seed = derive_seed(self.seed, 2);
        c
    }

    fn dataset(&self) -> GnnDataset {
        let cfg = GraphConfig {
            n_nodes: GNN_NODES,
            attach_m: 15,
            ..GraphConfig::reddit_like(derive_seed(self.seed, 1))
        };
        GnnDataset::new(
            Graph::generate(cfg),
            NeighborSampler::degree_biased(GNN_FANOUT.0, GNN_FANOUT.1),
        )
    }

    fn model(&self, rng: &mut StdRng) -> GraphSage {
        // 16 classes: `GraphConfig::reddit_like`'s `n_classes`.
        GraphSage::new(rng, GNN_DIM, GNN_HIDDEN, 16)
    }

    fn first_layer_shape(&self) -> (usize, usize, usize) {
        // W1 runs once over the targets and their 8 hop-1 neighbours,
        // each row a node vector beside its neighbourhood mean.
        (BATCH * (1 + GNN_FANOUT.0), 2 * GNN_DIM, GNN_HIDDEN)
    }

    fn metric_floor(&self) -> f64 {
        // Accuracy over 16 classes: 0.65 ± 0.01 after 480 BSP iterations,
        // 0.80 ± 0.01 after 1 440 ASP ones.
        0.55
    }
}

/// The serving job: a read-only fleet over a pretrained PS.
pub struct ServeJob {
    pub seed: u64,
    pub requests: usize,
    pub pretrain_updates: u64,
    pub warmup_requests: usize,
}

pub const SERVE_FIELDS: usize = 8;
pub const SERVE_DIM: usize = 16;
const SERVE_HIDDEN: [usize; 1] = [32];

impl ServeJob {
    pub fn config(&self) -> ServeConfig {
        let mut c = ServeConfig::new(derive_seed(self.seed, 3));
        c.n_requests = self.requests;
        c.pretrain_updates = self.pretrain_updates;
        c.warmup_requests = self.warmup_requests;
        c.n_replicas = THREADS;
        c.n_fields = SERVE_FIELDS;
        c.dim = SERVE_DIM;
        c.max_batch = SERVE_BATCH;
        c
    }

    /// The PS `run_threaded_serve` builds for a serving configuration.
    pub fn ps_config(cfg: &ServeConfig) -> PsConfig {
        PsConfig {
            dim: cfg.dim,
            n_shards: cfg.n_shards,
            lr: cfg.lr,
            seed: cfg.seed,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        }
    }

    pub fn model(&self, rng: &mut StdRng) -> WideDeep {
        WideDeep::new(rng, SERVE_FIELDS, SERVE_DIM, &SERVE_HIDDEN)
    }

    pub fn first_layer_shape(&self) -> (usize, usize, usize) {
        (SERVE_BATCH, SERVE_FIELDS * SERVE_DIM, SERVE_HIDDEN[0])
    }
}

/// A [`Dataset`] that notes the instant of every `train_batch` call.
///
/// This is how per-iteration times are read from *outside* the trainer:
/// a worker fetches exactly one training batch per iteration, and the
/// cursor names the worker (`(cursor / batch) % n_workers`), so the gaps
/// between one worker's consecutive stamps are its iteration periods —
/// on the sim and on threads alike. One `Instant::now` and one
/// uncontended lock per iteration (≈50 ns against ≥2 ms).
pub struct Stamped<D> {
    inner: D,
    origin: Instant,
    n_workers: usize,
    stamps: Vec<Mutex<Vec<u64>>>,
}

impl<D: Dataset> Stamped<D> {
    pub fn new(inner: D, n_workers: usize, iterations_per_worker: usize) -> Self {
        Stamped {
            inner,
            origin: Instant::now(),
            n_workers,
            stamps: (0..n_workers)
                .map(|_| Mutex::new(Vec::with_capacity(iterations_per_worker + 1)))
                .collect(),
        }
    }

    /// Each worker's iteration periods in nanoseconds, in iteration
    /// order: `[w][i]` is the gap between worker `w`'s batches `i` and
    /// `i + 1`, the same batches in every rep of a job.
    pub fn periods_ns(&self) -> Vec<Vec<u64>> {
        self.stamps
            .iter()
            .map(|slot| {
                let stamps = slot.lock().expect("stamp lock: no holder panics");
                stamps.windows(2).map(|w| w[1] - w[0]).collect()
            })
            .collect()
    }
}

impl<D: Dataset> Dataset for Stamped<D> {
    type Batch = D::Batch;

    fn train_batch(&self, cursor: u64, batch_size: usize) -> D::Batch {
        let worker = (cursor / batch_size as u64) as usize % self.n_workers;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.stamps[worker]
            .lock()
            .expect("stamp lock: no holder panics")
            .push(now);
        self.inner.train_batch(cursor, batch_size)
    }

    fn test_batch(&self, cursor: u64, batch_size: usize) -> D::Batch {
        self.inner.test_batch(cursor, batch_size)
    }

    fn epoch_examples(&self) -> u64 {
        self.inner.epoch_examples()
    }

    fn test_examples(&self) -> u64 {
        self.inner.test_examples()
    }

    fn n_keys(&self) -> usize {
        self.inner.n_keys()
    }
}
