//! The step driver: one worker's iteration (one replica's micro-batch)
//! re-implemented from public functions only, each call into a layer
//! wrapped in a span.
//!
//! Training: `Dataset::train_batch` → `ModelBatch::unique_keys` →
//! `HetClient::read` | `DirectPsClient::read` →
//! `EmbeddingModel::forward_backward` → `HetClient::write` |
//! `DirectPsClient::write` → dense step (`FlatGrads::export_from` +
//! `Sgd::step`, or `DenseStore::push`/`pull`), on the workload's exact
//! configuration, as worker 0 sees it. Single worker: no scheduler, no
//! peers, no evaluation — which is what makes the difference to the
//! end-to-end rate the trainer's overhead.

use crate::jobs::*;
use crate::spans::Probe;
use het::core::client::DirectPsClient;
use het::core::fault::FaultContext;
use het::data::{Key, SpaceSaving, ZipfSampler};
use het::models::ModelBatch;
use het::prelude::*;
use het::ps::{DenseStore, PullResult};
use het::serve::workload::{key_of, warmup_seed};
use het::serve::{generate_requests, pretrain};
use het::simnet::wire::MessageCosts;
use het::simnet::{Collectives, SimDuration};
use het::tensor::{FlatGrads, FlatParams, HasParams, Sgd};
use het_rng::rngs::StdRng;
use het_rng::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

pub const SPAN_STEP: &str = "step";
pub const SPAN_DATA: &str = "het_data.batch";
pub const SPAN_READ: &str = "het_core.read";
pub const SPAN_COMPUTE: &str = "het_models.fwd_bwd";
pub const SPAN_FORWARD: &str = "het_models.forward";
pub const SPAN_WRITE: &str = "het_core.write";
pub const SPAN_DENSE: &str = "het_tensor.dense_step";

/// What a step run hands back besides its spans.
#[derive(Default)]
pub struct StepRun {
    /// Recorded steps (a serving run's warm-up steps come first and are
    /// not counted).
    pub recorded: u32,
    /// Host nanoseconds over the recorded steps.
    pub wall_ns: u64,
    /// The unique keys of every recorded step, in order: the stream the
    /// layer probes replay.
    pub key_stream: Vec<Vec<Key>>,
    pub keys_read: u64,
    pub keys_written: u64,
    /// Cache counters over the recorded steps (zero without a cache).
    pub cache: CacheStats,
    pub pulls: u64,
    pub pushes: u64,
    pub comm_bytes: u64,
    /// Off-path probes, in microseconds per call (see README: the part
    /// of the layer this workload does not exercise on its hot path).
    pub off_path_forward_us: f64,
    pub off_path_fwd_bwd_us: f64,
    pub off_path_dense_us: f64,
}

impl StepRun {
    pub fn us_per_step(&self) -> f64 {
        self.wall_ns as f64 / 1e3 / f64::from(self.recorded.max(1))
    }
}

enum Engine {
    Cached(HetClient),
    Direct(DirectPsClient),
}

impl Engine {
    fn read(
        &mut self,
        keys: &[Key],
        server: &PsServer,
        net: &Collectives,
        comm: &mut CommStats,
    ) -> (EmbeddingStore, SimDuration) {
        match self {
            Engine::Cached(c) => c.read(keys, server, net, comm, None::<&mut FaultContext<'_>>),
            Engine::Direct(c) => c.read(keys, server, net, comm, None),
        }
    }

    fn write(
        &mut self,
        grads: &SparseGrads,
        server: &PsServer,
        net: &Collectives,
        comm: &mut CommStats,
    ) -> SimDuration {
        match self {
            Engine::Cached(c) => c.write(grads, server, net, comm, None),
            Engine::Direct(c) => c.write(grads, server, net, comm, None),
        }
    }
}

fn stats_since(now: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        capacity_evictions: now.capacity_evictions - before.capacity_evictions,
        invalidations: now.invalidations - before.invalidations,
        writebacks: now.writebacks - before.writebacks,
        dirtied: now.dirtied - before.dirtied,
        ..CacheStats::default()
    }
}

/// The cache capacity `Trainer::new` gives a worker, or `None` for a
/// cache-less system.
pub fn cache_capacity(config: &TrainerConfig, n_keys: usize) -> Option<usize> {
    match config.system.sparse {
        SparseMode::Cached {
            capacity_fraction, ..
        } => Some(((n_keys as f64 * capacity_fraction).ceil() as usize).max(1)),
        _ => None,
    }
}

/// The PS configuration `Trainer::new` derives from a trainer config.
pub fn trainer_ps_config(config: &TrainerConfig) -> PsConfig {
    PsConfig {
        dim: config.dim,
        n_shards: config.cluster.n_servers.max(1) * 4,
        lr: config.lr,
        seed: config.seed ^ 0x5EED_5EED,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: config.server_grad_clip,
    }
}

/// Runs worker 0's first `recorded` iterations of the job, from its cold
/// start: the worker's exact share when `recorded` is the job's
/// iterations per worker, so the time per step is comparable with the
/// job's.
pub fn train_steps<J: TrainJob, P: Probe>(job: &J, recorded: u32, probe: &mut P) -> StepRun {
    let config = job.config();
    let dataset = job.dataset();
    let n_workers = config.cluster.n_workers as u64;
    let batch_size = config.batch_size;
    let net = config.cluster.collectives();
    let server = PsServer::with_store(trainer_ps_config(&config), 0, &config.store);
    let mut model = job.model(&mut StdRng::seed_from_u64(config.seed ^ 0x0DE1_CAFE));
    let costs = MessageCosts {
        fused: config.system.backbone.fuse_messages,
    };
    let mut engine = match config.system.sparse {
        SparseMode::Cached {
            staleness, policy, ..
        } => Engine::Cached(HetClient::with_costs(
            cache_capacity(&config, dataset.n_keys()).expect("cached mode"),
            staleness,
            policy,
            config.dim,
            config.lr,
            costs,
        )),
        SparseMode::PsDirect => Engine::Direct(DirectPsClient::with_costs(config.dim, costs)),
        SparseMode::AllGather => unreachable!("no workload uses the replicated sparse path"),
    };
    let dense_store = (config.system.dense == DenseSync::Ps).then(|| {
        let mut flat = FlatParams::new();
        flat.export_from(&mut model);
        DenseStore::new(flat.into_vec(), config.lr)
    });
    let sgd = Sgd::new(config.lr);
    let mut comm = CommStats::new();
    let mut run = StepRun {
        recorded,
        key_stream: Vec::with_capacity(recorded as usize),
        ..StepRun::default()
    };
    let mut last_batch = None;
    let t_recorded = Instant::now();

    for it in 0..recorded {
        let step = probe.enter(SPAN_STEP, it);

        let s = probe.enter(SPAN_DATA, it);
        let cursor = u64::from(it) * n_workers * batch_size as u64;
        let batch = dataset.train_batch(cursor, batch_size);
        let keys = batch.unique_keys();
        probe.exit(s);

        let s = probe.enter(SPAN_READ, it);
        let (store, _modelled) = engine.read(&keys, &server, &net, &mut comm);
        probe.exit(s);

        let s = probe.enter(SPAN_COMPUTE, it);
        let (loss, grads) = model.forward_backward(&batch, &store);
        black_box(loss);
        probe.exit(s);

        let s = probe.enter(SPAN_WRITE, it);
        let _modelled = engine.write(&grads, &server, &net, &mut comm);
        probe.exit(s);

        let s = probe.enter(SPAN_DENSE, it);
        match &dense_store {
            // One worker's share of the AllReduce path: export, (the
            // average of one is itself,) import, step.
            None => {
                let mut g = FlatGrads::new();
                g.export_from(&mut model);
                g.import_into(&mut model);
                sgd.step(&mut model);
            }
            Some(dense) => {
                let mut g = FlatGrads::new();
                g.export_from(&mut model);
                dense.push(g.as_slice());
                let (params, _version) = dense.pull();
                FlatParams::from_vec(params).import_into(&mut model);
                model.zero_grads();
            }
        }
        probe.exit(s);

        probe.exit(step);
        run.keys_read += keys.len() as u64;
        run.keys_written += grads.len() as u64;
        run.key_stream.push(keys);
        last_batch = Some((batch, store));
    }
    run.wall_ns = t_recorded.elapsed().as_nanos() as u64;
    run.comm_bytes = comm.total_bytes();
    match &engine {
        Engine::Cached(c) => {
            run.cache = *c.cache().stats();
            run.pulls = run.cache.misses + run.cache.invalidations;
            run.pushes = run.cache.writebacks;
        }
        // Without a cache every key is pulled and every gradient pushed.
        Engine::Direct(_) => (run.pulls, run.pushes) = (run.keys_read, run.keys_written),
    }

    // Off the iteration path: the forward-only pass the trainer's
    // evaluation uses, timed on the last batch.
    let (batch, store) = last_batch.expect("at least one step ran");
    let t = Instant::now();
    const FORWARDS: u32 = 50;
    for _ in 0..FORWARDS {
        black_box(model.evaluate(&batch, &store));
    }
    run.off_path_forward_us = t.elapsed().as_nanos() as f64 / 1e3 / f64::from(FORWARDS);
    run
}

/// The warm snapshot `het-serve` installs into every replica: the
/// SpaceSaving sketch of a Zipf prefix, pulled once.
fn warm_snapshot(cfg: &ServeConfig, server: &PsServer) -> Vec<(Key, PullResult)> {
    let mut rng = StdRng::seed_from_u64(warmup_seed(cfg));
    let zipf = ZipfSampler::new(cfg.n_keys as usize, cfg.zipf_exponent);
    let mut sketch = SpaceSaving::new(cfg.cache_capacity);
    for _ in 0..cfg.warmup_requests * cfg.n_fields {
        let rank = zipf.sample(&mut rng) as u64;
        sketch.observe(key_of(rank, het::simnet::SimTime::ZERO, cfg));
    }
    sketch
        .top(cfg.cache_capacity)
        .into_iter()
        .map(|(k, _)| (k, server.pull(k)))
        .collect()
}

/// Runs `warm + recorded` micro-batches of one replica of the job:
/// collect the batch's keys → `HetClient::read` (read-only cache) →
/// the trim that stands in for `Het.Write` → `EmbeddingModel::evaluate`.
pub fn serve_steps<P: Probe>(job: &ServeJob, warm: u32, recorded: u32, probe: &mut P) -> StepRun {
    let mut cfg = job.config();
    cfg.n_requests = (warm + recorded) as usize * cfg.max_batch;
    let server = PsServer::with_store(ServeJob::ps_config(&cfg), 0, &cfg.store);
    pretrain(&cfg, &server, cfg.pretrain_updates);
    let snapshot = warm_snapshot(&cfg, &server);
    let requests = generate_requests(&cfg);
    let mut model = job.model(&mut StdRng::seed_from_u64(cfg.seed));
    let mut client = HetClient::new(
        cfg.cache_capacity,
        cfg.staleness,
        cfg.policy,
        cfg.dim,
        cfg.lr,
    );
    client.cache_mut().set_read_only(true);
    for (k, pulled) in &snapshot {
        let _ = client
            .cache_mut()
            .install(*k, pulled.vector.clone(), pulled.clock);
    }
    let net = cfg.cluster.collectives();
    let mut comm = CommStats::new();
    let mut run = StepRun {
        recorded,
        key_stream: Vec::with_capacity(recorded as usize),
        ..StepRun::default()
    };
    let mut cache_before = CacheStats::default();
    let mut comm_before = 0;
    let mut t_recorded = Instant::now();
    let mut last_batch = None;

    for (it, batch_reqs) in requests.chunks(cfg.max_batch).enumerate() {
        let it = it as u32;
        if it == warm {
            cache_before = *client.cache().stats();
            comm_before = comm.total_bytes();
            t_recorded = Instant::now();
        }
        let step = probe.enter(SPAN_STEP, it);

        let s = probe.enter(SPAN_DATA, it);
        let flat: Vec<Key> = batch_reqs
            .iter()
            .flat_map(|r| r.keys.iter().copied())
            .collect();
        let mut unique = flat.clone();
        unique.sort_unstable();
        unique.dedup();
        let batch = CtrBatch {
            keys: flat,
            labels: vec![0.0; batch_reqs.len()],
            n_fields: cfg.n_fields,
        };
        probe.exit(s);

        let s = probe.enter(SPAN_READ, it);
        let (store, _modelled) = client.read(
            &unique,
            &server,
            &net,
            &mut comm,
            None::<&mut FaultContext<'_>>,
        );
        probe.exit(s);

        let s = probe.enter(SPAN_WRITE, it);
        let trimmed = client.cache_mut().evict_overflow();
        probe.exit(s);

        let s = probe.enter(SPAN_FORWARD, it);
        black_box(model.evaluate(&batch, &store));
        probe.exit(s);

        probe.exit(step);
        if it >= warm {
            run.keys_read += unique.len() as u64;
            run.keys_written += trimmed.len() as u64;
            run.key_stream.push(unique);
        }
        last_batch = Some((batch, store));
    }
    run.wall_ns = t_recorded.elapsed().as_nanos() as u64;
    run.cache = stats_since(*client.cache().stats(), cache_before);
    run.comm_bytes = comm.total_bytes() - comm_before;
    run.pulls = run.cache.misses + run.cache.invalidations;

    // Off the serving path: what training the served model on the same
    // micro-batch would cost (backward pass, dense step).
    let (batch, store) = last_batch.expect("at least one step ran");
    const ROUNDS: u32 = 200;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        black_box(model.forward_backward(&batch, &store).0);
    }
    run.off_path_fwd_bwd_us = t.elapsed().as_nanos() as f64 / 1e3 / f64::from(ROUNDS);
    let sgd = Sgd::new(cfg.lr);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let mut g = FlatGrads::new();
        g.export_from(&mut model);
        g.import_into(&mut model);
        sgd.step(&mut model);
    }
    run.off_path_dense_us = t.elapsed().as_nanos() as f64 / 1e3 / f64::from(ROUNDS);
    run
}
