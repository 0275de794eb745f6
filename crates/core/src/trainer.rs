//! The multi-worker trainer: one worker iteration, two schedulers.
//!
//! Workers train *for real* (models from `het-models`, parameters on
//! `het-ps`). The job body — Algorithm 1's `Het.Read` → forward/backward
//! → `Het.Write` → dense sync, plus the round collectives, evaluation
//! and the end-of-run flush — exists once, as methods on `Worker` over
//! the shared `StepEnv`. Two schedulers drive it:
//!
//! * this module's [`Process`] handlers, on the discrete-event
//!   [`ClusterRuntime`]: every step advances a worker's clock by the
//!   simulated network/compute time, so convergence curves are genuine
//!   learning curves plotted against simulated time;
//! * [`parallel`], on one OS thread per worker and the wall clock.
//!
//! Synchronous systems (the hybrids, HET AR) run in two-phase BSP
//! rounds: all workers read, then all compute and write, then the dense
//! AllReduce (and, for HET AR, the sparse AllGather) closes the round at
//! the barrier. On the simulator a round's server stages run in worker
//! order on the event loop's thread, and the stages no other worker
//! reads — sampling, forward/backward, the dense step — on helper
//! threads as their inputs land (DESIGN.md §3.2). Asynchronous systems
//! (TF PS, HET PS) interleave worker iterations; SSP additionally blocks
//! workers that run more than `s` iterations ahead of the slowest.
//!
//! On the simulator a BSP trainer is a *barrier process* (one event per
//! round), an ASP/SSP trainer schedules one event per worker iteration,
//! and the SSP staleness gate is a runtime wait condition
//! ([`Ctx::wait_until`]). Crashes and PS-shard outages are routed to
//! the trainer by the runtime's centralized fault delivery, so a
//! co-scheduled job (e.g. a serving fleet on the same PS fabric) shares
//! one plan, one queue, and one clock domain.

mod helpers;
pub mod parallel;

use crate::client::{DirectPsClient, HetClient, ReadStep};
use crate::config::{DenseSync, SparseMode, SyncMode, TrainerConfig};
use crate::fault::{FaultContext, FaultRecord, FaultStats};
use crate::prefetch::{PrefetchAudit, PrefetchOrder, PrefetchPlane, Prefetcher};
use crate::report::{ConvergencePoint, TimeBreakdown, TrainReport};
use helpers::Helpers;
use het_cache::{CacheStats, EvictedEntry};
use het_data::Key;
use het_models::{Dataset, EmbeddingModel, EmbeddingStore, EvalChunk, ModelBatch, SparseGrads};
use het_ps::{DenseStore, PsConfig, PsServer, ServerHandle, ShardCheckpointStore};
use het_rng::rngs::StdRng;
use het_rng::SeedableRng;
use het_runtime::{ClusterRuntime, Ctx, Event, ExecutionBackend, Process, ProcessId, WallClock};
use het_simnet::{
    wire, Collectives, CommCategory, CommStats, FaultPlan, SimDuration, SimTime, TieBreak,
};
use het_tensor::{FlatGrads, FlatParams, Sgd};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-worker sparse path.
enum SparseEngine {
    Direct(DirectPsClient),
    Cached(HetClient),
    /// Full local replica (HET AR): reads are free, writes are gathered
    /// at the round barrier.
    Replicated,
}

/// One `Het.Write` between its local stage and its server exchange.
struct WriteStep {
    grads: SparseGrads,
    /// Cache-less engine: the push order.
    keys: Vec<Key>,
    /// Cached engine: the dirty overflow victims to write back.
    victims: Vec<(Key, EvictedEntry)>,
}

/// Everything a worker step reads and never mutates, built once by the
/// constructor and shared by reference with every step of either
/// backend (it is `Sync`: the PS and the dense store synchronise
/// internally).
struct StepEnv<D> {
    config: TrainerConfig,
    dataset: D,
    server: ServerHandle,
    dense_store: Option<DenseStore>,
    net: Collectives,
    sgd: Sgd,
}

impl<D> StepEnv<D> {
    /// The data cursor of worker `w`'s iteration `t`: workers stride the
    /// global example sequence so shards are disjoint.
    fn data_cursor(&self, worker: usize, iteration: u64) -> u64 {
        (iteration * self.config.cluster.n_workers as u64 + worker as u64)
            * self.config.batch_size as u64
    }
}

impl<D: Dataset> StepEnv<D> {
    /// Worker `w`'s batch of iteration `t` and the keys it touches.
    fn sample(&self, worker: usize, iteration: u64) -> (D::Batch, Vec<Key>) {
        let cursor = self.data_cursor(worker, iteration);
        let batch = self.dataset.train_batch(cursor, self.config.batch_size);
        let keys = batch.unique_keys();
        (batch, keys)
    }
}

/// A worker's dense replica: its model, the training loss since the
/// last evaluation, and the buffer its dense gradients are exported
/// into for a dense PS or a threaded round's leader. A forward/backward
/// pass touches nothing else, so a scheduler may hand the replica to
/// another thread while the worker's server side stays where it is.
struct Replica<M> {
    model: M,
    loss: (f64, u64),
    /// The last exported dense gradients, reused step after step (the
    /// simulator's AllReduce sums straight from the model instead).
    grads: FlatGrads,
}

impl<M: EmbeddingModel> Replica<M> {
    /// Forward and backward pass over the batch.
    fn compute(&mut self, batch: &M::Batch, store: &EmbeddingStore) -> (f32, SparseGrads) {
        let (loss, grads) = self.model.forward_backward(batch, store);
        self.loss.0 += loss as f64;
        self.loss.1 += 1;
        (loss, grads)
    }

    /// Copies the model's dense gradients into [`Replica::grads`].
    fn export_dense_grads(&mut self) {
        self.grads.export_from(&mut self.model);
    }

    /// This replica's share of a round's dense AllReduce, the math half
    /// ([`Worker::account_dense_average`] is the other): step the model
    /// by the averaged gradient.
    fn step_dense(&mut self, avg: &FlatGrads, sgd: &Sgd) {
        avg.import_into(&mut self.model);
        sgd.step(&mut self.model);
    }
}

/// A worker's server side: its sparse engine, clock and accounting.
struct Worker {
    id: usize,
    sparse: SparseEngine,
    /// Simulated time, owned by the sim scheduler (the threaded one
    /// keeps time on its `WallClock`).
    clock: SimTime,
    iterations: u64,
    comm: CommStats,
    breakdown: TimeBreakdown,
}

/// The job body. Every method runs at the ambient trace scope — the
/// scheduler publishes "now" (`het_trace::set_scope`) before calling —
/// and returns the modelled duration of what it did; what to do with
/// that duration is the scheduler's business.
impl Worker {
    /// `Het.Read`: acquire the batch's embeddings — the three stages
    /// back to back.
    fn read<D>(
        &mut self,
        keys: &[Key],
        env: &StepEnv<D>,
        mut faults: Option<&mut FaultContext<'_>>,
        plane: Option<&Mutex<PrefetchPlane>>,
    ) -> (EmbeddingStore, SimDuration) {
        let mut step = self.plan_read(keys, env, faults.as_deref_mut(), plane);
        self.exchange_read(&mut step, keys, env, faults);
        self.apply_read(step, keys, env)
    }

    /// Read, stage 1 — local: decide what the step must move. With a
    /// prefetch plane (sim only; its landings may write back to the
    /// server) every due prefetch lands first, and the read waits out
    /// (and is charged) any in-flight pull this batch needs — the
    /// unhidden remainder of the transfer is the only part the read
    /// ever pays.
    fn plan_read<D>(
        &mut self,
        keys: &[Key],
        env: &StepEnv<D>,
        faults: Option<&mut FaultContext<'_>>,
        plane: Option<&Mutex<PrefetchPlane>>,
    ) -> ReadStep {
        let server = &*env.server;
        let SparseEngine::Cached(c) = &mut self.sparse else {
            return ReadStep::default();
        };
        let mut prefetch_wait = SimDuration::ZERO;
        if let Some(plane) = plane {
            let (landed, stall) = plane
                .lock()
                .unwrap()
                .take_for_read(self.id, self.clock, keys);
            let mut installed = 0u64;
            let mut superseded = 0u64;
            for r in landed {
                if c.install_prefetch_result(r.key, r.vector, r.clock, server) {
                    installed += 1;
                } else {
                    superseded += 1;
                }
            }
            // Installs can displace dirty rows back to the server;
            // that write-back's disk time stalls this read.
            prefetch_wait = stall + SimDuration::from_nanos(server.take_io_ns());
            let mut plane = plane.lock().unwrap();
            plane.note_install(installed, stall);
            plane.note_cancelled(superseded);
            if het_trace::enabled() && (installed > 0 || stall > SimDuration::ZERO) {
                het_trace::event!("prefetcher", "prefetch_install",
                    "installed" => installed,
                    "waited_ns" => stall.as_nanos());
            }
        }
        let mut step = c.plan_read(keys, server, faults);
        step.time += prefetch_wait;
        step
    }

    /// Read, stage 2 — the server exchange: every PS call of the read
    /// and nothing else. The one stage a scheduler has to order across
    /// workers.
    fn exchange_read<D>(
        &mut self,
        step: &mut ReadStep,
        keys: &[Key],
        env: &StepEnv<D>,
        faults: Option<&mut FaultContext<'_>>,
    ) {
        let (server, net) = (&*env.server, &env.net);
        match &self.sparse {
            SparseEngine::Direct(c) => {
                c.exchange_read(step, keys, server, net, &mut self.comm, faults)
            }
            SparseEngine::Cached(c) => c.exchange_read(step, server, net, &mut self.comm, faults),
            SparseEngine::Replicated => {
                step.pull_unpriced(keys, server);
                // Replica reads stand for local table lookups, not a
                // priced PS leg — keep their disk time out of request
                // latency.
                server.reclassify_pending_io();
            }
        }
    }

    /// Read, stage 3 — local: land what the exchange brought and hand
    /// the model its resolved batch.
    fn apply_read<D>(
        &mut self,
        step: ReadStep,
        keys: &[Key],
        env: &StepEnv<D>,
    ) -> (EmbeddingStore, SimDuration) {
        let (store, t_read) = match &mut self.sparse {
            SparseEngine::Cached(c) => c.apply_read(step, keys),
            _ => step.into_store(keys, env.server.dim()),
        };
        self.breakdown.sparse_read += t_read;
        het_trace::span!("trainer", "read", t_read.as_nanos(), "keys" => keys.len());
        (store, t_read)
    }

    /// `Het.Write`: apply the sparse gradients — both stages back to
    /// back. Replicated mode hands them back for the round's AllGather
    /// instead.
    fn write<D>(
        &mut self,
        grads: SparseGrads,
        env: &StepEnv<D>,
        faults: Option<&mut FaultContext<'_>>,
    ) -> (SimDuration, Option<SparseGrads>) {
        let mut step = self.plan_write(grads, env);
        self.exchange_write(&mut step, env, faults)
    }

    /// Write, stage 1 — local: the cached engine's stale writes, clock
    /// bumps and overflow eviction, a cache-less engine's push order, a
    /// replica's AllGather accounting.
    fn plan_write<D>(&mut self, grads: SparseGrads, env: &StepEnv<D>) -> WriteStep {
        let mut step = WriteStep {
            keys: Vec::new(),
            victims: Vec::new(),
            grads,
        };
        match &mut self.sparse {
            SparseEngine::Direct(_) => step.keys = step.grads.sorted_keys(),
            SparseEngine::Cached(c) => step.victims = c.plan_write(&step.grads),
            SparseEngine::Replicated => {
                let block = wire::sparse_allgather_block_bytes(step.grads.len(), env.config.dim);
                let bytes = env.net.allgather_bytes_per_worker(block);
                if bytes > 0 {
                    self.comm.record(CommCategory::SparseAllGather, bytes);
                }
            }
        }
        step
    }

    /// Write, stage 2 — the server exchange: the pushes (none for a
    /// replica, which hands its gradients back for the round's gather).
    /// The step is borrowed so that freeing what it holds is not part
    /// of the exchange.
    fn exchange_write<D>(
        &mut self,
        step: &mut WriteStep,
        env: &StepEnv<D>,
        faults: Option<&mut FaultContext<'_>>,
    ) -> (SimDuration, Option<SparseGrads>) {
        let (server, net, comm) = (&*env.server, &env.net, &mut self.comm);
        match &mut self.sparse {
            SparseEngine::Direct(c) => {
                let t = c.exchange_write(&step.grads, &step.keys, server, net, comm, faults);
                (t, None)
            }
            SparseEngine::Cached(c) => (
                c.exchange_write(&step.victims, server, net, comm, faults),
                None,
            ),
            SparseEngine::Replicated => (SimDuration::ZERO, Some(std::mem::take(&mut step.grads))),
        }
    }

    /// Closes the iteration: accounts the phases and emits their spans
    /// (`compute` before `write` — the order the golden traces pin).
    fn complete(&mut self, compute: SimDuration, loss: f32, write: SimDuration) {
        self.iterations += 1;
        self.breakdown.compute += compute;
        self.breakdown.sparse_write += write;
        het_trace::span!("trainer", "compute", compute.as_nanos(), "loss" => loss as f64);
        het_trace::span!("trainer", "write", write.as_nanos());
    }

    /// Dense PS path: push gradients to the dense store, pull fresh
    /// parameters. Zero when the dense path is AllReduce.
    fn dense_ps_sync<M: EmbeddingModel, D>(
        &mut self,
        replica: &mut Replica<M>,
        env: &StepEnv<D>,
    ) -> SimDuration {
        let Some(store) = &env.dense_store else {
            return SimDuration::ZERO;
        };
        replica.export_dense_grads();
        store.push(replica.grads.as_slice());
        let (params, _version) = store.pull();
        FlatParams::from_vec(params).import_into(&mut replica.model);
        replica.model.zero_grads();

        let bytes = wire::dense_transfer_bytes(replica.grads.len());
        self.comm.record(CommCategory::DensePs, bytes);
        self.comm.record(CommCategory::DensePs, bytes);
        let t = env.net.ps_transfer(bytes) * 2;
        self.breakdown.dense_sync += t;
        het_trace::span!("trainer", "dense_sync", t.as_nanos(), "bytes" => bytes * 2);
        t
    }

    /// This worker's share of a round's dense AllReduce, the accounting
    /// half ([`Replica::step_dense`] is the other): `CommStats::record`
    /// emits trace counters, so this stays on the thread that traces.
    fn account_dense_average<D>(&mut self, avg: &FlatGrads, t: SimDuration, env: &StepEnv<D>) {
        let bytes = (avg.len() * wire::F32_BYTES as usize) as u64;
        let per_worker_bytes = env.net.ring_allreduce_bytes_per_worker(bytes);
        if per_worker_bytes > 0 {
            self.comm
                .record(CommCategory::DenseAllReduce, per_worker_bytes);
        }
        self.breakdown.dense_sync += t;
    }

    /// Evaluates the model against the held-out split from this
    /// worker's point of view: its dense replica, and its *cache view*
    /// of the embeddings where resident (read-my-updates — pending
    /// stale writes are visible, exactly as they are to the training
    /// computation, and eviction bookkeeping is untouched), falling
    /// back to the server for everything else.
    fn evaluate<M: EmbeddingModel, D: Dataset<Batch = M::Batch>>(
        &self,
        replica: &Replica<M>,
        env: &StepEnv<D>,
    ) -> f64 {
        let config = &env.config;
        let cache = match &self.sparse {
            SparseEngine::Cached(c) => Some(c.cache()),
            _ => None,
        };
        let mut chunk = EvalChunk::default();
        for b in 0..config.eval_batches {
            let batch = env
                .dataset
                .test_batch((b * config.batch_size) as u64, config.batch_size);
            let mut store = EmbeddingStore::new(config.dim);
            for k in batch.unique_keys() {
                let v = cache
                    .and_then(|c| c.peek(k).map(|e| e.vector.clone()))
                    .unwrap_or_else(|| env.server.pull(k).vector);
                store.insert(k, v);
            }
            // Evaluation is outside the simulated clocks entirely.
            env.server.reclassify_pending_io();
            chunk.extend(replica.model.evaluate(&batch, &store));
        }
        chunk.metric(replica.model.metric_kind())
    }

    fn is_cached(&self) -> bool {
        matches!(self.sparse, SparseEngine::Cached(_))
    }

    /// End-of-training write-back (the paper's): every pending cached
    /// update reaches the server. A no-op without a cache.
    fn flush<D>(&mut self, env: &StepEnv<D>) {
        let SparseEngine::Cached(c) = &mut self.sparse else {
            return;
        };
        let waste_before = c.cache().stats().prefetch_wasted;
        let t = c.flush(&env.server, &env.net, &mut self.comm);
        self.breakdown.sparse_write += t;
        self.clock += t;
        het_trace::span!("trainer", "flush", t.as_nanos());
        if het_trace::enabled() {
            let wasted = c.cache().stats().prefetch_wasted - waste_before;
            if wasted > 0 {
                het_trace::event!("prefetcher", "prefetch_waste", "n" => wasted);
            }
        }
    }
}

/// HET AR sparse path at the barrier: AllGather every worker's gradient
/// block (in worker order), apply the merged update once to the shared
/// table. Returns the AllGather time.
fn apply_sparse_gather<D>(gathered: &[SparseGrads], env: &StepEnv<D>) -> SimDuration {
    let dim = env.config.dim;
    let mut merged = SparseGrads::new(dim);
    let mut max_block = 0u64;
    for grads in gathered {
        max_block = max_block.max(wire::sparse_allgather_block_bytes(grads.len(), dim));
        merged.merge(grads);
    }
    let keys = merged.sorted_keys();
    env.server
        .push_inc_many(&keys, |&k| merged.get(k).expect("merged key"));
    // The merged apply is the gathered update landing in every
    // replica; its disk time rides the barrier it happens behind.
    env.net.allgather(max_block) + SimDuration::from_nanos(env.server.take_io_ns())
}

/// The time of a round's dense AllReduce of `avg` (zero for one worker).
fn allreduce_time<D>(avg: &FlatGrads, env: &StepEnv<D>) -> SimDuration {
    env.net
        .ring_allreduce((avg.len() * wire::F32_BYTES as usize) as u64)
}

/// Mean training loss over per-worker `(sum, count)` parts, added in
/// the order given.
fn mean_loss(parts: impl Iterator<Item = (f64, u64)>) -> f64 {
    let (mut sum, mut count) = (0.0f64, 0u64);
    for (s, c) in parts {
        sum += s;
        count += c;
    }
    if count > 0 {
        sum / count as f64
    } else {
        0.0
    }
}

/// Communication, cache and time accounting merged over the workers.
fn merged_stats(workers: &[Worker]) -> (CommStats, CacheStats, TimeBreakdown) {
    let mut comm = CommStats::new();
    let mut cache = CacheStats::default();
    let mut breakdown = TimeBreakdown::default();
    for worker in workers {
        comm.merge(&worker.comm);
        if let SparseEngine::Cached(c) = &worker.sparse {
            cache.merge(c.cache().stats());
        }
        breakdown.sparse_read += worker.breakdown.sparse_read;
        breakdown.compute += worker.breakdown.compute;
        breakdown.sparse_write += worker.breakdown.sparse_write;
        breakdown.dense_sync += worker.breakdown.dense_sync;
    }
    (comm, cache, breakdown)
}

/// Where the run stands: iterations claimed so far and the convergence
/// curve.
#[derive(Default)]
struct Progress {
    global_iterations: u64,
    curve: Vec<ConvergencePoint>,
    converged_at: Option<SimTime>,
}

impl Progress {
    /// Appends the curve point of an evaluation at `at`. Returns true
    /// when it is the first to reach `target`.
    fn record_eval(
        &mut self,
        metric: f64,
        train_loss: f64,
        at: SimTime,
        target: Option<f64>,
    ) -> bool {
        if het_trace::enabled() {
            het_trace::set_scope(at.as_nanos(), None);
            het_trace::event!("trainer", "eval",
                "iteration" => self.global_iterations,
                "metric" => metric,
                "train_loss" => train_loss);
        }
        self.curve.push(ConvergencePoint {
            sim_time: at,
            iteration: self.global_iterations,
            metric,
            train_loss,
        });
        if target.is_some_and(|t| metric >= t) && self.converged_at.is_none() {
            self.converged_at = Some(at);
            return true;
        }
        false
    }
}

/// The training job for one (system, model, dataset) triple.
pub struct Trainer<M: EmbeddingModel, D: Dataset<Batch = M::Batch>> {
    /// Shared with a round's helper threads while the event loop's
    /// thread mutates the rest of the trainer.
    env: Arc<StepEnv<D>>,
    workers: Vec<Worker>,
    /// Worker `w`'s dense replica is `replicas[w]`.
    replicas: Vec<Replica<M>>,
    /// The sum, then the average, of a BSP round's dense gradients;
    /// reused round after round.
    dense_sum: FlatGrads,
    /// Host threads a simulated BSP round may use, the event loop's
    /// included; 0 until [`Trainer::register`] reads the host's (see
    /// [`Trainer::with_host_threads`]).
    host_threads: usize,
    progress: Progress,
    // --- fault injection (all inert when `plan` is empty) ---
    // Crash and outage *schedules* live in the runtime's centralized
    // fault delivery; the trainer keeps the plan only for the effects the
    // runtime does not cursor (stragglers, degraded links, drops).
    plan: FaultPlan,
    ckpt_store: Option<ShardCheckpointStore>,
    fault_stats: FaultStats,
    fault_events: Vec<FaultRecord>,
    /// Per-worker monotone operation counters feeding the deterministic
    /// message-drop hash.
    worker_ops: Vec<u64>,
    last_checkpoint_iter: u64,
    /// Lookahead-prefetch state shared with the [`Prefetcher`] process;
    /// `None` unless `lookahead_depth > 0` under a cached sparse mode.
    plane: Option<Arc<Mutex<PrefetchPlane>>>,
    /// The prefetcher's process id, set by [`Trainer::register`];
    /// planning is inert without one (the threaded runner has none).
    prefetcher_pid: Option<ProcessId>,
    /// Host time of the run, restarted when its first step is scheduled
    /// ([`Trainer::register`] on the sim, [`Trainer::run_threaded`] on
    /// threads).
    wall: WallClock,
}

impl<M: EmbeddingModel, D: Dataset<Batch = M::Batch>> Trainer<M, D> {
    /// Builds the job. `model_factory` constructs one replica from
    /// an RNG; it is called once per worker with identically seeded RNGs,
    /// so all replicas start equal (data-parallel requirement, §2.1).
    pub fn new(
        config: TrainerConfig,
        dataset: D,
        model_factory: impl Fn(&mut StdRng) -> M,
    ) -> Self {
        Self::with_cluster(config, dataset, model_factory, 0, 0)
    }

    /// Like [`Trainer::new`], for a trainer that shares its cluster:
    ///
    /// * the fault plan is generated over
    ///   `config.cluster.n_workers + extra_members` cluster members, so
    ///   a job co-scheduled after this trainer on the same
    ///   [`ClusterRuntime`] (which then owns members
    ///   `n_workers..n_workers + extra_members`) draws its crash
    ///   schedule from the same plan — for a serving fleet, pass its
    ///   `ServeConfig::fleet_size()`;
    /// * `spare_shards` extra physical PS shards are reserved as
    ///   live-split targets (see [`het_ps::PsServer::with_spare_shards`]).
    ///   The fault plan still addresses only the base shards — spares
    ///   receive traffic solely through supervised resharding.
    ///
    /// # Panics
    /// Panics on a system that
    /// [`SystemConfig::validate`](crate::config::SystemConfig::validate)
    /// refuses (ASP or SSP with a dense AllReduce or a sparse AllGather).
    pub fn with_cluster(
        config: TrainerConfig,
        dataset: D,
        model_factory: impl Fn(&mut StdRng) -> M,
        extra_members: usize,
        spare_shards: usize,
    ) -> Self {
        if let Err(e) = config.system.validate() {
            panic!("invalid system {}: {e}", config.system.name);
        }
        let net = config.cluster.collectives();
        let n_shards = config.cluster.n_servers.max(1) * 4;
        let ps_config = PsConfig {
            dim: config.dim,
            n_shards,
            lr: config.lr,
            seed: config.seed ^ 0x5EED_5EED,
            optimizer: het_ps::ServerOptimizer::Sgd,
            grad_clip: config.server_grad_clip,
        };
        let server =
            ServerHandle::new(PsServer::with_store(ps_config, spare_shards, &config.store));

        let plan = FaultPlan::generate(
            config.seed,
            &config.faults,
            config.cluster.n_workers + extra_members,
            n_shards,
        );
        let n_keys = dataset.n_keys();
        let costs = wire::MessageCosts {
            fused: config.system.backbone.fuse_messages,
        };
        let mut workers = Vec::with_capacity(config.cluster.n_workers);
        let mut replicas = Vec::with_capacity(config.cluster.n_workers);
        for id in 0..config.cluster.n_workers {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0DE1_CAFE);
            replicas.push(Replica {
                model: model_factory(&mut rng),
                loss: (0.0, 0),
                grads: FlatGrads::new(),
            });
            let sparse = match config.system.sparse {
                SparseMode::PsDirect => {
                    SparseEngine::Direct(DirectPsClient::with_costs(config.dim, costs))
                }
                SparseMode::AllGather => SparseEngine::Replicated,
                SparseMode::Cached {
                    staleness,
                    capacity_fraction,
                    policy,
                } => {
                    let capacity = ((n_keys as f64 * capacity_fraction).ceil() as usize).max(1);
                    let mut client = HetClient::with_costs(
                        capacity, staleness, policy, config.dim, config.lr, costs,
                    );
                    if config.sabotage_extra_staleness > 0 {
                        client.set_extra_staleness(config.sabotage_extra_staleness);
                    }
                    // Lookahead runs push dirty evictions through the
                    // plane's transmit channel (write-behind); depth 0
                    // keeps the legacy synchronous push.
                    if config.lookahead_depth > 0 {
                        client.set_write_behind(true);
                    }
                    SparseEngine::Cached(client)
                }
            };
            workers.push(Worker {
                id,
                sparse,
                clock: SimTime::ZERO,
                iterations: 0,
                comm: CommStats::new(),
                breakdown: TimeBreakdown::default(),
            });
        }

        let dense_store = (config.system.dense == DenseSync::Ps).then(|| {
            let mut flat = FlatParams::new();
            flat.export_from(&mut replicas[0].model);
            DenseStore::new(flat.into_vec(), config.lr)
        });

        let worker_ops = vec![0u64; config.cluster.n_workers];
        let plane = (config.lookahead_depth > 0
            && matches!(config.system.sparse, SparseMode::Cached { .. }))
        .then(|| {
            Arc::new(Mutex::new(PrefetchPlane::new(
                config.cluster.n_workers,
                config.lookahead_depth,
            )))
        });
        Trainer {
            env: Arc::new(StepEnv {
                sgd: Sgd::new(config.lr),
                config,
                dataset,
                server,
                dense_store,
                net,
            }),
            workers,
            replicas,
            dense_sum: FlatGrads::new(),
            host_threads: 0,
            progress: Progress::default(),
            plan,
            ckpt_store: None,
            fault_stats: FaultStats::default(),
            fault_events: Vec::new(),
            worker_ops,
            last_checkpoint_iter: 0,
            plane,
            prefetcher_pid: None,
            wall: WallClock::new(),
        }
    }

    /// Caps the host threads a simulated BSP round runs on, the event
    /// loop's included, at `n` (at least 1). By default
    /// [`Trainer::register`] reads the host's available parallelism.
    /// Reports and traces do not depend on it; only wall time does.
    pub fn with_host_threads(mut self, n: usize) -> Self {
        self.host_threads = n.max(1);
        self
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.env.config
    }

    /// The global embedding server (for test oracles and benches).
    pub fn server(&self) -> &PsServer {
        &self.env.server
    }

    /// A clone of the shared PS-fabric handle, for co-scheduling another
    /// job (e.g. a serving fleet) against the same table.
    pub fn server_handle(&self) -> ServerHandle {
        self.env.server.clone()
    }

    /// The cluster's fault plan. The trainer's workers are cluster
    /// members `0..n_workers`; any extra members requested at
    /// construction follow.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replaces the fault plan with a scripted (or file-loaded) one.
    /// Must be called before [`Trainer::register`], which checkpoints
    /// from the plan it finds; the caller is responsible for handing the
    /// same plan to the shared [`ClusterRuntime`].
    /// Event member indices follow the construction-time layout
    /// (workers `0..n_workers`, then any extra members).
    pub fn override_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// The same-time ordering rule the trainer's runtime must use.
    pub fn tie_break(&self) -> TieBreak {
        self.env.config.tie_break
    }

    /// A worker's HET client, if the system is cached.
    pub fn worker_client(&self, worker: usize) -> Option<&HetClient> {
        match &self.workers[worker].sparse {
            SparseEngine::Cached(c) => Some(c),
            _ => None,
        }
    }

    /// A worker's model replica.
    pub fn worker_model(&self, worker: usize) -> &M {
        &self.replicas[worker].model
    }

    /// The dataset under training.
    pub fn dataset(&self) -> &D {
        &self.env.dataset
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The data cursor of worker `w`'s iteration `t`, so lookahead
    /// tests can recompute exactly which batch a worker reads at a
    /// given iteration.
    pub fn data_cursor_of(&self, worker: usize, iteration: u64) -> u64 {
        self.env.data_cursor(worker, iteration)
    }

    /// Iterations completed by one worker.
    pub fn worker_iterations(&self, worker: usize) -> u64 {
        self.workers[worker].iterations
    }

    /// Turns on plan auditing: every plan decision (the target batch's
    /// full key set and how it was partitioned into issued / resident /
    /// in-flight) is recorded for [`Trainer::prefetch_audit`]. Test
    /// harness hook — costs memory proportional to the run length.
    pub fn enable_prefetch_audit(&mut self) {
        if let Some(plane) = &self.plane {
            plane.lock().unwrap().enable_audit();
        }
    }

    /// The recorded plan audit (see [`Trainer::enable_prefetch_audit`]).
    pub fn prefetch_audit(&self) -> Option<Vec<PrefetchAudit>> {
        self.plane
            .as_ref()
            .and_then(|p| p.lock().unwrap().audit_clone())
    }

    /// Plans lookahead pulls for worker `w` after it finished an
    /// iteration: targets `next_read..next_read + depth` that are not
    /// yet planned, deduplicating each batch's key set against resident
    /// and in-flight keys, then wakes the prefetcher at `issue_at` (the
    /// start of the *current* iteration's compute span, so transfers
    /// overlap compute). Exactness comes from the deterministic data
    /// cursor: the planned key sets are the ones the worker will read.
    fn plan_prefetch(&self, w: usize, issue_at: SimTime, ctx: &mut Ctx<'_>) {
        let Some(pf_pid) = self.prefetcher_pid else {
            return;
        };
        let Some(plane_rc) = &self.plane else {
            return;
        };
        let SparseEngine::Cached(client) = &self.workers[w].sparse else {
            return;
        };
        let mut plane = plane_rc.lock().unwrap();
        let next_read = self.workers[w].iterations;
        let from = plane.planned_until(w).max(next_read);
        let to = next_read + plane.depth();
        let mut queued = false;
        for target in from..to {
            let (_, keys) = self.env.sample(w, target);
            let mut issued = Vec::new();
            let mut skipped_resident = Vec::new();
            let mut skipped_inflight = Vec::new();
            for &k in &keys {
                if client.cache().find(k) {
                    skipped_resident.push(k);
                } else if plane.is_inflight(w, k) {
                    skipped_inflight.push(k);
                } else {
                    issued.push(k);
                }
            }
            if plane.audit_enabled() {
                plane.record_audit(PrefetchAudit {
                    worker: w,
                    target_iteration: target,
                    planned: keys,
                    issued: issued.clone(),
                    skipped_resident,
                    skipped_inflight,
                });
            }
            if !issued.is_empty() {
                plane.push_order(PrefetchOrder {
                    worker: w,
                    target_iteration: target,
                    keys: issued,
                });
                queued = true;
            }
        }
        plane.set_planned_until(w, to);
        if queued {
            // Scheduled at the current dispatch's timestamp: the
            // runtime delivers it after this dispatch completes, so the
            // prefetcher observes post-iteration server state while its
            // transfer window still spans the compute phase.
            ctx.schedule_for(pf_pid, issue_at, Event::Wake(w as u64));
        }
    }

    /// Drops every queued or in-flight prefetch at trainer shutdown so
    /// residual prefetcher wake-ups find empty queues and stay silent.
    fn stop_prefetch(&self) {
        if let Some(plane) = &self.plane {
            plane.lock().unwrap().cancel_all();
        }
    }

    /// Fires due fault-plan events at simulated time `now`: PS-shard
    /// failovers, which roll the shard back to its last checkpoint and
    /// account every lost clock tick, then the periodic checkpoint (on
    /// the global iteration counter). Restores come first, so a
    /// checkpoint due in the same event never snapshots a shard that
    /// failed before it. Outages are drained from the runtime's
    /// cluster-global cursor, so a co-scheduled job never replays a
    /// failover this trainer already performed.
    fn process_fault_events(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let Some(store) = &mut self.ckpt_store else {
            return;
        };
        while let Some((shard, at, failover)) = ctx.take_due_outage(now) {
            let outcome = store
                .fail_and_restore(&self.env.server, shard)
                .expect("in-memory checkpoint");
            self.fault_stats.shard_failovers += 1;
            self.fault_stats.rows_restored += outcome.rows_restored as u64;
            self.fault_stats.keys_lost += outcome.keys_lost as u64;
            self.fault_stats.lost_updates += outcome.lost_updates;
            if het_trace::enabled() {
                het_trace::set_scope(at.as_nanos(), None);
                het_trace::event!("ps", "failover",
                    "shard" => shard,
                    "rows_restored" => outcome.rows_restored,
                    "keys_lost" => outcome.keys_lost,
                    "lost_updates" => outcome.lost_updates,
                    "failover_ns" => failover.as_nanos());
            }
            self.fault_events.push(FaultRecord {
                at,
                description: format!(
                    "ps shard {shard} failed; restored {} rows from checkpoint \
                     ({} keys lost, {} update ticks rolled back, failover {})",
                    outcome.rows_restored, outcome.keys_lost, outcome.lost_updates, failover
                ),
            });
        }
        let every = self.env.config.checkpoint_every;
        let global = self.progress.global_iterations;
        if every > 0 && global >= self.last_checkpoint_iter + every {
            self.last_checkpoint_iter = global;
            store
                .checkpoint_all(&self.env.server)
                .expect("in-memory checkpoint");
            self.fault_stats.checkpoints += 1;
            if het_trace::enabled() {
                het_trace::set_scope(now.as_nanos(), None);
                het_trace::event!("ps", "checkpoint", "iteration" => global);
            }
        }
    }

    /// If worker `w`'s next scheduled crash (routed by the runtime's
    /// fault delivery) is due at `now`, kills and restarts it: the whole
    /// cache (including dirty, never-pushed updates) is lost, the dense
    /// replica is re-pulled from the dense PS where one exists, and the
    /// worker pays the restart delay.
    fn maybe_crash(&mut self, w: usize, now: SimTime, ctx: &mut Ctx<'_>) -> SimDuration {
        let Some((at, restart)) = ctx.take_crash(w, now) else {
            return SimDuration::ZERO;
        };
        let Trainer {
            env,
            workers,
            replicas,
            fault_stats,
            fault_events,
            plane,
            ..
        } = self;
        let worker = &mut workers[w];
        // Scope the trace to the crashing worker *before* clearing its
        // cache so the crash_drops counters attribute to it, not to
        // whatever scope the previous event left behind.
        if het_trace::enabled() {
            het_trace::set_scope(at.as_nanos(), Some(w as u64));
        }
        // A crash invalidates everything the prefetcher queued or has in
        // flight for this worker: the cache those pulls would install
        // into is about to be wiped, and the planning cursor restarts
        // from the worker's post-restart iteration.
        let mut prefetch_dropped = 0u64;
        if let Some(p) = plane {
            prefetch_dropped = p.lock().unwrap().cancel_worker(w);
        }
        let waste_before = match &worker.sparse {
            SparseEngine::Cached(c) => c.cache().stats().prefetch_wasted,
            _ => 0,
        };
        let (entries, dirty, ticks) = match &mut worker.sparse {
            SparseEngine::Cached(c) => c.crash_reset(),
            _ => (0, 0, 0),
        };
        if let Some(store) = &env.dense_store {
            let (params, _version) = store.pull();
            let model = &mut replicas[w].model;
            FlatParams::from_vec(params).import_into(model);
            model.zero_grads();
        }
        fault_stats.worker_crashes += 1;
        fault_stats.dirty_entries_lost += dirty;
        fault_stats.pending_updates_lost += ticks;
        if het_trace::enabled() {
            het_trace::event!("trainer", "worker_crash",
                "entries_lost" => entries,
                "dirty_lost" => dirty,
                "ticks_lost" => ticks,
                "restart_ns" => restart.as_nanos());
            if prefetch_dropped > 0 {
                het_trace::event!("prefetcher", "prefetch_cancel",
                    "keys" => prefetch_dropped,
                    "reason" => "worker_crash");
                het_trace::counter_add("prefetcher", "cancelled_keys", prefetch_dropped);
            }
            let wasted = match &worker.sparse {
                SparseEngine::Cached(c) => c.cache().stats().prefetch_wasted - waste_before,
                _ => 0,
            };
            if wasted > 0 {
                het_trace::event!("prefetcher", "prefetch_waste", "n" => wasted);
            }
        }
        fault_events.push(FaultRecord {
            at,
            description: format!(
                "worker {w} crashed; {entries} cached entries lost \
                 ({dirty} dirty, {ticks} pending update ticks), restart {restart}"
            ),
        });
        restart
    }

    /// Worker `w`'s step inputs at its current clock: the worker, the
    /// shared environment, the fault context (when a plan is active)
    /// and the prefetch plane (when lookahead is on) — with the trace
    /// scope published.
    #[allow(clippy::type_complexity)]
    fn step_parts(
        &mut self,
        w: usize,
    ) -> (
        &mut Worker,
        &StepEnv<D>,
        Option<FaultContext<'_>>,
        Option<&Mutex<PrefetchPlane>>,
    ) {
        let worker = &mut self.workers[w];
        let now = worker.clock;
        if het_trace::enabled() {
            het_trace::set_scope(now.as_nanos(), Some(w as u64));
        }
        let faults = (!self.plan.is_empty()).then(|| FaultContext {
            plan: &self.plan,
            now,
            worker: w,
            ops: &mut self.worker_ops[w],
            stats: &mut self.fault_stats,
        });
        (worker, &self.env, faults, self.plane.as_deref())
    }

    /// Phase 1 of an iteration: acquire embeddings.
    fn do_read(&mut self, w: usize, keys: &[Key]) -> (EmbeddingStore, SimDuration) {
        let (worker, env, mut faults, plane) = self.step_parts(w);
        worker.read(keys, env, faults.as_mut(), plane)
    }

    /// Phase 2 of an iteration: the sparse write of the gradients a
    /// compute over `n_examples` produced, charged after that compute's
    /// modelled time. Returns the iteration's critical-path span (§4.1:
    /// the backbone may overlap communication with computation) and,
    /// for replicated mode, the gradients to gather at the barrier.
    fn do_write(
        &mut self,
        w: usize,
        flops: f64,
        (loss, grads): (f32, SparseGrads),
        read_time: SimDuration,
    ) -> (SimDuration, Option<SparseGrads>) {
        let now = self.workers[w].clock;
        let compute_factor = self.env.config.system.backbone.compute_factor;
        let mut compute = self.env.config.cluster.compute_time(flops * compute_factor);
        if !self.plan.is_empty() {
            // Straggler windows slow this worker's compute, not the math.
            let sf = self.plan.straggler_factor(w, now);
            if sf != 1.0 {
                compute = compute * sf;
                self.fault_stats.straggler_slow_iters += 1;
                if het_trace::enabled() {
                    het_trace::set_scope(now.as_nanos(), Some(w as u64));
                    het_trace::event!("trainer", "straggler_slow", "factor" => sf);
                }
            }
        }

        let (worker, env, mut faults, plane) = self.step_parts(w);
        let (write, gathered) = worker.write(grads, env, faults.as_mut());

        // Write-behind: the dirty evictions already reached the server
        // inside `write`, but their wire time was deferred — drain it
        // onto the plane's transmit channel, where it streams out
        // concurrently with later spans (and is paid in full at the
        // shutdown drain if the run ends first).
        if let (Some(plane), SparseEngine::Cached(c)) = (plane, &mut worker.sparse) {
            let bg = c.take_deferred_push();
            if bg > SimDuration::ZERO {
                let issue_at = now + read_time + compute;
                let (start, _) = plane.lock().unwrap().tx_transfer(w, issue_at, bg);
                if het_trace::enabled() {
                    het_trace::set_scope(start.as_nanos(), Some(w as u64));
                    het_trace::span!("prefetcher", "writeback_bg", bg.as_nanos());
                    het_trace::set_scope(now.as_nanos(), Some(w as u64));
                }
            }
        }

        worker.complete(compute, loss, write);
        let span = if env.config.system.backbone.overlap {
            compute.max(read_time + write)
        } else {
            read_time + compute + write
        };
        (span, gathered)
    }

    /// Worker `w`'s dense PS push/pull at its current clock.
    fn dense_ps_sync(&mut self, w: usize) -> SimDuration {
        let worker = &mut self.workers[w];
        if het_trace::enabled() {
            het_trace::set_scope(worker.clock.as_nanos(), Some(w as u64));
        }
        worker.dense_ps_sync(&mut self.replicas[w], &self.env)
    }

    /// Evaluates the current model against the held-out split from
    /// worker 0's point of view (its dense replica and cache view).
    pub fn evaluate_now(&mut self) -> f64 {
        self.workers[0].evaluate(&self.replicas[0], &self.env)
    }

    /// Worker 0's flat dense parameters (the report's `final_dense`).
    pub fn export_dense_params(&mut self) -> Vec<f32> {
        let mut flat = FlatParams::new();
        flat.export_from(&mut self.replicas[0].model);
        flat.into_vec()
    }

    fn record_eval(&mut self, sim_time: SimTime) -> bool {
        let metric = self.evaluate_now();
        let train_loss = mean_loss(
            self.replicas
                .iter_mut()
                .map(|r| std::mem::take(&mut r.loss)),
        );
        self.progress
            .record_eval(metric, train_loss, sim_time, self.env.config.target_metric)
    }

    /// Runs the full simulation on a private [`ClusterRuntime`] and
    /// returns the report. Co-scheduled setups (training + serving on
    /// one cluster) build the runtime themselves, [`Trainer::register`]
    /// the trainer first, register every other job, run, then
    /// [`Trainer::finalize`].
    pub fn run(&mut self) -> TrainReport {
        let mut rt = ClusterRuntime::new(self.env.config.tie_break, self.plan.clone());
        let mut prefetcher = self.register(&mut rt);
        let this: &mut dyn Process = self;
        let mut procs = vec![this];
        procs.extend(prefetcher.as_mut().map(|p| p as &mut dyn Process));
        rt.run(&mut procs);
        self.finalize()
    }

    /// Registers every process this trainer needs on `rt` and schedules
    /// its first events: the trainer itself (one round event for BSP,
    /// one event per worker for ASP/SSP), then, when lookahead
    /// prefetching is on, its [`Prefetcher`]. The prefetcher owns no
    /// cluster members — worker crashes and shard outages route to the
    /// trainer, which cancels the affected plane state — and is
    /// returned for the run list, right after the trainer. Register the
    /// trainer before any co-scheduled job: it owns members
    /// `0..n_workers`. The report's `wall_ns` counts from here, and the
    /// host threads a BSP round may use are read here, not in
    /// [`Trainer::new`], so building a job stays cheap.
    pub fn register(&mut self, rt: &mut ClusterRuntime) -> Option<Prefetcher> {
        // Failover restores from the last checkpoint, so a baseline
        // snapshot of the (deterministically initialised) table is taken
        // before training starts, from the plan this run uses. A plan
        // with no shard outage has nothing to restore: a checkpoint
        // copies the whole table, so then none is taken. Sized over the
        // *physical* shard count so shards populated by a live split
        // stay restorable.
        if !self.plan.shard_outages().is_empty() {
            let server = &self.env.server;
            let mut store = ShardCheckpointStore::new(server.n_shards(), self.env.config.dim);
            store.checkpoint_all(server).expect("in-memory checkpoint");
            self.fault_stats.checkpoints += 1;
            if het_trace::enabled() {
                het_trace::set_scope(0, None);
                het_trace::event!("ps", "checkpoint", "iteration" => 0u64);
            }
            self.ckpt_store = Some(store);
        }
        let pid = rt.register(self.workers.len());
        if self.host_threads == 0 {
            self.host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        }
        self.wall = WallClock::new();
        match self.env.config.system.sync {
            SyncMode::Bsp => rt.prime(pid, SimTime::ZERO, Event::Wake(0)),
            SyncMode::Asp | SyncMode::Ssp { .. } => {
                for w in 0..self.workers.len() {
                    rt.prime(pid, SimTime::ZERO, Event::Wake(w as u64));
                }
            }
        }
        let plane = self.plane.as_ref()?;
        let prefetcher = Prefetcher::new(
            Arc::clone(plane),
            self.env.server.clone(),
            self.env.net,
            wire::MessageCosts {
                fused: self.env.config.system.backbone.fuse_messages,
            },
            self.env.config.dim,
            self.plan.clone(),
        );
        self.prefetcher_pid = Some(rt.register(0));
        Some(prefetcher)
    }

    /// A BSP round's stages from sampling to the dense AllReduce,
    /// pipelined (DESIGN.md §3.2). Each worker's batch is sampled on a
    /// helper thread; its read runs here, in worker order, and releases
    /// its forward/backward pass to a helper; once every read has run,
    /// its write runs here, in worker order, as soon as that pass is
    /// done. So every server call, fault draw and trace emission keeps
    /// the serial order. Returns the longest worker span and the
    /// collectives' time.
    fn round_stages(&mut self) -> (SimDuration, SimDuration) {
        let env = Arc::clone(&self.env);
        let env = &*env;
        let n = self.workers.len();
        let allreduce = env.config.system.dense == DenseSync::AllReduce;
        let mut replicas = std::mem::take(&mut self.replicas);
        let mut replica_of = replicas.iter_mut();
        let average = OnceLock::new();
        let helpers = self.host_threads.min(n).max(1) - 1;
        let (span_max, barrier_time) = Helpers::run(helpers, |pool| {
            let samples: Vec<_> = (self.workers.iter())
                .map(|worker| {
                    let (w, iteration) = (worker.id, worker.iterations);
                    pool.spawn(move || env.sample(w, iteration))
                })
                .collect();
            let mut computes = Vec::with_capacity(n);
            for (w, sample) in samples.into_iter().enumerate() {
                let (batch, keys) = pool.wait(sample);
                let (store, t_read) = self.do_read(w, &keys);
                let replica = replica_of.next().expect("a replica per worker");
                let flops = replica.model.flops_per_batch(batch.n_examples());
                let compute = pool.spawn(move || {
                    let out = replica.compute(&batch, &store);
                    (replica, out, store)
                });
                computes.push((flops, t_read, compute));
            }
            let mut sum = allreduce.then(|| {
                let mut sum = std::mem::take(&mut self.dense_sum);
                sum.clear();
                sum
            });
            let mut span_max = SimDuration::ZERO;
            let mut gathered = Vec::new();
            let mut computed = Vec::with_capacity(n);
            for (w, (flops, t_read, compute)) in computes.into_iter().enumerate() {
                let (replica, out, store) = pool.wait(compute);
                // Freed by the thread that built it: one malloc arena
                // holds every round's stores.
                drop(store);
                let (span, g) = self.do_write(w, flops, out, t_read);
                span_max = span_max.max(span);
                gathered.extend(g);
                // Worker order: float addition order is part of the
                // bit-identity contract between the backends. Straight
                // from the model: no worker holds a copy of its own.
                if let Some(sum) = &mut sum {
                    sum.accumulate_from(&mut replica.model);
                }
                computed.push(replica);
            }
            // Barrier: collectives. Each replica steps by the dense
            // average on a helper; the accounting stays here.
            let steps: Vec<_> = match sum {
                Some(mut sum) => {
                    sum.scale(1.0 / n as f32);
                    let avg = average.get_or_init(|| sum);
                    let sgd = &env.sgd;
                    (computed.into_iter())
                        .map(|replica| pool.spawn(move || replica.step_dense(avg, sgd)))
                        .collect()
                }
                None => Vec::new(),
            };
            let mut barrier_time = SimDuration::ZERO;
            if !gathered.is_empty() {
                let t = apply_sparse_gather(&gathered, env);
                for worker in &mut self.workers {
                    worker.breakdown.sparse_write += t;
                }
                barrier_time += t;
            }
            if let Some(avg) = average.get() {
                let t = allreduce_time(avg, env);
                for w in 0..n {
                    let (worker, env, ..) = self.step_parts(w);
                    worker.account_dense_average(avg, t, env);
                }
                barrier_time += t;
            }
            steps.into_iter().for_each(|step| pool.wait(step));
            (span_max, barrier_time)
        });
        self.replicas = replicas;
        if let Some(avg) = average.into_inner() {
            self.dense_sum = avg;
        }
        (span_max, barrier_time)
    }

    /// One BSP round, dispatched as a single barrier-process event: all
    /// workers read, all compute and write, then the collectives close
    /// the round and the next round is scheduled at the barrier's exit.
    fn on_round(&mut self, ctx: &mut Ctx<'_>) {
        if self.progress.global_iterations >= self.env.config.max_iterations {
            self.stop_prefetch();
            ctx.stop();
            return;
        }
        let n = self.workers.len();
        let round_start = self.workers[0].clock;
        let mut restart_penalty = SimDuration::ZERO;
        if !self.plan.is_empty() {
            self.process_fault_events(round_start, ctx);
            // A crashed worker restarts within the round; under BSP
            // the barrier makes everyone wait for the longest restart.
            for w in 0..n {
                restart_penalty = restart_penalty.max(self.maybe_crash(w, round_start, ctx));
            }
        }
        let (span_max, mut barrier_time) = self.round_stages();
        if self.env.config.system.dense == DenseSync::Ps {
            // BSP over a dense PS (not used by the presets but
            // supported): each worker syncs; charge the max.
            let mut max_t = SimDuration::ZERO;
            for w in 0..n {
                max_t = max_t.max(self.dense_ps_sync(w));
            }
            barrier_time += max_t;
        }
        let round_time = span_max + barrier_time + restart_penalty;
        let now = round_start + round_time;
        if het_trace::enabled() {
            het_trace::set_scope((round_start + span_max).as_nanos(), None);
            het_trace::span!("trainer", "barrier", barrier_time.as_nanos(),
                "round_iters" => n, "round_end_ns" => now.as_nanos());
        }
        for worker in &mut self.workers {
            worker.clock = now;
        }
        self.progress.global_iterations += n as u64;
        let global = self.progress.global_iterations;

        if global % self.env.config.eval_every < n as u64 && self.record_eval(now) {
            self.stop_prefetch();
            ctx.stop();
            return;
        }
        if global >= self.env.config.max_iterations {
            self.stop_prefetch();
            ctx.stop();
        } else {
            // Keep the legacy wake first so depth-0 runs push events in
            // the exact order (and thus queue sequence) they always did.
            ctx.schedule(now, Event::Wake(0));
            // Issue prefetch pulls at the *start* of the round just
            // charged: they run on the network while the round's compute
            // span elapses, so by the next read at `now` all but the
            // unhidden tail of the transfer has already happened.
            for w in 0..n {
                self.plan_prefetch(w, round_start, ctx);
            }
        }
    }

    /// One ASP/SSP worker iteration, dispatched as a per-worker event.
    fn on_worker_event(
        &mut self,
        t: SimTime,
        w: usize,
        ssp_staleness: Option<u64>,
        ctx: &mut Ctx<'_>,
    ) {
        if self.progress.global_iterations >= self.env.config.max_iterations {
            self.stop_prefetch();
            ctx.stop();
            return;
        }
        // SSP: block workers too far ahead of the slowest.
        if let Some(s) = ssp_staleness {
            let min_iter = self.workers.iter().map(|x| x.iterations).min().unwrap_or(0);
            if self.workers[w].iterations > min_iter + s {
                // Retry just after the next completion of a slowest
                // worker — the earliest point the gate can reopen. (A
                // worker's clock is the time of its pending event.)
                // Retrying at peek+1 instead degenerates into a 1 ns
                // ping-pong between blocked workers whenever the slow
                // worker's event is far away, e.g. behind a straggler
                // window or a crash restart.
                let gate = self
                    .workers
                    .iter()
                    .filter(|x| x.iterations == min_iter)
                    .map(|x| x.clock)
                    .min()
                    .unwrap_or(t);
                let retry = ctx.wait_until(gate, Event::Wake(w as u64));
                if het_trace::enabled() {
                    het_trace::set_scope(t.as_nanos(), Some(w as u64));
                    het_trace::event!("trainer", "ssp_block",
                        "retry_ns" => retry.as_nanos());
                }
                return;
            }
        }
        let mut crash_delay = SimDuration::ZERO;
        if !self.plan.is_empty() {
            self.process_fault_events(t, ctx);
            self.workers[w].clock = t;
            crash_delay = self.maybe_crash(w, t, ctx);
            if crash_delay > SimDuration::ZERO {
                self.workers[w].clock = t + crash_delay;
            }
        }
        let (batch, keys) = self.env.sample(w, self.workers[w].iterations);
        let (store, t_read) = self.do_read(w, &keys);
        let replica = &mut self.replicas[w];
        let flops = replica.model.flops_per_batch(batch.n_examples());
        let out = replica.compute(&batch, &store);
        let (mut iter_time, gathered) = self.do_write(w, flops, out, t_read);
        debug_assert!(gathered.is_none(), "replicated sparse requires BSP");
        iter_time += self.dense_ps_sync(w);

        let now = t + crash_delay + iter_time;
        self.workers[w].clock = now;
        ctx.schedule(now, Event::Wake(w as u64));
        self.progress.global_iterations += 1;
        let global = self.progress.global_iterations;

        if global % self.env.config.eval_every == 0 && self.record_eval(now) {
            self.stop_prefetch();
            ctx.stop();
            return;
        }
        if global >= self.env.config.max_iterations {
            self.stop_prefetch();
            ctx.stop();
        } else {
            // Issue prefetch pulls at the point this iteration's compute
            // began — they transfer concurrently with the span just
            // charged and land (mostly) before the wake at `now`.
            self.plan_prefetch(w, t + crash_delay, ctx);
        }
    }

    /// Drains the caches and assembles the [`TrainReport`]. Called by
    /// [`Trainer::run`]; co-scheduled setups call it directly after the
    /// shared runtime's loop returns.
    pub fn finalize(&mut self) -> TrainReport {
        self.finish(ExecutionBackend::Sim)
    }

    /// The end of a run on either backend: stop the host clock, snapshot
    /// cache residency, flush every cache, evaluate, and assemble the
    /// report. The flush's trace scopes are stamped on the backend's
    /// clock; the fields a backend does not model stay zero.
    fn finish(&mut self, backend: ExecutionBackend) -> TrainReport {
        let wall_ns = self.wall.elapsed_ns();
        let sim = backend == ExecutionBackend::Sim;
        // Strand whatever the prefetcher still had queued or in flight
        // at shutdown: those keys count as cancelled, never installed.
        if let Some(p) = &self.plane {
            p.lock().unwrap().cancel_all();
            // Drain the transmit channels: deferred write-backs already
            // updated the server, but their wire time must finish
            // streaming before the run counts as over.
            let plane = p.lock().unwrap();
            for (i, worker) in self.workers.iter_mut().enumerate() {
                let drain = plane.tx_drain(i);
                if drain > worker.clock {
                    worker.clock = drain;
                }
            }
        }
        // Snapshot cache residency (the "stale path" key sets), then
        // flush so every pending update reaches the server.
        let resident_keys_per_worker: Vec<Vec<u64>> = self
            .workers
            .iter()
            .map(|w| match &w.sparse {
                SparseEngine::Cached(c) => {
                    let mut keys: Vec<u64> = c.cache().keys().collect();
                    keys.sort_unstable();
                    keys
                }
                _ => Vec::new(),
            })
            .collect();
        for worker in self.workers.iter_mut().filter(|w| w.is_cached()) {
            if het_trace::enabled() {
                let now = if sim {
                    worker.clock.as_nanos()
                } else {
                    self.wall.stamp()
                };
                het_trace::set_scope(now, Some(worker.id as u64));
            }
            worker.flush(&self.env);
        }
        let final_metric = self.evaluate_now();
        let (comm, cache, breakdown) = merged_stats(&self.workers);
        // Threads charge host compute time beside modelled network time:
        // there neither the breakdown nor a worker clock means anything.
        let (total_sim_time, breakdown) = if sim {
            let end = self.workers.iter().map(|w| w.clock).max();
            (end.unwrap_or(SimTime::ZERO), breakdown)
        } else {
            (SimTime::ZERO, TimeBreakdown::default())
        };
        let config = &self.env.config;
        let server = &self.env.server;
        let examples = self.progress.global_iterations * config.batch_size as u64;
        let epochs = examples as f64 / self.env.dataset.epoch_examples().max(1) as f64;
        // Tiered-store accounting: absent for Mem runs so their reports
        // (and traces) stay byte-identical to the legacy path. Any disk
        // time the final flush left pending has no leg to ride — fold
        // it into the client pool total here.
        let store = match &config.store {
            het_ps::StoreSpec::Mem => None,
            het_ps::StoreSpec::Tiered(_) => {
                let stats = server.store_stats();
                let client_io_ns = stats.io_ns.saturating_sub(server.background_io_ns());
                let summary = crate::report::StoreSummary {
                    client_io_ns,
                    background_io_ns: server.background_io_ns(),
                    resident_rows: server.resident_rows() as u64,
                    total_rows: server.len() as u64,
                    stats,
                };
                // The per-op counters (hot_hits, demotions, …) are
                // emitted by the store itself; only the modelled disk
                // time — which the store accrues silently — is stamped
                // here, split the way the report splits it.
                if het_trace::enabled() {
                    het_trace::counter_add("store", "io_ns", summary.stats.io_ns);
                    het_trace::counter_add("store", "client_io_ns", summary.client_io_ns);
                    het_trace::counter_add("store", "background_io_ns", summary.background_io_ns);
                }
                Some(summary)
            }
        };
        TrainReport {
            system: config.system.name.to_string(),
            backend,
            wall_ns,
            curve: self.progress.curve.clone(),
            total_sim_time,
            total_iterations: self.progress.global_iterations,
            examples_processed: examples,
            epochs,
            converged_at: self.progress.converged_at,
            final_metric,
            comm,
            cache,
            breakdown,
            resident_keys_per_worker,
            faults: self.fault_stats.clone(),
            fault_events: self.fault_events.clone(),
            prefetch: self.plane.as_ref().map(|p| p.lock().unwrap().summary()),
            store,
            final_dense: self.export_dense_params(),
            trace: None,
        }
    }
}

impl<M: EmbeddingModel, D: Dataset<Batch = M::Batch>> Process for Trainer<M, D> {
    fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx<'_>) {
        // Trace scopes and fault-context worker indices use raw worker
        // numbers, so the trainer must own the first member block.
        debug_assert_eq!(
            ctx.member_offset(),
            0,
            "register the trainer before any co-scheduled job"
        );
        let Event::Wake(w) = ev else { return };
        match self.env.config.system.sync {
            SyncMode::Bsp => self.on_round(ctx),
            SyncMode::Asp => self.on_worker_event(t, w as usize, None, ctx),
            SyncMode::Ssp { staleness } => {
                self.on_worker_event(t, w as usize, Some(staleness), ctx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemPreset;
    use het_data::{CtrConfig, CtrDataset, GraphConfig, NeighborSampler};
    use het_models::{GnnDataset, GraphSage, WideDeep};

    fn ctr_trainer(preset: SystemPreset) -> Trainer<WideDeep, CtrDataset> {
        let dataset = CtrDataset::new(CtrConfig::tiny(7));
        let config = TrainerConfig::tiny(preset);
        Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]))
    }

    #[test]
    #[should_panic(expected = "sync asp cannot run dense allreduce or sparse allgather")]
    fn async_workers_with_round_collectives_are_refused() {
        let mut config = TrainerConfig::tiny(SystemPreset::HetAr);
        config.system.sync = SyncMode::Asp;
        let dataset = CtrDataset::new(CtrConfig::tiny(7));
        Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    }

    #[test]
    fn every_preset_runs_to_completion() {
        for preset in [
            SystemPreset::TfPs,
            SystemPreset::TfParallax,
            SystemPreset::HetPs,
            SystemPreset::HetAr,
            SystemPreset::HetHybrid,
            SystemPreset::HetCache { staleness: 10 },
            SystemPreset::Ssp { staleness: 2 },
        ] {
            let report = ctr_trainer(preset).run();
            assert!(report.total_iterations >= 200, "{preset:?}");
            assert!(report.total_sim_time > SimTime::ZERO, "{preset:?}");
            assert!(report.final_metric.is_finite(), "{preset:?}");
            assert!(!report.curve.is_empty(), "{preset:?}");
        }
    }

    #[test]
    fn bsp_workers_share_a_clock() {
        let mut t = ctr_trainer(SystemPreset::HetHybrid);
        let report = t.run();
        // total sim time equals every worker's clock under BSP (flush may
        // nudge cached systems; hybrid has no cache).
        assert!(report.total_sim_time > SimTime::ZERO);
        let clocks: Vec<SimTime> = t.workers.iter().map(|w| w.clock).collect();
        assert!(clocks.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn asp_workers_drift_apart() {
        let mut t = ctr_trainer(SystemPreset::HetPs);
        let _ = t.run();
        let iters: Vec<u64> = t.workers.iter().map(|w| w.iterations).collect();
        let total: u64 = iters.iter().sum();
        assert_eq!(total, t.progress.global_iterations);
    }

    #[test]
    fn ssp_bounds_iteration_spread() {
        let mut t = ctr_trainer(SystemPreset::Ssp { staleness: 2 });
        let _ = t.run();
        let min = t.workers.iter().map(|w| w.iterations).min().unwrap();
        let max = t.workers.iter().map(|w| w.iterations).max().unwrap();
        assert!(max - min <= 3, "SSP spread {min}..{max} exceeds bound");
    }

    #[test]
    fn cache_reduces_embedding_bytes_vs_hybrid() {
        let cached = ctr_trainer(SystemPreset::HetCache { staleness: 100 }).run();
        let hybrid = ctr_trainer(SystemPreset::HetHybrid).run();
        assert!(
            cached.comm.embedding_bytes() < hybrid.comm.embedding_bytes(),
            "cached {} !< hybrid {}",
            cached.comm.embedding_bytes(),
            hybrid.comm.embedding_bytes()
        );
        assert!(cached.cache.hits > 0, "cache must actually hit");
    }

    #[test]
    fn cached_system_is_faster_per_iteration() {
        // The tiny dataset has only 200 keys and 64-key batches, so the
        // paper's 10% cache would thrash; give the cache a working-set
        // sized capacity as the paper's setups do (cache >> batch).
        let dataset = CtrDataset::new(CtrConfig::tiny(7));
        let config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 100 })
            .with_cache(0.6, het_cache::PolicyKind::light_lfu());
        let cached = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16])).run();
        let hybrid = ctr_trainer(SystemPreset::HetHybrid).run();
        let t_cached = cached.total_sim_time.as_secs_f64() / cached.total_iterations as f64;
        let t_hybrid = hybrid.total_sim_time.as_secs_f64() / hybrid.total_iterations as f64;
        assert!(
            t_cached < t_hybrid,
            "cached {t_cached} !< hybrid {t_hybrid}"
        );
    }

    #[test]
    fn gnn_workload_trains() {
        let graph = het_data::Graph::generate(GraphConfig::tiny(3));
        let n_classes = graph.config().n_classes;
        let dataset = GnnDataset::new(graph, NeighborSampler::new(4, 3));
        let config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
        let mut trainer = Trainer::new(config, dataset, move |rng| {
            GraphSage::new(rng, 8, 16, n_classes)
        });
        let report = trainer.run();
        assert!(report.total_iterations >= 200);
        assert!(report.final_metric >= 0.0 && report.final_metric <= 1.0);
    }

    #[test]
    fn target_metric_stops_early() {
        let dataset = CtrDataset::new(CtrConfig::tiny(7));
        let mut config = TrainerConfig::tiny(SystemPreset::HetHybrid);
        config.target_metric = Some(0.0); // trivially reached at first eval
        config.max_iterations = 100_000;
        let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
        let report = trainer.run();
        assert!(report.converged_at.is_some());
        assert!(report.total_iterations < 100_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = ctr_trainer(SystemPreset::HetCache { staleness: 10 }).run();
        let b = ctr_trainer(SystemPreset::HetCache { staleness: 10 }).run();
        assert_eq!(a.total_sim_time, b.total_sim_time);
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.final_metric, b.final_metric);
        let curve_a: Vec<f64> = a.curve.iter().map(|p| p.metric).collect();
        let curve_b: Vec<f64> = b.curve.iter().map(|p| p.metric).collect();
        assert_eq!(curve_a, curve_b);
    }

    #[test]
    fn breakdown_accounts_all_phases() {
        let report = ctr_trainer(SystemPreset::TfParallax).run();
        assert!(report.breakdown.sparse_read > SimDuration::ZERO);
        assert!(report.breakdown.compute > SimDuration::ZERO);
        assert!(report.breakdown.sparse_write > SimDuration::ZERO);
        assert!(report.breakdown.dense_sync > SimDuration::ZERO);
    }

    #[test]
    fn replicated_mode_reads_are_free() {
        let report = ctr_trainer(SystemPreset::HetAr).run();
        assert_eq!(report.breakdown.sparse_read, SimDuration::ZERO);
        assert!(report.comm.bytes(het_simnet::CommCategory::SparseAllGather) > 0);
        assert_eq!(
            report.comm.bytes(het_simnet::CommCategory::EmbeddingFetch),
            0
        );
    }
}
