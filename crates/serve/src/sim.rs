//! The discrete-event serving simulator.
//!
//! N replicas, each a [`HetClient`] read path in front of a trained
//! model, drain an open-loop request schedule under join-shortest-queue
//! routing and per-replica micro-batching. The fleet is a
//! [`Process`] scheduled by the shared [`ClusterRuntime`] event loop —
//! request arrivals are primed as `Arrive` events, replica wake-ups are
//! self-scheduled `Wake` events, and replica crashes arrive through the
//! runtime's centralized fault delivery — so a run is a pure function
//! of its [`ServeConfig`], and the same fleet can be co-scheduled with
//! a live trainer against one PS fabric (see [`crate::colocate`]).

use crate::config::ServeConfig;
use crate::report::{ReplicaReport, ServeReport};
use crate::supervise::{Autoscaler, ControlPlane, Supervisor, CONTROL_WAKE, HEARTBEAT_WAKE};
use crate::workload::{generate_requests, key_of, pretrain, warmup_seed, Request};
use het_core::fault::{FaultContext, FaultStats};
use het_core::HetClient;
use het_data::{CtrBatch, Key, LatencyHistogram, SpaceSaving, ZipfSampler};
use het_models::EmbeddingModel;
use het_ps::{PsConfig, PsServer, ServerHandle, ServerOptimizer};
use het_rng::rngs::StdRng;
use het_rng::SeedableRng;
use het_runtime::{ClusterRuntime, Ctx, Event, Process, ProcessId, WallClock};
use het_simnet::{Collectives, CommStats, FaultPlan, SimDuration, SimTime, TieBreak};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Serving is forward-only; the models estimate forward+backward FLOPs,
/// of which the forward pass is roughly a third (one matmul sweep
/// instead of three). Fixed so reports are comparable across runs.
const FORWARD_FLOP_FRACTION: f64 = 1.0 / 3.0;

/// A private PS fabric for a serving run, with `spares` extra physical
/// shards reserved for live splits.
pub(crate) fn private_server(cfg: &ServeConfig, spares: usize) -> ServerHandle {
    ServerHandle::new(PsServer::with_store(
        PsConfig {
            dim: cfg.dim,
            n_shards: cfg.n_shards,
            lr: cfg.lr,
            seed: cfg.seed,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        },
        spares,
        &cfg.store,
    ))
}

/// The SpaceSaving warmup set: replays the popularity distribution
/// through the sketch offline and returns its top keys, to pre-install
/// into every replica cache before the first request lands.
pub(crate) fn warmup_keys(cfg: &ServeConfig) -> Vec<Key> {
    if cfg.warmup_requests == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(warmup_seed(cfg));
    let zipf = ZipfSampler::new(cfg.n_keys as usize, cfg.zipf_exponent);
    let mut sketch = SpaceSaving::new(cfg.cache_capacity);
    for _ in 0..cfg.warmup_requests * cfg.n_fields {
        let rank = zipf.sample(&mut rng) as u64;
        sketch.observe(key_of(rank, SimTime::ZERO, cfg));
    }
    let top = sketch.top(cfg.cache_capacity);
    top.into_iter().map(|(k, _)| k).collect()
}

/// What one micro-batch did.
pub(crate) struct BatchOutcome {
    /// Modelled embedding-resolution time.
    pub lookup: SimDuration,
    /// Distinct keys resolved.
    pub unique_keys: usize,
    /// Sum and count of the model's scores.
    pub score_sum: f64,
    pub scores: u64,
}

/// What a replica is on either backend: a read-only cache client in
/// front of the served model, plus its communication accounting.
pub(crate) struct ReplicaCore<M> {
    pub client: HetClient,
    pub model: M,
    pub comm: CommStats,
}

impl<M: EmbeddingModel<Batch = CtrBatch>> ReplicaCore<M> {
    /// Builds one replica. Every replica gets an identically seeded
    /// RNG, so the fleet serves the same model.
    pub fn new(cfg: &ServeConfig, model_fn: &impl Fn(&mut StdRng) -> M) -> Self {
        let model = model_fn(&mut StdRng::seed_from_u64(cfg.seed));
        assert_eq!(
            model.embedding_dim(),
            cfg.dim,
            "model embedding dim must match the config"
        );
        let mut client = HetClient::new(
            cfg.cache_capacity,
            cfg.staleness,
            cfg.policy,
            cfg.dim,
            cfg.lr,
        );
        // A serving replica must never dirty an entry — enforce it at
        // the table level, not by convention.
        client.cache_mut().set_read_only(true);
        ReplicaCore {
            client,
            model,
            comm: CommStats::default(),
        }
    }

    /// One serving micro-batch: staleness-bounded embedding resolution
    /// over the batch's unique keys (the micro-batch analogue of the
    /// trainer's read), then the forward pass.
    pub fn serve_batch<'a>(
        &mut self,
        reqs: impl Iterator<Item = &'a Request>,
        n_fields: usize,
        server: &PsServer,
        net: &Collectives,
        faults: Option<&mut FaultContext<'_>>,
    ) -> BatchOutcome {
        let keys: Vec<Key> = reqs.flat_map(|r| r.keys.iter().copied()).collect();
        let mut unique = keys.clone();
        unique.sort_unstable();
        unique.dedup();
        let client = &mut self.client;
        let (store, lookup) = client.read(&unique, server, net, &mut self.comm, faults);
        // `Het.Read` installs fetched entries past capacity; training
        // trims the overflow in `Het.Write`, which serving never calls,
        // so trim here. Read-only entries are always clean.
        let evicted = client.cache_mut().evict_overflow();
        debug_assert!(
            evicted.iter().all(|(_, e)| !e.dirty),
            "read-only cache evicted a dirty entry"
        );
        let batch = CtrBatch {
            labels: vec![0.0; keys.len() / n_fields],
            keys,
            n_fields,
        };
        let chunk = self.model.evaluate(&batch, &store);
        BatchOutcome {
            lookup,
            unique_keys: unique.len(),
            score_sum: chunk.scores.iter().map(|&s| s as f64).sum(),
            scores: chunk.scores.len() as u64,
        }
    }
}

struct Replica<M> {
    core: ReplicaCore<M>,
    queue: VecDeque<usize>,
    busy_until: SimTime,
    ops: u64,
    hist: LatencyHistogram,
    requests: u64,
    batches: u64,
    crash_count: u64,
}

/// A deterministic online-inference run: request generation, replica
/// micro-batching, staleness-bounded embedding reads against a live PS,
/// and fault injection, accounted into a [`ServeReport`].
pub struct ServeSim<M: EmbeddingModel<Batch = CtrBatch>> {
    cfg: ServeConfig,
    server: ServerHandle,
    net: Collectives,
    replicas: Vec<Replica<M>>,
    plan: FaultPlan,
    /// First cluster-member index of this fleet in the fault plan
    /// (non-zero when co-scheduled after a trainer).
    member_offset: usize,
    fault_stats: FaultStats,
    /// Updates applied to the PS before serving started.
    pretrained: u64,
    requests: Vec<Request>,
    hist: LatencyHistogram,
    queue_wait_ns: u64,
    lookup_ns: u64,
    infer_ns: u64,
    score_sum: f64,
    score_count: u64,
    warmed_keys: u64,
    end_time: SimTime,
    // --- supervision / elasticity (all inert when `control` is None) ---
    /// Shared state with the supervisor/autoscaler; `None` when both
    /// are disabled, in which case the run takes the legacy path
    /// byte-for-byte.
    control: Option<Rc<RefCell<ControlPlane>>>,
    /// Replicas currently crashed and awaiting a supervised respawn.
    down: Vec<bool>,
    /// Replicas that have served at least once (admit-warming skips
    /// them: their caches are already warm).
    ever_admitted: Vec<bool>,
    /// Live popularity sketch over arrived request keys, used to warm
    /// respawned and newly admitted replicas.
    sketch: Option<SpaceSaving>,
    /// Short-window popularity sketch for drift-triggered respawn
    /// prefetch; `None` unless `supervision.drift_prefetch`.
    recent_sketch: Option<SpaceSaving>,
    /// The previous full short window, so a rotation boundary never
    /// blinds the drift detector.
    prev_sketch: Option<SpaceSaving>,
    /// Start of the current short window.
    recent_since: SimTime,
    /// Keys installed by drift-triggered respawn prefetch.
    drift_prefetched: u64,
    served_total: u64,
    respawns: u64,
    retry_waits: u64,
    /// Host time of the run, restarted by [`ServeSim::prime`].
    wall: WallClock,
}

impl<M: EmbeddingModel<Batch = CtrBatch>> ServeSim<M> {
    /// Builds the simulator over a private PS fabric. `model_fn`
    /// constructs one replica's model from a seeded RNG; every replica
    /// gets an identically seeded RNG, so the fleet serves the same
    /// model.
    pub fn new(cfg: ServeConfig, model_fn: impl Fn(&mut StdRng) -> M) -> Self {
        let fleet = if cfg.autoscale.enabled {
            cfg.autoscale.max_replicas
        } else {
            cfg.n_replicas
        };
        let plan = cfg.faults.plan(cfg.seed, fleet, cfg.n_shards);
        Self::with_plan(cfg, plan, model_fn)
    }

    /// Like [`ServeSim::new`], but with an explicit fault plan (e.g.
    /// scripted, or loaded from a `--fault-plan` file) instead of the
    /// one `cfg.faults` would generate. Plan member indices address the
    /// fleet directly (replica `r` is member `r`).
    pub fn with_plan(
        cfg: ServeConfig,
        plan: FaultPlan,
        model_fn: impl Fn(&mut StdRng) -> M,
    ) -> Self {
        cfg.validate();
        // A planned live split needs a spare physical shard to split
        // into; an unused spare changes nothing about routing.
        let spares = usize::from(cfg.supervision.reshard.is_some());
        let server = private_server(&cfg, spares);
        Self::assemble(cfg, server, plan, 0, model_fn)
    }

    /// Builds the simulator over a *shared* PS fabric for co-scheduling
    /// with another job on one [`ClusterRuntime`]. The cluster's fault
    /// plan replaces the one `cfg.faults` would generate (the shared
    /// cluster owns fault injection), and `member_offset` is the
    /// fleet's first member index within that plan — register the fleet
    /// on the runtime at the same offset.
    pub fn with_shared(
        cfg: ServeConfig,
        server: ServerHandle,
        plan: FaultPlan,
        member_offset: usize,
        model_fn: impl Fn(&mut StdRng) -> M,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            server.dim(),
            cfg.dim,
            "shared PS fabric dim must match the serve config"
        );
        Self::assemble(cfg, server, plan, member_offset, model_fn)
    }

    fn assemble(
        cfg: ServeConfig,
        server: ServerHandle,
        plan: FaultPlan,
        member_offset: usize,
        model_fn: impl Fn(&mut StdRng) -> M,
    ) -> Self {
        // Elastic fleets are built at their ceiling; only the admitted
        // prefix takes traffic until the autoscaler grows the pool.
        let fleet = if cfg.autoscale.enabled {
            cfg.autoscale.max_replicas
        } else {
            cfg.n_replicas
        };
        let supervised = cfg.supervision.enabled || cfg.autoscale.enabled;
        let replicas = (0..fleet)
            .map(|_| Replica {
                core: ReplicaCore::new(&cfg, &model_fn),
                queue: VecDeque::new(),
                busy_until: SimTime::ZERO,
                ops: 0,
                hist: LatencyHistogram::new(),
                requests: 0,
                batches: 0,
                crash_count: 0,
            })
            .collect();
        let requests = generate_requests(&cfg);
        let control = supervised.then(|| {
            let cp = ControlPlane::new(fleet, cfg.n_replicas);
            cp.borrow_mut().total = requests.len() as u64;
            cp
        });
        ServeSim {
            net: cfg.cluster.collectives(),
            server,
            down: vec![false; fleet],
            ever_admitted: (0..fleet).map(|r| r < cfg.n_replicas).collect(),
            sketch: supervised.then(|| SpaceSaving::new(cfg.cache_capacity)),
            recent_sketch: (supervised && cfg.supervision.drift_prefetch)
                .then(|| SpaceSaving::new(cfg.cache_capacity)),
            prev_sketch: None,
            recent_since: SimTime::ZERO,
            drift_prefetched: 0,
            control,
            replicas,
            plan,
            member_offset,
            fault_stats: FaultStats::default(),
            pretrained: 0,
            requests,
            hist: LatencyHistogram::new(),
            queue_wait_ns: 0,
            lookup_ns: 0,
            infer_ns: 0,
            score_sum: 0.0,
            score_count: 0,
            warmed_keys: 0,
            end_time: SimTime::ZERO,
            served_total: 0,
            respawns: 0,
            retry_waits: 0,
            wall: WallClock::new(),
            cfg,
        }
    }

    /// The shared control plane, present when supervision or
    /// autoscaling is enabled. Co-scheduled setups hand clones to the
    /// [`Supervisor`] and [`Autoscaler`] they register alongside the
    /// fleet.
    pub fn control_plane(&self) -> Option<Rc<RefCell<ControlPlane>>> {
        self.control.clone()
    }

    /// Pre-installs the [`warmup_keys`] into every replica cache.
    fn warm_replicas(&mut self) {
        let top = warmup_keys(&self.cfg);
        if top.is_empty() {
            return;
        }
        self.warmed_keys = top.len() as u64;
        for (r, replica) in self.replicas.iter_mut().enumerate() {
            het_trace::set_scope(0, Some((self.member_offset + r) as u64));
            for &k in &top {
                let pulled = self.server.pull(k);
                let displaced =
                    replica
                        .core
                        .client
                        .cache_mut()
                        .install(k, pulled.vector, pulled.clock);
                debug_assert!(displaced.is_none(), "warmup installs into an empty cache");
            }
            het_trace::counter_add("serve", "warmed_keys", top.len() as u64);
        }
        // Warmup runs before the first request; its cold fetches must
        // not surface in request latency.
        self.server.reclassify_pending_io();
    }

    /// Join-shortest-queue over `cand`, ties to the earliest-free then
    /// lowest index.
    fn best_of(&self, cand: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut best: Option<usize> = None;
        for r in cand {
            best = Some(match best {
                None => r,
                Some(b) => {
                    let (a, p) = (&self.replicas[r], &self.replicas[b]);
                    if (a.queue.len(), a.busy_until, r) < (p.queue.len(), p.busy_until, b) {
                        r
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    /// Routes a request: JSQ over admitted, live replicas; falls back
    /// to admitted-but-down replicas (the balancer holds their queues
    /// through a supervised respawn), then to the whole fleet.
    fn route(&self) -> usize {
        let n = self.replicas.len();
        let Some(cp) = self.control.as_ref() else {
            return self.best_of(0..n).expect("non-empty fleet");
        };
        let cp = cp.borrow();
        self.best_of((0..n).filter(|&r| cp.admitted[r] && !self.down[r]))
            .or_else(|| self.best_of((0..n).filter(|&r| cp.admitted[r])))
            .unwrap_or_else(|| self.best_of(0..n).expect("non-empty fleet"))
    }

    /// Applies every crash `take` has due for replica `r` at or before
    /// `t` (the runtime's fault delivery, through a [`Ctx`] mid-run or
    /// the runtime itself in the epilogue).
    fn apply_crashes(
        &mut self,
        r: usize,
        t: SimTime,
        mut take: impl FnMut(usize, SimTime) -> Option<(SimTime, SimDuration)>,
    ) {
        while let Some((at, restart)) = take(r, t) {
            self.apply_crash(r, at, restart);
        }
    }

    /// One crash: the cache is lost cold. Queued requests survive (the
    /// balancer holds them), which is how the latency cost of a crash
    /// surfaces. Unsupervised, the replica is out until the scripted
    /// restart delay elapses. Supervised, it goes *down indefinitely*
    /// and the restart delay is ignored, because recovery is then the
    /// supervisor's job (detection via heartbeat age, respawn via the
    /// control plane).
    fn apply_crash(&mut self, r: usize, at: SimTime, restart: SimDuration) {
        let replica = &mut self.replicas[r];
        het_trace::set_scope(at.as_nanos(), Some((self.member_offset + r) as u64));
        let (lost, dirty_lost, _) = replica.core.client.crash_reset();
        debug_assert_eq!(dirty_lost, 0, "read-only caches hold no dirty entries");
        replica.crash_count += 1;
        self.fault_stats.worker_crashes += 1;
        self.fault_stats.keys_lost += lost;
        if self.cfg.supervision.enabled {
            self.down[r] = true;
            het_trace::event!("serve", "replica_crash", "keys_lost" => lost);
        } else {
            replica.busy_until = replica.busy_until.max(at + restart);
            het_trace::span!("serve", "replica_crash", restart.as_nanos(), "keys_lost" => lost);
        }
    }

    /// If the batch replica `r` would launch at `t` needs a PS shard
    /// that is mid-outage, returns the shard and how long the retry
    /// schedule backs off to outlast the outage. `None` when no needed
    /// shard is down — or when the retry budget cannot cover the
    /// outage, in which case the read proceeds on the degraded path
    /// (resident entries served stale).
    fn outage_retry_wait(&self, r: usize, t: SimTime) -> Option<(usize, SimDuration)> {
        if self.plan.is_empty() {
            return None;
        }
        let replica = &self.replicas[r];
        let n_take = replica.queue.len().min(self.cfg.max_batch);
        let mut worst: Option<(usize, SimTime)> = None;
        for &i in replica.queue.iter().take(n_take) {
            for &k in &self.requests[i].keys {
                let shard = self.server.shard_index_of(k);
                if let Some(end) = self.plan.shard_outage_end(shard, t) {
                    match worst {
                        Some((_, e)) if end <= e => {}
                        _ => worst = Some((shard, end)),
                    }
                }
            }
        }
        let (shard, end) = worst?;
        let wait = self.cfg.supervision.retry.time_to_reach(end.since(t))?;
        Some((shard, wait))
    }

    /// One scheduling step for replica `r` at time `t`: either launch a
    /// micro-batch, or schedule the wake-up that will.
    fn step(&mut self, r: usize, t: SimTime, ctx: &mut Ctx<'_>) {
        self.apply_crashes(r, t, |r, t| ctx.take_crash(r, t));
        if self.down[r] {
            // Queued requests wait for the supervised respawn.
            return;
        }
        let replica = &self.replicas[r];
        if replica.queue.is_empty() {
            return;
        }
        if t < replica.busy_until {
            ctx.schedule(replica.busy_until, Event::Wake(r as u64));
            return;
        }
        let oldest = self.requests[*replica.queue.front().expect("non-empty")].at;
        let deadline = oldest + self.cfg.max_queue_delay;
        if replica.queue.len() < self.cfg.max_batch && t < deadline {
            ctx.schedule(deadline, Event::Wake(r as u64));
            return;
        }
        if self.cfg.supervision.enabled {
            if let Some((shard, wait)) = self.outage_retry_wait(r, t) {
                het_trace::set_scope(t.as_nanos(), Some((self.member_offset + r) as u64));
                self.replicas[r].busy_until = t + wait;
                self.retry_waits += 1;
                het_trace::span!("serve", "retry_wait", wait.as_nanos(), "shard" => shard);
                het_trace::count!("serve", "retry_waits");
                ctx.schedule(t + wait, Event::Wake(r as u64));
                return;
            }
        }
        self.execute_batch(r, t, ctx);
    }

    /// Heartbeat period of the fleet: supervision's heartbeat when
    /// enabled, otherwise the autoscaler's evaluation period (the
    /// control plane still needs fresh queue depths).
    fn heartbeat_period(&self) -> SimDuration {
        if self.cfg.supervision.enabled {
            self.cfg.supervision.heartbeat_every
        } else {
            self.cfg.autoscale.evaluate_every
        }
    }

    /// One heartbeat tick: apply any crashes due (so a crashed replica
    /// stops heartbeating *from its crash instant*, which is what the
    /// supervisor detects), then post liveness and queue depth into the
    /// control plane.
    fn on_heartbeat(&mut self, t: SimTime, ctx: &mut Ctx<'_>) {
        if self.cfg.supervision.enabled {
            for r in 0..self.replicas.len() {
                self.apply_crashes(r, t, |r, t| ctx.take_crash(r, t));
            }
        }
        // Rotate the drift detector's short window on heartbeat ticks;
        // each completed window triggers a prefetch round that installs
        // its newly-hot keys into every live admitted replica.
        let mut rotated = false;
        if let Some(recent) = self.recent_sketch.as_mut() {
            if t.since(self.recent_since) >= self.cfg.supervision.drift_window {
                let fresh = SpaceSaving::new(self.cfg.cache_capacity);
                self.prev_sketch = Some(std::mem::replace(recent, fresh));
                self.recent_since = t;
                rotated = true;
            }
        }
        if rotated {
            let live: Vec<usize> = {
                let cp = self.control.as_ref().expect("heartbeat implies control");
                let cp = cp.borrow();
                (0..self.replicas.len())
                    .filter(|&r| cp.admitted[r] && !self.down[r])
                    .collect()
            };
            for r in live {
                self.prefetch_drifted(r, t);
            }
        }
        let done = self.served_total == self.requests.len() as u64;
        let cp = self.control.clone().expect("heartbeat implies control");
        {
            let mut cp = cp.borrow_mut();
            for r in 0..self.replicas.len() {
                if !self.down[r] {
                    cp.last_heartbeat[r] = t;
                }
                cp.queue_depth[r] = self.replicas[r].queue.len();
            }
            cp.served = self.served_total;
            cp.done = done;
        }
        if !done {
            ctx.schedule(t + self.heartbeat_period(), Event::Wake(HEARTBEAT_WAKE));
        }
    }

    /// Applies control-plane commands that have come due: supervised
    /// respawns and autoscaler admissions.
    fn on_control(&mut self, t: SimTime, ctx: &mut Ctx<'_>) {
        let cp = self.control.clone().expect("control wake implies control");
        let mut respawn = Vec::new();
        let mut admit = Vec::new();
        {
            let mut cp = cp.borrow_mut();
            for r in 0..self.replicas.len() {
                if cp.respawn_at[r].is_some_and(|at| at <= t) {
                    cp.respawn_at[r] = None;
                    // Stamp the heartbeat so the supervisor sees the
                    // replica recover instead of re-detecting it.
                    cp.last_heartbeat[r] = t;
                    respawn.push(r);
                }
                if cp.admit_at[r].is_some_and(|at| at <= t) {
                    cp.admit_at[r] = None;
                    cp.admitted[r] = true;
                    admit.push(r);
                }
            }
        }
        for r in respawn {
            self.respawn_replica(r, t);
            self.step(r, t, ctx);
        }
        for r in admit {
            self.admit_replica(r, t);
            self.step(r, t, ctx);
        }
    }

    /// Brings a crashed replica back: cache warmed from the live
    /// popularity sketch, queue intact (the balancer held it).
    fn respawn_replica(&mut self, r: usize, t: SimTime) {
        het_trace::set_scope(t.as_nanos(), Some((self.member_offset + r) as u64));
        self.down[r] = false;
        self.replicas[r].busy_until = self.replicas[r].busy_until.max(t);
        let warmed = self.warm_one_from_sketch(r);
        let prefetched = self.prefetch_drifted(r, t);
        self.respawns += 1;
        het_trace::event!("serve", "replica_respawn",
            "keys_warmed" => warmed, "keys_prefetched" => prefetched);
    }

    /// Admits a scaled-up replica into the JSQ pool, warming its cache
    /// first if it has never served (replicas pre-warmed at startup by
    /// `warmup_requests` are already hot).
    fn admit_replica(&mut self, r: usize, t: SimTime) {
        het_trace::set_scope(t.as_nanos(), Some((self.member_offset + r) as u64));
        let mut warmed = 0;
        if !self.ever_admitted[r] {
            self.ever_admitted[r] = true;
            if self.cfg.warmup_requests == 0 {
                warmed = self.warm_one_from_sketch(r);
            }
        }
        het_trace::event!("serve", "replica_admit", "keys_warmed" => warmed);
    }

    /// Installs the live sketch's top keys into replica `r`'s (empty)
    /// cache. Returns the number of keys installed.
    fn warm_one_from_sketch(&mut self, r: usize) -> u64 {
        let Some(sketch) = self.sketch.as_ref() else {
            return 0;
        };
        let top: Vec<(Key, u64)> = sketch.top(self.cfg.cache_capacity);
        let replica = &mut self.replicas[r];
        for &(k, _) in &top {
            let pulled = self.server.pull(k);
            let _ = replica
                .core
                .client
                .cache_mut()
                .install(k, pulled.vector, pulled.clock);
        }
        self.server.reclassify_pending_io();
        het_trace::counter_add("serve", "warmed_keys", top.len() as u64);
        top.len() as u64
    }

    /// Drift-triggered prefetch into replica `r`: pulls the keys that
    /// are hot in the *recent* window (plus the previous one, so a
    /// rotation boundary never blinds it) but not resident — exactly
    /// the hot-set drift a snapshot-warmed cache lags behind — and
    /// lands them as prefetched entries, so their first hits show up in
    /// `prefetch_hits`. Runs on every window rotation for live admitted
    /// replicas and once more inside a supervised respawn, right after
    /// the lifetime-sketch warmup. Capped at a quarter of the cache per
    /// round so a mistaken drift signal cannot flush the resident hot
    /// set. Returns the number of keys installed.
    fn prefetch_drifted(&mut self, r: usize, t: SimTime) -> u64 {
        if !self.cfg.supervision.drift_prefetch {
            return 0;
        }
        het_trace::set_scope(t.as_nanos(), Some((self.member_offset + r) as u64));
        let mut candidates: Vec<Key> = Vec::new();
        for sketch in [self.recent_sketch.as_ref(), self.prev_sketch.as_ref()]
            .into_iter()
            .flatten()
        {
            for (k, _) in sketch.top(self.cfg.cache_capacity) {
                if !candidates.contains(&k) {
                    candidates.push(k);
                }
            }
        }
        // The budget also bounds the *total* staging region: pins from
        // earlier rotations that never hit count against it, so a churny
        // workload cannot accumulate unconsumed pins without limit.
        let replica = &mut self.replicas[r];
        let budget = ((self.cfg.cache_capacity / 4).max(1) as u64)
            .saturating_sub(replica.core.client.cache().pinned_len() as u64);
        let mut installed = 0u64;
        for k in candidates {
            if installed == budget {
                break;
            }
            if replica.core.client.cache().find(k) {
                continue;
            }
            let pulled = self.server.pull(k);
            let displaced =
                replica
                    .core
                    .client
                    .cache_mut()
                    .install_prefetched(k, pulled.vector, pulled.clock);
            debug_assert!(
                displaced.is_none(),
                "read-only caches hold no dirty entries"
            );
            installed += 1;
        }
        // Drift prefetch is asynchronous background work; its cold
        // fetches hide behind serving, like the trainer's prefetcher.
        self.server.reclassify_pending_io();
        if installed > 0 {
            self.drift_prefetched += installed;
            het_trace::event!("serve", "drift_prefetch",
                "replica" => r, "keys" => installed);
            het_trace::count!("serve", "drift_prefetched_keys", installed);
        }
        installed
    }

    fn execute_batch(&mut self, r: usize, t: SimTime, ctx: &mut Ctx<'_>) {
        het_trace::set_scope(t.as_nanos(), Some((self.member_offset + r) as u64));

        let replica = &mut self.replicas[r];
        let n_take = replica.queue.len().min(self.cfg.max_batch);
        let idxs: Vec<usize> = replica.queue.drain(..n_take).collect();
        let depth_after = replica.queue.len();

        let degraded_before = self.fault_stats.degraded_reads;
        let mut fctx = (!self.plan.is_empty()).then_some(FaultContext {
            plan: &self.plan,
            now: t,
            worker: self.member_offset + r,
            retry: self.cfg.faults.retry_policy(),
            ops: &mut replica.ops,
            stats: &mut self.fault_stats,
        });
        let out = replica.core.serve_batch(
            idxs.iter().map(|&i| &self.requests[i]),
            self.cfg.n_fields,
            &self.server,
            &self.net,
            fctx.as_mut(),
        );
        self.score_sum += out.score_sum;
        self.score_count += out.scores;
        let t_lookup = out.lookup;
        let t_infer = self
            .cfg
            .cluster
            .compute_time(replica.core.model.flops_per_batch(idxs.len()) * FORWARD_FLOP_FRACTION);
        let service = t_lookup + t_infer;
        let done = t + service;
        replica.busy_until = done;
        replica.batches += 1;
        replica.requests += idxs.len() as u64;
        self.served_total += idxs.len() as u64;

        // Accounting + trace.
        self.lookup_ns += t_lookup.as_nanos();
        self.infer_ns += t_infer.as_nanos();
        het_trace::span!("serve", "lookup", t_lookup.as_nanos(), "keys" => out.unique_keys);
        het_trace::span!("serve", "infer", t_infer.as_nanos(), "examples" => idxs.len());
        het_trace::span!("serve", "batch", service.as_nanos(),
            "n" => idxs.len(), "depth_after" => depth_after);
        het_trace::count!("serve", "batches");
        het_trace::count!("serve", "requests", idxs.len() as u64);
        let degraded_delta = self.fault_stats.degraded_reads - degraded_before;
        if degraded_delta > 0 {
            het_trace::count!("serve", "degraded_reads", degraded_delta);
        }
        for &i in &idxs {
            let req = &self.requests[i];
            let wait = t.since(req.at);
            let latency = done.since(req.at);
            self.queue_wait_ns += wait.as_nanos();
            het_trace::count!("serve", "queue_wait_ns", wait.as_nanos());
            self.hist.record(latency.as_nanos());
            replica.hist.record(latency.as_nanos());
            het_trace::emit_at(
                "serve",
                "request",
                req.at.as_nanos(),
                Some(latency.as_nanos()),
                vec![het_trace::field("id", req.id)],
            );
        }
        self.end_time = self.end_time.max(done);

        if !self.replicas[r].queue.is_empty() {
            ctx.schedule(done, Event::Wake(r as u64));
        }
    }

    /// Number of replicas in the fleet.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Pre-run setup: pretraining pushes and cache warmup, both before
    /// t = 0. Called by [`ServeSim::run`]; co-scheduled setups call it
    /// before the shared runtime's loop starts.
    pub fn prepare(&mut self) {
        self.pretrained = pretrain(&self.cfg, &self.server, self.cfg.pretrain_updates);
        self.warm_replicas();
    }

    /// Schedules every request arrival on `rt`, plus the first
    /// heartbeat tick when the fleet is supervised. The report's
    /// `wall_ns` counts from here.
    pub fn prime(&mut self, rt: &mut ClusterRuntime, pid: ProcessId) {
        self.wall = WallClock::new();
        for (i, req) in self.requests.iter().enumerate() {
            rt.prime(pid, req.at, Event::Arrive(i as u64));
        }
        if self.control.is_some() {
            rt.prime(pid, SimTime::ZERO, Event::Wake(HEARTBEAT_WAKE));
        }
    }

    /// Post-run fault accounting: crashes scheduled after the last
    /// served batch still count, as do PS-shard outages observed within
    /// the serving horizon.
    pub fn epilogue(&mut self, rt: &mut ClusterRuntime, pid: ProcessId) {
        let horizon = self.end_time;
        for r in 0..self.replicas.len() {
            self.apply_crashes(r, horizon, |r, t| rt.take_crash(pid, r, t));
        }
        self.fault_stats.shard_failovers = self
            .plan
            .shard_outages()
            .iter()
            .filter(|&&(_, at, _)| at <= horizon)
            .count() as u64;
    }

    /// Runs the schedule to completion on a private [`ClusterRuntime`]
    /// and produces the report. Every generated request is served — the
    /// run only ends once all queues drain. A supervised run registers
    /// the [`Supervisor`] (owning PS restore) and, when autoscaling is
    /// on, the [`Autoscaler`] as additional runtime members.
    pub fn run(mut self) -> ServeReport {
        self.prepare();
        let mut rt = ClusterRuntime::new(TieBreak::Fifo, self.plan.clone());
        let pid = rt.register(self.replicas.len());
        self.prime(&mut rt, pid);
        let mut supervisor = self
            .control
            .as_ref()
            .filter(|_| self.cfg.supervision.enabled)
            .map(|cp| {
                cp.borrow_mut().serve_pid = pid;
                let sup_pid = rt.register(1);
                rt.prime(sup_pid, SimTime::ZERO, Event::Wake(0));
                Supervisor::with_store(
                    self.cfg.supervision.clone(),
                    cp.clone(),
                    self.server.clone(),
                    self.plan.clone(),
                    self.replicas.len(),
                )
            });
        let mut autoscaler = self
            .control
            .as_ref()
            .filter(|_| self.cfg.autoscale.enabled)
            .map(|cp| {
                cp.borrow_mut().serve_pid = pid;
                let auto_pid = rt.register(1);
                rt.prime(auto_pid, SimTime::ZERO, Event::Wake(0));
                Autoscaler::new(self.cfg.autoscale, cp.clone())
            });
        {
            let mut procs: Vec<&mut dyn Process> = Vec::with_capacity(3);
            procs.push(&mut self);
            if let Some(sup) = supervisor.as_mut() {
                procs.push(sup);
            }
            if let Some(auto) = autoscaler.as_mut() {
                procs.push(auto);
            }
            rt.run(&mut procs);
        }
        self.epilogue(&mut rt, pid);
        self.into_report()
    }

    /// Assembles the [`ServeReport`]. Called by [`ServeSim::run`];
    /// co-scheduled setups call it after [`ServeSim::epilogue`].
    pub fn into_report(self) -> ServeReport {
        let replicas = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaReport {
                replica: i,
                requests: r.requests,
                batches: r.batches,
                crashes: r.crash_count,
                cache: *r.core.client.cache().stats(),
                p99_ns: r.hist.quantile(0.99),
            })
            .collect();
        let end_ns = self.end_time.as_nanos();
        let score = (self.score_sum, self.score_count);
        let base = ServeReport::assemble(&self.cfg, replicas, &self.hist, end_ns, score);
        debug_assert_eq!(
            base.requests,
            self.requests.len() as u64,
            "every request served"
        );
        let (detections, scale_ups, scale_downs, migrated_keys, max_recovery_ns, split_done) =
            match self.control.as_ref() {
                Some(cp) => {
                    let cp = cp.borrow();
                    (
                        cp.detections,
                        cp.scale_ups,
                        cp.scale_downs,
                        cp.migrated_keys,
                        cp.max_recovery_ns,
                        cp.split_done,
                    )
                }
                None => (0, 0, 0, 0, 0, false),
            };
        ServeReport {
            wall_ns: self.wall.elapsed_ns(),
            sim_time_ns: end_ns,
            queue_wait_ns: self.queue_wait_ns,
            lookup_ns: self.lookup_ns,
            infer_ns: self.infer_ns,
            warmed_keys: self.warmed_keys,
            drift_prefetched_keys: self.drift_prefetched,
            pretrain_updates: self.pretrained,
            faults: self.fault_stats,
            detections,
            respawns: self.respawns,
            retry_waits: self.retry_waits,
            scale_ups,
            scale_downs,
            migrated_keys,
            split_done,
            max_recovery_ns,
            ..base
        }
    }
}

impl<M: EmbeddingModel<Batch = CtrBatch>> Process for ServeSim<M> {
    fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(
            ctx.member_offset(),
            self.member_offset,
            "register the fleet at its configured member offset"
        );
        match ev {
            Event::Arrive(i) => {
                if let Some(sketch) = self.sketch.as_mut() {
                    for &k in &self.requests[i as usize].keys {
                        sketch.observe(k);
                    }
                }
                if let Some(recent) = self.recent_sketch.as_mut() {
                    for &k in &self.requests[i as usize].keys {
                        recent.observe(k);
                    }
                }
                let r = self.route();
                self.replicas[r].queue.push_back(i as usize);
                self.step(r, t, ctx);
            }
            Event::Wake(HEARTBEAT_WAKE) => self.on_heartbeat(t, ctx),
            Event::Wake(CONTROL_WAKE) => self.on_control(t, ctx),
            Event::Wake(r) => self.step(r as usize, t, ctx),
        }
    }
}
