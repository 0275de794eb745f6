//! Supervision and elasticity for the serving fleet.
//!
//! Three cooperating [`Process`]es on one [`het_runtime::ClusterRuntime`]:
//!
//! * the **fleet** ([`crate::ServeSim`]) self-schedules heartbeat ticks
//!   and posts per-replica liveness + queue depth into a shared
//!   [`ControlPlane`];
//! * the **[`Supervisor`]** watches heartbeat ages — a replica whose
//!   heartbeat is older than `miss_threshold` intervals is *detected*
//!   as crashed (the supervisor never reads the fault plan for crash
//!   detection) and a respawn is commanded after a
//!   [`RetryPolicy`]-scheduled backoff; it also detects PS-shard
//!   outages, drives checkpoint-restore when it owns the checkpoint
//!   store, and drives **live shard splits** batch by batch;
//! * the **[`Autoscaler`]** watches queue depth and resizes the
//!   admitted replica pool under hysteresis (scale up past
//!   `queue_high`, down below `queue_low`, never within `cooldown` of
//!   the last action), warming a replica before it joins the JSQ pool.
//!
//! Commands flow through the control plane and take effect at
//! deterministic instants delivered by [`het_runtime::Ctx::schedule_for`],
//! so a supervised run is still a pure function of its configuration:
//! same seed ⇒ byte-identical report and trace.

use het_core::RetryPolicy;
use het_ps::{ServerHandle, ShardCheckpointStore};
use het_runtime::{Ctx, Event, Process, ProcessId};
use het_simnet::{FaultPlan, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Supervision knobs of a serving run. Disabled by default — a run
/// without supervision takes byte-for-byte the legacy path.
#[derive(Clone, Debug)]
pub struct SupervisionConfig {
    /// Master switch for heartbeats, crash detection, and driven
    /// recovery.
    pub enabled: bool,
    /// Heartbeat (and supervisor tick) period.
    pub heartbeat_every: SimDuration,
    /// A replica is detected as crashed once its heartbeat is older
    /// than this many periods.
    pub miss_threshold: u32,
    /// Backoff schedule for respawn commands and the fleet's
    /// outage-retry waits.
    pub retry: RetryPolicy,
    /// Period of the supervisor's periodic shard checkpoints, used only
    /// when the supervisor owns the checkpoint store (standalone
    /// serving; colocated runs restore through the trainer).
    pub checkpoint_every: SimDuration,
    /// Optional live PS-shard split driven by the supervisor.
    pub reshard: Option<ReshardPlan>,
    /// Drift-triggered serving prefetch. A sketch-warmed cache only
    /// covers the popularity snapshot at warmup time — under a drifting
    /// hot set the keys that become hot *afterwards* all cold-miss,
    /// and a freshly respawned replica pays that gap exactly when its
    /// held-back queue needs it least. When enabled, the fleet keeps a
    /// short-window popularity sketch (rotated every
    /// [`SupervisionConfig::drift_window`]); each completed window
    /// triggers prefetch pulls of its newly-hot keys into every live
    /// admitted replica, and a supervised respawn runs one extra round
    /// right after its lifetime-sketch warmup.
    pub drift_prefetch: bool,
    /// Rotation period of the short-window sketch that defines
    /// "recently hot" for [`SupervisionConfig::drift_prefetch`].
    pub drift_window: SimDuration,
}

impl SupervisionConfig {
    /// Supervision off (the default in every preset config).
    pub fn disabled() -> Self {
        SupervisionConfig {
            enabled: false,
            heartbeat_every: SimDuration::from_micros(500),
            miss_threshold: 3,
            retry: RetryPolicy::exponential(SimDuration::from_micros(200), 8),
            checkpoint_every: SimDuration::from_millis(5),
            reshard: None,
            drift_prefetch: false,
            drift_window: SimDuration::from_millis(1),
        }
    }
}

/// Autoscaling knobs. Disabled by default.
#[derive(Clone, Copy, Debug)]
pub struct AutoscaleConfig {
    /// Master switch. When enabled the fleet is built at
    /// `max_replicas` physical replicas and `ServeConfig::n_replicas`
    /// of them start admitted.
    pub enabled: bool,
    /// Admitted-pool floor.
    pub min_replicas: usize,
    /// Physical fleet size and admitted-pool ceiling.
    pub max_replicas: usize,
    /// Evaluation period.
    pub evaluate_every: SimDuration,
    /// Scale up when mean queued requests per admitted replica exceeds
    /// this.
    pub queue_high: f64,
    /// Scale down when it falls below this (hysteresis band:
    /// `queue_low < queue_high`).
    pub queue_low: f64,
    /// Minimum time between consecutive scaling actions.
    pub cooldown: SimDuration,
    /// Cache warmup lead time before a scaled-up replica is admitted
    /// to the JSQ pool.
    pub warmup_delay: SimDuration,
}

impl AutoscaleConfig {
    /// Autoscaling off (the default in every preset config).
    pub fn disabled() -> Self {
        AutoscaleConfig {
            enabled: false,
            min_replicas: 1,
            max_replicas: 4,
            evaluate_every: SimDuration::from_millis(1),
            queue_high: 8.0,
            queue_low: 1.0,
            cooldown: SimDuration::from_millis(2),
            warmup_delay: SimDuration::from_micros(500),
        }
    }
}

/// A supervisor-driven live split of one PS shard into a spare.
#[derive(Clone, Copy, Debug)]
pub struct ReshardPlan {
    /// When to begin the split.
    pub at: SimTime,
    /// The shard to split (must be a base shard of the fabric).
    pub parent: usize,
    /// Keys migrated per supervisor tick.
    pub batch: usize,
    /// Minimum time between migration batches.
    pub every: SimDuration,
    /// Salt of the deterministic child-side key predicate.
    pub salt: u64,
}

/// Shared state between the fleet, the supervisor, and the autoscaler.
/// The fleet posts liveness and load; the supervisor and autoscaler
/// post commands, applied by the fleet at its next control wake.
#[derive(Debug)]
pub struct ControlPlane {
    /// The fleet's process id, for [`Ctx::schedule_for`] pokes.
    pub serve_pid: ProcessId,
    /// Last heartbeat instant per replica (stops advancing on crash).
    pub last_heartbeat: Vec<SimTime>,
    /// Queue depth per replica as of the last heartbeat.
    pub queue_depth: Vec<usize>,
    /// Whether each replica is in the JSQ admission pool.
    pub admitted: Vec<bool>,
    /// Requests served so far / total to serve.
    pub served: u64,
    /// Total requests the run must serve.
    pub total: u64,
    /// True once every request is served: supervision processes stop.
    pub done: bool,
    /// Respawn commands: replica → instant the respawn takes effect.
    pub respawn_at: Vec<Option<SimTime>>,
    /// Admission commands: replica → instant it joins the pool
    /// (post-warmup).
    pub admit_at: Vec<Option<SimTime>>,
    /// Autoscaler totals, read back into the report.
    pub scale_ups: u64,
    /// Scale-down actions taken.
    pub scale_downs: u64,
    /// Supervisor totals, read back into the report.
    pub detections: u64,
    /// Worst detection→respawn gap observed, for recovery-time
    /// objectives.
    pub max_recovery_ns: u64,
    /// Keys moved by the supervisor-driven live split.
    pub migrated_keys: u64,
    /// True once a planned live split has fully completed.
    pub split_done: bool,
}

impl ControlPlane {
    /// A control plane for a fleet of `n` physical replicas, of which
    /// `admitted` (a prefix) start in the JSQ pool.
    pub fn new(n: usize, admitted: usize) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(ControlPlane {
            serve_pid: 0,
            last_heartbeat: vec![SimTime::ZERO; n],
            queue_depth: vec![0; n],
            admitted: (0..n).map(|r| r < admitted).collect(),
            served: 0,
            total: 0,
            done: false,
            respawn_at: vec![None; n],
            admit_at: vec![None; n],
            scale_ups: 0,
            scale_downs: 0,
            detections: 0,
            max_recovery_ns: 0,
            migrated_keys: 0,
            split_done: false,
        }))
    }
}

/// Per-replica supervisor view.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Health {
    Up,
    Respawning,
}

/// Heartbeat-driven failure detector and recovery driver (one runtime
/// member). See the module docs for the protocol.
pub struct Supervisor {
    cfg: SupervisionConfig,
    cp: Rc<RefCell<ControlPlane>>,
    server: ServerHandle,
    plan: FaultPlan,
    /// Present when this supervisor owns PS restore (standalone
    /// serving). Colocated runs leave restore to the trainer and the
    /// supervisor only observes/announces outages.
    store: Option<ShardCheckpointStore>,
    last_checkpoint: SimTime,
    health: Vec<Health>,
    /// Respawns commanded per replica — indexes the backoff schedule.
    attempts: Vec<u32>,
    /// Outages already announced, keyed by (shard, end instant).
    seen_outages: BTreeSet<(usize, u64)>,
    /// Outages detected but not yet announced as restored.
    pending_restore: Vec<(usize, SimTime)>,
    split_begun: bool,
    split_child: usize,
    split_complete: bool,
    next_migrate: SimTime,
}

impl Supervisor {
    /// A supervisor for a fleet of `n_replicas`, observing outages
    /// passively (restore is owned elsewhere, e.g. by a colocated
    /// trainer).
    pub fn new(
        cfg: SupervisionConfig,
        cp: Rc<RefCell<ControlPlane>>,
        server: ServerHandle,
        plan: FaultPlan,
        n_replicas: usize,
    ) -> Self {
        Supervisor {
            cfg,
            cp,
            server,
            plan,
            store: None,
            last_checkpoint: SimTime::ZERO,
            health: vec![Health::Up; n_replicas],
            attempts: vec![0; n_replicas],
            seen_outages: BTreeSet::new(),
            pending_restore: Vec::new(),
            split_begun: false,
            split_child: 0,
            split_complete: false,
            next_migrate: SimTime::ZERO,
        }
    }

    /// Like [`Supervisor::new`], but this supervisor owns PS-shard
    /// restore: it takes a baseline checkpoint now, re-checkpoints
    /// every `checkpoint_every`, and on each delivered outage restores
    /// the failed shard from the latest checkpoint.
    pub fn with_store(
        cfg: SupervisionConfig,
        cp: Rc<RefCell<ControlPlane>>,
        server: ServerHandle,
        plan: FaultPlan,
        n_replicas: usize,
    ) -> Self {
        let mut sup = Self::new(cfg, cp, server, plan, n_replicas);
        let mut store = ShardCheckpointStore::new(sup.server.n_shards(), sup.server.dim());
        store
            .checkpoint_all(&sup.server)
            .expect("in-memory checkpoint");
        sup.store = Some(store);
        sup
    }

    /// True once a planned live split has begun and fully completed.
    pub fn split_complete(&self) -> bool {
        self.split_complete
    }

    fn detect_crashes(&mut self, t: SimTime, ctx: &mut Ctx<'_>) {
        let deadline = self.cfg.heartbeat_every * self.cfg.miss_threshold as u64;
        let serve_pid = self.cp.borrow().serve_pid;
        for r in 0..self.health.len() {
            let last = self.cp.borrow().last_heartbeat[r];
            match self.health[r] {
                Health::Up => {
                    if t.since(last) > deadline {
                        het_trace::event!("supervisor", "detect_crash",
                            "replica" => r, "silent_ns" => t.since(last).as_nanos());
                        het_trace::count!("supervisor", "detections");
                        let backoff = self.cfg.retry.delay(self.attempts[r]);
                        self.attempts[r] = self.attempts[r].saturating_add(1);
                        let respawn_at = t + backoff;
                        {
                            let mut cp = self.cp.borrow_mut();
                            cp.detections += 1;
                            cp.respawn_at[r] = Some(respawn_at);
                            cp.max_recovery_ns =
                                cp.max_recovery_ns.max(respawn_at.since(t).as_nanos());
                        }
                        het_trace::event!("supervisor", "respawn",
                            "replica" => r, "backoff_ns" => backoff.as_nanos());
                        het_trace::count!("supervisor", "respawns");
                        ctx.schedule_for(serve_pid, respawn_at, Event::Wake(CONTROL_WAKE));
                        self.health[r] = Health::Respawning;
                    }
                }
                Health::Respawning => {
                    // The fleet stamps the heartbeat at respawn time;
                    // once it advances again the replica is healthy.
                    if t.since(last) <= deadline {
                        self.health[r] = Health::Up;
                    }
                }
            }
        }
    }

    fn watch_outages(&mut self, t: SimTime, ctx: &mut Ctx<'_>) {
        if self.plan.is_empty() {
            return;
        }
        if let Some(store) = self.store.as_mut() {
            // Restore owner: periodic checkpoints + checkpoint-restore
            // on every delivered outage.
            if t.since(self.last_checkpoint) >= self.cfg.checkpoint_every {
                store.checkpoint_all(&self.server).expect("checkpoint");
                self.last_checkpoint = t;
            }
            while let Some((shard, at, failover)) = ctx.take_due_outage(t) {
                het_trace::event!("supervisor", "detect_outage",
                    "shard" => shard, "at_ns" => at.as_nanos());
                let outcome = store
                    .fail_and_restore(&self.server, shard)
                    .expect("in-memory restore");
                het_trace::span!("supervisor", "shard_restored", failover.as_nanos(),
                    "shard" => shard,
                    "rows_restored" => outcome.rows_restored,
                    "lost_updates" => outcome.lost_updates);
            }
            return;
        }
        // Passive observer: announce outage windows from the plan; the
        // restore itself is the colocated trainer's job.
        for shard in 0..self.server.n_base_shards() {
            if let Some(end) = self.plan.shard_outage_end(shard, t) {
                if self.seen_outages.insert((shard, end.as_nanos())) {
                    het_trace::event!("supervisor", "detect_outage",
                        "shard" => shard, "until_ns" => end.as_nanos());
                    self.pending_restore.push((shard, end));
                }
            }
        }
        let mut restored: Vec<(usize, SimTime)> = Vec::new();
        self.pending_restore.retain(|&(shard, end)| {
            if t >= end {
                restored.push((shard, end));
                false
            } else {
                true
            }
        });
        for (shard, end) in restored {
            het_trace::event!("supervisor", "shard_restored",
                "shard" => shard, "at_ns" => end.as_nanos());
        }
    }

    fn drive_split(&mut self, t: SimTime) {
        let Some(plan) = self.cfg.reshard else { return };
        if self.split_complete || t < plan.at {
            return;
        }
        if !self.split_begun {
            assert!(
                self.server.n_shards() > self.server.n_base_shards(),
                "live resharding needs a spare shard (see with_spare_shards)"
            );
            self.split_child = self.server.n_base_shards();
            self.server
                .begin_split(plan.parent, self.split_child, plan.salt);
            het_trace::event!("supervisor", "split_begin",
                "parent" => plan.parent, "child" => self.split_child);
            self.split_begun = true;
            self.next_migrate = t;
        }
        if t < self.next_migrate {
            return;
        }
        // Never move keys while the parent shard is mid-outage; the
        // migration resumes on the next tick after failover.
        if self.plan.shard_down(plan.parent, t) {
            return;
        }
        let moved = self.server.migrate_batch(plan.parent, plan.batch);
        if moved > 0 {
            het_trace::event!("supervisor", "migrate",
                "parent" => plan.parent, "moved" => moved);
            het_trace::count!("supervisor", "migrated_keys", moved as u64);
            self.cp.borrow_mut().migrated_keys += moved as u64;
        }
        if self.server.remaining_to_migrate(plan.parent) == 0 {
            self.server.complete_split(plan.parent);
            het_trace::event!("supervisor", "split_done",
                "parent" => plan.parent, "child" => self.split_child);
            self.split_complete = true;
            self.cp.borrow_mut().split_done = true;
        } else {
            self.next_migrate = t + plan.every;
        }
    }
}

impl Process for Supervisor {
    fn on_event(&mut self, t: SimTime, _ev: Event, ctx: &mut Ctx<'_>) {
        ctx.scope_at(t, Some(0));
        het_trace::count!("supervisor", "heartbeats");
        self.detect_crashes(t, ctx);
        self.watch_outages(t, ctx);
        self.drive_split(t);
        if self.cp.borrow().done && (self.split_complete || self.cfg.reshard.is_none()) {
            ctx.stop();
        } else {
            ctx.schedule(t + self.cfg.heartbeat_every, Event::Wake(0));
        }
    }
}

/// Queue-depth-driven fleet resizing (one runtime member). See the
/// module docs for the hysteresis protocol.
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    cp: Rc<RefCell<ControlPlane>>,
    last_action: Option<SimTime>,
}

impl Autoscaler {
    /// An autoscaler over the shared control plane.
    pub fn new(cfg: AutoscaleConfig, cp: Rc<RefCell<ControlPlane>>) -> Self {
        Autoscaler {
            cfg,
            cp,
            last_action: None,
        }
    }

    fn in_cooldown(&self, t: SimTime) -> bool {
        self.last_action
            .is_some_and(|at| t.since(at) < self.cfg.cooldown)
    }
}

impl Process for Autoscaler {
    fn on_event(&mut self, t: SimTime, _ev: Event, ctx: &mut Ctx<'_>) {
        ctx.scope_at(t, Some(0));
        het_trace::count!("autoscaler", "evals");
        let (done, serve_pid, decision) = {
            let cp = self.cp.borrow();
            let pending_admits = cp.admit_at.iter().filter(|a| a.is_some()).count();
            let admitted: Vec<usize> = (0..cp.admitted.len()).filter(|&r| cp.admitted[r]).collect();
            let pool = admitted.len() + pending_admits;
            let total_q: usize = admitted.iter().map(|&r| cp.queue_depth[r]).sum();
            let mean_q = if admitted.is_empty() {
                0.0
            } else {
                total_q as f64 / admitted.len() as f64
            };
            let decision = if self.in_cooldown(t) || cp.done {
                None
            } else if mean_q > self.cfg.queue_high && pool < self.cfg.max_replicas {
                // Lowest idle replica joins after warmup.
                (0..cp.admitted.len())
                    .find(|&r| !cp.admitted[r] && cp.admit_at[r].is_none())
                    .map(|r| (r, true, total_q))
            } else if mean_q < self.cfg.queue_low
                && pool > self.cfg.min_replicas
                && pending_admits == 0
            {
                // Highest admitted replica drains out.
                admitted.last().map(|&r| (r, false, total_q))
            } else {
                None
            };
            (cp.done, cp.serve_pid, decision)
        };
        match decision {
            Some((r, true, total_q)) => {
                let admit_at = t + self.cfg.warmup_delay;
                {
                    let mut cp = self.cp.borrow_mut();
                    cp.admit_at[r] = Some(admit_at);
                    cp.scale_ups += 1;
                }
                het_trace::event!("autoscaler", "scale_up",
                    "replica" => r, "queued" => total_q);
                het_trace::count!("autoscaler", "scale_ups");
                ctx.schedule_for(serve_pid, admit_at, Event::Wake(CONTROL_WAKE));
                self.last_action = Some(t);
            }
            Some((r, false, total_q)) => {
                {
                    let mut cp = self.cp.borrow_mut();
                    cp.admitted[r] = false;
                    cp.scale_downs += 1;
                }
                het_trace::event!("autoscaler", "scale_down",
                    "replica" => r, "queued" => total_q);
                het_trace::count!("autoscaler", "scale_downs");
                self.last_action = Some(t);
            }
            None => {}
        }
        if done {
            ctx.stop();
        } else {
            ctx.schedule(t + self.cfg.evaluate_every, Event::Wake(0));
        }
    }
}

/// Wake payload the fleet interprets as "apply pending control-plane
/// commands" (respawns, admissions).
pub const CONTROL_WAKE: u64 = u64::MAX - 1;

/// Wake payload the fleet interprets as a heartbeat tick.
pub const HEARTBEAT_WAKE: u64 = u64::MAX;
