//! Supervision and elasticity for the serving fleet.
//!
//! Three cooperating [`Process`]es on one [`het_runtime::ClusterRuntime`],
//! all registered by the fleet itself when its config sets
//! `ServeConfig::supervised` or `ServeConfig::autoscale` — alone or
//! beside a co-scheduled trainer ([`crate::colocate`]):
//!
//! * the **fleet** ([`crate::ServeSim`]) self-schedules heartbeat ticks
//!   and posts per-replica liveness + queue depth into a shared
//!   `ControlPlane`;
//! * the **supervisor** watches heartbeat ages — a replica whose
//!   heartbeat is older than [`MISS_THRESHOLD`] intervals is *detected*
//!   as crashed (the supervisor never reads the fault plan for crash
//!   detection) and a respawn is commanded after a
//!   [`SUPERVISOR_RETRY`] backoff; it observes PS-shard outages from
//!   the plan (announcing each one's detection and end — restoring a
//!   shard is the trainer's job: a fleet alone on its PS never writes
//!   it after pretraining, so there is nothing to roll back), and
//!   drives the **live shard split** `ServeConfig::reshard_at` asks for,
//!   batch by batch;
//! * the **autoscaler** watches queue depth and resizes the
//!   admitted replica pool under hysteresis (scale up past
//!   [`QUEUE_HIGH`], down below [`QUEUE_LOW`], never within
//!   [`AUTOSCALE_COOLDOWN`] of the last action), warming a replica
//!   before it joins the JSQ pool.
//!
//! Every period, threshold and split parameter is a constant of this
//! module; a config switches each process on and says when a split
//! begins.
//!
//! Commands flow through the control plane and take effect at
//! deterministic instants delivered by [`het_runtime::Ctx::schedule_for`],
//! so a supervised run is still a pure function of its configuration:
//! same seed ⇒ byte-identical report and trace.

use het_core::RetryPolicy;
use het_ps::ServerHandle;
use het_runtime::{Ctx, Event, Process, ProcessId};
use het_simnet::{FaultPlan, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// A replica is detected as crashed once its heartbeat is older than
/// this many heartbeat periods.
pub const MISS_THRESHOLD: u32 = 3;
/// Backoff schedule for respawn commands and the fleet's outage-retry
/// waits.
pub const SUPERVISOR_RETRY: RetryPolicy = RetryPolicy {
    base: SimDuration::from_micros(200),
    max_attempts: 8,
};
/// Heartbeat (and supervisor tick) period of a supervised fleet.
pub const HEARTBEAT_EVERY: SimDuration = SimDuration::from_micros(250);
/// Admitted-pool floor of an autoscaled fleet.
pub const AUTOSCALE_MIN: usize = 1;
/// Physical size and admitted-pool ceiling of an autoscaled fleet.
pub const AUTOSCALE_MAX: usize = 4;
/// Autoscaler evaluation period (also the heartbeat period of an
/// autoscaled fleet without supervision).
pub const AUTOSCALE_EVERY: SimDuration = SimDuration::from_micros(500);
/// Scale up when mean queued requests per admitted replica exceeds
/// this.
pub const QUEUE_HIGH: f64 = 6.0;
/// Scale down when it falls below this (the hysteresis band).
pub const QUEUE_LOW: f64 = 0.5;
/// Minimum time between consecutive scaling actions.
pub const AUTOSCALE_COOLDOWN: SimDuration = SimDuration::from_millis(4);
/// Cache warmup lead time before a scaled-up replica joins the JSQ
/// pool.
pub const ADMIT_WARMUP: SimDuration = SimDuration::from_micros(300);
/// The base shard a live split divides (`ServeConfig::reshard_at`).
pub const SPLIT_PARENT: usize = 0;
/// Keys a live split migrates per batch.
pub const SPLIT_BATCH: usize = 64;
/// Minimum time between a live split's migration batches.
pub const SPLIT_EVERY: SimDuration = SimDuration::from_micros(200);
/// Salt of a live split's deterministic child-side key predicate.
pub const SPLIT_SALT: u64 = 0x5157_1755_C4A0_5717;

/// Shared state between the fleet, the supervisor, and the autoscaler.
/// The fleet posts liveness and load; the supervisor and autoscaler
/// post commands, applied by the fleet at its next control wake.
#[derive(Debug)]
pub(crate) struct ControlPlane {
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
pub(crate) struct Supervisor {
    /// When the live split begins, if one is planned.
    reshard_at: Option<SimTime>,
    cp: Rc<RefCell<ControlPlane>>,
    server: ServerHandle,
    plan: FaultPlan,
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
    /// A supervisor for a fleet of `n_replicas`, splitting
    /// [`SPLIT_PARENT`] from `reshard_at` on if given. It observes
    /// outages in `plan` and restores nothing (a colocated trainer
    /// does).
    pub fn new(
        reshard_at: Option<SimTime>,
        cp: Rc<RefCell<ControlPlane>>,
        server: ServerHandle,
        plan: FaultPlan,
        n_replicas: usize,
    ) -> Self {
        Supervisor {
            reshard_at,
            cp,
            server,
            plan,
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

    fn detect_crashes(&mut self, t: SimTime, ctx: &mut Ctx<'_>) {
        let deadline = HEARTBEAT_EVERY * MISS_THRESHOLD as u64;
        let serve_pid = self.cp.borrow().serve_pid;
        for r in 0..self.health.len() {
            let last = self.cp.borrow().last_heartbeat[r];
            match self.health[r] {
                Health::Up => {
                    if t.since(last) > deadline {
                        het_trace::event!("supervisor", "detect_crash",
                            "replica" => r, "silent_ns" => t.since(last).as_nanos());
                        het_trace::count!("supervisor", "detections");
                        let backoff = SUPERVISOR_RETRY.delay(self.attempts[r]);
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

    fn watch_outages(&mut self, t: SimTime) {
        if self.plan.is_empty() {
            return;
        }
        // Announce outage windows from the plan; the restore itself is
        // the colocated trainer's job.
        for shard in 0..self.server.n_base_shards() {
            if let Some(end) = self.plan.shard_outage_end(shard, t) {
                if self.seen_outages.insert((shard, end.as_nanos())) {
                    het_trace::event!("supervisor", "detect_outage",
                        "shard" => shard, "until_ns" => end.as_nanos());
                    self.pending_restore.push((shard, end));
                }
            }
        }
        self.pending_restore.retain(|&(shard, end)| {
            if t < end {
                return true;
            }
            het_trace::event!("supervisor", "shard_restored",
                "shard" => shard, "at_ns" => end.as_nanos());
            false
        });
    }

    fn drive_split(&mut self, t: SimTime) {
        let Some(at) = self.reshard_at else { return };
        if self.split_complete || t < at {
            return;
        }
        if !self.split_begun {
            assert!(
                self.server.n_shards() > self.server.n_base_shards(),
                "live resharding needs a spare shard (see with_spare_shards)"
            );
            self.split_child = self.server.n_base_shards();
            self.server
                .begin_split(SPLIT_PARENT, self.split_child, SPLIT_SALT);
            het_trace::event!("supervisor", "split_begin",
                "parent" => SPLIT_PARENT, "child" => self.split_child);
            self.split_begun = true;
            self.next_migrate = t;
        }
        if t < self.next_migrate {
            return;
        }
        // Never move keys while the parent shard is mid-outage; the
        // migration resumes on the next tick after failover.
        if self.plan.shard_down(SPLIT_PARENT, t) {
            return;
        }
        let moved = self.server.migrate_batch(SPLIT_PARENT, SPLIT_BATCH);
        if moved > 0 {
            het_trace::event!("supervisor", "migrate",
                "parent" => SPLIT_PARENT, "moved" => moved);
            het_trace::count!("supervisor", "migrated_keys", moved as u64);
            self.cp.borrow_mut().migrated_keys += moved as u64;
        }
        if self.server.remaining_to_migrate(SPLIT_PARENT) == 0 {
            self.server.complete_split(SPLIT_PARENT);
            het_trace::event!("supervisor", "split_done",
                "parent" => SPLIT_PARENT, "child" => self.split_child);
            self.split_complete = true;
            self.cp.borrow_mut().split_done = true;
        } else {
            self.next_migrate = t + SPLIT_EVERY;
        }
    }
}

impl Process for Supervisor {
    fn on_event(&mut self, t: SimTime, _ev: Event, ctx: &mut Ctx<'_>) {
        ctx.scope_at(t, Some(0));
        het_trace::count!("supervisor", "heartbeats");
        self.detect_crashes(t, ctx);
        self.watch_outages(t);
        self.drive_split(t);
        if self.cp.borrow().done && (self.split_complete || self.reshard_at.is_none()) {
            ctx.stop();
        } else {
            ctx.schedule(t + HEARTBEAT_EVERY, Event::Wake(0));
        }
    }
}

/// Queue-depth-driven fleet resizing (one runtime member). See the
/// module docs for the hysteresis protocol.
pub(crate) struct Autoscaler {
    cp: Rc<RefCell<ControlPlane>>,
    last_action: Option<SimTime>,
}

impl Autoscaler {
    /// An autoscaler over the shared control plane.
    pub fn new(cp: Rc<RefCell<ControlPlane>>) -> Self {
        Autoscaler {
            cp,
            last_action: None,
        }
    }

    fn in_cooldown(&self, t: SimTime) -> bool {
        self.last_action
            .is_some_and(|at| t.since(at) < AUTOSCALE_COOLDOWN)
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
            } else if mean_q > QUEUE_HIGH && pool < AUTOSCALE_MAX {
                // Lowest idle replica joins after warmup.
                (0..cp.admitted.len())
                    .find(|&r| !cp.admitted[r] && cp.admit_at[r].is_none())
                    .map(|r| (r, true, total_q))
            } else if mean_q < QUEUE_LOW && pool > AUTOSCALE_MIN && pending_admits == 0 {
                // Highest admitted replica drains out.
                admitted.last().map(|&r| (r, false, total_q))
            } else {
                None
            };
            (cp.done, cp.serve_pid, decision)
        };
        match decision {
            Some((r, true, total_q)) => {
                let admit_at = t + ADMIT_WARMUP;
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
            ctx.schedule(t + AUTOSCALE_EVERY, Event::Wake(0));
        }
    }
}

/// Wake payload the fleet interprets as "apply pending control-plane
/// commands" (respawns, admissions).
pub(crate) const CONTROL_WAKE: u64 = u64::MAX - 1;

/// Wake payload the fleet interprets as a heartbeat tick.
pub(crate) const HEARTBEAT_WAKE: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{private_server, ServeSim};
    use crate::workload::{generate_requests, pretrain};
    use crate::ServeConfig;
    use het_models::WideDeep;
    use het_simnet::FaultEvent;

    /// A supervised fleet alone on its PS never writes it after
    /// pretraining — through replica crashes, a shard outage and a live
    /// split — which is why its supervisor restores nothing: every key
    /// reads back as a fresh pretrained table has it. Keys pretraining
    /// wrote keep their values; keys serving first touched hold their
    /// lazy initial value at clock 0. Compared by key, so the split's
    /// row moves do not count.
    #[test]
    fn a_supervised_fleet_alone_never_changes_a_row() {
        let mut cfg = ServeConfig::tiny(5);
        cfg.n_requests = 600;
        cfg.supervised = true;
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        cfg.reshard_at = Some(ms(5));
        let plan = FaultPlan::scripted(vec![
            FaultEvent::WorkerCrash {
                worker: 0,
                at: ms(10),
                restart_delay: SimDuration::from_secs_f64(3600.0),
            },
            FaultEvent::PsShardOutage {
                shard: 0,
                at: ms(20),
                failover_delay: SimDuration::from_millis(5),
            },
            FaultEvent::WorkerCrash {
                worker: 1,
                at: ms(30),
                restart_delay: SimDuration::from_secs_f64(3600.0),
            },
        ]);
        let server = private_server(&cfg, 1);
        let (n_fields, dim) = (cfg.n_fields, cfg.dim);
        let sim = ServeSim::assemble(cfg.clone(), server.clone(), plan, 0, move |rng| {
            WideDeep::new(rng, n_fields, dim, &[16])
        });
        let report = sim.run();
        assert_eq!(report.faults.worker_crashes, 2);
        assert_eq!(report.respawns, 2);
        assert_eq!(report.faults.shard_failovers, 1);
        assert!(report.split_done && report.migrated_keys > 0);

        let reference = private_server(&cfg, 0);
        pretrain(&cfg, &reference, cfg.pretrain_updates);
        let served: BTreeSet<u64> = generate_requests(&cfg)
            .into_iter()
            .flat_map(|r| r.keys)
            .collect();
        let mut first_touched_by_serving = 0;
        for key in 0..cfg.n_keys {
            let row = server.pull(key);
            assert_eq!(row, reference.pull(key), "key {key} changed");
            if row.clock == 0 && served.contains(&key) {
                first_touched_by_serving += 1;
            }
        }
        assert!(
            first_touched_by_serving > 0,
            "pretraining wrote every served key"
        );
    }
}
