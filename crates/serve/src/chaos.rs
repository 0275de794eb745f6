//! The chaos campaign: compound failure under load, with SLO/RTO
//! verdicts.
//!
//! One run is a [`run_colocated`] call: a live CTR trainer and a
//! serving fleet whose config turns on the full elasticity stack of
//! [`crate::supervise`] (supervision, a live split, autoscaling), so the
//! fleet registers its supervisor and autoscaler beside itself. It
//! throws the target scenario at them:
//!
//! * a **flash crowd** multiplies the arrival rate mid-run;
//! * **replica crashes** land *inside* the flash window (and again
//!   later), detected by the supervisor's heartbeat watcher and
//!   recovered with sketch-warmed caches;
//! * a **PS-shard outage** lands right after the flash; serving
//!   replicas ride it out on the [`crate::supervise::SUPERVISOR_RETRY`]
//!   backoff, the supervisor observes it, and the trainer — the only
//!   job that checkpoints and restores PS shards — rolls the shard back
//!   to its last checkpoint. At [`ChaosConfig::tiny`] scale the outage
//!   lands at 22.5 ms of simulated time and the trainer runs to about
//!   44 ms, so every seed restores that shard;
//! * a **live shard split** runs concurrently, migrating keys off a hot
//!   shard batch by batch while gradients keep flowing;
//! * the **autoscaler** grows the admitted pool into the flash and
//!   drains it afterwards.
//!
//! The faults are *scripted* (exact instants, exact members) so the
//! scenario is the same compound emergency at every seed, and the whole
//! run remains a pure function of the seed: same seed ⇒ byte-identical
//! [`ChaosReport`] JSON and trace. [`ChaosReport::assert_healthy`] turns
//! the run into a pass/fail gate for CI campaigns.

use crate::colocate::{run_colocated, ColocatedReport};
use crate::config::ServeConfig;
use het_core::config::{SystemPreset, TrainerConfig};
use het_core::Trainer;
use het_data::{CtrConfig, CtrDataset};
use het_json::{Json, ToJson};
use het_models::WideDeep;
use het_simnet::{ClusterSpec, FaultEvent, FaultPlan, SimDuration, SimTime};

/// Knobs of one chaos run. Fault instants and the split's start are
/// derived deterministically from these so the scenario stays the same
/// shape at every scale; supervision periods are the constants of
/// [`crate::supervise`].
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed (workload, model init, data order).
    pub seed: u64,
    /// Trainer workers (cluster members `0..workers`).
    pub workers: usize,
    /// PS server nodes; the fabric has `4 × servers` base shards plus
    /// one spare for the live split.
    pub servers: usize,
    /// Trainer iteration cap.
    pub train_iters: u64,
    /// Requests the fleet must serve.
    pub requests: usize,
    /// Baseline arrival rate (req/s); the flash multiplies this.
    pub arrival_rate: f64,
    /// Flash-crowd arrival-rate multiplier (the scenario's "10×").
    pub flash_factor: f64,
    /// p99 latency objective under chaos.
    pub slo_p99: SimDuration,
    /// Recovery-time objective: worst admissible detection→respawn gap.
    pub rto: SimDuration,
}

impl ChaosConfig {
    /// The target scenario at test scale: 4 workers + an elastic fleet
    /// of up to 4 replicas, a 10× flash, two replica crashes, one shard
    /// outage the trainer restores, and a concurrent live split —
    /// finishing in well under a second of simulated time.
    pub fn tiny(seed: u64) -> Self {
        ChaosConfig {
            seed,
            workers: 4,
            servers: 2,
            train_iters: 320,
            requests: 600,
            arrival_rate: 8_000.0,
            flash_factor: 10.0,
            slo_p99: SimDuration::from_millis(25),
            rto: SimDuration::from_millis(2),
        }
    }

    /// Nominal serving span: how long the request schedule takes at the
    /// baseline rate. Fault instants are placed as fractions of this.
    fn span(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.requests as f64 / self.arrival_rate)
    }

    /// An instant at fraction `f` of the nominal span.
    fn at(&self, f: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.span().as_secs_f64() * f)
    }

    /// The scripted compound-fault plan. Replica `r` of the fleet is
    /// cluster member `workers + r`; shard indices address base shards.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::scripted(vec![
            // Replica 0 dies in the middle of the flash crowd. The
            // restart delay is deliberately enormous: supervised
            // recovery must beat it or the run blows its SLO.
            FaultEvent::WorkerCrash {
                worker: self.workers,
                at: self.at(0.22),
                restart_delay: SimDuration::from_secs_f64(3600.0),
            },
            // A PS shard goes down right after the flash, while the
            // backlog is still draining and the split is migrating.
            FaultEvent::PsShardOutage {
                shard: 1,
                at: self.at(0.30),
                failover_delay: SimDuration::from_secs_f64(self.span().as_secs_f64() * 0.08),
            },
            // Replica 1 dies during drain-down. (The 10× flash
            // compresses the arrival schedule, so "late" instants must
            // stay well inside the nominal span — see `serve_config`.)
            FaultEvent::WorkerCrash {
                worker: self.workers + 1,
                at: self.at(0.45),
                restart_delay: SimDuration::from_secs_f64(3600.0),
            },
        ])
    }

    /// Checks the scenario before [`run_chaos`] runs it: the serve
    /// configuration it derives (rates, the flash) must be valid. The
    /// error names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        // The fault instants and the flash window are fractions of the
        // span, which a non-positive rate leaves undefined.
        if !(self.arrival_rate > 0.0 && self.arrival_rate.is_finite()) {
            return Err("arrival_rate must be positive and finite".to_string());
        }
        self.serve_config(self.train_config().dim).validate()
    }

    /// The trainer configuration of the scenario — exposed so harnesses
    /// can derive an oracle spec (`het_oracle::OracleSpec::of`) for the
    /// exact run [`run_chaos`] executes.
    pub fn train_config(&self) -> TrainerConfig {
        let mut cfg = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 100 });
        cfg.cluster = ClusterSpec::cluster_a(self.workers, self.servers);
        cfg.max_iterations = self.train_iters;
        cfg.eval_every = (self.train_iters / 4).max(1);
        cfg.seed = self.seed;
        // Checkpoint often enough that the scripted outage restores
        // recent state.
        cfg.checkpoint_every = 25;
        cfg
    }

    /// The supervised serve configuration of the scenario.
    fn serve_config(&self, dim: usize) -> ServeConfig {
        let mut cfg = ServeConfig::tiny(self.seed);
        cfg.dim = dim;
        cfg.n_replicas = 2;
        // No pretraining: embeddings are fed by the live trainer, and a
        // pushless warm start keeps the oracle's push-parity ledger
        // (PS pushes == cache write-backs) exact over the whole trace.
        cfg.pretrain_updates = 0;
        cfg.n_requests = self.requests;
        cfg.arrival_rate = self.arrival_rate;
        // A short, violent burst: at 10× the flash consumes the arrival
        // budget quickly, so a narrow window keeps the post-flash
        // drain-down (where the second crash lands) inside the run.
        cfg.flash_at = Some(self.at(0.20));
        cfg.flash_duration = SimDuration::from_secs_f64(self.span().as_secs_f64() * 0.05);
        cfg.flash_factor = self.flash_factor;
        cfg.flash_hot_keys = 64;
        cfg.supervised = true;
        cfg.reshard_at = Some(self.at(0.15));
        cfg.autoscale = true;
        cfg
    }
}

/// One chaos run's outcome: the full colocated report plus the SLO/RTO
/// verdicts the campaign gates on.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The underlying train + serve reports.
    pub report: ColocatedReport,
    /// p99 objective echoed from the config, in nanoseconds.
    pub slo_p99_ns: u64,
    /// RTO objective echoed from the config, in nanoseconds.
    pub rto_ns: u64,
    /// Measured p99 ≤ objective.
    pub slo_ok: bool,
    /// Worst detection→respawn gap ≤ objective.
    pub rto_ok: bool,
    /// Every injected crash was detected and respawned, the trainer
    /// restored the failed shard, and every request was served.
    pub recovered_ok: bool,
    /// The live split began, migrated, and completed mid-run.
    pub split_ok: bool,
}

impl ChaosReport {
    /// True when every verdict holds.
    pub fn healthy(&self) -> bool {
        self.slo_ok && self.rto_ok && self.recovered_ok && self.split_ok
    }

    /// Panics with a specific diagnosis if any verdict fails — the
    /// campaign gate.
    pub fn assert_healthy(&self) {
        let s = &self.report.serve;
        assert!(
            self.slo_ok,
            "SLO violated: p99 {} ns > objective {} ns",
            s.latency_p99_ns, self.slo_p99_ns
        );
        assert!(
            self.rto_ok,
            "RTO violated: worst recovery {} ns > objective {} ns",
            s.max_recovery_ns, self.rto_ns
        );
        assert!(
            self.recovered_ok,
            "recovery incomplete: {} crashes, {} detections, {} respawns, {} shard failovers",
            s.faults.worker_crashes,
            s.detections,
            s.respawns,
            self.report.train.faults.shard_failovers
        );
        assert!(
            self.split_ok,
            "live split did not complete ({} keys migrated)",
            s.migrated_keys
        );
    }
}

impl ToJson for ChaosReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("slo_p99_ns".to_string(), Json::UInt(self.slo_p99_ns)),
            ("rto_ns".to_string(), Json::UInt(self.rto_ns)),
            ("slo_ok".to_string(), Json::Bool(self.slo_ok)),
            ("rto_ok".to_string(), Json::Bool(self.rto_ok)),
            ("recovered_ok".to_string(), Json::Bool(self.recovered_ok)),
            ("split_ok".to_string(), Json::Bool(self.split_ok)),
            ("report".to_string(), self.report.to_json()),
        ])
    }
}

/// Runs the chaos scenario to completion: live trainer + supervised,
/// autoscaled fleet on one runtime ([`run_colocated`]), under
/// [`ChaosConfig::fault_plan`]. Deterministic: same config ⇒
/// byte-identical [`ChaosReport`] JSON and trace.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let train_cfg = cfg.train_config();
    let serve_cfg = cfg.serve_config(train_cfg.dim);
    // One spare physical shard backs the live split.
    let mut trainer = Trainer::with_cluster(
        train_cfg,
        CtrDataset::new(CtrConfig::tiny(cfg.seed)),
        |rng| WideDeep::new(rng, 4, 8, &[16]),
        serve_cfg.fleet_size(),
        1,
    );
    trainer.override_plan(cfg.fault_plan());
    let (n_fields, dim) = (serve_cfg.n_fields, serve_cfg.dim);
    let report = run_colocated(trainer, serve_cfg, move |rng| {
        WideDeep::new(rng, n_fields, dim, &[16])
    });

    let s = &report.serve;
    let slo_ok = s.latency_p99_ns <= cfg.slo_p99.as_nanos();
    let rto_ok = s.max_recovery_ns <= cfg.rto.as_nanos();
    let recovered_ok = s.detections == s.faults.worker_crashes
        && s.respawns == s.detections
        && report.train.faults.shard_failovers == 1
        && s.requests == cfg.requests as u64;
    let split_ok = s.split_done && s.migrated_keys > 0;
    ChaosReport {
        slo_p99_ns: cfg.slo_p99.as_nanos(),
        rto_ns: cfg.rto.as_nanos(),
        slo_ok,
        rto_ok,
        recovered_ok,
        split_ok,
        report,
    }
}
