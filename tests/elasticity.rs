//! Self-healing elasticity: failure detection, supervised recovery,
//! autoscaling, and live PS resharding (`het-serve::supervise`/`chaos`).
//!
//! Contracts under test: (1) a supervised run *detects* replica crashes
//! from heartbeat silence (never from the fault plan), respawns them
//! with sketch-warmed caches, and still serves every request — and two
//! same-seed runs are byte-identical in report JSON and trace; (2) a
//! live PS-shard split driven mid-serving conserves every served
//! result bit-for-bit while actually moving keys, and a split with no
//! supervisor to drive it is rejected; (3) the autoscaler
//! scales up into a flash crowd and back down after it, without
//! flapping on steady load; (4) the full chaos campaign — 10× flash +
//! replica crashes + concurrent shard outage + live split over a live
//! trainer — passes its SLO/RTO gate deterministically and replays
//! clean through the consistency oracle.

use het::json::{Json, ToJson};
use het::prelude::*;
use het::serve::ServeSim;
use het::trace;
use het_oracle::{check_replay, OracleSpec};

fn run_with_plan(cfg: ServeConfig, plan: FaultPlan) -> ServeReport {
    let (n_fields, dim) = (cfg.n_fields, cfg.dim);
    ServeSim::with_plan(cfg, plan, move |rng| {
        WideDeep::new(rng, n_fields, dim, &[16])
    })
    .run()
}

fn traced_run_with_plan(cfg: ServeConfig, plan: FaultPlan) -> (ServeReport, trace::TraceLog) {
    trace::start(vec![(
        "kind".to_string(),
        Json::Str("elasticity".to_string()),
    )]);
    let report = run_with_plan(cfg, plan);
    (report, trace::finish())
}

/// One replica crash at 10 ms with an absurd scripted restart delay:
/// only *supervised* recovery can bring the replica back.
fn crash_plan() -> FaultPlan {
    FaultPlan::scripted(vec![FaultEvent::WorkerCrash {
        worker: 0,
        at: SimTime::ZERO + SimDuration::from_millis(10),
        restart_delay: SimDuration::from_secs_f64(3600.0),
    }])
}

fn supervised_cfg(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::tiny(seed);
    cfg.supervised = true;
    cfg
}

#[test]
fn detected_crash_is_respawned_and_everything_is_served() {
    let (report, log) = traced_run_with_plan(supervised_cfg(91), crash_plan());
    assert_eq!(report.faults.worker_crashes, 1, "the crash must land");
    assert_eq!(
        report.detections, 1,
        "heartbeat silence must be detected exactly once"
    );
    assert_eq!(report.respawns, 1, "the detection must drive a respawn");
    assert_eq!(
        report.requests,
        ServeConfig::tiny(91).n_requests as u64,
        "supervised recovery must not drop requests"
    );
    // Detection is heartbeat-driven: the supervisor's own events tell
    // the story in order — detect, then respawn command.
    let sup: Vec<&str> = log.events_of("supervisor").map(|e| &*e.name).collect();
    assert!(sup.contains(&"detect_crash"), "no detect_crash event");
    assert!(sup.contains(&"respawn"), "no respawn command event");
    let respawn_events = log
        .events_of("serve")
        .filter(|e| e.name == "replica_respawn")
        .count();
    assert_eq!(respawn_events, 1, "fleet must apply exactly one respawn");
    // The respawned cache is warmed from the live popularity sketch.
    let warmed = log
        .events_of("serve")
        .filter(|e| e.name == "replica_respawn")
        .filter_map(|e| e.field_u64("keys_warmed"))
        .next()
        .expect("replica_respawn carries keys_warmed");
    assert!(warmed > 0, "respawn warmed nothing from the sketch");
}

#[test]
fn supervised_recovery_is_byte_identical_across_runs() {
    let (report_a, log_a) = traced_run_with_plan(supervised_cfg(92), crash_plan());
    let (report_b, log_b) = traced_run_with_plan(supervised_cfg(92), crash_plan());
    assert_eq!(
        report_a.to_json().encode(),
        report_b.to_json().encode(),
        "same-seed supervised reports diverged"
    );
    assert_eq!(
        log_a.to_jsonl(),
        log_b.to_jsonl(),
        "same-seed supervised traces diverged"
    );
    trace::schema::validate_jsonl(&log_a.to_jsonl()).expect("supervised trace is schema-valid");
}

/// A supervised fleet beside a live trainer registers its own
/// supervisor, as it does alone: a crash of the first replica (cluster
/// member `n_workers`) is detected and respawned, and the run returns
/// having served every request. Without a supervisor the requests
/// queued at the crashed replica are never served and its heartbeat
/// reschedules forever.
#[test]
fn colocated_supervised_fleet_respawns_a_crashed_replica() {
    let serve_cfg = supervised_cfg(94);
    let n_requests = serve_cfg.n_requests as u64;
    let train_cfg = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
    let mut trainer = Trainer::with_cluster(
        train_cfg,
        CtrDataset::new(CtrConfig::tiny(94)),
        |rng| WideDeep::new(rng, 4, 8, &[16]),
        serve_cfg.fleet_size(),
        0,
    );
    trainer.override_plan(FaultPlan::scripted(vec![FaultEvent::WorkerCrash {
        worker: trainer.n_workers(),
        at: SimTime::ZERO + SimDuration::from_millis(20),
        restart_delay: SimDuration::from_secs_f64(3600.0),
    }]));
    let (n_fields, dim) = (serve_cfg.n_fields, serve_cfg.dim);
    let report = run_colocated(trainer, serve_cfg, move |rng| {
        WideDeep::new(rng, n_fields, dim, &[16])
    });
    let s = &report.serve;
    assert_eq!(s.faults.worker_crashes, 1, "the crash must land");
    assert_eq!(s.detections, 1, "heartbeat silence must be detected once");
    assert_eq!(s.respawns, 1, "the detection must drive a respawn");
    assert_eq!(
        s.requests, n_requests,
        "supervised recovery dropped requests"
    );
}

/// A live split moves real keys between shards mid-serving, yet every
/// served score is bit-identical to the unsplit run: resharding is
/// invisible to correctness, visible only to placement.
#[test]
fn live_shard_split_conserves_every_served_result() {
    let mut base_cfg = ServeConfig::tiny(93);
    base_cfg.pretrain_updates = 400;
    let mut split_cfg = base_cfg.clone();
    split_cfg.supervised = true;
    split_cfg.reshard_at = Some(SimTime::ZERO + SimDuration::from_millis(5));
    let base = run_with_plan(base_cfg, FaultPlan::none());
    let split = run_with_plan(split_cfg, FaultPlan::none());
    assert!(split.split_done, "the split never completed");
    assert!(split.migrated_keys > 0, "the split moved no keys");
    assert_eq!(base.requests, split.requests, "split dropped requests");
    assert_eq!(
        base.score_mean.to_bits(),
        split.score_mean.to_bits(),
        "resharding changed a served result: {} vs {}",
        base.score_mean,
        split.score_mean
    );
}

/// The supervisor drives a live split, so a split planned without one
/// would never run: the config is rejected, naming both fields.
#[test]
fn a_live_split_without_supervision_is_rejected() {
    let mut cfg = ServeConfig::tiny(93);
    cfg.reshard_at = Some(SimTime::ZERO + SimDuration::from_millis(5));
    let err = cfg
        .validate()
        .expect_err("an unsupervised split must be rejected");
    assert!(
        err.contains("reshard_at") && err.contains("supervised"),
        "{err}"
    );
    cfg.supervised = true;
    assert_eq!(cfg.validate(), Ok(()));
}

fn autoscaled_cfg(seed: u64, flash: bool) -> ServeConfig {
    let mut cfg = ServeConfig::tiny(seed);
    cfg.n_requests = 800;
    cfg.autoscale = true;
    if flash {
        cfg.flash_at = Some(SimTime::ZERO + SimDuration::from_millis(20));
        cfg.flash_duration = SimDuration::from_millis(25);
        cfg.flash_factor = 10.0;
        cfg.flash_hot_keys = 64;
    }
    cfg
}

#[test]
fn autoscaler_grows_into_the_flash_and_drains_after() {
    let report = run_with_plan(autoscaled_cfg(94, true), FaultPlan::none());
    assert!(
        report.scale_ups >= 1,
        "a 10x flash crowd must provoke a scale-up"
    );
    assert!(
        report.scale_downs >= 1,
        "the pool must drain back down after the flash"
    );
    assert_eq!(report.requests, 800, "autoscaling must not drop requests");
    // Hysteresis + cooldown bound the action count — no flapping.
    assert!(
        report.scale_ups + report.scale_downs <= 10,
        "autoscaler flapped: {} ups + {} downs",
        report.scale_ups,
        report.scale_downs
    );
}

#[test]
fn autoscaler_holds_still_on_steady_load() {
    let report = run_with_plan(autoscaled_cfg(95, false), FaultPlan::none());
    assert_eq!(
        report.scale_ups, 0,
        "steady load inside the hysteresis band must not scale up"
    );
    assert!(
        report.scale_downs <= 1,
        "steady light load may shed at most the over-provisioned replica, saw {}",
        report.scale_downs
    );
    assert_eq!(report.requests, 800, "steady run dropped requests");
}

/// The acceptance scenario: 10× flash crowd + two replica crashes +
/// concurrent PS-shard outage + live shard split, over a live trainer
/// on one runtime. Deterministic, SLO/RTO-clean, oracle-clean.
#[test]
fn chaos_campaign_is_healthy_deterministic_and_oracle_clean() {
    let cfg = ChaosConfig::tiny(7);
    let run = |cfg: &ChaosConfig| {
        trace::start(vec![("kind".to_string(), Json::Str("chaos".to_string()))]);
        let report = run_chaos(cfg);
        (report, trace::finish())
    };
    let (report_a, log_a) = run(&cfg);
    let (report_b, log_b) = run(&cfg);
    assert_eq!(
        report_a.to_json().encode(),
        report_b.to_json().encode(),
        "same-seed chaos reports diverged"
    );
    assert_eq!(
        log_a.to_jsonl(),
        log_b.to_jsonl(),
        "same-seed chaos traces diverged"
    );
    trace::schema::validate_jsonl(&log_a.to_jsonl()).expect("chaos trace is schema-valid");

    report_a.assert_healthy();
    let s = &report_a.report.serve;
    assert_eq!(s.detections, 2, "both scripted crashes must be detected");
    assert!(s.scale_ups >= 1, "the flash must provoke scaling");
    assert!(
        s.migrated_keys > 0 && s.split_done,
        "the live split must complete mid-run"
    );
    assert!(
        report_a.report.train.total_iterations > 0,
        "the trainer must make progress through the chaos"
    );

    // The whole compound scenario still replays clean through the
    // model-based consistency oracle: clock bounds, gradient
    // conservation, push parity, cache windows.
    let spec = OracleSpec::of(&cfg.train_config());
    let oracle = check_replay(&log_a, &spec).expect("oracle found a violation in the chaos run");
    assert!(oracle.computes > 0, "oracle never saw an iteration");
    assert!(oracle.window_reads > 0, "oracle never saw a read window");
}

/// The chaos gate holds across a small seed sweep (the CI campaign
/// runs a much larger one through `hetctl chaos --seeds`).
#[test]
fn chaos_campaign_passes_across_seeds() {
    for seed in [1, 2, 3] {
        let report = run_chaos(&ChaosConfig::tiny(seed));
        assert!(
            report.healthy(),
            "seed {seed} failed the chaos gate: slo_ok={} rto_ok={} recovered_ok={} split_ok={}",
            report.slo_ok,
            report.rto_ok,
            report.recovered_ok,
            report.split_ok
        );
    }
}
