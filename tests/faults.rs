//! Fault injection and recovery, end to end.
//!
//! The contract under test: (1) fault injection is **inert when off** —
//! a disabled or zero-event schedule reproduces the fault-free run
//! bit-for-bit; (2) it is **deterministic when on** — the same seed
//! replays every crash, failover, straggler window, and retry
//! identically; (3) a faulted run still completes and reports each
//! fault/recovery event in the train report.

use het::prelude::*;

fn run(seed: u64, faults: FaultConfig) -> TrainReport {
    let dataset = CtrDataset::new(CtrConfig::tiny(seed));
    let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
    config.seed = seed;
    config.max_iterations = 240;
    config.faults = faults;
    let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    trainer.run()
}

fn assert_bit_identical(a: &TrainReport, b: &TrainReport) {
    assert_eq!(a.total_sim_time, b.total_sim_time);
    assert_eq!(a.total_iterations, b.total_iterations);
    assert_eq!(a.comm, b.comm);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.final_metric, b.final_metric);
    assert_eq!(
        a.curve
            .iter()
            .map(|p| (p.iteration, p.metric, p.train_loss))
            .collect::<Vec<_>>(),
        b.curve
            .iter()
            .map(|p| (p.iteration, p.metric, p.train_loss))
            .collect::<Vec<_>>()
    );
}

/// A schedule with every fault class, with the horizon placed inside
/// `sim_time` so each event fires (and its recovery window completes)
/// before the run ends.
fn full_spec(sim_time: SimTime) -> FaultConfig {
    let mut cfg = FaultConfig::disabled();
    cfg.spec.worker_crashes = 1;
    cfg.spec.shard_outages = 1;
    cfg.spec.stragglers = 1;
    cfg.spec.link_degradations = 1;
    cfg.spec.message_drop_prob = 0.02;
    cfg.spec.horizon = SimDuration::from_secs_f64(sim_time.as_secs_f64() * 0.8);
    cfg
}

#[test]
fn zero_counts_ignore_the_recovery_knobs() {
    let baseline = run(11, FaultConfig::disabled());

    // No fault is counted, so the knobs that would shape one (a
    // checkpoint every iteration, a horizon shorter than one, no
    // retries) must not reach the run: no checkpoint store is built.
    let mut zero = FaultConfig::disabled();
    zero.spec.horizon = SimDuration::from_micros(1);
    zero.checkpoint_every = 1;
    zero.max_retries = 0;
    let zeroed = run(11, zero);

    assert_bit_identical(&baseline, &zeroed);
    assert_eq!(zeroed.faults.checkpoints, 0);
    assert_eq!(zeroed.faults, FaultStats::default());
    assert!(zeroed.fault_events.is_empty());
}

#[test]
fn same_seed_replays_the_faulted_run_bit_identically() {
    let baseline = run(13, FaultConfig::disabled());
    let faults = full_spec(baseline.total_sim_time);

    let a = run(13, faults.clone());
    let b = run(13, faults);

    assert_bit_identical(&a, &b);
    assert_eq!(a.faults, b.faults);
    assert_eq!(
        a.fault_events
            .iter()
            .map(|e| (e.at, e.description.clone()))
            .collect::<Vec<_>>(),
        b.fault_events
            .iter()
            .map(|e| (e.at, e.description.clone()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn faulted_run_completes_and_reports_every_event() {
    let baseline = run(17, FaultConfig::disabled());
    let report = run(17, full_spec(baseline.total_sim_time));

    // The run still completes its full iteration budget.
    assert_eq!(report.total_iterations, 240);
    assert!(report.final_metric.is_finite());

    // Every scheduled fault class fired and was recorded.
    assert_eq!(report.faults.worker_crashes, 1, "{:?}", report.fault_events);
    assert_eq!(
        report.faults.shard_failovers, 1,
        "{:?}",
        report.fault_events
    );
    assert!(report.faults.straggler_slow_iters >= 1);
    assert!(
        report.faults.checkpoints >= 1,
        "initial checkpoint always taken"
    );
    assert_eq!(
        report.fault_events.len(),
        2,
        "one crash + one failover recorded"
    );

    // Faults cost simulated time, never save it.
    assert!(report.total_sim_time >= baseline.total_sim_time);
}

#[test]
fn different_fault_seeds_produce_different_schedules() {
    let base_a = run(19, FaultConfig::disabled());
    let a = run(19, full_spec(base_a.total_sim_time));
    let base_b = run(23, FaultConfig::disabled());
    let b = run(23, full_spec(base_b.total_sim_time));
    assert_ne!(
        a.fault_events.iter().map(|e| e.at).collect::<Vec<_>>(),
        b.fault_events.iter().map(|e| e.at).collect::<Vec<_>>()
    );
}

#[test]
fn message_drops_charge_retries_and_extra_bytes() {
    let baseline = run(29, FaultConfig::disabled());
    let mut cfg = FaultConfig::disabled();
    cfg.spec.message_drop_prob = 0.5;
    let dropped = run(29, cfg);

    assert!(dropped.faults.retries > 0);
    assert!(
        dropped.comm.total_bytes() > baseline.comm.total_bytes(),
        "retransmissions must be charged bytes: {} !> {}",
        dropped.comm.total_bytes(),
        baseline.comm.total_bytes()
    );
    assert!(dropped.total_sim_time > baseline.total_sim_time);
}

#[test]
fn shard_failover_restores_from_checkpoint_and_accounts_losses() {
    // Drive the recovery path directly for exact accounting: push known
    // updates, checkpoint, push more, then fail the shard.
    let server = PsServer::new(PsConfig {
        dim: 2,
        n_shards: 2,
        lr: 1.0,
        seed: 3,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: None,
    });
    let key = 0u64;
    let shard = server.shard_index_of(key);
    server.push_inc(key, &[1.0, 1.0]);

    let mut store = ShardCheckpointStore::new(2, 2);
    store.checkpoint_all(&server).unwrap();
    let at_checkpoint = server.pull(key);

    server.push_inc(key, &[1.0, 1.0]);
    server.push_inc(key, &[1.0, 1.0]);

    let outcome = store.fail_and_restore(&server, shard).unwrap();
    assert_eq!(
        outcome.lost_updates, 2,
        "two post-checkpoint clock ticks rolled back"
    );
    let restored = server.pull(key);
    assert_eq!(restored.vector, at_checkpoint.vector);
    assert_eq!(restored.clock, at_checkpoint.clock);
}
