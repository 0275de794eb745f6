//! Reproducibility: the entire simulation — training math, clock
//! algebra, byte counters, convergence curves, fault schedules — is a
//! deterministic function of the seed. Checked as a full matrix:
//! sync mode × {clean, faulted} × seeds, comparing entire reports.

use het::json::ToJson;
use het::prelude::*;

fn run(seed: u64, preset: SystemPreset, faults: FaultConfig) -> TrainReport {
    let dataset = CtrDataset::new(CtrConfig::tiny(seed));
    let mut config = TrainerConfig::tiny(preset);
    config.seed = seed;
    config.max_iterations = 240;
    config.faults = faults;
    let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    trainer.run()
}

/// A fault schedule dense enough to exercise crashes, failover, and
/// stragglers inside a 240-iteration tiny run. The horizon is sized
/// from a clean run of the same cell so every event lands in-run.
fn fault_spec(horizon: SimDuration) -> FaultConfig {
    let mut cfg = FaultConfig::disabled();
    cfg.checkpoint_every = 20;
    cfg.spec.worker_crashes = 2;
    cfg.spec.shard_outages = 1;
    cfg.spec.stragglers = 1;
    cfg.spec.message_drop_prob = 0.01;
    cfg.spec.horizon = horizon;
    cfg
}

/// Two runs of the same configuration must produce JSON-identical
/// reports — every metric, counter, curve point, and fault event.
/// Checked across the full sync-mode matrix (BSP / SSP / ASP), clean
/// and faulted, under several seeds each.
#[test]
fn seed_matrix_identical_reports() {
    let presets: [(SystemPreset, &str); 3] = [
        (SystemPreset::HetCache { staleness: 10 }, "bsp-cached"),
        (SystemPreset::Ssp { staleness: 2 }, "ssp"),
        (SystemPreset::HetPs, "asp"),
    ];
    for (preset, label) in presets {
        for seed in [3u64, 7, 9] {
            let clean_a = run(seed, preset, FaultConfig::disabled());
            let clean_b = run(seed, preset, FaultConfig::disabled());
            // The JSON fingerprint covers the whole report: one
            // diverging byte anywhere fails the matrix cell.
            assert_eq!(
                clean_a.to_json().encode(),
                clean_b.to_json().encode(),
                "{label} seed {seed} clean: reports diverged"
            );

            let horizon = SimDuration::from_secs_f64(clean_a.total_sim_time.as_secs_f64() * 0.8);
            let faulted_a = run(seed, preset, fault_spec(horizon));
            let faulted_b = run(seed, preset, fault_spec(horizon));
            assert_eq!(
                faulted_a.to_json().encode(),
                faulted_b.to_json().encode(),
                "{label} seed {seed} faulted: reports diverged"
            );
            assert!(
                faulted_a.faults.worker_crashes > 0 || faulted_a.faults.shard_failovers > 0,
                "{label} seed {seed}: fault schedule never fired — matrix \
                 cell is not actually exercising the faulted path"
            );
            // Faults must actually perturb the run, or the faulted
            // half of the matrix degenerates into the clean half.
            assert_ne!(
                clean_a.to_json().encode(),
                faulted_a.to_json().encode(),
                "{label} seed {seed}: faulted run identical to clean run"
            );
        }
    }
}

/// The same matrix with the lookahead prefetcher on (depth 4): the
/// prefetch plane, the extra process on the runtime, and its fault
/// cancellation paths are all deterministic functions of the seed too.
#[test]
fn prefetch_seed_matrix_identical_reports() {
    let run_prefetch = |seed: u64, sync: SyncMode, faults: FaultConfig| -> TrainReport {
        let dataset = CtrDataset::new(CtrConfig::tiny(seed));
        let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
        config.system.sync = sync;
        config.seed = seed;
        config.max_iterations = 240;
        config.lookahead_depth = 4;
        config.faults = faults;
        let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
        trainer.run()
    };
    let modes: [(SyncMode, &str); 3] = [
        (SyncMode::Bsp, "bsp-prefetch"),
        (SyncMode::Asp, "asp-prefetch"),
        (SyncMode::Ssp { staleness: 2 }, "ssp-prefetch"),
    ];
    for (sync, label) in modes {
        for seed in [3u64, 7] {
            let clean_a = run_prefetch(seed, sync, FaultConfig::disabled());
            let clean_b = run_prefetch(seed, sync, FaultConfig::disabled());
            assert_eq!(
                clean_a.to_json().encode(),
                clean_b.to_json().encode(),
                "{label} seed {seed} clean: reports diverged"
            );
            assert!(
                clean_a.prefetch.is_some(),
                "{label} seed {seed}: prefetcher never engaged"
            );

            let horizon = SimDuration::from_secs_f64(clean_a.total_sim_time.as_secs_f64() * 0.8);
            let faulted_a = run_prefetch(seed, sync, fault_spec(horizon));
            let faulted_b = run_prefetch(seed, sync, fault_spec(horizon));
            assert_eq!(
                faulted_a.to_json().encode(),
                faulted_b.to_json().encode(),
                "{label} seed {seed} faulted: reports diverged"
            );
            assert!(
                faulted_a.faults.worker_crashes > 0 || faulted_a.faults.shard_failovers > 0,
                "{label} seed {seed}: fault schedule never fired"
            );
            assert_ne!(
                clean_a.to_json().encode(),
                faulted_a.to_json().encode(),
                "{label} seed {seed}: faulted run identical to clean run"
            );
        }
    }
}

/// The eviction-policy zoo joins the matrix: for each new policy
/// (SLRU, LFUDA, GDSF, and the adaptive meta-policy), same seed ⇒
/// byte-identical report JSON *and* byte-identical trace, clean and
/// faulted. Trace identity is the stronger claim for the adaptive
/// policy — its `policy_switch` events (switch points, replayed
/// resident sets, skew estimates) must replay exactly.
#[test]
fn policy_zoo_seed_matrix_identical_reports_and_traces() {
    let run_policy = |seed: u64, kind: PolicyKind, faults: FaultConfig| -> (TrainReport, String) {
        let dataset = CtrDataset::new(CtrConfig::tiny(seed));
        let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
        config = config.with_cache(0.05, kind);
        config.seed = seed;
        config.max_iterations = 240;
        config.faults = faults;
        het::trace::start(Vec::new());
        let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
        let report = trainer.run();
        (report, het::trace::finish().to_jsonl())
    };
    let zoo: [(PolicyKind, &str); 4] = [
        (PolicyKind::Slru, "slru"),
        (PolicyKind::Lfuda, "lfuda"),
        (PolicyKind::Gdsf, "gdsf"),
        (PolicyKind::Adaptive { window: 32 }, "adaptive"),
    ];
    for (kind, label) in zoo {
        for seed in [3u64, 7] {
            let (clean_a, trace_a) = run_policy(seed, kind, FaultConfig::disabled());
            let (clean_b, trace_b) = run_policy(seed, kind, FaultConfig::disabled());
            assert_eq!(
                clean_a.to_json().encode(),
                clean_b.to_json().encode(),
                "{label} seed {seed} clean: reports diverged"
            );
            assert_eq!(
                trace_a, trace_b,
                "{label} seed {seed} clean: traces diverged"
            );

            let horizon = SimDuration::from_secs_f64(clean_a.total_sim_time.as_secs_f64() * 0.8);
            let (faulted_a, ftrace_a) = run_policy(seed, kind, fault_spec(horizon));
            let (faulted_b, ftrace_b) = run_policy(seed, kind, fault_spec(horizon));
            assert_eq!(
                faulted_a.to_json().encode(),
                faulted_b.to_json().encode(),
                "{label} seed {seed} faulted: reports diverged"
            );
            assert_eq!(
                ftrace_a, ftrace_b,
                "{label} seed {seed} faulted: traces diverged"
            );
            assert!(
                faulted_a.faults.worker_crashes > 0 || faulted_a.faults.shard_failovers > 0,
                "{label} seed {seed}: fault schedule never fired"
            );
            assert_ne!(
                clean_a.to_json().encode(),
                faulted_a.to_json().encode(),
                "{label} seed {seed}: faulted run identical to clean run"
            );
        }
    }
}

/// The tiered memory/disk store joins the matrix: with a hot tier
/// small enough to force demotion to the cold log (and modelled disk
/// time flowing into leg latency), same seed ⇒ byte-identical report
/// JSON *and* byte-identical trace, clean and faulted. The faulted
/// half covers checkpoint/failover over a store whose rows live
/// partly in cold pages.
#[test]
fn tiered_store_seed_matrix_identical_reports_and_traces() {
    let run_tiered = |seed: u64, hot: usize, faults: FaultConfig| -> (TrainReport, String) {
        let dataset = CtrDataset::new(CtrConfig::tiny(seed));
        let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
        config.seed = seed;
        config.max_iterations = 240;
        config.store = StoreSpec::Tiered(TieredConfig::new(hot));
        config.faults = faults;
        het::trace::start(Vec::new());
        let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
        let report = trainer.run();
        (report, het::trace::finish().to_jsonl())
    };
    for (hot, label) in [(16usize, "tiered-16"), (256, "tiered-256")] {
        for seed in [3u64, 7] {
            let (clean_a, trace_a) = run_tiered(seed, hot, FaultConfig::disabled());
            let (clean_b, trace_b) = run_tiered(seed, hot, FaultConfig::disabled());
            assert_eq!(
                clean_a.to_json().encode(),
                clean_b.to_json().encode(),
                "{label} seed {seed} clean: reports diverged"
            );
            assert_eq!(
                trace_a, trace_b,
                "{label} seed {seed} clean: traces diverged"
            );
            let store = clean_a
                .store
                .as_ref()
                .expect("tiered run must report store accounting");
            // The 256-row tier holds the tiny run's whole key space —
            // that cell checks that an oversized budget degenerates to
            // flat-store behaviour; only the 16-row cell must spill.
            if hot == 16 {
                assert!(
                    store.stats.demotions > 0,
                    "{label} seed {seed}: hot tier never demoted — the cell \
                     is not actually exercising the cold log"
                );
            }
            assert!(
                store.resident_rows <= store.total_rows,
                "{label} seed {seed}: more resident than stored rows"
            );

            let horizon = SimDuration::from_secs_f64(clean_a.total_sim_time.as_secs_f64() * 0.8);
            let (faulted_a, ftrace_a) = run_tiered(seed, hot, fault_spec(horizon));
            let (faulted_b, ftrace_b) = run_tiered(seed, hot, fault_spec(horizon));
            assert_eq!(
                faulted_a.to_json().encode(),
                faulted_b.to_json().encode(),
                "{label} seed {seed} faulted: reports diverged"
            );
            assert_eq!(
                ftrace_a, ftrace_b,
                "{label} seed {seed} faulted: traces diverged"
            );
            assert!(
                faulted_a.faults.worker_crashes > 0 || faulted_a.faults.shard_failovers > 0,
                "{label} seed {seed}: fault schedule never fired"
            );
            assert_ne!(
                clean_a.to_json().encode(),
                faulted_a.to_json().encode(),
                "{label} seed {seed}: faulted run identical to clean run"
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(
        1,
        SystemPreset::HetCache { staleness: 10 },
        FaultConfig::disabled(),
    );
    let b = run(
        2,
        SystemPreset::HetCache { staleness: 10 },
        FaultConfig::disabled(),
    );
    // Different data & init ⇒ different learning trajectory.
    assert_ne!(a.final_metric, b.final_metric);
}

/// The serving subsystem obeys the same contract: same seed ⇒
/// byte-identical `ServeReport` JSON, clean and under a fault schedule.
/// (The serve *trace* byte-identity lives in `tests/serving.rs`.)
#[test]
fn serve_seed_matrix_identical_reports() {
    let serve = |seed: u64, faults: FaultConfig| -> ServeReport {
        let mut cfg = ServeConfig::tiny(seed);
        cfg.faults = faults;
        ServeSim::new(cfg, |rng| WideDeep::new(rng, 4, 8, &[16])).run()
    };
    let faults = || {
        let mut cfg = FaultConfig::disabled();
        cfg.spec.worker_crashes = 1;
        cfg.spec.shard_outages = 1;
        cfg.spec.restart_delay = SimDuration::from_millis(2);
        cfg.spec.failover_delay = SimDuration::from_millis(4);
        cfg.spec.horizon = SimDuration::from_millis(40);
        cfg
    };
    for seed in [3u64, 7] {
        let clean_a = serve(seed, FaultConfig::disabled());
        let clean_b = serve(seed, FaultConfig::disabled());
        assert_eq!(
            clean_a.to_json().encode(),
            clean_b.to_json().encode(),
            "serve seed {seed} clean: reports diverged"
        );
        let faulted_a = serve(seed, faults());
        let faulted_b = serve(seed, faults());
        assert_eq!(
            faulted_a.to_json().encode(),
            faulted_b.to_json().encode(),
            "serve seed {seed} faulted: reports diverged"
        );
        assert_ne!(
            clean_a.to_json().encode(),
            faulted_a.to_json().encode(),
            "serve seed {seed}: faulted run identical to clean run"
        );
    }
}

/// Co-scheduled training + serving on one cluster runtime obeys the
/// same contract: same seed ⇒ byte-identical combined report JSON *and*
/// byte-identical trace, clean and under a cluster-wide fault plan —
/// and the shared trace's counters reconcile with *both* jobs' reports
/// (the cache counters split across the trainer's write-back caches and
/// the fleet's read-only caches must sum exactly).
#[test]
fn colocated_seed_matrix_identical_reports_and_traces() {
    let colocate = |seed: u64, faults: FaultConfig| -> (ColocatedReport, String) {
        let mut serve_cfg = ServeConfig::tiny(seed);
        serve_cfg.pretrain_updates = 200;
        let mut train_cfg = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
        train_cfg.seed = seed;
        train_cfg.max_iterations = 120;
        train_cfg.faults = faults;
        let dataset = CtrDataset::new(CtrConfig::tiny(seed));
        let trainer = Trainer::with_cluster(
            train_cfg,
            dataset,
            |rng| WideDeep::new(rng, 4, 8, &[16]),
            serve_cfg.n_replicas,
            0,
        );
        het::trace::start(vec![(
            "kind".to_string(),
            het::json::Json::Str("colocate".to_string()),
        )]);
        let report = run_colocated(trainer, serve_cfg, |rng| WideDeep::new(rng, 4, 8, &[16]));
        let log = het::trace::finish();

        // Counter ↔ report reconciliation across both jobs: the serve
        // counters belong to the fleet alone, while the cache counters
        // aggregate every cache client on the shared runtime.
        assert_eq!(log.counter("serve", "requests"), report.serve.requests);
        assert_eq!(log.counter("serve", "batches"), report.serve.batches);
        assert_eq!(
            log.counter("cache", "hits"),
            report.train.cache.hits + report.serve.cache.hits,
            "seed {seed}: cache hits don't split across trainer + fleet"
        );
        assert_eq!(
            log.counter("cache", "misses"),
            report.train.cache.misses + report.serve.cache.misses
        );
        assert_eq!(
            log.counter("cache", "invalidations"),
            report.train.cache.invalidations + report.serve.cache.invalidations
        );
        (report, log.to_jsonl())
    };
    let faults = |horizon: SimDuration| {
        let mut cfg = FaultConfig::disabled();
        cfg.checkpoint_every = 20;
        cfg.spec.worker_crashes = 2;
        cfg.spec.shard_outages = 1;
        cfg.spec.restart_delay = SimDuration::from_millis(2);
        cfg.spec.failover_delay = SimDuration::from_millis(4);
        cfg.spec.horizon = horizon;
        cfg
    };
    for seed in [3u64, 7] {
        let (clean_a, trace_a) = colocate(seed, FaultConfig::disabled());
        let (clean_b, trace_b) = colocate(seed, FaultConfig::disabled());
        assert_eq!(
            clean_a.to_json().encode(),
            clean_b.to_json().encode(),
            "colocate seed {seed} clean: combined reports diverged"
        );
        assert_eq!(
            trace_a, trace_b,
            "colocate seed {seed} clean: traces diverged"
        );

        let horizon = SimDuration::from_secs_f64(clean_a.train.total_sim_time.as_secs_f64() * 0.8);
        let (faulted_a, ftrace_a) = colocate(seed, faults(horizon));
        let (faulted_b, ftrace_b) = colocate(seed, faults(horizon));
        assert_eq!(
            faulted_a.to_json().encode(),
            faulted_b.to_json().encode(),
            "colocate seed {seed} faulted: combined reports diverged"
        );
        assert_eq!(
            ftrace_a, ftrace_b,
            "colocate seed {seed} faulted: traces diverged"
        );
        assert!(
            faulted_a.train.faults.worker_crashes + faulted_a.serve.faults.worker_crashes > 0,
            "colocate seed {seed}: the cluster-wide crash plan never fired"
        );
        assert_ne!(
            clean_a.to_json().encode(),
            faulted_a.to_json().encode(),
            "colocate seed {seed}: faulted run identical to clean run"
        );
    }
}

#[test]
fn dataset_generation_is_stable_across_instances() {
    let a = CtrDataset::new(CtrConfig::criteo_like(3));
    let b = CtrDataset::new(CtrConfig::criteo_like(3));
    for i in 0..50 {
        assert_eq!(a.example(i, false), b.example(i, false));
        assert_eq!(a.example(i, true), b.example(i, true));
    }
    let ga = Graph::generate(GraphConfig::tiny(3));
    let gb = Graph::generate(GraphConfig::tiny(3));
    for v in 0..ga.n_nodes() as u32 {
        assert_eq!(ga.neighbors_of(v), gb.neighbors_of(v));
    }
}

#[test]
fn server_lazy_init_is_order_independent() {
    let a = PsServer::new(PsConfig {
        dim: 8,
        n_shards: 4,
        lr: 0.1,
        seed: 5,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: None,
    });
    let b = PsServer::new(PsConfig {
        dim: 8,
        n_shards: 4,
        lr: 0.1,
        seed: 5,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: None,
    });
    // Touch in opposite orders.
    for k in 0..100u64 {
        let _ = a.pull(k);
    }
    for k in (0..100u64).rev() {
        let _ = b.pull(k);
    }
    for k in 0..100u64 {
        assert_eq!(a.pull(k).vector, b.pull(k).vector);
    }
}
