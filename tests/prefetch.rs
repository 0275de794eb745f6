//! Lookahead prefetching (§4.2's pre-fetching made exact by the
//! deterministic data cursor): the exact-lookahead invariant, the
//! dedup discipline, the prefetch ledger, comm/compute overlap
//! accounting, and depth-0 byte-identity with the legacy path.

use het::json::ToJson;
use het::prelude::*;
use std::collections::HashSet;

/// A cached system with the sync mode overridden (the HetCache preset
/// is BSP; ASP/SSP cells reuse its cache protocol under free-running
/// and bounded-staleness schedules, syncing dense parameters through
/// the dense PS, as workers that never meet in a round cannot AllReduce).
fn cached_config(sync: SyncMode, depth: u64, seed: u64) -> TrainerConfig {
    let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
    config.system.sync = sync;
    if sync != SyncMode::Bsp {
        config.system.dense = DenseSync::Ps;
    }
    config.seed = seed;
    config.max_iterations = 240;
    config.lookahead_depth = depth;
    config
}

fn trainer_for(config: TrainerConfig) -> Trainer<WideDeep, CtrDataset> {
    let seed = config.seed;
    Trainer::new(config, CtrDataset::new(CtrConfig::tiny(seed)), |rng| {
        WideDeep::new(rng, 4, 8, &[16])
    })
}

const SYNC_MODES: [(SyncMode, &str); 3] = [
    (SyncMode::Bsp, "bsp"),
    (SyncMode::Asp, "asp"),
    (SyncMode::Ssp { staleness: 2 }, "ssp"),
];

/// The tentpole invariant, checked over sync mode × depth ∈ {1,2,4,8}:
/// every planned key set is *exactly* the deduplicated key set the
/// worker reads `depth` batches later (recomputed on an independent
/// dataset instance, so the check rides only on cursor purity), the
/// plan partitions that set into issued / resident / in-flight with no
/// overlap and no double-planning, and the prefetch ledger closes.
#[test]
fn exact_lookahead_invariant_across_sync_and_depth() {
    for (sync, label) in SYNC_MODES {
        for depth in [1u64, 2, 4, 8] {
            let config = cached_config(sync, depth, 7);
            let batch_size = config.batch_size;
            let mut t = trainer_for(config);
            t.enable_prefetch_audit();
            let report = t.run();
            let audit = t.prefetch_audit().expect("audit was enabled");
            assert!(!audit.is_empty(), "{label} d{depth}: no plans recorded");

            let dataset = CtrDataset::new(CtrConfig::tiny(7));
            let mut checked = 0usize;
            let mut seen = HashSet::new();
            let mut audit_issued = 0u64;
            for a in &audit {
                // A target is planned at most once per worker in a
                // clean run (`planned_until` only advances): the dedup
                // rule has no second chance to double-fetch.
                assert!(
                    seen.insert((a.worker, a.target_iteration)),
                    "{label} d{depth}: worker {} iteration {} planned twice",
                    a.worker,
                    a.target_iteration,
                );
                // issued ∪ resident ∪ in-flight partitions the batch.
                let mut union: Vec<Key> = a
                    .issued
                    .iter()
                    .chain(&a.skipped_resident)
                    .chain(&a.skipped_inflight)
                    .copied()
                    .collect();
                union.sort_unstable();
                assert_eq!(
                    union, a.planned,
                    "{label} d{depth}: plan partition leaks or overlaps"
                );
                audit_issued += a.issued.len() as u64;
                // Exactness: only meaningful for targets the worker
                // actually reached before shutdown.
                if a.target_iteration >= t.worker_iterations(a.worker) {
                    continue;
                }
                let cursor = t.data_cursor_of(a.worker, a.target_iteration);
                let batch = dataset.train_batch(cursor, batch_size);
                assert_eq!(
                    a.planned,
                    batch.unique_keys(),
                    "{label} d{depth}: planned keys diverge from the batch \
                     worker {} reads at iteration {}",
                    a.worker,
                    a.target_iteration,
                );
                checked += 1;
            }
            assert!(
                checked as u64 >= depth,
                "{label} d{depth}: exactness checked on {checked} targets only"
            );

            // The prefetch ledger: every key a plan hands over is
            // eventually installed or cancelled; pulls are a subset of
            // hand-overs (outage skips and stranded orders never pull);
            // installs are a subset of pulls.
            let p = report.prefetch.expect("depth > 0 must report prefetch");
            assert_eq!(p.depth, depth);
            assert!(p.issued_keys > 0, "{label} d{depth}: nothing ever pulled");
            assert_eq!(
                audit_issued,
                p.installed_keys + p.cancelled_keys,
                "{label} d{depth}: prefetch ledger does not close"
            );
            assert!(p.issued_keys <= audit_issued);
            assert!(p.installed_keys <= p.issued_keys);
            // Cache side of the ledger: after the end-of-run flush every
            // prefetch-installed entry has surfaced as a hit or waste.
            assert_eq!(report.cache.prefetch_installs, p.installed_keys);
            assert_eq!(
                report.cache.prefetch_installs,
                report.cache.prefetch_hits + report.cache.prefetch_wasted,
                "{label} d{depth}: cache prefetch ledger does not close"
            );
        }
    }
}

/// Overlap does real work: at depth 4 the transfer time hidden behind
/// compute is positive, reads turn misses into prefetch hits, and the
/// simulated run finishes faster than the depth-0 run of the identical
/// configuration.
#[test]
fn lookahead_hides_transfer_time_and_speeds_up_the_run() {
    let mk = |depth: u64| {
        cached_config(SyncMode::Bsp, depth, 11).with_cache(0.6, PolicyKind::light_lfu())
    };
    let base = trainer_for(mk(0)).run();
    assert!(base.prefetch.is_none(), "depth 0 must not report prefetch");
    let pre = trainer_for(mk(4)).run();
    let p = pre.prefetch.expect("depth 4 must report prefetch");
    assert_eq!(pre.total_iterations, base.total_iterations);
    assert!(p.hidden_ns() > 0, "no transfer time was hidden");
    assert!(pre.cache.prefetch_hits > 0, "prefetches never became hits");
    assert!(
        pre.total_sim_time < base.total_sim_time,
        "prefetch run ({}) not faster than demand-only run ({})",
        pre.total_sim_time,
        base.total_sim_time,
    );
}

/// `lookahead_depth = 0` reproduces the legacy path byte-for-byte:
/// reports and traces are self-identical across runs, carry no
/// `prefetch` section and no `prefetcher` component — while depth 4
/// visibly engages both.
#[test]
fn depth_zero_is_byte_identical_to_legacy_path() {
    let run_traced = |depth: u64| {
        het::trace::start(vec![(
            "kind".to_string(),
            het::json::Json::Str("prefetch-identity".to_string()),
        )]);
        let report = trainer_for(cached_config(SyncMode::Bsp, depth, 3)).run();
        let log = het::trace::finish();
        (report.to_json().encode(), log.to_jsonl())
    };
    let (r0a, t0a) = run_traced(0);
    let (r0b, t0b) = run_traced(0);
    assert_eq!(r0a, r0b, "depth-0 reports diverged");
    assert_eq!(t0a, t0b, "depth-0 traces diverged");
    assert!(
        !r0a.contains("\"prefetch\""),
        "depth-0 report leaks prefetch"
    );
    assert!(
        !t0a.contains("prefetcher"),
        "depth-0 trace leaks prefetcher"
    );

    let (r4, t4) = run_traced(4);
    assert!(
        r4.contains("\"prefetch\""),
        "depth-4 report missing prefetch"
    );
    assert!(
        t4.contains("prefetcher"),
        "depth-4 trace missing prefetcher"
    );
}

/// Counter ↔ report reconciliation on a prefetch-enabled traced run:
/// the prefetcher's trace counters match the report summary, the cache
/// counters match the merged cache stats, and prefetch hits plus demand
/// hits account for every hit.
#[test]
fn trace_counters_reconcile_with_prefetch_report() {
    het::trace::start(vec![(
        "kind".to_string(),
        het::json::Json::Str("prefetch-reconcile".to_string()),
    )]);
    let report = trainer_for(cached_config(SyncMode::Bsp, 4, 5)).run();
    let log = het::trace::finish();
    let p = report.prefetch.expect("depth 4 must report prefetch");
    assert!(p.issued_keys > 0);
    assert_eq!(log.counter("prefetcher", "issued_keys"), p.issued_keys);
    assert_eq!(
        log.counter("cache", "prefetch_installs"),
        report.cache.prefetch_installs
    );
    assert_eq!(
        log.counter("cache", "prefetch_hits"),
        report.cache.prefetch_hits
    );
    assert_eq!(
        log.counter("cache", "prefetch_wasted"),
        report.cache.prefetch_wasted
    );
    // Every hit is either a prefetch hit or a demand hit.
    assert_eq!(log.counter("cache", "hits"), report.cache.hits);
    assert!(report.cache.prefetch_hits > 0);
    assert!(report.cache.prefetch_hits <= report.cache.hits);
}

/// Fault routing: worker crashes and shard outages cancel the affected
/// prefetches (queued and in flight) instead of installing stale or
/// doomed pulls — and both ledgers still close afterwards.
#[test]
fn faults_cancel_prefetches_and_ledger_still_closes() {
    let clean = trainer_for(cached_config(SyncMode::Asp, 4, 9)).run();
    let horizon = FaultSpec::horizon_within(clean.total_sim_time);
    let mut config = cached_config(SyncMode::Asp, 4, 9);
    config.checkpoint_every = 20;
    config.faults.worker_crashes = 2;
    config.faults.shard_outages = 1;
    config.faults.horizon = horizon;
    let mut t = trainer_for(config);
    t.enable_prefetch_audit();
    let report = t.run();
    assert!(
        report.faults.worker_crashes > 0 || report.faults.shard_failovers > 0,
        "fault schedule never fired"
    );
    let p = report.prefetch.expect("depth 4 must report prefetch");
    assert!(p.cancelled_keys > 0, "faults cancelled nothing");
    let audit_issued: u64 = t
        .prefetch_audit()
        .expect("audit was enabled")
        .iter()
        .map(|a| a.issued.len() as u64)
        .sum();
    assert_eq!(
        audit_issued,
        p.installed_keys + p.cancelled_keys,
        "faulted prefetch ledger does not close"
    );
    assert_eq!(
        report.cache.prefetch_installs,
        report.cache.prefetch_hits + report.cache.prefetch_wasted,
        "faulted cache prefetch ledger does not close"
    );
}

/// A trainer co-scheduled with a serving fleet registers its own
/// prefetcher, as it does alone: at depth 2 the colocated run issues
/// lookahead pulls, and the combined trace replays clean through the
/// consistency oracle (clock bounds, push parity, prefetch ledger).
#[test]
fn colocated_trainer_keeps_its_prefetcher() {
    use het::trace;
    use het_oracle::{check_replay, OracleSpec};

    let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
    config.lookahead_depth = 2;
    let mut serve_cfg = ServeConfig::tiny(5);
    serve_cfg.dim = config.dim;
    // No pretraining pushes, so push parity (PS pushes == cache
    // write-backs) holds over the whole trace.
    serve_cfg.pretrain_updates = 0;
    let n_requests = serve_cfg.n_requests as u64;
    let trainer = Trainer::with_cluster(
        config.clone(),
        CtrDataset::new(CtrConfig::tiny(config.seed)),
        |rng| WideDeep::new(rng, 4, 8, &[16]),
        serve_cfg.fleet_size(),
        0,
    );
    let (n_fields, dim) = (serve_cfg.n_fields, serve_cfg.dim);
    trace::start(Vec::new());
    let report = run_colocated(trainer, serve_cfg, move |rng| {
        WideDeep::new(rng, n_fields, dim, &[16])
    });
    let log = trace::finish();

    let prefetch = report
        .train
        .prefetch
        .expect("a lookahead run reports its prefetcher");
    assert!(
        prefetch.issued_keys > 0,
        "the colocated trainer issued no lookahead pulls"
    );
    assert_eq!(
        report.serve.requests, n_requests,
        "co-scheduling dropped requests"
    );
    let oracle = check_replay(&log, &OracleSpec::of(&config))
        .expect("oracle found a violation in the colocated lookahead run");
    assert!(oracle.computes > 0, "oracle never saw an iteration");
    assert!(
        oracle.prefetch_installs > 0,
        "oracle never saw a prefetch land"
    );
}
