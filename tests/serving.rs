//! The online-inference serving subsystem (`het-serve`).
//!
//! Contracts under test: (1) a serving run is a **deterministic**
//! function of its seed — byte-identical `ServeReport` JSON and
//! byte-identical serve trace, clean and fault-injected; (2) the
//! staleness window holds — serving concurrent with training never
//! admits a read outside `s`, checked via the `client/read_window`
//! events the oracle path already emits; (3) SpaceSaving warmup beats a
//! cold start on miss rate and tail latency; (4) p99 degrades
//! monotonically as cache capacity shrinks; (5) replica crashes
//! cold-restart and PS-shard outages degrade to stale serving while
//! every request is still answered; (6) serve trace counters reconcile
//! exactly with the report, and the committed golden serve fixture
//! stays current.
//!
//! Regenerate the serve fixture after an intentional instrumentation
//! change with:
//!
//! ```text
//! cargo test -p het --test serving -- --ignored regenerate
//! ```

use het::json::{Json, ToJson};
use het::prelude::*;
use het::serve::ServeSim;
use het::trace;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
const FIXTURE_SEED: u64 = 11;

/// Every test serves the same small Wide&Deep model; the factory seeds
/// identically across replicas inside `ServeSim`.
fn run(cfg: ServeConfig) -> ServeReport {
    let n_fields = cfg.n_fields;
    let dim = cfg.dim;
    ServeSim::new(cfg, move |rng| WideDeep::new(rng, n_fields, dim, &[16])).run()
}

fn traced_run(cfg: ServeConfig) -> (ServeReport, trace::TraceLog) {
    trace::start(vec![
        ("kind".to_string(), Json::Str("serve".to_string())),
        ("seed".to_string(), Json::UInt(cfg.seed)),
    ]);
    let report = run(cfg);
    (report, trace::finish())
}

/// A fault schedule with replica crashes and one shard outage, sized so
/// everything lands inside a tiny run (~50 ms of simulated time).
fn fault_spec() -> FaultSpec {
    FaultSpec {
        worker_crashes: 2,
        shard_outages: 1,
        restart_delay: SimDuration::from_millis(2),
        failover_delay: SimDuration::from_millis(4),
        horizon: SimDuration::from_millis(40),
        ..FaultSpec::default()
    }
}

#[test]
fn same_seed_gives_byte_identical_report_and_trace() {
    for faults in [FaultSpec::default(), fault_spec()] {
        let faulted = !faults.is_zero();
        let mut cfg = ServeConfig::tiny(13);
        cfg.faults = faults;
        let (report_a, log_a) = traced_run(cfg.clone());
        let (report_b, log_b) = traced_run(cfg);
        assert_eq!(
            report_a.to_json().encode(),
            report_b.to_json().encode(),
            "faulted={faulted}: reports diverged"
        );
        let (jsonl_a, jsonl_b) = (log_a.to_jsonl(), log_b.to_jsonl());
        assert!(!log_a.events.is_empty(), "trace has no events");
        assert_eq!(jsonl_a, jsonl_b, "faulted={faulted}: traces diverged");
        trace::schema::validate_jsonl(&jsonl_a).expect("serve trace is schema-valid");
        if faulted {
            assert!(
                report_a.faults.worker_crashes > 0,
                "fault schedule never fired a crash"
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(ServeConfig::tiny(1));
    let b = run(ServeConfig::tiny(2));
    assert_ne!(
        a.to_json().encode(),
        b.to_json().encode(),
        "different seeds must give different runs"
    );
}

/// The acceptance bound: serving co-scheduled with a *live* trainer on
/// one cluster runtime never admits a read outside the staleness window
/// `s`. Every gradient the trainer pushes advances the per-key server
/// clocks the replicas' reads are bounded by; every serve-side
/// `client/read_window` event reports the worst lag (condition 1) and
/// clock gap (condition 2) among the reads it validated — both must
/// respect the serve config's `s` even while training mutates the table
/// underneath.
#[test]
fn concurrent_training_never_breaks_the_staleness_window() {
    let mut serve_cfg = ServeConfig::tiny(21);
    serve_cfg.staleness = 4;
    serve_cfg.pretrain_updates = 300;
    let train_cfg = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 8 });
    let dataset = CtrDataset::new(CtrConfig::tiny(21));
    let trainer = Trainer::with_cluster(
        train_cfg,
        dataset,
        |rng| WideDeep::new(rng, 4, 8, &[16]),
        serve_cfg.n_replicas,
        0,
    );
    let n_workers = trainer.n_workers() as u64;
    let (n_fields, dim) = (serve_cfg.n_fields, serve_cfg.dim);
    trace::start(vec![(
        "kind".to_string(),
        Json::Str("colocate".to_string()),
    )]);
    let report = run_colocated(trainer, serve_cfg.clone(), move |rng| {
        WideDeep::new(rng, n_fields, dim, &[16])
    });
    let log = trace::finish();
    assert!(report.train.total_iterations > 0, "trainer never ran");
    assert_eq!(
        report.serve.requests, serve_cfg.n_requests as u64,
        "co-scheduling dropped requests"
    );
    assert!(
        report.serve.cache.invalidations > 0,
        "live training never invalidated a cached serving entry — the window is not being exercised"
    );
    // The serving fleet owns members n_workers.. on the shared runtime;
    // its read_window events are the ones bounded by the serve `s` (the
    // trainer's own cached reads answer to its wider window).
    let windows: Vec<_> = log
        .events_of("client")
        .filter(|e| e.name == "read_window" && e.worker.is_some_and(|w| w >= n_workers))
        .collect();
    assert!(
        !windows.is_empty(),
        "no serve-side read_window events emitted"
    );
    let field = |e: &trace::TraceEvent, key: &str| -> u64 {
        e.field_u64(key).unwrap_or_else(|| {
            panic!(
                "read_window field {key} missing or mistyped: {:?}",
                e.field(key)
            )
        })
    };
    let mut validated_total = 0u64;
    for w in &windows {
        let max_lag = field(w, "max_lag");
        let max_gap = field(w, "max_gap");
        validated_total += field(w, "validated");
        assert!(
            max_gap <= serve_cfg.staleness,
            "read-side clock gap {max_gap} exceeds staleness {}",
            serve_cfg.staleness
        );
        // A read-only serving cache never advances c_c, so its lag is
        // identically zero — the whole window is available to the gap.
        assert_eq!(max_lag, 0, "serving cache advanced a local clock");
    }
    assert!(validated_total > 0, "no read was ever clock-validated");
}

#[test]
fn spacesaving_warmup_beats_cold_start() {
    let mut cold_cfg = ServeConfig::tiny(33);
    cold_cfg.pretrain_updates = 300;
    let mut warm_cfg = cold_cfg.clone();
    warm_cfg.warmup_requests = 2_000;
    let cold = run(cold_cfg);
    let warm = run(warm_cfg);
    assert!(warm.warmed_keys > 0, "warmup installed nothing");
    assert_eq!(cold.requests, warm.requests, "same schedule both runs");
    assert!(
        warm.cache.miss_rate() < cold.cache.miss_rate(),
        "warmed miss rate {:.4} not below cold {:.4}",
        warm.cache.miss_rate(),
        cold.cache.miss_rate()
    );
    assert!(
        warm.latency_p99_ns <= cold.latency_p99_ns,
        "warmed p99 {} worse than cold {}",
        warm.latency_p99_ns,
        cold.latency_p99_ns
    );
}

#[test]
fn p99_degrades_monotonically_as_cache_shrinks() {
    let mut last: Option<(usize, ServeReport)> = None;
    for capacity in [400usize, 120, 40, 12] {
        let mut cfg = ServeConfig::tiny(45);
        cfg.cache_capacity = capacity;
        cfg.warmup_requests = 1_000;
        let report = run(cfg);
        if let Some((prev_cap, prev)) = &last {
            assert!(
                report.cache.miss_rate() > prev.cache.miss_rate(),
                "capacity {capacity} miss rate {:.4} not above capacity {prev_cap}'s {:.4}",
                report.cache.miss_rate(),
                prev.cache.miss_rate()
            );
            assert!(
                report.latency_p99_ns >= prev.latency_p99_ns,
                "capacity {capacity} p99 {} better than larger capacity {prev_cap}'s {}",
                report.latency_p99_ns,
                prev.latency_p99_ns
            );
        }
        last = Some((capacity, report));
    }
}

#[test]
fn replica_crashes_cold_restart_and_still_serve_everything() {
    let mut cfg = ServeConfig::tiny(57);
    cfg.faults = fault_spec();
    cfg.faults.shard_outages = 0;
    let clean = {
        let mut c = cfg.clone();
        c.faults = FaultSpec::default();
        run(c)
    };
    let faulted = run(cfg.clone());
    assert!(faulted.faults.worker_crashes > 0, "no crash fired");
    assert!(
        faulted.faults.keys_lost > 0,
        "a crash must drop the cache cold"
    );
    assert_eq!(
        faulted.requests, cfg.n_requests as u64,
        "every request must still be served"
    );
    let crashes: u64 = faulted.replicas.iter().map(|r| r.crashes).sum();
    assert_eq!(crashes, faulted.faults.worker_crashes);
    assert_ne!(
        clean.to_json().encode(),
        faulted.to_json().encode(),
        "crashes left no mark on the run"
    );
}

#[test]
fn shard_outage_degrades_to_stale_serving() {
    let mut cfg = ServeConfig::tiny(69);
    cfg.faults = fault_spec();
    cfg.faults.worker_crashes = 0;
    cfg.warmup_requests = 2_000; // resident hot set → degradable reads
    cfg.pretrain_updates = 300;
    let report = run(cfg.clone());
    assert!(report.faults.shard_failovers > 0, "no outage fired");
    assert!(
        report.faults.degraded_reads > 0,
        "outage never produced a gracefully degraded (stale) read"
    );
    assert_eq!(
        report.requests, cfg.n_requests as u64,
        "outage must not drop requests"
    );
}

fn fixture_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::tiny(FIXTURE_SEED);
    cfg.n_requests = 200;
    cfg.pretrain_updates = 200;
    cfg.warmup_requests = 500;
    cfg.faults = fault_spec();
    cfg
}

/// Serve counters must reconcile exactly with the `ServeReport` — the
/// trace and the report are two views of one run.
#[test]
fn serve_counters_reconcile_with_the_report() {
    let (report, log) = traced_run(fixture_cfg());
    assert_eq!(log.counter("serve", "requests"), report.requests);
    assert_eq!(log.counter("serve", "batches"), report.batches);
    assert_eq!(log.counter("serve", "queue_wait_ns"), report.queue_wait_ns);
    assert_eq!(
        log.counter("serve", "degraded_reads"),
        report.faults.degraded_reads
    );
    assert_eq!(
        log.counter("serve", "warmed_keys"),
        report.warmed_keys * report.n_replicas as u64
    );
    // Cache counters: serving is the only cache user in this run.
    assert_eq!(log.counter("cache", "hits"), report.cache.hits);
    assert_eq!(log.counter("cache", "misses"), report.cache.misses);
    assert_eq!(
        log.counter("cache", "invalidations"),
        report.cache.invalidations
    );
    assert_eq!(
        log.counter("cache", "capacity_evictions"),
        report.cache.capacity_evictions
    );
    // Per-replica attribution: each replica's requests counter equals
    // its row in the report.
    for r in &report.replicas {
        assert_eq!(
            log.counter_at("serve", "requests", Some(r.replica as u64)),
            r.requests,
            "replica {} counter mismatch",
            r.replica
        );
    }
    // Crash events appear once per crash.
    let crash_events = log
        .events_of("serve")
        .filter(|e| e.name == "replica_crash")
        .count() as u64;
    assert_eq!(crash_events, report.faults.worker_crashes);
}

#[test]
fn committed_serve_fixture_validates_and_is_current() {
    let path = format!("{GOLDEN_DIR}/serve_cached.trace.jsonl");
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
    let summary = trace::schema::validate_jsonl(&committed).expect("serve fixture is schema-valid");
    for comp in ["serve", "cache", "client", "ps"] {
        assert!(
            summary.components.contains(comp),
            "fixture missing component {comp}: {:?}",
            summary.components
        );
    }
    for kind in [
        "serve.request",
        "serve.batch",
        "serve.lookup",
        "serve.infer",
    ] {
        assert!(
            summary.event_kinds.contains(kind),
            "fixture missing event kind {kind}"
        );
    }
    let log = traced_run(fixture_cfg()).1;
    assert_eq!(
        committed,
        log.to_jsonl(),
        "serve fixture is stale — regenerate with \
         `cargo test -p het --test serving -- --ignored regenerate`"
    );
    // The reader must give back exactly the log the writer held.
    let parsed = trace::TraceLog::parse(&committed).expect("serve fixture parses");
    assert_eq!(parsed, log, "the serve log changed through JSONL");
}

/// Rewrites `tests/golden/serve_cached.trace.jsonl`. Run manually after
/// an intentional instrumentation change:
/// `cargo test -p het --test serving -- --ignored regenerate`.
#[test]
#[ignore = "rewrites the committed golden serve fixture"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(GOLDEN_DIR).expect("create tests/golden");
    let jsonl = traced_run(fixture_cfg()).1.to_jsonl();
    std::fs::write(format!("{GOLDEN_DIR}/serve_cached.trace.jsonl"), jsonl).unwrap();
}
