//! Golden trace tests for the observability layer.
//!
//! The contract under test: (1) tracing is **deterministic** — two runs
//! with the same seed, config, and fault schedule emit byte-identical
//! JSONL traces, in BSP and ASP modes, with and without fault
//! injection; (2) tracing is **inert** — enabling it does not perturb
//! the simulated run in any observable way; (3) every trace is
//! **schema-valid** (`het-trace-v1`) and covers all four instrumented
//! components; (4) trace counters **reconcile** with the statistics the
//! trainer reports through `TrainReport`; (5) the committed golden
//! fixtures under `tests/golden/` stay schema-valid.
//!
//! Regenerate the fixtures after intentionally changing the
//! instrumentation with:
//!
//! ```text
//! cargo test -p het --test trace_golden -- --ignored regenerate
//! ```

use het::json::Json;
use het::prelude::*;
use het::trace;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
const FIXTURE_SEED: u64 = 17;
const FIXTURE_ITERS: u64 = 60;

fn config(seed: u64, preset: SystemPreset, iters: u64, faults: FaultSpec) -> TrainerConfig {
    let mut config = TrainerConfig::tiny(preset);
    config.seed = seed;
    config.max_iterations = iters;
    config.faults = faults;
    config
}

fn run(seed: u64, preset: SystemPreset, iters: u64, faults: FaultSpec) -> TrainReport {
    run_config(config(seed, preset, iters, faults))
}

fn run_config(config: TrainerConfig) -> TrainReport {
    let dataset = CtrDataset::new(CtrConfig::tiny(config.seed));
    let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    trainer.run()
}

fn traced_run(
    seed: u64,
    preset: SystemPreset,
    iters: u64,
    faults: FaultSpec,
) -> (TrainReport, trace::TraceLog) {
    traced_config(config(seed, preset, iters, faults))
}

fn traced_config(config: TrainerConfig) -> (TrainReport, trace::TraceLog) {
    trace::start(vec![
        (
            "system".to_string(),
            Json::Str(config.system.name.to_string()),
        ),
        ("seed".to_string(), Json::UInt(config.seed)),
        ("iters".to_string(), Json::UInt(config.max_iterations)),
    ]);
    let report = run_config(config);
    (report, trace::finish())
}

/// A schedule with every fault class, horizon placed inside `sim_time`
/// so each event fires before the run ends (same shape as `faults.rs`).
fn full_spec(sim_time: SimTime) -> FaultSpec {
    FaultSpec {
        worker_crashes: 1,
        shard_outages: 1,
        stragglers: 1,
        link_degradations: 1,
        message_drop_prob: 0.02,
        horizon: FaultSpec::horizon_within(sim_time),
        ..FaultSpec::default()
    }
}

fn assert_bit_identical(a: &TrainReport, b: &TrainReport) {
    assert_eq!(a.total_sim_time, b.total_sim_time);
    assert_eq!(a.total_iterations, b.total_iterations);
    assert_eq!(a.comm, b.comm);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.final_metric, b.final_metric);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    // BSP (HET Cache) and ASP (HET PS), each clean and fault-injected.
    for preset in [
        SystemPreset::HetCache { staleness: 10 },
        SystemPreset::HetPs,
    ] {
        let (report_a, log_a) = traced_run(23, preset, 160, FaultSpec::default());
        let (report_b, log_b) = traced_run(23, preset, 160, FaultSpec::default());
        assert_bit_identical(&report_a, &report_b);
        let (jsonl_a, jsonl_b) = (log_a.to_jsonl(), log_b.to_jsonl());
        assert!(!log_a.events.is_empty(), "{preset:?}: trace has no events");
        assert_eq!(jsonl_a, jsonl_b, "{preset:?}: clean traces diverge");
        trace::schema::validate_jsonl(&jsonl_a).expect("clean trace is schema-valid");

        let faults = full_spec(report_a.total_sim_time);
        let (fr_a, flog_a) = traced_run(23, preset, 160, faults.clone());
        let (fr_b, flog_b) = traced_run(23, preset, 160, faults);
        assert_bit_identical(&fr_a, &fr_b);
        let (fjsonl_a, fjsonl_b) = (flog_a.to_jsonl(), flog_b.to_jsonl());
        assert_eq!(fjsonl_a, fjsonl_b, "{preset:?}: faulted traces diverge");
        trace::schema::validate_jsonl(&fjsonl_a).expect("faulted trace is schema-valid");
        // A fault schedule must change the trace, not just the report.
        assert_ne!(jsonl_a, fjsonl_a, "{preset:?}: faults left no trace");
    }
}

#[test]
fn traces_are_schema_valid_and_cover_every_component() {
    let preset = SystemPreset::HetCache { staleness: 10 };
    let clean = run(29, preset, 240, FaultSpec::default());
    let (report, log) = traced_run(29, preset, 240, full_spec(clean.total_sim_time));
    assert!(report.faults.worker_crashes > 0, "crash never fired");
    assert!(report.faults.shard_failovers > 0, "failover never fired");

    let summary = trace::schema::validate_jsonl(&log.to_jsonl()).expect("schema-valid");
    for comp in ["cache", "client", "ps", "simnet", "trainer"] {
        assert!(
            summary.components.contains(comp),
            "component {comp} missing from {:?}",
            summary.components
        );
    }
    for kind in [
        "trainer.read",
        "trainer.compute",
        "trainer.write",
        "trainer.barrier",
        "trainer.worker_crash",
        "client.read_window",
        "ps.failover",
        "ps.checkpoint",
    ] {
        assert!(
            summary.event_kinds.contains(kind),
            "event kind {kind} missing from {:?}",
            summary.event_kinds
        );
    }
    assert!(summary.spans > 0);
    assert!(summary.counters > 0);
}

#[test]
fn tracing_leaves_the_training_run_unchanged() {
    let preset = SystemPreset::HetCache { staleness: 10 };
    let clean = run(31, preset, 160, FaultSpec::default());
    let faults = full_spec(clean.total_sim_time);

    let untraced = run(31, preset, 160, faults.clone());
    let (traced, _log) = traced_run(31, preset, 160, faults);
    assert_bit_identical(&untraced, &traced);
}

#[test]
fn trace_counters_reconcile_with_report_statistics() {
    let preset = SystemPreset::HetCache { staleness: 10 };
    let clean = run(37, preset, 240, FaultSpec::default());
    let (report, log) = traced_run(37, preset, 240, full_spec(clean.total_sim_time));

    // Cache counters track CacheStats exactly (summed over workers).
    assert_eq!(log.counter("cache", "hits"), report.cache.hits);
    assert_eq!(log.counter("cache", "misses"), report.cache.misses);
    assert_eq!(log.counter("cache", "writebacks"), report.cache.writebacks);
    assert_eq!(log.counter("cache", "dirtied"), report.cache.dirtied);
    // Gradient conservation, run-wide: every clean→dirty transition is
    // either written back or lost to an injected crash (finalize
    // flushes the remainder, so nothing stays resident at the end).
    assert_eq!(
        report.cache.dirtied,
        report.cache.writebacks + report.faults.dirty_entries_lost,
        "dirtied entries neither written back nor accounted as crash loss"
    );
    assert_eq!(
        log.counter("cache", "invalidations"),
        report.cache.invalidations
    );
    assert_eq!(
        log.counter("cache", "capacity_evictions"),
        report.cache.capacity_evictions
    );

    // Fault counters track FaultStats.
    let f = &report.faults;
    assert_eq!(log.counter("trainer", "degraded_reads"), f.degraded_reads);
    assert_eq!(log.counter("trainer", "msg_drops"), f.retries);
    assert_eq!(log.counter("ps", "failovers"), f.shard_failovers);

    // Fault *events* appear once per recorded fault.
    let count =
        |comp: &str, name: &str| log.events_of(comp).filter(|e| e.name == name).count() as u64;
    assert_eq!(count("trainer", "worker_crash"), f.worker_crashes);
    assert_eq!(count("ps", "failover"), f.shard_failovers);
    assert_eq!(count("ps", "checkpoint"), f.checkpoints);
    assert_eq!(count("trainer", "blocked_wait"), f.blocked_ops);
    assert_eq!(count("trainer", "straggler_slow"), f.straggler_slow_iters);

    // Per-category byte counters sum to the report's total traffic.
    let byte_total: u64 = [
        "bytes_embedding_fetch",
        "bytes_embedding_push",
        "bytes_clock_sync",
        "bytes_dense_ps",
        "bytes_dense_allreduce",
        "bytes_sparse_allgather",
    ]
    .iter()
    .map(|name| log.counter("simnet", name))
    .sum();
    assert_eq!(byte_total, report.comm.total_bytes());
}

#[test]
fn chrome_export_is_well_formed_json() {
    let (_report, log) = traced_run(41, SystemPreset::HetPs, 80, FaultSpec::default());
    let chrome = trace::chrome::to_chrome_trace(&log);
    let parsed = het::json::from_str(&chrome).expect("chrome export parses");
    let Json::Obj(fields) = parsed else {
        panic!("chrome export is not an object");
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let Json::Arr(events) = events else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty());
}

fn fixture_bsp_faulted() -> trace::TraceLog {
    let preset = SystemPreset::HetCache { staleness: 10 };
    let clean = run(FIXTURE_SEED, preset, FIXTURE_ITERS, FaultSpec::default());
    let faults = full_spec(clean.total_sim_time);
    let mut cfg = config(FIXTURE_SEED, preset, FIXTURE_ITERS, faults);
    cfg.checkpoint_every = 20;
    traced_config(cfg).1
}

fn fixture_asp_clean() -> trace::TraceLog {
    traced_run(
        FIXTURE_SEED,
        SystemPreset::HetPs,
        FIXTURE_ITERS,
        FaultSpec::default(),
    )
    .1
}

/// The prefetch-enabled fixture: BSP HET Cache with lookahead depth 4,
/// clean schedule — the trace that pins down the `prefetcher`
/// component's issue/install/hit/waste instrumentation.
fn fixture_bsp_prefetch() -> (TrainReport, trace::TraceLog) {
    let preset = SystemPreset::HetCache { staleness: 10 };
    let mut cfg = config(FIXTURE_SEED, preset, FIXTURE_ITERS, FaultSpec::default());
    cfg.lookahead_depth = 4;
    trace::start(vec![
        (
            "system".to_string(),
            Json::Str(preset.config().name.to_string()),
        ),
        ("seed".to_string(), Json::UInt(FIXTURE_SEED)),
        ("iters".to_string(), Json::UInt(FIXTURE_ITERS)),
        ("lookahead_depth".to_string(), Json::UInt(4)),
    ]);
    let dataset = CtrDataset::new(CtrConfig::tiny(FIXTURE_SEED));
    let mut trainer = Trainer::new(cfg, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    let report = trainer.run();
    (report, trace::finish())
}

/// The tiered-store fixture: BSP HET Cache over `tiered:32`, clean
/// schedule — a hot tier small enough that demotion, cold reads, and
/// compaction all fire inside 60 iterations. Pins the `store`
/// component's counter instrumentation at fixture granularity.
fn fixture_bsp_tiered() -> (TrainReport, trace::TraceLog) {
    let preset = SystemPreset::HetCache { staleness: 10 };
    let mut cfg = config(FIXTURE_SEED, preset, FIXTURE_ITERS, FaultSpec::default());
    cfg.store = StoreSpec::Tiered(TieredConfig::new(32));
    trace::start(vec![
        (
            "system".to_string(),
            Json::Str(preset.config().name.to_string()),
        ),
        ("seed".to_string(), Json::UInt(FIXTURE_SEED)),
        ("iters".to_string(), Json::UInt(FIXTURE_ITERS)),
        ("tiered_hot".to_string(), Json::UInt(32)),
    ]);
    let dataset = CtrDataset::new(CtrConfig::tiny(FIXTURE_SEED));
    let mut trainer = Trainer::new(cfg, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    let report = trainer.run();
    (report, trace::finish())
}

#[test]
fn committed_golden_fixtures_validate_against_the_schema() {
    for (name, want_cache, want_prefetch, want_store) in [
        ("bsp_cache_faulted.trace.jsonl", true, false, false),
        ("asp_ps_clean.trace.jsonl", false, false, false),
        ("bsp_cache_prefetch.trace.jsonl", true, true, false),
        ("bsp_cache_tiered.trace.jsonl", true, false, true),
    ] {
        let path = format!("{GOLDEN_DIR}/{name}");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
        let summary = trace::schema::validate_jsonl(&text)
            .unwrap_or_else(|e| panic!("fixture {name} is schema-invalid: {e}"));
        assert!(summary.events > 0, "{name}: no events");
        assert!(summary.counters > 0, "{name}: no counters");
        for comp in ["ps", "simnet", "trainer"] {
            assert!(
                summary.components.contains(comp),
                "{name}: component {comp} missing"
            );
        }
        assert_eq!(summary.components.contains("cache"), want_cache, "{name}");
        // The clock-window read events only exist on the cached path;
        // a DirectPsClient never admits stale state, so it emits none.
        assert_eq!(summary.components.contains("client"), want_cache, "{name}");
        // The prefetcher lane appears only in lookahead-enabled runs —
        // the other fixtures staying prefetcher-free *is* the depth-0
        // byte-identity guarantee, pinned at fixture granularity.
        assert_eq!(
            summary.components.contains("prefetcher"),
            want_prefetch,
            "{name}"
        );
        // Likewise the store lane appears only in tiered runs — the
        // Mem fixtures staying store-free *is* the flat-store
        // byte-identity guarantee, pinned at fixture granularity.
        assert_eq!(summary.components.contains("store"), want_store, "{name}");
    }
}

/// The tiered fixture run's trace reconciles with its report: the
/// `store` counters match the shard-summed `StoreSummary`, the
/// client/background split of modelled disk time closes exactly, and
/// the hot tier actually spilled (demotions, cold reads, compactions
/// all nonzero — otherwise the fixture pins nothing).
#[test]
fn tiered_fixture_reconciles_store_counters() {
    let (report, log) = fixture_bsp_tiered();
    let s = report.store.expect("tiered fixture must report store");
    assert!(s.stats.demotions > 0, "32-row hot tier never demoted");
    assert!(s.stats.cold_read_bytes > 0, "no row was ever read back");
    assert!(s.stats.io_ns > 0, "tiering charged no modelled disk time");
    assert_eq!(
        s.stats.io_ns,
        s.client_io_ns + s.background_io_ns,
        "disk time does not split cleanly into client + background"
    );
    assert_eq!(log.counter("store", "hot_hits"), s.stats.hot_hits);
    assert_eq!(log.counter("store", "promotions"), s.stats.promotions);
    assert_eq!(log.counter("store", "demotions"), s.stats.demotions);
    assert_eq!(log.counter("store", "compactions"), s.stats.compactions);
    assert_eq!(log.counter("store", "io_ns"), s.stats.io_ns);
}

/// The committed fixtures must be byte-identical to a freshly derived
/// trace: this catches an instrumentation change that forgot to
/// regenerate them (the ignored `regenerate_golden_fixtures` test).
/// The prefetch fixture run's trace reconciles with its report — the
/// prefetcher counters match the `prefetch` summary, the cache's
/// prefetch ledger closes, and every hit is a prefetch hit or a demand
/// hit — and its Chrome export shows the overlap: a `prefetch_issue`
/// span in the dedicated prefetcher lane whose interval overlaps a
/// trainer span on the same worker track.
#[test]
fn prefetch_fixture_reconciles_and_chrome_spans_overlap() {
    let (report, log) = fixture_bsp_prefetch();
    let p = report
        .prefetch
        .expect("depth-4 fixture must report prefetch");
    assert!(p.issued_keys > 0, "fixture prefetcher never pulled");
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
    assert_eq!(
        report.cache.prefetch_installs,
        report.cache.prefetch_hits + report.cache.prefetch_wasted,
        "fixture cache prefetch ledger does not close"
    );
    // Prefetch hits + demand hits account for every hit.
    assert_eq!(log.counter("cache", "hits"), report.cache.hits);
    assert!(report.cache.prefetch_hits > 0);
    assert!(report.cache.prefetch_hits <= report.cache.hits);

    let summary = trace::schema::validate_jsonl(&log.to_jsonl()).expect("schema-valid");
    assert!(summary.components.contains("prefetcher"));
    for kind in ["prefetcher.prefetch_issue", "prefetcher.prefetch_install"] {
        assert!(
            summary.event_kinds.contains(kind),
            "event kind {kind} missing from {:?}",
            summary.event_kinds
        );
    }

    // Comm/compute overlap, visible in the raw spans: some issued
    // transfer's [t, t+dur] intersects a trainer span of the same
    // worker (the work it hid behind).
    let overlapping = log
        .events
        .iter()
        .filter(|e| e.comp == "prefetcher" && e.name == "prefetch_issue")
        .any(|pf| {
            let (pf_start, pf_end) = (pf.t_ns, pf.t_ns + pf.dur_ns.unwrap_or(0));
            log.events.iter().any(|tr| {
                tr.comp == "trainer"
                    && tr.worker == pf.worker
                    && tr
                        .dur_ns
                        .is_some_and(|d| tr.t_ns < pf_end && pf_start < tr.t_ns + d)
            })
        });
    assert!(overlapping, "no prefetch_issue span overlaps trainer work");

    // And the Chrome export renders the prefetcher as its own lane.
    let chrome = trace::chrome::to_chrome_trace(&log);
    assert!(chrome.contains(r#""name":"het-prefetch""#));
    assert!(chrome.contains("prefetcher.prefetch_issue"));
}

#[test]
fn golden_fixtures_are_current() {
    for (name, log) in [
        ("bsp_cache_faulted.trace.jsonl", fixture_bsp_faulted()),
        ("asp_ps_clean.trace.jsonl", fixture_asp_clean()),
        ("bsp_cache_prefetch.trace.jsonl", fixture_bsp_prefetch().1),
        ("bsp_cache_tiered.trace.jsonl", fixture_bsp_tiered().1),
    ] {
        let path = format!("{GOLDEN_DIR}/{name}");
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
        let derived = log.to_jsonl();
        assert_eq!(
            committed, derived,
            "{name}: committed fixture is stale — regenerate with \
             `cargo test -p het --test trace_golden -- --ignored regenerate`"
        );
        // The reader must give back exactly the log the writer held.
        let parsed = trace::TraceLog::parse(&committed)
            .unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        assert_eq!(parsed, log, "{name}: the log changed through JSONL");
    }
}

/// Rewrites `tests/golden/*.trace.jsonl`. Run manually after an
/// intentional instrumentation change:
/// `cargo test -p het --test trace_golden -- --ignored regenerate`.
#[test]
#[ignore = "rewrites the committed golden fixtures"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(GOLDEN_DIR).expect("create tests/golden");
    let bsp = fixture_bsp_faulted().to_jsonl();
    let asp = fixture_asp_clean().to_jsonl();
    let prefetch = fixture_bsp_prefetch().1.to_jsonl();
    let tiered = fixture_bsp_tiered().1.to_jsonl();
    std::fs::write(format!("{GOLDEN_DIR}/bsp_cache_faulted.trace.jsonl"), bsp).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/asp_ps_clean.trace.jsonl"), asp).unwrap();
    std::fs::write(
        format!("{GOLDEN_DIR}/bsp_cache_prefetch.trace.jsonl"),
        prefetch,
    )
    .unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/bsp_cache_tiered.trace.jsonl"), tiered).unwrap();
}
