//! Cross-backend equivalence: the threaded execution backend against
//! the discrete-event simulator (DESIGN.md §3.13).
//!
//! The simulator is the correctness oracle; real threads are the
//! performance backend. The contract, checked here:
//!
//! * **BSP is bit-identical** — a threaded BSP run must end at exactly
//!   the sim's final state: dense parameters, server embedding rows
//!   (values *and* clocks), and eval metric, compared to the last bit.
//!   The turnstiles serialize server-visible effects into the sim's
//!   worker order, so there is no tolerance window to hide behind.
//! * **ASP/SSP replay oracle-clean** — asynchronous threaded schedules
//!   are timing-dependent, so instead of state equality the merged
//!   per-thread trace is replayed through `het-oracle`, which checks
//!   the paper's invariants (clock-bound reads, staleness windows,
//!   iteration accounting) against the run that actually happened.
//! * **The threaded backend is additive** — sim runs remain
//!   byte-identical with the threaded machinery compiled in and used;
//!   sim traces still carry no thread ids (the golden fixtures in
//!   `tests/golden/` stay byte-stable, re-checked here from the
//!   determinism side).

use het::json::ToJson;
use het::prelude::*;
use het_oracle::{check_replay, OracleSpec};
use het_trace::replay::ReplayLog;
use std::collections::BTreeMap;

fn config_of(preset: SystemPreset, seed: u64, iters: u64) -> TrainerConfig {
    let mut config = TrainerConfig::tiny(preset);
    config.seed = seed;
    config.max_iterations = iters;
    config
}

fn trainer_of(config: TrainerConfig, seed: u64) -> Trainer<WideDeep, CtrDataset> {
    Trainer::new(config, CtrDataset::new(CtrConfig::tiny(seed)), |rng| {
        WideDeep::new(rng, 4, 8, &[16])
    })
}

fn sorted_rows(server: &PsServer) -> Vec<CheckpointRow> {
    let mut rows = server.export_rows();
    rows.sort_by_key(|r| r.key);
    rows
}

/// A trace's counters of one component, summed over their sub-indices
/// (workers, shards).
fn counter_totals(log: &het_trace::TraceLog, comp: &str) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for c in log.counters.iter().filter(|c| c.comp == comp) {
        *totals.entry(c.name).or_insert(0) += c.value;
    }
    totals
}

/// BSP: the threaded backend must reproduce the simulator's final
/// state exactly — dense parameters, eval metric, convergence curve,
/// communication and cache accounting, every server row's vector and
/// clock — and its merged trace must replay oracle-clean with the
/// sim's cache and PS counter totals.
#[test]
fn bsp_threads_match_sim_bit_for_bit() {
    for (threads, seed) in [(2usize, 3u64), (4, 7)] {
        let mut config = config_of(SystemPreset::HetCache { staleness: 10 }, seed, 240);
        config.cluster = ClusterSpec::cluster_a(threads, 1);

        het::trace::start(Vec::new());
        let mut sim = trainer_of(config.clone(), seed);
        let sim_report = sim.run();
        let sim_trace = het::trace::finish();
        let sim_dense = sim.export_dense_params();

        let mut thr = trainer_of(config, seed);
        let meta = vec![(
            "kind".to_string(),
            het::json::Json::Str("parallel-bsp".to_string()),
        )];
        let report = thr.run_threaded(Some(meta)).expect("threaded BSP run");

        assert_eq!(report.backend, format!("threads:{threads}"));
        assert_eq!(report.total_iterations, sim_report.total_iterations);
        assert_eq!(
            report.comm, sim_report.comm,
            "threads:{threads} seed {seed}: comm accounting diverged from sim"
        );
        assert_eq!(
            report.cache, sim_report.cache,
            "threads:{threads} seed {seed}: merged cache stats diverged from sim"
        );
        let log = report.trace.as_ref().expect("traced threaded run");
        het_trace::schema::validate_jsonl(&log.to_jsonl()).expect("schema-valid merged trace");
        let oracle = check_replay(&ReplayLog::from(log), &OracleSpec::of(thr.config()))
            .unwrap_or_else(|v| panic!("threads:{threads}: oracle [{}] {}", v.check, v.message));
        assert_eq!(oracle.computes, report.total_iterations);
        assert!(oracle.barriers > 0 && oracle.window_reads > 0);
        for comp in ["cache", "ps"] {
            assert_eq!(
                counter_totals(log, comp),
                counter_totals(&sim_trace, comp),
                "threads:{threads} seed {seed}: {comp} trace counters diverged from sim"
            );
        }
        assert_eq!(
            report.final_metric, sim_report.final_metric,
            "threads:{threads} seed {seed}: final metric diverged from sim"
        );
        assert_eq!(
            report.final_dense, sim_dense,
            "threads:{threads} seed {seed}: dense params diverged from sim"
        );
        // Curve timestamps are wall-clock on the threaded backend, so
        // only the learning content is comparable — and it must match
        // exactly, point for point.
        assert_eq!(report.curve.len(), sim_report.curve.len());
        for (a, b) in report.curve.iter().zip(&sim_report.curve) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(
                a.metric, b.metric,
                "threads:{threads} seed {seed}: curve metric diverged at iter {}",
                a.iteration
            );
            assert_eq!(
                a.train_loss, b.train_loss,
                "threads:{threads} seed {seed}: curve loss diverged at iter {}",
                a.iteration
            );
        }
        let sim_rows = sorted_rows(sim.server());
        let thr_rows = sorted_rows(thr.server());
        assert_eq!(sim_rows.len(), thr_rows.len());
        for (a, b) in sim_rows.iter().zip(&thr_rows) {
            assert_eq!(a.key, b.key);
            assert_eq!(
                a.clock, b.clock,
                "threads:{threads} seed {seed}: clock of key {} diverged",
                a.key
            );
            assert_eq!(
                a.vector, b.vector,
                "threads:{threads} seed {seed}: embedding row {} diverged",
                a.key
            );
        }
    }
}

/// ASP and SSP threaded runs are nondeterministic by design, so each
/// run's own merged trace is replayed through the model-based oracle:
/// whatever interleaving the OS produced must still satisfy the
/// paper's consistency invariants.
#[test]
fn async_threaded_traces_replay_oracle_clean() {
    // Cache-less ASP/SSP plus cached ASP — the latter is the cell
    // where staleness windows (CheckValid) actually exist.
    let cells: [(SystemPreset, Option<SyncMode>, &str); 3] = [
        (SystemPreset::HetPs, None, "asp"),
        (SystemPreset::Ssp { staleness: 2 }, None, "ssp"),
        (
            SystemPreset::HetCache { staleness: 10 },
            Some(SyncMode::Asp),
            "asp-cached",
        ),
    ];
    for (preset, sync, label) in cells {
        let mut config = config_of(preset, 11, 160);
        config.cluster = ClusterSpec::cluster_a(3, 1);
        if let Some(sync) = sync {
            config.system.sync = sync;
        }
        let mut trainer = trainer_of(config, 11);
        let meta = vec![(
            "kind".to_string(),
            het::json::Json::Str(format!("parallel-{label}")),
        )];
        let report = trainer
            .run_threaded(Some(meta))
            .unwrap_or_else(|e| panic!("{label}: threaded run failed: {e}"));
        let log = report
            .trace
            .as_ref()
            .expect("threaded run collects a trace");

        // The merged stream must also pass the schema validator's
        // per-thread monotonicity rules before the oracle sees it.
        het_trace::schema::validate_jsonl(&log.to_jsonl())
            .unwrap_or_else(|e| panic!("{label}: bad trace: {e}"));

        let replay = ReplayLog::from(log);
        let oracle = check_replay(&replay, &OracleSpec::of(trainer.config()))
            .unwrap_or_else(|v| panic!("{label}: oracle violation: [{}] {}", v.check, v.message));
        assert_eq!(
            oracle.computes, report.total_iterations,
            "{label}: oracle saw a different iteration count than the report"
        );
        if label == "asp-cached" {
            assert!(
                oracle.window_reads > 0,
                "{label}: oracle never checked a staleness window — the cell \
                 is not exercising the consistency path"
            );
        }
    }
}

/// Threaded BSP is itself deterministic (the turnstiles leave no
/// scheduling freedom with observable effects): two identical runs end
/// in the same state, bit for bit.
#[test]
fn threaded_bsp_is_deterministic() {
    let run = || {
        let mut config = config_of(SystemPreset::HetCache { staleness: 10 }, 5, 160);
        config.cluster = ClusterSpec::cluster_a(4, 1);
        let mut trainer = trainer_of(config, 5);
        let report = trainer.run_threaded(None).expect("threaded run");
        (report.final_dense.clone(), report.final_metric)
    };
    let (dense_a, metric_a) = run();
    let (dense_b, metric_b) = run();
    assert_eq!(dense_a, dense_b, "threaded BSP dense params diverged");
    assert_eq!(metric_a, metric_b, "threaded BSP metric diverged");
}

/// The sim-only features stay sim-only, loudly: fault injection and
/// lookahead prefetch are rejected with errors that point back at
/// `--backend sim` instead of silently degrading.
#[test]
fn threaded_backend_rejects_sim_only_features() {
    let mut faulted = config_of(SystemPreset::HetCache { staleness: 10 }, 3, 60);
    faulted.faults.enabled = true;
    faulted.faults.spec.worker_crashes = 1;
    faulted.faults.spec.horizon = SimDuration::from_secs_f64(10.0);
    let err = trainer_of(faulted, 3).run_threaded(None).unwrap_err();
    assert!(err.contains("--backend sim"), "unhelpful error: {err}");

    let mut lookahead = config_of(SystemPreset::HetCache { staleness: 10 }, 3, 60);
    lookahead.lookahead_depth = 4;
    let err = trainer_of(lookahead, 3).run_threaded(None).unwrap_err();
    assert!(err.contains("--backend sim"), "unhelpful error: {err}");
}

/// The determinism-matrix cell for the backend seam: with the threaded
/// machinery in the build (and exercised moments earlier in this same
/// process), the simulator still produces byte-identical reports and
/// traces, and sim traces carry no `tid` field or wall-clock marker —
/// which is what keeps the golden fixtures of `tests/golden/`
/// byte-stable across this refactor.
#[test]
fn sim_backend_is_untouched_by_the_threaded_machinery() {
    let run_sim = |seed: u64| {
        het::trace::start(Vec::new());
        let mut trainer = trainer_of(
            config_of(SystemPreset::HetCache { staleness: 10 }, seed, 160),
            seed,
        );
        let report = trainer.run();
        (report, het::trace::finish())
    };
    // Interleave a threaded run to prove it leaves no residue in the
    // sim path (thread-local trace state, server globals, rng state).
    let (report_a, trace_a) = run_sim(9);
    let mut threaded = trainer_of(
        config_of(SystemPreset::HetCache { staleness: 10 }, 9, 80),
        9,
    );
    threaded.run_threaded(None).expect("threaded interleave");
    let (report_b, trace_b) = run_sim(9);

    assert_eq!(
        report_a.to_json().encode(),
        report_b.to_json().encode(),
        "a threaded run perturbed the sim backend"
    );
    assert_eq!(
        trace_a.to_jsonl(),
        trace_b.to_jsonl(),
        "a threaded run perturbed sim traces"
    );
    for ev in &trace_a.events {
        assert!(
            !ev.fields.iter().any(|(k, _)| *k == "tid"),
            "sim trace events must not carry thread ids"
        );
    }
    assert!(
        !trace_a.meta.iter().any(|(k, _)| k == "clock"),
        "sim traces must not be marked wall-clock"
    );
}
