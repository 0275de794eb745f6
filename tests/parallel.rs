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
/// clock, the row stores' tier traffic — and its merged trace must
/// replay oracle-clean with the sim's cache and PS counter totals.
///
/// Only the server exchanges are ordered across threads, so the matrix
/// covers every kind of exchange: a cached client whose reads write
/// back (staleness 2), the cache-less client, full replicas gathered by
/// the leader; on the flat store and on a tiered one whose 32 hot rows
/// make per-shard call order observable; a cheap policy and the one
/// that emits events from cache mutations; 2 and 4 threads.
#[test]
fn bsp_threads_match_sim_bit_for_bit() {
    let cached = SystemPreset::HetCache { staleness: 2 };
    let systems = [
        (cached, Some(PolicyKind::light_lfu())),
        (cached, Some(PolicyKind::adaptive())),
        (SystemPreset::HetHybrid, None),
        (SystemPreset::HetAr, None),
    ];
    for (preset, policy) in systems {
        for store in [StoreSpec::Mem, StoreSpec::Tiered(TieredConfig::new(32))] {
            for threads in [2, 4] {
                bsp_cell_matches_sim(preset, policy, store.clone(), threads);
            }
        }
    }
}

/// One cell of [`bsp_threads_match_sim_bit_for_bit`].
fn bsp_cell_matches_sim(
    preset: SystemPreset,
    policy: Option<PolicyKind>,
    store: StoreSpec,
    threads: usize,
) {
    let seed = 3 + threads as u64;
    let cell = format!("{preset:?} {policy:?} {store:?} threads:{threads}");
    let mut config = config_of(preset, seed, 240);
    config.cluster = ClusterSpec::cluster_a(threads, 1);
    config.store = store;
    if let Some(policy) = policy {
        config = config.with_cache(0.10, policy);
    }

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
        "{cell}: comm accounting diverged from sim"
    );
    assert_eq!(
        report.cache, sim_report.cache,
        "{cell}: merged cache stats diverged from sim"
    );
    let log = report.trace.as_ref().expect("traced threaded run");
    het_trace::schema::validate_jsonl(&log.to_jsonl()).expect("schema-valid merged trace");
    let oracle = check_replay(&ReplayLog::from(log), &OracleSpec::of(thr.config()))
        .unwrap_or_else(|v| panic!("{cell}: oracle [{}] {}", v.check, v.message));
    assert_eq!(oracle.computes, report.total_iterations);
    assert!(oracle.barriers > 0);
    if policy.is_some() {
        assert!(
            oracle.window_reads > 0,
            "{cell}: no staleness window checked"
        );
        assert!(
            report.cache.invalidations > 0,
            "{cell}: no read ever wrote back"
        );
    }
    for comp in ["cache", "ps"] {
        assert_eq!(
            counter_totals(log, comp),
            counter_totals(&sim_trace, comp),
            "{cell}: {comp} trace counters diverged from sim"
        );
    }
    assert_eq!(
        report.final_metric, sim_report.final_metric,
        "{cell}: final metric diverged from sim"
    );
    assert_eq!(
        report.final_dense, sim_dense,
        "{cell}: dense params diverged from sim"
    );
    // Curve timestamps are wall-clock on the threaded backend, so
    // only the learning content is comparable — and it must match
    // exactly, point for point.
    assert_eq!(report.curve.len(), sim_report.curve.len());
    for (a, b) in report.curve.iter().zip(&sim_report.curve) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(
            a.metric, b.metric,
            "{cell}: curve metric diverged at iter {}",
            a.iteration
        );
        assert_eq!(
            a.train_loss, b.train_loss,
            "{cell}: curve loss diverged at iter {}",
            a.iteration
        );
    }
    // Demotions, promotions and disk time follow each shard's call
    // order; all zero on the flat store.
    assert_eq!(
        thr.server().store_stats(),
        sim.server().store_stats(),
        "{cell}: row-store traffic diverged from sim"
    );
    let sim_rows = sorted_rows(sim.server());
    let thr_rows = sorted_rows(thr.server());
    assert_eq!(sim_rows.len(), thr_rows.len());
    for (a, b) in sim_rows.iter().zip(&thr_rows) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.clock, b.clock, "{cell}: clock of key {} diverged", a.key);
        assert_eq!(
            a.vector, b.vector,
            "{cell}: embedding row {} diverged",
            a.key
        );
    }
}

/// A dataset that panics when asked for one particular training batch.
struct PanicsAt {
    inner: CtrDataset,
    cursor: u64,
}

impl Dataset for PanicsAt {
    type Batch = CtrBatch;
    fn train_batch(&self, cursor: u64, batch_size: usize) -> CtrBatch {
        assert_ne!(cursor, self.cursor, "injected: no batch at this cursor");
        Dataset::train_batch(&self.inner, cursor, batch_size)
    }
    fn test_batch(&self, cursor: u64, batch_size: usize) -> CtrBatch {
        Dataset::test_batch(&self.inner, cursor, batch_size)
    }
    fn epoch_examples(&self) -> u64 {
        self.inner.epoch_examples()
    }
    fn test_examples(&self) -> u64 {
        self.inner.test_examples()
    }
    fn n_keys(&self) -> usize {
        Dataset::n_keys(&self.inner)
    }
}

/// A model whose `bad_step`-th backward pass hands back gradients of
/// the wrong dimension — which the server rejects, with a panic, in
/// the middle of the worker's write exchange.
struct WrongDimAt {
    inner: WideDeep,
    bad_step: Option<u32>,
    steps: u32,
}

impl het::tensor::HasParams for WrongDimAt {
    fn visit_params(&mut self, visitor: &mut dyn het::tensor::ParamVisitor) {
        self.inner.visit_params(visitor);
    }
}

impl EmbeddingModel for WrongDimAt {
    type Batch = CtrBatch;
    fn embedding_dim(&self) -> usize {
        self.inner.embedding_dim()
    }
    fn forward_backward(&mut self, batch: &CtrBatch, store: &EmbeddingStore) -> (f32, SparseGrads) {
        let (loss, grads) = self.inner.forward_backward(batch, store);
        self.steps += 1;
        if self.bad_step != Some(self.steps) {
            return (loss, grads);
        }
        let dim = self.embedding_dim() + 1;
        let mut bad = SparseGrads::new(dim);
        bad.accumulate(batch.unique_keys()[0], &vec![0.0; dim]);
        (loss, bad)
    }
    fn evaluate(&self, batch: &CtrBatch, store: &EmbeddingStore) -> het::models::EvalChunk {
        self.inner.evaluate(batch, store)
    }
    fn metric_kind(&self) -> MetricKind {
        self.inner.metric_kind()
    }
    fn flops_per_batch(&self, n: usize) -> f64 {
        self.inner.flops_per_batch(n)
    }
}

/// Runs `run` — a threaded job with a failure injected into worker 1 —
/// on a thread of its own and returns the panic it must come back with
/// inside five seconds.
fn panic_of(run: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
        let _ = tx.send(outcome);
    });
    let payload = rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("a worker panicked and its peers hung")
        .expect_err("the injected failure never fired");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or_else(|_| "?".to_string(), |m| m.to_string()),
    }
}

/// A worker that panics fails the run — its peers, parked on the
/// turnstiles and barriers it will never reach, are woken to panic too,
/// naming it — instead of hanging it. Once outside any ordered section
/// (worker 1 cannot produce its third batch), once inside the write
/// exchange, and once at the SSP gate.
#[test]
fn a_panicking_worker_fails_the_run_instead_of_hanging_it() {
    let third_batch_of_worker_1 =
        |config: &TrainerConfig| ((2 * config.cluster.n_workers + 1) * config.batch_size) as u64;
    for preset in [
        SystemPreset::HetCache { staleness: 10 },
        SystemPreset::Ssp { staleness: 1 },
    ] {
        let message = panic_of(move || {
            let config = config_of(preset, 3, 400);
            let dataset = PanicsAt {
                inner: CtrDataset::new(CtrConfig::tiny(3)),
                cursor: third_batch_of_worker_1(&config),
            };
            let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
            let _ = trainer.run_threaded(None);
        });
        // Worker 0, a waiter, is the first failed thread in worker order.
        assert!(
            message.contains("worker 1 panicked"),
            "{preset:?}: {message}"
        );
    }

    let message = panic_of(|| {
        let config = config_of(SystemPreset::HetHybrid, 3, 400);
        let replicas = std::sync::atomic::AtomicU32::new(0);
        let dataset = CtrDataset::new(CtrConfig::tiny(3));
        let mut trainer = Trainer::new(config, dataset, |rng| WrongDimAt {
            inner: WideDeep::new(rng, 4, 8, &[16]),
            // Replicas are built in worker order.
            bad_step: (replicas.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 1)
                .then_some(3),
            steps: 0,
        });
        let _ = trainer.run_threaded(None);
    });
    assert!(message.contains("worker 1 panicked"), "{message}");
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
