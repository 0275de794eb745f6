//! Cross-backend equivalence: the threaded execution backend against
//! the discrete-event simulator (DESIGN.md §3.13).
//!
//! The simulator is the correctness oracle; real threads are the
//! performance backend. The contract, checked here:
//!
//! * **BSP is bit-identical** — a threaded BSP run must end at exactly
//!   the sim's final state: dense parameters, server embedding rows
//!   (values *and* clocks), and eval metric, compared to the last bit.
//!   One turnstile serializes server-visible effects into the sim's
//!   order, so there is no tolerance window to hide behind.
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

use het::json::{Json, ToJson};
use het::prelude::*;
use het_oracle::{check_replay, OracleSpec};
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
fn counter_totals<'a>(log: &'a het_trace::TraceLog, comp: &str) -> BTreeMap<&'a str, u64> {
    let mut totals = BTreeMap::new();
    for c in log.counters.iter().filter(|c| c.comp == comp) {
        *totals.entry(&*c.name).or_insert(0) += c.value;
    }
    totals
}

/// A report's top-level JSON keys, in order.
fn top_level_keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("a report serialises to an object, not {other:?}"),
    }
}

/// `json` with host time dropped and every time-valued field — on the
/// clock of the backend that ran — nulled: what is left must not depend
/// on the backend.
fn mask_time(json: Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "backend" && k != "wall_ns")
                .map(|(k, v)| match k.as_str() {
                    "total_sim_time" | "breakdown" | "sim_time" => (k, Json::Null),
                    _ => (k, mask_time(v)),
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(mask_time).collect()),
        leaf => leaf,
    }
}

/// BSP: the threaded backend must reproduce the simulator's report —
/// every field but the time-valued ones, including the eval metric,
/// convergence curve, communication and cache accounting, residency and
/// the tiered store's summary — and its final state exactly: dense
/// parameters, every server row's vector and clock, the row stores'
/// tier traffic. Its merged trace must replay oracle-clean with the
/// sim's cache and PS counter totals.
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

    let mut thr = trainer_of(config, seed);
    let meta = vec![(
        "kind".to_string(),
        het::json::Json::Str("parallel-bsp".to_string()),
    )];
    let report = thr.run_threaded(Some(meta)).expect("threaded BSP run");

    // One schema: the threaded report is the sim's plus its host time,
    // and equal to it once every time-valued field is masked. What the
    // JSON does not carry is compared directly.
    let (sim_json, thr_json) = (sim_report.to_json(), report.to_json());
    let mut keys = top_level_keys(&sim_json);
    keys.extend(["backend", "wall_ns"]);
    assert_eq!(
        top_level_keys(&thr_json),
        keys,
        "{cell}: report schemas differ"
    );
    assert_eq!(report.backend, ExecutionBackend::Threads(threads));
    assert_eq!(
        mask_time(thr_json).encode(),
        mask_time(sim_json).encode(),
        "{cell}: threaded report diverged from sim"
    );
    assert_eq!(
        report.cache, sim_report.cache,
        "{cell}: merged cache stats diverged from sim"
    );
    assert_eq!(
        report.resident_keys_per_worker, sim_report.resident_keys_per_worker,
        "{cell}: cache residency diverged from sim"
    );
    assert_eq!(
        report.final_dense, sim_report.final_dense,
        "{cell}: dense params diverged from sim"
    );

    // The merged wall-clock trace reads back from JSONL as itself,
    // thread ids included; parsing also checks it against the schema.
    let log = report.trace.as_ref().expect("traced threaded run");
    let parsed = het_trace::TraceLog::parse(&log.to_jsonl())
        .unwrap_or_else(|e| panic!("{cell}: merged trace is not schema-valid: {e}"));
    assert_eq!(parsed, *log, "{cell}: merged trace changed through JSONL");
    assert!(parsed.events.iter().all(|e| e.tid.is_some()));
    let oracle = check_replay(log, &OracleSpec::of(thr.config()))
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

/// A `CtrDataset` that counts the training batches it hands each worker
/// and, given `panic_at`, panics when asked for that cursor's batch.
struct Probed {
    inner: CtrDataset,
    panic_at: Option<u64>,
    per_worker: Vec<std::sync::atomic::AtomicU64>,
}

impl Probed {
    fn new(seed: u64, config: &TrainerConfig, panic_at: Option<u64>) -> Self {
        Probed {
            inner: CtrDataset::new(CtrConfig::tiny(seed)),
            panic_at,
            per_worker: (0..config.cluster.n_workers)
                .map(|_| Default::default())
                .collect(),
        }
    }

    fn batches_of(&self, worker: usize) -> u64 {
        self.per_worker[worker].load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl Dataset for Probed {
    type Batch = CtrBatch;
    fn train_batch(&self, cursor: u64, batch_size: usize) -> CtrBatch {
        assert_ne!(
            Some(cursor),
            self.panic_at,
            "injected: no batch at this cursor"
        );
        // Workers stride the example sequence batch by batch.
        let w = (cursor / batch_size as u64) as usize % self.per_worker.len();
        self.per_worker[w].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
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

/// A model replica with injected faults: its `bad_step`-th backward
/// pass hands back gradients of the wrong dimension — which the server
/// rejects, with a panic, in the middle of the worker's write exchange —
/// and with `bad_eval` every evaluation panics.
struct Faulty {
    inner: WideDeep,
    bad_step: Option<u32>,
    bad_eval: bool,
    steps: u32,
}

impl Faulty {
    /// Replicas are built in worker order: the `n`-th one built is
    /// worker `n`'s.
    fn factory(
        faulty_worker: u32,
        bad_step: Option<u32>,
        bad_eval: bool,
    ) -> impl Fn(&mut het_rng::rngs::StdRng) -> Faulty {
        let built = std::sync::atomic::AtomicU32::new(0);
        move |rng| {
            let faulty = built.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == faulty_worker;
            Faulty {
                inner: WideDeep::new(rng, 4, 8, &[16]),
                bad_step: bad_step.filter(|_| faulty),
                bad_eval: bad_eval && faulty,
                steps: 0,
            }
        }
    }
}

impl het::tensor::HasParams for Faulty {
    fn visit_params(&mut self, visitor: &mut dyn het::tensor::ParamVisitor) {
        self.inner.visit_params(visitor);
    }
}

impl EmbeddingModel for Faulty {
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
        assert!(!self.bad_eval, "injected: this replica cannot evaluate");
        self.inner.evaluate(batch, store)
    }
    fn metric_kind(&self) -> MetricKind {
        self.inner.metric_kind()
    }
    fn flops_per_batch(&self, n: usize) -> f64 {
        self.inner.flops_per_batch(n)
    }
}

/// Runs `run` — a threaded job with a failure injected into one worker
/// — on a thread of its own and returns the panic it must come back with
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
/// turnstile slots and the barrier it will never reach, are woken to
/// panic too, naming it — instead of hanging it. Once outside any
/// ordered section (worker 1 cannot produce its third batch), once
/// inside the write exchange, once inside the leader tail (worker 0's
/// evaluation, while its peers wait on their read slots), and once at
/// the SSP gate.
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
            let dataset = Probed::new(3, &config, Some(third_batch_of_worker_1(&config)));
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
        let dataset = CtrDataset::new(CtrConfig::tiny(3));
        let mut trainer = Trainer::new(config, dataset, Faulty::factory(1, Some(3), false));
        let _ = trainer.run_threaded(None);
    });
    assert!(message.contains("worker 1 panicked"), "{message}");

    // The failed thread is worker 0's itself: its own panic is the run's.
    let message = panic_of(|| {
        let mut config = config_of(SystemPreset::HetCache { staleness: 10 }, 3, 400);
        // The tail of the second round evaluates.
        config.eval_every = 2 * config.cluster.n_workers as u64;
        let dataset = CtrDataset::new(CtrConfig::tiny(3));
        let mut trainer = Trainer::new(config, dataset, Faulty::factory(0, None, true));
        let _ = trainer.run_threaded(None);
    });
    assert!(
        message.contains("injected: this replica cannot evaluate"),
        "{message}"
    );
}

/// Threaded BSP runs exactly the sim's rounds — none at all when the
/// iteration budget is already spent, one partial round's worth of
/// overshoot otherwise — and samples no batch it does not train on.
#[test]
fn threaded_bsp_runs_the_sims_rounds_and_samples_only_them() {
    for max_iterations in [0, 1, 3] {
        let mut totals = Vec::new();
        for threaded in [false, true] {
            let mut config = config_of(SystemPreset::HetCache { staleness: 10 }, 3, max_iterations);
            config.cluster = ClusterSpec::cluster_a(2, 1);
            let dataset = Probed::new(3, &config, None);
            let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
            let report = if threaded {
                trainer.run_threaded(None).expect("threaded run")
            } else {
                trainer.run()
            };
            for w in 0..2 {
                assert_eq!(
                    trainer.dataset().batches_of(w),
                    trainer.worker_iterations(w),
                    "max {max_iterations}, threaded {threaded}: worker {w} sampled \
                     a batch it did not train on"
                );
            }
            totals.push(report.total_iterations);
        }
        assert_eq!(
            totals[0], totals[1],
            "max {max_iterations}: sim and threads ran different rounds"
        );
    }
}

/// A run whose evaluation reaches `target_metric` mid-run stops at the
/// same round on threads as on the sim — the one place the threaded BSP
/// schedule still meets at a barrier — with the same curve, convergence
/// and final dense parameters.
#[test]
fn threaded_bsp_stops_early_where_the_sim_does() {
    for threads in [2, 4] {
        let mut config = config_of(SystemPreset::HetCache { staleness: 2 }, 7, 240);
        config.cluster = ClusterSpec::cluster_a(threads, 1);
        config.eval_every = 20;
        // The target is a metric the full run reaches at its sixth
        // evaluation, so the targeted run stops there or earlier.
        let full = trainer_of(config.clone(), 7).run();
        config.target_metric = Some(full.curve[5].metric);

        let sim = trainer_of(config.clone(), 7).run();
        let thr = trainer_of(config, 7)
            .run_threaded(None)
            .expect("threaded run");
        assert!(
            sim.converged_at.is_some() && sim.total_iterations < 240,
            "threads:{threads}: the target must stop the run early"
        );
        assert_eq!(
            thr.total_iterations, sim.total_iterations,
            "threads:{threads}"
        );
        assert_eq!(thr.converged_at.is_some(), sim.converged_at.is_some());
        let points = |r: &TrainReport| {
            r.curve
                .iter()
                .map(|p| (p.iteration, p.metric.to_bits(), p.train_loss.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            points(&thr),
            points(&sim),
            "threads:{threads}: curves differ"
        );
        assert_eq!(thr.final_metric, sim.final_metric, "threads:{threads}");
        assert_eq!(thr.final_dense, sim.final_dense, "threads:{threads}");
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
            // Free-running workers sync dense parameters on the dense
            // PS: they never meet in an AllReduce.
            config.system.sync = sync;
            config.system.dense = DenseSync::Ps;
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

        let oracle = check_replay(log, &OracleSpec::of(trainer.config()))
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
    faulted.faults.worker_crashes = 1;
    faulted.faults.horizon = SimDuration::from_secs_f64(10.0);
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
