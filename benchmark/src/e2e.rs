//! The timed repetitions ("reps") and their correctness gate.
//!
//! One rep is one identical fresh job: set up (dataset, trainer), then
//! one call into the public entry point (`Trainer::run`,
//! `Trainer::run_threaded`, `run_threaded_serve`), timed from outside.
//! het-trace is off and no benchmark span is open; the only instrument
//! is the per-step timestamp of [`Stamped`] / [`StampedModel`]. All
//! workloads are closed-loop: a worker's next iteration (a replica's
//! next micro-batch) starts when the previous one completes.

use crate::jobs::*;
use het::json::Json;
use het::prelude::*;
use het::tensor::{HasParams, ParamVisitor};
use het_rng::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which scheduler runs the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Sim,
    Threads,
}

/// What only a sim run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSide {
    pub total_sim_time_ns: u64,
    pub comm: CommStats,
    pub cache: CacheStats,
    pub breakdown_ns: [u64; 4],
}

/// One training rep, as seen from outside the trainer.
pub struct TrainOutcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub completed: u64,
    pub final_metric: f64,
    /// Worker 0's dense parameters after the run (the cross-backend
    /// bit-identity probe).
    pub final_dense: Vec<u32>,
    pub sim: Option<SimSide>,
    /// `[worker][iteration]`, see [`Stamped::periods_ns`].
    pub periods_ns: Vec<Vec<u64>>,
    /// The merged het-trace log, when the rep ran traced.
    pub trace: Option<het::trace::TraceLog>,
}

impl TrainOutcome {
    pub fn iters_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }
}

fn bits(v: Vec<f32>) -> Vec<u32> {
    v.into_iter().map(f32::to_bits).collect()
}

/// Runs one fresh job. `traced` switches het-trace on for the run (the
/// layer pass's overhead rep and the oracle replay); timed reps pass
/// `false`.
pub fn train_rep<J: TrainJob>(
    job: &J,
    backend: Backend,
    traced: bool,
) -> Result<TrainOutcome, String> {
    let body = || -> Result<TrainOutcome, String> {
        let t_setup = Instant::now();
        let config = job.config();
        let n_workers = config.cluster.n_workers;
        let requested = config.max_iterations;
        let per_worker = (requested as usize).div_ceil(n_workers);
        let data = Stamped::new(job.dataset(), n_workers, per_worker);
        let mut trainer = Trainer::new(config, data, |rng| job.model(rng));
        let setup_s = t_setup.elapsed().as_secs_f64();

        let meta = || vec![("run".to_string(), Json::Str("het-benchmark".to_string()))];
        let t_run = Instant::now();
        let (completed, final_metric, sim, trace, threaded_dense) = match backend {
            Backend::Sim => {
                if traced {
                    het::trace::start(meta());
                }
                let report = trainer.run();
                let trace = traced.then(het::trace::finish);
                let b = &report.breakdown;
                let sim = SimSide {
                    total_sim_time_ns: report.total_sim_time.as_nanos(),
                    comm: report.comm.clone(),
                    cache: report.cache,
                    breakdown_ns: [
                        b.sparse_read.as_nanos(),
                        b.compute.as_nanos(),
                        b.sparse_write.as_nanos(),
                        b.dense_sync.as_nanos(),
                    ],
                };
                (
                    report.total_iterations,
                    report.final_metric,
                    Some(sim),
                    trace,
                    None,
                )
            }
            Backend::Threads => {
                let report = trainer.run_threaded(traced.then(meta))?;
                (
                    report.total_iterations,
                    report.final_metric,
                    None,
                    report.trace,
                    Some(report.final_dense),
                )
            }
        };
        // Benchmark-side wall around the one call: the final flush and
        // evaluation are part of the job.
        let wall_s = t_run.elapsed().as_secs_f64();
        let final_dense = bits(threaded_dense.unwrap_or_else(|| trainer.export_dense_params()));
        Ok(TrainOutcome {
            setup_s,
            wall_s,
            completed,
            final_metric,
            final_dense,
            sim,
            periods_ns: trainer.dataset().periods_ns(),
            trace,
        })
    };
    no_panic("the job", body)
}

/// Runs `body`, turning a panic inside it into an `Err`: a panicking job
/// fails its rep, it does not take the other reps' numbers with it.
fn no_panic<T>(what: &str, body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|_| Err(format!("{what} panicked")))
}

/// A serving model that notes the instant each forward pass ends and
/// checks every score it returns. The gaps between one replica's
/// consecutive stamps are its micro-batch periods (claim → read →
/// forward → bookkeeping), read from outside `het-serve`: the report's
/// own percentiles come from a 6 %-wide-bin histogram, too coarse to
/// hold a 10 % bound.
pub struct StampedModel {
    inner: WideDeep,
    origin: Instant,
    stamps: RefCell<Vec<u64>>,
    bad_scores: Cell<u64>,
    sink: Arc<Mutex<StampSink>>,
}

/// Where the replicas' stamps land when their models are dropped.
#[derive(Default)]
pub struct StampSink {
    /// One replica's micro-batch periods per entry, in service order.
    pub periods_ns: Vec<Vec<u64>>,
    pub bad_scores: u64,
}

impl StampedModel {
    pub fn new(
        inner: WideDeep,
        origin: Instant,
        expected: usize,
        sink: Arc<Mutex<StampSink>>,
    ) -> Self {
        StampedModel {
            inner,
            origin,
            stamps: RefCell::new(Vec::with_capacity(expected)),
            bad_scores: Cell::new(0),
            sink,
        }
    }
}

impl Drop for StampedModel {
    fn drop(&mut self) {
        // A poisoned sink means another replica panicked; the rep is
        // already failed, so the stamps are not needed.
        if let Ok(mut sink) = self.sink.lock() {
            let stamps = self.stamps.borrow();
            sink.periods_ns
                .push(stamps.windows(2).map(|w| w[1] - w[0]).collect());
            sink.bad_scores += self.bad_scores.get();
        }
    }
}

impl HasParams for StampedModel {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.inner.visit_params(visitor);
    }
}

impl EmbeddingModel for StampedModel {
    type Batch = CtrBatch;

    fn embedding_dim(&self) -> usize {
        self.inner.embedding_dim()
    }

    fn forward_backward(
        &mut self,
        batch: &CtrBatch,
        embeddings: &EmbeddingStore,
    ) -> (f32, SparseGrads) {
        self.inner.forward_backward(batch, embeddings)
    }

    fn evaluate(&self, batch: &CtrBatch, embeddings: &EmbeddingStore) -> het::models::EvalChunk {
        let chunk = self.inner.evaluate(batch, embeddings);
        let bad = chunk
            .scores
            .iter()
            .filter(|s| !(**s > 0.0 && **s < 1.0))
            .count();
        if bad > 0 {
            self.bad_scores.set(self.bad_scores.get() + bad as u64);
        }
        self.stamps
            .borrow_mut()
            .push(self.origin.elapsed().as_nanos() as u64);
        chunk
    }

    fn metric_kind(&self) -> MetricKind {
        self.inner.metric_kind()
    }

    fn flops_per_batch(&self, n: usize) -> f64 {
        self.inner.flops_per_batch(n)
    }
}

/// One serving rep.
pub struct ServeOutcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub served: u64,
    pub batches: u64,
    pub req_per_s: f64,
    pub bad_scores: u64,
    pub cache: CacheStats,
    /// `[replica][micro-batch]`.
    pub periods_ns: Vec<Vec<u64>>,
}

/// Runs one fresh serving job on `threads` replica threads.
pub fn serve_rep(job: &ServeJob, threads: usize) -> Result<ServeOutcome, String> {
    let body = || -> Result<ServeOutcome, String> {
        let config = job.config();
        let expected = config.n_requests / SERVE_BATCH / threads * 5 / 4 + 16;
        let sink = Arc::new(Mutex::new(StampSink::default()));
        let origin = Instant::now();
        let model_fn = |rng: &mut StdRng| {
            StampedModel::new(job.model(rng), origin, expected, Arc::clone(&sink))
        };
        let t_call = Instant::now();
        let report = run_threaded_serve(config, threads, model_fn)?;
        let call_s = t_call.elapsed().as_secs_f64();
        let wall_s = report.wall_ns as f64 / 1e9;
        let mut sink = sink.lock().map_err(|_| "a replica panicked".to_string())?;
        Ok(ServeOutcome {
            // Everything before the fleet starts: PS build, pretraining,
            // the warm snapshot and the request schedule.
            setup_s: call_s - wall_s,
            wall_s,
            served: report.requests,
            batches: report.batches,
            req_per_s: report.throughput_rps,
            bad_scores: sink.bad_scores,
            cache: report.cache,
            periods_ns: std::mem::take(&mut sink.periods_ns),
        })
    };
    no_panic("the job", body)
}

/// Every scheduled request served, every score in (0, 1).
pub fn served_all(o: &ServeOutcome, requested: u64) -> Result<(), String> {
    if o.served != requested {
        return Err(format!(
            "served {} of {requested} scheduled requests",
            o.served
        ));
    }
    if o.bad_scores > 0 {
        return Err(format!("{} served scores outside (0, 1)", o.bad_scores));
    }
    Ok(())
}

/// Modelled busy seconds (embedding resolution + inference) of the
/// serving job's sim twin: the same configuration on `ServeSim`.
pub fn serve_twin_modelled_s(job: &ServeJob) -> Result<(f64, ServeReport), String> {
    no_panic("the sim twin", || {
        let report = ServeSim::new(job.config(), |rng| job.model(rng)).run();
        let s = (report.lookup_ns + report.infer_ns) as f64 / 1e9;
        Ok((s, report))
    })
}

/// Every requested iteration ran.
pub fn completed_all(o: &TrainOutcome, requested: u64) -> Result<(), String> {
    if o.completed == requested {
        Ok(())
    } else {
        Err(format!(
            "completed {} of {requested} iterations",
            o.completed
        ))
    }
}

/// The sim reps of one run must be identical to each other: same
/// metric bits, modelled time, comm counters and cache counters.
pub fn same_sim_outputs(a: &TrainOutcome, b: &TrainOutcome) -> Result<(), String> {
    if a.final_metric.to_bits() != b.final_metric.to_bits() {
        return Err(format!(
            "final_metric differs between reps: {} vs {}",
            a.final_metric, b.final_metric
        ));
    }
    if a.sim != b.sim {
        return Err("modelled time, comm bytes or cache counters differ between reps".to_string());
    }
    if a.final_dense != b.final_dense {
        return Err("dense parameters differ between reps".to_string());
    }
    Ok(())
}

/// DESIGN §3.13's claim, checked on every run: threaded BSP equals the
/// sim bit for bit.
pub fn bsp_matches_sim(threads: &TrainOutcome, sim: &TrainOutcome) -> Result<(), String> {
    if threads.completed != sim.completed {
        return Err(format!(
            "threads completed {} iterations, the sim {}",
            threads.completed, sim.completed
        ));
    }
    if threads.final_dense != sim.final_dense {
        return Err("threaded BSP dense parameters differ from the sim's".to_string());
    }
    if threads.final_metric.to_bits() != sim.final_metric.to_bits() {
        return Err(format!(
            "threaded BSP metric {} differs from the sim's {}",
            threads.final_metric, sim.final_metric
        ));
    }
    Ok(())
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM value")?;
    Ok(kib / 1024.0)
}
