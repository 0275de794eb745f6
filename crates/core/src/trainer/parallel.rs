//! The threaded scheduler for the trainer's job body.
//!
//! [`Trainer::run`] schedules the worker steps of [`super`] on the
//! single-threaded discrete-event runtime; this module schedules the
//! *same* steps on real OS threads — one per worker — behind
//! `--backend threads:<n>` (`het_runtime::ExecutionBackend`). All that
//! lives here is who may run when, and what time it is:
//!
//! * **BSP**: only the **server exchange** of a read and of a write
//!   passes through an ordered [`Turnstile`]; planning the read,
//!   landing it in the worker's cache, compute, and the local half of
//!   the write touch nothing but the worker's own state and run
//!   genuinely in parallel. The round tail (sparse gather, dense
//!   average, evaluation) runs on the barrier leader — the thread that
//!   owns worker 0. Every PS call therefore happens in the sim's worker
//!   order, which is what makes a threaded BSP run **bit-identical** to
//!   the sim's (DESIGN.md §3.13).
//! * **ASP/SSP**: workers free-run against the shared PS (per-shard
//!   locks carry the concurrency); an iteration is claimed under a
//!   progress lock before it runs, and the SSP gate blocks a worker
//!   whose completed-iteration count is more than `staleness` ahead of
//!   the slowest — so a merged trace always satisfies the oracle's
//!   spread bound (`s + 1`, counting the in-flight iteration). Mid-run
//!   evaluation is BSP-only; ASP/SSP runs evaluate once at the end.
//! * **Time** is a shared strictly-increasing [`WallClock`]: each
//!   worker thread runs its own thread-local trace collector, scopes
//!   are stamped from the clock, and the buffers are merged at join
//!   time with [`het_trace::merge_threads`] in `(t, tid)` order.
//!   Callers that pass `trace_meta` to [`Trainer::run_threaded`] must
//!   **not** have a collector running on the calling thread — the run
//!   starts one for the post-join flush and merges it in last.
//!
//! After the join the run ends in the sim's own `Trainer::finish`
//! (flush, evaluate, assemble), so a threaded run returns the same
//! [`TrainReport`] schema as a sim run: `backend` is `threads:<n>`,
//! `wall_ns` and the curve's stamps are host time, and the modelled
//! `total_sim_time` and `breakdown` are zero.
//!
//! Locking order (DESIGN.md §3.13): progress/phase locks → PS shard
//! locks → trace scope.
//!
//! Fault injection and lookahead prefetch are defined in terms of the
//! simulated clock and are rejected up front.
//!
//! A worker thread that panics poisons everything its peers can block
//! on, so the run fails with that panic instead of hanging.

use super::{allreduce_dense, apply_sparse_gather, mean_loss, Progress, StepEnv, Trainer, Worker};
use crate::config::{DenseSync, SyncMode};
use crate::report::{ConvergencePoint, TrainReport};
use het_json::Json;
use het_models::{Dataset, EmbeddingModel, EmbeddingStore, ModelBatch, SparseGrads};
use het_runtime::{Barrier, ExecutionBackend, Turnstile, WallClock};
use het_simnet::{SimDuration, SimTime};
use het_tensor::FlatGrads;
use het_trace::TraceLog;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// What one worker hands the leader at the end of a BSP round.
#[derive(Default)]
struct RoundSlot {
    /// Exported dense gradients (AllReduce dense path).
    dense: Option<FlatGrads>,
    /// Sparse gradient block (HET AR only).
    sparse: Option<SparseGrads>,
    /// Training loss since the last evaluation.
    loss: (f64, u64),
}

/// Everything the BSP threads rendezvous on.
struct BspShared {
    /// Orders the server exchange of the round's reads, of its writes.
    read_ts: Turnstile,
    write_ts: Turnstile,
    /// All reads + computes done; no write exchange may precede a later
    /// worker's read exchange (the sim runs the whole read phase before
    /// the write phase).
    computed: Barrier,
    /// All writes done; the leader tail may merge.
    written: Barrier,
    /// Leader tail done; followers may apply the averaged gradient.
    applied: Barrier,
    stop: AtomicBool,
    /// The first worker to panic (`usize::MAX`: none has).
    failed: AtomicUsize,
    slots: Mutex<Vec<RoundSlot>>,
    /// The round's averaged dense gradient and AllReduce time, published
    /// by the leader.
    avg: Mutex<(FlatGrads, SimDuration)>,
    progress: Mutex<Progress>,
}

impl BspShared {
    /// Worker `by` is unwinding: fail every peer parked on (or yet to
    /// reach) a rendezvous it will never get to.
    fn poison(&self, by: usize) {
        // Peers woken to panic poison too, and may get to a primitive
        // before the worker that woke them does: all report the first.
        let first =
            match self
                .failed
                .compare_exchange(usize::MAX, by, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => by,
                Err(first) => first,
            };
        self.read_ts.poison(first);
        self.write_ts.poison(first);
        for barrier in [&self.computed, &self.written, &self.applied] {
            barrier.poison(first);
        }
    }
}

/// ASP/SSP progress ledger: completed iterations per worker plus the
/// global claim counter. Claim-before-run: a worker increments `global`
/// under this lock before the iteration executes, so exactly
/// `max_iterations` iterations run in total.
struct AsyncProgress {
    iters: Vec<u64>,
    global: u64,
    /// A worker that panicked: the SSP gate must not wait for it.
    failed: Option<usize>,
}

struct AsyncShared {
    progress: Mutex<AsyncProgress>,
    cv: Condvar,
}

impl AsyncShared {
    /// Worker `by` is unwinding: wake the SSP gate's waiters to fail.
    fn poison(&self, by: usize) {
        let mut p = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        p.failed.get_or_insert(by);
        self.cv.notify_all();
    }
}

impl<M: EmbeddingModel, D: Dataset<Batch = M::Batch>> Trainer<M, D> {
    /// Runs the training job on real threads (one per configured
    /// worker) and returns its [`TrainReport`], with `backend`
    /// `threads:<n>` and the modelled-time fields zero. Pass
    /// `trace_meta` to collect a merged wall-clock trace into
    /// [`TrainReport::trace`] (see the module docs for the collector
    /// contract).
    ///
    /// Errors if the configuration requires the simulated clock: a
    /// non-empty fault plan or lookahead prefetching.
    pub fn run_threaded(
        &mut self,
        trace_meta: Option<Vec<(String, Json)>>,
    ) -> Result<TrainReport, String> {
        if !self.plan.is_empty() {
            return Err(
                "the threaded backend does not support fault injection; use --backend sim"
                    .to_string(),
            );
        }
        if self.env.config.lookahead_depth > 0 {
            return Err(
                "the threaded backend does not support lookahead prefetch; use --backend sim"
                    .to_string(),
            );
        }
        self.wall = WallClock::new();
        let Trainer {
            env,
            workers,
            progress,
            wall,
            ..
        } = &mut *self;
        let (env, clock) = (&*env, &*wall);
        let n = workers.len();
        let tracing = trace_meta.is_some();
        let sync = env.config.system.sync;
        let logs = if sync == SyncMode::Bsp {
            let shared = BspShared {
                read_ts: Turnstile::new(n),
                write_ts: Turnstile::new(n),
                computed: Barrier::new(n),
                written: Barrier::new(n),
                applied: Barrier::new(n),
                stop: AtomicBool::new(false),
                failed: AtomicUsize::new(usize::MAX),
                slots: Mutex::new((0..n).map(|_| RoundSlot::default()).collect()),
                avg: Mutex::new((FlatGrads::new(), SimDuration::ZERO)),
                progress: Mutex::new(std::mem::take(progress)),
            };
            let logs = on_threads(
                workers,
                tracing,
                |by| shared.poison(by),
                |worker| bsp_worker_loop(worker, &shared, clock, env),
            );
            *progress = shared.progress.into_inner().unwrap();
            logs
        } else {
            let staleness = match sync {
                SyncMode::Ssp { staleness } => Some(staleness),
                _ => None,
            };
            let shared = AsyncShared {
                progress: Mutex::new(AsyncProgress {
                    iters: vec![0; n],
                    global: 0,
                    failed: None,
                }),
                cv: Condvar::new(),
            };
            let logs = on_threads(
                workers,
                tracing,
                |by| shared.poison(by),
                |worker| async_worker_loop(worker, &shared, clock, env, staleness),
            );
            progress.global_iterations = shared.progress.into_inner().unwrap().global;
            logs
        };
        Ok(self.finish_threaded(logs, trace_meta, sync != SyncMode::Bsp))
    }

    /// Post-join tail: [`Trainer::finish`] on the main thread's own
    /// collector (its flush scopes take wall stamps), then what only
    /// threads have — the trace merge and, for ASP/SSP runs, their one
    /// curve point.
    fn finish_threaded(
        &mut self,
        logs: Vec<TraceLog>,
        trace_meta: Option<Vec<(String, Json)>>,
        push_final_point: bool,
    ) -> TrainReport {
        if trace_meta.is_some() {
            het_trace::start(Vec::new());
        }
        let mut report = self.finish(ExecutionBackend::Threads(self.workers.len()));
        if push_final_point {
            report.curve.push(ConvergencePoint {
                sim_time: SimTime::from_nanos(report.wall_ns),
                iteration: report.total_iterations,
                metric: report.final_metric,
                train_loss: mean_loss(self.workers.iter().map(|w| w.loss)),
            });
        }
        report.trace = trace_meta.map(|meta| {
            let mut parts = logs;
            parts.push(het_trace::finish());
            het_trace::merge_threads(meta, parts)
        });
        report
    }
}

/// Runs `body` for every worker on a scoped thread of its own, each
/// with its own trace collector when `tracing`. Returns the per-thread
/// trace logs in worker order.
///
/// A `body` that unwinds calls `poison(worker id)` on its way out —
/// which must fail whatever the other threads can block on — and the
/// first failed worker's panic (in worker order) is re-raised.
fn on_threads<M: Send>(
    workers: &mut [Worker<M>],
    tracing: bool,
    poison: impl Fn(usize) + Sync,
    body: impl Fn(&mut Worker<M>) + Sync,
) -> Vec<TraceLog> {
    struct PoisonOnUnwind<'a, P: Fn(usize)>(&'a P, usize);
    impl<P: Fn(usize)> Drop for PoisonOnUnwind<'_, P> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                (self.0)(self.1);
            }
        }
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                let (body, poison) = (&body, &poison);
                s.spawn(move || {
                    let _guard = PoisonOnUnwind(poison, worker.id);
                    if tracing {
                        het_trace::start(Vec::new());
                    }
                    body(worker);
                    het_trace::finish()
                })
            })
            .collect();
        // Unwinding out of the scope still joins the threads not yet
        // joined here; poisoned, they all come back.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Publishes "now" for `worker`'s next events on a traced run.
fn stamp_scope<M>(worker: &Worker<M>, clock: &WallClock) {
    if het_trace::enabled() {
        het_trace::set_scope(clock.stamp(), Some(worker.id as u64));
    }
}

/// Runs the forward/backward pass and measures its wall time.
fn timed_compute<M: EmbeddingModel>(
    worker: &mut Worker<M>,
    batch: &M::Batch,
    store: &EmbeddingStore,
    clock: &WallClock,
) -> (SimDuration, f32, SparseGrads) {
    let t0 = clock.elapsed_ns();
    let (loss, grads) = worker.compute(batch, store);
    let wall = clock.elapsed_ns().saturating_sub(t0);
    (SimDuration::from_nanos(wall), loss, grads)
}

/// One worker thread's BSP loop. Per round: plan the read, ordered read
/// exchange, land it and compute in parallel, local half of the write,
/// barrier, ordered write exchange (+ ordered dense PS sync), dense
/// export and round slot, barrier, leader tail, barrier, apply averaged
/// gradient. The trace scope is stamped inside each ordered section, so
/// the merged `(t, tid)` order of a traced run equals server order.
fn bsp_worker_loop<M: EmbeddingModel, D: Dataset<Batch = M::Batch>>(
    worker: &mut Worker<M>,
    shared: &BspShared,
    clock: &WallClock,
    env: &StepEnv<D>,
) {
    let w = worker.id;
    let allreduce = env.config.system.dense == DenseSync::AllReduce;
    while !shared.stop.load(Ordering::SeqCst) {
        let batch = worker.next_batch(env);
        let keys = batch.unique_keys();
        let mut read = worker.plan_read(&keys, env, None, None);
        shared.read_ts.pass(w, || {
            stamp_scope(worker, clock);
            worker.exchange_read(&mut read, &keys, env, None);
        });
        let (store, _) = worker.apply_read(read, &keys, env);
        let (compute, loss, grads) = timed_compute(worker, &batch, &store, clock);
        // Touches this worker's cache only, so it needs no peer to have
        // finished reading.
        let mut pending = worker.plan_write(grads, env);
        shared.computed.wait(w);
        let (write, sparse) = shared.write_ts.pass(w, || {
            stamp_scope(worker, clock);
            let written = worker.exchange_write(&mut pending, env, None);
            worker.dense_ps_sync(env);
            written
        });
        let dense = allreduce.then(|| worker.export_dense_grads());
        worker.complete(compute, loss, write);
        {
            let mut slots = shared.slots.lock().unwrap();
            let slot = &mut slots[w];
            (slot.dense, slot.sparse) = (dense, sparse);
            // Accumulated here exactly as the worker itself would, so
            // the leader's worker-order sum is bit-identical to the
            // sim's (float addition order matters).
            let (sum, count) = std::mem::take(&mut worker.loss);
            slot.loss.0 += sum;
            slot.loss.1 += count;
        }
        if shared.written.wait(w) {
            bsp_leader_tail(worker, shared, clock, env);
        }
        shared.applied.wait(w);
        // The leader already stepped worker 0's replica (before
        // evaluating, mirroring the sim's apply-then-eval order).
        if allreduce && w != 0 {
            let avg = shared.avg.lock().unwrap();
            worker.apply_dense_average(&avg.0, avg.1, env);
        }
    }
}

/// The single-threaded tail of a BSP round, run by the barrier leader
/// (worker 0's thread) while every other thread waits: the round's
/// collectives, round accounting, and evaluation at the sim's cadence.
fn bsp_leader_tail<M: EmbeddingModel, D: Dataset<Batch = M::Batch>>(
    worker0: &mut Worker<M>,
    shared: &BspShared,
    clock: &WallClock,
    env: &StepEnv<D>,
) {
    let config = &env.config;
    let mut slots = shared.slots.lock().unwrap();
    let n = slots.len() as u64;
    let gathered: Vec<SparseGrads> = slots.iter_mut().filter_map(|s| s.sparse.take()).collect();
    if !gathered.is_empty() {
        apply_sparse_gather(&gathered, env);
    }
    if config.system.dense == DenseSync::AllReduce {
        let grads = slots
            .iter_mut()
            .map(|s| s.dense.take().expect("dense slot filled in write phase"));
        let (avg, t) = allreduce_dense(grads, env);
        worker0.apply_dense_average(&avg, t, env);
        *shared.avg.lock().unwrap() = (avg, t);
    }
    let mut progress = shared.progress.lock().unwrap();
    progress.global_iterations += n;
    let global = progress.global_iterations;
    // A strict stamp (a CAS all threads share) only where a trace event
    // needs one.
    let tracing = het_trace::enabled();
    let t_ns = if tracing {
        clock.stamp()
    } else {
        clock.elapsed_ns()
    };
    if tracing {
        het_trace::set_scope(t_ns, None);
        het_trace::span!("trainer", "barrier", 0u64,
            "round_iters" => n, "round_end_ns" => t_ns);
    }
    if global % config.eval_every < n {
        let metric = worker0.evaluate(env);
        let train_loss = mean_loss(slots.iter_mut().map(|s| std::mem::take(&mut s.loss)));
        let at = SimTime::from_nanos(t_ns);
        if progress.record_eval(metric, train_loss, at, config.target_metric) {
            shared.stop.store(true, Ordering::SeqCst);
        }
    }
    if global >= config.max_iterations {
        shared.stop.store(true, Ordering::SeqCst);
    }
}

/// One worker thread's ASP/SSP loop: claim an iteration under the
/// progress lock (blocking at the SSP gate), run it against the shared
/// PS, then publish completion — stamping and closing the iteration
/// *inside* the lock, so the merged `(t, tid)` order of the compute
/// events equals the completion order and the oracle's spread bound
/// holds at every event.
fn async_worker_loop<M: EmbeddingModel, D: Dataset<Batch = M::Batch>>(
    worker: &mut Worker<M>,
    shared: &AsyncShared,
    clock: &WallClock,
    env: &StepEnv<D>,
    staleness: Option<u64>,
) {
    let w = worker.id;
    let max = env.config.max_iterations;
    loop {
        {
            let mut p = shared.progress.lock().unwrap();
            loop {
                if let Some(by) = p.failed {
                    drop(p);
                    panic!("worker {by} panicked; worker {w} stops at the progress gate");
                }
                if p.global >= max {
                    shared.cv.notify_all();
                    return;
                }
                if let Some(s) = staleness {
                    let min = p.iters.iter().copied().min().unwrap_or(0);
                    if p.iters[w] > min + s {
                        p = shared.cv.wait(p).unwrap();
                        continue;
                    }
                }
                break;
            }
            p.global += 1;
        }
        let batch = worker.next_batch(env);
        let keys = batch.unique_keys();
        stamp_scope(worker, clock);
        let (store, _) = worker.read(&keys, env, None, None);
        let (compute, loss, grads) = timed_compute(worker, &batch, &store, clock);
        let (write, _) = worker.write(grads, env, None);
        worker.dense_ps_sync(env);
        {
            let mut p = shared.progress.lock().unwrap();
            stamp_scope(worker, clock);
            worker.complete(compute, loss, write);
            p.iters[w] += 1;
            shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemPreset, TrainerConfig};
    use het_data::{CtrConfig, CtrDataset};
    use het_models::WideDeep;

    fn ctr_trainer(preset: SystemPreset) -> Trainer<WideDeep, CtrDataset> {
        let dataset = CtrDataset::new(CtrConfig::tiny(7));
        let config = TrainerConfig::tiny(preset);
        Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]))
    }

    #[test]
    fn threaded_bsp_cached_matches_sim_bit_for_bit() {
        let mut sim = ctr_trainer(SystemPreset::HetCache { staleness: 10 });
        let sim_report = sim.run();
        let sim_dense = sim.export_dense_params();

        let mut thr = ctr_trainer(SystemPreset::HetCache { staleness: 10 });
        let report = thr.run_threaded(None).unwrap();

        assert_eq!(report.total_iterations, sim_report.total_iterations);
        assert_eq!(
            report.final_dense, sim_dense,
            "dense params must be bit-identical"
        );
        assert_eq!(report.final_metric, sim_report.final_metric);
        assert_eq!(report.curve.len(), sim_report.curve.len());
        for (a, b) in report.curve.iter().zip(&sim_report.curve) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(
                a.metric, b.metric,
                "eval metric diverged at iter {}",
                a.iteration
            );
            assert_eq!(a.train_loss, b.train_loss);
        }
        assert_eq!(report.comm, sim_report.comm, "comm accounting diverged");
    }

    #[test]
    fn threaded_bsp_allgather_matches_sim() {
        let mut sim = ctr_trainer(SystemPreset::HetAr);
        let sim_report = sim.run();
        let sim_dense = sim.export_dense_params();
        let mut thr = ctr_trainer(SystemPreset::HetAr);
        let report = thr.run_threaded(None).unwrap();
        assert_eq!(report.final_dense, sim_dense);
        assert_eq!(report.final_metric, sim_report.final_metric);
    }

    #[test]
    fn threaded_asp_runs_every_iteration() {
        let mut thr = ctr_trainer(SystemPreset::HetPs);
        let report = thr.run_threaded(None).unwrap();
        assert_eq!(report.total_iterations, 200);
        assert!(report.final_metric.is_finite());
        let per_worker: u64 = (0..thr.n_workers()).map(|w| thr.worker_iterations(w)).sum();
        assert_eq!(per_worker, 200);
    }

    #[test]
    fn threaded_ssp_bounds_completed_spread() {
        let mut thr = ctr_trainer(SystemPreset::Ssp { staleness: 2 });
        let report = thr.run_threaded(None).unwrap();
        assert_eq!(report.total_iterations, 200);
        let iters: Vec<u64> = (0..thr.n_workers())
            .map(|w| thr.worker_iterations(w))
            .collect();
        let min = *iters.iter().min().unwrap();
        let max = *iters.iter().max().unwrap();
        assert!(max - min <= 3, "SSP spread {min}..{max} exceeds s + 1");
    }

    #[test]
    fn threaded_rejects_sim_only_features() {
        let dataset = CtrDataset::new(CtrConfig::tiny(7));
        let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
        config.lookahead_depth = 2;
        let mut t = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
        assert!(t.run_threaded(None).unwrap_err().contains("lookahead"));
    }

    #[test]
    fn threaded_trace_merges_and_orders() {
        let mut thr = ctr_trainer(SystemPreset::HetCache { staleness: 10 });
        let report = thr
            .run_threaded(Some(vec![(
                "run".to_string(),
                Json::Str("threaded-test".to_string()),
            )]))
            .unwrap();
        let trace = report.trace.expect("trace requested");
        assert!(trace
            .meta
            .iter()
            .any(|(k, v)| k == het_trace::CLOCK_META_KEY && *v == Json::Str("wall".into())));
        // Every event is tid-tagged and the stream is (t, tid)-sorted.
        let mut last = (0u64, 0u64);
        for e in &trace.events {
            let tid = e.tid.expect("merged events carry a tid");
            assert!((e.t_ns, tid) >= last, "merge order violated");
            last = (e.t_ns, tid);
        }
        let computes = trace
            .events
            .iter()
            .filter(|e| e.comp == "trainer" && e.name == "compute")
            .count() as u64;
        assert_eq!(computes, report.total_iterations);
        het_trace::schema::validate_jsonl(&trace.to_jsonl()).expect("schema-valid");
    }
}
