//! Experiment output: convergence curves, time breakdowns, and the
//! communication/cache statistics the paper's tables and figures report.
//!
//! One [`TrainReport`] serves both execution backends. Counters (comm
//! bytes, cache hits, iterations, residency, store traffic) mean the
//! same on both. Time has two kinds:
//!
//! * **modelled** — `total_sim_time` and `breakdown`, the simulator's
//!   α-β network/compute clocks. Only the sim fills them; they are zero
//!   on threads;
//! * **host** — `wall_ns`, from the first scheduled step to the last
//!   step's completion (the end-of-run flush and final evaluation
//!   excluded), measured on both backends.
//!
//! `curve[].sim_time` and `converged_at` are on the clock of the backend
//! that ran: modelled on the sim, wall stamps on threads. The JSON
//! carries `backend` and `wall_ns` only for a threaded report, so a sim
//! report's JSON stays a pure function of the seed.

use crate::fault::{FaultRecord, FaultStats};
use crate::prefetch::PrefetchSummary;
use het_cache::CacheStats;
use het_json::{Json, ToJson};
use het_ps::StoreStats;
use het_runtime::ExecutionBackend;
use het_simnet::{CommStats, SimDuration, SimTime};
use het_trace::TraceLog;

/// One point on a convergence curve.
#[derive(Clone, Copy, Debug)]
pub struct ConvergencePoint {
    /// Time of the evaluation on the run's clock: simulated on the sim,
    /// a wall stamp on threads.
    pub sim_time: SimTime,
    /// Global iterations completed (summed over workers).
    pub iteration: u64,
    /// The workload metric (AUC or accuracy).
    pub metric: f64,
    /// Mean training loss since the previous evaluation.
    pub train_loss: f64,
}

impl ToJson for ConvergencePoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "sim_time".to_string(),
                Json::Num(self.sim_time.as_secs_f64()),
            ),
            ("iteration".to_string(), Json::UInt(self.iteration)),
            ("metric".to_string(), Json::Num(self.metric)),
            ("train_loss".to_string(), Json::Num(self.train_loss)),
        ])
    }
}

/// Where simulated time went, summed over workers (Fig. 2 / Fig. 7's
/// decomposition into transfer vs computation).
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeBreakdown {
    /// Sparse read communication (fetches, clock checks).
    pub sparse_read: SimDuration,
    /// Model forward/backward compute.
    pub compute: SimDuration,
    /// Sparse write communication (pushes, evictions, AllGather).
    pub sparse_write: SimDuration,
    /// Dense synchronisation (AllReduce or dense PS).
    pub dense_sync: SimDuration,
}

impl ToJson for TimeBreakdown {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "sparse_read".to_string(),
                Json::Num(self.sparse_read.as_secs_f64()),
            ),
            ("compute".to_string(), Json::Num(self.compute.as_secs_f64())),
            (
                "sparse_write".to_string(),
                Json::Num(self.sparse_write.as_secs_f64()),
            ),
            (
                "dense_sync".to_string(),
                Json::Num(self.dense_sync.as_secs_f64()),
            ),
        ])
    }
}

impl TimeBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> SimDuration {
        self.sparse_read + self.compute + self.sparse_write + self.dense_sync
    }

    /// All communication components.
    pub fn communication(&self) -> SimDuration {
        self.sparse_read + self.sparse_write + self.dense_sync
    }

    /// Fraction of accounted time spent communicating (the paper's
    /// Fig. 2 observation: up to 86 % for TF PS).
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.communication().as_secs_f64() / total
        }
    }
}

/// Tiered-store accounting for one run: the shard-summed row-store
/// counters plus the server-level split of modelled disk time into
/// client-visible and background pools.
#[derive(Clone, Debug, Default)]
pub struct StoreSummary {
    /// Shard-summed row-store counters.
    pub stats: StoreStats,
    /// Modelled disk nanoseconds charged into request/leg latency.
    pub client_io_ns: u64,
    /// Modelled disk nanoseconds from maintenance paths (checkpoints,
    /// migration, warmup, evaluation views).
    pub background_io_ns: u64,
    /// Rows resident in hot tiers at the end of the run.
    pub resident_rows: u64,
    /// Total rows stored (hot + cold) at the end of the run.
    pub total_rows: u64,
}

impl ToJson for StoreSummary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hot_hits".to_string(), Json::UInt(self.stats.hot_hits)),
            ("promotions".to_string(), Json::UInt(self.stats.promotions)),
            ("demotions".to_string(), Json::UInt(self.stats.demotions)),
            (
                "clean_drops".to_string(),
                Json::UInt(self.stats.clean_drops),
            ),
            (
                "cold_read_bytes".to_string(),
                Json::UInt(self.stats.cold_read_bytes),
            ),
            (
                "cold_write_bytes".to_string(),
                Json::UInt(self.stats.cold_write_bytes),
            ),
            (
                "compactions".to_string(),
                Json::UInt(self.stats.compactions),
            ),
            (
                "reclaimed_bytes".to_string(),
                Json::UInt(self.stats.reclaimed_bytes),
            ),
            (
                "hot_hit_rate".to_string(),
                Json::Num(self.stats.hot_hit_rate()),
            ),
            ("io_ns".to_string(), Json::UInt(self.stats.io_ns)),
            ("client_io_ns".to_string(), Json::UInt(self.client_io_ns)),
            (
                "background_io_ns".to_string(),
                Json::UInt(self.background_io_ns),
            ),
            ("resident_rows".to_string(), Json::UInt(self.resident_rows)),
            ("total_rows".to_string(), Json::UInt(self.total_rows)),
        ])
    }
}

/// The result of one training run, on either backend (see the module
/// docs for which fields are modelled and which are host time).
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// The system's display name.
    pub system: String,
    /// The backend that ran the job.
    pub backend: ExecutionBackend,
    /// Host nanoseconds from the first scheduled step to the last
    /// step's completion (flush and final evaluation excluded).
    pub wall_ns: u64,
    /// Convergence curve sampled every `eval_every` iterations.
    pub curve: Vec<ConvergencePoint>,
    /// Total simulated time (latest worker clock at termination); zero
    /// on threads.
    pub total_sim_time: SimTime,
    /// Total iterations summed over workers.
    pub total_iterations: u64,
    /// Training examples processed.
    pub examples_processed: u64,
    /// Epochs completed (examples / epoch size).
    pub epochs: f64,
    /// First time, on the run's clock, at which the target metric was
    /// reached.
    pub converged_at: Option<SimTime>,
    /// Metric at the final evaluation (after the end-of-run flush).
    pub final_metric: f64,
    /// Per-category communication bytes/messages (merged over workers).
    pub comm: CommStats,
    /// Cache statistics (zeroed for cache-less systems).
    pub cache: CacheStats,
    /// Where simulated time went; zero on threads.
    pub breakdown: TimeBreakdown,
    /// The embedding keys resident in each worker's cache at the end of
    /// training, snapshotted *before* the final flush (empty for
    /// cache-less systems). This is the "stale path" set: predictions
    /// for these keys were served from cached values during training.
    pub resident_keys_per_worker: Vec<Vec<u64>>,
    /// Aggregate fault/recovery counters (all zero when injection was
    /// disabled or the schedule was empty).
    pub faults: FaultStats,
    /// Every fault and recovery event as it fired, in simulated-time
    /// order.
    pub fault_events: Vec<FaultRecord>,
    /// Lookahead-prefetch accounting; `None` when the run had no
    /// prefetcher (`lookahead_depth = 0`), which also keeps the
    /// serialized report byte-identical to the legacy path.
    pub prefetch: Option<PrefetchSummary>,
    /// Tiered-store accounting; `None` when the run used the flat
    /// in-memory store (the default), which keeps the serialized report
    /// byte-identical to the legacy path.
    pub store: Option<StoreSummary>,
    /// Worker 0's flat dense parameters at the end of the run — the
    /// cross-backend bit-identity probe.
    pub final_dense: Vec<f32>,
    /// The merged per-thread trace of a threaded run given
    /// `trace_meta`; `None` otherwise (a sim run's trace is collected
    /// by the caller's own collector).
    pub trace: Option<TraceLog>,
}

impl ToJson for TrainReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("system".to_string(), self.system.to_json()),
            ("curve".to_string(), self.curve.to_json()),
            (
                "total_sim_time".to_string(),
                Json::Num(self.total_sim_time.as_secs_f64()),
            ),
            (
                "total_iterations".to_string(),
                Json::UInt(self.total_iterations),
            ),
            (
                "examples_processed".to_string(),
                Json::UInt(self.examples_processed),
            ),
            ("epochs".to_string(), Json::Num(self.epochs)),
            ("final_metric".to_string(), Json::Num(self.final_metric)),
            ("comm".to_string(), self.comm.to_json()),
            ("breakdown".to_string(), self.breakdown.to_json()),
            ("faults".to_string(), self.faults.to_json()),
            ("fault_events".to_string(), self.fault_events.to_json()),
        ];
        // Emitted only for prefetch-enabled runs so a depth-0 report
        // stays byte-identical to one from a build without the
        // prefetcher at all.
        if let Some(p) = &self.prefetch {
            fields.push(("prefetch".to_string(), p.to_json()));
        }
        // Likewise absent for in-memory-store runs.
        if let Some(s) = &self.store {
            fields.push(("store".to_string(), s.to_json()));
        }
        // Host time stays out of a sim report's JSON.
        if self.backend != ExecutionBackend::Sim {
            fields.push(("backend".to_string(), self.backend.to_string().to_json()));
            fields.push(("wall_ns".to_string(), Json::UInt(self.wall_ns)));
        }
        Json::Obj(fields)
    }
}

impl TrainReport {
    /// Simulated seconds per epoch (∞ if less than one epoch ran).
    pub fn epoch_time(&self) -> f64 {
        if self.epochs > 0.0 {
            self.total_sim_time.as_secs_f64() / self.epochs
        } else {
            f64::INFINITY
        }
    }

    /// Throughput in examples per simulated second.
    pub fn throughput(&self) -> f64 {
        let t = self.total_sim_time.as_secs_f64();
        if t > 0.0 {
            self.examples_processed as f64 / t
        } else {
            0.0
        }
    }

    /// Time to the target metric in seconds on the run's clock, if
    /// reached.
    pub fn convergence_time(&self) -> Option<f64> {
        self.converged_at.map(|t| t.as_secs_f64())
    }

    /// Iterations per host second of [`TrainReport::wall_ns`].
    pub fn iters_per_wall_s(&self) -> f64 {
        if self.wall_ns > 0 {
            self.total_iterations as f64 / (self.wall_ns as f64 / 1e9)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions() {
        let b = TimeBreakdown {
            sparse_read: SimDuration::from_millis(60),
            compute: SimDuration::from_millis(20),
            sparse_write: SimDuration::from_millis(10),
            dense_sync: SimDuration::from_millis(10),
        };
        assert_eq!(b.total(), SimDuration::from_millis(100));
        assert_eq!(b.communication(), SimDuration::from_millis(80));
        assert!((b.communication_fraction() - 0.8).abs() < 1e-9);
        assert_eq!(TimeBreakdown::default().communication_fraction(), 0.0);
    }

    fn report() -> TrainReport {
        TrainReport {
            system: "test".into(),
            total_sim_time: SimTime::from_nanos(2_000_000_000),
            total_iterations: 100,
            examples_processed: 1_000,
            epochs: 4.0,
            converged_at: Some(SimTime::from_nanos(1_000_000_000)),
            final_metric: 0.8,
            ..TrainReport::default()
        }
    }

    #[test]
    fn derived_rates() {
        let r = report();
        assert!((r.epoch_time() - 0.5).abs() < 1e-9);
        assert!((r.throughput() - 500.0).abs() < 1e-6);
        assert_eq!(r.convergence_time(), Some(1.0));
    }

    #[test]
    fn zero_epoch_edge_cases() {
        let mut r = report();
        r.epochs = 0.0;
        assert!(r.epoch_time().is_infinite());
        r.total_sim_time = SimTime::ZERO;
        assert_eq!(r.throughput(), 0.0);
    }

    #[test]
    fn report_serialises_to_json() {
        let mut r = report();
        r.wall_ns = 5;
        let json = het_json::to_string(&r);
        assert!(json.contains("\"system\":\"test\""));
        assert!(!json.contains("wall_ns") && !json.contains("backend"));
        r.backend = ExecutionBackend::Threads(2);
        let json = het_json::to_string(&r);
        assert!(json.ends_with(",\"backend\":\"threads:2\",\"wall_ns\":5}"));
    }
}
