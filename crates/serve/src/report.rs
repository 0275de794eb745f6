//! The serving run's output: throughput, the latency distribution, and
//! per-replica cache behaviour.
//!
//! One [`ServeReport`] serves both execution backends, assembled by one
//! function (`ServeReport::assemble`) from per-replica rows. The config
//! echo, request/batch counts, cache counters and per-replica rows mean
//! the same on both. Time-valued fields are on the clock of the backend
//! that ran: on the sim, latency is arrival → batch completion in
//! modelled time; on threads it is a micro-batch's host service time
//! (claim → forward done), and `throughput_rps` is per host second. The
//! modelled `sim_time_ns`, `queue_wait_ns`, `lookup_ns` and `infer_ns`
//! are zero on threads. `wall_ns` is host time on both, and the JSON
//! carries it (with `backend`) only for a threaded report, so a sim
//! report's JSON stays a pure function of the seed.

use crate::config::ServeConfig;
use het_cache::CacheStats;
use het_core::FaultStats;
use het_data::LatencyHistogram;
use het_json::{Json, ToJson};
use het_runtime::ExecutionBackend;

/// Per-replica outcome of a serving run.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// Replica index.
    pub replica: usize,
    /// Requests this replica served.
    pub requests: u64,
    /// Micro-batches this replica executed.
    pub batches: u64,
    /// Crash/restart cycles this replica went through.
    pub crashes: u64,
    /// Final cache counters.
    pub cache: CacheStats,
    /// p99 latency of this replica's requests, in nanoseconds.
    pub p99_ns: u64,
}

impl ToJson for ReplicaReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("replica".to_string(), Json::UInt(self.replica as u64)),
            ("requests".to_string(), Json::UInt(self.requests)),
            ("batches".to_string(), Json::UInt(self.batches)),
            ("crashes".to_string(), Json::UInt(self.crashes)),
            ("hits".to_string(), Json::UInt(self.cache.hits)),
            ("misses".to_string(), Json::UInt(self.cache.misses)),
            (
                "invalidations".to_string(),
                Json::UInt(self.cache.invalidations),
            ),
            (
                "capacity_evictions".to_string(),
                Json::UInt(self.cache.capacity_evictions),
            ),
            ("miss_rate".to_string(), Json::Num(self.cache.miss_rate())),
            ("p99_ns".to_string(), Json::UInt(self.p99_ns)),
        ])
    }
}

/// The result of one serving run, on either backend (see the module
/// docs). Latency percentiles are kept in nanoseconds as exact integers
/// so the JSON encoding is byte-stable.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// The backend that ran the fleet.
    pub backend: ExecutionBackend,
    /// Host nanoseconds from the start of serving to the last batch
    /// done.
    pub wall_ns: u64,
    /// Run seed (config echo).
    pub seed: u64,
    /// Replica count (config echo).
    pub n_replicas: usize,
    /// Per-replica cache capacity (config echo).
    pub cache_capacity: usize,
    /// Staleness window `s` (config echo).
    pub staleness: u64,
    /// Eviction policy name (config echo).
    pub policy: String,
    /// Requests served (all of them — the run drains the schedule).
    pub requests: u64,
    /// Micro-batches executed across replicas.
    pub batches: u64,
    /// Simulated instant the last batch completed; zero on threads.
    pub sim_time_ns: u64,
    /// Served requests per second on the run's clock.
    pub throughput_rps: f64,
    /// Mean requests per micro-batch.
    pub mean_batch_size: f64,
    /// Median latency on the run's clock.
    pub latency_p50_ns: u64,
    /// 95th percentile latency.
    pub latency_p95_ns: u64,
    /// 99th percentile latency.
    pub latency_p99_ns: u64,
    /// Worst-case latency.
    pub latency_max_ns: u64,
    /// Mean latency.
    pub latency_mean_ns: f64,
    /// Total modelled time requests spent queued before their batch
    /// started; zero on threads.
    pub queue_wait_ns: u64,
    /// Total modelled time spent in cache/PS embedding resolution; zero
    /// on threads.
    pub lookup_ns: u64,
    /// Total modelled time spent in model forward passes; zero on
    /// threads.
    pub infer_ns: u64,
    /// Cache counters merged across replicas.
    pub cache: CacheStats,
    /// Keys pre-installed per replica by SpaceSaving warmup.
    pub warmed_keys: u64,
    /// PS updates applied before serving started.
    pub pretrain_updates: u64,
    /// Mean model score over all served examples (a cheap fingerprint
    /// that the forward pass actually consumed the embeddings).
    pub score_mean: f64,
    /// Fault accounting (replica crashes, degraded reads, …).
    pub faults: FaultStats,
    /// Supervisor crash detections (0 when supervision is off).
    pub detections: u64,
    /// Supervised replica respawns applied by the fleet.
    pub respawns: u64,
    /// Batches deferred by the outage-retry schedule.
    pub retry_waits: u64,
    /// Autoscaler scale-up actions (0 when autoscaling is off).
    pub scale_ups: u64,
    /// Autoscaler scale-down actions.
    pub scale_downs: u64,
    /// Keys moved by a supervisor-driven live shard split.
    pub migrated_keys: u64,
    /// True once a planned live split fully completed during the run.
    pub split_done: bool,
    /// Worst detection→respawn gap, in nanoseconds (recovery-time
    /// objective).
    pub max_recovery_ns: u64,
    /// Per-replica breakdown.
    pub replicas: Vec<ReplicaReport>,
}

impl ToJson for ServeReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seed".to_string(), Json::UInt(self.seed)),
            ("n_replicas".to_string(), Json::UInt(self.n_replicas as u64)),
            (
                "cache_capacity".to_string(),
                Json::UInt(self.cache_capacity as u64),
            ),
            ("staleness".to_string(), Json::UInt(self.staleness)),
            ("policy".to_string(), Json::Str(self.policy.clone())),
            ("requests".to_string(), Json::UInt(self.requests)),
            ("batches".to_string(), Json::UInt(self.batches)),
            ("sim_time_ns".to_string(), Json::UInt(self.sim_time_ns)),
            ("throughput_rps".to_string(), Json::Num(self.throughput_rps)),
            (
                "mean_batch_size".to_string(),
                Json::Num(self.mean_batch_size),
            ),
            (
                "latency_p50_ns".to_string(),
                Json::UInt(self.latency_p50_ns),
            ),
            (
                "latency_p95_ns".to_string(),
                Json::UInt(self.latency_p95_ns),
            ),
            (
                "latency_p99_ns".to_string(),
                Json::UInt(self.latency_p99_ns),
            ),
            (
                "latency_max_ns".to_string(),
                Json::UInt(self.latency_max_ns),
            ),
            (
                "latency_mean_ns".to_string(),
                Json::Num(self.latency_mean_ns),
            ),
            ("queue_wait_ns".to_string(), Json::UInt(self.queue_wait_ns)),
            ("lookup_ns".to_string(), Json::UInt(self.lookup_ns)),
            ("infer_ns".to_string(), Json::UInt(self.infer_ns)),
            ("hits".to_string(), Json::UInt(self.cache.hits)),
            ("misses".to_string(), Json::UInt(self.cache.misses)),
            (
                "invalidations".to_string(),
                Json::UInt(self.cache.invalidations),
            ),
            (
                "capacity_evictions".to_string(),
                Json::UInt(self.cache.capacity_evictions),
            ),
            ("miss_rate".to_string(), Json::Num(self.cache.miss_rate())),
            ("warmed_keys".to_string(), Json::UInt(self.warmed_keys)),
            (
                "pretrain_updates".to_string(),
                Json::UInt(self.pretrain_updates),
            ),
            ("score_mean".to_string(), Json::Num(self.score_mean)),
            ("faults".to_string(), self.faults.to_json()),
            ("detections".to_string(), Json::UInt(self.detections)),
            ("respawns".to_string(), Json::UInt(self.respawns)),
            ("retry_waits".to_string(), Json::UInt(self.retry_waits)),
            ("scale_ups".to_string(), Json::UInt(self.scale_ups)),
            ("scale_downs".to_string(), Json::UInt(self.scale_downs)),
            ("migrated_keys".to_string(), Json::UInt(self.migrated_keys)),
            ("split_done".to_string(), Json::Bool(self.split_done)),
            (
                "max_recovery_ns".to_string(),
                Json::UInt(self.max_recovery_ns),
            ),
            (
                "replicas".to_string(),
                Json::Arr(self.replicas.iter().map(|r| r.to_json()).collect()),
            ),
        ];
        // Host time stays out of a sim report's JSON.
        if self.backend != ExecutionBackend::Sim {
            fields.push(("backend".to_string(), self.backend.to_string().to_json()));
            fields.push(("wall_ns".to_string(), Json::UInt(self.wall_ns)));
        }
        Json::Obj(fields)
    }
}

impl ServeReport {
    /// The assembly both backends share: the config echo, the
    /// per-replica rows and their summed counters, the fleet's latency
    /// percentiles from `hist`, and throughput over `span_ns` — all on
    /// the clock of the backend that ran. Every other field is its
    /// default (zero; `backend` the sim); the caller fills what its
    /// backend has.
    pub(crate) fn assemble(
        cfg: &ServeConfig,
        replicas: Vec<ReplicaReport>,
        hist: &LatencyHistogram,
        span_ns: u64,
        (score_sum, score_count): (f64, u64),
    ) -> ServeReport {
        let mut cache = CacheStats::default();
        let (mut requests, mut batches) = (0u64, 0u64);
        for r in &replicas {
            cache.merge(&r.cache);
            requests += r.requests;
            batches += r.batches;
        }
        let span_s = span_ns as f64 / 1e9;
        ServeReport {
            seed: cfg.seed,
            n_replicas: cfg.n_replicas,
            cache_capacity: cfg.cache_capacity,
            staleness: cfg.staleness,
            policy: cfg.policy.to_string(),
            requests,
            batches,
            throughput_rps: if span_s > 0.0 {
                requests as f64 / span_s
            } else {
                0.0
            },
            mean_batch_size: if batches > 0 {
                requests as f64 / batches as f64
            } else {
                0.0
            },
            latency_p50_ns: hist.quantile(0.5),
            latency_p95_ns: hist.quantile(0.95),
            latency_p99_ns: hist.quantile(0.99),
            latency_max_ns: hist.max(),
            latency_mean_ns: hist.mean(),
            cache,
            score_mean: if score_count > 0 {
                score_sum / score_count as f64
            } else {
                0.0
            },
            replicas,
            ..ServeReport::default()
        }
    }
}
