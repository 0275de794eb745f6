//! The threaded scheduler for the serving replica.
//!
//! [`ServeSim`](crate::ServeSim) is the discrete-event oracle: one OS
//! thread, virtual time, byte-identical reports. This module runs the
//! *same* replica (`sim::ReplicaCore`: a read-only [`het_core::HetClient`]
//! cache in front of a trained forward pass, warmed from the same
//! `sim::warmup_keys`) on real OS threads behind `--backend threads:<n>`.
//! What lives here is only who serves what, and when:
//!
//! * one thread per replica, each **owning** its cache and model (only
//!   the PS fabric is shared, through [`PsServer`]'s internally
//!   synchronized shards);
//! * the pre-generated request schedule ([`generate_requests`]) is
//!   drained through a shared atomic cursor — each thread claims the
//!   next `max_batch` requests and serves them as one micro-batch;
//! * latency is **wall-clock service time** per micro-batch (claim →
//!   forward done). The open-loop arrival process and join-shortest-
//!   queue routing are simulation constructs; the threaded backend is
//!   a throughput/parallelism harness, not a queueing model, and its
//!   report says so by carrying `wall_ns` instead of `sim_time_ns`.
//!
//! What is deterministic here: the request schedule, the pretraining
//! stream, the warmup set, and every per-request score (reads are
//! staleness-validated against the same clocks). What is not: wall
//! times, thread interleaving, and therefore cache hit counts when
//! serving runs *while training* (the PS clocks advance concurrently).
//!
//! Features that are inherently schedule-scripted — fault injection,
//! heartbeat supervision, autoscaling, drift-triggered prefetch — are
//! rejected with an error pointing back at `--backend sim` rather than
//! silently ignored.

use crate::config::ServeConfig;
use crate::sim::{private_server, warmup_keys, ReplicaCore};
use crate::workload::{generate_requests, pretrain, Request};
use het_cache::CacheStats;
use het_data::{CtrBatch, Key, LatencyHistogram};
use het_json::{Json, ToJson};
use het_models::EmbeddingModel;
use het_ps::{PsServer, PullResult, ServerHandle};
use het_rng::rngs::StdRng;
use het_runtime::WallClock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The outcome of a threaded serving run. Times are host wall-clock
/// nanoseconds — honest measurements, hardware-dependent, outside every
/// byte-identity contract (unlike [`ServeReport`](crate::ServeReport)).
#[derive(Clone, Debug)]
pub struct ThreadedServeReport {
    /// Replica threads the fleet ran on.
    pub n_threads: usize,
    /// Requests served (all of them — the run drains the schedule).
    pub requests: u64,
    /// Micro-batches executed across replica threads.
    pub batches: u64,
    /// Wall-clock nanoseconds from fleet start to last batch done.
    pub wall_ns: u64,
    /// Served requests per wall-clock second.
    pub throughput_rps: f64,
    /// Median micro-batch service latency (claim → forward done).
    pub latency_p50_ns: u64,
    /// 95th percentile service latency.
    pub latency_p95_ns: u64,
    /// 99th percentile service latency.
    pub latency_p99_ns: u64,
    /// Worst-case service latency.
    pub latency_max_ns: u64,
    /// Mean service latency.
    pub latency_mean_ns: f64,
    /// Cache counters merged across replica threads.
    pub cache: CacheStats,
    /// Keys pre-installed per replica by SpaceSaving warmup.
    pub warmed_keys: u64,
    /// PS updates applied before serving started.
    pub pretrain_updates: u64,
    /// Mean model score over all served examples (the fingerprint that
    /// the forward pass actually consumed the embeddings).
    pub score_mean: f64,
}

impl ToJson for ThreadedServeReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("backend".to_string(), Json::Str("threads".to_string())),
            ("n_threads".to_string(), Json::UInt(self.n_threads as u64)),
            ("requests".to_string(), Json::UInt(self.requests)),
            ("batches".to_string(), Json::UInt(self.batches)),
            ("wall_ns".to_string(), Json::UInt(self.wall_ns)),
            ("throughput_rps".to_string(), Json::Num(self.throughput_rps)),
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
            ("hits".to_string(), Json::UInt(self.cache.hits)),
            ("misses".to_string(), Json::UInt(self.cache.misses)),
            (
                "invalidations".to_string(),
                Json::UInt(self.cache.invalidations),
            ),
            ("miss_rate".to_string(), Json::Num(self.cache.miss_rate())),
            ("warmed_keys".to_string(), Json::UInt(self.warmed_keys)),
            (
                "pretrain_updates".to_string(),
                Json::UInt(self.pretrain_updates),
            ),
            ("score_mean".to_string(), Json::Num(self.score_mean)),
        ])
    }
}

/// What one replica thread brings home.
struct ThreadOut {
    hist: LatencyHistogram,
    cache: CacheStats,
    score_sum: f64,
    score_count: u64,
    requests: u64,
    batches: u64,
}

/// Rejects configuration features the threaded backend cannot honour.
/// Each of them scripts behaviour against the *simulated* schedule
/// (fault instants, heartbeat ticks, queue-depth windows), which has
/// no wall-clock analogue here.
fn check_supported(cfg: &ServeConfig) -> Result<(), String> {
    for (on, what) in [
        (cfg.faults.enabled, "fault injection"),
        (cfg.supervision.enabled, "supervision"),
        (cfg.autoscale.enabled, "autoscaling"),
    ] {
        if on {
            return Err(format!(
                "the threaded serving backend does not support {what}; use --backend sim"
            ));
        }
    }
    Ok(())
}

/// One replica thread: install the warm snapshot, then claim
/// `max_batch` requests at a time off the shared cursor and serve them,
/// recording the batch's wall service time for each request in it.
fn replica_loop<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: &ServeConfig,
    server: &PsServer,
    requests: &[Request],
    warm: &[(Key, PullResult)],
    next: &AtomicUsize,
    clock: &WallClock,
    mut replica: ReplicaCore<M>,
) -> ThreadOut {
    for (k, pulled) in warm {
        let _ = replica
            .client
            .cache_mut()
            .install(*k, pulled.vector.clone(), pulled.clock);
    }
    let net = cfg.cluster.collectives();
    let mut out = ThreadOut {
        hist: LatencyHistogram::new(),
        cache: CacheStats::default(),
        score_sum: 0.0,
        score_count: 0,
        requests: 0,
        batches: 0,
    };
    loop {
        let start = next.fetch_add(cfg.max_batch, Ordering::Relaxed);
        if start >= requests.len() {
            break;
        }
        let end = (start + cfg.max_batch).min(requests.len());
        let t0 = clock.elapsed_ns();
        let batch = &requests[start..end];
        let served = replica.serve_batch(batch.iter(), cfg.n_fields, server, &net, None);
        out.score_sum += served.score_sum;
        out.score_count += served.scores;
        let service = clock.elapsed_ns().saturating_sub(t0);
        for _ in batch {
            out.hist.record(service);
        }
        out.requests += batch.len() as u64;
        out.batches += 1;
    }
    out.cache = *replica.client.cache().stats();
    out
}

/// Runs the replica fleet: `n_threads` threads drain `requests` against
/// `server`, each installing the shared `warm` snapshot first. Returns
/// the per-thread results and the fleet wall time.
fn run_fleet<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: &ServeConfig,
    server: &PsServer,
    requests: &[Request],
    warm: &[(Key, PullResult)],
    n_threads: usize,
    model_fn: &(impl Fn(&mut StdRng) -> M + Sync),
) -> (Vec<ThreadOut>, u64) {
    let clock = WallClock::new();
    let next = AtomicUsize::new(0);
    let outs: Mutex<Vec<ThreadOut>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            let (clock, next, outs) = (&clock, &next, &outs);
            scope.spawn(move || {
                let replica = ReplicaCore::new(cfg, model_fn);
                let out = replica_loop(cfg, server, requests, warm, next, clock, replica);
                outs.lock().unwrap_or_else(|e| e.into_inner()).push(out);
            });
        }
    });
    let wall_ns = clock.elapsed_ns();
    (
        outs.into_inner().unwrap_or_else(|e| e.into_inner()),
        wall_ns,
    )
}

/// Merges per-thread results into the report.
fn assemble_report(
    outs: Vec<ThreadOut>,
    wall_ns: u64,
    n_threads: usize,
    warmed_keys: u64,
    pretrained: u64,
) -> ThreadedServeReport {
    let mut hist = LatencyHistogram::new();
    let mut cache = CacheStats::default();
    let (mut requests, mut batches) = (0u64, 0u64);
    let (mut score_sum, mut score_count) = (0f64, 0u64);
    for out in &outs {
        hist.merge(&out.hist);
        cache.merge(&out.cache);
        requests += out.requests;
        batches += out.batches;
        score_sum += out.score_sum;
        score_count += out.score_count;
    }
    let wall_s = wall_ns as f64 / 1e9;
    ThreadedServeReport {
        n_threads,
        requests,
        batches,
        wall_ns,
        throughput_rps: if wall_s > 0.0 {
            requests as f64 / wall_s
        } else {
            0.0
        },
        latency_p50_ns: hist.quantile(0.5),
        latency_p95_ns: hist.quantile(0.95),
        latency_p99_ns: hist.quantile(0.99),
        latency_max_ns: hist.max(),
        latency_mean_ns: hist.mean(),
        cache,
        warmed_keys,
        pretrain_updates: pretrained,
        score_mean: if score_count > 0 {
            score_sum / score_count as f64
        } else {
            0.0
        },
    }
}

/// Runs a threaded serving fleet over a private PS fabric: `n_threads`
/// replica threads drain the deterministic request schedule of `cfg`.
/// The `--backend threads:<n>` analogue of [`ServeSim::run`]
/// (`crate::ServeSim::run`); see the module docs for what carries over
/// and what does not.
pub fn run_threaded_serve<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: ServeConfig,
    n_threads: usize,
    model_fn: impl Fn(&mut StdRng) -> M + Sync,
) -> Result<ThreadedServeReport, String> {
    serve_on(&cfg, None, n_threads, model_fn)
}

/// Runs a threaded serving fleet against a *shared, live* PS fabric —
/// the trainer's — while something else (a threaded trainer) mutates
/// it. Pretraining is skipped (the live trainer *is* the training
/// stream). Used by [`run_threaded_colocated`].
pub fn run_threaded_serve_shared<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: &ServeConfig,
    server: ServerHandle,
    n_threads: usize,
    model_fn: impl Fn(&mut StdRng) -> M + Sync,
) -> Result<ThreadedServeReport, String> {
    serve_on(cfg, Some(server), n_threads, model_fn)
}

/// Warms and runs a fleet against `shared`, or — given none — against a
/// private, pretrained PS fabric.
fn serve_on<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: &ServeConfig,
    shared: Option<ServerHandle>,
    n_threads: usize,
    model_fn: impl Fn(&mut StdRng) -> M + Sync,
) -> Result<ThreadedServeReport, String> {
    cfg.validate();
    check_supported(cfg)?;
    if n_threads == 0 {
        return Err("threaded serving needs at least one replica thread".to_string());
    }
    let (server, pretrained) = match shared {
        Some(server) => {
            assert_eq!(
                server.dim(),
                cfg.dim,
                "shared PS fabric dim must match the serve config"
            );
            (server, 0)
        }
        None => {
            let server = private_server(cfg, 0);
            let pretrained = pretrain(cfg, &server, cfg.pretrain_updates);
            (server, pretrained)
        }
    };
    // Pulled once on the calling thread so every replica installs the
    // identical snapshot (the sim warms each replica from the same key
    // set; pulling once gives the threaded fleet the same content
    // without racing the warm pulls).
    let warm: Vec<(Key, PullResult)> = warmup_keys(cfg)
        .into_iter()
        .map(|k| (k, server.pull(k)))
        .collect();
    if !warm.is_empty() {
        // Warmup precedes the first request; its cold fetches are not
        // serving latency.
        server.reclassify_pending_io();
    }
    let requests = generate_requests(cfg);
    let (outs, wall_ns) = run_fleet(cfg, &server, &requests, &warm, n_threads, &model_fn);
    Ok(assemble_report(
        outs,
        wall_ns,
        n_threads,
        warm.len() as u64,
        pretrained,
    ))
}

/// Co-scheduled training + serving on the threaded backend: the
/// trainer's worker threads ([`Trainer::run_threaded`]) and a replica
/// fleet share one live PS fabric and genuinely run *concurrently* —
/// every `push_inc` the trainer lands advances the per-key clocks the
/// fleet's `CheckValid` reads are bounded by, on real threads instead
/// of interleaved virtual time.
///
/// The fleet drains its whole request schedule; the run ends when both
/// sides finish. Serving-side pretraining is skipped — the live trainer
/// *is* the training stream. Unlike the sim colocation, the two sides'
/// relative progress is hardware-dependent, so cache hit counts and
/// freshness are not part of any byte-identity contract here.
pub fn run_threaded_colocated<TM, D, SM>(
    trainer: &mut het_core::Trainer<TM, D>,
    mut serve_cfg: ServeConfig,
    n_serve_threads: usize,
    serve_model_fn: impl Fn(&mut StdRng) -> SM + Sync + Send,
) -> Result<(het_core::ParallelReport, ThreadedServeReport), String>
where
    TM: EmbeddingModel,
    D: het_models::Dataset<Batch = TM::Batch>,
    SM: EmbeddingModel<Batch = CtrBatch>,
{
    let server = trainer.server_handle();
    // The fleet reads the trainer's live table; its shard count is a
    // property of that fabric, not of the serve config.
    serve_cfg.n_shards = server.n_shards();
    std::thread::scope(|scope| {
        let serve_cfg = &serve_cfg;
        let fleet = scope.spawn(move || {
            run_threaded_serve_shared(serve_cfg, server, n_serve_threads, serve_model_fn)
        });
        let train = trainer.run_threaded(None);
        let serve = fleet
            .join()
            .map_err(|_| "serving fleet panicked".to_string())??;
        Ok((train?, serve))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_models::WideDeep;

    fn model_of(cfg: &ServeConfig) -> impl Fn(&mut StdRng) -> WideDeep + Sync {
        let (n_fields, dim) = (cfg.n_fields, cfg.dim);
        move |rng: &mut StdRng| WideDeep::new(rng, n_fields, dim, &[16])
    }

    #[test]
    fn threaded_serve_drains_every_request() {
        let mut cfg = ServeConfig::tiny(11);
        cfg.warmup_requests = 40;
        let n_requests = cfg.n_requests as u64;
        let model = model_of(&cfg);
        let report = run_threaded_serve(cfg, 3, model).expect("threaded serve");
        assert_eq!(report.requests, n_requests);
        assert_eq!(report.n_threads, 3);
        assert!(report.batches > 0);
        assert!(report.wall_ns > 0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.score_mean.is_finite());
        assert!(report.warmed_keys > 0);
        // Every request resolved its keys through the cache layer.
        assert!(report.cache.hits + report.cache.misses > 0);
    }

    #[test]
    fn threaded_serve_scores_match_the_simulator() {
        // The set of (request, score) pairs is backend-independent:
        // reads are staleness-validated against the same pretrained
        // clocks and the model is identical. Aggregate score mean is
        // FP-order dependent, so compare with a tolerance.
        let mut cfg = ServeConfig::tiny(13);
        cfg.warmup_requests = 40;
        let sim = crate::ServeSim::new(cfg.clone(), model_of(&cfg)).run();
        let thr = run_threaded_serve(cfg.clone(), 2, model_of(&cfg)).expect("threaded serve");
        assert_eq!(thr.requests, sim.requests);
        assert!(sim.warmed_keys > 0);
        assert_eq!(thr.warmed_keys, sim.warmed_keys);
        assert!(
            (thr.score_mean - sim.score_mean).abs() < 1e-6,
            "threaded score mean {} vs sim {}",
            thr.score_mean,
            sim.score_mean
        );
    }

    #[test]
    fn threaded_colocated_trains_while_serving() {
        use het_core::config::{SystemPreset, TrainerConfig};
        use het_core::Trainer;
        use het_data::{CtrConfig, CtrDataset};

        let config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
        let mut trainer = Trainer::new(config, CtrDataset::new(CtrConfig::tiny(3)), |rng| {
            WideDeep::new(rng, 4, 8, &[16])
        });
        let mut cfg = ServeConfig::tiny(3);
        cfg.pretrain_updates = 0;
        cfg.n_requests = 200;
        let model = model_of(&cfg);
        let (train, serve) =
            run_threaded_colocated(&mut trainer, cfg, 2, model).expect("threaded colocate");
        assert_eq!(train.total_iterations, 200);
        assert_eq!(serve.requests, 200);
        assert!(serve.pretrain_updates == 0);
        assert!(train.final_metric.is_finite());
    }

    #[test]
    fn threaded_serve_rejects_sim_only_features() {
        let mut cfg = ServeConfig::tiny(5);
        cfg.supervision.enabled = true;
        let err = run_threaded_serve(cfg, 2, model_of(&ServeConfig::tiny(5))).unwrap_err();
        assert!(err.contains("--backend sim"), "{err}");
    }
}
