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
//!   a throughput/parallelism harness, not a queueing model.
//!
//! The per-thread results feed the same `ServeReport::assemble` the
//! simulator's report comes from, so both backends return one schema:
//! here `backend` is `threads:<n>`, latency and `throughput_rps` are on
//! the host clock, and the modelled `sim_time_ns`, `queue_wait_ns`,
//! `lookup_ns` and `infer_ns` are zero.
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

use crate::colocate::ColocatedReport;
use crate::config::ServeConfig;
use crate::report::{ReplicaReport, ServeReport};
use crate::sim::{private_server, warmup_keys, Pulled, ReplicaCore};
use crate::workload::{generate_requests, pretrain, Request};
use het_cache::CacheStats;
use het_data::{CtrBatch, LatencyHistogram};
use het_models::EmbeddingModel;
use het_ps::{PsServer, ServerHandle};
use het_rng::rngs::StdRng;
use het_runtime::{ExecutionBackend, WallClock};
use std::sync::atomic::{AtomicUsize, Ordering};

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
        (!cfg.faults.is_zero(), "fault injection"),
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
    warm: &Pulled,
    next: &AtomicUsize,
    clock: &WallClock,
    mut replica: ReplicaCore<M>,
) -> ThreadOut {
    replica.install(warm, false);
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
/// the per-thread results in replica order and the fleet wall time.
fn run_fleet<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: &ServeConfig,
    server: &PsServer,
    requests: &[Request],
    warm: &Pulled,
    n_threads: usize,
    model_fn: &(impl Fn(&mut StdRng) -> M + Sync),
) -> (Vec<ThreadOut>, u64) {
    let clock = WallClock::new();
    let next = AtomicUsize::new(0);
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let (clock, next) = (&clock, &next);
                scope.spawn(move || {
                    let replica = ReplicaCore::new(cfg, model_fn);
                    replica_loop(cfg, server, requests, warm, next, clock, replica)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    (outs, clock.elapsed_ns())
}

/// Runs a threaded serving fleet over a private PS fabric: `n_threads`
/// replica threads drain the deterministic request schedule of `cfg`.
/// The `--backend threads:<n>` analogue of
/// [`ServeSim::run`](crate::ServeSim::run); see the module docs for what
/// carries over and what does not.
pub fn run_threaded_serve<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: ServeConfig,
    n_threads: usize,
    model_fn: impl Fn(&mut StdRng) -> M + Sync,
) -> Result<ServeReport, String> {
    serve_on(&cfg, None, n_threads, model_fn)
}

/// Warms and runs a fleet against `shared` — a live PS fabric something
/// else may be training (pretraining is then skipped: the live trainer
/// *is* the training stream) — or, given none, against a private,
/// pretrained one.
fn serve_on<M: EmbeddingModel<Batch = CtrBatch>>(
    cfg: &ServeConfig,
    shared: Option<ServerHandle>,
    n_threads: usize,
    model_fn: impl Fn(&mut StdRng) -> M + Sync,
) -> Result<ServeReport, String> {
    cfg.validate()?;
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
    let warm_keys = warmup_keys(cfg);
    let warm = Pulled::from(&server, &warm_keys);
    if !warm_keys.is_empty() {
        // Warmup precedes the first request; its cold fetches are not
        // serving latency.
        server.reclassify_pending_io();
    }
    let requests = generate_requests(cfg);
    let (outs, wall_ns) = run_fleet(cfg, &server, &requests, &warm, n_threads, &model_fn);
    let mut hist = LatencyHistogram::new();
    let mut score = (0.0, 0);
    for out in &outs {
        hist.merge(&out.hist);
        score.0 += out.score_sum;
        score.1 += out.score_count;
    }
    let replicas = outs
        .iter()
        .enumerate()
        .map(|(i, out)| ReplicaReport {
            replica: i,
            requests: out.requests,
            batches: out.batches,
            crashes: 0,
            cache: out.cache,
            p99_ns: out.hist.quantile(0.99),
        })
        .collect();
    Ok(ServeReport {
        backend: ExecutionBackend::Threads(n_threads),
        wall_ns,
        n_replicas: n_threads,
        warmed_keys: warm_keys.len() as u64,
        pretrain_updates: pretrained,
        ..ServeReport::assemble(cfg, replicas, &hist, wall_ns, score)
    })
}

/// Co-scheduled training + serving on the threaded backend: the
/// trainer's worker threads ([`het_core::Trainer::run_threaded`]) and a replica
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
) -> Result<ColocatedReport, String>
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
        let fleet =
            scope.spawn(move || serve_on(serve_cfg, Some(server), n_serve_threads, serve_model_fn));
        let train = trainer.run_threaded(None);
        let serve = fleet
            .join()
            .map_err(|_| "serving fleet panicked".to_string())??;
        Ok(ColocatedReport {
            train: train?,
            serve,
        })
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
        assert_eq!(report.backend, ExecutionBackend::Threads(3));
        assert_eq!((report.n_replicas, report.replicas.len()), (3, 3));
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
        // One schema: the config echo, the request count and one row
        // per replica are backend-independent.
        let echo = |r: &ServeReport| {
            let policy = r.policy.clone();
            (r.seed, r.n_replicas, r.cache_capacity, r.staleness, policy)
        };
        assert_eq!(echo(&thr), echo(&sim));
        assert_eq!(thr.requests, sim.requests);
        assert_eq!(thr.replicas.len(), sim.replicas.len());
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
        let ColocatedReport { train, serve } =
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
