//! Co-scheduled training + serving: one cluster runtime, one PS fabric.
//!
//! This is the "serving heavy traffic while training" configuration of
//! the north star, done for real: a [`Trainer`] and a [`ServeSim`]
//! share a single `het-runtime` [`ClusterRuntime`], so training
//! iterations and inference micro-batches interleave in one global
//! simulated-time order against one live [`het_ps::PsServer`]. Every
//! gradient the trainer pushes advances the per-key server clocks the
//! serving replicas' `CheckValid` reads are bounded by — the
//! freshness/latency coupling emerges from actual co-scheduling instead
//! of a synthetic update feed.
//!
//! Each job registers its own processes, exactly as it does when run
//! alone: [`Trainer::register`] adds the trainer and, with lookahead on,
//! its prefetcher; the fleet then adds itself, its supervisor when
//! supervision is on (an outage observer, as alone — the trainer is the
//! only job that checkpoints and restores PS shards) and its autoscaler
//! when autoscaling is on.
//!
//! Fault injection is cluster-wide: the trainer's plan covers the
//! serving replicas as extra cluster members (see
//! [`Trainer::with_cluster`]), and the runtime's centralized
//! fault delivery routes each crash to the job that owns the member.
//! The serve config's own `faults` section is ignored here.
//!
//! Same seed ⇒ byte-identical combined report JSON and trace.

use crate::config::ServeConfig;
use crate::report::ServeReport;
use crate::sim::ServeSim;
use het_core::{TrainReport, Trainer};
use het_data::CtrBatch;
use het_json::{Json, ToJson};
use het_models::{Dataset, EmbeddingModel};
use het_rng::rngs::StdRng;
use het_runtime::{ClusterRuntime, Process};

/// The outcome of one co-scheduled run: the training report and the
/// serving report, produced by the same event loop over the same PS.
#[derive(Clone, Debug)]
pub struct ColocatedReport {
    /// The trainer's side of the run.
    pub train: TrainReport,
    /// The serving fleet's side of the run.
    pub serve: ServeReport,
}

impl ToJson for ColocatedReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("train".to_string(), self.train.to_json()),
            ("serve".to_string(), self.serve.to_json()),
        ])
    }
}

/// Runs a trainer and a serving fleet to completion on one shared
/// [`ClusterRuntime`] and one PS fabric.
///
/// Build the trainer with [`Trainer::with_cluster`] passing
/// [`ServeConfig::fleet_size`] as the extra member count, so the
/// cluster's fault plan covers the whole fleet. The serve config's
/// `n_shards` and `faults` are superseded by the shared fabric and plan;
/// its `dim` must match the trainer's.
///
/// The run ends when the trainer has finished *and* every request has
/// been served (the loop drains both jobs' events).
///
/// # Panics
/// Panics on a serve config [`ServeConfig::validate`] rejects, or whose
/// `dim` is not the trainer's.
pub fn run_colocated<TM, D, SM>(
    mut trainer: Trainer<TM, D>,
    mut serve_cfg: ServeConfig,
    serve_model_fn: impl Fn(&mut StdRng) -> SM,
) -> ColocatedReport
where
    TM: EmbeddingModel,
    D: Dataset<Batch = TM::Batch>,
    SM: EmbeddingModel<Batch = CtrBatch>,
{
    let server = trainer.server_handle();
    // The fleet reads the trainer's live table; its shard count is a
    // property of that fabric, not of the serve config.
    serve_cfg.n_shards = server.n_shards();
    serve_cfg
        .validate()
        .unwrap_or_else(|e| panic!("invalid serve config: {e}"));
    assert_eq!(
        serve_cfg.dim,
        server.dim(),
        "serve dim must match the trainer's PS fabric"
    );
    let plan = trainer.plan().clone();
    let sim = ServeSim::assemble(
        serve_cfg,
        server,
        plan.clone(),
        trainer.n_workers(),
        serve_model_fn,
    );
    let mut rt = ClusterRuntime::new(trainer.tie_break(), plan);
    let mut prefetcher = trainer.register(&mut rt);
    let serve = {
        let mut head: Vec<&mut dyn Process> = vec![&mut trainer];
        head.extend(prefetcher.as_mut().map(|p| p as &mut dyn Process));
        sim.run_after(rt, &mut head)
    };
    ColocatedReport {
        train: trainer.finalize(),
        serve,
    }
}
