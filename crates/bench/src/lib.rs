//! Experiment harness for the HET reproduction.
//!
//! Every table and figure of the paper's §5, every ablation and every
//! sweep added beside them is one row of [`EXPERIMENTS`] — a name, the
//! flags it reads, a function from those flags to [`Table`]s, sometimes
//! a gate — and [`run_experiment`] is the one runner: `hetctl exp
//! <name>` and `cargo bench -p het-bench` both go through it. This file
//! gives the rows one vocabulary: the six evaluated workloads and a
//! uniform way to run any (workload × system) pair at bench scale.
//! Records land in `target/experiments/<name>.json`; EXPERIMENTS.md sets
//! them beside the paper's numbers and DESIGN.md argues the
//! substitutions.

#![warn(missing_docs)]

mod args;
mod experiments;
mod paper;
mod sweeps;
mod table;

pub use args::{nearest, Args, TraceArgs, TRACE_FLAGS};
pub use experiments::{run_experiment, Experiment, EXPERIMENTS};
pub use table::{experiments_dir, target_dir, Table};

use het_core::config::{SystemPreset, TrainerConfig};
use het_core::{TrainReport, Trainer};
use het_data::{CtrConfig, CtrDataset, Graph, GraphConfig, NeighborSampler};
use het_models::{DeepCross, DeepFm, GnnDataset, GraphSage, WideDeep};

/// The paper's six evaluated workloads (§5: three DLRM models on Criteo,
/// GraphSAGE on three graphs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Wide&Deep on the Criteo-like CTR stream.
    WdlCriteo,
    /// DeepFM on the Criteo-like CTR stream.
    DfmCriteo,
    /// Deep&Cross on the Criteo-like CTR stream.
    DcnCriteo,
    /// GraphSAGE on the Reddit-like graph.
    GnnReddit,
    /// GraphSAGE on the Amazon-like graph.
    GnnAmazon,
    /// GraphSAGE on the ogbn-mag-like graph.
    GnnOgbnMag,
}

impl Workload {
    /// All six workloads in the paper's presentation order.
    pub const ALL: [Workload; 6] = [
        Workload::WdlCriteo,
        Workload::DfmCriteo,
        Workload::DcnCriteo,
        Workload::GnnReddit,
        Workload::GnnAmazon,
        Workload::GnnOgbnMag,
    ];

    /// The three DLRM workloads (used by Fig. 7).
    pub const DLRM: [Workload; 3] = [
        Workload::WdlCriteo,
        Workload::DfmCriteo,
        Workload::DcnCriteo,
    ];

    /// The paper's display name (the spelling is its `Display`).
    pub fn name(self) -> &'static str {
        match self {
            Workload::WdlCriteo => "WDL-Criteo",
            Workload::DfmCriteo => "DFM-Criteo",
            Workload::DcnCriteo => "DCN-Criteo",
            Workload::GnnReddit => "GNN-Reddit",
            Workload::GnnAmazon => "GNN-Amazon",
            Workload::GnnOgbnMag => "GNN-ogbn-mag",
        }
    }

    /// True for the CTR (AUC-metric) workloads.
    pub fn is_ctr(self) -> bool {
        matches!(
            self,
            Workload::WdlCriteo | Workload::DfmCriteo | Workload::DcnCriteo
        )
    }

    /// Number of embedding keys at bench scale (approximate for CTR,
    /// whose heterogeneous field profile rounds per field).
    pub fn n_keys(self) -> usize {
        match self {
            Workload::WdlCriteo | Workload::DfmCriteo | Workload::DcnCriteo => {
                het_data::ctr::scaled_criteo_vocabs(CTR_FIELDS * CTR_VOCAB)
                    .iter()
                    .sum()
            }
            Workload::GnnReddit => 40_000,
            Workload::GnnAmazon => 60_000,
            Workload::GnnOgbnMag => 50_000,
        }
    }

    /// A metric target for "time to quality" experiments (Table 1),
    /// calibrated per workload to a level every synchronous system
    /// reaches at bench scale — slightly below each task's plateau,
    /// analogous to the paper's AUC≈0.8 Criteo thresholds.
    pub fn target_metric(self) -> f64 {
        match self {
            Workload::WdlCriteo => 0.74,
            Workload::DfmCriteo => 0.62,
            Workload::DcnCriteo => 0.775,
            Workload::GnnReddit => 0.55,
            Workload::GnnAmazon => 0.30,
            Workload::GnnOgbnMag => 0.32,
        }
    }

    /// The grid-searched learning rate per workload (the paper grid
    /// searches a small set per task; our synthetic scales land on 0.05
    /// for WDL/DCN, 0.02 for DeepFM — whose quadratic FM term diverges
    /// at higher rates, especially under accumulated stale writes — and
    /// 0.6 for GraphSAGE's from-scratch node embeddings).
    pub fn learning_rate(self) -> f32 {
        match self {
            Workload::DfmCriteo => 0.02,
            Workload::WdlCriteo | Workload::DcnCriteo => 0.05,
            _ => 0.6,
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Workload::WdlCriteo => "wdl",
            Workload::DfmCriteo => "dfm",
            Workload::DcnCriteo => "dcn",
            Workload::GnnReddit => "reddit",
            Workload::GnnAmazon => "amazon",
            Workload::GnnOgbnMag => "mag",
        })
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.to_string() == s)
            .ok_or_else(|| {
                let names = Self::ALL.map(|w| w.to_string()).join(" ");
                format!("unknown workload '{s}' (try: {names})")
            })
    }
}

/// CTR workload scale shared by every experiment.
pub const CTR_FIELDS: usize = 26;
/// Vocabulary per categorical field at bench scale (52 000 total keys).
pub const CTR_VOCAB: usize = 2_000;

pub(crate) fn ctr_dataset(seed: u64) -> CtrDataset {
    let mut cfg = CtrConfig::criteo_like(seed);
    // Rescale the heterogeneous Criteo field profile to the bench key
    // budget.
    cfg.vocab_sizes = Some(het_data::ctr::scaled_criteo_vocabs(CTR_FIELDS * CTR_VOCAB));
    cfg.n_train = 50_000;
    cfg.n_test = 4_000;
    CtrDataset::new(cfg)
}

fn graph_dataset(workload: Workload, seed: u64) -> GnnDataset {
    // Paper regime: embedding table ≫ one batch's unique keys, so the
    // 10 % cache comfortably holds the hub working set.
    let cfg = match workload {
        Workload::GnnReddit => GraphConfig {
            n_nodes: 40_000,
            attach_m: 15,
            ..GraphConfig::reddit_like(seed)
        },
        Workload::GnnAmazon => GraphConfig {
            n_nodes: 60_000,
            attach_m: 6,
            ..GraphConfig::amazon_like(seed)
        },
        Workload::GnnOgbnMag => GraphConfig {
            n_nodes: 50_000,
            attach_m: 5,
            ..GraphConfig::ogbn_mag_like(seed)
        },
        _ => unreachable!("not a graph workload"),
    };
    GnnDataset::new(Graph::generate(cfg), NeighborSampler::degree_biased(8, 4))
}

/// The default bench-scale trainer configuration: the paper's cluster A
/// (8 workers, 1 server, 1 GbE), batch 128, D = 16.
pub fn bench_config(preset: SystemPreset) -> TrainerConfig {
    let mut config = TrainerConfig::cluster_a(preset);
    config.dim = 16;
    config.lr = 0.1;
    config.max_iterations = 2_400;
    config.eval_every = 400;
    config.eval_batches = 8;
    config
}

/// Builds `workload`'s trainer — its (dataset, model) pair at bench
/// scale under `preset`, with `tweak` editing the bench-scale config
/// (iterations, cluster, dim, cache, …) — binds it to `$t` and
/// evaluates `$run`. A macro because the four trainer types differ.
macro_rules! with_trainer {
    ($workload:expr, $preset:expr, $tweak:expr, |$t:ident| $run:expr) => {{
        let workload: Workload = $workload;
        let mut config = bench_config($preset);
        config.lr = workload.learning_rate();
        $tweak(&mut config);
        let dim = config.dim;
        match workload {
            Workload::WdlCriteo => {
                let mut $t = Trainer::new(config, ctr_dataset(0xC0), move |rng| {
                    WideDeep::new(rng, CTR_FIELDS, dim, &[64, 32])
                });
                $run
            }
            Workload::DfmCriteo => {
                let mut $t = Trainer::new(config, ctr_dataset(0xC1), move |rng| {
                    DeepFm::new(rng, CTR_FIELDS, dim, &[64, 32])
                });
                $run
            }
            Workload::DcnCriteo => {
                let mut $t = Trainer::new(config, ctr_dataset(0xC2), move |rng| {
                    DeepCross::new(rng, CTR_FIELDS, dim, 3, &[64, 32])
                });
                $run
            }
            Workload::GnnReddit | Workload::GnnAmazon | Workload::GnnOgbnMag => {
                let dataset = graph_dataset(workload, 0xD0 + workload.n_keys() as u64);
                let classes = dataset.graph().config().n_classes;
                let mut $t = Trainer::new(config, dataset, move |rng| {
                    GraphSage::new(rng, dim, 32, classes)
                });
                $run
            }
        }
    }};
}

/// Runs one (workload × system) pair on the simulator. `tweak` edits
/// the bench-scale config before the run.
pub fn run_workload(
    workload: Workload,
    preset: SystemPreset,
    tweak: &dyn Fn(&mut TrainerConfig),
) -> TrainReport {
    with_trainer!(workload, preset, tweak, |t| t.run())
}

/// [`run_workload`] with the observability layer switched on: the run
/// is collected into a [`het_trace::TraceLog`] (JSONL / Chrome
/// exportable) alongside the normal report. The trace carries the
/// workload and system names plus the config seed as metadata, so a
/// fixture file is self-describing. Tracing is scoped to this call —
/// it is started here and torn down before returning, leaving the
/// thread's trace state as it was.
pub fn run_workload_traced(
    workload: Workload,
    preset: SystemPreset,
    tweak: &dyn Fn(&mut TrainerConfig),
) -> (TrainReport, het_trace::TraceLog) {
    let mut probe = bench_config(preset);
    tweak(&mut probe);
    het_trace::start(vec![
        (
            "workload".to_string(),
            het_json::Json::Str(workload.name().to_string()),
        ),
        (
            "system".to_string(),
            het_json::Json::Str(probe.system.name.to_string()),
        ),
        ("seed".to_string(), het_json::Json::UInt(probe.seed)),
    ]);
    let report = run_workload(workload, preset, tweak);
    let log = het_trace::finish();
    (report, log)
}

/// [`run_workload`] on the threaded execution backend: the same
/// (workload × system) pair run through [`Trainer::run_threaded`] on
/// real OS threads (one per configured worker). Returns the
/// [`TrainReport`] — the sim's schema, with `backend` `threads:<n>`,
/// host `wall_ns` and the modelled-time fields zero — plus the resolved
/// config, so callers can hand the trace to `het-oracle` with a
/// matching `OracleSpec`. Pass `trace_meta` to collect a per-thread
/// merged trace into the report; `None` skips tracing entirely.
pub fn run_workload_threaded(
    workload: Workload,
    preset: SystemPreset,
    tweak: &dyn Fn(&mut TrainerConfig),
    trace_meta: Option<Vec<(String, het_json::Json)>>,
) -> Result<(TrainReport, TrainerConfig), String> {
    with_trainer!(workload, preset, tweak, |t| Ok((
        t.run_threaded(trace_meta)?,
        t.config().clone()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_and_targets() {
        assert_eq!(Workload::ALL.len(), 6);
        for w in Workload::ALL {
            assert!(!w.name().is_empty());
            assert!(w.target_metric() > 0.0);
            assert!(w.n_keys() > 0);
        }
        assert!(Workload::WdlCriteo.is_ctr());
        assert!(!Workload::GnnReddit.is_ctr());
    }

    #[test]
    fn workloads_read_their_spelling_back() {
        for w in Workload::ALL {
            assert_eq!(w.to_string().parse(), Ok(w), "{w}");
        }
        assert!("WDL-Criteo".parse::<Workload>().is_err());
    }

    #[test]
    fn smoke_run_every_workload() {
        // One very short run per workload to keep the harness honest.
        for w in Workload::ALL {
            let report = run_workload(w, SystemPreset::HetCache { staleness: 100 }, &|c| {
                c.max_iterations = 32;
                c.eval_every = 32;
                c.cluster = het_simnet::ClusterSpec::cluster_a(4, 1);
            });
            assert!(report.total_iterations >= 32, "{}", w.name());
            assert!(report.final_metric.is_finite(), "{}", w.name());
        }
    }
}
