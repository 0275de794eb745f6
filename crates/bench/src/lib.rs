//! Shared experiment harness for the paper-reproduction benches.
//!
//! Every table and figure of the paper's §5 has a bench target in
//! `benches/` (registered with `harness = false`, so `cargo bench`
//! regenerates all of them). This library gives those targets one
//! vocabulary: the six evaluated workloads, a uniform way to run any
//! (workload × system) pair at bench scale, table printing, and JSON
//! output under `target/experiments/`.
//!
//! Scales are reduced from the paper (no GPU cluster here — the
//! simulated cluster preserves the *shape*: who wins and by what
//! factor). See DESIGN.md for the substitution argument and
//! EXPERIMENTS.md for paper-vs-measured numbers.

#![warn(missing_docs)]

pub mod micro;

use het_core::config::{SystemPreset, TrainerConfig};
use het_core::{TrainReport, Trainer};
use het_data::{CtrConfig, CtrDataset, Graph, GraphConfig, NeighborSampler};
use het_json::{impl_to_json, ToJson};
use het_models::{DeepCross, DeepFm, GnnDataset, GraphSage, WideDeep};
use het_simnet::SimDuration;
use std::path::PathBuf;

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

    /// The paper's display name.
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

/// CTR workload scale shared by every bench.
pub const CTR_FIELDS: usize = 26;
/// Vocabulary per categorical field at bench scale (52 000 total keys).
pub const CTR_VOCAB: usize = 2_000;

fn ctr_dataset(seed: u64) -> CtrDataset {
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
/// [`het_core::ParallelReport`] plus the resolved config, so callers
/// can hand the trace to `het-oracle` with a matching `OracleSpec`.
/// Pass `trace_meta` to collect a per-thread merged trace; `None`
/// skips tracing entirely.
pub fn run_workload_threaded(
    workload: Workload,
    preset: SystemPreset,
    tweak: &dyn Fn(&mut TrainerConfig),
    trace_meta: Option<Vec<(String, het_json::Json)>>,
) -> Result<(het_core::ParallelReport, TrainerConfig), String> {
    with_trainer!(workload, preset, tweak, |t| Ok((
        t.run_threaded(trace_meta)?,
        t.config().clone()
    )))
}

/// The systems compared throughout §5, in the paper's order.
pub fn evaluated_systems() -> Vec<(&'static str, SystemPreset)> {
    vec![
        ("TF PS", SystemPreset::TfPs),
        ("TF Parallax", SystemPreset::TfParallax),
        ("HET PS", SystemPreset::HetPs),
        ("HET AR", SystemPreset::HetAr),
        ("HET Hybrid", SystemPreset::HetHybrid),
        ("HET Cache s=10", SystemPreset::HetCache { staleness: 10 }),
        ("HET Cache s=100", SystemPreset::HetCache { staleness: 100 }),
    ]
}

/// Output helpers: experiment JSON lands in `target/experiments/`.
pub mod out {
    use super::*;

    /// The directory experiment records are written to.
    pub fn experiments_dir() -> PathBuf {
        let target = std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
        let dir = PathBuf::from(target).join("experiments");
        std::fs::create_dir_all(&dir).expect("create experiments dir");
        dir
    }

    /// Serialises `value` as `<name>.json` under the experiments dir.
    pub fn write_json<T: ToJson>(name: &str, value: &T) {
        let path = experiments_dir().join(format!("{name}.json"));
        let json = het_json::to_string_pretty(value);
        std::fs::write(&path, json).expect("write experiment json");
        eprintln!("[experiment json] {}", path.display());
    }

    /// Prints a banner naming the figure/table being regenerated.
    pub fn banner(title: &str) {
        println!("\n{}", "=".repeat(76));
        println!("{title}");
        println!("{}\n", "=".repeat(76));
    }
}

/// A serialisable summary row used by several benches.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Workload display name.
    pub workload: String,
    /// System display name.
    pub system: String,
    /// Total simulated seconds.
    pub sim_time_s: f64,
    /// Simulated seconds per epoch.
    pub epoch_time_s: f64,
    /// Final metric (AUC or accuracy).
    pub final_metric: f64,
    /// Embedding bytes moved.
    pub embedding_bytes: u64,
    /// Cache hit rate (0 for cache-less systems).
    pub cache_hit_rate: f64,
    /// Fraction of accounted time spent communicating.
    pub comm_fraction: f64,
    /// Simulated seconds to the workload's target metric, if reached.
    pub time_to_target_s: Option<f64>,
}

impl_to_json!(RunSummary {
    workload,
    system,
    sim_time_s,
    epoch_time_s,
    final_metric,
    embedding_bytes,
    cache_hit_rate,
    comm_fraction,
    time_to_target_s,
});

impl RunSummary {
    /// Builds a summary row from a report.
    pub fn from_report(workload: Workload, system: &str, report: &TrainReport) -> Self {
        RunSummary {
            workload: workload.name().to_string(),
            system: system.to_string(),
            sim_time_s: report.total_sim_time.as_secs_f64(),
            epoch_time_s: report.epoch_time(),
            final_metric: report.final_metric,
            embedding_bytes: report.comm.embedding_bytes(),
            cache_hit_rate: report.cache.hit_rate(),
            comm_fraction: report.breakdown.communication_fraction(),
            time_to_target_s: report.convergence_time(),
        }
    }
}

/// One row of the lookahead-depth sweep (`hetctl prefetch-sweep`): the
/// remote-PS CTR workload re-run at one prefetch depth, everything else
/// held fixed.
#[derive(Clone, Debug)]
pub struct PrefetchSweepRow {
    /// Prefetch lookahead depth (0 = the demand-only legacy path).
    pub depth: u64,
    /// Total simulated seconds.
    pub sim_time_s: f64,
    /// Simulated microseconds per training iteration (cycle time).
    pub cycle_time_us: f64,
    /// Cycle-time speedup vs the depth-0 row of the same sweep.
    pub speedup_vs_demand: f64,
    /// Cache hit rate of the run.
    pub cache_hit_rate: f64,
    /// Lookahead pulls landed in worker caches.
    pub prefetch_installs: u64,
    /// Reads served by a not-yet-consumed prefetched entry.
    pub prefetch_hits: u64,
    /// Prefetched entries displaced before ever serving a read.
    pub prefetch_wasted: u64,
}

impl_to_json!(PrefetchSweepRow {
    depth,
    sim_time_s,
    cycle_time_us,
    speedup_vs_demand,
    cache_hit_rate,
    prefetch_installs,
    prefetch_hits,
    prefetch_wasted,
});

/// Runs the lookahead-depth sweep on the paper's Fig. 2 shape — the
/// Wide&Deep CTR workload against a remote PS over cluster A's 1 GbE —
/// one training run per depth. The first depth must be 0: that row is
/// the demand-only baseline every speedup is measured against. Deeper
/// lookahead can only add overlap, so cycle time must come out
/// monotonically non-increasing in depth (the CI smoke gates on it).
pub fn prefetch_sweep(depths: &[u64], iters: u64) -> Vec<PrefetchSweepRow> {
    prefetch_sweep_with(depths, iters, &|_| {})
}

/// The sweep's workload recipe: the Fig. 2 deployment — one worker
/// with the whole embedding table on a remote PS over 1 GbE — upgraded
/// to an accelerator-class worker, so compute is fast and the cycle is
/// transfer-bound (the paper's motivating regime, where the GPU
/// starves on embedding fetch). The cache is sized small relative to
/// the Criteo hot set so demand misses dominate the depth-0 baseline,
/// which is exactly what lookahead can overlap away.
fn fig2_sweep_config(
    c: &mut TrainerConfig,
    iters: u64,
    depth: u64,
    extra: &dyn Fn(&mut TrainerConfig),
) {
    c.cluster = het_simnet::ClusterSpec::cluster_b(1, 1);
    c.cluster.worker_server = het_simnet::LinkSpec::ethernet_1gbit();
    // At D = 128 / batch 128 the dense kernels are large enough to run
    // near the card's real throughput rather than the
    // launch-overhead-bound rate cluster A/B model for tiny kernels.
    c.cluster.worker_flops = 1.0e12;
    // The huge-embedding-model regime the paper targets: wide rows make
    // the demand-fetch leg dwarf the clock-validation leg (per key,
    // (24 + 4 D) fetched bytes vs 32 clock bytes), which is what
    // lookahead can actually hide.
    c.dim = 128;
    *c = c
        .clone()
        .with_cache(0.05, het_cache::PolicyKind::light_lfu());
    c.max_iterations = iters;
    c.eval_every = iters;
    extra(c);
    c.lookahead_depth = depth;
}

/// One traced run of the sweep recipe at a single depth — the source of
/// the Chrome-exportable timeline where the `prefetch_issue` transfer
/// spans visibly overlap the `compute` spans.
pub fn prefetch_sweep_traced(depth: u64, iters: u64) -> (TrainReport, het_trace::TraceLog) {
    run_workload_traced(
        Workload::WdlCriteo,
        SystemPreset::HetCache { staleness: 100 },
        &|c| fig2_sweep_config(c, iters, depth, &|_| {}),
    )
}

/// [`prefetch_sweep`] with an extra config hook applied after the sweep
/// recipe (exposed so `hetctl prefetch-sweep` can vary dim, batch,
/// cluster, … without a recompile).
pub fn prefetch_sweep_with(
    depths: &[u64],
    iters: u64,
    extra: &dyn Fn(&mut TrainerConfig),
) -> Vec<PrefetchSweepRow> {
    assert!(
        depths.first() == Some(&0),
        "sweep must start at the depth-0 demand-only baseline"
    );
    let mut rows: Vec<PrefetchSweepRow> = Vec::new();
    for &depth in depths {
        let report = run_workload(
            Workload::WdlCriteo,
            SystemPreset::HetCache { staleness: 100 },
            &|c| fig2_sweep_config(c, iters, depth, extra),
        );
        let cycle_time_us =
            report.total_sim_time.as_secs_f64() * 1e6 / report.total_iterations.max(1) as f64;
        let base = rows.first().map_or(cycle_time_us, |r| r.cycle_time_us);
        rows.push(PrefetchSweepRow {
            depth,
            sim_time_s: report.total_sim_time.as_secs_f64(),
            cycle_time_us,
            speedup_vs_demand: base / cycle_time_us,
            cache_hit_rate: report.cache.hit_rate(),
            prefetch_installs: report.cache.prefetch_installs,
            prefetch_hits: report.cache.prefetch_hits,
            prefetch_wasted: report.cache.prefetch_wasted,
        });
    }
    rows
}

/// One row of the thread-scaling sweep (`hetctl scale-sweep`): one
/// recipe run at one `--backend threads:<n>` width, beside the
/// simulator's run of the very same `n`-worker job. Unlike every other
/// sweep in this crate the numbers here are **wall-clock**, so they
/// vary run to run and with the host's core count — the sweep measures
/// the machine, not the model.
#[derive(Clone, Debug)]
pub struct ScaleSweepRow {
    /// The recipe's name: `wdl` or `reddit`.
    pub recipe: String,
    /// Worker-thread count of this run.
    pub threads: u64,
    /// Training iterations completed (all runs complete the recipe).
    pub iterations: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Training iterations per wall-clock second.
    pub ops_per_sec: f64,
    /// Wall-clock microseconds per training iteration (cycle time).
    pub cycle_time_us: f64,
    /// Throughput relative to the recipe's `threads = 1` row. A wider
    /// row is a *bigger job* (more workers), so this mixes scaling with
    /// the change of job; `speedup_vs_sim` does not.
    pub speedup_vs_one: f64,
    /// Iterations per wall-clock second of the sim twin: the same
    /// `threads`-worker job on the single-threaded simulator (which
    /// also pays its end-of-run flush and final evaluation, ~1 % at 240
    /// iterations).
    pub sim_ops_per_sec: f64,
    /// `ops_per_sec / sim_ops_per_sec`: what the threads bought on an
    /// identical job.
    pub speedup_vs_sim: f64,
}

impl_to_json!(ScaleSweepRow {
    recipe,
    threads,
    iterations,
    wall_s,
    ops_per_sec,
    cycle_time_us,
    speedup_vs_one,
    sim_ops_per_sec,
    speedup_vs_sim,
});

/// The sweep's recipes, `(name, workload, embedding dim)`, both behind
/// the HET cache (10 %, LightLFU, s = 100) under BSP — every width on
/// the sim-identical convergence path: the paper's Fig. 2 CTR
/// deployment (Wide&Deep over Criteo-like data), bound by dense
/// compute, and GraphSAGE over the Reddit-shaped graph, bound by the
/// sparse path (thousands of cache misses and evictions a step).
const SCALE_SWEEP_RECIPES: [(&str, Workload, usize); 2] = [
    ("wdl", Workload::WdlCriteo, 32),
    ("reddit", Workload::GnnReddit, 16),
];

/// A scale-sweep recipe's configuration, with the cluster resized to
/// `threads` workers so the threaded backend runs one OS thread per
/// worker.
fn scale_sweep_config(c: &mut TrainerConfig, iters: u64, threads: usize, dim: usize) {
    c.cluster = het_simnet::ClusterSpec::cluster_a(threads, 1);
    c.dim = dim;
    *c = c
        .clone()
        .with_cache(0.10, het_cache::PolicyKind::light_lfu());
    c.max_iterations = iters;
    c.eval_every = iters;
    c.lookahead_depth = 0;
}

/// Runs the thread-scaling sweep: per recipe and per entry of
/// `threads_list` (the first entry must be 1 — that row is the baseline
/// `speedup_vs_one` is measured against), one threaded training run and
/// one simulator run of the same job, `iters` iterations each.
pub fn scale_sweep(threads_list: &[usize], iters: u64) -> Result<Vec<ScaleSweepRow>, String> {
    if threads_list.first() != Some(&1) {
        return Err("scale-sweep must start at the threads:1 baseline".to_string());
    }
    let preset = SystemPreset::HetCache { staleness: 100 };
    let mut rows: Vec<ScaleSweepRow> = Vec::new();
    for (recipe, workload, dim) in SCALE_SWEEP_RECIPES {
        let mut one = None;
        for &threads in threads_list {
            let tweak = |c: &mut TrainerConfig| scale_sweep_config(c, iters, threads, dim);
            let (report, _) = run_workload_threaded(workload, preset, &tweak, None)?;
            let sim_ops_per_sec = with_trainer!(workload, preset, tweak, |t| {
                let start = std::time::Instant::now();
                let sim = t.run();
                sim.total_iterations as f64 / start.elapsed().as_secs_f64()
            });
            let wall_s = report.wall_ns as f64 / 1e9;
            let cycle_time_us = report.wall_ns as f64 / 1e3 / report.total_iterations.max(1) as f64;
            rows.push(ScaleSweepRow {
                recipe: recipe.to_string(),
                threads: threads as u64,
                iterations: report.total_iterations,
                wall_s,
                ops_per_sec: report.ops_per_sec,
                cycle_time_us,
                speedup_vs_one: report.ops_per_sec / *one.get_or_insert(report.ops_per_sec),
                sim_ops_per_sec,
                speedup_vs_sim: report.ops_per_sec / sim_ops_per_sec,
            });
        }
    }
    Ok(rows)
}

/// The CI gate over a scale sweep: on each recipe the `threads = 2` run
/// must reach at least `threshold ×` the throughput of its sim twin —
/// the same two-worker job on one thread. With two cores the threshold
/// is 1.0 (threads must not lose to the simulator); single-core CI
/// boxes pass a tolerance < 1 instead, because two time-sliced threads
/// can only add coordination overhead there — `ci.sh` picks the
/// threshold from `nproc`.
pub fn scale_sweep_gate(rows: &[ScaleSweepRow], threshold: f64) -> Result<(), String> {
    for (recipe, ..) in SCALE_SWEEP_RECIPES {
        let two = rows
            .iter()
            .find(|r| r.recipe == recipe && r.threads == 2)
            .ok_or(format!("scale-sweep gate: no threads:2 row for {recipe}"))?;
        if two.speedup_vs_sim < threshold {
            return Err(format!(
                "scale-sweep gate: {recipe} on threads:2 ran at {:.1} ops/s, below \
                 {threshold:.2} x its sim twin ({:.1} ops/s)",
                two.ops_per_sec, two.sim_ops_per_sec
            ));
        }
    }
    Ok(())
}

/// One row of the tiered-store sweep (`hetctl store-sweep`): the same
/// CTR-shaped Zipf key stream driven against one row-store backend at
/// paper-scale key spaces (10⁷–10⁸), charting the memory-vs-disk
/// crossover the tiered store exists for. `modelled_ms` is the
/// simulated time the stream's PS leg would carry (always 0 for the
/// flat store, which has no I/O model); `resident_mb` is the estimated
/// host memory the backend's resident rows pin.
#[derive(Clone, Debug)]
pub struct StoreSweepRow {
    /// Backend label (`mem` or `tiered:<hot_rows>`).
    pub backend: String,
    /// Hot-tier row budget (0 for the flat store).
    pub hot_rows: u64,
    /// Key-space size the Zipf stream draws from.
    pub n_keys: u64,
    /// Operations driven (each is a pull or a read-modify-write push).
    pub ops: u64,
    /// Distinct keys materialised by the stream.
    pub distinct_keys: u64,
    /// Rows resident in memory at the end of the stream.
    pub resident_rows: u64,
    /// Estimated resident-row memory in MiB (rows × per-row bytes).
    pub resident_mb: f64,
    /// Fraction of accesses served without touching the cold tier.
    pub hot_hit_rate: f64,
    /// Modelled disk milliseconds accrued by the stream.
    pub io_ms: f64,
    /// Cold-tier bytes read (promotions + compaction), MiB.
    pub cold_read_mb: f64,
    /// Cold-tier bytes written (demotions + compaction), MiB.
    pub cold_write_mb: f64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Host wall-clock milliseconds for the stream (honesty metric —
    /// hardware-dependent, not part of any determinism contract).
    pub wall_ms: f64,
}

impl_to_json!(StoreSweepRow {
    backend,
    hot_rows,
    n_keys,
    ops,
    distinct_keys,
    resident_rows,
    resident_mb,
    hot_hit_rate,
    io_ms,
    cold_read_mb,
    cold_write_mb,
    compactions,
    wall_ms,
});

/// Estimated resident bytes for one row: vector payload plus map-entry
/// overhead (key, clock, `Vec` headers, hash bucket).
fn row_bytes(dim: usize) -> u64 {
    (dim * 4 + 96) as u64
}

/// O(1)-memory approximate Zipf rank over `{0, …, n−1}` with exponent
/// `s > 0, s ≠ 1`: the inverse CDF of the continuous bounded power law
/// on `[1, n+1]`. The exact tabulated sampler
/// ([`het_data::ZipfSampler`]) builds an O(n) table — 800 MB at the
/// sweep's 10⁸-key top end — which would defeat a bench whose point is
/// bounded memory.
fn zipf_rank(u: f64, n: u64, s: f64) -> u64 {
    let top = (n + 1) as f64;
    let x = (1.0 + u * (top.powf(1.0 - s) - 1.0)).powf(1.0 / (1.0 - s));
    ((x as u64).saturating_sub(1)).min(n - 1)
}

/// Drives one backend with the sweep's deterministic CTR-shaped stream:
/// Zipf-popular keys (the paper's Fig. 3 skew), three read-modify-write
/// pushes per pull — a training-shaped mix where the working set far
/// exceeds any sane hot budget.
fn store_sweep_cell(
    backend: String,
    hot_rows: u64,
    store: &mut dyn het_ps::RowStore,
    n_keys: u64,
    ops: u64,
    dim: usize,
) -> StoreSweepRow {
    use het_rng::rngs::StdRng;
    use het_rng::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x0005_702E_0001);
    let started = std::time::Instant::now();
    let mut io_ns: u64 = 0;
    for i in 0..ops {
        let key = zipf_rank(rng.gen::<f64>(), n_keys, 1.1);
        if i % 4 == 0 {
            // A pull: read access, may promote, never dirties.
            let hit = store.get(key).is_some();
            if !hit {
                store.apply(
                    key,
                    &mut || het_ps::StoredRow {
                        vector: vec![0.0; dim],
                        clock: 0,
                        opt_state: Vec::new(),
                    },
                    &mut |_| {},
                );
            }
        } else {
            // A push: read-modify-write, dirties the row.
            store.apply(
                key,
                &mut || het_ps::StoredRow {
                    vector: vec![0.0; dim],
                    clock: 0,
                    opt_state: Vec::new(),
                },
                &mut |row| {
                    for v in &mut row.vector {
                        *v += 0.01;
                    }
                    row.clock += 1;
                },
            );
        }
        io_ns += store.take_io_ns();
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = store.stats();
    StoreSweepRow {
        backend,
        hot_rows,
        n_keys,
        ops,
        distinct_keys: store.len() as u64,
        resident_rows: store.resident_rows() as u64,
        resident_mb: (store.resident_rows() as u64 * row_bytes(dim)) as f64 / (1 << 20) as f64,
        hot_hit_rate: stats.hot_hit_rate(),
        io_ms: io_ns as f64 / 1e6,
        cold_read_mb: stats.cold_read_bytes as f64 / (1 << 20) as f64,
        cold_write_mb: stats.cold_write_bytes as f64 / (1 << 20) as f64,
        compactions: stats.compactions,
        wall_ms,
    }
}

/// Runs the store sweep: the flat in-memory baseline plus one tiered
/// cell per hot budget, all fed the identical key stream. `spill_dir`
/// gives the tiered cells a real on-disk cold tier (`None` keeps
/// segments in memory — fine for small sweeps, unbounded for 10⁸-key
/// ones).
pub fn store_sweep(
    n_keys: u64,
    ops: u64,
    hot_budgets: &[u64],
    dim: usize,
    spill_dir: Option<std::path::PathBuf>,
) -> Vec<StoreSweepRow> {
    let mut rows = Vec::new();
    let mut mem = het_ps::StoreSpec::Mem.build_shard(dim, 0, 1);
    rows.push(store_sweep_cell(
        "mem".to_string(),
        0,
        mem.as_mut(),
        n_keys,
        ops,
        dim,
    ));
    drop(mem);
    for &hot in hot_budgets {
        let mut cfg = het_ps::TieredConfig::new(hot as usize);
        // Each cell spills into its own directory so reruns and other
        // budgets never replay each other's logs.
        cfg.dir = spill_dir.as_ref().map(|d| d.join(format!("hot-{hot}")));
        if let Some(d) = &cfg.dir {
            // A stale cold tier from an earlier sweep would be replayed
            // as recovery state; the sweep wants a cold start.
            let _ = std::fs::remove_dir_all(d);
        }
        let spec = het_ps::StoreSpec::Tiered(cfg);
        let mut store = spec.build_shard(dim, 0, 1);
        rows.push(store_sweep_cell(
            format!("tiered:{hot}"),
            hot,
            store.as_mut(),
            n_keys,
            ops,
            dim,
        ));
    }
    rows
}

/// The CI gate over a store sweep: every tiered cell must have kept its
/// resident set within budget (bounded memory is the whole point), hit
/// the hot tier at or above `hit_floor` (the Zipf hot set must fit),
/// and actually exercised the cold tier; the flat baseline must accrue
/// zero modelled disk time.
pub fn store_sweep_gate(rows: &[StoreSweepRow], hit_floor: f64) -> Result<(), String> {
    let mem = rows
        .iter()
        .find(|r| r.backend == "mem")
        .ok_or("store-sweep gate: no mem baseline row")?;
    if mem.io_ms != 0.0 {
        return Err(format!(
            "store-sweep gate: flat store accrued {} ms of disk time",
            mem.io_ms
        ));
    }
    for r in rows.iter().filter(|r| r.hot_rows > 0) {
        if r.resident_rows > r.hot_rows {
            return Err(format!(
                "store-sweep gate: {} holds {} resident rows over its {}-row budget",
                r.backend, r.resident_rows, r.hot_rows
            ));
        }
        if r.hot_hit_rate < hit_floor {
            return Err(format!(
                "store-sweep gate: {} hot hit rate {:.4} is below the {hit_floor:.2} floor",
                r.backend, r.hot_hit_rate
            ));
        }
        if r.distinct_keys > r.hot_rows && r.io_ms <= 0.0 {
            return Err(format!(
                "store-sweep gate: {} spilled ({} keys > {} hot) but accrued no disk time",
                r.backend, r.distinct_keys, r.hot_rows
            ));
        }
    }
    Ok(())
}

/// One leaderboard row of the eviction-policy shootout
/// (`hetctl policy-shootout`): one (scenario × policy) cell. Train
/// scenarios report cycle time and leave `p99_us` at 0; serve
/// scenarios report tail latency and leave `cycle_time_us` at 0.
#[derive(Clone, Debug)]
pub struct ShootoutRow {
    /// Scenario name (one of [`SHOOTOUT_SCENARIOS`]).
    pub scenario: String,
    /// Policy display name (`PolicyKind` Display).
    pub policy: String,
    /// Cache hit rate of the run — the gated metric.
    pub hit_rate: f64,
    /// Simulated microseconds per training iteration (train scenarios).
    pub cycle_time_us: f64,
    /// 99th-percentile request latency in microseconds (serve
    /// scenarios).
    pub p99_us: f64,
}

impl_to_json!(ShootoutRow {
    scenario,
    policy,
    hit_rate,
    cycle_time_us,
    p99_us,
});

/// The shootout scenario matrix: CTR vs GNN key distributions, the
/// prefetch staging region on, a faulted run, hot-set drift, and a
/// flash crowd — the regimes where eviction quality diverges.
pub const SHOOTOUT_SCENARIOS: [&str; 6] = [
    "ctr-train",
    "gnn-train",
    "ctr-train-prefetch",
    "ctr-train-faulted",
    "serve-drift",
    "serve-flash",
];

/// The contenders: the seven fixed policies plus the adaptive
/// meta-policy ([`het_cache::PolicyKind::ALL`]).
pub fn shootout_policies() -> [het_cache::PolicyKind; 8] {
    het_cache::PolicyKind::ALL
}

fn shootout_train_tweak(c: &mut TrainerConfig, iters: u64, policy: het_cache::PolicyKind) {
    c.cluster = het_simnet::ClusterSpec::cluster_a(2, 1);
    c.max_iterations = iters;
    c.eval_every = iters;
    // Small enough that capacity binds hard and eviction quality shows
    // up in the hit rate.
    *c = c.clone().with_cache(0.05, policy);
}

fn shootout_train(
    workload: Workload,
    policy: het_cache::PolicyKind,
    iters: u64,
    lookahead: u64,
    faulted: bool,
) -> TrainReport {
    let preset = SystemPreset::HetCache { staleness: 100 };
    let faults = if faulted {
        // Size the fault horizon from a clean probe, as the fuzzer and
        // golden-trace tests do, so the faults land inside the run.
        let probe = run_workload(workload, preset, &|c| {
            shootout_train_tweak(c, iters, policy);
            c.lookahead_depth = lookahead;
        });
        let mut f = het_core::FaultConfig::disabled();
        f.enabled = true;
        f.spec.worker_crashes = 2;
        f.spec.shard_outages = 1;
        f.spec.horizon = SimDuration::from_secs_f64(probe.total_sim_time.as_secs_f64() * 0.8);
        f.checkpoint_every = 20;
        f
    } else {
        het_core::FaultConfig::disabled()
    };
    run_workload(workload, preset, &|c| {
        shootout_train_tweak(c, iters, policy);
        c.lookahead_depth = lookahead;
        c.faults = faults.clone();
    })
}

fn shootout_serve(
    policy: het_cache::PolicyKind,
    requests: usize,
    drift: bool,
    flash: bool,
) -> het_serve::ServeReport {
    let mut cfg = het_serve::ServeConfig::tiny(0xD0_1177);
    cfg.policy = policy;
    cfg.n_requests = requests;
    cfg.n_keys = 1_200;
    cfg.cache_capacity = 150;
    if drift {
        // Rotate the Zipf rank→key mapping every 20 ms of simulated
        // time: the hot set walks and stale-frequency policies pay.
        cfg.drift_period = SimDuration::from_secs_f64(0.02);
        cfg.drift_step = 48;
    }
    if flash {
        // A 4× arrival burst over a small uniform hot subset, landing
        // mid-run.
        cfg.flash_at = Some(het_simnet::SimTime::ZERO + SimDuration::from_secs_f64(0.08));
        cfg.flash_duration = SimDuration::from_secs_f64(0.06);
        cfg.flash_factor = 4.0;
        cfg.flash_hot_keys = 64;
    }
    let (n_fields, dim) = (cfg.n_fields, cfg.dim);
    het_serve::ServeSim::new(cfg, move |rng| {
        het_models::WideDeep::new(rng, n_fields, dim, &[32])
    })
    .run()
}

fn shootout_cell(
    scenario: &str,
    policy: het_cache::PolicyKind,
    iters: u64,
    requests: usize,
) -> ShootoutRow {
    let (hit_rate, cycle_time_us, p99_us) = match scenario {
        "ctr-train" => {
            let r = shootout_train(Workload::WdlCriteo, policy, iters, 0, false);
            (r.cache.hit_rate(), cycle_us(&r), 0.0)
        }
        "gnn-train" => {
            let r = shootout_train(Workload::GnnReddit, policy, iters, 0, false);
            (r.cache.hit_rate(), cycle_us(&r), 0.0)
        }
        "ctr-train-prefetch" => {
            let r = shootout_train(Workload::WdlCriteo, policy, iters, 4, false);
            (r.cache.hit_rate(), cycle_us(&r), 0.0)
        }
        "ctr-train-faulted" => {
            let r = shootout_train(Workload::WdlCriteo, policy, iters, 0, true);
            (r.cache.hit_rate(), cycle_us(&r), 0.0)
        }
        "serve-drift" => {
            let r = shootout_serve(policy, requests, true, false);
            (r.cache.hit_rate(), 0.0, r.latency_p99_ns as f64 / 1e3)
        }
        "serve-flash" => {
            let r = shootout_serve(policy, requests, false, true);
            (r.cache.hit_rate(), 0.0, r.latency_p99_ns as f64 / 1e3)
        }
        other => unreachable!("unknown shootout scenario {other}"),
    };
    ShootoutRow {
        scenario: scenario.to_string(),
        policy: policy.to_string(),
        hit_rate,
        cycle_time_us,
        p99_us,
    }
}

fn cycle_us(report: &TrainReport) -> f64 {
    report.total_sim_time.as_secs_f64() * 1e6 / report.total_iterations.max(1) as f64
}

/// Runs the full policy shootout: every scenario in
/// [`SHOOTOUT_SCENARIOS`] × every policy in [`shootout_policies`],
/// returning one leaderboard row per cell. `iters` sizes the train
/// scenarios, `requests` the serve scenarios.
pub fn policy_shootout(iters: u64, requests: usize) -> Vec<ShootoutRow> {
    let mut rows = Vec::new();
    for scenario in SHOOTOUT_SCENARIOS {
        for policy in shootout_policies() {
            rows.push(shootout_cell(scenario, policy, iters, requests));
        }
    }
    rows
}

/// The CI gate over a shootout leaderboard: on every scenario the
/// adaptive meta-policy's hit rate must come within `margin` (absolute
/// hit-rate points, default 0.05) of the best fixed policy. A policy
/// that had to be picked by hand would silently rot as workloads
/// drift; this bound proves the switcher tracks the winner.
pub fn shootout_gate(rows: &[ShootoutRow], margin: f64) -> Result<(), String> {
    for scenario in SHOOTOUT_SCENARIOS {
        let cells: Vec<&ShootoutRow> = rows.iter().filter(|r| r.scenario == scenario).collect();
        let adaptive = cells
            .iter()
            .find(|r| r.policy == "Adaptive")
            .ok_or_else(|| format!("gate: no adaptive row for scenario {scenario}"))?;
        let best_fixed = cells
            .iter()
            .filter(|r| r.policy != "Adaptive")
            .max_by(|a, b| a.hit_rate.total_cmp(&b.hit_rate))
            .ok_or_else(|| format!("gate: no fixed rows for scenario {scenario}"))?;
        if adaptive.hit_rate + margin < best_fixed.hit_rate {
            return Err(format!(
                "policy-shootout gate: scenario {scenario}: adaptive hit rate {:.4} \
                 is more than {margin:.2} below best fixed ({} at {:.4})",
                adaptive.hit_rate, best_fixed.policy, best_fixed.hit_rate
            ));
        }
    }
    Ok(())
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

    #[test]
    fn store_sweep_is_deterministic_and_gated() {
        let a = store_sweep(100_000, 24_000, &[512, 4_096], 16, None);
        let b = store_sweep(100_000, 24_000, &[512, 4_096], 16, None);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            // Everything but host wall time must reproduce exactly.
            assert_eq!(x.backend, y.backend);
            assert_eq!(x.distinct_keys, y.distinct_keys);
            assert_eq!(x.resident_rows, y.resident_rows);
            assert_eq!(x.hot_hit_rate, y.hot_hit_rate);
            assert_eq!(x.io_ms, y.io_ms);
            assert_eq!(x.cold_read_mb, y.cold_read_mb);
            assert_eq!(x.compactions, y.compactions);
        }
        store_sweep_gate(&a, 0.5).expect("gate");
        // The crossover shape: both tiered cells bound memory below the
        // flat baseline, and the larger hot budget pays less disk.
        let (mem, small, large) = (&a[0], &a[1], &a[2]);
        assert_eq!(mem.io_ms, 0.0);
        assert!(small.resident_rows < mem.resident_rows);
        assert!(large.resident_rows < mem.resident_rows);
        assert!(
            small.io_ms > large.io_ms,
            "{} <= {}",
            small.io_ms,
            large.io_ms
        );
        assert!(small.hot_hit_rate < large.hot_hit_rate);
    }

    #[test]
    fn summary_row_from_report() {
        let report = run_workload(Workload::WdlCriteo, SystemPreset::HetHybrid, &|c| {
            c.max_iterations = 16;
            c.eval_every = 16;
            c.cluster = het_simnet::ClusterSpec::cluster_a(2, 1);
        });
        let row = RunSummary::from_report(Workload::WdlCriteo, "HET Hybrid", &report);
        assert_eq!(row.workload, "WDL-Criteo");
        assert!(row.sim_time_s > 0.0);
        assert_eq!(row.cache_hit_rate, 0.0);
    }
}
