//! The sweeps added beside the paper's §5 — lookahead depth, thread
//! scaling, tiered-store crossover, eviction-policy shootout — each one
//! run function producing a [`Table`] and one gate over that table.
//! They are rows of [`crate::EXPERIMENTS`]; nothing here prints.

use crate::{
    experiments_dir, run_workload, run_workload_threaded, run_workload_traced, Args, Table,
    TraceArgs, Workload,
};
use het_cache::PolicyKind;
use het_core::config::{SystemPreset, TrainerConfig};
use het_core::TrainReport;
use het_simnet::SimDuration;

const HET_CACHE_100: SystemPreset = SystemPreset::HetCache { staleness: 100 };

/// Rejects a zero among user-supplied counts that size a run.
fn positive(flag: &str, values: &[u64]) -> Result<(), String> {
    if values.contains(&0) {
        return Err(format!("--{flag} must be positive"));
    }
    Ok(())
}

fn cycle_us(report: &TrainReport) -> f64 {
    report.total_sim_time.as_secs_f64() * 1e6 / report.total_iterations.max(1) as f64
}

/// The prefetch sweep's recipe: the Fig. 2 deployment — one worker
/// with the whole embedding table on a remote PS over 1 GbE — upgraded
/// to an accelerator-class worker, so compute is fast and the cycle is
/// transfer-bound (the paper's motivating regime, where the GPU
/// starves on embedding fetch). The cache is sized small relative to
/// the Criteo hot set so demand misses dominate the depth-0 baseline,
/// which is exactly what lookahead can overlap away.
fn prefetch_sweep_config(c: &mut TrainerConfig, iters: u64, depth: u64) {
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
    *c = c.clone().with_cache(0.05, PolicyKind::light_lfu());
    c.max_iterations = iters;
    c.eval_every = iters;
    c.lookahead_depth = depth;
}

/// `prefetch-sweep`: the recipe re-run at each `--depths` entry, all
/// else fixed. The first depth must be 0 — that row is the demand-only
/// baseline every speedup is measured against. With `--trace[-chrome]`
/// one extra traced run at `--trace-depth` (default: the deepest swept)
/// gives the timeline where `prefetch_issue` transfers overlap
/// `compute` spans.
pub(crate) fn prefetch_sweep(args: &Args) -> Result<Vec<Table>, String> {
    let iters: u64 = args.get_parsed("iters", 600)?;
    let depths: Vec<u64> = args.get_list("depths", vec![0, 1, 2, 4, 8])?;
    positive("iters", &[iters])?;
    if depths.first() != Some(&0) {
        return Err("prefetch-sweep must start at the depth-0 baseline".to_string());
    }
    let mut t = Table::new(
        "prefetch_sweep",
        "depth sim_time_s cycle_time_us speedup_vs_demand cache_hit_rate prefetch_installs \
         prefetch_hits prefetch_wasted",
    );
    let mut base = None;
    for &depth in &depths {
        let report = run_workload(Workload::WdlCriteo, HET_CACHE_100, &|c| {
            prefetch_sweep_config(c, iters, depth)
        });
        let cycle = cycle_us(&report);
        t.push(&[
            &depth,
            &report.total_sim_time.as_secs_f64(),
            &cycle,
            &(*base.get_or_insert(cycle) / cycle),
            &report.cache.hit_rate(),
            &report.cache.prefetch_installs,
            &report.cache.prefetch_hits,
            &report.cache.prefetch_wasted,
        ]);
    }
    let tracing = TraceArgs::of(args);
    if tracing.requested() {
        let depth: u64 = args.get_parsed("trace-depth", depths[depths.len() - 1])?;
        let (_, log) = run_workload_traced(Workload::WdlCriteo, HET_CACHE_100, &|c| {
            prefetch_sweep_config(c, iters, depth)
        });
        tracing.write(&log)?;
    }
    Ok(vec![t])
}

/// The `prefetch-sweep` gate: deeper lookahead can only add overlap, so
/// cycle time must be monotonically non-increasing in depth, and the
/// depth-4 row must cut cycle time by at least fraction `threshold` vs
/// depth 0.
pub(crate) fn prefetch_gate(tables: &[Table], threshold: f64) -> Result<String, String> {
    let t = &tables[0];
    for row in 1..t.rows.len() {
        let (prev, this) = (t.num(row - 1, "cycle_time_us"), t.num(row, "cycle_time_us"));
        if this > prev {
            return Err(format!(
                "cycle time is not monotonically non-increasing: depth {} ({this:.2} us) > \
                 depth {} ({prev:.2} us)",
                t.num(row, "depth"),
                t.num(row - 1, "depth"),
            ));
        }
    }
    let depth4 = (0..t.rows.len())
        .find(|&r| t.num(r, "depth") == 4.0)
        .ok_or("--gate needs a depth-4 row in the sweep")?;
    let reduction = 1.0 - t.num(depth4, "cycle_time_us") / t.num(0, "cycle_time_us");
    if reduction < threshold {
        return Err(format!(
            "depth-4 cycle-time reduction {:.1} % is below the {:.1} % gate",
            100.0 * reduction,
            100.0 * threshold
        ));
    }
    Ok(format!(
        "depth-4 cycle-time reduction {:.1} % >= {:.1} %, monotone in depth",
        100.0 * reduction,
        100.0 * threshold
    ))
}

/// The scale sweep's recipes, `(name, workload, embedding dim)`, both
/// behind the HET cache (10 %, LightLFU, s = 100) under BSP — every
/// width on the sim-identical convergence path: the paper's Fig. 2 CTR
/// deployment (Wide&Deep over Criteo-like data), bound by dense
/// compute, and GraphSAGE over the Reddit-shaped graph, bound by the
/// sparse path (thousands of cache misses and evictions a step).
const SCALE_SWEEP_RECIPES: [(&str, Workload, usize); 2] = [
    ("wdl", Workload::WdlCriteo, 32),
    ("reddit", Workload::GnnReddit, 16),
];

/// `scale-sweep`: per recipe and per `--threads` entry (the first must
/// be 1 — the baseline of `speedup_vs_one`), one threaded training run
/// with the cluster resized to one OS thread per worker, beside the
/// single-threaded simulator's run of the very same job. Unlike every
/// other experiment the numbers are **wall-clock** — each report's own
/// `wall_ns`, which spans the same steps on both backends (first step
/// to last, flush and final evaluation excluded) — so they vary run to
/// run and with the host's core count. A wider row is a *bigger job*,
/// so `speedup_vs_one` mixes scaling with the change of job;
/// `speedup_vs_sim` (threads against the sim twin) does not.
pub(crate) fn scale_sweep(args: &Args) -> Result<Vec<Table>, String> {
    let iters: u64 = args.get_parsed("iters", 240)?;
    let threads_list: Vec<u64> = args.get_list("threads", vec![1, 2, 4])?;
    positive("iters", &[iters])?;
    positive("threads", &threads_list)?;
    if threads_list.first() != Some(&1) {
        return Err("scale-sweep must start at the threads:1 baseline".to_string());
    }
    let mut t = Table::new(
        "scale_sweep",
        "recipe threads iterations wall_s ops_per_sec cycle_time_us speedup_vs_one \
         sim_ops_per_sec speedup_vs_sim",
    );
    for (recipe, workload, dim) in SCALE_SWEEP_RECIPES {
        let mut one = None;
        for &threads in &threads_list {
            let tweak = |c: &mut TrainerConfig| {
                c.cluster = het_simnet::ClusterSpec::cluster_a(threads as usize, 1);
                c.dim = dim;
                *c = c.clone().with_cache(0.10, PolicyKind::light_lfu());
                c.max_iterations = iters;
                c.eval_every = iters;
                c.lookahead_depth = 0;
            };
            let (report, _) = run_workload_threaded(workload, HET_CACHE_100, &tweak, None)?;
            let sim_ops_per_sec = run_workload(workload, HET_CACHE_100, &tweak).iters_per_wall_s();
            let ops_per_sec = report.iters_per_wall_s();
            t.push(&[
                &recipe,
                &threads,
                &report.total_iterations,
                &(report.wall_ns as f64 / 1e9),
                &ops_per_sec,
                &(report.wall_ns as f64 / 1e3 / report.total_iterations.max(1) as f64),
                &(ops_per_sec / *one.get_or_insert(ops_per_sec)),
                &sim_ops_per_sec,
                &(ops_per_sec / sim_ops_per_sec),
            ]);
        }
    }
    Ok(vec![t])
}

/// The `scale-sweep` gate: on each recipe the `threads = 2` run must
/// reach at least `threshold ×` the throughput of its sim twin. With two
/// cores the threshold is 1.0 (threads must not lose to the simulator);
/// single-core CI boxes pass a tolerance < 1, because two time-sliced
/// threads can only add coordination overhead there — `ci.sh` picks the
/// threshold from `nproc`.
pub(crate) fn scale_gate(tables: &[Table], threshold: f64) -> Result<String, String> {
    let t = &tables[0];
    for (recipe, ..) in SCALE_SWEEP_RECIPES {
        let two = (0..t.rows.len())
            .find(|&r| t.text(r, "recipe") == recipe && t.num(r, "threads") == 2.0)
            .ok_or(format!("scale-sweep gate: no threads:2 row for {recipe}"))?;
        if t.num(two, "speedup_vs_sim") < threshold {
            return Err(format!(
                "scale-sweep gate: {recipe} on threads:2 ran at {:.1} ops/s, below \
                 {threshold:.2} x its sim twin ({:.1} ops/s)",
                t.num(two, "ops_per_sec"),
                t.num(two, "sim_ops_per_sec")
            ));
        }
    }
    Ok(format!(
        "threads:2 >= {threshold:.2} x its sim twin on every recipe"
    ))
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

/// Drives one backend with the store sweep's deterministic CTR-shaped
/// stream — Zipf-popular keys (the paper's Fig. 3 skew), three
/// read-modify-write pushes per pull, a training-shaped mix whose
/// working set far exceeds any sane hot budget — and appends its row.
/// `io_ms` is the modelled disk time the stream's PS leg would carry
/// (always 0 for the flat store, which has no I/O model); `wall_ms` is
/// host time, hardware-dependent and outside any determinism contract.
fn store_sweep_cell(
    t: &mut Table,
    backend: String,
    hot_rows: u64,
    store: &mut dyn het_ps::RowStore,
    (n_keys, ops, dim): (u64, u64, usize),
) {
    use het_rng::rngs::StdRng;
    use het_rng::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x0005_702E_0001);
    let started = std::time::Instant::now();
    let mut io_ns: u64 = 0;
    let mut fresh = || het_ps::StoredRow {
        vector: vec![0.0; dim],
        clock: 0,
        opt_state: Vec::new(),
    };
    for i in 0..ops {
        let key = zipf_rank(rng.gen::<f64>(), n_keys, 1.1);
        if i % 4 == 0 {
            // A pull: read access, may promote, never dirties.
            if store.get(key).is_none() {
                store.apply(key, &mut fresh, &mut |_| {});
            }
        } else {
            // A push: read-modify-write, dirties the row.
            store.apply(key, &mut fresh, &mut |row| {
                for v in &mut row.vector {
                    *v += 0.01;
                }
                row.clock += 1;
            });
        }
        io_ns += store.take_io_ns();
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = store.stats();
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    // Estimated resident bytes per row: vector payload plus map-entry
    // overhead (key, clock, `Vec` headers, hash bucket).
    let row_bytes = (dim * 4 + 96) as u64;
    t.push(&[
        &backend,
        &hot_rows,
        &n_keys,
        &ops,
        &(store.len() as u64),
        &(store.resident_rows() as u64),
        &mib(store.resident_rows() as u64 * row_bytes),
        &stats.hot_hit_rate(),
        &(io_ns as f64 / 1e6),
        &mib(stats.cold_read_bytes),
        &mib(stats.cold_write_bytes),
        &stats.compactions,
        &wall_ms,
    ]);
}

/// `store-sweep`: one CTR-shaped Zipf stream at a paper-scale key space
/// (10⁷–10⁸) against the flat in-memory baseline and one tiered cell
/// per `--hot` budget, charting the memory-vs-disk crossover the tiered
/// store exists for. Cold tiers spill to real segment files under the
/// experiments dir by default, so host memory stays bounded; `--spill
/// 0` keeps segments in memory (small sweeps only).
pub(crate) fn store_sweep(args: &Args) -> Result<Vec<Table>, String> {
    let n_keys: u64 = args.get_parsed("keys", 10_000_000)?;
    let ops: u64 = args.get_parsed("ops", 1_000_000)?;
    let dim: usize = args.get_parsed("dim", 16)?;
    let hot_budgets: Vec<u64> = args.get_list("hot", vec![1 << 14, 1 << 16, 1 << 18])?;
    positive("keys", &[n_keys])?;
    positive("dim", &[dim as u64])?;
    positive("hot", &hot_budgets)?;
    let spill_dir = match args.get_parsed("spill", 1u8)? {
        0 => None,
        _ => Some(experiments_dir()?.join("store_sweep_cold")),
    };
    let mut t = Table::new(
        "store_sweep",
        "backend hot_rows n_keys ops distinct_keys resident_rows resident_mb hot_hit_rate io_ms \
         cold_read_mb cold_write_mb compactions wall_ms",
    );
    let shape = (n_keys, ops, dim);
    let mut mem = het_ps::StoreSpec::Mem.build_shard(dim, 0, 1);
    store_sweep_cell(&mut t, "mem".to_string(), 0, mem.as_mut(), shape);
    drop(mem);
    for &hot in &hot_budgets {
        let mut cfg = het_ps::TieredConfig::new(hot as usize);
        // Each cell spills into its own directory so reruns and other
        // budgets never replay each other's logs.
        cfg.dir = spill_dir.as_ref().map(|d| d.join(format!("hot-{hot}")));
        if let Some(d) = &cfg.dir {
            // A stale cold tier from an earlier sweep would be replayed
            // as recovery state; the sweep wants a cold start.
            let _ = std::fs::remove_dir_all(d);
        }
        let mut store = het_ps::StoreSpec::Tiered(cfg).build_shard(dim, 0, 1);
        store_sweep_cell(&mut t, format!("tiered:{hot}"), hot, store.as_mut(), shape);
    }
    if let Some(d) = &spill_dir {
        // The cold logs are scratch, not an artifact.
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(vec![t])
}

/// The `store-sweep` gate: every tiered cell must have kept its
/// resident set within budget (bounded memory is the whole point), hit
/// the hot tier at or above `hit_floor` (the Zipf hot set must fit),
/// and actually exercised the cold tier; the flat baseline must accrue
/// zero modelled disk time.
pub(crate) fn store_gate(tables: &[Table], hit_floor: f64) -> Result<String, String> {
    let t = &tables[0];
    let mem = (0..t.rows.len())
        .find(|&r| t.text(r, "backend") == "mem")
        .ok_or("store-sweep gate: no mem baseline row")?;
    if t.num(mem, "io_ms") != 0.0 {
        return Err(format!(
            "store-sweep gate: flat store accrued {} ms of disk time",
            t.num(mem, "io_ms")
        ));
    }
    for r in (0..t.rows.len()).filter(|&r| t.num(r, "hot_rows") > 0.0) {
        let (backend, hot) = (t.text(r, "backend"), t.num(r, "hot_rows"));
        if t.num(r, "resident_rows") > hot {
            return Err(format!(
                "store-sweep gate: {backend} holds {} resident rows over its {hot}-row budget",
                t.num(r, "resident_rows")
            ));
        }
        if t.num(r, "hot_hit_rate") < hit_floor {
            return Err(format!(
                "store-sweep gate: {backend} hot hit rate {:.4} is below the {hit_floor:.2} floor",
                t.num(r, "hot_hit_rate")
            ));
        }
        if t.num(r, "distinct_keys") > hot && t.num(r, "io_ms") <= 0.0 {
            return Err(format!(
                "store-sweep gate: {backend} spilled ({} keys > {hot} hot) but accrued no disk time",
                t.num(r, "distinct_keys")
            ));
        }
    }
    Ok(format!(
        "every tiered cell bounded, hot hit rate >= {hit_floor:.2}"
    ))
}

/// The shootout scenario matrix: CTR vs GNN key distributions, the
/// prefetch staging region on, a faulted run, hot-set drift, and a
/// flash crowd — the regimes where eviction quality diverges.
const SHOOTOUT_SCENARIOS: [&str; 6] = [
    "ctr-train",
    "gnn-train",
    "ctr-train-prefetch",
    "ctr-train-faulted",
    "serve-drift",
    "serve-flash",
];

fn shootout_train(
    workload: Workload,
    policy: PolicyKind,
    iters: u64,
    lookahead: u64,
    faulted: bool,
) -> TrainReport {
    let run = |faults: het_core::FaultConfig| {
        run_workload(workload, HET_CACHE_100, &|c| {
            c.cluster = het_simnet::ClusterSpec::cluster_a(2, 1);
            c.max_iterations = iters;
            c.eval_every = iters;
            // Small enough that capacity binds hard and eviction
            // quality shows up in the hit rate.
            *c = c.clone().with_cache(0.05, policy);
            c.lookahead_depth = lookahead;
            c.faults = faults.clone();
        })
    };
    let mut faults = het_core::FaultConfig::disabled();
    if faulted {
        // Size the fault horizon from a clean probe, as the fuzzer and
        // golden-trace tests do, so the faults land inside the run.
        let probe = run(het_core::FaultConfig::disabled());
        faults.enabled = true;
        faults.spec.worker_crashes = 2;
        faults.spec.shard_outages = 1;
        faults.spec.horizon = SimDuration::from_secs_f64(probe.total_sim_time.as_secs_f64() * 0.8);
        faults.checkpoint_every = 20;
    }
    run(faults)
}

fn shootout_serve(
    policy: PolicyKind,
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

/// `policy-shootout`: every scenario × every [`PolicyKind::ALL`] (the
/// seven fixed policies plus the adaptive meta-policy), one leaderboard
/// row per cell. Train scenarios (`--iters`) report cycle time and
/// leave `p99_us` at 0; serve scenarios (`--requests`) report tail
/// latency and leave `cycle_time_us` at 0.
pub(crate) fn policy_shootout(args: &Args) -> Result<Vec<Table>, String> {
    let iters: u64 = args.get_parsed("iters", 240)?;
    let requests: usize = args.get_parsed("requests", 2_400)?;
    positive("iters", &[iters])?;
    positive("requests", &[requests as u64])?;
    let mut t = Table::new(
        "policy_shootout",
        "scenario policy hit_rate cycle_time_us p99_us",
    );
    for scenario in SHOOTOUT_SCENARIOS {
        for policy in PolicyKind::ALL {
            let train = |workload, lookahead, faulted| {
                let r = shootout_train(workload, policy, iters, lookahead, faulted);
                (r.cache.hit_rate(), cycle_us(&r), 0.0)
            };
            let serve = |drift, flash| {
                let r = shootout_serve(policy, requests, drift, flash);
                (r.cache.hit_rate(), 0.0, r.latency_p99_ns as f64 / 1e3)
            };
            let (hit_rate, cycle_time_us, p99_us) = match scenario {
                "ctr-train" => train(Workload::WdlCriteo, 0, false),
                "gnn-train" => train(Workload::GnnReddit, 0, false),
                "ctr-train-prefetch" => train(Workload::WdlCriteo, 4, false),
                "ctr-train-faulted" => train(Workload::WdlCriteo, 0, true),
                "serve-drift" => serve(true, false),
                "serve-flash" => serve(false, true),
                other => unreachable!("unknown shootout scenario {other}"),
            };
            t.push(&[
                &scenario,
                &policy.to_string(),
                &hit_rate,
                &cycle_time_us,
                &p99_us,
            ]);
        }
    }
    Ok(vec![t])
}

/// The `policy-shootout` gate: on every scenario the adaptive
/// meta-policy's hit rate must come within `margin` (absolute hit-rate
/// points) of the best fixed policy. A policy that had to be picked by
/// hand would silently rot as workloads drift; this bound proves the
/// switcher tracks the winner.
pub(crate) fn shootout_gate(tables: &[Table], margin: f64) -> Result<String, String> {
    let t = &tables[0];
    for scenario in SHOOTOUT_SCENARIOS {
        let cells = (0..t.rows.len()).filter(|&r| t.text(r, "scenario") == scenario);
        let (adaptive, fixed): (Vec<usize>, Vec<usize>) =
            cells.partition(|&r| t.text(r, "policy") == "Adaptive");
        let adaptive = *adaptive
            .first()
            .ok_or_else(|| format!("gate: no adaptive row for scenario {scenario}"))?;
        let best_fixed = fixed
            .into_iter()
            .max_by(|&a, &b| t.num(a, "hit_rate").total_cmp(&t.num(b, "hit_rate")))
            .ok_or_else(|| format!("gate: no fixed rows for scenario {scenario}"))?;
        if t.num(adaptive, "hit_rate") + margin < t.num(best_fixed, "hit_rate") {
            return Err(format!(
                "policy-shootout gate: scenario {scenario}: adaptive hit rate {:.4} \
                 is more than {margin:.2} below best fixed ({} at {:.4})",
                t.num(adaptive, "hit_rate"),
                t.text(best_fixed, "policy"),
                t.num(best_fixed, "hit_rate")
            ));
        }
    }
    Ok(format!(
        "adaptive within {margin:.2} of best fixed on every scenario"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_json::Json;

    /// Every gate accepts a table sitting exactly at its threshold and
    /// rejects that table with one cell doctored to just the wrong side.
    #[test]
    fn every_gate_accepts_at_threshold_and_rejects_just_under() {
        let mut prefetch = Table::new("prefetch_sweep", "depth cycle_time_us");
        for (depth, cycle) in [(0u64, 100.0), (2, 80.0), (4, 75.0), (8, 75.0)] {
            prefetch.push(&[&depth, &cycle]);
        }
        let mut scale = Table::new(
            "scale_sweep",
            "recipe threads ops_per_sec sim_ops_per_sec speedup_vs_sim",
        );
        for (recipe, threads, vs_sim) in [("wdl", 1u64, 0.9), ("wdl", 2, 1.0), ("reddit", 2, 1.0)] {
            scale.push(&[&recipe, &threads, &100.0, &100.0, &vs_sim]);
        }
        let mut store = Table::new(
            "store_sweep",
            "backend hot_rows distinct_keys resident_rows hot_hit_rate io_ms",
        );
        store.push(&[&"mem", &0u64, &900u64, &900u64, &1.0, &0.0]);
        store.push(&[&"tiered:64", &64u64, &900u64, &64u64, &0.5, &3.0]);
        let mut shootout = Table::new("policy_shootout", "scenario policy hit_rate");
        for scenario in SHOOTOUT_SCENARIOS {
            for (policy, hit_rate) in [("LRU", 0.5), ("LFU", 0.75), ("Adaptive", 0.5)] {
                shootout.push(&[&scenario, &policy, &hit_rate]);
            }
        }

        // (gate, threshold, table at it, then per doctored cell: row,
        // column, value, and the words the rejection must carry).
        type Doctored = (usize, &'static str, f64, &'static str);
        let cases: [(crate::experiments::GateFn, f64, Table, Vec<Doctored>); 4] = [
            (
                prefetch_gate,
                0.25,
                prefetch,
                vec![
                    (2, "cycle_time_us", 75.5, "below the 25.0 % gate"),
                    (3, "cycle_time_us", 75.5, "not monotonically non-increasing"),
                ],
            ),
            (
                scale_gate,
                1.0,
                scale,
                vec![(2, "speedup_vs_sim", 0.999, "reddit on threads:2")],
            ),
            (
                store_gate,
                0.5,
                store,
                vec![
                    (1, "hot_hit_rate", 0.499, "below the 0.50 floor"),
                    (1, "resident_rows", 65.0, "over its 64-row budget"),
                    (1, "io_ms", 0.0, "accrued no disk time"),
                    (0, "io_ms", 0.001, "flat store accrued"),
                ],
            ),
            (
                shootout_gate,
                0.25,
                shootout,
                vec![(17, "hit_rate", 0.499, "scenario serve-flash")],
            ),
        ];
        for (gate, threshold, at, doctored) in cases {
            let name = at.name;
            gate(std::slice::from_ref(&at), threshold).unwrap_or_else(|e| panic!("{name}: {e}"));
            for (row, column, value, needle) in doctored {
                let mut under = at.clone();
                under.rows[row][at.col(column)] = Json::Num(value);
                let err = gate(&[under], threshold).expect_err(name);
                assert!(err.contains(needle), "{name}: {err}");
            }
        }
    }

    #[test]
    fn store_sweep_is_deterministic_and_gated() {
        let line = "--keys 100000 --ops 24000 --hot 512,4096 --spill 0";
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let run = || store_sweep(&Args::parse(&argv, &["keys ops hot spill"]).unwrap()).unwrap();
        let (a, mut b) = (run().remove(0), run().remove(0));
        assert_eq!(a.rows.len(), 3);
        // Everything but host wall time must reproduce exactly.
        for (x, y) in a.rows.iter().zip(&mut b.rows) {
            y[a.col("wall_ms")] = x[a.col("wall_ms")].clone();
        }
        assert_eq!(a.rows, b.rows);
        store_gate(std::slice::from_ref(&a), 0.5).expect("gate");
        // The crossover shape: both tiered cells bound memory below the
        // flat baseline, and the larger hot budget pays less disk.
        let (mem, small, large) = (0, 1, 2);
        assert_eq!(a.num(mem, "io_ms"), 0.0);
        assert!(a.num(small, "resident_rows") < a.num(mem, "resident_rows"));
        assert!(a.num(large, "resident_rows") < a.num(mem, "resident_rows"));
        assert!(a.num(small, "io_ms") > a.num(large, "io_ms"));
        assert!(a.num(small, "hot_hit_rate") < a.num(large, "hot_hit_rate"));
    }
}
