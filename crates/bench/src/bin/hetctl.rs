//! `hetctl` — command-line driver for the HET reproduction.
//!
//! ```text
//! hetctl train    --workload wdl --system het-cache --staleness 100 [...]
//! hetctl compare  --workload wdl --baseline het-hybrid --staleness 100 [...]
//! hetctl serve    --replicas 2 --rate 10000 --cache 10000 --staleness 10 [...]
//! hetctl colocate --workers 4 --replicas 2 --iters 400 --rate 8000 [...]
//! hetctl chaos    --seed 7 [--slo-p99-us 25000 --rto-us 2000 --trace out.jsonl]
//! hetctl chaos    --seeds 0..120
//! hetctl oracle   --seeds 0..500 --iters 50
//! hetctl oracle   --repro target/oracle/repro-0-17.json
//! hetctl prefetch-sweep [--depths 0,1,2,4,8 --iters 600 --gate 0.30]
//! hetctl store-sweep [--keys 10000000 --ops 1000000 --hot 16384,65536 --gate 0.5]
//! hetctl scale-sweep [--threads 1,2,4 --iters 240 --gate 1.0]
//! hetctl list
//! ```
//!
//! `train`, `serve`, and `colocate` additionally take
//! `--backend sim|threads:<n>`: `sim` (the default) is the
//! deterministic discrete-event simulator, `threads:<n>` runs the same
//! job on n real OS threads (one per worker/replica) over the shared
//! PS fabric, reporting wall-clock throughput. A threaded training run
//! always collects a merged per-thread trace and replays it through
//! `het-oracle` before printing — the simulator stays the correctness
//! oracle. `scale-sweep` charts threaded throughput against the thread
//! count, and against the simulator's run of the same job, on the
//! Fig. 2 CTR recipe and on the sparse-bound Reddit/GraphSAGE one.
//!
//! Runs a (workload × system) training simulation and prints the report;
//! `compare` additionally runs a baseline and prints speedups — the
//! quickest way to poke at the paper's claims with custom parameters.
//! `serve` runs the online-inference subsystem (`het-serve`): N replicas
//! with staleness-bounded caches serving Zipf traffic over a pretrained
//! table. `colocate` co-schedules a *live* trainer and a serving fleet
//! on one cluster runtime and one PS fabric — the "serving heavy
//! traffic while training" configuration. `oracle` runs the model-based
//! consistency oracle over a seed range of fuzzed schedules (see
//! `het-oracle`), shrinking and writing a repro file for any violation;
//! `--repro` replays such a file. `chaos` runs the compound-failure
//! campaign (`het_serve::run_chaos`) — 10× flash crowd + replica
//! crashes + PS-shard outage + live shard split over a live trainer —
//! and gates on its SLO/RTO verdicts; with `--seeds A..B` it sweeps a
//! whole seed range and fails on the first unhealthy run.
//!
//! Every fault-capable subcommand also takes `--fault-plan FILE.json`
//! (replace the derived fault plan with an explicit scripted one) and
//! `--fault-plan-dump FILE.json` (write the plan actually used, in the
//! same format — dump, edit, replay).

use het_bench::{run_workload, run_workload_threaded, run_workload_traced, RunSummary, Workload};
use het_cache::PolicyKind;
use het_core::config::{SparseMode, SystemPreset, TrainerConfig};
use het_core::{FaultConfig, TrainReport};
use het_runtime::ExecutionBackend;
use het_simnet::{ClusterSpec, SimDuration};
use std::process::ExitCode;

/// Flag groups shared by several subcommands, whitespace-separated;
/// each subcommand's full list is in [`COMMANDS`].
const FAULT_FLAGS: &str = "fault-crashes fault-outages fault-stragglers fault-degradations \
                           fault-drop fault-horizon fault-checkpoint-every";
const TRACE_FLAGS: &str = "trace trace-chrome";
const PLAN_FLAGS: &str = "fault-plan fault-plan-dump";
const TRAIN_FLAGS: &str = "workload system staleness backend workers servers dim iters cache-frac \
                           policy network target lr lookahead store";

/// Levenshtein distance, for "did you mean" on a mistyped flag.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (diagonal + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(above + 1);
            diagonal = above;
        }
    }
    row[b.len()]
}

struct Args {
    map: Vec<(String, String)>,
}

impl Args {
    /// Parses `--flag value` pairs. A flag outside `known` (the
    /// subcommand's flag groups) is an error naming the nearest known
    /// flag, so a typo never silently runs the defaults.
    fn parse(argv: &[String], known: &[&str]) -> Result<Args, String> {
        let known = || known.iter().flat_map(|group| group.split_whitespace());
        let mut map = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", argv[i]))?;
            if !known().any(|k| k == key) {
                return Err(match known().min_by_key(|k| edit_distance(key, k)) {
                    Some(k) => format!("unknown flag --{key} (did you mean --{k}?)"),
                    None => format!("unknown flag --{key} (this command takes no flags)"),
                });
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            map.push((key.to_string(), value));
            i += 2;
        }
        Ok(Args { map })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A comma-separated list flag.
    fn get_list<T: std::str::FromStr>(&self, key: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        let Some(list) = self.get(key) else {
            return Ok(default);
        };
        let parse = |v: &str| v.trim().parse();
        list.split(',')
            .map(|v| parse(v).map_err(|_| format!("--{key}: cannot parse '{v}'")))
            .collect()
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

/// The `--trace OUT.jsonl` / `--trace-chrome OUT.json` flags, handled
/// identically by every subcommand: check [`TraceArgs::requested`],
/// start/finish the collector around the run, then [`TraceArgs::write`]
/// the log to every requested output.
struct TraceArgs {
    jsonl: Option<String>,
    chrome: Option<String>,
}

impl TraceArgs {
    fn of(args: &Args) -> TraceArgs {
        TraceArgs {
            jsonl: args.get("trace").map(str::to_string),
            chrome: args.get("trace-chrome").map(str::to_string),
        }
    }

    fn requested(&self) -> bool {
        self.jsonl.is_some() || self.chrome.is_some()
    }

    /// Starts the trace collector (when any output was requested) with
    /// the run's metadata; returns whether tracing is on.
    fn begin(&self, kind: &str, seed: u64) -> bool {
        if self.requested() {
            het_trace::start(vec![
                ("kind".to_string(), het_json::Json::Str(kind.to_string())),
                ("seed".to_string(), het_json::Json::UInt(seed)),
            ]);
        }
        self.requested()
    }

    fn write(&self, log: &het_trace::TraceLog) -> Result<(), String> {
        if let Some(p) = &self.jsonl {
            std::fs::write(p, log.to_jsonl()).map_err(|e| format!("--trace {p}: {e}"))?;
            eprintln!("[trace jsonl] {p}");
        }
        if let Some(p) = &self.chrome {
            std::fs::write(p, het_trace::chrome::to_chrome_trace(log))
                .map_err(|e| format!("--trace-chrome {p}: {e}"))?;
            eprintln!("[trace chrome] {p}");
        }
        Ok(())
    }
}

fn workload_of(name: &str) -> Result<Workload, String> {
    Ok(match name {
        "wdl" => Workload::WdlCriteo,
        "dfm" => Workload::DfmCriteo,
        "dcn" => Workload::DcnCriteo,
        "reddit" => Workload::GnnReddit,
        "amazon" => Workload::GnnAmazon,
        "mag" => Workload::GnnOgbnMag,
        other => {
            return Err(format!(
                "unknown workload '{other}' (try: wdl dfm dcn reddit amazon mag)"
            ))
        }
    })
}

fn system_of(name: &str, staleness: u64) -> Result<SystemPreset, String> {
    Ok(match name {
        "tf-ps" => SystemPreset::TfPs,
        "tf-parallax" => SystemPreset::TfParallax,
        "het-ps" => SystemPreset::HetPs,
        "het-ar" => SystemPreset::HetAr,
        "het-hybrid" => SystemPreset::HetHybrid,
        "het-cache" => SystemPreset::HetCache { staleness },
        "ssp" => SystemPreset::Ssp { staleness },
        other => return Err(format!(
            "unknown system '{other}' (try: tf-ps tf-parallax het-ps het-ar het-hybrid het-cache ssp)"
        )),
    })
}

fn policy_of(name: &str) -> Result<PolicyKind, String> {
    // Parameterised forms: `lightlfu:THRESHOLD`, `adaptive:WINDOW`.
    if let Some(t) = name.strip_prefix("lightlfu:") {
        let promote_threshold = t
            .parse::<u64>()
            .map_err(|_| format!("bad lightlfu threshold '{t}'"))?;
        return Ok(PolicyKind::LightLfu { promote_threshold });
    }
    if let Some(w) = name.strip_prefix("adaptive:") {
        let window = w
            .parse::<u64>()
            .map_err(|_| format!("bad adaptive window '{w}'"))?;
        return Ok(PolicyKind::Adaptive { window });
    }
    Ok(match name {
        "lru" => PolicyKind::Lru,
        "lfu" => PolicyKind::Lfu,
        "lightlfu" => PolicyKind::light_lfu(),
        "clock" => PolicyKind::Clock,
        "slru" => PolicyKind::Slru,
        "lfuda" => PolicyKind::Lfuda,
        "gdsf" => PolicyKind::Gdsf,
        "adaptive" => PolicyKind::adaptive(),
        other => {
            return Err(format!(
                "unknown policy '{other}' (try: lru lfu lightlfu[:T] clock slru lfuda gdsf adaptive[:W])"
            ))
        }
    })
}

/// `--store mem | tiered:<hot_rows>`: the PS shard row-store backend.
fn store_spec_of(name: &str) -> Result<het_ps::StoreSpec, String> {
    if let Some(h) = name.strip_prefix("tiered:") {
        let hot_rows: usize = h
            .parse()
            .map_err(|_| format!("bad tiered hot-row budget '{h}'"))?;
        if hot_rows == 0 {
            return Err("tiered hot-row budget must be positive".to_string());
        }
        return Ok(het_ps::StoreSpec::Tiered(het_ps::TieredConfig::new(
            hot_rows,
        )));
    }
    match name {
        "mem" => Ok(het_ps::StoreSpec::Mem),
        other => Err(format!(
            "unknown store '{other}' (try: mem tiered:<hot_rows>)"
        )),
    }
}

fn print_report(workload: Workload, system: &str, summary: &RunSummary, report: &TrainReport) {
    println!("workload          {}", workload.name());
    println!("system            {system}");
    println!("final metric      {:.4}", summary.final_metric);
    println!("simulated time    {:.3} s", summary.sim_time_s);
    println!("epoch time        {:.3} s", summary.epoch_time_s);
    println!("embedding bytes   {}", summary.embedding_bytes);
    println!("cache hit rate    {:.1} %", 100.0 * summary.cache_hit_rate);
    println!("comm fraction     {:.1} %", 100.0 * summary.comm_fraction);
    if let Some(t) = summary.time_to_target_s {
        println!("time to target    {t:.3} s");
    }
    if let Some(s) = &report.store {
        println!("--- store (tiered) ---");
        println!(
            "hot hit rate      {:.2} % ({} hits / {} promotions)",
            100.0 * s.stats.hot_hit_rate(),
            s.stats.hot_hits,
            s.stats.promotions
        );
        println!(
            "residency         {} of {} rows in memory",
            s.resident_rows, s.total_rows
        );
        println!(
            "cold tier         {} demotions ({} clean drops), {} compactions",
            s.stats.demotions, s.stats.clean_drops, s.stats.compactions
        );
        println!(
            "disk time         {:.3} ms client + {:.3} ms background",
            s.client_io_ns as f64 / 1e6,
            s.background_io_ns as f64 / 1e6
        );
    }
    let f = &report.faults;
    if !report.fault_events.is_empty() || f != &het_core::FaultStats::default() {
        println!("--- faults ---");
        println!(
            "worker crashes    {} ({} dirty entries lost, {} pending ticks)",
            f.worker_crashes, f.dirty_entries_lost, f.pending_updates_lost
        );
        println!(
            "shard failovers   {} ({} rows restored, {} keys lost, {} ticks rolled back)",
            f.shard_failovers, f.rows_restored, f.keys_lost, f.lost_updates
        );
        println!("degraded reads    {}", f.degraded_reads);
        println!("blocked ops       {}", f.blocked_ops);
        println!("retries           {}", f.retries);
        println!("straggler iters   {}", f.straggler_slow_iters);
        println!("checkpoints       {}", f.checkpoints);
        for ev in &report.fault_events {
            println!("event  {:?} {}", ev.at, ev.description);
        }
    }
}

/// Builds the fault-injection config from the `--fault-*` flags; stays
/// disabled (bit-identical to the fault-free build) when none are given.
fn fault_config_of(args: &Args) -> Result<FaultConfig, String> {
    let crashes: usize = args.get_parsed("fault-crashes", 0)?;
    let outages: usize = args.get_parsed("fault-outages", 0)?;
    let stragglers: usize = args.get_parsed("fault-stragglers", 0)?;
    let degradations: usize = args.get_parsed("fault-degradations", 0)?;
    let drop_prob: f64 = args.get_parsed("fault-drop", 0.0)?;
    let horizon_s: f64 = args.get_parsed("fault-horizon", 10.0)?;
    let checkpoint_every: u64 = args.get_parsed("fault-checkpoint-every", 50)?;
    let mut cfg = FaultConfig::disabled();
    if crashes == 0 && outages == 0 && stragglers == 0 && degradations == 0 && drop_prob <= 0.0 {
        return Ok(cfg);
    }
    cfg.enabled = true;
    cfg.checkpoint_every = checkpoint_every;
    cfg.spec.worker_crashes = crashes;
    cfg.spec.shard_outages = outages;
    cfg.spec.stragglers = stragglers;
    cfg.spec.link_degradations = degradations;
    cfg.spec.message_drop_prob = drop_prob;
    cfg.spec.horizon = SimDuration::from_secs_f64(horizon_s.max(0.001));
    Ok(cfg)
}

/// `--fault-plan FILE.json`: an explicit scripted fault plan to run
/// instead of the one the `--fault-*` flags would derive.
fn fault_plan_override(args: &Args) -> Result<Option<het_simnet::FaultPlan>, String> {
    let Some(path) = args.get("fault-plan") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("--fault-plan {path}: {e}"))?;
    let json = het_json::from_str(&text).map_err(|e| format!("--fault-plan {path}: {e:?}"))?;
    het_simnet::FaultPlan::from_json(&json)
        .map(Some)
        .map_err(|e| format!("--fault-plan {path}: {e}"))
}

/// `--fault-plan-dump FILE.json`: writes the fault plan a run actually
/// uses, in the format `--fault-plan` reads back.
fn dump_fault_plan(args: &Args, plan: &het_simnet::FaultPlan) -> Result<(), String> {
    if let Some(path) = args.get("fault-plan-dump") {
        std::fs::write(path, plan.to_json().encode_pretty())
            .map_err(|e| format!("--fault-plan-dump {path}: {e}"))?;
        eprintln!("[fault plan] {path}");
    }
    Ok(())
}

/// The `TrainerConfig` edit the `train`/`compare` flags ask for, built
/// once for both backends. On `threads:<n>` the backend sets the worker
/// count (one OS thread per worker); a different `--workers` is an
/// error.
fn train_tweak(
    args: &Args,
    backend: ExecutionBackend,
) -> Result<impl Fn(&mut TrainerConfig), String> {
    let workers = match (backend.threads(), args.get("workers")) {
        (Some(n), Some(w)) if w.parse() != Ok(n) => {
            return Err(format!(
                "--workers {w} conflicts with --backend threads:{n} (one thread per worker)"
            ))
        }
        (Some(n), _) => n,
        (None, _) => args.get_parsed("workers", 8)?,
    };
    let servers: usize = args.get_parsed("servers", 1)?;
    let dim: usize = args.get_parsed("dim", 16)?;
    let iters: u64 = args.get_parsed("iters", 1_600)?;
    let cache_frac: f64 = args.get_parsed("cache-frac", 0.10)?;
    let policy = policy_of(args.get("policy").unwrap_or("lightlfu"))?;
    let band = args.get("network").unwrap_or("1gbe").to_string();
    let target: f64 = args.get_parsed("target", -1.0)?;
    let lr: f64 = args.get_parsed("lr", -1.0)?;
    let lookahead: u64 = args.get_parsed("lookahead", 0)?;
    let store = store_spec_of(args.get("store").unwrap_or("mem"))?;
    let faults = fault_config_of(args)?;

    Ok(move |c: &mut TrainerConfig| {
        c.cluster = match band.as_str() {
            "10gbe" => ClusterSpec::cluster_b(workers, servers),
            _ => ClusterSpec::cluster_a(workers, servers),
        };
        c.dim = dim;
        c.max_iterations = iters;
        c.eval_every = (iters / 4).max(1);
        if target > 0.0 {
            c.target_metric = Some(target);
        }
        if lr > 0.0 {
            c.lr = lr as f32;
        }
        *c = c.clone().with_cache(cache_frac, policy);
        c.lookahead_depth = lookahead;
        c.store = store.clone();
        c.faults = faults.clone();
    })
}

fn run_one(
    workload: Workload,
    preset: SystemPreset,
    args: &Args,
    traced: bool,
) -> Result<(RunSummary, TrainReport, Option<het_trace::TraceLog>), String> {
    let tweak = train_tweak(args, ExecutionBackend::Sim)?;
    let (report, log) = if traced {
        let (report, log) = run_workload_traced(workload, preset, &tweak);
        (report, Some(log))
    } else {
        (run_workload(workload, preset, &tweak), None)
    };
    let summary = RunSummary::from_report(workload, report.system.as_str(), &report);
    Ok((summary, report, log))
}

/// The `--backend sim|threads:<n>` flag (default `sim`).
fn backend_of(args: &Args) -> Result<ExecutionBackend, String> {
    ExecutionBackend::parse(args.get("backend").unwrap_or("sim"))
}

/// Threaded `serve`/`colocate` have no trace output and no fault plan.
fn reject_sim_only_flags(args: &Args) -> Result<(), String> {
    let given = |group: &str| group.split_whitespace().any(|f| args.get(f).is_some());
    if given(TRACE_FLAGS) || given(PLAN_FLAGS) {
        return Err(
            "--trace[-chrome] and --fault-plan[-dump] are sim-only here; use --backend sim".into(),
        );
    }
    Ok(())
}

fn print_parallel_report(workload: Workload, report: &het_core::ParallelReport) {
    println!("workload          {}", workload.name());
    println!("system            {}", report.system);
    println!(
        "backend           {} ({} threads)",
        report.backend, report.n_threads
    );
    println!("iterations        {}", report.total_iterations);
    println!("wall time         {:.3} ms", report.wall_ns as f64 / 1e6);
    println!("throughput        {:.1} iters/s", report.ops_per_sec);
    println!("final metric      {:.4}", report.final_metric);
    println!("cache hit rate    {:.1} %", 100.0 * report.cache.hit_rate());
    if let Some(t) = report.converged_at_ns {
        println!("time to target    {:.3} ms (wall)", t as f64 / 1e6);
    }
}

/// A training run on the threaded backend: same flags as the sim path,
/// one OS thread per worker (`Trainer::run_threaded` rejects the
/// sim-only ones). The run always collects a merged per-thread trace
/// and replays it through the model-based oracle before reporting —
/// every threaded run is checked against the consistency model, not
/// just timed.
fn run_one_threaded(
    workload: Workload,
    preset: SystemPreset,
    args: &Args,
    n_threads: usize,
) -> Result<(), String> {
    let tweak = train_tweak(args, ExecutionBackend::Threads(n_threads))?;
    let meta = vec![
        (
            "kind".to_string(),
            het_json::Json::Str("train-threaded".to_string()),
        ),
        (
            "workload".to_string(),
            het_json::Json::Str(workload.name().to_string()),
        ),
    ];
    let (report, config) = run_workload_threaded(workload, preset, &tweak, Some(meta))?;
    let log = report
        .trace
        .as_ref()
        .ok_or("threaded run returned no trace to replay")?;
    let replay = het_trace::replay::ReplayLog::from(log);
    match het_oracle::check_replay(&replay, &het_oracle::OracleSpec::of(&config)) {
        Ok(o) => println!(
            "oracle replay: clean ({} events, {} computes, {} window reads)",
            o.events, o.computes, o.window_reads
        ),
        Err(v) => {
            return Err(format!(
                "oracle replay violation: [{}] t={}ns worker={:?}: {}",
                v.check, v.t_ns, v.worker, v.message
            ))
        }
    }
    print_parallel_report(workload, &report);
    TraceArgs::of(args).write(log)?;
    Ok(())
}

/// Runs the thread-scaling sweep (`het_bench::scale_sweep`) — the
/// Fig. 2 CTR recipe and the sparse-bound Reddit/GraphSAGE one, each
/// width beside the simulator's run of the same job — prints the
/// wall-clock throughput table, and writes the rows to
/// `target/experiments/scale_sweep.json`. With `--gate F` the command
/// fails unless every recipe's threads:2 row reaches at least `F ×` its
/// sim twin's throughput — the CI smoke gate (`ci.sh` derives F from
/// `nproc`: 1.0 with two cores or more, a tolerance below 1 on
/// single-core boxes where extra threads only add coordination).
fn cmd_scale_sweep(args: &Args) -> Result<(), String> {
    let iters: u64 = args.get_parsed("iters", 240)?;
    let gate: f64 = args.get_parsed("gate", 0.0)?;
    let threads: Vec<usize> = args.get_list("threads", vec![1, 2, 4])?;
    let rows = het_bench::scale_sweep(&threads, iters)?;
    println!(
        "{:>7} {:>7} {:>7} {:>10} {:>11} {:>12} {:>8} {:>11} {:>8}",
        "recipe",
        "threads",
        "iters",
        "wall(s)",
        "ops/sec",
        "cycle(us)",
        "vs 1",
        "sim ops/s",
        "vs sim"
    );
    for r in &rows {
        println!(
            "{:>7} {:>7} {:>7} {:>10.3} {:>11.1} {:>12.1} {:>7.2}x {:>11.1} {:>7.2}x",
            r.recipe,
            r.threads,
            r.iterations,
            r.wall_s,
            r.ops_per_sec,
            r.cycle_time_us,
            r.speedup_vs_one,
            r.sim_ops_per_sec,
            r.speedup_vs_sim
        );
    }
    het_bench::out::write_json(
        "scale_sweep",
        &het_json::Json::Arr(rows.iter().map(het_json::ToJson::to_json).collect()),
    );
    if gate > 0.0 {
        het_bench::scale_sweep_gate(&rows, gate)?;
        println!("verdict: PASS (threads:2 >= {gate:.2} x its sim twin on every recipe)");
    }
    Ok(())
}

fn print_threaded_serve_report(report: &het_serve::ThreadedServeReport) {
    println!("backend           threads ({} replicas)", report.n_threads);
    println!("requests          {}", report.requests);
    println!("batches           {}", report.batches);
    println!("wall time         {:.3} ms", report.wall_ns as f64 / 1e6);
    println!("throughput        {:.0} req/s", report.throughput_rps);
    println!(
        "latency           p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, max {:.1} us",
        report.latency_p50_ns as f64 / 1e3,
        report.latency_p95_ns as f64 / 1e3,
        report.latency_p99_ns as f64 / 1e3,
        report.latency_max_ns as f64 / 1e3
    );
    println!(
        "cache miss rate   {:.2} % ({} hits / {} misses / {} invalidations)",
        100.0 * report.cache.miss_rate(),
        report.cache.hits,
        report.cache.misses,
        report.cache.invalidations
    );
    if report.warmed_keys > 0 {
        println!("warmed keys       {} per replica", report.warmed_keys);
    }
    if report.pretrain_updates > 0 {
        println!("pretrain updates  {}", report.pretrain_updates);
    }
    println!("score mean        {:.4}", report.score_mean);
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use het_serve::{ServeConfig, ServeSim};

    let mut cfg = ServeConfig::new(args.get_parsed("seed", 42)?);
    cfg.n_replicas = args.get_parsed("replicas", cfg.n_replicas)?;
    cfg.dim = args.get_parsed("dim", cfg.dim)?;
    cfg.n_fields = args.get_parsed("fields", cfg.n_fields)?;
    cfg.n_keys = args.get_parsed("keys", cfg.n_keys)?;
    cfg.cache_capacity = args.get_parsed("cache", cfg.cache_capacity)?;
    cfg.staleness = args.get_parsed("staleness", cfg.staleness)?;
    cfg.policy = policy_of(args.get("policy").unwrap_or("lightlfu"))?;
    cfg.arrival_rate = args.get_parsed("rate", cfg.arrival_rate)?;
    cfg.n_requests = args.get_parsed("requests", cfg.n_requests)?;
    cfg.zipf_exponent = args.get_parsed("zipf", cfg.zipf_exponent)?;
    cfg.max_batch = args.get_parsed("max-batch", cfg.max_batch)?;
    cfg.max_queue_delay = SimDuration::from_micros(args.get_parsed("max-delay-us", 200u64)?);
    cfg.pretrain_updates = args.get_parsed("pretrain-updates", cfg.pretrain_updates)?;
    cfg.warmup_requests = args.get_parsed("warmup", cfg.warmup_requests)?;
    cfg.n_shards = args.get_parsed("servers", cfg.n_shards)?;
    cfg.store = store_spec_of(args.get("store").unwrap_or("mem"))?;
    let drift_ms: f64 = args.get_parsed("drift-period-ms", 0.0)?;
    if drift_ms > 0.0 {
        cfg.drift_period = SimDuration::from_secs_f64(drift_ms / 1e3);
        cfg.drift_step = args.get_parsed("drift-step", 1u64)?;
    }
    let flash_at_ms: f64 = args.get_parsed("flash-at-ms", -1.0)?;
    if flash_at_ms >= 0.0 {
        cfg.flash_at =
            Some(het_simnet::SimTime::ZERO + SimDuration::from_secs_f64(flash_at_ms / 1e3));
        cfg.flash_duration =
            SimDuration::from_secs_f64(args.get_parsed("flash-dur-ms", 10.0)? / 1e3);
        cfg.flash_factor = args.get_parsed("flash-x", 4.0)?;
        cfg.flash_hot_keys = args.get_parsed("flash-hot", 64u64)?;
    }
    cfg.faults = fault_config_of(args)?;
    cfg.cluster = match args.get("network").unwrap_or("1gbe") {
        "10gbe" => ClusterSpec::cluster_b(cfg.n_replicas, cfg.n_shards),
        _ => ClusterSpec::cluster_a(cfg.n_replicas, cfg.n_shards),
    };
    if args.get_parsed("supervised", 0u8)? != 0 {
        cfg.supervision.enabled = true;
        cfg.supervision.heartbeat_every =
            SimDuration::from_micros(args.get_parsed("heartbeat-us", 250u64)?);
    }

    if let ExecutionBackend::Threads(n) = backend_of(args)? {
        // One OS thread per replica; the sim-only machinery (faults,
        // supervision, scripted plans, traces) stays on `--backend sim`
        // — `run_threaded_serve` rejects what slips past these checks.
        reject_sim_only_flags(args)?;
        cfg.n_replicas = n;
        let (n_fields, dim) = (cfg.n_fields, cfg.dim);
        let report = het_serve::run_threaded_serve(cfg, n, move |rng| {
            het_models::WideDeep::new(rng, n_fields, dim, &[32])
        })?;
        print_threaded_serve_report(&report);
        return Ok(());
    }

    // `--fault-plan` replaces the plan `cfg.faults` would derive;
    // either way the plan actually used is what `--fault-plan-dump`
    // writes.
    let fleet = if cfg.autoscale.enabled {
        cfg.autoscale.max_replicas
    } else {
        cfg.n_replicas
    };
    let plan = match fault_plan_override(args)? {
        Some(plan) => plan,
        None => cfg.faults.plan(cfg.seed, fleet, cfg.n_shards),
    };
    dump_fault_plan(args, &plan)?;

    let trace = TraceArgs::of(args);
    let traced = trace.begin("serve", cfg.seed);
    let (n_fields, dim) = (cfg.n_fields, cfg.dim);
    let report = ServeSim::with_plan(cfg, plan, move |rng| {
        het_models::WideDeep::new(rng, n_fields, dim, &[32])
    })
    .run();
    print_serve_report(&report);
    if traced {
        trace.write(&het_trace::finish())?;
    }
    Ok(())
}

fn print_serve_report(report: &het_serve::ServeReport) {
    println!("replicas          {}", report.n_replicas);
    println!(
        "cache             {} entries, policy {}, staleness {}",
        report.cache_capacity, report.policy, report.staleness
    );
    println!("requests          {}", report.requests);
    println!(
        "batches           {} (mean size {:.2})",
        report.batches, report.mean_batch_size
    );
    println!(
        "simulated time    {:.3} ms",
        report.sim_time_ns as f64 / 1e6
    );
    println!("throughput        {:.0} req/s", report.throughput_rps);
    println!(
        "latency           p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, max {:.1} us",
        report.latency_p50_ns as f64 / 1e3,
        report.latency_p95_ns as f64 / 1e3,
        report.latency_p99_ns as f64 / 1e3,
        report.latency_max_ns as f64 / 1e3
    );
    println!(
        "cache miss rate   {:.2} % ({} hits / {} misses / {} invalidations)",
        100.0 * report.cache.miss_rate(),
        report.cache.hits,
        report.cache.misses,
        report.cache.invalidations
    );
    if report.warmed_keys > 0 {
        println!("warmed keys       {} per replica", report.warmed_keys);
    }
    if report.pretrain_updates > 0 {
        println!("pretrain updates  {}", report.pretrain_updates);
    }
    let f = &report.faults;
    if f != &het_core::FaultStats::default() {
        println!("--- faults ---");
        println!(
            "replica crashes   {} ({} cached keys dropped cold)",
            f.worker_crashes, f.keys_lost
        );
        println!("shard failovers   {}", f.shard_failovers);
        println!("degraded reads    {}", f.degraded_reads);
    }
    let elastic = report.detections
        + report.respawns
        + report.retry_waits
        + report.scale_ups
        + report.scale_downs
        + report.migrated_keys;
    if elastic > 0 || report.split_done {
        println!("--- elasticity ---");
        println!(
            "detections        {} ({} respawns, worst recovery {:.1} us)",
            report.detections,
            report.respawns,
            report.max_recovery_ns as f64 / 1e3
        );
        println!("retry waits       {}", report.retry_waits);
        println!(
            "autoscaling       {} up / {} down",
            report.scale_ups, report.scale_downs
        );
        println!(
            "live split        {} keys migrated, done: {}",
            report.migrated_keys, report.split_done
        );
    }
    for r in &report.replicas {
        println!(
            "replica {}         {} reqs, {} batches, {} crashes, miss {:.2} %, p99 {:.1} us",
            r.replica,
            r.requests,
            r.batches,
            r.crashes,
            100.0 * r.cache.miss_rate(),
            r.p99_ns as f64 / 1e3
        );
    }
}

/// Co-schedules a live CTR trainer and a serving fleet on one cluster
/// runtime and one PS fabric (`het_serve::run_colocated`).
fn cmd_colocate(args: &Args) -> Result<(), String> {
    use het_core::Trainer;
    use het_data::{CtrConfig, CtrDataset};
    use het_serve::{run_colocated, ServeConfig};

    let seed: u64 = args.get_parsed("seed", 42)?;
    let workers: usize = args.get_parsed("workers", 4)?;
    let servers: usize = args.get_parsed("servers", 2)?;
    let iters: u64 = args.get_parsed("iters", 400)?;
    let staleness: u64 = args.get_parsed("staleness", 10)?;
    let preset = system_of(args.get("system").unwrap_or("het-cache"), staleness)?;

    let mut train_cfg = TrainerConfig::tiny(preset);
    train_cfg.cluster = ClusterSpec::cluster_a(workers, servers);
    train_cfg.max_iterations = iters;
    train_cfg.eval_every = (iters / 4).max(1);
    train_cfg.seed = seed;
    train_cfg.faults = fault_config_of(args)?;

    // The fleet shares the trainer's PS fabric, so its dim comes from
    // the trainer; shard count is synced inside `run_colocated`.
    let mut serve_cfg = ServeConfig::tiny(seed);
    serve_cfg.dim = train_cfg.dim;
    serve_cfg.n_replicas = args.get_parsed("replicas", serve_cfg.n_replicas)?;
    serve_cfg.cache_capacity = args.get_parsed("cache", serve_cfg.cache_capacity)?;
    serve_cfg.staleness = args.get_parsed("serve-staleness", serve_cfg.staleness)?;
    serve_cfg.policy = policy_of(args.get("policy").unwrap_or("lru"))?;
    serve_cfg.arrival_rate = args.get_parsed("rate", serve_cfg.arrival_rate)?;
    serve_cfg.n_requests = args.get_parsed("requests", serve_cfg.n_requests)?;
    serve_cfg.pretrain_updates = args.get_parsed("pretrain-updates", serve_cfg.pretrain_updates)?;
    serve_cfg.warmup_requests = args.get_parsed("warmup", serve_cfg.warmup_requests)?;

    if let ExecutionBackend::Threads(n) = backend_of(args)? {
        // Trainer workers and serving replicas each get a real OS
        // thread, sharing one live PS fabric; `threads:<n>` sizes the
        // trainer side, `--replicas` the fleet.
        reject_sim_only_flags(args)?;
        train_cfg.cluster = ClusterSpec::cluster_a(n, servers);
        let mut trainer = Trainer::new(train_cfg, CtrDataset::new(CtrConfig::tiny(seed)), |rng| {
            het_models::WideDeep::new(rng, 4, 8, &[16])
        });
        let (n_fields, dim) = (serve_cfg.n_fields, serve_cfg.dim);
        let replicas = serve_cfg.n_replicas;
        let (train, serve) =
            het_serve::run_threaded_colocated(&mut trainer, serve_cfg, replicas, move |rng| {
                het_models::WideDeep::new(rng, n_fields, dim, &[16])
            })?;
        println!("--- train ---");
        print_parallel_report(Workload::WdlCriteo, &train);
        println!("--- serve ---");
        print_threaded_serve_report(&serve);
        return Ok(());
    }

    let mut trainer = Trainer::with_cluster(
        train_cfg,
        CtrDataset::new(CtrConfig::tiny(seed)),
        |rng| het_models::WideDeep::new(rng, 4, 8, &[16]),
        serve_cfg.n_replicas,
        0,
    );
    if let Some(plan) = fault_plan_override(args)? {
        trainer.override_plan(plan);
    }
    dump_fault_plan(args, trainer.plan())?;
    let (n_fields, dim) = (serve_cfg.n_fields, serve_cfg.dim);

    let trace = TraceArgs::of(args);
    let traced = trace.begin("colocate", seed);
    let report = run_colocated(trainer, serve_cfg, move |rng| {
        het_models::WideDeep::new(rng, n_fields, dim, &[16])
    });
    println!("--- train ---");
    println!("system            {}", report.train.system);
    println!("final metric      {:.4}", report.train.final_metric);
    println!("iterations        {}", report.train.total_iterations);
    println!(
        "simulated time    {:.3} ms",
        report.train.total_sim_time.as_secs_f64() * 1e3
    );
    println!(
        "cache hit rate    {:.1} %",
        100.0 * report.train.cache.hit_rate()
    );
    let tf = &report.train.faults;
    if tf != &het_core::FaultStats::default() {
        println!("--- train faults ---");
        println!(
            "worker crashes    {} ({} dirty entries lost)",
            tf.worker_crashes, tf.dirty_entries_lost
        );
        println!("shard failovers   {}", tf.shard_failovers);
        println!("degraded reads    {}", tf.degraded_reads);
    }
    println!("--- serve ---");
    print_serve_report(&report.serve);
    if traced {
        trace.write(&het_trace::finish())?;
    }
    Ok(())
}

/// Runs the compound-failure chaos campaign (`het_serve::run_chaos`)
/// and gates on its SLO/RTO verdicts: single seed by default, a whole
/// sweep with `--seeds A..B`.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    use het_serve::{run_chaos, ChaosConfig};

    let mut cfg = ChaosConfig::tiny(args.get_parsed("seed", 42)?);
    cfg.workers = args.get_parsed("workers", cfg.workers)?;
    cfg.servers = args.get_parsed("servers", cfg.servers)?;
    cfg.train_iters = args.get_parsed("iters", cfg.train_iters)?;
    cfg.requests = args.get_parsed("requests", cfg.requests)?;
    cfg.arrival_rate = args.get_parsed("rate", cfg.arrival_rate)?;
    cfg.flash_factor = args.get_parsed("flash-x", cfg.flash_factor)?;
    cfg.slo_p99 =
        SimDuration::from_micros(args.get_parsed("slo-p99-us", cfg.slo_p99.as_nanos() / 1_000)?);
    cfg.rto = SimDuration::from_micros(args.get_parsed("rto-us", cfg.rto.as_nanos() / 1_000)?);
    dump_fault_plan(args, &cfg.fault_plan())?;

    if let Some(range) = args.get("seeds") {
        let (start, end) = seed_range_of(range)?;
        let mut failed = 0u64;
        for seed in start..end {
            cfg.seed = seed;
            let r = run_chaos(&cfg);
            if !r.healthy() {
                failed += 1;
                let s = &r.report.serve;
                println!(
                    "seed {seed}: FAIL (slo_ok={} p99={:.1}us, rto_ok={}, recovered_ok={}, split_ok={})",
                    r.slo_ok,
                    s.latency_p99_ns as f64 / 1e3,
                    r.rto_ok,
                    r.recovered_ok,
                    r.split_ok
                );
            }
        }
        println!(
            "chaos campaign: {} seeds, {} unhealthy",
            end - start,
            failed
        );
        if failed > 0 {
            return Err(format!("{failed} seed(s) failed the chaos gate"));
        }
        println!("verdict: PASS — every seed rode out the storm");
        return Ok(());
    }

    let trace = TraceArgs::of(args);
    let traced = trace.begin("chaos", cfg.seed);
    let report = run_chaos(&cfg);
    if traced {
        trace.write(&het_trace::finish())?;
    }
    println!("--- train ---");
    println!("system            {}", report.report.train.system);
    println!("final metric      {:.4}", report.report.train.final_metric);
    println!("iterations        {}", report.report.train.total_iterations);
    println!("--- serve ---");
    print_serve_report(&report.report.serve);
    println!("--- verdicts ---");
    let s = &report.report.serve;
    println!(
        "slo  p99          {:.1} us vs {:.1} us objective: {}",
        s.latency_p99_ns as f64 / 1e3,
        report.slo_p99_ns as f64 / 1e3,
        if report.slo_ok { "OK" } else { "VIOLATED" }
    );
    println!(
        "rto               {:.1} us vs {:.1} us objective: {}",
        s.max_recovery_ns as f64 / 1e3,
        report.rto_ns as f64 / 1e3,
        if report.rto_ok { "OK" } else { "VIOLATED" }
    );
    println!(
        "recovery          {}",
        if report.recovered_ok {
            "OK"
        } else {
            "INCOMPLETE"
        }
    );
    println!(
        "live split        {}",
        if report.split_ok { "OK" } else { "INCOMPLETE" }
    );
    if !report.healthy() {
        return Err("chaos gate failed".to_string());
    }
    println!("verdict: PASS");
    Ok(())
}

/// Runs the lookahead-depth sweep (`het_bench::prefetch_sweep`) on the
/// remote-PS CTR workload, prints the cycle-time table, and writes the
/// rows to `target/experiments/prefetch_sweep.json`. With `--gate F`
/// the command fails unless cycle time is monotonically non-increasing
/// in depth *and* the depth-4 row cuts cycle time by at least fraction
/// `F` vs depth 0 — the CI smoke gate.
fn cmd_prefetch_sweep(args: &Args) -> Result<(), String> {
    let iters: u64 = args.get_parsed("iters", 600)?;
    let depths: Vec<u64> = args.get_list("depths", vec![0, 1, 2, 4, 8])?;
    let gate: f64 = args.get_parsed("gate", 0.0)?;
    let dim: usize = args.get_parsed("dim", 0)?;
    let batch: usize = args.get_parsed("batch", 0)?;
    let workers: usize = args.get_parsed("workers", 0)?;
    let cache_frac: f64 = args.get_parsed("cache-frac", 0.0)?;
    let staleness: u64 = args.get_parsed("staleness", 0)?;
    let rows = het_bench::prefetch_sweep_with(&depths, iters, &|c| {
        if dim > 0 {
            c.dim = dim;
        }
        if batch > 0 {
            c.batch_size = batch;
        }
        if workers > 0 {
            c.cluster = ClusterSpec::cluster_a(workers, 1);
        }
        if cache_frac > 0.0 {
            *c = c.clone().with_cache(cache_frac, PolicyKind::light_lfu());
        }
        if staleness > 0 {
            if let SparseMode::Cached { staleness: s, .. } = &mut c.system.sparse {
                *s = staleness;
            }
        }
    });
    println!(
        "{:>6} {:>12} {:>9} {:>7} {:>10} {:>10} {:>8}",
        "depth", "cycle(us)", "speedup", "hit%", "installs", "pf-hits", "wasted"
    );
    for r in &rows {
        println!(
            "{:>6} {:>12.2} {:>8.2}x {:>6.1} {:>10} {:>10} {:>8}",
            r.depth,
            r.cycle_time_us,
            r.speedup_vs_demand,
            100.0 * r.cache_hit_rate,
            r.prefetch_installs,
            r.prefetch_hits,
            r.prefetch_wasted
        );
    }
    het_bench::out::write_json(
        "prefetch_sweep",
        &het_json::Json::Arr(rows.iter().map(het_json::ToJson::to_json).collect()),
    );
    let tracing = TraceArgs::of(args);
    if tracing.requested() {
        // One extra traced run (default: the deepest swept depth) for
        // the timeline where prefetch transfers overlap compute.
        let trace_depth: u64 =
            args.get_parsed("trace-depth", depths.last().copied().unwrap_or(0))?;
        let (_, log) = het_bench::prefetch_sweep_traced(trace_depth, iters);
        tracing.write(&log)?;
    }
    if gate > 0.0 {
        for w in rows.windows(2) {
            if w[1].cycle_time_us > w[0].cycle_time_us {
                return Err(format!(
                    "cycle time is not monotonically non-increasing: depth {} ({:.2} us) > \
                     depth {} ({:.2} us)",
                    w[1].depth, w[1].cycle_time_us, w[0].depth, w[0].cycle_time_us
                ));
            }
        }
        let depth4 = rows
            .iter()
            .find(|r| r.depth == 4)
            .ok_or("--gate needs a depth-4 row in the sweep")?;
        let reduction = 1.0 - depth4.cycle_time_us / rows[0].cycle_time_us;
        println!(
            "depth-4 cycle-time reduction: {:.1} % (gate {:.1} %)",
            100.0 * reduction,
            100.0 * gate
        );
        if reduction < gate {
            return Err(format!(
                "depth-4 cycle-time reduction {:.1} % is below the {:.1} % gate",
                100.0 * reduction,
                100.0 * gate
            ));
        }
        println!("verdict: PASS");
    }
    Ok(())
}

/// Runs the tiered-store sweep (`het_bench::store_sweep`): one
/// CTR-shaped Zipf stream at a paper-scale key space against the flat
/// in-memory baseline and a tiered cell per hot budget, printing the
/// memory-vs-disk crossover table and writing the rows to
/// `target/experiments/store_sweep.json`. With `--gate FLOOR` the
/// command fails unless every tiered cell stayed within its resident
/// budget, exercised the cold tier, and kept its hot hit rate at or
/// above FLOOR — the CI smoke gate proving 10⁷-key spaces run in
/// bounded memory.
fn cmd_store_sweep(args: &Args) -> Result<(), String> {
    let n_keys: u64 = args.get_parsed("keys", 10_000_000)?;
    let ops: u64 = args.get_parsed("ops", 1_000_000)?;
    let dim: usize = args.get_parsed("dim", 16)?;
    let gate: f64 = args.get_parsed("gate", 0.0)?;
    let hot_budgets: Vec<u64> = args.get_list("hot", vec![1 << 14, 1 << 16, 1 << 18])?;
    // Cold tiers spill to real segment files under target/experiments
    // by default, so host memory stays bounded at 10⁷–10⁸-key scale;
    // `--spill 0` keeps segments in memory (small sweeps only).
    let spill_dir = if args.get_parsed("spill", 1u8)? != 0 {
        Some(het_bench::out::experiments_dir().join("store_sweep_cold"))
    } else {
        None
    };
    let rows = het_bench::store_sweep(n_keys, ops, &hot_budgets, dim, spill_dir.clone());
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>7} {:>10} {:>8} {:>10}",
        "backend", "distinct", "resident", "res(MiB)", "hit%", "io(ms)", "compact", "wall(ms)"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12} {:>12} {:>10.1} {:>6.1} {:>10.2} {:>8} {:>10.0}",
            r.backend,
            r.distinct_keys,
            r.resident_rows,
            r.resident_mb,
            100.0 * r.hot_hit_rate,
            r.io_ms,
            r.compactions,
            r.wall_ms
        );
    }
    het_bench::out::write_json(
        "store_sweep",
        &het_json::Json::Arr(rows.iter().map(het_json::ToJson::to_json).collect()),
    );
    if let Some(d) = &spill_dir {
        // The cold logs are scratch, not an artifact.
        let _ = std::fs::remove_dir_all(d);
    }
    if gate > 0.0 {
        het_bench::store_sweep_gate(&rows, gate)?;
        println!("verdict: PASS (every tiered cell bounded, hot hit rate >= {gate:.2})");
    }
    Ok(())
}

/// Runs the eviction-policy shootout (`het_bench::policy_shootout`):
/// every scenario of the matrix (CTR/GNN training, prefetch on,
/// faulted, serve with hot-set drift, serve with a flash crowd) ×
/// every `PolicyKind`, printing the leaderboard and writing it to
/// `target/experiments/policy_shootout.json`. With `--gate MARGIN` the
/// command fails if on any scenario the adaptive meta-policy's hit
/// rate falls more than MARGIN (absolute) below the best fixed policy
/// — the CI gate proving the switcher tracks the per-workload winner.
fn cmd_policy_shootout(args: &Args) -> Result<(), String> {
    let iters: u64 = args.get_parsed("iters", 240)?;
    let requests: usize = args.get_parsed("requests", 2_400)?;
    let gate: f64 = args.get_parsed("gate", 0.0)?;
    let rows = het_bench::policy_shootout(iters, requests);
    println!(
        "{:<20} {:<10} {:>7} {:>12} {:>10}",
        "scenario", "policy", "hit%", "cycle(us)", "p99(us)"
    );
    for scenario in het_bench::SHOOTOUT_SCENARIOS {
        let mut cells: Vec<_> = rows.iter().filter(|r| r.scenario == scenario).collect();
        cells.sort_by(|a, b| b.hit_rate.total_cmp(&a.hit_rate));
        for r in cells {
            println!(
                "{:<20} {:<10} {:>6.1}% {:>12.2} {:>10.1}",
                r.scenario,
                r.policy,
                100.0 * r.hit_rate,
                r.cycle_time_us,
                r.p99_us
            );
        }
    }
    het_bench::out::write_json(
        "policy_shootout",
        &het_json::Json::Arr(rows.iter().map(het_json::ToJson::to_json).collect()),
    );
    if gate > 0.0 {
        het_bench::shootout_gate(&rows, gate)?;
        println!("verdict: PASS (adaptive within {gate:.2} of best fixed on every scenario)");
    }
    Ok(())
}

/// Parses `"A..B"` into a half-open index range.
fn seed_range_of(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--seeds: expected A..B, got '{s}'"))?;
    let start: u64 = a.parse().map_err(|_| format!("--seeds: bad start '{a}'"))?;
    let end: u64 = b.parse().map_err(|_| format!("--seeds: bad end '{b}'"))?;
    if end <= start {
        return Err(format!("--seeds: empty range '{s}'"));
    }
    Ok((start, end))
}

fn cmd_oracle(args: &Args) -> Result<(), String> {
    use het_oracle::fuzz::{read_repro, run_fuzz, run_scenario, FuzzConfig};

    if let Some(path) = args.get("repro") {
        let scenario = read_repro(std::path::Path::new(path))?;
        println!("replaying {path}");
        println!("scenario  {}", het_json::to_string(&scenario));
        return match run_scenario(&scenario).oracle {
            Ok(report) => {
                println!(
                    "verdict   PASS ({} events, {} computes, {} window reads)",
                    report.events, report.computes, report.window_reads
                );
                Ok(())
            }
            Err(v) => Err(format!(
                "violation reproduced: [{}] t={}ns worker={:?}: {}",
                v.check, v.t_ns, v.worker, v.message
            )),
        };
    }

    let (seed_start, seed_end) = seed_range_of(args.get("seeds").unwrap_or("0..100"))?;
    let out_dir = match args.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let target = std::env::var("CARGO_TARGET_DIR")
                .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
            std::path::PathBuf::from(target).join("oracle")
        }
    };
    let cfg = FuzzConfig {
        master_seed: args.get_parsed("master-seed", 0)?,
        seed_start,
        seed_end,
        max_iters: args.get_parsed("iters", 50)?,
        extra_staleness: args.get_parsed("sabotage-staleness", 0)?,
        out_dir: Some(out_dir),
        stop_after: args.get_parsed("stop-after", 0)?,
    };
    let outcome = run_fuzz(&cfg);
    println!(
        "oracle: {} runs (bsp {} / asp {} / ssp {}), {} cached, {} prefetched, {} tiered, \
         {} faulted",
        outcome.runs,
        outcome.by_sync[0],
        outcome.by_sync[1],
        outcome.by_sync[2],
        outcome.cached_runs,
        outcome.prefetch_runs,
        outcome.tiered_runs,
        outcome.faulted_runs
    );
    println!(
        "checked: {} iteration completions, {} staleness windows, {} barriers, \
         {} prefetch installs",
        outcome.computes, outcome.window_reads, outcome.barriers, outcome.prefetch_installs
    );
    if outcome.violations.is_empty() {
        println!("verdict: PASS — zero violations");
        return Ok(());
    }
    for caught in &outcome.violations {
        println!(
            "VIOLATION at index {} [{}]: {}",
            caught.index, caught.violation.check, caught.violation.message
        );
        println!(
            "  shrunk to workers={} iters={} ({} shrink runs)",
            caught.shrunk.workers, caught.shrunk.iters, caught.shrink_runs
        );
        if let Some(p) = &caught.repro_path {
            println!("  repro file: {}", p.display());
        }
    }
    Err(format!(
        "{} violation(s) found in {} runs",
        outcome.violations.len(),
        outcome.runs
    ))
}

/// Prints the value vocabularies and, from [`COMMANDS`], every
/// subcommand with the flags it reads.
fn cmd_list(_: &Args) -> Result<(), String> {
    println!("workloads: wdl dfm dcn reddit amazon mag");
    println!("systems:   tf-ps tf-parallax het-ps het-ar het-hybrid het-cache ssp");
    println!("policies:  lru lfu lightlfu[:T] clock slru lfuda gdsf adaptive[:W]");
    println!("backends:  sim threads:N    stores: mem tiered:HOT_ROWS    networks: 1gbe 10gbe");
    for (name, flags, _) in COMMANDS {
        let flags = flags.iter().flat_map(|g| g.split_whitespace());
        println!(
            "{name}:{}",
            flags.map(|f| format!(" --{f}")).collect::<String>()
        );
    }
    Ok(())
}

fn train_or_compare(args: &Args, compare: bool) -> Result<(), String> {
    let workload = workload_of(args.get("workload").unwrap_or("wdl"))?;
    let staleness: u64 = args.get_parsed("staleness", 100)?;
    let system_name = args.get("system").unwrap_or("het-cache").to_string();
    let preset = system_of(&system_name, staleness)?;
    if let ExecutionBackend::Threads(n) = backend_of(args)? {
        if compare {
            return Err(
                "compare is sim-only (its baselines are simulated); use --backend sim".to_string(),
            );
        }
        return run_one_threaded(workload, preset, args, n);
    }
    let trace = TraceArgs::of(args);
    let (summary, report, log) = run_one(workload, preset, args, trace.requested())?;
    print_report(workload, &system_name, &summary, &report);
    if let Some(log) = log {
        trace.write(&log)?;
    }
    if compare {
        let base_name = args.get("baseline").unwrap_or("het-hybrid").to_string();
        let base_preset = system_of(&base_name, staleness)?;
        let (base, base_report, _) = run_one(workload, base_preset, args, false)?;
        println!("\n--- baseline ---");
        print_report(workload, &base_name, &base, &base_report);
        println!("\n--- comparison ---");
        println!(
            "epoch-time speedup      {:.2}x",
            base.epoch_time_s / summary.epoch_time_s.max(f64::MIN_POSITIVE)
        );
        let reduction = if base.embedding_bytes > 0 {
            1.0 - summary.embedding_bytes as f64 / base.embedding_bytes as f64
        } else {
            0.0
        };
        println!("embedding comm reduction {:.1} %", 100.0 * reduction);
    }
    Ok(())
}

/// Every subcommand: its name, the groups of flags it reads (checked by
/// [`Args::parse`] before anything runs), and its entry point.
#[allow(clippy::type_complexity)]
const COMMANDS: &[(&str, &[&str], fn(&Args) -> Result<(), String>)] = &[
    ("train", &[TRAIN_FLAGS, FAULT_FLAGS, TRACE_FLAGS], |args| {
        train_or_compare(args, false)
    }),
    (
        "compare",
        &[TRAIN_FLAGS, "baseline", FAULT_FLAGS, TRACE_FLAGS],
        |args| train_or_compare(args, true),
    ),
    (
        "serve",
        &[
            "seed replicas dim fields keys cache staleness policy rate requests zipf max-batch \
             max-delay-us pretrain-updates warmup servers store drift-period-ms drift-step \
             flash-at-ms flash-dur-ms flash-x flash-hot network supervised heartbeat-us backend",
            FAULT_FLAGS,
            TRACE_FLAGS,
            PLAN_FLAGS,
        ],
        cmd_serve,
    ),
    (
        "colocate",
        &[
            "seed workers servers iters staleness system replicas cache serve-staleness policy \
             rate requests pretrain-updates warmup backend",
            FAULT_FLAGS,
            TRACE_FLAGS,
            PLAN_FLAGS,
        ],
        cmd_colocate,
    ),
    (
        "chaos",
        &[
            "seed seeds workers servers iters requests rate flash-x slo-p99-us rto-us \
             fault-plan-dump",
            TRACE_FLAGS,
        ],
        cmd_chaos,
    ),
    (
        "oracle",
        &["seeds iters master-seed stop-after sabotage-staleness out repro"],
        cmd_oracle,
    ),
    (
        "prefetch-sweep",
        &[
            "depths iters gate dim batch workers cache-frac staleness trace-depth",
            TRACE_FLAGS,
        ],
        cmd_prefetch_sweep,
    ),
    ("scale-sweep", &["threads iters gate"], cmd_scale_sweep),
    (
        "store-sweep",
        &["keys ops hot dim spill gate"],
        cmd_store_sweep,
    ),
    (
        "policy-shootout",
        &["iters requests gate"],
        cmd_policy_shootout,
    ),
    ("list", &[], cmd_list),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let names = |sep: &str| {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        names.join(sep)
    };
    let result = match argv.first() {
        None => Err(format!("usage: hetctl <{}> [--flag value ...]", names("|"))),
        Some(command) => match COMMANDS.iter().find(|c| c.0 == command) {
            None => Err(format!("unknown command '{command}' (try: {})", names(" "))),
            Some((_, flags, run)) => Args::parse(&argv[1..], flags).and_then(|args| run(&args)),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hetctl: {msg}");
            ExitCode::FAILURE
        }
    }
}
