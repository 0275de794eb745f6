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
//! hetctl exp      fig7
//! hetctl exp      prefetch-sweep [--depths 0,1,2,4,8 --iters 600 --gate 0.30]
//! hetctl list
//! ```
//!
//! Every flag that names a value — `--workload`, `--system`,
//! `--baseline`, `--policy`, `--store`, `--backend`, `--network` — takes
//! the spellings `hetctl list` prints, read by the value type's own
//! `FromStr` in the crate that defines it.
//!
//! `train`, `serve`, and `colocate` additionally take
//! `--backend sim|threads:<n>`: `sim` (the default) is the
//! deterministic discrete-event simulator, `threads:<n>` runs the same
//! job on n real OS threads (one per worker/replica) over the shared
//! PS fabric, reporting wall-clock throughput. A threaded training run
//! always collects a merged per-thread trace and replays it through
//! `het-oracle` before printing — the simulator stays the correctness
//! oracle.
//!
//! `exp <name>` runs one row of `het_bench::EXPERIMENTS` — a paper
//! figure or table, an ablation, or a sweep — through the same runner
//! `cargo bench -p het-bench` uses: it prints the records, writes them
//! to `target/experiments/<record>.json`, and with `--gate <threshold>`
//! (on the rows that have one) fails unless the records pass.
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
//! `--repro` replays such a file; a campaign also leaves its coverage
//! record in `target/experiments/oracle_fuzz.json`. `chaos` runs the
//! compound-failure campaign (`het_serve::run_chaos`) — 10× flash
//! crowd + replica crashes + PS-shard outage + live shard split over a
//! live trainer — and gates on its SLO/RTO verdicts; with `--seeds
//! A..B` it sweeps a whole seed range and fails on the first unhealthy
//! run.
//!
//! Every fault-capable subcommand also takes `--fault-plan FILE.json`
//! (replace the derived fault plan with an explicit scripted one) and
//! `--fault-plan-dump FILE.json` (write the plan actually used, in the
//! same format — dump, edit, replay).

use het_bench::{
    nearest, run_workload, run_workload_threaded, run_workload_traced, target_dir, Args, Table,
    TraceArgs, Workload, EXPERIMENTS, TRACE_FLAGS,
};
use het_cache::PolicyKind;
use het_core::config::SystemPreset::{HetCache, HetHybrid};
use het_core::config::{StoreSpec, SystemPreset, TrainerConfig};
use het_core::{FaultConfig, TrainReport};
use het_runtime::ExecutionBackend;
use het_simnet::{ClusterSpec, SimDuration};
use std::process::ExitCode;

/// Flag groups shared by several subcommands, whitespace-separated;
/// each subcommand's full list is in [`COMMANDS`].
const FAULT_FLAGS: &str = "fault-crashes fault-outages fault-stragglers fault-degradations \
                           fault-drop fault-horizon fault-checkpoint-every";
const PLAN_FLAGS: &str = "fault-plan fault-plan-dump";
const TRAIN_FLAGS: &str = "workload system staleness backend workers servers dim iters cache-frac \
                           policy network target lr lookahead store";

/// What `--network` reads: the link of the paper's cluster A or B.
const NETWORKS: &str = "1gbe 10gbe";

/// The cluster `--network` (default `1gbe`) names, of `workers` workers
/// and `servers` servers.
fn cluster_of(args: &Args, workers: usize, servers: usize) -> Result<ClusterSpec, String> {
    match args.get("network").unwrap_or("1gbe") {
        "1gbe" => Ok(ClusterSpec::cluster_a(workers, servers)),
        "10gbe" => Ok(ClusterSpec::cluster_b(workers, servers)),
        other => Err(format!(
            "--network: unknown network '{other}' (try: {NETWORKS})"
        )),
    }
}

/// Prints a training report on either backend: host lines (`backend`,
/// `wall time`, host throughput) only for a threaded run, modelled lines
/// (simulated and epoch time, comm fraction) only for a sim run.
fn print_train_report(workload: Workload, system: &str, report: &TrainReport) {
    let sim = report.backend == ExecutionBackend::Sim;
    println!("workload          {}", workload.name());
    println!("system            {system}");
    if !sim {
        println!("backend           {}", report.backend);
        println!("iterations        {}", report.total_iterations);
        println!("wall time         {:.3} ms", report.wall_ns as f64 / 1e6);
        println!("throughput        {:.1} iters/s", report.iters_per_wall_s());
    }
    println!("final metric      {:.4}", report.final_metric);
    if sim {
        println!(
            "simulated time    {:.3} s",
            report.total_sim_time.as_secs_f64()
        );
        println!("epoch time        {:.3} s", report.epoch_time());
    }
    println!("embedding bytes   {}", report.comm.embedding_bytes());
    println!("cache hit rate    {:.1} %", 100.0 * report.cache.hit_rate());
    if sim {
        println!(
            "comm fraction     {:.1} %",
            100.0 * report.breakdown.communication_fraction()
        );
    }
    match report.convergence_time() {
        Some(t) if sim => println!("time to target    {t:.3} s"),
        Some(t) => println!("time to target    {:.3} ms (wall)", t * 1e3),
        None => {}
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

/// Builds the fault-injection config from the `--fault-*` flags; with
/// no fault counted it is the zero spec (bit-identical to the fault-free
/// build).
fn fault_config_of(args: &Args) -> Result<FaultConfig, String> {
    let mut cfg = FaultConfig::disabled();
    cfg.spec.worker_crashes = args.get_parsed("fault-crashes", 0)?;
    cfg.spec.shard_outages = args.get_parsed("fault-outages", 0)?;
    cfg.spec.stragglers = args.get_parsed("fault-stragglers", 0)?;
    cfg.spec.link_degradations = args.get_parsed("fault-degradations", 0)?;
    cfg.spec.message_drop_prob = args.get_parsed("fault-drop", 0.0)?;
    let horizon_s: f64 = args.get_parsed("fault-horizon", 10.0)?;
    cfg.spec.horizon = SimDuration::from_secs_f64(horizon_s.max(0.001));
    cfg.checkpoint_every = args.get_parsed("fault-checkpoint-every", 50)?;
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
    let workers = thread_count(args, backend, "workers", "worker", 8)?;
    let servers: usize = args.get_parsed("servers", 1)?;
    let dim: usize = args.get_parsed("dim", 16)?;
    let iters: u64 = args.get_parsed("iters", 1_600)?;
    let cache_frac: f64 = args.get_parsed("cache-frac", 0.10)?;
    let policy = args.get_parsed("policy", PolicyKind::light_lfu())?;
    let cluster = cluster_of(args, workers, servers)?;
    let target: f64 = args.get_parsed("target", -1.0)?;
    let lr: f64 = args.get_parsed("lr", -1.0)?;
    let lookahead: u64 = args.get_parsed("lookahead", 0)?;
    let store = args.get_parsed("store", StoreSpec::Mem)?;
    let faults = fault_config_of(args)?;

    Ok(move |c: &mut TrainerConfig| {
        c.cluster = cluster;
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
) -> Result<(TrainReport, Option<het_trace::TraceLog>), String> {
    let tweak = train_tweak(args, ExecutionBackend::Sim)?;
    Ok(if traced {
        let (report, log) = run_workload_traced(workload, preset, &tweak);
        (report, Some(log))
    } else {
        (run_workload(workload, preset, &tweak), None)
    })
}

/// The preset `--<key>` names (default `default`) with its bound set to
/// `staleness`: a preset's spelling carries no staleness bound.
fn preset_flag(
    args: &Args,
    key: &str,
    default: SystemPreset,
    staleness: u64,
) -> Result<SystemPreset, String> {
    Ok(args.get_parsed(key, default)?.with_staleness(staleness))
}

/// The value of the count flag `--<flag>` (default `default`). On
/// `threads:<n>` the backend sets it — one OS thread per `unit` — and a
/// different `--<flag>` is an error rather than silently overridden.
fn thread_count(
    args: &Args,
    backend: ExecutionBackend,
    flag: &str,
    unit: &str,
    default: usize,
) -> Result<usize, String> {
    match (backend.threads(), args.get(flag)) {
        (Some(n), Some(v)) if v.parse() != Ok(n) => Err(format!(
            "--{flag} {v} conflicts with --backend threads:{n} (one thread per {unit})"
        )),
        (Some(n), _) => Ok(n),
        (None, _) => args.get_parsed(flag, default),
    }
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
    match het_oracle::check_replay(log, &het_oracle::OracleSpec::of(&config)) {
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
    print_train_report(workload, &preset.to_string(), &report);
    TraceArgs::of(args).write(log)?;
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use het_serve::{ServeConfig, ServeSim};

    let backend = args.get_parsed("backend", ExecutionBackend::Sim)?;
    let mut cfg = ServeConfig::new(args.get_parsed("seed", 42)?);
    cfg.n_replicas = thread_count(args, backend, "replicas", "replica", cfg.n_replicas)?;
    cfg.dim = args.get_parsed("dim", cfg.dim)?;
    cfg.n_fields = args.get_parsed("fields", cfg.n_fields)?;
    cfg.n_keys = args.get_parsed("keys", cfg.n_keys)?;
    cfg.cache_capacity = args.get_parsed("cache", cfg.cache_capacity)?;
    cfg.staleness = args.get_parsed("staleness", cfg.staleness)?;
    cfg.policy = args.get_parsed("policy", PolicyKind::light_lfu())?;
    cfg.arrival_rate = args.get_parsed("rate", cfg.arrival_rate)?;
    cfg.n_requests = args.get_parsed("requests", cfg.n_requests)?;
    cfg.zipf_exponent = args.get_parsed("zipf", cfg.zipf_exponent)?;
    cfg.max_batch = args.get_parsed("max-batch", cfg.max_batch)?;
    cfg.max_queue_delay = SimDuration::from_micros(args.get_parsed("max-delay-us", 200u64)?);
    cfg.pretrain_updates = args.get_parsed("pretrain-updates", cfg.pretrain_updates)?;
    cfg.warmup_requests = args.get_parsed("warmup", cfg.warmup_requests)?;
    cfg.n_shards = args.get_parsed("servers", cfg.n_shards)?;
    cfg.store = args.get_parsed("store", StoreSpec::Mem)?;
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
    cfg.cluster = cluster_of(args, cfg.n_replicas, cfg.n_shards)?;
    if args.get_parsed("supervised", 0u8)? != 0 {
        cfg.supervision.enabled = true;
        cfg.supervision.heartbeat_every =
            SimDuration::from_micros(args.get_parsed("heartbeat-us", 250u64)?);
    }

    if let ExecutionBackend::Threads(n) = backend {
        // One OS thread per replica; the sim-only machinery (faults,
        // supervision, scripted plans, traces) stays on `--backend sim`
        // — `run_threaded_serve` rejects what slips past these checks.
        reject_sim_only_flags(args)?;
        let (n_fields, dim) = (cfg.n_fields, cfg.dim);
        let report = het_serve::run_threaded_serve(cfg, n, move |rng| {
            het_models::WideDeep::new(rng, n_fields, dim, &[32])
        })?;
        print_serve_report(&report);
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

/// Prints a serving report on either backend: `backend` and `wall time`
/// only for a threaded run, `simulated time` only for a sim run.
/// Latency and throughput are on the clock of the backend that ran.
fn print_serve_report(report: &het_serve::ServeReport) {
    let sim = report.backend == ExecutionBackend::Sim;
    println!("replicas          {}", report.n_replicas);
    if !sim {
        println!("backend           {}", report.backend);
    }
    println!(
        "cache             {} entries, policy {}, staleness {}",
        report.cache_capacity, report.policy, report.staleness
    );
    println!("requests          {}", report.requests);
    println!(
        "batches           {} (mean size {:.2})",
        report.batches, report.mean_batch_size
    );
    if sim {
        println!(
            "simulated time    {:.3} ms",
            report.sim_time_ns as f64 / 1e6
        );
    } else {
        println!("wall time         {:.3} ms", report.wall_ns as f64 / 1e6);
    }
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

/// The train and serve halves of a co-scheduled run, each through its
/// one printer. The trainer is Wide&Deep on the CTR stream.
fn print_colocated_report(report: &het_serve::ColocatedReport) {
    println!("--- train ---");
    print_train_report(Workload::WdlCriteo, &report.train.system, &report.train);
    println!("--- serve ---");
    print_serve_report(&report.serve);
}

/// Co-schedules a live CTR trainer and a serving fleet on one cluster
/// runtime and one PS fabric (`het_serve::run_colocated`).
fn cmd_colocate(args: &Args) -> Result<(), String> {
    use het_core::Trainer;
    use het_data::{CtrConfig, CtrDataset};
    use het_serve::{run_colocated, ServeConfig};

    let backend = args.get_parsed("backend", ExecutionBackend::Sim)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let workers = thread_count(args, backend, "workers", "worker", 4)?;
    let servers: usize = args.get_parsed("servers", 2)?;
    let iters: u64 = args.get_parsed("iters", 400)?;
    let staleness: u64 = args.get_parsed("staleness", 10)?;
    let preset = preset_flag(args, "system", HetCache { staleness: 0 }, staleness)?;

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
    serve_cfg.policy = args.get_parsed("policy", PolicyKind::Lru)?;
    serve_cfg.arrival_rate = args.get_parsed("rate", serve_cfg.arrival_rate)?;
    serve_cfg.n_requests = args.get_parsed("requests", serve_cfg.n_requests)?;
    serve_cfg.pretrain_updates = args.get_parsed("pretrain-updates", serve_cfg.pretrain_updates)?;
    serve_cfg.warmup_requests = args.get_parsed("warmup", serve_cfg.warmup_requests)?;

    if backend != ExecutionBackend::Sim {
        // Trainer workers and serving replicas each get a real OS
        // thread, sharing one live PS fabric; `threads:<n>` sizes the
        // trainer side, `--replicas` the fleet.
        reject_sim_only_flags(args)?;
        let mut trainer = Trainer::new(train_cfg, CtrDataset::new(CtrConfig::tiny(seed)), |rng| {
            het_models::WideDeep::new(rng, 4, 8, &[16])
        });
        let (n_fields, dim) = (serve_cfg.n_fields, serve_cfg.dim);
        let replicas = serve_cfg.n_replicas;
        let report =
            het_serve::run_threaded_colocated(&mut trainer, serve_cfg, replicas, move |rng| {
                het_models::WideDeep::new(rng, n_fields, dim, &[16])
            })?;
        print_colocated_report(&report);
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
    print_colocated_report(&report);
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
    print_colocated_report(&report.report);
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
    // Fail before the campaign, not after it, when its record cannot be kept.
    het_bench::experiments_dir()?;
    let out_dir = match args.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => target_dir().join("oracle"),
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
    // The campaign's coverage record, beside the other experiments'.
    let mut record = Table::new(
        "oracle_fuzz",
        "master_seed runs bsp_runs asp_runs ssp_runs cached_runs faulted_runs computes \
         window_reads barriers violations",
    );
    record.push(&[
        &cfg.master_seed,
        &outcome.runs,
        &outcome.by_sync[0],
        &outcome.by_sync[1],
        &outcome.by_sync[2],
        &outcome.cached_runs,
        &outcome.faulted_runs,
        &outcome.computes,
        &outcome.window_reads,
        &outcome.barriers,
        &(outcome.violations.len() as u64),
    ]);
    record.write()?;
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

/// Prints the value vocabularies each flag's type reads and, from
/// [`COMMANDS`] and [`EXPERIMENTS`], every subcommand and experiment
/// with the flags it reads.
fn cmd_list(_: &Args) -> Result<(), String> {
    let workloads = Workload::ALL.map(|w| w.to_string()).join(" ");
    let systems = SystemPreset::ALL.map(|p| p.to_string()).join(" ");
    println!("workloads: {workloads}");
    println!("systems:   {systems}");
    println!("policies:  {}", PolicyKind::SPELLINGS);
    println!(
        "backends:  {}    stores: {}    networks: {}",
        ExecutionBackend::SPELLINGS,
        StoreSpec::SPELLINGS,
        NETWORKS
    );
    let line = |name: &str, flags: &[&str]| {
        let flags = flags.iter().flat_map(|g| g.split_whitespace());
        println!(
            "{name}:{}",
            flags.map(|f| format!(" --{f}")).collect::<String>()
        );
    };
    for (name, flags, _) in COMMANDS {
        line(name, flags);
    }
    for exp in EXPERIMENTS {
        line(&format!("exp {}", exp.name), exp.flags);
    }
    Ok(())
}

fn train_or_compare(args: &Args, compare: bool) -> Result<(), String> {
    let workload = args.get_parsed("workload", Workload::WdlCriteo)?;
    let staleness: u64 = args.get_parsed("staleness", 100)?;
    let preset = preset_flag(args, "system", HetCache { staleness: 0 }, staleness)?;
    if let ExecutionBackend::Threads(n) = args.get_parsed("backend", ExecutionBackend::Sim)? {
        if compare {
            return Err(
                "compare is sim-only (its baselines are simulated); use --backend sim".to_string(),
            );
        }
        return run_one_threaded(workload, preset, args, n);
    }
    let trace = TraceArgs::of(args);
    let (report, log) = run_one(workload, preset, args, trace.requested())?;
    print_train_report(workload, &preset.to_string(), &report);
    if let Some(log) = log {
        trace.write(&log)?;
    }
    if compare {
        let base_preset = preset_flag(args, "baseline", HetHybrid, staleness)?;
        let (base, _) = run_one(workload, base_preset, args, false)?;
        println!("\n--- baseline ---");
        print_train_report(workload, &base_preset.to_string(), &base);
        println!("\n--- comparison ---");
        println!(
            "epoch-time speedup      {:.2}x",
            base.epoch_time() / report.epoch_time().max(f64::MIN_POSITIVE)
        );
        let (bytes, base_bytes) = (report.comm.embedding_bytes(), base.comm.embedding_bytes());
        let reduction = if base_bytes > 0 {
            1.0 - bytes as f64 / base_bytes as f64
        } else {
            0.0
        };
        println!("embedding comm reduction {:.1} %", 100.0 * reduction);
    }
    Ok(())
}

/// Every subcommand but `exp` (whose flags are its experiment's): its
/// name, the groups of flags it reads (checked by [`Args::parse`] before
/// anything runs), and its entry point.
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
    ("list", &[], cmd_list),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let names = || COMMANDS.iter().map(|c| c.0).chain(["exp"]);
    let result = match argv.first().map(String::as_str) {
        None => {
            let names: Vec<&str> = names().collect();
            Err(format!(
                "usage: hetctl <{}> [--flag value ...]",
                names.join("|")
            ))
        }
        Some("exp") => match argv.get(1) {
            None => Err("usage: hetctl exp <name> [--flag value ...] (see `hetctl list`)".into()),
            Some(name) => het_bench::run_experiment(name, &argv[2..]),
        },
        Some(command) => match COMMANDS.iter().find(|c| c.0 == command) {
            None => Err(format!(
                "unknown command '{command}' (did you mean {}?)",
                nearest(command, names()).unwrap_or("list")
            )),
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
