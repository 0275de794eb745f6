//! One workload, one pass: the timed reps (`--trace 0`) or the layer
//! pass (`--trace 1`), with the correctness gate of each.

use crate::e2e::*;
use crate::jobs::*;
use crate::probes::{self, ProbeInput};
use crate::spans::{self, NoSpans, Recorder, Span};
use crate::spec;
use crate::stats::{fastest_per_step, percentile_sorted, quartiles, window_percentiles};
use crate::steps::{self, StepRun};
use het::json::Json;
use het::prelude::*;
use het::trace::replay::ReplayLog;
use het_oracle::{check_replay, OracleSpec};
use std::time::Instant;

/// Job sizes. Counts, never durations.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub wdl_iterations: u64,
    pub gnn_iterations: u64,
    pub asp_iterations: u64,
    pub serve_requests: usize,
    pub serve_pretrain: u64,
    pub serve_warmup: usize,
    /// `--quick`: one rep, checks only, quality floors off.
    pub quick: bool,
}

impl Sizes {
    /// ISSUE 11's counts.
    pub const FULL: Sizes = Sizes {
        wdl_iterations: 720,
        gnn_iterations: 480,
        asp_iterations: 1_440,
        serve_requests: 1_000_000,
        serve_pretrain: 50_000,
        serve_warmup: 20_000,
        quick: false,
    };

    /// A tenth of every count: the CI smoke.
    pub const QUICK: Sizes = Sizes {
        wdl_iterations: 72,
        gnn_iterations: 48,
        asp_iterations: 144,
        serve_requests: 100_000,
        serve_pretrain: 5_000,
        serve_warmup: 2_000,
        quick: true,
    };
}

const BSP: SystemPreset = SystemPreset::HetCache { staleness: 100 };

fn wdl_job(seed: u64, sizes: &Sizes) -> WdlJob {
    WdlJob {
        seed,
        iterations: sizes.wdl_iterations,
        workers: 8,
    }
}

fn gnn_job(seed: u64, iterations: u64, preset: SystemPreset) -> GnnJob {
    GnnJob {
        seed,
        iterations,
        preset,
    }
}

fn serve_job(seed: u64, sizes: &Sizes) -> ServeJob {
    ServeJob {
        seed,
        requests: sizes.serve_requests,
        pretrain_updates: sizes.serve_pretrain,
        warmup_requests: sizes.serve_warmup,
    }
}

/// What one invocation reports.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Quartiles and sample counts behind the medians.
    pub detail: Vec<(String, Json)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// One value per rep, reduced to the run's value by `pick`; the
    /// reps and their quartiles are kept as detail.
    fn rep_metric(&mut self, name: &str, values: &[f64], pick: Pick) {
        let value = match pick {
            Pick::Median => quartiles(values).1,
            Pick::FastestRate => values.iter().copied().fold(f64::MIN, f64::max),
        };
        self.metric(name, value);
        self.rep_detail(name, values);
    }

    fn rep_detail(&mut self, name: &str, values: &[f64]) {
        let (q1, med, q3) = quartiles(values);
        self.detail.push((
            name.to_string(),
            Json::Obj(vec![
                ("q1".to_string(), Json::Num(q1)),
                ("median".to_string(), Json::Num(med)),
                ("q3".to_string(), Json::Num(q3)),
                ("n".to_string(), Json::UInt(values.len() as u64)),
            ]),
        ));
    }

    /// p50 and p99 of the step periods: `value(q)` is the run's figure,
    /// and the same percentile of each rep's pooled periods is kept as
    /// detail.
    fn period_metrics(&mut self, per_rep: Vec<Vec<u64>>, value: impl Fn(f64) -> u64) {
        let per_rep: Vec<Vec<u64>> = per_rep.into_iter().map(sorted).collect();
        for (name, q) in [(spec::BATCH_US_P50, 0.50), (spec::BATCH_US_P99, 0.99)] {
            self.metric(name, value(q) as f64 / 1e3);
            let col: Vec<f64> = per_rep
                .iter()
                .map(|v| percentile_sorted(v, q) as f64 / 1e3)
                .collect();
            self.rep_detail(name, &col);
        }
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// How a run reduces its reps to one value.
///
/// Host-time metrics take the fastest rep. Interference on a shared
/// 2-vCPU host only ever slows a rep down, and it comes in bursts
/// longer than a rep, so the fastest rep is the least contaminated
/// estimate of the program's own speed: over ten runs on a busy host the
/// median of reps spread 4–10 %, the fastest rep 1–6 % (README, "Why
/// fastest rep"). The step periods go one further: training takes the
/// fastest observation of every single step ([`fastest_per_step`]),
/// serving the quietest quarter of its windows ([`SERVE_WINDOW`]).
/// Set-up time and the quality metric take the median.
#[derive(Clone, Copy)]
enum Pick {
    Median,
    FastestRate,
}

/// No run needs more reps than this, however short they are.
const MAX_REPS: usize = 64;

/// Runs reps of `ops` operations each until `--seconds` is used up.
/// `rep` runs one fresh job and checks it (it sees the reps that already
/// passed); an `Err`, a panic or a failed check fails every operation of
/// that rep.
fn timed_reps<O>(
    out: &mut RunResult,
    seconds: f64,
    quick: bool,
    ops: u64,
    mut rep: impl FnMut(&[O]) -> Result<O, String>,
) -> Vec<O> {
    let start = Instant::now();
    let mut reps = Vec::new();
    for _ in 0..MAX_REPS {
        let t_rep = Instant::now();
        out.attempted += ops;
        match rep(&reps) {
            Ok(o) => reps.push(o),
            Err(e) => out.fail(ops, e),
        }
        // Another rep only if one as long as the last still fits.
        let fits = (start.elapsed() + t_rep.elapsed()).as_secs_f64() <= seconds;
        if quick || !fits {
            break;
        }
    }
    reps
}

/// The sim twin a threaded training workload is compared with.
struct Twin<'a, T: TrainJob> {
    job: &'a T,
    /// The twin is the identical job: the threaded result must equal it
    /// bit for bit (BSP). Otherwise it only supplies `modelled_s`.
    bit_identical: bool,
}

fn e2e_train<J: TrainJob, T: TrainJob>(
    job: &J,
    backend: Backend,
    twin: Option<Twin<'_, T>>,
    seconds: f64,
    quick: bool,
) -> RunResult {
    let mut out = RunResult::default();
    // The twin runs inside the `--seconds` budget, before the reps.
    let t_twin = Instant::now();
    let twin_out = twin.as_ref().and_then(|t| {
        train_rep(t.job, Backend::Sim, false)
            .map_err(|e| out.failures.push(format!("sim twin: {e}")))
            .ok()
    });
    let seconds = seconds - t_twin.elapsed().as_secs_f64();
    let requested = job.config().max_iterations;
    let reps = timed_reps(
        &mut out,
        seconds,
        quick,
        requested,
        |earlier: &[TrainOutcome]| {
            let o = train_rep(job, backend, false)?;
            if o.completed != requested {
                return Err(format!(
                    "completed {} of {requested} iterations",
                    o.completed
                ));
            }
            if !quick && (o.final_metric.is_nan() || o.final_metric < job.metric_floor()) {
                return Err(format!(
                    "final metric {} below the floor {}",
                    o.final_metric,
                    job.metric_floor()
                ));
            }
            if backend == Backend::Sim {
                if let Some(first) = earlier.first() {
                    same_sim_outputs(first, &o)?;
                }
            } else if let (
                Some(Twin {
                    bit_identical: true,
                    ..
                }),
                Some(sim),
            ) = (&twin, &twin_out)
            {
                bsp_matches_sim(&o, sim)?;
            }
            Ok(o)
        },
    );
    if reps.is_empty() {
        return out;
    }
    let col = |f: fn(&TrainOutcome) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    out.rep_metric(spec::SETUP_S, &col(|r| r.setup_s), Pick::Median);
    out.rep_metric(
        spec::ITERS_PER_S,
        &col(TrainOutcome::iters_per_s),
        Pick::FastestRate,
    );
    out.rep_metric(
        spec::REQ_PER_S,
        &col(|r| r.iters_per_s() * BATCH as f64),
        Pick::FastestRate,
    );
    let modelled = reps[0]
        .sim
        .as_ref()
        .or(twin_out.as_ref().and_then(|t| t.sim.as_ref()));
    match modelled {
        Some(sim) => out.metric(spec::MODELLED_S, sim.total_sim_time_ns as f64 / 1e9),
        None => out
            .failures
            .push("no modelled time: the sim twin failed".to_string()),
    }
    out.rep_metric(spec::FINAL_METRIC, &col(|r| r.final_metric), Pick::Median);
    // A worker's batch `i` is the same batch in every rep, so its period
    // is the same work: keep the fastest observation of each.
    let n_workers = reps[0].periods_ns.len();
    let per_step: Vec<u64> = (0..n_workers)
        .flat_map(|w| {
            let lanes: Vec<&[u64]> = reps.iter().map(|r| r.periods_ns[w].as_slice()).collect();
            fastest_per_step(&lanes)
        })
        .collect();
    let per_step = sorted(per_step);
    let per_rep = reps.iter().map(|r| r.periods_ns.concat()).collect();
    out.period_metrics(per_rep, |q| percentile_sorted(&per_step, q));
    out
}

/// Requests of the serving twin as a share of the job's: `ServeSim`
/// walks an event queue per request, so the full job would cost more
/// host time than the reps it accompanies.
const SERVE_TWIN_SHARE: usize = 10;

fn serve_twin(job: &ServeJob) -> ServeJob {
    ServeJob {
        requests: job.requests / SERVE_TWIN_SHARE,
        ..*job
    }
}

/// Micro-batches per window of the serving step periods: 50 samples
/// beyond a window's p99, and some 200 windows in a 24 s pass. The host's
/// slow spells last seconds and come and go within a pass (the p99 of
/// whole reps spread 16 % over eight passes of the same code, the lower
/// quartile of these windows 5 %).
const SERVE_WINDOW: usize = 5_000;

fn e2e_serve(job: &ServeJob, seconds: f64, quick: bool) -> RunResult {
    let mut out = RunResult::default();
    let t_twin = Instant::now();
    let modelled = serve_twin_modelled_s(&serve_twin(job))
        .map_err(|e| out.failures.push(format!("sim twin: {e}")))
        .ok();
    let seconds = seconds - t_twin.elapsed().as_secs_f64();
    let requested = job.requests as u64;
    let reps = timed_reps(
        &mut out,
        seconds,
        quick,
        requested,
        |_: &[ServeOutcome]| {
            let o = serve_rep(job, THREADS)?;
            if o.served != requested {
                return Err(format!(
                    "served {} of {requested} scheduled requests",
                    o.served
                ));
            }
            if o.bad_scores > 0 {
                return Err(format!("{} served scores outside (0, 1)", o.bad_scores));
            }
            Ok(o)
        },
    );
    if reps.is_empty() {
        return out;
    }
    let col = |f: fn(&ServeOutcome) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    out.rep_metric(spec::SETUP_S, &col(|r| r.setup_s), Pick::Median);
    out.rep_metric(
        spec::ITERS_PER_S,
        &col(|r| r.batches as f64 / r.wall_s),
        Pick::FastestRate,
    );
    out.rep_metric(spec::REQ_PER_S, &col(|r| r.req_per_s), Pick::FastestRate);
    if let Some((s, _)) = modelled {
        out.metric(spec::MODELLED_S, s);
    }
    // The fleet's quality figure: the share of lookups its caches
    // served without a PS pull.
    out.rep_metric(
        spec::FINAL_METRIC,
        &col(|r| r.cache.hit_rate()),
        Pick::Median,
    );
    // Which replica claims which micro-batch differs between reps, so
    // steps cannot be matched across them as training's are. Instead:
    // the percentile of every window of one replica's consecutive
    // micro-batches, and of those the lower quartile.
    let lanes: Vec<&[u64]> = reps
        .iter()
        .flat_map(|r| r.periods_ns.iter().map(Vec::as_slice))
        .collect();
    let quiet_quarter = |q: f64| {
        let windows = sorted(window_percentiles(&lanes, SERVE_WINDOW, q));
        percentile_sorted(&windows, 0.25)
    };
    let per_rep = reps.iter().map(|r| r.periods_ns.concat()).collect();
    out.period_metrics(per_rep, quiet_quarter);
    out
}

/// The timed reps of one workload: every end-to-end metric.
pub fn run_end_to_end(workload: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> RunResult {
    let quick = sizes.quick;
    let no_twin = None::<Twin<'_, GnnJob>>;
    let mut out = match workload {
        Workload::WdlSim => e2e_train(&wdl_job(seed, sizes), Backend::Sim, no_twin, seconds, quick),
        Workload::GnnSim => e2e_train(
            &gnn_job(seed, sizes.gnn_iterations, BSP),
            Backend::Sim,
            no_twin,
            seconds,
            quick,
        ),
        Workload::GnnThreadsBsp => {
            let job = gnn_job(seed, sizes.gnn_iterations, BSP);
            let twin = Twin {
                job: &job,
                bit_identical: true,
            };
            e2e_train(&job, Backend::Threads, Some(twin), seconds, quick)
        }
        Workload::GnnThreadsAsp => {
            let job = gnn_job(seed, sizes.asp_iterations, SystemPreset::HetPs);
            // A third of the job: ASP's modelled time is linear in the
            // iteration count, and the full twin would cost 5 s a run.
            let third = gnn_job(seed, sizes.asp_iterations / 3, SystemPreset::HetPs);
            let twin = Twin {
                job: &third,
                bit_identical: false,
            };
            e2e_train(&job, Backend::Threads, Some(twin), seconds, quick)
        }
        Workload::ServeThreads => e2e_serve(&serve_job(seed, sizes), seconds, quick),
    };
    match peak_rss_mb() {
        Ok(mb) => out.metric(spec::PEAK_RSS_MB, mb),
        Err(e) => out.failures.push(e),
    }
    out
}

/// Warm and recorded micro-batches of the serving step trace. (A
/// training step trace records exactly worker 0's share of the job, from
/// its cold start, so its time per step is comparable with the job's.)
const SERVE_STEPS: (u32, u32) = (2_000, 10_000);

/// What the layer pass needs from a workload, whatever its job type.
struct LayerInputs {
    /// The step trace with spans on, and the same driver with spans off.
    traced: StepRun,
    plain: StepRun,
    spans: Vec<Span>,
    /// Serving steps before the recorded ones (0 for training).
    warm: u32,
    dim: usize,
    cache_capacity: usize,
    ps: PsConfig,
    first_layer: (usize, usize, usize),
}

/// Step-trace metrics, counts and probes: everything that does not need
/// a run of the real entry point.
fn layer_metrics(inputs: &LayerInputs, serving: bool, quick: bool, out: &mut RunResult) {
    let t = &inputs.traced;
    let steps = f64::from(t.recorded);
    // Mean self time per recorded step of one span name, in microseconds.
    let by_name = spans::self_time_by_name(&inputs.spans, inputs.warm);
    let span_us = |name: &str| {
        by_name
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e3 / steps)
    };
    let per_key = |us: f64, keys: u64| {
        if keys == 0 {
            0.0
        } else {
            us * 1e3 * steps / keys as f64
        }
    };
    let read_us = span_us(steps::SPAN_READ);
    let write_us = span_us(steps::SPAN_WRITE);
    out.metric("het_data.batch_us", span_us(steps::SPAN_DATA));
    out.metric("het_core.read_us", read_us);
    out.metric("het_core.read_ns_per_key", per_key(read_us, t.keys_read));
    out.metric("het_core.write_us", write_us);
    // A serving trim touches the keys just read, not the few it drops.
    let written = if serving { t.keys_read } else { t.keys_written };
    out.metric("het_core.write_ns_per_key", per_key(write_us, written));
    if serving {
        out.metric("het_models.fwd_bwd_us", t.off_path_fwd_bwd_us);
        out.metric("het_models.forward_us", span_us(steps::SPAN_FORWARD));
        out.metric("het_tensor.dense_step_us", t.off_path_dense_us);
    } else {
        out.metric("het_models.fwd_bwd_us", span_us(steps::SPAN_COMPUTE));
        out.metric("het_models.forward_us", t.off_path_forward_us);
        out.metric("het_tensor.dense_step_us", span_us(steps::SPAN_DENSE));
    }

    let probe_input = ProbeInput {
        stream: &t.key_stream,
        dim: inputs.dim,
        cache_capacity: inputs.cache_capacity,
        ps: inputs.ps,
        first_layer: inputs.first_layer,
    };
    // The smoke checks; it does not measure (and its tenth-size key
    // stream would not overflow a cache anyway).
    if !quick {
        let mut probed = Vec::new();
        let ran = probes::tensor_probes(&probe_input, &mut probed)
            .and_then(|()| probes::cache_probes(&probe_input, &mut probed))
            .and_then(|()| probes::ps_probes(&probe_input, &mut probed))
            .and_then(|()| probes::store_probes(&probe_input, &mut probed))
            .and_then(|()| probes::runtime_probes(&mut probed));
        if let Err(e) = ran {
            out.failures.push(format!("layer probe: {e}"));
        }
        out.metrics.extend(probed);
    }

    out.metric("het_cache.hit_rate", t.cache.hit_rate());
    out.metric(
        "het_cache.evictions_per_iter",
        t.cache.capacity_evictions as f64 / steps,
    );
    out.metric("het_ps.pulls_per_iter", t.pulls as f64 / steps);
    out.metric("het_ps.pushes_per_iter", t.pushes as f64 / steps);
    out.metric(
        "bench.trace_overhead_frac",
        t.us_per_step() / inputs.plain.us_per_step() - 1.0,
    );
    // The step driver is deterministic: with and without spans it must
    // have seen the same keys and counters.
    if t.key_stream != inputs.plain.key_stream || t.cache != inputs.plain.cache {
        out.failures
            .push("the step driver's two runs saw different key streams".to_string());
    }
}

/// Replays a het-trace log through the oracle; returns events per host
/// second.
fn oracle_replay(
    log: &het::trace::TraceLog,
    config: &TrainerConfig,
    completed: u64,
) -> Result<f64, String> {
    let replay = ReplayLog::from(log);
    let t = Instant::now();
    let report = check_replay(&replay, &OracleSpec::of(config))
        .map_err(|v| format!("oracle violation [{}]: {}", v.check, v.message))?;
    let secs = t.elapsed().as_secs_f64();
    if report.computes != completed {
        return Err(format!(
            "the oracle saw {} iterations, the report {completed}",
            report.computes
        ));
    }
    Ok(report.events as f64 / secs)
}

/// The layer pass of a training workload. `resized` is the job pair the
/// thread speed-up is read from where the job itself cannot run on
/// [`THREADS`] workers (or is too long to run twice more); `None` means
/// the job itself, whose reference rep then serves as one side.
fn layers_train<J: TrainJob, S: TrainJob>(
    job: &J,
    backend: Backend,
    resized: Option<&S>,
    quick: bool,
    out_dir: &std::path::Path,
    name: &str,
) -> RunResult {
    let mut out = RunResult::default();
    let config = job.config();
    let requested = config.max_iterations;

    // 1. Step trace, spans on and off.
    let recorded = (requested / config.cluster.n_workers as u64) as u32;
    let mut recorder = Recorder::with_capacity(recorded as usize * 6);
    let traced = steps::train_steps(job, recorded, &mut recorder);
    let plain = steps::train_steps(job, recorded, &mut NoSpans);
    let spans = recorder.into_spans();
    let n_keys = job.dataset().n_keys();
    let inputs = LayerInputs {
        traced,
        plain,
        spans,
        warm: 0,
        dim: config.dim,
        cache_capacity: steps::cache_capacity(&config, n_keys)
            .unwrap_or_else(|| (n_keys / 10).max(1)),
        ps: steps::trainer_ps_config(&config),
        first_layer: job.first_layer_shape(),
    };
    layer_metrics(&inputs, false, quick, &mut out);
    write_trace(out_dir, name, &inputs.spans, &mut out);

    // 2. One untraced reference rep of the real entry point.
    out.attempted += requested;
    let reference = train_rep(job, backend, false)
        .and_then(|o| completed_all(&o, requested).map(|()| o))
        .map_err(|e| out.fail(requested, e))
        .ok();

    // 3. The same rep inside het-trace, replayed through the oracle.
    let traced_rep = train_rep(job, backend, true);
    match (&reference, traced_rep) {
        (Some(reference), Ok(mut t)) => {
            out.metric(
                "het_trace.on_overhead_frac",
                1.0 - t.iters_per_s() / reference.iters_per_s(),
            );
            let log = t.trace.take().expect("a traced rep returns its log");
            out.metric(
                "het_trace.events_per_iter",
                log.events.len() as f64 / t.completed as f64,
            );
            match oracle_replay(&log, &config, t.completed) {
                Ok(rate) => out.metric("het_oracle.replay_events_per_s", rate),
                Err(e) => out.failures.push(e),
            }
        }
        (_, Err(e)) => out.failures.push(format!("traced rep: {e}")),
        (None, Ok(_)) => {}
    }

    // 4. Both schedulers on the speed-up pair. Without a resized pair
    // the job is its own pair and the reference rep is one side of it.
    let own = |side: Backend| resized.is_none() && side == backend;
    let mut pair_rep = |side: Backend| {
        if own(side) {
            return None;
        }
        match resized {
            Some(pair) => train_rep(pair, side, false),
            None => train_rep(job, side, false),
        }
        .map_err(|e| out.failures.push(format!("speed-up pair: {e}")))
        .ok()
    };
    let (ran_sim, ran_threads) = (pair_rep(Backend::Sim), pair_rep(Backend::Threads));
    let sim_side = if own(Backend::Sim) {
        reference.as_ref()
    } else {
        ran_sim.as_ref()
    };
    let thread_side = if own(Backend::Threads) {
        reference.as_ref()
    } else {
        ran_threads.as_ref()
    };
    if let (Some(s), Some(t)) = (sim_side, thread_side) {
        out.metric("thread_speedup", t.iters_per_s() / s.iters_per_s());
        let pair_sync = resized.map_or(config.system.sync, |p| p.config().system.sync);
        if pair_sync == SyncMode::Bsp {
            if let Err(e) = bsp_matches_sim(t, s) {
                out.failures.push(e);
            }
        }
    }

    // 5. Derived shares and the modelled side.
    if let Some(reference) = &reference {
        let threads = match backend {
            Backend::Sim => 1.0,
            Backend::Threads => config.cluster.n_workers as f64,
        };
        let thread_us_per_iter = threads * 1e6 / reference.iters_per_s();
        out.metric(
            "het_core.trainer_overhead_frac",
            1.0 - inputs.plain.us_per_step() / thread_us_per_iter,
        );
    }
    out.metric("het_serve.loop_overhead_frac", 0.0);
    // The modelled breakdown comes from a sim report of the workload's
    // own job where there is one, of the speed-up pair's otherwise.
    let sim_report = [reference.as_ref(), sim_side]
        .into_iter()
        .flatten()
        .find_map(|r| r.sim.as_ref().map(|s| (s, r.completed as f64)));
    match sim_report {
        Some((sim, iters)) => {
            let ms = |ns: u64| ns as f64 / 1e6 / iters;
            out.metric(
                "het_simnet.comm_bytes_per_iter",
                sim.comm.total_bytes() as f64 / iters,
            );
            out.metric("het_simnet.modelled_read_ms", ms(sim.breakdown_ns[0]));
            out.metric("het_simnet.modelled_compute_ms", ms(sim.breakdown_ns[1]));
            out.metric("het_simnet.modelled_write_ms", ms(sim.breakdown_ns[2]));
            out.metric("het_simnet.modelled_dense_ms", ms(sim.breakdown_ns[3]));
        }
        None => out
            .failures
            .push("no sim report for the modelled breakdown".to_string()),
    }
    out
}

fn layers_serve(job: &ServeJob, quick: bool, out_dir: &std::path::Path, name: &str) -> RunResult {
    let mut out = RunResult::default();
    let cfg = job.config();
    let (warm, recorded) = SERVE_STEPS;
    let mut recorder = Recorder::with_capacity((warm + recorded) as usize * 5);
    let traced = steps::serve_steps(job, warm, recorded, &mut recorder);
    let plain = steps::serve_steps(job, warm, recorded, &mut NoSpans);
    let inputs = LayerInputs {
        traced,
        plain,
        spans: recorder.into_spans(),
        warm,
        dim: cfg.dim,
        cache_capacity: cfg.cache_capacity,
        ps: ServeJob::ps_config(&cfg),
        first_layer: job.first_layer_shape(),
    };
    layer_metrics(&inputs, true, quick, &mut out);
    write_trace(out_dir, name, &inputs.spans, &mut out);

    let requested = job.requests as u64;
    out.attempted += requested;
    let reference = serve_rep(job, THREADS)
        .and_then(|o| served_all(&o, requested).map(|()| o))
        .map_err(|e| out.fail(requested, e))
        .ok();
    // One thread against two, on a quarter of the requests.
    let quarter = ServeJob {
        requests: job.requests / 4,
        ..*job
    };
    match (serve_rep(&quarter, 1), serve_rep(&quarter, THREADS)) {
        (Ok(one), Ok(two)) => out.metric("thread_speedup", two.req_per_s / one.req_per_s),
        (Err(e), _) | (_, Err(e)) => out.failures.push(format!("speed-up pair: {e}")),
    }
    out.metric("het_core.trainer_overhead_frac", 0.0);
    if let Some(reference) = &reference {
        let periods = sorted(reference.periods_ns.concat());
        let p50_us = percentile_sorted(&periods, 0.5) as f64 / 1e3;
        out.metric(
            "het_serve.loop_overhead_frac",
            1.0 - inputs.plain.us_per_step() / p50_us,
        );
    }

    // The modelled side and het-trace's cost come from the sim twin:
    // replica threads run their own (disabled) collectors, so a threaded
    // fleet cannot be traced from outside.
    let twin = serve_twin(job);
    let t_plain = Instant::now();
    let plain_twin = serve_twin_modelled_s(&twin);
    let plain_s = t_plain.elapsed().as_secs_f64();
    het::trace::start(Vec::new());
    let t_traced = Instant::now();
    let traced_twin = serve_twin_modelled_s(&twin);
    let traced_s = t_traced.elapsed().as_secs_f64();
    let log = het::trace::finish();
    match (plain_twin, traced_twin) {
        (Ok((_, report)), Ok(_)) => {
            let batches = report.batches as f64;
            out.metric("het_trace.on_overhead_frac", 1.0 - plain_s / traced_s);
            out.metric(
                "het_trace.events_per_iter",
                log.events.len() as f64 / batches,
            );
            out.metric(
                "het_simnet.comm_bytes_per_iter",
                inputs.traced.comm_bytes as f64 / f64::from(recorded),
            );
            out.metric(
                "het_simnet.modelled_read_ms",
                report.lookup_ns as f64 / 1e6 / batches,
            );
            out.metric(
                "het_simnet.modelled_compute_ms",
                report.infer_ns as f64 / 1e6 / batches,
            );
        }
        (Err(e), _) | (_, Err(e)) => out.failures.push(e),
    }
    // Serving neither writes nor synchronises dense parameters, and the
    // oracle replays training traces only.
    out.metric("het_simnet.modelled_write_ms", 0.0);
    out.metric("het_simnet.modelled_dense_ms", 0.0);
    out.metric("het_oracle.replay_events_per_s", 0.0);
    out
}

fn write_trace(dir: &std::path::Path, name: &str, spans: &[Span], out: &mut RunResult) {
    let path = dir.join(format!("{name}.trace.jsonl"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans::to_jsonl(spans)));
    if let Err(e) = written {
        out.failures.push(format!("{}: {e}", path.display()));
    }
}

/// The layer pass of one workload: every per-layer metric.
pub fn run_layers(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    out_dir: &std::path::Path,
) -> RunResult {
    let name = workload.name();
    match workload {
        Workload::WdlSim => {
            // Eight workers cannot run on two threads: the speed-up pair
            // is the recipe resized to two workers, a third as long.
            let pair = WdlJob {
                seed,
                iterations: sizes.wdl_iterations / 3,
                workers: THREADS,
            };
            layers_train(
                &wdl_job(seed, sizes),
                Backend::Sim,
                Some(&pair),
                sizes.quick,
                out_dir,
                name,
            )
        }
        Workload::GnnSim => {
            let job = gnn_job(seed, sizes.gnn_iterations, BSP);
            layers_train(
                &job,
                Backend::Sim,
                None::<&GnnJob>,
                sizes.quick,
                out_dir,
                name,
            )
        }
        Workload::GnnThreadsBsp => {
            let job = gnn_job(seed, sizes.gnn_iterations, BSP);
            layers_train(
                &job,
                Backend::Threads,
                None::<&GnnJob>,
                sizes.quick,
                out_dir,
                name,
            )
        }
        Workload::GnnThreadsAsp => {
            let job = gnn_job(seed, sizes.asp_iterations, SystemPreset::HetPs);
            let pair = gnn_job(seed, sizes.asp_iterations / 3, SystemPreset::HetPs);
            layers_train(
                &job,
                Backend::Threads,
                Some(&pair),
                sizes.quick,
                out_dir,
                name,
            )
        }
        Workload::ServeThreads => layers_serve(&serve_job(seed, sizes), sizes.quick, out_dir, name),
    }
}
