//! The seeded simulator cells of the determinism ledger,
//! `tests/golden/digests.tsv`: sync mode × seed, prefetch, the policy
//! zoo, the tiered store, serving, colocated training + serving — each
//! row clean and then faulted inside the clean run. A cell's line is its
//! name, the FNV-1a-64 of its report JSON and of its trace JSONL.
//!
//! `tests/determinism.rs` checks each family against the committed file,
//! and `tests/host_threads.rs` checks the training families again with a
//! BSP round pinned to 1, 2 and 4 host threads;
//! `crates/bench/tests/ledger.rs` adds the `hetctl` cells, the tests
//! that prove the ledger sees a change, and `-- --ignored regenerate`.
//!
//! The runner also keeps each row honest: faults fire and change the
//! run, prefetchers engage, a tier holds no more rows than are stored
//! and demotes once the table outgrows it, and colocated trace counters
//! reconcile with both reports.

// Each of the two test binaries uses a part of this module.
#![allow(dead_code)]

use het_cache::PolicyKind::{Adaptive, Gdsf, Lfuda, Slru};
use het_core::config::{DenseSync, StoreSpec, SyncMode, SystemPreset, TieredConfig, TrainerConfig};
use het_core::{TrainReport, Trainer};
use het_data::CtrBatch;
use het_data::{CtrConfig, CtrDataset};
use het_json::{fnv1a64, Json, ToJson, FNV_OFFSET};
use het_models::WideDeep;
use het_rng::rngs::StdRng;
use het_serve::{run_colocated, ServeConfig, ServeSim};
use het_simnet::{FaultSpec, SimDuration};
use het_trace::TraceLog;
use std::collections::{BTreeMap, BTreeSet};

pub const LEDGER: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/digests.tsv"
);

/// The name prefixes of the row families; every row is in one.
pub const FAMILIES: [&str; 6] = [
    "sync/",
    "prefetch/",
    "policy/",
    "tiered/",
    "serve/",
    "colocate/",
];

/// What a row runs, clean and then faulted (two cells).
pub enum Job {
    /// Wide&Deep on the tiny CTR stream.
    Train(TrainerConfig),
    Serve(ServeConfig),
    /// A trainer and a fleet on one runtime.
    Colocate(TrainerConfig, Box<ServeConfig>),
}

/// Cell name → its digest columns, sorted by name.
pub type Ledger = BTreeMap<String, String>;

/// A run's report JSON and trace JSONL.
type Out = (String, String);

fn tiny(preset: SystemPreset, seed: u64) -> TrainerConfig {
    let mut c = TrainerConfig::tiny(preset);
    c.seed = seed;
    c.max_iterations = 240;
    c
}

/// The named rows.
pub fn rows() -> Vec<(String, Job)> {
    let mut rows = Vec::new();
    let cached = SystemPreset::HetCache { staleness: 10 };
    let (ssp, het_ps) = (SystemPreset::Ssp { staleness: 2 }, SystemPreset::HetPs);
    for (preset, seed) in [cached, ssp, het_ps]
        .into_iter()
        .flat_map(|p| [(p, 3), (p, 7), (p, 9)])
    {
        rows.push((
            format!("sync/{preset}/seed{seed}"),
            Job::Train(tiny(preset, seed)),
        ));
    }
    for seed in [3, 7] {
        for sync in [SyncMode::Bsp, SyncMode::Asp, SyncMode::Ssp { staleness: 2 }] {
            let mut c = tiny(cached, seed);
            c.system.sync = sync;
            // Workers that never meet in a round cannot AllReduce.
            if sync != SyncMode::Bsp {
                c.system.dense = DenseSync::Ps;
            }
            c.lookahead_depth = 4;
            rows.push((format!("prefetch/{sync}/seed{seed}"), Job::Train(c)));
        }
        for kind in [Slru, Lfuda, Gdsf, Adaptive { window: 32 }] {
            let c = tiny(cached, seed).with_cache(0.05, kind);
            rows.push((
                format!("policy/{}/seed{seed}", kind.spelling()),
                Job::Train(c),
            ));
        }
        // 16 rows spill to the cold log; 256 hold the whole key space.
        for hot in [16, 256] {
            let mut c = tiny(cached, seed);
            c.store = StoreSpec::Tiered(TieredConfig::new(hot));
            rows.push((format!("tiered/{hot}/seed{seed}"), Job::Train(c)));
        }
        rows.push((
            format!("serve/seed{seed}"),
            Job::Serve(ServeConfig::tiny(seed)),
        ));
        let mut train = tiny(cached, seed);
        train.max_iterations = 120;
        let mut serve = ServeConfig::tiny(seed);
        serve.pretrain_updates = 200;
        rows.push((
            format!("colocate/seed{seed}"),
            Job::Colocate(train, Box::new(serve)),
        ));
    }
    rows
}

pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes(), FNV_OFFSET))
}

fn wide_deep(rng: &mut StdRng) -> WideDeep {
    WideDeep::new(rng, 4, 8, &[16])
}

/// `run()` under the trace collector: its report and [`Out`].
fn traced<R: ToJson>(kind: &str, run: impl FnOnce() -> R) -> (R, Out) {
    het_trace::start(vec![("kind".to_string(), Json::Str(kind.to_string()))]);
    let report = run();
    let out = (report.to_json().encode(), het_trace::finish().to_jsonl());
    (report, out)
}

/// `trainer` with its BSP rounds on `host_threads` host threads, if
/// given (the host's own count otherwise).
fn on_host_threads<D: het_models::Dataset<Batch = CtrBatch>>(
    trainer: Trainer<WideDeep, D>,
    host_threads: Option<usize>,
) -> Trainer<WideDeep, D> {
    match host_threads {
        Some(n) => trainer.with_host_threads(n),
        None => trainer,
    }
}

fn train(c: TrainerConfig, host_threads: Option<usize>) -> (TrainReport, Out) {
    let dataset = CtrDataset::new(CtrConfig::tiny(c.seed));
    // The run registers the trainer under the collector, where a plan
    // with a shard outage traces its baseline checkpoint.
    traced("train", || {
        on_host_threads(Trainer::new(c, dataset, wide_deep), host_threads).run()
    })
}

/// Crashes and a shard outage (trainers checkpoint every 20
/// iterations); a train row's plan adds a straggler and drops, a fleet's
/// short recoveries.
fn faults(fleet: bool, crashes: usize, horizon: SimDuration) -> FaultSpec {
    let mut spec = FaultSpec {
        worker_crashes: crashes,
        shard_outages: 1,
        horizon,
        ..FaultSpec::default()
    };
    if fleet {
        spec.restart_delay = SimDuration::from_millis(2);
        spec.failover_delay = SimDuration::from_millis(4);
    } else {
        spec.stragglers = 1;
        spec.message_drop_prob = 0.01;
    }
    spec
}

/// Runs one row, flipping the lowest bit of `lr` — one ulp — in the
/// cells named in `nudged`, its trainers' BSP rounds on `host_threads`
/// host threads if given; returns its cells. Panics when a check fails.
pub fn run_row(
    (name, job): &(String, Job),
    nudged: &[&str],
    host_threads: Option<usize>,
) -> Vec<(String, String)> {
    let cell = |phase: &str| format!("{name}/{phase}");
    let config = |c: &TrainerConfig, phase: &str, faults: FaultSpec| {
        let mut c = TrainerConfig {
            faults,
            checkpoint_every: 20,
            ..c.clone()
        };
        if nudged.contains(&cell(phase).as_str()) {
            c.lr = f32::from_bits(c.lr.to_bits() ^ 1);
        }
        c
    };
    let check_train = |c: &TrainerConfig, report: &TrainReport| {
        let prefetched = c.lookahead_depth == 0 || report.prefetch.is_some();
        assert!(prefetched, "{name}: prefetcher never engaged");
        if let (StoreSpec::Tiered(tier), Some(s)) = (&c.store, &report.store) {
            let spills = s.total_rows > tier.hot_rows as u64;
            let ok = s.resident_rows <= s.total_rows && (!spills || s.stats.demotions > 0);
            assert!(
                ok,
                "{name}: more rows resident than stored, or none demoted"
            );
        }
        let tiered = matches!(c.store, StoreSpec::Tiered(_));
        assert!(
            report.store.is_some() == tiered,
            "{name}: store summary iff tiered"
        );
    };
    let outs = match job {
        Job::Train(c) => {
            let clean_config = config(c, "clean", FaultSpec::default());
            let (clean, clean_out) = train(clean_config, host_threads);
            let horizon = FaultSpec::horizon_within(clean.total_sim_time);
            let faulted_config = config(c, "faulted", faults(false, 2, horizon));
            let (faulted, out) = train(faulted_config, host_threads);
            let fired = faulted.faults.worker_crashes + faulted.faults.shard_failovers;
            assert!(fired > 0, "{name}: no fault fired");
            check_train(c, &clean);
            check_train(c, &faulted);
            [clean_out, out]
        }
        Job::Serve(c) => {
            let serve = |faults| {
                let c = ServeConfig {
                    faults,
                    ..c.clone()
                };
                traced("serve", || ServeSim::new(c, wide_deep).run()).1
            };
            let horizon = SimDuration::from_millis(40);
            [serve(FaultSpec::default()), serve(faults(true, 1, horizon))]
        }
        Job::Colocate(train, serve) => {
            let colocate = |c: TrainerConfig| {
                let dataset = CtrDataset::new(CtrConfig::tiny(c.seed));
                let trainer = Trainer::with_cluster(c, dataset, wide_deep, serve.n_replicas, 0);
                let trainer = on_host_threads(trainer, host_threads);
                let run = || run_colocated(trainer, ServeConfig::clone(serve), wide_deep);
                let (r, out) = traced("colocate", run);
                // The serve counters are the fleet's alone; the cache
                // counters sum the trainer's and the fleet's caches.
                let log = TraceLog::parse(&out.1).expect("the trace parses");
                let (t, s) = (&r.train.cache, &r.serve.cache);
                for (counter, sum) in [
                    ("serve/requests", r.serve.requests),
                    ("serve/batches", r.serve.batches),
                    ("cache/hits", t.hits + s.hits),
                    ("cache/misses", t.misses + s.misses),
                    ("cache/invalidations", t.invalidations + s.invalidations),
                ] {
                    let (comp, n) = counter.split_once('/').unwrap();
                    assert!(log.counter(comp, n) == sum, "{name}: {counter}");
                }
                (r, out)
            };
            let (clean, clean_out) = colocate(config(train, "clean", FaultSpec::default()));
            let horizon = FaultSpec::horizon_within(clean.train.total_sim_time);
            let (faulted, out) = colocate(config(train, "faulted", faults(true, 2, horizon)));
            let crashes = faulted.train.faults.worker_crashes + faulted.serve.faults.worker_crashes;
            assert!(crashes > 0, "{name}: no crash fired");
            [clean_out, out]
        }
    };
    assert!(outs[0].0 != outs[1].0, "{name}: faulted run equals clean");
    let columns = |(report, trace): &Out| format!("{}\t{}", digest(report), digest(trace));
    let cells = ["clean", "faulted"].map(cell).into_iter();
    cells.zip(outs.iter().map(columns)).collect()
}

/// Runs `rows` through `run` on a few threads, each taking every n-th
/// row (a run is single-threaded and its trace collector thread-local).
pub fn run_all<R: Sync>(rows: &[R], run: impl Fn(&R) -> Vec<(String, String)> + Sync) -> Ledger {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let run = &run;
    let stripe = |i| -> Vec<_> { rows.iter().skip(i).step_by(n).flat_map(run).collect() };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n).map(|i| s.spawn(move || stripe(i))).collect();
        let joined = workers.into_iter().map(|w| w.join());
        let cells = joined.map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)));
        cells.flatten().collect()
    })
}

pub fn committed() -> Ledger {
    let text = std::fs::read_to_string(LEDGER).unwrap_or_else(|e| panic!("{LEDGER}: {e}"));
    let lines = text.lines().filter(|l| !l.starts_with('#'));
    let cells = lines.map(|l| l.split_once('\t').expect("cell<TAB>digests"));
    cells.map(|(c, d)| (c.to_string(), d.to_string())).collect()
}

/// Fails naming every cell under `prefix` whose produced line is not the
/// committed one, with both lines (`(absent)` for an added or gone cell).
pub fn assert_matches_committed(prefix: &str, produced: &Ledger) {
    let committed: Ledger = (committed().into_iter())
        .filter(|(cell, _)| cell.starts_with(prefix))
        .collect();
    let cells: BTreeSet<&String> = committed.keys().chain(produced.keys()).collect();
    let report: Vec<String> = (cells.into_iter())
        .filter(|&cell| committed.get(cell) != produced.get(cell))
        .map(|cell| {
            let [was, now] =
                [&committed, produced].map(|l| l.get(cell).map_or("(absent)", String::as_str));
            format!("  {cell}\n    committed {was}\n    produced  {now}")
        })
        .collect();
    assert!(
        report.is_empty(),
        "{} cells moved against tests/golden/digests.tsv:\n{}\nIf that is intended, \
         regenerate with `cargo test -p het-bench --test ledger -- --ignored regenerate` \
         and explain every moved line in CHANGES.md.",
        report.len(),
        report.join("\n")
    );
}

/// Runs the rows named `prefix…` once and checks their cells against the
/// committed ledger.
pub fn check_family(prefix: &str) {
    check_family_at(prefix, None);
}

/// [`check_family`] with the trainers' BSP rounds on `host_threads` host
/// threads, if given.
pub fn check_family_at(prefix: &str, host_threads: Option<usize>) {
    let rows: Vec<_> = (rows().into_iter())
        .filter(|(name, _)| name.starts_with(prefix))
        .collect();
    assert!(!rows.is_empty(), "no row named {prefix}…");
    let produced = run_all(&rows, |row| run_row(row, &[], host_threads));
    assert_matches_committed(prefix, &produced);
}
