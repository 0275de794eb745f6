//! Deterministic schedule-exploration harness.
//!
//! A seed-driven fuzzer samples short training [`Scenario`]s — sync
//! mode, cache policy and staleness, event-queue tie-breaking, fault
//! schedule — executes each one with tracing enabled, and feeds the
//! trace to the oracle ([`crate::check_replay`]). Every scenario is a
//! pure function of `(master_seed, index)`, so any violation is
//! replayable from two integers. On violation the harness greedily
//! shrinks the scenario (fewer iterations, fewer workers, simpler
//! schedule) while the same check keeps failing, and writes a repro
//! file under `target/oracle/` that `hetctl oracle --repro` replays.

use crate::{check_replay, OracleReport, OracleSpec, Violation};
use het_cache::PolicyKind;
use het_core::config::{
    Backbone, DenseSync, SparseMode, StoreSpec, SyncMode, SystemConfig, SystemPreset, TieredConfig,
    TrainerConfig,
};
use het_core::{FaultConfig, TrainReport, Trainer};
use het_data::{CtrConfig, CtrDataset};
use het_json::{Json, ToJson};
use het_models::WideDeep;
use het_rng::rngs::StdRng;
use het_rng::{Rng, SeedableRng};
use het_simnet::{ClusterSpec, SimDuration, TieBreak};
use std::path::{Path, PathBuf};

/// One sampled workload: everything needed to re-execute a run
/// bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Trainer + dataset seed.
    pub seed: u64,
    /// Number of workers.
    pub workers: usize,
    /// Iteration budget.
    pub iters: u64,
    /// Worker synchronisation mode.
    pub sync: SyncMode,
    /// Dense parameter path (`Ps` for async modes).
    pub dense: DenseSync,
    /// Sparse embedding path.
    pub sparse: SparseMode,
    /// Event-queue tie-break rule (async modes).
    pub tie_break: TieBreak,
    /// Worker crash/restart events to schedule.
    pub crashes: usize,
    /// PS-shard outage/failover events to schedule.
    pub outages: usize,
    /// Straggler windows to schedule.
    pub stragglers: usize,
    /// Per-message drop probability.
    pub drop_prob: f64,
    /// Sabotage: widen the client's admitted staleness window by this
    /// many ticks (0 = correct protocol). Used to prove the oracle
    /// catches a broken `CheckValid`.
    pub extra_staleness: u64,
    /// Prefetch lookahead depth (0 = legacy demand-only path; sampled
    /// only for cached scenarios, where the prefetcher can exist).
    pub lookahead: u64,
    /// Hot-tier row budget when PS shards run the tiered memory/disk
    /// store (0 = flat in-memory store). Sampled budgets are tiny so
    /// short fuzz runs actually demote, spill, and compact.
    pub tiered_hot: u64,
}

fn mix(master_seed: u64, index: u64) -> u64 {
    master_seed ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Scenario {
    /// Samples the `index`-th scenario of a fuzz campaign, capping the
    /// iteration budget at `max_iters`.
    pub fn sample(master_seed: u64, index: u64, max_iters: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(mix(master_seed, index));
        let workers = rng.gen_range(2usize..5);
        let iters = rng.gen_range(4..max_iters.max(4) + 1);
        let sync = match rng.gen_range(0u32..3) {
            0 => SyncMode::Bsp,
            1 => SyncMode::Asp,
            _ => SyncMode::Ssp {
                staleness: rng.gen_range(1u64..4),
            },
        };
        let dense = if matches!(sync, SyncMode::Bsp) && rng.gen_bool(0.5) {
            DenseSync::AllReduce
        } else {
            DenseSync::Ps
        };
        let sparse = if rng.gen_bool(0.7) {
            SparseMode::Cached {
                staleness: rng.gen_range(0u64..5),
                capacity_fraction: [0.05, 0.10, 0.30][rng.gen_range(0usize..3)],
                policy: {
                    // The full zoo, with a sweepable LightLFU threshold
                    // and adaptive windows small enough that short fuzz
                    // runs hit forced switch points.
                    let zoo = [
                        PolicyKind::Lru,
                        PolicyKind::Lfu,
                        PolicyKind::light_lfu(),
                        PolicyKind::LightLfu {
                            promote_threshold: 4,
                        },
                        PolicyKind::Clock,
                        PolicyKind::Slru,
                        PolicyKind::Lfuda,
                        PolicyKind::Gdsf,
                        PolicyKind::Adaptive { window: 8 },
                        PolicyKind::Adaptive { window: 32 },
                        PolicyKind::Adaptive { window: 128 },
                    ];
                    zoo[rng.gen_range(0usize..zoo.len())]
                },
            }
        } else {
            SparseMode::PsDirect
        };
        let lookahead = if matches!(sparse, SparseMode::Cached { .. }) && rng.gen_bool(0.5) {
            [1u64, 2, 4, 8][rng.gen_range(0usize..4)]
        } else {
            0
        };
        let tie_break = match rng.gen_range(0u32..3) {
            0 => TieBreak::Fifo,
            1 => TieBreak::Lifo,
            _ => TieBreak::Salted(rng.gen_range(0..u64::MAX)),
        };
        let (crashes, outages, stragglers, drop_prob) = if rng.gen_bool(0.4) {
            (
                rng.gen_range(0usize..3),
                rng.gen_range(0usize..2),
                rng.gen_range(0usize..2),
                if rng.gen_bool(0.5) { 0.02 } else { 0.0 },
            )
        } else {
            (0, 0, 0, 0.0)
        };
        // A third of runs exercise the tiered memory/disk store; the
        // tiny tables mean even an 8-row hot tier sees real demotion
        // and cold-log compaction traffic.
        let tiered_hot = if rng.gen_bool(0.35) {
            [8u64, 32, 128][rng.gen_range(0usize..3)]
        } else {
            0
        };
        Scenario {
            seed: rng.gen_range(0u64..1 << 32),
            workers,
            iters,
            sync,
            dense,
            sparse,
            tie_break,
            crashes,
            outages,
            stragglers,
            drop_prob,
            extra_staleness: 0,
            lookahead,
            tiered_hot,
        }
    }

    /// Whether the scenario schedules any fault.
    pub fn has_faults(&self) -> bool {
        self.crashes + self.outages + self.stragglers > 0 || self.drop_prob > 0.0
    }

    /// The trainer configuration this scenario describes (faults are
    /// attached separately — their horizon needs the clean run time).
    pub fn trainer_config(&self) -> TrainerConfig {
        let mut config = TrainerConfig::tiny(SystemPreset::TfPs);
        config.system = SystemConfig {
            name: "fuzz",
            dense: self.dense,
            sparse: self.sparse,
            sync: self.sync,
            backbone: Backbone::het(),
        };
        config.cluster = ClusterSpec::cluster_a(self.workers, 1);
        config.max_iterations = self.iters;
        config.seed = self.seed;
        config.tie_break = self.tie_break;
        config.lookahead_depth = self.lookahead;
        if self.tiered_hot > 0 {
            config.store = StoreSpec::Tiered(TieredConfig::new(self.tiered_hot as usize));
        }
        config
    }

    /// The fault schedule, scoped to a horizon derived from the clean
    /// run's duration.
    pub fn fault_config(&self, horizon: SimDuration) -> FaultConfig {
        let mut cfg = FaultConfig::disabled();
        cfg.spec.worker_crashes = self.crashes;
        cfg.spec.shard_outages = self.outages;
        cfg.spec.stragglers = self.stragglers;
        cfg.spec.message_drop_prob = self.drop_prob;
        cfg.spec.horizon = horizon;
        cfg.checkpoint_every = 20;
        cfg
    }

    /// What the oracle must check for this scenario.
    pub fn oracle_spec(&self) -> OracleSpec {
        OracleSpec::of(&self.trainer_config())
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        let kv = |k: &str, v: Json| (k.to_string(), v);
        let spelled = |k: &str, v: &dyn std::fmt::Display| kv(k, Json::Str(v.to_string()));
        let sparse = match self.sparse {
            SparseMode::PsDirect => Json::Str("direct".to_string()),
            SparseMode::AllGather => Json::Str("allgather".to_string()),
            SparseMode::Cached {
                staleness,
                capacity_fraction,
                policy,
            } => Json::Obj(vec![
                kv("staleness", Json::UInt(staleness)),
                kv("capacity_fraction", Json::Num(capacity_fraction)),
                kv("policy", Json::Str(policy.spelling())),
            ]),
        };
        Json::Obj(vec![
            kv("seed", Json::UInt(self.seed)),
            kv("workers", Json::UInt(self.workers as u64)),
            kv("iters", Json::UInt(self.iters)),
            spelled("sync", &self.sync),
            spelled("dense", &self.dense),
            kv("sparse", sparse),
            spelled("tie_break", &self.tie_break),
            kv("crashes", Json::UInt(self.crashes as u64)),
            kv("outages", Json::UInt(self.outages as u64)),
            kv("stragglers", Json::UInt(self.stragglers as u64)),
            kv("drop_prob", Json::Num(self.drop_prob)),
            kv("extra_staleness", Json::UInt(self.extra_staleness)),
            kv("lookahead", Json::UInt(self.lookahead)),
            kv("tiered_hot", Json::UInt(self.tiered_hot)),
        ])
    }
}

/// String field `key` of `json`, read by its type's `FromStr`.
fn spelled<T: std::str::FromStr<Err = String>>(json: &Json, key: &str) -> Result<T, String> {
    json.field(key, |v| v.as_str()?.parse())
}

impl Scenario {
    /// Parses a scenario back from its [`ToJson`] form.
    pub fn from_json(json: &Json) -> Result<Scenario, String> {
        let uint = |key| json.field(key, Json::as_u64);
        let sparse = match json.get("sparse")? {
            Json::Str(s) if s == "direct" => SparseMode::PsDirect,
            Json::Str(s) if s == "allgather" => SparseMode::AllGather,
            cached @ Json::Obj(_) => SparseMode::Cached {
                staleness: cached.field("staleness", Json::as_u64)?,
                capacity_fraction: cached.field("capacity_fraction", Json::as_f64)?,
                policy: spelled(cached, "policy")?,
            },
            other => return Err(format!("bad sparse {}", other.encode())),
        };
        Ok(Scenario {
            seed: uint("seed")?,
            workers: uint("workers")? as usize,
            iters: uint("iters")?,
            sync: spelled(json, "sync")?,
            dense: spelled(json, "dense")?,
            sparse,
            tie_break: spelled(json, "tie_break")?,
            crashes: uint("crashes")? as usize,
            outages: uint("outages")? as usize,
            stragglers: uint("stragglers")? as usize,
            drop_prob: json.field("drop_prob", Json::as_f64)?,
            extra_staleness: uint("extra_staleness")?,
            lookahead: uint("lookahead")?,
            tiered_hot: uint("tiered_hot")?,
        })
    }
}

/// Result of executing one scenario under the oracle.
pub struct ScenarioOutcome {
    /// The training report of the (traced) run.
    pub report: TrainReport,
    /// The oracle verdict over the run's trace.
    pub oracle: Result<OracleReport, Violation>,
}

fn train(scenario: &Scenario, faults: FaultConfig, extra_staleness: u64) -> TrainReport {
    let mut config = scenario.trainer_config();
    config.faults = faults;
    config.sabotage_extra_staleness = extra_staleness;
    let dataset = CtrDataset::new(CtrConfig::tiny(scenario.seed));
    let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    trainer.run()
}

/// Executes `scenario` with tracing enabled and replays the trace
/// through the oracle. Faulted scenarios first run a clean untraced
/// probe to size the fault horizon (as the golden-trace tests do), so
/// injected faults actually land inside the run. The probe always runs
/// the correct protocol; only the traced run carries the scenario's
/// sabotage widening.
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let faults = if scenario.has_faults() {
        let probe = train(scenario, FaultConfig::disabled(), 0);
        scenario.fault_config(SimDuration::from_secs_f64(
            probe.total_sim_time.as_secs_f64() * 0.8,
        ))
    } else {
        FaultConfig::disabled()
    };
    het_trace::start(vec![
        ("workload".to_string(), Json::Str("fuzz".to_string())),
        ("scenario".to_string(), scenario.to_json()),
    ]);
    let report = train(scenario, faults, scenario.extra_staleness);
    let oracle = check_replay(&het_trace::finish(), &scenario.oracle_spec());
    ScenarioOutcome { report, oracle }
}

/// Upper bound on extra runs spent shrinking one violation.
const SHRINK_BUDGET: usize = 120;

fn shrink_candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();
    let mut push = |c: Scenario| {
        if !out.contains(&c) {
            out.push(c);
        }
    };
    for iters in [1, 2, 4, s.iters / 4, s.iters / 2, s.iters.saturating_sub(1)] {
        if iters >= 1 && iters < s.iters {
            push(Scenario { iters, ..s.clone() });
        }
    }
    for workers in [1, 2, s.workers.saturating_sub(1)] {
        if workers >= 1 && workers < s.workers {
            push(Scenario {
                workers,
                ..s.clone()
            });
        }
    }
    if s.has_faults() {
        push(Scenario {
            crashes: 0,
            outages: 0,
            stragglers: 0,
            drop_prob: 0.0,
            ..s.clone()
        });
    }
    if s.tie_break != TieBreak::Fifo {
        push(Scenario {
            tie_break: TieBreak::Fifo,
            ..s.clone()
        });
    }
    if s.lookahead > 0 {
        push(Scenario {
            lookahead: 0,
            ..s.clone()
        });
    }
    if s.tiered_hot > 0 {
        push(Scenario {
            tiered_hot: 0,
            ..s.clone()
        });
    }
    if let SparseMode::Cached {
        staleness,
        capacity_fraction,
        policy,
    } = s.sparse
    {
        if policy != PolicyKind::Lru {
            push(Scenario {
                sparse: SparseMode::Cached {
                    staleness,
                    capacity_fraction,
                    policy: PolicyKind::Lru,
                },
                ..s.clone()
            });
        }
    }
    out
}

/// Greedily shrinks a violating scenario: each candidate that still
/// fails the *same* check replaces the current scenario, until no
/// candidate fails or the run budget is spent. Returns the minimal
/// scenario, its violation, and the number of shrink runs executed.
pub fn shrink(scenario: &Scenario, violation: &Violation) -> (Scenario, Violation, usize) {
    let mut current = scenario.clone();
    let mut current_v = violation.clone();
    let mut runs = 0usize;
    'outer: loop {
        for cand in shrink_candidates(&current) {
            if runs >= SHRINK_BUDGET {
                break 'outer;
            }
            runs += 1;
            if let Err(v) = run_scenario(&cand).oracle {
                if v.check == current_v.check {
                    current = cand;
                    current_v = v;
                    continue 'outer;
                }
            }
        }
        break;
    }
    (current, current_v, runs)
}

/// One caught-and-shrunk violation.
pub struct CaughtViolation {
    /// Campaign master seed.
    pub master_seed: u64,
    /// Run index within the campaign.
    pub index: u64,
    /// The scenario as sampled.
    pub original: Scenario,
    /// The minimal scenario that still violates.
    pub shrunk: Scenario,
    /// The violation reported by the shrunk scenario.
    pub violation: Violation,
    /// Extra runs spent shrinking.
    pub shrink_runs: usize,
    /// Where the repro file was written (if an output dir was given).
    pub repro_path: Option<PathBuf>,
}

/// A fuzz campaign configuration.
pub struct FuzzConfig {
    /// Master seed of the campaign (scenario = f(master_seed, index)).
    pub master_seed: u64,
    /// First run index (inclusive).
    pub seed_start: u64,
    /// Last run index (exclusive).
    pub seed_end: u64,
    /// Iteration-budget cap per scenario.
    pub max_iters: u64,
    /// Sabotage widening applied to every scenario (0 = correct
    /// protocol; the campaign then expects zero violations).
    pub extra_staleness: u64,
    /// Where to write repro files (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Stop after this many violations (0 = never stop early).
    pub stop_after: usize,
}

/// Aggregate results of a fuzz campaign.
#[derive(Default)]
pub struct FuzzOutcome {
    /// Scenarios executed.
    pub runs: u64,
    /// Runs per sync mode (BSP, ASP, SSP).
    pub by_sync: [u64; 3],
    /// Runs with a cached sparse path.
    pub cached_runs: u64,
    /// Runs with a nonzero prefetch lookahead.
    pub prefetch_runs: u64,
    /// Runs on the tiered memory/disk row store.
    pub tiered_runs: u64,
    /// Runs with at least one scheduled fault.
    pub faulted_runs: u64,
    /// Total iteration completions checked.
    pub computes: u64,
    /// Total staleness-window reads checked.
    pub window_reads: u64,
    /// Total BSP barriers checked.
    pub barriers: u64,
    /// Total prefetch installs whose ledger was reconciled.
    pub prefetch_installs: u64,
    /// Caught-and-shrunk violations.
    pub violations: Vec<CaughtViolation>,
}

fn write_repro(
    dir: &Path,
    caught_master: u64,
    index: u64,
    original: &Scenario,
    shrunk: &Scenario,
    violation: &Violation,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{caught_master}-{index}.json"));
    let doc = Json::Obj(vec![
        ("master_seed".to_string(), Json::UInt(caught_master)),
        ("index".to_string(), Json::UInt(index)),
        ("original".to_string(), original.to_json()),
        ("shrunk".to_string(), shrunk.to_json()),
        ("violation".to_string(), violation.to_json()),
        (
            "command".to_string(),
            Json::Str(format!("hetctl oracle --repro {}", path.to_string_lossy())),
        ),
    ]);
    std::fs::write(&path, doc.encode_pretty() + "\n")?;
    Ok(path)
}

/// Parses a repro file and returns its shrunk scenario.
pub fn read_repro(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = het_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("shrunk")
        .and_then(Scenario::from_json)
        .map_err(|e| format!("{}: shrunk scenario: {e}", path.display()))
}

/// Runs a fuzz campaign: samples, executes, and oracle-checks
/// `seed_end − seed_start` scenarios, shrinking and recording every
/// violation.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    for index in cfg.seed_start..cfg.seed_end {
        let mut scenario = Scenario::sample(cfg.master_seed, index, cfg.max_iters);
        scenario.extra_staleness = cfg.extra_staleness;
        out.runs += 1;
        out.by_sync[match scenario.sync {
            SyncMode::Bsp => 0,
            SyncMode::Asp => 1,
            SyncMode::Ssp { .. } => 2,
        }] += 1;
        if matches!(scenario.sparse, SparseMode::Cached { .. }) {
            out.cached_runs += 1;
        }
        if scenario.lookahead > 0 {
            out.prefetch_runs += 1;
        }
        if scenario.tiered_hot > 0 {
            out.tiered_runs += 1;
        }
        if scenario.has_faults() {
            out.faulted_runs += 1;
        }
        match run_scenario(&scenario).oracle {
            Ok(r) => {
                out.computes += r.computes;
                out.window_reads += r.window_reads;
                out.barriers += r.barriers;
                out.prefetch_installs += r.prefetch_installs;
            }
            Err(v) => {
                let (shrunk, violation, shrink_runs) = shrink(&scenario, &v);
                let repro_path = cfg.out_dir.as_ref().and_then(|dir| {
                    write_repro(dir, cfg.master_seed, index, &scenario, &shrunk, &violation).ok()
                });
                out.violations.push(CaughtViolation {
                    master_seed: cfg.master_seed,
                    index,
                    original: scenario,
                    shrunk,
                    violation,
                    shrink_runs,
                    repro_path,
                });
                if cfg.stop_after > 0 && out.violations.len() >= cfg.stop_after {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_in_master_seed_and_index() {
        let a = Scenario::sample(1, 7, 40);
        let b = Scenario::sample(1, 7, 40);
        assert_eq!(a, b);
        assert_ne!(a, Scenario::sample(1, 8, 40));
        assert_ne!(a, Scenario::sample(2, 7, 40));
        assert!(a.iters >= 4 && a.iters <= 40);
        assert!(a.workers >= 2 && a.workers <= 4);
    }

    #[test]
    fn scenario_json_round_trips() {
        for index in 0..40 {
            let s = Scenario::sample(0xF00D, index, 50);
            let back = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(s, back, "index {index}");
        }
    }

    #[test]
    fn sampled_scenarios_cover_the_mode_matrix() {
        let mut bsp = 0;
        let mut asp = 0;
        let mut ssp = 0;
        let mut cached = 0;
        let mut prefetched = 0;
        let mut tiered = 0;
        let mut faulted = 0;
        let mut zoo: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut adaptive = 0;
        for index in 0..200 {
            let s = Scenario::sample(3, index, 50);
            match s.sync {
                SyncMode::Bsp => bsp += 1,
                SyncMode::Asp => asp += 1,
                SyncMode::Ssp { .. } => ssp += 1,
            }
            if let SparseMode::Cached { policy, .. } = s.sparse {
                cached += 1;
                zoo.insert(policy.to_string());
                if policy.is_adaptive() {
                    adaptive += 1;
                }
            } else {
                assert_eq!(s.lookahead, 0, "prefetch sampled without a cache");
            }
            if s.lookahead > 0 {
                prefetched += 1;
            }
            if s.tiered_hot > 0 {
                tiered += 1;
                assert!(
                    [8, 32, 128].contains(&s.tiered_hot),
                    "unexpected hot budget {}",
                    s.tiered_hot
                );
            }
            if s.has_faults() {
                faulted += 1;
            }
        }
        assert!(bsp > 20 && asp > 20 && ssp > 20, "{bsp}/{asp}/{ssp}");
        assert!(cached > 60, "cached only {cached}/200");
        assert!(prefetched > 30, "prefetched only {prefetched}/200");
        assert!(tiered > 30, "tiered only {tiered}/200");
        assert!(faulted > 30, "faulted only {faulted}/200");
        // The policy dimension spans the whole zoo, with enough
        // adaptive runs that forced switch points get exercised.
        assert_eq!(
            zoo.into_iter().collect::<Vec<_>>(),
            ["Adaptive", "CLOCK", "GDSF", "LFU", "LFUDA", "LRU", "LightLFU", "SLRU"],
        );
        assert!(adaptive > 10, "adaptive only {adaptive}/200");
    }

    #[test]
    fn clean_scenario_passes_the_oracle() {
        let scenario = Scenario {
            seed: 11,
            workers: 3,
            iters: 24,
            sync: SyncMode::Bsp,
            dense: DenseSync::AllReduce,
            sparse: SparseMode::Cached {
                staleness: 2,
                capacity_fraction: 0.10,
                policy: PolicyKind::light_lfu(),
            },
            tie_break: TieBreak::Fifo,
            crashes: 0,
            outages: 0,
            stragglers: 0,
            drop_prob: 0.0,
            extra_staleness: 0,
            lookahead: 0,
            tiered_hot: 0,
        };
        let outcome = run_scenario(&scenario);
        let report = outcome.oracle.expect("clean run must pass");
        assert!(report.computes >= 24);
        assert!(report.barriers > 0);
        assert!(report.window_reads > 0, "cached run must check windows");
        assert_eq!(report.conservation_workers, 3);
        assert_eq!(report.prefetch_installs, 0, "depth 0 must stay silent");

        // The same scenario with lookahead engages the prefetcher and
        // still passes every check, now with prefetch coverage.
        let prefetched = Scenario {
            lookahead: 4,
            ..scenario.clone()
        };
        let outcome = run_scenario(&prefetched);
        let report = outcome.oracle.expect("clean prefetch run must pass");
        assert!(
            report.prefetch_installs > 0,
            "prefetch run reconciled no installs"
        );

        // And on the tiered store: a hot tier small enough to force
        // demotion to the cold log must not perturb any checked
        // invariant — tiering moves bytes between tiers and charges
        // modelled disk time, but never changes values or clocks.
        let tiered = Scenario {
            tiered_hot: 8,
            ..scenario
        };
        let outcome = run_scenario(&tiered);
        let report = outcome.oracle.expect("clean tiered run must pass");
        assert!(report.computes >= 24);
        assert!(report.window_reads > 0);
        let store = outcome.report.store.expect("tiered run must report store");
        assert!(store.stats.demotions > 0, "8-row hot tier never demoted");
    }
}
