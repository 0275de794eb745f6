//! Deterministic fault injection: seeded schedules of worker crashes,
//! PS-shard outages, link degradation, message drops, and stragglers.
//!
//! Everything is expressed in **simulated time** and derived from the
//! run seed via SplitMix64 — no wall-clock randomness anywhere — so a
//! run under faults replays bit-identically from the same seed, and a
//! plan with zero scheduled faults is indistinguishable from faults
//! being disabled (every query returns its neutral value and callers
//! apply multipliers only when they differ from 1.0).
//!
//! The taxonomy mirrors what breaks in production embedding training:
//!
//! - **Worker crash**: a trainer process dies and restarts after a
//!   delay. Its cache — including dirty entries whose pending gradients
//!   were never pushed — is lost; it resumes from server state.
//! - **PS-shard outage**: one shard of the parameter server becomes
//!   unreachable, then fails over to a replacement restored from the
//!   last checkpoint (updates since that checkpoint are lost and
//!   accounted as clock regression).
//! - **Link degradation**: a window during which worker↔server links
//!   run with inflated latency and deflated bandwidth.
//! - **Message drop**: an individual request is lost and must be
//!   retried (each retry is charged simulated time and bytes).
//! - **Straggler**: a window during which one worker computes slower by
//!   a constant factor — the classic BSP tail-latency fault.

use crate::time::{SimDuration, SimTime};
use het_json::Json;
use het_rng::SplitMix64;

/// One scheduled fault, with its recovery point in simulated time.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Worker `worker` crashes at `at` and restarts `restart_delay`
    /// later, losing all cached state.
    WorkerCrash {
        /// Crashing worker index.
        worker: usize,
        /// Crash instant.
        at: SimTime,
        /// Downtime before the worker rejoins.
        restart_delay: SimDuration,
    },
    /// PS shard `shard` is unreachable from `at` until failover
    /// completes `failover_delay` later.
    PsShardOutage {
        /// Failing shard index.
        shard: usize,
        /// Outage start.
        at: SimTime,
        /// Time to restore the shard from its last checkpoint.
        failover_delay: SimDuration,
    },
    /// Worker↔server links degrade during `[from, until)`.
    LinkDegradation {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Latency multiplier (≥ 1).
        latency_factor: f64,
        /// Bandwidth multiplier (≤ 1, > 0).
        bandwidth_factor: f64,
    },
    /// Worker `worker` computes `slowdown`× slower during `[from, until)`.
    Straggler {
        /// Straggling worker index.
        worker: usize,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Compute-time multiplier (≥ 1).
        slowdown: f64,
    },
}

impl FaultEvent {
    /// The instant the fault takes effect (used for ordering).
    pub fn at(&self) -> SimTime {
        match self {
            FaultEvent::WorkerCrash { at, .. } | FaultEvent::PsShardOutage { at, .. } => *at,
            FaultEvent::LinkDegradation { from, .. } | FaultEvent::Straggler { from, .. } => *from,
        }
    }
}

/// Compute-time multiplier inside a generated straggler window.
pub const STRAGGLER_SLOWDOWN: f64 = 4.0;
/// Length of each generated straggler window.
pub const STRAGGLER_WINDOW: SimDuration = SimDuration::from_millis(500);
/// Latency multiplier inside a generated link-degradation window.
pub const DEGRADED_LATENCY_FACTOR: f64 = 10.0;
/// Bandwidth multiplier inside a generated link-degradation window.
pub const DEGRADED_BANDWIDTH_FACTOR: f64 = 0.1;
/// Length of each generated link-degradation window.
pub const DEGRADATION_WINDOW: SimDuration = SimDuration::from_millis(500);

/// Knobs for seeded fault-schedule generation.
///
/// Counts are exact (not rates): `worker_crashes = 2` schedules exactly
/// two crash events inside the horizon, which keeps sweep experiments
/// comparable across seeds. The default is the all-zero spec — no
/// faults of any kind. A generated straggler or degradation window has
/// the fixed shape of [`STRAGGLER_SLOWDOWN`]/[`STRAGGLER_WINDOW`] and
/// [`DEGRADED_LATENCY_FACTOR`]/[`DEGRADED_BANDWIDTH_FACTOR`]/
/// [`DEGRADATION_WINDOW`]; a scripted plan carries each event's own.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Faults are scheduled inside `[5%, 85%]` of this horizon, so
    /// recovery windows fit before a typical run ends.
    pub horizon: SimDuration,
    /// Worker crash/restart events to schedule.
    pub worker_crashes: usize,
    /// Downtime before a crashed worker rejoins.
    pub restart_delay: SimDuration,
    /// PS-shard outage/failover events to schedule.
    pub shard_outages: usize,
    /// Time to restore a failed shard from its last checkpoint.
    pub failover_delay: SimDuration,
    /// Straggler windows to schedule.
    pub stragglers: usize,
    /// Link-degradation windows to schedule.
    pub link_degradations: usize,
    /// Probability an individual request is dropped and must be
    /// retried (decided per message, deterministically from the seed).
    pub message_drop_prob: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            horizon: SimDuration::from_millis(10_000),
            worker_crashes: 0,
            restart_delay: SimDuration::from_millis(200),
            shard_outages: 0,
            failover_delay: SimDuration::from_millis(300),
            stragglers: 0,
            link_degradations: 0,
            message_drop_prob: 0.0,
        }
    }
}

impl FaultSpec {
    /// True when this spec schedules nothing and drops nothing.
    pub fn is_zero(&self) -> bool {
        self.worker_crashes == 0
            && self.shard_outages == 0
            && self.stragglers == 0
            && self.link_degradations == 0
            && self.message_drop_prob <= 0.0
    }

    /// The horizon that puts every fault inside a clean run ending at
    /// `end`: 80 % of its length, so the last event (at 85 % of the
    /// horizon) lands at 68 % of the run and its recovery fits before
    /// the run ends. Size a faulted run's horizon from its clean twin.
    pub fn horizon_within(end: SimTime) -> SimDuration {
        SimDuration::from_secs_f64(end.as_secs_f64() * 0.8)
    }
}

/// Multipliers a degraded link applies; `NEUTRAL` when links are clean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFactors {
    /// Latency multiplier (≥ 1).
    pub latency: f64,
    /// Bandwidth multiplier (0 < f ≤ 1).
    pub bandwidth: f64,
}

impl LinkFactors {
    /// The identity factors of an undegraded link.
    pub const NEUTRAL: LinkFactors = LinkFactors {
        latency: 1.0,
        bandwidth: 1.0,
    };

    /// True when applying these factors would change nothing.
    pub fn is_neutral(&self) -> bool {
        self.latency == 1.0 && self.bandwidth == 1.0
    }
}

/// A fully materialised, immutable fault schedule.
///
/// Construction is the only place randomness enters: [`FaultPlan::generate`]
/// derives every event from `(seed, spec)` via SplitMix64, and
/// [`FaultPlan::should_drop`] hashes `(seed, worker, op)` so the
/// drop decision for a given message is a pure function of the plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    drop_prob: f64,
    drop_seed: u64,
}

impl FaultPlan {
    /// The empty plan: no events, no drops.
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            drop_prob: 0.0,
            drop_seed: 0,
        }
    }

    /// Generates the schedule for `spec` on a cluster of `n_workers`
    /// workers and `n_shards` PS shards, deterministically from `seed`.
    pub fn generate(seed: u64, spec: &FaultSpec, n_workers: usize, n_shards: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut events = Vec::new();
        let h = spec.horizon.as_nanos();
        // Events land in [5%, 85%] of the horizon so recovery windows
        // complete inside a typical run.
        let lo = h / 20;
        let span = (h * 17 / 20).saturating_sub(lo).max(1);
        let at = |rng: &mut SplitMix64| SimTime::from_nanos(lo + rng.next_u64() % span);
        let pick = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n.max(1) as u64) as usize;

        for _ in 0..spec.worker_crashes {
            events.push(FaultEvent::WorkerCrash {
                worker: pick(&mut rng, n_workers),
                at: at(&mut rng),
                restart_delay: spec.restart_delay,
            });
        }
        for _ in 0..spec.shard_outages {
            events.push(FaultEvent::PsShardOutage {
                shard: pick(&mut rng, n_shards),
                at: at(&mut rng),
                failover_delay: spec.failover_delay,
            });
        }
        for _ in 0..spec.stragglers {
            let from = at(&mut rng);
            events.push(FaultEvent::Straggler {
                worker: pick(&mut rng, n_workers),
                from,
                until: from + STRAGGLER_WINDOW,
                slowdown: STRAGGLER_SLOWDOWN,
            });
        }
        for _ in 0..spec.link_degradations {
            let from = at(&mut rng);
            events.push(FaultEvent::LinkDegradation {
                from,
                until: from + DEGRADATION_WINDOW,
                latency_factor: DEGRADED_LATENCY_FACTOR,
                bandwidth_factor: DEGRADED_BANDWIDTH_FACTOR,
            });
        }
        let drop_prob = spec.message_drop_prob.clamp(0.0, 1.0);
        // With nothing to drop, the seed can never influence behaviour;
        // normalise it so a zero spec compares equal to `none()`.
        let drop_seed = if drop_prob > 0.0 { seed } else { 0 };
        let mut plan = FaultPlan {
            events,
            drop_prob,
            drop_seed,
        };
        plan.sort();
        plan
    }

    /// Builds a plan from hand-written events (for tests and demos that
    /// need exact scenarios). `drop_prob`/`drop_seed` stay zero.
    pub fn scripted(events: Vec<FaultEvent>) -> Self {
        let mut plan = FaultPlan {
            events,
            drop_prob: 0.0,
            drop_seed: 0,
        };
        plan.sort();
        plan
    }

    fn sort(&mut self) {
        // Stable sort keyed on the effect instant: ties keep insertion
        // order, so replay order is fully determined.
        self.events.sort_by_key(|e| e.at());
    }

    /// True when the plan schedules nothing and drops nothing — the
    /// case that must be bit-identical to faults being disabled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.drop_prob == 0.0
    }

    /// All events in effect order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Crash events for one worker, in time order.
    pub fn worker_crashes(&self, worker: usize) -> Vec<(SimTime, SimDuration)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::WorkerCrash {
                    worker: w,
                    at,
                    restart_delay,
                } if *w == worker => Some((*at, *restart_delay)),
                _ => None,
            })
            .collect()
    }

    /// Shard outages, in time order.
    pub fn shard_outages(&self) -> Vec<(usize, SimTime, SimDuration)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::PsShardOutage {
                    shard,
                    at,
                    failover_delay,
                } => Some((*shard, *at, *failover_delay)),
                _ => None,
            })
            .collect()
    }

    /// True while `shard` is inside an outage window at `at`.
    pub fn shard_down(&self, shard: usize, at: SimTime) -> bool {
        self.shard_outage_end(shard, at).is_some()
    }

    /// If `shard` is inside an outage window at `at`, the instant its
    /// failover completes (the latest end over overlapping windows).
    pub fn shard_outage_end(&self, shard: usize, at: SimTime) -> Option<SimTime> {
        let mut end: Option<SimTime> = None;
        for e in &self.events {
            if let FaultEvent::PsShardOutage {
                shard: s,
                at: start,
                failover_delay,
            } = e
            {
                let until = *start + *failover_delay;
                if *s == shard && at >= *start && at < until {
                    end = Some(end.map_or(until, |t| t.max(until)));
                }
            }
        }
        end
    }

    /// Compute-time multiplier for `worker` at `at` (1.0 when no
    /// straggler window is active; overlapping windows compound).
    pub fn straggler_factor(&self, worker: usize, at: SimTime) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if let FaultEvent::Straggler {
                worker: w,
                from,
                until,
                slowdown,
            } = e
            {
                if *w == worker && at >= *from && at < *until {
                    factor *= *slowdown;
                }
            }
        }
        factor
    }

    /// Link multipliers at `at` ([`LinkFactors::NEUTRAL`] when clean;
    /// overlapping windows compound).
    pub fn link_factors(&self, at: SimTime) -> LinkFactors {
        let mut f = LinkFactors::NEUTRAL;
        for e in &self.events {
            if let FaultEvent::LinkDegradation {
                from,
                until,
                latency_factor,
                bandwidth_factor,
            } = e
            {
                if at >= *from && at < *until {
                    f.latency *= *latency_factor;
                    f.bandwidth *= *bandwidth_factor;
                }
            }
        }
        f
    }

    /// Whether message number `op` from `worker` is dropped — a pure
    /// function of `(plan seed, worker, op)`, so replays agree.
    pub fn should_drop(&self, worker: usize, op: u64) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        let mut h = SplitMix64::new(
            self.drop_seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ op,
        );
        let unit = (h.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.drop_prob
    }

    /// The per-message drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Serialises the plan as JSON, so a chaos scenario is a
    /// reproducible artifact (a file on disk) instead of a flag soup.
    /// Round-trips exactly through [`FaultPlan::from_json`].
    pub fn to_json(&self) -> Json {
        let event_json = |e: &FaultEvent| -> Json {
            let kv = |k: &str, v: Json| (k.to_string(), v);
            match e {
                FaultEvent::WorkerCrash {
                    worker,
                    at,
                    restart_delay,
                } => Json::Obj(vec![
                    kv("kind", Json::Str("worker_crash".to_string())),
                    kv("worker", Json::UInt(*worker as u64)),
                    kv("at_ns", Json::UInt(at.as_nanos())),
                    kv("restart_ns", Json::UInt(restart_delay.as_nanos())),
                ]),
                FaultEvent::PsShardOutage {
                    shard,
                    at,
                    failover_delay,
                } => Json::Obj(vec![
                    kv("kind", Json::Str("ps_shard_outage".to_string())),
                    kv("shard", Json::UInt(*shard as u64)),
                    kv("at_ns", Json::UInt(at.as_nanos())),
                    kv("failover_ns", Json::UInt(failover_delay.as_nanos())),
                ]),
                FaultEvent::LinkDegradation {
                    from,
                    until,
                    latency_factor,
                    bandwidth_factor,
                } => Json::Obj(vec![
                    kv("kind", Json::Str("link_degradation".to_string())),
                    kv("from_ns", Json::UInt(from.as_nanos())),
                    kv("until_ns", Json::UInt(until.as_nanos())),
                    kv("latency_factor", Json::Num(*latency_factor)),
                    kv("bandwidth_factor", Json::Num(*bandwidth_factor)),
                ]),
                FaultEvent::Straggler {
                    worker,
                    from,
                    until,
                    slowdown,
                } => Json::Obj(vec![
                    kv("kind", Json::Str("straggler".to_string())),
                    kv("worker", Json::UInt(*worker as u64)),
                    kv("from_ns", Json::UInt(from.as_nanos())),
                    kv("until_ns", Json::UInt(until.as_nanos())),
                    kv("slowdown", Json::Num(*slowdown)),
                ]),
            }
        };
        Json::Obj(vec![
            (
                "events".to_string(),
                Json::Arr(self.events.iter().map(event_json).collect()),
            ),
            ("drop_prob".to_string(), Json::Num(self.drop_prob)),
            ("drop_seed".to_string(), Json::UInt(self.drop_seed)),
        ])
    }

    /// Parses a plan back from its [`FaultPlan::to_json`] form. Events
    /// are re-sorted and a zero drop probability normalises the drop
    /// seed to 0, so a round-trip compares equal even after hand edits.
    pub fn from_json(json: &Json) -> Result<FaultPlan, String> {
        let Json::Arr(raw_events) = json.get("events")? else {
            return Err("'events' must be an array".to_string());
        };
        let mut events = Vec::with_capacity(raw_events.len());
        for (i, e) in raw_events.iter().enumerate() {
            events.push(Self::read_event(e).map_err(|e| format!("event {i}: {e}"))?);
        }
        let drop_prob = json.field("drop_prob", Json::as_f64)?.clamp(0.0, 1.0);
        let drop_seed = if drop_prob > 0.0 {
            json.field("drop_seed", Json::as_u64)?
        } else {
            0
        };
        let mut plan = FaultPlan {
            events,
            drop_prob,
            drop_seed,
        };
        plan.sort();
        Ok(plan)
    }

    fn read_event(e: &Json) -> Result<FaultEvent, String> {
        let time = |key| e.field(key, Json::as_u64).map(SimTime::from_nanos);
        let delay = |key| e.field(key, Json::as_u64).map(SimDuration::from_nanos);
        let index = |key| e.field(key, Json::as_u64).map(|n| n as usize);
        Ok(match e.field("kind", Json::as_str)? {
            "worker_crash" => FaultEvent::WorkerCrash {
                worker: index("worker")?,
                at: time("at_ns")?,
                restart_delay: delay("restart_ns")?,
            },
            "ps_shard_outage" => FaultEvent::PsShardOutage {
                shard: index("shard")?,
                at: time("at_ns")?,
                failover_delay: delay("failover_ns")?,
            },
            "link_degradation" => FaultEvent::LinkDegradation {
                from: time("from_ns")?,
                until: time("until_ns")?,
                latency_factor: e.field("latency_factor", Json::as_f64)?,
                bandwidth_factor: e.field("bandwidth_factor", Json::as_f64)?,
            },
            "straggler" => FaultEvent::Straggler {
                worker: index("worker")?,
                from: time("from_ns")?,
                until: time("until_ns")?,
                slowdown: e.field("slowdown", Json::as_f64)?,
            },
            other => return Err(format!("unknown kind '{other}'")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            horizon: SimDuration::from_millis(4_000),
            worker_crashes: 3,
            shard_outages: 2,
            stragglers: 2,
            link_degradations: 1,
            message_drop_prob: 0.05,
            ..FaultSpec::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::generate(42, &spec(), 8, 4);
        let b = FaultPlan::generate(42, &spec(), 8, 4);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, &spec(), 8, 4);
        assert_ne!(a, c, "different seeds should give different schedules");
    }

    #[test]
    fn zero_spec_yields_empty_plan() {
        let spec = FaultSpec::default();
        assert!(spec.is_zero());
        let plan = FaultPlan::generate(7, &spec, 8, 4);
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn disabled_or_zero_spec_plans_are_empty() {
        let zero = FaultSpec {
            horizon: SimDuration::from_millis(1),
            ..FaultSpec::default()
        };
        assert!(FaultPlan::generate(1, &zero, 4, 8).is_empty());
        let spec = FaultSpec {
            worker_crashes: 1,
            ..FaultSpec::default()
        };
        assert!(!FaultPlan::generate(1, &spec, 4, 8).is_empty());
    }

    #[test]
    fn plan_fills_cluster_shape() {
        let spec = FaultSpec {
            worker_crashes: 8,
            shard_outages: 8,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(3, &spec, 2, 3);
        for e in plan.events() {
            match e {
                FaultEvent::WorkerCrash { worker, .. } => assert!(*worker < 2),
                FaultEvent::PsShardOutage { shard, .. } => assert!(*shard < 3),
                _ => {}
            }
        }
    }

    #[test]
    fn event_counts_match_spec() {
        let plan = FaultPlan::generate(1, &spec(), 8, 4);
        let crashes = plan
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::WorkerCrash { .. }))
            .count();
        let outages = plan
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::PsShardOutage { .. }))
            .count();
        let strag = plan
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::Straggler { .. }))
            .count();
        let degr = plan
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::LinkDegradation { .. }))
            .count();
        assert_eq!((crashes, outages, strag, degr), (3, 2, 2, 1));
    }

    #[test]
    fn events_are_time_ordered_and_inside_horizon() {
        let s = spec();
        let plan = FaultPlan::generate(99, &s, 8, 4);
        let times: Vec<_> = plan.events().iter().map(|e| e.at()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        for t in times {
            assert!(t.as_nanos() < s.horizon.as_nanos());
        }
    }

    #[test]
    fn shard_down_window_is_half_open() {
        let plan = FaultPlan::scripted(vec![FaultEvent::PsShardOutage {
            shard: 2,
            at: SimTime::from_nanos(100),
            failover_delay: SimDuration::from_nanos(50),
        }]);
        assert!(!plan.shard_down(2, SimTime::from_nanos(99)));
        assert!(plan.shard_down(2, SimTime::from_nanos(100)));
        assert!(plan.shard_down(2, SimTime::from_nanos(149)));
        assert!(!plan.shard_down(2, SimTime::from_nanos(150)));
        assert!(
            !plan.shard_down(1, SimTime::from_nanos(120)),
            "other shards unaffected"
        );
        assert_eq!(
            plan.shard_outage_end(2, SimTime::from_nanos(120)),
            Some(SimTime::from_nanos(150))
        );
        assert_eq!(plan.shard_outage_end(2, SimTime::from_nanos(150)), None);
        assert_eq!(plan.shard_outage_end(1, SimTime::from_nanos(120)), None);
    }

    #[test]
    fn straggler_and_link_factors_neutral_outside_windows() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent::Straggler {
                worker: 1,
                from: SimTime::from_nanos(10),
                until: SimTime::from_nanos(20),
                slowdown: 3.0,
            },
            FaultEvent::LinkDegradation {
                from: SimTime::from_nanos(15),
                until: SimTime::from_nanos(30),
                latency_factor: 5.0,
                bandwidth_factor: 0.5,
            },
        ]);
        assert_eq!(plan.straggler_factor(1, SimTime::from_nanos(5)), 1.0);
        assert_eq!(plan.straggler_factor(1, SimTime::from_nanos(15)), 3.0);
        assert_eq!(plan.straggler_factor(0, SimTime::from_nanos(15)), 1.0);
        assert!(plan.link_factors(SimTime::from_nanos(5)).is_neutral());
        let f = plan.link_factors(SimTime::from_nanos(20));
        assert_eq!(
            f,
            LinkFactors {
                latency: 5.0,
                bandwidth: 0.5
            }
        );
    }

    #[test]
    fn drops_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::generate(5, &spec(), 8, 4);
        let hits: Vec<bool> = (0..10_000).map(|op| plan.should_drop(3, op)).collect();
        let again: Vec<bool> = (0..10_000).map(|op| plan.should_drop(3, op)).collect();
        assert_eq!(hits, again);
        let rate = hits.iter().filter(|&&h| h).count() as f64 / 10_000.0;
        assert!(
            (rate - 0.05).abs() < 0.01,
            "drop rate {rate} should be near 0.05"
        );
        let none = FaultPlan::none();
        assert!((0..1000).all(|op| !none.should_drop(0, op)));
    }

    #[test]
    fn json_round_trips_generated_and_scripted_plans() {
        for seed in [1u64, 42, 0xFA17] {
            let plan = FaultPlan::generate(seed, &spec(), 8, 4);
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(plan, back, "seed {seed}");
            // Text round-trip through the in-tree parser too.
            let parsed = het_json::from_str(&plan.to_json().encode()).unwrap();
            assert_eq!(FaultPlan::from_json(&parsed).unwrap(), plan);
        }
        let empty = FaultPlan::none();
        assert_eq!(FaultPlan::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn json_rejects_malformed_plans() {
        assert!(FaultPlan::from_json(&Json::Null).is_err());
        let no_events = Json::Obj(vec![("drop_prob".to_string(), Json::Num(0.0))]);
        assert!(FaultPlan::from_json(&no_events).is_err());
        let bad_kind =
            het_json::from_str(r#"{"events":[{"kind":"mystery"}],"drop_prob":0.0,"drop_seed":0}"#)
                .unwrap();
        assert!(FaultPlan::from_json(&bad_kind).is_err());
    }

    #[test]
    fn json_normalises_drop_seed_when_prob_is_zero() {
        let doc = het_json::from_str(r#"{"events":[],"drop_prob":0.0,"drop_seed":99}"#).unwrap();
        let plan = FaultPlan::from_json(&doc).unwrap();
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn scripted_plan_sorts_events() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent::WorkerCrash {
                worker: 0,
                at: SimTime::from_nanos(200),
                restart_delay: SimDuration::ZERO,
            },
            FaultEvent::WorkerCrash {
                worker: 1,
                at: SimTime::from_nanos(100),
                restart_delay: SimDuration::ZERO,
            },
        ]);
        assert_eq!(plan.events()[0].at(), SimTime::from_nanos(100));
        assert_eq!(plan.worker_crashes(0).len(), 1);
        assert_eq!(plan.worker_crashes(2).len(), 0);
    }
}
