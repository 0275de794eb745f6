//! Model-based consistency oracle for the HET stack.
//!
//! The oracle replays a finished `het-trace-v1` event stream against an
//! idealized sequential model of the run and checks, per event, the
//! invariants the paper claims (§3.3, §4):
//!
//! 1. **Clock bounds per sync mode** — BSP workers show divergence 0 at
//!    every barrier (≤ 1 mid-round), SSP workers stay within `s` (+1
//!    for the in-flight iteration), ASP is unbounded but every worker's
//!    progress is monotone in simulated time.
//! 2. **Gradient conservation** — every cache entry that started
//!    accumulating a pending gradient (`cache/dirtied`) is eventually
//!    written back to the PS (`cache/writebacks`) or attributed to an
//!    injected crash (`trainer/worker_crash.dirty_lost`); with a cached
//!    sparse path the PS sees exactly one push per write-back.
//! 3. **Cache coherence** — every read served from the cache reports
//!    its observed staleness window (`client/read_window`); the lag
//!    `c_c − c_s` and gap `c_g − c_c` must both stay within the
//!    *configured* staleness `s`, independently of what the client's
//!    own `CheckValid` admitted. Prefetch-served reads flow through the
//!    same `read_window` events, so a prefetch install can never let a
//!    read evade this check.
//! 4. **Prefetch discipline** — a run with `lookahead_depth = 0` must
//!    be prefetch-silent (no `prefetcher` events, no prefetch
//!    counters); with lookahead, the prefetch ledger must close
//!    (`installs = hits + wasted`, installs ≤ issued pulls, prefetch
//!    hits ≤ total hits) and the `prefetch_install` / `prefetch_hit`
//!    event stream must reconcile with the cache counters.
//!
//! The oracle replays a [`het_trace::TraceLog`]: the one the collector
//! returned, or one read back from its JSONL form with
//! [`het_trace::TraceLog::parse`] — the same type either way. The
//! schedule-exploration fuzzer on top of it lives in [`fuzz`].

#![warn(missing_docs)]

pub mod fuzz;

use het_core::config::{SparseMode, SyncMode, TrainerConfig};
use het_core::consistency::ConsistencyBound;
use het_json::{Json, ToJson};
use het_trace::TraceLog;

/// What the oracle needs to know about the run it replays.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleSpec {
    /// Worker synchronisation mode of the run.
    pub sync: SyncMode,
    /// Cache staleness threshold `s` (`None` = no cached sparse path).
    pub cache_staleness: Option<u64>,
    /// Number of workers in the cluster.
    pub n_workers: usize,
    /// Check that PS pushes equal cache write-backs — valid only when
    /// the *only* gradient path to the sparse PS is cache eviction.
    pub check_push_parity: bool,
    /// Configured prefetch lookahead depth (0 = demand-only run, which
    /// the oracle requires to be prefetch-silent).
    pub lookahead_depth: u64,
}

impl OracleSpec {
    /// Derives the spec from a trainer configuration.
    pub fn of(config: &TrainerConfig) -> OracleSpec {
        let cache_staleness = match config.system.sparse {
            SparseMode::Cached { staleness, .. } => Some(staleness),
            _ => None,
        };
        OracleSpec {
            sync: config.system.sync,
            cache_staleness,
            n_workers: config.cluster.n_workers,
            check_push_parity: cache_staleness.is_some(),
            lookahead_depth: config.lookahead_depth,
        }
    }
}

/// One invariant violation, pinned to the event that exposed it.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which check failed (e.g. `"bsp-barrier-divergence"`).
    pub check: &'static str,
    /// Simulated time of the offending event (0 for end-of-trace
    /// checks).
    pub t_ns: u64,
    /// Worker the offending event was attributed to.
    pub worker: Option<u64>,
    /// Human-readable description of the breakage.
    pub message: String,
}

impl ToJson for Violation {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("check".to_string(), Json::Str(self.check.to_string())),
            ("t_ns".to_string(), Json::UInt(self.t_ns)),
            (
                "worker".to_string(),
                self.worker.map(Json::UInt).unwrap_or(Json::Null),
            ),
            ("message".to_string(), Json::Str(self.message.clone())),
        ])
    }
}

/// Coverage counters of one successful replay, so harnesses can assert
/// the oracle actually exercised its checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Events walked.
    pub events: usize,
    /// Per-worker iteration completions observed.
    pub computes: u64,
    /// BSP barriers checked for zero divergence.
    pub barriers: u64,
    /// `client/read_window` events checked against the staleness bound.
    pub window_reads: u64,
    /// Largest worker-clock spread observed anywhere in the run.
    pub max_spread: u64,
    /// Workers whose dirty-gradient ledger was balanced at end of
    /// trace.
    pub conservation_workers: usize,
    /// Prefetch installs whose ledger was reconciled at end of trace.
    pub prefetch_installs: u64,
}

macro_rules! violation {
    ($check:expr, $t:expr, $w:expr, $($fmt:tt)*) => {
        return Err(Violation {
            check: $check,
            t_ns: $t,
            worker: $w,
            message: format!($($fmt)*),
        })
    };
}

/// Replays a trace against the reference model and checks every
/// invariant. Returns coverage counters on success, the first
/// violation otherwise.
pub fn check_replay(log: &TraceLog, spec: &OracleSpec) -> Result<OracleReport, Violation> {
    let n = spec.n_workers;
    let bound = ConsistencyBound::for_sync(spec.sync);
    let mut report = OracleReport::default();
    let mut iters = vec![0u64; n];
    let mut last_compute_t = vec![0u64; n];
    let mut crash_dirty = vec![0u64; n];
    let mut prefetch_install_events = 0u64;
    let mut prefetch_hit_events = 0u64;

    let spread = |iters: &[u64]| -> u64 {
        let lo = iters.iter().copied().min().unwrap_or(0);
        let hi = iters.iter().copied().max().unwrap_or(0);
        hi - lo
    };

    for e in &log.events {
        report.events += 1;
        if e.is("trainer", "compute") {
            let Some(w) = e.worker else {
                violation!(
                    "attribution",
                    e.t_ns,
                    None,
                    "compute event without a worker scope"
                );
            };
            let w = w as usize;
            if w >= n {
                violation!(
                    "attribution",
                    e.t_ns,
                    e.worker,
                    "compute event for worker {w} outside the {n}-worker cluster"
                );
            }
            // Monotone progress: a worker's iterations never move
            // backwards in simulated time (ASP's only guarantee).
            if e.t_ns < last_compute_t[w] {
                violation!(
                    "monotone-progress",
                    e.t_ns,
                    e.worker,
                    "worker {w} computed at t={} after t={}",
                    e.t_ns,
                    last_compute_t[w]
                );
            }
            last_compute_t[w] = e.t_ns;
            iters[w] += 1;
            report.computes += 1;
            let d = spread(&iters);
            report.max_spread = report.max_spread.max(d);
            if !bound.holds_any_time(d) {
                violation!(
                    "sync-any-time-bound",
                    e.t_ns,
                    e.worker,
                    "worker-clock spread {d} exceeds the {:?} any-time bound {:?} \
                     (iterations {iters:?})",
                    spec.sync,
                    bound.any_time_bound()
                );
            }
        } else if e.is("trainer", "barrier") {
            report.barriers += 1;
            let d = spread(&iters);
            if !bound.holds_at_validation(d) {
                violation!(
                    "bsp-barrier-divergence",
                    e.t_ns,
                    e.worker,
                    "worker-clock spread {d} at a barrier exceeds the {:?} validation \
                     bound {:?} (iterations {iters:?})",
                    spec.sync,
                    bound.validation_bound()
                );
            }
        } else if e.is("trainer", "worker_crash") {
            if let (Some(w), Some(dirty)) = (e.worker, e.field_u64("dirty_lost")) {
                if (w as usize) < n {
                    crash_dirty[w as usize] += dirty;
                }
            }
        } else if e.is("client", "read_window") {
            let Some(s) = spec.cache_staleness else {
                violation!(
                    "cache-window",
                    e.t_ns,
                    e.worker,
                    "read_window event in a run without a cached sparse path"
                );
            };
            report.window_reads += 1;
            let lag = e.field_u64("max_lag").unwrap_or(0);
            let gap = e.field_u64("max_gap").unwrap_or(0);
            if lag > s {
                violation!(
                    "cache-window",
                    e.t_ns,
                    e.worker,
                    "read served a cache entry with write lag c_c−c_s = {lag} > s = {s}"
                );
            }
            if gap > s {
                violation!(
                    "cache-window",
                    e.t_ns,
                    e.worker,
                    "read validated a cache entry with clock gap c_g−c_c = {gap} > s = {s}"
                );
            }
        } else if e.comp == "prefetcher" {
            // Prefetching only exists on the cached sparse path, and a
            // depth-0 run must reproduce the legacy path byte-for-byte
            // — any prefetcher event there is a protocol leak.
            if spec.cache_staleness.is_none() {
                violation!(
                    "prefetch-attribution",
                    e.t_ns,
                    e.worker,
                    "prefetcher event '{}' in a run without a cached sparse path",
                    e.name
                );
            }
            if spec.lookahead_depth == 0 {
                violation!(
                    "prefetch-attribution",
                    e.t_ns,
                    e.worker,
                    "prefetcher event '{}' in a run with lookahead_depth = 0",
                    e.name
                );
            }
            if e.is("prefetcher", "prefetch_install") {
                prefetch_install_events += e.field_u64("installed").unwrap_or(0);
            } else if e.is("prefetcher", "prefetch_hit") {
                prefetch_hit_events += e.field_u64("n").unwrap_or(0);
            }
        }
    }

    // End-of-trace checks.
    if matches!(spec.sync, SyncMode::Bsp) && spread(&iters) != 0 {
        violation!(
            "bsp-final-divergence",
            0,
            None,
            "BSP run ended with unequal worker iterations {iters:?}"
        );
    }

    let pushes = log.counter("simnet", "evq_push");
    let pops = log.counter("simnet", "evq_pop");
    if pops > pushes {
        violation!(
            "event-queue",
            0,
            None,
            "event queue popped {pops} events but only {pushes} were pushed"
        );
    }

    if spec.cache_staleness.is_some() {
        // Gradient conservation, per worker: every clean→dirty
        // transition is matched by a write-back or an accounted crash
        // loss. The final flush guarantees no residual dirty entries.
        for (w, &crash_dropped) in crash_dirty.iter().enumerate() {
            let dirtied = log.counter_at("cache", "dirtied", Some(w as u64));
            let writebacks = log.counter_at("cache", "writebacks", Some(w as u64));
            if dirtied != writebacks + crash_dropped {
                violation!(
                    "gradient-conservation",
                    0,
                    Some(w as u64),
                    "worker {w} dirtied {dirtied} entries but accounted for {} \
                     ({writebacks} writebacks + {crash_dropped} crash-dropped)",
                    writebacks + crash_dropped
                );
            }
            report.conservation_workers += 1;
        }
        if spec.check_push_parity {
            let ps_pushes = log.counter("ps", "pushes");
            let writebacks = log.counter("cache", "writebacks");
            if ps_pushes != writebacks {
                violation!(
                    "gradient-conservation",
                    0,
                    None,
                    "PS applied {ps_pushes} sparse pushes but the caches wrote back \
                     {writebacks} entries"
                );
            }
        }
    }

    // Prefetch ledger: after the end-of-run flush, every installed
    // prefetch has resolved to exactly one hit or one waste, nothing
    // was installed that was never pulled, and the event stream agrees
    // with the counters it narrates.
    let installs = log.counter("cache", "prefetch_installs");
    let hits = log.counter("cache", "prefetch_hits");
    let wasted = log.counter("cache", "prefetch_wasted");
    let issued = log.counter("prefetcher", "issued_keys");
    if spec.lookahead_depth == 0 && installs + hits + wasted + issued > 0 {
        violation!(
            "prefetch-silence",
            0,
            None,
            "depth-0 run touched prefetch counters (issued {issued}, installs {installs}, \
             hits {hits}, wasted {wasted})"
        );
    }
    if installs != hits + wasted {
        violation!(
            "prefetch-ledger",
            0,
            None,
            "{installs} prefetch installs resolved to {hits} hits + {wasted} wasted"
        );
    }
    if installs > issued {
        violation!(
            "prefetch-ledger",
            0,
            None,
            "{installs} prefetch installs exceed the {issued} keys ever pulled"
        );
    }
    if hits > log.counter("cache", "hits") {
        violation!(
            "prefetch-ledger",
            0,
            None,
            "{hits} prefetch hits exceed the cache's {} total hits",
            log.counter("cache", "hits")
        );
    }
    if prefetch_install_events != installs {
        violation!(
            "prefetch-ledger",
            0,
            None,
            "prefetch_install events account for {prefetch_install_events} installs \
             but the cache counted {installs}"
        );
    }
    if prefetch_hit_events != hits {
        violation!(
            "prefetch-ledger",
            0,
            None,
            "prefetch_hit events account for {prefetch_hit_events} hits \
             but the cache counted {hits}"
        );
    }
    report.prefetch_installs = installs;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_json::Json;
    use het_trace::field;

    fn spec(sync: SyncMode, cache_staleness: Option<u64>, n: usize) -> OracleSpec {
        OracleSpec {
            sync,
            cache_staleness,
            n_workers: n,
            check_push_parity: cache_staleness.is_some(),
            lookahead_depth: 0,
        }
    }

    fn prefetch_spec(cache_staleness: u64, depth: u64, n: usize) -> OracleSpec {
        OracleSpec {
            lookahead_depth: depth,
            ..spec(SyncMode::Bsp, Some(cache_staleness), n)
        }
    }

    fn compute(w: u64, t: u64) {
        het_trace::set_scope(t, Some(w));
        het_trace::emit("trainer", "compute", Some(1), vec![]);
    }

    fn synthetic(build: impl FnOnce()) -> TraceLog {
        het_trace::start(Vec::new());
        build();
        het_trace::finish()
    }

    #[test]
    fn bsp_lockstep_passes_and_divergent_barrier_fails() {
        let ok = synthetic(|| {
            for round in 0..3u64 {
                compute(0, round * 10);
                compute(1, round * 10 + 1);
                het_trace::set_scope(round * 10 + 2, None);
                het_trace::emit("trainer", "barrier", Some(1), vec![]);
            }
        });
        let r = check_replay(&ok, &spec(SyncMode::Bsp, None, 2)).unwrap();
        assert_eq!(r.computes, 6);
        assert_eq!(r.barriers, 3);
        assert_eq!(r.max_spread, 1);

        let bad = synthetic(|| {
            compute(0, 0);
            compute(0, 10);
            het_trace::set_scope(11, None);
            het_trace::emit("trainer", "barrier", Some(1), vec![]);
        });
        let v = check_replay(&bad, &spec(SyncMode::Bsp, None, 2)).unwrap_err();
        assert_eq!(v.check, "sync-any-time-bound");
    }

    #[test]
    fn ssp_spread_bound_is_enforced() {
        let s = 1u64;
        let ok = synthetic(|| {
            compute(0, 0);
            compute(0, 10); // spread 2 = s + 1: admissible in flight
            compute(1, 11);
            compute(1, 12);
        });
        check_replay(&ok, &spec(SyncMode::Ssp { staleness: s }, None, 2)).unwrap();

        let bad = synthetic(|| {
            compute(0, 0);
            compute(0, 10);
            compute(0, 20); // spread 3 > s + 1
        });
        let v = check_replay(&bad, &spec(SyncMode::Ssp { staleness: s }, None, 2)).unwrap_err();
        assert_eq!(v.check, "sync-any-time-bound");
    }

    #[test]
    fn asp_is_unbounded_but_monotone() {
        let ok = synthetic(|| {
            for i in 0..50u64 {
                compute(0, i * 10);
            }
            compute(1, 999);
        });
        let r = check_replay(&ok, &spec(SyncMode::Asp, None, 2)).unwrap();
        // Worker 1 sits at 0 completed iterations while worker 0 runs
        // to 50, so the maximum observed spread is the full 50.
        assert_eq!(r.max_spread, 50);

        let bad = synthetic(|| {
            compute(0, 100);
            compute(0, 50); // time moved backwards
        });
        let v = check_replay(&bad, &spec(SyncMode::Asp, None, 2)).unwrap_err();
        assert_eq!(v.check, "monotone-progress");
    }

    #[test]
    fn stale_read_window_is_flagged() {
        let log = synthetic(|| {
            het_trace::set_scope(5, Some(0));
            het_trace::emit(
                "client",
                "read_window",
                None,
                vec![
                    field("validated", 3u64),
                    field("degraded", 0u64),
                    field("max_lag", 4u64),
                    field("max_gap", 0u64),
                ],
            );
        });
        check_replay(&log, &spec(SyncMode::Bsp, Some(4), 1)).unwrap();
        let v = check_replay(&log, &spec(SyncMode::Bsp, Some(3), 1)).unwrap_err();
        assert_eq!(v.check, "cache-window");
        assert!(v.message.contains("write lag"));
    }

    #[test]
    fn unbalanced_dirty_ledger_is_flagged() {
        let log = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("cache", "dirtied", 5);
            het_trace::counter_add("cache", "writebacks", 4);
            het_trace::counter_add("ps", "pushes", 4);
        });
        let v = check_replay(&log, &spec(SyncMode::Bsp, Some(2), 1)).unwrap_err();
        assert_eq!(v.check, "gradient-conservation");

        // A crash event accounting for the missing entry balances it.
        let balanced = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("cache", "dirtied", 5);
            het_trace::counter_add("cache", "writebacks", 4);
            het_trace::counter_add("ps", "pushes", 4);
            het_trace::emit(
                "trainer",
                "worker_crash",
                None,
                vec![field("dirty_lost", 1u64)],
            );
        });
        let r = check_replay(&balanced, &spec(SyncMode::Bsp, Some(2), 1)).unwrap();
        assert_eq!(r.conservation_workers, 1);
    }

    #[test]
    fn push_parity_mismatch_is_flagged() {
        let log = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("cache", "dirtied", 3);
            het_trace::counter_add("cache", "writebacks", 3);
            het_trace::counter_add("ps", "pushes", 2);
        });
        let v = check_replay(&log, &spec(SyncMode::Bsp, Some(2), 1)).unwrap_err();
        assert_eq!(v.check, "gradient-conservation");
        assert!(v.message.contains("PS applied"));
    }

    /// A minimal consistent prefetch narrative: 4 keys pulled, 3
    /// installed (narrated by `prefetch_install` events), 2 consumed as
    /// hits (narrated by `prefetch_hit`), 1 flushed as waste.
    fn balanced_prefetch_trace() {
        het_trace::set_scope(1, Some(0));
        het_trace::counter_add("prefetcher", "issued_keys", 4);
        het_trace::counter_add("cache", "prefetch_installs", 3);
        het_trace::emit(
            "prefetcher",
            "prefetch_install",
            None,
            vec![field("installed", 3u64), field("waited_ns", 0u64)],
        );
        het_trace::counter_add("cache", "hits", 5);
        het_trace::counter_add("cache", "prefetch_hits", 2);
        het_trace::emit("prefetcher", "prefetch_hit", None, vec![field("n", 2u64)]);
        het_trace::counter_add("cache", "prefetch_wasted", 1);
        het_trace::emit("prefetcher", "prefetch_waste", None, vec![field("n", 1u64)]);
    }

    #[test]
    fn balanced_prefetch_ledger_passes_and_is_reported() {
        let log = synthetic(balanced_prefetch_trace);
        let r = check_replay(&log, &prefetch_spec(2, 4, 1)).unwrap();
        assert_eq!(r.prefetch_installs, 3);
    }

    #[test]
    fn unbalanced_prefetch_ledger_is_flagged() {
        // An install that never resolves to a hit or a waste.
        let log = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("prefetcher", "issued_keys", 4);
            het_trace::counter_add("cache", "prefetch_installs", 3);
            het_trace::emit(
                "prefetcher",
                "prefetch_install",
                None,
                vec![field("installed", 3u64)],
            );
            het_trace::counter_add("cache", "hits", 2);
            het_trace::counter_add("cache", "prefetch_hits", 2);
            het_trace::emit("prefetcher", "prefetch_hit", None, vec![field("n", 2u64)]);
        });
        let v = check_replay(&log, &prefetch_spec(2, 4, 1)).unwrap_err();
        assert_eq!(v.check, "prefetch-ledger");
        assert!(v.message.contains("resolved to"), "{}", v.message);

        // Installs the prefetcher never pulled.
        let log = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("cache", "prefetch_installs", 2);
            het_trace::emit(
                "prefetcher",
                "prefetch_install",
                None,
                vec![field("installed", 2u64)],
            );
            het_trace::counter_add("cache", "hits", 2);
            het_trace::counter_add("cache", "prefetch_hits", 2);
            het_trace::emit("prefetcher", "prefetch_hit", None, vec![field("n", 2u64)]);
        });
        let v = check_replay(&log, &prefetch_spec(2, 4, 1)).unwrap_err();
        assert_eq!(v.check, "prefetch-ledger");
        assert!(v.message.contains("ever pulled"), "{}", v.message);
    }

    #[test]
    fn prefetch_event_stream_must_reconcile_with_counters() {
        // Counters claim 3 installs but the event stream only narrates 2.
        let log = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("prefetcher", "issued_keys", 4);
            het_trace::counter_add("cache", "prefetch_installs", 3);
            het_trace::emit(
                "prefetcher",
                "prefetch_install",
                None,
                vec![field("installed", 2u64)],
            );
            het_trace::counter_add("cache", "hits", 3);
            het_trace::counter_add("cache", "prefetch_hits", 3);
            het_trace::emit("prefetcher", "prefetch_hit", None, vec![field("n", 3u64)]);
        });
        let v = check_replay(&log, &prefetch_spec(2, 4, 1)).unwrap_err();
        assert_eq!(v.check, "prefetch-ledger");
        assert!(
            v.message.contains("prefetch_install events"),
            "{}",
            v.message
        );
    }

    #[test]
    fn prefetch_hits_cannot_exceed_total_hits() {
        let log = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("prefetcher", "issued_keys", 4);
            het_trace::counter_add("cache", "prefetch_installs", 3);
            het_trace::emit(
                "prefetcher",
                "prefetch_install",
                None,
                vec![field("installed", 3u64)],
            );
            het_trace::counter_add("cache", "hits", 1);
            het_trace::counter_add("cache", "prefetch_hits", 3);
            het_trace::emit("prefetcher", "prefetch_hit", None, vec![field("n", 3u64)]);
        });
        let v = check_replay(&log, &prefetch_spec(2, 4, 1)).unwrap_err();
        assert_eq!(v.check, "prefetch-ledger");
        assert!(v.message.contains("total hits"), "{}", v.message);
    }

    #[test]
    fn depth_zero_runs_must_stay_prefetch_silent() {
        // A prefetcher event in a depth-0 spec is an attribution leak.
        let log = synthetic(balanced_prefetch_trace);
        let v = check_replay(&log, &prefetch_spec(2, 0, 1)).unwrap_err();
        assert_eq!(v.check, "prefetch-attribution");

        // Counters alone (no events) still break depth-0 silence.
        let log = synthetic(|| {
            het_trace::set_scope(1, Some(0));
            het_trace::counter_add("prefetcher", "issued_keys", 1);
        });
        let v = check_replay(&log, &prefetch_spec(2, 0, 1)).unwrap_err();
        assert_eq!(v.check, "prefetch-silence");

        // And prefetching without a cached sparse path is impossible.
        let log = synthetic(balanced_prefetch_trace);
        let v = check_replay(
            &log,
            &OracleSpec {
                lookahead_depth: 4,
                ..spec(SyncMode::Bsp, None, 1)
            },
        )
        .unwrap_err();
        assert_eq!(v.check, "prefetch-attribution");
        assert!(v.message.contains("cached sparse path"), "{}", v.message);
    }

    #[test]
    fn violation_serialises_to_json() {
        let v = Violation {
            check: "cache-window",
            t_ns: 42,
            worker: Some(1),
            message: "boom".to_string(),
        };
        let Json::Obj(obj) = v.to_json() else {
            panic!("violation must serialise to an object");
        };
        assert!(obj.iter().any(|(k, v)| k == "t_ns" && *v == Json::UInt(42)));
    }
}
