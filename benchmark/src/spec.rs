//! The metric tables: every name the benchmark prints, with its unit,
//! direction and bound. `BENCHMARK.json` at the repo root must list
//! exactly these (a unit test compares the two).

use crate::stats::Better;
use het::prelude::PolicyKind;

/// An end-to-end metric: reported by every workload with `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Absolute allowance of the noise self-test's `max(relative,
    /// absolute)` rule, in the metric's unit (not part of the contract).
    pub abs_floor: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const ITERS_PER_S: &str = "iters_per_s";
pub const REQ_PER_S: &str = "req_per_s";
pub const MODELLED_S: &str = "modelled_s";
pub const FINAL_METRIC: &str = "final_metric";
pub const BATCH_US_P50: &str = "batch_us_p50";
pub const BATCH_US_P99: &str = "batch_us_p99";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.05,
    },
    EndToEnd {
        name: ITERS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: REQ_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: MODELLED_S,
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.02,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: FINAL_METRIC,
        unit: "score",
        better: Better::Higher,
        bound: 0.15,
        abs_floor: 0.005,
    },
    EndToEnd {
        name: BATCH_US_P50,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: BATCH_US_P99,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        abs_floor: 1.0,
    },
];

/// A per-layer metric: reported by every workload with `--trace 1`.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric on which workload this should move, and
    /// where it should not — written down before measuring.
    pub moves: &'static str,
}

/// Suffix of a policy in metric names (`het_cache.hit_get_ns.lru`, …).
pub fn policy_suffix(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Lru => "lru",
        PolicyKind::Lfu => "lfu",
        PolicyKind::LightLfu { .. } => "lightlfu",
        PolicyKind::Clock => "clock",
        PolicyKind::Slru => "slru",
        PolicyKind::Lfuda => "lfuda",
        PolicyKind::Gdsf => "gdsf",
        PolicyKind::Adaptive { .. } => "adaptive",
    }
}

/// The three per-policy cache probes.
pub const CACHE_PROBES: [&str; 3] = [
    "het_cache.hit_get_ns",
    "het_cache.update_ns",
    "het_cache.install_evict_ns",
];

/// The four PS probes; each also exists with a `_2t` suffix.
pub const PS_PROBES: [&str; 4] = [
    "het_ps.pull_ns_per_key",
    "het_ps.pull_many_ns_per_key",
    "het_ps.push_ns_per_key",
    "het_ps.clock_of_ns",
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, moves: &'static str| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            moves,
        });
    };

    const SPARSE: &str =
        "iters_per_s on gnn_sim, gnn_threads_bsp; req_per_s, batch_us_p50 on serve_threads (read only); not wdl_sim";
    add(
        "het_data.batch_us",
        "us",
        Lower,
        "iters_per_s on gnn_sim, gnn_threads_* (12-18 % of a step); not wdl_sim (3 %)",
    );
    add("het_core.read_us", "us", Lower, SPARSE);
    add("het_core.read_ns_per_key", "ns", Lower, SPARSE);
    add("het_core.write_us", "us", Lower, SPARSE);
    add("het_core.write_ns_per_key", "ns", Lower, SPARSE);
    add(
        "het_models.fwd_bwd_us",
        "us",
        Lower,
        "iters_per_s on wdl_sim (~89 % of a step); at most a quarter of that on gnn_sim",
    );
    add(
        "het_models.forward_us",
        "us",
        Lower,
        "req_per_s, batch_us_p50 on serve_threads; the final evaluation elsewhere",
    );
    const TENSOR: &str = "iters_per_s on wdl_sim; little on serve_threads";
    add("het_tensor.dense_step_us", "us", Lower, TENSOR);
    add("het_tensor.matmul_gflops", "GFLOP/s", Higher, TENSOR);
    add("het_tensor.matmul_tn_gflops", "GFLOP/s", Higher, TENSOR);
    add("het_tensor.matmul_nt_gflops", "GFLOP/s", Higher, TENSOR);
    for probe in CACHE_PROBES {
        let moves = if probe.ends_with("install_evict_ns") {
            "iters_per_s on gnn_sim, gnn_threads_bsp (churn path); not gnn_threads_asp (no cache)"
        } else {
            "iters_per_s on wdl_sim, req_per_s on serve_threads (hit path); not gnn_threads_asp (no cache)"
        };
        for kind in PolicyKind::ALL {
            add(
                &format!("{probe}.{}", policy_suffix(kind)),
                "ns",
                Lower,
                moves,
            );
        }
    }
    add(
        "het_cache.hit_rate",
        "frac",
        Higher,
        "count; modelled_s on wdl_sim, gnn_sim",
    );
    add(
        "het_cache.evictions_per_iter",
        "count",
        Lower,
        "count; modelled_s on gnn_sim",
    );
    for probe in PS_PROBES {
        add(
            probe,
            "ns",
            Lower,
            "iters_per_s on gnn_sim, gnn_threads_asp; not wdl_sim (~50 us of 5.7 ms)",
        );
    }
    for probe in PS_PROBES {
        add(
            &format!("{probe}_2t"),
            "ns",
            Lower,
            "iters_per_s on gnn_threads_asp; req_per_s on serve_threads",
        );
    }
    add(
        "het_ps.contention_x",
        "x",
        Lower,
        "rising while pull_ns_per_key falls predicts a loss on gnn_threads_asp, serve_threads despite a gain on gnn_sim",
    );
    add(
        "het_ps.pulls_per_iter",
        "count",
        Lower,
        "count; modelled_s on wdl_sim, gnn_sim",
    );
    add(
        "het_ps.pushes_per_iter",
        "count",
        Lower,
        "count; modelled_s on wdl_sim, gnn_sim",
    );
    add(
        "het_store.mem_apply_ns",
        "ns",
        Lower,
        "same as het_ps.push_ns_per_key",
    );
    const TIERED: &str = "none: no end-to-end workload runs the tiered backend yet";
    add("het_store.tiered_hot_apply_ns", "ns", Lower, TIERED);
    add("het_store.tiered_cold_fetch_ns", "ns", Lower, TIERED);
    add("het_store.compact_mb_per_s", "MB/s", Higher, TIERED);
    const RUNTIME: &str = "iters_per_s on gnn_threads_bsp; not the sim workloads";
    add("het_runtime.barrier_round_ns", "ns", Lower, RUNTIME);
    add("het_runtime.turnstile_pass_ns", "ns", Lower, RUNTIME);
    add("het_runtime.wallclock_stamp_ns", "ns", Lower, RUNTIME);
    add(
        "thread_speedup",
        "x",
        Higher,
        "derived: 2-thread over 1-thread rate of the workload's job; says whether a gnn_threads_bsp gain came from the scheduler or the layers",
    );
    add(
        "het_core.trainer_overhead_frac",
        "frac",
        Lower,
        "iters_per_s on the sim workloads (Trainer + event loop + eval beyond the layer calls)",
    );
    add(
        "het_serve.loop_overhead_frac",
        "frac",
        Lower,
        "batch_us_p50 on serve_threads",
    );
    const MODELLED: &str =
        "modelled_s on wdl_sim, gnn_sim; a host-speed change must leave it identical";
    add("het_simnet.comm_bytes_per_iter", "bytes", Lower, MODELLED);
    add("het_simnet.modelled_read_ms", "sim_ms", Lower, MODELLED);
    add("het_simnet.modelled_compute_ms", "sim_ms", Lower, MODELLED);
    add("het_simnet.modelled_write_ms", "sim_ms", Lower, MODELLED);
    add("het_simnet.modelled_dense_ms", "sim_ms", Lower, MODELLED);
    add(
        "het_trace.on_overhead_frac",
        "frac",
        Lower,
        "budget for ROADMAP item 5 (at most 5 %)",
    );
    add(
        "het_trace.events_per_iter",
        "count",
        Lower,
        "count; het_trace.on_overhead_frac",
    );
    add(
        "het_oracle.replay_events_per_s",
        "1/s",
        Higher,
        "CI campaign time only",
    );
    add(
        "bench.trace_overhead_frac",
        "frac",
        Lower,
        "the cost of the benchmark's own spans",
    );
    out
}

/// The unit of every metric of both tables.
pub fn units() -> Vec<(String, &'static str)> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name.to_string(), m.unit));
    end_to_end
        .chain(per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Workload;
    use het::json::Json;

    /// True for a name the contract accepts: starts with a letter or digit,
    /// at most 64 of letters, digits, `_`, `.`, `-`.
    fn well_formed_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    /// True for a unit the contract accepts.
    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        crate::suite::get(obj, key).unwrap_or_else(|| panic!("no key {key} in {obj:?}"))
    }

    fn text(j: &Json) -> &str {
        match j {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn items(j: &Json) -> &[Json] {
        match j {
            Json::Arr(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn number(j: &Json) -> f64 {
        crate::suite::number(j).unwrap_or_else(|| panic!("expected a number, got {j:?}"))
    }

    fn better_text(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(well_formed_unit(m.unit), "bad unit {:?}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        for m in per_layer() {
            assert!(well_formed_unit(m.unit), "bad unit {:?}", m.unit);
            assert!(!m.moves.is_empty());
        }
        assert!(per_layer().len() <= 128);
        assert!(!well_formed_name(".hidden") && !well_formed_name("a b") && !well_formed_name(""));
        assert!(!well_formed_unit("µs") && well_formed_unit("GFLOP/s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(raw.len() <= 64 * 1024);
        let doc = het::json::from_str(&raw).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("top level must be an object")
        };
        let mut keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let workloads: Vec<&str> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| {
                let why = text(field(w, "why"));
                assert!(!why.contains('\n') && why.len() <= 200, "why: {why}");
                text(field(w, "name"))
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e = items(field(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(field(j, "name")), m.name);
            assert_eq!(text(field(j, "unit")), m.unit, "{}", m.name);
            assert_eq!(
                text(field(j, "better")),
                better_text(m.better),
                "{}",
                m.name
            );
            assert_eq!(number(field(j, "bound")), m.bound, "{}", m.name);
        }
        assert!(e2e.iter().any(|j| text(field(j, "name")) == SETUP_S
            && text(field(j, "unit")) == "s"
            && text(field(j, "better")) == "lower"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound, largest,
            "setup_s gets the largest bound"
        );

        let layers = items(field(&doc, "per_layer"));
        let ours = per_layer();
        assert_eq!(layers.len(), ours.len());
        for (j, m) in layers.iter().zip(&ours) {
            assert_eq!(text(field(j, "name")), m.name);
            assert_eq!(text(field(j, "unit")), m.unit, "{}", m.name);
            assert_eq!(
                text(field(j, "better")),
                better_text(m.better),
                "{}",
                m.name
            );
        }

        let seconds = number(field(&doc, "run_seconds"));
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        for p in items(field(&doc, "paths")) {
            assert_eq!(text(p), "benchmark");
        }
    }
}
