//! The one experiment table and its one runner. `hetctl exp <name>` and
//! the `paper` bench target (`cargo bench -p het-bench`) both call
//! [`run_experiment`]; `hetctl list` prints [`EXPERIMENTS`].

use crate::{experiments_dir, nearest, paper, sweeps, Args, Table, TRACE_FLAGS};

/// An experiment's body: flags in, records out. Nothing is printed or
/// written there — the runner does both.
pub type RunFn = fn(&Args) -> Result<Vec<Table>, String>;
/// An experiment's pass condition: the records and the `--gate`
/// threshold in, the verdict's wording out.
pub type GateFn = fn(&[Table], f64) -> Result<String, String>;

/// One row of [`EXPERIMENTS`]: a paper figure or table, an ablation, or
/// a sweep.
pub struct Experiment {
    /// What `hetctl exp` and `cargo bench … --` call it.
    pub name: &'static str,
    /// The banner line.
    pub title: &'static str,
    /// Groups of whitespace-separated flags it reads.
    pub flags: &'static [&'static str],
    /// Runs it.
    pub run: RunFn,
    /// The pass condition `--gate <threshold>` turns on.
    pub gate: Option<GateFn>,
}

/// A row with no flags and no gate: a fixed recipe of the paper.
const fn fixed(name: &'static str, title: &'static str, run: RunFn) -> Experiment {
    Experiment {
        name,
        title,
        flags: &[],
        run,
        gate: None,
    }
}

/// Every experiment of the reproduction: the paper's §5 in its order,
/// then the sweeps added beside it.
pub const EXPERIMENTS: &[Experiment] = &[
    fixed(
        "fig2",
        "Figure 2: large embedding model workloads on a remote-PS deployment",
        paper::fig2,
    ),
    fixed(
        "fig3",
        "Figure 3: embedding update-popularity skewness",
        paper::fig3,
    ),
    fixed(
        "fig6",
        "Figure 6: convergence (metric vs simulated time), 8 workers, 1 GbE",
        paper::fig6,
    ),
    fixed(
        "table1",
        "Table 1: end-to-end convergence time to the quality target",
        paper::table1,
    ),
    fixed(
        "fig7",
        "Figure 7: per-epoch time on DLRM tasks (a: 1 GbE, b: 10 GbE)",
        paper::fig7,
    ),
    fixed(
        "table2",
        "Table 2: final test AUC under different staleness thresholds",
        paper::table2,
    ),
    fixed(
        "fig8",
        "Figure 8: cache miss rate vs cache size and policy (GNN tasks)",
        paper::fig8,
    ),
    fixed(
        "fig9",
        "Figure 9: scalability (a: WDL, b: GNN-Reddit, c: embedding dim sweep)",
        paper::fig9,
    ),
    fixed(
        "ablation-backbone",
        "Ablation: backbone optimisations on the cache-less hybrid (WDL, 1 GbE)",
        paper::ablation_backbone,
    ),
    fixed(
        "ablation-consistency",
        "Ablation: consistency models on WDL-Criteo (8 workers, 1 GbE)",
        paper::ablation_consistency,
    ),
    fixed(
        "fault-sweep",
        "Fault sweep: convergence under crashes, failovers, stragglers, drops",
        paper::fault_sweep,
    ),
    fixed(
        "serve-sweep",
        "Serving sweep: p99 latency vs. cache capacity (warmed replicas)",
        paper::serve_sweep,
    ),
    Experiment {
        name: "prefetch-sweep",
        title: "Prefetch sweep: cycle time vs lookahead depth (Fig. 2 recipe, remote PS)",
        flags: &["depths iters gate trace-depth", TRACE_FLAGS],
        run: sweeps::prefetch_sweep,
        gate: Some(sweeps::prefetch_gate),
    },
    Experiment {
        name: "scale-sweep",
        title: "Scale sweep: threaded wall-clock throughput vs threads and vs the sim twin",
        flags: &["threads iters gate"],
        run: sweeps::scale_sweep,
        gate: Some(sweeps::scale_gate),
    },
    Experiment {
        name: "store-sweep",
        title: "Store sweep: memory-vs-disk crossover of the tiered row store",
        flags: &["keys ops hot dim spill gate"],
        run: sweeps::store_sweep,
        gate: Some(sweeps::store_gate),
    },
    Experiment {
        name: "policy-shootout",
        title: "Policy shootout: scenario x eviction policy leaderboard",
        flags: &["iters requests gate"],
        run: sweeps::policy_shootout,
        gate: Some(sweeps::shootout_gate),
    },
];

/// Runs the experiment called `name` with its `--flag value` arguments:
/// prints each record, writes it under the experiments dir, and only
/// then evaluates the gate, so a failing gate still leaves its JSON
/// behind.
pub fn run_experiment(name: &str, argv: &[String]) -> Result<(), String> {
    let names = || EXPERIMENTS.iter().map(|e| e.name);
    let exp = EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let hint = nearest(name, names()).unwrap_or("fig2");
        format!("unknown experiment '{name}' (did you mean {hint}? `hetctl list` names them all)")
    })?;
    let args = Args::parse(argv, exp.flags)?;
    let threshold: f64 = args.get_parsed("gate", 0.0)?;
    // Fail before the run, not after it, when records cannot be kept.
    experiments_dir()?;
    println!("\n{}\n{}\n{}\n", "=".repeat(76), exp.title, "=".repeat(76));
    let tables = (exp.run)(&args)?;
    for table in &tables {
        table.print();
        table.write()?;
    }
    if let (Some(gate), true) = (exp.gate, threshold > 0.0) {
        println!("verdict: PASS ({})", gate(&tables, threshold)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_gates_have_their_flag() {
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.name != exp.name),
                "duplicate experiment {}",
                exp.name
            );
            let mut flags = exp.flags.iter().flat_map(|g| g.split_whitespace());
            let takes_gate = flags.any(|f| f == "gate");
            assert_eq!(takes_gate, exp.gate.is_some(), "{}", exp.name);
        }
    }
}
