//! Reproducibility: the entire simulation — training math, clock
//! algebra, byte counters, convergence curves, fault schedules — is a
//! deterministic function of the seed. The seeded matrix (sync mode,
//! prefetch, policy zoo, tiered store, serving, colocated; each clean
//! and faulted) runs once here, family by family, against the digest
//! ledger `tests/golden/digests.tsv`, so a report or trace that moves
//! fails across commits, not only between two runs of one build (the
//! cells are `tests/cells`; the `hetctl` cells and `-- --ignored
//! regenerate` are `crates/bench/tests/ledger.rs`). Also: different
//! seeds differ, and the data generators and the PS's lazy row init do
//! not depend on instance or order.

mod cells;

use het::prelude::*;

fn run(seed: u64, preset: SystemPreset) -> TrainReport {
    let dataset = CtrDataset::new(CtrConfig::tiny(seed));
    let mut config = TrainerConfig::tiny(preset);
    config.seed = seed;
    config.max_iterations = 240;
    let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    trainer.run()
}

/// HET cache, SSP and HET PS × seeds 3, 7, 9.
#[test]
fn seed_matrix_identical_reports() {
    cells::check_family("sync/");
}

/// Lookahead 4 under BSP, ASP and SSP × seeds 3, 7.
#[test]
fn prefetch_seed_matrix_identical_reports() {
    cells::check_family("prefetch/");
}

/// SLRU, LFUDA, GDSF and adaptive at a 5 % cache × seeds 3, 7.
#[test]
fn policy_zoo_seed_matrix_identical_reports_and_traces() {
    cells::check_family("policy/");
}

/// A 16-row tier that spills and a 256-row one that holds the table.
#[test]
fn tiered_store_seed_matrix_identical_reports_and_traces() {
    cells::check_family("tiered/");
}

#[test]
fn serve_seed_matrix_identical_reports() {
    cells::check_family("serve/");
}

/// Training and serving on one runtime × seeds 3, 7.
#[test]
fn colocated_seed_matrix_identical_reports_and_traces() {
    cells::check_family("colocate/");
}

#[test]
fn different_seeds_differ() {
    let a = run(1, SystemPreset::HetCache { staleness: 10 });
    let b = run(2, SystemPreset::HetCache { staleness: 10 });
    // Different data & init ⇒ different learning trajectory.
    assert_ne!(a.final_metric, b.final_metric);
}

#[test]
fn dataset_generation_is_stable_across_instances() {
    let a = CtrDataset::new(CtrConfig::criteo_like(3));
    let b = CtrDataset::new(CtrConfig::criteo_like(3));
    for i in 0..50 {
        assert_eq!(a.example(i, false), b.example(i, false));
        assert_eq!(a.example(i, true), b.example(i, true));
    }
    let ga = Graph::generate(GraphConfig::tiny(3));
    let gb = Graph::generate(GraphConfig::tiny(3));
    for v in 0..ga.n_nodes() as u32 {
        assert_eq!(ga.neighbors_of(v), gb.neighbors_of(v));
    }
}

#[test]
fn server_lazy_init_is_order_independent() {
    let a = PsServer::new(PsConfig {
        dim: 8,
        n_shards: 4,
        lr: 0.1,
        seed: 5,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: None,
    });
    let b = PsServer::new(PsConfig {
        dim: 8,
        n_shards: 4,
        lr: 0.1,
        seed: 5,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: None,
    });
    // Touch in opposite orders.
    for k in 0..100u64 {
        let _ = a.pull(k);
    }
    for k in (0..100u64).rev() {
        let _ = b.pull(k);
    }
    for k in 0..100u64 {
        assert_eq!(a.pull(k).vector, b.pull(k).vector);
    }
}
