//! End-to-end integration: every model × every system trains to
//! completion through the full stack (data → cache/PS → trainer), and
//! the cache-enabled system actually learns.

use het::prelude::*;

fn ctr_dataset(seed: u64) -> CtrDataset {
    CtrDataset::new(CtrConfig::tiny(seed))
}

fn tiny_config(preset: SystemPreset) -> TrainerConfig {
    TrainerConfig::tiny(preset)
}

#[test]
fn wdl_trains_on_every_system() {
    for preset in [
        SystemPreset::TfPs,
        SystemPreset::TfParallax,
        SystemPreset::HetPs,
        SystemPreset::HetAr,
        SystemPreset::HetHybrid,
        SystemPreset::HetCache { staleness: 10 },
    ] {
        let mut trainer = Trainer::new(tiny_config(preset), ctr_dataset(1), |rng| {
            WideDeep::new(rng, 4, 8, &[16])
        });
        let report = trainer.run();
        assert!(report.total_iterations >= 200, "{preset:?} stopped early");
        assert!(report.final_metric > 0.3, "{preset:?} metric degenerate");
    }
}

#[test]
fn dfm_and_dcn_train_under_het_cache() {
    let dfm = {
        let mut t = Trainer::new(
            tiny_config(SystemPreset::HetCache { staleness: 10 }),
            ctr_dataset(2),
            |rng| DeepFm::new(rng, 4, 8, &[16]),
        );
        t.run()
    };
    assert!(dfm.final_metric.is_finite());
    assert!(dfm.cache.lookups() > 0);

    let dcn = {
        let mut t = Trainer::new(
            tiny_config(SystemPreset::HetCache { staleness: 10 }),
            ctr_dataset(3),
            |rng| DeepCross::new(rng, 4, 8, 2, &[16]),
        );
        t.run()
    };
    assert!(dcn.final_metric.is_finite());
}

#[test]
fn graphsage_trains_under_het_cache() {
    let graph = Graph::generate(GraphConfig::tiny(5));
    let classes = graph.config().n_classes;
    let dataset = GnnDataset::new(graph, NeighborSampler::new(4, 3));
    let mut trainer = Trainer::new(
        tiny_config(SystemPreset::HetCache { staleness: 10 }),
        dataset,
        move |rng| GraphSage::new(rng, 8, 16, classes),
    );
    let report = trainer.run();
    assert!(report.final_metric >= 0.0 && report.final_metric <= 1.0);
    assert!(report.cache.hits > 0, "hub nodes should hit the cache");
}

#[test]
fn het_cache_learns_above_chance() {
    // A longer run on the tiny workload must push AUC clearly above 0.5.
    let mut config = tiny_config(SystemPreset::HetCache { staleness: 10 })
        .with_cache(0.6, PolicyKind::light_lfu());
    config.max_iterations = 4_000;
    config.eval_every = 1_000;
    config.lr = 0.1;
    let mut trainer = Trainer::new(config, ctr_dataset(11), |rng| {
        WideDeep::new(rng, 4, 8, &[16])
    });
    let report = trainer.run();
    assert!(
        report.final_metric > 0.6,
        "AUC {} should be well above chance",
        report.final_metric
    );
    // And the curve should be broadly increasing: last point >= first.
    let first = report.curve.first().unwrap().metric;
    let last = report.curve.last().unwrap().metric;
    assert!(last >= first - 0.02, "curve regressed: {first} -> {last}");
}

#[test]
fn bsp_oracle_equivalence_at_zero_staleness() {
    // With one worker and s = 0, the cached system computes exactly the
    // same updates as the cache-less hybrid; updates merely *reach the
    // server later* (they sit in the cache until eviction/flush). After
    // the end-of-training flush, server state — and therefore the final
    // metric — must be identical. Mid-run server snapshots are allowed
    // to lag: that is precisely the stale-write semantics.
    let run = |preset: SystemPreset| {
        let mut config = TrainerConfig::tiny(preset);
        config.cluster = ClusterSpec::cluster_a(1, 1);
        config.max_iterations = 60;
        config.eval_every = 20;
        let mut t = Trainer::new(config, ctr_dataset(21), |rng| {
            WideDeep::new(rng, 4, 8, &[16])
        });
        let report = t.run();
        (report, t)
    };
    let (cached_report, cached) = run(SystemPreset::HetCache { staleness: 0 });
    let (hybrid_report, hybrid) = run(SystemPreset::HetHybrid);
    assert!(
        (cached_report.final_metric - hybrid_report.final_metric).abs() < 1e-9,
        "post-flush final metric must match: {} vs {}",
        cached_report.final_metric,
        hybrid_report.final_metric
    );
    // Post-flush, every touched embedding is bit-identical on the server.
    for key in 0..cached.dataset().total_keys() as Key {
        match (cached.server().snapshot(key), hybrid.server().snapshot(key)) {
            (Some(a), Some(b)) => {
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 1e-5, "key {key}: {x} vs {y}");
                }
            }
            (None, None) => {}
            (a, b) => panic!("key {key} materialised on one server only: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn statistical_efficiency_shared_across_backbones() {
    // Paper §5.1: HET PS and TF PS share statistical efficiency — same
    // metric per iteration — and differ only in time. Same for the
    // hybrid pair.
    let run = |preset: SystemPreset| {
        let mut config = TrainerConfig::tiny(preset);
        config.max_iterations = 120;
        config.eval_every = 40;
        let mut t = Trainer::new(config, ctr_dataset(31), |rng| {
            WideDeep::new(rng, 4, 8, &[16])
        });
        t.run()
    };
    let het_hybrid = run(SystemPreset::HetHybrid);
    let tf_parallax = run(SystemPreset::TfParallax);
    let a: Vec<f64> = het_hybrid.curve.iter().map(|p| p.metric).collect();
    let b: Vec<f64> = tf_parallax.curve.iter().map(|p| p.metric).collect();
    assert_eq!(a, b, "same per-iteration trajectory expected");
    assert!(
        het_hybrid.total_sim_time < tf_parallax.total_sim_time,
        "HET backbone must be faster in simulated time"
    );
}
