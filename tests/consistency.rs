//! Consistency integration tests: Lemma 1 clock bounds under real
//! training, read-my-updates, and the SSP comparison — plus
//! property-based tests of the clock algebra under arbitrary operation
//! interleavings.

use het::core::consistency::{max_divergence, ConsistencyBound};
use het::core::HetClient;
use het::prelude::*;
use het_rng::rngs::StdRng;
use het_rng::{Rng, SeedableRng};

fn new_client(staleness: u64, dim: usize) -> HetClient {
    HetClient::new(256, staleness, PolicyKind::Lru, dim, 0.1)
}

fn new_server(dim: usize) -> PsServer {
    PsServer::new(PsConfig {
        dim,
        n_shards: 2,
        lr: 0.1,
        seed: 77,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: None,
    })
}

fn one_grad(dim: usize, key: Key) -> SparseGrads {
    let mut g = SparseGrads::new(dim);
    g.accumulate(key, &vec![0.1; dim]);
    g
}

#[test]
fn read_my_updates_holds() {
    // Paper §3.2: "the data read by a client contains all its own
    // updates" even though the server hasn't seen them.
    let dim = 4;
    let server = new_server(dim);
    let net = ClusterSpec::cluster_a(2, 1).collectives();
    let mut stats = CommStats::new();
    let mut client = new_client(100, dim);

    let (before, _) = client.read(&[9], &server, &net, &mut stats, None);
    let v0 = before.get(9).to_vec();
    client.write(&one_grad(dim, 9), &server, &net, &mut stats, None);
    let (after, _) = client.read(&[9], &server, &net, &mut stats, None);
    let v1 = after.get(9).to_vec();
    for (a, b) in v0.iter().zip(&v1) {
        assert!(
            (a - 0.1 * 0.1 - b).abs() < 1e-6,
            "local read must reflect the update"
        );
    }
    // Server still has the original.
    assert_eq!(server.pull(9).vector, v0);
}

#[test]
fn lemma1_bound_holds_during_real_training() {
    // Run a cached training and sample divergence after each round via
    // the public accessors.
    let s = 5;
    let dataset = CtrDataset::new(CtrConfig::tiny(41));
    let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: s });
    config.max_iterations = 400;
    let mut trainer = Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]));
    let _ = trainer.run();
    let clients: Vec<&HetClient> = (0..trainer.n_workers())
        .filter_map(|w| trainer.worker_client(w))
        .collect();
    assert_eq!(clients.len(), 4);
    assert!(
        ConsistencyBound::cache_clock(s).holds_any_time(max_divergence(&clients)),
        "divergence {} exceeds any-time bound 2s+2={}",
        max_divergence(&clients),
        2 * s + 2
    );
}

#[test]
fn unbounded_staleness_violates_tight_bound_eventually() {
    // With effectively infinite s the clocks are free to diverge far
    // beyond what small-s HET permits — the cache never invalidates.
    let dim = 2;
    let server = new_server(dim);
    let net = ClusterSpec::cluster_a(2, 1).collectives();
    let mut stats = CommStats::new();
    let mut fast = new_client(u64::MAX, dim);
    let mut slow = new_client(u64::MAX, dim);
    let _ = fast.read(&[1], &server, &net, &mut stats, None);
    let _ = slow.read(&[1], &server, &net, &mut stats, None);
    for _ in 0..50 {
        fast.write(&one_grad(dim, 1), &server, &net, &mut stats, None);
    }
    assert_eq!(max_divergence(&[&fast, &slow]), 50);
    assert!(!ConsistencyBound::cache_clock(5).holds_any_time(max_divergence(&[&fast, &slow])));
}

/// Under any interleaving of reads/writes by two workers on one key,
/// validated clock state never exceeds the any-time bound, provided
/// both workers validate (read) regularly.
#[test]
fn prop_clock_bounds_under_interleavings() {
    let mut rng = StdRng::seed_from_u64(0xC0_0151);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..120);
        let ops: Vec<(usize, usize)> = (0..n)
            .map(|_| (rng.gen_range(0usize..2), rng.gen_range(0usize..3)))
            .collect();
        let s = rng.gen_range(0u64..6);
        let dim = 2;
        let server = new_server(dim);
        let net = ClusterSpec::cluster_a(2, 1).collectives();
        let mut stats = CommStats::new();
        let mut clients = [new_client(s, dim), new_client(s, dim)];
        let key: Key = 3;

        for (who, what) in ops {
            let c = &mut clients[who];
            match what {
                // read (validates)
                0 | 2 => {
                    let _ = c.read(&[key], &server, &net, &mut stats, None);
                }
                // write — protocol requires the key resident, so read
                // first if it is not.
                _ => {
                    if !c.cache().find(key) {
                        let _ = c.read(&[key], &server, &net, &mut stats, None);
                    }
                    c.write(&one_grad(dim, key), &server, &net, &mut stats, None);
                }
            }
            // After every step both sides re-validate, then the tight
            // Lemma 1 bound must hold.
            let _ = clients[0].read(&[key], &server, &net, &mut stats, None);
            let _ = clients[1].read(&[key], &server, &net, &mut stats, None);
            let refs: Vec<&HetClient> = clients.iter().collect();
            assert!(
                ConsistencyBound::cache_clock(s).holds_any_time(max_divergence(&refs)),
                "divergence {} > 2s+2 with s={}",
                max_divergence(&refs),
                s
            );
        }
    }
}

/// Per-sync-mode bounds under real traced training, checked by the
/// sequential reference oracle: BSP workers agree exactly at every
/// barrier (bound 0), SSP spread never exceeds s (+1 in flight), ASP
/// is unbounded but each worker's progress stays monotone.
#[test]
fn per_sync_mode_bounds_hold_in_training() {
    use het_oracle::{check_replay, OracleSpec};
    for (preset, label) in [
        (SystemPreset::HetHybrid, "bsp"),
        (SystemPreset::Ssp { staleness: 2 }, "ssp"),
        (SystemPreset::HetPs, "asp"),
        (SystemPreset::HetCache { staleness: 10 }, "bsp-cached"),
    ] {
        let mut config = TrainerConfig::tiny(preset);
        config.max_iterations = 120;
        let dataset = CtrDataset::new(CtrConfig::tiny(17));
        het::trace::start(vec![]);
        let mut trainer = Trainer::new(config.clone(), dataset, |rng| {
            WideDeep::new(rng, 4, 8, &[16])
        });
        let _ = trainer.run();
        let log = het::trace::finish();
        if let Err(v) = check_replay(&log, &OracleSpec::of(&config)) {
            panic!("{label}: oracle violation [{}]: {}", v.check, v.message);
        }
    }
}

/// The server clock never regresses, and equals the max local clock
/// pushed so far.
#[test]
fn prop_server_clock_monotone() {
    let mut rng = StdRng::seed_from_u64(0xC0_0152);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..40);
        let pushes: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..50)).collect();
        let server = new_server(1);
        let mut high = 0u64;
        for c in pushes {
            server.push_with_clock(1, &[0.0], c);
            high = high.max(c);
            assert_eq!(server.clock_of(1), high);
        }
    }
}
