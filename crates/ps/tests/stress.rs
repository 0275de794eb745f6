//! Concurrency torture tests for the shared-fabric [`PsServer`].
//!
//! The threaded execution backend (DESIGN.md §3.13) hammers one
//! `Arc<PsServer>` from every worker and replica thread at once, so
//! the server's internal sharding/locking has to hold up under real
//! contention — not just under the simulator's one-at-a-time schedule.
//! These tests recreate that contention deliberately: several threads
//! mix pulls, pushes, bulk pulls, and snapshots over a small hot key
//! space (small on purpose — maximum shard-lock collision), with
//! seeded `yield_now`/`sleep` injection to perturb the interleaving
//! differently on every run while staying reproducible per seed.
//!
//! Invariants checked (all independent of interleaving):
//!
//! * **Clock conservation** — every `push_inc` bumps exactly one key's
//!   clock by one, so after joining, the clocks across the key space
//!   sum to the total number of pushes issued.
//! * **Per-key clock monotonicity** — a reader that polls one key must
//!   observe a non-decreasing clock sequence.
//! * **Vector integrity** — every pulled vector has length `dim` and
//!   finite entries (no torn reads).
//!
//! `ci.sh` runs this file with a high `RUST_TEST_THREADS` so the tests
//! themselves also run concurrently; see `tests/README.md` for how to
//! re-run it under ThreadSanitizer.

use het_ps::{PsConfig, PsServer, ServerOptimizer};
use het_rng::rngs::StdRng;
use het_rng::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const DIM: usize = 8;
const N_KEYS: u64 = 64;

fn server(n_shards: usize) -> Arc<PsServer> {
    let mut cfg = PsConfig::new(DIM);
    cfg.n_shards = n_shards;
    cfg.lr = 0.05;
    cfg.optimizer = ServerOptimizer::Sgd;
    Arc::new(PsServer::new(cfg))
}

/// Seeded schedule perturbation: mostly nothing, sometimes a yield,
/// occasionally a real (microsecond) sleep — enough to shake the
/// thread interleaving without slowing the test down.
fn jitter(rng: &mut StdRng) {
    match rng.next_u64() % 16 {
        0..=11 => {}
        12..=14 => std::thread::yield_now(),
        _ => std::thread::sleep(std::time::Duration::from_micros(rng.next_u64() % 20)),
    }
}

#[test]
fn concurrent_pushes_conserve_the_clock() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PUSHES_PER_WRITER: u64 = 2_000;

    let server = server(4);
    let pushed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let server = Arc::clone(&server);
            let pushed = Arc::clone(&pushed);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xA11CE + w as u64);
                let grad = vec![0.01f32; DIM];
                for _ in 0..PUSHES_PER_WRITER {
                    let key = rng.next_u64() % N_KEYS;
                    server.push_inc(key, &grad);
                    pushed.fetch_add(1, Ordering::Relaxed);
                    jitter(&mut rng);
                }
            });
        }
        // Readers poll a hot key each and assert per-key monotonicity
        // plus vector integrity, while the writers are live.
        for r in 0..READERS {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF + r as u64);
                let key = r as u64; // hottest keys, maximum collision
                let mut last_clock = 0u64;
                for _ in 0..1_500 {
                    let got = server.pull(key);
                    assert_eq!(got.vector.len(), DIM, "torn pull: wrong dim");
                    assert!(
                        got.vector.iter().all(|v| v.is_finite()),
                        "torn pull: non-finite entry"
                    );
                    assert!(
                        got.clock >= last_clock,
                        "per-key clock went backwards: {} then {}",
                        last_clock,
                        got.clock
                    );
                    last_clock = got.clock;
                    jitter(&mut rng);
                }
            });
        }
    });

    let total = pushed.load(Ordering::Relaxed);
    assert_eq!(total, (WRITERS as u64) * PUSHES_PER_WRITER);
    let clock_sum: u64 = (0..N_KEYS).map(|k| server.clock_of(k)).sum();
    assert_eq!(
        clock_sum, total,
        "clock conservation: every push bumps exactly one key clock once"
    );
}

#[test]
fn bulk_pulls_and_snapshots_race_cleanly_with_writers() {
    const WRITERS: usize = 3;
    const PUSHES_PER_WRITER: u64 = 1_200;

    let server = server(2); // few shards: bulk ops collide with pushes
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xD00D + w as u64);
                let grad = vec![-0.02f32; DIM];
                for _ in 0..PUSHES_PER_WRITER {
                    server.push_inc(rng.next_u64() % N_KEYS, &grad);
                    jitter(&mut rng);
                }
                done.store(true, Ordering::Release);
            });
        }
        // Bulk reader: pull_many over a window, then cross-check each
        // result against the per-key invariants.
        {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xF00);
                let mut floors = vec![0u64; N_KEYS as usize];
                while !done.load(Ordering::Acquire) {
                    let start = rng.gen_range(0..N_KEYS - 8);
                    let keys: Vec<u64> = (start..start + 8).collect();
                    for (key, got) in keys.iter().zip(server.pull_many(&keys)) {
                        assert_eq!(got.vector.len(), DIM);
                        assert!(got.vector.iter().all(|v| v.is_finite()));
                        let floor = &mut floors[*key as usize];
                        assert!(got.clock >= *floor, "pull_many clock regressed");
                        *floor = got.clock;
                    }
                    jitter(&mut rng);
                }
            });
        }
        // Snapshot reader: per-key snapshots must stay internally
        // consistent (right dim, finite values) mid-write-storm.
        {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xABC);
                while !done.load(Ordering::Acquire) {
                    for key in 0..N_KEYS {
                        if let Some(vector) = server.snapshot(key) {
                            assert_eq!(vector.len(), DIM);
                            assert!(vector.iter().all(|v| v.is_finite()));
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    jitter(&mut rng);
                }
            });
        }
    });

    let clock_sum: u64 = (0..N_KEYS).map(|k| server.clock_of(k)).sum();
    assert_eq!(clock_sum, (WRITERS as u64) * PUSHES_PER_WRITER);
}

#[test]
fn live_shard_split_preserves_every_update() {
    const WRITERS: usize = 3;
    const PUSHES_PER_WRITER: u64 = 1_500;

    // One spare shard; a splitter thread live-migrates shard 0 into it
    // while the writers keep pushing — the elasticity path the serve
    // control plane drives, here raced for real.
    let mut cfg = PsConfig::new(DIM);
    cfg.n_shards = 2;
    cfg.lr = 0.05;
    let server = Arc::new(PsServer::with_spare_shards(cfg, 1));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5117 + w as u64);
                let grad = vec![0.03f32; DIM];
                for _ in 0..PUSHES_PER_WRITER {
                    server.push_inc(rng.next_u64() % N_KEYS, &grad);
                    jitter(&mut rng);
                }
                done.store(true, Ordering::Release);
            });
        }
        {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x1CE);
                // Let some traffic land pre-split.
                std::thread::sleep(std::time::Duration::from_micros(200));
                server.begin_split(0, 2, 0x5A17);
                while server.remaining_to_migrate(0) > 0 && !done.load(Ordering::Acquire) {
                    server.migrate_batch(0, 4);
                    jitter(&mut rng);
                }
                // Writers may still push: the seal moves whatever
                // landed on the parent since the last batch.
                server.complete_split(0);
            });
        }
    });

    let clock_sum: u64 = (0..N_KEYS).map(|k| server.clock_of(k)).sum();
    assert_eq!(
        clock_sum,
        (WRITERS as u64) * PUSHES_PER_WRITER,
        "no update may be lost or double-applied across a live split"
    );
    for key in 0..N_KEYS {
        let got = server.pull(key);
        assert_eq!(got.vector.len(), DIM);
        assert!(got.vector.iter().all(|v| v.is_finite()));
    }
}
