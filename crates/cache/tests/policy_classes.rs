//! Policy equivalence classes under HET's read pattern.
//!
//! `HetClient` drives its cache in one fixed shape per step: install
//! every miss of a batch of distinct keys, `get` every key of the
//! batch, `update` (and clock-bump) every key in sorted order, then one
//! `evict_overflow`. Under that shape some policies of the zoo cannot
//! be told apart by their victims, and the tests below pin which:
//!
//! * **SLRU ≡ LRU.** Every install is read before the next eviction, so
//!   every key is promoted to the protected segment before any victim
//!   is chosen. The probationary segment then holds only protected's
//!   demotions, and each demotion is protected's least-recent key, so
//!   it was touched before every key left in protected and after every
//!   key demoted before it. Probation followed by protected is thus
//!   the resident set in last-touch order — LRU's order — and SLRU pops
//!   probation first.
//! * **GDSF ≡ LFUDA at dimension 16.** GDSF's priority is
//!   `age + freq · cost · SCALE / size`; at dimension 16 the ratio
//!   `cost · SCALE / size` is the integer 2304, so every priority (and
//!   every age, which is a victim's priority) is 2304 times LFUDA's
//!   `age + freq`. The order is the same, tick for tick.
//! * **Control:** at dimension 3 the ratio is fractional, the floor
//!   division stops scaling exactly, and on a skewed stream the two
//!   victim streams part.

use het_cache::{fetch_cost_bytes, row_size_bytes, CacheTable, PolicyKind, GDSF_SCALE};
use het_data::ZipfSampler;
use het_rng::rngs::StdRng;
use het_rng::SeedableRng;

type Key = u64;

const KEYS: usize = 512;
const CAPACITY: usize = 48;
const BATCH: usize = 32;
const STEPS: usize = 300;
const SEEDS: std::ops::Range<u64> = 0..6;
const SKEWS: [f64; 3] = [0.6, 0.9, 1.2];

/// The victim stream of `kind` on a cache of rows of dimension `dim`,
/// driven step by step the way `HetClient` reads and writes.
fn victims(kind: PolicyKind, dim: usize, seed: u64, skew: f64) -> Vec<Key> {
    let zipf = ZipfSampler::new(KEYS, skew);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = CacheTable::new(CAPACITY, kind, 0.1);
    let grad = vec![1.0f32; dim];
    let mut out = Vec::new();
    for _ in 0..STEPS {
        let mut batch: Vec<Key> = Vec::with_capacity(BATCH);
        while batch.len() < BATCH {
            let k = zipf.sample(&mut rng) as Key;
            if !batch.contains(&k) {
                batch.push(k);
            }
        }
        for &k in &batch {
            if !table.find(k) {
                let displaced = table.install(k, vec![0.0; dim], 0);
                assert!(displaced.is_none());
            }
        }
        for &k in &batch {
            assert!(table.get(k).is_some());
        }
        batch.sort_unstable();
        for &k in &batch {
            table.update(k, &grad);
            table.bump_clock(k);
        }
        out.extend(table.evict_overflow().into_iter().map(|(k, _)| k));
    }
    out
}

#[test]
fn slru_evicts_exactly_like_lru() {
    for seed in SEEDS {
        for skew in SKEWS {
            let lru = victims(PolicyKind::Lru, 8, seed, skew);
            assert!(!lru.is_empty(), "seed {seed} skew {skew}: nothing evicted");
            assert_eq!(
                victims(PolicyKind::Slru, 8, seed, skew),
                lru,
                "seed {seed} skew {skew}"
            );
        }
    }
}

#[test]
fn gdsf_evicts_exactly_like_lfuda_at_dim_16() {
    let ratio = fetch_cost_bytes(16) * GDSF_SCALE;
    assert_eq!(ratio % row_size_bytes(16), 0, "cost·SCALE/size is integral");
    for seed in SEEDS {
        for skew in SKEWS {
            assert_eq!(
                victims(PolicyKind::Gdsf, 16, seed, skew),
                victims(PolicyKind::Lfuda, 16, seed, skew),
                "seed {seed} skew {skew}"
            );
        }
    }
}

#[test]
fn gdsf_and_lfuda_part_at_dim_3() {
    assert_ne!(
        (fetch_cost_bytes(3) * GDSF_SCALE) % row_size_bytes(3),
        0,
        "cost·SCALE/size is fractional"
    );
    for seed in SEEDS {
        assert_ne!(
            victims(PolicyKind::Gdsf, 3, seed, 1.2),
            victims(PolicyKind::Lfuda, 3, seed, 1.2),
            "seed {seed}"
        );
    }
}
