//! Layer probes: the key stream the step driver recorded, replayed
//! against each bare layer (`CacheTable`, `PsServer`, `MemStore`,
//! `TieredStore`, `Matrix`, the thread primitives).
//!
//! Every probe value is the median of [`SAMPLES`] samples of at least
//! [`WINDOW`] each, in nanoseconds per operation.

use crate::spec::{policy_suffix, CACHE_PROBES, PS_PROBES};
use crate::stats::median;
use het::cache::CacheTable;
use het::data::Key;
use het::prelude::*;
use het::runtime::{Barrier, Turnstile, WallClock};
use het::tensor::Matrix;
use het_store::{MemStore, RowStore, StoredRow, TieredConfig, TieredStore};
use std::hint::black_box;
use std::time::{Duration, Instant};

const WINDOW: Duration = Duration::from_millis(25);
const SAMPLES: usize = 5;
/// Longest flattened key list a probe loops over.
const MAX_KEYS: usize = 1 << 16;
/// Most keys, summed over per-step lists, a probe replays per round.
const MAX_LIST_KEYS: usize = 1 << 17;

/// Times `pass`, which runs its fixed work list `rounds` times and
/// returns how many operations that was. Rounds double until one sample
/// lasts [`WINDOW`]; the result is the median ns/op of [`SAMPLES`] such
/// samples.
fn measure(mut pass: impl FnMut(u64) -> u64) -> Result<f64, String> {
    let mut rounds = 1u64;
    loop {
        let t = Instant::now();
        let ops = pass(rounds);
        if ops == 0 {
            return Err("a probe pass did no operations".to_string());
        }
        if t.elapsed() >= WINDOW || rounds >= 1 << 24 {
            break;
        }
        rounds *= 2;
    }
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let ops = pass(rounds);
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    Ok(median(&samples))
}

/// What the probes need to know about the workload.
pub struct ProbeInput<'a> {
    /// Unique keys of each recorded step, in order.
    pub stream: &'a [Vec<Key>],
    pub dim: usize,
    /// Cache entries per worker (10 % of the key space where the
    /// workload itself runs without a cache).
    pub cache_capacity: usize,
    pub ps: PsConfig,
    /// `(m, k, n)` of the model's first dense layer.
    pub first_layer: (usize, usize, usize),
}

impl ProbeInput<'_> {
    /// The last steps' lists (past the cold start), as many as hold
    /// [`MAX_LIST_KEYS`] keys between them.
    fn lists(&self) -> &[Vec<Key>] {
        let mut keys = 0;
        let tail = self
            .stream
            .iter()
            .rev()
            .take_while(|list| {
                keys += list.len();
                keys <= MAX_LIST_KEYS
            })
            .count();
        &self.stream[self.stream.len() - tail.max(1)..]
    }

    fn flat_keys(&self) -> Vec<Key> {
        self.stream
            .iter()
            .flatten()
            .copied()
            .take(MAX_KEYS)
            .collect()
    }

    fn distinct_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.stream.iter().flatten().copied().collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// `het_cache.{hit_get,update,install_evict}_ns.<policy>` for all eight
/// policies.
pub fn cache_probes(input: &ProbeInput<'_>, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let grad = vec![0.01f32; input.dim];
    for kind in PolicyKind::ALL {
        // Warm the table the way a client does: misses install, hits
        // touch, the overflow is trimmed once per step.
        let mut table = CacheTable::new(input.cache_capacity, kind, 0.05);
        let replay = |table: &mut CacheTable, list: &[Key]| -> u64 {
            let mut installs = 0;
            for &k in list {
                if table.find(k) {
                    black_box(table.get(k).map(|v| v[0]));
                } else {
                    let _ = table.install(k, vec![0.5; input.dim], 0);
                    installs += 1;
                }
            }
            black_box(table.evict_overflow().len());
            installs
        };
        for list in input.stream {
            replay(&mut table, list);
        }
        // Churn first, while every entry is still clean: the probe prices
        // install + evict, not write-back payloads.
        let lists = input.lists();
        let install_evict = measure(|rounds| {
            let mut installs = 0;
            for _ in 0..rounds {
                for list in lists {
                    installs += replay(&mut table, list);
                }
            }
            installs
        })?;
        let hits: Vec<Key> = input
            .flat_keys()
            .into_iter()
            .filter(|&k| table.find(k))
            .collect();
        if hits.is_empty() {
            return Err(format!("{kind}: no recorded key is resident after warm-up"));
        }
        let hit_get = measure(|rounds| {
            for _ in 0..rounds {
                for &k in &hits {
                    black_box(table.get(black_box(k)).map(|v| v[0]));
                }
            }
            rounds * hits.len() as u64
        })?;
        let update = measure(|rounds| {
            for _ in 0..rounds {
                for &k in &hits {
                    table.update(black_box(k), black_box(&grad));
                    table.bump_clock(k);
                }
            }
            rounds * hits.len() as u64
        })?;
        let suffix = policy_suffix(kind);
        for (probe, value) in CACHE_PROBES.iter().zip([hit_get, update, install_evict]) {
            out.push((format!("{probe}.{suffix}"), value));
        }
    }
    Ok(())
}

/// One PS operation over the probe's work list; returns operations done.
fn ps_pass(op: usize, server: &PsServer, keys: &[Key], lists: &[Vec<Key>], grad: &[f32]) -> u64 {
    match op {
        0 => {
            for &k in keys {
                black_box(server.pull(black_box(k)));
            }
            keys.len() as u64
        }
        1 => {
            let mut n = 0;
            for list in lists {
                n += black_box(server.pull_many(black_box(list))).len() as u64;
            }
            n
        }
        2 => {
            for &k in keys {
                server.push_inc(black_box(k), black_box(grad));
            }
            keys.len() as u64
        }
        _ => {
            for &k in keys {
                black_box(server.clock_of(black_box(k)));
            }
            keys.len() as u64
        }
    }
}

/// `het_ps.*`: the four operations on one thread, then on two threads
/// sharing one server, and the contention factor between the two.
pub fn ps_probes(input: &ProbeInput<'_>, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let server = PsServer::new(input.ps);
    let keys = input.flat_keys();
    let lists = input.lists();
    let grad = vec![0.001f32; input.dim];
    for &k in &keys {
        black_box(server.pull(k));
    }
    let mut single = [0.0; 4];
    for (op, probe) in PS_PROBES.iter().enumerate() {
        single[op] = measure(|rounds| {
            (0..rounds)
                .map(|_| ps_pass(op, &server, &keys, lists, &grad))
                .sum()
        })?;
        out.push((probe.to_string(), single[op]));
    }
    let mut double = [0.0; 4];
    for (op, probe) in PS_PROBES.iter().enumerate() {
        // Per-thread ns/op with a second thread doing the same on the
        // same shards: the thread-time one operation costs under
        // contention.
        double[op] = measure_two_threads(|_thread, rounds| {
            (0..rounds)
                .map(|_| ps_pass(op, &server, &keys, lists, &grad))
                .sum()
        })?;
        out.push((format!("{probe}_2t"), double[op]));
    }
    // Pull and push are the two that take shard locks for long.
    let contention = (double[0] + double[2]) / (single[0] + single[2]);
    out.push(("het_ps.contention_x".to_string(), contention));
    Ok(())
}

/// [`measure`] for a body two threads run at once: each thread times its
/// own `rounds` passes between two barriers; a sample is the mean of the
/// two threads' ns/op.
fn measure_two_threads(pass: impl Fn(usize, u64) -> u64 + Sync) -> Result<f64, String> {
    let sample = |rounds: u64| -> (Duration, f64) {
        let gate = std::sync::Barrier::new(2);
        let t = Instant::now();
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let (gate, pass) = (&gate, &pass);
                    s.spawn(move || {
                        gate.wait();
                        let t = Instant::now();
                        let ops = pass(i, rounds);
                        t.elapsed().as_nanos() as f64 / ops.max(1) as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        (t.elapsed(), (per_thread[0] + per_thread[1]) / 2.0)
    };
    let mut rounds = 1u64;
    while sample(rounds).0 < WINDOW && rounds < 1 << 24 {
        rounds *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES).map(|_| sample(rounds).1).collect();
    Ok(median(&samples))
}

/// `het_store.*`: the flat store's apply, and the tiered store's hot
/// apply, cold fetch and compaction with a hot budget of 10 % of the
/// stream's distinct keys.
pub fn store_probes(input: &ProbeInput<'_>, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let dim = input.dim;
    let keys = input.flat_keys();
    let distinct = input.distinct_keys();
    let fresh = || StoredRow {
        vector: vec![0.5; dim],
        clock: 0,
        opt_state: Vec::new(),
    };
    let bump = |row: &mut StoredRow| {
        row.vector[0] += 0.001;
        row.clock += 1;
    };

    let mut mem = MemStore::new();
    let mem_apply = measure(|rounds| {
        for _ in 0..rounds {
            for &k in &keys {
                mem.apply(black_box(k), &mut { fresh }, &mut { bump });
            }
        }
        rounds * keys.len() as u64
    })?;
    out.push(("het_store.mem_apply_ns".to_string(), mem_apply));

    let hot_rows = (distinct.len() / 10).max(16);
    let mut tiered = TieredStore::open(&TieredConfig::new(hot_rows), dim, 0, hot_rows)
        .map_err(|e| format!("tiered store: {e}"))?;
    for &k in &distinct {
        tiered.apply(k, &mut { fresh }, &mut { bump });
    }
    // The last rows applied are the hot ones (LRU demotion).
    let hot: Vec<Key> = distinct[distinct.len() - hot_rows / 2..].to_vec();
    let hot_apply = measure(|rounds| {
        for _ in 0..rounds {
            for &k in &hot {
                tiered.apply(black_box(k), &mut { fresh }, &mut { bump });
            }
        }
        rounds * hot.len() as u64
    })?;
    out.push(("het_store.tiered_hot_apply_ns".to_string(), hot_apply));

    // A cyclic scan over more keys than the hot tier holds misses every
    // time under LRU: each `get` promotes a cold row and demotes one.
    let scan: Vec<Key> = distinct.iter().copied().take(MAX_KEYS).collect();
    if scan.len() <= hot_rows {
        return Err("too few distinct keys to overflow the hot tier".to_string());
    }
    let before = tiered.stats().promotions;
    let cold_fetch = measure(|rounds| {
        for _ in 0..rounds {
            for &k in &scan {
                black_box(tiered.get(black_box(k)).map(|r| r.clock));
            }
        }
        rounds * scan.len() as u64
    })?;
    if tiered.stats().promotions == before {
        return Err("the cold-fetch probe never left the hot tier".to_string());
    }
    out.push(("het_store.tiered_cold_fetch_ns".to_string(), cold_fetch));

    // Compaction reads every live row and rewrites it; the rate is cold
    // bytes moved per host second.
    let mut rates = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let s0 = tiered.stats();
        let t = Instant::now();
        tiered.force_compact();
        let secs = t.elapsed().as_secs_f64();
        let s1 = tiered.stats();
        let moved =
            (s1.cold_read_bytes - s0.cold_read_bytes) + (s1.cold_write_bytes - s0.cold_write_bytes);
        rates.push(moved as f64 / 1e6 / secs);
    }
    out.push(("het_store.compact_mb_per_s".to_string(), median(&rates)));
    Ok(())
}

/// `het_runtime.*`: the thread primitives with empty bodies, two
/// threads.
pub fn runtime_probes(out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let barrier = Barrier::new(2);
    let round = measure_two_threads(|i, rounds| {
        for _ in 0..rounds {
            black_box(barrier.wait(i));
        }
        rounds
    })?;
    out.push(("het_runtime.barrier_round_ns".to_string(), round));

    let turnstile = Turnstile::new(2);
    let pass = measure_two_threads(|i, rounds| {
        for _ in 0..rounds {
            turnstile.pass(i, || black_box(()));
        }
        // One cycle is two passes; a thread waits out the other's.
        rounds * 2
    })?;
    out.push(("het_runtime.turnstile_pass_ns".to_string(), pass));

    let clock = WallClock::new();
    let stamp = measure_two_threads(|_, rounds| {
        for _ in 0..rounds * 1024 {
            black_box(clock.stamp());
        }
        rounds * 1024
    })?;
    out.push(("het_runtime.wallclock_stamp_ns".to_string(), stamp));
    Ok(())
}

/// `het_tensor.matmul*_gflops` at the workload's first-layer shape: the
/// forward product, the weight gradient (`xᵀ·dy`) and the input
/// gradient (`dy·Wᵀ`).
pub fn tensor_probes(input: &ProbeInput<'_>, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let (m, k, n) = input.first_layer;
    let x = Matrix::from_fn(m, k, |r, c| ((r * 7 + c) % 13 + 1) as f32 * 0.1);
    let w = Matrix::from_fn(k, n, |r, c| ((r + c * 3) % 17 + 1) as f32 * 0.05);
    let dy = Matrix::from_fn(m, n, |r, c| ((r * 3 + c) % 11 + 1) as f32 * 0.02);
    let flops = Matrix::matmul_flops(m, k, n);
    let gflops = |ns_per_call: f64| flops / ns_per_call;
    let nn = measure(|rounds| {
        for _ in 0..rounds {
            black_box(black_box(&x).matmul(black_box(&w)));
        }
        rounds
    })?;
    out.push(("het_tensor.matmul_gflops".to_string(), gflops(nn)));
    let tn = measure(|rounds| {
        for _ in 0..rounds {
            black_box(black_box(&x).matmul_tn(black_box(&dy)));
        }
        rounds
    })?;
    out.push(("het_tensor.matmul_tn_gflops".to_string(), gflops(tn)));
    let nt = measure(|rounds| {
        for _ in 0..rounds {
            black_box(black_box(&dy).matmul_nt(black_box(&w)));
        }
        rounds
    })?;
    out.push(("het_tensor.matmul_nt_gflops".to_string(), gflops(nt)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ns_per_operation() {
        // 1000 ops per pass; whatever the host speed, the result must
        // be a positive per-op time far below the window.
        let ns = measure(|rounds| {
            let mut acc = 0u64;
            for i in 0..rounds * 1000 {
                acc = black_box(acc.wrapping_add(i));
            }
            black_box(acc);
            rounds * 1000
        })
        .unwrap();
        assert!(ns > 0.0 && ns < 1e6);
        assert!(measure(|_| 0).is_err());
    }
}
