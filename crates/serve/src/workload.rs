//! The open-loop request generator and the pretraining stream.
//!
//! Serving *alongside live training* is not modelled here: co-schedule
//! a real [`het_core::Trainer`] with the fleet on one cluster runtime
//! (see [`crate::colocate`]). This module only fabricates the training
//! *history* that produced the served model ([`pretrain`]).

use crate::config::ServeConfig;
use het_data::{Key, ZipfSampler};
use het_ps::PsServer;
use het_rng::rngs::StdRng;
use het_rng::{Rng, SeedableRng};
use het_simnet::SimTime;

/// Seed salts: each random stream of a run derives from the master
/// seed xor a distinct salt, so streams never alias.
const REQUEST_SALT: u64 = 0x5e72_7665_7265_7131; // arrivals + keys
const TRAIN_SALT: u64 = 0x5e72_7665_7472_6e32; // pretraining stream
const WARMUP_SALT: u64 = 0x5e72_7665_7761_7233; // warmup sketch

/// One inference request: an arrival instant and the embedding keys of
/// its `n_fields` categorical features.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Sequence number in arrival order.
    pub id: u64,
    /// Open-loop arrival instant.
    pub at: SimTime,
    /// Embedding keys, one per field (duplicates possible).
    pub keys: Vec<Key>,
}

/// The popularity rank → key mapping at time `at`: ranks rotate through
/// the key space as the hot set drifts, so yesterday's head keys cool
/// off at a controlled rate.
pub fn key_of(rank: u64, at: SimTime, cfg: &ServeConfig) -> Key {
    let epoch = at
        .as_nanos()
        .checked_div(cfg.drift_period.as_nanos())
        .unwrap_or(0);
    (rank + epoch.wrapping_mul(cfg.drift_step)) % cfg.n_keys
}

fn in_flash(at: SimTime, cfg: &ServeConfig) -> bool {
    match cfg.flash_at {
        Some(start) => at >= start && at < start + cfg.flash_duration,
        None => false,
    }
}

/// Generates the full request schedule: Poisson-like arrivals (the rate
/// multiplied by `flash_factor` inside the flash window) with Zipf key
/// popularity, hot-set drift, and flash-crowd key concentration. Pure
/// function of the configuration.
pub fn generate_requests(cfg: &ServeConfig) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ REQUEST_SALT);
    let zipf = ZipfSampler::new(cfg.n_keys as usize, cfg.zipf_exponent);
    let mut out = Vec::with_capacity(cfg.n_requests);
    let mut t_ns = 0.0f64;
    for id in 0..cfg.n_requests as u64 {
        let now = SimTime::from_nanos(t_ns as u64);
        let rate = if in_flash(now, cfg) {
            cfg.arrival_rate * cfg.flash_factor
        } else {
            cfg.arrival_rate
        };
        let u: f64 = rng.gen();
        t_ns += -(1.0 - u).ln() / rate * 1e9;
        let at = SimTime::from_nanos(t_ns as u64);
        let flash = in_flash(at, cfg) && cfg.flash_hot_keys > 0;
        let keys = (0..cfg.n_fields)
            .map(|_| {
                let rank = if flash {
                    rng.gen_range(0..cfg.flash_hot_keys)
                } else {
                    zipf.sample(&mut rng) as u64
                };
                key_of(rank, at, cfg)
            })
            .collect();
        out.push(Request { id, at, keys });
    }
    out
}

/// Applies `n` Zipf-distributed gradient pushes to the PS before t = 0,
/// standing in for the training history that produced the served model.
/// Returns `n` for report accounting.
pub fn pretrain(cfg: &ServeConfig, server: &PsServer, n: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ TRAIN_SALT);
    let zipf = ZipfSampler::new(cfg.n_keys as usize, cfg.zipf_exponent);
    for _ in 0..n {
        let key = zipf.sample(&mut rng) as Key;
        let grad: Vec<f32> = (0..cfg.dim)
            .map(|_| (rng.gen::<f32>() - 0.5) * 0.2)
            .collect();
        server.push_inc(key, &grad);
    }
    // Pretraining happens before t = 0 — its disk time is history, not
    // serving latency.
    server.reclassify_pending_io();
    n
}

/// The warmup sketch's seed for a run configuration.
pub fn warmup_seed(cfg: &ServeConfig) -> u64 {
    cfg.seed ^ WARMUP_SALT
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_simnet::SimDuration;

    #[test]
    fn request_schedule_is_deterministic() {
        let cfg = ServeConfig::tiny(7);
        assert_eq!(generate_requests(&cfg), generate_requests(&cfg));
        let other = ServeConfig::tiny(8);
        assert_ne!(generate_requests(&cfg), generate_requests(&other));
    }

    #[test]
    fn arrivals_are_monotone_and_rate_scaled() {
        let cfg = ServeConfig::tiny(3);
        let reqs = generate_requests(&cfg);
        assert_eq!(reqs.len(), cfg.n_requests);
        for w in reqs.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let span = reqs.last().unwrap().at.as_secs_f64();
        let expected = cfg.n_requests as f64 / cfg.arrival_rate;
        assert!(
            span > expected * 0.5 && span < expected * 2.0,
            "span {span} far from expected {expected}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_keys_and_compresses_arrivals() {
        let mut cfg = ServeConfig::tiny(5);
        cfg.n_requests = 2_000;
        cfg.flash_at = Some(SimTime::from_nanos(10_000_000));
        cfg.flash_duration = SimDuration::from_millis(20);
        cfg.flash_factor = 8.0;
        cfg.flash_hot_keys = 10;
        let reqs = generate_requests(&cfg);
        let flash: Vec<&Request> = reqs.iter().filter(|r| in_flash(r.at, &cfg)).collect();
        assert!(!flash.is_empty(), "flash window saw no arrivals");
        assert!(
            flash.iter().all(|r| r.keys.iter().all(|&k| k < 10)),
            "flash requests must draw from the hot subset"
        );
        // The window's share of requests far exceeds its share of time.
        let horizon = reqs.last().unwrap().at.as_secs_f64();
        let time_share = cfg.flash_duration.as_secs_f64() / horizon;
        let req_share = flash.len() as f64 / reqs.len() as f64;
        assert!(
            req_share > time_share * 2.0,
            "flash did not compress arrivals (req {req_share:.3} vs time {time_share:.3})"
        );
    }

    #[test]
    fn drift_rotates_the_hot_ranks() {
        let mut cfg = ServeConfig::tiny(1);
        cfg.drift_period = SimDuration::from_millis(5);
        cfg.drift_step = 100;
        let early = key_of(0, SimTime::ZERO, &cfg);
        let late = key_of(0, SimTime::from_nanos(5_000_001), &cfg);
        assert_eq!(early, 0);
        assert_eq!(late, 100);
        assert_eq!(
            key_of(cfg.n_keys - 1, SimTime::ZERO, &cfg),
            cfg.n_keys - 1,
            "ranks wrap modulo the key space"
        );
    }

    #[test]
    fn pretrain_is_deterministic_and_advances_clocks() {
        let cfg = ServeConfig::tiny(9);
        let make_server = || {
            PsServer::new(het_ps::PsConfig {
                dim: cfg.dim,
                n_shards: cfg.n_shards,
                lr: cfg.lr,
                seed: cfg.seed,
                optimizer: het_ps::ServerOptimizer::Sgd,
                grad_clip: None,
            })
        };
        let (a, b) = (make_server(), make_server());
        assert_eq!(pretrain(&cfg, &a, 100), 100);
        assert_eq!(pretrain(&cfg, &b, 100), 100);
        let keys: Vec<Key> = (0..cfg.n_keys).collect();
        let ticks_of = |server: &PsServer| {
            let mut clocks = Vec::new();
            server.clocks_of(&keys, &mut clocks);
            clocks.iter().sum::<u64>()
        };
        let (ticks, ticks_b) = (ticks_of(&a), ticks_of(&b));
        assert_eq!(ticks, 100, "every push advances exactly one key clock");
        assert_eq!(ticks_b, ticks, "same seed, same stream");
    }
}
