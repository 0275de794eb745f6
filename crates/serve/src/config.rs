//! Configuration of a serving run.

use crate::supervise::{AutoscaleConfig, SupervisionConfig};
use het_cache::PolicyKind;
use het_ps::StoreSpec;
use het_simnet::{ClusterSpec, FaultPlan, FaultSpec, SimDuration, SimTime};

/// Configuration of a [`ServeSim`](crate::ServeSim) run: the request
/// workload, the replica fleet, cache/staleness settings, and fault
/// injection. (Serving alongside *live* training is configured by
/// co-scheduling a trainer — see [`crate::colocate`] — not here.)
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Master seed. Every random stream (arrivals, key popularity, the
    /// pretraining stream, fault schedules) derives from it, so equal
    /// seeds give byte-identical [`ServeReport`](crate::ServeReport)s.
    pub seed: u64,
    /// Number of inference replicas requests are load-balanced over.
    pub n_replicas: usize,
    /// Embedding dimension (must match the model's).
    pub dim: usize,
    /// Categorical fields per request — each contributes one embedding
    /// key, so a request touches `n_fields` keys.
    pub n_fields: usize,
    /// Size of the embedding key space.
    pub n_keys: u64,
    /// Per-replica embedding-cache capacity (entries).
    pub cache_capacity: usize,
    /// Admitted staleness window `s` of `CheckValid` (clock ticks).
    pub staleness: u64,
    /// Cache eviction policy.
    pub policy: PolicyKind,
    /// Learning rate of the live parameter server (the serving path
    /// itself never writes; this only parameterises the PS).
    pub lr: f32,
    /// Open-loop arrival rate in requests per second (Poisson-like:
    /// exponential inter-arrival gaps).
    pub arrival_rate: f64,
    /// Total number of requests to generate.
    pub n_requests: usize,
    /// Zipf exponent of key popularity (paper Fig. 3 skew).
    pub zipf_exponent: f64,
    /// Hot-set drift: every `drift_period` of simulated time the
    /// rank→key mapping rotates by [`ServeConfig::drift_step`] keys.
    /// `ZERO` disables drift.
    pub drift_period: SimDuration,
    /// Keys the hot set rotates by per drift period.
    pub drift_step: u64,
    /// Flash crowd: start instant, or `None` for no flash.
    pub flash_at: Option<SimTime>,
    /// Flash crowd duration.
    pub flash_duration: SimDuration,
    /// Arrival-rate multiplier inside the flash window.
    pub flash_factor: f64,
    /// Size of the uniform hot subset flash-crowd requests draw from.
    pub flash_hot_keys: u64,
    /// Micro-batching: maximum requests per batch.
    pub max_batch: usize,
    /// Micro-batching: maximum time the oldest queued request may wait
    /// before a partial batch is forced out.
    pub max_queue_delay: SimDuration,
    /// PS updates applied before serving starts, standing in for the
    /// training history that produced the model being served.
    pub pretrain_updates: u64,
    /// SpaceSaving warmup: requests' worth of keys observed by the
    /// sketch to pre-populate every replica cache (0 = cold start).
    pub warmup_requests: usize,
    /// Fault injection (replica crashes, PS-shard outages, …); the
    /// zero spec (the default) is injection off.
    pub faults: FaultSpec,
    /// Number of PS shards.
    pub n_shards: usize,
    /// The simulated cluster (compute speed, link costs).
    pub cluster: ClusterSpec,
    /// Heartbeat supervision: failure detection + driven recovery
    /// (disabled by default — the legacy scripted-fault path).
    pub supervision: SupervisionConfig,
    /// Queue-depth autoscaling of the replica pool (disabled by
    /// default).
    pub autoscale: AutoscaleConfig,
    /// Row-store backend of the PS shards behind the fleet.
    /// [`StoreSpec::Mem`] (the default) keeps every row resident;
    /// [`StoreSpec::Tiered`] bounds resident rows and charges modelled
    /// disk time on cold fetches, which flows into miss latency.
    pub store: StoreSpec,
}

impl ServeConfig {
    /// A production-shaped default: 2 replicas at 10 k req/s against a
    /// 100 k-key table on the paper's cluster A.
    pub fn new(seed: u64) -> Self {
        let n_replicas = 2;
        let n_shards = 4;
        ServeConfig {
            seed,
            n_replicas,
            dim: 16,
            n_fields: 8,
            n_keys: 100_000,
            cache_capacity: 10_000,
            staleness: 10,
            policy: PolicyKind::light_lfu(),
            lr: 0.05,
            arrival_rate: 10_000.0,
            n_requests: 20_000,
            zipf_exponent: 1.1,
            drift_period: SimDuration::ZERO,
            drift_step: 0,
            flash_at: None,
            flash_duration: SimDuration::ZERO,
            flash_factor: 1.0,
            flash_hot_keys: 0,
            max_batch: 8,
            max_queue_delay: SimDuration::from_micros(200),
            pretrain_updates: 0,
            warmup_requests: 0,
            faults: FaultSpec::default(),
            n_shards,
            cluster: ClusterSpec::cluster_a(n_replicas, n_shards),
            supervision: SupervisionConfig::disabled(),
            autoscale: AutoscaleConfig::disabled(),
            store: StoreSpec::Mem,
        }
    }

    /// A small configuration for tests: hundreds of requests over a
    /// few hundred keys, finishing in milliseconds of simulated time.
    pub fn tiny(seed: u64) -> Self {
        let n_replicas = 2;
        let n_shards = 2;
        ServeConfig {
            seed,
            n_replicas,
            dim: 8,
            n_fields: 4,
            n_keys: 600,
            cache_capacity: 120,
            staleness: 10,
            policy: PolicyKind::Lru,
            lr: 0.05,
            arrival_rate: 8_000.0,
            n_requests: 400,
            zipf_exponent: 1.1,
            drift_period: SimDuration::ZERO,
            drift_step: 0,
            flash_at: None,
            flash_duration: SimDuration::ZERO,
            flash_factor: 1.0,
            flash_hot_keys: 0,
            max_batch: 4,
            max_queue_delay: SimDuration::from_micros(300),
            pretrain_updates: 200,
            warmup_requests: 0,
            faults: FaultSpec::default(),
            n_shards,
            cluster: ClusterSpec::cluster_a(n_replicas, n_shards),
            supervision: SupervisionConfig::disabled(),
            autoscale: AutoscaleConfig::disabled(),
            store: StoreSpec::Mem,
        }
    }

    /// Replicas the fleet is built with: the autoscaler's ceiling when
    /// autoscaling (only the admitted prefix takes traffic), else
    /// `n_replicas`. A fleet co-scheduled after a trainer owns this many
    /// cluster members.
    pub fn fleet_size(&self) -> usize {
        if self.autoscale.enabled {
            self.autoscale.max_replicas
        } else {
            self.n_replicas
        }
    }

    /// The fault plan `faults` derives for a standalone run: replica `r`
    /// is member `r` of a [`ServeConfig::fleet_size`] fleet.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::generate(self.seed, &self.faults, self.fleet_size(), self.n_shards)
    }

    /// How long the request schedule takes at the base arrival rate:
    /// the span a run's faults are placed in when nothing else sizes it.
    pub fn nominal_span(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.n_requests as f64 / self.arrival_rate)
    }

    /// Checks internal consistency (positive sizes, sane rates); the
    /// error names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(msg.to_string()) };
        check(self.n_replicas > 0, "n_replicas must be positive")?;
        check(self.dim > 0, "dim must be positive")?;
        check(self.n_fields > 0, "n_fields must be positive")?;
        check(self.n_keys > 0, "n_keys must be positive")?;
        check(self.cache_capacity > 0, "cache_capacity must be positive")?;
        check(
            self.arrival_rate > 0.0 && self.arrival_rate.is_finite(),
            "arrival_rate must be positive and finite",
        )?;
        check(self.max_batch > 0, "max_batch must be positive")?;
        check(self.n_shards > 0, "n_shards must be positive")?;
        check(
            self.flash_at.is_none() || self.flash_factor >= 1.0,
            "flash_factor must be >= 1 when a flash crowd is scheduled",
        )?;
        if self.supervision.enabled {
            check(
                self.supervision.heartbeat_every > SimDuration::ZERO,
                "heartbeat_every must be positive",
            )?;
        }
        if self.autoscale.enabled {
            check(
                self.autoscale.min_replicas > 0,
                "min_replicas must be positive",
            )?;
            check(
                self.autoscale.min_replicas <= self.n_replicas
                    && self.n_replicas <= self.autoscale.max_replicas,
                "initial n_replicas must lie within [min_replicas, max_replicas]",
            )?;
            check(
                self.autoscale.queue_low < self.autoscale.queue_high,
                "hysteresis band requires queue_low < queue_high",
            )?;
            check(
                self.autoscale.evaluate_every > SimDuration::ZERO,
                "evaluate_every must be positive",
            )?;
        }
        Ok(())
    }
}
