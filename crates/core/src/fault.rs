//! Fault accounting for the trainer.
//!
//! The schedule itself lives in [`het_simnet::fault`]; this module owns
//! what the *training stack* does about it: the per-run [`FaultStats`]
//! and [`FaultRecord`] event log reported in `TrainReport`, and the
//! [`FaultContext`] the client protocol threads through each
//! communication leg to apply link degradation, deterministic message
//! drops with retry/backoff, and clock-bounded graceful degradation
//! during PS-shard outages.
//!
//! The contract that keeps replay exact: every fault effect is applied
//! *only* when its factor differs from the neutral value, so a run with
//! an empty [`FaultPlan`] takes byte-for-byte the same arithmetic path
//! as a run with injection disabled.

use crate::retry::PROTOCOL_RETRY;
use het_json::{Json, ToJson};
use het_simnet::{FaultPlan, SimDuration, SimTime};

/// Aggregate fault/recovery counters of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker crash events that fired.
    pub worker_crashes: u64,
    /// Dirty cache entries lost to worker crashes (their pending
    /// gradients never reached the server).
    pub dirty_entries_lost: u64,
    /// Accumulated local clock ticks those lost entries carried.
    pub pending_updates_lost: u64,
    /// PS-shard failovers performed.
    pub shard_failovers: u64,
    /// Rows reinstalled from checkpoints across all failovers.
    pub rows_restored: u64,
    /// Keys lost entirely (never checkpointed) across all failovers.
    pub keys_lost: u64,
    /// Server updates rolled back by failovers (clock regression).
    pub lost_updates: u64,
    /// Reads served stale from cache because the owning shard was down
    /// but the staleness bound still held (graceful degradation).
    pub degraded_reads: u64,
    /// Protocol steps that blocked waiting for a shard to fail over.
    pub blocked_ops: u64,
    /// Message retransmissions after deterministic drops.
    pub retries: u64,
    /// Iterations whose compute ran inside a straggler window.
    pub straggler_slow_iters: u64,
    /// Full PS checkpoints taken.
    pub checkpoints: u64,
}

het_json::impl_to_json!(FaultStats {
    worker_crashes,
    dirty_entries_lost,
    pending_updates_lost,
    shard_failovers,
    rows_restored,
    keys_lost,
    lost_updates,
    degraded_reads,
    blocked_ops,
    retries,
    straggler_slow_iters,
    checkpoints,
});

/// One fault or recovery event as it fired, for the report's event log.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRecord {
    /// Simulated instant the event took effect.
    pub at: SimTime,
    /// Human-readable description ("worker 3 crashed…", "shard 2 failed
    /// over…").
    pub description: String,
}

impl ToJson for FaultRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("at".to_string(), Json::Num(self.at.as_secs_f64())),
            ("description".to_string(), self.description.to_json()),
        ])
    }
}

/// Per-call fault state a client threads through its protocol legs.
///
/// Created by the trainer once per `read`/`write` with the worker's
/// current clock; holds the plan, the worker's monotone message counter
/// (drop decisions hash it, so the sequence is replay-stable), and the
/// run-wide stats to account into.
pub struct FaultContext<'a> {
    /// The materialised schedule.
    pub plan: &'a FaultPlan,
    /// The worker's simulated clock when the protocol step started.
    pub now: SimTime,
    /// The calling worker's index.
    pub worker: usize,
    /// The worker's monotone message counter.
    pub ops: &'a mut u64,
    /// Run-wide fault counters.
    pub stats: &'a mut FaultStats,
}

impl FaultContext<'_> {
    /// The next message number for this worker.
    fn next_op(&mut self) -> u64 {
        let op = *self.ops;
        *self.ops += 1;
        op
    }

    /// Applies link degradation and message drops to one communication
    /// leg of base duration `base`. Returns the charged duration; the
    /// caller has already recorded `bytes` once, and this method records
    /// it again per retransmission via `record`, each resend after a
    /// [`PROTOCOL_RETRY`] backoff.
    ///
    /// With an empty plan this returns `base` untouched — the
    /// bit-identity contract.
    pub fn charge_leg(
        &mut self,
        base: SimDuration,
        mut record: impl FnMut(u64),
        bytes: u64,
    ) -> SimDuration {
        if self.plan.is_empty() {
            return base;
        }
        let mut leg = base;
        let factors = self.plan.link_factors(self.now);
        if !factors.is_neutral() {
            // One multiplier approximates both terms of transfer time
            // (latency + bytes/bandwidth), each inflated by its factor.
            leg = leg * factors.latency.max(1.0 / factors.bandwidth);
        }
        let mut total = leg;
        let mut attempt = 0u32;
        while attempt < PROTOCOL_RETRY.max_attempts {
            let op = self.next_op();
            if !self.plan.should_drop(self.worker, op) {
                break;
            }
            self.stats.retries += 1;
            het_trace::count!("trainer", "msg_drops");
            record(bytes);
            total += PROTOCOL_RETRY.delay(attempt) + leg;
            attempt += 1;
        }
        total
    }

    /// If `shard` is down at this step's clock, the wait until its
    /// failover completes. The caller blocks (charges the wait) before
    /// touching the shard.
    pub fn blocked_wait(&mut self, shard: usize) -> Option<SimDuration> {
        if self.plan.is_empty() {
            return None;
        }
        let end = self.plan.shard_outage_end(shard, self.now)?;
        self.stats.blocked_ops += 1;
        let wait = end.since(self.now);
        // The ambient scope is already (self.now, worker) — the trainer
        // sets it at the top of each read/write phase.
        het_trace::event!("trainer", "blocked_wait",
            "shard" => shard, "wait_ns" => wait.as_nanos());
        Some(wait)
    }

    /// True when `shard` is down at this step's clock (without touching
    /// counters — the caller decides whether it degrades or blocks).
    pub fn shard_down(&self, shard: usize) -> bool {
        !self.plan.is_empty() && self.plan.shard_down(shard, self.now)
    }

    /// Counts one gracefully degraded read (stale cache serve during an
    /// outage).
    pub fn record_degraded_read(&mut self) {
        self.stats.degraded_reads += 1;
        het_trace::count!("trainer", "degraded_reads");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_simnet::{FaultEvent, FaultSpec};

    #[test]
    fn charge_leg_is_identity_on_empty_plan() {
        let plan = FaultPlan::none();
        let mut ops = 0;
        let mut stats = FaultStats::default();
        let mut ctx = FaultContext {
            plan: &plan,
            now: SimTime::ZERO,
            worker: 0,
            ops: &mut ops,
            stats: &mut stats,
        };
        let base = SimDuration::from_nanos(12_345);
        let mut recorded = 0u64;
        let t = ctx.charge_leg(base, |b| recorded += b, 100);
        assert_eq!(t, base, "empty plan must not touch the duration");
        assert_eq!(recorded, 0);
        assert_eq!(ops, 0, "empty plan must not consume message numbers");
    }

    #[test]
    fn degraded_link_inflates_legs() {
        let plan = FaultPlan::scripted(vec![FaultEvent::LinkDegradation {
            from: SimTime::ZERO,
            until: SimTime::from_nanos(1_000),
            latency_factor: 4.0,
            bandwidth_factor: 1.0,
        }]);
        let mut ops = 0;
        let mut stats = FaultStats::default();
        let mut ctx = FaultContext {
            plan: &plan,
            now: SimTime::from_nanos(10),
            worker: 0,
            ops: &mut ops,
            stats: &mut stats,
        };
        let t = ctx.charge_leg(SimDuration::from_nanos(1_000), |_| {}, 10);
        assert_eq!(t, SimDuration::from_nanos(4_000));
        // Outside the window the leg is untouched.
        ctx.now = SimTime::from_nanos(2_000);
        let t2 = ctx.charge_leg(SimDuration::from_nanos(1_000), |_| {}, 10);
        assert_eq!(t2, SimDuration::from_nanos(1_000));
    }

    #[test]
    fn drops_charge_retries_and_bytes() {
        // drop_prob = 1.0 forces every send to drop until the retry
        // budget runs out.
        let spec = FaultSpec {
            message_drop_prob: 1.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(9, &spec, 2, 1);
        let mut ops = 0;
        let mut stats = FaultStats::default();
        let mut ctx = FaultContext {
            plan: &plan,
            now: SimTime::ZERO,
            worker: 1,
            ops: &mut ops,
            stats: &mut stats,
        };
        let base = SimDuration::from_micros(1);
        let mut extra_bytes = 0u64;
        let t = ctx.charge_leg(base, |b| extra_bytes += b, 50);
        // 4 retries: backoffs 200 + 400 + 800 + 1600 µs, plus 4 resends.
        assert_eq!(
            t,
            SimDuration::from_micros(1 + 200 + 1 + 400 + 1 + 800 + 1 + 1_600 + 1)
        );
        assert_eq!(extra_bytes, 200);
        assert_eq!(stats.retries, 4);
        assert_eq!(ops, 4);
    }

    #[test]
    fn blocked_wait_measures_to_failover_end() {
        let plan = FaultPlan::scripted(vec![FaultEvent::PsShardOutage {
            shard: 1,
            at: SimTime::from_nanos(100),
            failover_delay: SimDuration::from_nanos(400),
        }]);
        let mut ops = 0;
        let mut stats = FaultStats::default();
        let mut ctx = FaultContext {
            plan: &plan,
            now: SimTime::from_nanos(200),
            worker: 0,
            ops: &mut ops,
            stats: &mut stats,
        };
        assert!(ctx.shard_down(1));
        assert!(!ctx.shard_down(0));
        assert_eq!(ctx.blocked_wait(1), Some(SimDuration::from_nanos(300)));
        assert_eq!(ctx.blocked_wait(0), None);
        assert_eq!(stats.blocked_ops, 1);
    }
}
