//! One retry/backoff schedule shared by every recovery path.
//!
//! The client's message-drop resends ([`PROTOCOL_RETRY`], charged by
//! [`crate::fault::FaultContext::charge_leg`]) and the serving
//! supervisor's respawn and outage waits back off the same way: the
//! delay before retry `a` (0-based) is `base · 2^a` in integer
//! nanoseconds, with the exponent clamped at 16 and the product
//! saturating, so a schedule is a pure function of `(policy, attempt)`.

use het_simnet::SimDuration;

/// Exponent clamp: beyond this the shift would overflow any practical
/// base.
const MAX_EXPONENT: u32 = 16;

/// The backoff every client protocol leg charges per dropped message:
/// 200 µs doubling per resend, at most 4 resends before the message is
/// treated as delivered (training must make progress; each resend is
/// charged time and bytes).
pub const PROTOCOL_RETRY: RetryPolicy = RetryPolicy {
    base: SimDuration::from_micros(200),
    max_attempts: 4,
};

/// A deterministic doubling backoff schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Attempts before the caller gives up.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The delay to charge before retry number `attempt` (0-based).
    /// Monotone non-decreasing in `attempt`.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let exp = attempt.min(MAX_EXPONENT);
        SimDuration::from_nanos(self.base.as_nanos().saturating_mul(1u64 << exp))
    }

    /// Total time a caller polling with this schedule spends before the
    /// cumulative backoff first reaches `target` — or `None` when the
    /// whole budget runs out short of it. Recovery paths use this to
    /// wait out a known outage window with retry semantics instead of
    /// an oracle-style exact sleep.
    pub fn time_to_reach(&self, target: SimDuration) -> Option<SimDuration> {
        let mut total = SimDuration::ZERO;
        for a in 0..self.max_attempts {
            total += self.delay(a);
            if total >= target {
                return Some(total);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_matches_the_historical_doubling() {
        let p = RetryPolicy {
            base: SimDuration::from_nanos(100),
            max_attempts: 5,
        };
        let ns: Vec<u64> = (0..5).map(|a| p.delay(a).as_nanos()).collect();
        assert_eq!(ns, vec![100, 200, 400, 800, 1_600]);
        for a in 0..20u32 {
            assert_eq!(
                p.delay(a).as_nanos(),
                100u64 * (1u64 << a.min(16)),
                "attempt {a}"
            );
        }
        let huge = RetryPolicy {
            base: SimDuration::from_nanos(u64::MAX / 2),
            max_attempts: 3,
        };
        assert_eq!(huge.delay(2).as_nanos(), u64::MAX, "saturates");
    }

    #[test]
    fn time_to_reach_covers_or_exhausts() {
        let p = RetryPolicy {
            base: SimDuration::from_nanos(100),
            max_attempts: 4,
        };
        // 100+200 = 300 ≥ 250 after two attempts.
        assert_eq!(
            p.time_to_reach(SimDuration::from_nanos(250)),
            Some(SimDuration::from_nanos(300))
        );
        // 100+200+400+800 = 1500 < 10_000: budget exhausted.
        assert_eq!(p.time_to_reach(SimDuration::from_micros(10)), None);
        assert_eq!(
            p.time_to_reach(SimDuration::ZERO),
            Some(SimDuration::from_nanos(100)),
            "zero target still charges the first probe"
        );
    }
}
