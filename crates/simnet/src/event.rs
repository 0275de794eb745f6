//! Deterministic discrete-event queue.
//!
//! The asynchronous trainers (ASP-style presets) interleave workers by
//! simulated time. Ties are broken by a pluggable [`TieBreak`] rule so
//! the schedule-exploration harness can permute same-time orderings
//! while every individual rule stays fully deterministic regardless of
//! payload type. The default is FIFO (insertion order), which preserves
//! the historical behaviour byte-for-byte.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How same-time events are ordered when popped.
///
/// All three rules are pure functions of the insertion sequence number,
/// so any fixed choice yields a deterministic simulation; only the
/// *relative order of ties* changes between rules. The oracle fuzzer
/// sweeps this to explore adversarial interleavings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Earliest-pushed event wins ties (insertion order).
    #[default]
    Fifo,
    /// Latest-pushed event wins ties (reverse insertion order).
    Lifo,
    /// Ties permuted by a deterministic hash of the sequence number
    /// keyed with `salt` — a different salt gives a different (but
    /// still reproducible) interleaving.
    Salted(u64),
}

impl std::fmt::Display for TieBreak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieBreak::Fifo => f.write_str("fifo"),
            TieBreak::Lifo => f.write_str("lifo"),
            TieBreak::Salted(salt) => write!(f, "salted:{salt}"),
        }
    }
}

impl std::str::FromStr for TieBreak {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fifo" => Ok(TieBreak::Fifo),
            "lifo" => Ok(TieBreak::Lifo),
            _ => s
                .strip_prefix("salted:")
                .and_then(|salt| salt.parse().ok())
                .map(TieBreak::Salted)
                .ok_or_else(|| format!("unknown tie-break '{s}' (try: fifo lifo salted:<u64>)")),
        }
    }
}

/// SplitMix64 finalizer: a cheap bijective mix for [`TieBreak::Salted`].
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TieBreak {
    /// The sort rank of the `seq`-th pushed event among same-time peers
    /// (lower rank pops first).
    fn rank(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => !seq,
            TieBreak::Salted(salt) => mix64(seq ^ salt),
        }
    }
}

struct Entry<T> {
    time: SimTime,
    rank: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first, with the lowest tie-break rank winning ties (seq is a
        // final tiebreaker in case a salted rank ever collides).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of `(SimTime, payload)` events with deterministic,
/// pluggable tie breaking (FIFO by default).
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    tie_break: TieBreak,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with FIFO tie breaking.
    pub fn new() -> Self {
        EventQueue::with_tie_break(TieBreak::Fifo)
    }

    /// Creates an empty queue with the given tie-break rule.
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            tie_break,
        }
    }

    /// The tie-break rule this queue was built with.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            rank: self.tie_break.rank(seq),
            seq,
            payload,
        });
        het_trace::counter_add_at("simnet", "evq_push", None, 1);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let popped = self.heap.pop().map(|e| (e.time, e.payload));
        if popped.is_some() {
            het_trace::counter_add_at("simnet", "evq_pop", None, 1);
        }
        popped
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn tie_breaks_read_their_spelling_back() {
        for rule in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Salted(u64::MAX)] {
            assert_eq!(rule.to_string().parse(), Ok(rule), "{rule}");
        }
        for bad in ["FIFO", "salted", "salted:-1", ""] {
            assert!(bad.parse::<TieBreak>().is_err(), "{bad}");
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn lifo_reverses_ties_but_not_time_order() {
        let mut q = EventQueue::with_tie_break(TieBreak::Lifo);
        let t = SimTime::from_nanos(5);
        q.push(t, 1);
        q.push(t, 2);
        q.push(SimTime::from_nanos(1), 0);
        q.push(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![0, 3, 2, 1]);
    }

    #[test]
    fn salted_ties_are_deterministic_and_salt_sensitive() {
        let run = |salt: u64| {
            let mut q = EventQueue::with_tie_break(TieBreak::Salted(salt));
            let t = SimTime::from_nanos(5);
            for p in 0..16 {
                q.push(t, p);
            }
            std::iter::from_fn(|| q.pop())
                .map(|(_, p)| p)
                .collect::<Vec<i32>>()
        };
        assert_eq!(run(7), run(7), "same salt, same schedule");
        assert_ne!(run(7), run(8), "different salt permutes ties");
        let mut sorted = run(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "permutation only");
    }

    #[test]
    fn salted_time_order_still_wins_over_rank() {
        let mut q = EventQueue::with_tie_break(TieBreak::Salted(99));
        q.push(SimTime::from_nanos(30), "late");
        q.push(SimTime::from_nanos(10), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO + SimDuration::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 10);
        q.push(SimTime::from_nanos(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        q.push(SimTime::from_nanos(1), 1);
        q.push(SimTime::from_nanos(20), 20);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 20);
        assert!(q.pop().is_none());
    }
}
