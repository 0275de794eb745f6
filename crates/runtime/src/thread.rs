//! The threaded half of the execution-backend seam.
//!
//! The discrete-event [`ClusterRuntime`](crate::ClusterRuntime) gives
//! every job a deterministic, single-threaded schedule; this module
//! supplies the primitives for running the *same* job on real OS
//! threads — the `ThreadRuntime` of DESIGN.md §3.13. Where the sim
//! runtime offers `plan/schedule/wait_until`, the threaded world maps
//! each process to a thread and replaces those verbs with:
//!
//! * **[`ExecutionBackend`]** — the user-facing selector parsed from
//!   `--backend sim|threads:<n>`; everything downstream branches on it
//!   exactly once, at job launch.
//! * **[`WallClock`]** — a monotonic, *strictly increasing* nanosecond
//!   stamp shared by every thread of a run. Strictness is what makes
//!   the per-thread trace buffers mergeable into one deterministic
//!   stream: two events can never tie on `t`, so the documented
//!   `(t, tid)` merge order is total (`het_trace::merge_threads`).
//! * **[`Turnstile`]** — an ordered-section primitive: its slots are
//!   passed in a fixed index order, one at a time, by whichever threads
//!   own them. The threaded BSP trainer runs each worker's read
//!   exchange, each worker's write exchange and the round tail through
//!   one turnstile, so server-visible calls happen in exactly the sim's
//!   order — the property its bit-identity guarantee rests on — while
//!   everything a worker does to its own state, and the compute between
//!   the exchanges, runs genuinely in parallel.
//! * **[`Barrier`]** — a reusable all-thread rendezvous.
//!   `std::sync::Barrier` would do, but this one reports the leader
//!   deterministically (index 0, not "some thread"). The BSP trainer
//!   meets at one only where a round's tail may end the run.
//!
//! Both blocking primitives can be **poisoned**: when a worker thread
//! unwinds, its launcher calls `poison(worker)` on everything the
//! worker's peers could be parked on, and every waiter wakes and panics
//! naming that worker — a bug becomes a panic with an origin, never a
//! hang.
//!
//! Locking order, repo-wide (documented in DESIGN.md §3.13 and enforced
//! by review, not by types): **progress/phase locks → PS shard locks →
//! trace scope**. No code path takes a shard lock while holding another
//! shard's lock (shards are strictly disjoint), and nothing calls back
//! into the runtime while holding a shard lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Which executor runs a job: the deterministic discrete-event
/// simulator (the correctness oracle) or real OS threads.
///
/// Parsed from the CLI's `--backend` flag. `threads:<n>` carries the
/// worker-thread count: the threaded trainer runs one thread per
/// worker, so `threads:4` *is* a 4-worker cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionBackend {
    /// Single-threaded discrete-event simulation (the default).
    #[default]
    Sim,
    /// Real OS threads; the payload is the worker-thread count (≥ 1).
    Threads(usize),
}

impl ExecutionBackend {
    /// What [`str::parse`] reads; `N` is a thread count of at least 1.
    pub const SPELLINGS: &'static str = "sim threads:N";

    /// The worker-thread count, or `None` on the sim backend.
    pub fn threads(&self) -> Option<usize> {
        match self {
            ExecutionBackend::Sim => None,
            ExecutionBackend::Threads(n) => Some(*n),
        }
    }
}

impl std::str::FromStr for ExecutionBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "sim" {
            return Ok(ExecutionBackend::Sim);
        }
        let n = s
            .strip_prefix("threads:")
            .ok_or_else(|| format!("unknown backend '{s}' (try: {})", Self::SPELLINGS))?;
        match n.parse() {
            Ok(n) if n >= 1 => Ok(ExecutionBackend::Threads(n)),
            _ => Err(format!("backend '{s}': '{n}' is not a thread count >= 1")),
        }
    }
}

impl std::fmt::Display for ExecutionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionBackend::Sim => write!(f, "sim"),
            ExecutionBackend::Threads(n) => write!(f, "threads:{n}"),
        }
    }
}

/// A shared run clock issuing *strictly increasing* wall-clock stamps.
///
/// `elapsed` alone is monotone but not strict — two threads (or one
/// fast loop) can read the same nanosecond. Trace merging needs strict
/// stamps so `(t, tid)` ordering is total and replay order equals
/// emission order; the clock therefore hands out
/// `max(last + 1, elapsed_ns)` with a lock-free compare-exchange loop
/// on the last issued stamp.
pub struct WallClock {
    origin: Instant,
    last: AtomicU64,
}

impl WallClock {
    /// Starts the clock at the run's origin (stamp 0 is never issued).
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
            last: AtomicU64::new(0),
        }
    }

    /// Issues the next stamp: strictly greater than every stamp issued
    /// before it, and `>=` the real elapsed nanoseconds.
    pub fn stamp(&self) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut stamped = 0;
        self.last
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |last| {
                stamped = now.max(last + 1);
                Some(stamped)
            })
            .expect("fetch_update closure never returns None");
        stamped
    }

    /// Real elapsed nanoseconds since the clock started (non-strict;
    /// for durations and throughput, not for trace stamps).
    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

/// What a thread blocked on a [`Turnstile`] or [`Barrier`] dies with
/// once worker `by` has unwound: its peers can no longer arrive, so
/// waiting for them would park this thread forever.
fn poisoned(by: usize) -> ! {
    panic!("worker {by} panicked; a thread waiting on it gives up");
}

/// An ordered section with `n` slots, passed strictly in slot order
/// `0, 1, .., n-1`, one at a time, cycle after cycle.
///
/// A thread may own any set of slots: `pass(slot, body)` blocks until
/// slots `0..slot` have been passed this cycle, runs `body` alone, then
/// admits `slot + 1`; after slot `n-1` the next cycle starts at 0. The
/// threaded BSP trainer gives worker `w` of `k` the slots `w` (its read
/// exchange) and `k + w` (its write exchange), and worker 0 slot `2k`
/// (the round tail) as well: one cycle is one round in the sim's server
/// order. Everything a worker does to state it owns runs outside the
/// turnstile, fully parallel.
pub struct Turnstile {
    n: usize,
    state: Mutex<TurnState>,
    cv: Condvar,
}

struct TurnState {
    turn: usize,
    poisoned_by: Option<usize>,
}

impl Turnstile {
    /// A turnstile with `n` slots (indices `0..n`).
    pub fn new(n: usize) -> Self {
        Turnstile {
            n: n.max(1),
            state: Mutex::new(TurnState {
                turn: 0,
                poisoned_by: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Runs `body` when it is slot `index`'s turn this cycle, then
    /// passes the turn to the next slot. Returns `body`'s result.
    ///
    /// # Panics
    /// Panics, naming the worker that failed, once the turnstile is
    /// [poisoned](Turnstile::poison).
    pub fn pass<T>(&self, index: usize, body: impl FnOnce() -> T) -> T {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(by) = state.poisoned_by {
                poisoned(by);
            }
            if state.turn == index {
                break;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        let out = body();
        state.turn = (index + 1) % self.n;
        self.cv.notify_all();
        out
    }

    /// Marks worker `by` as dead: every thread waiting for a slot's turn,
    /// and every later [`pass`](Turnstile::pass), panics instead of waiting
    /// for a pass that will never come. The first poisoner is the one
    /// reported.
    pub fn poison(&self, by: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.poisoned_by.get_or_insert(by);
        self.cv.notify_all();
    }
}

/// A reusable rendezvous for `n` threads with a deterministic leader.
///
/// Each [`wait`](Barrier::wait) blocks until all `n` threads of the
/// current generation have arrived, then releases them together and
/// reports `true` to exactly the thread that arrived with `index == 0`
/// — so "the leader" is a fixed thread across every round.
pub struct Barrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned_by: Option<usize>,
}

impl Barrier {
    /// A barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        Barrier {
            n: n.max(1),
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned_by: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all threads arrive; returns `true` iff this caller
    /// passed `index == 0`.
    ///
    /// # Panics
    /// Panics, naming the worker that failed, once the barrier is
    /// [poisoned](Barrier::poison).
    pub fn wait(&self, index: usize) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(by) = state.poisoned_by {
            poisoned(by);
        }
        state.arrived += 1;
        if state.arrived == self.n {
            state.arrived = 0;
            state.generation += 1;
            self.cv.notify_all();
        } else {
            let generation = state.generation;
            while state.generation == generation {
                state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                if let Some(by) = state.poisoned_by {
                    poisoned(by);
                }
            }
        }
        index == 0
    }

    /// Marks worker `by` as dead: every thread parked at the barrier,
    /// and every later [`wait`](Barrier::wait), panics instead of
    /// waiting for an arrival that will never come. The first poisoner
    /// is the one reported.
    pub fn poison(&self, by: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.poisoned_by.get_or_insert(by);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn backend_parses_and_displays() {
        for backend in [ExecutionBackend::Sim, ExecutionBackend::Threads(4)] {
            assert_eq!(backend.to_string().parse(), Ok(backend), "{backend}");
        }
        for bad in ["threads:0", "threads:x", "gpu"] {
            assert!(bad.parse::<ExecutionBackend>().is_err(), "{bad}");
        }
        assert_eq!(ExecutionBackend::Threads(2).to_string(), "threads:2");
        assert_eq!(ExecutionBackend::Sim.threads(), None);
        assert_eq!(ExecutionBackend::Threads(3).threads(), Some(3));
    }

    #[test]
    fn wall_clock_stamps_are_strictly_increasing_across_threads() {
        let clock = Arc::new(WallClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| clock.stamp()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "stamps must never collide");
    }

    #[test]
    fn turnstile_enforces_index_order_per_cycle() {
        const N: usize = 4;
        const CYCLES: usize = 25;
        let ts = Arc::new(Turnstile::new(N));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..N {
            let ts = Arc::clone(&ts);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                for _ in 0..CYCLES {
                    ts.pass(i, || order.lock().unwrap().push(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap();
        assert_eq!(order.len(), N * CYCLES);
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(i, k % N, "cycle order must be 0..n, repeated");
        }
    }

    #[test]
    fn turnstile_orders_slots_owned_by_fewer_threads() {
        const CYCLES: usize = 100;
        let ts = Turnstile::new(5);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for slots in [&[0, 2, 4][..], &[1, 3][..]] {
                let (ts, order) = (&ts, &order);
                s.spawn(move || {
                    for _ in 0..CYCLES {
                        for &slot in slots {
                            ts.pass(slot, || order.lock().unwrap().push(slot));
                        }
                    }
                });
            }
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 5 * CYCLES);
        for (k, &slot) in order.iter().enumerate() {
            assert_eq!(slot, k % 5, "cycle order must be 0..5, repeated");
        }
        // A thread parked on a later slot is woken by a poison.
        let ts = Turnstile::new(5);
        let msg = message_of_poisoned_waiter(|| ts.pass(3, || ()), || ts.poison(0));
        assert!(msg.contains("worker 0 panicked"), "{msg}");
    }

    /// Runs `blocked` — a wait nobody will ever release — on a thread
    /// of its own beside `poison`, and returns the waiter's panic
    /// message. Either order works: a waiter already parked is woken,
    /// one that arrives late finds the poison on entry.
    fn message_of_poisoned_waiter(blocked: impl FnOnce() + Send, poison: impl FnOnce()) -> String {
        std::thread::scope(|s| {
            let waiter = s.spawn(blocked);
            poison();
            let payload = waiter.join().expect_err("a poisoned waiter must panic");
            payload
                .downcast_ref::<String>()
                .expect("panic message")
                .clone()
        })
    }

    #[test]
    fn poisoned_turnstile_fails_waiters_and_later_passes() {
        let ts = Turnstile::new(2);
        // Index 1 waits for index 0, which never comes.
        let msg = message_of_poisoned_waiter(|| ts.pass(1, || ()), || ts.poison(0));
        assert!(msg.contains("worker 0 panicked"), "{msg}");
        ts.poison(1);
        let late = std::panic::catch_unwind(|| ts.pass(0, || ())).expect_err("stays poisoned");
        let late = late.downcast_ref::<String>().expect("panic message");
        assert!(late.contains("worker 0"), "the first poisoner is reported");
    }

    #[test]
    fn poisoned_barrier_fails_waiters_and_later_waits() {
        let barrier = Barrier::new(2);
        let msg = message_of_poisoned_waiter(
            || {
                barrier.wait(0);
            },
            || barrier.poison(1),
        );
        assert!(msg.contains("worker 1 panicked"), "{msg}");
        assert!(std::panic::catch_unwind(|| barrier.wait(1)).is_err());
    }

    #[test]
    fn barrier_releases_all_and_elects_index_zero() {
        const N: usize = 4;
        let barrier = Arc::new(Barrier::new(N));
        let leaders = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..N {
            let barrier = Arc::clone(&barrier);
            let leaders = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    if barrier.wait(i) {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), 50, "one leader per round");
    }
}
