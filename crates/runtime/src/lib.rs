//! The unified cluster runtime: one event loop for every job.
//!
//! The trainer, the serving fleet, and any future subsystem (multi-tenant
//! jobs, elastic workers, online learning) are [`Process`] implementations
//! scheduled by a single [`ClusterRuntime`]. The runtime owns the three
//! concerns every discrete-event job used to hand-roll for itself:
//!
//! * the **shared [`EventQueue`]** with its deterministic
//!   [`TieBreak`] policy — processes schedule their own future events
//!   through [`Ctx::schedule`] and wait conditions through
//!   [`Ctx::wait_until`];
//! * **centralized fault delivery** — the [`FaultPlan`]'s crash and
//!   shard-outage schedules are cursored once, here, and routed to the
//!   owning process on demand ([`Ctx::take_crash`],
//!   [`Ctx::take_due_outage`]), so two co-scheduled jobs can never
//!   double-consume or miss a fault;
//! * **deterministic trace scoping and per-process clocks** — before each
//!   dispatch the ambient trace scope is reset to the event time and the
//!   process's clock is advanced, so no process observes the scope a
//!   previously dispatched process left behind.
//!
//! Determinism is inherited, not re-proven per job: the queue pops in a
//! total order that is a pure function of the push sequence, fault
//! cursors advance monotonically, and nothing in the loop reads wall
//! clocks or ambient randomness. Same processes + same priming + same
//! plan ⇒ byte-identical histories.
//!
//! # Membership and fault routing
//!
//! A fault plan addresses *cluster members* by a flat index (worker 0, 1,
//! ...). Each registered process covers a contiguous block of members:
//! [`ClusterRuntime::register`] hands out the block starting at the
//! current member count, so a trainer with `W` workers registered first
//! owns members `0..W`, and a serving fleet with `R` replicas registered
//! second owns members `W..W+R`. [`Ctx::take_crash`] takes the process's
//! *local* member index and translates it.

#![warn(missing_docs)]

pub mod thread;

pub use thread::{Barrier, ExecutionBackend, Turnstile, WallClock};

use het_simnet::{EventQueue, FaultPlan, SimDuration, SimTime, TieBreak};

/// Identifies a registered process within one [`ClusterRuntime`].
pub type ProcessId = usize;

/// The event payloads a process can schedule for itself.
///
/// The runtime never interprets the payload beyond routing it to the
/// owning process; the `u64` carries whatever the process needs (a
/// worker index, a request index, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A process-internal wake-up (a worker's next iteration, a replica
    /// restart, a batch deadline, the next BSP round, ...).
    Wake(u64),
    /// An external arrival (a serving request entering the balancer).
    Arrive(u64),
}

/// A job scheduled by the [`ClusterRuntime`].
///
/// `on_event` is invoked once per popped event addressed to this
/// process, in global simulated-time order. The process advances its own
/// internal state and uses `ctx` to schedule follow-up events, consume
/// routed faults, or declare itself finished.
pub trait Process {
    /// Handles one event at simulated time `t`.
    fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx<'_>);
}

/// Centralized fault delivery: the plan's crash and outage schedules,
/// cursored once for the whole cluster.
struct FaultDelivery {
    plan: FaultPlan,
    /// Per-member crash schedule `(at, restart)`, consumed in order.
    crashes: Vec<Vec<(SimTime, SimDuration)>>,
    next_crash: Vec<usize>,
    /// Shard outages sorted by trigger time; one shared cursor — the PS
    /// fabric fails over once no matter how many jobs observe it.
    outages: Vec<(usize, SimTime, SimDuration)>,
    next_outage: usize,
}

impl FaultDelivery {
    fn new(plan: FaultPlan) -> Self {
        let mut outages = plan.shard_outages();
        outages.sort_by_key(|&(shard, at, _)| (at.as_nanos(), shard));
        FaultDelivery {
            plan,
            crashes: Vec::new(),
            next_crash: Vec::new(),
            outages,
            next_outage: 0,
        }
    }

    fn add_member(&mut self) {
        let member = self.crashes.len();
        self.crashes.push(self.plan.worker_crashes(member));
        self.next_crash.push(0);
    }

    fn take_crash(&mut self, member: usize, now: SimTime) -> Option<(SimTime, SimDuration)> {
        let i = self.next_crash[member];
        let &(at, restart) = self.crashes[member].get(i)?;
        if at > now {
            return None;
        }
        self.next_crash[member] = i + 1;
        Some((at, restart))
    }

    fn take_due_outage(&mut self, now: SimTime) -> Option<(usize, SimTime, SimDuration)> {
        let &(shard, at, failover) = self.outages.get(self.next_outage)?;
        if at > now {
            return None;
        }
        self.next_outage += 1;
        Some((shard, at, failover))
    }
}

/// The scheduling context handed to [`Process::on_event`]: the window
/// through which a process reaches the shared queue, the fault plan, and
/// the trace scope.
pub struct Ctx<'a> {
    pid: ProcessId,
    now: SimTime,
    member_offset: usize,
    tie_break: TieBreak,
    queue: &'a mut EventQueue<(ProcessId, Event)>,
    faults: &'a mut FaultDelivery,
    stopped: &'a mut [bool],
}

impl Ctx<'_> {
    /// The simulated time of the event being dispatched.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// First cluster-member index owned by this process (see the module
    /// docs on membership).
    pub fn member_offset(&self) -> usize {
        self.member_offset
    }

    /// The tie-break rule of the shared queue.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// The cluster's fault plan (for effects the runtime does not
    /// cursor: stragglers, link degradation, message drops).
    pub fn plan(&self) -> &FaultPlan {
        &self.faults.plan
    }

    /// Schedules a future event for this process.
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        self.queue.push(at, (self.pid, ev));
    }

    /// Schedules a future event for *another* process. This is the
    /// cross-process signalling primitive: a supervisor wakes the fleet
    /// it respawned a replica into, an autoscaler pokes the balancer it
    /// just resized. Delivery shares the queue's deterministic order
    /// with every other event.
    pub fn schedule_for(&mut self, pid: ProcessId, at: SimTime, ev: Event) {
        self.queue.push(at, (pid, ev));
    }

    /// This process's id, for handing to peers that signal back via
    /// [`Ctx::schedule_for`].
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// A wait condition: re-delivers `ev` just after `gate` (or just
    /// after now, if the gate is already behind us) and returns the
    /// retry instant. This is how a process blocks on a predicate over
    /// another member's progress — e.g. the SSP staleness gate.
    pub fn wait_until(&mut self, gate: SimTime, ev: Event) -> SimTime {
        let retry = gate.max(self.now) + SimDuration::from_nanos(1);
        self.queue.push(retry, (self.pid, ev));
        retry
    }

    /// Declares this process finished. Its residual events are discarded
    /// unprocessed; the run ends once every process has stopped (or the
    /// queue drains).
    pub fn stop(&mut self) {
        self.stopped[self.pid] = true;
    }

    /// Takes this process's member `m`'s next crash if it is due at or
    /// before `now` (at most one per call — callers drain with a loop
    /// where multiple crashes may be due).
    pub fn take_crash(&mut self, member: usize, now: SimTime) -> Option<(SimTime, SimDuration)> {
        self.faults.take_crash(self.member_offset + member, now)
    }

    /// Takes the next PS-shard outage due at or before `now`, if any.
    /// The cursor is cluster-global: whichever process asks first
    /// performs the failover.
    pub fn take_due_outage(&mut self, now: SimTime) -> Option<(usize, SimTime, SimDuration)> {
        self.faults.take_due_outage(now)
    }

    /// Sets the ambient trace scope to `(t, member)` with the member
    /// index translated to cluster-global, so co-scheduled jobs never
    /// collide on per-index counters. No-op when tracing is off.
    pub fn scope_at(&self, t: SimTime, member: Option<usize>) {
        if het_trace::enabled() {
            het_trace::set_scope(
                t.as_nanos(),
                member.map(|m| (self.member_offset + m) as u64),
            );
        }
    }
}

/// The single event loop driving every registered [`Process`].
pub struct ClusterRuntime {
    queue: EventQueue<(ProcessId, Event)>,
    tie_break: TieBreak,
    faults: FaultDelivery,
    stopped: Vec<bool>,
    clocks: Vec<SimTime>,
    offsets: Vec<usize>,
}

impl ClusterRuntime {
    /// Builds a runtime over one shared queue and one fault plan.
    pub fn new(tie_break: TieBreak, plan: FaultPlan) -> Self {
        ClusterRuntime {
            queue: EventQueue::with_tie_break(tie_break),
            tie_break,
            faults: FaultDelivery::new(plan),
            stopped: Vec::new(),
            clocks: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Registers a process covering `n_members` cluster members and
    /// returns its id. Registration order defines both the id and the
    /// member block (see the module docs).
    pub fn register(&mut self, n_members: usize) -> ProcessId {
        let pid = self.stopped.len();
        let offset = self.faults.crashes.len();
        for _ in 0..n_members {
            self.faults.add_member();
        }
        self.stopped.push(false);
        self.clocks.push(SimTime::ZERO);
        self.offsets.push(offset);
        pid
    }

    /// First cluster-member index owned by `pid`.
    pub fn member_offset(&self, pid: ProcessId) -> usize {
        self.offsets[pid]
    }

    /// Schedules an initial event for `pid` before the loop starts.
    pub fn prime(&mut self, pid: ProcessId, at: SimTime, ev: Event) {
        self.queue.push(at, (pid, ev));
    }

    /// The last event time dispatched to `pid`.
    pub fn clock_of(&self, pid: ProcessId) -> SimTime {
        self.clocks[pid]
    }

    /// The cluster's fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.faults.plan
    }

    /// Post-run fault drain: takes `pid`'s member `m`'s next crash due
    /// at or before `now`, for epilogues that must account faults
    /// scheduled after the last dispatched event.
    pub fn take_crash(
        &mut self,
        pid: ProcessId,
        member: usize,
        now: SimTime,
    ) -> Option<(SimTime, SimDuration)> {
        self.faults.take_crash(self.offsets[pid] + member, now)
    }

    /// Runs the loop to completion: pops events in deterministic order
    /// and dispatches each to its owner, until every process has stopped
    /// or the queue drains. `procs[i]` must be the process registered
    /// with id `i`. Events addressed to a stopped process are discarded.
    pub fn run(&mut self, procs: &mut [&mut dyn Process]) {
        assert_eq!(
            procs.len(),
            self.stopped.len(),
            "one &mut Process per registered id, in registration order"
        );
        while !self.stopped.iter().all(|&s| s) {
            let Some((t, (pid, ev))) = self.queue.pop() else {
                break;
            };
            if self.stopped[pid] {
                continue;
            }
            if self.clocks[pid] < t {
                self.clocks[pid] = t;
            }
            // Scope ownership: no process may observe the scope a
            // previously dispatched process left behind.
            if het_trace::enabled() {
                het_trace::set_scope(t.as_nanos(), None);
            }
            let mut ctx = Ctx {
                pid,
                now: t,
                member_offset: self.offsets[pid],
                tie_break: self.tie_break,
                queue: &mut self.queue,
                faults: &mut self.faults,
                stopped: &mut self.stopped,
            };
            procs[pid].on_event(t, ev, &mut ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_simnet::FaultSpec;

    /// Counts its wake-ups, schedules the next one `step` later, stops
    /// after `limit`.
    struct Ticker {
        step: SimDuration,
        limit: u64,
        ticks: u64,
        times: Vec<SimTime>,
    }

    impl Ticker {
        fn new(step_ns: u64, limit: u64) -> Self {
            Ticker {
                step: SimDuration::from_nanos(step_ns),
                limit,
                ticks: 0,
                times: Vec::new(),
            }
        }
    }

    impl Process for Ticker {
        fn on_event(&mut self, t: SimTime, _ev: Event, ctx: &mut Ctx<'_>) {
            self.ticks += 1;
            self.times.push(t);
            if self.ticks >= self.limit {
                ctx.stop();
            } else {
                ctx.schedule(t + self.step, Event::Wake(0));
            }
        }
    }

    fn run_two(a_step: u64, b_step: u64) -> (Ticker, Ticker) {
        let mut rt = ClusterRuntime::new(TieBreak::Fifo, FaultPlan::none());
        let a_pid = rt.register(1);
        let b_pid = rt.register(1);
        let mut a = Ticker::new(a_step, 5);
        let mut b = Ticker::new(b_step, 5);
        rt.prime(a_pid, SimTime::ZERO, Event::Wake(0));
        rt.prime(b_pid, SimTime::ZERO, Event::Wake(0));
        rt.run(&mut [&mut a, &mut b]);
        (a, b)
    }

    #[test]
    fn interleaves_processes_in_time_order() {
        let (a, b) = run_two(10, 3);
        assert_eq!(a.ticks, 5);
        assert_eq!(b.ticks, 5);
        // b's 3 ns cadence finishes (12 ns) before a's second tick.
        assert_eq!(b.times.last().unwrap().as_nanos(), 12);
        assert_eq!(a.times.last().unwrap().as_nanos(), 40);
    }

    #[test]
    fn identical_runs_produce_identical_histories() {
        let (a1, b1) = run_two(7, 7);
        let (a2, b2) = run_two(7, 7);
        assert_eq!(a1.times, a2.times);
        assert_eq!(b1.times, b2.times);
    }

    #[test]
    fn stopped_process_events_are_discarded() {
        struct StopsEarly {
            seen: u64,
        }
        impl Process for StopsEarly {
            fn on_event(&mut self, _t: SimTime, _ev: Event, ctx: &mut Ctx<'_>) {
                self.seen += 1;
                ctx.stop();
            }
        }
        let mut rt = ClusterRuntime::new(TieBreak::Fifo, FaultPlan::none());
        let s_pid = rt.register(1);
        let t_pid = rt.register(1);
        let mut s = StopsEarly { seen: 0 };
        let mut t = Ticker::new(5, 3);
        // Three events for the stopper: only the first is dispatched.
        for at in [0, 1, 2] {
            rt.prime(s_pid, SimTime::from_nanos(at), Event::Wake(0));
        }
        rt.prime(t_pid, SimTime::ZERO, Event::Wake(0));
        rt.run(&mut [&mut s, &mut t]);
        assert_eq!(s.seen, 1);
        assert_eq!(t.ticks, 3, "the other process keeps running");
    }

    #[test]
    fn wait_until_retries_just_past_the_gate() {
        struct Wait {
            retried_at: Option<SimTime>,
            done: bool,
        }
        impl Process for Wait {
            fn on_event(&mut self, t: SimTime, _ev: Event, ctx: &mut Ctx<'_>) {
                if let Some(retried_at) = self.retried_at {
                    assert_eq!(t, retried_at);
                    self.done = true;
                    ctx.stop();
                } else {
                    let retry = ctx.wait_until(SimTime::from_nanos(100), Event::Wake(0));
                    assert_eq!(retry.as_nanos(), 101);
                    self.retried_at = Some(retry);
                }
            }
        }
        let mut rt = ClusterRuntime::new(TieBreak::Fifo, FaultPlan::none());
        let pid = rt.register(1);
        let mut p = Wait {
            retried_at: None,
            done: false,
        };
        rt.prime(pid, SimTime::ZERO, Event::Wake(0));
        rt.run(&mut [&mut p]);
        assert!(p.done);
        assert_eq!(rt.clock_of(pid).as_nanos(), 101);
    }

    #[test]
    fn fault_routing_translates_member_blocks() {
        let spec = FaultSpec {
            worker_crashes: 4,
            horizon: SimDuration::from_millis(10),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(3, &spec, 4, 2);
        let horizon = SimTime::ZERO + SimDuration::from_millis(10);
        // Expected per-member schedules straight from the plan.
        let expect: Vec<_> = (0..4).map(|m| plan.worker_crashes(m)).collect();

        let mut rt = ClusterRuntime::new(TieBreak::Fifo, plan);
        let a = rt.register(2); // members 0..2
        let b = rt.register(2); // members 2..4
        assert_eq!(rt.member_offset(a), 0);
        assert_eq!(rt.member_offset(b), 2);
        for (pid, local, member) in [(a, 0, 0), (a, 1, 1), (b, 0, 2), (b, 1, 3)] {
            let mut got = Vec::new();
            while let Some(c) = rt.take_crash(pid, local, horizon) {
                got.push(c);
            }
            assert_eq!(got, expect[member], "member {member}");
        }
        // Cursors are consumed: nothing is delivered twice.
        assert!(rt.take_crash(a, 0, horizon).is_none());
    }

    #[test]
    fn outage_cursor_is_cluster_global() {
        let spec = FaultSpec {
            shard_outages: 3,
            horizon: SimDuration::from_millis(10),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(9, &spec, 2, 4);
        let mut expect = plan.shard_outages();
        expect.sort_by_key(|&(shard, at, _)| (at.as_nanos(), shard));

        let mut delivery = FaultDelivery::new(plan);
        let horizon = SimTime::ZERO + SimDuration::from_millis(10);
        let mut got = Vec::new();
        while let Some(o) = delivery.take_due_outage(horizon) {
            got.push(o);
        }
        assert_eq!(got, expect, "delivered in time order, exactly once");
        assert!(delivery.take_due_outage(horizon).is_none());
    }
}
