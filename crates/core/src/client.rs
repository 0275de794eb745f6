//! The HET client: the paper's Algorithms 1–3 with wire-accurate cost
//! accounting.
//!
//! `Het.Read` (Algorithm 2): for each requested key, a cache hit is
//! validated against the two clock bounds of `CheckValid`; condition (1)
//! (`c_c ≤ c_s + s`) is checked locally, condition (2) (`c_g ≤ c_c + s`)
//! requires a clock-only round trip to the server — charged at
//! clock-message size, which is the cheapness the protocol exploits.
//! Invalid entries are synchronised: evicted (pending gradients pushed)
//! and re-fetched. Missing keys are fetched. All transfers are batched
//! per protocol step, mirroring the paper's message-fusion optimisation
//! (§4.2).
//!
//! `Het.Write` (Algorithm 3): gradients are accumulated into the cache
//! (stale writes), per-key clocks advance by one, and only capacity
//! overflow triggers server write-backs.
//!
//! Most of either step is local — that is the paper's point — so both
//! are built from stages that keep the local work apart from the one
//! fused exchange with the server: a read is **plan** (partition the
//! batch; cache reads only) → **exchange** (every server call of the
//! step, and no cache mutation) → **apply** (every cache mutation, then
//! the resolved batch); a write is its local half (stale writes, clocks,
//! overflow eviction) → **exchange** (the victims' write-backs). The
//! public [`HetClient::read`]/[`HetClient::write`] run the stages back
//! to back; a scheduler that has to order workers' server calls orders
//! the exchanges only (`trainer::parallel`). Per client, server calls
//! happen in one fixed order and cache mutations in one fixed order,
//! however the stages of different clients interleave.

use crate::fault::FaultContext;
use het_cache::{CacheTable, EvictedEntry, PolicyKind};
use het_data::Key;
use het_models::{EmbeddingStore, SparseGrads};
use het_ps::PsServer;
use het_simnet::wire::MessageCosts;
use het_simnet::{Collectives, CommCategory, CommStats, SimDuration};

/// The longest stall among the given keys' shards that are mid-failover
/// at the context's clock (each distinct shard counted once). Zero when
/// no context or no outage — protocol steps that must *touch* a down
/// shard block until its failover completes.
fn outage_wait<'a>(
    keys: impl Iterator<Item = &'a Key>,
    server: &PsServer,
    faults: &mut Option<&mut FaultContext<'_>>,
) -> SimDuration {
    let mut wait = SimDuration::ZERO;
    if let Some(f) = faults.as_mut() {
        let mut seen: Vec<usize> = Vec::new();
        for &k in keys {
            let shard = server.shard_index_of(k);
            if !seen.contains(&shard) {
                seen.push(shard);
                if let Some(w) = f.blocked_wait(shard) {
                    wait = wait.max(w);
                }
            }
        }
    }
    wait
}

/// Drains the disk time the server's row store accrued serving the
/// current leg (zero with the flat in-memory store), as a duration to
/// charge into the same span as the leg's wire time — disk time flows
/// into simulated clocks exactly like network time.
fn store_io(server: &PsServer) -> SimDuration {
    SimDuration::from_nanos(server.take_io_ns())
}

/// One `Het.Read` between its stages: what the plan decided to move,
/// then what the exchange moved, for the apply stage to land.
#[derive(Default)]
pub(crate) struct ReadStep {
    /// Resident entries served on condition (1) alone (shard down).
    degraded: Vec<Key>,
    /// Resident entries that pass condition (1): the clock-check
    /// candidates after the plan, the validated hits after the exchange.
    hits: Vec<Key>,
    /// Resident entries that must be written back and re-fetched.
    resync: Vec<Key>,
    /// Keys that are not resident.
    missing: Vec<Key>,
    /// The clock-check candidates' global clocks, in `hits` order.
    hit_clocks: Vec<u64>,
    /// The pulled rows, `dim` floats each, in pull order (`missing`'s,
    /// then `resync`'s; a cache-less read's whole batch).
    rows: Vec<f32>,
    /// The pulled rows' global clocks.
    clocks: Vec<u64>,
    /// Simulated time the step has cost so far.
    pub(crate) time: SimDuration,
    // `client/read_window` observations, gathered on traced runs.
    validated: u64, // hits accepted by both CheckValid conditions
    max_lag: u64,   // max c_c − c_s over served cache hits
    max_gap: u64,   // max c_g − c_c over clock-validated hits
    waste_before: u64,
}

impl ReadStep {
    /// A cache-less exchange's result: `keys`' pulled rows as the
    /// resolved batch.
    pub(crate) fn into_store(self, keys: &[Key], dim: usize) -> (EmbeddingStore, SimDuration) {
        let mut store = EmbeddingStore::new(dim);
        for (&k, row) in keys.iter().zip(self.rows.chunks_exact(dim)) {
            store.insert(k, row.to_vec());
        }
        (store, self.time)
    }

    /// Pulls `keys` with no priced leg (a replica's local table
    /// lookups).
    pub(crate) fn pull_unpriced(&mut self, keys: &[Key], server: &PsServer) {
        server.pull_into(keys, &mut self.rows, &mut self.clocks);
    }
}

/// The cache-enabled embedding client of one worker.
pub struct HetClient {
    cache: CacheTable,
    staleness: u64,
    dim: usize,
    costs: MessageCosts,
    /// Deliberate-breakage knob for the `het-oracle` harness: extra
    /// clock ticks added to the staleness window `CheckValid` admits,
    /// so reads accept entries the protocol should have resynchronised.
    /// 0 (the only value production code ever sets) leaves the protocol
    /// byte-for-byte unchanged. Injected from the harness configuration
    /// — there is no process-global way to flip it.
    extra_staleness: u64,
    /// Write-behind (lookahead runs only): dirty-eviction write-backs
    /// still reach the server at the same protocol point, but their
    /// wire time is parked in `deferred_push` for the trainer to drain
    /// through the prefetch plane's transmit channel instead of
    /// charging it into the write span. Off (the default) reproduces
    /// the legacy synchronous push byte-for-byte and cycle-for-cycle.
    write_behind: bool,
    deferred_push: SimDuration,
}

impl HetClient {
    /// Creates a client with a cache of `capacity` embeddings, staleness
    /// threshold `s`, eviction `policy`, and local update rate `lr`
    /// (must match the server's, so the local view tracks what the
    /// server will compute from the pushed gradients), with fused
    /// messages (§4.2).
    pub fn new(capacity: usize, staleness: u64, policy: PolicyKind, dim: usize, lr: f32) -> Self {
        Self::with_costs(
            capacity,
            staleness,
            policy,
            dim,
            lr,
            MessageCosts { fused: true },
        )
    }

    /// As [`HetClient::new`] with explicit message-cost semantics (the
    /// unfused variant models a runtime without message fusion).
    pub fn with_costs(
        capacity: usize,
        staleness: u64,
        policy: PolicyKind,
        dim: usize,
        lr: f32,
        costs: MessageCosts,
    ) -> Self {
        HetClient {
            cache: CacheTable::new(capacity, policy, lr),
            staleness,
            dim,
            costs,
            extra_staleness: 0,
            write_behind: false,
            deferred_push: SimDuration::ZERO,
        }
    }

    /// Enables write-behind: [`HetClient::write`] defers the wire time
    /// of dirty-eviction pushes (state still applies immediately) and
    /// the trainer drains it via [`HetClient::take_deferred_push`].
    /// Only lookahead runs set this — the deferred time must land on a
    /// background channel or the accounting would simply vanish.
    pub fn set_write_behind(&mut self, on: bool) {
        self.write_behind = on;
    }

    /// Takes (and resets) the wire time of write-backs deferred since
    /// the last call.
    pub fn take_deferred_push(&mut self) -> SimDuration {
        std::mem::replace(&mut self.deferred_push, SimDuration::ZERO)
    }

    /// The staleness threshold `s`.
    pub fn staleness(&self) -> u64 {
        self.staleness
    }

    /// Widens the staleness window `CheckValid` admits by `extra` clock
    /// ticks — the oracle harness's deliberate consistency breakage,
    /// proving the oracle catches a widened window. 0 (the default)
    /// restores the correct protocol. Never set this outside a
    /// correctness harness.
    pub fn set_extra_staleness(&mut self, extra: u64) {
        self.extra_staleness = extra;
    }

    /// The underlying cache table (stats, inspection).
    pub fn cache(&self) -> &CacheTable {
        &self.cache
    }

    /// Mutable access to the cache table (stat resets in harnesses).
    pub fn cache_mut(&mut self) -> &mut CacheTable {
        &mut self.cache
    }

    /// `Het.Read(keys)`: resolves every key through the cache, fetching
    /// and synchronising as the protocol requires. Returns the resolved
    /// embeddings and the simulated communication time spent. `keys`
    /// are distinct, as [`het_models::ModelBatch::unique_keys`] yields
    /// them.
    ///
    /// Fetched entries are added to the cache *temporarily* even past
    /// capacity (Algorithm 2 line 8); the overflow is trimmed by the
    /// `Evict()` pass at the end of the next `Het.Write` (Algorithm 3
    /// line 5), exactly as in the paper.
    ///
    /// With `faults` present the protocol additionally: serves
    /// **gracefully degraded** reads (a resident entry whose shard is
    /// mid-failover is served stale as long as condition (1) of
    /// `CheckValid` holds — the staleness bound the paper already
    /// tolerates); blocks on keys that *must* touch a down shard until
    /// its failover completes; inflates legs crossing degraded links;
    /// and retries deterministically dropped messages with exponential
    /// backoff, charging every retransmission real simulated time and
    /// bytes. `faults: None` (or an empty plan) is the fault-free path
    /// and allocates nothing for fault bookkeeping.
    pub fn read(
        &mut self,
        keys: &[Key],
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        mut faults: Option<&mut FaultContext<'_>>,
    ) -> (EmbeddingStore, SimDuration) {
        let mut step = self.plan_read(keys, server, faults.as_deref_mut());
        self.exchange_read(&mut step, server, net, stats, faults);
        self.apply_read(step, keys)
    }

    /// The effective staleness window. `extra_staleness` is 0 outside
    /// the oracle harness, where it deliberately widens the admitted
    /// window to prove the oracle catches the breakage.
    fn eff_staleness(&self) -> u64 {
        self.staleness + self.extra_staleness
    }

    /// Stage 1 of a read: partitions the batch into degraded serves,
    /// clock-check candidates, locally invalid entries and missing
    /// keys. Reads the cache, changes nothing in it, calls no server
    /// operation (a fault context is asked which shards are down, and
    /// charged the wait for those the step must touch).
    pub(crate) fn plan_read(
        &self,
        keys: &[Key],
        server: &PsServer,
        mut faults: Option<&mut FaultContext<'_>>,
    ) -> ReadStep {
        debug_assert!(
            {
                let mut sorted = keys.to_vec();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "Het.Read takes distinct keys"
        );
        let eff_staleness = self.eff_staleness();
        let tracing = het_trace::enabled();
        let mut step = ReadStep {
            waste_before: self.cache.stats().prefetch_wasted,
            ..ReadStep::default()
        };
        for &k in keys {
            let Some(entry) = self.cache.peek(k) else {
                step.missing.push(k);
                continue;
            };
            if !entry.within_write_bound(eff_staleness) {
                step.resync.push(k);
                continue;
            }
            // Graceful degradation: condition (1) already holds
            // locally, so if the key's shard is down we serve the
            // cached value stale instead of stalling on failover.
            match faults.as_mut() {
                Some(f) if f.shard_down(server.shard_index_of(k)) => {
                    f.record_degraded_read();
                    if tracing {
                        step.max_lag = step.max_lag.max(entry.current_clock - entry.start_clock);
                    }
                    step.degraded.push(k);
                }
                _ => step.hits.push(k),
            }
        }
        // Keys that cannot be served locally block on any mid-failover
        // shard they must touch.
        step.time = outage_wait(
            step.resync.iter().chain(step.missing.iter()),
            server,
            &mut faults,
        );
        step
    }

    /// Stage 2 of a read: every server call of the step, in protocol
    /// order, and their cost — nothing else. The cache is only read
    /// (the candidates are classified against the clocks that came
    /// back; the write-back payloads of dirty invalid entries are
    /// pushed from where they lie), and pulled rows land in the step's
    /// one `dim`-strided buffer.
    pub(crate) fn exchange_read(
        &self,
        step: &mut ReadStep,
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        mut faults: Option<&mut FaultContext<'_>>,
    ) {
        let eff_staleness = self.eff_staleness();
        let tracing = het_trace::enabled();

        // Phase A — two independent legs issued concurrently (§4.1 async
        // invocation): the clock-only validation round trip for the
        // resident candidates, and the fetch of the keys already known to
        // be missing. The phase costs the slower of the two.
        let mut t_clock = SimDuration::ZERO;
        if !step.hits.is_empty() {
            let bytes = self.costs.clock_check(step.hits.len());
            stats.record(CommCategory::ClockSync, bytes);
            t_clock = net.ps_transfer(bytes);
            if let Some(f) = faults.as_mut() {
                t_clock =
                    f.charge_leg(t_clock, |b| stats.record(CommCategory::ClockSync, b), bytes);
            }
            let ReadStep {
                hits,
                resync,
                hit_clocks,
                validated,
                max_lag,
                max_gap,
                ..
            } = step;
            hit_clocks.clear();
            server.clocks_of(hits, hit_clocks);
            let mut hit_clocks = hit_clocks.iter();
            hits.retain(|&k| {
                let global = *hit_clocks.next().expect("a clock per candidate");
                let entry = self.cache.peek(k).expect("resident entry");
                let valid = entry.within_read_bound(global, eff_staleness);
                if !valid {
                    resync.push(k);
                } else if tracing {
                    *validated += 1;
                    *max_lag = (*max_lag).max(entry.current_clock - entry.start_clock);
                    *max_gap = (*max_gap).max(global.saturating_sub(entry.current_clock));
                }
                valid
            });
        }
        let mut t_missing = SimDuration::ZERO;
        if !step.missing.is_empty() {
            let req = self.costs.fetch_request(step.missing.len());
            let resp = self.costs.fetch_response(step.missing.len(), self.dim);
            stats.record(CommCategory::EmbeddingFetch, req + resp);
            t_missing = net.ps_transfer(req) + net.ps_transfer(resp);
            if let Some(f) = faults.as_mut() {
                t_missing = f.charge_leg(
                    t_missing,
                    |b| stats.record(CommCategory::EmbeddingFetch, b),
                    req + resp,
                );
            }
            server.pull_into(&step.missing, &mut step.rows, &mut step.clocks);
            t_missing += store_io(server);
        }
        step.time += t_clock.max(t_missing);

        // Phase B — synchronise entries the validation invalidated:
        // write back the pending gradients, then re-fetch. This leg
        // depends on the clock results, so it is sequential.
        let entry = |k: Key| self.cache.peek(k).expect("resident entry");
        let dirty: Vec<Key> = step
            .resync
            .iter()
            .copied()
            .filter(|&k| entry(k).dirty)
            .collect();
        if !dirty.is_empty() {
            server.push_with_clock_many(&dirty, |&k| {
                let e = entry(k);
                (&e.pending_grad, e.current_clock)
            });
            let bytes = self.costs.push(dirty.len(), self.dim);
            stats.record(CommCategory::EmbeddingPush, bytes);
            step.time += store_io(server);
            let mut t_push = net.ps_transfer(bytes);
            if let Some(f) = faults.as_mut() {
                t_push = f.charge_leg(
                    t_push,
                    |b| stats.record(CommCategory::EmbeddingPush, b),
                    bytes,
                );
            }
            step.time += t_push;
        }
        if !step.resync.is_empty() {
            let req = self.costs.fetch_request(step.resync.len());
            let resp = self.costs.fetch_response(step.resync.len(), self.dim);
            stats.record(CommCategory::EmbeddingFetch, req + resp);
            let mut t_refetch = net.ps_transfer(req) + net.ps_transfer(resp);
            if let Some(f) = faults.as_mut() {
                t_refetch = f.charge_leg(
                    t_refetch,
                    |b| stats.record(CommCategory::EmbeddingFetch, b),
                    req + resp,
                );
            }
            step.time += t_refetch;
            server.pull_into(&step.resync, &mut step.rows, &mut step.clocks);
            step.time += store_io(server);
        }
    }

    /// Stage 3 of a read: every cache mutation of the step — hits
    /// counted, missing rows installed, invalid entries evicted and
    /// re-installed — then the batch served from the cache. No server
    /// call.
    pub(crate) fn apply_read(
        &mut self,
        step: ReadStep,
        keys: &[Key],
    ) -> (EmbeddingStore, SimDuration) {
        let mut prefetch_hits = 0u64; // hits whose entry a prefetch installed
        for &k in step.degraded.iter().chain(&step.hits) {
            if self.cache.consume_prefetch(k) {
                prefetch_hits += 1;
            }
            self.cache.record_hit();
        }
        let mut pulled = step.rows.chunks_exact(self.dim).zip(&step.clocks);
        for &k in &step.missing {
            self.cache.record_miss();
            let (row, &clock) = pulled.next().expect("a pulled row per missing key");
            self.install_fetched(k, row.to_vec(), clock);
        }
        for &k in &step.resync {
            self.cache.record_invalidation();
            self.cache.record_miss();
            // The exchange already wrote the pending gradient back.
            let _ = self.cache.evict(k);
        }
        for &k in &step.resync {
            let (row, &clock) = pulled.next().expect("a pulled row per resynced key");
            self.install_fetched(k, row.to_vec(), clock);
        }

        // Serve the batch from the cache.
        let mut store = EmbeddingStore::new(self.dim);
        for &k in keys {
            let v = self
                .cache
                .get(k)
                .expect("key resolved by read protocol")
                .to_vec();
            store.insert(k, v);
        }
        if het_trace::enabled() {
            // Oracle hook: per-read admitted-window observations, so a
            // trace replay can re-check every accepted entry against
            // the *configured* bound.
            let degraded = step.degraded.len() as u64;
            if step.validated + degraded > 0 {
                het_trace::event!("client", "read_window",
                    "validated" => step.validated,
                    "degraded" => degraded,
                    "max_lag" => step.max_lag,
                    "max_gap" => step.max_gap);
            }
            // Both events exist only on prefetch-enabled runs — a
            // depth-0 trace is byte-identical to the legacy path.
            if prefetch_hits > 0 {
                het_trace::event!("prefetcher", "prefetch_hit", "n" => prefetch_hits);
            }
            let wasted = self.cache.stats().prefetch_wasted - step.waste_before;
            if wasted > 0 {
                het_trace::event!("prefetcher", "prefetch_waste", "n" => wasted);
            }
        }
        (store, step.time)
    }

    /// Lands a fetched vector in the cache. The read protocol installs
    /// only keys that are not resident (missing, or just evicted), so
    /// nothing dirty can be displaced — which is what lets the install
    /// run after, not inside, the server exchange.
    fn install_fetched(&mut self, key: Key, vector: Vec<f32>, clock: u64) {
        let displaced = self.cache.install(key, vector, clock);
        assert!(
            displaced.is_none(),
            "Het.Read displaced a dirty entry of key {key}"
        );
    }

    /// Lands a landed *prefetch* pull in the cache. Returns `false` —
    /// and installs nothing — when the key became resident since the
    /// pull was issued (a demand fetch or an overlapping batch got
    /// there first): overwriting would clobber newer local state with
    /// the older issue-time snapshot. The installed entry carries the
    /// issue-time clocks, so `CheckValid` judges it exactly as strictly
    /// as any other cached entry on the next read.
    pub fn install_prefetch_result(
        &mut self,
        key: Key,
        vector: Vec<f32>,
        clock: u64,
        server: &PsServer,
    ) -> bool {
        if self.cache.find(key) {
            return false;
        }
        if let Some(ev) = self.cache.install_prefetched(key, vector, clock) {
            if ev.dirty {
                server.push_with_clock(key, &ev.pending_grad, ev.current_clock);
            }
        }
        true
    }

    /// `Het.Write(keys, grads)`: stale-writes the gradients into the
    /// cache, bumps per-key clocks, and handles capacity eviction.
    /// Returns the simulated communication time (only evictions cost
    /// anything — this is where the cache wins). Under write-behind
    /// (see [`HetClient::set_write_behind`]) the eviction pushes still
    /// apply to the server here, but the returned time is zero and the
    /// wire time accrues in the deferred-push ledger instead.
    ///
    /// Under fault injection (`faults` present): eviction write-backs
    /// destined for a mid-failover shard block until it recovers, and
    /// the push leg is subject to link degradation and message drops.
    /// Stale writes that stay in the cache are unaffected — that
    /// absorption is exactly why the cache degrades gracefully.
    pub fn write(
        &mut self,
        grads: &SparseGrads,
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        faults: Option<&mut FaultContext<'_>>,
    ) -> SimDuration {
        let victims = self.plan_write(grads);
        self.exchange_write(&victims, server, net, stats, faults)
    }

    /// The local half of a write: stale-writes the gradients, bumps the
    /// clocks, trims the overflow. Returns the dirty victims — what the
    /// exchange must write back. No server call.
    pub(crate) fn plan_write(&mut self, grads: &SparseGrads) -> Vec<(Key, EvictedEntry)> {
        let waste_before = self.cache.stats().prefetch_wasted;
        for k in grads.sorted_keys() {
            let g = grads.get(k).expect("key from sorted_keys");
            self.cache.update(k, g);
            self.cache.bump_clock(k);
        }
        let mut victims = self.cache.evict_overflow();
        if het_trace::enabled() {
            let wasted = self.cache.stats().prefetch_wasted - waste_before;
            if wasted > 0 {
                het_trace::event!("prefetcher", "prefetch_waste", "n" => wasted);
            }
        }
        victims.retain(|(_, ev)| ev.dirty);
        victims
    }

    /// The server half of a write: pushes the victims' pending
    /// gradients and prices the leg. No cache access.
    pub(crate) fn exchange_write(
        &mut self,
        victims: &[(Key, EvictedEntry)],
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        mut faults: Option<&mut FaultContext<'_>>,
    ) -> SimDuration {
        if victims.is_empty() {
            return SimDuration::ZERO;
        }
        server.push_with_clock_many(victims, |(_, ev)| (&ev.pending_grad, ev.current_clock));
        let io = store_io(server);
        let wait = outage_wait(victims.iter().map(|(k, _)| k), server, &mut faults);
        let bytes = self.costs.push(victims.len(), self.dim);
        stats.record(CommCategory::EmbeddingPush, bytes);
        let mut t = net.ps_transfer(bytes);
        if let Some(f) = faults.as_mut() {
            t = f.charge_leg(t, |b| stats.record(CommCategory::EmbeddingPush, b), bytes);
        }
        if self.write_behind {
            self.deferred_push += wait + t + io;
            SimDuration::ZERO
        } else {
            wait + t + io
        }
    }

    /// Simulates this worker's process dying: the entire cache is lost,
    /// including dirty entries whose pending gradients never reached the
    /// server. Returns `(entries_lost, dirty_lost, pending_update_ticks)`
    /// where the last is the sum over dirty entries of local clock
    /// advances that are now gone (the recovery ledger's lost-update
    /// measure). Statistics counters survive — they belong to the
    /// experiment, not the process.
    pub fn crash_reset(&mut self) -> (u64, u64, u64) {
        let mut dirty_lost = 0u64;
        let mut pending_ticks = 0u64;
        for k in self.cache.keys() {
            if let Some(e) = self.cache.peek(k) {
                if e.dirty {
                    dirty_lost += 1;
                    pending_ticks += e.current_clock.saturating_sub(e.start_clock);
                }
            }
        }
        let lost = self.cache.crash_clear();
        (lost.len() as u64, dirty_lost, pending_ticks)
    }

    /// Flushes every dirty entry to the server (end of training, or the
    /// paper's corner-case discussion after Lemma 1). Returns the
    /// simulated communication time.
    pub fn flush(
        &mut self,
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
    ) -> SimDuration {
        let mut drained = self.cache.drain_all();
        drained.retain(|(_, ev)| ev.dirty);
        server.push_with_clock_many(&drained, |(_, ev)| (&ev.pending_grad, ev.current_clock));
        if !drained.is_empty() {
            let bytes = self.costs.push(drained.len(), self.dim);
            stats.record(CommCategory::EmbeddingPush, bytes);
            net.ps_transfer(bytes) + store_io(server)
        } else {
            SimDuration::ZERO
        }
    }
}

/// The cache-less sparse path used by the PS baselines: pull everything,
/// push everything, every iteration.
pub struct DirectPsClient {
    dim: usize,
    costs: MessageCosts,
}

impl DirectPsClient {
    /// Creates the pass-through client with fused messages.
    pub fn new(dim: usize) -> Self {
        Self::with_costs(dim, MessageCosts { fused: true })
    }

    /// As [`DirectPsClient::new`] with explicit message-cost semantics.
    pub fn with_costs(dim: usize, costs: MessageCosts) -> Self {
        DirectPsClient { dim, costs }
    }

    /// Pulls the batch's embeddings from the server.
    ///
    /// Under fault injection (`faults` present), with no cache to fall
    /// back on there is no graceful degradation: every key on a
    /// mid-failover shard blocks the pull until recovery — the contrast
    /// the fault sweep measures against the cached client.
    pub fn read(
        &self,
        keys: &[Key],
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        faults: Option<&mut FaultContext<'_>>,
    ) -> (EmbeddingStore, SimDuration) {
        let mut step = ReadStep::default();
        self.exchange_read(&mut step, keys, server, net, stats, faults);
        step.into_store(keys, self.dim)
    }

    /// The whole of a cache-less read but building the resolved batch
    /// ([`ReadStep::into_store`]): it is all server exchange.
    pub(crate) fn exchange_read(
        &self,
        step: &mut ReadStep,
        keys: &[Key],
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        mut faults: Option<&mut FaultContext<'_>>,
    ) {
        let wait = outage_wait(keys.iter(), server, &mut faults);
        let req = self.costs.fetch_request(keys.len());
        let resp = self.costs.fetch_response(keys.len(), self.dim);
        stats.record(CommCategory::EmbeddingFetch, req + resp);
        let mut time = net.ps_transfer(req) + net.ps_transfer(resp);
        if let Some(f) = faults.as_mut() {
            time = f.charge_leg(
                time,
                |b| stats.record(CommCategory::EmbeddingFetch, b),
                req + resp,
            );
        }
        server.pull_into(keys, &mut step.rows, &mut step.clocks);
        step.time += wait + time + store_io(server);
    }

    /// Pushes the batch's gradients to the server.
    ///
    /// Under fault injection (`faults` present): pushes to a
    /// mid-failover shard block until recovery, and the push leg is
    /// subject to degradation and drops.
    pub fn write(
        &self,
        grads: &SparseGrads,
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        faults: Option<&mut FaultContext<'_>>,
    ) -> SimDuration {
        self.exchange_write(grads, &grads.sorted_keys(), server, net, stats, faults)
    }

    /// A cache-less write given the push order `keys`
    /// (`grads.sorted_keys()`, the one local step of it).
    pub(crate) fn exchange_write(
        &self,
        grads: &SparseGrads,
        keys: &[Key],
        server: &PsServer,
        net: &Collectives,
        stats: &mut CommStats,
        mut faults: Option<&mut FaultContext<'_>>,
    ) -> SimDuration {
        if grads.is_empty() {
            return SimDuration::ZERO;
        }
        let wait = outage_wait(keys.iter(), server, &mut faults);
        server.push_inc_many(keys, |&k| grads.get(k).expect("key from sorted_keys"));
        let bytes = self.costs.push(grads.len(), self.dim);
        stats.record(CommCategory::EmbeddingPush, bytes);
        let io = store_io(server);
        let mut t = net.ps_transfer(bytes);
        if let Some(f) = faults.as_mut() {
            t = f.charge_leg(t, |b| stats.record(CommCategory::EmbeddingPush, b), bytes);
        }
        wait + t + io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_ps::{PsConfig, ServerOptimizer};
    use het_simnet::ClusterSpec;

    fn setup(capacity: usize, staleness: u64) -> (HetClient, PsServer, Collectives) {
        let client = HetClient::new(capacity, staleness, PolicyKind::Lru, 2, 0.5);
        let server = PsServer::new(PsConfig {
            dim: 2,
            n_shards: 2,
            lr: 0.5,
            seed: 7,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        });
        let net = ClusterSpec::cluster_a(4, 1).collectives();
        (client, server, net)
    }

    fn grads_for(keys: &[Key], value: f32) -> SparseGrads {
        let mut g = SparseGrads::new(2);
        for &k in keys {
            g.accumulate(k, &[value, value]);
        }
        g
    }

    #[test]
    fn first_read_fetches_everything() {
        let (mut client, server, net) = setup(10, 5);
        let mut stats = CommStats::new();
        let (store, time) = client.read(&[1, 2, 3], &server, &net, &mut stats, None);
        assert_eq!(store.len(), 3);
        assert!(time > SimDuration::ZERO);
        assert_eq!(client.cache().stats().misses, 3);
        assert_eq!(client.cache().stats().hits, 0);
        assert!(stats.bytes(CommCategory::EmbeddingFetch) > 0);
        assert_eq!(
            stats.bytes(CommCategory::ClockSync),
            0,
            "no resident keys to check"
        );
    }

    #[test]
    fn second_read_hits_with_only_clock_traffic() {
        let (mut client, server, net) = setup(10, 5);
        let mut stats = CommStats::new();
        let _ = client.read(&[1, 2], &server, &net, &mut stats, None);
        let fetch_bytes_before = stats.bytes(CommCategory::EmbeddingFetch);
        let (_, time2) = client.read(&[1, 2], &server, &net, &mut stats, None);
        assert_eq!(client.cache().stats().hits, 2);
        assert_eq!(
            stats.bytes(CommCategory::EmbeddingFetch),
            fetch_bytes_before,
            "no new vector fetches on a warm validated cache"
        );
        assert!(
            stats.bytes(CommCategory::ClockSync) > 0,
            "validation is clock-only"
        );
        assert!(time2 > SimDuration::ZERO);
    }

    #[test]
    fn writes_are_stale_until_eviction() {
        let (mut client, server, net) = setup(10, 5);
        let mut stats = CommStats::new();
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        let server_before = server.pull(1).vector;
        let t = client.write(&grads_for(&[1], 1.0), &server, &net, &mut stats, None);
        assert_eq!(t, SimDuration::ZERO, "stale write costs nothing");
        assert_eq!(
            server.pull(1).vector,
            server_before,
            "server unchanged until eviction"
        );
        assert_eq!(stats.bytes(CommCategory::EmbeddingPush), 0);
        // Local view did change (read-my-updates).
        let entry = client.cache().peek(1).unwrap();
        assert!((entry.vector[0] - (server_before[0] - 0.5)).abs() < 1e-6);
        assert_eq!(entry.current_clock, 1);
    }

    #[test]
    fn flush_applies_accumulated_updates_exactly_once() {
        let (mut client, server, net) = setup(10, 100);
        let mut stats = CommStats::new();
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        let before = server.pull(1).vector;
        client.write(&grads_for(&[1], 1.0), &server, &net, &mut stats, None);
        client.write(&grads_for(&[1], 2.0), &server, &net, &mut stats, None);
        let t = client.flush(&server, &net, &mut stats);
        assert!(t > SimDuration::ZERO);
        let after = server.pull(1);
        // Accumulated grad = 3.0, lr = 0.5.
        assert!((after.vector[0] - (before[0] - 1.5)).abs() < 1e-6);
        assert_eq!(after.clock, 2, "two local updates -> c_g = 2");
        assert_eq!(stats.messages(CommCategory::EmbeddingPush), 1);
    }

    #[test]
    fn capacity_overflow_writes_back_dirty_victims() {
        let (mut client, server, net) = setup(2, 100);
        let mut stats = CommStats::new();
        let _ = client.read(&[1, 2], &server, &net, &mut stats, None);
        client.write(&grads_for(&[1, 2], 1.0), &server, &net, &mut stats, None);
        let before1 = server.pull(1).vector;
        // Reading key 3 exceeds capacity after the write's overflow pass:
        // read installs it, the *next write* evicts the LRU victim.
        let (_, _) = client.read(&[3], &server, &net, &mut stats, None);
        let t = client.write(&grads_for(&[3], 1.0), &server, &net, &mut stats, None);
        assert!(t > SimDuration::ZERO, "eviction write-back costs time");
        assert_eq!(client.cache().len(), 2);
        // Key 1 (least recently used) was evicted; its update landed.
        assert!(!client.cache().find(1));
        let after1 = server.pull(1).vector;
        assert!((after1[0] - (before1[0] - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn stale_entry_resyncs_after_other_worker_updates() {
        let (mut client, server, net) = setup(10, 2);
        let mut stats = CommStats::new();
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        // Another worker pushes 5 updates: c_g = 5, our c_c = 0, s = 2 →
        // condition (2) violated.
        for _ in 0..5 {
            server.push_inc(1, &[1.0, 1.0]);
        }
        let (store, _) = client.read(&[1], &server, &net, &mut stats, None);
        assert_eq!(client.cache().stats().invalidations, 1);
        // The resynced entry matches the server.
        assert_eq!(store.get(1), server.pull(1).vector.as_slice());
        let entry = client.cache().peek(1).unwrap();
        assert_eq!(entry.start_clock, 5);
        assert_eq!(entry.current_clock, 5);
    }

    #[test]
    fn local_write_bound_forces_resync_without_clock_message() {
        let (mut client, server, net) = setup(10, 1);
        let mut stats = CommStats::new();
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        // Two local updates: c_c = c_s + 2 > c_s + 1 → condition (1)
        // violated locally.
        client.write(&grads_for(&[1], 1.0), &server, &net, &mut stats, None);
        client.write(&grads_for(&[1], 1.0), &server, &net, &mut stats, None);
        let clock_bytes_before = stats.bytes(CommCategory::ClockSync);
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        assert_eq!(
            stats.bytes(CommCategory::ClockSync),
            clock_bytes_before,
            "condition (1) is local: no clock message for the invalid key"
        );
        assert_eq!(client.cache().stats().invalidations, 1);
        assert!(
            stats.bytes(CommCategory::EmbeddingPush) > 0,
            "dirty eviction pushed"
        );
        // Server received both updates: c_g = 2.
        assert_eq!(server.clock_of(1), 2);
    }

    #[test]
    fn staleness_zero_behaves_like_write_through_reads() {
        let (mut client, server, net) = setup(10, 0);
        let mut stats = CommStats::new();
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        // s = 0 and no updates anywhere: entry still valid (c_g = c_c).
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        assert_eq!(client.cache().stats().hits, 1);
        // One local update at s=0 violates condition (1) immediately.
        client.write(&grads_for(&[1], 1.0), &server, &net, &mut stats, None);
        let _ = client.read(&[1], &server, &net, &mut stats, None);
        assert_eq!(client.cache().stats().invalidations, 1);
        assert_eq!(server.clock_of(1), 1, "update reached the server at once");
    }

    #[test]
    fn oversized_batch_overflows_temporarily_then_trims() {
        let (mut client, server, net) = setup(2, 5);
        let mut stats = CommStats::new();
        let (store, _) = client.read(&[1, 2, 3], &server, &net, &mut stats, None);
        assert_eq!(
            store.len(),
            3,
            "read resolves everything even past capacity"
        );
        assert_eq!(client.cache().len(), 3, "temporary overflow allowed");
        client.write(&grads_for(&[1, 2, 3], 1.0), &server, &net, &mut stats, None);
        assert_eq!(client.cache().len(), 2, "write's Evict() trims to capacity");
    }

    /// A read's resolved batch in key order, and its time.
    type Resolved = (Vec<(Key, Vec<f32>)>, SimDuration);

    /// Everything two clients' steps on one server can be observed by.
    #[derive(Debug, PartialEq)]
    struct Observed {
        reads: Vec<Resolved>,
        writes: Vec<SimDuration>,
        caches: Vec<(Vec<(Key, het_cache::CacheEntry)>, het_cache::CacheStats)>,
        comm: Vec<CommStats>,
        store: het_ps::StoreStats,
        rows: Vec<het_ps::CheckpointRow>,
    }

    /// Two clients (staleness 1, overlapping hot keys, a cache smaller
    /// than the key space) run 24 rounds of read → write against one
    /// server: `A.read; B.read; A.write; B.write` when `staged` is off,
    /// and with the stages interleaved the way the threaded BSP
    /// scheduler may run them — exchanges in client order, local stages
    /// in any order — when it is on.
    fn two_clients(policy: PolicyKind, spec: &het_ps::StoreSpec, staged: bool) -> Observed {
        let ps = PsConfig {
            dim: 2,
            n_shards: 2,
            lr: 0.5,
            seed: 7,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        };
        let server = PsServer::with_store(ps, 0, spec);
        let net = ClusterSpec::cluster_a(4, 1).collectives();
        let mut a = HetClient::new(8, 1, policy, 2, 0.5);
        let mut b = HetClient::new(8, 1, policy, 2, 0.5);
        let (mut comm_a, mut comm_b) = (CommStats::new(), CommStats::new());
        // Three hot keys both clients touch every round, three of nine
        // colder ones in rotation.
        let batch = |round: u64, who: u64| -> Vec<Key> {
            let mut keys: Vec<Key> = (0..3)
                .chain((0..3).map(|j| 3 + (round + who * 2 + j * 3) % 9))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        let grads = |round: u64, keys: &[Key]| {
            let mut g = SparseGrads::new(2);
            for &k in keys {
                let x = ((round + k) % 5) as f32 * 0.25 - 0.5;
                g.accumulate(k, &[x, -x]);
            }
            g
        };
        let resolved = |keys: &[Key], (store, time): (EmbeddingStore, SimDuration)| -> Resolved {
            let rows = keys.iter().map(|&k| (k, store.get(k).to_vec())).collect();
            (rows, time)
        };
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for round in 0..24 {
            let (ka, kb) = (batch(round, 0), batch(round, 1));
            let (ra, rb) = if staged {
                let mut sa = a.plan_read(&ka, &server, None);
                let mut sb = b.plan_read(&kb, &server, None);
                a.exchange_read(&mut sa, &server, &net, &mut comm_a, None);
                b.exchange_read(&mut sb, &server, &net, &mut comm_b, None);
                let rb = b.apply_read(sb, &kb);
                (a.apply_read(sa, &ka), rb)
            } else {
                let ra = a.read(&ka, &server, &net, &mut comm_a, None);
                (ra, b.read(&kb, &server, &net, &mut comm_b, None))
            };
            reads.extend([resolved(&ka, ra), resolved(&kb, rb)]);
            let (ga, gb) = (grads(round, &ka), grads(round, &kb));
            if staged {
                let vb = b.plan_write(&gb);
                let va = a.plan_write(&ga);
                writes.push(a.exchange_write(&va, &server, &net, &mut comm_a, None));
                writes.push(b.exchange_write(&vb, &server, &net, &mut comm_b, None));
            } else {
                writes.push(a.write(&ga, &server, &net, &mut comm_a, None));
                writes.push(b.write(&gb, &server, &net, &mut comm_b, None));
            }
        }
        let caches = [&a, &b]
            .map(|c| {
                let mut entries: Vec<_> = c
                    .cache()
                    .keys()
                    .map(|k| (k, c.cache().peek(k).expect("resident").clone()))
                    .collect();
                entries.sort_by_key(|(k, _)| *k);
                (entries, *c.cache().stats())
            })
            .to_vec();
        Observed {
            reads,
            writes,
            caches,
            comm: vec![comm_a, comm_b],
            store: server.store_stats(),
            rows: server.export_rows(),
        }
    }

    /// The property the threaded BSP scheduler relies on: a client's
    /// local stages commute with everything another client does, so
    /// ordering the exchanges alone reproduces the sequential run.
    #[test]
    fn local_stages_commute_across_clients() {
        // 8 hot rows over 2 shards: nearly every server call demotes or
        // promotes, so per-shard call order shows in rows and I/O time.
        let tiered = het_ps::StoreSpec::Tiered(het_ps::TieredConfig::new(8));
        let cells = PolicyKind::ALL
            .map(|policy| (policy, het_ps::StoreSpec::Mem))
            .into_iter()
            .chain([(PolicyKind::Lru, tiered)]);
        for (policy, spec) in cells {
            let sequential = two_clients(policy, &spec, false);
            for (_, stats) in &sequential.caches {
                assert!(
                    stats.invalidations > 0 && stats.writebacks > 0 && stats.hits > 0,
                    "{policy}: the scenario must resync, write back and hit: {stats:?}"
                );
            }
            if spec.is_tiered() {
                assert!(sequential.store.promotions > 0 && sequential.store.demotions > 0);
            }
            assert_eq!(
                two_clients(policy, &spec, true),
                sequential,
                "{policy} on {spec:?}"
            );
        }
    }

    #[test]
    fn direct_client_round_trips_and_costs() {
        let client = DirectPsClient::new(2);
        let server = PsServer::new(PsConfig {
            dim: 2,
            n_shards: 2,
            lr: 0.5,
            seed: 7,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        });
        let net = ClusterSpec::cluster_a(4, 1).collectives();
        let mut stats = CommStats::new();
        let (store, t_read) = client.read(&[1, 2], &server, &net, &mut stats, None);
        assert_eq!(store.len(), 2);
        assert!(t_read > SimDuration::ZERO);
        let t_write = client.write(&grads_for(&[1, 2], 1.0), &server, &net, &mut stats, None);
        assert!(t_write > SimDuration::ZERO);
        assert_eq!(server.clock_of(1), 1);
        assert!(stats.bytes(CommCategory::EmbeddingFetch) > 0);
        assert!(stats.bytes(CommCategory::EmbeddingPush) > 0);
        assert_eq!(
            client.write(&SparseGrads::new(2), &server, &net, &mut stats, None),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cached_reads_cost_less_than_direct_reads_on_hot_keys() {
        // The crux of the paper: hot-key traffic shrinks to clock-only
        // messages, which are far smaller than embedding vectors at
        // realistic dimensions (§3.1).
        let dim = 64;
        let mut cached = HetClient::new(10, 100, PolicyKind::Lru, dim, 0.5);
        let direct = DirectPsClient::new(dim);
        let server_a = PsServer::new(PsConfig {
            dim,
            n_shards: 2,
            lr: 0.5,
            seed: 7,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        });
        let server_b = PsServer::new(PsConfig {
            dim,
            n_shards: 2,
            lr: 0.5,
            seed: 7,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        });
        let net = ClusterSpec::cluster_a(4, 1).collectives();

        let mut stats_cached = CommStats::new();
        let mut stats_direct = CommStats::new();
        for _ in 0..20 {
            let _ = cached.read(&[1, 2, 3], &server_a, &net, &mut stats_cached, None);
            let _ = direct.read(&[1, 2, 3], &server_b, &net, &mut stats_direct, None);
        }
        assert!(
            stats_cached.embedding_bytes() < stats_direct.embedding_bytes() / 2,
            "cached {} vs direct {}",
            stats_cached.embedding_bytes(),
            stats_direct.embedding_bytes()
        );
    }
}
