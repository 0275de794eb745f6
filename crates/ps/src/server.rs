//! The sharded embedding parameter server.

use crate::optimizer::ServerOptimizer;
use crate::sync::RwLock;
use crate::Key;
use het_store::{RowStore, StoreSpec, StoreStats, StoredRow};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Configuration of the embedding server.
#[derive(Clone, Copy, Debug)]
pub struct PsConfig {
    /// Embedding dimension D.
    pub dim: usize,
    /// Number of shards (lock granularity; also models the paper's
    /// multiple server machines).
    pub n_shards: usize,
    /// Server-side SGD learning rate applied to pushed gradients.
    pub lr: f32,
    /// Seed for deterministic lazy initialisation.
    pub seed: u64,
    /// How pushed gradients are applied (the paper uses SGD; Adagrad is
    /// provided for the cache-less paths).
    pub optimizer: ServerOptimizer,
    /// Optional L2 clip applied to each pushed gradient. HET's stale
    /// writes arrive as *accumulated* gradients (up to `s` batches in
    /// one push); for models with multiplicative interactions (DeepFM's
    /// FM term) an unclipped burst can destabilise training, so
    /// production embedding servers clip pushes. `None` disables.
    pub grad_clip: Option<f32>,
}

impl PsConfig {
    /// A server for `dim`-dimensional embeddings with sensible defaults.
    pub fn new(dim: usize) -> Self {
        PsConfig {
            dim,
            n_shards: 8,
            lr: 0.1,
            seed: 0x5EED,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        }
    }
}

/// The result of pulling one embedding: its current vector and global
/// clock.
#[derive(Clone, Debug, PartialEq)]
pub struct PullResult {
    /// The embedding vector (length = `dim`).
    pub vector: Vec<f32>,
    /// The global Lamport clock `c_g` — total updates applied so far.
    pub clock: u64,
}

/// An item of a batched server operation: anything that names the key
/// it routes by — a bare key, or a key paired with its payload.
pub trait Keyed {
    /// The key the item routes by.
    fn key(&self) -> Key;
}

impl Keyed for Key {
    fn key(&self) -> Key {
        *self
    }
}

impl<T> Keyed for (Key, T) {
    fn key(&self) -> Key {
        self.0
    }
}

struct Shard {
    store: Box<dyn RowStore>,
}

/// One shard's part of a batched operation.
struct Run<'a> {
    shard: usize,
    /// The split out of `shard` still in flight, if any. Its child-side
    /// keys are grouped under `shard` and settled under `shard`'s lock
    /// ([`PsServer::moved`]).
    split: Option<SplitState>,
    /// Positions of the shard's items in the batch, in batch order.
    positions: &'a [u32],
    /// Whether to block on a busy shard lock. When false, an operation
    /// finding the lock taken returns without touching the shard, and
    /// the batch comes back to it after serving its free shards.
    wait: bool,
}

impl Run<'_> {
    fn read<'s>(&self, shards: &'s [RwLock<Shard>]) -> Option<RwLockReadGuard<'s, Shard>> {
        let lock = &shards[self.shard];
        if self.wait {
            Some(lock.read())
        } else {
            lock.try_read()
        }
    }

    fn write<'s>(&self, shards: &'s [RwLock<Shard>]) -> Option<RwLockWriteGuard<'s, Shard>> {
        let lock = &shards[self.shard];
        if self.wait {
            Some(lock.write())
        } else {
            lock.try_write()
        }
    }

    /// A traced run counts the run's operations against the shards that
    /// served them: `on_child` of them on the split child, the rest on
    /// the run's shard. One add per shard per batch.
    fn count(&self, counter: &'static str, on_child: usize) {
        if !het_trace::enabled() {
            return;
        }
        let on_shard = self.positions.len() - on_child;
        if on_shard > 0 {
            het_trace::counter_add_at("ps", counter, Some(self.shard as u64), on_shard as u64);
        }
        if let Some(split) = self.split.filter(|_| on_child > 0) {
            het_trace::counter_add_at("ps", counter, Some(split.child as u64), on_child as u64);
        }
    }
}

/// One thread's reusable buffers for grouping batches by shard: once
/// they have grown to a batch's size, grouping allocates nothing.
#[derive(Default)]
struct Grouping {
    /// Each item's home shard.
    home: Vec<u32>,
    /// Item positions grouped by shard, batch order within a shard.
    order: Vec<u32>,
    /// Shard `s`'s positions are `order[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Positions a shared-lock pass left to the exclusive pass.
    deferred: Vec<u32>,
    /// Shards whose lock was busy on the first pass.
    busy: Vec<u32>,
}

thread_local! {
    // Taken out for the length of one batch and put back after it, so a
    // nested batch on the same thread would start from fresh buffers
    // instead of failing.
    static GROUPING: Cell<Grouping> = Cell::new(Grouping::default());
}

/// One live or completed shard split. While `complete` is false the
/// split is *migrating*: routing dual-reads (a child-side key lives on
/// the child iff it has already been moved there), so lookups stay
/// correct at every point of the migration. Once `complete`, child-side
/// keys route to the child unconditionally.
#[derive(Clone, Copy, Debug)]
struct SplitState {
    parent: usize,
    child: usize,
    salt: u64,
    complete: bool,
}

/// True when `key` moves to the child half of a split with this salt.
/// Deterministic in `(key, salt)` so routing never depends on table
/// state once a split completes.
fn child_side(key: Key, salt: u64) -> bool {
    splitmix64(key ^ salt) & 1 == 1
}

/// The split out of `parent` still in flight, if any (at most one).
fn in_flight(splits: &[SplitState], parent: usize) -> Option<SplitState> {
    splits
        .iter()
        .find(|s| s.parent == parent && !s.complete)
        .copied()
}

/// The global embedding table: sharded, versioned, thread-safe.
///
/// Physical shards = `config.n_shards` base shards plus any *spare*
/// shards reserved at construction ([`PsServer::with_spare_shards`]).
/// Base routing only ever targets base shards; spares receive keys
/// solely through live splits ([`PsServer::begin_split`]), so a server
/// with unused spares is byte-identical in behaviour to one without.
///
/// Each shard's rows live behind the [`RowStore`] trait: the flat
/// in-memory map by default ([`StoreSpec::Mem`], byte-identical to the
/// historical behaviour), or the tiered hot/cold store
/// ([`StoreSpec::Tiered`]) for paper-scale key spaces. Modelled disk
/// time accrued by client-path operations is drained with
/// [`PsServer::take_io_ns`] so the simulation can charge it into the
/// same clocks that carry network time; background maintenance I/O
/// (checkpoints, failover, migration) accrues separately.
///
/// # Batches and locks
///
/// Every client operation is a batch: [`PsServer::pull_into`],
/// [`PsServer::clocks_of`], [`PsServer::push_inc_many`] and
/// [`PsServer::push_with_clock_many`] group the batch's keys by shard
/// (a stable counting sort, so each shard sees its keys in batch order)
/// and take each shard's lock once — the shards free at that moment
/// first, then, waiting, the ones another thread held. The single-key
/// calls are batches of one. Pulls serve resident rows under the shard's *shared* lock
/// through [`RowStore::get_shared`]; keys it cannot serve (not yet
/// materialised, or a tiered store, which must record the access) take
/// one exclusive pass of that shard. Pushes take the exclusive lock,
/// clock queries the shared one.
///
/// Lock order: the split log, then shard locks; a split's parent before
/// its child. The split log stays read-locked for a whole batch, so no
/// split begins or seals partway through one, and no code takes the
/// split log while it holds a shard lock. A key on the child side of a
/// split still in flight is grouped under the parent and looked up
/// under the parent's lock — the lock the migration moves rows under —
/// so a row cannot move between finding it and using it.
pub struct PsServer {
    config: PsConfig,
    /// Shards addressed by base routing (`== config.n_shards`).
    base_shards: usize,
    shards: Vec<RwLock<Shard>>,
    /// Applied in order by [`PsServer::shard_index_of`]; splits are
    /// append-only so routing decisions replay deterministically.
    splits: RwLock<Vec<SplitState>>,
    /// Disk nanoseconds accrued by client-path operations (pull, push,
    /// clock queries) since the last [`PsServer::take_io_ns`].
    pending_io_ns: AtomicU64,
    /// Cumulative disk nanoseconds from maintenance paths (export,
    /// restore, migration, snapshots) — never charged to request legs.
    background_io_ns: AtomicU64,
}

/// Scales `grad` down to L2 norm `clip` if it exceeds it, returning the
/// (possibly borrowed) gradient to apply.
fn clipped<'a>(grad: &'a [f32], clip: Option<f32>, scratch: &'a mut Vec<f32>) -> &'a [f32] {
    let Some(clip) = clip else { return grad };
    let norm = grad
        .iter()
        .map(|g| (*g as f64) * (*g as f64))
        .sum::<f64>()
        .sqrt() as f32;
    if norm <= clip || norm == 0.0 {
        return grad;
    }
    let scale = clip / norm;
    scratch.clear();
    scratch.extend(grad.iter().map(|g| g * scale));
    scratch
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl PsServer {
    /// Creates an empty server.
    ///
    /// # Panics
    /// Panics on a zero dimension or zero shard count.
    pub fn new(config: PsConfig) -> Self {
        Self::with_spare_shards(config, 0)
    }

    /// Creates an empty server with `spare_shards` extra physical shards
    /// reserved as split targets for live resharding. Spares take no
    /// traffic until [`PsServer::begin_split`] assigns them a parent.
    ///
    /// # Panics
    /// Panics on a zero dimension or zero shard count.
    pub fn with_spare_shards(config: PsConfig, spare_shards: usize) -> Self {
        Self::with_store(config, spare_shards, &StoreSpec::Mem)
    }

    /// Creates an empty server whose shards use the row store described
    /// by `spec`. A tiered spec's `hot_rows` budget is divided over the
    /// *base* shards; spare shards get the same per-shard slice (they
    /// inherit a parent's working set when a split activates them).
    ///
    /// # Panics
    /// Panics on a zero dimension or zero shard count, or if a tiered
    /// spec's spill directory cannot be created.
    pub fn with_store(config: PsConfig, spare_shards: usize, spec: &StoreSpec) -> Self {
        assert!(config.dim > 0, "embedding dimension must be positive");
        assert!(config.n_shards > 0, "need at least one shard");
        let shards = (0..config.n_shards + spare_shards)
            .map(|i| {
                RwLock::new(Shard {
                    store: spec.build_shard(config.dim, i, config.n_shards),
                })
            })
            .collect();
        PsServer {
            config,
            base_shards: config.n_shards,
            shards,
            splits: RwLock::new(Vec::new()),
            pending_io_ns: AtomicU64::new(0),
            background_io_ns: AtomicU64::new(0),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &PsConfig {
        &self.config
    }

    /// Embedding dimension D.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Moves a shard store's freshly accrued disk time into the
    /// client-visible pending pool.
    fn charge_io(&self, shard: &mut Shard) {
        let ns = shard.store.take_io_ns();
        if ns > 0 {
            self.pending_io_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Same, but for maintenance paths whose disk time must not leak
    /// into a client request's simulated latency.
    fn charge_background_io(&self, shard: &mut Shard) {
        let ns = shard.store.take_io_ns();
        if ns > 0 {
            self.background_io_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Drains the modelled disk nanoseconds accrued by client-path
    /// operations (pull/push/remove) since the last call. The simulation
    /// client charges this into the same protocol leg that carried the
    /// request, so disk time flows into simulated clocks exactly like
    /// network time. Always 0 with the flat in-memory store.
    pub fn take_io_ns(&self) -> u64 {
        self.pending_io_ns.swap(0, Ordering::Relaxed)
    }

    /// Moves whatever is in the client-visible pending pool to the
    /// background pool. Callers that pull/push outside a priced protocol
    /// leg (replication reads, allgather barrier updates, evaluation
    /// views) use this so the disk time is still accounted for but never
    /// double-charged into a later request's latency.
    pub fn reclassify_pending_io(&self) {
        let ns = self.pending_io_ns.swap(0, Ordering::Relaxed);
        if ns > 0 {
            self.background_io_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Cumulative modelled disk nanoseconds from maintenance paths:
    /// checkpoint export, restore, shard migration, snapshots. Kept out
    /// of [`PsServer::take_io_ns`] so background work never inflates a
    /// client request's latency.
    pub fn background_io_ns(&self) -> u64 {
        self.background_io_ns.load(Ordering::Relaxed)
    }

    /// Aggregated row-store statistics across all shards (all zeros with
    /// the flat in-memory store).
    pub fn store_stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            total.accumulate(&shard.read().store.stats());
        }
        total
    }

    /// Rows currently resident in memory across all shards — equal to
    /// [`PsServer::len`] for the flat store, the hot-tier occupancy for
    /// the tiered store.
    pub fn resident_rows(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().store.resident_rows())
            .sum()
    }

    /// The shard a key lives on — public so the failover path and the
    /// client's outage handling can reason about shard placement.
    ///
    /// The key's `home` shard, unless a split out of that
    /// shard is migrating and has already moved the key to its child
    /// (dual read). With no splits this is the historical
    /// `splitmix64(key) % n_shards`.
    pub fn shard_index_of(&self, key: Key) -> usize {
        let splits = self.splits.read();
        let home = self.home(&splits, key);
        let moved = |s: &SplitState| {
            child_side(key, s.salt) && self.shards[s.child].read().store.contains(key)
        };
        in_flight(&splits, home)
            .filter(moved)
            .map_or(home, |s| s.child)
    }

    /// The shard `key` routes to by the base hash and the *completed*
    /// splits, walked in log order. A child-side key of a split still in
    /// flight stays on the parent here; where it lives is settled under
    /// the parent's lock ([`PsServer::moved`]).
    fn home(&self, splits: &[SplitState], key: Key) -> usize {
        let mut idx = (splitmix64(key) % self.base_shards as u64) as usize;
        for s in splits {
            if s.complete && s.parent == idx && child_side(key, s.salt) {
                idx = s.child;
            }
        }
        idx
    }

    /// Number of physical shards (base + spares). Checkpoint stores
    /// size their blob arrays from this so spares are covered too.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of base shards (targets of the hash route before any
    /// split applies).
    pub fn n_base_shards(&self) -> usize {
        self.base_shards
    }

    fn shard_of(&self, key: Key) -> &RwLock<Shard> {
        &self.shards[self.shard_index_of(key)]
    }

    /// Deterministic initial vector for a key: uniform in
    /// `[−1/√D, +1/√D]`, derived only from `(seed, key)`.
    fn initial_vector(&self, key: Key) -> Vec<f32> {
        let dim = self.config.dim;
        let bound = 1.0 / (dim as f64).sqrt();
        (0..dim)
            .map(|i| {
                let h = splitmix64(
                    self.config.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 1,
                );
                let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                ((u * 2.0 - 1.0) * bound) as f32
            })
            .collect()
    }

    /// A freshly initialised row for `key`.
    fn make_row(&self, key: Key) -> StoredRow {
        StoredRow {
            vector: self.initial_vector(key),
            clock: 0,
            opt_state: Vec::new(),
        }
    }

    /// Runs `op` once for every shard that holds any of `items`, with
    /// the shard's item positions in batch order and a cleared buffer
    /// for positions to defer; `op` returns false if it gave up on a
    /// busy lock ([`Run::wait`]). Shards free now are served first, in
    /// shard order, then the busy ones, waiting: two threads walking
    /// the shards do not queue behind each other shard after shard.
    /// Shards share no state, so the order across them is invisible.
    /// The split log stays read-locked throughout.
    fn grouped<T: Keyed>(&self, items: &[T], mut op: impl FnMut(&Run<'_>, &mut Vec<u32>) -> bool) {
        if items.is_empty() {
            return;
        }
        let splits = self.splits.read();
        if let [item] = items {
            let shard = self.home(&splits, item.key());
            let run = Run {
                shard,
                split: in_flight(&splits, shard),
                positions: &[0],
                wait: true,
            };
            op(&run, &mut Vec::new());
            return;
        }
        let n_shards = self.shards.len();
        let mut g = GROUPING.take();
        g.home.clear();
        g.home
            .extend(items.iter().map(|it| self.home(&splits, it.key()) as u32));
        // Counting sort: count per shard, turn the counts into run ends,
        // then fill back to front so each run keeps batch order and each
        // `starts[s]` ends on its run's start.
        g.starts.clear();
        g.starts.resize(n_shards + 1, 0);
        for &s in &g.home {
            g.starts[s as usize] += 1;
        }
        let mut end = 0;
        for c in &mut g.starts {
            end += *c;
            *c = end;
        }
        g.order.clear();
        g.order.resize(items.len(), 0);
        for (i, &s) in g.home.iter().enumerate().rev() {
            let c = &mut g.starts[s as usize];
            *c -= 1;
            g.order[*c as usize] = i as u32;
        }
        let Grouping {
            order,
            starts,
            deferred,
            busy,
            ..
        } = &mut g;
        let mut serve = |shard: usize, wait: bool, deferred: &mut Vec<u32>| {
            let positions = &order[starts[shard] as usize..starts[shard + 1] as usize];
            positions.is_empty() || {
                let run = Run {
                    shard,
                    split: in_flight(&splits, shard),
                    positions,
                    wait,
                };
                deferred.clear();
                op(&run, deferred)
            }
        };
        busy.clear();
        for shard in 0..n_shards {
            if !serve(shard, false, deferred) {
                busy.push(shard as u32);
            }
        }
        for &shard in busy.iter() {
            serve(shard as usize, true, deferred);
        }
        GROUPING.set(g);
    }

    /// For a key of `run`'s shard (whose lock the caller holds, as
    /// `parent`): the lock of the split child, if the in-flight split
    /// has already moved the key there. Parent before child is the lock
    /// order, and the migration moves rows under the parent's lock, so
    /// the answer holds while the caller holds it.
    fn moved(
        &self,
        run: &Run<'_>,
        parent: &Shard,
        key: Key,
    ) -> Option<RwLockWriteGuard<'_, Shard>> {
        let split = run.split.filter(|s| child_side(key, s.salt))?;
        if parent.store.contains(key) {
            return None;
        }
        let child = self.shards[split.child].write();
        child.store.contains(key).then_some(child)
    }

    /// Pulls `keys`, handing `sink` each key's position and row, lazily
    /// initialising rows on first touch. Resident rows are read under
    /// the shard's shared lock; the rest take one exclusive pass that
    /// looks again first (another thread may have created the row in
    /// between).
    fn pull_each(&self, keys: &[Key], mut sink: impl FnMut(usize, &StoredRow)) {
        self.grouped(keys, |run, deferred| {
            {
                let Some(shard) = run.read(&self.shards) else {
                    return false;
                };
                for &i in run.positions {
                    let key = keys[i as usize];
                    // Child-side keys of a migrating split need the
                    // exclusive pass's dual read.
                    let row = match run.split {
                        Some(s) if child_side(key, s.salt) => None,
                        _ => shard.store.get_shared(key),
                    };
                    match row {
                        Some(row) => sink(i as usize, row),
                        None => deferred.push(i),
                    }
                }
            }
            let mut on_child = 0;
            if !deferred.is_empty() {
                let mut shard = self.shards[run.shard].write();
                for &i in deferred.iter() {
                    let key = keys[i as usize];
                    if let Some(mut child) = self.moved(run, &shard, key) {
                        sink(i as usize, child.store.get(key).expect("moved() found it"));
                        self.charge_io(&mut child);
                        on_child += 1;
                        continue;
                    }
                    match shard.store.get(key) {
                        Some(row) => sink(i as usize, row),
                        None => {
                            let row = self.make_row(key);
                            sink(i as usize, &row);
                            shard.store.insert(key, row);
                        }
                    }
                }
                self.charge_io(&mut shard);
            }
            run.count("pulls", on_child);
            true
        });
    }

    /// Pulls one embedding, lazily initialising it on first touch.
    pub fn pull(&self, key: Key) -> PullResult {
        let mut out = None;
        self.pull_each(&[key], |_, row| {
            out = Some(PullResult {
                vector: row.vector.clone(),
                clock: row.clock,
            })
        });
        out.expect("a pull serves its key")
    }

    /// Pulls `keys` into caller-owned buffers: `dim` floats per key are
    /// appended to `rows` and one global clock per key to `clocks`, in
    /// key order, so a batch costs no allocation per key.
    pub fn pull_into(&self, keys: &[Key], rows: &mut Vec<f32>, clocks: &mut Vec<u64>) {
        let dim = self.config.dim;
        let (r0, c0) = (rows.len(), clocks.len());
        rows.resize(r0 + keys.len() * dim, 0.0);
        clocks.resize(c0 + keys.len(), 0);
        let (rows, clocks) = (&mut rows[r0..], &mut clocks[c0..]);
        self.pull_each(keys, |i, row| {
            rows[i * dim..(i + 1) * dim].copy_from_slice(&row.vector);
            clocks[i] = row.clock;
        });
    }

    /// Pulls a batch of embeddings.
    pub fn pull_many(&self, keys: &[Key]) -> Vec<PullResult> {
        let (mut rows, mut clocks) = (Vec::new(), Vec::new());
        self.pull_into(keys, &mut rows, &mut clocks);
        rows.chunks_exact(self.config.dim)
            .zip(clocks)
            .map(|(vector, clock)| PullResult {
                vector: vector.to_vec(),
                clock,
            })
            .collect()
    }

    /// Applies each item's gradient with the server's rule, lazily
    /// initialising untouched rows, under one exclusive lock per shard.
    /// `payload` gives the gradient and the clock update: `None` counts
    /// one update, `Some(c)` synchronises the clock to `max(c_g, c)`.
    fn push_each<'a, T: Keyed>(
        &self,
        items: &'a [T],
        payload: impl Fn(&'a T) -> (&'a [f32], Option<u64>),
    ) {
        let (dim, lr, opt, clip) = (
            self.config.dim,
            self.config.lr,
            self.config.optimizer,
            self.config.grad_clip,
        );
        let mut scratch = Vec::new();
        self.grouped(items, |run, _| {
            let Some(mut shard) = run.write(&self.shards) else {
                return false;
            };
            let mut on_child = 0;
            for &i in run.positions {
                let item = &items[i as usize];
                let key = item.key();
                let (grad, candidate) = payload(item);
                assert_eq!(grad.len(), dim, "gradient dimension mismatch");
                let grad = clipped(grad, clip, &mut scratch);
                let init = &mut || self.make_row(key);
                let update = &mut |e: &mut StoredRow| {
                    opt.apply(&mut e.vector, &mut e.opt_state, grad, lr);
                    e.clock = candidate.map_or(e.clock + 1, |c| e.clock.max(c));
                };
                match self.moved(run, &shard, key) {
                    Some(mut child) => {
                        child.store.apply(key, init, update);
                        self.charge_io(&mut child);
                        on_child += 1;
                    }
                    None => shard.store.apply(key, init, update),
                }
            }
            self.charge_io(&mut shard);
            run.count("pushes", on_child);
            true
        });
    }

    /// HET eviction write-back (paper §3.1, `Het.Cache.Evict`): applies
    /// the accumulated gradient with the server's SGD rule and
    /// synchronises the global clock to `max(c_g, candidate_clock)`.
    ///
    /// # Panics
    /// Panics if the gradient length differs from the configured dim.
    pub fn push_with_clock(&self, key: Key, grad: &[f32], candidate_clock: u64) {
        self.push_each(&[key], |_| (grad, Some(candidate_clock)));
    }

    /// Batched [`PsServer::push_with_clock`]: `update` gives each item's
    /// gradient and candidate clock. Items on one shard apply in batch
    /// order.
    ///
    /// # Panics
    /// Panics if a gradient's length differs from the configured dim.
    pub fn push_with_clock_many<'a, T: Keyed>(
        &self,
        items: &'a [T],
        update: impl Fn(&'a T) -> (&'a [f32], u64),
    ) {
        self.push_each(items, |it| {
            let (grad, clock) = update(it);
            (grad, Some(clock))
        });
    }

    /// Plain-PS push (the no-cache baselines): applies the gradient and
    /// increments the global clock by one update.
    ///
    /// # Panics
    /// Panics if the gradient length differs from the configured dim.
    pub fn push_inc(&self, key: Key, grad: &[f32]) {
        self.push_each(&[key], |_| (grad, None));
    }

    /// Batched [`PsServer::push_inc`]: `grad` gives each item's
    /// gradient. Items on one shard apply in batch order.
    ///
    /// # Panics
    /// Panics if a gradient's length differs from the configured dim.
    pub fn push_inc_many<'a, T: Keyed>(&self, items: &'a [T], grad: impl Fn(&'a T) -> &'a [f32]) {
        self.push_each(items, |it| (grad(it), None));
    }

    /// Hands `sink` each key's position and global clock (0 for
    /// never-touched keys), under one shared lock per shard.
    fn clocks_each(&self, keys: &[Key], mut sink: impl FnMut(usize, u64)) {
        self.grouped(keys, |run, _| {
            let Some(shard) = run.read(&self.shards) else {
                return false;
            };
            let mut on_child = 0;
            for &i in run.positions {
                let key = keys[i as usize];
                let clock = match self.moved(run, &shard, key) {
                    Some(child) => {
                        on_child += 1;
                        child.store.clock_of(key)
                    }
                    None => shard.store.clock_of(key),
                };
                sink(i as usize, clock.unwrap_or(0));
            }
            run.count("clock_queries", on_child);
            true
        });
    }

    /// The global clock of a key (0 for never-touched keys). This is the
    /// clock-only query behind `CheckValid` condition (2). Served from
    /// the hot tier or the in-memory cold index — never charges disk
    /// time, mirroring how the wire protocol ships clocks without
    /// payloads.
    pub fn clock_of(&self, key: Key) -> u64 {
        let mut out = 0;
        self.clocks_each(&[key], |_, c| out = c);
        out
    }

    /// Batched [`PsServer::clock_of`]: appends one clock per key to
    /// `clocks`, in key order.
    pub fn clocks_of(&self, keys: &[Key], clocks: &mut Vec<u64>) {
        let c0 = clocks.len();
        clocks.resize(c0 + keys.len(), 0);
        let clocks = &mut clocks[c0..];
        self.clocks_each(keys, |i, c| clocks[i] = c);
    }

    /// Number of materialised embeddings across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().store.len()).sum()
    }

    /// True when no embedding has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only snapshot of one vector without affecting clocks or tier
    /// residency — a test oracle helper.
    pub fn snapshot(&self, key: Key) -> Option<Vec<f32>> {
        let mut guard = self.shard_of(key).write();
        let out = guard.store.peek(key).map(|e| e.vector);
        self.charge_background_io(&mut guard);
        out
    }

    /// Exports every materialised row, key-sorted, for checkpointing.
    /// Reads cold rows in place (tiered stores), charging the disk time
    /// as background I/O.
    pub fn export_rows(&self) -> Vec<crate::checkpoint::CheckpointRow> {
        let mut rows = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let mut guard = shard.write();
            rows.extend(guard.store.export_rows().into_iter().map(|(key, row)| {
                crate::checkpoint::CheckpointRow {
                    key,
                    clock: row.clock,
                    vector: row.vector,
                }
            }));
            self.charge_background_io(&mut guard);
        }
        rows.sort_unstable_by_key(|r| r.key);
        rows
    }

    /// Installs a checkpointed row verbatim (used by restore; overwrites
    /// any existing entry, resetting optimiser state).
    pub fn restore_entry(&self, key: Key, vector: Vec<f32>, clock: u64) {
        assert_eq!(vector.len(), self.config.dim, "row dimension mismatch");
        let mut guard = self.shard_of(key).write();
        guard.store.insert(
            key,
            StoredRow {
                vector,
                clock,
                opt_state: Vec::new(),
            },
        );
        self.charge_background_io(&mut guard);
    }

    /// Exports the materialised rows of one shard, key-sorted (the unit
    /// of periodic checkpointing under failover).
    ///
    /// # Panics
    /// Panics on an out-of-range shard index.
    pub fn export_shard_rows(&self, shard: usize) -> Vec<crate::checkpoint::CheckpointRow> {
        let mut guard = self.shards[shard].write();
        let rows = guard
            .store
            .export_rows()
            .into_iter()
            .map(|(key, row)| crate::checkpoint::CheckpointRow {
                key,
                clock: row.clock,
                vector: row.vector,
            })
            .collect();
        self.charge_background_io(&mut guard);
        rows
    }

    /// Simulates the loss of one shard: drops every entry on it and
    /// returns the `(key, clock)` pairs that were live, so the failover
    /// path can account lost updates against the restored checkpoint.
    ///
    /// # Panics
    /// Panics on an out-of-range shard index.
    pub fn clear_shard(&self, shard: usize) -> Vec<(Key, u64)> {
        let mut guard = self.shards[shard].write();
        let lost = guard.store.clear();
        self.charge_background_io(&mut guard);
        lost
    }

    /// Starts a live split of `parent` into the spare shard `child`:
    /// keys whose `child_side(key, salt)` bit is set migrate to the
    /// child while traffic continues. Routing dual-reads for the whole
    /// migration, so every key is owned by exactly one shard at every
    /// instant. Drive the migration with [`PsServer::migrate_batch`]
    /// and finish with [`PsServer::complete_split`].
    ///
    /// # Panics
    /// Panics if `parent` is not routable, if `child` is not an unused
    /// spare shard, or if `parent` already has a migration in flight.
    pub fn begin_split(&self, parent: usize, child: usize, salt: u64) {
        assert!(parent < self.shards.len(), "split parent out of range");
        assert!(
            child >= self.base_shards && child < self.shards.len(),
            "split child must be a spare shard (index >= n_base_shards)"
        );
        // Checked under the split log's write lock, which no batch holds
        // at the same time, so nothing lands between check and begin.
        let mut splits = self.splits.write();
        assert!(
            self.shards[child].read().store.is_empty(),
            "split child shard must be empty"
        );
        for s in splits.iter() {
            assert!(
                s.child != child,
                "spare shard {child} is already a split target"
            );
            assert!(
                s.complete || s.parent != parent,
                "shard {parent} already has a migration in flight"
            );
        }
        splits.push(SplitState {
            parent,
            child,
            salt,
            complete: false,
        });
    }

    /// Child-side keys of `split` still on its parent.
    fn left_to_migrate(&self, split: SplitState) -> usize {
        self.shards[split.parent]
            .read()
            .store
            .sorted_keys()
            .iter()
            .filter(|&&k| child_side(k, split.salt))
            .count()
    }

    /// Moves up to `max_keys` child-side keys (in ascending key order,
    /// so migration is deterministic) from `parent` to its split child,
    /// wholesale — vector, clock, and optimiser state travel together
    /// and no push/pull counters fire, so gradient accounting is
    /// conserved across the move. Cold rows are read back from the
    /// parent's log as they move (background I/O). Returns how many keys
    /// moved.
    ///
    /// # Panics
    /// Panics if `parent` has no migration in flight.
    pub fn migrate_batch(&self, parent: usize, max_keys: usize) -> usize {
        let splits = self.splits.read();
        let split = in_flight(&splits, parent)
            .expect("migrate_batch: no migration in flight for this shard");
        let mut src = self.shards[split.parent].write();
        let mut moving: Vec<Key> = src.store.sorted_keys();
        moving.retain(|&k| child_side(k, split.salt));
        moving.truncate(max_keys);
        if moving.is_empty() {
            return 0;
        }
        let mut dst = self.shards[split.child].write();
        for key in &moving {
            let row = src.store.remove(*key).expect("key vanished mid-batch");
            dst.store.insert(*key, row);
        }
        self.charge_background_io(&mut src);
        self.charge_background_io(&mut dst);
        moving.len()
    }

    /// Child-side keys still waiting on `parent` (0 once the migration
    /// has drained; also 0 when no migration is in flight).
    pub fn remaining_to_migrate(&self, parent: usize) -> usize {
        let splits = self.splits.read();
        in_flight(&splits, parent).map_or(0, |split| self.left_to_migrate(split))
    }

    /// Seals a drained migration: from here on child-side keys route to
    /// the child unconditionally (lazy initialisation included).
    ///
    /// # Panics
    /// Panics if `parent` has no migration in flight or keys remain.
    pub fn complete_split(&self, parent: usize) {
        // Checked and sealed under one write lock of the split log, which
        // no batch holds at the same time: no row can land on the parent
        // between the check and the seal.
        let mut splits = self.splits.write();
        let s = splits
            .iter_mut()
            .find(|s| s.parent == parent && !s.complete)
            .expect("complete_split: no migration in flight for this shard");
        assert_eq!(
            self.left_to_migrate(*s),
            0,
            "complete_split: migration not drained"
        );
        s.complete = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_store::TieredConfig;
    use std::collections::HashMap;

    fn server(dim: usize) -> PsServer {
        PsServer::new(PsConfig {
            dim,
            n_shards: 4,
            lr: 0.5,
            seed: 99,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        })
    }

    #[test]
    fn lazy_init_is_deterministic_and_bounded() {
        let a = server(8);
        let b = server(8);
        let pa = a.pull(123);
        let pb = b.pull(123);
        assert_eq!(pa, pb, "same seed → same init regardless of instance");
        assert_eq!(pa.clock, 0);
        let bound = 1.0 / (8.0f32).sqrt() + 1e-6;
        assert!(pa.vector.iter().all(|v| v.abs() <= bound));
        // Different keys get different vectors.
        assert_ne!(a.pull(124).vector, pa.vector);
    }

    #[test]
    fn init_does_not_depend_on_touch_order() {
        let a = server(4);
        let b = server(4);
        let _ = a.pull(1);
        let _ = a.pull(2);
        let _ = b.pull(2);
        let _ = b.pull(1);
        assert_eq!(a.pull(1), b.pull(1));
        assert_eq!(a.pull(2), b.pull(2));
    }

    #[test]
    fn push_inc_applies_sgd_and_bumps_clock() {
        let s = server(2);
        let before = s.pull(7).vector;
        s.push_inc(7, &[1.0, -2.0]);
        let after = s.pull(7);
        assert!((after.vector[0] - (before[0] - 0.5)).abs() < 1e-6);
        assert!((after.vector[1] - (before[1] + 1.0)).abs() < 1e-6);
        assert_eq!(after.clock, 1);
        s.push_inc(7, &[0.0, 0.0]);
        assert_eq!(s.clock_of(7), 2);
    }

    #[test]
    fn push_with_clock_takes_max() {
        let s = server(2);
        s.push_with_clock(3, &[0.0, 0.0], 5);
        assert_eq!(s.clock_of(3), 5);
        s.push_with_clock(3, &[0.0, 0.0], 2);
        assert_eq!(
            s.clock_of(3),
            5,
            "older candidate clock must not regress c_g"
        );
        s.push_with_clock(3, &[0.0, 0.0], 9);
        assert_eq!(s.clock_of(3), 9);
    }

    #[test]
    fn push_on_untouched_key_initialises_first() {
        let s = server(2);
        s.push_inc(42, &[1.0, 1.0]);
        let p = s.pull(42);
        // vector = init - 0.5 * grad; recompute init via a fresh server.
        let init = server(2).pull(42).vector;
        assert!((p.vector[0] - (init[0] - 0.5)).abs() < 1e-6);
        assert_eq!(p.clock, 1);
    }

    #[test]
    fn clock_of_untouched_key_is_zero() {
        let s = server(2);
        assert_eq!(s.clock_of(1000), 0);
        assert!(s.is_empty());
        assert_eq!(s.snapshot(1000), None);
    }

    #[test]
    fn len_counts_across_shards() {
        let s = server(2);
        for k in 0..100 {
            let _ = s.pull(k);
        }
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
    }

    #[test]
    fn pull_many_and_clocks_of_align() {
        let s = server(2);
        s.push_inc(1, &[0.0, 0.0]);
        s.push_inc(1, &[0.0, 0.0]);
        s.push_inc(2, &[0.0, 0.0]);
        let keys = [1, 2, 3];
        let pulls = s.pull_many(&keys);
        let mut clocks = vec![9];
        s.clocks_of(&keys, &mut clocks);
        assert_eq!(clocks, vec![9, 2, 1, 0], "appended behind what was there");
        clocks.remove(0);
        for (p, c) in pulls.iter().zip(&clocks) {
            assert_eq!(p.clock, *c);
        }
        // The flat-buffer pull appends the same rows and clocks, in key
        // order, behind whatever the caller's buffers already hold.
        let (mut rows, mut flat_clocks) = (vec![9.0], vec![9]);
        s.pull_into(&keys, &mut rows, &mut flat_clocks);
        let vectors: Vec<f32> = pulls.iter().flat_map(|p| p.vector.clone()).collect();
        assert_eq!(rows[1..], vectors);
        assert_eq!(flat_clocks[1..], clocks);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_grad_dim_rejected() {
        let s = server(4);
        s.push_inc(1, &[0.0, 0.0]);
    }

    #[test]
    fn mem_store_never_accrues_io() {
        let s = server(2);
        for k in 0..50u64 {
            s.push_inc(k, &[1.0, -1.0]);
            let _ = s.pull(k);
        }
        let _ = s.export_rows();
        assert_eq!(s.take_io_ns(), 0);
        assert_eq!(s.background_io_ns(), 0);
        assert_eq!(s.store_stats(), StoreStats::default());
        assert_eq!(s.resident_rows(), s.len());
    }

    /// Asserts every materialised key lives on exactly one physical
    /// shard and that routing agrees with where the key actually is.
    fn assert_exactly_one_owner(s: &PsServer) {
        let mut seen: HashMap<Key, usize> = HashMap::new();
        for shard in 0..s.n_shards() {
            for row in s.export_shard_rows(shard) {
                if let Some(prev) = seen.insert(row.key, shard) {
                    panic!("key {} on both shard {prev} and {shard}", row.key);
                }
            }
        }
        for (&key, &shard) in &seen {
            assert_eq!(
                s.shard_index_of(key),
                shard,
                "routing disagrees with placement for key {key}"
            );
        }
    }

    #[test]
    fn spare_shards_change_nothing_until_split() {
        let plain = server(4);
        let spared = PsServer::with_spare_shards(*plain.config(), 2);
        assert_eq!(spared.n_shards(), 6);
        assert_eq!(spared.n_base_shards(), 4);
        for k in 0..200u64 {
            assert_eq!(plain.pull(k), spared.pull(k));
            assert_eq!(plain.shard_index_of(k), spared.shard_index_of(k));
            assert!(spared.shard_index_of(k) < 4, "spares must take no traffic");
        }
    }

    #[test]
    fn live_split_conserves_every_key_and_clock() {
        let cfg = PsConfig {
            dim: 2,
            n_shards: 4,
            lr: 0.5,
            seed: 99,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        };
        let s = PsServer::with_spare_shards(cfg, 1);
        let control = PsServer::new(cfg);
        for k in 0..300u64 {
            for _ in 0..(k % 3 + 1) {
                s.push_inc(k, &[1.0, -1.0]);
                control.push_inc(k, &[1.0, -1.0]);
            }
        }
        let parent = 2;
        let salt = 0x0D15_EA5E;
        s.begin_split(parent, 4, salt);
        let total = s.remaining_to_migrate(parent);
        assert!(total > 0, "expected some child-side keys");
        let mut moved = 0;
        while s.remaining_to_migrate(parent) > 0 {
            moved += s.migrate_batch(parent, 7);
            assert_exactly_one_owner(&s);
            // Mid-migration reads and writes stay correct.
            for k in 0..300u64 {
                assert_eq!(s.pull(k), control.pull(k), "key {k} diverged mid-split");
            }
        }
        assert_eq!(moved, total);
        s.complete_split(parent);
        assert_exactly_one_owner(&s);
        let mut on_child = 0;
        for k in 0..300u64 {
            assert_eq!(s.pull(k), control.pull(k), "key {k} diverged post-split");
            if s.shard_index_of(k) == 4 {
                on_child += 1;
            }
        }
        assert_eq!(on_child, total, "all child-side keys must route to child");
        assert_eq!(s.len(), control.len());
    }

    #[test]
    fn writes_during_migration_land_once_and_survive() {
        let cfg = PsConfig {
            dim: 1,
            n_shards: 2,
            lr: 0.5,
            seed: 7,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        };
        let s = PsServer::with_spare_shards(cfg, 1);
        // Materialise enough keys to have several on each side.
        for k in 0..64u64 {
            s.push_inc(k, &[1.0]);
        }
        s.begin_split(0, 2, 0xABCD);
        let before = s.remaining_to_migrate(0);
        s.migrate_batch(0, before / 2);
        // Writes keep working mid-migration, wherever the key lives.
        for k in 0..64u64 {
            s.push_inc(k, &[1.0]);
        }
        // A brand-new child-side key lazily initialises on the parent
        // and is picked up by a later batch.
        let fresh = (64..u64::MAX)
            .find(|&k| s.shard_index_of(k) == 0 && child_side(k, 0xABCD))
            .unwrap();
        s.push_inc(fresh, &[1.0]);
        assert_eq!(s.shard_index_of(fresh), 0, "unmigrated key stays on parent");
        while s.remaining_to_migrate(0) > 0 {
            s.migrate_batch(0, 5);
        }
        s.complete_split(0);
        assert_eq!(s.shard_index_of(fresh), 2);
        assert_eq!(s.clock_of(fresh), 1, "clock must survive the move");
        for k in 0..64u64 {
            assert_eq!(s.clock_of(k), 2, "key {k} lost an update in the split");
        }
        assert_exactly_one_owner(&s);
    }

    #[test]
    fn migration_is_deterministic_across_instances() {
        let cfg = PsConfig {
            dim: 2,
            n_shards: 3,
            lr: 0.1,
            seed: 1,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        };
        let make = || {
            let s = PsServer::with_spare_shards(cfg, 1);
            for k in 0..100u64 {
                s.push_inc(k, &[0.5, -0.5]);
            }
            s.begin_split(1, 3, 42);
            let mut steps = Vec::new();
            while s.remaining_to_migrate(1) > 0 {
                steps.push(s.migrate_batch(1, 4));
            }
            s.complete_split(1);
            (steps, s)
        };
        let (steps_a, a) = make();
        let (steps_b, b) = make();
        assert_eq!(steps_a, steps_b, "batch sizes must replay identically");
        for k in 0..100u64 {
            assert_eq!(a.shard_index_of(k), b.shard_index_of(k));
            assert_eq!(a.pull(k), b.pull(k));
        }
    }

    #[test]
    #[should_panic(expected = "spare shard")]
    fn split_into_base_shard_rejected() {
        let s = PsServer::with_spare_shards(*server(2).config(), 1);
        s.begin_split(0, 3, 1); // only shard 4 is the spare
    }

    #[test]
    #[should_panic(expected = "not drained")]
    fn completing_undrained_split_rejected() {
        let s = PsServer::with_spare_shards(*server(2).config(), 1);
        for k in 0..64u64 {
            let _ = s.pull(k);
        }
        s.begin_split(0, 4, 9);
        assert!(s.remaining_to_migrate(0) > 0);
        s.complete_split(0);
    }

    #[test]
    fn concurrent_pushes_all_apply() {
        use std::sync::Arc;
        let s = Arc::new(server(1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    s.push_inc(77, &[1.0]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.clock_of(77), 1000);
        let init = server(1).pull(77).vector[0];
        let v = s.pull(77).vector[0];
        assert!((v - (init - 0.5 * 1000.0)).abs() < 1e-2);
    }

    fn tiered_spec(hot_rows: usize) -> StoreSpec {
        let mut cfg = TieredConfig::new(hot_rows);
        // Small segments + a low floor so these tests exercise segment
        // rolls and compaction, not just the happy path.
        cfg.segment_bytes = 2 << 10;
        cfg.gc_min_bytes = 1 << 10;
        StoreSpec::Tiered(cfg)
    }

    #[test]
    fn tiered_server_matches_mem_server_row_for_row() {
        let cfg = PsConfig {
            dim: 2,
            n_shards: 4,
            lr: 0.5,
            seed: 99,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        };
        let tiered = PsServer::with_store(cfg, 0, &tiered_spec(8));
        let flat = PsServer::new(cfg);
        for round in 0..3 {
            for k in 0..120u64 {
                tiered.push_inc(k, &[1.0, -1.0]);
                flat.push_inc(k, &[1.0, -1.0]);
                if k % 3 == round {
                    assert_eq!(tiered.pull(k), flat.pull(k), "key {k} round {round}");
                }
            }
        }
        assert_eq!(tiered.len(), flat.len());
        assert!(
            tiered.resident_rows() < tiered.len(),
            "most rows must have spilled cold (resident {} of {})",
            tiered.resident_rows(),
            tiered.len()
        );
        for k in 0..120u64 {
            assert_eq!(tiered.pull(k), flat.pull(k), "key {k} final");
            assert_eq!(tiered.clock_of(k), flat.clock_of(k));
        }
        assert_eq!(tiered.export_rows(), flat.export_rows());
        assert!(tiered.take_io_ns() > 0, "tier traffic must cost disk time");
        let st = tiered.store_stats();
        assert!(st.demotions > 0 && st.promotions > 0);
    }

    #[test]
    fn tiered_clock_queries_are_io_free() {
        let cfg = PsConfig {
            dim: 2,
            n_shards: 2,
            lr: 0.1,
            seed: 5,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        };
        let s = PsServer::with_store(cfg, 0, &tiered_spec(4));
        for k in 0..60u64 {
            s.push_inc(k, &[1.0, 0.0]);
        }
        let _ = s.take_io_ns();
        for k in 0..60u64 {
            assert_eq!(s.clock_of(k), 1);
        }
        assert_eq!(s.take_io_ns(), 0, "clock queries are served from the index");
    }

    /// Grouping a batch by shard must be invisible: each shard sees its
    /// keys in batch order, so a tiered store demotes, promotes and
    /// charges disk time exactly as under one call per key, and the
    /// per-shard counters sum to the same values.
    #[test]
    fn grouped_ops_match_one_key_at_a_time() {
        use het_rng::rngs::StdRng;
        use het_rng::seq::SliceRandom;
        use het_rng::SeedableRng;
        let cfg = PsConfig {
            dim: 2,
            n_shards: 4,
            lr: 0.5,
            seed: 99,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: Some(3.0),
        };
        // 60 keys, 12 of them twice, over 4 shards whose hot tiers hold 2
        // rows each: every batch demotes.
        let mut keys: Vec<Key> = (0..60).chain(0..12).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(33));
        let items: Vec<(Key, Vec<f32>)> = keys
            .iter()
            .map(|&k| (k, vec![k as f32 * 0.1, -1.0]))
            .collect();
        let candidate = |k: Key, round: u64| k % 5 + 2 * round;
        let run = |grouped: bool| {
            let s = PsServer::with_store(cfg, 0, &tiered_spec(8));
            het_trace::start(Vec::new());
            let (mut rows, mut clocks, mut io) = (Vec::new(), Vec::new(), Vec::new());
            for round in 0..3u64 {
                if grouped {
                    s.push_inc_many(&items, |(_, g)| g);
                    s.pull_into(&keys, &mut rows, &mut clocks);
                    s.push_with_clock_many(&items, |(k, g)| (g, candidate(*k, round)));
                    s.clocks_of(&keys, &mut clocks);
                } else {
                    for (k, g) in &items {
                        s.push_inc(*k, g);
                    }
                    for &k in &keys {
                        let p = s.pull(k);
                        rows.extend(p.vector);
                        clocks.push(p.clock);
                    }
                    for (k, g) in &items {
                        s.push_with_clock(*k, g, candidate(*k, round));
                    }
                    clocks.extend(keys.iter().map(|&k| s.clock_of(k)));
                }
                io.push(s.take_io_ns());
            }
            let counters = het_trace::finish().counters;
            (rows, clocks, io, s.store_stats(), s.export_rows(), counters)
        };
        let grouped = run(true);
        assert_eq!(grouped, run(false));
        let (_, _, io, stats, _, counters) = grouped;
        assert!(stats.demotions > 0 && io.iter().all(|&ns| ns > 0));
        for counter in ["pulls", "pushes", "clock_queries"] {
            let per_shard: Vec<u64> = counters
                .iter()
                .filter(|c| c.comp == "ps" && c.name == counter)
                .map(|c| c.value)
                .collect();
            assert_eq!(per_shard.len(), 4, "{counter}: the batch spans every shard");
            let per_round = if counter == "pushes" { 2 } else { 1 };
            assert_eq!(per_shard.iter().sum::<u64>(), 3 * per_round * 72);
        }
    }

    /// A batch does not queue behind another thread's hold on one shard:
    /// it serves every free shard first and waits for the busy one last.
    #[test]
    fn a_batch_serves_free_shards_before_waiting_on_a_busy_one() {
        use std::time::{Duration, Instant};
        let s = server(1);
        let keys: Vec<Key> = (0..64).collect();
        let pushed = |k: Key| s.shards[s.shard_index_of(k)].read().store.clock_of(k) == Some(1);
        std::thread::scope(|scope| {
            let held = s.shards[0].write();
            let batch = scope.spawn(|| s.push_inc_many(&keys, |_| &[1.0][..]));
            let free: Vec<Key> = keys
                .iter()
                .copied()
                .filter(|&k| s.shard_index_of(k) != 0)
                .collect();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !free.iter().all(|&k| pushed(k)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let served_while_held = free.iter().all(|&k| pushed(k));
            drop(held);
            batch.join().unwrap();
            assert!(served_while_held, "free shards waited behind shard 0");
        });
        assert!(keys.iter().all(|&k| s.clock_of(k) == 1));
    }

    /// Satellite check: a live split while most parent rows sit cold.
    /// Every row — hot or cold — must move wholesale, dual-read routing
    /// must agree with placement at each step, and the disk time of the
    /// move must land in the background pool, not on clients.
    #[test]
    fn split_while_rows_are_cold_resident_conserves_state() {
        let cfg = PsConfig {
            dim: 2,
            n_shards: 2,
            lr: 0.5,
            seed: 5,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        };
        let s = PsServer::with_store(cfg, 1, &tiered_spec(6));
        let control = PsServer::new(cfg);
        for k in 0..200u64 {
            s.push_inc(k, &[1.0, -1.0]);
            control.push_inc(k, &[1.0, -1.0]);
        }
        assert!(
            s.resident_rows() < 200,
            "test needs cold rows on the parent"
        );
        let _ = s.take_io_ns(); // drain client-path io from the setup
        s.begin_split(0, 2, 0xC01D);
        while s.remaining_to_migrate(0) > 0 {
            s.migrate_batch(0, 9);
            assert_exactly_one_owner(&s);
        }
        s.complete_split(0);
        assert_exactly_one_owner(&s);
        assert_eq!(
            s.take_io_ns(),
            0,
            "migration disk time must not be charged to clients"
        );
        assert!(
            s.background_io_ns() > 0,
            "moving cold rows must cost background disk time"
        );
        assert_eq!(s.len(), control.len());
        for k in 0..200u64 {
            assert_eq!(s.pull(k), control.pull(k), "key {k} diverged");
        }
    }
}
