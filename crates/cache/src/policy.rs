//! Eviction policies: the policy zoo behind `CacheTable`.
//!
//! The paper (§4.3) finds LFU beats LRU on embedding workloads because
//! frequency reflects long-term popularity, but exact LFU's bookkeeping
//! is costly; its "light-weighted LFU" promotes an embedding to a
//! direct-access set once its frequency passes a threshold, after which
//! accesses bypass frequency maintenance entirely. Beyond the paper's
//! LRU/LFU pair this module adds the classic web-cache zoo — CLOCK
//! (cheap recency), SLRU (scan resistance), LFUDA (frequency with
//! aging, so a stale hot set cannot pin the cache forever), and GDSF
//! (size/cost awareness priced off the α-β wire model) — plus an
//! adaptive meta-policy that watches the access skew through a
//! SpaceSaving sketch and switches the live policy at deterministic
//! window boundaries.
//!
//! Every policy but CLOCK keeps its keys in one [`het_data::Ranked`]
//! index per ordered set and evicts its lowest rank: LRU ranks by last
//! tick, LFU and LightLFU's unpromoted keys by (frequency, tick), SLRU's
//! two segments by tick, GDSF by (priority, tick). LFUDA is GDSF at the
//! unit price. The policies are private: [`PolicyKind::build`] makes
//! one behind the [`CachePolicy`] trait, so `CacheTable` and the
//! benches can swap them freely.

use crate::Key;
use het_data::{Ranked, SpaceSaving};
use std::collections::{HashMap, HashSet, VecDeque};

/// Default promotion threshold for the paper's light-weighted LFU
/// (§4.3). Lifted out of the policy's constructor so configs and
/// sweeps can vary it; the default keeps golden fixtures byte-stable.
pub const DEFAULT_LIGHT_LFU_THRESHOLD: u64 = 16;

/// Default number of observations between adaptive skew evaluations.
pub const DEFAULT_ADAPTIVE_WINDOW: u64 = 256;

/// α term of the refetch-cost model handed to cost-aware policies:
/// fixed per-message bytes for one single-key fetch response (wire
/// header + key echo + clock). Mirrors
/// `het_simnet::wire::embedding_fetch_response_bytes` — a cross-crate
/// test in `het-core` pins the two together.
pub const FETCH_COST_ALPHA_BYTES: u64 = 64 + 8 + 8;

/// β term of the refetch-cost model: payload bytes per f32 element.
pub const FETCH_COST_BETA_BYTES: u64 = 4;

/// α-β refetch cost of one embedding row of dimension `dim`, in bytes:
/// what evicting the row will cost the network if it is read again.
pub const fn fetch_cost_bytes(dim: usize) -> u64 {
    FETCH_COST_ALPHA_BYTES + FETCH_COST_BETA_BYTES * dim as u64
}

/// Bytes one embedding row of dimension `dim` occupies in the cache
/// (the "size" in GDSF's cost/size ratio), floored at 1 so the ratio
/// is always defined.
pub const fn row_size_bytes(dim: usize) -> u64 {
    let b = FETCH_COST_BETA_BYTES * dim as u64;
    if b == 0 {
        1
    } else {
        b
    }
}

/// Which built-in policy to instantiate (used by configs and benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Exact least-frequently-used (ties broken by recency).
    Lfu,
    /// The paper's §4.3 light-weighted LFU; keys whose frequency
    /// reaches `promote_threshold` move to the direct-access set.
    LightLfu {
        /// Promotion threshold (default [`DEFAULT_LIGHT_LFU_THRESHOLD`]).
        promote_threshold: u64,
    },
    /// CLOCK (second-chance): O(1) approximate LRU — an extension beyond
    /// the paper's LRU/LFU comparison.
    Clock,
    /// Segmented LRU: new keys enter a probationary segment and must be
    /// re-referenced to reach the protected segment, so a one-pass scan
    /// cannot flush the hot set.
    Slru,
    /// LFU with dynamic aging: victim priority seeds a global age term,
    /// so formerly-hot keys decay instead of pinning the cache forever.
    /// Built as GDSF at the unit price, so the priority is `age + freq`.
    Lfuda,
    /// Greedy-Dual-Size-Frequency: priority is age + freq·cost/size,
    /// with cost priced off the α-β wire model — keys that are cheap to
    /// refetch are evicted first.
    Gdsf,
    /// Adaptive meta-policy: tracks access skew with a SpaceSaving
    /// sketch and switches between LRU / SLRU / LFUDA every `window`
    /// observations. Switch points are deterministic in the access
    /// stream and recorded as `cache.policy_switch` trace events.
    Adaptive {
        /// Observations between skew evaluations (default
        /// [`DEFAULT_ADAPTIVE_WINDOW`]). Smaller windows switch faster.
        window: u64,
    },
}

impl PolicyKind {
    /// The seven fixed (non-adaptive) policies, in leaderboard order.
    pub const FIXED: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::LightLfu {
            promote_threshold: DEFAULT_LIGHT_LFU_THRESHOLD,
        },
        PolicyKind::Clock,
        PolicyKind::Slru,
        PolicyKind::Lfuda,
        PolicyKind::Gdsf,
    ];

    /// Every kind, the full zoo: the seven fixed policies plus the
    /// adaptive meta-policy at its default window.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::LightLfu {
            promote_threshold: DEFAULT_LIGHT_LFU_THRESHOLD,
        },
        PolicyKind::Clock,
        PolicyKind::Slru,
        PolicyKind::Lfuda,
        PolicyKind::Gdsf,
        PolicyKind::Adaptive {
            window: DEFAULT_ADAPTIVE_WINDOW,
        },
    ];

    /// Light-weighted LFU at the default promotion threshold.
    pub const fn light_lfu() -> Self {
        PolicyKind::LightLfu {
            promote_threshold: DEFAULT_LIGHT_LFU_THRESHOLD,
        }
    }

    /// The adaptive meta-policy at the default evaluation window.
    pub const fn adaptive() -> Self {
        PolicyKind::Adaptive {
            window: DEFAULT_ADAPTIVE_WINDOW,
        }
    }

    /// True for the adaptive meta-policy.
    pub const fn is_adaptive(self) -> bool {
        matches!(self, PolicyKind::Adaptive { .. })
    }

    /// Instantiates the policy for a table of the given capacity (SLRU
    /// sizes its protected segment from it; the adaptive meta-policy
    /// needs it to build its successors).
    pub fn build(self, capacity: usize) -> Box<dyn CachePolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Lfu => Box::new(LfuPolicy::new()),
            PolicyKind::LightLfu { promote_threshold } => {
                Box::new(LightLfuPolicy::new(promote_threshold))
            }
            PolicyKind::Clock => Box::new(ClockPolicy::new()),
            PolicyKind::Slru => Box::new(SlruPolicy::from_capacity(capacity)),
            PolicyKind::Lfuda => Box::new(GdsfPolicy::lfuda()),
            PolicyKind::Gdsf => Box::new(GdsfPolicy::new()),
            PolicyKind::Adaptive { window } => Box::new(AdaptivePolicy::new(capacity, window)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Lru => f.write_str("LRU"),
            PolicyKind::Lfu => f.write_str("LFU"),
            PolicyKind::LightLfu { .. } => f.write_str("LightLFU"),
            PolicyKind::Clock => f.write_str("CLOCK"),
            PolicyKind::Slru => f.write_str("SLRU"),
            PolicyKind::Lfuda => f.write_str("LFUDA"),
            PolicyKind::Gdsf => f.write_str("GDSF"),
            PolicyKind::Adaptive { .. } => f.write_str("Adaptive"),
        }
    }
}

/// Bookkeeping interface every eviction policy implements.
///
/// The table guarantees: `on_insert` is called once per resident key,
/// `on_access` only for resident keys, `on_remove` exactly once when a
/// key leaves, and `pop_victim` only when at least one key is resident.
///
/// `Sync` is required (every method takes `&mut self`, so it costs the
/// implementations nothing) so a policy can live inside the parameter
/// server's per-shard locks, which hand out `&Shard` to concurrent
/// readers.
pub trait CachePolicy: Send + Sync {
    /// A key became resident.
    fn on_insert(&mut self, key: Key);
    /// A key became resident, with its α-β refetch cost and in-cache
    /// size in bytes. Cost-aware policies (GDSF) override this; every
    /// other policy ignores the price and forwards to `on_insert`.
    fn on_insert_cost(&mut self, key: Key, cost_bytes: u64, size_bytes: u64) {
        let _ = (cost_bytes, size_bytes);
        self.on_insert(key);
    }
    /// A resident key was read or written.
    fn on_access(&mut self, key: Key);
    /// A resident key was removed explicitly (invalidation).
    fn on_remove(&mut self, key: Key);
    /// Chooses a victim, removes it from the policy state, and returns
    /// it. Returns `None` only when no key is tracked.
    fn pop_victim(&mut self) -> Option<Key>;
    /// Number of tracked keys.
    fn len(&self) -> usize;
    /// True when no key is tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Number of online policy switches so far (adaptive only; fixed
    /// policies never switch).
    fn switch_count(&self) -> u64 {
        0
    }
}

/// Classic LRU: keys ranked by a logical tick of their last touch.
struct LruPolicy {
    tick: u64,
    order: Ranked<u64>,
}

impl LruPolicy {
    fn new() -> Self {
        LruPolicy {
            tick: 0,
            order: Ranked::new(),
        }
    }
}

impl CachePolicy for LruPolicy {
    fn on_insert(&mut self, key: Key) {
        self.on_access(key);
    }

    fn on_access(&mut self, key: Key) {
        self.tick += 1;
        self.order.set(key, self.tick, ());
    }

    fn on_remove(&mut self, key: Key) {
        self.order.remove(key);
    }

    fn pop_victim(&mut self) -> Option<Key> {
        self.order.pop_min().map(|(key, ..)| key)
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// Exact LFU: keys ranked by (frequency, last tick), so ties break by
/// recency.
struct LfuPolicy {
    tick: u64,
    order: Ranked<(u64, u64)>,
}

impl LfuPolicy {
    fn new() -> Self {
        LfuPolicy {
            tick: 0,
            order: Ranked::new(),
        }
    }

    fn bump(&mut self, key: Key, is_insert: bool) {
        self.tick += 1;
        let freq = self.order.get(key).map_or(0, |&((freq, _), ())| freq);
        let freq = if is_insert { freq.max(1) } else { freq + 1 };
        self.order.set(key, (freq, self.tick), ());
    }
}

impl CachePolicy for LfuPolicy {
    fn on_insert(&mut self, key: Key) {
        self.bump(key, true);
    }

    fn on_access(&mut self, key: Key) {
        self.bump(key, false);
    }

    fn on_remove(&mut self, key: Key) {
        self.order.remove(key);
    }

    fn pop_victim(&mut self) -> Option<Key> {
        self.order.pop_min().map(|(key, ..)| key)
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// The paper's light-weighted LFU (§4.3): exact frequency bookkeeping
/// only below a promotion threshold. Once a key's frequency reaches the
/// threshold it is *promoted* — moved to a direct-access set whose
/// members cost O(1) per access (a hash lookup, no ordered-structure
/// maintenance) and are never evicted while any unpromoted key remains.
struct LightLfuPolicy {
    threshold: u64,
    tick: u64,
    /// Unpromoted keys ranked by (frequency, last tick), as in LFU.
    cold: Ranked<(u64, u64)>,
    hot: HashSet<Key>,
    /// Promoted keys in promotion order (the all-hot FIFO fallback).
    hot_fifo: VecDeque<Key>,
}

impl LightLfuPolicy {
    /// # Panics
    /// Panics if `threshold == 0` (everything would promote instantly).
    fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "promotion threshold must be positive");
        LightLfuPolicy {
            threshold,
            tick: 0,
            cold: Ranked::new(),
            hot: HashSet::new(),
            hot_fifo: VecDeque::new(),
        }
    }
}

impl CachePolicy for LightLfuPolicy {
    fn on_insert(&mut self, key: Key) {
        self.tick += 1;
        self.cold.set(key, (1, self.tick), ());
    }

    fn on_access(&mut self, key: Key) {
        // Promoted keys: O(1), no maintenance — the paper's fast path.
        if self.hot.contains(&key) {
            return;
        }
        self.tick += 1;
        if let Some(&((freq, _), ())) = self.cold.get(key) {
            let freq = freq + 1;
            if freq >= self.threshold {
                self.cold.remove(key);
                self.hot.insert(key);
                self.hot_fifo.push_back(key);
            } else {
                self.cold.set(key, (freq, self.tick), ());
            }
        }
    }

    fn on_remove(&mut self, key: Key) {
        if self.cold.remove(key).is_none() && self.hot.remove(&key) {
            self.hot_fifo.retain(|&k| k != key);
        }
    }

    fn pop_victim(&mut self) -> Option<Key> {
        if let Some((key, ..)) = self.cold.pop_min() {
            return Some(key);
        }
        // All keys promoted: fall back to FIFO among the hot set.
        let key = self.hot_fifo.pop_front()?;
        self.hot.remove(&key);
        Some(key)
    }

    fn len(&self) -> usize {
        self.cold.len() + self.hot.len()
    }
}

/// CLOCK / second-chance: keys sit on a circular list with a referenced
/// bit; the hand sweeps, clearing bits, and evicts the first key found
/// unreferenced. All operations are O(1) amortised — the cheapest
/// recency approximation, included as a systems-extension beyond the
/// paper's LRU/LFU pair.
struct ClockPolicy {
    /// Exactly the tracked keys: `on_remove` unlinks a key from the
    /// ring as it drops its bit.
    ring: VecDeque<Key>,
    referenced: HashMap<Key, bool>,
}

impl ClockPolicy {
    fn new() -> Self {
        ClockPolicy {
            ring: VecDeque::new(),
            referenced: HashMap::new(),
        }
    }
}

impl CachePolicy for ClockPolicy {
    fn on_insert(&mut self, key: Key) {
        if self.referenced.insert(key, true).is_none() {
            self.ring.push_back(key);
        }
    }

    fn on_access(&mut self, key: Key) {
        if let Some(bit) = self.referenced.get_mut(&key) {
            *bit = true;
        }
    }

    fn on_remove(&mut self, key: Key) {
        if self.referenced.remove(&key).is_some() {
            self.ring.retain(|&k| k != key);
        }
    }

    fn pop_victim(&mut self) -> Option<Key> {
        // Sweep: clear referenced bits until an unreferenced key is
        // found — at most one revolution plus one step.
        loop {
            let key = self.ring.pop_front()?;
            let bit = self
                .referenced
                .get_mut(&key)
                .expect("the ring holds exactly the tracked keys");
            if !*bit {
                self.referenced.remove(&key);
                return Some(key);
            }
            *bit = false;
            self.ring.push_back(key);
        }
    }

    fn len(&self) -> usize {
        self.referenced.len()
    }
}

/// Fraction of the table capacity given to SLRU's protected segment
/// (numerator/denominator, so the split is exact integer arithmetic).
const SLRU_PROTECTED_NUM: usize = 4;
const SLRU_PROTECTED_DEN: usize = 5;

/// Segmented LRU: two LRU segments. New keys enter *probationary*;
/// a hit on a probationary key promotes it to *protected* (capped at
/// ~80% of table capacity, demoting the protected LRU back to the
/// probationary MRU position when full). Victims come from the
/// probationary LRU end first, so a one-pass scan only ever churns the
/// probationary segment — the hot set in protected survives.
struct SlruPolicy {
    protected_cap: usize,
    tick: u64,
    probation: Ranked<u64>,
    protected: Ranked<u64>,
}

impl SlruPolicy {
    /// # Panics
    /// Panics if `protected_cap == 0`.
    fn new(protected_cap: usize) -> Self {
        assert!(protected_cap > 0, "protected capacity must be positive");
        SlruPolicy {
            protected_cap,
            tick: 0,
            probation: Ranked::new(),
            protected: Ranked::new(),
        }
    }

    /// Sizes the protected segment from the table capacity (80%).
    fn from_capacity(capacity: usize) -> Self {
        Self::new((capacity * SLRU_PROTECTED_NUM / SLRU_PROTECTED_DEN).max(1))
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

impl CachePolicy for SlruPolicy {
    fn on_insert(&mut self, key: Key) {
        // Re-admission of an already-tracked key (the adaptive replay
        // path) is a touch of its current segment, not a demotion.
        let t = self.next_tick();
        if self.protected.get(key).is_some() {
            self.protected.set(key, t, ());
        } else {
            self.probation.set(key, t, ());
        }
    }

    fn on_access(&mut self, key: Key) {
        // A protected key is touched in place; a probationary one is
        // promoted.
        if self.protected.get(key).is_none() && self.probation.remove(key).is_none() {
            return;
        }
        let t = self.next_tick();
        self.protected.set(key, t, ());
        // Overflowing protected demotes its LRU back to probation as
        // the most-recent probationary key (it keeps a fair shot at
        // re-promotion, but is no longer scan-proof).
        while self.protected.len() > self.protected_cap {
            let (demoted, ..) = self
                .protected
                .pop_min()
                .expect("protected non-empty while over cap");
            let t = self.next_tick();
            self.probation.set(demoted, t, ());
        }
    }

    fn on_remove(&mut self, key: Key) {
        if self.probation.remove(key).is_none() {
            self.protected.remove(key);
        }
    }

    fn pop_victim(&mut self) -> Option<Key> {
        let (key, ..) = self
            .probation
            .pop_min()
            .or_else(|| self.protected.pop_min())?;
        Some(key)
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }
}

/// Fixed-point scale for GDSF's cost/size ratio so priorities stay in
/// exact integer arithmetic (deterministic across platforms).
pub const GDSF_SCALE: u64 = 1024;

/// Greedy-Dual-Size-Frequency: priority is
/// `age + freq · cost · SCALE / size`, where `age` is a global term set
/// to the victim's priority at every eviction (dynamic aging: a
/// formerly-hot key stops being touched, the age term catches up, and
/// it becomes evictable). Cost is the α-β refetch price of the row
/// (message header plus payload), size its cache footprint, both in
/// bytes — so small per-key messages (high α share) are worth keeping
/// relative to their footprint, and expensive-to-refetch rows outrank
/// cheap ones. Ties break by recency, then key.
///
/// LFUDA is this policy at the unit price `(cost, size) = (1, SCALE)`
/// for every key, whatever the table quotes: the priority is then
/// exactly `age + freq`.
struct GdsfPolicy {
    age: u64,
    tick: u64,
    /// LFUDA: keep `price` at the unit price and ignore quoted ones.
    unit_price: bool,
    /// (cost, size) of the latest priced insert, used when a key is
    /// admitted without a price (the repin path). Tables hold
    /// uniform-dimension rows, so this matches the real price.
    price: (u64, u64),
    /// (priority, last tick) → (freq, cost, size).
    order: Ranked<(u64, u64), (u64, u64, u64)>,
}

impl GdsfPolicy {
    fn new() -> Self {
        GdsfPolicy {
            age: 0,
            tick: 0,
            unit_price: false,
            price: (1, 1),
            order: Ranked::new(),
        }
    }

    /// LFU with dynamic aging: GDSF at the unit price.
    fn lfuda() -> Self {
        GdsfPolicy {
            unit_price: true,
            price: (1, GDSF_SCALE),
            ..Self::new()
        }
    }

    fn priority(age: u64, freq: u64, cost: u64, size: u64) -> u64 {
        age + freq * cost * GDSF_SCALE / size
    }
}

impl CachePolicy for GdsfPolicy {
    fn on_insert(&mut self, key: Key) {
        self.tick += 1;
        let (pri, state) = match self.order.get(key) {
            // Repin of a tracked key: refresh recency, keep its score.
            Some(&((pri, _), state)) => (pri, state),
            None => {
                let (cost, size) = self.price;
                (Self::priority(self.age, 1, cost, size), (1, cost, size))
            }
        };
        self.order.set(key, (pri, self.tick), state);
    }

    fn on_insert_cost(&mut self, key: Key, cost_bytes: u64, size_bytes: u64) {
        if !self.unit_price {
            self.price = (cost_bytes.max(1), size_bytes.max(1));
        }
        self.on_insert(key);
    }

    fn on_access(&mut self, key: Key) {
        let Some(&(_, (freq, cost, size))) = self.order.get(key) else {
            return;
        };
        self.tick += 1;
        let freq = freq + 1;
        let pri = Self::priority(self.age, freq, cost, size);
        self.order.set(key, (pri, self.tick), (freq, cost, size));
    }

    fn on_remove(&mut self, key: Key) {
        self.order.remove(key);
    }

    fn pop_victim(&mut self) -> Option<Key> {
        let (key, (pri, _), _) = self.order.pop_min()?;
        // Dynamic aging: the victim's priority becomes the floor every
        // future insert/access builds on.
        self.age = pri;
        Some(key)
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// SpaceSaving sketch width used by the adaptive meta-policy.
const ADAPTIVE_SKETCH_KEYS: usize = 64;
/// How many sketch heads count as "the hot set" in the skew estimate.
const ADAPTIVE_HOT_TOP: usize = 8;
/// Hot-set mass fraction at or above which the stream is skewed enough
/// for frequency-with-aging (LFUDA) to win.
const ADAPTIVE_SKEW_HIGH: f64 = 0.5;
/// Hot-set mass fraction at or above which scan-resistant recency
/// (SLRU) is preferred; below it plain LRU is cheapest.
const ADAPTIVE_SKEW_LOW: f64 = 0.2;

/// Adaptive meta-policy: delegates to a live inner policy and watches
/// the access stream through a SpaceSaving sketch. Every `window`
/// observations (inserts + accesses) it estimates skew as the mass
/// fraction of the sketch's top heads and switches the inner policy —
/// high skew → LFUDA, moderate → SLRU, flat → LRU.
///
/// Determinism rule: evaluation points are a pure function of the
/// observation count, the sketch state is a pure function of the
/// observed key sequence, and on a switch the resident set is replayed
/// into the successor in recency order (oldest first) from a shadow
/// LRU over the residents — so same-seed runs switch at identical
/// points and stay byte-identical. Each switch emits a
/// `cache.policy_switch` instant event and bumps the
/// `cache.policy_switches` counter.
struct AdaptivePolicy {
    capacity: usize,
    window: u64,
    obs_in_window: u64,
    total_obs: u64,
    current: PolicyKind,
    inner: Box<dyn CachePolicy>,
    sketch: SpaceSaving,
    recency: LruPolicy,
    switches: u64,
}

impl AdaptivePolicy {
    /// Starts on SLRU (the middle ground) until the first evaluation.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `window == 0`.
    fn new(capacity: usize, window: u64) -> Self {
        assert!(capacity > 0, "adaptive policy needs a positive capacity");
        assert!(window > 0, "adaptive evaluation window must be positive");
        let current = PolicyKind::Slru;
        AdaptivePolicy {
            capacity,
            window,
            obs_in_window: 0,
            total_obs: 0,
            current,
            inner: current.build(capacity),
            sketch: SpaceSaving::new(ADAPTIVE_SKETCH_KEYS),
            recency: LruPolicy::new(),
            switches: 0,
        }
    }

    /// Touches `key` in the recency shadow and feeds it to the sketch,
    /// switching the inner policy at a window boundary.
    fn observe(&mut self, key: Key) {
        self.recency.on_access(key);
        self.sketch.observe(key);
        self.obs_in_window += 1;
        self.total_obs += 1;
        if self.obs_in_window >= self.window {
            self.obs_in_window = 0;
            self.evaluate();
            // Fresh sketch per window so the estimate tracks drift
            // instead of the all-time distribution.
            self.sketch = SpaceSaving::new(ADAPTIVE_SKETCH_KEYS);
        }
    }

    fn evaluate(&mut self) {
        let total = self.sketch.total();
        if total == 0 {
            return;
        }
        let hot: u64 = self
            .sketch
            .top(ADAPTIVE_HOT_TOP)
            .iter()
            .map(|&(_, count)| count)
            .sum();
        let hot_frac = hot as f64 / total as f64;
        let next = if hot_frac >= ADAPTIVE_SKEW_HIGH {
            PolicyKind::Lfuda
        } else if hot_frac >= ADAPTIVE_SKEW_LOW {
            PolicyKind::Slru
        } else {
            PolicyKind::Lru
        };
        if next != self.current {
            self.switch_to(next, hot_frac);
        }
    }

    fn switch_to(&mut self, next: PolicyKind, hot_frac: f64) {
        let mut fresh = next.build(self.capacity);
        // Replay residents oldest-first so the successor's recency
        // order mirrors ours — deterministic for same-seed runs.
        for (&key, _) in self.recency.order.iter() {
            fresh.on_insert(key);
        }
        self.inner = fresh;
        self.switches += 1;
        het_trace::count!("cache", "policy_switches");
        het_trace::event!("cache", "policy_switch",
            "from" => self.current.to_string(),
            "to" => next.to_string(),
            "hot_frac" => hot_frac,
            "resident" => self.recency.len(),
            "observations" => self.total_obs,
        );
        self.current = next;
    }
}

impl CachePolicy for AdaptivePolicy {
    fn on_insert(&mut self, key: Key) {
        self.observe(key);
        self.inner.on_insert(key);
    }

    fn on_insert_cost(&mut self, key: Key, cost_bytes: u64, size_bytes: u64) {
        self.observe(key);
        self.inner.on_insert_cost(key, cost_bytes, size_bytes);
    }

    fn on_access(&mut self, key: Key) {
        self.observe(key);
        self.inner.on_access(key);
    }

    fn on_remove(&mut self, key: Key) {
        self.recency.on_remove(key);
        self.inner.on_remove(key);
    }

    fn pop_victim(&mut self) -> Option<Key> {
        let key = self.inner.pop_victim()?;
        self.recency.on_remove(key);
        Some(key)
    }

    fn len(&self) -> usize {
        self.recency.len()
    }

    fn switch_count(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_gives_second_chances() {
        let mut p = ClockPolicy::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_insert(3);
        // First sweep clears every referenced bit and evicts the oldest.
        assert_eq!(p.pop_victim(), Some(1));
        // Re-reference 2: on the next sweep the hand skips it (clearing
        // its bit) and evicts 3 — the second chance in action.
        p.on_access(2);
        assert_eq!(p.pop_victim(), Some(3));
        assert_eq!(p.pop_victim(), Some(2));
        assert_eq!(p.pop_victim(), None);
    }

    #[test]
    fn clock_remove_and_len() {
        let mut p = ClockPolicy::new();
        p.on_insert(1);
        p.on_insert(2);
        assert_eq!(p.len(), 2);
        p.on_remove(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.pop_victim(), Some(2));
        assert!(p.is_empty());
    }

    #[test]
    fn clock_reinsert_is_idempotent() {
        let mut p = ClockPolicy::new();
        p.on_insert(1);
        p.on_insert(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.pop_victim(), Some(1));
        assert_eq!(p.pop_victim(), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_insert(3);
        p.on_access(1); // order now: 2, 3, 1
        assert_eq!(p.pop_victim(), Some(2));
        assert_eq!(p.pop_victim(), Some(3));
        assert_eq!(p.pop_victim(), Some(1));
        assert_eq!(p.pop_victim(), None);
    }

    #[test]
    fn lru_remove_unlinks() {
        let mut p = LruPolicy::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_remove(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.pop_victim(), Some(2));
        assert!(p.is_empty());
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut p = LfuPolicy::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_insert(3);
        p.on_access(1);
        p.on_access(1);
        p.on_access(3);
        // freqs: 1->3, 2->1, 3->2
        assert_eq!(p.pop_victim(), Some(2));
        assert_eq!(p.pop_victim(), Some(3));
        assert_eq!(p.pop_victim(), Some(1));
    }

    #[test]
    fn lfu_breaks_ties_by_recency() {
        let mut p = LfuPolicy::new();
        p.on_insert(1);
        p.on_insert(2);
        // Equal frequency; 1 is older.
        assert_eq!(p.pop_victim(), Some(1));
    }

    #[test]
    fn lfu_remove_unlinks() {
        let mut p = LfuPolicy::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(2);
        p.on_remove(2);
        assert_eq!(p.len(), 1);
        assert_eq!(p.pop_victim(), Some(1));
    }

    #[test]
    fn light_lfu_promotes_hot_keys() {
        let mut p = LightLfuPolicy::new(3);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1); // freq 2
        p.on_access(1); // freq 3 -> promoted
        assert_eq!(p.hot.len(), 1);
        // Victim must be the cold key even though 1 is "older".
        assert_eq!(p.pop_victim(), Some(2));
        // Only the promoted key remains: FIFO fallback yields it.
        assert_eq!(p.pop_victim(), Some(1));
        assert_eq!(p.pop_victim(), None);
    }

    #[test]
    fn light_lfu_promoted_access_is_noop() {
        let mut p = LightLfuPolicy::new(2);
        p.on_insert(1);
        p.on_access(1); // promoted at freq 2
        let before = p.hot.len();
        for _ in 0..100 {
            p.on_access(1);
        }
        assert_eq!(p.hot.len(), before);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn light_lfu_remove_handles_both_sets() {
        let mut p = LightLfuPolicy::new(2);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1); // promote 1
        p.on_remove(1);
        p.on_remove(2);
        assert!(p.is_empty());
        assert_eq!(p.pop_victim(), None);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn light_lfu_zero_threshold_rejected() {
        let _ = LightLfuPolicy::new(0);
    }

    #[test]
    fn kinds_build_working_policies() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build(8);
            p.on_insert(5);
            p.on_access(5);
            assert_eq!(p.len(), 1, "{kind}");
            assert_eq!(p.pop_victim(), Some(5), "{kind}");
        }
    }

    #[test]
    fn light_lfu_mimics_lfu_on_skewed_stream() {
        // Under a skewed access stream the light LFU should keep the hot
        // keys resident just like exact LFU (the paper's §4.3 claim of
        // "similar miss rate").
        let mut lfu = LfuPolicy::new();
        let mut light = LightLfuPolicy::new(4);
        for k in 0..4u64 {
            lfu.on_insert(k);
            light.on_insert(k);
        }
        // Key 0 hot, key 1 warm, keys 2,3 cold.
        for _ in 0..10 {
            lfu.on_access(0);
            light.on_access(0);
        }
        for _ in 0..3 {
            lfu.on_access(1);
            light.on_access(1);
        }
        let v1 = lfu.pop_victim().unwrap();
        let v2 = light.pop_victim().unwrap();
        assert!(v1 == 2 || v1 == 3);
        assert!(v2 == 2 || v2 == 3);
    }

    #[test]
    fn default_light_lfu_threshold_is_sixteen() {
        // The golden fixtures were recorded at threshold 16; the
        // lifted default must not drift.
        assert_eq!(DEFAULT_LIGHT_LFU_THRESHOLD, 16);
        assert_eq!(
            PolicyKind::light_lfu(),
            PolicyKind::LightLfu {
                promote_threshold: 16
            }
        );
    }

    #[test]
    fn slru_survives_a_scan() {
        let mut p = SlruPolicy::new(4);
        // Build a hot set that has been re-referenced (protected).
        for k in 0..3u64 {
            p.on_insert(k);
            p.on_access(k);
        }
        assert_eq!(p.protected.len(), 3);
        // A one-pass scan: inserted once, never re-referenced.
        for k in 100..110u64 {
            p.on_insert(k);
        }
        // Every victim is a scan key until the probationary segment is
        // exhausted — the hot set is untouchable.
        for _ in 0..10 {
            let v = p.pop_victim().unwrap();
            assert!(v >= 100, "scan key evicted before hot set, got {v}");
        }
        // Only now does SLRU fall back to the protected LRU.
        assert_eq!(p.pop_victim(), Some(0));
    }

    #[test]
    fn slru_demotes_protected_overflow() {
        let mut p = SlruPolicy::new(2);
        for k in 0..3u64 {
            p.on_insert(k);
        }
        p.on_access(0);
        p.on_access(1);
        p.on_access(2); // protected over cap: demotes 0 back to probation
        assert_eq!(p.protected.len(), 2);
        // 0 is now the probationary victim.
        assert_eq!(p.pop_victim(), Some(0));
    }

    #[test]
    fn slru_remove_unlinks_both_segments() {
        let mut p = SlruPolicy::new(4);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1); // 1 protected, 2 probationary
        p.on_remove(1);
        p.on_remove(2);
        assert!(p.is_empty());
        assert_eq!(p.pop_victim(), None);
    }

    #[test]
    fn lfuda_ages_out_formerly_hot_keys() {
        let mut p = GdsfPolicy::lfuda();
        p.on_insert(1);
        for _ in 0..9 {
            p.on_access(1); // freq 10, pri 10
        }
        // Churn cold keys; each eviction raises the global age floor.
        // Exact LFU would keep the freq-10 key forever against freq-1
        // churn; LFUDA evicts it once the floor catches its frozen
        // priority 10.
        let mut aged_out_at = None;
        let mut k = 10u64;
        while aged_out_at.is_none() && k < 1000 {
            p.on_insert(k);
            if p.len() > 3 && p.pop_victim() == Some(1) {
                aged_out_at = Some(p.age);
            }
            k += 1;
        }
        let age = aged_out_at.expect("stale hot key never aged out");
        assert!(age >= 10, "evicted before the floor caught up, age {age}");
    }

    #[test]
    fn lfuda_breaks_priority_ties_by_recency() {
        let mut p = GdsfPolicy::lfuda();
        p.on_insert(1);
        p.on_insert(2);
        assert_eq!(p.pop_victim(), Some(1));
    }

    #[test]
    fn gdsf_prefers_evicting_cheap_rows() {
        let mut p = GdsfPolicy::new();
        // Same frequency, same size, different refetch cost.
        p.on_insert_cost(1, 1000, 64);
        p.on_insert_cost(2, 100, 64);
        assert_eq!(p.pop_victim(), Some(2), "cheap-to-refetch goes first");
        // Frequency outweighs a moderate cost edge.
        let mut p = GdsfPolicy::new();
        p.on_insert_cost(1, 100, 64);
        p.on_insert_cost(2, 150, 64);
        p.on_access(1);
        p.on_access(1);
        assert_eq!(p.pop_victim(), Some(2));
    }

    #[test]
    fn gdsf_aging_mirrors_lfuda() {
        let mut p = GdsfPolicy::new();
        // Uniform cost/size ratio of 1: each access step is GDSF_SCALE.
        p.on_insert_cost(1, 100, 100);
        for _ in 0..9 {
            p.on_access(1); // pri = 10·SCALE, then frozen
        }
        // Same dynamic-aging property as LFUDA: the stale hot key is
        // evicted once the floor catches its frozen priority 10·SCALE.
        let mut aged_out_at = None;
        let mut k = 10u64;
        while aged_out_at.is_none() && k < 1000 {
            p.on_insert_cost(k, 100, 100);
            if p.len() > 3 && p.pop_victim() == Some(1) {
                aged_out_at = Some(p.age);
            }
            k += 1;
        }
        let age = aged_out_at.expect("stale hot key never aged out");
        assert!(age >= 10 * GDSF_SCALE, "evicted early, age {age}");
    }

    #[test]
    fn cost_model_is_alpha_beta() {
        assert_eq!(fetch_cost_bytes(0), FETCH_COST_ALPHA_BYTES);
        assert_eq!(
            fetch_cost_bytes(128),
            FETCH_COST_ALPHA_BYTES + 128 * FETCH_COST_BETA_BYTES
        );
        assert_eq!(row_size_bytes(0), 1, "size is floored at one byte");
        assert_eq!(row_size_bytes(16), 64);
    }

    #[test]
    fn adaptive_switches_to_lfuda_under_skew() {
        let mut p = AdaptivePolicy::new(64, 32);
        assert_eq!(p.current, PolicyKind::Slru);
        for k in 0..8u64 {
            p.on_insert(k);
        }
        // Hammer two keys: the window's hot mass is concentrated.
        for i in 0..200u64 {
            p.on_access(i % 2);
        }
        assert_eq!(p.current, PolicyKind::Lfuda);
        assert!(p.switch_count() >= 1);
    }

    #[test]
    fn adaptive_switches_to_lru_on_flat_stream() {
        let mut p = AdaptivePolicy::new(64, 64);
        // Uniform sweep over many more keys than sketch heads: the
        // top-8 mass fraction is tiny.
        for i in 0..2048u64 {
            p.on_insert(i % 1024);
        }
        assert_eq!(p.current, PolicyKind::Lru);
    }

    #[test]
    fn adaptive_preserves_residents_across_a_switch() {
        let mut p = AdaptivePolicy::new(64, 16);
        for k in 0..10u64 {
            p.on_insert(k);
        }
        // Force a switch by skewing the stream.
        for _ in 0..32 {
            p.on_access(0);
        }
        assert!(p.switch_count() >= 1, "stream should have forced a switch");
        assert_eq!(p.len(), 10, "residents must survive the switch");
        // Every resident is still evictable exactly once.
        let mut victims = HashSet::new();
        while let Some(v) = p.pop_victim() {
            assert!(victims.insert(v), "duplicate victim {v}");
        }
        assert_eq!(victims.len(), 10);
    }

    #[test]
    fn adaptive_switch_points_are_deterministic() {
        let run = || {
            let mut p = AdaptivePolicy::new(32, 16);
            let mut victims = Vec::new();
            for i in 0..400u64 {
                let k = (i * i + 7) % 97;
                if i % 5 == 0 {
                    p.on_insert(k);
                } else {
                    p.on_access(k % 13);
                }
                if p.len() > 32 {
                    victims.push(p.pop_victim().unwrap());
                }
            }
            (victims, p.switch_count())
        };
        let (v1, s1) = run();
        let (v2, s2) = run();
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
        assert!(s1 >= 1, "trace should exercise at least one switch");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn adaptive_zero_window_rejected() {
        let _ = AdaptivePolicy::new(8, 0);
    }
}
