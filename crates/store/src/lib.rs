//! Tiered row storage for the parameter server.
//!
//! HET's experiments run embedding tables of ~10⁷ keys; a flat
//! in-memory map per shard cannot hold paper-scale key spaces, so this
//! crate provides the MLKV-style alternative: a capacity-bounded **hot
//! tier** (plain map, demotion chosen by the `het-cache` policy zoo)
//! over a **cold tier** — an append-only log of `HET-CKPT v1` pages (the
//! checkpoint page layout, shared via [`page`]) with an in-memory
//! key→(segment, offset) index, garbage-ratio-triggered compaction, and
//! crash recovery by log replay.
//!
//! Both the flat store ([`MemStore`]) and the tiered store
//! ([`TieredStore`]) implement one trait, [`RowStore`], which is the
//! only interface the parameter server sees. Disk time is priced by
//! [`het_simnet::DiskSpec`] (seek + per-byte, the α-β shape of the
//! message model) and accrued per store; the server drains it with
//! [`RowStore::take_io_ns`] into the same simulated clocks that carry
//! network time. Every decision — demotion victims, page placement,
//! compaction triggers — is a deterministic function of the operation
//! stream, so same seed → byte-identical reports and traces holds with
//! either store.

#![warn(missing_docs)]

mod cold;
pub mod mem;
pub mod page;
pub mod tiered;

pub use mem::MemStore;
pub use page::PageRow;
pub use tiered::TieredStore;

use het_cache::PolicyKind;
use het_simnet::DiskSpec;
use std::path::PathBuf;

/// An embedding key (feature ID) — the same alias as `het_ps::Key`.
pub type Key = u64;

/// One stored embedding row: vector, global clock `c_g`, and optimiser
/// state (empty under the server's SGD).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StoredRow {
    /// The embedding vector (length = dim).
    pub vector: Vec<f32>,
    /// The global Lamport clock — total updates applied so far.
    pub clock: u64,
    /// Optimiser state (empty for SGD).
    pub opt_state: Vec<f32>,
}

/// Cumulative tier statistics for one store. All zeros for the flat
/// in-memory store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Row accesses served from the hot tier.
    pub hot_hits: u64,
    /// Rows read back (promoted) from the cold tier.
    pub promotions: u64,
    /// Rows appended to the cold log on demotion.
    pub demotions: u64,
    /// Demotions that needed no write because the cold copy was
    /// current (the row was never modified while hot).
    pub clean_drops: u64,
    /// Bytes read from the cold tier (promotions + compaction reads).
    pub cold_read_bytes: u64,
    /// Bytes appended to the cold tier (demotions + compaction writes).
    pub cold_write_bytes: u64,
    /// Cumulative modelled disk time in nanoseconds (including
    /// compaction).
    pub io_ns: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Garbage bytes reclaimed by compaction.
    pub reclaimed_bytes: u64,
}

impl StoreStats {
    /// Fraction of row accesses served without touching the cold tier
    /// (1.0 when nothing was ever promoted).
    pub fn hot_hit_rate(&self) -> f64 {
        let total = self.hot_hits + self.promotions;
        if total == 0 {
            1.0
        } else {
            self.hot_hits as f64 / total as f64
        }
    }

    /// Adds another store's counters into this one (for summing across
    /// shards).
    pub fn accumulate(&mut self, other: &StoreStats) {
        self.hot_hits += other.hot_hits;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.clean_drops += other.clean_drops;
        self.cold_read_bytes += other.cold_read_bytes;
        self.cold_write_bytes += other.cold_write_bytes;
        self.io_ns += other.io_ns;
        self.compactions += other.compactions;
        self.reclaimed_bytes += other.reclaimed_bytes;
    }
}

/// The row-storage interface the parameter server programs against.
///
/// Implementations must be deterministic: the same sequence of calls
/// produces the same returns, the same tier movements, and the same
/// accrued I/O time. `Sync` is required because the server hands out
/// `&Shard` to concurrent readers; the `&self` methods here are
/// read-only.
pub trait RowStore: Send + Sync {
    /// Read access to a row; a tiered store may promote a cold row into
    /// the hot tier (charging modelled read time), but the row is not
    /// marked dirty. `None` for unmaterialised keys.
    fn get(&mut self, key: Key) -> Option<&StoredRow>;

    /// Read access that changes nothing, so the server can serve it
    /// under a shard's *shared* lock. `None` when the key is not
    /// materialised **or** when the store cannot serve a read without
    /// mutating (the default: a tiered hit moves its demotion order);
    /// the caller then falls back to [`get`](RowStore::get) under the
    /// exclusive lock, which decides between the two.
    fn get_shared(&self, _key: Key) -> Option<&StoredRow> {
        None
    }

    /// Read-modify-write with lazy initialisation: ensures the row is
    /// resident (promoting, or creating it via `init`), applies `f`,
    /// and marks the row dirty so a later demotion writes it back.
    fn apply(
        &mut self,
        key: Key,
        init: &mut dyn FnMut() -> StoredRow,
        f: &mut dyn FnMut(&mut StoredRow),
    );

    /// Installs a row verbatim, overwriting any existing copy in any
    /// tier (the checkpoint-restore path).
    fn insert(&mut self, key: Key, row: StoredRow);

    /// Removes a row from every tier, returning it (the shard-migration
    /// path; reading a cold row back charges modelled read time).
    fn remove(&mut self, key: Key) -> Option<StoredRow>;

    /// Reads a row without changing tier residency or policy state — a
    /// cold row is read in place (charging modelled read time), not
    /// promoted. The observer path: snapshots, exports, and debugging
    /// must not perturb what a training run would otherwise do.
    fn peek(&mut self, key: Key) -> Option<StoredRow>;

    /// True when the key is materialised in any tier. Never mutates
    /// tier or policy state — split routing dual-reads through this.
    fn contains(&self, key: Key) -> bool;

    /// Clock-only query (`CheckValid` condition 2). Served from the hot
    /// tier or the in-memory cold index — never touches the disk model,
    /// mirroring how the wire protocol sends clocks without payloads.
    fn clock_of(&self, key: Key) -> Option<u64>;

    /// Number of materialised rows across all tiers.
    fn len(&self) -> usize;

    /// True when no row is materialised.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every materialised key, ascending — the deterministic iteration
    /// order for export, checkpoint, and migration planning.
    fn sorted_keys(&self) -> Vec<Key>;

    /// Every materialised row, ascending by key, read via [`peek`] so a
    /// full-table export (the checkpoint path) cannot thrash the hot
    /// tier.
    ///
    /// [`peek`]: RowStore::peek
    fn export_rows(&mut self) -> Vec<(Key, StoredRow)> {
        self.sorted_keys()
            .into_iter()
            .map(|k| {
                let row = self.peek(k).expect("sorted_keys listed the key");
                (k, row)
            })
            .collect()
    }

    /// Drops every row in every tier, returning `(key, clock)` pairs
    /// ascending (the shard-loss path: the failover ledger needs the
    /// clocks that were live).
    fn clear(&mut self) -> Vec<(Key, u64)>;

    /// Rows currently resident in memory (== `len()` for the flat
    /// store; the hot-tier occupancy for the tiered store).
    fn resident_rows(&self) -> usize {
        self.len()
    }

    /// Drains modelled disk nanoseconds accrued since the last call
    /// (always 0 for the flat store). The server forwards this into the
    /// simulated clock of whichever operation triggered the I/O.
    fn take_io_ns(&mut self) -> u64 {
        0
    }

    /// Cumulative tier statistics (all zeros for the flat store).
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

/// Which row store a server shard should use. Carried by trainer and
/// serving configs; [`StoreSpec::Mem`] reproduces the historical flat
/// map byte-for-byte.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum StoreSpec {
    /// The flat in-memory map (the default; no I/O model, no tiers).
    #[default]
    Mem,
    /// The tiered hot/cold store.
    Tiered(TieredConfig),
}

impl StoreSpec {
    /// Builds the store for one shard. `n_shards` is the server's
    /// physical shard count: a tiered spec's `hot_rows` budget is total
    /// across the server, so each shard gets an equal slice (floored at
    /// one row).
    ///
    /// # Panics
    /// Panics if a tiered spec's spill directory cannot be created
    /// (simulation-fatal: there is nowhere to put the cold tier).
    pub fn build_shard(&self, dim: usize, shard: usize, n_shards: usize) -> Box<dyn RowStore> {
        match self {
            StoreSpec::Mem => Box::new(MemStore::new()),
            StoreSpec::Tiered(cfg) => {
                let per_shard = (cfg.hot_rows / n_shards.max(1)).max(1);
                Box::new(
                    TieredStore::open(cfg, dim, shard as u64, per_shard)
                        .expect("failed to open tiered store shard"),
                )
            }
        }
    }

    /// True for [`StoreSpec::Tiered`].
    pub fn is_tiered(&self) -> bool {
        matches!(self, StoreSpec::Tiered(_))
    }

    /// What [`str::parse`] reads; `HOT_ROWS` is a positive row budget.
    pub const SPELLINGS: &'static str = "mem tiered:HOT_ROWS";
}

/// Spelled `mem` or `tiered:<hot_rows>`. The spelling carries only the
/// hot-row budget: [`str::parse`] gives the rest of a tiered spec
/// [`TieredConfig::new`]'s defaults.
impl std::fmt::Display for StoreSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreSpec::Mem => f.write_str("mem"),
            StoreSpec::Tiered(cfg) => write!(f, "tiered:{}", cfg.hot_rows),
        }
    }
}

impl std::str::FromStr for StoreSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "mem" {
            return Ok(StoreSpec::Mem);
        }
        let hot = s
            .strip_prefix("tiered:")
            .ok_or_else(|| format!("unknown store '{s}' (try: {})", Self::SPELLINGS))?;
        match hot.parse() {
            Ok(hot_rows) if hot_rows > 0 => Ok(StoreSpec::Tiered(TieredConfig::new(hot_rows))),
            _ => Err(format!("store '{s}': '{hot}' is not a positive row budget")),
        }
    }
}

/// Configuration of a [`TieredStore`].
#[derive(Clone, Debug, PartialEq)]
pub struct TieredConfig {
    /// Hot-tier capacity in rows, total across the server's shards.
    pub hot_rows: usize,
    /// Demotion policy for the hot tier (any of the `het-cache` zoo).
    pub policy: PolicyKind,
    /// Cold-tier spill directory. `None` keeps segments in memory —
    /// still exercising the full page/log/compaction machinery, which
    /// is what the deterministic tests and the oracle use. `Some(dir)`
    /// writes real segment files (each shard in `dir/shard-<idx>/`) and
    /// replays any that already exist (crash recovery).
    pub dir: Option<PathBuf>,
    /// Roll the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Compact when `garbage / total` appended bytes exceeds this.
    pub gc_ratio: f64,
    /// ... and total appended bytes exceed this floor (avoids churning
    /// tiny logs).
    pub gc_min_bytes: u64,
    /// The device model pricing cold reads and writes.
    pub disk: DiskSpec,
}

impl TieredConfig {
    /// A tiered store with `hot_rows` total hot rows and defaults
    /// everywhere else: LRU demotion, in-memory segments, 4 MiB
    /// segments, compaction at 50% garbage past 64 KiB, NVMe pricing.
    pub fn new(hot_rows: usize) -> Self {
        TieredConfig {
            hot_rows,
            policy: PolicyKind::Lru,
            dir: None,
            segment_bytes: 4 << 20,
            gc_ratio: 0.5,
            gc_min_bytes: 64 << 10,
            disk: DiskSpec::nvme(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_specs_read_their_spelling_back() {
        for spec in [StoreSpec::Mem, StoreSpec::Tiered(TieredConfig::new(8))] {
            assert_eq!(spec.to_string().parse(), Ok(spec.clone()), "{spec}");
        }
        for bad in ["memory", "tiered", "tiered:0", "tiered:-8", ""] {
            assert!(bad.parse::<StoreSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn hot_hit_rate_handles_empty_and_mixed() {
        let mut s = StoreStats::default();
        assert_eq!(s.hot_hit_rate(), 1.0);
        s.hot_hits = 3;
        s.promotions = 1;
        assert!((s.hot_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_accumulate_sums_fields() {
        let mut a = StoreStats {
            hot_hits: 1,
            promotions: 2,
            demotions: 3,
            clean_drops: 4,
            cold_read_bytes: 5,
            cold_write_bytes: 6,
            io_ns: 7,
            compactions: 8,
            reclaimed_bytes: 9,
        };
        a.accumulate(&a.clone());
        assert_eq!(a.hot_hits, 2);
        assert_eq!(a.reclaimed_bytes, 18);
    }

    #[test]
    fn default_spec_is_mem() {
        assert_eq!(StoreSpec::default(), StoreSpec::Mem);
        assert!(!StoreSpec::default().is_tiered());
        assert!(StoreSpec::Tiered(TieredConfig::new(8)).is_tiered());
    }

    #[test]
    fn build_shard_splits_hot_budget() {
        let spec = StoreSpec::Tiered(TieredConfig::new(100));
        let store = spec.build_shard(4, 0, 8);
        assert_eq!(store.resident_rows(), 0);
        // Budget is divided: capacity is per-shard, verified indirectly
        // by the tiered tests; here we only check construction works.
        let mem = StoreSpec::Mem.build_shard(4, 0, 8);
        assert_eq!(mem.len(), 0);
    }
}
