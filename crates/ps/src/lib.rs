//! Parameter-server substrate for the HET reproduction.
//!
//! Plays the role PS-Lite plays in the original system: a sharded
//! key→embedding store with per-embedding **global Lamport clocks**
//! (paper §3.1 — `x_k.c_g` counts the total updates applied to
//! embedding `k`), sparse pull/push, and server-side SGD application of
//! pushed gradients. A small dense store backs the pure-PS baselines'
//! dense parameters (TF PS / HET PS).
//!
//! The store is thread-safe (one reader-writer lock per shard) so it
//! can serve both the deterministic discrete-event trainer and any
//! multi-threaded executor. Embeddings are lazily initialised from a
//! hash of `(seed, key)`, so every replica observes the same initial
//! vector no matter which worker touches the key first — a property the
//! convergence tests rely on.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod dense;
pub mod optimizer;
pub mod recovery;
pub mod server;
pub mod sync;

pub use checkpoint::{read_checkpoint, restore_server, write_checkpoint, CheckpointRow};
pub use dense::DenseStore;
pub use optimizer::ServerOptimizer;
pub use recovery::{FailoverOutcome, ShardCheckpointStore};
pub use server::{Keyed, PsConfig, PsServer, PullResult};
// The storage vocabulary comes from `het-store`; re-exported so callers
// configuring a server need not name that crate.
pub use het_store::{RowStore, StoreSpec, StoreStats, StoredRow, TieredConfig};

/// An embedding key (feature ID).
pub type Key = u64;

/// A shared handle to one PS fabric. Co-scheduled jobs (a trainer and a
/// serving fleet on one cluster runtime) hold clones of the same handle,
/// so every pull/push/clock observes one table; standalone jobs wrap a
/// private server in one. All of [`PsServer`]'s methods take `&self`, so
/// a handle is as capable as the server itself.
///
/// The handle is an [`std::sync::Arc`] because the server is the one
/// structure genuinely shared across execution backends: the sim
/// backend clones it between single-threaded processes (where the
/// atomic refcount is only a couple of nanoseconds of overhead per
/// clone, never per pull), and the threaded backend clones it into
/// worker/replica OS threads, where the per-shard `RwLock`s inside
/// [`PsServer`] carry the actual concurrency.
pub type ServerHandle = std::sync::Arc<PsServer>;
