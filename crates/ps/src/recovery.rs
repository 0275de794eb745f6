//! Shard failover: periodic per-shard checkpoints and crash recovery.
//!
//! The recovery unit is one shard (the paper's server machines hold
//! disjoint shard sets, and production PS deployments fail over shard by
//! shard). Checkpoints round-trip through the on-disk `HET-CKPT v1`
//! text format — footer, checksum, validation and all — so the recovery
//! path exercises exactly the bytes an operator would restore from, not
//! a privileged in-memory shortcut.
//!
//! Failing over restores the last checkpoint and *loses* every update
//! applied since it was taken. The loss is quantified as **clock
//! regression**: each embedding's global clock `c_g` counts the updates
//! applied to it, so `Σ (live clock − checkpointed clock)` over the
//! shard's keys is the exact number of vanished updates. Bounded
//! staleness then absorbs the regression the same way it absorbs stale
//! cached reads — which is the thesis of the fault-tolerance story.

use crate::checkpoint::{read_checkpoint, write_checkpoint};
use crate::server::PsServer;
use crate::Key;
use std::collections::HashMap;
use std::io;

/// What one shard failover did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailoverOutcome {
    /// The shard that failed over.
    pub shard: usize,
    /// Rows reinstalled from the checkpoint.
    pub rows_restored: usize,
    /// Keys that were live on the shard but absent from the checkpoint
    /// (they revert to lazy re-initialisation on next touch).
    pub keys_lost: usize,
    /// Total clock regression: updates applied since the checkpoint
    /// that the failover discarded.
    pub lost_updates: u64,
}

/// Per-shard checkpoint blobs in the `HET-CKPT v1` wire format.
pub struct ShardCheckpointStore {
    dim: usize,
    blobs: Vec<Option<Vec<u8>>>,
}

impl ShardCheckpointStore {
    /// An empty store for `n_shards` shards of `dim`-dimensional rows.
    pub fn new(n_shards: usize, dim: usize) -> Self {
        ShardCheckpointStore {
            dim,
            blobs: vec![None; n_shards],
        }
    }

    /// Number of shards tracked.
    pub fn n_shards(&self) -> usize {
        self.blobs.len()
    }

    /// Snapshots one shard through the wire format, replacing its
    /// previous checkpoint. Returns the number of rows captured. On
    /// error (e.g. a non-finite vector mid-divergence) the previous
    /// checkpoint is kept — a stale recovery point beats a corrupt one.
    pub fn checkpoint_shard(&mut self, server: &PsServer, shard: usize) -> io::Result<usize> {
        let rows = server.export_shard_rows(shard);
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, self.dim, &rows)?;
        self.blobs[shard] = Some(buf);
        if het_trace::enabled() {
            het_trace::counter_add_at("ps", "checkpoint_shards", Some(shard as u64), 1);
            het_trace::counter_add_at(
                "ps",
                "checkpoint_rows",
                Some(shard as u64),
                rows.len() as u64,
            );
        }
        Ok(rows.len())
    }

    /// Snapshots every shard; returns total rows captured.
    pub fn checkpoint_all(&mut self, server: &PsServer) -> io::Result<usize> {
        let mut total = 0;
        for shard in 0..self.blobs.len() {
            total += self.checkpoint_shard(server, shard)?;
        }
        Ok(total)
    }

    /// Crashes `shard` (dropping its live entries) and restores it from
    /// the last checkpoint — or to empty if none was ever taken. The
    /// outcome reports exactly what the failover lost.
    pub fn fail_and_restore(&self, server: &PsServer, shard: usize) -> io::Result<FailoverOutcome> {
        het_trace::counter_add_at("ps", "failovers", Some(shard as u64), 1);
        let live = server.clear_shard(shard);
        let rows = match &self.blobs[shard] {
            Some(blob) => read_checkpoint(blob.as_slice())?.1,
            None => Vec::new(),
        };
        let restored_clocks: HashMap<Key, u64> = rows.iter().map(|r| (r.key, r.clock)).collect();
        for row in &rows {
            server.restore_entry(row.key, row.vector.clone(), row.clock);
        }
        let mut outcome = FailoverOutcome {
            shard,
            rows_restored: rows.len(),
            ..Default::default()
        };
        for (key, live_clock) in live {
            match restored_clocks.get(&key) {
                Some(&ckpt_clock) => {
                    outcome.lost_updates += live_clock.saturating_sub(ckpt_clock);
                }
                None => {
                    outcome.keys_lost += 1;
                    outcome.lost_updates += live_clock;
                }
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::ServerOptimizer;
    use crate::server::PsConfig;

    fn server() -> PsServer {
        PsServer::new(PsConfig {
            dim: 2,
            n_shards: 4,
            lr: 0.5,
            seed: 11,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        })
    }

    /// Keys guaranteed to hash to distinct shards would be fragile;
    /// instead pick enough keys that every shard is populated.
    fn populate(s: &PsServer, n: u64, pushes: u64) {
        for k in 0..n {
            for _ in 0..pushes {
                s.push_inc(k, &[1.0, -1.0]);
            }
        }
    }

    #[test]
    fn failover_restores_checkpointed_state_exactly() {
        let s = server();
        populate(&s, 40, 2);
        let mut store = ShardCheckpointStore::new(s.n_shards(), s.dim());
        store.checkpoint_all(&s).unwrap();
        let snapshot: Vec<_> = (0..40).map(|k| s.pull(k)).collect();

        let shard = s.shard_index_of(7);
        let outcome = store.fail_and_restore(&s, shard).unwrap();
        assert_eq!(outcome.shard, shard);
        assert!(outcome.rows_restored > 0);
        assert_eq!(
            outcome.lost_updates, 0,
            "nothing written since the checkpoint"
        );
        for (k, before) in (0..40).zip(&snapshot) {
            assert_eq!(
                &s.pull(k),
                before,
                "key {k} must survive failover bit-identically"
            );
        }
    }

    #[test]
    fn updates_since_checkpoint_are_counted_as_clock_regression() {
        let s = server();
        populate(&s, 40, 1);
        let mut store = ShardCheckpointStore::new(s.n_shards(), s.dim());
        store.checkpoint_all(&s).unwrap();

        let shard = s.shard_index_of(3);
        // Apply post-checkpoint updates to keys on that shard only.
        let on_shard: Vec<u64> = (0..40).filter(|&k| s.shard_index_of(k) == shard).collect();
        assert!(on_shard.len() >= 2, "need several keys on the shard");
        for &k in &on_shard {
            s.push_inc(k, &[1.0, 1.0]);
            s.push_inc(k, &[1.0, 1.0]);
        }
        let outcome = store.fail_and_restore(&s, shard).unwrap();
        assert_eq!(outcome.lost_updates, 2 * on_shard.len() as u64);
        assert_eq!(outcome.keys_lost, 0);
        // Clocks regressed to the checkpoint.
        for &k in &on_shard {
            assert_eq!(s.clock_of(k), 1);
        }
    }

    #[test]
    fn keys_never_checkpointed_are_lost_entirely() {
        let s = server();
        populate(&s, 10, 1);
        let mut store = ShardCheckpointStore::new(s.n_shards(), s.dim());
        store.checkpoint_all(&s).unwrap();
        // A brand-new key materialises after the checkpoint.
        let fresh = (10..100)
            .find(|&k| s.shard_index_of(k) == s.shard_index_of(0))
            .unwrap();
        s.push_inc(fresh, &[1.0, 1.0]);

        let outcome = store.fail_and_restore(&s, s.shard_index_of(0)).unwrap();
        assert_eq!(outcome.keys_lost, 1);
        assert!(outcome.lost_updates >= 1);
        // The key reverts to deterministic lazy init on next touch.
        assert_eq!(s.clock_of(fresh), 0);
        let reinit = s.pull(fresh);
        assert_eq!(
            reinit,
            server().pull(fresh),
            "re-init must match a fresh server"
        );
    }

    #[test]
    fn failover_without_any_checkpoint_empties_the_shard() {
        let s = server();
        populate(&s, 20, 3);
        let store = ShardCheckpointStore::new(s.n_shards(), s.dim());
        let shard = 2;
        let live_keys: Vec<u64> = (0..20).filter(|&k| s.shard_index_of(k) == shard).collect();
        let outcome = store.fail_and_restore(&s, shard).unwrap();
        assert_eq!(outcome.rows_restored, 0);
        assert_eq!(outcome.keys_lost, live_keys.len());
        assert_eq!(outcome.lost_updates, 3 * live_keys.len() as u64);
        for &k in &live_keys {
            assert_eq!(s.clock_of(k), 0);
        }
    }

    #[test]
    fn other_shards_are_untouched_by_failover() {
        let s = server();
        populate(&s, 40, 2);
        let mut store = ShardCheckpointStore::new(s.n_shards(), s.dim());
        store.checkpoint_all(&s).unwrap();
        // More updates everywhere, then fail shard 1 only.
        populate(&s, 40, 1);
        let snapshot: Vec<_> = (0..40).map(|k| s.pull(k)).collect();
        let _ = store.fail_and_restore(&s, 1).unwrap();
        for (k, before) in (0..40).zip(&snapshot) {
            if s.shard_index_of(k) != 1 {
                assert_eq!(&s.pull(k), before, "key {k} on an unaffected shard changed");
            }
        }
    }
}
