//! Sharded transposition table over canonical reachable-set keys.
//!
//! The table stores **refutations only**: an entry `S → r` means "no
//! suffix of at most `r` layers sorts the reachable set `S`". That fact
//! is absolute (independent of which prefix produced `S`, of the
//! iterative-deepening round, and of thread timing), so the table can be
//! shared freely across tasks, threads, and budget rounds without
//! compromising the engine's determinism: a probe can only remove
//! branches that would fail anyway, never change which network is found.
//!
//! Successes are deliberately *not* cached — a Sat result's move list
//! depends on the remaining budget, and replaying one out of order could
//! make the reported network depend on thread scheduling.
//!
//! Capacity is bounded: once a shard is full, new facts are dropped
//! (existing entries still deepen). Dropping facts affects speed only,
//! never soundness.

use snet_obs::ShardedCounter;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

const SHARDS: usize = 64;

/// A concurrent map from canonical state words to the deepest budget the
/// state is known to fail.
pub struct TransTable {
    shards: Vec<Mutex<HashMap<Box<[u64]>, u8>>>,
    capacity_per_shard: usize,
    /// New facts dropped because their shard was at capacity ("evictions"
    /// in the at-admission sense — the table never removes entries).
    evictions: ShardedCounter,
}

impl TransTable {
    /// A table holding at most `capacity` facts across all shards.
    pub fn new(capacity: usize) -> Self {
        let capacity_per_shard = capacity.div_ceil(SHARDS).max(1);
        TransTable {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard,
            evictions: ShardedCounter::new(),
        }
    }

    /// Locks shard `i`, ignoring poison: each critical section is one
    /// map operation, so a worker that panicked left the map whole.
    fn shard(&self, i: usize) -> MutexGuard<'_, HashMap<Box<[u64]>, u8>> {
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shard_of(key: &[u64]) -> usize {
        // FNV-1a over the words; only shard selection, the map hashes again.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in key {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % SHARDS as u64) as usize
    }

    /// The deepest budget `key` is known to fail, if any.
    pub fn failed_budget(&self, key: &[u64]) -> Option<u8> {
        self.shard(Self::shard_of(key)).get(key).copied()
    }

    /// Records that `key` fails every suffix of at most `budget` layers.
    /// Keeps the maximum of the old and new budgets; returns `true` if the
    /// table changed.
    pub fn record_failure(&self, key: &[u64], budget: u8) -> bool {
        let mut shard = self.shard(Self::shard_of(key));
        if let Some(existing) = shard.get_mut(key) {
            if *existing < budget {
                *existing = budget;
                return true;
            }
            return false;
        }
        if shard.len() >= self.capacity_per_shard {
            self.evictions.add(1);
            return false; // full: drop the fact, correctness unaffected
        }
        shard.insert(key.into(), budget);
        true
    }

    /// Number of new facts dropped at admission because their shard was
    /// full. A nonzero value means the configured capacity is throttling
    /// pruning (`--tt-capacity` is the lever).
    pub fn evictions(&self) -> u64 {
        self.evictions.sum()
    }

    /// Number of facts currently stored.
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.shard(i).len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots every fact as `(key, budget)` pairs, sorted by key so
    /// the export is deterministic for a given fact set. Used to spill
    /// the table into the artifact store between runs.
    pub fn export(&self) -> Vec<(Vec<u64>, u8)> {
        let mut out: Vec<(Vec<u64>, u8)> = Vec::with_capacity(self.len());
        for i in 0..SHARDS {
            out.extend(self.shard(i).iter().map(|(k, &b)| (k.to_vec(), b)));
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Seeds the table with previously exported facts, keeping the
    /// deeper budget on collision and respecting the capacity cap.
    /// Returns the number of facts that changed the table. Sound for the
    /// same reason cross-thread sharing is: a spilled refutation is an
    /// absolute fact about its state, so absorbing one can only prune
    /// subtrees that would fail anyway.
    pub fn absorb(&self, facts: impl IntoIterator<Item = (Vec<u64>, u8)>) -> usize {
        facts.into_iter().filter(|(key, budget)| self.record_failure(key, *budget)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_keep_the_deepest_refutation() {
        let tt = TransTable::new(1024);
        let key = [0b1011u64, 0];
        assert_eq!(tt.failed_budget(&key), None);
        assert!(tt.record_failure(&key, 2));
        assert_eq!(tt.failed_budget(&key), Some(2));
        assert!(!tt.record_failure(&key, 1), "shallower fact is a no-op");
        assert_eq!(tt.failed_budget(&key), Some(2));
        assert!(tt.record_failure(&key, 5));
        assert_eq!(tt.failed_budget(&key), Some(5));
        assert_eq!(tt.len(), 1);
    }

    #[test]
    fn capacity_cap_drops_new_facts_but_deepens_existing() {
        let tt = TransTable::new(SHARDS); // one entry per shard
        let mut stored = Vec::new();
        for i in 0..10_000u64 {
            let key = [i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)];
            if tt.record_failure(&key, 1) {
                stored.push(key);
            }
        }
        assert!(tt.len() <= SHARDS);
        assert!(!stored.is_empty());
        assert!(tt.evictions() > 0, "capped inserts count as evictions");
        // Existing entries still deepen after the cap is hit.
        assert!(tt.record_failure(&stored[0], 7));
        assert_eq!(tt.failed_budget(&stored[0]), Some(7));
    }

    #[test]
    fn export_absorb_roundtrips_facts() {
        let tt = TransTable::new(1024);
        tt.record_failure(&[5, 1], 3);
        tt.record_failure(&[2, 9], 6);
        let exported = tt.export();
        assert_eq!(exported, vec![(vec![2, 9], 6), (vec![5, 1], 3)], "sorted by key");

        let warm = TransTable::new(1024);
        warm.record_failure(&[5, 1], 7); // already knows a deeper fact
        assert_eq!(warm.absorb(exported), 1, "only the new fact lands");
        assert_eq!(warm.failed_budget(&[5, 1]), Some(7), "deeper budget survives");
        assert_eq!(warm.failed_budget(&[2, 9]), Some(6));
    }

    #[test]
    fn concurrent_use_is_safe() {
        let tt = TransTable::new(1 << 16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tt = &tt;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let key = [i % 97, t];
                        tt.record_failure(&key, (i % 7) as u8);
                        let _ = tt.failed_budget(&key);
                    }
                });
            }
        });
        assert!(!tt.is_empty());
    }
}
