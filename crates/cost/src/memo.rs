//! Cross-run memoization of candidate costing.
//!
//! The interface search re-visits the same DiffTree forest many times —
//! within one MCTS run (transpositions), across that run's parallel
//! worker trees, and across successive `Pi2::generate` calls over the
//! same notebook log. Mapping a forest to candidates and costing each
//! candidate dominates generation latency, so [`CostMemo`] caches the
//! whole `map → choose_best` outcome behind a two-part key:
//!
//! * a **context fingerprint** — everything besides the forest that the
//!   outcome depends on (query log, cost weights, screen, mapper flags),
//!   hashed once per pipeline by the caller;
//! * the forest's order-insensitive `structural_hash`.
//!
//! Entries store the winning interface, its cost breakdown, and the
//! candidate count, so a hit skips both mapping and costing entirely.
//! Storage is lock-sharded for the parallel search's concurrent lookups,
//! and bounded: a shard that fills is cleared wholesale, so a memo shared
//! by a long-lived server holds at most 4096 entries.

use crate::CostBreakdown;
use parking_lot::Mutex;
use pi2_interface::Interface;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The memoized outcome of mapping a forest and choosing its best
/// candidate. `None`-valued entries (see [`CostMemo::get_or_compute`])
/// record forests whose mapping failed.
#[derive(Debug, Clone, PartialEq)]
pub struct CostedChoice {
    /// The winning candidate interface.
    pub interface: Interface,
    /// Its cost breakdown (may be infinite if inexpressive).
    pub breakdown: CostBreakdown,
    /// How many candidates were enumerated and costed.
    pub candidates_considered: usize,
}

const MEMO_SHARDS: usize = 16;

/// Entries a [`CostMemo`] holds at most, split evenly across its shards.
/// A default-budget search costs at most one new forest per iteration
/// (200 per worker tree), so the cap keeps several generations' forests —
/// enough for a regeneration over an unchanged log to hit — while bounding
/// what a long-lived server's shared memo can grow to.
const MEMO_CAP: usize = 4096;
const SHARD_CAP: usize = MEMO_CAP / MEMO_SHARDS;

/// One lock shard: memoized outcomes keyed by `(context, structural hash)`.
/// `None` records a deterministic mapping failure.
type MemoShard = HashMap<(u64, u64), Option<Arc<CostedChoice>>>;

/// A lock-sharded, thread-safe cache of [`CostedChoice`] outcomes keyed by
/// `(context fingerprint, forest structural hash)`.
#[derive(Debug)]
pub struct CostMemo {
    shards: Vec<Mutex<MemoShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for CostMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl CostMemo {
    /// An empty memo.
    pub fn new() -> Self {
        CostMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<MemoShard> {
        let mixed = (key.0 ^ key.1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % MEMO_SHARDS]
    }

    /// The memoized outcome for this `(context, forest)` pair, computing
    /// and caching it on a miss. `compute` returning `None` (mapping
    /// failed) is cached too — failure is as deterministic as success.
    ///
    /// Computation happens outside the shard lock; concurrent threads may
    /// race to fill the same key, and whichever insert lands last wins —
    /// benign, because `compute` is a pure function of the key.
    pub fn get_or_compute(
        &self,
        context: u64,
        forest_hash: u64,
        compute: impl FnOnce() -> Option<CostedChoice>,
    ) -> Option<Arc<CostedChoice>> {
        let key = (context, forest_hash);
        if let Some(entry) = self.shard(key).lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return entry.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = compute().map(Arc::new);
        let mut shard = self.shard(key).lock();
        if shard.len() >= SHARD_CAP && !shard.contains_key(&key) {
            shard.clear();
        }
        shard.insert(key, entry.clone());
        entry
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to map and cost.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized forests (across all contexts).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of lookups served from cache, if any were made.
    pub fn hit_rate(&self) -> Option<f64> {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }
}

/// A stable fingerprint of cost weights (for building context
/// fingerprints): hashes the exact f64 bit patterns, so any weight change
/// invalidates memoized outcomes.
pub fn weights_fingerprint(w: &crate::CostWeights) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in [
        w.viz,
        w.interaction,
        w.layout,
        w.views,
        w.generalization,
        w.redundancy_penalty,
        w.nested_choice_penalty,
    ] {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Stable, order-sensitive combination of fingerprint parts into one
/// `u64`. The shared building block for composite cache keys (the cost
/// memo's context fingerprint, the fleet generation-cache key): callers
/// hash each input with its own `fingerprint()` helper and combine the
/// parts here, so every layer composes keys the same way.
pub fn combine_fingerprints(parts: &[u64]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    parts.len().hash(&mut h);
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_interface::{Interface, Layout, ScreenSpec};

    fn entry(total: f64) -> CostedChoice {
        CostedChoice {
            interface: Interface {
                charts: Vec::new(),
                widgets: Vec::new(),
                layout: Layout::Vertical(Vec::new()),
                screen: ScreenSpec::default(),
            },
            breakdown: CostBreakdown {
                expressive: total.is_finite(),
                viz: 0.0,
                interaction: 0.0,
                layout: 0.0,
                views: 0.0,
                generalization: 0.0,
                total,
            },
            candidates_considered: 1,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let memo = CostMemo::new();
        let mut computed = 0;
        for _ in 0..3 {
            let got = memo.get_or_compute(1, 42, || {
                computed += 1;
                Some(entry(2.0))
            });
            assert_eq!(got.unwrap().breakdown.total, 2.0);
        }
        assert_eq!(computed, 1);
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hit_rate(), Some(2.0 / 3.0));
    }

    #[test]
    fn contexts_do_not_collide() {
        let memo = CostMemo::new();
        memo.get_or_compute(1, 42, || Some(entry(1.0)));
        let other = memo.get_or_compute(2, 42, || Some(entry(9.0)));
        assert_eq!(other.unwrap().breakdown.total, 9.0);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn failures_are_cached() {
        let memo = CostMemo::new();
        let mut computed = 0;
        for _ in 0..2 {
            let got = memo.get_or_compute(0, 7, || {
                computed += 1;
                None
            });
            assert!(got.is_none());
        }
        assert_eq!(computed, 1);
    }

    #[test]
    fn len_stays_within_the_cap_and_values_stay_right() {
        let memo = CostMemo::new();
        let keys = 2 * MEMO_CAP as u64 + 17;
        for round in 0..2 {
            for k in 0..keys {
                let got = memo.get_or_compute(round, k, || Some(entry(k as f64)));
                assert_eq!(got.unwrap().breakdown.total, k as f64);
                assert!(memo.len() <= MEMO_CAP, "memo grew to {} entries", memo.len());
            }
        }
        assert_eq!(memo.hits() + memo.misses(), 2 * keys);
    }

    #[test]
    fn combined_fingerprints_are_order_sensitive_and_stable() {
        assert_eq!(combine_fingerprints(&[1, 2, 3]), combine_fingerprints(&[1, 2, 3]));
        assert_ne!(combine_fingerprints(&[1, 2, 3]), combine_fingerprints(&[3, 2, 1]));
        assert_ne!(combine_fingerprints(&[]), combine_fingerprints(&[0]));
    }

    #[test]
    fn weight_changes_change_the_fingerprint() {
        let a = crate::CostWeights::default();
        let mut b = crate::CostWeights::default();
        b.viz += 0.25;
        assert_ne!(weights_fingerprint(&a), weights_fingerprint(&b));
        assert_eq!(weights_fingerprint(&a), weights_fingerprint(&crate::CostWeights::default()));
    }
}
