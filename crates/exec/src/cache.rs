//! The shard-partitioned, **delta-scoped** cache behind both of the
//! executor's fast paths: one generic [`StampedCache`], instantiated
//! twice.
//!
//! * **Feasible views**, keyed by `(initiator, s)`. Radius-graph
//!   extraction (§3.2.1) is the per-query fixed cost every engine pays;
//!   for a service handling repeated queries from the same initiators it
//!   is also the most cacheable: the candidate space depends only on the
//!   social graph, never on calendars, `p`, `k` or `m`.
//! * **Finished results**, keyed by `(initiator, spec, engine)`.
//!   Within-batch request collapsing only shares work between identical
//!   entries of *one* shard job; on a serving workload the same hot
//!   query recurs across batches (and through the inline
//!   [`execute_one`](crate::Executor::execute_one) path). Deterministic
//!   requests — no per-entry deadline or cancellation token — are safe to
//!   answer from a finished outcome as long as its stamps are fresh.
//!
//! # Two stamp axes → one freshness rule
//!
//! Entries are never flushed when the world moves. Instead, each entry
//! records the **read set** of the work that produced it — the
//! `(shard, shard_version)` pairs of every shard its feasible view's
//! vertices live in (see `WorldSnapshot::stamps_for`) — on two
//! axes, and every lookup re-validates both against the *current*
//! snapshot's per-shard version vectors:
//!
//! ```text
//!   put:    graph    = { (s, g[s]) | s ∈ shards(view) }
//!           calendar = { (s, c[s]) | s ∈ shards(view) }   STGQ results
//!                    = ∅                                  views, SGQ results
//!   lookup: fresh  ⇔ modulus matches ∧ ∀(s, v) ∈ graph: v == g'[s]
//!                                    ∧ ∀(s, v) ∈ calendar: v == c'[s]
//!           stale  ⇒ evict now (counted), miss
//! ```
//!
//! Feasible views and SGQ results carry no calendar stamps — a purely
//! social computation is immune to calendar edits, so those entries
//! survive every availability change. A mutation confined to one
//! community invalidates only the entries whose work read that
//! community's shards — everyone else's cached work survives the write.
//! The `from_flat` publication path floods every shard stamp with the
//! global version, which degrades this to whole-world invalidation.
//!
//! The cache is partitioned by **initiator shard** — the same partition
//! the batch scheduler groups jobs by — so concurrent workers touching
//! different shards never contend on one lock, and a shard job's
//! back-to-back same-initiator queries hit a warm shard. Each partition
//! evicts first-in, first-out at capacity.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use parking_lot::Mutex;
use stgq_graph::NodeId;

/// The read set an entry was produced from: shard versions on both
/// axes, taken under one shard modulus.
#[derive(Debug)]
pub(crate) struct Stamps {
    /// The shard modulus the stamps were taken under (stamps are
    /// meaningless across different partitions).
    pub(crate) modulus: usize,
    /// `(shard, graph_shard_version)` for every shard the work read.
    pub(crate) graph: Vec<(u32, u64)>,
    /// `(shard, calendar_shard_version)` over the same shards for STGQ
    /// results; empty for entries no calendar edit can change.
    pub(crate) calendar: Vec<(u32, u64)>,
}

impl Stamps {
    /// Whether every stamped shard is still at its stamped version in
    /// the current `graph` and `calendar` version vectors.
    fn fresh(&self, graph: &[u64], calendar: &[u64]) -> bool {
        let axis_fresh = |stamps: &[(u32, u64)], current: &[u64]| {
            self.modulus == current.len() && stamps.iter().all(|&(s, v)| current[s as usize] == v)
        };
        axis_fresh(&self.graph, graph) && axis_fresh(&self.calendar, calendar)
    }
}

/// Counters of a [`StampedCache`], aggregated over every partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CacheStats {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// Entries currently held.
    pub(crate) len: usize,
    /// Entries evicted at lookup because a stamped shard had moved.
    pub(crate) evicted_stale: u64,
    /// Entries evicted to make room at capacity.
    pub(crate) evicted_capacity: u64,
}

/// A bounded map from `(initiator, K)` to `V`, partitioned by
/// `initiator % shards`, whose entries are validated against their
/// [`Stamps`] at every lookup.
pub(crate) struct StampedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Zero disables the cache: every lookup misses without counting,
    /// every insert is dropped.
    per_shard: usize,
}

struct Shard<K, V> {
    entries: HashMap<(u32, K), (Stamps, V)>,
    insertion_order: VecDeque<(u32, K)>,
    /// Counters only; `len` is read off `entries` at aggregation.
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash, V: Clone> StampedCache<K, V> {
    /// `shards` partitions splitting `capacity` entries between them
    /// (`capacity == 0` disables the cache).
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        StampedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        insertion_order: VecDeque::new(),
                        stats: CacheStats::default(),
                    })
                })
                .collect(),
            per_shard: capacity.div_ceil(shards),
        }
    }

    /// The partition owning `initiator` (the batch scheduler uses the
    /// same mapping).
    fn shard(&self, initiator: NodeId) -> &Mutex<Shard<K, V>> {
        &self.shards[initiator.0 as usize % self.shards.len()]
    }

    /// The value cached for `(initiator, key)` if its stamps are fresh
    /// against the current `graph` and `calendar` shard versions. A
    /// stale entry is evicted on the spot (counted) and the lookup
    /// misses.
    pub(crate) fn get(
        &self,
        initiator: NodeId,
        key: K,
        graph: &[u64],
        calendar: &[u64],
    ) -> Option<V> {
        if self.per_shard == 0 {
            return None;
        }
        let key = (initiator.0, key);
        let mut shard = self.shard(initiator).lock();
        match shard.entries.get(&key) {
            Some((stamps, value)) if stamps.fresh(graph, calendar) => {
                let value = value.clone();
                shard.stats.hits += 1;
                Some(value)
            }
            Some(_) => {
                shard.entries.remove(&key);
                shard.insertion_order.retain(|k| *k != key);
                shard.stats.evicted_stale += 1;
                shard.stats.misses += 1;
                None
            }
            None => {
                shard.stats.misses += 1;
                None
            }
        }
    }

    /// Remember `value` for `(initiator, key)` with the read-set stamps
    /// of the work that produced it, evicting the oldest key at
    /// capacity. Replacing a key keeps its queue slot.
    pub(crate) fn put(&self, initiator: NodeId, key: K, stamps: Stamps, value: V) {
        if self.per_shard == 0 {
            return;
        }
        let key = (initiator.0, key);
        let mut shard = self.shard(initiator).lock();
        if shard.entries.insert(key, (stamps, value)).is_none() {
            shard.insertion_order.push_back(key);
            if shard.insertion_order.len() > self.per_shard {
                if let Some(oldest) = shard.insertion_order.pop_front() {
                    shard.entries.remove(&oldest);
                    shard.stats.evicted_capacity += 1;
                }
            }
        }
    }

    /// Counters summed over every partition.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            total.hits += shard.stats.hits;
            total.misses += shard.stats.misses;
            total.len += shard.entries.len();
            total.evicted_stale += shard.stats.evicted_stale;
            total.evicted_capacity += shard.stats.evicted_capacity;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-partition cache of `capacity`, keyed like the feasible
    /// cache (`s`) with a plain value standing in for the view.
    fn cache(capacity: usize) -> StampedCache<usize, u32> {
        StampedCache::new(1, capacity)
    }

    /// Graph-axis stamps: shard 0 of 2 read at version `v`.
    fn stamp0(v: u64) -> Stamps {
        Stamps {
            modulus: 2,
            graph: vec![(0, v)],
            calendar: Vec::new(),
        }
    }

    /// Graph and calendar stamps: shard 0 of 2 read on both axes, as an
    /// STGQ result is.
    fn stamp0_cal(g: u64, c: u64) -> Stamps {
        Stamps {
            calendar: vec![(0, c)],
            ..stamp0(g)
        }
    }

    /// Look up `(initiator, s = 1)` at graph versions `g`, with the
    /// calendar axis at `[0, 0]`.
    fn get(c: &StampedCache<usize, u32>, initiator: u32, g: &[u64]) -> Option<u32> {
        c.get(NodeId(initiator), 1, g, &[0, 0])
    }

    fn put(c: &StampedCache<usize, u32>, initiator: u32, stamps: Stamps) {
        c.put(NodeId(initiator), 1, stamps, initiator);
    }

    #[test]
    fn hit_requires_every_stamped_shard_unmoved() {
        let c = cache(4);
        put(&c, 0, stamp0(7));
        assert!(
            get(&c, 0, &[7, 3]).is_some(),
            "unstamped shard 1 is free to move"
        );
        assert!(get(&c, 0, &[7, 99]).is_some());
        assert!(get(&c, 0, &[8, 3]).is_none(), "stamped shard moved: stale");
        assert!(
            get(&c, 0, &[7, 3]).is_none(),
            "stale entry was evicted, not resurrected"
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.evicted_stale, 1, "only the moved stamp evicts");

        // The calendar axis obeys the same rule: a moved calendar stamp
        // evicts and counts, whatever the graph axis says…
        put(&c, 1, stamp0_cal(7, 5));
        assert!(c.get(NodeId(1), 1, &[7, 3], &[5, 0]).is_some());
        assert!(
            c.get(NodeId(1), 1, &[7, 3], &[5, 9]).is_some(),
            "unstamped calendar shard"
        );
        assert!(
            c.get(NodeId(1), 1, &[7, 3], &[6, 0]).is_none(),
            "calendar shard moved"
        );
        assert!(c.get(NodeId(1), 1, &[7, 3], &[5, 0]).is_none(), "evicted");
        assert_eq!(c.stats().evicted_stale, 2);

        // …while an entry with empty calendar stamps survives every
        // calendar move.
        put(&c, 2, stamp0(7));
        for cal in [[1, 1], [2, 9], [u64::MAX, 0]] {
            assert!(c.get(NodeId(2), 1, &[7, 3], &cal).is_some());
        }
        assert_eq!(c.stats().evicted_stale, 2);
    }

    #[test]
    fn shard_count_change_is_stale() {
        let c = cache(4);
        put(&c, 0, stamp0(7));
        assert!(
            get(&c, 0, &[7, 7, 7]).is_none(),
            "stamps under a different modulus never validate"
        );
        put(&c, 1, stamp0_cal(7, 7));
        assert!(
            c.get(NodeId(1), 1, &[7, 7], &[7, 7, 7]).is_none(),
            "on either axis"
        );
        assert_eq!(c.stats().evicted_stale, 2);
    }

    #[test]
    fn capacity_evicts_oldest_key() {
        let c = cache(2);
        put(&c, 0, stamp0(1));
        put(&c, 1, stamp0(1));
        put(&c, 2, stamp0(1));
        assert_eq!(c.stats().len, 2);
        assert_eq!(c.stats().evicted_capacity, 1);
        assert!(get(&c, 0, &[1, 1]).is_none(), "oldest key evicted");
        assert!(get(&c, 2, &[1, 1]).is_some());
        assert_eq!(
            c.stats().evicted_stale,
            0,
            "a capacity eviction is not stale"
        );
    }

    #[test]
    fn replacing_a_key_does_not_grow_the_order_queue() {
        let c = cache(2);
        for version in 0..10 {
            put(&c, 0, stamp0(version));
        }
        put(&c, 1, stamp0(0));
        assert_eq!(c.stats().len, 2);
        assert_eq!(c.stats().evicted_capacity, 0);
        assert!(get(&c, 0, &[9, 0]).is_some());
    }

    #[test]
    fn stale_eviction_then_reinsert_keeps_the_queue_consistent() {
        let c = cache(2);
        put(&c, 0, stamp0(1));
        put(&c, 1, stamp0(1));
        // Shard 0 moves: the first entry goes stale and is evicted.
        assert!(get(&c, 0, &[2, 1]).is_none());
        assert_eq!(c.stats().len, 1);
        // Re-inserting it must occupy a real queue slot again.
        put(&c, 0, stamp0(2));
        put(&c, 2, stamp0(2));
        assert_eq!(c.stats().len, 2, "capacity still enforced");
        assert!(get(&c, 1, &[2, 1]).is_none(), "oldest (key 1) evicted");
        assert!(get(&c, 0, &[2, 1]).is_some());
        assert!(get(&c, 2, &[2, 1]).is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = cache(0);
        put(&c, 0, stamp0(1));
        assert!(get(&c, 0, &[1, 1]).is_none());
        assert_eq!(
            c.stats(),
            CacheStats::default(),
            "lookups neither hit nor count, inserts are dropped"
        );
    }

    #[test]
    fn partitions_by_initiator() {
        let c: StampedCache<usize, u32> = StampedCache::new(4, 8);
        // Two slots per partition: initiators 0, 4 and 8 share one and
        // push each other out; initiator 1 lives elsewhere.
        for initiator in [0, 1, 4, 8] {
            put(&c, initiator, stamp0(1));
        }
        assert!(get(&c, 1, &[1, 1]).is_some(), "its own partition");
        assert!(
            get(&c, 0, &[1, 1]).is_none(),
            "evicted by 8 in a shared partition"
        );
        assert!(get(&c, 4, &[1, 1]).is_some());
        assert!(get(&c, 8, &[1, 1]).is_some());
        let s = c.stats();
        assert_eq!((s.len, s.evicted_capacity), (3, 1));
    }
}
