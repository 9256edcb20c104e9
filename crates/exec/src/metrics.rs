//! Executor counters.

use std::sync::atomic::{AtomicU64, Ordering};

use stgq_core::SearchStats;

/// Point-in-time view of the executor's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Queries executed (collapsed entries included — every answered
    /// ticket counts).
    pub queries: u64,
    /// Shard jobs drained from the admission queue.
    pub shard_jobs: u64,
    /// Entries that went through the batched path (admitted + drained, as
    /// opposed to [`Executor::execute_one`](crate::Executor::execute_one)
    /// inline calls).
    pub batched_entries: u64,
    /// Batched entries answered by cloning an identical same-job entry's
    /// result instead of solving again (request collapsing).
    pub collapsed_entries: u64,
    /// Solves stopped by cancellation or deadline.
    pub cancelled: u64,
    /// Feasible-graph cache hits, over every shard.
    pub feasible_cache_hits: u64,
    /// Feasible-graph cache misses (each triggered an extraction).
    pub feasible_cache_misses: u64,
    /// Feasible graphs currently cached, over every shard.
    pub cached_feasible_graphs: usize,
    /// Shard-stamped result-cache hits: whole outcomes replayed for
    /// repeat queries across batches (and the inline path) whose stamped
    /// shards are all unmoved.
    pub result_cache_hits: u64,
    /// Result-cache lookups that missed (fresh query, or a stamped shard
    /// moved on either the graph or the calendar axis).
    pub result_cache_misses: u64,
    /// Outcomes currently held by the result cache, over every shard.
    pub cached_results: usize,
    /// Result-cache entries evicted at lookup because a shard they were
    /// stamped with had moved (delta-scoped invalidation: a write
    /// confined to one community only ever evicts entries that read it).
    pub result_cache_evicted_stale_shard: u64,
    /// Result-cache entries evicted to make room at capacity.
    pub result_cache_evicted_capacity: u64,
    /// World snapshots published into the epoch cell.
    pub snapshot_publishes: u64,
    /// Per-shard sub-snapshots (graph segments + calendar blocks) that
    /// publication actually rebuilt — for an incremental writer this
    /// tracks the dirty shards, not the world size.
    pub snapshot_shards_rebuilt: u64,
    /// Per-shard sub-snapshots carried over by `Arc` reuse from the
    /// previous epoch (the complement of
    /// [`snapshot_shards_rebuilt`](Self::snapshot_shards_rebuilt)).
    pub snapshot_shards_reused: u64,
    /// Search frames examined by exact engines, summed over all queries.
    pub frames_examined: u64,
    /// Frames abandoned by the incumbent distance bound (Lemma 2).
    pub frames_pruned_by_bound: u64,
    /// Whole pivots skipped by the pivot-granularity distance bound.
    pub pivots_skipped: u64,
    /// Candidates removed by fixpoint (p, k)-core peeling before exact
    /// descent, summed over all exact queries.
    pub peeled_candidates: u64,
    /// Pivots refused outright because their peeled core could not seat
    /// a feasible group.
    pub pivots_refused_by_core: u64,
    /// Frames abandoned by the k-plex matching bound.
    pub frames_pruned_by_match: u64,
    /// Children retired at the parent frame by the per-candidate
    /// completion bound — child frames never opened at all.
    pub children_pruned_by_parent_bound: u64,
    /// Availability-buffer words whose rebuild was avoided by the
    /// incremental-prep run cache (STGQ pivot preparation).
    pub prep_words_delta: u64,
    /// Availability-buffer words actually built from calendar words
    /// during pivot preparation.
    pub prep_words_rebuilt: u64,
    /// Definition-4 runs served by the cross-solve run cache: the
    /// worker's arena kept a candidate's run from an earlier solve and
    /// the snapshot's calendar-shard versions vouched it was still
    /// current (see `stgq_core::PivotArena::install_world_versions`).
    pub run_cache_cross_solve_hits: u64,
    /// Adjacency words generated in place by zero-copy
    /// [`FeasibleView`](stgq_graph::FeasibleView) extraction on
    /// feasible-cache misses: candidate rows masked directly against
    /// the snapshot's CSR segments, no per-query graph materialized.
    pub extract_words_borrowed: u64,
    /// Fixed worker-pool size.
    pub workers: usize,
    /// Initiator-shard count (cache partitions = batch groups).
    pub shards: usize,
}

/// The live (atomic) side of [`ExecMetrics`].
#[derive(Default)]
pub(crate) struct ExecCounters {
    pub(crate) queries: AtomicU64,
    pub(crate) shard_jobs: AtomicU64,
    pub(crate) batched_entries: AtomicU64,
    pub(crate) collapsed_entries: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) snapshot_publishes: AtomicU64,
    pub(crate) snapshot_shards_rebuilt: AtomicU64,
    pub(crate) snapshot_shards_reused: AtomicU64,
    pub(crate) frames_examined: AtomicU64,
    pub(crate) frames_pruned_by_bound: AtomicU64,
    pub(crate) pivots_skipped: AtomicU64,
    pub(crate) peeled_candidates: AtomicU64,
    pub(crate) pivots_refused_by_core: AtomicU64,
    pub(crate) frames_pruned_by_match: AtomicU64,
    pub(crate) children_pruned_by_parent_bound: AtomicU64,
    pub(crate) prep_words_delta: AtomicU64,
    pub(crate) prep_words_rebuilt: AtomicU64,
    pub(crate) run_cache_cross_solve_hits: AtomicU64,
    pub(crate) extract_words_borrowed: AtomicU64,
}

impl ExecCounters {
    /// Fold an exact engine's search counters into the totals.
    pub(crate) fn note_search(&self, stats: &SearchStats) {
        self.frames_examined
            .fetch_add(stats.frames_examined(), Ordering::Relaxed);
        self.frames_pruned_by_bound
            .fetch_add(stats.frames_pruned_by_bound(), Ordering::Relaxed);
        self.pivots_skipped
            .fetch_add(stats.pivots_skipped, Ordering::Relaxed);
        self.peeled_candidates
            .fetch_add(stats.peeled_candidates, Ordering::Relaxed);
        self.pivots_refused_by_core
            .fetch_add(stats.pivots_refused_by_core, Ordering::Relaxed);
        self.frames_pruned_by_match
            .fetch_add(stats.frames_pruned_by_match, Ordering::Relaxed);
        self.children_pruned_by_parent_bound
            .fetch_add(stats.children_pruned_by_parent_bound, Ordering::Relaxed);
        self.prep_words_delta
            .fetch_add(stats.prep_words_delta, Ordering::Relaxed);
        self.prep_words_rebuilt
            .fetch_add(stats.prep_words_rebuilt, Ordering::Relaxed);
        self.run_cache_cross_solve_hits
            .fetch_add(stats.run_cache_cross_solve_hits, Ordering::Relaxed);
    }

    /// Count an answered query's stop cause. Lives at the *envelope* —
    /// every answer passes through it exactly once, whether the engine
    /// ran, the result cache replayed, or a within-batch clone collapsed
    /// — so `cancelled` cannot drift between the solve and fast paths.
    /// (`note_search` deliberately does not look at `stats.cancelled`:
    /// it only runs when an engine did.)
    pub(crate) fn note_stop(&self, stop: stgq_core::StopCause) {
        if stop == stgq_core::StopCause::Cancelled {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }
}
