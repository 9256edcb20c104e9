//! Executor counters: one [`counter_table!`](stgq_obs::counter_table)
//! declaration yields the [`ExecMetrics`] snapshot, its atomic twin
//! `ExecCounters` (with the fold of an engine's [`SearchStats`]), and
//! the row visitor the exposition and reports iterate.

use std::sync::atomic::Ordering;

use stgq_core::SearchStats;

stgq_obs::counter_table! {
    /// Point-in-time view of the executor's counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ExecMetrics in "exec" {
        /// Every answered ticket counts, collapsed clones and cache
        /// replays included.
        queries: counter "Planning queries served.",
        shard_jobs: counter "Shard jobs drained from the admission queue.",
        /// Admitted and drained, as opposed to
        /// [`Executor::execute_one`](crate::Executor::execute_one) inline
        /// calls.
        batched_entries: counter "Entries that went through the batched executor path.",
        /// Answered by cloning an identical same-job entry's result
        /// instead of solving again.
        collapsed_entries: counter "Batched entries answered by request collapsing.",
        cancelled: counter "Solves stopped early by a deadline or cancellation token.",
        /// Each one answered its own ticket with
        /// [`ExecError::Internal`](crate::ExecError::Internal); the thread
        /// replaced its pivot arena and kept serving.
        worker_panics: counter "Solves that panicked, contained to their own request.",
        snapshot_publishes: counter "World snapshots published into the epoch cell.",
        /// Graph segments + calendar blocks; for an incremental writer this
        /// tracks the dirty shards, not the world size.
        snapshot_shards_rebuilt: counter "Per-shard sub-snapshots actually rebuilt at publication.",
        /// The complement of
        /// [`snapshot_shards_rebuilt`](Self::snapshot_shards_rebuilt).
        snapshot_shards_reused: counter "Per-shard sub-snapshots carried over by Arc reuse.",
        frames_examined: counter "Search frames examined by exact engines." <- frames,
        frames_pruned_by_bound: counter "Frames abandoned by the incumbent distance bound (Lemma 2)." <- distance_prunes,
        pivots_skipped: counter "Whole pivots skipped by the pivot-granularity distance bound." <- pivots_skipped,
        peeled_candidates: counter "Candidates removed by (p,k)-core peeling before exact descent." <- peeled_candidates,
        pivots_refused_by_core: counter "Pivots refused because their peeled core could not seat a group." <- pivots_refused_by_core,
        frames_pruned_by_match: counter "Frames abandoned by the k-plex matching bound." <- frames_pruned_by_match,
        /// Child frames never opened at all.
        children_pruned_by_parent_bound: counter "Children retired at the parent frame by the completion bound." <- children_pruned_by_parent_bound,
        /// STGQ pivot preparation, per-solve run cache.
        prep_words_delta: counter "Availability words whose rebuild the run cache avoided." <- prep_words_delta,
        prep_words_rebuilt: counter "Availability words built from calendar words during preparation." <- prep_words_rebuilt,
        /// The worker's arena kept a candidate's run from an earlier solve
        /// and the snapshot's calendar-shard versions vouched it was still
        /// current (see `stgq_core::PivotArena::install_world_versions`).
        run_cache_cross_solve_hits: counter "Definition-4 runs served by the cross-solve run cache under the world-version handshake." <- run_cache_cross_solve_hits,
        /// Generated on feasible-cache misses by
        /// [`FeasibleView`](stgq_graph::FeasibleView) extraction: candidate
        /// rows masked directly against the snapshot's CSR segments.
        extract_words_borrowed: counter "Adjacency words generated in place by zero-copy feasible-view extraction.",
    }
    sampled {
        feasible_cache_hits: counter "Feasible-view cache hits.",
        feasible_cache_misses: counter "Feasible-view cache misses (each triggered an extraction).",
        cached_feasible_graphs: gauge "Feasible views currently cached.",
        /// Repeat queries across batches (and the inline path) whose
        /// stamped shards are all unmoved.
        result_cache_hits: counter "Whole answers replayed from the version-stamped result cache.",
        /// A fresh query, or a stamped shard moved on either axis.
        result_cache_misses: counter "Result-cache lookups that missed (fresh query or moved epoch).",
        cached_results: gauge "Outcomes currently held by the result cache.",
        /// Delta-scoped invalidation: a write confined to one community
        /// only ever evicts entries that read it.
        result_cache_evicted_stale_shard: counter "Result-cache entries evicted because a stamped shard moved.",
        result_cache_evicted_capacity: counter "Result-cache entries evicted to make room at capacity.",
        workers: gauge "Fixed worker-pool size.",
        shards: gauge "Initiator-shard count (cache partitions and batch groups).",
    }
    atomic pub(crate) struct ExecCounters from SearchStats;
}

impl ExecCounters {
    /// Count an answered query's stop cause. Lives at the *envelope* —
    /// every answer passes through it exactly once, whether the engine
    /// ran, the result cache replayed, or a within-batch clone collapsed
    /// — so `cancelled` cannot drift between the solve and fast paths.
    /// (`fold` deliberately does not look at `stats.cancelled`: it only
    /// runs when an engine did.)
    pub(crate) fn note_stop(&self, stop: stgq_core::StopCause) {
        if stop == stgq_core::StopCause::Cancelled {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }
}
