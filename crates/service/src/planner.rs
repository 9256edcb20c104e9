//! The query front end — since the `stgq-exec` extraction, a **thin
//! façade** over the execution subsystem.
//!
//! The planner owns the *mutable* world (the [`MutableNetwork`] and the
//! [`CalendarStore`]) and an [`Executor`] owning everything about
//! *answering* queries: the epoch-swapped immutable snapshots, the
//! shard-partitioned feasible-graph cache, engine dispatch, the
//! admission queue + batch scheduler + fixed worker pool, and the
//! execution counters. Mutations stay planner methods (`&mut self`,
//! version-bumping); before any query the planner compares the mutable
//! versions against the executor's published epoch and republishes on
//! drift — an `Arc` swap that never blocks in-flight solves.
//!
//! Single queries ([`plan_sgq`](Planner::plan_sgq) /
//! [`plan_stgq`](Planner::plan_stgq)) run inline on the caller's thread
//! (low latency, shared caches); batches
//! ([`plan_batch`](Planner::plan_batch)) go through admission → shard
//! batching → the worker pool, where identical entries are collapsed
//! and same-initiator entries share cache locality.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stgq_core::{
    SearchStats, SelectConfig, SgqQuery, SgqSolution, SolveOutcome, StgqQuery, StgqSolution,
};
use stgq_exec::{
    Engine, ExecConfig, ExecError, ExecMetrics, Executor, PlanOutcome, PlanRequest, QuerySpec,
    WorldSnapshot,
};
use stgq_graph::{Dist, NodeId, SocialGraph};
use stgq_schedule::{Calendar, SlotRange};

use crate::delta::{DeltaLog, DeltaRecord, WorldDelta, WorldState, DEFAULT_DELTA_LOG_CAPACITY};
use crate::{republish, CalendarStore, MutableNetwork, ServiceError};

/// Answer to an SGQ planning request, with provenance.
#[derive(Clone, Debug)]
pub struct SgqReport {
    /// The group found, `None` if the engine found none (for exact engines
    /// this proves infeasibility; for heuristics it does not).
    pub solution: Option<SgqSolution>,
    /// Search counters (exact engines only).
    pub stats: Option<SearchStats>,
    /// Feasibility evaluations (heuristic engines only).
    pub evaluations: Option<u64>,
    /// Whether the answer is proven optimal / proven infeasible.
    pub exact: bool,
    /// The engine that produced it.
    pub engine: Engine,
    /// Wall-clock time inside the engine (excludes cache work).
    pub elapsed: std::time::Duration,
    /// Whether the feasible graph came from the cache.
    pub feasible_cache_hit: bool,
    /// Whether the whole answer was replayed from the version-stamped
    /// result cache (identical earlier query on an unchanged world).
    pub result_cache_hit: bool,
}

/// Answer to an STGQ planning request, with provenance.
#[derive(Clone, Debug)]
pub struct StgqReport {
    /// The (group, period) found, `None` if the engine found none.
    pub solution: Option<StgqSolution>,
    /// Search counters (exact engines only).
    pub stats: Option<SearchStats>,
    /// Feasibility evaluations (heuristic engines only).
    pub evaluations: Option<u64>,
    /// Whether the answer is proven optimal / proven infeasible.
    pub exact: bool,
    /// The engine that produced it.
    pub engine: Engine,
    /// Wall-clock time inside the engine (excludes cache work).
    pub elapsed: std::time::Duration,
    /// Whether the feasible graph came from the cache.
    pub feasible_cache_hit: bool,
    /// Whether the whole answer was replayed from the version-stamped
    /// result cache (identical earlier query on an unchanged world).
    pub result_cache_hit: bool,
}

/// One entry of a [`Planner::plan_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct BatchQuery {
    /// Who is asking.
    pub initiator: NodeId,
    /// What is being asked (SGQ or STGQ).
    pub spec: QuerySpec,
    /// Which solver answers it.
    pub engine: Engine,
}

/// One entry of a [`Planner::plan_batch`] answer: the matching report
/// kind for the submitted [`QuerySpec`].
#[derive(Clone, Debug)]
pub enum PlanReply {
    /// The entry was an SGQ.
    Sgq(SgqReport),
    /// The entry was an STGQ.
    Stgq(StgqReport),
}

impl PlanReply {
    /// The objective value, if a solution was found.
    pub fn objective(&self) -> Option<Dist> {
        match self {
            PlanReply::Sgq(r) => r.solution.as_ref().map(|s| s.total_distance),
            PlanReply::Stgq(r) => r.solution.as_ref().map(|s| s.total_distance),
        }
    }

    /// Whether the answer is proven optimal / proven infeasible.
    pub fn exact(&self) -> bool {
        match self {
            PlanReply::Sgq(r) => r.exact,
            PlanReply::Stgq(r) => r.exact,
        }
    }

    /// The SGQ report, if this entry was an SGQ.
    pub fn as_sgq(&self) -> Option<&SgqReport> {
        match self {
            PlanReply::Sgq(r) => Some(r),
            PlanReply::Stgq(_) => None,
        }
    }

    /// The STGQ report, if this entry was an STGQ.
    pub fn as_stgq(&self) -> Option<&StgqReport> {
        match self {
            PlanReply::Sgq(_) => None,
            PlanReply::Stgq(r) => Some(r),
        }
    }
}

/// Point-in-time view of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Planning queries served.
    pub queries: u64,
    /// Mutations applied (network + calendar).
    pub mutations: u64,
    /// Feasible-graph cache hits.
    pub feasible_cache_hits: u64,
    /// Feasible-graph cache misses (each triggered an extraction).
    pub feasible_cache_misses: u64,
    /// CSR snapshot rebuilds.
    pub snapshot_rebuilds: u64,
    /// Feasible graphs currently cached.
    pub cached_feasible_graphs: usize,
    /// Search frames examined by exact engines, summed over all queries
    /// served (the quantity the search-reduction work drives down).
    pub frames_examined: u64,
    /// Frames abandoned by the incumbent distance bound (Lemma 2), summed
    /// over all exact queries.
    pub frames_pruned_by_bound: u64,
    /// Whole pivots skipped by the pivot-granularity distance bound,
    /// summed over all exact STGQ queries.
    pub pivots_skipped: u64,
    /// Candidates removed by fixpoint (p, k)-core peeling before exact
    /// descent, summed over all exact queries.
    pub peeled_candidates: u64,
    /// Pivots refused outright because their peeled core could not seat
    /// a feasible group, summed over all exact STGQ queries.
    pub pivots_refused_by_core: u64,
    /// Frames abandoned by the k-plex matching bound, summed over all
    /// exact queries.
    pub frames_pruned_by_match: u64,
    /// Children retired at the parent frame by the per-candidate
    /// completion bound (child frames never opened), summed over all
    /// exact queries.
    pub children_pruned_by_parent_bound: u64,
    /// Availability-buffer words whose rebuild was avoided by the
    /// incremental-prep run cache, summed over all exact STGQ queries.
    pub prep_words_delta: u64,
    /// Availability-buffer words actually built from calendar words
    /// during pivot preparation, summed over all exact STGQ queries.
    pub prep_words_rebuilt: u64,
    /// Definition-4 runs served by the workers' cross-solve run caches
    /// under the world-version handshake, summed over all exact STGQ
    /// queries.
    pub run_cache_cross_solve_hits: u64,
    /// Adjacency words generated in place by zero-copy `FeasibleView`
    /// extraction on feasible-cache misses (candidate rows masked
    /// against the snapshot's CSR segments).
    pub extract_words_borrowed: u64,
    /// Entries that went through the batched executor path.
    pub batched_entries: u64,
    /// Batched entries answered by request collapsing (solved once,
    /// shared within a shard job).
    pub collapsed_entries: u64,
    /// Whole answers replayed from the version-stamped result cache
    /// (repeat queries across batches and the inline path on an
    /// unchanged world).
    pub result_cache_hits: u64,
    /// Result-cache lookups that missed (fresh query or moved epoch).
    pub result_cache_misses: u64,
    /// Result-cache entries evicted at lookup because a shard they were
    /// stamped with had moved (delta-scoped invalidation).
    pub result_cache_evicted_stale_shard: u64,
    /// Result-cache entries evicted to make room at capacity.
    pub result_cache_evicted_capacity: u64,
    /// Per-shard sub-snapshots publication actually rebuilt (dirty
    /// shards, graph + calendar axes).
    pub snapshot_shards_rebuilt: u64,
    /// Per-shard sub-snapshots carried over by `Arc` reuse from the
    /// previous epoch.
    pub snapshot_shards_reused: u64,
    /// Solves stopped early by a deadline or cancellation token.
    pub cancelled: u64,
}

/// A long-lived activity-planning service instance.
///
/// Mutations take `&mut self`; planning queries take `&self` (their
/// caching is interior), so a read-write lock around the whole planner —
/// see [`crate::SharedPlanner`] — gives concurrent queries for free.
pub struct Planner {
    network: MutableNetwork,
    calendars: CalendarStore,
    exec: Executor,
    /// Serialises snapshot publication so concurrent readers racing the
    /// same version drift rebuild once, not once each.
    publish_lock: Mutex<()>,
    /// Replication feed: every mutation appended with its resulting
    /// version stamps (in a `Mutex` only so read-side accessors take
    /// `&self`; mutations already hold `&mut self`).
    deltas: Mutex<DeltaLog>,
    mutations: AtomicU64,
    snapshot_rebuilds: AtomicU64,
}

/// Default bound on distinct `(initiator, s)` feasible graphs kept.
const DEFAULT_CACHE_CAPACITY: usize = 256;

impl Planner {
    /// A fresh service over `horizon` time slots, with the paper's default
    /// engine configuration.
    pub fn new(horizon: usize) -> Self {
        Planner::with_config(horizon, SelectConfig::default(), DEFAULT_CACHE_CAPACITY)
    }

    /// Full-control constructor (engine configuration + feasible-graph
    /// cache capacity, with default executor sizing).
    pub fn with_config(horizon: usize, cfg: SelectConfig, cache_capacity: usize) -> Self {
        Planner::with_exec_config(
            horizon,
            ExecConfig {
                select: cfg,
                cache_capacity,
                ..ExecConfig::default()
            },
        )
    }

    /// Fullest-control constructor: every executor knob (worker count,
    /// shard count, batch threshold) is the caller's.
    pub fn with_exec_config(horizon: usize, cfg: ExecConfig) -> Self {
        let exec = Executor::new(cfg);
        let mut network = MutableNetwork::new();
        let mut calendars = CalendarStore::new(horizon);
        // Dirty-shard tracking shares the executor's modulus so
        // publication can map moved stamps directly onto sub-snapshots.
        network.set_shard_count(exec.shards());
        calendars.set_shard_count(exec.shards());
        Planner {
            network,
            calendars,
            exec,
            publish_lock: Mutex::new(()),
            deltas: Mutex::new(DeltaLog::new(DEFAULT_DELTA_LOG_CAPACITY)),
            mutations: AtomicU64::new(0),
            snapshot_rebuilds: AtomicU64::new(0),
        }
    }

    /// Rebuild a planner from a captured [`WorldState`] **preserving its
    /// version stamps and delta sequence** — the writer-failover path: a
    /// promoted replica's mirror becomes the new writer, and every future
    /// mutation continues the cluster's global version numbering instead
    /// of restarting from zero (version stamps key result and
    /// feasible-graph caches across the fleet, so a restart would alias
    /// old cached answers onto new world content).
    ///
    /// The new delta log is empty but numbered after `state.seq`: any
    /// replica asking for earlier history sees a gap and repairs through
    /// a full sync, which is correct — the promoted writer holds the
    /// state, not the mutation history that produced it.
    pub fn restore(state: &WorldState, cfg: ExecConfig) -> Result<Self, ServiceError> {
        let exec = Executor::new(cfg);
        let (mut network, mut calendars) = state.restore()?;
        // Track, then flood: a restored world has no per-shard history,
        // so every shard is stamped at the carried global version.
        network.set_shard_count(exec.shards());
        calendars.set_shard_count(exec.shards());
        network.force_version(state.graph_version);
        calendars.force_version(state.calendar_version);
        Ok(Planner {
            network,
            calendars,
            exec,
            publish_lock: Mutex::new(()),
            deltas: Mutex::new(DeltaLog::resume(DEFAULT_DELTA_LOG_CAPACITY, state.seq)),
            mutations: AtomicU64::new(0),
            snapshot_rebuilds: AtomicU64::new(0),
        })
    }

    /// The engine configuration planning queries run with (the
    /// search-reduction knobs — seeding, pivot ordering, buffer pooling —
    /// are [`SelectConfig`] fields, so they are set at construction via
    /// [`with_config`](Self::with_config) and read back here).
    pub fn config(&self) -> SelectConfig {
        self.exec.select_config()
    }

    /// Replace the engine configuration for subsequent queries. Exactness
    /// is config-independent; only search effort changes.
    pub fn set_config(&mut self, cfg: SelectConfig) {
        self.exec.set_select_config(cfg);
    }

    /// The execution subsystem behind this planner — for direct batch
    /// submission with deadlines/cancellation tokens, executor metrics,
    /// or snapshot inspection.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    // -- mutations ----------------------------------------------------

    /// Append a mutation to the replication feed, stamped with the
    /// version counters it produced.
    fn record_delta(&mut self, delta: WorldDelta) {
        self.deltas
            .lock()
            .record(delta, self.network.version(), self.calendars.version());
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }

    /// Register a person; their calendar starts fully unavailable.
    pub fn add_person(&mut self, label: impl Into<String>) -> NodeId {
        let label = label.into();
        let id = self.network.add_person(label.clone());
        self.calendars.ensure_people(self.network.person_count());
        self.record_delta(WorldDelta::AddPerson { label });
        id
    }

    /// Create or re-weight a friendship.
    pub fn connect(&mut self, a: NodeId, b: NodeId, distance: Dist) -> Result<(), ServiceError> {
        self.network.connect(a, b, distance)?;
        self.record_delta(WorldDelta::Connect { a, b, distance });
        Ok(())
    }

    /// Remove a friendship; reports whether it existed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> Result<bool, ServiceError> {
        let existed = self.network.disconnect(a, b)?;
        if existed {
            self.record_delta(WorldDelta::Disconnect { a, b });
        }
        Ok(existed)
    }

    /// Tombstone a person (id stays, edges and eligibility disappear).
    pub fn remove_person(&mut self, person: NodeId) -> Result<(), ServiceError> {
        self.network.remove_person(person)?;
        self.record_delta(WorldDelta::RemovePerson { person });
        Ok(())
    }

    /// Mark one slot (un)available.
    pub fn set_availability(
        &mut self,
        person: NodeId,
        slot: usize,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.network.check_person(person)?;
        self.calendars.set_slot(person.index(), slot, available)?;
        self.record_delta(WorldDelta::SetSlot {
            person,
            slot,
            available,
        });
        Ok(())
    }

    /// Mark a slot range (un)available.
    pub fn set_availability_range(
        &mut self,
        person: NodeId,
        range: SlotRange,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.network.check_person(person)?;
        self.calendars.set_range(person.index(), range, available)?;
        self.record_delta(WorldDelta::SetRange {
            person,
            range,
            available,
        });
        Ok(())
    }

    /// Replace a whole calendar (horizon must match the store).
    pub fn set_calendar(&mut self, person: NodeId, calendar: Calendar) -> Result<(), ServiceError> {
        self.network.check_person(person)?;
        self.calendars.replace(person.index(), calendar.clone())?;
        self.record_delta(WorldDelta::SetCalendar { person, calendar });
        Ok(())
    }

    // -- replication feed ----------------------------------------------

    /// The sequence number of the last recorded mutation (0 when none) —
    /// what a fully caught-up replica has applied.
    pub fn delta_seq(&self) -> u64 {
        self.deltas.lock().last_seq()
    }

    /// Every recorded mutation after `have_seq`, oldest first, or `None`
    /// when the bounded log has already evicted that far back (a **gap**:
    /// the replica needs a [`world_state`](Self::world_state) full sync).
    pub fn deltas_since(&self, have_seq: u64) -> Option<Vec<DeltaRecord>> {
        self.deltas.lock().since(have_seq)
    }

    /// A complete, self-contained copy of the world at the current
    /// versions — the full-sync payload for a replica attaching fresh or
    /// fallen behind the delta log.
    pub fn world_state(&self) -> WorldState {
        let n = self.network.person_count();
        WorldState {
            horizon: self.calendars.horizon(),
            labels: (0..n)
                .map(|v| {
                    self.network
                        .label(NodeId(v as u32))
                        .expect("ids below person_count are allocated")
                        .to_string()
                })
                .collect(),
            active: (0..n)
                .map(|v| self.network.is_active(NodeId(v as u32)))
                .collect(),
            edges: self.network.edge_list(),
            calendars: self.calendars.calendars().to_vec(),
            graph_version: self.network.version(),
            calendar_version: self.calendars.version(),
            seq: self.delta_seq(),
        }
    }

    /// Shrink or grow the delta log's retention. Shrinking may evict
    /// history and force attached replicas through a full sync on their
    /// next catch-up — which is exactly what the gap-path tests use it
    /// for.
    pub fn set_delta_log_capacity(&mut self, capacity: usize) {
        self.deltas.lock().set_capacity(capacity);
    }

    // -- reads ----------------------------------------------------------

    /// The underlying network (read-only).
    pub fn network(&self) -> &MutableNetwork {
        &self.network
    }

    /// The underlying calendar store (read-only).
    pub fn calendars(&self) -> &CalendarStore {
        &self.calendars
    }

    /// Service counters (the execution-side counters come from the
    /// [`Executor`]; see [`exec_metrics`](Self::exec_metrics) for the
    /// full executor view).
    pub fn metrics(&self) -> MetricsSnapshot {
        let e = self.exec.metrics();
        MetricsSnapshot {
            queries: e.queries,
            mutations: self.mutations.load(Ordering::Relaxed),
            feasible_cache_hits: e.feasible_cache_hits,
            feasible_cache_misses: e.feasible_cache_misses,
            snapshot_rebuilds: self.snapshot_rebuilds.load(Ordering::Relaxed),
            cached_feasible_graphs: e.cached_feasible_graphs,
            frames_examined: e.frames_examined,
            frames_pruned_by_bound: e.frames_pruned_by_bound,
            pivots_skipped: e.pivots_skipped,
            peeled_candidates: e.peeled_candidates,
            pivots_refused_by_core: e.pivots_refused_by_core,
            frames_pruned_by_match: e.frames_pruned_by_match,
            children_pruned_by_parent_bound: e.children_pruned_by_parent_bound,
            prep_words_delta: e.prep_words_delta,
            prep_words_rebuilt: e.prep_words_rebuilt,
            run_cache_cross_solve_hits: e.run_cache_cross_solve_hits,
            extract_words_borrowed: e.extract_words_borrowed,
            batched_entries: e.batched_entries,
            collapsed_entries: e.collapsed_entries,
            result_cache_hits: e.result_cache_hits,
            result_cache_misses: e.result_cache_misses,
            result_cache_evicted_stale_shard: e.result_cache_evicted_stale_shard,
            result_cache_evicted_capacity: e.result_cache_evicted_capacity,
            snapshot_shards_rebuilt: e.snapshot_shards_rebuilt,
            snapshot_shards_reused: e.snapshot_shards_reused,
            cancelled: e.cancelled,
        }
    }

    /// The raw executor counters (shard jobs, snapshot publishes, pool
    /// sizing — everything [`MetricsSnapshot`] doesn't surface).
    pub fn exec_metrics(&self) -> ExecMetrics {
        self.exec.metrics()
    }

    /// A flat CSR export of the current network — a fresh build on every
    /// call (the serving path holds sharded snapshots; this flat view
    /// exists for oracle checks and offline analysis).
    pub fn graph_snapshot(&self) -> Arc<SocialGraph> {
        Arc::new(self.network.snapshot())
    }

    /// Ensure the executor's published epoch matches the mutable state,
    /// republishing **only the dirty shards** through [`republish`]: each
    /// sub-snapshot (graph segment / calendar block) whose stamp still
    /// matches the mutable store's per-shard version is carried over by
    /// `Arc` from the previous epoch, and each moved one is *patched* from
    /// its previous-epoch copy — only the rows stamped since are re-read —
    /// so a delta confined to one community costs a copy of one shard plus
    /// its dirty rows, not a re-freeze of the world. Returns the fresh
    /// epoch.
    fn sync_snapshot(&self) -> Arc<WorldSnapshot> {
        let versions = (self.network.version(), self.calendars.version());
        let current = self.exec.snapshot();
        if let Some(snap) = &current {
            if snap.versions() == versions {
                return Arc::clone(snap);
            }
        }
        let _guard = self.publish_lock.lock();
        // Re-check under the lock: a racing reader may have published.
        let current = self.exec.snapshot();
        if let Some(snap) = &current {
            if snap.versions() == versions {
                return Arc::clone(snap);
            }
        }
        let (snapshot, graph_moved) = republish(
            &self.network,
            &self.calendars,
            self.exec.shards(),
            current.as_deref(),
            versions,
        );
        if graph_moved {
            self.snapshot_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        let snapshot = Arc::new(snapshot);
        self.exec.publish_snapshot(Arc::clone(&snapshot));
        snapshot
    }

    /// Executor errors the façade's pre-validation should have made
    /// impossible; surface the nearest service error rather than panic.
    fn exec_error(e: ExecError) -> ServiceError {
        match e {
            ExecError::InitiatorOutOfRange {
                initiator,
                node_count,
            } => ServiceError::UnknownPerson {
                person: initiator,
                person_count: node_count,
            },
            ExecError::NoSnapshot | ExecError::EpochTooOld { .. } | ExecError::ShuttingDown => {
                ServiceError::ExecutorUnavailable {
                    reason: e.to_string(),
                }
            }
        }
    }

    fn sgq_report(outcome: PlanOutcome) -> SgqReport {
        let PlanOutcome {
            outcome,
            evaluations,
            exact,
            engine,
            elapsed,
            feasible_cache_hit,
            result_cache_hit,
            ..
        } = outcome;
        let SolveOutcome::Sgq(out) = outcome else {
            unreachable!("SGQ request produced an STGQ outcome");
        };
        SgqReport {
            solution: out.solution,
            stats: engine.reports_search_stats().then_some(out.stats),
            evaluations,
            exact,
            engine,
            elapsed,
            feasible_cache_hit,
            result_cache_hit,
        }
    }

    fn stgq_report(outcome: PlanOutcome) -> StgqReport {
        let PlanOutcome {
            outcome,
            evaluations,
            exact,
            engine,
            elapsed,
            feasible_cache_hit,
            result_cache_hit,
            ..
        } = outcome;
        let SolveOutcome::Stgq(out) = outcome else {
            unreachable!("STGQ request produced an SGQ outcome");
        };
        StgqReport {
            solution: out.solution,
            stats: engine.reports_search_stats().then_some(out.stats),
            evaluations,
            exact,
            engine,
            elapsed,
            feasible_cache_hit,
            result_cache_hit,
        }
    }

    /// Answer an SGQ with the chosen engine (inline on this thread,
    /// against the current epoch).
    pub fn plan_sgq(
        &self,
        initiator: NodeId,
        query: &SgqQuery,
        engine: Engine,
    ) -> Result<SgqReport, ServiceError> {
        self.network.check_person(initiator)?;
        self.sync_snapshot();
        let request = PlanRequest::new(initiator, QuerySpec::Sgq(*query), engine);
        let outcome = self.exec.execute_one(request).map_err(Self::exec_error)?;
        Ok(Self::sgq_report(outcome))
    }

    /// Answer an STGQ with the chosen engine (inline on this thread,
    /// against the current epoch).
    pub fn plan_stgq(
        &self,
        initiator: NodeId,
        query: &StgqQuery,
        engine: Engine,
    ) -> Result<StgqReport, ServiceError> {
        self.network.check_person(initiator)?;
        self.sync_snapshot();
        let request = PlanRequest::new(initiator, QuerySpec::Stgq(*query), engine);
        let outcome = self.exec.execute_one(request).map_err(Self::exec_error)?;
        Ok(Self::stgq_report(outcome))
    }

    /// Answer a whole batch of mixed SGQ/STGQ queries through the
    /// executor's batched path: admission → initiator-shard grouping →
    /// the fixed worker pool (identical entries collapsed, same-shard
    /// entries cache-local). Replies come back in input order; entries
    /// with an invalid initiator fail individually without poisoning the
    /// batch. Exact engines return bit-identical objectives to solving
    /// the same queries one by one.
    pub fn plan_batch(&self, queries: &[BatchQuery]) -> Vec<Result<PlanReply, ServiceError>> {
        // Pre-validate so invalid entries never reach admission, and so
        // valid entries keep batching even when some fail.
        let checked: Vec<Result<(), ServiceError>> = queries
            .iter()
            .map(|q| self.network.check_person(q.initiator))
            .collect();
        if checked.iter().any(|c| c.is_ok()) {
            self.sync_snapshot();
        }
        let requests: Vec<PlanRequest> = queries
            .iter()
            .zip(&checked)
            .filter(|(_, c)| c.is_ok())
            .map(|(q, _)| PlanRequest::new(q.initiator, q.spec, q.engine))
            .collect();
        let mut executed = self.exec.execute_batch(requests).into_iter();
        checked
            .into_iter()
            .map(|check| {
                check.and_then(|()| {
                    let outcome = executed
                        .next()
                        .expect("one executed entry per validated query")
                        .map_err(Self::exec_error)?;
                    Ok(match &outcome.outcome {
                        SolveOutcome::Sgq(_) => PlanReply::Sgq(Self::sgq_report(outcome)),
                        SolveOutcome::Stgq(_) => PlanReply::Stgq(Self::stgq_report(outcome)),
                    })
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_core::{solve_sgq, solve_stgq};

    /// A 6-person service: triangle a-b-c close to each other, d-e further
    /// out, f isolated.
    fn demo() -> (Planner, Vec<NodeId>) {
        demo_with(ExecConfig::default())
    }

    /// As [`demo`], with explicit executor sizing (the cache-probing
    /// tests disable the result cache so repeats exercise the layer
    /// under test instead of replaying).
    fn demo_with(cfg: ExecConfig) -> (Planner, Vec<NodeId>) {
        let mut p = Planner::with_exec_config(12, cfg);
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|l| p.add_person(*l))
            .collect();
        p.connect(ids[0], ids[1], 2).unwrap();
        p.connect(ids[0], ids[2], 3).unwrap();
        p.connect(ids[1], ids[2], 1).unwrap();
        p.connect(ids[0], ids[3], 8).unwrap();
        p.connect(ids[3], ids[4], 2).unwrap();
        for &id in &ids {
            p.set_availability_range(id, SlotRange::new(2, 9), true)
                .unwrap();
        }
        (p, ids)
    }

    #[test]
    fn exact_sgq_end_to_end() {
        let (p, ids) = demo();
        let q = SgqQuery::new(3, 1, 0).unwrap();
        let report = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        let sol = report.solution.unwrap();
        assert_eq!(sol.total_distance, 5);
        assert!(report.exact);
        assert!(report.stats.is_some());
    }

    #[test]
    fn cache_hits_within_a_version_and_misses_after_mutation() {
        let (mut p, ids) = demo_with(ExecConfig {
            result_cache_capacity: 0,
            ..ExecConfig::default()
        });
        let q = SgqQuery::new(3, 1, 0).unwrap();
        let r1 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r1.feasible_cache_hit);
        let r2 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(r2.feasible_cache_hit, "same version must hit");

        p.connect(ids[0], ids[4], 4).unwrap();
        let r3 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r3.feasible_cache_hit, "network mutation must invalidate");
    }

    #[test]
    fn answers_match_solving_from_scratch_after_each_mutation() {
        let (mut p, ids) = demo();
        let q = SgqQuery::new(3, 2, 1).unwrap();
        type Mutation = Box<dyn Fn(&mut Planner)>;
        let mutations: Vec<Mutation> = vec![
            Box::new(move |pl| pl.connect(NodeId(0), NodeId(4), 4).map(|_| ()).unwrap()),
            Box::new(move |pl| {
                pl.disconnect(NodeId(1), NodeId(2)).map(|_| ()).unwrap();
            }),
            Box::new(move |pl| pl.connect(NodeId(2), NodeId(3), 2).map(|_| ()).unwrap()),
            Box::new(move |pl| pl.remove_person(NodeId(1)).unwrap()),
        ];
        for m in mutations {
            m(&mut p);
            let via_service = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap().solution;
            let oracle = solve_sgq(
                &p.network().snapshot(),
                ids[0],
                &q,
                &SelectConfig::default(),
            )
            .unwrap()
            .solution;
            assert_eq!(
                via_service.map(|s| s.total_distance),
                oracle.map(|s| s.total_distance),
                "cached path must equal solving from scratch"
            );
        }
    }

    #[test]
    fn calendar_edits_change_stgq_answers_without_touching_graph_cache() {
        let (mut p, ids) = demo();
        let q = StgqQuery::new(3, 1, 0, 3).unwrap();
        let r1 = p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(r1.solution.is_some());

        // Blocking b's whole calendar makes the triangle unschedulable.
        p.set_availability_range(ids[1], SlotRange::new(0, 11), false)
            .unwrap();
        let r2 = p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(
            r2.feasible_cache_hit,
            "calendar edits must not invalidate the feasible-graph cache"
        );
        let d1 = r1.solution.unwrap().total_distance;
        match &r2.solution {
            None => {}
            Some(s) => assert!(s.total_distance > d1, "b was in the only cheap group"),
        }
        // Oracle cross-check.
        let oracle = solve_stgq(
            &p.network().snapshot(),
            ids[0],
            p.calendars().calendars(),
            &q,
            &SelectConfig::default(),
        )
        .unwrap()
        .solution;
        assert_eq!(
            r2.solution.map(|s| s.total_distance),
            oracle.map(|s| s.total_distance)
        );
    }

    #[test]
    fn all_engines_dominate_or_match_the_exact_objective() {
        let (p, ids) = demo();
        let q = SgqQuery::new(3, 2, 1).unwrap();
        let exact = p
            .plan_sgq(ids[0], &q, Engine::Exact)
            .unwrap()
            .solution
            .unwrap()
            .total_distance;
        for engine in [
            Engine::ExactParallel { threads: 2 },
            Engine::Anytime {
                frame_budget: 1_000_000,
            },
            Engine::Greedy { restarts: 3 },
            Engine::LocalSearch {
                restarts: 3,
                passes: 4,
            },
        ] {
            let r = p.plan_sgq(ids[0], &q, engine).unwrap();
            if let Some(sol) = r.solution {
                assert!(sol.total_distance >= exact, "{engine:?}");
                if matches!(
                    engine,
                    Engine::ExactParallel { .. } | Engine::Anytime { .. }
                ) {
                    assert_eq!(sol.total_distance, exact, "{engine:?} is exact here");
                }
            }
        }
    }

    #[test]
    fn tombstoned_initiator_is_rejected() {
        let (mut p, ids) = demo();
        p.remove_person(ids[5]).unwrap();
        let q = SgqQuery::new(2, 1, 1).unwrap();
        assert!(matches!(
            p.plan_sgq(ids[5], &q, Engine::Exact),
            Err(ServiceError::RemovedPerson { .. })
        ));
        assert!(matches!(
            p.plan_sgq(NodeId(77), &q, Engine::Exact),
            Err(ServiceError::UnknownPerson { .. })
        ));
    }

    #[test]
    fn metrics_reflect_activity() {
        let (p, ids) = demo_with(ExecConfig {
            result_cache_capacity: 0,
            ..ExecConfig::default()
        });
        let q = SgqQuery::new(3, 1, 0).unwrap();
        let m0 = p.metrics();
        assert!(m0.mutations > 0, "setup mutations counted");
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        p.plan_sgq(ids[1], &q, Engine::Exact).unwrap();
        let m = p.metrics();
        assert_eq!(m.queries, 3);
        assert_eq!(m.feasible_cache_hits, 1);
        assert_eq!(m.feasible_cache_misses, 2);
        assert_eq!(m.cached_feasible_graphs, 2);
        assert_eq!(
            m.snapshot_rebuilds, 1,
            "one snapshot serves both extractions"
        );
    }

    #[test]
    fn result_cache_replays_repeats_and_invalidates_on_mutation() {
        let (mut p, ids) = demo();
        let q = SgqQuery::new(3, 1, 0).unwrap();
        let r1 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r1.result_cache_hit);
        let r2 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(r2.result_cache_hit, "identical repeat on one epoch replays");
        assert_eq!(
            r2.solution.as_ref().map(|s| s.total_distance),
            r1.solution.as_ref().map(|s| s.total_distance)
        );
        let m = p.metrics();
        assert_eq!(m.result_cache_hits, 1);
        assert!(m.result_cache_misses >= 1);

        // Delta-scoped stamps sharpen the old "any mutation invalidates"
        // rule: an SGQ reads no calendars, so a calendar edit leaves its
        // entry replayable…
        p.set_availability(ids[0], 11, true).unwrap();
        let r3 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(
            r3.result_cache_hit,
            "a calendar edit cannot stale an SGQ answer"
        );
        // …while a graph edit inside the entry's read set re-solves.
        p.connect(ids[0], ids[4], 4).unwrap();
        let r4 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r4.result_cache_hit, "a touched graph shard must re-solve");
    }

    #[test]
    fn a_delta_rebuilds_only_its_own_shards() {
        // Two residue-class communities under 4 shards: people 0,4,8,…
        // (shard 0) and 1,5,9,… (shard 1).
        let mut p = Planner::with_exec_config(
            8,
            ExecConfig {
                workers: 1,
                shards: 4,
                ..ExecConfig::default()
            },
        );
        let ids: Vec<NodeId> = (0..12).map(|i| p.add_person(format!("p{i}"))).collect();
        for c in 0..2u32 {
            let members: Vec<NodeId> = ids.iter().copied().filter(|v| v.0 % 4 == c).collect();
            for w in members.windows(2) {
                p.connect(w[0], w[1], 1).unwrap();
            }
            for &m in &members {
                p.set_availability_range(m, SlotRange::new(0, 7), true)
                    .unwrap();
            }
        }
        let q = SgqQuery::new(3, 1, 0).unwrap();
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap(); // first publish
        let m0 = p.metrics();

        // A graph delta confined to community 0 (shard 0) republished:
        // exactly one graph segment rebuilds, everything else is reused.
        p.connect(ids[0], ids[8], 2).unwrap();
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        let m1 = p.metrics();
        assert_eq!(m1.snapshot_shards_rebuilt - m0.snapshot_shards_rebuilt, 1);
        assert_eq!(m1.snapshot_shards_reused - m0.snapshot_shards_reused, 7);

        // A calendar delta in community 1 likewise republishes one block.
        p.set_availability(ids[1], 3, false).unwrap();
        p.plan_sgq(ids[1], &q, Engine::Exact).unwrap();
        let m2 = p.metrics();
        assert_eq!(m2.snapshot_shards_rebuilt - m1.snapshot_shards_rebuilt, 1);
        assert_eq!(m2.snapshot_shards_reused - m1.snapshot_shards_reused, 7);
        assert_eq!(
            m2.snapshot_rebuilds, m1.snapshot_rebuilds,
            "no graph segment moved, so no graph rebuild is counted"
        );

        // The answers stay correct under all that reuse.
        let oracle = solve_sgq(
            &p.network().snapshot(),
            ids[0],
            &q,
            &SelectConfig::default(),
        )
        .unwrap()
        .solution
        .map(|s| s.total_distance);
        let served = p
            .plan_sgq(ids[0], &q, Engine::Exact)
            .unwrap()
            .solution
            .map(|s| s.total_distance);
        assert_eq!(served, oracle);
    }

    #[test]
    fn cache_entries_survive_writes_outside_their_shards() {
        // Community queries keep replaying while an unrelated community
        // churns — the delta-scoped half of the tentpole.
        let mut p = Planner::with_exec_config(
            8,
            ExecConfig {
                workers: 1,
                shards: 4,
                ..ExecConfig::default()
            },
        );
        let ids: Vec<NodeId> = (0..12).map(|i| p.add_person(format!("p{i}"))).collect();
        for c in 0..2u32 {
            let members: Vec<NodeId> = ids.iter().copied().filter(|v| v.0 % 4 == c).collect();
            for w in members.windows(2) {
                p.connect(w[0], w[1], 1).unwrap();
            }
        }
        let q = SgqQuery::new(3, 1, 0).unwrap();
        assert!(
            !p.plan_sgq(ids[0], &q, Engine::Exact)
                .unwrap()
                .result_cache_hit
        );
        assert!(
            !p.plan_sgq(ids[1], &q, Engine::Exact)
                .unwrap()
                .result_cache_hit
        );

        // Churn community 1 (shard 1): community 0's entry must survive,
        // community 1's must be evicted as stale — and nothing else.
        p.connect(ids[1], ids[9], 5).unwrap();
        let r0 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(
            r0.result_cache_hit,
            "shard-0 entry outlives a shard-1 write"
        );
        let r1 = p.plan_sgq(ids[1], &q, Engine::Exact).unwrap();
        assert!(!r1.result_cache_hit, "shard-1 entry is stale");
        let m = p.metrics();
        assert_eq!(m.result_cache_evicted_stale_shard, 1);
        assert_eq!(m.result_cache_evicted_capacity, 0);
    }

    #[test]
    fn delta_feed_replays_into_an_identical_world() {
        let (mut p, ids) = demo();
        p.disconnect(ids[0], ids[3]).unwrap();
        p.set_availability(ids[4], 1, true).unwrap();

        // A replica attaching from scratch: replay every delta.
        let records = p.deltas_since(0).expect("fresh log holds everything");
        assert_eq!(records.len() as u64, p.delta_seq());
        let mut network = MutableNetwork::new();
        let mut calendars = CalendarStore::new(12);
        for r in &records {
            r.delta.apply(&mut network, &mut calendars).unwrap();
        }
        // Replaying the total mutation order reproduces the version
        // counters exactly — the invariant snapshot stamping relies on.
        let last = records.last().unwrap();
        assert_eq!(network.version(), last.graph_version);
        assert_eq!(calendars.version(), last.calendar_version);
        assert_eq!(network.version(), p.network().version());
        assert_eq!(calendars.version(), p.calendars().version());
        assert_eq!(network.edge_list(), p.network().edge_list());
        assert_eq!(calendars.calendars(), p.calendars().calendars());

        // Full-sync state restores the same world (modulo counters).
        let state = p.world_state();
        let (restored_net, restored_cals) = state.restore().unwrap();
        assert_eq!(restored_net.edge_list(), p.network().edge_list());
        assert_eq!(restored_cals.calendars(), p.calendars().calendars());
        assert_eq!(state.seq, p.delta_seq());
    }

    #[test]
    fn shrinking_the_delta_log_creates_gaps() {
        let (mut p, ids) = demo();
        let seq = p.delta_seq();
        assert!(seq > 2);
        p.set_delta_log_capacity(2);
        assert_eq!(p.deltas_since(0), None, "evicted history is a gap");
        assert!(p.deltas_since(seq - 1).is_some(), "recent tail survives");
        // New mutations keep flowing with continuous sequence numbers.
        p.set_availability(ids[0], 0, true).unwrap();
        assert_eq!(p.delta_seq(), seq + 1);
    }

    #[test]
    fn search_metrics_accumulate_across_exact_queries_only() {
        let (p, ids) = demo();
        let q = StgqQuery::new(3, 1, 0, 3).unwrap();
        let m0 = p.metrics();
        assert_eq!(m0.frames_examined + m0.pivots_skipped, 0);
        p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        let m1 = p.metrics();
        assert!(
            m1.frames_examined + m1.pivots_skipped > 0,
            "a feasible exact solve either examines frames or skips pivots"
        );
        p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        let m2 = p.metrics();
        assert!(
            m2.frames_examined + m2.pivots_skipped >= m1.frames_examined + m1.pivots_skipped,
            "counters are cumulative"
        );
        // Heuristic engines report no search stats and must not move them.
        p.plan_stgq(ids[0], &q, Engine::Greedy { restarts: 2 })
            .unwrap();
        let m3 = p.metrics();
        assert_eq!(m3.frames_examined, m2.frames_examined);
        assert_eq!(m3.pivots_skipped, m2.pivots_skipped);
    }

    #[test]
    fn config_round_trips_and_is_tunable() {
        let mut p = Planner::with_config(12, SelectConfig::NO_SEARCH_REDUCTION, 8);
        assert_eq!(p.config().seed_restarts, 0);
        assert!(!p.config().pivot_promise_order);
        p.set_config(SelectConfig::default());
        assert_eq!(p.config().seed_restarts, 2);
        assert!(p.config().pivot_promise_order);
    }

    #[test]
    fn anytime_reports_truncation_honestly() {
        let (p, ids) = demo();
        let q = SgqQuery::new(4, 2, 1).unwrap();
        let r = p
            .plan_sgq(ids[0], &q, Engine::Anytime { frame_budget: 1 })
            .unwrap();
        if let Some(stats) = r.stats {
            assert_eq!(r.exact, !stats.truncated);
            assert!(!stats.cancelled, "a budget stop is not a cancellation");
        }
        let r = p
            .plan_sgq(
                ids[0],
                &q,
                Engine::Anytime {
                    frame_budget: 1_000_000,
                },
            )
            .unwrap();
        assert!(r.exact, "a generous budget finishes this tiny instance");
    }

    #[test]
    fn batch_replies_in_input_order_with_per_entry_errors() {
        let (p, ids) = demo();
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let stgq = StgqQuery::new(3, 1, 0, 3).unwrap();
        let batch = vec![
            BatchQuery {
                initiator: ids[0],
                spec: QuerySpec::Sgq(sgq),
                engine: Engine::Exact,
            },
            BatchQuery {
                initiator: NodeId(99),
                spec: QuerySpec::Sgq(sgq),
                engine: Engine::Exact,
            },
            BatchQuery {
                initiator: ids[0],
                spec: QuerySpec::Stgq(stgq),
                engine: Engine::Exact,
            },
        ];
        let replies = p.plan_batch(&batch);
        assert_eq!(replies.len(), 3);
        let first = replies[0].as_ref().unwrap();
        assert_eq!(first.objective(), Some(5));
        assert!(first.as_sgq().is_some());
        assert!(matches!(
            replies[1],
            Err(ServiceError::UnknownPerson { .. })
        ));
        let third = replies[2].as_ref().unwrap();
        assert!(third.as_stgq().is_some());
        assert!(third.exact());
    }

    #[test]
    fn batch_matches_sequential_planning() {
        let (p, ids) = demo();
        let sgq = SgqQuery::new(3, 2, 1).unwrap();
        let stgq = StgqQuery::new(3, 1, 0, 3).unwrap();
        let batch: Vec<BatchQuery> = (0..3)
            .flat_map(|i| {
                [
                    BatchQuery {
                        initiator: ids[i],
                        spec: QuerySpec::Sgq(sgq),
                        engine: Engine::Exact,
                    },
                    BatchQuery {
                        initiator: ids[i],
                        spec: QuerySpec::Stgq(stgq),
                        engine: Engine::Exact,
                    },
                ]
            })
            .collect();
        let replies = p.plan_batch(&batch);
        for (query, reply) in batch.iter().zip(&replies) {
            let reply = reply.as_ref().unwrap();
            let sequential = match query.spec {
                QuerySpec::Sgq(q) => p
                    .plan_sgq(query.initiator, &q, query.engine)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance),
                QuerySpec::Stgq(q) => p
                    .plan_stgq(query.initiator, &q, query.engine)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance),
            };
            assert_eq!(reply.objective(), sequential);
        }
    }
}
