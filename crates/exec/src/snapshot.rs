//! Epoch-swapped immutable world snapshots, published **shard by
//! shard**.
//!
//! The executor's read path never sees mutable state: every solve runs
//! against a [`WorldSnapshot`] — the social graph as `S` residue-class
//! CSR segments ([`GraphSegment`], vertex `v` homed in shard `v % S`)
//! plus the calendars partitioned the same way into flat word blocks
//! ([`CalendarBlock`], person `v`'s availability at row `v / S` of block
//! `v % S`), each shard carrying the **version it was last mutated at**. `S` is the same initiator-shard
//! modulus the batch scheduler and both caches use, so a mutation
//! touching one person dirties exactly the shard that also keys their
//! cached work.
//!
//! The lifecycle, end to end:
//!
//! ```text
//!            writer (planner, or a cluster node's mirror)
//!   WorldDelta ──touch──▶ per-shard and per-row version stamps move
//!                         on the touched shards and rows only
//!                │ publish: patch the touched shards' previous
//!                │          segments/blocks (re-read only the rows
//!                │          stamped since), Arc-reuse the other S − 1
//!                ▼
//!   WorldSnapshot { segments[0..S], shard versions v[0..S] }
//!                │ one Arc swap into the epoch cell
//!                ▼
//!   solve (q, s): extract the feasible graph, note the set R of
//!                 shards its vertices live in
//!                ▼
//!   cache entry stamped { (s, v[s]) | s ∈ R }   — the shard-local
//!   versions the solve actually read; a later lookup is fresh iff
//!   every stamp still matches the current snapshot's vector
//! ```
//!
//! Writers build a fresh snapshot and [`publish`](SnapshotCell::publish)
//! it: one `Arc` swap under a short lock. In-flight solves keep the
//! epoch they started with alive through their own `Arc` and drop it
//! when done — **writers never block in-flight solves, and solves never
//! block writers**. Because untouched shards are `Arc`-reused, a delta
//! confined to one community republishes in O(dirty shard), not O(n) —
//! the property that opens the 10^5–10^6-member regime. And because a
//! dirty shard is *patched* from its previous-epoch copy
//! ([`GraphSegment::patch`], [`CalendarBlock::patch`]) rather than
//! re-frozen from the mutable store, that O(dirty shard) is a handful of
//! slice copies plus the rows the delta actually touched. The writers'
//! shared assembly loop is `stgq_service::republish`.
//!
//! The per-shard stamps obey one invariant the caches rely on: **equal
//! shard version ⇒ identical shard content**. Writers maintain it by
//! stamping a shard with the global version counter at its last
//! mutation; [`WorldSnapshot::from_flat`] (the compat path with no dirty
//! tracking) floods every shard with the global stamp, which degrades to
//! whole-world invalidation — correct, just not incremental.

use std::sync::Arc;

use parking_lot::Mutex;
use stgq_graph::{AdjacencySource, CandidateTopology, GraphSegment, ShardedGraph, SocialGraph};
use stgq_schedule::{Calendar, CalendarBlock, CalendarShards};

use crate::cache::Stamps;

/// One immutable epoch of the world: shard-partitioned graph segments
/// and calendar blocks, each stamped with the version it was built at,
/// plus the global `(graph_version, calendar_version)` pair.
#[derive(Clone, Debug)]
pub struct WorldSnapshot {
    graph: ShardedGraph,
    calendars: CalendarShards,
    graph_shard_versions: Vec<u64>,
    calendar_shard_versions: Vec<u64>,
    graph_version: u64,
    calendar_version: u64,
}

impl WorldSnapshot {
    /// Assemble an epoch from per-shard parts — the incremental
    /// publication path: the writer passes `Arc`-reused segments and
    /// blocks for untouched shards and patched ones for dirty shards,
    /// with each shard's last-mutation version.
    ///
    /// # Panics
    /// Panics if the four per-shard vectors disagree on the shard count,
    /// or the segment row counts are inconsistent with a residue
    /// partition.
    pub fn from_parts(
        segments: Vec<Arc<GraphSegment>>,
        graph_shard_versions: Vec<u64>,
        calendar_shards: Vec<Arc<CalendarBlock>>,
        calendar_shard_versions: Vec<u64>,
        graph_version: u64,
        calendar_version: u64,
    ) -> Self {
        let shards = segments.len();
        assert_eq!(graph_shard_versions.len(), shards, "one stamp per shard");
        assert_eq!(
            calendar_shards.len(),
            shards,
            "one calendar block per shard"
        );
        assert_eq!(calendar_shard_versions.len(), shards, "one stamp per shard");
        WorldSnapshot {
            graph: ShardedGraph::new(segments),
            calendars: CalendarShards::new(calendar_shards),
            graph_shard_versions,
            calendar_shard_versions,
            graph_version,
            calendar_version,
        }
    }

    /// Partition a flat world into `shards` segments, stamping **every**
    /// shard with the global versions. This is the compat path for
    /// callers without per-shard dirty tracking: any version bump makes
    /// every shard look dirty, so caches degrade to whole-world
    /// invalidation (never stale, just not incremental).
    pub fn from_flat(
        graph: &SocialGraph,
        calendars: &[Calendar],
        shards: usize,
        graph_version: u64,
        calendar_version: u64,
    ) -> Self {
        let shards = shards.max(1);
        WorldSnapshot {
            graph: ShardedGraph::from_flat(graph, shards),
            calendars: CalendarShards::from_flat(calendars, shards),
            graph_shard_versions: vec![graph_version; shards],
            calendar_shard_versions: vec![calendar_version; shards],
            graph_version,
            calendar_version,
        }
    }

    /// The shard-partitioned adjacency the traversal kernels walk.
    pub fn graph(&self) -> &ShardedGraph {
        &self.graph
    }

    /// The shard-partitioned calendars (empty for worlds without them).
    pub fn calendars(&self) -> &CalendarShards {
        &self.calendars
    }

    /// Total vertices in the graph.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The shard modulus this snapshot was partitioned with.
    pub fn shard_count(&self) -> usize {
        self.graph.shard_count()
    }

    /// The global network version this epoch reflects.
    pub fn graph_version(&self) -> u64 {
        self.graph_version
    }

    /// The global calendar-store version this epoch reflects.
    pub fn calendar_version(&self) -> u64 {
        self.calendar_version
    }

    /// The `(graph_version, calendar_version)` stamp.
    pub fn versions(&self) -> (u64, u64) {
        (self.graph_version, self.calendar_version)
    }

    /// The version shard `s`'s graph segment was last mutated at.
    pub fn graph_shard_version(&self, shard: usize) -> u64 {
        self.graph_shard_versions[shard]
    }

    /// The version shard `s`'s calendars were last mutated at.
    pub fn calendar_shard_version(&self, shard: usize) -> u64 {
        self.calendar_shard_versions[shard]
    }

    /// The whole graph-axis shard-version vector.
    pub fn graph_shard_versions(&self) -> &[u64] {
        &self.graph_shard_versions
    }

    /// The whole calendar-axis shard-version vector.
    pub fn calendar_shard_versions(&self) -> &[u64] {
        &self.calendar_shard_versions
    }

    /// One shard's graph segment (for `Arc`-reuse on republication).
    pub fn graph_segment(&self, shard: usize) -> &Arc<GraphSegment> {
        self.graph.segment(shard)
    }

    /// One shard's calendar block (for `Arc`-reuse and patching on
    /// republication).
    pub fn calendar_shard(&self, shard: usize) -> &Arc<CalendarBlock> {
        self.calendars.shard(shard)
    }

    /// The shards a solve on `fg` reads, ascending — the read set cache
    /// entries are stamped with. Stamping the feasible graph's vertex
    /// shards is sound: a mutation that changes the extraction for
    /// `(q, s)` necessarily has an endpoint inside the *old* feasible
    /// graph (an edge with both endpoints outside can neither bring a
    /// vertex within distance `s` nor touch fg-internal adjacency), and
    /// every mutation touches its endpoints' shards.
    fn read_shards<G: CandidateTopology>(&self, fg: &G) -> Vec<u32> {
        let shards = self.shard_count();
        let mut seen = vec![false; shards];
        for c in 0..fg.len() as u32 {
            seen[fg.origin(c).index() % shards] = true;
        }
        (0..shards as u32).filter(|&s| seen[s as usize]).collect()
    }

    /// Read-set stamps for a cache entry built from `fg`: the
    /// `(shard, version)` pairs of every shard the extraction read on
    /// the graph axis and, with `calendars`, on the calendar axis too —
    /// an STGQ solve reads exactly its feasible graph's calendars, so
    /// only those shards' calendar versions pin the answer.
    pub(crate) fn stamps_for<G: CandidateTopology>(&self, fg: &G, calendars: bool) -> Stamps {
        let shards = self.read_shards(fg);
        let at = |versions: &[u64]| shards.iter().map(|&s| (s, versions[s as usize])).collect();
        Stamps {
            modulus: self.shard_count(),
            graph: at(&self.graph_shard_versions),
            calendar: if calendars {
                at(&self.calendar_shard_versions)
            } else {
                Vec::new()
            },
        }
    }
}

/// The executor's current-epoch cell.
#[derive(Default)]
pub(crate) struct SnapshotCell {
    current: Mutex<Option<Arc<WorldSnapshot>>>,
}

impl SnapshotCell {
    /// The current epoch, if one has been published.
    pub(crate) fn current(&self) -> Option<Arc<WorldSnapshot>> {
        self.current.lock().clone()
    }

    /// Swap in a new epoch. Readers holding the previous epoch are
    /// unaffected; the old snapshot is freed when the last of them
    /// finishes.
    pub(crate) fn publish(&self, snapshot: Arc<WorldSnapshot>) {
        *self.current.lock() = Some(snapshot);
    }

    /// Drop the published epoch: subsequent solves refuse with
    /// `NoSnapshot` until a new epoch is published. In-flight solves
    /// keep the epoch they started with.
    pub(crate) fn clear(&self) {
        *self.current.lock() = None;
    }

    /// The `(graph_version, calendar_version)` stamp of the current
    /// epoch.
    pub(crate) fn versions(&self) -> Option<(u64, u64)> {
        self.current.lock().as_ref().map(|s| s.versions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_graph::{FeasibleGraph, GraphBuilder, NodeId};

    fn snap(gv: u64, cv: u64) -> Arc<WorldSnapshot> {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        Arc::new(WorldSnapshot::from_flat(
            &b.build(),
            &vec![Calendar::new(4); 2],
            2,
            gv,
            cv,
        ))
    }

    #[test]
    fn publish_swaps_without_touching_held_epochs() {
        let cell = SnapshotCell::default();
        assert!(cell.current().is_none());
        assert_eq!(cell.versions(), None);

        cell.publish(snap(1, 1));
        let held = cell.current().unwrap();
        cell.publish(snap(2, 1));
        assert_eq!(held.graph_version(), 1, "in-flight epoch unchanged");
        assert_eq!(cell.versions(), Some((2, 1)));
    }

    #[test]
    fn from_flat_floods_every_shard_with_the_global_stamp() {
        let snap = snap(7, 3);
        assert_eq!(snap.shard_count(), 2);
        assert_eq!(snap.graph_shard_versions(), &[7, 7]);
        assert_eq!(snap.calendar_shard_versions(), &[3, 3]);
        assert_eq!(snap.node_count(), 2);
        assert_eq!(snap.calendars().len(), 2);
    }

    #[test]
    fn from_parts_keeps_per_shard_stamps_and_content() {
        // 4 people on 2 shards; person 3 (shard 1, row 1) was mutated at
        // version 9, shard 0 untouched since version 4.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 2).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 1).unwrap();
        let flat = WorldSnapshot::from_flat(&b.build(), &vec![Calendar::new(4); 4], 2, 9, 5);
        let parts = WorldSnapshot::from_parts(
            (0..2).map(|s| Arc::clone(flat.graph_segment(s))).collect(),
            vec![4, 9],
            (0..2).map(|s| Arc::clone(flat.calendar_shard(s))).collect(),
            vec![5, 5],
            9,
            5,
        );
        assert_eq!(parts.graph_shard_version(0), 4);
        assert_eq!(parts.graph_shard_version(1), 9);
        assert!(Arc::ptr_eq(parts.graph_segment(0), flat.graph_segment(0)));
        // The assembled views agree with the flat world.
        for v in 0..4u32 {
            assert_eq!(
                parts.graph().row_of(NodeId(v)),
                flat.graph().row_of(NodeId(v))
            );
        }
    }

    #[test]
    fn stamps_cover_exactly_the_feasible_graphs_shards() {
        // Path 0-1-3 on 2 shards; vertex 2 is isolated. An s=2 extraction
        // from 0 reads shards {0, 1}; an s=1 extraction from 3 reads only
        // the odd shard.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 1).unwrap();
        let snap = WorldSnapshot::from_parts(
            {
                let sg = ShardedGraph::from_flat(&b.build(), 2);
                (0..2).map(|s| Arc::clone(sg.segment(s))).collect()
            },
            vec![4, 9],
            {
                let cals = CalendarShards::from_flat(&[Calendar::new(4), Calendar::new(4)], 1);
                vec![Arc::clone(cals.shard(0)); 2]
            },
            vec![2, 6],
            9,
            6,
        );
        let both = snap.stamps_for(
            &FeasibleGraph::extract_from(snap.graph(), NodeId(0), 2),
            true,
        );
        assert_eq!(both.modulus, 2);
        assert_eq!(both.graph, vec![(0, 4), (1, 9)]);
        assert_eq!(both.calendar, vec![(0, 2), (1, 6)]);
        let odd_only = FeasibleGraph::extract_from(snap.graph(), NodeId(3), 1);
        assert_eq!(snap.stamps_for(&odd_only, true).graph, vec![(1, 9)]);
        assert_eq!(snap.stamps_for(&odd_only, true).calendar, vec![(1, 6)]);
        assert!(
            snap.stamps_for(&odd_only, false).calendar.is_empty(),
            "no calendar axis unless asked"
        );
    }
}
