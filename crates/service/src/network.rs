//! The mutable social network behind the planner.

use std::collections::BTreeMap;

use stgq_graph::{Dist, GraphBuilder, GraphSegment, NodeId, SocialGraph};

use crate::stamps::ShardStamps;
use crate::ServiceError;

/// An updatable, undirected, weighted social network.
///
/// People keep their [`NodeId`] for the service's lifetime — removing a
/// person tombstones the id (clearing its edges) rather than re-indexing,
/// so calendars and cached results never need to be re-keyed. Every
/// mutation that can change a query answer bumps [`version`](Self::version),
/// which the planner's caches key on.
///
/// When [`set_shard_count`](Self::set_shard_count) has been called, the
/// network additionally tracks *which shards and rows* each mutation
/// touched: shard `s` holds the residue class `v % shards`,
/// [`shard_version`](Self::shard_version) reports the global version at
/// the last mutation involving any of its people, and a per-row stamp
/// (stored shard-major, `[v % shards][v / shards]`) does the same per
/// person. A publisher compares the shard stamps against the previous
/// snapshot's to republish only the dirty shards, and the republish
/// ([`republish`](crate::republish)) uses the row stamps to re-emit only
/// the rows stamped after that snapshot.
#[derive(Clone, Debug, Default)]
pub struct MutableNetwork {
    /// Adjacency maps: `adj[v][u] = distance`. Symmetric by construction.
    adj: Vec<BTreeMap<u32, Dist>>,
    labels: Vec<String>,
    active: Vec<bool>,
    edge_count: usize,
    version: u64,
    /// Per-shard and per-row last-mutation stamps; untracked until
    /// [`set_shard_count`](Self::set_shard_count) (every shard then reads
    /// as [`version`](Self::version), i.e. always dirty).
    stamps: ShardStamps,
}

impl MutableNetwork {
    /// An empty network.
    pub fn new() -> Self {
        MutableNetwork::default()
    }

    /// Register a new person; the returned id is stable forever.
    pub fn add_person(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push(BTreeMap::new());
        self.labels.push(label.into());
        self.active.push(true);
        self.version += 1;
        self.touch(id.index());
        id
    }

    /// Total ids ever issued (tombstoned people included).
    pub fn person_count(&self) -> usize {
        self.adj.len()
    }

    /// People currently active.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Current friendship count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Monotone counter bumped by every mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Overwrite the version counter, flooding every shard and row stamp.
    /// Only replication uses this: a replica's mirror (and a promoted
    /// writer's) must keep publishing under the cluster's global version
    /// numbering, never restart from zero (stamps key every
    /// result/feasible cache in the fleet). Flooding is the conservative
    /// choice — after a forced jump there is no per-shard or per-row
    /// history to trust, so no row of an earlier snapshot may be patched
    /// forward.
    pub fn force_version(&mut self, version: u64) {
        self.version = version;
        self.stamps.flood(version);
    }

    /// Start (or re-key) dirty-shard tracking with `count` shards, every
    /// shard and row stamped at the current version (i.e. all dirty
    /// relative to any earlier snapshot).
    pub fn set_shard_count(&mut self, count: usize) {
        self.stamps.track(count, self.adj.len(), self.version);
    }

    /// The global version at the last mutation touching shard `shard`.
    /// Untracked stores report [`version`](Self::version) for every shard
    /// (conservatively always dirty).
    pub fn shard_version(&self, shard: usize) -> u64 {
        self.stamps.shard(shard, self.version)
    }

    /// Stamp `person`'s shard and row with the current version. Callers
    /// bump [`version`](Self::version) first.
    fn touch(&mut self, person: usize) {
        self.stamps.touch(person, self.version);
    }

    /// Freeze shard `shard` of `count` (the residue class `v % count`,
    /// rows ordered by `v / count`) into the immutable segment form the
    /// executor's sharded snapshots hold.
    pub fn segment(&self, shard: usize, count: usize) -> GraphSegment {
        GraphSegment::build(
            (shard..self.adj.len())
                .step_by(count)
                .map(|v| self.adj[v].iter().map(|(&u, &w)| (u, w))),
        )
    }

    /// Re-freeze shard `shard` of `count` by patching `prev`, the segment
    /// a snapshot published for that shard at shard stamp `since`: only
    /// the rows stamped after `since` (and rows added since) are re-read
    /// from the adjacency maps; every other row is copied from `prev`
    /// (see [`GraphSegment::patch`]). Equal to
    /// [`segment`](Self::segment)`(shard, count)` provided `prev` was
    /// frozen from this network's shard when its stamp was `since`.
    /// Without row tracking at modulus `count`, every row is re-read.
    pub(crate) fn patch_segment(
        &self,
        shard: usize,
        count: usize,
        prev: &GraphSegment,
        since: u64,
    ) -> GraphSegment {
        let rows = self.adj.len().saturating_sub(shard).div_ceil(count);
        let row = |r: usize| self.adj[shard + r * count].iter().map(|(&u, &w)| (u, w));
        match self.stamps.dirty_rows(shard, count, since) {
            Some(dirty) => GraphSegment::patch(prev, rows, &dirty, row),
            None => GraphSegment::patch(&GraphSegment::default(), rows, &[], row),
        }
    }

    /// The label given at registration.
    pub fn label(&self, person: NodeId) -> Option<&str> {
        self.labels.get(person.index()).map(String::as_str)
    }

    /// Whether `person` exists and has not been removed.
    pub fn is_active(&self, person: NodeId) -> bool {
        self.active.get(person.index()).copied().unwrap_or(false)
    }

    /// Validate that `person` exists and is active.
    pub fn check_person(&self, person: NodeId) -> Result<(), ServiceError> {
        if person.index() >= self.adj.len() {
            return Err(ServiceError::UnknownPerson {
                person,
                person_count: self.adj.len(),
            });
        }
        if !self.active[person.index()] {
            return Err(ServiceError::RemovedPerson { person });
        }
        Ok(())
    }

    /// Create or re-weight the friendship between `a` and `b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, distance: Dist) -> Result<(), ServiceError> {
        self.check_person(a)?;
        self.check_person(b)?;
        if a == b {
            return Err(ServiceError::SelfFriendship { person: a });
        }
        if distance == 0 {
            return Err(ServiceError::ZeroDistance { a, b });
        }
        let fresh = self.adj[a.index()].insert(b.0, distance).is_none();
        self.adj[b.index()].insert(a.0, distance);
        if fresh {
            self.edge_count += 1;
        }
        self.version += 1;
        self.touch(a.index());
        self.touch(b.index());
        Ok(())
    }

    /// Remove the friendship between `a` and `b`; reports whether it existed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> Result<bool, ServiceError> {
        self.check_person(a)?;
        self.check_person(b)?;
        let existed = self.adj[a.index()].remove(&b.0).is_some();
        self.adj[b.index()].remove(&a.0);
        if existed {
            self.edge_count -= 1;
            self.version += 1;
            self.touch(a.index());
            self.touch(b.index());
        }
        Ok(existed)
    }

    /// Tombstone a person: all their friendships disappear, their id stays.
    pub fn remove_person(&mut self, person: NodeId) -> Result<(), ServiceError> {
        self.check_person(person)?;
        let neighbors: Vec<u32> = self.adj[person.index()].keys().copied().collect();
        self.adj[person.index()].clear();
        self.active[person.index()] = false;
        self.version += 1;
        self.touch(person.index());
        for nb in neighbors {
            self.adj[nb as usize].remove(&person.0);
            self.edge_count -= 1;
            self.touch(nb as usize);
        }
        Ok(())
    }

    /// Current social distance between `a` and `b`, if they are friends.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<Dist> {
        self.adj.get(a.index())?.get(&b.0).copied()
    }

    /// Number of friends of `person` (0 for tombstoned or unknown ids).
    pub fn degree(&self, person: NodeId) -> usize {
        self.adj.get(person.index()).map_or(0, BTreeMap::len)
    }

    /// Every current friendship as `(a, b, distance)` with `a < b` —
    /// the edge export a full replication sync ships to a fresh replica.
    pub fn edge_list(&self) -> Vec<(u32, u32, Dist)> {
        let mut edges = Vec::with_capacity(self.edge_count);
        for (v, row) in self.adj.iter().enumerate() {
            for (&u, &w) in row {
                if (v as u32) < u {
                    edges.push((v as u32, u, w));
                }
            }
        }
        edges
    }

    /// Freeze the current state into the immutable CSR form the query
    /// engines consume. Ids are preserved; tombstoned people become
    /// isolated vertices (no query can ever select them since every
    /// candidate needs a path to the initiator).
    pub fn snapshot(&self) -> SocialGraph {
        let mut b = GraphBuilder::new(self.adj.len());
        b.set_labels(self.labels.clone());
        for (v, row) in self.adj.iter().enumerate() {
            for (&u, &w) in row {
                if (v as u32) < u {
                    b.add_edge(NodeId(v as u32), NodeId(u), w)
                        .expect("network invariants guarantee valid edges");
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_people() -> (MutableNetwork, NodeId, NodeId, NodeId) {
        let mut net = MutableNetwork::new();
        let a = net.add_person("a");
        let b = net.add_person("b");
        let c = net.add_person("c");
        (net, a, b, c)
    }

    #[test]
    fn connect_and_query_roundtrip() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(b, c, 7).unwrap();
        assert_eq!(net.distance(a, b), Some(5));
        assert_eq!(net.distance(b, a), Some(5));
        assert_eq!(net.distance(a, c), None);
        assert_eq!(net.edge_count(), 2);
        assert_eq!(net.degree(b), 2);
    }

    #[test]
    fn reconnect_updates_weight_without_duplicating() {
        let (mut net, a, b, _) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(a, b, 9).unwrap();
        assert_eq!(net.distance(a, b), Some(9));
        assert_eq!(net.edge_count(), 1);
    }

    #[test]
    fn disconnect_reports_prior_existence() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        assert!(net.disconnect(a, b).unwrap());
        assert!(!net.disconnect(a, c).unwrap());
        assert_eq!(net.edge_count(), 0);
    }

    #[test]
    fn versions_bump_on_mutation_only() {
        let (mut net, a, b, _) = three_people();
        let v0 = net.version();
        net.connect(a, b, 5).unwrap();
        let v1 = net.version();
        assert!(v1 > v0);
        let _ = net.distance(a, b);
        let _ = net.snapshot();
        assert_eq!(net.version(), v1, "reads must not invalidate caches");
        // A no-op disconnect does not bump either.
        let (x, y) = (NodeId(0), NodeId(2));
        assert!(!net.disconnect(x, y).unwrap());
        assert_eq!(net.version(), v1);
    }

    #[test]
    fn remove_person_tombstones_and_clears_edges() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(b, c, 7).unwrap();
        net.remove_person(b).unwrap();
        assert!(!net.is_active(b));
        assert_eq!(net.edge_count(), 0);
        assert_eq!(net.degree(a), 0);
        assert_eq!(net.person_count(), 3, "ids are never re-issued");
        assert_eq!(net.active_count(), 2);
        assert!(matches!(
            net.connect(a, b, 1),
            Err(ServiceError::RemovedPerson { .. })
        ));
    }

    #[test]
    fn input_validation() {
        let (mut net, a, _, _) = three_people();
        assert!(matches!(
            net.connect(a, NodeId(99), 1),
            Err(ServiceError::UnknownPerson { .. })
        ));
        assert!(matches!(
            net.connect(a, a, 1),
            Err(ServiceError::SelfFriendship { .. })
        ));
        assert!(matches!(
            net.connect(a, NodeId(1), 0),
            Err(ServiceError::ZeroDistance { .. })
        ));
    }

    #[test]
    fn shard_stamps_move_only_for_touched_residue_classes() {
        let mut net = MutableNetwork::new();
        net.set_shard_count(4);
        let people: Vec<NodeId> = (0..8).map(|i| net.add_person(format!("p{i}"))).collect();
        let base = net.version();
        let stamps: Vec<u64> = (0..4).map(|s| net.shard_version(s)).collect();
        // 1-5 touches shards 1 and 1 (5 % 4 == 1): only shard 1 moves.
        net.connect(people[1], people[5], 3).unwrap();
        assert_eq!(net.shard_version(1), base + 1);
        for s in [0, 2, 3] {
            assert_eq!(net.shard_version(s), stamps[s], "shard {s} untouched");
        }
        // 2-7 touches shards 2 and 3.
        net.connect(people[2], people[7], 4).unwrap();
        assert_eq!(net.shard_version(2), base + 2);
        assert_eq!(net.shard_version(3), base + 2);
        assert_eq!(net.shard_version(0), stamps[0]);
        // Removing 5 touches its shard and every ex-neighbor's shard.
        net.remove_person(people[5]).unwrap();
        assert_eq!(net.shard_version(1), base + 3);
        assert_eq!(net.shard_version(0), stamps[0], "shard 0 never touched");
    }

    #[test]
    fn untracked_networks_report_every_shard_at_the_global_version() {
        let (mut net, a, b, _) = three_people();
        net.connect(a, b, 5).unwrap();
        assert_eq!(net.shard_version(0), net.version());
        assert_eq!(net.shard_version(99), net.version());
    }

    #[test]
    fn force_version_floods_every_shard() {
        let mut net = MutableNetwork::new();
        net.set_shard_count(3);
        net.add_person("a");
        net.force_version(40);
        assert_eq!(net.version(), 40);
        for s in 0..3 {
            assert_eq!(net.shard_version(s), 40);
        }
    }

    #[test]
    fn segments_partition_the_snapshot_by_residue() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(b, c, 7).unwrap();
        let flat = net.snapshot();
        for shards in [1usize, 2, 4] {
            for s in 0..shards {
                let seg = net.segment(s, shards);
                let mut v = s;
                for r in 0..seg.rows() {
                    let (nbrs, dists) = seg.row(r);
                    let row: Vec<(u32, Dist)> =
                        nbrs.iter().copied().zip(dists.iter().copied()).collect();
                    let expect: Vec<(u32, Dist)> = flat
                        .neighbors(NodeId(v as u32))
                        .iter()
                        .map(|&u| (u, flat.edge_weight(NodeId(v as u32), NodeId(u)).unwrap()))
                        .collect();
                    assert_eq!(row, expect, "shard {s}/{shards} row {r}");
                    v += shards;
                }
            }
        }
    }

    #[test]
    fn snapshot_matches_network_state() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(b, c, 7).unwrap();
        net.remove_person(c).unwrap();
        let g = net.snapshot();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(a, b), Some(5));
        assert_eq!(g.degree(c), 0);
        assert_eq!(g.label(a), "a");
    }
}
