//! The shard router: which node answers which initiator shard.
//!
//! The executor already partitions everything by **initiator shard**
//! (`initiator mod shards` — the feasible-view cache, the batch
//! scheduler's job grouping, the result cache). The router lifts exactly
//! that partition across nodes: a shard map assigns every shard to one
//! node, a scatter groups a batch's entries by assigned node, and the
//! gather reassembles outcomes in submission order. Same-initiator
//! traffic therefore always lands on the same node while that node is in
//! the map — its caches stay hot, exactly as a shard job keeps one cache
//! shard hot inside a single executor.
//!
//! # Draining: who calls it, and when
//!
//! Draining a node reassigns its shards round-robin over the remaining
//! nodes; the drained node finishes nothing in this design because
//! scatter/gather is synchronous per batch — after
//! [`drain`](ShardRouter::drain) returns, no future batch addresses it.
//! Two callers exist, and they compose:
//!
//! * the **failure detector** auto-drains a node whose suspicion crossed
//!   the threshold (and auto-undrains it once it answers heartbeats and
//!   re-syncs — see [`HealthConfig`](crate::HealthConfig));
//! * an **operator** drains for maintenance via
//!   [`Cluster::drain_node`](crate::Cluster::drain_node). Operator
//!   drains are never auto-undrained: the detector tracks whose drain it
//!   was, so taking a node out for maintenance is safe even with
//!   self-healing on.
//!
//! State transitions are strict: draining an already-drained node is
//! [`RouterError::AlreadyDrained`] and undraining an active one is
//! [`RouterError::NotDrained`] — a caller that *observed* the wrong
//! state learns about the race instead of silently double-counting, and
//! the auto-drain path uses exactly that signal to yield to a
//! concurrent operator action.
//!
//! Reassignment is deterministic: drain hands the drained node's shards
//! round-robin (in shard order) over the survivors in index order;
//! undrain recomputes the canonical round-robin layout over the
//! now-active set. Interleaved drain/undrain sequences therefore always
//! converge to a layout that depends only on the final active set, never
//! on the order faults arrived in — which keeps chaos runs replayable.

use stgq_graph::NodeId;

/// Maps initiator shards onto cluster node indices.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    /// `assignment[shard]` = node index answering that shard.
    assignment: Vec<usize>,
    /// Per node: whether it currently takes traffic.
    active: Vec<bool>,
}

/// Router construction/mutation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouterError {
    /// The node index is outside the cluster.
    UnknownNode {
        /// The offending index.
        node: usize,
    },
    /// Draining this node would leave zero active nodes.
    LastNode,
    /// The node is already drained (a concurrent drain won the race).
    AlreadyDrained {
        /// The already-drained node.
        node: usize,
    },
    /// Undrain of a node that is not drained.
    NotDrained {
        /// The still-active node.
        node: usize,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::UnknownNode { node } => write!(f, "unknown cluster node {node}"),
            RouterError::LastNode => write!(f, "cannot drain the last active node"),
            RouterError::AlreadyDrained { node } => {
                write!(f, "node {node} is already drained")
            }
            RouterError::NotDrained { node } => {
                write!(f, "node {node} is active, not drained")
            }
        }
    }
}

impl std::error::Error for RouterError {}

impl ShardRouter {
    /// `shards` shards spread round-robin over `nodes` nodes.
    pub fn new(shards: usize, nodes: usize) -> Self {
        let shards = shards.max(1);
        let nodes = nodes.max(1);
        ShardRouter {
            assignment: (0..shards).map(|s| s % nodes).collect(),
            active: vec![true; nodes],
        }
    }

    /// The shard modulus (must equal the per-node executors' shard count
    /// for cache alignment, though correctness never depends on it).
    pub fn shards(&self) -> usize {
        self.assignment.len()
    }

    /// Total node slots (active or drained).
    pub fn node_slots(&self) -> usize {
        self.active.len()
    }

    /// Indices of the nodes currently taking traffic.
    pub fn active_nodes(&self) -> Vec<usize> {
        (0..self.active.len()).filter(|&n| self.active[n]).collect()
    }

    /// Whether `node` currently takes traffic.
    pub fn is_active(&self, node: usize) -> bool {
        self.active.get(node).copied().unwrap_or(false)
    }

    /// The shard owning `initiator` (the executor's modulus).
    pub fn shard_of(&self, initiator: NodeId) -> usize {
        initiator.0 as usize % self.assignment.len()
    }

    /// The node answering `initiator`.
    pub fn node_of(&self, initiator: NodeId) -> usize {
        self.assignment[self.shard_of(initiator)]
    }

    /// Stop routing to `node`, reassigning its shards round-robin over
    /// the remaining active nodes. Draining a node that is already
    /// drained is [`RouterError::AlreadyDrained`] — the caller raced a
    /// concurrent drain and must not double-count the action.
    pub fn drain(&mut self, node: usize) -> Result<(), RouterError> {
        if node >= self.active.len() {
            return Err(RouterError::UnknownNode { node });
        }
        if !self.active[node] {
            return Err(RouterError::AlreadyDrained { node });
        }
        self.active[node] = false;
        let survivors = self.active_nodes();
        if survivors.is_empty() {
            self.active[node] = true;
            return Err(RouterError::LastNode);
        }
        let mut next = 0usize;
        for owner in &mut self.assignment {
            if *owner == node {
                *owner = survivors[next % survivors.len()];
                next += 1;
            }
        }
        Ok(())
    }

    /// Return a drained node to service: the whole map recomputes to the
    /// canonical round-robin layout over the now-active set (so the
    /// final layout depends only on *which* nodes are active, not the
    /// fault order). Undraining an active node is
    /// [`RouterError::NotDrained`].
    pub fn undrain(&mut self, node: usize) -> Result<(), RouterError> {
        if node >= self.active.len() {
            return Err(RouterError::UnknownNode { node });
        }
        if self.active[node] {
            return Err(RouterError::NotDrained { node });
        }
        self.active[node] = true;
        let survivors = self.active_nodes();
        for (shard, owner) in self.assignment.iter_mut().enumerate() {
            *owner = survivors[shard % survivors.len()];
        }
        Ok(())
    }

    /// Group batch positions by assigned node: returns `(node, positions)`
    /// pairs covering every input position exactly once, positions in
    /// submission order (the per-node executor relies on that for
    /// within-batch collapsing determinism).
    pub fn scatter_plan(&self, initiators: &[NodeId]) -> Vec<(usize, Vec<usize>)> {
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); self.active.len()];
        for (pos, &initiator) in initiators.iter().enumerate() {
            per_node[self.node_of(initiator)].push(pos);
        }
        per_node
            .into_iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_every_shard() {
        let r = ShardRouter::new(8, 3);
        let owners: Vec<usize> = (0..8).map(|s| r.assignment[s]).collect();
        assert_eq!(owners, [0, 1, 2, 0, 1, 2, 0, 1]);
        assert_eq!(r.node_of(NodeId(9)), r.assignment[1]);
    }

    #[test]
    fn drain_reassigns_and_undrain_restores() {
        let mut r = ShardRouter::new(8, 3);
        r.drain(1).unwrap();
        assert!(!r.is_active(1));
        assert!(r.assignment.iter().all(|&n| n != 1), "no shard left on 1");
        assert_eq!(r.active_nodes(), [0, 2]);

        r.drain(0).unwrap();
        assert!(r.assignment.iter().all(|&n| n == 2));
        assert_eq!(r.drain(2), Err(RouterError::LastNode), "someone must serve");

        r.undrain(0).unwrap();
        r.undrain(1).unwrap();
        assert_eq!(r.active_nodes(), [0, 1, 2]);
        assert!(r.assignment.contains(&1));
    }

    #[test]
    fn invalid_transitions_are_errors() {
        let mut r = ShardRouter::new(8, 3);
        assert_eq!(r.drain(9), Err(RouterError::UnknownNode { node: 9 }));
        assert_eq!(r.undrain(9), Err(RouterError::UnknownNode { node: 9 }));
        assert_eq!(
            r.undrain(1),
            Err(RouterError::NotDrained { node: 1 }),
            "undrain of an active node"
        );
        r.drain(1).unwrap();
        assert_eq!(
            r.drain(1),
            Err(RouterError::AlreadyDrained { node: 1 }),
            "double drain"
        );
        r.undrain(1).unwrap();
    }

    #[test]
    fn interleaved_drain_undrain_reassignment_is_order_pinned() {
        // Drain 1 then 0: node 1's shards round-robin over {0, 2}; then
        // node 0's (original plus inherited) all land on 2.
        let mut r = ShardRouter::new(8, 3);
        r.drain(1).unwrap();
        assert_eq!(r.assignment, [0, 0, 2, 0, 2, 2, 0, 0]);
        r.drain(0).unwrap();
        assert_eq!(r.assignment, [2; 8]);

        // Undrain recomputes the canonical layout over the active set —
        // independent of which order the drains happened in.
        r.undrain(0).unwrap();
        assert_eq!(r.assignment, [0, 2, 0, 2, 0, 2, 0, 2]);
        r.undrain(1).unwrap();
        assert_eq!(r.assignment, [0, 1, 2, 0, 1, 2, 0, 1], "full layout back");

        // The mirrored interleaving converges to the same final layout.
        let mut r2 = ShardRouter::new(8, 3);
        r2.drain(0).unwrap();
        r2.drain(1).unwrap();
        r2.undrain(1).unwrap();
        r2.undrain(0).unwrap();
        assert_eq!(r2.assignment, r.assignment);
        assert_eq!(r2.active_nodes(), r.active_nodes());
    }

    #[test]
    fn scatter_plan_partitions_positions_in_order() {
        let r = ShardRouter::new(4, 2);
        let initiators: Vec<NodeId> = [0u32, 1, 2, 3, 4, 5].map(NodeId).to_vec();
        let plan = r.scatter_plan(&initiators);
        let mut seen: Vec<usize> = plan.iter().flat_map(|(_, p)| p.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3, 4, 5], "every position exactly once");
        for (_, positions) in &plan {
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "order preserved");
        }
    }
}
