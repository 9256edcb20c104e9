//! One serving node: a mirrored world plus a full
//! [`Executor`](stgq_exec::Executor).
//!
//! A node never mutates the world on its own — it *replays* the writer's
//! replication payloads into a local mirror (a [`MutableNetwork`] plus
//! [`CalendarStore`], the same types the writer's planner owns) and
//! republishes its executor's immutable [`WorldSnapshot`] under the
//! **writer's** version stamps. Everything the single-process executor
//! does per node — shard-partitioned feasible-view cache, result cache,
//! worker pool, epoch-swapped snapshots — works unchanged; the cluster
//! layer only decides *which* node answers *which* initiator shard.

use std::sync::Arc;

use parking_lot::Mutex;
use stgq_exec::{ExecConfig, Executor, PlanRequest};
use stgq_service::{republish, CalendarStore, MutableNetwork};

use stgq_graph::NodeId;
use stgq_service::WorldState;

use crate::message::{
    Epoch, NodeMsg, NodeObs, NodeReply, NodeStatus, ReplicationPayload, WireRequest,
};

/// The mirrored mutable world behind one node's executor.
struct ReplicaWorld {
    network: MutableNetwork,
    calendars: CalendarStore,
    /// Last delta sequence applied (0 before first attach).
    seq: u64,
    /// The writer-stamped epoch of the last applied payload.
    epoch: Epoch,
    /// Whether a first sync has completed (until then every delta
    /// payload is refused as [`NodeReply::Stale`]).
    attached: bool,
    full_syncs: u64,
    delta_batches: u64,
}

/// One cluster serving node. See the module docs.
pub struct ClusterNode {
    id: usize,
    exec: Executor,
    world: Mutex<ReplicaWorld>,
}

impl ClusterNode {
    /// A fresh, unattached node. It refuses queries
    /// ([`stgq_exec::ExecError::NoSnapshot`]) until its first full sync.
    pub fn new(id: usize, cfg: ExecConfig) -> Self {
        ClusterNode {
            id,
            exec: Executor::new(cfg),
            world: Mutex::new(ReplicaWorld {
                network: MutableNetwork::new(),
                calendars: CalendarStore::new(0),
                seq: 0,
                epoch: Epoch::default(),
                attached: false,
                full_syncs: 0,
                delta_batches: 0,
            }),
        }
    }

    /// This node's index in the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's executor (metrics, direct inspection).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Dispatch one protocol message. This is the entire server side of
    /// the cluster protocol — a network transport would deserialize into
    /// [`NodeMsg`] and call exactly this.
    pub fn handle(&self, msg: NodeMsg) -> NodeReply {
        match msg {
            NodeMsg::Replicate(payload) => self.apply_replication(payload),
            NodeMsg::Execute(requests) => self.execute(requests),
            NodeMsg::Status => NodeReply::Status(self.status()),
            NodeMsg::Metrics => NodeReply::Metrics(self.observability()),
            NodeMsg::Export => NodeReply::State(self.export_state()),
        }
    }

    /// Capture the node's full mirrored world — the failover donor path:
    /// a promoted writer is [`Planner::restore`](stgq_service::Planner::restore)d
    /// from exactly this state. Field-for-field the same capture the
    /// writer's `world_state()` performs, so a replica that replayed the
    /// full log exports a bit-identical state.
    pub fn export_state(&self) -> WorldState {
        let world = self.world.lock();
        let n = world.network.person_count();
        WorldState {
            horizon: world.calendars.horizon(),
            labels: (0..n)
                .map(|v| {
                    world
                        .network
                        .label(NodeId(v as u32))
                        .expect("ids below person_count are allocated")
                        .to_string()
                })
                .collect(),
            active: (0..n)
                .map(|v| world.network.is_active(NodeId(v as u32)))
                .collect(),
            edges: world.network.edge_list(),
            calendars: world.calendars.calendars().to_vec(),
            graph_version: world.epoch.graph,
            calendar_version: world.epoch.calendar,
            seq: world.seq,
        }
    }

    /// Forget everything: fresh unattached world, no published snapshot.
    /// Models a crash-and-restart — the "rebooted" node refuses queries
    /// (`NoSnapshot`) and deltas (`Stale`) until its next full sync, just
    /// like a freshly provisioned node.
    pub fn reset(&self) {
        let mut world = self.world.lock();
        *world = ReplicaWorld {
            network: MutableNetwork::new(),
            calendars: CalendarStore::new(0),
            seq: 0,
            epoch: Epoch::default(),
            attached: false,
            full_syncs: 0,
            delta_batches: 0,
        };
        self.exec.clear_snapshot();
    }

    /// The node's current status snapshot.
    pub fn status(&self) -> NodeStatus {
        let world = self.world.lock();
        let m = self.exec.metrics();
        NodeStatus {
            seq: world.seq,
            epoch: world.epoch,
            attached: world.attached,
            full_syncs: world.full_syncs,
            delta_batches: world.delta_batches,
            queries: m.queries,
            result_cache_hits: m.result_cache_hits,
        }
    }

    /// The node's deep observability report: status plus its executor's
    /// named latency histograms — what crosses the wire for
    /// [`NodeMsg::Metrics`].
    pub fn observability(&self) -> NodeObs {
        NodeObs {
            status: self.status(),
            histograms: self
                .exec
                .obs()
                .histograms()
                .into_iter()
                .map(|(name, snap)| (name.to_string(), snap))
                .collect(),
        }
    }

    fn apply_replication(&self, payload: ReplicationPayload) -> NodeReply {
        let mut world = self.world.lock();
        match payload {
            ReplicationPayload::Full(state) => {
                let (network, calendars) = match state.restore() {
                    Ok(mirror) => mirror,
                    Err(e) => {
                        return NodeReply::Failed {
                            reason: format!("full sync failed to restore: {e}"),
                        }
                    }
                };
                world.network = network;
                world.calendars = calendars;
                world.seq = state.seq;
                world.epoch = Epoch::new(state.graph_version, state.calendar_version);
                // Re-stamp the mirror under the writer's global version
                // numbering: tracking starts now (no per-shard history
                // survives a full sync), and every stamp floods to the
                // carried version. Subsequent delta replays bump the
                // mirror in lockstep with the writer, so mirror-internal
                // stamps and writer stamps never diverge.
                world.network.set_shard_count(self.exec.shards());
                world.calendars.set_shard_count(self.exec.shards());
                world.network.force_version(state.graph_version);
                world.calendars.force_version(state.calendar_version);
                world.attached = true;
                world.full_syncs += 1;
                self.publish(&world);
                NodeReply::Ack {
                    seq: world.seq,
                    epoch: world.epoch,
                }
            }
            ReplicationPayload::Deltas { from_seq, records } => {
                if !world.attached || from_seq != world.seq {
                    // Out-of-order or never-attached: applying would skip
                    // history. The writer falls back to a full sync.
                    return NodeReply::Stale {
                        have_seq: world.seq,
                    };
                }
                let mut graph_moved = false;
                let mut calendar_moved = false;
                for record in records {
                    debug_assert_eq!(record.seq, world.seq + 1, "log is dense");
                    let ReplicaWorld {
                        network, calendars, ..
                    } = &mut *world;
                    if let Err(e) = record.delta.apply(network, calendars) {
                        // A delta that applied on the writer must apply on
                        // a faithful mirror; failure means the mirror has
                        // diverged — report it and let a full sync repair.
                        return NodeReply::Failed {
                            reason: format!("delta {} failed to apply: {e}", record.seq),
                        };
                    }
                    graph_moved |= record.graph_version != world.epoch.graph;
                    calendar_moved |= record.calendar_version != world.epoch.calendar;
                    world.seq = record.seq;
                    world.epoch = Epoch::new(record.graph_version, record.calendar_version);
                }
                if graph_moved || calendar_moved {
                    world.delta_batches += 1;
                    self.publish(&world);
                }
                NodeReply::Ack {
                    seq: world.seq,
                    epoch: world.epoch,
                }
            }
        }
    }

    /// Republish and epoch-swap the executor's snapshot from the mirror
    /// through [`republish`], the planner's own assembly: a delta batch
    /// confined to one community patches that community's graph segment
    /// and/or calendar block and carries every other sub-snapshot over by
    /// `Arc`. Published under the **writer's** epoch stamps.
    fn publish(&self, world: &ReplicaWorld) {
        debug_assert_eq!(
            world.network.version(),
            world.epoch.graph,
            "mirror replays in lockstep with the writer's stamps"
        );
        debug_assert_eq!(world.calendars.version(), world.epoch.calendar);
        let (snapshot, _) = republish(
            &world.network,
            &world.calendars,
            self.exec.shards(),
            self.exec.snapshot().as_deref(),
            (world.epoch.graph, world.epoch.calendar),
        );
        self.exec.publish_snapshot(Arc::new(snapshot));
    }

    fn execute(&self, requests: Vec<WireRequest>) -> NodeReply {
        let requests: Vec<PlanRequest> = requests
            .into_iter()
            .map(|r| {
                let mut request = PlanRequest::new(r.initiator, r.spec, r.engine);
                if let Some(min) = r.min_epoch {
                    request = request.with_min_epoch(min.graph, min.calendar);
                }
                request
            })
            .collect();
        NodeReply::Outcomes(self.exec.execute_batch(requests))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_core::reference::{solve_sgq_reference, solve_stgq_reference};
    use stgq_core::{SelectConfig, SgqQuery, StgqQuery};
    use stgq_exec::{Engine, ExecError, QuerySpec};
    use stgq_graph::NodeId;
    use stgq_schedule::SlotRange;
    use stgq_service::Planner;

    fn writer() -> Planner {
        let mut p = Planner::new(8);
        let ids: Vec<NodeId> = (0..4).map(|i| p.add_person(format!("p{i}"))).collect();
        p.connect(ids[0], ids[1], 2).unwrap();
        p.connect(ids[0], ids[2], 3).unwrap();
        p.connect(ids[1], ids[2], 1).unwrap();
        for &id in &ids {
            p.set_availability_range(id, stgq_schedule::SlotRange::new(0, 7), true)
                .unwrap();
        }
        p
    }

    fn exec_cfg() -> ExecConfig {
        ExecConfig {
            workers: 1,
            ..ExecConfig::default()
        }
    }

    /// A 12-person world over 8 slots on 4 shards. `step` shapes the
    /// friendships (`v — v + step`), `slots` marks whose calendars are
    /// free, and `churn` re-weights one edge back and forth so the
    /// world's versions climb far above what its state replays to.
    fn world(step: u32, slots: SlotRange, churn: usize) -> Planner {
        let mut p = Planner::with_exec_config(8, sharded_cfg());
        let ids: Vec<NodeId> = (0..12).map(|i| p.add_person(format!("p{i}"))).collect();
        for v in 0..12u32 {
            let u = (v + step) % 12;
            p.connect(
                ids[v as usize],
                ids[u as usize],
                1 + u64::from((v * step) % 4),
            )
            .unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            if i % 3 != 1 {
                p.set_availability_range(id, slots, true).unwrap();
            }
        }
        for i in 0..churn {
            let w = if i % 2 == 0 { 9 } else { 1 };
            p.connect(ids[0], ids[step as usize], w).unwrap();
            p.set_availability(ids[2], slots.lo, i % 2 == 1).unwrap();
        }
        p
    }

    fn sharded_cfg() -> ExecConfig {
        ExecConfig {
            workers: 1,
            shards: 4,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn full_sync_of_another_world_replaces_every_published_shard() {
        // World A is published first at versions far above anything world
        // B's restore replays internally, and B is carried at versions
        // above A's. Without the row-stamp flood in `force_version`, B's
        // restored rows would look older than A's shard stamps and A's
        // rows would be patched forward into B's epoch.
        let a = world(1, SlotRange::new(0, 7), 60);
        let b = world(5, SlotRange::new(2, 6), 150);
        assert!(b.network().version() > a.network().version());
        assert!(b.calendars().version() > a.calendars().version());
        let node = ClusterNode::new(0, sharded_cfg());
        for planner in [&a, &b] {
            let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Full(
                planner.world_state(),
            )));
            assert!(matches!(reply, NodeReply::Ack { .. }), "{reply:?}");
        }

        let snap = node.executor().snapshot().expect("full sync publishes");
        let cals = b.calendars();
        for s in 0..4 {
            assert_eq!(
                **snap.graph_segment(s),
                b.network().segment(s, 4),
                "segment {s}"
            );
            let block = snap.calendar_shard(s);
            assert_eq!(block.rows(), 3);
            for r in 0..3 {
                assert_eq!(block.get(r), *cals.calendar(s + 4 * r), "shard {s} row {r}");
            }
        }

        let graph = b.network().snapshot();
        let cfg = SelectConfig::default();
        let sgq = SgqQuery::new(3, 2, 1).unwrap();
        let stgq = StgqQuery::new(3, 2, 1, 3).unwrap();
        let requests: Vec<WireRequest> = (0..12u32)
            .flat_map(|v| [QuerySpec::Sgq(sgq), QuerySpec::Stgq(stgq)].map(|spec| (v, spec)))
            .map(|(v, spec)| WireRequest {
                initiator: NodeId(v),
                spec,
                engine: Engine::Exact,
                min_epoch: None,
            })
            .collect();
        let NodeReply::Outcomes(outcomes) = node.handle(NodeMsg::Execute(requests.clone())) else {
            panic!("execute must reply with outcomes");
        };
        for (request, outcome) in requests.iter().zip(outcomes) {
            let q = request.initiator;
            let oracle = match request.spec {
                QuerySpec::Sgq(sq) => solve_sgq_reference(&graph, q, &sq, &cfg)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance),
                QuerySpec::Stgq(tq) => solve_stgq_reference(&graph, q, cals.calendars(), &tq, &cfg)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance),
            };
            assert_eq!(outcome.unwrap().outcome.objective(), oracle, "{request:?}");
        }
    }

    #[test]
    fn unattached_node_refuses_queries_and_deltas() {
        let node = ClusterNode::new(0, exec_cfg());
        let sgq = SgqQuery::new(2, 1, 1).unwrap();
        let NodeReply::Outcomes(outcomes) = node.handle(NodeMsg::Execute(vec![WireRequest {
            initiator: NodeId(0),
            spec: QuerySpec::Sgq(sgq),
            engine: Engine::Exact,
            min_epoch: None,
        }])) else {
            panic!("execute must reply with outcomes");
        };
        assert_eq!(outcomes, vec![Err(ExecError::NoSnapshot)]);

        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: 0,
            records: Vec::new(),
        }));
        assert_eq!(reply, NodeReply::Stale { have_seq: 0 });
    }

    #[test]
    fn full_sync_then_deltas_track_the_writer() {
        let mut p = writer();
        let node = ClusterNode::new(0, exec_cfg());

        // Attach: full sync.
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Full(
            p.world_state(),
        )));
        let NodeReply::Ack { seq, epoch } = reply else {
            panic!("full sync must ack, got {reply:?}");
        };
        assert_eq!(seq, p.delta_seq());
        assert_eq!(
            epoch,
            Epoch::new(p.network().version(), p.calendars().version())
        );
        assert!(node.status().attached);
        assert_eq!(node.status().full_syncs, 1);

        // The node answers queries now.
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let ask = |node: &ClusterNode| -> Option<u64> {
            let NodeReply::Outcomes(mut outcomes) =
                node.handle(NodeMsg::Execute(vec![WireRequest {
                    initiator: NodeId(0),
                    spec: QuerySpec::Sgq(sgq),
                    engine: Engine::Exact,
                    min_epoch: None,
                }]))
            else {
                panic!("execute must reply with outcomes");
            };
            outcomes.remove(0).unwrap().outcome.objective()
        };
        assert_eq!(ask(&node), Some(5));

        // Writer mutates; catch up via deltas only.
        let have = p.delta_seq();
        p.connect(NodeId(0), NodeId(3), 1).unwrap();
        p.connect(NodeId(1), NodeId(3), 1).unwrap();
        let records = p.deltas_since(have).unwrap();
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: have,
            records,
        }));
        let NodeReply::Ack { seq, epoch } = reply else {
            panic!("delta batch must ack, got {reply:?}");
        };
        assert_eq!(seq, p.delta_seq());
        assert_eq!(epoch.graph, p.network().version());
        assert_eq!(node.status().delta_batches, 1);
        assert_eq!(node.status().full_syncs, 1, "no extra full sync");
        assert_eq!(ask(&node), Some(3), "new epoch, new answer");

        // Mis-spliced deltas are refused.
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: 1,
            records: Vec::new(),
        }));
        assert_eq!(
            reply,
            NodeReply::Stale {
                have_seq: p.delta_seq()
            }
        );
    }
}
