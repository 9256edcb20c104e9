//! World set-up and the two serving entry points the ledger drives: the
//! `stgq-service` [`Planner`] inline, and the `stgq-cluster` [`Cluster`]
//! over loopback TCP. Every call here is a public entry point of the
//! serving stack; the ledger never reaches inside it.

use std::sync::Arc;

use stgq_cluster::{Cluster, ClusterConfig, ClusterNode, TcpNodeServer, TcpTransport};
use stgq_core::{SelectConfig, SgqQuery};
use stgq_datagen::metropolis::{metropolis_with_communities, MetropolisConfig};
use stgq_datagen::scenario::real_analog_194;
use stgq_datagen::Dataset;
use stgq_exec::{ExecConfig, ExecMetrics, PlanOutcome, QuerySpec, WorldSnapshot};
use stgq_graph::{NodeId, SocialGraph};
use stgq_schedule::{Calendar, SlotRange};
use stgq_service::{BatchQuery, Engine, PlanReply, Planner};

use crate::stream::{Query, Write, WriteGen};

/// Members of the `metropolis-writes` world.
pub const METROPOLIS_MEMBERS: usize = 100_000;
/// Initiator-shard count of every executor (the serving default).
pub const SHARDS: usize = 16;

/// One served answer, as the checks and the trace need it.
pub struct Answer {
    pub solution: Solution,
    pub feasible_hit: bool,
    pub result_hit: bool,
}

pub enum Solution {
    Sgq(Option<stgq_core::SgqSolution>),
    Stgq(Option<stgq_core::StgqSolution>),
}

impl Solution {
    pub fn objective(&self) -> Option<u64> {
        match self {
            Solution::Sgq(s) => s.as_ref().map(|s| s.total_distance),
            Solution::Stgq(s) => s.as_ref().map(|s| s.total_distance),
        }
    }
}

impl From<PlanOutcome> for Answer {
    fn from(o: PlanOutcome) -> Self {
        Answer {
            solution: match o.outcome {
                stgq_core::SolveOutcome::Sgq(out) => Solution::Sgq(out.solution),
                stgq_core::SolveOutcome::Stgq(out) => Solution::Stgq(out.solution),
            },
            feasible_hit: o.feasible_cache_hit,
            result_hit: o.result_cache_hit,
        }
    }
}

impl From<PlanReply> for Answer {
    fn from(r: PlanReply) -> Self {
        match r {
            PlanReply::Sgq(r) => Answer {
                solution: Solution::Sgq(r.solution),
                feasible_hit: r.feasible_cache_hit,
                result_hit: r.result_cache_hit,
            },
            PlanReply::Stgq(r) => Answer {
                solution: Solution::Stgq(r.solution),
                feasible_hit: r.feasible_cache_hit,
                result_hit: r.result_cache_hit,
            },
        }
    }
}

// One value per lane, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Serving {
    Inline(Planner),
    Cluster {
        cluster: Cluster,
        /// Kept alive for the cluster's lifetime; dropping one stops its
        /// listener.
        _servers: Vec<TcpNodeServer>,
    },
}

/// A loaded world behind one entry point, with the targets its op stream
/// may write to.
pub struct World {
    serving: Serving,
    people: usize,
    /// The publish probe's initiator: the least-connected person.
    pub probe: NodeId,
    /// The fixed 64-query batch of the cluster workload (empty inline).
    pub hot_batch: Vec<BatchQuery>,
    writes: WriteGen,
}

/// SGQ(1, 1, 0): a one-person group, so the probe's solve is trivial and
/// its answer stays cached while writes avoid its shards.
pub fn probe_query() -> QuerySpec {
    QuerySpec::Sgq(SgqQuery::new(1, 1, 0).expect("valid probe"))
}

/// The mutation surface the planner and the cluster's writer share.
trait Mutate {
    fn add(&mut self, label: String) -> NodeId;
    fn connect(&mut self, a: NodeId, b: NodeId, d: u64) -> Result<(), String>;
    fn calendar(&mut self, v: NodeId, cal: Calendar) -> Result<(), String>;
    fn range(&mut self, v: NodeId, r: SlotRange, on: bool) -> Result<(), String>;
}

macro_rules! mutate_via {
    ($t:ty) => {
        impl Mutate for $t {
            fn add(&mut self, label: String) -> NodeId {
                self.add_person(label)
            }
            fn connect(&mut self, a: NodeId, b: NodeId, d: u64) -> Result<(), String> {
                <$t>::connect(self, a, b, d).map_err(|e| e.to_string())
            }
            fn calendar(&mut self, v: NodeId, cal: Calendar) -> Result<(), String> {
                self.set_calendar(v, cal).map_err(|e| e.to_string())
            }
            fn range(&mut self, v: NodeId, r: SlotRange, on: bool) -> Result<(), String> {
                self.set_availability_range(v, r, on)
                    .map_err(|e| e.to_string())
            }
        }
    };
}
mutate_via!(Planner);
mutate_via!(Cluster);

/// Load a generated dataset through the public mutation API.
fn load(ds: &Dataset, target: &mut impl Mutate) {
    for v in 0..ds.graph.node_count() {
        target.add(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        target.connect(e.a, e.b, e.weight).expect("generated edge");
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        target
            .calendar(NodeId(v as u32), cal.clone())
            .expect("generated person");
    }
}

impl World {
    /// The 194-person analog (7 days of half-hour slots) on an inline
    /// planner with the default executor.
    pub fn paper194(seed: u64) -> World {
        let ds = real_analog_194(7, seed);
        let mut planner = Planner::with_exec_config(ds.grid.horizon(), ExecConfig::default());
        load(&ds, &mut planner);
        let edges: Vec<_> = ds.graph.edges().map(|e| (e.a, e.b)).collect();
        World::publish(Serving::Inline(planner), &ds, edges)
    }

    /// The 10^5-member metropolis (one day) on an inline planner with a
    /// 16-shard executor. Writes re-weight a friendship inside one
    /// community, so each dirties one shard.
    pub fn metropolis(seed: u64) -> World {
        let cfg = MetropolisConfig::with_members(METROPOLIS_MEMBERS);
        assert_eq!(
            cfg.shards, SHARDS,
            "communities align with the executor shards"
        );
        let (ds, communities) = metropolis_with_communities(&cfg, 1, seed);
        let mut planner = Planner::with_exec_config(
            ds.grid.horizon(),
            ExecConfig {
                shards: SHARDS,
                ..ExecConfig::default()
            },
        );
        load(&ds, &mut planner);
        // Each community's connectivity chain: friendships that always
        // exist and never leave the community.
        let edges = communities
            .iter()
            .flat_map(|c| c.windows(2).map(|w| (NodeId(w[0]), NodeId(w[1]))))
            .collect();
        World::publish(Serving::Inline(planner), &ds, edges)
    }

    /// The 194-person analog behind a two-node loopback-TCP cluster, one
    /// worker per node and 16 shards.
    pub fn cluster(seed: u64) -> World {
        let ds = real_analog_194(7, seed);
        let cfg = ClusterConfig {
            nodes: 2,
            shards: SHARDS,
            node_exec: ExecConfig {
                workers: 1,
                shards: SHARDS,
                ..ExecConfig::default()
            },
            ..ClusterConfig::default()
        };
        let nodes: Vec<Arc<ClusterNode>> = (0..cfg.nodes)
            .map(|id| Arc::new(ClusterNode::new(id, cfg.node_exec)))
            .collect();
        let servers: Vec<TcpNodeServer> = nodes
            .iter()
            .map(|n| TcpNodeServer::spawn(Arc::clone(n)).expect("bind a loopback port"))
            .collect();
        let transport = Arc::new(TcpTransport::new(
            servers.iter().map(|s| s.addr()).collect(),
        ));
        let mut cluster = Cluster::from_parts(ds.grid.horizon(), cfg, nodes, transport);
        load(&ds, &mut cluster);
        let edges: Vec<_> = ds.graph.edges().map(|e| (e.a, e.b)).collect();
        let mut world = World::publish(
            Serving::Cluster {
                cluster,
                _servers: servers,
            },
            &ds,
            edges,
        );
        world.hot_batch = stgq_bench::serving::hot_workload(&ds, 4, 2, 2, 4);
        world
    }

    /// Pick the probe, keep the write targets clear of its shards, and
    /// publish the first epoch with the probe's first query.
    fn publish(serving: Serving, ds: &Dataset, edges: Vec<(NodeId, NodeId)>) -> World {
        let g = &ds.graph;
        let probe = g
            .nodes()
            .min_by_key(|&v| (g.degree(v), v.0))
            .expect("non-empty world");
        let mut blocked = [false; SHARDS];
        blocked[probe.index() % SHARDS] = true;
        for &u in g.neighbors(probe) {
            blocked[u as usize % SHARDS] = true;
        }
        let free = |v: NodeId| !blocked[v.index() % SHARDS];
        let edges: Vec<_> = edges
            .into_iter()
            .filter(|&(a, b)| free(a) && free(b))
            .collect();
        let distances = g.edges().map(|e| e.weight).collect();
        let people = g.nodes().filter(|&v| free(v)).collect();
        let world = World {
            serving,
            people: g.node_count(),
            probe,
            hot_batch: Vec::new(),
            writes: WriteGen {
                edges,
                distances,
                people,
                horizon: ds.grid.horizon(),
            },
        };
        world
            .query(&Query {
                initiator: probe,
                spec: probe_query(),
            })
            .expect("first publish");
        world
    }

    pub fn people(&self) -> usize {
        self.people
    }

    pub fn write_targets(&self) -> WriteGen {
        self.writes.clone()
    }

    pub fn write(&mut self, w: &Write) -> Result<(), String> {
        let target: &mut dyn Mutate = match &mut self.serving {
            Serving::Inline(p) => p,
            Serving::Cluster { cluster, .. } => cluster,
        };
        match *w {
            Write::Reweight { a, b, distance } => target.connect(a, b, distance),
            Write::Calendar {
                person,
                range,
                available,
            } => target.range(person, range, available),
        }
    }

    /// One query: inline `plan_sgq`/`plan_stgq`, or a single-entry
    /// `Cluster::plan_batch` (replicate, route, TCP round trip).
    pub fn query(&self, q: &Query) -> Result<Answer, String> {
        match &self.serving {
            Serving::Inline(p) => match q.spec {
                QuerySpec::Sgq(s) => p
                    .plan_sgq(q.initiator, &s, Engine::Exact)
                    .map(|r| PlanReply::Sgq(r).into()),
                QuerySpec::Stgq(s) => p
                    .plan_stgq(q.initiator, &s, Engine::Exact)
                    .map(|r| PlanReply::Stgq(r).into()),
            }
            .map_err(|e| e.to_string()),
            Serving::Cluster { cluster, .. } => cluster
                .plan_batch(&[q.batch_entry()])
                .pop()
                .expect("one reply per entry")
                .map(Answer::from)
                .map_err(|e| e.to_string()),
        }
    }

    pub fn batch(&self, b: &[BatchQuery]) -> Vec<Result<Answer, String>> {
        match &self.serving {
            Serving::Inline(p) => p
                .plan_batch(b)
                .into_iter()
                .map(|r| r.map(Answer::from).map_err(|e| e.to_string()))
                .collect(),
            Serving::Cluster { cluster, .. } => cluster
                .plan_batch(b)
                .into_iter()
                .map(|r| r.map(Answer::from).map_err(|e| e.to_string()))
                .collect(),
        }
    }

    /// The cluster's explicit replication round, if this world has one.
    pub fn replicate(&self) -> Option<Result<(), String>> {
        match &self.serving {
            Serving::Inline(_) => None,
            Serving::Cluster { cluster, .. } => {
                Some(cluster.replicate().into_iter().try_for_each(|(node, r)| {
                    r.map(|_| ()).map_err(|e| format!("node {node}: {e:?}"))
                }))
            }
        }
    }

    /// The epoch queries are served from (a node's, on the cluster: all
    /// nodes hold the writer's epoch after replication).
    pub fn serving_snapshot(&self) -> Arc<WorldSnapshot> {
        match &self.serving {
            Serving::Inline(p) => p.executor().snapshot(),
            Serving::Cluster { cluster, .. } => cluster.nodes()[0].executor().snapshot(),
        }
        .expect("a published epoch")
    }

    pub fn select_config(&self) -> SelectConfig {
        match &self.serving {
            Serving::Inline(p) => p.config(),
            Serving::Cluster { cluster, .. } => cluster.nodes()[0].executor().select_config(),
        }
    }

    /// The planner that owns the mutable world (the cluster's writer).
    pub fn writer(&self) -> &Planner {
        match &self.serving {
            Serving::Inline(p) => p,
            Serving::Cluster { cluster, .. } => cluster.writer(),
        }
    }

    /// The flat graph at the writer's current epoch, for the answer
    /// checks.
    pub fn check_graph(&self) -> SocialGraph {
        Arc::unwrap_or_clone(self.writer().graph_snapshot())
    }

    /// Executor counters summed over every executor that serves queries.
    pub fn exec_metrics(&self) -> Vec<ExecMetrics> {
        match &self.serving {
            Serving::Inline(p) => vec![p.exec_metrics()],
            Serving::Cluster { cluster, .. } => cluster
                .nodes()
                .iter()
                .map(|n| n.executor().metrics())
                .collect(),
        }
    }

    /// `(retries, failed_sends)` of the cluster, zero inline.
    pub fn cluster_faults(&self) -> (u64, u64) {
        match &self.serving {
            Serving::Inline(_) => (0, 0),
            Serving::Cluster { cluster, .. } => {
                let m = cluster.metrics();
                (m.retries, m.failed_sends)
            }
        }
    }

    pub fn is_cluster(&self) -> bool {
        matches!(self.serving, Serving::Cluster { .. })
    }
}
