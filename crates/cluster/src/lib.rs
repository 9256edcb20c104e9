//! `stgq-cluster` — shard-routed multi-node serving over replicated
//! epoch snapshots: the horizontal scale-out layer above the
//! single-process `stgq-exec` executor.
//!
//! # Architecture: router → transport → replication → node executors
//!
//! ```text
//!                       mutations
//!                           │
//!                    ┌──────▼──────┐   deltas / full sync    ┌────────────┐
//!                    │   writer    ├────────────────────────▶│ ClusterNode│
//!                    │  (Planner + │                         │  mirror +  │
//!                    │  delta log) ├──────────┐              │  Executor  │
//!                    └──────┬──────┘          ▼              └─────▲──────┘
//!                           │ epoch     ┌────────────┐            │
//!   plan_batch ────────────▶│           │ Transport  │◀───────────┘
//!        │            ┌─────▼─────┐     │ (in-process│    Execute /
//!        └───────────▶│ShardRouter├────▶│  or wire)  │    Replicate /
//!          scatter by │ shard→node│     └────────────┘    Status
//!        initiator    └───────────┘
//! ```
//!
//! * **Shard routing** ([`ShardRouter`]). The executor already
//!   partitions all work by initiator shard (`initiator mod shards` —
//!   batch grouping, feasible-graph cache, result cache). The router
//!   lifts that same partition across machines: every shard is owned by
//!   one node, a batch is **scattered** into per-node sub-batches
//!   (submission order preserved within a node, which within-batch
//!   collapsing relies on) and **gathered** back in input order. Because
//!   the partition matches the nodes' internal cache partition,
//!   same-initiator traffic keeps hitting the same warm caches it did in
//!   one process. Node drain/removal reassigns shards round-robin over
//!   the survivors ([`Cluster::drain_node`]).
//! * **Pluggable transport** ([`Transport`]). Nodes exchange a small,
//!   fully wire-encodable protocol ([`NodeMsg`]/[`NodeReply`]): ship a
//!   replication payload, execute a shard batch, report status. The
//!   offline build has no network registry crates, so the shipped
//!   implementation is [`InProcessTransport`] — the whole cluster runs
//!   (and is deterministically tested) inside one process; its
//!   [`WireCodec::Json`] mode round-trips every message through JSON so
//!   nothing process-local leaks into the protocol. A real network
//!   transport is a drop-in impl of the same trait.
//! * **Snapshot replication** ([`Replicator`], service-side
//!   `WorldDelta`/`DeltaLog`/`WorldState`). The single **writer** owns
//!   the mutable world; every mutation is appended to a bounded delta
//!   log stamped with the resulting `(graph_version, calendar_version)`.
//!   Replicas replay deltas into a local mirror and **epoch-swap** their
//!   executor's immutable `WorldSnapshot` under the writer's stamps —
//!   through the planner's own `republish`, which patches only the
//!   shards (graph CSR segment / calendar block) whose stamps moved.
//!   A node attaching fresh, or one whose acknowledged sequence has
//!   fallen out of the log (**gap detection**), gets a full
//!   `WorldState` sync and resumes deltas from there.
//! * **Read-your-writes** ([`Epoch`], `PlanRequest::min_epoch`). Routed
//!   requests carry the writer's epoch as a minimum; a lagging replica
//!   *refuses* (`ExecError::EpochTooOld`) rather than serving stale
//!   answers. Replica lag is observable per node and per axis
//!   ([`Cluster::metrics`] → [`NodeLag`]).
//!
//! Exactness is untouched by distribution: nodes run the same executor
//! over the same epochs, so a cluster of any size returns bit-identical
//! objectives and groups to a single `Executor` — the cluster
//! determinism suite pins that across 1/2/4 nodes.
//!
//! # Self-healing
//!
//! The cluster heals itself through four cooperating mechanisms, all
//! driven by the same failure model: **transient transport faults**
//! (dropped frames, refused connects, timeouts) and **fail-stop nodes**
//! (crash, partition). Byzantine behavior is out of scope — nodes are
//! trusted once they answer.
//!
//! * **Retry/backoff** ([`RetryPolicy`]): every send is retried within a
//!   per-message-class budget with bounded exponential backoff and
//!   deterministic jitter, so blips never surface as errors.
//! * **Failure detection** ([`HealthConfig`], [`Suspicion`]): each
//!   [`Cluster::heartbeat`] round probes every node; consecutive misses
//!   accrue suspicion, and a suspected node is **auto-drained** — its
//!   shards reassign to the survivors and any in-flight batch entries it
//!   failed are re-dispatched to the new owners.
//! * **Catch-up** ([`Replicator`]): a node answering again after an
//!   auto-drain is re-attached through the normal delta/full-sync path
//!   and undrained; the delta log's gap detection decides which.
//! * **Writer failover** ([`Cluster::fail_over`]): the reachable replica
//!   with the highest applied sequence exports its mirrored world
//!   ([`NodeMsg::Export`]) and is promoted to a fresh writer whose
//!   version stamps are bumped past every epoch any replica ever acked —
//!   epochs stay monotonic fleet-wide, so version-keyed caches and
//!   read-your-writes floors stay sound across the promotion.
//!
//! The whole loop is exercised by seeded chaos tests: an expanded
//! [`FaultInjector`] (drops, probabilistic loss, latency, one-way
//! partitions, crash/restart) with per-node deterministic RNG streams
//! makes every chaos run replay bit-identically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
mod health;
mod message;
mod node;
mod obs;
mod replication;
mod retry;
mod router;
mod tcp;
mod transport;

pub use cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterMetrics, ClusterObs, FailoverError, NodeLag,
};
pub use health::{HealthConfig, Suspicion};
pub use message::{
    Epoch, NodeMsg, NodeObs, NodeReply, NodeStatus, ReplicationPayload, WireRequest,
};
pub use node::ClusterNode;
pub use obs::{RpcObs, CLUSTER_RPC_HISTOGRAMS};
pub use replication::{Replicator, SyncError};
pub use retry::{MsgClass, RetryPolicy};
pub use router::{RouterError, ShardRouter};
pub use tcp::{TcpNodeServer, TcpTimeouts, TcpTransport};
pub use transport::{
    FaultCounters, FaultInjector, InProcessTransport, Transport, TransportError, WireCodec,
};
