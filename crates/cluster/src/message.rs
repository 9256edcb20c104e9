//! The cluster protocol: every message and reply that crosses a
//! [`Transport`](crate::Transport), plus their wire encodings.
//!
//! Two planes share one envelope type ([`NodeMsg`]):
//!
//! * **replication** — the writer ships [`ReplicationPayload`]s (ordered
//!   deltas, or a full state for first attach / gap recovery) and nodes
//!   acknowledge with their applied sequence and epoch;
//! * **data** — the router scatters [`WireRequest`] batches and gathers
//!   per-entry outcomes.
//!
//! All of it is JSON-encodable through the workspace serde shim: the
//! in-process transport can run in a codec-exercising mode that
//! round-trips every message through its wire form, so a future network
//! transport changes *where* bytes go, not *what* they say.

use serde::value::{get, Value};
use serde::{DeError, Deserialize, Serialize};
use stgq_exec::{Engine, ExecError, PlanOutcome, QuerySpec};
use stgq_graph::NodeId;
use stgq_obs::{HistogramSnapshot, BUCKETS};
use stgq_service::{DeltaRecord, WorldState};

/// A world version stamp: the `(graph, calendar)` pair identifying one
/// published epoch. Ordered axis-wise — an epoch *covers* a requirement
/// iff it is at least as new on **both** axes (graph and calendar
/// versions advance independently).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Epoch {
    /// The network (graph) version.
    pub graph: u64,
    /// The calendar-store version.
    pub calendar: u64,
}

impl Epoch {
    /// Build from a `(graph_version, calendar_version)` pair.
    pub fn new(graph: u64, calendar: u64) -> Self {
        Epoch { graph, calendar }
    }

    /// Whether this epoch satisfies `min` on both axes.
    pub fn covers(&self, min: Epoch) -> bool {
        self.graph >= min.graph && self.calendar >= min.calendar
    }
}

/// One query as it crosses the transport: the executor request minus the
/// process-local control handles (deadlines and cancellation tokens do
/// not serialize; cluster requests are the deterministic, collapsible
/// kind).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireRequest {
    /// Who is asking.
    pub initiator: NodeId,
    /// What is being asked.
    pub spec: QuerySpec,
    /// Which solver answers it.
    pub engine: Engine,
    /// Read-your-writes floor: the answering node's epoch must cover
    /// this or the request is refused ([`ExecError::EpochTooOld`]).
    pub min_epoch: Option<Epoch>,
}

/// What the writer ships to a replica in one replication round.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicationPayload {
    /// The ordered mutations after the replica's acknowledged sequence.
    /// `from_seq` is the sequence the records splice onto — a replica
    /// whose applied sequence differs replies [`NodeReply::Stale`]
    /// instead of applying out of order.
    Deltas {
        /// The sequence number the first record follows.
        from_seq: u64,
        /// The mutations, oldest first, each with its version stamps.
        records: Vec<DeltaRecord>,
    },
    /// A complete world copy: first attach, or the delta log no longer
    /// reaches back to the replica's sequence (gap).
    Full(WorldState),
}

/// A message to one cluster node.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeMsg {
    /// Replication plane: apply this payload and acknowledge.
    Replicate(ReplicationPayload),
    /// Data plane: answer this shard batch against the local epoch.
    Execute(Vec<WireRequest>),
    /// Observability: report sequence, epoch and serving counters. Also
    /// serves as the heartbeat probe — a node that answers *anything* is
    /// alive.
    Status,
    /// Deep observability: report status **plus** the node executor's
    /// latency histograms ([`NodeObs`]) — what
    /// [`Cluster::observability`](crate::Cluster::observability)
    /// scatter/gathers to build the fleet-wide latency spectrum.
    Metrics,
    /// Failover: export the node's full mirrored world ([`WorldState`]),
    /// so a surviving replica can be promoted to writer.
    Export,
}

/// Point-in-time serving counters of one node, as reported by
/// [`NodeMsg::Status`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeStatus {
    /// The last delta sequence applied.
    pub seq: u64,
    /// The epoch of the node's published snapshot.
    pub epoch: Epoch,
    /// Whether the node has completed its first sync.
    pub attached: bool,
    /// Full syncs this node went through (first attach + gap recoveries).
    pub full_syncs: u64,
    /// Incremental delta batches applied.
    pub delta_batches: u64,
    /// Queries answered by the node's executor.
    pub queries: u64,
    /// Result-cache hits at the node.
    pub result_cache_hits: u64,
}

/// One node's deep observability report ([`NodeMsg::Metrics`]): its
/// status plus its executor's named latency histograms (the rows of
/// [`ExecObs::HISTOGRAMS`](stgq_exec::ExecObs::HISTOGRAMS)). Histograms
/// cross the wire as plain bucket arrays, so the cluster can merge them
/// fleet-wide — log₂ histograms merge exactly by element-wise addition.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeObs {
    /// The node's serving status (same report as [`NodeMsg::Status`]).
    pub status: NodeStatus,
    /// Named histogram snapshots from the node's executor.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A node's answer to one [`NodeMsg`].
#[derive(Clone, Debug, PartialEq)]
pub enum NodeReply {
    /// Replication applied; the node now stands at this sequence/epoch.
    Ack {
        /// Last applied delta sequence.
        seq: u64,
        /// The epoch now published to the node's executor.
        epoch: Epoch,
    },
    /// The delta payload did not splice onto the node's sequence (the
    /// node missed earlier records, or has never attached): the writer
    /// must fall back to a full sync.
    Stale {
        /// The sequence the node actually stands at.
        have_seq: u64,
    },
    /// Replication failed irrecoverably at the node (corrupt payload).
    Failed {
        /// Human-readable cause.
        reason: String,
    },
    /// Data-plane outcomes, one per [`WireRequest`], in request order.
    Outcomes(Vec<Result<PlanOutcome, ExecError>>),
    /// Status report.
    Status(NodeStatus),
    /// Deep observability report, answering [`NodeMsg::Metrics`].
    Metrics(NodeObs),
    /// The node's full mirrored world, answering [`NodeMsg::Export`].
    State(WorldState),
}

// ---- wire encodings --------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn need<'a>(entries: &'a [(String, Value)], name: &str, ty: &str) -> Result<&'a Value, DeError> {
    get(entries, name).ok_or_else(|| DeError::new(format!("missing field `{name}` in {ty}")))
}

fn tagged(v: &Value, ty: &str) -> Result<(String, Vec<(String, Value)>), DeError> {
    let entries = v
        .as_object()
        .ok_or_else(|| DeError::new(format!("expected object for {ty}")))?;
    let [(tag, inner)] = entries else {
        return Err(DeError::new(format!(
            "{ty} object must have exactly one key"
        )));
    };
    let fields = inner
        .as_object()
        .ok_or_else(|| DeError::new(format!("expected object payload for {ty}::{tag}")))?;
    Ok((tag.clone(), fields.to_vec()))
}

impl Serialize for Epoch {
    fn to_value(&self) -> Value {
        obj(vec![
            ("graph", self.graph.to_value()),
            ("calendar", self.calendar.to_value()),
        ])
    }
}

impl Deserialize for Epoch {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for Epoch"))?;
        Ok(Epoch {
            graph: u64::from_value(need(entries, "graph", "Epoch")?)?,
            calendar: u64::from_value(need(entries, "calendar", "Epoch")?)?,
        })
    }
}

impl Serialize for WireRequest {
    fn to_value(&self) -> Value {
        obj(vec![
            ("initiator", self.initiator.0.to_value()),
            ("spec", self.spec.to_value()),
            ("engine", self.engine.to_value()),
            ("min_epoch", self.min_epoch.to_value()),
        ])
    }
}

impl Deserialize for WireRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for WireRequest"))?;
        Ok(WireRequest {
            initiator: NodeId(u32::from_value(need(entries, "initiator", "WireRequest")?)?),
            spec: QuerySpec::from_value(need(entries, "spec", "WireRequest")?)?,
            engine: Engine::from_value(need(entries, "engine", "WireRequest")?)?,
            min_epoch: Option::from_value(need(entries, "min_epoch", "WireRequest")?)?,
        })
    }
}

impl Serialize for ReplicationPayload {
    fn to_value(&self) -> Value {
        match self {
            ReplicationPayload::Deltas { from_seq, records } => obj(vec![(
                "deltas",
                obj(vec![
                    ("from_seq", from_seq.to_value()),
                    ("records", records.to_value()),
                ]),
            )]),
            ReplicationPayload::Full(state) => {
                obj(vec![("full", obj(vec![("state", state.to_value())]))])
            }
        }
    }
}

impl Deserialize for ReplicationPayload {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (tag, fields) = tagged(v, "ReplicationPayload")?;
        match tag.as_str() {
            "deltas" => Ok(ReplicationPayload::Deltas {
                from_seq: u64::from_value(need(&fields, "from_seq", "deltas")?)?,
                records: Vec::from_value(need(&fields, "records", "deltas")?)?,
            }),
            "full" => Ok(ReplicationPayload::Full(WorldState::from_value(need(
                &fields, "state", "full",
            )?)?)),
            other => Err(DeError::new(format!(
                "unknown ReplicationPayload `{other}`"
            ))),
        }
    }
}

impl Serialize for NodeMsg {
    fn to_value(&self) -> Value {
        match self {
            NodeMsg::Replicate(p) => obj(vec![("replicate", obj(vec![("payload", p.to_value())]))]),
            NodeMsg::Execute(reqs) => {
                obj(vec![("execute", obj(vec![("requests", reqs.to_value())]))])
            }
            NodeMsg::Status => Value::Str("status".to_string()),
            NodeMsg::Metrics => Value::Str("metrics".to_string()),
            NodeMsg::Export => Value::Str("export".to_string()),
        }
    }
}

impl Deserialize for NodeMsg {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Value::Str(s) = v {
            return match s.as_str() {
                "status" => Ok(NodeMsg::Status),
                "metrics" => Ok(NodeMsg::Metrics),
                "export" => Ok(NodeMsg::Export),
                other => Err(DeError::new(format!("unknown NodeMsg `{other}`"))),
            };
        }
        let (tag, fields) = tagged(v, "NodeMsg")?;
        match tag.as_str() {
            "replicate" => Ok(NodeMsg::Replicate(ReplicationPayload::from_value(need(
                &fields,
                "payload",
                "replicate",
            )?)?)),
            "execute" => Ok(NodeMsg::Execute(Vec::from_value(need(
                &fields, "requests", "execute",
            )?)?)),
            other => Err(DeError::new(format!("unknown NodeMsg `{other}`"))),
        }
    }
}

impl Serialize for NodeStatus {
    fn to_value(&self) -> Value {
        obj(vec![
            ("seq", self.seq.to_value()),
            ("epoch", self.epoch.to_value()),
            ("attached", self.attached.to_value()),
            ("full_syncs", self.full_syncs.to_value()),
            ("delta_batches", self.delta_batches.to_value()),
            ("queries", self.queries.to_value()),
            ("result_cache_hits", self.result_cache_hits.to_value()),
        ])
    }
}

impl Deserialize for NodeStatus {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for NodeStatus"))?;
        Ok(NodeStatus {
            seq: u64::from_value(need(entries, "seq", "NodeStatus")?)?,
            epoch: Epoch::from_value(need(entries, "epoch", "NodeStatus")?)?,
            attached: bool::from_value(need(entries, "attached", "NodeStatus")?)?,
            full_syncs: u64::from_value(need(entries, "full_syncs", "NodeStatus")?)?,
            delta_batches: u64::from_value(need(entries, "delta_batches", "NodeStatus")?)?,
            queries: u64::from_value(need(entries, "queries", "NodeStatus")?)?,
            result_cache_hits: u64::from_value(need(entries, "result_cache_hits", "NodeStatus")?)?,
        })
    }
}

// `HistogramSnapshot` is foreign to both this crate and the serde shim
// (and `stgq-obs` is deliberately dependency-free), so its wire form
// lives here: trailing zero buckets are trimmed on encode and padded
// back on decode — a mostly-empty 64-bucket spectrum costs a few array
// elements, not 64.
fn hist_to_value(name: &str, h: &HistogramSnapshot) -> Value {
    let used = BUCKETS - h.buckets.iter().rev().take_while(|&&b| b == 0).count();
    obj(vec![
        ("name", name.to_value()),
        ("count", h.count.to_value()),
        ("sum_ns", h.sum_ns.to_value()),
        ("buckets", h.buckets[..used].to_vec().to_value()),
    ])
}

fn hist_from_value(v: &Value) -> Result<(String, HistogramSnapshot), DeError> {
    let entries = v
        .as_object()
        .ok_or_else(|| DeError::new("expected object for histogram"))?;
    let raw: Vec<u64> = Vec::from_value(need(entries, "buckets", "histogram")?)?;
    if raw.len() > BUCKETS {
        return Err(DeError::new(format!(
            "histogram has {} buckets, max {BUCKETS}",
            raw.len()
        )));
    }
    let mut buckets = [0u64; BUCKETS];
    buckets[..raw.len()].copy_from_slice(&raw);
    Ok((
        String::from_value(need(entries, "name", "histogram")?)?,
        HistogramSnapshot {
            buckets,
            count: u64::from_value(need(entries, "count", "histogram")?)?,
            sum_ns: u64::from_value(need(entries, "sum_ns", "histogram")?)?,
        },
    ))
}

impl Serialize for NodeObs {
    fn to_value(&self) -> Value {
        obj(vec![
            ("status", self.status.to_value()),
            (
                "histograms",
                Value::Array(
                    self.histograms
                        .iter()
                        .map(|(name, h)| hist_to_value(name, h))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for NodeObs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for NodeObs"))?;
        let items = need(entries, "histograms", "NodeObs")?
            .as_array()
            .ok_or_else(|| DeError::new("expected array for NodeObs histograms"))?;
        Ok(NodeObs {
            status: NodeStatus::from_value(need(entries, "status", "NodeObs")?)?,
            histograms: items
                .iter()
                .map(hist_from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl Serialize for NodeReply {
    fn to_value(&self) -> Value {
        match self {
            NodeReply::Ack { seq, epoch } => obj(vec![(
                "ack",
                obj(vec![("seq", seq.to_value()), ("epoch", epoch.to_value())]),
            )]),
            NodeReply::Stale { have_seq } => obj(vec![(
                "stale",
                obj(vec![("have_seq", have_seq.to_value())]),
            )]),
            NodeReply::Failed { reason } => {
                obj(vec![("failed", obj(vec![("reason", reason.to_value())]))])
            }
            NodeReply::Outcomes(outcomes) => {
                // Result<_, _> has no blanket impl in the shim: encode as
                // {"ok": ...} / {"err": ...} objects.
                let items: Vec<Value> = outcomes
                    .iter()
                    .map(|r| match r {
                        Ok(o) => obj(vec![("ok", o.to_value())]),
                        Err(e) => obj(vec![("err", e.to_value())]),
                    })
                    .collect();
                obj(vec![(
                    "outcomes",
                    obj(vec![("items", Value::Array(items))]),
                )])
            }
            NodeReply::Status(status) => {
                obj(vec![("status", obj(vec![("report", status.to_value())]))])
            }
            NodeReply::Metrics(node_obs) => obj(vec![(
                "metrics",
                obj(vec![("report", node_obs.to_value())]),
            )]),
            NodeReply::State(state) => obj(vec![("state", obj(vec![("world", state.to_value())]))]),
        }
    }
}

impl Deserialize for NodeReply {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (tag, fields) = tagged(v, "NodeReply")?;
        match tag.as_str() {
            "ack" => Ok(NodeReply::Ack {
                seq: u64::from_value(need(&fields, "seq", "ack")?)?,
                epoch: Epoch::from_value(need(&fields, "epoch", "ack")?)?,
            }),
            "stale" => Ok(NodeReply::Stale {
                have_seq: u64::from_value(need(&fields, "have_seq", "stale")?)?,
            }),
            "failed" => Ok(NodeReply::Failed {
                reason: String::from_value(need(&fields, "reason", "failed")?)?,
            }),
            "outcomes" => {
                let items = need(&fields, "items", "outcomes")?
                    .as_array()
                    .ok_or_else(|| DeError::new("expected array for outcomes"))?;
                let mut outcomes = Vec::with_capacity(items.len());
                for item in items {
                    let (kind, inner) = {
                        let entries = item
                            .as_object()
                            .ok_or_else(|| DeError::new("expected ok/err object"))?;
                        let [(k, v)] = entries else {
                            return Err(DeError::new("outcome entry must have one key"));
                        };
                        (k.clone(), v.clone())
                    };
                    outcomes.push(match kind.as_str() {
                        "ok" => Ok(PlanOutcome::from_value(&inner)?),
                        "err" => Err(ExecError::from_value(&inner)?),
                        other => {
                            return Err(DeError::new(format!("unknown outcome kind `{other}`")))
                        }
                    });
                }
                Ok(NodeReply::Outcomes(outcomes))
            }
            "status" => Ok(NodeReply::Status(NodeStatus::from_value(need(
                &fields, "report", "status",
            )?)?)),
            "metrics" => Ok(NodeReply::Metrics(NodeObs::from_value(need(
                &fields, "report", "metrics",
            )?)?)),
            "state" => Ok(NodeReply::State(WorldState::from_value(need(
                &fields, "world", "state",
            )?)?)),
            other => Err(DeError::new(format!("unknown NodeReply `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_core::SgqQuery;

    #[test]
    fn epoch_covering_is_axis_wise() {
        let e = Epoch::new(3, 5);
        assert!(e.covers(Epoch::new(3, 5)));
        assert!(e.covers(Epoch::new(2, 5)));
        assert!(!e.covers(Epoch::new(4, 0)), "graph axis behind");
        assert!(!e.covers(Epoch::new(0, 6)), "calendar axis behind");
    }

    #[test]
    fn protocol_messages_roundtrip_through_json() {
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let msgs = [
            NodeMsg::Status,
            NodeMsg::Metrics,
            NodeMsg::Export,
            NodeMsg::Execute(vec![WireRequest {
                initiator: NodeId(4),
                spec: QuerySpec::Sgq(sgq),
                engine: Engine::Exact,
                min_epoch: Some(Epoch::new(7, 2)),
            }]),
            NodeMsg::Replicate(ReplicationPayload::Deltas {
                from_seq: 9,
                records: Vec::new(),
            }),
        ];
        for msg in msgs {
            let json = serde_json::to_string(&msg).unwrap();
            let back: NodeMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(back, msg);
        }

        let replies = [
            NodeReply::Ack {
                seq: 12,
                epoch: Epoch::new(3, 4),
            },
            NodeReply::Stale { have_seq: 2 },
            NodeReply::Failed {
                reason: "boom".into(),
            },
            NodeReply::Outcomes(vec![Err(ExecError::NoSnapshot)]),
            NodeReply::Status(NodeStatus {
                seq: 1,
                epoch: Epoch::new(1, 1),
                attached: true,
                full_syncs: 1,
                delta_batches: 2,
                queries: 3,
                result_cache_hits: 4,
            }),
            NodeReply::Metrics(NodeObs {
                status: NodeStatus::default(),
                histograms: vec![("end_to_end".to_string(), {
                    let h = stgq_obs::Histogram::new();
                    h.record_ns(1); // bucket 0
                    h.record_ns(u64::MAX); // bucket 63: trimming must keep it
                    h.snapshot()
                })],
            }),
            NodeReply::State(WorldState {
                horizon: 8,
                labels: vec!["ann".into(), "bob".into()],
                active: vec![true, true],
                edges: vec![(0, 1, 1)],
                calendars: Vec::new(),
                graph_version: 5,
                calendar_version: 6,
                seq: 7,
            }),
        ];
        for reply in replies {
            let json = serde_json::to_string(&reply).unwrap();
            let back: NodeReply = serde_json::from_str(&json).unwrap();
            assert_eq!(back, reply);
        }
    }
}
