//! Cluster-side RPC observability: per-message-class round-trip
//! histograms.
//!
//! Every logical send that crosses the transport is timed **around its
//! whole retry loop** — the recorded round-trip includes backoff sleeps
//! and failed attempts, so the histogram answers "what did reaching
//! this node actually cost the caller", not "how fast is one frame".
//! One histogram per [`MsgClass`] (replication, execute,
//! status/observability probes), lock-free and mergeable like every
//! other histogram in the pipeline.

use stgq_obs::Histogram;

use crate::retry::MsgClass;

stgq_obs::histogram_table! {
    /// Per-message-class RPC round-trip histograms (retry backoff
    /// included), one row of [`RpcObs::HISTOGRAMS`] each. Owned by the
    /// [`Cluster`](crate::Cluster) and shared with its
    /// [`Replicator`](crate::Replicator), so both planes record into the
    /// same spectrum.
    #[derive(Debug, Default)]
    pub struct RpcObs {
        rpc_replication: "Cluster replication RPC round-trip in ns, whole retry loop incl. backoff.",
        rpc_execute: "Cluster execute (scatter) RPC round-trip in ns, whole retry loop incl. backoff.",
        rpc_status: "Cluster status/metrics probe round-trip in ns, whole retry loop incl. backoff.",
    }
}

impl RpcObs {
    /// The histogram recording `class`'s round-trips.
    pub fn for_class(&self, class: MsgClass) -> &Histogram {
        match class {
            MsgClass::Replication => &self.rpc_replication,
            MsgClass::Execute => &self.rpc_execute,
            MsgClass::Status => &self.rpc_status,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn classes_record_into_distinct_histograms() {
        let rpc = RpcObs::default();
        rpc.for_class(MsgClass::Execute)
            .record(Duration::from_micros(5));
        rpc.for_class(MsgClass::Execute)
            .record(Duration::from_micros(9));
        rpc.for_class(MsgClass::Status)
            .record(Duration::from_nanos(100));
        let hists = rpc.histograms();
        assert_eq!(
            hists.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            RpcObs::HISTOGRAMS
                .iter()
                .map(|r| r.name)
                .collect::<Vec<_>>()
        );
        assert_eq!(hists[0].1.count, 0, "replication untouched");
        assert_eq!(hists[1].1.count, 2);
        assert_eq!(hists[2].1.count, 1);
    }
}
