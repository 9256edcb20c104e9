//! Prometheus text exposition of one planner's counters and latency
//! histograms.
//!
//! The single-process spectrum: every row of the [`MetricsSnapshot`]
//! and [`ExecMetrics`](stgq_exec::ExecMetrics) counter tables as a
//! Prometheus counter/gauge family (`stgq_<row>`), plus every row of the
//! executor's histogram table ([`ExecObs::HISTOGRAMS`]) as a histogram
//! family (`stgq_<name>_ns`). Nothing here names a counter: the families
//! are the tables' rows. The cluster-wide variant —
//! `stgq_cluster::ClusterObs::prometheus_text` — exposes the same
//! histogram families merged fleet-wide, with per-node breakdowns and RPC
//! round-trips, through the shared [`render_histograms`]; its counters are
//! the cluster's own (replication, healing, per-node lag), not this
//! planner table.

use stgq_exec::ExecObs;
use stgq_obs::prom::PromText;
use stgq_obs::{histogram_help, HistogramRow, HistogramSnapshot};

use crate::planner::{MetricsSnapshot, Planner};

impl Planner {
    /// Render this planner's full observability surface —
    /// [`Planner::metrics`] counters plus the executor's latency
    /// histograms and recorder depth — as Prometheus text exposition
    /// format. The output round-trips through
    /// `stgq_obs::prom::PromReport::parse`.
    pub fn prometheus_text(&self) -> String {
        let mut text = PromText::new();
        render_metrics_snapshot(&mut text, &self.metrics(), &[]);
        let obs = self.executor().obs();
        let hists: Vec<(String, HistogramSnapshot)> = obs
            .histograms()
            .into_iter()
            .map(|(name, snap)| (name.to_string(), snap))
            .collect();
        render_histograms(&mut text, "stgq", ExecObs::HISTOGRAMS, &hists, &[]);
        text.gauge(
            "stgq_slow_queries_logged",
            "Entries currently held in the slowest-N slow-query log.",
            &[],
            obs.recorder.slow_queries().len() as f64,
        );
        text.gauge(
            "stgq_traces_buffered",
            "Query traces currently held in the flight-recorder ring.",
            &[],
            obs.recorder.traces().len() as f64,
        );
        text.finish()
    }
}

/// Render every row of the [`MetricsSnapshot`] table and of its
/// [`ExecMetrics`](stgq_exec::ExecMetrics) table into `text` under the
/// `stgq_` prefix, attaching `labels` to each sample.
pub fn render_metrics_snapshot(text: &mut PromText, m: &MetricsSnapshot, labels: &[(&str, &str)]) {
    text.table("stgq", m, labels);
    text.table("stgq", &m.exec, labels);
}

/// Render named histogram snapshots as `<prefix>_<name>_ns` families
/// with `labels` on every sample, taking each `HELP` text from the
/// histogram table `rows` that declares it. Shared by the planner and
/// cluster expositions, so both describe identical families identically.
pub fn render_histograms(
    text: &mut PromText,
    prefix: &str,
    rows: &[HistogramRow],
    histograms: &[(String, HistogramSnapshot)],
    labels: &[(&str, &str)],
) {
    for (name, snap) in histograms {
        text.histogram(
            &format!("{prefix}_{name}_ns"),
            histogram_help(rows, name),
            labels,
            snap,
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use stgq_core::{SgqQuery, StgqQuery};
    use stgq_exec::{Engine, ExecMetrics, QuerySpec};
    use stgq_graph::NodeId;
    use stgq_obs::prom::PromReport;
    use stgq_obs::{CounterTable, QueryTrace, Row};
    use stgq_schedule::SlotRange;

    use super::*;
    use crate::BatchQuery;

    /// A served planner: a 6-person world, a mixed batch answered twice
    /// (solves, then replays) and one mutation after it.
    fn served() -> Planner {
        let mut p = Planner::new(12);
        let ids: Vec<NodeId> = (0..6).map(|i| p.add_person(format!("p{i}"))).collect();
        for (a, b, w) in [(0, 1, 2), (0, 2, 3), (1, 2, 1), (0, 3, 8), (3, 4, 2)] {
            p.connect(ids[a], ids[b], w).unwrap();
        }
        for &id in &ids {
            p.set_availability_range(id, SlotRange::new(2, 9), true)
                .unwrap();
        }
        let batch: Vec<BatchQuery> = (0..4)
            .flat_map(|v| {
                [
                    QuerySpec::Sgq(SgqQuery::new(3, 1, 0).unwrap()),
                    QuerySpec::Stgq(StgqQuery::new(3, 1, 0, 3).unwrap()),
                ]
                .map(|spec| BatchQuery {
                    initiator: ids[v],
                    spec,
                    engine: Engine::Exact,
                })
            })
            .collect();
        for _ in 0..2 {
            for reply in p.plan_batch(&batch) {
                reply.unwrap();
            }
        }
        p.connect(ids[4], ids[5], 1).unwrap();
        p
    }

    /// Every row appears as exactly one family of its declared type and
    /// exactly one sample, whose value is `value`.
    fn assert_exposed_once(report: &PromReport, row: &Row, value: u64) {
        let name = format!("stgq_{}", row.name);
        let families: Vec<&str> = report
            .families
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            families,
            [row.kind.as_str()],
            "{name}: one family, declared type"
        );
        let samples: Vec<f64> = report
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .collect();
        assert_eq!(
            samples,
            [value as f64],
            "{name}: one sample, equal to metrics()"
        );
    }

    #[test]
    fn every_table_row_is_exposed_once_with_its_type_and_value() {
        let planner = served();
        let text = planner.prometheus_text();
        let m = planner.metrics();
        let report = PromReport::parse(&text).expect("own exposition must parse");

        let mut names = HashSet::new();
        let mut rows = 0;
        let mut nonzero = 0;
        let mut check = |row: &'static Row, value: u64| {
            assert!(names.insert(row.name), "{} declared twice", row.name);
            assert_exposed_once(&report, row, value);
            rows += 1;
            nonzero += usize::from(value > 0);
        };
        m.for_each_row(&mut check);
        m.exec.for_each_row(&mut check);
        assert_eq!(rows, MetricsSnapshot::ROWS.len() + ExecMetrics::ROWS.len());
        assert!(
            nonzero >= 10,
            "the workload moves the counters ({nonzero} nonzero)"
        );
        assert_eq!(m.exec.worker_panics, 0);
        assert!(m.exec.queries > 0 && m.exec.result_cache_hits > 0 && m.mutations > 0);

        let snaps = planner.executor().obs().histograms();
        assert_eq!(snaps.len(), ExecObs::HISTOGRAMS.len());
        for (row, (name, snap)) in ExecObs::HISTOGRAMS.iter().zip(&snaps) {
            assert_eq!(row.name, *name);
            let family = format!("stgq_{name}_ns");
            let declared: Vec<&str> = report
                .families
                .iter()
                .filter(|(n, _)| *n == family)
                .map(|(_, t)| t.as_str())
                .collect();
            assert_eq!(declared, ["histogram"], "{family}");
            assert_eq!(
                report.value(&format!("{family}_count"), &[]),
                Some(snap.count as f64),
                "{family}"
            );
        }

        // And every trace row appears once in a recorded trace's JSON.
        let traces = planner.executor().obs().recorder.traces();
        let trace = traces
            .iter()
            .find(|t| t.frames > 0)
            .expect("a solve descended");
        let json = trace.to_json();
        trace.for_each_row(|row, value| {
            let key = format!("\"{}\":", row.name);
            assert_eq!(json.matches(&key).count(), 1, "{} in {json}", row.name);
            assert!(
                json.contains(&format!("{key}{value}")),
                "{} in {json}",
                row.name
            );
        });
        assert!(QueryTrace::ROWS.len() >= 8);
    }
}
