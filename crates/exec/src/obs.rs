//! The executor's observability surface: latency histograms over every
//! serving stage plus the per-query flight recorder (types from
//! [`stgq_obs`]).
//!
//! All recording happens on the *envelope* — after the engine returned,
//! or around whole cache/publish operations — never inside the search
//! loop; the only in-solve cost is the two clock reads per descended
//! pivot that [`stgq_core::StageTimings`] pays (see `crates/core`'s
//! `timings` module). Histograms are lock-free; the recorder takes one
//! short mutex per actual solve.

use std::time::Duration;

use stgq_obs::FlightRecorder;

stgq_obs::histogram_table! {
    /// Latency histograms and the flight recorder, shared by every worker
    /// and the inline path. Obtain it from
    /// [`Executor::obs`](crate::Executor::obs). Each histogram is one row
    /// of [`ExecObs::HISTOGRAMS`] — the families the exposition renders
    /// as `stgq_<name>_ns` and the cluster ships between nodes and merges
    /// fleet-wide.
    #[derive(Debug)]
    pub struct ExecObs {
        /// End-to-end answer latency: admission-queue wait plus the whole
        /// answer envelope (validation, cache lookups, extraction, solve,
        /// stamping). Every answered query samples this — result-cache
        /// replays and collapsed clones included, which is what makes the
        /// fast path visible as the distribution's low mode.
        end_to_end: "End-to-end answer latency in ns (queue wait + whole envelope; \
                     cache replays and collapsed clones included).",
        /// Admission-queue wait: submit → a worker (or a helping batch
        /// caller) picked the entry up. Batched entries only; the inline
        /// path has no queue and records no sample.
        queue_wait: "Admission-queue wait in ns: submit until a worker picked the entry up \
                     (batched entries only).",
        solve: "Engine wall clock per actual solve in ns (fast-path answers skip it).",
        /// Pivot-preparation share of sequential STGQ solves, from
        /// [`stgq_core::StageTimings`]. Engines without a pivot loop (SGQ,
        /// parallel, heuristics) record no sample.
        prep: "Pivot-preparation share of sequential STGQ solves in ns (StageTimings).",
        /// Exact-descent share of sequential STGQ solves (same source and
        /// caveats as [`prep`](Self::prep)).
        descend: "Exact-descent share of sequential STGQ solves in ns (StageTimings).",
        /// Feasible-view extraction wall clock, on cache misses (a hit
        /// costs a stamped lookup and records no sample).
        feasible_extract: "Feasible-view extraction wall clock in ns, on feasible-cache misses.",
        /// Snapshot publication: the epoch diff (reused-vs-rebuilt shard
        /// accounting) plus the swap.
        snapshot_publish: "Snapshot publication in ns: epoch diff (shard reuse accounting) plus swap.",
    }
    extra {
        /// The per-query flight recorder: recent-trace ring + slowest-N
        /// slow-query log. Only actual solves emit traces.
        pub recorder: FlightRecorder,
    }
}

impl ExecObs {
    /// Build from the executor's recorder knobs (ring capacity, slow-log
    /// size, slow-query threshold).
    pub(crate) fn new(trace_ring: usize, slow_log: usize, slow_threshold: Duration) -> Self {
        let threshold_ns = u64::try_from(slow_threshold.as_nanos()).unwrap_or(u64::MAX);
        Self::from_extras(FlightRecorder::new(trace_ring, slow_log, threshold_ns))
    }
}
