//! A long-lived activity-planning service over the STGQ engines.
//!
//! The paper closes by noting the authors were "now implementing the
//! proposed algorithms in Facebook" — i.e. the intended deployment is not
//! one-shot solving but a *service*: a social network and its members'
//! calendars that change continuously, with planning queries arriving in
//! between. This crate builds that deployment surface:
//!
//! * [`MutableNetwork`] — an updatable social graph (add/remove people,
//!   connect/disconnect, re-weight) with a monotone version counter;
//! * [`CalendarStore`] — per-person availability over a shared slot
//!   horizon, updatable slot-by-slot or in ranges;
//! * [`Planner`] — the query front end, since the `stgq-exec`
//!   extraction a **thin façade** over the execution subsystem: the
//!   planner owns the mutable world and publishes immutable epoch
//!   snapshots into an [`Executor`](stgq_exec::Executor), which owns the
//!   shard-partitioned feasible-view cache, engine dispatch
//!   ([`Engine`]: exact, parallel, anytime, greedy, local search), the
//!   admission queue + batch scheduler + fixed worker pool, and the
//!   execution counters. Every answer carries provenance
//!   ([`SgqReport`]/[`StgqReport`]: engine, wall time, cache hit,
//!   exactness), single queries run inline, and
//!   [`Planner::plan_batch`] drains mixed SGQ/STGQ batches through the
//!   pool with request collapsing;
//! * [`SharedPlanner`] — a cheaply-cloneable thread-safe handle
//!   (`Arc<RwLock>`): concurrent planning reads, exclusive mutation
//!   writes.
//!
//! Calendar edits do **not** invalidate the graph caches (availability
//! never changes social distance); network edits invalidate both the
//! snapshot and every cached feasible graph, which the test suite checks
//! against solving from scratch after every mutation.
//!
//! ```
//! use stgq_core::SgqQuery;
//! use stgq_service::{Engine, Planner};
//!
//! let mut planner = Planner::new(8); // 8 time slots
//! let a = planner.add_person("ana");
//! let b = planner.add_person("bo");
//! let c = planner.add_person("cy");
//! planner.connect(a, b, 2).unwrap();
//! planner.connect(a, c, 3).unwrap();
//! planner.connect(b, c, 1).unwrap();
//!
//! let q = SgqQuery::new(3, 1, 0).unwrap();
//! let report = planner.plan_sgq(a, &q, Engine::Exact).unwrap();
//! assert_eq!(report.solution.unwrap().total_distance, 5);
//! assert!(report.exact);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod calendars;
mod delta;
mod error;
pub mod expose;
mod network;
mod planner;
mod publish;
mod shared;
mod stamps;

pub use calendars::CalendarStore;
pub use delta::{DeltaLog, DeltaRecord, WorldDelta, WorldState, DEFAULT_DELTA_LOG_CAPACITY};
pub use error::ServiceError;
pub use network::MutableNetwork;
pub use planner::{BatchQuery, MetricsSnapshot, PlanReply, Planner, SgqReport, StgqReport};
pub use publish::republish;
pub use shared::SharedPlanner;
// Execution-subsystem vocabulary, re-exported so existing callers (and
// downstream code that only wants the service surface) keep one import
// path. `Engine` lived here before the `stgq-exec` extraction.
pub use stgq_exec::{Engine, ExecConfig, ExecMetrics, QuerySpec};
