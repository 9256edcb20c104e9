//! Per-solve wall-clock stage timings.
//!
//! The exact STGQ engines interleave pivot preparation and descent
//! inside one loop, so a profiler sees a single hot blob. Every
//! sequential STGQ solve splits its own wall clock live instead: the
//! [`PivotArena`] it ran on carries a fresh [`StageTimings`] afterwards,
//! separating *preparation* (eligibility, peel, floors, availability
//! words — everything up to opening the first frame of a pivot) from
//! *descent* (exact frame expansion). The execution layer reads the
//! split off its workers' arenas into latency histograms and per-query
//! flight-recorder traces; the `probe` binary in `stgq-bench` reads it
//! for perf reports.
//!
//! Two recording modes, both per-arena:
//!
//! * **coarse** (default, [`PivotArena::record_timings`]) — two clock
//!   reads per *descended* pivot. Skipped/refused pivots fold into the
//!   following preparation span, [`finalize_ns`](StageTimings::finalize_ns)
//!   stays 0 (folded into prepare), and the spans tile the pivot loop:
//!   `prepare_ns + descend_ns` ≈ the loop's wall clock. Cheap enough to
//!   leave on in production serving.
//! * **detail** ([`PivotArena::timing_detail`]) — `prepare_pivot`,
//!   `finalize_pivot` + `materialize_pivot` and the exact search are
//!   clocked individually
//!   (isolated per-phase cost; loop overhead between calls is
//!   unattributed). Three-plus clock reads per prepared pivot — perf
//!   tooling only.
//!
//! Timings are wall-clock and therefore never part of [`SearchStats`] or
//! any solve outcome: outcomes stay deterministic and bit-comparable
//! across runs, while timings live on the arena the caller owns.
//!
//! SGQ solves and the parallel STGQ engine do not fill timings (the
//! arena is a sequential-STGQ structure); their solves leave the arena's
//! timings at [`StageTimings::default`].
//!
//! [`PivotArena`]: crate::PivotArena
//! [`PivotArena::record_timings`]: crate::PivotArena::record_timings
//! [`PivotArena::timing_detail`]: crate::PivotArena::timing_detail
//! [`SearchStats`]: crate::SearchStats

/// Wall-clock split of one sequential STGQ solve, read off the
/// [`PivotArena`](crate::PivotArena) it ran on. See the module docs for
/// the coarse-vs-detail recording modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Nanoseconds preparing pivots: Definition-4 eligibility, access
    /// order, peel, floors, availability-word materialization, incumbent
    /// seeding — everything in the pivot loop that is not exact descent.
    /// In coarse mode this includes `finalize_pivot`
    /// ([`finalize_ns`](Self::finalize_ns) is 0).
    pub prepare_ns: u64,
    /// Nanoseconds in `finalize_pivot` and `materialize_pivot` (phases 2
    /// and 3: peel, sharp floor, word materialization, Lemma-5
    /// counters). Only populated in detail mode; coarse mode folds it
    /// into [`prepare_ns`](Self::prepare_ns).
    pub finalize_ns: u64,
    /// Nanoseconds in exact-search descent (frame expansion).
    pub descend_ns: u64,
    /// Pivot slots probed (the initiator's hostable pivots).
    pub pivots: u64,
    /// Pivots that survived phase 1 (initiator + enough eligible).
    pub prepared: u64,
    /// Pivots that opened at least one search frame.
    pub descended: u64,
}

impl StageTimings {
    /// Total preparation nanoseconds (phase 1 + phase 2 under either
    /// recording mode).
    pub fn prep_ns(&self) -> u64 {
        self.prepare_ns.saturating_add(self.finalize_ns)
    }

    /// Whether this solve recorded nothing (recording off, or a path —
    /// SGQ, parallel, trivial `p = 1` — that never enters the pivot
    /// loop).
    pub fn is_empty(&self) -> bool {
        *self == StageTimings::default()
    }

    /// Accumulate another solve's split into this one (histogramming a
    /// stream of solves).
    pub fn absorb(&mut self, other: &StageTimings) {
        self.prepare_ns = self.prepare_ns.saturating_add(other.prepare_ns);
        self.finalize_ns = self.finalize_ns.saturating_add(other.finalize_ns);
        self.descend_ns = self.descend_ns.saturating_add(other.descend_ns);
        self.pivots = self.pivots.saturating_add(other.pivots);
        self.prepared = self.prepared.saturating_add(other.prepared);
        self.descended = self.descended.saturating_add(other.descended);
    }
}
