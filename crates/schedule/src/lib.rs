//! Temporal substrate for the STGQ reproduction.
//!
//! The paper models time as a sequence of fixed-length slots (0.5 hour in
//! the evaluation) and each candidate attendee's schedule as the set of
//! slots in which they are available (collected from Google Calendar in the
//! paper; generated synthetically here — see `stgq-datagen`). This crate
//! provides:
//!
//! * [`TimeGrid`] — the slot ⇄ (day, time-of-day) coordinate system;
//! * [`Calendar`] — one person's availability bitmap with consecutive-run
//!   queries (the primitive behind the availability constraint);
//! * [`pivot`] — Lemma 4's *pivot time slots*: the only slots STGSelect has
//!   to anchor its search on, plus the `2m−1`-slot interval each pivot owns;
//! * [`first_common_window`](Calendar::first_common_window) style helpers
//!   used by PCArrange and the sequential STGQ baseline;
//! * ASCII rendering of schedules in the paper's "circle table" style.
//!
//! Slots are **0-based** throughout (`SlotId`); the paper's 1-based
//! `ts1, ts2, …` notation maps to `SlotId(0), SlotId(1), …` and pivots sit
//! at indices `m−1, 2m−1, …` (the paper's `im` for `i = 1, 2, …`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod calendar;
mod error;
mod grid;
pub mod pivot;
mod render;
mod shards;
pub mod text;

pub use calendar::{Calendar, CalendarRef, RangeWords};
pub use error::ScheduleError;
pub use grid::TimeGrid;
pub use render::render_schedules;
pub use shards::{CalendarBlock, CalendarShards, Cals};

/// Index of a time slot, 0-based.
pub type SlotId = usize;

/// An inclusive range of slots `[lo, hi]`.
///
/// Used for availability runs and activity periods; `len()` is `hi − lo + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SlotRange {
    /// First slot of the range (inclusive).
    pub lo: SlotId,
    /// Last slot of the range (inclusive).
    pub hi: SlotId,
}

impl SlotRange {
    /// Construct `[lo, hi]`; panics if `lo > hi`.
    pub fn new(lo: SlotId, hi: SlotId) -> Self {
        assert!(lo <= hi, "SlotRange requires lo <= hi, got [{lo}, {hi}]");
        SlotRange { lo, hi }
    }

    /// Number of slots in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// Ranges are never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `slot` lies inside the range.
    #[inline]
    pub fn contains(&self, slot: SlotId) -> bool {
        self.lo <= slot && slot <= self.hi
    }

    /// Intersection of two ranges, if non-empty.
    pub fn intersect(&self, other: &SlotRange) -> Option<SlotRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(SlotRange { lo, hi })
    }

    /// Iterate the slots of the range.
    pub fn iter(&self) -> impl Iterator<Item = SlotId> {
        self.lo..=self.hi
    }
}

impl std::fmt::Display for SlotRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Rendered 1-based to match the paper's ts-notation.
        write!(f, "[ts{}, ts{}]", self.lo + 1, self.hi + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = SlotRange::new(2, 5);
        assert_eq!(r.len(), 4);
        assert!(r.contains(2) && r.contains(5));
        assert!(!r.contains(1) && !r.contains(6));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_range_panics() {
        let _ = SlotRange::new(5, 2);
    }

    #[test]
    fn intersection() {
        let a = SlotRange::new(2, 6);
        let b = SlotRange::new(4, 9);
        assert_eq!(a.intersect(&b), Some(SlotRange::new(4, 6)));
        let c = SlotRange::new(7, 9);
        assert_eq!(a.intersect(&c), None);
        assert_eq!(a.intersect(&a), Some(a));
    }

    #[test]
    fn display_is_one_based_like_the_paper() {
        assert_eq!(SlotRange::new(1, 3).to_string(), "[ts2, ts4]");
    }
}
