//! Shard-partitioned calendars as flat word blocks, and the [`Cals`]
//! access view.
//!
//! The sharded world snapshot stores calendars the same way it stores
//! adjacency: person `v`'s calendar lives in shard `v % S` at local row
//! `v / S`. Each shard is one independently-replaceable
//! `Arc<`[`CalendarBlock`]`>`: every row's availability words laid end to
//! end in a single `Vec<u64>`, `stride = ⌈horizon / 64⌉` words per row.
//! Row `r` is `words[r * stride..(r + 1) * stride]`, read back as a
//! borrowed [`CalendarRef`].
//!
//! A calendar edit republishes one shard and `Arc`-reuses the other
//! `S − 1`. The republished block is a **patch** of the previous epoch's
//! ([`CalendarBlock::patch`]): one `memcpy` of the old block, then the
//! dirty rows overwritten and any new rows appended — no per-person
//! allocation, and a block built from scratch is the same patch with
//! nothing to copy.
//!
//! The STGQ engines index calendars by **original** vertex id. [`Cals`]
//! is the zero-cost view they take: either a flat `&[Calendar]` (tests,
//! oracles, the graph-level entry points) or a `&CalendarShards`
//! (the execution layer reading a sharded snapshot). Both convert via
//! `Into`, so existing call sites pass slices unchanged, and both hand
//! out the same `Copy` [`CalendarRef`] per person.

use std::sync::Arc;

use crate::{Calendar, CalendarRef};

/// One shard's calendars as a flat word block: row `r` (the person
/// `shard + r * S`) is `words[r * stride..(r + 1) * stride]`, every row
/// over the same `horizon`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CalendarBlock {
    horizon: usize,
    /// Words per row: `⌈horizon / 64⌉`.
    stride: usize,
    rows: usize,
    words: Vec<u64>,
}

impl CalendarBlock {
    /// Build the `rows`-row block over `horizon` from `prev` (the same
    /// shard as an earlier epoch published it) and the ascending local
    /// row indices `dirty` whose calendars changed since: `prev`'s words
    /// are copied in one `memcpy`, each dirty row is overwritten from
    /// `row`, and rows past `prev`'s end are appended from `row`.
    ///
    /// A `prev` over another horizon contributes nothing, so patching
    /// [`CalendarBlock::default()`] is the from-scratch build. Dirty
    /// indices at or past `prev`'s end are ignored (those rows are
    /// re-read anyway).
    ///
    /// # Panics
    /// Panics if `row` yields a row that is not `⌈horizon / 64⌉` words.
    pub fn patch<'c>(
        prev: &CalendarBlock,
        horizon: usize,
        rows: usize,
        dirty: &[usize],
        mut row: impl FnMut(usize) -> &'c [u64],
    ) -> Self {
        let stride = horizon.div_ceil(64);
        let keep = if prev.horizon == horizon {
            prev.rows.min(rows)
        } else {
            0
        };
        let mut words = Vec::with_capacity(rows * stride);
        words.extend_from_slice(&prev.words[..keep * stride]);
        let mut put = |words: &mut Vec<u64>, r: usize| {
            let src = row(r);
            assert_eq!(src.len(), stride, "row {r} is not {stride} words");
            if r < keep {
                words[r * stride..(r + 1) * stride].copy_from_slice(src);
            } else {
                words.extend_from_slice(src);
            }
        };
        for &r in dirty.iter().take_while(|&&r| r < keep) {
            put(&mut words, r);
        }
        for r in keep..rows {
            put(&mut words, r);
        }
        CalendarBlock {
            horizon,
            stride,
            rows,
            words,
        }
    }

    /// Number of rows (people homed in this shard).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The horizon every row covers.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Local row `r`'s calendar.
    #[inline]
    pub fn get(&self, r: usize) -> CalendarRef<'_> {
        debug_assert!(r < self.rows, "row {r} of a {}-row block", self.rows);
        CalendarRef {
            words: &self.words[r * self.stride..(r + 1) * self.stride],
            horizon: self.horizon,
        }
    }
}

/// Shard-partitioned calendar storage: `shards[s]` holds the calendars
/// of every person `v` with `v % S == s`, in ascending `v`.
#[derive(Clone, Debug)]
pub struct CalendarShards {
    shards: Vec<Arc<CalendarBlock>>,
    len: usize,
}

impl CalendarShards {
    /// Assemble from per-shard blocks. The total count is the sum of
    /// shard row counts (residue classes partition `0..n`).
    ///
    /// # Panics
    /// Panics if `shards` is empty, the blocks disagree on the horizon,
    /// or the per-shard row counts are inconsistent with a residue
    /// partition.
    pub fn new(shards: Vec<Arc<CalendarBlock>>) -> Self {
        assert!(!shards.is_empty(), "at least one shard required");
        let count = shards.len();
        let len: usize = shards.iter().map(|s| s.rows()).sum();
        let horizon = shards[0].horizon();
        for (s, shard) in shards.iter().enumerate() {
            let expect = len.saturating_sub(s).div_ceil(count);
            assert_eq!(
                shard.rows(),
                expect,
                "calendar shard {s} of {count} over {len} people must hold {expect} rows"
            );
            assert_eq!(shard.horizon(), horizon, "calendar shard {s}'s horizon");
        }
        CalendarShards { shards, len }
    }

    /// Partition a flat calendar vector into `shards` blocks.
    ///
    /// # Panics
    /// Panics if the calendars disagree on the horizon.
    pub fn from_flat(calendars: &[Calendar], shards: usize) -> Self {
        let shards = shards.max(1);
        let horizon = calendars.first().map_or(0, Calendar::horizon);
        let blocks = (0..shards)
            .map(|s| {
                let rows = calendars.len().saturating_sub(s).div_ceil(shards);
                Arc::new(CalendarBlock::patch(
                    &CalendarBlock::default(),
                    horizon,
                    rows,
                    &[],
                    |r| calendars[s + r * shards].words(),
                ))
            })
            .collect();
        CalendarShards::new(blocks)
    }

    /// Total number of people covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no people are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's calendar block.
    #[inline]
    pub fn shard(&self, s: usize) -> &Arc<CalendarBlock> {
        &self.shards[s]
    }

    /// Person `v`'s calendar.
    #[inline]
    pub fn get(&self, v: usize) -> CalendarRef<'_> {
        let s = self.shards.len();
        self.shards[v % s].get(v / s)
    }
}

/// The calendar view the STGQ engines read: flat slice or sharded
/// storage, one `get(person)` either way. `Copy`, so it threads through
/// the solvers (including the scoped-thread parallel engine) like the
/// slice it replaces.
#[derive(Clone, Copy, Debug)]
pub enum Cals<'a> {
    /// A flat per-person vector (index = person id).
    Flat(&'a [Calendar]),
    /// Shard-partitioned storage (`person % S` / `person / S`).
    Sharded(&'a CalendarShards),
}

impl<'a> Cals<'a> {
    /// Person `v`'s calendar.
    #[inline]
    pub fn get(&self, v: usize) -> CalendarRef<'a> {
        match self {
            Cals::Flat(slice) => slice[v].as_ref(),
            Cals::Sharded(shards) => shards.get(v),
        }
    }

    /// Number of people covered.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Cals::Flat(slice) => slice.len(),
            Cals::Sharded(shards) => shards.len,
        }
    }

    /// Whether no people are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared slot horizon the engines sweep; `0` when no people
    /// are covered.
    #[inline]
    pub fn horizon(&self) -> usize {
        match self {
            Cals::Flat(slice) => slice.first().map_or(0, Calendar::horizon),
            Cals::Sharded(shards) if shards.is_empty() => 0,
            Cals::Sharded(shards) => shards.shards[0].horizon(),
        }
    }
}

impl<'a> From<&'a [Calendar]> for Cals<'a> {
    fn from(slice: &'a [Calendar]) -> Self {
        Cals::Flat(slice)
    }
}

impl<'a> From<&'a Vec<Calendar>> for Cals<'a> {
    fn from(vec: &'a Vec<Calendar>) -> Self {
        Cals::Flat(vec)
    }
}

impl<'a> From<&'a CalendarShards> for Cals<'a> {
    fn from(shards: &'a CalendarShards) -> Self {
        Cals::Sharded(shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize, horizon: usize) -> Vec<Calendar> {
        (0..n)
            .map(|v| Calendar::from_slots(horizon, (0..horizon).filter(|t| (t + v) % 3 == 0)))
            .collect()
    }

    #[test]
    fn sharded_view_matches_the_flat_slice() {
        for shards in [1, 2, 3, 5, 16] {
            for n in [0usize, 1, 7, 33] {
                let flat = pool(n, 70);
                let sharded = CalendarShards::from_flat(&flat, shards);
                assert_eq!(sharded.len(), n);
                let view: Cals<'_> = (&sharded).into();
                let flat_view: Cals<'_> = flat.as_slice().into();
                assert_eq!(view.len(), flat_view.len());
                for (v, cal) in flat.iter().enumerate() {
                    assert_eq!(view.get(v), flat_view.get(v), "shards {shards} person {v}");
                    assert_eq!(view.get(v), *cal);
                }
                assert_eq!(view.horizon(), flat_view.horizon());
                assert_eq!(view.horizon(), if n == 0 { 0 } else { 70 });
            }
        }
    }

    #[test]
    fn shard_blocks_partition_by_residue() {
        let flat = pool(10, 6);
        let sharded = CalendarShards::from_flat(&flat, 4);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.shard(0).rows(), 3);
        assert_eq!(sharded.shard(1).rows(), 3);
        assert_eq!(sharded.shard(2).rows(), 2);
        assert_eq!(sharded.shard(3).rows(), 2);
        assert_eq!(sharded.shard(1).get(2), flat[9], "person 9 = shard 1 row 2");
    }

    #[test]
    fn a_patch_equals_the_block_built_from_scratch() {
        let horizon = 130; // three words per row, the last one partial
        let old = pool(9, horizon);
        let prev = CalendarBlock::patch(&CalendarBlock::default(), horizon, 9, &[], |r| {
            old[r].words()
        });
        let mut new = old.clone();
        new[2] = Calendar::all_available(horizon);
        new[7] = Calendar::new(horizon);
        new.extend(pool(3, horizon)); // growth: rows 9..12 appended
        let scratch = CalendarBlock::patch(&CalendarBlock::default(), horizon, 12, &[], |r| {
            new[r].words()
        });
        let patched = CalendarBlock::patch(&prev, horizon, 12, &[2, 7], |r| new[r].words());
        assert_eq!(patched, scratch);
        // A skipped dirty row keeps the stale words.
        let stale = CalendarBlock::patch(&prev, horizon, 12, &[7], |r| new[r].words());
        assert_ne!(stale, scratch);
        // A previous block over another horizon contributes nothing.
        let narrow = pool(9, 6);
        let other =
            CalendarBlock::patch(&CalendarBlock::default(), 6, 9, &[], |r| narrow[r].words());
        assert_eq!(
            CalendarBlock::patch(&other, horizon, 12, &[], |r| new[r].words()),
            scratch
        );
    }
}
