//! Per-person availability storage with a shared horizon.

use stgq_schedule::{Calendar, CalendarBlock, SlotRange};

use crate::stamps::ShardStamps;
use crate::ServiceError;

/// Calendars for every registered person over one slot horizon.
///
/// The store grows in lock-step with the network (the planner calls
/// [`ensure_people`](Self::ensure_people) after registrations); new people
/// start fully **unavailable**, mirroring the paper's model where the
/// system only knows the slots users have shared. Calendar mutations bump
/// a version of their own so STGQ answers can be cache-stamped, but they
/// never touch the graph caches.
/// Like [`MutableNetwork`](crate::MutableNetwork), the store can track
/// dirty shards (residue classes `person % shards`) and rows once
/// [`set_shard_count`](Self::set_shard_count) is called, so publication
/// republishes only the shards whose calendars actually changed, and
/// overwrites only the changed rows of those.
#[derive(Clone, Debug)]
pub struct CalendarStore {
    cals: Vec<Calendar>,
    horizon: usize,
    version: u64,
    /// Per-shard and per-row last-mutation stamps; untracked until
    /// [`set_shard_count`](Self::set_shard_count) (every shard then reads
    /// as [`version`](Self::version)).
    stamps: ShardStamps,
}

impl CalendarStore {
    /// An empty store over `horizon` slots.
    pub fn new(horizon: usize) -> Self {
        CalendarStore {
            cals: Vec::new(),
            horizon,
            version: 0,
            stamps: ShardStamps::default(),
        }
    }

    /// The shared slot horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Monotone counter bumped by every availability mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Overwrite the version counter, flooding every shard and row stamp
    /// (replication only — see
    /// [`MutableNetwork::force_version`](crate::MutableNetwork::force_version)).
    pub fn force_version(&mut self, version: u64) {
        self.version = version;
        self.stamps.flood(version);
    }

    /// Start (or re-key) dirty-shard tracking with `count` shards, every
    /// shard and row stamped at the current version.
    pub fn set_shard_count(&mut self, count: usize) {
        self.stamps.track(count, self.cals.len(), self.version);
    }

    /// The global version at the last mutation touching shard `shard`;
    /// untracked stores report [`version`](Self::version) everywhere.
    pub fn shard_version(&self, shard: usize) -> u64 {
        self.stamps.shard(shard, self.version)
    }

    fn touch(&mut self, person: usize) {
        self.stamps.touch(person, self.version);
    }

    /// Shard `shard` of `count` (calendars of the residue class
    /// `person % count`, ordered by `person / count`) as the flat block a
    /// sharded snapshot holds, patched from `prev`, the block a snapshot
    /// published for that shard at shard stamp `since`: `prev` is copied
    /// wholesale and only rows stamped after `since` (and rows added
    /// since) are overwritten (see [`CalendarBlock::patch`]). Without row
    /// tracking at modulus `count`, every row is re-read.
    pub(crate) fn patch_block(
        &self,
        shard: usize,
        count: usize,
        prev: &CalendarBlock,
        since: u64,
    ) -> CalendarBlock {
        let rows = self.cals.len().saturating_sub(shard).div_ceil(count);
        let row = |r: usize| self.cals[shard + r * count].words();
        match self.stamps.dirty_rows(shard, count, since) {
            Some(dirty) => CalendarBlock::patch(prev, self.horizon, rows, &dirty, row),
            None => CalendarBlock::patch(&CalendarBlock::default(), self.horizon, rows, &[], row),
        }
    }

    /// Number of calendars held.
    pub fn len(&self) -> usize {
        self.cals.len()
    }

    /// Whether the store holds no calendars yet.
    pub fn is_empty(&self) -> bool {
        self.cals.is_empty()
    }

    /// Grow to `count` calendars (new ones fully unavailable). Never
    /// shrinks — person ids are stable. Growing bumps the version and
    /// touches each new person's shard: the published calendar blocks
    /// must lengthen even though the new calendars are all-unavailable
    /// (a snapshot that kept the short block would index out of range as
    /// soon as a new person becomes reachable).
    pub fn ensure_people(&mut self, count: usize) {
        if count <= self.cals.len() {
            return;
        }
        self.version += 1;
        while self.cals.len() < count {
            self.touch(self.cals.len());
            self.cals.push(Calendar::new(self.horizon));
        }
    }

    fn check_slot(&self, slot: usize) -> Result<(), ServiceError> {
        if slot >= self.horizon {
            return Err(ServiceError::SlotOutOfRange {
                slot,
                horizon: self.horizon,
            });
        }
        Ok(())
    }

    /// Mark one slot (un)available for `person` (index pre-validated by
    /// the planner).
    pub fn set_slot(
        &mut self,
        person: usize,
        slot: usize,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.check_slot(slot)?;
        self.cals[person].set_available(slot, available);
        self.version += 1;
        self.touch(person);
        Ok(())
    }

    /// Mark a whole range (un)available for `person`.
    pub fn set_range(
        &mut self,
        person: usize,
        range: SlotRange,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.check_slot(range.lo)?;
        self.check_slot(range.hi)?;
        self.cals[person].set_range(range, available);
        self.version += 1;
        self.touch(person);
        Ok(())
    }

    /// Replace one person's calendar wholesale (horizon must match).
    pub fn replace(&mut self, person: usize, calendar: Calendar) -> Result<(), ServiceError> {
        if calendar.horizon() != self.horizon {
            return Err(ServiceError::SlotOutOfRange {
                slot: calendar.horizon(),
                horizon: self.horizon,
            });
        }
        self.cals[person] = calendar;
        self.version += 1;
        self.touch(person);
        Ok(())
    }

    /// Read one calendar.
    pub fn calendar(&self, person: usize) -> &Calendar {
        &self.cals[person]
    }

    /// All calendars, indexed by person id — the exact slice the STGQ
    /// engines take.
    pub fn calendars(&self) -> &[Calendar] {
        &self.cals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_with_unavailable_defaults() {
        let mut store = CalendarStore::new(10);
        store.ensure_people(3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.calendar(0).count_available(), 0);
        store.ensure_people(2);
        assert_eq!(store.len(), 3, "never shrinks");
    }

    #[test]
    fn slot_and_range_updates() {
        let mut store = CalendarStore::new(10);
        store.ensure_people(1);
        store.set_slot(0, 4, true).unwrap();
        store.set_range(0, SlotRange::new(6, 8), true).unwrap();
        let c = store.calendar(0);
        assert!(c.is_available(4));
        assert!(c.is_available(7));
        assert!(!c.is_available(5));
        store.set_slot(0, 4, false).unwrap();
        assert!(!store.calendar(0).is_available(4));
    }

    #[test]
    fn out_of_range_slots_error() {
        let mut store = CalendarStore::new(5);
        store.ensure_people(1);
        assert!(matches!(
            store.set_slot(0, 5, true),
            Err(ServiceError::SlotOutOfRange { .. })
        ));
        assert!(matches!(
            store.set_range(0, SlotRange::new(3, 7), true),
            Err(ServiceError::SlotOutOfRange { .. })
        ));
    }

    #[test]
    fn replace_validates_horizon() {
        let mut store = CalendarStore::new(5);
        store.ensure_people(1);
        assert!(store.replace(0, Calendar::all_available(5)).is_ok());
        assert_eq!(store.calendar(0).count_available(), 5);
        assert!(store.replace(0, Calendar::all_available(6)).is_err());
    }

    #[test]
    fn ensure_people_bumps_the_version_when_it_grows() {
        let mut store = CalendarStore::new(5);
        let v0 = store.version();
        store.ensure_people(3);
        assert!(store.version() > v0, "a longer slice is a new epoch");
        let v1 = store.version();
        store.ensure_people(3);
        assert_eq!(store.version(), v1, "a no-op grow is not a mutation");
    }

    #[test]
    fn shard_stamps_move_only_for_the_edited_person() {
        let mut store = CalendarStore::new(8);
        store.set_shard_count(4);
        store.ensure_people(8);
        let base = store.version();
        let stamps: Vec<u64> = (0..4).map(|s| store.shard_version(s)).collect();
        store.set_slot(6, 2, true).unwrap(); // shard 2
        assert_eq!(store.shard_version(2), base + 1);
        for s in [0, 1, 3] {
            assert_eq!(store.shard_version(s), stamps[s], "shard {s} untouched");
        }
        store.force_version(77);
        for s in 0..4 {
            assert_eq!(store.shard_version(s), 77);
        }
    }

    #[test]
    fn shard_blocks_partition_the_store_by_residue() {
        let mut store = CalendarStore::new(6);
        store.ensure_people(7);
        for p in 0..7 {
            store.set_slot(p, p % 6, true).unwrap();
        }
        for shards in [1usize, 3] {
            for s in 0..shards {
                let block = store.patch_block(s, shards, &CalendarBlock::default(), 0);
                assert_eq!(block.rows(), (7 - s).div_ceil(shards));
                for r in 0..block.rows() {
                    assert_eq!(
                        block.get(r),
                        *store.calendar(s + r * shards),
                        "shard {s}/{shards}"
                    );
                }
            }
        }
    }

    #[test]
    fn versions_track_mutations() {
        let mut store = CalendarStore::new(5);
        store.ensure_people(1);
        let v0 = store.version();
        store.set_slot(0, 1, true).unwrap();
        assert!(store.version() > v0);
        let v1 = store.version();
        let _ = store.calendar(0);
        assert_eq!(store.version(), v1);
    }
}
