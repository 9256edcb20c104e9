//! Dirty-shard and dirty-row tracking shared by the two mutable stores.

/// Last-mutation version stamps of a store partitioned by residue: shard
/// `s` holds the people `p` with `p % S == s`, and each person has a row
/// stamp at `rows[p % S][p / S]` (shard-major, so one shard's scan is
/// sequential). A shard's stamp is the newest of its rows' stamps.
///
/// A row is dirty with respect to a snapshot iff its stamp is greater
/// than the stamp that snapshot published for the row's shard — the same
/// invariant the shard stamps already rely on, so nothing else must be
/// kept in sync with a publisher.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShardStamps {
    /// Per-shard stamps; empty = untracked.
    shards: Vec<u64>,
    /// Per-row stamps, one inner vector per tracked shard.
    rows: Vec<Vec<u64>>,
}

impl ShardStamps {
    /// Start (or re-key) tracking `people` people under `count` shards,
    /// every shard and row stamped at `version`.
    pub(crate) fn track(&mut self, count: usize, people: usize, version: u64) {
        let count = count.max(1);
        self.shards = vec![version; count];
        self.rows = (0..count)
            .map(|s| vec![version; people.saturating_sub(s).div_ceil(count)])
            .collect();
    }

    /// Raise every shard and row stamp to `version`: after a forced
    /// version jump no row of an earlier snapshot may be patched forward.
    pub(crate) fn flood(&mut self, version: u64) {
        self.shards.fill(version);
        for rows in &mut self.rows {
            rows.fill(version);
        }
    }

    /// Stamp `person`'s shard and row at `version` (no-op when
    /// untracked). A row past its shard's end is growth: the shard's
    /// table lengthens to cover it.
    pub(crate) fn touch(&mut self, person: usize, version: u64) {
        let count = self.shards.len();
        if count == 0 {
            return;
        }
        let (s, r) = (person % count, person / count);
        self.shards[s] = version;
        let rows = &mut self.rows[s];
        if rows.len() <= r {
            rows.resize(r + 1, version);
        }
        rows[r] = version;
    }

    /// Shard `shard`'s stamp, or `untracked` when it is not tracked.
    pub(crate) fn shard(&self, shard: usize, untracked: u64) -> u64 {
        self.shards.get(shard).copied().unwrap_or(untracked)
    }

    /// The ascending local rows of shard `shard` of `count` stamped after
    /// `since`, or `None` when modulus `count` is not the tracked one
    /// (then no row can be trusted clean).
    pub(crate) fn dirty_rows(&self, shard: usize, count: usize, since: u64) -> Option<Vec<usize>> {
        if self.rows.len() != count {
            return None;
        }
        Some(
            self.rows[shard]
                .iter()
                .enumerate()
                .filter(|&(_, &stamp)| stamp > since)
                .map(|(r, _)| r)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_stamps_mark_only_the_touched_rows() {
        let mut stamps = ShardStamps::default();
        stamps.touch(3, 1);
        assert_eq!(stamps.shard(0, 7), 7, "untracked shards read the fallback");
        stamps.track(2, 6, 1);
        stamps.touch(0, 2);
        stamps.touch(4, 2); // shard 0, rows 0 and 2
        assert_eq!(stamps.dirty_rows(0, 2, 1), Some(vec![0, 2]));
        assert_eq!(stamps.dirty_rows(1, 2, 1), Some(vec![]));
        assert_eq!((stamps.shard(0, 0), stamps.shard(1, 0)), (2, 1));
        assert_eq!(
            stamps.dirty_rows(0, 3, 1),
            None,
            "another modulus is untracked"
        );
        stamps.touch(7, 3); // growth: shard 1, row 3
        assert_eq!(stamps.dirty_rows(1, 2, 2), Some(vec![3]));
        stamps.flood(4);
        assert_eq!(
            stamps.dirty_rows(1, 2, 3),
            Some(vec![0, 1, 2, 3]),
            "a flood dirties every row"
        );
    }
}
