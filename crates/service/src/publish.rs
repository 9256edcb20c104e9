//! Epoch assembly: the one per-shard republish loop the planner and every
//! replica node share.
//!
//! A republish walks the `S` shards on both axes (graph segment,
//! calendar block) and, per shard, compares the mutable store's shard
//! stamp with the stamp the previous epoch published:
//!
//! * **unmoved** — the previous shard is still exact and is carried over
//!   by `Arc`;
//! * **moved** — the previous shard is *patched*: copied wholesale, with
//!   only the rows stamped after its publication re-read from the store
//!   ([`MutableNetwork::patch_segment`], [`CalendarStore::patch_block`]);
//! * **no previous shard** (first publish, another modulus, or a stamp
//!   that moved backwards) — the empty shard is patched with every row
//!   dirty, which is the from-scratch build, not a second code path.

use std::sync::Arc;

use stgq_exec::WorldSnapshot;

use crate::{CalendarStore, MutableNetwork};

/// Assemble the epoch of `network` and `calendars` partitioned into
/// `shards`, stamped with the global `(graph_version, calendar_version)`
/// pair `versions`, reusing or patching `prev`'s shards as the module
/// docs describe. Returns the snapshot and whether any graph segment was
/// republished (rather than `Arc`-reused).
///
/// Patching trusts the per-row stamps: `prev` must have been assembled
/// from these stores' history, or the stores flooded
/// ([`MutableNetwork::force_version`]) after it and republished before
/// any later write — which is what a replica full sync does.
pub fn republish(
    network: &MutableNetwork,
    calendars: &CalendarStore,
    shards: usize,
    prev: Option<&WorldSnapshot>,
    versions: (u64, u64),
) -> (WorldSnapshot, bool) {
    let prev = prev.filter(|p| p.shard_count() == shards);
    let mut graph_moved = false;
    let mut segments = Vec::with_capacity(shards);
    let mut graph_stamps = Vec::with_capacity(shards);
    let mut blocks = Vec::with_capacity(shards);
    let mut calendar_stamps = Vec::with_capacity(shards);
    for s in 0..shards {
        let g = network.shard_version(s);
        let old = prev.map(|p| (p.graph_segment(s), p.graph_shard_version(s)));
        let segment = carry(old, g, |seg, at| network.patch_segment(s, shards, seg, at));
        graph_moved |= old.is_none_or(|(seg, _)| !Arc::ptr_eq(seg, &segment));
        segments.push(segment);
        graph_stamps.push(g);

        let c = calendars.shard_version(s);
        let old = prev.map(|p| (p.calendar_shard(s), p.calendar_shard_version(s)));
        blocks.push(carry(old, c, |block, at| {
            calendars.patch_block(s, shards, block, at)
        }));
        calendar_stamps.push(c);
    }
    let snapshot = WorldSnapshot::from_parts(
        segments,
        graph_stamps,
        blocks,
        calendar_stamps,
        versions.0,
        versions.1,
    );
    (snapshot, graph_moved)
}

/// One shard's next value: `prev` by `Arc` when its stamp `at` equals
/// the store's `stamp`, a patch of it when the stamp moved forward, and a
/// patch of the empty shard otherwise.
fn carry<T: Default>(
    prev: Option<(&Arc<T>, u64)>,
    stamp: u64,
    patch: impl FnOnce(&T, u64) -> T,
) -> Arc<T> {
    match prev {
        Some((shard, at)) if at == stamp => Arc::clone(shard),
        Some((shard, at)) if at < stamp => Arc::new(patch(shard, at)),
        _ => Arc::new(patch(&T::default(), 0)),
    }
}
