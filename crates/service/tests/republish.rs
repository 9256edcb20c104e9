//! Republish ≡ rebuild: over random write histories, every epoch
//! [`republish`] assembles by patching the previous one must equal the
//! world frozen from scratch, shard by shard, and must `Arc`-reuse a
//! shard exactly when its stamp did not move.

use std::sync::Arc;

use proptest::prelude::*;
use stgq_exec::WorldSnapshot;
use stgq_graph::NodeId;
use stgq_schedule::{Calendar, SlotRange};
use stgq_service::{republish, CalendarStore, MutableNetwork};

/// Straddles a word boundary, so blocks carry two words per row.
const HORIZON: usize = 70;

/// One generated write: `(kind, a, b, weight)`, decoded by [`apply`].
type Op = (u8, u32, u32, u64);

/// Apply one write to the mirror pair. Writes the stores refuse
/// (removed people, self-loops) are skipped like a client error.
fn apply(net: &mut MutableNetwork, cals: &mut CalendarStore, (kind, a, b, w): Op) {
    let n = net.person_count() as u32;
    let (pa, pb) = (NodeId(a % n.max(1)), NodeId(b % n.max(1)));
    let slot = (a as usize + b as usize) % HORIZON;
    match kind {
        0 => {
            net.add_person(format!("p{n}"));
            cals.ensure_people(net.person_count());
        }
        1..=3 if n > 0 => {
            let _ = net.connect(pa, pb, w);
        }
        4 if n > 0 => {
            let _ = net.disconnect(pa, pb);
        }
        5 if n > 0 && a % 4 == 0 => {
            let _ = net.remove_person(pa);
        }
        6 if n > 0 => cals.set_slot(pa.index(), slot, w % 2 == 0).unwrap(),
        7 if n > 0 => {
            let range = SlotRange::new(slot.min(HORIZON - 5), slot.min(HORIZON - 5) + 4);
            cals.set_range(pb.index(), range, w % 3 != 0).unwrap();
        }
        8 if n > 0 => {
            let cal = Calendar::from_slots(
                HORIZON,
                (0..HORIZON).filter(|t| (t + a as usize).is_multiple_of(3)),
            );
            cals.replace(pa.index(), cal).unwrap();
        }
        9 => {
            // A replication flood: both axes jump ahead of every stamp.
            let v = net.version().max(cals.version()) + 1 + w % 5;
            net.force_version(v);
            cals.force_version(v);
        }
        _ => {}
    }
}

/// Publish the stores against `prev` and check the new epoch against a
/// from-scratch freeze (segments from [`MutableNetwork::segment`], block
/// rows against the store's calendars) and `prev`'s stamps.
fn publish_and_check(
    net: &MutableNetwork,
    cals: &CalendarStore,
    shards: usize,
    prev: Option<&Arc<WorldSnapshot>>,
) -> Arc<WorldSnapshot> {
    let (snap, graph_moved) = republish(
        net,
        cals,
        shards,
        prev.map(Arc::as_ref),
        (net.version(), cals.version()),
    );
    // Only a same-modulus epoch is a base to reuse or patch.
    let prev = prev.filter(|p| p.shard_count() == shards);
    let mut any_segment_moved = false;
    for s in 0..shards {
        prop_assert_eq!(
            &**snap.graph_segment(s),
            &net.segment(s, shards),
            "segment {}",
            s
        );
        let block = snap.calendar_shard(s);
        prop_assert_eq!(block.horizon(), cals.horizon());
        let people: Vec<usize> = (s..cals.len()).step_by(shards).collect();
        prop_assert_eq!(block.rows(), people.len(), "block {} rows", s);
        for (r, &p) in people.iter().enumerate() {
            prop_assert_eq!(block.get(r), *cals.calendar(p), "block {} row {}", s, r);
        }
        prop_assert_eq!(snap.graph_shard_version(s), net.shard_version(s));
        prop_assert_eq!(snap.calendar_shard_version(s), cals.shard_version(s));
        match prev {
            Some(p) => {
                let graph_kept = p.graph_shard_version(s) == snap.graph_shard_version(s);
                let cal_kept = p.calendar_shard_version(s) == snap.calendar_shard_version(s);
                let seg_reused = Arc::ptr_eq(p.graph_segment(s), snap.graph_segment(s));
                prop_assert_eq!(seg_reused, graph_kept, "segment {} reuse", s);
                prop_assert_eq!(
                    Arc::ptr_eq(p.calendar_shard(s), snap.calendar_shard(s)),
                    cal_kept,
                    "block {} reuse",
                    s
                );
                any_segment_moved |= !seg_reused;
            }
            None => any_segment_moved = true,
        }
    }
    prop_assert_eq!(graph_moved, any_segment_moved);
    Arc::new(snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn republish_equals_rebuild_over_random_histories(
        shard_pick in 0usize..3,
        people in 0u32..24,
        history in proptest::collection::vec(
            ((0u8..10, 0u32..64, 0u32..64, 1u64..40), proptest::bool::ANY),
            0..90,
        ),
    ) {
        let shards = [1, 3, 16][shard_pick];
        let mut net = MutableNetwork::new();
        let mut cals = CalendarStore::new(HORIZON);
        net.set_shard_count(shards);
        cals.set_shard_count(shards);
        for _ in 0..people {
            apply(&mut net, &mut cals, (0, 0, 0, 1));
        }
        let mut prev = None;
        for (op, publish) in history {
            apply(&mut net, &mut cals, op);
            if publish {
                prev = Some(publish_and_check(&net, &cals, shards, prev.as_ref()));
            }
        }
        publish_and_check(&net, &cals, shards, prev.as_ref());
    }
}

/// A previous epoch under another shard modulus is never patched: every
/// shard is built afresh and still equals the from-scratch freeze.
#[test]
fn a_modulus_change_rebuilds_every_shard() {
    let mut net = MutableNetwork::new();
    let mut cals = CalendarStore::new(HORIZON);
    net.set_shard_count(3);
    cals.set_shard_count(3);
    for (i, op) in [(0, 0, 0, 1); 9].into_iter().enumerate() {
        apply(&mut net, &mut cals, op);
        if i > 0 {
            apply(&mut net, &mut cals, (1, i as u32, 0, 2));
        }
    }
    let three = publish_and_check(&net, &cals, 3, None);
    net.set_shard_count(4);
    cals.set_shard_count(4);
    apply(&mut net, &mut cals, (6, 2, 0, 2));
    publish_and_check(&net, &cals, 4, Some(&three));
}
