//! Exec-layer suite for the zero-copy query path.
//!
//! The executor extracts every per-query candidate space as a borrowed
//! `FeasibleView` over the snapshot's CSR segments. (Bit-identity of
//! the view against the materialized `FeasibleGraph` is a property of
//! the core entry points and is pinned there, by the facade's
//! `tests/carrier_identity.rs`.) These tests pin what the executor adds
//! on top:
//!
//! 1. **Determinism across worker counts**: a batch of exact queries
//!    yields identical outcomes on 1, 2 and 4 workers — every search
//!    counter included, cache-effect counters aside — and two fresh
//!    executors replaying the same inline sequence agree raw.
//! 2. **Stamped-cache equivalence**: under arbitrary interleavings of
//!    writes (republished epochs) and queries, the long-lived executor
//!    with all caches warm agrees with a cacheless fresh-executor
//!    oracle solving the same world from scratch.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stgq_core::{SelectConfig, SgqQuery, SolveOutcome, StgqQuery};
use stgq_exec::{Engine, ExecConfig, Executor, PlanRequest, QuerySpec};
use stgq_graph::{Dist, GraphBuilder, NodeId, SocialGraph};
use stgq_schedule::Calendar;

const HORIZON: usize = 16;

/// An outcome with cache-*effect* counters zeroed. A warm arena
/// legitimately reports cross-solve run-cache hits (and avoided prep
/// words) that a fresh oracle cannot; those counters describe where the
/// work came from, not what the search did. Everything else — members,
/// objectives, and every search counter — must still match exactly.
fn sans_cache_effects(mut o: SolveOutcome) -> SolveOutcome {
    let stats = match &mut o {
        SolveOutcome::Sgq(x) => &mut x.stats,
        SolveOutcome::Stgq(x) => &mut x.stats,
    };
    stats.run_cache_cross_solve_hits = 0;
    stats.prep_words_delta = 0;
    stats.prep_words_rebuilt = 0;
    o
}

/// A random world: `n` people, ~`edge_pct` of pairs connected with
/// small weights, each person free on ~70% of slots.
fn random_world(seed: u64, n: usize, edge_pct: f64) -> (SocialGraph, Vec<Calendar>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0EC0_11EC);
    let mut b = GraphBuilder::new(n);
    for a in 0..n as u32 {
        for c in (a + 1)..n as u32 {
            if rng.gen_bool(edge_pct) {
                b.add_edge(NodeId(a), NodeId(c), rng.gen_range(1..10) as Dist)
                    .unwrap();
            }
        }
    }
    let calendars = (0..n)
        .map(|_| {
            let mut cal = Calendar::new(HORIZON);
            for slot in 0..HORIZON {
                if rng.gen_bool(0.7) {
                    cal.set_available(slot, true);
                }
            }
            cal
        })
        .collect();
    (b.build(), calendars)
}

fn executor_on(
    workers: usize,
    select: SelectConfig,
    graph: &SocialGraph,
    calendars: &[Calendar],
) -> Executor {
    let exec = Executor::new(ExecConfig {
        workers,
        shards: 4,
        select,
        // Replays would mask a divergence after the first solve; the
        // equivalence tests want every query to hit the engine.
        result_cache_capacity: 0,
        ..ExecConfig::default()
    });
    exec.publish(graph, calendars, 1, 1);
    exec
}

#[test]
fn executor_is_deterministic_across_worker_counts() {
    let mut rng = SmallRng::seed_from_u64(0x00D1_7EC7);
    let n = 14;
    let (graph, calendars) = random_world(0xD1CE, n, 0.3);
    // Exact engines only: determinism must hold stats-for-stats.
    let mut reqs = Vec::new();
    for i in 0..12u32 {
        let initiator = NodeId(i % n as u32);
        let p = rng.gen_range(2..5usize);
        let s = rng.gen_range(1..4usize);
        let spec = if i % 2 == 0 {
            QuerySpec::Sgq(SgqQuery::new(p, s, 1.min(p - 1)).unwrap())
        } else {
            QuerySpec::Stgq(StgqQuery::new(p, s, 1.min(p - 1), 2).unwrap())
        };
        reqs.push(PlanRequest::new(initiator, spec, Engine::Exact));
    }
    // Which worker's arena sees a pivot first is up to the scheduler, so
    // the cross-solve run cache's counters (and the prep words it saves)
    // legitimately differ between pool sizes; every other field —
    // members, objectives, every search counter — must not.
    let mut baseline = None;
    for workers in [1usize, 2, 4] {
        let exec = executor_on(workers, SelectConfig::default(), &graph, &calendars);
        let outcomes: Vec<_> = exec
            .execute_batch(reqs.clone())
            .into_iter()
            .map(|r| sans_cache_effects(r.expect("valid initiators").outcome))
            .collect();
        assert!(exec.metrics().extract_words_borrowed > 0);
        match &baseline {
            None => baseline = Some(outcomes),
            Some(b) => assert_eq!(&outcomes, b, "divergence at {workers} workers"),
        }
    }
    // The raw counters are deterministic wherever one arena serves the
    // queries in a fixed order. A batch is not such a place even on one
    // worker (the calling thread helps drain with its own arena), but
    // the inline path is: two fresh executors replaying the same
    // sequence must agree on every field, cache-effect counters included.
    let inline = || {
        let exec = executor_on(1, SelectConfig::default(), &graph, &calendars);
        reqs.iter()
            .map(|r| {
                exec.execute_one(r.clone())
                    .expect("valid initiators")
                    .outcome
            })
            .collect::<Vec<_>>()
    };
    let first = inline();
    assert_eq!(first, inline(), "raw divergence between fresh executors");
    assert_eq!(
        first
            .into_iter()
            .map(sans_cache_effects)
            .collect::<Vec<_>>(),
        baseline.expect("three pool sizes ran"),
        "inline and batched answers diverge"
    );
}

#[test]
fn stamped_caches_agree_with_fresh_solves_across_interleavings() {
    let mut rng = SmallRng::seed_from_u64(0x5_7A3B);
    let n = 10usize;
    // Mutable world the "writer" side evolves.
    let mut edges: Vec<(u32, u32, Dist)> = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.3) {
                edges.push((a, b, rng.gen_range(1..8) as Dist));
            }
        }
    }
    let mut calendars: Vec<Calendar> = (0..n)
        .map(|_| {
            let mut cal = Calendar::new(HORIZON);
            for slot in 0..HORIZON {
                if rng.gen_bool(0.6) {
                    cal.set_available(slot, true);
                }
            }
            cal
        })
        .collect();
    let build = |edges: &[(u32, u32, Dist)]| {
        let mut b = GraphBuilder::new(n);
        for &(x, y, d) in edges {
            b.add_edge(NodeId(x), NodeId(y), d).unwrap();
        }
        b.build()
    };
    let (mut gv, mut cv) = (1u64, 1u64);
    // Long-lived executor with every cache enabled.
    let long = Executor::new(ExecConfig {
        workers: 1,
        shards: 4,
        ..ExecConfig::default()
    });
    long.publish(&build(&edges), &calendars, gv, cv);

    for step in 0..40 {
        match rng.gen_range(0..3u8) {
            // Graph write: re-weight or add an edge, bump the epoch.
            0 => {
                let a = rng.gen_range(0..n as u32 - 1);
                let b = rng.gen_range(a + 1..n as u32);
                let d = rng.gen_range(1..8) as Dist;
                if let Some(e) = edges.iter_mut().find(|e| e.0 == a && e.1 == b) {
                    e.2 = d;
                } else {
                    edges.push((a, b, d));
                }
                gv += 1;
                long.publish(&build(&edges), &calendars, gv, cv);
            }
            // Calendar write: flip one slot, bump the epoch.
            1 => {
                let person = rng.gen_range(0..n);
                let slot = rng.gen_range(0..HORIZON);
                let now = calendars[person].is_available(slot);
                calendars[person].set_available(slot, !now);
                cv += 1;
                long.publish(&build(&edges), &calendars, gv, cv);
            }
            // Query: the warm stamped caches must agree with a fresh
            // executor solving the current world from scratch.
            _ => {
                let initiator = NodeId(rng.gen_range(0..n as u32));
                let p = rng.gen_range(2..4usize);
                let s = rng.gen_range(1..3usize);
                let spec = if rng.gen_bool(0.5) {
                    QuerySpec::Sgq(SgqQuery::new(p, s, 1).unwrap())
                } else {
                    QuerySpec::Stgq(StgqQuery::new(p, s, 1, 2).unwrap())
                };
                let req = PlanRequest::new(initiator, spec, Engine::Exact);
                let cached = long.execute_one(req.clone()).unwrap();
                let oracle = executor_on(1, SelectConfig::default(), &build(&edges), &calendars)
                    .execute_one(req)
                    .unwrap();
                assert_eq!(
                    sans_cache_effects(cached.outcome),
                    sans_cache_effects(oracle.outcome),
                    "step {step}: stamped caches served a stale answer"
                );
            }
        }
    }
    // The interleaving must have actually exercised the fast paths.
    let m = long.metrics();
    assert!(
        m.feasible_cache_hits + m.result_cache_hits > 0,
        "interleaving never hit a cache — the test lost its point"
    );
}

#[test]
fn cross_solve_run_cache_hits_surface_in_exec_metrics() {
    let (graph, calendars) = random_world(0xCA1, 8, 0.5);
    // Result cache off: the repeat must re-solve, and its pivot prep
    // should then be fed by the arena's cross-solve run cache under the
    // snapshot handshake.
    let exec = executor_on(1, SelectConfig::default(), &graph, &calendars);
    let req = PlanRequest::new(
        NodeId(0),
        QuerySpec::Stgq(StgqQuery::new(3, 2, 1, 2).unwrap()),
        Engine::Exact,
    );
    let first = exec.execute_one(req.clone()).unwrap();
    let after_first = exec.metrics().run_cache_cross_solve_hits;
    let second = exec.execute_one(req).unwrap();
    let after_second = exec.metrics().run_cache_cross_solve_hits;
    // Same epoch, same arena: every Definition-4 run the second solve
    // needs was remembered from the first.
    assert!(
        after_second > after_first,
        "repeat solve on an unchanged epoch must hit the cross-solve cache \
         (first={after_first}, second={after_second})"
    );
    assert_eq!(
        sans_cache_effects(first.outcome),
        sans_cache_effects(second.outcome),
        "hits must not change answers"
    );
}
