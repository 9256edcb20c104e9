//! Acceptance tests for the search-reduction release: the seeded,
//! promise-ordered, availability-tie-broken, buffer-pooled engines must
//! return the **identical optimal objective** as the scalar reference
//! engines on random instances (sequential and parallel), the parallel
//! STGQ solver must be deterministic in its objective across thread
//! counts, and the new `SearchStats` counters must actually register the
//! reduction.

use proptest::prelude::*;

use stgq::graph::FeasibleGraph;
use stgq::prelude::*;
use stgq::query::reference::{solve_sgq_reference, solve_stgq_reference};
use stgq::query::validate::validate_stgq;
use stgq::query::{solve_stgq_parallel, solve_stgq_pooled, PivotArena};

fn arb_graph(max_n: usize) -> impl Strategy<Value = SocialGraph> {
    (3usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(
            (0u32..n as u32, 0u32..n as u32, 1u64..40),
            n - 1..=max_edges,
        )
        .prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
                    b.add_edge(NodeId(u), NodeId(v), w).unwrap();
                }
            }
            for i in 0..n as u32 - 1 {
                if !b.has_edge(NodeId(i), NodeId(i + 1)) {
                    b.add_edge(NodeId(i), NodeId(i + 1), 11).unwrap();
                }
            }
            b.build()
        })
    })
}

fn arb_calendars(n: usize, horizon: usize) -> impl Strategy<Value = Vec<Calendar>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0usize..horizon, horizon / 3..horizon),
        n..=n,
    )
    .prop_map(move |sets| {
        sets.into_iter()
            .map(|s| Calendar::from_slots(horizon, s))
            .collect()
    })
}

/// Every on/off combination of the four search-reduction pieces (arena
/// pooling is covered by the bit-identical test below).
fn reduction_grid() -> Vec<SelectConfig> {
    let mut grid = Vec::new();
    for seed in [0usize, 2] {
        for promise in [false, true] {
            for avail in [false, true] {
                for sharp in [false, true] {
                    grid.push(
                        SelectConfig::default()
                            .with_seed_restarts(seed)
                            .with_pivot_promise_order(promise)
                            .with_availability_ordering(avail)
                            .with_sharp_pivot_floor(sharp),
                    );
                }
            }
        }
    }
    grid
}

/// Every combination of the candidate-space reduction layer's two
/// knobs (fixpoint core peel, k-plex matching bound), everything else
/// at defaults.
fn candidate_reduction_grid() -> Vec<SelectConfig> {
    let mut grid = Vec::new();
    for peel in [false, true] {
        for matching in [false, true] {
            grid.push(
                SelectConfig::default()
                    .with_core_peel_fixpoint(peel)
                    .with_kplex_match_bound(matching),
            );
        }
    }
    grid
}

/// The parent-side completion bound on and off, with and without the
/// fixpoint peel in front of it, everything else at defaults.
fn prep_descent_grid() -> Vec<SelectConfig> {
    let mut grid = Vec::new();
    for peel in [false, true] {
        for pbound in [false, true] {
            grid.push(
                SelectConfig::default()
                    .with_core_peel_fixpoint(peel)
                    .with_parent_completion_bound(pbound),
            );
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential STGSelect with every combination of the new pieces
    /// returns the reference optimum.
    #[test]
    fn seeded_promise_ordered_stgq_matches_reference(
        (g, cals) in arb_graph(11).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 24).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..5,
        k in 0usize..3,
        m in 1usize..5,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let reference =
            solve_stgq_reference(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        for cfg in reduction_grid() {
            let out = solve_stgq(&g, q, &cals, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
            if let Some(sol) = &out.solution {
                prop_assert!(validate_stgq(&g, q, &cals, &query, sol).is_ok());
            }
        }
    }

    /// Sequential STGSelect with every combination of the two
    /// candidate-reduction knobs returns the reference optimum —
    /// peeling never removes a member of any optimal group, and the
    /// matching bound never prunes a frame that leads to an improving
    /// solution.
    #[test]
    fn candidate_reduction_grid_stgq_matches_reference(
        (g, cals) in arb_graph(11).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 24).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..6,
        k in 0usize..3,
        m in 1usize..5,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let reference =
            solve_stgq_reference(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        for cfg in candidate_reduction_grid() {
            let out = solve_stgq(&g, q, &cals, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
            if let Some(sol) = &out.solution {
                prop_assert!(validate_stgq(&g, q, &cals, &query, sol).is_ok());
            }
        }
    }

    /// The same grid on the SGQ engine (the peel and the matching bound
    /// both fire on the SGSelect path too).
    #[test]
    fn candidate_reduction_grid_sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, 2, k).unwrap();
        let reference = solve_sgq_reference(&g, q, &query, &SelectConfig::default()).unwrap();
        for cfg in candidate_reduction_grid() {
            let out = solve_sgq(&g, q, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
        }
    }

    /// Sequential STGSelect with the parent-side completion bound on or
    /// off, with and without the peel in front of it, returns the
    /// reference optimum — the parent bound never prunes a child whose
    /// subtree holds a strictly better group.
    #[test]
    fn prep_descent_grid_stgq_matches_reference(
        (g, cals) in arb_graph(11).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 24).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..6,
        k in 0usize..3,
        m in 1usize..5,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let reference =
            solve_stgq_reference(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        for cfg in prep_descent_grid() {
            let out = solve_stgq(&g, q, &cals, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
            if let Some(sol) = &out.solution {
                prop_assert!(validate_stgq(&g, q, &cals, &query, sol).is_ok());
            }
        }
    }

    /// The same grid on the SGQ engine (the parent bound fires on the
    /// SGSelect expand path too).
    #[test]
    fn prep_descent_grid_sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, 2, k).unwrap();
        let reference = solve_sgq_reference(&g, q, &query, &SelectConfig::default()).unwrap();
        for cfg in prep_descent_grid() {
            let out = solve_sgq(&g, q, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
        }
    }

    /// Peeling is *witness*-preserving, not just objective-preserving: a
    /// peeled vertex belongs to no feasible group, so the returned
    /// members are identical with the peel on or off (same engine, same
    /// ordering — only dead candidates disappear).
    #[test]
    fn peeling_preserves_the_witness(
        (g, cals) in arb_graph(10).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 20).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..5,
        k in 0usize..2,
        m in 1usize..4,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        // Seeding off isolates the peel: the first-fit seed sees the
        // peeled candidate order, which may legitimately pick a
        // different equal-cost witness.
        let base = SelectConfig::default().with_seed_restarts(0);
        let peeled = solve_stgq(&g, q, &cals, &query, &base).unwrap();
        let unpeeled =
            solve_stgq(&g, q, &cals, &query, &base.with_core_peel_fixpoint(false)).unwrap();
        prop_assert_eq!(
            peeled.solution.as_ref().map(|s| &s.members),
            unpeeled.solution.as_ref().map(|s| &s.members)
        );
        prop_assert_eq!(
            peeled.solution.as_ref().map(|s| s.period),
            unpeeled.solution.as_ref().map(|s| s.period)
        );
    }

    /// Seeded sequential SGSelect returns the reference optimum.
    #[test]
    fn seeded_sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        k in 0usize..3,
        seed_restarts in 0usize..4,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, 2, k).unwrap();
        let cfg = SelectConfig::default().with_seed_restarts(seed_restarts);
        let reference = solve_sgq_reference(&g, q, &query, &cfg).unwrap();
        let optimized = solve_sgq(&g, q, &query, &cfg).unwrap();
        prop_assert_eq!(
            optimized.solution.as_ref().map(|x| x.total_distance),
            reference.solution.as_ref().map(|x| x.total_distance)
        );
    }

    /// The parallel STGQ solver is deterministic in its *objective* across
    /// thread counts (witnesses may differ between ties) and matches the
    /// reference — for both the per-pivot and intra-pivot task regimes.
    #[test]
    fn parallel_stgq_objective_deterministic_across_thread_counts(
        (g, cals) in arb_graph(10).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 24).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..5,
        k in 0usize..3,
        m in 1usize..5,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let cfg = SelectConfig::default();
        let reference =
            solve_stgq_reference(&g, q, &cals, &query, &cfg).unwrap();
        let objectives: Vec<Option<Dist>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                solve_stgq_parallel(&g, q, &cals, &query, &cfg, threads)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance)
            })
            .collect();
        prop_assert_eq!(
            objectives[0],
            reference.solution.as_ref().map(|x| x.total_distance)
        );
        prop_assert_eq!(objectives[0], objectives[1], "1 vs 2 threads");
        prop_assert_eq!(objectives[0], objectives[2], "1 vs 4 threads");
    }

    /// One long-lived arena serving a whole stream of queries returns
    /// bit-identical outcomes to a fresh arena per query — recycled
    /// buffers and per-solve caches never leak between queries.
    #[test]
    fn pooled_solves_are_bit_identical_across_a_query_stream(
        (g, cals) in arb_graph(10).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 20).prop_map(move |cals| (g.clone(), cals))
        }),
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let mut arena = PivotArena::new();
        let cfg = SelectConfig::default();
        // Varying (p, m) across the stream forces the arena to re-size its
        // buffers between queries, like a live planner would.
        for (p, m) in [(2usize, 3usize), (4, 1), (3, 4), (2, 2)] {
            let query = StgqQuery::new(p, 2, k, m).unwrap();
            let fg = FeasibleGraph::extract(&g, q, query.s());
            let pooled = solve_stgq_pooled(&fg, &cals, &query, &cfg, &mut arena);
            let fresh = solve_stgq_pooled(&fg, &cals, &query, &cfg, &mut PivotArena::new());
            prop_assert_eq!(pooled.solution, fresh.solution, "p {} m {}", p, m);
            prop_assert_eq!(pooled.stats, fresh.stats, "p {} m {}", p, m);
        }
    }
}

/// On an easy instance — everyone mutually acquainted and always free —
/// the first-fit seed hits every pivot's distance floor, so the pivot
/// bound retires the entire pivot loop: zero frames examined, all pivots
/// skipped, and the optimum (the p − 1 nearest friends) still proven.
#[test]
fn easy_instances_are_solved_without_opening_a_single_frame() {
    let n = 10usize;
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(NodeId(u), NodeId(v), u64::from(u + v)).unwrap();
        }
    }
    let g = b.build();
    let cals = vec![Calendar::all_available(48); n];
    let query = StgqQuery::new(4, 1, 1, 4).unwrap();
    let out = solve_stgq(&g, NodeId(0), &cals, &query, &SelectConfig::default()).unwrap();
    let sol = out.solution.expect("clique instances are feasible");
    // Nearest three friends of v0 are v1, v2, v3: distances 1 + 2 + 3.
    assert_eq!(sol.total_distance, 6);
    assert_eq!(out.stats.frames_examined(), 0, "no frame should open");
    assert!(
        out.stats.pivots_skipped > 0,
        "the bound retires every pivot"
    );
    // The PR-1 baseline pays the full search on the same instance.
    let old = solve_stgq(
        &g,
        NodeId(0),
        &cals,
        &query,
        &SelectConfig::NO_SEARCH_REDUCTION,
    )
    .unwrap();
    assert_eq!(
        old.solution.map(|s| s.total_distance),
        Some(sol.total_distance)
    );
    assert!(old.stats.frames_examined() > 0);
    assert_eq!(old.stats.pivots_skipped, 0);
}
