//! Carrier identity at the core API: every engine entry point answers
//! bit-identically on the zero-copy `FeasibleView` and on the
//! materialized `FeasibleGraph`.
//!
//! Both carriers are extracted from the same `ShardedGraph` — the
//! structure the serving path's snapshots hold — and every engine is
//! generic over `CandidateTopology`, so the view may change what
//! extraction costs but never what the search does. Over random worlds,
//! a mixed SGQ/STGQ workload and the corners of the search-reduction
//! knob grid, the two carriers must return the same solutions, the same
//! objectives, the same full `SearchStats` and the same heuristic
//! evaluation counts.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stgq::graph::{CandidateTopology, FeasibleGraph, FeasibleView, ShardedGraph};
use stgq::prelude::*;
use stgq::query::heuristics::{
    greedy_sgq_on, greedy_stgq_on, local_search_sgq_on, local_search_stgq_on, HeuristicSgq,
    HeuristicStgq,
};
use stgq::query::{
    solve_sgq_on, solve_sgq_parallel_on, solve_stgq_parallel_on, solve_stgq_pooled, PivotArena,
    SolveOutcome,
};

const HORIZON: usize = 16;

/// A random world: `n` people, ~`edge_pct` of pairs connected with
/// small weights, each person free on ~70% of slots.
fn random_world(rng: &mut SmallRng, n: usize, edge_pct: f64) -> (SocialGraph, Vec<Calendar>) {
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

/// Representative corners of the search-reduction knob grid: everything
/// on (default), everything off, and each family toggled individually.
fn config_grid() -> Vec<SelectConfig> {
    vec![
        SelectConfig::default(),
        SelectConfig::NO_SEARCH_REDUCTION,
        SelectConfig::default()
            .with_core_peel_fixpoint(false)
            .with_kplex_match_bound(false),
        SelectConfig::default().with_sharp_pivot_floor(false),
        SelectConfig::default()
            .with_parent_completion_bound(false)
            .with_pivot_promise_order(false),
        SelectConfig::default()
            .with_seed_restarts(0)
            .with_availability_ordering(false),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Spec {
    Sgq(SgqQuery),
    Stgq(StgqQuery),
}

impl Spec {
    fn s(&self) -> usize {
        match self {
            Spec::Sgq(q) => q.s(),
            Spec::Stgq(q) => q.s(),
        }
    }
}

/// A small mixed SGQ/STGQ workload: `(initiator, query)` pairs.
fn workload(rng: &mut SmallRng, n: usize) -> Vec<(NodeId, Spec)> {
    (0..4)
        .map(|_| {
            let initiator = NodeId(rng.gen_range(0..n as u32));
            let p = rng.gen_range(2..5usize);
            let s = rng.gen_range(1..4usize);
            let k = rng.gen_range(0..p.min(3));
            let m = rng.gen_range(1..4usize);
            let spec = if rng.gen_bool(0.5) {
                Spec::Sgq(SgqQuery::new(p, s, k).unwrap())
            } else {
                Spec::Stgq(StgqQuery::new(p, s, k, m).unwrap())
            };
            (initiator, spec)
        })
        .collect()
}

#[derive(Debug, PartialEq)]
enum Heuristic {
    Sgq(HeuristicSgq),
    Stgq(HeuristicStgq),
}

/// What every entry point answered for one query on one carrier.
#[derive(Debug, PartialEq)]
struct Answers {
    /// Sequential exact on the carrier's pooled arena.
    exact: SolveOutcome,
    /// Anytime: the exact engine under an 8-frame budget.
    anytime: SolveOutcome,
    /// Parallel exact on two threads. Its witness among ties and its
    /// counters depend on how the threads race for the shared incumbent,
    /// so only the optimum is comparable.
    parallel_objective: Option<Dist>,
    greedy: Heuristic,
    local_search: Heuristic,
}

fn answer<G: CandidateTopology>(
    fg: &G,
    calendars: &[Calendar],
    spec: Spec,
    cfg: &SelectConfig,
    arena: &mut PivotArena,
) -> Answers {
    let budget = cfg.with_frame_budget(8);
    match spec {
        Spec::Sgq(q) => Answers {
            exact: SolveOutcome::Sgq(solve_sgq_on(fg, &q, cfg, None)),
            anytime: SolveOutcome::Sgq(solve_sgq_on(fg, &q, &budget, None)),
            parallel_objective: solve_sgq_parallel_on(fg, &q, cfg, None, 2)
                .solution
                .map(|s| s.total_distance),
            greedy: Heuristic::Sgq(greedy_sgq_on(fg, &q, None, 2)),
            local_search: Heuristic::Sgq(local_search_sgq_on(fg, &q, None, 2, 3)),
        },
        Spec::Stgq(q) => Answers {
            exact: SolveOutcome::Stgq(solve_stgq_pooled(fg, calendars, &q, cfg, arena)),
            anytime: SolveOutcome::Stgq(solve_stgq_pooled(fg, calendars, &q, &budget, arena)),
            parallel_objective: solve_stgq_parallel_on(fg, calendars, &q, cfg, 2)
                .solution
                .map(|s| s.total_distance),
            greedy: Heuristic::Stgq(greedy_stgq_on(fg, calendars, &q, 2)),
            local_search: Heuristic::Stgq(local_search_stgq_on(fg, calendars, &q, 2, 3)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn view_is_bit_identical_to_materialized_at_every_entry_point(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB17_1DE7);
        let n = rng.gen_range(6..14usize);
        let (graph, calendars) = random_world(&mut rng, n, 0.35);
        let shards = [1usize, 3, 4][rng.gen_range(0..3usize)];
        let world = ShardedGraph::from_flat(&graph, shards);
        for cfg in config_grid() {
            // One pooled arena per carrier, reused across the workload and
            // under the world-version handshake, as a serving worker runs.
            let (mut view_arena, mut graph_arena) = (PivotArena::new(), PivotArena::new());
            view_arena.install_world_versions(&vec![1; shards]);
            graph_arena.install_world_versions(&vec![1; shards]);
            for (initiator, spec) in workload(&mut rng, n) {
                let view = FeasibleView::extract(&world, initiator, spec.s());
                let fg = FeasibleGraph::extract_from(&world, initiator, spec.s());
                prop_assert_eq!(
                    answer(&view, &calendars, spec, &cfg, &mut view_arena),
                    answer(&fg, &calendars, spec, &cfg, &mut graph_arena),
                    "carrier divergence on {:?} from {:?} under {:?}",
                    spec,
                    initiator,
                    cfg
                );
            }
        }
    }
}
