//! Engine selection and per-entry dispatch (moved here from the service
//! planner — execution policy lives in `stgq-exec`).

use stgq_core::heuristics::{
    greedy_sgq_on, greedy_stgq_on, local_search_sgq_on, local_search_stgq_on,
};
use stgq_core::{
    solve_sgq_controlled_on, solve_sgq_parallel_controlled_on, solve_stgq_controlled,
    solve_stgq_parallel_controlled_on, PivotArena, SelectConfig, SolveControl, SolveOutcome,
};
use stgq_graph::FeasibleView;
use stgq_schedule::Cals;

use crate::request::QuerySpec;

/// Which solver answers a planning query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Sequential SGSelect / STGSelect — proven optimal.
    Exact,
    /// Parallel SGSelect / STGSelect — proven optimal, `threads` workers
    /// (`0` = all cores). Per-request cancellation/deadlines are polled
    /// by every worker (between claimed subtree/pivot tasks and on the
    /// frame path), so intra-query parallelism honours `SolveControl`
    /// exactly like `Exact` does.
    ExactParallel {
        /// Worker count; `0` means all available parallelism.
        threads: usize,
    },
    /// Budgeted SGSelect / STGSelect: returns the incumbent after at most
    /// `frame_budget` search frames. The report's `exact` flag tells
    /// whether the search actually finished.
    Anytime {
        /// Maximum search frames before returning the incumbent.
        frame_budget: u64,
    },
    /// Greedy construction with restarts — fast, feasible, no optimality
    /// guarantee.
    Greedy {
        /// Forced-first-pick restarts (1 = plain greedy).
        restarts: usize,
    },
    /// Greedy plus first-improvement swap descent.
    LocalSearch {
        /// Forced-first-pick restarts.
        restarts: usize,
        /// Improvement sweeps.
        passes: usize,
    },
}

impl Engine {
    /// Whether this engine produces [`stgq_core::SearchStats`] (the exact
    /// family does; the heuristics report feasibility evaluations
    /// instead).
    pub fn reports_search_stats(&self) -> bool {
        matches!(
            self,
            Engine::Exact | Engine::ExactParallel { .. } | Engine::Anytime { .. }
        )
    }

    /// Whether an uninterrupted run of this engine proves its answer
    /// optimal (or proves infeasibility).
    pub fn proves_optimality(&self) -> bool {
        matches!(self, Engine::Exact | Engine::ExactParallel { .. })
    }
}

/// Run one query spec with the chosen engine on a pre-extracted
/// zero-copy [`FeasibleView`]. Returns the uniform [`SolveOutcome`]
/// plus, for heuristic engines, the feasibility-evaluation count.
pub(crate) fn run_spec(
    fg: &FeasibleView,
    calendars: Cals<'_>,
    spec: &QuerySpec,
    engine: Engine,
    cfg: &SelectConfig,
    control: Option<&SolveControl>,
    arena: &mut PivotArena,
) -> (SolveOutcome, Option<u64>) {
    match spec {
        QuerySpec::Sgq(query) => match engine {
            Engine::Exact => (
                SolveOutcome::Sgq(solve_sgq_controlled_on(fg, query, cfg, None, control)),
                None,
            ),
            Engine::ExactParallel { threads } => (
                SolveOutcome::Sgq(solve_sgq_parallel_controlled_on(
                    fg, query, cfg, None, threads, control,
                )),
                None,
            ),
            Engine::Anytime { frame_budget } => {
                let cfg = cfg.with_frame_budget(frame_budget);
                (
                    SolveOutcome::Sgq(solve_sgq_controlled_on(fg, query, &cfg, None, control)),
                    None,
                )
            }
            Engine::Greedy { restarts } => {
                let out = greedy_sgq_on(fg, query, None, restarts);
                (
                    SolveOutcome::Sgq(stgq_core::SgqOutcome {
                        solution: out.solution,
                        stats: Default::default(),
                    }),
                    Some(out.evaluations),
                )
            }
            Engine::LocalSearch { restarts, passes } => {
                let out = local_search_sgq_on(fg, query, None, restarts, passes);
                (
                    SolveOutcome::Sgq(stgq_core::SgqOutcome {
                        solution: out.solution,
                        stats: Default::default(),
                    }),
                    Some(out.evaluations),
                )
            }
        },
        QuerySpec::Stgq(query) => match engine {
            Engine::Exact => (
                SolveOutcome::Stgq(solve_stgq_controlled(
                    fg, calendars, query, cfg, arena, control,
                )),
                None,
            ),
            Engine::ExactParallel { threads } => (
                SolveOutcome::Stgq(solve_stgq_parallel_controlled_on(
                    fg, calendars, query, cfg, threads, control,
                )),
                None,
            ),
            Engine::Anytime { frame_budget } => {
                let cfg = cfg.with_frame_budget(frame_budget);
                (
                    SolveOutcome::Stgq(solve_stgq_controlled(
                        fg, calendars, query, &cfg, arena, control,
                    )),
                    None,
                )
            }
            Engine::Greedy { restarts } => {
                let out = greedy_stgq_on(fg, calendars, query, restarts);
                (
                    SolveOutcome::Stgq(stgq_core::StgqOutcome {
                        solution: out.solution,
                        stats: Default::default(),
                    }),
                    Some(out.evaluations),
                )
            }
            Engine::LocalSearch { restarts, passes } => {
                let out = local_search_stgq_on(fg, calendars, query, restarts, passes);
                (
                    SolveOutcome::Stgq(stgq_core::StgqOutcome {
                        solution: out.solution,
                        stats: Default::default(),
                    }),
                    Some(out.evaluations),
                )
            }
        },
    }
}
