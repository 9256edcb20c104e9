//! Parallel variants of SGSelect and STGSelect.
//!
//! The paper's evaluation (§5.2) notes that the CPLEX comparator exploited
//! all 8 cores of the test machine while SGSelect and STGSelect ran
//! single-threaded. These solvers close that gap without giving up
//! exactness:
//!
//! * **STGQ** parallelises over *pivot time slots* (Lemma 4): pivots are
//!   independent search roots, so workers claim them from a shared counter
//!   and publish improvements into one shared incumbent — exactly the
//!   incumbent-sharing the sequential engine does across its pivot loop,
//!   just concurrent. When the instance has too few pivots to keep every
//!   core busy (`horizon / m` small), each pivot is further split into the
//!   same forced-prefix depth-1/depth-2 subtrees SGQ uses, so parallelism
//!   no longer caps at the pivot count.
//! * **SGQ** parallelises over *forced-prefix subtrees*. Every feasible
//!   group other than `{q}` has an earliest member `u_i` in the access
//!   order (and, for `p ≥ 3`, an earliest pair `u_i, u_j`), so the search
//!   space partitions into subtrees "force the prefix, exclude everything
//!   ordered before it". Depth-1 splitting alone parallelises poorly: the
//!   access order concentrates nearly all work in the *first* subtree (the
//!   optimum usually lives there, and later roots are pruned by its
//!   incumbent). The solver therefore splits the first
//!   [`PAIR_SPLIT_ROOTS`] roots into their depth-2 pair subtrees and keeps
//!   depth-1 tasks for the long cheap tail. Each forced prefix is vetted
//!   with the hard acquaintance check (θ = 0) and Lemma 1 before being
//!   searched by an ordinary [`Searcher`] sharing the global incumbent.
//!
//! Sharing the incumbent is sound in both directions: a racing thread can
//! only ever read a *stale, larger* bound, which weakens Lemma-2 pruning
//! but never cuts a subtree containing a better solution. The returned
//! **objective value is therefore always the sequential optimum**; when
//! several optimal groups tie, which witness is returned may differ from
//! the sequential engine (and between runs).
//!
//! Before spawning, both solvers **seed the incumbent with a greedy
//! solution** ([`crate::heuristics`]). The sequential engines get their
//! first incumbent almost immediately (access ordering finds a feasible
//! group early, and it prunes everything after it); parallel workers
//! starting simultaneously would instead all search unpruned. A feasible
//! seed restores that asymmetry-free: Lemma 2 with a non-optimal bound
//! never cuts a strictly better solution, so exactness is untouched.

use std::sync::atomic::{AtomicUsize, Ordering};

use stgq_graph::{BitSet, CandidateTopology, FeasibleGraph, NodeId, SocialGraph};
use stgq_schedule::{Calendar, Cals};

use crate::heuristics::{greedy_sgq_on, greedy_stgq_on};
use crate::incumbent::Incumbent;
use crate::inputs::check_temporal_inputs;
use crate::reduce::sgq_peel_preamble;
use crate::sgselect::{Searcher, VaState};
use crate::stgselect::{
    finalize_pivot, materialize_pivot, pivot_bound_skips, prepare_pivot, promise_ordered_pivots,
    search_pivot_controlled, search_pivot_subtree, vet_pivot_roots, PivotArena, PivotJob,
    PivotPrep, StBest,
};
use crate::{
    solve_sgq_controlled_on, solve_stgq_controlled, QueryError, SearchStats, SelectConfig,
    SgqOutcome, SgqQuery, SgqSolution, SolveControl, StgqOutcome, StgqQuery, StgqSolution,
};

/// How many of the earliest access-order roots are split into depth-2
/// pair tasks. The work distribution over roots is extremely top-heavy,
/// so splitting a small prefix is enough; the bound also caps the task
/// list at `PAIR_SPLIT_ROOTS · f + f` entries regardless of graph size.
const PAIR_SPLIT_ROOTS: usize = 24;

/// One unit of parallel SGQ work: a forced prefix of the access order.
#[derive(Clone, Copy)]
enum RootTask {
    /// Force `order[i]`; exclude everything before it.
    Single(usize),
    /// Force `order[i]` then `order[j]`; exclude everything before `j`
    /// except `order[i]`.
    Pair(usize, usize),
}

/// Resolve a thread-count request: `0` means "all available parallelism".
fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Parallel SGSelect: identical optimum to [`crate::solve_sgq`], searched
/// by `threads` workers (`0` = all available cores).
pub fn solve_sgq_parallel(
    graph: &SocialGraph,
    initiator: NodeId,
    query: &SgqQuery,
    cfg: &SelectConfig,
    threads: usize,
) -> Result<SgqOutcome, QueryError> {
    if initiator.index() >= graph.node_count() {
        return Err(QueryError::InitiatorOutOfRange {
            initiator,
            node_count: graph.node_count(),
        });
    }
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(solve_sgq_parallel_on(&fg, query, cfg, None, threads))
}

/// As [`solve_sgq_parallel`] on a pre-extracted feasible graph, with an
/// optional candidate mask (see [`crate::solve_sgq_on`]).
pub fn solve_sgq_parallel_on<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    cfg: &SelectConfig,
    candidate_mask: Option<&BitSet>,
    threads: usize,
) -> SgqOutcome {
    solve_sgq_parallel_controlled_on(fg, query, cfg, candidate_mask, threads, None)
}

/// As [`solve_sgq_parallel_on`], with an optional [`SolveControl`]
/// (cooperative cancellation / deadline). Every worker polls the control
/// on its frame-counter path and between claimed subtree tasks, so a
/// tripped token or expired deadline stops the whole solve at the next
/// frame boundary on every thread; the result carries
/// [`SearchStats::cancelled`](crate::SearchStats::cancelled) — never
/// `truncated`, which stays reserved for frame-budget exhaustion.
pub fn solve_sgq_parallel_controlled_on<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    cfg: &SelectConfig,
    candidate_mask: Option<&BitSet>,
    threads: usize,
    control: Option<&SolveControl>,
) -> SgqOutcome {
    let control = control.filter(|c| !c.is_noop());
    let threads = effective_threads(threads);
    let p = query.p();
    if threads == 1 || p <= 1 {
        return solve_sgq_controlled_on(fg, query, cfg, candidate_mask, control);
    }

    // Fixpoint (p, k)-core peel — the sequential engine's shared helper,
    // computed once here and read by every worker through the peeled
    // `base_va`.
    let (peeled_candidates, peeled_set) =
        match sgq_peel_preamble(fg, cfg, p, query.k(), candidate_mask) {
            Ok(kept) => kept,
            Err(refused) => return *refused,
        };
    let candidate_mask = peeled_set.as_ref().or(candidate_mask);

    let order = fg.candidate_order();
    let base_va = VaState::init(fg, candidate_mask);
    let incumbent: Incumbent<Vec<u32>> = Incumbent::new();
    if cfg.seed_restarts > 0 {
        if let Some(seed) = greedy_sgq_on(fg, query, candidate_mask, cfg.seed_restarts).solution {
            let compact: Vec<u32> = seed
                .members
                .iter()
                .map(|&v| {
                    fg.compact(v)
                        .expect("greedy members lie in the feasible graph")
                })
                .collect();
            incumbent.offer(seed.total_distance, || compact);
        }
    }

    // Vet each root against the hard acquaintance constraint once (the
    // check only involves VS = {q}, so it is task-independent) and use
    // Lemma 1 with the root's full suffix — sound to skip on, because a
    // pair task's effective VA is a subset of the root's.
    let mut root_ok = vec![false; order.len()];
    {
        let mut va = base_va.clone();
        let mut probe = Searcher::new(fg, p, query.k(), cfg, &incumbent);
        probe.push(0);
        for (i, &u) in order.iter().enumerate() {
            if va.set.contains(u as usize) {
                let (u_val, a_val) = probe.u_and_a(u, &va);
                root_ok[i] = probe.hard_feasible(u_val, a_val);
                va.remove(u, fg);
            }
        }
    }

    // Depth-2 pair tasks for the heavy early roots, depth-1 for the tail.
    let split = PAIR_SPLIT_ROOTS.min(order.len());
    let mut tasks: Vec<RootTask> = Vec::new();
    if p == 2 {
        // Groups are {q, u_i}: depth-1 covers everything.
        tasks.extend((0..order.len()).map(RootTask::Single));
    } else {
        for (i, ok) in root_ok.iter().enumerate().take(split) {
            if *ok {
                tasks.extend((i + 1..order.len()).map(|j| RootTask::Pair(i, j)));
            }
        }
        tasks.extend((split..order.len()).map(RootTask::Single));
    }
    let next = AtomicUsize::new(0);

    let mut stats = SearchStats {
        peeled_candidates,
        ..SearchStats::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = SearchStats::default();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&task) = tasks.get(t) else {
                            return local;
                        };
                        // Between-task stop: the frame path below polls the
                        // control too, but a task claimed after the stop
                        // would still pay its setup — bail here instead.
                        if let Some(control) = control {
                            if control.should_stop_now() {
                                local.cancelled = true;
                                return local;
                            }
                        }
                        let (i, forced_j) = match task {
                            RootTask::Single(i) => (i, None),
                            RootTask::Pair(i, j) => (i, Some(j)),
                        };
                        if !root_ok[i] || !base_va.set.contains(order[i] as usize) {
                            continue;
                        }
                        let last_forced = forced_j.unwrap_or(i);
                        if !base_va.set.contains(order[last_forced] as usize) {
                            continue;
                        }

                        // VA: everything ordered after the last forced
                        // vertex (the forced pair's second member stays in
                        // until its feasibility check below).
                        let mut va = base_va.clone();
                        for (pos, &w) in order[..=last_forced].iter().enumerate() {
                            if pos != last_forced && va.set.contains(w as usize) {
                                va.remove(w, fg);
                            }
                        }
                        let forced_members = if forced_j.is_some() { 2 } else { 1 };
                        if va.len() + forced_members < p {
                            continue;
                        }

                        let mut searcher = Searcher::new(fg, p, query.k(), cfg, &incumbent);
                        searcher.control = control;
                        searcher.push(0);
                        let u_i = order[i];
                        let mut td = fg.dist(u_i);
                        if forced_j.is_some() {
                            // root_ok[i] vouched for u_i against VS = {q}.
                            searcher.push(u_i);
                        }
                        let u_last = order[last_forced];
                        searcher.stats.candidates_examined += 1;
                        let (u_val, a_val) = searcher.u_and_a(u_last, &va);
                        if searcher.hard_feasible(u_val, a_val) {
                            if forced_j.is_some() {
                                td += fg.dist(u_last);
                            }
                            searcher.push(u_last);
                            va.remove(u_last, fg);
                            searcher.stats.vertices_expanded += 1;
                            if searcher.vs.len() >= p {
                                searcher.record(td);
                            } else {
                                searcher.expand(&mut va, td);
                            }
                        }
                        local.absorb(&searcher.stats);
                    }
                })
            })
            .collect();
        for h in handles {
            stats.absorb(&h.join().expect("SGQ worker never panics"));
        }
    });

    let solution = incumbent
        .into_best()
        .map(|(total_distance, group)| SgqSolution {
            members: fg.to_origin_group(group),
            total_distance,
        });
    SgqOutcome { solution, stats }
}

/// Parallel STGSelect: identical optimum to [`crate::solve_stgq`], with
/// pivot time slots distributed over `threads` workers (`0` = all cores).
pub fn solve_stgq_parallel(
    graph: &SocialGraph,
    initiator: NodeId,
    calendars: &[Calendar],
    query: &StgqQuery,
    cfg: &SelectConfig,
    threads: usize,
) -> Result<StgqOutcome, QueryError> {
    check_temporal_inputs(graph, initiator, calendars)?;
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(solve_stgq_parallel_on(&fg, calendars, query, cfg, threads))
}

/// Below this many prepared pivots per thread, STGQ tasks are split
/// *within* pivots (forced-prefix subtrees, as in the SGQ solver) instead
/// of one-task-per-pivot. Pivot-level tasks alone cap parallelism at
/// `horizon / m`, which starves cores on small-horizon workloads.
const INTRA_PIVOT_SPLIT_FACTOR: usize = 4;

/// How many of the earliest access-order roots of each pivot get depth-2
/// pair tasks when splitting within pivots (the SGQ rationale applies
/// per pivot: the first subtree holds nearly all the work).
const STGQ_PAIR_SPLIT_ROOTS: usize = 8;

/// As [`solve_stgq_parallel`] on a pre-extracted feasible graph.
///
/// `calendars` is any [`Cals`] source — a flat slice or the execution
/// layer's shard-partitioned storage — indexed by original vertex id.
pub fn solve_stgq_parallel_on<'a, G: CandidateTopology>(
    fg: &G,
    calendars: impl Into<Cals<'a>>,
    query: &StgqQuery,
    cfg: &SelectConfig,
    threads: usize,
) -> StgqOutcome {
    solve_stgq_parallel_controlled_on(fg, calendars, query, cfg, threads, None)
}

/// As [`solve_stgq_parallel_on`], with an optional [`SolveControl`]
/// polled by every worker — on the frame-counter path, between claimed
/// pivots, and between forced-prefix subtree tasks. A stopped solve
/// returns the shared incumbent found so far with
/// [`SearchStats::cancelled`](crate::SearchStats::cancelled) set
/// (distinct from budget truncation), exactly like the sequential
/// [`solve_stgq_controlled`].
pub fn solve_stgq_parallel_controlled_on<'a, G: CandidateTopology>(
    fg: &G,
    calendars: impl Into<Cals<'a>>,
    query: &StgqQuery,
    cfg: &SelectConfig,
    threads: usize,
    control: Option<&SolveControl>,
) -> StgqOutcome {
    // `Cals` is `Copy`, so the scoped workers below capture it by value.
    let calendars: Cals<'a> = calendars.into();
    let control = control.filter(|c| !c.is_noop());
    let threads = effective_threads(threads);
    let p = query.p();
    if threads == 1 || p <= 1 {
        let mut arena = PivotArena::new();
        return solve_stgq_controlled(fg, calendars, query, cfg, &mut arena, control);
    }

    let cfg = cfg.normalized();
    let m = query.m();
    let horizon = calendars.horizon();
    // Same promise order as the sequential engine (shared helper): pivots
    // the initiator cannot host are dropped, and with promise ordering on
    // the rest are claimed longest-initiator-run first so early workers
    // tighten the shared incumbent for everyone.
    let pivots: Vec<usize> = if horizon == 0 {
        Vec::new()
    } else {
        let q_cal = calendars.get(fg.origin(0).index());
        promise_ordered_pivots(q_cal, horizon, m, cfg.pivot_promise_order)
    };

    let incumbent = Incumbent::new();
    if cfg.seed_restarts > 0 {
        if let Some(seed) = greedy_stgq_on(fg, calendars, query, cfg.seed_restarts).solution {
            let group: Vec<u32> = seed
                .members
                .iter()
                .map(|&v| {
                    fg.compact(v)
                        .expect("greedy members lie in the feasible graph")
                })
                .collect();
            let (period, pivot) = (seed.period, seed.pivot);
            incumbent.offer(seed.total_distance, || StBest {
                group,
                period,
                pivot,
            });
        }
    }
    let mut stats = SearchStats::default();
    // Shared pivot preprocessing: tie blocks, thresholds, and the
    // full-candidate reduction memo are computed once here and read by
    // every worker — the sequential engine's per-solve prep, lifted
    // above the spawn.
    let prep = PivotPrep::new(fg, p, query.k(), m, horizon, &cfg);
    let prep = &prep;

    if pivots.len() >= threads * INTRA_PIVOT_SPLIT_FACTOR {
        // Plenty of pivots: one task per pivot saturates every core, and
        // skipping the job hand-off keeps preparation fused with search.
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = SearchStats::default();
                        let mut arena = PivotArena::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= pivots.len() {
                                return local;
                            }
                            // Between-pivot stop, as in the sequential
                            // engine's pivot loop (unamortised check —
                            // pivot preparation runs outside any frame).
                            if let Some(control) = control {
                                if control.should_stop_now() {
                                    local.cancelled = true;
                                    return local;
                                }
                            }
                            if let Some(mut job) = prepare_pivot(
                                fg, calendars, prep, pivots[i], &mut local, &mut arena,
                            ) {
                                // Phase-1 bound, finalize, re-check —
                                // the sequential engine's ladder.
                                if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
                                    local.pivots_skipped += 1;
                                } else if finalize_pivot(fg, prep, &mut job, &mut local, &mut arena)
                                {
                                    if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
                                        local.pivots_skipped += 1;
                                    } else {
                                        // First frame touch — as in the
                                        // sequential loop, a bound-retired
                                        // pivot above never built its
                                        // availability rows.
                                        materialize_pivot(fg, calendars, &mut job, &mut local);
                                        search_pivot_controlled(
                                            fg, query, &cfg, &mut job, &incumbent, &mut local,
                                            control,
                                        );
                                    }
                                }
                                arena.recycle(job);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                stats.absorb(&h.join().expect("STGQ worker never panics"));
            }
        });
    } else {
        // Few pivots: split each pivot into forced-prefix subtrees so all
        // cores stay busy. Jobs are prepared once (concurrently), their
        // roots vetted, and the flattened (pivot, subtree) task list is
        // then claimed exactly like SGQ's root tasks.
        let next_prep = AtomicUsize::new(0);
        let mut jobs: Vec<(PivotJob, Vec<bool>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(pivots.len().max(1)))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = SearchStats::default();
                        let mut found = Vec::new();
                        // Jobs that make the task list outlive this
                        // loop (they are searched concurrently below),
                        // so only retired ones are recycled.
                        let mut arena = PivotArena::new();
                        loop {
                            let i = next_prep.fetch_add(1, Ordering::Relaxed);
                            if i >= pivots.len() {
                                return (local, found);
                            }
                            if let Some(control) = control {
                                if control.should_stop_now() {
                                    local.cancelled = true;
                                    return (local, found);
                                }
                            }
                            if let Some(mut job) = prepare_pivot(
                                fg, calendars, prep, pivots[i], &mut local, &mut arena,
                            ) {
                                if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
                                    local.pivots_skipped += 1;
                                    arena.recycle(job);
                                    continue;
                                }
                                if !finalize_pivot(fg, prep, &mut job, &mut local, &mut arena) {
                                    arena.recycle(job);
                                    continue;
                                }
                                if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
                                    local.pivots_skipped += 1;
                                    arena.recycle(job);
                                    continue;
                                }
                                // Root vetting and the shared subtree
                                // searches below read `job.va` and the
                                // availability rows, so a job that made
                                // the task list is materialized here —
                                // its first frame touch.
                                materialize_pivot(fg, calendars, &mut job, &mut local);
                                let ok = vet_pivot_roots(fg, query, &cfg, &job, &incumbent);
                                found.push((job, ok));
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                let (local, found) = h.join().expect("STGQ prep worker never panics");
                stats.absorb(&local);
                jobs.extend(found);
            }
        });

        // Depth-2 pair tasks for each pivot's heavy early roots, depth-1
        // singles for the tail — the same partition as the SGQ solver,
        // instantiated per pivot.
        let order_len = fg.candidate_order().len();
        let split = STGQ_PAIR_SPLIT_ROOTS.min(order_len);
        let mut tasks: Vec<(u32, RootTask)> = Vec::new();
        for (ji, (_, root_ok)) in jobs.iter().enumerate() {
            let ji = ji as u32;
            if p == 2 {
                tasks.extend((0..order_len).map(|i| (ji, RootTask::Single(i))));
            } else {
                for (i, ok) in root_ok.iter().enumerate().take(split) {
                    if *ok {
                        tasks.extend((i + 1..order_len).map(|j| (ji, RootTask::Pair(i, j))));
                    }
                }
                tasks.extend((split..order_len).map(|i| (ji, RootTask::Single(i))));
            }
        }

        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = SearchStats::default();
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(ji, task)) = tasks.get(t) else {
                                return local;
                            };
                            if let Some(control) = control {
                                if control.should_stop_now() {
                                    local.cancelled = true;
                                    return local;
                                }
                            }
                            let (job, root_ok) = &jobs[ji as usize];
                            let (i, forced_j) = match task {
                                RootTask::Single(i) => (i, None),
                                RootTask::Pair(i, j) => (i, Some(j)),
                            };
                            if !root_ok[i] {
                                continue;
                            }
                            // Claim-time pivot bound: the shared incumbent
                            // may have tightened past this pivot's floor
                            // since its tasks were generated (not counted
                            // as a pivot skip — the pivot was admitted).
                            if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
                                continue;
                            }
                            search_pivot_subtree(
                                fg, query, &cfg, job, i, forced_j, &incumbent, &mut local, control,
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                stats.absorb(&h.join().expect("STGQ worker never panics"));
            }
        });
    }

    let solution = incumbent.into_best().map(|(dist, b)| StgqSolution {
        members: fg.to_origin_group(b.group),
        total_distance: dist,
        period: b.period,
        pivot: b.pivot,
    });
    StgqOutcome { solution, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_sgq, solve_stgq};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use stgq_graph::GraphBuilder;

    /// Random weighted graph + calendars for equivalence tests.
    fn random_instance(
        seed: u64,
        n: usize,
        edge_prob: f64,
        horizon: usize,
    ) -> (SocialGraph, Vec<Calendar>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(edge_prob) {
                    b.add_edge(NodeId(u as u32), NodeId(v as u32), rng.gen_range(1..=50))
                        .unwrap();
                }
            }
        }
        let graph = b.build();
        let calendars = (0..n)
            .map(|_| {
                let mut c = Calendar::new(horizon);
                for slot in 0..horizon {
                    if rng.gen_bool(0.7) {
                        c.set_available(slot, true);
                    }
                }
                c
            })
            .collect();
        (graph, calendars)
    }

    #[test]
    fn sgq_parallel_matches_sequential_on_random_graphs() {
        let cfg = SelectConfig::default();
        for seed in 0..8 {
            let (g, _) = random_instance(seed, 24, 0.3, 1);
            let query = SgqQuery::new(5, 2, 1).unwrap();
            let seq = solve_sgq(&g, NodeId(0), &query, &cfg).unwrap();
            for threads in [2, 4] {
                let par = solve_sgq_parallel(&g, NodeId(0), &query, &cfg, threads).unwrap();
                assert_eq!(
                    par.solution.as_ref().map(|s| s.total_distance),
                    seq.solution.as_ref().map(|s| s.total_distance),
                    "seed {seed}, {threads} threads"
                );
                if let Some(sol) = &par.solution {
                    assert!(crate::validate::validate_sgq(&g, NodeId(0), &query, sol).is_ok());
                }
            }
        }
    }

    #[test]
    fn stgq_parallel_matches_sequential_on_random_instances() {
        let cfg = SelectConfig::default();
        for seed in 100..106 {
            let (g, cals) = random_instance(seed, 20, 0.35, 48);
            let query = StgqQuery::new(4, 2, 1, 4).unwrap();
            let seq = solve_stgq(&g, NodeId(0), &cals, &query, &cfg).unwrap();
            for threads in [2, 4] {
                let par = solve_stgq_parallel(&g, NodeId(0), &cals, &query, &cfg, threads).unwrap();
                assert_eq!(
                    par.solution.as_ref().map(|s| s.total_distance),
                    seq.solution.as_ref().map(|s| s.total_distance),
                    "seed {seed}, {threads} threads"
                );
                if let Some(sol) = &par.solution {
                    assert!(
                        crate::validate::validate_stgq(&g, NodeId(0), &cals, &query, sol).is_ok()
                    );
                }
            }
        }
    }

    #[test]
    fn single_thread_request_delegates_to_sequential() {
        let (g, cals) = random_instance(7, 16, 0.4, 24);
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let cfg = SelectConfig::default();
        let seq = solve_stgq(&g, NodeId(0), &cals, &query, &cfg).unwrap();
        let par = solve_stgq_parallel(&g, NodeId(0), &cals, &query, &cfg, 1).unwrap();
        assert_eq!(
            par.solution, seq.solution,
            "one worker is literally sequential"
        );
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let (g, _) = random_instance(11, 16, 0.4, 1);
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let cfg = SelectConfig::default();
        let seq = solve_sgq(&g, NodeId(0), &query, &cfg).unwrap();
        let par = solve_sgq_parallel(&g, NodeId(0), &query, &cfg, 0).unwrap();
        assert_eq!(
            par.solution.map(|s| s.total_distance),
            seq.solution.map(|s| s.total_distance)
        );
    }

    #[test]
    fn infeasible_instances_return_none_in_parallel() {
        // A star graph cannot seat 4 people with k = 0 (leaves unacquainted).
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(NodeId(0), NodeId(v), 1).unwrap();
        }
        let g = b.build();
        let query = SgqQuery::new(4, 1, 0).unwrap();
        let out = solve_sgq_parallel(&g, NodeId(0), &query, &SelectConfig::default(), 4).unwrap();
        assert!(out.solution.is_none());
    }

    #[test]
    fn more_threads_than_pivots_is_fine() {
        let (g, cals) = random_instance(13, 12, 0.5, 12);
        let query = StgqQuery::new(3, 1, 1, 6).unwrap(); // only 2 pivots
        let cfg = SelectConfig::default();
        let seq = solve_stgq(&g, NodeId(0), &cals, &query, &cfg).unwrap();
        let par = solve_stgq_parallel(&g, NodeId(0), &cals, &query, &cfg, 16).unwrap();
        assert_eq!(
            par.solution.map(|s| s.total_distance),
            seq.solution.map(|s| s.total_distance)
        );
    }

    #[test]
    fn cancelled_parallel_solves_report_cancelled_not_truncated() {
        // Regression for the executor's `Engine::ExactParallel` path: the
        // parallel workers must poll `SolveControl` (between tasks and on
        // the frame path), and a stopped solve must surface as
        // *cancelled*, never as budget truncation.
        use crate::CancelToken;
        let (g, cals) = random_instance(21, 20, 0.35, 48);
        let fg = FeasibleGraph::extract(&g, NodeId(0), 2);
        let cfg = SelectConfig::default();
        let token = CancelToken::new();
        token.cancel();
        let control = SolveControl::new().with_cancel(token);

        let sgq = SgqQuery::new(5, 2, 1).unwrap();
        let out = solve_sgq_parallel_controlled_on(&fg, &sgq, &cfg, None, 4, Some(&control));
        assert!(out.stats.cancelled, "SGQ workers must poll the control");
        assert!(!out.stats.truncated, "cancellation is not truncation");

        let stgq = StgqQuery::new(4, 2, 1, 4).unwrap();
        let out = solve_stgq_parallel_controlled_on(&fg, &cals, &stgq, &cfg, 4, Some(&control));
        assert!(out.stats.cancelled, "STGQ pivot workers must poll");
        assert!(!out.stats.truncated);

        // Few pivots ⇒ the intra-pivot split path must poll too.
        let wide = StgqQuery::new(3, 2, 1, 20).unwrap();
        let out = solve_stgq_parallel_controlled_on(&fg, &cals, &wide, &cfg, 16, Some(&control));
        assert!(out.stats.cancelled || out.stats.pivots_processed == 0);
        assert!(!out.stats.truncated);
    }

    #[test]
    fn quiet_control_does_not_change_parallel_results() {
        use crate::CancelToken;
        let (g, cals) = random_instance(22, 18, 0.4, 36);
        let fg = FeasibleGraph::extract(&g, NodeId(0), 2);
        let cfg = SelectConfig::default();
        let control = SolveControl::new().with_cancel(CancelToken::new());

        let sgq = SgqQuery::new(4, 2, 1).unwrap();
        let plain = solve_sgq_parallel_on(&fg, &sgq, &cfg, None, 3);
        let quiet = solve_sgq_parallel_controlled_on(&fg, &sgq, &cfg, None, 3, Some(&control));
        assert_eq!(
            plain.solution.map(|s| s.total_distance),
            quiet.solution.map(|s| s.total_distance)
        );
        assert!(!quiet.stats.cancelled);

        let stgq = StgqQuery::new(4, 2, 1, 4).unwrap();
        let plain = solve_stgq_parallel_on(&fg, &cals, &stgq, &cfg, 3);
        let quiet = solve_stgq_parallel_controlled_on(&fg, &cals, &stgq, &cfg, 3, Some(&control));
        assert_eq!(
            plain.solution.map(|s| s.total_distance),
            quiet.solution.map(|s| s.total_distance)
        );
        assert!(!quiet.stats.cancelled);
    }

    #[test]
    fn initiator_out_of_range_is_an_error() {
        let (g, _) = random_instance(3, 8, 0.4, 1);
        let query = SgqQuery::new(3, 1, 1).unwrap();
        let err =
            solve_sgq_parallel(&g, NodeId(99), &query, &SelectConfig::default(), 2).unwrap_err();
        assert!(matches!(err, QueryError::InitiatorOutOfRange { .. }));
    }
}
