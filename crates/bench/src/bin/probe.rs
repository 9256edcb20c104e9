//! One-off profiling probe for the hot path (not part of the figure
//! harness): prints search statistics and coarse phase timings for a
//! fig1f-style instance so perf work aims at the right loop. The
//! search-reduction ablation rows report the median and interquartile
//! range of rotated-order repeats, so a gap between two rows can be read
//! against their spread.

use std::hint::black_box;
use std::time::Instant;

use stgq_bench::figures::{calendar_churn_dataset, stgq_dataset};
use stgq_core::{solve_stgq, SelectConfig, StgqQuery};
use stgq_datagen::Dataset;
use stgq_graph::{FeasibleGraph, FeasibleView, NodeId, ShardedGraph};

/// Percent reduction of `a` relative to `b` (0 when `b` is 0).
fn pct(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        100.0 * (1.0 - a as f64 / b as f64)
    }
}

/// Timed repeats per ablation row. Each repeat times every arm once,
/// starting one arm further along than the repeat before, so no arm is
/// always measured first or always right after the same neighbour.
const ABLATION_REPEATS: usize = 15;

/// `(q1, median, q3)` of `samples` by nearest rank (sorts in place).
fn quartiles(samples: &mut [u128]) -> (u128, u128, u128) {
    samples.sort_unstable();
    let at = |q: usize| samples[(samples.len() - 1) * q / 4];
    (at(1), at(2), at(3))
}

/// Peak resident set (`VmHWM`) in MiB from `/proc/self/status`; 0.0 when
/// the file is unavailable (non-Linux hosts).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<u64>().ok())
        })
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The prep-vs-descend scoreboard: for each config, the solve's own
/// [`StageTimings`] split (detail mode — `prepare_pivot`,
/// `finalize_pivot` and descent clocked individually) read off the
/// arena after each solve, next to the whole solve's wall clock. The
/// delta/rebuilt counters show how much of the availability work the
/// per-solve run cache answered by interval arithmetic.
///
/// [`StageTimings`]: stgq_core::StageTimings
fn prep_split(what: &str, ds: &Dataset, q: NodeId, query: &StgqQuery) {
    println!("\n{what}: prep phase split (in-solve, detail mode):");
    let fg = FeasibleGraph::extract(&ds.graph, q, query.s());
    for (name, cfg) in [
        ("default", SelectConfig::default()),
        (
            "no pbnd",
            SelectConfig::default().with_parent_completion_bound(false),
        ),
    ] {
        let mut arena = stgq_core::PivotArena::new();
        arena.timing_detail = true;
        // Minimum over repeats: phase timings are µs-scale, so take the
        // least-noisy observation of each quantity.
        let mut prep_ns = u64::MAX;
        let mut fin_ns = u64::MAX;
        let mut desc_ns = u64::MAX;
        let mut solve_ns = u128::MAX;
        let mut timing = stgq_core::StageTimings::default();
        let mut out = None;
        for _ in 0..12 {
            let t0 = Instant::now();
            out = Some(stgq_core::solve_stgq_pooled(
                &fg,
                &ds.calendars,
                query,
                &cfg,
                &mut arena,
            ));
            solve_ns = solve_ns.min(t0.elapsed().as_nanos());
            timing = arena.timings;
            prep_ns = prep_ns.min(timing.prepare_ns);
            fin_ns = fin_ns.min(timing.finalize_ns);
            desc_ns = desc_ns.min(timing.descend_ns);
        }
        let out = out.expect("12 repeats ran");
        println!(
            "    [{name}] prepare {prep_ns:>8} ns  finalize {fin_ns:>8} ns  descend {desc_ns:>8} ns  solve {solve_ns:>8} ns  ({}/{} pivots prepared, {} descended; words {} delta'd {} rebuilt; {} children parent-pruned)",
            timing.prepared,
            timing.pivots,
            timing.descended,
            out.stats.prep_words_delta,
            out.stats.prep_words_rebuilt,
            out.stats.children_pruned_by_parent_bound,
        );
    }
}

fn main() {
    let days: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let (ds, q) = stgq_dataset(days);
    let query = StgqQuery::new(4, 2, 2, 4).expect("valid");
    let cfg = SelectConfig::default();

    let t0 = Instant::now();
    let mut fg = None;
    for _ in 0..100 {
        fg = Some(FeasibleGraph::extract(&ds.graph, q, query.s()));
    }
    let extract_ns = t0.elapsed().as_nanos() / 100;
    let fg = fg.unwrap();
    println!(
        "feasible graph: {} vertices, extract {extract_ns} ns",
        fg.len()
    );

    // The zero-copy counterpart: same Definition-1 DP, but adjacency
    // words are generated over the snapshot's CSR segments instead of
    // copied into a per-query matrix.
    let sharded = ShardedGraph::from_flat(&ds.graph, 4);
    let t0 = Instant::now();
    let mut view = None;
    for _ in 0..100 {
        view = Some(FeasibleView::extract(&sharded, q, query.s()));
    }
    let view_ns = t0.elapsed().as_nanos() / 100;
    let view = view.unwrap();
    println!(
        "feasible view:  {} vertices, extract {view_ns} ns ({:.2}x vs materialized, {} words generated)",
        stgq_graph::CandidateTopology::len(&view),
        extract_ns as f64 / view_ns as f64,
        view.words_generated(),
    );

    let t0 = Instant::now();
    let mut out = None;
    for _ in 0..100 {
        out = Some(solve_stgq(&ds.graph, q, &ds.calendars, &query, &cfg).unwrap());
    }
    let solve_ns = t0.elapsed().as_nanos() / 100;
    let out = out.unwrap();
    println!(
        "solve: {solve_ns} ns  (extract share: {:.1}%)",
        100.0 * extract_ns as f64 / solve_ns as f64
    );
    println!("stats: {:#?}", out.stats);

    let t0 = Instant::now();
    let mut on = None;
    for _ in 0..100 {
        on = Some(stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &cfg));
    }
    let on_ns = t0.elapsed().as_nanos() / 100;
    println!("solve_on (pre-extracted): {on_ns} ns");
    let _ = on;

    // Config ablations to locate the per-frame cost.
    for (name, cfg) in [
        (
            "no acquaintance prune",
            SelectConfig::default().with_acquaintance_pruning(false),
        ),
        (
            "no distance prune",
            SelectConfig::default().with_distance_pruning(false),
        ),
        (
            "no availability prune",
            SelectConfig::default().with_availability_pruning(false),
        ),
    ] {
        let t0 = Instant::now();
        for _ in 0..100 {
            let _ = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &cfg);
        }
        println!("{name}: {} ns", t0.elapsed().as_nanos() / 100);
    }

    // How much of solve_on is pivot preparation vs search? Approximate by
    // running with p = 1... not comparable; instead run frame_budget = 0-ish
    // search (budget 1 per pivot) so only preparation + one frame happens.
    let tight = SelectConfig::default().with_frame_budget(1);
    let t0 = Instant::now();
    for _ in 0..100 {
        let _ = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &tight);
    }
    println!("prep + 1 frame/pivot: {} ns", t0.elapsed().as_nanos() / 100);

    for (p, k, m) in [
        (4usize, 2usize, 4usize),
        (5, 2, 4),
        (6, 2, 4),
        (5, 2, 12),
        (5, 2, 16),
    ] {
        let query = StgqQuery::new(p, 2, k, m).expect("valid");
        let mut ref_ns = u128::MAX;
        let mut new_ns = u128::MAX;
        for _ in 0..12 {
            let t0 = Instant::now();
            let _ = stgq_core::reference::solve_stgq_reference_on(&fg, &ds.calendars, &query, &cfg);
            ref_ns = ref_ns.min(t0.elapsed().as_nanos());
            let t0 = Instant::now();
            let _ = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &cfg);
            new_ns = new_ns.min(t0.elapsed().as_nanos());
        }
        let out = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &cfg);
        println!(
            "p={p} k={k} m={m:>2}: reference {ref_ns:>10} ns  optimized {new_ns:>10} ns  speedup {:.2}x  exams {} frames {} expanded {}",
            ref_ns as f64 / new_ns as f64,
            out.stats.candidates_examined, out.stats.frames, out.stats.vertices_expanded
        );
    }

    // Search-reduction scoreboard: frames examined / bound prunes / pivot
    // skips with the PR-2 pieces on vs. the PR-1 baseline behavior.
    println!("\nsearch reduction (default vs NO_SEARCH_REDUCTION):");
    for (p, k, m) in [(4usize, 2usize, 4usize), (5, 2, 4), (5, 2, 12), (5, 2, 16)] {
        let query = StgqQuery::new(p, 2, k, m).expect("valid");
        let new = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &SelectConfig::default());
        let old = stgq_core::solve_stgq_on(
            &fg,
            &ds.calendars,
            &query,
            &SelectConfig::NO_SEARCH_REDUCTION,
        );
        assert_eq!(
            new.solution.as_ref().map(|s| s.total_distance),
            old.solution.as_ref().map(|s| s.total_distance),
            "search reduction must not move the optimum"
        );
        let arms = [
            ("all on ", SelectConfig::default()),
            ("no seed", SelectConfig::default().with_seed_restarts(0)),
            (
                "no prom",
                SelectConfig::default().with_pivot_promise_order(false),
            ),
            (
                "no aord",
                SelectConfig::default().with_availability_ordering(false),
            ),
            (
                "no sharp",
                SelectConfig::default().with_sharp_pivot_floor(false),
            ),
            (
                "no peel",
                SelectConfig::default().with_core_peel_fixpoint(false),
            ),
            (
                "no mtch",
                SelectConfig::default().with_kplex_match_bound(false),
            ),
            (
                "no pbnd",
                SelectConfig::default().with_parent_completion_bound(false),
            ),
            (
                "pr4 on ",
                SelectConfig::default().without_candidate_reduction(),
            ),
            ("all off", SelectConfig::NO_SEARCH_REDUCTION),
        ];
        let mut samples = vec![Vec::with_capacity(ABLATION_REPEATS); arms.len()];
        for repeat in 0..ABLATION_REPEATS {
            for i in 0..arms.len() {
                let arm = (repeat + i) % arms.len();
                let t0 = Instant::now();
                black_box(stgq_core::solve_stgq_on(
                    &fg,
                    &ds.calendars,
                    &query,
                    &arms[arm].1,
                ));
                samples[arm].push(t0.elapsed().as_nanos());
            }
        }
        for ((name, _), times) in arms.iter().zip(&mut samples) {
            let (q1, median, q3) = quartiles(times);
            println!(
                "    p={p} m={m:>2} [{name}]: median {median:>9} ns  IQR {:>8} ns  [{q1}, {q3}]",
                q3 - q1
            );
        }
        println!(
            "p={p} k={k} m={m:>2}: frames {:>5} (was {:>5}, -{:.1}%)  exams {:>6} (was {:>6}, -{:.1}%)  bound-pruned {:>5}  parent-pruned {:>4}  pivots skipped {}/{}",
            new.stats.frames_examined(),
            old.stats.frames_examined(),
            pct(new.stats.frames_examined(), old.stats.frames_examined()),
            new.stats.candidates_examined,
            old.stats.candidates_examined,
            pct(new.stats.candidates_examined, old.stats.candidates_examined),
            new.stats.frames_pruned_by_bound(),
            new.stats.children_pruned_by_parent_bound,
            // Skipped pivots are a subset of the prepared (processed) ones.
            new.stats.pivots_skipped,
            new.stats.pivots_processed,
        );
        // The candidate-space reduction layer's own contribution: all-on
        // vs `without_candidate_reduction` (peel + matching bound off,
        // everything else on).
        let pr4 = stgq_core::solve_stgq_on(
            &fg,
            &ds.calendars,
            &query,
            &SelectConfig::default().without_candidate_reduction(),
        );
        println!(
            "          reduction: frames {:>5} vs {:>5} pr4 (-{:.1}%)  peeled {}  refused {}  match-pruned {}",
            new.stats.frames_examined(),
            pr4.stats.frames_examined(),
            pct(new.stats.frames_examined(), pr4.stats.frames_examined()),
            new.stats.peeled_candidates,
            new.stats.pivots_refused_by_core,
            new.stats.frames_pruned_by_match,
        );
    }

    // The sparse-fringe scenario: the fixpoint peel's home turf (the
    // fans cascade away; see `stgq_datagen::scenario::sparse_fringe`).
    println!("\nsparse_fringe scenario (default vs PR-4 all-on baseline):");
    let (ds, q) = stgq_bench::figures::sparse_fringe_dataset(days);
    let pr4_cfg = SelectConfig::default().without_candidate_reduction();
    for (p, k, m) in [(5usize, 1usize, 4usize), (6, 2, 4)] {
        let query = StgqQuery::new(p, 2, k, m).expect("valid");
        let fg = FeasibleGraph::extract(&ds.graph, q, query.s());
        let new = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &SelectConfig::default());
        let pr4 = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &pr4_cfg);
        assert_eq!(
            new.solution.as_ref().map(|s| s.total_distance),
            pr4.solution.as_ref().map(|s| s.total_distance),
            "the reduction layer must not move the optimum"
        );
        let mut new_ns = u128::MAX;
        let mut pr4_ns = u128::MAX;
        for _ in 0..12 {
            let t0 = Instant::now();
            let _ = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &SelectConfig::default());
            new_ns = new_ns.min(t0.elapsed().as_nanos());
            let t0 = Instant::now();
            let _ = stgq_core::solve_stgq_on(&fg, &ds.calendars, &query, &pr4_cfg);
            pr4_ns = pr4_ns.min(t0.elapsed().as_nanos());
        }
        println!(
            "p={p} k={k} m={m:>2}: frames {:>5} (pr4 {:>5}, -{:.1}%)  exams {:>6} (pr4 {:>6}, -{:.1}%)  {:>9} ns (pr4 {:>9} ns, {:.2}x)",
            new.stats.frames_examined(),
            pr4.stats.frames_examined(),
            pct(new.stats.frames_examined(), pr4.stats.frames_examined()),
            new.stats.candidates_examined,
            pr4.stats.candidates_examined,
            pct(new.stats.candidates_examined, pr4.stats.candidates_examined),
            new_ns,
            pr4_ns,
            pr4_ns as f64 / new_ns as f64,
        );
        println!(
            "          peeled {} over {} pivots ({} refused by core, {} skipped)  match-pruned {}",
            new.stats.peeled_candidates,
            new.stats.pivots_processed,
            new.stats.pivots_refused_by_core,
            new.stats.pivots_skipped,
            new.stats.frames_pruned_by_match,
        );
    }

    // Prep-vs-descend wall-clock split (the incremental-prep release's
    // scoreboard): fig1f m = 4 — where prep used to dominate — then the
    // calendar-churn scenario, the regime the run cache is built for
    // (dense long runs, per-person jitter).
    let (ds, q) = stgq_dataset(days);
    prep_split(
        "fig1f m=4 p=5",
        &ds,
        q,
        &StgqQuery::new(5, 2, 2, 4).expect("valid"),
    );
    let (churn, cq) = calendar_churn_dataset(days);
    prep_split(
        "calendar_churn m=4 p=5",
        &churn,
        cq,
        &StgqQuery::new(5, 2, 2, 4).expect("valid"),
    );
    prep_split(
        "calendar_churn m=8 p=5",
        &churn,
        cq,
        &StgqQuery::new(5, 2, 2, 8).expect("valid"),
    );

    // Scale probe: stand up a 10^5-member metropolis world and walk the
    // sharded-snapshot lifecycle, with a peak-RSS column so memory cost
    // at scale is visible next to the wall clock (VmHWM is monotone:
    // each row shows the high-water mark up to that stage).
    println!("\nmetropolis 100k scale probe:");
    println!(
        "    {:<34} {:>10} {:>14}",
        "stage", "wall ms", "peak RSS MiB"
    );
    let stage = |what: &str, t0: Instant| {
        println!(
            "    {what:<34} {:>10.1} {:>14.1}",
            t0.elapsed().as_secs_f64() * 1e3,
            peak_rss_mib()
        );
    };
    let t0 = Instant::now();
    let cfg = stgq_datagen::metropolis::MetropolisConfig::with_members(100_000);
    let (mds, communities) = stgq_datagen::metropolis::metropolis_with_communities(&cfg, 1, 7);
    stage("generate (graph + calendars)", t0);

    let t0 = Instant::now();
    let mut planner = stgq_service::Planner::with_exec_config(
        mds.grid.horizon(),
        stgq_exec::ExecConfig {
            workers: 1,
            shards: cfg.shards,
            ..stgq_exec::ExecConfig::default()
        },
    );
    for v in 0..mds.graph.node_count() {
        planner.add_person(format!("p{v}"));
    }
    for e in mds.graph.edges() {
        planner.connect(e.a, e.b, e.weight).expect("valid edge");
    }
    for (v, cal) in mds.calendars.iter().enumerate() {
        planner
            .set_calendar(NodeId(v as u32), cal.clone())
            .expect("valid person");
    }
    stage("load mutable world", t0);

    let community = communities
        .iter()
        .find(|c| c.len() >= 2)
        .expect("metropolis communities");
    let init = NodeId(community[0]);
    let sq = stgq_core::SgqQuery::new(3, 1, 1).expect("valid");
    let t0 = Instant::now();
    let _ = planner
        .plan_sgq(init, &sq, stgq_service::Engine::Exact)
        .expect("known initiator");
    stage("first query (full publish)", t0);

    let t0 = Instant::now();
    planner
        .connect(NodeId(community[0]), NodeId(community[1]), 4)
        .expect("community pair");
    let _ = planner
        .plan_sgq(init, &sq, stgq_service::Engine::Exact)
        .expect("known initiator");
    stage("delta + query (1-shard republish)", t0);
    let em = planner.exec_metrics();
    println!(
        "    snapshot shards: {} rebuilt / {} reused over {} publishes",
        em.snapshot_shards_rebuilt, em.snapshot_shards_reused, em.snapshot_publishes
    );
}
