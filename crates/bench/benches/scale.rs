//! Million-member-regime serving: sustained queries/sec under a write
//! stream, shard-scoped snapshot publication + delta-scoped cache
//! invalidation against the full-invalidation ablation.
//!
//! The world is `metropolis` at 10^5 members (shard-aligned power-law
//! communities — the regime the tentpole targets). One measured *round*
//! is one write confined to a single community followed by 16 repeat
//! queries from 16 different communities in distinct shards — the
//! serving steady state where writes trickle in but almost every query
//! hits an untouched region:
//!
//! * `reference-sequential-scale/batch64` — the 64-query hot workload
//!   through the frozen sequential planner loop on the same dataset:
//!   the machine-speed anchor `bench_gate` scales the budget by.
//! * `serving-sharded/round` — the round on a 16-shard executor: the
//!   write dirties one sub-snapshot, the republish rebuilds only it
//!   (the other 31 carry over by `Arc`), and 15 of the 16 queries
//!   replay from the shard-stamped result cache.
//! * `serving-flood/round` — the identical round with `shards: 1`:
//!   every write floods the one shard, so each republish rebuilds the
//!   full 10^5-member snapshot and every cached answer goes stale.
//!
//! The acceptance floor is **≥ 1.5× sustained queries/sec for the
//! sharded configuration over the flood ablation** — asserted at the
//! end of the run (it holds on one core by construction: the ablation
//! pays a full-world rebuild plus 16 re-solves per round, the sharded
//! path one community-sized rebuild plus one). Both configurations are
//! checked answer-identical before any timing.
//!
//! Run with `CRITERION_OUT_JSON="$PWD/BENCH_scale.json" cargo bench -p
//! stgq-bench --bench scale` **from the repo root** to refresh the
//! committed baseline (CI gates regressions against it).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use stgq_bench::figures::plaza_dataset;
use stgq_bench::serving::{hot_workload, planner_from_dataset, sequential_objectives};
use stgq_bench::SEED;
use stgq_core::{solve_sgq_on, SelectConfig, SgqQuery};
use stgq_datagen::metropolis::{metropolis_with_communities, MetropolisConfig};
use stgq_datagen::Dataset;
use stgq_exec::ExecConfig;
use stgq_graph::{FeasibleGraph, FeasibleView, NodeId, ShardedGraph};
use stgq_service::{Engine, Planner};

const MEMBERS: usize = 100_000;
const QUERIES_PER_ROUND: usize = 16;

fn load_planner(ds: &Dataset, shards: usize) -> Planner {
    let mut p = Planner::with_exec_config(
        ds.grid.horizon(),
        ExecConfig {
            workers: 1,
            shards,
            ..ExecConfig::default()
        },
    );
    for v in 0..ds.graph.node_count() {
        p.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        p.connect(e.a, e.b, e.weight).expect("valid edge");
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        p.set_calendar(NodeId(v as u32), cal.clone())
            .expect("valid person");
    }
    p
}

/// One serving round: a community-confined write, then the repeat
/// queries. Returns the summed objectives (the agreement check compares
/// them across configurations).
fn round(
    planner: &mut Planner,
    edge: (NodeId, NodeId),
    weight: u64,
    initiators: &[NodeId],
    q: &SgqQuery,
) -> u64 {
    planner
        .connect(edge.0, edge.1, weight)
        .expect("community pair");
    let mut acc = 0u64;
    for &init in initiators {
        acc += planner
            .plan_sgq(init, q, Engine::Exact)
            .expect("known initiator")
            .solution
            .map_or(0, |s| s.total_distance);
    }
    acc
}

fn bench_scale(c: &mut Criterion) {
    let cfg = MetropolisConfig::with_members(MEMBERS);
    let (ds, communities) = metropolis_with_communities(&cfg, 1, SEED);

    // One initiator from each of 16 communities in distinct shards; the
    // write stream re-weights an edge inside the first one's community.
    let mut initiators = Vec::new();
    let mut shards_taken = vec![false; cfg.shards];
    let mut write_edge = None;
    for community in &communities {
        let shard = community[0] as usize % cfg.shards;
        if community.len() < 2 || shards_taken[shard] {
            continue;
        }
        shards_taken[shard] = true;
        initiators.push(NodeId(community[0]));
        write_edge.get_or_insert((NodeId(community[0]), NodeId(community[1])));
        if initiators.len() == QUERIES_PER_ROUND {
            break;
        }
    }
    assert_eq!(
        initiators.len(),
        QUERIES_PER_ROUND,
        "16 shards, 16 communities"
    );
    let write_edge = write_edge.expect("at least one community of two");
    let q = SgqQuery::new(3, 1, 1).expect("valid");

    let mut sharded = load_planner(&ds, cfg.shards);
    let mut flood = load_planner(&ds, 1);
    // Answer identity across both write states before any timing.
    for weight in [3u64, 4] {
        assert_eq!(
            round(&mut sharded, write_edge, weight, &initiators, &q),
            round(&mut flood, write_edge, weight, &initiators, &q),
            "sharded and flood configurations must agree"
        );
    }

    let anchor = planner_from_dataset(&ds, 1);
    let workload = hot_workload(&ds, 3, 1, 1, 2);

    let mut g = c.benchmark_group("scale");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    g.bench_function("reference-sequential-scale/batch64", |b| {
        b.iter(|| sequential_objectives(&anchor, &workload))
    });
    let mut weight = 3u64;
    g.bench_function("serving-sharded/round", |b| {
        b.iter(|| {
            weight = 7 - weight;
            round(&mut sharded, write_edge, weight, &initiators, &q)
        })
    });
    let mut weight = 3u64;
    g.bench_function("serving-flood/round", |b| {
        b.iter(|| {
            weight = 7 - weight;
            round(&mut flood, write_edge, weight, &initiators, &q)
        })
    });
    g.finish();

    // The acceptance floor, visible in the run log and enforced here:
    // sustained queries/sec under the write stream, sharded vs flood.
    let time = |planner: &mut Planner| {
        let t0 = std::time::Instant::now();
        let mut weight = 3u64;
        for _ in 0..5 {
            weight = 7 - weight;
            let _ = round(planner, write_edge, weight, &initiators, &q);
        }
        t0.elapsed().as_secs_f64()
    };
    let (sharded_s, flood_s) = (time(&mut sharded), time(&mut flood));
    let ratio = flood_s / sharded_s;
    println!(
        "scale: sharded {:.0} q/s vs flood {:.0} q/s under the write stream ({ratio:.2}x)",
        5.0 * QUERIES_PER_ROUND as f64 / sharded_s,
        5.0 * QUERIES_PER_ROUND as f64 / flood_s,
    );
    assert!(
        ratio >= 1.5,
        "delta-scoped serving must sustain >= 1.5x the flood ablation (got {ratio:.2}x)"
    );
}

/// The extraction-bound serving round: the plaza world (one hub
/// acquainted with all 1200 people, heavy CSR rows, shallow descent)
/// under a write stream. One round is one crowd-edge re-weight — which
/// stales the hub's stamped cache entries — followed by one hub query,
/// so every measured query pays a full world-sized zero-copy view
/// extraction (`serving-plaza-view/round`).
///
/// The planner is checked answer-identical, at both write states before
/// any timing, to the core engine solving a materialized
/// `FeasibleGraph` extracted from the same sharded world, and the run
/// enforces the acceptance floor: `FeasibleView::extract` must run at
/// least 2× faster than `FeasibleGraph::extract_from` on the same
/// sharded snapshot (median over repeats; observed ~5×).
fn bench_plaza_serving(c: &mut Criterion) {
    let (ds, hub) = plaza_dataset(1);
    const SHARDS: usize = 16;
    let q = SgqQuery::new(4, 1, 2).expect("valid");
    let write_edge = (hub, NodeId(600));
    let initiators = [hub];

    let mut view = load_planner(&ds, SHARDS);
    for weight in [3u64, 4] {
        let served = round(&mut view, write_edge, weight, &initiators, &q);
        let world = ShardedGraph::from_flat(&view.graph_snapshot(), SHARDS);
        let fg = FeasibleGraph::extract_from(&world, hub, q.s());
        let oracle = solve_sgq_on(&fg, &q, &SelectConfig::default(), None)
            .solution
            .map_or(0, |s| s.total_distance);
        assert_eq!(
            served, oracle,
            "view serving must agree with the core engine on a materialized graph"
        );
    }

    let mut g = c.benchmark_group("scale");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let mut weight = 3u64;
    g.bench_function("serving-plaza-view/round", |b| {
        b.iter(|| {
            weight = 7 - weight;
            round(&mut view, write_edge, weight, &initiators, &q)
        })
    });
    g.finish();
    assert!(view.exec_metrics().extract_words_borrowed > 0);

    // The acceptance floor on the extraction itself, over the same
    // sharded snapshot the planner serves from (median over repeats).
    let sharded = ShardedGraph::from_flat(&ds.graph, SHARDS);
    let median = |f: &dyn Fn() -> u128| {
        let mut xs: Vec<u128> = (0..21).map(|_| f()).collect();
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    let view_ns = median(&|| {
        let t0 = std::time::Instant::now();
        let _ = FeasibleView::extract(&sharded, hub, q.s());
        t0.elapsed().as_nanos()
    });
    let mat_ns = median(&|| {
        let t0 = std::time::Instant::now();
        let _ = FeasibleGraph::extract_from(&sharded, hub, q.s());
        t0.elapsed().as_nanos()
    });
    println!(
        "plaza: feasible extraction view {view_ns} ns vs materialized {mat_ns} ns ({:.2}x)",
        mat_ns as f64 / view_ns as f64
    );
    assert!(
        view_ns * 2 <= mat_ns,
        "zero-copy extraction must be >= 2x the materialized path on the plaza round \
         (view {view_ns} ns, materialized {mat_ns} ns)"
    );
}

criterion_group!(benches, bench_scale, bench_plaza_serving);
criterion_main!(benches);
