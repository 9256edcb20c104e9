//! Criterion version of the pruning ablation: SGSelect and STGSelect with
//! each pruning strategy disabled in turn, plus the search-reduction
//! ablation (incumbent seeding, promise-ordered pivots, availability
//! ordering) with each piece disabled in turn.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use stgq_bench::figures::{sgq_dataset, stgq_dataset};
use stgq_core::{solve_sgq, solve_stgq, SelectConfig, SgqQuery, StgqQuery};

fn bench(c: &mut Criterion) {
    let (graph, q) = sgq_dataset();
    let (ds, tq) = stgq_dataset(7);
    let sgq = SgqQuery::new(5, 2, 2).unwrap();
    let stgq = StgqQuery::new(4, 2, 2, 6).unwrap();

    let variants: [(&str, SelectConfig); 3] = [
        ("full", SelectConfig::PAPER_EXAMPLE),
        (
            "no_distance",
            SelectConfig::PAPER_EXAMPLE.with_distance_pruning(false),
        ),
        ("none", SelectConfig::NO_PRUNING),
    ];

    let mut g = c.benchmark_group("ablation");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (name, cfg) in variants {
        g.bench_function(format!("sgselect/{name}"), |b| {
            b.iter(|| solve_sgq(&graph, q, &sgq, &cfg).unwrap())
        });
        g.bench_function(format!("stgselect/{name}"), |b| {
            b.iter(|| solve_stgq(&ds.graph, tq, &ds.calendars, &stgq, &cfg).unwrap())
        });
    }

    // Search-reduction ablation on the headline fig1f m = 4 config: each
    // PR-2 piece disabled in turn against the full engine and the PR-1
    // baseline (everything off).
    let reduction: [(&str, SelectConfig); 5] = [
        ("full", SelectConfig::default()),
        ("no_seed", SelectConfig::default().with_seed_restarts(0)),
        (
            "no_pivot_order",
            SelectConfig::default().with_pivot_promise_order(false),
        ),
        (
            "no_avail_order",
            SelectConfig::default().with_availability_ordering(false),
        ),
        ("pr1_baseline", SelectConfig::NO_SEARCH_REDUCTION),
    ];
    let headline = StgqQuery::new(4, 2, 2, 4).unwrap();
    for (name, cfg) in reduction {
        g.bench_function(format!("stgselect-reduction/{name}"), |b| {
            b.iter(|| solve_stgq(&ds.graph, tq, &ds.calendars, &headline, &cfg).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
