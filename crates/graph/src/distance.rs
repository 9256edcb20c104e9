use std::cell::Cell;

use crate::{AdjacencySource, Dist, NodeId, SocialGraph};

/// Compute the *s-edge minimum distances* from `source` (Definition 1).
///
/// `d^i_{v,q} = min_{u ∈ N_v} { d^{i-1}_{v,q}, d^{i-1}_{u,q} + c_{u,v} }`
/// with `d^0_{q,q} = 0` and `d^0_{v,q} = ∞` otherwise. This is `s` rounds of
/// Bellman–Ford relaxation; the result for vertex `v` is the total distance
/// of the minimum-distance path from `q` to `v` that uses **at most `s`
/// edges**, or `None` if no such path exists.
///
/// The distinction matters (§3.2.1): the globally shortest path may use more
/// than `s` edges, and the minimum-*edge* path may not have minimum
/// distance, so neither plain Dijkstra nor plain BFS is correct here.
pub fn bounded_distances(graph: &SocialGraph, source: NodeId, s: usize) -> Vec<Option<Dist>> {
    bounded_distances_from(graph, source, s)
}

/// As [`bounded_distances`], over any [`AdjacencySource`] — the sharded
/// snapshot path runs Definition 1 directly on per-shard CSR segments.
///
/// This is the dense oracle form: it allocates and returns one entry per
/// vertex of the world. The serving path's
/// [`FeasibleView`](crate::FeasibleView) runs the same recurrence through
/// a sparse kernel whose cost follows the reach instead.
pub fn bounded_distances_from<A: AdjacencySource + ?Sized>(
    graph: &A,
    source: NodeId,
    s: usize,
) -> Vec<Option<Dist>> {
    let n = graph.node_count();
    let mut out = vec![None; n];
    out[source.index()] = Some(0);

    // `frontier` holds vertices whose distance improved in the last round
    // together with that round's value; only their neighbors can improve
    // in this round. Relaxation MUST read the round-start snapshot, not
    // `out` (which this round may already have improved): otherwise a
    // single round could chain two relaxations and admit a path with more
    // than `s` edges — exactly the subtlety Definition 1 exists for.
    let mut frontier: Vec<(u32, Dist)> = vec![(source.0, 0)];
    let mut next: Vec<u32> = Vec::new();
    let mut in_next = vec![false; n];

    for _ in 0..s {
        if frontier.is_empty() {
            break;
        }
        for &(u, du) in &frontier {
            let (nbs, ws) = graph.row_of(NodeId(u));
            for (&v, &w) in nbs.iter().zip(ws) {
                let cand = du + w;
                if out[v as usize].is_none_or(|cur| cand < cur) {
                    out[v as usize] = Some(cand);
                    if !in_next[v as usize] {
                        in_next[v as usize] = true;
                        next.push(v);
                    }
                }
            }
        }
        frontier.clear();
        for &v in &next {
            in_next[v as usize] = false;
            frontier.push((v, out[v as usize].expect("just improved")));
        }
        next.clear();
    }
    out
}

/// What [`with_reach`] lends its callback: the vertices within `s` edges
/// of the source and their compact numbering, both borrowed from the
/// calling thread's scratch.
pub(crate) struct Reach<'a> {
    /// `(id, d_{v,q})` for every reachable vertex, source included, in
    /// ascending id order.
    pub pairs: &'a [(u32, Dist)],
    /// World id → compact id: `0` for the source, then `1..` in ascending
    /// id order; `u32::MAX` for every vertex outside the reach. At least
    /// `node_count()` long (sized to the largest world this thread has
    /// seen), so any neighbor id indexes it directly.
    pub compact: &'a [u32],
}

/// Dense per-thread scratch of the sparse kernel. Between calls every
/// `dist` entry is `None`, every `in_next` flag is clear and every
/// `compact` entry is `u32::MAX`; a call restores that by walking
/// `touched`, never the whole world.
#[derive(Default)]
struct ReachScratch {
    dist: Vec<Option<Dist>>,
    in_next: Vec<bool>,
    compact: Vec<u32>,
    /// Every vertex whose `dist` this call set, in discovery order (sorted
    /// by id before the callback runs).
    touched: Vec<u32>,
    frontier: Vec<(u32, Dist)>,
    next: Vec<u32>,
    pairs: Vec<(u32, Dist)>,
}

thread_local! {
    static REACH_SCRATCH: Cell<Option<ReachScratch>> = const { Cell::new(None) };
}

/// Definition 1 over the reach only: the same recurrence and round-start
/// snapshot rule as [`bounded_distances_from`], run on this thread's dense
/// scratch, then `f` is called with the reachable vertices.
///
/// Cost is the CSR rows the `s` rounds read plus `f log f` to sort the `f`
/// reached ids; the world size enters only when the scratch first grows
/// to it. The scratch is taken out of its thread-local cell for the
/// duration of the call and put back on return, so a panic in a row read
/// or in `f` drops it instead of leaving stale distances for the next
/// call on this thread.
pub(crate) fn with_reach<A: AdjacencySource + ?Sized, R>(
    graph: &A,
    source: NodeId,
    s: usize,
    f: impl FnOnce(Reach<'_>) -> R,
) -> R {
    let mut scratch = REACH_SCRATCH.with(Cell::take).unwrap_or_default();
    let result = scratch.run(graph, source, s, f);
    REACH_SCRATCH.with(|cell| cell.set(Some(scratch)));
    result
}

impl ReachScratch {
    fn run<A: AdjacencySource + ?Sized, R>(
        &mut self,
        graph: &A,
        source: NodeId,
        s: usize,
        f: impl FnOnce(Reach<'_>) -> R,
    ) -> R {
        let n = graph.node_count();
        if self.dist.len() < n {
            self.dist.resize(n, None);
            self.in_next.resize(n, false);
            self.compact.resize(n, u32::MAX);
        }
        let ReachScratch {
            dist,
            in_next,
            compact,
            touched,
            frontier,
            next,
            pairs,
        } = self;

        dist[source.index()] = Some(0);
        touched.push(source.0);
        frontier.push((source.0, 0));
        for _ in 0..s {
            if frontier.is_empty() {
                break;
            }
            for &(u, du) in frontier.iter() {
                let (nbs, ws) = graph.row_of(NodeId(u));
                for (&v, &w) in nbs.iter().zip(ws) {
                    let cand = du + w;
                    let slot = &mut dist[v as usize];
                    match *slot {
                        Some(cur) if cand >= cur => continue,
                        Some(_) => {}
                        None => touched.push(v),
                    }
                    *slot = Some(cand);
                    if !in_next[v as usize] {
                        in_next[v as usize] = true;
                        next.push(v);
                    }
                }
            }
            frontier.clear();
            for &v in next.iter() {
                in_next[v as usize] = false;
                frontier.push((v, dist[v as usize].expect("just improved")));
            }
            next.clear();
        }
        frontier.clear();

        touched.sort_unstable();
        pairs.clear();
        compact[source.index()] = 0;
        let mut next_compact = 1;
        for &v in touched.iter() {
            pairs.push((v, dist[v as usize].expect("touched vertices are reached")));
            if v != source.0 {
                compact[v as usize] = next_compact;
                next_compact += 1;
            }
        }

        let result = f(Reach { pairs, compact });

        for &v in touched.iter() {
            dist[v as usize] = None;
            compact[v as usize] = u32::MAX;
        }
        touched.clear();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, ShardedGraph};
    use proptest::prelude::*;

    /// Line graph 0-1-2-3 with weights 1 each; plus a heavy shortcut 0-3 (10).
    fn line_with_shortcut() -> SocialGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(3), 10).unwrap();
        b.build()
    }

    #[test]
    fn zero_rounds_reach_only_source() {
        let g = line_with_shortcut();
        let d = bounded_distances(&g, NodeId(0), 0);
        assert_eq!(d, vec![Some(0), None, None, None]);
    }

    #[test]
    fn edge_budget_limits_path_choice() {
        let g = line_with_shortcut();
        // With one edge, v3 only reachable via the heavy shortcut.
        let d1 = bounded_distances(&g, NodeId(0), 1);
        assert_eq!(d1[3], Some(10));
        // With three edges the light path 0-1-2-3 wins.
        let d3 = bounded_distances(&g, NodeId(0), 3);
        assert_eq!(d3[3], Some(3));
        // Two edges: neither the 3-edge light path nor anything better than
        // the shortcut exists.
        let d2 = bounded_distances(&g, NodeId(0), 2);
        assert_eq!(d2[3], Some(10));
    }

    #[test]
    fn same_round_chaining_is_rejected() {
        // Regression for a bug proptest found: 0-1-2-3 (unit weights) plus
        // the heavy 2-hop pair 1-3 (4) and tail 3-4 (1). With s = 3 the
        // only ≤3-edge route to v4 is 0-1-3-4 = 6; a buggy in-place
        // relaxation chains 0-1-2-3-4 = 4 within three rounds.
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 4).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 1).unwrap();
        let g = b.build();
        let d3 = bounded_distances(&g, NodeId(0), 3);
        assert_eq!(d3[4], Some(6));
        let d4 = bounded_distances(&g, NodeId(0), 4);
        assert_eq!(d4[4], Some(4));
    }

    #[test]
    fn unreachable_stays_none() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 5).unwrap();
        let g = b.build();
        let d = bounded_distances(&g, NodeId(0), 10);
        assert_eq!(d[2], None);
    }

    #[test]
    fn extra_rounds_never_hurt() {
        let g = line_with_shortcut();
        let d3 = bounded_distances(&g, NodeId(0), 3);
        let d9 = bounded_distances(&g, NodeId(0), 9);
        assert_eq!(d3, d9);
    }

    /// Brute-force reference: minimum distance over all simple-ish walks with
    /// at most `s` edges (walks suffice: repeating vertices never helps with
    /// positive weights, but we enumerate walks for simplicity on tiny graphs).
    fn brute_force(g: &SocialGraph, q: NodeId, s: usize) -> Vec<Option<Dist>> {
        let n = g.node_count();
        // dp[i][v] = min distance using exactly <= i edges
        let mut dp = vec![vec![None; n]; s + 1];
        dp[0][q.index()] = Some(0);
        for i in 1..=s {
            for v in 0..n {
                dp[i][v] = dp[i - 1][v];
                for (u, w) in g.neighbors_weighted(NodeId(v as u32)) {
                    if let Some(du) = dp[i - 1][u.index()] {
                        let cand = du + w;
                        if dp[i][v].is_none_or(|cur| cand < cur) {
                            dp[i][v] = Some(cand);
                        }
                    }
                }
            }
        }
        dp[s].clone()
    }

    fn arb_graph() -> impl Strategy<Value = SocialGraph> {
        arb_graph_with(2..9, |n| n * (n - 1) / 2)
    }

    /// Random graph on a node count drawn from `nodes`, with up to
    /// `max_edges(n)` edge draws (duplicates and self-loops skipped).
    fn arb_graph_with(
        nodes: std::ops::Range<usize>,
        max_edges: fn(usize) -> usize,
    ) -> impl Strategy<Value = SocialGraph> {
        nodes.prop_flat_map(move |n| {
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..20), 0..=max_edges(n))
                .prop_map(move |edges| {
                    let mut b = GraphBuilder::new(n);
                    for (u, v, w) in edges {
                        if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
                            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
                        }
                    }
                    b.build()
                })
        })
    }

    /// One sparse-kernel call as `(id, d, compact id)` triples. Panics if
    /// the compact table numbers any vertex outside the reach.
    fn sparse_reach<A: AdjacencySource + ?Sized>(
        adj: &A,
        source: NodeId,
        s: usize,
    ) -> Vec<(u32, Dist, u32)> {
        with_reach(adj, source, s, |reach| {
            let numbered = reach.compact.iter().filter(|&&c| c != u32::MAX).count();
            assert_eq!(numbered, reach.pairs.len(), "stale compact ids");
            reach
                .pairs
                .iter()
                .map(|&(v, d)| (v, d, reach.compact[v as usize]))
                .collect()
        })
    }

    /// Asserts the sparse kernel equals the dense DP filtered to `Some`, in
    /// id order, numbered source 0 and the rest `1..` by id — anything
    /// else is scratch a previous call failed to reset.
    fn assert_sparse_matches_dense(g: &SocialGraph, shards: usize, source: NodeId, s: usize) {
        let mut want: Vec<(u32, Dist, u32)> = bounded_distances(g, source, s)
            .into_iter()
            .enumerate()
            .filter_map(|(v, d)| Some((v as u32, d?)))
            .filter(|&(v, _)| v != source.0)
            .zip(1..)
            .map(|((v, d), c)| (v, d, c))
            .collect();
        want.push((source.0, 0, 0));
        want.sort_unstable();
        let sharded = ShardedGraph::from_flat(g, shards);
        let got = sparse_reach(&sharded, source, s);
        assert_eq!(got, want, "shards {shards} source {source:?} s {s}");
    }

    /// A flat graph whose row read panics on one vertex — a traversal
    /// that dies midway through the kernel.
    struct PanicsOnRow {
        graph: SocialGraph,
        bad: u32,
    }

    impl AdjacencySource for PanicsOnRow {
        fn node_count(&self) -> usize {
            self.graph.node_count()
        }

        fn row_of(&self, v: NodeId) -> (&[u32], &[Dist]) {
            assert_ne!(v.0, self.bad, "injected row failure");
            self.graph.row_of(v)
        }
    }

    #[test]
    fn a_panicking_traversal_leaves_no_stale_scratch() {
        // Path 0-1-2-3-4-5: from 0 the kernel reaches 1 and 2, then dies
        // reading row 2 in round three.
        let mut b = GraphBuilder::new(6);
        for v in 0..5 {
            b.add_edge(NodeId(v), NodeId(v + 1), 1).unwrap();
        }
        let g = b.build();
        let faulty = PanicsOnRow {
            graph: g.clone(),
            bad: 2,
        };
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sparse_reach(&faulty, NodeId(0), 3)
        }));
        assert!(died.is_err());
        // Same thread, next query: only the dense oracle's answer may come
        // back, with no trace of vertices 0..=2 from the dead call.
        assert_sparse_matches_dense(&g, 1, NodeId(5), 1);
        assert_sparse_matches_dense(&g, 3, NodeId(4), 2);
    }

    proptest! {
        /// The sparse kernel equals the dense DP, call after call on one
        /// thread: large world → small → large → same world, another
        /// initiator, so scratch a call failed to reset shows up.
        #[test]
        fn sparse_kernel_matches_dense_dp_across_worlds(
            large in arb_graph_with(20..48, |n| 3 * n),
            small in arb_graph_with(2..9, |n| n * (n - 1) / 2),
            shard_pick in 0usize..3,
            s in 0usize..=4,
            seeds in (0u32..1000, 0u32..1000, 0u32..1000),
        ) {
            let shards = [1, 3, 16][shard_pick];
            let at = |g: &SocialGraph, seed: u32| NodeId(seed % g.node_count() as u32);
            assert_sparse_matches_dense(&large, shards, at(&large, seeds.0), s);
            assert_sparse_matches_dense(&small, shards, at(&small, seeds.1), s);
            assert_sparse_matches_dense(&large, shards, at(&large, seeds.0), s);
            assert_sparse_matches_dense(&large, shards, at(&large, seeds.2), s);
        }

        /// The frontier-based DP agrees with the textbook full-relaxation DP.
        #[test]
        fn matches_reference_dp(g in arb_graph(), s in 0usize..6) {
            let got = bounded_distances(&g, NodeId(0), s);
            let want = brute_force(&g, NodeId(0), s);
            prop_assert_eq!(got, want);
        }

        /// Monotonicity: allowing more edges never increases any distance.
        #[test]
        fn monotone_in_edge_budget(g in arb_graph(), s in 0usize..5) {
            let d_s = bounded_distances(&g, NodeId(0), s);
            let d_s1 = bounded_distances(&g, NodeId(0), s + 1);
            for (a, b) in d_s.iter().zip(&d_s1) {
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert!(y <= x),
                    (Some(_), None) => prop_assert!(false, "reachability lost"),
                    _ => {}
                }
            }
        }
    }
}
