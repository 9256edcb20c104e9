//! Zero-copy candidate view over sharded CSR snapshot segments.
//!
//! [`FeasibleView`] is the hot-path replacement for materializing a
//! [`FeasibleGraph`](crate::FeasibleGraph) per query. Instead of copying
//! every adjacency row out of the snapshot (per-row bitsets, sorted
//! neighbor lists, edge-weight vectors), it builds only the *compact
//! candidate index* — origin/dist/order permutations plus one masked
//! adjacency word matrix — and keeps Arc handles on the snapshot's CSR
//! [`GraphSegment`](crate::GraphSegment)s for anything that needs the raw
//! rows (edge weights, stamping). The word matrix is generated
//! shard-segment-wise: candidates are bucketed by home shard and each
//! segment's CSR rows are scanned once, masking global neighbor ids
//! through a compact-id table straight into packed compact-id words.
//!
//! # Cost model
//!
//! Extraction costs what the query reads, not the world size: the CSR
//! rows the `s` Definition-1 rounds and the word matrix visit, plus
//! `f log f` to number the `f` candidates in id order. The bounded
//! distances come from a sparse kernel (`distance::with_reach`) that runs
//! on a dense per-thread scratch — distances, `in_next` flags and compact
//! ids, sized to the largest world the thread has seen — and resets it by
//! walking the list of vertices it touched, never clearing or scanning the
//! whole world. The dense oracle
//! [`bounded_distances_from`](crate::bounded_distances_from) and
//! `FeasibleGraph::extract_from` keep their own world-sized DP.
//!
//! Masking a neighbor id into compact-id words stays an array lookup in
//! that scratch's compact-id table rather than a probe of the per-view
//! `compact_of` hash map: the word-matrix loop does one lookup per CSR
//! entry of every candidate row, and on the ledger's 194-person
//! `paper194` workload a hash probe there made the SGQ median about a
//! third slower (41 → 55 µs, 2-vCPU VM).
//!
//! The view implements [`CandidateTopology`](crate::CandidateTopology)
//! with bit-for-bit the same candidate set, ordering, and adjacency words
//! as `FeasibleGraph::extract_from` over the same sharded graph — the
//! equivalence the query engines' bit-identity proptests pin down.

use std::collections::HashMap;
use std::sync::Arc;

use crate::id::NodeId;
use crate::segment::{GraphSegment, ShardedGraph};
use crate::topology::CandidateTopology;
use crate::Dist;

/// A borrowed, zero-copy candidate space over a sharded world snapshot.
///
/// Layout mirrors [`FeasibleGraph`](crate::FeasibleGraph)'s index side —
/// compact id `0` is the initiator, candidates follow in ascending
/// original-id order, `candidate_order` sorts by `(distance, id)` — but
/// adjacency lives only as one flat masked word matrix and the snapshot's
/// CSR segments stay where they are, Arc-shared, never copied.
#[derive(Clone, Debug)]
pub struct FeasibleView {
    /// compact index → original vertex id; `origin[0]` is the initiator.
    origin: Vec<NodeId>,
    /// original vertex id → compact index, sized to the candidate set
    /// (not the world).
    compact_of: HashMap<u32, u32>,
    /// social distance `d_{v,q}` per compact vertex.
    dist: Vec<Dist>,
    /// masked adjacency words over compact ids, `adj_stride` per vertex.
    adj_words: Vec<u64>,
    adj_stride: usize,
    /// compact candidate indices (excluding 0) sorted by (distance, origin).
    order: Vec<u32>,
    /// compact index → position in `order` (`u32::MAX` for the initiator).
    order_pos: Vec<u32>,
    /// Arc handles on the snapshot's CSR segments (residue-partitioned);
    /// raw-row reads (edge weights) borrow from these, zero copies.
    segments: Vec<Arc<GraphSegment>>,
    /// the social radius used for the extraction.
    radius: usize,
}

impl FeasibleView {
    /// Build the radius-`s` candidate view of `initiator` over a sharded
    /// snapshot graph.
    ///
    /// Cost follows what the query reads, not the world size: the CSR rows
    /// the `s` Definition-1 rounds and the word matrix visit, plus
    /// `f log f` to number the `f` candidates. The distances and the
    /// compact-id table used for masking live in a dense per-thread
    /// scratch, sized to the largest world the thread has seen and reset
    /// by walking the vertices the call touched.
    pub fn extract(graph: &ShardedGraph, initiator: NodeId, s: usize) -> Self {
        let shards = graph.shard_count();
        let (origin, dist, adj_words) = crate::distance::with_reach(graph, initiator, s, |reach| {
            // Candidate index: initiator first, then ascending original
            // id — identical numbering to the materialized path.
            let f = reach.pairs.len();
            let mut origin = Vec::with_capacity(f);
            let mut dist = Vec::with_capacity(f);
            origin.push(initiator);
            dist.push(0);
            for &(v, d) in reach.pairs {
                if v != initiator.0 {
                    origin.push(NodeId(v));
                    dist.push(d);
                }
            }

            // Masked word matrix, generated shard-segment-wise: bucket the
            // candidates by home shard, then scan each segment's CSR rows
            // once, masking global neighbor ids through the compact table.
            let adj_stride = f.div_ceil(64);
            let mut adj_words = vec![0u64; f * adj_stride];
            let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); shards];
            for (ci, ov) in origin.iter().enumerate() {
                by_shard[ov.index() % shards].push(ci as u32);
            }
            for (shard, members) in by_shard.iter().enumerate() {
                let seg = graph.segment(shard);
                for &ci in members {
                    let local = origin[ci as usize].index() / shards;
                    let (nbs, _weights) = seg.row(local);
                    let row = &mut adj_words[ci as usize * adj_stride..][..adj_stride];
                    for &u in nbs {
                        let cu = reach.compact[u as usize];
                        if cu != u32::MAX {
                            row[cu as usize / 64] |= 1u64 << (cu % 64);
                        }
                    }
                }
            }
            (origin, dist, adj_words)
        });
        let f = origin.len();

        let mut order: Vec<u32> = (1..f as u32).collect();
        order.sort_unstable_by_key(|&i| (dist[i as usize], origin[i as usize].0));
        let mut order_pos = vec![u32::MAX; f];
        for (pos, &c) in order.iter().enumerate() {
            order_pos[c as usize] = pos as u32;
        }

        let compact_of: HashMap<u32, u32> = origin
            .iter()
            .enumerate()
            .map(|(ci, ov)| (ov.0, ci as u32))
            .collect();

        FeasibleView {
            origin,
            compact_of,
            dist,
            adj_words,
            adj_stride: f.div_ceil(64),
            order,
            order_pos,
            segments: (0..shards).map(|s| Arc::clone(graph.segment(s))).collect(),
            radius: s,
        }
    }

    /// Number of vertices in the view (initiator included).
    #[inline]
    pub fn len(&self) -> usize {
        self.origin.len()
    }

    /// Whether the view holds only the initiator.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.origin.len() <= 1
    }

    /// The social radius `s` this view was extracted with.
    #[inline]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Original id of compact vertex `i`.
    #[inline]
    pub fn origin(&self, i: u32) -> NodeId {
        self.origin[i as usize]
    }

    /// Compact index of original vertex `v`, if it lies within the radius.
    #[inline]
    pub fn compact(&self, v: NodeId) -> Option<u32> {
        self.compact_of.get(&v.0).copied()
    }

    /// Social distance `d_{v,q}` of compact vertex `i`.
    #[inline]
    pub fn dist(&self, i: u32) -> Dist {
        self.dist[i as usize]
    }

    /// The packed masked adjacency words of compact vertex `i`.
    #[inline]
    pub fn adj_words(&self, i: u32) -> &[u64] {
        let start = i as usize * self.adj_stride;
        &self.adj_words[start..start + self.adj_stride]
    }

    /// Candidate compact indices sorted by `(distance, original id)`.
    #[inline]
    pub fn candidate_order(&self) -> &[u32] {
        &self.order
    }

    /// Inverse permutation of [`candidate_order`](Self::candidate_order).
    #[inline]
    pub fn order_pos(&self, i: u32) -> u32 {
        self.order_pos[i as usize]
    }

    /// Adjacency words generated for this view — the per-query word
    /// traffic the zero-copy path pays (index build only; CSR rows are
    /// borrowed, never copied).
    #[inline]
    pub fn words_generated(&self) -> u64 {
        self.adj_words.len() as u64
    }

    /// Weight of the edge between compact vertices `i` and `j`, read
    /// straight from the borrowed CSR segment (binary search on the
    /// global-id row).
    ///
    /// # Panics
    /// Panics if the edge does not exist.
    pub fn edge_weight(&self, i: u32, j: u32) -> Dist {
        let gi = self.origin[i as usize];
        let gj = self.origin[j as usize].0;
        let shards = self.segments.len();
        let (nbs, ws) = self.segments[gi.index() % shards].row(gi.index() / shards);
        let pos = nbs
            .binary_search(&gj)
            .expect("edge must exist in the feasible view");
        ws[pos]
    }
}

impl CandidateTopology for FeasibleView {
    #[inline]
    fn len(&self) -> usize {
        FeasibleView::len(self)
    }

    #[inline]
    fn radius(&self) -> usize {
        FeasibleView::radius(self)
    }

    #[inline]
    fn origin(&self, i: u32) -> NodeId {
        FeasibleView::origin(self, i)
    }

    #[inline]
    fn compact(&self, v: NodeId) -> Option<u32> {
        FeasibleView::compact(self, v)
    }

    #[inline]
    fn dist(&self, i: u32) -> Dist {
        FeasibleView::dist(self, i)
    }

    #[inline]
    fn adj_words(&self, i: u32) -> &[u64] {
        FeasibleView::adj_words(self, i)
    }

    #[inline]
    fn candidate_order(&self) -> &[u32] {
        FeasibleView::candidate_order(self)
    }

    #[inline]
    fn order_pos(&self, i: u32) -> u32 {
        FeasibleView::order_pos(self, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeasibleGraph, GraphBuilder, SocialGraph};

    fn sample(n: u32, edges: &[(u32, u32, Dist)]) -> SocialGraph {
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, w) in edges {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        b.build()
    }

    fn assert_view_matches_graph(g: &SocialGraph, shards: usize, initiator: NodeId, s: usize) {
        let sharded = ShardedGraph::from_flat(g, shards);
        let fg = FeasibleGraph::extract_from(&sharded, initiator, s);
        let view = FeasibleView::extract(&sharded, initiator, s);

        assert_eq!(view.len(), fg.len());
        assert_eq!(view.radius(), fg.radius());
        assert_eq!(view.candidate_order(), fg.candidate_order());
        for i in 0..fg.len() as u32 {
            assert_eq!(view.origin(i), fg.origin(i));
            assert_eq!(view.dist(i), fg.dist(i));
            assert_eq!(view.order_pos(i), fg.order_pos(i));
            assert_eq!(view.adj_words(i), fg.adj_words(i), "row {i}");
        }
        for v in 0..g.node_count() as u32 {
            assert_eq!(view.compact(NodeId(v)), fg.compact(NodeId(v)));
        }
    }

    #[test]
    fn view_is_bit_identical_to_the_materialized_graph() {
        let g = sample(
            8,
            &[
                (0, 1, 5),
                (0, 2, 1),
                (1, 2, 1),
                (2, 3, 2),
                (3, 4, 2),
                (4, 6, 1),
                (1, 7, 3),
            ],
        );
        for shards in [1, 2, 3, 4] {
            for s in 0..4 {
                assert_view_matches_graph(&g, shards, NodeId(0), s);
                assert_view_matches_graph(&g, shards, NodeId(3), s);
            }
        }
    }

    #[test]
    fn view_matches_graph_on_a_pseudorandom_world() {
        // Deterministic LCG-built graph: dense enough that shard masking
        // and word boundaries (>64 candidates) are exercised.
        let n: u32 = 90;
        let mut edges = Vec::new();
        let mut state: u64 = 0x5eed_cafe;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..600 {
            let u = next() % n;
            let v = next() % n;
            if u != v {
                edges.push((u.min(v), u.max(v), (next() % 9 + 1) as Dist));
            }
        }
        edges.sort_unstable();
        edges.dedup_by_key(|e| (e.0, e.1));
        let g = sample(n, &edges);
        for shards in [1, 3, 7] {
            assert_view_matches_graph(&g, shards, NodeId(1), 2);
            assert_view_matches_graph(&g, shards, NodeId(42), 1);
        }
    }

    #[test]
    fn edge_weights_read_from_borrowed_segments() {
        let g = sample(6, &[(0, 1, 5), (0, 2, 1), (1, 2, 7), (2, 3, 2)]);
        let sharded = ShardedGraph::from_flat(&g, 3);
        let fg = FeasibleGraph::extract_from(&sharded, NodeId(0), 2);
        let view = FeasibleView::extract(&sharded, NodeId(0), 2);
        for i in 0..fg.len() as u32 {
            for &j in fg.neighbors(i) {
                assert_eq!(view.edge_weight(i, j), fg.edge_weight(i, j));
            }
        }
    }

    #[test]
    fn words_generated_counts_the_masked_matrix() {
        let g = sample(6, &[(0, 1, 5), (0, 2, 1), (1, 2, 7), (2, 3, 2)]);
        let sharded = ShardedGraph::from_flat(&g, 2);
        let view = FeasibleView::extract(&sharded, NodeId(0), 2);
        assert_eq!(
            view.words_generated(),
            (view.len() * view.len().div_ceil(64)) as u64
        );
    }
}
