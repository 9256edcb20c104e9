//! Shard-partitioned adjacency: CSR [`GraphSegment`]s assembled into a
//! [`ShardedGraph`] view.
//!
//! A world of `n` people is partitioned into `S` shards by residue:
//! vertex `v` lives in shard `v % S` at local row `v / S` — the same
//! modulus the execution layer uses to route initiators, so a mutation
//! touching one person dirties exactly the shard that also keys their
//! cached work. Each shard's adjacency is an independent immutable CSR
//! [`GraphSegment`] (neighbor ids stay **global**); a snapshot
//! publication that only touched shard `s` republishes that one segment
//! and `Arc`-reuses the other `S − 1`.
//!
//! The republished segment is a **patch** of the previous epoch's
//! ([`GraphSegment::patch`]), not a rebuild: given the sorted local rows
//! whose adjacency changed, every clean span between two dirty rows is
//! copied with one `extend_from_slice` per array and its offsets shifted,
//! and only the dirty rows (plus rows appended by growth) are re-read
//! from the mutable store. A one-edge write therefore costs two slice
//! copies and two re-emitted rows instead of a walk over every row of
//! the shard. The patch is bit-identical to a from-scratch
//! [`GraphSegment::build`], and patching the empty segment *is* the
//! from-scratch build.
//!
//! The traversal kernels ([`bounded_distances_from`] and
//! [`FeasibleGraph::extract_from`]) are generic over [`AdjacencySource`],
//! so they read a flat [`SocialGraph`] or a [`ShardedGraph`] with the
//! same code — per vertex, one slice pair either way.
//!
//! [`bounded_distances_from`]: crate::bounded_distances_from
//! [`FeasibleGraph::extract_from`]: crate::FeasibleGraph::extract_from

use std::sync::Arc;

use crate::{Dist, NodeId, SocialGraph};

/// Anything the traversal kernels can walk: a vertex count plus, per
/// vertex, parallel `(neighbors, weights)` row slices sorted by neighbor
/// id. Implemented by the flat [`SocialGraph`] and by [`ShardedGraph`].
pub trait AdjacencySource {
    /// Number of vertices (`0..node_count()` are valid ids).
    fn node_count(&self) -> usize;
    /// The sorted neighbor ids and parallel weights of `v`.
    fn row_of(&self, v: NodeId) -> (&[u32], &[Dist]);
}

impl AdjacencySource for SocialGraph {
    #[inline]
    fn node_count(&self) -> usize {
        SocialGraph::node_count(self)
    }

    #[inline]
    fn row_of(&self, v: NodeId) -> (&[u32], &[Dist]) {
        self.row_slices(v)
    }
}

/// One shard's immutable CSR adjacency: the rows of every vertex `v`
/// with `v % S == shard`, in ascending `v`, with **global** neighbor ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSegment {
    /// Row boundaries: `offsets[r]..offsets[r + 1]` indexes row `r`.
    offsets: Vec<u32>,
    /// Global neighbor ids, sorted within each row.
    neighbors: Vec<u32>,
    /// Edge weights parallel to `neighbors`.
    weights: Vec<Dist>,
}

impl GraphSegment {
    /// Build a segment from per-row `(global neighbor, weight)` lists,
    /// one inner iterator per local row, each sorted by neighbor id.
    pub fn build<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = (u32, Dist)>,
    {
        let mut seg = GraphSegment::default();
        for row in rows {
            seg.push_row(row);
        }
        seg
    }

    /// Build the `rows`-row segment from `prev` (the same shard as an
    /// earlier epoch published it) and the strictly ascending local row
    /// indices `dirty` whose adjacency changed since. Each clean span of
    /// `prev` between two dirty rows is copied wholesale with its offsets
    /// shifted; dirty rows and rows past `prev`'s end (growth) are
    /// re-emitted from `row`, which yields one local row's sorted
    /// `(global neighbor, weight)` list.
    ///
    /// The result equals [`build`](Self::build) over every row of the
    /// shard, provided each row absent from `dirty` is unchanged since
    /// `prev`. Patching [`GraphSegment::default()`] (no rows) re-emits
    /// every row: the from-scratch build. Dirty indices at or past
    /// `prev`'s end are ignored (those rows are re-read anyway).
    pub fn patch<R>(
        prev: &GraphSegment,
        rows: usize,
        dirty: &[usize],
        mut row: impl FnMut(usize) -> R,
    ) -> Self
    where
        R: IntoIterator<Item = (u32, Dist)>,
    {
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty rows ascend");
        let keep = prev.rows().min(rows);
        let mut seg = GraphSegment {
            offsets: Vec::with_capacity(rows + 1),
            neighbors: Vec::with_capacity(prev.neighbors.len()),
            weights: Vec::with_capacity(prev.weights.len()),
        };
        seg.offsets.push(0);
        // `next` is the first row not yet emitted; each dirty row ends a
        // clean span `next..d`, and `keep` ends the last one.
        let mut next = 0;
        let ends = dirty.iter().copied().take_while(|&d| d < keep);
        for d in ends.chain(std::iter::once(keep)) {
            let (lo, hi) = (prev.offsets[next], prev.offsets[d]);
            let base = seg.neighbors.len() as u32;
            seg.neighbors
                .extend_from_slice(&prev.neighbors[lo as usize..hi as usize]);
            seg.weights
                .extend_from_slice(&prev.weights[lo as usize..hi as usize]);
            seg.offsets
                .extend(prev.offsets[next + 1..=d].iter().map(|&o| o - lo + base));
            if d < keep {
                seg.push_row(row(d));
            }
            next = d + 1;
        }
        for r in keep..rows {
            seg.push_row(row(r));
        }
        seg
    }

    fn push_row(&mut self, row: impl IntoIterator<Item = (u32, Dist)>) {
        for (nb, w) in row {
            self.neighbors.push(nb);
            self.weights.push(w);
        }
        self.offsets.push(self.neighbors.len() as u32);
    }

    /// Number of local rows (vertices homed in this shard).
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total row entries (each undirected edge appears once per endpoint
    /// row, possibly in different segments).
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }

    /// The sorted `(neighbors, weights)` slices of local row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[Dist]) {
        let (s, e) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        (&self.neighbors[s..e], &self.weights[s..e])
    }
}

impl Default for GraphSegment {
    /// The segment with no rows.
    fn default() -> Self {
        GraphSegment {
            offsets: vec![0],
            neighbors: Vec::new(),
            weights: Vec::new(),
        }
    }
}

/// The assembled cross-shard adjacency view: `S` segment `Arc`s plus the
/// total vertex count. Cloning is `S` refcount bumps — this is how an
/// epoch snapshot exposes one coherent graph without owning (or ever
/// copying) the per-shard storage.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    segments: Vec<Arc<GraphSegment>>,
    node_count: usize,
}

impl ShardedGraph {
    /// Assemble a view from per-shard segments. The vertex count is the
    /// sum of local rows: residue classes partition `0..n`, so the row
    /// counts add back up to `n` exactly.
    ///
    /// # Panics
    /// Panics if `segments` is empty or the per-shard row counts are
    /// inconsistent with a residue partition (shard `s` of `n` vertices
    /// holds `⌈(n − s) / S⌉` rows).
    pub fn new(segments: Vec<Arc<GraphSegment>>) -> Self {
        assert!(!segments.is_empty(), "at least one shard required");
        let shards = segments.len();
        let node_count: usize = segments.iter().map(|seg| seg.rows()).sum();
        for (s, seg) in segments.iter().enumerate() {
            let expect = node_count.saturating_sub(s).div_ceil(shards);
            assert_eq!(
                seg.rows(),
                expect,
                "shard {s} of {shards} over {node_count} vertices must hold {expect} rows"
            );
        }
        ShardedGraph {
            segments,
            node_count,
        }
    }

    /// Partition a flat graph into `shards` segments (used by tests and
    /// the full-sync/compat publication path).
    pub fn from_flat(graph: &SocialGraph, shards: usize) -> Self {
        let shards = shards.max(1);
        let n = graph.node_count();
        let segments = (0..shards)
            .map(|s| {
                Arc::new(GraphSegment::build((s..n).step_by(shards).map(|v| {
                    let (nbs, ws) = graph.row_slices(NodeId(v as u32));
                    nbs.iter().copied().zip(ws.iter().copied())
                })))
            })
            .collect();
        ShardedGraph::new(segments)
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.segments.len()
    }

    /// The shard homing vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        v.index() % self.segments.len()
    }

    /// One shard's segment.
    #[inline]
    pub fn segment(&self, shard: usize) -> &Arc<GraphSegment> {
        &self.segments[shard]
    }
}

impl AdjacencySource for ShardedGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn row_of(&self, v: NodeId) -> (&[u32], &[Dist]) {
        let shards = self.segments.len();
        self.segments[v.index() % shards].row(v.index() / shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounded_distances, bounded_distances_from, FeasibleGraph, GraphBuilder};

    /// Tiny deterministic generator (splitmix64) — the graph crate has no
    /// rand dev-dependency and doesn't need one for shape tests.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_graph(seed: u64, n: usize, edge_pct: u64) -> SocialGraph {
        let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xE703_7ED1_A0B4_28DB;
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if mix(&mut state) % 100 < edge_pct {
                    let w = 1 + mix(&mut state) % 39;
                    b.add_edge(NodeId(u as u32), NodeId(v as u32), w).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn sharded_rows_match_the_flat_graph() {
        for shards in [1, 2, 3, 7, 16, 64] {
            let g = random_graph(9 + shards as u64, 37, 20);
            let sg = ShardedGraph::from_flat(&g, shards);
            assert_eq!(sg.node_count(), g.node_count());
            assert_eq!(sg.shard_count(), shards);
            for v in 0..g.node_count() as u32 {
                assert_eq!(sg.row_of(NodeId(v)), g.row_of(NodeId(v)), "vertex {v}");
            }
        }
    }

    #[test]
    fn traversals_agree_between_flat_and_sharded() {
        for seed in 0..10u64 {
            let g = random_graph(seed, 24, 25);
            let sg = ShardedGraph::from_flat(&g, 5);
            for s in 1..4usize {
                for q in [0u32, 7, 23] {
                    let flat = bounded_distances(&g, NodeId(q), s);
                    let sharded = bounded_distances_from(&sg, NodeId(q), s);
                    assert_eq!(flat, sharded, "seed {seed} s {s} q {q}");
                    let fg_flat = FeasibleGraph::extract(&g, NodeId(q), s);
                    let fg_sharded = FeasibleGraph::extract_from(&sg, NodeId(q), s);
                    assert_eq!(fg_flat.len(), fg_sharded.len());
                    for c in 0..fg_flat.len() as u32 {
                        assert_eq!(fg_flat.origin(c), fg_sharded.origin(c));
                        assert_eq!(fg_flat.dist(c), fg_sharded.dist(c));
                        assert_eq!(fg_flat.neighbors(c), fg_sharded.neighbors(c));
                        for &nb in fg_flat.neighbors(c) {
                            assert_eq!(fg_flat.edge_weight(c, nb), fg_sharded.edge_weight(c, nb));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_patch_equals_the_segment_built_from_scratch() {
        let rows_of = |g: &SocialGraph, shards: usize, s: usize| {
            let n = g.node_count();
            let rows: Vec<Vec<(u32, Dist)>> = (s..n)
                .step_by(shards)
                .map(|v| {
                    let (nbs, ws) = g.row_slices(NodeId(v as u32));
                    nbs.iter().copied().zip(ws.iter().copied()).collect()
                })
                .collect();
            rows
        };
        for seed in 0..6u64 {
            let (old, new) = (random_graph(seed, 40, 15), random_graph(seed + 99, 46, 15));
            for shards in [1usize, 3, 8] {
                for s in 0..shards {
                    let (was, now) = (rows_of(&old, shards, s), rows_of(&new, shards, s));
                    let prev = GraphSegment::build(was.iter().map(|r| r.iter().copied()));
                    let scratch = GraphSegment::build(now.iter().map(|r| r.iter().copied()));
                    let dirty: Vec<usize> = (0..was.len()).filter(|&r| was[r] != now[r]).collect();
                    let patched =
                        GraphSegment::patch(&prev, now.len(), &dirty, |r| now[r].iter().copied());
                    assert_eq!(patched, scratch, "seed {seed} shard {s}/{shards}");
                    let empty = GraphSegment::default();
                    let full =
                        GraphSegment::patch(&empty, now.len(), &[], |r| now[r].iter().copied());
                    assert_eq!(
                        full, scratch,
                        "patching the empty segment is the full build"
                    );
                }
            }
        }
    }

    #[test]
    fn uneven_tail_shards_carry_the_right_rows() {
        // 10 vertices over 4 shards: shards 0/1 hold 3 rows, 2/3 hold 2.
        let g = random_graph(3, 10, 40);
        let sg = ShardedGraph::from_flat(&g, 4);
        assert_eq!(sg.segment(0).rows(), 3);
        assert_eq!(sg.segment(1).rows(), 3);
        assert_eq!(sg.segment(2).rows(), 2);
        assert_eq!(sg.segment(3).rows(), 2);
        assert_eq!(sg.shard_of(NodeId(9)), 1);
        assert_eq!(sg.row_of(NodeId(9)), g.row_of(NodeId(9)));
    }
}
