//! In-edge Compressed Sparse Row representation (paper Section 2).
//!
//! The paper's CSR stores, for every vertex, the list of its *incoming*
//! edges: `InEdgeIdxs` delimits per-vertex sub-arrays of `SrcIndxs` (source
//! endpoints) and `EdgeValues`. We additionally keep the dense [`EdgeId`] of
//! every CSR slot so that algorithms can derive their typed edge value from
//! the raw weight seed of the original edge list.

use crate::par::{split_work, workers_for, Buckets};
use crate::types::{Edge, EdgeId, Graph, VertexId};

/// Vertices per level-1 bucket of a CSR build on more than one worker, as a
/// power of two: each block's level 2 is one counting sort by the vertex's
/// low bits.
const BLOCK_BITS: u32 = 11;

/// `g`'s edges grouped by the endpoint `by` picks, each vertex's in
/// edge-list order: the `|V| + 1` offsets and the `C` columns `cols` makes of
/// each edge and its id. Both CSRs are this sort, in-edges by destination and
/// out-edges by source. On one worker it is one stable counting sort; with
/// spare cores ([`crate::par`]), level 1 splits the edges by blocks of
/// `2^BLOCK_BITS` vertices and level 2 counting-sorts each block.
pub fn adjacency<const C: usize>(
    g: &Graph,
    by: impl Fn(&Edge) -> u32 + Send + Sync + Copy,
    cols: impl Fn(&Edge, u32) -> [u32; C] + Send + Sync + Copy,
) -> (Vec<u32>, [Vec<u32>; C]) {
    let (n, m, edges) = (g.num_vertices() as usize, g.num_edges() as usize, g.edges());
    let mut offsets = vec![0u32; n + 1];
    let columns = || std::array::from_fn(|_| vec![0u32; m]);
    let out = match workers_for(m) {
        (_lease, w) if w > 1 && m > 0 => {
            let mut out: [Vec<u32>; C] = columns();
            let (block, low) = (1 << BLOCK_BITS, (1 << BLOCK_BITS) - 1);
            let blocks = Buckets::split(edges, w, n.div_ceil(block), (0, [0; C]), move |e, id| {
                let v = by(e);
                ((v >> BLOCK_BITS) as usize, (v & low, cols(e, id)))
            });
            let columns = out.each_mut().map(|c| &mut c[..]);
            let scratch = |_| vec![0u32; block];
            let sizes = blocks.sizes();
            split_work(
                &sizes,
                w,
                columns,
                &mut offsets[..n],
                block,
                scratch,
                |b, at, mut cols, row, counts| {
                    counts.fill(0);
                    blocks.bucket(b).for_each(|(v, _)| counts[v as usize] += 1);
                    let mut next = 0;
                    for (slot, count) in row.iter_mut().zip(counts.iter_mut()) {
                        (*slot, *count, next) = (at + next, next, next + *count);
                    }
                    for (v, values) in blocks.bucket(b) {
                        let slot = &mut counts[v as usize];
                        let at = *slot as usize;
                        *slot += 1;
                        cols.iter_mut().zip(values).for_each(|(col, x)| col[at] = x);
                    }
                },
            );
            offsets[n] = m as u32;
            out
        }
        _ => {
            edges.iter().for_each(|e| offsets[by(e) as usize + 1] += 1);
            (1..=n).for_each(|v| offsets[v] += offsets[v - 1]);
            let (mut cursor, mut out) = (offsets[..n].to_vec(), columns());
            for (id, e) in edges.iter().enumerate() {
                let slot = &mut cursor[by(e) as usize];
                let at = *slot as usize;
                *slot += 1;
                for (col, x) in out.iter_mut().zip(cols(e, id as u32)) {
                    col[at] = x;
                }
            }
            out
        }
    };
    (offsets, out)
}

/// In-edge CSR: for vertex `v`, its incoming edges occupy CSR slots
/// `in_edge_idxs[v] .. in_edge_idxs[v + 1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    /// `n + 1` offsets into `src_indxs` / `edge_ids`; `in_edge_idxs[n] == m`.
    in_edge_idxs: Vec<u32>,
    /// For each CSR slot, the source vertex of the edge (`SrcIndxs`).
    src_indxs: Vec<VertexId>,
    /// For each CSR slot, the raw weight seed of the edge (`EdgeValues`).
    weights: Vec<u32>,
    /// For each CSR slot, the id of the edge in the original edge list.
    edge_ids: Vec<EdgeId>,
    num_vertices: u32,
}

impl Csr {
    /// Builds the in-edge CSR from an edge list with a counting sort
    /// (O(|V| + |E|), [`adjacency`]). Incoming edges of a vertex keep the
    /// relative order they had in the edge list (the sort is stable).
    pub fn from_graph(g: &Graph) -> Self {
        let cols = |e: &Edge, id| [e.src, e.weight, id];
        let (in_edge_idxs, [src_indxs, weights, edge_ids]) = adjacency(g, |e| e.dst, cols);
        Csr {
            in_edge_idxs,
            src_indxs,
            weights,
            edge_ids,
            num_vertices: g.num_vertices(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> u32 {
        self.src_indxs.len() as u32
    }

    /// The `InEdgeIdxs` offsets array (`n + 1` entries).
    #[inline]
    pub fn in_edge_idxs(&self) -> &[u32] {
        &self.in_edge_idxs
    }

    /// The `SrcIndxs` array (`m` entries).
    #[inline]
    pub fn src_indxs(&self) -> &[VertexId] {
        &self.src_indxs
    }

    /// Per-slot raw weight seeds (`EdgeValues` in the paper).
    #[inline]
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Per-slot original edge ids.
    #[inline]
    pub fn edge_ids(&self) -> &[EdgeId] {
        &self.edge_ids
    }

    /// CSR slot range of vertex `v`'s incoming edges.
    #[inline]
    pub fn in_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.in_edge_idxs[v as usize] as usize..self.in_edge_idxs[v as usize + 1] as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_edge_idxs[v as usize + 1] - self.in_edge_idxs[v as usize]
    }

    /// Iterates over `(source, weight)` for every incoming edge of `v`.
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let r = self.in_range(v);
        self.src_indxs[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::{rmat, RmatConfig};
    use crate::par::with_workers;

    /// The counting sort [`Csr::from_graph`] replaced, kept as its reference:
    /// per-destination counts, then every edge scattered to its cursor.
    fn reference_build(g: &Graph) -> Csr {
        let n = g.num_vertices() as usize;
        let mut in_edge_idxs = vec![0u32; n + 1];
        for e in g.edges() {
            in_edge_idxs[e.dst as usize + 1] += 1;
        }
        for i in 0..n {
            in_edge_idxs[i + 1] += in_edge_idxs[i];
        }
        let m = g.num_edges() as usize;
        let (mut src_indxs, mut weights, mut edge_ids) = (vec![0; m], vec![0; m], vec![0; m]);
        let mut cursor = in_edge_idxs.clone();
        for (id, e) in g.edges().iter().enumerate() {
            let slot = cursor[e.dst as usize] as usize;
            cursor[e.dst as usize] += 1;
            (src_indxs[slot], weights[slot], edge_ids[slot]) = (e.src, e.weight, id as u32);
        }
        let num_vertices = g.num_vertices();
        Csr {
            in_edge_idxs,
            src_indxs,
            weights,
            edge_ids,
            num_vertices,
        }
    }

    /// Graphs for the worker-count check: no vertices, no edges, loops and
    /// duplicates, a sink holding every edge, and R-MATs over one, two and
    /// three (the last one ragged) blocks of `2^BLOCK_BITS` vertices.
    fn shapes() -> Vec<Graph> {
        let sink = (0..3000).map(|v| Edge::new(v, 2047, v)).collect();
        let loops = vec![Edge::new(2, 2, 1), Edge::new(0, 1, 2), Edge::new(0, 1, 3)];
        let mut ragged = rmat(&RmatConfig::graph500(12, 9000, 5)).edges().to_vec();
        ragged.extend((0..40).map(|v| Edge::new(5000 - v, v * 100, 1)));
        vec![
            Graph::empty(0),
            Graph::empty(3000),
            Graph::new(4, loops),
            Graph::new(3000, sink),
            rmat(&RmatConfig::graph500(9, 4000, 77)),
            rmat(&RmatConfig::graph500(12, 20000, 3)),
            Graph::new(5001, ragged),
        ]
    }

    #[test]
    fn any_worker_count_equals_the_reference_build() {
        for g in shapes() {
            let want = reference_build(&g);
            for workers in 1..=4 {
                let got = with_workers(workers, || Csr::from_graph(&g));
                assert_eq!(got, want, "|V|={} workers={workers}", g.num_vertices());
            }
        }
    }

    /// The example graph of paper Figure 2(a): 8 vertices, edges as drawn.
    /// We only need *a* fixed small graph; this one exercises shared
    /// destinations and empty in-lists.
    fn fig2_like() -> Graph {
        Graph::new(
            8,
            vec![
                Edge::new(1, 2, 10),
                Edge::new(7, 2, 11),
                Edge::new(0, 1, 12),
                Edge::new(3, 0, 13),
                Edge::new(5, 4, 14),
                Edge::new(6, 4, 15),
                Edge::new(2, 7, 16),
                Edge::new(4, 7, 17),
                Edge::new(0, 5, 18),
            ],
        )
    }

    #[test]
    fn offsets_are_monotone_and_complete() {
        let g = fig2_like();
        let c = Csr::from_graph(&g);
        assert_eq!(c.in_edge_idxs().len(), 9);
        assert_eq!(*c.in_edge_idxs().last().unwrap(), g.num_edges());
        assert!(c.in_edge_idxs().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn neighborhoods_match_edge_list() {
        let g = fig2_like();
        let c = Csr::from_graph(&g);
        let nbrs: Vec<_> = c.in_neighbors(2).collect();
        assert_eq!(nbrs, vec![(1, 10), (7, 11)]);
        let nbrs7: Vec<_> = c.in_neighbors(7).collect();
        assert_eq!(nbrs7, vec![(2, 16), (4, 17)]);
        assert_eq!(c.in_degree(3), 0);
        assert_eq!(c.in_neighbors(3).count(), 0);
    }

    #[test]
    fn edge_ids_round_trip_to_original_edges() {
        let g = fig2_like();
        let c = Csr::from_graph(&g);
        for v in 0..g.num_vertices() {
            for slot in c.in_range(v) {
                let e = g.edge(c.edge_ids()[slot]);
                assert_eq!(e.dst, v);
                assert_eq!(e.src, c.src_indxs()[slot]);
                assert_eq!(e.weight, c.weights()[slot]);
            }
        }
    }

    #[test]
    fn in_degrees_sum_to_edge_count() {
        let g = fig2_like();
        let c = Csr::from_graph(&g);
        let sum: u32 = (0..g.num_vertices()).map(|v| c.in_degree(v)).sum();
        assert_eq!(sum, g.num_edges());
    }

    #[test]
    fn empty_graph_csr() {
        let c = Csr::from_graph(&Graph::empty(3));
        assert_eq!(c.in_edge_idxs(), &[0, 0, 0, 0]);
        assert_eq!(c.num_edges(), 0);
    }

    #[test]
    fn stability_preserves_edge_list_order() {
        let g = Graph::new(
            2,
            vec![Edge::new(0, 1, 1), Edge::new(0, 1, 2), Edge::new(0, 1, 3)],
        );
        let c = Csr::from_graph(&g);
        assert_eq!(c.weights(), &[1, 2, 3]);
        assert_eq!(c.edge_ids(), &[0, 1, 2]);
    }
}
