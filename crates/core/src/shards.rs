//! The G-Shards representation (paper Section 3.1).
//!
//! A graph is stored as `p = ceil(|V| / N)` **shards**. Shard `s` owns the
//! destination-vertex range `[s*N, (s+1)*N)` and holds *every* edge whose
//! destination falls in that range (*Partitioned*), listed in increasing
//! order of source index (*Ordered*). Each edge is the 4-tuple
//! `(SrcIndex, SrcValue, EdgeValue, DestIndex)`; this module stores the
//! topology columns (`SrcIndex`, `DestIndex`, plus the original edge id that
//! stands in for `EdgeValue`), while the mutable `SrcValue` column lives in
//! device memory inside the engine.
//!
//! The *Ordered* property makes every **computation window** `W_ij` — the
//! entries of shard `j` whose source lies in shard `i`'s vertex range — a
//! contiguous span; [`GShards::window`] exposes the precomputed span matrix.

use cusha_graph::par::shard_order;
use cusha_graph::{Graph, VertexId};
use std::sync::Arc;

/// Destination-partitioned, source-ordered shard decomposition of a graph.
///
/// Entries sit in (owning shard, src, dst, edge id) order. Dst and id only
/// break ties, but an entry's position picks the lane that loads it, so this
/// full order sets the kernel's coalescing and every modeled counter.
#[derive(Clone, Debug)]
pub struct GShards {
    num_vertices: u32,
    vertices_per_shard: u32,
    num_shards: u32,
    /// `p + 1` offsets delimiting shards within the edge arrays.
    shard_starts: Vec<u32>,
    /// Source vertex of each entry (shard-major, in the order above).
    src_index: Arc<[VertexId]>,
    /// Destination vertex of each entry.
    dest_index: Arc<[VertexId]>,
    /// Original edge id of each entry (carries the weight seed).
    edge_id: Arc<[u32]>,
    /// `p * p` matrix, row-major by *owning shard j*: entry `(j, i)` is the
    /// absolute start of window `W_ij` inside shard `j`.
    window_offsets: Arc<[u32]>,
}

/// A zeroed `len`-word column in one allocation, to fill in place
/// ([`Arc::get_mut`]) before anything shares it: the device shares the
/// layout's columns rather than copying them.
pub(crate) fn column(len: usize) -> Arc<[u32]> {
    (0..len).map(|_| 0).collect()
}

impl GShards {
    /// Builds the shard decomposition with `vertices_per_shard = n_per` (the
    /// paper's `|N|`).
    ///
    /// The edges in (owning shard, src, dst, id) order, and where each
    /// window opens: [`cusha_graph::par::shard_order`], three counting
    /// passes on one worker and a two-level bucket sort on more.
    ///
    /// # Panics
    /// Panics if `n_per == 0`.
    pub fn from_graph(g: &Graph, n_per: u32) -> Self {
        assert!(n_per > 0, "vertices_per_shard must be positive");
        let (n, m) = (g.num_vertices(), g.num_edges() as usize);
        let ps = n.div_ceil(n_per).max(1) as usize;
        let (mut window_offsets, mut src_index) = (column(ps * ps), column(m));
        let (mut dest_index, mut edge_id) = (column(m), column(m));
        let [offsets, si, di, ei] = [
            &mut window_offsets,
            &mut src_index,
            &mut dest_index,
            &mut edge_id,
        ]
        .map(|c| Arc::get_mut(c).expect("a fresh column"));
        let shard_starts = shard_order(g, n_per, [si, di, ei], offsets);
        GShards {
            num_vertices: n,
            vertices_per_shard: n_per,
            num_shards: ps as u32,
            shard_starts,
            src_index,
            dest_index,
            edge_id,
            window_offsets,
        }
    }

    /// Number of vertices in the underlying graph.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges (total entries across shards).
    #[inline]
    pub fn num_edges(&self) -> u32 {
        self.src_index.len() as u32
    }

    /// The paper's `|N|`: vertices assigned to each shard.
    #[inline]
    pub fn vertices_per_shard(&self) -> u32 {
        self.vertices_per_shard
    }

    /// Number of shards `p`.
    #[inline]
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Vertex range `[a, b)` owned by shard `s` (clamped at `|V|`).
    pub fn vertex_range(&self, s: u32) -> std::ops::Range<u32> {
        let lo = s * self.vertices_per_shard;
        let hi = (lo + self.vertices_per_shard).min(self.num_vertices);
        lo..hi
    }

    /// Absolute entry range of shard `s` within the edge arrays.
    pub fn shard_entries(&self, s: u32) -> std::ops::Range<usize> {
        self.shard_starts[s as usize] as usize..self.shard_starts[s as usize + 1] as usize
    }

    /// Absolute entry range of computation window `W_ij`: the entries of
    /// shard `j` whose sources belong to shard `i`'s vertex range.
    pub fn window(&self, i: u32, j: u32) -> std::ops::Range<usize> {
        let p = self.num_shards as usize;
        let start = self.window_offsets[j as usize * p + i as usize] as usize;
        let end = if (i as usize) + 1 < p {
            self.window_offsets[j as usize * p + i as usize + 1] as usize
        } else {
            self.shard_starts[j as usize + 1] as usize
        };
        start..end
    }

    /// `SrcIndex` column (shard-major).
    #[inline]
    pub fn src_index(&self) -> &Arc<[VertexId]> {
        &self.src_index
    }

    /// `DestIndex` column (shard-major).
    #[inline]
    pub fn dest_index(&self) -> &Arc<[VertexId]> {
        &self.dest_index
    }

    /// Original edge ids (shard-major); `edge_id()[k]` identifies the graph
    /// edge stored at entry `k`, for deriving `EdgeValue` columns.
    #[inline]
    pub fn edge_id(&self) -> &[u32] {
        &self.edge_id
    }

    /// The `p * p` window-start table, row-major by owning shard: entry
    /// `j * p + i` is where window `W_ij` starts (G-Shards' stage-4 lookup).
    #[inline]
    pub fn window_offsets(&self) -> &Arc<[u32]> {
        &self.window_offsets
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::par::with_workers;
    use cusha_graph::Edge;
    use proptest::prelude::*;

    /// The build [`GShards::from_graph`] replaced, kept as its reference:
    /// bucket by owning shard, then sort each shard's packed
    /// `(src << 32 | dst, id)` pairs, then binary-search every window start.
    fn reference_build(g: &Graph, n_per: u32) -> GShards {
        let n = g.num_vertices();
        let m = g.num_edges() as usize;
        let p = n.div_ceil(n_per).max(1) as usize;
        let mut shard_starts = vec![0u32; p + 1];
        for e in g.edges() {
            shard_starts[(e.dst / n_per) as usize + 1] += 1;
        }
        for s in 0..p {
            shard_starts[s + 1] += shard_starts[s];
        }
        let mut pairs: Vec<(u64, u32)> = vec![(0, 0); m];
        let mut cursor = shard_starts[..p].to_vec();
        for (id, e) in g.edges().iter().enumerate() {
            let s = (e.dst / n_per) as usize;
            pairs[cursor[s] as usize] = (((e.src as u64) << 32) | e.dst as u64, id as u32);
            cursor[s] += 1;
        }
        for s in 0..p {
            pairs[shard_starts[s] as usize..shard_starts[s + 1] as usize].sort_unstable();
        }
        let src_index: Vec<u32> = pairs.iter().map(|&(key, _)| (key >> 32) as u32).collect();
        let mut window_offsets = vec![0u32; p * p];
        for j in 0..p {
            let lo = shard_starts[j] as usize;
            let slice = &src_index[lo..shard_starts[j + 1] as usize];
            for i in 0..p {
                let off = slice.partition_point(|&s| s < i as u32 * n_per);
                window_offsets[j * p + i] = (lo + off) as u32;
            }
        }
        GShards {
            num_vertices: n,
            vertices_per_shard: n_per,
            num_shards: p as u32,
            shard_starts,
            src_index: src_index.into(),
            dest_index: pairs.iter().map(|&(key, _)| key as u32).collect(),
            edge_id: pairs.iter().map(|&(_, id)| id).collect(),
            window_offsets: window_offsets.into(),
        }
    }

    /// The first of a build's arrays (or its shard count) on which two
    /// builds differ.
    fn first_difference(a: &GShards, b: &GShards) -> Option<&'static str> {
        [
            ("num_shards", a.num_shards == b.num_shards),
            ("shard_starts", a.shard_starts == b.shard_starts),
            ("src_index", a.src_index == b.src_index),
            ("dest_index", a.dest_index == b.dest_index),
            ("edge_id", a.edge_id == b.edge_id),
            ("window_offsets", a.window_offsets == b.window_offsets),
        ]
        .into_iter()
        .find_map(|(name, same)| (!same).then_some(name))
    }

    /// A graph from `seed` over `n` vertices whose last `tail` stay isolated:
    /// `m` random edges, a share of them repeated as parallel edges (same
    /// endpoints, a later id), a share followed by a self-loop, and, with
    /// `hub` 1, vertex 0 pointing at every live vertex so its out-edges reach
    /// every shard that owns one; with `hub` 2, every live vertex pointing at
    /// vertex 0 twice, so shard 0 holds most edges.
    pub(crate) fn seeded_graph(n: u32, tail: u32, m: usize, seed: u64, hub: u8) -> Graph {
        let live = n.saturating_sub(tail);
        let mut state = seed;
        let mut next = |bound: u32| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z ^ (z >> 29)) % bound as u64) as u32
        };
        let mut edges = Vec::new();
        if live > 0 {
            for _ in 0..m {
                let (src, dst) = (next(live), next(live));
                edges.push(Edge::new(src, dst, 1));
                if next(4) == 0 {
                    edges.push(Edge::new(src, dst, 2));
                }
                if next(8) == 0 {
                    edges.push(Edge::new(dst, dst, 4));
                }
            }
            match hub {
                1 => edges.extend((0..live).map(|v| Edge::new(0, v, 3))),
                2 => edges.extend((0..2 * live).map(|v| Edge::new(v / 2, 0, 3))),
                _ => {}
            }
        }
        Graph::new(n, edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The shard sort, on any worker count, equals the reference.
        #[test]
        fn counting_passes_equal_the_reference_build(
            n in 0u32..48,
            tail in 0u32..6,
            m in 0usize..160,
            seed in any::<u64>(),
            pick in 0usize..6,
            hub in 0u8..3,
        ) {
            let g = seeded_graph(n, tail, m, seed, hub);
            let n_per = [1, 2, 3, n.saturating_sub(1), n, 2 * n][pick].max(1);
            let want = reference_build(&g, n_per);
            for workers in 1..=4 {
                let built = with_workers(workers, || GShards::from_graph(&g, n_per));
                let differs = first_difference(&built, &want);
                prop_assert!(
                    differs.is_none(),
                    "{differs:?} differs: |V|={n} tail={tail} |E|={} seed={seed:#x} hub={hub} n_per={n_per} workers={workers}",
                    g.num_edges()
                );
            }
        }
    }

    /// 8-vertex graph shaped like the paper's Figure 2(a) discussion: two
    /// shards of 4 vertices each.
    fn sample() -> Graph {
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
                Edge::new(6, 1, 19),
            ],
        )
    }

    fn check_invariants(g: &Graph, gs: &GShards) {
        assert_eq!(gs.num_edges(), g.num_edges());
        // Partitioned: every entry's destination in its shard's range.
        for s in 0..gs.num_shards() {
            let vr = gs.vertex_range(s);
            let er = gs.shard_entries(s);
            for k in er.clone() {
                assert!(vr.contains(&gs.dest_index()[k]));
            }
            // Ordered: src nondecreasing within the shard.
            let srcs = &gs.src_index()[er];
            assert!(srcs.windows(2).all(|w| w[0] <= w[1]));
        }
        // Windows tile each shard exactly.
        for j in 0..gs.num_shards() {
            let mut covered = 0;
            for i in 0..gs.num_shards() {
                let w = gs.window(i, j);
                covered += w.len();
                // Window sources in shard i's range.
                let vr = gs.vertex_range(i);
                for k in w {
                    assert!(vr.contains(&gs.src_index()[k]));
                }
            }
            assert_eq!(covered, gs.shard_entries(j).len());
        }
        // Edge ids are a permutation carrying the right endpoints.
        let mut seen = vec![false; g.num_edges() as usize];
        for (k, &id) in gs.edge_id().iter().enumerate() {
            assert!(!seen[id as usize]);
            seen[id as usize] = true;
            let e = g.edge(id);
            assert_eq!(e.src, gs.src_index()[k]);
            assert_eq!(e.dst, gs.dest_index()[k]);
        }
    }

    #[test]
    fn sample_two_shards() {
        let g = sample();
        let gs = GShards::from_graph(&g, 4);
        assert_eq!(gs.num_shards(), 2);
        assert_eq!(gs.vertex_range(0), 0..4);
        assert_eq!(gs.vertex_range(1), 4..8);
        check_invariants(&g, &gs);
        // Shard 0 holds edges with dst in 0..4: (1,2) (7,2) (0,1) (3,0) (6,1).
        assert_eq!(gs.shard_entries(0).len(), 5);
        assert_eq!(gs.shard_entries(1).len(), 5);
        // W_00: shard-0 entries with src in 0..4 => (0,1),(1,2),(3,0).
        assert_eq!(gs.window(0, 0).len(), 3);
        // W_10: shard-0 entries with src in 4..8 => (6,1),(7,2).
        assert_eq!(gs.window(1, 0).len(), 2);
        // W_01: shard-1 entries with src in 0..4 => (0,5),(2,7).
        assert_eq!(gs.window(0, 1).len(), 2);
        // W_11 => (4,7),(5,4),(6,4).
        assert_eq!(gs.window(1, 1).len(), 3);
    }

    #[test]
    fn uneven_tail_shard() {
        let g = sample();
        let gs = GShards::from_graph(&g, 3); // shards: 0..3, 3..6, 6..8
        assert_eq!(gs.num_shards(), 3);
        assert_eq!(gs.vertex_range(2), 6..8);
        check_invariants(&g, &gs);
    }

    #[test]
    fn single_shard_when_n_large() {
        let g = sample();
        let gs = GShards::from_graph(&g, 100);
        assert_eq!(gs.num_shards(), 1);
        assert_eq!(gs.vertex_range(0), 0..8);
        check_invariants(&g, &gs);
        // The lone window is the whole shard.
        assert_eq!(gs.window(0, 0), gs.shard_entries(0));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        let gs = GShards::from_graph(&g, 2);
        assert_eq!(gs.num_shards(), 3);
        assert_eq!(gs.num_edges(), 0);
        for s in 0..3 {
            assert!(gs.shard_entries(s).is_empty());
        }
    }

    #[test]
    fn graph_with_zero_vertices() {
        let g = Graph::empty(0);
        let gs = GShards::from_graph(&g, 4);
        assert_eq!(gs.num_shards(), 1); // max(1) keeps the kernel launchable
        assert!(gs.shard_entries(0).is_empty());
    }

    #[test]
    fn self_loops_and_duplicates_are_kept() {
        let g = Graph::new(
            4,
            vec![Edge::new(2, 2, 1), Edge::new(0, 1, 2), Edge::new(0, 1, 3)],
        );
        let gs = GShards::from_graph(&g, 2);
        check_invariants(&g, &gs);
        assert_eq!(gs.num_edges(), 3);
    }

    #[test]
    fn rmat_invariants() {
        let g = rmat(&RmatConfig::graph500(9, 4000, 77));
        for n_per in [1, 7, 32, 100, 352, 512, 1024] {
            let gs = GShards::from_graph(&g, n_per);
            check_invariants(&g, &gs);
            let differs = first_difference(&gs, &reference_build(&g, n_per));
            assert_eq!(differs, None, "n_per={n_per}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_n_rejected() {
        GShards::from_graph(&Graph::empty(1), 0);
    }
}
