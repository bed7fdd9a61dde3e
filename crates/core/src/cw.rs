//! The Concatenated Windows representation (paper Section 3.2).
//!
//! CW keeps the shard arrays of [`GShards`] but splits the `SrcIndex` column
//! out and reorders it *window-major*: for shard `s`, `CW_s` is the
//! concatenation of the `SrcIndex` entries of windows `W_s0, W_s1, ..,
//! W_s(p-1)` — i.e. every shard entry (in any shard) whose source vertex
//! belongs to shard `s`. Separating the column breaks the positional
//! association with `SrcValue`, so a parallel **`Mapper`** array records,
//! for each CW entry, the absolute shard-array position whose `SrcValue`
//! must be written during stage 4.
//!
//! The payoff: stage-4 threads sweep a single dense array per shard instead
//! of hopping across per-shard windows that are often smaller than a warp,
//! eliminating the idle lanes that throttle G-Shards on large sparse graphs.

use crate::shards::{column, GShards};
use cusha_graph::VertexId;
use std::sync::Arc;

/// Window-major `SrcIndex` + `Mapper` columns, grouped per shard.
#[derive(Clone, Debug)]
pub struct ConcatWindows {
    /// `p + 1` offsets delimiting each shard's concatenated window `CW_s`.
    cw_starts: Vec<u32>,
    /// `SrcIndex` entries, window-major (`|E|` total).
    src_index: Arc<[VertexId]>,
    /// For each CW entry, the absolute shard-array position it came from.
    mapper: Arc<[u32]>,
}

impl ConcatWindows {
    /// Derives the CW columns from a shard decomposition.
    pub fn from_gshards(gs: &GShards) -> Self {
        let p = gs.num_shards();
        let m = gs.num_edges() as usize;
        let mut cw_starts = Vec::with_capacity(p as usize + 1);
        let (mut src_index, mut mapper) = (column(m), column(m));
        let [si, map] = [&mut src_index, &mut mapper].map(|c| Arc::get_mut(c).expect("fresh"));
        let mut at = 0;
        cw_starts.push(0);
        for s in 0..p {
            for j in 0..p {
                for k in gs.window(s, j) {
                    (si[at], map[at]) = (gs.src_index()[k], k as u32);
                    at += 1;
                }
            }
            cw_starts.push(at as u32);
        }
        ConcatWindows {
            cw_starts,
            src_index,
            mapper,
        }
    }

    /// Entry range of `CW_s` within [`ConcatWindows::src_index`] /
    /// [`ConcatWindows::mapper`].
    pub fn cw_entries(&self, s: u32) -> std::ops::Range<usize> {
        self.cw_starts[s as usize] as usize..self.cw_starts[s as usize + 1] as usize
    }

    /// Window-major `SrcIndex` column.
    #[inline]
    pub fn src_index(&self) -> &Arc<[VertexId]> {
        &self.src_index
    }

    /// The `Mapper` column.
    #[inline]
    pub fn mapper(&self) -> &Arc<[u32]> {
        &self.mapper
    }

    /// Total entries (`|E|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.src_index.len()
    }

    /// True if the graph had no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.src_index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::{Edge, Graph};

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

    fn check_invariants(gs: &GShards, cw: &ConcatWindows) {
        assert_eq!(cw.len(), gs.num_edges() as usize);
        // Mapper is a permutation of shard positions...
        let mut seen = vec![false; cw.len()];
        for (k, &pos) in cw.mapper().iter().enumerate() {
            assert!(!seen[pos as usize], "duplicate mapper target {pos}");
            seen[pos as usize] = true;
            // ...and src_index matches the shard entry it maps to.
            assert_eq!(cw.src_index()[k], gs.src_index()[pos as usize]);
        }
        // CW_s sources all belong to shard s's vertex range, and CW lengths
        // equal the out-edge counts of each shard's vertices.
        for s in 0..gs.num_shards() {
            let vr = gs.vertex_range(s);
            for k in cw.cw_entries(s) {
                assert!(vr.contains(&cw.src_index()[k]));
            }
        }
        // Window-major order within CW_s: mapper positions of entries coming
        // from shard j precede those from shard j+1.
        for s in 0..gs.num_shards() {
            let entries = cw.cw_entries(s);
            let mut last_shard = 0;
            for k in entries {
                let pos = cw.mapper()[k] as usize;
                let owner = (0..gs.num_shards())
                    .find(|&j| gs.shard_entries(j).contains(&pos))
                    .unwrap();
                assert!(owner >= last_shard, "CW entries must be ordered by window");
                last_shard = owner;
            }
        }
    }

    #[test]
    fn sample_cw() {
        let g = sample();
        let gs = GShards::from_graph(&g, 4);
        let cw = ConcatWindows::from_gshards(&gs);
        check_invariants(&gs, &cw);
        // CW_0 = W_00 + W_01 = 3 + 2 entries; CW_1 = W_10 + W_11 = 2 + 3.
        assert_eq!(cw.cw_entries(0).len(), 5);
        assert_eq!(cw.cw_entries(1).len(), 5);
    }

    #[test]
    fn cw_lengths_equal_out_degrees_of_shard_vertices() {
        let g = sample();
        let gs = GShards::from_graph(&g, 4);
        let cw = ConcatWindows::from_gshards(&gs);
        let out = g.out_degrees();
        for s in 0..2u32 {
            let expected: u32 = gs.vertex_range(s).map(|v| out[v as usize]).sum();
            assert_eq!(cw.cw_entries(s).len() as u32, expected);
        }
    }

    #[test]
    fn empty_graph_cw() {
        let gs = GShards::from_graph(&Graph::empty(6), 2);
        let cw = ConcatWindows::from_gshards(&gs);
        assert!(cw.is_empty());
        for s in 0..3 {
            assert!(cw.cw_entries(s).is_empty());
        }
    }

    #[test]
    fn rmat_cw_invariants() {
        let g = rmat(&RmatConfig::graph500(9, 3000, 13));
        for n_per in [17, 64, 300] {
            let gs = GShards::from_graph(&g, n_per);
            let cw = ConcatWindows::from_gshards(&gs);
            check_invariants(&gs, &cw);
        }
    }
}
