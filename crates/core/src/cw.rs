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
use cusha_graph::par::{split_work, workers_for};
use cusha_graph::VertexId;
use std::ops::Range;
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
    /// Derives the CW columns from a shard decomposition: `CW_s` is windows
    /// `W_s0, W_s1, ..` in order, and workers take contiguous source shard
    /// ranges balanced by entries ([`cusha_graph::par::split_work`]).
    pub fn from_gshards(gs: &GShards) -> Self {
        let (p, m) = (gs.num_shards() as usize, gs.num_edges() as usize);
        let sizes = Vec::from_iter((0..p).map(|s| windows(gs, s).map(|w| w.len()).sum()));
        let (mut src_index, mut mapper) = (column(m), column(m));
        let cols = [&mut src_index, &mut mapper].map(|c| Arc::get_mut(c).expect("fresh"));
        let (_lease, workers) = workers_for(m);
        let copy = |s, _, cols: [&mut _; 2], _: &mut _, _: &mut _| copy_windows(gs, s, cols);
        ConcatWindows {
            cw_starts: split_work(&sizes, workers, cols, &mut [], 0, |_| (), copy),
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

/// Source shard `s`'s windows `W_s0, W_s1, ..`, in order.
fn windows(gs: &GShards, s: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    (0..gs.num_shards()).map(move |j| gs.window(s as u32, j))
}

/// Copies source shard `s`'s windows, in order, into `[SrcIndex, Mapper]`.
fn copy_windows(gs: &GShards, s: usize, [si, map]: [&mut [u32]; 2]) {
    let (src, mut at) = (gs.src_index(), 0);
    for w in windows(gs, s) {
        for k in w {
            (si[at], map[at]) = (src[k], k as u32);
            at += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shards::tests::seeded_graph;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::par::with_workers;
    use cusha_graph::{Edge, Graph};
    use proptest::prelude::*;

    /// The walk [`ConcatWindows::from_gshards`] replaced, kept as its
    /// reference: every window `W_sj`, `s`-major, one entry at a time.
    fn reference_build(gs: &GShards) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (mut starts, mut si, mut map) = (vec![0], Vec::new(), Vec::new());
        for s in 0..gs.num_shards() {
            for j in 0..gs.num_shards() {
                for k in gs.window(s, j) {
                    si.push(gs.src_index()[k]);
                    map.push(k as u32);
                }
            }
            starts.push(si.len() as u32);
        }
        (starts, si, map)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any worker count copies the reference's bytes: the graphs of
        /// the shard build's proptest (empty, edgeless, one shard, empty
        /// shards, a ragged last shard, loops, duplicates, hubs).
        #[test]
        fn any_worker_count_equals_the_reference_build(
            n in 0u32..48,
            tail in 0u32..6,
            m in 0usize..160,
            seed in any::<u64>(),
            pick in 0usize..5,
            hub in 0u8..3,
        ) {
            let g = seeded_graph(n, tail, m, seed, hub);
            let gs = GShards::from_graph(&g, [1, 2, 3, n.saturating_sub(1), 2 * n][pick].max(1));
            let want = reference_build(&gs);
            for workers in 1..=4 {
                let cw = with_workers(workers, || ConcatWindows::from_gshards(&gs));
                let got = (cw.cw_starts.clone(), cw.src_index.to_vec(), cw.mapper.to_vec());
                prop_assert_eq!(&got, &want, "workers={}", workers);
            }
        }
    }

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
