//! Single-Source Widest Path (Table 3, row "SSWP").
//!
//! The bottleneck-bandwidth problem: `width(v) = max over in-edges (u, v)
//! of min(width(u), capacity(u, v))`, with the source at infinite width.

use crate::INF;
use cusha_core::{ColumnKey, VertexProgram};
use cusha_graph::{Graph, VertexId};

/// Widest path from a single source over positive integer capacities.
#[derive(Clone, Copy, Debug)]
pub struct Sswp {
    source: VertexId,
}

impl Sswp {
    /// Widest paths from `source`.
    pub fn new(source: VertexId) -> Self {
        Sswp { source }
    }
}

impl VertexProgram for Sswp {
    type V = u32;
    type E = u32;
    type SV = u32;
    const HAS_EDGE_VALUES: bool = true;
    const HAS_STATIC_VALUES: bool = false;
    const FRONTIER_SAFE: bool = true; // idempotent max-of-min-capacity fold

    fn name(&self) -> &'static str {
        "SSWP"
    }

    fn column_key(&self) -> Option<ColumnKey> {
        Some(ColumnKey::new(self.name(), 0))
    }

    fn initial_value(&self, v: VertexId) -> u32 {
        if v == self.source {
            INF
        } else {
            0
        }
    }

    fn edge_value(&self, raw: u32) -> u32 {
        raw.max(1) // capacities are positive
    }

    fn init_compute(&self, local: &mut u32, global: &u32) {
        *local = *global;
    }

    fn compute(&self, src: &u32, _st: &u32, edge: &u32, local: &mut u32) {
        if *src != 0 {
            *local = (*local).max((*src).min(*edge));
        }
    }

    fn update_condition(&self, local: &mut u32, old: &u32) -> bool {
        *local > *old
    }

    fn check_invariant(&self, prev: &[u32], curr: &[u32]) -> Result<(), String> {
        // Max-min folding only widens paths; the source is pinned at INF.
        if curr[self.source as usize] != INF {
            return Err(format!(
                "SSWP source {} left width INF (now {})",
                self.source, curr[self.source as usize]
            ));
        }
        for (v, (&p, &c)) in prev.iter().zip(curr).enumerate() {
            if c < p {
                return Err(format!("SSWP width of vertex {v} shrank {p} -> {c}"));
            }
        }
        Ok(())
    }

    fn seed_frontier(&self, _g: &Graph) -> Option<Vec<VertexId>> {
        Some(vec![self.source])
    }
}

/// Independent oracle: max-min Dijkstra (widest-path first) over the
/// out-adjacency.
pub fn widest_paths(g: &cusha_graph::Graph, source: VertexId) -> Vec<u32> {
    use std::collections::BinaryHeap;
    let n = g.num_vertices() as usize;
    let mut offsets = vec![0u32; n + 1];
    for e in g.edges() {
        offsets[e.src as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut adj = vec![(0u32, 0u32); g.num_edges() as usize];
    let mut cursor = offsets.clone();
    for e in g.edges() {
        adj[cursor[e.src as usize] as usize] = (e.dst, e.weight.max(1));
        cursor[e.src as usize] += 1;
    }
    let mut width = vec![0u32; n];
    if n == 0 {
        return width;
    }
    width[source as usize] = INF;
    let mut heap = BinaryHeap::from([(INF, source)]);
    while let Some((w, v)) = heap.pop() {
        if w < width[v as usize] {
            continue;
        }
        for i in offsets[v as usize]..offsets[v as usize + 1] {
            let (u, cap) = adj[i as usize];
            let nw = w.min(cap);
            if nw > width[u as usize] {
                width[u as usize] = nw;
                heap.push((nw, u));
            }
        }
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_sequential;
    use cusha_core::{run, CuShaConfig};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::{Edge, Graph};

    #[test]
    fn oracle_takes_the_wider_route() {
        // 0 -> 1 direct capacity 3; 0 -> 2 -> 1 capacities 10, 7: width 7.
        let g = Graph::new(
            3,
            vec![Edge::new(0, 1, 3), Edge::new(0, 2, 10), Edge::new(2, 1, 7)],
        );
        assert_eq!(widest_paths(&g, 0), vec![INF, 7, 10]);
    }

    #[test]
    fn sequential_matches_oracle() {
        let g = rmat(&RmatConfig::graph500(7, 700, 14));
        let seq = run_sequential(&Sswp::new(0), &g, 1000);
        assert!(seq.converged);
        assert_eq!(seq.values, widest_paths(&g, 0));
    }

    #[test]
    fn cusha_matches_oracle() {
        let g = rmat(&RmatConfig::graph500(7, 700, 15));
        let oracle = widest_paths(&g, 0);
        for cfg in [
            CuShaConfig::gs().with_vertices_per_shard(32),
            CuShaConfig::cw().with_vertices_per_shard(32),
        ] {
            let out = run(&Sswp::new(0), &g, &cfg);
            assert_eq!(out.values, oracle, "{}", out.stats.engine);
        }
    }

    #[test]
    fn unreachable_vertices_have_zero_width() {
        let g = Graph::new(3, vec![Edge::new(0, 1, 4)]);
        let seq = run_sequential(&Sswp::new(0), &g, 100);
        assert_eq!(seq.values, vec![INF, 4, 0]);
    }
}
