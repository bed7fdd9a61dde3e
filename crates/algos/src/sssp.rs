//! Single-Source Shortest Path (Table 3, row "SSSP"; also the paper's
//! worked example, Figure 6).
//!
//! Bellman-Ford-style relaxation: `dist(v) = min over in-edges (u, v) of
//! dist(u) + w(u, v)`, applied asynchronously until fixpoint.

use crate::INF;
use cusha_core::{ColumnKey, VertexProgram};
use cusha_graph::{Graph, VertexId};

/// SSSP from a single source over non-negative integer weights.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    source: VertexId,
}

impl Sssp {
    /// Shortest paths from `source`.
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }
}

impl VertexProgram for Sssp {
    type V = u32;
    type E = u32;
    type SV = u32;
    const HAS_EDGE_VALUES: bool = true;
    const HAS_STATIC_VALUES: bool = false;
    const FRONTIER_SAFE: bool = true; // idempotent min-fold over dist + w

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn column_key(&self) -> Option<ColumnKey> {
        Some(ColumnKey::new(self.name(), 0))
    }

    fn initial_value(&self, v: VertexId) -> u32 {
        if v == self.source {
            0
        } else {
            INF
        }
    }

    fn edge_value(&self, raw: u32) -> u32 {
        raw
    }

    fn init_compute(&self, local: &mut u32, global: &u32) {
        *local = *global;
    }

    fn compute(&self, src: &u32, _st: &u32, edge: &u32, local: &mut u32) {
        if *src != INF {
            *local = (*local).min(src.saturating_add(*edge));
        }
    }

    fn update_condition(&self, local: &mut u32, old: &u32) -> bool {
        *local < *old
    }

    fn check_invariant(&self, prev: &[u32], curr: &[u32]) -> Result<(), String> {
        // Bellman-Ford relaxation only shortens distances; the source is
        // pinned at 0.
        if curr[self.source as usize] != 0 {
            return Err(format!(
                "SSSP source {} left distance 0 (now {})",
                self.source, curr[self.source as usize]
            ));
        }
        for (v, (&p, &c)) in prev.iter().zip(curr).enumerate() {
            if c > p {
                return Err(format!("SSSP distance of vertex {v} rose {p} -> {c}"));
            }
        }
        Ok(())
    }

    fn seed_frontier(&self, _g: &Graph) -> Option<Vec<VertexId>> {
        Some(vec![self.source])
    }
}

/// Independent oracle: binary-heap Dijkstra over the out-adjacency.
pub fn dijkstra(g: &cusha_graph::Graph, source: VertexId) -> Vec<u32> {
    use std::cmp::Reverse;
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
        adj[cursor[e.src as usize] as usize] = (e.dst, e.weight);
        cursor[e.src as usize] += 1;
    }
    let mut dist = vec![INF; n];
    if n == 0 {
        return dist;
    }
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::from([Reverse((0u32, source))]);
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for i in offsets[v as usize]..offsets[v as usize + 1] {
            let (u, w) = adj[i as usize];
            let nd = d.saturating_add(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_sequential;
    use cusha_core::{run, CuShaConfig};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::{Edge, Graph};

    #[test]
    fn oracle_prefers_cheaper_long_path() {
        // 0 -> 1 (10); 0 -> 2 (1), 2 -> 1 (2): shortest to 1 is 3.
        let g = Graph::new(
            3,
            vec![Edge::new(0, 1, 10), Edge::new(0, 2, 1), Edge::new(2, 1, 2)],
        );
        assert_eq!(dijkstra(&g, 0), vec![0, 3, 1]);
    }

    #[test]
    fn sequential_matches_dijkstra() {
        let g = rmat(&RmatConfig::graph500(7, 700, 8));
        let seq = run_sequential(&Sssp::new(0), &g, 1000);
        assert!(seq.converged);
        assert_eq!(seq.values, dijkstra(&g, 0));
    }

    #[test]
    fn cusha_matches_dijkstra() {
        let g = rmat(&RmatConfig::graph500(7, 700, 9));
        let oracle = dijkstra(&g, 0);
        for cfg in [
            CuShaConfig::gs().with_vertices_per_shard(32),
            CuShaConfig::cw().with_vertices_per_shard(32),
        ] {
            let out = run(&Sssp::new(0), &g, &cfg);
            assert_eq!(out.values, oracle, "{}", out.stats.engine);
        }
    }

    #[test]
    fn saturating_add_avoids_overflow_near_inf() {
        // INF + weight must not wrap and beat real distances.
        let g = Graph::new(3, vec![Edge::new(1, 2, 5)]);
        let out = run_sequential(&Sssp::new(0), &g, 10);
        assert_eq!(out.values, vec![0, INF, INF]);
    }
}
