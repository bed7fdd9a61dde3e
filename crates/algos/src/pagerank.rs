//! PageRank (Table 3, row "PR").
//!
//! The only benchmark using a `StaticVertex`: each entry carries the source
//! vertex's out-degree (`NbrsNum`). `compute` accumulates
//! `rank(src) / out_degree(src)` into a zero-initialized local; the damping
//! `rank = (1 - d) + d * sum` happens in `update_condition` — the paper's
//! example of splitting edge-parallel and vertex-parallel logic between the
//! two hooks.

use cusha_core::{ColumnKey, VertexProgram};
use cusha_graph::{Graph, VertexId};

/// Damping factor `d` (the paper's `DAMPING_FACTOR`).
pub const DAMPING: f32 = 0.85;
/// Default convergence tolerance on per-vertex rank change.
pub const DEFAULT_TOLERANCE: f32 = 1e-3;

/// PageRank with configurable tolerance.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Convergence tolerance.
    pub tolerance: f32,
}

impl PageRank {
    /// PageRank with [`DEFAULT_TOLERANCE`].
    pub fn new() -> Self {
        PageRank {
            tolerance: DEFAULT_TOLERANCE,
        }
    }

    /// PageRank with a custom tolerance.
    pub fn with_tolerance(tolerance: f32) -> Self {
        PageRank { tolerance }
    }
}

impl Default for PageRank {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexProgram for PageRank {
    type V = f32;
    type E = u32;
    type SV = u32;
    const HAS_EDGE_VALUES: bool = false;
    const HAS_STATIC_VALUES: bool = true;
    const COMPUTE_COST: u64 = 3; // divide + add + guard

    fn name(&self) -> &'static str {
        "PR"
    }

    fn column_key(&self) -> Option<ColumnKey> {
        Some(ColumnKey::new(self.name(), 0))
    }

    fn initial_value(&self, _v: VertexId) -> f32 {
        1.0
    }

    fn static_values(&self, g: &Graph) -> Vec<u32> {
        g.out_degrees()
    }

    fn edge_value(&self, _raw: u32) -> u32 {
        0
    }

    fn init_compute(&self, local: &mut f32, _global: &f32) {
        *local = 0.0;
    }

    fn compute(&self, src: &f32, src_static: &u32, _e: &u32, local: &mut f32) {
        let nbrs = *src_static;
        if nbrs != 0 {
            *local += *src / nbrs as f32;
        }
    }

    fn update_condition(&self, local: &mut f32, old: &f32) -> bool {
        *local = (1.0 - DAMPING) + *local * DAMPING;
        (*local - *old).abs() > self.tolerance
    }

    fn check_invariant(&self, _prev: &[f32], curr: &[f32]) -> Result<(), String> {
        // Every committed rank is `(1-d) + d * sum` with `sum >= 0` (or the
        // untouched initial 1.0), so ranks are finite and never drop below
        // the teleport mass. No sound upper bound exists mid-run: under
        // asynchronous updates mass legitimately concentrates before it
        // redistributes, so overshoot is left to the checksum layer.
        let floor = (1.0 - DAMPING) - 1e-4;
        for (v, &r) in curr.iter().enumerate() {
            if !r.is_finite() || r < floor {
                return Err(format!("PR rank of vertex {v} is {r}"));
            }
        }
        Ok(())
    }
}

/// Independent oracle: dense synchronous power iteration (Jacobi), in `f64`
/// for accumulated precision, to `iters` rounds or until max change < tol.
pub fn pagerank_power_iteration(g: &Graph, tol: f64, max_iters: u32) -> Vec<f32> {
    let n = g.num_vertices() as usize;
    let out = g.out_degrees();
    let mut rank = vec![1.0f64; n];
    for _ in 0..max_iters {
        let mut next = vec![0.0f64; n];
        for e in g.edges() {
            let d = out[e.src as usize];
            if d != 0 {
                next[e.dst as usize] += rank[e.src as usize] / d as f64;
            }
        }
        let mut max_delta = 0.0f64;
        for v in 0..n {
            let nv = (1.0 - DAMPING as f64) + DAMPING as f64 * next[v];
            max_delta = max_delta.max((nv - rank[v]).abs());
            rank[v] = nv;
        }
        if max_delta < tol {
            break;
        }
    }
    rank.into_iter().map(|r| r as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_approx_eq;
    use crate::reference::run_sequential;
    use cusha_core::{run, CuShaConfig};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::{Edge, Graph};

    #[test]
    fn two_node_cycle_has_uniform_rank() {
        let g = Graph::new(2, vec![Edge::new(0, 1, 1), Edge::new(1, 0, 1)]);
        let pr = pagerank_power_iteration(&g, 1e-10, 10_000);
        assert!((pr[0] - 1.0).abs() < 1e-5 && (pr[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sink_receiving_everything_ranks_highest() {
        // Star into vertex 0.
        let g = Graph::new(5, (1..5).map(|v| Edge::new(v, 0, 1)).collect());
        let pr = pagerank_power_iteration(&g, 1e-10, 10_000);
        assert!(pr[0] > pr[1]);
        // Leaves get the teleport mass only.
        assert!((pr[1] - (1.0 - DAMPING)).abs() < 1e-4);
    }

    #[test]
    fn sequential_matches_power_iteration() {
        let g = rmat(&RmatConfig::graph500(7, 700, 10));
        let seq = run_sequential(&PageRank::with_tolerance(1e-5), &g, 10_000);
        assert!(seq.converged);
        let oracle = pagerank_power_iteration(&g, 1e-9, 100_000);
        assert_approx_eq(&seq.values, &oracle, 1e-3);
    }

    #[test]
    fn cusha_matches_power_iteration() {
        let g = rmat(&RmatConfig::graph500(7, 600, 11));
        let oracle = pagerank_power_iteration(&g, 1e-9, 100_000);
        for cfg in [
            CuShaConfig::gs().with_vertices_per_shard(32),
            CuShaConfig::cw().with_vertices_per_shard(32),
        ] {
            let out = run(&PageRank::with_tolerance(1e-5), &g, &cfg);
            assert!(out.stats.converged);
            assert_approx_eq(&out.values, &oracle, 2e-3);
        }
    }

    #[test]
    fn zero_out_degree_sources_contribute_nothing() {
        // Vertex 1 has no out-edges; compute's guard must skip it.
        let g = Graph::new(2, vec![Edge::new(0, 1, 1)]);
        let seq = run_sequential(&PageRank::new(), &g, 1000);
        assert!(seq.converged);
        assert!((seq.values[0] - (1.0 - DAMPING)).abs() < 1e-5);
    }
}
