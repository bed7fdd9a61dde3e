//! Multi-Source BFS (extension beyond the paper's Table 3).
//!
//! Up to 64 sources traverse the graph simultaneously: each vertex carries
//! a bitset of the sources that reach it, folded with bitwise OR — a
//! commutative, associative, idempotent `compute`, so it slots directly
//! into the framework. One MS-BFS run answers 64 reachability queries for
//! the cost of roughly one traversal, a standard trick for
//! all-pairs-ish analytics (betweenness sampling, neighbourhood function
//! estimation).

use cusha_core::VertexProgram;
use cusha_graph::{Graph, VertexId};

/// Concurrent reachability from up to 64 sources.
#[derive(Clone, Debug)]
pub struct MultiSourceBfs {
    sources: Vec<VertexId>,
}

impl MultiSourceBfs {
    /// Traverse from `sources` (at most 64).
    ///
    /// # Panics
    /// Panics if more than 64 sources are given.
    pub fn new(sources: Vec<VertexId>) -> Self {
        assert!(sources.len() <= 64, "at most 64 concurrent sources");
        MultiSourceBfs { sources }
    }

    /// The source owning `bit`.
    pub fn source(&self, bit: usize) -> VertexId {
        self.sources[bit]
    }
}

impl VertexProgram for MultiSourceBfs {
    type V = u64; // bitset: bit i set <=> sources[i] reaches this vertex
    type E = u32;
    type SV = u32;
    const HAS_EDGE_VALUES: bool = false;
    const HAS_STATIC_VALUES: bool = false;
    const COMPUTE_COST: u64 = 1;
    const FRONTIER_SAFE: bool = true; // idempotent bitset-OR fold

    fn name(&self) -> &'static str {
        "MSBFS"
    }

    fn initial_value(&self, v: VertexId) -> u64 {
        self.sources
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == v)
            .fold(0, |acc, (bit, _)| acc | (1 << bit))
    }

    fn edge_value(&self, _raw: u32) -> u32 {
        0
    }

    fn init_compute(&self, local: &mut u64, global: &u64) {
        *local = *global;
    }

    fn compute(&self, src: &u64, _st: &u32, _e: &u32, local: &mut u64) {
        *local |= *src;
    }

    fn update_condition(&self, local: &mut u64, old: &u64) -> bool {
        *local != *old
    }

    fn check_invariant(&self, prev: &[u64], curr: &[u64]) -> Result<(), String> {
        // OR-folding only sets bits, and only bits below the source count
        // exist; a cleared or out-of-range bit is corruption.
        let valid = if self.sources.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.sources.len()) - 1
        };
        for (v, (&p, &c)) in prev.iter().zip(curr).enumerate() {
            if p & !c != 0 {
                return Err(format!(
                    "MSBFS bitset of vertex {v} lost bits {p:#x} -> {c:#x}"
                ));
            }
            if c & !valid != 0 {
                return Err(format!("MSBFS bitset of vertex {v} has ghost bits {c:#x}"));
            }
        }
        Ok(())
    }

    fn seed_frontier(&self, _g: &Graph) -> Option<Vec<VertexId>> {
        let mut s = self.sources.clone();
        s.sort_unstable();
        s.dedup();
        Some(s)
    }
}

/// Oracle: per-source reachability composed into bitsets.
pub fn multi_source_reach(g: &Graph, sources: &[VertexId]) -> Vec<u64> {
    let mut out = vec![0u64; g.num_vertices() as usize];
    for (bit, &s) in sources.iter().enumerate() {
        for (v, reached) in cusha_graph::analysis::reachable_from(g, s)
            .into_iter()
            .enumerate()
        {
            if reached {
                out[v] |= 1 << bit;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_sequential;
    use cusha_core::{run, CuShaConfig};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Edge;

    #[test]
    fn matches_oracle_on_random_graph() {
        let g = rmat(&RmatConfig::graph500(8, 1200, 80));
        let sources: Vec<u32> = (0..40).map(|i| i * 6 + 1).collect();
        let prog = MultiSourceBfs::new(sources.clone());
        let oracle = multi_source_reach(&g, &sources);
        let seq = run_sequential(&prog, &g, 1000);
        assert!(seq.converged);
        assert_eq!(seq.values, oracle);
        for cfg in [
            CuShaConfig::gs().with_vertices_per_shard(32),
            CuShaConfig::cw().with_vertices_per_shard(32),
        ] {
            let out = run(&prog, &g, &cfg);
            assert_eq!(out.values, oracle, "{}", out.stats.engine);
        }
    }

    #[test]
    fn bit_zero_matches_single_bfs_reachability() {
        let g = rmat(&RmatConfig::graph500(7, 500, 81));
        let prog = MultiSourceBfs::new(vec![3, 99]);
        let out = run(&prog, &g, &CuShaConfig::cw().with_vertices_per_shard(16));
        let bfs = crate::bfs::bfs_levels(&g, 3);
        for (v, &level) in bfs.iter().enumerate() {
            assert_eq!(out.values[v] & 1 != 0, level != u32::MAX, "vertex {v}");
        }
    }

    #[test]
    fn disjoint_components_stay_disjoint() {
        // Two disconnected cliques; sources in each never cross.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    edges.push(Edge::new(a, b, 1));
                    edges.push(Edge::new(a + 4, b + 4, 1));
                }
            }
        }
        let g = Graph::new(8, edges);
        let prog = MultiSourceBfs::new(vec![0, 5]);
        let out = run(&prog, &g, &CuShaConfig::gs().with_vertices_per_shard(4));
        for v in 0..4 {
            assert_eq!(out.values[v], 0b01);
        }
        for v in 4..8 {
            assert_eq!(out.values[v], 0b10);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_sources_rejected() {
        MultiSourceBfs::new((0..65).collect());
    }

    #[test]
    fn empty_source_set_is_a_noop() {
        let g = rmat(&RmatConfig::graph500(6, 200, 82));
        let prog = MultiSourceBfs::new(vec![]);
        let out = run(&prog, &g, &CuShaConfig::cw().with_vertices_per_shard(16));
        assert!(out.values.iter().all(|&v| v == 0));
        assert_eq!(out.stats.iterations, 1);
    }
}
