#![warn(missing_docs)]

//! The eight graph benchmarks of the paper's Table 3, expressed as
//! [`cusha_core::VertexProgram`]s, plus sequential reference oracles.
//!
//! | Module | Benchmark | Vertex | Edge | Static |
//! |---|---|---|---|---|
//! | [`bfs`] | Breadth-First Search | `u32` level | — | — |
//! | [`sssp`] | Single-Source Shortest Path | `u32` dist | `u32` weight | — |
//! | [`pagerank`] | PageRank | `f32` rank | — | `u32` degree |
//! | [`cc`] | Connected Components | `u32` label | — | — |
//! | [`sswp`] | Single-Source Widest Path | `u32` width | `u32` width | — |
//! | [`nn`] | Neural Network | `f32` activation | `f32` weight | — |
//! | [`heat`] | Heat Simulation | `(f32, f32)` (Q, Q_new) | `f32` coeff | — |
//! | [`circuit`] | Circuit Simulation | `(f32, f32)` (V, Gsum/anchor) | `f32` G | — |
//!
//! Every program is exercised by four executors that must agree: the CuSha
//! engine (GS and CW), the VWC-CSR baseline, the MTCPU baseline, and the
//! Gauss-Seidel [`mod@reference`] executor in this crate. The monotone integer
//! algorithms (BFS, SSSP, CC, SSWP) additionally have *independent* oracles
//! (queue BFS, Dijkstra, union-find, max-min Dijkstra) that do not share a
//! line of code with the vertex programs.

pub mod batch;
pub mod bfs;
pub mod cc;
pub mod circuit;
pub mod heat;
pub mod msbfs;
pub mod nn;
pub mod pagerank;
pub mod reference;
pub mod sssp;
pub mod sswp;

pub use batch::{extract_lane, plan_pairs, FusedPair, TraversalKind};
pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use circuit::CircuitSimulation;
pub use heat::HeatSimulation;
pub use msbfs::MultiSourceBfs;
pub use nn::NeuralNetwork;
pub use pagerank::PageRank;
pub use reference::run_sequential;
pub use sssp::Sssp;
pub use sswp::Sswp;

/// "Infinity" marker for the integer-valued path algorithms.
pub const INF: u32 = u32::MAX;

/// All benchmark names, in the paper's Table 2/4 column order.
pub const BENCHMARK_NAMES: [&str; 8] = ["BFS", "SSSP", "PR", "CC", "SSWP", "NN", "HS", "CS"];

/// Asserts two `f32` slices agree within `tol` (used by the float-valued
/// algorithms, whose different-but-equivalent execution orders stop within
/// tolerance of the same fixed point).
pub fn assert_approx_eq(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= tol, "index {i}: {x} vs {y} (tol {tol})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_core::{Value, VertexProgram};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Graph;

    fn bits<V: Value>(column: Vec<V>) -> Vec<u64> {
        column.into_iter().map(V::to_bits).collect()
    }

    /// Two instances of a program that agree on its column key.
    fn same_key_same_columns<P: VertexProgram>(a: P, b: P, g: &Graph) {
        assert!(P::HAS_STATIC_VALUES || P::HAS_EDGE_VALUES, "{}", a.name());
        let key = a.column_key();
        assert!(key.is_some() && key == b.column_key(), "{}", a.name());
        assert_eq!(bits(a.static_values(g)), bits(b.static_values(g)));
        assert_eq!(bits(a.edge_values(g)), bits(b.edge_values(g)));
    }

    /// Every in-tree program with a constant column declares a key, and
    /// instances that differ only in what no column reads (sources, lanes,
    /// tolerances) share it and derive equal columns.
    #[test]
    fn equal_column_keys_derive_equal_columns() {
        let g = rmat(&RmatConfig::graph500(8, 1500, 3));
        same_key_same_columns(Sssp::new(0), Sssp::new(9), &g);
        same_key_same_columns(Sswp::new(0), Sswp::new(9), &g);
        same_key_same_columns(PageRank::new(), PageRank::with_tolerance(0.5), &g);
        let (hs, nn) = (
            HeatSimulation::with_tolerance(0.5),
            NeuralNetwork::with_tolerance(0.5),
        );
        same_key_same_columns(HeatSimulation::new(), hs, &g);
        same_key_same_columns(NeuralNetwork::new(), nn, &g);
        same_key_same_columns(
            CircuitSimulation::new(0, 1),
            CircuitSimulation::new(2, 3),
            &g,
        );
        for kind in [TraversalKind::Bfs, TraversalKind::Sssp, TraversalKind::Sswp] {
            let (a, b) = ([Some(0), None], [Some(4), Some(5)]);
            same_key_same_columns(FusedPair::new(kind, a), FusedPair::new(kind, b), &g);
        }
        // The rest have no column to share.
        let none = |edge: bool, stat: bool| !edge && !stat;
        assert!(none(Bfs::HAS_EDGE_VALUES, Bfs::HAS_STATIC_VALUES));
        let cc = (
            ConnectedComponents::HAS_EDGE_VALUES,
            ConnectedComponents::HAS_STATIC_VALUES,
        );
        assert!(none(cc.0, cc.1));
        let ms = (
            MultiSourceBfs::HAS_EDGE_VALUES,
            MultiSourceBfs::HAS_STATIC_VALUES,
        );
        assert!(none(ms.0, ms.1));
    }

    /// What a column reads is in its key: a scale, a fused kind, the program.
    #[test]
    fn what_a_column_reads_is_in_its_key() {
        let hs = HeatSimulation {
            coeff_scale: 0.2,
            ..HeatSimulation::new()
        };
        assert_ne!(hs.column_key(), HeatSimulation::new().column_key());
        let nn = NeuralNetwork {
            weight_scale: 0.4,
            ..NeuralNetwork::new()
        };
        assert_ne!(nn.column_key(), NeuralNetwork::new().column_key());
        let kinds = [TraversalKind::Bfs, TraversalKind::Sssp, TraversalKind::Sswp];
        let fused = kinds.map(|k| FusedPair::new(k, [Some(0), None]).column_key());
        assert!(fused[0] != fused[1] && fused[1] != fused[2] && fused[0] != fused[2]);
        assert_ne!(Sssp::new(0).column_key(), Sswp::new(0).column_key());
        assert_ne!(fused[1], Sssp::new(0).column_key());
    }
}
