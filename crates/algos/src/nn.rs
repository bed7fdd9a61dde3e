//! Neural Network relaxation (Table 3, row "NN"; paper reference \[3\]).
//!
//! Each vertex is a neuron whose activation is `tanh(Σ w(u,v) · x(u))` over
//! incoming synapses; iteration runs the recurrent network to a fixed point.
//! Raw weight seeds map to small symmetric synaptic weights so the map is a
//! contraction on the graphs we generate, and a tolerance bounds the stop
//! condition exactly as in Table 3.

use cusha_core::{ColumnKey, VertexProgram};
use cusha_graph::VertexId;

/// Default convergence tolerance on activation change.
pub const DEFAULT_TOLERANCE: f32 = 1e-3;

/// Recurrent-network fixed-point iteration.
#[derive(Clone, Copy, Debug)]
pub struct NeuralNetwork {
    /// Convergence tolerance.
    pub tolerance: f32,
    /// Scales raw weight seeds into synaptic weights.
    pub weight_scale: f32,
}

impl NeuralNetwork {
    /// Network with [`DEFAULT_TOLERANCE`] and the default weight scale.
    /// Weights are additionally normalized by each destination's in-degree
    /// (see [`VertexProgram::edge_values`]), keeping the per-neuron sum of
    /// |weights| below `weight_scale / 2` — a contraction on arbitrary
    /// (e.g. power-law) graphs.
    pub fn new() -> Self {
        NeuralNetwork {
            tolerance: DEFAULT_TOLERANCE,
            weight_scale: 1.6,
        }
    }

    /// Network with a custom tolerance.
    pub fn with_tolerance(tolerance: f32) -> Self {
        NeuralNetwork {
            tolerance,
            ..Self::new()
        }
    }

    /// Deterministic pseudo-random initial activation in `(-0.5, 0.5)`.
    fn seed_activation(v: VertexId) -> f32 {
        // Knuth multiplicative hash for a decorrelated but reproducible seed.
        let h = v.wrapping_mul(2654435761);
        (h % 1000) as f32 / 1000.0 - 0.5
    }
}

impl Default for NeuralNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexProgram for NeuralNetwork {
    type V = f32;
    type E = f32;
    type SV = u32;
    const HAS_EDGE_VALUES: bool = true;
    const HAS_STATIC_VALUES: bool = false;

    fn name(&self) -> &'static str {
        "NN"
    }

    fn column_key(&self) -> Option<ColumnKey> {
        // The edge values scale by `weight_scale`.
        Some(ColumnKey::new(
            self.name(),
            self.weight_scale.to_bits().into(),
        ))
    }

    fn initial_value(&self, v: VertexId) -> f32 {
        Self::seed_activation(v)
    }

    fn edge_value(&self, raw: u32) -> f32 {
        // Map 1..=64 onto [-scale/2, scale/2]: symmetric, small magnitudes.
        // Engines use `edge_values`, which also divides by the
        // destination's in-degree for unconditional contraction.
        ((raw as f32) / 64.0 - 0.5) * self.weight_scale
    }

    fn edge_values(&self, g: &cusha_graph::Graph) -> Vec<f32> {
        let in_deg = g.in_degrees();
        g.edges()
            .iter()
            .map(|e| self.edge_value(e.weight) / in_deg[e.dst as usize].max(1) as f32)
            .collect()
    }

    fn init_compute(&self, local: &mut f32, _global: &f32) {
        *local = 0.0;
    }

    fn compute(&self, src: &f32, _st: &u32, edge: &f32, local: &mut f32) {
        *local += *src * *edge;
    }

    fn update_condition(&self, local: &mut f32, old: &f32) -> bool {
        *local = local.tanh();
        (*local - *old).abs() > self.tolerance
    }

    fn check_invariant(&self, _prev: &[f32], curr: &[f32]) -> Result<(), String> {
        // Activations are either the initial seeds in (-0.5, 0.5) or a
        // committed tanh, so every value lies in [-1, 1] and is finite.
        for (v, &x) in curr.iter().enumerate() {
            if !x.is_finite() || !(-1.0..=1.0).contains(&x) {
                return Err(format!("NN activation of neuron {v} is {x}"));
            }
        }
        Ok(())
    }
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
    fn isolated_neurons_settle_at_zero() {
        // No inputs: activation becomes tanh(0) = 0 after one step.
        let g = Graph::empty(4);
        let seq = run_sequential(&NeuralNetwork::new(), &g, 100);
        assert!(seq.converged);
        assert!(seq.values.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sequential_converges_on_random_graph() {
        let g = rmat(&RmatConfig::graph500(7, 800, 16));
        let seq = run_sequential(&NeuralNetwork::new(), &g, 10_000);
        assert!(seq.converged, "contractive weights should converge");
        // Fixed point: x = tanh(sum of w x) for every vertex.
        // Verify residual is within tolerance-scale error.
        let out_check = run_sequential(&NeuralNetwork::with_tolerance(1e-5), &g, 10_000);
        assert!(out_check.converged);
    }

    #[test]
    fn cusha_matches_sequential_fixed_point() {
        let g = rmat(&RmatConfig::graph500(6, 300, 17));
        let tol = 1e-5;
        let seq = run_sequential(&NeuralNetwork::with_tolerance(tol), &g, 10_000);
        for cfg in [
            CuShaConfig::gs().with_vertices_per_shard(16),
            CuShaConfig::cw().with_vertices_per_shard(16),
        ] {
            let out = run(&NeuralNetwork::with_tolerance(tol), &g, &cfg);
            assert!(out.stats.converged);
            assert_approx_eq(&out.values, &seq.values, 1e-3);
        }
    }

    #[test]
    fn two_neuron_loop_decays() {
        // Mutual small positive weights: the only fixed point is (0, 0).
        let g = Graph::new(2, vec![Edge::new(0, 1, 64), Edge::new(1, 0, 64)]);
        let seq = run_sequential(&NeuralNetwork::with_tolerance(1e-6), &g, 100_000);
        assert!(seq.converged);
        assert!(seq.values[0].abs() < 1e-3 && seq.values[1].abs() < 1e-3);
    }
}
