//! Heat Simulation (Table 3, row "HS").
//!
//! Explicit heat diffusion on the graph: each vertex carries `(Q, Q_new)`;
//! `compute` accumulates `(Q(src) - Q(v)) * coeff(edge)` into `Q_new`, and
//! `update_condition` commits `Q = Q_new` while the change exceeds the
//! tolerance. Edge coefficients map to small conductances so the explicit
//! scheme is stable (`Σ coeff` per vertex below 1 on the graphs we build).

use cusha_core::{ColumnKey, VertexProgram};
use cusha_graph::VertexId;

/// Default convergence tolerance on temperature change. Temperatures span
/// `[0, 100)`, so `1e-2` is a 0.01 % relative stop — tight enough for the
/// physics, loose enough to cut diffusion's long geometric tail.
pub const DEFAULT_TOLERANCE: f32 = 1e-2;

/// Explicit heat-diffusion iteration.
#[derive(Clone, Copy, Debug)]
pub struct HeatSimulation {
    /// Convergence tolerance.
    pub tolerance: f32,
    /// Scales raw weight seeds into conductances; lower = more stable.
    pub coeff_scale: f32,
}

impl HeatSimulation {
    /// Defaults: tolerance `1e-3`, coefficient scale `0.5`. Coefficients
    /// are additionally normalized by each destination's in-degree (see
    /// [`VertexProgram::edge_values`]), so the per-vertex conductance sum
    /// stays below `coeff_scale` and the explicit scheme is stable on
    /// arbitrary (e.g. power-law) graphs.
    pub fn new() -> Self {
        HeatSimulation {
            tolerance: DEFAULT_TOLERANCE,
            coeff_scale: 0.5,
        }
    }

    /// Custom tolerance, default coefficient scale.
    pub fn with_tolerance(tolerance: f32) -> Self {
        HeatSimulation {
            tolerance,
            ..Self::new()
        }
    }

    /// Deterministic initial temperature in `[0, 100)`.
    fn seed_temperature(v: VertexId) -> f32 {
        (v.wrapping_mul(2654435761) % 100) as f32
    }
}

impl Default for HeatSimulation {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexProgram for HeatSimulation {
    type V = (f32, f32); // (Q, Q_new)
    type E = f32; // coeff
    type SV = u32;
    const HAS_EDGE_VALUES: bool = true;
    const HAS_STATIC_VALUES: bool = false;
    const COMPUTE_COST: u64 = 3;

    fn name(&self) -> &'static str {
        "HS"
    }

    fn column_key(&self) -> Option<ColumnKey> {
        // The edge values scale by `coeff_scale`.
        Some(ColumnKey::new(
            self.name(),
            self.coeff_scale.to_bits().into(),
        ))
    }

    fn initial_value(&self, v: VertexId) -> (f32, f32) {
        let q = Self::seed_temperature(v);
        (q, q)
    }

    fn edge_value(&self, raw: u32) -> f32 {
        // Unnormalized mapping; engines use `edge_values`, which divides by
        // the destination's in-degree for unconditional stability.
        (raw as f32 / 64.0) * self.coeff_scale
    }

    fn edge_values(&self, g: &cusha_graph::Graph) -> Vec<f32> {
        let in_deg = g.in_degrees();
        g.edges()
            .iter()
            .map(|e| self.edge_value(e.weight) / in_deg[e.dst as usize].max(1) as f32)
            .collect()
    }

    fn init_compute(&self, local: &mut (f32, f32), global: &(f32, f32)) {
        local.0 = global.0;
        local.1 = local.0;
    }

    fn compute(&self, src: &(f32, f32), _st: &u32, coeff: &f32, local: &mut (f32, f32)) {
        local.1 += (src.0 - local.0) * *coeff;
    }

    fn update_condition(&self, local: &mut (f32, f32), _old: &(f32, f32)) -> bool {
        let changed = (local.0 - local.1).abs() > self.tolerance;
        if changed {
            local.0 = local.1;
        }
        changed
    }

    fn check_invariant(&self, _prev: &[(f32, f32)], curr: &[(f32, f32)]) -> Result<(), String> {
        // With per-vertex conductance sums below 1, each committed `Q` is a
        // convex combination of existing temperatures, so the range of the
        // initial seeds `[0, 100)` can never be escaped.
        for (v, &(q, q_new)) in curr.iter().enumerate() {
            if !q.is_finite() || !q_new.is_finite() || !(0.0..100.0).contains(&q) {
                return Err(format!("HS temperature of vertex {v} is ({q}, {q_new})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_sequential;
    use cusha_core::{run, CuShaConfig};
    use cusha_graph::generators::lattice::lattice2d;
    use cusha_graph::{Edge, Graph};

    #[test]
    fn two_vertices_exchange_heat_toward_equilibrium() {
        // Symmetric pair at 0 and 100: both drift toward each other.
        let mut hs = HeatSimulation::with_tolerance(1e-4);
        hs.coeff_scale = 0.2;
        let g = Graph::new(2, vec![Edge::new(0, 1, 64), Edge::new(1, 0, 64)]);
        let init: Vec<f32> = (0..2).map(|v| hs.initial_value(v).0).collect();
        let seq = run_sequential(&hs, &g, 100_000);
        assert!(seq.converged);
        let (a, b) = (seq.values[0].0, seq.values[1].0);
        // Heat exchange narrows the gap.
        assert!((a - b).abs() < (init[0] - init[1]).abs());
    }

    #[test]
    fn isolated_vertices_never_change() {
        let g = Graph::empty(3);
        let hs = HeatSimulation::new();
        let seq = run_sequential(&hs, &g, 10);
        assert!(seq.converged);
        for v in 0..3u32 {
            assert_eq!(seq.values[v as usize].0, hs.initial_value(v).0);
        }
    }

    #[test]
    fn cusha_matches_sequential_temperatures() {
        let g = lattice2d(8, 8, 1.0, 0, 3);
        let hs = HeatSimulation::with_tolerance(1e-4);
        let seq = run_sequential(&hs, &g, 100_000);
        assert!(seq.converged);
        for cfg in [
            CuShaConfig::gs().with_vertices_per_shard(16),
            CuShaConfig::cw().with_vertices_per_shard(16),
        ] {
            let out = run(&hs, &g, &cfg);
            assert!(out.stats.converged);
            let a: Vec<f32> = out.values.iter().map(|v| v.0).collect();
            let b: Vec<f32> = seq.values.iter().map(|v| v.0).collect();
            crate::assert_approx_eq(&a, &b, 0.5);
        }
    }

    #[test]
    fn diffusion_is_stable_on_lattice() {
        // Temperatures must stay within the initial range (maximum
        // principle for a stable explicit scheme).
        let g = lattice2d(10, 10, 1.0, 0, 4);
        let seq = run_sequential(&HeatSimulation::new(), &g, 10_000);
        assert!(seq.converged);
        for v in &seq.values {
            assert!(v.0 >= -1.0 && v.0 <= 101.0, "temperature {}", v.0);
        }
    }
}
