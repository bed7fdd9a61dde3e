//! Circuit Simulation (Table 3, row "CS").
//!
//! Resistive-network node-voltage relaxation. Vertex state is
//! `(V, GsumOrA)`: for **anchor** nodes (voltage sources / ground) the
//! second field is a nonzero flag and `V` is pinned; for free nodes
//! `compute` accumulates `Σ G·V(src)` into `V` and `Σ G` into `GsumOrA`,
//! and `update_condition` divides to get the conductance-weighted average
//! of the neighbours — Jacobi relaxation toward the harmonic (Kirchhoff)
//! voltage solution. The control flow is a faithful transcription of the
//! Table 3 cell.

use cusha_core::{ColumnKey, VertexProgram};
use cusha_graph::VertexId;

/// Default convergence tolerance on voltage change.
pub const DEFAULT_TOLERANCE: f32 = 1e-4;

/// Node-voltage relaxation with two anchor terminals.
#[derive(Clone, Copy, Debug)]
pub struct CircuitSimulation {
    /// Vertex pinned to 1 V.
    pub vdd: VertexId,
    /// Vertex pinned to 0 V.
    pub gnd: VertexId,
    /// Convergence tolerance.
    pub tolerance: f32,
}

impl CircuitSimulation {
    /// 1 V at `vdd`, ground at `gnd`, default tolerance.
    pub fn new(vdd: VertexId, gnd: VertexId) -> Self {
        CircuitSimulation {
            vdd,
            gnd,
            tolerance: DEFAULT_TOLERANCE,
        }
    }
}

impl VertexProgram for CircuitSimulation {
    type V = (f32, f32); // (V, GsumOrA)
    type E = f32; // conductance G
    type SV = u32;
    const HAS_EDGE_VALUES: bool = true;
    const HAS_STATIC_VALUES: bool = false;
    const COMPUTE_COST: u64 = 4;

    fn name(&self) -> &'static str {
        "CS"
    }

    fn column_key(&self) -> Option<ColumnKey> {
        Some(ColumnKey::new(self.name(), 0))
    }

    fn initial_value(&self, v: VertexId) -> (f32, f32) {
        if v == self.vdd {
            (1.0, 1.0)
        } else if v == self.gnd {
            (0.0, 1.0)
        } else {
            (0.0, 0.0)
        }
    }

    fn edge_value(&self, raw: u32) -> f32 {
        raw as f32 / 64.0 // conductances in (0, 1]
    }

    fn init_compute(&self, local: &mut (f32, f32), _global: &(f32, f32)) {
        *local = (0.0, 0.0);
    }

    fn compute(&self, src: &(f32, f32), _st: &u32, g: &f32, local: &mut (f32, f32)) {
        local.0 += src.0 * *g;
        local.1 += *g;
    }

    fn update_condition(&self, local: &mut (f32, f32), old: &(f32, f32)) -> bool {
        if old.1 != 0.0 {
            // Anchor: keep the pinned voltage, never signal change.
            local.1 = 1.0;
            local.0 = old.0;
            false
        } else if local.1 != 0.0 {
            local.0 /= local.1;
            local.1 = 0.0;
            (local.0 - old.0).abs() > self.tolerance
        } else {
            false
        }
    }

    fn check_invariant(&self, _prev: &[(f32, f32)], curr: &[(f32, f32)]) -> Result<(), String> {
        // Anchors stay pinned, and every free node's voltage is a
        // conductance-weighted average of its neighbours, so all voltages
        // lie between ground (0 V) and the supply (1 V).
        if curr[self.vdd as usize] != (1.0, 1.0) {
            return Err(format!("CS vdd node {} left 1 V", self.vdd));
        }
        if curr[self.gnd as usize] != (0.0, 1.0) {
            return Err(format!("CS gnd node {} left 0 V", self.gnd));
        }
        for (v, &(volt, flag)) in curr.iter().enumerate() {
            if !volt.is_finite() || !(0.0..=1.0).contains(&volt) || !(flag == 0.0 || flag == 1.0) {
                return Err(format!("CS state of node {v} is ({volt}, {flag})"));
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
    use cusha_graph::{Edge, Graph};

    /// A chain vdd - a - b - gnd of equal resistors (bidirectional edges).
    fn resistor_chain() -> Graph {
        let mut edges = Vec::new();
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            edges.push(Edge::new(u, v, 64));
            edges.push(Edge::new(v, u, 64));
        }
        Graph::new(4, edges)
    }

    #[test]
    fn voltage_divider_splits_evenly() {
        let g = resistor_chain();
        let cs = CircuitSimulation::new(0, 3);
        let seq = run_sequential(&cs, &g, 100_000);
        assert!(seq.converged);
        assert!((seq.values[0].0 - 1.0).abs() < 1e-6, "vdd pinned");
        assert!((seq.values[3].0 - 0.0).abs() < 1e-6, "gnd pinned");
        assert!(
            (seq.values[1].0 - 2.0 / 3.0).abs() < 5e-3,
            "got {}",
            seq.values[1].0
        );
        assert!(
            (seq.values[2].0 - 1.0 / 3.0).abs() < 5e-3,
            "got {}",
            seq.values[2].0
        );
    }

    #[test]
    fn cusha_matches_sequential_voltages() {
        let g = resistor_chain();
        let cs = CircuitSimulation::new(0, 3);
        let seq = run_sequential(&cs, &g, 100_000);
        for cfg in [
            CuShaConfig::gs().with_vertices_per_shard(2),
            CuShaConfig::cw().with_vertices_per_shard(2),
        ] {
            let out = run(&cs, &g, &cfg);
            assert!(out.stats.converged);
            let a: Vec<f32> = out.values.iter().map(|v| v.0).collect();
            let b: Vec<f32> = seq.values.iter().map(|v| v.0).collect();
            crate::assert_approx_eq(&a, &b, 1e-2);
        }
    }

    #[test]
    fn unequal_conductances_shift_the_node_voltage() {
        // vdd -(G=1)- node -(G=0.25)- gnd: V(node) = 1*1/(1+0.25) = 0.8.
        let mut edges = Vec::new();
        for (u, v, w) in [(0u32, 1u32, 64), (1, 2, 16)] {
            edges.push(Edge::new(u, v, w));
            edges.push(Edge::new(v, u, w));
        }
        let g = Graph::new(3, edges);
        let cs = CircuitSimulation::new(0, 2);
        let seq = run_sequential(&cs, &g, 100_000);
        assert!(seq.converged);
        assert!(
            (seq.values[1].0 - 0.8).abs() < 5e-3,
            "got {}",
            seq.values[1].0
        );
    }

    #[test]
    fn floating_nodes_stay_at_zero() {
        // A node with no edges never gets a conductance sum: stays (0, 0).
        let g = Graph::new(3, vec![Edge::new(0, 1, 64), Edge::new(1, 0, 64)]);
        let cs = CircuitSimulation::new(0, 1);
        let seq = run_sequential(&cs, &g, 100);
        assert!(seq.converged);
        assert_eq!(seq.values[2], (0.0, 0.0));
    }
}
