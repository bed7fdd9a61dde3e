//! One module per paper artifact (see DESIGN.md's per-experiment index).
//!
//! Each module exposes `run(..) -> String` producing the paper-formatted
//! report; the `repro` binary prints them. Artifacts that derive from the
//! shared result matrix take `&MatrixResult`; the purely structural ones
//! (Table 1, Figures 1, 9, 11) take a [`Ctx`].

pub mod ablation;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod frontier_matrix;
pub mod layouts;
pub mod multi_gpu_scaling;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use cusha_graph::surrogates::Dataset;

/// Common experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Scale divisor for the Table-1 dataset surrogates.
    pub scale: u64,
    /// Scale divisor for the Section-5.2 RMAT sweep graphs.
    pub rmat_scale: u64,
    /// Convergence-loop cap (bounds the tolerance-driven benchmarks).
    pub max_iterations: u32,
    /// Stream per-cell progress to stderr.
    pub verbose: bool,
    /// Host worker threads for simulator matrix cells (`0` = the host's
    /// available parallelism). Never changes a result — only the host wall
    /// clock.
    pub jobs: usize,
}

impl Default for Ctx {
    /// Default scales keep per-iteration kernel work well above the fixed
    /// per-iteration launch/readback latency (where the paper's regime
    /// lives) while finishing a full `repro all` in tens of minutes.
    fn default() -> Self {
        Ctx {
            scale: 64,
            rmat_scale: 64,
            max_iterations: 300,
            verbose: false,
            jobs: 0,
        }
    }
}

/// The largest `scale` every Table-1 surrogate can be generated at:
/// [`Dataset::generate`] needs two vertices of the smallest dataset.
pub fn max_scale() -> u64 {
    let smallest = Dataset::ALL.iter().map(|d| d.paper_size().1).min();
    smallest.map_or(1, |vertices| vertices / 2)
}

/// The paper's RMAT sensitivity graphs: `(name, edges, vertices)` at full
/// scale ("a `i_j` graph has around `i` million edges and `j` million
/// vertices", Section 5.2).
pub const RMAT_SWEEP: [(&str, u64, u64); 9] = [
    ("16_2", 16_000_000, 2_000_000),
    ("16_4", 16_000_000, 4_000_000),
    ("16_8", 16_000_000, 8_000_000),
    ("67_4", 67_000_000, 4_000_000),
    ("67_8", 67_000_000, 8_000_000),
    ("67_16", 67_000_000, 16_000_000),
    ("134_8", 134_000_000, 8_000_000),
    ("134_16", 134_000_000, 16_000_000),
    ("134_32", 134_000_000, 32_000_000),
];

/// Generates one RMAT sweep graph at `1/scale` of its full size.
pub fn rmat_sweep_graph(edges: u64, vertices: u64, scale: u64) -> cusha_graph::Graph {
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    let target_v = (vertices / scale).max(4);
    let log2 = (target_v as f64).log2().round().max(2.0) as u32;
    let n = 1u64 << log2;
    let e = (n as f64 * (edges as f64 / vertices as f64)) as u64;
    rmat(&RmatConfig::graph500(log2, e, 0x5EED ^ edges ^ vertices))
}

/// Scales a full-size `|N|` for a graph shrunk by `scale`: window size is
/// `|E||N|²/|V|²`, so preserving it under `|E|,|V| -> /scale` requires
/// `|N| -> /sqrt(scale)`.
pub fn scaled_n(n_full: u32, scale: u64) -> u32 {
    ((n_full as f64 / (scale as f64).sqrt()).round() as u32).max(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_graph_preserves_sparsity() {
        let g = rmat_sweep_graph(67_000_000, 8_000_000, 4096);
        let ratio = g.avg_degree();
        assert!(
            (ratio - 67.0 / 8.0).abs() / (67.0 / 8.0) < 0.2,
            "ratio {ratio}"
        );
    }

    #[test]
    fn scaled_n_preserves_window_size() {
        use cusha_core::windows::expected_window_size;
        let full = expected_window_size(67_000_000, 8_000_000, 3072);
        let scale = 256;
        let scaled =
            expected_window_size(67_000_000 / scale, 8_000_000 / scale, scaled_n(3072, scale));
        assert!((full - scaled).abs() / full < 0.1, "{full} vs {scaled}");
    }

    #[test]
    fn max_scale_is_the_last_divisor_that_generates() {
        assert_eq!(max_scale(), 400_727 / 2);
        for ds in Dataset::ALL {
            assert!(ds.generate(max_scale()).num_vertices() >= 2, "{ds}");
        }
    }

    #[test]
    fn scaled_n_floors_at_warp() {
        assert_eq!(scaled_n(64, 1 << 20), 32);
    }
}
