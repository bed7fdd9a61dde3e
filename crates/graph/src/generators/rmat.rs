//! R-MAT recursive-matrix graph generator (Chakrabarti, Zhan, Faloutsos;
//! paper reference \[5\]).
//!
//! Each edge is placed by recursively descending into one of the four
//! quadrants of the adjacency matrix with probabilities `(a, b, c, d)`.
//! Skewed probabilities (`a` ≫ `d`) produce power-law degree distributions
//! resembling social and web graphs — exactly the generator the paper's own
//! Section 5.2 sensitivity study uses for its `i_j` graphs.

use crate::generators::DEFAULT_MAX_WEIGHT;
use crate::types::{Edge, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// R-MAT parameters.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log₂ of the number of vertices (vertex count is `1 << scale`).
    pub scale: u32,
    /// Number of edges to generate.
    pub edges: u64,
    /// Quadrant probabilities; must be positive and sum to 1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability (`1 - a - b - c`).
    pub d: f64,
    /// Per-level probability noise, as in the reference implementation, to
    /// avoid unnaturally smooth degree staircases. 0.0 disables it.
    pub noise: f64,
    /// Largest raw edge weight (weights are uniform in `1..=max_weight`).
    pub max_weight: u32,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500-style defaults: `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`.
    pub fn graph500(scale: u32, edges: u64, seed: u64) -> Self {
        RmatConfig {
            scale,
            edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            noise: 0.1,
            max_weight: DEFAULT_MAX_WEIGHT,
            seed,
        }
    }

    /// Milder skew, closer to co-purchase networks such as Amazon0312.
    pub fn mild(scale: u32, edges: u64, seed: u64) -> Self {
        RmatConfig {
            a: 0.45,
            b: 0.22,
            c: 0.22,
            d: 0.11,
            ..Self::graph500(scale, edges, seed)
        }
    }

    /// Checks the parameters, returning the first defect: the scale must
    /// leave vertex ids in `u32`, the edge count in [`crate::EdgeId`], and the
    /// quadrant probabilities must be positive and sum to 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.scale > 31 {
            return Err(format!("scale {} too large for u32 ids", self.scale));
        }
        if self.edges > crate::EdgeId::MAX as u64 {
            return Err(format!(
                "{} edges do not fit the 32-bit edge-id space",
                self.edges
            ));
        }
        let sum = self.a + self.b + self.c + self.d;
        if (sum - 1.0).abs() >= 1e-9 {
            return Err(format!("quadrant probabilities must sum to 1 (got {sum})"));
        }
        if !(self.a > 0.0 && self.b > 0.0 && self.c > 0.0 && self.d > 0.0) {
            return Err("quadrant probabilities must be positive".into());
        }
        Ok(())
    }
}

/// Generates an R-MAT graph. Parallel edges and self-loops are kept (as in
/// the reference model); callers wanting a simple graph can route through
/// [`crate::GraphBuilder`].
///
/// # Panics
/// Panics on parameters [`RmatConfig::validate`] refuses.
pub fn rmat(cfg: &RmatConfig) -> Graph {
    if let Err(defect) = cfg.validate() {
        panic!("{defect}");
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = 1u32 << cfg.scale;
    let mut edges = Vec::with_capacity(cfg.edges as usize);
    for _ in 0..cfg.edges {
        let (src, dst) = place_edge(cfg, &mut rng);
        let weight = rng.gen_range(1..=cfg.max_weight);
        edges.push(Edge::new(src, dst, weight));
    }
    Graph::new(n, edges)
}

/// Recursively descends the adjacency matrix to choose one cell.
fn place_edge(cfg: &RmatConfig, rng: &mut SmallRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for level in (0..cfg.scale).rev() {
        // Perturb the quadrant probabilities slightly at each level.
        let jitter = |p: f64, rng: &mut SmallRng| -> f64 {
            if cfg.noise > 0.0 {
                p * (1.0 + cfg.noise * (rng.gen::<f64>() - 0.5))
            } else {
                p
            }
        };
        let a = jitter(cfg.a, rng);
        let b = jitter(cfg.b, rng);
        let c = jitter(cfg.c, rng);
        let d = jitter(cfg.d, rng);
        let total = a + b + c + d;
        let r = rng.gen::<f64>() * total;
        let (down, right) = if r < a {
            (0, 0)
        } else if r < a + b {
            (0, 1)
        } else if r < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        };
        src |= down << level;
        dst |= right << level;
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::{DegreeDistribution, Direction};

    #[test]
    fn generates_requested_counts() {
        let g = rmat(&RmatConfig::graph500(10, 8192, 42));
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 8192);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = rmat(&RmatConfig::graph500(8, 1000, 7));
        let b = rmat(&RmatConfig::graph500(8, 1000, 7));
        assert_eq!(a, b);
        let c = rmat(&RmatConfig::graph500(8, 1000, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn weights_in_range() {
        let g = rmat(&RmatConfig::graph500(8, 2000, 1));
        assert!(g.edges().iter().all(|e| (1..=64).contains(&e.weight)));
    }

    #[test]
    fn skewed_parameters_produce_skewed_degrees() {
        let skewed = rmat(&RmatConfig::graph500(12, 1 << 15, 3));
        let dist = DegreeDistribution::of(&skewed, Direction::In);
        assert!(
            dist.skew() > 4.0,
            "graph500 RMAT should have heavy-tailed in-degrees, skew = {}",
            dist.skew()
        );
        // Uniform quadrants ~ Erdős–Rényi-like: much flatter.
        let flat = rmat(&RmatConfig {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            noise: 0.0,
            ..RmatConfig::graph500(12, 1 << 15, 3)
        });
        let flat_dist = DegreeDistribution::of(&flat, Direction::In);
        assert!(flat_dist.skew() < dist.skew());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        rmat(&RmatConfig {
            a: 0.5,
            b: 0.5,
            c: 0.5,
            d: 0.5,
            ..RmatConfig::graph500(4, 8, 0)
        });
    }

    #[test]
    fn validate_names_the_defect_without_panicking() {
        assert!(RmatConfig::graph500(31, u32::MAX as u64, 0)
            .validate()
            .is_ok());
        let err = RmatConfig::graph500(32, 10, 0).validate().unwrap_err();
        assert!(err.contains("scale 32"), "{err}");
        let edges = 9_999_999_999_999_999;
        let err = RmatConfig::graph500(10, edges, 0).validate().unwrap_err();
        assert!(err.contains(&edges.to_string()), "{err}");
    }
}
