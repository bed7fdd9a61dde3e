//! The user-facing vertex-centric programming interface.
//!
//! Mirrors the CUDA API of the paper's Figure 6 / Table 3: the user supplies
//! three device functions (`init_compute`, `compute`, `update_condition`)
//! over three plain-data types (`Vertex`, `Edge`, `StaticVertex`), and the
//! framework runs them over every shard. The same trait drives the CuSha
//! engine, the VWC-CSR baseline, the multithreaded CPU baseline, and the
//! sequential oracle, so all four provably compute the same function.

use cusha_graph::{Graph, VertexId};
use cusha_simt::Pod;

/// A value storable in (simulated) device memory and in the CPU baseline's
/// atomically-shared arrays.
///
/// `to_bits` / `from_bits` must round-trip exactly; the CPU engine stores
/// values as `AtomicU64` bit patterns.
pub trait Value: Pod + PartialEq + std::fmt::Debug {
    /// Bit-pattern encoding (for lock-free CPU storage).
    fn to_bits(self) -> u64;
    /// Bit-pattern decoding.
    fn from_bits(bits: u64) -> Self;
}

impl Value for u32 {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl Value for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl Value for f32 {
    fn to_bits(self) -> u64 {
        f32::to_bits(self) as u64
    }
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl Value for f64 {
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl Value for (f32, f32) {
    fn to_bits(self) -> u64 {
        ((f32::to_bits(self.0) as u64) << 32) | f32::to_bits(self.1) as u64
    }
    fn from_bits(bits: u64) -> Self {
        (
            f32::from_bits((bits >> 32) as u32),
            f32::from_bits(bits as u32),
        )
    }
}

impl Value for (u32, u32) {
    fn to_bits(self) -> u64 {
        ((self.0 as u64) << 32) | self.1 as u64
    }
    fn from_bits(bits: u64) -> Self {
        ((bits >> 32) as u32, bits as u32)
    }
}

/// What fixes a program's constant per-entry columns — its
/// [`VertexProgram::static_values`] and [`VertexProgram::edge_values`] — on
/// a graph. A layout derives the columns once per key and shares them with
/// every later run over it, so two programs with equal keys must derive
/// equal columns from every graph. The program declares it
/// ([`VertexProgram::column_key`]); nothing samples the columns to guess it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColumnKey {
    /// The derivation, by convention the program's name.
    pub derive: &'static str,
    /// Every parameter the derivation reads, as bits (0 when none).
    pub params: u64,
}

impl ColumnKey {
    /// The key of derivation `derive` over parameters `params`.
    pub const fn new(derive: &'static str, params: u64) -> Self {
        ColumnKey { derive, params }
    }
}

/// A vertex-centric graph algorithm, in the paper's three-function form.
///
/// Requirements carried over from the paper (Section 4):
///
/// * [`VertexProgram::compute`] must be **commutative and associative** in
///   its application order over a vertex's incoming edges — the framework
///   applies it in a nondeterministic (shard-internal) order under an
///   atomic-update discipline.
/// * [`VertexProgram::update_condition`] may carry per-vertex logic (e.g.
///   PageRank's damping) by mutating `local` before returning; returning
///   `true` publishes `local` and schedules another iteration.
pub trait VertexProgram: Sync {
    /// Mutable per-vertex state (`Vertex` struct of Table 3).
    type V: Value;
    /// Per-edge constant (`Edge` struct); use `u32` and set
    /// [`VertexProgram::HAS_EDGE_VALUES`] to `false` when unused.
    type E: Value;
    /// Per-vertex constant (`StaticVertex` struct, e.g. PageRank's
    /// neighbour count); set [`VertexProgram::HAS_STATIC_VALUES`] when used.
    type SV: Value;

    /// Whether the algorithm reads edge values (controls whether the edge
    /// array is allocated, copied and loaded at all).
    const HAS_EDGE_VALUES: bool;
    /// Whether the algorithm reads static vertex values.
    const HAS_STATIC_VALUES: bool;
    /// Modeled ALU instructions per `compute` invocation (issue-time
    /// accounting only; 2 covers the min/add-style updates of Table 3).
    const COMPUTE_COST: u64 = 2;
    /// Whether the program is safe to run frontier-driven: skipping vertices
    /// whose sources did not change since the last iteration preserves the
    /// fixed point. True for the idempotent monotone folds (BFS, SSSP, CC,
    /// SSWP), where `init_compute` copies the global value, `compute` is an
    /// idempotent min/max-style fold, and `update_condition` compares
    /// without mutating. Additive programs (PageRank's rank sum, HS/CS
    /// accumulations) must leave this `false`: they need the full in-edge
    /// fold every iteration, so the frontier engine runs them in dense pull
    /// mode only.
    const FRONTIER_SAFE: bool = false;

    /// Short name for reports ("BFS", "SSSP", ...).
    fn name(&self) -> &'static str;

    /// Initial value of every vertex (e.g. `INF`, with 0 at the source).
    fn initial_value(&self, v: VertexId) -> Self::V;

    /// Static values for all vertices (default: none needed).
    fn static_values(&self, g: &Graph) -> Vec<Self::SV> {
        vec![Self::SV::default(); g.num_vertices() as usize]
    }

    /// Derives the typed edge value from the raw weight seed of the graph.
    fn edge_value(&self, raw_weight: u32) -> Self::E;

    /// Typed edge values for all edges, in [`Graph::edges`] order. The
    /// default maps each raw weight through [`VertexProgram::edge_value`];
    /// programs needing graph context (e.g. HS/NN normalize per-destination
    /// degree for stability on power-law graphs) override this. All engines
    /// source edge values from here.
    fn edge_values(&self, g: &Graph) -> Vec<Self::E> {
        g.edges()
            .iter()
            .map(|e| self.edge_value(e.weight))
            .collect()
    }

    /// The identity of this program's constant columns (see [`ColumnKey`]).
    /// `None`, the default, opts out: every run derives columns of its own,
    /// so a program that declares no key is never handed another's.
    fn column_key(&self) -> Option<ColumnKey> {
        None
    }

    /// Stage-1 hook: initialize the shared-memory copy from the global one.
    fn init_compute(&self, local: &mut Self::V, global: &Self::V);

    /// Stage-2 hook: fold one incoming edge into the destination's local
    /// value. Must be commutative + associative across a vertex's edges.
    fn compute(
        &self,
        src: &Self::V,
        src_static: &Self::SV,
        edge: &Self::E,
        local_dst: &mut Self::V,
    );

    /// Stage-3 hook: finalize `local` (may mutate) and decide whether it
    /// changed enough to publish and iterate again.
    fn update_condition(&self, local: &mut Self::V, old: &Self::V) -> bool;

    /// Integrity hook: checks an algorithm-level invariant between the last
    /// *verified* state `prev` and the candidate state `curr` (both indexed
    /// by vertex id, with `curr` at least as converged as `prev`). Engines
    /// running with invariant checking call this at checkpoint boundaries;
    /// an `Err` names the violated law and is treated as detected silent
    /// corruption (the state is rolled back, not published).
    ///
    /// Examples: BFS/SSSP levels are monotone non-increasing, CC labels are
    /// monotone non-increasing, PageRank mass is conserved within
    /// tolerance. The default accepts everything, so programs without a
    /// cheap invariant still run under every integrity mode.
    fn check_invariant(&self, prev: &[Self::V], curr: &[Self::V]) -> Result<(), String> {
        let _ = (prev, curr);
        Ok(())
    }

    /// Initial frontier for frontier-driven engines: the vertices whose
    /// values differ from the "rest state" at iteration 0 (e.g. the source
    /// of a traversal). `None` — the default — means every vertex starts
    /// active, which is always correct (CC's distinct labels, PageRank's
    /// uniform mass). Single-source programs override this with their
    /// source so the frontier engine starts from a one-vertex frontier.
    fn seed_frontier(&self, g: &Graph) -> Option<Vec<VertexId>> {
        let _ = g;
        None
    }
}

/// The one unit-test program of this crate: a minimal SSSP (Figure 6 of the
/// paper). The full algorithm suite lives in `cusha-algos`.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    pub(crate) struct MiniSssp {
        pub source: VertexId,
    }

    pub(crate) const INF: u32 = u32::MAX;

    impl VertexProgram for MiniSssp {
        type V = u32;
        type E = u32;
        type SV = u32;
        const HAS_EDGE_VALUES: bool = true;
        const HAS_STATIC_VALUES: bool = false;

        fn name(&self) -> &'static str {
            "mini-sssp"
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
        fn edge_value(&self, w: u32) -> u32 {
            w
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trips() {
        assert_eq!(u32::from_bits(12345u32.to_bits()), 12345);
        assert_eq!(f32::from_bits((-1.5f32).to_bits()), -1.5);
        assert_eq!(
            <(f32, f32)>::from_bits((1.25f32, -3.5f32).to_bits()),
            (1.25, -3.5)
        );
        assert_eq!(<(u32, u32)>::from_bits((7u32, 9u32).to_bits()), (7, 9));
        assert_eq!(f64::from_bits(2.5f64.to_bits()), 2.5);
        assert_eq!(u64::from_bits(u64::MAX.to_bits()), u64::MAX);
    }

    #[test]
    fn nan_payloads_survive() {
        let weird = f32::from_bits(0x7fc0_1234);
        let back = <f32 as Value>::from_bits(Value::to_bits(weird));
        assert_eq!(weird.to_bits(), back.to_bits());
    }
}
