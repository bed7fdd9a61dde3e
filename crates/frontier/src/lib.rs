//! # cusha-frontier — frontier-operator engine family
//!
//! A third engine family for the workspace, complementing the shard engines
//! (G-Shards / Concatenated Windows) and the CSR baselines: computation is
//! expressed as **advance / filter / compute** operators over an explicit
//! frontier, with automatic **push ↔ pull direction switching** driven by
//! frontier density (the SIMD-X / Ligra heuristic). Runs on the same
//! simulated SIMT device — coalescing, bank-conflict and occupancy counters,
//! fault injection and the silent-data-corruption defense ladder all apply
//! unchanged.
//!
//! Any [`cusha_core::VertexProgram`] runs here; programs that additionally
//! declare [`FRONTIER_SAFE`](cusha_core::VertexProgram::FRONTIER_SAFE) (an
//! idempotent monotone fold) may skip quiescent sources in sparse
//! iterations via push. Two frontier-native workloads that have no shard
//! counterpart live in this crate as well: [`kcore`] (iterative peeling)
//! and [`triangles`] (oriented intersection counting).

#![warn(missing_docs)]

mod compact;
pub mod config;
pub mod engine;
pub mod kcore;
pub mod prepared;
pub mod triangles;

pub use config::{FrontierConfig, DEFAULT_DENSITY_THRESHOLD};
pub use engine::{
    run_frontier, try_run_frontier, try_run_frontier_warm, FrontierEngine, FrontierOutput,
    FRONTIER_LABEL,
};
pub use kcore::{host_kcore, kcore_invariant, run_kcore, try_run_kcore, KcoreConfig, KcoreOutput};
pub use prepared::{Family, Prepared, PreparedFrontier};
pub use triangles::{host_triangles, run_triangles, try_run_triangles, TriangleOutput};
