#![warn(missing_docs)]

//! Graph substrate for the CuSha reproduction.
//!
//! This crate provides everything the rest of the workspace needs to *obtain*
//! and *represent* graphs:
//!
//! * [`Graph`] — the canonical directed edge-list representation with raw
//!   per-edge weight seeds (each algorithm derives its own typed edge value
//!   from the seed),
//! * [`Csr`] — the in-edge Compressed Sparse Row representation described in
//!   Section 2 of the paper (`InEdgeIdxs`, `SrcIndxs` and per-edge ids),
//! * [`generators`] — RMAT, Erdős–Rényi and geometric-lattice generators,
//! * [`surrogates`] — synthetic stand-ins for the six SNAP datasets of
//!   Table 1 (see DESIGN.md for the substitution rationale),
//! * [`par`] — the process-wide budget of spare cores and the two levels
//!   every topology build (G-Shards, CW, both CSRs) is split into,
//! * [`partition`] — edge-balanced fleet partitioning with per-device halo
//!   sets, feeding the engine's multi-GPU mode,
//! * [`degree`] — degree-distribution analysis used by Figure 1,
//! * [`io`] — text edge-list and compact binary de/serialization (binary v3
//!   carries per-section [`io::WordDigest`]s so corrupt files fail typed, not
//!   silent; v1 and v2 files still read), and the [`io::Fnv1a`] digest of the
//!   service's write-ahead log,
//! * [`mutate`] — validated edge insert/delete batches applied as deltas,
//!   plus the structural [`fingerprint`] revision the service keys caches on,
//! * [`analysis`] — structural utilities (union-find components, etc.).

pub mod analysis;
pub mod builder;
pub mod csr;
pub mod degree;
pub mod generators;
pub mod io;
pub mod mutate;
pub mod par;
pub mod partition;
pub mod reorder;
pub mod surrogates;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use mutate::{fingerprint, Mutation, MutationBatch, MutationDelta, MutationError, Validated};
pub use partition::{edge_balanced_ranges, DevicePartition, FleetPartition};
pub use types::{Edge, EdgeId, Graph, GraphError, VertexId};
