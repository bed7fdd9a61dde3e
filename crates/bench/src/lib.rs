#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) against the simulated GPU and surrogate graphs.
//!
//! The `repro` binary drives the [`experiments`] modules; each module's
//! `run` function prints a paper-formatted artifact. The mapping from
//! artifact id to module is tabulated in `DESIGN.md` (per-experiment index)
//! and the expected-vs-measured record lives in `EXPERIMENTS.md`.

pub mod bench_defs;
pub mod check;
pub mod experiments;
pub mod matrix;
pub mod table;

pub use bench_defs::{default_source, Benchmark, Engine};
pub use check::{check_baseline, CheckReport};
pub use matrix::{effective_jobs, run_matrix_jobs, CellResult, MatrixResult};
pub use table::Table;
