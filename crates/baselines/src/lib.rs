#![warn(missing_docs)]

//! The comparison baselines of the paper's evaluation (Section 5.1).
//!
//! * [`vwc`] — **VWC-CSR**: the virtual warp-centric method of Hong et al.
//!   (paper reference \[12\], pseudo-code in the paper's Appendix A), running
//!   on the same simulated GPU as CuSha, over the in-edge CSR
//!   representation, with virtual warp sizes 2/4/8/16/32.
//! * [`mtcpu`] — **MTCPU-CSR**: the pthreads-style multithreaded CPU
//!   implementation (1–128 threads, static contiguous vertex partitioning),
//!   measured in real wall-clock time on the host.
//!
//! Both consume the same [`cusha_core::VertexProgram`] definitions as the
//! CuSha engine, so all engines compute the same function and can be
//! cross-checked in tests.

pub mod engines;
pub mod mtcpu;
pub mod vwc;

pub use engines::{MtcpuEngine, VwcEngine};
pub use mtcpu::{run_mtcpu, try_run_mtcpu, try_run_mtcpu_warm, MtcpuConfig};
pub use vwc::{run_vwc, try_run_vwc, try_run_vwc_warm, VwcConfig};

/// The virtual warp sizes the paper sweeps for VWC-CSR.
pub const VIRTUAL_WARP_SIZES: [usize; 5] = [2, 4, 8, 16, 32];

/// The CPU thread counts the paper sweeps for MTCPU-CSR.
pub const MTCPU_THREADS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
