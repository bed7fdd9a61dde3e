#![warn(missing_docs)]

//! Software SIMT GPU simulator.
//!
//! This crate is the hardware substrate of the CuSha reproduction. Real
//! CUDA is unavailable here, so kernels run against a functional + analytic
//! model of an NVIDIA-style GPU that captures exactly the architectural
//! mechanisms the paper measures:
//!
//! * **SIMT execution** — kernels are grids of thread blocks; block programs
//!   issue *warp-wide* operations (32 lanes) under an active-lane mask.
//!   Operations execute on real data, so algorithm outputs are exact and
//!   testable against sequential oracles.
//! * **Memory coalescing** — every global load/store maps its active lanes'
//!   byte ranges onto aligned 128-byte segments (and 32-byte sectors); the
//!   number of distinct segments is the transaction count. This yields the
//!   `gld_efficiency` / `gst_efficiency` metrics of the paper's Table 2 and
//!   Figure 8.
//! * **Warp execution efficiency** — the ratio of active lanes to warp width,
//!   summed over all issued warp instructions.
//! * **Shared memory** — 32 banks with conflict replays; shared-memory
//!   atomics serialize lanes that target the same address.
//! * **Timing** — a bandwidth/issue roofline:
//!   `kernel_time = max(issue_time, dram_time) + launch_overhead`, where
//!   issue time is the largest per-SM sum of warp-instruction issue cycles
//!   (blocks are assigned to SMs round-robin) and DRAM time is total sector
//!   traffic divided by memory bandwidth. Host↔device transfers are
//!   `latency + bytes / pcie_bandwidth`.
//!
//! The model is deliberately *not* cycle-accurate: latency hiding, caches
//! and instruction mixes are abstracted away. The reproduction therefore
//! claims relative shapes (who wins, by what factor), not absolute
//! milliseconds — see `DESIGN.md` and `EXPERIMENTS.md`.

pub mod block;
pub mod coalesce;
pub mod config;
pub mod counters;
pub mod device;
pub mod fabric;
pub mod fault;
pub mod mem;
pub mod pod;
pub mod profile;
pub mod replay;
pub mod shared;
pub mod warp;

pub use block::Block;
pub use coalesce::CoalesceMemo;
pub use config::DeviceConfig;
pub use counters::{Bound, KernelStats, Mask, WARP};
pub use device::{Gpu, KernelDesc};
pub use fabric::{DeviceFleet, Interconnect};
pub use fault::{BitFlip, DeviceFault, FaultKind, FaultPlan, FlipTarget, InjectionLog};
pub use mem::DevVec;
pub use pod::Pod;
pub use profile::{KernelAggregate, Profile, PROFILE_SCHEMA};
pub use replay::{LaunchRecord, ReplayMemo};
pub use shared::SharedVec;
pub use warp::{aligned_chunks, warp_chunks, VirtualWarps};
