#![warn(missing_docs)]

//! CuSha core: the paper's contribution.
//!
//! * [`program`] — the user-facing vertex-centric API: implement
//!   [`VertexProgram`] (`init_compute` / `compute` / `update_condition` plus
//!   the `Vertex`, `Edge` and `StaticVertex` types of Table 3) and the
//!   framework parallelizes it over the whole graph.
//! * [`shards`] — the **G-Shards** representation (Section 3.1): the graph
//!   as destination-partitioned, source-ordered shards.
//! * [`windows`] — computation-window bookkeeping (the `W_ij` matrix) and
//!   window-size statistics (Figure 11).
//! * [`cw`] — the **Concatenated Windows** representation (Section 3.2):
//!   per-shard `SrcIndex` arrays reordered window-major plus the `Mapper`.
//! * [`autotune`] — shard-size selection from the average-window-size
//!   formula `|E||N|²/|V|²` (Section 4).
//! * `kernel` (crate-private) — the one 4-stage kernel of Figure 5 on the
//!   [`cusha_simt`] simulator, the device slice it runs over (one upload
//!   routine, one typed sink for stage-4 writes leaving the slice) and its
//!   host re-enactment; shared by every placement below and the fallback.
//! * [`engine`] — the shard family's one entry, [`try_run_placed`]: a
//!   prepared layout and a [`Placement`] (resident on one device, streamed
//!   through one in batches, or split over a fleet), which picks the data
//!   [`multi`]'s host loop is handed; the configuration, prepared-layout and
//!   observer types every engine takes; the in-core one-liners.
//! * [`streaming`] — the out-of-core one-liners over [`Placement::Streamed`]
//!   (the paper's §5.1 sketch).
//! * [`fallback`] — the host-side reference engine (the ladders' last rung).
//! * [`device_run`] — [`DeviceRun`], the single-device engines' shared run:
//!   device, iteration boundary, download and the H2D / GPU / D2H split.
//! * [`middleware`] — [`run_engine`]: validation, deadlines and retry around
//!   any [`Engine`]; [`ShardEngine`], the shard family's adapter.
//! * [`memsize`] — representation footprint model (Figure 9).
//! * [`integrity`] — silent-data-corruption defense: per-buffer checksums,
//!   algorithm invariants, bounded checkpoint/rollback recovery.
//! * [`multi`] — `drive`, the one host loop, with the multi-device engine's
//!   one-liners over [`Placement::Fleet`]: the shard sequence partitioned
//!   over a [`cusha_simt::DeviceFleet`], halo updates exchanged over a
//!   modeled interconnect, bit-identical to the single-device engine.
//! * [`stats`] — run statistics, the fleet-shaped record among them.

pub mod autotune;
pub mod cw;
pub mod device_run;
pub mod engine;
pub mod error;
pub mod fallback;
pub mod integrity;
mod kernel;
pub mod memsize;
pub mod middleware;
pub mod multi;
pub mod program;
pub mod shards;
pub mod stats;
pub mod streaming;
pub mod windows;

pub use autotune::select_vertices_per_shard;
pub use cw::ConcatWindows;
pub use device_run::{DeviceRun, DeviceSetup};
pub use engine::{
    run, try_run, try_run_placed, try_run_warm, CuShaConfig, CuShaOutput, NoopObserver, Placement,
    PreparedLayout, Repr, RunObserver, MAX_DEVICES,
};
pub use error::{check_topology, settle, EngineError};
pub use fallback::run_fallback;
pub use integrity::{IntegrityConfig, IntegrityMode};
pub use kernel::{fault_instant, retry_attempts};
pub use middleware::{run_engine, DeadlineObserver, Engine, EngineCtx, ShardEngine};
pub use multi::{run_multi, try_run_multi, MultiConfig};
pub use program::{Value, VertexProgram};
pub use shards::GShards;
pub use stats::{
    DeviceRunStats, Direction, FaultStats, FrontierStats, IterationStat, MemoStats, MultiOutput,
    MultiRunStats, RunStats, SdcStats,
};
pub use streaming::{run_streamed, try_run_streamed, StreamingConfig};
