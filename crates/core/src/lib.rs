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
//!   host re-enactment; shared by the three engines below and the fallback.
//! * [`engine`] — the in-core engine's façades (the whole layout resident on
//!   one device, in both GS and CW modes: a fleet of one in [`multi`]'s host
//!   loop), plus the configuration, prepared-layout and observer types every
//!   engine takes.
//! * [`streaming`] — the out-of-core engine's façade: a fleet of one whose
//!   device starts streamed (batches of shards through a device-memory
//!   budget, [`multi`]'s `Mode::Streamed`), and the CW → G-Shards → host
//!   degradation ladder around it.
//! * [`fallback`] — the host-side reference engine (the ladders' last rung).
//! * [`middleware`] — [`run_engine`]: validation, deadlines, retry and the
//!   final integrity scrub around any [`Engine`].
//! * [`memsize`] — representation footprint model (Figure 9).
//! * [`integrity`] — silent-data-corruption defense: per-buffer checksums,
//!   algorithm invariants, bounded checkpoint/rollback recovery.
//! * [`multi`] — the multi-device engine: partitions the shard sequence
//!   over a [`cusha_simt::DeviceFleet`] and exchanges halo updates over a
//!   modeled interconnect, bit-identical to the single-device engine.

pub mod autotune;
pub mod cw;
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
pub use engine::{
    run, try_run, try_run_warm, CuShaConfig, CuShaOutput, NoopObserver, PreparedLayout, Repr,
    RunObserver,
};
pub use error::{check_topology, EngineError};
pub use fallback::run_fallback;
pub use integrity::{CheckpointManager, IntegrityConfig, IntegrityMode};
pub use middleware::{
    run_engine, DeadlineObserver, Engine, EngineCtx, FleetEngine, ShardEngine, StreamedEngine,
};
pub use multi::{
    run_multi, try_run_multi, try_run_multi_observed, DeviceRunStats, MultiConfig, MultiOutput,
    MultiRunStats, MAX_DEVICES,
};
pub use program::{Value, VertexProgram};
pub use shards::GShards;
pub use stats::{
    Direction, FaultStats, FrontierStats, IterationStat, MemoStats, RunStats, SdcStats,
};
pub use streaming::{run_streamed, try_run_streamed, try_run_streamed_observed, StreamingConfig};
