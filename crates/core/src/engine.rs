//! The CuSha iterative processing engine (paper Figure 5).
//!
//! One call to [`run`] executes a [`VertexProgram`] over a graph on the
//! simulated GPU until convergence:
//!
//! 1. build the G-Shards (and, in CW mode, Concatenated Windows) layout on
//!    the host and upload it (charged as H2D copy time),
//! 2. repeatedly launch the processing kernel — one thread block per shard,
//!    running the four stages of Figure 5 — until no block raises
//!    `values_updated`, reading the `is_converged` flag back after every
//!    launch exactly like the paper's per-iteration `cudaMemcpy`,
//! 3. download the final `VertexValues` (charged as D2H copy time).
//!
//! Asynchronous intra-iteration visibility (Section 1's contrast with BSP)
//! falls out of the simulator's deterministic block order: stage 4 of shard
//! `s` writes `SrcValue` entries that shards processed later in the same
//! launch observe in their stage 2.
//!
//! The kernel itself, the device buffers it runs over and their upload live
//! in `crate::kernel`; the host loop around it is `crate::multi::drive`,
//! which every run of the shard family enters. This module holds what every
//! engine takes — configuration, [`PreparedLayout`], the observer trait —
//! and the family's one entry, [`try_run_placed`]: a layout and where it
//! lives ([`Placement`]: one device, streamed batches, or a fleet), which
//! picks the data that loop is handed and nothing else.

use crate::autotune::select_vertices_per_shard;
use crate::cw::ConcatWindows;
use crate::error::{check_topology, settle, EngineError};
use crate::fallback::run_fallback_after;
use crate::integrity::{IntegrityConfig, Stop};
use crate::kernel::fault_instant;
use crate::memsize::{check_fits, check_shard_block, check_streams, ValueSizes};
use crate::multi::drive;
use crate::program::VertexProgram;
use crate::shards::GShards;
use crate::stats::{FaultStats, MemoStats, RunStats, SdcStats};
use cusha_graph::{FleetPartition, Graph};
use cusha_obs::trace::Tracer;
use cusha_simt::{DeviceConfig, DeviceFleet, FaultPlan, Gpu, Interconnect, Profile, ReplayMemo};
use std::sync::{Arc, Mutex};

/// Which CuSha representation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repr {
    /// G-Shards (paper Section 3.1): stage 4 walks windows warp-by-warp.
    GShards,
    /// Concatenated Windows (Section 3.2): stage 4 sweeps the per-shard
    /// `SrcIndex` + `Mapper` arrays with full thread utilization.
    ConcatWindows,
}

impl Repr {
    /// Engine label used in reports ("CuSha-GS" / "CuSha-CW").
    pub fn label(self) -> &'static str {
        match self {
            Repr::GShards => "CuSha-GS",
            Repr::ConcatWindows => "CuSha-CW",
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct CuShaConfig {
    /// Representation to use.
    pub repr: Repr,
    /// The paper's `|N|`; `None` = autotune via the average-window-size
    /// formula (Section 4).
    pub vertices_per_shard: Option<u32>,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Blocks assumed resident per SM (feeds the autotuner's shared-memory
    /// quota).
    pub resident_blocks: u32,
    /// Convergence-loop safety cap.
    pub max_iterations: u32,
    /// Retain per-launch kernel statistics in
    /// [`RunStats::profile`](crate::stats::RunStats::profile).
    pub profile: bool,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Optional fault-injection schedule installed on the device; see
    /// [`cusha_simt::FaultPlan`]. A resident run surfaces injected faults
    /// as [`EngineError`]s; a streamed or fleet run recovers from them.
    pub fault_plan: Option<FaultPlan>,
    /// Livelock watchdog: every this-many iterations the engine snapshots
    /// the value vector and errors with [`EngineError::Watchdog`] if a
    /// previously-seen state recurs without convergence. `None` disables
    /// the check (the `max_iterations` cap still bounds the loop).
    pub watchdog_interval: Option<u32>,
    /// Span sink threaded to the device and the convergence loop. The
    /// default no-op tracer records nothing and costs nothing; install an
    /// enabled tracer (see [`cusha_obs::Tracer::enabled`]) to capture the
    /// modeled-clock timeline.
    pub trace: Tracer,
    /// Silent-data-corruption defense: detection mode, checkpoint cadence
    /// and the recovery-escalation budgets. Off by default (zero cost).
    pub integrity: IntegrityConfig,
    /// Modeled-time deadline: the run is cancelled with
    /// [`EngineError::Deadline`] at the first iteration boundary whose
    /// modeled clock exceeds this many seconds (the CLI's `--timeout-ms`).
    /// Enforcement shares the watchdog's iteration-boundary discipline, so
    /// the in-flight kernel always completes and cancellation never leaves
    /// partial device writes. `None` disables the check.
    pub deadline_seconds: Option<f64>,
}

impl CuShaConfig {
    /// Defaults with the given representation on the GTX 780 preset.
    pub fn new(repr: Repr) -> Self {
        CuShaConfig {
            repr,
            vertices_per_shard: None,
            threads_per_block: 256,
            resident_blocks: 2,
            max_iterations: 10_000,
            profile: false,
            device: DeviceConfig::gtx780(),
            fault_plan: None,
            watchdog_interval: None,
            trace: Tracer::default(),
            integrity: IntegrityConfig::default(),
            deadline_seconds: None,
        }
    }

    /// G-Shards defaults.
    pub fn gs() -> Self {
        Self::new(Repr::GShards)
    }

    /// Concatenated-Windows defaults.
    pub fn cw() -> Self {
        Self::new(Repr::ConcatWindows)
    }

    /// Sets an explicit `|N|`.
    pub fn with_vertices_per_shard(mut self, n: u32) -> Self {
        self.vertices_per_shard = Some(n);
        self
    }

    /// Installs a fault-injection schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the livelock watchdog at the given snapshot interval.
    pub fn with_watchdog(mut self, interval: u32) -> Self {
        self.watchdog_interval = Some(interval);
        self
    }

    /// Installs a span sink.
    pub fn with_tracer(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// Installs a silent-data-corruption defense configuration.
    pub fn with_integrity(mut self, integrity: IntegrityConfig) -> Self {
        self.integrity = integrity;
        self
    }

    /// Sets a modeled-time deadline in seconds.
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline_seconds = Some(seconds);
        self
    }

    /// The shard size a graph of `v` vertices and `e` edges runs at with
    /// `value_size`-byte vertex values: the explicit override, else the
    /// autotuner's pick.
    pub fn n_per_for(&self, v: u64, e: u64, value_size: u32) -> u32 {
        self.vertices_per_shard.unwrap_or_else(|| {
            select_vertices_per_shard(v, e, value_size, &self.device, self.resident_blocks)
        })
    }

    /// Checks the configuration's invariants, returning a message naming
    /// the offending field on failure. Shared by every fallible engine
    /// entry point so no `assert!` is reachable from user-supplied
    /// configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads_per_block == 0 || !self.threads_per_block.is_multiple_of(32) {
            return Err(format!(
                "threads_per_block must be a nonzero multiple of the warp \
                 width (32), got {}",
                self.threads_per_block
            ));
        }
        self.device.check_block(self.threads_per_block, 0)?;
        if self.vertices_per_shard == Some(0) {
            return Err("vertices_per_shard must be nonzero when set".into());
        }
        if self.resident_blocks == 0 {
            return Err("resident_blocks must be at least 1".into());
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        if self.watchdog_interval == Some(0) {
            return Err("watchdog_interval must be nonzero when set".into());
        }
        if let Some(d) = self.deadline_seconds {
            if d.is_nan() || d <= 0.0 {
                return Err(format!(
                    "deadline_seconds must be positive when set, got {d}"
                ));
            }
        }
        self.integrity.validate()?;
        Ok(())
    }
}

/// Result of a CuSha run.
#[derive(Clone, Debug)]
pub struct CuShaOutput<V> {
    /// Final vertex values, indexed by vertex id.
    pub values: Vec<V>,
    /// Run statistics (times, iterations, profiler counters).
    pub stats: RunStats,
}

impl<V> CuShaOutput<V> {
    /// The output as its run's result: a run that hit its iteration cap is
    /// [`EngineError::NonConverged`], carrying it.
    pub fn into_result(self) -> Result<Self, EngineError<V>> {
        match self.stats.converged {
            true => Ok(self),
            false => Err(EngineError::NonConverged {
                partial: Box::new(self),
            }),
        }
    }
}

/// Most devices a fleet may have: the interconnect presets model one host's
/// fabric (a PCIe root complex, an NVLink island), and every per-device
/// structure is allocated up front, so the count must have a bound.
pub const MAX_DEVICES: usize = 64;

/// Where a run's layout lives: all [`try_run_placed`] is told of it. The
/// paper's `cusha_process` is handed the built G-Shards/CW arrays; whether
/// they sit on one device, stream through it or split over a fleet is the
/// caller's business.
#[derive(Clone, Debug)]
pub enum Placement {
    /// The whole layout on one device; a device fault surfaces unretried.
    Resident,
    /// Out of core on one device (paper §5.1): `VertexValues` resident, the
    /// shards in batches of at most `bytes`, a batch's upload overlapping the
    /// kernel before it on `streams >= 2`. Faults are retried, an OOM halves
    /// `bytes` in place, and a kernel that keeps faulting walks the ladder
    /// CW → G-Shards → host.
    Streamed {
        /// Device-memory budget of one batch of shard arrays.
        bytes: u64,
        /// Copy/compute streams; 1 serializes uploads and kernels.
        streams: u32,
    },
    /// The shard sequence edge-balanced over `devices` devices, halo updates
    /// exchanged over `interconnect` once per iteration; each device
    /// recovers from its own faults in place.
    Fleet {
        /// Devices in the fleet.
        devices: usize,
        /// The fabric timing the exchange.
        interconnect: Interconnect,
        /// Per-device fault plans (index = device id); when any is set they
        /// replace the carried plan, which otherwise lands on device 0.
        fault_plans: Vec<Option<FaultPlan>>,
    },
}

impl Placement {
    /// Double-buffered streaming under `bytes`.
    pub fn streamed(bytes: u64) -> Self {
        Placement::Streamed { bytes, streams: 2 }
    }

    /// `devices` devices over PCIe, none with a plan of its own.
    pub fn fleet(devices: usize) -> Self {
        let (interconnect, fault_plans) = (Interconnect::pcie_gen3(), Vec::new());
        Placement::Fleet {
            devices,
            interconnect,
            fault_plans,
        }
    }

    /// Checks the placement's invariants, returning a message naming the
    /// offending field on failure.
    pub fn validate(&self) -> Result<(), String> {
        let named = match self {
            Placement::Streamed { streams: 0, .. } => {
                return Err("streams must be at least 1".into())
            }
            Placement::Streamed { bytes: 0, .. } => {
                return Err("streamed bytes must be nonzero".into())
            }
            Placement::Fleet { fault_plans, .. } => fault_plans.len(),
            _ => return Ok(()),
        };
        match self.devices() {
            n if !(1..=MAX_DEVICES).contains(&n) => Err(format!(
                "devices must be between 1 and {MAX_DEVICES}, got {n}"
            )),
            n if named > n => Err(format!(
                "fault_plans names device {} but the fleet has {n} devices",
                named - 1
            )),
            _ => Ok(()),
        }
    }

    /// What a run of `repr` placed here is called, in its statistics and by
    /// the adapter that runs it: "CuSha-CW", "CuSha-CW-streamed", "CuSha-CW x4".
    pub fn label(&self, repr: Repr) -> String {
        match (self, self.devices()) {
            (Placement::Streamed { .. }, _) => format!("{}-streamed", repr.label()),
            (_, 1) => repr.label().into(),
            (_, n) => format!("{} x{n}", repr.label()),
        }
    }

    /// The devices the layout is spread over.
    fn devices(&self) -> usize {
        match self {
            Placement::Fleet { devices, .. } => *devices,
            _ => 1,
        }
    }
}

/// What the kernel's replay-scoped stages account by besides the layout: the
/// bytes of `V`/`SV`/`E` the program moves (0 for a column it leaves out),
/// its per-edge compute cost, and the device's segment, sector, bank count
/// and bank width. Runs over one layout share recordings iff these agree.
type AccountingId = [u64; 8];

fn accounting_id<P: VertexProgram>(dev: &DeviceConfig) -> AccountingId {
    let sizes = ValueSizes::of::<P>();
    [
        u64::from(sizes.vertex),
        u64::from(sizes.static_vertex),
        u64::from(sizes.edge),
        P::COMPUTE_COST,
        u64::from(dev.segment_bytes),
        u64::from(dev.sector_bytes),
        u64::from(dev.shared_banks),
        u64::from(dev.bank_width_bytes),
    ]
}

/// The replay tables a layout lends to the runs over it, one per
/// [`AccountingId`]: the layout is immutable, so a recording holds for as
/// long as the layout exists. A clone starts cold.
#[derive(Debug, Default)]
struct ReplayTables(Mutex<Vec<(AccountingId, ReplayMemo)>>);

impl Clone for ReplayTables {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ReplayTables {
    /// Takes `id`'s table out for one run; an empty one when there is none
    /// yet, or a concurrent run holds it.
    fn lend(&self, id: &AccountingId) -> ReplayMemo {
        let mut tables = self.0.lock().unwrap();
        let held = tables.iter().position(|(i, _)| i == id);
        held.map_or_else(ReplayMemo::new, |at| tables.swap_remove(at).1)
    }

    /// Takes a lent table back (the first one back, when runs overlapped).
    fn give_back(&self, id: AccountingId, table: ReplayMemo) {
        let mut tables = self.0.lock().unwrap();
        if !tables.iter().any(|(i, _)| *i == id) {
            tables.push((id, table));
        }
    }
}

/// A host-side graph layout — G-Shards plus, in CW mode, the Concatenated
/// Windows arrays — prepared once and reused across runs.
///
/// Building the shard layout is the expensive host-side part of a run; a
/// resident service that answers many queries over one graph builds a
/// `PreparedLayout` per (representation, shard size) and passes it to
/// [`try_run_warm`], paying the construction cost once. The layout is
/// immutable: faulty or cancelled runs cannot poison it. It keeps the
/// simulator's replay tables between runs, so only the first run per program
/// shape after a build interprets the kernel's statically accounted stages.
/// The arrays sit behind `Arc`s: a clone is a handle on the same arrays with
/// cold replay tables of its own.
#[derive(Clone, Debug)]
pub struct PreparedLayout {
    repr: Repr,
    n_per: u32,
    gs: Arc<GShards>,
    cw: Option<Arc<ConcatWindows>>,
    replay: ReplayTables,
}

impl PreparedLayout {
    /// Builds the layout for `graph` with shard size `n_per` under `repr`.
    pub fn build(graph: &Graph, repr: Repr, n_per: u32) -> Self {
        let gs = Arc::new(GShards::from_graph(graph, n_per));
        let cw =
            matches!(repr, Repr::ConcatWindows).then(|| Arc::new(ConcatWindows::from_gshards(&gs)));
        PreparedLayout {
            repr,
            n_per,
            gs,
            cw,
            replay: ReplayTables::default(),
        }
    }

    /// The same shard arrays under `repr`, on replay tables of its own: one
    /// shard sort serves the G-Shards and the CW runs over a (graph, `|N|`).
    /// The kernel takes the CW path iff the layout carries a mapper, so the
    /// G-Shards view of a CW layout is that layout without one; the CW view of
    /// a G-Shards layout derives the mapper (no sort), once per call.
    pub fn view(&self, repr: Repr) -> Self {
        let cw = matches!(repr, Repr::ConcatWindows).then(|| match &self.cw {
            Some(cw) => Arc::clone(cw),
            None => Arc::new(ConcatWindows::from_gshards(&self.gs)),
        });
        PreparedLayout {
            repr,
            cw,
            ..self.clone()
        }
    }

    /// Builds the layout program `P` runs on under `cfg` — the shard size
    /// [`PreparedLayout::select_n_per`] picks — after the pre-flight: the
    /// configuration and placement are checked, and a layout the
    /// placement cannot hold is refused before anything |V|- or p²-sized is
    /// built ([`check_fits`] for a resident one; [`check_streams`] for what
    /// no batching or partition can shrink). The one-shot entries' way in.
    pub fn for_program<P: VertexProgram>(
        graph: &Graph,
        cfg: &CuShaConfig,
        placement: &Placement,
    ) -> Result<Self, EngineError<P::V>> {
        cfg.validate().map_err(EngineError::InvalidConfig)?;
        placement.validate().map_err(EngineError::InvalidConfig)?;
        let sizes = ValueSizes::of::<P>();
        let n_per = Self::select_n_per(graph, cfg, sizes.vertex);
        let (v, e) = (graph.num_vertices() as u64, graph.num_edges() as u64);
        let (shards, device, devices) = ((cfg.repr, n_per), &cfg.device, placement.devices());
        match placement {
            Placement::Resident => check_fits(v, e, sizes, Some(shards), device),
            _ => check_streams(v, devices as u64, sizes, shards, device),
        }?;
        Ok(PreparedLayout::build(graph, cfg.repr, n_per))
    }

    /// The shard size the autotuner (or an explicit override in `cfg`)
    /// selects for a program with `value_size`-byte vertex values — the
    /// cache key a resident caller should build layouts under.
    pub fn select_n_per(graph: &Graph, cfg: &CuShaConfig, value_size: u32) -> u32 {
        cfg.n_per_for(
            graph.num_vertices() as u64,
            graph.num_edges() as u64,
            value_size,
        )
    }

    /// The representation this layout was built for.
    pub fn repr(&self) -> Repr {
        self.repr
    }

    /// The shard size (`|N|`) this layout was built with.
    pub fn n_per(&self) -> u32 {
        self.n_per
    }

    /// Number of shards in the layout.
    pub fn num_shards(&self) -> u32 {
        self.gs.num_shards()
    }

    /// `(slots holding a recording, slots allocated)` over the replay tables
    /// the layout currently holds (diagnostics).
    pub fn replay_slots(&self) -> (usize, usize) {
        let tables = self.replay.0.lock().unwrap();
        let slots = tables.iter().map(|(_, table)| table.slots());
        slots.fold((0, 0), |sum, s| (sum.0 + s.0, sum.1 + s.1))
    }

    /// The G-Shards arrays.
    pub(crate) fn gs(&self) -> &GShards {
        &self.gs
    }

    /// The Concatenated Windows arrays (CW layouts only).
    pub(crate) fn cw(&self) -> Option<&ConcatWindows> {
        self.cw.as_deref()
    }
}

/// Iteration-boundary hook for resident callers.
///
/// [`try_run_warm`] invokes [`RunObserver::on_iteration`] after every
/// non-converged iteration, at the same boundary the watchdog and deadline
/// checks run. Returning `false` cancels the run with
/// [`EngineError::Deadline`] — the mechanism a query service uses to
/// enforce per-query deadlines on a fused multi-query launch (each expired
/// lane is dropped by the observer; the run itself is cancelled only when
/// every lane has expired, so batch-mates are unaffected).
pub trait RunObserver {
    /// Called after iteration `iteration` (1-based) completed with
    /// `updated` published vertex values, `elapsed_seconds` on the modeled
    /// clock. Return `false` to cancel the run at this boundary.
    fn on_iteration(&mut self, iteration: u32, updated: u64, elapsed_seconds: f64) -> bool;
}

/// Observer that never cancels (the one-shot entry points' default).
pub struct NoopObserver;

impl RunObserver for NoopObserver {
    fn on_iteration(&mut self, _iteration: u32, _updated: u64, _elapsed: f64) -> bool {
        true
    }
}

/// Executes `prog` over `graph` with the given configuration.
///
/// # Panics
/// Panics on invalid configuration or graph, and on any device fault the
/// installed [`FaultPlan`] injects. A run that merely hits the iteration
/// cap returns its partial output (with `stats.converged == false`), which
/// is the historical behavior. Fallible callers use [`try_run`].
pub fn run<P: VertexProgram>(prog: &P, graph: &Graph, cfg: &CuShaConfig) -> CuShaOutput<P::V> {
    settle(try_run(prog, graph, cfg))
}

/// Executes `prog` over `graph`, returning every failure as an
/// [`EngineError`] instead of panicking: bad configurations and graphs — one
/// the device cannot hold included ([`PreparedLayout::for_program`]) — are
/// rejected up front, device faults (injected via
/// [`CuShaConfig::fault_plan`] or a genuinely exhausted device) surface as
/// their taxonomy variant, a capped run yields
/// [`EngineError::NonConverged`] carrying the partial output, and the
/// optional watchdog turns value-state cycles into
/// [`EngineError::Watchdog`].
pub fn try_run<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &CuShaConfig,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    try_run_cold(prog, graph, cfg, &Placement::Resident)
}

/// The one-shot entries' body: [`try_run_placed`] over a layout built for the
/// placement, with no plan or observer of the caller's.
pub(crate) fn try_run_cold<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &CuShaConfig,
    placement: &Placement,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    let layout = PreparedLayout::for_program::<P>(graph, cfg, placement)?;
    try_run_placed(
        prog,
        graph,
        &layout,
        cfg,
        placement,
        None,
        &mut NoopObserver,
    )
}

/// [`try_run_placed`] on one device, the whole layout resident — the
/// resident service's entry point.
pub fn try_run_warm<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    layout: &PreparedLayout,
    cfg: &CuShaConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    let resident = &Placement::Resident;
    try_run_placed(prog, graph, layout, cfg, resident, fault_plan, observer)
}

/// Executes `prog` over `graph` on a caller-held [`PreparedLayout`] wherever
/// `placement` puts it: the shard family's one entry, which [`try_run`],
/// [`try_run_warm`], [`crate::try_run_streamed`] and [`crate::try_run_multi`]
/// are one-liners over. Beyond [`try_run`]'s behavior it skips the layout's
/// construction; it installs the caller's [`FaultPlan`] in place of
/// [`CuShaConfig::fault_plan`] — on device 0 of a fleet that names no plans of
/// its own — and writes the plan's advanced state back on **every** exit, so
/// consumed faults and bit flips never re-fire on the next run sharing it; and
/// it calls `observer` at every iteration boundary, on the modeled clock of
/// the whole run, a `false` cancelling it with [`EngineError::Deadline`].
///
/// The placement picks the data the one host loop is handed, nothing else:
/// the devices (one per run or rung, or a fleet over its fabric); what a
/// fault past its budget does (surface; take the streamed ladder's next rung,
/// G-Shards on a view of the layout, then the host; recover in place); the
/// replay tables (the layout's, lent; cold per rung; per device); and the
/// shape of the statistics (single-engine, or flattened with
/// [`RunStats::fleet`]).
pub fn try_run_placed<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    layout: &PreparedLayout,
    cfg: &CuShaConfig,
    placement: &Placement,
    mut fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    placement.validate().map_err(EngineError::InvalidConfig)?;
    let built = (layout.gs.num_vertices(), layout.gs.num_edges());
    check_topology("layout", built, graph)?;
    if layout.repr != cfg.repr {
        let (built, asked) = (layout.repr.label(), cfg.repr.label());
        let why = format!("layout was built for {built}, config asks for {asked}");
        return Err(EngineError::InvalidConfig(why));
    }
    let (v, sizes) = (graph.num_vertices() as u64, ValueSizes::of::<P>());
    check_shard_block(v, layout.n_per, sizes, &cfg.device)?;
    let n = placement.devices();
    let resident = matches!(placement, Placement::Resident);
    let streamed = matches!(placement, Placement::Streamed { .. });
    // A fleet's edge-balanced shard ranges, its fabric and the plans it names.
    let (fleet, mut plans) = match placement {
        Placement::Fleet {
            interconnect,
            fault_plans,
            ..
        } => {
            let fp = FleetPartition::from_graph(graph, layout.n_per, n);
            (Some((fp, interconnect)), fault_plans.clone())
        }
        _ => (None, Vec::new()),
    };
    let shards: Vec<_> = match &fleet {
        Some((fp, _)) => fp
            .parts()
            .iter()
            .map(|p| p.shards.start as u32..p.shards.end as u32)
            .collect(),
        None => std::iter::once(0..layout.num_shards()).collect(),
    };
    // What the streamed ladder's rungs share: the fault plan (consumed faults
    // never re-fire) unless a fleet names its own, each device's records and
    // the budgets they count against, the clock a deadline bounds, and the
    // memo and profile totals.
    let carried = plans.iter().all(Option::is_none);
    if carried {
        let plan = fault_plan.as_deref().cloned();
        plans = vec![plan.or_else(|| cfg.fault_plan.clone())];
    }
    let (mut faults, mut sdcs) = (vec![FaultStats::default(); n], vec![SdcStats::default(); n]);
    let (mut memo, mut profile, mut elapsed) = (MemoStats::default(), None::<Profile>, 0.0);
    let id = accounting_id::<P>(&cfg.device);
    let rungs = match streamed {
        true => &[Repr::ConcatWindows, Repr::GShards][..],
        false => std::slice::from_ref(&layout.repr),
    };
    for &repr in rungs.iter().skip_while(|&&r| r != layout.repr) {
        // A later rung runs on the layout's own shard arrays: no sort.
        let view = (repr != layout.repr).then(|| layout.view(repr));
        let mut devices = match &fleet {
            Some((_, link)) => DeviceFleet::new(&cfg.device, n, (*link).clone()),
            None => DeviceFleet::solo(Gpu::new(cfg.device.clone())),
        };
        devices.set_tracer(&cfg.trace);
        for d in 0..n {
            let gpu = devices.device_mut(d);
            gpu.set_profiling(cfg.profile);
            if let Some(plan) = plans.get_mut(d).and_then(Option::take) {
                gpu.set_fault_plan(plan);
            }
        }
        if resident {
            let lent = layout.replay.lend(&id);
            devices.device_mut(0).swap_replay_memo(lent);
        }
        // Launches are named for the representation; fault plans match on it.
        let label = placement.label(repr);
        let name = match streamed {
            true => format!("{label}::{}", prog.name()),
            false => format!("{}::{}", repr.label(), prog.name()),
        };
        let ran = drive(
            prog,
            graph,
            cfg,
            view.as_ref().unwrap_or(layout),
            &shards,
            &mut devices,
            placement,
            &name,
            (&mut faults[..], &mut sdcs[..]),
            (elapsed, &mut *observer),
        );
        let gpu = devices.device_mut(0);
        memo.add(&MemoStats::from_gpu(gpu));
        if let Some(p) = gpu.profile.take() {
            profile.get_or_insert_default().absorb(&p);
        }
        if resident {
            let table = gpu.swap_replay_memo(ReplayMemo::new());
            layout.replay.give_back(id, table);
        }
        // Counters consumed by a failed or cancelled run are consumed for good.
        if carried {
            plans[0] = gpu.take_fault_plan();
            if let (Some(slot), Some(plan)) = (fault_plan.as_deref_mut(), &plans[0]) {
                slot.clone_from(plan);
            }
        }
        elapsed += gpu.total_seconds();
        let (out, clocks) = match ran {
            Ok(driven) => driven,
            // Detected corruption outlived the rollback and restart budgets:
            // abandon the device for the host fallback, which no flip reaches.
            Err(Stop::Abandon) => {
                sdcs[0].host_fallbacks += 1;
                if streamed {
                    fault_instant(gpu, "sdc", "host-fallback");
                }
                break;
            }
            // The next rung's kernels are another code path (and, under
            // injection, another name pattern); the last one is the host.
            Err(Stop::Error(EngineError::KernelFault { .. })) if streamed => {
                faults[0].degradations += 1;
                let next = match repr {
                    Repr::ConcatWindows => "degrade-to-gshards",
                    Repr::GShards => "degrade-to-host",
                };
                fault_instant(gpu, "fault", next);
                continue;
            }
            Err(Stop::Error(e)) => return Err(e),
        };
        let out = match &fleet {
            Some((fp, link)) => out.into_fleet(label, link.name, fp),
            None => {
                let values = graph.num_vertices() as u64 * u64::from(ValueSizes::of::<P>().vertex);
                let streamed = streamed.then(|| cfg.device.transfer_seconds(values));
                let mut out = out.into_solo(label, &clocks[0], streamed);
                let stats = &mut out.stats;
                (stats.fault, stats.sdc, stats.memo, stats.profile) =
                    (faults[0], sdcs[0], memo, profile);
                out
            }
        };
        return out.into_result();
    }
    run_fallback_after(prog, graph, &layout.gs, cfg, faults[0], sdcs[0], profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::testing::{MiniSssp, INF};
    use cusha_graph::Edge;

    fn line_graph(n: u32) -> Graph {
        // 0 -> 1 -> 2 -> ... with weight 2 each.
        let edges = (0..n - 1).map(|v| Edge::new(v, v + 1, 2)).collect();
        Graph::new(n, edges)
    }

    fn check_line_distances(values: &[u32]) {
        for (v, &d) in values.iter().enumerate() {
            assert_eq!(d, 2 * v as u32, "vertex {v}");
        }
    }

    #[test]
    fn gs_solves_line_graph() {
        let g = line_graph(50);
        let cfg = CuShaConfig::gs().with_vertices_per_shard(8);
        let out = run(&MiniSssp { source: 0 }, &g, &cfg);
        assert!(out.stats.converged);
        check_line_distances(&out.values);
        // Line of 50 with shards of 8: asynchrony lets a value cross many
        // shards per iteration, but at least a couple of iterations happen.
        assert!(out.stats.iterations >= 2);
    }

    #[test]
    fn cw_solves_line_graph() {
        let g = line_graph(50);
        let cfg = CuShaConfig::cw().with_vertices_per_shard(8);
        let out = run(&MiniSssp { source: 0 }, &g, &cfg);
        assert!(out.stats.converged);
        check_line_distances(&out.values);
    }

    #[test]
    fn gs_and_cw_agree_on_random_graph() {
        use cusha_graph::generators::rmat::{rmat, RmatConfig};
        let g = rmat(&RmatConfig::graph500(8, 1500, 21));
        let gs_out = run(
            &MiniSssp { source: 0 },
            &g,
            &CuShaConfig::gs().with_vertices_per_shard(32),
        );
        let cw_out = run(
            &MiniSssp { source: 0 },
            &g,
            &CuShaConfig::cw().with_vertices_per_shard(32),
        );
        assert_eq!(gs_out.values, cw_out.values);
        assert!(gs_out.stats.converged && cw_out.stats.converged);
    }

    #[test]
    fn views_share_the_sort_and_run_like_a_build_of_their_own() {
        use cusha_graph::generators::rmat::{rmat, RmatConfig};
        let g = rmat(&RmatConfig::graph500(8, 1500, 21));
        let prog = MiniSssp { source: 0 };
        let warm = |layout: &PreparedLayout| {
            let cfg = CuShaConfig::new(layout.repr());
            let out = try_run_warm(&prog, &g, layout, &cfg, None, &mut NoopObserver).unwrap();
            (out.values, format!("{:?}", out.stats))
        };
        for (built, other) in [
            (Repr::ConcatWindows, Repr::GShards),
            (Repr::GShards, Repr::ConcatWindows),
        ] {
            let layout = PreparedLayout::build(&g, built, 32);
            let view = layout.view(other);
            assert!(Arc::ptr_eq(&layout.gs, &view.gs));
            assert_eq!(view.repr(), other);
            assert_eq!(view.cw().is_some(), other == Repr::ConcatWindows);
            assert_eq!(warm(&view), warm(&PreparedLayout::build(&g, other, 32)));
            // A run left its recordings with the view; the layout it came
            // from, and a clone of either, still start cold.
            assert_ne!(view.replay_slots(), (0, 0));
            assert_eq!(layout.replay_slots(), (0, 0));
            assert_eq!(view.clone().replay_slots(), (0, 0));
        }
    }

    /// Every placement over one layout answers what its one-shot twin does,
    /// statistics included; a streamed run that degrades from CW runs its
    /// G-Shards rung on the layout's own shard arrays.
    #[test]
    fn every_placement_over_one_layout_matches_its_one_shot_twin() {
        use crate::multi::{try_run_multi, MultiConfig};
        use crate::streaming::{try_run_streamed, StreamingConfig};
        use cusha_graph::generators::rmat::{rmat, RmatConfig};
        let g = rmat(&RmatConfig::graph500(8, 1500, 21));
        let prog = MiniSssp { source: 0 };
        let cfg = CuShaConfig::cw().with_vertices_per_shard(32);
        let layout =
            PreparedLayout::for_program::<MiniSssp>(&g, &cfg, &Placement::Resident).unwrap();
        let placed = |placement: &Placement,
                      plan: Option<&mut FaultPlan>,
                      observer: &mut dyn RunObserver| {
            try_run_placed(&prog, &g, &layout, &cfg, placement, plan, observer).unwrap()
        };
        let shown = |out: CuShaOutput<u32>| (out.values, format!("{:?}", out.stats));
        // Resident first: it records into the layout's replay tables, which
        // no other placement reads.
        let resident = placed(&Placement::Resident, None, &mut NoopObserver);
        assert_eq!(shown(resident), shown(try_run(&prog, &g, &cfg).unwrap()));
        let (bytes, streamed) = (4096, StreamingConfig::new(cfg.clone(), 4096));
        let out = placed(&Placement::streamed(bytes), None, &mut NoopObserver);
        assert_eq!(
            shown(out),
            shown(try_run_streamed(&prog, &g, &streamed).unwrap())
        );
        for devices in [1, 2, 4] {
            let out = placed(&Placement::fleet(devices), None, &mut NoopObserver);
            let twin = try_run_multi(&prog, &g, &MultiConfig::new(cfg.clone(), devices)).unwrap();
            let fleet = out.stats.fleet.as_deref().expect("a fleet record");
            assert_eq!(out.values, twin.values, "x{devices}");
            assert_eq!(
                format!("{fleet:?}"),
                format!("{:?}", twin.stats),
                "x{devices}"
            );
        }

        /// The holders of the layout's G-Shards arrays at each boundary.
        struct Holders<'a>(&'a Arc<GShards>, Vec<usize>);
        impl RunObserver for Holders<'_> {
            fn on_iteration(&mut self, _iteration: u32, _updated: u64, _elapsed: f64) -> bool {
                self.1.push(Arc::strong_count(self.0));
                true
            }
        }
        let cw_faults = FaultPlan::new().fail_kernels_named("CuSha-CW", u64::MAX);
        let (mut plan, mut holders) = (cw_faults.clone(), Holders(&layout.gs, Vec::new()));
        let out = placed(&Placement::streamed(bytes), Some(&mut plan), &mut holders);
        assert_eq!(
            (out.stats.engine.as_str(), out.stats.fault.degradations),
            ("CuSha-GS-streamed", 1)
        );
        // The CW rung never reached a boundary; at every boundary of the
        // G-Shards rung the layout's arrays had a second holder, the rung's view.
        assert!(
            !holders.1.is_empty() && holders.1.iter().all(|&n| n == 2),
            "{:?}",
            holders.1
        );
        assert!(Arc::ptr_eq(&layout.view(Repr::GShards).gs, &layout.gs));
        let twin = StreamingConfig::new(cfg.clone().with_fault_plan(cw_faults), bytes);
        assert_eq!(
            shown(out),
            shown(try_run_streamed(&prog, &g, &twin).unwrap())
        );
    }

    #[test]
    fn unreachable_vertices_stay_at_inf() {
        let g = Graph::new(4, vec![Edge::new(0, 1, 1)]);
        let out = run(
            &MiniSssp { source: 0 },
            &g,
            &CuShaConfig::gs().with_vertices_per_shard(2),
        );
        assert_eq!(out.values, vec![0, 1, INF, INF]);
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = Graph::empty(8);
        let out = run(
            &MiniSssp { source: 0 },
            &g,
            &CuShaConfig::cw().with_vertices_per_shard(4),
        );
        assert!(out.stats.converged);
        assert_eq!(out.stats.iterations, 1);
        assert_eq!(out.values[0], 0);
        assert!(out.values[1..].iter().all(|&v| v == INF));
    }

    #[test]
    fn stats_are_populated() {
        let g = line_graph(1024);
        let out = run(
            &MiniSssp { source: 0 },
            &g,
            &CuShaConfig::gs().with_vertices_per_shard(128),
        );
        let s = &out.stats;
        assert!(s.h2d_seconds > 0.0);
        assert!(s.compute_seconds > 0.0);
        assert!(s.d2h_seconds > 0.0);
        assert_eq!(s.per_iteration.len(), s.iterations as usize);
        assert!(s.kernel.counters.warp_instructions > 0);
        // Last iteration discovers no updates.
        assert_eq!(s.per_iteration.last().unwrap().updated_vertices, 0);
        // Earlier iterations did update vertices.
        assert!(s.per_iteration[0].updated_vertices > 0);
        // Coalesced layout: high load efficiency on this contiguous graph.
        assert!(
            s.kernel.gld_efficiency() > 0.5,
            "{}",
            s.kernel.gld_efficiency()
        );
    }

    #[test]
    fn autotuned_shard_size_works() {
        let g = line_graph(300);
        let out = run(&MiniSssp { source: 0 }, &g, &CuShaConfig::cw());
        check_line_distances(&out.values);
    }

    #[test]
    fn profiling_flag_retains_kernel_history() {
        let g = line_graph(40);
        let mut cfg = CuShaConfig::cw().with_vertices_per_shard(8);
        cfg.profile = true;
        let out = run(&MiniSssp { source: 0 }, &g, &cfg);
        let profile = out.stats.profile.expect("profile retained");
        assert_eq!(profile.launches().len(), out.stats.iterations as usize);
        assert!(profile.report().contains("CuSha-CW::mini-sssp"));
        // Off by default.
        let out2 = run(
            &MiniSssp { source: 0 },
            &g,
            &CuShaConfig::gs().with_vertices_per_shard(8),
        );
        assert!(out2.stats.profile.is_none());
    }

    #[test]
    fn self_loops_are_harmless() {
        let mut edges = vec![Edge::new(0, 1, 3), Edge::new(1, 1, 1)];
        edges.push(Edge::new(1, 2, 3));
        let g = Graph::new(3, edges);
        let out = run(
            &MiniSssp { source: 0 },
            &g,
            &CuShaConfig::gs().with_vertices_per_shard(2),
        );
        assert_eq!(out.values, vec![0, 3, 6]);
    }
}
