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
//! in `crate::kernel`; the host loop around it is `crate::multi::drive`, the
//! fleet's, which an in-core run enters as a fleet of one. This module holds
//! what every engine takes — configuration, [`PreparedLayout`], the observer
//! trait — and the in-core façades over that loop.

use crate::autotune::select_vertices_per_shard;
use crate::cw::ConcatWindows;
use crate::error::{check_topology, EngineError};
use crate::fallback::run_fallback_after;
use crate::integrity::{IntegrityConfig, Stop};
use crate::kernel::RetryPolicy;
use crate::memsize::{check_fits, ValueSizes};
use crate::multi::{drive, Driven, FaultPolicy, Start};
use crate::program::VertexProgram;
use crate::shards::GShards;
use crate::stats::RunStats;
use cusha_graph::Graph;
use cusha_obs::trace::{lanes, ArgVal, Tracer};
use cusha_simt::{DeviceConfig, DeviceFleet, FaultPlan, Gpu, ReplayMemo};
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
    /// [`cusha_simt::FaultPlan`]. The in-core engine surfaces injected
    /// faults as [`EngineError`]s; the streamed engine recovers from them.
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
    rev: Option<u64>,
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
            rev: None,
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
    /// [`PreparedLayout::select_n_per`] picks — unless the representation
    /// cannot fit `cfg.device` ([`check_fits`]): the one-shot engines' way in.
    pub fn for_program<P: VertexProgram>(
        graph: &Graph,
        cfg: &CuShaConfig,
    ) -> Result<Self, EngineError<P::V>> {
        let sizes = ValueSizes::of::<P>();
        let n_per = Self::select_n_per(graph, cfg, sizes.vertex);
        let (v, e) = (graph.num_vertices() as u64, graph.num_edges() as u64);
        check_fits(v, e, sizes, Some((cfg.repr, n_per)), &cfg.device)?;
        Ok(Self::build(graph, cfg.repr, n_per))
    }

    /// Stamps the layout with the revision of the graph it was built from.
    ///
    /// Layouts are immutable snapshots of one graph revision; a caller
    /// that mutates its graph (the resident service's live-mutation path)
    /// stamps each layout at build time and checks
    /// [`PreparedLayout::valid_for`] before every warm launch, so a layout
    /// that outlived its revision is caught as a typed internal error
    /// instead of silently answering from a superseded epoch.
    pub fn stamp_rev(&mut self, rev: u64) {
        self.rev = Some(rev);
    }

    /// Whether this layout may serve a graph at revision `rev`. Unstamped
    /// layouts (one-shot engine paths that never mutate) accept any
    /// revision.
    pub fn valid_for(&self, rev: u64) -> bool {
        self.rev.is_none_or(|r| r == rev)
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

/// Emits one engine-lane `iteration` span. `iteration` is 1-based — the
/// number [`RunObserver::on_iteration`] reports — on every engine.
pub(crate) fn trace_iteration(
    trace: &Tracer,
    pid: u32,
    ts: f64,
    dur: f64,
    iteration: u32,
    updated: u64,
) {
    trace.complete_with(pid, lanes::ENGINE, "engine", "iteration", ts, dur, || {
        vec![
            ("iteration", ArgVal::U64(iteration as u64)),
            ("updated_vertices", ArgVal::U64(updated)),
        ]
    });
}

/// Executes `prog` over `graph` with the given configuration.
///
/// # Panics
/// Panics on invalid configuration or graph, and on any device fault the
/// installed [`FaultPlan`] injects. A run that merely hits the iteration
/// cap returns its partial output (with `stats.converged == false`), which
/// is the historical behavior. Fallible callers use [`try_run`].
pub fn run<P: VertexProgram>(prog: &P, graph: &Graph, cfg: &CuShaConfig) -> CuShaOutput<P::V> {
    match try_run(prog, graph, cfg) {
        Ok(out) => out,
        Err(EngineError::NonConverged { partial }) => *partial,
        Err(e) => panic!("{e}"),
    }
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
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let layout = PreparedLayout::for_program::<P>(graph, cfg)?;
    try_run_warm(prog, graph, &layout, cfg, None, &mut NoopObserver)
}

/// Executes `prog` over `graph` reusing a caller-held [`PreparedLayout`] —
/// the resident-service entry point.
///
/// Beyond [`try_run`]'s behavior this entry:
///
/// * skips shard/window construction (the layout is warm),
/// * threads the caller's [`FaultPlan`] through the run when `fault_plan`
///   is `Some`: the plan is installed in place of
///   [`CuShaConfig::fault_plan`] and its advanced state (operation and
///   flip-point counters, injection log) is written back on **every** exit
///   path, so consumed one-shot faults and bit flips never re-fire on the
///   next run sharing the plan,
/// * calls `observer` at every iteration boundary; an observer returning
///   `false` cancels the run with [`EngineError::Deadline`].
pub fn try_run_warm<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    layout: &PreparedLayout,
    cfg: &CuShaConfig,
    mut fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let built = (layout.gs.num_vertices(), layout.gs.num_edges());
    check_topology("layout", built, graph)?;
    if layout.repr != cfg.repr {
        return Err(EngineError::InvalidConfig(format!(
            "layout was built for {}, config asks for {}",
            layout.repr.label(),
            cfg.repr.label()
        )));
    }
    let mut gpu = Gpu::new(cfg.device.clone());
    gpu.set_profiling(cfg.profile);
    // Single-device runs occupy process lane 0 of the trace; a device
    // embedded in a fleet is instead wired by `DeviceFleet::set_tracer`.
    gpu.set_tracer(cfg.trace.clone(), 0);
    if let Some(plan) = fault_plan.as_deref_mut() {
        gpu.set_fault_plan(plan.clone());
    } else if let Some(plan) = cfg.fault_plan.clone() {
        gpu.set_fault_plan(plan);
    }
    let id = accounting_id::<P>(&cfg.device);
    gpu.swap_replay_memo(layout.replay.lend(&id));
    // In-core is a fleet of one: this device, every shard resident, no
    // fabric (so the engine lane is on the device's own trace process), and
    // every fault surfaced unretried — the caller owns recovery.
    let mut fleet = DeviceFleet::solo(gpu);
    let (shards, policy) = (
        0..layout.num_shards(),
        FaultPolicy::Surface(RetryPolicy::NONE, 0),
    );
    let name = format!("{}::{}", cfg.repr.label(), prog.name());
    let (mut fault, mut sdc) = Default::default();
    let records = (
        std::slice::from_mut(&mut fault),
        std::slice::from_mut(&mut sdc),
    );
    let result = drive(
        prog,
        graph,
        cfg,
        layout,
        std::slice::from_ref(&shards),
        &mut fleet,
        policy,
        Start::Resident,
        &name,
        records,
        observer,
    );
    let gpu = fleet.device_mut(0);
    layout
        .replay
        .give_back(id, gpu.swap_replay_memo(ReplayMemo::new()));
    // Write the advanced plan back regardless of outcome: counters consumed
    // by a failed or cancelled run are consumed for good.
    if let Some(slot) = fault_plan {
        if let Some(advanced) = gpu.take_fault_plan() {
            *slot = advanced;
        }
    }
    // The single-engine shape of an in-core run: the device's raw clocks split
    // where the upload ended and the final download began — per-iteration flag
    // traffic counts as part of the compute loop.
    let shaped = |(out, clocks): Driven<P::V>| {
        let (dev, before) = (&out.stats.per_device[0], clocks[0].d2h_before_results);
        let compute = dev.kernel_seconds + (dev.h2d_seconds - out.stats.setup_seconds) + before;
        let d2h = dev.d2h_seconds - before;
        out.into_solo(cfg.repr.label().into(), layout.num_shards(), compute, d2h)
    };
    match result.map(shaped) {
        Ok(output) if output.stats.converged => Ok(output),
        Ok(output) => Err(EngineError::NonConverged {
            partial: Box::new(output),
        }),
        Err(Stop::Error(e)) => Err(e),
        // The ladder's last rung: abandon the device for the host fallback,
        // which no device flip can reach.
        Err(Stop::Abandon) => {
            sdc.host_fallbacks += 1;
            run_fallback_after(prog, graph, cfg, fault, sdc, None)
        }
    }
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
