//! The multi-device engine: G-Shards/CW over a [`DeviceFleet`] with a
//! modeled halo exchange — and, in `drive`, the one host loop the fleet and
//! the in-core engine share: [`crate::try_run_warm`] enters it as a fleet of
//! one over a borrowed layout, with no fabric and every fault surfaced.
//!
//! The graph's shard sequence is split into N edge-balanced contiguous
//! ranges ([`FleetPartition`]); device `d` holds the vertex values, shard
//! entries and (CW) concatenated windows of its own range. Each iteration
//! every device runs the same four-stage kernel as the single-device engine
//! over its shards; stage-4 writes that land in *another* device's shard
//! arrays — the halo updates — are written to a per-device outbox buffer
//! (charging normal store traffic) and then exchanged: one bulk-synchronous
//! all-to-all per iteration, timed by the fleet's [`Interconnect`].
//!
//! **Determinism / bit-identity.** Functionally the fleet re-enacts the
//! single-device engine's exact schedule: devices are processed in
//! ascending order (continuing the global block-id order), and each
//! device's halo updates are applied to their targets immediately after its
//! launch — so devices later in the order observe them within the same
//! iteration and earlier devices in the next, exactly like stage-4 writes
//! through the single shared `SrcValue` array. Outputs are therefore
//! bit-identical to [`crate::run`] for any device count. *Timing* is
//! modeled as concurrent: an iteration costs the slowest device's wall time
//! plus the exchange, which is where the speedup (and the interconnect
//! bottleneck) appears.
//!
//! **Fault isolation.** Each device has its own [`FaultPlan`] and its own
//! recovery ladder — transient copy faults retry with exponential backoff,
//! kernel faults relaunch in place (launch faults fire before any block
//! runs, so the relaunch is exact), a device that cannot hold its partition
//! rebatches it through a fresh device under a shrinking budget, and a
//! device whose kernel keeps faulting degrades to a host-side re-enactment
//! of its own shards. A faulted device never poisons the fleet: the other
//! devices keep running on hardware, and results stay bit-identical. That
//! is the *recover in place* value of the loop's one fault policy; the
//! in-core engine passes *surface*, and the same faults leave as typed errors.

use crate::engine::{
    trace_iteration, CuShaConfig, CuShaOutput, NoopObserver, PreparedLayout, RunObserver,
};
use crate::error::EngineError;
use crate::fallback::FALLBACK_LABEL;
use crate::integrity::{apply_flips, checksum, Ask, Checkpoint, Detector, Recovery, Rung, Stop};
use crate::kernel::{
    batch_end, entry_range, upload_resident, vertex_range, with_copy_retries, DeviceSlice,
    HostArrays, Resident, RetryPolicy, SpillVia,
};
use crate::memsize::{entry_bytes, ValueSizes};
use crate::middleware::DeadlineObserver;
use crate::program::VertexProgram;
use crate::stats::{FaultStats, IterationStat, MemoStats, RunStats, SdcStats};
use cusha_graph::{FleetPartition, Graph};
use cusha_obs::trace::{lanes, ArgVal};
use cusha_simt::{
    DeviceFault, DeviceFleet, FaultPlan, Gpu, Interconnect, KernelStats, Pod, Profile,
};
use std::collections::HashSet;
use std::ops::Range;

/// Most devices a fleet may have: the interconnect presets model one host's
/// fabric (a PCIe root complex, an NVLink island), and no such host carries
/// more. Idle devices are legal, so the shard count is not the bound; every
/// per-device structure is allocated up front, so the count must have one.
pub const MAX_DEVICES: usize = 64;

/// Configuration of the multi-device engine.
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// Base engine configuration (representation, shard size, per-device
    /// hardware model, watchdog). `base.fault_plan`, if set, is installed
    /// on device 0 unless [`MultiConfig::fault_plans`] overrides it.
    pub base: CuShaConfig,
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Interconnect preset timing the per-iteration halo exchange.
    pub interconnect: Interconnect,
    /// Per-device fault plans (index = device id); shorter than `devices`
    /// leaves the remaining devices fault-free.
    pub fault_plans: Vec<Option<cusha_simt::FaultPlan>>,
    /// Transient-copy-fault retries allowed per operation per device.
    pub max_copy_retries: u32,
    /// First retry's backoff in seconds; doubles per subsequent retry.
    pub backoff_base_seconds: f64,
    /// In-place kernel relaunches before a device degrades to the host.
    pub max_kernel_retries: u32,
    /// Budget-halving cycles allowed per device on OOM before it degrades.
    pub max_rebatches: u32,
}

impl MultiConfig {
    /// `devices` copies of the base configuration's device over PCIe.
    pub fn new(base: CuShaConfig, devices: usize) -> Self {
        MultiConfig {
            base,
            devices,
            interconnect: Interconnect::pcie_gen3(),
            fault_plans: Vec::new(),
            max_copy_retries: 3,
            backoff_base_seconds: 1e-3,
            max_kernel_retries: 1,
            max_rebatches: 8,
        }
    }

    /// Does nothing: the fleet runs its devices in order on the calling
    /// thread. Kept only because `crates/bench/examples/ledger/matrix.rs`
    /// calls it and is frozen to this change; the `benchmark` PR that retires
    /// simwall (ROADMAP "One benchmark") removes the call and this shim.
    #[doc(hidden)]
    pub fn with_jobs(self, _: usize) -> Self {
        self
    }

    /// Selects the interconnect preset.
    pub fn with_interconnect(mut self, ic: Interconnect) -> Self {
        self.interconnect = ic;
        self
    }

    /// Installs a fault plan on one device of the fleet.
    pub fn with_device_fault_plan(mut self, d: usize, plan: cusha_simt::FaultPlan) -> Self {
        if self.fault_plans.len() <= d {
            self.fault_plans.resize(d + 1, None);
        }
        self.fault_plans[d] = Some(plan);
        self
    }

    /// Checks the multi-device invariants on top of
    /// [`CuShaConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if !(1..=MAX_DEVICES).contains(&self.devices) {
            return Err(format!(
                "devices must be between 1 and {MAX_DEVICES}, got {}",
                self.devices
            ));
        }
        if self.fault_plans.len() > self.devices {
            return Err(format!(
                "fault_plans names device {} but the fleet has {} devices",
                self.fault_plans.len() - 1,
                self.devices
            ));
        }
        Ok(())
    }
}

/// Per-device breakdown inside a [`MultiRunStats`].
#[derive(Clone, Debug)]
pub struct DeviceRunStats {
    /// Device id within the fleet.
    pub device: usize,
    /// How the device finished the run: `"resident"` (whole partition on
    /// device), `"rebatched"` (OOM recovery: batches through a fresh
    /// device), or `"host-fallback"` (kernel-fault recovery).
    pub mode: &'static str,
    /// Shards owned by this device.
    pub shards: usize,
    /// Vertices owned by this device.
    pub vertices: usize,
    /// Shard entries (edges) owned by this device.
    pub edges: usize,
    /// Remote vertices this device's entries read (the partition halo).
    pub halo_vertices: usize,
    /// Host→device seconds charged on this device.
    pub h2d_seconds: f64,
    /// Device→host seconds charged on this device.
    pub d2h_seconds: f64,
    /// Kernel seconds charged on this device.
    pub kernel_seconds: f64,
    /// Kernels launched on this device.
    pub kernels_launched: u64,
    /// Accumulated simulator counters of this device's launches.
    pub kernel: KernelStats,
    /// Halo bytes this device sent over the interconnect.
    pub exchange_sent_bytes: u64,
    /// Halo bytes this device received over the interconnect.
    pub exchange_recv_bytes: u64,
    /// Recovery activity on this device.
    pub fault: FaultStats,
    /// Silent-data-corruption defense activity on this device.
    pub sdc: SdcStats,
    /// Per-launch kernel history when profiling was enabled.
    pub profile: Option<Profile>,
}

/// Statistics of one multi-device run.
#[derive(Clone, Debug, Default)]
pub struct MultiRunStats {
    /// Engine label, e.g. `"CuSha-CW x4"`.
    pub engine: String,
    /// Interconnect preset name.
    pub interconnect: String,
    /// Devices in the fleet.
    pub devices: usize,
    /// Iterations until convergence (or the cap).
    pub iterations: u32,
    /// Whether the fleet converged before the iteration cap.
    pub converged: bool,
    /// Modeled setup seconds: the slowest device's initial upload.
    pub setup_seconds: f64,
    /// Modeled iteration seconds: per iteration, the slowest device's wall
    /// (transfers + kernels + watchdog snapshots), devices overlapping.
    pub compute_seconds: f64,
    /// Total halo bytes moved over the interconnect.
    pub exchange_bytes: u64,
    /// Modeled interconnect seconds across all exchanges.
    pub exchange_seconds: f64,
    /// Modeled final-download seconds: the slowest device's result copy.
    pub teardown_seconds: f64,
    /// Edge-count load imbalance of the partition (1.0 = perfect).
    pub load_imbalance: f64,
    /// Per-device breakdown.
    pub per_device: Vec<DeviceRunStats>,
    /// Fleet-level aggregate of every device's kernel counters.
    pub aggregate: KernelStats,
    /// Fleet-level aggregate of every device's recovery activity.
    pub fault: FaultStats,
    /// Fleet-level aggregate of every device's SDC-defense activity.
    pub sdc: SdcStats,
    /// Per-iteration detail (seconds = slowest device's kernel time).
    pub per_iteration: Vec<IterationStat>,
    /// Simulator memo activity summed over every `Gpu` the run used (each
    /// device's, and those a rebatching device retired).
    pub memo: MemoStats,
}

impl MultiRunStats {
    /// End-to-end modeled seconds: setup + overlapped iterations +
    /// exchanges + teardown.
    pub fn modeled_seconds(&self) -> f64 {
        self.setup_seconds + self.compute_seconds + self.exchange_seconds + self.teardown_seconds
    }

    /// Flattens into a single-engine [`RunStats`] (setup → `h2d`,
    /// iterations + exchange → `compute`, teardown → `d2h`, aggregate
    /// counters → `kernel`) for code paths that consume the single-device
    /// shape, e.g. [`EngineError::NonConverged`].
    pub fn as_run_stats(&self) -> RunStats {
        RunStats {
            engine: self.engine.clone(),
            iterations: self.iterations,
            converged: self.converged,
            h2d_seconds: self.setup_seconds,
            compute_seconds: self.compute_seconds + self.exchange_seconds,
            d2h_seconds: self.teardown_seconds,
            per_iteration: self.per_iteration.clone(),
            kernel: self.aggregate.clone(),
            profile: None,
            fault: self.fault,
            sdc: self.sdc,
            frontier: None,
            memo: self.memo,
        }
    }

    /// Records the fleet run — overlapped phase timings, exchange volume,
    /// aggregate kernel counters, fleet fault activity, and a per-device
    /// breakdown under an added `device=N` label — into a metrics registry.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("multi_devices", labels, self.devices as u64);
        reg.add("run_iterations", labels, self.iterations as u64);
        reg.set_gauge(
            "run_converged",
            labels,
            if self.converged { 1.0 } else { 0.0 },
        );
        reg.set_gauge("multi_setup_seconds", labels, self.setup_seconds);
        reg.set_gauge("multi_compute_seconds", labels, self.compute_seconds);
        reg.set_gauge("multi_exchange_seconds", labels, self.exchange_seconds);
        reg.set_gauge("multi_teardown_seconds", labels, self.teardown_seconds);
        reg.set_gauge("multi_total_seconds", labels, self.modeled_seconds());
        reg.add("multi_exchange_bytes", labels, self.exchange_bytes);
        reg.set_gauge("multi_load_imbalance", labels, self.load_imbalance);
        for it in &self.per_iteration {
            reg.observe("iteration_seconds", labels, it.seconds);
            reg.observe(
                "iteration_updated_vertices",
                labels,
                it.updated_vertices as f64,
            );
        }
        self.aggregate.record_metrics(reg, labels);
        self.fault.record_metrics(reg, labels);
        self.sdc.record_metrics(reg, labels);
        for dev in &self.per_device {
            let id = dev.device.to_string();
            let mut dl: Vec<(&str, &str)> = labels.to_vec();
            dl.push(("device", &id));
            reg.add("device_shards", &dl, dev.shards as u64);
            reg.add("device_vertices", &dl, dev.vertices as u64);
            reg.add("device_edges", &dl, dev.edges as u64);
            reg.add("device_halo_vertices", &dl, dev.halo_vertices as u64);
            reg.add("device_kernels_launched", &dl, dev.kernels_launched);
            reg.add("device_exchange_sent_bytes", &dl, dev.exchange_sent_bytes);
            reg.add("device_exchange_recv_bytes", &dl, dev.exchange_recv_bytes);
            reg.set_gauge("device_h2d_seconds", &dl, dev.h2d_seconds);
            reg.set_gauge("device_d2h_seconds", &dl, dev.d2h_seconds);
            reg.set_gauge("device_kernel_seconds", &dl, dev.kernel_seconds);
            dev.kernel.record_metrics(reg, &dl);
            dev.fault.record_metrics(reg, &dl);
            dev.sdc.record_metrics(reg, &dl);
        }
    }
}

/// Result of a multi-device run.
#[derive(Clone, Debug)]
pub struct MultiOutput<V> {
    /// Final vertex values, indexed by vertex id — bit-identical to the
    /// single-device engine's.
    pub values: Vec<V>,
    /// Multi-device statistics.
    pub stats: MultiRunStats,
}

/// Executes `prog` over `graph` on a fleet of `cfg.devices` devices.
///
/// # Panics
/// Panics on invalid configuration or graph and on unrecovered device
/// faults. A run that merely hits the iteration cap returns its partial
/// output (`stats.converged == false`). Fallible callers use
/// [`try_run_multi`].
pub fn run_multi<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
) -> MultiOutput<P::V> {
    match run_fleet(prog, graph, cfg, None, &mut NoopObserver) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Executes `prog` over `graph` on the fleet, returning every failure as an
/// [`EngineError`]. A capped run yields [`EngineError::NonConverged`]
/// carrying the flattened partial output.
pub fn try_run_multi<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    try_run_multi_observed(prog, graph, cfg, None, &mut NoopObserver)
}

/// [`try_run_multi`] with the resident-caller extras of
/// [`try_run_warm`](crate::try_run_warm): a caller-owned [`FaultPlan`]
/// (installed on device 0 in place of `cfg.base.fault_plan` unless
/// `cfg.fault_plans` names per-device plans; its advanced state is written
/// back on every exit) and a [`RunObserver`] consulted after every iteration
/// (elapsed is the modeled fleet clock: per-iteration critical path plus halo
/// exchange). The observer returning `false` aborts with
/// [`EngineError::Deadline`].
pub fn try_run_multi_observed<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    let out = run_fleet(prog, graph, cfg, fault_plan, observer)?;
    if out.stats.converged {
        Ok(out)
    } else {
        let partial = CuShaOutput {
            values: out.values,
            stats: out.stats.as_run_stats(),
        };
        Err(EngineError::NonConverged {
            partial: Box::new(partial),
        })
    }
}

/// The fleet façade over [`drive`]: it owns the layout and the partition,
/// builds the devices (share-sized replay tables, a fault plan each) over the
/// configured interconnect, and recovers in place. Returns the output whether
/// or not it converged (the `converged` flag tells); hard failures are errors.
fn run_fleet<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let n_per = PreparedLayout::select_n_per(graph, &cfg.base, <P::V as Pod>::SIZE);
    let layout = PreparedLayout::build(graph, cfg.base.repr, n_per);
    let fp = FleetPartition::from_graph(graph, n_per, cfg.devices);
    debug_assert_eq!(fp.num_shards(), layout.num_shards() as usize);

    let mut fleet = DeviceFleet::new(&cfg.base.device, cfg.devices, cfg.interconnect.clone());
    fleet.set_tracer(&cfg.base.trace);
    for d in 0..cfg.devices {
        fleet.device_mut(d).set_profiling(cfg.base.profile);
    }
    // The base plan (the caller's, when one is carried) lands on device 0
    // unless per-device plans override it.
    let carried = cfg.fault_plans.iter().all(Option::is_none);
    let mut plans = cfg.fault_plans.clone();
    if carried {
        let base = fault_plan.as_deref().cloned();
        plans = vec![base.or_else(|| cfg.base.fault_plan.clone())];
    }
    for (d, plan) in plans.into_iter().enumerate() {
        if let Some(p) = plan {
            fleet.device_mut(d).set_fault_plan(p);
        }
    }

    let shards = fp.parts().iter().map(|part| &part.shards);
    let shards: Vec<_> = shards.map(|s| s.start as u32..s.end as u32).collect();
    let retry = RetryPolicy {
        max_copy_retries: cfg.max_copy_retries,
        backoff_base_seconds: cfg.backoff_base_seconds,
        max_kernel_retries: cfg.max_kernel_retries,
    };
    let policy = FaultPolicy::Recover(retry, cfg.max_rebatches);
    let (base, pid, fleet) = (&cfg.base, fleet.fleet_pid(), &mut fleet);
    let result = drive(
        prog, graph, base, &layout, &shards, fleet, pid, policy, observer,
    );
    // Counters consumed by a failed or cancelled run are consumed for good.
    if let (true, Some(slot)) = (carried, fault_plan) {
        if let Some(advanced) = fleet.device_mut(0).take_fault_plan() {
            *slot = advanced;
        }
    }
    let mut out = match result {
        Ok((out, _)) => out,
        Err(Stop::Error(e)) => return Err(e),
        Err(Stop::Abandon(_)) => unreachable!("the fleet recovers in place"),
    };
    let stats = &mut out.stats;
    stats.engine = match cfg.devices {
        1 => cfg.base.repr.label().to_string(),
        n => format!("{} x{n}", cfg.base.repr.label()),
    };
    stats.interconnect = cfg.interconnect.name.to_string();
    stats.load_imbalance = fp.imbalance();
    for (dev, part) in stats.per_device.iter_mut().zip(fp.parts()) {
        dev.halo_vertices = part.halo.len();
    }
    Ok(out)
}

/// What a fault does once its in-place retries are spent — the one thing the
/// engines' recovery differs in. Each façade derives its value; it is never a
/// setting.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FaultPolicy {
    /// The in-core engine: nothing is retried and nothing recovers in place.
    /// An upload OOM, a kernel or copy fault and a spent SDC ladder each
    /// leave [`drive`] as a typed [`Stop`]; the caller owns what comes next.
    Surface,
    /// The fleet: copies and launches retry under the [`RetryPolicy`], a
    /// device that cannot hold its partition rebatches it (at most this many
    /// halvings), and a device whose kernel keeps faulting — or that a spent
    /// SDC ladder suspects — degrades to the host re-enactment of its shards.
    Recover(RetryPolicy, u32),
}

impl FaultPolicy {
    /// The one decision between the two values: `Err(stop())` leaves the loop
    /// with the fault; `Ok(())` tells the caller to recover in place.
    fn absorb<S>(self, stop: impl FnOnce() -> S) -> Result<(), S> {
        match self {
            FaultPolicy::Surface => Err(stop()),
            FaultPolicy::Recover(..) => Ok(()),
        }
    }
}

/// What [`drive`] returns: the values with a fleet-shaped record — complete but
/// for what only a partition knows (`engine`, `interconnect`,
/// `load_imbalance`, each device's `halo_vertices`) — and each device's D2H
/// clock when the final download began.
pub(crate) type Driven<V> = (MultiOutput<V>, Vec<f64>);

/// Global ranges of one device's slice of the layout.
#[derive(Clone, Debug)]
struct DevInfo {
    /// Global shard ids owned (contiguous).
    shards: Range<u32>,
    /// Global vertex range covered by those shards.
    vrange: Range<usize>,
    /// Global shard-entry range covered.
    erange: Range<usize>,
}

/// Device-resident state of one device's partition slice.
struct Held<P: VertexProgram> {
    res: Resident<P::V>,
    slice: DeviceSlice<P>,
}

/// Execution mode of one device.
enum Mode<P: VertexProgram> {
    /// No shards assigned (more devices than shards); never launches.
    Idle,
    /// Whole partition slice resident on the device.
    Resident(Box<Held<P>>),
    /// OOM recovery: shards stream through a fresh device in batches under
    /// the byte budget.
    Rebatched {
        /// Current per-batch byte budget; halved on each further OOM.
        budget: u64,
    },
    /// Kernel-fault recovery: the device's shards are re-enacted on the
    /// host (bit-identical, zero modeled device time).
    Fallback,
}

impl<P: VertexProgram> Mode<P> {
    fn label(&self) -> &'static str {
        match self {
            Mode::Idle => "idle",
            Mode::Resident(_) => "resident",
            Mode::Rebatched { .. } => "rebatched",
            Mode::Fallback => FALLBACK_LABEL,
        }
    }
}

/// Totals carried across device rebuilds (rebatching replaces the `Gpu`,
/// which restarts its counters).
#[derive(Clone, Copy, Default)]
struct TimeAcc {
    h2d: f64,
    d2h: f64,
    kernel: f64,
    launched: u64,
    memo: MemoStats,
}

/// Everything the convergence loop needs, shared across devices.
struct MultiState<'a, P: VertexProgram> {
    prog: &'a P,
    base: &'a CuShaConfig,
    policy: FaultPolicy,
    retry: RetryPolicy,
    max_rebatches: u32,
    layout: &'a PreparedLayout,
    fleet: &'a mut DeviceFleet,
    infos: Vec<DevInfo>,
    modes: Vec<Mode<P>>,
    /// Host-authoritative vertex values and `SrcValue` column for
    /// non-resident devices (resident devices keep theirs on device; their
    /// master slices are stale). Released once everything is uploaded under
    /// [`FaultPolicy::Surface`], where no device can leave `Resident`.
    host: HostArrays<P>,
    faults: Vec<FaultStats>,
    /// Each device's clock when its time was last accounted (see `lap`).
    marks: Vec<f64>,
    /// Scrub references: each resident device's checksums as of the end of
    /// the previous fleet iteration (or the last restore).
    crcs: Vec<(u64, u64)>,
    acc: Vec<TimeAcc>,
    profiles: Vec<Option<Profile>>,
    desc_name: std::sync::Arc<str>,
}

/// Outcome of one device's slice of one iteration.
#[derive(Default)]
struct DeviceIter<V> {
    updated: u64,
    kernel_seconds: f64,
    /// Stage-4 writes outside the launch's own entry range, in write order:
    /// `(global entry position, value)`.
    spills: Vec<(usize, V)>,
}

impl<P: VertexProgram> MultiState<'_, P> {
    fn device_time(&self, d: usize) -> f64 {
        let g = self.fleet.device(d);
        let a = &self.acc[d];
        a.h2d + a.d2h + a.kernel + g.h2d_seconds + g.d2h_seconds + g.kernel_seconds
    }

    /// Seconds device `d`'s clock advanced since it was last asked, which is
    /// how every span of fleet time is measured: an iteration's wall, a
    /// snapshot's or a restore's transfers, the final download.
    fn lap(&mut self, d: usize) -> f64 {
        let now = self.device_time(d);
        now - std::mem::replace(&mut self.marks[d], now)
    }

    /// The engine lane's clock: the fleet clock over a fabric, else the
    /// devices' own clocks end to end.
    fn now(&self, fleet_clock: f64) -> f64 {
        match self.fleet.interconnect() {
            Some(_) => fleet_clock,
            None => (0..self.infos.len()).map(|d| self.device_time(d)).sum(),
        }
    }

    /// The device whose entry range holds global entry `k` (the ranges tile
    /// the entry space; an empty partition's is empty).
    fn owner_of_entry(&self, k: usize) -> usize {
        let owner = self.infos.iter().position(|i| i.erange.contains(&k));
        owner.expect("device entry ranges tile the layout")
    }

    /// Emits a recovery instant on device `d`'s fault lane at its clock.
    fn fault_instant(&self, d: usize, cat: &'static str, name: &str) {
        let (pid, ts) = (self.fleet.device(d).trace_pid(), self.device_time(d));
        self.base.trace.instant(pid, lanes::FAULT, cat, name, ts);
    }

    /// Switches device `d` to the host re-enactment after its kernel (or
    /// rebatch budget) gave out.
    fn degrade_to_host(&mut self, d: usize) {
        self.faults[d].degradations += 1;
        self.fault_instant(d, "fault", "degrade-to-host");
        self.modes[d] = Mode::Fallback;
    }

    /// Swaps a fresh `Gpu` in for device `d` — the simulated allocator never
    /// frees, so each batch of a rebatched device starts on an empty one —
    /// carrying the fault plan over and folding the retired device's counters
    /// into the carried totals.
    fn fresh_gpu(&mut self, d: usize) {
        let mut fresh = Gpu::new(self.base.device.clone());
        fresh.set_profiling(self.base.profile);
        let mut old = self.fleet.replace_device(d, fresh);
        let a = &mut self.acc[d];
        a.h2d += old.h2d_seconds;
        a.d2h += old.d2h_seconds;
        a.kernel += old.kernel_seconds;
        a.launched += old.kernels_launched;
        a.memo.add(&MemoStats::from_gpu(&old));
        if let Some(p) = old.profile.take() {
            self.profiles[d].get_or_insert_default().absorb(&p);
        }
        if let Some(plan) = old.take_fault_plan() {
            self.fleet.device_mut(d).set_fault_plan(plan);
        }
    }

    /// Uploads device `d`'s state for `shards` from the host masters; `Err`
    /// carries the device fault (OOM → caller switches the device to
    /// rebatched mode or shrinks the batch).
    fn upload(&mut self, d: usize, shards: Range<u32>) -> Result<Held<P>, DeviceFault> {
        let (res, slice) = upload_resident(
            self.fleet.device_mut(d),
            &self.retry,
            &mut self.faults[d],
            self.layout,
            &self.host,
            shards,
            SpillVia::Outbox,
        )?;
        Ok(Held { res, slice })
    }

    /// Applies every resident device's due bit flips to its on-device
    /// buffers. Flips land while the data is at rest in device DRAM, before
    /// any device of the fleet launches — later writes into those buffers
    /// (spills from other devices' stage 4) are legitimate and must not be
    /// mistaken for corruption by the scrub that follows. Devices running
    /// rebatched or on the host stage through trusted host masters, which
    /// the flip model (device DRAM) cannot reach. Each flip is counted in its
    /// device's record.
    fn apply_due_flips(&mut self, sdcs: &mut [SdcStats]) {
        for (d, mode) in self.modes.iter_mut().enumerate() {
            if let Mode::Resident(dev) = mode {
                let flips = self.fleet.device_mut(d).take_due_bit_flips();
                sdcs[d].flips_injected += flips.len() as u64;
                if !flips.is_empty() {
                    apply_flips(&flips, &mut dev.res.vertex_values, &mut dev.slice.src_value);
                }
            }
        }
    }

    /// Checksums of a resident device's two protected buffers.
    fn crcs_of(dev: &Held<P>) -> (u64, u64) {
        let (values, src_value) = (dev.res.vertex_values.host(), dev.slice.src_value.host());
        (checksum(values), checksum(src_value))
    }

    /// Scrub pass: the first resident device `stale` says no longer matches
    /// the checksums recorded at the end of the previous fleet iteration.
    fn scrub(&self, stale: impl Fn(&Held<P>, &DevInfo, (u64, u64)) -> bool) -> Option<usize> {
        (0..self.infos.len()).find(|&d| {
            matches!(&self.modes[d], Mode::Resident(dev) if stale(dev, &self.infos[d], self.crcs[d]))
        })
    }

    /// Records the post-iteration checksums of every resident device's
    /// protected buffers (after all spills of the iteration have landed) —
    /// the state the next scrub pass must find untouched.
    fn store_crcs(&mut self) {
        for (mode, crc) in self.modes.iter().zip(&mut self.crcs) {
            if let Mode::Resident(dev) = mode {
                *crc = Self::crcs_of(dev);
            }
        }
    }

    /// Assembles the global vertex values, device by device (their ranges
    /// tile the vertex space in order): a resident device's slice is a real,
    /// charged D2H download, the rest comes from the host master. With `srcs`,
    /// the global `SrcValue` column into it the same way.
    fn snapshot(&mut self, mut srcs: Option<&mut Vec<P::V>>) -> Result<Vec<P::V>, DeviceFault> {
        let retry = self.retry;
        let mut vals = Vec::new();
        if let Some(srcs) = srcs.as_deref_mut() {
            srcs.clear();
        }
        for (d, info) in self.infos.iter().enumerate() {
            let Mode::Resident(dev) = &self.modes[d] else {
                vals.extend_from_slice(&self.host.values[info.vrange.clone()]);
                if let Some(srcs) = srcs.as_deref_mut() {
                    srcs.extend_from_slice(&self.host.src_value[info.erange.clone()]);
                }
                continue;
            };
            let gpu = self.fleet.device_mut(d);
            let fault = &mut self.faults[d];
            let mut v = with_copy_retries(gpu, &retry, fault, |g| {
                g.try_download(&dev.res.vertex_values)
            })?;
            // A lone device's download is the snapshot: no second buffer.
            if vals.is_empty() {
                vals = v;
            } else {
                vals.append(&mut v);
            }
            if let Some(srcs) = srcs.as_deref_mut() {
                let sv = with_copy_retries(gpu, &retry, fault, |g| {
                    g.try_download(&dev.slice.src_value)
                })?;
                srcs.extend_from_slice(&sv);
            }
        }
        Ok(vals)
    }

    /// Restores the whole fleet to the given verified global state: both
    /// host masters (while they are kept), plus each resident device's
    /// slices as real, charged H2D uploads, which become the scrub
    /// references.
    fn restore_global(&mut self, to: &Checkpoint<P::V>) -> Result<(), DeviceFault> {
        if let FaultPolicy::Recover(..) = self.policy {
            self.host.values.copy_from_slice(&to.values);
            self.host.src_value.copy_from_slice(&to.src_value);
        }
        let retry = self.retry;
        for d in 0..self.infos.len() {
            let info = &self.infos[d];
            let Mode::Resident(dev) = &mut self.modes[d] else {
                continue;
            };
            let gpu = self.fleet.device_mut(d);
            let fault = &mut self.faults[d];
            with_copy_retries(gpu, &retry, fault, |g| {
                g.try_h2d(&mut dev.res.vertex_values, &to.values[info.vrange.clone()])
            })?;
            with_copy_retries(gpu, &retry, fault, |g| {
                g.try_h2d(&mut dev.slice.src_value, &to.src_value[info.erange.clone()])
            })?;
            self.crcs[d] = Self::crcs_of(dev);
        }
        Ok(())
    }

    /// Host re-enactment of `shards` for device `d` over the master arrays.
    /// Stage-4 writes outside the device's own entry range are also pushed
    /// as spills so they still flow through the halo exchange accounting.
    fn host_iterate(&mut self, d: usize, shards: Range<u32>, out: &mut DeviceIter<P::V>) {
        let (gs, own) = (self.layout.gs(), &self.infos[d].erange);
        out.updated += self.host.sweep(self.prog, gs, shards, own, &mut out.spills);
    }

    /// One iteration of a resident device: flag reset, launch (in-place
    /// retries inside), flag readback. When the kernel retries are spent the
    /// fault surfaces, or — recovering in place — the device's state is
    /// downloaded into the masters (launch faults fire before any block runs,
    /// so it is the pre-iteration state) and the host re-enacts this
    /// iteration and every later one.
    fn iterate_resident(
        &mut self,
        d: usize,
        out: &mut DeviceIter<P::V>,
    ) -> Result<(), DeviceFault> {
        let retry = self.retry;
        let threads = self.base.threads_per_block;
        let Mode::Resident(dev) = &mut self.modes[d] else {
            unreachable!("caller matched a resident device")
        };
        let Held { res, slice } = &mut **dev;
        let gpu = self.fleet.device_mut(d);
        let fault = &mut self.faults[d];
        res.reset_flag(gpu, &retry, fault)?;
        let (name, layout) = (&self.desc_name, self.layout);
        match slice.launch(
            gpu, name, threads, self.prog, layout, res, None, &retry, fault,
        ) {
            Ok((kstats, updated)) => {
                // Read back for its modeled charge; the count already tells.
                let flag = res.read_flag(gpu, &retry, fault)?;
                debug_assert_eq!(flag == 1, updated == 0, "is_converged disagrees");
                out.kernel_seconds = kstats.seconds;
                out.updated = updated;
                slice.take_spills(&mut out.spills);
                self.fleet.record_launch(d, &kstats);
            }
            Err(f @ DeviceFault::Kernel { .. }) => {
                self.policy.absorb(|| f)?;
                let info = self.infos[d].clone();
                let vals =
                    with_copy_retries(gpu, &retry, fault, |g| g.try_download(&res.vertex_values))?;
                self.host.values[info.vrange].copy_from_slice(&vals);
                let srcv =
                    with_copy_retries(gpu, &retry, fault, |g| g.try_download(&slice.src_value))?;
                self.host.src_value[info.erange].copy_from_slice(&srcv);
                self.degrade_to_host(d);
                self.host_iterate(d, info.shards, out);
            }
            Err(other) => return Err(other),
        }
        Ok(())
    }

    /// One iteration of a rebatched device: its shards stream through a
    /// fresh device in contiguous batches under the byte budget; each
    /// batch's updated slices are downloaded back into the masters. A
    /// further OOM halves the budget (up to the rebatch cap); exhausted
    /// kernel retries degrade to host fallback.
    fn iterate_rebatched(
        &mut self,
        d: usize,
        out: &mut DeviceIter<P::V>,
    ) -> Result<(), DeviceFault> {
        let shards = self.infos[d].shards.clone();
        let per_entry = entry_bytes(ValueSizes::of::<P>(), self.base.repr);
        let mut s = shards.start;
        while s < shards.end {
            let Mode::Rebatched { budget } = self.modes[d] else {
                unreachable!()
            };
            let end = batch_end(self.layout.gs(), per_entry, budget, s, shards.end);
            let degrade = match self.run_batch(d, s..end, out) {
                Ok(()) => {
                    s = end;
                    continue;
                }
                Err(DeviceFault::Oom { .. }) => {
                    self.faults[d].oom_rebatches += 1;
                    self.fault_instant(d, "fault", "oom-rebatch");
                    self.modes[d] = Mode::Rebatched {
                        budget: (budget / 2).max(per_entry),
                    };
                    self.faults[d].oom_rebatches > self.max_rebatches
                }
                Err(DeviceFault::Kernel { .. }) => true,
                Err(other) => return Err(other),
            };
            if degrade {
                self.degrade_to_host(d);
                self.host_iterate(d, s..shards.end, out);
                break;
            }
        }
        Ok(())
    }

    /// Uploads, launches and downloads one batch of a rebatched device
    /// through a fresh `Gpu`. Kernel faults are retried in place up to the
    /// cap and then surface to the caller for degradation.
    fn run_batch(
        &mut self,
        d: usize,
        batch: Range<u32>,
        out: &mut DeviceIter<P::V>,
    ) -> Result<(), DeviceFault> {
        let retry = self.retry;
        self.fresh_gpu(d);
        let mut dev = self.upload(d, batch)?;
        let gpu = self.fleet.device_mut(d);
        let fault = &mut self.faults[d];
        let (kstats, updated) = dev.slice.launch(
            gpu,
            &self.desc_name,
            self.base.threads_per_block,
            self.prog,
            self.layout,
            &mut dev.res,
            None,
            &retry,
            fault,
        )?;
        out.kernel_seconds += kstats.seconds;
        self.fleet.record_launch(d, &kstats);
        let gpu = self.fleet.device_mut(d);
        dev.res.read_flag(gpu, &retry, fault)?;
        // Sync the batch's updated state back into the masters — the next
        // batch (and the next iteration) upload from them.
        let vals = with_copy_retries(gpu, &retry, fault, |g| {
            g.try_download(&dev.res.vertex_values)
        })?;
        self.host.values[dev.res.voff..][..vals.len()].copy_from_slice(&vals);
        let srcv = with_copy_retries(gpu, &retry, fault, |g| g.try_download(&dev.slice.src_value))?;
        self.host.src_value[dev.slice.erange.clone()].copy_from_slice(&srcv);
        // Cross-batch stage-4 writes must land in the master `SrcValue`
        // before the next batch uploads its slice — that is exactly the
        // single-buffer visibility the resident kernel has for free.
        let first = out.spills.len();
        dev.slice.take_spills(&mut out.spills);
        for &(k, v) in &out.spills[first..] {
            self.host.src_value[k] = v;
        }
        out.updated += updated;
        Ok(())
    }
}

/// The one host loop around the kernel: upload each device's shard range,
/// iterate the devices in order until no vertex value changes, download. An
/// in-core run is a fleet of one whose device stays resident; what the two
/// callers differ in is exactly what they pass:
///
/// * `layout` is borrowed — its owner decides whether it outlives the run —
///   and `shards` gives each device its contiguous share of `0..num_shards`;
/// * `fleet` holds the devices as their owner set them up (tracer, fault
///   plan, profiling, replay table) and takes them back, plus their fabric.
///   Over one, devices overlap and the engine lane runs on the fleet clock
///   (slowest device per iteration, then the exchange); with none there is no
///   exchange step and the lane's clock is the devices' own, end to end;
/// * `engine_pid` is the trace process of the engine lane (setup, iteration
///   and download spans, events that belong to no one device);
/// * `policy` surfaces a fault or recovers from it in place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    base: &CuShaConfig,
    layout: &PreparedLayout,
    shards: &[Range<u32>],
    fleet: &mut DeviceFleet,
    engine_pid: u32,
    policy: FaultPolicy,
    observer: &mut O,
) -> Result<Driven<P::V>, Stop<P::V>> {
    let observer = &mut DeadlineObserver::new(base.deadline_seconds, observer);
    let (retry, max_rebatches) = match policy {
        FaultPolicy::Surface => (RetryPolicy::NONE, 0),
        FaultPolicy::Recover(retry, max_rebatches) => (retry, max_rebatches),
    };
    let (gs, n) = (layout.gs(), shards.len());
    let infos = shards.iter().map(|shards| DevInfo {
        vrange: vertex_range(gs, shards),
        erange: entry_range(gs, shards),
        shards: shards.clone(),
    });
    let mut st = MultiState {
        prog,
        base,
        policy,
        retry,
        max_rebatches,
        layout,
        fleet,
        infos: infos.collect(),
        modes: (0..n).map(|_| Mode::Idle).collect(),
        host: HostArrays::new(prog, graph, gs),
        faults: vec![FaultStats::default(); n],
        marks: vec![0.0; n],
        crcs: vec![(0, 0); n],
        acc: vec![TimeAcc::default(); n],
        profiles: vec![None; n],
        desc_name: format!("{}::{}", base.repr.label(), prog.name()).into(),
    };

    // ---- Setup: upload every non-empty partition (H2D) --------------------
    for d in 0..n {
        if st.infos[d].shards.is_empty() {
            continue;
        }
        match st.upload(d, st.infos[d].shards.clone()) {
            Ok(held) => st.modes[d] = Mode::Resident(Box::new(held)),
            Err(f @ DeviceFault::Oom { .. }) => {
                policy.absorb(|| f)?;
                // The partition does not fit: stream it in batches under
                // half the device's memory, like the streamed engine.
                st.faults[d].oom_rebatches += 1;
                st.fault_instant(d, "fault", "oom-rebatch");
                st.modes[d] = Mode::Rebatched {
                    budget: (base.device.global_mem_bytes / 2).max(1),
                };
            }
            Err(f) => return Err(f.into()),
        }
    }
    let setup_seconds = (0..n).map(|d| st.lap(d)).fold(0.0, f64::max);
    let trace = &base.trace;
    let span = |name, ts, dur| trace.complete(engine_pid, lanes::ENGINE, "engine", name, ts, dur);
    span("setup", 0.0, setup_seconds);
    // Fleet clock: devices overlap, so the fleet timeline advances by the
    // slowest device's wall per iteration plus each exchange.
    let mut fleet_clock = setup_seconds;

    // ---- Convergence loop -------------------------------------------------
    let halo_bytes_per_vertex = <P::V as Pod>::SIZE as u64 + 4; // value + vertex id
    let mut stats = MultiRunStats {
        devices: n,
        setup_seconds,
        ..Default::default()
    };
    let mut sent_bytes_total = vec![0u64; n];
    let mut recv_bytes_total = vec![0u64; n];
    let mut watchdog_seconds = 0.0f64;
    let mut converged = false;
    // Per-iteration scratch, cleared and reused: `(halo vertex, target)`
    // pairs and bytes each device sent, one device's iteration outcome.
    let mut sent_pairs: Vec<HashSet<(u32, usize)>> = vec![HashSet::new(); n];
    let mut sent = vec![0u64; n];
    let mut res = DeviceIter::default();

    // ---- SDC defense state ------------------------------------------------
    // The masters still hold the untouched initial state here (no iteration
    // has run), so they seed the recovery ladder for free. Fleet-global
    // bookkeeping (checkpoints, invariant detections) is attributed to
    // device 0.
    let integ = base.integrity;
    let mut sdcs = vec![SdcStats::default(); n];
    let (sdc, host) = (&mut sdcs[0], &st.host);
    let mut recovery = Recovery::new(base, sdc, &host.values, &host.src_value);
    if let FaultPolicy::Surface = policy {
        // Everything is uploaded, no device can leave `Resident`, and
        // `recovery` keeps the restart image it needs.
        st.host.release();
    }
    if integ.mode.checksums() {
        st.store_crcs();
    }
    let mut integrity_seconds = 0.0f64;

    // The fleet as `Recovery` drives it: restores and snapshots are global
    // (masters plus every resident device's slices), and each books its
    // transfers — the recovery share of the run, kept apart from the
    // watchdog's. Marks go to device `$lane`'s fault lane, or to the engine
    // lane's process when the event belongs to no device.
    macro_rules! fleet {
        ($lane:expr) => {
            |ask: Ask<'_, P::V>| {
                let seconds = match ask {
                    Ask::Restore(cp) => {
                        st.restore_global(cp)?;
                        &mut integrity_seconds
                    }
                    Ask::Snapshot(values, Some(srcs)) => {
                        *values = st.snapshot(Some(srcs))?;
                        &mut integrity_seconds
                    }
                    Ask::Snapshot(values, None) => {
                        *values = st.snapshot(None)?;
                        &mut watchdog_seconds
                    }
                    Ask::Mark(name) => {
                        match $lane {
                            Some(d) => st.fault_instant(d, "sdc", name),
                            None => {
                                let now = st.now(fleet_clock);
                                trace.instant(engine_pid, lanes::FAULT, "sdc", name, now)
                            }
                        }
                        return Ok(());
                    }
                };
                for d in 0..n {
                    *seconds += st.lap(d);
                }
                Ok(())
            }
        };
    }
    // One rung of the ladder after a corruption was detected on (or
    // attributed to) device `$det`; the budgets are fleet-wide. Past the last
    // rung the run is abandoned with its SDC record, or — recovering in
    // place — degrades to the host re-enactment the detecting device for a
    // checksum hit, every resident device for an invariant hit (whose
    // culprit is unknown), since host masters are immune to device flips.
    macro_rules! recover {
        ($det:expr, $detector:expr) => {{
            let det: usize = $det;
            let spent = sdcs.iter().fold((0, 0), |sum, s| {
                (sum.0 + s.rollbacks, sum.1 + s.full_restarts)
            });
            let (iterations, detail) = (&mut stats.iterations, &mut stats.per_iteration);
            let sdc = &mut sdcs[det];
            let rung =
                recovery.step($detector, sdc, spent, iterations, detail, fleet!(Some(det)))?;
            if let Rung::Exhausted = rung {
                policy.absorb(|| {
                    let mut total = SdcStats::default();
                    sdcs.iter().for_each(|sdc| total.absorb(sdc));
                    Stop::Abandon(total)
                })?;
                let victims: Vec<usize> = match $detector {
                    Detector::Checksum => vec![det],
                    Detector::Invariant => (0..n)
                        .filter(|&d| matches!(st.modes[d], Mode::Resident(_)))
                        .collect(),
                };
                // With nothing left to degrade (the whole fleet already runs
                // on host masters) the run proceeds rather than rewinding
                // without progress; the iteration cap still bounds the loop.
                if !victims.is_empty() {
                    let sdc = &mut sdcs[det];
                    recovery.rewind(sdc, iterations, detail, &mut fleet!(Some(det)))?;
                }
                for v in victims {
                    st.modes[v] = Mode::Fallback;
                    sdcs[v].host_fallbacks += 1;
                    st.fault_instant(v, "sdc", "host-fallback");
                }
            }
        }};
    }

    let (values, teardown, download_from) = 'run: loop {
        while stats.iterations < base.max_iterations {
            // Flip points: every device's due silent bit flips land while the
            // fleet is quiescent, and the scrubber verifies every resident
            // device before any kernel consumes (or spill overwrites) the
            // corrupted words.
            st.apply_due_flips(&mut sdcs);
            if integ.mode.checksums() {
                if let Some(det) = st.scrub(|dev, _, crcs| MultiState::crcs_of(dev) != crcs) {
                    recover!(det, Detector::Checksum);
                    continue;
                }
            }
            let iter_ts = st.now(fleet_clock);
            let mut iter_updated = 0u64;
            let mut max_wall = 0.0f64;
            let mut max_kernel = 0.0f64;
            // Devices run in ascending order, continuing the global block
            // order; each device's halo updates land — in the owning resident
            // device's buffer, else the master column — before the next
            // device launches, so later devices observe them this iteration
            // and earlier ones next: the single-buffer stage-4 visibility of
            // the one-device engine.
            for (d, sent) in sent_pairs.iter_mut().enumerate() {
                res.updated = 0;
                res.kernel_seconds = 0.0;
                res.spills.clear();
                sent.clear();
                match &st.modes[d] {
                    Mode::Idle => continue,
                    Mode::Resident(_) => st.iterate_resident(d, &mut res)?,
                    Mode::Rebatched { .. } => st.iterate_rebatched(d, &mut res)?,
                    Mode::Fallback => st.host_iterate(d, st.infos[d].shards.clone(), &mut res),
                }
                for &(k, v) in &res.spills {
                    let t = st.owner_of_entry(k);
                    match &mut st.modes[t] {
                        // Its slice is authoritative; a degrade downloads it
                        // into the master before the host reads that.
                        Mode::Resident(dev) => {
                            dev.slice.src_value.host_mut()[k - st.infos[t].erange.start] = v
                        }
                        _ => st.host.src_value[k] = v,
                    }
                    if t != d {
                        sent.insert((gs.src_index()[k], t));
                    }
                }
                iter_updated += res.updated;
                max_kernel = max_kernel.max(res.kernel_seconds);
                max_wall = max_wall.max(st.lap(d));
            }
            // Record the post-iteration checksums once every device's spills
            // have landed — legitimate halo writes into a peer's `SrcValue`
            // must be inside the reference, not flagged by the next scrub.
            if integ.mode.checksums() {
                st.store_crcs();
            }
            stats.iterations += 1;
            stats.per_iteration.push(IterationStat {
                seconds: max_kernel,
                updated_vertices: iter_updated,
            });
            stats.compute_seconds += max_wall;
            trace_iteration(
                trace,
                engine_pid,
                iter_ts,
                max_wall,
                stats.iterations,
                iter_updated,
            );
            fleet_clock += max_wall;
            let (now, updated) = (st.now(fleet_clock), iter_updated as f64);
            trace.counter(engine_pid, lanes::ENGINE, "updated_vertices", now, updated);
            // Bulk-synchronous halo exchange over the interconnect.
            if let Some(fabric) = st.fleet.interconnect() {
                for (bytes, set) in sent.iter_mut().zip(&sent_pairs) {
                    *bytes = set.len() as u64 * halo_bytes_per_vertex;
                }
                let exchange = fabric.exchange_seconds(&sent);
                stats.exchange_seconds += exchange;
                let exchanged_bytes: u64 = sent.iter().sum();
                trace.complete_with(
                    engine_pid,
                    lanes::ENGINE,
                    "exchange",
                    "halo-exchange",
                    fleet_clock,
                    exchange,
                    || vec![("bytes", ArgVal::U64(exchanged_bytes))],
                );
                fleet_clock += exchange;
                for (d, set) in sent_pairs.iter().enumerate() {
                    sent_bytes_total[d] += sent[d];
                    stats.exchange_bytes += sent[d];
                    for &(_, t) in set {
                        recv_bytes_total[t] += halo_bytes_per_vertex;
                    }
                }
            }
            if iter_updated == 0 {
                converged = true;
                break;
            }
            // Iteration boundary: deadline, checkpoint (assembling the global
            // state from every device) and watchdog — the in-flight kernels
            // have completed, so aborting never leaves partial device writes.
            let (iterations, elapsed) = (stats.iterations, st.now(fleet_clock));
            let (sdc, dev) = (&mut sdcs[0], fleet!(None::<usize>));
            if recovery.boundary(observer, prog, sdc, iterations, iter_updated, elapsed, dev)? {
                recover!(0, Detector::Invariant);
            }
        }
        // The loop's end is marked in the engine lane's own time order: the
        // fleet clock stops here (the teardown hangs off it), a device's own
        // clock runs on through its download.
        if st.fleet.interconnect().is_some() {
            recovery.finish(fleet!(None::<usize>))?;
        }

        // ---- Download results (D2H) ---------------------------------------
        let download_ts = st.now(fleet_clock);
        let d2h_of = |d: usize| st.acc[d].d2h + st.fleet.device(d).d2h_seconds;
        let download_from = (0..n).map(d2h_of).collect();
        let values = st.snapshot(None)?;
        let teardown = (0..n).map(|d| st.lap(d)).fold(0.0, f64::max);
        span("download", download_ts, teardown);
        // Per-buffer checksum on download: the values just crossed the bus;
        // verify them against the scrubber reference before publishing. A
        // rejected download costs one more rung, and its transfer time rolls
        // into the recovery share of the next pass.
        if integ.mode.checksums() {
            let crossed = |_: &Held<P>, i: &DevInfo, crcs: (u64, u64)| {
                checksum(&values[i.vrange.clone()]) != crcs.0
            };
            if let Some(det) = st.scrub(crossed) {
                integrity_seconds += teardown;
                recover!(det, Detector::Checksum);
                converged = false;
                continue 'run;
            }
        }
        recovery.finish(fleet!(None::<usize>))?;
        break 'run (values, teardown, download_from);
    };
    stats.converged = converged;
    stats.compute_seconds += watchdog_seconds + integrity_seconds;
    stats.teardown_seconds = teardown;

    // ---- Per-device breakdown ---------------------------------------------
    for d in 0..n {
        let gpu = st.fleet.device(d);
        let (a, info) = (st.acc[d], &st.infos[d]);
        let mut profile = st.profiles[d].take();
        if let Some(fresh) = &gpu.profile {
            profile.get_or_insert_default().absorb(fresh);
        }
        stats.per_device.push(DeviceRunStats {
            device: d,
            mode: st.modes[d].label(),
            shards: info.shards.len(),
            vertices: info.vrange.len(),
            edges: info.erange.len(),
            halo_vertices: 0,
            h2d_seconds: a.h2d + gpu.h2d_seconds,
            d2h_seconds: a.d2h + gpu.d2h_seconds,
            kernel_seconds: a.kernel + gpu.kernel_seconds,
            kernels_launched: a.launched + gpu.kernels_launched,
            kernel: st.fleet.device_stats(d).clone(),
            exchange_sent_bytes: sent_bytes_total[d],
            exchange_recv_bytes: recv_bytes_total[d],
            fault: st.faults[d],
            sdc: sdcs[d],
            profile,
        });
        let f = &st.faults[d];
        stats.fault.copy_retries += f.copy_retries;
        stats.fault.backoff_seconds += f.backoff_seconds;
        stats.fault.oom_rebatches += f.oom_rebatches;
        stats.fault.degradations += f.degradations;
        stats.fault.kernel_retries += f.kernel_retries;
        stats.sdc.absorb(&sdcs[d]);
        stats.memo.add(&a.memo);
        stats.memo.add(&MemoStats::from_gpu(gpu));
    }
    stats.aggregate = st.fleet.aggregate_stats();
    stats.aggregate.name = st.desc_name.clone();

    Ok((MultiOutput { values, stats }, download_from))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, CuShaConfig};
    use crate::program::testing::{MiniSssp, INF};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Edge;
    use cusha_simt::FaultPlan;

    fn test_graph() -> Graph {
        rmat(&RmatConfig::graph500(8, 1500, 21))
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn one_device_matches_engine_bit_for_bit_gs() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 1));
        assert_eq!(single.values, multi.values);
        let (s, m) = (&single.stats, &multi.stats);
        assert_eq!(s.iterations, m.iterations);
        assert_eq!(m.exchange_bytes, 0);
        assert_eq!(m.exchange_seconds, 0.0);
        // Same upload/launch/readback schedule -> same modeled time.
        assert!(
            close(s.h2d_seconds, m.setup_seconds),
            "{} vs {}",
            s.h2d_seconds,
            m.setup_seconds
        );
        assert!(
            close(s.compute_seconds, m.compute_seconds),
            "{} vs {}",
            s.compute_seconds,
            m.compute_seconds
        );
        assert!(close(s.d2h_seconds, m.teardown_seconds));
        assert!(close(s.total_seconds(), m.modeled_seconds()));
    }

    #[test]
    fn one_device_matches_engine_bit_for_bit_cw() {
        let g = test_graph();
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 1));
        assert_eq!(single.values, multi.values);
        assert!(close(
            single.stats.total_seconds(),
            multi.stats.modeled_seconds()
        ));
    }

    #[test]
    fn multi_device_output_is_bit_identical() {
        let g = test_graph();
        for repr_cfg in [CuShaConfig::gs(), CuShaConfig::cw()] {
            let base = repr_cfg.with_vertices_per_shard(32);
            let single = run(&MiniSssp { source: 0 }, &g, &base);
            for devices in [2, 3, 4] {
                let multi = run_multi(
                    &MiniSssp { source: 0 },
                    &g,
                    &MultiConfig::new(base.clone(), devices),
                );
                assert_eq!(
                    single.values,
                    multi.values,
                    "{} x{devices} diverged",
                    base.repr.label()
                );
                assert_eq!(single.stats.iterations, multi.stats.iterations);
            }
        }
    }

    #[test]
    fn multi_device_exchanges_halo_bytes() {
        let g = test_graph();
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 4));
        assert!(multi.stats.exchange_bytes > 0);
        assert!(multi.stats.exchange_seconds > 0.0);
        let sent: u64 = multi
            .stats
            .per_device
            .iter()
            .map(|d| d.exchange_sent_bytes)
            .sum();
        let recv: u64 = multi
            .stats
            .per_device
            .iter()
            .map(|d| d.exchange_recv_bytes)
            .sum();
        assert_eq!(sent, multi.stats.exchange_bytes);
        assert!(recv > 0);
        assert!(multi.stats.load_imbalance >= 1.0);
    }

    #[test]
    fn nvlink_exchanges_faster_than_pcie() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let pcie = run_multi(
            &MiniSssp { source: 0 },
            &g,
            &MultiConfig::new(base.clone(), 4),
        );
        let nv = run_multi(
            &MiniSssp { source: 0 },
            &g,
            &MultiConfig::new(base, 4).with_interconnect(Interconnect::nvlink()),
        );
        assert_eq!(pcie.values, nv.values);
        assert_eq!(pcie.stats.exchange_bytes, nv.stats.exchange_bytes);
        assert!(nv.stats.exchange_seconds < pcie.stats.exchange_seconds);
    }

    #[test]
    fn more_devices_than_shards_leaves_spares_idle() {
        // 3 vertices at 2 per shard -> 2 shards, 4 devices.
        let g = Graph::new(
            3,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 5)],
        );
        let base = CuShaConfig::gs().with_vertices_per_shard(2);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 4));
        assert_eq!(single.values, multi.values);
        let idle = multi
            .stats
            .per_device
            .iter()
            .filter(|d| d.mode == "idle")
            .count();
        assert_eq!(idle, 2);
        for d in &multi.stats.per_device {
            if d.mode == "idle" {
                assert_eq!(d.kernels_launched, 0);
                assert_eq!(d.exchange_sent_bytes, 0);
            }
        }
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = Graph::empty(8);
        let base = CuShaConfig::cw().with_vertices_per_shard(4);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        assert!(multi.stats.converged);
        assert_eq!(multi.stats.iterations, 1);
        assert_eq!(multi.stats.exchange_bytes, 0);
        assert_eq!(multi.values[0], 0);
        assert!(multi.values[1..].iter().all(|&v| v == INF));
    }

    #[test]
    fn kernel_fault_on_one_device_degrades_it_not_the_fleet() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        // Two faults on device 1: the in-place retry is exhausted and the
        // device degrades to the host path.
        let cfg = MultiConfig::new(base, 3)
            .with_device_fault_plan(1, FaultPlan::new().fail_kernel_at(&[1, 2]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &cfg);
        assert_eq!(
            single.values, multi.values,
            "fault recovery broke bit-identity"
        );
        assert_eq!(multi.stats.per_device[1].mode, FALLBACK_LABEL);
        assert_eq!(multi.stats.per_device[1].fault.kernel_retries, 1);
        assert_eq!(multi.stats.per_device[1].fault.degradations, 1);
        assert_eq!(multi.stats.per_device[0].mode, "resident");
        assert_eq!(multi.stats.per_device[2].mode, "resident");
        assert!(multi.stats.fault.degradations == 1);
    }

    #[test]
    fn transient_copy_fault_is_retried() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let cfg =
            MultiConfig::new(base, 2).with_device_fault_plan(0, FaultPlan::new().fail_h2d_at(&[3]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &cfg);
        assert_eq!(single.values, multi.values);
        assert_eq!(multi.stats.per_device[0].fault.copy_retries, 1);
        assert!(multi.stats.fault.backoff_seconds > 0.0);
        assert_eq!(multi.stats.per_device[0].mode, "resident");
    }

    #[test]
    fn alloc_fault_rebatches_without_breaking_identity() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let cfg = MultiConfig::new(base, 2)
            .with_device_fault_plan(1, FaultPlan::new().fail_alloc_at(&[4]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &cfg);
        assert_eq!(single.values, multi.values, "rebatching broke bit-identity");
        assert_eq!(multi.stats.per_device[1].mode, "rebatched");
        assert!(multi.stats.per_device[1].fault.oom_rebatches >= 1);
        assert_eq!(multi.stats.per_device[0].mode, "resident");
    }

    #[test]
    fn base_fault_plan_lands_on_device_zero() {
        let g = test_graph();
        let base = CuShaConfig::gs()
            .with_vertices_per_shard(32)
            .with_fault_plan(FaultPlan::new().fail_h2d_at(&[1]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        assert_eq!(multi.stats.per_device[0].fault.copy_retries, 1);
        assert_eq!(multi.stats.per_device[1].fault.copy_retries, 0);
    }

    #[test]
    fn aggregate_equals_sum_of_devices() {
        let g = test_graph();
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 3));
        let s = &multi.stats;
        assert_eq!(s.per_device.len(), 3);
        let blocks: u32 = s.per_device.iter().map(|d| d.kernel.blocks).sum();
        assert_eq!(s.aggregate.blocks, blocks);
        let wi: u64 = s
            .per_device
            .iter()
            .map(|d| d.kernel.counters.warp_instructions)
            .sum();
        assert_eq!(s.aggregate.counters.warp_instructions, wi);
        let secs: f64 = s.per_device.iter().map(|d| d.kernel.seconds).sum();
        assert!(close(s.aggregate.seconds, secs));
        // Per-iteration compute is the slowest device, so overlapped time
        // is below the serial sum.
        let serial: f64 = s.per_device.iter().map(|d| d.kernel_seconds).sum();
        assert!(s.compute_seconds < serial + s.setup_seconds + 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let zero = MultiConfig {
            devices: 0,
            ..MultiConfig::new(base.clone(), 1)
        };
        assert!(matches!(
            try_run_multi(&MiniSssp { source: 0 }, &g, &zero),
            Err(EngineError::InvalidConfig(_))
        ));
        // Every per-device structure is allocated up front: the count is
        // bounded, never an unbounded allocation.
        for devices in [MAX_DEVICES + 1, 4_000_000_000, usize::MAX] {
            let huge = MultiConfig::new(base.clone(), devices);
            assert!(huge.validate().unwrap_err().contains("devices"));
            assert!(matches!(
                try_run_multi(&MiniSssp { source: 0 }, &g, &huge),
                Err(EngineError::InvalidConfig(_))
            ));
        }
        assert!(MultiConfig::new(base.clone(), MAX_DEVICES)
            .validate()
            .is_ok());
        let overfull = MultiConfig::new(base, 2).with_device_fault_plan(5, FaultPlan::new());
        assert!(matches!(
            try_run_multi(&MiniSssp { source: 0 }, &g, &overfull),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tracer_records_fleet_and_device_lanes() {
        use cusha_obs::trace::{Ph, Tracer};
        let g = test_graph();
        let tracer = Tracer::enabled();
        let base = CuShaConfig::gs()
            .with_vertices_per_shard(32)
            .with_tracer(tracer.clone());
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        let fleet_pid = 2u32; // devices 0..2, fleet lane after them
        tracer.with_events(|events| {
            let iters = events
                .iter()
                .filter(|e| e.pid == fleet_pid && e.name == "iteration" && e.ph == Ph::Complete)
                .count();
            assert_eq!(iters as u32, multi.stats.iterations);
            assert!(events
                .iter()
                .any(|e| e.pid == fleet_pid && e.name == "halo-exchange"));
            assert!(events
                .iter()
                .any(|e| e.pid == fleet_pid && e.name == "setup" && e.ph == Ph::Complete));
            // Both devices launched kernels on their own lanes.
            for pid in 0..2u32 {
                assert!(
                    events
                        .iter()
                        .any(|e| e.pid == pid && e.cat == "kernel" && e.ph == Ph::Complete),
                    "device {pid} has no kernel span"
                );
            }
        });
    }

    #[test]
    fn record_metrics_emits_per_device_series() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        let mut reg = cusha_obs::MetricsRegistry::new();
        multi.stats.record_metrics(&mut reg, &[("engine", "multi")]);
        let text = reg.render_text();
        assert!(text.contains("multi_devices{engine=multi}"));
        assert!(text.contains("device_kernel_seconds{device=0,engine=multi}"));
        assert!(text.contains("device_kernel_seconds{device=1,engine=multi}"));
        assert!(text.contains("gpu_gld_efficiency{device=1,engine=multi}"));
        assert!(text.contains("fault_copy_retries{engine=multi}"));
    }

    #[test]
    fn non_converged_carries_flattened_partial() {
        let g = test_graph();
        let mut base = CuShaConfig::gs().with_vertices_per_shard(32);
        base.max_iterations = 1;
        let err =
            try_run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2)).unwrap_err();
        match err {
            EngineError::NonConverged { partial } => {
                assert_eq!(partial.stats.iterations, 1);
                assert!(!partial.stats.converged);
                assert!(partial.stats.compute_seconds > 0.0);
            }
            other => panic!("expected NonConverged, got {other}"),
        }
    }
}
