//! The multi-device engine: G-Shards/CW over a [`DeviceFleet`] with a
//! modeled halo exchange.
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
//! devices keep running on hardware, and results stay bit-identical.

use crate::engine::{
    flips_fired, trace_iteration, CuShaConfig, CuShaOutput, NoopObserver, PreparedLayout,
    RunObserver,
};
use crate::error::EngineError;
use crate::fallback::FALLBACK_LABEL;
use crate::integrity::{apply_flips, scrub_crcs, Ask, Checkpoint, Detector, Recovery, Rung};
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
use cusha_simt::{DeviceFault, DeviceFleet, Gpu, Interconnect, KernelStats, Pod, Profile};
use std::collections::HashSet;
use std::ops::Range;

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
        if self.devices == 0 {
            return Err("devices must be at least 1".into());
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

    fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_copy_retries: self.max_copy_retries,
            backoff_base_seconds: self.backoff_base_seconds,
            max_kernel_retries: self.max_kernel_retries,
        }
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
    match run_multi_inner(prog, graph, cfg, &mut NoopObserver) {
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
    try_run_multi_observed(prog, graph, cfg, &mut NoopObserver)
}

/// [`try_run_multi`] with a [`RunObserver`] consulted after every fleet
/// iteration (elapsed is the modeled fleet clock: per-iteration critical
/// path plus halo exchange). The observer returning `false` aborts with
/// [`EngineError::Deadline`].
pub fn try_run_multi_observed<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
    observer: &mut O,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    let out = run_multi_inner(prog, graph, cfg, observer)?;
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
    cfg: &'a MultiConfig,
    layout: PreparedLayout,
    fleet: DeviceFleet,
    infos: Vec<DevInfo>,
    modes: Vec<Mode<P>>,
    /// Host-authoritative vertex values and `SrcValue` column for
    /// non-resident devices (resident devices keep theirs on device; their
    /// master slices are stale). The column also receives every halo update.
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

    /// The device whose entry range holds global entry `k` (the ranges tile
    /// the entry space; an empty partition's is empty).
    fn owner_of_entry(&self, k: usize) -> usize {
        let owner = self.infos.iter().position(|i| i.erange.contains(&k));
        owner.expect("device entry ranges tile the layout")
    }

    /// Emits a recovery instant on device `d`'s fault lane at its clock.
    fn fault_instant(&self, d: usize, cat: &'static str, name: &str) {
        let ts = self.device_time(d);
        self.cfg
            .base
            .trace
            .instant(d as u32, lanes::FAULT, cat, name, ts);
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
        let mut fresh = Gpu::new(self.cfg.base.device.clone());
        fresh.set_profiling(self.cfg.base.profile);
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
            &self.cfg.retry(),
            &mut self.faults[d],
            &self.layout,
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
    /// the flip model (device DRAM) cannot reach.
    fn apply_due_flips(&mut self) {
        for d in 0..self.cfg.devices {
            if let Mode::Resident(dev) = &mut self.modes[d] {
                let flips = self.fleet.device_mut(d).take_due_bit_flips();
                if !flips.is_empty() {
                    apply_flips(&flips, &mut dev.res.vertex_values, &mut dev.slice.src_value);
                }
            }
        }
    }

    /// Checksums of a resident device's two protected buffers.
    fn crcs_of(dev: &Held<P>) -> (u64, u64) {
        scrub_crcs(&dev.res.vertex_values, &dev.slice.src_value)
    }

    /// Scrub pass: verifies every resident device's protected buffers
    /// against the checksums recorded at the end of the previous fleet
    /// iteration, returning the first device whose state no longer matches.
    fn scrub(&self) -> Option<usize> {
        (0..self.cfg.devices).find(|&d| {
            matches!(&self.modes[d], Mode::Resident(dev) if Self::crcs_of(dev) != self.crcs[d])
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

    /// Assembles the global vertex values from the host master plus every
    /// resident device's slice (real, charged D2H downloads). With `srcs` —
    /// a copy of the master `SrcValue` column — resident slices of that
    /// column are downloaded into it as well.
    fn snapshot(&mut self, mut srcs: Option<&mut Vec<P::V>>) -> Result<Vec<P::V>, DeviceFault> {
        let retry = self.cfg.retry();
        let mut vals = self.host.values.clone();
        for d in 0..self.cfg.devices {
            let Mode::Resident(dev) = &self.modes[d] else {
                continue;
            };
            let gpu = self.fleet.device_mut(d);
            let fault = &mut self.faults[d];
            let v = with_copy_retries(gpu, &retry, fault, |g| {
                g.try_download(&dev.res.vertex_values)
            })?;
            vals[self.infos[d].vrange.clone()].copy_from_slice(&v);
            if let Some(srcs) = srcs.as_deref_mut() {
                let sv = with_copy_retries(gpu, &retry, fault, |g| {
                    g.try_download(&dev.slice.src_value)
                })?;
                srcs[self.infos[d].erange.clone()].copy_from_slice(&sv);
            }
        }
        Ok(vals)
    }

    /// Restores the whole fleet to the given verified global state: both
    /// host masters, plus each resident device's slices as real, charged
    /// H2D uploads, which become the scrub references.
    fn restore_global(&mut self, to: &Checkpoint<P::V>) -> Result<(), DeviceFault> {
        self.host.values.copy_from_slice(&to.values);
        self.host.src_value.copy_from_slice(&to.src_value);
        let retry = self.cfg.retry();
        for d in 0..self.cfg.devices {
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
    /// retries inside), flag readback. When the kernel retries are exhausted
    /// the device's state is downloaded into the masters — launch faults fire
    /// before any block runs, so it is the pre-iteration state — and the host
    /// re-enacts this iteration and every later one.
    fn iterate_resident(&mut self, d: usize) -> Result<DeviceIter<P::V>, DeviceFault> {
        let retry = self.cfg.retry();
        let threads = self.cfg.base.threads_per_block;
        let mut out = DeviceIter::default();
        let Mode::Resident(dev) = &mut self.modes[d] else {
            unreachable!("caller matched a resident device")
        };
        let Held { res, slice } = &mut **dev;
        let gpu = self.fleet.device_mut(d);
        let fault = &mut self.faults[d];
        res.reset_flag(gpu, &retry, fault)?;
        let (name, layout) = (&self.desc_name, &self.layout);
        match slice.launch(
            gpu, name, threads, self.prog, layout, res, None, &retry, fault,
        ) {
            Ok((kstats, updated)) => {
                res.read_flag(gpu, &retry, fault)?;
                out.kernel_seconds = kstats.seconds;
                out.updated = updated;
                out.spills = slice.take_spills();
                self.fleet.record_launch(d, &kstats);
            }
            Err(DeviceFault::Kernel { .. }) => {
                let info = self.infos[d].clone();
                let vals =
                    with_copy_retries(gpu, &retry, fault, |g| g.try_download(&res.vertex_values))?;
                self.host.values[info.vrange].copy_from_slice(&vals);
                let srcv =
                    with_copy_retries(gpu, &retry, fault, |g| g.try_download(&slice.src_value))?;
                self.host.src_value[info.erange].copy_from_slice(&srcv);
                self.degrade_to_host(d);
                self.host_iterate(d, info.shards, &mut out);
            }
            Err(other) => return Err(other),
        }
        Ok(out)
    }

    /// One iteration of a rebatched device: its shards stream through a
    /// fresh device in contiguous batches under the byte budget; each
    /// batch's updated slices are downloaded back into the masters. A
    /// further OOM halves the budget (up to the rebatch cap); exhausted
    /// kernel retries degrade to host fallback.
    fn iterate_rebatched(&mut self, d: usize) -> Result<DeviceIter<P::V>, DeviceFault> {
        let shards = self.infos[d].shards.clone();
        let per_entry = entry_bytes(ValueSizes::of::<P>(), self.cfg.base.repr);
        let mut out = DeviceIter::default();
        let mut s = shards.start;
        while s < shards.end {
            let Mode::Rebatched { budget } = self.modes[d] else {
                unreachable!()
            };
            let end = batch_end(self.layout.gs(), per_entry, budget, s, shards.end);
            let degrade = match self.run_batch(d, s..end, &mut out) {
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
                    self.faults[d].oom_rebatches > self.cfg.max_rebatches
                }
                Err(DeviceFault::Kernel { .. }) => true,
                Err(other) => return Err(other),
            };
            if degrade {
                self.degrade_to_host(d);
                self.host_iterate(d, s..shards.end, &mut out);
                break;
            }
        }
        Ok(out)
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
        let retry = self.cfg.retry();
        self.fresh_gpu(d);
        let mut dev = self.upload(d, batch)?;
        let gpu = self.fleet.device_mut(d);
        let fault = &mut self.faults[d];
        let (kstats, updated) = dev.slice.launch(
            gpu,
            &self.desc_name,
            self.cfg.base.threads_per_block,
            self.prog,
            &self.layout,
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
        let mut spills = dev.slice.take_spills();
        for &(k, v) in &spills {
            self.host.src_value[k] = v;
        }
        out.updated += updated;
        out.spills.append(&mut spills);
        Ok(())
    }
}

/// Runs the fleet to completion. Returns the output whether or not it
/// converged (the `converged` flag tells); hard failures are errors.
fn run_multi_inner<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
    observer: &mut O,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let observer = &mut DeadlineObserver::new(cfg.base.deadline_seconds, observer);
    let n_per = PreparedLayout::select_n_per(graph, &cfg.base, <P::V as Pod>::SIZE);
    let layout = PreparedLayout::build(graph, cfg.base.repr, n_per);
    let gs = layout.gs();
    let fp = FleetPartition::from_graph(graph, n_per, cfg.devices);
    debug_assert_eq!(fp.num_shards(), gs.num_shards() as usize);
    let host = HostArrays::new(prog, graph, gs);

    let mut fleet = DeviceFleet::new(&cfg.base.device, cfg.devices, cfg.interconnect.clone());
    fleet.set_tracer(&cfg.base.trace);
    let fleet_pid = fleet.fleet_pid();
    for d in 0..cfg.devices {
        fleet.device_mut(d).set_profiling(cfg.base.profile);
    }
    let mut plans = cfg.fault_plans.clone();
    if plans.iter().all(Option::is_none) {
        plans = vec![cfg.base.fault_plan.clone()];
    }
    // Per-run injection accounting differences against each plan's starting
    // log: a carried plan arrives with earlier runs' fires recorded.
    let mut flips_baseline = vec![0u64; cfg.devices];
    for (d, plan) in plans.into_iter().enumerate() {
        if let Some(p) = plan {
            flips_baseline[d] = flips_fired(Some(&p));
            fleet.device_mut(d).set_fault_plan(p);
        }
    }

    // Per-device global ranges from the edge-balanced partition.
    let infos: Vec<DevInfo> = fp
        .parts()
        .iter()
        .map(|part| {
            let shards = part.shards.start as u32..part.shards.end as u32;
            DevInfo {
                vrange: vertex_range(gs, &shards),
                erange: entry_range(gs, &shards),
                shards,
            }
        })
        .collect();
    let desc_name: std::sync::Arc<str> =
        format!("{}::{}", cfg.base.repr.label(), prog.name()).into();
    let engine_label = if cfg.devices == 1 {
        cfg.base.repr.label().to_string()
    } else {
        format!("{} x{}", cfg.base.repr.label(), cfg.devices)
    };

    let mut st = MultiState {
        prog,
        cfg,
        layout,
        fleet,
        infos,
        modes: (0..cfg.devices).map(|_| Mode::Idle).collect(),
        host,
        faults: vec![FaultStats::default(); cfg.devices],
        marks: vec![0.0; cfg.devices],
        crcs: vec![(0, 0); cfg.devices],
        acc: vec![TimeAcc::default(); cfg.devices],
        profiles: vec![None; cfg.devices],
        desc_name,
    };

    // ---- Setup: upload every non-empty partition (H2D) --------------------
    for d in 0..cfg.devices {
        if st.infos[d].shards.is_empty() {
            continue;
        }
        match st.upload(d, st.infos[d].shards.clone()) {
            Ok(held) => st.modes[d] = Mode::Resident(Box::new(held)),
            Err(DeviceFault::Oom { .. }) => {
                // The partition does not fit: stream it in batches under
                // half the device's memory, like the streamed engine.
                st.faults[d].oom_rebatches += 1;
                st.fault_instant(d, "fault", "oom-rebatch");
                st.modes[d] = Mode::Rebatched {
                    budget: (cfg.base.device.global_mem_bytes / 2).max(1),
                };
            }
            Err(f) => return Err(f.into()),
        }
    }
    let setup_seconds = (0..cfg.devices).map(|d| st.lap(d)).fold(0.0, f64::max);
    cfg.base.trace.complete(
        fleet_pid,
        lanes::ENGINE,
        "engine",
        "setup",
        0.0,
        setup_seconds,
    );
    // Fleet-lane clock: devices overlap, so the fleet timeline advances by
    // the slowest device's wall per iteration plus each exchange.
    let mut fleet_clock = setup_seconds;

    // ---- Convergence loop -------------------------------------------------
    let halo_bytes_per_vertex = <P::V as Pod>::SIZE as u64 + 4; // value + vertex id
    let mut stats = MultiRunStats {
        engine: engine_label,
        interconnect: cfg.interconnect.name.to_string(),
        devices: cfg.devices,
        setup_seconds,
        load_imbalance: fp.imbalance(),
        ..Default::default()
    };
    let mut sent_bytes_total = vec![0u64; cfg.devices];
    let mut recv_bytes_total = vec![0u64; cfg.devices];
    let mut watchdog_seconds = 0.0f64;
    let mut converged = false;

    // ---- SDC defense state ------------------------------------------------
    // The masters still hold the untouched initial state here (no iteration
    // has run), so they seed the recovery ladder for free. Fleet-global
    // bookkeeping (checkpoints, invariant detections) is attributed to
    // device 0.
    let integ = cfg.base.integrity;
    let mut sdcs = vec![SdcStats::default(); cfg.devices];
    let (sdc, host) = (&mut sdcs[0], &st.host);
    let mut recovery = Recovery::new(&cfg.base, sdc, &host.values, &host.src_value);
    if integ.mode.checksums() {
        st.store_crcs();
    }
    let mut integrity_seconds = 0.0f64;

    // The fleet as `Recovery` drives it: restores and snapshots are global
    // (masters plus every resident device's slices), and each books its
    // transfers — the recovery share of the run, kept apart from the
    // watchdog's. Marks go to device `$lane`'s fault lane, or to the fleet's
    // when the event belongs to no device.
    macro_rules! fleet {
        ($lane:expr) => {
            |ask: Ask<'_, P::V>| {
                let seconds = match ask {
                    Ask::Restore(cp) => {
                        st.restore_global(cp)?;
                        &mut integrity_seconds
                    }
                    Ask::Snapshot(values, Some(srcs)) => {
                        srcs.clone_from(&st.host.src_value);
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
                                let trace = &cfg.base.trace;
                                trace.instant(fleet_pid, lanes::FAULT, "sdc", name, fleet_clock)
                            }
                        }
                        return Ok(());
                    }
                };
                for d in 0..cfg.devices {
                    *seconds += st.lap(d);
                }
                Ok(())
            }
        };
    }
    // One rung of the ladder after a corruption was detected on (or
    // attributed to) device `$det`; the budgets are fleet-wide. The last
    // rung degrades to the host re-enactment — the detecting device for a
    // checksum hit, every resident device for an invariant hit (whose
    // culprit is unknown) — since host masters are immune to device flips.
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
                let victims: Vec<usize> = match $detector {
                    Detector::Checksum => vec![det],
                    Detector::Invariant => (0..cfg.devices)
                        .filter(|&d| matches!(st.modes[d], Mode::Resident(_)))
                        .collect(),
                };
                // With nothing left to degrade (the whole fleet already runs
                // on host masters) the run proceeds rather than rewinding
                // without progress; the iteration cap still bounds the loop.
                if !victims.is_empty() {
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

    while stats.iterations < cfg.base.max_iterations {
        // Flip points: every device's due silent bit flips land while the
        // fleet is quiescent, and the scrubber verifies every resident
        // device before any kernel consumes (or spill overwrites) the
        // corrupted words.
        st.apply_due_flips();
        if integ.mode.checksums() {
            if let Some(det) = st.scrub() {
                recover!(det, Detector::Checksum);
                continue;
            }
        }
        let mut iter_updated = 0u64;
        let mut max_wall = 0.0f64;
        let mut max_kernel = 0.0f64;
        let mut sent_pairs: Vec<HashSet<(u32, usize)>> =
            (0..cfg.devices).map(|_| HashSet::new()).collect();
        // Devices run in ascending order, continuing the global block order;
        // each device's halo updates land — in the master column and in the
        // owning resident device's buffer — before the next device launches,
        // so later devices observe them this iteration and earlier ones next:
        // the single-buffer stage-4 visibility of the one-device engine.
        for (d, sent) in sent_pairs.iter_mut().enumerate() {
            let res = match &st.modes[d] {
                Mode::Idle => continue,
                Mode::Resident(_) => st.iterate_resident(d)?,
                Mode::Rebatched { .. } => st.iterate_rebatched(d)?,
                Mode::Fallback => {
                    let mut out = DeviceIter::default();
                    st.host_iterate(d, st.infos[d].shards.clone(), &mut out);
                    out
                }
            };
            for &(k, v) in &res.spills {
                st.host.src_value[k] = v;
                let t = st.owner_of_entry(k);
                if t != d {
                    if let Mode::Resident(dev) = &mut st.modes[t] {
                        dev.slice.src_value.host_mut()[k - st.infos[t].erange.start] = v;
                    }
                    sent.insert((st.layout.gs().src_index()[k], t));
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
            &cfg.base.trace,
            fleet_pid,
            fleet_clock,
            max_wall,
            stats.iterations,
            iter_updated,
        );
        fleet_clock += max_wall;
        cfg.base.trace.counter(
            fleet_pid,
            lanes::ENGINE,
            "updated_vertices",
            fleet_clock,
            iter_updated as f64,
        );
        // Bulk-synchronous halo exchange over the interconnect.
        let sent: Vec<u64> = sent_pairs
            .iter()
            .map(|s| s.len() as u64 * halo_bytes_per_vertex)
            .collect();
        let exchange = st.fleet.exchange_seconds(&sent);
        stats.exchange_seconds += exchange;
        let exchanged_bytes: u64 = sent.iter().sum();
        cfg.base.trace.complete_with(
            fleet_pid,
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
        if iter_updated == 0 {
            converged = true;
            break;
        }
        // Iteration boundary: deadline, checkpoint (assembling the global
        // state from every device) and watchdog.
        let (iterations, updated) = (stats.iterations, iter_updated);
        let (sdc, dev) = (&mut sdcs[0], fleet!(None::<usize>));
        if recovery.boundary(observer, prog, sdc, iterations, updated, fleet_clock, dev)? {
            recover!(0, Detector::Invariant);
        }
    }
    stats.converged = converged;
    stats.compute_seconds += watchdog_seconds + integrity_seconds;
    recovery.finish(fleet!(None::<usize>))?;

    // ---- Download results (D2H) -------------------------------------------
    let values = st.snapshot(None)?;
    let teardown = (0..cfg.devices).map(|d| st.lap(d)).fold(0.0, f64::max);
    stats.teardown_seconds = teardown;
    cfg.base.trace.complete(
        fleet_pid,
        lanes::ENGINE,
        "engine",
        "download",
        fleet_clock,
        teardown,
    );

    // ---- Per-device breakdown ---------------------------------------------
    for d in 0..cfg.devices {
        let gpu = st.fleet.device(d);
        sdcs[d].flips_injected = flips_fired(gpu.fault_plan()) - flips_baseline[d];
        let a = st.acc[d];
        let part = &fp.parts()[d];
        let mut profile = st.profiles[d].take();
        if let Some(fresh) = &gpu.profile {
            profile.get_or_insert_default().absorb(fresh);
        }
        stats.per_device.push(DeviceRunStats {
            device: d,
            mode: st.modes[d].label(),
            shards: part.shards.len(),
            vertices: part.vertices.len(),
            edges: part.edges,
            halo_vertices: part.halo.len(),
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

    Ok(MultiOutput { values, stats })
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
