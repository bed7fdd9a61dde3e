//! The multi-device engine: G-Shards/CW over a [`DeviceFleet`] with a
//! modeled halo exchange — and, in `drive`, the one host loop every
//! placement of the shard family runs in ([`crate::try_run_placed`]): a
//! resident run is a fleet of one over a borrowed layout, with no fabric and
//! every fault surfaced, and a streamed run a fleet of one whose device
//! starts out of core.
//!
//! The graph's shard sequence is split into N edge-balanced contiguous
//! ranges ([`cusha_graph::FleetPartition`]); device `d` holds the vertex
//! values, shard entries and (CW) concatenated windows of its own range. Each
//! iteration every device runs the same four-stage kernel as the
//! single-device engine over its shards; stage-4 writes that land in
//! *another* device's shard arrays — the halo updates — are written to a
//! per-device outbox buffer (charging normal store traffic) and then
//! exchanged: one bulk-synchronous all-to-all per iteration, timed by the
//! fleet's [`Interconnect`].
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
//! **Fault isolation.** Each device has its own `FaultPlan` and its own
//! recovery ladder — like every device, it retries transient copy faults with
//! exponential backoff and relaunches a faulted kernel in place (launch faults
//! fire before any block runs, so the relaunch is exact; see [`Gpu::faults`]),
//! a device that cannot hold its partition streams it — values resident,
//! shards in batches under a byte budget that halves on every further OOM, the
//! streamed placement's scheme — and a device whose kernel keeps faulting
//! degrades to a host-side re-enactment of its own shards. A faulted device
//! never poisons the fleet: the other devices keep running on hardware, and
//! results stay bit-identical. A streamed run's one device recovers the same
//! way; only a resident device surfaces what its budgets do not absorb, an
//! OOM included ([`Placement::surfaces`]).

use crate::engine::{
    try_run_cold, CuShaConfig, CuShaOutput, Placement, PreparedLayout, RunObserver,
};
use crate::error::EngineError;
use crate::fallback::FALLBACK_LABEL;
use crate::integrity::{apply_flips, scrub, Ask, Checkpoint, Detector, Recovery, Rung, Stop};
use crate::kernel::{
    batch_end, entry_range, fault_instant, upload_resident, vertex_range, DeviceSlice, HostArrays,
    HostMaster, Records, Resident, SpillVia, MAX_REBATCHES,
};
use crate::memsize::{entry_bytes, ValueSizes};
use crate::middleware::DeadlineObserver;
use crate::program::VertexProgram;
use crate::stats::{
    DeviceRunStats, IterationStat, MemoStats, MultiOutput, MultiRunStats, SdcStats,
};
use cusha_graph::Graph;
use cusha_obs::trace::{lanes, ArgVal};
use cusha_simt::{DevVec, DeviceFault, DeviceFleet, Gpu, Interconnect, Pod};
use std::collections::HashSet;
use std::ops::Range;

/// Configuration of the multi-device engine: the base configuration and a
/// [`Placement::Fleet`], spelled as fields.
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
}

impl MultiConfig {
    /// `devices` copies of the base configuration's device over PCIe.
    pub fn new(base: CuShaConfig, devices: usize) -> Self {
        MultiConfig {
            base,
            devices,
            interconnect: Interconnect::pcie_gen3(),
            fault_plans: Vec::new(),
        }
    }

    /// Does nothing: the fleet runs its devices in order on the calling
    /// thread. Kept only because `crates/bench/examples/ledger/matrix.rs`
    /// calls it and is frozen to this change; the `benchmark` PR of ROADMAP
    /// "One benchmark" removes the call and this shim.
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

    /// The placement these fields spell.
    pub fn placement(&self) -> Placement {
        Placement::Fleet {
            devices: self.devices,
            interconnect: self.interconnect.clone(),
            fault_plans: self.fault_plans.clone(),
        }
    }
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
    let ran = try_run_multi(prog, graph, cfg).or_else(|e| e.partial().map(fleet_of));
    ran.unwrap_or_else(|e| panic!("{e}"))
}

/// Executes `prog` over `graph` on the fleet, returning every failure as an
/// [`EngineError`]: [`crate::try_run_placed`] over a layout built for the
/// placement. A capped run yields [`EngineError::NonConverged`] carrying the
/// flattened partial output, its fleet record in [`RunStats::fleet`].
///
/// [`RunStats::fleet`]: crate::RunStats::fleet
pub fn try_run_multi<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    try_run_cold(prog, graph, &cfg.base, &cfg.placement()).map(fleet_of)
}

/// The fleet-shaped record of a fleet placement's output.
fn fleet_of<V>(out: CuShaOutput<V>) -> MultiOutput<V> {
    let Some(stats) = out.stats.fleet else {
        unreachable!("a fleet placement reports its fleet")
    };
    MultiOutput {
        values: out.values,
        stats: *stats,
    }
}

/// What a placement hands [`drive`] besides its devices and shards.
impl Placement {
    /// Whether a fault past a device's in-place budgets leaves [`drive`] (the
    /// caller owns what comes next) — only a resident run's. A streamed or
    /// fleet device rebatches an OOM and, past that, degrades in place to the
    /// host re-enactment of its shards, which reads the host masters.
    fn surfaces(&self) -> bool {
        matches!(self, Placement::Resident)
    }

    /// `Err(stop())` where a fault past the budgets [surfaces](Self::surfaces)
    /// as a typed [`Stop`]; `Ok(())` where the caller recovers in place.
    fn absorb<S>(&self, stop: impl FnOnce() -> S) -> Result<(), S> {
        match self.surfaces() {
            true => Err(stop()),
            false => Ok(()),
        }
    }
}

/// Clocks of one device that the fleet-shaped record has no field for; the
/// placements reporting in the single-engine shape read them.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DeviceClocks {
    /// The device's D2H clock when the final download began.
    pub d2h_before_results: f64,
    /// What its iterations reported, summed, rewound ones too. A streamed
    /// device reports its batch pipeline, `copy_0 + Σ max(kernel_k,
    /// copy_{k+1})`, or on one stream the serial sum.
    pub iteration_seconds: f64,
    /// A streamed device's modeled PCIe terms that no device clock sees: the
    /// flag reset of every iteration, the host-master writes of every batch.
    pub host_transfer_seconds: f64,
}

/// What [`drive`] returns: the values with a fleet-shaped record — complete but
/// for what only a partition knows (`engine`, `interconnect`,
/// `load_imbalance`, each device's `halo_vertices`) — and each device's clocks.
pub(crate) type Driven<V> = (MultiOutput<V>, Vec<DeviceClocks>);

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
    /// Out of core (paper §5.1): `VertexValues` and the flag stay resident,
    /// the shards stream through in batches, each retired once its `SrcValue`
    /// is back in the host master. With them the current per-batch byte
    /// budget, halved on each further OOM, and whether uploads overlap kernels.
    Streamed(Resident<P::V>, u64, bool),
    /// Kernel-fault recovery: the device's shards are re-enacted on the
    /// host (bit-identical, zero modeled device time).
    Fallback,
}

impl<P: VertexProgram> Mode<P> {
    fn label(&self) -> &'static str {
        match self {
            Mode::Idle => "idle",
            Mode::Resident(_) => "resident",
            Mode::Streamed(..) => "rebatched",
            Mode::Fallback => FALLBACK_LABEL,
        }
    }

    /// The `VertexValues` buffer of a device that holds one — what a device
    /// flip can reach.
    fn vertex_values(&mut self) -> Option<&mut DevVec<P::V>> {
        match self {
            Mode::Resident(dev) => Some(&mut dev.res.vertex_values),
            Mode::Streamed(res, ..) => Some(&mut res.vertex_values),
            Mode::Idle | Mode::Fallback => None,
        }
    }
}

/// Everything the convergence loop needs, shared across devices.
struct MultiState<'a, P: VertexProgram> {
    prog: &'a P,
    base: &'a CuShaConfig,
    placement: &'a Placement,
    layout: &'a PreparedLayout,
    fleet: &'a mut DeviceFleet,
    infos: Vec<DevInfo>,
    modes: Vec<Mode<P>>,
    /// Host-authoritative vertex values and `SrcValue` column for devices
    /// that are not resident (resident devices keep theirs on device, their
    /// master slices are stale; a streamed device's `SrcValue` is the
    /// master's). Released once everything is uploaded when no device can
    /// come to read them.
    host: HostArrays<P>,
    /// Each device's launch records: its resident slice's, its batches'.
    records: &'a mut [Records],
    /// Each device's clock when its time was last accounted (see `lap`).
    marks: Vec<f64>,
    /// Scrub references: each resident device's checksums as of the end of
    /// the previous fleet iteration (or the last restore); a streamed
    /// device's `VertexValues` checksum as of its last launch.
    crcs: Vec<(u64, u64)>,
    clocks: Vec<DeviceClocks>,
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
    /// A streamed device's scrub found a protected buffer changed at rest:
    /// the iteration stopped before the batch launched.
    corrupt: bool,
}

impl<P: VertexProgram> MultiState<'_, P> {
    /// Seconds device `d`'s clock advanced since it was last asked, which is
    /// how every span of fleet time is measured: an iteration's wall, a
    /// snapshot's or a restore's transfers, the final download.
    fn lap(&mut self, d: usize) -> f64 {
        let now = self.fleet.device(d).total_seconds();
        now - std::mem::replace(&mut self.marks[d], now)
    }

    /// The engine lane's clock: the fleet clock over a fabric, else the
    /// devices' own clocks end to end.
    fn now(&self, fleet_clock: f64) -> f64 {
        match self.fleet.interconnect() {
            Some(_) => fleet_clock,
            None => (0..self.infos.len())
                .map(|d| self.fleet.device(d).total_seconds())
                .sum(),
        }
    }

    /// The device whose entry range holds global entry `k` (the ranges tile
    /// the entry space; an empty partition's is empty).
    fn owner_of_entry(&self, k: usize) -> usize {
        let owner = self.infos.iter().position(|i| i.erange.contains(&k));
        owner.expect("device entry ranges tile the layout")
    }

    /// Switches device `d` to the host re-enactment after its kernel (or
    /// rebatch budget) gave out.
    fn degrade_to_host(&mut self, d: usize) {
        let gpu = self.fleet.device_mut(d);
        gpu.faults.degradations += 1;
        fault_instant(gpu, "fault", "degrade-to-host");
        self.modes[d] = Mode::Fallback;
    }

    /// Device `d` goes out of core under `budget`: its resident part goes up,
    /// an OOM there treated like a batch's. `oom` is the fault that sent a
    /// device here from its whole-share upload. Past the rebatch budget the
    /// device degrades.
    fn stream(
        &mut self,
        d: usize,
        mut budget: u64,
        overlap: bool,
        mut oom: Option<DeviceFault>,
    ) -> Result<(), DeviceFault> {
        let vrange = self.infos[d].vrange.clone();
        let values = &self.host.values[vrange.clone()];
        let gpu = self.fleet.device_mut(d);
        let res = loop {
            if let Some(f) = oom.take() {
                if !rebatch(self.placement, gpu, &mut budget) {
                    self.placement.absorb(|| f)?;
                    break None;
                }
            }
            match Resident::upload(gpu, values, vrange.start) {
                Ok(res) => break Some(res),
                Err(f @ DeviceFault::Oom { .. }) => oom = Some(f),
                Err(f) => return Err(f),
            }
        };
        let Some(res) = res else {
            self.degrade_to_host(d);
            return Ok(());
        };
        if self.base.integrity.mode.checksums() {
            self.crcs[d].0 = scrub(values);
        }
        self.modes[d] = Mode::Streamed(res, budget, overlap);
        Ok(())
    }

    /// Applies every resident device's due bit flips to its on-device
    /// buffers. Flips land while the data is at rest in device DRAM, before
    /// any device of the fleet launches — later writes into those buffers
    /// (spills from other devices' stage 4) are legitimate and must not be
    /// mistaken for corruption by the scrub that follows. A streamed device
    /// takes its flips batch by batch; one on the host stages through trusted
    /// host masters, which the flip model (device DRAM) cannot reach. Each
    /// flip is counted in its device's record.
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
        (scrub(values), scrub(src_value))
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
    /// tile the vertex space in order): what a device holds is a real,
    /// charged D2H download, the rest comes from the host master. With `srcs`,
    /// the global `SrcValue` column into it the same way.
    fn snapshot(&mut self, mut srcs: Option<&mut Vec<P::V>>) -> Result<Vec<P::V>, DeviceFault> {
        let mut vals = Vec::new();
        if let Some(srcs) = srcs.as_deref_mut() {
            srcs.clear();
        }
        for (d, info) in self.infos.iter().enumerate() {
            let gpu = self.fleet.device_mut(d);
            match self.modes[d].vertex_values() {
                None => vals.extend_from_slice(&self.host.values[info.vrange.clone()]),
                Some(vv) => {
                    let mut v = gpu.try_download(vv)?;
                    // A lone device's download is the snapshot: no second buffer.
                    if vals.is_empty() {
                        vals = v;
                    } else {
                        vals.append(&mut v);
                    }
                }
            }
            match (srcs.as_deref_mut(), &self.modes[d]) {
                (None, _) => {}
                (Some(srcs), Mode::Resident(dev)) => {
                    srcs.extend_from_slice(&gpu.try_download(&dev.slice.src_value)?)
                }
                (Some(srcs), _) => {
                    srcs.extend_from_slice(&self.host.src_value[info.erange.clone()])
                }
            }
        }
        Ok(vals)
    }

    /// Restores the whole fleet to the given verified global state: both
    /// host masters (while they are kept), plus what each device holds as
    /// real, charged H2D uploads, which become the scrub references.
    fn restore_global(&mut self, to: &Checkpoint<P::V>) -> Result<(), DeviceFault> {
        // Released masters are empty; kept ones are the checkpoint's size.
        if self.host.values.len() == to.values.len() {
            self.host.values.copy_from_slice(&to.values);
            self.host.src_value.copy_from_slice(&to.state);
        }
        for d in 0..self.infos.len() {
            let (info, mode) = (&self.infos[d], &mut self.modes[d]);
            let gpu = self.fleet.device_mut(d);
            let values = &to.values[info.vrange.clone()];
            if let Some(vv) = mode.vertex_values() {
                gpu.try_h2d(vv, values)?;
                self.crcs[d].0 = scrub(values);
            }
            if let Mode::Resident(dev) = mode {
                gpu.try_h2d(&mut dev.slice.src_value, &to.state[info.erange.clone()])?;
                self.crcs[d].1 = scrub(dev.slice.src_value.host());
            }
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

    /// Device `d` gives up its device mid-iteration: what it holds comes down
    /// into the masters — a failed launch ran no block, so it is the state
    /// before it — and the host re-enacts shards `from..` of this iteration
    /// and every later one.
    fn fall_back(
        &mut self,
        d: usize,
        from: u32,
        out: &mut DeviceIter<P::V>,
    ) -> Result<(), DeviceFault> {
        let (info, gpu) = (self.infos[d].clone(), self.fleet.device_mut(d));
        if let Some(vv) = self.modes[d].vertex_values() {
            let vals = gpu.try_download(vv)?;
            self.host.values[info.vrange].copy_from_slice(&vals);
        }
        if let Mode::Resident(dev) = &self.modes[d] {
            let srcv = gpu.try_download(&dev.slice.src_value)?;
            self.host.src_value[info.erange].copy_from_slice(&srcv);
        }
        self.degrade_to_host(d);
        self.host_iterate(d, from..info.shards.end, out);
        Ok(())
    }

    /// One iteration of a resident device: flag reset, launch (the device
    /// retries its own transient faults), flag readback. When the kernel
    /// retries are spent the fault surfaces, or — recovering in place — the
    /// device falls back.
    fn iterate_resident(
        &mut self,
        d: usize,
        out: &mut DeviceIter<P::V>,
    ) -> Result<(), DeviceFault> {
        let threads = self.base.threads_per_block;
        let Mode::Resident(dev) = &mut self.modes[d] else {
            unreachable!("caller matched a resident device")
        };
        let Held { res, slice } = &mut **dev;
        let gpu = self.fleet.device_mut(d);
        res.reset_flag(gpu)?;
        let (name, layout, record) = (&self.desc_name, self.layout, &mut self.records[d].resident);
        match slice.launch(gpu, name, threads, self.prog, layout, res, record, None) {
            Ok((kstats, updated)) => {
                // Read back for its modeled charge; the count already tells.
                let flag = res.read_flag(gpu)?;
                debug_assert_eq!(flag == 1, updated == 0, "is_converged disagrees");
                out.kernel_seconds = kstats.seconds;
                out.updated = updated;
                slice.take_spills(&mut out.spills);
                self.fleet.record_launch(d, &kstats);
            }
            Err(f @ DeviceFault::Kernel { .. }) => {
                self.placement.absorb(|| f)?;
                self.fall_back(d, self.infos[d].shards.start, out)?;
            }
            Err(other) => return Err(other),
        }
        Ok(())
    }

    /// One iteration of a streamed device (paper §5.1): flag reset; its
    /// shards in contiguous batches under the byte budget — upload, flip
    /// point and scrub, launch, `SrcValue` back into the master, retire —;
    /// flag readback. It reports the batch pipeline's seconds. An OOM inside
    /// the rebatch budget halves the byte budget and retries the batch. Past
    /// it, or when a launch's retries are spent, the device falls back from
    /// that batch on: only a placement that recovers in place streams.
    fn iterate_streamed(
        &mut self,
        d: usize,
        out: &mut DeviceIter<P::V>,
        sdc: &mut SdcStats,
    ) -> Result<(), DeviceFault> {
        let (layout, placement) = (self.layout, self.placement);
        let (shards, own) = (self.infos[d].shards.clone(), &self.infos[d].erange);
        let per_entry = entry_bytes(ValueSizes::of::<P>(), layout.repr());
        let (device, checksums) = (&self.base.device, self.base.integrity.mode.checksums());
        let (name, threads) = (&self.desc_name, self.base.threads_per_block);
        let Mode::Streamed(res, budget, overlap) = &mut self.modes[d] else {
            unreachable!("caller matched a streamed device")
        };
        let vv_crc = &mut self.crcs[d].0;
        let host_seconds = &mut self.clocks[d].host_transfer_seconds;
        res.reset_flag(self.fleet.device_mut(d))?;
        *host_seconds += device.transfer_seconds(4);
        let (mut s, mut index) = (shards.start, 0u64);
        // The batch pipeline's clock — overlapped, copy k+1 runs beside
        // kernel k: `copy_0 + Σ max(kernel_k, copy_{k+1})` — beside the serial
        // one: `Σ copy_k + Σ kernel_k`; either charges what ran before a fault.
        let (mut piped, mut copied, mut in_kernels, mut last_kernel) = (0.0, 0.0, 0.0, 0.0f64);
        let failed = 'batches: {
            while s < shards.end {
                let gpu = self.fleet.device_mut(d);
                let end = batch_end(layout.gs(), per_entry, *budget, s, shards.end);
                let (batch_ts, h2d_before) = (gpu.total_seconds(), gpu.h2d_seconds);
                let (host, via) = (&self.host, SpillVia::Host);
                let up = DeviceSlice::upload(gpu, layout, host, s..end, via);
                let mut slice = match up {
                    Ok(slice) => slice,
                    Err(DeviceFault::Oom { .. }) if rebatch(placement, gpu, budget) => continue,
                    Err(f) => break 'batches Some(f),
                };
                let copy = gpu.h2d_seconds - h2d_before;
                (piped, copied, last_kernel) = (piped + last_kernel.max(copy), copied + copy, 0.0);
                // Flip point: silent bit flips land while the batch sits in
                // device DRAM, and the scrubber verifies both protected
                // buffers before the kernel consumes them. The batch's
                // `SrcValue` came from the trusted host master, so the master
                // slice's checksum is its reference; `VertexValues`' is its
                // own after the last launch. A hit is `drive`'s to recover.
                let flips = gpu.take_due_bit_flips();
                sdc.flips_injected += flips.len() as u64;
                if !flips.is_empty() {
                    apply_flips(&flips, &mut res.vertex_values, &mut slice.src_value);
                }
                let master = &mut self.host.src_value;
                if checksums
                    && (scrub(res.vertex_values.host()) != *vv_crc
                        || scrub(slice.src_value.host()) != scrub(&master[slice.erange.clone()]))
                {
                    out.corrupt = true;
                    slice.retire(gpu);
                    return Ok(());
                }
                // Stage-4 writes to targets in the batch are device stores;
                // the rest land in the host master (the real implementation
                // would buffer them in pinned memory; either way they cross
                // PCIe, and `host_writes` bytes are charged as such).
                let mut host_writes = 0u64;
                let sink = HostMaster {
                    src_value: master,
                    bytes: &mut host_writes,
                    own,
                    spills: &mut out.spills,
                };
                let (prog, sink) = (self.prog, Some(sink));
                let record = self.records[d].batch(index as usize, &(s..end));
                let (kstats, updated) =
                    match slice.launch(gpu, name, threads, prog, layout, res, record, sink) {
                        Ok(launched) => launched,
                        Err(f) => break 'batches Some(f),
                    };
                out.updated += updated;
                (last_kernel, in_kernels) = (kstats.seconds, in_kernels + kstats.seconds);
                // The launch legitimately rewrote the resident values.
                if checksums {
                    *vv_crc = scrub(res.vertex_values.host());
                }
                self.fleet.record_launch(d, &kstats);
                let gpu = self.fleet.device_mut(d);
                let srcv = gpu.try_download(&slice.src_value)?;
                master[slice.erange.clone()].copy_from_slice(&srcv);
                *host_seconds += device.transfer_seconds(host_writes);
                let (pid, dur) = (gpu.trace_pid(), gpu.total_seconds() - batch_ts);
                let args = || {
                    let shards = ArgVal::U64(u64::from(end - s));
                    vec![("batch", ArgVal::U64(index)), ("shards", shards)]
                };
                let tracer = gpu.tracer();
                tracer.complete_with(pid, lanes::ENGINE, "engine", "batch", batch_ts, dur, args);
                slice.retire(gpu);
                (s, index) = (end, index + 1);
            }
            None
        };
        out.kernel_seconds = match *overlap {
            true => piped + last_kernel,
            false => copied + in_kernels,
        };
        match failed {
            None => res.read_flag(self.fleet.device_mut(d)).map(drop),
            Some(DeviceFault::Oom { .. } | DeviceFault::Kernel { .. }) => self.fall_back(d, s, out),
            Some(other) => Err(other),
        }
    }
}

/// Absorbs an OOM inside the rebatch budget ([`MAX_REBATCHES`]): the byte
/// budget halves and the caller retries in place. `false` past it, or where a
/// fault [surfaces](Placement::surfaces): [`Placement::absorb`] decides.
fn rebatch(placement: &Placement, gpu: &mut Gpu, budget: &mut u64) -> bool {
    let inside = !placement.surfaces() && gpu.faults.oom_rebatches < MAX_REBATCHES;
    if inside {
        gpu.faults.oom_rebatches += 1;
        fault_instant(gpu, "fault", "oom-rebatch");
        *budget = (*budget / 2).max(1);
    }
    inside
}

/// The one host loop around the kernel: bring each device's shard range up,
/// iterate the devices in order until no vertex value changes, download. A
/// resident run is a fleet of one whose device stays resident, a streamed run
/// a fleet of one whose device starts out of core; what the placements differ
/// in is exactly what [`crate::try_run_placed`] passes:
///
/// * `layout` is borrowed — its owner decides whether it outlives the run —
///   and `shards` gives each device its contiguous share of `0..num_shards`;
/// * `fleet` holds the devices as their owner set them up (tracer, fault
///   plan, profiling; each device's fault record, [`Gpu::faults`], is read
///   back from it) and takes them back, plus their fabric.
///   Over one, devices overlap and the engine lane — setup, iteration and
///   download spans, events that belong to no one device, on
///   [`DeviceFleet::fleet_pid`] — runs on the fleet clock (slowest device per
///   iteration, then the exchange); with none there is no exchange step and
///   the lane's clock is the devices' own, end to end;
/// * `placement` says how a device with shards begins — its whole share
///   up (one that does not fit streams it), or out of core — and, past the
///   in-place budgets, whether a fault surfaces or is recovered from in
///   place; `name` is what its launches are called (fault plans match on it);
/// * `records` are the devices' SDC records and their launch records, the
///   caller's so that they outlive an `Err`: the host fallback after an
///   abandoned resident run reports device 0's SDC record, and a caller that
///   lent a layout's launch record gets it back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    base: &CuShaConfig,
    layout: &PreparedLayout,
    shards: &[Range<u32>],
    fleet: &mut DeviceFleet,
    placement: &Placement,
    name: &str,
    (sdcs, records): (&mut [SdcStats], &mut [Records]),
    observer: &mut O,
) -> Result<Driven<P::V>, Stop<P::V>> {
    let observer = &mut DeadlineObserver::new(base.deadline_seconds, observer);
    let (gs, n, engine_pid) = (layout.gs(), shards.len(), fleet.fleet_pid());
    let infos = shards.iter().map(|shards| DevInfo {
        vrange: vertex_range(gs, shards),
        erange: entry_range(gs, shards),
        shards: shards.clone(),
    });
    let mut st = MultiState {
        prog,
        base,
        placement,
        layout,
        fleet,
        infos: infos.collect(),
        modes: (0..n).map(|_| Mode::Idle).collect(),
        host: HostArrays::new(prog, graph, layout),
        records,
        marks: vec![0.0; n],
        crcs: vec![(0, 0); n],
        clocks: vec![DeviceClocks::default(); n],
        desc_name: name.into(),
    };

    // ---- Setup: bring every non-empty partition up (H2D) ------------------
    for d in 0..n {
        if st.infos[d].shards.is_empty() {
            continue;
        }
        let (gpu, shards) = (st.fleet.device_mut(d), &st.infos[d].shards);
        match *placement {
            Placement::Streamed { bytes, overlap } => st.stream(d, bytes, overlap, None)?,
            _ => {
                match upload_resident(gpu, layout, &st.host, shards.clone()) {
                    Ok((res, slice)) => st.modes[d] = Mode::Resident(Box::new(Held { res, slice })),
                    // The partition does not fit: stream it, without overlap —
                    // the fleet clock is each device's own serial clock.
                    Err(f @ DeviceFault::Oom { .. }) => {
                        st.stream(d, base.device.global_mem_bytes, false, Some(f))?
                    }
                    Err(f) => return Err(f.into()),
                }
            }
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
    let initial = || (st.host.values.clone(), st.host.src_value.clone());
    let mut recovery = Recovery::new(integ, base.watchdog_interval, &mut sdcs[0], initial);
    if placement.surfaces() {
        // Everything is uploaded, a fault will surface before a device leaves
        // `Resident`, and `recovery` keeps the restart image it needs.
        st.host.release();
    }
    if integ.mode.checksums() {
        st.store_crcs();
    }
    let mut integrity_seconds = 0.0f64;

    // The fleet as `Recovery` drives it: restores and snapshots are global
    // (masters plus what every device holds), and each books its transfers —
    // the recovery share of the run, kept apart from the watchdog's. Marks go
    // to device `$lane`'s fault lane, or to the engine lane's process when
    // the event belongs to no device.
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
                            Some(d) => fault_instant(st.fleet.device(d), "sdc", name),
                            None => {
                                let now = st.now(fleet_clock);
                                trace.instant(engine_pid, lanes::FAULT, "sdc", name, now)
                            }
                        }
                        return Ok(());
                    }
                    Ask::Inspect(_) => unreachable!("drive checks its final download itself"),
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
    // rung the run is abandoned, or — recovering in place — degrades to the
    // host re-enactment the detecting device for a checksum hit, every device
    // holding values for an invariant hit (whose culprit is unknown), since
    // host masters are immune to device flips.
    macro_rules! recover {
        ($det:expr, $detector:expr) => {{
            let det: usize = $det;
            let (iterations, detail) = (&mut stats.iterations, &mut stats.per_iteration);
            let sdc = &mut sdcs[det];
            let rung = recovery.step($detector, sdc, iterations, detail, fleet!(Some(det)))?;
            if let Rung::Exhausted = rung {
                placement.absorb(|| Stop::Abandon)?;
                let victims: Vec<usize> = match $detector {
                    Detector::Checksum => vec![det],
                    Detector::Invariant => (0..n)
                        .filter(|&d| st.modes[d].vertex_values().is_some())
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
                    fault_instant(st.fleet.device(v), "sdc", "host-fallback");
                }
            }
        }};
    }

    let law = |verified: &[P::V], now: &[P::V]| prog.check_invariant(verified, now);
    let (values, teardown) = 'run: loop {
        'iteration: while stats.iterations < base.max_iterations {
            // Flip points: every resident device's due silent bit flips land
            // while the fleet is quiescent, and the scrubber verifies every
            // resident device before any kernel consumes (or spill
            // overwrites) the corrupted words. A streamed device's flip
            // points and scrubs are its batches'.
            st.apply_due_flips(sdcs);
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
                (res.updated, res.kernel_seconds) = (0, 0.0);
                res.spills.clear();
                sent.clear();
                match &st.modes[d] {
                    Mode::Idle => continue,
                    Mode::Resident(_) => st.iterate_resident(d, &mut res)?,
                    Mode::Streamed(..) => st.iterate_streamed(d, &mut res, &mut sdcs[d])?,
                    Mode::Fallback => st.host_iterate(d, st.infos[d].shards.clone(), &mut res),
                }
                if std::mem::take(&mut res.corrupt) {
                    recover!(d, Detector::Checksum);
                    continue 'iteration;
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
                st.clocks[d].iteration_seconds += res.kernel_seconds;
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
            // `iteration` is 1-based: the number the observer is told.
            let args = || {
                let iteration = ArgVal::U64(u64::from(stats.iterations));
                vec![
                    ("iteration", iteration),
                    ("updated_vertices", ArgVal::U64(iter_updated)),
                ]
            };
            let (name, dur) = ("iteration", max_wall);
            trace.complete_with(
                engine_pid,
                lanes::ENGINE,
                "engine",
                name,
                iter_ts,
                dur,
                args,
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
            if recovery.boundary(observer, law, sdc, iterations, iter_updated, elapsed, dev)? {
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
        for d in 0..n {
            st.clocks[d].d2h_before_results = st.fleet.device(d).d2h_seconds;
        }
        let values = st.snapshot(None)?;
        let teardown = (0..n).map(|d| st.lap(d)).fold(0.0, f64::max);
        span("download", download_ts, teardown);
        // Per-buffer checksum on download (the values just crossed the bus),
        // then the convergence check, device 0's like a checkpoint's. A
        // rejected download costs one more rung, and its transfer time rolls
        // into the recovery share of the next pass.
        let crossed = |_: &Held<P>, i: &DevInfo, crcs: (u64, u64)| {
            integ.mode.checksums() && scrub(&values[i.vrange.clone()]) != crcs.0
        };
        let hit = st.scrub(crossed).map(|det| (det, Detector::Checksum));
        let broken = converged && recovery.breaks(law, &values);
        if let Some((det, detector)) = hit.or(broken.then_some((0, Detector::Invariant))) {
            integrity_seconds += teardown;
            recover!(det, detector);
            converged = false;
            continue 'run;
        }
        recovery.finish(fleet!(None::<usize>))?;
        break 'run (values, teardown);
    };
    stats.converged = converged;
    stats.compute_seconds += watchdog_seconds + integrity_seconds;
    stats.teardown_seconds = teardown;

    // ---- Per-device breakdown ---------------------------------------------
    for d in 0..n {
        let (gpu, info) = (st.fleet.device(d), &st.infos[d]);
        stats.per_device.push(DeviceRunStats {
            device: d,
            mode: st.modes[d].label(),
            shards: info.shards.len(),
            vertices: info.vrange.len(),
            edges: info.erange.len(),
            halo_vertices: 0,
            h2d_seconds: gpu.h2d_seconds,
            d2h_seconds: gpu.d2h_seconds,
            kernel_seconds: gpu.kernel_seconds,
            kernels_launched: gpu.kernels_launched,
            kernel: st.fleet.device_stats(d).clone(),
            exchange_sent_bytes: sent_bytes_total[d],
            exchange_recv_bytes: recv_bytes_total[d],
            fault: gpu.faults,
            sdc: sdcs[d],
            profile: gpu.profile.clone(),
        });
        stats.fault.absorb(&gpu.faults);
        stats.sdc.absorb(&sdcs[d]);
        stats.memo.add(&MemoStats::from_gpu(gpu));
    }
    stats.aggregate = st.fleet.aggregate_stats();
    stats.aggregate.name = st.desc_name;

    Ok((MultiOutput { values, stats }, st.clocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, CuShaConfig, NoopObserver, MAX_DEVICES};
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
            let refused = huge.placement().validate().unwrap_err();
            assert!(refused.contains("devices"), "{refused}");
            assert!(matches!(
                try_run_multi(&MiniSssp { source: 0 }, &g, &huge),
                Err(EngineError::InvalidConfig(_))
            ));
        }
        let widest = MultiConfig::new(base.clone(), MAX_DEVICES).placement();
        assert!(widest.validate().is_ok());
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

    #[test]
    fn a_streamed_device_holds_its_resident_part_and_one_batch() {
        // The chain the streamed engine used to run out of memory on: every
        // batch of every iteration stayed allocated. A device with room for
        // exactly the resident part and the largest batch streams it clean —
        // one more held byte would OOM, and be counted — and is left holding
        // the resident part.
        let g = Graph::new(400, (0..399).map(|v| Edge::new(v, v + 1, 1)).collect());
        let prog = MiniSssp { source: 0 };
        let mut base = CuShaConfig::gs().with_vertices_per_shard(8);
        base.max_iterations = 2000;
        let want = run(&prog, &g, &base);
        let layout = PreparedLayout::build(&g, base.repr, 8);
        let (gs, per_entry, budget) = (layout.gs(), 16, 1024);
        let (mut s, mut largest) = (0, 0);
        while s < gs.num_shards() {
            let end = batch_end(gs, per_entry, budget, s, gs.num_shards());
            let entries = gs.shard_entries(s).start..gs.shard_entries(end - 1).end;
            largest = largest.max(entries.len() as u64 * per_entry);
            s = end;
        }
        let resident = 400 * 4 + 4;
        base.device.global_mem_bytes = resident + largest;
        let mut fleet = DeviceFleet::new(&base.device, 1, None);
        let mut sdc = SdcStats::default();
        let shards = 0..layout.num_shards();
        let (out, _) = drive(
            &prog,
            &g,
            &base,
            &layout,
            std::slice::from_ref(&shards),
            &mut fleet,
            &Placement::streamed(budget),
            "chain",
            (std::slice::from_mut(&mut sdc), &mut [Records::default()]),
            &mut NoopObserver,
        )
        .unwrap_or_else(|_| panic!("streams within resident part + one batch"));
        assert_eq!(out.values, want.values);
        assert_eq!(out.stats.iterations, want.stats.iterations);
        let fault = &fleet.device(0).faults;
        assert!(fault.is_clean(), "{fault:?}");
        assert_eq!(fleet.device(0).allocated_bytes(), resident);
    }
}
