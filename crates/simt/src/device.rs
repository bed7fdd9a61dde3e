//! The simulated GPU: allocation, transfers, and kernel launches.

use crate::block::Block;
use crate::coalesce::CoalesceMemo;
use crate::config::DeviceConfig;
use crate::counters::KernelStats;
use crate::fault::{DeviceFault, FaultKind, FaultPlan, FaultStats};
use crate::fault::{MAX_COPY_RETRIES, MAX_KERNEL_RETRIES};
use crate::mem::{DevVec, ALLOC_ALIGN};
use crate::pod::Pod;
use crate::replay::{add_phase, Fixed, LaunchRecord, ReplayTally, Share, VERIFY_SAMPLE};
use cusha_obs::trace::{lanes, ArgVal, Tracer};
use std::ops::Range;
use std::sync::Arc;

/// Launch geometry and identification of a kernel.
#[derive(Clone, Debug)]
pub struct KernelDesc {
    /// Kernel name, surfaced in [`KernelStats`]. Shared (`Arc<str>`) so the
    /// per-launch stats clone is a refcount bump, not a heap allocation.
    pub name: Arc<str>,
    /// Number of blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl KernelDesc {
    /// Convenience constructor.
    pub fn new(name: impl Into<Arc<str>>, grid_blocks: u32, threads_per_block: u32) -> Self {
        KernelDesc {
            name: name.into(),
            grid_blocks,
            threads_per_block,
        }
    }
}

/// A simulated GPU instance.
///
/// Owns the device address allocator and the running totals of modeled time:
/// host→device (`h2d_seconds`), device→host (`d2h_seconds`), and kernel
/// execution (`kernel_seconds`). Engines read these to produce the paper's
/// "including data transfer" runtimes (Table 4) and the Figure 10 breakdown.
pub struct Gpu {
    cfg: DeviceConfig,
    next_addr: u64,
    allocated_bytes: u64,
    /// Accumulated host→device transfer seconds.
    pub h2d_seconds: f64,
    /// Accumulated device→host transfer seconds.
    pub d2h_seconds: f64,
    /// Accumulated kernel execution seconds.
    pub kernel_seconds: f64,
    /// Number of kernels launched.
    pub kernels_launched: u64,
    /// Optional kernel-history profiler (see [`Gpu::set_profiling`]).
    pub profile: Option<crate::profile::Profile>,
    /// Optional fault-injection schedule consulted by the `try_*` ops.
    fault_plan: Option<FaultPlan>,
    /// The fault record: the transient faults absorbed in place (each copy
    /// absorbs up to [`MAX_COPY_RETRIES`], each launch [`MAX_KERNEL_RETRIES`])
    /// and what the owner's recovery wrote beside them (OOM rebatches,
    /// degradations). An owner carrying a record from an earlier device of
    /// the same run seeds it by assignment.
    pub faults: FaultStats,
    /// Span sink; the default no-op handle records nothing.
    tracer: Tracer,
    /// Chrome-trace process lane of this device's spans (device index).
    trace_pid: u32,
    /// Scattered-access analysis core and its grow-once scratch bitsets.
    memo: CoalesceMemo,
    /// What this device's recorded launches did with their records (see
    /// [`crate::replay`]); records are gated per launch on `cfg.replay_memo`
    /// and on the fault plan being unable to disrupt.
    replay: ReplayTally,
    /// Reusable per-SM cycle scratch for [`Gpu::launch_with`] (one slot
    /// per SM each), so steady-state launches allocate nothing.
    launch_scratch: Vec<u64>,
    /// A sampled fixed share as it was, compared with its re-recording;
    /// kept, like `launch_scratch`, for its allocations.
    spare_record: Fixed,
}

impl Gpu {
    /// Creates a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        let memo = CoalesceMemo::new(
            cfg.segment_bytes,
            cfg.sector_bytes,
            cfg.shared_banks,
            cfg.bank_width_bytes,
        );
        let launch_scratch = vec![0u64; 2 * cfg.num_sms as usize];
        Gpu {
            cfg,
            next_addr: ALLOC_ALIGN, // address 0 reserved (null)
            allocated_bytes: 0,
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
            kernel_seconds: 0.0,
            kernels_launched: 0,
            profile: None,
            fault_plan: None,
            faults: FaultStats::default(),
            tracer: Tracer::default(),
            trace_pid: 0,
            memo,
            replay: ReplayTally::default(),
            launch_scratch,
            spare_record: Fixed::default(),
        }
    }

    /// `(0, analyses performed)` by the device's scattered-access analysis
    /// (see [`CoalesceMemo::hit_stats`]).
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.hit_stats()
    }

    /// `(hits, misses, fallbacks)` of this device's recorded launches: per
    /// launch one for its fixed share, plus one per per-block share used.
    pub fn replay_stats(&self) -> (u64, u64, u64) {
        let r = &self.replay;
        (r.hits, r.misses, r.fallbacks)
    }

    /// Checked record uses that disagreed with their recording (a violated
    /// contract; the interpretation stands). 0 for every in-tree kernel.
    pub fn replay_verify_failures(&self) -> u64 {
        self.replay.verify_failures
    }

    /// Installs a tracer and assigns this device's process lane (`pid`,
    /// the device index; single-device engines use 0). Names the device's
    /// standard lane set, including one lane per simulated SM. All modeled
    /// operations (transfers, launches) then emit spans on the modeled
    /// clock; installing the default no-op tracer turns tracing off.
    pub fn set_tracer(&mut self, tracer: Tracer, pid: u32) {
        tracer.name_device_lanes(pid, self.cfg.num_sms);
        self.tracer = tracer;
        self.trace_pid = pid;
    }

    /// The installed tracer handle (no-op by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This device's Chrome-trace process lane.
    pub fn trace_pid(&self) -> u32 {
        self.trace_pid
    }

    /// Installs a fault-injection plan; `try_*` operations consult it.
    /// Replaces any existing plan (returning it), so a plan carried across
    /// device rebuilds keeps its operation counters.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Option<FaultPlan> {
        self.fault_plan.replace(plan)
    }

    /// Removes and returns the installed fault plan, if any. Engines call
    /// this before tearing a device down so the plan (with its consumed
    /// fault coordinates) survives a restart.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault_plan.take()
    }

    /// The installed fault plan, if any (to read injection counts).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    fn fault_fires(&mut self, kind: FaultKind, kernel_name: Option<&str>) -> Option<u64> {
        self.fault_plan
            .as_mut()
            .and_then(|p| p.check(kind, kernel_name))
    }

    /// The op index of the copy or launch fault of `kind` that surfaces from
    /// one operation, if any: the first past the operation's budget
    /// ([`MAX_COPY_RETRIES`], [`MAX_KERNEL_RETRIES`]). Each fault absorbed
    /// before it is counted in [`Gpu::faults`], and marked on the fault lane
    /// at the device's clock.
    fn surfaced_fault(&mut self, kind: FaultKind, kernel_name: Option<&str>) -> Option<u64> {
        let max = match kind {
            FaultKind::Kernel => MAX_KERNEL_RETRIES,
            _ => MAX_COPY_RETRIES,
        };
        let mut attempt = 0;
        loop {
            let op_index = self.fault_fires(kind, kernel_name)?;
            if attempt == max {
                return Some(op_index);
            }
            let mark = match kind {
                FaultKind::Kernel => {
                    self.faults.kernel_retries += 1;
                    "kernel-retry"
                }
                _ => {
                    self.faults.copy_retry(attempt);
                    "copy-retry"
                }
            };
            let ts = self.total_seconds();
            self.tracer
                .instant(self.trace_pid, lanes::FAULT, "fault", mark, ts);
            attempt += 1;
        }
    }

    /// A copy of `kind` (H2D or D2H) the installed plan fails, before it
    /// moves anything.
    fn copy_fault(&mut self, kind: FaultKind) -> Result<(), DeviceFault> {
        match self.surfaced_fault(kind, None) {
            Some(op_index) => Err(DeviceFault::Copy { kind, op_index }),
            None => Ok(()),
        }
    }

    /// Advances the installed plan's flip-point counter and returns the
    /// silent bit flips due at it. Engines call this once per kernel
    /// consumption boundary — immediately before a launch reads the
    /// protected buffers — and apply the returned flips themselves (the
    /// device has no global view of which `DevVec` plays which role). With
    /// no plan installed this is free and returns nothing.
    pub fn take_due_bit_flips(&mut self) -> Vec<crate::fault::BitFlip> {
        self.fault_plan
            .as_mut()
            .map(|p| p.check_bitflips())
            .unwrap_or_default()
    }

    /// Enables (or disables) retention of every launch's [`KernelStats`]
    /// for [`crate::Profile::report`]-style summaries.
    pub fn set_profiling(&mut self, enabled: bool) {
        if enabled && self.profile.is_none() {
            self.profile = Some(crate::profile::Profile::default());
        } else if !enabled {
            self.profile = None;
        }
    }

    /// Device configuration.
    pub fn cfg(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Total device memory currently allocated, in bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Total modeled wall time (transfers + kernels) in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.h2d_seconds + self.d2h_seconds + self.kernel_seconds
    }

    /// Fallible allocation of a zero-initialized device buffer (like
    /// `cudaMalloc` + `cudaMemset`). No transfer cost. Fails with
    /// [`DeviceFault::Oom`] when capacity is exhausted or the fault plan
    /// injects an allocation failure; a failed allocation reserves nothing.
    pub fn try_alloc<T: Pod>(&mut self, len: usize) -> Result<DevVec<T>, DeviceFault> {
        let base = self.reserve(len as u64 * T::SIZE as u64)?;
        Ok(DevVec::from_parts(vec![T::default(); len], base))
    }

    /// The allocator under every buffer: the allocation fault check, the
    /// capacity check, then `bytes` reserved at the next aligned address.
    fn reserve(&mut self, bytes: u64) -> Result<u64, DeviceFault> {
        let injected = self.fault_fires(FaultKind::Alloc, None).is_some();
        if injected || self.allocated_bytes + bytes > self.cfg.global_mem_bytes {
            return Err(DeviceFault::Oom {
                requested_bytes: self.allocated_bytes + bytes,
                capacity_bytes: self.cfg.global_mem_bytes,
                injected,
            });
        }
        let base = self.next_addr;
        let aligned = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.allocated_bytes += bytes;
        self.next_addr += aligned.max(ALLOC_ALIGN);
        Ok(base)
    }

    /// Gives `bytes` of retired buffers back to the capacity (like `cudaFree`;
    /// the caller drops the [`DevVec`]s). Addresses are never handed out
    /// again, so no later buffer aliases a retired one's layout.
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.allocated_bytes, "freeing more than is held");
        self.allocated_bytes -= bytes;
    }

    /// Allocates a zero-initialized device buffer.
    ///
    /// # Panics
    /// Panics when device memory is exhausted, as the paper's runs would
    /// abort on `cudaMalloc` failure. Fault-aware engines use
    /// [`Gpu::try_alloc`] instead.
    pub fn alloc<T: Pod>(&mut self, len: usize) -> DevVec<T> {
        self.try_alloc(len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible allocate-and-upload, charging one host→device transfer.
    /// An injected H2D fault leaves nothing allocated.
    pub fn try_upload<T: Pod>(&mut self, data: &[T]) -> Result<DevVec<T>, DeviceFault> {
        self.upload_with(data.len(), |base| DevVec::from_parts(data.to_vec(), base))
    }

    /// [`Gpu::try_upload`] of `data[range]` that costs no host copy: the
    /// buffer reads the shared storage until something writes it (then it
    /// copies its range out). The same fault checks, allocation and charged
    /// transfer as a copying upload, in the same order — for the columns a
    /// layout fixes, which every run over it uploads and no kernel writes.
    pub fn try_upload_shared<T: Pod>(
        &mut self,
        data: &Arc<[T]>,
        range: Range<usize>,
    ) -> Result<DevVec<T>, DeviceFault> {
        self.upload_with(range.len(), |base| DevVec::shared(data, range, base))
    }

    /// An upload of `len` elements: the H2D fault check, the allocation,
    /// `fill` at its base, then one charged transfer.
    fn upload_with<T: Pod>(
        &mut self,
        len: usize,
        fill: impl FnOnce(u64) -> DevVec<T>,
    ) -> Result<DevVec<T>, DeviceFault> {
        self.copy_fault(FaultKind::H2d)?;
        let buf = fill(self.reserve(len as u64 * T::SIZE as u64)?);
        self.charge_h2d(buf.size_bytes());
        Ok(buf)
    }

    /// Books one host→device transfer of `bytes`: its modeled seconds and
    /// its span on the copy lane.
    fn charge_h2d(&mut self, bytes: u64) {
        let ts = self.total_seconds();
        let dur = self.cfg.transfer_seconds(bytes);
        self.h2d_seconds += dur;
        self.tracer
            .complete_with(self.trace_pid, lanes::COPY, "copy", "h2d", ts, dur, || {
                vec![("bytes", ArgVal::U64(bytes))]
            });
    }

    /// Allocates and uploads, charging one host→device transfer.
    ///
    /// # Panics
    /// Panics on OOM or injected copy fault; see [`Gpu::try_upload`].
    pub fn upload<T: Pod>(&mut self, data: &[T]) -> DevVec<T> {
        self.try_upload(data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible overwrite of an existing buffer from host data, charging a
    /// transfer. An injected fault transfers nothing — the buffer keeps its
    /// previous contents, so the caller may retry.
    pub fn try_h2d<T: Pod>(&mut self, buf: &mut DevVec<T>, data: &[T]) -> Result<(), DeviceFault> {
        assert_eq!(buf.len(), data.len(), "h2d length mismatch");
        self.copy_fault(FaultKind::H2d)?;
        buf.host_mut().copy_from_slice(data);
        self.charge_h2d(buf.size_bytes());
        Ok(())
    }

    /// Overwrites an existing buffer from host data, charging a transfer.
    ///
    /// # Panics
    /// Panics on injected copy fault; see [`Gpu::try_h2d`].
    pub fn h2d<T: Pod>(&mut self, buf: &mut DevVec<T>, data: &[T]) {
        self.try_h2d(buf, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible copy of a buffer back to the host, charging a device→host
    /// transfer. An injected fault returns no data; the device buffer is
    /// untouched and the caller may retry.
    pub fn try_download<T: Pod>(&mut self, buf: &DevVec<T>) -> Result<Vec<T>, DeviceFault> {
        self.copy_fault(FaultKind::D2h)?;
        self.charge_d2h("d2h", buf.size_bytes());
        Ok(buf.host().to_vec())
    }

    /// Books one device→host transfer of `bytes`: its modeled seconds and
    /// its span, called `name`, on the copy lane.
    fn charge_d2h(&mut self, name: &str, bytes: u64) {
        let ts = self.total_seconds();
        let dur = self.cfg.transfer_seconds(bytes);
        self.d2h_seconds += dur;
        self.tracer
            .complete_with(self.trace_pid, lanes::COPY, "copy", name, ts, dur, || {
                vec![("bytes", ArgVal::U64(bytes))]
            });
    }

    /// Copies a buffer back to the host, charging a device→host transfer.
    ///
    /// # Panics
    /// Panics on injected copy fault; see [`Gpu::try_download`].
    pub fn download<T: Pod>(&mut self, buf: &DevVec<T>) -> Vec<T> {
        self.try_download(buf).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible single-element readback (the per-iteration `is_converged`
    /// readback in Figure 5, line 29 — dominated by PCIe latency).
    pub fn try_download_scalar<T: Pod>(
        &mut self,
        buf: &DevVec<T>,
        idx: usize,
    ) -> Result<T, DeviceFault> {
        self.copy_fault(FaultKind::D2h)?;
        self.charge_d2h("d2h-scalar", T::SIZE as u64);
        Ok(buf.host()[idx])
    }

    /// Copies a single element back to the host.
    ///
    /// # Panics
    /// Panics on injected copy fault; see [`Gpu::try_download_scalar`].
    pub fn download_scalar<T: Pod>(&mut self, buf: &DevVec<T>, idx: usize) -> T {
        self.try_download_scalar(buf, idx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible kernel launch; see [`Gpu::launch`]. An injected launch
    /// fault fires *before* any block executes, so device state is exactly
    /// as it was — mirroring a CUDA launch error — and the device re-issues
    /// it itself, up to [`MAX_KERNEL_RETRIES`] times; a fault past that
    /// surfaces, and the caller may fall back to another representation.
    pub fn try_launch(
        &mut self,
        desc: &KernelDesc,
        body: impl FnMut(&mut Block<'_>),
    ) -> Result<KernelStats, DeviceFault> {
        self.launch_with(desc, None, body)
    }

    /// [`Gpu::try_launch`] of a kernel whose blocks' [`Block::statics`] and
    /// [`Block::share`] bodies cost what `record` holds (see [`LaunchRecord`]):
    /// the statics are issued and recorded at the record's first launch and
    /// at a new shape (which also drops every per-block share), left out and
    /// the fixed share charged whole — bit-identically — at every other; a
    /// block's share is recorded at its first use and charged after. Every
    /// [`crate::replay::VERIFY_SAMPLE`]-th use of either issues its bodies
    /// and compares (a mismatch counts a verify failure and corrects the
    /// record); a launch with replay gated off issues them all and counts a
    /// fallback for the launch and for each share body.
    pub fn try_launch_recorded(
        &mut self,
        desc: &KernelDesc,
        record: &mut LaunchRecord,
        body: impl FnMut(&mut Block<'_>),
    ) -> Result<KernelStats, DeviceFault> {
        self.launch_with(desc, Some(record), body)
    }

    /// Launches a kernel: runs `body` once per block (in block-id order —
    /// this fixed order is how the simulator realizes CuSha's asynchronous
    /// intra-iteration visibility deterministically) and charges the
    /// roofline time model.
    ///
    /// # Panics
    /// Panics on injected launch fault; see [`Gpu::try_launch`].
    pub fn launch(&mut self, desc: &KernelDesc, body: impl FnMut(&mut Block<'_>)) -> KernelStats {
        self.try_launch(desc, body)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn launch_with(
        &mut self,
        desc: &KernelDesc,
        record: Option<&mut LaunchRecord>,
        mut body: impl FnMut(&mut Block<'_>),
    ) -> Result<KernelStats, DeviceFault> {
        if let Some(op_index) = self.surfaced_fault(FaultKind::Kernel, Some(&desc.name)) {
            return Err(DeviceFault::Kernel {
                name: desc.name.to_string(),
                op_index,
            });
        }
        let mut stats = KernelStats {
            name: desc.name.clone(),
            blocks: desc.grid_blocks,
            threads_per_block: desc.threads_per_block,
            sm_count: self.cfg.num_sms,
            ..Default::default()
        };
        let tracing = self.tracer.is_enabled();
        // Per-launch replay gate: never charge accounting across a launch
        // during which the installed fault plan could still fire — a gated
        // record interprets and counts a fallback instead.
        let replay_on =
            self.cfg.replay_memo && self.fault_plan.as_ref().is_none_or(|p| !p.could_disrupt());
        let gated = !replay_on && record.is_some();
        let replay_hits_before = self.replay.hits;
        let num_sms = self.cfg.num_sms as usize;
        let shape = (desc.grid_blocks, desc.threads_per_block);
        // Through a record, the blocks' statics are tallied into its fixed
        // share (a miss, or a sampled use to `check` against the spare) or
        // charged (a hit); its per-block shares go to the blocks.
        let (mut tally, mut charge, mut check, mut shares) = (None, None, false, None);
        match record {
            Some(_) if gated => self.replay.fallbacks += 1,
            Some(LaunchRecord {
                fixed,
                shares: kept,
            }) => {
                let hit = fixed.shape == Some(shape) && fixed.sm.len() == num_sms;
                self.replay.hits += u64::from(hit);
                self.replay.misses += u64::from(!hit);
                fixed.uses = (fixed.uses + 1) % VERIFY_SAMPLE;
                if !hit {
                    kept.clear();
                    kept.resize(desc.grid_blocks as usize, Share::default());
                }
                if hit && fixed.uses != 0 {
                    charge = Some(&*fixed);
                } else {
                    if hit {
                        std::mem::swap(&mut self.spare_record, fixed);
                    }
                    fixed.reset(shape, num_sms);
                    (tally, check) = (Some(fixed), hit);
                }
                shares = Some(kept);
            }
            None => {}
        }
        // Reuse the per-SM cycle scratch across launches: the steady-state
        // launch path must not allocate (see tests/zero_alloc_launch.rs).
        let mut scratch = std::mem::take(&mut self.launch_scratch);
        scratch.iter_mut().for_each(|c| *c = 0);
        let (sm_mem, sm_alu) = scratch.split_at_mut(num_sms);
        // Per-phase cycles aggregated across blocks, in first-marked order.
        let mut phase_cycles: Vec<(&'static str, u64)> = Vec::new();
        for block_id in 0..desc.grid_blocks {
            let mut block = Block::new(
                block_id,
                desc.threads_per_block,
                &self.cfg,
                &mut self.memo,
                &mut self.replay,
            );
            block.trace_phases = tracing;
            (block.charged, block.tally) = (charge.is_some(), tally.as_deref_mut());
            (block.gated, block.shares) = (gated, shares.as_deref_mut());
            body(&mut block);
            stats.counters.add(&block.counters);
            // Round-robin block-to-SM assignment approximates the hardware
            // scheduler's load balancing.
            let sm = (block_id % self.cfg.num_sms) as usize;
            sm_mem[sm] += block.mem_cycles;
            sm_alu[sm] += block.alu_cycles;
            if tracing && !block.phase_marks.is_empty() {
                let total = block.mem_cycles + block.alu_cycles;
                for (i, &(name, start)) in block.phase_marks.iter().enumerate() {
                    let end = block
                        .phase_marks
                        .get(i + 1)
                        .map_or(total, |&(_, next)| next);
                    add_phase(&mut phase_cycles, name, end - start);
                }
            }
        }
        if check && tally.is_some_and(|r| *r != self.spare_record) {
            self.replay.verify_failures += 1;
        }
        if let Some(r) = charge {
            stats.counters.add(&r.counters);
            for (sm, &(mem, alu)) in r.sm.iter().enumerate() {
                sm_mem[sm] += mem;
                sm_alu[sm] += alu;
            }
            for &(name, cycles) in r.phases.iter().filter(|_| tracing) {
                add_phase(&mut phase_cycles, name, cycles);
            }
        }
        // Per SM, the LSU retires one memory warp instruction per cycle
        // while the schedulers retire `issue_width` ALU instructions; with
        // enough resident warps the two pipes overlap, so the SM is bound
        // by the slower pipe.
        let max_cycles = (0..num_sms)
            .map(|sm| sm_mem[sm].max(sm_alu[sm].div_ceil(self.cfg.issue_width as u64)))
            .max()
            .unwrap_or(0);
        stats.issue_seconds = max_cycles as f64 / (self.cfg.clock_ghz * 1e9);
        // Each global transaction occupies a full segment's worth of memory
        // bandwidth whether or not its bytes are used — this is precisely
        // the cost of non-coalesced access that the paper attacks, and the
        // counter the gld/gst efficiency metrics are defined over.
        stats.dram_seconds = (stats.counters.gld_transactions + stats.counters.gst_transactions)
            as f64
            * self.cfg.segment_bytes as f64
            / (self.cfg.dram_bandwidth_gbps * 1e9);
        stats.seconds =
            stats.issue_seconds.max(stats.dram_seconds) + self.cfg.kernel_launch_us * 1e-6;
        let ts = self.total_seconds();
        self.kernel_seconds += stats.seconds;
        self.kernels_launched += 1;
        if let Some(profile) = &mut self.profile {
            profile.record(&stats);
        }
        if tracing {
            // REPLAY instant: how many record uses this launch charged or
            // checked — its fixed share and its blocks' shares (omitted when
            // none).
            let replayed = self.replay.hits - replay_hits_before;
            if replayed > 0 {
                self.tracer.instant(
                    self.trace_pid,
                    lanes::KERNEL,
                    "replay",
                    &format!("REPLAY x{replayed}"),
                    ts,
                );
            }
            self.tracer.complete_with(
                self.trace_pid,
                lanes::KERNEL,
                "kernel",
                &stats.name,
                ts,
                stats.seconds,
                || {
                    vec![
                        ("blocks", ArgVal::U64(stats.blocks as u64)),
                        ("gld_efficiency", ArgVal::F64(stats.gld_efficiency())),
                        ("gst_efficiency", ArgVal::F64(stats.gst_efficiency())),
                        (
                            "warp_execution_efficiency",
                            ArgVal::F64(stats.warp_execution_efficiency()),
                        ),
                    ]
                },
            );
            // Phase sub-spans: the kernel's modeled time split proportionally
            // to each marked phase's share of issued cycles.
            let marked: u64 = phase_cycles.iter().map(|&(_, c)| c).sum();
            if marked > 0 {
                let mut cursor = ts;
                for &(name, cycles) in &phase_cycles {
                    let dur = stats.seconds * cycles as f64 / marked as f64;
                    self.tracer.complete_with(
                        self.trace_pid,
                        lanes::KERNEL,
                        "phase",
                        name,
                        cursor,
                        dur,
                        || vec![("cycles", ArgVal::U64(cycles))],
                    );
                    cursor += dur;
                }
            }
            // Per-SM busy spans (occupancy lanes): each SM is busy for its
            // own bound pipe's cycles.
            for sm in 0..num_sms {
                let cycles = sm_mem[sm].max(sm_alu[sm].div_ceil(self.cfg.issue_width as u64));
                if cycles > 0 {
                    let busy = cycles as f64 / (self.cfg.clock_ghz * 1e9);
                    self.tracer.complete_with(
                        self.trace_pid,
                        lanes::SM_BASE + sm as u32,
                        "sm",
                        &stats.name,
                        ts,
                        busy,
                        || vec![("cycles", ArgVal::U64(cycles))],
                    );
                }
            }
        }
        self.launch_scratch = scratch;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Mask, WARP};
    use crate::fault::BACKOFF_BASE_SECONDS;
    use crate::warp::warp_chunks;
    use cusha_obs::trace::Tracer;

    #[test]
    fn alloc_assigns_disjoint_aligned_addresses() {
        let mut gpu = Gpu::new(DeviceConfig::gtx780());
        let a = gpu.alloc::<u32>(10);
        let b = gpu.alloc::<u32>(10);
        assert_ne!(a.base(), b.base());
        assert_eq!(a.base() % ALLOC_ALIGN, 0);
        assert_eq!(b.base() % ALLOC_ALIGN, 0);
        assert!(b.base() >= a.base() + 40);
        assert_eq!(gpu.allocated_bytes(), 80);
    }

    #[test]
    fn free_restores_capacity_and_never_reuses_addresses() {
        let mut cfg = DeviceConfig::tiny_test();
        cfg.global_mem_bytes = 1024;
        let mut gpu = Gpu::new(cfg);
        let kept = gpu.alloc::<u32>(16);
        let mut seen = vec![kept.base()];
        // Ten rounds of a batch that would not fit twice.
        for _ in 0..10 {
            let batch = gpu
                .try_alloc::<u32>(200)
                .expect("the retired batch's room is back");
            assert!(gpu.try_alloc::<u32>(200).is_err(), "two batches do not fit");
            assert!(!seen.contains(&batch.base()), "address handed out twice");
            seen.push(batch.base());
            gpu.free(batch.size_bytes());
            assert_eq!(gpu.allocated_bytes(), kept.size_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn oom_panics() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test()); // 1 MiB
        let _ = gpu.alloc::<u64>(1 << 20);
    }

    #[test]
    fn transfers_accumulate_time() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        let buf = gpu.upload(&[1u32; 250]); // 1000 B at 1 GB/s = 1 us + 1 us lat
        assert!(
            (gpu.h2d_seconds - 2e-6).abs() < 1e-12,
            "{}",
            gpu.h2d_seconds
        );
        let back = gpu.download(&buf);
        assert_eq!(back, vec![1u32; 250]);
        assert!(gpu.d2h_seconds > 1e-6);
        let v = gpu.download_scalar(&buf, 3);
        assert_eq!(v, 1);
    }

    #[test]
    fn launch_runs_every_block_and_models_time() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        let mut src = gpu.upload(&(0..256u32).collect::<Vec<_>>());
        let mut seen = Vec::new();
        let desc = KernelDesc::new("copy", 4, 64);
        // Each block doubles its 64-element slice.
        let mut dst = gpu.alloc::<u32>(256);
        let stats = gpu.launch(&desc, |b| {
            seen.push(b.id());
            let base = b.id() as usize * 64;
            for (start, mask) in warp_chunks(64) {
                let vals = b.gload(&src, mask, |l| base + start + l);
                b.gstore(&mut dst, mask, |l| base + start + l, |l| vals[l] * 2);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(dst.host()[255], 510);
        // 4 blocks * 2 chunks * 2 ops = 16 warp instructions.
        assert_eq!(stats.counters.warp_instructions, 16);
        assert!((stats.warp_execution_efficiency() - 1.0).abs() < 1e-12);
        assert!((stats.gld_efficiency() - 1.0).abs() < 1e-12);
        assert!(stats.seconds > 0.0);
        assert_eq!(gpu.kernels_launched, 1);
        // Avoid unused warnings for src mutation path.
        gpu.h2d(&mut src, &vec![0u32; 256]);
    }

    #[test]
    fn roofline_picks_the_larger_term() {
        // tiny_test has 1 GB/s DRAM and 1 GHz clock: a single coalesced load
        // of 128 B (4 sectors) costs 128 ns of DRAM vs 1 ns of issue.
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        let buf = gpu.upload(&[0u32; 32]);
        let desc = KernelDesc::new("probe", 1, 32);
        let stats = gpu.launch(&desc, |b| {
            b.gload(&buf, Mask::FULL, |l| l);
        });
        assert!(stats.dram_seconds > stats.issue_seconds);
        let expected = stats.dram_seconds + 1e-6; // + 1 us launch overhead
        assert!((stats.seconds - expected).abs() < 1e-15);
    }

    #[test]
    fn profiling_retains_launch_history() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_profiling(true);
        let desc = KernelDesc::new("probe", 1, 32);
        gpu.launch(&desc, |b| b.exec(Mask::FULL, 5));
        gpu.launch(&desc, |b| b.exec(Mask::FULL, 5));
        let profile = gpu.profile.as_ref().unwrap();
        assert_eq!(profile.launches().len(), 2);
        let aggs = profile.aggregates();
        assert_eq!(aggs["probe"].launches, 2);
        assert!(profile.report().contains("probe"));
        gpu.set_profiling(false);
        assert!(gpu.profile.is_none());
    }

    #[test]
    fn try_alloc_reports_oom_without_reserving() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test()); // 1 MiB
        let err = gpu.try_alloc::<u64>(1 << 20).unwrap_err();
        match err {
            DeviceFault::Oom { injected, .. } => assert!(!injected),
            other => panic!("expected Oom, got {other:?}"),
        }
        // The failed allocation reserved nothing; a fitting one succeeds.
        assert_eq!(gpu.allocated_bytes(), 0);
        assert!(gpu.try_alloc::<u32>(16).is_ok());
    }

    #[test]
    fn injected_faults_surface_through_try_ops() {
        // Each fault surfaces once the operation's in-place budget is spent.
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_fault_plan(
            FaultPlan::new()
                .fail_alloc_at(&[1])
                .fail_h2d_at(&[1, 2, 3, 4])
                .fail_d2h_at(&[0, 1, 2, 3])
                .fail_kernel_at(&[0, 1]),
        );
        // alloc #0 fine, #1 injected OOM (never retried), #2 fine again.
        assert!(gpu.try_alloc::<u32>(4).is_ok());
        match gpu.try_alloc::<u32>(4) {
            Err(DeviceFault::Oom { injected: true, .. }) => {}
            other => panic!("expected injected Oom, got {other:?}"),
        }
        let mut buf = gpu.try_alloc::<u32>(4).unwrap();
        // h2d #0 (upload counts as h2d) fine; #1-#3 are absorbed, #4 fails
        // and leaves the buffer untouched, and the next copy (#5) lands.
        let _up = gpu.try_upload(&[9u32; 4]).unwrap();
        assert!(matches!(
            gpu.try_h2d(&mut buf, &[1, 2, 3, 4]),
            Err(DeviceFault::Copy {
                kind: FaultKind::H2d,
                op_index: 4
            })
        ));
        assert_eq!(buf.host(), &[0; 4], "failed copy transferred nothing");
        gpu.try_h2d(&mut buf, &[1, 2, 3, 4]).unwrap();
        assert_eq!(buf.host(), &[1, 2, 3, 4]);
        // d2h #0-#2 absorbed, #3 surfaces; the next download lands.
        assert!(gpu.try_download(&buf).is_err());
        assert_eq!(gpu.try_download(&buf).unwrap(), vec![1, 2, 3, 4]);
        // kernel #0 absorbed, #1 surfaces before running any block.
        let desc = KernelDesc::new("probe", 1, 32);
        let mut ran = false;
        assert!(gpu.try_launch(&desc, |_| ran = true).is_err());
        assert!(!ran, "failed launch must not execute blocks");
        gpu.try_launch(&desc, |_| ran = true).unwrap();
        assert!(ran);
        let log = gpu.fault_plan().unwrap().injected();
        assert_eq!((log.alloc, log.h2d, log.d2h, log.kernel), (1, 4, 4, 2));
        let absorbed = (gpu.faults.copy_retries, gpu.faults.kernel_retries);
        assert_eq!(absorbed, (6, 1));
    }

    #[test]
    fn fault_plan_survives_take_and_reinstall() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_fault_plan(FaultPlan::new().fail_h2d_at(&[2]));
        let _ = gpu.try_upload(&[1u32]).unwrap(); // h2d #0
        let plan = gpu.take_fault_plan().unwrap();
        // Simulated engine restart: fresh device, same plan.
        let mut gpu2 = Gpu::new(DeviceConfig::tiny_test());
        gpu2.set_fault_plan(plan);
        let _ = gpu2.try_upload(&[1u32]).unwrap(); // h2d #1
        assert!(gpu2.faults.is_clean());
        assert!(gpu2.try_upload(&[1u32]).is_ok(), "h2d #2 absorbed");
        assert_eq!(
            gpu2.faults.copy_retries, 1,
            "h2d #2 fired on the new device"
        );
        assert_eq!(gpu2.fault_plan().unwrap().injected().h2d, 1);
    }

    /// The fault-lane marks a device made: `(name, modeled microseconds)`.
    fn fault_marks(gpu: &Gpu) -> Vec<(String, f64)> {
        let marks = gpu.tracer().with_events(|ev| {
            let on_lane = ev.iter().filter(|e| e.tid == lanes::FAULT);
            on_lane.map(|e| (e.name.clone(), e.ts_us)).collect()
        });
        marks.unwrap()
    }

    /// A traced `tiny_test` device running `plan`.
    fn planned(plan: FaultPlan) -> Gpu {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_tracer(Tracer::enabled(), 0);
        gpu.set_fault_plan(plan);
        gpu
    }

    #[test]
    fn a_granted_device_absorbs_three_copy_faults_per_copy() {
        // H2D #0-2 fault and #3 lands; the next copy's #4-6 are absorbed
        // afresh (the budget is per copy) and its fourth fault, #7, surfaces.
        let plan = FaultPlan::new().fail_h2d_at(&[0, 1, 2, 4, 5, 6, 7]);
        let mut gpu = planned(plan);
        let mut up = gpu.try_upload(&[7u32; 4]).expect("three faults absorbed");
        let landed = gpu.total_seconds();
        assert!(landed > 0.0);
        match gpu.try_h2d(&mut up, &[1; 4]) {
            Err(DeviceFault::Copy { op_index: 7, .. }) => {}
            other => panic!("expected h2d #7 to surface, got {other:?}"),
        }
        assert_eq!(
            gpu.total_seconds(),
            landed,
            "the failed copy charged nothing"
        );
        let mut want = FaultStats::default();
        for attempt in [0, 1, 2, 0, 1, 2] {
            want.copy_retries += 1;
            want.backoff_seconds += BACKOFF_BASE_SECONDS * (1u64 << attempt) as f64;
        }
        assert_eq!(gpu.faults, want);
        assert_eq!(
            gpu.faults.backoff_seconds.to_bits(),
            want.backoff_seconds.to_bits()
        );
        let mark = |ts: f64| ("copy-retry".to_string(), ts * 1e6);
        let marks = vec![mark(0.0), mark(0.0), mark(0.0)];
        let marks = [marks, vec![mark(landed); 3]].concat();
        assert_eq!(
            fault_marks(&gpu),
            marks,
            "backoff is not charged to the clock"
        );
    }

    #[test]
    fn a_granted_device_absorbs_one_launch_fault_per_launch() {
        // Launch #0 faults and #1 runs; the next launch's #2 is absorbed and
        // #3 surfaces before any block ran.
        let mut gpu = planned(FaultPlan::new().fail_kernel_at(&[0, 2, 3]));
        let desc = KernelDesc::new("probe", 1, 32);
        let mut runs = 0;
        let stats = gpu.try_launch(&desc, |b| {
            runs += 1;
            b.exec(Mask::FULL, 1);
        });
        let first = stats.expect("one fault absorbed").seconds;
        match gpu.try_launch(&desc, |_| runs += 1) {
            Err(DeviceFault::Kernel { op_index: 3, .. }) => {}
            other => panic!("expected launch #3 to surface, got {other:?}"),
        }
        assert_eq!((runs, gpu.kernels_launched), (1, 1));
        let want = FaultStats {
            kernel_retries: 2,
            ..Default::default()
        };
        assert_eq!(gpu.faults, want);
        let marks = vec![
            ("kernel-retry".into(), 0.0),
            ("kernel-retry".into(), first * 1e6),
        ];
        assert_eq!(fault_marks(&gpu), marks);
    }

    #[test]
    fn a_fault_past_the_budget_surfaces_on_the_carried_record() {
        // The record an owner carries from an earlier device is seeded by
        // assignment, and the budget counts onto it: each op's faults up to
        // its budget are absorbed, the next surfaces.
        let plan = FaultPlan::new()
            .fail_h2d_at(&[0, 1, 2, 3])
            .fail_d2h_at(&[0]);
        let mut gpu = planned(plan.fail_kernel_at(&[0, 1]));
        let carried = FaultStats {
            degradations: 1,
            ..Default::default()
        };
        gpu.faults = carried;
        assert!(matches!(
            gpu.try_upload(&[1u32]),
            Err(DeviceFault::Copy { op_index: 3, .. })
        ));
        let buf = gpu.try_upload(&[1u32]).expect("h2d #4 is clean");
        assert_eq!(gpu.try_download_scalar(&buf, 0).unwrap(), 1);
        let desc = KernelDesc::new("probe", 1, 32);
        assert!(matches!(
            gpu.try_launch(&desc, |_| {}),
            Err(DeviceFault::Kernel { op_index: 1, .. })
        ));
        let absorbed = (gpu.faults.copy_retries, gpu.faults.kernel_retries);
        assert_eq!((absorbed, gpu.faults.degradations), ((4, 1), 1));
        let marks: Vec<String> = fault_marks(&gpu).into_iter().map(|m| m.0).collect();
        let want = ["copy-retry"; 4].into_iter().chain(["kernel-retry"]);
        assert_eq!(marks, want.map(String::from).collect::<Vec<_>>());
    }

    #[test]
    fn tracer_records_copy_kernel_phase_and_sm_spans() {
        use cusha_obs::trace::{lanes, Ph, Tracer};
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_tracer(Tracer::enabled(), 0);
        let buf = gpu.upload(&[0u32; 64]);
        let desc = KernelDesc::new("probe", 2, 32);
        gpu.launch(&desc, |b| {
            b.phase("gather");
            b.gload(&buf, Mask::FULL, |l| l);
            b.phase("apply");
            b.exec(Mask::FULL, 10);
        });
        let _ = gpu.download_scalar(&buf, 0);
        gpu.tracer()
            .clone()
            .with_events(|ev| {
                let names: Vec<&str> = ev.iter().map(|e| e.name.as_str()).collect();
                assert!(names.contains(&"h2d"));
                assert!(names.contains(&"probe"));
                assert!(names.contains(&"gather"));
                assert!(names.contains(&"apply"));
                assert!(names.contains(&"d2h-scalar"));
                // Phase sub-spans tile the kernel span.
                let kernel = ev
                    .iter()
                    .find(|e| e.name == "probe" && e.cat == "kernel")
                    .unwrap();
                let phase_dur: f64 = ev
                    .iter()
                    .filter(|e| e.cat == "phase")
                    .map(|e| e.dur_us)
                    .sum();
                assert!((phase_dur - kernel.dur_us).abs() < 1e-6);
                // Both SMs got a busy span (2 blocks round-robin onto 2 SMs).
                let sm_lanes: Vec<u32> =
                    ev.iter().filter(|e| e.cat == "sm").map(|e| e.tid).collect();
                assert_eq!(sm_lanes, vec![lanes::SM_BASE, lanes::SM_BASE + 1]);
                assert!(ev.iter().all(|e| e.ph == Ph::Complete));
            })
            .unwrap();
    }

    #[test]
    fn disabled_tracer_keeps_timing_identical() {
        let run = |trace: bool| {
            let mut gpu = Gpu::new(DeviceConfig::tiny_test());
            if trace {
                gpu.set_tracer(cusha_obs::Tracer::enabled(), 0);
            }
            let buf = gpu.upload(&[0u32; 64]);
            let desc = KernelDesc::new("probe", 2, 32);
            let stats = gpu.launch(&desc, |b| {
                b.phase("gather");
                b.gload(&buf, Mask::FULL, |l| l);
            });
            (gpu.total_seconds(), stats.counters)
        };
        assert_eq!(run(false), run(true), "tracing must not perturb the model");
    }

    #[test]
    fn sm_round_robin_balances_blocks() {
        // 2 SMs, 4 equal blocks: max SM load is 2 blocks' cycles.
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        let desc = KernelDesc::new("even", 4, 32);
        let stats = gpu.launch(&desc, |b| {
            b.exec(Mask::FULL, 100);
        });
        // 2 blocks per SM * 100 cycles = 200 cycles at 1 GHz = 200 ns.
        assert!((stats.issue_seconds - 200e-9).abs() < 1e-15);
    }

    /// A recorded body: per warp, a strided gather and a store as statics,
    /// and — in the blocks `round` picks, like a value would — a share.
    fn statics_and_share(
        b: &mut Block<'_>,
        buf: &DevVec<u32>,
        dst: &mut DevVec<u32>,
        round: usize,
    ) {
        let base = b.id() as usize * 128;
        b.statics(|b| {
            for (start, mask) in warp_chunks(128) {
                b.gload(buf, mask, |l| (start + l * 7) % 256);
                b.gstore(dst, mask, |l| base + start + l, |_| 0);
            }
        });
        if (round + b.id() as usize).is_multiple_of(2) {
            b.share(|b| b.exec(Mask::first(3 + b.id() as usize), 4));
        }
        let vals: [u32; WARP] = std::array::from_fn(|l| (round + l) as u32);
        b.gstore_run(dst, Mask::FULL, base as isize, &vals);
    }

    #[test]
    fn replay_memo_is_invisible_to_outputs_counters_and_timing() {
        let run = |replay: bool| {
            let mut cfg = DeviceConfig::tiny_test();
            cfg.replay_memo = replay;
            let mut gpu = Gpu::new(cfg);
            let buf = gpu.upload(&(0..256u32).collect::<Vec<_>>());
            let mut dst = gpu.alloc::<u32>(256);
            let desc = KernelDesc::new("probe", 2, 128);
            let (mut record, mut last) = (LaunchRecord::default(), None);
            for round in 0..4 {
                let body = |b: &mut Block<'_>| statics_and_share(b, &buf, &mut dst, round);
                last = Some(gpu.try_launch_recorded(&desc, &mut record, body).unwrap());
            }
            let counts = gpu.replay_stats();
            (
                gpu.download(&dst),
                last.unwrap(),
                gpu.total_seconds(),
                counts,
            )
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(
            (&on.0, &on.1, on.2.to_bits()),
            (&off.0, &off.1, off.2.to_bits()),
            "replay must be bit-invisible"
        );
        // Four launches, each block's share every other round.
        assert_eq!(on.3, (3 + 2, 1 + 2, 0));
        assert_eq!(off.3, (0, 0, 4 + 4));
    }

    #[test]
    fn fault_plan_gates_replay_to_fallbacks() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_fault_plan(FaultPlan::new().fail_kernel_at(&[100]));
        let desc = KernelDesc::new("probe", 1, 32);
        let mut record = LaunchRecord::default();
        let body = |b: &mut Block<'_>| {
            b.statics(|b| b.exec(Mask::FULL, 1));
            b.share(|b| b.exec(Mask::FULL, 1));
        };
        for _ in 0..3 {
            gpu.try_launch_recorded(&desc, &mut record, body).unwrap();
        }
        // The outstanding scheduled fault keeps records gated off: a
        // fallback for each launch and each share body, nothing recorded.
        assert_eq!(gpu.replay_stats(), (0, 0, 6));
        assert_eq!(record, LaunchRecord::default());
        // Plan removed: the same launch records once, then charges.
        gpu.take_fault_plan();
        for _ in 0..2 {
            gpu.try_launch_recorded(&desc, &mut record, body).unwrap();
        }
        assert_eq!(gpu.replay_stats(), (2, 2, 6));
    }

    /// What a [`two_phase`] statics or share body says it costs.
    #[derive(Clone, Copy, PartialEq)]
    enum Lie {
        None,
        /// The statics cost more from round 10 on.
        Statics,
        /// The shares cost more from round 10 on.
        Share,
    }

    /// Whether block `id` runs its share in `round`.
    fn runs_share(round: usize, id: usize) -> bool {
        !(round + id).is_multiple_of(3)
    }

    /// Blocks that differ, two marked phases with statics in each, a store
    /// in the second whose mask depends on `round`, like a value, and a share
    /// the blocks [`runs_share`] picks run. A `lie` makes a body's cost change
    /// with the round too.
    fn two_phase(
        b: &mut Block<'_>,
        buf: &DevVec<u32>,
        out: &mut DevVec<u32>,
        round: u32,
        lie: Lie,
    ) {
        let (id, late) = (b.id() as usize, round >= 10);
        b.phase("load");
        b.statics(|b| {
            b.gload(buf, Mask::first(1 + id), |l| l * (id + 1));
            b.exec(
                Mask::FULL,
                id as u64 + u64::from(lie == Lie::Statics && late),
            );
        });
        b.phase("store");
        b.statics(|b| b.exec(Mask::first(4), 2));
        let lanes = Mask::first(1 + (round as usize + id) % WARP);
        b.gstore(out, lanes, |l| id * WARP + l, |l| round + l as u32);
        if runs_share(round as usize, id) {
            b.share(|b| {
                b.gload(buf, Mask::first(2 + id), |l| l * 3 + id);
                b.exec(
                    Mask::first(1 + id),
                    2 + u64::from(lie == Lie::Share && late),
                );
            });
        }
    }

    /// `(hits, misses)` a record makes over launches of [`two_phase`] at
    /// `grids`: its fixed share misses at each new shape, which drops every
    /// share, and a block's share misses at its first use after that.
    fn uses_of(grids: &[u32]) -> (u64, u64) {
        let (mut hits, mut misses, mut seen, mut shape) = (0, 0, Vec::new(), None);
        for (round, &grid) in grids.iter().enumerate() {
            match shape == Some(grid) {
                true => hits += 1,
                false => {
                    (misses, seen, shape) = (misses + 1, vec![false; grid as usize], Some(grid))
                }
            }
            for (id, seen) in seen.iter_mut().enumerate() {
                if runs_share(round, id) {
                    match std::mem::replace(seen, true) {
                        true => hits += 1,
                        false => misses += 1,
                    }
                }
            }
        }
        (hits, misses)
    }

    /// A `tiny_test` device (2 SMs) with the buffers [`two_phase`] uses.
    fn two_phase_device(traced: bool) -> (Gpu, DevVec<u32>, DevVec<u32>) {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        if traced {
            gpu.set_tracer(Tracer::enabled(), 0);
        }
        let buf = gpu.upload(&(0..1024u32).collect::<Vec<_>>());
        let out = gpu.alloc::<u32>(8 * WARP);
        (gpu, buf, out)
    }

    /// `rounds` launches of [`two_phase`], each at its grid, through
    /// `record` when given; every launch's stats and the device.
    fn two_phase_rounds(
        traced: bool,
        mut record: Option<&mut LaunchRecord>,
        grids: &[u32],
        lie: Lie,
    ) -> (Vec<KernelStats>, Gpu, Vec<u32>) {
        let (mut gpu, buf, mut out) = two_phase_device(traced);
        let mut stats = Vec::new();
        for (round, &grid) in grids.iter().enumerate() {
            let desc = KernelDesc::new("two-phase", grid, 64);
            let body = |b: &mut Block<'_>| two_phase(b, &buf, &mut out, round as u32, lie);
            stats.push(match record.as_deref_mut() {
                Some(r) => gpu.try_launch_recorded(&desc, r, body).unwrap(),
                None => gpu.launch(&desc, body),
            });
        }
        let values = gpu.download(&out);
        (stats, gpu, values)
    }

    #[test]
    fn a_charged_launch_is_the_interpreted_one() {
        // 5 blocks on 2 SMs: the record's per-SM split is not uniform. One
        // use past the sample: an honest record passes its checks.
        let grids = [5; 2 + crate::replay::VERIFY_SAMPLE as usize];
        let mut record = LaunchRecord::default();
        let (charged, gpu, values) = two_phase_rounds(false, Some(&mut record), &grids, Lie::None);
        let (plain, reference, expected) = two_phase_rounds(false, None, &grids, Lie::None);
        assert_eq!(charged, plain, "counters, cycles and modeled seconds");
        assert_eq!(values, expected);
        assert_eq!(
            gpu.total_seconds().to_bits(),
            reference.total_seconds().to_bits()
        );
        let (hits, misses) = uses_of(&grids);
        assert_eq!(misses, 1 + 5, "the fixed share, then each block's share");
        assert_eq!(gpu.replay_stats(), (hits, misses, 0));
        assert_eq!(gpu.replay_verify_failures(), 0);
    }

    #[test]
    fn recorded_and_interpreted_launches_emit_identical_spans() {
        let grids = [5; 4];
        let spans = |record: Option<&mut LaunchRecord>| {
            let (_, gpu, _) = two_phase_rounds(true, record, &grids, Lie::None);
            let events = gpu.tracer().with_events(|ev| {
                let kept = ev.iter().filter(|e| e.cat != "replay");
                kept.map(|e| format!("{e:?}")).collect::<Vec<_>>()
            });
            events.unwrap()
        };
        let recorded = spans(Some(&mut LaunchRecord::default()));
        assert!(recorded.iter().filter(|e| e.contains("\"phase\"")).count() >= 8);
        assert_eq!(recorded, spans(None));
    }

    #[test]
    fn a_lying_record_is_caught_at_its_sampled_use_and_corrected() {
        let grids = [3; 2 + crate::replay::VERIFY_SAMPLE as usize];
        let mut record = LaunchRecord::default();
        let (charged, gpu, _) = two_phase_rounds(false, Some(&mut record), &grids, Lie::Statics);
        let (plain, _, _) = two_phase_rounds(false, None, &grids, Lie::Statics);
        assert_eq!(gpu.replay_verify_failures(), 1);
        let sampled = crate::replay::VERIFY_SAMPLE as usize;
        // Before the sample: round 0's cost, charged past round 10.
        assert_ne!(charged[sampled - 1], plain[sampled - 1]);
        // The sampled use interpreted, and the corrected record charges
        // what interpreting does.
        assert_eq!(charged[sampled..], plain[sampled..]);
    }

    #[test]
    fn a_lying_share_is_caught_at_its_sampled_use_and_corrected() {
        // Each block runs its share two rounds in three: its 64th use after
        // recording, its sample, falls near round 97, after the lie began.
        let sample = crate::replay::VERIFY_SAMPLE as usize;
        let grids = [3; 120];
        let mut record = LaunchRecord::default();
        let (charged, gpu, values) = two_phase_rounds(false, Some(&mut record), &grids, Lie::Share);
        let (plain, _, expected) = two_phase_rounds(false, None, &grids, Lie::Share);
        assert_eq!(values, expected);
        assert_eq!(gpu.replay_verify_failures(), 3, "each block's share, once");
        // Block `id`'s sampled use: the round of its `sample + 1`-th use.
        let sampled = |id: usize| {
            let uses = (0..grids.len()).filter(|&r| runs_share(r, id));
            uses.clone().nth(sample).expect("sampled within the run")
        };
        let last = (0..3).map(sampled).max().unwrap();
        let first = (0..3).map(sampled).min().unwrap();
        // Past round 10 a charged share undercounts until its sample...
        assert!((10..first).all(|r| charged[r] != plain[r]));
        // ...and every launch after the last sample charges the truth.
        assert_eq!(charged[last..], plain[last..]);
    }

    #[test]
    fn a_gated_launch_interprets_its_statics() {
        let grids = [5; 3];
        let mut off = DeviceConfig::tiny_test();
        off.replay_memo = false;
        for (cfg, plan) in [
            (off, None),
            (
                DeviceConfig::tiny_test(),
                Some(FaultPlan::new().fail_kernel_at(&[100])),
            ),
        ] {
            let mut gpu = Gpu::new(cfg);
            if let Some(plan) = plan {
                gpu.set_fault_plan(plan);
            }
            let (mut record, mut issued) = (LaunchRecord::default(), 0);
            for _ in grids {
                let desc = KernelDesc::new("gated", 5, 32);
                let body = |b: &mut Block<'_>| {
                    b.statics(|b| {
                        issued += 1;
                        b.exec(Mask::FULL, 1);
                    });
                    b.share(|b| b.exec(Mask::FULL, 1));
                };
                gpu.try_launch_recorded(&desc, &mut record, body).unwrap();
            }
            assert_eq!(issued, 15, "every block of every launch interprets");
            assert_eq!(
                gpu.replay_stats(),
                (0, 0, 3 + 15),
                "one fallback a launch and one a share"
            );
            assert_eq!(record, LaunchRecord::default(), "nothing recorded");
        }
    }

    #[test]
    fn a_launch_of_another_shape_re_records() {
        let grids = [4, 5, 5, 4];
        let mut record = LaunchRecord::default();
        let (charged, gpu, _) = two_phase_rounds(false, Some(&mut record), &grids, Lie::None);
        let (plain, _, _) = two_phase_rounds(false, None, &grids, Lie::None);
        assert_eq!(charged, plain);
        let (hits, misses) = uses_of(&grids);
        assert_eq!(
            gpu.replay_stats(),
            (hits, misses, 0),
            "a miss at every change of shape, and the shares again"
        );
        assert_eq!(
            hits,
            1 + 2,
            "one fixed hit, two shares used again at its shape"
        );
    }
}
