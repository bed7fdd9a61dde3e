//! The simulated GPU: allocation, transfers, and kernel launches.

use crate::block::Block;
use crate::coalesce::CoalesceMemo;
use crate::config::DeviceConfig;
use crate::counters::KernelStats;
use crate::fault::{DeviceFault, FaultKind, FaultPlan};
use crate::mem::{DevVec, ALLOC_ALIGN};
use crate::pod::Pod;
use crate::replay::{add_phase, LaunchRecord, ReplayMemo, VERIFY_SAMPLE};
use cusha_obs::trace::{lanes, ArgVal, Tracer};
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
    /// Span sink; the default no-op handle records nothing.
    tracer: Tracer,
    /// Chrome-trace process lane of this device's spans (device index).
    trace_pid: u32,
    /// Scattered-access analysis core and its grow-once scratch bitsets.
    memo: CoalesceMemo,
    /// Warp-trace replay table (see [`crate::replay`]); gated per launch on
    /// `cfg.replay_memo` and on the fault plan being unable to disrupt.
    replay: ReplayMemo,
    /// `replay`'s totals when it was installed: a lent table arrives with
    /// earlier runs' probes counted, and this device reports only its own.
    replay_base: (u64, u64, u64),
    /// Reusable per-SM cycle scratch for [`Gpu::launch_with`] (one slot
    /// per SM each), so steady-state launches allocate nothing.
    launch_scratch: Vec<u64>,
    /// A sampled [`LaunchRecord`] as it was, compared with its re-recording;
    /// kept, like `launch_scratch`, for its allocations.
    spare_record: LaunchRecord,
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
            tracer: Tracer::default(),
            trace_pid: 0,
            memo,
            replay: ReplayMemo::new(),
            replay_base: (0, 0, 0),
            launch_scratch,
            spare_record: LaunchRecord::default(),
        }
    }

    /// `(0, analyses performed)` by the device's scattered-access analysis
    /// (see [`CoalesceMemo::hit_stats`]).
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.hit_stats()
    }

    /// `(hits, misses, fallbacks)` this device's launches added to its
    /// warp-trace replay memo.
    pub fn replay_stats(&self) -> (u64, u64, u64) {
        let ((h, m, f), (h0, m0, f0)) = (self.replay.stats(), self.replay_base);
        (h - h0, m - m0, f - f0)
    }

    /// The replay memo the device runs on, its own or one lent to it
    /// (diagnostics: its slots and verify failures are the table's, whoever
    /// filled them).
    pub fn replay_table(&self) -> &ReplayMemo {
        &self.replay
    }

    /// Installs `table` as the device's replay memo and returns the one it
    /// replaces. An owner whose scope keys outlive the device (a prepared
    /// layout) lends its table for a run and swaps it back out after; one
    /// recorded under a different device geometry must never be lent.
    pub fn swap_replay_memo(&mut self, table: ReplayMemo) -> ReplayMemo {
        self.replay_base = table.stats();
        std::mem::replace(&mut self.replay, table)
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
        let bytes = len as u64 * T::SIZE as u64;
        if self.fault_fires(FaultKind::Alloc, None).is_some() {
            return Err(DeviceFault::Oom {
                requested_bytes: self.allocated_bytes + bytes,
                capacity_bytes: self.cfg.global_mem_bytes,
                injected: true,
            });
        }
        if self.allocated_bytes + bytes > self.cfg.global_mem_bytes {
            return Err(DeviceFault::Oom {
                requested_bytes: self.allocated_bytes + bytes,
                capacity_bytes: self.cfg.global_mem_bytes,
                injected: false,
            });
        }
        let base = self.next_addr;
        let aligned = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.allocated_bytes += bytes;
        self.next_addr += aligned.max(ALLOC_ALIGN);
        Ok(DevVec::from_parts(vec![T::default(); len], base))
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
        if let Some(op_index) = self.fault_fires(FaultKind::H2d, None) {
            return Err(DeviceFault::Copy {
                kind: FaultKind::H2d,
                op_index,
            });
        }
        let mut buf = self.try_alloc::<T>(data.len())?;
        buf.host_mut().copy_from_slice(data);
        let ts = self.total_seconds();
        let dur = self.cfg.transfer_seconds(buf.size_bytes());
        self.h2d_seconds += dur;
        let bytes = buf.size_bytes();
        self.tracer
            .complete_with(self.trace_pid, lanes::COPY, "copy", "h2d", ts, dur, || {
                vec![("bytes", ArgVal::U64(bytes))]
            });
        Ok(buf)
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
        if let Some(op_index) = self.fault_fires(FaultKind::H2d, None) {
            return Err(DeviceFault::Copy {
                kind: FaultKind::H2d,
                op_index,
            });
        }
        buf.host_mut().copy_from_slice(data);
        let ts = self.total_seconds();
        let dur = self.cfg.transfer_seconds(buf.size_bytes());
        self.h2d_seconds += dur;
        let bytes = buf.size_bytes();
        self.tracer
            .complete_with(self.trace_pid, lanes::COPY, "copy", "h2d", ts, dur, || {
                vec![("bytes", ArgVal::U64(bytes))]
            });
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
        if let Some(op_index) = self.fault_fires(FaultKind::D2h, None) {
            return Err(DeviceFault::Copy {
                kind: FaultKind::D2h,
                op_index,
            });
        }
        let ts = self.total_seconds();
        let dur = self.cfg.transfer_seconds(buf.size_bytes());
        self.d2h_seconds += dur;
        let bytes = buf.size_bytes();
        self.tracer
            .complete_with(self.trace_pid, lanes::COPY, "copy", "d2h", ts, dur, || {
                vec![("bytes", ArgVal::U64(bytes))]
            });
        Ok(buf.host().to_vec())
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
        if let Some(op_index) = self.fault_fires(FaultKind::D2h, None) {
            return Err(DeviceFault::Copy {
                kind: FaultKind::D2h,
                op_index,
            });
        }
        let ts = self.total_seconds();
        let dur = self.cfg.transfer_seconds(T::SIZE as u64);
        self.d2h_seconds += dur;
        self.tracer.complete_with(
            self.trace_pid,
            lanes::COPY,
            "copy",
            "d2h-scalar",
            ts,
            dur,
            || vec![("bytes", ArgVal::U64(T::SIZE as u64))],
        );
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
    /// as it was — mirroring a CUDA launch error — and the caller may
    /// re-launch or fall back to another representation.
    pub fn try_launch(
        &mut self,
        desc: &KernelDesc,
        body: impl FnMut(&mut Block<'_>),
    ) -> Result<KernelStats, DeviceFault> {
        self.launch_with(desc, None, body)
    }

    /// [`Gpu::try_launch`] of a kernel whose blocks' [`Block::statics`] cost
    /// what `record` holds (see [`LaunchRecord`]): issued and recorded at the
    /// record's first launch and at a new shape, left out and the record
    /// charged whole — bit-identically — at every other. Every
    /// [`crate::replay::VERIFY_SAMPLE`]-th use issues them and compares (a
    /// mismatch counts a verify failure and corrects the record); a launch
    /// with replay gated off issues them and counts a fallback.
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
        if let Some(op_index) = self.fault_fires(FaultKind::Kernel, Some(&desc.name)) {
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
        // Per-launch replay gate: never replay accounting across a launch
        // during which the installed fault plan could still fire — a gated
        // scope interprets and counts a fallback instead.
        let replay_on =
            self.cfg.replay_memo && self.fault_plan.as_ref().is_none_or(|p| !p.could_disrupt());
        let replay_hits_before = self.replay.stats().0;
        let num_sms = self.cfg.num_sms as usize;
        let shape = (desc.grid_blocks, desc.threads_per_block);
        // Through a record, the blocks' statics are tallied into it (a miss,
        // or a sampled use to `check` against the spare) or charged (a hit).
        let (mut tally, mut charge, mut check) = (None, None, false);
        match record {
            Some(_) if !replay_on => self.replay.note_fallback(),
            Some(r) => {
                let hit = r.shape == Some(shape) && r.sm.len() == num_sms;
                self.replay.hits += u64::from(hit);
                self.replay.misses += u64::from(!hit);
                r.uses = (r.uses + 1) % VERIFY_SAMPLE;
                if hit && r.uses != 0 {
                    charge = Some(&*r);
                } else {
                    if hit {
                        std::mem::swap(&mut self.spare_record, r);
                    }
                    r.reset(shape, num_sms);
                    (tally, check) = (Some(r), hit);
                }
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
            block.replay_on = replay_on;
            block.trace_phases = tracing;
            (block.charged, block.tally) = (charge.is_some(), tally.as_deref_mut());
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
            // REPLAY instant: how many warp-trace scopes this launch served
            // from the replay memo (omitted when none did).
            let replayed = self.replay.stats().0 - replay_hits_before;
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
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_fault_plan(
            FaultPlan::new()
                .fail_alloc_at(&[1])
                .fail_h2d_at(&[1])
                .fail_d2h_at(&[0])
                .fail_kernel_at(&[0]),
        );
        // alloc #0 fine, #1 injected OOM, #2 fine again.
        assert!(gpu.try_alloc::<u32>(4).is_ok());
        match gpu.try_alloc::<u32>(4) {
            Err(DeviceFault::Oom { injected: true, .. }) => {}
            other => panic!("expected injected Oom, got {other:?}"),
        }
        let mut buf = gpu.try_alloc::<u32>(4).unwrap();
        // h2d #0 (upload counts as h2d) fine, #1 fails and leaves the
        // buffer untouched, #2 (the retry) succeeds.
        let _up = gpu.try_upload(&[9u32; 4]).unwrap();
        assert!(matches!(
            gpu.try_h2d(&mut buf, &[1, 2, 3, 4]),
            Err(DeviceFault::Copy {
                kind: FaultKind::H2d,
                op_index: 1
            })
        ));
        assert_eq!(buf.host(), &[0; 4], "failed copy transferred nothing");
        gpu.try_h2d(&mut buf, &[1, 2, 3, 4]).unwrap();
        assert_eq!(buf.host(), &[1, 2, 3, 4]);
        // d2h #0 fails, retry succeeds.
        assert!(gpu.try_download(&buf).is_err());
        assert_eq!(gpu.try_download(&buf).unwrap(), vec![1, 2, 3, 4]);
        // kernel #0 fails before running any block, retry runs.
        let desc = KernelDesc::new("probe", 1, 32);
        let mut ran = false;
        assert!(gpu.try_launch(&desc, |_| ran = true).is_err());
        assert!(!ran, "failed launch must not execute blocks");
        gpu.try_launch(&desc, |_| ran = true).unwrap();
        assert!(ran);
        let log = gpu.fault_plan().unwrap().injected();
        assert_eq!((log.alloc, log.h2d, log.d2h, log.kernel), (1, 1, 1, 1));
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
        assert!(gpu2.try_upload(&[1u32]).is_err(), "h2d #2 injected");
        assert!(gpu2.try_upload(&[1u32]).is_ok());
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

    #[test]
    fn replay_memo_is_invisible_to_outputs_counters_and_timing() {
        let run = |replay: bool| {
            let mut cfg = DeviceConfig::tiny_test();
            cfg.replay_memo = replay;
            let mut gpu = Gpu::new(cfg);
            let buf = gpu.upload(&(0..256u32).collect::<Vec<_>>());
            let mut dst = gpu.alloc::<u32>(256);
            let desc = KernelDesc::new("probe", 2, 128);
            let mut last = None;
            for _ in 0..4 {
                let stats = gpu.launch(&desc, |b| {
                    let base = b.id() as usize * 128;
                    for (start, mask) in warp_chunks(128) {
                        let col: [u32; WARP] =
                            std::array::from_fn(|l| ((start + l * 7) % 256) as u32);
                        b.warp_scope(&[1, start as u64, 0, 0], mask, &col);
                        let vals = b.gload(&buf, mask, |l| col[l] as usize);
                        b.gstore(&mut dst, mask, |l| base + start + l, |l| vals[l] + 1);
                        b.warp_scope_end();
                    }
                });
                last = Some(stats.counters);
            }
            (gpu.download(&dst), last.unwrap(), gpu.total_seconds())
        };
        assert_eq!(run(true), run(false), "replay must be bit-invisible");
    }

    #[test]
    fn fault_plan_gates_replay_to_fallbacks() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        gpu.set_fault_plan(FaultPlan::new().fail_kernel_at(&[100]));
        let desc = KernelDesc::new("probe", 1, 32);
        let col = [0u32; WARP];
        let body = |b: &mut Block<'_>| {
            b.warp_scope(&[9, 9, 9, 9], Mask::FULL, &col);
            b.exec(Mask::FULL, 1);
            b.warp_scope_end();
        };
        for _ in 0..3 {
            gpu.try_launch(&desc, body).unwrap();
        }
        // The outstanding scheduled fault keeps replay gated off.
        assert_eq!(gpu.replay_stats(), (0, 0, 3));
        // Plan removed: the same scope records once, then replays.
        gpu.take_fault_plan();
        for _ in 0..2 {
            gpu.launch(&desc, body);
        }
        assert_eq!(gpu.replay_stats(), (1, 1, 3));
    }

    /// Blocks that differ, two marked phases with statics in each, and a
    /// store in the second whose mask depends on `round`, like a value. A
    /// `lie` makes the statics cost change with the round too.
    fn two_phase(
        b: &mut Block<'_>,
        buf: &DevVec<u32>,
        out: &mut DevVec<u32>,
        round: u32,
        lie: bool,
    ) {
        let id = b.id() as usize;
        b.phase("load");
        b.statics(|b| {
            b.gload(buf, Mask::first(1 + id), |l| l * (id + 1));
            b.exec(Mask::FULL, id as u64 + u64::from(lie && round >= 10));
        });
        b.phase("store");
        b.statics(|b| b.exec(Mask::first(4), 2));
        let lanes = Mask::first(1 + (round as usize + id) % WARP);
        b.gstore(out, lanes, |l| id * WARP + l, |l| round + l as u32);
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
        lie: bool,
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
        // use past the sample: an honest record passes its check.
        let grids = [5; 2 + crate::replay::VERIFY_SAMPLE as usize];
        let mut record = LaunchRecord::default();
        let (charged, gpu, values) = two_phase_rounds(false, Some(&mut record), &grids, false);
        let (plain, reference, expected) = two_phase_rounds(false, None, &grids, false);
        assert_eq!(charged, plain, "counters, cycles and modeled seconds");
        assert_eq!(values, expected);
        assert_eq!(
            gpu.total_seconds().to_bits(),
            reference.total_seconds().to_bits()
        );
        let uses = grids.len() as u64 - 1;
        assert_eq!(gpu.replay_stats(), (uses, 1, 0));
        assert_eq!(gpu.replay_table().verify_failures(), 0);
        assert_eq!(gpu.replay_table().slots(), (0, 0), "a record takes no slot");
    }

    #[test]
    fn recorded_and_interpreted_launches_emit_identical_spans() {
        let grids = [5; 4];
        let spans = |record: Option<&mut LaunchRecord>| {
            let (_, gpu, _) = two_phase_rounds(true, record, &grids, false);
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
        let (charged, gpu, _) = two_phase_rounds(false, Some(&mut record), &grids, true);
        let (plain, _, _) = two_phase_rounds(false, None, &grids, true);
        assert_eq!(gpu.replay_table().verify_failures(), 1);
        let sampled = crate::replay::VERIFY_SAMPLE as usize;
        // Before the sample: round 0's cost, charged past round 10.
        assert_ne!(charged[sampled - 1], plain[sampled - 1]);
        // The sampled use interpreted, and the corrected record charges
        // what interpreting does.
        assert_eq!(charged[sampled..], plain[sampled..]);
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
                    })
                };
                gpu.try_launch_recorded(&desc, &mut record, body).unwrap();
            }
            assert_eq!(issued, 15, "every block of every launch interprets");
            assert_eq!(gpu.replay_stats(), (0, 0, 3), "one fallback a launch");
            assert_eq!(record, LaunchRecord::default(), "nothing recorded");
        }
    }

    #[test]
    fn a_launch_of_another_shape_re_records() {
        let grids = [4, 5, 5, 4];
        let mut record = LaunchRecord::default();
        let (charged, gpu, _) = two_phase_rounds(false, Some(&mut record), &grids, false);
        let (plain, _, _) = two_phase_rounds(false, None, &grids, false);
        assert_eq!(charged, plain);
        assert_eq!(
            gpu.replay_stats(),
            (1, 3, 0),
            "a miss at every change of shape"
        );
    }
}
