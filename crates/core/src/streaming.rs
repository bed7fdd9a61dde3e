//! Multi-streamed out-of-core processing — the extension the paper's
//! Section 5.1 sketches: *"If graphs do not fit in the GPU RAM, a
//! multi-streamed procedure should be incorporated to overlap computation
//! and data transfer."*
//!
//! The scheme: `VertexValues` (and the convergence flag) stay resident on
//! the device; the per-entry shard arrays — the bulk of G-Shards/CW — are
//! split into **batches** of consecutive shards that fit a configurable
//! device-memory budget. Every iteration uploads each batch in turn,
//! processes its shards with the normal 4-stage kernel, and copies the
//! batch's (possibly updated) `SrcValue` column back to the host master
//! copy. Stage-4 write-backs that target a *non-resident* batch are
//! applied to the host master directly (the real implementation would
//! buffer them in pinned memory; either way they cross PCIe, and we charge
//! them to the device-to-host budget).
//!
//! With `streams >= 2`, batch `k+1`'s upload overlaps batch `k`'s kernel, so
//! an iteration's modeled time is the pipelined
//! `copy_0 + Σ max(kernel_k, copy_{k+1}) + kernel_last` instead of the
//! serial sum.
//!
//! # Fault tolerance
//!
//! Because it owns the batching loop, the streamed engine is also where
//! recovery lives (see `DESIGN.md`, "Failure model & recovery"):
//!
//! * **Transient copy faults** (H2D/D2H) are retried in place with
//!   exponential backoff, up to [`StreamingConfig::max_copy_retries`] per
//!   operation. A failed copy transferred nothing, so the retry re-issues
//!   the identical transfer.
//! * **Device OOM** halves [`StreamingConfig::resident_bytes`] and restarts
//!   the computation from scratch with more, smaller batches — up to
//!   [`StreamingConfig::max_rebatches`] times.
//! * **Kernel faults** are retried up to
//!   [`StreamingConfig::max_kernel_retries`] per launch; past that the
//!   engine walks the degradation ladder CW → G-Shards → host fallback
//!   ([`crate::run_fallback`]), restarting from scratch on each rung.
//! * A **watchdog** (opt-in via `base.watchdog_interval`) snapshots the
//!   value vector periodically and flags livelock when a state recurs.
//!
//! Restarts are safe because every engine in the ladder computes the same
//! deterministic fixed point from scratch; the installed
//! [`cusha_simt::FaultPlan`] is carried across restarts (its operation
//! counters persist), so consumed one-shot faults do not re-fire. All
//! recovery activity is recorded in [`RunStats::fault`].

use crate::engine::{trace_iteration, CuShaConfig, CuShaOutput, PreparedLayout, Repr, RunObserver};
use crate::error::EngineError;
use crate::fallback::run_fallback_after;
use crate::integrity::{apply_flips, checksum, Ask, Detector, Recovery, Rung, Stop};
use crate::kernel::{
    batch_end, fault_instant, with_copy_retries, DeviceSlice, HostArrays, HostMaster, Resident,
    RetryPolicy, SpillVia,
};
use crate::memsize::{entry_bytes, ValueSizes};
use crate::middleware::DeadlineObserver;
use crate::program::VertexProgram;
use crate::shards::GShards;
use crate::stats::{FaultStats, IterationStat, RunStats, SdcStats};
use cusha_graph::Graph;
use cusha_obs::trace::{lanes, ArgVal};
use cusha_simt::{FaultPlan, Gpu, Pod};

/// Configuration of the streamed engine.
#[derive(Clone, Debug)]
pub struct StreamingConfig {
    /// Base engine configuration (representation, shard size, device...).
    pub base: CuShaConfig,
    /// Device-memory budget for the per-entry shard arrays, in bytes.
    /// Batches are the longest runs of consecutive shards fitting it.
    pub resident_bytes: u64,
    /// Number of copy/compute streams; `>= 2` overlaps uploads with
    /// kernels, `1` serializes them.
    pub streams: u32,
    /// Transient-copy-fault retries allowed per operation before the fault
    /// is considered permanent.
    pub max_copy_retries: u32,
    /// First retry's backoff in seconds; doubles per subsequent retry of
    /// the same operation. Recorded in [`FaultStats::backoff_seconds`].
    pub backoff_base_seconds: f64,
    /// In-place re-launches allowed per kernel fault before the engine
    /// degrades to the next representation.
    pub max_kernel_retries: u32,
    /// Halve-and-restart cycles allowed on device OOM before giving up.
    pub max_rebatches: u32,
}

impl StreamingConfig {
    /// Streams the given base configuration within `resident_bytes`,
    /// double-buffered, with default recovery limits (3 copy retries,
    /// 1 ms base backoff, 1 kernel retry, 8 rebatches).
    pub fn new(base: CuShaConfig, resident_bytes: u64) -> Self {
        StreamingConfig {
            base,
            resident_bytes,
            streams: 2,
            max_copy_retries: 3,
            backoff_base_seconds: 1e-3,
            max_kernel_retries: 1,
            max_rebatches: 8,
        }
    }

    /// Checks the streaming-specific invariants on top of
    /// [`CuShaConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.streams == 0 {
            return Err("streams must be at least 1".into());
        }
        if self.resident_bytes == 0 {
            return Err("resident_bytes must be nonzero".into());
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

/// Splits all shards into the batches [`batch_end`] delimits under `budget`.
fn plan_batches(gs: &GShards, per_entry: u64, budget: u64) -> Vec<std::ops::Range<u32>> {
    let mut batches = Vec::new();
    let mut start = 0u32;
    while start < gs.num_shards() {
        let end = batch_end(gs, per_entry, budget, start, gs.num_shards());
        batches.push(start..end);
        start = end;
    }
    batches
}

/// Executes `prog` over `graph` with the streamed engine.
///
/// # Panics
/// Panics on invalid configuration/graph and on unrecovered device faults.
/// A run that merely hits the iteration cap returns its partial output
/// (`stats.converged == false`), the historical behavior. Fallible callers
/// use [`try_run_streamed`].
pub fn run_streamed<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
) -> CuShaOutput<P::V> {
    match try_run_streamed(prog, graph, cfg) {
        Ok(out) => out,
        Err(EngineError::NonConverged { partial }) => *partial,
        Err(e) => panic!("{e}"),
    }
}

/// Executes `prog` over `graph` with the streamed engine, recovering from
/// injected or genuine device faults as described in the module docs and
/// returning unrecoverable failures as [`EngineError`]s. Recovery activity
/// is recorded in the output's [`RunStats::fault`].
pub fn try_run_streamed<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    try_run_streamed_observed(prog, graph, cfg, None, &mut crate::engine::NoopObserver)
}

/// [`try_run_streamed`] with the resident-caller extras of
/// [`try_run_warm`](crate::try_run_warm): a caller-owned [`FaultPlan`]
/// (installed in place of `cfg.base.fault_plan`, advanced state written
/// back on every exit) and an iteration-boundary observer. The observer's
/// elapsed clock accumulates across the engine's internal restarts
/// (rebatches, degradations), so deadlines measure the whole recovery
/// trajectory, not just the final attempt.
pub fn try_run_streamed_observed<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
    mut fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let observer = &mut DeadlineObserver::new(cfg.base.deadline_seconds, observer);

    let mut fault = FaultStats::default();
    let mut sdc = SdcStats::default();
    let mut plan = fault_plan
        .as_deref()
        .cloned()
        .or_else(|| cfg.base.fault_plan.clone());
    // Flips fired so far: a carried plan arrives with earlier runs' recorded.
    let flips_fired = |plan: Option<&FaultPlan>| plan.map_or(0, |p| p.injected().bit_flips);
    let flips_baseline = flips_fired(plan.as_ref());
    let mut resident = cfg.resident_bytes;
    let mut repr = cfg.base.repr;
    let mut elapsed_base = 0.0f64;
    // Per-launch profile history accumulated across restarts/rebatches, so
    // the streamed engine reports through `--profile` like every other.
    let mut run_profile: Option<cusha_simt::Profile> = None;

    loop {
        let mut gpu = Gpu::new(cfg.base.device.clone());
        gpu.set_tracer(cfg.base.trace.clone(), 0);
        gpu.set_profiling(cfg.base.profile);
        if let Some(p) = plan.take() {
            gpu.set_fault_plan(p);
        }
        let result = stream_attempt(
            prog,
            graph,
            cfg,
            repr,
            resident,
            &mut gpu,
            &mut fault,
            &mut sdc,
            observer,
            elapsed_base,
        );
        // The plan's operation counters persist across restarts, so
        // consumed one-shot faults (and fired bit flips) never re-fire.
        plan = gpu.take_fault_plan();
        if let (Some(slot), Some(p)) = (fault_plan.as_deref_mut(), plan.as_ref()) {
            *slot = p.clone();
        }
        sdc.flips_injected = flips_fired(plan.as_ref()) - flips_baseline;
        let attempt_end = gpu.total_seconds();
        elapsed_base += attempt_end;
        let attempt_memo = crate::stats::MemoStats::from_gpu(&gpu);
        if let Some(p) = gpu.profile.take() {
            run_profile
                .get_or_insert_with(cusha_simt::Profile::default)
                .absorb(&p);
        }
        drop(gpu);
        let instant = |cat: &'static str, name: &str| {
            cfg.base
                .trace
                .instant(0, lanes::FAULT, cat, name, attempt_end);
        };

        match result {
            Ok(mut out) => {
                out.stats.fault = fault;
                out.stats.sdc = sdc;
                out.stats.memo.add(&attempt_memo);
                out.stats.profile = run_profile.take();
                return if out.stats.converged {
                    Ok(out)
                } else {
                    Err(EngineError::NonConverged {
                        partial: Box::new(out),
                    })
                };
            }
            // Detected corruption outlived the rollback and restart budgets.
            Err(Stop::Abandon(_)) => {
                sdc.host_fallbacks += 1;
                instant("sdc", "host-fallback");
                return run_fallback_after(prog, graph, &cfg.base, fault, sdc, run_profile);
            }
            Err(Stop::Error(EngineError::DeviceOom { .. }))
                if fault.oom_rebatches < cfg.max_rebatches =>
            {
                fault.oom_rebatches += 1;
                resident = (resident / 2).max(1);
                instant("fault", "oom-rebatch");
            }
            Err(Stop::Error(EngineError::KernelFault { .. })) => {
                fault.degradations += 1;
                match repr {
                    // First rung: fall back to G-Shards, whose kernels are
                    // a different code path (and, under injection, a
                    // different name pattern).
                    Repr::ConcatWindows => {
                        repr = Repr::GShards;
                        instant("fault", "degrade-to-gshards");
                    }
                    Repr::GShards => {
                        instant("fault", "degrade-to-host");
                        return run_fallback_after(prog, graph, &cfg.base, fault, sdc, run_profile);
                    }
                }
            }
            // Rebatches spent, a copy fault past its retries, the watchdog
            // or a deadline: nothing left to try.
            Err(Stop::Error(e)) => return Err(e),
        }
    }
}

/// One from-scratch pass of the streamed convergence loop with the given
/// representation and residency budget. Copy faults and (up to the cap)
/// kernel faults are retried inside; OOM, persistent kernel faults and
/// exhausted SDC-recovery budgets bubble up for the caller's
/// coarser-grained recovery.
#[allow(clippy::too_many_arguments)]
fn stream_attempt<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
    repr: Repr,
    resident_bytes: u64,
    gpu: &mut Gpu,
    fault: &mut FaultStats,
    sdc: &mut SdcStats,
    observer: &mut O,
    elapsed_base: f64,
) -> Result<CuShaOutput<P::V>, Stop<P::V>> {
    let base = &cfg.base;
    let retry = cfg.retry();
    let n_per = PreparedLayout::select_n_per(graph, base, <P::V as Pod>::SIZE);
    let layout = PreparedLayout::build(graph, repr, n_per);
    let gs = layout.gs();

    // Host master copies: `host.src_value` is the authoritative `SrcValue`
    // column between batches; `host.values` stays the initial state.
    let mut host = HostArrays::new(prog, graph, gs);

    // Resident state: vertex values + convergence flag.
    let mut res = Resident {
        vertex_values: with_copy_retries(gpu, &retry, fault, |g| g.try_upload(&host.values))?,
        voff: 0,
        flag: with_copy_retries(gpu, &retry, fault, |g| g.try_upload(&[1u32]))?,
    };
    let h2d_resident = gpu.h2d_seconds;

    let batches = plan_batches(gs, entry_bytes(ValueSizes::of::<P>(), repr), resident_bytes);
    let kernel_name: std::sync::Arc<str> =
        format!("{}-streamed::{}", repr.label(), prog.name()).into();

    let mut total = RunStats {
        engine: format!("{}-streamed", repr.label()),
        ..Default::default()
    };
    let mut kernel_seconds_pipelined = 0.0f64;
    let mut extra_transfer_seconds = 0.0f64;
    let mut converged = false;

    // ---- SDC defense state ------------------------------------------------
    // The resident `VertexValues` is scrubbed against the checksum recorded
    // after the previous launch; each batch's freshly-uploaded `SrcValue`
    // is scrubbed against its trusted host-master slice. A checkpoint is a
    // downloaded value vector plus a clone of the master `SrcValue` column
    // (the host side is authoritative between batches).
    let integ = &base.integrity;
    let mut recovery = Recovery::new(base, sdc, &host.values, &host.src_value);
    let mut vv_crc = recovery.latest().values_crc;
    // The device (and the host master beside it) as `Recovery` drives it.
    macro_rules! device {
        () => {
            |ask: Ask<'_, P::V>| {
                match ask {
                    Ask::Restore(cp) => {
                        with_copy_retries(gpu, &retry, fault, |g| {
                            g.try_h2d(&mut res.vertex_values, &cp.values)
                        })?;
                        host.src_value.copy_from_slice(&cp.src_value);
                        vv_crc = cp.values_crc;
                    }
                    Ask::Snapshot(values, src_value) => {
                        *values = with_copy_retries(gpu, &retry, fault, |g| {
                            g.try_download(&res.vertex_values)
                        })?;
                        if let Some(src_value) = src_value {
                            src_value.clone_from(&host.src_value);
                        }
                    }
                    Ask::Mark(name) => fault_instant(gpu, "sdc", name),
                }
                Ok(())
            }
        };
    }
    // One rung of the recovery ladder. Spent budgets end the attempt: the
    // caller abandons the device for the host fallback.
    macro_rules! recover {
        ($detector:expr) => {{
            let spent = (sdc.rollbacks, sdc.full_restarts);
            let (iterations, detail) = (&mut total.iterations, &mut total.per_iteration);
            let rung = recovery.step($detector, sdc, spent, iterations, detail, device!())?;
            if let Rung::Exhausted = rung {
                return Err(Stop::Abandon(*sdc));
            }
        }};
    }

    'iter: while total.iterations < base.max_iterations {
        let iter_ts = gpu.total_seconds();
        res.reset_flag(gpu, &retry, fault)?;
        extra_transfer_seconds += base.device.transfer_seconds(4);
        let mut updated_this_iter = 0u64;
        let mut copy_times = Vec::with_capacity(batches.len());
        let mut kernel_times = Vec::with_capacity(batches.len());

        for (batch_index, batch) in batches.iter().enumerate() {
            let batch_ts = gpu.total_seconds();

            // ---- Upload the batch (tracked separately for pipelining). ----
            let h2d_before = gpu.h2d_seconds;
            let mut slice = DeviceSlice::upload(
                gpu,
                &retry,
                fault,
                &layout,
                &host,
                batch.clone(),
                SpillVia::Host,
            )?;
            copy_times.push(gpu.h2d_seconds - h2d_before);

            // Flip point: silent bit flips land while the batch sits in
            // device DRAM, and the scrubber verifies both protected buffers
            // before the kernel consumes them. The batch `SrcValue` was
            // uploaded from the trusted host master, so the master slice's
            // checksum is its reference.
            let flips = gpu.take_due_bit_flips();
            if !flips.is_empty() {
                apply_flips(&flips, &mut res.vertex_values, &mut slice.src_value);
            }
            if integ.mode.checksums()
                && (checksum(res.vertex_values.host()) != vv_crc
                    || checksum(slice.src_value.host())
                        != checksum(&host.src_value[slice.erange.clone()]))
            {
                recover!(Detector::Checksum);
                continue 'iter;
            }

            // ---- Process the batch's shards. Stage-4 writes to resident
            // targets are device stores; the rest land in the host master
            // (the real implementation would buffer them in pinned memory;
            // either way they cross PCIe, counted in `host_writes`). -------
            let mut host_writes = 0u64;
            let master = HostMaster {
                src_value: &mut host.src_value,
                bytes: &mut host_writes,
            };
            let (kstats, updated) = slice.launch(
                gpu,
                &kernel_name,
                base.threads_per_block,
                prog,
                &layout,
                &mut res,
                Some(master),
                &retry,
                fault,
            )?;
            updated_this_iter += updated;
            kernel_times.push(kstats.seconds);
            // The launch legitimately rewrote the resident values; record
            // the state the next scrub pass must find untouched.
            if integ.mode.checksums() {
                vv_crc = checksum(res.vertex_values.host());
            }
            total.kernel.counters.add(&kstats.counters);
            total.kernel.blocks += kstats.blocks;
            total.kernel.threads_per_block = kstats.threads_per_block;

            // ---- Write the batch's SrcValue back to the host master. ------
            let batch_values =
                with_copy_retries(gpu, &retry, fault, |g| g.try_download(&slice.src_value))?;
            host.src_value[slice.erange.clone()].copy_from_slice(&batch_values);
            extra_transfer_seconds += base.device.transfer_seconds(host_writes);
            let shards = batch.len() as u64;
            gpu.tracer().complete_with(
                gpu.trace_pid(),
                lanes::ENGINE,
                "engine",
                "batch",
                batch_ts,
                gpu.total_seconds() - batch_ts,
                || {
                    vec![
                        ("batch", ArgVal::U64(batch_index as u64)),
                        ("shards", ArgVal::U64(shards)),
                    ]
                },
            );
        }

        // Pipelined iteration time: with >= 2 streams, copy k+1 overlaps
        // kernel k.
        let iter_seconds = if cfg.streams >= 2 {
            let mut t = copy_times[0];
            for (k, &kernel) in kernel_times.iter().enumerate() {
                let next_copy = copy_times.get(k + 1).copied().unwrap_or(0.0);
                t += kernel.max(next_copy);
            }
            t
        } else {
            copy_times.iter().sum::<f64>() + kernel_times.iter().sum::<f64>()
        };
        kernel_seconds_pipelined += iter_seconds;
        total.iterations += 1;
        total.per_iteration.push(IterationStat {
            seconds: iter_seconds,
            updated_vertices: updated_this_iter,
        });
        let flag = res.read_flag(gpu, &retry, fault)?;
        trace_iteration(
            gpu.tracer(),
            gpu.trace_pid(),
            iter_ts,
            gpu.total_seconds() - iter_ts,
            total.iterations,
            updated_this_iter,
        );
        if flag == 1 {
            converged = true;
            break;
        }
        // Iteration boundary (the in-flight batch has completed). The
        // elapsed clock spans the engine's earlier restarts, so a deadline
        // bounds the whole recovery trajectory.
        let (iterations, elapsed) = (total.iterations, elapsed_base + gpu.total_seconds());
        let (updated, dev) = (updated_this_iter, device!());
        if recovery.boundary(observer, prog, sdc, iterations, updated, elapsed, dev)? {
            recover!(Detector::Invariant);
        }
    }

    let values = with_copy_retries(gpu, &retry, fault, |g| g.try_download(&res.vertex_values))?;
    recovery.finish(device!())?;
    total.converged = converged;
    total.kernel.name = kernel_name;
    total.h2d_seconds = h2d_resident;
    total.compute_seconds = kernel_seconds_pipelined + extra_transfer_seconds;
    total.d2h_seconds = base
        .device
        .transfer_seconds(graph.num_vertices() as u64 * <P::V as Pod>::SIZE as u64);
    Ok(CuShaOutput {
        values,
        stats: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::program::testing::MiniSssp;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Edge;

    fn tiny_budget(gs_like_edges: u64) -> u64 {
        // Force several batches: room for roughly a third of the entries.
        (gs_like_edges * 16 / 3).max(256)
    }

    #[test]
    fn streamed_matches_in_core_gs() {
        let g = rmat(&RmatConfig::graph500(8, 1500, 90));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::gs().with_vertices_per_shard(16);
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(
            &prog,
            &g,
            &StreamingConfig::new(base.clone(), tiny_budget(1500)),
        );
        assert!(streamed.stats.converged);
        assert!(streamed.stats.fault.is_clean());
        assert_eq!(streamed.values, in_core.values);
    }

    #[test]
    fn streamed_matches_in_core_cw() {
        let g = rmat(&RmatConfig::graph500(8, 1500, 91));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::cw().with_vertices_per_shard(16);
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(
            &prog,
            &g,
            &StreamingConfig::new(base.clone(), tiny_budget(1500)),
        );
        assert!(streamed.stats.converged);
        assert_eq!(streamed.values, in_core.values);
    }

    #[test]
    fn batches_respect_budget_where_possible() {
        let g = rmat(&RmatConfig::graph500(8, 2000, 92));
        let gs = GShards::from_graph(&g, 16);
        let per_entry = 16u64;
        let budget = 2000 * per_entry / 4;
        let batches = plan_batches(&gs, per_entry, budget);
        assert!(batches.len() >= 3, "expected several batches");
        // Batches tile the shard range exactly.
        assert_eq!(batches[0].start, 0);
        assert_eq!(batches.last().unwrap().end, gs.num_shards());
        for w in batches.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Multi-shard batches fit the budget.
        for b in &batches {
            let bytes: u64 = b
                .clone()
                .map(|s| gs.shard_entries(s).len() as u64 * per_entry)
                .sum();
            if b.len() > 1 {
                assert!(bytes <= budget);
            }
        }
    }

    #[test]
    fn single_batch_degenerates_to_in_core_behaviour() {
        let g = rmat(&RmatConfig::graph500(7, 700, 93));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(&prog, &g, &StreamingConfig::new(base, u64::MAX));
        assert_eq!(streamed.values, in_core.values);
        assert_eq!(streamed.stats.iterations, in_core.stats.iterations);
    }

    #[test]
    fn overlap_beats_serial_streams() {
        let g = rmat(&RmatConfig::graph500(9, 6000, 94));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let mut cfg = StreamingConfig::new(base, tiny_budget(6000));
        cfg.streams = 2;
        let overlapped = run_streamed(&prog, &g, &cfg);
        cfg.streams = 1;
        let serial = run_streamed(&prog, &g, &cfg);
        assert_eq!(overlapped.values, serial.values);
        assert!(
            overlapped.stats.compute_seconds < serial.stats.compute_seconds,
            "overlap {} !< serial {}",
            overlapped.stats.compute_seconds,
            serial.stats.compute_seconds
        );
    }

    #[test]
    fn works_on_a_chain_crossing_batches() {
        let g = cusha_graph::Graph::new(120, (0..119).map(|v| Edge::new(v, v + 1, 1)).collect());
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::gs().with_vertices_per_shard(8);
        let streamed = run_streamed(&prog, &g, &StreamingConfig::new(base, 1024));
        for (v, &d) in streamed.values.iter().enumerate() {
            assert_eq!(d, v as u32);
        }
    }

    #[test]
    fn zero_streams_is_an_invalid_config() {
        let g = Graph::empty(4);
        let mut cfg = StreamingConfig::new(CuShaConfig::gs(), 1024);
        cfg.streams = 0;
        assert!(matches!(
            try_run_streamed(&MiniSssp { source: 0 }, &g, &cfg),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
