//! Multi-streamed out-of-core processing — the extension the paper's
//! Section 5.1 sketches: *"If graphs do not fit in the GPU RAM, a
//! multi-streamed procedure should be incorporated to overlap computation
//! and data transfer."*
//!
//! The scheme: `VertexValues` (and the convergence flag) stay resident on
//! the device; the per-entry shard arrays — the bulk of G-Shards/CW — are
//! split into **batches** of consecutive shards that fit a configurable
//! device-memory budget. Every iteration uploads each batch in turn,
//! processes its shards with the normal 4-stage kernel, copies the batch's
//! (possibly updated) `SrcValue` column back to the host master copy and
//! retires the batch, whose memory goes back to the device. Stage-4
//! write-backs that target a *non-resident* batch are applied to the host
//! master directly (the real implementation would buffer them in pinned
//! memory; either way they cross PCIe, and we charge them as such).
//!
//! With `streams >= 2`, batch `k+1`'s upload overlaps batch `k`'s kernel, so
//! an iteration's modeled time is the pipelined
//! `copy_0 + Σ max(kernel_k, copy_{k+1}) + kernel_last` instead of the
//! serial sum.
//!
//! That residency is `Mode::Streamed` of the one host loop,
//! `crate::multi::drive` — the mode a fleet device that cannot hold its
//! partition enters, too. This module is the façade that starts a fleet of
//! one in it: the configuration, the single-engine shape of the statistics,
//! and the degradation ladder, which needs a new layout per rung where
//! `drive` borrows one.
//!
//! # Fault tolerance
//!
//! The budgets below are data the façade passes; what happens inside them
//! happens in `drive` (see `DESIGN.md`, "Failure model & recovery"):
//!
//! * **Transient copy faults** (H2D/D2H) are retried in place with
//!   exponential backoff, 3 times per operation (`RetryPolicy::DEFAULT`, the
//!   one retry budget). A failed copy transferred nothing, so the retry
//!   re-issues the identical transfer.
//! * **Device OOM** — a batch's upload or the resident part's — halves
//!   [`StreamingConfig::resident_bytes`] in place and continues from the
//!   failing batch with more, smaller batches, up to `MAX_REBATCHES` (8)
//!   times; past that it is an error.
//! * **Kernel faults** are retried once per launch; past that the
//!   engine walks the degradation ladder CW → G-Shards → host fallback
//!   ([`crate::run_fallback`]), restarting from scratch on each rung.
//! * A **watchdog** (opt-in via `base.watchdog_interval`) snapshots the
//!   value vector periodically and flags livelock when a state recurs.
//!
//! A rung's restart is safe because every engine in the ladder computes the
//! same deterministic fixed point from scratch; the installed
//! [`cusha_simt::FaultPlan`] is carried across rungs (its operation
//! counters persist), so consumed one-shot faults do not re-fire. All
//! recovery activity is recorded in [`RunStats::fault`].

use crate::engine::{CuShaConfig, CuShaOutput, PreparedLayout, Repr, RunObserver};
use crate::error::EngineError;
use crate::fallback::run_fallback_after;
use crate::integrity::Stop;
use crate::kernel::{RetryPolicy, MAX_REBATCHES};
use crate::memsize::{check_streams, ValueSizes};
use crate::middleware::DeadlineObserver;
use crate::multi::{drive, FaultPolicy, Start};
use crate::program::VertexProgram;
use crate::stats::{FaultStats, MemoStats, SdcStats};
use cusha_graph::Graph;
use cusha_obs::trace::lanes;
use cusha_simt::{DeviceFleet, FaultPlan, Gpu, Profile};

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
}

impl StreamingConfig {
    /// Streams the given base configuration within `resident_bytes`,
    /// double-buffered.
    pub fn new(base: CuShaConfig, resident_bytes: u64) -> Self {
        StreamingConfig {
            base,
            resident_bytes,
            streams: 2,
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
/// elapsed clock accumulates across the ladder's rungs, so deadlines measure
/// the whole recovery trajectory, not just the final rung.
pub fn try_run_streamed_observed<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
    mut fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let (base, sizes) = (&cfg.base, ValueSizes::of::<P>());
    let n_per = PreparedLayout::select_n_per(graph, base, sizes.vertex);
    let v = graph.num_vertices() as u64;
    check_streams(v, 1, sizes, (base.repr, n_per), &base.device)?;

    // What the rungs share: the fault plan (its operation counters persist,
    // so consumed one-shot faults and fired bit flips never re-fire), the
    // recovery and SDC records with the budgets they count against, the
    // device clock — a deadline bounds the whole trajectory — and the memo
    // and launch-profile totals.
    let mut plan = fault_plan.as_deref().cloned();
    plan = plan.or_else(|| base.fault_plan.clone());
    let (mut fault, mut sdc) = (FaultStats::default(), SdcStats::default());
    let (mut memo, mut profile) = (MemoStats::default(), None::<Profile>);
    let mut elapsed = 0.0f64;
    let observer = &mut DeadlineObserver::new(base.deadline_seconds, observer);
    // The device starts out of core and, past its budgets, surfaces the fault:
    // the next rung needs a layout of its own, which this function builds.
    let policy = FaultPolicy::Surface(RetryPolicy::DEFAULT, MAX_REBATCHES);
    let start = Start::Streamed {
        budget: cfg.resident_bytes,
        streams: cfg.streams,
    };
    let ladder = [Repr::ConcatWindows, Repr::GShards];
    for repr in ladder.into_iter().skip_while(|&r| r != base.repr) {
        let layout = PreparedLayout::build(graph, repr, n_per);
        let mut gpu = Gpu::new(base.device.clone());
        gpu.set_tracer(base.trace.clone(), 0);
        gpu.set_profiling(base.profile);
        if let Some(p) = plan.take() {
            gpu.set_fault_plan(p);
        }
        let mut fleet = DeviceFleet::solo(gpu);
        let (label, shards) = (format!("{}-streamed", repr.label()), 0..layout.num_shards());
        let name = format!("{label}::{}", prog.name());
        let records = (
            std::slice::from_mut(&mut fault),
            std::slice::from_mut(&mut sdc),
        );
        let mut clock = Later(elapsed, &mut *observer);
        let result = drive(
            prog,
            graph,
            base,
            &layout,
            std::slice::from_ref(&shards),
            &mut fleet,
            policy,
            start,
            &name,
            records,
            &mut clock,
        );
        let gpu = fleet.device_mut(0);
        plan = gpu.take_fault_plan();
        if let (Some(slot), Some(p)) = (fault_plan.as_deref_mut(), plan.as_ref()) {
            *slot = p.clone();
        }
        let (rung_start, rung_end) = (elapsed, gpu.total_seconds());
        elapsed += rung_end;
        memo.add(&MemoStats::from_gpu(gpu));
        if let Some(p) = gpu.profile.take() {
            profile.get_or_insert_default().absorb(&p);
        }
        let instant = |cat: &'static str, name: &str| {
            base.trace.instant(0, lanes::FAULT, cat, name, rung_end);
        };
        match result {
            Ok((out, clocks)) => {
                // The single-engine shape of a streamed run: H2D is the
                // resident upload, compute the batch pipeline plus the PCIe
                // terms no device clock sees, D2H the values' one transfer.
                let (blocks, clock) = (out.stats.per_device[0].kernel.blocks, clocks[0]);
                let compute = clock.iteration_seconds + clock.host_transfer_seconds;
                let d2h = base.device.transfer_seconds(v * sizes.vertex as u64);
                let mut out = out.into_solo(label, blocks, compute, d2h);
                let stats = &mut out.stats;
                (stats.fault, stats.sdc, stats.memo, stats.profile) = (fault, sdc, memo, profile);
                return match stats.converged {
                    true => Ok(out),
                    false => Err(EngineError::NonConverged {
                        partial: Box::new(out),
                    }),
                };
            }
            // Detected corruption outlived the rollback and restart budgets.
            Err(Stop::Abandon) => {
                sdc.host_fallbacks += 1;
                instant("sdc", "host-fallback");
                break;
            }
            // The next rung's kernels are a different code path (and, under
            // injection, a different name pattern); the last one is the host.
            Err(Stop::Error(EngineError::KernelFault { .. })) => {
                fault.degradations += 1;
                instant(
                    "fault",
                    match repr {
                        Repr::ConcatWindows => "degrade-to-gshards",
                        Repr::GShards => "degrade-to-host",
                    },
                );
            }
            Err(Stop::Error(EngineError::Deadline {
                iterations,
                elapsed_seconds,
            })) => {
                return Err(EngineError::Deadline {
                    iterations,
                    elapsed_seconds: rung_start + elapsed_seconds,
                })
            }
            // Rebatches spent, a copy fault past its retries or the watchdog:
            // nothing left to try.
            Err(Stop::Error(e)) => return Err(e),
        }
    }
    run_fallback_after(prog, graph, base, fault, sdc, profile)
}

/// An observer whose clock started `.0` modeled seconds before the rung it
/// watches did.
struct Later<'a, O: ?Sized>(f64, &'a mut O);

impl<O: RunObserver + ?Sized> RunObserver for Later<'_, O> {
    fn on_iteration(&mut self, iteration: u32, updated: u64, elapsed_seconds: f64) -> bool {
        self.1
            .on_iteration(iteration, updated, self.0 + elapsed_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::kernel::batch_end;
    use crate::program::testing::MiniSssp;
    use crate::shards::GShards;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Edge;

    /// All shards, cut where [`batch_end`] — the streamed mode's planner —
    /// cuts them under `budget`.
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
