//! Engine middleware: one wrapper for every engine.
//!
//! Historically each engine re-wired the cross-cutting machinery itself —
//! deadline enforcement only reached [`try_run_warm`](crate::try_run_warm),
//! the streamed engine had its own copy-retry loop, the baselines had
//! nothing. This module centralizes the stack: implement [`Engine`] (a thin
//! adapter around an engine's entry point) and [`run_engine`] provides, in
//! one code path,
//!
//! * configuration and graph validation,
//! * deadline enforcement and observer cancellation ([`DeadlineObserver`]
//!   wraps the caller's [`RunObserver`], so `--timeout-ms` works on any
//!   engine whose loop calls the observer once per iteration),
//! * transient-fault retry with modeled exponential backoff for engines
//!   without an internal recovery ladder (the middleware owns the
//!   [`FaultPlan`] across attempts, so consumed one-shot faults never
//!   re-fire on a retry),
//! * a final invariant scrub under `IntegrityMode::{Invariant, Full}`: a
//!   result violating the program's invariant against the initial state is
//!   re-run once and then escalated to the host fallback — the same
//!   detection → restart → fallback ladder the shard engines run
//!   internally, applied as a last line of defense for engines without one.
//!
//! The adapters for the in-core engines live here ([`ShardEngine`],
//! [`StreamedEngine`], [`FleetEngine`]); the baselines and the frontier
//! engine implement [`Engine`] in their own crates.

use crate::engine::{try_run_warm, CuShaConfig, CuShaOutput, PreparedLayout, Repr, RunObserver};
use crate::error::EngineError;
use crate::fallback::run_fallback;
use crate::kernel::RetryPolicy;
use crate::multi::{try_run_multi_observed, MultiConfig, MultiRunStats};
use crate::program::VertexProgram;
use crate::stats::FaultStats;
use crate::streaming::{try_run_streamed_observed, StreamingConfig};
use cusha_graph::Graph;
use cusha_simt::{FaultPlan, Interconnect};

/// Per-attempt context the middleware hands an engine: the effective
/// configuration, the (middleware-owned) fault plan to install on the
/// device, and the observer to call at every iteration boundary.
pub struct EngineCtx<'a> {
    /// Effective configuration. `cfg.fault_plan` is always `None` here —
    /// the plan travels through [`EngineCtx::fault_plan`] so the middleware
    /// keeps ownership across retries.
    pub cfg: &'a CuShaConfig,
    /// Fault plan to install on the device for this attempt (device 0 of a
    /// fleet). Every engine writes the advanced plan back through this slot
    /// on every exit, so a retry never re-fires what an attempt consumed.
    pub fault_plan: Option<&'a mut FaultPlan>,
    /// Iteration-boundary hook. Engines must call it after every
    /// non-converged iteration and translate a `false` return into
    /// [`EngineError::Deadline`] — that is the contract that makes deadline
    /// enforcement engine-agnostic.
    pub observer: &'a mut dyn RunObserver,
}

/// An executor the middleware can drive: one adapter per engine family.
///
/// Implementations are thin — they map the generic [`EngineCtx`] onto the
/// engine's native entry point and config type. All cross-cutting behavior
/// (validation, deadlines, retry, the final integrity scrub) belongs to
/// [`run_engine`], not to implementations.
pub trait Engine<P: VertexProgram> {
    /// Report label ("CuSha-GS", "Frontier", "VWC-CSR/8", ...).
    fn label(&self) -> String;

    /// Whether the engine runs its own fault-recovery ladder (retries,
    /// rebatching, degradation). When `true` the middleware does not retry
    /// transient faults — an error surfacing from such an engine is already
    /// past recovery.
    fn recovers_faults(&self) -> bool {
        false
    }

    /// Fleet-level statistics of the latest successful run, for engines that
    /// run on more than one device.
    fn fleet_stats(&self) -> Option<&MultiRunStats> {
        None
    }

    /// Runs the program to convergence (or error) under `ctx`.
    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>>;
}

/// Observer wrapper enforcing [`CuShaConfig::deadline_seconds`] for any
/// engine that honors the observer contract: it cancels (returns `false`)
/// at the first iteration boundary whose elapsed clock meets the deadline,
/// and otherwise defers to the inner observer.
pub struct DeadlineObserver<'a, O: RunObserver + ?Sized = dyn RunObserver> {
    deadline: Option<f64>,
    inner: &'a mut O,
}

impl<'a, O: RunObserver + ?Sized> DeadlineObserver<'a, O> {
    /// Wraps `inner`, cancelling once `elapsed >= deadline`.
    pub fn new(deadline: Option<f64>, inner: &'a mut O) -> Self {
        DeadlineObserver { deadline, inner }
    }
}

impl<O: RunObserver + ?Sized> RunObserver for DeadlineObserver<'_, O> {
    fn on_iteration(&mut self, iteration: u32, updated: u64, elapsed_seconds: f64) -> bool {
        if let Some(d) = self.deadline {
            if elapsed_seconds >= d {
                return false;
            }
        }
        self.inner.on_iteration(iteration, updated, elapsed_seconds)
    }
}

/// Runs `prog` over `graph` on `engine` under the full middleware stack.
///
/// `fault_plan` (or, if `None`, `cfg.fault_plan`) is owned by the
/// middleware for the whole call: each attempt hands the engine the plan's
/// current state, so faults consumed by a failed attempt are not re-fired
/// by its retry. The observer is wrapped in a [`DeadlineObserver`], making
/// `cfg.deadline_seconds` effective on every engine.
pub fn run_engine<P: VertexProgram, O: RunObserver + ?Sized>(
    engine: &mut dyn Engine<P>,
    prog: &P,
    graph: &Graph,
    cfg: &CuShaConfig,
    fault_plan: Option<FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let mut plan = fault_plan.or_else(|| cfg.fault_plan.clone());
    let mut cfg = cfg.clone();
    cfg.fault_plan = None;

    // An engine without a ladder of its own is granted the one retry budget
    // around whole attempts; the backoff doubles per copy retry.
    let budget = if engine.recovers_faults() {
        RetryPolicy::NONE
    } else {
        RetryPolicy::DEFAULT
    };
    let (mut copy_left, mut kernel_left, mut backoff) = budget.counts();
    let mut restarts_left: u32 = cfg.integrity.max_full_restarts;
    let mut mw_fault = FaultStats::default();
    let mut mw_detections: u32 = 0;
    let mut mw_restarts: u32 = 0;

    // Rest state for the final invariant scrub, built when the first result
    // arrives: only integrity modes that check invariants pay for it, and an
    // engine that refuses the graph (its pre-flight) has refused by then.
    let mut init: Option<Vec<P::V>> = None;

    loop {
        let mut dl = DeadlineObserver::new(cfg.deadline_seconds, observer);
        let ctx = EngineCtx {
            cfg: &cfg,
            fault_plan: plan.as_mut(),
            observer: &mut dl,
        };
        match engine.execute(prog, graph, ctx) {
            Ok(mut out) => {
                if cfg.integrity.mode.invariants() {
                    let rest = || (0..graph.num_vertices()).map(|v| prog.initial_value(v));
                    let init = init.get_or_insert_with(|| rest().collect());
                    if prog.check_invariant(init, &out.values).is_err() {
                        mw_detections += 1;
                        cfg.trace.instant(
                            0,
                            cusha_obs::trace::lanes::FAULT,
                            "sdc",
                            "final-scrub",
                            out.stats.total_seconds(),
                        );
                        if restarts_left > 0 {
                            restarts_left -= 1;
                            mw_restarts += 1;
                            continue;
                        }
                        // Ladder exhausted: the host fallback's memory is
                        // outside the device flip model, so its result is
                        // trusted (same bottom rung as the shard engines).
                        out = run_fallback(prog, graph, &cfg)?;
                        out.stats.sdc.host_fallbacks += 1;
                    }
                }
                out.stats.sdc.invariant_detections += mw_detections;
                out.stats.sdc.full_restarts += mw_restarts;
                out.stats.fault.copy_retries += mw_fault.copy_retries;
                out.stats.fault.kernel_retries += mw_fault.kernel_retries;
                out.stats.fault.backoff_seconds += mw_fault.backoff_seconds;
                return Ok(out);
            }
            Err(EngineError::CopyFault { .. }) if copy_left > 0 => {
                copy_left -= 1;
                mw_fault.copy_retries += 1;
                mw_fault.backoff_seconds += backoff;
                backoff *= 2.0;
            }
            Err(EngineError::KernelFault { .. }) if kernel_left > 0 => {
                kernel_left -= 1;
                mw_fault.kernel_retries += 1;
            }
            Err(EngineError::NonConverged { mut partial }) => {
                partial.stats.fault.copy_retries += mw_fault.copy_retries;
                partial.stats.fault.kernel_retries += mw_fault.kernel_retries;
                partial.stats.fault.backoff_seconds += mw_fault.backoff_seconds;
                return Err(EngineError::NonConverged { partial });
            }
            Err(e) => return Err(e),
        }
    }
}

/// Adapter for the in-core shard engines (CuSha-GS / CuSha-CW): builds the
/// layout per call and enters [`try_run_warm`].
pub struct ShardEngine {
    repr: Repr,
}

impl ShardEngine {
    /// Adapter for the given representation.
    pub fn new(repr: Repr) -> Self {
        ShardEngine { repr }
    }
}

impl<P: VertexProgram> Engine<P> for ShardEngine {
    fn label(&self) -> String {
        self.repr.label().into()
    }

    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        let mut cfg = ctx.cfg.clone();
        cfg.repr = self.repr;
        let layout = PreparedLayout::for_program::<P>(graph, &cfg)?;
        try_run_warm(prog, graph, &layout, &cfg, ctx.fault_plan, ctx.observer)
    }
}

/// Adapter for the streamed engine. Recovery (copy retry, OOM rebatch,
/// representation degradation) stays internal; the middleware adds
/// validation, deadlines, and the final scrub on top.
pub struct StreamedEngine {
    /// Device-memory budget for the resident shard window, in bytes.
    pub resident_bytes: u64,
}

impl StreamedEngine {
    /// Streams within the given residency budget.
    pub fn new(resident_bytes: u64) -> Self {
        StreamedEngine { resident_bytes }
    }
}

impl<P: VertexProgram> Engine<P> for StreamedEngine {
    fn label(&self) -> String {
        "CuSha-streamed".into()
    }

    fn recovers_faults(&self) -> bool {
        true
    }

    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        let scfg = StreamingConfig::new(ctx.cfg.clone(), self.resident_bytes);
        try_run_streamed_observed(prog, graph, &scfg, ctx.fault_plan, ctx.observer)
    }
}

/// Adapter for the multi-device fleet engine. The fleet's per-device
/// recovery stays internal; the flattened [`MultiRunStats`] of the last run
/// is kept for callers that report the per-device breakdown.
pub struct FleetEngine {
    /// Devices in the fleet.
    pub devices: usize,
    /// Interconnect preset for the halo exchange.
    pub interconnect: Interconnect,
    /// Fleet statistics of the most recent successful run.
    pub last: Option<MultiRunStats>,
}

impl FleetEngine {
    /// A PCIe-gen3 fleet of `devices` devices.
    pub fn new(devices: usize) -> Self {
        FleetEngine {
            devices,
            interconnect: Interconnect::pcie_gen3(),
            last: None,
        }
    }
}

impl<P: VertexProgram> Engine<P> for FleetEngine {
    fn label(&self) -> String {
        format!("CuSha x{}", self.devices)
    }

    fn recovers_faults(&self) -> bool {
        true
    }

    fn fleet_stats(&self) -> Option<&MultiRunStats> {
        self.last.as_ref()
    }

    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        let mcfg = MultiConfig::new(ctx.cfg.clone(), self.devices)
            .with_interconnect(self.interconnect.clone());
        // Device 0 runs under the middleware's plan and hands it back.
        let out = try_run_multi_observed(prog, graph, &mcfg, ctx.fault_plan, ctx.observer)?;
        self.last = Some(out.stats.clone());
        Ok(CuShaOutput {
            values: out.values,
            stats: out.stats.as_run_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NoopObserver;

    struct CountingObserver {
        calls: u32,
    }

    impl RunObserver for CountingObserver {
        fn on_iteration(&mut self, _i: u32, _u: u64, _e: f64) -> bool {
            self.calls += 1;
            true
        }
    }

    #[test]
    fn deadline_observer_cancels_at_boundary() {
        let mut inner = CountingObserver { calls: 0 };
        let mut dl = DeadlineObserver::new(Some(0.5), &mut inner);
        assert!(dl.on_iteration(1, 10, 0.1));
        assert!(dl.on_iteration(2, 10, 0.499));
        assert!(!dl.on_iteration(3, 10, 0.5));
        assert!(!dl.on_iteration(4, 10, 0.9));
        // The inner observer is not consulted once the deadline expired.
        assert_eq!(inner.calls, 2);
    }

    #[test]
    fn deadline_observer_without_deadline_defers() {
        let mut noop = NoopObserver;
        let mut dl = DeadlineObserver::new(None, &mut noop);
        assert!(dl.on_iteration(1, 0, 1e12));
    }
}
