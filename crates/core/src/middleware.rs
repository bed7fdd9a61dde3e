//! Engine middleware: one wrapper for every engine. Implement [`Engine`] (a
//! thin adapter around an engine's entry point) and [`run_engine`] provides,
//! in one code path,
//!
//! * configuration validation,
//! * deadline enforcement and observer cancellation ([`DeadlineObserver`]
//!   wraps the caller's [`RunObserver`], so `--timeout-ms` works on any
//!   engine whose loop calls the observer once per iteration),
//! * the [`FaultPlan`]: the call's, else the configuration's, handed to the
//!   engine and advanced by it.
//!
//! Transient copy and launch faults are each device's own: a `Gpu` re-issues
//! the one faulted operation within its budget, so nothing here retries.
//! Silent corruption is each device engine's own (`integrity::Recovery`).
//! The shard family's one adapter lives here ([`ShardEngine`]: a
//! representation and a [`Placement`]); the baselines and the frontier
//! engine implement [`Engine`] in their own crates.

use crate::engine::{
    try_run_placed, CuShaConfig, CuShaOutput, Placement, PreparedLayout, Repr, RunObserver,
};
use crate::error::EngineError;
use crate::program::VertexProgram;
use cusha_graph::Graph;
use cusha_simt::FaultPlan;

/// Per-attempt context the middleware hands an engine: the effective
/// configuration, the (middleware-owned) fault plan to install on the
/// device, and the observer to call at every iteration boundary.
pub struct EngineCtx<'a> {
    /// Effective configuration. `cfg.fault_plan` is always `None` here —
    /// the plan travels through [`EngineCtx::fault_plan`].
    pub cfg: &'a CuShaConfig,
    /// Fault plan to install on the device (device 0 of a fleet). Every
    /// engine writes the advanced plan back through this slot on every exit,
    /// so a later run sharing it never re-fires what this one consumed.
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
/// engine's native entry point and config type, its `integrity` included.
/// The cross-cutting behavior (validation, the fault plan, deadlines)
/// belongs to [`run_engine`], not to implementations.
pub trait Engine<P: VertexProgram> {
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
/// `fault_plan` (or, if `None`, `cfg.fault_plan`) is handed to the engine,
/// which installs it on its device; a fault past the device's own budget
/// leaves as the engine's error. The observer is wrapped in a
/// [`DeadlineObserver`], making `cfg.deadline_seconds` effective on every
/// engine.
pub fn run_engine<P: VertexProgram, O: RunObserver + ?Sized>(
    engine: &mut dyn Engine<P>,
    prog: &P,
    graph: &Graph,
    cfg: &CuShaConfig,
    fault_plan: Option<FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    let mut plan = fault_plan.or_else(|| cfg.fault_plan.clone());
    let mut cfg = cfg.clone();
    cfg.fault_plan = None;
    let mut dl = DeadlineObserver::new(cfg.deadline_seconds, observer);
    let ctx = EngineCtx {
        cfg: &cfg,
        fault_plan: plan.as_mut(),
        observer: &mut dl,
    };
    engine.execute(prog, graph, ctx)
}

/// The shard family's adapter (CuSha-GS / CuSha-CW, wherever `placement`
/// puts the layout): builds the layout per call and enters
/// [`try_run_placed`]. Fleet statistics come back in
/// [`RunStats::fleet`](crate::RunStats::fleet).
pub struct ShardEngine {
    /// The representation to run.
    pub repr: Repr,
    /// Where the layout lives.
    pub placement: Placement,
}

impl ShardEngine {
    /// Adapter for the given representation, the whole layout resident.
    pub fn new(repr: Repr) -> Self {
        ShardEngine {
            repr,
            placement: Placement::Resident,
        }
    }
}

impl<P: VertexProgram> Engine<P> for ShardEngine {
    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        let (cfg, placement) = (
            CuShaConfig {
                repr: self.repr,
                ..ctx.cfg.clone()
            },
            &self.placement,
        );
        let layout = PreparedLayout::for_program::<P>(graph, &cfg, placement)?;
        try_run_placed(
            prog,
            graph,
            &layout,
            &cfg,
            placement,
            ctx.fault_plan,
            ctx.observer,
        )
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

    /// A shard adapter's runs report its placement's label.
    #[test]
    fn an_adapter_is_called_what_its_runs_report() {
        use crate::program::testing::MiniSssp;
        use cusha_graph::generators::rmat::{rmat, RmatConfig};
        let g = rmat(&RmatConfig::graph500(8, 1500, 21));
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            let placements = [
                Placement::Resident,
                Placement::streamed(4096),
                Placement::fleet(1),
                Placement::fleet(4),
            ];
            for placement in placements {
                let label = placement.label(repr);
                let mut engine = ShardEngine { repr, placement };
                let cfg = CuShaConfig::new(repr);
                let prog = MiniSssp { source: 0 };
                let out = run_engine(&mut engine, &prog, &g, &cfg, None, &mut NoopObserver);
                assert_eq!(out.unwrap().stats.engine, label);
            }
        }
    }

    #[test]
    fn deadline_observer_without_deadline_defers() {
        let mut noop = NoopObserver;
        let mut dl = DeadlineObserver::new(None, &mut noop);
        assert!(dl.on_iteration(1, 0, 1e12));
    }
}
