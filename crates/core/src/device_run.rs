//! [`DeviceRun`]: what a single-device engine (VWC-CSR, the frontier engine,
//! k-core, triangle counting) does around its kernels, written once: device
//! set-up and fault-plan hand-back, the setup mark, the 1-based iteration
//! boundary (with [`Recovery`]'s, on this run's budgets and statistics), the
//! final download, Fig. 10's clock split ([`split_clock`]) and the device's
//! fault record (the transient faults it absorbed in place).

use crate::engine::RunObserver;
use crate::error::EngineError;
use crate::integrity::{Ask, Detector, Recovery, Rung};
use crate::kernel::fault_instant;
use crate::middleware::DeadlineObserver;
use crate::program::Value;
use crate::stats::{IterationStat, MemoStats, RunStats};
use cusha_obs::trace::{lanes, ArgVal, Tracer};
use cusha_simt::{DeviceConfig, DeviceFault, FaultPlan, Gpu};

/// What a single-device engine's configuration says about its device.
pub struct DeviceSetup<'c> {
    /// The simulated device.
    pub device: &'c DeviceConfig,
    /// Retain per-launch kernel statistics.
    pub profile: bool,
    /// Span sink, installed as process lane 0.
    pub trace: &'c Tracer,
    /// Installed when the caller hands no plan.
    pub fault_plan: Option<&'c FaultPlan>,
    /// Enforced at the iteration boundary.
    pub deadline_seconds: Option<f64>,
}

/// One engine run on one device.
pub struct DeviceRun<'o, O: RunObserver + ?Sized> {
    /// The device the engine's kernels run on.
    pub gpu: Gpu,
    /// The statistics the engine's kernels add to.
    pub stats: RunStats,
    observer: DeadlineObserver<'o, O>,
    setup_h2d: f64,
}

impl<'o, O: RunObserver + ?Sized> DeviceRun<'o, O> {
    /// Runs `body` on a device built from `setup`, its statistics labelled
    /// `engine`; `fault_plan`, installed in place of the configured plan, gets
    /// the advanced state back on every exit, `Err` included.
    pub fn open<R, V>(
        setup: DeviceSetup<'_>,
        engine: String,
        fault_plan: Option<&mut FaultPlan>,
        observer: &'o mut O,
        body: impl FnOnce(&mut Self) -> Result<R, EngineError<V>>,
    ) -> Result<R, EngineError<V>> {
        let mut gpu = Gpu::new(setup.device.clone());
        gpu.set_profiling(setup.profile);
        gpu.set_tracer(setup.trace.clone(), 0);
        if let Some(p) = fault_plan.as_deref().or(setup.fault_plan) {
            gpu.set_fault_plan(p.clone());
        }
        let observer = DeadlineObserver::new(setup.deadline_seconds, observer);
        let stats = RunStats {
            engine,
            ..RunStats::default()
        };
        let mut run = DeviceRun {
            gpu,
            stats,
            observer,
            setup_h2d: 0.0,
        };
        let result = body(&mut run);
        if let (Some(slot), Some(p)) = (fault_plan, run.gpu.take_fault_plan()) {
            *slot = p;
        }
        result
    }

    fn span(&self, name: &str, start: f64, args: impl FnOnce() -> Vec<(&'static str, ArgVal)>) {
        let (trace, dur) = (self.gpu.tracer(), self.gpu.total_seconds() - start);
        trace.complete_with(0, lanes::ENGINE, "engine", name, start, dur, args);
    }

    /// The upload is done: the setup mark.
    pub fn uploaded(&mut self) {
        self.setup_h2d = self.gpu.h2d_seconds;
        self.span("setup", 0.0, Vec::new);
    }

    /// Ends the iteration begun at `start`: counts it, records it, and emits
    /// its span — `iteration` (1-based), `updated_vertices`, then `args` —
    /// and the `updated_vertices` counter.
    pub fn iteration(
        &mut self,
        start: f64,
        seconds: f64,
        updated: u64,
        args: impl FnOnce() -> Vec<(&'static str, ArgVal)>,
    ) {
        let (stats, updated_vertices) = (&mut self.stats, updated);
        stats.iterations += 1;
        stats.per_iteration.push(IterationStat {
            seconds,
            updated_vertices,
        });
        let iteration = ("iteration", ArgVal::U64(stats.iterations.into()));
        self.span("iteration", start, || {
            let head = [iteration, ("updated_vertices", ArgVal::U64(updated))];
            head.into_iter().chain(args()).collect()
        });
        let (trace, now) = (self.gpu.tracer(), self.gpu.total_seconds());
        trace.counter(0, lanes::ENGINE, "updated_vertices", now, updated as f64);
    }

    /// The iteration boundary, `dev` answering `recovery`'s asks on this
    /// run's device. After a non-converged iteration: the observer (its
    /// `false` is [`EngineError::Deadline`]), then `recovery`'s checkpoint
    /// (checked against `law`) and watchdog. At the convergence exit
    /// (`converged`): `law` alone, against the values' host view. `true`:
    /// `law` broke.
    pub fn boundary<V: Value, S: Default>(
        &mut self,
        recovery: &mut Recovery<V, S>,
        law: impl Fn(&[V], &[V]) -> Result<(), String>,
        converged: bool,
        mut dev: impl FnMut(&mut Gpu, Ask<'_, V, S>) -> Result<(), DeviceFault>,
    ) -> Result<bool, EngineError<V>> {
        let (s, gpu, observer) = (&mut self.stats, &mut self.gpu, &mut self.observer);
        if converged {
            let mut broken = false;
            let mut check = |now: &[V]| broken = recovery.breaks(&law, now);
            dev(gpu, Ask::Inspect(&mut check))?;
            return Ok(broken);
        }
        let updated = s.per_iteration.last().map_or(0, |it| it.updated_vertices);
        let (its, now, sdc) = (s.iterations, gpu.total_seconds(), &mut s.sdc);
        let dev = |ask: Ask<'_, V, S>| dev(gpu, ask);
        recovery.boundary(observer, law, sdc, its, updated, now, dev)
    }

    /// One rung of `recovery`'s ladder after `detector` fired, on this run's
    /// budgets and statistics; past the last the engine takes its host rung
    /// ([`DeviceRun::abandon`]).
    pub fn recover<V: Value, S: Default>(
        &mut self,
        recovery: &mut Recovery<V, S>,
        detector: Detector,
        mut dev: impl FnMut(&mut Gpu, Ask<'_, V, S>) -> Result<(), DeviceFault>,
    ) -> Result<Rung, DeviceFault> {
        let (s, gpu) = (&mut self.stats, &mut self.gpu);
        let dev = |ask: Ask<'_, V, S>| dev(gpu, ask);
        let (sdc, its, detail) = (&mut s.sdc, &mut s.iterations, &mut s.per_iteration);
        recovery.step(detector, sdc, its, detail, dev)
    }

    /// The statistics of the engine's host rung: this run's so far, the
    /// device's fault record among them, with one host fallback counted and
    /// marked.
    pub fn abandon(&mut self) -> RunStats {
        self.stats.fault = self.gpu.faults;
        self.stats.sdc.host_fallbacks += 1;
        fault_instant(&self.gpu, "sdc", "host-fallback");
        std::mem::take(&mut self.stats)
    }

    /// Runs the final download inside the `download` span, then splits the
    /// clock and folds the device's fault record, memo and profile into the
    /// statistics it hands back.
    pub fn close<T>(
        &mut self,
        download: impl FnOnce(&mut Gpu) -> Result<T, DeviceFault>,
    ) -> Result<(T, RunStats), DeviceFault> {
        let (d2h_before, start) = (self.gpu.d2h_seconds, self.gpu.total_seconds());
        let result = download(&mut self.gpu)?;
        self.span("download", start, Vec::new);
        let (gpu, stats) = (&mut self.gpu, &mut self.stats);
        let clock = (gpu.kernel_seconds, gpu.h2d_seconds, gpu.d2h_seconds);
        (stats.h2d_seconds, stats.compute_seconds, stats.d2h_seconds) =
            split_clock(self.setup_h2d, d2h_before, clock);
        stats.fault = gpu.faults;
        stats.memo.add(&MemoStats::from_gpu(gpu));
        stats.profile = gpu.profile.take();
        Ok((result, std::mem::take(stats)))
    }
}

/// Fig. 10's H2D / GPU / D2H split of one device's `(kernel, h2d, d2h)`
/// clocks: the upload up to the setup mark is H2D; kernels, later uploads and
/// the downloads before the final one are GPU; the final download is D2H.
pub(crate) fn split_clock(
    setup_h2d: f64,
    d2h_before: f64,
    clock: (f64, f64, f64),
) -> (f64, f64, f64) {
    let (kernel_seconds, h2d, d2h) = clock;
    let compute = kernel_seconds + (h2d - setup_h2d) + d2h_before;
    (setup_h2d, compute, d2h - d2h_before)
}
