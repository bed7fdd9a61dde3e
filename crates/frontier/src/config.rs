//! Frontier-engine configuration.

use cusha_core::memsize::{check_fits, ValueSizes};
use cusha_core::{CuShaConfig, DeviceSetup, EngineError, IntegrityConfig};
use cusha_graph::Graph;
use cusha_obs::Tracer;
use cusha_simt::{DeviceConfig, FaultPlan};

/// Default frontier edge density (out-edges reachable from the frontier as
/// a fraction of all edges, `m_f / m`) at or above which an iteration runs
/// **pull** (dense) instead of **push** (frontier-driven) — the
/// direction-switching heuristic of Ligra / SIMD-X applied to the modeled
/// device. Counting edges rather than vertices is what makes the heuristic
/// degree-aware: a hub-heavy frontier on a scale-free graph crosses the
/// threshold while holding a few percent of the vertices, while the
/// needle-thin uniform-degree frontiers of a road network never do. The
/// default is calibrated to the modeled costs: pull folds every edge
/// coalesced (~0.6 ns/edge on the GTX 780 preset) where push relaxes
/// scattered (~1.7 ns/edge), so pull pays off once the frontier covers
/// roughly a third of the edges.
pub const DEFAULT_DENSITY_THRESHOLD: f64 = 0.35;

/// Value sizes of the frontier-native workloads: one `u32` per vertex.
pub(crate) const U32_PER_VERTEX: ValueSizes = ValueSizes {
    vertex: 4,
    edge: 0,
    static_vertex: 0,
};

/// Configuration of the frontier engine.
#[derive(Clone, Debug)]
pub struct FrontierConfig {
    /// Threads per block (multiple of the warp width).
    pub threads_per_block: u32,
    /// Convergence-loop safety cap.
    pub max_iterations: u32,
    /// Frontier edge density (`m_f / m`) at or above which an iteration
    /// runs pull; below it, push. Set to `0.0` to force pull-only, `> 1.0`
    /// to force push-only (frontier-safe programs only — others always run
    /// pull).
    pub density_threshold: f64,
    /// Retain per-launch kernel statistics in `RunStats::profile`.
    pub profile: bool,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Optional fault-injection schedule installed on the device.
    pub fault_plan: Option<FaultPlan>,
    /// Span/event tracer; disabled (no-op) by default.
    pub trace: Tracer,
    /// Silent-data-corruption defense configuration.
    pub integrity: IntegrityConfig,
    /// Modeled-time deadline (the CLI's `--timeout-ms`), enforced by the
    /// frontier engine and k-core at iteration boundaries, like every other
    /// engine (the single-kernel triangle count has none).
    pub deadline_seconds: Option<f64>,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig::new()
    }
}

impl FrontierConfig {
    /// Defaults on the GTX 780 preset.
    pub fn new() -> Self {
        FrontierConfig {
            threads_per_block: 256,
            max_iterations: 10_000,
            density_threshold: DEFAULT_DENSITY_THRESHOLD,
            profile: false,
            device: DeviceConfig::gtx780(),
            fault_plan: None,
            trace: Tracer::disabled(),
            integrity: IntegrityConfig::default(),
            deadline_seconds: None,
        }
    }

    /// Maps the shared fields of a [`CuShaConfig`] (threads per block,
    /// iteration cap, profiling, device, fault plan, tracer, integrity,
    /// deadline) onto a frontier configuration — how the middleware adapter
    /// and the CLI derive one config for every engine.
    pub fn from_cusha(cfg: &CuShaConfig) -> Self {
        FrontierConfig {
            threads_per_block: cfg.threads_per_block,
            max_iterations: cfg.max_iterations,
            density_threshold: DEFAULT_DENSITY_THRESHOLD,
            profile: cfg.profile,
            device: cfg.device.clone(),
            fault_plan: cfg.fault_plan.clone(),
            trace: cfg.trace.clone(),
            integrity: cfg.integrity,
            deadline_seconds: cfg.deadline_seconds,
        }
    }

    /// Overrides the push/pull density threshold.
    pub fn with_density_threshold(mut self, t: f64) -> Self {
        self.density_threshold = t;
        self
    }

    /// Installs a tracer recording spans of the run.
    pub fn with_tracer(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// Refuses a graph whose CSR footprint at value sizes `s` the device
    /// cannot hold ([`check_fits`]) — what every entry asks before it builds
    /// its topology.
    pub(crate) fn check_fits<V>(&self, graph: &Graph, s: ValueSizes) -> Result<(), EngineError<V>> {
        let (v, e) = (graph.num_vertices() as u64, graph.num_edges() as u64);
        check_fits(v, e, s, None, &self.device)
    }

    /// What a run's [`DeviceRun`](cusha_core::DeviceRun) builds its device
    /// from: every frontier-family entry's device, plan and deadline.
    pub(crate) fn device_setup(&self) -> DeviceSetup<'_> {
        DeviceSetup {
            device: &self.device,
            profile: self.profile,
            trace: &self.trace,
            fault_plan: self.fault_plan.as_ref(),
            deadline_seconds: self.deadline_seconds,
        }
    }

    /// Checks the configuration, returning the first defect.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads_per_block == 0
            || !self
                .threads_per_block
                .is_multiple_of(cusha_simt::WARP as u32)
        {
            return Err(format!(
                "threads_per_block must be a positive multiple of {}, got {}",
                cusha_simt::WARP,
                self.threads_per_block
            ));
        }
        self.device.check_block(self.threads_per_block, 0)?;
        if self.max_iterations == 0 {
            return Err("max_iterations must be positive".into());
        }
        if !self.density_threshold.is_finite() || self.density_threshold < 0.0 {
            return Err(format!(
                "density_threshold must be finite and non-negative, got {}",
                self.density_threshold
            ));
        }
        if let Some(d) = self.deadline_seconds {
            if d.is_nan() || d <= 0.0 {
                return Err(format!(
                    "deadline_seconds must be positive when set, got {d}"
                ));
            }
        }
        self.integrity.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_core::Repr;

    #[test]
    fn validation_catches_bad_fields() {
        let mut cfg = FrontierConfig::new();
        assert!(cfg.validate().is_ok());
        cfg.threads_per_block = 33;
        assert!(cfg.validate().is_err());
        cfg.threads_per_block = 128;
        cfg.density_threshold = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.density_threshold = DEFAULT_DENSITY_THRESHOLD;
        for (deadline, ok) in [(1e-9, true), (0.0, false), (-1.0, false), (f64::NAN, false)] {
            cfg.deadline_seconds = Some(deadline);
            assert_eq!(cfg.validate().is_ok(), ok, "deadline {deadline}");
        }
        cfg.deadline_seconds = None;
        cfg.integrity.checkpoint_every = 0;
        assert!(
            cfg.validate().is_err(),
            "the integrity config is checked too"
        );
    }

    #[test]
    fn from_cusha_carries_shared_fields() {
        let mut base = CuShaConfig::new(Repr::GShards);
        base.max_iterations = 77;
        base.deadline_seconds = Some(1.5);
        let f = FrontierConfig::from_cusha(&base);
        assert_eq!(f.max_iterations, 77);
        assert_eq!(f.deadline_seconds, Some(1.5));
        assert_eq!(f.threads_per_block, base.threads_per_block);
    }
}
