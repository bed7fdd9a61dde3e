//! [`Engine`] middleware adapters for the baselines, so
//! [`cusha_core::run_engine`] drives VWC-CSR and MTCPU-CSR through the same
//! validation / deadline / retry stack as the CuSha engines.

use crate::mtcpu::{try_run_mtcpu, MtcpuConfig};
use crate::vwc::{try_run_vwc, VwcConfig};
use cusha_core::{CuShaOutput, Engine, EngineCtx, EngineError, VertexProgram};
use cusha_graph::Graph;

/// Adapter for the VWC-CSR baseline. Maps the generic config onto
/// [`VwcConfig`] (every field the two share carries over) and threads the
/// middleware's fault plan and observer through [`try_run_vwc`].
pub struct VwcEngine {
    /// Virtual warp width (2, 4, 8, 16 or 32).
    pub virtual_warp: usize,
}

impl VwcEngine {
    /// Adapter with the given virtual warp width (no outlier deferral).
    pub fn new(virtual_warp: usize) -> Self {
        VwcEngine { virtual_warp }
    }
}

impl<P: VertexProgram> Engine<P> for VwcEngine {
    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        let mut cfg = VwcConfig::new(self.virtual_warp);
        cfg.threads_per_block = ctx.cfg.threads_per_block;
        cfg.max_iterations = ctx.cfg.max_iterations;
        cfg.profile = ctx.cfg.profile;
        cfg.device = ctx.cfg.device.clone();
        cfg.trace = ctx.cfg.trace.clone();
        cfg.integrity = ctx.cfg.integrity;
        try_run_vwc(prog, graph, &cfg, ctx.fault_plan, ctx.observer)
    }
}

/// Adapter for the MTCPU-CSR baseline. The CPU engine runs on host memory
/// — outside the device fault domain — so the middleware's fault plan is
/// ignored; deadlines apply against real wall-clock time.
pub struct MtcpuEngine {
    /// Worker threads.
    pub threads: usize,
}

impl MtcpuEngine {
    /// Adapter with the given thread count.
    pub fn new(threads: usize) -> Self {
        MtcpuEngine { threads }
    }
}

impl<P: VertexProgram> Engine<P> for MtcpuEngine {
    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        let mut cfg = MtcpuConfig::new(self.threads);
        cfg.max_iterations = ctx.cfg.max_iterations;
        cfg.trace = ctx.cfg.trace.clone();
        try_run_mtcpu(prog, graph, &cfg, ctx.observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_algos::bfs::{bfs_levels, Bfs};
    use cusha_core::{run_engine, CuShaConfig, NoopObserver, Repr};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn middleware_drives_both_baselines() {
        let g = rmat(&RmatConfig::graph500(7, 700, 50));
        let oracle = bfs_levels(&g, 0);
        let cfg = CuShaConfig::new(Repr::GShards);
        for engine in [
            &mut VwcEngine::new(8) as &mut dyn Engine<Bfs>,
            &mut MtcpuEngine::new(4),
        ] {
            let out = run_engine(engine, &Bfs::new(0), &g, &cfg, None, &mut NoopObserver)
                .expect("baseline under middleware");
            assert_eq!(out.values, oracle, "{}", out.stats.engine);
        }
    }

    #[test]
    fn baseline_outputs_are_the_engine_output_type() {
        // `VwcOutput` / `MtcpuOutput` are aliases: no conversion anywhere.
        use crate::mtcpu::{run_mtcpu, MtcpuOutput};
        use crate::vwc::{run_vwc, VwcOutput};
        let g = rmat(&RmatConfig::graph500(6, 300, 52));
        let vwc: CuShaOutput<u32> = run_vwc(&Bfs::new(0), &g, &VwcConfig::new(8));
        let cpu: CuShaOutput<u32> = run_mtcpu(&Bfs::new(0), &g, &MtcpuConfig::new(2));
        let (vwc, cpu): (VwcOutput<u32>, MtcpuOutput<u32>) = (vwc, cpu);
        assert_eq!(vwc.values, cpu.values);
    }

    #[test]
    fn deadline_cancels_vwc() {
        let g = rmat(&RmatConfig::graph500(8, 3000, 51));
        let mut cfg = CuShaConfig::new(Repr::GShards);
        cfg.deadline_seconds = Some(1e-9);
        let err = run_engine(
            &mut VwcEngine::new(8),
            &Bfs::new(0),
            &g,
            &cfg,
            None,
            &mut NoopObserver,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Deadline { .. }), "{err}");
    }
}
