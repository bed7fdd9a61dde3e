//! Host-side fallback engine — the last rung of the degradation ladder.
//!
//! When the streamed engine's kernels keep faulting even after degrading
//! CW → G-Shards, it abandons the device and finishes the computation here.
//! This is *not* a fast CPU engine (the multithreaded CSR baseline lives in
//! `cusha-baselines`, which depends on this crate and therefore cannot be
//! called from it); it is a correctness anchor: a sequential re-enactment
//! of the G-Shards engine's exact four-stage schedule — same shard order,
//! same entry order, same publish rules — so its results are bit-identical
//! to a fault-free [`crate::run`] in GS mode for every program, floats
//! included. No device is involved, so no device fault can reach it.

use crate::engine::{CuShaConfig, CuShaOutput, PreparedLayout, Repr};
use crate::error::EngineError;
use crate::kernel::HostArrays;
use crate::program::VertexProgram;
use crate::stats::{FaultStats, IterationStat, RunStats, SdcStats};
use cusha_graph::Graph;
use cusha_simt::{Pod, Profile};

/// Engine label reported by the fallback in [`RunStats::engine`].
pub const FALLBACK_LABEL: &str = "host-fallback";

/// Executes `prog` over `graph` on the host, re-enacting the G-Shards
/// engine's deterministic schedule (`HostArrays::sweep`). Only
/// `vertices_per_shard`, `max_iterations` and the autotuner-relevant fields
/// of `cfg` are used; device-specific settings are ignored. Modeled
/// transfer/kernel times are zero (there is no device).
pub fn run_fallback<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &CuShaConfig,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    let n_per = PreparedLayout::select_n_per(graph, cfg, <P::V as Pod>::SIZE);
    let layout = PreparedLayout::build(graph, Repr::GShards, n_per);
    let (fault, sdc) = (FaultStats::default(), SdcStats::default());
    run_fallback_after(prog, graph, &layout, cfg, fault, sdc, None)
}

/// The last rung of every ladder that abandons its device: [`run_fallback`]
/// on the abandoned run's own layout, so it finishes on that run's
/// schedule, its statistics carrying the run's record — recovery counters,
/// SDC record, launch profile — (a capped fallback's partial output too).
pub(crate) fn run_fallback_after<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    layout: &PreparedLayout,
    cfg: &CuShaConfig,
    fault: FaultStats,
    sdc: SdcStats,
    profile: Option<Profile>,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    let (mut host, gs) = (HostArrays::new(prog, graph, layout), layout.gs());
    let all_entries = 0..gs.num_edges() as usize;

    let mut total = RunStats {
        engine: FALLBACK_LABEL.to_string(),
        fault,
        sdc,
        profile,
        ..Default::default()
    };
    while total.iterations < cfg.max_iterations && !total.converged {
        // Every stage-4 write is the sweep's own: nothing spills.
        let updated = host.sweep(prog, gs, 0..gs.num_shards(), &all_entries, &mut Vec::new());
        total.iterations += 1;
        total.per_iteration.push(IterationStat {
            seconds: 0.0,
            updated_vertices: updated,
        });
        total.converged = updated == 0;
    }
    let (values, stats) = (host.values, total);
    CuShaOutput { values, stats }.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, CuShaConfig};
    use crate::program::testing::MiniSssp;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Edge;

    #[test]
    fn fallback_bit_matches_the_gs_engine() {
        let g = rmat(&RmatConfig::graph500(8, 1500, 44));
        let prog = MiniSssp { source: 0 };
        let cfg = CuShaConfig::gs().with_vertices_per_shard(16);
        let device = run(&prog, &g, &cfg);
        let host = run_fallback(&prog, &g, &cfg).unwrap();
        assert_eq!(host.values, device.values);
        assert_eq!(host.stats.iterations, device.stats.iterations);
        assert_eq!(host.stats.engine, "host-fallback");
    }

    #[test]
    fn fallback_solves_a_chain() {
        let g = Graph::new(40, (0..39).map(|v| Edge::new(v, v + 1, 2)).collect());
        let cfg = CuShaConfig::gs().with_vertices_per_shard(8);
        let out = run_fallback(&MiniSssp { source: 0 }, &g, &cfg).unwrap();
        for (v, &d) in out.values.iter().enumerate() {
            assert_eq!(d, 2 * v as u32);
        }
        assert!(out.stats.converged);
    }

    #[test]
    fn fallback_rejects_bad_config() {
        let g = Graph::empty(4);
        let mut cfg = CuShaConfig::gs();
        cfg.threads_per_block = 33;
        assert!(matches!(
            run_fallback(&MiniSssp { source: 0 }, &g, &cfg),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
