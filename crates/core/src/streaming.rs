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
//! `crate::multi::drive`, and [`Placement::Streamed`] is how a caller asks for
//! it; its recovery — copy retries, an OOM halving the budget in place, the
//! CW → G-Shards → host ladder — is that placement's (DESIGN §4.5). This
//! module holds its one-shot entry and configuration.

use crate::engine::{try_run_cold, CuShaConfig, CuShaOutput, Placement};
use crate::error::{settle, EngineError};
use crate::program::VertexProgram;
use cusha_graph::Graph;

/// Configuration of the streamed engine: the base configuration and a
/// [`Placement::Streamed`], spelled as fields.
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
    settle(try_run_streamed(prog, graph, cfg))
}

/// Executes `prog` over `graph` with the streamed engine, recovering from
/// injected or genuine device faults as described in the module docs and
/// returning unrecoverable failures as [`EngineError`]s:
/// [`crate::try_run_placed`] over a layout built for the placement. Recovery
/// activity is recorded in
/// the output's [`RunStats::fault`](crate::RunStats).
pub fn try_run_streamed<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    let (bytes, streams) = (cfg.resident_bytes, cfg.streams);
    let placement = Placement::Streamed { bytes, streams };
    try_run_cold(prog, graph, &cfg.base, &placement)
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
