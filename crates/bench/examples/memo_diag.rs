//! Prints per-cell simulator telemetry — scattered-access analyses performed,
//! warp-trace replay scopes opened / hits / misses / fallbacks, and the slots
//! (filled / allocated) and bytes of the table the cell ended on — for BFS and
//! SSSP on GS, CW and VWC/32 over two power-law surrogates plus a road
//! lattice, then, per dataset and representation, three consecutive warm runs
//! on one `PreparedLayout` with the slots its replay tables hold: the quick
//! way to confirm that the CuSha kernels open a few scopes per shard, that the
//! second run on a layout misses nothing, and that VWC holds one sweep key per
//! block plus a constant, and (the `Frontier/kcore` row on the road lattice)
//! that k-core holds two keys per dense block, all recorded in its first
//! round.

use cusha_algos::{Bfs, Sssp};
use cusha_bench::bench_defs::{default_source, Benchmark, Engine};
use cusha_core::{
    try_run_warm, CuShaConfig, MemoStats, NoopObserver, PreparedLayout, Repr, RunStats,
    VertexProgram,
};
use cusha_frontier::{run_kcore, KcoreConfig};
use cusha_graph::surrogates::Dataset;
use cusha_graph::Graph;
use cusha_simt::replay::SLOT_BYTES;

fn scopes(m: &MemoStats) -> u64 {
    m.replay_hits + m.replay_misses + m.replay_fallbacks
}

/// One cell's line: `steps` names what its iterations are.
fn cell_line(ds: Dataset, what: &str, engine: &str, seconds: f64, steps: &str, stats: &RunStats) {
    let m = stats.memo;
    let (filled, allocated) = m.replay_slots;
    println!(
        "{ds:<12} {what:<5} {engine:<10} {seconds:>7.3}s {steps} {:>3} | analyses {:>9} | scopes {:>8} hit {:>8} miss {:>7} fallback {} | slots {filled}/{allocated} ({} KB)",
        stats.iterations,
        m.coalesce_misses,
        scopes(&m),
        m.replay_hits,
        m.replay_misses,
        m.replay_fallbacks,
        allocated as usize * SLOT_BYTES / 1024,
    );
}

/// Three runs of `prog` on `layout`, one line each.
fn warm_runs<P: VertexProgram>(prog: &P, g: &Graph, layout: &PreparedLayout, cfg: &CuShaConfig) {
    for run in 1..=3 {
        let t = std::time::Instant::now();
        let memo = match try_run_warm(prog, g, layout, cfg, None, &mut NoopObserver) {
            Ok(out) => out.stats.memo,
            Err(cusha_core::EngineError::NonConverged { partial }) => partial.stats.memo,
            Err(e) => panic!("{e}"),
        };
        let (filled, allocated) = layout.replay_slots();
        println!(
            "  {:<8} {:<10} run {run} {:>7.3}s | scopes {:>7} hit {:>7} miss {:>6} | slots {filled}/{allocated}",
            layout.repr().label(),
            prog.name(),
            t.elapsed().as_secs_f64(),
            scopes(&memo),
            memo.replay_hits,
            memo.replay_misses,
        );
    }
}

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let max_iterations: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    for (ds, scale) in [
        (Dataset::Amazon0312, scale),
        (Dataset::WebGoogle, scale),
        (Dataset::RoadNetCA, scale.min(32)),
    ] {
        let g = ds.generate(scale);
        println!("{ds} /{scale}: {} vertices", g.num_vertices());
        for b in [Benchmark::Bfs, Benchmark::Sssp] {
            for e in [Engine::CuShaGs, Engine::CuShaCw, Engine::Vwc(32)] {
                let t = std::time::Instant::now();
                let stats = b.run(&g, e, max_iterations);
                let seconds = t.elapsed().as_secs_f64();
                cell_line(ds, &b.to_string(), &e.label(), seconds, "iters", &stats);
            }
        }
        if ds == Dataset::RoadNetCA {
            let t = std::time::Instant::now();
            let stats = run_kcore(&g, &KcoreConfig::new()).stats;
            let seconds = t.elapsed().as_secs_f64();
            cell_line(ds, "kcore", "Frontier", seconds, "rounds", &stats);
        }
        // One layout serves both programs (4-byte values pick one shard
        // size); each keeps its own table (BFS moves no edge column).
        println!("{ds} /{scale}: three warm runs per program on one layout");
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            let mut cfg = CuShaConfig::new(repr);
            cfg.max_iterations = max_iterations;
            let layout = PreparedLayout::build(&g, repr, PreparedLayout::select_n_per(&g, &cfg, 4));
            let source = default_source(&g);
            warm_runs(&Bfs::new(source), &g, &layout, &cfg);
            warm_runs(&Sssp::new(source), &g, &layout, &cfg);
        }
    }
}
