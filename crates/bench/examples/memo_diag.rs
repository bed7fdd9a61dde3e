//! Prints per-cell simulator telemetry — scattered-access analyses performed
//! and warp-trace replay hits / misses / fallbacks — for the simwall subset
//! plus a road lattice of more than 32,768 vertices (the replay table's slot
//! count): the quick way to confirm the replay fast path engages and that
//! VWC's class keys stay constant as |V| grows.

use cusha_bench::bench_defs::{Benchmark, Engine};
use cusha_graph::surrogates::Dataset;

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
                let m = stats.memo;
                println!(
                    "{ds:<12} {b:<5} {:<10} {:>7.3}s iters {:>3} | analyses {:>9} | replay hit {:>8} miss {:>7} fallback {}",
                    e.label(),
                    t.elapsed().as_secs_f64(),
                    stats.iterations,
                    m.coalesce_misses,
                    m.replay_hits,
                    m.replay_misses,
                    m.replay_fallbacks,
                );
            }
        }
    }
}
