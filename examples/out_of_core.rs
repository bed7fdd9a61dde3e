//! Out-of-core (multi-streamed) processing — the extension the paper's
//! Section 5.1 sketches for graphs whose shard arrays exceed device memory:
//! batches of shards are uploaded, processed, and written back, with the
//! next batch's copy overlapped against the current batch's kernel.
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use cusha::algos::PageRank;
use cusha::core::{run, run_streamed, CuShaConfig, StreamingConfig};
use cusha::graph::surrogates::Dataset;

fn main() {
    let graph = Dataset::Pokec.generate(128);
    println!(
        "Pokec surrogate: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let prog = PageRank::new();
    let base = CuShaConfig::cw();

    // In-core reference.
    let in_core = run(&prog, &graph, &base);
    println!(
        "in-core      : {:>8.2} ms, {} iterations",
        in_core.stats.total_ms(),
        in_core.stats.iterations
    );

    // Pretend the device only fits ~1/4 of the shard arrays.
    let footprint: u64 = graph.num_edges() as u64 * 20;
    let budget = footprint / 4;
    for (streams, overlap) in [(1, false), (2, true)] {
        let mut cfg = StreamingConfig::new(base.clone(), budget);
        cfg.overlap = overlap;
        let out = run_streamed(&prog, &graph, &cfg);
        assert_eq!(out.values, in_core.values, "streamed results must match");
        println!(
            "streamed x{streams}  : {:>8.2} ms, {} iterations ({} the copies)",
            out.stats.total_ms(),
            out.stats.iterations,
            if overlap {
                "overlapping"
            } else {
                "serializing"
            },
        );
    }
    println!("results identical across all three runs");
}
