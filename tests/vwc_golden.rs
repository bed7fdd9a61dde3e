//! VWC-CSR's accounting, pinned. Every paper-facing comparison is CuSha
//! *against* this baseline, so its counters and modeled clock are part of
//! the result: a change to how the kernel is simulated (what is interpreted,
//! what replays, in which order ops are issued) must reproduce them bit for
//! bit. The golden file was generated at the commit before the kernel was
//! restructured per block; it is compared byte for byte, with the replay
//! memo on and off and a tracer on and off.
//!
//! Cells: VWC/{2, 8, 32} x {BFS, SSSP, PageRank} x outlier deferral
//! {off, 16} on an R-MAT of scale 8 (PageRank covers the static-value
//! gather, SSSP the edge-value load, deferral the second pass), plus SSSP
//! on a 250-vertex cut of the same graph at 96 threads per block, where
//! blocks and warps end ragged. Regenerate — only for an intended change of
//! the *model* — with:
//!
//! ```sh
//! CUSHA_REGEN_GOLDEN=1 cargo test --test vwc_golden
//! ```

use cusha::algos::{Bfs, PageRank, Sssp};
use cusha::baselines::{run_vwc, VwcConfig};
use cusha::core::{RunStats, VertexProgram};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::Graph;
use cusha::obs::Tracer;
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/vwc_rmat8_counters.json"
);

const WIDTHS: [usize; 3] = [2, 8, 32];
const DEFERRAL: [Option<u32>; 2] = [None, Some(16)];

fn rmat8() -> Graph {
    rmat(&RmatConfig::graph500(8, 3000, 41))
}

/// `rmat8` without its last six vertices: 250 is a multiple of no block's
/// vertex count at 96 threads, so every width ends in a partial block.
fn ragged() -> Graph {
    let g = rmat8();
    let edges = g.edges().iter().filter(|e| e.src < 250 && e.dst < 250);
    Graph::new(250, edges.copied().collect())
}

fn cell_json(name: &str, s: &RunStats) -> String {
    let c = &s.kernel.counters;
    let mut out = format!(
        "{{\"cell\":\"{name}\",\"iterations\":{},\"total_seconds_bits\":{},\"counters\":{{\
         \"warp_instructions\":{},\"active_lane_sum\":{},\"gld_transactions\":{},\
         \"gld_requested_bytes\":{},\"gst_transactions\":{},\"gst_requested_bytes\":{},\
         \"dram_sectors\":{},\"shared_accesses\":{},\"bank_conflict_replays\":{},\
         \"atomic_replays\":{}}},\"per_iteration\":[",
        s.iterations,
        s.total_seconds().to_bits(),
        c.warp_instructions,
        c.active_lane_sum,
        c.gld_transactions,
        c.gld_requested_bytes,
        c.gst_transactions,
        c.gst_requested_bytes,
        c.dram_sectors,
        c.shared_accesses,
        c.bank_conflict_replays,
        c.atomic_replays,
    );
    for (i, it) in s.per_iteration.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}[{},{}]",
            it.seconds.to_bits(),
            it.updated_vertices
        )
        .unwrap();
    }
    out.push_str("]}");
    out
}

fn cells_of<P: VertexProgram>(
    out: &mut Vec<String>,
    prog: &P,
    g: &Graph,
    tag: &str,
    threads_per_block: u32,
    replay: bool,
    traced: bool,
) {
    for vw in WIDTHS {
        for defer in DEFERRAL {
            let mut cfg = VwcConfig::new(vw);
            cfg.threads_per_block = threads_per_block;
            cfg.defer_outliers = defer;
            cfg.device.replay_memo = replay;
            if traced {
                cfg.trace = Tracer::enabled();
            }
            let run = run_vwc(prog, g, &cfg);
            let defer = defer.map_or("off".to_string(), |t| t.to_string());
            let name = format!("vwc{vw}/{tag}/defer={defer}");
            assert!(run.stats.converged, "{name} did not converge");
            out.push(cell_json(&name, &run.stats));
        }
    }
}

fn document(replay: bool, traced: bool) -> String {
    let (g, cut) = (rmat8(), ragged());
    let mut cells = Vec::new();
    cells_of(&mut cells, &Bfs::new(0), &g, "bfs", 256, replay, traced);
    cells_of(&mut cells, &Sssp::new(0), &g, "sssp", 256, replay, traced);
    cells_of(
        &mut cells,
        &PageRank::new(),
        &g,
        "pagerank",
        256,
        replay,
        traced,
    );
    cells_of(
        &mut cells,
        &Sssp::new(0),
        &cut,
        "sssp-ragged",
        96,
        replay,
        traced,
    );
    format!(
        "{{\"schema\":\"cusha-vwc-golden/v1\",\"cells\":[\n{}\n]}}\n",
        cells.join(",\n")
    )
}

#[test]
fn vwc_accounting_matches_the_golden_file() {
    let plain = document(true, false);
    if std::env::var_os("CUSHA_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &plain).expect("write golden counters");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden counters");
    let first_difference = |doc: &str| {
        doc.lines()
            .zip(golden.lines())
            .find(|(ours, theirs)| ours != theirs)
            .map(|(ours, theirs)| format!("\n  now:    {ours}\n  golden: {theirs}"))
    };
    for (replay, traced) in [(true, false), (false, false), (true, true), (false, true)] {
        let doc = if (replay, traced) == (true, false) {
            plain.clone()
        } else {
            document(replay, traced)
        };
        assert!(
            doc == golden,
            "VWC accounting (replay_memo={replay}, traced={traced}) drifted from {GOLDEN}: {}",
            first_difference(&doc).unwrap_or_else(|| "line counts differ".into())
        );
    }
}
