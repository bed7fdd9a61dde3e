//! The frontier family's accounting, pinned. The frontier engine, k-core and
//! triangle counting run on the same simulated device as every other engine,
//! so how their kernels are *simulated* — what is interpreted, what is issued
//! in run form, what replays, in which order a block's ops go out — is free
//! to change, and what a run reports is not. `tests/golden/frontier_counters.json`
//! was generated at the commit before the family's kernels were restructured
//! and is compared line by line, with the replay memo on and off and a tracer
//! on and off.
//!
//! Cells: Frontier x {BFS, SSSP, PageRank capped at 6} x density threshold
//! {default, 0.0 = pull-only, 2.0 = push-only (frontier-safe programs)} on an
//! R-MAT of scale 8 and a 24x24 lattice with shortcuts; k-core and triangles
//! on both plus a multigraph with self-loops, duplicate and antiparallel
//! edges; all at 96 and 256 threads per block; everything again at 96 threads
//! on a 250-vertex cut of the R-MAT, where blocks and warps end ragged. Then
//! the SDC ladder (scheduled flips under `Checksum` / `Full`, budgets drained
//! down to the host fallback), which must detect and recover exactly as it
//! did. One line per cell, every field spelled out; for one traced cell per
//! kernel family a `trace` line carries the Chrome-trace length and FNV-1a,
//! which pins kernel names and phase sub-span totals. Regenerate — only for
//! an intended change of the *model* — with:
//!
//! ```sh
//! CUSHA_REGEN_GOLDEN=1 cargo test --test frontier_golden
//! ```

use cusha::algos::{Bfs, PageRank, Sssp};
use cusha::core::integrity::checksum;
use cusha::core::{
    Direction, EngineError, IntegrityConfig, IntegrityMode, NoopObserver, RunStats, VertexProgram,
};
use cusha::frontier::{try_run_frontier, try_run_kcore, try_run_triangles, FrontierConfig};
use cusha::graph::generators::lattice::lattice2d;
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{io::Fnv1a, Edge, Graph};
use cusha::obs::{chrome_trace_json, Tracer};
use cusha::simt::{FaultPlan, FlipTarget};
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/frontier_counters.json"
);

fn rmat8() -> Graph {
    rmat(&RmatConfig::graph500(8, 3000, 41))
}

/// `rmat8` without its last six vertices: 250 is a multiple of neither 96 nor
/// 32, so the last block is partial and its last warp is too.
fn ragged() -> Graph {
    let g = rmat8();
    let edges = g.edges().iter().filter(|e| e.src < 250 && e.dst < 250);
    Graph::new(250, edges.copied().collect())
}

fn road() -> Graph {
    lattice2d(24, 24, 0.9, 40, 5)
}

/// 90 vertices, the last six isolated: a sparse digraph with every third edge
/// doubled, every fifth also present reversed, and a self-loop on every
/// seventh vertex — what symmetrise + dedup has to clean up.
fn multigraph() -> Graph {
    let base = rmat(&RmatConfig::graph500(7, 600, 9));
    let mut edges = Vec::new();
    for (i, e) in base
        .edges()
        .iter()
        .filter(|e| e.src < 84 && e.dst < 84)
        .enumerate()
    {
        edges.push(*e);
        if i % 3 == 0 {
            edges.push(*e);
        }
        if i % 5 == 0 {
            edges.push(Edge::new(e.dst, e.src, e.weight));
        }
    }
    edges.extend((0..84).step_by(7).map(|v| Edge::new(v, v, 1)));
    Graph::new(90, edges)
}

/// How one run is configured besides its cell: the two switches a golden
/// line must not depend on.
#[derive(Clone, Copy)]
struct Variant {
    replay: bool,
    traced: bool,
}

fn config(threads_per_block: u32, v: Variant) -> FrontierConfig {
    let mut cfg = FrontierConfig::new();
    cfg.threads_per_block = threads_per_block;
    cfg.device.replay_memo = v.replay;
    if v.traced {
        cfg.trace = Tracer::enabled();
    }
    cfg
}

/// Every field of a frontier-family run record except `memo` (which the
/// replay switch is supposed to move), `fault` (no cell injects a copy or
/// kernel fault) and the engine label.
fn stats_json(s: &RunStats) -> String {
    let c = &s.kernel.counters;
    let mut out = format!(
        "\"kernel\":\"{}\",\"blocks\":{},\"threads_per_block\":{},\"iterations\":{},\
         \"converged\":{},\"total_seconds_bits\":{},\"h2d_bits\":{},\"compute_bits\":{},\
         \"d2h_bits\":{},\"counters\":{{\"warp_instructions\":{},\"active_lane_sum\":{},\
         \"gld_transactions\":{},\"gld_requested_bytes\":{},\"gst_transactions\":{},\
         \"gst_requested_bytes\":{},\"dram_sectors\":{},\"shared_accesses\":{},\
         \"bank_conflict_replays\":{},\"atomic_replays\":{}}},\"sdc\":{{\"flips_injected\":{},\
         \"checksum_detections\":{},\"invariant_detections\":{},\"rollbacks\":{},\
         \"full_restarts\":{},\"host_fallbacks\":{},\"checkpoints\":{},\
         \"reexecuted_iterations\":{}}},\"per_iteration\":[",
        s.kernel.name,
        s.kernel.blocks,
        s.kernel.threads_per_block,
        s.iterations,
        s.converged,
        s.total_seconds().to_bits(),
        s.h2d_seconds.to_bits(),
        s.compute_seconds.to_bits(),
        s.d2h_seconds.to_bits(),
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
        s.sdc.flips_injected,
        s.sdc.checksum_detections,
        s.sdc.invariant_detections,
        s.sdc.rollbacks,
        s.sdc.full_restarts,
        s.sdc.host_fallbacks,
        s.sdc.checkpoints,
        s.sdc.reexecuted_iterations,
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
    out.push_str("],\"frontier\":");
    match &s.frontier {
        None => out.push_str("null"),
        Some(f) => {
            let sizes: Vec<String> = f.sizes.iter().map(u64::to_string).collect();
            let directions: String = f
                .directions
                .iter()
                .map(|d| match d {
                    Direction::Push => 'p',
                    Direction::Pull => 'P',
                })
                .collect();
            write!(
                out,
                "{{\"sizes\":[{}],\"directions\":\"{directions}\",\"switches\":{}}}",
                sizes.join(","),
                f.switches
            )
            .unwrap();
        }
    }
    out
}

/// The Chrome trace of a run, digested. `REPLAY xN` instants are left out:
/// they are how a trace *shows* which launches replayed, the one thing the
/// replay switch is meant to change in it.
fn trace_json(name: &str, tracer: &Tracer) -> String {
    let doc: String = chrome_trace_json(tracer)
        .lines()
        .filter(|line| !line.contains("\"cat\":\"replay\""))
        .flat_map(|line| [line, "\n"])
        .collect();
    format!(
        "{{\"trace\":\"{name}\",\"bytes\":{},\"fnv1a\":\"{:016x}\"}}",
        doc.len(),
        Fnv1a::of(doc.as_bytes())
    )
}

/// The golden document under one variant: cell lines, then — from a traced
/// variant only — the trace lines of the cells named in `TRACED`.
#[derive(Default)]
struct Doc {
    cells: Vec<String>,
    traces: Vec<String>,
}

/// One traced cell per kernel family: push and pull advances with their
/// fused filter, k-core's scan / compaction / peel (one of them ragged), the
/// triangle intersection.
const TRACED: [&str; 5] = [
    "frontier/bfs/road/push/tpb96",
    "frontier/pagerank/rmat8/default/tpb256",
    "kcore/road/tpb256",
    "kcore/ragged/tpb96",
    "triangles/rmat8/tpb256",
];

impl Doc {
    fn push(&mut self, name: &str, body: String, cfg: &FrontierConfig) {
        self.cells.push(format!("{{\"cell\":\"{name}\",{body}}}"));
        if cfg.trace.is_enabled() && TRACED.contains(&name) {
            self.traces.push(trace_json(name, &cfg.trace));
        }
    }

    fn frontier<P: VertexProgram>(&mut self, name: &str, prog: &P, g: &Graph, cfg: FrontierConfig) {
        let (values, stats) = match try_run_frontier(prog, g, &cfg) {
            Ok(out) => (out.values, out.stats),
            Err(EngineError::NonConverged { partial }) => (partial.values, partial.stats),
            Err(e) => panic!("{name}: {e}"),
        };
        let body = format!(
            "\"values\":\"{:016x}\",{}",
            checksum(&values),
            stats_json(&stats)
        );
        self.push(name, body, &cfg);
    }

    fn kcore(&mut self, name: &str, g: &Graph, cfg: FrontierConfig) {
        let out = try_run_kcore(g, &cfg, None, &mut NoopObserver)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let body = format!(
            "\"values\":\"{:016x}\",\"degeneracy\":{},{}",
            checksum(&out.core),
            out.degeneracy,
            stats_json(&out.stats)
        );
        self.push(name, body, &cfg);
    }

    fn triangles(&mut self, name: &str, g: &Graph, cfg: FrontierConfig) {
        let out = try_run_triangles(g, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let body = format!("\"triangles\":{},{}", out.triangles, stats_json(&out.stats));
        self.push(name, body, &cfg);
    }
}

fn document(v: Variant) -> Doc {
    let mut doc = Doc::default();
    let graphs = [("rmat8", rmat8()), ("road", road()), ("ragged", ragged())];
    let thresholds = [
        ("default", cusha::frontier::DEFAULT_DENSITY_THRESHOLD),
        ("pull", 0.0),
        ("push", 2.0),
    ];
    for (gname, g) in &graphs {
        let tpbs: &[u32] = if *gname == "ragged" {
            &[96]
        } else {
            &[96, 256]
        };
        for &tpb in tpbs {
            for (tname, threshold) in thresholds {
                let cfg = || config(tpb, v).with_density_threshold(threshold);
                let name = |algo: &str| format!("frontier/{algo}/{gname}/{tname}/tpb{tpb}");
                doc.frontier(&name("bfs"), &Bfs::new(0), g, cfg());
                doc.frontier(&name("sssp"), &Sssp::new(0), g, cfg());
                // Not frontier-safe: every iteration runs pull whatever the
                // threshold says, so one threshold covers it.
                if tname == "default" {
                    let mut cfg = cfg();
                    cfg.max_iterations = 6;
                    doc.frontier(&name("pagerank"), &PageRank::new(), g, cfg);
                }
            }
        }
    }
    let multi = multigraph();
    for (gname, g) in graphs
        .iter()
        .map(|(n, g)| (*n, g))
        .chain([("multi", &multi)])
    {
        let tpbs: &[u32] = if gname == "ragged" { &[96] } else { &[96, 256] };
        for &tpb in tpbs {
            doc.kcore(&format!("kcore/{gname}/tpb{tpb}"), g, config(tpb, v));
            doc.triangles(&format!("triangles/{gname}/tpb{tpb}"), g, config(tpb, v));
        }
    }

    // The SDC ladder (`integrity::Recovery`, one for both): scheduled flips
    // into all three targets, landing after the first checkpoints exist. Both
    // roll back; with the rollback budget spent the frontier engine restarts;
    // with the budgets drained both end on their host oracle; with integrity
    // off the flips reach the output.
    let (g, lattice) = (&graphs[0].1, &graphs[1].1);
    let defended = |mode: IntegrityMode, flips: &[u64], budgets: (u32, u32)| {
        let targets = [
            FlipTarget::VertexValues,
            FlipTarget::SrcValue,
            FlipTarget::Window,
        ];
        let plan = flips
            .iter()
            .zip(targets)
            .fold(FaultPlan::new(), |p, (&op, t)| p.flip_at(op, t, 3 + op, 7));
        let mut cfg = config(256, v);
        cfg.fault_plan = Some(plan);
        cfg.integrity = IntegrityConfig {
            mode,
            checkpoint_every: 2,
            max_rollbacks: budgets.0,
            max_full_restarts: budgets.1,
        };
        cfg
    };
    for (mname, mode) in [
        ("off", IntegrityMode::Off),
        ("checksum", IntegrityMode::Checksum),
        ("invariant", IntegrityMode::Invariant),
        ("full", IntegrityMode::Full),
    ] {
        let name = format!("sdc/{mname}/frontier/sssp/road");
        let cfg = defended(mode, &[5, 9, 14], (8, 1));
        doc.frontier(&name, &Sssp::new(0), lattice, cfg);
        let name = format!("sdc/{mname}/kcore/rmat8");
        doc.kcore(&name, g, defended(mode, &[5], (8, 1)));
    }
    let (checksum, full) = (IntegrityMode::Checksum, IntegrityMode::Full);
    let cfg = defended(full, &[5], (0, 1));
    doc.frontier("sdc/restart/frontier/bfs/road", &Bfs::new(0), lattice, cfg);
    let cfg = defended(checksum, &[2], (0, 0));
    doc.frontier("sdc/fallback/frontier/bfs/rmat8", &Bfs::new(0), g, cfg);
    let cfg = defended(checksum, &[3, 8], (1, 0));
    doc.kcore("sdc/fallback/kcore/road", lattice, cfg);
    doc
}

fn render(cells: &[String], traces: &[String]) -> String {
    let lines: Vec<&str> = cells.iter().chain(traces).map(String::as_str).collect();
    format!(
        "{{\"schema\":\"cusha-frontier-golden/v1\",\"lines\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

#[test]
fn frontier_accounting_matches_the_golden_file() {
    let variants = [(true, true), (true, false), (false, true), (false, false)]
        .map(|(replay, traced)| Variant { replay, traced });
    let reference = document(variants[0]);
    if std::env::var_os("CUSHA_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN, render(&reference.cells, &reference.traces))
            .expect("write golden counters");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden counters");
    for v in variants {
        let doc = if v.replay && v.traced {
            render(&reference.cells, &reference.traces)
        } else {
            // An untraced variant has no trace lines of its own to offer.
            let doc = document(v);
            let traces = if v.traced {
                &doc.traces
            } else {
                &reference.traces
            };
            render(&doc.cells, traces)
        };
        let first_difference = doc
            .lines()
            .zip(golden.lines())
            .find(|(ours, theirs)| ours != theirs)
            .map(|(ours, theirs)| format!("\n  now:    {ours}\n  golden: {theirs}"));
        assert!(
            doc == golden,
            "frontier accounting (replay_memo={}, traced={}) drifted from {GOLDEN}: {}",
            v.replay,
            v.traced,
            first_difference.unwrap_or_else(|| "line counts differ".into())
        );
    }
}
