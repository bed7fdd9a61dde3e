//! `oneshot_powerlaw` and `oneshot_road`: the `cusha` one-shot path as cold
//! cells — load the file, size and build the layout, run, compare — on the
//! two input regimes the simulator behaves oppositely on.

use crate::harness::{timed_ms, HostReference, Rng, Spans, HARNESS};
use crate::workload::{
    distinct_sources, hubs_first, pick_source, seeded_rmat, settle, Pass, ProbeInputs, RunResult,
    Workload, MAX_ITERATIONS, PROBE_MATRIX_SCALE,
};
use cusha::algos::pagerank::DAMPING;
use cusha::algos::{run_sequential, Bfs, PageRank, Sssp, TraversalKind, INF};
use cusha::baselines::{try_run_vwc, VwcConfig};
use cusha::core::{
    try_run_streamed, try_run_warm, CuShaConfig, CuShaOutput, IntegrityConfig, IntegrityMode,
    NoopObserver, PreparedLayout, Repr, RunStats, StreamingConfig, VertexProgram,
};
use cusha::frontier::{
    host_kcore, host_triangles, try_run_frontier_warm, try_run_kcore, try_run_triangles,
    FrontierConfig, PreparedFrontier,
};
use cusha::graph::generators::{lattice2d, random_permutation};
use cusha::graph::{io, Graph, VertexId};
use std::path::{Path, PathBuf};

/// PageRank cells stop here: eight sweeps of every edge is the unit of
/// work, not convergence.
const PAGERANK_ITERATIONS: u32 = 8;

/// Oracle sweep counts the traversal sources are conditioned on (see
/// `workload::pick_source`): the modal depth of each input class at full
/// size.
const POWERLAW_DEPTH: (u32, u32) = (4, 6);
const ROAD_DEPTH: (u32, u32) = (33, 43);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Algo {
    Bfs,
    Sssp,
}

/// How a traversal cell executes once its graph is loaded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    Shard(Repr),
    Vwc,
    Frontier,
    CwIntegrityFull,
    CwStreamed,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell {
    Traversal {
        algo: Algo,
        engine: Engine,
        from_text: bool,
    },
    PageRankCw,
    Kcore,
    Triangles,
}

pub struct Oneshot {
    graph: Graph,
    seed: u64,
    tmp: PathBuf,
    bin: PathBuf,
    text: PathBuf,
    cells: Vec<Cell>,
    bfs: (VertexId, Vec<u32>),
    sssp: (VertexId, Vec<u32>),
    pagerank_bits: Vec<u32>,
    kcore: Vec<u32>,
    triangles: u64,
}

/// The road surrogate of `graph::surrogates::Dataset::RoadNetCA`, but with
/// the lattice, its shortcuts and its relabelling all drawn from `seed`.
fn road_graph(side: u32, seed: u64) -> Graph {
    const SPARSITY: f64 = 2.8;
    let n = u64::from(side) * u64::from(side);
    let target_e = (n as f64 * SPARSITY) as u64;
    let grid_links = 4 * n - 4 * u64::from(side);
    let keep = (target_e as f64 * 0.995 / grid_links as f64).min(1.0);
    let shortcuts = (target_e as f64 * 0.005) as u64;
    let grid = lattice2d(side, side, keep, shortcuts, seed);
    let perm = random_permutation(grid.num_vertices(), seed);
    grid.relabeled(&perm)
}

/// Ties the capped PageRank cell to the host oracle and returns the bits it
/// must reproduce. PageRank's iterates differ between engines (a shard sees
/// its neighbours' updates of the same sweep); only the fixed point is
/// common. So CW is first run to convergence and held to `run_sequential`'s
/// answer: each stops once no rank moves by more than the program's
/// tolerance, which with damping `d` leaves it within `tolerance / (1 - d)`
/// of the fixed point, relative to the rank's size — twice that is the band.
/// The same engine stopped at `PAGERANK_ITERATIONS` on the simulator's plain
/// interpreter (replay memo off) then gives the bits every fast path must
/// match.
fn pagerank_reference(graph: &Graph) -> Vec<u32> {
    let prog = PageRank::new();
    let band = 2.0 * prog.tolerance / (1.0 - DAMPING);
    let mut plain = CuShaConfig::cw();
    plain.device.replay_memo = false;
    let n_per = PreparedLayout::select_n_per(graph, &plain, 4);
    let layout = PreparedLayout::build(graph, Repr::ConcatWindows, n_per);
    let run = |cfg: &CuShaConfig| {
        settle(try_run_warm(
            &prog,
            graph,
            &layout,
            cfg,
            None,
            &mut NoopObserver,
        ))
        .expect("reference PageRank run")
    };
    let oracle = run_sequential(&prog, graph, MAX_ITERATIONS);
    let (fixed_point, stats) = run(&plain);
    let gap = fixed_point
        .iter()
        .zip(&oracle.values)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
        .fold(0.0, f32::max);
    assert!(
        oracle.converged && stats.converged && gap <= band,
        "set-up: converged PageRank on CW is {gap} (relative) away from the host oracle"
    );
    plain.max_iterations = PAGERANK_ITERATIONS;
    run(&plain).0.iter().map(|x| x.to_bits()).collect()
}

impl Oneshot {
    pub fn setup(road: bool, seed: u64, quick: bool, tmp: &Path) -> Self {
        let graph = if road {
            road_graph(if quick { 88 } else { 248 }, seed)
        } else {
            seeded_rmat(16, 1_000_000, seed, quick)
        };
        let bin = tmp.join("graph.bin");
        let text = tmp.join("graph.txt");
        io::save_binary(&graph, &bin).expect("temp dir is writable");

        let cw = Engine::Shard(Repr::ConcatWindows);
        let traversal = |algo, engine| Cell::Traversal {
            algo,
            engine,
            from_text: false,
        };
        let mut cells = Vec::new();
        for algo in [Algo::Bfs, Algo::Sssp] {
            for engine in [
                cw,
                Engine::Shard(Repr::GShards),
                Engine::Vwc,
                Engine::Frontier,
            ] {
                cells.push(traversal(algo, engine));
            }
        }
        cells.push(Cell::PageRankCw);
        cells.push(traversal(Algo::Bfs, Engine::CwIntegrityFull));
        if road {
            cells.push(Cell::Kcore);
            cells.push(Cell::Triangles);
        } else {
            io::save_edge_list(&graph, &text).expect("temp dir is writable");
            cells.push(traversal(Algo::Bfs, Engine::CwStreamed));
            cells.push(Cell::Traversal {
                algo: Algo::Bfs,
                engine: cw,
                from_text: true,
            });
        }

        // Hubs almost always sit at the nominal depth; a random lattice
        // vertex does about one time in five, hence the longer list.
        let (candidates, depth) = if road {
            let mut rng = Rng(seed ^ 0x50_7263);
            (distinct_sources(&graph, 12, &[], &mut rng), ROAD_DEPTH)
        } else {
            (hubs_first(&graph)[..4].to_vec(), POWERLAW_DEPTH)
        };
        let target = |d: u32| (!quick).then_some(d);
        let tries = candidates.len();
        let bfs = pick_source(
            &graph,
            TraversalKind::Bfs,
            &candidates,
            target(depth.0),
            tries,
        );
        let sssp = pick_source(
            &graph,
            TraversalKind::Sssp,
            &candidates,
            target(depth.1),
            tries,
        );

        let pagerank_bits = pagerank_reference(&graph);

        let (kcore, triangles) = if road {
            (host_kcore(&graph), host_triangles(&graph))
        } else {
            (Vec::new(), 0)
        };

        let this = Oneshot {
            graph,
            seed,
            tmp: tmp.to_path_buf(),
            bin,
            text,
            cells,
            bfs,
            sssp,
            pagerank_bits,
            kcore,
            triangles,
        };
        // Warm-up: one cell faults in the code, the allocator's arenas and
        // the graph file's pages.
        let warm = this.run_cell(this.cells[0], &mut Spans::new(false));
        assert!(warm.is_some(), "warm-up cell disagrees with the oracle");
        this
    }

    /// Runs one cell; `None` when it errored or disagreed with the oracle.
    fn run_cell(&self, cell: Cell, spans: &mut Spans) -> Option<RunStats> {
        spans.scope(HARNESS, "cell", |s| {
            let from_text = matches!(
                cell,
                Cell::Traversal {
                    from_text: true,
                    ..
                }
            );
            let g = if from_text {
                s.scope("graph", "load_edge_list", |_| {
                    io::load_edge_list(&self.text)
                })
            } else {
                s.scope("graph", "load_binary", |_| io::load_binary(&self.bin))
            }
            .ok()?;
            match cell {
                Cell::Traversal { algo, engine, .. } => {
                    let (result, oracle) = match algo {
                        Algo::Bfs => (run_on(engine, &Bfs::new(self.bfs.0), &g, s), &self.bfs.1),
                        Algo::Sssp => {
                            (run_on(engine, &Sssp::new(self.sssp.0), &g, s), &self.sssp.1)
                        }
                    };
                    let (values, stats) = settle(result)?;
                    let same = s.scope(HARNESS, "compare", |_| {
                        // The text format carries no vertex count, so a
                        // graph read back from it ends at its last vertex
                        // with an edge; the ones cut off were unreachable.
                        let (head, tail) = oracle.split_at(values.len().min(oracle.len()));
                        values == head
                            && (from_text || tail.is_empty())
                            && tail.iter().all(|&v| v == INF)
                    });
                    (same && stats.converged).then_some(stats)
                }
                Cell::PageRankCw => {
                    let (values, stats) =
                        settle(shard_run(&PageRank::new(), &g, &pagerank_cfg(), s))?;
                    let same = s.scope(HARNESS, "compare", |_| {
                        values
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(self.pagerank_bits.iter().copied())
                    });
                    same.then_some(stats)
                }
                Cell::Kcore => {
                    let out = s
                        .scope("frontier", "kcore", |_| {
                            try_run_kcore(&g, &FrontierConfig::new(), None, &mut NoopObserver)
                        })
                        .ok()?;
                    let same = s.scope(HARNESS, "compare", |_| out.core == self.kcore);
                    same.then_some(out.stats)
                }
                Cell::Triangles => {
                    let out = s
                        .scope("frontier", "triangles", |_| {
                            try_run_triangles(&g, &FrontierConfig::new())
                        })
                        .ok()?;
                    (out.triangles == self.triangles).then_some(out.stats)
                }
            }
        })
    }
}

/// Runs `prog` over the loaded graph the way `engine` says, one span per
/// public call into a layer.
fn run_on<P: VertexProgram>(engine: Engine, prog: &P, g: &Graph, s: &mut Spans) -> RunResult<P::V> {
    match engine {
        Engine::Shard(repr) => shard_run(prog, g, &CuShaConfig::new(repr), s),
        Engine::CwIntegrityFull => {
            let mut cfg = CuShaConfig::cw();
            cfg.integrity = IntegrityConfig::with_mode(IntegrityMode::Full);
            shard_run(prog, g, &cfg, s)
        }
        Engine::CwStreamed => {
            // A BFS/CW entry is 16 bytes (value, DestIndex, SrcIndex,
            // Mapper); a quarter of the footprint stays resident.
            let resident = (u64::from(g.num_edges()) * 16 / 4).max(4096);
            let cfg = StreamingConfig::new(CuShaConfig::cw(), resident);
            s.scope("core", "streamed_run", |_| try_run_streamed(prog, g, &cfg))
        }
        Engine::Vwc => s.scope("baselines", "vwc_run", |_| {
            try_run_vwc(prog, g, &VwcConfig::new(32), None, &mut NoopObserver).map(|o| {
                CuShaOutput {
                    values: o.values,
                    stats: o.stats,
                }
            })
        }),
        Engine::Frontier => {
            let pf = s.scope("frontier", "prepare", |_| PreparedFrontier::build(g));
            s.scope("frontier", "run_warm", |_| {
                try_run_frontier_warm(
                    prog,
                    g,
                    &pf,
                    &FrontierConfig::new(),
                    None,
                    &mut NoopObserver,
                )
                .map(|o| CuShaOutput {
                    values: o.values,
                    stats: o.stats,
                })
            })
        }
    }
}

fn pagerank_cfg() -> CuShaConfig {
    let mut cfg = CuShaConfig::cw();
    cfg.max_iterations = PAGERANK_ITERATIONS;
    cfg
}

/// The shard engines' one-shot sequence, one span per public call.
fn shard_run<P: VertexProgram>(
    prog: &P,
    g: &Graph,
    cfg: &CuShaConfig,
    spans: &mut Spans,
) -> RunResult<P::V> {
    let n_per = spans.scope("core", "select_n_per", |_| {
        PreparedLayout::select_n_per(g, cfg, <P::V as cusha::simt::Pod>::SIZE)
    });
    let layout = spans.scope("core", "layout_build", |_| {
        PreparedLayout::build(g, cfg.repr, n_per)
    });
    spans.scope("core", "run_warm", |_| {
        try_run_warm(prog, g, &layout, cfg, None, &mut NoopObserver)
    })
}

impl Workload for Oneshot {
    fn pass(&mut self, spans: &mut Spans, host: &mut HostReference) -> Pass {
        let mut pass = Pass::default();
        let edges = u64::from(self.graph.num_edges());
        let (wall_ms, ()) = timed_ms(|| {
            spans.scope(HARNESS, "pass", |s| {
                for &cell in &self.cells {
                    let (ms, stats) = timed_ms(|| self.run_cell(cell, s));
                    pass.op_ms.push(ms);
                    pass.book_op(stats.is_some());
                    match stats {
                        Some(stats) => pass.book_run(&stats, edges),
                        None => {
                            eprintln!("ledger: cell {cell:?} errored or disagrees with the oracle")
                        }
                    }
                    host.tick();
                }
            })
        });
        pass.wall_s = wall_ms / 1e3;
        pass
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            graph: &self.graph,
            source: self.bfs.0,
            seed: self.seed,
            tmp: self.tmp.clone(),
            matrix_scale: PROBE_MATRIX_SCALE,
        }
    }
}
