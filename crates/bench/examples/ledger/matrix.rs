//! `matrix_jobs`: the `repro` path — one `run_matrix_jobs` call over the six
//! dataset surrogates, then a four-device fleet run — timed at `jobs` host
//! threads. The one workload where parallelism is the thing measured.

use crate::harness::{timed_ms, HostReference, Spans, HARNESS};
use crate::workload::{
    hubs_first, pick_source, seeded_rmat, settle, Pass, ProbeInputs, Workload, MAX_ITERATIONS,
};
use cusha::algos::{run_sequential, Bfs, Sssp, TraversalKind};
use cusha::baselines::{run_mtcpu, run_vwc, MtcpuConfig, VwcConfig};
use cusha::core::{
    run, try_run_multi, CuShaConfig, CuShaOutput, MultiConfig, Repr, RunStats, VertexProgram,
};
use cusha::frontier::{run_frontier, FrontierConfig};
use cusha::graph::surrogates::Dataset;
use cusha::graph::{Graph, VertexId};
use cusha_bench::bench_defs::{default_source, Benchmark, Engine};
use cusha_bench::matrix::{run_matrix_jobs, CellResult, MatrixResult};
use std::path::{Path, PathBuf};

/// Surrogate scale divisor. The issue asked for 32; at 32 one pass takes
/// 10 s on two cores, which leaves a run a single sample, so the matrix is
/// a quarter of that.
pub const SCALE: u64 = 128;
const BENCHMARKS: [Benchmark; 2] = [Benchmark::Bfs, Benchmark::Sssp];
const FLEET_DEVICES: usize = 4;
/// Convergence cap handed to the matrix, as `repro` does.
const MATRIX_MAX_ITERATIONS: u32 = 300;

fn engines(mtcpu_threads: usize) -> [Engine; 5] {
    [
        Engine::CuShaGs,
        Engine::CuShaCw,
        Engine::Vwc(32),
        Engine::Frontier,
        Engine::Mtcpu(mtcpu_threads),
    ]
}

/// The whole matrix in one call, as `repro` makes it: both benchmarks on
/// the four simulated engines of every surrogate spread over `jobs`
/// threads, then the MTCPU column at `jobs` threads of its own.
pub fn run_script(scale: u64, jobs: usize) -> MatrixResult {
    run_matrix_jobs(
        &Dataset::ALL,
        &BENCHMARKS,
        &engines(jobs),
        scale,
        MATRIX_MAX_ITERATIONS,
        false,
        jobs,
    )
}

/// One CSV row per simulated cell (modeled times, iterations, convergence,
/// efficiencies), in matrix order. The host-clock MTCPU cells are left out:
/// these rows must repeat byte for byte at any job count.
pub fn simulated_rows(m: &MatrixResult) -> Vec<String> {
    let mut m = m.clone();
    m.cells.retain(|c| c.engine.is_gpu());
    m.to_csv().lines().skip(1).map(str::to_string).collect()
}

/// What `bench_defs` runs for a cell, but keeping the values: the matrix
/// itself returns statistics only.
fn run_with_values<P: VertexProgram>(prog: &P, g: &Graph, e: Engine) -> (Vec<P::V>, RunStats) {
    let shard = |repr| {
        let mut cfg = CuShaConfig::new(repr);
        cfg.max_iterations = MATRIX_MAX_ITERATIONS;
        let out = run(prog, g, &cfg);
        (out.values, out.stats)
    };
    match e {
        Engine::CuShaGs => shard(Repr::GShards),
        Engine::CuShaCw => shard(Repr::ConcatWindows),
        Engine::Vwc(width) => {
            let mut cfg = VwcConfig::new(width);
            cfg.max_iterations = MATRIX_MAX_ITERATIONS;
            let out = run_vwc(prog, g, &cfg);
            (out.values, out.stats)
        }
        Engine::Mtcpu(threads) => {
            let mut cfg = MtcpuConfig::new(threads);
            cfg.max_iterations = MATRIX_MAX_ITERATIONS;
            let out = run_mtcpu(prog, g, &cfg);
            (out.values, out.stats)
        }
        Engine::Frontier => {
            let mut cfg = FrontierConfig::new();
            cfg.max_iterations = MATRIX_MAX_ITERATIONS;
            let out = run_frontier(prog, g, &cfg);
            (out.values, out.stats)
        }
    }
}

/// Runs every cell of the matrix once with its values kept and compares them
/// bit for bit with `run_sequential`. Returns the simulated cells' rows: a
/// timed matrix cell that reproduces its row is the run whose answer was
/// checked here.
fn oracle_checked_rows(scale: u64, mtcpu_threads: usize) -> Vec<String> {
    fn check<P: VertexProgram<V = u32>>(
        prog: &P,
        ds: Dataset,
        b: Benchmark,
        g: &Graph,
        mtcpu_threads: usize,
        cells: &mut Vec<CellResult>,
    ) {
        let oracle = run_sequential(prog, g, MAX_ITERATIONS);
        for e in engines(mtcpu_threads) {
            let (values, stats) = run_with_values(prog, g, e);
            assert!(
                stats.converged && values == oracle.values,
                "set-up: {ds} {b} on {} disagrees with the host oracle",
                e.label()
            );
            cells.push(CellResult {
                dataset: ds,
                benchmark: b,
                engine: e,
                stats,
            });
        }
    }
    let mut cells = Vec::new();
    for ds in Dataset::ALL {
        let g = ds.generate(scale);
        let source = default_source(&g);
        for b in BENCHMARKS {
            match b {
                Benchmark::Bfs => check(&Bfs::new(source), ds, b, &g, mtcpu_threads, &mut cells),
                Benchmark::Sssp => check(&Sssp::new(source), ds, b, &g, mtcpu_threads, &mut cells),
                other => unreachable!("{other} is not in BENCHMARKS"),
            }
        }
    }
    simulated_rows(&MatrixResult {
        cells,
        scale,
        graph_sizes: Vec::new(),
    })
}

pub struct MatrixJobs {
    seed: u64,
    tmp: PathBuf,
    jobs: usize,
    scale: u64,
    fleet_graph: Graph,
    fleet: (VertexId, Vec<u32>),
    /// Row per simulated cell from the oracle-checked set-up runs; every
    /// timed cell must reproduce its own.
    reference: Vec<String>,
}

impl MatrixJobs {
    pub fn setup(seed: u64, quick: bool, jobs: usize, tmp: &Path) -> Self {
        // The surrogates carry fixed seeds of their own, as in `repro`; the
        // benchmark's seed draws the fleet half of the script.
        let fleet_graph = seeded_rmat(14, 250_000, seed, quick);
        let fleet = pick_source(
            &fleet_graph,
            TraversalKind::Bfs,
            &hubs_first(&fleet_graph),
            (!quick).then_some(4),
            4,
        );
        let scale = if quick { SCALE * 8 } else { SCALE };
        MatrixJobs {
            seed,
            tmp: tmp.to_path_buf(),
            jobs,
            scale,
            fleet_graph,
            fleet,
            reference: oracle_checked_rows(scale, jobs),
        }
    }
}

/// BFS/CW on a PCIe fleet of four simulated devices at `jobs` host threads.
pub fn fleet_run(g: &Graph, source: VertexId, jobs: usize) -> Option<(Vec<u32>, RunStats)> {
    let cfg = MultiConfig::new(CuShaConfig::cw(), FLEET_DEVICES).with_jobs(jobs);
    settle(
        try_run_multi(&Bfs::new(source), g, &cfg).map(|o| CuShaOutput {
            stats: o.stats.as_run_stats(),
            values: o.values,
        }),
    )
}

impl Workload for MatrixJobs {
    fn pass(&mut self, spans: &mut Spans, host: &mut HostReference) -> Pass {
        let mut pass = Pass::default();
        let mut matrix = None;
        let mut fleet_out = None;
        let (wall_ms, ()) = timed_ms(|| {
            spans.scope(HARNESS, "pass", |s| {
                let (ms, m) = timed_ms(|| {
                    s.scope("bench", "run_matrix_jobs", |_| {
                        run_script(self.scale, self.jobs)
                    })
                });
                pass.op_ms.push(ms);
                matrix = Some(m);
                host.tick();
                let (ms, out) = timed_ms(|| {
                    s.scope("core", "fleet_run", |_| {
                        fleet_run(&self.fleet_graph, self.fleet.0, self.jobs)
                    })
                });
                pass.op_ms.push(ms);
                fleet_out = out;
            })
        });
        pass.wall_s = wall_ms / 1e3;

        let matrix = matrix.expect("the pass ran the matrix");
        let edges_of = |ds: Dataset| {
            matrix
                .graph_sizes
                .iter()
                .find(|(d, ..)| *d == ds)
                .map_or(0, |&(_, e, _)| e)
        };
        let rows = simulated_rows(&matrix);
        let simulated = matrix.cells.iter().filter(|c| c.engine.is_gpu());
        for (i, c) in simulated.enumerate() {
            pass.book_run(&c.stats, edges_of(c.dataset));
            pass.book_op(rows.get(i) == self.reference.get(i));
        }
        // A cell the matrix left out is a failed operation too.
        for _ in rows.len()..self.reference.len() {
            pass.book_op(false);
        }
        // MTCPU's sweep count depends on how its threads interleave; its
        // values were checked in set-up, here it must converge.
        for c in matrix.cells.iter().filter(|c| !c.engine.is_gpu()) {
            pass.book_op(c.stats.converged);
        }
        let fleet_ok = fleet_out.as_ref().is_some_and(|(values, stats)| {
            pass.book_run(stats, u64::from(self.fleet_graph.num_edges()));
            stats.converged && *values == self.fleet.1
        });
        pass.book_op(fleet_ok);
        pass
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            graph: &self.fleet_graph,
            source: self.fleet.0,
            seed: self.seed,
            tmp: self.tmp.clone(),
            matrix_scale: self.scale,
        }
    }
}
