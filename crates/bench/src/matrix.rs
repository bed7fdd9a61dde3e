//! Parallel experiment-matrix runner.
//!
//! Most artifacts (Tables 4–7, Figures 7, 8, 10) derive from the same
//! (dataset × benchmark × engine) result matrix; this module computes it
//! once. GPU-engine cells are simulator runs (deterministic, modeled time)
//! and execute concurrently across host threads; MTCPU cells measure real
//! wall-clock time and therefore run sequentially with the machine to
//! themselves.

use crate::bench_defs::{Benchmark, Engine};
use cusha_core::RunStats;
use cusha_graph::surrogates::Dataset;
use cusha_graph::Graph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One matrix cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Input graph.
    pub dataset: Dataset,
    /// Benchmark run.
    pub benchmark: Benchmark,
    /// Engine used.
    pub engine: Engine,
    /// Run statistics.
    pub stats: RunStats,
}

/// The full result matrix.
#[derive(Clone, Debug)]
pub struct MatrixResult {
    /// All computed cells.
    pub cells: Vec<CellResult>,
    /// The scale divisor the graphs were generated with.
    pub scale: u64,
    /// Per dataset: `(edges, vertices)` of the generated surrogate.
    pub graph_sizes: Vec<(Dataset, u64, u64)>,
}

impl MatrixResult {
    /// Finds one cell.
    pub fn get(&self, ds: Dataset, b: Benchmark, e: Engine) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.dataset == ds && c.benchmark == b && c.engine == e)
    }

    /// All cells for `(dataset, benchmark)` whose engine satisfies `pred`.
    pub fn select(
        &self,
        ds: Dataset,
        b: Benchmark,
        pred: impl Fn(Engine) -> bool,
    ) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.dataset == ds && c.benchmark == b && pred(c.engine))
            .collect()
    }

    /// `(min, max)` total ms across the VWC virtual-warp configurations.
    pub fn vwc_range_ms(&self, ds: Dataset, b: Benchmark) -> Option<(f64, f64)> {
        range_ms(&self.select(ds, b, |e| matches!(e, Engine::Vwc(_))))
    }

    /// `(min, max)` total ms across the MTCPU thread counts.
    pub fn mtcpu_range_ms(&self, ds: Dataset, b: Benchmark) -> Option<(f64, f64)> {
        range_ms(&self.select(ds, b, |e| matches!(e, Engine::Mtcpu(_))))
    }

    /// The best (fastest) VWC cell for `(dataset, benchmark)`.
    pub fn best_vwc(&self, ds: Dataset, b: Benchmark) -> Option<&CellResult> {
        self.select(ds, b, |e| matches!(e, Engine::Vwc(_)))
            .into_iter()
            .min_by(|a, b| a.stats.total_ms().total_cmp(&b.stats.total_ms()))
    }
}

impl MatrixResult {
    /// Serializes every cell as CSV (one row per engine run) for external
    /// analysis/plotting: dataset, benchmark, engine, times, iterations,
    /// convergence, and the three profiled efficiencies.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "dataset,benchmark,engine,total_ms,h2d_ms,compute_ms,d2h_ms,\
             iterations,converged,gld_efficiency,gst_efficiency,warp_efficiency\n",
        );
        for c in &self.cells {
            let s = &c.stats;
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{:.6},{:.6},{:.6}\n",
                c.dataset,
                c.benchmark,
                c.engine.label(),
                s.total_ms(),
                s.h2d_seconds * 1e3,
                s.compute_seconds * 1e3,
                s.d2h_seconds * 1e3,
                s.iterations,
                s.converged,
                s.kernel.gld_efficiency(),
                s.kernel.gst_efficiency(),
                s.kernel.warp_execution_efficiency(),
            ));
        }
        out
    }
}

fn range_ms(cells: &[&CellResult]) -> Option<(f64, f64)> {
    if cells.is_empty() {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for c in cells {
        let ms = c.stats.total_ms();
        lo = lo.min(ms);
        hi = hi.max(ms);
    }
    Some((lo, hi))
}

/// Runs one cell.
pub fn run_cell(
    g: &Graph,
    ds: Dataset,
    b: Benchmark,
    e: Engine,
    max_iterations: u32,
) -> CellResult {
    CellResult {
        dataset: ds,
        benchmark: b,
        engine: e,
        stats: b.run(g, e, max_iterations),
    }
}

/// Computes the matrix over the cross product of the inputs.
///
/// `scale` is the surrogate scale divisor (see
/// [`cusha_graph::surrogates::Dataset::generate`]); `verbose` streams
/// per-cell progress to stderr through the [`cusha_obs::log`] logger
/// (info level, so `--log-level warn` silences it).
pub fn run_matrix(
    datasets: &[Dataset],
    benchmarks: &[Benchmark],
    engines: &[Engine],
    scale: u64,
    max_iterations: u32,
    verbose: bool,
) -> MatrixResult {
    run_matrix_jobs(
        datasets,
        benchmarks,
        engines,
        scale,
        max_iterations,
        verbose,
        0,
    )
}

/// Resolves a requested job count to the worker-thread count actually used:
/// an explicit `requested > 0` wins, else the host's available parallelism,
/// else 1.
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `work(0..n)` on `effective_jobs(jobs).min(n)` workers, results in item
/// order. Slot-indexed reassembly: workers claim items through the shared
/// counter in whatever order the scheduler allows, but every result lands in
/// its item's own slot, so the finished vector is in work-item order no
/// matter how the race went.
///
/// The calling thread is one of the workers; only the others are spawned.
/// Its allocator arena holds what earlier calls freed, so a repeated call
/// reuses that memory instead of growing one more fresh arena per call —
/// with every worker spawned, the process's peak resident set moved 10% from
/// run to run with where the allocator had parked the freed pages.
fn pooled<T: Send>(n: usize, jobs: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = effective_jobs(jobs).min(n.max(1));
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        *slots[i].lock().expect("a slot is locked only to be filled") = Some(work(i));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(drain);
        }
        drain();
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("scope joined every worker"))
        .map(|cell| cell.expect("every item computed"))
        .collect()
}

/// [`run_matrix`] with an explicit worker-thread count for surrogate
/// generation and the GPU cells (`0` = the host's available parallelism).
/// Generation and every cell are deterministic and both result vectors are
/// reassembled in work-item order, so any `jobs` value yields a
/// byte-identical matrix — `jobs` only changes how the wall clock is spent.
#[allow(clippy::too_many_arguments)]
pub fn run_matrix_jobs(
    datasets: &[Dataset],
    benchmarks: &[Benchmark],
    engines: &[Engine],
    scale: u64,
    max_iterations: u32,
    verbose: bool,
    jobs: usize,
) -> MatrixResult {
    // Surrogates are generated on the worker pool too — one item per
    // dataset, results in dataset order — not serially before it starts.
    let generated = pooled(datasets.len(), jobs, |i| datasets[i].generate(scale));
    let graphs: Vec<(Dataset, Graph)> = datasets.iter().copied().zip(generated).collect();
    let graph_sizes = graphs
        .iter()
        .map(|(ds, g)| (*ds, g.num_edges() as u64, g.num_vertices() as u64))
        .collect();

    // Work items, GPU first (parallel), CPU afterwards (sequential).
    let mut gpu_items = Vec::new();
    let mut cpu_items = Vec::new();
    for (gi, (ds, _)) in graphs.iter().enumerate() {
        for &b in benchmarks {
            for &e in engines {
                if e.is_gpu() {
                    gpu_items.push((gi, *ds, b, e));
                } else {
                    cpu_items.push((gi, *ds, b, e));
                }
            }
        }
    }

    let mut cells = pooled(gpu_items.len(), jobs, |i| {
        let (gi, ds, b, e) = gpu_items[i];
        let cell = run_cell(&graphs[gi].1, ds, b, e, max_iterations);
        if verbose {
            cusha_obs::log::write(
                cusha_obs::Level::Info,
                &format!(
                    "matrix [{}/{}] {} {} {}: {:.1} ms ({} iters)",
                    i + 1,
                    gpu_items.len(),
                    ds,
                    b,
                    e.label(),
                    cell.stats.total_ms(),
                    cell.stats.iterations
                ),
            );
        }
        cell
    });
    cells.reserve(cpu_items.len());
    for (gi, ds, b, e) in cpu_items {
        let cell = run_cell(&graphs[gi].1, ds, b, e, max_iterations);
        if verbose {
            cusha_obs::log::write(
                cusha_obs::Level::Info,
                &format!(
                    "matrix [cpu] {} {} {}: {:.1} ms ({} iters)",
                    ds,
                    b,
                    e.label(),
                    cell.stats.total_ms(),
                    cell.stats.iterations
                ),
            );
        }
        cells.push(cell);
    }
    MatrixResult {
        cells,
        scale,
        graph_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: u64 = 2048;

    #[test]
    fn small_matrix_runs_and_indexes() {
        let m = run_matrix(
            &[Dataset::Amazon0312],
            &[Benchmark::Bfs, Benchmark::Sssp],
            &[
                Engine::CuShaGs,
                Engine::CuShaCw,
                Engine::Vwc(8),
                Engine::Vwc(32),
                Engine::Mtcpu(2),
            ],
            SCALE,
            500,
            false,
        );
        assert_eq!(m.cells.len(), 2 * 5);
        let cell = m
            .get(Dataset::Amazon0312, Benchmark::Bfs, Engine::CuShaCw)
            .unwrap();
        assert!(cell.stats.converged);
        let (lo, hi) = m.vwc_range_ms(Dataset::Amazon0312, Benchmark::Bfs).unwrap();
        assert!(lo <= hi);
        let best = m.best_vwc(Dataset::Amazon0312, Benchmark::Sssp).unwrap();
        assert!((best.stats.total_ms() - lo).abs() >= 0.0);
        assert!(m
            .mtcpu_range_ms(Dataset::Amazon0312, Benchmark::Bfs)
            .is_some());
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let m = run_matrix(
            &[Dataset::Amazon0312],
            &[Benchmark::Bfs],
            &[Engine::CuShaGs, Engine::Vwc(8)],
            SCALE,
            300,
            false,
        );
        let csv = m.to_csv();
        assert_eq!(csv.lines().count(), 1 + m.cells.len());
        assert!(csv.starts_with("dataset,benchmark,engine"));
        assert!(csv.contains("Amazon0312,BFS,CuSha-GS,"));
    }

    #[test]
    fn jobs_do_not_change_the_matrix() {
        // The slot-indexed reassembly must make the worker count
        // observationally invisible: byte-identical CSV (every modeled
        // time, counter and convergence flag) at 1 vs 4 workers. Simulated
        // engines only — the MTCPU baseline reports real host wall clock,
        // which is nondeterministic run-to-run regardless of jobs.
        let run = |jobs| {
            run_matrix_jobs(
                &[Dataset::Amazon0312, Dataset::WebGoogle],
                &[Benchmark::Bfs, Benchmark::Pr],
                &[Engine::CuShaGs, Engine::CuShaCw, Engine::Vwc(32)],
                SCALE,
                200,
                false,
                jobs,
            )
            .to_csv()
        };
        assert_eq!(run(1), run(4), "matrix CSV diverged across job counts");
    }

    #[test]
    fn missing_cell_returns_none() {
        let m = run_matrix(
            &[Dataset::WebGoogle],
            &[Benchmark::Cc],
            &[Engine::CuShaGs],
            SCALE,
            500,
            false,
        );
        assert!(m
            .get(Dataset::WebGoogle, Benchmark::Cc, Engine::CuShaCw)
            .is_none());
        assert!(m.vwc_range_ms(Dataset::WebGoogle, Benchmark::Cc).is_none());
    }
}
