//! Parallel experiment-matrix runner.
//!
//! Most artifacts (Tables 4–7, Figures 7, 8, 10) derive from the same
//! (dataset × benchmark × engine) result matrix; this module computes it
//! once. GPU-engine cells are simulator runs (deterministic, modeled time)
//! and execute concurrently across host threads; MTCPU cells measure real
//! wall-clock time and therefore run sequentially with the machine to
//! themselves. Cells of one dataset that run over the same topology
//! ([`Family`]) borrow one build of it from the dataset's [`Prepared`].

use crate::bench_defs::{default_source, Benchmark, Engine};
use cusha_core::RunStats;
use cusha_frontier::{Family, Prepared};
use cusha_graph::surrogates::Dataset;
use cusha_graph::{Graph, VertexId};
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

/// Resolves a requested job count to the worker-thread count actually used:
/// an explicit `requested > 0` wins, else the host's available parallelism
/// ([`cusha_graph::par::cores`]), else 1.
pub fn effective_jobs(requested: usize) -> usize {
    Some(requested)
        .filter(|&n| n > 0)
        .unwrap_or_else(cusha_graph::par::cores)
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
/// run to run with where the allocator had parked the freed pages. Spawned
/// workers lease the spare cores ([`cusha_graph::par::Lease`]), so a cell's
/// topology build runs on its worker alone; an explicit `jobs` still wins.
fn pooled<T: Send>(n: usize, jobs: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = effective_jobs(jobs).min(n.max(1));
    let _spawned = cusha_graph::par::Lease::take(workers - 1);
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

/// The cells that borrow one build: a dataset index and a family, and where
/// in the items those cells are.
type Group = ((usize, Family), Vec<usize>);

/// The order the pool claims `items` (each cell's dataset index and family,
/// in matrix order) in: dataset by dataset, a dataset's cells family by family
/// in order of first appearance, a family's cells in matrix order. The first
/// of a group to run builds the family while the previous group's last cells
/// still run beside it, and the group's last to retire lets it go — so the
/// live topology is one family, briefly two, never a dataset's worth. Which
/// worker claims what does not reach the result: cells land by index.
fn schedule(items: &[(usize, Family)]) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for (i, key) in items.iter().enumerate() {
        match groups.iter_mut().find(|(k, _)| k == key) {
            Some((_, cells)) => cells.push(i),
            None => groups.push((*key, vec![i])),
        }
    }
    groups.sort_by_key(|&((dataset, _), _)| dataset);
    groups
}

/// Computes the matrix over the cross product of the inputs.
///
/// `scale` is the surrogate scale divisor (see
/// [`cusha_graph::surrogates::Dataset::generate`]); `verbose` streams
/// per-cell progress to stderr through the [`cusha_obs::log`] logger
/// (info level, so `--log-level warn` silences it); `jobs` is the
/// worker-thread count for surrogate generation and the GPU cells (`0` = the
/// host's available parallelism).
/// Generation and every cell are deterministic — a cell borrows immutable
/// topology and starts on a launch record of its own — and both result
/// vectors are reassembled in work-item order, so any `jobs` value yields a
/// byte-identical matrix — `jobs` only changes how the wall clock is spent.
/// A family's state is let go when its last cell retires: a dataset's
/// topology is never all alive at once, nor alive past its cells.
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
    // dataset, results in dataset order — not serially before it starts;
    // each one's source vertex is found there, once for all of its cells.
    let graphs: Vec<(Dataset, Graph, VertexId, Prepared)> = pooled(datasets.len(), jobs, |i| {
        let g = datasets[i].generate(scale);
        let source = default_source(&g);
        (datasets[i], g, source, Prepared::default())
    });
    let graph_sizes = graphs
        .iter()
        .map(|(ds, g, ..)| (*ds, g.num_edges() as u64, g.num_vertices() as u64))
        .collect();

    let items = |gpu: bool| {
        let mut items = Vec::new();
        for gi in 0..graphs.len() {
            for &b in benchmarks {
                let on = engines.iter().filter(|e| e.is_gpu() == gpu);
                items.extend(on.map(|&e| (gi, b, e)));
            }
        }
        items
    };
    // One phase: `items` claimed in schedule order by `jobs` workers, back in
    // matrix order.
    let phase = |items: Vec<(usize, Benchmark, Engine)>, jobs: usize, label: &str| {
        let of = |&(gi, b, e): &(usize, Benchmark, _)| (gi, b.family(&graphs[gi].1, e));
        let groups = schedule(&items.iter().map(of).collect::<Vec<_>>());
        let order: Vec<(usize, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(group, (_, cells))| cells.iter().map(move |&i| (i, group)))
            .collect();
        // Per group, its cells yet to retire; and the cells retired in all.
        let left: Vec<AtomicUsize> = groups
            .iter()
            .map(|(_, cells)| AtomicUsize::new(cells.len()))
            .collect();
        let retired = AtomicUsize::new(0);
        let mut ran = pooled(order.len(), jobs, |t| {
            let ((i, group), (gi, b, e)) = (order[t], items[order[t].0]);
            let (ds, g, source, shared) = &graphs[gi];
            let stats = b.run_on(g, *source, shared, e, max_iterations);
            if left[group].fetch_sub(1, Ordering::Relaxed) == 1 {
                shared.release(groups[group].0 .1);
            }
            if verbose {
                // Claim order is not matrix order: progress counts completions.
                let k = retired.fetch_add(1, Ordering::Relaxed) + 1;
                let (n, e, ms, iters) =
                    (order.len(), e.label(), stats.total_ms(), stats.iterations);
                let line =
                    format!("matrix [{label}{k}/{n}] {ds} {b} {e}: {ms:.1} ms ({iters} iters)");
                cusha_obs::log::write(cusha_obs::Level::Info, &line);
            }
            let cell = CellResult {
                dataset: *ds,
                benchmark: b,
                engine: e,
                stats,
            };
            (i, cell)
        });
        ran.sort_by_key(|&(i, _)| i);
        ran.into_iter().map(|(_, cell)| cell)
    };
    // GPU cells first, in parallel; then the MTCPU cells one at a time, the
    // machine to themselves, one CSR per dataset.
    let mut cells: Vec<CellResult> = phase(items(true), jobs, "").collect();
    cells.extend(phase(items(false), 1, "cpu "));
    MatrixResult {
        cells,
        scale,
        graph_sizes,
    }
}

/// [`run_matrix_jobs`] at the host's parallelism: the artifacts' tests' way in.
#[cfg(test)]
pub(crate) fn run_matrix(
    datasets: &[Dataset],
    benchmarks: &[Benchmark],
    engines: &[Engine],
    scale: u64,
    max_iterations: u32,
    verbose: bool,
) -> MatrixResult {
    let jobs = 0;
    run_matrix_jobs(
        datasets,
        benchmarks,
        engines,
        scale,
        max_iterations,
        verbose,
        jobs,
    )
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
        let (lo, _) = m
            .vwc_range_ms(Dataset::Amazon0312, Benchmark::Sssp)
            .unwrap();
        assert_eq!(best.stats.total_ms(), lo);
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
        // Sharing topology and reordering cells must leave the worker count
        // observationally invisible: byte-identical CSV (every modeled
        // time, counter and convergence flag) at 1, 2 and 4 workers, over
        // every benchmark and every simulated engine of `repro all`.
        // Simulated engines only — the MTCPU baseline reports real host wall
        // clock, which is nondeterministic run-to-run regardless of jobs.
        let mut engines = vec![Engine::CuShaGs, Engine::CuShaCw, Engine::Frontier];
        engines.extend(cusha_baselines::VIRTUAL_WARP_SIZES.map(Engine::Vwc));
        let run = |jobs| {
            run_matrix_jobs(
                &[Dataset::Amazon0312, Dataset::WebGoogle],
                &Benchmark::ALL,
                &engines,
                SCALE,
                200,
                false,
                jobs,
            )
            .to_csv()
        };
        let one = run(1);
        assert_eq!(one.lines().count(), 1 + 2 * 8 * 8);
        assert_eq!(one, run(2), "matrix CSV diverged at 2 workers");
        assert_eq!(one, run(4), "matrix CSV diverged at 4 workers");
    }

    #[test]
    fn schedule_is_family_major_within_a_dataset_and_keeps_every_cell() {
        use Family::{Csr, Frontier, Shards};
        // Two datasets x {4-byte, 8-byte benchmark} x {gs, cw, vwc, frontier,
        // vwc}, in matrix order; the 8-byte benchmark has an |N| of its own
        // on dataset 0 only.
        let row = |n| [Shards(n), Shards(n), Csr, Frontier, Csr];
        let items: Vec<(usize, Family)> = [(0, 64), (0, 32), (1, 96), (1, 96)]
            .iter()
            .flat_map(|&(ds, n)| row(n).map(|f| (ds, f)))
            .collect();
        let groups = schedule(&items);
        let keys: Vec<(usize, Family)> = groups.iter().map(|(key, _)| *key).collect();
        assert_eq!(
            keys,
            [
                (0, Shards(64)),
                (0, Csr),
                (0, Frontier),
                (0, Shards(32)),
                (1, Shards(96)),
                (1, Csr),
                (1, Frontier),
            ],
            "one group per (dataset, family): datasets contiguous, families by first appearance"
        );
        for (key, cells) in &groups {
            assert!(cells.iter().all(|&i| items[i] == *key));
            assert!(cells.is_sorted(), "matrix order inside a family");
        }
        // Every cell exactly once: sorted by index, the order is the matrix's.
        let mut order: Vec<usize> = groups.iter().flat_map(|(_, cells)| cells.clone()).collect();
        assert_eq!(
            order[..4],
            [0, 1, 2, 4],
            "dataset 0: both sorts' cells, then CSR"
        );
        order.sort_unstable();
        assert_eq!(order, (0..items.len()).collect::<Vec<_>>());
        assert!(schedule(&[]).is_empty());
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
