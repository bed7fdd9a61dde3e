//! The multithreaded CPU CSR baseline (paper Section 5.1, "MTCPU-CSR").
//!
//! A pthreads-style engine: `t` OS threads each own a contiguous range of
//! vertices (adjacent in the CSR, as the paper specifies) and sweep their
//! range every iteration, reading neighbour values from a shared
//! lock-free array and writing only their own vertices. A barrier separates
//! iterations; a relaxed atomic flag detects convergence. Times are real
//! wall-clock measurements on the host.
//!
//! Values are stored as `AtomicU64` bit patterns ([`Value::to_bits`]); all
//! cross-thread accesses are relaxed atomics, which is sound here because
//! every algorithm tolerates reading a neighbour's value from either the
//! current or the previous sweep (the usual asynchronous-iteration
//! argument, and exactly what the racy pthreads original does — minus the
//! undefined behaviour).

use cusha_core::{
    check_topology, settle, CuShaOutput, EngineError, IterationStat, NoopObserver, RunObserver,
    RunStats, Value, VertexProgram,
};
use cusha_graph::{Csr, Graph};
use cusha_obs::trace::{lanes, ArgVal, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// MTCPU-CSR configuration.
#[derive(Clone, Debug)]
pub struct MtcpuConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Convergence-loop safety cap.
    pub max_iterations: u32,
    /// Span/event tracer; disabled (no-op, zero-cost) by default. The CPU
    /// engine has no modeled clock, so iteration spans are reconstructed
    /// post-hoc from measured wall time.
    pub trace: Tracer,
}

impl MtcpuConfig {
    /// `threads` workers, default iteration cap.
    pub fn new(threads: usize) -> Self {
        MtcpuConfig {
            threads,
            max_iterations: 10_000,
            trace: Tracer::disabled(),
        }
    }

    /// Installs a tracer recording spans of the run.
    pub fn with_tracer(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }
}

/// Output of an MTCPU run: final vertex values and run statistics
/// (wall-clock compute time; no transfer components).
pub type MtcpuOutput<V> = CuShaOutput<V>;

/// Executes `prog` over `graph` with `cfg.threads` CPU threads.
pub fn run_mtcpu<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &MtcpuConfig,
) -> MtcpuOutput<P::V> {
    settle(try_run_mtcpu(prog, graph, cfg, &mut NoopObserver))
}

/// [`run_mtcpu`] with a [`RunObserver`] consulted after every non-converged
/// sweep and every failure surfaced as an [`EngineError`].
///
/// The observer is `!Send`, so the calling thread runs worker 0 — the
/// convergence coordinator — inline instead of spawning it: after each
/// barrier it evaluates the stop condition and, when continuing, consults
/// the observer with real wall-clock elapsed time. A `false` return halts
/// every worker at the next barrier and surfaces as
/// [`EngineError::Deadline`]. This engine runs on host memory, outside the
/// device fault domain, so there is no fault plan to thread.
pub fn try_run_mtcpu<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &MtcpuConfig,
    observer: &mut O,
) -> Result<MtcpuOutput<P::V>, EngineError<P::V>> {
    try_run_mtcpu_warm(prog, graph, &Csr::from_graph(graph), cfg, observer)
}

/// [`try_run_mtcpu`] over a caller-held in-edge CSR of `graph`.
pub fn try_run_mtcpu_warm<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    csr: &Csr,
    cfg: &MtcpuConfig,
    observer: &mut O,
) -> Result<MtcpuOutput<P::V>, EngineError<P::V>> {
    if cfg.threads == 0 {
        return Err(EngineError::InvalidConfig(
            "need at least one thread".into(),
        ));
    }
    check_topology("csr", (csr.num_vertices(), csr.num_edges()), graph)?;
    let statics = prog.static_values(graph);
    let edge_values: Vec<P::E> = {
        let by_edge_id = prog.edge_values(graph);
        csr.edge_ids()
            .iter()
            .map(|&id| by_edge_id[id as usize])
            .collect()
    };
    let n = graph.num_vertices() as usize;
    let values: Vec<AtomicU64> = (0..graph.num_vertices())
        .map(|v| AtomicU64::new(prog.initial_value(v).to_bits()))
        .collect();

    // Contiguous range per thread, remainder spread over the first ranges.
    let t = cfg.threads.min(n.max(1));
    let base = n / t;
    let extra = n % t;
    let range_of = |i: usize| {
        let lo = i * base + i.min(extra);
        let hi = lo + base + usize::from(i < extra);
        lo..hi
    };

    let barrier = Barrier::new(t);
    let stop = AtomicBool::new(false);
    let cancelled = AtomicBool::new(false);
    // Vertices the sweep under way updated, summed by every worker; the
    // coordinator moves it into `updated` between the two barriers, so the
    // tally grows with the sweeps run, not with the iteration cap. Relaxed
    // suffices: the first barrier orders every add before the swap, the
    // second the swap before the next sweep's adds.
    let tally = AtomicU64::new(0);
    let mut updated: Vec<u64> = Vec::new();

    // One sweep of a worker's vertex range; returns its update count.
    let sweep = |range: std::ops::Range<usize>| -> u64 {
        let mut local_updates = 0u64;
        for v in range {
            let old = P::V::from_bits(values[v].load(Ordering::Relaxed));
            let mut local = P::V::default();
            prog.init_compute(&mut local, &old);
            for slot in csr.in_range(v as u32) {
                let src = csr.src_indxs()[slot] as usize;
                let src_val = P::V::from_bits(values[src].load(Ordering::Relaxed));
                prog.compute(&src_val, &statics[src], &edge_values[slot], &mut local);
            }
            if prog.update_condition(&mut local, &old) {
                values[v].store(local.to_bits(), Ordering::Relaxed);
                local_updates += 1;
            }
        }
        local_updates
    };

    let start = Instant::now();
    std::thread::scope(|scope| {
        for i in 1..t {
            let range = range_of(i);
            let (sweep, barrier, stop, tally) = (&sweep, &barrier, &stop, &tally);
            scope.spawn(move || loop {
                tally.fetch_add(sweep(range.clone()), Ordering::Relaxed);
                barrier.wait();
                // Worker 0 evaluates the stop condition between barriers.
                barrier.wait();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
        // Worker 0 — the convergence coordinator — runs on the calling
        // thread so it can consult the (thread-bound) observer.
        let range = range_of(0);
        loop {
            tally.fetch_add(sweep(range.clone()), Ordering::Relaxed);
            barrier.wait();
            let count = tally.swap(0, Ordering::Relaxed);
            updated.push(count);
            let sweeps = updated.len() as u32;
            let mut halt = count == 0 || sweeps >= cfg.max_iterations;
            if !halt {
                let elapsed = start.elapsed().as_secs_f64();
                if !observer.on_iteration(sweeps, count, elapsed) {
                    cancelled.store(true, Ordering::Relaxed);
                    halt = true;
                }
            }
            stop.store(halt, Ordering::Relaxed);
            barrier.wait();
            if halt {
                break;
            }
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let iters = updated.len() as u32;
    if cancelled.load(Ordering::Relaxed) {
        return Err(EngineError::Deadline {
            iterations: iters,
            elapsed_seconds: elapsed,
        });
    }
    let per_iteration: Vec<IterationStat> = updated
        .iter()
        .map(|&updated_vertices| IterationStat {
            seconds: elapsed / iters.max(1) as f64,
            updated_vertices,
        })
        .collect();
    let converged = iters < cfg.max_iterations
        || per_iteration
            .last()
            .map(|s| s.updated_vertices == 0)
            .unwrap_or(true);
    let out_values: Vec<P::V> = values
        .iter()
        .map(|a| P::V::from_bits(a.load(Ordering::Relaxed)))
        .collect();
    if cfg.trace.is_enabled() {
        cfg.trace.name_process(0, "mtcpu");
        cfg.trace.name_lane(0, lanes::ENGINE, "engine");
        let mut cursor = 0.0f64;
        for (k, it) in per_iteration.iter().enumerate() {
            cfg.trace.complete_with(
                0,
                lanes::ENGINE,
                "engine",
                "iteration",
                cursor,
                it.seconds,
                || {
                    vec![
                        ("iteration", ArgVal::U64(k as u64 + 1)),
                        ("updated_vertices", ArgVal::U64(it.updated_vertices)),
                    ]
                },
            );
            cursor += it.seconds;
            cfg.trace.counter(
                0,
                lanes::ENGINE,
                "updated_vertices",
                cursor,
                it.updated_vertices as f64,
            );
        }
    }
    let stats = RunStats {
        engine: format!("MTCPU-CSR/{}", cfg.threads),
        iterations: iters,
        converged,
        compute_seconds: elapsed,
        per_iteration,
        ..Default::default()
    };
    CuShaOutput {
        values: out_values,
        stats,
    }
    .into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_algos::assert_approx_eq;
    use cusha_algos::bfs::{bfs_levels, Bfs};
    use cusha_algos::pagerank::{pagerank_power_iteration, PageRank};
    use cusha_algos::sssp::{dijkstra, Sssp};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Graph;

    #[test]
    fn single_thread_matches_oracles() {
        let g = rmat(&RmatConfig::graph500(7, 800, 40));
        let bfs = run_mtcpu(&Bfs::new(0), &g, &MtcpuConfig::new(1));
        assert!(bfs.stats.converged);
        assert_eq!(bfs.values, bfs_levels(&g, 0));
        let sssp = run_mtcpu(&Sssp::new(0), &g, &MtcpuConfig::new(1));
        assert_eq!(sssp.values, dijkstra(&g, 0));
    }

    #[test]
    fn many_threads_match_oracles() {
        let g = rmat(&RmatConfig::graph500(8, 2000, 41));
        let oracle = bfs_levels(&g, 0);
        for t in [2, 4, 8, 16] {
            let out = run_mtcpu(&Bfs::new(0), &g, &MtcpuConfig::new(t));
            assert!(out.stats.converged, "t={t}");
            assert_eq!(out.values, oracle, "t={t}");
        }
    }

    #[test]
    fn more_threads_than_vertices_is_fine() {
        let g = rmat(&RmatConfig::graph500(3, 20, 42));
        let out = run_mtcpu(&Bfs::new(0), &g, &MtcpuConfig::new(64));
        assert_eq!(out.values, bfs_levels(&g, 0));
    }

    #[test]
    fn pagerank_parallel_matches_power_iteration() {
        let g = rmat(&RmatConfig::graph500(7, 600, 43));
        let oracle = pagerank_power_iteration(&g, 1e-9, 100_000);
        let out = run_mtcpu(&PageRank::with_tolerance(1e-5), &g, &MtcpuConfig::new(4));
        assert!(out.stats.converged);
        assert_approx_eq(&out.values, &oracle, 2e-3);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        let out = run_mtcpu(&Bfs::new(0), &g, &MtcpuConfig::new(4));
        assert!(out.stats.converged);
        assert_eq!(out.stats.iterations, 1);
    }

    #[test]
    fn stats_measure_real_time() {
        let g = rmat(&RmatConfig::graph500(8, 2000, 44));
        let out = run_mtcpu(&Sssp::new(0), &g, &MtcpuConfig::new(2));
        assert!(out.stats.compute_seconds > 0.0);
        assert_eq!(out.stats.h2d_seconds, 0.0);
        assert_eq!(out.stats.per_iteration.len(), out.stats.iterations as usize);
    }

    #[test]
    fn tracer_reconstructs_iteration_spans() {
        use cusha_obs::trace::Ph;
        let g = rmat(&RmatConfig::graph500(7, 600, 45));
        let tracer = Tracer::enabled();
        let out = run_mtcpu(
            &Sssp::new(0),
            &g,
            &MtcpuConfig::new(2).with_tracer(tracer.clone()),
        );
        tracer.with_events(|events| {
            let iters = events
                .iter()
                .filter(|e| e.name == "iteration" && e.ph == Ph::Complete)
                .count();
            assert_eq!(iters as u32, out.stats.iterations);
        });
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let g = Graph::empty(1);
        let _ = run_mtcpu(&Bfs::new(0), &g, &MtcpuConfig::new(0));
    }
}
