//! What every workload hands the runner: one pass's accounting, the
//! deterministic counts the digest is taken over, and seeded input helpers
//! shared by more than one workload.

use crate::harness::{median, HostReference, Metrics, Rng, Spans};
use cusha::algos::{run_sequential, Bfs, Sssp, Sswp, TraversalKind};
use cusha::core::{CuShaOutput, EngineError, RunStats, Value};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{Graph, VertexId};
use std::path::PathBuf;

/// Sweep cap for every oracle and engine run; far above any workload's
/// convergence depth, so hitting it is a failure, not a result.
pub const MAX_ITERATIONS: u32 = 10_000;

/// Program counts that must repeat exactly for a given seed, on any host
/// and under any thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub iterations: u64,
    pub warp_instructions: u64,
    pub gld_transactions: u64,
    pub replay_hits: u64,
    pub replay_misses: u64,
    pub coalesce_hits: u64,
    pub coalesce_misses: u64,
    pub cache_hits: u64,
    pub launches: u64,
    pub wal_commits: u64,
    /// Bit pattern of the pass's summed modeled milliseconds.
    pub modeled_ms_bits: u64,
}

impl Counts {
    pub fn absorb(&mut self, stats: &RunStats) {
        self.iterations += u64::from(stats.iterations);
        self.warp_instructions += stats.kernel.counters.warp_instructions;
        self.gld_transactions += stats.kernel.counters.gld_transactions;
        self.replay_hits += stats.memo.replay_hits;
        self.replay_misses += stats.memo.replay_misses;
        self.coalesce_hits += stats.memo.coalesce_hits;
        self.coalesce_misses += stats.memo.coalesce_misses;
        self.launches += 1;
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"iterations\":{},\"warp_instructions\":{},\"gld_transactions\":{},\
             \"replay_hits\":{},\"replay_misses\":{},\"coalesce_hits\":{},\
             \"coalesce_misses\":{},\"cache_hits\":{},\"launches\":{},\"wal_commits\":{},\
             \"modeled_ms_bits\":\"{:016x}\"}}",
            self.iterations,
            self.warp_instructions,
            self.gld_transactions,
            self.replay_hits,
            self.replay_misses,
            self.coalesce_hits,
            self.coalesce_misses,
            self.cache_hits,
            self.launches,
            self.wal_commits,
            self.modeled_ms_bits
        )
    }
}

/// Accounting of one pass of a workload's script.
#[derive(Default)]
pub struct Pass {
    /// Host seconds of the script as measured.
    pub wall_s: f64,
    /// Host speed while the pass ran, as a share of the reference speed
    /// (`HostWindow::speed`); `None` for a pass run outside any window, whose
    /// times then stand as measured.
    pub host_speed: Option<f64>,
    /// Host milliseconds per client-visible operation.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Σ iterations × |E| over the pass's simulated runs.
    pub edge_iters: u64,
    pub modeled_ms: f64,
    /// Peak resident set while the pass ran, MB.
    pub peak_rss_mb: f64,
    pub counts: Counts,
    /// Named samples behind workload-specific per-layer metrics.
    pub samples: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Books one simulated run: its counters, modeled time and edge work.
    pub fn book_run(&mut self, stats: &RunStats, edges: u64) {
        self.counts.absorb(stats);
        self.edge_iters += u64::from(stats.iterations) * edges;
        self.modeled_ms += stats.total_ms();
    }

    /// Books the outcome of one checked operation.
    pub fn book_op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Host seconds of the script at the reference host speed (what `wall_s`
    /// is the median of).
    pub fn wall_at_reference(&self) -> f64 {
        self.wall_s * self.host_speed.unwrap_or(1.0)
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    pub fn samples_of(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }
}

/// Host milliseconds per operation of the script, at the reference host
/// speed: every pass issues the same operations in the same order, and an
/// operation's latency is its median over the passes, which drops host
/// jitter. Percentiles taken over these are the script's slow operations
/// rather than the host's slow moments.
pub fn op_medians<P: std::borrow::Borrow<Pass>>(passes: &[P]) -> Vec<f64> {
    let ops = passes.first().map_or(0, |p| p.borrow().op_ms.len());
    (0..ops)
        .map(|i| {
            let across: Vec<f64> = passes
                .iter()
                .filter_map(|p| {
                    let p = p.borrow();
                    p.op_ms.get(i).map(|ms| ms * p.host_speed.unwrap_or(1.0))
                })
                .collect();
            median(&across)
        })
        .collect()
}

/// Every pass's samples of one name, pooled.
pub fn pooled(passes: &[Pass], name: &str) -> Vec<f64> {
    passes.iter().flat_map(|p| p.samples_of(name)).collect()
}

/// The graph, source and scratch space the per-layer probes run on: each
/// workload hands over its own primary input, so a layer's number is taken
/// where that workload would feel it.
pub struct ProbeInputs<'a> {
    pub graph: &'a Graph,
    pub source: VertexId,
    pub seed: u64,
    pub tmp: PathBuf,
    /// Surrogate scale divisor for the `bench.` matrix probes.
    pub matrix_scale: u64,
}

pub trait Workload {
    /// Runs the script once. Spans are recorded only in a traced run; `host`
    /// is ticked between operations, outside their timers.
    fn pass(&mut self, spans: &mut Spans, host: &mut HostReference) -> Pass;

    /// Inputs for the shared per-layer probes.
    fn probe_inputs(&self) -> ProbeInputs<'_>;

    /// Per-layer metrics only this workload's passes can supply; they
    /// replace the shared probes' values of the same name.
    fn layer_metrics(&self, _passes: &[Pass], _out: &mut Metrics) {}
}

/// Surrogate scale divisor of the `bench.` probes on every workload but
/// `matrix_jobs`, which probes at its own scale.
pub const PROBE_MATRIX_SCALE: u64 = 1024;

pub type RunResult<V> = Result<CuShaOutput<V>, EngineError<V>>;

/// A finished run's values and statistics; a capped run yields its partial
/// output (the PageRank cells cap on purpose), any other error nothing.
pub fn settle<V: Value>(r: RunResult<V>) -> Option<(Vec<V>, RunStats)> {
    match r {
        Ok(out) => Some((out.values, out.stats)),
        Err(EngineError::NonConverged { partial }) => Some((partial.values, partial.stats)),
        Err(_) => None,
    }
}

/// How much smaller `--quick` makes every input.
pub const QUICK_DIVISOR: u64 = 8;

/// R-MAT with the Graph500 skew at `edges` edges (÷8 and three scales down
/// under `--quick`).
pub fn seeded_rmat(scale: u32, edges: u64, seed: u64, quick: bool) -> Graph {
    if quick {
        rmat(&RmatConfig::graph500(
            scale - 3,
            edges / QUICK_DIVISOR,
            seed,
        ))
    } else {
        rmat(&RmatConfig::graph500(scale, edges, seed))
    }
}

/// Vertices by descending out-degree (ties by id): hub-first traversal
/// source candidates on a power-law graph.
pub fn hubs_first(g: &Graph) -> Vec<VertexId> {
    let deg = g.out_degrees();
    let mut v: Vec<VertexId> = (0..g.num_vertices()).collect();
    v.sort_by_key(|&x| (std::cmp::Reverse(deg[x as usize]), x));
    v
}

/// `count` distinct vertices with at least one out-edge, none of them in
/// `exclude`, drawn from `rng`.
pub fn distinct_sources(
    g: &Graph,
    count: usize,
    exclude: &[VertexId],
    rng: &mut Rng,
) -> Vec<VertexId> {
    let deg = g.out_degrees();
    let mut live: Vec<VertexId> = (0..g.num_vertices())
        .filter(|&v| deg[v as usize] > 0 && !exclude.contains(&v))
        .collect();
    let take = count.min(live.len());
    for i in 0..take {
        let j = i + rng.below((live.len() - i) as u32) as usize;
        live.swap(i, j);
    }
    live.truncate(take);
    live
}

/// The host oracle's answer for one valued traversal, with its sweep count.
pub fn oracle_traversal(g: &Graph, kind: TraversalKind, source: VertexId) -> (Vec<u32>, u32) {
    let out = match kind {
        TraversalKind::Bfs => run_sequential(&Bfs::new(source), g, MAX_ITERATIONS),
        TraversalKind::Sssp => run_sequential(&Sssp::new(source), g, MAX_ITERATIONS),
        TraversalKind::Sswp => run_sequential(&Sswp::new(source), g, MAX_ITERATIONS),
    };
    (out.values, out.iterations)
}

/// Picks, among the first `tries` of `candidates`, the earliest whose
/// oracle sweep count is closest to `target`, and returns it with its
/// oracle answer. Every candidate is evaluated even after an exact match,
/// so set-up costs the same whichever seed is drawn.
///
/// Sources are conditioned on the workload's nominal depth so that every
/// seed does the same amount of work: an unconditioned source moves a
/// traversal's iteration count — and with it `wall_s` — by ±10% between
/// seeds, which would drown any regression bound. `target = None` takes the
/// first candidate.
pub fn pick_source(
    g: &Graph,
    kind: TraversalKind,
    candidates: &[VertexId],
    target: Option<u32>,
    tries: usize,
) -> (VertexId, Vec<u32>) {
    let mut best: Option<(u32, VertexId, Vec<u32>)> = None;
    for &c in candidates.iter().take(tries.max(1)) {
        let (values, sweeps) = oracle_traversal(g, kind, c);
        let miss = target.map_or(0, |t| t.abs_diff(sweeps));
        if best.as_ref().is_none_or(|(m, _, _)| miss < *m) {
            best = Some((miss, c, values));
        }
    }
    let (_, source, values) = best.expect("a graph has at least one candidate source");
    (source, values)
}
