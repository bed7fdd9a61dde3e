//! `BENCH_simwall.json` — host wall-clock of the simulation itself.
//!
//! Every other artifact in this repo reports *modeled* device time, which is
//! deterministic and independent of the host. This harness instead measures
//! how long the host takes to produce those numbers: a fixed matrix subset
//! is run twice — once on one worker thread, once on `jobs` workers — the
//! two results are verified byte-identical, and the wall-clock ratio is the
//! honest host-parallel speedup on the machine at hand (recorded alongside
//! its CPU count; a single-core host will honestly report ~1x).

use crate::bench_defs::{Benchmark, Engine};
use crate::matrix::{effective_jobs, run_cell, run_matrix_jobs, MatrixResult};
use cusha_graph::surrogates::Dataset;
use std::time::Instant;

/// The fixed subset timed by the harness: small enough to finish in seconds
/// at the default scale, wide enough that the parallel runner has real work
/// to overlap.
const DATASETS: [Dataset; 2] = [Dataset::Amazon0312, Dataset::WebGoogle];
const BENCHMARKS: [Benchmark; 2] = [Benchmark::Bfs, Benchmark::Sssp];
const ENGINES: [Engine; 3] = [Engine::CuShaGs, Engine::CuShaCw, Engine::Vwc(32)];

/// Timing of one matrix cell in the sequential pass.
pub struct CellWall {
    /// Input graph.
    pub dataset: Dataset,
    /// Benchmark run.
    pub benchmark: Benchmark,
    /// Engine used.
    pub engine: Engine,
    /// Host seconds the cell took, sequentially.
    pub seconds: f64,
}

/// Result of one simwall run.
pub struct SimwallResult {
    /// Per-cell host seconds of the sequential pass, in work-item order.
    pub cells: Vec<CellWall>,
    /// Total host seconds of the sequential (one-worker) pass.
    pub sequential_seconds: f64,
    /// Worker threads used by the parallel pass.
    pub jobs: usize,
    /// Total host seconds of the parallel pass.
    pub parallel_seconds: f64,
    /// Whether the two passes produced byte-identical matrix CSVs (they
    /// must; a `false` here is a determinism bug).
    pub outputs_identical: bool,
    /// Scale divisor the graphs were generated with.
    pub scale: u64,
    /// Convergence-loop cap.
    pub max_iterations: u32,
    /// CPUs the host reports available.
    pub host_cpus: usize,
    /// `git rev-parse HEAD` of the working tree, or `"unknown"`.
    pub git_rev: String,
}

impl SimwallResult {
    /// Sequential over parallel wall clock.
    pub fn speedup(&self) -> f64 {
        if self.parallel_seconds > 0.0 {
            self.sequential_seconds / self.parallel_seconds
        } else {
            0.0
        }
    }

    /// Whether the parallel pass asked for more workers than the host has
    /// CPUs. The numbers are still byte-correct, but the measured speedup
    /// reflects timeslicing, not parallel hardware.
    pub fn oversubscribed(&self) -> bool {
        self.host_cpus < self.jobs
    }

    /// The `cusha-simwall/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"cusha-simwall/v1\",\n");
        s.push_str(&format!("  \"git_rev\": \"{}\",\n", self.git_rev));
        s.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        s.push_str(&format!("  \"scale\": {},\n", self.scale));
        s.push_str(&format!("  \"max_iterations\": {},\n", self.max_iterations));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"benchmark\": \"{}\", \"engine\": \"{}\", \
                 \"seconds\": {:.6}}}{}\n",
                c.dataset,
                c.benchmark,
                c.engine.label(),
                c.seconds,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"sequential\": {{\"jobs\": 1, \"total_seconds\": {:.6}}},\n",
            self.sequential_seconds
        ));
        s.push_str(&format!(
            "  \"parallel\": {{\"jobs\": {}, \"total_seconds\": {:.6}}},\n",
            self.jobs, self.parallel_seconds
        ));
        s.push_str(&format!("  \"speedup\": {:.4},\n", self.speedup()));
        s.push_str(&format!(
            "  \"oversubscribed\": {},\n",
            self.oversubscribed()
        ));
        s.push_str(&format!(
            "  \"outputs_identical\": {}\n",
            self.outputs_identical
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable report for stdout.
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str("== Simulation wall clock (host seconds, not modeled time) ==\n");
        s.push_str(&format!(
            "host cpus {}, scale 1/{}, rev {}\n\n",
            self.host_cpus, self.scale, self.git_rev
        ));
        for c in &self.cells {
            s.push_str(&format!(
                "  {:<12} {:<5} {:<10} {:>9.3} s\n",
                c.dataset.to_string(),
                c.benchmark.to_string(),
                c.engine.label(),
                c.seconds
            ));
        }
        s.push_str(&format!(
            "\nsequential (1 job):  {:>9.3} s\nparallel  ({} jobs): {:>9.3} s\n\
             speedup: {:.2}x, outputs byte-identical: {}\n",
            self.sequential_seconds,
            self.jobs,
            self.parallel_seconds,
            self.speedup(),
            self.outputs_identical
        ));
        if self.oversubscribed() {
            s.push_str(&format!(
                "WARNING: {} workers on {} host CPU{} — the parallel pass is \
                 oversubscribed and its speedup reflects timeslicing, not \
                 parallel hardware\n",
                self.jobs,
                self.host_cpus,
                if self.host_cpus == 1 { "" } else { "s" }
            ));
        }
        s
    }
}

/// Runs the harness: a timed sequential pass (per-cell and total), a timed
/// parallel pass at `jobs` workers (`0` = auto), and a byte-compare of the
/// two matrices.
pub fn run(scale: u64, max_iterations: u32, jobs: usize) -> SimwallResult {
    let jobs = effective_jobs(jobs);

    // Sequential pass, timed per cell, over pre-generated graphs (graph
    // generation is shared setup, not simulation, so it stays untimed).
    let graphs: Vec<(Dataset, cusha_graph::Graph)> = DATASETS
        .iter()
        .map(|&ds| (ds, ds.generate(scale)))
        .collect();
    let mut cells = Vec::new();
    let mut seq_cells = Vec::new();
    let seq_start = Instant::now();
    for (ds, g) in &graphs {
        for &b in &BENCHMARKS {
            for &e in &ENGINES {
                let t = Instant::now();
                let cell = run_cell(g, *ds, b, e, max_iterations);
                cells.push(CellWall {
                    dataset: *ds,
                    benchmark: b,
                    engine: e,
                    seconds: t.elapsed().as_secs_f64(),
                });
                seq_cells.push(cell);
            }
        }
    }
    let sequential_seconds = seq_start.elapsed().as_secs_f64();
    let seq_csv = MatrixResult {
        cells: seq_cells,
        scale,
        graph_sizes: Vec::new(),
    }
    .to_csv();

    // Parallel pass over the same subset (regenerates the graphs — the
    // generators are deterministic — so both passes do identical work
    // apart from the threading).
    let par_start = Instant::now();
    let par = run_matrix_jobs(
        &DATASETS,
        &BENCHMARKS,
        &ENGINES,
        scale,
        max_iterations,
        false,
        jobs,
    );
    let parallel_seconds = par_start.elapsed().as_secs_f64();

    SimwallResult {
        cells,
        sequential_seconds,
        jobs,
        parallel_seconds,
        outputs_identical: par.to_csv() == seq_csv,
        scale,
        max_iterations,
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        git_rev: git_rev(),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simwall_runs_and_serializes() {
        // Deep scale keeps this a smoke test; passes must still agree.
        let r = run(4096, 50, 2);
        assert_eq!(
            r.cells.len(),
            DATASETS.len() * BENCHMARKS.len() * ENGINES.len()
        );
        assert!(r.outputs_identical, "jobs=1 and jobs=2 matrices diverged");
        assert!(r.sequential_seconds > 0.0 && r.parallel_seconds > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"cusha-simwall/v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(r.report().contains("speedup"));
        // The oversubscription flag must agree between JSON and report.
        assert_eq!(r.oversubscribed(), r.host_cpus < r.jobs);
        assert!(json.contains(&format!("\"oversubscribed\": {}", r.oversubscribed())));
        assert_eq!(r.report().contains("WARNING"), r.oversubscribed());
    }
}
