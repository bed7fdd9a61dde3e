//! Host-parallelism determinism contract: the bench matrix's worker-thread
//! count (`--jobs`) must never change anything it reports — only how the host
//! wall clock is spent. (The fleet has one schedule and no job count; its run
//! records are pinned by `tests/fleet_golden.rs`.)

use cusha::graph::surrogates::Dataset;
use cusha_bench::effective_jobs;

/// `effective_jobs` resolution order: an explicit request, else the host's
/// parallelism (>= 1). Nothing in the environment is read.
#[test]
fn effective_jobs_resolution_order() {
    assert_eq!(effective_jobs(3), 3, "an explicit request must beat auto");
    assert!(effective_jobs(0) >= 1);
}

/// The repro matrix generates its surrogates and runs its cells on one
/// worker pool; the graphs it reports and every cell it renders must be the
/// same at one worker and at four (one more than there are datasets here, so
/// the pool is also larger than the generation work list).
#[test]
fn jobs_do_not_change_the_matrix_or_its_graphs() {
    use cusha_bench::{run_matrix_jobs, Benchmark, Engine};
    let run = |jobs| {
        run_matrix_jobs(
            &[Dataset::Amazon0312, Dataset::WebGoogle, Dataset::RoadNetCA],
            &[Benchmark::Bfs, Benchmark::Sssp],
            &[Engine::CuShaCw, Engine::Vwc(32)],
            2048,
            300,
            false,
            jobs,
        )
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.graph_sizes, four.graph_sizes, "surrogates diverged");
    assert_eq!(
        one.graph_sizes.iter().map(|s| s.0).collect::<Vec<_>>(),
        [Dataset::Amazon0312, Dataset::WebGoogle, Dataset::RoadNetCA],
        "graphs not in dataset order"
    );
    assert_eq!(one.to_csv(), four.to_csv(), "matrix CSV diverged");
}
