//! Host-parallelism determinism contract: the worker-thread count (`jobs`)
//! that drives the multi-device fleet must never change anything observable
//! — output values, modeled times, kernel counters, fault/SDC records —
//! only how the host wall clock is spent. We compare the *entire* run
//! record (via its `Debug` rendering, which covers every field including
//! per-iteration detail and per-device breakdowns) between `jobs = 1` and
//! `jobs = 4`.

use cusha::algos::{Bfs, PageRank, Sssp};
use cusha::core::{
    effective_jobs, run_multi, try_run_multi, CuShaConfig, IntegrityConfig, IntegrityMode,
    MultiConfig, MultiRunStats, Repr,
};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::surrogates::Dataset;
use cusha::graph::Graph;
use cusha::simt::{FaultPlan, FlipTarget};

fn surrogate_pair() -> [(&'static str, Graph); 2] {
    [
        ("Amazon0312", Dataset::Amazon0312.generate(2048)),
        ("WebGoogle", Dataset::WebGoogle.generate(2048)),
    ]
}

/// Every stats field — modeled seconds, counters, per-device breakdown,
/// per-iteration detail — flattened to one comparable string.
fn stats_fingerprint(s: &MultiRunStats) -> String {
    format!("{s:?}")
}

/// Clean fleets: values and the full stats record are bit-identical between
/// one worker and four, across algorithms, representations and fleet sizes.
#[test]
fn jobs_do_not_change_fleet_outputs() {
    for (name, g) in surrogate_pair() {
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            let base = CuShaConfig::new(repr);
            for devices in [2usize, 4] {
                let mk = |jobs| MultiConfig::new(base.clone(), devices).with_jobs(jobs);
                let one = run_multi(&PageRank::new(), &g, &mk(1));
                let four = run_multi(&PageRank::new(), &g, &mk(4));
                assert_eq!(
                    one.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    four.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{name}/pagerank/{repr:?} x{devices}: values diverged across jobs"
                );
                assert_eq!(
                    stats_fingerprint(&one.stats),
                    stats_fingerprint(&four.stats),
                    "{name}/pagerank/{repr:?} x{devices}: stats diverged across jobs"
                );

                let one = run_multi(&Sssp::new(0), &g, &mk(1));
                let four = run_multi(&Sssp::new(0), &g, &mk(4));
                assert_eq!(one.values, four.values, "{name}/sssp/{repr:?} x{devices}");
                assert_eq!(
                    stats_fingerprint(&one.stats),
                    stats_fingerprint(&four.stats),
                    "{name}/sssp/{repr:?} x{devices}: stats diverged across jobs"
                );
            }
        }
    }
}

/// Kernel faults degrade one device to its host re-enactment while an
/// allocation fault rebatches another; both recoveries must fire exactly
/// once (no double-fire under parallel execution) and leave identical
/// values, counters and per-device modes at any worker count.
#[test]
fn jobs_do_not_change_fault_recovery() {
    let g = Dataset::Amazon0312.generate(2048);
    let base = CuShaConfig::cw();
    let mk = |jobs| {
        MultiConfig::new(base.clone(), 4)
            .with_jobs(jobs)
            .with_device_fault_plan(1, FaultPlan::new().fail_alloc_at(&[2]))
            .with_device_fault_plan(2, FaultPlan::new().fail_kernel_at(&[1, 2]))
    };
    let one = run_multi(&Sssp::new(0), &g, &mk(1));
    let four = run_multi(&Sssp::new(0), &g, &mk(4));
    assert_eq!(one.values, four.values);
    assert_eq!(
        stats_fingerprint(&one.stats),
        stats_fingerprint(&four.stats)
    );
    for out in [&one, &four] {
        assert_eq!(out.stats.per_device[1].mode, "rebatched");
        assert_eq!(out.stats.per_device[2].mode, "host-fallback");
        assert_eq!(
            out.stats.per_device[2].fault.degradations, 1,
            "degradation fired a wrong number of times"
        );
        for d in [0usize, 3] {
            assert_eq!(out.stats.per_device[d].mode, "resident");
            assert!(out.stats.per_device[d].fault.is_clean());
        }
    }
}

/// Transient kernel faults that recover by in-place relaunch: the retry
/// counter must record the same count at any worker count (each retry
/// fires exactly once on its own device).
#[test]
fn jobs_do_not_change_transient_retries() {
    let g = Dataset::WebGoogle.generate(2048);
    let base = CuShaConfig::gs();
    let mk = |jobs| {
        let mut cfg = MultiConfig::new(base.clone(), 4).with_jobs(jobs);
        cfg.max_kernel_retries = 2;
        // Spaced-out single-op kernel faults on two devices: each recovers
        // in place via relaunch, no degradation.
        cfg.with_device_fault_plan(0, FaultPlan::new().fail_kernel_at(&[1]))
            .with_device_fault_plan(3, FaultPlan::new().fail_kernel_at(&[2]))
    };
    let clean = run_multi(&Sssp::new(0), &g, &MultiConfig::new(base.clone(), 4));
    let one = run_multi(&Sssp::new(0), &g, &mk(1));
    let four = run_multi(&Sssp::new(0), &g, &mk(4));
    assert_eq!(clean.values, one.values);
    assert_eq!(one.values, four.values);
    assert_eq!(
        stats_fingerprint(&one.stats),
        stats_fingerprint(&four.stats)
    );
    for out in [&one, &four] {
        assert_eq!(out.stats.per_device[0].fault.kernel_retries, 1);
        assert_eq!(out.stats.per_device[3].fault.kernel_retries, 1);
        assert_eq!(out.stats.fault.kernel_retries, 2, "lost or doubled retry");
        for d in 0..4 {
            assert_eq!(out.stats.per_device[d].mode, "resident");
        }
    }
}

/// Bit-flip injection plus integrity checking under parallel device
/// execution: identical flip counts (none lost, none double-fired),
/// identical detections/rollbacks, and outputs still bit-identical to the
/// fault-free fleet.
#[test]
fn jobs_do_not_change_sdc_defense() {
    let g = rmat(&RmatConfig::graph500(8, 3000, 97));
    let base = CuShaConfig::new(Repr::GShards).with_vertices_per_shard(32);
    let prog = Bfs::new(0);
    let clean = try_run_multi(&prog, &g, &MultiConfig::new(base.clone(), 3)).expect("clean fleet");
    let mk = |jobs| {
        let mut cfg = MultiConfig::new(base.clone(), 3).with_jobs(jobs);
        cfg.base.integrity = IntegrityConfig::with_mode(IntegrityMode::Full);
        cfg.with_device_fault_plan(1, FaultPlan::seeded(13).with_bitflip_rate(0.5))
            .with_device_fault_plan(2, FaultPlan::new().flip_at(0, FlipTarget::SrcValue, 9, 12))
    };
    let one = try_run_multi(&prog, &g, &mk(1)).expect("recovered fleet, jobs=1");
    let four = try_run_multi(&prog, &g, &mk(4)).expect("recovered fleet, jobs=4");
    assert_eq!(one.values, clean.values);
    assert_eq!(four.values, clean.values);
    assert_eq!(
        stats_fingerprint(&one.stats),
        stats_fingerprint(&four.stats)
    );
    assert!(one.stats.sdc.flips_injected >= 1, "no flip fired at all");
    assert_eq!(
        one.stats.sdc.flips_injected, four.stats.sdc.flips_injected,
        "flip count changed with worker count"
    );
    assert_eq!(one.stats.sdc.detections(), four.stats.sdc.detections());
    assert_eq!(one.stats.sdc.rollbacks, four.stats.sdc.rollbacks);
    for d in 0..3 {
        assert_eq!(
            one.stats.per_device[d].sdc, four.stats.per_device[d].sdc,
            "device {d} SDC record diverged across jobs"
        );
    }
}

/// `effective_jobs` resolution order: explicit request, then `CUSHA_JOBS`,
/// then host parallelism (≥ 1). Every other test in this binary passes an
/// explicit job count, so mutating the process environment here is safe.
#[test]
fn effective_jobs_resolution_order() {
    assert_eq!(effective_jobs(3), 3);
    std::env::set_var("CUSHA_JOBS", "5");
    assert_eq!(effective_jobs(0), 5, "env fallback ignored");
    assert_eq!(effective_jobs(2), 2, "explicit request must beat the env");
    std::env::set_var("CUSHA_JOBS", "not-a-number");
    assert!(effective_jobs(0) >= 1, "junk env must fall through");
    std::env::remove_var("CUSHA_JOBS");
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
