//! Fault-injection and recovery: the streamed engine must survive injected
//! device OOMs, transient copy faults, and kernel-launch faults — and the
//! recovered results must be *identical* to a fault-free run, because every
//! recovery path (retry, rebatch, degrade) re-executes the same
//! deterministic schedule.

use cusha::algos::{Bfs, PageRank};
use cusha::baselines::{try_run_vwc, VwcConfig};
use cusha::core::{
    run, try_run, try_run_streamed, try_run_warm, CuShaConfig, EngineError, FaultStats,
    NoopObserver, PreparedLayout, Repr, RunStats, StreamingConfig, VertexProgram,
};
use cusha::frontier::{try_run_frontier, try_run_kcore, try_run_triangles, FrontierConfig};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{Edge, Graph, VertexId};
use cusha::obs::Tracer;
use cusha::simt::{DeviceConfig, FaultPlan};

fn streamed_cfg(repr: Repr, resident_bytes: u64) -> StreamingConfig {
    StreamingConfig::new(
        CuShaConfig::new(repr).with_vertices_per_shard(32),
        resident_bytes,
    )
}

/// The acceptance scenario: streamed PageRank hit by one device OOM and two
/// transient H2D copy faults completes with values identical to the
/// fault-free run, and the recovery counters record exactly what happened.
#[test]
fn streamed_pagerank_survives_oom_and_transient_copy_faults() {
    let g = rmat(&RmatConfig::graph500(9, 6000, 77));
    let prog = PageRank::new();

    let clean = try_run_streamed(&prog, &g, &streamed_cfg(Repr::ConcatWindows, 1 << 16))
        .expect("fault-free run");
    assert!(clean.stats.fault.is_clean());

    // Distinct op indices: each copy fault fires once, its retry (the next
    // op index of the same kind) succeeds. alloc #2 OOMs one batch setup.
    let plan = FaultPlan::new().fail_alloc_at(&[2]).fail_h2d_at(&[5, 9]);
    let mut cfg = streamed_cfg(Repr::ConcatWindows, 1 << 16);
    cfg.base.fault_plan = Some(plan);
    let faulted = try_run_streamed(&prog, &g, &cfg).expect("recovered run");

    assert_eq!(faulted.values, clean.values, "recovery changed the results");
    assert_eq!(faulted.stats.fault.copy_retries, 2);
    assert_eq!(faulted.stats.fault.oom_rebatches, 1);
    assert_eq!(faulted.stats.fault.degradations, 0);
    assert_eq!(faulted.stats.fault.kernel_retries, 0);
    assert!(faulted.stats.fault.backoff_seconds > 0.0);
    assert!(faulted.stats.converged);
}

/// Seeded random fault schedules are a pure function of the seed: two runs
/// with the same seed inject the same faults (identical recovery counters)
/// and recover to the same values as a fault-free run.
#[test]
fn same_seed_means_same_schedule_and_same_values() {
    let g = rmat(&RmatConfig::graph500(8, 3000, 78));
    let prog = Bfs::new(0);

    let clean =
        try_run_streamed(&prog, &g, &streamed_cfg(Repr::GShards, 1 << 14)).expect("fault-free run");

    let seeded = || {
        let mut cfg = streamed_cfg(Repr::GShards, 1 << 14);
        cfg.base.fault_plan = Some(
            FaultPlan::seeded(42)
                .with_h2d_rate(0.08)
                .with_d2h_rate(0.08),
        );
        try_run_streamed(&prog, &g, &cfg).expect("recovered run")
    };
    let a = seeded();
    let b = seeded();

    assert_eq!(
        a.stats.fault, b.stats.fault,
        "schedule not seed-deterministic"
    );
    assert!(!a.stats.fault.is_clean(), "seeded rates injected nothing");
    assert_eq!(a.values, b.values);
    assert_eq!(a.values, clean.values);
}

/// Persistent CW kernel faults push the streamed engine down the first rung
/// of the degradation ladder (CW → G-Shards); the degraded run bit-matches
/// the in-core engine.
#[test]
fn cw_kernel_faults_degrade_to_gs_and_bit_match_in_core() {
    let g = rmat(&RmatConfig::graph500(8, 2500, 79));
    let prog = Bfs::new(0);
    let in_core = run(&prog, &g, &CuShaConfig::gs().with_vertices_per_shard(32));

    // Every CW launch fails (even after the in-place retry); GS launches
    // ("CuSha-GS-streamed::…") never match the pattern.
    let mut cfg = streamed_cfg(Repr::ConcatWindows, 1 << 14);
    cfg.base.fault_plan = Some(FaultPlan::new().fail_kernels_named("CuSha-CW", u64::MAX));
    let degraded = try_run_streamed(&prog, &g, &cfg).expect("degraded run");

    assert_eq!(degraded.stats.fault.degradations, 1);
    assert!(
        degraded.stats.engine.contains("GS"),
        "expected a GS engine label, got {:?}",
        degraded.stats.engine
    );
    assert_eq!(degraded.values, in_core.values);
}

/// When every device kernel fails — CW and GS alike — the ladder bottoms
/// out on the host fallback, which still produces the exact answer.
#[test]
fn total_kernel_failure_lands_on_the_host_fallback() {
    let g = rmat(&RmatConfig::graph500(8, 2500, 80));
    let prog = Bfs::new(0);
    let in_core = run(&prog, &g, &CuShaConfig::gs().with_vertices_per_shard(32));

    let mut cfg = streamed_cfg(Repr::ConcatWindows, 1 << 14);
    cfg.base.fault_plan = Some(FaultPlan::new().fail_kernels_named("streamed", u64::MAX));
    let out = try_run_streamed(&prog, &g, &cfg).expect("fallback run");

    assert_eq!(out.stats.fault.degradations, 2);
    assert_eq!(out.stats.engine, "host-fallback");
    assert_eq!(out.values, in_core.values);
}

/// Copy faults beyond the retry budget are not recoverable and surface as
/// a typed error, not a panic.
#[test]
fn exhausted_copy_retries_surface_as_copy_fault() {
    let g = rmat(&RmatConfig::graph500(7, 800, 81));
    let mut cfg = streamed_cfg(Repr::GShards, 1 << 14);
    // Four consecutive H2D ops fail: the original plus all three retries.
    cfg.base.fault_plan = Some(FaultPlan::new().fail_h2d_at(&[1, 2, 3, 4]));
    match try_run_streamed(&Bfs::new(0), &g, &cfg) {
        Err(e @ EngineError::CopyFault { .. }) => assert_eq!(e.kind(), "copy-fault"),
        other => panic!("expected CopyFault, got {other:?}"),
    }
}

/// k-core and triangle counting enter the device without the middleware
/// (they take no `VertexProgram`), and their device absorbs transient faults
/// like every other: a copy or launch fault costs a retry, not the run, and
/// the run answers what a clean one does. A fault past the budget still
/// surfaces typed.
#[test]
fn kcore_and_triangles_absorb_transient_faults_in_place() {
    let g = rmat(&RmatConfig::graph500(6, 100, 5));
    let with_plan = |plan: FaultPlan| FrontierConfig {
        fault_plan: Some(plan),
        ..FrontierConfig::new()
    };
    let clean = (
        try_run_kcore(&g, &FrontierConfig::new(), None, &mut NoopObserver).unwrap(),
        try_run_triangles(&g, &FrontierConfig::new()).unwrap(),
    );
    for (plan, copies, kernels) in [
        (FaultPlan::new().fail_h2d_at(&[1]), 1, 0),
        (FaultPlan::new().fail_h2d_at(&[0, 3]), 2, 0),
        (FaultPlan::new().fail_kernel_at(&[0]), 0, 1),
    ] {
        let cfg = with_plan(plan);
        let kcore = try_run_kcore(&g, &cfg, None, &mut NoopObserver).expect("k-core absorbed");
        assert_eq!(kcore.core, clean.0.core);
        let tc = try_run_triangles(&g, &cfg).expect("triangles absorbed");
        assert_eq!(tc.triangles, clean.1.triangles);
        for fault in [kcore.stats.fault, tc.stats.fault] {
            assert_eq!(
                (fault.copy_retries, fault.kernel_retries),
                (copies, kernels)
            );
        }
    }
    // The first copy and all three of its retries fail.
    let cfg = with_plan(FaultPlan::new().fail_h2d_at(&[0, 1, 2, 3]));
    let refused = try_run_kcore(&g, &cfg, None, &mut NoopObserver);
    assert!(matches!(refused, Err(EngineError::CopyFault { .. })));
    assert!(matches!(
        try_run_triangles(&g, &cfg),
        Err(EngineError::CopyFault { .. })
    ));
}

/// The faults [`an_in_place_retry_reissues_one_op_not_an_attempt`] injects:
/// the second H2D copy and the first launch.
fn one_copy_and_one_launch() -> FaultPlan {
    FaultPlan::new().fail_h2d_at(&[1]).fail_kernel_at(&[0])
}

/// A run's values as bits, its fault record, the plan's op counters after it
/// (h2d, d2h, alloc, kernel) and its trace's copy spans, kernel spans and
/// fault-lane marks.
type Ran = (Vec<u64>, FaultStats, (u64, u64, u64, u64), [usize; 3]);

/// One engine's run of BFS (or its own workload) under a plan.
type RunOn = fn(&Graph, FaultPlan) -> Ran;

fn ran<V: cusha::core::Value>(
    values: &[V],
    stats: &RunStats,
    plan: &FaultPlan,
    trace: &Tracer,
) -> Ran {
    let count = |cat: &str| trace.with_events(|ev| ev.iter().filter(|e| e.cat == cat).count());
    let spans = [count("copy"), count("kernel"), count("fault")].map(Option::unwrap);
    let bits = values.iter().map(|v| v.to_bits()).collect();
    (bits, stats.fault, plan.op_counters(), spans)
}

/// A transient fault is re-issued by the device at the one faulted op: one
/// H2D fault and one launch fault cost a resident CuSha-CW run, a VWC run,
/// k-core and a triangle count exactly those two ops more than a clean run —
/// the same values, the same trace spans, one retry each.
#[test]
fn an_in_place_retry_reissues_one_op_not_an_attempt() {
    let g = rmat(&RmatConfig::graph500(7, 900, 83));
    let engines: [(&str, RunOn); 4] = [
        ("CuSha-CW", |g, mut plan| {
            let trace = Tracer::enabled();
            let cfg = CuShaConfig::cw()
                .with_vertices_per_shard(32)
                .with_tracer(trace.clone());
            let layout = PreparedLayout::build(g, Repr::ConcatWindows, 32);
            let out = try_run_warm(
                &Bfs::new(0),
                g,
                &layout,
                &cfg,
                Some(&mut plan),
                &mut NoopObserver,
            );
            let out = out.expect("resident CW absorbed");
            ran(&out.values, &out.stats, &plan, &trace)
        }),
        ("VWC", |g, mut plan| {
            let trace = Tracer::enabled();
            let cfg = VwcConfig::new(8).with_tracer(trace.clone());
            let out = try_run_vwc(&Bfs::new(0), g, &cfg, Some(&mut plan), &mut NoopObserver);
            let out = out.expect("VWC absorbed");
            ran(&out.values, &out.stats, &plan, &trace)
        }),
        ("k-core", |g, mut plan| {
            let trace = Tracer::enabled();
            let cfg = FrontierConfig::new().with_tracer(trace.clone());
            let out = try_run_kcore(g, &cfg, Some(&mut plan), &mut NoopObserver);
            let out = out.expect("k-core absorbed");
            ran(&out.core, &out.stats, &plan, &trace)
        }),
        ("triangles", |g, plan| {
            // The entry takes its plan from the configuration and keeps it,
            // so its op counters are read off the trace alone.
            let trace = Tracer::enabled();
            let cfg = FrontierConfig {
                fault_plan: Some(plan.clone()),
                ..FrontierConfig::new().with_tracer(trace.clone())
            };
            let out = try_run_triangles(g, &cfg).expect("triangles absorbed");
            ran(&[out.triangles], &out.stats, &plan, &trace)
        }),
    ];
    for (name, run) in engines {
        let (values, fault, ops, [copies, kernels, marks]) = run(&g, FaultPlan::new());
        assert!(fault.is_clean(), "{name}: {fault:?}");
        assert_eq!(marks, 0, "{name}");
        let faulted = run(&g, one_copy_and_one_launch());
        assert_eq!(faulted.0, values, "{name}: values moved");
        let retries = (faulted.1.copy_retries, faulted.1.kernel_retries);
        assert_eq!(retries, (1, 1), "{name}: {:?}", faulted.1);
        // Each faulted op moved nothing: the same spans, and one mark each.
        assert_eq!(faulted.3, [copies, kernels, 2], "{name}: trace");
        if name != "triangles" {
            let (h2d, d2h, alloc, kernel) = ops;
            let two_more = (h2d + 1, d2h, alloc, kernel + 1);
            assert_eq!(faulted.2, two_more, "{name}: plan op counters");
        }
    }
}

/// A capped run returns `NonConverged` carrying the partial output — the
/// same values the panicking wrapper would have returned.
#[test]
fn non_converged_carries_the_partial_output() {
    // A 64-vertex chain needs ~63 iterations; cap at 3.
    let g = Graph::new(64, (0..63).map(|v| Edge::new(v, v + 1, 1)).collect());
    let mut cfg = CuShaConfig::cw().with_vertices_per_shard(16);
    cfg.max_iterations = 3;
    let full = run(&Bfs::new(0), &g, &cfg);
    match try_run(&Bfs::new(0), &g, &cfg) {
        Err(EngineError::NonConverged { partial }) => {
            assert_eq!(partial.stats.iterations, 3);
            assert!(!partial.stats.converged);
            assert_eq!(partial.values, full.values);
        }
        other => panic!("expected NonConverged, got {other:?}"),
    }
    match try_run_streamed(&Bfs::new(0), &g, &StreamingConfig::new(cfg, 1 << 10)) {
        Err(EngineError::NonConverged { partial }) => {
            assert_eq!(partial.stats.iterations, 3);
            assert_eq!(partial.values, full.values);
        }
        other => panic!("expected NonConverged, got {other:?}"),
    }
}

/// Bad configurations come back as `InvalidConfig` from every public entry
/// point — no asserts fire.
#[test]
fn invalid_configs_are_errors_not_panics() {
    let g = rmat(&RmatConfig::graph500(6, 200, 82));
    for tpb in [0u32, 7, 33, 100] {
        let mut cfg = CuShaConfig::cw();
        cfg.threads_per_block = tpb;
        match try_run(&Bfs::new(0), &g, &cfg) {
            Err(EngineError::InvalidConfig(msg)) => {
                assert!(
                    msg.contains(&tpb.to_string()),
                    "message {msg:?} omits the value"
                )
            }
            other => panic!("tpb={tpb}: expected InvalidConfig, got {other:?}"),
        }
        let mut scfg = StreamingConfig::new(CuShaConfig::cw(), 1 << 14);
        scfg.base.threads_per_block = tpb;
        assert!(matches!(
            try_run_streamed(&Bfs::new(0), &g, &scfg),
            Err(EngineError::InvalidConfig(_))
        ));
    }
    let mut zero_res = StreamingConfig::new(CuShaConfig::cw(), 0);
    zero_res.streams = 1;
    assert!(matches!(
        try_run_streamed(&Bfs::new(0), &g, &zero_res),
        Err(EngineError::InvalidConfig(_))
    ));
    // A block the device cannot launch: more threads than it allows (the
    // default 256 on the 128-thread tiny device), or a shard whose stage-1
    // array overflows an SM's shared memory (16384 four-byte values > 48 KiB).
    let mut tiny = CuShaConfig::cw();
    tiny.device = DeviceConfig::tiny_test();
    let mut tiny_frontier = FrontierConfig::new();
    tiny_frontier.device = DeviceConfig::tiny_test();
    let big = rmat(&RmatConfig::graph500(14, 50_000, 82));
    let wide = CuShaConfig::gs().with_vertices_per_shard(16384);
    let wide_streamed = StreamingConfig::new(wide.clone(), 1 << 16);
    for (what, refused) in [
        ("tiny", try_run(&Bfs::new(0), &g, &tiny).map(drop)),
        (
            "tiny frontier",
            try_run_frontier(&Bfs::new(0), &g, &tiny_frontier).map(drop),
        ),
        ("wide shards", try_run(&Bfs::new(0), &big, &wide).map(drop)),
        (
            "wide streamed",
            try_run_streamed(&Bfs::new(0), &big, &wide_streamed).map(drop),
        ),
    ] {
        match refused {
            Err(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("exceeds"), "{what}: {msg}")
            }
            other => panic!("{what}: expected InvalidConfig, got {other:?}"),
        }
    }
}

/// Malformed graphs are rejected at construction with the offending edge
/// named — the engines never see them.
#[test]
fn invalid_graphs_are_rejected_at_construction() {
    let err = Graph::try_new(4, vec![Edge::new(0, 9, 1)]).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains('9') && msg.contains('4'),
        "unhelpful message: {msg}"
    );
    assert!(Graph::try_new(4, vec![Edge::new(3, 3, 1)]).is_ok());
}

/// A program whose values oscillate forever never converges; the watchdog
/// fingerprints periodic state snapshots and flags the livelock instead of
/// burning the whole iteration budget.
struct Oscillator;
impl VertexProgram for Oscillator {
    type V = u32;
    type E = u32;
    type SV = u32;
    const HAS_EDGE_VALUES: bool = false;
    const HAS_STATIC_VALUES: bool = false;
    fn name(&self) -> &'static str {
        "oscillator"
    }
    fn initial_value(&self, _v: VertexId) -> u32 {
        0
    }
    fn edge_value(&self, _w: u32) -> u32 {
        0
    }
    fn init_compute(&self, local: &mut u32, global: &u32) {
        *local = 1 - *global; // flip every iteration, forever
    }
    fn compute(&self, _src: &u32, _st: &u32, _e: &u32, _local: &mut u32) {}
    fn update_condition(&self, local: &mut u32, old: &u32) -> bool {
        local != old
    }
}

#[test]
fn watchdog_flags_a_livelocked_program() {
    let g = Graph::new(32, (0..31).map(|v| Edge::new(v, v + 1, 1)).collect());
    let mut cfg = CuShaConfig::cw()
        .with_vertices_per_shard(8)
        .with_watchdog(2);
    cfg.max_iterations = 10_000;
    match try_run(&Oscillator, &g, &cfg) {
        Err(EngineError::Watchdog { iterations }) => {
            assert!(iterations < 10, "watchdog fired late: {iterations}")
        }
        other => panic!("expected Watchdog, got {other:?}"),
    }
    match try_run_streamed(&Oscillator, &g, &StreamingConfig::new(cfg, 1 << 10)) {
        Err(EngineError::Watchdog { iterations }) => {
            assert!(iterations < 10, "watchdog fired late: {iterations}")
        }
        other => panic!("expected Watchdog, got {other:?}"),
    }
}
