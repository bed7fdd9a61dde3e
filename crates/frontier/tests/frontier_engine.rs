//! Correctness of the frontier engine: bit-identity with the shard engines
//! on the monotone traversals, direction-switching behavior, middleware
//! integration (deadline + fault retry + SDC recovery), and the
//! approximate agreement of the pull-only float programs.

use cusha_algos::{
    assert_approx_eq, run_sequential, Bfs, ConnectedComponents, PageRank, Sssp, Sswp,
};
use cusha_core::{
    run, run_engine, CuShaConfig, Direction, Engine, EngineError, IntegrityConfig, IntegrityMode,
    NoopObserver, Repr, VertexProgram,
};
use cusha_frontier::{
    run_frontier, try_run_frontier, FrontierConfig, FrontierEngine, PreparedFrontier,
    FRONTIER_LABEL,
};
use cusha_graph::generators::rmat::{rmat, RmatConfig};
use cusha_graph::{Edge, Graph};
use cusha_obs::Tracer;
use cusha_simt::{FaultPlan, FlipTarget};

const MAX_ITERS: u32 = 5_000;

fn test_graph(seed: u64) -> Graph {
    rmat(&RmatConfig::graph500(8, 2200, seed))
}

fn gs_values<P: VertexProgram>(prog: &P, g: &Graph) -> Vec<P::V> {
    let mut cfg = CuShaConfig::gs();
    cfg.max_iterations = MAX_ITERS;
    run(prog, g, &cfg).values
}

fn frontier_values<P: VertexProgram>(prog: &P, g: &Graph) -> Vec<P::V> {
    let mut cfg = FrontierConfig::new();
    cfg.max_iterations = MAX_ITERS;
    run_frontier(prog, g, &cfg).values
}

#[test]
fn bfs_bit_identical_to_gs() {
    let g = test_graph(70);
    assert_eq!(
        frontier_values(&Bfs::new(0), &g),
        gs_values(&Bfs::new(0), &g)
    );
}

#[test]
fn sssp_bit_identical_to_gs() {
    let g = test_graph(71);
    assert_eq!(
        frontier_values(&Sssp::new(0), &g),
        gs_values(&Sssp::new(0), &g)
    );
}

#[test]
fn cc_bit_identical_to_gs() {
    let g = test_graph(72).symmetrized();
    assert_eq!(
        frontier_values(&ConnectedComponents::new(), &g),
        gs_values(&ConnectedComponents::new(), &g)
    );
}

#[test]
fn sswp_bit_identical_to_gs() {
    let g = test_graph(73);
    assert_eq!(
        frontier_values(&Sswp::new(0), &g),
        gs_values(&Sswp::new(0), &g)
    );
}

#[test]
fn bfs_switches_direction_on_density() {
    // A single-source BFS on an RMAT graph starts sparse (push), crosses
    // the density threshold as the wave grows (pull), and sparsifies again
    // at the fringe.
    let g = test_graph(74);
    let out = run_frontier(&Bfs::new(0), &g, &FrontierConfig::new());
    let f = out.stats.frontier.expect("frontier stats");
    assert!(
        f.switches >= 1,
        "expected at least one direction switch, sizes={:?} directions={:?}",
        f.sizes,
        f.directions
    );
    assert!(f.count(Direction::Push) >= 1);
    assert!(f.count(Direction::Pull) >= 1);
    assert_eq!(f.sizes.len(), f.directions.len());
    assert_eq!(f.sizes[0], 1, "BFS seeds a single-vertex frontier");
}

#[test]
fn density_threshold_pins_direction() {
    let g = test_graph(75);
    // Threshold 0 → every iteration is dense (pull); above 1 → all push.
    let pull = run_frontier(
        &Bfs::new(0),
        &g,
        &FrontierConfig::new().with_density_threshold(0.0),
    );
    let fp = pull.stats.frontier.unwrap();
    assert_eq!(fp.count(Direction::Push), 0);
    assert_eq!(fp.switches, 0);
    let push = run_frontier(
        &Bfs::new(0),
        &g,
        &FrontierConfig::new().with_density_threshold(1.5),
    );
    let fq = push.stats.frontier.unwrap();
    assert_eq!(fq.count(Direction::Pull), 0);
    // Both extremes still compute the same function.
    assert_eq!(pull.values, push.values);
}

#[test]
fn pagerank_pull_only_matches_sequential() {
    // PageRank is not FRONTIER_SAFE: the engine must pin every iteration
    // to the dense pull direction and still converge to the same fixpoint.
    let g = test_graph(76);
    // Tight convergence tolerance so both fixpoints land inside the band.
    let prog = PageRank::with_tolerance(1e-5);
    let out = run_frontier(&prog, &g, &FrontierConfig::new());
    let f = out.stats.frontier.clone().expect("frontier stats");
    assert_eq!(f.count(Direction::Push), 0, "non-safe program ran push");
    let oracle = run_sequential(&prog, &g, MAX_ITERS);
    assert!(oracle.converged);
    assert_approx_eq(&out.values, &oracle.values, 1e-3);
}

#[test]
fn middleware_runs_frontier_engine() {
    let g = test_graph(77);
    let cfg = CuShaConfig::new(Repr::GShards);
    let out = run_engine(
        &mut FrontierEngine::new(),
        &Bfs::new(0),
        &g,
        &cfg,
        None,
        &mut NoopObserver,
    )
    .expect("frontier under middleware");
    assert_eq!(out.values, gs_values(&Bfs::new(0), &g));
    assert_eq!(out.stats.engine, "Frontier");
    assert!(out.stats.frontier.is_some());
}

#[test]
fn deadline_aborts_frontier_run() {
    let g = test_graph(78);
    let mut cfg = CuShaConfig::new(Repr::GShards);
    cfg.deadline_seconds = Some(1e-9);
    let err = run_engine(
        &mut FrontierEngine::new(),
        &Bfs::new(0),
        &g,
        &cfg,
        None,
        &mut NoopObserver,
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::Deadline { .. }), "{err}");
}

#[test]
fn copy_faults_retried_by_middleware() {
    let g = test_graph(79);
    let cfg = CuShaConfig::new(Repr::GShards);
    let plan = FaultPlan::new().fail_h2d_at(&[1]);
    let out = run_engine(
        &mut FrontierEngine::new(),
        &Bfs::new(0),
        &g,
        &cfg,
        Some(plan),
        &mut NoopObserver,
    )
    .expect("middleware retries the poisoned upload");
    assert_eq!(out.values, gs_values(&Bfs::new(0), &g));
    assert!(out.stats.fault.copy_retries >= 1);
}

#[test]
fn bit_flips_detected_and_recovered() {
    // Chaos: flips into both protected buffers (vertex values and the
    // activation flags), Full integrity. The run must detect, recover
    // through the rollback/restart ladder, and still produce the exact
    // BFS fixpoint.
    let g = test_graph(80);
    let mut cfg = FrontierConfig::new();
    cfg.integrity = IntegrityConfig {
        mode: IntegrityMode::Full,
        ..IntegrityConfig::default()
    };
    cfg.fault_plan = Some(
        FaultPlan::new()
            .flip_at(2, FlipTarget::VertexValues, 3, 7)
            .flip_at(5, FlipTarget::SrcValue, 1, 11),
    );
    let out = try_run_frontier(&Bfs::new(0), &g, &cfg).expect("recovered run");
    assert_eq!(out.values, gs_values(&Bfs::new(0), &g));
    assert!(out.stats.sdc.flips_injected >= 1, "{:?}", out.stats.sdc);
    assert!(
        out.stats.sdc.checksum_detections >= 1,
        "{:?}",
        out.stats.sdc
    );
    assert!(
        out.stats.sdc.rollbacks + out.stats.sdc.full_restarts + out.stats.sdc.host_fallbacks >= 1,
        "{:?}",
        out.stats.sdc
    );
}

#[test]
fn trace_records_switch_instants_and_frontier_counter() {
    let g = test_graph(81);
    let tracer = Tracer::enabled();
    let cfg = FrontierConfig::new().with_tracer(tracer.clone());
    let out = run_frontier(&Bfs::new(0), &g, &cfg);
    assert!(out.stats.frontier.unwrap().switches >= 1);
    let json = cusha_obs::export::chrome_trace_json(&tracer);
    assert!(
        json.contains("direction-switch"),
        "trace should mark direction switches"
    );
    assert!(
        json.contains("frontier_size"),
        "trace should carry the frontier-size counter"
    );
    assert!(json.contains("frontier-advance-push"));
    assert!(json.contains("frontier-advance-pull"));
}

#[test]
fn warm_reentry_reuses_prepared_topology() {
    let g = test_graph(82);
    let pf = PreparedFrontier::build(&g);
    let cfg = FrontierConfig::new();
    let a =
        cusha_frontier::try_run_frontier_warm(&Bfs::new(0), &g, &pf, &cfg, None, &mut NoopObserver)
            .unwrap();
    let b =
        cusha_frontier::try_run_frontier_warm(&Bfs::new(3), &g, &pf, &cfg, None, &mut NoopObserver)
            .unwrap();
    assert_eq!(a.values, gs_values(&Bfs::new(0), &g));
    assert_eq!(b.values, gs_values(&Bfs::new(3), &g));
}

#[test]
fn tiny_and_degenerate_graphs() {
    // No edges: the BFS frontier dies after one iteration.
    let lonely = Graph::new(3, vec![]);
    let out = run_frontier(&Bfs::new(0), &lonely, &FrontierConfig::new());
    assert_eq!(out.values, vec![0, u32::MAX, u32::MAX]);
    assert!(out.stats.converged);
    // A single chain exercises the minimum-width kernels.
    let chain = Graph::new(3, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1)]);
    let out = run_frontier(&Bfs::new(0), &chain, &FrontierConfig::new());
    assert_eq!(out.values, vec![0, 1, 2]);
}

#[test]
fn engine_adapter_reports_label() {
    // An adapter is called what its runs report: `RunStats::engine`.
    let mut e = FrontierEngine::new();
    assert!(!Engine::<Bfs>::recovers_faults(&e));
    let (g, cfg) = (test_graph(5), CuShaConfig::gs());
    let out = run_engine(&mut e, &Bfs::new(0), &g, &cfg, None, &mut NoopObserver);
    assert_eq!(
        out.expect("frontier under middleware").stats.engine,
        FRONTIER_LABEL
    );
}

#[test]
fn frontier_output_is_the_engine_output_type() {
    // `FrontierOutput` is an alias: the adapter and the service convert nothing.
    let g = test_graph(9);
    let out: cusha_core::CuShaOutput<u32> = run_frontier(&Bfs::new(0), &g, &FrontierConfig::new());
    let out: cusha_frontier::FrontierOutput<u32> = out;
    assert_eq!(out.values, gs_values(&Bfs::new(0), &g));
    assert!(out.stats.frontier.is_some());
}
