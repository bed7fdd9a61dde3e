//! Degenerate and adversarial inputs through the full engines.

use cusha::algos::bfs::bfs_levels;
use cusha::algos::{Bfs, PageRank, Sssp, INF};
use cusha::baselines::{run_mtcpu, run_vwc, MtcpuConfig, VwcConfig};
use cusha::core::{run, CuShaConfig};
use cusha::graph::{Edge, Graph, GraphBuilder};

fn engines_agree_bfs(g: &Graph, source: u32) {
    let oracle = bfs_levels(g, source);
    let gs = run(
        &Bfs::new(source),
        g,
        &CuShaConfig::gs().with_vertices_per_shard(4),
    );
    assert_eq!(gs.values, oracle, "GS");
    let cw = run(
        &Bfs::new(source),
        g,
        &CuShaConfig::cw().with_vertices_per_shard(4),
    );
    assert_eq!(cw.values, oracle, "CW");
    let vwc = run_vwc(&Bfs::new(source), g, &VwcConfig::new(4));
    assert_eq!(vwc.values, oracle, "VWC");
    let cpu = run_mtcpu(&Bfs::new(source), g, &MtcpuConfig::new(3));
    assert_eq!(cpu.values, oracle, "MTCPU");
}

#[test]
fn single_vertex_no_edges() {
    engines_agree_bfs(&Graph::empty(1), 0);
}

#[test]
fn single_vertex_self_loop() {
    engines_agree_bfs(&Graph::new(1, vec![Edge::new(0, 0, 1)]), 0);
}

#[test]
fn two_vertices_parallel_edges() {
    let g = Graph::new(
        2,
        vec![Edge::new(0, 1, 3), Edge::new(0, 1, 9), Edge::new(0, 1, 1)],
    );
    engines_agree_bfs(&g, 0);
    // SSSP must pick the lightest parallel edge.
    let out = run(
        &Sssp::new(0),
        &g,
        &CuShaConfig::cw().with_vertices_per_shard(1),
    );
    assert_eq!(out.values, vec![0, 1]);
}

#[test]
fn fully_disconnected_graph() {
    let g = Graph::empty(100);
    engines_agree_bfs(&g, 42);
    let out = run(
        &Bfs::new(42),
        &g,
        &CuShaConfig::gs().with_vertices_per_shard(7),
    );
    assert_eq!(out.values.iter().filter(|&&v| v == 0).count(), 1);
    assert_eq!(out.values.iter().filter(|&&v| v == INF).count(), 99);
    assert_eq!(out.stats.iterations, 1);
}

#[test]
fn chain_longer_than_shard_count() {
    // Propagation must cross many shard boundaries.
    let g = Graph::new(200, (0..199).map(|v| Edge::new(v, v + 1, 1)).collect());
    engines_agree_bfs(&g, 0);
}

#[test]
fn backward_chain_fights_block_order() {
    // Values must also propagate *against* ascending block order.
    let g = Graph::new(200, (0..199).map(|v| Edge::new(v + 1, v, 1)).collect());
    engines_agree_bfs(&g, 199);
    let out = run(
        &Bfs::new(199),
        &g,
        &CuShaConfig::cw().with_vertices_per_shard(8),
    );
    assert_eq!(out.values[0], 199);
    // Backward propagation needs many more iterations than forward.
    assert!(
        out.stats.iterations > 5,
        "iterations: {}",
        out.stats.iterations
    );
}

#[test]
fn hub_and_spokes() {
    // Extreme degree skew: one vertex with 500 in-edges.
    let mut b = GraphBuilder::new();
    for v in 1..=500 {
        b.add_edge(v, 0, 1);
        b.add_edge(0, v, 1);
    }
    let g = b.build();
    engines_agree_bfs(&g, 0);
}

#[test]
fn saturating_weights_near_inf() {
    // Weights that would overflow INF must saturate, not wrap.
    let g = Graph::new(
        3,
        vec![Edge::new(0, 1, u32::MAX - 5), Edge::new(1, 2, u32::MAX - 5)],
    );
    let out = run(
        &Sssp::new(0),
        &g,
        &CuShaConfig::gs().with_vertices_per_shard(2),
    );
    assert_eq!(out.values[1], u32::MAX - 5);
    // 2's distance saturates instead of wrapping to a small number...
    assert_eq!(out.values[2], u32::MAX);
    // ...and the run still terminates (no oscillation).
    assert!(out.stats.converged);
}

#[test]
fn shard_size_larger_than_graph() {
    let g = Graph::new(5, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1)]);
    let out = run(
        &Bfs::new(0),
        &g,
        &CuShaConfig::cw().with_vertices_per_shard(1000),
    );
    assert_eq!(out.values[..3], [0, 1, 2]);
}

#[test]
fn max_iterations_cap_is_honored() {
    let g = Graph::new(100, (0..99).map(|v| Edge::new(v + 1, v, 1)).collect());
    let mut cfg = CuShaConfig::gs().with_vertices_per_shard(2);
    cfg.max_iterations = 3;
    let out = run(&Bfs::new(99), &g, &cfg);
    assert!(!out.stats.converged);
    assert_eq!(out.stats.iterations, 3);
}

#[test]
fn pagerank_on_a_sink_heavy_graph_terminates() {
    // All mass flows into vertex 0; dangling vertices everywhere.
    let g = Graph::new(50, (1..50).map(|v| Edge::new(v, 0, 1)).collect());
    let out = run(
        &PageRank::new(),
        &g,
        &CuShaConfig::cw().with_vertices_per_shard(8),
    );
    assert!(out.stats.converged);
    assert!(out.values[0] > out.values[1]);
}

#[test]
fn vwc_handles_vertex_count_not_divisible_by_block() {
    let g = Graph::new(77, (0..76).map(|v| Edge::new(v, v + 1, 1)).collect());
    for vw in [2usize, 32] {
        let out = run_vwc(&Bfs::new(0), &g, &VwcConfig::new(vw));
        assert_eq!(out.values, bfs_levels(&g, 0), "vw={vw}");
    }
}

#[test]
fn mtcpu_thread_counts_beyond_cores() {
    let g = Graph::new(64, (0..63).map(|v| Edge::new(v, v + 1, 1)).collect());
    let out = run_mtcpu(&Bfs::new(0), &g, &MtcpuConfig::new(128));
    assert_eq!(out.values, bfs_levels(&g, 0));
}

/// A graph the modeled device cannot hold is refused with the typed error its
/// uploads would end in, before the host builds the |V|- and p²-sized tables
/// of its representation (each of these used to abort the process on a
/// GB-to-TB-sized allocation instead).
#[test]
fn graphs_past_the_device_are_refused_before_anything_is_built() {
    use cusha::baselines::{try_run_vwc, VwcEngine};
    use cusha::core::{run_engine, try_run, EngineError, NoopObserver, Repr, ShardEngine};
    use cusha::frontier::{
        try_run_frontier, try_run_kcore, try_run_triangles, FrontierConfig, FrontierEngine,
    };
    use cusha::simt::DeviceConfig;

    fn refused<T, V>(what: &str, ran: Result<T, EngineError<V>>) {
        match ran.err() {
            Some(EngineError::DeviceOom {
                requested_bytes,
                capacity_bytes,
            }) => assert!(requested_bytes > capacity_bytes, "{what}"),
            Some(other) => panic!("{what}: expected DeviceOom, got {other}"),
            None => panic!("{what}: ran"),
        }
    }
    // The shard engines' p x p window table outgrows the 3 GiB GTX 780 at
    // 300 M vertices; a CSR of that many u32 values still fits it (2.4 GB),
    // so the CSR-based engines meet the 2 GiB GTX 680 there.
    for (far, csr_device) in [
        (4_000_000_000u32, DeviceConfig::gtx780()),
        (300_000_000, DeviceConfig::gtx680()),
    ] {
        let g = Graph::new(far + 1, vec![Edge::new(0, far, 1)]);
        let bfs = Bfs::new(0);
        let mut cfg = CuShaConfig::cw();
        for repr in [Repr::ConcatWindows, Repr::GShards] {
            cfg.repr = repr;
            refused(&format!("try_run {repr:?} {far}"), try_run(&bfs, &g, &cfg));
            let mut shard = ShardEngine::new(repr);
            let ran = run_engine(&mut shard, &bfs, &g, &cfg, None, &mut NoopObserver);
            refused(&format!("ShardEngine {repr:?} {far}"), ran);
        }
        cfg.device = csr_device.clone();
        let mut frontier_cfg = FrontierConfig::new();
        frontier_cfg.device = csr_device.clone();
        refused("frontier", try_run_frontier(&bfs, &g, &frontier_cfg));
        refused(
            "kcore",
            try_run_kcore(&g, &frontier_cfg, None, &mut NoopObserver),
        );
        refused("triangles", try_run_triangles(&g, &frontier_cfg));
        let mut frontier = FrontierEngine::new();
        let ran = run_engine(&mut frontier, &bfs, &g, &cfg, None, &mut NoopObserver);
        refused("FrontierEngine", ran);
        let mut vwc_cfg = VwcConfig::new(8);
        vwc_cfg.device = csr_device;
        refused(
            "vwc:8",
            try_run_vwc(&bfs, &g, &vwc_cfg, None, &mut NoopObserver),
        );
        let ran = run_engine(
            &mut VwcEngine::new(8),
            &bfs,
            &g,
            &cfg,
            None,
            &mut NoopObserver,
        );
        refused("VwcEngine", ran);
    }
    // The same arithmetic lets a graph that fits through untouched.
    let small = Graph::new(2, vec![Edge::new(0, 1, 1)]);
    assert_eq!(
        try_run(&Bfs::new(0), &small, &CuShaConfig::cw())
            .expect("fits")
            .values,
        [0, 1]
    );
}
