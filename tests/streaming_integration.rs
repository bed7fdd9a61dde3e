//! Out-of-core (streamed) engine vs the in-core engine across algorithm
//! shapes: with/without edge values, with static values (PageRank), and
//! with pair-typed vertex values (Heat Simulation).

use cusha::algos::{assert_approx_eq, Bfs, HeatSimulation, PageRank, Sssp};
use cusha::core::{
    run, run_streamed, try_run, try_run_streamed, CuShaConfig, Repr, StreamingConfig,
};
use cusha::graph::generators::lattice2d;
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{Edge, Graph};

fn configs() -> [CuShaConfig; 2] {
    [
        CuShaConfig::new(Repr::GShards).with_vertices_per_shard(32),
        CuShaConfig::new(Repr::ConcatWindows).with_vertices_per_shard(32),
    ]
}

#[test]
fn bfs_streamed_matches_in_core() {
    let g = rmat(&RmatConfig::graph500(9, 3000, 95));
    for base in configs() {
        let in_core = run(&Bfs::new(0), &g, &base);
        // ~5 batches.
        let streamed = run_streamed(
            &Bfs::new(0),
            &g,
            &StreamingConfig::new(base.clone(), 3000 * 12 / 5),
        );
        assert_eq!(streamed.values, in_core.values, "{}", base.repr.label());
        assert!(streamed.stats.converged);
    }
}

#[test]
fn pagerank_with_statics_streams_correctly() {
    // PageRank exercises the per-entry static-value batches.
    let g = rmat(&RmatConfig::graph500(8, 1800, 96));
    let prog = PageRank::with_tolerance(1e-5);
    for base in configs() {
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(
            &prog,
            &g,
            &StreamingConfig::new(base.clone(), 1800 * 16 / 4),
        );
        assert_approx_eq(&streamed.values, &in_core.values, 1e-6);
        assert_eq!(streamed.stats.iterations, in_core.stats.iterations);
    }
}

#[test]
fn heat_with_pair_values_streams_correctly() {
    // HS exercises 8-byte vertex values and edge values together.
    let g = lattice2d(16, 16, 0.9, 10, 97);
    let prog = HeatSimulation::with_tolerance(1e-3);
    for base in configs() {
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(&prog, &g, &StreamingConfig::new(base.clone(), 1024));
        let a: Vec<f32> = streamed.values.iter().map(|v| v.0).collect();
        let b: Vec<f32> = in_core.values.iter().map(|v| v.0).collect();
        assert_approx_eq(&a, &b, 1e-6);
    }
}

#[test]
fn streamed_time_exceeds_in_core_time() {
    // Streaming re-uploads every batch every iteration: it must cost more
    // modeled time than keeping everything resident, never less.
    let g = rmat(&RmatConfig::graph500(9, 4000, 98));
    let base = CuShaConfig::cw().with_vertices_per_shard(32);
    let in_core = run(&Sssp::new(0), &g, &base);
    let streamed = run_streamed(
        &Sssp::new(0),
        &g,
        &StreamingConfig::new(base, 4000 * 16 / 6),
    );
    assert!(
        streamed.stats.compute_seconds > in_core.stats.compute_seconds,
        "streamed {} !> in-core {}",
        streamed.stats.compute_seconds,
        in_core.stats.compute_seconds
    );
}

mod proptests {
    use super::*;
    use cusha::graph::{Edge, Graph};
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = Graph> {
        (2u32..100).prop_flat_map(|n| {
            let edge = (0..n, 0..n, 1u32..65).prop_map(|(s, d, w)| Edge::new(s, d, w));
            proptest::collection::vec(edge, 0..300).prop_map(move |edges| Graph::new(n, edges))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn streamed_equals_in_core_on_arbitrary_graphs(
            g in arb_graph(),
            n_per in 1u32..40,
            budget in 1u64..4096,
        ) {
            let base = CuShaConfig::cw().with_vertices_per_shard(n_per);
            let in_core = run(&Sssp::new(0), &g, &base);
            let streamed =
                run_streamed(&Sssp::new(0), &g, &StreamingConfig::new(base, budget));
            prop_assert_eq!(streamed.values, in_core.values);
        }
    }
}

#[test]
fn one_shard_per_batch_still_works() {
    // Budget below a single shard's bytes: every shard becomes its own
    // batch, maximizing cross-batch window writes.
    let g = rmat(&RmatConfig::graph500(7, 600, 99));
    let base = CuShaConfig::gs().with_vertices_per_shard(16);
    let in_core = run(&Bfs::new(0), &g, &base);
    let streamed = run_streamed(&Bfs::new(0), &g, &StreamingConfig::new(base, 1));
    assert_eq!(streamed.values, in_core.values);
}

#[test]
fn a_long_run_streams_through_a_device_the_in_core_engine_fits() {
    // A 400-vertex chain converges in 351 iterations of 7 batches each. A
    // retired batch's memory goes back to the device, so what is held stays
    // at the resident values plus one batch, however long the run: devices
    // the whole graph fits — where every batch ever uploaded used to stay
    // allocated until the device ran out — stream it without a rebatch.
    let g = Graph::new(400, (0..399).map(|v| Edge::new(v, v + 1, 1)).collect());
    let prog = Sssp::new(0);
    for device_bytes in [64u64 << 10, 1 << 20] {
        let mut base = CuShaConfig::gs().with_vertices_per_shard(8);
        base.max_iterations = 2000;
        base.device.global_mem_bytes = device_bytes;
        let in_core = try_run(&prog, &g, &base).expect("the graph fits the device");
        let streamed = try_run_streamed(&prog, &g, &StreamingConfig::new(base, 1024))
            .unwrap_or_else(|e| panic!("{device_bytes} B device: {e}"));
        assert!(streamed.stats.converged);
        assert!(
            streamed.stats.fault.is_clean(),
            "{:?}",
            streamed.stats.fault
        );
        assert_eq!(streamed.values, in_core.values);
        assert_eq!(streamed.stats.iterations, in_core.stats.iterations);
    }
}
