//! Tests of the engine's warm re-entry surface: prepared layouts,
//! iteration-boundary deadlines, and fault-plan threading across runs.

use cusha::algos::{Bfs, Sssp};
use cusha::baselines::{try_run_mtcpu_warm, try_run_vwc_warm, MtcpuConfig, VwcConfig};
use cusha::core::{
    try_run, try_run_multi, try_run_streamed, try_run_warm, CuShaConfig, Engine, EngineCtx,
    EngineError, MultiConfig, NoopObserver, Placement, PreparedLayout, Repr, RunObserver,
    ShardEngine, StreamingConfig,
};
use cusha::frontier::{try_run_frontier_warm, try_run_kcore, FrontierConfig, PreparedFrontier};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{Csr, Edge, Graph};
use cusha::simt::FaultPlan;

fn graph() -> Graph {
    rmat(&RmatConfig::graph500(9, 3_000, 7))
}

/// Builds the layout the engine's autotuner would pick for 4-byte values.
fn layout_for(g: &Graph, cfg: &CuShaConfig) -> PreparedLayout {
    let n_per = PreparedLayout::select_n_per(g, cfg, 4);
    PreparedLayout::build(g, Repr::ConcatWindows, n_per)
}

#[test]
fn warm_runs_are_bit_identical_to_cold_runs() {
    let g = graph();
    let cfg = CuShaConfig::cw();
    let cold = try_run(&Sssp::new(4), &g, &cfg).unwrap();

    let layout = layout_for(&g, &cfg);
    let mut first = None;
    for _ in 0..2 {
        let warm = try_run_warm(&Sssp::new(4), &g, &layout, &cfg, None, &mut NoopObserver).unwrap();
        assert_eq!(warm.values, cold.values, "warm layout changed the answer");
        assert_eq!(warm.stats.iterations, cold.stats.iterations);
        if let Some(prev) = first.replace(warm.values.clone()) {
            assert_eq!(prev, warm.values, "layout reuse is not idempotent");
        }
    }
}

/// A 5-vertex chain `0 -> 1 -> 2 -> 3 -> 4`, and graphs of other shapes.
fn chain() -> Graph {
    Graph::new(5, (0..4).map(|v| Edge::new(v, v + 1, 1)).collect())
}

/// A warm entry handed topology built for another graph refuses it, typed.
fn refused<T: std::fmt::Debug>(entry: &str, result: Result<T, EngineError<u32>>) {
    match result {
        Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("vertices"), "{entry}: {msg}"),
        other => panic!("{entry}: expected InvalidConfig, got {other:?}"),
    }
}

/// The chain's layout over the one-edge graph `0 -> 4` of as many vertices:
/// the vertex counts agree, so only the edge count tells them apart (BFS
/// would answer the chain's levels `[0, 1, 2, 3, 4]`, not `[0, ∞, ∞, ∞, 1]`).
#[test]
fn a_shard_layout_built_for_another_graph_is_refused() {
    let one_edge = Graph::new(5, vec![Edge::new(0, 4, 1)]);
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let cfg = CuShaConfig::new(repr);
        let layout = PreparedLayout::build(&chain(), repr, 2);
        let bfs = try_run_warm(
            &Bfs::new(0),
            &one_edge,
            &layout,
            &cfg,
            None,
            &mut NoopObserver,
        );
        refused("bfs", bfs.map(|o| o.values));
        let sssp = try_run_warm(
            &Sssp::new(0),
            &one_edge,
            &layout,
            &cfg,
            None,
            &mut NoopObserver,
        );
        refused("sssp", sssp.map(|o| o.values));
    }
}

/// The frontier adjacency and the in-edge CSR of the chain over a 10-vertex
/// graph (the frontier entry would answer BFS for five vertices and leave the
/// rest unreached).
#[test]
fn frontier_and_csr_topology_built_for_another_graph_is_refused() {
    let ten = Graph::new(10, (0..9).map(|v| Edge::new(v, v + 1, 1)).collect());
    let pf = PreparedFrontier::build(&chain());
    let cfg = FrontierConfig::new();
    let frontier = try_run_frontier_warm(&Bfs::new(0), &ten, &pf, &cfg, None, &mut NoopObserver);
    refused("frontier", frontier.map(|o| o.values));
    let csr = Csr::from_graph(&chain());
    let vwc = VwcConfig::new(8);
    refused(
        "vwc",
        try_run_vwc_warm(&Bfs::new(0), &ten, &csr, &vwc, None, &mut NoopObserver).map(|o| o.values),
    );
    let mtcpu = MtcpuConfig::new(2);
    refused(
        "mtcpu",
        try_run_mtcpu_warm(&Bfs::new(0), &ten, &csr, &mtcpu, &mut NoopObserver).map(|o| o.values),
    );
}

#[test]
fn deadline_cancels_at_an_iteration_boundary() {
    let g = graph();
    let cfg = CuShaConfig::cw().with_deadline(1e-9);
    match try_run(&Bfs::new(0), &g, &cfg) {
        Err(EngineError::Deadline {
            iterations,
            elapsed_seconds,
        }) => {
            assert!(iterations >= 1, "at least one full iteration completes");
            assert!(elapsed_seconds >= 1e-9);
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    // The same error carries the taxonomy tag the CLI maps to exit 4.
    let err = try_run(&Bfs::new(0), &g, &cfg).unwrap_err();
    assert_eq!(err.kind(), "deadline");
}

/// `deadline_seconds` is part of the base config, so the streamed and fleet
/// engines must honour it on a direct call too — not only when the caller
/// routes through `run_engine`'s middleware.
#[test]
fn deadline_cancels_streamed_and_fleet_runs_called_directly() {
    let g = graph();
    let base = CuShaConfig::cw().with_deadline(1e-9);
    let streamed = try_run_streamed(
        &Bfs::new(0),
        &g,
        &StreamingConfig::new(base.clone(), 1 << 16),
    );
    let fleet = try_run_multi(&Bfs::new(0), &g, &MultiConfig::new(base, 2));
    for (engine, err) in [
        ("streamed", streamed.map(|_| ()).unwrap_err()),
        ("fleet", fleet.map(|_| ()).unwrap_err()),
    ] {
        match err {
            EngineError::Deadline {
                iterations,
                elapsed_seconds,
            } => {
                assert_eq!(iterations, 1, "{engine}: cancels at the first boundary");
                assert!(elapsed_seconds >= 1e-9, "{engine}");
            }
            other => panic!("{engine}: expected a deadline error, got {other:?}"),
        }
    }
}

/// The frontier family reads `deadline_seconds` from its own config, so the
/// same holds there: a direct call, no middleware, a no-op observer.
#[test]
fn deadline_cancels_frontier_and_kcore_runs_called_directly() {
    let g = graph();
    let mut cfg = FrontierConfig::new();
    cfg.deadline_seconds = Some(1e-9);
    let pf = PreparedFrontier::build(&g);
    let frontier = try_run_frontier_warm(&Bfs::new(0), &g, &pf, &cfg, None, &mut NoopObserver);
    let kcore = try_run_kcore(&g, &cfg, None, &mut NoopObserver);
    for (engine, err) in [
        ("frontier", frontier.map(|_| ()).unwrap_err()),
        ("k-core", kcore.map(|_| ()).unwrap_err()),
    ] {
        match err {
            EngineError::Deadline {
                iterations,
                elapsed_seconds,
            } => {
                assert_eq!(iterations, 1, "{engine}: cancels at the first boundary");
                assert!(elapsed_seconds >= 1e-9, "{engine}");
            }
            other => panic!("{engine}: expected a deadline error, got {other:?}"),
        }
    }
    // A generous deadline changes nothing.
    cfg.deadline_seconds = Some(3600.0);
    let timed = try_run_kcore(&g, &cfg, None, &mut NoopObserver).unwrap();
    let plain = try_run_kcore(&g, &FrontierConfig::new(), None, &mut NoopObserver).unwrap();
    assert_eq!(timed.core, plain.core);
    assert_eq!(timed.stats.iterations, plain.stats.iterations);
}

#[test]
fn generous_deadline_does_not_interfere() {
    let g = graph();
    let out = try_run(&Bfs::new(0), &g, &CuShaConfig::cw().with_deadline(3600.0)).unwrap();
    let plain = try_run(&Bfs::new(0), &g, &CuShaConfig::cw()).unwrap();
    assert_eq!(out.values, plain.values);
}

#[test]
fn observer_cancellation_is_a_typed_deadline() {
    // An observer that gives up after two iterations produces the same
    // typed error as a config deadline.
    struct StopAfter(u32);
    impl RunObserver for StopAfter {
        fn on_iteration(&mut self, iteration: u32, _updated: u64, _elapsed: f64) -> bool {
            iteration < self.0
        }
    }
    let g = graph();
    let cfg = CuShaConfig::cw();
    let layout = layout_for(&g, &cfg);
    match try_run_warm(&Bfs::new(0), &g, &layout, &cfg, None, &mut StopAfter(2)) {
        Err(EngineError::Deadline { iterations, .. }) => assert_eq!(iterations, 2),
        other => panic!("expected a deadline error, got {other:?}"),
    }
}

#[test]
fn fault_plan_advances_across_warm_runs() {
    // One-shot kernel fault at op 0: the first warm run consumes it and
    // fails (the engine surfaces kernel faults; a resident caller
    // retries). The plan written back must not replay the fault, so the
    // retry succeeds cleanly — this is what lets the service's retry
    // loop make progress instead of hitting the same fault forever.
    let g = graph();
    let cfg = CuShaConfig::cw();
    let layout = layout_for(&g, &cfg);
    let mut plan = FaultPlan::seeded(2).fail_kernel_at(&[0]);

    let r1 = try_run_warm(
        &Bfs::new(0),
        &g,
        &layout,
        &cfg,
        Some(&mut plan),
        &mut NoopObserver,
    );
    match r1 {
        Err(EngineError::KernelFault { op_index, .. }) => assert_eq!(op_index, 0),
        other => panic!("expected the injected kernel fault, got {other:?}"),
    }

    let r2 = try_run_warm(
        &Bfs::new(0),
        &g,
        &layout,
        &cfg,
        Some(&mut plan),
        &mut NoopObserver,
    )
    .unwrap();
    assert!(
        r2.stats.fault.is_clean(),
        "consumed fault re-fired on a warm run: {:?}",
        r2.stats.fault
    );
    let cold = try_run(&Bfs::new(0), &g, &cfg).unwrap();
    assert_eq!(r2.values, cold.values);
}

/// `EngineCtx::fault_plan`'s contract, adapter by adapter: whatever an attempt
/// consumed is written back through the slot, whether the attempt succeeded,
/// recovered inside the engine or failed — or the middleware's next attempt
/// (a retry) re-fires it.
#[test]
fn every_adapter_writes_the_advanced_plan_back() {
    let (g, prog, cfg) = (graph(), Sssp::new(4), CuShaConfig::cw());
    let adapters = || -> [(&str, Box<dyn Engine<Sssp>>); 3] {
        let placed = |placement| {
            Box::new(ShardEngine {
                repr: Repr::ConcatWindows,
                placement,
            })
        };
        [
            ("shard", Box::new(ShardEngine::new(Repr::ConcatWindows))),
            ("streamed", placed(Placement::streamed(1 << 14))),
            ("fleet", placed(Placement::fleet(2))),
        ]
    };
    // (plan, which adapters still succeed under it)
    let table = [
        (FaultPlan::new(), ["shard", "streamed", "fleet"].as_slice()),
        // One kernel fault: surfaced by the shard engine, retried by the rest.
        (
            FaultPlan::seeded(2).fail_kernel_at(&[0]),
            ["streamed", "fleet"].as_slice(),
        ),
        // The first upload fails past every copy-retry budget.
        (FaultPlan::new().fail_h2d_at(&[0, 1, 2, 3]), [].as_slice()),
    ];
    for (start, succeed) in table {
        for (name, mut engine) in adapters() {
            let mut plan = start.clone();
            let ctx = EngineCtx {
                cfg: &cfg,
                fault_plan: Some(&mut plan),
                observer: &mut NoopObserver,
            };
            let result = engine.execute(&prog, &g, ctx);
            assert_eq!(result.is_ok(), succeed.contains(&name), "{name}: {start:?}");
            assert!(plan.op_counters().0 > 0, "{name}: h2d counter not advanced");
            let armed = start.could_disrupt() as u64;
            assert!(
                plan.injected().total() >= armed,
                "{name}: the fault it consumed is still armed in the caller's plan"
            );
        }
    }
}

#[test]
fn memo_stats_are_per_run_on_a_layout_that_keeps_its_table() {
    // The layout's replay table outlives each run's device, so its lifetime
    // totals keep growing; a run reports only the probes it made itself.
    let g = graph();
    let cfg = CuShaConfig::cw();
    let layout = layout_for(&g, &cfg);
    let p = u64::from(layout.num_shards());
    let memos: Vec<_> = (0..3)
        .map(|_| {
            try_run_warm(&Bfs::new(0), &g, &layout, &cfg, None, &mut NoopObserver)
                .unwrap()
                .stats
                .memo
        })
        .collect();
    // First run: each shard records stages 1 and 2, and stage 4 if it ever
    // published a value.
    let first = memos[0];
    assert!(
        (2 * p..=3 * p).contains(&first.replay_misses),
        "{first:?}, p = {p}"
    );
    assert!(first.replay_hits > 0, "{first:?}");
    // Later runs open the same scopes and find every one recorded.
    let scopes = first.replay_hits + first.replay_misses;
    for later in &memos[1..] {
        assert_eq!(
            (later.replay_hits, later.replay_misses),
            (scopes, 0),
            "not per-run: {memos:?}"
        );
    }
}

#[test]
fn a_layout_of_thousands_of_shards_grows_its_table_instead_of_thrashing() {
    // 4,096 shards x 3 scopes is far past the table's first allocation: it
    // must double as it fills, so that every scope misses exactly once.
    let g = rmat(&RmatConfig::graph500(13, 40_000, 3));
    let cfg = CuShaConfig::cw();
    let layout = PreparedLayout::build(&g, Repr::ConcatWindows, 2);
    let p = u64::from(layout.num_shards());
    assert!(p >= 4096);
    let first = try_run_warm(&Bfs::new(0), &g, &layout, &cfg, None, &mut NoopObserver).unwrap();
    assert!(first.stats.iterations >= 3);
    let memo = first.stats.memo;
    assert!(memo.replay_misses <= 3 * p + 1, "{memo:?}, p = {p}");
    assert!(memo.replay_hits > memo.replay_misses, "{memo:?}");
    let (filled, allocated) = layout.replay_slots();
    assert_eq!(filled as u64, memo.replay_misses);
    assert!(allocated >= 2 * filled, "{filled} of {allocated} slots");
    let second = try_run_warm(&Bfs::new(0), &g, &layout, &cfg, None, &mut NoopObserver).unwrap();
    assert_eq!(second.stats.memo.replay_misses, 0);
    assert_eq!(second.values, first.values);
}
