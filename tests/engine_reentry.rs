//! Tests of the engine's warm re-entry surface: prepared layouts,
//! iteration-boundary deadlines, and fault-plan threading across runs.

use cusha::algos::sssp::dijkstra;
use cusha::algos::{Bfs, PageRank, Sssp};
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

/// A warm run shares its layout's constant columns into the device, and
/// nothing writes them: seeded flips of `VertexValues`, `SrcValue` and its
/// windows land in the run's own buffers, as every stage-4 write does. The
/// next run on the same layout still answers what a clean one does.
#[test]
fn flips_and_write_backs_never_reach_a_shared_column() {
    let g = graph();
    let (sssp, pr, oracle) = (Sssp::new(4), PageRank::new(), dijkstra(&g, 4));
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let cfg = CuShaConfig::new(repr);
        let layout = PreparedLayout::build(&g, repr, PreparedLayout::select_n_per(&g, &cfg, 4));
        let ranks = try_run(&pr, &g, &cfg).unwrap().values;
        let mut flipped = 0;
        for seed in 0..4 {
            let mut plan = FaultPlan::seeded(seed).with_bitflip_rate(0.6);
            let _ = try_run_warm(&sssp, &g, &layout, &cfg, Some(&mut plan), &mut NoopObserver);
            let _ = try_run_warm(&pr, &g, &layout, &cfg, Some(&mut plan), &mut NoopObserver);
            flipped += plan.injected().bit_flips;
            let clean = try_run_warm(&sssp, &g, &layout, &cfg, None, &mut NoopObserver);
            assert_eq!(
                clean.unwrap().values,
                oracle,
                "{}: seed {seed}",
                repr.label()
            );
            let clean = try_run_warm(&pr, &g, &layout, &cfg, None, &mut NoopObserver);
            assert_eq!(
                clean.unwrap().values,
                ranks,
                "{}: seed {seed}",
                repr.label()
            );
        }
        assert!(flipped > 0, "{}: no flip fired", repr.label());
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
    // One-shot kernel faults at ops 0 and 1: the first warm run's device
    // relaunches past the first and surfaces the second, failing the run.
    // The plan written back must not replay them, so the next run on it
    // succeeds cleanly — this is what lets the service's next launch make
    // progress instead of hitting the same fault forever.
    let g = graph();
    let cfg = CuShaConfig::cw();
    let layout = layout_for(&g, &cfg);
    let mut plan = FaultPlan::seeded(2).fail_kernel_at(&[0, 1]);

    let r1 = try_run_warm(
        &Bfs::new(0),
        &g,
        &layout,
        &cfg,
        Some(&mut plan),
        &mut NoopObserver,
    );
    match r1 {
        Err(EngineError::KernelFault { op_index, .. }) => assert_eq!(op_index, 1),
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

/// `EngineCtx::fault_plan`'s contract, adapter by adapter: whatever a run
/// consumed is written back through the slot, whether the run succeeded,
/// recovered inside the engine or failed — or the next run sharing the plan
/// re-fires it.
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
        // One kernel fault: every device relaunches it in place.
        (
            FaultPlan::seeded(2).fail_kernel_at(&[0]),
            ["shard", "streamed", "fleet"].as_slice(),
        ),
        // Past the relaunch budget: surfaced by the shard engine, degraded
        // past by the rest.
        (
            FaultPlan::seeded(2).fail_kernel_at(&[0, 1]),
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
    // The layout's launch record outlives each run's device, so its uses
    // keep adding up; a run reports only the uses it made itself.
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
    // First run: the first launch records the fixed share, and each shard
    // records its stage-4 share the first time it publishes a value.
    let first = memos[0];
    assert!(
        (2..=1 + p).contains(&first.replay_misses),
        "{first:?}, p = {p}"
    );
    assert!(first.replay_hits > 0, "{first:?}");
    // Later runs make the same uses and find every one recorded.
    let uses = first.replay_hits + first.replay_misses;
    for later in &memos[1..] {
        assert_eq!(
            (later.replay_hits, later.replay_misses),
            (uses, 0),
            "not per-run: {memos:?}"
        );
    }
}

#[test]
fn a_layout_of_thousands_of_shards_records_once() {
    // 4,096 shards: one record holds the whole launch's fixed share and a
    // share per block, so the first run misses once plus once per shard
    // that publishes, and a second run on the layout misses nothing.
    let g = rmat(&RmatConfig::graph500(13, 40_000, 3));
    let cfg = CuShaConfig::cw();
    let layout = PreparedLayout::build(&g, Repr::ConcatWindows, 2);
    let p = u64::from(layout.num_shards());
    assert!(p >= 4096);
    let first = try_run_warm(&Bfs::new(0), &g, &layout, &cfg, None, &mut NoopObserver).unwrap();
    assert!(first.stats.iterations >= 3);
    let memo = first.stats.memo;
    assert!(memo.replay_misses <= 1 + p, "{memo:?}, p = {p}");
    assert!(memo.replay_hits > 0, "{memo:?}");
    let second = try_run_warm(&Bfs::new(0), &g, &layout, &cfg, None, &mut NoopObserver).unwrap();
    assert_eq!(second.stats.memo.replay_misses, 0);
    assert_eq!(
        second.stats.memo.replay_hits,
        memo.replay_hits + memo.replay_misses
    );
    assert_eq!(second.values, first.values);
}
