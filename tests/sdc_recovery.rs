//! Silent-data-corruption defense: seeded bit-flip injection must be (a)
//! provably harmful with integrity checking off, and (b) fully masked with
//! `IntegrityMode::Full` — recovered outputs bit-identical to a fault-free
//! run, with the detection/rollback counters recording what happened.

use cusha::algos::{
    run_sequential, Bfs, CircuitSimulation, ConnectedComponents, HeatSimulation, MultiSourceBfs,
    NeuralNetwork, PageRank, Sssp, Sswp,
};
use cusha::baselines::{try_run_vwc, VwcConfig};
use cusha::core::{
    run_fallback, try_run, try_run_multi, try_run_placed, try_run_streamed, try_run_warm,
    CuShaConfig, EngineError, FrontierStats, IntegrityConfig, IntegrityMode, MultiConfig,
    NoopObserver, Placement, PreparedLayout, Repr, RunStats, StreamingConfig, Value, VertexProgram,
};
use cusha::frontier::{host_kcore, try_run_frontier, try_run_kcore, FrontierConfig};
use cusha::graph::generators::lattice::lattice2d;
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::Graph;
use cusha::obs::trace::Ph;
use cusha::obs::Tracer;
use cusha::simt::{FaultPlan, FlipTarget};

fn small_graph(seed: u64) -> Graph {
    rmat(&RmatConfig::graph500(8, 3000, seed))
}

fn base_cfg(repr: Repr) -> CuShaConfig {
    CuShaConfig::new(repr).with_vertices_per_shard(32)
}

fn full_integrity() -> IntegrityConfig {
    IntegrityConfig::with_mode(IntegrityMode::Full)
}

/// A flip of the BFS source's level at kernel boundary 0 turns level 0 into
/// `1 << bit`; min-folding over in-neighbors can pull it back down only to
/// some positive level (every incoming edge contributes `level + 1 >= 1`),
/// never to 0, so the final output provably differs. With integrity off the
/// corruption escapes silently.
#[test]
fn integrity_off_lets_a_flip_reach_the_output() {
    let g = small_graph(91);
    let prog = Bfs::new(0);
    let clean = try_run(&prog, &g, &base_cfg(Repr::GShards)).expect("clean run");
    assert_eq!(clean.values[0], 0);

    let plan = FaultPlan::new().flip_at(0, FlipTarget::VertexValues, 0, 20);
    let cfg = base_cfg(Repr::GShards).with_fault_plan(plan);
    let hit = try_run(&prog, &g, &cfg).expect("silently corrupted run");

    assert_eq!(hit.stats.sdc.flips_injected, 1, "injector did not fire");
    assert!(hit.stats.sdc.is_clean(), "nothing should detect it");
    assert_ne!(hit.values[0], 0, "the source can never regain level 0");
    assert_ne!(hit.values, clean.values, "flip must alter the output");
}

/// The same provably-harmful flip under `--integrity full`: the scrubber
/// catches it before the kernel consumes the corrupted word, rolls back to
/// the initial checkpoint, and the re-executed run is bit-identical.
#[test]
fn full_integrity_masks_the_same_flip() {
    let g = small_graph(91);
    let prog = Bfs::new(0);
    let clean = try_run(&prog, &g, &base_cfg(Repr::GShards)).expect("clean run");

    let plan = FaultPlan::new().flip_at(0, FlipTarget::VertexValues, 0, 20);
    let cfg = base_cfg(Repr::GShards)
        .with_fault_plan(plan)
        .with_integrity(full_integrity());
    let out = try_run(&prog, &g, &cfg).expect("recovered run");

    assert_eq!(out.values, clean.values, "recovery must be bit-identical");
    assert_eq!(out.stats.sdc.flips_injected, 1);
    assert_eq!(out.stats.sdc.checksum_detections, 1);
    assert_eq!(out.stats.sdc.rollbacks, 1);
    assert_eq!(out.stats.sdc.full_restarts, 0);
    assert_eq!(out.stats.sdc.host_fallbacks, 0);
    assert!(out.stats.converged);
}

/// A caller-owned plan carries its injection log from run to run; each run
/// must report only the flips that fired during *it*. One scheduled flip,
/// three consecutive runs sharing the plan: streamed reports 1, then 0, and
/// a fleet handed the same (already-fired) plan reports 0 as well.
#[test]
fn flips_injected_counts_only_this_runs_flips_on_a_carried_plan() {
    let g = small_graph(91);
    let prog = Bfs::new(0);
    let mut plan = FaultPlan::new().flip_at(0, FlipTarget::VertexValues, 0, 20);
    let base = base_cfg(Repr::ConcatWindows).with_integrity(full_integrity());
    let streamed = Placement::streamed(1 << 14);
    let layout = PreparedLayout::for_program::<Bfs>(&g, &base, &streamed).expect("layout");

    let mut reported = Vec::new();
    for _ in 0..2 {
        let plan = Some(&mut plan);
        let out = try_run_placed(
            &prog,
            &g,
            &layout,
            &base,
            &streamed,
            plan,
            &mut NoopObserver,
        )
        .expect("recovered run");
        reported.push(out.stats.sdc.flips_injected);
    }
    assert_eq!(
        reported,
        [1, 0],
        "second run re-reported the first run's flip"
    );
    assert_eq!(
        plan.injected().bit_flips,
        1,
        "the plan's own log is cumulative"
    );

    let mcfg = MultiConfig::new(base, 2).with_device_fault_plan(0, plan);
    let fleet = try_run_multi(&prog, &g, &mcfg).expect("fleet run");
    assert_eq!(fleet.stats.sdc.flips_injected, 0);
}

/// Chaos sweep over the single-device engine: seeded random flip schedules
/// (different rates, targets drawn per boundary) × both representations ×
/// an integer and a float algorithm. Every combination must recover to the
/// fault-free output under full integrity.
#[test]
fn chaos_sweep_single_device_recovers_bit_identical() {
    let g = small_graph(92);
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let bfs = Bfs::new(0);
        let pr = PageRank::new();
        let clean_bfs = try_run(&bfs, &g, &base_cfg(repr)).expect("clean bfs");
        let clean_pr = try_run(&pr, &g, &base_cfg(repr)).expect("clean pr");
        for seed in [1u64, 7, 23] {
            let plan = FaultPlan::seeded(seed).with_bitflip_rate(0.6);
            let cfg = base_cfg(repr)
                .with_fault_plan(plan)
                .with_integrity(full_integrity());

            let out = try_run(&bfs, &g, &cfg).expect("recovered bfs");
            assert_eq!(out.values, clean_bfs.values, "bfs {repr:?} seed {seed}");
            if out.stats.sdc.flips_injected > 0 {
                assert!(out.stats.sdc.detections() >= 1, "bfs {repr:?} seed {seed}");
                assert!(out.stats.sdc.rollbacks >= 1, "bfs {repr:?} seed {seed}");
            }

            let out = try_run(&pr, &g, &cfg).expect("recovered pr");
            assert_eq!(out.values, clean_pr.values, "pr {repr:?} seed {seed}");
            if out.stats.sdc.flips_injected > 0 {
                assert!(out.stats.sdc.detections() >= 1, "pr {repr:?} seed {seed}");
            }
        }
    }
}

/// Every Table 3 algorithm (plus MS-BFS) recovers bit-identically from the
/// same seeded flip schedule under full integrity — the invariant hooks and
/// checksums cover all value types ((f32, f32) pairs, u64 bitsets, floats).
#[test]
fn all_algorithms_recover_bit_identical() {
    let g = small_graph(98);
    fn case<P: cusha::core::VertexProgram>(prog: &P, g: &Graph, label: &str) {
        let clean = try_run(prog, g, &base_cfg(Repr::GShards)).expect("clean run");
        let plan = FaultPlan::seeded(41).with_bitflip_rate(0.5);
        let cfg = base_cfg(Repr::GShards)
            .with_fault_plan(plan)
            .with_integrity(full_integrity());
        let out = try_run(prog, g, &cfg).expect("recovered run");
        assert!(out.values == clean.values, "{label}: output differs");
        if out.stats.sdc.flips_injected > 0 {
            assert!(out.stats.sdc.detections() >= 1, "{label}: flip undetected");
        }
    }
    case(&Bfs::new(0), &g, "bfs");
    case(&Sssp::new(0), &g, "sssp");
    case(&Sswp::new(0), &g, "sswp");
    case(&ConnectedComponents::new(), &g, "cc");
    case(&PageRank::new(), &g, "pr");
    case(&NeuralNetwork::new(), &g, "nn");
    case(&HeatSimulation::new(), &g, "hs");
    case(&CircuitSimulation::new(0, 1), &g, "cs");
    case(&MultiSourceBfs::new(vec![0, 5, 9]), &g, "msbfs");
}

/// Invariant-only mode (no checksums) still catches flips that break an
/// algorithm law — here a flip that knocks the BFS source off level 0 — at
/// the next checkpoint or, with checkpoints farther apart than the run is
/// long, at convergence: the in-core, streamed and fleet placements, the
/// frontier engine and VWC-CSR each answer the clean run's values.
#[test]
fn invariant_mode_catches_law_breaking_flips() {
    let g = small_graph(99);
    let prog = Bfs::new(0);
    let clean = try_run(&prog, &g, &base_cfg(Repr::GShards)).expect("clean run");

    let plan = || FaultPlan::new().flip_at(2, FlipTarget::VertexValues, 0, 20);
    for checkpoint_every in [1, 1000] {
        let integrity = IntegrityConfig {
            checkpoint_every,
            ..IntegrityConfig::with_mode(IntegrityMode::Invariant)
        };
        let cfg = base_cfg(Repr::GShards)
            .with_fault_plan(plan())
            .with_integrity(integrity);
        let placed = |placement: Placement| {
            let layout = PreparedLayout::for_program::<Bfs>(&g, &cfg, &placement).expect("layout");
            try_run_placed(
                &prog,
                &g,
                &layout,
                &cfg,
                &placement,
                None,
                &mut NoopObserver,
            )
        };
        let frontier = FrontierConfig {
            fault_plan: Some(plan()),
            integrity,
            ..FrontierConfig::new()
        };
        let vwc = VwcConfig {
            integrity,
            ..VwcConfig::new(8)
        };
        let runs = [
            ("in-core", try_run(&prog, &g, &cfg)),
            ("streamed", placed(Placement::streamed(1 << 14))),
            ("fleet", placed(Placement::fleet(2))),
            ("frontier", try_run_frontier(&prog, &g, &frontier)),
            (
                "vwc",
                try_run_vwc(&prog, &g, &vwc, Some(&mut plan()), &mut NoopObserver),
            ),
        ];
        for (engine, out) in runs {
            let at = format!("{engine}, checkpoint every {checkpoint_every}");
            let out = out.unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(out.values, clean.values, "{at}");
            assert!(out.stats.sdc.invariant_detections >= 1, "{at}");
            assert_eq!(out.stats.sdc.checksum_detections, 0, "{at}");
        }
    }
}

/// Mixed chaos: bit flips layered on top of the existing transient-fault
/// machinery (copy retries) must still recover bit-identically — the two
/// recovery ladders compose.
#[test]
fn chaos_flips_compose_with_transient_copy_faults() {
    let g = small_graph(93);
    let prog = Bfs::new(0);
    let clean = try_run(&prog, &g, &base_cfg(Repr::ConcatWindows)).expect("clean run");

    let plan = FaultPlan::seeded(5)
        .with_bitflip_rate(0.4)
        .flip_at(1, FlipTarget::Window, 17, 3);
    let cfg = base_cfg(Repr::ConcatWindows)
        .with_fault_plan(plan)
        .with_integrity(full_integrity());
    let out = try_run(&prog, &g, &cfg).expect("recovered run");
    assert_eq!(out.values, clean.values);
    assert!(out.stats.sdc.flips_injected >= 1);
    assert!(out.stats.sdc.detections() >= 1);
}

/// Fault-free runs under `--integrity full` produce the same outputs as
/// runs with integrity off: the defense is observation-only until a
/// corruption is detected (checkpoint D2H time is charged, values are not
/// altered).
#[test]
fn fault_free_full_integrity_changes_nothing() {
    let g = small_graph(94);
    let prog = PageRank::new();
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let off = try_run(&prog, &g, &base_cfg(repr)).expect("off");
        let full =
            try_run(&prog, &g, &base_cfg(repr).with_integrity(full_integrity())).expect("full");
        assert_eq!(off.values, full.values, "{repr:?}");
        assert_eq!(off.stats.iterations, full.stats.iterations, "{repr:?}");
        assert!(full.stats.sdc.is_clean(), "{repr:?}");
        assert!(full.stats.sdc.checkpoints >= 1, "{repr:?}");
        assert_eq!(full.stats.sdc.flips_injected, 0, "{repr:?}");
    }
}

/// The recovery ladder escalates: with a zero rollback and restart budget,
/// a detected corruption goes straight to the host fallback, whose result
/// is still bit-identical (host memory is immune to device flips).
#[test]
fn exhausted_budgets_escalate_to_host_fallback() {
    let g = small_graph(95);
    let prog = Bfs::new(0);
    let clean = try_run(&prog, &g, &base_cfg(Repr::GShards)).expect("clean run");

    let plan = FaultPlan::new().flip_at(0, FlipTarget::VertexValues, 0, 20);
    let mut integ = full_integrity();
    integ.max_rollbacks = 0;
    integ.max_full_restarts = 0;
    let cfg = base_cfg(Repr::GShards)
        .with_fault_plan(plan)
        .with_integrity(integ);
    let out = try_run(&prog, &g, &cfg).expect("fallback run");
    assert_eq!(out.values, clean.values);
    assert_eq!(out.stats.sdc.host_fallbacks, 1);
    assert_eq!(out.stats.sdc.rollbacks, 0);
    assert_eq!(out.stats.engine, "host-fallback");
}

/// Integrity that detects any at-rest flip but may neither roll back nor
/// restart: the first detection ends the run on its ladder's last rung.
fn no_budgets() -> IntegrityConfig {
    IntegrityConfig {
        max_rollbacks: 0,
        max_full_restarts: 0,
        ..IntegrityConfig::with_mode(IntegrityMode::Checksum)
    }
}

/// A flip into the vertex values at the first kernel boundary.
fn first_boundary_flip() -> FaultPlan {
    FaultPlan::new().flip_at(0, FlipTarget::VertexValues, 0, 20)
}

fn bits<V: Value>(values: &[V]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The host rung re-enacts the run's own layout: a warm layout built at
/// `|N|` = 16 under a config that names no shard size finishes, forced onto
/// the rung, on the schedule its device run had — bit for bit the fault-free
/// warm run's PageRank, not the autotuned `|N|`'s.
#[test]
fn the_host_rung_runs_on_the_runs_own_layout() {
    let g = small_graph(98);
    let prog = PageRank::new();
    let layout = PreparedLayout::build(&g, Repr::GShards, 16);
    let cfg = CuShaConfig::new(Repr::GShards);
    assert_eq!(cfg.vertices_per_shard, None);
    let warm = |cfg: &CuShaConfig| {
        try_run_warm(&prog, &g, &layout, cfg, None, &mut NoopObserver).expect("warm run")
    };
    let clean = warm(&cfg);
    let forced = warm(
        &cfg.clone()
            .with_fault_plan(first_boundary_flip())
            .with_integrity(no_budgets()),
    );
    assert_eq!(forced.stats.sdc.host_fallbacks, 1);
    assert_eq!(bits(&forced.values), bits(&clean.values));
}

/// A frontier run whose first boundary sees a flip it may not recover from
/// on the device, capped at `max_iterations`.
fn forced_frontier(max_iterations: u32) -> FrontierConfig {
    FrontierConfig {
        max_iterations,
        fault_plan: Some(first_boundary_flip()),
        integrity: no_budgets(),
        ..FrontierConfig::new()
    }
}

/// The frontier ladder's last rung is the host oracle, as k-core's is
/// `host_kcore`: forced onto it, pull-only and push-capable programs alike
/// answer `run_sequential`'s values bit for bit.
#[test]
fn the_frontier_ladder_ends_on_the_sequential_oracle() {
    let g = small_graph(99);
    fn case<P: VertexProgram>(prog: &P, g: &Graph) {
        let out = try_run_frontier(prog, g, &forced_frontier(10_000)).expect("host rung");
        let oracle = run_sequential(prog, g, 10_000);
        let name = prog.name();
        assert_eq!(out.stats.sdc.host_fallbacks, 1, "{name}");
        assert!(out.stats.converged && oracle.converged, "{name}");
        assert_eq!(bits(&out.values), bits(&oracle.values), "{name}");
    }
    case(&PageRank::new(), &g);
    case(&NeuralNetwork::new(), &g);
    case(&HeatSimulation::new(), &g);
    case(&CircuitSimulation::new(0, 1), &g);
    case(&Bfs::new(0), &g);
    case(&Sssp::new(0), &g);
}

/// A host rung that hits the iteration cap is a capped run like any other:
/// BFS across a lattice allowed one iteration is `NonConverged`.
#[test]
fn a_capped_frontier_host_rung_is_non_converged() {
    let g = lattice2d(8, 8, 1.0, 4, 11);
    match try_run_frontier(&Bfs::new(0), &g, &forced_frontier(1)) {
        Err(EngineError::NonConverged { partial }) => {
            assert_eq!(partial.stats.sdc.host_fallbacks, 1);
            assert!(!partial.stats.converged);
        }
        Ok(out) => panic!("a one-iteration host rung converged: {:?}", out.stats),
        Err(e) => panic!("{e}"),
    }
}

/// A frontier-family run under `mode`, checkpointing every other iteration,
/// with `plan`'s flips.
fn frontier_defended(mode: IntegrityMode, plan: FaultPlan) -> FrontierConfig {
    FrontierConfig {
        fault_plan: Some(plan),
        integrity: IntegrityConfig {
            checkpoint_every: 2,
            ..IntegrityConfig::with_mode(mode)
        },
        ..FrontierConfig::new()
    }
}

/// Flips into the frontier family's protected buffers — vertex values (core
/// numbers), then the second buffer (activation tags, degrees), then the
/// third (k-core's alive flags) — landing once checkpoints exist.
fn family_flips() -> FaultPlan {
    let targets = [
        (5, FlipTarget::VertexValues),
        (9, FlipTarget::SrcValue),
        (14, FlipTarget::Window),
    ];
    let plan = FaultPlan::new();
    targets
        .into_iter()
        .fold(plan, |p, (op, t)| p.flip_at(op, t, 3 + op, 7))
}

/// What a run reports iteration by iteration: its updated vertices.
fn detail(stats: &RunStats) -> (u32, Vec<u64>) {
    let updated = stats.per_iteration.iter().map(|it| it.updated_vertices);
    (stats.iterations, updated.collect())
}

/// What a frontier-family run reports iteration by iteration: updated
/// vertices, frontier sizes, directions and switches.
fn trajectory(stats: &RunStats) -> ((u32, Vec<u64>), FrontierStats) {
    let frontier = stats.frontier.clone().expect("frontier record");
    (detail(stats), frontier)
}

/// VWC-CSR/8 under `integrity`, with `plan`'s faults.
fn vwc_defended<P: VertexProgram>(
    prog: &P,
    g: &Graph,
    integrity: IntegrityConfig,
    mut plan: FaultPlan,
) -> cusha::core::CuShaOutput<P::V> {
    let cfg = VwcConfig {
        integrity,
        ..VwcConfig::new(8)
    };
    try_run_vwc(prog, g, &cfg, Some(&mut plan), &mut NoopObserver).expect("VWC run")
}

/// The frontier engine, k-core and VWC-CSR climb the shard family's ladder:
/// a detection rolls back to a checkpoint, k-core's included, and the
/// rollback rewinds everything the run reports — the recovered run's
/// iteration record is the fault-free run's, with no re-executed iteration
/// in it.
#[test]
fn a_frontier_family_rollback_rewinds_what_the_run_reports() {
    let (road, g) = (lattice2d(24, 24, 0.9, 40, 5), small_graph(41));
    let clean = try_run_frontier(&Sssp::new(0), &road, &FrontierConfig::new()).expect("clean");
    let cfg = frontier_defended(IntegrityMode::Checksum, family_flips());
    let out = try_run_frontier(&Sssp::new(0), &road, &cfg).expect("recovered");
    assert_eq!(out.values, clean.values);
    assert!(out.stats.sdc.rollbacks >= 2, "{:?}", out.stats.sdc);
    assert_eq!(trajectory(&out.stats), trajectory(&clean.stats));

    let clean = try_run_kcore(&g, &FrontierConfig::new(), None, &mut NoopObserver).expect("clean");
    let out = try_run_kcore(&g, &cfg, None, &mut NoopObserver).expect("recovered");
    assert_eq!(out.core, clean.core);
    let sdc = out.stats.sdc;
    assert!(sdc.rollbacks >= 1 && sdc.full_restarts == 0, "{sdc:?}");
    assert!(sdc.checkpoints >= 2, "{sdc:?}");
    assert_eq!(trajectory(&out.stats), trajectory(&clean.stats));

    let clean = vwc_defended(
        &Sssp::new(0),
        &road,
        IntegrityConfig::default(),
        FaultPlan::new(),
    );
    let out = vwc_defended(&Sssp::new(0), &road, cfg.integrity, family_flips());
    assert_eq!(out.values, clean.values);
    assert!(out.stats.sdc.rollbacks >= 2, "{:?}", out.stats.sdc);
    assert_eq!(detail(&out.stats), detail(&clean.stats));
}

/// k-core's invariant: a core number, once assigned, never changes. A flip
/// into a peeled vertex's core number reaches the output with integrity off;
/// `Invariant` mode catches it at the next checkpoint and rolls back.
#[test]
fn k_core_invariant_catches_a_changed_core_number() {
    let g = lattice2d(16, 16, 0.9, 40, 5);
    let run = |mode| {
        let mut cfg = frontier_defended(
            mode,
            FaultPlan::new().flip_at(6, FlipTarget::VertexValues, 0, 3),
        );
        cfg.integrity.checkpoint_every = 1;
        try_run_kcore(&g, &cfg, None, &mut NoopObserver).expect("k-core run")
    };
    assert_ne!(
        run(IntegrityMode::Off).core,
        host_kcore(&g),
        "the flip is harmful"
    );
    let out = run(IntegrityMode::Invariant);
    assert_eq!(out.core, host_kcore(&g));
    assert_eq!(out.stats.sdc.invariant_detections, 1);
    assert_eq!(out.stats.sdc.rollbacks, 1);
}

/// The fault lane says what the ladder did in the shard family's words: one
/// flip is `corruption-detected`, `rollback`, then `reverify` at the next
/// checkpoint, on the frontier engine and k-core alike.
#[test]
fn frontier_family_sdc_marks_are_the_ladders() {
    let marks = |run: &dyn Fn(FrontierConfig)| {
        let tracer = Tracer::enabled();
        let plan = FaultPlan::new().flip_at(5, FlipTarget::VertexValues, 8, 7);
        run(frontier_defended(IntegrityMode::Checksum, plan).with_tracer(tracer.clone()));
        let sdc = |events: &[cusha::obs::trace::Event]| {
            let marks = events
                .iter()
                .filter(|e| e.ph == Ph::Instant && e.cat == "sdc");
            marks.map(|e| e.name.to_string()).collect::<Vec<_>>()
        };
        tracer.with_events(sdc).expect("tracer is enabled")
    };
    let want = ["corruption-detected", "rollback", "reverify"];
    let road = lattice2d(24, 24, 0.9, 40, 5);
    let frontier = marks(&|cfg| {
        try_run_frontier(&Bfs::new(0), &road, &cfg).expect("frontier run");
    });
    assert_eq!(frontier, want, "frontier");
    let kcore = marks(&|cfg| {
        try_run_kcore(&road, &cfg, None, &mut NoopObserver).expect("k-core run");
    });
    assert_eq!(kcore, want, "k-core");
}

/// A checkpoint is a real download on every engine: with integrity on and no
/// fault, the frontier engine, k-core and VWC-CSR answer what they answer
/// with it off, and pay for their snapshots on the modeled clock (setup
/// unchanged).
#[test]
fn frontier_family_checkpoints_are_charged_transfers() {
    let g = small_graph(42);
    let full = frontier_defended(IntegrityMode::Full, FaultPlan::new());
    let off = FrontierConfig::new();
    let (a, b) = (
        try_run_frontier(&PageRank::new(), &g, &off).expect("off"),
        try_run_frontier(&PageRank::new(), &g, &full).expect("full"),
    );
    assert_eq!(
        (a.values, a.stats.iterations),
        (b.values, b.stats.iterations)
    );
    assert!(b.stats.sdc.checkpoints >= 2, "{:?}", b.stats.sdc);
    assert_eq!(a.stats.h2d_seconds, b.stats.h2d_seconds);
    assert!(
        b.stats.compute_seconds > a.stats.compute_seconds,
        "frontier"
    );

    let kcore =
        |cfg: &FrontierConfig| try_run_kcore(&g, cfg, None, &mut NoopObserver).expect("k-core");
    let (a, b) = (kcore(&off), kcore(&full));
    assert_eq!((a.core, a.stats.iterations), (b.core, b.stats.iterations));
    assert!(b.stats.sdc.checkpoints >= 2, "{:?}", b.stats.sdc);
    assert!(b.stats.compute_seconds > a.stats.compute_seconds, "k-core");

    let vwc =
        |cfg: &FrontierConfig| vwc_defended(&PageRank::new(), &g, cfg.integrity, FaultPlan::new());
    let (a, b) = (vwc(&off), vwc(&full));
    assert_eq!(
        (a.values, a.stats.iterations),
        (b.values, b.stats.iterations)
    );
    assert!(b.stats.sdc.checkpoints >= 2, "{:?}", b.stats.sdc);
    assert_eq!(a.stats.h2d_seconds, b.stats.h2d_seconds);
    assert!(b.stats.compute_seconds > a.stats.compute_seconds, "VWC");
}

/// VWC-CSR's last rung is the shard family's host fallback: forced onto it,
/// the run counts one host fallback and answers `run_fallback`'s values.
#[test]
fn the_vwc_ladder_ends_on_the_host_fallback() {
    let g = small_graph(99);
    let prog = PageRank::new();
    let out = vwc_defended(&prog, &g, no_budgets(), first_boundary_flip());
    let host = run_fallback(&prog, &g, &CuShaConfig::gs()).expect("host fallback");
    assert_eq!(out.stats.sdc.host_fallbacks, 1);
    assert!(out.stats.converged);
    assert_eq!(bits(&out.values), bits(&host.values));
}

/// A frontier-family or VWC config is refused for what
/// `IntegrityConfig::validate` refuses, as a shard-family config is.
#[test]
fn frontier_family_configs_validate_their_integrity() {
    let g = small_graph(43);
    let mut cfg = FrontierConfig::new();
    cfg.integrity.checkpoint_every = 0;
    let refused = try_run_frontier(&Bfs::new(0), &g, &cfg);
    assert!(
        matches!(refused, Err(EngineError::InvalidConfig(_))),
        "frontier"
    );
    let refused = try_run_kcore(&g, &cfg, None, &mut NoopObserver);
    assert!(
        matches!(refused, Err(EngineError::InvalidConfig(_))),
        "k-core"
    );
    let vwc = VwcConfig {
        integrity: cfg.integrity,
        ..VwcConfig::new(8)
    };
    let refused = try_run_vwc(&Bfs::new(0), &g, &vwc, None, &mut NoopObserver);
    assert!(matches!(refused, Err(EngineError::InvalidConfig(_))), "VWC");
}

/// Streamed engine: same chaos discipline, batched residency.
#[test]
fn chaos_sweep_streamed_recovers_bit_identical() {
    let g = small_graph(96);
    let prog = PageRank::new();
    let mk = || StreamingConfig::new(base_cfg(Repr::ConcatWindows), 1 << 16);
    let clean = try_run_streamed(&prog, &g, &mk()).expect("clean run");
    let mut total_flips = 0;
    for seed in [3u64, 11] {
        let mut cfg = mk();
        cfg.base.fault_plan = Some(FaultPlan::seeded(seed).with_bitflip_rate(0.3));
        cfg.base.integrity = full_integrity();
        let out = try_run_streamed(&prog, &g, &cfg).expect("recovered run");
        assert_eq!(out.values, clean.values, "seed {seed}");
        if out.stats.sdc.flips_injected > 0 {
            assert!(out.stats.sdc.detections() >= 1, "seed {seed}");
        }
        total_flips += out.stats.sdc.flips_injected;
    }
    assert!(total_flips >= 1, "no flip fired across the streamed sweep");
}

/// Multi-GPU fleet: per-device flip plans, global rollback. Outputs must
/// stay bit-identical to the fault-free fleet run (which itself matches the
/// single-device engine), and the aggregate SDC record must equal the sum
/// of the per-device records.
#[test]
fn chaos_sweep_fleet_recovers_bit_identical() {
    let g = small_graph(97);
    let prog = Bfs::new(0);
    let mk = |devices| MultiConfig::new(base_cfg(Repr::GShards), devices);
    let clean = try_run_multi(&prog, &g, &mk(3)).expect("clean fleet run");

    let mut cfg = mk(3);
    cfg.base.integrity = full_integrity();
    cfg = cfg.with_device_fault_plan(1, FaultPlan::seeded(13).with_bitflip_rate(0.5));
    cfg = cfg.with_device_fault_plan(2, FaultPlan::new().flip_at(0, FlipTarget::SrcValue, 9, 12));
    let out = try_run_multi(&prog, &g, &cfg).expect("recovered fleet run");
    assert_eq!(out.values, clean.values);
    assert!(out.stats.sdc.flips_injected >= 1);
    assert!(out.stats.sdc.detections() >= 1);
    assert!(out.stats.sdc.rollbacks >= 1);

    let mut summed = cusha::core::SdcStats::default();
    for dev in &out.stats.per_device {
        summed.absorb(&dev.sdc);
    }
    assert_eq!(summed, out.stats.sdc, "aggregate must equal per-device sum");
}
