//! Replay chaos: launch records are an accounting accelerator, never an
//! observable feature. Toggling `DeviceConfig::replay_memo` must
//! change *nothing* about a run — values, iteration counts, kernel
//! counters, modeled timings — across every engine family and algorithm,
//! and an injected fault plan (including silent bit flips) must land with
//! identical effect whether replay is on or off, because replay is gated
//! off for any launch a due fault could still disrupt.

use cusha::algos::{Bfs, PageRank, Sssp, Sswp};
use cusha::baselines::{run_vwc, MtcpuEngine, VwcConfig, VwcEngine, VIRTUAL_WARP_SIZES};
use cusha::core::{
    run_engine, try_run_warm, CuShaConfig, CuShaOutput, Engine, EngineError, IntegrityConfig,
    IntegrityMode, MemoStats, MultiRunStats, NoopObserver, Placement, PreparedLayout, Repr,
    RunObserver, RunStats, ShardEngine, VertexProgram,
};
use cusha::frontier::{host_kcore, try_run_kcore, FrontierConfig, FrontierEngine};
use cusha::graph::generators::lattice::lattice2d;
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{Edge, Graph};
use cusha::obs::Tracer;
use cusha::simt::{DeviceConfig, FaultPlan, FlipTarget};

const MAX_ITERS: u32 = 5_000;

fn chaos_graph(seed: u64) -> Graph {
    rmat(&RmatConfig::graph500(8, 3500, seed))
}

/// The six engine families, fresh boxes each call (engines are stateful).
/// The shard family runs under every placement, so a replayed stage 4 meets
/// each of its sinks: none (resident), the host master (streamed) and the
/// outbox (a fleet device).
fn all_engines<P: VertexProgram>() -> Vec<Box<dyn Engine<P>>> {
    let shard = |repr, placement| Box::new(ShardEngine { repr, placement });
    vec![
        Box::new(ShardEngine::new(Repr::GShards)),
        Box::new(ShardEngine::new(Repr::ConcatWindows)),
        shard(Repr::GShards, Placement::streamed(64 << 20)),
        shard(Repr::ConcatWindows, Placement::streamed(64 << 20)),
        shard(Repr::GShards, Placement::fleet(3)),
        shard(Repr::ConcatWindows, Placement::fleet(3)),
        Box::new(VwcEngine::new(8)),
        // One CPU thread: the multithreaded schedule is honest-to-goodness
        // nondeterministic (iteration counts vary run to run), which would
        // confound a bit-identity harness for a knob that doesn't even
        // touch the CPU engine.
        Box::new(MtcpuEngine::new(1)),
        Box::new(FrontierEngine::new()),
    ]
}

fn run_with_replay<P: VertexProgram>(
    engine: &mut dyn Engine<P>,
    prog: &P,
    g: &Graph,
    replay: bool,
    plan: Option<FaultPlan>,
    integrity: IntegrityConfig,
) -> CuShaOutput<P::V> {
    let mut cfg = CuShaConfig::gs();
    cfg.max_iterations = MAX_ITERS;
    cfg.device.replay_memo = replay;
    cfg.integrity = integrity;
    run_engine(engine, prog, g, &cfg, plan, &mut NoopObserver)
        .unwrap_or_else(|e| panic!("replay={replay}: {e}"))
}

/// Everything in [`RunStats`] except the memo hit/miss telemetry (which is
/// *supposed* to differ between the two modes) and the engine label.
fn assert_stats_identical(tag: &str, on: &RunStats, off: &RunStats) {
    assert_eq!(on.iterations, off.iterations, "{tag}: iterations");
    assert_eq!(on.converged, off.converged, "{tag}: converged");
    // MTCPU times are *measured* wall clock, which legitimately varies
    // between runs; every device engine reports modeled times — exact f64s
    // derived from cycle counters — and replay applies recorded deltas, so
    // those must match to the last bit.
    if !tag.starts_with("MTCPU") {
        assert_eq!(
            on.h2d_seconds.to_bits(),
            off.h2d_seconds.to_bits(),
            "{tag}: h2d"
        );
        assert_eq!(
            on.compute_seconds.to_bits(),
            off.compute_seconds.to_bits(),
            "{tag}: compute"
        );
        assert_eq!(
            on.d2h_seconds.to_bits(),
            off.d2h_seconds.to_bits(),
            "{tag}: d2h"
        );
        assert_eq!(
            on.per_iteration, off.per_iteration,
            "{tag}: per-iteration detail"
        );
    } else {
        let updated = |s: &RunStats| {
            s.per_iteration
                .iter()
                .map(|i| i.updated_vertices)
                .collect::<Vec<_>>()
        };
        assert_eq!(updated(on), updated(off), "{tag}: per-iteration updates");
    }
    assert_eq!(on.kernel, off.kernel, "{tag}: kernel counters");
    assert_eq!(on.fault, off.fault, "{tag}: fault stats");
    assert_eq!(on.sdc, off.sdc, "{tag}: sdc stats");
    assert_eq!(on.frontier, off.frontier, "{tag}: frontier stats");
    assert_eq!(fleet_record(on), fleet_record(off), "{tag}: fleet record");
}

/// A fleet's record without its memo telemetry. Its `Debug` prints every
/// `f64` in round-trip form, so equal strings are equal bits.
fn fleet_record(stats: &RunStats) -> Option<String> {
    let fleet = stats.fleet.as_deref().cloned();
    fleet.map(|f| {
        format!(
            "{:?}",
            MultiRunStats {
                memo: MemoStats::default(),
                ..f
            }
        )
    })
}

/// Engines whose kernels replay accounting — the CuSha kernel's and VWC's
/// launch records; the CPU baseline and the generic frontier engine account
/// per-op only (of the frontier family only k-core's two dense filter
/// kernels keep records — see `kcore_block_scopes_are_invisible_and_bounded`).
fn keeps_launch_records(label: &str) -> bool {
    label.starts_with("CuSha-") || label.starts_with("VWC-") || label.starts_with("Streamed")
}

#[test]
fn replay_toggle_is_invisible_across_engines_and_algorithms() {
    let g = chaos_graph(123);
    for algo in ["bfs", "sssp", "pr"] {
        // Monomorphic helper per algorithm: run every engine both ways and
        // compare the full observable surface.
        fn check<P: VertexProgram>(g: &Graph, prog: &P, algo: &str) {
            for (mut on_engine, mut off_engine) in
                all_engines::<P>().into_iter().zip(all_engines::<P>())
            {
                let on = run_with_replay(
                    on_engine.as_mut(),
                    prog,
                    g,
                    true,
                    None,
                    IntegrityConfig::default(),
                );
                let label = on.stats.engine.clone();
                let tag = format!("{label}/{algo}");
                let off = run_with_replay(
                    off_engine.as_mut(),
                    prog,
                    g,
                    false,
                    None,
                    IntegrityConfig::default(),
                );
                assert_eq!(on.values, off.values, "{tag}: values diverged");
                assert_stats_identical(&tag, &on.stats, &off.stats);
                let fleet = on.stats.fleet.is_some();
                assert_eq!(fleet, label.contains(" x"), "{tag}: fleet record");
                if keeps_launch_records(&label) {
                    assert!(
                        on.stats.memo.replay_hits > 0,
                        "{tag}: replay-on run never charged a record ({:?})",
                        on.stats.memo
                    );
                    assert_eq!(
                        off.stats.memo.replay_hits, 0,
                        "{tag}: replay-off run served hits"
                    );
                    assert!(
                        off.stats.memo.replay_fallbacks > 0,
                        "{tag}: replay-off launches not counted as fallbacks ({:?})",
                        off.stats.memo
                    );
                }
            }
        }
        match algo {
            "bfs" => check(&g, &Bfs::new(0), algo),
            "sssp" => check(&g, &Sssp::new(0), algo),
            "pr" => check(&g, &PageRank::new(), algo),
            _ => unreachable!(),
        }
    }
}

#[test]
fn replay_never_swallows_faults() {
    // A transient copy fault plus two silent bit flips, with full
    // integrity defense. The flips change *values*, never access patterns,
    // so a wrongly-charged record would be the exact failure mode this
    // guards: the flip would land in real data while stale recorded
    // accounting hid the disruption. Correctness bar: the fault plan's
    // observable effect — recovery counters, SDC detections, final values —
    // is bit-identical with replay on and off, and the replay-on run shows
    // the fault-window gate actually fired (fallbacks recorded).
    let g = chaos_graph(321);
    let plan = || {
        FaultPlan::new()
            .fail_h2d_at(&[1])
            .flip_at(2, FlipTarget::VertexValues, 3, 7)
            .flip_at(4, FlipTarget::SrcValue, 1, 11)
    };
    let integrity = IntegrityConfig {
        mode: IntegrityMode::Full,
        ..IntegrityConfig::default()
    };
    for (mut on_engine, mut off_engine) in
        all_engines::<Bfs>().into_iter().zip(all_engines::<Bfs>())
    {
        let on = run_with_replay(
            on_engine.as_mut(),
            &Bfs::new(0),
            &g,
            true,
            Some(plan()),
            integrity,
        );
        let label = on.stats.engine.clone();
        let off = run_with_replay(
            off_engine.as_mut(),
            &Bfs::new(0),
            &g,
            false,
            Some(plan()),
            integrity,
        );
        assert_eq!(on.values, off.values, "{label}: values under chaos");
        assert_stats_identical(&label, &on.stats, &off.stats);
        // MTCPU runs on host memory, outside the device fault domain.
        if !label.starts_with("MTCPU") {
            assert!(
                on.stats.fault.copy_retries >= 1,
                "{label}: copy fault never fired ({:?})",
                on.stats.fault
            );
        }
        if keeps_launch_records(&label) {
            assert!(
                on.stats.memo.replay_fallbacks > 0,
                "{label}: no launch fell back while the plan could disrupt ({:?})",
                on.stats.memo
            );
        }
        // The VWC baseline has no `SrcValue` buffer, so that flip can never
        // fire there and the plan (correctly) gates its replay for the whole
        // run. On the shard engines every fault lands, the plan drains, and
        // replay must resume for the remaining iterations.
        if label.starts_with("CuSha-") {
            assert!(
                on.stats.memo.replay_hits > 0,
                "{label}: replay never resumed after the plan drained ({:?})",
                on.stats.memo
            );
        }
    }
}

#[test]
fn vwc_records_once_at_any_size_traced_or_not() {
    // What VWC's blocks cost besides their value-dependent stores is fixed
    // by the CSR and the geometry: one launch record holds it, taken by the
    // first launch and charged whole by every later one. So a run misses
    // once and hits once a later iteration, traced or not, and with replay
    // off it interprets every launch and counts each a fallback. Nothing
    // observable may depend on the tracer or the replay switch.
    fn check<P: VertexProgram>(prog: &P, g: &Graph, tag: &str) {
        for vw in VIRTUAL_WARP_SIZES {
            let run = |traced: bool, replay: bool| {
                let mut cfg = VwcConfig::new(vw);
                cfg.device.replay_memo = replay;
                cfg.max_iterations = MAX_ITERS;
                if traced {
                    cfg.trace = Tracer::enabled();
                }
                run_vwc(prog, g, &cfg)
            };
            let base = run(false, true);
            assert!(base.stats.converged, "{tag}/{vw}");
            let iterations = base.stats.iterations as u64;
            assert!(iterations >= 2, "{tag}/{vw}: nothing to replay");
            let memo = base.stats.memo;
            assert_eq!(
                (memo.replay_hits, memo.replay_misses, memo.replay_fallbacks),
                (iterations - 1, 1, 0),
                "{tag}/{vw}: {memo:?} over {iterations} launches"
            );
            assert_eq!(memo.replay_verify_failures, 0, "{tag}/{vw}");
            for (traced, replay) in [(true, true), (false, false), (true, false)] {
                let other = run(traced, replay);
                let tag = format!("{tag}/{vw} traced={traced} replay={replay}");
                assert_eq!(base.values, other.values, "{tag}: values");
                assert_stats_identical(&tag, &base.stats, &other.stats);
                let m = other.stats.memo;
                if replay {
                    assert_eq!(m, memo, "{tag}: same record, same uses");
                } else {
                    assert_eq!(
                        (m.replay_hits, m.replay_misses, m.replay_fallbacks),
                        (0, 0, iterations),
                        "{tag}: one fallback a launch"
                    );
                }
            }
        }
    }
    for (scale, edges) in [(8, 3_500), (11, 24_000)] {
        let g = rmat(&RmatConfig::graph500(scale, edges, 77));
        check(&Bfs::new(0), &g, &format!("bfs@{scale}"));
        check(&Sssp::new(0), &g, &format!("sssp@{scale}"));
    }
}

#[test]
fn vwc_grid_of_70000_blocks_replays() {
    // One block per vertex: 70,000 blocks. A launch record holds the whole
    // launch whatever the grid, so the run replays every launch after its
    // first — and is, as ever, the run `replay_memo = false` gives.
    const N: u32 = 70_000;
    let dense = rmat(&RmatConfig::graph500(17, 300_000, 78));
    let edges = dense.edges().iter().filter(|e| e.src < N && e.dst < N);
    let g = Graph::new(N, edges.copied().collect());
    let run = |replay: bool| {
        let mut cfg = VwcConfig::new(32);
        cfg.threads_per_block = 32;
        cfg.device.replay_memo = replay;
        run_vwc(&Bfs::new(0), &g, &cfg)
    };
    let (on, off) = (run(true), run(false));
    assert!(on.stats.converged && on.stats.iterations >= 2);
    assert_eq!(on.stats.kernel.blocks, N, "one block per vertex");
    assert_eq!(on.values, off.values);
    assert_stats_identical("vwc32 on a 70,000-block grid", &on.stats, &off.stats);
    let memo = on.stats.memo;
    let launches = on.stats.iterations as u64;
    assert_eq!(memo.replay_verify_failures, 0);
    assert_eq!(
        (memo.replay_hits, memo.replay_misses),
        (launches - 1, 1),
        "{memo:?}"
    );
    assert_eq!(off.stats.memo.replay_fallbacks, launches);
}

#[test]
fn kcore_block_scopes_are_invisible_and_bounded() {
    // k-core's filter is two dense kernels a round — the degree scan and the
    // flag compaction — whose blocks' stride-1 loads cost what the shape
    // says: one launch record per kernel, taken in the first round and
    // charged whole by every dense launch after it. Nothing observable may
    // depend on the replay switch, the tracer, or a fault plan that gates
    // the records off.
    let run = |g: &Graph, tpb: u32, replay: bool, traced: bool, plan: Option<&mut FaultPlan>| {
        let mut cfg = FrontierConfig::new();
        cfg.threads_per_block = tpb;
        cfg.device.replay_memo = replay;
        if traced {
            cfg.trace = Tracer::enabled();
        }
        let out = try_run_kcore(g, &cfg, plan, &mut NoopObserver);
        (out, cfg.trace)
    };
    for (tag, g, tpb) in [
        ("rmat", chaos_graph(123), 64),
        ("lattice", lattice2d(40, 40, 0.9, 60, 3), 128),
    ] {
        let (base, _) = run(&g, tpb, true, false, None);
        let base = base.unwrap();
        assert_eq!(base.core, host_kcore(&g), "{tag}");
        // Dense launch pairs of the run: one scan kernel each, by name.
        let (traced, trace) = run(&g, tpb, true, true, None);
        let pairs = trace
            .with_events(|events| {
                let scans = events.iter().filter(|e| e.cat == "kernel");
                scans.filter(|e| e.name.starts_with("kcore-scan")).count() as u64
            })
            .unwrap();
        assert!(
            pairs > u64::from(base.stats.iterations),
            "{tag}: k never advanced"
        );
        let memo = base.stats.memo;
        assert_eq!(memo.replay_misses, 2, "{tag}: {memo:?}");
        assert_eq!(memo.replay_hits, 2 * (pairs - 1), "{tag}: {memo:?}");
        assert_eq!(memo.replay_verify_failures, 0, "{tag}");
        assert_eq!(traced.unwrap().stats.memo, memo, "{tag}: same keys traced");
        let mut capped = FrontierConfig::new();
        capped.threads_per_block = tpb;
        capped.max_iterations = 1;
        let first = match try_run_kcore(&g, &capped, None, &mut NoopObserver) {
            Err(EngineError::NonConverged { partial }) => partial.stats.memo,
            other => panic!(
                "{tag}: one round peeled the graph? {:?}",
                other.map(|o| o.core)
            ),
        };
        assert_eq!(
            first.replay_misses, memo.replay_misses,
            "{tag}: a record missed after the first round"
        );

        // A plan that could still fire gates the whole run to fallbacks.
        let mut pending = FaultPlan::new().fail_kernel_at(&[u64::MAX]);
        // One that does fire costs its attempt a retry and leaves the next
        // run clean.
        let mut firing = FaultPlan::new().fail_kernel_at(&[4]);
        let retried = run(&g, tpb, true, false, Some(&mut firing)).0.unwrap();
        assert_eq!(retried.core, base.core, "{tag}: retried core numbers");
        assert_eq!(retried.stats.fault.kernel_retries, 1, "{tag}");
        for (variant, replay, traced, plan) in [
            ("replay off", false, false, None),
            ("replay off, traced", false, true, None),
            ("traced", true, true, None),
            ("pending plan", true, false, Some(&mut pending)),
            ("drained plan", true, false, Some(&mut firing)),
        ] {
            let tag = format!("{tag}/{variant}");
            let other = run(&g, tpb, replay, traced, plan).0.unwrap();
            assert_eq!(other.core, base.core, "{tag}: core numbers");
            assert_stats_identical(&tag, &other.stats, &base.stats);
            let m = other.stats.memo;
            match variant {
                "traced" | "drained plan" => assert_eq!(m, memo, "{tag}"),
                _ => {
                    assert_eq!((m.replay_hits, m.replay_misses), (0, 0), "{tag}: {m:?}");
                    assert_eq!(m.replay_fallbacks, 2 * pairs, "{tag}: {m:?}");
                }
            }
        }
    }

    // One warp per block over 16,385 x 32 vertices: a record holds each
    // launch whatever its grid — and is the run
    // `replay_memo = false` gives. Paired vertices plus a tail of isolated
    // ones: two peel rounds, three dense launch pairs (the middle one finds
    // nothing below `k = 1`).
    let n = 16_385 * 32;
    let g = Graph::new(
        n,
        (0..n / 4).map(|v| Edge::new(2 * v, 2 * v + 1, 1)).collect(),
    );
    let (on, _) = run(&g, 32, true, false, None);
    let (off, _) = run(&g, 32, false, false, None);
    let (on, off) = (on.unwrap(), off.unwrap());
    assert_eq!(on.stats.iterations, 2);
    assert!(on
        .core
        .iter()
        .enumerate()
        .all(|(v, &c)| c == u32::from(v < n as usize / 2)));
    assert_eq!(on.core, off.core);
    assert_stats_identical("k-core on a 16,385-block grid", &on.stats, &off.stats);
    let m = on.stats.memo;
    assert_eq!(
        (m.replay_hits, m.replay_misses, m.replay_fallbacks),
        (2 * 2, 2, 0),
        "{m:?}"
    );
    assert_eq!(off.stats.memo.replay_fallbacks, 2 * 3);
}

// ---- Layout-owned launch records ------------------------------------------
//
// `try_run_warm` lends the layout's launch record to each resident run.
// Whatever a record holds — another program's recording, another tracer
// setting's, a faulted run's — a run must be indistinguishable from one on a
// layout built for it alone, except in `stats.memo`.

/// Shard size of the lent-record tests: 8 shards on the 256-vertex chaos
/// graph, and 128 bytes of shared memory per block (fits `tiny_test`).
const N_PER: u32 = 32;

fn settle<V>(r: Result<CuShaOutput<V>, EngineError<V>>) -> CuShaOutput<V> {
    match r {
        Ok(out) => out,
        Err(EngineError::NonConverged { partial }) => *partial,
        Err(e) => panic!("run failed: {e}"),
    }
}

fn warm_cfg(repr: Repr, device: DeviceConfig) -> CuShaConfig {
    let mut cfg = CuShaConfig::new(repr);
    cfg.max_iterations = MAX_ITERS;
    cfg.threads_per_block = 128;
    cfg.device = device;
    cfg
}

/// Runs `prog` on the shared `layout` under `cfg` and checks it against a
/// plain (untraced, replay on) run on a freshly built layout. Returns the
/// shared-layout run's memo telemetry.
fn run_like_cold<P: VertexProgram>(
    prog: &P,
    g: &Graph,
    layout: &PreparedLayout,
    cfg: &CuShaConfig,
    plan: Option<&mut FaultPlan>,
    tag: &str,
) -> MemoStats {
    let fresh = PreparedLayout::build(g, layout.repr(), layout.n_per());
    let cold_cfg = warm_cfg(
        cfg.repr,
        DeviceConfig {
            replay_memo: true,
            ..cfg.device.clone()
        },
    );
    let cold = settle(try_run_warm(
        prog,
        g,
        &fresh,
        &cold_cfg,
        None,
        &mut NoopObserver,
    ));
    let warm = settle(try_run_warm(prog, g, layout, cfg, plan, &mut NoopObserver));
    assert_eq!(warm.values, cold.values, "{tag}: values");
    assert_stats_identical(tag, &warm.stats, &cold.stats);
    warm.stats.memo
}

#[test]
fn lent_tables_are_invisible_across_programs_tracers_switches_and_faults() {
    let g = chaos_graph(123);
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let layout = PreparedLayout::build(&g, repr, N_PER);
        // Accounting identities already recorded on this layout. SSSP and
        // SSWP move the same element sizes at the same compute cost: one
        // identity, so SSWP's first run finds SSSP's recordings.
        let mut recorded: Vec<&str> = Vec::new();
        let mut check =
            |algo: &'static str, traced: bool, replay: bool, layout: &PreparedLayout| {
                let mut cfg = warm_cfg(repr, DeviceConfig::gtx780());
                cfg.device.replay_memo = replay;
                if traced {
                    cfg.trace = Tracer::enabled();
                }
                let tag = format!("{}/{algo} traced={traced} replay={replay}", repr.label());
                let (identity, memo) = match algo {
                    "bfs" => (
                        "u32",
                        run_like_cold(&Bfs::new(0), &g, layout, &cfg, None, &tag),
                    ),
                    "sssp" => (
                        "u32+w",
                        run_like_cold(&Sssp::new(0), &g, layout, &cfg, None, &tag),
                    ),
                    "sswp" => (
                        "u32+w",
                        run_like_cold(&Sswp::new(0), &g, layout, &cfg, None, &tag),
                    ),
                    "pr" => (
                        "f32+sv",
                        run_like_cold(&PageRank::new(), &g, layout, &cfg, None, &tag),
                    ),
                    _ => unreachable!(),
                };
                if !replay {
                    assert_eq!((memo.replay_hits, memo.replay_misses), (0, 0), "{tag}");
                    assert!(memo.replay_fallbacks > 0, "{tag}: {memo:?}");
                } else if recorded.contains(&identity) {
                    assert_eq!(
                        memo.replay_misses, 0,
                        "{tag}: warm record missed ({memo:?})"
                    );
                    assert!(memo.replay_hits > 0, "{tag}: {memo:?}");
                } else {
                    assert!(memo.replay_misses > 0, "{tag}: cold record hit everything");
                    recorded.push(identity);
                }
            };
        for (traced, replay) in [(false, true), (true, false)] {
            for algo in ["bfs", "sssp", "sswp", "pr"] {
                check(algo, traced, replay, &layout);
            }
        }

        // A plan that could still fire gates every launch of the run to a
        // fallback — and neither reads nor writes the lent record.
        let cfg = warm_cfg(repr, DeviceConfig::gtx780());
        let mut pending = FaultPlan::new().fail_kernel_at(&[u64::MAX]);
        let memo = run_like_cold(
            &Bfs::new(0),
            &g,
            &layout,
            &cfg,
            Some(&mut pending),
            "pending",
        );
        assert_eq!((memo.replay_hits, memo.replay_misses), (0, 0), "{memo:?}");
        assert!(memo.replay_fallbacks > 0, "{memo:?}");
        // A plan that fires past the device's relaunch budget fails the run
        // (the in-core engine surfaces such a fault); the record it was lent
        // comes back usable.
        let mut firing = FaultPlan::new().fail_kernel_at(&[0, 1]);
        let failed = try_run_warm(
            &Bfs::new(0),
            &g,
            &layout,
            &cfg,
            Some(&mut firing),
            &mut NoopObserver,
        );
        assert!(matches!(failed, Err(EngineError::KernelFault { .. })));
        let memo = run_like_cold(
            &Bfs::new(0),
            &g,
            &layout,
            &cfg,
            Some(&mut firing),
            "drained",
        );
        assert_eq!(
            memo.replay_misses, 0,
            "record lost across the fault: {memo:?}"
        );

        for (traced, replay) in [(true, true), (false, false)] {
            for algo in ["pr", "sswp", "bfs", "sssp"] {
                check(algo, traced, replay, &layout);
            }
        }

        // A clone shares nothing: it starts cold and records for itself.
        let clone = layout.clone();
        let memo = run_like_cold(&Bfs::new(0), &g, &clone, &cfg, None, "clone");
        assert!(memo.replay_misses > 0, "clone replayed its origin's record");
    }
}

#[test]
fn one_layout_under_two_geometries_never_shares_deltas() {
    // `tiny_test` and `gtx780` coalesce and bank alike, but a launch record
    // splits its cycles over the SMs (2 against 12): each keeps a record of
    // its own on the layout, and taking turns thrashes neither. Halving the
    // segment changes what a launch counts: that device records for itself.
    let g = chaos_graph(55);
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let layout = PreparedLayout::build(&g, repr, N_PER);
        let narrow = DeviceConfig {
            segment_bytes: 64,
            ..DeviceConfig::gtx780()
        };
        let mut first_misses = Vec::new();
        for device in [
            DeviceConfig::tiny_test(),
            DeviceConfig::gtx780(),
            narrow.clone(),
            DeviceConfig::gtx780(),
            narrow,
            DeviceConfig::tiny_test(),
        ] {
            let tag = format!(
                "{}/{}/seg{}",
                repr.label(),
                device.name,
                device.segment_bytes
            );
            let cfg = warm_cfg(repr, device);
            first_misses
                .push(run_like_cold(&Sssp::new(0), &g, &layout, &cfg, None, &tag).replay_misses);
        }
        assert!(first_misses[0] > 0, "{first_misses:?}");
        assert!(first_misses[1] > 0, "another SM count: {first_misses:?}");
        assert!(
            first_misses[2] > 0,
            "narrow segments replayed wide ones: {first_misses:?}"
        );
        assert_eq!(first_misses[3..], [0, 0, 0], "{first_misses:?}");
    }
}

#[test]
fn concurrent_runs_on_one_layout_share_nothing_mutable() {
    // Both runs are inside `try_run_warm` at once (the observer holds each
    // at its first iteration boundary until the other arrives): one holds
    // the layout's record, the other was handed a fresh one.
    struct Rendezvous<'a>(&'a std::sync::Barrier, bool);
    impl RunObserver for Rendezvous<'_> {
        fn on_iteration(&mut self, _i: u32, _u: u64, _e: f64) -> bool {
            if !std::mem::replace(&mut self.1, true) {
                self.0.wait();
            }
            true
        }
    }
    let g = chaos_graph(9);
    let cfg = warm_cfg(Repr::ConcatWindows, DeviceConfig::gtx780());
    let layout = PreparedLayout::build(&g, cfg.repr, N_PER);
    let cold = settle(try_run_warm(
        &Bfs::new(0),
        &g,
        &layout,
        &cfg,
        None,
        &mut NoopObserver,
    ));
    assert!(cold.stats.iterations > 1, "the rendezvous needs a boundary");
    let barrier = std::sync::Barrier::new(2);
    let run = || {
        let mut observer = Rendezvous(&barrier, false);
        settle(try_run_warm(
            &Bfs::new(0),
            &g,
            &layout,
            &cfg,
            None,
            &mut observer,
        ))
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(run), s.spawn(run));
        (a.join().expect("run a"), b.join().expect("run b"))
    });
    for (tag, out) in [("a", &a), ("b", &b)] {
        assert_eq!(out.values, cold.values, "{tag}");
        assert_stats_identical(tag, &out.stats, &cold.stats);
    }
    let mut misses = [a.stats.memo.replay_misses, b.stats.memo.replay_misses];
    misses.sort_unstable();
    assert_eq!(misses[0], 0, "neither run got the warm record");
    assert_eq!(
        misses[1], cold.stats.memo.replay_misses,
        "the other starts cold"
    );
}
