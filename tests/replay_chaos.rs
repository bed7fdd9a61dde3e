//! Warp-trace replay chaos: the replay memo is an accounting accelerator,
//! never an observable feature. Toggling `DeviceConfig::replay_memo` must
//! change *nothing* about a run — values, iteration counts, kernel
//! counters, modeled timings — across every engine family and algorithm,
//! and an injected fault plan (including silent bit flips) must land with
//! identical effect whether replay is on or off, because replay is gated
//! off for any launch a due fault could still disrupt.

use cusha::algos::{Bfs, PageRank, Sssp};
use cusha::baselines::{run_vwc, MtcpuEngine, VwcConfig, VwcEngine, VIRTUAL_WARP_SIZES};
use cusha::core::{
    run_engine, CuShaConfig, CuShaOutput, Engine, IntegrityConfig, IntegrityMode, NoopObserver,
    Repr, RunStats, ShardEngine, StreamedEngine, VertexProgram,
};
use cusha::frontier::FrontierEngine;
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::Graph;
use cusha::obs::Tracer;
use cusha::simt::{FaultPlan, FlipTarget};

const MAX_ITERS: u32 = 5_000;

fn chaos_graph(seed: u64) -> Graph {
    rmat(&RmatConfig::graph500(8, 3500, seed))
}

/// The six engine families, fresh boxes each call (engines are stateful).
fn all_engines<P: VertexProgram>() -> Vec<Box<dyn Engine<P>>> {
    vec![
        Box::new(ShardEngine::new(Repr::GShards)),
        Box::new(ShardEngine::new(Repr::ConcatWindows)),
        Box::new(StreamedEngine::new(64 << 20)),
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
        .unwrap_or_else(|e| panic!("{} (replay={replay}): {e}", engine.label()))
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
}

/// Engines whose kernels delimit warp-trace scopes (and therefore exercise
/// the replay table); the CPU baseline and the frontier engine account
/// per-op only.
fn uses_replay_scopes(label: &str) -> bool {
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
                let label = on_engine.label();
                let tag = format!("{label}/{algo}");
                let on = run_with_replay(
                    on_engine.as_mut(),
                    prog,
                    g,
                    true,
                    None,
                    IntegrityConfig::default(),
                );
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
                if uses_replay_scopes(&label) {
                    assert!(
                        on.stats.memo.replay_hits > 0,
                        "{tag}: replay-on run never replayed a scope ({:?})",
                        on.stats.memo
                    );
                    assert_eq!(
                        off.stats.memo.replay_hits, 0,
                        "{tag}: replay-off run served hits"
                    );
                    assert!(
                        off.stats.memo.replay_fallbacks > 0,
                        "{tag}: replay-off scopes not counted as fallbacks ({:?})",
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
    // so a wrongly-replaying scope would be the exact failure mode this
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
        let label = on_engine.label();
        let on = run_with_replay(
            on_engine.as_mut(),
            &Bfs::new(0),
            &g,
            true,
            Some(plan()),
            integrity,
        );
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
        if uses_replay_scopes(&label) {
            assert!(
                on.stats.memo.replay_fallbacks > 0,
                "{label}: no scope fell back while the plan could disrupt ({:?})",
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
fn vwc_class_keys_hit_at_any_size_traced_or_not() {
    // VWC keys its two scopes on alignment classes (SISD: vertex base mod
    // 32; reduce: warp slot in the block), so traced and untraced runs probe
    // the same keys and a run misses once per class — a constant — while
    // the warps it replays grow with |V|. Nothing observable may depend on
    // the tracer or the replay switch. The bound: 32 alignment classes + 8
    // warp slots at VWC/32, plus a tail warp's, rounded up.
    const CLASS_KEYS: u64 = 64;
    fn check<P: VertexProgram>(prog: &P, g: &Graph, tag: &str) {
        for vw in VIRTUAL_WARP_SIZES {
            let run = |traced: bool, replay: bool| {
                let mut cfg = VwcConfig::new(vw);
                cfg.device.replay_memo = replay;
                if traced {
                    cfg.trace = Tracer::enabled();
                }
                run_vwc(prog, g, &cfg)
            };
            let base = run(false, true);
            assert!(base.stats.converged, "{tag}/{vw}");
            for (traced, replay) in [(true, true), (false, false), (true, false)] {
                let other = run(traced, replay);
                let tag = format!("{tag}/{vw} traced={traced} replay={replay}");
                assert_eq!(base.values, other.values, "{tag}: values");
                assert_stats_identical(&tag, &base.stats, &other.stats);
                let memo = other.stats.memo;
                if replay {
                    assert_eq!(memo, base.stats.memo, "{tag}: same keys, same probes");
                } else {
                    assert_eq!((memo.replay_hits, memo.replay_misses), (0, 0), "{tag}");
                }
            }
            let memo = base.stats.memo;
            assert!(
                memo.replay_misses <= CLASS_KEYS,
                "{tag}/{vw}: {} misses over {} vertices — keyed per vertex?",
                memo.replay_misses,
                g.num_vertices()
            );
            assert!(
                memo.replay_hits > memo.replay_misses,
                "{tag}/{vw}: {memo:?}"
            );
        }
    }
    for (scale, edges) in [(8, 3_500), (11, 24_000)] {
        let g = rmat(&RmatConfig::graph500(scale, edges, 77));
        check(&Bfs::new(0), &g, &format!("bfs@{scale}"));
        check(&Sssp::new(0), &g, &format!("sssp@{scale}"));
    }
}
