//! Schema-stability and golden-file tests for the observability layer.
//!
//! A seeded BFS run on an RMAT surrogate must emit a byte-stable
//! `cusha-metrics/v2` snapshot (checked against `tests/golden/`) and a
//! Chrome trace whose every event carries the required keys
//! `ph`/`ts`/`pid`/`tid`/`name`. Regenerate the golden file after an
//! intentional schema change with:
//!
//! ```sh
//! CUSHA_REGEN_GOLDEN=1 cargo test --test trace_schema
//! ```

use cusha::algos::Bfs;
use cusha::baselines::{run_mtcpu, run_vwc, MtcpuConfig, VwcConfig};
use cusha::core::{run, run_multi, run_streamed, CuShaConfig, MultiConfig, StreamingConfig};
use cusha::frontier::{run_frontier, run_kcore, FrontierConfig};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::obs::trace::{ArgVal, Ph};
use cusha::obs::{chrome_trace_json, validate_chrome_trace, MetricsRegistry, Tracer};

const GOLDEN_METRICS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/bfs_rmat8_cw_metrics.json"
);

/// One fixed, fully deterministic traced run: seeded RMAT graph, CW
/// engine, modeled clock. Returns (chrome trace doc, metrics snapshot).
fn traced_bfs() -> (String, String) {
    let g = rmat(&RmatConfig::graph500(8, 1500, 21));
    let tracer = Tracer::enabled();
    let out = run(
        &Bfs::new(0),
        &g,
        &CuShaConfig::cw().with_tracer(tracer.clone()),
    );
    assert!(out.stats.converged);
    let mut reg = MetricsRegistry::new();
    out.stats
        .record_metrics(&mut reg, &[("algo", "bfs"), ("engine", "cw")]);
    (chrome_trace_json(&tracer), reg.to_json())
}

#[test]
fn metrics_snapshot_matches_golden_file() {
    let (_, metrics) = traced_bfs();
    if std::env::var_os("CUSHA_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_METRICS, &metrics).expect("write golden metrics");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_METRICS).expect("read golden metrics");
    assert_eq!(
        metrics, golden,
        "metrics snapshot drifted from {GOLDEN_METRICS}; if the change is \
         intentional, regenerate with CUSHA_REGEN_GOLDEN=1"
    );
}

#[test]
fn metrics_snapshot_has_versioned_schema_and_profile_counters() {
    let (_, metrics) = traced_bfs();
    assert!(metrics.starts_with("{\"schema\":\"cusha-metrics/v2\""));
    assert!(metrics.ends_with("}}\n"));
    for key in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(metrics.contains(key), "missing {key}");
    }
    // The paper's Table-2 profile counters and the fault/run stats all land
    // in the one snapshot.
    for series in [
        "gpu_gld_efficiency{algo=bfs,engine=cw}",
        "gpu_gst_efficiency{algo=bfs,engine=cw}",
        "gpu_warp_execution_efficiency{algo=bfs,engine=cw}",
        "run_iterations{algo=bfs,engine=cw}",
        "fault_copy_retries{algo=bfs,engine=cw}",
        "iteration_seconds{algo=bfs,engine=cw}",
    ] {
        assert!(metrics.contains(series), "missing series {series}");
    }
}

#[test]
fn chrome_trace_validates_with_required_keys() {
    let (trace, _) = traced_bfs();
    let n = validate_chrome_trace(&trace).expect("trace must be structurally valid");
    assert!(n > 0, "trace is empty");
    // The single-device span families: engine setup/iteration/download,
    // copy, kernel and its phase sub-spans.
    for needle in [
        "\"name\":\"setup\"",
        "\"name\":\"iteration\"",
        "\"name\":\"download\"",
        "\"cat\":\"copy\"",
        "\"cat\":\"kernel\"",
        "\"cat\":\"phase\"",
        "\"name\":\"gather\"",
        "\"name\":\"apply\"",
        "\"name\":\"scatter\"",
        "\"name\":\"compact\"",
        "\"name\":\"device0\"",
    ] {
        assert!(trace.contains(needle), "trace lacks {needle}");
    }
    assert!(trace.contains("cusha-trace/v1"));
}

#[test]
fn traced_run_is_byte_reproducible() {
    let (trace_a, metrics_a) = traced_bfs();
    let (trace_b, metrics_b) = traced_bfs();
    assert_eq!(trace_a, trace_b, "chrome trace is not byte-stable");
    assert_eq!(metrics_a, metrics_b, "metrics snapshot is not byte-stable");
}

/// The `iteration` argument of the engine-lane `iteration` spans is 1-based
/// — the number `RunObserver::on_iteration` reports — on every engine: the
/// spans of a run that took `n` iterations carry exactly `1..=n`.
#[test]
fn iteration_spans_are_one_based_on_every_engine() {
    let g = rmat(&RmatConfig::graph500(8, 1500, 21));
    let traced = |run: &dyn Fn(CuShaConfig) -> u32| {
        let tracer = Tracer::enabled();
        let iterations = run(CuShaConfig::cw().with_tracer(tracer.clone()));
        let seen = tracer
            .with_events(|events| {
                events
                    .iter()
                    .filter(|e| e.ph == Ph::Complete && e.cat == "engine" && e.name == "iteration")
                    .map(|e| match e.args.iter().find(|(k, _)| *k == "iteration") {
                        Some((_, ArgVal::U64(i))) => *i,
                        other => panic!("iteration span without a u64 `iteration`: {other:?}"),
                    })
                    .collect::<Vec<u64>>()
            })
            .expect("tracer is enabled");
        (iterations, seen)
    };
    let prog = Bfs::new(0);
    let cases: [(&str, &dyn Fn(CuShaConfig) -> u32); 7] = [
        ("in-core", &|cfg| run(&prog, &g, &cfg).stats.iterations),
        ("streamed", &|cfg| {
            run_streamed(&prog, &g, &StreamingConfig::new(cfg, 1 << 14))
                .stats
                .iterations
        }),
        ("fleet", &|cfg| {
            run_multi(&prog, &g, &MultiConfig::new(cfg, 2))
                .stats
                .iterations
        }),
        ("VWC/8", &|cfg| {
            let vwc = VwcConfig::new(8).with_tracer(cfg.trace);
            run_vwc(&prog, &g, &vwc).stats.iterations
        }),
        ("frontier", &|cfg| {
            let frontier = FrontierConfig::from_cusha(&cfg);
            run_frontier(&prog, &g, &frontier).stats.iterations
        }),
        ("k-core", &|cfg| {
            let rounds = run_kcore(&g, &FrontierConfig::from_cusha(&cfg));
            rounds.stats.iterations
        }),
        ("MTCPU/2", &|cfg| {
            let mtcpu = MtcpuConfig::new(2).with_tracer(cfg.trace);
            run_mtcpu(&prog, &g, &mtcpu).stats.iterations
        }),
    ];
    for (engine, run) in cases {
        let (iterations, seen) = traced(run);
        assert!(iterations >= 2, "{engine}: want a multi-iteration run");
        let want: Vec<u64> = (1..=iterations as u64).collect();
        assert_eq!(seen, want, "{engine}");
    }
}
