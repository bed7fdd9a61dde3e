//! Byte-stability of the `cusha-metrics/v2` snapshot across engines.
//!
//! Two identical runs of the same engine on the same seeded graph must
//! serialize to byte-identical JSON — the regression gate and the golden
//! files both depend on it. The five modeled engines (GS, CW, streamed,
//! frontier, VWC) run on the simulated device clock, so their snapshots
//! are compared byte for byte. MTCPU-CSR times iterations with the host
//! wall clock; for it only the series *keys* are required to be stable.

use cusha::algos::Bfs;
use cusha::baselines::{MtcpuEngine, VwcEngine};
use cusha::core::{run_engine, CuShaConfig, Engine, NoopObserver, Placement, Repr, ShardEngine};
use cusha::frontier::FrontierEngine;
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::Graph;
use cusha::obs::{MetricsRegistry, MetricsSnapshot};

/// Factory for a fresh engine instance (each run must start cold).
type EngineFactory = dyn Fn() -> Box<dyn Engine<Bfs>>;

fn graph() -> Graph {
    rmat(&RmatConfig::graph500(8, 1500, 21))
}

/// Runs BFS through the middleware with a fresh engine instance and
/// returns the serialized v2 snapshot.
fn snapshot(make: &EngineFactory, engine_label: &str, g: &Graph) -> String {
    let mut engine = make();
    let out = run_engine(
        engine.as_mut(),
        &Bfs::new(0),
        g,
        &CuShaConfig::cw(),
        None,
        &mut NoopObserver,
    )
    .expect("engine run");
    assert!(out.stats.converged, "{engine_label} did not converge");
    let mut reg = MetricsRegistry::new();
    out.stats
        .record_metrics(&mut reg, &[("algo", "bfs"), ("engine", engine_label)]);
    reg.to_json()
}

#[test]
fn modeled_engines_are_byte_stable() {
    let g = graph();
    let engines: &[(&str, &EngineFactory)] = &[
        ("gs", &|| Box::new(ShardEngine::new(Repr::GShards))),
        ("cw", &|| Box::new(ShardEngine::new(Repr::ConcatWindows))),
        ("cw-streamed", &|| {
            let placement = Placement::streamed(8 << 20);
            Box::new(ShardEngine {
                repr: Repr::ConcatWindows,
                placement,
            })
        }),
        ("frontier", &|| Box::new(FrontierEngine::new())),
        ("vwc:32", &|| Box::new(VwcEngine::new(32))),
    ];
    for (label, make) in engines {
        let a = snapshot(make, label, &g);
        let b = snapshot(make, label, &g);
        assert!(
            a.starts_with("{\"schema\":\"cusha-metrics/v2\""),
            "{label}: snapshot is not v2"
        );
        assert_eq!(a, b, "{label}: metrics snapshot is not byte-stable");
        // And the snapshot must survive a parse round-trip.
        let snap = MetricsSnapshot::parse(&a).expect("parse own snapshot");
        assert!(
            snap.counters
                .keys()
                .any(|k| k.starts_with("run_iterations{algo=bfs,engine=")),
            "{label}: run_iterations series missing"
        );
    }
}

#[test]
fn mtcpu_series_keys_are_stable() {
    let g = graph();
    let make: &EngineFactory = &|| Box::new(MtcpuEngine::new(4));
    let a = snapshot(make, "mtcpu:4", &g);
    let b = snapshot(make, "mtcpu:4", &g);
    let keys = |s: &str| {
        let snap = MetricsSnapshot::parse(s).expect("parse snapshot");
        let mut k: Vec<String> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .cloned()
            .collect();
        k.sort();
        k
    };
    assert_eq!(keys(&a), keys(&b), "mtcpu series keys drifted between runs");
}

#[test]
fn escaped_label_values_round_trip_through_snapshot() {
    let mut reg = MetricsRegistry::new();
    let hostile = "a\"b\\c\nd,e=f{g}";
    reg.add("q", &[("id", hostile)], 3);
    reg.set_gauge("g", &[("id", hostile)], 1.5);
    reg.observe("h", &[("id", hostile)], 0.25);
    let text = reg.to_json();
    let snap = MetricsSnapshot::parse(&text).expect("parse escaped snapshot");
    let key = format!("q{{id={hostile}}}");
    assert_eq!(snap.counters.get(key.as_str()), Some(&3));
    let gkey = format!("g{{id={hostile}}}");
    assert_eq!(snap.gauges.get(gkey.as_str()), Some(&1.5));
    let hkey = format!("h{{id={hostile}}}");
    assert!(snap.histograms.contains_key(hkey.as_str()));
}
