//! Integration tests of the resident query service: warm-state
//! independence, fused-batch bit-identity, deadlines, admission shedding,
//! blast-radius isolation, caching, and a mixed-load soak.

use cusha::algos::{Bfs, ConnectedComponents, Sssp, Sswp};
use cusha::core::integrity::checksum;
use cusha::core::{try_run, CuShaConfig, IntegrityConfig, IntegrityMode, Value, VertexProgram};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::Graph;
use cusha::serve::{
    parse_json, run_session, Json, RebuildPolicy, ServeConfig, ServeEngine, Service, WalConfig,
};
use cusha::simt::{DeviceConfig, FaultPlan, FlipTarget};
use proptest::prelude::*;

fn graph() -> Graph {
    rmat(&RmatConfig::graph500(8, 1_200, 42))
}

/// A config with caching off, so every query really re-enters the warm
/// engine (the default config would answer repeats from the cache).
fn no_cache() -> ServeConfig {
    ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    }
}

/// Runs `script` against a fresh service over [`graph`], returning every
/// response line parsed back from JSON plus the service for metric
/// inspection.
fn run_script(cfg: ServeConfig, script: &str) -> (Vec<Json>, Service) {
    let mut svc = Service::new(graph(), cfg).expect("service construction");
    let mut out = Vec::new();
    run_session(&mut svc, script.as_bytes(), &mut out).expect("session IO");
    let text = String::from_utf8(out).expect("utf8 output");
    let lines = text
        .lines()
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("bad response line {l:?}: {e}")))
        .collect();
    (lines, svc)
}

/// The responses that settle queries (every line carrying an "id").
fn query_responses(lines: &[Json]) -> Vec<&Json> {
    lines.iter().filter(|l| l.get("id").is_some()).collect()
}

fn status(r: &Json) -> &str {
    r.get("status")
        .and_then(Json::as_str)
        .expect("status field")
}

fn crc(r: &Json) -> String {
    r.get("checksum")
        .and_then(Json::as_str)
        .expect("checksum field")
        .to_string()
}

/// The checksum a cold, one-shot engine run produces for `prog` on `g`,
/// in the protocol's hex rendering.
fn cold_crc_on<P: VertexProgram>(prog: &P, g: &Graph) -> String {
    let out = try_run(prog, g, &CuShaConfig::cw()).expect("cold run");
    let bits: Vec<u64> = out.values.iter().map(|v| v.to_bits()).collect();
    format!("{:016x}", checksum(&bits))
}

fn cold_crc<P: VertexProgram>(prog: &P) -> String {
    cold_crc_on(prog, &graph())
}

#[test]
fn warm_queries_match_cold_runs() {
    // Two identical queries in separate flushes: the second runs on the
    // warm layout the first built. Both must equal a cold one-shot run.
    let (lines, _) = run_script(no_cache(), "sssp 3\nflush\nsssp 3\nflush\n");
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2);
    let cold = cold_crc(&Sssp::new(3));
    for r in &rs {
        assert_eq!(status(r), "ok");
        assert_eq!(crc(r), cold, "warm run diverged from cold run");
    }
}

#[test]
fn consumed_fault_does_not_refire_on_later_queries() {
    // A one-shot kernel fault consumed (and recovered) by the first
    // query's launch must not replay against the second: the fault plan
    // advances with the service, not per launch.
    let cfg = ServeConfig {
        fault_plan: Some(FaultPlan::seeded(1).fail_kernel_at(&[0])),
        ..no_cache()
    };
    let (lines, svc) = run_script(cfg, "bfs 0\nflush\nbfs 0\nflush\n");
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2);
    let cold = cold_crc(&Bfs::new(0));
    for r in &rs {
        assert_eq!(status(r), "ok");
        assert_eq!(crc(r), cold);
    }
    // Exactly one launch saw the kernel fault (its device relaunched the
    // one faulted kernel); had the plan replayed it, the second query's
    // launch would have absorbed one too.
    let scope = [("scope", "serve")];
    let retries = svc.metrics().counter("fault_kernel_retries", &scope);
    assert_eq!(retries, Some(1));
    let per_query: Vec<u32> = svc.telemetry().log.iter().map(|r| r.retries).collect();
    assert_eq!(per_query, [1, 0]);
}

#[test]
fn sdc_recovery_stays_per_query() {
    // Query 1 absorbs an injected bit flip (checkpoint/rollback recovers
    // it); query 2 must start from clean warm state and report clean SDC
    // stats. Both answers equal the cold, fault-free run.
    let cfg = ServeConfig {
        fault_plan: Some(FaultPlan::seeded(9).flip_at(0, FlipTarget::VertexValues, 0, 7)),
        integrity: IntegrityConfig::with_mode(IntegrityMode::Full),
        ..no_cache()
    };
    let (lines, svc) = run_script(cfg, "sssp 5\nflush\nsssp 5\nflush\n");
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2);
    let cold = cold_crc(&Sssp::new(5));
    for r in &rs {
        assert_eq!(status(r), "ok");
        assert_eq!(crc(r), cold, "SDC recovery leaked into a later query");
    }
    // Exactly one flip was injected service-wide (op counter advanced).
    let flips = svc
        .metrics()
        .counter("sdc_flips_injected", &[("scope", "serve")]);
    assert_eq!(flips, Some(1));
}

#[test]
fn one_lane_deadline_leaves_batchmate_bit_identical() {
    // Two SSSP queries fuse into one launch; the first carries an
    // impossible deadline. It settles "deadline" at an iteration
    // boundary while its batch-mate runs to convergence bit-identically.
    let script = "{\"id\":1,\"op\":\"sssp\",\"source\":3,\"deadline_ms\":0.000001}\n\
                  {\"id\":2,\"op\":\"sssp\",\"source\":7}\n\
                  flush\n";
    let (lines, _) = run_script(no_cache(), script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2);
    assert_eq!(status(rs[0]), "deadline");
    assert!(rs[0].get("iterations").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(status(rs[1]), "ok");
    assert_eq!(crc(rs[1]), cold_crc(&Sssp::new(7)));
}

#[test]
fn poisoned_fused_kernel_splits_and_isolates() {
    // Every "BFSx2" launch faults, past the device's relaunch budget; the
    // service must split the pair and finish both queries on singleton
    // launches whose kernels carry a different name.
    let cfg = ServeConfig {
        fault_plan: Some(FaultPlan::seeded(3).fail_kernels_named("BFSx2", u64::MAX)),
        ..no_cache()
    };
    let (lines, svc) = run_script(cfg, "bfs 0\nbfs 5\nflush\n");
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2);
    for (r, src) in rs.iter().zip([0u32, 5]) {
        assert_eq!(status(r), "ok", "split lane failed: {r:?}");
        assert_eq!(crc(r), cold_crc(&Bfs::new(src)));
    }
    assert_eq!(svc.metrics().counter("serve_splits_total", &[]), Some(1));
}

#[test]
fn a_resident_oom_splits_a_fused_launch_instead_of_rerunning_it() {
    // The fused pair's first device allocation fails. A resident device
    // does not rebatch, so the launch surfaces `DeviceOom`; the service
    // splits the pair, and both singletons answer what a cold run does.
    let cfg = ServeConfig {
        fault_plan: Some(FaultPlan::new().fail_alloc_at(&[0])),
        ..no_cache()
    };
    let (lines, svc) = run_script(cfg, "bfs 0\nbfs 5\nflush\n");
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2);
    for (r, src) in rs.iter().zip([0u32, 5]) {
        assert_eq!(status(r), "ok", "split lane failed: {r:?}");
        assert_eq!(crc(r), cold_crc(&Bfs::new(src)));
    }
    assert_eq!(svc.metrics().counter("serve_splits_total", &[]), Some(1));
    assert_eq!(svc.metrics().counter("serve_scrubs_total", &[]), None);
    let widths: Vec<u32> = svc.telemetry().log.iter().map(|r| r.batch_width).collect();
    assert_eq!(widths, [1, 1], "both lanes settled on their singletons");
}

#[test]
fn oversubscribed_queue_sheds_typed_rejections() {
    let cfg = ServeConfig {
        queue_capacity: 2,
        ..no_cache()
    };
    let script = "bfs 0\nbfs 1\nbfs 2\nbfs 3\nbfs 4\nflush\n";
    let (lines, svc) = run_script(cfg, script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 5, "every query settles exactly once");
    let rejected: Vec<_> = rs.iter().filter(|r| status(r) == "rejected").collect();
    assert_eq!(rejected.len(), 3);
    for r in &rejected {
        assert_eq!(
            r.get("reason").and_then(Json::as_str),
            Some("queue-full"),
            "shedding must name its reason"
        );
    }
    assert_eq!(rs.iter().filter(|r| status(r) == "ok").count(), 2);
    assert_eq!(
        svc.metrics()
            .counter("serve_shed_total", &[("reason", "queue-full")]),
        Some(3)
    );
}

#[test]
fn repeat_query_hits_the_cache() {
    let (lines, svc) = run_script(ServeConfig::default(), "bfs 0\nflush\nbfs 0\nflush\n");
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2);
    assert_eq!(rs[0].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(rs[1].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(crc(rs[0]), crc(rs[1]));
    let (hits, misses) = (
        svc.metrics().counter("serve_cache_hits_total", &[]),
        svc.metrics().counter("serve_cache_misses_total", &[]),
    );
    assert_eq!((hits, misses), (Some(1), Some(1)));
}

#[test]
fn reach_queries_pack_into_one_launch_with_exact_answers() {
    // Three reach queries (1+2+3 sources) fit one 64-lane MSBFS launch;
    // each must get exactly its own bitset slice back.
    let script = "{\"id\":1,\"op\":\"reach\",\"sources\":[0],\"values\":true}\n\
                  {\"id\":2,\"op\":\"reach\",\"sources\":[3,9],\"values\":true}\n\
                  {\"id\":3,\"op\":\"reach\",\"sources\":[1,4,7],\"values\":true}\n\
                  flush\n";
    let (lines, _) = run_script(no_cache(), script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 3);
    let g = graph();
    for (r, sources) in rs.iter().zip([vec![0u32], vec![3, 9], vec![1, 4, 7]]) {
        assert_eq!(status(r), "ok");
        let got: Vec<u64> = match r.get("values") {
            Some(Json::Arr(vs)) => vs
                .iter()
                .map(|v| u64::from_str_radix(v.as_str().unwrap(), 16).unwrap())
                .collect(),
            other => panic!("expected values array, got {other:?}"),
        };
        // Serial ground truth: one single-source BFS per bit.
        for (bit, &s) in sources.iter().enumerate() {
            let cold = try_run(&Bfs::new(s), &g, &CuShaConfig::cw()).unwrap();
            for (v, &word) in got.iter().enumerate() {
                let reached = (word >> bit) & 1 == 1;
                assert_eq!(
                    reached,
                    cold.values[v] != u32::MAX,
                    "query bit {bit} (source {s}) wrong at vertex {v}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fused N-source batch is bit-identical to N serial one-shot runs,
    /// for every traversal kind.
    #[test]
    fn fused_batches_are_bit_identical_to_serial(
        sources in proptest::collection::vec(0u32..256, 1..6),
        kind in 0usize..3,
    ) {
        let (name, colds): (&str, Vec<String>) = match kind {
            0 => ("bfs", sources.iter().map(|&s| cold_crc(&Bfs::new(s))).collect()),
            1 => ("sssp", sources.iter().map(|&s| cold_crc(&Sssp::new(s))).collect()),
            _ => ("sswp", sources.iter().map(|&s| cold_crc(&Sswp::new(s))).collect()),
        };
        let mut script = String::new();
        for s in &sources {
            script.push_str(&format!("{name} {s}\n"));
        }
        script.push_str("flush\n");
        let (lines, _) = run_script(no_cache(), &script);
        let rs = query_responses(&lines);
        prop_assert_eq!(rs.len(), sources.len());
        for (r, cold) in rs.iter().zip(colds) {
            prop_assert_eq!(status(r), "ok");
            prop_assert_eq!(crc(r), cold, "fused lane diverged from serial run");
        }
    }
}

#[test]
fn soak_mixed_load_under_faults_settles_every_query() {
    // ~100 mixed queries under seeded transient faults, bit flips, full
    // integrity and an oversubscribed queue: no panic, exactly one typed
    // response per query. Then the same load with an insert after every 40th
    // query (some with queries still queued) under serve-previous: one `ok`
    // acknowledgement per mutation besides, and no query shed for a rebuild.
    for (mutate_every, rebuild_policy) in [
        (None, RebuildPolicy::Shed),
        (Some(40), RebuildPolicy::ServePrevious),
    ] {
        let cfg = ServeConfig {
            queue_capacity: 12,
            cache_capacity: 16,
            fault_plan: Some(
                FaultPlan::seeded(1234)
                    .with_kernel_rate(0.02)
                    .with_h2d_rate(0.01)
                    .with_bitflip_rate(0.002),
            ),
            integrity: IntegrityConfig::with_mode(IntegrityMode::Full),
            rebuild_policy,
            ..ServeConfig::default()
        };
        let mut script = String::new();
        let (mut expected, mut mutations) = (0u64, 0usize);
        for i in 0..100u32 {
            match i % 7 {
                0 => script.push_str(&format!("bfs {}\n", i % 256)),
                1 => script.push_str(&format!("sssp {}\n", (i * 3) % 256)),
                2 => script.push_str(&format!("sswp {}\n", (i * 5) % 256)),
                3 => script.push_str(&format!("reach {} {}\n", i % 256, (i * 7) % 256)),
                4 => script.push_str("pagerank\n"),
                5 => script.push_str("cc\n"),
                _ => script.push_str(&format!(
                    "{{\"id\":\"q{i}\",\"op\":\"bfs\",\"source\":{},\"deadline_ms\":0.05}}\n",
                    i % 256
                )),
            }
            expected += 1;
            if mutate_every.is_some_and(|n| i % n == 14) {
                script.push_str(&format!("insert {} {} 3\n", i % 256, (i * 13) % 256));
                mutations += 1;
            }
            if i % 20 == 19 {
                script.push_str("flush\n");
            }
        }
        script.push_str("flush\nstats\n");
        let (lines, svc) = run_script(cfg, &script);
        let is_mutate = |r: &&Json| r.get("op").and_then(Json::as_str) == Some("mutate");
        let (acks, rs): (Vec<&Json>, Vec<&Json>) =
            query_responses(&lines).into_iter().partition(is_mutate);
        assert_eq!(rs.len() as u64, expected, "exactly one response per query");
        assert_eq!(acks.len(), mutations, "one acknowledgement per mutation");
        assert!(acks.iter().all(|r| status(r) == "ok"), "{acks:?}");
        let mut by_status = std::collections::BTreeMap::new();
        for r in &rs {
            *by_status.entry(status(r).to_string()).or_insert(0u64) += 1;
        }
        // Every status is one of the typed four; the load was heavy enough
        // that admission shedding actually triggered.
        for s in by_status.keys() {
            assert!(
                matches!(s.as_str(), "ok" | "deadline" | "failed" | "rejected"),
                "unexpected status {s}"
            );
        }
        assert!(
            by_status.get("rejected").copied().unwrap_or(0) > 0,
            "soak should oversubscribe the queue: {by_status:?}"
        );
        assert!(
            by_status.get("ok").copied().unwrap_or(0) >= expected / 2,
            "most queries should still succeed: {by_status:?}"
        );
        // The metrics snapshot carries the serve_* series for the artifact.
        let json = svc.metrics().to_json();
        for key in [
            "serve_queries_total",
            "serve_responses_total",
            "serve_cache_hits_total",
        ] {
            assert!(json.contains(key), "metrics JSON missing {key}");
        }
        if mutations > 0 {
            // serve-previous never sheds for a rebuild, and every window that
            // opened was closed and rebuilt what was warm.
            let reason = |r: &&Json| r.get("reason").and_then(Json::as_str) == Some("rebuilding");
            assert!(!rs.iter().any(reason), "{by_status:?}");
            assert!(json.contains("serve_rebuilds_total"), "no rebuild counted");
            let stats = lines.iter().rfind(|l| status(l) == "stats").expect("stats");
            assert_eq!(stats.get("rebuilding").and_then(Json::as_bool), Some(false));
        }
    }
}

#[test]
fn frontier_engine_serves_warm_queries() {
    // serve with --engine frontier: one PreparedFrontier topology stays
    // warm across flushes, and every query kind settles with the same
    // checksum the shard service produces for the identical script.
    let script = "bfs 0\nsssp 3\nflush\ncc\nreach 1 4\npagerank\nflush\n";
    let frontier_cfg = ServeConfig {
        engine: ServeEngine::Frontier,
        ..no_cache()
    };
    let (flines, _) = run_script(frontier_cfg, script);
    let (slines, _) = run_script(no_cache(), script);
    let frs = query_responses(&flines);
    let srs = query_responses(&slines);
    assert_eq!(frs.len(), 5);
    assert_eq!(frs.len(), srs.len());
    for (f, s) in frs.iter().zip(&srs) {
        assert_eq!(status(f), "ok");
        assert_eq!(f.get("op"), s.get("op"), "settlement order diverged");
        if f.get("op").and_then(Json::as_str) == Some("pagerank") {
            // Float fixpoint: engines stop at slightly different residuals,
            // so only the traversal/bitset answers are bit-compared.
            continue;
        }
        assert_eq!(crc(f), crc(s), "frontier answer diverged from shard");
    }
}

#[test]
fn mutation_invalidates_only_the_superseded_revision() {
    // A cached answer survives unrelated queries but not a committed
    // mutation: the mutation bumps graph_rev, the old revision's cache
    // entries are dropped, and the re-asked query misses then re-caches
    // under the new key.
    let script = "bfs 0\nflush\ninsert 0 200 5\nflush\nbfs 0\nflush\nbfs 0\nflush\n";
    let (lines, svc) = run_script(ServeConfig::default(), script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 4);
    assert_eq!(status(rs[0]), "ok");
    assert_eq!(rs[0].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(status(rs[1]), "ok"); // the mutate ack
    assert_eq!(rs[1].get("op").and_then(Json::as_str), Some("mutate"));
    assert_eq!(
        rs[2].get("cached").and_then(Json::as_bool),
        Some(false),
        "the pre-mutation cache entry must not answer for the new epoch"
    );
    assert_eq!(rs[3].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        svc.metrics().counter("serve_cache_invalidated_total", &[]),
        Some(1),
        "exactly the one superseded entry is invalidated"
    );
    assert_eq!(
        svc.metrics()
            .counter("serve_mutations_total", &[("status", "ok")]),
        Some(1)
    );
}

#[test]
fn shed_policy_rejects_queries_inside_the_rebuild_window() {
    // Default rebuild policy: a query arriving between a committed
    // mutation and the next flush is shed with a typed "rebuilding"
    // rejection; after the window closes the same query succeeds.
    let script = "insert 0 5 9\nbfs 0\nflush\nbfs 0\nflush\n";
    let (lines, svc) = run_script(no_cache(), script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 3);
    assert_eq!(rs[0].get("op").and_then(Json::as_str), Some("mutate"));
    assert_eq!(status(rs[1]), "rejected");
    assert_eq!(
        rs[1].get("reason").and_then(Json::as_str),
        Some("rebuilding")
    );
    assert_eq!(status(rs[2]), "ok");
    assert_eq!(
        svc.metrics()
            .counter("serve_shed_total", &[("reason", "rebuilding")]),
        Some(1)
    );
}

#[test]
fn serve_previous_policy_answers_from_the_prior_epoch() {
    // serve-previous: a query inside the rebuild window is answered from
    // the previous epoch's still-valid warm state (bit-identical to the
    // pre-mutation answer); after the window closes the same query sees
    // the mutated graph.
    let cfg = ServeConfig {
        rebuild_policy: RebuildPolicy::ServePrevious,
        ..no_cache()
    };
    // The insert grows the vertex set (300 >= 256), so the pre- and
    // post-mutation BFS answers necessarily differ.
    let script = "bfs 0\nflush\ninsert 0 300 5\nbfs 0\nflush\nbfs 0\nflush\n";
    let (lines, _) = run_script(cfg, script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 4);
    let before = crc(rs[0]);
    assert_eq!(before, cold_crc(&Bfs::new(0)));
    assert_eq!(rs[1].get("op").and_then(Json::as_str), Some("mutate"));
    assert_eq!(
        status(rs[2]),
        "ok",
        "serve-previous must not shed: {:?}",
        rs[2]
    );
    assert_eq!(
        crc(rs[2]),
        before,
        "the in-window answer must come from the previous epoch"
    );
    let mut mutated = graph();
    cusha::graph::MutationBatch::new()
        .insert(0, 300, 5)
        .apply(&mut mutated)
        .expect("oracle apply");
    assert_eq!(
        crc(rs[3]),
        cold_crc_on(&Bfs::new(0), &mutated),
        "the post-window answer must see the mutated graph"
    );
}

#[test]
fn frontier_launch_retries_faults_under_serve() {
    // A one-shot kernel fault against the frontier engine is relaunched in
    // place by its device, as on the shard engines.
    let cfg = ServeConfig {
        engine: ServeEngine::Frontier,
        fault_plan: Some(FaultPlan::seeded(3).fail_kernel_at(&[0])),
        ..no_cache()
    };
    let (lines, svc) = run_script(cfg, "bfs 0\nflush\n");
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 1);
    assert_eq!(status(rs[0]), "ok");
    assert_eq!(crc(rs[0]), cold_crc(&Bfs::new(0)));
    let scope = [("scope", "serve")];
    let retries = svc.metrics().counter("fault_kernel_retries", &scope);
    assert_eq!(retries, Some(1));
}

#[test]
fn service_new_rejects_out_of_range_config() {
    // `Service::new` is what the ledger, the tests and any library caller
    // use; the CLI's flag checks do not protect it. A NaN deadline would
    // silently disable every default deadline, a negative one cancel every
    // query at its first boundary, and an SLO target outside (0, 1] make
    // the error budget zero or negative.
    type Spoil = fn(&mut ServeConfig);
    let bad: [(&str, Spoil); 7] = [
        ("default_deadline_ms", |c| {
            c.default_deadline_ms = Some(f64::NAN)
        }),
        ("default_deadline_ms", |c| {
            c.default_deadline_ms = Some(-1.0)
        }),
        ("slo.latency_objective_s", |c| {
            c.slo.latency_objective_s = f64::NAN
        }),
        ("slo.latency_objective_s", |c| {
            c.slo.latency_objective_s = 0.0
        }),
        ("slo.latency_target", |c| c.slo.latency_target = 1.5),
        ("slo.availability_target", |c| {
            c.slo.availability_target = 0.0
        }),
        ("slo.availability_target", |c| {
            c.slo.availability_target = f64::NAN
        }),
    ];
    for (field, spoil) in bad {
        let mut cfg = ServeConfig::default();
        spoil(&mut cfg);
        let err = cfg.validate().expect_err(field);
        assert!(err.contains(field), "{err:?} does not name {field}");
        let refused = Service::new(graph(), cfg).err();
        assert_eq!(refused, Some(err), "Service::new must validate first");
    }
    // The boundaries that are in range stay accepted.
    let mut cfg = ServeConfig {
        default_deadline_ms: Some(0.001),
        ..ServeConfig::default()
    };
    cfg.slo.latency_target = 1.0;
    assert!(Service::new(graph(), cfg).is_ok());
}

/// The oracle for mutation tests: [`graph`] with `inserts` applied.
fn mutated(inserts: &[(u32, u32, u32)]) -> Graph {
    let mut g = graph();
    let batch = inserts
        .iter()
        .fold(cusha::graph::MutationBatch::new(), |b, &(s, d, w)| {
            b.insert(s, d, w)
        });
    batch.apply(&mut g).expect("oracle apply");
    g
}

#[test]
fn two_batches_in_one_window_rebuild_each_warm_key_once() {
    // Two committed batches before one flush share one window: its close
    // rebuilds what was warm exactly once, over the final graph, and the
    // answers equal a from-scratch service's on that graph.
    for policy in [RebuildPolicy::Shed, RebuildPolicy::ServePrevious] {
        let cfg = ServeConfig {
            rebuild_policy: policy,
            ..no_cache()
        };
        let script = "bfs 0\nflush\ninsert 0 300 5\ninsert 300 7 2\nflush\nbfs 0\nsssp 3\nflush\n";
        let (lines, svc) = run_script(cfg, script);
        let rs = query_responses(&lines);
        assert_eq!(rs.len(), 5);
        let rebuilds = svc.metrics().counter("serve_rebuilds_total", &[]);
        assert_eq!(rebuilds, Some(1), "{policy:?}: one warm key, one rebuild");
        let cold = svc.metrics().counter("serve_cold_launches_total", &[]);
        assert_eq!(cold, Some(1), "{policy:?}: only the first launch is cold");
        let fresh = mutated(&[(0, 300, 5), (300, 7, 2)]);
        assert_eq!(svc.graph_rev(), cusha::graph::fingerprint(&fresh));
        assert_eq!(crc(rs[3]), cold_crc_on(&Bfs::new(0), &fresh));
        assert_eq!(crc(rs[4]), cold_crc_on(&Sssp::new(3), &fresh));
    }
}

#[test]
fn scrub_inside_a_serve_previous_window_spares_both_epochs() {
    // A launch's fault outlasts its device's budget inside a serve-previous
    // window: the scrub drops the *previous* epoch's warm state (the one
    // serving). The previous epoch must keep answering bit-identically (cold
    // again), and the live epoch must still come back warm when the window
    // closes.
    let cfg = ServeConfig {
        rebuild_policy: RebuildPolicy::ServePrevious,
        fault_plan: Some(FaultPlan::seeded(3).fail_kernels_named("SSSP", 2)),
        ..no_cache()
    };
    let script = "bfs 0\nflush\ninsert 0 300 5\nsssp 3\ninsert 1 301 2\nbfs 0\nflush\n\
                  bfs 0\nsssp 3\nflush\n";
    let (lines, svc) = run_script(cfg, script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 7);
    let before = crc(rs[0]);
    // The in-window SSSP settles when the second batch flushes the queue.
    assert_eq!(status(rs[2]), "failed");
    assert_eq!(
        rs[2].get("reason").and_then(Json::as_str),
        Some("fault-exhausted")
    );
    assert_eq!(svc.metrics().counter("serve_scrubs_total", &[]), Some(1));
    assert_eq!(status(rs[4]), "ok");
    assert_eq!(crc(rs[4]), before, "the previous epoch answers as before");
    let fresh = mutated(&[(0, 300, 5), (1, 301, 2)]);
    assert_eq!(crc(rs[5]), cold_crc_on(&Bfs::new(0), &fresh));
    assert_eq!(crc(rs[6]), cold_crc_on(&Sssp::new(3), &fresh));
    // Launches: first BFS (cold), exhausted SSSP (warm), in-window BFS
    // (cold: scrubbed), then the two post-window pairs on the rebuilt layout.
    let warm: Vec<bool> = svc.telemetry().log.iter().map(|r| r.warm).collect();
    assert_eq!(warm, [false, true, false, true, true]);
    assert_eq!(svc.metrics().counter("serve_rebuilds_total", &[]), Some(1));
}

#[test]
fn frontier_topology_is_rebuilt_at_close_iff_it_was_warm() {
    for policy in [RebuildPolicy::Shed, RebuildPolicy::ServePrevious] {
        let cfg = || ServeConfig {
            engine: ServeEngine::Frontier,
            rebuild_policy: policy,
            ..no_cache()
        };
        // Warm when the window opened: rebuilt at the close, so the first
        // post-window query launches warm and no cold launch is counted.
        let (lines, svc) = run_script(cfg(), "bfs 0\nflush\ninsert 0 300 5\nflush\nbfs 0\nflush\n");
        let rs = query_responses(&lines);
        assert_eq!(rs.len(), 3);
        assert_eq!(
            crc(rs[2]),
            cold_crc_on(&Bfs::new(0), &mutated(&[(0, 300, 5)]))
        );
        let last = svc.telemetry().log.iter().last().expect("a record");
        assert!(last.warm, "{policy:?}: post-window launch must be warm");
        assert_eq!(svc.metrics().counter("serve_rebuilds_total", &[]), Some(1));
        let cold = svc.metrics().counter("serve_cold_launches_total", &[]);
        assert_eq!(cold, Some(1), "{policy:?}: only the very first launch");
        // Nothing warm when the window opened: nothing to rebuild, and the
        // first query afterwards pays the build.
        let (_, svc) = run_script(cfg(), "insert 0 300 5\nflush\nbfs 0\nflush\n");
        let last = svc.telemetry().log.iter().last().expect("a record");
        assert!(!last.warm, "{policy:?}: nothing was warm to rebuild");
        assert_eq!(svc.metrics().counter("serve_rebuilds_total", &[]), None);
    }
}

#[test]
fn in_window_answers_are_cached_under_the_epoch_that_computed_them() {
    // An answer computed inside a serve-previous window comes from the
    // previous epoch's graph, so it must be cached under the previous
    // revision: a repeat inside the window hits it, and the same query after
    // the window misses and sees the mutated graph. (While the service
    // swapped the two epochs' fields around a flush, the fill was keyed on
    // the *live* revision: in-window repeats missed, and the post-window
    // query was answered `cached:true` with the superseded graph's result.)
    let cfg = ServeConfig {
        rebuild_policy: RebuildPolicy::ServePrevious,
        ..ServeConfig::default()
    };
    let script =
        "bfs 0\nflush\ninsert 0 300 5\nbfs 1\ninsert 1 301 2\nbfs 1\nflush\nbfs 1\nflush\n";
    let (lines, _) = run_script(cfg, script);
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 6);
    let cached = |r: &Json| r.get("cached").and_then(Json::as_bool);
    // Launched on the previous epoch when the second batch flushed the queue.
    assert_eq!(cached(rs[2]), Some(false));
    assert_eq!(crc(rs[2]), cold_crc(&Bfs::new(1)));
    // Repeated inside the same window: the previous epoch's entry answers.
    assert_eq!(cached(rs[4]), Some(true), "in-window repeat must hit");
    assert_eq!(crc(rs[4]), crc(rs[2]));
    // After the window: a fresh answer on the mutated graph.
    assert_eq!(cached(rs[5]), Some(false), "superseded entry answered");
    let fresh = mutated(&[(0, 300, 5), (1, 301, 2)]);
    assert_eq!(crc(rs[5]), cold_crc_on(&Bfs::new(1), &fresh));
}

#[test]
fn vertex_growth_past_the_device_is_refused_before_commit() {
    // One wire line tries to grow the graph to four billion vertices — past
    // what the modeled device holds; the next mutation is an ordinary one.
    let dir = std::env::temp_dir().join(format!("cusha-growth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, engine) in [
        ("shard", ServeEngine::Shard),
        ("frontier", ServeEngine::Frontier),
    ] {
        let wal = WalConfig {
            path: dir.join(format!("{name}.wal")),
            snapshot_every: 0,
            crash: None,
        };
        let cfg = || ServeConfig {
            engine,
            wal: Some(wal.clone()),
            ..ServeConfig::default()
        };
        let script = "bfs 0\nflush\ninsert 4000000000 0 1\nstats\nbfs 0\nsssp 3\nflush\n\
                      insert 1 2 9\nflush\nbfs 0\nflush\nstats\n";
        let (lines, svc) = run_script(cfg(), script);
        let mutations: Vec<&Json> = lines
            .iter()
            .filter(|l| l.get("op").and_then(Json::as_str) == Some("mutate"))
            .collect();
        let [refused, committed] = mutations[..] else {
            panic!("{name}: expected two mutate responses, got {mutations:?}");
        };
        assert_eq!(status(refused), "error", "{name}: {refused:?}");
        assert_eq!(
            refused.get("reason").and_then(Json::as_str),
            Some("invalid")
        );
        let detail = refused
            .get("detail")
            .and_then(Json::as_str)
            .expect("detail");
        assert!(detail.contains("device out of memory"), "{name}: {detail}");
        assert_eq!(status(committed), "ok", "{name}: {committed:?}");
        // The service kept answering, at the epoch and revision it had.
        let stats: Vec<&Json> = lines.iter().filter(|l| status(l) == "stats").collect();
        assert_eq!(stats[0].get("epoch").and_then(Json::as_u64), Some(0));
        assert_eq!(stats[1].get("epoch").and_then(Json::as_u64), Some(1));
        let answered = query_responses(&lines)
            .iter()
            .filter(|r| r.get("op").and_then(Json::as_str) != Some("mutate") && status(r) == "ok")
            .count();
        assert_eq!(answered, 4, "{name}: {lines:?}");
        let invalid = [("status", "invalid")];
        assert_eq!(
            svc.metrics().counter("serve_mutations_total", &invalid),
            Some(1)
        );
        assert_eq!(svc.epoch(), 1);
        let served_rev = svc.graph_rev();
        drop(svc);
        // The log holds the committed batch and no record of the refused one:
        // a restart replays one batch and answers.
        let (lines, svc) = run_script(cfg(), "bfs 0\nflush\n");
        let recovery = svc.recovery().expect("a WAL was configured");
        assert_eq!(
            (recovery.replayed_batches, recovery.epoch),
            (1, 1),
            "{name}"
        );
        assert_eq!(svc.graph_rev(), served_rev, "{name}");
        assert_eq!(status(query_responses(&lines)[0]), "ok", "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_no_block_can_hold_fails_its_query_not_the_service() {
    // 256 vertices to a shard on a device with 1 KiB of shared memory per SM:
    // a fused BFS's two-word values (2 KiB) do not fit one block, CC's
    // one-word values (1 KiB) do.
    let cfg = ServeConfig {
        vertices_per_shard: Some(256),
        device: DeviceConfig {
            shared_mem_per_sm: 1024,
            ..DeviceConfig::gtx780()
        },
        ..no_cache()
    };
    let (lines, svc) = run_script(
        cfg,
        "bfs 0
flush
cc
flush
stats
",
    );
    let rs = query_responses(&lines);
    assert_eq!(rs.len(), 2, "{lines:?}");
    assert_eq!(status(rs[0]), "failed");
    assert_eq!(
        rs[0].get("reason").and_then(Json::as_str),
        Some("invalid-config")
    );
    assert_eq!(status(rs[1]), "ok", "{:?}", rs[1]);
    assert_eq!(crc(rs[1]), cold_crc(&ConnectedComponents::new()));
    assert_eq!(svc.metrics().counter("serve_batches_total", &[]), Some(1));
}

#[test]
fn a_batch_whose_deletes_make_room_is_admitted_at_capacity() {
    // Admission sizes a batch by the graph it commits: |E| + inserted -
    // deleted. At the largest device that refuses one more edge, a batch that
    // inserts an edge and deletes another keeps |E| and must commit; sized as
    // |E| + inserted (deletes counted as 0), it was refused as device-oom.
    let g = graph();
    let count = |s: u32, d: u32| {
        g.edges()
            .iter()
            .filter(|e| (e.src, e.dst) == (s, d))
            .count()
    };
    let gone = g
        .edges()
        .iter()
        .find(|e| count(e.src, e.dst) == 1)
        .expect("a lone edge");
    let n = g.num_vertices();
    let (u, v) = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .find(|&(s, d)| count(s, d) == 0)
        .expect("a pair the graph lacks");
    let mutate = |bytes: u64, line: &str| {
        let mut cfg = no_cache();
        cfg.device.global_mem_bytes = bytes;
        let (lines, _) = run_script(cfg, &format!("{line}\n"));
        let op = |l: &&Json| l.get("op").and_then(Json::as_str) == Some("mutate");
        lines.iter().find(op).expect("a mutation response").clone()
    };
    let grow = format!(r#"{{"id":1,"op":"mutate","insert":[[{u},{v},1]]}}"#);
    let swap = format!(
        r#"{{"id":2,"op":"mutate","insert":[[{u},{v},1]],"delete":[[{},{}]]}}"#,
        gone.src, gone.dst
    );
    // The smallest device that takes one more edge, by bisection.
    let (mut refused, mut taken) = (0u64, DeviceConfig::gtx780().global_mem_bytes);
    while taken - refused > 1 {
        let mid = refused + (taken - refused) / 2;
        match status(&mutate(mid, &grow)) {
            "ok" => taken = mid,
            _ => refused = mid,
        }
    }
    let at_capacity = mutate(refused, &grow);
    assert_eq!(status(&at_capacity), "error");
    let detail = at_capacity
        .get("detail")
        .and_then(Json::as_str)
        .unwrap_or("");
    assert!(detail.contains("memory"), "{detail}");
    let r = mutate(refused, &swap);
    assert_eq!(status(&r), "ok", "a batch that keeps |E| fits: {r:?}");
    let field = |k: &str| r.get(k).and_then(Json::as_f64);
    assert_eq!(
        (field("inserted"), field("deleted")),
        (Some(1.0), Some(1.0))
    );
}
