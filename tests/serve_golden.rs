//! The resident service's observable behaviour, pinned. How the service
//! keeps its epochs, picks its warm engine and turns a launch's outcome
//! into responses is free to change; what a session *emits* is not.
//! `tests/golden/serve_transcripts.txt` was generated at the commit before
//! the service's engine fork, rebuild window and settle paths were given one
//! owner each, and is compared line by line.
//!
//! Sessions run through [`run_session`] over {Shard-CW, Shard-GS, Frontier}
//! x {`Shed`, `ServePrevious`} x {clean; seeded `kernel%`/`h2d%` faults +
//! bit flips + `IntegrityMode::Full`, `queue_capacity` 16},
//! all on one mixed script: bfs/sssp/sswp in even and odd counts per flush,
//! `reach` sets that pack into one launch, that overflow 64 bits into two,
//! and one 64-source set, pagerank, cc, `deadline_ms` expiring one lane of a
//! pair and both, `values:true`, a cache-hitting repeat, invalid sources,
//! parse errors, `stats` mid-session and at the end, insert / delete /
//! vertex-growing / invalid mutations, two batches inside one window, a
//! query inside the window, a mutation with queries still queued, and a
//! burst that oversubscribes the 16-slot queue. Beside the matrix: an
//! iteration cap that fails every launch typed (`non-converged`), a
//! named-kernel plan that poisons only `BFSx2` (split, both singletons ok),
//! one that poisons `BFS` too (split, one `fault-exhausted` + scrub), an
//! exhausted singleton inside a serve-previous window on both engine
//! families, and one session with a WAL (its modeled fsyncs move the clock).
//!
//! One line per session, every field spelled out: response count + FNV-1a,
//! metrics-JSON FNV-1a, slow-log FNV-1a, `graph_rev` / `epoch`, Chrome-trace
//! length + FNV-1a, then every `QueryRecord` field of the query log (times
//! as bit patterns). Regenerate — only for an intended change of what the
//! service emits — with:
//!
//! ```sh
//! CUSHA_REGEN_GOLDEN=1 cargo test --test serve_golden
//! ```

use cusha::core::{IntegrityConfig, IntegrityMode, Repr};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{io::Fnv1a, Graph};
use cusha::obs::{chrome_trace_json, Tracer};
use cusha::serve::{
    run_session, QueryRecord, RebuildPolicy, ServeConfig, ServeEngine, Service, WalConfig,
};
use cusha::simt::FaultPlan;
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serve_transcripts.txt"
);

fn json_reach(id: &str, sources: impl Iterator<Item = u32>, extra: &str) -> String {
    let sources: Vec<String> = sources.map(|s| s.to_string()).collect();
    format!(
        "{{\"id\":\"{id}\",\"op\":\"reach\",\"sources\":[{}]{extra}}}\n",
        sources.join(",")
    )
}

/// The script every matrix session runs (256-vertex graph).
fn mixed_script() -> String {
    let mut s = String::new();
    // Even BFS pair, odd SSSP count (a pair and a one-lane pair), lone SSWP.
    s.push_str("bfs 0\nbfs 5\nsssp 3\nsssp 7\nsssp 11\nsswp 2\nflush\nstats\n");
    // A cache-hitting repeat, values on a traversal, three reach sets that
    // pack into one launch, both whole-graph refreshes, arrival order mixed.
    s.push_str("bfs 0\npagerank\n");
    s.push_str("{\"id\":\"v1\",\"op\":\"bfs\",\"source\":9,\"values\":true}\n");
    s.push_str(&json_reach("r1", 0..1, ",\"values\":true"));
    s.push_str("cc\n");
    s.push_str(&json_reach("r2", [3, 9].into_iter(), ""));
    s.push_str("sswp 4\n");
    s.push_str(&json_reach("r3", [1, 4, 7].into_iter(), ",\"values\":true"));
    s.push_str("flush\n");
    // 40 + 30 sources overflow one 64-bit launch into two; a 64-source set
    // fills a launch alone; the trailing pair packs with nothing before it.
    s.push_str(&json_reach("w40", 0..40, ""));
    s.push_str(&json_reach("w30", 40..70, ",\"values\":true"));
    s.push_str(&json_reach("w64", 100..164, ",\"values\":true"));
    s.push_str("reach 5 6\nflush\n");
    // Deadlines: one lane of a pair, both lanes of a pair, a singleton, one
    // lane of a packed reach launch; then a pagerank with values.
    s.push_str("{\"id\":\"d1\",\"op\":\"sssp\",\"source\":13,\"deadline_ms\":0.000001}\n");
    s.push_str("{\"id\":\"d2\",\"op\":\"sssp\",\"source\":8}\n");
    s.push_str("{\"id\":\"d3\",\"op\":\"bfs\",\"source\":1,\"deadline_ms\":0.000001}\n");
    s.push_str("{\"id\":\"d4\",\"op\":\"bfs\",\"source\":2,\"deadline_ms\":0.000001}\n");
    s.push_str("{\"id\":\"d5\",\"op\":\"pagerank\",\"deadline_ms\":0.000001}\n");
    s.push_str(&json_reach(
        "d6",
        [1, 2].into_iter(),
        ",\"deadline_ms\":0.000001",
    ));
    s.push_str(&json_reach("d7", [3].into_iter(), ""));
    s.push_str("{\"id\":\"d8\",\"op\":\"sswp\",\"source\":6,\"deadline_ms\":250}\n");
    s.push_str("{\"id\":\"p1\",\"op\":\"pagerank\",\"values\":true}\n");
    s.push_str("flush\n");
    // Invalid sources, an empty and an oversized source set, parse errors.
    s.push_str("bfs 999\nreach\n");
    s.push_str(&json_reach("big", 0..65, ""));
    s.push_str(&json_reach("oob", [1, 999].into_iter(), ""));
    s.push_str("this is not a command\n{\"op\":\"bfs\"}\n{bad json\n\n# a comment\n");
    // A burst of 20: fits the default queue, oversubscribes a 16-slot one.
    for i in 0..20u32 {
        match i % 4 {
            0 => writeln!(s, "bfs {}", 20 + i).unwrap(),
            1 => writeln!(s, "sssp {}", 40 + i).unwrap(),
            2 => writeln!(s, "sswp {}", 60 + i).unwrap(),
            _ => writeln!(s, "reach {} {}", 80 + i, 81 + i).unwrap(),
        }
    }
    s.push_str("flush\n");
    // A window: first batch, two queries inside it (shed, or served from the
    // previous epoch: one from its cache, one by a launch), a vertex-growing
    // second batch with that query still queued, a delete, an invalid delete,
    // a JSON batch, an empty one, more in-window queries (launched and
    // cached), stats inside the window, then the closing flush.
    s.push_str("insert 0 200 5\nbfs 0\nbfs 17\ninsert 3 300 2\ndelete 0 200\ndelete 250 251\n");
    s.push_str(
        "{\"id\":\"m1\",\"op\":\"mutate\",\"insert\":[[1,2,3],[9,10]],\"delete\":[[1,2]]}\n",
    );
    s.push_str("{\"op\":\"mutate\",\"insert\":[]}\n");
    s.push_str("sssp 19\nreach 7 9\npagerank\nstats\nflush\n");
    // After the window: the same queries on the new epoch (warm rebuilt
    // layouts), a source that exists only since the growth, a cache repeat.
    s.push_str("bfs 0\nsssp 3\nbfs 299\nreach 300 1\nflush\nbfs 0\nflush\n");
    // A mutation outside any window with queries still queued, then a flush
    // that only closes the window, then the re-asked query.
    s.push_str("bfs 4\nsswp 6\ncc\ninsert 7 8 1\nflush\nbfs 4\ncc\nflush\nstats\n");
    s
}

fn base_config(engine: &str, policy: RebuildPolicy) -> ServeConfig {
    let (engine, repr) = match engine {
        "cw" => (ServeEngine::Shard, Repr::ConcatWindows),
        "gs" => (ServeEngine::Shard, Repr::GShards),
        _ => (ServeEngine::Frontier, Repr::ConcatWindows),
    };
    ServeConfig {
        engine,
        repr,
        rebuild_policy: policy,
        trace: Tracer::enabled(),
        ..ServeConfig::default()
    }
}

fn matrix_config(engine: &str, policy: RebuildPolicy, chaos: bool) -> ServeConfig {
    let cfg = base_config(engine, policy);
    if !chaos {
        return cfg;
    }
    ServeConfig {
        queue_capacity: 16,
        fault_plan: Some(
            FaultPlan::seeded(99)
                .with_kernel_rate(0.02)
                .with_h2d_rate(0.01)
                .with_bitflip_rate(0.002),
        ),
        integrity: IntegrityConfig::with_mode(IntegrityMode::Full),
        ..cfg
    }
}

fn policy_label(p: RebuildPolicy) -> &'static str {
    match p {
        RebuildPolicy::Shed => "shed",
        RebuildPolicy::ServePrevious => "prev",
    }
}

fn record_fields(r: &QueryRecord) -> String {
    format!(
        "{}/{}/{}/{:x}/{:x}/{}/{}/{}/{}/{}/{}",
        r.seq,
        r.op,
        r.outcome.label(),
        r.latency_s.to_bits(),
        r.queue_wait_s.to_bits(),
        r.batch_id,
        r.batch_width,
        r.warm,
        r.cache_hit,
        r.retries,
        r.deadline_slack_s
            .map_or("none".to_string(), |s| format!("{:x}", s.to_bits())),
    )
}

/// Runs one session and spells its fingerprint out on one line.
fn session_line(name: &str, cfg: ServeConfig, script: &str) -> String {
    session_line_on(rmat(&RmatConfig::graph500(8, 1_200, 42)), name, cfg, script)
}

fn session_line_on(graph: Graph, name: &str, cfg: ServeConfig, script: &str) -> String {
    let tracer = cfg.trace.clone();
    let mut svc = Service::new(graph, cfg).expect("service construction");
    let mut out = Vec::new();
    run_session(&mut svc, script.as_bytes(), &mut out).expect("session IO");
    svc.sync_trace_drops();
    let responses = String::from_utf8(out).expect("utf8 output");
    let trace = chrome_trace_json(&tracer);
    let log: Vec<String> = svc.telemetry().log.iter().map(record_fields).collect();
    format!(
        "{name} responses={}:{:016x} metrics={:016x} slow={:016x} rev={:016x} epoch={} \
         trace={}:{:016x} log_dropped={} log={}",
        responses.lines().count(),
        Fnv1a::of(responses.as_bytes()),
        Fnv1a::of(svc.metrics().to_json().as_bytes()),
        Fnv1a::of(svc.telemetry().slow.render().as_bytes()),
        svc.graph_rev(),
        svc.epoch(),
        trace.len(),
        Fnv1a::of(trace.as_bytes()),
        svc.telemetry().log.dropped(),
        log.join(","),
    )
}

fn document() -> String {
    let mut lines = Vec::new();
    let mixed = mixed_script();
    for engine in ["cw", "gs", "frontier"] {
        for policy in [RebuildPolicy::Shed, RebuildPolicy::ServePrevious] {
            for chaos in [false, true] {
                let name = format!(
                    "mixed/{engine}/{}/{}",
                    policy_label(policy),
                    if chaos { "chaos" } else { "clean" }
                );
                let cfg = matrix_config(engine, policy, chaos);
                lines.push(session_line(&name, cfg, &mixed));
            }
        }
    }

    // Every launch ends on the iteration cap: the typed-failure arm on a
    // pair, a one-lane pair, a packed reach launch and both refreshes.
    let capped = "bfs 0\nbfs 5\nsssp 3\nreach 1 2\nreach 3\npagerank\ncc\nflush\nstats\n";
    for engine in ["cw", "frontier"] {
        let cfg = ServeConfig {
            max_iterations: 1,
            ..base_config(engine, RebuildPolicy::Shed)
        };
        lines.push(session_line(&format!("capped/{engine}"), cfg, capped));
    }

    // Named-kernel plans: every fused BFS launch faults (the pair splits and
    // both lanes finish on the plain kernel; the odd third query rides a
    // one-lane `BFSx2`, cannot split, fails and scrubs) ...
    let split = "bfs 0\nbfs 5\nsssp 3\nsssp 7\nflush\nbfs 9\nsssp 3\nflush\nbfs 0\nflush\nstats\n";
    let poisoned = |plan: FaultPlan, policy| ServeConfig {
        fault_plan: Some(plan),
        cache_capacity: 0,
        ..base_config("cw", policy)
    };
    let shed = RebuildPolicy::Shed;
    let plan = FaultPlan::seeded(3).fail_kernels_named("BFSx2", 4);
    lines.push(session_line(
        "split/fused-only",
        poisoned(plan, shed),
        split,
    ));
    // ... and the plain kernel's first two launches fault too: the first
    // split lane settles `fault-exhausted` and scrubs, the second runs cold.
    let plan = FaultPlan::seeded(3)
        .fail_kernels_named("BFSx2", u64::MAX)
        .fail_kernels_named("BFS", 2);
    lines.push(session_line("split/plain-too", poisoned(plan, shed), split));
    // The same for a packed reach launch (two `MSBFS` launch faults exhaust
    // the pack; the first singleton exhausts too, the others run cold).
    let reach = "reach 1\nreach 2 3\nreach 4\nflush\nreach 1\nflush\nstats\n";
    let plan = FaultPlan::seeded(3).fail_kernels_named("MSBFS", 4);
    lines.push(session_line("split/reach", poisoned(plan, shed), reach));

    // An exhausted singleton — scrub — inside a serve-previous window: the
    // previous epoch keeps answering (cold again), two batches share the one
    // rebuild, and the live epoch comes back warm at the close.
    let in_window = "bfs 0\npagerank\nflush\ninsert 0 300 5\nsssp 3\ninsert 1 301 2\nbfs 0\n\
                     pagerank\nflush\nbfs 0\nsssp 3\npagerank\nflush\nstats\n";
    for engine in ["cw", "frontier"] {
        let plan = FaultPlan::seeded(3).fail_kernels_named("SSSP", 2);
        let cfg = ServeConfig {
            fault_plan: Some(plan),
            cache_capacity: 0,
            ..base_config(engine, RebuildPolicy::ServePrevious)
        };
        lines.push(session_line(
            &format!("scrub-in-window/{engine}"),
            cfg,
            in_window,
        ));
    }

    // Two warm layouts: 1 KiB of shared memory and a sparse 512-vertex graph
    // make the autotuner pick 128 vertices per shard for 4-byte values and 64
    // for 8-byte ones, so a window close rebuilds two keys and a launch is
    // cold or warm per key.
    let two_sizes = "bfs 0\nflush\npagerank\nbfs 1\nbfs 2\nflush\ninsert 0 600 5\nreach 1 2\n\
                     insert 1 601 2\ncc\nflush\nbfs 0\npagerank\nflush\ninsert 2 3 1\nflush\n\
                     reach 1 2\nflush\nstats\n";
    // A layout the previous epoch first builds *inside* the window counts as
    // warm for the close only if a later batch joins the same window.
    let grown = "bfs 0\nflush\ninsert 0 600 5\npagerank\ninsert 1 601 2\nflush\npagerank\nbfs 0\n\
                 flush\ninsert 2 3 1\ncc\nflush\ncc\nflush\nstats\n";
    for policy in [RebuildPolicy::Shed, RebuildPolicy::ServePrevious] {
        for (name, script) in [("two-sizes", two_sizes), ("grown-in-window", grown)] {
            let mut cfg = base_config("cw", policy);
            cfg.device.shared_mem_per_sm = 1024;
            cfg.cache_capacity = 0;
            lines.push(session_line_on(
                rmat(&RmatConfig::graph500(9, 500, 42)),
                &format!("{name}/{}", policy_label(policy)),
                cfg,
                script,
            ));
        }
    }

    // A WAL in a temp dir: two fsyncs per commit and the snapshot
    // compaction every second batch all charge the modeled clock.
    let wal = std::env::temp_dir().join(format!("cusha-serve-golden-{}.wal", std::process::id()));
    let cleanup = || {
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(cusha::serve::wal::snapshot_path(&wal));
    };
    cleanup();
    let cfg = ServeConfig {
        wal: Some(WalConfig {
            path: wal.clone(),
            snapshot_every: 2,
            crash: None,
        }),
        ..base_config("cw", RebuildPolicy::ServePrevious)
    };
    lines.push(session_line("wal/cw/prev", cfg, &mixed));
    cleanup();

    lines.join("\n") + "\n"
}

#[test]
fn serve_transcripts_match_the_golden_file() {
    let doc = document();
    if std::env::var_os("CUSHA_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &doc).expect("write golden transcripts");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden transcripts");
    // Name the session and the first field that moved, not 10 KB of line.
    let first_difference = doc
        .lines()
        .zip(golden.lines())
        .find(|(ours, theirs)| ours != theirs)
        .map(|(ours, theirs)| {
            let (now, was) = ours
                .split([' ', ','])
                .zip(theirs.split([' ', ',']))
                .find(|(a, b)| a != b)
                .unwrap_or(("(shorter)", "(longer)"));
            let session = ours.split(' ').next().unwrap_or_default();
            format!("session {session}\n  now:    {now}\n  golden: {was}")
        });
    assert!(
        doc == golden,
        "serve transcripts drifted from {GOLDEN}: {}",
        first_difference.unwrap_or_else(|| "session counts differ".into())
    );
}
