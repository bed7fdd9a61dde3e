//! Crash-injection recovery harness for the serve mutation WAL.
//!
//! Each test kills the service at a deterministic WAL offset — mid-record,
//! after the batch record but before the commit record, or after the
//! commit record but before the in-memory apply — then restarts over the
//! same log and checks the recovery invariants from DESIGN.md:
//!
//! * recovery replays exactly the committed prefix (a torn or uncommitted
//!   batch is truncated away, a committed-but-unapplied batch is redone);
//! * the recovered `graph_rev` equals a from-scratch rebuild that applies
//!   the same committed batches to the base graph;
//! * every query answer on the recovered service is bit-identical to a
//!   never-crashed oracle serving that same committed prefix.
//!
//! The in-process matrix drives `Service` directly; the subprocess tests
//! spawn the real `cusha` binary and assert the crash exit code and the
//! restart behaviour over the surviving WAL file.

use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{fingerprint, Graph, Mutation, MutationBatch};
use cusha::serve::{
    parse_json, run_session, CrashPoint, CrashSpec, Json, RecoverySource, ServeConfig, Service,
    WalConfig,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn base_graph() -> Graph {
    rmat(&RmatConfig::graph500(7, 600, 7))
}

/// A fresh WAL path in the temp dir, with any leftover log/snapshot from
/// a previous run of this test removed.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cusha-walrec-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(cusha::serve::wal::snapshot_path(&path));
    path
}

/// The deterministic mutation plan every test replays: four batches that
/// insert (including a vertex-growing insert beyond the 128-vertex base)
/// and delete (an edge an earlier batch created).
fn plan() -> Vec<MutationBatch> {
    vec![
        MutationBatch::new().insert(1, 2, 7).insert(3, 4, 9),
        MutationBatch::new().insert(128, 0, 3).insert(0, 5, 2),
        MutationBatch::new().insert(2, 6, 4).delete(3, 4),
        MutationBatch::new().insert(5, 6, 1).insert(6, 7, 8),
    ]
}

/// Renders a batch as the JSON `mutate` wire op the plan's in-memory twin
/// round-trips through (inserts before deletes — the parse order).
fn mutate_line(batch: &MutationBatch) -> String {
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for op in &batch.ops {
        match *op {
            Mutation::Insert { src, dst, weight } => {
                inserts.push(format!("[{src},{dst},{weight}]"));
            }
            Mutation::Delete { src, dst } => deletes.push(format!("[{src},{dst}]")),
        }
    }
    let mut line = String::from("{\"op\":\"mutate\"");
    if !inserts.is_empty() {
        line.push_str(&format!(",\"insert\":[{}]", inserts.join(",")));
    }
    if !deletes.is_empty() {
        line.push_str(&format!(",\"delete\":[{}]", deletes.join(",")));
    }
    line.push_str("}\n");
    line
}

fn wal_cfg(path: &Path, crash: Option<CrashSpec>) -> ServeConfig {
    ServeConfig {
        wal: Some(WalConfig {
            path: path.to_path_buf(),
            snapshot_every: 0,
            crash,
        }),
        ..ServeConfig::default()
    }
}

/// Runs `script` and returns every id-carrying response as
/// `(op, status, checksum-or-empty)` for bit-exact comparison.
fn answers(svc: &mut Service, script: &str) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    run_session(svc, script.as_bytes(), &mut out).expect("session IO");
    String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("bad response line {l:?}: {e}")))
        .filter(|r| r.get("id").is_some())
        .map(|r| {
            let field = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("op"), field("status"), field("checksum"))
        })
        .collect()
}

#[test]
fn crash_matrix_recovers_exactly_the_committed_prefix() {
    // Crash at batch 3 of 4 under each injection point. Batches 1 and 2
    // always survive; batch 3 survives only when the crash lands after
    // its commit record.
    for (point, committed) in [
        (CrashPoint::MidRecord, 2usize),
        (CrashPoint::PreCommit, 2),
        (CrashPoint::PreApply, 3),
    ] {
        let wal = scratch(&format!("matrix-{}", point.label()));
        let spec = CrashSpec { point, batch: 3 };

        // The crashing run: feed all four batches; the injection kills the
        // service at batch 3's commit point, so nothing after it settles.
        let mut svc = Service::new(base_graph(), wal_cfg(&wal, Some(spec)))
            .unwrap_or_else(|e| panic!("{}: service start: {e}", point.label()));
        let mut script = String::new();
        for batch in &plan() {
            script.push_str(&mutate_line(batch));
        }
        script.push_str("flush\n");
        let acked = answers(&mut svc, &script);
        assert_eq!(svc.injected_crash(), Some(point), "{}", point.label());
        assert_eq!(
            acked.len(),
            2,
            "{}: only the two pre-crash batches may be acknowledged",
            point.label()
        );
        drop(svc);

        // From-scratch oracle: the committed prefix applied directly.
        let mut oracle_graph = base_graph();
        for batch in plan().iter().take(committed) {
            batch.apply(&mut oracle_graph).expect("oracle apply");
        }

        // Restart over the surviving log.
        let mut svc = Service::new(base_graph(), wal_cfg(&wal, None))
            .unwrap_or_else(|e| panic!("{}: recovery refused: {e}", point.label()));
        let rec = svc.recovery().expect("recovery stats");
        assert_eq!(rec.source, RecoverySource::BaseGraph, "{}", point.label());
        assert_eq!(
            rec.replayed_batches,
            committed as u64,
            "{}: replay must stop at the committed prefix",
            point.label()
        );
        assert_eq!(rec.epoch, committed as u64, "{}", point.label());
        match point {
            // A torn record leaves bytes to truncate; a complete batch
            // with no commit is discarded whole.
            CrashPoint::MidRecord => {
                assert!(rec.truncated_bytes > 0, "mid-record tail must be torn")
            }
            CrashPoint::PreCommit => assert_eq!(rec.discarded_uncommitted, 1),
            CrashPoint::PreApply => {
                assert_eq!(rec.truncated_bytes, 0);
                assert_eq!(rec.discarded_uncommitted, 0);
            }
        }
        assert_eq!(svc.epoch(), committed as u64);
        // The restart's metrics record the replay.
        let replayed = svc
            .metrics()
            .counter("serve_wal_replayed_batches_total", &[]);
        assert_eq!(replayed, Some(committed as u64), "{}", point.label());
        let epoch = svc.metrics().gauge("serve_epoch", &[]);
        assert_eq!(epoch, Some(committed as f64), "{}", point.label());
        assert_eq!(
            svc.graph_rev(),
            fingerprint(&oracle_graph),
            "{}: recovered graph_rev diverged from a from-scratch rebuild",
            point.label()
        );

        // Every query answer bit-identical to the never-crashed oracle.
        let queries = "bfs 0\nsssp 3\ncc\nreach 1 6\nflush\n";
        let recovered = answers(&mut svc, queries);
        let mut oracle_svc =
            Service::new(oracle_graph, ServeConfig::default()).expect("oracle service");
        let oracle = answers(&mut oracle_svc, queries);
        assert_eq!(recovered.len(), 4);
        assert_eq!(
            recovered,
            oracle,
            "{}: recovered answers diverged from the oracle",
            point.label()
        );
        drop(svc);

        // Recovery is idempotent: the first restart truncated the log to
        // the committed prefix, so a second restart finds nothing to
        // repair and lands on the same epoch and revision.
        let svc = Service::new(base_graph(), wal_cfg(&wal, None)).expect("second recovery");
        let rec2 = svc.recovery().expect("recovery stats");
        assert_eq!(rec2.replayed_batches, committed as u64);
        assert_eq!(rec2.truncated_bytes, 0, "{}", point.label());
        assert_eq!(rec2.discarded_uncommitted, 0, "{}", point.label());
        assert_eq!(rec2.rev, rec.rev, "{}", point.label());
    }
}

#[test]
fn recovery_across_snapshot_compaction_matches_the_oracle() {
    // With snapshot_every=2 the service compacts twice across the four
    // batches; a crash on the batch after a compaction must recover from
    // the snapshot (the WAL's base record no longer matches the base
    // graph) and still answer bit-identically.
    let wal = scratch("snapshot");
    let cfg = ServeConfig {
        wal: Some(WalConfig {
            path: wal.clone(),
            snapshot_every: 2,
            crash: Some(CrashSpec {
                point: CrashPoint::PreApply,
                batch: 3,
            }),
        }),
        ..ServeConfig::default()
    };
    let mut svc = Service::new(base_graph(), cfg).expect("service start");
    let mut script = String::new();
    for batch in &plan() {
        script.push_str(&mutate_line(batch));
    }
    answers(&mut svc, &script);
    assert_eq!(svc.injected_crash(), Some(CrashPoint::PreApply));
    drop(svc);

    let mut oracle_graph = base_graph();
    for batch in plan().iter().take(3) {
        batch.apply(&mut oracle_graph).expect("oracle apply");
    }

    let mut svc = Service::new(base_graph(), wal_cfg(&wal, None)).expect("recovery");
    let rec = svc.recovery().expect("recovery stats");
    assert_eq!(
        rec.source,
        RecoverySource::Snapshot,
        "post-compaction recovery must anchor on the snapshot"
    );
    assert_eq!(
        rec.replayed_batches, 1,
        "the snapshot holds batches 1-2; only batch 3 replays"
    );
    assert_eq!(svc.epoch(), 3);
    assert_eq!(svc.graph_rev(), fingerprint(&oracle_graph));
    let queries = "bfs 0\nsssp 3\nflush\n";
    let recovered = answers(&mut svc, queries);
    let mut oracle_svc =
        Service::new(oracle_graph, ServeConfig::default()).expect("oracle service");
    assert_eq!(recovered, answers(&mut oracle_svc, queries));
}

/// Spawns the real binary in serve mode over `wal`, writes `script` to
/// its stdin, and returns (exit code, stdout).
fn run_cusha_serve(wal: &Path, extra: &[&str], script: &str) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cusha"));
    cmd.args(["serve", "--rmat", "7:600", "--wal"])
        .arg(wal)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn cusha");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("wait cusha");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
    )
}

#[test]
fn crashed_binary_exits_9_and_restart_serves_the_committed_prefix() {
    let wal = scratch("subprocess");
    // REPL shorthand: each insert line is its own batch, so pre-apply@2
    // commits both but applies only the first before the kill.
    let (code, stdout) = run_cusha_serve(
        &wal,
        &["--crash-at", "pre-apply@2"],
        "insert 1 2 7\ninsert 3 4 9\nbfs 0\nflush\n",
    );
    assert_eq!(code, 9, "injected crash must exit 9, stdout:\n{stdout}");
    assert!(
        !stdout.contains("\"status\":\"shutdown\""),
        "a crashed process must not run its shutdown path"
    );
    // Only batch 1 was acknowledged; the bfs never settled.
    assert_eq!(stdout.matches("\"op\":\"mutate\"").count(), 1);
    assert!(!stdout.contains("\"op\":\"bfs\""));

    // Restart without injection: both committed batches replay, and the
    // service answers queries on the recovered epoch.
    let (code, stdout) = run_cusha_serve(&wal, &[], "stats\nbfs 0\nflush\n");
    assert_eq!(code, 0, "restart must succeed, stdout:\n{stdout}");
    let stats = stdout
        .lines()
        .find(|l| l.contains("\"status\":\"stats\""))
        .map(|l| parse_json(l).expect("stats JSON"))
        .expect("stats line");
    assert_eq!(stats.get("epoch").and_then(Json::as_u64), Some(2));
    let rev = fingerprint(
        &{
            let mut g = rmat(&RmatConfig::graph500(7, 600, 42));
            MutationBatch::new()
                .insert(1, 2, 7)
                .insert(3, 4, 9)
                .apply(&mut g)
                .map(|_| g)
        }
        .expect("oracle apply"),
    );
    assert_eq!(
        stats.get("graph_rev").and_then(Json::as_str),
        Some(format!("{rev:016x}")).as_deref(),
        "restarted binary must land on the from-scratch revision"
    );
    assert!(stdout.contains("\"op\":\"bfs\""));
    assert!(stdout.contains("\"status\":\"shutdown\""));
}

#[test]
fn mid_record_crash_in_binary_is_truncated_on_restart() {
    let wal = scratch("subprocess-torn");
    let (code, _) = run_cusha_serve(
        &wal,
        &["--crash-at", "mid-record@2"],
        "insert 1 2 7\ninsert 3 4 9\nflush\n",
    );
    assert_eq!(code, 9);
    let torn_len = std::fs::metadata(&wal).expect("wal exists").len();

    let (code, stdout) = run_cusha_serve(&wal, &[], "stats\nflush\n");
    assert_eq!(code, 0, "torn tail must not poison restart:\n{stdout}");
    let stats = stdout
        .lines()
        .find(|l| l.contains("\"status\":\"stats\""))
        .map(|l| parse_json(l).expect("stats JSON"))
        .expect("stats line");
    assert_eq!(
        stats.get("epoch").and_then(Json::as_u64),
        Some(1),
        "only the first batch was committed"
    );
    let healed_len = std::fs::metadata(&wal).expect("wal exists").len();
    assert!(
        healed_len < torn_len,
        "recovery must truncate the torn tail ({healed_len} vs {torn_len})"
    );
}
