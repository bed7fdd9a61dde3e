//! The WAL's on-disk bytes, pinned.
//!
//! `wal_recovery.rs` and the `wal.rs` unit tests check what recovery
//! rebuilds (graphs, epochs, counters); this test checks what the log
//! *writes*. One log is driven through a fresh open over a torn creation,
//! three commits, a compaction, a `mid-record` crash, a `pre-commit` crash,
//! a `pre-apply` crash and the reopen after each crash. After every step
//! the log's length and FNV-1a digest, the snapshot's, and the `WalStats` /
//! `RecoveryStats` are compared with the values below. A change to the
//! record format, to a sync point or to a crash point moves a line here.

use cusha::graph::io::Fnv1a;
use cusha::graph::{Edge, Graph, MutationBatch};
use cusha::serve::wal::snapshot_path;
use cusha::serve::{CrashPoint, CrashSpec, RecoveryStats, Wal, WalError};
use std::path::Path;

fn base() -> Graph {
    Graph::new(
        6,
        vec![
            Edge::new(0, 1, 5),
            Edge::new(1, 2, 3),
            Edge::new(2, 3, 1),
            Edge::new(4, 5, 9),
        ],
    )
}

fn batch(n: u32) -> MutationBatch {
    MutationBatch::new()
        .insert(n, n + 1, n)
        .delete(0, 1)
        .insert(0, 1, n)
}

/// `<len> <digest>` of a file, or `-` when it does not exist.
fn file_pin(path: &Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => format!("{} {:016x}", bytes.len(), Fnv1a::of(&bytes)),
        Err(_) => "-".into(),
    }
}

fn pin(
    out: &mut Vec<String>,
    step: &str,
    path: &Path,
    wal: &Wal,
    recovery: Option<&RecoveryStats>,
) {
    out.push(format!(
        "{step}: log {} snap {} {:?}",
        file_pin(path),
        file_pin(&snapshot_path(path)),
        wal.stats()
    ));
    if let Some(rs) = recovery {
        out.push(format!("{step}: {rs:?}"));
    }
}

/// Commits, applies and notes one batch; returns whether it compacted.
fn commit(wal: &mut Wal, graph: &mut Graph, epoch: &mut u64, n: u32) -> bool {
    let b = batch(n);
    wal.commit_batch(*epoch + 1, &b).unwrap();
    b.apply(graph).unwrap();
    *epoch += 1;
    wal.note_applied(graph, *epoch).unwrap()
}

/// Opens with `crash` armed on the first commit, commits until it fires,
/// pins the log it leaves, then reopens and pins the truncation.
fn crash_and_reopen(out: &mut Vec<String>, path: &Path, g: &Graph, point: CrashPoint) {
    let crash = CrashSpec { point, batch: 1 };
    let (mut wal, _g, epoch, _) = Wal::open(path, g, 0, Some(crash)).unwrap();
    let err = wal.commit_batch(epoch + 1, &batch(40)).unwrap_err();
    assert!(
        matches!(err, WalError::InjectedCrash(p) if p == point),
        "got {err}"
    );
    pin(out, &format!("{} crash", point.label()), path, &wal, None);
    drop(wal);
    let (wal, _g, _epoch, rs) = Wal::open(path, g, 0, None).unwrap();
    pin(
        out,
        &format!("{} reopen", point.label()),
        path,
        &wal,
        Some(&rs),
    );
}

#[test]
fn wal_bytes_stay_pinned() {
    let path = std::env::temp_dir().join(format!("cusha-walbytes-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(snapshot_path(&path));
    let g0 = base();
    let mut out = Vec::new();

    // A log torn before its base record synced: a fresh start over it.
    std::fs::write(&path, b"CWAL\x15\0\0").unwrap();
    let (mut wal, mut g, mut epoch, rs) = Wal::open(&path, &g0, 0, None).unwrap();
    pin(&mut out, "fresh", &path, &wal, Some(&rs));
    for n in 1..=3 {
        assert!(!commit(&mut wal, &mut g, &mut epoch, n));
    }
    pin(&mut out, "three commits", &path, &wal, None);
    drop(wal);

    let (mut wal, mut g, mut epoch, rs) = Wal::open(&path, &g0, 2, None).unwrap();
    pin(&mut out, "reopen", &path, &wal, Some(&rs));
    assert!(!commit(&mut wal, &mut g, &mut epoch, 4));
    assert!(commit(&mut wal, &mut g, &mut epoch, 5));
    pin(&mut out, "compaction", &path, &wal, None);
    drop(wal);

    for point in [
        CrashPoint::MidRecord,
        CrashPoint::PreCommit,
        CrashPoint::PreApply,
    ] {
        crash_and_reopen(&mut out, &path, &g0, point);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(snapshot_path(&path));

    let got = out.join("\n");
    let want = PINNED.trim();
    if got != want {
        panic!("WAL bytes moved.\n--- got\n{got}\n--- want\n{want}");
    }
}

/// Recorded on the log format and sync points of the commit that added
/// this test.
const PINNED: &str = "
fresh: log 33 29acb2ef3a134654 snap - WalStats { records_appended: 1, commits: 0, syncs: 1, snapshots: 0 }
fresh: RecoveryStats { source: Fresh, replayed_batches: 0, truncated_bytes: 7, discarded_uncommitted: 0, epoch: 0, rev: 10750366484928447590 }
three commits: log 288 379fa880e6416742 snap - WalStats { records_appended: 7, commits: 3, syncs: 7, snapshots: 0 }
reopen: log 288 379fa880e6416742 snap - WalStats { records_appended: 0, commits: 0, syncs: 0, snapshots: 0 }
reopen: RecoveryStats { source: BaseGraph, replayed_batches: 3, truncated_bytes: 0, discarded_uncommitted: 0, epoch: 3, rev: 6870820284657860297 }
compaction: log 33 2eab4c5242c832b6 snap 140 110c61d2034257b2 WalStats { records_appended: 5, commits: 2, syncs: 6, snapshots: 1 }
mid-record crash: log 65 6402ce030cddcf0b snap 140 110c61d2034257b2 WalStats { records_appended: 1, commits: 0, syncs: 1, snapshots: 0 }
mid-record reopen: log 33 2eab4c5242c832b6 snap 140 110c61d2034257b2 WalStats { records_appended: 0, commits: 0, syncs: 1, snapshots: 0 }
mid-record reopen: RecoveryStats { source: Snapshot, replayed_batches: 0, truncated_bytes: 32, discarded_uncommitted: 0, epoch: 5, rev: 17221555251614444664 }
pre-commit crash: log 97 5f2eba01d2bb6b1b snap 140 110c61d2034257b2 WalStats { records_appended: 1, commits: 0, syncs: 1, snapshots: 0 }
pre-commit reopen: log 33 2eab4c5242c832b6 snap 140 110c61d2034257b2 WalStats { records_appended: 0, commits: 0, syncs: 1, snapshots: 0 }
pre-commit reopen: RecoveryStats { source: Snapshot, replayed_batches: 0, truncated_bytes: 64, discarded_uncommitted: 1, epoch: 5, rev: 17221555251614444664 }
pre-apply crash: log 118 f5d1c8da6a747a63 snap 140 110c61d2034257b2 WalStats { records_appended: 2, commits: 1, syncs: 2, snapshots: 0 }
pre-apply reopen: log 118 f5d1c8da6a747a63 snap 140 110c61d2034257b2 WalStats { records_appended: 0, commits: 0, syncs: 0, snapshots: 0 }
pre-apply reopen: RecoveryStats { source: Snapshot, replayed_batches: 1, truncated_bytes: 0, discarded_uncommitted: 0, epoch: 6, rev: 14240580846086190321 }
";
