//! Durable write-ahead log for live graph mutation.
//!
//! The service applies mutation batches to its in-memory graph; this module
//! makes those batches survive a crash. The protocol is the classic WAL
//! discipline:
//!
//! 1. append a `Batch` record and sync,
//! 2. append a `Commit` record and sync — **this is the commit point**,
//! 3. apply the batch in memory.
//!
//! A crash anywhere in that sequence is recoverable: on reopen,
//! [`Wal::open`] replays exactly the committed prefix. A record cut short
//! by the crash (a *torn tail*) is truncated away; a complete `Batch` with
//! no `Commit` behind it was never promised to the client and is discarded;
//! a complete record whose checksum does not match is **not** a crash
//! artifact but bit rot, and recovery refuses with [`WalError::Corrupt`]
//! rather than serve from a graph it cannot trust.
//!
//! File format: a 4-byte magic `CWAL`, then length-prefixed records
//! `[payload_len: u32 LE][kind: u8][payload][fnv1a: u64 LE]` where the
//! checksum covers the kind byte plus the payload. The first record is
//! always `Base { epoch, rev }` naming the graph revision the log starts
//! from; recovery matches that revision against the snapshot file (if any)
//! and the caller-supplied base graph, and replays on whichever matches.
//!
//! Compaction: every `snapshot_every` applied batches the current graph is
//! written to `<wal>.snap` (binary v3, temp-file + rename so the snapshot
//! is atomic), and the WAL is rewritten to a fresh `Base` record. A crash
//! between the snapshot rename and the WAL rewrite is benign: the old WAL's
//! base still matches the caller's base graph, and replay reproduces the
//! same revision the snapshot holds.
//!
//! Durability is modeled, not real: each sync point calls through to
//! [`File::sync_all`] *and* is counted so the service can charge
//! [`MODELED_FSYNC_S`] per sync to its modeled clock, keeping serve
//! latency accounting honest about what a commit costs.
//!
//! Crash injection: [`CrashSpec`] names a deterministic kill point
//! (`mid-record`, `pre-commit`, `pre-apply`) and a 1-based batch ordinal.
//! When [`Wal::commit_batch`] reaches that point it leaves the file byte-
//! for-byte as a real `SIGKILL` would — partial record synced, or batch
//! synced without commit, or both synced with no in-memory apply — and
//! returns [`WalError::InjectedCrash`] so the harness (or the `cusha`
//! binary, which exits with code 9) can restart and assert recovery.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cusha_graph::mutate::{fingerprint, Mutation, MutationBatch};
use cusha_graph::{io::Fnv1a, Graph};

/// Magic bytes opening every WAL file.
pub const MAGIC: &[u8; 4] = b"CWAL";

/// Modeled wall-clock cost of one fsync, in seconds. Charged to the
/// service's modeled clock per sync point so commit latency is visible in
/// serve telemetry.
pub const MODELED_FSYNC_S: f64 = 50e-6;

/// Upper bound on a single record's payload; anything larger is treated as
/// corruption rather than trusted for allocation.
const MAX_RECORD_PAYLOAD: u32 = 1 << 26;

const KIND_BATCH: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_BASE: u8 = 3;

const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// Where an injected crash kills the commit sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Mid-way through writing the `Batch` record: a torn tail.
    MidRecord,
    /// `Batch` fully written and synced, but no `Commit`: an uncommitted
    /// batch that recovery must discard.
    PreCommit,
    /// `Batch` and `Commit` both synced, but the in-memory apply never
    /// ran: recovery must replay this batch.
    PreApply,
}

impl CrashPoint {
    /// Stable CLI / log label.
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::MidRecord => "mid-record",
            CrashPoint::PreCommit => "pre-commit",
            CrashPoint::PreApply => "pre-apply",
        }
    }
}

/// A deterministic kill point: crash at `point` while committing the
/// `batch`-th batch (1-based) of this process's run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Where in the commit sequence to die.
    pub point: CrashPoint,
    /// Which commit call (1-based) triggers it.
    pub batch: u64,
}

impl CrashSpec {
    /// Parses the CLI form `<point>@<n>`, e.g. `pre-commit@2`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (point, batch) = s
            .split_once('@')
            .ok_or_else(|| format!("crash spec `{s}` is not of the form <point>@<n>"))?;
        let point = match point {
            "mid-record" => CrashPoint::MidRecord,
            "pre-commit" => CrashPoint::PreCommit,
            "pre-apply" => CrashPoint::PreApply,
            other => {
                return Err(format!(
                    "unknown crash point `{other}` (expected mid-record, pre-commit or pre-apply)"
                ))
            }
        };
        let batch: u64 = batch
            .parse()
            .map_err(|_| format!("crash batch ordinal `{batch}` is not a number"))?;
        if batch == 0 {
            return Err("crash batch ordinal is 1-based".into());
        }
        Ok(CrashSpec { point, batch })
    }
}

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A complete record failed its checksum, or the file structure is
    /// invalid: the log cannot be trusted and recovery refuses.
    Corrupt(String),
    /// The log's base revision matches neither the snapshot nor the
    /// caller-supplied base graph: replaying it would produce a graph we
    /// cannot anchor.
    Mismatch(String),
    /// A [`CrashSpec`] kill point fired; the file is exactly as a real
    /// crash would leave it.
    InjectedCrash(CrashPoint),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::Mismatch(m) => write!(f, "wal base mismatch: {m}"),
            WalError::InjectedCrash(p) => write!(f, "injected crash at {}", p.label()),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<cusha_graph::io::IoError> for WalError {
    fn from(e: cusha_graph::io::IoError) -> Self {
        match e {
            cusha_graph::io::IoError::Io(e) => WalError::Io(e),
            other => WalError::Corrupt(format!("snapshot: {other}")),
        }
    }
}

/// What the graph recovered by [`Wal::open`] was replayed on top of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverySource {
    /// No existing log: started fresh from the caller's graph.
    Fresh,
    /// Replayed on the caller-supplied base graph.
    BaseGraph,
    /// Replayed on the `<wal>.snap` snapshot.
    Snapshot,
}

impl RecoverySource {
    /// Stable log label.
    pub fn label(self) -> &'static str {
        match self {
            RecoverySource::Fresh => "fresh",
            RecoverySource::BaseGraph => "base-graph",
            RecoverySource::Snapshot => "snapshot",
        }
    }
}

/// What recovery found and did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Replay anchor.
    pub source: RecoverySource,
    /// Committed batches replayed onto the anchor graph.
    pub replayed_batches: u64,
    /// Bytes truncated off the tail (torn record and/or uncommitted batch).
    pub truncated_bytes: u64,
    /// Complete-but-uncommitted `Batch` records discarded (0 or 1).
    pub discarded_uncommitted: u64,
    /// Epoch after recovery.
    pub epoch: u64,
    /// Graph revision ([`fingerprint`]) after recovery.
    pub rev: u64,
}

/// Durability counters, cumulative over this `Wal`'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (including partial records from injected crashes).
    pub records_appended: u64,
    /// Commit points reached.
    pub commits: u64,
    /// Sync (modeled fsync) calls.
    pub syncs: u64,
    /// Snapshot compactions completed.
    pub snapshots: u64,
}

/// The open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    snap_path: PathBuf,
    snapshot_every: u32,
    crash: Option<CrashSpec>,
    batches_since_snapshot: u32,
    commit_calls: u64,
    stats: WalStats,
}

/// The snapshot path paired with a WAL path: `<wal>.snap`.
pub fn snapshot_path(wal: &Path) -> PathBuf {
    let mut os = wal.as_os_str().to_os_string();
    os.push(".snap");
    PathBuf::from(os)
}

fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + 1 + payload.len() + 8);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.push(kind);
    rec.extend_from_slice(payload);
    let mut sum = Fnv1a::default();
    sum.update(&[kind]);
    sum.update(payload);
    rec.extend_from_slice(&sum.finish().to_le_bytes());
    rec
}

fn encode_batch_payload(epoch: u64, batch: &MutationBatch) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + 4 + 13 * batch.ops.len());
    p.extend_from_slice(&epoch.to_le_bytes());
    p.extend_from_slice(&(batch.ops.len() as u32).to_le_bytes());
    for op in &batch.ops {
        match *op {
            Mutation::Insert { src, dst, weight } => {
                p.push(TAG_INSERT);
                p.extend_from_slice(&src.to_le_bytes());
                p.extend_from_slice(&dst.to_le_bytes());
                p.extend_from_slice(&weight.to_le_bytes());
            }
            Mutation::Delete { src, dst } => {
                p.push(TAG_DELETE);
                p.extend_from_slice(&src.to_le_bytes());
                p.extend_from_slice(&dst.to_le_bytes());
                p.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }
    p
}

fn decode_batch_payload(payload: &[u8]) -> Result<(u64, MutationBatch), WalError> {
    let corrupt = |m: &str| WalError::Corrupt(format!("batch record: {m}"));
    if payload.len() < 12 {
        return Err(corrupt("payload shorter than its header"));
    }
    let epoch = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let num_ops = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    if payload.len() != 12 + 13 * num_ops {
        return Err(corrupt("payload length does not match its op count"));
    }
    let mut batch = MutationBatch::new();
    for i in 0..num_ops {
        let at = 12 + 13 * i;
        let tag = payload[at];
        let src = u32::from_le_bytes(payload[at + 1..at + 5].try_into().unwrap());
        let dst = u32::from_le_bytes(payload[at + 5..at + 9].try_into().unwrap());
        let weight = u32::from_le_bytes(payload[at + 9..at + 13].try_into().unwrap());
        batch = match tag {
            TAG_INSERT => batch.insert(src, dst, weight),
            TAG_DELETE => batch.delete(src, dst),
            other => return Err(corrupt(&format!("unknown op tag {other}"))),
        };
    }
    Ok((epoch, batch))
}

/// One complete record read back from the file.
struct RawRecord {
    kind: u8,
    payload: Vec<u8>,
    /// File offset one past this record.
    end: u64,
}

/// What a read at a record boundary found: a complete record, a clean
/// EOF, or a torn (short) tail.
enum ReadOutcome {
    Record(RawRecord),
    Eof,
    Torn,
}

fn read_record(r: &mut File, offset: u64) -> Result<ReadOutcome, WalError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_short(r, &mut len_buf)? {
        Short::Clean => return Ok(ReadOutcome::Eof),
        Short::Torn => return Ok(ReadOutcome::Torn),
        Short::Full => {}
    }
    let payload_len = u32::from_le_bytes(len_buf);
    if payload_len > MAX_RECORD_PAYLOAD {
        return Err(WalError::Corrupt(format!(
            "record at offset {offset} claims a {payload_len}-byte payload"
        )));
    }
    let mut body = vec![0u8; 1 + payload_len as usize + 8];
    match read_exact_or_short(r, &mut body)? {
        Short::Full => {}
        // A length prefix with a missing body is a torn write either way.
        Short::Clean | Short::Torn => return Ok(ReadOutcome::Torn),
    }
    let kind = body[0];
    let (checked, sum_bytes) = body.split_at(1 + payload_len as usize);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if Fnv1a::of(checked) != stored {
        return Err(WalError::Corrupt(format!(
            "record at offset {offset} fails its checksum"
        )));
    }
    let end = offset + 4 + 1 + payload_len as u64 + 8;
    Ok(ReadOutcome::Record(RawRecord {
        kind,
        payload: checked[1..].to_vec(),
        end,
    }))
}

enum Short {
    Full,
    /// Zero bytes read: clean boundary.
    Clean,
    /// Some but not all bytes read: torn.
    Torn,
}

fn read_exact_or_short(r: &mut File, buf: &mut [u8]) -> Result<Short, WalError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(if filled == 0 {
                Short::Clean
            } else {
                Short::Torn
            });
        }
        filled += n;
    }
    Ok(Short::Full)
}

impl Wal {
    /// Opens (or creates) the log at `path` and recovers the graph it
    /// describes.
    ///
    /// * No usable log on disk: writes a fresh `Base` anchored on
    ///   `base_graph` and returns it unchanged.
    /// * Existing log: anchors on the snapshot if its revision matches the
    ///   log's base (else on `base_graph`, else [`WalError::Mismatch`]),
    ///   replays every committed batch, truncates torn tails and
    ///   uncommitted batches, and refuses on checksum corruption.
    ///
    /// Returns the log handle, the recovered graph, the recovered epoch,
    /// and what recovery did. After `open` the on-disk log holds exactly
    /// the committed prefix.
    pub fn open(
        path: &Path,
        base_graph: &Graph,
        snapshot_every: u32,
        crash: Option<CrashSpec>,
    ) -> Result<(Wal, Graph, u64, RecoveryStats), WalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            snap_path: snapshot_path(path),
            snapshot_every,
            crash,
            batches_since_snapshot: 0,
            commit_calls: 0,
            stats: WalStats::default(),
        };
        let mut recovered = RecoveryStats {
            source: RecoverySource::Fresh,
            replayed_batches: 0,
            truncated_bytes: file_len,
            discarded_uncommitted: 0,
            epoch: 0,
            rev: 0,
        };
        let graph = if file_len < (MAGIC.len() + 4 + 1 + 16 + 8) as u64 {
            // Empty, or torn during initial creation before the base record
            // ever synced: nothing was committed, start fresh.
            recovered.rev = fingerprint(base_graph);
            wal.write_base(0, recovered.rev)?;
            base_graph.clone()
        } else {
            wal.recover(base_graph, file_len, &mut recovered)?
        };
        Ok((wal, graph, recovered.epoch, recovered))
    }

    /// Recovers an existing log of `file_len` bytes: anchors, replays the
    /// committed prefix, truncates what follows it, and records all of it
    /// in `rs`.
    fn recover(
        &mut self,
        base_graph: &Graph,
        file_len: u64,
        rs: &mut RecoveryStats,
    ) -> Result<Graph, WalError> {
        let mut magic = [0u8; 4];
        self.file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(WalError::Corrupt(format!(
                "bad magic {magic:02x?} in {}",
                self.path.display()
            )));
        }

        // Base record first.
        let base = match read_record(&mut self.file, MAGIC.len() as u64)? {
            ReadOutcome::Record(r) if r.kind == KIND_BASE && r.payload.len() == 16 => r,
            ReadOutcome::Record(_) => {
                return Err(WalError::Corrupt(
                    "first record is not a base record".into(),
                ))
            }
            // Guarded against by `open`'s minimum-length check.
            ReadOutcome::Eof | ReadOutcome::Torn => {
                return Err(WalError::Corrupt("base record torn".into()))
            }
        };
        rs.epoch = u64::from_le_bytes(base.payload[0..8].try_into().unwrap());
        let base_rev = u64::from_le_bytes(base.payload[8..16].try_into().unwrap());

        // Pick the replay anchor whose content matches the base revision.
        // Snapshot first: it is the compacted committed state and may be
        // ahead of the graph the caller loaded.
        let snap = match self.snap_path.exists() {
            true => Some(cusha_graph::io::read_binary(File::open(&self.snap_path)?)?),
            false => None,
        };
        let mismatch =
            |why: &str| WalError::Mismatch(format!("log base rev {base_rev:016x} {why}"));
        let mut graph;
        (graph, rs.source) = match snap {
            Some(snap) if fingerprint(&snap) == base_rev => (snap, RecoverySource::Snapshot),
            _ if fingerprint(base_graph) == base_rev => {
                (base_graph.clone(), RecoverySource::BaseGraph)
            }
            Some(_) => {
                return Err(mismatch(
                    "matches neither the snapshot nor the supplied graph",
                ))
            }
            None => {
                return Err(mismatch(
                    "does not match the supplied graph (no snapshot found)",
                ))
            }
        };

        // Walk Batch/Commit pairs.
        let mut offset = base.end;
        let mut last_committed_end = offset;
        let mut pending: Option<(u64, MutationBatch)> = None;
        while let ReadOutcome::Record(rec) = read_record(&mut self.file, offset)? {
            match rec.kind {
                KIND_BATCH => {
                    if pending.is_some() {
                        return Err(WalError::Corrupt(format!(
                            "batch record at offset {offset} follows an uncommitted batch"
                        )));
                    }
                    pending = Some(decode_batch_payload(&rec.payload)?);
                }
                KIND_COMMIT => {
                    if rec.payload.len() != 8 {
                        return Err(WalError::Corrupt(format!(
                            "commit record at offset {offset} has a malformed payload"
                        )));
                    }
                    let commit_epoch = u64::from_le_bytes(rec.payload[0..8].try_into().unwrap());
                    let (batch_epoch, batch) = pending.take().ok_or_else(|| {
                        WalError::Corrupt(format!(
                            "commit record at offset {offset} has no preceding batch"
                        ))
                    })?;
                    if commit_epoch != batch_epoch || commit_epoch != rs.epoch + 1 {
                        return Err(WalError::Corrupt(format!(
                            "commit record at offset {offset} commits epoch {commit_epoch} \
                             (batch says {batch_epoch}, expected {})",
                            rs.epoch + 1
                        )));
                    }
                    batch.apply(&mut graph).map_err(|e| {
                        WalError::Corrupt(format!(
                            "committed batch for epoch {commit_epoch} does not apply: {e}"
                        ))
                    })?;
                    rs.epoch = commit_epoch;
                    rs.replayed_batches += 1;
                    last_committed_end = rec.end;
                }
                KIND_BASE => {
                    return Err(WalError::Corrupt(format!(
                        "unexpected base record at offset {offset}"
                    )))
                }
                other => {
                    return Err(WalError::Corrupt(format!(
                        "unknown record kind {other} at offset {offset}"
                    )))
                }
            }
            offset = rec.end;
        }

        // Leave the file holding exactly the committed prefix.
        rs.truncated_bytes = file_len - last_committed_end;
        if rs.truncated_bytes > 0 {
            self.file.set_len(last_committed_end)?;
            self.file.sync_all()?;
            self.stats.syncs += 1;
        }
        self.file.seek(SeekFrom::End(0))?;
        rs.discarded_uncommitted = pending.is_some() as u64;
        rs.rev = fingerprint(&graph);
        Ok(graph)
    }

    /// Writes `bytes` at the end of the log, syncs, and counts one record
    /// and one sync: the one way a record (or a crash's torn half of one)
    /// reaches the disk.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.file.write_all(bytes)?;
        self.file.sync_all()?;
        self.stats.records_appended += 1;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Rewrites the log as the magic and one `Base { epoch, rev }` record:
    /// a fresh log, and the log a compaction leaves.
    fn write_base(&mut self, epoch: u64, rev: u64) -> Result<(), WalError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(MAGIC)?;
        let payload = [epoch.to_le_bytes(), rev.to_le_bytes()].concat();
        self.append(&encode_record(KIND_BASE, &payload))
    }

    /// Durably commits `batch` as the transition into `epoch`.
    ///
    /// On `Ok` the batch is on disk past its commit point and the caller
    /// must apply it in memory (then call [`Wal::note_applied`]). Honors
    /// the [`CrashSpec`] given at open: when the kill point fires, the
    /// file is left exactly as a real crash would leave it and
    /// [`WalError::InjectedCrash`] is returned.
    pub fn commit_batch(&mut self, epoch: u64, batch: &MutationBatch) -> Result<(), WalError> {
        self.commit_calls += 1;
        let crash_here = self
            .crash
            .filter(|c| c.batch == self.commit_calls)
            .map(|c| c.point);

        let record = encode_record(KIND_BATCH, &encode_batch_payload(epoch, batch));
        // A mid-record crash dies halfway through the batch record: the
        // length prefix and part of the body hit the disk, the checksum
        // never does.
        let torn = crash_here == Some(CrashPoint::MidRecord);
        self.append(&record[..if torn { record.len() / 2 } else { record.len() }])?;
        if !torn && crash_here != Some(CrashPoint::PreCommit) {
            // The commit point.
            self.append(&encode_record(KIND_COMMIT, &epoch.to_le_bytes()))?;
            self.stats.commits += 1;
        }
        crash_here.map_or(Ok(()), |p| Err(WalError::InjectedCrash(p)))
    }

    /// Tells the log a committed batch was applied in memory, giving it a
    /// chance to compact: every `snapshot_every` applied batches the
    /// current `graph` is snapshotted to `<wal>.snap` (temp-file + rename)
    /// and the log is rewritten to a single `Base { epoch, rev }` record.
    /// Returns whether a compaction ran.
    pub fn note_applied(&mut self, graph: &Graph, epoch: u64) -> Result<bool, WalError> {
        self.batches_since_snapshot += 1;
        if self.snapshot_every == 0 || self.batches_since_snapshot < self.snapshot_every {
            return Ok(false);
        }

        let mut tmp = self.snap_path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let f = File::create(&tmp)?;
            cusha_graph::io::write_binary(graph, &f)?;
            f.sync_all()?;
            self.stats.syncs += 1;
        }
        std::fs::rename(&tmp, &self.snap_path)?;
        self.write_base(epoch, fingerprint(graph))?;
        self.stats.snapshots += 1;
        self.batches_since_snapshot = 0;
        Ok(true)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durability counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Modeled seconds spent in fsync so far ([`MODELED_FSYNC_S`] per
    /// sync point).
    pub fn modeled_sync_seconds(&self) -> f64 {
        self.stats.syncs as f64 * MODELED_FSYNC_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_graph::Edge;

    fn sample() -> Graph {
        Graph::new(4, vec![Edge::new(0, 1, 5), Edge::new(1, 2, 3)])
    }

    fn scratch(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("cusha-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(snapshot_path(&p));
        p
    }

    fn batch_n(n: u32) -> MutationBatch {
        MutationBatch::new().insert(n, 0, n)
    }

    /// Commits and applies `count` batches starting from (graph, epoch).
    fn drive(wal: &mut Wal, graph: &mut Graph, epoch: &mut u64, count: u32) {
        for i in 0..count {
            let b = batch_n(10 + i);
            wal.commit_batch(*epoch + 1, &b).unwrap();
            b.apply(graph).unwrap();
            *epoch += 1;
            wal.note_applied(graph, *epoch).unwrap();
        }
    }

    #[test]
    fn fresh_open_then_reopen_roundtrips() {
        let p = scratch("roundtrip");
        let base = sample();
        let (mut wal, mut g, mut epoch, rs) = Wal::open(&p, &base, 0, None).unwrap();
        assert_eq!(rs.source, RecoverySource::Fresh);
        drive(&mut wal, &mut g, &mut epoch, 3);
        drop(wal);

        let (_wal, g2, epoch2, rs2) = Wal::open(&p, &base, 0, None).unwrap();
        assert_eq!(rs2.source, RecoverySource::BaseGraph);
        assert_eq!(rs2.replayed_batches, 3);
        assert_eq!(rs2.truncated_bytes, 0);
        assert_eq!(epoch2, 3);
        assert_eq!(epoch2, epoch);
        assert_eq!(fingerprint(&g2), fingerprint(&g));
    }

    #[test]
    fn torn_tail_is_truncated() {
        let p = scratch("torn");
        let base = sample();
        let (mut wal, mut g, mut epoch, _) = Wal::open(&p, &base, 0, None).unwrap();
        drive(&mut wal, &mut g, &mut epoch, 2);
        drop(wal);

        // Shear a few bytes off the tail, as a crash mid-write would.
        let len = std::fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (_wal, g2, epoch2, rs) = Wal::open(&p, &base, 0, None).unwrap();
        assert_eq!(epoch2, 1, "the torn second commit must not replay");
        assert_eq!(rs.replayed_batches, 1);
        assert!(rs.truncated_bytes > 0);
        let mut expect = base.clone();
        batch_n(10).apply(&mut expect).unwrap();
        assert_eq!(fingerprint(&g2), fingerprint(&expect));
        // Post-recovery the file holds exactly the committed prefix.
        let (_wal, _g3, epoch3, rs3) = Wal::open(&p, &base, 0, None).unwrap();
        assert_eq!(epoch3, 1);
        assert_eq!(rs3.truncated_bytes, 0);
    }

    #[test]
    fn mid_log_checksum_corruption_refuses() {
        let p = scratch("bitrot");
        let base = sample();
        let (mut wal, mut g, mut epoch, _) = Wal::open(&p, &base, 0, None).unwrap();
        drive(&mut wal, &mut g, &mut epoch, 2);
        drop(wal);

        // Flip one bit inside the *first* batch record's payload: a
        // complete record that no longer matches its checksum.
        let mut bytes = std::fs::read(&p).unwrap();
        let at = MAGIC.len() + 4 + 1 + 16 + 8 + 4 + 1 + 3; // into batch #1's payload
        bytes[at] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();

        let err = Wal::open(&p, &base, 0, None).unwrap_err();
        assert!(matches!(err, WalError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn uncommitted_batch_is_discarded() {
        let p = scratch("uncommitted");
        let base = sample();
        let crash = CrashSpec {
            point: CrashPoint::PreCommit,
            batch: 2,
        };
        let (mut wal, mut g, mut epoch, _) = Wal::open(&p, &base, 0, Some(crash)).unwrap();
        drive(&mut wal, &mut g, &mut epoch, 1);
        let err = wal.commit_batch(epoch + 1, &batch_n(99)).unwrap_err();
        assert!(matches!(
            err,
            WalError::InjectedCrash(CrashPoint::PreCommit)
        ));
        drop(wal);

        let (_wal, g2, epoch2, rs) = Wal::open(&p, &base, 0, None).unwrap();
        assert_eq!(epoch2, 1);
        assert_eq!(rs.discarded_uncommitted, 1);
        assert!(rs.truncated_bytes > 0);
        let mut expect = base.clone();
        batch_n(10).apply(&mut expect).unwrap();
        assert_eq!(fingerprint(&g2), fingerprint(&expect));
    }

    #[test]
    fn committed_pre_apply_batch_is_replayed() {
        let p = scratch("preapply");
        let base = sample();
        let crash = CrashSpec {
            point: CrashPoint::PreApply,
            batch: 1,
        };
        let (mut wal, _g, epoch, _) = Wal::open(&p, &base, 0, Some(crash)).unwrap();
        let err = wal.commit_batch(epoch + 1, &batch_n(7)).unwrap_err();
        assert!(matches!(err, WalError::InjectedCrash(CrashPoint::PreApply)));
        drop(wal);

        let (_wal, g2, epoch2, rs) = Wal::open(&p, &base, 0, None).unwrap();
        assert_eq!(
            epoch2, 1,
            "committed batch must replay even if never applied"
        );
        assert_eq!(rs.replayed_batches, 1);
        let mut expect = base.clone();
        batch_n(7).apply(&mut expect).unwrap();
        assert_eq!(fingerprint(&g2), fingerprint(&expect));
    }

    #[test]
    fn mid_record_crash_leaves_recoverable_torn_tail() {
        let p = scratch("midrecord");
        let base = sample();
        let crash = CrashSpec {
            point: CrashPoint::MidRecord,
            batch: 2,
        };
        let (mut wal, mut g, mut epoch, _) = Wal::open(&p, &base, 0, Some(crash)).unwrap();
        drive(&mut wal, &mut g, &mut epoch, 1);
        let err = wal.commit_batch(epoch + 1, &batch_n(50)).unwrap_err();
        assert!(matches!(
            err,
            WalError::InjectedCrash(CrashPoint::MidRecord)
        ));
        drop(wal);

        let (_wal, g2, epoch2, rs) = Wal::open(&p, &base, 0, None).unwrap();
        assert_eq!(epoch2, 1);
        assert!(rs.truncated_bytes > 0);
        assert_eq!(rs.discarded_uncommitted, 0);
        let mut expect = base.clone();
        batch_n(10).apply(&mut expect).unwrap();
        assert_eq!(fingerprint(&g2), fingerprint(&expect));
    }

    #[test]
    fn snapshot_compaction_recovers_without_base_graph_contents() {
        let p = scratch("snapshot");
        let base = sample();
        let (mut wal, mut g, mut epoch, _) = Wal::open(&p, &base, 2, None).unwrap();
        drive(&mut wal, &mut g, &mut epoch, 5); // compacts at 2 and 4
        assert_eq!(wal.stats().snapshots, 2);
        assert!(snapshot_path(&p).exists());
        drop(wal);

        // Recovery anchors on the snapshot: the caller's stale base graph
        // no longer matches the compacted base revision, and that is fine.
        let (_wal, g2, epoch2, rs) = Wal::open(&p, &base, 2, None).unwrap();
        assert_eq!(rs.source, RecoverySource::Snapshot);
        assert_eq!(
            rs.replayed_batches, 1,
            "only the post-compaction batch replays"
        );
        assert_eq!(epoch2, 5);
        assert_eq!(fingerprint(&g2), fingerprint(&g));
    }

    #[test]
    fn base_mismatch_refuses() {
        let p = scratch("mismatch");
        let base = sample();
        let (mut wal, mut g, mut epoch, _) = Wal::open(&p, &base, 0, None).unwrap();
        drive(&mut wal, &mut g, &mut epoch, 1);
        drop(wal);

        let other = Graph::new(3, vec![Edge::new(0, 2, 1)]);
        let err = Wal::open(&p, &other, 0, None).unwrap_err();
        assert!(matches!(err, WalError::Mismatch(_)), "got {err}");
    }

    /// A committed batch `validate` refuses (vertex id `u32::MAX`, which no
    /// 32-bit vertex count holds) is a log recovery cannot trust: `Corrupt`,
    /// not a panic in the replay's `apply`.
    #[test]
    fn committed_batch_with_the_largest_vertex_id_is_corrupt() {
        let p = scratch("idmax");
        let base = sample();
        let (mut wal, _g, epoch, _) = Wal::open(&p, &base, 0, None).unwrap();
        let batch = MutationBatch::new().insert(u32::MAX, 0, 1);
        wal.commit_batch(epoch + 1, &batch).unwrap();
        drop(wal);

        let err = Wal::open(&p, &base, 0, None).unwrap_err();
        assert!(matches!(err, WalError::Corrupt(_)), "got {err}");
        assert!(err.to_string().contains("does not apply"), "got {err}");
    }

    #[test]
    fn crash_spec_parses() {
        assert_eq!(
            CrashSpec::parse("pre-commit@2"),
            Ok(CrashSpec {
                point: CrashPoint::PreCommit,
                batch: 2
            })
        );
        assert_eq!(
            CrashSpec::parse("mid-record@1").unwrap().point,
            CrashPoint::MidRecord
        );
        assert_eq!(
            CrashSpec::parse("pre-apply@9").unwrap().point,
            CrashPoint::PreApply
        );
        assert!(CrashSpec::parse("pre-commit").is_err());
        assert!(CrashSpec::parse("sideways@1").is_err());
        assert!(CrashSpec::parse("pre-commit@0").is_err());
        assert!(CrashSpec::parse("pre-commit@x").is_err());
    }

    #[test]
    fn sync_accounting_is_charged() {
        let p = scratch("syncs");
        let base = sample();
        let (mut wal, mut g, mut epoch, _) = Wal::open(&p, &base, 0, None).unwrap();
        let before = wal.stats().syncs;
        drive(&mut wal, &mut g, &mut epoch, 1);
        // One sync for the batch record, one for the commit point.
        assert_eq!(wal.stats().syncs, before + 2);
        assert!(wal.modeled_sync_seconds() > 0.0);
        assert_eq!(wal.stats().commits, 1);
    }
}
