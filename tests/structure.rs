//! Structural guards, run where the work happens (tier-1) instead of as bash
//! in CI: one table of what the tree may contain, and the line ceilings.
//! "Code" is a file's lines above its first `#[cfg(test)]` (the ceilings'
//! rule); the table also skips comment lines.

use std::path::{Path, PathBuf};
use std::{fs, ops::RangeInclusive};

const CORE: &str = "crates/core/src/**";
const MULTI: &str = "crates/core/src/multi.rs";
const LOOPS: &str =
    "crates/core/src/engine.rs crates/core/src/streaming.rs crates/core/src/multi.rs";
const VWC: &str = "crates/baselines/src/vwc.rs";

/// `(files, patterns, occurrences allowed in code, why)`. Files are paths or
/// `dir/**` (every `.rs` below), space-separated, `!name.rs` excluding one;
/// patterns are literal alternatives separated by `|`.
#[rustfmt::skip] // a table: one row per line
const ROWS: &[(&str, &str, RangeInclusive<usize>, &str)] = &[
    // One of each shared engine piece (ROADMAP aim 2).
    (CORE, "fn entry_bytes", 0..=1, "one entry-size model"),
    (CORE, "fn with_copy_retries", 0..=1, "one copy-retry loop"),
    (CORE, "fn fingerprint", 0..=0, "the watchdog digest is integrity::checksum"),
    (CORE, "b.phase(\"gather\")", 0..=1, "one four-stage kernel body"),
    // No sort in the block ops, no memo table, no per-vertex replay key.
    ("crates/simt/src/block.rs", "sort_unstable", 0..=0, "the block ops call the bitset analysis"),
    ("crates/**", "MEMO_SLOTS|pack_coalesce_key|pack_bank_key|SITE_VWC_WARP", 0..=0, "deleted memo-table and replay-key names"),
    // Safe simulator, per-device replay tables, one scope per stage.
    ("crates/simt/src/**", "zeroed_table|Zeroable|with_share|in_fleet|unsafe", 0..=0, "no unsafe, no fixed-size or fleet-shared replay table"),
    ("crates/core/src/kernel.rs", "warp_scope(", 0..=4, "one scope per stage (stage 4 once per representation), not per chunk"),
    // VWC accounts once per block-stage through the one Block::accounted.
    (VWC, "accounted(", 0..=4, "sisd, sweep, reduce, deferred: per block-stage, not per warp"),
    (VWC, "warp_scope(", 0..=0, "scopes go through Block::accounted"),
    ("crates/**", "fn accounted(|fn accounted<", 1..=1, "Block::accounted is the one such helper"),
    ("crates/simt/src/replay.rs", "col: [u32; WARP]", 0..=0, "a replay slot stores a fold of the column, not the column"),
    // One schedule, one ladder (DESIGN 4.9, 4.8).
    (MULTI, "thread::|oracle", 0..=0, "the fleet runs its devices in order on the calling thread"),
    ("crates/obs/src/trace.rs", "fn fork", 0..=0, "the tracer has no fork to merge back"),
    ("crates/core/src/** !integrity.rs !middleware.rs", "max_rollbacks|max_full_restarts", 0..=0, "SDC budgets are read by the ladder (and the final scrub's own rung) only"),
    (LOOPS, ".expect(|.unwrap()", 0..=4, "no unwraps beyond ReplayTables' three lock()s and the entry-range tiling"),
    // One loop where there were two (DESIGN 4.2): engine.rs holds façades.
    ("crates/core/src/engine.rs", "macro_rules!|Recovery::new|.launch(|loop {|while ", 0..=0, "an in-core run enters multi::drive; engine.rs has no host loop"),
    (CORE, "Recovery::new(", 2..=2, "two host loops: drive and stream_attempt"),
    (CORE, ".launch(", 3..=3, "DeviceSlice::launch: resident, rebatched, streamed"),
    ("crates/core/src/** !fallback.rs !middleware.rs", "run_fallback(", 0..=0, "ladders reach the host fallback through run_fallback_after"),
    ("crates/core/src/fallback.rs", "run_fallback(", 1..=1, "one graft"),
    (MULTI, "devices == 1|n == 1|len() == 1", 0..=0, "no arity test in drive(); only the engine label matches on the count"),
];

/// Non-test line ceilings: a second copy of anything shows up here first.
/// Core's is the count landed by the PR that made the in-core engine a fleet
/// of one; nothing adds to it without taking as much out.
const CEILINGS: &[(&str, usize)] = &[
    ("crates/core/src/**", 5553),
    ("crates/frontier/src/**", 1930),
    ("crates/serve/src/**", 3150),
    ("src/**", 1015),
];

fn rs_files(at: &Path, out: &mut Vec<PathBuf>) {
    if at.is_dir() {
        let entries = fs::read_dir(at).unwrap();
        entries.for_each(|e| rs_files(&e.unwrap().path(), out));
    } else if at.extension().is_some_and(|e| e == "rs") {
        out.push(at.to_path_buf());
    }
}

/// The non-test lines of the files a `files` cell names.
fn code(spec: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (skip, keep): (Vec<&str>, Vec<&str>) = spec.split(' ').partition(|w| w.starts_with('!'));
    let mut paths = Vec::new();
    for word in keep {
        rs_files(&root.join(word.trim_end_matches("/**")), &mut paths);
    }
    paths.retain(|p| !skip.iter().any(|s| p.ends_with(&s[1..])));
    let mut lines = Vec::new();
    for text in paths.iter().map(|p| fs::read_to_string(p).unwrap()) {
        let kept = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        lines.extend(kept.map(str::to_string));
    }
    lines
}

#[test]
fn the_tree_keeps_its_shape() {
    let mut broken = Vec::new();
    for (spec, patterns, allowed, why) in ROWS {
        let hits =
            |l: &String| -> usize { patterns.split('|').map(|p| l.matches(p).count()).sum() };
        let code = code(spec);
        let code = code.iter().filter(|l| !l.trim_start().starts_with("//"));
        let n: usize = code.map(hits).sum();
        if !allowed.contains(&n) {
            broken.push(format!(
                "{patterns:?} x{n} in {spec}, want {allowed:?}: {why}"
            ));
        }
    }
    for (spec, ceiling) in CEILINGS {
        let n = code(spec).len();
        if n > *ceiling {
            broken.push(format!("{spec}: {n} non-test lines, ceiling {ceiling}"));
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let dirs = fs::read_dir(crates).unwrap().map(|e| e.unwrap().path());
    let table: Vec<String> = dirs
        .map(|d| {
            format!(
                "{} {}",
                code(&format!("{}/src/**", d.display())).len(),
                d.display()
            )
        })
        .collect();
    assert!(
        broken.is_empty(),
        "{}\nnon-test lines:\n{}",
        broken.join("\n"),
        table.join("\n")
    );
}
