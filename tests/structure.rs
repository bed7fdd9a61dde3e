//! Structural guards, run where the work happens (tier-1) instead of as bash
//! in CI: one table of what the tree may contain, and the line ceilings.
//! "Code" is a file's lines above its first `#[cfg(test)]` (the ceilings'
//! rule); the table also skips comment lines.

use std::path::{Path, PathBuf};
use std::{fs, ops::RangeInclusive};

const CORE: &str = "crates/core/src/**";
const MULTI: &str = "crates/core/src/multi.rs";
const ENTRIES: &str = "crates/core/src/engine.rs crates/core/src/streaming.rs";
const LOOPS: &str =
    "crates/core/src/engine.rs crates/core/src/streaming.rs crates/core/src/multi.rs";
const SERVE: &str = "crates/serve/src/**";
const VWC: &str = "crates/baselines/src/vwc.rs";
const REPRO: &str = "crates/bench/src/bin/repro.rs";
const ALL_RS: &str = "crates/** src/**";
/// Every crate's library source and the binary's (non-test code proper)
/// but FNV-1a's two on-disk users: its definition beside the graph formats,
/// and the WAL.
const SOURCES_BUT_DISK: &str = "crates/algos/src/** crates/baselines/src/** crates/bench/src/** crates/core/src/** crates/frontier/src/** crates/graph/src/** crates/obs/src/** crates/serve/src/** crates/simt/src/** src/** !io.rs !wal.rs";
/// The same sources but the service's wire encoder.
const SOURCES_BUT_WIRE: &str = "crates/algos/src/** crates/baselines/src/** crates/bench/src/** crates/core/src/** crates/frontier/src/** crates/graph/src/** crates/obs/src/** crates/serve/src/** crates/simt/src/** src/** !service.rs";
/// Every crate's library source and the binary's.
const LIBRARIES: &str = "crates/algos/src/** crates/baselines/src/** crates/bench/src/** crates/core/src/** crates/frontier/src/** crates/graph/src/** crates/obs/src/** crates/serve/src/** crates/simt/src/** src/**";
const CI: &str = ".github/workflows/ci.yml";

/// `(files, patterns, occurrences allowed in code, why)`. Files are paths or
/// `dir/**` (every `.rs` below), space-separated, `!name.rs` excluding one; a
/// file that is not `.rs` is read whole. Patterns are literal alternatives
/// separated by `|`.
#[rustfmt::skip] // a table: one row per line
const ROWS: &[(&str, &str, RangeInclusive<usize>, &str)] = &[
    // One of each shared engine piece (ROADMAP aim 2).
    ("crates/**", "fn check_topology|fn check_csr", 1..=1, "one (vertices, edges) check before a warm entry indexes topology by a graph"),
    (CORE, "fn entry_bytes", 0..=1, "one entry-size model"),
    (CORE, "fn with_copy_retries", 0..=0, "every device retries its own faulted copies, in place, within the budget beside FaultPlan"),
    (CORE, "fn fingerprint", 0..=0, "the watchdog digest is integrity::scrub"),
    // Two digests, each where it belongs: FNV-1a on disk (WAL records, v2
    // graph files) and on the wire; the v3 graph format and every check
    // inside a run use the word-parallel WordDigest (integrity::scrub).
    (SOURCES_BUT_DISK, "Fnv1a", 0..=0, "FNV-1a serves WAL records and v2 reads: graph/src/io.rs and serve/src/wal.rs only"),
    (SOURCES_BUT_WIRE, "checksum(", 0..=0, "integrity::checksum is the service's wire digest; the scrubber digests with integrity::scrub"),
    ("crates/serve/src/service.rs", "checksum(", 1..=1, "the wire `checksum` of an answer"),
    (CORE, "b.phase(\"gather\")", 0..=1, "one four-stage kernel body"),
    // No sort in the block ops, no memo table, no per-vertex replay key.
    ("crates/simt/src/block.rs", "sort_unstable", 0..=0, "the block ops call the bitset analysis"),
    ("crates/**", "MEMO_SLOTS|pack_coalesce_key|pack_bank_key|SITE_VWC_|fn accounted|keys_fit|SITE_KCORE_SCAN|SITE_FILTER", 0..=0, "deleted memo-table and replay-key names: a launch whose cost the topology fixes keeps a LaunchRecord, not a key per block"),
    // Safe simulator; one replay mechanism, launch records (DESIGN 4.14).
    ("crates/simt/src/**", "zeroed_table|Zeroable|with_share|in_fleet|unsafe", 0..=0, "no unsafe, no fixed-size or fleet-shared replay table"),
    ("crates/** src/** tests/** !structure.rs !layers.rs", "warp_scope(", 1..=1, "the inert Block::warp_scope shim's definition; only the ledger's hot-loop probe still opens one"),
    ("crates/** src/** tests/** !structure.rs", "ReplayMemo|SITE_WORDS|fold_col|MAX_SLOTS|swap_replay_memo|replay_slots|SITE_GATHER|SITE_APPLY|SITE_WRITEBACK", 0..=0, "deleted hashed warp-trace memo names: a CuSha launch is charged from its LaunchRecord"),
    ("crates/core/src/kernel.rs", "try_launch_recorded(", 1..=1, "the four-stage kernel launches through its slice's launch record"),
    // What a layout fixes is built once per layout and shared into the device.
    ("crates/core/src/kernel.rs", "edge_id().iter().map(", 0..=0, "HostArrays::new gathers no constant column: they are the layout's"),
    (CORE, "prog.static_values(|prog.edge_values(", 2..=2, "PreparedLayout::columns derives a program's constant columns, once per layout and key"),
    ("crates/core/src/kernel.rs", "flat_map(", 0..=0, "DeviceSlice::upload shares GShards::window_offsets as it is, it does not re-flatten it"),
    ("crates/core/src/kernel.rs", "try_upload(", 6..=6, "copies are per run: VertexValues and the flag twice, SrcValue, a fleet slice's remote SrcIndex; the rest is try_upload_shared"),
    // One data path per stage: the kernel moves its data through the host
    // re-enactment's loops, and its accounting ops move none.
    (CORE, "prog.compute(", 1..=1, "fold: stage 2's data path, the kernel's and the sweep's"),
    (CORE, "prog.init_compute(", 1..=1, "init_local: stage 1's data path, the kernel's and the sweep's"),
    // VWC's fixed share is a block's statics, phase by phase, held by one
    // launch record a run.
    (VWC, "statics(", 5..=5, "sisd, sweep, reduce, publish, deferred: per block-phase, not per warp"),
    (VWC, "try_launch_recorded(", 1..=1, "one launch record a run"),
    ("crates/**", "fn statics(|fn statics<", 1..=1, "Block::statics is the one such helper"),
    // The frontier family's dense filters (k-core's degree scan, the flag
    // compaction) keep one launch record each; the advances stay
    // interpreted. One symmetrised adjacency, built by counting sort.
    ("crates/frontier/src/**", "try_launch_recorded(", 2..=2, "k-core's two dense filters, one record each"),
    ("crates/frontier/src/kcore.rs", "Vec<Vec<u32>>", 0..=0, "the per-vertex builder survives only as the test reference"),
    ("crates/frontier/src/triangles.rs", "Vec<Vec<u32>>", 1..=1, "the host_triangles oracle's"),
    // One schedule, one ladder (DESIGN 4.9, 4.8).
    (MULTI, "thread::|oracle", 0..=0, "the fleet runs its devices in order on the calling thread"),
    ("crates/obs/src/trace.rs", "fn fork", 0..=0, "the tracer has no fork to merge back"),
    ("crates/core/src/** !integrity.rs", "max_rollbacks|max_full_restarts", 0..=0, "SDC budgets are read by the ladder only"),
    (LOOPS, ".expect(|.unwrap()", 0..=3, "no unwraps beyond LayoutRecords' two lock()s and the entry-range tiling"),
    // One loop where there were three, one out-of-core residency where there
    // were two, one entry where there were three (DESIGN 4.2): a placement is
    // data the entry hands the loop.
    (ENTRIES, "macro_rules!|Recovery::new|.launch(|loop {|while ", 0..=0, "every placement enters multi::drive once: try_run_placed is one fleet, one drive, one result"),
    ("crates/core/src/** crates/simt/src/**", "degrade-to-gshards|skip_while|fn absorb(&mut self, other: &Profile)|streams must be", 0..=0, "a streamed device degrades in place, as a fleet device does: no CW -> G-Shards -> host restart, no profile summed across restarts, no stream count to refuse"),
    ("crates/** src/** tests/** !structure.rs", "try_run_streamed_observed|try_run_multi_observed|fn run_fleet|StreamedEngine|FleetEngine|fn fleet_stats", 0..=0, "one entry (try_run_placed) and one adapter (ShardEngine); fleet statistics ride in RunStats::fleet"),
    (CORE, "PreparedLayout::build(|Self::build(", 2..=2, "for_program's and the public run_fallback's: every placement borrows its caller's layout"),
    (CORE, "Recovery::new(", 1..=1, "one host loop: drive"),
    // One SDC ladder (DESIGN 4.8): VWC, the frontier engine and k-core climb
    // integrity::Recovery through DeviceRun instead of keeping copies, and
    // the middleware keeps none of its own.
    ("crates/**", "Recovery::new(", 4..=4, "drive, the frontier engine, k-core and VWC"),
    ("crates/core/src/middleware.rs", "integrity|check_invariant|run_fallback|final-scrub", 0..=0, "run_engine keeps validation, the fault plan and the deadline: no second SDC ladder"),
    (CORE, "fn proceed", 0..=0, "DeviceRun::boundary is a single-device run's one iteration boundary"),
    ("crates/frontier/src/** crates/baselines/src/**", "max_rollbacks|max_full_restarts|rollbacks +=|restarts +=|host_fallbacks +=|checkpoints +=|detections +=", 0..=0, "budgets and SDC counters are Recovery's and DeviceRun::abandon's"),
    ("crates/frontier/src/**", "struct Snapshot|verified_values|snaps.|lanes::FAULT", 0..=0, "checkpoints are Recovery's; marks go through fault_instant"),
    (CORE, ".launch(", 2..=2, "DeviceSlice::launch: a resident device's, a streamed device's batch"),
    ("crates/**", "fresh_gpu|replace_device|Mode::Rebatched|TimeAcc|stream_attempt|iterate_rebatched|fn run_batch", 0..=0, "a retired batch's memory is freed; no second device, no second batch loop"),
    (MULTI, "Gpu::new(", 0..=0, "the fleet's devices come from DeviceFleet::new"),
    (CORE, "Gpu::new(", 1..=1, "DeviceRun's; the shard entry's devices, a lone one or a fleet, come from DeviceFleet::new"),
    // A single-device run is written once (DESIGN 4.2): DeviceRun builds the
    // device, hands the plan back, marks the setup, closes each iteration
    // and splits the clock.
    ("crates/**", "kernel_seconds + (", 1..=1, "the H2D / GPU / D2H split is spelled once: split_clock"),
    ("crates/baselines/src/** crates/frontier/src/**", "Gpu::new(|take_fault_plan(", 0..=0, "single-device engines open their device through DeviceRun"),
    ("crates/**", "fn host_fallback", 0..=0, "the frontier ladder's last rung is cusha_algos::run_sequential"),
    ("crates/** src/** tests/** !structure.rs", "CheckpointManager|values_crc", 0..=0, "Recovery holds the checkpoint ring; nothing read the snapshot digests"),
    ("crates/core/src/** !fallback.rs", "run_fallback(", 0..=0, "ladders reach the host fallback through run_fallback_after"),
    ("crates/core/src/fallback.rs", "run_fallback_after(", 1..=1, "one body: run_fallback is it over an empty record"),
    (MULTI, "devices == 1|n == 1|len() == 1", 0..=0, "no arity test in drive(); only the engine label matches on the count"),
    (MULTI, "Placement::", 3..=3, "which placement called is data: MultiConfig spells one; drive reads it where a device begins, and Placement::surfaces once for what a spent budget does, whether an OOM rebatches and whether the masters outlive the upload (the copy and launch budgets are every device's own)"),
    // The service gives each of its decisions one owner (DESIGN 4.10).
    (SERVE, "try_run_warm(", 1..=1, "Ready::run is the only caller of a warm entry point"),
    (SERVE, "try_run_frontier_warm(", 1..=1, "Ready::run is the only caller of a warm entry point"),
    (SERVE, "Outcome::FaultExhausted { detail } =>", 1..=1, "one function (launch_and_settle) turns an outcome into responses"),
    (SERVE, "swap_prev|warm_sizes|warm_frontier|stale_revs|fn integrity_label|rebuilding: bool", 0..=0, "deleted rebuild-window fields, the epoch swap, integrity_label"),
    (SERVE, "push_str(\",\\\"", 0..=0, "wire lines render through obs::json::push_obj"),
    ("crates/serve/src/warm.rs", "ServeEngine::", 2..=2, "EngineConfig::new's two arms: warm.rs is the only code that knows the engine family"),
    ("crates/serve/src/service.rs", "ServeEngine::", 1..=1, "ServeConfig's default"),
    ("crates/serve/src/** !warm.rs !service.rs", "ServeEngine::", 0..=0, "warm.rs is the only code that knows the engine family"),
    // The WAL writes one way (DESIGN 4.13): one append carries every record,
    // whole or torn, and one base writer every rewrite of the log.
    ("crates/serve/src/wal.rs", "records_appended +=", 1..=1, "Wal::append: write, sync, count"),
    ("crates/serve/src/wal.rs", "encode_record(KIND_BASE", 1..=1, "Wal::write_base: a fresh log's and a compaction's base record"),
    ("crates/serve/src/wal.rs", "sync_all()", 3..=3, "append's (every record, the commit point among them), the snapshot file's before its rename, and recovery's truncation"),
    // A Graph is valid by construction: its constructors check or preserve
    // validity, so no entry re-scans it and no error names it.
    (ALL_RS, "graph.validate()|InvalidGraph", 0..=0, "a Graph is valid by construction; the ledger's g.validate() probe is outside this pattern"),
    // `cusha` is flag parsing over library calls (DESIGN 4.15).
    ("src/**", "exit(", 0..=1, "the process has one exit"),
    ("src/**", "File::create|fs::write", 0..=1, "one file-writing site"),
    ("src/**", ".unwrap()|.expect(", 0..=0, "failures are typed and leave through main"),
    ("crates/** src/** !fault.rs", "fn parse_inject|fn parse_bitflips", 0..=0, "the fault-spec grammars live beside FaultPlan"),
    (ALL_RS, "pub struct VwcOutput|pub struct MtcpuOutput|pub struct FrontierOutput", 0..=0, "CuShaOutput is the one {values, stats} struct"),
    // `repro` is an artifact table and a flag table over library calls (DESIGN 4.16).
    (REPRO, ".expect(|.unwrap()|unreachable!", 0..=0, "failures are typed and leave through main"),
    (REPRO, "exit(", 0..=1, "the process has one exit"),
    (REPRO, "fs::write", 0..=1, "one file-writing site"),
    (REPRO, "create_dir_all", 0..=1, "--out-dir is created once, before any work"),
    (REPRO, "\"layouts\"|\"table1\"|\"fig1\"|\"table2\"|\"table4\"|\"table5\"|\"table6\"|\"table7\"|\"fig7\"|\"fig8\"|\"fig9\"|\"fig10\"|\"fig11\"|\"fig12\"|\"fig13\"|\"ablation\"|\"multi_gpu_scaling\"|\"frontier_matrix\"", 18..=18, "an artifact's name is spelled in its table row and nowhere else"),
    // A matrix cell borrows its graph's topology (DESIGN 4.9): cold builds stay in the façades.
    ("crates/baselines/src/vwc.rs", "Csr::from_graph(", 1..=1, "the cold façade builds; try_run_vwc_warm borrows"),
    ("crates/baselines/src/mtcpu.rs", "Csr::from_graph(", 1..=1, "the cold façade builds; try_run_mtcpu_warm borrows"),
    ("crates/frontier/src/prepared.rs", "Csr::from_graph(", 2..=2, "PreparedFrontier::build and Prepared::csr; ::around borrows the held CSR"),
    (CORE, "GShards::from_graph(", 1..=1, "PreparedLayout::build; a view sorts nothing, and a degraded device or an abandoned run's host fallback re-enacts its run's own layout"),
    ("crates/core/src/shards.rs crates/graph/src/par.rs", "sort_unstable|sort_by|.sort(", 0..=0, "the shard build is counting and radix passes"),
    // The topology builds share one pool of host workers (DESIGN 4.2, 4.9).
    ("crates/graph/src/** crates/core/src/** crates/frontier/src/**", "thread::scope", 1..=1, "par::fan's: a build's workers are scoped threads, and nothing outlives a build"),
    (LIBRARIES, "available_parallelism", 1..=1, "cusha_graph::par::cores reads the host's cores once; the matrix pool and every build take them from its budget"),
    ("crates/bench/src/bench_defs.rs crates/bench/src/matrix.rs", "run_cusha(|run_vwc(|run_frontier(|run_mtcpu(|PreparedLayout::build(", 0..=0, "cells enter the warm entries over one cusha_frontier::Prepared, which builds their layouts"),
    // One store of prepared state (DESIGN 4.9, 4.10): cusha_frontier::Prepared
    // keys, builds, shares and releases what a graph prepares, and its
    // pre-flight is the one that keys it.
    ("crates/serve/src/warm.rs crates/bench/src/bench_defs.rs", "PreparedLayout::build(|PreparedFrontier::build(|PreparedFrontier::around(|check_fits(", 0..=0, "the service and the matrix ask the store, and its pre-flight"),
    (ALL_RS, "struct Warm", 0..=0, "an epoch's prepared state is its Prepared store"),
    (ALL_RS, "struct Held", 1..=1, "multi.rs's resident device; prepared state is cusha_frontier::Prepared's"),
    (ALL_RS, "fn footprint_bytes", 0..=0, "memsize is the one footprint model"),
    // One host clock (the ledger), one job-count source, one retry budget.
    ("crates/** src/** !repro_cli.rs", "simwall|Simwall", 0..=0, "host time is the ledger's; repro_cli.rs pins the refusals"),
    (ALL_RS, "set_var|CUSHA_JOBS", 0..=0, "a job count is an argument; 0 means available parallelism"),
    ("crates/** src/** !fault.rs", "max_copy_retries|RetryPolicy", 0..=0, "the device budget beside FaultPlan (MAX_COPY_RETRIES and its siblings) is the one retry budget, not a config field or a policy handed to each op"),
    (ALL_RS, "retry_attempts|recovers_faults|recover_in_place|recovers_in_place|max_retries|fn backoff_seconds", 0..=0, "every device recovers its own transient faults: no grant, no whole-attempt retry, no service retry loop or budget"),
    // Nobody sets these.
    ("crates/baselines/src/engines.rs", "defer_outliers", 0..=0, "VwcConfig::defer_outliers is the switch; the adapter only ever copied None"),
    // An epoch owns what was prepared from its graph (DESIGN 4.10): a layout
    // carries no revision, and a run on an epoch's state cannot miss it.
    (ALL_RS, "stamp_rev|valid_for|superseded graph revision|missing after build", 0..=0, "Epoch::ready hands back what its store built from its own graph"),
    (ALL_RS, "pub fn graph_rev(graph", 0..=0, "a graph's revision is cusha_graph::fingerprint; Service::graph_rev is the served one"),
    // The two per-block limits are compared in one function: reads of the
    // fields are what a second comparison needs, so they are what is counted.
    (ALL_RS, ".max_threads_per_block|.shared_mem_per_sm", 3..=3, "DeviceConfig::check_block reads both limits once, the autotuner the shared size for its quota; every refusal and Block's asserts go through check_block"),
    // Every check runs in tier-1: CI builds, tests, lints and runs the two
    // release-scale gates, and greps nothing.
    (CI, "grep |awk |printf |seq ", 0..=0, "a check is a row here or a tier-1 test, not bash"),
    (CI, "cmp ", 0..=1, "the fleet-scaling artifact against its snapshot"),
];

/// Non-test line ceilings: a second copy of anything shows up here first.
/// `multi.rs`'s and the bench crate's are the counts landed by the change
/// that made a run's placement data (one entry, `try_run_placed`, and one
/// adapter where three façades and three adapters were; `multi.rs` holds
/// `drive` once the statistics types moved to `stats.rs`). Core's, the
/// baselines' and the frontier family's are the counts landed by the change
/// that gave the single-device engines one `DeviceRun`: it moved into core,
/// and the four copies it replaced left the other two. Core's, `multi.rs`'s
/// and the frontier family's were then reset by the change that gave the
/// frontier engine and k-core the shard family's SDC ladder (`Recovery`, with
/// `DeviceRun`'s three hooks into it) in place of their own copies.
/// The graph substrate's, the simulator's, the telemetry crate's and the
/// algorithms' are the counts landed by the change that gave the graph
/// loader and the scrubber one word-parallel digest. Core's, `multi.rs`'s,
/// the bench crate's, the baselines', the frontier family's and the
/// service's are the counts landed by the change that gave VWC the same
/// ladder and took the final scrub out of `run_engine`. Core's, the
/// service's, the simulator's, the graph substrate's, the algorithms', the
/// baselines' and the frontier family's are the counts landed by the change
/// that made a serving epoch the one owner of its prepared state and gave a
/// block's two limits one check. The service's, core's and the frontier
/// family's are the counts landed by the change that gave the WAL one append
/// path and made a `Graph` valid by construction (no entry re-scans it); the
/// graph substrate's rose there by the two vertex-id refusals that change
/// added. The simulator's, the baselines' and the frontier family's are the
/// counts landed by the change that gave a launch whose cost the topology
/// fixes one `LaunchRecord`: the simulator's rose by the record, its
/// recorded launch and `Block::statics` net of `Block::accounted` and
/// `keys_fit`; VWC's kernel lost its per-block keys and its fold helper; the
/// frontier family's rose by k-core's and triangle counting's retry around
/// whole attempts. The bench crate's, the service's, the graph substrate's
/// and the frontier family's are the counts landed by the change that gave a
/// graph's prepared state one store (`cusha_frontier::Prepared`): the
/// frontier family's rose by the store, less than the matrix's and the
/// service's caches it replaced took out; the graph substrate's fell by
/// `Csr::footprint_bytes`. Core's, the simulator's, the algorithms', the
/// graph substrate's and the service's are the counts landed by the change
/// that built a layout's constant per-entry columns once and shared them into
/// the device: core's rose by the column store (`ColumnKey`, `Columns`,
/// `PreparedLayout::columns`) and the columns filled in place behind `Arc`s;
/// the simulator's by a `DevVec` that can share its storage and
/// `Gpu::try_upload_shared`, net of one copy-fault check where four were
/// spelled out and one H2D charge where two were; the algorithms' by seven column
/// keys; the graph substrate's by `Validated`, the one-scan validation's
/// token; the service's fell by the re-validation it no longer needs.
/// Core's, the simulator's and the graph substrate's are the counts landed
/// by the change that gave the simulator one replay mechanism: the CuSha
/// kernel is charged from launch records, and the hashed warp-trace memo,
/// its scope state and its per-op replay branches went (the simulator's fell
/// by 291, core's by 28); the graph substrate's fell by the exact
/// deleted-copy count `validate` now reports.
/// Core's, `multi.rs`'s and the simulator's are the counts landed by the
/// change that gave a device its own transient-fault budget and fault record:
/// core's fell by the copy-retry wrapper, the relaunch loop, the retry budget
/// and fault record threaded through every upload, launch and `drive`, and
/// `FaultStats`, which moved to the simulator; the simulator's rose by
/// `FaultStats` and the budget (`Gpu::recover_in_place`, one retry loop where
/// the fault is injected), net of one D2H charge where two were spelled out.
/// Core's, `multi.rs`'s, the simulator's, the frontier family's, the
/// service's and `src/`'s are the counts landed by the change that made every
/// device the one owner of transient-fault recovery: the in-place grant, the
/// whole-attempt retry (core's and the frontier family's wrappers), the
/// middleware's `recovers_faults`, the service's retry loop, its backoff and
/// its budget, and `--retries` went.
/// Core's, `multi.rs`'s and the simulator's are the counts landed by the
/// change that let a streamed device degrade in place as a fleet device does:
/// the streamed restart ladder and what it carried between rungs,
/// `Profile::absorb`, `DeviceFleet::solo` and the stream count went.
/// Core's, the frontier family's, the bench crate's and the graph
/// substrate's are the counts landed by the change that built every topology
/// in two levels over scoped workers: only the graph substrate's rose, by
/// `par.rs` (the spare-core budget, the two levels and the G-Shards sort,
/// whose one-worker counting passes moved there from core) and the CSRs'
/// two levels in `csr::adjacency`, which both CSRs now share.
/// Nothing adds to any of them without taking as much out.
const CEILINGS: &[(&str, usize)] = &[
    ("crates/core/src/**", 5269),
    (MULTI, 1077),
    ("crates/bench/src/**", 2814),
    ("crates/baselines/src/**", 894),
    ("crates/frontier/src/**", 1781),
    ("crates/serve/src/**", 3041),
    ("src/**", 1013),
    ("crates/graph/src/**", 2882),
    ("crates/simt/src/**", 3911),
    ("crates/obs/src/**", 1438),
    ("crates/algos/src/**", 1449),
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
        let at = root.join(word.trim_end_matches("/**"));
        if at.is_file() {
            paths.push(at);
        } else {
            rs_files(&at, &mut paths);
        }
    }
    paths.retain(|p| !skip.iter().any(|s| p.ends_with(&s[1..])));
    let mut lines = Vec::new();
    for p in paths {
        let (text, rs) = (
            fs::read_to_string(&p).unwrap(),
            p.extension() == Some("rs".as_ref()),
        );
        let kept = text
            .lines()
            .take_while(|l| !(rs && l.starts_with("#[cfg(test)]")));
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

/// `cusha` is a flag table (DESIGN 4.15): each flag literal (`"--wal"`, ...)
/// is spelled once in non-test `src/` — its table row, or the constant a
/// `requires` column shares with it. A flag inside a longer string (help
/// prose, an error message) is not a flag literal.
#[test]
fn each_flag_literal_is_spelled_once() {
    let mut seen: Vec<String> = Vec::new();
    let mut twice = Vec::new();
    for line in code("src/**")
        .iter()
        .filter(|l| !l.trim_start().starts_with("//"))
    {
        for piece in line.split("\"--").skip(1) {
            let name = piece.split('"').next().unwrap_or_default();
            if name.is_empty() || !name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-') {
                continue;
            }
            if seen.iter().any(|s| s == name) {
                twice.push(format!("--{name}"));
            } else {
                seen.push(name.to_string());
            }
        }
    }
    assert!(
        twice.is_empty(),
        "flag literals spelled more than once under src/: {twice:?}"
    );
    assert!(
        seen.len() >= 35,
        "only {} flag literals under src/ (the table has 35: is this test's pattern stale?)",
        seen.len()
    );
}
