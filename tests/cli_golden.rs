//! The `cusha` binary's observable behaviour, pinned. How the binary parses
//! its flags, picks an engine and writes its artifacts is free to change;
//! what a run *exits with*, *prints on stdout* and *writes to the files it
//! was asked for* is not. `tests/golden/cli_cases.txt` was generated at the
//! commit before the binary became a flag table over library calls, and is
//! compared line by line.
//!
//! Every row spawns the real binary on `--rmat 8:600` (or on a tiny edge
//! list / `.bin` file written to a scratch directory) and records one line:
//! exit code, stdout length + FNV-1a, and length + FNV-1a of every artifact
//! the row asked for (`--output`, `--metrics-out`, `--trace-out`,
//! `--profile-json`, `--slow-log`). A failing row additionally must say why
//! on stderr — `cusha: ` first, and the offending flag or value named —
//! but its wording is not pinned. An argument starting with `@` names a file
//! in the row's scratch directory.
//!
//! Digests say *that* bytes moved, not what they must say: [`SAYS`] names
//! what some rows' artifacts must contain and [`SAME`] which rows must answer
//! identically, checked on every run and before a regeneration is written.
//! The four rows CI's smoke steps added (`engine/gs-bfs`,
//! `fault/bitflips-traced`, `fault/bitflips-pagerank`,
//! `artifact/output-pagerank`) were generated at the commit before CI stopped
//! running them.
//!
//! The `defect/` rows are inputs the parent commit mishandled (a panic, an
//! abort on a TB-sized allocation, an unflushed file reported as written,
//! unchecked fault rates, a committed mutation the next query cannot
//! survive): they fail at the parent and are checked by their own test.
//! Regenerate — only for an intended change of what the binary emits — with:
//!
//! ```sh
//! CUSHA_REGEN_GOLDEN=1 cargo test --test cli_golden
//! ```

use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::io::{self, Fnv1a};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cli_cases.txt");

/// Flags whose value is a file the run writes; its bytes are part of the row.
const ARTIFACT_FLAGS: [&str; 5] = [
    "--output",
    "--metrics-out",
    "--trace-out",
    "--profile-json",
    "--slow-log",
];

const QUERIES: &str = "bfs 0\nbfs 5\nsssp 3\nflush\nstats\nreach 1 2 3\npagerank\ncc\nflush\nbfs 0\n\
                       {\"id\":\"v\",\"op\":\"sswp\",\"source\":9,\"values\":true}\nflush\nstats\nquit\n";
const MUTATIONS: &str =
    "bfs 0\nflush\ninsert 0 200 5\nbfs 0\nflush\ninsert 300 1 2\ndelete 0 200\n\
                         delete 7 7\nbfs 0\nflush\nstats\n";
const GROWTH: &str = "bfs 0\nflush\ninsert 4000000000 0 1\nstats\nbfs 0\nflush\n";

/// What a row's artifact must contain: `(row, artifact, needle)`, the
/// artifact a flag's name without `--`, or `stdout`.
#[rustfmt::skip] // a table: one row per line
const SAYS: &[(&str, &str, &str)] = &[
    // Telemetry: a versioned metrics snapshot with every section, a Chrome
    // trace of complete spans — from a fleet, the widest run.
    ("fleet/three-nvlink", "metrics-out", "\"schema\":\"cusha-metrics/v2\""),
    ("fleet/three-nvlink", "metrics-out", "\"counters\""),
    ("fleet/three-nvlink", "metrics-out", "\"gauges\""),
    ("fleet/three-nvlink", "metrics-out", "\"histograms\""),
    ("fleet/three-nvlink", "trace-out", "\"traceEvents\""),
    ("fleet/three-nvlink", "trace-out", "\"schema\":\"cusha-trace/v1\""),
    ("fleet/three-nvlink", "trace-out", "\"ph\":\"X\""),
    // Silent corruption is detected and rolled back, and says so.
    ("fault/bitflips-traced", "metrics-out", "\"schema\":\"cusha-metrics/v2\""),
    ("fault/bitflips-traced", "metrics-out", "\"sdc_flips_injected{algo=bfs,engine=cw}\":2"),
    ("fault/bitflips-traced", "metrics-out", "\"sdc_rollbacks{algo=bfs,engine=cw}\":2"),
    ("fault/bitflips-traced", "trace-out", "\"name\":\"corruption-detected\""),
    ("fault/bitflips-traced", "trace-out", "\"name\":\"rollback\""),
    ("fault/bitflips-pagerank", "metrics-out", "\"sdc_rollbacks{algo=pagerank,engine=cw}\":2"),
    ("fault/vwc-bitflips", "metrics-out", "\"sdc_rollbacks{algo=bfs,engine=vwc:8}\":2"),
    ("engine/frontier", "metrics-out", "\"schema\":\"cusha-metrics/v2\""),
    ("engine/frontier", "metrics-out", "frontier_switches"),
    // The paper's coalescing contrast (Table 2, Fig. 8) in roofline form:
    // CuSha-CW's coalesced shard sweeps are latency-bound, VWC-CSR/32's
    // scattered neighbour walks memory-bound. One kernel per profile.
    ("artifact/profile-json", "profile-json", "\"schema\":\"cusha-profile/v1\""),
    ("artifact/profile-json", "profile-json", "\"bound\":\"latency\""),
    ("artifact/profile-json-vwc", "profile-json", "\"bound\":\"memory\""),
    // The service's stats line, slow log and metrics.
    ("serve/artifacts", "stdout", "\"latency_p50_ms\""),
    ("serve/artifacts", "stdout", "\"latency_p99_ms\""),
    ("serve/artifacts", "stdout", "\"cache_hit_rate\""),
    ("serve/artifacts", "stdout", "\"latency_burn_rate\""),
    ("serve/artifacts", "slow-log", "\"latency_ms\""),
    ("serve/artifacts", "slow-log", "\"queue_wait_ms\""),
    ("serve/artifacts", "slow-log", "\"batch_id\""),
    ("serve/artifacts", "metrics-out", "\"schema\":\"cusha-metrics/v2\""),
    ("serve/artifacts", "metrics-out", "serve_queries_total"),
    ("serve/artifacts", "metrics-out", "serve_responses_total"),
    ("serve/artifacts", "metrics-out", "serve_cache_hits_total"),
    ("serve/artifacts", "metrics-out", "serve_query_latency_seconds"),
];

/// Rows whose `--output` must be byte-identical: a run that recovered from
/// silent corruption answers what the clean run does, and the frontier
/// engine what CuSha-GS does.
const SAME: &[(&str, &str)] = &[
    ("fault/bitflips-full", "artifact/output"),
    ("fault/bitflips-traced", "artifact/output"),
    ("fault/bitflips-pagerank", "artifact/output-pagerank"),
    ("engine/frontier", "engine/gs-bfs"),
    ("fault/frontier-bitflips", "engine/gs-bfs"),
    ("fault/vwc-bitflips", "artifact/output"),
];

struct Row {
    name: &'static str,
    args: Vec<&'static str>,
    /// What a failing row's stderr must name (ignored when the row exits 0).
    names: &'static str,
}

fn row(name: &'static str, args: &'static str) -> Row {
    named(name, args, "")
}

fn named(name: &'static str, args: &'static str, names: &'static str) -> Row {
    Row {
        name,
        args: args.split_whitespace().collect(),
        names,
    }
}

const RMAT: &str = "--rmat 8:600";

/// One-shot row on the shared R-MAT input.
fn on_rmat(name: &'static str, rest: &'static str, names: &'static str) -> Row {
    let mut r = named(name, RMAT, names);
    r.args.extend(rest.split_whitespace());
    r
}

fn parent_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut ok = |name, rest| rows.push(on_rmat(name, rest, ""));
    // Every algorithm name and alias on the default engine.
    ok("algo/bfs", "--algo bfs");
    ok("algo/sssp", "--algo sssp --source 3");
    ok("algo/pagerank", "--algo pagerank");
    ok("algo/pr", "--algo pr");
    ok("algo/cc", "--algo cc");
    ok("algo/sswp", "--algo sswp --source 1");
    ok("algo/nn", "--algo nn");
    ok("algo/hs", "--algo hs");
    ok("algo/cs", "--algo cs --source 2");
    ok("algo/kcore", "--algo kcore");
    ok("algo/tc", "--algo tc");
    ok("algo/triangles", "--algo triangles");
    ok("algo/uppercase", "--algo BFS --engine CW");
    // Every engine form.
    ok("engine/gs", "--algo sssp --engine gs --output @v.txt");
    ok("engine/gs-bfs", "--algo bfs --engine gs --output @v.txt");
    ok(
        "engine/cw-streamed",
        "--algo bfs --engine cw-streamed --resident-bytes 4096 --output @v.txt",
    );
    ok(
        "engine/gs-streamed",
        "--algo sssp --engine gs-streamed --resident-bytes 4096 --output @v.txt",
    );
    ok(
        "engine/frontier",
        "--algo bfs --engine frontier --output @v.txt --metrics-out @m.json",
    );
    ok(
        "engine/frontier-pull",
        "--algo bfs --engine frontier --density-threshold 0 --metrics-out @m.json",
    );
    ok(
        "engine/frontier-push",
        "--algo sssp --engine frontier --density-threshold 2 --metrics-out @m.json",
    );
    ok(
        "engine/vwc2",
        "--algo bfs --engine vwc:2 --metrics-out @m.json",
    );
    ok(
        "engine/vwc8",
        "--algo pagerank --engine vwc:8 --metrics-out @m.json",
    );
    ok(
        "engine/vwc32",
        "--algo sssp --engine vwc:32 --output @v.txt",
    );
    ok(
        "engine/mtcpu2",
        "--algo bfs --engine mtcpu:2 --output @v.txt",
    );
    ok(
        "engine/kcore-frontier",
        "--algo kcore --engine frontier --output @v.txt --metrics-out @m.json",
    );
    ok(
        "engine/tc-output",
        "--algo tc --output @v.txt --metrics-out @m.json --trace-out @t.json",
    );
    // The fleet.
    ok("fleet/one", "--algo bfs --devices 1 --metrics-out @m.json");
    ok("fleet/three-nvlink", "--algo pagerank --engine gs --devices 3 --interconnect nvlink --output @v.txt --metrics-out @m.json --trace-out @t.json");
    ok(
        "fleet/capped",
        "--algo pagerank --devices 2 --max-iters 1 --metrics-out @m.json",
    );
    // Engine knobs.
    ok(
        "knob/shard-size",
        "--algo bfs --shard-size 32 --metrics-out @m.json",
    );
    ok(
        "knob/max-iters-1",
        "--algo pagerank --max-iters 1 --output @v.txt --metrics-out @m.json",
    );
    ok(
        "knob/watchdog",
        "--algo sssp --watchdog 2 --metrics-out @m.json",
    );
    ok(
        "knob/checkpoint-every",
        "--algo bfs --integrity checksum --checkpoint-every 2 --metrics-out @m.json",
    );
    ok("knob/log-level", "--algo bfs --log-level error");
    // Faults and silent corruption.
    ok("fault/bitflips-full", "--algo bfs --integrity full --inject-bitflips seed=3,rate=0.3 --output @v.txt --metrics-out @m.json");
    ok("fault/bitflips-scheduled", "--algo sssp --integrity full --inject-bitflips vv@0:0:20,sv@1:3:4,win@2:5:6 --output @v.txt --metrics-out @m.json");
    ok("fault/bitflips-seed-from-inject", "--algo bfs --integrity invariant --inject seed=5 --inject-bitflips rate=0.25 --metrics-out @m.json");
    ok("fault/streamed-recovers", "--algo pagerank --engine cw-streamed --resident-bytes 4096 --inject seed=7,alloc@2,h2d@5 --output @v.txt --metrics-out @m.json");
    ok("fault/streamed-degrades", "--algo sssp --engine cw-streamed --resident-bytes 4096 --inject kernel~CuSha-CW:18446744073709551615 --output @v.txt --metrics-out @m.json");
    ok("fault/rates", "--algo bfs --engine gs --inject seed=11,h2d%0.01,d2h%0.01,kernel%0.01,alloc%0 --metrics-out @m.json");
    ok("fault/fleet-device0", "--algo sssp --engine gs --devices 2 --inject kernel@1,kernel@2 --output @v.txt --metrics-out @m.json");
    ok("fault/frontier-bitflips", "--algo bfs --engine frontier --integrity full --inject-bitflips seed=13,rate=0.05,vv@0:0:20 --output @v.txt");
    ok("fault/bitflips-traced", "--algo bfs --integrity full --inject-bitflips seed=13,rate=0.05,vv@0:0:20 --output @v.txt --metrics-out @m.json --trace-out @t.json");
    ok("fault/bitflips-pagerank", "--algo pagerank --integrity full --inject-bitflips seed=7,rate=0.05 --checkpoint-every 2 --output @v.txt --metrics-out @m.json");
    ok("fault/vwc-bitflips", "--algo bfs --engine vwc:8 --integrity full --inject-bitflips seed=13,rate=0.05,vv@0:0:20 --output @v.txt --metrics-out @m.json");
    rows.push(on_rmat(
        "fault/kernel-exhausted",
        "--algo bfs --inject kernel~CW:9",
        "kernel",
    ));
    rows.push(on_rmat(
        "fault/copy-exhausted",
        "--algo bfs --inject h2d@1,h2d@2,h2d@3,h2d@4",
        "copy",
    ));
    rows.push(on_rmat(
        "fault/deadline",
        "--algo pagerank --timeout-ms 0.0001",
        "deadline",
    ));
    rows.push(on_rmat(
        "fault/deadline-kcore",
        "--algo kcore --timeout-ms 0.000001",
        "deadline",
    ));
    rows.push(on_rmat(
        "fault/deadline-vwc",
        "--algo bfs --engine vwc:8 --timeout-ms 0.0001",
        "deadline",
    ));
    // Artifacts.
    let mut ok = |name, rest| rows.push(on_rmat(name, rest, ""));
    ok("artifact/output", "--algo bfs --output @v.txt");
    ok(
        "artifact/output-pagerank",
        "--algo pagerank --output @v.txt",
    );
    ok("artifact/metrics", "--algo bfs --metrics-out @m.json");
    ok("artifact/trace", "--algo bfs --trace-out @t.json");
    ok("artifact/profile", "--algo bfs --profile");
    ok("artifact/profile-json", "--algo bfs --profile-json @p.json");
    ok(
        "artifact/profile-json-vwc",
        "--algo bfs --engine vwc:32 --profile-json @p.json",
    );
    ok("artifact/all", "--algo sssp --engine gs --output @v.txt --metrics-out @m.json --trace-out @t.json --profile-json @p.json");
    // Input files.
    rows.push(row(
        "input/edge-list",
        "--algo sssp --input @tiny.txt --output @v.txt",
    ));
    rows.push(row(
        "input/bin",
        "--algo bfs --input @tiny.bin --source 1 --output @v.txt",
    ));
    rows.push(named(
        "input/missing",
        "--algo bfs --input /nonexistent/graph.txt",
        "/nonexistent/graph.txt",
    ));
    // The service.
    let mut serve = |name, rest: &'static str, names| {
        let mut r = named(name, "serve --rmat 8:600", names);
        r.args.extend(rest.split_whitespace());
        rows.push(r);
    };
    serve("serve/queries", "--script @queries.txt", "");
    serve(
        "serve/gs",
        "--engine gs --script @queries.txt --metrics-out @m.json",
        "",
    );
    serve(
        "serve/frontier",
        "--engine frontier --script @queries.txt --metrics-out @m.json --slow-log @s.jsonl",
        "",
    );
    serve(
        "serve/artifacts",
        "--script @queries.txt --metrics-out @m.json --slow-log @s.jsonl --trace-out @t.json",
        "",
    );
    serve(
        "serve/slo",
        "--script @queries.txt --slo-latency-ms 0.01 --slo-window 4 --deadline-ms 50",
        "",
    );
    serve("serve/small-queue", "--script @queries.txt --queue-capacity 2 --cache-capacity 0 --retries 1 --shard-size 32 --max-iters 500", "");
    serve(
        "serve/mutations",
        "--script @mutations.txt --metrics-out @m.json",
        "",
    );
    serve("serve/serve-previous", "--script @mutations.txt --rebuild-policy serve-previous --metrics-out @m.json --slow-log @s.jsonl", "");
    serve("serve/chaos", "--script @queries.txt --retries 2 --inject seed=99,kernel%0.02,h2d%0.01 --inject-bitflips rate=0.002 --integrity full --watchdog 8 --metrics-out @m.json", "");
    serve(
        "serve/wal",
        "--script @mutations.txt --wal @log.wal --snapshot-every 2 --metrics-out @m.json",
        "",
    );
    serve(
        "serve/crash",
        "--script @mutations.txt --wal @log.wal --crash-at pre-commit@1",
        "injected crash",
    );
    rows.push(row(
        "serve/input-bin",
        "serve --input @tiny.bin --script @queries.txt",
    ));
    // Usage errors: exit 2, the offending flag or value named.
    let mut bad = |name, args, names| rows.push(named(name, args, names));
    bad(
        "usage/unknown-flag",
        "--algo bfs --rmat 8:600 --bogus",
        "--bogus",
    );
    bad("usage/missing-value", "--rmat 8:600 --algo", "--algo");
    bad(
        "usage/unparsable-number",
        "--algo bfs --rmat 8:600 --source abc",
        "abc",
    );
    bad(
        "usage/devices-0",
        "--algo bfs --rmat 8:600 --devices 0",
        "--devices",
    );
    bad(
        "usage/checkpoint-every-0",
        "--algo bfs --rmat 8:600 --checkpoint-every 0",
        "--checkpoint-every",
    );
    bad(
        "usage/queue-capacity-0",
        "serve --rmat 8:600 --queue-capacity 0",
        "--queue-capacity",
    );
    bad(
        "usage/slo-window-0",
        "serve --rmat 8:600 --slo-window 0",
        "--slo-window",
    );
    bad(
        "usage/interconnect",
        "--algo bfs --rmat 8:600 --devices 2 --interconnect warp",
        "warp",
    );
    bad(
        "usage/integrity",
        "--algo bfs --rmat 8:600 --integrity maybe",
        "maybe",
    );
    bad(
        "usage/log-level",
        "--algo bfs --rmat 8:600 --log-level loud",
        "loud",
    );
    bad(
        "usage/rebuild-policy",
        "serve --rmat 8:600 --rebuild-policy never",
        "never",
    );
    bad(
        "usage/crash-at",
        "serve --rmat 8:600 --wal @log.wal --crash-at nowhere@1",
        "nowhere@1",
    );
    bad(
        "usage/timeout-negative",
        "--algo bfs --rmat 8:600 --timeout-ms -1",
        "--timeout-ms",
    );
    bad(
        "usage/timeout-nan",
        "--algo bfs --rmat 8:600 --timeout-ms nan",
        "--timeout-ms",
    );
    bad(
        "usage/deadline-zero",
        "serve --rmat 8:600 --deadline-ms 0",
        "--deadline-ms",
    );
    bad(
        "usage/slo-latency-negative",
        "serve --rmat 8:600 --slo-latency-ms -3",
        "--slo-latency-ms",
    );
    bad(
        "usage/density-negative",
        "--algo bfs --rmat 8:600 --engine frontier --density-threshold -0.5",
        "--density-threshold",
    );
    bad(
        "usage/serve-timeout",
        "serve --rmat 8:600 --timeout-ms 5",
        "--timeout-ms",
    );
    bad(
        "usage/serve-profile-json",
        "serve --rmat 8:600 --profile-json @p.json",
        "--profile-json",
    );
    bad(
        "usage/slow-log-one-shot",
        "--algo bfs --rmat 8:600 --slow-log @s.jsonl",
        "--slow-log",
    );
    bad(
        "usage/wal-one-shot",
        "--algo bfs --rmat 8:600 --wal @log.wal",
        "--wal",
    );
    bad(
        "usage/rebuild-policy-one-shot",
        "--algo bfs --rmat 8:600 --rebuild-policy shed",
        "--rebuild-policy",
    );
    bad(
        "usage/snapshot-without-wal",
        "serve --rmat 8:600 --snapshot-every 2",
        "--snapshot-every",
    );
    bad(
        "usage/crash-without-wal",
        "serve --rmat 8:600 --crash-at pre-apply@1",
        "--crash-at",
    );
    bad(
        "usage/serve-engine",
        "serve --rmat 8:600 --engine vwc:8",
        "vwc:8",
    );
    bad(
        "usage/kcore-on-gs",
        "--algo kcore --rmat 8:600 --engine gs",
        "kcore",
    );
    bad(
        "usage/devices-on-frontier",
        "--algo bfs --rmat 8:600 --devices 2 --engine frontier",
        "--devices",
    );
    bad(
        "usage/interconnect-without-devices",
        "--algo bfs --rmat 8:600 --interconnect nvlink",
        "--interconnect",
    );
    bad(
        "usage/resident-bytes-0",
        "--algo bfs --rmat 8:600 --engine cw-streamed --resident-bytes 0",
        "--resident-bytes",
    );
    bad(
        "usage/resident-bytes-on-cw",
        "--algo bfs --rmat 8:600 --resident-bytes 4096",
        "--resident-bytes",
    );
    bad(
        "usage/source-past-graph",
        "--algo bfs --rmat 8:600 --source 999",
        "999",
    );
    bad("usage/no-algo", "--rmat 8:600", "--algo");
    bad("usage/no-graph", "--algo bfs", "--input");
    bad(
        "usage/vwc-0",
        "--algo bfs --rmat 8:600 --engine vwc:0",
        "vwc:0",
    );
    bad(
        "usage/vwc-text",
        "--algo bfs --rmat 8:600 --engine vwc:wide",
        "wide",
    );
    bad(
        "usage/engine",
        "--algo bfs --rmat 8:600 --engine nope",
        "nope",
    );
    bad("usage/algo", "--algo nope --rmat 8:600", "nope");
    bad(
        "usage/inject",
        "--algo bfs --rmat 8:600 --inject bogus",
        "bogus",
    );
    bad(
        "usage/inject-index",
        "--algo bfs --rmat 8:600 --inject h2d@x",
        "x",
    );
    bad(
        "usage/inject-named",
        "--algo bfs --rmat 8:600 --inject kernel~CW",
        "kernel~CW",
    );
    bad(
        "usage/inject-rate-unseeded",
        "--algo bfs --rmat 8:600 --inject h2d%0.1",
        "seed",
    );
    bad(
        "usage/bitflips-rate",
        "--algo bfs --rmat 8:600 --inject-bitflips seed=1,rate=2",
        "rate",
    );
    bad(
        "usage/bitflips-rate-unseeded",
        "--algo bfs --rmat 8:600 --inject-bitflips rate=0.5",
        "seed",
    );
    bad(
        "usage/bitflips-target",
        "--algo bfs --rmat 8:600 --inject-bitflips xx@1:2:3",
        "xx",
    );
    bad(
        "usage/bitflips-coords",
        "--algo bfs --rmat 8:600 --inject-bitflips vv@1:2",
        "vv@1:2",
    );
    bad("usage/rmat-form", "--algo bfs --rmat 8", "--rmat");
    bad("usage/rmat-scale", "--algo bfs --rmat x:600", "x");
    rows
}

/// Inputs the parent commit panicked, aborted or lied on (exit 101 / 134 /
/// 0); each is now a typed refusal.
fn defect_rows() -> Vec<Row> {
    vec![
        named("defect/rmat-scale-32", "--algo bfs --rmat 32:10", "32"),
        named(
            "defect/rmat-edges-huge",
            "--algo bfs --rmat 10:9999999999999999",
            "9999999999999999",
        ),
        named(
            "defect/output-dev-full",
            "--algo bfs --rmat 8:600 --output /dev/full",
            "cannot write",
        ),
        named(
            "defect/inject-rate-nan",
            "--algo bfs --rmat 8:600 --inject seed=1,h2d%nan",
            "nan",
        ),
        named(
            "defect/inject-rate-above-1",
            "--algo bfs --rmat 8:600 --inject seed=1,h2d%7.5",
            "7.5",
        ),
        named(
            "defect/inject-rate-negative",
            "--algo bfs --rmat 8:600 --inject seed=1,kernel%-1",
            "-1",
        ),
        named(
            "defect/one-edge-4g",
            "--algo bfs --input @edge4g.txt",
            "device-oom",
        ),
        named(
            "defect/one-edge-300m",
            "--algo bfs --input @edge300m.txt",
            "device-oom",
        ),
        named(
            "defect/one-edge-4g-kcore",
            "--algo kcore --input @edge4g.txt",
            "device-oom",
        ),
        // Aborted (134) inside `PreparedLayout::build` (a 1.7 TB window
        // table) until the out-of-core engines got their own pre-flight,
        // `memsize::check_streams`.
        named(
            "defect/one-edge-4g-gs-streamed",
            "--algo bfs --input @edge4g.txt --engine gs-streamed",
            "device-oom",
        ),
        named(
            "defect/one-edge-4g-cw-streamed",
            "--algo bfs --input @edge4g.txt --engine cw-streamed",
            "device-oom",
        ),
        named(
            "defect/one-edge-4g-devices-2",
            "--algo bfs --input @edge4g.txt --engine cw --devices 2",
            "device-oom",
        ),
        // Aborted (134) on 32 GB of per-device state until PR 21 bounded the
        // fleet (`cusha_core::MAX_DEVICES`).
        named(
            "defect/devices-4g",
            "--algo bfs --rmat 8:600 --engine cw --devices 4000000000",
            "--devices",
        ),
        // Panicked (101) in `Block::shared_alloc` until a shard size whose
        // stage-1 array no block can hold became a pre-flight refusal
        // (`memsize::check_shard_block`).
        named(
            "defect/shard-size-over-shared",
            "--algo bfs --rmat 14:50000 --shard-size 16384",
            "engine error [invalid-config]",
        ),
        // Panicked (101) in `Graph::new` ("out of range for 0 vertices")
        // until the text loader refused the one id no 32-bit vertex count
        // holds: the builder's high-water mark `id + 1` wrapped to 0.
        named(
            "defect/text-vertex-id-max",
            "--algo bfs --input @edgemax.txt",
            "cannot load",
        ),
        named(
            "defect/serve-growth",
            "serve --rmat 8:600 --script @growth.txt",
            "",
        ),
        named(
            "defect/serve-growth-wal",
            "serve --rmat 8:600 --script @growth.txt --wal @log.wal",
            "",
        ),
        // Exited 3 (copy-fault) until k-core and triangle counting got the
        // middleware's retry around whole attempts (`retry_attempts`).
        named(
            "defect/kcore-transient-copy-fault",
            "--algo kcore --rmat 6:100 --engine frontier --inject h2d@1",
            "",
        ),
    ]
}

/// A fresh scratch directory holding the input files rows refer to.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cusha-cli-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let tiny = rmat(&RmatConfig::graph500(5, 90, 7));
    io::save_edge_list(&tiny, dir.join("tiny.txt")).expect("write tiny.txt");
    io::save_binary(&tiny, dir.join("tiny.bin")).expect("write tiny.bin");
    for (name, text) in [
        ("queries.txt", QUERIES),
        ("mutations.txt", MUTATIONS),
        ("growth.txt", GROWTH),
        ("bfs.txt", "bfs 0\nflush\n"),
        ("edge4g.txt", "0 4000000000\n"),
        ("edge300m.txt", "0 300000000\n"),
        ("edgemax.txt", "4294967295 0\n"),
    ] {
        std::fs::write(dir.join(name), text).expect("write input file");
    }
    dir
}

fn digest(bytes: &[u8]) -> String {
    format!("{}:{:016x}", bytes.len(), Fnv1a::of(bytes))
}

/// What a row printed and wrote: `stdout`, then each artifact under its
/// flag's name without `--`.
type Bytes = Vec<(&'static str, Vec<u8>)>;

/// Runs one row: its golden line and its bytes.
fn run_row(row: &Row, dir: &Path) -> (String, Bytes) {
    // Artifacts and logs of an earlier row must not leak into this one.
    for stale in [
        "v.txt",
        "m.json",
        "t.json",
        "p.json",
        "s.jsonl",
        "log.wal",
        "log.wal.snap",
    ] {
        let _ = std::fs::remove_file(dir.join(stale));
    }
    let resolve = |a: &str| match a.strip_prefix('@') {
        Some(file) => dir.join(file).to_string_lossy().into_owned(),
        None => a.to_string(),
    };
    let args: Vec<String> = row.args.iter().map(|a| resolve(a)).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_cusha"))
        .args(&args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn cusha");
    let code = out.status.code().unwrap_or(-1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !matches!(code, -1 | 101 | 134),
        "{}: cusha panicked or aborted (exit {code}): {stderr}",
        row.name
    );
    if code != 0 {
        assert!(
            stderr.starts_with("cusha: ") && stderr.contains(row.names),
            "{}: exit {code} must be explained on stderr, naming {:?}; got: {stderr}",
            row.name,
            row.names
        );
    }
    let mut line = format!("{} exit={code} stdout={}", row.name, digest(&out.stdout));
    let mut bytes = vec![("stdout", out.stdout)];
    for pair in row.args.windows(2) {
        if ARTIFACT_FLAGS.contains(&pair[0]) && pair[1].starts_with('@') {
            let read = std::fs::read(resolve(pair[1]));
            let shown = read
                .as_ref()
                .map_or_else(|_| "missing".to_string(), |b| digest(b));
            write!(line, " {}={shown}", &pair[0][2..]).expect("write to string");
            bytes.push((&pair[0][2..], read.unwrap_or_default()));
        }
    }
    (line, bytes)
}

/// The [`SAYS`] and [`SAME`] entries about `rows` that their bytes break.
fn unsaid(rows: &[Row], ran: &[(String, Bytes)]) -> String {
    let bytes = |row: &str, artifact: &str| {
        let at = rows.iter().position(|r| r.name == row)?;
        let found = ran[at].1.iter().find(|(a, _)| *a == artifact);
        Some(found.map_or(&[][..], |(_, b)| b.as_slice()))
    };
    let mut wrong = String::new();
    for &(row, artifact, needle) in SAYS {
        if let Some(b) = bytes(row, artifact) {
            if !String::from_utf8_lossy(b).contains(needle) {
                writeln!(wrong, "  {row}: {artifact} lacks {needle}").expect("write");
            }
        }
    }
    for &(a, b) in SAME {
        if let (Some(x), Some(y)) = (bytes(a, "output"), bytes(b, "output")) {
            if x != y {
                writeln!(wrong, "  {a}: output differs from {b}'s").expect("write");
            }
        }
    }
    wrong
}

/// Compares `rows` with their golden lines (or, regenerating, replaces them
/// in place and appends new ones) once their bytes say what [`SAYS`] and
/// [`SAME`] ask.
fn check(rows: &[Row], tag: &str) {
    let dir = scratch(tag);
    let ran: Vec<(String, Bytes)> = rows.iter().map(|r| run_row(r, &dir)).collect();
    let _ = std::fs::remove_dir_all(&dir);
    let wrong = unsaid(rows, &ran);
    assert!(wrong.is_empty(), "cusha's bytes no longer say:\n{wrong}");
    let lines: Vec<&String> = ran.iter().map(|(line, _)| line).collect();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let name_of = |line: &str| line.split(' ').next().unwrap_or_default().to_string();
    let ours = |name: &str| lines.iter().find(|l| name_of(l) == name).copied();
    if std::env::var_os("CUSHA_REGEN_GOLDEN").is_some() {
        let kept = golden
            .lines()
            .map(|g| ours(&name_of(g)).map_or(g, String::as_str));
        let mut doc: Vec<&str> = kept.collect();
        let new = lines
            .iter()
            .filter(|l| !golden.lines().any(|g| name_of(g) == name_of(l)));
        doc.extend(new.map(|l| l.as_str()));
        std::fs::write(GOLDEN, doc.join("\n") + "\n").expect("write golden cases");
        return;
    }
    let mut drift = String::new();
    for line in &lines {
        let name = name_of(line);
        match golden.lines().find(|g| name_of(g) == name) {
            Some(g) if g == line.as_str() => {}
            Some(g) => writeln!(drift, "  now:    {line}\n  golden: {g}").expect("write"),
            None => writeln!(drift, "  now:    {line}\n  golden: (no such row)").expect("write"),
        }
    }
    assert!(drift.is_empty(), "cusha drifted from {GOLDEN}:\n{drift}");
}

#[test]
fn cli_cases_match_the_golden_file() {
    let rows = parent_rows();
    let named = SAYS.iter().map(|s| s.0);
    for name in named.chain(SAME.iter().flat_map(|&(a, b)| [a, b])) {
        assert!(rows.iter().any(|r| r.name == name), "{name}: no such row");
    }
    check(&rows, "parent");
}

#[test]
fn closed_defects_stay_closed() {
    let rows = defect_rows();
    check(&rows, "defects");
    // What each row must be, spelled out (the golden line pins the bytes).
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden cases");
    let exit_of = |name: &str| {
        let line = golden.lines().find(|l| l.starts_with(name));
        let line = line.unwrap_or_else(|| panic!("{name}: no golden row"));
        line.split(" exit=")
            .nth(1)
            .and_then(|r| r.split(' ').next())
            .map(str::to_string)
    };
    for (name, code) in [
        ("defect/rmat-scale-32 ", "2"),
        ("defect/rmat-edges-huge ", "2"),
        ("defect/output-dev-full ", "1"),
        ("defect/inject-rate-nan ", "2"),
        ("defect/inject-rate-above-1 ", "2"),
        ("defect/inject-rate-negative ", "2"),
        ("defect/one-edge-4g ", "3"),
        ("defect/one-edge-300m ", "3"),
        ("defect/one-edge-4g-kcore ", "3"),
        ("defect/one-edge-4g-gs-streamed ", "3"),
        ("defect/one-edge-4g-cw-streamed ", "3"),
        ("defect/one-edge-4g-devices-2 ", "3"),
        ("defect/devices-4g ", "2"),
        ("defect/shard-size-over-shared ", "3"),
        ("defect/text-vertex-id-max ", "1"),
        ("defect/serve-growth ", "0"),
        ("defect/serve-growth-wal ", "0"),
        ("defect/kcore-transient-copy-fault ", "0"),
    ] {
        assert_eq!(exit_of(name).as_deref(), Some(code), "{name}");
    }
}

/// The grown-past-the-device mutation is refused typed, the service keeps
/// answering, and nothing reached its WAL: a restart on it still serves (the
/// golden rows pin the transcript's bytes; this names what they must say).
#[test]
fn oversized_growth_is_a_typed_mutate_error() {
    let dir = scratch("growth");
    let serve = |script: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_cusha"))
            .args(["serve", "--rmat", "8:600", "--wal"])
            .arg(dir.join("log.wal"))
            .arg("--script")
            .arg(dir.join(script))
            .output()
            .expect("spawn cusha");
        assert_eq!(out.status.code(), Some(0), "{script}");
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    let (stdout, restarted) = (serve("growth.txt"), serve("bfs.txt"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        restarted.contains("\"op\":\"bfs\",\"status\":\"ok\""),
        "{restarted}"
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let refused = lines.iter().find(|l| l.contains("\"op\":\"mutate\""));
    let refused = refused.expect("a mutate response");
    assert!(
        refused.contains("\"status\":\"error\",\"reason\":\"invalid\"")
            && refused.contains("device out of memory"),
        "{refused}"
    );
    assert!(lines.iter().any(|l| l.contains("\"epoch\":0,")), "{stdout}");
    let answers = lines
        .iter()
        .filter(|l| l.contains("\"op\":\"bfs\",\"status\":\"ok\""));
    assert_eq!(answers.count(), 2, "{stdout}");
}
