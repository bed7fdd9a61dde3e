//! `cusha` — run any of the eight paper benchmarks over a graph from disk
//! (SNAP-style edge list or the compact binary format) or a generator, on
//! any engine.
//!
//! ```text
//! cusha --algo bfs --input graph.txt [--engine cw|gs|cw-streamed|gs-streamed|vwc:8|mtcpu:4]
//!       [--source N] [--shard-size N] [--max-iters N] [--output out.txt]
//!       [--resident-bytes N] [--watchdog N] [--inject <fault-spec>]
//!       [--devices N] [--interconnect pcie|nvlink]
//! cusha --algo pagerank --rmat 16:1000000 --engine cw
//! cusha --algo pagerank --rmat 14:500000 --engine cw --devices 4 --interconnect nvlink
//! cusha --algo pagerank --rmat 12:40000 --engine cw-streamed \
//!       --resident-bytes 65536 --inject seed=7,alloc@2,h2d@5,h2d@9
//! ```
//!
//! `cusha serve` instead keeps the graph and shard layouts resident and
//! answers a stream of queries over stdin/stdout (line-delimited JSON or
//! REPL shorthand; see DESIGN.md §4.10):
//!
//! ```text
//! cusha serve --rmat 12:100000 [--engine cw|gs] [--queue-capacity N]
//!       [--cache-capacity N] [--deadline-ms MS]
//!       [--inject ...] [--integrity full] [--metrics-out m.json]
//! ```
//!
//! Exit codes: `0` success (including a capped, non-converged run), `1` IO
//! failure, `2` usage error, `3` unrecovered engine error, `4` modeled-time
//! deadline expired (`--timeout-ms`), `9` injected WAL crash (`--crash-at`).

use cusha::algos::{
    Bfs, CircuitSimulation, ConnectedComponents, HeatSimulation, NeuralNetwork, PageRank, Sssp,
    Sswp,
};
use cusha::baselines::{MtcpuEngine, VwcEngine};
use cusha::core::{
    run_engine, CuShaConfig, CuShaOutput, Engine, EngineError, IntegrityMode, MultiRunStats,
    NoopObserver, Placement, Repr, RunStats, ShardEngine, VertexProgram, MAX_DEVICES,
};
use cusha::frontier::{
    try_run_kcore, try_run_triangles, FrontierConfig, FrontierEngine, TriangleOutput,
    DEFAULT_DENSITY_THRESHOLD,
};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{io, Graph};
use cusha::obs::{chrome_trace_json, log, Level, MetricsRegistry, Tracer};
use cusha::serve::{
    run_session, CrashSpec, RebuildPolicy, ServeConfig, ServeEngine, Service, WalConfig,
};
use cusha::simt::{FaultPlan, Interconnect, Profile};

const EXIT_IO: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_ENGINE: i32 = 3;
const EXIT_DEADLINE: i32 = 4;
/// An injected WAL crash point fired (`--crash-at`): the process stops
/// cold, leaving the log exactly as a kill would, so recovery harnesses
/// can restart and assert the invariants.
const EXIT_CRASH: i32 = 9;

/// Why the process stops early: its exit code and what stderr says.
type Failure = (i32, String);

/// What the flags set. The engine and service configurations are filled in
/// place, so their defaults are the libraries'; `serving` is read under
/// `cusha serve` only.
struct Args {
    serve: bool,
    help: bool,
    algo: String,
    input: Option<String>,
    rmat: Option<RmatConfig>,
    engine: EngineSpec,
    cfg: CuShaConfig,
    serving: ServeConfig,
    source: u32,
    placement: Placement,
    density_threshold: f64,
    bitflips: Option<String>,
    output: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile_json: Option<String>,
    script: Option<String>,
    slow_log: Option<String>,
    wal: Option<String>,
    snapshot_every: u32,
    crash_at: Option<CrashSpec>,
}

impl Default for Args {
    /// The state before any flag.
    fn default() -> Self {
        Args {
            serve: false,
            help: false,
            algo: String::new(),
            input: None,
            rmat: None,
            engine: EngineSpec {
                name: "cw".into(),
                kind: EngineKind::Shard,
                repr: Repr::ConcatWindows,
            },
            cfg: CuShaConfig::cw(),
            serving: ServeConfig::default(),
            source: 0,
            placement: Placement::Resident,
            density_threshold: DEFAULT_DENSITY_THRESHOLD,
            bitflips: None,
            output: None,
            trace_out: None,
            metrics_out: None,
            profile_json: None,
            script: None,
            slow_log: None,
            wal: None,
            snapshot_every: 0,
            crash_at: None,
        }
    }
}

/// The engine family `--engine` selects.
#[derive(Clone, Copy, PartialEq)]
enum EngineKind {
    Shard,
    Streamed,
    Frontier,
    Vwc(usize),
    Mtcpu(usize),
}

/// A parsed `--engine` value: the name as typed (summaries and metric labels
/// show it), the family, and the representation the engine configuration
/// names (the CSR-based families ignore it).
struct EngineSpec {
    name: String,
    kind: EngineKind,
    repr: Repr,
}

impl EngineSpec {
    /// The `--engine` grammar.
    fn parse(name: &str) -> Result<Self, String> {
        let name = name.to_lowercase();
        let (kind, repr) = match (name.as_str(), name.split_once(':')) {
            ("cw", _) => (EngineKind::Shard, Repr::ConcatWindows),
            ("gs", _) => (EngineKind::Shard, Repr::GShards),
            ("cw-streamed", _) => (EngineKind::Streamed, Repr::ConcatWindows),
            ("gs-streamed", _) => (EngineKind::Streamed, Repr::GShards),
            ("frontier", _) => (EngineKind::Frontier, Repr::GShards),
            (_, Some(("vwc", width))) => (EngineKind::Vwc(nonzero(width)?), Repr::GShards),
            (_, Some(("mtcpu", threads))) => (EngineKind::Mtcpu(nonzero(threads)?), Repr::GShards),
            _ => return Err(expected(ENGINE_FORMS)),
        };
        Ok(EngineSpec { name, kind, repr })
    }

    /// The adapter [`run_engine`] drives: the engine the name selects, placed.
    fn build<P: VertexProgram>(&self, args: &Args) -> Box<dyn Engine<P>> {
        let (repr, placement) = (self.repr, args.placement.clone());
        match self.kind {
            EngineKind::Shard | EngineKind::Streamed => Box::new(ShardEngine { repr, placement }),
            EngineKind::Frontier => {
                let mut frontier = FrontierEngine::new();
                frontier.density_threshold = args.density_threshold;
                Box::new(frontier)
            }
            EngineKind::Vwc(width) => Box::new(VwcEngine::new(width)),
            EngineKind::Mtcpu(threads) => Box::new(MtcpuEngine::new(threads)),
        }
    }
}

/// Which invocations a flag applies to.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    OneShot,
    Serve,
    Both,
}
use Scope::{Both, OneShot, Serve};

/// Parses and range-checks a flag's value into its field; `Err` says why not.
type Setter = fn(&mut Args, &str) -> Result<(), String>;

/// One command-line flag — everything the parser, the cross-flag checks and
/// the synopsis of `--help` know about it: its name; the placeholder of its
/// value in the synopsis (empty for a switch); where it applies; a flag it is
/// meaningless without; how its value becomes a field.
type Flag = (
    &'static str,
    &'static str,
    Scope,
    Option<&'static str>,
    Setter,
);

const ALGO_NAMES: &str = "<bfs|sssp|pagerank|cc|sswp|nn|hs|cs|kcore|tc>";
const ENGINE_FORMS: &str =
    "<cw|gs|cw-streamed|gs-streamed|frontier|vwc:<2|4|8|16|32>|mtcpu:<threads>>";
const MODES: &str = "<off|checksum|invariant|full>";
const LEVELS: &str = "<error|warn|info|debug|trace>";
const LINKS: &str = "<pcie|nvlink>";
const POLICIES: &str = "<shed|serve-previous>";
const SPECS: &str = "<spec>[,<spec>...]";
const CRASHES: &str = "<mid-record|pre-commit|pre-apply>@<n>";
const DEVICES: &str = "--devices";
const RESIDENT_BYTES: &str = "--resident-bytes";
const WAL: &str = "--wal";

/// The flag table: one row per flag, the only place its name is spelled. To
/// add a flag, add a row (and the field it sets); the parse loop, the "needs
/// a value" / "bad value" / scope / prerequisite errors and the synopsis of
/// `--help` follow from it.
#[rustfmt::skip] // a table: one row per line
const FLAGS: &[Flag] = &[
    ("--algo", ALGO_NAMES, OneShot, None, |a, v| {
        let name = v.to_lowercase();
        put(&mut a.algo, one_of(algo(&name).map(|_| name), ALGO_NAMES))
    }),
    ("--input", "<edge-list-or-.bin>", Both, None, |a, v| some(&mut a.input, Ok(v.into()))),
    ("--rmat", "<scale>:<edges>", Both, None, |a, v| {
        let (scale, edges) = v.split_once(':').ok_or("expected <scale>:<edges>")?;
        let cfg = RmatConfig::graph500(number(scale)?, number(edges)?, 42);
        some(&mut a.rmat, cfg.validate().map(|()| cfg))
    }),
    ("--engine", ENGINE_FORMS, Both, None, |a, v| put(&mut a.engine, EngineSpec::parse(v))),
    ("--source", "<vertex>", OneShot, None, |a, v| put(&mut a.source, number(v))),
    ("--shard-size", "<N>", Both, None, |a, v| some(&mut a.cfg.vertices_per_shard, number(v))),
    ("--max-iters", "<n>", Both, None, |a, v| put(&mut a.cfg.max_iterations, number(v))),
    (RESIDENT_BYTES, "<bytes>", OneShot, None, |a, v| put(&mut a.placement, nonzero(v).map(Placement::streamed))),
    ("--watchdog", "<interval>", Both, None, |a, v| some(&mut a.cfg.watchdog_interval, number(v))),
    ("--timeout-ms", "<ms>", OneShot, None, |a, v| {
        some(&mut a.cfg.deadline_seconds, positive(v).map(|ms| ms / 1e3))
    }),
    ("--inject", SPECS, Both, None, |a, v| some(&mut a.cfg.fault_plan, FaultPlan::parse_inject(v))),
    ("--inject-bitflips", SPECS, Both, None, |a, v| some(&mut a.bitflips, Ok(v.into()))),
    ("--integrity", MODES, Both, None, |a, v| {
        put(&mut a.cfg.integrity.mode, one_of(IntegrityMode::parse(v), MODES))
    }),
    ("--checkpoint-every", "<iterations>", Both, None, |a, v| {
        put(&mut a.cfg.integrity.checkpoint_every, nonzero(v))
    }),
    (DEVICES, "<N>", OneShot, None, |a, v| match nonzero(v)? {
        n if n > MAX_DEVICES => Err(format!("a fleet has at most {MAX_DEVICES} devices")),
        n => put(fleet(a).0, Ok(n)),
    }),
    ("--interconnect", LINKS, OneShot, Some(DEVICES), |a, v| {
        put(fleet(a).1, one_of(Interconnect::from_name(v), LINKS))
    }),
    ("--density-threshold", "<d>", OneShot, None, |a, v| match number::<f64>(v)? {
        d if d.is_finite() && d >= 0.0 => put(&mut a.density_threshold, Ok(d)),
        _ => Err("must be finite and non-negative".into()),
    }),
    ("--output", "<path>", OneShot, None, |a, v| some(&mut a.output, Ok(v.into()))),
    ("--trace-out", "<path>", Both, None, |a, v| some(&mut a.trace_out, Ok(v.into()))),
    ("--metrics-out", "<path>", Both, None, |a, v| some(&mut a.metrics_out, Ok(v.into()))),
    ("--log-level", LEVELS, Both, None, |_, v| one_of(Level::parse(v), LEVELS).map(log::set_level)),
    ("--profile", "", OneShot, None, |a, _| put(&mut a.cfg.profile, Ok(true))),
    ("--profile-json", "<path>", OneShot, None, |a, v| {
        a.cfg.profile = true;
        some(&mut a.profile_json, Ok(v.into()))
    }),
    ("--queue-capacity", "<N>", Serve, None, |a, v| put(&mut a.serving.queue_capacity, nonzero(v))),
    ("--cache-capacity", "<N>", Serve, None, |a, v| put(&mut a.serving.cache_capacity, number(v))),
    ("--deadline-ms", "<ms>", Serve, None, |a, v| {
        some(&mut a.serving.default_deadline_ms, positive(v))
    }),
    ("--script", "<path>", Serve, None, |a, v| some(&mut a.script, Ok(v.into()))),
    ("--slow-log", "<path>", Serve, None, |a, v| some(&mut a.slow_log, Ok(v.into()))),
    ("--slo-latency-ms", "<ms>", Serve, None, |a, v| {
        put(&mut a.serving.slo.latency_objective_s, positive(v).map(|ms| ms / 1e3))
    }),
    ("--slo-window", "<N>", Serve, None, |a, v| put(&mut a.serving.slo.window, nonzero(v))),
    (WAL, "<path>", Serve, None, |a, v| some(&mut a.wal, Ok(v.into()))),
    ("--snapshot-every", "<N>", Serve, Some(WAL), |a, v| put(&mut a.snapshot_every, number(v))),
    ("--crash-at", CRASHES, Serve, Some(WAL), |a, v| some(&mut a.crash_at, CrashSpec::parse(v))),
    ("--rebuild-policy", POLICIES, Serve, None, |a, v| {
        put(&mut a.serving.rebuild_policy, one_of(RebuildPolicy::parse(v), POLICIES))
    }),
];

/// Stores a parsed value.
fn put<T>(field: &mut T, value: Result<T, String>) -> Result<(), String> {
    *field = value?;
    Ok(())
}

/// Stores a parsed value in an optional field.
fn some<T>(field: &mut Option<T>, value: Result<T, String>) -> Result<(), String> {
    put(field, value.map(Some))
}

/// A number of the field's type.
fn number<T: std::str::FromStr<Err: std::fmt::Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// The fleet `--devices` and `--interconnect` fill in, whichever comes first.
fn fleet(a: &mut Args) -> (&mut usize, &mut Interconnect) {
    if !matches!(a.placement, Placement::Fleet { .. }) {
        a.placement = Placement::fleet(1);
    }
    match &mut a.placement {
        Placement::Fleet {
            devices: n,
            interconnect: link,
            ..
        } => (n, link),
        _ => unreachable!("placed on a fleet above"),
    }
}

/// A count of at least one.
fn nonzero<T>(v: &str) -> Result<T, String>
where
    T: std::str::FromStr<Err: std::fmt::Display> + PartialEq + Default,
{
    match number::<T>(v)? {
        n if n == T::default() => Err("must be at least 1".into()),
        n => Ok(n),
    }
}

/// A finite amount above zero.
fn positive(v: &str) -> Result<f64, String> {
    match number::<f64>(v)? {
        x if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err("must be positive and finite".into()),
    }
}

/// What a value type's own `parse` recognised, or the forms it expects.
fn one_of<T>(parsed: Option<T>, forms: &str) -> Result<T, String> {
    parsed.ok_or_else(|| expected(forms))
}

/// "expected" and a synopsis placeholder without its angle brackets.
fn expected(forms: &str) -> String {
    format!("expected {}", &forms[1..forms.len() - 1])
}

/// Parses the command line: the flag loop, then the rules that span flags.
/// Never exits — `main` owns the process's one way out.
fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut given: Vec<&Flag> = Vec::new();
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if word == "serve" && !args.serve {
            args.serve = true;
            continue;
        }
        if word == "--help" || word == "-h" {
            args.help = true;
            return Ok(args);
        }
        let flag = FLAGS.iter().find(|(name, ..)| name == word);
        let flag @ &(name, value, _, _, set) =
            flag.ok_or_else(|| format!("unknown flag {word:?}"))?;
        let value = match value {
            "" => "",
            _ => words
                .next()
                .ok_or_else(|| format!("{name} needs a value"))?,
        };
        set(&mut args, value).map_err(|why| format!("bad value {value:?} for {name}: {why}"))?;
        given.push(flag);
    }
    for &&(name, _, scope, requires, _) in &given {
        match scope {
            Serve if !args.serve => return Err(format!("{name} applies to cusha serve only")),
            OneShot if args.serve => return Err(format!("{name} applies to one-shot runs only")),
            _ => {}
        }
        let unmet = |needed: &&str| !given.iter().any(|(given, ..)| given == needed);
        if let Some(needed) = requires.filter(unmet) {
            return Err(format!("{name} needs {needed}"));
        }
    }
    if args.algo.is_empty() && !args.serve {
        return Err("--algo is required".into());
    }
    if args.input.is_some() == args.rmat.is_some() {
        return Err("exactly one of --input or --rmat is required".into());
    }
    // The frontier-native workloads only exist on the frontier engine;
    // typing `--algo kcore` alone should just work.
    let native = algo(&args.algo).is_some_and(|(_, frontier_native, _)| *frontier_native);
    if native && args.engine.name == "cw" {
        args.engine = EngineSpec::parse("frontier")?;
    }
    // Which engines take such a workload, the service (it keeps prepared
    // engine state warm), and each flag that places the shard layout.
    let EngineSpec { name, kind, repr } = &args.engine;
    let asked = |flag| given.iter().any(|(given, ..)| *given == flag);
    use EngineKind::{Frontier, Shard, Streamed};
    #[rustfmt::skip] // a table: one row per line
    let takes = [
        (native.then_some(args.algo.as_str()), "frontier", &[Frontier][..]),
        (args.serve.then_some("cusha serve"), "cw/gs/frontier", &[Shard, Frontier]),
        (asked(DEVICES).then_some(DEVICES), "cw/gs", &[Shard]),
        (asked(RESIDENT_BYTES).then_some(RESIDENT_BYTES), "cw-streamed/gs-streamed", &[Streamed]),
    ];
    for (who, engines, runs) in takes {
        if let Some(who) = who.filter(|_| !runs.contains(kind)) {
            return Err(format!("{who} runs on {engines} engines, not {name:?}"));
        }
    }
    if *kind == Streamed && matches!(args.placement, Placement::Resident) {
        args.placement = Placement::streamed(16 << 20);
    }
    args.cfg.repr = *repr;
    // Bit flips merge into the --inject plan so a single seed drives both
    // transient faults and silent corruption.
    if let Some(spec) = args.bitflips.take() {
        let plan = args.cfg.fault_plan.take().unwrap_or_default();
        let plan = plan.parse_bitflips(&spec);
        let why_not = |why| format!("bad value {spec:?} for --inject-bitflips: {why}");
        args.cfg.fault_plan = Some(plan.map_err(why_not)?);
    }
    Ok(args)
}

/// `--help`: the synopsis, derived from [`FLAGS`], then the prose.
fn usage_text() -> String {
    let mut text = String::new();
    for (head, other) in [("usage: cusha", Serve), ("       cusha serve", OneShot)] {
        let mut line = head.to_string();
        for (name, value, ..) in FLAGS.iter().filter(|(_, _, scope, ..)| *scope != other) {
            let item = format!(" [{name} {value}");
            if line.len() + item.len() > 78 {
                text += &(line + "\n");
                line = " ".repeat(11);
            }
            line += &(item.trim_end().to_string() + "]");
        }
        text += &(line + "\n");
    }
    text + HELP_PROSE
}

const HELP_PROSE: &str = "\n\
         A one-shot run needs --algo; every run needs exactly one of --input\n\
         / --rmat; serve runs the cw, gs and frontier engines only.\n\
         \n\
         serve keeps the graph and prepared engine state resident (shard\n\
         layouts, or the frontier topology under --engine frontier) and answers a\n\
         stream of queries on stdin (or --script): one request per line,\n\
         one typed JSON response per query. REPL shorthand: `bfs 5`,\n\
         `sssp 9`, `sswp 3`, `reach 1 2 3`, `pagerank`, `cc`, `flush`,\n\
         `stats`, `quit`; or JSON like\n\
         \x20 {\"id\":1,\"op\":\"sssp\",\"source\":9,\"deadline_ms\":2.5}\n\
         Queries queue at admission (shed with status \"rejected\" when\n\
         --queue-capacity is exceeded) and run on `flush`. --deadline-ms\n\
         sets the default per-query modeled-time deadline; --cache-capacity\n\
         the LRU result cache (0 disables).\n\
         \n\
         Live mutation under serve: `insert <src> <dst> [weight]`,\n\
         `delete <src> <dst>`, or JSON like\n\
         \x20 {\"id\":2,\"op\":\"mutate\",\"insert\":[[9,1,5]],\"delete\":[[0,3]]}\n\
         Each batch is all-or-nothing: it commits, bumps the mutation\n\
         epoch and the graph revision (so cached answers for superseded\n\
         revisions are invalidated, and only those), and opens a rebuild\n\
         window until the next flush. --rebuild-policy picks what\n\
         in-window queries see: `shed` rejects them with status\n\
         \"rebuilding\" (strict freshness, the default); `serve-previous`\n\
         answers them from the previous epoch's still-valid prepared\n\
         state (bounded staleness, no availability dip). --wal makes\n\
         mutations durable: each batch is written to a checksummed\n\
         write-ahead log with fsync-modeled commit points before it is\n\
         applied, and on restart the service replays exactly the\n\
         committed prefix (torn tails truncated, uncommitted batches\n\
         discarded, checksum corruption refused). --snapshot-every N\n\
         compacts the log into a <wal>.snap binary snapshot every N\n\
         batches. --crash-at kills the service (exit code 9) at a\n\
         deterministic point while committing batch <n> — mid-record,\n\
         pre-commit, or post-commit/pre-apply — for crash-recovery\n\
         testing.\n\
         \n\
         --timeout-ms (any one-shot engine) cancels the run with a typed\n\
         deadline error (exit code 4) at the first iteration boundary past\n\
         that much modeled time (wall-clock time for mtcpu).\n\
         \n\
         --engine frontier runs the frontier-operator engine: advance /\n\
         filter / compute over an explicit frontier with automatic push-pull\n\
         direction switching on frontier edge density (--density-threshold,\n\
         default 0.35: pull when the frontier's out-edges cover that\n\
         fraction of all edges; 0 pins pull, >1 pins push). --algo kcore\n\
         (core numbers via iterative peeling) and --algo tc (triangle\n\
         counting by oriented intersection) are frontier-native and imply\n\
         it.\n\
         \n\
         --trace-out writes a Chrome trace-event JSON of the run (load it\n\
         in chrome://tracing or https://ui.perfetto.dev): one process lane\n\
         per device plus per-SM rows, with iteration, kernel-phase, copy,\n\
         halo-exchange and fault-recovery spans on the modeled clock.\n\
         --metrics-out writes a flat versioned metrics JSON snapshot\n\
         (efficiencies, timings, fault counters, per-device breakdown;\n\
         cusha-metrics/v2 with log-bucketed quantile histograms).\n\
         --profile prints an nvprof-style per-kernel report (occupancy,\n\
         replayed transactions, arithmetic intensity, memory-/latency-bound\n\
         roofline classification) plus the metrics snapshot to stderr;\n\
         --profile-json also writes the cusha-profile/v1 JSON (implies\n\
         --profile).\n\
         \n\
         Under serve, `stats` returns live p50/p99 latency, cache hit\n\
         rate, shed count and SLO burn rates over a sliding window\n\
         (--slo-latency-ms sets the latency objective, default 50 ms of\n\
         modeled time; --slo-window the window size, default 256);\n\
         --slow-log writes the slowest queries as JSON lines on exit.\n\
         \n\
         --devices runs the cw/gs engine over a fleet of N simulated GPUs\n\
         (edge-balanced shard partitions, per-iteration halo exchange over\n\
         the modeled interconnect; --inject faults land on device 0).\n\
         \n\
         fault-injection specs (deterministic; see DESIGN.md):\n\
         \x20 seed=<u64>      seed for rate-based faults\n\
         \x20 h2d@<i>  d2h@<i>  alloc@<i>  kernel@<i>   fail op #i of that kind\n\
         \x20 h2d%<rate> d2h%<rate> alloc%<rate> kernel%<rate>  seeded random faults\n\
         \x20 kernel~<pattern>:<count>   fail next <count> launches matching <pattern>\n\
         \n\
         bit-flip specs for --inject-bitflips (silent corruption; a seed\n\
         may come from either flag):\n\
         \x20 seed=<u64>      seed for rate-based flips\n\
         \x20 rate=<p>        seeded random flip probability per flip point\n\
         \x20 <vv|sv|win>@<i>:<word>:<bit>   flip that bit at flip point #i\n\
         \x20                 (vv = vertex values, sv = src values, win = windows)\n\
         \n\
         --integrity arms the silent-data-corruption defense: checksum\n\
         scrubs, per-algorithm invariant checks, or both (full), with\n\
         checkpoint/rollback recovery every --checkpoint-every iterations\n\
         (default 4).";

/// Stderr chatter: `say!(Info, ..)` is silenced by `--log-level warn` or
/// lower, `say!(Warn, ..)` (the fault-recovery summaries) only by
/// `--log-level error`. Errors always print unconditionally.
macro_rules! say {
    ($level:ident, $($message:tt)*) => {
        if log::enabled(Level::$level) {
            eprintln!("cusha: {}", format_args!($($message)*));
        }
    };
}

/// The graph the run is over: generated, or loaded by extension.
fn load_graph(args: &Args) -> Result<Graph, Failure> {
    if let Some(cfg) = &args.rmat {
        return Ok(rmat(cfg));
    }
    let path = args.input.as_deref().unwrap_or_default();
    let loaded = match path.ends_with(".bin") {
        true => io::load_binary(path),
        false => io::load_edge_list(path),
    };
    loaded.map_err(|e| (EXIT_IO, format!("cannot load {path}: {e}")))
}

/// The one way out of a failed engine call: a capped run degrades to its
/// partial output (the historical CLI behavior); a deadline is exit 4 and
/// every other error exit 3, tagged with the error's taxonomy.
fn failed<V>(e: EngineError<V>) -> Result<CuShaOutput<V>, Failure> {
    let code = match e {
        EngineError::NonConverged { partial } => return Ok(*partial),
        EngineError::Deadline { .. } => EXIT_DEADLINE,
        _ => EXIT_ENGINE,
    };
    Err((code, format!("engine error [{}]: {e}", e.kind())))
}

/// What a one-shot run reads.
#[derive(Clone, Copy)]
struct Run<'a> {
    args: &'a Args,
    graph: &'a Graph,
}

/// A finished run: its statistics and one printable line per value.
type Ran = Result<(RunStats, Vec<String>), Failure>;

/// One `--algo` row: its names (metrics carry the first for a frontier-native
/// one, the typed one otherwise), whether only the frontier engine has it, and
/// how it runs.
type Algo = (&'static [&'static str], bool, fn(Run<'_>) -> Ran);

/// The algorithm table: each algorithm named once, with its value formatter.
#[rustfmt::skip] // a table: one row per line
const ALGOS: &[Algo] = &[
    (&["bfs"], false, |r| r.vertex(&Bfs::new(r.args.source), distance)),
    (&["sssp"], false, |r| r.vertex(&Sssp::new(r.args.source), distance)),
    (&["pagerank", "pr"], false, |r| r.vertex(&PageRank::new(), |v| format!("{v:.6}"))),
    (&["cc"], false, |r| r.vertex(&ConnectedComponents::new(), u32::to_string)),
    (&["sswp"], false, |r| r.vertex(&Sswp::new(r.args.source), distance)),
    (&["nn"], false, |r| r.vertex(&NeuralNetwork::new(), |v| format!("{v:.6}"))),
    (&["hs"], false, |r| r.vertex(&HeatSimulation::new(), |v| format!("{:.4}", v.0))),
    (&["cs"], false, |r| {
        let ground = r.graph.num_vertices().saturating_sub(1);
        r.vertex(&CircuitSimulation::new(r.args.source, ground), |v| format!("{:.6}", v.0))
    }),
    (&["kcore"], true, |r| r.kcore()),
    (&["tc", "triangles"], true, |r| r.triangles()),
];

fn algo(name: &str) -> Option<&'static Algo> {
    ALGOS.iter().find(|(names, ..)| names.contains(&name))
}

/// A hop count or distance; unreachable prints `inf`.
fn distance(v: &u32) -> String {
    match *v {
        u32::MAX => "inf".to_string(),
        v => v.to_string(),
    }
}

impl Run<'_> {
    /// A vertex program on the `--engine` adapter. Every engine funnels
    /// through the same middleware entry point (`run_engine`): validation,
    /// the fault plan and deadline enforcement are applied in one place
    /// regardless of which engine runs underneath; every device retries its
    /// own transient copy/kernel faults, and `--integrity` reaches each
    /// device engine's own recovery ladder.
    fn vertex<P: VertexProgram>(self, prog: &P, show: impl Fn(&P::V) -> String) -> Ran {
        let mut engine = self.args.engine.build::<P>(self.args);
        let cfg = &self.args.cfg;
        let ran = run_engine(&mut *engine, prog, self.graph, cfg, None, &mut NoopObserver);
        let out = ran.or_else(failed)?;
        let lines = out.values.iter().map(show).collect();
        Ok((out.stats, lines))
    }

    /// The frontier crate's configuration for its native workloads, which
    /// bypass `run_engine` (no `VertexProgram`).
    fn frontier_cfg(self) -> FrontierConfig {
        let cfg = FrontierConfig::from_cusha(&self.args.cfg);
        cfg.with_density_threshold(self.args.density_threshold)
    }

    fn kcore(self) -> Ran {
        let ran = try_run_kcore(self.graph, &self.frontier_cfg(), None, &mut NoopObserver);
        let ran = ran.map(|out| CuShaOutput {
            values: out.core,
            stats: out.stats,
        });
        let out = ran.or_else(failed)?;
        Ok((out.stats, out.values.iter().map(u32::to_string).collect()))
    }

    fn triangles(self) -> Ran {
        // One kernel, no iteration cap to hit: a "capped" count has no value.
        let uncounted = |capped: CuShaOutput<u32>| TriangleOutput {
            triangles: 0,
            stats: capped.stats,
        };
        let ran = try_run_triangles(self.graph, &self.frontier_cfg());
        let out = ran.or_else(|e| failed(e).map(uncounted))?;
        say!(Info, "triangles: {}", out.triangles);
        Ok((out.stats, vec![out.triangles.to_string()]))
    }
}

/// The run's summary on stderr: the statistics line, the fleet line when the
/// multi engine ran, and the recovery lines of a run that was not clean.
fn report(stats: &RunStats, fleet: Option<&MultiRunStats>, engine: &EngineSpec) {
    let clock = match engine.kind {
        EngineKind::Mtcpu(_) => "measured",
        _ => "modeled",
    };
    say!(
        Info,
        "{} ({}) {} iterations, converged: {}, {:.3} ms {clock}",
        stats.engine,
        engine.name,
        stats.iterations,
        stats.converged,
        stats.total_ms(),
    );
    if let Some(f) = fleet {
        let healthy = |mode| matches!(mode, "resident" | "idle");
        let degraded = match f.per_device.iter().filter(|d| !healthy(d.mode)).count() {
            0 => String::new(),
            degraded => format!(", {degraded} device(s) degraded"),
        };
        say!(
            Info,
            "fleet: {} devices over {}, {} halo bytes exchanged in {:.3} ms, \
             load imbalance {:.3}{degraded}",
            f.devices,
            f.interconnect,
            f.exchange_bytes,
            f.exchange_seconds * 1e3,
            f.load_imbalance,
        );
    }
    if !stats.fault.is_clean() {
        say!(
            Warn,
            "recovered from faults: {} copy retries ({:.3} ms backoff), \
             {} kernel retries, {} OOM rebatches, {} degradations",
            stats.fault.copy_retries,
            stats.fault.backoff_seconds * 1e3,
            stats.fault.kernel_retries,
            stats.fault.oom_rebatches,
            stats.fault.degradations,
        );
    }
    if !stats.sdc.is_clean() || stats.sdc.flips_injected > 0 {
        say!(
            Warn,
            "silent-data-corruption: {} bit flips injected, {} detected \
             ({} checksum, {} invariant); {} rollbacks, {} full restarts, \
             {} host fallbacks, {} iterations re-executed",
            stats.sdc.flips_injected,
            stats.sdc.detections(),
            stats.sdc.checksum_detections,
            stats.sdc.invariant_detections,
            stats.sdc.rollbacks,
            stats.sdc.full_restarts,
            stats.sdc.host_fallbacks,
            stats.sdc.reexecuted_iterations,
        );
    }
}

/// The one way a file leaves the process: the text goes to `path` unbuffered,
/// so a full disk is an error here and not a silently short file; any IO
/// error is exit 1. No path, no file.
fn write_artifact(
    path: &Option<String>,
    what: &str,
    text: impl FnOnce() -> String,
) -> Result<(), Failure> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, text()).map_err(|e| (EXIT_IO, format!("cannot write {path}: {e}")))?;
    say!(Info, "wrote {what} to {path}");
    Ok(())
}

/// `--trace-out` and `--metrics-out`, which both modes write on the way out.
fn write_telemetry(args: &Args, metrics: &MetricsRegistry) -> Result<(), Failure> {
    let tracer = &args.cfg.trace;
    let events = format!("{} trace events", tracer.event_count());
    write_artifact(&args.trace_out, &events, || chrome_trace_json(tracer))?;
    let series = format!("{} metric series", metrics.len());
    write_artifact(&args.metrics_out, &series, || metrics.to_json())
}

/// `cusha serve`: runs the resident service loop over stdin/stdout (or
/// `--script`), writing its artifacts on exit.
fn serve(mut args: Args, graph: Graph) -> Result<(), Failure> {
    say!(
        Info,
        "{} vertices, {} edges; serving queries on {} (queue {}, cache {})",
        graph.num_vertices(),
        graph.num_edges(),
        args.engine.name,
        args.serving.queue_capacity,
        args.serving.cache_capacity,
    );
    let cfg = ServeConfig {
        engine: match args.engine.kind {
            EngineKind::Frontier => ServeEngine::Frontier,
            _ => ServeEngine::Shard,
        },
        repr: args.cfg.repr,
        vertices_per_shard: args.cfg.vertices_per_shard,
        max_iterations: args.cfg.max_iterations,
        watchdog_interval: args.cfg.watchdog_interval,
        integrity: args.cfg.integrity,
        fault_plan: args.cfg.fault_plan.take(),
        trace: args.cfg.trace.clone(),
        wal: args.wal.as_ref().map(|path| WalConfig {
            path: path.into(),
            snapshot_every: args.snapshot_every,
            crash: args.crash_at,
        }),
        ..args.serving.clone()
    };
    let started = Service::new(graph, cfg);
    let mut svc = started.map_err(|e| (EXIT_IO, format!("cannot start service: {e}")))?;
    if let Some(rec) = svc.recovery() {
        say!(
            Info,
            "WAL recovery from {}: epoch {}, {} batches replayed, {} torn bytes truncated, \
             {} uncommitted discarded",
            rec.source.label(),
            rec.epoch,
            rec.replayed_batches,
            rec.truncated_bytes,
            rec.discarded_uncommitted,
        );
    }

    let mut out = std::io::stdout().lock();
    let session = match &args.script {
        Some(path) => {
            let script = std::fs::File::open(path);
            let script = script.map_err(|e| (EXIT_IO, format!("cannot open {path}: {e}")))?;
            run_session(&mut svc, std::io::BufReader::new(script), &mut out)
        }
        None => run_session(&mut svc, std::io::stdin().lock(), &mut out),
    };
    drop(out);
    session.map_err(|e| (EXIT_IO, format!("session IO error: {e}")))?;
    if let Some(point) = svc.injected_crash() {
        // A real crash writes no artifacts: stop exactly where the kill
        // landed so the recovery harness sees the same on-disk state a
        // power cut would leave.
        let at = format!("injected crash at {} commit point", point.label());
        return Err((EXIT_CRASH, at));
    }

    let slow = &svc.telemetry().slow;
    let records = format!("{} slow-query records", slow.entries().len());
    write_artifact(&args.slow_log, &records, || slow.render())?;
    svc.sync_trace_drops();
    write_telemetry(&args, svc.metrics())
}

/// A one-shot run: the algorithm on the engine, its report, its artifacts,
/// its values.
fn one_shot(args: &Args, graph: &Graph) -> Result<(), Failure> {
    let (vertices, edges) = (graph.num_vertices(), graph.num_edges());
    let (algo_name, engine) = (&args.algo, &args.engine.name);
    say!(
        Info,
        "{vertices} vertices, {edges} edges; running {algo_name} on {engine}"
    );
    if args.source >= vertices && vertices > 0 {
        let source = args.source;
        let why = format!("bad value {source} for --source: graph has {vertices} vertices");
        return Err((EXIT_USAGE, why));
    }
    let &(names, frontier_native, run) =
        algo(algo_name).ok_or((EXIT_USAGE, expected(ALGO_NAMES)))?;
    let (stats, lines) = run(Run { args, graph })?;
    // A fleet adds its per-device series; a capped run reports flat, fleet or not.
    let fleet = stats.fleet.as_deref().filter(|_| stats.converged);
    report(&stats, fleet, &args.engine);
    let algo_label = if frontier_native { names[0] } else { algo_name };
    let labels: &[(&str, &str)] = &[("algo", algo_label), ("engine", engine)];
    let mut metrics = MetricsRegistry::new();
    match fleet {
        Some(fleet) => fleet.record_metrics(&mut metrics, labels),
        None => stats.record_metrics(&mut metrics, labels),
    }

    // A saturated trace ring is silent data loss for the observer; make
    // it loud in the metrics snapshot and the profile report.
    let trace_dropped = args.cfg.trace.dropped_count();
    if trace_dropped > 0 {
        metrics.add("obs_trace_dropped", &[], trace_dropped);
    }
    if args.cfg.profile {
        // Unified profile report on stderr: nvprof-style per-kernel lines
        // (when the engine retained a launch history) plus the metrics
        // snapshot.
        if let Some(p) = &stats.profile {
            eprint!("{}", p.report());
        }
        if trace_dropped > 0 {
            say!(
                Warn,
                "tracer dropped {trace_dropped} events (ring full) — the trace \
                 and span-derived numbers undercount"
            );
        }
        eprint!("{}", metrics.render_text());
    }
    write_artifact(&args.profile_json, "kernel profile", || {
        let profile = stats.profile.as_ref();
        profile.map_or_else(|| Profile::default().to_json(), Profile::to_json)
    })?;
    write_telemetry(args, &metrics)?;

    let numbered = |lines: &[String]| -> String {
        let numbered = lines.iter().enumerate();
        numbered.map(|(v, line)| format!("{v} {line}\n")).collect()
    };
    if args.output.is_some() {
        let values = format!("{} values", lines.len());
        return write_artifact(&args.output, &values, || numbered(&lines));
    }
    // Print the first few values as a preview.
    print!("{}", numbered(&lines[..lines.len().min(10)]));
    if lines.len() > 10 {
        println!("... ({} more; use --output to save all)", lines.len() - 10);
    }
    Ok(())
}

/// Everything between the command line and the exit code.
fn run(argv: &[String]) -> Result<(), Failure> {
    let mut args = parse(argv).map_err(|why| (EXIT_USAGE, why))?;
    if args.help {
        println!("{}", usage_text());
        return Ok(());
    }
    let graph = load_graph(&args)?;
    // The tracer stays a no-op handle unless a trace is actually wanted, so
    // plain runs take the zero-allocation disabled path.
    if args.trace_out.is_some() {
        args.cfg.trace = Tracer::enabled();
    }
    match args.serve {
        true => serve(args, graph),
        false => one_shot(&args, &graph),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err((code, why)) = run(&argv) {
        eprintln!("cusha: {why}");
        if code == EXIT_USAGE {
            eprintln!("cusha: run with --help for usage");
        }
        std::process::exit(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `parse` over a whitespace-separated command line.
    fn parsed(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    /// Per flag: a value it takes, and one it refuses (`""` for a flag that
    /// takes any text). A row added to `FLAGS` must be added here.
    const SAMPLES: &[(&str, &str, &str)] = &[
        ("--algo", "pagerank", "nope"),
        ("--input", "graph.txt", ""),
        ("--rmat", "8:600", "32:10"),
        ("--engine", "vwc:8", "vwc:0"),
        ("--source", "7", "-1"),
        ("--shard-size", "64", "many"),
        ("--max-iters", "50", "1.5"),
        ("--resident-bytes", "4096 --engine cw-streamed", "0"),
        ("--watchdog", "4", "x"),
        ("--timeout-ms", "2.5", "0"),
        ("--inject", "seed=7,alloc@2,h2d%0.5", "h2d%7.5"),
        ("--inject-bitflips", "seed=1,rate=0.5", "seed=1,rate=2"),
        ("--integrity", "full", "maybe"),
        ("--checkpoint-every", "2", "0"),
        ("--devices", "2", "0"),
        ("--interconnect", "nvlink", "warp"),
        ("--density-threshold", "0", "-0.5"),
        ("--output", "out.txt", ""),
        ("--trace-out", "t.json", ""),
        ("--metrics-out", "m.json", ""),
        ("--log-level", "info", "loud"),
        ("--profile", "", ""),
        ("--profile-json", "p.json", ""),
        ("--queue-capacity", "16", "0"),
        ("--cache-capacity", "0", "-1"),
        ("--deadline-ms", "5", "nan"),
        ("--script", "q.txt", ""),
        ("--slow-log", "s.jsonl", ""),
        ("--slo-latency-ms", "0.5", "inf"),
        ("--slo-window", "4", "0"),
        ("--wal", "log.wal", ""),
        ("--snapshot-every", "2", "two"),
        ("--crash-at", "pre-commit@1", "nowhere@1"),
        ("--rebuild-policy", "serve-previous", "never"),
    ];

    /// A command line on which `flag value` is in scope and has what it needs.
    fn line_with(flag: &Flag, value: &str) -> String {
        let &(name, _, scope, requires, _) = flag;
        let mode = if scope == Serve {
            "serve"
        } else {
            "--algo bfs"
        };
        let graph = if matches!(name, "--input" | "--rmat") {
            ""
        } else {
            "--rmat 8:600"
        };
        let needed = SAMPLES.iter().find(|(n, ..)| Some(*n) == requires);
        let needed = needed.map_or(String::new(), |(n, v, _)| format!("{n} {v}"));
        format!("{mode} {graph} {needed} {name} {value}")
    }

    #[test]
    fn every_row_takes_a_valid_value_and_names_itself_refusing_a_bad_one() {
        assert_eq!(SAMPLES.len(), FLAGS.len(), "one sample per table row");
        for flag in FLAGS {
            let &(name, placeholder, ..) = flag;
            let sample = SAMPLES.iter().find(|(n, ..)| *n == name);
            let &(_, good, bad) = sample.unwrap_or_else(|| panic!("{name}: no sample"));
            if let Err(why) = parsed(&line_with(flag, good)) {
                panic!("{name} {good}: {why}");
            }
            if !bad.is_empty() {
                let why = parsed(&line_with(flag, bad)).err();
                let why = why.unwrap_or_else(|| panic!("{name} {bad} was accepted"));
                assert!(
                    why.contains(name) && why.contains(bad),
                    "{name} {bad}: {why}"
                );
            }
            if !placeholder.is_empty() {
                let argv = [name.to_string()];
                let why = parse(&argv).err().expect("a missing value is refused");
                assert_eq!(why, format!("{name} needs a value"));
            }
        }
    }

    #[test]
    fn values_land_in_their_fields() {
        let a = parsed(
            "--algo SSSP --rmat 9:700 --engine GS-Streamed --source 3 --shard-size 64 \
             --max-iters 50 --resident-bytes 4096 --watchdog 4 --timeout-ms 2.5 \
             --inject seed=7,h2d@1 --inject-bitflips rate=0.5 --integrity full \
             --checkpoint-every 2 --density-threshold 0.5 --output o --trace-out t \
             --metrics-out m --profile-json p",
        )
        .expect("valid line");
        assert_eq!((a.algo.as_str(), a.source), ("sssp", 3));
        assert!(matches!(
            a.placement,
            Placement::Streamed {
                bytes: 4096,
                overlap: true
            }
        ));
        assert_eq!(
            a.rmat.map(|r| (r.scale, r.edges, r.seed)),
            Some((9, 700, 42))
        );
        assert_eq!(a.engine.name, "gs-streamed");
        assert!(a.engine.kind == EngineKind::Streamed && a.cfg.repr == Repr::GShards);
        assert_eq!(a.cfg.vertices_per_shard, Some(64));
        assert_eq!(
            (a.cfg.max_iterations, a.cfg.watchdog_interval),
            (50, Some(4))
        );
        assert_eq!(a.cfg.deadline_seconds, Some(2.5e-3));
        let plan = a.cfg.fault_plan.expect("merged plan");
        assert!(
            plan.seed() == Some(7) && plan.has_bitflips(),
            "one seed drives both"
        );
        assert_eq!(a.cfg.integrity.mode, IntegrityMode::Full);
        assert_eq!(
            (a.cfg.integrity.checkpoint_every, a.density_threshold),
            (2, 0.5)
        );
        assert!(a.cfg.profile, "--profile-json implies --profile");
        let paths = [a.output, a.trace_out, a.metrics_out, a.profile_json];
        assert_eq!(
            paths.map(|p| p.unwrap_or_default()),
            ["o", "t", "m", "p"].map(String::from)
        );

        let s = parsed(
            "serve --input g.bin --engine frontier --queue-capacity 16 --cache-capacity 0 \
             --deadline-ms 5 --script q --slow-log s --slo-latency-ms 0.5 \
             --slo-window 4 --wal w --snapshot-every 2 --crash-at pre-apply@3 \
             --rebuild-policy serve-previous",
        )
        .expect("valid serve line");
        assert!(s.serve && s.engine.kind == EngineKind::Frontier);
        let serving = &s.serving;
        assert_eq!((serving.queue_capacity, serving.cache_capacity), (16, 0));
        assert_eq!(serving.default_deadline_ms, Some(5.0));
        assert_eq!(
            (serving.slo.latency_objective_s, serving.slo.window),
            (0.5e-3, 4)
        );
        assert_eq!(serving.rebuild_policy, RebuildPolicy::ServePrevious);
        assert_eq!((s.wal.as_deref(), s.snapshot_every), (Some("w"), 2));
        assert_eq!(s.crash_at, CrashSpec::parse("pre-apply@3").ok());
        assert_eq!(
            (s.input.as_deref(), s.script.as_deref()),
            (Some("g.bin"), Some("q"))
        );
        assert_eq!(s.slow_log.as_deref(), Some("s"));
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        let a = parsed("--algo bfs --rmat 8:600").expect("minimal line");
        assert_eq!(a.engine.name, "cw");
        assert!(a.engine.kind == EngineKind::Shard && a.cfg.repr == Repr::ConcatWindows);
        assert!(matches!(a.placement, Placement::Resident));
        assert_eq!(a.cfg.max_iterations, 10_000);
        let streamed = parsed("--algo bfs --rmat 8:600 --engine gs-streamed").expect("streamed");
        let Placement::Streamed { bytes, overlap } = streamed.placement else {
            panic!("a streamed engine is placed streamed")
        };
        assert_eq!((bytes, overlap), (16 << 20, true));
        let fleet = parsed("--algo bfs --rmat 8:600 --interconnect nvlink --devices 3");
        let Placement::Fleet {
            devices,
            interconnect,
            ..
        } = fleet.expect("fleet").placement
        else {
            panic!("--devices places the run on a fleet")
        };
        assert_eq!((devices, interconnect.name), (3, "nvlink"));
        let serving = &a.serving;
        assert_eq!((serving.queue_capacity, serving.cache_capacity), (64, 128));
        assert_eq!(a.snapshot_every, 0);
        assert_eq!(
            (a.source, a.density_threshold),
            (0, DEFAULT_DENSITY_THRESHOLD)
        );
        assert_eq!(a.cfg.integrity.mode, IntegrityMode::Off);
        assert!(a.cfg.vertices_per_shard.is_none() && a.cfg.fault_plan.is_none());
        assert!(a.cfg.deadline_seconds.is_none() && !a.cfg.profile && !a.serve && !a.help);
        assert!(serving.default_deadline_ms.is_none() && serving.wal.is_none());
    }

    #[test]
    fn scope_and_prerequisites_hold_for_every_row_that_declares_them() {
        for flag in FLAGS {
            let &(name, _, scope, requires, _) = flag;
            let (_, value, _) = SAMPLES.iter().find(|(n, ..)| *n == name).expect("sample");
            let elsewhere = match scope {
                Serve => Some(format!("--algo bfs --rmat 8:600 {name} {value}")),
                OneShot => Some(format!("serve --rmat 8:600 {name} {value}")),
                Both => None,
            };
            if let Some(line) = elsewhere {
                let why = parsed(&line)
                    .err()
                    .unwrap_or_else(|| panic!("accepted: {line}"));
                assert!(why.contains(name) && why.contains("only"), "{line}: {why}");
            }
            if let Some(needed) = requires {
                let mode = if scope == Serve {
                    "serve"
                } else {
                    "--algo bfs"
                };
                let line = format!("{mode} --rmat 8:600 {name} {value}");
                let why = parsed(&line)
                    .err()
                    .unwrap_or_else(|| panic!("accepted: {line}"));
                assert_eq!(why, format!("{name} needs {needed}"), "{line}");
            }
        }
        let declared = FLAGS
            .iter()
            .filter(|(_, _, scope, needs, _)| *scope != Both || needs.is_some());
        assert!(
            declared.count() > 8,
            "more rows are checked than the parent spelled out"
        );
    }

    #[test]
    fn rules_that_span_flags() {
        let refused = |line: &str, names: &str| {
            let why = parsed(line)
                .err()
                .unwrap_or_else(|| panic!("accepted: {line}"));
            assert!(why.contains(names), "{line}: {why}");
        };
        refused("--rmat 8:600", "--algo is required");
        refused("--algo bfs", "--input or --rmat");
        refused("--algo bfs --rmat 8:600 --input g.txt", "--input or --rmat");
        refused(
            "--algo bfs --rmat 8:600 --bogus",
            "unknown flag \"--bogus\"",
        );
        refused("serve --rmat 8:600 --engine vwc:8", "vwc:8");
        refused("serve --rmat 8:600 --engine cw-streamed", "cw-streamed");
        refused(
            "--algo kcore --rmat 8:600 --engine gs",
            "kcore runs on frontier",
        );
        refused(
            "--algo tc --rmat 8:600 --engine vwc:8",
            "tc runs on frontier",
        );
        refused(
            "--algo bfs --rmat 8:600 --devices 2 --engine frontier",
            "--devices",
        );
        refused(
            "--algo bfs --rmat 8:600 --devices 2 --engine gs-streamed",
            "--devices",
        );
        for engine in ["cw", "gs", "frontier", "vwc:8", "mtcpu:2"] {
            let line = format!("--algo bfs --rmat 8:600 --resident-bytes 4096 --engine {engine}");
            refused(&line, "--resident-bytes");
        }
        refused(
            "--algo bfs --rmat 8:600 --engine cw-streamed --resident-bytes 4096 --devices 2",
            "--devices",
        );
        refused("--algo bfs --rmat 8:600 --inject-bitflips rate=0.5", "seed");
        refused("serve serve --rmat 8:600", "unknown flag \"serve\"");
        // `kcore` / `tc` imply the frontier engine; cw/gs take the fleet.
        for line in [
            "--algo kcore --rmat 8:600",
            "--algo triangles --rmat 8:600 --engine frontier",
        ] {
            let a = parsed(line).expect(line);
            assert!(a.engine.kind == EngineKind::Frontier && a.engine.name == "frontier");
        }
        assert!(parsed("--algo bfs --rmat 8:600 --engine gs --devices 3").is_ok());
        assert!(
            parsed("serve --rmat 8:600").is_ok(),
            "serve needs no --algo"
        );
        // A later flag wins; --help stops the parse.
        let a = parsed("--algo bfs --algo cc --rmat 8:600").expect("repeated flag");
        assert_eq!(a.algo, "cc");
        assert!(parsed("--help --bogus").is_ok_and(|a| a.help));
        assert!(parsed("--algo bfs -h").is_ok_and(|a| a.help));
    }

    #[test]
    fn engine_grammar() {
        for (name, kind, repr) in [
            ("cw", EngineKind::Shard, Repr::ConcatWindows),
            ("gs", EngineKind::Shard, Repr::GShards),
            ("CW-streamed", EngineKind::Streamed, Repr::ConcatWindows),
            ("gs-streamed", EngineKind::Streamed, Repr::GShards),
            ("frontier", EngineKind::Frontier, Repr::GShards),
            ("vwc:32", EngineKind::Vwc(32), Repr::GShards),
            ("mtcpu:4", EngineKind::Mtcpu(4), Repr::GShards),
        ] {
            let spec = EngineSpec::parse(name).expect(name);
            assert!(spec.kind == kind && spec.repr == repr, "{name}");
            assert_eq!(spec.name, name.to_lowercase());
        }
        for bad in [
            "nope", "vwc", "vwc:", "vwc:0", "vwc:wide", "mtcpu:0", "gs:2", "",
        ] {
            assert!(EngineSpec::parse(bad).is_err(), "{bad:?} was accepted");
        }
        let forms = EngineSpec::parse("nope").err().expect("refused");
        assert!(
            forms.contains("cw-streamed") && forms.contains("mtcpu:<threads>"),
            "{forms}"
        );
    }

    #[test]
    fn every_algorithm_name_dispatches_and_is_documented() {
        let typed = [
            "bfs", "sssp", "pagerank", "pr", "cc", "sswp", "nn", "hs", "cs", "kcore", "tc",
        ];
        for name in typed.iter().chain(&["triangles"]) {
            assert!(algo(name).is_some(), "{name}");
        }
        assert!(algo("nope").is_none() && algo("").is_none());
        for (names, ..) in ALGOS {
            assert!(
                ALGO_NAMES.contains(names[0]),
                "{} missing from --help",
                names[0]
            );
        }
    }

    #[test]
    fn help_and_readme_name_every_flag() {
        let help = usage_text();
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"));
        let readme = readme.expect("read README.md");
        for &(name, value, scope, ..) in FLAGS {
            // Once per synopsis block it belongs to, with its placeholder.
            let item = format!("[{name} {value}").trim_end().to_string() + "]";
            let listed = help.matches(&item).count();
            assert_eq!(
                listed,
                if scope == Both { 2 } else { 1 },
                "{item} in --help"
            );
            assert!(
                readme.contains(&format!("`{name}")),
                "{name} missing from README.md"
            );
        }
        assert!(
            help.starts_with("usage: cusha [--algo <bfs|sssp|"),
            "{help}"
        );
        assert!(help.contains("\n       cusha serve [--input "), "{help}");
        assert!(help.contains("fault-injection specs") && help.ends_with("(default 4)."));
        for code in ["`0`", "`1`", "`2`", "`3`", "`4`", "`9`"] {
            assert!(
                readme.contains(code),
                "exit code {code} missing from README.md"
            );
        }
    }
}
