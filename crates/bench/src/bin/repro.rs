//! `repro` — regenerates every table and figure of the CuSha paper, or
//! (`--check`) gates the tree against a committed baseline. The artifact
//! table and the flag table below are the source of truth; `repro --help`
//! prints both.
//!
//! All progress chatter goes through the [`cusha_obs::log`] leveled stderr
//! logger; stdout carries only the artifact reports, so
//! `repro table2 > table2.txt` stays clean under any log level.
//!
//! Exit codes: `0` success, `1` I/O (unreadable or unrecognized baseline,
//! unwritable `--out-dir`), `2` usage, `3` a `--check` regression.

use cusha_baselines::{MTCPU_THREADS, VIRTUAL_WARP_SIZES};
use cusha_bench::bench_defs::{Benchmark, Engine};
use cusha_bench::experiments::{self as exp, Ctx};
use cusha_bench::matrix::{run_matrix_jobs, MatrixResult};
use cusha_graph::surrogates::Dataset;
use cusha_obs::{log, Level};
use std::fmt::Display;
use std::num::{NonZeroU32, NonZeroU64};
use std::str::FromStr;

const EXIT_IO: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_REGRESSION: i32 = 3;

/// Why the process stops early: its exit code and what stderr says.
type Failure = (i32, String);

/// What an artifact yields: its report, and the machine-readable files
/// (name, text) that go to `--out-dir` beside it.
type Output = (String, Vec<(&'static str, String)>);

/// How an artifact is computed.
enum Run {
    /// From the experiment parameters alone.
    Params(fn(&Ctx) -> String),
    /// From the shared (dataset x benchmark x engine) result matrix.
    Matrix(fn(&MatrixResult) -> String),
    /// From the shared matrix, which then holds the MTCPU cells too (real
    /// host threads: the one nondeterministic part of a run).
    MatrixMtcpu(fn(&MatrixResult) -> String),
    /// From the parameters and the `--engines` filter; also yields files.
    Engines(fn(&Ctx, &[Engine]) -> Output),
}
use Run::{Engines, Matrix, MatrixMtcpu, Params};

/// The artifact table: one row per artifact, in the order `all` runs them —
/// the only place a name is spelled. The name is also the report's file
/// name under `--out-dir`. `--help`, `all` and the unknown-artifact refusal
/// follow from it.
#[rustfmt::skip] // a table: one row per line
const ARTIFACTS: &[(&str, Run)] = &[
    ("layouts", Params(|_| exp::layouts::run())),
    ("table1", Params(exp::table1::run)),
    ("fig1", Params(exp::fig1::run)),
    ("table2", Matrix(exp::table2::run)),
    ("table4", Matrix(exp::table4::run)),
    ("table5", Matrix(exp::table5::run)),
    ("table6", MatrixMtcpu(exp::table6::run)),
    ("table7", Matrix(exp::table7::run)),
    ("fig7", Matrix(exp::fig7::run)),
    ("fig8", Matrix(exp::fig8::run)),
    ("fig9", Params(exp::fig9::run)),
    ("fig10", Matrix(exp::fig10::run)),
    ("fig11", Params(exp::fig11::run)),
    ("fig12", Params(exp::fig12::run)),
    ("fig13", Params(exp::fig13::run)),
    ("ablation", Params(exp::ablation::run_all)),
    ("multi_gpu_scaling", Engines(|ctx, _| {
        let res = exp::multi_gpu_scaling::run(ctx);
        let files = vec![
            ("multi_gpu_scaling.json", res.to_json()),
            ("multi_gpu_scaling_metrics.json", res.metrics_json()),
        ];
        (res.report(), files)
    })),
    ("frontier_matrix", Engines(|ctx, engines| {
        let res = exp::frontier_matrix::run_with_engines(ctx, engines);
        (res.report(), vec![("frontier_matrix.json", res.to_json())])
    })),
];

/// What the command line sets.
#[derive(Default)]
struct Opts {
    ctx: Ctx,
    /// Rows of [`ARTIFACTS`] to run, each once, in the order first named.
    artifacts: Vec<&'static (&'static str, Run)>,
    /// `--engines`; empty = each experiment's own engine list.
    engines: Vec<Engine>,
    out_dir: Option<String>,
    check: Option<String>,
    tolerance: Option<f64>,
    help: bool,
}

/// One flag: name, short alias, value placeholder (empty for a switch), what
/// `--help` says, and how the value — parsed *and range-checked* — is stored.
type Flag = (
    Str,
    Str,
    Str,
    Str,
    fn(&mut Opts, &str) -> Result<(), String>,
);
type Str = &'static str;

const ENGINE_LIST: &str = "<gs|cw|frontier|vwc:<2|4|8|16|32>|mtcpu:<threads>>[,...]";
const LEVELS: &str = "<error|warn|info|debug|trace>";

/// The flag table: one row per flag, the only place its name is spelled.
#[rustfmt::skip] // a table: one row per line
const FLAGS: &[Flag] = &[
    ("--scale", "", "<N>", "dataset surrogate scale divisor (default 64; 1 = full Table-1 sizes)", |o, v| match nonzero::<NonZeroU64, _>(v)? {
        n if n > exp::max_scale() => Err(format!("at most {}: the smallest dataset keeps two vertices", exp::max_scale())),
        n => put(&mut o.ctx.scale, Ok(n)),
    }),
    ("--rmat-scale", "", "<N>", "RMAT sweep scale divisor of the sensitivity figures (default 64)", |o, v| put(&mut o.ctx.rmat_scale, nonzero::<NonZeroU64, _>(v))),
    ("--max-iters", "", "<N>", "convergence-loop cap (default 300)", |o, v| put(&mut o.ctx.max_iterations, nonzero::<NonZeroU32, _>(v))),
    ("--jobs", "-j", "<N>", "host worker threads (default 0 = all available); artifacts are byte-identical for any value", |o, v| put(&mut o.ctx.jobs, number(v))),
    ("--engines", "", ENGINE_LIST, "engine subset for the shared matrix and the frontier head-to-head", |o, v| {
        let list: Option<Vec<Engine>> = v.split(',').map(Engine::parse).collect();
        put(&mut o.engines, list.ok_or_else(|| format!("expected {ENGINE_LIST}")))
    }),
    ("--out-dir", "", "<DIR>", "also write each report (NAME.txt), the raw matrix.csv and the .json results", |o, v| put(&mut o.out_dir, Ok(Some(v.into())))),
    ("--check", "", "<BASELINE.json>", "perf gate, no artifacts: rerun the baseline at its recorded configuration, exit 3 on a regression", |o, v| put(&mut o.check, Ok(Some(v.into())))),
    ("--tolerance", "", "<R>", "relative band of the gate's modeled milliseconds (default 0.10)", |o, v| match number::<f64>(v)? {
        r if r.is_finite() && r >= 0.0 => put(&mut o.tolerance, Ok(Some(r))),
        _ => Err("must be finite and non-negative".into()),
    }),
    ("--verbose", "-v", "", "stream per-cell progress to stderr", |o, _| put(&mut o.ctx.verbose, Ok(true))),
    ("--log-level", "", LEVELS, "what reaches stderr (default info)", |_, v| Level::parse(v).map(log::set_level).ok_or_else(|| format!("expected {LEVELS}"))),
    ("--help", "-h", "", "print this and exit", |o, _| put(&mut o.help, Ok(true))),
];

/// Progress, on stderr at the info level.
fn say(what: String) {
    log::write(Level::Info, &what);
}

/// Stores a parsed value.
fn put<T>(field: &mut T, value: Result<T, String>) -> Result<(), String> {
    *field = value?;
    Ok(())
}

/// A number of the field's type (so out of its range is refused, not cut).
fn number<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// A count of at least one: parsed as the `NonZero` type `N`, which refuses 0.
fn nonzero<N: FromStr<Err: Display> + Into<T>, T>(v: &str) -> Result<T, String> {
    number::<N>(v).map(N::into)
}

/// Parses the command line against the two tables. Never exits.
fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut all = false;
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if word == "all" {
            all = true;
        } else if !word.starts_with('-') {
            let row = ARTIFACTS.iter().find(|(name, _)| name == word);
            let row = row.ok_or_else(|| format!("unknown artifact {word:?}"))?;
            if !opts.artifacts.iter().any(|(name, _)| name == word) {
                opts.artifacts.push(row);
            }
        } else {
            let flag = FLAGS
                .iter()
                .find(|(name, alias, ..)| name == word || alias == word);
            let &(name, _, value, _, set) = flag.ok_or_else(|| format!("unknown flag {word:?}"))?;
            let value = match value {
                "" => "",
                _ => words
                    .next()
                    .ok_or_else(|| format!("{name} needs a value {value}"))?,
            };
            set(&mut opts, value)
                .map_err(|why| format!("bad value {value:?} for {name}: {why}"))?;
        }
    }
    if all || opts.artifacts.is_empty() {
        opts.artifacts = ARTIFACTS.iter().collect();
    }
    Ok(opts)
}

/// `--help`: both tables, then the prose.
fn help_text() -> String {
    let mut text = String::from(
        "repro — regenerate the CuSha paper's tables and figures\n\n\
         usage: repro [ARTIFACT ...] [FLAG ...]\n\n\
         artifacts (default `all`: each of these, in this order):\n ",
    );
    for (i, (name, _)) in ARTIFACTS.iter().enumerate() {
        text += if i > 0 && i % 8 == 0 { "\n  " } else { " " };
        text += name;
    }
    text += "\n\nflags:\n";
    for (name, alias, value, what, _) in FLAGS {
        let comma = if alias.is_empty() { "" } else { ", " };
        text += format!("  {alias}{comma}{name} {value}").trim_end();
        text += &format!("\n      {what}\n");
    }
    text + "\nProgress goes to stderr through the leveled logger; stdout carries only\n\
            the artifact reports. Exit codes: 0 success, 1 I/O, 2 usage, 3 regression.\n"
}

/// The one way a file leaves the process; without `--out-dir`, no file.
fn write_artifact(out_dir: &Option<String>, file: &str, text: &str) -> Result<(), Failure> {
    let Some(dir) = out_dir else { return Ok(()) };
    let path = format!("{dir}/{file}");
    std::fs::write(&path, text).map_err(|e| (EXIT_IO, format!("cannot write {path}: {e}")))?;
    say(format!("repro: wrote {path}"));
    Ok(())
}

/// The perf-regression gate: rerun the baseline's experiment at its own
/// recorded configuration and compare within tolerance bands.
fn check(path: &str, opts: &Opts) -> Result<(), Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| (EXIT_IO, format!("--check: cannot read {path}: {e}")))?;
    say(format!("repro: checking against {path}"));
    let rep = cusha_bench::check::check_baseline(&text, opts.tolerance, &opts.ctx)
        .map_err(|e| (EXIT_IO, format!("--check: {e}")))?;
    print!("{}", rep.render());
    let (bad, of) = (rep.regressions, rep.checked);
    match bad {
        0 => Ok(()),
        _ => Err((EXIT_REGRESSION, format!("{bad} of {of} metrics regressed"))),
    }
}

/// The shared result matrix over `--engines`, or over CuSha and every VWC
/// width (and every MTCPU thread count, if an artifact reads those cells).
fn shared_matrix(opts: &Opts) -> MatrixResult {
    let mut engines = opts.engines.clone();
    if engines.is_empty() {
        engines = vec![Engine::CuShaGs, Engine::CuShaCw];
        engines.extend(VIRTUAL_WARP_SIZES.map(Engine::Vwc));
        let timed = |row: &&(_, Run)| matches!(row.1, MatrixMtcpu(_));
        if opts.artifacts.iter().any(timed) {
            engines.extend(MTCPU_THREADS.map(Engine::Mtcpu));
        }
    }
    let (sets, algos, ctx) = (Dataset::ALL, Benchmark::ALL, &opts.ctx);
    let shape = format!("{}x{}x{}", sets.len(), algos.len(), engines.len());
    say(format!("repro: computing {shape} result matrix..."));
    run_matrix_jobs(
        &sets,
        &algos,
        &engines,
        ctx.scale,
        ctx.max_iterations,
        ctx.verbose,
        ctx.jobs,
    )
}

fn run(argv: &[String]) -> Result<(), Failure> {
    let opts = parse(argv).map_err(|why| (EXIT_USAGE, why))?;
    if opts.help {
        print!("{}", help_text());
        return Ok(());
    }
    if let Some(path) = &opts.check {
        return check(path, &opts);
    }
    // Before any work: a run can take minutes, an unusable directory none.
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| (EXIT_IO, format!("cannot create {dir}: {e}")))?;
    }
    let (scale, rmat, cap) = (opts.ctx.scale, opts.ctx.rmat_scale, opts.ctx.max_iterations);
    say(format!(
        "repro: scale 1/{scale}, rmat scale 1/{rmat}, max {cap} iterations"
    ));
    // Computed when the first artifact that reads it runs, then shared.
    let mut matrix: Option<MatrixResult> = None;
    for (name, how) in &opts.artifacts {
        let (report, files) = match how {
            Params(run) => (run(&opts.ctx), Vec::new()),
            Engines(run) => run(&opts.ctx, &opts.engines),
            Matrix(run) | MatrixMtcpu(run) => {
                let fresh = matrix.is_none();
                let matrix = matrix.get_or_insert_with(|| shared_matrix(&opts));
                if fresh {
                    write_artifact(&opts.out_dir, "matrix.csv", &matrix.to_csv())?;
                }
                (run(matrix), Vec::new())
            }
        };
        println!("{report}");
        for (file, text) in &files {
            write_artifact(&opts.out_dir, file, text)?;
        }
        write_artifact(&opts.out_dir, &format!("{name}.txt"), &report)?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err((code, why)) = run(&argv) {
        eprintln!("repro: {why}");
        std::process::exit(code)
    }
}
