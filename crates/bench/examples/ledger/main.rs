//! `ledger` — the repository's host-clock benchmark.
//!
//! Five workloads cover the four user-visible paths (`cusha` one-shot on
//! two input regimes, the `repro` matrix, `cusha serve` reading, `cusha
//! serve` mutating). Every output is checked against the host oracle. See
//! `README.md` beside this file for the workloads, the metric tables and
//! how to read the trace.
//!
//! ```text
//! ledger [--seed S] [--seconds N] [--trace] [--quick] [--selftest] [--jobs J]
//! ledger --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick] [--jobs J]
//! ```
//!
//! Without `--workload` each workload runs in a child process of its own;
//! with it, this process is that one workload, and the last line of its
//! standard output is the result object `BENCHMARK.json` describes.

mod harness;
mod layers;
mod matrix;
mod oneshot;
mod serve;
mod spec;
mod workload;

use cusha::obs::json::push_f64;
use harness::{median, HostReference, Metrics, Spans, HARNESS};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Pass, Workload};

/// Seed used when none is given. `HELD_OUT_SEED` is never used while a
/// change is written; a later claim must also hold on it.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 20_140_623;
const DEFAULT_SECONDS: f64 = 15.0;

/// Exit codes: a wrong answer, a bad command line, a broken environment.
const EXIT_INCORRECT: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_ENVIRONMENT: u8 = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selftest: bool,
    jobs: Option<usize>,
}

fn usage(spec: &Spec) -> String {
    format!(
        "usage: ledger [--workload <{}>] [--seed <n>] [--seconds <n>]\n\
         \x20      [--trace [0|1]] [--quick] [--selftest] [--jobs <n>]\n\
         default seed {DEFAULT_SEED}; held-out seed for later claims {HELD_OUT_SEED}",
        spec.workloads.join("|")
    )
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selftest: false,
        jobs: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if !spec.workloads.contains(&w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = number("--seed", &value(&mut i, "--seed")?)?,
            "--seconds" => {
                args.seconds = number("--seconds", &value(&mut i, "--seconds")?)?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver's form
                // carries an explicit 0 or 1.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--selftest" => args.selftest = true,
            "--jobs" => {
                let j: usize = number("--jobs", &value(&mut i, "--jobs")?)?;
                if j == 0 || j > harness::nproc() {
                    return Err(format!(
                        "--jobs {j} refused: this host has {} CPU(s), and the ledger never \
                         runs more threads than that",
                        harness::nproc()
                    ));
                }
                args.jobs = Some(j);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

/// Scratch space under `target/ledger/tmp`, removed when the run ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = ledger_dir()
            .join("tmp")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ledger_dir() -> PathBuf {
    Path::new("target").join("ledger")
}

/// Path of the `cusha` binary the `cli.` probes spawn, built first when
/// `fresh` is asked for or there is none. Only a traced run uses the binary
/// and wants it fresh; an untraced run builds it only where it is missing,
/// so that in a new checkout the build falls into the first run, whichever
/// kind that is, and never into a later, shorter-lived one.
fn cusha_bin(fresh: bool) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let bin = target.join("release").join("cusha");
    if fresh || !bin.exists() {
        let status = std::process::Command::new("cargo")
            .args(["build", "--release", "--quiet", "--bin", "cusha"])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() || !bin.exists() {
            return Err("`cargo build --release --bin cusha` failed".into());
        }
    }
    Ok(bin)
}

fn build_workload(
    name: &str,
    seed: u64,
    quick: bool,
    jobs: usize,
    tmp: &Path,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "oneshot_powerlaw" => Box::new(oneshot::Oneshot::setup(false, seed, quick, tmp)),
        "oneshot_road" => Box::new(oneshot::Oneshot::setup(true, seed, quick, tmp)),
        "matrix_jobs" => Box::new(matrix::MatrixJobs::setup(seed, quick, jobs, tmp)),
        "serve_read" => Box::new(serve::ServeRead::setup(seed, quick, tmp)),
        "serve_mutate" => Box::new(serve::ServeMutate::setup(seed, quick, tmp)),
        _ => return None,
    })
}

/// Runs passes until `seconds` are used up (at least `min`). With
/// `alternate`, odd passes are traced and even ones are not, so the two
/// kinds see the same machine state. `host` arrives with a window just
/// opened; every pass closes one.
fn run_passes(
    w: &mut dyn Workload,
    spans: &mut Spans,
    host: &mut HostReference,
    seconds: f64,
    min: usize,
    alternate: bool,
) -> Vec<(bool, Pass)> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let traced = alternate && passes.len() % 2 == 1;
        spans.set_on(traced);
        if traced {
            spans.begin_pass();
        }
        harness::reset_peak_rss();
        host.set_ticking(!traced);
        let mut pass = w.pass(spans, host);
        pass.peak_rss_mb = harness::peak_rss_mb();
        let window = host.close();
        pass.wall_s -= window.spent_s;
        pass.host_speed = Some(window.speed);
        pass.counts.modeled_ms_bits = pass.modeled_ms.to_bits();
        passes.push((traced, pass));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min && elapsed + 0.5 * per_pass >= seconds {
            return passes;
        }
    }
}

/// What one workload run found, beyond its metrics.
struct Verdict {
    attempted: u64,
    failed: u64,
    counts_json: String,
    digest: u64,
    passes: usize,
    pass_walls: String,
}

/// Folds the passes' checks together and adds one of its own: every pass
/// of a seed must reproduce the first pass's counts exactly.
fn verdict(passes: &[&Pass]) -> Verdict {
    let first = &passes[0].counts;
    let repeatable = passes.iter().all(|p| p.counts == *first);
    let counts_json = first.to_json();
    Verdict {
        attempted: passes.iter().map(|p| p.attempted).sum::<u64>() + 1,
        failed: passes.iter().map(|p| p.failed).sum::<u64>() + u64::from(!repeatable),
        digest: harness::fnv1a(&counts_json),
        counts_json,
        passes: passes.len(),
        pass_walls: passes
            .iter()
            .map(|p| {
                let speed = p.host_speed.unwrap_or(1.0);
                format!("{:.3}/{speed:.3}/{:.0}", p.wall_s, p.peak_rss_mb)
            })
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// The end-to-end table. Host-clock times are quoted at the reference host
/// speed (`Pass::wall_at_reference`); `setup_s` arrives that way.
fn end_to_end(setup_s: f64, passes: &[&Pass], m: &mut Metrics) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_at_reference()).collect();
    let wall_s = median(&walls);
    let ops = workload::op_medians(passes);
    let first = passes[0];
    m.put("setup_s", setup_s, 1);
    m.put("wall_s", wall_s, walls.len());
    m.put(
        "sim_edges_per_s",
        first.edge_iters as f64 / wall_s,
        walls.len(),
    );
    m.put(
        "queries_per_s",
        (first.attempted - first.failed) as f64 / wall_s,
        walls.len(),
    );
    m.put("query_ms_p50", median(&ops), ops.len());
    m.put("modeled_ms", first.modeled_ms, 1);
    // The smallest per-pass peak is what one pass needs; later passes start
    // from whatever the allocator kept, which with two threads depends on
    // how their allocations interleaved.
    let rss = passes
        .iter()
        .map(|p| p.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    m.put("peak_rss_mb", rss, passes.len());
}

/// Per-layer self times of the traced passes, and what tracing cost.
fn span_metrics(spec: &Spec, spans: &Spans, passes: &[(bool, Pass)], m: &mut Metrics) {
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|(t, _)| !*t)
        .map(|(_, p)| p.wall_at_reference())
        .collect();
    let n = traced.len();
    let mut per_layer: Vec<(&str, Vec<f64>)> = spec
        .span_layers()
        .into_iter()
        .chain([HARNESS])
        .map(|l| (l, Vec::new()))
        .collect();
    for pass_id in 1..=n as u32 {
        let by_layer = spans.self_seconds_by_layer(pass_id);
        for (layer, samples) in &mut per_layer {
            let s = by_layer
                .iter()
                .find(|(l, _)| l == layer)
                .map_or(0.0, |(_, s)| *s);
            samples.push(s * 1e3);
        }
    }
    let mut covered = 0.0;
    for (layer, samples) in &per_layer {
        let name = if *layer == HARNESS {
            "harness.other_ms".to_string()
        } else {
            format!("{layer}.pass_self_ms")
        };
        covered += median(samples);
        m.put(&name, median(samples), n);
    }
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_at_reference: Vec<f64> = traced.iter().map(|p| p.wall_at_reference()).collect();
    m.put(
        "harness.trace_overhead_ratio",
        median(&traced_at_reference) / median(&untraced),
        n,
    );
    let speeds: Vec<f64> = passes.iter().filter_map(|(_, p)| p.host_speed).collect();
    m.put_median("harness.host_speed", &speeds);
    println!(
        "  layers + harness.other_ms = {covered:.3} ms of a {:.3} ms traced pass ({:.2}%)",
        traced_wall * 1e3,
        100.0 * covered / (traced_wall * 1e3)
    );
}

/// Runs one workload in this process and prints its result line.
fn run_workload(name: &str, args: &Args, spec: &Spec) -> ExitCode {
    // Matrix-level threading is the thing `matrix_jobs` measures, and the
    // probes that compare job counts need a second count to compare; every
    // other workload is one client on one thread.
    let threads = args.jobs.unwrap_or_else(|| harness::nproc().min(4));
    let jobs = if name == "matrix_jobs" { threads } else { 1 };
    let tmp = match TempDir::create(name) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ledger: cannot create scratch space under target/ledger/tmp: {e}");
            return ExitCode::from(EXIT_ENVIRONMENT);
        }
    };
    let cusha_bin = match cusha_bin(args.trace) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ledger: the cli probes need the cusha binary: {e}");
            return ExitCode::from(EXIT_ENVIRONMENT);
        }
    };
    let host = harness::host_record_json();
    println!(
        "ledger workload={name} seed={} seconds={} trace={} quick={} jobs={jobs} {{{host}}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
    );
    if args.quick {
        println!("  QUICK RUN: one pass on inputs an eighth the size — not comparable with any other run");
    }

    let mut reference = HostReference::open();
    let t = Instant::now();
    let Some(mut w) = build_workload(name, args.seed, args.quick, jobs, &tmp.0) else {
        eprintln!("ledger: BENCHMARK.json names a workload, {name:?}, this program does not have");
        return ExitCode::from(EXIT_ENVIRONMENT);
    };
    let setup_raw_s = t.elapsed().as_secs_f64();
    let setup_speed = reference.close().speed;
    let setup_s = setup_raw_s * setup_speed;

    let mut metrics = Metrics::default();
    let verdict = if args.trace {
        let mut spans = Spans::new(false);
        // One untraced and one traced pass at the least; under `--quick`
        // exactly that.
        let seconds = if args.quick { 0.0 } else { args.seconds * 0.4 };
        let passes = run_passes(&mut *w, &mut spans, &mut reference, seconds, 2, true);
        span_metrics(spec, &spans, &passes, &mut metrics);
        let trace_path = ledger_dir().join(format!("trace-{name}.json"));
        match std::fs::write(&trace_path, spans.chrome_json()) {
            Ok(()) => println!("  {} spans -> {}", spans.len(), trace_path.display()),
            Err(e) => eprintln!("ledger: cannot write {}: {e}", trace_path.display()),
        }
        let mut probes = Metrics::default();
        let outcome = layers::run(&w.probe_inputs(), threads, &cusha_bin, &mut probes);
        let only: Vec<Pass> = passes.into_iter().map(|(_, p)| p).collect();
        let mut own = Metrics::default();
        w.layer_metrics(&only, &mut own);
        // A number from the workload's own passes beats the short probe's.
        probes.0.retain(|p| own.get(&p.name).is_none());
        metrics.0.extend(probes.0);
        metrics.0.extend(own.0);
        let refs: Vec<&Pass> = only.iter().collect();
        let mut v = verdict(&refs);
        v.attempted += outcome.attempted;
        v.failed += outcome.failed;
        v
    } else {
        let min = if args.quick { 1 } else { 2 };
        let seconds = if args.quick { 0.0 } else { args.seconds };
        let mut off = Spans::new(false);
        let passes = run_passes(&mut *w, &mut off, &mut reference, seconds, min, false);
        let refs: Vec<&Pass> = passes.iter().map(|(_, p)| p).collect();
        end_to_end(setup_s, &refs, &mut metrics);
        verdict(&refs)
    };

    // The contract's table, in its order, with its units; the result line
    // carries every digit measured.
    let mut result = String::new();
    let mut samples = String::new();
    for (want, unit) in spec.table(args.trace) {
        let Some(x) = metrics.get(want) else {
            eprintln!("ledger: internal error: metric {want} was not produced");
            return ExitCode::from(EXIT_ENVIRONMENT);
        };
        println!("  {want:<32} {:>16.6} {unit:<8} (n={})", x.value, x.samples);
        let sep = if result.is_empty() { "" } else { "," };
        result.push_str(&format!("{sep}\"{want}\":{{\"value\":"));
        push_f64(&mut result, x.value);
        result.push_str(&format!(",\"unit\":\"{unit}\"}}"));
        samples.push_str(&format!("{sep}\"{want}\":{}", x.samples));
    }
    let correct = verdict.failed == 0;
    println!("  set-up as measured: {setup_raw_s:.3} s at host speed {setup_speed:.3}");
    println!(
        "  per pass, wall s as measured / host speed / peak MB: {}",
        verdict.pass_walls
    );
    println!(
        "  passes {} | ops attempted {} failed {} fail_share {:.6}",
        verdict.passes,
        verdict.attempted,
        verdict.failed,
        verdict.failed as f64 / verdict.attempted as f64
    );
    println!(
        "record {{\"workload\":\"{name}\",\"seed\":{},\"trace\":{},\"quick\":{},\"jobs\":{jobs},\
         \"passes\":{},{host},\"digest\":\"{:016x}\",\"counts\":{},\"samples\":{{{samples}}}}}",
        args.seed, args.trace, args.quick, verdict.passes, verdict.digest, verdict.counts_json,
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{result}}}}}",
        verdict.attempted, verdict.failed,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    }
}

/// One child run's parsed output.
struct ChildRun {
    metrics: Vec<(String, f64)>,
    digest: String,
    correct: bool,
}

/// Runs one workload in a child process, passing its report through.
fn spawn_workload(name: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(j) = args.jobs {
        cmd.args(["--jobs", &j.to_string()]);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (result, report) = lines
        .split_last()
        .ok_or_else(|| format!("the {name} child printed nothing"))?;
    for l in report.iter().filter(|l| !l.starts_with("record ")) {
        println!("{l}");
    }
    let v = cusha::obs::parse_json(result)
        .map_err(|e| format!("the {name} child's result line is not JSON: {e}"))?;
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or("result line has no metrics object")?
        .iter()
        .filter_map(|(k, x)| Some((k.clone(), x.get("value")?.as_f64()?)))
        .collect();
    let record = report.iter().find_map(|l| l.strip_prefix("record "));
    let digest = record
        .and_then(|r| cusha::obs::parse_json(r).ok())
        .and_then(|r| r.get("digest")?.as_str().map(str::to_string))
        .unwrap_or_default();
    if let Some(r) = record {
        let path = ledger_dir().join(format!(
            "result-{name}-{}.json",
            if trace { "traced" } else { "untraced" }
        ));
        let _ = std::fs::create_dir_all(ledger_dir());
        let _ = std::fs::write(path, format!("{{\"record\":{r},\"result\":{result}}}\n"));
    }
    Ok(ChildRun {
        metrics,
        digest,
        correct: v.get("correct").and_then(|c| c.as_bool()) == Some(true) && out.status.success(),
    })
}

/// Runs every workload, each in a process of its own.
fn run_all(args: &Args, spec: &Spec, trace: bool) -> Result<Vec<(String, ChildRun)>, String> {
    spec.workloads
        .iter()
        .map(|name| Ok((name.clone(), spawn_workload(name, args, trace)?)))
        .collect()
}

/// The full untraced benchmark twice, back to back: every end-to-end
/// metric must agree within its own bound, every digest exactly.
fn selftest(args: &Args, spec: &Spec) -> Result<bool, String> {
    let first = run_all(args, spec, false)?;
    let second = run_all(args, spec, false)?;
    let mut ok = true;
    println!("\nselftest: two untraced rounds of the same code");
    println!(
        "  {:<18} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "round 1", "round 2", "spread", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for ((metric, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            let bound = spec.bound_of(metric);
            let spread = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let within = spread <= bound;
            ok &= within;
            println!(
                "  {name:<18} {metric:<16} {x:>14.6} {y:>14.6} {:>7.2}% {:>5.1}%{}",
                spread * 100.0,
                bound * 100.0,
                if within { "" } else { "  <-- exceeds bound" }
            );
        }
        let same = a.digest == b.digest && !a.digest.is_empty();
        ok &= same && a.correct && b.correct;
        println!(
            "  {name:<18} counts digest {} {} {}",
            a.digest,
            if same { "==" } else { "!=" },
            b.digest
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            return ExitCode::from(EXIT_ENVIRONMENT);
        }
    };
    let args = match parse_args(&spec) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("ledger: {msg}");
            }
            eprintln!("{}", usage(&spec));
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // The service logs every WAL recovery at info level; a benchmark report
    // is not the place for them.
    cusha::obs::log::set_level(cusha::obs::Level::Warn);
    if let Some(name) = args.workload.clone() {
        return run_workload(&name, &args, &spec);
    }
    let outcome = if args.selftest {
        selftest(&args, &spec)
    } else {
        run_all(&args, &spec, false).and_then(|untraced| {
            let mut ok = untraced.iter().all(|(_, r)| r.correct);
            if args.trace {
                ok &= run_all(&args, &spec, true)?.iter().all(|(_, r)| r.correct);
            }
            Ok(ok)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_INCORRECT),
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(EXIT_ENVIRONMENT)
        }
    }
}
