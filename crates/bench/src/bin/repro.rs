//! `repro` — regenerates every table and figure of the CuSha paper.
//!
//! ```text
//! repro [ARTIFACT ...] [--scale N] [--rmat-scale N] [--max-iters N]
//!       [--jobs N] [--engines LIST] [--out-dir DIR] [--verbose]
//!       [--log-level LEVEL]
//! repro --check BASELINE.json [--tolerance R]
//!
//! ARTIFACT: all (default) | layouts | table1 | table2 | table4 | table5 |
//!           table6 | table7 | fig1 | fig7 | fig8 | fig9 | fig10 | fig11 |
//!           fig12 | fig13 | ablation | frontier_matrix |
//!           simwall (opt-in, not part of all)
//!
//! --scale N         dataset surrogate scale divisor (default 64;
//!                   1 = full Table-1 sizes)
//! --rmat-scale N    RMAT sweep scale divisor for fig11/12/13 (default 64)
//! --max-iters N     convergence-loop cap (default 300)
//! --engines LIST    comma-separated engine filter for the result matrix
//!                   and frontier_matrix (gs|cw|frontier|vwc:<w>|mtcpu:<t>),
//!                   e.g. `--engines gs,frontier` for a head-to-head
//!                   without the full matrix
//! --jobs N          host worker threads for simulator matrix cells
//!                   (default: available parallelism; CUSHA_JOBS env is
//!                   the fallback). Outputs are byte-identical for any
//!                   value — only the host wall clock changes.
//! --out-dir DIR     also write each artifact report and the raw matrix CSV
//! --verbose         stream per-cell progress to stderr
//! --log-level LEVEL error|warn|info|debug|trace (default info)
//! ```
//!
//! All progress chatter goes through the [`cusha_obs::log`] leveled stderr
//! logger; stdout carries only the artifact reports, so
//! `repro table2 > table2.txt` stays clean under any log level.

use cusha_baselines::{MTCPU_THREADS, VIRTUAL_WARP_SIZES};
use cusha_bench::bench_defs::{Benchmark, Engine};
use cusha_bench::experiments::{self, Ctx};
use cusha_bench::matrix::{run_matrix_jobs, MatrixResult};
use cusha_bench::simwall;
use cusha_graph::surrogates::Dataset;
use cusha_obs::{log, Level};

const MATRIX_ARTIFACTS: [&str; 7] = [
    "table2", "table4", "table5", "table6", "table7", "fig7", "fig8",
];
const ALL_ARTIFACTS: [&str; 18] = [
    "layouts",
    "table1",
    "fig1",
    "table2",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ablation",
    "multi_gpu_scaling",
    "frontier_matrix",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx::default();
    let mut artifacts: Vec<String> = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut engines_filter: Option<Vec<Engine>> = None;
    let mut check_path: Option<String> = None;
    let mut check_tolerance: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--check needs a baseline JSON path");
                    std::process::exit(2);
                }));
            }
            "--tolerance" => {
                i += 1;
                check_tolerance =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--tolerance needs a relative fraction, e.g. 0.1");
                        std::process::exit(2);
                    }));
            }
            "--scale" => {
                i += 1;
                ctx.scale = parse(&args, i, "--scale");
            }
            "--rmat-scale" => {
                i += 1;
                ctx.rmat_scale = parse(&args, i, "--rmat-scale");
            }
            "--max-iters" => {
                i += 1;
                ctx.max_iterations = parse(&args, i, "--max-iters") as u32;
            }
            "--jobs" | "-j" => {
                i += 1;
                ctx.jobs = parse(&args, i, "--jobs") as usize;
                // Matrix runs that are handed no job count resolve through
                // the environment, so one flag covers them too.
                std::env::set_var("CUSHA_JOBS", ctx.jobs.to_string());
            }
            "--verbose" | "-v" => ctx.verbose = true,
            "--log-level" => {
                i += 1;
                let value = args.get(i).cloned().unwrap_or_default();
                match Level::parse(&value) {
                    Some(level) => log::set_level(level),
                    None => {
                        eprintln!("--log-level needs one of error|warn|info|debug|trace");
                        std::process::exit(2);
                    }
                }
            }
            "--engines" => {
                i += 1;
                let list = args.get(i).cloned().unwrap_or_default();
                let parsed: Option<Vec<Engine>> = list.split(',').map(Engine::parse).collect();
                match parsed {
                    Some(es) if !es.is_empty() => engines_filter = Some(es),
                    _ => {
                        eprintln!(
                            "--engines needs a comma-separated list of \
                             gs|cw|frontier|vwc:<width>|mtcpu:<threads>, got {list:?}"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--out-dir" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out-dir needs a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            a if a.starts_with('-') => {
                eprintln!("unknown flag {a}\n{HELP}");
                std::process::exit(2);
            }
            a => artifacts.push(a.to_string()),
        }
        i += 1;
    }
    // Perf-regression gate: rerun the baseline's experiment at its own
    // recorded configuration, compare within tolerance bands, and exit
    // non-zero on any regression. No artifact generation happens.
    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("--check: cannot read {path}: {e}");
            std::process::exit(1);
        });
        log::write(Level::Info, &format!("repro: checking against {path}"));
        match cusha_bench::check::check_baseline(&text, check_tolerance, &ctx) {
            Ok(rep) => {
                print!("{}", rep.render());
                std::process::exit(if rep.passed() { 0 } else { 3 });
            }
            Err(e) => {
                eprintln!("--check: {e}");
                std::process::exit(1);
            }
        }
    }
    if artifacts.is_empty() || artifacts.iter().any(|a| a == "all") {
        artifacts = ALL_ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }
    for a in &artifacts {
        // simwall is valid but opt-in only: it exists to measure the host
        // wall clock, so it must not ride along inside a bigger run.
        if !ALL_ARTIFACTS.contains(&a.as_str()) && a != "simwall" {
            eprintln!("unknown artifact {a}\n{HELP}");
            std::process::exit(2);
        }
    }
    let needs_mtcpu = artifacts.iter().any(|a| a == "table6");
    let needs_matrix = artifacts
        .iter()
        .any(|a| MATRIX_ARTIFACTS.contains(&a.as_str()));

    log::write(
        Level::Info,
        &format!(
            "repro: scale 1/{}, rmat scale 1/{}, max {} iterations",
            ctx.scale, ctx.rmat_scale, ctx.max_iterations
        ),
    );
    let matrix: Option<MatrixResult> = needs_matrix.then(|| {
        let engines = engines_filter.clone().unwrap_or_else(|| {
            let mut engines = vec![Engine::CuShaGs, Engine::CuShaCw];
            engines.extend(VIRTUAL_WARP_SIZES.iter().map(|&vw| Engine::Vwc(vw)));
            if needs_mtcpu {
                engines.extend(MTCPU_THREADS.iter().map(|&t| Engine::Mtcpu(t)));
            }
            engines
        });
        log::write(
            Level::Info,
            &format!(
                "repro: computing {}x{}x{} result matrix...",
                Dataset::ALL.len(),
                Benchmark::ALL.len(),
                engines.len()
            ),
        );
        run_matrix_jobs(
            &Dataset::ALL,
            &Benchmark::ALL,
            &engines,
            ctx.scale,
            ctx.max_iterations,
            ctx.verbose,
            ctx.jobs,
        )
    });
    if let (Some(dir), Some(m)) = (&out_dir, &matrix) {
        std::fs::create_dir_all(dir).expect("create --out-dir");
        let path = format!("{dir}/matrix.csv");
        std::fs::write(&path, m.to_csv()).expect("write matrix.csv");
        log::write(Level::Info, &format!("repro: wrote {path}"));
    }

    for a in &artifacts {
        let report = match a.as_str() {
            "layouts" => experiments::layouts::run(),
            "table1" => experiments::table1::run(&ctx),
            "fig1" => experiments::fig1::run(&ctx),
            "table2" => experiments::table2::run(matrix.as_ref().unwrap()),
            "table4" => experiments::table4::run(matrix.as_ref().unwrap()),
            "table5" => experiments::table5::run(matrix.as_ref().unwrap()),
            "table6" => experiments::table6::run(matrix.as_ref().unwrap()),
            "table7" => experiments::table7::run(matrix.as_ref().unwrap()),
            "fig7" => experiments::fig7::run(matrix.as_ref().unwrap()),
            "fig8" => experiments::fig8::run(matrix.as_ref().unwrap()),
            "fig9" => experiments::fig9::run(&ctx),
            "fig10" => experiments::fig10::run(matrix.as_ref().unwrap()),
            "fig11" => experiments::fig11::run(&ctx),
            "fig12" => experiments::fig12::run(&ctx),
            "fig13" => experiments::fig13::run(&ctx),
            "ablation" => experiments::ablation::run_all(&ctx),
            "simwall" => {
                let res = simwall::run(ctx.scale, ctx.max_iterations, ctx.jobs);
                if let Some(dir) = &out_dir {
                    std::fs::create_dir_all(dir).expect("create --out-dir");
                    let path = format!("{dir}/BENCH_simwall.json");
                    std::fs::write(&path, res.to_json()).expect("write simwall json");
                    log::write(Level::Info, &format!("repro: wrote {path}"));
                }
                res.report()
            }
            "frontier_matrix" => {
                let res = experiments::frontier_matrix::run_with_engines(
                    &ctx,
                    engines_filter.as_deref().unwrap_or(&[]),
                );
                if let Some(dir) = &out_dir {
                    std::fs::create_dir_all(dir).expect("create --out-dir");
                    let path = format!("{dir}/frontier_matrix.json");
                    std::fs::write(&path, res.to_json()).expect("write frontier matrix json");
                    log::write(Level::Info, &format!("repro: wrote {path}"));
                }
                res.report()
            }
            "multi_gpu_scaling" => {
                let res = experiments::multi_gpu_scaling::run(&ctx);
                if let Some(dir) = &out_dir {
                    std::fs::create_dir_all(dir).expect("create --out-dir");
                    let path = format!("{dir}/multi_gpu_scaling.json");
                    std::fs::write(&path, res.to_json()).expect("write scaling json");
                    log::write(Level::Info, &format!("repro: wrote {path}"));
                    let mpath = format!("{dir}/multi_gpu_scaling_metrics.json");
                    std::fs::write(&mpath, res.metrics_json()).expect("write scaling metrics");
                    log::write(Level::Info, &format!("repro: wrote {mpath}"));
                }
                res.report()
            }
            _ => unreachable!(),
        };
        println!("{report}");
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create --out-dir");
            let path = format!("{dir}/{a}.txt");
            std::fs::write(&path, &report).expect("write artifact report");
        }
    }
}

fn parse(args: &[String], i: usize, flag: &str) -> u64 {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a positive integer");
        std::process::exit(2);
    })
}

const HELP: &str = "\
repro — regenerate the CuSha paper's tables and figures

usage: repro [ARTIFACT ...] [--scale N] [--rmat-scale N] [--max-iters N]
             [--jobs N] [--engines LIST] [--out-dir DIR] [--verbose]
             [--log-level LEVEL]
       repro --check BASELINE.json [--tolerance R]

--check BASELINE.json  perf-regression gate: rerun the baseline artifact's
                       experiment (frontier_matrix or cusha-simwall/v1) at
                       its recorded configuration and compare every metric
                       within a tolerance band (deterministic modeled ms:
                       10%; host wall-clock: 75%; override with
                       --tolerance R). Exits 3 on any regression.

artifacts: all layouts table1 fig1 table2 table4 table5 table6 table7
           fig7 fig8 fig9 fig10 fig11 fig12 fig13 ablation
           multi_gpu_scaling (also writes multi_gpu_scaling.json and
           multi_gpu_scaling_metrics.json to --out-dir)
           frontier_matrix (frontier-vs-shard head-to-head; also writes
           frontier_matrix.json to --out-dir)
           simwall (opt-in, not part of 'all': times the host wall clock
           sequential vs parallel and writes BENCH_simwall.json to
           --out-dir)

--engines LIST narrows the engine set of the shared result matrix and of
frontier_matrix to a comma-separated subset (gs|cw|frontier|vwc:<width>|
mtcpu:<threads>), e.g. `--engines gs,frontier`.

--jobs N (or CUSHA_JOBS=N) sets the host worker-thread count for simulator
matrix cells; any value produces byte-identical artifacts (default: the
host's available parallelism).

Progress goes to stderr via the leveled logger (--log-level error|warn|
info|debug|trace, default info); stdout carries only artifact reports.
";
