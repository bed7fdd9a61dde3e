//! The `repro` binary's own surface: what a command line exits with and says,
//! and — pinned at the commit before `repro` became two tables — every byte
//! the deterministic artifacts print and write.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The spelling the binary keeps: its artifacts in `all`'s order, its flags.
const ARTIFACTS: [&str; 18] = [
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
const FLAGS: [&str; 11] = [
    "--scale",
    "--rmat-scale",
    "--max-iters",
    "--jobs",
    "--engines",
    "--out-dir",
    "--check",
    "--tolerance",
    "--verbose",
    "--log-level",
    "--help",
];
fn repro(line: &str) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(line.split_whitespace()).output().unwrap()
}

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro")
}

/// A fresh directory under the test's own target tree.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(command line, exit code, what stderr must say)`: each was a panic (101),
/// or a wrong answer, at the parent commit. One line on stderr, no backtrace.
#[rustfmt::skip] // a table: one row per line
const REFUSALS: &[(&str, i32, &str)] = &[
    ("--scale 0", 2, "--scale"),                          // surrogates.rs assert
    ("--scale 200364 table1", 2, "at most 200363"),       // "leaves no graph" assert
    ("--rmat-scale 0 fig11", 2, "--rmat-scale"),          // division by zero
    ("--max-iters 0 table2", 2, "--max-iters"),           // every worker: invalid configuration
    ("--max-iters 4294967296 table2", 2, "--max-iters"),  // `as u32` made it 0
    ("--out-dir /dev/null/x table1", 1, "/dev/null/x"),   // .expect("create --out-dir")
    ("--tolerance nan --check x.json", 2, "--tolerance"), // accepted: 72 of 241 "regressions"
    ("--tolerance -0.1 --check x.json", 2, "--tolerance"),
    ("--engines vwc:3 table2", 2, "--engines"),           // vwc.rs: invalid configuration
    ("--engines gs,,cw table2", 2, "--engines"),
    ("--jobs many", 2, "--jobs"),
    ("--log-level loud", 2, "--log-level"),
    ("simwall", 2, "unknown artifact \"simwall\""),       // retired with the second host clock
    ("table9", 2, "unknown artifact \"table9\""),
    ("--bogus", 2, "unknown flag \"--bogus\""),
    ("--scale", 2, "--scale needs a value"),
    ("table1 --out-dir", 2, "--out-dir needs a value"),
    ("--check /nonexistent/baseline.json", 1, "cannot read"),
];

#[test]
fn a_bad_command_line_is_one_line_and_an_exit_code() {
    let mut wrong = Vec::new();
    for &(line, code, says) in REFUSALS {
        let out = repro(line);
        let err = String::from_utf8_lossy(&out.stderr);
        let one_line = err.lines().count() == 1 && err.starts_with("repro: ");
        if out.status.code() != Some(code) || !err.contains(says) || !one_line {
            wrong.push(format!(
                "`repro {line}` -> {:?}, stderr {err:?}",
                out.status.code()
            ));
        }
        assert!(out.stdout.is_empty(), "`repro {line}` printed to stdout");
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Runs that the parent ended in a panic and that now finish: `fig10` alone
/// (it read a matrix nobody had computed), a capped frontier engine in the
/// shared matrix, and an artifact named twice, which runs once.
#[test]
fn runs_that_used_to_panic_finish() {
    for line in [
        "fig10 --max-iters 5",
        "table2 --engines frontier --max-iters 5",
    ] {
        let out = repro(&format!("{line} --scale 4096 --jobs 1"));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && !err.contains("panicked"),
            "`{line}`: {err}"
        );
    }
    let once = repro("table1 --scale 4096");
    let twice = repro("table1 table1 --scale 4096");
    assert!(!once.stdout.is_empty() && once.stdout == twice.stdout);
}

/// `--help` is derived from the two tables: every artifact and every flag,
/// each exactly once, and nothing else that looks like a flag.
#[test]
fn help_names_every_artifact_and_flag_once() {
    let out = repro("--help");
    assert!(out.status.success() && out.stderr.is_empty());
    let help = String::from_utf8(out.stdout).unwrap();
    let words: Vec<&str> = help
        .split(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_'))
        .collect();
    for name in ARTIFACTS.iter().chain(&FLAGS) {
        let n = words.iter().filter(|w| w == &name).count();
        assert_eq!(n, 1, "{name} appears {n} times in --help:\n{help}");
    }
    let flags = words.iter().filter(|w| w.starts_with("--")).count();
    assert_eq!(
        flags,
        FLAGS.len(),
        "a flag outside the pinned list:\n{help}"
    );
    let listed = help.split("order):").nth(1).unwrap().split("flags:").next();
    let listed: Vec<&str> = listed.unwrap().split_whitespace().collect();
    assert_eq!(listed, ARTIFACTS, "the artifact list or its order moved");
}

/// `all`, and no artifact at all, mean every row of the table, in its order.
/// (`--engines gs` keeps the 128-thread MTCPU cells out of a test run.)
#[test]
fn all_is_every_artifact() {
    for (names, dir) in [("all", "all"), ("", "none")] {
        let dir = scratch(dir);
        let tiny = "--engines gs --scale 4096 --rmat-scale 4096 --max-iters 5 --jobs 1";
        let out = repro(&format!("{names} {tiny} --out-dir {}", dir.display()));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        for name in ARTIFACTS {
            let report = std::fs::read_to_string(dir.join(format!("{name}.txt")));
            assert!(
                report.is_ok_and(|r| !r.is_empty()),
                "`{names}` wrote no {name}.txt"
            );
        }
        let reports = std::fs::read_dir(&dir).unwrap();
        let reports = reports.filter(|f| f.as_ref().unwrap().path().extension().unwrap() == "txt");
        assert_eq!(reports.count(), ARTIFACTS.len());
    }
}

/// stdout and every `--out-dir` file of the 16 deterministic artifacts (all
/// but `table6`'s host-timed cells and `multi_gpu_scaling`, which
/// `results/multi_gpu_scaling.json` pins), generated by the parent commit's
/// binary, byte for byte, at two worker counts.
#[test]
fn deterministic_artifacts_match_the_parent_golden_at_any_jobs() {
    let names = ARTIFACTS
        .join(" ")
        .replace("table6 ", "")
        .replace("multi_gpu_scaling ", "");
    for jobs in [1, 2] {
        let dir = scratch(&format!("golden-jobs{jobs}"));
        let out = repro(&format!(
            "{names} --scale 4096 --rmat-scale 4096 --max-iters 50 --jobs {jobs} --out-dir {}",
            dir.display()
        ));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut expected = 0;
        for file in std::fs::read_dir(golden()).unwrap() {
            let file = file.unwrap().file_name();
            let want = std::fs::read(golden().join(&file)).unwrap();
            let got = match file.to_str() {
                Some("stdout.txt") => out.stdout.clone(),
                _ => std::fs::read(dir.join(&file)).unwrap_or_default(),
            };
            assert!(
                got == want,
                "--jobs {jobs}: {file:?} differs from the golden"
            );
            expected += 1;
        }
        let written = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(
            written + 1,
            expected,
            "--jobs {jobs}: a file the golden does not have"
        );
    }
}

/// The gate on the golden's own `frontier_matrix.json`: unmodified it passes
/// (exit 0), with one modeled time doubled it exits 3 and names the metric,
/// and the retired host-clock schemas are no longer baselines (exit 1).
#[test]
fn check_passes_flags_a_perturbed_metric_and_refuses_retired_schemas() {
    let baseline = golden().join("frontier_matrix.json");
    let pass = repro(&format!("--check {}", baseline.display()));
    let report = String::from_utf8_lossy(&pass.stdout);
    assert_eq!(pass.status.code(), Some(0), "{report}");
    assert!(
        report.ends_with("241 metrics checked, 0 regressions — PASS\n"),
        "{report}"
    );

    let dir = scratch("check");
    let text = std::fs::read_to_string(&baseline).unwrap();
    let at = text.find("\"total_ms\": ").unwrap() + "\"total_ms\": ".len();
    let end = at + text[at..].find(',').unwrap();
    let doubled = text[at..end].parse::<f64>().unwrap() * 2.0;
    let perturbed = dir.join("perturbed.json");
    std::fs::write(
        &perturbed,
        format!("{}{doubled:.6}{}", &text[..at], &text[end..]),
    )
    .unwrap();
    let fail = repro(&format!("--check {}", perturbed.display()));
    let report = String::from_utf8_lossy(&fail.stdout);
    assert_eq!(fail.status.code(), Some(3), "{report}");
    assert!(
        report.contains("REGRESSION") && report.contains("1 regressions — FAIL"),
        "{report}"
    );

    let retired = dir.join("simwall.json");
    std::fs::write(
        &retired,
        "{\"schema\": \"cusha-simwall-history/v1\", \"runs\": []}",
    )
    .unwrap();
    let out = repro(&format!("--check {}", retired.display()));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unrecognized baseline"), "{err}");
}
