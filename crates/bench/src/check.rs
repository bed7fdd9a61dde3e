//! `repro --check` — the perf-regression gate.
//!
//! Takes the committed baseline artifact (`results/frontier_matrix.json`),
//! reruns the experiment **at the baseline's own recorded configuration**,
//! and compares every metric against a per-metric tolerance band:
//! `frontier_matrix` carries *modeled* milliseconds, which are
//! deterministic — the default band is tight (10%, and in practice the diff
//! is zero unless the model changed), and structural facts (iterations,
//! convergence, winner, the road-network flip) must match exactly. Host
//! time is not gated here: the ledger (`examples/ledger`) measures it.
//!
//! The report lists one line per compared metric; any line outside its
//! band is a regression and the caller exits non-zero (the CI perf-gate
//! job fails).

use crate::experiments::{frontier_matrix, max_scale, Ctx};
use cusha_obs::{parse_json, Json};

/// Default relative tolerance for deterministic modeled milliseconds.
pub const MODELED_TOLERANCE: f64 = 0.10;

/// Outcome of one `--check` run.
pub struct CheckReport {
    /// One line per compared metric (prefixed `ok` or `REGRESSION`).
    pub lines: Vec<String>,
    /// Metrics compared.
    pub checked: usize,
    /// Metrics outside their tolerance band.
    pub regressions: usize,
}

impl CheckReport {
    /// Whether every metric stayed inside its band.
    pub fn passed(&self) -> bool {
        self.regressions == 0
    }

    /// Renders the full report, one metric per line plus a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(&format!(
            "perf-gate: {} metrics checked, {} regressions — {}\n",
            self.checked,
            self.regressions,
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    fn ok(&mut self, line: String) {
        self.checked += 1;
        self.lines.push(format!("ok          {line}"));
    }

    fn fail(&mut self, line: String) {
        self.checked += 1;
        self.regressions += 1;
        self.lines.push(format!("REGRESSION  {line}"));
    }

    fn compare_f64(&mut self, what: &str, base: f64, cur: f64, tol: f64) {
        let denom = base.abs().max(cur.abs()).max(1e-12);
        let rel = (cur - base).abs() / denom;
        let line = format!(
            "{what}: baseline {base:.6}, current {cur:.6} ({:+.2}% off)",
            (cur - base) / denom * 100.0
        );
        if rel <= tol {
            self.ok(line);
        } else {
            self.fail(format!("{line}, tolerance {:.0}%", tol * 100.0));
        }
    }

    fn compare_exact<T: PartialEq + std::fmt::Display>(&mut self, what: &str, base: T, cur: T) {
        if base == cur {
            self.ok(format!("{what}: {base}"));
        } else {
            self.fail(format!("{what}: baseline {base}, current {cur}"));
        }
    }
}

/// Checks `baseline_text` (a committed artifact JSON) against a fresh
/// rerun at the baseline's recorded configuration. `tolerance` overrides
/// the artifact's default band; `ctx` contributes only host-side knobs
/// (worker threads, verbosity) — scale and iteration caps come from the
/// baseline itself.
pub fn check_baseline(
    baseline_text: &str,
    tolerance: Option<f64>,
    ctx: &Ctx,
) -> Result<CheckReport, String> {
    let doc = parse_json(baseline_text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    if doc.get("experiment").and_then(Json::as_str) != Some("frontier_matrix") {
        return Err("unrecognized baseline: expected a frontier_matrix artifact".into());
    }
    check_frontier_matrix(&doc, tolerance.unwrap_or(MODELED_TOLERANCE), ctx)
}

/// A configuration field of the baseline, refused outside `1..=most`: the
/// rerun happens at these values, and the experiment panics outside them.
fn field(doc: &Json, key: &str, most: u64) -> Result<u64, String> {
    match doc.get(key).and_then(Json::as_u64) {
        Some(n) if (1..=most).contains(&n) => Ok(n),
        Some(n) => Err(format!("baseline field {key:?} is {n}, not in 1..={most}")),
        None => Err(format!("baseline is missing numeric field {key:?}")),
    }
}

fn check_frontier_matrix(doc: &Json, tol: f64, host: &Ctx) -> Result<CheckReport, String> {
    let cap = field(doc, "max_iterations", u32::MAX.into())?;
    let ctx = Ctx {
        scale: field(doc, "scale_divisor", max_scale())?,
        max_iterations: cap.try_into().unwrap_or(u32::MAX),
        ..*host
    };
    let mut rep = CheckReport {
        lines: Vec::new(),
        checked: 0,
        regressions: 0,
    };
    let cur = frontier_matrix::run(&ctx);
    rep.compare_exact(
        "road_network_winner_flips",
        doc.get("road_network_winner_flips")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        cur.road_network_winner_flips,
    );
    let base_rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    for row in &base_rows {
        let ds = row.get("dataset").and_then(Json::as_str).unwrap_or("?");
        let bench = row.get("benchmark").and_then(Json::as_str).unwrap_or("?");
        let Some(cur_row) = cur
            .rows
            .iter()
            .find(|r| r.dataset.to_string() == ds && r.benchmark.to_string() == bench)
        else {
            rep.fail(format!("{ds}/{bench}: row missing from current run"));
            continue;
        };
        rep.compare_exact(
            &format!("{ds}/{bench} winner"),
            row.get("winner").and_then(Json::as_str).unwrap_or("?"),
            cur_row.winner.as_str(),
        );
        let engines = row
            .get("engines")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        for cell in &engines {
            let label = cell.get("engine").and_then(Json::as_str).unwrap_or("?");
            let Some((_, cur_ms, cur_iters, cur_conv)) =
                cur_row.cells.iter().find(|c| c.0 == label)
            else {
                rep.fail(format!(
                    "{ds}/{bench}/{label}: engine missing from current run"
                ));
                continue;
            };
            rep.compare_f64(
                &format!("{ds}/{bench}/{label} total_ms"),
                cell.get("total_ms").and_then(Json::as_f64).unwrap_or(0.0),
                *cur_ms,
                tol,
            );
            rep.compare_exact(
                &format!("{ds}/{bench}/{label} iterations"),
                cell.get("iterations").and_then(Json::as_u64).unwrap_or(0),
                u64::from(*cur_iters),
            );
            rep.compare_exact(
                &format!("{ds}/{bench}/{label} converged"),
                cell.get("converged")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                *cur_conv,
            );
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Ctx {
        Ctx {
            scale: 4096,
            rmat_scale: 4096,
            max_iterations: 300,
            verbose: false,
            jobs: 0,
        }
    }

    /// A baseline generated and checked in-process: byte-deterministic
    /// modeled times mean the unmodified rerun passes with zero diff.
    #[test]
    fn unmodified_frontier_baseline_passes() {
        let ctx = tiny_ctx();
        let baseline = frontier_matrix::run(&ctx).to_json();
        let rep = check_baseline(&baseline, None, &ctx).unwrap();
        assert!(rep.passed(), "{}", rep.render());
        assert!(rep.checked > 0);
    }

    #[test]
    fn perturbed_metric_is_flagged() {
        let ctx = tiny_ctx();
        let baseline = frontier_matrix::run(&ctx).to_json();
        // Halve one recorded total_ms: far outside the 10% band.
        let idx = baseline.find("\"total_ms\": ").unwrap() + "\"total_ms\": ".len();
        let end = idx + baseline[idx..].find(',').unwrap();
        let ms: f64 = baseline[idx..end].parse().unwrap();
        let perturbed = format!("{}{:.6}{}", &baseline[..idx], ms * 2.0, &baseline[end..]);
        let rep = check_baseline(&perturbed, None, &ctx).unwrap();
        assert!(!rep.passed());
        assert!(rep.render().contains("REGRESSION"));
        // Structural perturbation (winner flip) is caught exactly.
        let flipped = baseline.replace(
            "\"road_network_winner_flips\": true",
            "\"road_network_winner_flips\": false",
        );
        if flipped != baseline {
            let rep = check_baseline(&flipped, None, &ctx).unwrap();
            assert!(!rep.passed());
        }
    }

    #[test]
    fn unknown_baseline_is_an_error() {
        assert!(check_baseline("{\"schema\":\"nope\"}", None, &tiny_ctx()).is_err());
        assert!(check_baseline("not json", None, &tiny_ctx()).is_err());
        // A configuration the rerun would panic at is refused, not run.
        for (scale, cap) in [(0, 50), (u64::MAX, 50), (4096, 0), (4096, 1u64 << 32)] {
            let doc = format!(
                "{{\"experiment\":\"frontier_matrix\",\"scale_divisor\":{scale},\
                 \"max_iterations\":{cap}}}"
            );
            assert!(check_baseline(&doc, None, &tiny_ctx()).is_err(), "{doc}");
        }
    }
}
