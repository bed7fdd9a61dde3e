//! Ablation studies (extension, not a paper artifact): quantifies the
//! design choices DESIGN.md §4.4 lists.
//!
//! * the shard-size selection rule of Section 4 vs mis-sized shards,
//! * shared memory per SM (the paper's concluding prediction),
//! * VWC outlier deferral (the related-work enhancement of \[12\]).

use crate::bench_defs::default_source;
use crate::experiments::{rmat_sweep_graph, scaled_n, Ctx};
use crate::table::{fmt_ms, Table};
use cusha_algos::Sssp;
use cusha_baselines::{run_vwc, VwcConfig};
use cusha_core::{run, CuShaConfig, Repr};
use cusha_simt::DeviceConfig;

/// Renders the ablation report.
pub fn run_all(ctx: &Ctx) -> String {
    let mut out = String::new();
    let g = rmat_sweep_graph(67_000_000, 16_000_000, ctx.rmat_scale);
    let prog = Sssp::new(default_source(&g));

    // (a) Shard-size rule: autotuned vs fixed sizes.
    let mut a = Table::new(format!(
        "Ablation (a): shard-size selection, SSSP on 67_16 (rmat scale 1/{})",
        ctx.rmat_scale
    ))
    .header(["|N| (scaled)", "GS ms", "CW ms"]);
    let autotuned = {
        let cfg = CuShaConfig::new(Repr::GShards);
        cusha_core::select_vertices_per_shard(
            g.num_vertices() as u64,
            g.num_edges() as u64,
            4,
            &cfg.device,
        )
    };
    let mut sizes: Vec<(String, u32)> = [512u32, 3072, 6144]
        .iter()
        .map(|&nf| {
            (
                format!("{}", scaled_n(nf, ctx.rmat_scale)),
                scaled_n(nf, ctx.rmat_scale),
            )
        })
        .collect();
    sizes.push((format!("{autotuned} (autotuned)"), autotuned));
    for (label, n) in sizes {
        let mut ms = [0.0f64; 2];
        for (i, repr) in [Repr::GShards, Repr::ConcatWindows].into_iter().enumerate() {
            let mut cfg = CuShaConfig::new(repr).with_vertices_per_shard(n);
            cfg.max_iterations = ctx.max_iterations;
            ms[i] = run(&prog, &g, &cfg).stats.total_ms();
        }
        a.row([label, fmt_ms(ms[0]), fmt_ms(ms[1])]);
    }
    out.push_str(&a.render());
    out.push('\n');

    // (b) Shared memory per SM: the paper's concluding claim.
    let mut bt = Table::new(format!(
        "Ablation (b): shared memory per SM, SSSP on 67_16 (rmat scale 1/{})",
        ctx.rmat_scale
    ))
    .header(["Device", "autotuned |N|", "GS ms", "CW ms"]);
    for dev in [
        DeviceConfig::gtx680(),
        DeviceConfig::gtx780(),
        DeviceConfig::big_shared(),
    ] {
        let n = cusha_core::select_vertices_per_shard(
            g.num_vertices() as u64,
            g.num_edges() as u64,
            4,
            &dev,
        );
        let mut ms = [0.0f64; 2];
        for (i, repr) in [Repr::GShards, Repr::ConcatWindows].into_iter().enumerate() {
            let mut cfg = CuShaConfig::new(repr);
            cfg.device = dev.clone();
            cfg.max_iterations = ctx.max_iterations;
            ms[i] = run(&prog, &g, &cfg).stats.total_ms();
        }
        bt.row([
            dev.name.to_string(),
            n.to_string(),
            fmt_ms(ms[0]),
            fmt_ms(ms[1]),
        ]);
    }
    out.push_str(&bt.render());
    out.push('\n');

    // (c) VWC outlier deferral.
    let mut ct = Table::new(format!(
        "Ablation (c): VWC outlier deferral, SSSP on 67_16 (rmat scale 1/{})",
        ctx.rmat_scale
    ))
    .header([
        "Virtual warp",
        "plain ms",
        "deferred(>64) ms",
        "plain warp eff",
        "deferred warp eff",
    ]);
    for vw in [2usize, 8, 32] {
        let mut plain_cfg = VwcConfig::new(vw);
        plain_cfg.max_iterations = ctx.max_iterations;
        let plain = run_vwc(&prog, &g, &plain_cfg).stats;
        let mut def_cfg = VwcConfig::new(vw).with_outlier_deferral(64);
        def_cfg.max_iterations = ctx.max_iterations;
        let def = run_vwc(&prog, &g, &def_cfg).stats;
        ct.row([
            format!("{vw}"),
            fmt_ms(plain.total_ms()),
            fmt_ms(def.total_ms()),
            format!("{:.1}%", plain.kernel.warp_execution_efficiency() * 100.0),
            format!("{:.1}%", def.kernel.warp_execution_efficiency() * 100.0),
        ]);
    }
    out.push_str(&ct.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_report_renders_all_three_sections() {
        let ctx = Ctx {
            rmat_scale: 4096,
            max_iterations: 60,
            ..Default::default()
        };
        let s = run_all(&ctx);
        assert!(s.contains("Ablation (a)"));
        assert!(s.contains("autotuned"));
        assert!(s.contains("Ablation (b)"));
        assert!(s.contains("96 KiB"));
        assert!(s.contains("Ablation (c)"));
    }
}
