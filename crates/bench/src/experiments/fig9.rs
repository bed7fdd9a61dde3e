//! Figure 9: device memory occupied by CSR, G-Shards and CW, per input
//! graph, min/avg/max across the eight benchmarks, normalized to the CSR
//! average.
//!
//! This artifact is pure arithmetic over the paper's full-size graphs (no
//! simulation): footprints depend only on |V|, |E|, the per-benchmark value
//! sizes, and the autotuned shard count.

use crate::bench_defs::Benchmark;
use crate::experiments::Ctx;
use crate::table::Table;
use cusha_core::memsize::{csr_bytes, cw_bytes, gshards_bytes};
use cusha_core::select_vertices_per_shard;
use cusha_graph::surrogates::Dataset;
use cusha_simt::DeviceConfig;

struct Stat {
    min: f64,
    avg: f64,
    max: f64,
}

fn stat(xs: &[f64]) -> Stat {
    let n = xs.len() as f64;
    Stat {
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        avg: xs.iter().sum::<f64>() / n,
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Renders Figure 9 (full paper graph sizes; `ctx` is unused except for
/// symmetry with the other structural artifacts).
pub fn run(_ctx: &Ctx) -> String {
    let dev = DeviceConfig::gtx780();
    let mut t = Table::new(
        "Figure 9: memory footprint normalized to per-graph CSR average (full paper sizes)",
    )
    .header([
        "Graph",
        "CSR min/avg/max",
        "G-Shards min/avg/max",
        "CW min/avg/max",
    ]);
    for ds in Dataset::ALL {
        let (e, v) = ds.paper_size();
        let mut csr = Vec::new();
        let mut gsh = Vec::new();
        let mut cw = Vec::new();
        for b in Benchmark::ALL {
            let s = b.value_sizes();
            let n_per = select_vertices_per_shard(v, e, s.vertex.max(1), &dev) as u64;
            let p = v.div_ceil(n_per).max(1);
            csr.push(csr_bytes(v, e, s) as f64);
            gsh.push(gshards_bytes(v, e, p, s) as f64);
            cw.push(cw_bytes(v, e, p, s) as f64);
        }
        let base = csr.iter().sum::<f64>() / csr.len() as f64;
        let f = |s: Stat| {
            format!(
                "{:.2}/{:.2}/{:.2}",
                s.min / base,
                s.avg / base,
                s.max / base
            )
        };
        t.row([
            ds.name().to_string(),
            f(stat(&csr)),
            f(stat(&gsh)),
            f(stat(&cw)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Ctx;

    #[test]
    fn gshards_and_cw_exceed_csr() {
        let s = run(&Ctx::default());
        assert!(s.contains("LiveJournal"));
        // Spot-check the ordering numerically rather than parsing the table.
        let dev = DeviceConfig::gtx780();
        let (e, v) = Dataset::LiveJournal.paper_size();
        let sz = Benchmark::Sssp.value_sizes();
        let n_per = select_vertices_per_shard(v, e, sz.vertex, &dev) as u64;
        let p = v.div_ceil(n_per);
        let c = csr_bytes(v, e, sz) as f64;
        let g = gshards_bytes(v, e, p, sz) as f64;
        let w = cw_bytes(v, e, p, sz) as f64;
        assert!(c < g && g < w);
        // Paper's averages: GS ~2.09x, CW ~2.58x; allow a generous band.
        assert!((1.5..3.0).contains(&(g / c)), "GS/CSR = {}", g / c);
        assert!((1.8..3.5).contains(&(w / c)), "CW/CSR = {}", w / c);
    }
}
