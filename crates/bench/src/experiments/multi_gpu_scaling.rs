//! Multi-GPU scaling: modeled speedup and halo-exchange cost of the fleet
//! engine, devices ∈ {1, 2, 4, 8}, over the Table-1 dataset surrogates.
//!
//! This artifact goes beyond the paper (CuSha's evaluation is single-GPU):
//! it quantifies how the shard schedule scales when the shard sequence is
//! edge-balanced across a [`cusha_simt::DeviceFleet`] and stage-4 halo
//! updates cross a modeled PCIe interconnect once per iteration. Reported
//! per dataset and device count: modeled time, speedup over one device,
//! the fraction of modeled time spent in the exchange, and the partition's
//! edge-count load imbalance. Outputs are bit-identical across device
//! counts (asserted here), so the sweep measures *timing* only.

use crate::experiments::Ctx;
use crate::table::{fmt_ms, fmt_pct, fmt_speedup, Table};
use cusha_algos::PageRank;
use cusha_core::settle;
use cusha_core::{try_run_placed, CuShaConfig, NoopObserver, Placement, PreparedLayout};
use cusha_graph::surrogates::Dataset;
use cusha_obs::{log, Level, MetricsRegistry};

/// Device counts swept per dataset.
pub const DEVICE_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One (dataset, devices) cell of the sweep.
pub struct ScalingCell {
    /// Fleet size.
    pub devices: usize,
    /// End-to-end modeled seconds.
    pub modeled_seconds: f64,
    /// Speedup over the single-device fleet.
    pub speedup: f64,
    /// Halo bytes exchanged over the interconnect.
    pub exchange_bytes: u64,
    /// Modeled interconnect seconds.
    pub exchange_seconds: f64,
    /// `exchange_seconds / modeled_seconds`.
    pub exchange_fraction: f64,
    /// Edge-count load imbalance of the partition (1.0 = perfect).
    pub load_imbalance: f64,
    /// Iterations to convergence (identical across device counts).
    pub iterations: u32,
}

/// One dataset's row of the sweep.
pub struct ScalingRow {
    /// Dataset surrogate name.
    pub dataset: &'static str,
    /// Vertices in the scaled surrogate.
    pub vertices: u32,
    /// Edges in the scaled surrogate.
    pub edges: u32,
    /// One cell per entry of [`DEVICE_SWEEP`].
    pub cells: Vec<ScalingCell>,
}

/// The full sweep result: renders the report table and serializes to
/// `multi_gpu_scaling.json`.
pub struct ScalingResult {
    /// Scale divisor the surrogates were generated at.
    pub scale: u64,
    /// Interconnect preset name used for every exchange.
    pub interconnect: String,
    /// One row per dataset surrogate.
    pub rows: Vec<ScalingRow>,
    /// Every run's full stats (per-device breakdown included), recorded
    /// under `dataset`/`devices` labels for `multi_gpu_scaling_metrics.json`.
    pub metrics: MetricsRegistry,
}

/// Runs PageRank (the all-active benchmark: every vertex updates every
/// iteration, so halo traffic is maximal) on the CW engine over each
/// surrogate for every device count.
pub fn run(ctx: &Ctx) -> ScalingResult {
    let mut rows = Vec::new();
    let mut metrics = MetricsRegistry::new();
    for ds in Dataset::ALL {
        let g = ds.generate(ctx.scale);
        if ctx.verbose {
            log::write(
                Level::Info,
                &format!(
                    "multi_gpu_scaling: {} ({} vertices, {} edges)",
                    ds.name(),
                    g.num_vertices(),
                    g.num_edges()
                ),
            );
        }
        let mut base = CuShaConfig::cw();
        base.max_iterations = ctx.max_iterations;
        // One layout per dataset, borrowed by every fleet of the sweep: the
        // narrowest fleet's pre-flight admits the wider ones.
        let prog = PageRank::new();
        let layout = PreparedLayout::for_program::<PageRank>(&g, &base, &Placement::fleet(1));
        let layout = layout.unwrap_or_else(|e| panic!("{e}"));
        let (mut cells, mut baseline) = (Vec::new(), None);
        for devices in DEVICE_SWEEP {
            let fleet = Placement::fleet(devices);
            let ran = try_run_placed(&prog, &g, &layout, &base, &fleet, None, &mut NoopObserver);
            let out = settle(ran);
            let s = out.stats.fleet.as_deref().expect("a fleet record");
            let modeled = s.modeled_seconds();
            let devices_label = devices.to_string();
            s.record_metrics(
                &mut metrics,
                &[("dataset", ds.name()), ("devices", &devices_label)],
            );
            let (values, baseline_seconds) =
                baseline.get_or_insert_with(|| (out.values.clone(), modeled));
            let name = ds.name();
            assert_eq!(
                values, &out.values,
                "{name}: {devices} devices diverged from one device"
            );
            cells.push(ScalingCell {
                devices,
                modeled_seconds: modeled,
                speedup: *baseline_seconds / modeled,
                exchange_bytes: s.exchange_bytes,
                exchange_seconds: s.exchange_seconds,
                exchange_fraction: s.exchange_seconds / modeled,
                load_imbalance: s.load_imbalance,
                iterations: s.iterations,
            });
        }
        rows.push(ScalingRow {
            dataset: ds.name(),
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            cells,
        });
    }
    ScalingResult {
        scale: ctx.scale,
        interconnect: cusha_simt::Interconnect::pcie_gen3().name.to_string(),
        rows,
        metrics,
    }
}

impl ScalingResult {
    /// Paper-style report table.
    pub fn report(&self) -> String {
        let mut t = Table::new(format!(
            "Multi-GPU scaling: CW PageRank over a {} fleet (scale 1/{}; \
             speedup vs 1 device, exchange share of modeled time)",
            self.interconnect, self.scale
        ))
        .header([
            "Graph".to_string(),
            "1 dev".to_string(),
            "2 dev".to_string(),
            "4 dev".to_string(),
            "8 dev".to_string(),
            "exch% @8".to_string(),
            "imbal @8".to_string(),
        ]);
        for row in &self.rows {
            let cell = |c: &ScalingCell| {
                format!(
                    "{} ({})",
                    fmt_ms(c.modeled_seconds * 1e3),
                    fmt_speedup(c.speedup)
                )
            };
            let last = row.cells.last().expect("sweep is never empty");
            t.row([
                row.dataset.to_string(),
                cell(&row.cells[0]),
                cell(&row.cells[1]),
                cell(&row.cells[2]),
                cell(&row.cells[3]),
                fmt_pct(last.exchange_fraction),
                format!("{:.3}", last.load_imbalance),
            ]);
        }
        t.render()
    }

    /// Hand-rolled JSON for `results/multi_gpu_scaling.json` (the workspace
    /// takes no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"experiment\": \"multi_gpu_scaling\",\n");
        s.push_str("  \"engine\": \"CuSha-CW\",\n");
        s.push_str("  \"benchmark\": \"PageRank\",\n");
        s.push_str(&format!("  \"interconnect\": \"{}\",\n", self.interconnect));
        s.push_str(&format!("  \"scale_divisor\": {},\n", self.scale));
        s.push_str("  \"datasets\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", row.dataset));
            s.push_str(&format!("      \"vertices\": {},\n", row.vertices));
            s.push_str(&format!("      \"edges\": {},\n", row.edges));
            s.push_str("      \"sweep\": [\n");
            for (j, c) in row.cells.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"devices\": {}, \"modeled_seconds\": {:.9}, \
                     \"speedup\": {:.4}, \"exchange_bytes\": {}, \
                     \"exchange_seconds\": {:.9}, \"exchange_fraction\": {:.6}, \
                     \"load_imbalance\": {:.4}, \"iterations\": {}}}{}\n",
                    c.devices,
                    c.modeled_seconds,
                    c.speedup,
                    c.exchange_bytes,
                    c.exchange_seconds,
                    c.exchange_fraction,
                    c.load_imbalance,
                    c.iterations,
                    if j + 1 < row.cells.len() { "," } else { "" },
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Byte-stable metrics snapshot (`cusha-metrics/v2`) of every run in
    /// the sweep, written next to `multi_gpu_scaling.json` by `repro`.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_and_serializes() {
        // One small dataset at a deep scale keeps this a fast smoke test.
        let ctx = Ctx {
            scale: 4096,
            rmat_scale: 4096,
            max_iterations: 50,
            verbose: false,
            jobs: 0,
        };
        let res = run(&ctx);
        assert_eq!(res.rows.len(), Dataset::ALL.len());
        for row in &res.rows {
            assert_eq!(row.cells.len(), DEVICE_SWEEP.len());
            assert!((row.cells[0].speedup - 1.0).abs() < 1e-12);
            assert_eq!(row.cells[0].exchange_bytes, 0);
        }
        let json = res.to_json();
        assert!(json.contains("\"experiment\": \"multi_gpu_scaling\""));
        assert!(json.contains("\"devices\": 8"));
        // Crude structural check: balanced braces and brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let report = res.report();
        assert!(report.contains("Multi-GPU scaling"));
        let metrics = res.metrics_json();
        assert!(metrics.starts_with("{\"schema\":\"cusha-metrics/v2\""));
        assert!(metrics.contains("multi_devices{dataset=LiveJournal,devices=8}"));
        assert!(metrics.contains("device_kernel_seconds{"));
    }
}
