//! `nvprof`-style profiling reports over a device's kernel history.
//!
//! When profiling is enabled on a [`crate::Gpu`], every launch's
//! [`KernelStats`] is retained; [`Profile::report`] renders the aggregate
//! view the paper's Table 2 / Figure 8 discussions are based on: per
//! kernel, the launch count, total/mean modeled time, the three efficiency
//! metrics, achieved occupancy, and the roofline classification
//! (memory-bound vs. latency-bound, from the modeled DRAM vs. issue time).
//! [`Profile::to_json`] serializes the same aggregates as byte-stable
//! `cusha-profile/v1` JSON for the CLI's `--profile-json` export and the CI
//! artifacts.

use crate::counters::{Bound, Counters, KernelStats};
use cusha_obs::json::{push_f64, push_str_lit};
use std::collections::BTreeMap;

/// Schema tag of the profile JSON export.
pub const PROFILE_SCHEMA: &str = "cusha-profile/v1";

/// Aggregated statistics of one kernel (grouped by name).
#[derive(Clone, Debug, Default)]
pub struct KernelAggregate {
    /// Number of launches.
    pub launches: u64,
    /// Sum of modeled kernel seconds.
    pub total_seconds: f64,
    /// Sum of modeled issue-limited seconds.
    pub issue_seconds: f64,
    /// Sum of modeled DRAM-limited seconds.
    pub dram_seconds: f64,
    /// Sum of blocks launched.
    pub blocks: u64,
    /// Largest SM count seen across launches (0 if never on a device).
    pub sm_count: u32,
    /// Sum of raw counters across launches.
    pub counters: Counters,
}

impl KernelAggregate {
    fn absorb(&mut self, s: &KernelStats) {
        self.launches += 1;
        self.total_seconds += s.seconds;
        self.issue_seconds += s.issue_seconds;
        self.dram_seconds += s.dram_seconds;
        self.blocks += s.blocks as u64;
        self.sm_count = self.sm_count.max(s.sm_count);
        self.counters.add(&s.counters);
    }

    /// Whole-history global-load efficiency.
    pub fn gld_efficiency(&self) -> f64 {
        self.as_stats().gld_efficiency()
    }

    /// Whole-history global-store efficiency.
    pub fn gst_efficiency(&self) -> f64 {
        self.as_stats().gst_efficiency()
    }

    /// Whole-history warp execution efficiency.
    pub fn warp_execution_efficiency(&self) -> f64 {
        self.as_stats().warp_execution_efficiency()
    }

    /// Whole-history transactions replayed beyond the coalesced ideal.
    pub fn replayed_transactions(&self) -> u64 {
        self.as_stats().replayed_transactions()
    }

    /// Whole-history arithmetic intensity (warp instructions per DRAM byte).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.as_stats().arithmetic_intensity()
    }

    /// Mean achieved occupancy per launch.
    pub fn occupancy(&self) -> f64 {
        if self.sm_count == 0 || self.launches == 0 {
            1.0
        } else {
            let per_launch_blocks = self.blocks as f64 / self.launches as f64;
            (per_launch_blocks / self.sm_count as f64).min(1.0)
        }
    }

    /// Roofline classification over the whole history.
    pub fn bound(&self) -> Bound {
        self.as_stats().bound()
    }

    fn as_stats(&self) -> KernelStats {
        KernelStats {
            counters: self.counters,
            blocks: self.blocks.min(u32::MAX as u64) as u32,
            sm_count: self.sm_count,
            issue_seconds: self.issue_seconds,
            dram_seconds: self.dram_seconds,
            seconds: self.total_seconds,
            ..Default::default()
        }
    }
}

/// A device's profiling history.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    log: Vec<KernelStats>,
}

impl Profile {
    /// Records one launch.
    pub fn record(&mut self, stats: &KernelStats) {
        self.log.push(stats.clone());
    }

    /// All recorded launches, in order.
    pub fn launches(&self) -> &[KernelStats] {
        &self.log
    }

    /// Aggregates grouped by kernel name.
    pub fn aggregates(&self) -> BTreeMap<String, KernelAggregate> {
        let mut map: BTreeMap<String, KernelAggregate> = BTreeMap::new();
        for s in &self.log {
            map.entry(s.name.to_string()).or_default().absorb(s);
        }
        map
    }

    /// Renders an `nvprof`-style summary table with the roofline verdict.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "kernel                                    launches   total ms    avg ms   gld%   gst%  warp%   occ%  replay     AI  bound\n",
        );
        for (name, agg) in self.aggregates() {
            let total_ms = agg.total_seconds * 1e3;
            out.push_str(&format!(
                "{:<42}{:>9}{:>11.3}{:>10.4}{:>7.1}{:>7.1}{:>7.1}{:>7.1}{:>8}{:>7.3}  {}\n",
                truncate(&name, 41),
                agg.launches,
                total_ms,
                total_ms / agg.launches as f64,
                agg.gld_efficiency() * 100.0,
                agg.gst_efficiency() * 100.0,
                agg.warp_execution_efficiency() * 100.0,
                agg.occupancy() * 100.0,
                agg.replayed_transactions(),
                agg.arithmetic_intensity(),
                agg.bound().label(),
            ));
        }
        out
    }

    /// Serializes the per-kernel aggregates as byte-stable
    /// `cusha-profile/v1` JSON (kernel names sort via `BTreeMap`, floats
    /// use shortest round-trip formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":");
        push_str_lit(&mut out, PROFILE_SCHEMA);
        out.push_str(",\"kernels\":{");
        for (i, (name, agg)) in self.aggregates().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, name);
            out.push_str(":{\"launches\":");
            out.push_str(&agg.launches.to_string());
            out.push_str(",\"blocks\":");
            out.push_str(&agg.blocks.to_string());
            out.push_str(",\"total_seconds\":");
            push_f64(&mut out, agg.total_seconds);
            out.push_str(",\"issue_seconds\":");
            push_f64(&mut out, agg.issue_seconds);
            out.push_str(",\"dram_seconds\":");
            push_f64(&mut out, agg.dram_seconds);
            let c = &agg.counters;
            for (key, v) in [
                ("warp_instructions", c.warp_instructions),
                ("active_lane_sum", c.active_lane_sum),
                ("gld_transactions", c.gld_transactions),
                ("gld_requested_bytes", c.gld_requested_bytes),
                ("gst_transactions", c.gst_transactions),
                ("gst_requested_bytes", c.gst_requested_bytes),
                ("dram_sectors", c.dram_sectors),
                ("shared_accesses", c.shared_accesses),
                ("bank_conflict_replays", c.bank_conflict_replays),
                ("atomic_replays", c.atomic_replays),
                ("replayed_transactions", agg.replayed_transactions()),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                out.push_str(&v.to_string());
            }
            for (key, v) in [
                ("gld_efficiency", agg.gld_efficiency()),
                ("gst_efficiency", agg.gst_efficiency()),
                ("warp_execution_efficiency", agg.warp_execution_efficiency()),
                ("occupancy", agg.occupancy()),
                ("arithmetic_intensity", agg.arithmetic_intensity()),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                push_f64(&mut out, v);
            }
            out.push_str(",\"bound\":");
            push_str_lit(&mut out, agg.bound().label());
            out.push('}');
        }
        out.push_str("}}\n");
        out
    }

    /// Records the per-kernel aggregates into a metrics registry: the base
    /// labels plus a `kernel` label per series, so every engine's profiled
    /// kernels land in the same schema.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        for (name, agg) in self.aggregates() {
            let mut labels = labels.to_vec();
            labels.push(("kernel", name.as_str()));
            reg.add("gpu_kernel_launches", &labels, agg.launches);
            reg.set_gauge("gpu_kernel_total_seconds", &labels, agg.total_seconds);
            agg.as_stats().record_metrics(reg, &labels);
        }
    }

    /// Forgets all recorded launches.
    pub fn clear(&mut self) {
        self.log.clear();
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..max.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, secs: f64, gld_req: u64, gld_tx: u64) -> KernelStats {
        KernelStats {
            name: name.into(),
            seconds: secs,
            counters: Counters {
                warp_instructions: 10,
                active_lane_sum: 320,
                gld_requested_bytes: gld_req,
                gld_transactions: gld_tx,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn aggregates_group_by_name() {
        let mut p = Profile::default();
        p.record(&fake("bfs", 0.001, 128, 1));
        p.record(&fake("bfs", 0.003, 128, 4));
        p.record(&fake("sssp", 0.002, 64, 1));
        let aggs = p.aggregates();
        assert_eq!(aggs.len(), 2);
        let bfs = &aggs["bfs"];
        assert_eq!(bfs.launches, 2);
        assert!((bfs.total_seconds - 0.004).abs() < 1e-12);
        // 256 requested over 5 transactions of 128 B.
        assert!((bfs.gld_efficiency() - 256.0 / 640.0).abs() < 1e-12);
        assert!((bfs.warp_execution_efficiency() - 1.0).abs() < 1e-12);
        // 5 transactions against an ideal of 2 = 3 replays.
        assert_eq!(bfs.replayed_transactions(), 3);
    }

    #[test]
    fn report_renders_rows() {
        let mut p = Profile::default();
        p.record(&fake("kernel-a", 0.5, 128, 1));
        let r = p.report();
        assert!(r.contains("kernel-a"));
        assert!(r.contains("500.000"));
        assert!(r.contains("bound"));
        p.clear();
        assert_eq!(p.launches().len(), 0);
    }

    #[test]
    fn roofline_classifies_by_dominant_time() {
        let mut mem = fake("m", 1.0, 128, 4);
        mem.dram_seconds = 0.8;
        mem.issue_seconds = 0.2;
        let mut lat = fake("l", 1.0, 128, 4);
        lat.dram_seconds = 0.1;
        lat.issue_seconds = 0.9;
        let mut p = Profile::default();
        p.record(&mem);
        p.record(&lat);
        let aggs = p.aggregates();
        assert_eq!(aggs["m"].bound(), Bound::Memory);
        assert_eq!(aggs["l"].bound(), Bound::Latency);
        let r = p.report();
        assert!(r.contains("memory") && r.contains("latency"));
    }

    #[test]
    fn json_export_is_versioned_and_stable() {
        let mut p = Profile::default();
        p.record(&fake("b", 0.001, 128, 2));
        p.record(&fake("a", 0.002, 64, 1));
        let j1 = p.to_json();
        assert_eq!(j1, p.to_json(), "profile json must be byte-stable");
        assert!(j1.starts_with("{\"schema\":\"cusha-profile/v1\""));
        assert!(j1.find("\"a\":").unwrap() < j1.find("\"b\":").unwrap());
        assert!(j1.contains("\"bound\":\"latency\""));
        assert!(j1.contains("\"launches\":1"));
    }

    #[test]
    fn long_names_truncate() {
        assert_eq!(truncate("abc", 5), "abc");
        let t = truncate("abcdefghij", 5);
        assert!(t.chars().count() == 5 && t.ends_with('…'));
    }
}
