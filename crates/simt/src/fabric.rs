//! Multi-device fabric: a fleet of simulated GPUs plus an interconnect
//! timing model.
//!
//! CuSha's evaluation is single-GPU, but its Section 5.1 discussion ("if
//! graphs do not fit in the GPU RAM…") points at scaling out. The fabric
//! supplies the hardware substrate for that: [`DeviceFleet`] owns N
//! independent [`Gpu`] instances (separate allocators, separate timing
//! accumulators, separate fault plans), and [`Interconnect`] models the
//! device-to-device exchange cost the multi-device engine charges once per
//! iteration.
//!
//! Like the rest of the simulator, the interconnect is analytic, not
//! cycle-accurate: a transfer of `b` bytes costs `latency + b / bandwidth`,
//! and contention is modeled structurally — a *shared* fabric (PCIe through
//! the host root complex) serializes all devices' traffic, while *peer*
//! links (NVLink-style point-to-point) let devices send concurrently so the
//! exchange finishes when the busiest link drains.

use crate::config::DeviceConfig;
use crate::counters::KernelStats;
use crate::device::Gpu;
use cusha_obs::trace::{lanes, Tracer};

/// Timing model of the link(s) connecting devices in a fleet.
#[derive(Clone, Debug)]
pub struct Interconnect {
    /// Human-readable interconnect name.
    pub name: &'static str,
    /// Per-link bandwidth in GB/s.
    pub link_bandwidth_gbps: f64,
    /// Fixed per-exchange latency in microseconds (driver + DMA setup,
    /// paid once per bulk-synchronous exchange, not per message).
    pub latency_us: f64,
    /// `true` when every transfer crosses one shared fabric (PCIe through
    /// the host root complex): all devices' traffic serializes. `false`
    /// for point-to-point peer links (NVLink): devices send concurrently
    /// and the exchange is bound by the busiest sender.
    pub shared_fabric: bool,
}

impl Interconnect {
    /// PCIe 3.0 x16 through the host root complex: ~12 GB/s effective per
    /// direction, shared by every device in the fleet (matching the
    /// [`DeviceConfig::gtx780`] host-transfer parameters).
    pub fn pcie_gen3() -> Self {
        Interconnect {
            name: "pcie-gen3",
            link_bandwidth_gbps: 12.0,
            latency_us: 10.0,
            shared_fabric: true,
        }
    }

    /// First-generation NVLink-style peer links: 40 GB/s per device pair,
    /// lower setup latency, and no shared bottleneck — each device drains
    /// its own send queue concurrently.
    pub fn nvlink() -> Self {
        Interconnect {
            name: "nvlink",
            link_bandwidth_gbps: 40.0,
            latency_us: 5.0,
            shared_fabric: false,
        }
    }

    /// Parses a preset name as accepted by the CLI (`pcie` / `nvlink`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "pcie" | "pcie-gen3" | "pcie3" => Some(Self::pcie_gen3()),
            "nvlink" => Some(Self::nvlink()),
            _ => None,
        }
    }

    /// Modeled seconds for one bulk-synchronous all-to-all exchange where
    /// device `d` sends `sent_bytes[d]` bytes to its peers.
    ///
    /// Zero traffic costs zero seconds (no exchange is issued at all — in
    /// particular a single-device fleet never touches the interconnect).
    /// Otherwise a shared fabric serializes every byte; peer links overlap
    /// and the slowest sender bounds the exchange.
    pub fn exchange_seconds(&self, sent_bytes: &[u64]) -> f64 {
        let total: u64 = sent_bytes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let bw = self.link_bandwidth_gbps * 1e9;
        let wire_bytes = if self.shared_fabric {
            total
        } else {
            sent_bytes.iter().copied().max().unwrap_or(0)
        };
        self.latency_us * 1e-6 + wire_bytes as f64 / bw
    }
}

/// A fleet of N independent simulated GPUs joined by an [`Interconnect`].
///
/// Each device keeps its own allocator, fault plan, and timing totals; the
/// fleet additionally tallies per-device [`KernelStats`] (fed by the engine
/// via [`DeviceFleet::record_launch`]) so per-device behavior stays
/// inspectable next to the fleet-level aggregate.
pub struct DeviceFleet {
    /// `None` for [`DeviceFleet::solo`]: one device has no peer to reach.
    interconnect: Option<Interconnect>,
    devices: Vec<Gpu>,
    tallies: Vec<KernelStats>,
}

impl DeviceFleet {
    /// Builds a fleet of `count` identical devices.
    ///
    /// # Panics
    /// Panics when `count` is zero.
    pub fn new(cfg: &DeviceConfig, count: usize, interconnect: Interconnect) -> Self {
        assert!(count > 0, "a device fleet needs at least one device");
        let devices = (0..count).map(|_| Gpu::new(cfg.clone())).collect();
        Self::of(devices, Some(interconnect))
    }

    /// A fleet of one around a device its caller built (tracer, fault plan and
    /// replay table already installed) and takes back through
    /// [`DeviceFleet::device_mut`]. It has no fabric: nothing is exchanged.
    pub fn solo(gpu: Gpu) -> Self {
        Self::of(vec![gpu], None)
    }

    fn of(devices: Vec<Gpu>, interconnect: Option<Interconnect>) -> Self {
        let tallies = (0..devices.len())
            .map(|d| KernelStats {
                name: format!("device-{d}").into(),
                ..Default::default()
            })
            .collect();
        DeviceFleet {
            interconnect,
            devices,
            tallies,
        }
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false: construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The fleet's interconnect model (`None` for a [`DeviceFleet::solo`]).
    pub fn interconnect(&self) -> Option<&Interconnect> {
        self.interconnect.as_ref()
    }

    /// Immutable access to device `d`.
    pub fn device(&self, d: usize) -> &Gpu {
        &self.devices[d]
    }

    /// Mutable access to device `d` (uploads, launches, fault plans).
    pub fn device_mut(&mut self, d: usize) -> &mut Gpu {
        &mut self.devices[d]
    }

    /// Installs a tracer across the fleet: device `d` gets process lane
    /// `d`, and — over a fabric — one extra process lane (`pid = len()`,
    /// named "fleet") is reserved for fleet-level spans: bulk-synchronous
    /// iterations and halo exchanges that belong to no single device.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        for (d, gpu) in self.devices.iter_mut().enumerate() {
            gpu.set_tracer(tracer.clone(), d as u32);
        }
        if self.interconnect.is_none() {
            return;
        }
        let fleet = self.fleet_pid();
        tracer.name_process(fleet, "fleet");
        tracer.name_lane(fleet, lanes::ENGINE, "engine");
        tracer.name_lane(fleet, lanes::FAULT, "fault");
    }

    /// The Chrome-trace process of the engine lane: the one reserved after
    /// the last device for fleet-level spans, or — with no fabric, so nothing
    /// that belongs to no one device — the solo device's own.
    pub fn fleet_pid(&self) -> u32 {
        self.interconnect
            .as_ref()
            .map_or(0, |_| self.devices.len() as u32)
    }

    /// Folds one launch's stats into device `d`'s tally.
    pub fn record_launch(&mut self, d: usize, stats: &KernelStats) {
        let t = &mut self.tallies[d];
        t.blocks += stats.blocks;
        t.threads_per_block = stats.threads_per_block;
        t.counters.add(&stats.counters);
        t.issue_seconds += stats.issue_seconds;
        t.dram_seconds += stats.dram_seconds;
        t.seconds += stats.seconds;
    }

    /// Device `d`'s accumulated kernel stats.
    pub fn device_stats(&self, d: usize) -> &KernelStats {
        &self.tallies[d]
    }

    /// Fleet-level aggregate: element-wise sum of every device's tally.
    pub fn aggregate_stats(&self) -> KernelStats {
        let mut agg = KernelStats {
            name: "fleet-aggregate".into(),
            ..Default::default()
        };
        for t in &self.tallies {
            agg.blocks += t.blocks;
            agg.threads_per_block = t.threads_per_block;
            agg.counters.add(&t.counters);
            agg.issue_seconds += t.issue_seconds;
            agg.dram_seconds += t.dram_seconds;
            agg.seconds += t.seconds;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    #[test]
    fn presets_differ_where_expected() {
        let pcie = Interconnect::pcie_gen3();
        let nv = Interconnect::nvlink();
        assert!(pcie.shared_fabric && !nv.shared_fabric);
        assert!(nv.link_bandwidth_gbps > pcie.link_bandwidth_gbps);
        assert!(nv.latency_us < pcie.latency_us);
    }

    #[test]
    fn from_name_parses_cli_spellings() {
        assert_eq!(Interconnect::from_name("pcie").unwrap().name, "pcie-gen3");
        assert_eq!(
            Interconnect::from_name("pcie-gen3").unwrap().name,
            "pcie-gen3"
        );
        assert_eq!(Interconnect::from_name("nvlink").unwrap().name, "nvlink");
        assert!(Interconnect::from_name("token-ring").is_none());
    }

    #[test]
    fn zero_traffic_costs_nothing() {
        assert_eq!(Interconnect::pcie_gen3().exchange_seconds(&[]), 0.0);
        assert_eq!(Interconnect::pcie_gen3().exchange_seconds(&[0, 0, 0]), 0.0);
        assert_eq!(Interconnect::nvlink().exchange_seconds(&[0]), 0.0);
    }

    #[test]
    fn shared_fabric_serializes_peer_links_overlap() {
        let sent = [12_000_000_000u64, 12_000_000_000];
        // PCIe at 12 GB/s shared: 24 GB serialize -> ~2 s.
        let pcie = Interconnect::pcie_gen3().exchange_seconds(&sent);
        assert!((pcie - (10e-6 + 2.0)).abs() < 1e-9, "got {pcie}");
        // NVLink at 40 GB/s peer: bounded by the max sender -> 0.3 s.
        let nv = Interconnect::nvlink().exchange_seconds(&sent);
        assert!((nv - (5e-6 + 0.3)).abs() < 1e-9, "got {nv}");
        // Contention: two senders on a shared fabric take twice one sender.
        let one = Interconnect::pcie_gen3().exchange_seconds(&sent[..1]);
        assert!(pcie > one * 1.9);
        // Peer links: a second equal sender is (latency aside) free.
        let nv_one = Interconnect::nvlink().exchange_seconds(&sent[..1]);
        assert!((nv - nv_one).abs() < 1e-12);
    }

    #[test]
    fn fleet_devices_are_independent() {
        let mut fleet = DeviceFleet::new(&DeviceConfig::tiny_test(), 2, Interconnect::pcie_gen3());
        assert_eq!(fleet.len(), 2);
        assert!(!fleet.is_empty());
        let _ = fleet.device_mut(0).upload(&[1u32; 64]);
        assert!(fleet.device(0).allocated_bytes() > 0);
        assert_eq!(fleet.device(1).allocated_bytes(), 0);
        assert!(fleet.device(0).h2d_seconds > 0.0);
        assert_eq!(fleet.device(1).h2d_seconds, 0.0);
    }

    #[test]
    fn tallies_stay_separate_and_aggregate_sums() {
        let mut fleet = DeviceFleet::new(&DeviceConfig::tiny_test(), 3, Interconnect::nvlink());
        let mk = |secs: f64, wi: u64| KernelStats {
            blocks: 2,
            seconds: secs,
            counters: Counters {
                warp_instructions: wi,
                ..Default::default()
            },
            ..Default::default()
        };
        fleet.record_launch(0, &mk(0.5, 10));
        fleet.record_launch(0, &mk(0.25, 5));
        fleet.record_launch(2, &mk(1.0, 7));
        assert_eq!(fleet.device_stats(0).counters.warp_instructions, 15);
        assert!((fleet.device_stats(0).seconds - 0.75).abs() < 1e-12);
        assert_eq!(fleet.device_stats(1).counters.warp_instructions, 0);
        assert_eq!(fleet.device_stats(2).blocks, 2);
        let agg = fleet.aggregate_stats();
        assert_eq!(agg.counters.warp_instructions, 22);
        assert_eq!(agg.blocks, 6);
        assert!((agg.seconds - 1.75).abs() < 1e-12);
        assert_eq!(&*agg.name, "fleet-aggregate");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_rejected() {
        let _ = DeviceFleet::new(&DeviceConfig::tiny_test(), 0, Interconnect::pcie_gen3());
    }
}
