//! Device configuration and the GTX 780 preset used by the paper.

/// Architectural and cost-model parameters of the simulated device.
///
/// The default construction is [`DeviceConfig::gtx780`], matching the
/// evaluation platform of the paper (Section 5): an NVIDIA GeForce GTX 780
/// with 12 SMX multiprocessors and 3 GB of GDDR5, attached over PCIe 3.0 x16.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Maximum number of thread blocks resident on one SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Core clock in GHz (converts issue cycles to seconds).
    pub clock_ghz: f64,
    /// Warp instructions an SM can issue per cycle (Kepler SMX: 4 warp
    /// schedulers; we model single issue per scheduler).
    pub issue_width: u32,
    /// Peak DRAM bandwidth in GB/s (converts sector traffic to seconds).
    pub dram_bandwidth_gbps: f64,
    /// Coalescing segment size in bytes (transaction granularity).
    pub segment_bytes: u32,
    /// DRAM sector size in bytes (traffic granularity).
    pub sector_bytes: u32,
    /// Number of shared-memory banks.
    pub shared_banks: u32,
    /// Shared-memory bank width in bytes.
    pub bank_width_bytes: u32,
    /// Effective host↔device bandwidth in GB/s.
    pub pcie_bandwidth_gbps: f64,
    /// Fixed per-transfer latency in microseconds (driver + DMA setup).
    pub pcie_latency_us: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub kernel_launch_us: f64,
    /// Device memory capacity in bytes (allocations beyond this panic, like
    /// a `cudaMalloc` failure would abort the paper's runs).
    pub global_mem_bytes: u64,
    /// Enables launch records (see `crate::replay`): a recorded launch
    /// charges what its record holds instead of interpreting those bodies.
    /// Off, every recorded launch interprets them and counts one fallback,
    /// plus one per per-block share body. Replay is an exactness-preserving
    /// simulator acceleration, not a device property. The flag is an A/B switch: tests turn it off to prove
    /// outputs and counters bit-identical with it off, and the benchmark
    /// ledger for its `simt.replay_off_ratio` probe and its PageRank
    /// reference run. No production path sets it.
    pub replay_memo: bool,
}

impl DeviceConfig {
    /// The paper's evaluation GPU: GeForce GTX 780.
    ///
    /// 12 SMX, 48 KiB shared memory per SM, 3 GB GDDR5 at 288.4 GB/s,
    /// 863 MHz base clock, PCIe 3.0 x16 (~12 GB/s effective).
    pub fn gtx780() -> Self {
        DeviceConfig {
            name: "GeForce GTX 780 (simulated)",
            num_sms: 12,
            shared_mem_per_sm: 48 * 1024,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            clock_ghz: 0.863,
            issue_width: 4,
            dram_bandwidth_gbps: 288.4,
            segment_bytes: 128,
            sector_bytes: 32,
            shared_banks: 32,
            bank_width_bytes: 4,
            pcie_bandwidth_gbps: 12.0,
            pcie_latency_us: 10.0,
            kernel_launch_us: 5.0,
            global_mem_bytes: 3 * 1024 * 1024 * 1024,
            replay_memo: true,
        }
    }

    /// A GTX 680 preset (Kepler GK104): 8 SMX, 48 KiB shared, 192 GB/s —
    /// useful for studying how SM count and bandwidth shift the results.
    pub fn gtx680() -> Self {
        DeviceConfig {
            name: "GeForce GTX 680 (simulated)",
            num_sms: 8,
            dram_bandwidth_gbps: 192.2,
            clock_ghz: 1.006,
            global_mem_bytes: 2 * 1024 * 1024 * 1024,
            ..Self::gtx780()
        }
    }

    /// A forward-looking preset testing the paper's concluding claim that
    /// "increasing amount of shared memory per SM ... will further enhance
    /// the superiority" of the shard representations: double the shared
    /// memory (96 KiB, as later Volta-class parts shipped), with the other
    /// GTX 780 parameters unchanged.
    pub fn big_shared() -> Self {
        DeviceConfig {
            name: "GTX 780 + 96 KiB shared (simulated)",
            shared_mem_per_sm: 96 * 1024,
            ..Self::gtx780()
        }
    }

    /// A deliberately tiny device for unit tests: 2 SMs, 1 KiB shared
    /// memory, slow clock — keeps hand-computed expectations tractable.
    pub fn tiny_test() -> Self {
        DeviceConfig {
            name: "tiny-test",
            num_sms: 2,
            shared_mem_per_sm: 1024,
            max_blocks_per_sm: 4,
            max_threads_per_block: 128,
            clock_ghz: 1.0,
            issue_width: 1,
            dram_bandwidth_gbps: 1.0,
            segment_bytes: 128,
            sector_bytes: 32,
            shared_banks: 32,
            bank_width_bytes: 4,
            pcie_bandwidth_gbps: 1.0,
            pcie_latency_us: 1.0,
            kernel_launch_us: 1.0,
            global_mem_bytes: 1 << 20,
            replay_memo: true,
        }
    }

    /// Refuses a block of `threads` threads holding `shared_bytes` of shared
    /// memory that this device cannot launch: the two per-block limits, in
    /// one place (pass 0 to ask about the other alone).
    pub fn check_block(&self, threads: u32, shared_bytes: u64) -> Result<(), String> {
        let (limit, sm) = (self.max_threads_per_block, self.shared_mem_per_sm);
        if threads > limit {
            return Err(format!(
                "threads_per_block {threads} exceeds device limit {limit}"
            ));
        }
        if shared_bytes > sm as u64 {
            return Err(format!(
                "block shared memory {shared_bytes}B exceeds SM capacity {sm}B"
            ));
        }
        Ok(())
    }

    /// Seconds taken by a host↔device copy of `bytes` bytes.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.pcie_latency_us * 1e-6 + bytes as f64 / (self.pcie_bandwidth_gbps * 1e9)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::gtx780()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx780_matches_paper_platform() {
        let c = DeviceConfig::gtx780();
        assert_eq!(c.num_sms, 12);
        assert_eq!(c.shared_mem_per_sm, 48 * 1024);
        assert_eq!(c.global_mem_bytes, 3 * 1024 * 1024 * 1024);
    }

    #[test]
    fn presets_differ_where_expected() {
        let a = DeviceConfig::gtx780();
        let b = DeviceConfig::gtx680();
        assert!(b.num_sms < a.num_sms);
        assert!(b.dram_bandwidth_gbps < a.dram_bandwidth_gbps);
        assert_eq!(b.shared_mem_per_sm, a.shared_mem_per_sm);
        let c = DeviceConfig::big_shared();
        assert_eq!(c.shared_mem_per_sm, 2 * a.shared_mem_per_sm);
        assert_eq!(c.num_sms, a.num_sms);
    }

    #[test]
    fn transfer_time_is_latency_plus_bandwidth() {
        let c = DeviceConfig::tiny_test();
        // 1 GB at 1 GB/s = 1 s, plus 1 us latency.
        let t = c.transfer_seconds(1_000_000_000);
        assert!((t - 1.000001).abs() < 1e-9, "got {t}");
        // Zero bytes still pays latency.
        assert!((c.transfer_seconds(0) - 1e-6).abs() < 1e-12);
    }
}
