//! Profiling counters, lane masks, and per-kernel statistics.

/// Warp width of the simulated device (all NVIDIA architectures to date).
pub const WARP: usize = 32;

/// Active-lane mask of a warp instruction; bit `i` = lane `i` active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mask(pub u32);

impl Mask {
    /// All 32 lanes active.
    pub const FULL: Mask = Mask(u32::MAX);
    /// No lanes active.
    pub const NONE: Mask = Mask(0);

    /// Mask with the first `n` lanes active (`n <= 32`).
    #[inline]
    pub fn first(n: usize) -> Mask {
        debug_assert!(n <= WARP);
        if n >= WARP {
            Mask::FULL
        } else {
            Mask((1u32 << n) - 1)
        }
    }

    /// Builds a mask from a per-lane predicate.
    #[inline]
    pub fn from_fn(mut f: impl FnMut(usize) -> bool) -> Mask {
        let mut m = 0u32;
        for lane in 0..WARP {
            if f(lane) {
                m |= 1 << lane;
            }
        }
        Mask(m)
    }

    /// Mask activating the contiguous lane run `lo .. lo + len`
    /// (`lo + len <= 32`). The bit-arithmetic twin of
    /// `from_fn(|l| l >= lo && l < lo + len)`.
    #[inline]
    pub fn run(lo: usize, len: usize) -> Mask {
        debug_assert!(lo + len <= WARP);
        if len == 0 {
            return Mask::NONE;
        }
        let bits = if len >= WARP {
            u32::MAX
        } else {
            (1u32 << len) - 1
        };
        Mask(bits << lo)
    }

    /// If the active lanes form one contiguous run, returns `(lo, len)`.
    /// This is what lets the SoA lane-state operations turn a masked sweep
    /// into a plain slice copy plus closed-form coalescing math.
    #[inline]
    pub fn as_run(self) -> Option<(usize, usize)> {
        if self.0 == 0 {
            return None;
        }
        let lo = self.0.trailing_zeros();
        // A run shifted down to bit 0 is `2^len - 1`; widen to u64 so the
        // full mask (`u32::MAX`) does not overflow the check.
        let shifted = (self.0 >> lo) as u64;
        if (shifted + 1).is_power_of_two() {
            Some((lo as usize, shifted.count_ones() as usize))
        } else {
            None
        }
    }

    /// Is lane `i` active?
    #[inline]
    pub fn lane(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Number of active lanes.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no lane is active.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Intersection of two masks.
    #[inline]
    pub fn and(self, other: Mask) -> Mask {
        Mask(self.0 & other.0)
    }

    /// Iterator over active lane indices (ascending), by bit scan — the
    /// cost is proportional to the number of *active* lanes, not the warp
    /// width.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(l)
            }
        })
    }
}

/// Raw event counters accumulated while a kernel runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Warp instructions issued (every warp-wide operation counts one).
    pub warp_instructions: u64,
    /// Sum of active lanes over all issued warp instructions.
    pub active_lane_sum: u64,
    /// Global-load transactions (distinct 128 B segments).
    pub gld_transactions: u64,
    /// Bytes requested by global loads.
    pub gld_requested_bytes: u64,
    /// Global-store transactions.
    pub gst_transactions: u64,
    /// Bytes requested by global stores.
    pub gst_requested_bytes: u64,
    /// DRAM sectors moved (loads + stores), for bandwidth accounting.
    pub dram_sectors: u64,
    /// Shared-memory accesses issued.
    pub shared_accesses: u64,
    /// Shared-memory bank-conflict replays.
    pub bank_conflict_replays: u64,
    /// Extra passes serializing same-address shared atomics.
    pub atomic_replays: u64,
}

impl Counters {
    /// Element-wise accumulation.
    pub fn add(&mut self, other: &Counters) {
        self.warp_instructions += other.warp_instructions;
        self.active_lane_sum += other.active_lane_sum;
        self.gld_transactions += other.gld_transactions;
        self.gld_requested_bytes += other.gld_requested_bytes;
        self.gst_transactions += other.gst_transactions;
        self.gst_requested_bytes += other.gst_requested_bytes;
        self.dram_sectors += other.dram_sectors;
        self.shared_accesses += other.shared_accesses;
        self.bank_conflict_replays += other.bank_conflict_replays;
        self.atomic_replays += other.atomic_replays;
    }
}

/// Which side of the roofline a kernel's modeled time sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// DRAM time dominates: the kernel saturates modeled memory bandwidth.
    Memory,
    /// Issue time dominates: the kernel waits on instruction issue, not
    /// bandwidth.
    Latency,
}

impl Bound {
    /// Stable lower-case label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Bound::Memory => "memory",
            Bound::Latency => "latency",
        }
    }
}

/// Statistics of one simulated kernel launch, in `nvprof` terms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Kernel name (for reports). Shared so the hot launch path clones a
    /// refcount, not a heap string.
    pub name: std::sync::Arc<str>,
    /// Number of blocks launched.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// SM count of the device that ran the launch (0 when synthesized
    /// outside a device, e.g. in unit tests).
    pub sm_count: u32,
    /// Accumulated raw counters.
    pub counters: Counters,
    /// Modeled issue-limited time in seconds (max over SMs).
    pub issue_seconds: f64,
    /// Modeled DRAM-limited time in seconds.
    pub dram_seconds: f64,
    /// Total modeled kernel time in seconds (roofline + launch overhead).
    pub seconds: f64,
}

impl KernelStats {
    /// Global-memory *load* efficiency: requested bytes over transferred
    /// bytes (`transactions * segment size`); 100 % means every transaction
    /// was fully used.
    pub fn gld_efficiency(&self) -> f64 {
        ratio(
            self.counters.gld_requested_bytes,
            self.counters.gld_transactions * 128,
        )
    }

    /// Global-memory *store* efficiency.
    pub fn gst_efficiency(&self) -> f64 {
        ratio(
            self.counters.gst_requested_bytes,
            self.counters.gst_transactions * 128,
        )
    }

    /// Combined load+store efficiency ("global memory accesses" column of
    /// the paper's Table 2).
    pub fn gmem_efficiency(&self) -> f64 {
        ratio(
            self.counters.gld_requested_bytes + self.counters.gst_requested_bytes,
            (self.counters.gld_transactions + self.counters.gst_transactions) * 128,
        )
    }

    /// Warp execution efficiency: mean fraction of active lanes per issued
    /// warp instruction.
    pub fn warp_execution_efficiency(&self) -> f64 {
        ratio(
            self.counters.active_lane_sum,
            self.counters.warp_instructions * WARP as u64,
        )
    }

    /// Minimum transactions the issued requests could have produced if
    /// perfectly coalesced: one full 128 B segment per 128 requested bytes.
    pub fn ideal_transactions(&self) -> u64 {
        self.counters.gld_requested_bytes.div_ceil(128)
            + self.counters.gst_requested_bytes.div_ceil(128)
    }

    /// Transactions replayed beyond the coalesced ideal — the cost of
    /// scattered access the paper's shard layout exists to remove.
    pub fn replayed_transactions(&self) -> u64 {
        (self.counters.gld_transactions + self.counters.gst_transactions)
            .saturating_sub(self.ideal_transactions())
    }

    /// Achieved SM occupancy under the round-robin block scheduler: the
    /// fraction of SMs that received at least one block (1.0 when the SM
    /// count is unknown).
    pub fn occupancy(&self) -> f64 {
        if self.sm_count == 0 {
            1.0
        } else {
            (self.blocks.min(self.sm_count)) as f64 / self.sm_count as f64
        }
    }

    /// Arithmetic intensity of the roofline: warp instructions issued per
    /// byte moved over DRAM (0 when the kernel touched no global memory).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = (self.counters.gld_transactions + self.counters.gst_transactions) * 128;
        if bytes == 0 {
            0.0
        } else {
            self.counters.warp_instructions as f64 / bytes as f64
        }
    }

    /// Roofline classification of the modeled time.
    pub fn bound(&self) -> Bound {
        if self.dram_seconds >= self.issue_seconds && self.dram_seconds > 0.0 {
            Bound::Memory
        } else {
            Bound::Latency
        }
    }

    /// Records this launch (or aggregate) into a metrics registry under the
    /// unified metrics schema: raw event counts as counters, derived
    /// efficiencies and modeled times as gauges.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        let c = &self.counters;
        reg.add("gpu_blocks", labels, self.blocks as u64);
        reg.add("gpu_warp_instructions", labels, c.warp_instructions);
        reg.add("gpu_active_lane_sum", labels, c.active_lane_sum);
        reg.add("gpu_gld_transactions", labels, c.gld_transactions);
        reg.add("gpu_gld_requested_bytes", labels, c.gld_requested_bytes);
        reg.add("gpu_gst_transactions", labels, c.gst_transactions);
        reg.add("gpu_gst_requested_bytes", labels, c.gst_requested_bytes);
        reg.add("gpu_dram_sectors", labels, c.dram_sectors);
        reg.add("gpu_shared_accesses", labels, c.shared_accesses);
        reg.add("gpu_bank_conflict_replays", labels, c.bank_conflict_replays);
        reg.add("gpu_atomic_replays", labels, c.atomic_replays);
        reg.set_gauge("gpu_gld_efficiency", labels, self.gld_efficiency());
        reg.set_gauge("gpu_gst_efficiency", labels, self.gst_efficiency());
        reg.set_gauge("gpu_gmem_efficiency", labels, self.gmem_efficiency());
        reg.set_gauge(
            "gpu_warp_execution_efficiency",
            labels,
            self.warp_execution_efficiency(),
        );
        reg.add(
            "gpu_replayed_transactions",
            labels,
            self.replayed_transactions(),
        );
        reg.set_gauge("gpu_occupancy", labels, self.occupancy());
        reg.set_gauge(
            "gpu_arithmetic_intensity",
            labels,
            self.arithmetic_intensity(),
        );
        reg.set_gauge("gpu_kernel_seconds", labels, self.seconds);
        reg.set_gauge("gpu_issue_seconds", labels, self.issue_seconds);
        reg.set_gauge("gpu_dram_seconds", labels, self.dram_seconds);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        // No accesses issued: report perfect efficiency, as nvprof omits the
        // metric; callers averaging across kernels skip empty ones anyway.
        1.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_first() {
        assert_eq!(Mask::first(0), Mask::NONE);
        assert_eq!(Mask::first(32), Mask::FULL);
        assert_eq!(Mask::first(3).count(), 3);
        assert!(Mask::first(3).lane(2));
        assert!(!Mask::first(3).lane(3));
    }

    #[test]
    fn mask_run_matches_from_fn() {
        for lo in 0..WARP {
            for len in 0..=(WARP - lo) {
                let expect = Mask::from_fn(|l| l >= lo && l < lo + len);
                assert_eq!(Mask::run(lo, len), expect, "run({lo}, {len})");
            }
        }
    }

    #[test]
    fn as_run_detects_exactly_the_contiguous_masks() {
        assert_eq!(Mask::NONE.as_run(), None);
        assert_eq!(Mask::FULL.as_run(), Some((0, 32)));
        assert_eq!(Mask::first(7).as_run(), Some((0, 7)));
        assert_eq!(Mask::run(5, 11).as_run(), Some((5, 11)));
        assert_eq!(Mask::run(31, 1).as_run(), Some((31, 1)));
        assert_eq!(Mask(0b101).as_run(), None);
        assert_eq!(Mask::from_fn(|l| l % 2 == 0).as_run(), None);
        // Exhaustive cross-check against a reference implementation.
        for bits in (0u32..=u16::MAX as u32).step_by(7) {
            let m = Mask(bits);
            let lanes: Vec<usize> = m.iter().collect();
            let contiguous = !lanes.is_empty() && lanes.windows(2).all(|w| w[1] == w[0] + 1);
            match m.as_run() {
                Some((lo, len)) => {
                    assert!(contiguous);
                    assert_eq!(lo, lanes[0]);
                    assert_eq!(len, lanes.len());
                }
                None => assert!(!contiguous),
            }
        }
    }

    #[test]
    fn mask_from_fn_and_iter() {
        let m = Mask::from_fn(|i| i % 2 == 0);
        assert_eq!(m.count(), 16);
        assert_eq!(m.iter().collect::<Vec<_>>()[..3], [0, 2, 4]);
        assert_eq!(m.and(Mask::first(4)).count(), 2);
    }

    #[test]
    fn efficiencies() {
        let mut s = KernelStats::default();
        s.counters.gld_requested_bytes = 128;
        s.counters.gld_transactions = 1;
        assert!((s.gld_efficiency() - 1.0).abs() < 1e-12);
        s.counters.gld_transactions = 4;
        assert!((s.gld_efficiency() - 0.25).abs() < 1e-12);
        // Store side independent.
        s.counters.gst_requested_bytes = 4;
        s.counters.gst_transactions = 1;
        assert!((s.gst_efficiency() - 4.0 / 128.0).abs() < 1e-12);
        // Combined.
        assert!((s.gmem_efficiency() - 132.0 / (5.0 * 128.0)).abs() < 1e-12);
    }

    #[test]
    fn warp_efficiency() {
        let mut s = KernelStats::default();
        s.counters.warp_instructions = 10;
        s.counters.active_lane_sum = 160;
        assert!((s.warp_execution_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_kernel_reports_unity() {
        let s = KernelStats::default();
        assert_eq!(s.gld_efficiency(), 1.0);
        assert_eq!(s.warp_execution_efficiency(), 1.0);
    }

    #[test]
    fn counters_add() {
        let mut a = Counters {
            warp_instructions: 1,
            ..Default::default()
        };
        let b = Counters {
            warp_instructions: 2,
            gld_transactions: 3,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.warp_instructions, 3);
        assert_eq!(a.gld_transactions, 3);
    }
}
