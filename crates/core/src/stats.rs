//! Run statistics shared by every engine (CuSha, VWC, MTCPU), and the
//! fleet-shaped record a multi-device run adds to them.

use crate::device_run::split_clock;
use crate::engine::CuShaOutput;
use crate::multi::DeviceClocks;
use cusha_graph::FleetPartition;
pub use cusha_simt::FaultStats;
use cusha_simt::{KernelStats, Profile};

/// One iteration of the convergence loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationStat {
    /// Modeled (GPU engines) or measured (CPU engine) seconds this
    /// iteration took, excluding transfers.
    pub seconds: f64,
    /// Vertices whose published value changed this iteration (the y-axis of
    /// the paper's Figure 7).
    pub updated_vertices: u64,
}

/// Counters of the silent-data-corruption defense's activity during one
/// run. All zero for a fault-free run or with `IntegrityMode::Off`
/// (except `flips_injected`, which counts regardless of detection so tests
/// can prove the injector fired).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SdcStats {
    /// Silent bit flips the fault plan actually fired.
    pub flips_injected: u64,
    /// Corruptions caught by the checksum scrubber.
    pub checksum_detections: u32,
    /// Corruptions caught by an algorithm invariant (checkpoint or convergence).
    pub invariant_detections: u32,
    /// Rollbacks to a verified checkpoint.
    pub rollbacks: u32,
    /// Full restarts from the initial state (second recovery rung).
    pub full_restarts: u32,
    /// Escalations to the host fallback engine (last rung).
    pub host_fallbacks: u32,
    /// Verified checkpoints taken.
    pub checkpoints: u32,
    /// Iterations re-executed after rollbacks/restarts.
    pub reexecuted_iterations: u32,
}

impl SdcStats {
    /// Total corruption detections (both detectors).
    pub fn detections(&self) -> u32 {
        self.checksum_detections + self.invariant_detections
    }

    /// True when no corruption was detected and no recovery fired.
    /// Checkpoints taken and flips that went *undetected* (integrity off)
    /// do not make a run unclean — cleanliness is about recovery activity.
    pub fn is_clean(&self) -> bool {
        self.detections() == 0
            && self.rollbacks == 0
            && self.full_restarts == 0
            && self.host_fallbacks == 0
    }

    /// Element-wise accumulation (fleet aggregate = sum of per-device).
    pub fn absorb(&mut self, other: &SdcStats) {
        self.flips_injected += other.flips_injected;
        self.checksum_detections += other.checksum_detections;
        self.invariant_detections += other.invariant_detections;
        self.rollbacks += other.rollbacks;
        self.full_restarts += other.full_restarts;
        self.host_fallbacks += other.host_fallbacks;
        self.checkpoints += other.checkpoints;
        self.reexecuted_iterations += other.reexecuted_iterations;
    }

    /// Records the SDC counters into a metrics registry (new keys only —
    /// existing series are untouched, keeping golden snapshots stable).
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("sdc_flips_injected", labels, self.flips_injected);
        reg.add(
            "sdc_checksum_detections",
            labels,
            self.checksum_detections as u64,
        );
        reg.add(
            "sdc_invariant_detections",
            labels,
            self.invariant_detections as u64,
        );
        reg.add("sdc_rollbacks", labels, self.rollbacks as u64);
        reg.add("sdc_full_restarts", labels, self.full_restarts as u64);
        reg.add("sdc_host_fallbacks", labels, self.host_fallbacks as u64);
        reg.add("sdc_checkpoints", labels, self.checkpoints as u64);
        reg.add(
            "sdc_reexecuted_iterations",
            labels,
            self.reexecuted_iterations as u64,
        );
    }
}

/// Direction a frontier-engine iteration ran in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Frontier-driven: expand the compacted frontier over out-edges.
    Push,
    /// Dense: every vertex folds all of its in-edges.
    Pull,
}

impl Direction {
    /// Label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
        }
    }
}

/// Per-iteration frontier telemetry recorded by the frontier engine
/// (`None` on the topology-driven engines).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Frontier size entering each iteration.
    pub sizes: Vec<u64>,
    /// Direction each iteration ran in (same length as `sizes`).
    pub directions: Vec<Direction>,
    /// Push↔pull direction switches taken across the run.
    pub switches: u32,
}

impl FrontierStats {
    /// Largest frontier observed.
    pub fn peak(&self) -> u64 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Rewinds the record to its first `iterations` entries (a rollback's).
    pub fn truncate(&mut self, iterations: u32) {
        self.sizes.truncate(iterations as usize);
        self.directions.truncate(iterations as usize);
        self.switches = self.directions.windows(2).filter(|d| d[0] != d[1]).count() as u32;
    }

    /// Iterations that ran in the given direction.
    pub fn count(&self, d: Direction) -> u64 {
        self.directions.iter().filter(|&&x| x == d).count() as u64
    }

    /// Records the frontier counters into a metrics registry. All keys are
    /// new `frontier_*` series — additive under the `cusha-metrics` schema, so
    /// existing golden snapshots are untouched.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("frontier_switches", labels, self.switches as u64);
        reg.add(
            "frontier_push_iterations",
            labels,
            self.count(Direction::Push),
        );
        reg.add(
            "frontier_pull_iterations",
            labels,
            self.count(Direction::Pull),
        );
        reg.set_gauge("frontier_peak_size", labels, self.peak() as f64);
        for &s in &self.sizes {
            reg.observe("frontier_size", labels, s as f64);
        }
    }
}

/// Aggregate statistics of one full algorithm run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Engine label ("CuSha-GS", "CuSha-CW", "VWC-CSR/8", "MTCPU/16", ...).
    pub engine: String,
    /// Iterations until convergence (or until the cap).
    pub iterations: u32,
    /// Whether the run converged before hitting the iteration cap.
    pub converged: bool,
    /// Host→device copy seconds (0 for CPU engines).
    pub h2d_seconds: f64,
    /// Kernel / compute seconds.
    pub compute_seconds: f64,
    /// Device→host copy seconds (0 for CPU engines).
    pub d2h_seconds: f64,
    /// Per-iteration detail (Figure 7).
    pub per_iteration: Vec<IterationStat>,
    /// Accumulated simulator counters over all kernel launches (empty
    /// default for CPU engines). Efficiencies derived from these are the
    /// whole-run averages the paper profiles (Table 2, Figure 8).
    pub kernel: KernelStats,
    /// Per-launch kernel history, retained when the engine was configured
    /// with profiling on (see `CuShaConfig::profile` / `VwcConfig::profile`);
    /// `profile.report()` renders an `nvprof`-style summary.
    pub profile: Option<cusha_simt::Profile>,
    /// Recovery activity (retries, rebatches, degradations); all zero for
    /// fault-free runs.
    pub fault: FaultStats,
    /// Silent-data-corruption defense activity (detections, rollbacks,
    /// checkpoints); all zero for fault-free runs with integrity off.
    pub sdc: SdcStats,
    /// Frontier telemetry (sizes, directions, switches); `None` on the
    /// topology-driven engines.
    pub frontier: Option<FrontierStats>,
    /// Simulator-acceleration activity (the scattered-access analysis and
    /// launch records). Observational only: both are exactness-preserving,
    /// so these counters never influence modeled results — they exist to
    /// prove the fast paths are actually taken.
    pub memo: MemoStats,
    /// The fleet-shaped record (per-device breakdown, exchange volume) of a
    /// run placed on a fleet; `None` on every other placement and engine.
    pub fleet: Option<Box<MultiRunStats>>,
}

/// Hit/miss activity of the simulator's accounting memos, accumulated
/// across every device the run used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Always 0: the per-op coalesce/bank memo tables are gone (see
    /// `cusha_simt::CoalesceMemo`); the field stays for the metrics schema.
    pub coalesce_hits: u64,
    /// Scattered-access analyses performed (global and shared).
    pub coalesce_misses: u64,
    /// Launch-record hits: per recorded launch, one when its fixed share was
    /// charged (or checked), plus one per block share charged (or checked).
    pub replay_hits: u64,
    /// Launch-record misses: per recorded launch, one when its fixed share
    /// was recorded (a new record or shape), plus one per block share
    /// recorded (a block's first stage 4 on that record).
    pub replay_misses: u64,
    /// Record uses interpreted because records were gated off (disabled by
    /// config, or a fault plan could still disrupt the run): one per gated
    /// launch plus one per block share body it ran.
    pub replay_fallbacks: u64,
    /// Checked record uses that disagreed with their recording — a violated
    /// contract. 0 for every in-tree kernel.
    pub replay_verify_failures: u64,
}

impl MemoStats {
    /// Snapshot of a device's memo counters.
    pub fn from_gpu(gpu: &cusha_simt::Gpu) -> Self {
        let (coalesce_hits, coalesce_misses) = gpu.memo_stats();
        let (replay_hits, replay_misses, replay_fallbacks) = gpu.replay_stats();
        MemoStats {
            coalesce_hits,
            coalesce_misses,
            replay_hits,
            replay_misses,
            replay_fallbacks,
            replay_verify_failures: gpu.replay_verify_failures(),
        }
    }

    /// Accumulates another device's counters.
    pub fn add(&mut self, other: &MemoStats) {
        self.coalesce_hits += other.coalesce_hits;
        self.coalesce_misses += other.coalesce_misses;
        self.replay_hits += other.replay_hits;
        self.replay_misses += other.replay_misses;
        self.replay_fallbacks += other.replay_fallbacks;
        self.replay_verify_failures += other.replay_verify_failures;
    }

    /// Records the memo counters under the unified metrics schema.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("simt_coalesce_memo_hits_total", labels, self.coalesce_hits);
        reg.add(
            "simt_coalesce_memo_misses_total",
            labels,
            self.coalesce_misses,
        );
        reg.add("simt_replay_memo_hits_total", labels, self.replay_hits);
        reg.add("simt_replay_memo_misses_total", labels, self.replay_misses);
        reg.add(
            "simt_replay_memo_fallbacks_total",
            labels,
            self.replay_fallbacks,
        );
    }
}

impl RunStats {
    /// End-to-end modeled time including transfers — what the paper's
    /// Table 4 reports.
    pub fn total_seconds(&self) -> f64 {
        self.h2d_seconds + self.compute_seconds + self.d2h_seconds
    }

    /// Total milliseconds (Table 4's unit).
    pub fn total_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Traversed edges per second, given the graph's edge count (Table 7;
    /// the paper computes TEPS over the full traversal time).
    pub fn teps(&self, num_edges: u64) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            0.0
        } else {
            num_edges as f64 / t
        }
    }

    /// Records the full run — timing, kernel counters and efficiencies,
    /// per-iteration histograms, and fault-recovery activity — into a
    /// metrics registry under the unified schema.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("run_iterations", labels, self.iterations as u64);
        reg.set_gauge(
            "run_converged",
            labels,
            if self.converged { 1.0 } else { 0.0 },
        );
        reg.set_gauge("run_h2d_seconds", labels, self.h2d_seconds);
        reg.set_gauge("run_compute_seconds", labels, self.compute_seconds);
        reg.set_gauge("run_d2h_seconds", labels, self.d2h_seconds);
        reg.set_gauge("run_total_seconds", labels, self.total_seconds());
        for it in &self.per_iteration {
            reg.observe("iteration_seconds", labels, it.seconds);
            reg.observe(
                "iteration_updated_vertices",
                labels,
                it.updated_vertices as f64,
            );
        }
        self.kernel.record_metrics(reg, labels);
        self.fault.record_metrics(reg, labels);
        self.sdc.record_metrics(reg, labels);
        if let Some(f) = &self.frontier {
            f.record_metrics(reg, labels);
        }
        self.memo.record_metrics(reg, labels);
        // With profiling on, break the run out per kernel as well: one
        // series group per kernel name, uniform across all six engines.
        if let Some(p) = &self.profile {
            p.record_metrics(reg, labels);
        }
    }
}

/// Per-device breakdown inside a [`MultiRunStats`].
#[derive(Clone, Debug)]
pub struct DeviceRunStats {
    /// Device id within the fleet.
    pub device: usize,
    /// How the device finished the run: `"resident"` (whole partition on
    /// device), `"rebatched"` (out of core: values resident, shards streamed
    /// in batches — where an OOM sends a fleet device and a streamed run
    /// starts), `"host-fallback"` (kernel-fault recovery) or `"idle"`.
    pub mode: &'static str,
    /// Shards owned by this device.
    pub shards: usize,
    /// Vertices owned by this device.
    pub vertices: usize,
    /// Shard entries (edges) owned by this device.
    pub edges: usize,
    /// Remote vertices this device's entries read (the partition halo).
    pub halo_vertices: usize,
    /// Host→device seconds charged on this device.
    pub h2d_seconds: f64,
    /// Device→host seconds charged on this device.
    pub d2h_seconds: f64,
    /// Kernel seconds charged on this device.
    pub kernel_seconds: f64,
    /// Kernels launched on this device.
    pub kernels_launched: u64,
    /// Accumulated simulator counters of this device's launches.
    pub kernel: KernelStats,
    /// Halo bytes this device sent over the interconnect.
    pub exchange_sent_bytes: u64,
    /// Halo bytes this device received over the interconnect.
    pub exchange_recv_bytes: u64,
    /// Recovery activity on this device.
    pub fault: FaultStats,
    /// Silent-data-corruption defense activity on this device.
    pub sdc: SdcStats,
    /// Per-launch kernel history when profiling was enabled.
    pub profile: Option<Profile>,
}

/// Statistics of one multi-device run.
#[derive(Clone, Debug, Default)]
pub struct MultiRunStats {
    /// Engine label, e.g. `"CuSha-CW x4"`.
    pub engine: String,
    /// Interconnect preset name.
    pub interconnect: String,
    /// Devices in the fleet.
    pub devices: usize,
    /// Iterations until convergence (or the cap).
    pub iterations: u32,
    /// Whether the fleet converged before the iteration cap.
    pub converged: bool,
    /// Modeled setup seconds: the slowest device's initial upload.
    pub setup_seconds: f64,
    /// Modeled iteration seconds: per iteration, the slowest device's wall
    /// (transfers + kernels + watchdog snapshots), devices overlapping.
    pub compute_seconds: f64,
    /// Total halo bytes moved over the interconnect.
    pub exchange_bytes: u64,
    /// Modeled interconnect seconds across all exchanges.
    pub exchange_seconds: f64,
    /// Modeled final-download seconds: the slowest device's result copy.
    pub teardown_seconds: f64,
    /// Edge-count load imbalance of the partition (1.0 = perfect).
    pub load_imbalance: f64,
    /// Per-device breakdown.
    pub per_device: Vec<DeviceRunStats>,
    /// Fleet-level aggregate of every device's kernel counters.
    pub aggregate: KernelStats,
    /// Fleet-level aggregate of every device's recovery activity.
    pub fault: FaultStats,
    /// Fleet-level aggregate of every device's SDC-defense activity.
    pub sdc: SdcStats,
    /// Per-iteration detail (seconds = slowest device's kernel time).
    pub per_iteration: Vec<IterationStat>,
    /// Simulator memo activity summed over the fleet's devices.
    pub memo: MemoStats,
}

impl MultiRunStats {
    /// End-to-end modeled seconds: setup + overlapped iterations +
    /// exchanges + teardown.
    pub fn modeled_seconds(&self) -> f64 {
        self.setup_seconds + self.compute_seconds + self.exchange_seconds + self.teardown_seconds
    }

    /// Flattens into a single-engine [`RunStats`] (setup → `h2d`,
    /// iterations + exchange → `compute`, teardown → `d2h`, aggregate
    /// counters → `kernel`) for code paths that consume the single-device
    /// shape, e.g. [`EngineError::NonConverged`](crate::EngineError).
    pub fn as_run_stats(&self) -> RunStats {
        RunStats {
            engine: self.engine.clone(),
            iterations: self.iterations,
            converged: self.converged,
            h2d_seconds: self.setup_seconds,
            compute_seconds: self.compute_seconds + self.exchange_seconds,
            d2h_seconds: self.teardown_seconds,
            per_iteration: self.per_iteration.clone(),
            kernel: self.aggregate.clone(),
            profile: None,
            fault: self.fault,
            sdc: self.sdc,
            frontier: None,
            memo: self.memo,
            fleet: None,
        }
    }

    /// Records the fleet run — overlapped phase timings, exchange volume,
    /// aggregate kernel counters, fleet fault activity, and a per-device
    /// breakdown under an added `device=N` label — into a metrics registry.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("multi_devices", labels, self.devices as u64);
        reg.add("run_iterations", labels, self.iterations as u64);
        reg.set_gauge(
            "run_converged",
            labels,
            if self.converged { 1.0 } else { 0.0 },
        );
        reg.set_gauge("multi_setup_seconds", labels, self.setup_seconds);
        reg.set_gauge("multi_compute_seconds", labels, self.compute_seconds);
        reg.set_gauge("multi_exchange_seconds", labels, self.exchange_seconds);
        reg.set_gauge("multi_teardown_seconds", labels, self.teardown_seconds);
        reg.set_gauge("multi_total_seconds", labels, self.modeled_seconds());
        reg.add("multi_exchange_bytes", labels, self.exchange_bytes);
        reg.set_gauge("multi_load_imbalance", labels, self.load_imbalance);
        for it in &self.per_iteration {
            reg.observe("iteration_seconds", labels, it.seconds);
            reg.observe(
                "iteration_updated_vertices",
                labels,
                it.updated_vertices as f64,
            );
        }
        self.aggregate.record_metrics(reg, labels);
        self.fault.record_metrics(reg, labels);
        self.sdc.record_metrics(reg, labels);
        for dev in &self.per_device {
            let id = dev.device.to_string();
            let mut dl: Vec<(&str, &str)> = labels.to_vec();
            dl.push(("device", &id));
            reg.add("device_shards", &dl, dev.shards as u64);
            reg.add("device_vertices", &dl, dev.vertices as u64);
            reg.add("device_edges", &dl, dev.edges as u64);
            reg.add("device_halo_vertices", &dl, dev.halo_vertices as u64);
            reg.add("device_kernels_launched", &dl, dev.kernels_launched);
            reg.add("device_exchange_sent_bytes", &dl, dev.exchange_sent_bytes);
            reg.add("device_exchange_recv_bytes", &dl, dev.exchange_recv_bytes);
            reg.set_gauge("device_h2d_seconds", &dl, dev.h2d_seconds);
            reg.set_gauge("device_d2h_seconds", &dl, dev.d2h_seconds);
            reg.set_gauge("device_kernel_seconds", &dl, dev.kernel_seconds);
            dev.kernel.record_metrics(reg, &dl);
            dev.fault.record_metrics(reg, &dl);
            dev.sdc.record_metrics(reg, &dl);
        }
    }
}

/// Result of a multi-device run.
#[derive(Clone, Debug)]
pub struct MultiOutput<V> {
    /// Final vertex values, indexed by vertex id — bit-identical to the
    /// single-device engine's.
    pub values: Vec<V>,
    /// Multi-device statistics.
    pub stats: MultiRunStats,
}

impl<V> MultiOutput<V> {
    /// A one-device run in the single-engine shape: the flattened fleet
    /// record under `engine`'s label, with one launch geometry over every
    /// launch's counters. A resident device's clocks split as every lone
    /// device's do ([`split_clock`]: per-iteration flag traffic is compute);
    /// a streamed one's compute is its batch pipeline plus the PCIe
    /// terms no device clock sees, and its D2H `streamed`, the values' one
    /// transfer.
    pub(crate) fn into_solo(
        self,
        engine: String,
        clock: &DeviceClocks,
        streamed: Option<f64>,
    ) -> CuShaOutput<V> {
        let (values, mut fleet) = (self.values, self.stats);
        let dev = fleet.per_device.swap_remove(0);
        let before = clock.d2h_before_results;
        let (blocks, compute_seconds, d2h_seconds) = match streamed {
            None => {
                let clock = (dev.kernel_seconds, dev.h2d_seconds, dev.d2h_seconds);
                let (_, compute, d2h) = split_clock(fleet.setup_seconds, before, clock);
                (dev.shards as u32, compute, d2h)
            }
            Some(d2h) => {
                let compute = clock.iteration_seconds + clock.host_transfer_seconds;
                (dev.kernel.blocks, compute, d2h)
            }
        };
        fleet.engine = engine;
        let kernel = KernelStats {
            name: fleet.aggregate.name.clone(),
            blocks,
            threads_per_block: dev.kernel.threads_per_block,
            counters: dev.kernel.counters,
            ..Default::default()
        };
        let stats = RunStats {
            compute_seconds,
            d2h_seconds,
            kernel,
            profile: dev.profile,
            ..fleet.as_run_stats()
        };
        CuShaOutput { values, stats }
    }

    /// A fleet run in the flattened shape, its record in [`RunStats::fleet`]
    /// completed by what only the placement knows: the `engine` label, the
    /// `interconnect`'s name and what the partition says of each device.
    pub(crate) fn into_fleet(
        self,
        engine: String,
        interconnect: &str,
        partition: &FleetPartition,
    ) -> CuShaOutput<V> {
        let mut fleet = self.stats;
        (fleet.engine, fleet.interconnect) = (engine, interconnect.into());
        fleet.load_imbalance = partition.imbalance();
        for (dev, part) in fleet.per_device.iter_mut().zip(partition.parts()) {
            dev.halo_vertices = part.halo.len();
        }
        let flat = fleet.as_run_stats();
        let stats = RunStats {
            fleet: Some(Box::new(fleet)),
            ..flat
        };
        CuShaOutput {
            values: self.values,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_teps() {
        let s = RunStats {
            h2d_seconds: 0.010,
            compute_seconds: 0.030,
            d2h_seconds: 0.002,
            ..Default::default()
        };
        assert!((s.total_seconds() - 0.042).abs() < 1e-12);
        assert!((s.total_ms() - 42.0).abs() < 1e-9);
        assert!((s.teps(4200) - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_time_teps_is_zero() {
        let s = RunStats::default();
        assert_eq!(s.teps(100), 0.0);
    }
}
