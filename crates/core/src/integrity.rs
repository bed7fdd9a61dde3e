//! Silent-data-corruption (SDC) defense: checksums, checkpoints, recovery.
//!
//! Fail-stop faults (PR 1's `FaultPlan` kinds) announce themselves with an
//! error return; a DRAM bit flip does not. This module gives every engine
//! the pieces of an online defense:
//!
//! * **Detection** — [`scrub`] fingerprints a value buffer's exact bit
//!   patterns. Engines model an ECC-style scrubber: after each kernel they
//!   record the checksums of the mutable device buffers (`VertexValues`,
//!   `SrcValue`), and before the next kernel consumes them they re-verify.
//!   Any at-rest flip of a protected word is therefore caught *before* it
//!   contaminates downstream state. Algorithm-level invariants
//!   ([`crate::VertexProgram::check_invariant`]) are the second, weaker
//!   detector: they need no reference state, so they also run at checkpoint
//!   boundaries on downloaded data.
//! * **Recovery** — `Recovery` keeps a bounded ring of verified
//!   `(VertexValues, SrcValue)` snapshots. On detection the engine
//!   restores the latest snapshot (a real, charged H2D upload) and
//!   re-executes; because the convergence loop is deterministic and flip
//!   coordinates are one-shot, the replay reproduces the fault-free values
//!   bit for bit. Repeated detections escalate: rollback → full restart →
//!   host fallback (host memory is outside the simulated device, so no
//!   injected flip can reach it). `Recovery` is that ladder and the
//!   iteration boundary around it, written once: for the one host loop (the
//!   fleet's, which the in-core and streamed engines enter as a fleet of
//!   one) and, through `DeviceRun`, for VWC-CSR, the frontier engine and
//!   k-core, each checkpointing its own state beside the vertex values, and
//!   (k-core excepted) checking the law once more at convergence.
//!
//! The scrubber's comparisons are host-side and charge no modeled time
//! (ECC runs in hardware, in the background); checkpoint snapshots and
//! rollback restores are real transfers and are charged as D2H/H2D.

use crate::engine::RunObserver;
use crate::error::EngineError;
use crate::program::Value;
use crate::stats::{IterationStat, SdcStats};
use cusha_graph::io::WordDigest;
use cusha_simt::{BitFlip, DevVec, DeviceFault, FlipTarget, Pod};
use std::collections::HashSet;
use std::collections::VecDeque;

/// How much integrity checking an engine performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No detection, no checkpoints (the pre-SDC behavior).
    #[default]
    Off,
    /// Checksum scrubbing of the mutable device buffers around every
    /// kernel, plus checkpoint/rollback. Deterministic detection of any
    /// at-rest flip in a protected buffer.
    Checksum,
    /// Algorithm-invariant checks on checkpoint downloads only (no
    /// checksums). Best-effort detection — catches flips that break the
    /// program's monotonicity/conservation laws.
    Invariant,
    /// Both detectors.
    Full,
}

impl IntegrityMode {
    /// True when checksum scrubbing runs.
    pub fn checksums(self) -> bool {
        matches!(self, IntegrityMode::Checksum | IntegrityMode::Full)
    }

    /// True when algorithm invariants are checked at checkpoints.
    pub fn invariants(self) -> bool {
        matches!(self, IntegrityMode::Invariant | IntegrityMode::Full)
    }

    /// True when any integrity machinery (including checkpoints) is on.
    pub fn enabled(self) -> bool {
        !matches!(self, IntegrityMode::Off)
    }

    /// CLI label (`off` / `checksum` / `invariant` / `full`).
    pub fn label(self) -> &'static str {
        match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Checksum => "checksum",
            IntegrityMode::Invariant => "invariant",
            IntegrityMode::Full => "full",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(IntegrityMode::Off),
            "checksum" => Some(IntegrityMode::Checksum),
            "invariant" => Some(IntegrityMode::Invariant),
            "full" => Some(IntegrityMode::Full),
            _ => None,
        }
    }
}

/// Verified snapshots a run's recovery retains (a ring buffer): the memory
/// bound of a rollback target, whatever the run's length.
pub const MAX_CHECKPOINTS: usize = 2;

/// Integrity/recovery configuration carried by every engine config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Detection mode.
    pub mode: IntegrityMode,
    /// Snapshot the verified state every this-many iterations. Bounds the
    /// re-execution window of a rollback.
    pub checkpoint_every: u32,
    /// Rollbacks before escalating to a full restart. Counted per engine
    /// run (fleet-wide in the fleet).
    pub max_rollbacks: u32,
    /// Full restarts before escalating to the host fallback.
    pub max_full_restarts: u32,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            mode: IntegrityMode::Off,
            checkpoint_every: 4,
            max_rollbacks: 8,
            max_full_restarts: 1,
        }
    }
}

impl IntegrityConfig {
    /// Defaults with the given mode.
    pub fn with_mode(mode: IntegrityMode) -> Self {
        IntegrityConfig {
            mode,
            ..Default::default()
        }
    }

    /// Checks the configuration's invariants (mirrors
    /// `CuShaConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be at least 1".into());
        }
        Ok(())
    }
}

/// FNV-1a over the little-endian bytes of each value's exact bit pattern: the
/// published digest of a result (the service's wire `checksum`). Equal values
/// (NaN payloads included) hash equally; any single-bit flip changes it.
pub fn checksum<V: Value>(values: &[V]) -> u64 {
    let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    let bytes = values.iter().flat_map(|v| v.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// The scrubber's digest of a buffer: [`WordDigest`] over one word per value
/// (its exact bit pattern), so any single-bit flip changes it. It never
/// leaves the run, so it need not match [`checksum`].
pub fn scrub<V: Value>(values: &[V]) -> u64 {
    WordDigest::of_words(values, V::to_bits)
}

/// XOR-flips one bit of one word of a typed device buffer, reducing the
/// plan's raw coordinates modulo the buffer length and the value width so
/// any plan is valid for any graph. No-op on an empty buffer.
pub fn apply_flip<V: Value>(buf: &mut DevVec<V>, flip: &BitFlip) {
    if buf.is_empty() {
        return;
    }
    let word = (flip.word % buf.len() as u64) as usize;
    let width = (<V as Pod>::SIZE * 8).min(64);
    let bit = flip.bit as u32 % width;
    let host = buf.host_mut();
    host[word] = V::from_bits(host[word].to_bits() ^ (1u64 << bit));
}

/// Routes a due flip onto the engine's two mutable buffers: the
/// `VertexValues` role hits the vertex-value array, while `SrcValue` and
/// `Window` both land in the second buffer — the source-value column
/// (windows are slices of it in both representations, addressed through an
/// independent coordinate stream), the frontier engine's admission tags.
pub fn apply_flips<V: Value, W: Value>(
    flips: &[BitFlip],
    vertex_values: &mut DevVec<V>,
    src_value: &mut DevVec<W>,
) {
    for f in flips {
        match f.target {
            FlipTarget::VertexValues => apply_flip(vertex_values, f),
            FlipTarget::SrcValue | FlipTarget::Window => apply_flip(src_value, f),
        }
    }
}

/// One verified snapshot of engine state at an iteration boundary: the
/// vertex values and what the engine rewinds with them (the shard family's
/// `SrcValue` column, the frontier engine's frontier, k-core's peel state).
#[derive(Clone, Debug)]
pub struct Checkpoint<V, S = Vec<V>> {
    /// Iteration count at snapshot time (re-execution resumes here).
    pub iteration: u32,
    /// Vertex values, by vertex id.
    pub values: Vec<V>,
    /// The engine's other state at this boundary.
    pub state: S,
    /// Watchdog fingerprints seen up to this point; restored on rollback so
    /// a replay does not trip the livelock detector on its own states.
    watchdog: HashSet<u64>,
}

/// Which SDC detector flagged a corruption.
#[derive(Clone, Copy, Debug)]
pub enum Detector {
    /// The checksum scrubber (deterministic, pre-consumption).
    Checksum,
    /// An algorithm invariant at a checkpoint or at convergence (best-effort).
    Invariant,
}

/// What [`Recovery`] asks of the engine it guards. One closure answers all
/// three because all three need the device, two of them mutably.
pub enum Ask<'a, V, S = Vec<V>> {
    /// Bring the device state back to this verified snapshot — real, charged
    /// uploads — and make it the scrubber's reference.
    Restore(&'a Checkpoint<V, S>),
    /// Download the vertex values into the first slot and, for a checkpoint,
    /// the rest of the state into the second — real, charged downloads.
    Snapshot(&'a mut Vec<V>, Option<&'a mut S>),
    /// Mark this `sdc` event on the fault lane, at the engine's clock now.
    Mark(&'static str),
    /// Show the vertex values' host view (the scrubber's: no transfer, no
    /// modeled time) to the convergence check.
    Inspect(&'a mut dyn FnMut(&[V])),
}

/// How one rung of the ladder (`DeviceRun::recover`, the fleet's `recover!`) left the run.
pub enum Rung {
    /// Rolled back or restarted: re-execute from the rewound iteration.
    Resumed,
    /// Both budgets are spent and nothing was restored. The last rung is the
    /// engine's, because what it can still trust differs: a single device is
    /// abandoned for the host (the shard family's re-enactment, the frontier
    /// family's oracles), the fleet degrades only the devices under suspicion.
    Exhausted,
}

/// Why a host loop ended without an output.
pub(crate) enum Stop<V> {
    /// A fault past recovery, the watchdog, or a cancellation.
    Error(EngineError<V>),
    /// Detected corruption outlived the rollback and restart budgets and the
    /// loop does not recover in place: the caller abandons the device for the
    /// host fallback (the run's SDC record so far is in its hands already).
    Abandon,
}

impl<V, E: Into<EngineError<V>>> From<E> for Stop<V> {
    fn from(e: E) -> Self {
        Stop::Error(e.into())
    }
}

/// The recovery ladder and iteration boundary of every engine that defends
/// against silent corruption: the checkpoint ring, the verified initial state
/// (the full-restart image, and the rollback target until the first
/// checkpoint), the watchdog's fingerprints and the pending re-verification.
/// Engines supply how their device state is restored, snapshotted and marked
/// ([`Ask`]) and their own last rung — the host loop (`multi::drive`)
/// directly, the single-device engines through
/// [`DeviceRun`](crate::DeviceRun). With integrity off and no watchdog it
/// holds nothing and its boundary only consults the observer.
pub struct Recovery<V, S = Vec<V>> {
    integ: IntegrityConfig,
    watchdog_interval: Option<u32>,
    initial: Checkpoint<V, S>,
    /// Verified snapshots, newest last, at most [`MAX_CHECKPOINTS`].
    ring: VecDeque<Checkpoint<V, S>>,
    /// `(rollbacks, full restarts)` charged against the budgets.
    spent: (u32, u32),
    watchdog_seen: HashSet<u64>,
    need_reverify: bool,
}

impl<V: Value, S: Default> Recovery<V, S> {
    /// `initial` yields the state the run starts from — verified by
    /// construction, so with integrity on it is called and kept as the first
    /// checkpoint; with integrity off it is never called. `sdc`'s rollbacks
    /// and restarts (an earlier rung's on the streamed ladder) are spent.
    pub fn new(
        integ: IntegrityConfig,
        watchdog_interval: Option<u32>,
        sdc: &mut SdcStats,
        initial: impl FnOnce() -> (Vec<V>, S),
    ) -> Self {
        let (values, state) = if integ.mode.enabled() {
            sdc.checkpoints += 1;
            initial()
        } else {
            Default::default()
        };
        Recovery {
            integ,
            watchdog_interval,
            initial: Checkpoint {
                iteration: 0,
                values,
                state,
                watchdog: HashSet::new(),
            },
            ring: VecDeque::new(),
            spent: (sdc.rollbacks, sdc.full_restarts),
            watchdog_seen: HashSet::new(),
            need_reverify: false,
        }
    }

    /// Stores a verified snapshot as the rollback target, with the watchdog
    /// fingerprints seen so far, dropping the oldest beyond [`MAX_CHECKPOINTS`]:
    /// the memory held is bounded whatever the run's length.
    fn keep(&mut self, iteration: u32, values: Vec<V>, state: S) {
        if self.ring.len() >= MAX_CHECKPOINTS {
            self.ring.pop_front();
        }
        let watchdog = self.watchdog_seen.clone();
        self.ring.push_back(Checkpoint {
            iteration,
            values,
            state,
            watchdog,
        });
    }

    /// Called when the loop ends: a recovered trajectory that got here before
    /// its next checkpoint re-verified it is marked `reverify` now — the
    /// converged state itself is the proof.
    pub fn finish(
        &mut self,
        mut dev: impl FnMut(Ask<'_, V, S>) -> Result<(), DeviceFault>,
    ) -> Result<(), DeviceFault> {
        if std::mem::take(&mut self.need_reverify) {
            dev(Ask::Mark("reverify"))?;
        }
        Ok(())
    }

    /// One rung of the ladder after `detector` fired: roll back to the latest
    /// verified snapshot while the rollback budget lasts, then restart from
    /// the initial state, else report [`Rung::Exhausted`]. The budgets are the
    /// run's — fleet-wide for the fleet, whose `sdc` is the detecting device's.
    pub(crate) fn step(
        &mut self,
        detector: Detector,
        sdc: &mut SdcStats,
        iterations: &mut u32,
        per_iteration: &mut Vec<IterationStat>,
        mut dev: impl FnMut(Ask<'_, V, S>) -> Result<(), DeviceFault>,
    ) -> Result<Rung, DeviceFault> {
        match detector {
            Detector::Checksum => sdc.checksum_detections += 1,
            Detector::Invariant => sdc.invariant_detections += 1,
        }
        dev(Ask::Mark("corruption-detected"))?;
        self.need_reverify = true;
        let taken = if self.spent.0 < self.integ.max_rollbacks {
            self.spent.0 += 1;
            sdc.rollbacks += 1;
            "rollback"
        } else if self.spent.1 < self.integ.max_full_restarts {
            self.ring.clear();
            self.spent.1 += 1;
            sdc.full_restarts += 1;
            "full-restart"
        } else {
            return Ok(Rung::Exhausted);
        };
        self.rewind(sdc, iterations, per_iteration, &mut dev)?;
        dev(Ask::Mark(taken))?;
        Ok(Rung::Resumed)
    }

    /// Restores the engine to the latest verified snapshot and rewinds the
    /// run's bookkeeping (iteration count, per-iteration detail, watchdog
    /// set) to it.
    pub(crate) fn rewind(
        &mut self,
        sdc: &mut SdcStats,
        iterations: &mut u32,
        per_iteration: &mut Vec<IterationStat>,
        dev: &mut impl FnMut(Ask<'_, V, S>) -> Result<(), DeviceFault>,
    ) -> Result<(), DeviceFault> {
        let cp = self.ring.back().unwrap_or(&self.initial);
        dev(Ask::Restore(cp))?;
        sdc.reexecuted_iterations += *iterations - cp.iteration;
        *iterations = cp.iteration;
        per_iteration.truncate(cp.iteration as usize);
        self.watchdog_seen.clone_from(&cp.watchdog);
        Ok(())
    }

    /// The boundary after a non-converged iteration: consult the observer
    /// (a refusal is [`EngineError::Deadline`]); at a checkpoint interval
    /// snapshot the state, check the engine's `law` (`check_invariant`'s
    /// shape: last verified values, then these) and store it as the new
    /// rollback target; at a watchdog interval fingerprint the values (a
    /// repeat is [`EngineError::Watchdog`]). Returns whether the law was
    /// broken — a corruption for [`Recovery::step`]; nothing is stored then.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn boundary<O: RunObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        law: impl Fn(&[V], &[V]) -> Result<(), String>,
        sdc: &mut SdcStats,
        iterations: u32,
        updated: u64,
        elapsed_seconds: f64,
        mut dev: impl FnMut(Ask<'_, V, S>) -> Result<(), DeviceFault>,
    ) -> Result<bool, EngineError<V>> {
        if !observer.on_iteration(iterations, updated, elapsed_seconds) {
            return Err(EngineError::Deadline {
                iterations,
                elapsed_seconds,
            });
        }
        let integ = self.integ;
        if integ.mode.enabled() && iterations.is_multiple_of(integ.checkpoint_every) {
            let (mut values, mut state) = (Vec::new(), S::default());
            dev(Ask::Snapshot(&mut values, Some(&mut state)))?;
            if self.breaks(law, &values) {
                return Ok(true);
            }
            self.keep(iterations, values, state);
            sdc.checkpoints += 1;
            if std::mem::take(&mut self.need_reverify) {
                dev(Ask::Mark("reverify"))?;
            }
        }
        if (self.watchdog_interval).is_some_and(|w| iterations.is_multiple_of(w)) {
            let mut values = Vec::new();
            dev(Ask::Snapshot(&mut values, None))?;
            if !self.watchdog_seen.insert(scrub(&values)) {
                return Err(EngineError::Watchdog { iterations });
            }
        }
        Ok(false)
    }

    /// Whether `law` breaks between the latest verified snapshot and `now`,
    /// with invariants on: a checkpoint's check, and the convergence check at
    /// the exit no checkpoint reaches ([`Detector::Invariant`] either way).
    pub(crate) fn breaks(&self, law: impl Fn(&[V], &[V]) -> Result<(), String>, now: &[V]) -> bool {
        let verified = &self.ring.back().unwrap_or(&self.initial).values;
        self.integ.mode.invariants() && law(verified, now).is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_simt::{DeviceConfig, Gpu};
    use proptest::prelude::*;

    #[test]
    fn checksum_changes_on_any_flip() {
        let vals: Vec<u32> = (0..64).collect();
        let base = checksum(&vals);
        for i in [0usize, 13, 63] {
            for bit in [0u32, 7, 31] {
                let mut flipped = vals.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), base, "word {i} bit {bit}");
            }
        }
        assert_eq!(checksum(&vals), base, "checksum is a pure function");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The scrubber's guarantee, for every value type and every length
        /// from empty to three rounds of lanes and one more value: a flip of
        /// any bit of any value changes the digest.
        #[test]
        fn scrub_catches_every_single_bit_flip(
            bits in proptest::collection::vec(any::<u64>(), 3 * WordDigest::LANES + 1)
        ) {
            fn case<V: Value>(bits: &[u64]) {
                let width = (<V as Pod>::SIZE * 8).min(64);
                for len in 0..=bits.len() {
                    let vals: Vec<V> = bits[..len].iter().map(|&b| V::from_bits(b)).collect();
                    let base = scrub(&vals);
                    for (i, bit) in (0..len).flat_map(|i| (0..width).map(move |b| (i, b))) {
                        let mut flipped = vals.clone();
                        flipped[i] = V::from_bits(vals[i].to_bits() ^ (1 << bit));
                        assert_ne!(scrub(&flipped), base, "{len} values, #{i} bit {bit}");
                    }
                }
            }
            case::<u32>(&bits);
            case::<u64>(&bits);
            case::<f32>(&bits);
            case::<f64>(&bits);
            case::<(f32, f32)>(&bits);
            case::<(u32, u32)>(&bits);
        }
    }

    #[test]
    fn apply_flip_reduces_coordinates_and_round_trips() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        let mut buf = gpu.upload(&[0.0f32; 10]);
        let flip = BitFlip {
            target: FlipTarget::VertexValues,
            word: 23, // 23 % 10 = 3
            bit: 45,  // 45 % 32 = 13
        };
        apply_flip(&mut buf, &flip);
        assert_eq!(buf.host()[3].to_bits(), 1 << 13);
        apply_flip(&mut buf, &flip);
        assert!(buf.host().iter().all(|v| v.to_bits() == 0), "XOR undoes");
    }

    #[test]
    fn window_flips_land_in_the_src_value_buffer() {
        let mut gpu = Gpu::new(DeviceConfig::tiny_test());
        let mut vv = gpu.upload(&[0u32; 4]);
        let mut sv = gpu.upload(&[0u32; 4]);
        apply_flips(
            &[
                BitFlip {
                    target: FlipTarget::Window,
                    word: 1,
                    bit: 0,
                },
                BitFlip {
                    target: FlipTarget::SrcValue,
                    word: 2,
                    bit: 1,
                },
            ],
            &mut vv,
            &mut sv,
        );
        assert!(vv.host().iter().all(|&v| v == 0));
        assert_eq!(sv.host(), &[0, 1, 2, 0]);
    }

    /// The rollback target: the newest snapshot, else the initial state.
    fn latest<V, S>(rec: &Recovery<V, S>) -> &Checkpoint<V, S> {
        rec.ring.back().unwrap_or(&rec.initial)
    }

    #[test]
    fn the_ring_holds_at_most_max_checkpoints_snapshots() {
        let integ = IntegrityConfig::with_mode(IntegrityMode::Checksum);
        let mut sdc = SdcStats::default();
        let mut rec = Recovery::new(integ, None, &mut sdc, || (vec![0u32; 4], vec![0u32; 2]));
        for i in 1..=10u32 {
            rec.keep(i, vec![i; 4], vec![i; 2]);
            assert!(
                rec.ring.len() <= MAX_CHECKPOINTS,
                "bounded at MAX_CHECKPOINTS"
            );
        }
        assert_eq!(
            (rec.ring.len(), latest(&rec).iteration),
            (MAX_CHECKPOINTS, 10)
        );
        // A full restart drops every snapshot: the initial state is the
        // rollback target again.
        let (mut iterations, mut per_iteration) = (10, Vec::new());
        rec.spent = (integ.max_rollbacks, 0);
        let rung = rec.step(
            Detector::Checksum,
            &mut sdc,
            &mut iterations,
            &mut per_iteration,
            |_| Ok(()),
        );
        assert!(matches!(rung, Ok(Rung::Resumed)));
        assert_eq!(rec.ring.len(), 0);
        assert_eq!((latest(&rec).iteration, iterations), (0, 0));
    }

    /// Checkpointed state must round-trip bit-exactly for every value type
    /// the framework supports — including NaN payloads and negative zeros,
    /// which `==` on floats would silently conflate: the initial state
    /// `Recovery` starts from, and a snapshot it keeps.
    #[test]
    fn checkpoints_round_trip_bit_exactly_for_every_value_type() {
        fn case<V: Value>(vals: Vec<V>, src: Vec<V>) {
            let integ = IntegrityConfig::with_mode(IntegrityMode::Full);
            let initial = || (vals.clone(), src.clone());
            let mut rec = Recovery::new(integ, None, &mut SdcStats::default(), initial);
            let bits = |vs: &[V]| vs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            let initial = latest(&rec);
            assert_eq!(bits(&initial.values), bits(&vals), "initial values");
            assert_eq!(bits(&initial.state), bits(&src), "initial src values");
            rec.watchdog_seen.insert(99);
            rec.keep(7, vals.clone(), src.clone());
            let cp = latest(&rec);
            assert_eq!(cp.iteration, 7);
            assert_eq!(bits(&cp.values), bits(&vals), "values round-trip");
            assert_eq!(bits(&cp.state), bits(&src), "src values round-trip");
            assert!(cp.watchdog.contains(&99));
        }
        case::<u32>(vec![0, 1, u32::MAX], vec![5, 6]);
        case::<u64>(vec![0, u64::MAX, 1 << 63], vec![7]);
        case::<f32>(
            vec![0.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE],
            vec![1.5],
        );
        case::<f64>(vec![0.0, -0.0, f64::NAN, f64::NEG_INFINITY], vec![2.5]);
        case::<(f32, f32)>(vec![(0.0, -0.0), (f32::NAN, 1.0)], vec![(3.0, 4.0)]);
        case::<(u32, u32)>(vec![(0, u32::MAX), (1, 2)], vec![(9, 9)]);
    }

    /// `to_bits`/`from_bits` is the identity on raw bit patterns for every
    /// value type, so flips are exactly reversible everywhere.
    #[test]
    fn flips_are_reversible_for_every_value_type() {
        fn case<V: Value>(vals: Vec<V>) {
            let mut gpu = Gpu::new(DeviceConfig::tiny_test());
            let before: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
            let mut buf = gpu.upload(&vals);
            let flip = BitFlip {
                target: FlipTarget::VertexValues,
                word: 1,
                bit: 11,
            };
            apply_flip(&mut buf, &flip);
            let mid: Vec<u64> = buf.host().iter().map(|v| v.to_bits()).collect();
            assert_ne!(mid, before, "flip must change the bit pattern");
            apply_flip(&mut buf, &flip);
            let after: Vec<u64> = buf.host().iter().map(|v| v.to_bits()).collect();
            assert_eq!(after, before, "double flip is the identity");
        }
        case::<u32>(vec![3, 9, 27]);
        case::<u64>(vec![1 << 40, 2, 3]);
        case::<f32>(vec![1.0, -2.5, f32::NAN]);
        case::<f64>(vec![0.25, 1e300, -0.0]);
        case::<(f32, f32)>(vec![(1.0, 2.0), (3.0, 4.0)]);
        case::<(u32, u32)>(vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn mode_parsing_round_trips() {
        for m in [
            IntegrityMode::Off,
            IntegrityMode::Checksum,
            IntegrityMode::Invariant,
            IntegrityMode::Full,
        ] {
            assert_eq!(IntegrityMode::parse(m.label()), Some(m));
        }
        assert_eq!(IntegrityMode::parse("bogus"), None);
        assert!(IntegrityMode::Full.checksums() && IntegrityMode::Full.invariants());
        assert!(!IntegrityMode::Off.enabled());
        assert!(IntegrityMode::Invariant.enabled() && !IntegrityMode::Invariant.checksums());
    }

    #[test]
    fn config_validation() {
        assert!(IntegrityConfig::default().validate().is_ok());
        let mut c = IntegrityConfig::with_mode(IntegrityMode::Full);
        c.checkpoint_every = 0;
        assert!(c.validate().is_err());
        c.checkpoint_every = 2;
        assert!(c.validate().is_ok());
    }
}
