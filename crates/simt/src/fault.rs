//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] schedules failures of the four fallible device operations
//! — host→device copies, device→host copies, device allocations, and kernel
//! launches — at chosen *operation coordinates*. Every `Gpu` operation of a
//! kind increments that kind's counter; a fault fires when the counter hits
//! a scheduled index (or, in seeded-random mode, when a deterministic hash
//! of `(seed, kind, index)` falls under the configured rate). Two runs with
//! the same plan therefore observe the *identical* fault schedule, which is
//! what makes recovery paths testable: an engine that retries/rebatches
//! around injected faults must reproduce the fault-free values bit-for-bit.
//!
//! Operation counters live in the plan, not the `Gpu`, so a plan carried
//! across engine restarts (e.g. after an OOM-triggered rebatch) keeps its
//! global coordinates: a fault scheduled at h2d #7 fires exactly once even
//! if the engine tears the device down and starts over.
//!
//! Faults are injected *before* the operation takes effect: a failed copy
//! transfers nothing, a failed allocation reserves nothing, and a failed
//! launch runs no blocks — mirroring a CUDA error return, after which the
//! caller may retry.

use std::collections::{BTreeMap, BTreeSet};

/// Kinds of injectable device faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Host→device copy failure (transient in real systems).
    H2d,
    /// Device→host copy failure (transient in real systems).
    D2h,
    /// Device allocation failure (`cudaMalloc` returning OOM).
    Alloc,
    /// Kernel launch failure (launch error / abort before side effects).
    Kernel,
}

impl FaultKind {
    /// Parses the spec-text name (`h2d`, `d2h`, `alloc`, `kernel`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "h2d" => Some(FaultKind::H2d),
            "d2h" => Some(FaultKind::D2h),
            "alloc" => Some(FaultKind::Alloc),
            "kernel" => Some(FaultKind::Kernel),
            _ => None,
        }
    }

    fn tag(self) -> u64 {
        match self {
            FaultKind::H2d => 0x683264,    // "h2d"
            FaultKind::D2h => 0x643268,    // "d2h"
            FaultKind::Alloc => 0x616c6c,  // "all"
            FaultKind::Kernel => 0x6b726e, // "krn"
        }
    }
}

/// Logical buffer class a silent bit flip lands in. The simulator has no
/// global view of which `DevVec` plays which role, so the plan speaks in
/// roles and the engine maps each role onto its own buffers: vertex values,
/// the shard-entry value column (`SrcValue`), and the per-shard window
/// slices of that column (`Window` — windows are views into the `SrcValue`
/// array in both representations, so both roles corrupt it, through
/// independent coordinate streams).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlipTarget {
    /// The global vertex-value array.
    VertexValues,
    /// The shard-entry source-value column.
    SrcValue,
    /// A window slice of the source-value column.
    Window,
}

impl FlipTarget {
    fn tag(self) -> u64 {
        match self {
            FlipTarget::VertexValues => 0x7676, // "vv"
            FlipTarget::SrcValue => 0x7376,     // "sv"
            FlipTarget::Window => 0x77696e,     // "win"
        }
    }

    /// Short CLI/display label.
    pub fn label(self) -> &'static str {
        match self {
            FlipTarget::VertexValues => "vv",
            FlipTarget::SrcValue => "sv",
            FlipTarget::Window => "win",
        }
    }

    /// Parses a label (or its long form `values` / `src` / `window`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "vv" | "values" => Some(FlipTarget::VertexValues),
            "sv" | "src" => Some(FlipTarget::SrcValue),
            "win" | "window" => Some(FlipTarget::Window),
            _ => None,
        }
    }
}

/// One silent bit flip due at a flip point: flip bit `bit` of word `word`
/// in the buffer playing the `target` role. `word` is reduced modulo the
/// buffer length and `bit` modulo the value width by whoever applies it, so
/// a plan is valid for any graph size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitFlip {
    /// Buffer role the flip lands in.
    pub target: FlipTarget,
    /// Word index (reduced mod buffer length at apply time).
    pub word: u64,
    /// Bit index within the word (reduced mod value width at apply time).
    pub bit: u8,
}

/// A device-level failure surfaced by the fallible `Gpu` operations.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceFault {
    /// Allocation failed: either injected or genuinely over capacity.
    Oom {
        /// Bytes the failed allocation requested (cumulative ask).
        requested_bytes: u64,
        /// Device capacity in bytes.
        capacity_bytes: u64,
        /// True when the failure was injected rather than a real
        /// capacity overflow.
        injected: bool,
    },
    /// A host↔device copy failed.
    Copy {
        /// Which direction failed.
        kind: FaultKind,
        /// Zero-based index of the failed operation among its kind.
        op_index: u64,
    },
    /// A kernel launch failed before executing any block.
    Kernel {
        /// Name of the kernel whose launch failed.
        name: String,
        /// Zero-based launch index.
        op_index: u64,
    },
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceFault::Oom { requested_bytes, capacity_bytes, injected } => write!(
                f,
                "device out of memory: {requested_bytes} B requested, {capacity_bytes} B capacity{}",
                if *injected { " (injected)" } else { "" }
            ),
            DeviceFault::Copy { kind, op_index } => {
                let dir = match kind {
                    FaultKind::H2d => "host-to-device",
                    FaultKind::D2h => "device-to-host",
                    _ => "copy",
                };
                write!(f, "{dir} copy #{op_index} failed (injected)")
            }
            DeviceFault::Kernel { name, op_index } => {
                write!(f, "kernel launch #{op_index} ({name}) failed (injected)")
            }
        }
    }
}

impl std::error::Error for DeviceFault {}

/// Copy faults every device absorbs per copy, in place; the next one
/// surfaces. A faulted copy transferred nothing, so its retry
/// re-issues the identical operation.
pub const MAX_COPY_RETRIES: u32 = 3;

/// Backoff before the first retry of a copy, in seconds; it doubles per
/// retry of the same copy. Recorded in [`FaultStats::backoff_seconds`], not
/// charged to the device clock.
pub const BACKOFF_BASE_SECONDS: f64 = 1e-3;

/// Launch faults every device absorbs per launch, in place. A faulted launch
/// ran no block, so its relaunch re-executes identical work.
pub const MAX_KERNEL_RETRIES: u32 = 1;

/// Counters of the fault-tolerance machinery's activity during one run.
/// All zero for a fault-free run on a healthy device.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Transient copy faults that were retried successfully.
    pub copy_retries: u32,
    /// Modeled seconds spent in exponential backoff before copy retries.
    pub backoff_seconds: f64,
    /// Times a streamed device halved its byte budget, in place, after a
    /// device OOM.
    pub oom_rebatches: u32,
    /// Rungs of the degradation ladder taken after repeated kernel faults
    /// (CW → G-Shards → host fallback).
    pub degradations: u32,
    /// Kernel launches that failed and were retried in place.
    pub kernel_retries: u32,
}

impl FaultStats {
    /// Element-wise accumulation (a fleet's total).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.copy_retries += other.copy_retries;
        self.backoff_seconds += other.backoff_seconds;
        self.oom_rebatches += other.oom_rebatches;
        self.degradations += other.degradations;
        self.kernel_retries += other.kernel_retries;
    }

    /// Counts one absorbed copy fault, the `attempt`-th retry of its copy
    /// (0-based), with its doubled backoff.
    pub(crate) fn copy_retry(&mut self, attempt: u32) {
        self.copy_retries += 1;
        self.backoff_seconds += BACKOFF_BASE_SECONDS * (1u64 << attempt) as f64;
    }

    /// True when no fault-tolerance machinery fired. A run that spent any
    /// modeled time in backoff is not clean even if every other counter is
    /// zero — backoff time is recovery activity like any other.
    pub fn is_clean(&self) -> bool {
        self.copy_retries == 0
            && self.backoff_seconds == 0.0
            && self.oom_rebatches == 0
            && self.degradations == 0
            && self.kernel_retries == 0
    }

    /// Records the recovery counters into a metrics registry.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("fault_copy_retries", labels, self.copy_retries as u64);
        reg.add("fault_oom_rebatches", labels, self.oom_rebatches as u64);
        reg.add("fault_degradations", labels, self.degradations as u64);
        reg.add("fault_kernel_retries", labels, self.kernel_retries as u64);
        reg.set_gauge("fault_backoff_seconds", labels, self.backoff_seconds);
    }
}

/// Counts of faults a plan has actually fired, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectionLog {
    /// Host→device copy faults fired.
    pub h2d: u64,
    /// Device→host copy faults fired.
    pub d2h: u64,
    /// Allocation faults fired.
    pub alloc: u64,
    /// Kernel-launch faults fired.
    pub kernel: u64,
    /// Silent bit flips fired.
    pub bit_flips: u64,
}

impl InjectionLog {
    /// Total faults fired (bit flips included).
    pub fn total(&self) -> u64 {
        self.h2d + self.d2h + self.alloc + self.kernel + self.bit_flips
    }

    /// Faults fired since `baseline` (an earlier snapshot of the same
    /// plan's log). Resident services thread one [`FaultPlan`] through many
    /// runs; per-run accounting must difference the cumulative log against
    /// the run's starting snapshot or query N+1 would inherit query N's
    /// counts.
    pub fn since(&self, baseline: &InjectionLog) -> InjectionLog {
        InjectionLog {
            h2d: self.h2d - baseline.h2d,
            d2h: self.d2h - baseline.d2h,
            alloc: self.alloc - baseline.alloc,
            kernel: self.kernel - baseline.kernel,
            bit_flips: self.bit_flips - baseline.bit_flips,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct KindState {
    /// Next operation index of this kind (monotonic across restarts).
    counter: u64,
    /// Explicitly scheduled one-shot fault indices.
    scheduled: BTreeSet<u64>,
}

/// A deterministic schedule of injected device faults.
///
/// Build one with the `fail_*` constructors (exact coordinates) and/or
/// [`FaultPlan::seeded`] plus `with_*_rate` (pseudo-random but fully
/// determined by the seed), install it with `Gpu::set_fault_plan`, and read
/// back [`FaultPlan::injected`] after the run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    h2d: KindState,
    d2h: KindState,
    alloc: KindState,
    kernel: KindState,
    /// Substring-matched kernel faults: fail the next `remaining` launches
    /// whose name contains `pattern`.
    kernel_named: Vec<(String, u64)>,
    seed: Option<u64>,
    h2d_rate: f64,
    d2h_rate: f64,
    alloc_rate: f64,
    kernel_rate: f64,
    /// Flip-point counter (one flip point per kernel-consumption boundary;
    /// monotonic across restarts like the operation counters).
    flip_counter: u64,
    /// Explicitly scheduled flips, keyed by flip-point index.
    scheduled_flips: BTreeMap<u64, Vec<BitFlip>>,
    /// Random bit-flip probability per (flip point, target) pair.
    bitflip_rate: f64,
    injected: InjectionLog,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan whose random faults are fully determined by `seed`. Combine
    /// with the `with_*_rate` builders; without a rate the seed alone
    /// injects nothing.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed: Some(seed),
            ..Self::default()
        }
    }

    /// The configured random-fault seed, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Parses a fault spec — the `--inject` grammar — into a plan: comma
    /// separated directives `seed=<u64>`, `<kind>@<op index>` (fail that
    /// operation), `<kind>%<rate>` (seeded random faults, rate in `[0, 1]`)
    /// and `kernel~<pattern>:<count>` (fail the next `count` launches whose
    /// name contains `pattern`), with `<kind>` one of `h2d`, `d2h`, `alloc`,
    /// `kernel`; e.g. `seed=7,alloc@2,h2d@5,kernel~CW:3,d2h%0.01`. A rate
    /// needs a seed in the same spec. Errors name the offending directive.
    pub fn parse_inject(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        let mut rated = None;
        for part in directives(spec) {
            let kind = |name: &str| {
                let expected = "expected h2d, d2h, alloc, or kernel";
                FaultKind::parse(name)
                    .ok_or_else(|| format!("bad fault kind {name:?} in {part:?} ({expected})"))
            };
            if let Some(seed) = part.strip_prefix("seed=") {
                plan.seed = Some(number("seed", seed, part)?);
            } else if let Some(named) = part.strip_prefix("kernel~") {
                let (pattern, count) = named
                    .split_once(':')
                    .ok_or_else(|| format!("{part:?} needs the form kernel~<pattern>:<count>"))?;
                plan = plan.fail_kernels_named(pattern, number("count", count, part)?);
            } else if let Some((name, index)) = part.split_once('@') {
                let index = number("op index", index, part)?;
                plan.kind_mut(kind(name)?).0.scheduled.insert(index);
            } else if let Some((name, rate)) = part.split_once('%') {
                *plan.kind_mut(kind(name)?).1 = unit_rate(rate, part)?;
                rated.get_or_insert(part);
            } else {
                return Err(format!("unrecognized fault spec {part:?}"));
            }
        }
        plan.rates_seeded(rated)
    }

    /// Parses a bit-flip spec — the `--inject-bitflips` grammar — onto this
    /// plan, so copy/kernel faults and silent corruption share one seed:
    /// `seed=<u64>`, `rate=<p>` (seeded flip probability per flip point, in
    /// `[0, 1]`) and `<vv|sv|win>@<flip point>:<word>:<bit>`; e.g.
    /// `seed=3,rate=0.01,vv@2:0:20`. A rate needs a seed, here or already on
    /// the plan (`--inject`'s). Errors name the offending directive.
    pub fn parse_bitflips(mut self, spec: &str) -> Result<FaultPlan, String> {
        let mut rated = None;
        for part in directives(spec) {
            if let Some(seed) = part.strip_prefix("seed=") {
                self.seed = Some(number("seed", seed, part)?);
            } else if let Some(rate) = part.strip_prefix("rate=") {
                self.bitflip_rate = unit_rate(rate, part)?;
                rated = Some(part);
            } else if let Some((target, coords)) = part.split_once('@') {
                let target = FlipTarget::parse(target).ok_or_else(|| {
                    format!("bad target {target:?} in {part:?} (expected vv, sv, or win)")
                })?;
                let fields: Vec<&str> = coords.split(':').collect();
                let [op, word, bit] = fields[..] else {
                    return Err(format!(
                        "bad spec {part:?}: expected <target>@<flip point>:<word>:<bit>"
                    ));
                };
                self = self.flip_at(
                    number("flip point", op, part)?,
                    target,
                    number("word index", word, part)?,
                    number("bit index", bit, part)?,
                );
            } else {
                return Err(format!("unrecognized bit-flip spec {part:?}"));
            }
        }
        self.rates_seeded(rated)
    }

    /// The plan, unless it carries the rate directive `rated` and no seed:
    /// an unseeded rate never fires, so it is refused rather than ignored.
    fn rates_seeded(self, rated: Option<&str>) -> Result<FaultPlan, String> {
        match (rated, self.seed) {
            (Some(part), None) => Err(format!(
                "{part:?} needs a seed=<u64> directive (rates are seeded)"
            )),
            _ => Ok(self),
        }
    }

    /// The schedule and the random-fault rate of `kind`.
    fn kind_mut(&mut self, kind: FaultKind) -> (&mut KindState, &mut f64) {
        match kind {
            FaultKind::H2d => (&mut self.h2d, &mut self.h2d_rate),
            FaultKind::D2h => (&mut self.d2h, &mut self.d2h_rate),
            FaultKind::Alloc => (&mut self.alloc, &mut self.alloc_rate),
            FaultKind::Kernel => (&mut self.kernel, &mut self.kernel_rate),
        }
    }

    /// Fails host→device copies at the given zero-based operation indices.
    pub fn fail_h2d_at(mut self, ops: &[u64]) -> Self {
        self.h2d.scheduled.extend(ops);
        self
    }

    /// Fails device→host copies at the given zero-based operation indices.
    pub fn fail_d2h_at(mut self, ops: &[u64]) -> Self {
        self.d2h.scheduled.extend(ops);
        self
    }

    /// Fails allocations at the given zero-based operation indices.
    pub fn fail_alloc_at(mut self, ops: &[u64]) -> Self {
        self.alloc.scheduled.extend(ops);
        self
    }

    /// Fails kernel launches at the given zero-based launch indices.
    pub fn fail_kernel_at(mut self, ops: &[u64]) -> Self {
        self.kernel.scheduled.extend(ops);
        self
    }

    /// Fails the next `count` kernel launches whose name contains
    /// `pattern`. Use `u64::MAX` for a persistent fault (e.g. to force a
    /// representation's kernels to always fail and exercise degradation).
    pub fn fail_kernels_named(mut self, pattern: impl Into<String>, count: u64) -> Self {
        self.kernel_named.push((pattern.into(), count));
        self
    }

    /// Random h2d-copy fault probability per operation (seeded mode).
    pub fn with_h2d_rate(mut self, rate: f64) -> Self {
        self.h2d_rate = rate;
        self
    }

    /// Random d2h-copy fault probability per operation (seeded mode).
    pub fn with_d2h_rate(mut self, rate: f64) -> Self {
        self.d2h_rate = rate;
        self
    }

    /// Random kernel fault probability per launch (seeded mode).
    pub fn with_kernel_rate(mut self, rate: f64) -> Self {
        self.kernel_rate = rate;
        self
    }

    /// Schedules a silent bit flip at flip point `op` (zero-based): bit
    /// `bit` of word `word` of the buffer playing `target` is XOR-flipped
    /// just before the kernel at that flip point consumes it. One-shot:
    /// carried across restarts like every other coordinate, the flip fires
    /// exactly once even if the engine rolls back or restarts.
    pub fn flip_at(mut self, op: u64, target: FlipTarget, word: u64, bit: u8) -> Self {
        self.scheduled_flips
            .entry(op)
            .or_default()
            .push(BitFlip { target, word, bit });
        self
    }

    /// Random bit-flip probability per (flip point, target) pair (seeded
    /// mode). A firing draw also determines the word and bit.
    pub fn with_bitflip_rate(mut self, rate: f64) -> Self {
        self.bitflip_rate = rate;
        self
    }

    /// True when this plan can ever produce a bit flip.
    pub fn has_bitflips(&self) -> bool {
        !self.scheduled_flips.is_empty() || (self.bitflip_rate > 0.0 && self.seed.is_some())
    }

    /// Current flip-point counter (number of flip points consumed so far).
    pub fn flip_counter(&self) -> u64 {
        self.flip_counter
    }

    /// Counts of faults fired so far.
    pub fn injected(&self) -> InjectionLog {
        self.injected
    }

    /// True while this plan could still disrupt execution: one-shot faults
    /// or flips not yet consumed, named-kernel budgets outstanding, or any
    /// seeded random rate armed. The device uses this to gate launch
    /// records off for a launch — accounting is never charged from a
    /// record across a fault that might still fire. Conservative by
    /// design: a seeded rate keeps the plan "disruptive" forever, and
    /// exhausted one-shot schedules (all consumed) report false.
    pub fn could_disrupt(&self) -> bool {
        let scheduled = !self.h2d.scheduled.is_empty()
            || !self.d2h.scheduled.is_empty()
            || !self.alloc.scheduled.is_empty()
            || !self.kernel.scheduled.is_empty()
            || !self.scheduled_flips.is_empty();
        let named = self
            .kernel_named
            .iter()
            .any(|(_, remaining)| *remaining > 0);
        let seeded_rate = self.seed.is_some()
            && (self.h2d_rate > 0.0
                || self.d2h_rate > 0.0
                || self.alloc_rate > 0.0
                || self.kernel_rate > 0.0
                || self.bitflip_rate > 0.0);
        scheduled || named || seeded_rate
    }

    /// Operation counters consumed so far `(h2d, d2h, alloc, kernel)` —
    /// useful for aiming `fail_*_at` at coordinates observed in a fault-free
    /// run.
    pub fn op_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.h2d.counter,
            self.d2h.counter,
            self.alloc.counter,
            self.kernel.counter,
        )
    }

    fn random_fires(&self, kind: FaultKind, index: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let Some(seed) = self.seed else { return false };
        // SplitMix64 over (seed, kind, index): a pure function, so the
        // schedule is identical for identical seeds regardless of timing.
        let z = splitmix(seed ^ kind.tag().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index);
        to_unit(z) < rate
    }

    /// Advances the flip-point counter and returns the bit flips due at it
    /// (scheduled one-shots plus seeded-random draws, one independent draw
    /// per target role). Fired flips are counted in the injection log.
    pub(crate) fn check_bitflips(&mut self) -> Vec<BitFlip> {
        let index = self.flip_counter;
        self.flip_counter += 1;
        let mut due = self.scheduled_flips.remove(&index).unwrap_or_default();
        if self.bitflip_rate > 0.0 {
            if let Some(seed) = self.seed {
                const BITFLIP_TAG: u64 = 0x666c_6970; // "flip"
                for target in [
                    FlipTarget::VertexValues,
                    FlipTarget::SrcValue,
                    FlipTarget::Window,
                ] {
                    let d = splitmix(
                        seed ^ BITFLIP_TAG.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ target.tag().wrapping_mul(0xBF58_476D_1CE4_E5B9)
                            ^ index,
                    );
                    if to_unit(d) < self.bitflip_rate {
                        due.push(BitFlip {
                            target,
                            word: splitmix(d ^ 1),
                            bit: (splitmix(d ^ 2) % 64) as u8,
                        });
                    }
                }
            }
        }
        self.injected.bit_flips += due.len() as u64;
        due
    }

    /// Advances the counter for `kind` and reports whether this operation
    /// must fail. Scheduled one-shot indices are consumed; named kernel
    /// matches decrement their budget.
    pub(crate) fn check(&mut self, kind: FaultKind, kernel_name: Option<&str>) -> Option<u64> {
        let (state, rate) = self.kind_mut(kind);
        let rate = *rate;
        let index = state.counter;
        state.counter += 1;
        let mut fires = state.scheduled.remove(&index);
        if !fires {
            if let Some(name) = kernel_name {
                for (pattern, remaining) in &mut self.kernel_named {
                    if *remaining > 0 && name.contains(pattern.as_str()) {
                        *remaining -= 1;
                        fires = true;
                        break;
                    }
                }
            }
        }
        if !fires {
            fires = self.random_fires(kind, index, rate);
        }
        if fires {
            match kind {
                FaultKind::H2d => self.injected.h2d += 1,
                FaultKind::D2h => self.injected.d2h += 1,
                FaultKind::Alloc => self.injected.alloc += 1,
                FaultKind::Kernel => self.injected.kernel += 1,
            }
            Some(index)
        } else {
            None
        }
    }
}

/// The non-empty comma-separated directives of a spec.
fn directives(spec: &str) -> impl Iterator<Item = &str> {
    spec.split(',').map(str::trim).filter(|p| !p.is_empty())
}

/// Parses one numeric field of directive `part`.
fn number<T: std::str::FromStr>(what: &str, text: &str, part: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| format!("bad {what} {text:?} in {part:?}: {e}"))
}

/// Parses a probability: the one range check every rate of both grammars
/// passes (NaN is outside every range).
fn unit_rate(text: &str, part: &str) -> Result<f64, String> {
    let rate: f64 = number("rate", text, part)?;
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(format!("bad rate {text:?} in {part:?}: must be in [0, 1]"))
    }
}

/// SplitMix64 finalizer — the deterministic randomness primitive of every
/// seeded schedule in this module.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to the unit interval for rate comparisons.
fn to_unit(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_faults_fire_once_at_their_index() {
        let mut plan = FaultPlan::new().fail_h2d_at(&[1, 3]);
        let fired: Vec<bool> = (0..6)
            .map(|_| plan.check(FaultKind::H2d, None).is_some())
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false, false]);
        assert_eq!(plan.injected().h2d, 2);
        assert_eq!(plan.injected().total(), 2);
    }

    #[test]
    fn kinds_have_independent_counters() {
        let mut plan = FaultPlan::new().fail_alloc_at(&[0]).fail_d2h_at(&[0]);
        assert!(plan.check(FaultKind::H2d, None).is_none());
        assert!(plan.check(FaultKind::Alloc, None).is_some());
        assert!(plan.check(FaultKind::D2h, None).is_some());
        assert!(plan.check(FaultKind::Kernel, Some("k")).is_none());
    }

    #[test]
    fn named_kernel_faults_respect_budget() {
        let mut plan = FaultPlan::new().fail_kernels_named("CW", 2);
        assert!(plan
            .check(FaultKind::Kernel, Some("CuSha-GS::bfs"))
            .is_none());
        assert!(plan
            .check(FaultKind::Kernel, Some("CuSha-CW::bfs"))
            .is_some());
        assert!(plan
            .check(FaultKind::Kernel, Some("CuSha-CW::bfs"))
            .is_some());
        assert!(plan
            .check(FaultKind::Kernel, Some("CuSha-CW::bfs"))
            .is_none());
        assert_eq!(plan.injected().kernel, 2);
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let run = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::seeded(seed).with_h2d_rate(0.3);
            (0..64)
                .map(|_| plan.check(FaultKind::H2d, None).is_some())
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds give different schedules");
        assert!(run(42).iter().any(|&b| b), "rate 0.3 over 64 ops fires");
    }

    #[test]
    fn counters_persist_across_conceptual_restarts() {
        // A plan threaded through two device lifetimes keeps coordinates.
        let mut plan = FaultPlan::new().fail_alloc_at(&[2]);
        assert!(plan.check(FaultKind::Alloc, None).is_none()); // first gpu, op 0
        assert!(plan.check(FaultKind::Alloc, None).is_none()); // first gpu, op 1
                                                               // engine restarts with a fresh Gpu, same plan:
        assert!(plan.check(FaultKind::Alloc, None).is_some()); // op 2 fires
        assert!(plan.check(FaultKind::Alloc, None).is_none());
        assert_eq!(plan.op_counters().2, 4);
    }

    #[test]
    fn scheduled_bitflips_fire_once_at_their_flip_point() {
        let mut plan = FaultPlan::new()
            .flip_at(1, FlipTarget::VertexValues, 7, 3)
            .flip_at(1, FlipTarget::SrcValue, 2, 31)
            .flip_at(4, FlipTarget::Window, 0, 63);
        assert!(plan.has_bitflips());
        assert!(plan.check_bitflips().is_empty()); // flip point 0
        let at1 = plan.check_bitflips();
        assert_eq!(at1.len(), 2);
        assert_eq!(at1[0].target, FlipTarget::VertexValues);
        assert_eq!(at1[0].word, 7);
        assert_eq!(at1[0].bit, 3);
        assert!(plan.check_bitflips().is_empty());
        assert!(plan.check_bitflips().is_empty());
        assert_eq!(plan.check_bitflips().len(), 1); // flip point 4
        assert!(plan.check_bitflips().is_empty());
        assert_eq!(plan.injected().bit_flips, 3);
        assert_eq!(plan.injected().total(), 3);
        assert_eq!(plan.flip_counter(), 6);
    }

    #[test]
    fn bitflip_coordinates_persist_across_restarts() {
        // Replaying the first flip points after a rollback/restart does not
        // re-fire a consumed flip: the counter lives in the plan.
        let mut plan = FaultPlan::new().flip_at(0, FlipTarget::VertexValues, 1, 1);
        assert_eq!(plan.check_bitflips().len(), 1);
        // Engine rolls back and replays: the same logical point is a fresh
        // (later) coordinate and stays clean.
        assert!(plan.check_bitflips().is_empty());
        assert_eq!(plan.injected().bit_flips, 1);
    }

    #[test]
    fn seeded_bitflips_are_reproducible_and_fire() {
        let run = |seed: u64| -> Vec<Vec<BitFlip>> {
            let mut plan = FaultPlan::seeded(seed).with_bitflip_rate(0.2);
            (0..64).map(|_| plan.check_bitflips()).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let fired: usize = run(9).iter().map(|v| v.len()).sum();
        assert!(fired > 0, "rate 0.2 over 64 flip points fires");
        for flips in run(9) {
            for f in flips {
                assert!(f.bit < 64);
            }
        }
    }

    #[test]
    fn unseeded_rate_never_flips() {
        let mut plan = FaultPlan::new().with_bitflip_rate(1.0);
        assert!(!plan.has_bitflips());
        assert!(plan.check_bitflips().is_empty());
    }

    #[test]
    fn could_disrupt_tracks_outstanding_faults() {
        assert!(!FaultPlan::new().could_disrupt());

        // One-shot schedules disarm once consumed.
        let mut plan = FaultPlan::new().fail_kernel_at(&[1]);
        assert!(plan.could_disrupt());
        plan.check(FaultKind::Kernel, Some("k"));
        plan.check(FaultKind::Kernel, Some("k")); // fires, consumes index 1
        assert!(!plan.could_disrupt());

        let mut flips = FaultPlan::new().flip_at(0, FlipTarget::VertexValues, 1, 1);
        assert!(flips.could_disrupt());
        flips.check_bitflips();
        assert!(!flips.could_disrupt());

        // Named-kernel budgets disarm at zero.
        let mut named = FaultPlan::new().fail_kernels_named("CW", 1);
        assert!(named.could_disrupt());
        named.check(FaultKind::Kernel, Some("CuSha-CW::bfs"));
        assert!(!named.could_disrupt());

        // A seeded rate stays armed forever; an unseeded rate never fires.
        assert!(FaultPlan::seeded(1).with_h2d_rate(0.1).could_disrupt());
        assert!(FaultPlan::seeded(1).with_bitflip_rate(0.1).could_disrupt());
        assert!(!FaultPlan::new().with_h2d_rate(1.0).could_disrupt());
    }

    #[test]
    fn inject_grammar_drives_every_directive() {
        let spec =
            " seed=7, h2d@1,d2h@2,alloc@0,kernel@3,,kernel~CW:2,h2d%0.5,d2h%0,alloc%1,kernel%0.25 ";
        let mut plan = FaultPlan::parse_inject(spec).expect("valid spec");
        assert_eq!(plan.seed(), Some(7));
        assert_eq!(
            (
                plan.h2d_rate,
                plan.d2h_rate,
                plan.alloc_rate,
                plan.kernel_rate
            ),
            (0.5, 0.0, 1.0, 0.25)
        );
        for (kind, index) in [
            (FaultKind::H2d, 1),
            (FaultKind::D2h, 2),
            (FaultKind::Alloc, 0),
            (FaultKind::Kernel, 3),
        ] {
            assert!(plan.kind_mut(kind).0.scheduled.contains(&index), "{kind:?}");
        }
        assert_eq!(plan.kernel_named, vec![("CW".to_string(), 2)]);
        // A pattern may hold the other directives' separators; a seed may
        // come after the rate it seeds; an empty spec is an empty plan.
        let named = FaultPlan::parse_inject("kernel~a@b%c:18446744073709551615").expect("named");
        assert_eq!(named.kernel_named, vec![("a@b%c".to_string(), u64::MAX)]);
        assert!(FaultPlan::parse_inject("h2d%0.1,seed=1").is_ok());
        assert!(!FaultPlan::parse_inject("").expect("empty").could_disrupt());
    }

    #[test]
    fn bitflip_grammar_drives_every_directive() {
        let plan = FaultPlan::new()
            .parse_bitflips("seed=3,rate=0.01,vv@2:0:20,src@2:5:6,window@4:1:63")
            .expect("valid spec");
        assert_eq!((plan.seed(), plan.bitflip_rate), (Some(3), 0.01));
        let flip = |target, word, bit| BitFlip { target, word, bit };
        assert_eq!(
            plan.scheduled_flips[&2],
            vec![
                flip(FlipTarget::VertexValues, 0, 20),
                flip(FlipTarget::SrcValue, 5, 6)
            ]
        );
        assert_eq!(
            plan.scheduled_flips[&4],
            vec![flip(FlipTarget::Window, 1, 63)]
        );
        for target in [
            FlipTarget::VertexValues,
            FlipTarget::SrcValue,
            FlipTarget::Window,
        ] {
            assert_eq!(FlipTarget::parse(target.label()), Some(target));
        }
        // The spec extends a plan: its schedule and its seed carry over.
        let base = FaultPlan::parse_inject("seed=9,h2d@4").expect("base");
        let merged = base
            .parse_bitflips("rate=1")
            .expect("seed comes from the plan");
        assert_eq!((merged.seed(), merged.bitflip_rate), (Some(9), 1.0));
        assert!(merged.h2d.scheduled.contains(&4));
    }

    #[test]
    fn spec_errors_name_their_directive() {
        let inject = |spec: &str| FaultPlan::parse_inject(spec).unwrap_err();
        let flips = |spec: &str| FaultPlan::new().parse_bitflips(spec).unwrap_err();
        for (err, token) in [
            (inject("h2d@1,bogus"), "\"bogus\""),
            (inject("seed=x"), "\"seed=x\""),
            (inject("h2d@-1"), "\"h2d@-1\""),
            (inject("disk@3"), "\"disk\""),
            (inject("seed=1,disk%0.5"), "\"disk\""),
            (inject("kernel~CW"), "\"kernel~CW\""),
            (inject("kernel~CW:many"), "\"many\""),
            (inject("seed=1,d2h%half"), "\"half\""),
            (flips("bogus"), "\"bogus\""),
            (flips("seed=-3"), "\"seed=-3\""),
            (flips("seed=1,rate=lots"), "\"lots\""),
            (flips("xx@1:2:3"), "\"xx\""),
            (flips("vv@1:2"), "\"vv@1:2\""),
            (flips("vv@1:2:3:4"), "\"vv@1:2:3:4\""),
            (flips("vv@a:2:3"), "\"a\""),
            (flips("sv@1:b:3"), "\"b\""),
            (flips("win@1:2:256"), "\"256\""),
        ] {
            assert!(err.contains(token), "{err:?} does not name {token}");
        }
    }

    #[test]
    fn rates_are_probabilities_and_need_a_seed() {
        // One range check serves every rate of both grammars.
        for rate in ["nan", "NaN", "7.5", "-1", "-0.0001", "1.0001", "inf"] {
            for kind in ["h2d", "d2h", "alloc", "kernel"] {
                let err = FaultPlan::parse_inject(&format!("seed=1,{kind}%{rate}")).unwrap_err();
                assert!(err.contains("[0, 1]") && err.contains(rate), "{err}");
            }
            let err = FaultPlan::new()
                .parse_bitflips(&format!("seed=1,rate={rate}"))
                .unwrap_err();
            assert!(err.contains("[0, 1]") && err.contains(rate), "{err}");
        }
        for rate in ["0", "1", "0.5", "1e-9"] {
            assert!(FaultPlan::parse_inject(&format!("seed=1,kernel%{rate}")).is_ok());
        }
        let err = FaultPlan::parse_inject("h2d@1,h2d%0.1").unwrap_err();
        assert!(err.contains("\"h2d%0.1\"") && err.contains("seed"), "{err}");
        let err = FaultPlan::new().parse_bitflips("rate=0.5").unwrap_err();
        assert!(
            err.contains("\"rate=0.5\"") && err.contains("seed"),
            "{err}"
        );
    }

    #[test]
    fn display_formats_are_informative() {
        let oom = DeviceFault::Oom {
            requested_bytes: 10,
            capacity_bytes: 5,
            injected: true,
        };
        assert!(oom.to_string().contains("out of memory"));
        assert!(oom.to_string().contains("injected"));
        let copy = DeviceFault::Copy {
            kind: FaultKind::H2d,
            op_index: 3,
        };
        assert!(copy.to_string().contains("host-to-device"));
        let k = DeviceFault::Kernel {
            name: "k".into(),
            op_index: 0,
        };
        assert!(k.to_string().contains("kernel launch"));
    }
}
