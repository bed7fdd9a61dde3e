//! Launch records: the accounting a kernel's launches repeat, taken once and
//! charged after.
//!
//! A kernel whose blocks' access pattern is a property of what the launch
//! runs over (a CSR, a shard layout) re-derives the same counters and cycles
//! every launch; only the *values* moved change. A [`LaunchRecord`] holds
//! that accounting in two parts, each used through
//! [`crate::Gpu::try_launch_recorded`]:
//!
//! * the **fixed share** — what every block's [`crate::Block::statics`]
//!   bodies cost, keyed on the launch's shape (grid, threads per block) and
//!   charged whole, per SM, at every launch of that shape;
//! * the **per-block shares** — what block `b`'s [`crate::Block::share`]
//!   body cost: ops whose cost the record's owner fixes per block but which
//!   run only when values say so (CuSha's stage 4, behind
//!   `__syncthreads_or`). Block `b`'s share is tallied the first time `b`
//!   runs its body and charged to `b` — so to SM `b mod SMs` — every later
//!   time.
//!
//! Data movement is never recorded: a statics or share body moves no data
//! anything reads, and the kernel moves its live data outside the bodies, so
//! outputs are bit-identical by construction and injected bit flips (which
//! change values, never access patterns) are never swallowed. Validity rests
//! on three rules:
//!
//! * the record's owner contracts that the bodies' cost holds still for as
//!   long as it keeps the record — which is why a record lives with what
//!   fixes that cost (a run's buffers, a prepared layout, one streamed
//!   batch's shard range);
//! * every [`VERIFY_SAMPLE`]-th use of the fixed share, and of each per-block
//!   share, interprets its bodies and compares (verify-on-sample): a violated
//!   contract counts a verify failure and the record is corrected;
//! * the device gates records off for any launch during which a fault plan
//!   could still fire (`FaultPlan::could_disrupt`), so accounting is never
//!   charged across a due fault — those uses count as fallbacks.

use crate::counters::Counters;

/// Every `VERIFY_SAMPLE`-th use of a [`LaunchRecord`]'s fixed share, and of
/// each of its per-block shares, is interpreted and compared against the
/// recording instead of being charged.
pub const VERIFY_SAMPLE: u32 = 64;

/// Accounting of one interpreted body: what it added to its block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct TraceDelta {
    pub counters: Counters,
    pub mem_cycles: u64,
    pub alu_cycles: u64,
}

/// A record's fixed share: the counter totals, each SM's memory and ALU
/// cycles and each marked phase's cycles (first-marked order) of every
/// block's statics, at one shape. O(SMs + phases), whatever the grid.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Fixed {
    pub shape: Option<(u32, u32)>,
    pub counters: Counters,
    /// `(memory cycles, ALU cycles)` per SM.
    pub sm: Vec<(u64, u64)>,
    pub phases: Vec<(&'static str, u64)>,
    /// Uses since it was recorded or last checked.
    pub uses: u32,
}

impl Fixed {
    /// Empties it, allocations kept, for a recording at `shape` on `sms` SMs.
    pub(crate) fn reset(&mut self, shape: (u32, u32), sms: usize) {
        self.shape = Some(shape);
        self.counters = Counters::default();
        self.sm.clear();
        self.sm.resize(sms, (0, 0));
        self.phases.clear();
        self.uses = 0;
    }

    /// Tallies what one `statics` body of block `block` cost, under the phase
    /// marked last (none before the first mark, as in the device's split).
    pub(crate) fn add(&mut self, block: u32, phase: Option<&'static str>, d: &TraceDelta) {
        self.counters.add(&d.counters);
        let sms = self.sm.len();
        let sm = &mut self.sm[block as usize % sms];
        sm.0 += d.mem_cycles;
        sm.1 += d.alu_cycles;
        if let Some(name) = phase {
            add_phase(&mut self.phases, name, d.mem_cycles + d.alu_cycles);
        }
    }
}

/// One block's share: what its `share` body cost, once it has run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Share {
    pub delta: Option<TraceDelta>,
    /// Uses since it was recorded or last checked.
    pub uses: u32,
}

impl Share {
    /// One use: the deltas to charge, or `None` when the body must run (a
    /// first use, which [`Share::settle`] records, or a sampled one, which it
    /// checks).
    pub(crate) fn take(&mut self, tally: &mut ReplayTally) -> Option<TraceDelta> {
        let delta = self.delta?;
        tally.hits += 1;
        self.uses = (self.uses + 1) % VERIFY_SAMPLE;
        (self.uses != 0).then_some(delta)
    }

    /// Keeps what an interpreted use cost; a checked use that disagrees with
    /// the recording counts a verify failure (the interpretation stands).
    pub(crate) fn settle(&mut self, delta: TraceDelta, tally: &mut ReplayTally) {
        match self.delta {
            None => tally.misses += 1,
            Some(kept) => tally.verify_failures += u64::from(kept != delta),
        }
        self.delta = Some(delta);
    }
}

/// The accounting a kernel's launches repeat (see the module docs): a fixed
/// share and one share per block. Its owner keeps it while that cost holds
/// still; [`crate::Gpu::try_launch_recorded`] records it at a new shape,
/// charges it otherwise, and checks it every [`VERIFY_SAMPLE`]-th use.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaunchRecord {
    pub(crate) fixed: Fixed,
    /// Per-block shares, by block id; one per block of the recorded shape.
    pub(crate) shares: Vec<Share>,
}

/// What a device's recorded launches did with their records: a hit is a
/// fixed share or a per-block share charged (or checked), a miss one
/// recorded, a fallback one interpreted because records were gated off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ReplayTally {
    pub hits: u64,
    pub misses: u64,
    pub fallbacks: u64,
    /// Checked uses that disagreed with their recording — a violated
    /// contract. Always 0 for the in-tree kernels.
    pub verify_failures: u64,
}

/// Adds `cycles` to phase `name` of a first-marked-order phase list.
pub(crate) fn add_phase(phases: &mut Vec<(&'static str, u64)>, name: &'static str, cycles: u64) {
    match phases.iter_mut().find(|(n, _)| *n == name) {
        Some((_, c)) => *c += cycles,
        None => phases.push((name, cycles)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(wi: u64) -> TraceDelta {
        TraceDelta {
            counters: Counters {
                warp_instructions: wi,
                ..Default::default()
            },
            mem_cycles: wi,
            alu_cycles: 0,
        }
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let (mut share, mut tally) = (Share::default(), ReplayTally::default());
        assert_eq!(share.take(&mut tally), None, "a first use runs its body");
        share.settle(delta(5), &mut tally);
        assert_eq!(share.take(&mut tally), Some(delta(5)));
        assert_eq!((tally.hits, tally.misses, tally.verify_failures), (1, 1, 0));
    }

    #[test]
    fn every_nth_hit_is_verified() {
        let (mut share, mut tally) = (Share::default(), ReplayTally::default());
        share.take(&mut tally);
        share.settle(delta(2), &mut tally);
        let mut checks = 0;
        for _ in 0..2 * VERIFY_SAMPLE {
            if share.take(&mut tally).is_none() {
                checks += 1;
                share.settle(delta(2), &mut tally);
            }
        }
        assert_eq!(checks, 2);
        assert_eq!(tally.hits, 2 * u64::from(VERIFY_SAMPLE));
        assert_eq!(tally.verify_failures, 0);
    }

    #[test]
    fn verify_mismatch_corrects_the_share() {
        let (mut share, mut tally) = (Share::default(), ReplayTally::default());
        share.take(&mut tally);
        share.settle(delta(2), &mut tally);
        (1..VERIFY_SAMPLE).for_each(|_| assert_eq!(share.take(&mut tally), Some(delta(2))));
        // The sampled use runs its body; what it cost disagrees, counts, and
        // stands.
        assert_eq!(share.take(&mut tally), None);
        share.settle(delta(3), &mut tally);
        assert_eq!(tally.verify_failures, 1);
        assert_eq!(share.take(&mut tally), Some(delta(3)));
    }

    #[test]
    fn uncommitted_miss_never_replays() {
        // A share whose body ran but whose cost was never settled (the body
        // did not finish) must not be charged: its next use runs it again.
        let (mut share, mut tally) = (Share::default(), ReplayTally::default());
        assert_eq!(share.take(&mut tally), None);
        assert_eq!(share.take(&mut tally), None);
        assert_eq!((tally.hits, tally.misses), (0, 0));
    }
}
