//! Warp-trace replay memo: whole-scope memoization of warp accounting.
//!
//! The CuSha kernels re-execute the same warp-level instruction sequences
//! every convergence iteration: the active mask, the per-lane access
//! pattern, and therefore every counter and cycle the scope produces are
//! iteration-invariant — only the *values* moved change. This table keys a
//! caller-delimited scope (see `Block::warp_scope`) on
//! `(site, active mask, per-lane access-pattern fingerprint)` and, on a
//! hit, replays the recorded counter/timing deltas instead of re-deriving
//! addresses and running the scattered-access analysis. Data movement is
//! *never* replayed — loads and stores inside a replayed scope still
//! execute on real data — so outputs are bit-identical by construction and
//! injected bit flips (which change values, never access patterns) are
//! never swallowed.
//!
//! Validity rests on three rules:
//!
//! * the full key (site words, mask, fingerprint column) is stored and
//!   compared on every probe, so a colliding slot is overwritten, never
//!   trusted;
//! * the caller contracts that the scope's accounting is a pure function
//!   of the key; every [`VERIFY_SAMPLE`]-th hit of a slot is re-interpreted
//!   and checked against the recorded deltas (verify-on-sample), so a
//!   violated contract is caught statistically and the slot corrected;
//! * the device gates replay off for any launch during which a fault plan
//!   could still fire (`FaultPlan::could_disrupt`), so a scope never
//!   replays across a due fault — those entries count as fallbacks.

use crate::counters::{Counters, Mask, WARP};

/// Words of caller-supplied site identity in a replay key: a stage tag,
/// loop indices, and a fold of the buffer base addresses the scope touches.
pub const SITE_WORDS: usize = 4;

/// Every `VERIFY_SAMPLE`-th hit of a slot is re-interpreted and compared
/// against the recorded deltas instead of being replayed.
const VERIFY_SAMPLE: u32 = 64;

/// Slots in the direct-mapped table (power of two). Sized so the simwall
/// workloads' working sets (a few tens of thousands of distinct scopes at
/// the benchmark scales) stay below ~50% load; overflow degrades to
/// interpretation, never to wrong answers.
const SLOTS: usize = 32768;

/// Accounting deltas of one recorded warp-trace scope. Doubles as the
/// absolute snapshot taken at scope entry when recording.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct TraceDelta {
    pub counters: Counters,
    pub mem_cycles: u64,
    pub alu_cycles: u64,
}

#[derive(Clone, Copy)]
struct TraceKey {
    site: [u64; SITE_WORDS],
    mask: u32,
    col: [u32; WARP],
}

#[derive(Clone, Copy)]
struct TraceSlot {
    key: TraceKey,
    delta: TraceDelta,
    /// Hits served since the slot was (re)recorded; drives verify sampling.
    hits: u32,
    filled: bool,
}

/// Marker for slot types whose all-zero bit pattern is a valid, unfilled
/// slot.
///
/// # Safety
///
/// Implementors must be plain integer/bool aggregates for which all-zeroes
/// is a valid value: [`zeroed_table`] materializes them from zeroed memory.
unsafe trait Zeroable: Copy {}

// SAFETY: plain integer/bool aggregate; all-zeroes is a valid unfilled slot
// (probes gate on `filled`, so a zeroed key is never trusted).
unsafe impl Zeroable for TraceSlot {}

/// Allocates a slot table as untouched zero pages instead of writing an
/// empty-slot pattern through every byte: the table is megabytes per device
/// and most runs touch a fraction of it, so eager initialization would
/// dominate device construction. The one `unsafe` site of the crate; CI runs
/// this module's tests under Miri.
fn zeroed_table<T: Zeroable>(len: usize) -> Vec<T> {
    let layout = std::alloc::Layout::array::<T>(len).expect("table layout");
    if layout.size() == 0 {
        return Vec::new();
    }
    // SAFETY: `T: Zeroable` guarantees the all-zero bit pattern is a valid
    // `T`; the layout matches `Vec`'s allocation contract for `T`.
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout) as *mut T;
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, len, len)
    }
}

/// Outcome of a replay-table probe.
pub(crate) enum Lookup<'a> {
    /// Key matched: apply the slot's deltas, skip interpretation.
    Hit(&'a TraceDelta),
    /// Key matched but this hit is sampled for verification: interpret,
    /// then compare via [`ReplayMemo::verify`].
    Verify(usize),
    /// No usable entry: interpret, then record via [`ReplayMemo::commit`].
    Miss(usize),
}

/// Self-validating warp-trace replay table (see module docs). Owned by the
/// device next to its [`crate::CoalesceMemo`]; allocated once, all probes
/// allocation- and copy-free (keys are compared in place, deltas applied by
/// reference).
pub struct ReplayMemo {
    slots: Vec<TraceSlot>,
    hits: u64,
    misses: u64,
    fallbacks: u64,
    verify_failures: u64,
}

impl ReplayMemo {
    /// Builds an empty table. The slot array arrives as untouched zero
    /// pages (see `zeroed_table`) so construction cost does not scale with
    /// [`SLOTS`].
    pub fn new() -> Self {
        Self::with_share(1)
    }

    /// Builds an empty table with `1/share` of the default slots (rounded
    /// up to a power of two). A fleet of `share` devices splits one graph's
    /// scopes `share` ways, so each device's table keeps the single-device
    /// load factor and the fleet's tables together touch no more memory
    /// than one device's would.
    pub fn with_share(share: usize) -> Self {
        let slots = (SLOTS / share.max(1)).next_power_of_two().max(2);
        ReplayMemo {
            slots: zeroed_table(slots),
            hits: 0,
            misses: 0,
            fallbacks: 0,
            verify_failures: 0,
        }
    }

    /// `(hits, misses, fallbacks)` since construction. A fallback is a
    /// scope that asked to replay while replay was gated off for the
    /// launch (pending fault plan or disabled in the device config).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.fallbacks)
    }

    /// Sampled verifications that disagreed with the recorded deltas —
    /// a violated scope contract. Always 0 for the in-tree kernels; the
    /// slot is corrected with the interpreted result either way.
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures
    }

    pub(crate) fn note_fallback(&mut self) {
        self.fallbacks += 1;
    }

    pub(crate) fn lookup(
        &mut self,
        site: &[u64; SITE_WORDS],
        mask: Mask,
        col: &[u32; WARP],
    ) -> Lookup<'_> {
        // Two-way set associative: a set is an adjacent slot pair. One way
        // absorbs value-dependent churn (convergence-dependent masks)
        // without evicting the iteration-stable entry in the other.
        let way0 = slot_index(site, mask.0) & (self.slots.len() - 1) & !1;
        // Exact full-key compare, in place and cheapest words first: the
        // 128-byte column is only read once site and mask already agree.
        let hit = [way0, way0 | 1].into_iter().find(|&idx| {
            let slot = &self.slots[idx];
            slot.filled && slot.key.site == *site && slot.key.mask == mask.0 && slot.key.col == *col
        });
        if let Some(idx) = hit {
            self.hits += 1;
            let slot = &mut self.slots[idx];
            slot.hits = slot.hits.wrapping_add(1);
            if slot.hits.is_multiple_of(VERIFY_SAMPLE) {
                return Lookup::Verify(idx);
            }
            return Lookup::Hit(&slot.delta);
        }
        self.misses += 1;
        // Victim: an unfilled way if any, else the colder (fewer-hit) way.
        let idx = if !self.slots[way0].filled {
            way0
        } else if !self.slots[way0 | 1].filled {
            way0 | 1
        } else if self.slots[way0].hits <= self.slots[way0 | 1].hits {
            way0
        } else {
            way0 | 1
        };
        let slot = &mut self.slots[idx];
        slot.key = TraceKey {
            site: *site,
            mask: mask.0,
            col: *col,
        };
        slot.filled = false; // pending until commit
        slot.hits = 0;
        Lookup::Miss(idx)
    }

    /// Records the interpreted deltas of a missed scope.
    pub(crate) fn commit(&mut self, idx: usize, delta: TraceDelta) {
        let slot = &mut self.slots[idx];
        slot.delta = delta;
        slot.filled = true;
    }

    /// Checks a sampled hit's interpreted deltas against the recording.
    /// A mismatch means the caller's purity contract was violated: the
    /// slot is corrected with the interpreted (authoritative) result.
    pub(crate) fn verify(&mut self, idx: usize, delta: TraceDelta) {
        let slot = &mut self.slots[idx];
        if slot.delta != delta {
            debug_assert!(
                false,
                "replay verify-on-sample mismatch: recorded {:?}, interpreted {:?}",
                slot.delta, delta
            );
            self.verify_failures += 1;
            slot.delta = delta;
            slot.hits = 0;
        }
    }
}

impl Default for ReplayMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ReplayMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayMemo")
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("fallbacks", &self.fallbacks)
            .finish()
    }
}

fn slot_index(site: &[u64; SITE_WORDS], mask: u32) -> usize {
    // Word-wise FNV-1a over the site words and mask with a murmur-style
    // finalizer. The fingerprint column is deliberately NOT hashed: the
    // in-tree kernels make their keys distinct through the site words
    // (stage tag + loop indices), so hashing the 16 packed column words
    // would cost 4x the probe work for no extra distribution. The column
    // still participates in the exact key compare, so correctness is
    // unaffected — a column-only difference is a compare miss, not a
    // false hit.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &w in site {
        h ^= w;
        h = h.wrapping_mul(PRIME);
    }
    h ^= mask as u64;
    h = h.wrapping_mul(PRIME);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h as usize
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
        let mut m = ReplayMemo::new();
        let site = [1, 2, 3, 4];
        let col = [7u32; WARP];
        let idx = match m.lookup(&site, Mask::FULL, &col) {
            Lookup::Miss(i) => i,
            _ => panic!("first probe must miss"),
        };
        m.commit(idx, delta(5));
        match m.lookup(&site, Mask::FULL, &col) {
            Lookup::Hit(d) => assert_eq!(*d, delta(5)),
            _ => panic!("second probe must hit"),
        }
        assert_eq!(m.stats(), (1, 1, 0));
    }

    #[test]
    fn differing_mask_or_column_misses() {
        let mut m = ReplayMemo::new();
        let site = [9, 9, 9, 9];
        let col = [1u32; WARP];
        if let Lookup::Miss(i) = m.lookup(&site, Mask::FULL, &col) {
            m.commit(i, delta(1));
        }
        assert!(matches!(
            m.lookup(&site, Mask::first(5), &col),
            Lookup::Miss(_)
        ));
        let mut col2 = col;
        col2[31] = 2;
        assert!(matches!(
            m.lookup(&site, Mask::FULL, &col2),
            Lookup::Miss(_)
        ));
    }

    #[test]
    fn uncommitted_miss_never_replays() {
        // A scope that missed but was never committed (e.g. interpretation
        // aborted) must not serve stale deltas.
        let mut m = ReplayMemo::new();
        let site = [4, 4, 4, 4];
        let col = [0u32; WARP];
        assert!(matches!(m.lookup(&site, Mask::FULL, &col), Lookup::Miss(_)));
        assert!(matches!(m.lookup(&site, Mask::FULL, &col), Lookup::Miss(_)));
    }

    #[test]
    fn every_nth_hit_is_verified() {
        let mut m = ReplayMemo::new();
        let site = [5, 6, 7, 8];
        let col = [3u32; WARP];
        if let Lookup::Miss(i) = m.lookup(&site, Mask::FULL, &col) {
            m.commit(i, delta(2));
        }
        let mut verifies = 0;
        for _ in 0..(2 * VERIFY_SAMPLE) {
            match m.lookup(&site, Mask::FULL, &col) {
                Lookup::Verify(i) => {
                    verifies += 1;
                    m.verify(i, delta(2));
                }
                Lookup::Hit(_) => {}
                Lookup::Miss(_) => panic!("committed slot must not miss"),
            }
        }
        assert_eq!(verifies, 2);
        assert_eq!(m.verify_failures(), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "verify-on-sample mismatch"))]
    fn verify_mismatch_corrects_the_slot() {
        let mut m = ReplayMemo::new();
        let site = [1, 1, 1, 1];
        let col = [0u32; WARP];
        if let Lookup::Miss(i) = m.lookup(&site, Mask::FULL, &col) {
            m.commit(i, delta(2));
            m.verify(i, delta(3));
            // Release builds reach here: failure counted, slot corrected.
            assert_eq!(m.verify_failures(), 1);
            match m.lookup(&site, Mask::FULL, &col) {
                Lookup::Hit(d) => assert_eq!(*d, delta(3)),
                _ => panic!("slot must still be filled"),
            }
        }
    }
}
