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
//! *never* replayed — loads and stores issued inside a replayed scope still
//! execute on real data, and the only ones a caller may leave out are those
//! whose data nothing reads (see `Block::warp_scope`) — so outputs are
//! bit-identical by construction and injected bit flips (which change
//! values, never access patterns) are never swallowed.
//!
//! Validity rests on three rules:
//!
//! * the full key (site words, mask, and a 64-bit fold of the fingerprint
//!   column — see [`fold_col`]) is stored and compared on every probe, so a
//!   colliding slot is overwritten, never trusted;
//! * the caller contracts that the scope's accounting is a pure function
//!   of the key for as long as the table lives — which is why a table
//!   belongs to whatever bounds that purity (the device for kernels keyed on
//!   device state, the immutable prepared layout for the CuSha stages);
//!   every [`VERIFY_SAMPLE`]-th hit of a slot is re-interpreted and
//!   checked against the recorded deltas (verify-on-sample), so a
//!   violated contract is caught statistically and the slot corrected;
//! * the device gates replay off for any launch during which a fault plan
//!   could still fire (`FaultPlan::could_disrupt`), so a scope never
//!   replays across a due fault — those entries count as fallbacks.
//!
//! Where a kernel's value-independent share is fixed by the launch's shape
//! and what the run holds still (VWC's CSR sweeps, k-core's dense scans), no
//! key is needed at all: a [`LaunchRecord`] holds that share for the whole
//! launch, used once per launch instead of probed once per block, and
//! checked and gated by the same rules (its shape is its key).

use crate::counters::{Counters, Mask, WARP};

/// Words of caller-supplied site identity in a replay key: a stage tag,
/// loop indices, and a fold of the buffer base addresses the scope touches.
pub const SITE_WORDS: usize = 4;

/// Every `VERIFY_SAMPLE`-th hit of a slot, and every `VERIFY_SAMPLE`-th use
/// of a [`LaunchRecord`], is re-interpreted and compared against the
/// recording instead of being replayed.
pub const VERIFY_SAMPLE: u32 = 64;

/// Slots of a table's first allocation; it doubles from there whenever half
/// its slots are filled, up to [`MAX_SLOTS`].
const MIN_SLOTS: usize = 64;

/// Growth cap (power of two): keys that churn without bound degrade to
/// overwriting and interpretation here, never to unbounded memory. A caller
/// whose key count is known up front should stay under half of it — past that
/// load a probe window can fill and recordings start evicting each other.
pub const MAX_SLOTS: usize = 1 << 16;

/// Linear-probe window: a key sits within this many slots of its home slot.
/// A miss takes the first unfilled one and, only when all are taken (at load
/// one half: a table at its cap), overwrites the home slot.
const PROBE: usize = 32;

/// Accounting deltas of one recorded warp-trace scope. Doubles as the
/// absolute snapshot taken at scope entry when recording.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct TraceDelta {
    pub counters: Counters,
    pub mem_cycles: u64,
    pub alu_cycles: u64,
}

#[derive(Clone, Copy, Default)]
struct TraceKey {
    site: [u64; SITE_WORDS],
    /// [`fold_col`] of the caller's fingerprint column.
    col: u64,
    mask: u32,
}

/// Word-wise FNV-1a with a murmur-style finalizer. Every step is a
/// bijection of the running state for a fixed input word and of the word for
/// a fixed state, so two inputs that differ in exactly one word never hash
/// alike.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ h >> 33
}

/// Folds a 32-sample fingerprint column to the 64 bits a slot stores:
/// [`fnv1a`] over the 16 packed lane pairs. Columns that differ in one lane
/// pair never fold alike; columns that differ in more collide with
/// probability 2^-64, which is what a slot a quarter the size trades away —
/// and what verify-on-sample would catch.
fn fold_col(col: &[u32; WARP]) -> u64 {
    fnv1a(
        col.chunks_exact(2)
            .map(|pair| pair[0] as u64 | (pair[1] as u64) << 32),
    )
}

#[derive(Clone, Copy, Default)]
struct TraceSlot {
    key: TraceKey,
    delta: TraceDelta,
    /// Hits served since the slot was (re)recorded; drives verify sampling.
    hits: u32,
    filled: bool,
}

/// Bytes one slot of a table occupies ([`ReplayMemo::slots`] counts them).
pub const SLOT_BYTES: usize = std::mem::size_of::<TraceSlot>();

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

/// Self-validating warp-trace replay table (see module docs). Lives in the
/// device, or with whatever outlives it and bounds the keys' validity (see
/// [`crate::Gpu::swap_replay_memo`]). A plain `Vec` that starts unallocated
/// and doubles, on misses only, while half full; hits are allocation- and
/// copy-free (keys are compared in place, deltas applied by reference).
#[derive(Default)]
pub struct ReplayMemo {
    slots: Vec<TraceSlot>,
    /// Slots holding a committed recording.
    filled: usize,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    fallbacks: u64,
    pub(crate) verify_failures: u64,
}

impl ReplayMemo {
    /// An empty table; the first miss allocates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(hits, misses, fallbacks)` since construction. A fallback is a
    /// scope that asked to replay while replay was gated off for the
    /// launch (pending fault plan or disabled in the device config).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.fallbacks)
    }

    /// `(slots holding a recording, slots allocated)`.
    pub fn slots(&self) -> (usize, usize) {
        (self.filled, self.slots.len())
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

    /// Walks the key's window — [`PROBE`] slots from its home slot — to the
    /// slot holding it (`true`) or the one a recording of it takes: the first
    /// unfilled slot (windows fill front to back, so it also ends the
    /// search), else the home slot. Exact full-key compare, in place, against
    /// the caller's words where they lie (`col` is the column's fold).
    fn probe(&self, site: &[u64; SITE_WORDS], mask: u32, col: u64) -> (usize, bool) {
        let last = self.slots.len().wrapping_sub(1);
        let home = slot_index(site, mask) & last;
        for idx in (0..PROBE.min(self.slots.len())).map(|i| (home + i) & last) {
            let (slot, key) = (&self.slots[idx], &self.slots[idx].key);
            if !slot.filled || (key.site == *site && key.mask == mask && key.col == col) {
                return (idx, slot.filled);
            }
        }
        (home, false)
    }

    pub(crate) fn lookup(
        &mut self,
        site: &[u64; SITE_WORDS],
        mask: Mask,
        col: &[u32; WARP],
    ) -> Lookup<'_> {
        let col = fold_col(col);
        let (mut idx, found) = self.probe(site, mask.0, col);
        if found {
            self.hits += 1;
            let slot = &mut self.slots[idx];
            slot.hits = slot.hits.wrapping_add(1);
            if slot.hits.is_multiple_of(VERIFY_SAMPLE) {
                return Lookup::Verify(idx);
            }
            return Lookup::Hit(&slot.delta);
        }
        self.misses += 1;
        if self.filled * 2 >= self.slots.len() && self.slots.len() < MAX_SLOTS {
            self.grow();
            idx = self.probe(site, mask.0, col).0;
        }
        let slot = &mut self.slots[idx];
        self.filled -= usize::from(slot.filled);
        slot.key = TraceKey {
            site: *site,
            col,
            mask: mask.0,
        };
        slot.filled = false; // pending until commit
        slot.hits = 0;
        Lookup::Miss(idx)
    }

    /// Doubles the table and re-homes every recording. Only a miss calls
    /// this, before it claims a slot, so no open scope holds an index.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![TraceSlot::default(); len]);
        for slot in old.into_iter().filter(|s| s.filled) {
            let idx = self.probe(&slot.key.site, slot.key.mask, slot.key.col).0;
            self.filled -= usize::from(self.slots[idx].filled);
            self.slots[idx] = slot;
        }
    }

    /// Records the interpreted deltas of a missed scope.
    pub(crate) fn commit(&mut self, idx: usize, delta: TraceDelta) {
        let slot = &mut self.slots[idx];
        slot.delta = delta;
        self.filled += usize::from(!slot.filled);
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

impl std::fmt::Debug for ReplayMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayMemo")
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("fallbacks", &self.fallbacks)
            .finish()
    }
}

/// The fixed, value-independent share of one kernel's launches: what its
/// blocks' [`crate::Block::statics`] cost — counter totals, each SM's memory
/// and ALU cycles, each marked phase's cycles in first-marked order — at one
/// shape (grid, threads per block). Its owner keeps it while that cost holds
/// still (a run: its CSR, its buffers); [`crate::Gpu::try_launch_recorded`]
/// records it at a new shape, charges it whole otherwise, and re-interprets
/// every [`VERIFY_SAMPLE`]-th use to check it. O(SMs + phases), whatever the
/// grid.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaunchRecord {
    pub(crate) shape: Option<(u32, u32)>,
    pub(crate) counters: Counters,
    /// `(memory cycles, ALU cycles)` per SM.
    pub(crate) sm: Vec<(u64, u64)>,
    pub(crate) phases: Vec<(&'static str, u64)>,
    /// Uses since it was recorded or last checked.
    pub(crate) uses: u32,
}

impl LaunchRecord {
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

/// Adds `cycles` to phase `name` of a first-marked-order phase list.
pub(crate) fn add_phase(phases: &mut Vec<(&'static str, u64)>, name: &'static str, cycles: u64) {
    match phases.iter_mut().find(|(n, _)| *n == name) {
        Some((_, c)) => *c += cycles,
        None => phases.push((name, cycles)),
    }
}

fn slot_index(site: &[u64; SITE_WORDS], mask: u32) -> usize {
    // Over the site words and the mask. The column fold is deliberately NOT
    // hashed: the in-tree kernels make their keys distinct through the site
    // words (stage tag + loop indices), so it would add no distribution. It
    // still participates in the exact key compare — a column-only difference
    // is a compare miss, not a false hit.
    fnv1a(site.iter().copied().chain([mask as u64])) as usize
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
    fn slot_stays_small_enough_for_one_key_per_block() {
        // A prepared layout keeps a stage key per shard, one shard a thread
        // block — thousands of slots — so the slot's size is the table's footprint: 96 bytes of
        // deltas, 44 of key, 5 of state.
        let bytes = std::mem::size_of::<TraceSlot>();
        assert!(bytes <= 152, "TraceSlot grew to {bytes} bytes");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(100))]

        /// What the fold trades away, looked for and not found: 100 cases of
        /// 1,000 columns each — random ones and near-copies of them (one to
        /// three lanes nudged, the way two index columns of one graph
        /// differ) — and whenever two fold alike they are the same column.
        #[test]
        fn columns_with_equal_fold_are_equal(seed in proptest::prelude::any::<u64>()) {
            let mut rng = seed | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut seen = std::collections::HashMap::new();
            let mut col = [0u32; WARP];
            for draw in 0..1000 {
                if draw % 2 == 0 {
                    col.iter_mut().for_each(|c| *c = next() as u32);
                } else {
                    for _ in 0..1 + next() % 3 {
                        let lane = (next() % WARP as u64) as usize;
                        col[lane] = col[lane].wrapping_add(1 + (next() % 4) as u32);
                    }
                }
                let other = *seen.entry(fold_col(&col)).or_insert(col);
                proptest::prop_assert_eq!(other, col, "two columns share a fold");
            }
        }
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

    fn site_of(k: u64) -> [u64; SITE_WORDS] {
        [0xABCD, k, k + 1, 0]
    }

    #[test]
    fn grows_instead_of_thrashing() {
        // 3 scopes x 4,096 shards, and one key for each of 8,192 blocks:
        // every key recorded once must hit on every later pass — linear probing in a table at most half full leaves
        // no pair of keys fighting over a slot.
        for (keys, allocated) in [(3 * 4096, 32768), (8192, 16384)] {
            let mut m = ReplayMemo::new();
            assert_eq!(m.slots(), (0, 0), "no allocation before the first miss");
            let col = [0u32; WARP];
            for pass in 0..3 {
                for k in 0..keys {
                    match m.lookup(&site_of(k), Mask::FULL, &col) {
                        Lookup::Miss(i) => {
                            assert_eq!(pass, 0, "key {k} of {keys} missed on pass {pass}");
                            m.commit(i, delta(k));
                        }
                        Lookup::Hit(d) => assert_eq!(*d, delta(k)),
                        Lookup::Verify(_) => panic!("two hits cannot reach the sample"),
                    }
                }
            }
            assert_eq!(m.stats(), (2 * keys, keys, 0));
            assert_eq!(m.slots(), (keys as usize, allocated));
        }
    }

    #[test]
    fn churn_past_the_cap_overwrites_and_stays_exact() {
        let mut m = ReplayMemo::new();
        let col = [0u32; WARP];
        for k in 0..3 * MAX_SLOTS as u64 {
            if let Lookup::Miss(i) = m.lookup(&site_of(k), Mask::FULL, &col) {
                m.commit(i, delta(k));
            }
        }
        let (filled, len) = m.slots();
        assert_eq!(len, MAX_SLOTS);
        assert!(filled <= len);
        // Whatever survived still maps each key to its own deltas.
        for k in 0..3 * MAX_SLOTS as u64 {
            match m.lookup(&site_of(k), Mask::FULL, &col) {
                Lookup::Hit(d) => assert_eq!(*d, delta(k)),
                Lookup::Miss(i) => m.commit(i, delta(k)),
                Lookup::Verify(i) => m.verify(i, delta(k)),
            }
        }
        assert_eq!(m.verify_failures(), 0);
    }
}
