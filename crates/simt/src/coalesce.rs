//! Memory-coalescing math: mapping a warp's per-lane accesses onto aligned
//! memory segments and sectors.
//!
//! The GPU memory controller services a warp's global access with one
//! transaction per distinct aligned segment touched by its active lanes.
//! Fully coalesced accesses (32 consecutive 4-byte words) need a single
//! 128-byte transaction; a random gather needs up to 32. This module is the
//! arithmetic core behind the simulator's `gld`/`gst` efficiency counters.

use crate::counters::{Mask, WARP};

/// Result of coalescing one warp-wide memory operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coalesced {
    /// Number of distinct aligned segments (transactions).
    pub segments: u32,
    /// Number of distinct aligned sectors (DRAM traffic granularity).
    pub sectors: u32,
    /// Bytes actually requested by active lanes.
    pub requested_bytes: u32,
}

/// Coalesces the byte accesses `(addr, len)` of the active lanes.
///
/// `addrs[i]` is `Some((byte_address, access_bytes))` for active lanes.
/// `segment_bytes` and `sector_bytes` must be powers of two.
pub fn coalesce(
    addrs: &[Option<(u64, u32)>; WARP],
    segment_bytes: u32,
    sector_bytes: u32,
) -> Coalesced {
    debug_assert!(segment_bytes.is_power_of_two() && sector_bytes.is_power_of_two());
    let mut segs = [0u64; WARP * 2]; // an access may straddle two segments
    let mut secs = [0u64; WARP * 4];
    let mut nsegs = 0;
    let mut nsecs = 0;
    let mut requested = 0u32;
    for a in addrs.iter().flatten() {
        let (addr, len) = *a;
        debug_assert!(len > 0);
        requested += len;
        let first_seg = addr >> segment_bytes.trailing_zeros();
        let last_seg = (addr + len as u64 - 1) >> segment_bytes.trailing_zeros();
        for s in first_seg..=last_seg {
            segs[nsegs] = s;
            nsegs += 1;
        }
        let first_sec = addr >> sector_bytes.trailing_zeros();
        let last_sec = (addr + len as u64 - 1) >> sector_bytes.trailing_zeros();
        for s in first_sec..=last_sec {
            secs[nsecs] = s;
            nsecs += 1;
        }
    }
    let segs = &mut segs[..nsegs];
    segs.sort_unstable();
    let segments = count_distinct(segs);
    let secs = &mut secs[..nsecs];
    secs.sort_unstable();
    let sectors = count_distinct(secs);
    Coalesced {
        segments,
        sectors,
        requested_bytes: requested,
    }
}

fn count_distinct(sorted: &[u64]) -> u32 {
    let mut n = 0;
    let mut prev = None;
    for &x in sorted {
        if Some(x) != prev {
            n += 1;
            prev = Some(x);
        }
    }
    n
}

/// Ceiling on either scratch bitset, in 64-bit words: 16 MiB, which with
/// 32-byte sectors spans 4 GiB of device addresses — more than any preset
/// holds. A stray address past it takes the sort-based reference instead of
/// growing the scratch; below it a bitset grows to the next power of two
/// over the addresses actually touched, about 1/256 of the device memory
/// in use.
const SCRATCH_CAP_WORDS: u64 = 1 << 21;

/// The device's scattered-access analysis: distinct sectors and segments of
/// a global access, bank replays and same-element collisions of a shared
/// one, each in O(active lanes) with no sort, no hash and no lookup table.
///
/// Every active lane sets its sector (or bank word) bit in a scratch bitset
/// indexed by absolute address; a bit that was clear is a new sector, and a
/// sector whose *aligned group* of `segment / sector` bits — always inside
/// one word — was clear is a new segment. A second pass over the same lanes
/// zeroes the words it touched, so the scratch is all-zero between calls.
/// The bitsets are plain `Vec<u64>`s grown on first use (steady-state
/// launches allocate nothing). That is the *fast form*: power-of-two
/// geometry with at most 64 sectors per segment and 32 banks, accesses no
/// wider than a sector, addresses below the cap. Anything else falls back
/// to the sort-based [`coalesce`] / [`bank_conflicts`], the reference the
/// fast form is property-tested against
/// (`tests/access_analysis_equivalence.rs`).
///
/// The name is historical: until PR 13 this type fronted the reference with
/// two 8,192-slot tables keyed on the full lane pattern, which hit 4% of
/// power-law gathers and cost more than the analysis they saved. With no
/// table, [`CoalesceMemo::hit_stats`] reports 0 hits and counts analyses
/// performed as misses, keeping the `coalesce_*` statistics and the ledger's
/// `simt.coalesce_memo_*` probes alive until a benchmark PR renames them.
pub struct CoalesceMemo {
    segment_bytes: u32,
    sector_bytes: u32,
    banks: u32,
    bank_width: u32,
    global_fast: bool,
    shared_fast: bool,
    sector_bits: Vec<u64>,
    word_bits: Vec<u64>,
    analyses: u64,
}

impl CoalesceMemo {
    /// Builds the analysis for a device with the given coalescing segment
    /// and sector sizes and shared-memory bank geometry.
    pub fn new(segment_bytes: u32, sector_bytes: u32, banks: u32, bank_width: u32) -> Self {
        CoalesceMemo {
            segment_bytes,
            sector_bytes,
            banks,
            bank_width,
            global_fast: segment_bytes.is_power_of_two()
                && sector_bytes.is_power_of_two()
                && sector_bytes <= segment_bytes
                && segment_bytes / sector_bytes <= u64::BITS,
            shared_fast: banks.is_power_of_two()
                && banks <= WARP as u32
                && bank_width.is_power_of_two(),
            sector_bits: Vec::new(),
            word_bits: Vec::new(),
            analyses: 0,
        }
    }

    /// `(0, analyses performed)`: there is no table to hit (see the type
    /// docs), so every global or shared analysis counts as a miss.
    pub fn hit_stats(&self) -> (u64, u64) {
        (0, self.analyses)
    }

    /// True when both scratch bitsets are all-zero, as they must be between
    /// any two calls.
    pub fn scratch_is_clear(&self) -> bool {
        let mut words = self.sector_bits.iter().chain(&self.word_bits);
        words.all(|&w| w == 0)
    }

    /// [`coalesce`] for this device's geometry: a thin adapter from the
    /// `Option`-array form onto [`CoalesceMemo::global`]. Lanes of mixed
    /// widths go straight to the reference.
    pub fn coalesce(&mut self, addrs: &[Option<(u64, u32)>; WARP]) -> Coalesced {
        let mut lens = addrs.iter().flatten().map(|a| a.1);
        let len = lens.next().unwrap_or(0);
        if lens.any(|l| l != len) {
            self.analyses += 1;
            return coalesce(addrs, self.segment_bytes, self.sector_bytes);
        }
        let mask = Mask::from_fn(|l| addrs[l].is_some());
        self.global(mask, &addrs.map(|a| a.map_or(0, |a| a.0)), len)
    }

    /// Segments, sectors and requested bytes of a global access in which
    /// every active lane `l` touches `len` bytes at `addrs[l]`. Bit-identical
    /// to [`coalesce`] over the same lanes. Inactive lanes never reach the
    /// result, but leave them 0: the OR of all 32 entries (one vectorized
    /// reduction, no masked max) is what bounds the scratch.
    pub fn global(&mut self, mask: Mask, addrs: &[u64; WARP], len: u32) -> Coalesced {
        self.analyses += 1;
        let span = (len as u64).saturating_sub(1);
        let shift = self.sector_bytes.trailing_zeros();
        let top = addrs.iter().fold(0, |all, a| all | a).saturating_add(span);
        let fast = self.global_fast && len <= self.sector_bytes;
        if !(fast && reserve(&mut self.sector_bits, top >> shift)) {
            let mut lanes = [None; WARP];
            for l in mask.iter() {
                lanes[l] = Some((addrs[l], len));
            }
            return coalesce(&lanes, self.segment_bytes, self.sector_bytes);
        }
        // No wider than a sector: a lane touches `first` and at most the next.
        let ends = |l: usize| (addrs[l] >> shift, (addrs[l] + span) >> shift);
        let per_segment = self.segment_bytes / self.sector_bytes;
        let group = u64::MAX >> (u64::BITS - per_segment);
        let bits = &mut self.sector_bits[..];
        let (mut segments, mut sectors) = (0u32, 0u32);
        // Branch-free on the data: an empty group implies a clear sector bit.
        let mut mark = |s: u64| {
            let (word, pos) = (&mut bits[(s >> 6) as usize], s as u32 & 63);
            sectors += u32::from(*word & (1 << pos) == 0);
            segments += u32::from(*word & (group << (pos & !(per_segment - 1))) == 0);
            *word |= 1 << pos;
        };
        for l in mask.iter() {
            let (first, last) = ends(l);
            mark(first);
            if last != first {
                mark(last);
            }
        }
        for l in mask.iter() {
            let (first, last) = ends(l);
            bits[(first >> 6) as usize] = 0;
            bits[(last >> 6) as usize] = 0;
        }
        Coalesced {
            segments,
            sectors,
            requested_bytes: mask.count() * len,
        }
    }

    /// Bank replays of a shared access at the active lanes' byte addresses.
    /// Bit-identical to [`bank_conflicts`] over the same lanes.
    pub fn shared(&mut self, mask: Mask, addrs: &[u64; WARP]) -> u32 {
        self.bank_counts(mask, addrs).0
    }

    /// `(bank replays, same-element collisions)` of a shared atomic whose
    /// active lanes update `elem`-byte elements at the element-aligned
    /// `addrs`: every lane that targets an element an earlier lane already
    /// hit is one collision. Elements at least a bank word wide have
    /// distinct first words, so the bank pass has already counted the
    /// distinct targets; narrower ones take a pairwise scan.
    pub fn atomic(&mut self, mask: Mask, addrs: &[u64; WARP], elem: u32) -> (u32, u32) {
        let (replays, words) = self.bank_counts(mask, addrs);
        let distinct = match words {
            Some(words) if elem >= self.bank_width => words,
            _ => {
                let active = || mask.iter().map(|l| addrs[l]);
                let repeats = |(n, a): (usize, u64)| active().take(n).any(|b| b == a);
                active()
                    .enumerate()
                    .filter(|&first| !repeats(first))
                    .count() as u32
            }
        };
        (replays, mask.count() - distinct)
    }

    /// `(replays, distinct bank words)`; the words only in the fast form.
    fn bank_counts(&mut self, mask: Mask, addrs: &[u64; WARP]) -> (u32, Option<u32>) {
        self.analyses += 1;
        let shift = self.bank_width.trailing_zeros();
        let top = addrs.iter().fold(0, |all, a| all | a);
        if !(self.shared_fast && reserve(&mut self.word_bits, top >> shift)) {
            let mut lanes = [None; WARP];
            for l in mask.iter() {
                lanes[l] = Some(addrs[l]);
            }
            return (bank_conflicts(&lanes, self.banks, self.bank_width), None);
        }
        let mut per_bank = [0u32; WARP];
        let (mut worst, mut words) = (0u32, 0u32);
        for word in mask.iter().map(|l| addrs[l] >> shift) {
            let slot = &mut self.word_bits[(word >> 6) as usize];
            let fresh = u32::from(*slot & (1 << (word & 63)) == 0);
            *slot |= 1 << (word & 63);
            words += fresh;
            let hits = &mut per_bank[(word & (self.banks as u64 - 1)) as usize];
            *hits += fresh;
            worst = worst.max(*hits);
        }
        for l in mask.iter() {
            self.word_bits[(addrs[l] >> shift >> 6) as usize] = 0;
        }
        (worst.saturating_sub(1), Some(words))
    }
}

/// Grows `bits` (to a power of two) until bit `top` is addressable; false
/// when that would pass [`SCRATCH_CAP_WORDS`].
fn reserve(bits: &mut Vec<u64>, top: u64) -> bool {
    let need = (top >> 6) + 1;
    if need > bits.len() as u64 && need <= SCRATCH_CAP_WORDS {
        bits.resize((need as usize).next_power_of_two(), 0);
    }
    need <= bits.len() as u64
}

/// Computes the shared-memory conflict degree of a warp access: the maximum
/// number of active lanes hitting the same bank *at different addresses*
/// (same-address lanes broadcast and do not conflict). The returned value is
/// the number of replays, i.e. `max_per_bank_distinct_addresses - 1`
/// (0 for a conflict-free access).
pub fn bank_conflicts(addrs: &[Option<u64>; WARP], banks: u32, bank_width: u32) -> u32 {
    // For each bank, collect the distinct word addresses accessed.
    let mut words = [(u64::MAX, 0u32); WARP];
    let mut n = 0;
    for a in addrs.iter().flatten() {
        let word = a / bank_width as u64;
        let bank = (word % banks as u64) as u32;
        words[n] = (word, bank);
        n += 1;
    }
    let words = &mut words[..n];
    words.sort_unstable();
    let mut per_bank = [0u32; 64];
    let mut prev_word = u64::MAX;
    for &(word, bank) in words.iter() {
        if word != prev_word {
            per_bank[bank as usize] += 1;
            prev_word = word;
        }
    }
    per_bank
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .saturating_sub(1)
}

/// Closed-form [`coalesce`] for the *sequential* lane pattern of the SoA
/// run operations: active lane `l` accesses `base_addr + l * elem` for
/// `elem` bytes. Bit-identical to building the per-lane address array and
/// calling [`coalesce`] (the property tests below pin this), but O(active
/// lanes) worst case and O(1) for contiguous-run masks — no address array,
/// no sort, no hash.
///
/// `base_addr` is the lane-0 address, which may be a *wrapped*
/// two's-complement value when lane 0 is inactive and its virtual index is
/// negative (a run op whose base precedes the buffer); every active lane's
/// `base_addr + l * elem` must be a genuine in-buffer address.
pub fn coalesce_seq(
    base_addr: u64,
    elem: u32,
    mask: Mask,
    segment_bytes: u32,
    sector_bytes: u32,
) -> Coalesced {
    debug_assert!(segment_bytes.is_power_of_two() && sector_bytes.is_power_of_two());
    if mask.is_empty() {
        return Coalesced::default();
    }
    let ks = segment_bytes.trailing_zeros();
    let kc = sector_bytes.trailing_zeros();
    let requested = mask.count() * elem;
    if let Some((lo, len)) = mask.as_run() {
        // One contiguous byte interval: the distinct aligned blocks it
        // touches are exactly `last_block - first_block + 1`.
        let a0 = base_addr.wrapping_add(lo as u64 * elem as u64);
        let a1 = a0 + len as u64 * elem as u64 - 1;
        return Coalesced {
            segments: ((a1 >> ks) - (a0 >> ks) + 1) as u32,
            sectors: ((a1 >> kc) - (a0 >> kc) + 1) as u32,
            requested_bytes: requested,
        };
    }
    // Gapped mask: lane addresses are still ascending, so distinct blocks
    // can be counted in one pass without sorting.
    let mut segments = 0u32;
    let mut sectors = 0u32;
    let mut prev_seg = u64::MAX;
    let mut prev_sec = u64::MAX;
    for l in mask.iter() {
        let a0 = base_addr.wrapping_add(l as u64 * elem as u64);
        let a1 = a0 + elem as u64 - 1;
        let (s0, s1) = (a0 >> ks, a1 >> ks);
        let new_from = if prev_seg == u64::MAX {
            s0
        } else {
            (prev_seg + 1).max(s0)
        };
        if s1 >= new_from {
            segments += (s1 - new_from + 1) as u32;
        }
        prev_seg = s1;
        let (c0, c1) = (a0 >> kc, a1 >> kc);
        let new_from = if prev_sec == u64::MAX {
            c0
        } else {
            (prev_sec + 1).max(c0)
        };
        if c1 >= new_from {
            sectors += (c1 - new_from + 1) as u32;
        }
        prev_sec = c1;
    }
    Coalesced {
        segments,
        sectors,
        requested_bytes: requested,
    }
}

/// Closed-form [`bank_conflicts`] for the sequential shared pattern of the
/// SoA run operations (active lane `l` at byte address `base_addr + l *
/// elem`) on the standard 32-bank / 4-byte-wide geometry. Returns `None`
/// when the geometry or element size is outside the closed form — callers
/// fall back to the generic path.
///
/// The conflict model keys each lane by the *first* 4-byte word of its
/// access (`addr / bank_width`), matching [`bank_conflicts`]:
/// * 4-byte elements: lane words are consecutive and distinct, so at most
///   one distinct word lands in each of 32 consecutive banks — 0 replays.
/// * 8-byte elements: lane words are spaced by two, so lanes `l` and
///   `l + 16` share a bank at distinct words — 1 replay iff such a pair is
///   active.
pub fn bank_conflicts_seq(
    base_addr: u64,
    elem: u32,
    mask: Mask,
    banks: u32,
    bank_width: u32,
) -> Option<u32> {
    if banks != 32 || bank_width != 4 || !base_addr.is_multiple_of(4) {
        return None;
    }
    match elem {
        4 => Some(0),
        8 => Some(u32::from(mask.0 & (mask.0 >> 16) != 0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(addrs: impl IntoIterator<Item = (u64, u32)>) -> [Option<(u64, u32)>; WARP] {
        let mut out = [None; WARP];
        for (i, a) in addrs.into_iter().enumerate() {
            out[i] = Some(a);
        }
        out
    }

    #[test]
    fn fully_coalesced_single_segment() {
        // 32 consecutive 4-byte words starting at an aligned address.
        let a = lanes((0..32).map(|i| (i * 4, 4u32)));
        let c = coalesce(&a, 128, 32);
        assert_eq!(c.segments, 1);
        assert_eq!(c.sectors, 4);
        assert_eq!(c.requested_bytes, 128);
    }

    #[test]
    fn misaligned_costs_one_extra_segment() {
        let a = lanes((0..32).map(|i| (64 + i * 4, 4u32)));
        let c = coalesce(&a, 128, 32);
        assert_eq!(c.segments, 2);
    }

    #[test]
    fn random_gather_needs_many_segments() {
        // Strided by 128 bytes: every lane its own segment.
        let a = lanes((0..32).map(|i| (i * 128, 4u32)));
        let c = coalesce(&a, 128, 32);
        assert_eq!(c.segments, 32);
        assert_eq!(c.sectors, 32);
        assert_eq!(c.requested_bytes, 128);
    }

    #[test]
    fn duplicate_addresses_collapse() {
        let a = lanes((0..32).map(|_| (256, 4u32)));
        let c = coalesce(&a, 128, 32);
        assert_eq!(c.segments, 1);
        assert_eq!(c.sectors, 1);
        assert_eq!(c.requested_bytes, 128);
    }

    #[test]
    fn partial_warp_counts_only_active() {
        let a = lanes((0..4).map(|i| (i * 4, 4u32)));
        let c = coalesce(&a, 128, 32);
        assert_eq!(c.segments, 1);
        assert_eq!(c.requested_bytes, 16);
    }

    #[test]
    fn wide_access_straddles_segments() {
        // One 8-byte access crossing a 128-byte boundary.
        let a = lanes([(124, 8u32)]);
        let c = coalesce(&a, 128, 32);
        assert_eq!(c.segments, 2);
        assert_eq!(c.sectors, 2);
    }

    #[test]
    fn empty_mask_is_free() {
        let a = [None; WARP];
        let c = coalesce(&a, 128, 32);
        assert_eq!(c, Coalesced::default());
    }

    fn baddrs(addrs: impl IntoIterator<Item = u64>) -> [Option<u64>; WARP] {
        let mut out = [None; WARP];
        for (i, a) in addrs.into_iter().enumerate() {
            out[i] = Some(a);
        }
        out
    }

    #[test]
    fn conflict_free_consecutive_words() {
        let a = baddrs((0..32).map(|i| i * 4));
        assert_eq!(bank_conflicts(&a, 32, 4), 0);
    }

    #[test]
    fn same_address_broadcasts() {
        let a = baddrs((0..32).map(|_| 64));
        assert_eq!(bank_conflicts(&a, 32, 4), 0);
    }

    #[test]
    fn stride_two_creates_two_way_conflict() {
        // Words 0, 2, 4, ..., 62: banks 0, 2, ..., 30, 0, 2, ... => 2 lanes
        // per used bank at distinct addresses => 1 replay.
        let a = baddrs((0..32).map(|i| i * 8));
        assert_eq!(bank_conflicts(&a, 32, 4), 1);
    }

    #[test]
    fn stride_32_words_serializes_fully() {
        let a = baddrs((0..32).map(|i| i * 32 * 4));
        assert_eq!(bank_conflicts(&a, 32, 4), 31);
    }

    #[test]
    fn memo_replays_are_identical_to_recomputes() {
        let mut memo = CoalesceMemo::new(128, 32, 32, 4);
        let patterns: Vec<[Option<(u64, u32)>; WARP]> = vec![
            lanes((0..32).map(|i| (i * 4, 4u32))),
            lanes((0..32).map(|i| (64 + i * 4, 4u32))),
            lanes((0..32).map(|i| (i * 128, 4u32))),
            lanes((0..7).map(|i| (i * 8, 8u32))),
        ];
        for p in &patterns {
            let first = memo.coalesce(p);
            let again = memo.coalesce(p);
            assert_eq!(first, again);
            assert_eq!(first, coalesce(p, 128, 32));
            assert!(memo.scratch_is_clear());
        }
        // No table: nothing hits, every analysis is counted.
        assert_eq!(memo.hit_stats(), (0, 8));
    }

    #[test]
    fn memo_bank_conflicts_match_direct() {
        let mut memo = CoalesceMemo::new(128, 32, 32, 4);
        let patterns: Vec<[Option<u64>; WARP]> = vec![
            baddrs((0..32).map(|i| i * 4)),
            baddrs((0..32).map(|_| 64)),
            baddrs((0..32).map(|i| i * 32 * 4)),
        ];
        for p in &patterns {
            let lanes = p.map(|a| a.unwrap_or(0));
            let replays = memo.shared(Mask::FULL, &lanes);
            assert_eq!(replays, bank_conflicts(p, 32, 4));
            assert_eq!(memo.atomic(Mask::FULL, &lanes, 4).0, replays);
            assert!(memo.scratch_is_clear());
        }
        // 32 lanes on one element: 31 collisions, whatever its width.
        let same = [64u64; WARP];
        assert_eq!(memo.atomic(Mask::FULL, &same, 4), (0, 31));
        assert_eq!(memo.atomic(Mask::FULL, &same, 1), (0, 31));
        // Two 2-byte elements of one bank word are distinct targets.
        let mut halves = [0u64; WARP];
        halves[1] = 2;
        assert_eq!(memo.atomic(Mask::first(2), &halves, 2), (0, 0));
    }

    #[test]
    fn memo_distinguishes_near_identical_patterns() {
        let mut memo = CoalesceMemo::new(128, 32, 32, 4);
        let a = lanes((0..32).map(|i| (i * 4, 4u32)));
        let mut b = a;
        b[31] = Some((4096, 4));
        let ca = memo.coalesce(&a);
        let cb = memo.coalesce(&b);
        assert_eq!(ca, coalesce(&a, 128, 32));
        assert_eq!(cb, coalesce(&b, 128, 32));
        assert_ne!(ca.segments, cb.segments);
    }

    #[test]
    fn off_form_inputs_take_the_reference() {
        // 128 sectors per segment and 24 banks are outside the fast form; so
        // is an address past the scratch cap. Both must still equal the sort-based path and
        // leave no scratch behind.
        let a = lanes((0..32).map(|i| (i * 52, 4u32)));
        let mut odd = CoalesceMemo::new(4096, 32, 24, 4);
        assert_eq!(odd.coalesce(&a), coalesce(&a, 4096, 32));
        let words = [0u64, 96, 192, 4, 100, 8].map(Some);
        let mut w = [None; WARP];
        w[..6].copy_from_slice(&words);
        let flat = w.map(|a| a.unwrap_or(0));
        assert_eq!(odd.shared(Mask::first(6), &flat), bank_conflicts(&w, 24, 4));
        let far = lanes((0..32).map(|i| ((1 << 40) + i * 40, 8u32)));
        let mut memo = CoalesceMemo::new(128, 32, 32, 4);
        assert_eq!(memo.coalesce(&far), coalesce(&far, 128, 32));
        assert!(odd.scratch_is_clear() && memo.scratch_is_clear());
        assert!(memo.sector_bits.is_empty(), "a capped access must not grow");
        // Garbage in an inactive lane only widens the bound, never the result.
        let mut stray = [0u64; WARP];
        stray[0] = 256;
        stray[9] = u64::MAX;
        let one = lanes([(256, 4u32)]);
        assert_eq!(
            memo.global(Mask::first(1), &stray, 4),
            coalesce(&one, 128, 32)
        );
        assert_eq!(memo.shared(Mask::first(1), &stray), 0);
        assert!(memo.sector_bits.is_empty() && memo.word_bits.is_empty());
    }

    /// Deterministic xorshift so the property sweeps need no external crate.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn coalesce_seq_is_bit_identical_to_generic() {
        let mut rng = 0x5eed_cafe_u64;
        let mut masks: Vec<Mask> = vec![Mask::FULL, Mask::first(1), Mask::first(31)];
        for lo in [0usize, 3, 16, 29] {
            for len in [1usize, 2, 3] {
                masks.push(Mask::run(lo, (len).min(WARP - lo)));
            }
        }
        for _ in 0..64 {
            masks.push(Mask((xorshift(&mut rng) as u32) | 1));
        }
        for &elem in &[1u32, 2, 4, 8] {
            for &base in &[0u64, 4, 60, 124, 128, 256, 1000, 4093, 1 << 20] {
                for &m in &masks {
                    let mut addrs = [None; WARP];
                    for l in m.iter() {
                        addrs[l] = Some((base + l as u64 * elem as u64, elem));
                    }
                    let want = coalesce(&addrs, 128, 32);
                    let got = coalesce_seq(base, elem, m, 128, 32);
                    assert_eq!(got, want, "elem {elem} base {base} mask {:#x}", m.0);
                }
            }
        }
    }

    #[test]
    fn coalesce_seq_empty_mask() {
        assert_eq!(
            coalesce_seq(128, 4, Mask::NONE, 128, 32),
            Coalesced::default()
        );
    }

    #[test]
    fn bank_conflicts_seq_is_bit_identical_to_generic() {
        let mut rng = 0xfeed_f00d_u64;
        let mut masks: Vec<Mask> = vec![Mask::FULL, Mask::NONE, Mask::first(5), Mask::run(9, 20)];
        for _ in 0..64 {
            masks.push(Mask(xorshift(&mut rng) as u32));
        }
        for &elem in &[4u32, 8] {
            for &base in &[0u64, 4, 8, 12, 100, 256, 1028] {
                for &m in &masks {
                    let mut addrs = [None; WARP];
                    for l in m.iter() {
                        addrs[l] = Some(base + l as u64 * elem as u64);
                    }
                    let want = bank_conflicts(&addrs, 32, 4);
                    let got = bank_conflicts_seq(base, elem, m, 32, 4)
                        .expect("standard geometry must take the closed form");
                    assert_eq!(got, want, "elem {elem} base {base} mask {:#x}", m.0);
                }
            }
        }
        // Off-geometry inputs stay on the generic path.
        assert_eq!(bank_conflicts_seq(0, 4, Mask::FULL, 16, 4), None);
        assert_eq!(bank_conflicts_seq(0, 4, Mask::FULL, 32, 8), None);
        assert_eq!(bank_conflicts_seq(2, 4, Mask::FULL, 32, 4), None);
        assert_eq!(bank_conflicts_seq(0, 2, Mask::FULL, 32, 4), None);
    }

    #[test]
    fn memo_bypasses_unpackable_lanes() {
        // 16-byte accesses run the bitset pass like any other; accesses
        // wider than a sector and lanes of mixed widths take the reference.
        let mut memo = CoalesceMemo::new(128, 32, 32, 4);
        let a = lanes((0..8).map(|i| (i * 16, 16u32)));
        let c1 = memo.coalesce(&a);
        let c2 = memo.coalesce(&a);
        assert_eq!(c1, coalesce(&a, 128, 32));
        assert_eq!(c1, c2);
        let wide = lanes((0..8).map(|i| (100 + i * 72, 40u32)));
        assert_eq!(memo.coalesce(&wide), coalesce(&wide, 128, 32));
        let mixed = lanes([(0, 4u32), (30, 8), (200, 1)]);
        assert_eq!(memo.coalesce(&mixed), coalesce(&mixed, 128, 32));
        assert_eq!(memo.hit_stats(), (0, 4));
        assert!(memo.scratch_is_clear());
    }
}
