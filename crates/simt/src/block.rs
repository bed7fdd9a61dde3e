//! Thread-block execution context: the kernel-facing API.
//!
//! A block program is a Rust closure receiving `&mut Block`. It allocates
//! shared arrays and then issues *warp-wide operations*; each operation
//! corresponds to one warp instruction on hardware and is accounted for in
//! the kernel's counters:
//!
//! * [`Block::gload`] / [`Block::gstore`] — global memory with coalescing,
//! * [`Block::sload`] / [`Block::sstore`] / [`Block::supdate`] — shared
//!   memory with bank conflicts and atomic serialization,
//! * [`Block::exec`] — pure-compute instructions (for divergence metrics),
//! * [`Block::sync`] — `__syncthreads()`.
//!
//! Lane-indexing convention: every operation takes a [`Mask`] of active
//! lanes plus per-lane closures (`|lane| index` / `|lane| value`), and
//! returns a `[T; WARP]` with inactive lanes left at `T::default()`.
//!
//! # Data-oriented fast paths
//!
//! Two layers sit on top of the per-lane closure operations (see
//! `DESIGN.md` §4.14):
//!
//! * **SoA run operations** ([`Block::gload_run`], [`Block::gstore_run`],
//!   [`Block::sload_run`], [`Block::sstore_run`]) express the dominant
//!   stride-1 pattern — active lane `l` touches element `base + l` — as a
//!   slice copy over contiguous per-field lane columns plus closed-form
//!   coalescing/bank math ([`crate::coalesce::coalesce_seq`]), with all
//!   counter updates hoisted into one per-warp batch. Accounting is
//!   bit-identical to the closure path.
//! * **Launch records** ([`Block::statics`], [`Block::share`]) hold the
//!   *accounting* of ops whose cost the launch's shape fixes (statics) or
//!   that of each block's value-gated ops (shares); a launch that charges its
//!   [`crate::LaunchRecord`] leaves those bodies out, and the kernel moves its live
//!   data through the buffers' host views itself.
//!
//! Underneath, the closure operations fill a `[u64; WARP]` of lane byte
//! addresses under the mask and hand it to the device's O(active-lanes)
//! analysis core ([`CoalesceMemo`]).

use crate::coalesce::{bank_conflicts_seq, coalesce_seq, CoalesceMemo};
use crate::config::DeviceConfig;
use crate::counters::{Counters, Mask, WARP};
use crate::mem::DevVec;
use crate::pod::Pod;
use crate::replay::{Fixed, ReplayTally, Share, TraceDelta};
use crate::shared::SharedVec;

/// Per-block execution context handed to kernel closures.
pub struct Block<'cfg> {
    id: u32,
    threads: u32,
    cfg: &'cfg DeviceConfig,
    /// Device-owned scattered-access analysis (coalescing, bank conflicts,
    /// atomic collisions) and its scratch bitsets.
    memo: &'cfg mut CoalesceMemo,
    /// The device's record of what launches did with their records.
    replay: &'cfg mut ReplayTally,
    /// A recorded launch with records gated off (a fault plan could still
    /// fire, or replay is disabled): every share body runs as a fallback.
    pub(crate) gated: bool,
    /// Whether [`Block::statics`] leaves its body out (the launch charges a
    /// record), and the fixed share it tallies the body into (one recording).
    pub(crate) charged: bool,
    pub(crate) tally: Option<&'cfg mut Fixed>,
    /// The launch record's per-block shares, when it has one and is not gated.
    pub(crate) shares: Option<&'cfg mut Vec<Share>>,
    /// The phase marked last, whether or not the tracer records marks.
    phase: Option<&'static str>,
    shared_cursor: u64,
    pub(crate) counters: Counters,
    /// Memory-pipe (LSU) issue slots consumed: one per memory warp
    /// instruction plus replays. The LSU is 32 lanes wide per SM, so a
    /// sub-warp memory operation still burns a whole slot — this is where
    /// G-Shards' small-window underutilization costs show up.
    pub(crate) mem_cycles: u64,
    /// ALU-pipe issue slots consumed; the SM's schedulers retire these
    /// `issue_width` per cycle.
    pub(crate) alu_cycles: u64,
    /// When true, [`Block::phase`] records markers; set by the device from
    /// its tracer so the disabled-tracing path never allocates.
    pub(crate) trace_phases: bool,
    /// `(phase name, cycles consumed when the phase began)` markers; the
    /// device turns consecutive markers into kernel phase sub-spans.
    pub(crate) phase_marks: Vec<(&'static str, u64)>,
}

impl<'cfg> Block<'cfg> {
    pub(crate) fn new(
        id: u32,
        threads: u32,
        cfg: &'cfg DeviceConfig,
        memo: &'cfg mut CoalesceMemo,
        replay: &'cfg mut ReplayTally,
    ) -> Self {
        assert!(threads > 0, "a block has at least one thread");
        cfg.check_block(threads, 0)
            .unwrap_or_else(|e| panic!("{e}"));
        Block {
            id,
            threads,
            cfg,
            memo,
            replay,
            gated: false,
            charged: false,
            tally: None,
            shares: None,
            phase: None,
            shared_cursor: 0,
            counters: Counters::default(),
            mem_cycles: 0,
            alu_cycles: 0,
            trace_phases: false,
            phase_marks: Vec::new(),
        }
    }

    /// This block's index within the grid (`blockIdx.x`).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Threads in this block (`blockDim.x`).
    #[inline]
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Number of (physical) warps in this block.
    #[inline]
    pub fn num_warps(&self) -> u32 {
        self.threads.div_ceil(WARP as u32)
    }

    /// Shared memory consumed so far by this block, in bytes.
    #[inline]
    pub fn shared_used(&self) -> u64 {
        self.shared_cursor
    }

    /// Allocates a zero-initialized `__shared__` array of `len` elements.
    ///
    /// # Panics
    /// Panics if the block's total shared usage would exceed the per-SM
    /// shared memory (a kernel that over-subscribes shared memory fails to
    /// launch on real hardware); the engines' pre-flights refuse such a
    /// block first, through [`DeviceConfig::check_block`].
    pub fn shared_alloc<T: Pod>(&mut self, len: usize) -> SharedVec<T> {
        let base = self.shared_cursor;
        self.shared_cursor += len as u64 * T::SIZE as u64;
        let fits = self.cfg.check_block(self.threads, self.shared_cursor);
        fits.unwrap_or_else(|e| panic!("{e}"));
        SharedVec::recycled(len, base)
    }

    fn issue_mem(&mut self, mask: Mask, extra_replays: u64) {
        self.counters.warp_instructions += 1 + extra_replays;
        self.counters.active_lane_sum += mask.count() as u64 * (1 + extra_replays);
        self.mem_cycles += 1 + extra_replays;
    }

    #[inline]
    fn accounting_snapshot(&self) -> TraceDelta {
        TraceDelta {
            counters: self.counters,
            mem_cycles: self.mem_cycles,
            alu_cycles: self.alu_cycles,
        }
    }

    fn delta_since(&self, snap: &TraceDelta) -> TraceDelta {
        let mut counters = self.counters;
        let s = &snap.counters;
        counters.warp_instructions -= s.warp_instructions;
        counters.active_lane_sum -= s.active_lane_sum;
        counters.gld_transactions -= s.gld_transactions;
        counters.gld_requested_bytes -= s.gld_requested_bytes;
        counters.gst_transactions -= s.gst_transactions;
        counters.gst_requested_bytes -= s.gst_requested_bytes;
        counters.dram_sectors -= s.dram_sectors;
        counters.shared_accesses -= s.shared_accesses;
        counters.bank_conflict_replays -= s.bank_conflict_replays;
        counters.atomic_replays -= s.atomic_replays;
        TraceDelta {
            counters,
            mem_cycles: self.mem_cycles - snap.mem_cycles,
            alu_cycles: self.alu_cycles - snap.alu_cycles,
        }
    }

    /// Inert: warp-trace scopes gave way to launch records, and opening one
    /// changes nothing — it never replays (`false`), and the ops after it
    /// interpret as they would without it. Kept for the ledger's hot-loop
    /// probe, which still opens them.
    #[doc(hidden)]
    pub fn warp_scope(&mut self, _site: &[u64; 4], _mask: Mask, _col: &[u32; WARP]) -> bool {
        false
    }

    /// Inert counterpart of [`Block::warp_scope`].
    #[doc(hidden)]
    pub fn warp_scope_end(&mut self) {}

    /// Issues `body` — ops whose data nothing reads, whose cost the shape
    /// and what the run holds still fix — unless the launch charges its
    /// [`crate::LaunchRecord`] in their place ([`crate::Gpu::try_launch_recorded`]);
    /// a recording or checking launch tallies what they cost into it. Holds
    /// no [`Block::sync`] or [`Block::phase`].
    pub fn statics(&mut self, body: impl FnOnce(&mut Self)) {
        if self.charged {
            return;
        }
        let snap = self.accounting_snapshot();
        body(self);
        let delta = self.delta_since(&snap);
        if let Some(record) = &mut self.tally {
            record.add(self.id, self.phase, &delta);
        }
    }

    /// Issues `body` — this block's ops whose data nothing reads and whose
    /// cost the record's owner fixes per block, but which run only when values
    /// say so — or charges what they cost the first time, to this block (see
    /// [`crate::LaunchRecord`]). Every [`crate::replay::VERIFY_SAMPLE`]-th use issues
    /// them again and compares; a gated launch issues them and counts a
    /// fallback; a launch without a record just issues them. Holds no
    /// [`Block::sync`] or [`Block::phase`].
    pub fn share(&mut self, body: impl FnOnce(&mut Self)) {
        let id = self.id as usize;
        let charge = match self.shares.as_deref_mut() {
            Some(shares) => shares[id].take(self.replay),
            None => {
                self.replay.fallbacks += u64::from(self.gated);
                None
            }
        };
        if let Some(d) = charge {
            self.counters.add(&d.counters);
            self.mem_cycles += d.mem_cycles;
            self.alu_cycles += d.alu_cycles;
            return;
        }
        let snap = self.accounting_snapshot();
        body(self);
        let delta = self.delta_since(&snap);
        if let Some(shares) = self.shares.as_deref_mut() {
            shares[id].settle(delta, self.replay);
        }
    }

    /// Warp-wide global load: lane `l` (if active) reads `buf[idx(l)]`.
    pub fn gload<T: Pod>(
        &mut self,
        buf: &DevVec<T>,
        mask: Mask,
        mut idx: impl FnMut(usize) -> usize,
    ) -> [T; WARP] {
        let mut out = [T::default(); WARP];
        let mut addrs = [0u64; WARP];
        for lane in mask.iter() {
            let i = idx(lane);
            out[lane] = buf.get(i);
            addrs[lane] = buf.addr(i);
        }
        let c = self.memo.global(mask, &addrs, T::SIZE);
        self.counters.gld_transactions += c.segments as u64;
        self.counters.gld_requested_bytes += c.requested_bytes as u64;
        self.counters.dram_sectors += c.sectors as u64;
        self.issue_mem(mask, 0);
        out
    }

    /// Warp-wide global store: lane `l` (if active) writes `val(l)` to
    /// `buf[idx(l)]`. Lanes storing to the same element apply in lane order
    /// (matching CUDA's unspecified-but-single-winner semantics).
    pub fn gstore<T: Pod>(
        &mut self,
        buf: &mut DevVec<T>,
        mask: Mask,
        mut idx: impl FnMut(usize) -> usize,
        mut val: impl FnMut(usize) -> T,
    ) {
        let mut addrs = [0u64; WARP];
        for lane in mask.iter() {
            let i = idx(lane);
            buf.set(i, val(lane));
            addrs[lane] = buf.addr(i);
        }
        let c = self.memo.global(mask, &addrs, T::SIZE);
        self.counters.gst_transactions += c.segments as u64;
        self.counters.gst_requested_bytes += c.requested_bytes as u64;
        self.counters.dram_sectors += c.sectors as u64;
        self.issue_mem(mask, 0);
    }

    /// Warp-wide shared load.
    pub fn sload<T: Pod>(
        &mut self,
        sh: &SharedVec<T>,
        mask: Mask,
        mut idx: impl FnMut(usize) -> usize,
    ) -> [T; WARP] {
        let mut out = [T::default(); WARP];
        let mut addrs = [0u64; WARP];
        for lane in mask.iter() {
            let i = idx(lane);
            out[lane] = sh.get(i);
            addrs[lane] = sh.addr(i);
        }
        let replays = self.memo.shared(mask, &addrs);
        self.counters.shared_accesses += 1;
        self.counters.bank_conflict_replays += replays as u64;
        self.issue_mem(mask, replays as u64);
        out
    }

    /// Warp-wide shared store. Same-address lanes apply in lane order.
    pub fn sstore<T: Pod>(
        &mut self,
        sh: &mut SharedVec<T>,
        mask: Mask,
        mut idx: impl FnMut(usize) -> usize,
        mut val: impl FnMut(usize) -> T,
    ) {
        let mut addrs = [0u64; WARP];
        for lane in mask.iter() {
            let i = idx(lane);
            sh.set(i, val(lane));
            addrs[lane] = sh.addr(i);
        }
        let replays = self.memo.shared(mask, &addrs);
        self.counters.shared_accesses += 1;
        self.counters.bank_conflict_replays += replays as u64;
        self.issue_mem(mask, replays as u64);
    }

    /// Warp-wide *atomic* read-modify-write on shared memory: lane `l`
    /// applies `f(l, &mut sh[idx(l)])`. Lanes targeting the same element are
    /// serialized (applied in lane order) and each collision charges one
    /// replay, modeling shared-memory atomic contention — the cost the paper
    /// argues is small because shards bound it (Section 4).
    pub fn supdate<T: Pod>(
        &mut self,
        sh: &mut SharedVec<T>,
        mask: Mask,
        mut idx: impl FnMut(usize) -> usize,
        mut f: impl FnMut(usize, &mut T),
    ) {
        // Lanes apply in lane order; every additional lane hitting an
        // already-hit element costs one replay pass, counted by the same
        // bank-word pass that yields the bank replays.
        let mut addrs = [0u64; WARP];
        for lane in mask.iter() {
            let i = idx(lane);
            addrs[lane] = sh.addr(i);
            f(lane, sh.get_mut(i));
        }
        let (bank_replays, collisions) = self.memo.atomic(mask, &addrs, T::SIZE);
        self.counters.shared_accesses += 1;
        self.counters.atomic_replays += collisions as u64;
        self.counters.bank_conflict_replays += bank_replays as u64;
        self.issue_mem(mask, (collisions + bank_replays) as u64);
    }

    /// Device byte address of virtual lane 0 of a run op: `buf_base +
    /// base * elem`. `base` may be negative (batch-shifted kernels index
    /// `abase + l - lo`); active lanes always resolve to genuine in-bounds
    /// addresses, so the wrapped two's-complement value only flows through
    /// [`coalesce_seq`] arithmetic that is itself wrapping.
    #[inline]
    fn run_base_addr(buf_base: u64, base: isize, elem: u32) -> u64 {
        buf_base.wrapping_add((base as u64).wrapping_mul(elem as u64))
    }

    /// Warp-wide global load over a contiguous run: active lane `l` reads
    /// `buf[(base + l) as usize]`. Data, counters, and modeled cycles are
    /// bit-identical to `gload(buf, mask, |l| (base + l as isize) as usize)`;
    /// the stride-1 structure lets the copy be a slice `memcpy` for
    /// contiguous masks and the coalescing math a closed form
    /// ([`coalesce_seq`]) instead of a per-lane address sort.
    pub fn gload_run<T: Pod>(&mut self, buf: &DevVec<T>, mask: Mask, base: isize) -> [T; WARP] {
        let mut out = [T::default(); WARP];
        if let Some((lo, len)) = mask.as_run() {
            let start = (base + lo as isize) as usize;
            out[lo..lo + len].copy_from_slice(buf.slice(start, len));
        } else {
            for lane in mask.iter() {
                out[lane] = buf.get((base + lane as isize) as usize);
            }
        }
        let base_addr = Self::run_base_addr(buf.base(), base, T::SIZE);
        let c = coalesce_seq(
            base_addr,
            T::SIZE,
            mask,
            self.cfg.segment_bytes,
            self.cfg.sector_bytes,
        );
        self.counters.gld_transactions += c.segments as u64;
        self.counters.gld_requested_bytes += c.requested_bytes as u64;
        self.counters.dram_sectors += c.sectors as u64;
        self.issue_mem(mask, 0);
        out
    }

    /// Warp-wide global store over a contiguous run: active lane `l` writes
    /// `vals[l]` to `buf[(base + l) as usize]`. Bit-identical counterpart of
    /// the equivalent [`Block::gstore`].
    pub fn gstore_run<T: Pod>(
        &mut self,
        buf: &mut DevVec<T>,
        mask: Mask,
        base: isize,
        vals: &[T; WARP],
    ) {
        if let Some((lo, len)) = mask.as_run() {
            let start = (base + lo as isize) as usize;
            buf.slice_mut(start, len)
                .copy_from_slice(&vals[lo..lo + len]);
        } else {
            for lane in mask.iter() {
                buf.set((base + lane as isize) as usize, vals[lane]);
            }
        }
        let base_addr = Self::run_base_addr(buf.base(), base, T::SIZE);
        let c = coalesce_seq(
            base_addr,
            T::SIZE,
            mask,
            self.cfg.segment_bytes,
            self.cfg.sector_bytes,
        );
        self.counters.gst_transactions += c.segments as u64;
        self.counters.gst_requested_bytes += c.requested_bytes as u64;
        self.counters.dram_sectors += c.sectors as u64;
        self.issue_mem(mask, 0);
    }

    /// Bank replays of a stride-1 shared access, via the closed form when
    /// the geometry admits one and the generic analysis otherwise.
    fn run_bank_replays<T: Pod>(&mut self, sh: &SharedVec<T>, mask: Mask, base: isize) -> u32 {
        let base_addr = Self::run_base_addr(sh.base(), base, T::SIZE);
        match bank_conflicts_seq(
            base_addr,
            T::SIZE,
            mask,
            self.cfg.shared_banks,
            self.cfg.bank_width_bytes,
        ) {
            Some(replays) => replays,
            None => {
                let mut addrs = [0u64; WARP];
                for lane in mask.iter() {
                    addrs[lane] = sh.addr((base + lane as isize) as usize);
                }
                self.memo.shared(mask, &addrs)
            }
        }
    }

    /// Warp-wide shared load over a contiguous run; bit-identical
    /// counterpart of the equivalent [`Block::sload`].
    pub fn sload_run<T: Pod>(&mut self, sh: &SharedVec<T>, mask: Mask, base: isize) -> [T; WARP] {
        let mut out = [T::default(); WARP];
        if let Some((lo, len)) = mask.as_run() {
            let start = (base + lo as isize) as usize;
            out[lo..lo + len].copy_from_slice(sh.slice(start, len));
        } else {
            for lane in mask.iter() {
                out[lane] = sh.get((base + lane as isize) as usize);
            }
        }
        let replays = self.run_bank_replays(sh, mask, base);
        self.counters.shared_accesses += 1;
        self.counters.bank_conflict_replays += replays as u64;
        self.issue_mem(mask, replays as u64);
        out
    }

    /// Warp-wide shared store over a contiguous run; bit-identical
    /// counterpart of the equivalent [`Block::sstore`].
    pub fn sstore_run<T: Pod>(
        &mut self,
        sh: &mut SharedVec<T>,
        mask: Mask,
        base: isize,
        vals: &[T; WARP],
    ) {
        if let Some((lo, len)) = mask.as_run() {
            let start = (base + lo as isize) as usize;
            sh.slice_mut(start, len)
                .copy_from_slice(&vals[lo..lo + len]);
        } else {
            for lane in mask.iter() {
                sh.set((base + lane as isize) as usize, vals[lane]);
            }
        }
        let replays = self.run_bank_replays(sh, mask, base);
        self.counters.shared_accesses += 1;
        self.counters.bank_conflict_replays += replays as u64;
        self.issue_mem(mask, replays as u64);
    }

    /// `insts` pure-compute warp instructions under `mask` (ALU work,
    /// branches, address arithmetic). Affects issue time and warp execution
    /// efficiency but no memory counters. Accounted as one batch update —
    /// identical totals to issuing the instructions one by one.
    pub fn exec(&mut self, mask: Mask, insts: u64) {
        self.counters.warp_instructions += insts;
        self.counters.active_lane_sum += mask.count() as u64 * insts;
        self.alu_cycles += insts;
    }

    /// `__syncthreads()`: a barrier among the block's threads. Costs one
    /// full-warp instruction per warp in the block, charged as one batch.
    pub fn sync(&mut self) {
        let nw = self.num_warps() as u64;
        self.counters.warp_instructions += nw;
        self.counters.active_lane_sum += nw * WARP as u64;
        self.alu_cycles += nw;
    }

    /// Marks the start of a named kernel phase (e.g. the 4-stage CuSha
    /// kernel's `gather` / `apply` / `scatter` / `compact`). Purely an
    /// observability marker: it consumes no modeled cycles and no counters,
    /// and when tracing is disabled it is a store and a branch — kernels may
    /// call it unconditionally. The store names the phase a
    /// [`crate::LaunchRecord`] files [`Block::statics`] cycles under.
    #[inline]
    pub fn phase(&mut self, name: &'static str) {
        self.phase = Some(name);
        if self.trace_phases {
            self.phase_marks
                .push((name, self.mem_cycles + self.alu_cycles));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::mem::DevVec;

    fn test_memo(cfg: &DeviceConfig) -> CoalesceMemo {
        CoalesceMemo::new(
            cfg.segment_bytes,
            cfg.sector_bytes,
            cfg.shared_banks,
            cfg.bank_width_bytes,
        )
    }

    fn test_block<'a>(
        cfg: &'a DeviceConfig,
        memo: &'a mut CoalesceMemo,
        replay: &'a mut ReplayTally,
    ) -> Block<'a> {
        Block::new(0, 128, cfg, memo, replay)
    }

    #[test]
    fn gload_coalesced_vs_gather() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay);
        let buf: DevVec<u32> = DevVec::from_parts((0..4096).collect(), 0);
        // Coalesced: 1 transaction.
        let out = b.gload(&buf, Mask::FULL, |l| l);
        assert_eq!(out[5], 5);
        assert_eq!(b.counters.gld_transactions, 1);
        // Strided gather: 32 transactions.
        b.gload(&buf, Mask::FULL, |l| l * 32);
        assert_eq!(b.counters.gld_transactions, 33);
        assert_eq!(b.counters.gld_requested_bytes, 256);
    }

    #[test]
    fn gstore_writes_and_accounts() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay);
        let mut buf: DevVec<u32> = DevVec::from_parts(vec![0; 64], 0);
        b.gstore(&mut buf, Mask::first(4), |l| l, |l| l as u32 * 10);
        assert_eq!(&buf.host()[..5], &[0, 10, 20, 30, 0]);
        assert_eq!(b.counters.gst_transactions, 1);
        assert_eq!(b.counters.gst_requested_bytes, 16);
    }

    #[test]
    fn supdate_serializes_same_target() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay);
        let mut sh = b.shared_alloc::<u32>(4);
        // All 32 lanes add 1 to element 2: result 32, 31 collisions.
        b.supdate(&mut sh, Mask::FULL, |_| 2, |_, v| *v += 1);
        assert_eq!(sh.host()[2], 32);
        assert_eq!(b.counters.atomic_replays, 31);
        // Distinct targets: no collisions.
        let mut sh2 = b.shared_alloc::<u32>(32);
        let before = b.counters.atomic_replays;
        b.supdate(&mut sh2, Mask::FULL, |l| l, |l, v| *v = l as u32);
        assert_eq!(b.counters.atomic_replays, before);
        assert_eq!(sh2.host()[31], 31);
    }

    #[test]
    fn supdate_applies_in_lane_order() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay);
        let mut sh = b.shared_alloc::<u32>(1);
        // min-style update: final value is the min over lanes.
        sh.set(0, 100);
        b.supdate(
            &mut sh,
            Mask::FULL,
            |_| 0,
            |l, v| *v = (*v).min(31 - l as u32),
        );
        assert_eq!(sh.host()[0], 0);
    }

    #[test]
    fn warp_efficiency_tracks_masks() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay);
        b.exec(Mask::FULL, 1);
        b.exec(Mask::first(8), 1);
        assert_eq!(b.counters.warp_instructions, 2);
        assert_eq!(b.counters.active_lane_sum, 40);
    }

    #[test]
    fn shared_alloc_respects_quota() {
        let cfg = DeviceConfig::tiny_test(); // 1 KiB
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = Block::new(0, 32, &cfg, &mut memo, &mut replay);
        let _a = b.shared_alloc::<u32>(128); // 512 B
        assert_eq!(b.shared_used(), 512);
        let _b = b.shared_alloc::<u32>(128); // 1024 B: exactly at limit
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.shared_alloc::<u32>(1)));
        assert!(r.is_err(), "over-allocation must panic");
    }

    #[test]
    fn sync_charges_per_warp() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay); // 128 threads = 4 warps
        b.sync();
        assert_eq!(b.counters.warp_instructions, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let _ = Block::new(0, 2048, &cfg, &mut memo, &mut replay);
    }

    #[test]
    fn sload_bank_conflict_replays() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay);
        let mut sh = b.shared_alloc::<u32>(1024);
        for i in 0..1024 {
            sh.set(i, i as u32);
        }
        let i0 = b.mem_cycles;
        b.sload(&sh, Mask::FULL, |l| l); // conflict-free
        assert_eq!(b.mem_cycles - i0, 1);
        let i1 = b.mem_cycles;
        b.sload(&sh, Mask::FULL, |l| l * 32); // 32-way conflict
        assert_eq!(b.mem_cycles - i1, 32);
    }

    /// Accounting state of a block, for bit-identity comparisons.
    fn account(b: &Block<'_>) -> (Counters, u64, u64) {
        (b.counters, b.mem_cycles, b.alu_cycles)
    }

    #[test]
    fn run_ops_match_closure_ops_bit_for_bit() {
        let cfg = DeviceConfig::gtx780();
        let masks = [
            Mask::FULL,
            Mask::first(7),
            Mask::run(3, 11),
            Mask(0b1010_1100),
            Mask(0x8000_0001),
        ];
        for mask in masks {
            for base in [0isize, 5, 97] {
                let mut memo_a = test_memo(&cfg);
                let mut replay_a = ReplayTally::default();
                let mut a = test_block(&cfg, &mut memo_a, &mut replay_a);
                let mut memo_b = test_memo(&cfg);
                let mut replay_b = ReplayTally::default();
                let mut b = test_block(&cfg, &mut memo_b, &mut replay_b);

                let gbuf: DevVec<u32> = DevVec::from_parts((0..4096).collect(), 512);
                let mut gdst_a: DevVec<u32> = DevVec::from_parts(vec![0; 4096], 8192);
                let mut gdst_b: DevVec<u32> = DevVec::from_parts(vec![0; 4096], 8192);
                let mut sh_a = a.shared_alloc::<u32>(256);
                let mut sh_b = b.shared_alloc::<u32>(256);
                for i in 0..256 {
                    sh_a.set(i, i as u32 * 3);
                    sh_b.set(i, i as u32 * 3);
                }

                let va = a.gload(&gbuf, mask, |l| (base + l as isize) as usize);
                let vb = b.gload_run(&gbuf, mask, base);
                assert_eq!(va, vb);
                a.gstore(
                    &mut gdst_a,
                    mask,
                    |l| (base + l as isize) as usize,
                    |l| va[l],
                );
                b.gstore_run(&mut gdst_b, mask, base, &vb);
                assert_eq!(gdst_a.host(), gdst_b.host());
                let sa = a.sload(&sh_a, mask, |l| (base + l as isize) as usize);
                let sb = b.sload_run(&sh_b, mask, base);
                assert_eq!(sa, sb);
                a.sstore(
                    &mut sh_a,
                    mask,
                    |l| (base + l as isize) as usize,
                    |l| sa[l] + 1,
                );
                let mut vals = [0u32; WARP];
                for l in mask.iter() {
                    vals[l] = sb[l] + 1;
                }
                b.sstore_run(&mut sh_b, mask, base, &vals);
                assert_eq!(sh_a.host(), sh_b.host());
                assert_eq!(account(&a), account(&b), "mask {mask:?} base {base}");
            }
        }
    }

    #[test]
    fn f64_run_ops_match_closure_ops() {
        // 8-byte elements exercise the two-words-per-access bank model.
        let cfg = DeviceConfig::gtx780();
        for mask in [Mask::FULL, Mask(0x0001_0001), Mask::run(9, 13)] {
            let mut memo_a = test_memo(&cfg);
            let mut replay_a = ReplayTally::default();
            let mut a = test_block(&cfg, &mut memo_a, &mut replay_a);
            let mut memo_b = test_memo(&cfg);
            let mut replay_b = ReplayTally::default();
            let mut b = test_block(&cfg, &mut memo_b, &mut replay_b);
            let mut sh_a = a.shared_alloc::<f64>(64);
            let mut sh_b = b.shared_alloc::<f64>(64);
            for i in 0..64 {
                sh_a.set(i, i as f64);
                sh_b.set(i, i as f64);
            }
            let va = a.sload(&sh_a, mask, |l| l);
            let vb = b.sload_run(&sh_b, mask, 0);
            assert_eq!(va, vb);
            assert_eq!(account(&a), account(&b), "mask {mask:?}");
        }
    }

    #[test]
    fn exec_batches_match_per_instruction_accounting() {
        let cfg = DeviceConfig::gtx780();
        let mut memo = test_memo(&cfg);
        let mut replay = ReplayTally::default();
        let mut b = test_block(&cfg, &mut memo, &mut replay);
        b.exec(Mask::first(12), 5);
        assert_eq!(b.counters.warp_instructions, 5);
        assert_eq!(b.counters.active_lane_sum, 60);
        assert_eq!(b.alu_cycles, 5);
    }
}
