//! Single-pass stream compaction — the **filter** operator's kernel.
//!
//! Turns the per-vertex activation flags written by an advance pass into a
//! sorted-unique frontier list in one kernel: each block loads the running
//! cursor, scans its flag tile once, writes every set vertex id to
//! `cursor + in-block rank` (clearing the flags behind itself), and
//! advances the cursor by its count. The simulated device executes blocks
//! serially in id order — the modeled equivalent of a device-side
//! atomic-scan compaction — so the single cursor cell is exact and the
//! output list is sorted and duplicate-free by construction: no host
//! round-trip, no post-sort. The last block parks the final length in
//! `ctrl[1]` and re-zeroes the cursor, so the host pays exactly one
//! scalar readback per iteration (the same modeled PCIe latency as the
//! shard engines' `is_converged` readback).
//!
//! A block runs in two passes, like the VWC baseline's. The flag scan — one
//! stride-1 load and one `exec` per warp — costs what the tile's position
//! says and nothing the flags say, and nothing reads the data it moves: it is
//! the block's `statics`, which the launch's record charges whole once it
//! holds them. The **functional pass** then reads the same flags from the
//! buffer's host view and issues, interpreted and in warp order, what does
//! depend on them: the rank `exec`, the compacted write (ranks are
//! consecutive, so it is a run store of the packed lanes) and the flag clear.
//!
//! The generic frontier engine fuses its filter into the advance kernel
//! (activations append directly to the next frontier), so this standalone
//! kernel serves the peel-style workloads — k-core flags vertices in a
//! scan kernel and compacts the peel set here.

use cusha_simt::{
    aligned_chunks, DevVec, DeviceFault, Gpu, KernelDesc, KernelStats, LaunchRecord, Mask, WARP,
};

/// The warps of block `bid` over items `0..n`, `tpb` (whole warps) per block:
/// each warp's first item and its lanes in range, ending where the items do.
pub(crate) fn block_warps(bid: u32, tpb: usize, n: usize) -> impl Iterator<Item = (usize, Mask)> {
    let base = bid as usize * tpb;
    aligned_chunks(base..n.min(base + tpb))
}

/// Compacts `active` (0/1 per vertex) into `frontier_buf`, returning the
/// frontier length and the kernel's stats. Clears the flags it consumed.
/// `ctrl` is a two-cell scratch buffer `[cursor, length]` that must be
/// zero-initialized once; the kernel leaves the cursor re-zeroed for the
/// next iteration. `desc` is the launch over `n` vertices (one thread each),
/// `record` the flag scan's, which the run keeps across its launches.
pub(crate) fn compact_flags(
    gpu: &mut Gpu,
    active: &mut DevVec<u32>,
    frontier_buf: &mut DevVec<u32>,
    ctrl: &mut DevVec<u32>,
    n: usize,
    desc: &KernelDesc,
    record: &mut LaunchRecord,
) -> Result<(usize, KernelStats), DeviceFault> {
    let tpb = desc.threads_per_block as usize;
    let ks = gpu.try_launch_recorded(desc, record, |b| {
        let bid = b.id();
        b.phase("filter");
        let mut cursor = b.gload_run(&*ctrl, Mask::first(1), 0)[0] as usize;
        b.statics(|b| {
            for (base, mask) in block_warps(bid, tpb, n) {
                b.gload_run(&*active, mask, base as isize);
                b.exec(mask, 1);
            }
        });
        for (base, mask) in block_warps(bid, tpb, n) {
            // In-warp ranks assign positions in vertex order: together with
            // the serial block schedule the compacted list comes out sorted
            // and unique.
            let flags = &active.host()[base..base + mask.count() as usize];
            let set = lanes_where(flags.iter().map(|&flag| flag != 0));
            if set.is_empty() {
                continue;
            }
            let mut packed = [0u32; WARP];
            for (rank, l) in set.iter().enumerate() {
                packed[rank] = (base + l) as u32;
            }
            let count = set.count() as usize;
            b.exec(set, 1);
            b.gstore_run(frontier_buf, Mask::first(count), cursor as isize, &packed);
            b.gstore_run(active, set, base as isize, &[0; WARP]);
            cursor += count;
        }
        // Publish the running cursor; the last block parks it as the total
        // and resets the cursor for the next pass.
        let cur = cursor as u32;
        if bid + 1 == desc.grid_blocks {
            b.gstore_run(ctrl, Mask::first(2), 0, &column([0, cur]));
        } else {
            b.gstore_run(ctrl, Mask::first(1), 0, &column([cur]));
        }
    })?;
    let len = gpu.try_download_scalar(&*ctrl, 1)?;
    Ok((len as usize, ks))
}

/// The mask of the lanes, counted from lane 0, whose item is `true`.
pub(crate) fn lanes_where(lanes: impl Iterator<Item = bool>) -> Mask {
    Mask(
        lanes
            .enumerate()
            .fold(0, |bits, (l, set)| bits | u32::from(set) << l),
    )
}

/// A lane column holding `head` in its first lanes and zeros after.
pub(crate) fn column<const N: usize>(head: [u32; N]) -> [u32; WARP] {
    let mut col = [0; WARP];
    col[..N].copy_from_slice(&head);
    col
}
