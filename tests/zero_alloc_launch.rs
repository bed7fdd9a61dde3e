//! Allocation guard for the kernel-launch hot path.
//!
//! The per-launch path of the simulator — kernel descriptor, per-block
//! construction, shared-memory allocation, coalescing analysis, per-SM
//! cycle scratch, and stats assembly — must perform **zero heap
//! allocations** in steady state (tracing disabled, no profiler, no fault
//! plan). The first launches are warm-up: they fill the thread-local
//! shared-memory scratch pools and the launch-cycle scratch; everything
//! after that must recycle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cusha::simt::{warp_chunks, DeviceConfig, Gpu, KernelDesc};

/// Counts allocations per thread, so concurrently running tests in this
/// binary cannot pollute each other's measurements.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the allocator must survive TLS teardown.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

/// A CuSha-shaped kernel: shared-memory staging, strided global gathers,
/// shared stores/loads, and a global write-back — every accounted memory
/// path of a real launch.
fn launch_once(gpu: &mut Gpu, desc: &KernelDesc, n: usize) -> u64 {
    // Buffers are allocated per launch in this helper's callers' warm-up
    // region; here they live on the device already.
    let src = gpu.upload(&(0..n as u32).collect::<Vec<_>>());
    let mut dst = gpu.alloc::<u32>(n);
    let stats = gpu.launch(desc, |blk| {
        let base = blk.id() as usize * 256;
        let mut local = blk.shared_alloc::<u32>(256);
        for (start, mask) in warp_chunks(256) {
            let vals = blk.gload(&src, mask, |l| (base + start + l * 7) % n);
            blk.sstore(&mut local, mask, |l| start + l, |l| vals[l]);
        }
        blk.sync();
        for (start, mask) in warp_chunks(256) {
            let vals = blk.sload(&local, mask, |l| start + l);
            blk.exec(mask, 2);
            blk.gstore(&mut dst, mask, |l| base + start + l, |l| vals[l]);
        }
    });
    stats.counters.gld_transactions
}

#[test]
fn steady_state_launch_path_allocates_nothing() {
    let n = 1 << 12;
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let desc = KernelDesc::new("zero-alloc-probe", 16, 256);
    let src = gpu.upload(&(0..n as u32).collect::<Vec<_>>());
    let mut dst = gpu.alloc::<u32>(n);

    let mut body = |blk: &mut cusha::simt::Block<'_>| {
        let base = blk.id() as usize * 256;
        let mut local = blk.shared_alloc::<u32>(256);
        for (start, mask) in warp_chunks(256) {
            let vals = blk.gload(&src, mask, |l| (base + start + l * 7) % n);
            blk.sstore(&mut local, mask, |l| start + l, |l| vals[l]);
        }
        blk.sync();
        for (start, mask) in warp_chunks(256) {
            let vals = blk.sload(&local, mask, |l| start + l);
            blk.exec(mask, 2);
            blk.gstore(&mut dst, mask, |l| base + start + l, |l| vals[l]);
        }
    };

    // Warm-up: fills the thread-local shared-memory scratch pool and the
    // per-SM cycle scratch.
    for _ in 0..3 {
        gpu.launch(&desc, &mut body);
    }

    let launches = 50;
    let n_allocs = allocations_in(|| {
        for _ in 0..launches {
            gpu.launch(&desc, &mut body);
        }
    });
    assert_eq!(
        n_allocs, 0,
        "steady-state launch path performed {n_allocs} allocations over {launches} launches"
    );
    // The launches above did real work: every scattered access went through
    // the device's analysis core, whose scratch bitsets stopped growing in
    // the warm-up (there is no table, so nothing ever "hits").
    let (hits, analyses) = gpu.memo_stats();
    assert_eq!(hits, 0);
    assert!(analyses > 0, "no scattered access was analysed");
}

#[test]
fn soa_run_op_and_replay_scope_path_allocates_nothing() {
    // The data-oriented hot path: run-mask SoA transfers (`*_run` ops) and
    // caller-delimited warp-trace scopes. Steady state must be just as
    // allocation-free as the closure-indexed path — the replay table grows
    // only while scopes still miss, which the warm-up launches get over with.
    let n = 1 << 12;
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let desc = KernelDesc::new("soa-zero-alloc-probe", 16, 256);
    let src = gpu.upload(&(0..n as u32).collect::<Vec<_>>());
    let mut dst = gpu.alloc::<u32>(n);

    let mut body = |blk: &mut cusha::simt::Block<'_>| {
        let base = blk.id() as usize * 256;
        let mut local = blk.shared_alloc::<u32>(256);
        for (start, mask) in warp_chunks(256) {
            // Scope key: site tag + block/warp coordinates; run ops inside.
            blk.warp_scope(
                &[0x7a61_50524f4245, blk.id() as u64, start as u64, 0],
                mask,
                &[0u32; 32],
            );
            let vals = blk.gload_run(&src, mask, (base + start) as isize);
            blk.sstore_run(&mut local, mask, start as isize, &vals);
            blk.warp_scope_end();
        }
        blk.sync();
        for (start, mask) in warp_chunks(256) {
            let vals = blk.sload_run(&local, mask, start as isize);
            blk.exec(mask, 2);
            blk.gstore_run(&mut dst, mask, (base + start) as isize, &vals);
        }
    };

    for _ in 0..3 {
        gpu.launch(&desc, &mut body);
    }

    let launches = 50;
    let n_allocs = allocations_in(|| {
        for _ in 0..launches {
            gpu.launch(&desc, &mut body);
        }
    });
    assert_eq!(
        n_allocs, 0,
        "SoA launch path performed {n_allocs} allocations over {launches} launches"
    );
    // The scopes above replayed from the warp-trace table in steady state.
    let (hits, misses, fallbacks) = gpu.replay_stats();
    assert!(
        hits > 0,
        "replay memo never hit (misses: {misses}, fallbacks: {fallbacks})"
    );
}

#[test]
fn launch_results_are_identical_with_and_without_memo_reuse() {
    // Two fresh devices run the same kernel sequence; the second device's
    // later launches reuse its warmed analysis scratch. Counters must be
    // bit-identical launch by launch.
    let n = 1 << 10;
    let mk = || Gpu::new(DeviceConfig::gtx780());
    let desc = KernelDesc::new("memo-replay-probe", 4, 256);
    let mut cold = mk();
    let first = launch_once(&mut cold, &desc, n);
    let mut warm = mk();
    let mut last = 0;
    for _ in 0..4 {
        last = launch_once(&mut warm, &desc, n);
    }
    assert_eq!(first, last, "warm analysis diverged from cold analysis");
    let (_, analyses) = warm.memo_stats();
    assert_eq!(
        analyses,
        4 * cold.memo_stats().1,
        "same work, launch by launch"
    );
}
