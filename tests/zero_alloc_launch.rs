//! Allocation guard for the kernel-launch hot path.
//!
//! The per-launch path of the simulator — kernel descriptor, per-block
//! construction, shared-memory allocation, coalescing analysis, per-SM
//! cycle scratch, and stats assembly — must perform **zero heap
//! allocations** in steady state (tracing disabled, no profiler, no fault
//! plan). The first launches are warm-up: they fill the thread-local
//! shared-memory scratch pools and the launch-cycle scratch (and a launch
//! record's first recording and first sampled check); everything after that
//! must recycle. Above the launch, the frontier family's host
//! loops must not allocate in proportion to the work either: per iteration
//! they pay the control readback and amortised stats pushes, nothing per
//! relaxation step, per launch or per vertex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cusha::algos::Bfs;
use cusha::baselines::{try_run_mtcpu, MtcpuConfig};
use cusha::core::{
    try_run_placed, try_run_warm, CuShaConfig, NoopObserver, Placement, PreparedLayout, RunObserver,
};
use cusha::frontier::{try_run_frontier_warm, try_run_kcore, FrontierConfig, PreparedFrontier};
use cusha::graph::generators::lattice::lattice2d;
use cusha::graph::{Edge, Graph};
use cusha::simt::replay::VERIFY_SAMPLE;
use cusha::simt::{warp_chunks, DeviceConfig, Gpu, KernelDesc, LaunchRecord};

/// Counts allocations, and the bytes they ask for, per thread, so concurrently
/// running tests in this binary cannot pollute each other's measurements.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes`. `try_with`: the allocator must survive
/// TLS teardown.
fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Bytes the calling thread asked the allocator for while `f` ran.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(|c| c.get());
    f();
    BYTES.with(|c| c.get()) - before
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
fn recorded_launch_path_allocates_nothing() {
    // A launch that charges its record whole, and the sampled one that
    // re-interprets to verify it: after the record's first launch and its
    // first sampled use, neither allocates — the record and the device's
    // spare are O(SMs + phases) and reused in place.
    let n = 1 << 12;
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let desc = KernelDesc::new("recorded-zero-alloc-probe", 16, 256);
    let src = gpu.upload(&(0..n as u32).collect::<Vec<_>>());
    let mut dst = gpu.alloc::<u32>(n);
    let mut record = LaunchRecord::default();

    let mut body = |blk: &mut cusha::simt::Block<'_>| {
        let base = blk.id() as usize * 256;
        blk.phase("load");
        blk.statics(|blk| {
            for (start, mask) in warp_chunks(256) {
                blk.gload(&src, mask, |l| (base + start + l * 7) % n);
                blk.exec(mask, 1);
            }
        });
        blk.phase("store");
        for (start, mask) in warp_chunks(256) {
            let vals = std::array::from_fn(|l| (base + start + l) as u32);
            blk.gstore_run(&mut dst, mask, (base + start) as isize, &vals);
        }
    };

    let sample = VERIFY_SAMPLE as usize;
    for _ in 0..=sample {
        gpu.try_launch_recorded(&desc, &mut record, &mut body)
            .unwrap();
    }
    let launches = 2 * sample;
    let n_allocs = allocations_in(|| {
        for _ in 0..launches {
            gpu.try_launch_recorded(&desc, &mut record, &mut body)
                .unwrap();
        }
    });
    assert_eq!(
        n_allocs, 0,
        "recorded launch path performed {n_allocs} allocations over {launches} launches"
    );
    let (hits, misses, fallbacks) = gpu.replay_stats();
    assert_eq!((hits, misses, fallbacks), (3 * sample as u64, 1, 0));
    assert_eq!(gpu.replay_table().verify_failures(), 0);
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

/// Records the thread's allocation count at every iteration boundary, into
/// space reserved up front (the observer itself must not allocate).
struct AllocsAtBoundaries(Vec<u64>);

impl RunObserver for AllocsAtBoundaries {
    fn on_iteration(&mut self, _iteration: u32, _updated: u64, _elapsed: f64) -> bool {
        assert!(self.0.len() < self.0.capacity(), "reserve more boundaries");
        self.0.push(ALLOCS.with(|c| c.get()));
        true
    }
}

/// Allocations between consecutive iteration boundaries of `run`.
fn allocations_per_iteration(run: impl FnOnce(&mut AllocsAtBoundaries)) -> Vec<u64> {
    let mut observer = AllocsAtBoundaries(Vec::with_capacity(1 << 12));
    run(&mut observer);
    observer.0.windows(2).map(|w| w[1] - w[0]).collect()
}

#[test]
fn frontier_family_heap_traffic_does_not_scale_with_the_work() {
    // Frontier BFS down a path: every iteration pushes one vertex, whatever
    // the path's length, so iteration i costs the same allocations on a path
    // four times as long — the 16-byte control readback, plus the stats
    // vectors' doublings at the same i. Nothing per relaxation step (the
    // lane-serial overlay lives in lane arrays), nothing per launch (kernel
    // names are built once a run).
    let path = |len: u32| Graph::new(len, (1..len).map(|v| Edge::new(v - 1, v, 1)).collect());
    let bfs = |len: u32| {
        allocations_per_iteration(|observer| {
            let (g, cfg) = (path(len), FrontierConfig::new());
            let pf = PreparedFrontier::build(&g);
            let out = try_run_frontier_warm(&Bfs::new(0), &g, &pf, &cfg, None, observer).unwrap();
            assert_eq!(out.stats.iterations, len, "one vertex per iteration");
        })
    };
    let (short, long) = (bfs(300), bfs(1200));
    assert_eq!(short[..], long[..short.len()], "allocations follow |V|");
    let readback_only = long.iter().filter(|&&a| a == 1).count();
    assert!(
        long.iter().all(|&a| a <= 4) && readback_only >= long.len() - 12,
        "per-iteration allocations: {long:?}"
    );

    // k-core on a lattice: the dense kernels' launch records fill in the
    // first round; after that a peel round costs a constant — the
    // stats pushes, a kernel-name pair when `k` advances, a doubling of the
    // analysis scratch — whether the lattice has 400 vertices or 3,600 and
    // whether the round peels two vertices or hundreds.
    for side in [20, 60] {
        let g = lattice2d(side, side, 0.9, u64::from(side), 11);
        let rounds = allocations_per_iteration(|observer| {
            try_run_kcore(&g, &FrontierConfig::new(), None, observer).unwrap();
        });
        assert!(rounds.len() >= 8, "{side}: {} peel rounds", rounds.len());
        assert!(
            rounds.iter().all(|&a| a <= 8),
            "{side}x{side}: allocations per peel round {rounds:?}"
        );
    }
}

#[test]
fn shard_family_heap_traffic_per_iteration_is_constant() {
    // The in-core engine, the streamed engine and the fleet share one host
    // loop (`multi::drive`), so every warm query pays its per-iteration cost
    // 30-40 times a run. BFS
    // across a lattice: the wavefront takes as many iterations as the lattice
    // is wide, and once the replay table holds every stage (integrity off, no
    // tracer) an iteration allocates a constant — the flag readback, a stats
    // push — whatever its index, the lattice's size or the launches so far.
    // The loop's halo sets, byte counts and spill list are cleared and reused.
    let per_iteration = |side: u32, devices: usize| {
        let g = lattice2d(side, side, 1.0, 4, 11);
        let cfg = CuShaConfig::cw().with_vertices_per_shard(64);
        let layout = PreparedLayout::build(&g, cfg.repr, 64);
        allocations_per_iteration(|observer| match devices {
            0 => {
                let out = try_run_warm(&Bfs::new(0), &g, &layout, &cfg, None, observer);
                assert!(out.unwrap().stats.iterations > 8);
            }
            n => {
                let fleet = Placement::fleet(n);
                let out = try_run_placed(&Bfs::new(0), &g, &layout, &cfg, &fleet, None, observer);
                assert!(out.unwrap().stats.fleet.unwrap().exchange_bytes > 0);
            }
        })
    };
    // In-core: nothing but the stats vector's doublings, at the same
    // iterations on a lattice four times the size.
    let (small, large) = (per_iteration(12, 0), per_iteration(24, 0));
    assert_eq!(small[..], large[..small.len()], "allocations follow |V|");
    assert!(large.iter().all(|&a| a <= 1), "in-core: {large:?}");
    // Streamed: a batch costs its four buffers' uploads and its `SrcValue`
    // download — nothing else, whatever the iteration, the lattice's size or
    // the batch count (one batch; one per shard): the pipeline's clock is
    // running sums, not a vector of per-batch times per iteration.
    for (side, budget, batches) in [(12, u64::MAX, 1), (24, u64::MAX, 1), (24, 1, 9)] {
        let g = lattice2d(side, side, 1.0, 4, 11);
        let cfg = CuShaConfig::cw().with_vertices_per_shard(64);
        let (layout, streamed) = (
            PreparedLayout::build(&g, cfg.repr, 64),
            Placement::streamed(budget),
        );
        let streamed = allocations_per_iteration(|observer| {
            let out = try_run_placed(&Bfs::new(0), &g, &layout, &cfg, &streamed, None, observer);
            assert!(out.unwrap().stats.iterations > 8);
        });
        let (warming, warm) = streamed.split_at(8);
        assert!(
            warming.iter().all(|&a| a <= 5 * batches + 2),
            "{side}: {streamed:?}"
        );
        assert!(
            warm.iter().all(|&a| a - 5 * batches <= 1),
            "{side}: {streamed:?}"
        );
    }
    // Three devices: the halo sets and spill lists grow to the widest
    // wavefront during the first iterations, then are reused.
    for side in [12, 24] {
        let fleet = per_iteration(side, 3);
        let (warming, warm) = fleet.split_at(8);
        assert!(warming.iter().all(|&a| a <= 16), "{side}: {fleet:?}");
        assert!(warm.iter().all(|&a| a <= 1), "{side}: {fleet:?}");
    }
}

#[test]
fn mtcpu_allocates_for_the_sweeps_it_runs_not_for_its_cap() {
    // A 64-vertex BFS converges in a handful of sweeps; the per-sweep tally
    // grows with them, whatever the cap. One sized at the cap would be
    // 128 MiB here, and 32 GB at `--max-iters 4000000000`.
    let g = Graph::new(64, (1..64).map(|v| Edge::new(v - 1, v, 1)).collect());
    let mut cfg = MtcpuConfig::new(2);
    cfg.max_iterations = 1 << 24;
    let bytes = bytes_in(|| {
        let out = try_run_mtcpu(&Bfs::new(0), &g, &cfg, &mut NoopObserver).unwrap();
        assert!(out.stats.converged);
    });
    assert!(bytes < 1 << 20, "{bytes} bytes on the calling thread");
}
