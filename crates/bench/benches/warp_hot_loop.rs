//! `warp_hot_loop` — the per-iteration cost of the simulator's warp hot
//! loop, isolated: the same CuSha-shaped kernel launched in steady state
//! with the warp-trace replay memo off (every scope re-interpreted through
//! the scattered-access analysis) versus on (recorded deltas applied, data
//! still moved). The gap between the two is exactly what the replay memo
//! buys each convergence iteration.
//!
//! Below the launch, one case per simulator layer (`layer/*_x256`, [`OPS`]
//! operations per iteration): the global and bank analyses on their own,
//! and `supdate`, a replay hit and a replay miss inside one single-block
//! launch; `layer/stage_scope_hit` is one replayed scope around a whole
//! 256-chunk stage-2 body whose ops still move the data (the path the
//! ledger's `simt.launch_replay_us` probe times), `layer/stage_plain_loop` the
//! same stage as the CuSha kernel runs it once its scope replays — no ops, one
//! fold over the buffers' host views — and
//! `layer/vwc_block_*` the shape the VWC baseline uses, 256 blocks a launch:
//! each block's SISD loads, sweep, ladder and publish `exec`s are its
//! `statics`, then a fold over the host views; interpreted (a plain launch)
//! and replayed (a launch that charges its record whole).
//! `layer/kcore_scan_*` is the shape k-core's dense filter kernels use:
//! stride-1 run loads as a block's `statics`, then a functional pass over the
//! host views that stores a flag for the few vertices the values pick; the
//! same two launches.
//! `warm_query/*` times `try_run_warm` on a layout that has never run against
//! one that has.

use criterion::{criterion_group, criterion_main, Criterion};
use cusha_algos::Bfs;
use cusha_core::{try_run_warm, CuShaConfig, NoopObserver, PreparedLayout, Repr};
use cusha_graph::generators::rmat::{rmat, RmatConfig};
use cusha_simt::{
    warp_chunks, Block, CoalesceMemo, DevVec, DeviceConfig, Gpu, KernelDesc, KernelStats,
    LaunchRecord, Mask, WARP,
};
use std::hint::black_box;

const N: usize = 1 << 14;
const BLOCKS: u32 = 16;
const TPB: u32 = 256;

/// A CuSha-shaped body: scoped shared staging plus strided gathers — the
/// access mix of the shard kernels' apply stage.
fn body(blk: &mut Block<'_>, src: &cusha_simt::DevVec<u32>, dst: &mut cusha_simt::DevVec<u32>) {
    let base = blk.id() as usize * TPB as usize;
    let mut local = blk.shared_alloc::<u32>(TPB as usize);
    for (start, mask) in warp_chunks(TPB as usize) {
        blk.warp_scope(
            &[0x7768_4c4f4f50, blk.id() as u64, start as u64, 0],
            mask,
            &[0u32; 32],
        );
        let stage = blk.gload_run(src, mask, (base + start) as isize);
        blk.sstore_run(&mut local, mask, start as isize, &stage);
        // A strided (partially-coalesced) gather: the pattern the analytic
        // model actually has to work for.
        let gathered = blk.gload(src, mask, |l| (base + start + l * 7) % N);
        blk.exec(mask, 2);
        blk.sstore(&mut local, mask, |l| start + l, |l| stage[l] ^ gathered[l]);
        blk.warp_scope_end();
    }
    blk.sync();
    for (start, mask) in warp_chunks(TPB as usize) {
        let vals = blk.sload_run(&local, mask, start as isize);
        blk.gstore_run(dst, mask, (base + start) as isize, &vals);
    }
}

fn warm_device(replay: bool) -> (Gpu, cusha_simt::DevVec<u32>, cusha_simt::DevVec<u32>) {
    let mut cfg = DeviceConfig::gtx780();
    cfg.replay_memo = replay;
    let mut gpu = Gpu::new(cfg);
    let src = gpu.upload(&(0..N as u32).collect::<Vec<_>>());
    let mut dst = gpu.alloc::<u32>(N);
    let desc = KernelDesc::new("warp-hot-loop", BLOCKS, TPB);
    // Warm-up fills the scratch pools and (when enabled) the replay table,
    // so the timed region is pure steady state.
    for _ in 0..3 {
        gpu.launch(&desc, |blk| body(blk, &src, &mut dst));
    }
    (gpu, src, dst)
}

fn bench(c: &mut Criterion) {
    let desc = KernelDesc::new("warp-hot-loop", BLOCKS, TPB);

    let (mut gpu, src, mut dst) = warm_device(false);
    c.bench_function("warp_hot_loop/interpret", |b| {
        b.iter(|| {
            let stats = gpu.launch(&desc, |blk| body(blk, &src, &mut dst));
            black_box(stats.counters.gld_transactions)
        })
    });
    let (_, m, f) = gpu.replay_stats();
    assert!(m == 0 && f > 0, "interpret arm unexpectedly used the table");

    let (mut gpu, src, mut dst) = warm_device(true);
    c.bench_function("warp_hot_loop/replay", |b| {
        b.iter(|| {
            let stats = gpu.launch(&desc, |blk| body(blk, &src, &mut dst));
            black_box(stats.counters.gld_transactions)
        })
    });
    let (h, _, _) = gpu.replay_stats();
    assert!(h > 0, "replay arm never hit the table");
}

/// Operations per iteration in the `layer/*_x256` cases.
const OPS: usize = 256;

fn layers(c: &mut Criterion) {
    let dev = DeviceConfig::gtx780();
    let mut core = CoalesceMemo::new(
        dev.segment_bytes,
        dev.sector_bytes,
        dev.shared_banks,
        dev.bank_width_bytes,
    );
    // Three rotating patterns so no branch history fits one input: a
    // 32-segment gather over 1 MiB and two-way bank conflicts over 4 KiB.
    let gathers: [[u64; WARP]; 3] = std::array::from_fn(|k| {
        std::array::from_fn(|l| 4096 + 4 * ((l as u64 * 7919 + k as u64 * 104_729) % (1 << 18)))
    });
    let words: [[u64; WARP]; 3] =
        std::array::from_fn(|k| std::array::from_fn(|l| 4 * ((l as u64 * 17 + k as u64) % 1024)));
    c.bench_function("layer/gather_analysis_x256", |b| {
        b.iter(|| {
            for op in 0..OPS {
                black_box(core.global(Mask::FULL, black_box(&gathers[op % 3]), 4));
            }
        })
    });
    c.bench_function("layer/bank_analysis_x256", |b| {
        b.iter(|| {
            for op in 0..OPS {
                black_box(core.shared(Mask::FULL, black_box(&words[op % 3])));
            }
        })
    });

    let desc = KernelDesc::new("layer-probe", 1, 32);
    let mut gpu = Gpu::new(dev);
    c.bench_function("layer/supdate_x256", |b| {
        b.iter(|| {
            gpu.launch(&desc, |blk| {
                let mut sh = blk.shared_alloc::<u32>(1024);
                for op in 0..OPS {
                    blk.supdate(
                        &mut sh,
                        Mask::FULL,
                        |l| (l * 17 + op) % 1024 / 2,
                        |l, v| *v += l as u32,
                    );
                }
            })
        })
    });
    // Empty scopes: the probe, the delta add and the commit are all that is
    // timed. `epoch` in the site makes every scope of a launch a new key.
    let scopes = |gpu: &mut Gpu, epoch: u64| {
        gpu.launch(&desc, |blk| {
            for op in 0..OPS as u64 {
                blk.warp_scope(&[0x6c61_796572, op, epoch, 0], Mask::FULL, &[0u32; WARP]);
                blk.warp_scope_end();
            }
        })
    };
    scopes(&mut gpu, 0);
    c.bench_function("layer/replay_hit_x256", |b| b.iter(|| scopes(&mut gpu, 0)));
    let mut epoch = 0;
    c.bench_function("layer/replay_miss_x256", |b| {
        b.iter(|| {
            epoch += 1;
            scopes(&mut gpu, epoch)
        })
    });
    let (hits, misses, _) = gpu.replay_stats();
    assert!(
        hits > 0 && misses > OPS as u64,
        "layer cases missed their regimes"
    );

    // Stage 2 of one shard: per chunk a stride-1 index load, a stride-1
    // value load, the compute and the atomic shared update — all inside one
    // scope, so a hit pays the data movement only. `plain`: a hit moves that
    // data as the kernel's replayed stage does, in one loop over host views.
    let n = OPS * WARP;
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let dest = gpu.upload(&(0..n as u32).map(|e| e * 7 % 1024).collect::<Vec<_>>());
    let vals = gpu.upload(&vec![1u32; n]);
    let stage = |gpu: &mut Gpu, plain: bool| {
        gpu.launch(&desc, |blk| {
            let mut local = blk.shared_alloc::<u32>(1024);
            let site = [0x7374_616765, 0, n as u64, 0];
            if blk.warp_scope(&site, Mask::FULL, &[0u32; WARP]) && plain {
                let slots = local.host_mut();
                for (&d, &v) in dest.host().iter().zip(vals.host()) {
                    slots[d as usize] += v;
                }
            } else {
                for (base, mask) in warp_chunks(n) {
                    let dst = blk.gload_run(&dest, mask, base as isize);
                    let src = blk.gload_run(&vals, mask, base as isize);
                    blk.exec(mask, 2);
                    blk.supdate(&mut local, mask, |l| dst[l] as usize, |l, v| *v += src[l]);
                }
            }
            blk.warp_scope_end();
            black_box(local.host()[0]);
        })
    };
    stage(&mut gpu, false);
    c.bench_function("layer/stage_scope_hit", |b| {
        b.iter(|| stage(&mut gpu, false))
    });
    c.bench_function("layer/stage_plain_loop", |b| {
        b.iter(|| stage(&mut gpu, true))
    });
    assert_eq!(gpu.replay_stats().1, 1, "the stage scope re-recorded");
}

/// One VWC/32 block as `cusha_baselines::vwc` issues it — 8 warps, a vertex
/// each: the SISD loads, the sweep, the ladder and the publish `exec`s are
/// the block's statics, issued unless the launch charges its record, then
/// the functional pass folds from the host views.
fn vwc_block(blk: &mut Block<'_>, offsets: &DevVec<u32>, srcs: &DevVec<u32>, values: &DevVec<u32>) {
    const WARPS: usize = 8;
    let zcol = [0u32; WARP];
    let leader = Mask::first(1);
    let edges = |w: usize| offsets.host()[w] as usize..offsets.host()[w + 1] as usize;
    let mut outcome = None;
    blk.statics(|blk| {
        for w in 0..WARPS {
            blk.gload(offsets, leader, |_| w);
            blk.gload(offsets, leader, |_| w + 1);
            blk.gload(values, leader, |_| w);
            blk.exec(leader, 1);
        }
    });
    blk.statics(|blk| {
        let outcome = outcome.get_or_insert_with(|| blk.shared_alloc::<u32>(WARPS * WARP));
        for w in 0..WARPS {
            for k in edges(w).step_by(WARP) {
                let mask = Mask::first((edges(w).end - k).min(WARP));
                let nbrs = blk.gload_run(srcs, mask, k as isize);
                blk.gload(values, mask, |l| nbrs[l] as usize);
                blk.exec(mask, 2);
                blk.sstore_run(outcome, mask, (w * WARP) as isize, &zcol);
            }
        }
    });
    blk.statics(|blk| {
        let outcome = outcome.get_or_insert_with(|| blk.shared_alloc::<u32>(WARPS * WARP));
        for w in 0..WARPS {
            let mut off = WARP / 2;
            while off >= 1 {
                let mask = Mask::first(off);
                let partial = blk.sload_run(outcome, mask, (w * WARP + off) as isize);
                blk.sstore_run(outcome, mask, (w * WARP) as isize, &partial);
                blk.exec(mask, 1);
                off /= 2;
            }
        }
    });
    blk.statics(|blk| (0..WARPS).for_each(|_| blk.exec(leader, 1)));
    for w in 0..WARPS {
        let nbrs = &srcs.host()[edges(w)];
        let fold = nbrs.iter().map(|&s| values.host()[s as usize]).min();
        black_box(fold);
    }
}

/// A plain launch of `desc` (its statics interpreted), or one through
/// `record` (charged whole once recorded).
fn launch(
    gpu: &mut Gpu,
    desc: &KernelDesc,
    record: Option<&mut LaunchRecord>,
    body: impl FnMut(&mut Block<'_>),
) -> KernelStats {
    match record {
        Some(record) => gpu.try_launch_recorded(desc, record, body).unwrap(),
        None => gpu.launch(desc, body),
    }
}

fn vwc_block_layers(c: &mut Criterion) {
    // [`OPS`] blocks a launch, all over the same 8 vertices: the road
    // lattice's shape at VWC/32 — four in-edges a vertex, one 4-lane sweep
    // step a warp — where a block is lightest and a per-block cost weighs
    // most.
    const DEG: usize = 4;
    let desc = KernelDesc::new("vwc-block", OPS as u32, 256);
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let offsets = gpu.upload(&(0..=8).map(|v| (v * DEG) as u32).collect::<Vec<_>>());
    let srcs = gpu.upload(
        &(0..8 * DEG)
            .map(|e| (e * 7919 % N) as u32)
            .collect::<Vec<_>>(),
    );
    let values = gpu.upload(&(0..N as u32).collect::<Vec<_>>());
    let run = |gpu: &mut Gpu, record: Option<&mut LaunchRecord>| {
        launch(gpu, &desc, record, |blk| {
            vwc_block(blk, &offsets, &srcs, &values)
        })
    };
    let interpreted = run(&mut gpu, None);
    c.bench_function("layer/vwc_block_interpret_x256", |b| {
        b.iter(|| run(&mut gpu, None))
    });
    let mut record = LaunchRecord::default();
    run(&mut gpu, Some(&mut record));
    c.bench_function("layer/vwc_block_replay_x256", |b| {
        b.iter(|| run(&mut gpu, Some(&mut record)))
    });
    assert_eq!(run(&mut gpu, Some(&mut record)), interpreted);
    assert_eq!(gpu.replay_stats().1, 1, "the record re-recorded");
}

fn kcore_scan_layers(c: &mut Criterion) {
    // [`OPS`] blocks of 8 warps a launch, as `cusha_frontier::kcore` issues
    // its degree scan on the road lattice: every vertex alive, one in 61
    // below `k`. The accounting pass is the blocks' statics.
    const K: u32 = 2;
    let n = OPS * TPB as usize;
    let desc = KernelDesc::new("kcore-scan", OPS as u32, TPB);
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let alive = gpu.upload(&vec![1u32; n]);
    let deg = gpu.upload(
        &(0..n)
            .map(|v| 1 + (v % 61).min(3) as u32)
            .collect::<Vec<_>>(),
    );
    let mut active = gpu.alloc::<u32>(n);
    let mut scan = |gpu: &mut Gpu, record: Option<&mut LaunchRecord>| {
        launch(gpu, &desc, record, |blk| {
            let block_base = blk.id() as usize * TPB as usize;
            let tiles = || warp_chunks(TPB as usize).map(move |(w, m)| (block_base + w, m));
            blk.statics(|blk| {
                for (base, mask) in tiles() {
                    blk.gload_run(&alive, mask, base as isize);
                    blk.gload_run(&deg, mask, base as isize);
                    blk.exec(mask, 1);
                }
            });
            for (base, mask) in tiles() {
                let (alive, deg) = (&alive.host()[base..], &deg.host()[base..]);
                let set = Mask::from_fn(|l| mask.lane(l) && alive[l] != 0 && deg[l] < K);
                if !set.is_empty() {
                    blk.gstore_run(&mut active, set, base as isize, &[1; WARP]);
                }
            }
        })
    };
    let interpreted = scan(&mut gpu, None);
    c.bench_function("layer/kcore_scan_interpret_x256", |b| {
        b.iter(|| scan(&mut gpu, None))
    });
    let mut record = LaunchRecord::default();
    scan(&mut gpu, Some(&mut record));
    c.bench_function("layer/kcore_scan_replay_x256", |b| {
        b.iter(|| scan(&mut gpu, Some(&mut record)))
    });
    assert_eq!(scan(&mut gpu, Some(&mut record)), interpreted);
    assert_eq!(gpu.replay_stats().1, 1, "the record re-recorded");
}

fn warm_query(c: &mut Criterion) {
    let g = rmat(&RmatConfig::graph500(15, 200_000, 1));
    let cfg = CuShaConfig::cw();
    let n_per = PreparedLayout::select_n_per(&g, &cfg, 4);
    let built = PreparedLayout::build(&g, Repr::ConcatWindows, n_per);
    let query = |layout: &PreparedLayout| {
        let out = try_run_warm(&Bfs::new(0), &g, layout, &cfg, None, &mut NoopObserver);
        black_box(out.expect("bfs converges").stats.iterations)
    };
    // A clone copies the arrays (a memcpy, included in the time) and none
    // of the replay tables.
    c.bench_function("warm_query/cold_layout", |b| {
        b.iter(|| query(&built.clone()))
    });
    query(&built);
    c.bench_function("warm_query/second_run", |b| b.iter(|| query(&built)));
}

criterion_group!(
    benches,
    bench,
    layers,
    vwc_block_layers,
    kcore_scan_layers,
    warm_query
);
criterion_main!(benches);
