//! Micro-benchmarks of the host-side hot paths: coalescing-memo hit vs.
//! miss, a single steady-state kernel launch, and whole fleet runs at 1/2/4
//! devices. The fleet runs its devices in order on one thread, so the three
//! fleet rows show what partitioning costs the *host* at a fixed iteration
//! count: the same shards in more, smaller launches, plus the outbox, spill
//! application and halo accounting a one-device fleet does not have.

use criterion::{criterion_group, criterion_main, Criterion};
use cusha_algos::PageRank;
use cusha_core::{run_multi, CuShaConfig, MultiConfig};
use cusha_graph::generators::rmat::{rmat, RmatConfig};
use cusha_simt::{warp_chunks, DeviceConfig, Gpu, KernelDesc};
use std::hint::black_box;

/// A CuSha-shaped block body over `n` elements: strided gathers into
/// shared memory, then a coalesced write-back.
fn launch(gpu: &mut Gpu, desc: &KernelDesc, n: usize) -> u64 {
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
            blk.gstore(&mut dst, mask, |l| base + start + l, |l| vals[l]);
        }
    });
    stats.counters.gld_transactions
}

fn bench(c: &mut Criterion) {
    let n = 1 << 12;
    let desc = KernelDesc::new("hp-probe", 16, 256);

    // Memo miss: a fresh device re-derives every access pattern.
    c.bench_function("host_parallel/memo_miss_launch", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(DeviceConfig::gtx780());
            black_box(launch(&mut gpu, &desc, n))
        })
    });

    // Memo hit: a warmed device replays coalescing analyses from its table.
    let mut warm = Gpu::new(DeviceConfig::gtx780());
    launch(&mut warm, &desc, n);
    c.bench_function("host_parallel/memo_hit_launch", |b| {
        b.iter(|| black_box(launch(&mut warm, &desc, n)))
    });

    // Steady-state single launch: pooled buffers, zero allocations.
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let src = gpu.upload(&(0..n as u32).collect::<Vec<_>>());
    let mut dst = gpu.alloc::<u32>(n);
    let mut body = |blk: &mut cusha_simt::Block<'_>| {
        let base = blk.id() as usize * 256;
        for (start, mask) in warp_chunks(256) {
            let vals = blk.gload(&src, mask, |l| (base + start + l * 7) % n);
            blk.gstore(&mut dst, mask, |l| base + start + l, |l| vals[l]);
        }
    };
    gpu.launch(&desc, &mut body);
    c.bench_function("host_parallel/steady_state_launch", |b| {
        b.iter(|| black_box(gpu.launch(&desc, &mut body).counters.gld_transactions))
    });

    // Fleet iteration cost at 1/2/4 devices (fixed iteration count so the
    // three are comparable).
    let g = rmat(&RmatConfig::graph500(11, 60_000, 9));
    let mut base = CuShaConfig::cw();
    base.max_iterations = 4;
    for devices in [1usize, 2, 4] {
        c.bench_function(&format!("host_parallel/fleet_x{devices}"), |b| {
            b.iter(|| {
                black_box(
                    run_multi(
                        &PageRank::new(),
                        &g,
                        &MultiConfig::new(base.clone(), devices),
                    )
                    .stats
                    .iterations,
                )
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
