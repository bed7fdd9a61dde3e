//! Micro-benchmarks of the substrates: shard/CW construction, CSR
//! construction, generators, the binary loader and its digests, and raw
//! simulator kernel throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cusha_core::integrity::scrub;
use cusha_core::{ConcatWindows, CuShaConfig, GShards, PreparedLayout};
use cusha_graph::generators::rmat::{rmat, RmatConfig};
use cusha_graph::io::{load_binary, save_binary, Fnv1a, WordDigest};
use cusha_graph::Csr;
use cusha_simt::{warp_chunks, DeviceConfig, Gpu, KernelDesc, Mask};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let g = rmat(&RmatConfig::graph500(13, 1 << 16, 99));

    c.bench_function("substrate/rmat_generate_64k_edges", |b| {
        b.iter(|| black_box(rmat(&RmatConfig::graph500(13, 1 << 16, 7))))
    });

    c.bench_function("substrate/csr_from_graph", |b| {
        b.iter(|| black_box(Csr::from_graph(&g)))
    });

    c.bench_function("substrate/gshards_from_graph_n512", |b| {
        b.iter(|| black_box(GShards::from_graph(&g, 512)))
    });

    // The one-shot power-law input: 1M edges at the autotuned |N| for 4-byte
    // values (352), as `PreparedLayout::build` sees it.
    let big = rmat(&RmatConfig::graph500(16, 1_000_000, 1));
    let n_per = PreparedLayout::select_n_per(&big, &CuShaConfig::gs(), 4);
    c.bench_function("substrate/gshards_from_graph_1m", |b| {
        b.iter(|| black_box(GShards::from_graph(&big, n_per)))
    });

    // The same graph's binary payload (12 bytes per edge, 12 MB): the v2
    // digest against the v3 one, and the scrubber's over as many bytes of
    // `u32` values. Then a whole v3 load of the file, page-cached.
    let payload: Vec<u8> = big
        .edges()
        .iter()
        .flat_map(|e| [e.src, e.dst, e.weight])
        .flat_map(u32::to_le_bytes)
        .collect();
    let values: Vec<u32> = payload
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let mut digest = c.benchmark_group("substrate/digest_12mb");
    digest.throughput(Throughput::Bytes(payload.len() as u64));
    digest.bench_function("fnv1a", |b| b.iter(|| Fnv1a::of(black_box(&payload))));
    digest.bench_function("word", |b| b.iter(|| WordDigest::of(black_box(&payload))));
    digest.bench_function("scrub_u32", |b| b.iter(|| scrub(black_box(&values))));
    digest.finish();
    drop((payload, values));

    let bin = std::env::temp_dir().join(format!("cusha-substrate-{}.bin", std::process::id()));
    save_binary(&big, &bin).expect("temp dir is writable");
    c.bench_function("substrate/load_binary_1m", |b| {
        b.iter(|| black_box(load_binary(&bin).expect("file just written")))
    });
    std::fs::remove_file(&bin).ok();
    drop(big);

    let gs = GShards::from_graph(&g, 512);
    c.bench_function("substrate/cw_from_gshards", |b| {
        b.iter(|| black_box(ConcatWindows::from_gshards(&gs)))
    });

    c.bench_function("substrate/simt_coalesced_copy_64k", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(DeviceConfig::gtx780());
            let src = gpu.upload(&vec![1u32; 1 << 16]);
            let mut dst = gpu.alloc::<u32>(1 << 16);
            let desc = KernelDesc::new("copy", 64, 256);
            gpu.launch(&desc, |blk| {
                let base = blk.id() as usize * 1024;
                for (start, mask) in warp_chunks(1024) {
                    let vals = blk.gload(&src, mask, |l| base + start + l);
                    blk.gstore(&mut dst, mask, |l| base + start + l, |l| vals[l]);
                }
            });
            black_box(dst.host()[0])
        })
    });

    c.bench_function("substrate/simt_gather_64k", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(DeviceConfig::gtx780());
            let src = gpu.upload(&(0..1u32 << 16).collect::<Vec<_>>());
            let desc = KernelDesc::new("gather", 64, 256);
            let stats = gpu.launch(&desc, |blk| {
                let base = blk.id() as usize * 1024;
                for (start, mask) in warp_chunks(1024) {
                    // Strided gather: worst-case coalescing.
                    black_box(blk.gload(&src, mask, |l| (base + start + l * 37) % (1 << 16)));
                }
            });
            black_box(stats.counters.gld_transactions)
        })
    });

    c.bench_function("substrate/mask_ops", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for n in 0..=32 {
                acc += black_box(Mask::first(n)).count();
            }
            acc
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
