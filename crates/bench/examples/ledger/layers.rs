//! Per-layer probes: direct timed calls into each layer's public functions,
//! run on whichever graph the workload under measurement uses, so that a
//! layer's number is taken at the size that workload would feel it.
//!
//! Every probe is prefixed with its module. Which end-to-end metric each
//! should move, and on which workload, is tabulated in the README.

use crate::harness::{
    median, median_ms, nproc, ns_per_call, timed_ms, HostReference, Metrics, Rng, Spans,
};
use crate::matrix::{fleet_run, run_script, simulated_rows};
use crate::serve::{MutateScript, ReadScript, ServeMutate, ServeRead};
use crate::workload::{oracle_traversal, settle, ProbeInputs, Workload};
use cusha::algos::{plan_pairs, Bfs, FusedPair, TraversalKind};
use cusha::baselines::{try_run_mtcpu, try_run_vwc, MtcpuConfig, VwcConfig};
use cusha::core::integrity::checksum;
use cusha::core::{
    run_engine, try_run_streamed, try_run_warm, CuShaConfig, IntegrityConfig, IntegrityMode,
    NoopObserver, PreparedLayout, Repr, RunStats, ShardEngine, StreamingConfig,
};
use cusha::frontier::{
    try_run_frontier_warm, try_run_kcore, try_run_triangles, FrontierConfig, PreparedFrontier,
};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::{fingerprint, io, Csr, FleetPartition, MutationBatch};
use cusha::obs::{MetricsRegistry, Tracer};
use cusha::serve::{parse_json, parse_line, run_session, ServeConfig, Service, Wal};
use cusha::simt::coalesce::{bank_conflicts, bank_conflicts_seq, coalesce, coalesce_seq};
use cusha::simt::{
    warp_chunks, Block, CoalesceMemo, DevVec, DeviceConfig, Gpu, KernelDesc, Mask, WARP,
};
use std::hint::black_box;
use std::path::Path;

/// Checked operations the probes made and how many failed.
#[derive(Default)]
pub struct ProbeOutcome {
    pub attempted: u64,
    pub failed: u64,
}

impl ProbeOutcome {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One timed BFS/CW warm run under `cfg`: host milliseconds and stats.
fn bfs_cw_ms(
    inp: &ProbeInputs<'_>,
    layout: &PreparedLayout,
    cfg: &CuShaConfig,
    reps: usize,
    oracle: &[u32],
    outcome: &mut ProbeOutcome,
) -> (f64, RunStats) {
    let mut times = Vec::new();
    let mut last = RunStats::default();
    for _ in 0..reps {
        let (ms, out) = timed_ms(|| {
            try_run_warm(
                &Bfs::new(inp.source),
                inp.graph,
                layout,
                cfg,
                None,
                &mut NoopObserver,
            )
        });
        let settled = settle(out);
        outcome.check(settled.as_ref().is_some_and(|(v, _)| v == oracle));
        if let Some((_, stats)) = settled {
            last = stats;
        }
        times.push(ms);
    }
    (median(&times), last)
}

/// The `warp_hot_loop` bench's CuSha-shaped kernel body: scoped shared
/// staging plus a strided gather.
fn hot_loop_body(blk: &mut Block<'_>, src: &DevVec<u32>, dst: &mut DevVec<u32>, n: usize) {
    const TPB: usize = 256;
    let base = blk.id() as usize * TPB;
    let mut local = blk.shared_alloc::<u32>(TPB);
    for (start, mask) in warp_chunks(TPB) {
        blk.warp_scope(
            &[0x7768_4c4f4f50, blk.id() as u64, start as u64, 0],
            mask,
            &[0u32; 32],
        );
        let stage = blk.gload_run(src, mask, (base + start) as isize);
        blk.sstore_run(&mut local, mask, start as isize, &stage);
        let gathered = blk.gload(src, mask, |l| (base + start + l * 7) % n);
        blk.exec(mask, 2);
        blk.sstore(&mut local, mask, |l| start + l, |l| stage[l] ^ gathered[l]);
        blk.warp_scope_end();
    }
    blk.sync();
    for (start, mask) in warp_chunks(TPB) {
        let vals = blk.sload_run(&local, mask, start as isize);
        blk.gstore_run(dst, mask, (base + start) as isize, &vals);
    }
}

/// Microseconds per steady-state launch of the hot-loop kernel with the
/// warp-trace replay memo on or off.
fn hot_loop_launch_us(replay: bool) -> f64 {
    const N: usize = 1 << 14;
    let mut cfg = DeviceConfig::gtx780();
    cfg.replay_memo = replay;
    let mut gpu = Gpu::new(cfg);
    let src = gpu.upload(&(0..N as u32).collect::<Vec<_>>());
    let mut dst = gpu.alloc::<u32>(N);
    let desc = KernelDesc::new("warp-hot-loop", 16, 256);
    for _ in 0..3 {
        gpu.launch(&desc, |blk| hot_loop_body(blk, &src, &mut dst, N));
    }
    ns_per_call(20, || {
        black_box(gpu.launch(&desc, |blk| hot_loop_body(blk, &src, &mut dst, N)));
    }) / 1e3
}

/// The three address shapes the accounting functions are timed on:
/// coalesced, strided, random.
fn address_sets(rng: &mut Rng) -> [[Option<(u64, u32)>; WARP]; 3] {
    [
        std::array::from_fn(|l| Some((4096 + 4 * l as u64, 4))),
        std::array::from_fn(|l| Some((4096 + 132 * l as u64, 4))),
        std::array::from_fn(|_| Some((4 * u64::from(rng.below(1 << 20)), 4))),
    ]
}

fn simt_probes(inp: &ProbeInputs<'_>, m: &mut Metrics) {
    let mut rng = Rng(inp.seed ^ 0x73_696d74);
    let sets = address_sets(&mut rng);
    let words: [[Option<u64>; WARP]; 3] =
        std::array::from_fn(|i| std::array::from_fn(|l| sets[i][l].map(|(a, _)| a)));
    let dev = DeviceConfig::gtx780();
    let mut i = 0;
    let mut next = || {
        i = (i + 1) % 3;
        i
    };
    const CALLS: usize = 30_000;
    m.put(
        "simt.coalesce_ns",
        ns_per_call(CALLS, || {
            black_box(coalesce(
                black_box(&sets[next()]),
                dev.segment_bytes,
                dev.sector_bytes,
            ));
        }),
        5,
    );
    m.put(
        "simt.coalesce_seq_ns",
        ns_per_call(CALLS, || {
            black_box(coalesce_seq(
                black_box(4096 + 4 * next() as u64),
                4,
                Mask::FULL,
                dev.segment_bytes,
                dev.sector_bytes,
            ));
        }),
        5,
    );
    let mut memo = CoalesceMemo::new(
        dev.segment_bytes,
        dev.sector_bytes,
        dev.shared_banks,
        dev.bank_width_bytes,
    );
    m.put(
        "simt.coalesce_memo_ns",
        ns_per_call(CALLS, || {
            black_box(memo.coalesce(black_box(&sets[next()])));
        }),
        5,
    );
    m.put(
        "simt.bank_conflicts_ns",
        ns_per_call(CALLS, || {
            black_box(bank_conflicts(
                black_box(&words[next()]),
                dev.shared_banks,
                dev.bank_width_bytes,
            ));
        }),
        5,
    );
    m.put(
        "simt.bank_conflicts_seq_ns",
        ns_per_call(CALLS, || {
            black_box(bank_conflicts_seq(
                black_box(4 * next() as u64),
                4,
                Mask::FULL,
                dev.shared_banks,
                dev.bank_width_bytes,
            ));
        }),
        5,
    );
    m.put("simt.launch_interpret_us", hot_loop_launch_us(false), 5);
    m.put("simt.launch_replay_us", hot_loop_launch_us(true), 5);
    m.put(
        "simt.gpu_new_us",
        ns_per_call(20, || {
            black_box(Gpu::new(DeviceConfig::gtx780()));
        }) / 1e3,
        5,
    );
    let block = vec![7u32; 1 << 20];
    let mut gpu = Gpu::new(DeviceConfig::gtx780());
    let upload_ms = median_ms(5, || {
        black_box(gpu.upload(&block));
    });
    m.put(
        "simt.upload_gb_per_s",
        (block.len() * 4) as f64 / 1e9 / (upload_ms / 1e3),
        5,
    );
}

fn graph_probes(inp: &ProbeInputs<'_>, reps: usize, m: &mut Metrics, n_per: u32) {
    let g = inp.graph;
    let scale = (f64::from(g.num_vertices().max(2))).log2().round() as u32;
    m.time_ms("graph.generate_ms", reps, || {
        black_box(rmat(&RmatConfig::graph500(
            scale,
            u64::from(g.num_edges()),
            inp.seed,
        )));
    });
    let bin = inp.tmp.join("probe.bin");
    let text = inp.tmp.join("probe.txt");
    m.time_ms("graph.save_binary_ms", reps, || {
        io::save_binary(g, &bin).expect("temp dir is writable")
    });
    m.time_ms("graph.load_binary_ms", reps, || {
        black_box(io::load_binary(&bin).expect("file just written"));
    });
    io::save_edge_list(g, &text).expect("temp dir is writable");
    m.time_ms("graph.load_edge_list_ms", reps, || {
        black_box(io::load_edge_list(&text).expect("file just written"));
    });
    m.time_ms("graph.validate_ms", reps.max(3), || {
        black_box(g.validate()).expect("generated graph is valid");
    });
    m.time_ms("graph.csr_build_ms", reps, || {
        black_box(Csr::from_graph(g));
    });
    m.time_ms("graph.fingerprint_ms", reps.max(3), || {
        black_box(fingerprint(g));
    });
    m.time_ms("graph.partition_ms", reps, || {
        black_box(FleetPartition::from_graph(g, n_per, 4));
    });
    let mut live = g.clone();
    let mut rng = Rng(inp.seed ^ 0x61_70706c);
    let n = g.num_vertices();
    let applies = reps.max(3);
    m.time_ms("graph.mutate_apply_ms", applies, || {
        let gone = live.edge(rng.below(live.num_edges()));
        let mut batch = MutationBatch::new().delete(gone.src, gone.dst);
        for _ in 0..6 {
            batch = batch.insert(rng.below(n), rng.below(n), 1);
        }
        batch.apply(&mut live).expect("batch deletes a live edge");
    });
}

/// Median of `process` minus median of `in_process`, each timed three
/// times, alternating so both sides see the same machine state; also the
/// process median itself.
fn process_overhead_ms(mut process: impl FnMut(), mut in_process: impl FnMut()) -> (f64, f64) {
    let mut spawned = Vec::new();
    let mut called = Vec::new();
    for _ in 0..3 {
        spawned.push(timed_ms(&mut process).0);
        called.push(timed_ms(&mut in_process).0);
    }
    (median(&spawned), median(&spawned) - median(&called))
}

/// `cusha` one-shot and `cusha serve --script` as processes, against the
/// same work done in-process: what `src/bin/cusha.rs` adds to the library.
fn cli_probes(
    inp: &ProbeInputs<'_>,
    cusha_bin: &Path,
    m: &mut Metrics,
    outcome: &mut ProbeOutcome,
) {
    let bin = inp.tmp.join("probe.bin");
    let out = inp.tmp.join("probe.out");
    let mut spawn = |args: &[&str]| {
        let status = std::process::Command::new(cusha_bin)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        outcome.check(status.is_ok_and(|s| s.success()));
    };
    let source = inp.source.to_string();
    let (bin_s, out_s) = (bin.to_string_lossy(), out.to_string_lossy());
    let (process_ms, overhead_ms) = process_overhead_ms(
        || {
            spawn(&[
                "--input", &bin_s, "--algo", "bfs", "--engine", "cw", "--source", &source,
                "--output", &out_s,
            ]);
        },
        || {
            let g = io::load_binary(&bin).expect("file just written");
            black_box(
                run_engine(
                    &mut ShardEngine::new(Repr::ConcatWindows),
                    &Bfs::new(inp.source),
                    &g,
                    &CuShaConfig::cw(),
                    None,
                    &mut NoopObserver,
                )
                .is_ok(),
            );
        },
    );
    m.put("cli.oneshot_process_ms", process_ms, 3);
    m.put("cli.oneshot_overhead_ms", overhead_ms, 3);

    let mut rng = Rng(inp.seed ^ 0x63_6c69);
    let n = inp.graph.num_vertices();
    let mut script = String::new();
    for _ in 0..2 {
        script.push_str(&format!(
            "bfs {}\nbfs {}\nflush\n",
            rng.below(n),
            rng.below(n)
        ));
    }
    script.push_str("quit\n");
    let script_path = inp.tmp.join("probe.script");
    std::fs::write(&script_path, &script).expect("temp dir is writable");
    let script_s = script_path.to_string_lossy();
    let (_, overhead_ms) = process_overhead_ms(
        || spawn(&["serve", "--input", &bin_s, "--script", &script_s]),
        || {
            let g = io::load_binary(&bin).expect("file just written");
            let mut svc = Service::new(g, ServeConfig::default()).expect("valid graph");
            let mut sink = Vec::new();
            run_session(&mut svc, script.as_bytes(), &mut sink).expect("in-memory sink");
            black_box(sink);
        },
    );
    m.put("cli.serve_script_overhead_ms", overhead_ms, 3);
}

/// `Wal` called directly on a scratch log with the batches a `serve_mutate`
/// cycle would commit.
fn wal_probes(inp: &ProbeInputs<'_>, m: &mut Metrics, outcome: &mut ProbeOutcome) {
    let dir = inp.tmp.join("probe-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join("probe.wal");
    let mut rng = Rng(inp.seed ^ 0x77_616c);
    let n = inp.graph.num_vertices();
    let mut live = inp.graph.clone();
    // Snapshot on every applied batch, so `note_applied` always compacts.
    let Ok((mut wal, _, _, _)) = Wal::open(&path, inp.graph, 1, None) else {
        outcome.check(false);
        return;
    };
    let mut commit = Vec::new();
    let mut snapshot = Vec::new();
    for epoch in 1..=8u64 {
        let mut batch = MutationBatch::new();
        for _ in 0..6 {
            batch = batch.insert(rng.below(n), rng.below(n), 1);
        }
        let (ms, r) = timed_ms(|| wal.commit_batch(epoch, &batch));
        outcome.check(r.is_ok());
        commit.push(ms);
        batch.apply(&mut live).expect("insert-only batch is valid");
        let (ms, r) = timed_ms(|| wal.note_applied(&live, epoch));
        outcome.check(r.is_ok_and(|compacted| compacted));
        snapshot.push(ms);
    }
    drop(wal);
    m.put("serve.wal_commit_ms_p50", median(&commit), commit.len());
    m.put("serve.snapshot_ms", median(&snapshot), snapshot.len());
    let mut opens = Vec::new();
    for _ in 0..3 {
        let (ms, r) = timed_ms(|| Wal::open(&path, inp.graph, 1, None));
        outcome.check(r.is_ok_and(|(_, g, _, _)| fingerprint(&g) == fingerprint(&live)));
        opens.push(ms);
    }
    m.put("serve.wal_open_ms", median(&opens), opens.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Short `serve_read` and `serve_mutate` scripts on the workload's graph,
/// for the `serve.` numbers the workload's own passes do not supply.
fn serve_probes(inp: &ProbeInputs<'_>, m: &mut Metrics, outcome: &mut ProbeOutcome) {
    let read = ReadScript {
        solo: 3,
        batches: 1,
        batch_width: 4,
        hot: 12,
    };
    // These short passes report per-layer numbers, which stand as measured:
    // the reference is never ticked and no window is closed around them.
    let mut host = HostReference::open();
    let mut w = ServeRead::on(inp.graph.clone(), inp.seed, &read, &inp.tmp);
    let pass = w.pass(&mut Spans::new(false), &mut host);
    outcome.attempted += pass.attempted;
    outcome.failed += pass.failed;
    w.layer_metrics(&[pass], m);
    let mutate = MutateScript {
        cycles: 3,
        queries_per_cycle: 2,
        recoveries: 2,
        snapshot_every: 2,
    };
    let mut w = ServeMutate::on(inp.graph.clone(), inp.seed, &mutate, &inp.tmp);
    let pass = w.pass(&mut Spans::new(false), &mut host);
    outcome.attempted += pass.attempted;
    outcome.failed += pass.failed;
    let mut own = Metrics::default();
    w.layer_metrics(&[pass], &mut own);
    // The read script already supplied the metrics both scripts share.
    for x in own.0 {
        if m.get(&x.name).is_none() {
            m.0.push(x);
        }
    }

    let line = format!("{{\"id\":1,\"op\":\"sssp\",\"source\":{}}}", inp.source);
    m.put(
        "serve.parse_line_us",
        ns_per_call(2_000, || {
            black_box(parse_line(black_box(&line))).expect("well-formed query line");
        }) / 1e3,
        5,
    );
    let response = "{\"id\":1,\"op\":\"sssp\",\"status\":\"ok\",\"iterations\":6,\
                    \"modeled_ms\":2.845113,\"cached\":false,\"checksum\":\"00c0ffee00c0ffee\"}";
    m.put(
        "obs.json_parse_us",
        ns_per_call(2_000, || {
            black_box(parse_json(black_box(response))).expect("well-formed response line");
        }) / 1e3,
        5,
    );
    let mut svc = Service::new(inp.graph.clone(), ServeConfig::default()).expect("valid graph");
    // Admission alone: queued queries are dropped with the service.
    let mut rng = Rng(inp.seed ^ 0x61_646d);
    let n = inp.graph.num_vertices();
    let lines: Vec<String> = (0..32).map(|_| format!("bfs {}", rng.below(n))).collect();
    let (ms, ()) = timed_ms(|| {
        for l in &lines {
            black_box(svc.handle_line(l));
        }
    });
    m.put("serve.admit_us", ms * 1e3 / lines.len() as f64, lines.len());
    m.put(
        "serve.render_stats_us",
        ns_per_call(200, || {
            black_box(svc.handle_line("stats"));
        }) / 1e3,
        5,
    );
}

fn matrix_probes(inp: &ProbeInputs<'_>, jobs: usize, m: &mut Metrics, outcome: &mut ProbeOutcome) {
    let script = |jobs: usize| {
        let (ms, result) = timed_ms(|| run_script(inp.matrix_scale, jobs));
        (ms / 1e3, result)
    };
    let (jobs1_s, seq) = script(1);
    let (jobs_n_s, par) = script(jobs);
    let (csv_ms, seq_rows) = timed_ms(|| simulated_rows(&seq));
    // Any job count must yield the byte-identical simulated matrix.
    outcome.check(seq_rows == simulated_rows(&par));
    m.put("bench.matrix_jobs1_s", jobs1_s, 1);
    m.put("bench.matrix_jobsN_s", jobs_n_s, 1);
    m.put("bench.parallel_speedup", jobs1_s / jobs_n_s, 1);
    m.put("bench.matrix_csv_ms", csv_ms, 1);
}

/// Runs every shared probe on the workload's inputs.
pub fn run(inp: &ProbeInputs<'_>, jobs: usize, cusha_bin: &Path, m: &mut Metrics) -> ProbeOutcome {
    let mut outcome = ProbeOutcome::default();
    let g = inp.graph;
    // One repetition where a single BFS already takes a tenth of a second
    // keeps a traced run inside its time budget; smaller inputs can afford
    // a median of three.
    let (probe_ms, _) = timed_ms(|| oracle_traversal(g, TraversalKind::Bfs, inp.source));
    let reps = if probe_ms >= 10.0 { 1 } else { 3 };
    let cfg = CuShaConfig::cw();
    let select_ns = ns_per_call(200, || {
        black_box(PreparedLayout::select_n_per(black_box(g), &cfg, 4));
    });
    m.put("core.select_n_per_us", select_ns / 1e3, 5);
    let n_per = PreparedLayout::select_n_per(g, &cfg, 4);
    graph_probes(inp, reps, m, n_per);

    m.time_ms("core.layout_gs_ms", reps, || {
        black_box(PreparedLayout::build(g, Repr::GShards, n_per));
    });
    let mut layout = None;
    m.time_ms("core.layout_cw_ms", reps, || {
        layout = Some(PreparedLayout::build(g, Repr::ConcatWindows, n_per));
    });
    let layout = layout.expect("median_ms runs at least once");

    let (oracle_ms, (oracle, _)) = timed_ms(|| oracle_traversal(g, TraversalKind::Bfs, inp.source));
    m.put("algos.oracle_ms", oracle_ms, 1);

    let (warm_ms, stats) = bfs_cw_ms(inp, &layout, &cfg, reps.max(2), &oracle, &mut outcome);
    m.put("core.run_warm_ms", warm_ms, reps.max(2));
    let warp_instr = stats.kernel.counters.warp_instructions.max(1);
    m.put(
        "simt.host_ns_per_warp_instr",
        warm_ms * 1e6 / warp_instr as f64,
        reps.max(2),
    );
    let memo = stats.memo;
    let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    m.put(
        "simt.replay_hit_ratio",
        ratio(memo.replay_hits, memo.replay_misses),
        1,
    );
    m.put(
        "simt.coalesce_memo_hit_ratio",
        ratio(memo.coalesce_hits, memo.coalesce_misses),
        1,
    );
    m.put("simt.replay_fallbacks", memo.replay_fallbacks as f64, 1);

    let mut plain = cfg.clone();
    plain.device.replay_memo = false;
    let (off_ms, _) = bfs_cw_ms(inp, &layout, &plain, reps, &oracle, &mut outcome);
    m.put("simt.replay_off_ratio", off_ms / warm_ms, reps);

    let mut full = cfg.clone();
    full.integrity = IntegrityConfig::with_mode(IntegrityMode::Full);
    let (full_ms, _) = bfs_cw_ms(inp, &layout, &full, reps, &oracle, &mut outcome);
    m.put("core.integrity_full_ratio", full_ms / warm_ms, reps);

    let mut traced = cfg.clone();
    let tracer = Tracer::enabled();
    traced.trace = tracer.clone();
    let (traced_ms, traced_stats) = bfs_cw_ms(inp, &layout, &traced, reps, &oracle, &mut outcome);
    m.put("obs.trace_on_ratio", traced_ms / warm_ms, reps);
    m.time_ms("obs.chrome_export_ms", reps, || {
        black_box(cusha::obs::chrome_trace_json(&tracer));
    });
    m.put(
        "obs.metrics_record_us",
        ns_per_call(50, || {
            let mut reg = MetricsRegistry::new();
            traced_stats.record_metrics(&mut reg, &[("algo", "bfs"), ("engine", "cw")]);
            black_box(reg);
        }) / 1e3,
        5,
    );

    let engine_ms = median_ms(reps, || {
        let r = run_engine(
            &mut ShardEngine::new(Repr::ConcatWindows),
            &Bfs::new(inp.source),
            g,
            &cfg,
            None,
            &mut NoopObserver,
        );
        outcome.check(settle(r).is_some_and(|(v, _)| v == oracle));
    });
    m.put("core.run_engine_overhead_ms", engine_ms - warm_ms, reps);

    let values: Vec<u32> = (0..1 << 22).collect();
    let checksum_ms = median_ms(3, || {
        black_box(checksum(black_box(&values)));
    });
    m.put(
        "core.checksum_gb_per_s",
        (values.len() * 4) as f64 / 1e9 / (checksum_ms / 1e3),
        3,
    );
    drop(values);

    let resident = (u64::from(g.num_edges()) * 16 / 4).max(4096);
    let streamed = StreamingConfig::new(cfg.clone(), resident);
    m.time_ms("core.streamed_run_ms", reps, || {
        let r = try_run_streamed(&Bfs::new(inp.source), g, &streamed);
        outcome.check(settle(r).is_some_and(|(v, _)| v == oracle));
    });
    for (name, j) in [("core.fleet_jobs1_ms", 1), ("core.fleet_jobsN_ms", jobs)] {
        m.time_ms(name, reps, || {
            outcome.check(fleet_run(g, inp.source, j).is_some_and(|(v, _)| v == oracle));
        });
    }

    // The service launches every traversal as a `FusedPair`; a lone query
    // rides with an idle lane. Fusing pays when one two-lane launch costs
    // less than two one-lane launches.
    let pair_n_per = PreparedLayout::select_n_per(g, &cfg, 8);
    let pair_layout = PreparedLayout::build(g, Repr::ConcatWindows, pair_n_per);
    let other = cusha_bench::bench_defs::default_source(g);
    let mut pair_ms = |sources: [Option<u32>; 2]| {
        let prog = FusedPair::new(TraversalKind::Bfs, sources);
        median_ms(reps, || {
            let r = try_run_warm(&prog, g, &pair_layout, &cfg, None, &mut NoopObserver);
            outcome.check(r.is_ok());
        })
    };
    let fused = pair_ms([Some(inp.source), Some(other)]);
    let singles = pair_ms([Some(inp.source), None]) + pair_ms([Some(other), None]);
    m.put("algos.fused_pair_ratio", fused / singles, reps);
    let sources: Vec<u32> = (0..16).collect();
    m.put(
        "algos.plan_pairs_us",
        ns_per_call(2_000, || {
            black_box(plan_pairs(TraversalKind::Sssp, black_box(&sources)));
        }) / 1e3,
        5,
    );

    m.time_ms("baselines.vwc_run_ms", reps, || {
        let r = try_run_vwc(
            &Bfs::new(inp.source),
            g,
            &VwcConfig::new(32),
            None,
            &mut NoopObserver,
        );
        outcome.check(r.is_ok_and(|o| o.values == oracle));
    });
    m.time_ms("baselines.mtcpu_run_ms", reps, || {
        let r = try_run_mtcpu(
            &Bfs::new(inp.source),
            g,
            &MtcpuConfig::new(nproc()),
            &mut NoopObserver,
        );
        outcome.check(r.is_ok_and(|o| o.values == oracle));
    });

    let mut pf = None;
    m.time_ms("frontier.prepare_ms", reps, || {
        pf = Some(PreparedFrontier::build(g))
    });
    let pf = pf.expect("median_ms runs at least once");
    let fcfg = FrontierConfig::new();
    m.time_ms("frontier.run_warm_ms", reps, || {
        let r = try_run_frontier_warm(
            &Bfs::new(inp.source),
            g,
            &pf,
            &fcfg,
            None,
            &mut NoopObserver,
        );
        outcome.check(r.is_ok_and(|o| o.values == oracle));
    });
    m.time_ms("frontier.kcore_ms", reps, || {
        outcome.check(try_run_kcore(g, &fcfg, None, &mut NoopObserver).is_ok());
    });
    m.time_ms("frontier.tc_ms", reps, || {
        outcome.check(try_run_triangles(g, &fcfg).is_ok());
    });

    simt_probes(inp, m);
    wal_probes(inp, m, &mut outcome);
    serve_probes(inp, m, &mut outcome);
    matrix_probes(inp, jobs, m, &mut outcome);
    cli_probes(inp, cusha_bin, m, &mut outcome);
    outcome
}
