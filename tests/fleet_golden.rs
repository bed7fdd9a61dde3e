//! The fleet's run records, pinned. The multi-device engine promises the
//! single-device schedule — devices in ascending order, halo writes visible
//! to later devices within the iteration — and charges every device its own
//! modeled clock. How the *host* gets through that schedule is free to change;
//! what a run reports is not. `tests/golden/fleet_records.txt` was generated
//! at the commit before the fleet's host-parallel phases were removed and is
//! compared line by line: one hand-written fingerprint per run, covering the
//! values, every `MultiRunStats` field that existed then (modeled seconds as
//! bit patterns) and, for traced runs, the Chrome-trace bytes.
//!
//! Runs: three surrogates x {GS, CW} x 1-4 devices x {PageRank, SSSP}, clean;
//! then the recovery scenarios (allocation fault -> rebatched, kernel faults
//! -> host fallback, a D2H fault during the degrade download, in-place kernel
//! retries, SDC defense under seeded flips, every rung of the SDC ladder, the
//! watchdog, idle devices, NVLink, profiling). The last lines pin the in-core
//! and streamed engines through the same ladder, which they share with the
//! fleet. After them come the in-core rows (`incore_records`): everything the
//! in-core host loop decides — clean runs, warm re-entry over one layout, a
//! carried fault plan, every surfaced fault with the plan's counters after it,
//! cancellation, the watchdog, the iteration cap, profiling and the SDC ladder
//! under seeded flips — generated at the commit before that loop became the
//! fleet's. Regenerate — only for an intended change of the *model* — with:
//!
//! ```sh
//! CUSHA_REGEN_GOLDEN=1 cargo test --test fleet_golden
//! ```

use cusha::algos::{Bfs, PageRank, Sssp};
use cusha::core::integrity::checksum;
use cusha::core::memsize::{entry_bytes, ValueSizes};
use cusha::core::{
    run_multi, try_run, try_run_multi, try_run_placed, try_run_streamed, try_run_warm, CuShaConfig,
    CuShaOutput, EngineError, FaultStats, GShards, IntegrityConfig, IntegrityMode, MultiConfig,
    MultiOutput, MultiRunStats, NoopObserver, Placement, PreparedLayout, Repr, RunObserver,
    RunStats, SdcStats, StreamingConfig, VertexProgram,
};
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::surrogates::Dataset;
use cusha::graph::{io::Fnv1a, Edge, Graph};
use cusha::obs::{chrome_trace_json, Tracer};
use cusha::simt::counters::Counters;
use cusha::simt::{FaultPlan, FlipTarget, Interconnect, KernelStats};
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_records.txt"
);

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn counters(c: &Counters) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{}",
        c.warp_instructions,
        c.active_lane_sum,
        c.gld_transactions,
        c.gld_requested_bytes,
        c.gst_transactions,
        c.gst_requested_bytes,
        c.dram_sectors,
        c.shared_accesses,
        c.bank_conflict_replays,
        c.atomic_replays,
    )
}

fn kernel(k: &KernelStats) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}",
        k.name,
        k.blocks,
        k.threads_per_block,
        k.sm_count,
        counters(&k.counters),
        bits(k.issue_seconds),
        bits(k.dram_seconds),
        bits(k.seconds),
    )
}

fn fault(f: &FaultStats) -> String {
    format!(
        "{},{},{},{},{}",
        f.copy_retries,
        bits(f.backoff_seconds),
        f.oom_rebatches,
        f.degradations,
        f.kernel_retries,
    )
}

fn sdc(s: &SdcStats) -> String {
    format!(
        "{},{},{},{},{},{},{},{}",
        s.flips_injected,
        s.checksum_detections,
        s.invariant_detections,
        s.rollbacks,
        s.full_restarts,
        s.host_fallbacks,
        s.checkpoints,
        s.reexecuted_iterations,
    )
}

fn per_iteration(out: &mut String, its: &[cusha::core::IterationStat]) {
    out.push_str(" per_iter=");
    for it in its {
        write!(out, "{}:{};", bits(it.seconds), it.updated_vertices).unwrap();
    }
}

fn trace_hash(out: &mut String, tracer: &Tracer) {
    if tracer.is_enabled() {
        let doc = chrome_trace_json(tracer);
        write!(
            out,
            " trace={}/{:016x}",
            doc.len(),
            Fnv1a::of(doc.as_bytes())
        )
        .unwrap();
    } else {
        out.push_str(" trace=-");
    }
}

/// Every field of a fleet run record, spelled out.
fn fleet_fingerprint<V: cusha::core::Value>(name: &str, values: &[V], s: &MultiRunStats) -> String {
    let mut out = format!(
        "{name} values={:016x} engine={} ic={} devices={} iters={} conv={} setup={} compute={} \
         xbytes={} exchange={} teardown={} imbalance={}",
        checksum(values),
        s.engine.replace(' ', "_"),
        s.interconnect,
        s.devices,
        s.iterations,
        s.converged,
        bits(s.setup_seconds),
        bits(s.compute_seconds),
        s.exchange_bytes,
        bits(s.exchange_seconds),
        bits(s.teardown_seconds),
        bits(s.load_imbalance),
    );
    per_iteration(&mut out, &s.per_iteration);
    for d in &s.per_device {
        let profile = d.profile.as_ref().map_or("-".to_string(), |p| {
            let launches: String = p.launches().iter().map(kernel).collect();
            format!(
                "{}/{:016x}",
                p.launches().len(),
                Fnv1a::of(launches.as_bytes())
            )
        });
        write!(
            out,
            " dev{}={{{} shards={} v={} e={} halo={} h2d={} d2h={} k={} launched={} kernel={} \
             sent={} recv={} fault={} sdc={} profile={profile}}}",
            d.device,
            d.mode,
            d.shards,
            d.vertices,
            d.edges,
            d.halo_vertices,
            bits(d.h2d_seconds),
            bits(d.d2h_seconds),
            bits(d.kernel_seconds),
            d.kernels_launched,
            kernel(&d.kernel),
            d.exchange_sent_bytes,
            d.exchange_recv_bytes,
            fault(&d.fault),
            sdc(&d.sdc),
        )
        .unwrap();
    }
    write!(
        out,
        " agg={} fault={} sdc={}",
        kernel(&s.aggregate),
        fault(&s.fault),
        sdc(&s.sdc)
    )
    .unwrap();
    out
}

/// One fleet run as a golden line; `traced` adds the Chrome-trace digest.
fn fleet_line<P: VertexProgram>(
    lines: &mut Vec<String>,
    name: &str,
    prog: &P,
    g: &Graph,
    mut cfg: MultiConfig,
    traced: bool,
) -> MultiOutput<P::V> {
    if traced {
        cfg.base.trace = Tracer::enabled();
    }
    let out = run_multi(prog, g, &cfg);
    let mut line = fleet_fingerprint(name, &out.values, &out.stats);
    trace_hash(&mut line, &cfg.base.trace);
    lines.push(line);
    out
}

/// One in-core or streamed run as a golden line (everything but `memo`,
/// which is host-side telemetry).
fn single_record<V: cusha::core::Value>(
    name: &str,
    values: &[V],
    s: &RunStats,
    tracer: &Tracer,
) -> String {
    let mut line = format!(
        "{name} values={:016x} engine={} iters={} conv={} h2d={} compute={} d2h={}",
        checksum(values),
        s.engine,
        s.iterations,
        s.converged,
        bits(s.h2d_seconds),
        bits(s.compute_seconds),
        bits(s.d2h_seconds),
    );
    per_iteration(&mut line, &s.per_iteration);
    write!(
        line,
        " kernel={} fault={} sdc={}",
        kernel(&s.kernel),
        fault(&s.fault),
        sdc(&s.sdc)
    )
    .unwrap();
    trace_hash(&mut line, tracer);
    line
}

fn single_line<V: cusha::core::Value>(
    lines: &mut Vec<String>,
    name: &str,
    values: &[V],
    s: &RunStats,
    tracer: &Tracer,
) {
    lines.push(single_record(name, values, s, tracer));
}

/// The same scenario under the in-core and the streamed host loop, traced.
fn both<P: VertexProgram>(
    lines: &mut Vec<String>,
    name: &str,
    prog: &P,
    g: &Graph,
    base: &CuShaConfig,
) {
    let mut base = base.clone();
    base.trace = Tracer::enabled();
    let out = try_run(prog, g, &base).expect("in-core run recovers");
    let incore = format!("incore/{name}");
    single_line(lines, &incore, &out.values, &out.stats, &base.trace);
    base.trace = Tracer::enabled();
    let scfg = StreamingConfig::new(base, 1 << 14);
    let out = try_run_streamed(prog, g, &scfg).expect("streamed run recovers");
    let streamed = format!("streamed/{name}");
    single_line(lines, &streamed, &out.values, &out.stats, &scfg.base.trace);
}

/// What a fault plan has consumed and fired: operation counters
/// `(h2d, d2h, alloc, kernel)`, the injection log and the flip-point counter.
fn plan_state(p: &FaultPlan) -> String {
    let ((h2d, d2h, alloc, kernel), inj) = (p.op_counters(), p.injected());
    format!(
        " plan={h2d},{d2h},{alloc},{kernel}/{},{},{},{},{}/{}",
        inj.h2d,
        inj.d2h,
        inj.alloc,
        inj.kernel,
        inj.bit_flips,
        p.flip_counter()
    )
}

/// One in-core outcome as a golden line: a run record (`NonConverged` carries
/// one too), or the error's variant and coordinates; then `extra`.
fn outcome_line<V: cusha::core::Value>(
    lines: &mut Vec<String>,
    name: &str,
    result: Result<CuShaOutput<V>, EngineError<V>>,
    tracer: &Tracer,
    extra: &str,
) {
    let line = match result {
        Ok(out) => single_record(name, &out.values, &out.stats, tracer),
        Err(EngineError::NonConverged { partial }) => {
            single_record(name, &partial.values, &partial.stats, tracer)
        }
        Err(e) => {
            let what = match &e {
                EngineError::DeviceOom {
                    requested_bytes,
                    capacity_bytes,
                } => format!("oom:{requested_bytes}/{capacity_bytes}"),
                EngineError::CopyFault {
                    direction,
                    op_index,
                } => format!("copy:{direction:?}@{op_index}"),
                EngineError::KernelFault { name, op_index } => format!("kernel:{name}@{op_index}"),
                EngineError::Watchdog { iterations } => format!("watchdog@{iterations}"),
                EngineError::Deadline {
                    iterations,
                    elapsed_seconds,
                } => format!("deadline@{iterations}/{}", bits(*elapsed_seconds)),
                other => format!("other:{other}").replace(' ', "_"),
            };
            let mut line = format!("{name} error={what}");
            trace_hash(&mut line, tracer);
            line
        }
    };
    lines.push(line + extra);
}

/// Cancels the run at the boundary after iteration `.0`.
struct CancelAt(u32);

impl RunObserver for CancelAt {
    fn on_iteration(&mut self, iteration: u32, _updated: u64, _elapsed: f64) -> bool {
        iteration < self.0
    }
}

/// Everything the in-core host loop decides, one line per run.
fn incore_records(lines: &mut Vec<String>, graphs: &[(&'static str, Graph); 3]) {
    // ---- Clean runs; a third of them traced --------------------------------
    for (gi, (gname, g)) in graphs.iter().enumerate() {
        for (ri, repr) in [Repr::GShards, Repr::ConcatWindows].into_iter().enumerate() {
            let cfg = |ai: usize| {
                let mut cfg = CuShaConfig::new(repr);
                if (gi + ri + ai).is_multiple_of(3) {
                    cfg.trace = Tracer::enabled();
                }
                cfg
            };
            let name = |algo: &str| format!("incore/{gname}/{}/{algo}", repr.label());
            let c = cfg(0);
            outcome_line(
                lines,
                &name("bfs"),
                try_run(&Bfs::new(0), g, &c),
                &c.trace,
                "",
            );
            let c = cfg(1);
            let out = try_run(&Sssp::new(0), g, &c);
            outcome_line(lines, &name("sssp"), out, &c.trace, "");
            let c = cfg(2);
            let out = try_run(&PageRank::new(), g, &c);
            outcome_line(lines, &name("pagerank"), out, &c.trace, "");
        }
    }
    let (road, web) = (&graphs[0].1, &graphs[1].1);
    let sssp = Sssp::new(0);

    // ---- Warm re-entry: two runs over one layout ---------------------------
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let cfg = CuShaConfig::new(repr);
        let n_per = PreparedLayout::select_n_per(web, &cfg, 4);
        let layout = PreparedLayout::build(web, repr, n_per);
        for pass in 1..=2 {
            let out = try_run_warm(&sssp, web, &layout, &cfg, None, &mut NoopObserver);
            let memo = out.as_ref().map(|o| o.stats.memo).expect("warm run");
            let slots = layout.replay_slots();
            let extra = format!(
                " memo={},{},{} slots={}/{}",
                memo.replay_hits, memo.replay_misses, memo.replay_fallbacks, slots.0, slots.1
            );
            let name = format!("incore/warm/{}/pass{pass}", repr.label());
            outcome_line(lines, &name, out, &cfg.trace, &extra);
        }
    }

    // ---- A carried plan: counters and log after each of two warm runs ------
    let cfg = CuShaConfig::cw();
    let n_per = PreparedLayout::select_n_per(road, &cfg, 4);
    let layout = PreparedLayout::build(road, Repr::ConcatWindows, n_per);
    let mut plan = FaultPlan::seeded(9).with_bitflip_rate(0.05);
    for pass in 1..=2 {
        let out = try_run_warm(
            &sssp,
            road,
            &layout,
            &cfg,
            Some(&mut plan),
            &mut NoopObserver,
        );
        let name = format!("incore/carried/pass{pass}");
        outcome_line(lines, &name, out, &cfg.trace, &plan_state(&plan));
    }

    // ---- Every surfaced fault, with what the plan consumed -----------------
    let mut clean = FaultPlan::new();
    let out = try_run_warm(
        &sssp,
        road,
        &layout,
        &cfg,
        Some(&mut clean),
        &mut NoopObserver,
    );
    outcome_line(
        lines,
        "incore/surfaced/none",
        out,
        &cfg.trace,
        &plan_state(&clean),
    );
    let last_d2h = clean.op_counters().1 - 1;
    for (name, plan) in [
        ("alloc-first", FaultPlan::new().fail_alloc_at(&[0])),
        ("alloc-mid", FaultPlan::new().fail_alloc_at(&[3])),
        ("h2d-upload", FaultPlan::new().fail_h2d_at(&[2])),
        (
            "h2d-flag-reset",
            FaultPlan::new().fail_h2d_at(&[clean.op_counters().0 - 1]),
        ),
        ("d2h-flag-readback", FaultPlan::new().fail_d2h_at(&[1])),
        (
            "d2h-final-download",
            FaultPlan::new().fail_d2h_at(&[last_d2h]),
        ),
        ("kernel-first", FaultPlan::new().fail_kernel_at(&[0])),
        ("kernel-third", FaultPlan::new().fail_kernel_at(&[2])),
    ] {
        let mut cfg = cfg.clone();
        cfg.trace = Tracer::enabled();
        let mut plan = plan;
        let out = try_run_warm(
            &sssp,
            road,
            &layout,
            &cfg,
            Some(&mut plan),
            &mut NoopObserver,
        );
        assert!(out.is_err(), "{name}: the in-core engine surfaces faults");
        let name = format!("incore/surfaced/{name}");
        outcome_line(lines, &name, out, &cfg.trace, &plan_state(&plan));
    }
    // The config's own plan takes the same path when none is carried.
    let c = cfg
        .clone()
        .with_fault_plan(FaultPlan::new().fail_kernel_at(&[1]));
    outcome_line(
        lines,
        "incore/surfaced/cfg-plan",
        try_run(&sssp, road, &c),
        &c.trace,
        "",
    );

    // ---- Cancellation, the watchdog, the cap, profiling --------------------
    let mut c = cfg.clone();
    c.trace = Tracer::enabled();
    let out = try_run_warm(&sssp, road, &layout, &c, None, &mut CancelAt(2));
    outcome_line(lines, "incore/cancel-at-2", out, &c.trace, "");
    let whole = try_run(&sssp, road, &cfg).expect("clean run").stats;
    let mut c = cfg.clone().with_deadline(whole.total_seconds() / 2.0);
    c.trace = Tracer::enabled();
    outcome_line(
        lines,
        "incore/deadline",
        try_run(&sssp, road, &c),
        &c.trace,
        "",
    );
    let mut c = cfg.clone().with_watchdog(3);
    c.trace = Tracer::enabled();
    outcome_line(
        lines,
        "incore/watchdog-quiet",
        try_run(&sssp, road, &c),
        &c.trace,
        "",
    );
    let ring = Graph::new(32, (0..31).map(|v| Edge::new(v, v + 1, 1)).collect());
    let mut c = CuShaConfig::cw()
        .with_vertices_per_shard(8)
        .with_watchdog(2);
    c.trace = Tracer::enabled();
    let out = try_run(&Oscillator, &ring, &c);
    outcome_line(lines, "incore/watchdog-trip", out, &c.trace, "");
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let mut c = CuShaConfig::new(repr);
        c.max_iterations = 3;
        c.trace = Tracer::enabled();
        let out = try_run(&PageRank::new(), web, &c);
        assert!(matches!(out, Err(EngineError::NonConverged { .. })));
        let name = format!("incore/capped/{}", repr.label());
        outcome_line(lines, &name, out, &c.trace, "");
    }
    let mut c = CuShaConfig::gs();
    c.profile = true;
    let out = try_run(&sssp, web, &c).expect("profiled run");
    let profile = out.stats.profile.as_ref().expect("profile retained");
    let launches: String = profile.launches().iter().map(kernel).collect();
    let extra = format!(
        " profile={}/{:016x}/{:016x}",
        profile.launches().len(),
        Fnv1a::of(launches.as_bytes()),
        Fnv1a::of(profile.report().as_bytes())
    );
    outcome_line(lines, "incore/profile", Ok(out), &c.trace, &extra);

    // ---- The SDC ladder under seeded flips ---------------------------------
    let (g, bfs, pr) = (sdc_graph(), Bfs::new(0), PageRank::new());
    for mode in [
        IntegrityMode::Checksum,
        IntegrityMode::Invariant,
        IntegrityMode::Full,
    ] {
        for seed in [3u64, 11, 29, 71] {
            let mut plan = FaultPlan::seeded(seed).with_bitflip_rate(0.05);
            let mut c = sdc_base().with_integrity(IntegrityConfig::with_mode(mode));
            if seed % 2 == 1 {
                c.trace = Tracer::enabled();
            }
            let n_per = PreparedLayout::select_n_per(&g, &c, 4);
            let layout = PreparedLayout::build(&g, c.repr, n_per);
            let out = try_run_warm(&pr, &g, &layout, &c, Some(&mut plan), &mut NoopObserver);
            let name = format!("incore/sdc/{}/seed{seed}", mode.label());
            outcome_line(lines, &name, out, &c.trace, &plan_state(&plan));
        }
    }
    // Spent budgets: the run abandons the device for the host fallback.
    for (seed, repr) in [(5u64, Repr::GShards), (13, Repr::ConcatWindows)] {
        let mut plan = FaultPlan::seeded(seed).with_bitflip_rate(0.3);
        let mut c = sdc_base().with_integrity(IntegrityConfig {
            max_rollbacks: 1,
            max_full_restarts: 0,
            ..full_integrity()
        });
        c.repr = repr;
        c.trace = Tracer::enabled();
        let n_per = PreparedLayout::select_n_per(&g, &c, 4);
        let layout = PreparedLayout::build(&g, repr, n_per);
        let out = try_run_warm(&pr, &g, &layout, &c, Some(&mut plan), &mut NoopObserver);
        let fell_back = out.as_ref().is_ok_and(|o| o.stats.sdc.host_fallbacks == 1);
        assert!(fell_back, "seed {seed} must reach the host fallback");
        let name = format!("incore/sdc/exhausted/seed{seed}");
        outcome_line(lines, &name, out, &c.trace, &plan_state(&plan));
    }
    // A flip at the last flip point before the final download: the kernel
    // that would have converged is preceded by a scrub that rolls back.
    let clean = try_run(&bfs, &g, &sdc_base()).expect("clean bfs").stats;
    for (mode, target) in [
        (IntegrityMode::Checksum, FlipTarget::VertexValues),
        (IntegrityMode::Full, FlipTarget::SrcValue),
        (IntegrityMode::Invariant, FlipTarget::VertexValues),
    ] {
        let at = u64::from(clean.iterations) - 1;
        let mut plan = FaultPlan::new().flip_at(at, target, 1, 30);
        let mut c = sdc_base().with_integrity(IntegrityConfig::with_mode(mode));
        c.trace = Tracer::enabled();
        let n_per = PreparedLayout::select_n_per(&g, &c, 4);
        let layout = PreparedLayout::build(&g, c.repr, n_per);
        let out = try_run_warm(&bfs, &g, &layout, &c, Some(&mut plan), &mut NoopObserver);
        let name = format!("incore/sdc/late-flip/{}", mode.label());
        outcome_line(lines, &name, out, &c.trace, &plan_state(&plan));
    }
}

/// Records the modeled clock at every iteration boundary.
struct Clock(Vec<f64>);

impl RunObserver for Clock {
    fn on_iteration(&mut self, _iteration: u32, _updated: u64, elapsed: f64) -> bool {
        self.0.push(elapsed);
        true
    }
}

/// A budget that cuts program `P`'s shard arrays over `g` into at least three
/// batches (checked against the planner's greedy cut).
fn three_batch_budget<P: VertexProgram>(g: &Graph, cfg: &CuShaConfig) -> u64 {
    let gs = GShards::from_graph(g, PreparedLayout::select_n_per(g, cfg, 4));
    let per_entry = entry_bytes(ValueSizes::of::<P>(), cfg.repr);
    let budget = g.num_edges() as u64 * per_entry / 4;
    let (mut batches, mut held) = (0, u64::MAX);
    for s in 0..gs.num_shards() {
        let bytes = gs.shard_entries(s).len() as u64 * per_entry;
        if held.saturating_add(bytes) > budget {
            (batches, held) = (batches + 1, 0);
        }
        held += bytes;
    }
    assert!(batches >= 3, "{batches} batches under {budget} B");
    budget
}

/// A streamed run over a layout built for it, under a carried plan and an
/// observer.
fn streamed_observed<P: VertexProgram>(
    prog: &P,
    g: &Graph,
    cfg: &StreamingConfig,
    plan: &mut FaultPlan,
    observer: &mut dyn RunObserver,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    let (bytes, streams) = (cfg.resident_bytes, cfg.streams);
    let placement = Placement::Streamed { bytes, streams };
    let layout = PreparedLayout::for_program::<P>(g, &cfg.base, &placement)?;
    try_run_placed(
        prog,
        g,
        &layout,
        &cfg.base,
        &placement,
        Some(plan),
        observer,
    )
}

/// Everything the streamed host loop decides. Class A (must never move): the
/// clean runs, in-place copy and kernel retries, the CW -> G-Shards -> host
/// ladder, every surfaced error with the plan's counters, cancellation, the
/// deadline across a rung, the watchdog, the cap, profiling, a carried plan.
/// Class B (`streamed/oom/*`): out-of-memory recovery.
fn streamed_records(lines: &mut Vec<String>, graphs: &[(&'static str, Graph); 3]) {
    let memo = |s: &RunStats| {
        let m = s.memo;
        format!(
            " memo={},{},{}",
            m.replay_hits, m.replay_misses, m.replay_fallbacks
        )
    };
    /// One clean streamed run under a three-batch budget.
    fn clean<P: VertexProgram>(
        lines: &mut Vec<String>,
        name: String,
        prog: &P,
        g: &Graph,
        mut base: CuShaConfig,
        (traced, streams): (bool, u32),
        memo: impl Fn(&RunStats) -> String,
    ) {
        if traced {
            base.trace = Tracer::enabled();
        }
        let budget = three_batch_budget::<P>(g, &base);
        let mut cfg = StreamingConfig::new(base, budget);
        cfg.streams = streams;
        let out = try_run_streamed(prog, g, &cfg).expect("clean streamed run");
        assert!(out.stats.fault.is_clean());
        let extra = memo(&out.stats);
        outcome_line(lines, &name, Ok(out), &cfg.base.trace, &extra);
    }
    for (gi, (gname, g)) in graphs.iter().enumerate() {
        for (ri, repr) in [Repr::GShards, Repr::ConcatWindows].into_iter().enumerate() {
            let base = CuShaConfig::new(repr);
            // Two traced rows; one graph's SSSP also with a single stream.
            let how = |ai: usize| ((gi + ri, ai) == (1, 1) || (gi, ri, ai) == (2, 1, 2), 2);
            let name = |algo: &str| format!("streamed/{gname}/{}/{algo}", repr.label());
            let (b, m) = (base.clone(), &memo);
            clean(lines, name("bfs"), &Bfs::new(0), g, b, how(0), m);
            clean(
                lines,
                name("sssp"),
                &Sssp::new(0),
                g,
                base.clone(),
                how(1),
                m,
            );
            clean(
                lines,
                name("pagerank"),
                &PageRank::new(),
                g,
                base,
                how(2),
                m,
            );
        }
    }
    let (road, web) = (&graphs[0].1, &graphs[1].1);
    let sssp = Sssp::new(0);
    let cw = CuShaConfig::cw();
    let budget = three_batch_budget::<Sssp>(road, &cw);
    let mut serial = StreamingConfig::new(cw.clone(), budget);
    serial.streams = 1;
    let out = try_run_streamed(&sssp, road, &serial);
    outcome_line(lines, "streamed/streams-1", out, &cw.trace, "");
    let whole = StreamingConfig::new(cw.clone(), u64::MAX);
    let out = try_run_streamed(&sssp, road, &whole).expect("one batch");
    let extra = memo(&out.stats);
    outcome_line(lines, "streamed/one-batch", Ok(out), &cw.trace, &extra);
    let mut c = StreamingConfig::new(CuShaConfig::gs(), three_batch_budget::<Sssp>(web, &cw));
    c.base.profile = true;
    let out = try_run_streamed(&sssp, web, &c).expect("profiled run");
    let profile = out.stats.profile.as_ref().expect("profile retained");
    let launches: String = profile.launches().iter().map(kernel).collect();
    let extra = format!(
        " profile={}/{:016x}/{:016x}",
        profile.launches().len(),
        Fnv1a::of(launches.as_bytes()),
        Fnv1a::of(profile.report().as_bytes())
    );
    outcome_line(lines, "streamed/profile", Ok(out), &cw.trace, &extra);

    // ---- Fail-stop faults: what a carried plan consumed after each ---------
    let cfg = StreamingConfig::new(cw.clone(), budget);
    let run = |cfg: &StreamingConfig, plan: &mut FaultPlan, observer: &mut dyn RunObserver| {
        let mut cfg = cfg.clone();
        cfg.base.trace = Tracer::enabled();
        let out = streamed_observed(&sssp, road, &cfg, plan, observer);
        (out, cfg.base.trace)
    };
    let mut none = FaultPlan::new();
    let (out, trace) = run(&cfg, &mut none, &mut NoopObserver);
    let iterations = out.as_ref().expect("clean run").stats.iterations as u64;
    outcome_line(
        lines,
        "streamed/fault/none",
        out,
        &trace,
        &plan_state(&none),
    );
    let (h2d, d2h, allocs, _) = none.op_counters();
    // Per iteration: one D2H per batch and the flag readback; then the values.
    let batches = (d2h - 1) / iterations - 1;
    assert!(batches >= 3 && (d2h - 1) % iterations == 0);
    for (name, plan) in [
        ("h2d-batch-upload", FaultPlan::new().fail_h2d_at(&[3])),
        ("d2h-batch-download", FaultPlan::new().fail_d2h_at(&[1])),
        (
            "d2h-flag-readback",
            FaultPlan::new().fail_d2h_at(&[batches]),
        ),
        (
            "d2h-final-download",
            FaultPlan::new().fail_d2h_at(&[d2h - 1]),
        ),
        ("h2d-flag-reset", FaultPlan::new().fail_h2d_at(&[2])),
        ("kernel-retry", FaultPlan::new().fail_kernel_at(&[1])),
        (
            "cw-to-gs",
            FaultPlan::new().fail_kernels_named("CuSha-CW", u64::MAX),
        ),
        (
            "cw-to-host",
            FaultPlan::new().fail_kernels_named("streamed", u64::MAX),
        ),
        (
            "copy-exhausted",
            FaultPlan::new().fail_h2d_at(&[h2d / 2, h2d / 2 + 1, h2d / 2 + 2, h2d / 2 + 3]),
        ),
        ("d2h-exhausted", FaultPlan::new().fail_d2h_at(&[0, 1, 2, 3])),
    ] {
        let mut plan = plan;
        let (out, trace) = run(&cfg, &mut plan, &mut NoopObserver);
        let name = format!("streamed/fault/{name}");
        outcome_line(lines, &name, out, &trace, &plan_state(&plan));
    }
    // A seeded plan carried across two runs: the second starts where the
    // first left its counters.
    let mut plan = FaultPlan::seeded(9).with_h2d_rate(0.02).with_d2h_rate(0.02);
    for pass in 1..=2 {
        let (out, trace) = run(&cfg, &mut plan, &mut NoopObserver);
        let name = format!("streamed/carried/pass{pass}");
        outcome_line(lines, &name, out, &trace, &plan_state(&plan));
    }

    // ---- Cancellation, a deadline across a rung, the watchdog, the cap -----
    let (out, trace) = run(&cfg, &mut FaultPlan::new(), &mut CancelAt(2));
    outcome_line(lines, "streamed/cancel-at-2", out, &trace, "");
    // The CW rung's launch faults cost modeled time before G-Shards starts:
    // the deadline falls inside the second rung and counts both.
    let cw_faults = || FaultPlan::new().fail_kernels_named("CuSha-CW", u64::MAX);
    let (mut degraded, mut straight) = (Clock(Vec::new()), Clock(Vec::new()));
    run(&cfg, &mut cw_faults(), &mut degraded)
        .0
        .expect("degraded run");
    let gs = StreamingConfig::new(CuShaConfig::gs(), budget);
    run(&gs, &mut FaultPlan::new(), &mut straight)
        .0
        .expect("G-Shards run");
    assert!(
        degraded.0[0] > straight.0[0],
        "the first rung's clock is lost"
    );
    let mut c = cfg.clone();
    c.base.deadline_seconds = Some((degraded.0[1] + degraded.0[2]) / 2.0);
    let (out, trace) = run(&c, &mut cw_faults(), &mut NoopObserver);
    assert!(matches!(
        out,
        Err(EngineError::Deadline { iterations: 3, .. })
    ));
    outcome_line(lines, "streamed/deadline-across-rungs", out, &trace, "");
    let mut c = cfg.clone();
    c.base.watchdog_interval = Some(3);
    let (out, trace) = run(&c, &mut FaultPlan::new(), &mut NoopObserver);
    outcome_line(lines, "streamed/watchdog-quiet", out, &trace, "");
    let ring = Graph::new(32, (0..31).map(|v| Edge::new(v, v + 1, 1)).collect());
    let mut c = CuShaConfig::cw()
        .with_vertices_per_shard(8)
        .with_watchdog(2);
    c.trace = Tracer::enabled();
    let c = StreamingConfig::new(c, 1 << 8);
    let out = try_run_streamed(&Oscillator, &ring, &c);
    assert!(matches!(out, Err(EngineError::Watchdog { .. })));
    outcome_line(lines, "streamed/watchdog-trip", out, &c.base.trace, "");
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        let mut c = CuShaConfig::new(repr);
        c.max_iterations = 3;
        c.trace = Tracer::enabled();
        let budget = three_batch_budget::<PageRank>(web, &c);
        let c = StreamingConfig::new(c, budget);
        let out = try_run_streamed(&PageRank::new(), web, &c);
        assert!(matches!(out, Err(EngineError::NonConverged { .. })));
        let name = format!("streamed/capped/{}", repr.label());
        outcome_line(lines, &name, out, &c.base.trace, "");
    }

    // ---- Class B: out-of-memory recovery -----------------------------------
    // The resident part, the first batch, a batch of the second iteration.
    let mid_run = 2 + (allocs - 2) / iterations + 7;
    for (name, at) in [("resident", 0), ("first-batch", 2), ("mid-run", mid_run)] {
        let mut plan = FaultPlan::new().fail_alloc_at(&[at]);
        let (out, trace) = run(&cfg, &mut plan, &mut NoopObserver);
        let rebatches = out.as_ref().map(|o| o.stats.fault.oom_rebatches);
        assert_eq!(rebatches.ok(), Some(1), "{name}");
        let name = format!("streamed/oom/{name}");
        outcome_line(lines, &name, out, &trace, &plan_state(&plan));
    }
    // A device with room for the resident values and one batch, not two.
    let g = sdc_graph();
    let mut base = sdc_base();
    base.device.global_mem_bytes = 24 << 10;
    let c = StreamingConfig::new(base, 1 << 14);
    let mut plan = FaultPlan::new();
    let out = streamed_observed(&sssp, &g, &c, &mut plan, &mut NoopObserver);
    outcome_line(
        lines,
        "streamed/oom/one-batch-device",
        out,
        &c.base.trace,
        &plan_state(&plan),
    );
}

/// A program whose values oscillate forever: the watchdog's livelock.
struct Oscillator;

impl VertexProgram for Oscillator {
    type V = u32;
    type E = u32;
    type SV = u32;
    const HAS_EDGE_VALUES: bool = false;
    const HAS_STATIC_VALUES: bool = false;
    fn name(&self) -> &'static str {
        "oscillator"
    }
    fn initial_value(&self, _v: u32) -> u32 {
        0
    }
    fn edge_value(&self, _w: u32) -> u32 {
        0
    }
    fn init_compute(&self, local: &mut u32, global: &u32) {
        *local = 1 - *global;
    }
    fn compute(&self, _src: &u32, _st: &u32, _e: &u32, _local: &mut u32) {}
    fn update_condition(&self, local: &mut u32, old: &u32) -> bool {
        local != old
    }
}

fn surrogates() -> [(&'static str, Graph); 3] {
    [
        ("road", Dataset::RoadNetCA.generate(2048)),
        ("web", Dataset::WebGoogle.generate(2048)),
        ("amazon", Dataset::Amazon0312.generate(2048)),
    ]
}

fn sdc_graph() -> Graph {
    rmat(&RmatConfig::graph500(8, 3000, 97))
}

fn sdc_base() -> CuShaConfig {
    CuShaConfig::new(Repr::GShards).with_vertices_per_shard(32)
}

fn full_integrity() -> IntegrityConfig {
    IntegrityConfig::with_mode(IntegrityMode::Full)
}

/// An allocation fault rebatches device 1 while two kernel faults (the
/// launch and its one retry) degrade device 2 to its host re-enactment.
fn fault_recovery_cfg() -> MultiConfig {
    MultiConfig::new(CuShaConfig::cw(), 4)
        .with_device_fault_plan(1, FaultPlan::new().fail_alloc_at(&[2]))
        .with_device_fault_plan(2, FaultPlan::new().fail_kernel_at(&[1, 2]))
}

/// Spaced-out single kernel faults on two devices: each recovers in place
/// via relaunch, no degradation.
fn transient_retries_cfg() -> MultiConfig {
    MultiConfig::new(CuShaConfig::gs(), 4)
        .with_device_fault_plan(0, FaultPlan::new().fail_kernel_at(&[1]))
        .with_device_fault_plan(3, FaultPlan::new().fail_kernel_at(&[2]))
}

/// Seeded flips on device 1 plus one scheduled `SrcValue` flip on device 2,
/// under both detectors.
fn sdc_defense_cfg(seed: u64) -> MultiConfig {
    let mut cfg = MultiConfig::new(sdc_base(), 3);
    cfg.base.integrity = full_integrity();
    cfg.with_device_fault_plan(1, FaultPlan::seeded(seed).with_bitflip_rate(0.5))
        .with_device_fault_plan(2, FaultPlan::new().flip_at(0, FlipTarget::SrcValue, 9, 12))
}

fn records() -> Vec<String> {
    let mut lines = Vec::new();
    let graphs = surrogates();

    // ---- Clean fleets ------------------------------------------------------
    for (gname, g) in &graphs {
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            for devices in 1..=4usize {
                let cfg = || MultiConfig::new(CuShaConfig::new(repr), devices);
                let traced = devices % 2 == 1;
                let name = format!("{gname}/{}/x{devices}", repr.label());
                let pr = format!("{name}/pagerank");
                fleet_line(&mut lines, &pr, &PageRank::new(), g, cfg(), traced);
                let sssp = format!("{name}/sssp");
                fleet_line(&mut lines, &sssp, &Sssp::new(0), g, cfg(), traced);
            }
        }
    }
    let (road, web, amazon) = (&graphs[0].1, &graphs[1].1, &graphs[2].1);

    // ---- Fail-stop recovery ------------------------------------------------
    let sssp = Sssp::new(0);
    fleet_line(
        &mut lines,
        "fault/alloc+kernel",
        &sssp,
        amazon,
        fault_recovery_cfg(),
        false,
    );
    // Device 0 rebatches (it precedes every resident device, so the trace
    // order is the device order under any schedule).
    let cfg = MultiConfig::new(CuShaConfig::gs(), 3)
        .with_device_fault_plan(0, FaultPlan::new().fail_alloc_at(&[3]));
    fleet_line(&mut lines, "fault/rebatch-dev0", &sssp, web, cfg, true);
    // A rebatched device that keeps hitting OOM halves its budget again.
    let cfg = MultiConfig::new(CuShaConfig::cw(), 2)
        .with_device_fault_plan(1, FaultPlan::new().fail_alloc_at(&[2, 9, 17]));
    fleet_line(&mut lines, "fault/rebatch-again", &sssp, road, cfg, false);
    // Kernel faults degrade device 1; the first D2H of the degrade download
    // faults too and is retried.
    let cfg = MultiConfig::new(CuShaConfig::gs(), 3).with_device_fault_plan(
        1,
        FaultPlan::new().fail_kernel_at(&[1, 2]).fail_d2h_at(&[1]),
    );
    let out = fleet_line(&mut lines, "fault/degrade+d2h", &sssp, web, cfg, true);
    assert_eq!(out.stats.per_device[1].mode, "host-fallback");
    assert_eq!(out.stats.per_device[1].fault.copy_retries, 1);
    // A later kernel fault: the device degrades mid-run, after halo traffic.
    let cfg = MultiConfig::new(CuShaConfig::cw(), 4)
        .with_device_fault_plan(2, FaultPlan::new().fail_kernel_at(&[3, 4]));
    fleet_line(&mut lines, "fault/degrade-late", &sssp, amazon, cfg, true);
    fleet_line(
        &mut lines,
        "fault/retries",
        &sssp,
        web,
        transient_retries_cfg(),
        true,
    );
    let cfg = MultiConfig::new(CuShaConfig::gs(), 2)
        .with_device_fault_plan(0, FaultPlan::new().fail_h2d_at(&[3]).fail_d2h_at(&[2]));
    fleet_line(
        &mut lines,
        "fault/copy-retries",
        &PageRank::new(),
        road,
        cfg,
        true,
    );

    // ---- SDC defense -------------------------------------------------------
    let (g, bfs, pr) = (sdc_graph(), Bfs::new(0), PageRank::new());
    fleet_line(&mut lines, "sdc/bfs", &bfs, &g, sdc_defense_cfg(13), true);
    // Sparse flips over a long run: rollbacks to mid-run checkpoints.
    for (seed, rate) in [(13u64, 0.1), (7, 0.1), (21, 0.03), (99, 0.03)] {
        let mut cfg = sdc_defense_cfg(seed);
        cfg.fault_plans[1] = Some(FaultPlan::seeded(seed).with_bitflip_rate(rate));
        let name = format!("sdc/full/seed{seed}");
        fleet_line(&mut lines, &name, &pr, &g, cfg, true);
    }
    // Every rung: one rollback, one restart, then the victims degrade.
    let mut cfg = sdc_defense_cfg(5);
    cfg.base.integrity.max_rollbacks = 1;
    cfg.base.integrity.max_full_restarts = 1;
    cfg.fault_plans[1] = Some(FaultPlan::seeded(5).with_bitflip_rate(0.2));
    fleet_line(&mut lines, "sdc/ladder", &pr, &g, cfg, true);
    let mut cfg = sdc_defense_cfg(13);
    cfg.base.integrity.max_rollbacks = 0;
    cfg.base.integrity.max_full_restarts = 0;
    fleet_line(&mut lines, "sdc/exhausted", &bfs, &g, cfg, true);
    // Invariant detections have no culprit: every resident device degrades.
    let mut cfg = MultiConfig::new(sdc_base(), 3).with_device_fault_plan(
        0,
        FaultPlan::new()
            .flip_at(1, FlipTarget::VertexValues, 0, 20)
            .flip_at(3, FlipTarget::VertexValues, 0, 21),
    );
    cfg.base.integrity = IntegrityConfig::with_mode(IntegrityMode::Invariant);
    cfg.base.integrity.checkpoint_every = 1;
    cfg.base.integrity.max_rollbacks = 1;
    cfg.base.integrity.max_full_restarts = 0;
    fleet_line(&mut lines, "sdc/invariant", &bfs, &g, cfg, true);
    // Rollback over a fleet with a rebatched device and a watchdog.
    let mut cfg =
        sdc_defense_cfg(7).with_device_fault_plan(0, FaultPlan::new().fail_alloc_at(&[3]));
    cfg.fault_plans[1] = Some(FaultPlan::seeded(7).with_bitflip_rate(0.1));
    cfg.base.watchdog_interval = Some(3);
    cfg.base.integrity.checkpoint_every = 2;
    fleet_line(&mut lines, "sdc/rebatched+watchdog", &pr, &g, cfg, true);
    let mut cfg = MultiConfig::new(sdc_base(), 2);
    cfg.base.integrity = IntegrityConfig::with_mode(IntegrityMode::Checksum);
    fleet_line(&mut lines, "sdc/clean-checksum", &pr, &g, cfg, true);

    // ---- Odds and ends -----------------------------------------------------
    let mut cfg = MultiConfig::new(CuShaConfig::cw(), 3);
    cfg.base.watchdog_interval = Some(3);
    fleet_line(&mut lines, "misc/watchdog", &sssp, road, cfg, true);
    let cfg = MultiConfig::new(CuShaConfig::gs(), 4).with_interconnect(Interconnect::nvlink());
    fleet_line(
        &mut lines,
        "misc/nvlink",
        &PageRank::new(),
        amazon,
        cfg,
        false,
    );
    let mut cfg = MultiConfig::new(CuShaConfig::cw(), 2);
    cfg.base.profile = true;
    fleet_line(&mut lines, "misc/profile", &sssp, web, cfg, false);
    let mut cfg = MultiConfig::new(CuShaConfig::gs(), 2);
    cfg.base.max_iterations = 2;
    fleet_line(&mut lines, "misc/capped", &sssp, road, cfg, false);
    // 3 vertices at 2 per shard -> 2 shards on 4 devices: two stay idle.
    let tiny = Graph::new(
        3,
        vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 5)],
    );
    let cfg = MultiConfig::new(CuShaConfig::gs().with_vertices_per_shard(2), 4);
    fleet_line(&mut lines, "misc/idle", &sssp, &tiny, cfg, true);

    // ---- The same ladder under the in-core and streamed loops --------------
    let flips = |seed: u64, rate: f64| FaultPlan::seeded(seed).with_bitflip_rate(rate);
    let tight = IntegrityConfig {
        max_rollbacks: 1,
        max_full_restarts: 1,
        ..full_integrity()
    };
    let every_iteration = IntegrityConfig {
        checkpoint_every: 1,
        ..IntegrityConfig::with_mode(IntegrityMode::Invariant)
    };
    let law_breaker = FaultPlan::new().flip_at(2, FlipTarget::VertexValues, 0, 20);
    for (name, repr, plan, integ, watchdog) in [
        (
            "gs/full",
            Repr::GShards,
            flips(7, 0.02),
            full_integrity(),
            None,
        ),
        (
            "cw/full",
            Repr::ConcatWindows,
            flips(23, 0.02),
            full_integrity(),
            None,
        ),
        (
            "gs/watchdog",
            Repr::GShards,
            flips(1, 0.1),
            full_integrity(),
            Some(3),
        ),
        ("gs/ladder", Repr::GShards, flips(5, 0.2), tight, None),
    ] {
        let mut base = sdc_base().with_fault_plan(plan).with_integrity(integ);
        base.repr = repr;
        base.watchdog_interval = watchdog;
        both(&mut lines, name, &pr, &g, &base);
    }
    let base = sdc_base()
        .with_fault_plan(law_breaker)
        .with_integrity(every_iteration);
    both(&mut lines, "gs/invariant", &bfs, &g, &base);
    incore_records(&mut lines, &graphs);
    streamed_records(&mut lines, &graphs);
    lines
}

#[test]
fn fleet_records_match_the_golden_file() {
    let lines = records();
    if std::env::var_os("CUSHA_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN, lines.join("\n") + "\n").expect("write golden records");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden records");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), golden.len(), "record count differs");
    for (now, then) in lines.iter().zip(golden) {
        let name = now.split(' ').next().unwrap_or_default();
        let field = now
            .split(' ')
            .zip(then.split(' '))
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("\n  now:    {a}\n  golden: {b}"));
        assert!(
            now == then,
            "{name} drifted from {GOLDEN}: {}",
            field.unwrap_or_else(|| "field counts differ".into())
        );
    }
}

/// Kernel faults degrade one device to its host re-enactment while an
/// allocation fault rebatches another; both recoveries fire exactly once and
/// the untouched devices stay clean.
#[test]
fn alloc_and_kernel_faults_recover_once_each() {
    let g = Dataset::Amazon0312.generate(2048);
    let out = run_multi(&Sssp::new(0), &g, &fault_recovery_cfg());
    assert_eq!(out.stats.per_device[1].mode, "rebatched");
    assert_eq!(out.stats.per_device[2].mode, "host-fallback");
    assert_eq!(
        out.stats.per_device[2].fault.degradations, 1,
        "degradation fired a wrong number of times"
    );
    for d in [0usize, 3] {
        assert_eq!(out.stats.per_device[d].mode, "resident");
        assert!(out.stats.per_device[d].fault.is_clean());
    }
}

/// Transient kernel faults recover by in-place relaunch: each retry fires
/// exactly once on its own device.
#[test]
fn transient_kernel_faults_retry_in_place() {
    let g = Dataset::WebGoogle.generate(2048);
    let clean = run_multi(&Sssp::new(0), &g, &MultiConfig::new(CuShaConfig::gs(), 4));
    let out = run_multi(&Sssp::new(0), &g, &transient_retries_cfg());
    assert_eq!(clean.values, out.values);
    assert_eq!(out.stats.per_device[0].fault.kernel_retries, 1);
    assert_eq!(out.stats.per_device[3].fault.kernel_retries, 1);
    assert_eq!(out.stats.fault.kernel_retries, 2, "lost or doubled retry");
    for d in 0..4 {
        assert_eq!(out.stats.per_device[d].mode, "resident");
    }
}

/// Bit-flip injection plus integrity checking: flips fire, and outputs stay
/// bit-identical to the fault-free fleet, with the per-device SDC records
/// summing to the aggregate.
#[test]
fn sdc_defense_masks_flips_and_sums_per_device() {
    let (g, prog) = (sdc_graph(), Bfs::new(0));
    let clean = try_run_multi(&prog, &g, &MultiConfig::new(sdc_base(), 3)).expect("clean fleet");
    let out = try_run_multi(&prog, &g, &sdc_defense_cfg(13)).expect("recovered fleet");
    assert_eq!(out.values, clean.values);
    assert!(out.stats.sdc.flips_injected >= 1, "no flip fired at all");
    let mut summed = SdcStats::default();
    for dev in &out.stats.per_device {
        summed.absorb(&dev.sdc);
    }
    assert_eq!(summed, out.stats.sdc, "aggregate must equal per-device sum");
}

/// `memo` is the one record field the golden leaves out (host-side telemetry
/// the fleet did not report when it was generated): a one-device fleet makes
/// the in-core engine's launches on an equally cold table, and a longer run
/// on several devices replays what each device recorded.
#[test]
fn fleet_reports_its_devices_memo_activity() {
    let g = Dataset::WebGoogle.generate(2048);
    let (prog, base) = (Sssp::new(0), CuShaConfig::cw());
    let single = try_run(&prog, &g, &base).expect("in-core run");
    let fleet = run_multi(&prog, &g, &MultiConfig::new(base.clone(), 1));
    assert_eq!(fleet.stats.memo, single.stats.memo);
    assert_eq!(fleet.stats.as_run_stats().memo, single.stats.memo);

    let fleet = run_multi(&PageRank::new(), &g, &MultiConfig::new(base, 3));
    assert!(fleet.stats.iterations > 2);
    assert!(fleet.stats.memo.replay_hits > 0, "{:?}", fleet.stats.memo);
    assert_eq!(fleet.stats.memo.replay_verify_failures, 0);
}
