//! The Virtual Warp-Centric CSR baseline (paper Appendix A).
//!
//! Each *virtual warp* of `vw` lanes (2, 4, 8, 16 or 32) processes one
//! vertex per iteration: a leader lane performs the SISD phases (reading
//! the CSR offsets and the old vertex value), the lanes then sweep the
//! vertex's incoming edges `vw` at a time — gathering neighbour values from
//! `VertexValues`, which is the input-dependent **non-coalesced** access
//! pattern that motivates the paper — and a `log2(vw)`-step shared-memory
//! parallel reduction folds the partial results before the leader publishes
//! the new value.
//!
//! What a block *costs* — the SISD loads, the sweep, the ladders, the
//! publish `exec`s, the deferred pass's sweeps — is fixed by the CSR and the
//! launch geometry, not by the vertex values, and nothing reads the data
//! those ops move. They are the block's `statics`, phase by phase: one
//! launch record holds them for the run, taken at its first launch and
//! charged whole at every later one. What remains is functional: each warp
//! folds its vertices' in-edges straight from the device buffers' host views
//! — in CSR order, sound because `compute` must be commutative +
//! associative — and its leaders publish the changed ones, the one
//! value-dependent store. A warp reads all its vertices' neighbours before
//! it publishes any and sees every earlier warp's stores. Accounting is
//! additive per block and phase name, so every counter, the per-SM cycles,
//! the phase spans and the modeled time are those of issuing it all
//! interleaved (`tests/vwc_golden.rs` pins them).

use cusha_core::integrity::{apply_flip, scrub, Ask, Detector, Recovery, Rung};
use cusha_core::memsize::{check_fits, ValueSizes};
use cusha_core::{
    check_topology, fault_instant, run_fallback, settle, CuShaConfig, CuShaOutput, DeviceRun,
    DeviceSetup, EngineError, IntegrityConfig, NoopObserver, RunObserver, VertexProgram,
};
use cusha_graph::{Csr, Graph};
use cusha_obs::trace::Tracer;
use cusha_simt::{
    Block, DevVec, DeviceConfig, FaultPlan, KernelDesc, LaunchRecord, Mask, Pod, SharedVec,
    VirtualWarps, WARP,
};

/// VWC-CSR configuration.
#[derive(Clone, Debug)]
pub struct VwcConfig {
    /// Virtual warp width (must divide 32).
    pub virtual_warp: usize,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Convergence-loop safety cap.
    pub max_iterations: u32,
    /// *Deferring outliers* (Hong et al., discussed in the paper's related
    /// work): vertices with more than this many incoming edges are skipped
    /// by their virtual warp and re-processed at the end of the block by a
    /// full 32-lane warp, trading a second pass for less intra-warp
    /// divergence on skewed graphs. `None` disables deferral.
    pub defer_outliers: Option<u32>,
    /// Retain per-launch kernel statistics in `RunStats::profile`.
    pub profile: bool,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Span/event tracer; disabled (no-op, zero-cost) by default.
    pub trace: Tracer,
    /// Silent-data-corruption defense; off by default (zero cost).
    pub integrity: IntegrityConfig,
}

impl VwcConfig {
    /// Defaults on the GTX 780 preset with the given virtual warp size.
    pub fn new(virtual_warp: usize) -> Self {
        VwcConfig {
            virtual_warp,
            threads_per_block: 256,
            max_iterations: 10_000,
            defer_outliers: None,
            profile: false,
            device: DeviceConfig::gtx780(),
            trace: Tracer::disabled(),
            integrity: IntegrityConfig::default(),
        }
    }

    /// Enables outlier deferral with the given degree threshold.
    pub fn with_outlier_deferral(mut self, threshold: u32) -> Self {
        self.defer_outliers = Some(threshold);
        self
    }

    /// Installs a tracer recording spans of the run.
    pub fn with_tracer(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// Checks the invariants the kernel's lane geometry relies on; the
    /// message names the offending field. A block is whole physical warps,
    /// each split into whole virtual warps — anything else would leave
    /// vertices no lane visits.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads_per_block == 0 || !self.threads_per_block.is_multiple_of(WARP as u32) {
            return Err(format!(
                "threads_per_block must be a nonzero multiple of the warp \
                 width (32), got {}",
                self.threads_per_block
            ));
        }
        self.device.check_block(self.threads_per_block, 0)?;
        if !crate::VIRTUAL_WARP_SIZES.contains(&self.virtual_warp) {
            return Err(format!(
                "virtual_warp must be one of {:?}, got {}",
                crate::VIRTUAL_WARP_SIZES,
                self.virtual_warp
            ));
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        self.integrity.validate()
    }
}

/// Output of a VWC run: final vertex values and run statistics.
pub type VwcOutput<V> = CuShaOutput<V>;

/// Executes `prog` over `graph` with the virtual warp-centric method.
///
/// # Panics
/// Panics on device faults; see [`try_run_vwc`]. A capped (non-converged)
/// run is returned with `stats.converged == false`, as before.
pub fn run_vwc<P: VertexProgram>(prog: &P, graph: &Graph, cfg: &VwcConfig) -> VwcOutput<P::V> {
    settle(try_run_vwc(prog, graph, cfg, None, &mut NoopObserver))
}

/// [`run_vwc`] with every failure surfaced as an [`EngineError`], a
/// [`FaultPlan`] threaded through the middleware contract (installed before
/// the run, advanced state written back on every exit), and a
/// [`RunObserver`] consulted after each non-converged iteration (`false`
/// aborts with [`EngineError::Deadline`]). Silent bit flips due at a kernel
/// boundary land in the vertex values, the only value state this engine
/// keeps; `cfg.integrity` arms the shard family's ladder against them. Bad
/// configurations ([`VwcConfig::validate`]) are refused with
/// [`EngineError::InvalidConfig`] before anything runs, and a graph whose CSR
/// the device cannot hold with [`EngineError::DeviceOom`] before it is built
/// ([`check_fits`]).
pub fn try_run_vwc<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &VwcConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<VwcOutput<P::V>, EngineError<P::V>> {
    preflight::<P>(graph, cfg)?;
    let csr = Csr::from_graph(graph);
    try_run_vwc_warm(prog, graph, &csr, cfg, fault_plan, observer)
}

/// What every entry asks before anything is built or uploaded: the
/// configuration, the CSR footprint, and a block's `outcome` array of one
/// value per thread in shared memory.
fn preflight<P: VertexProgram>(graph: &Graph, cfg: &VwcConfig) -> Result<(), EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    let (v, e) = (graph.num_vertices() as u64, graph.num_edges() as u64);
    let s = ValueSizes::of::<P>();
    check_fits(v, e, s, None, &cfg.device)?;
    let outcome = cfg.threads_per_block as u64 * s.vertex as u64;
    cfg.device
        .check_block(0, outcome)
        .map_err(EngineError::InvalidConfig)
}

/// [`try_run_vwc`] over a caller-held in-edge CSR of `graph` — built once,
/// run by many programs and virtual-warp widths. The pre-flight runs per
/// call: whether the device holds the run depends on the program's sizes.
pub fn try_run_vwc_warm<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    csr: &Csr,
    cfg: &VwcConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<VwcOutput<P::V>, EngineError<P::V>> {
    preflight::<P>(graph, cfg)?;
    check_topology("csr", (csr.num_vertices(), csr.num_edges()), graph)?;
    let setup = DeviceSetup {
        device: &cfg.device,
        profile: cfg.profile,
        trace: &cfg.trace,
        fault_plan: None,
        deadline_seconds: None,
    };
    let engine = format!("VWC-CSR/{}", cfg.virtual_warp);
    DeviceRun::open(setup, engine, fault_plan, observer, |run| {
        vwc_attempt(prog, graph, csr, cfg, run)
    })
}

fn vwc_attempt<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    csr: &Csr,
    cfg: &VwcConfig,
    run: &mut DeviceRun<'_, O>,
) -> Result<VwcOutput<P::V>, EngineError<P::V>> {
    let gpu = &mut run.gpu;
    let vws = VirtualWarps::new(cfg.virtual_warp);
    let n = graph.num_vertices() as usize;

    // ---- Upload CSR (H2D) --------------------------------------------------
    let init: Vec<P::V> = (0..graph.num_vertices())
        .map(|v| prog.initial_value(v))
        .collect();
    let mut vertex_values = gpu.try_upload(&init)?;
    let in_edge_idxs = gpu.try_upload(csr.in_edge_idxs())?;
    let src_indxs = gpu.try_upload(csr.src_indxs())?;
    let static_buf: Option<DevVec<P::SV>> = match P::HAS_STATIC_VALUES {
        true => Some(gpu.try_upload(&prog.static_values(graph))?),
        false => None,
    };
    let edge_buf: Option<DevVec<P::E>> = match P::HAS_EDGE_VALUES {
        true => {
            let by_edge_id = prog.edge_values(graph);
            let vals: Vec<P::E> = csr
                .edge_ids()
                .iter()
                .map(|&id| by_edge_id[id as usize])
                .collect();
            Some(gpu.try_upload(&vals)?)
        }
        false => None,
    };
    let mut converged_flag = gpu.try_upload(&[1u32])?;
    run.uploaded();

    // The scrub digest, only with checksums on (`None` never mismatches).
    let crc_of = |vv: &DevVec<P::V>| cfg.integrity.mode.checksums().then(|| scrub(vv.host()));
    let mut crc = crc_of(&vertex_values);
    let mut recovery = Recovery::new(cfg.integrity, None, &mut run.stats.sdc, || (init, ()));
    let law = |verified: &[P::V], now: &[P::V]| prog.check_invariant(verified, now);

    // How the ladder reaches the vertex values, both ways charged.
    macro_rules! state {
        () => {
            |gpu: &mut cusha_simt::Gpu, ask: Ask<'_, P::V, ()>| {
                match ask {
                    Ask::Restore(cp) => gpu.try_h2d(&mut vertex_values, &cp.values)?,
                    Ask::Snapshot(values, _) => *values = gpu.try_download(&vertex_values)?,
                    Ask::Mark(name) => fault_instant(gpu, "sdc", name),
                    Ask::Inspect(check) => check(vertex_values.host()),
                }
                Ok(())
            }
        };
    }
    // One rung of the ladder, resuming on restored (and newly digested)
    // values; past the last, the host fallback finishes the run.
    macro_rules! recover {
        ($detector:expr) => {{
            if let Rung::Exhausted = run.recover(&mut recovery, $detector, state!())? {
                let mut host_cfg = CuShaConfig::gs();
                host_cfg.max_iterations = cfg.max_iterations;
                let host = run_fallback(prog, graph, &host_cfg).or_else(EngineError::partial)?;
                let (mut stats, values) = (run.abandon(), host.values);
                stats.converged = host.stats.converged;
                return CuShaOutput { values, stats }.into_result();
            }
            crc = crc_of(&vertex_values);
            continue;
        }};
    }

    // ---- Convergence loop --------------------------------------------------
    let vw = cfg.virtual_warp;
    let wpg = vws.per_physical(); // vertices (groups) per physical warp
    let tpb = cfg.threads_per_block as usize;
    let vertices_per_block = tpb / vw;
    let grid = (n.div_ceil(vertices_per_block)).max(1) as u32;
    let all_leaders = vws.leaders();
    let desc = KernelDesc::new(
        format!("VWC-CSR/{}::{}", cfg.virtual_warp, prog.name()),
        grid,
        cfg.threads_per_block,
    );
    // What the CSR and the geometry fix, charged whole after the first launch.
    let mut record = LaunchRecord::default();
    let offsets = in_edge_idxs.host();
    let defers = |deg: u32| cfg.defer_outliers.is_some_and(|t| deg > t);
    let deg = |v: usize| offsets[v + 1] - offsets[v];
    let (srcs, statics) = (src_indxs.host(), static_buf.as_ref().map(DevVec::host));
    let edge_values = edge_buf.as_ref().map(DevVec::host);
    // Vertex `v`'s new value over `values`, if it is to be published.
    let relax = |v: usize, values: &[P::V]| {
        let (old, mut new) = (values[v], P::V::default());
        prog.init_compute(&mut new, &old);
        for e in offsets[v] as usize..offsets[v + 1] as usize {
            let src = srcs[e] as usize;
            let sv = statics.map_or_else(P::SV::default, |s| s[src]);
            let ev = edge_values.map_or_else(P::E::default, |ev| ev[e]);
            prog.compute(&values[src], &sv, &ev, &mut new);
        }
        prog.update_condition(&mut new, &old).then_some(new)
    };
    while run.stats.iterations < cfg.max_iterations {
        let gpu = &mut run.gpu;
        let iter_ts = gpu.total_seconds();
        gpu.try_h2d(&mut converged_flag, &[1u32])?;
        // Silent bit flips scheduled at this kernel boundary land while the
        // data sits at rest in device DRAM. VWC keeps no SrcValue or window
        // state, so every flip corrupts the vertex-value buffer.
        let flips = gpu.take_due_bit_flips();
        for flip in &flips {
            apply_flip(&mut vertex_values, flip);
        }
        run.stats.sdc.flips_injected += flips.len() as u64;
        if crc_of(&vertex_values) != crc {
            recover!(Detector::Checksum);
        }
        let mut updated_this_iter = 0u64;
        let kstats = gpu.try_launch_recorded(&desc, &mut record, |b| {
            let block_vertex_base = b.id() as usize * vertices_per_block;
            if block_vertex_base >= n {
                return; // the one block of an empty graph
            }
            let block_vertices = (n - block_vertex_base).min(vertices_per_block);
            let block = block_vertex_base..block_vertex_base + block_vertices;
            let warps = block_vertices.div_ceil(wpg);
            // Physical warp `w`: its first vertex, how many of its groups
            // hold one (a prefix, so the valid lanes are a run), and those
            // groups' leader lanes.
            let warp = |w: usize| {
                let base = block_vertex_base + w * wpg;
                let nvalid = (n - base).min(wpg);
                let valid = Mask(((1u64 << (nvalid * vw)) - 1) as u32);
                (base, nvalid, all_leaders.and(valid))
            };
            // The `outcome` shared array (paper Appendix A line 7) of the
            // per-step stores and the ladders; only the statics touch it.
            let mut outcome = None;

            // --- SISD phase (leader lanes): CSR offsets + old value.
            b.phase("sisd");
            b.statics(|b| {
                for w in 0..warps {
                    let (base, _, leaders) = warp(w);
                    let vertex_of = |lane: usize| base + vws.group_of(lane);
                    b.gload(&in_edge_idxs, leaders, vertex_of);
                    b.gload(&in_edge_idxs, leaders, |l| vertex_of(l) + 1);
                    b.gload(&vertex_values, leaders, vertex_of);
                    b.exec(leaders, 1); // InitCompute
                }
            });

            // --- Neighbour sweep, `vw` edges of each vertex per step.
            b.phase("sweep");
            b.statics(|b| {
                let outcome = outcome.get_or_insert_with(|| b.shared_alloc::<P::V>(tpb));
                let stored = [P::V::default(); WARP]; // nothing reads `outcome`
                for w in 0..warps {
                    let (base, nvalid, _) = warp(w);
                    let mut group_start = [0u32; WARP];
                    let mut group_deg = [0u32; WARP];
                    for g in 0..nvalid {
                        group_start[g] = offsets[base + g];
                        // A deferred outlier is skipped by the main sweep.
                        let d = deg(base + g);
                        group_deg[g] = if defers(d) { 0 } else { d };
                    }
                    let warp_thread_base = (w * WARP) as isize;
                    let max_deg = group_deg[..nvalid].iter().max().map_or(0, |&d| d as usize);
                    for step in 0..max_deg.div_ceil(vw) {
                        // Per group: lanes whose edge slot is still in range
                        // — a low-bit run of the group's lane field.
                        let done = (step * vw) as u32;
                        let mut bits = 0u32;
                        for (g, deg) in group_deg[..nvalid].iter().enumerate() {
                            let cnt = (deg.saturating_sub(done) as usize).min(vw);
                            bits |= (((1u64 << cnt) - 1) as u32) << (g * vw);
                        }
                        let mask = Mask(bits);
                        if mask.is_empty() {
                            continue;
                        }
                        let edge_index = |lane: usize| {
                            (group_start[vws.group_of(lane)] + done) as usize
                                + vws.lane_in_group(lane)
                        };
                        // Edge-array reads: partially coalesced (consecutive
                        // within a virtual warp, disjoint ranges across).
                        // With a single group per warp the slice is
                        // stride-1, so the closed-form run ops replace the
                        // per-lane address analysis.
                        let ebase = (group_start[0] + done) as isize;
                        let nbrs = if wpg == 1 {
                            b.gload_run(&src_indxs, mask, ebase)
                        } else {
                            b.gload(&src_indxs, mask, edge_index)
                        };
                        // THE non-coalesced gather: neighbour values.
                        b.gload(&vertex_values, mask, |l| nbrs[l] as usize);
                        if let Some(buf) = &static_buf {
                            b.gload(buf, mask, |l| nbrs[l] as usize);
                        }
                        if let Some(buf) = &edge_buf {
                            if wpg == 1 {
                                b.gload_run(buf, mask, ebase);
                            } else {
                                b.gload(buf, mask, edge_index);
                            }
                        }
                        b.exec(mask, P::COMPUTE_COST);
                        // The accounted `outcome` store of Appendix A.
                        b.sstore_run(outcome, mask, warp_thread_base, &stored);
                    }
                }
            });

            // --- Parallel reduction ladders.
            b.phase("reduce");
            b.statics(|b| {
                let outcome = outcome.get_or_insert_with(|| b.shared_alloc::<P::V>(tpb));
                for w in 0..warps {
                    ladder(b, outcome, w * WARP, vw, warp(w).1);
                }
            });

            // --- Leaders publish the changed values (Appendix A lines 22-25).
            b.phase("publish");
            b.statics(|b| (0..warps).for_each(|w| b.exec(warp(w).2, 1)));
            let mut block_updated = false;
            for w in 0..warps {
                let (base, nvalid, _) = warp(w);
                let (mut stores, mut news) = (0u32, [P::V::default(); WARP]);
                for (g, new) in news[..nvalid].iter_mut().enumerate() {
                    if defers(deg(base + g)) {
                        continue;
                    }
                    if let Some(v) = relax(base + g, vertex_values.host()) {
                        *new = v;
                        stores |= 1 << g;
                    }
                }
                // Group `g`'s leader stores to `base + g`: the leader lanes'
                // addresses and lane count, as a run op over the groups.
                if stores != 0 {
                    b.gstore_run(&mut vertex_values, Mask(stores), base as isize, &news);
                    block_updated = true;
                    updated_this_iter += u64::from(stores.count_ones());
                }
            }

            // Second pass: deferred outliers, one full 32-lane warp each.
            let deferred = || block.clone().filter(|&v| defers(deg(v)));
            if deferred().next().is_some() {
                b.phase("deferred");
                b.statics(|b| {
                    let outcome = outcome.get_or_insert_with(|| b.shared_alloc::<P::V>(tpb));
                    let stored = [P::V::default(); WARP];
                    for v in deferred() {
                        let edges = offsets[v] as usize..offsets[v + 1] as usize;
                        for k in edges.clone().step_by(WARP) {
                            let mask = Mask::first((edges.end - k).min(WARP));
                            let nbrs = b.gload_run(&src_indxs, mask, k as isize);
                            b.gload(&vertex_values, mask, |l| nbrs[l] as usize);
                            if let Some(buf) = &static_buf {
                                b.gload(buf, mask, |l| nbrs[l] as usize);
                            }
                            if let Some(buf) = &edge_buf {
                                b.gload_run(buf, mask, k as isize);
                            }
                            b.exec(mask, P::COMPUTE_COST);
                            b.sstore_run(outcome, mask, 0, &stored);
                        }
                        ladder(b, outcome, 0, WARP, 1); // full-warp
                        b.exec(Mask::first(1), 1);
                    }
                });
                for v in deferred() {
                    if let Some(new) = relax(v, vertex_values.host()) {
                        b.gstore(&mut vertex_values, Mask::first(1), |_| v, |_| new);
                        block_updated = true;
                        updated_this_iter += 1;
                    }
                }
            }

            if block_updated {
                b.gstore_run(&mut converged_flag, Mask::first(1), 0, &[0u32; WARP]);
            }
        })?;
        let total = &mut run.stats;
        total.kernel.counters.add(&kstats.counters);
        total.kernel.blocks = kstats.blocks;
        total.kernel.threads_per_block = kstats.threads_per_block;
        let converged = gpu.try_download_scalar(&converged_flag, 0)? == 1;
        crc = crc_of(&vertex_values);
        run.iteration(iter_ts, kstats.seconds, updated_this_iter, Vec::new);
        if run.boundary(&mut recovery, law, converged, state!())? {
            recover!(Detector::Invariant);
        }
        if converged {
            run.stats.converged = true;
            break;
        }
    }
    recovery.finish(|ask| state!()(&mut run.gpu, ask))?;

    run.stats.kernel.name = desc.name.clone();
    let (values, stats) = run.close(|gpu| gpu.try_download(&vertex_values))?;
    CuShaOutput { values, stats }.into_result()
}

/// One warp's parallel reduction ladder over `outcome[thread_base..]`:
/// `log2(vw)` halving steps with shrinking active masks (the intra-warp
/// divergence source), each over the low `off` lanes of the warp's `nvalid`
/// groups. It reads and writes at a fixed lane offset, so both halves are
/// stride-1 run ops.
fn ladder<V: Pod>(
    b: &mut Block<'_>,
    outcome: &mut SharedVec<V>,
    thread_base: usize,
    vw: usize,
    nvalid: usize,
) {
    let mut off = vw / 2;
    while off >= 1 {
        let sub = ((1u64 << off) - 1) as u32;
        let mask = Mask((0..nvalid).fold(0, |bits, g| bits | sub << (g * vw)));
        let partial = b.sload_run(outcome, mask, (thread_base + off) as isize);
        b.sstore_run(outcome, mask, thread_base as isize, &partial);
        b.exec(mask, 1);
        off /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_algos::bfs::{bfs_levels, Bfs};
    use cusha_algos::sssp::{dijkstra, Sssp};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::Edge;

    #[test]
    fn bfs_matches_oracle_for_every_virtual_warp_size() {
        let g = rmat(&RmatConfig::graph500(7, 700, 30));
        let oracle = bfs_levels(&g, 0);
        for vw in crate::VIRTUAL_WARP_SIZES {
            let out = run_vwc(&Bfs::new(0), &g, &VwcConfig::new(vw));
            assert!(out.stats.converged, "vw={vw}");
            assert_eq!(out.values, oracle, "vw={vw}");
        }
    }

    #[test]
    fn one_csr_serves_every_width_and_a_foreign_one_is_refused() {
        let g = rmat(&RmatConfig::graph500(7, 700, 30));
        let csr = Csr::from_graph(&g);
        for vw in crate::VIRTUAL_WARP_SIZES {
            let cfg = VwcConfig::new(vw);
            let warm = try_run_vwc_warm(&Sssp::new(0), &g, &csr, &cfg, None, &mut NoopObserver);
            let (warm, cold) = (warm.unwrap(), run_vwc(&Sssp::new(0), &g, &cfg));
            assert_eq!(warm.values, cold.values, "vw={vw}");
            assert_eq!(format!("{:?}", warm.stats), format!("{:?}", cold.stats));
        }
        let mt = crate::MtcpuConfig::new(2);
        let warm = crate::try_run_mtcpu_warm(&Sssp::new(0), &g, &csr, &mt, &mut NoopObserver);
        assert_eq!(warm.unwrap().values, dijkstra(&g, 0));
        let other = Csr::from_graph(&rmat(&RmatConfig::graph500(7, 600, 31)));
        let cfg = VwcConfig::new(8);
        let refused = try_run_vwc_warm(&Bfs::new(0), &g, &other, &cfg, None, &mut NoopObserver);
        assert!(matches!(refused, Err(EngineError::InvalidConfig(_))));
        let refused = crate::try_run_mtcpu_warm(&Bfs::new(0), &g, &other, &mt, &mut NoopObserver);
        assert!(matches!(refused, Err(EngineError::InvalidConfig(_))));
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = rmat(&RmatConfig::graph500(7, 600, 31));
        let oracle = dijkstra(&g, 0);
        let out = run_vwc(&Sssp::new(0), &g, &VwcConfig::new(8));
        assert_eq!(out.values, oracle);
    }

    #[test]
    fn nonstandard_block_sizes_work() {
        let g = rmat(&RmatConfig::graph500(7, 700, 35));
        let oracle = bfs_levels(&g, 0);
        for tpb in [64u32, 128, 512] {
            let mut cfg = VwcConfig::new(8);
            cfg.threads_per_block = tpb;
            let out = run_vwc(&Bfs::new(0), &g, &cfg);
            assert_eq!(out.values, oracle, "tpb={tpb}");
        }
    }

    /// The error `try_run_vwc` refuses `cfg` with, before running anything.
    fn rejection(cfg: &VwcConfig) -> String {
        let g = rmat(&RmatConfig::graph500(7, 700, 30));
        match try_run_vwc(&Bfs::new(0), &g, cfg, None, &mut NoopObserver) {
            Err(EngineError::InvalidConfig(msg)) => msg,
            Err(e) => panic!("expected InvalidConfig, got {e}"),
            Ok(out) => panic!(
                "accepted {cfg:?}; oracle agreement: {}",
                out.values == bfs_levels(&g, 0)
            ),
        }
    }

    #[test]
    fn rejects_blocks_that_are_not_whole_warps() {
        // 16 used to "converge" on the initial values after one iteration,
        // 48 (at vw 8) never visited the vertices past the last whole warp.
        let limit = DeviceConfig::gtx780().max_threads_per_block;
        for tpb in [0, 16, 48, limit + 32] {
            let mut cfg = VwcConfig::new(8);
            cfg.threads_per_block = tpb;
            assert!(rejection(&cfg).contains("threads_per_block"), "tpb={tpb}");
        }
    }

    #[test]
    fn rejects_virtual_warps_that_do_not_divide_a_warp() {
        for vw in [0, 1, 3, 64] {
            assert!(
                rejection(&VwcConfig::new(vw)).contains("virtual_warp"),
                "vw={vw}"
            );
        }
    }

    #[test]
    fn rejects_a_zero_iteration_cap() {
        let mut cfg = VwcConfig::new(8);
        cfg.max_iterations = 0;
        assert!(rejection(&cfg).contains("max_iterations"));
    }

    #[test]
    fn empty_graph_converges() {
        let g = Graph::empty(10);
        let out = run_vwc(&Bfs::new(0), &g, &VwcConfig::new(4));
        assert!(out.stats.converged);
        assert_eq!(out.stats.iterations, 1);
    }

    #[test]
    fn store_efficiency_is_poor_as_in_the_paper() {
        // Only leader lanes write: Table 2 / Figure 8's ~2% store
        // efficiency effect. With vw=32 a warp writes <= 1 value.
        let g = rmat(&RmatConfig::graph500(8, 3000, 32));
        let out = run_vwc(&Sssp::new(0), &g, &VwcConfig::new(32));
        let gst = out.stats.kernel.gst_efficiency();
        assert!(gst < 0.20, "VWC store efficiency should be low, got {gst}");
    }

    #[test]
    fn gather_load_efficiency_is_poor() {
        let g = rmat(&RmatConfig::graph500(8, 3000, 33));
        let out = run_vwc(&Sssp::new(0), &g, &VwcConfig::new(8));
        let gld = out.stats.kernel.gld_efficiency();
        assert!(
            gld < 0.60,
            "VWC load efficiency should be limited, got {gld}"
        );
    }

    #[test]
    fn outlier_deferral_preserves_results() {
        let g = rmat(&RmatConfig::graph500(8, 3000, 34));
        let plain = run_vwc(&Sssp::new(0), &g, &VwcConfig::new(4));
        let deferred = run_vwc(
            &Sssp::new(0),
            &g,
            &VwcConfig::new(4).with_outlier_deferral(16),
        );
        assert_eq!(plain.values, deferred.values);
        assert!(deferred.stats.converged);
    }

    #[test]
    fn outlier_deferral_improves_warp_efficiency_on_skewed_graphs() {
        // A few extreme hubs among small-degree vertices: with vw=2, hub
        // processing serializes a physical warp for hundreds of steps
        // unless deferred to a full-warp pass.
        let mut edges: Vec<Edge> = Vec::new();
        for v in 1..800u32 {
            edges.push(Edge::new(v, v % 4, 1)); // 4 hubs
            edges.push(Edge::new(v, (v + 1) % 800, 1));
        }
        let g = Graph::new(800, edges);
        let prog = Sssp::new(5);
        let plain = run_vwc(&prog, &g, &VwcConfig::new(2));
        let deferred = run_vwc(&prog, &g, &VwcConfig::new(2).with_outlier_deferral(32));
        assert_eq!(plain.values, deferred.values);
        let e_plain = plain.stats.kernel.warp_execution_efficiency();
        let e_def = deferred.stats.kernel.warp_execution_efficiency();
        assert!(
            e_def > e_plain,
            "deferral should raise warp efficiency: {e_plain:.3} -> {e_def:.3}"
        );
    }

    #[test]
    fn tracer_records_iteration_kernel_and_phase_spans() {
        use cusha_obs::trace::Ph;
        let g = rmat(&RmatConfig::graph500(7, 600, 36));
        let tracer = Tracer::enabled();
        let cfg = VwcConfig::new(8).with_tracer(tracer.clone());
        let out = run_vwc(&Sssp::new(0), &g, &cfg);
        tracer.with_events(|events| {
            let iters = events
                .iter()
                .filter(|e| e.name == "iteration" && e.ph == Ph::Complete)
                .count();
            assert_eq!(iters as u32, out.stats.iterations);
            for phase in ["sisd", "sweep", "reduce", "publish"] {
                assert!(
                    events.iter().any(|e| e.cat == "phase" && e.name == phase),
                    "missing phase span {phase}"
                );
            }
            assert!(events.iter().any(|e| e.cat == "kernel"));
        });
        // Tracing must not perturb results or the modeled clock.
        let plain = run_vwc(&Sssp::new(0), &g, &VwcConfig::new(8));
        assert_eq!(out.values, plain.values);
        assert_eq!(
            out.stats.total_seconds().to_bits(),
            plain.stats.total_seconds().to_bits()
        );
    }

    #[test]
    fn degree_skew_causes_divergence() {
        // A hub vertex amid low-degree vertices forces idle lanes.
        let mut edges: Vec<Edge> = (1..64).map(|v| Edge::new(v, 0, 1)).collect();
        edges.extend((1..63).map(|v| Edge::new(v, v + 1, 1)));
        let g = Graph::new(64, edges);
        let out = run_vwc(&Bfs::new(1), &g, &VwcConfig::new(8));
        let wee = out.stats.kernel.warp_execution_efficiency();
        assert!(wee < 0.9, "expected divergence, got efficiency {wee}");
        assert_eq!(out.values, bfs_levels(&g, 1));
    }

    use cusha_graph::Graph;
}
