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
//! Functional folding is applied host-side in deterministic lane order
//! (sound because `compute` must be commutative + associative), while every
//! memory operation and the reduction ladder are issued through the
//! simulator for accounting, so efficiency metrics and timing reflect the
//! real access pattern.

use cusha_core::integrity::apply_flip;
use cusha_core::{
    CuShaOutput, EngineError, IterationStat, NoopObserver, RunObserver, RunStats, VertexProgram,
};
use cusha_graph::{Csr, Graph};
use cusha_obs::trace::{lanes, ArgVal, Tracer};
use cusha_simt::{DevVec, DeviceConfig, FaultPlan, Gpu, KernelDesc, Mask, VirtualWarps, WARP};

// Warp-trace replay site tags (see `cusha_simt::replay`). Two phases of a
// warp have accounting that is a pure function of a small *class* — SISD of
// the vertex base's coalescing alignment, the reduction ladder of the warp's
// slot in its block — so a run keeps a few hundred keys that always hit,
// whatever |V| is. The sweep between them gathers through the CSR, one
// pattern per vertex: it is interpreted by the device's O(active-lanes)
// analysis, which costs less than probing a table that cannot hold it.
const SITE_VWC_SISD: u64 = 0x7677_5349_5344;
const SITE_VWC_REDUCE: u64 = 0x7677_524544;
const SITE_VWC_DEF: u64 = 0x7677_444546;

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
}

/// Output of a VWC run.
#[derive(Clone, Debug)]
pub struct VwcOutput<V> {
    /// Final vertex values.
    pub values: Vec<V>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Executes `prog` over `graph` with the virtual warp-centric method.
///
/// # Panics
/// Panics on device faults; see [`try_run_vwc`]. A capped (non-converged)
/// run is returned with `stats.converged == false`, as before.
pub fn run_vwc<P: VertexProgram>(prog: &P, graph: &Graph, cfg: &VwcConfig) -> VwcOutput<P::V> {
    match try_run_vwc(prog, graph, cfg, None, &mut NoopObserver) {
        Ok(out) => out,
        Err(EngineError::NonConverged { partial }) => VwcOutput {
            values: partial.values,
            stats: partial.stats,
        },
        Err(e) => panic!("{e}"),
    }
}

/// [`run_vwc`] with every failure surfaced as an [`EngineError`], a
/// [`FaultPlan`] threaded through the middleware contract (installed before
/// the run, advanced state written back on every exit), and a
/// [`RunObserver`] consulted after each non-converged iteration (`false`
/// aborts with [`EngineError::Deadline`]). Silent bit flips due at a kernel
/// boundary land in the vertex-value buffer — the only resident value state
/// this engine keeps — whatever their nominal target.
pub fn try_run_vwc<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &VwcConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<VwcOutput<P::V>, EngineError<P::V>> {
    let mut gpu = Gpu::new(cfg.device.clone());
    gpu.set_profiling(cfg.profile);
    gpu.set_tracer(cfg.trace.clone(), 0);
    if let Some(p) = fault_plan.as_deref() {
        gpu.set_fault_plan(p.clone());
    }
    let result = vwc_attempt(prog, graph, cfg, &mut gpu, observer);
    if let (Some(slot), Some(p)) = (fault_plan, gpu.take_fault_plan()) {
        *slot = p;
    }
    result
}

fn vwc_attempt<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &VwcConfig,
    gpu: &mut Gpu,
    observer: &mut O,
) -> Result<VwcOutput<P::V>, EngineError<P::V>> {
    let vws = VirtualWarps::new(cfg.virtual_warp);
    let csr = Csr::from_graph(graph);
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
    let h2d_initial = gpu.h2d_seconds;
    cfg.trace.complete(
        0,
        lanes::ENGINE,
        "engine",
        "setup",
        0.0,
        gpu.total_seconds(),
    );

    // ---- Convergence loop --------------------------------------------------
    let vertices_per_block = (cfg.threads_per_block as usize / cfg.virtual_warp).max(1);
    let grid = (n.div_ceil(vertices_per_block)).max(1) as u32;
    let wpg = vws.per_physical(); // vertices (groups) per physical warp
    let desc = KernelDesc::new(
        format!("VWC-CSR/{}::{}", cfg.virtual_warp, prog.name()),
        grid,
        cfg.threads_per_block,
    );
    let mut total = RunStats {
        engine: format!("VWC-CSR/{}", cfg.virtual_warp),
        ..Default::default()
    };
    let mut converged = false;
    while total.iterations < cfg.max_iterations {
        let iter_ts = gpu.total_seconds();
        gpu.try_h2d(&mut converged_flag, &[1u32])?;
        // Silent bit flips scheduled at this kernel boundary land while the
        // data sits at rest in device DRAM. VWC keeps no SrcValue or window
        // state, so every flip corrupts the vertex-value buffer.
        let flips = gpu.take_due_bit_flips();
        for flip in &flips {
            apply_flip(&mut vertex_values, flip);
        }
        total.sdc.flips_injected += flips.len() as u64;
        let mut updated_this_iter = 0u64;
        let kstats = gpu.try_launch(&desc, |b| {
            let block_vertex_base = b.id() as usize * vertices_per_block;
            // `outcome` shared array (paper Appendix A line 7) used by the
            // per-step stores and the reduction ladder.
            let mut outcome = b.shared_alloc::<P::V>(cfg.threads_per_block as usize);
            let mut block_updated = false;
            let warps_per_block = (cfg.threads_per_block as usize) / WARP;
            // (vertex, csr start, degree, old value) of deferred outliers.
            let mut deferred: Vec<(usize, u32, u32, P::V)> = Vec::new();
            let vw = cfg.virtual_warp;
            let zcol = [0u32; WARP]; // trace keys are site+mask-determined
            for w in 0..warps_per_block {
                let warp_vertex_base = block_vertex_base + w * wpg;
                if warp_vertex_base >= n {
                    break;
                }
                // Lane -> vertex mapping for this physical warp. Valid
                // groups are a prefix, so the valid-lane set is a run.
                let vertex_of = |lane: usize| warp_vertex_base + vws.group_of(lane);
                let nvalid = (n - warp_vertex_base).min(wpg);
                let valid = Mask(((1u64 << (nvalid * vw)) - 1) as u32);
                let leaders = vws.leaders().and(valid);

                // --- SISD phase (leader lanes): CSR offsets + old value.
                b.phase("sisd");
                // Keyed on the vertex base's coalescing alignment class
                // (all device buffers are 256-byte aligned, so `base mod
                // segment-lanes` fixes every segment/sector count), not the
                // base itself: thousands of warps share a handful of keys.
                b.warp_scope(
                    &[
                        SITE_VWC_SISD,
                        (warp_vertex_base % 32) as u64,
                        nvalid as u64,
                        0,
                    ],
                    leaders,
                    &zcol,
                );
                let starts = b.gload(&in_edge_idxs, leaders, vertex_of);
                let ends = b.gload(&in_edge_idxs, leaders, |l| vertex_of(l) + 1);
                let olds = b.gload(&vertex_values, leaders, vertex_of);
                b.exec(leaders, 1); // InitCompute
                b.warp_scope_end();
                // Host-side group bookkeeping.
                let mut group_start = [0u32; WARP];
                let mut group_deg = [0u32; WARP];
                let mut group_old = [P::V::default(); WARP];
                let mut group_deferred = [false; WARP];
                let mut acc = [P::V::default(); WARP]; // accumulator per group
                for g in 0..wpg {
                    let leader = g * cfg.virtual_warp;
                    if !leaders.lane(leader) {
                        continue;
                    }
                    group_start[g] = starts[leader];
                    group_deg[g] = ends[leader] - starts[leader];
                    group_old[g] = olds[leader];
                    if let Some(threshold) = cfg.defer_outliers {
                        if group_deg[g] > threshold {
                            deferred.push((
                                vertex_of(leader),
                                group_start[g],
                                group_deg[g],
                                olds[leader],
                            ));
                            group_deg[g] = 0; // skipped by the main sweep
                            group_deferred[g] = true;
                            continue;
                        }
                    }
                    let mut local = P::V::default();
                    prog.init_compute(&mut local, &olds[leader]);
                    acc[g] = local;
                }

                // --- Neighbour sweep, `vw` edges of each vertex per step.
                b.phase("sweep");
                let warp_thread_base = w * WARP;
                let max_deg = (0..wpg).map(|g| group_deg[g]).max().unwrap_or(0);
                let steps = (max_deg as usize).div_ceil(cfg.virtual_warp);
                for step in 0..steps {
                    let slot_of =
                        |lane: usize| (step * cfg.virtual_warp + vws.lane_in_group(lane)) as u32;
                    // Per group: lanes whose edge slot is still in range —
                    // a low-bit run of the group's lane field.
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
                    let edge_index =
                        |lane: usize| (group_start[vws.group_of(lane)] + slot_of(lane)) as usize;
                    // Edge-array reads: partially coalesced (consecutive
                    // within a virtual warp, disjoint ranges across). With a
                    // single group per warp the slice is stride-1, so the
                    // closed-form run ops replace the per-lane address sort.
                    let ebase = (group_start[0] + done) as isize;
                    let nbrs = if wpg == 1 {
                        b.gload_run(&src_indxs, mask, ebase)
                    } else {
                        b.gload(&src_indxs, mask, edge_index)
                    };
                    // THE non-coalesced gather: neighbour values.
                    let nbr_vals = b.gload(&vertex_values, mask, |l| nbrs[l] as usize);
                    let nbr_static = match &static_buf {
                        Some(buf) => b.gload(buf, mask, |l| nbrs[l] as usize),
                        None => [P::SV::default(); WARP],
                    };
                    let evals = match &edge_buf {
                        Some(buf) => {
                            if wpg == 1 {
                                b.gload_run(buf, mask, ebase)
                            } else {
                                b.gload(buf, mask, edge_index)
                            }
                        }
                        None => [P::E::default(); WARP],
                    };
                    b.exec(mask, P::COMPUTE_COST);
                    // Fold into per-group accumulators (host-side, lane
                    // order; sound by commutativity+associativity), and
                    // issue the accounted `outcome` store of Appendix A.
                    for l in mask.iter() {
                        prog.compute(
                            &nbr_vals[l],
                            &nbr_static[l],
                            &evals[l],
                            &mut acc[vws.group_of(l)],
                        );
                    }
                    let mut vals = [P::V::default(); WARP];
                    for l in mask.iter() {
                        vals[l] = acc[vws.group_of(l)];
                    }
                    b.sstore_run(&mut outcome, mask, warp_thread_base as isize, &vals);
                }

                // --- Parallel reduction ladder: log2(vw) halving steps with
                // shrinking active masks (the intra-warp divergence source).
                b.phase("reduce");
                // The ladder's shared-memory pattern depends only on the
                // warp's thread base and its valid-group count.
                b.warp_scope(
                    &[SITE_VWC_REDUCE, w as u64, nvalid as u64, 0],
                    leaders,
                    &zcol,
                );
                let mut off = cfg.virtual_warp / 2;
                while off >= 1 {
                    // Low `off` lanes of each valid group. The ladder reads
                    // and writes at a fixed lane offset, so both halves are
                    // stride-1 run ops.
                    let sub = ((1u64 << off) - 1) as u32;
                    let mut bits = 0u32;
                    for g in 0..nvalid {
                        bits |= sub << (g * vw);
                    }
                    let mask = Mask(bits);
                    let partial = b.sload_run(&outcome, mask, (warp_thread_base + off) as isize);
                    b.sstore_run(&mut outcome, mask, warp_thread_base as isize, &partial);
                    b.exec(mask, 1);
                    off /= 2;
                }
                b.warp_scope_end();

                // --- Leader publishes if changed (Appendix A lines 22-25).
                b.phase("publish");
                let mut store_bits = 0u32;
                let mut news = [P::V::default(); WARP];
                for g in 0..wpg {
                    let leader = g * cfg.virtual_warp;
                    if !leaders.lane(leader) || group_deferred[g] {
                        continue;
                    }
                    let mut local = acc[g];
                    if prog.update_condition(&mut local, &group_old[g]) {
                        store_bits |= 1 << leader;
                    }
                    news[leader] = local;
                }
                // Not scoped: the store mask is value-dependent, so its
                // trace key would churn every iteration and evict stable
                // entries. The store is at most one lane per group.
                let store_mask = Mask(store_bits);
                b.exec(leaders, 1);
                if !store_mask.is_empty() {
                    b.gstore(&mut vertex_values, store_mask, vertex_of, |l| news[l]);
                    block_updated = true;
                    updated_this_iter += store_mask.count() as u64;
                }
            }

            // Second pass: deferred outliers, one full 32-lane warp each.
            if !deferred.is_empty() {
                b.phase("deferred");
            }
            for &(v, start, deg, old) in &deferred {
                let mut local = P::V::default();
                prog.init_compute(&mut local, &old);
                // The sweep and the full-warp ladder touch memory in a
                // pattern fixed by the vertex's CSR slice; the
                // value-dependent publish below stays outside the scope.
                b.warp_scope(
                    &[SITE_VWC_DEF, v as u64, start as u64, deg as u64],
                    Mask::first(WARP),
                    &zcol,
                );
                let mut k = 0u32;
                while k < deg {
                    let lanes = ((deg - k) as usize).min(WARP);
                    let mask = Mask::first(lanes);
                    let ebase = (start + k) as isize;
                    let nbrs = b.gload_run(&src_indxs, mask, ebase);
                    let nbr_vals = b.gload(&vertex_values, mask, |l| nbrs[l] as usize);
                    let nbr_static = match &static_buf {
                        Some(buf) => b.gload(buf, mask, |l| nbrs[l] as usize),
                        None => [P::SV::default(); WARP],
                    };
                    let evals = match &edge_buf {
                        Some(buf) => b.gload_run(buf, mask, ebase),
                        None => [P::E::default(); WARP],
                    };
                    b.exec(mask, P::COMPUTE_COST);
                    for l in mask.iter() {
                        prog.compute(&nbr_vals[l], &nbr_static[l], &evals[l], &mut local);
                    }
                    b.sstore_run(&mut outcome, mask, 0, &[local; WARP]);
                    k += lanes as u32;
                }
                // Full-warp reduction ladder.
                let mut off = WARP / 2;
                while off >= 1 {
                    let mask = Mask::first(off);
                    let partial = b.sload_run(&outcome, mask, off as isize);
                    b.sstore_run(&mut outcome, mask, 0, &partial);
                    b.exec(mask, 1);
                    off /= 2;
                }
                b.warp_scope_end();
                let cond = prog.update_condition(&mut local, &old);
                b.exec(Mask::first(1), 1);
                if cond {
                    b.gstore(&mut vertex_values, Mask::first(1), |_| v, |_| local);
                    block_updated = true;
                    updated_this_iter += 1;
                }
            }

            if block_updated {
                b.gstore(&mut converged_flag, Mask::first(1), |_| 0, |_| 0u32);
            }
        })?;
        total.iterations += 1;
        total.per_iteration.push(IterationStat {
            seconds: kstats.seconds,
            updated_vertices: updated_this_iter,
        });
        total.kernel.counters.add(&kstats.counters);
        total.kernel.blocks = kstats.blocks;
        total.kernel.threads_per_block = kstats.threads_per_block;
        let flag = gpu.try_download_scalar(&converged_flag, 0)?;
        let iter = total.iterations as u64 - 1;
        cfg.trace.complete_with(
            0,
            lanes::ENGINE,
            "engine",
            "iteration",
            iter_ts,
            gpu.total_seconds() - iter_ts,
            || {
                vec![
                    ("iteration", ArgVal::U64(iter)),
                    ("updated_vertices", ArgVal::U64(updated_this_iter)),
                ]
            },
        );
        cfg.trace.counter(
            0,
            lanes::ENGINE,
            "updated_vertices",
            gpu.total_seconds(),
            updated_this_iter as f64,
        );
        if flag == 1 {
            converged = true;
            break;
        }
        if !observer.on_iteration(total.iterations, updated_this_iter, gpu.total_seconds()) {
            return Err(EngineError::Deadline {
                iterations: total.iterations,
                elapsed_seconds: gpu.total_seconds(),
            });
        }
    }

    // ---- Download results (D2H) --------------------------------------------
    let d2h_before_results = gpu.d2h_seconds;
    let dl_ts = gpu.total_seconds();
    let values = gpu.try_download(&vertex_values)?;
    cfg.trace.complete(
        0,
        lanes::ENGINE,
        "engine",
        "download",
        dl_ts,
        gpu.total_seconds() - dl_ts,
    );
    total.converged = converged;
    total.kernel.name = desc.name.clone();
    total.h2d_seconds = h2d_initial;
    total.compute_seconds =
        gpu.kernel_seconds + (gpu.h2d_seconds - h2d_initial) + d2h_before_results;
    total.d2h_seconds = gpu.d2h_seconds - d2h_before_results;
    total.memo.add(&cusha_core::MemoStats::from_gpu(gpu));
    total.profile = gpu.profile.take();
    if !converged {
        return Err(EngineError::NonConverged {
            partial: Box::new(CuShaOutput {
                values,
                stats: total,
            }),
        });
    }
    Ok(VwcOutput {
        values,
        stats: total,
    })
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
