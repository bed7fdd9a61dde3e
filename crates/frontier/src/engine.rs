//! The frontier-operator engine.
//!
//! Each iteration is one kernel fusing the three operators over the
//! simulated device:
//!
//! 1. **advance** — propagate values along edges, in one of two directions:
//!    *push* (one thread per frontier entry expands its out-edges and
//!    relaxes destinations in place) or *pull* (one thread per vertex folds
//!    its full in-edge list, the dense direction every topology-driven
//!    engine in this workspace runs unconditionally);
//! 2. **compute** — apply `update_condition` and write back changed values;
//! 3. **filter** — fused into the same kernel: every first-time activation
//!    is appended to the next-frontier list through a device-side running
//!    cursor (exact under the simulator's serial block schedule — the
//!    modeled equivalent of the atomic-append worklists of Gunrock and
//!    Enterprise), deduplicated by per-vertex admission tags, with the
//!    activation's out-degree accumulated alongside. The host then pays a
//!    single 16-byte control readback per iteration for frontier length,
//!    direction input, and convergence combined — the same per-iteration
//!    PCIe bill as the shard engines' converged-flag readback. The
//!    standalone compaction kernel ([`crate::compact`]) remains the filter
//!    operator for peel-style workloads (k-core) that flag vertices in one
//!    kernel and consume the compacted set in another.
//!
//! Direction is chosen per iteration from frontier *edge* density
//! (Ligra/SIMD-X style): a frontier whose out-edges cover at least
//! `density_threshold` of all edges runs pull, otherwise push. Counting
//! edges keeps the heuristic degree-aware — hub-heavy frontiers on
//! scale-free graphs go dense while holding few vertices; road-network
//! frontiers never do. Programs that are not
//! [`FRONTIER_SAFE`](VertexProgram::FRONTIER_SAFE) (additive folds such as
//! PageRank) always run pull — skipping quiescent sources is only sound for
//! idempotent monotone folds.
//!
//! The engine runs on the same simulated device as every other GPU engine:
//! coalescing, bank-conflict and occupancy counters accumulate as usual, a
//! [`FaultPlan`] injects copy/kernel faults and silent bit flips (vertex
//! values and the activation flags are both in the blast radius), and the
//! shard family's checksum/invariant → rollback → restart ladder
//! (`integrity::Recovery`, here checkpointing the pending frontier beside the
//! values, and checking the law once more when the frontier empties) defends
//! against silent corruption, its last rung the host oracle.

use crate::compact::{block_warps, column};
use crate::config::FrontierConfig;
use crate::prepared::PreparedFrontier;
use cusha_algos::reference::run_sequential;
use cusha_core::integrity::{apply_flips, scrub, Ask, Detector, Recovery, Rung};
use cusha_core::memsize::ValueSizes;
use cusha_core::{
    check_topology, fault_instant, settle, CuShaOutput, DeviceRun, Direction, Engine, EngineCtx,
    EngineError, FrontierStats, NoopObserver, RunObserver, VertexProgram,
};
use cusha_graph::{Graph, VertexId};
use cusha_obs::trace::{lanes, ArgVal};
use cusha_simt::{Block, DevVec, FaultPlan, Gpu, KernelDesc, Mask, WARP};

/// Per-program edge values permuted into the out-CSR and in-CSR edge orders
/// (`None` when the program has no edge values).
type EdgeValuePair<E> = (Option<Vec<E>>, Option<Vec<E>>);

/// Engine label reported in [`RunStats::engine`].
pub const FRONTIER_LABEL: &str = "Frontier";

/// Output of a frontier run: final vertex values and run statistics, with
/// [`RunStats::frontier`] populated.
pub type FrontierOutput<V> = CuShaOutput<V>;

/// Executes `prog` over `graph` with the frontier engine. Like
/// `cusha_core::run`, a run that merely hits the iteration cap returns its
/// partial output with `stats.converged == false`.
///
/// # Panics
/// Panics on device faults; see [`try_run_frontier`].
pub fn run_frontier<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &FrontierConfig,
) -> FrontierOutput<P::V> {
    settle(try_run_frontier(prog, graph, cfg))
}

/// Builds the two-direction topology and runs to convergence, surfacing
/// every failure as an [`EngineError`].
pub fn try_run_frontier<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &FrontierConfig,
) -> Result<FrontierOutput<P::V>, EngineError<P::V>> {
    cfg.check_fits(graph, ValueSizes::of::<P>())?;
    let pf = PreparedFrontier::build(graph);
    try_run_frontier_warm(prog, graph, &pf, cfg, None, &mut NoopObserver)
}

/// Warm entry point: runs over a pre-built [`PreparedFrontier`] (the
/// `cusha serve` re-entry path), threading the middleware's fault plan
/// (installed before the run, advanced state written back on every exit)
/// and consulting `observer` after every non-converged iteration (`false`
/// aborts with [`EngineError::Deadline`], as does an iteration ending past
/// `cfg.deadline_seconds`).
pub fn try_run_frontier_warm<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    pf: &PreparedFrontier,
    cfg: &FrontierConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<FrontierOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    let built = (pf.num_vertices(), pf.num_edges());
    check_topology("frontier topology", built, graph)?;
    let (setup, label) = (cfg.device_setup(), FRONTIER_LABEL.to_string());
    DeviceRun::open(setup, label, fault_plan, observer, |run| {
        frontier_attempt(prog, graph, pf, cfg, run)
    })
}

/// Initial frontier: the program's seed (sorted, deduplicated) or, by
/// default, every vertex.
fn seed_list<P: VertexProgram>(prog: &P, graph: &Graph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    match prog.seed_frontier(graph) {
        Some(mut s) => {
            s.retain(|&v| v < n);
            s.sort_unstable();
            s.dedup();
            s
        }
        None => (0..n).collect(),
    }
}

/// What a checkpoint holds beside the values: the admission tags (which
/// encode frontier membership per iteration, so they must rewind with the
/// iteration counter), the pending frontier, its length and its out-edge
/// count (the direction heuristic's input).
type Pending = (Vec<u32>, Vec<u32>, usize, u64);

#[allow(clippy::too_many_lines)]
fn frontier_attempt<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    pf: &PreparedFrontier,
    cfg: &FrontierConfig,
    run: &mut DeviceRun<'_, O>,
) -> Result<FrontierOutput<P::V>, EngineError<P::V>> {
    let n = pf.num_vertices() as usize;
    let tpb = cfg.threads_per_block as usize;
    let frontier_safe = P::FRONTIER_SAFE;
    let integ = cfg.integrity;

    // ---- Host-side constants ----------------------------------------------
    let init: Vec<P::V> = (0..graph.num_vertices())
        .map(|v| prog.initial_value(v))
        .collect();
    let statics_host: Option<Vec<P::SV>> = P::HAS_STATIC_VALUES.then(|| prog.static_values(graph));
    let (out_evals_host, in_evals_host): EdgeValuePair<P::E> = if P::HAS_EDGE_VALUES {
        let by_id = prog.edge_values(graph);
        let out: Vec<P::E> = pf.out_eids().iter().map(|&id| by_id[id as usize]).collect();
        let inn: Vec<P::E> = pf
            .csr()
            .edge_ids()
            .iter()
            .map(|&id| by_id[id as usize])
            .collect();
        (Some(out), Some(inn))
    } else {
        (None, None)
    };
    let seed = seed_list(prog, graph);

    // ---- Upload (H2D) ------------------------------------------------------
    let gpu = &mut run.gpu;
    let mut values = gpu.try_upload(&init)?;
    let out_idxs = gpu.try_upload(pf.out_idxs())?;
    let out_dsts = gpu.try_upload(pf.out_dsts())?;
    let in_idxs = gpu.try_upload(pf.csr().in_edge_idxs())?;
    let in_srcs = gpu.try_upload(pf.csr().src_indxs())?;
    let static_buf: Option<DevVec<P::SV>> = match &statics_host {
        Some(s) => Some(gpu.try_upload(s)?),
        None => None,
    };
    let out_evals: Option<DevVec<P::E>> = match &out_evals_host {
        Some(s) => Some(gpu.try_upload(s)?),
        None => None,
    };
    let in_evals: Option<DevVec<P::E>> = match &in_evals_host {
        Some(s) => Some(gpu.try_upload(s)?),
        None => None,
    };
    // Per-vertex admission tags (`active[v] == k+1` ⟺ v is in the frontier
    // of iteration k — tags replace clearable flags so re-activation across
    // iterations needs no sweep), the ping-pong frontier lists, and the
    // filter control cells.
    let mut active_init = vec![0u32; n.max(1)];
    for &v in &seed {
        active_init[v as usize] = 1;
    }
    let mut active = gpu.try_upload(&active_init)?;
    let mut frontier_host = vec![0u32; n.max(1)];
    for (slot, &v) in seed.iter().enumerate() {
        frontier_host[slot] = v;
    }
    let mut frontier_cur = gpu.try_upload(&frontier_host)?;
    let mut frontier_next = gpu.try_upload(&vec![0u32; n.max(1)])?;
    let mut frontier_len = seed.len();
    let seed_edges: u64 = seed.iter().map(|&v| pf.out_range(v).len() as u64).sum();
    let mut frontier_edges = seed_edges;
    let m_total = pf.out_dsts().len().max(1) as f64;
    let grid_dense = n.div_ceil(tpb).max(1) as u32;
    // Fused-filter scratch: `[cursor, length out, edge-sum accumulator,
    // edge-sum out]`. The advance kernel appends activations through the
    // cursor and accumulates their out-degrees; its last block publishes
    // the output cells and re-zeroes the accumulators, so the host pays one
    // 16-byte readback per iteration for length, direction input, and
    // convergence combined.
    let mut filter_ctrl = gpu.try_upload(&[0u32; 4])?;
    run.uploaded();

    // ---- Integrity state ---------------------------------------------------
    // All of it exists only in the modes that read it: the scrub digests of
    // the two protected buffers with checksums on (`None` never mismatches),
    // the ladder's initial image and checkpoints with any mode on. With
    // integrity off the host touches no |V|-sized buffer between kernels.
    let crcs_of = |values: &DevVec<P::V>, active: &DevVec<u32>| {
        let digests = || (scrub(values.host()), scrub(active.host()));
        integ.mode.checksums().then(digests)
    };
    let mut crcs = crcs_of(&values, &active);
    let pending = (active_init, frontier_host, seed.len(), seed_edges);
    let initial = move || (init, pending);
    let mut recovery = Recovery::new(integ, None, &mut run.stats.sdc, initial);

    let mut fstats = FrontierStats::default();
    let mut converged = false;
    // Built once: a launch clones the name's refcount, not its bytes.
    let mut desc_push = KernelDesc::new(
        format!("frontier-advance-push::{}", prog.name()),
        1,
        cfg.threads_per_block,
    );
    let desc_pull = KernelDesc::new(
        format!("frontier-advance-pull::{}", prog.name()),
        grid_dense,
        cfg.threads_per_block,
    );

    // How the ladder reaches this run's state, both ways charged: a restore
    // uploads a checkpoint and rewinds the frontier record to it, a snapshot
    // downloads one.
    macro_rules! state {
        () => {
            |gpu: &mut Gpu, ask: Ask<'_, P::V, Pending>| {
                match ask {
                    Ask::Restore(cp) => {
                        let (tags, list, len, edges) = &cp.state;
                        gpu.try_h2d(&mut values, &cp.values)?;
                        gpu.try_h2d(&mut active, tags)?;
                        gpu.try_h2d(&mut frontier_cur, list)?;
                        (frontier_len, frontier_edges) = (*len, *edges);
                        fstats.truncate(cp.iteration);
                        crcs = crcs_of(&values, &active);
                    }
                    Ask::Snapshot(vals, None) => *vals = gpu.try_download(&values)?,
                    Ask::Snapshot(vals, Some(pending)) => {
                        *vals = gpu.try_download(&values)?;
                        let tags = gpu.try_download(&active)?;
                        let list = gpu.try_download(&frontier_cur)?;
                        *pending = (tags, list, frontier_len, frontier_edges);
                    }
                    Ask::Mark(name) => fault_instant(gpu, "sdc", name),
                    Ask::Inspect(check) => check(values.host()),
                }
                Ok(())
            }
        };
    }
    // One rung of the ladder; past the last, the host oracle (outside the
    // device flip model, so its result is trusted) finishes the run.
    macro_rules! recover {
        ($detector:expr) => {{
            if let Rung::Exhausted = run.recover(&mut recovery, $detector, state!())? {
                let host = run_sequential(prog, graph, cfg.max_iterations);
                let (mut stats, values) = (run.abandon(), host.values);
                (stats.converged, stats.frontier) = (host.converged, Some(fstats));
                return CuShaOutput { values, stats }.into_result();
            }
            continue;
        }};
    }

    // ---- Convergence loop --------------------------------------------------
    let law = |verified: &[P::V], now: &[P::V]| prog.check_invariant(verified, now);
    while run.stats.iterations < cfg.max_iterations {
        if frontier_len == 0 {
            converged = true;
            break;
        }
        let gpu = &mut run.gpu;
        let iter_ts = gpu.total_seconds();

        // Silent bit flips scheduled at this kernel boundary land while the
        // data is at rest in device DRAM: vertex values take `vv` flips,
        // the activation flags take `sv`/`win` flips (the frontier engine's
        // second protected buffer).
        let flips = gpu.take_due_bit_flips();
        apply_flips(&flips, &mut values, &mut active);
        run.stats.sdc.flips_injected += flips.len() as u64;
        if crcs_of(&values, &active) != crcs {
            recover!(Detector::Checksum);
        }

        // Direction choice: edge-density heuristic (how many edges the
        // frontier can touch, as a fraction of all edges), pinned to pull
        // for programs that need the full fold.
        let density = frontier_edges as f64 / m_total;
        let dir = if !frontier_safe || density >= cfg.density_threshold {
            Direction::Pull
        } else {
            Direction::Push
        };
        // Admission tag for the frontier this iteration produces.
        let next_tag = run.stats.iterations + 2;
        if let Some(prev) = fstats.directions.last().filter(|&&prev| prev != dir) {
            fstats.switches += 1;
            let name = format!("direction-switch:{}->{}", prev.label(), dir.label());
            cfg.trace
                .instant(0, lanes::ENGINE, "frontier", &name, iter_ts);
        }
        fstats.sizes.push(frontier_len as u64);
        fstats.directions.push(dir);
        cfg.trace.counter(
            0,
            lanes::ENGINE,
            "frontier_size",
            iter_ts,
            frontier_len as f64,
        );

        // ---- advance (+ fused compute) ------------------------------------
        // Both directions are frontier- or value-dependent and interpreted;
        // what is stride-1 in them — the frontier read, the per-vertex loads
        // of a pull tile, the rank-packed append to the next frontier — is
        // issued in run form.
        let mut updated_this_iter = 0u64;
        let gpu = &mut run.gpu;
        let kstats = match dir {
            Direction::Push => {
                desc_push.grid_blocks = frontier_len.div_ceil(tpb).max(1) as u32;
                let last_block = desc_push.grid_blocks - 1;
                gpu.try_launch(&desc_push, |b| {
                    // Fused filter: each serially-executed block continues
                    // the running append cursor and out-edge accumulator.
                    b.phase("filter");
                    let c = b.gload_run(&filter_ctrl, Mask::first(4), 0);
                    let (mut cursor, mut edge_acc) = (c[0] as usize, c[2]);
                    for (warp_base, mask) in block_warps(b.id(), tpb, frontier_len) {
                        b.phase("advance");
                        // Coalesced frontier read, gathered source values.
                        let us = b.gload_run(&frontier_cur, mask, warp_base as isize);
                        let uvals = b.gload(&values, mask, |l| us[l] as usize);
                        let ustat = match &static_buf {
                            Some(buf) => b.gload(buf, mask, |l| us[l] as usize),
                            None => [P::SV::default(); WARP],
                        };
                        let starts = b.gload(&out_idxs, mask, |l| us[l] as usize);
                        let ends = b.gload(&out_idxs, mask, |l| us[l] as usize + 1);
                        b.exec(mask, 1);
                        let mut deg = [0u32; WARP];
                        for l in mask.iter() {
                            deg[l] = ends[l] - starts[l];
                        }
                        let max_deg = (0..WARP).map(|l| deg[l]).max().unwrap_or(0);
                        for step in 0..max_deg {
                            let smask = Mask::from_fn(|l| mask.lane(l) && step < deg[l]);
                            if smask.is_empty() {
                                continue;
                            }
                            let eidx = |l: usize| (starts[l] + step) as usize;
                            let dsts = b.gload(&out_dsts, smask, eidx);
                            let evals = match &out_evals {
                                Some(buf) => b.gload(buf, smask, eidx),
                                None => [P::E::default(); WARP],
                            };
                            // THE scattered access of push mode: destination
                            // values, read-modify-written in place.
                            let dvals = b.gload(&values, smask, |l| dsts[l] as usize);
                            b.phase("compute");
                            // Lane-serial relaxation with intra-op
                            // visibility: a later lane hitting the same
                            // destination sees the earlier lane's update, so
                            // the lane-order store (last writer wins) always
                            // publishes the most-relaxed value.
                            let mut st = Mask::NONE;
                            let mut outv = [P::V::default(); WARP];
                            for l in smask.iter() {
                                let earlier = st.iter().filter(|&e| dsts[e] == dsts[l]).last();
                                let cur = earlier.map_or(dvals[l], |e| outv[e]);
                                let mut local = P::V::default();
                                prog.init_compute(&mut local, &cur);
                                prog.compute(&uvals[l], &ustat[l], &evals[l], &mut local);
                                if prog.update_condition(&mut local, &cur) {
                                    outv[l] = local;
                                    st.0 |= 1 << l;
                                }
                            }
                            b.exec(smask, P::COMPUTE_COST + 1);
                            if !st.is_empty() {
                                b.gstore(&mut values, st, |l| dsts[l] as usize, |l| outv[l]);
                                updated_this_iter += st.count() as u64;
                                // Fused filter: enqueue first-time
                                // activations. The admission tag dedups —
                                // lane-serially within the batch, through
                                // device memory across warps and blocks.
                                b.phase("filter");
                                let tags = b.gload(&active, st, |l| dsts[l] as usize);
                                let mut fresh = Mask::NONE;
                                let mut batch = [0u32; WARP];
                                let mut seen = 0usize;
                                for l in st.iter() {
                                    if tags[l] != next_tag && !batch[..seen].contains(&dsts[l]) {
                                        fresh.0 |= 1 << l;
                                        batch[seen] = dsts[l];
                                        seen += 1;
                                    }
                                }
                                b.exec(st, 1);
                                if !fresh.is_empty() {
                                    let at = |l: usize| dsts[l] as usize;
                                    b.gstore(&mut active, fresh, at, move |_| next_tag);
                                    let d0 = b.gload(&out_idxs, fresh, at);
                                    let d1 = b.gload(&out_idxs, fresh, |l| at(l) + 1);
                                    edge_acc += fresh.iter().map(|l| d1[l] - d0[l]).sum::<u32>();
                                    // `batch` is the fresh lanes packed by
                                    // rank: they take consecutive slots.
                                    let slots = Mask::first(seen);
                                    b.gstore_run(
                                        &mut frontier_next,
                                        slots,
                                        cursor as isize,
                                        &batch,
                                    );
                                    cursor += seen;
                                }
                            }
                            b.phase("advance");
                        }
                    }
                    let last = b.id() == last_block;
                    publish_totals(b, &mut filter_ctrl, cursor, edge_acc, last);
                })?
            }
            Direction::Pull => gpu.try_launch(&desc_pull, |b| {
                b.phase("filter");
                let c = b.gload_run(&filter_ctrl, Mask::first(4), 0);
                let (mut cursor, mut edge_acc) = (c[0] as usize, c[2]);
                for (warp_base, mask) in block_warps(b.id(), tpb, n) {
                    b.phase("advance");
                    let tile = warp_base as isize;
                    let olds = b.gload_run(&values, mask, tile);
                    let starts = b.gload_run(&in_idxs, mask, tile);
                    let ends = b.gload_run(&in_idxs, mask, tile + 1);
                    b.exec(mask, 1);
                    let mut deg = [0u32; WARP];
                    let mut local = [P::V::default(); WARP];
                    for l in mask.iter() {
                        deg[l] = ends[l] - starts[l];
                        prog.init_compute(&mut local[l], &olds[l]);
                    }
                    let max_deg = (0..WARP).map(|l| deg[l]).max().unwrap_or(0);
                    for step in 0..max_deg {
                        let smask = Mask::from_fn(|l| mask.lane(l) && step < deg[l]);
                        if smask.is_empty() {
                            continue;
                        }
                        let eidx = |l: usize| (starts[l] + step) as usize;
                        let srcs = b.gload(&in_srcs, smask, eidx);
                        let svals = b.gload(&values, smask, |l| srcs[l] as usize);
                        let sstat = match &static_buf {
                            Some(buf) => b.gload(buf, smask, |l| srcs[l] as usize),
                            None => [P::SV::default(); WARP],
                        };
                        let evals = match &in_evals {
                            Some(buf) => b.gload(buf, smask, eidx),
                            None => [P::E::default(); WARP],
                        };
                        for l in smask.iter() {
                            prog.compute(&svals[l], &sstat[l], &evals[l], &mut local[l]);
                        }
                        b.exec(smask, P::COMPUTE_COST);
                    }
                    // compute: publish values passing the condition.
                    b.phase("compute");
                    let mut st = Mask::NONE;
                    for l in mask.iter() {
                        if prog.update_condition(&mut local[l], &olds[l]) {
                            st.0 |= 1 << l;
                        }
                    }
                    b.exec(mask, 1);
                    if !st.is_empty() {
                        b.gstore_run(&mut values, st, tile, &local);
                        updated_this_iter += st.count() as u64;
                        // Fused filter: activation is tile-local in
                        // pull (a vertex admits itself), so the append
                        // needs no dedup and lands in vertex order.
                        b.phase("filter");
                        b.gstore_run(&mut active, st, tile, &[next_tag; WARP]);
                        let d0 = b.gload_run(&out_idxs, st, tile);
                        let d1 = b.gload_run(&out_idxs, st, tile + 1);
                        let mut packed = [0u32; WARP];
                        for (rank, l) in st.iter().enumerate() {
                            packed[rank] = (warp_base + l) as u32;
                            edge_acc += d1[l] - d0[l];
                        }
                        b.exec(st, 1);
                        let slots = Mask::first(st.count() as usize);
                        b.gstore_run(&mut frontier_next, slots, cursor as isize, &packed);
                        cursor += st.count() as usize;
                    }
                }
                let last = b.id() + 1 == grid_dense;
                publish_totals(b, &mut filter_ctrl, cursor, edge_acc, last);
            })?,
        };
        let total = &mut run.stats;
        total.kernel.counters.add(&kstats.counters);
        total.kernel.blocks = kstats.blocks;
        total.kernel.threads_per_block = kstats.threads_per_block;

        // ---- filter readback: one 16-byte transfer per iteration -----------
        // Length, direction input, and convergence all ride the same
        // readback (the push/pull grids and the empty-frontier exit need
        // the length host-side, exactly like the shard engines' converged
        // flag).
        let ctrl_host = gpu.try_download(&filter_ctrl)?;
        frontier_len = ctrl_host[1] as usize;
        frontier_edges = u64::from(ctrl_host[3]);
        std::mem::swap(&mut frontier_cur, &mut frontier_next);

        // New verified reference state for the next boundary's scrub.
        crcs = crcs_of(&values, &active);

        let seconds = gpu.total_seconds() - iter_ts;
        run.iteration(iter_ts, seconds, updated_this_iter, || {
            vec![
                ("direction", ArgVal::Str(dir.label().to_string())),
                ("frontier_out_edges", ArgVal::U64(frontier_edges)),
            ]
        });

        // An empty frontier is the convergence exit, checked there once.
        if run.boundary(&mut recovery, law, frontier_len == 0, state!())? {
            recover!(Detector::Invariant);
        }
    }
    recovery.finish(|ask| state!()(&mut run.gpu, ask))?;

    let stats = &mut run.stats;
    stats.converged = converged;
    stats.kernel.name = format!("{}::{}", FRONTIER_LABEL, prog.name()).into();
    stats.frontier = Some(fstats);
    let (values, stats) = run.close(|gpu| gpu.try_download(&values))?;
    CuShaOutput { values, stats }.into_result()
}

/// Publishes a block's running totals to the fused filter's control cells
/// `[cursor, length out, edge-sum accumulator, edge-sum out]`; the last block
/// parks the outputs instead and re-zeroes the accumulators.
fn publish_totals(
    b: &mut Block<'_>,
    ctrl: &mut DevVec<u32>,
    cursor: usize,
    edges: u32,
    last: bool,
) {
    b.phase("filter");
    let cur = cursor as u32;
    if last {
        b.gstore_run(ctrl, Mask::first(4), 0, &column([0, cur, 0, edges]));
    } else {
        b.gstore_run(ctrl, Mask(0b101), 0, &column([cur, 0, edges]));
    }
}

/// [`Engine`] middleware adapter: builds the two-direction topology per
/// call, maps the generic config through [`FrontierConfig::from_cusha`] and
/// enters [`try_run_frontier_warm`].
pub struct FrontierEngine {
    /// Push/pull density threshold (see [`FrontierConfig::density_threshold`]).
    pub density_threshold: f64,
}

impl Default for FrontierEngine {
    fn default() -> Self {
        FrontierEngine::new()
    }
}

impl FrontierEngine {
    /// Adapter with the default density threshold.
    pub fn new() -> Self {
        FrontierEngine {
            density_threshold: crate::config::DEFAULT_DENSITY_THRESHOLD,
        }
    }
}

impl<P: VertexProgram> Engine<P> for FrontierEngine {
    fn recovers_faults(&self) -> bool {
        // The rollback/restart/fallback ladder recovers silent corruption,
        // but transient copy/kernel faults surface — the middleware retries
        // them with the usual backoff.
        false
    }

    fn execute(
        &mut self,
        prog: &P,
        graph: &Graph,
        ctx: EngineCtx<'_>,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        let mut cfg = FrontierConfig::from_cusha(ctx.cfg);
        cfg.density_threshold = self.density_threshold;
        cfg.check_fits(graph, ValueSizes::of::<P>())?;
        let pf = PreparedFrontier::build(graph);
        try_run_frontier_warm(prog, graph, &pf, &cfg, ctx.fault_plan, ctx.observer)
    }
}
