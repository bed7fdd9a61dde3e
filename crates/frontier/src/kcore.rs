//! k-core decomposition — a frontier-native workload.
//!
//! No shard engine expresses peeling: the unit of work is "remove this
//! vertex and damage its neighborhood", exactly the shape the frontier
//! operators model. Each round **filter**s the alive vertices whose current
//! degree has dropped below `k` into a compacted peel set, then a peel
//! kernel (**compute**) assigns their core number (`k - 1`), marks them
//! dead, and decrements surviving neighbors' degrees; when a round peels
//! nothing, `k` advances. The graph is treated as undirected: edges are
//! symmetrized, self-loops dropped and parallel edges deduplicated before
//! upload (`undirected_adjacency`, shared with triangle counting).
//!
//! The filter is two dense kernels — the degree scan here and the compaction
//! of `crate::compact` — that sweep every vertex every round in a pattern
//! that never changes. Their stride-1 loads are a block's `statics`, held by
//! one launch record per kernel (see `compact`'s module docs); a block then,
//! in a functional pass over the buffers' host views, issues only the flag
//! stores the values call for. The peel kernel is
//! frontier- and data-dependent and stays interpreted; only its peel-list
//! read is stride-1, and is issued in run form.
//!
//! Silent corruption climbs the shard family's ladder (`integrity::Recovery`):
//! a checkpoint holds the core numbers with the peel state beside them
//! (degrees, alive flags, `k`), a detection rolls back to it, then restarts,
//! and the last rung is the host oracle [`host_kcore`]. The invariant checked
//! at a checkpoint is that a core number, once assigned, never changes.
//!
//! Duplicate-decrement hazard: several peeled vertices in one warp
//! operation may share a surviving neighbor, and a plain `gstore` keeps a
//! single winner. The peel kernel therefore merges decrements lane-serially
//! (a later lane sees the earlier lane's subtraction) before storing, the
//! same intra-op overlay the generic push kernel uses for value relaxation.

use crate::compact::{block_warps, compact_flags, lanes_where};
use crate::config::{FrontierConfig, U32_PER_VERTEX};
use cusha_core::integrity::{apply_flip, scrub, Ask, Detector, Recovery, Rung};
use cusha_core::{
    fault_instant, CuShaOutput, DeviceRun, Direction, EngineError, FrontierStats, NoopObserver,
    RunObserver, RunStats,
};
use cusha_graph::Graph;
use cusha_obs::trace::lanes;
use cusha_simt::{DevVec, FaultPlan, FlipTarget, Gpu, KernelDesc, LaunchRecord, Mask, WARP};

/// Result of a k-core decomposition.
#[derive(Clone, Debug)]
pub struct KcoreOutput {
    /// Core number (coreness) of every vertex.
    pub core: Vec<u32>,
    /// Largest core number present (the graph's degeneracy).
    pub degeneracy: u32,
    /// Run statistics; `frontier` records each round's peel-set size.
    pub stats: RunStats,
}

/// Symmetrized, deduplicated, loop-free adjacency in CSR form `(idxs, nbrs)`,
/// every list ascending. A two-pass counting sort — count, prefix, fill —
/// then each vertex's list is sorted and its distinct entries compacted to
/// the front of the same array.
pub(crate) fn undirected_adjacency(g: &Graph) -> (Vec<u32>, Vec<u32>) {
    let n = g.num_vertices() as usize;
    let links = || g.edges().iter().filter(|e| e.src != e.dst);
    let mut ends = vec![0usize; n + 1];
    for e in links() {
        ends[e.src as usize + 1] += 1;
        ends[e.dst as usize + 1] += 1;
    }
    for v in 0..n {
        ends[v + 1] += ends[v];
    }
    // `ends[v]` starts at `v`'s first slot and ends, filled, one past its last.
    let mut nbrs = vec![0u32; ends[n]];
    for e in links() {
        for (v, u) in [(e.src, e.dst), (e.dst, e.src)] {
            nbrs[ends[v as usize]] = u;
            ends[v as usize] += 1;
        }
    }
    let mut idxs = vec![0u32; n + 1];
    let (mut start, mut kept) = (0, 0);
    for v in 0..n {
        nbrs[start..ends[v]].sort_unstable();
        for i in start..ends[v] {
            if i == start || nbrs[i] != nbrs[kept - 1] {
                nbrs[kept] = nbrs[i];
                kept += 1;
            }
        }
        idxs[v + 1] = kept as u32;
        start = ends[v];
    }
    nbrs.truncate(kept);
    (idxs, nbrs)
}

/// Runs the decomposition, panicking on device faults. k-core runs on the
/// frontier configuration: `max_iterations` caps peel rounds, and the density
/// threshold is unused (peeling is always push-shaped).
pub fn run_kcore(graph: &Graph, cfg: &FrontierConfig) -> KcoreOutput {
    match try_run_kcore(graph, cfg, None, &mut NoopObserver) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Runs the decomposition on the simulated device. The observer is
/// consulted after every peel round (`false` aborts with
/// [`EngineError::Deadline`], as does a round ending past
/// `cfg.deadline_seconds`); the fault plan (else `cfg`'s) is installed on
/// the device, its advanced state written back on exit; the device absorbs
/// a transient copy or launch fault in place.
pub fn try_run_kcore<O: RunObserver + ?Sized>(
    graph: &Graph,
    cfg: &FrontierConfig,
    fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<KcoreOutput, EngineError<u32>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    cfg.check_fits(graph, U32_PER_VERTEX)?;
    let n = graph.num_vertices() as usize;
    let (idxs_host, nbrs_host) = undirected_adjacency(graph);
    let deg_host: Vec<u32> = (0..n).map(|v| idxs_host[v + 1] - idxs_host[v]).collect();

    let (setup, name) = (cfg.device_setup(), "Frontier/kcore".into());
    let out = DeviceRun::open(setup, name, fault_plan, observer, |run| {
        decompose(graph, cfg, run, &idxs_host, &nbrs_host, &deg_host)
    })?;
    let degeneracy = out.values.iter().copied().max().unwrap_or(0);
    Ok(KcoreOutput {
        core: out.values,
        degeneracy,
        stats: out.stats,
    })
}

/// What a checkpoint holds beside the core numbers: the peel state they
/// rewind with — degrees, alive flags, `k` and the alive count.
type Peel = (Vec<u32>, Vec<u32>, u32, usize);

/// The invariant a checkpoint checks: a core number, once assigned (nonzero
/// in the last verified snapshot), never changes.
fn assigned_cores_stay(verified: &[u32], now: &[u32]) -> Result<(), String> {
    match verified
        .iter()
        .zip(now)
        .all(|(&was, &is)| was == 0 || was == is)
    {
        true => Ok(()),
        false => Err("an assigned core number changed".into()),
    }
}

#[allow(clippy::too_many_lines)]
fn decompose<O: RunObserver + ?Sized>(
    graph: &Graph,
    cfg: &FrontierConfig,
    run: &mut DeviceRun<'_, O>,
    idxs_host: &[u32],
    nbrs_host: &[u32],
    deg_host: &[u32],
) -> Result<CuShaOutput<u32>, EngineError<u32>> {
    let n = graph.num_vertices() as usize;
    let tpb = cfg.threads_per_block as usize;
    let integ = cfg.integrity;
    let grid_dense = n.div_ceil(tpb).max(1) as u32;

    let gpu = &mut run.gpu;
    let adj_idxs = gpu.try_upload(idxs_host)?;
    let adj_nbrs = gpu.try_upload(nbrs_host)?;
    let mut deg = gpu.try_upload(deg_host)?;
    let mut core = gpu.try_upload(&vec![0u32; n.max(1)])?;
    let mut alive = gpu.try_upload(&vec![1u32; n.max(1)])?;
    let mut active = gpu.try_upload(&vec![0u32; n.max(1)])?;
    let mut frontier_buf = gpu.try_upload(&vec![0u32; n.max(1)])?;
    // Two-cell filter scratch: `[cursor, length]` for the fused compaction.
    let mut filter_ctrl = gpu.try_upload(&[0u32, 0u32])?;
    run.uploaded();

    // Scrub digest of the three protected buffers — computed, like every
    // other piece of integrity state, only when checksums are on (`None`
    // never mismatches).
    let crc_of = |core: &DevVec<u32>, deg: &DevVec<u32>, alive: &DevVec<u32>| {
        let digest = || scrub(core.host()) ^ scrub(deg.host()) ^ scrub(alive.host());
        integ.mode.checksums().then(digest)
    };
    let mut state_crc = crc_of(&core, &deg, &alive);
    let mut fstats = FrontierStats::default();
    let mut k = 1u32;
    let mut alive_count = n;
    let peel = || (deg_host.to_vec(), vec![1u32; n.max(1)], k, alive_count);
    let initial = || (vec![0u32; n.max(1)], peel());
    let mut recovery = Recovery::new(integ, None, &mut run.stats.sdc, initial);
    // The two dense kernels keep one launch record each: their shape never
    // changes (the scan's name does, with `k`).
    let (mut scan_record, mut filter_record) = (LaunchRecord::default(), LaunchRecord::default());
    let desc_filter = KernelDesc::new("frontier-filter::kcore", grid_dense, tpb as u32);
    let descs = |k: u32| {
        (
            KernelDesc::new(format!("kcore-scan::k{k}"), grid_dense, tpb as u32),
            KernelDesc::new(format!("kcore-peel::k{k}"), 1, tpb as u32),
        )
    };
    let (mut desc_scan, mut desc_peel) = descs(k);

    // How the ladder reaches this run's state, both ways charged (the
    // activation flags need neither: the compaction leaves them clear).
    macro_rules! state {
        () => {
            |gpu: &mut Gpu, ask: Ask<'_, u32, Peel>| {
                match ask {
                    Ask::Restore(cp) => {
                        let (degs, alives, at_k, count) = &cp.state;
                        gpu.try_h2d(&mut core, &cp.values)?;
                        gpu.try_h2d(&mut deg, degs)?;
                        gpu.try_h2d(&mut alive, alives)?;
                        (k, alive_count) = (*at_k, *count);
                        (desc_scan, desc_peel) = descs(k);
                        fstats.truncate(cp.iteration);
                        state_crc = crc_of(&core, &deg, &alive);
                    }
                    Ask::Snapshot(values, None) => *values = gpu.try_download(&core)?,
                    Ask::Snapshot(values, Some(peel)) => {
                        *values = gpu.try_download(&core)?;
                        let degs = gpu.try_download(&deg)?;
                        let alives = gpu.try_download(&alive)?;
                        *peel = (degs, alives, k, alive_count);
                    }
                    Ask::Mark(name) => fault_instant(gpu, "sdc", name),
                    Ask::Inspect(check) => check(core.host()),
                }
                Ok(())
            }
        };
    }
    // One rung of the ladder; past the last, the host oracle finishes.
    macro_rules! recover {
        ($detector:expr) => {{
            if let Rung::Exhausted = run.recover(&mut recovery, $detector, state!())? {
                let (mut stats, values) = (run.abandon(), host_kcore(graph));
                (stats.converged, stats.frontier) = (true, Some(fstats));
                return Ok(CuShaOutput { values, stats });
            }
            continue;
        }};
    }

    while alive_count > 0 && run.stats.iterations < cfg.max_iterations {
        let (total, gpu) = (&mut run.stats, &mut run.gpu);
        let round_ts = gpu.total_seconds();

        // Bit flips at rest: core numbers take `vv` flips, the degree/alive
        // working state takes `sv`/`win` flips.
        let flips = gpu.take_due_bit_flips();
        for flip in &flips {
            match flip.target {
                FlipTarget::VertexValues => apply_flip(&mut core, flip),
                FlipTarget::SrcValue => apply_flip(&mut deg, flip),
                FlipTarget::Window => apply_flip(&mut alive, flip),
            }
        }
        total.sdc.flips_injected += flips.len() as u64;
        if crc_of(&core, &deg, &alive) != state_crc {
            recover!(Detector::Checksum);
        }

        // filter: flag alive vertices whose degree fell below k …
        let ksc = gpu.try_launch_recorded(&desc_scan, &mut scan_record, |b| {
            let bid = b.id();
            b.phase("filter");
            b.statics(|b| {
                for (base, mask) in block_warps(bid, tpb, n) {
                    b.gload_run(&alive, mask, base as isize);
                    b.gload_run(&deg, mask, base as isize);
                    b.exec(mask, 1);
                }
            });
            for (base, mask) in block_warps(bid, tpb, n) {
                let tile = base..base + mask.count() as usize;
                let (alive, deg) = (&alive.host()[tile.clone()], &deg.host()[tile]);
                let below = alive
                    .iter()
                    .zip(deg)
                    .map(|(&alive, &deg)| alive != 0 && deg < k);
                let set = lanes_where(below);
                if !set.is_empty() {
                    b.gstore_run(&mut active, set, base as isize, &[1; WARP]);
                }
            }
        })?;
        total.kernel.counters.add(&ksc.counters);
        // … and compact them into this round's peel set.
        let (peel_len, kf) = compact_flags(
            gpu,
            &mut active,
            &mut frontier_buf,
            &mut filter_ctrl,
            n,
            &desc_filter,
            &mut filter_record,
        )?;
        total.kernel.counters.add(&kf.counters);
        if peel_len == 0 {
            // Nothing below k: the k-core is stable, advance the threshold.
            k += 1;
            (desc_scan, desc_peel) = descs(k);
            state_crc = crc_of(&core, &deg, &alive);
            continue;
        }

        // compute: peel the set — assign core numbers, kill the vertices,
        // damage surviving neighbors' degrees.
        desc_peel.grid_blocks = peel_len.div_ceil(tpb).max(1) as u32;
        let kp = gpu.try_launch(&desc_peel, |b| {
            for (warp_base, mask) in block_warps(b.id(), tpb, peel_len) {
                b.phase("compute");
                let vs = b.gload_run(&frontier_buf, mask, warp_base as isize);
                b.gstore(&mut core, mask, |l| vs[l] as usize, |_| k - 1);
                b.gstore(&mut alive, mask, |l| vs[l] as usize, |_| 0u32);
                let starts = b.gload(&adj_idxs, mask, |l| vs[l] as usize);
                let ends = b.gload(&adj_idxs, mask, |l| vs[l] as usize + 1);
                b.exec(mask, 1);
                let mut dgs = [0u32; WARP];
                for l in mask.iter() {
                    dgs[l] = ends[l] - starts[l];
                }
                let max_deg = (0..WARP).map(|l| dgs[l]).max().unwrap_or(0);
                for step in 0..max_deg {
                    let smask = Mask::from_fn(|l| mask.lane(l) && step < dgs[l]);
                    if smask.is_empty() {
                        continue;
                    }
                    let eidx = |l: usize| (starts[l] + step) as usize;
                    let us = b.gload(&adj_nbrs, smask, eidx);
                    let al = b.gload(&alive, smask, |l| us[l] as usize);
                    let cur = b.gload(&deg, smask, |l| us[l] as usize);
                    // Lane-serial merged decrement (see module docs): a lane
                    // starts from the newest value an earlier lane of this
                    // step left for the same neighbor.
                    let mut hit = Mask::NONE;
                    let mut newv = [0u32; WARP];
                    for l in smask.iter().filter(|&l| al[l] != 0) {
                        let earlier = hit.iter().filter(|&e| us[e] == us[l]).last();
                        newv[l] = earlier.map_or(cur[l], |e| newv[e]).saturating_sub(1);
                        hit.0 |= 1 << l;
                    }
                    b.exec(smask, 2);
                    if !hit.is_empty() {
                        b.gstore(&mut deg, hit, |l| us[l] as usize, |l| newv[l]);
                    }
                }
            }
        })?;
        total.kernel.counters.add(&kp.counters);
        total.kernel.blocks = kp.blocks;
        total.kernel.threads_per_block = kp.threads_per_block;
        alive_count -= peel_len;
        state_crc = crc_of(&core, &deg, &alive);

        fstats.sizes.push(peel_len as u64);
        fstats.directions.push(Direction::Push);
        cfg.trace
            .counter(0, lanes::ENGINE, "frontier_size", round_ts, peel_len as f64);
        let seconds = gpu.total_seconds() - round_ts;
        run.iteration(round_ts, seconds, peel_len as u64, Vec::new);
        // Nothing alive is the convergence exit, left unchecked: the law lets
        // a flipped core number of a vertex not yet peeled into every later
        // checkpoint, so a break there would roll back onto the same flip.
        if alive_count > 0 && run.boundary(&mut recovery, assigned_cores_stay, false, state!())? {
            recover!(Detector::Invariant);
        }
    }
    recovery.finish(|ask| state!()(&mut run.gpu, ask))?;

    let stats = &mut run.stats;
    stats.converged = alive_count == 0;
    stats.kernel.name = "Frontier::kcore".into();
    stats.frontier = Some(fstats);
    let (values, stats) = run.close(|gpu| gpu.try_download(&core))?;
    CuShaOutput { values, stats }.into_result()
}

/// Host oracle: Batagelj–Zaveršnik bin-sort peeling, O(n + m), fully
/// independent of the device schedule.
pub fn host_kcore(graph: &Graph) -> Vec<u32> {
    let n = graph.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let (idxs, nbrs) = undirected_adjacency(graph);
    let mut core: Vec<u32> = (0..n).map(|v| idxs[v + 1] - idxs[v]).collect();
    let md = core.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0usize; md + 2];
    for &d in &core {
        bin[d as usize] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let c = *b;
        *b = start;
        start += c;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0usize; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            let d = core[v] as usize;
            pos[v] = cursor[d];
            vert[cursor[d]] = v;
            cursor[d] += 1;
        }
    }
    for i in 0..n {
        let v = vert[i];
        for &nb in &nbrs[idxs[v] as usize..idxs[v + 1] as usize] {
            let u = nb as usize;
            if core[u] > core[v] {
                let du = core[u] as usize;
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw];
                if u != w {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bin[du] += 1;
                core[u] -= 1;
            }
        }
    }
    core
}

/// Coreness invariant: every vertex `v` must have at least `core[v]`
/// neighbors whose core number is `>= core[v]` (the defining property of
/// membership in its own core). Returns the first violating vertex.
pub fn kcore_invariant(graph: &Graph, core: &[u32]) -> Result<(), String> {
    let n = graph.num_vertices() as usize;
    if core.len() != n {
        return Err(format!(
            "core has {} entries for {} vertices",
            core.len(),
            n
        ));
    }
    let (idxs, nbrs) = undirected_adjacency(graph);
    for v in 0..n {
        let need = core[v];
        let have = (idxs[v] as usize..idxs[v + 1] as usize)
            .filter(|&s| core[nbrs[s] as usize] >= need)
            .count() as u32;
        if have < need {
            return Err(format!(
                "vertex {v} claims core {need} but only {have} neighbors reach it"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::{host_triangles, run_triangles};
    use cusha_graph::Edge;
    use proptest::prelude::*;

    /// The builder [`undirected_adjacency`] replaced, kept as its reference:
    /// per-vertex lists, both directions pushed, sorted and deduplicated.
    fn reference_adjacency(g: &Graph) -> (Vec<u32>, Vec<u32>) {
        let n = g.num_vertices() as usize;
        let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for e in g.edges() {
            if e.src != e.dst {
                nbrs[e.src as usize].push(e.dst);
                nbrs[e.dst as usize].push(e.src);
            }
        }
        let mut idxs = vec![0u32; n + 1];
        let mut flat = Vec::new();
        for (v, list) in nbrs.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            flat.extend_from_slice(list);
            idxs[v + 1] = flat.len() as u32;
        }
        (idxs, flat)
    }

    /// Random multigraphs: edges over the first `n - tail` vertices only (the
    /// tail stays isolated), self-loops as they fall, and a slice of the
    /// edges repeated as duplicates and as antiparallel twins.
    fn arb_multigraph() -> impl Strategy<Value = Graph> {
        (1u32..60, 0u32..8, 0usize..40).prop_flat_map(|(live, tail, repeats)| {
            let edge = (0..live, 0..live, 1u32..65).prop_map(|(s, d, w)| Edge::new(s, d, w));
            proptest::collection::vec(edge, 0..200).prop_map(move |mut edges| {
                for i in 0..repeats.min(edges.len()) {
                    let e = edges[i];
                    edges.push(e);
                    edges.push(Edge::new(e.dst, e.src, e.weight));
                }
                Graph::new(live + tail, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn counting_sort_adjacency_equals_the_reference_builder(g in arb_multigraph()) {
            prop_assert_eq!(undirected_adjacency(&g), reference_adjacency(&g));
            // Both device paths built on it: every triangle survives the
            // orientation exactly once, every vertex peels at its core.
            let cfg = FrontierConfig::new();
            prop_assert_eq!(run_triangles(&g, &cfg).triangles, host_triangles(&g));
            prop_assert_eq!(run_kcore(&g, &cfg).core, host_kcore(&g));
        }
    }

    fn clique_plus_tail() -> Graph {
        // 4-clique {0,1,2,3} (core 3) with a path 3-4-5 hanging off
        // (cores 1, 1) and an isolated vertex 6 (core 0).
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                edges.push(Edge::new(a, b, 1));
            }
        }
        edges.push(Edge::new(3, 4, 1));
        edges.push(Edge::new(4, 5, 1));
        Graph::new(7, edges)
    }

    #[test]
    fn oracle_matches_known_cores() {
        let g = clique_plus_tail();
        let core = host_kcore(&g);
        assert_eq!(core, vec![3, 3, 3, 3, 1, 1, 0]);
        kcore_invariant(&g, &core).unwrap();
    }

    #[test]
    fn device_matches_oracle() {
        let g = clique_plus_tail();
        let out = run_kcore(&g, &FrontierConfig::new());
        assert_eq!(out.core, host_kcore(&g));
        assert_eq!(out.degeneracy, 3);
        assert!(out.stats.converged);
        kcore_invariant(&g, &out.core).unwrap();
        let f = out.stats.frontier.expect("frontier stats");
        assert!(!f.sizes.is_empty());
    }
}
