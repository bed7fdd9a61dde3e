//! Triangle counting — a frontier-native workload.
//!
//! Degree-rank orientation: the symmetrized simple graph keeps each edge
//! `{u, v}` only in the direction of increasing `(degree, id)` rank, so
//! every triangle survives as exactly one wedge and per-vertex oriented
//! degrees stay small (≤ O(√m) on real graphs — the standard forward
//! counting bound). One **advance**-shaped kernel assigns a lane per
//! oriented edge `(u, v)` and merge-intersects the two sorted oriented
//! adjacency lists; lanes run their merges in lockstep (two gathered loads
//! per step), per-block sums land in a partials buffer, and the host folds
//! the partials into the final count.
//! One launch and no iteration boundary: no flip point ever comes due, so no
//! bit flip can land and there is no ladder to climb.

use crate::compact::block_warps;
use crate::config::{FrontierConfig, U32_PER_VERTEX};
use crate::kcore::undirected_adjacency;
use cusha_core::{retry_attempts, DeviceRun, EngineError, NoopObserver, RunStats};
use cusha_graph::Graph;
use cusha_simt::{KernelDesc, Mask, WARP};

/// Result of a triangle count.
#[derive(Clone, Debug)]
pub struct TriangleOutput {
    /// Number of distinct triangles in the symmetrized simple graph.
    pub triangles: u64,
    /// Run statistics (single-pass: one kernel, `iterations == 1`).
    pub stats: RunStats,
}

/// Oriented CSR over the symmetrized simple graph: edges point from lower to
/// higher `(degree, id)` rank, adjacency sorted by neighbor id. Returns
/// `(idxs, nbrs, esrc)`; the oriented edge list is `esrc[e] -> nbrs[e]`.
fn oriented(g: &Graph) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let n = g.num_vertices() as usize;
    let (adj_idxs, adj) = undirected_adjacency(g);
    let rank = |v: u32| (adj_idxs[v as usize + 1] - adj_idxs[v as usize], v);
    let mut idxs = vec![0u32; n + 1];
    let mut flat = Vec::new();
    let mut esrc = Vec::new();
    for v in 0..n as u32 {
        let list = adj_idxs[v as usize] as usize..adj_idxs[v as usize + 1] as usize;
        for &u in adj[list].iter().filter(|&&u| rank(v) < rank(u)) {
            flat.push(u);
            esrc.push(v);
        }
        idxs[v as usize + 1] = flat.len() as u32;
    }
    (idxs, flat, esrc)
}

/// Counts triangles, panicking on device faults.
pub fn run_triangles(graph: &Graph, cfg: &FrontierConfig) -> TriangleOutput {
    match try_run_triangles(graph, cfg) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Counts triangles on the simulated device in a single oriented
/// intersection pass; a transient fault costs a [`retry_attempts`] retry.
pub fn try_run_triangles(
    graph: &Graph,
    cfg: &FrontierConfig,
) -> Result<TriangleOutput, EngineError<u32>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    cfg.check_fits(graph, U32_PER_VERTEX)?;
    let (mut plan, name) = (cfg.fault_plan.clone(), "Frontier/triangles");
    let (out, retried) = retry_attempts(|| {
        let (setup, plan) = (cfg.device_setup(), plan.as_mut());
        DeviceRun::open(setup, name.into(), plan, &mut NoopObserver, |run| {
            count(graph, cfg, run)
        })
    });
    let mut out = out?;
    out.stats.fault.absorb(&retried);
    Ok(out)
}

/// The count on the run's device: the oriented CSR's upload, one
/// intersection launch, the per-block sums' download.
fn count(
    graph: &Graph,
    cfg: &FrontierConfig,
    run: &mut DeviceRun<'_, NoopObserver>,
) -> Result<TriangleOutput, EngineError<u32>> {
    let tpb = cfg.threads_per_block as usize;
    let (idxs_host, nbrs_host, esrc_host) = oriented(graph);
    let m = esrc_host.len();
    let gpu = &mut run.gpu;
    let idxs = gpu.try_upload(&idxs_host)?;
    let nbrs = gpu.try_upload(&nbrs_host)?;
    let esrc = gpu.try_upload(&esrc_host)?;
    // The edge list's destination column has its own device copy: the
    // kernel streams it by edge while it gathers `nbrs` by vertex.
    let edst = gpu.try_upload(&nbrs_host)?;
    let grid = m.div_ceil(tpb).max(1) as u32;
    let mut block_sums = gpu.try_upload(&vec![0u64; grid as usize])?;
    run.uploaded();

    let desc = KernelDesc::new("triangles-intersect", grid, tpb as u32);
    let kstats = run.gpu.try_launch(&desc, |b| {
        let mut block_total = 0u64;
        for (warp_base, mask) in block_warps(b.id(), tpb, m) {
            b.phase("advance");
            let us = b.gload_run(&esrc, mask, warp_base as isize);
            let vs = b.gload_run(&edst, mask, warp_base as isize);
            let ui0 = b.gload(&idxs, mask, |l| us[l] as usize);
            let ui1 = b.gload(&idxs, mask, |l| us[l] as usize + 1);
            let vi0 = b.gload(&idxs, mask, |l| vs[l] as usize);
            let vi1 = b.gload(&idxs, mask, |l| vs[l] as usize + 1);
            b.exec(mask, 1);
            let mut i = [0usize; WARP];
            let mut j = [0usize; WARP];
            let mut cnt = [0u64; WARP];
            for l in mask.iter() {
                i[l] = ui0[l] as usize;
                j[l] = vi0[l] as usize;
            }
            // Lockstep sorted-merge intersection: every active lane
            // advances one comparison per step.
            loop {
                let act = Mask::from_fn(|l| {
                    mask.lane(l) && i[l] < ui1[l] as usize && j[l] < vi1[l] as usize
                });
                if act.is_empty() {
                    break;
                }
                let a = b.gload(&nbrs, act, |l| i[l]);
                let c = b.gload(&nbrs, act, |l| j[l]);
                for l in act.iter() {
                    match a[l].cmp(&c[l]) {
                        std::cmp::Ordering::Less => i[l] += 1,
                        std::cmp::Ordering::Greater => j[l] += 1,
                        std::cmp::Ordering::Equal => {
                            cnt[l] += 1;
                            i[l] += 1;
                            j[l] += 1;
                        }
                    }
                }
                b.exec(act, 2);
            }
            for l in mask.iter() {
                block_total += cnt[l];
            }
        }
        let bid = b.id() as usize;
        b.gstore(&mut block_sums, Mask::first(1), |_| bid, |_| block_total);
    })?;

    let stats = &mut run.stats;
    (stats.iterations, stats.converged) = (1, true);
    stats.kernel.counters.add(&kstats.counters);
    stats.kernel.blocks = kstats.blocks;
    stats.kernel.threads_per_block = kstats.threads_per_block;
    stats.kernel.name = "Frontier::triangles".into();
    let (sums, stats) = run.close(|gpu| gpu.try_download(&block_sums))?;
    let triangles = sums.iter().sum();
    Ok(TriangleOutput { triangles, stats })
}

/// Host oracle: for each vertex, tests every sorted-adjacency neighbor pair
/// with a binary search — independent of the device's rank orientation, so
/// the two counts agreeing exercises the orientation logic too.
pub fn host_triangles(graph: &Graph) -> u64 {
    let n = graph.num_vertices() as usize;
    let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in graph.edges() {
        if e.src != e.dst {
            nbrs[e.src as usize].push(e.dst);
            nbrs[e.dst as usize].push(e.src);
        }
    }
    for list in nbrs.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    let mut count = 0u64;
    for v in 0..n as u32 {
        let list = &nbrs[v as usize];
        for (ai, &a) in list.iter().enumerate() {
            if a <= v {
                continue;
            }
            for &b in &list[ai + 1..] {
                // v < a < b: count each triangle once at its minimum vertex.
                if nbrs[a as usize].binary_search(&b).is_ok() {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_graph::Edge;

    #[test]
    fn oracle_counts_known_triangles() {
        // Two triangles sharing edge 0-1, plus a dangling edge.
        let g = Graph::new(
            5,
            vec![
                Edge::new(0, 1, 1),
                Edge::new(1, 2, 1),
                Edge::new(2, 0, 1),
                Edge::new(1, 3, 1),
                Edge::new(3, 0, 1),
                Edge::new(3, 4, 1),
            ],
        );
        assert_eq!(host_triangles(&g), 2);
    }

    #[test]
    fn device_matches_oracle_and_ignores_duplicates() {
        // Duplicate and self-loop edges must not distort the count.
        let g = Graph::new(
            4,
            vec![
                Edge::new(0, 1, 1),
                Edge::new(1, 0, 1),
                Edge::new(1, 2, 1),
                Edge::new(2, 0, 1),
                Edge::new(2, 2, 1),
                Edge::new(3, 0, 1),
            ],
        );
        let out = run_triangles(&g, &FrontierConfig::new());
        assert_eq!(out.triangles, 1);
        assert_eq!(out.triangles, host_triangles(&g));
        assert!(out.stats.converged);
    }

    /// One launch, no flip point: a plan flipping every buffer at every flip
    /// point lands nothing, and the count is the oracle's.
    #[test]
    fn no_flip_lands_in_a_single_launch() {
        use cusha_graph::generators::rmat::{rmat, RmatConfig};
        let g = rmat(&RmatConfig::graph500(8, 3000, 17));
        let plan = cusha_simt::FaultPlan::seeded(3).with_bitflip_rate(1.0);
        let cfg = FrontierConfig {
            fault_plan: Some(plan),
            ..FrontierConfig::new()
        };
        let out = try_run_triangles(&g, &cfg).expect("triangle count");
        assert_eq!(out.triangles, host_triangles(&g));
        assert_eq!(out.stats.sdc.flips_injected, 0);
    }
}
