//! Fleet partitioning: edge-balanced contiguous shard ranges plus halo sets.
//!
//! A multi-device engine assigns each device a *contiguous* run of shards
//! (contiguous runs keep every device's vertex range contiguous, so vertex
//! ownership is a range check and shard-major arrays split without
//! reshuffling). Shards vary wildly in edge count on power-law graphs, so
//! ranges are chosen by balancing *edges*, not shard counts: boundary `k`
//! is the first shard where the edge prefix sum reaches `k/P` of the total.
//! That greedy rule carries a provable guarantee — every partition's load
//! differs from the ideal `total/P` by less than the largest single shard —
//! which [`FleetPartition`] surfaces as a tested invariant.
//!
//! Per partition the module also computes the **halo set**: the remote
//! vertices (sources owned by other partitions) whose values the partition
//! reads, and which therefore must arrive over the interconnect before its
//! next iteration. Partitioning is defined purely by the graph and the
//! `(num_vertices, vertices_per_shard)` convention shared with the engine's
//! shard decomposition, so this crate needs no dependency on the engine.

use crate::types::Graph;
use std::ops::Range;

/// One device's slice of the fleet: its shard run, vertex range, edge load,
/// and the remote vertices it reads.
#[derive(Clone, Debug)]
pub struct DevicePartition {
    /// Contiguous shard indices assigned to this device (may be empty when
    /// there are fewer shards than devices).
    pub shards: Range<usize>,
    /// Vertex range owned by those shards (clamped at `|V|`).
    pub vertices: Range<u32>,
    /// Total edge entries across the assigned shards.
    pub edges: usize,
    /// Sorted, deduplicated remote source vertices this partition reads —
    /// their updated values must arrive before the next iteration.
    pub halo: Vec<u32>,
}

impl DevicePartition {
    /// Does this partition own vertex `v`?
    #[inline]
    pub fn owns(&self, v: u32) -> bool {
        self.vertices.contains(&v)
    }
}

/// An edge-balanced split of a shard sequence across `P` devices.
#[derive(Clone, Debug)]
pub struct FleetPartition {
    parts: Vec<DevicePartition>,
    num_shards: usize,
    max_shard_edges: usize,
    total_edges: usize,
}

impl FleetPartition {
    /// Partitions `g`'s shard sequence (shard `s` owns destination range
    /// `[s*n_per, (s+1)*n_per)`, `p = ceil(|V|/n_per)`, minimum one shard —
    /// the same convention as the engine's G-Shards builder) into `parts`
    /// edge-balanced contiguous ranges with halo sets.
    ///
    /// # Panics
    /// Panics when `parts == 0` or `vertices_per_shard == 0`.
    pub fn from_graph(g: &Graph, vertices_per_shard: u32, parts: usize) -> Self {
        assert!(parts > 0, "fleet partition needs at least one device");
        assert!(
            vertices_per_shard > 0,
            "vertices_per_shard must be positive"
        );
        let n = g.num_vertices();
        let n_per = vertices_per_shard;
        let p = (n.div_ceil(n_per)).max(1) as usize;

        let mut shard_edges = vec![0usize; p];
        for e in g.edges() {
            shard_edges[(e.dst / n_per) as usize] += 1;
        }
        let ranges = edge_balanced_ranges(&shard_edges, parts);

        let mut out = Vec::with_capacity(parts);
        for r in &ranges {
            let vertices = if r.is_empty() {
                let lo = (r.start as u32).saturating_mul(n_per).min(n);
                lo..lo
            } else {
                let lo = (r.start as u32 * n_per).min(n);
                let hi = (r.end as u32).saturating_mul(n_per).min(n);
                lo..hi
            };
            let edges = shard_edges[r.clone()].iter().sum();
            out.push(DevicePartition {
                shards: r.clone(),
                vertices,
                edges,
                halo: Vec::new(),
            });
        }

        // Halo of partition k: distinct sources of its edges that it does
        // not own. One pass over the edge list marks each in k's |V|-bit
        // seen set (the shard -> part table finds k); a walk of the set in
        // order lists them sorted and once each.
        let mut part_of = vec![0usize; p];
        for (k, r) in ranges.iter().enumerate() {
            part_of[r.clone()].fill(k);
        }
        let words = (n as usize).div_ceil(64);
        let mut seen = vec![0u64; parts * words];
        for e in g.edges() {
            let k = part_of[(e.dst / n_per) as usize];
            if !out[k].vertices.contains(&e.src) {
                seen[k * words + e.src as usize / 64] |= 1 << (e.src % 64);
            }
        }
        for (part, set) in out.iter_mut().zip(seen.chunks_exact(words.max(1))) {
            for (w, &word) in set.iter().enumerate() {
                let mut left = word;
                while left != 0 {
                    part.halo.push((w * 64) as u32 + left.trailing_zeros());
                    left &= left - 1;
                }
            }
        }

        FleetPartition {
            parts: out,
            num_shards: p,
            max_shard_edges: shard_edges.iter().copied().max().unwrap_or(0),
            total_edges: g.num_edges() as usize,
        }
    }

    /// Per-device partitions, in device order. Always `parts` entries.
    pub fn parts(&self) -> &[DevicePartition] {
        &self.parts
    }

    /// Number of devices.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Number of shards that were split.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Largest single shard's edge count — the balance slack bound.
    pub fn max_shard_edges(&self) -> usize {
        self.max_shard_edges
    }

    /// Total edges across all partitions.
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// The device owning vertex `v`, if any (`None` past `|V|` or when the
    /// owning range landed on an empty partition of an edgeless tail).
    pub fn owner_of(&self, v: u32) -> Option<usize> {
        self.parts.iter().position(|p| p.owns(v))
    }

    /// Load imbalance: max partition edge load over the ideal share
    /// (`total/P`); 1.0 is perfect. Returns 1.0 for an edgeless graph.
    pub fn imbalance(&self) -> f64 {
        if self.total_edges == 0 {
            return 1.0;
        }
        let max = self.parts.iter().map(|p| p.edges).max().unwrap_or(0);
        max as f64 * self.parts.len() as f64 / self.total_edges as f64
    }
}

/// Splits `shard_edges` into exactly `parts` contiguous ranges whose edge
/// loads track the ideal `total/parts` share: boundary `k` is the smallest
/// index where the prefix sum reaches `k * total / parts`.
///
/// Guarantee: every range's load differs from the ideal share by *less than
/// the largest single shard's* edge count (a boundary can overshoot its
/// target only by the shard that crossed it). Degenerate inputs degrade
/// gracefully — with fewer shards than parts, trailing ranges are empty.
///
/// # Panics
/// Panics when `parts == 0`.
pub fn edge_balanced_ranges(shard_edges: &[usize], parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "cannot split into zero ranges");
    let p = shard_edges.len();
    let total: u128 = shard_edges.iter().map(|&e| e as u128).sum();
    let mut prefix = 0u128;
    let mut boundaries = vec![0usize; parts + 1];
    boundaries[parts] = p;
    let mut k = 1;
    for (s, &e) in shard_edges.iter().enumerate() {
        // Close every boundary whose target `k*total/parts` is already met
        // before shard `s` contributes.
        while k < parts && prefix * parts as u128 >= k as u128 * total {
            boundaries[k] = s;
            k += 1;
        }
        prefix += e as u128;
    }
    while k < parts {
        boundaries[k] = p;
        k += 1;
    }
    (0..parts)
        .map(|i| boundaries[i]..boundaries[i + 1])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::{rmat, RmatConfig};
    use crate::types::Edge;

    fn check_cover(ranges: &[Range<usize>], p: usize) {
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, p);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must tile contiguously");
        }
    }

    #[test]
    fn even_shards_split_evenly() {
        let ranges = edge_balanced_ranges(&[10; 8], 4);
        check_cover(&ranges, 8);
        assert_eq!(ranges, vec![0..2, 2..4, 4..6, 6..8]);
    }

    #[test]
    fn skewed_shards_balance_edges_not_counts() {
        // One huge shard followed by many small ones.
        let edges = [100, 1, 1, 1, 1, 1, 1, 1];
        let ranges = edge_balanced_ranges(&edges, 2);
        check_cover(&ranges, 8);
        // The huge shard alone exceeds half the total, so it stands alone.
        assert_eq!(ranges[0], 0..1);
        assert_eq!(ranges[1], 1..8);
    }

    #[test]
    fn balance_invariant_holds_for_random_loads() {
        // Deterministic pseudo-random loads (LCG), no external RNG needed.
        let mut x = 12345u64;
        let edges: Vec<usize> = (0..257)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as usize % 1000
            })
            .collect();
        let total: usize = edges.iter().sum();
        let max_shard = *edges.iter().max().unwrap();
        for parts in [1, 2, 3, 4, 7, 8, 16] {
            let ranges = edge_balanced_ranges(&edges, parts);
            check_cover(&ranges, edges.len());
            let ideal = total as f64 / parts as f64;
            for r in &ranges {
                let load: usize = edges[r.clone()].iter().sum();
                assert!(
                    (load as f64 - ideal).abs() < max_shard as f64 + 1.0,
                    "parts={parts} load={load} ideal={ideal} max_shard={max_shard}"
                );
            }
        }
    }

    #[test]
    fn fewer_shards_than_parts_leaves_empty_tail_ranges() {
        let ranges = edge_balanced_ranges(&[5, 5], 4);
        check_cover(&ranges, 2);
        assert_eq!(ranges.iter().filter(|r| !r.is_empty()).count(), 2);
        // Every shard still assigned exactly once.
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn empty_input_yields_all_empty_ranges() {
        let ranges = edge_balanced_ranges(&[], 3);
        assert_eq!(ranges, vec![0..0, 0..0, 0..0]);
    }

    fn sample() -> Graph {
        Graph::new(
            8,
            vec![
                Edge::new(1, 2, 10),
                Edge::new(7, 2, 11),
                Edge::new(0, 1, 12),
                Edge::new(3, 0, 13),
                Edge::new(5, 4, 14),
                Edge::new(6, 4, 15),
                Edge::new(2, 7, 16),
                Edge::new(4, 7, 17),
                Edge::new(0, 5, 18),
                Edge::new(6, 1, 19),
            ],
        )
    }

    #[test]
    fn two_device_halos_on_sample() {
        // n_per=4 -> shards {0..4}, {4..8}, 5 edges each.
        let fp = FleetPartition::from_graph(&sample(), 4, 2);
        assert_eq!(fp.num_shards(), 2);
        let d0 = &fp.parts()[0];
        let d1 = &fp.parts()[1];
        assert_eq!(d0.vertices, 0..4);
        assert_eq!(d1.vertices, 4..8);
        assert_eq!(d0.edges + d1.edges, 10);
        // Device 0's edges have dst in 0..4 with sources {1,7,0,3,6}:
        // remote sources are 6 and 7.
        assert_eq!(d0.halo, vec![6, 7]);
        // Device 1's edges have dst in 4..8 with sources {5,6,2,4,0}:
        // remote sources are 0 and 2.
        assert_eq!(d1.halo, vec![0, 2]);
        assert_eq!(fp.owner_of(0), Some(0));
        assert_eq!(fp.owner_of(7), Some(1));
        assert_eq!(fp.owner_of(8), None);
    }

    #[test]
    fn single_device_has_no_halo() {
        let fp = FleetPartition::from_graph(&sample(), 4, 1);
        assert_eq!(fp.num_parts(), 1);
        assert!(fp.parts()[0].halo.is_empty());
        assert_eq!(fp.parts()[0].edges, 10);
        assert!((fp.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_partitions_cleanly() {
        let fp = FleetPartition::from_graph(&Graph::empty(5), 2, 4);
        assert_eq!(fp.num_parts(), 4);
        assert_eq!(fp.total_edges(), 0);
        assert!((fp.imbalance() - 1.0).abs() < 1e-12);
        for part in fp.parts() {
            assert_eq!(part.edges, 0);
            assert!(part.halo.is_empty());
        }
        // Shards are still covered exactly once.
        let covered: usize = fp.parts().iter().map(|p| p.shards.len()).sum();
        assert_eq!(covered, fp.num_shards());
    }

    #[test]
    fn fewer_shards_than_devices() {
        // 8 vertices, n_per=8 -> a single shard split across 4 devices.
        let fp = FleetPartition::from_graph(&sample(), 8, 4);
        assert_eq!(fp.num_shards(), 1);
        let loaded: Vec<_> = fp.parts().iter().filter(|p| p.edges > 0).collect();
        assert_eq!(loaded.len(), 1, "one shard cannot split further");
        assert_eq!(loaded[0].edges, 10);
        assert!(
            loaded[0].halo.is_empty(),
            "sole loaded device owns everything"
        );
        for part in fp.parts().iter().filter(|p| p.edges == 0) {
            assert!(part.shards.is_empty() || part.edges == 0);
        }
    }

    #[test]
    fn single_giant_shard_dominates_balance_bound() {
        // Vertex 0 receives every edge: shard 0 is the giant.
        let n = 64u32;
        let edges: Vec<Edge> = (1..n).map(|s| Edge::new(s, 0, s)).collect();
        let g = Graph::new(n, edges);
        let fp = FleetPartition::from_graph(&g, 4, 4);
        let ideal = fp.total_edges() as f64 / 4.0;
        for part in fp.parts() {
            assert!(
                (part.edges as f64 - ideal).abs() < fp.max_shard_edges() as f64 + 1.0,
                "load {} vs ideal {ideal} bound {}",
                part.edges,
                fp.max_shard_edges()
            );
        }
        // The giant shard's partition carries nearly everything.
        assert_eq!(fp.parts()[0].edges, 63);
    }

    #[test]
    fn rmat_partition_invariants() {
        let g = rmat(&RmatConfig::graph500(9, 4000, 77));
        for parts in [1, 2, 4, 8] {
            let fp = FleetPartition::from_graph(&g, 32, parts);
            let total: usize = fp.parts().iter().map(|p| p.edges).sum();
            assert_eq!(total, g.num_edges() as usize);
            let ideal = total as f64 / parts as f64;
            for part in fp.parts() {
                // The documented balance guarantee.
                assert!((part.edges as f64 - ideal).abs() < fp.max_shard_edges() as f64 + 1.0);
                // Halo correctness: sorted, deduped, strictly remote.
                assert!(part.halo.windows(2).all(|w| w[0] < w[1]));
                assert!(part.halo.iter().all(|&v| !part.owns(v)));
            }
            // Every remote-source edge is reflected in some halo.
            for e in g.edges() {
                let k = fp
                    .parts()
                    .iter()
                    .position(|p| p.shards.contains(&((e.dst / 32) as usize)))
                    .unwrap();
                if !fp.parts()[k].owns(e.src) {
                    assert!(fp.parts()[k].halo.binary_search(&e.src).is_ok());
                }
            }
            assert!(fp.imbalance() >= 1.0 - 1e-12);
        }
    }

    /// The halo build [`FleetPartition::from_graph`] replaced, kept as its
    /// reference: each edge's part by a search of the ranges, every foreign
    /// source pushed, then sorted and deduplicated.
    fn reference_halos(g: &Graph, n_per: u32, parts: usize) -> Vec<Vec<u32>> {
        let fp = FleetPartition::from_graph(g, n_per, parts);
        let mut halos = vec![Vec::new(); parts];
        for e in g.edges() {
            let k = fp
                .parts()
                .iter()
                .position(|r| r.shards.contains(&((e.dst / n_per) as usize)))
                .expect("ranges cover every shard");
            if !fp.parts()[k].vertices.contains(&e.src) {
                halos[k].push(e.src);
            }
        }
        for halo in &mut halos {
            halo.sort_unstable();
            halo.dedup();
        }
        halos
    }

    #[test]
    fn seen_sets_equal_the_reference_halos() {
        let sample_hub = Graph::new(70, (0..70).map(|v| Edge::new(69, v, 1)).collect());
        let graphs = [
            sample(),
            Graph::empty(0),
            Graph::empty(5),
            sample_hub,
            rmat(&RmatConfig::graph500(9, 4000, 77)),
            rmat(&RmatConfig::graph500(7, 900, 3)),
        ];
        for g in &graphs {
            for (n_per, parts) in [(1, 1), (3, 2), (4, 4), (32, 3), (64, 8), (1000, 2)] {
                let fp = FleetPartition::from_graph(g, n_per, parts);
                let halos: Vec<Vec<u32>> = fp.parts().iter().map(|p| p.halo.clone()).collect();
                assert_eq!(
                    halos,
                    reference_halos(g, n_per, parts),
                    "n_per={n_per} parts={parts}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_parts_rejected() {
        let _ = FleetPartition::from_graph(&Graph::empty(1), 1, 0);
    }
}
