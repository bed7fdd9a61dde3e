//! Generic traversal batching: fused multi-query launches for the service.
//!
//! [`MultiSourceBfs`](crate::MultiSourceBfs) packs up to 64 *reachability*
//! queries into one `u64` bitset per vertex. This module generalizes the
//! trick to the *valued* single-source traversals — BFS levels, SSSP
//! distances, SSWP widths — whose per-vertex answer is a full `u32`, not a
//! bit. The framework caps vertex values at 64 bits (see
//! [`cusha_core::Value`]), so the fusion factor is two: a [`FusedPair`]
//! runs two independent queries of the same [`TraversalKind`] in the two
//! `u32` lanes of a `(u32, u32)` value, in one launch sequence over one
//! shard layout.
//!
//! **Bit-identity guarantee.** Each lane applies *exactly* the arithmetic
//! of its single-source program ([`Bfs`](crate::Bfs), [`Sssp`](crate::Sssp),
//! [`Sswp`](crate::Sswp)): the same guard, the same fold, the same
//! improvement predicate, lane-wise and independently. All three are
//! monotone semilattice folds, so each lane converges to its unique fixed
//! point regardless of how many extra iterations its batch-mate keeps the
//! launch loop alive — the fused run's final lane values are bit-identical
//! to the serial runs'. (Iteration counts and modeled times differ: a fused
//! launch runs until *both* lanes settle.)
//!
//! A lane may also be *idle* (no source): its lattice bottom is everywhere,
//! the compute guard never fires, and the lane stays inert for free —
//! that's how an odd query count rides in a pair. [`plan_pairs`] chunks a
//! source list into this shape.

use crate::INF;
use cusha_core::{ColumnKey, VertexProgram};
use cusha_graph::VertexId;

/// Which valued single-source traversal a fused lane runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// Breadth-first levels (`min`-fold of `src + 1`).
    Bfs,
    /// Shortest distances (`min`-fold of `src + w`).
    Sssp,
    /// Widest paths (`max`-fold of `min(src, w)`).
    Sswp,
}

impl TraversalKind {
    /// Lower-case wire label ("bfs" / "sssp" / "sswp").
    pub fn label(self) -> &'static str {
        match self {
            TraversalKind::Bfs => "bfs",
            TraversalKind::Sssp => "sssp",
            TraversalKind::Sswp => "sswp",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bfs" => Some(TraversalKind::Bfs),
            "sssp" => Some(TraversalKind::Sssp),
            "sswp" => Some(TraversalKind::Sswp),
            _ => None,
        }
    }

    /// The value a source vertex starts at.
    fn source_value(self) -> u32 {
        match self {
            TraversalKind::Bfs | TraversalKind::Sssp => 0,
            TraversalKind::Sswp => INF,
        }
    }

    /// The lattice bottom every other vertex starts at (and an idle lane
    /// keeps everywhere: the compute guard below never fires on it).
    fn bottom(self) -> u32 {
        match self {
            TraversalKind::Bfs | TraversalKind::Sssp => INF,
            TraversalKind::Sswp => 0,
        }
    }

    /// One lane of stage 2: the exact fold of the corresponding
    /// single-source program.
    fn fold(self, src: u32, edge: u32, local: &mut u32) {
        match self {
            TraversalKind::Bfs => {
                if src != INF {
                    *local = (*local).min(src + 1);
                }
            }
            TraversalKind::Sssp => {
                if src != INF {
                    *local = (*local).min(src.saturating_add(edge));
                }
            }
            TraversalKind::Sswp => {
                if src != 0 {
                    *local = (*local).max(src.min(edge));
                }
            }
        }
    }

    /// One lane of stage 3: the exact improvement predicate of the
    /// corresponding single-source program.
    fn improved(self, local: u32, old: u32) -> bool {
        match self {
            TraversalKind::Bfs | TraversalKind::Sssp => local < old,
            TraversalKind::Sswp => local > old,
        }
    }

    /// The typed edge value of the corresponding single-source program.
    fn lane_edge_value(self, raw: u32) -> u32 {
        match self {
            TraversalKind::Bfs => 0,
            TraversalKind::Sssp => raw,
            TraversalKind::Sswp => raw.max(1),
        }
    }
}

/// Two same-kind single-source traversals fused into one launch over
/// `(u32, u32)` lane-pair values.
///
/// Lane `i` runs from `sources[i]`; a `None` lane is idle (see module
/// docs). Extract per-query answers from the fused output with
/// [`extract_lane`].
#[derive(Clone, Copy, Debug)]
pub struct FusedPair {
    kind: TraversalKind,
    sources: [Option<VertexId>; 2],
}

impl FusedPair {
    /// Fuses traversals of `kind` from up to two sources.
    pub fn new(kind: TraversalKind, sources: [Option<VertexId>; 2]) -> Self {
        FusedPair { kind, sources }
    }

    /// The traversal kind both lanes run.
    pub fn kind(&self) -> TraversalKind {
        self.kind
    }

    /// The source of lane `lane` (`None` = idle lane).
    pub fn source(&self, lane: usize) -> Option<VertexId> {
        self.sources[lane]
    }

    /// Number of live (non-idle) lanes.
    pub fn width(&self) -> usize {
        self.sources.iter().filter(|s| s.is_some()).count()
    }

    fn lane_initial(&self, lane: usize, v: VertexId) -> u32 {
        if self.sources[lane] == Some(v) {
            self.kind.source_value()
        } else {
            self.kind.bottom()
        }
    }
}

impl VertexProgram for FusedPair {
    type V = (u32, u32);
    type E = u32;
    type SV = u32;
    // BFS lanes ignore the edge array; carrying it anyway only changes
    // modeled traffic, never values, and keeps one code path for all kinds.
    const HAS_EDGE_VALUES: bool = true;
    const HAS_STATIC_VALUES: bool = false;
    const COMPUTE_COST: u64 = 4; // two lanes of the usual 2-op fold

    fn name(&self) -> &'static str {
        // Distinct from the singleton names so a fault plan can poison
        // fused launches specifically (and vice versa) by kernel name.
        match self.kind {
            TraversalKind::Bfs => "BFSx2",
            TraversalKind::Sssp => "SSSPx2",
            TraversalKind::Sswp => "SSWPx2",
        }
    }

    fn initial_value(&self, v: VertexId) -> (u32, u32) {
        (self.lane_initial(0, v), self.lane_initial(1, v))
    }

    fn column_key(&self) -> Option<ColumnKey> {
        // The edge transform is the kind's.
        Some(ColumnKey::new("fused-pair", self.kind as u64))
    }

    fn edge_value(&self, raw: u32) -> u32 {
        // Lanes share the kind, so they share the edge transform.
        self.kind.lane_edge_value(raw)
    }

    fn init_compute(&self, local: &mut (u32, u32), global: &(u32, u32)) {
        *local = *global;
    }

    fn compute(&self, src: &(u32, u32), _st: &u32, edge: &u32, local: &mut (u32, u32)) {
        self.kind.fold(src.0, *edge, &mut local.0);
        self.kind.fold(src.1, *edge, &mut local.1);
    }

    fn update_condition(&self, local: &mut (u32, u32), old: &(u32, u32)) -> bool {
        // Publish when either lane improved. The untouched lane republishes
        // its old value, which is a no-op for batch-mates' convergence.
        self.kind.improved(local.0, old.0) || self.kind.improved(local.1, old.1)
    }

    fn check_invariant(&self, prev: &[(u32, u32)], curr: &[(u32, u32)]) -> Result<(), String> {
        for lane in 0..2 {
            if let Some(s) = self.sources[lane] {
                let v = if lane == 0 {
                    curr[s as usize].0
                } else {
                    curr[s as usize].1
                };
                if v != self.kind.source_value() {
                    return Err(format!(
                        "{} lane {lane} source {s} left its pinned value (now {v})",
                        self.name()
                    ));
                }
            }
        }
        for (v, (&p, &c)) in prev.iter().zip(curr).enumerate() {
            for (lane, (pl, cl)) in [(p.0, c.0), (p.1, c.1)].into_iter().enumerate() {
                // Monotone lattice folds never regress toward bottom.
                if self.kind.improved(pl, cl) {
                    return Err(format!(
                        "{} lane {lane} of vertex {v} regressed {pl} -> {cl}",
                        self.name()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Splits one lane out of a fused output: `extract_lane(&out.values, 0)`
/// is bit-identical to the lane's single-source run.
pub fn extract_lane(values: &[(u32, u32)], lane: usize) -> Vec<u32> {
    assert!(lane < 2, "FusedPair has two lanes");
    values
        .iter()
        .map(|&(a, b)| if lane == 0 { a } else { b })
        .collect()
}

/// Chunks `sources` into the fused pairs that cover them: `2n` sources
/// become `n` full pairs, a trailing odd source rides with an idle lane.
pub fn plan_pairs(kind: TraversalKind, sources: &[VertexId]) -> Vec<FusedPair> {
    sources
        .chunks(2)
        .map(|c| FusedPair::new(kind, [Some(c[0]), c.get(1).copied()]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bfs, Sssp, Sswp};
    use cusha_core::{run, try_run, CuShaConfig};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};

    fn fused_matches_serial(kind: TraversalKind, seed: u64) {
        let g = rmat(&RmatConfig::graph500(7, 700, seed));
        let cfg = CuShaConfig::cw().with_vertices_per_shard(32);
        let (s0, s1) = (0u32, 17u32);
        let fused = run(&FusedPair::new(kind, [Some(s0), Some(s1)]), &g, &cfg);
        let serial0 = match kind {
            TraversalKind::Bfs => run(&Bfs::new(s0), &g, &cfg).values,
            TraversalKind::Sssp => run(&Sssp::new(s0), &g, &cfg).values,
            TraversalKind::Sswp => run(&Sswp::new(s0), &g, &cfg).values,
        };
        let serial1 = match kind {
            TraversalKind::Bfs => run(&Bfs::new(s1), &g, &cfg).values,
            TraversalKind::Sssp => run(&Sssp::new(s1), &g, &cfg).values,
            TraversalKind::Sswp => run(&Sswp::new(s1), &g, &cfg).values,
        };
        assert_eq!(extract_lane(&fused.values, 0), serial0, "{kind:?} lane 0");
        assert_eq!(extract_lane(&fused.values, 1), serial1, "{kind:?} lane 1");
    }

    #[test]
    fn fused_bfs_matches_serial() {
        fused_matches_serial(TraversalKind::Bfs, 21);
    }

    #[test]
    fn fused_sssp_matches_serial() {
        fused_matches_serial(TraversalKind::Sssp, 22);
    }

    #[test]
    fn fused_sswp_matches_serial() {
        fused_matches_serial(TraversalKind::Sswp, 23);
    }

    #[test]
    fn idle_lane_stays_at_bottom() {
        let g = rmat(&RmatConfig::graph500(6, 300, 24));
        let cfg = CuShaConfig::gs().with_vertices_per_shard(16);
        for kind in [TraversalKind::Bfs, TraversalKind::Sssp, TraversalKind::Sswp] {
            let out = run(&FusedPair::new(kind, [Some(2), None]), &g, &cfg);
            let bottom = kind.bottom();
            assert!(
                extract_lane(&out.values, 1).iter().all(|&v| v == bottom),
                "{kind:?} idle lane moved"
            );
        }
    }

    #[test]
    fn plan_pairs_covers_all_sources() {
        let pairs = plan_pairs(TraversalKind::Sssp, &[4, 8, 15]);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].source(0), Some(4));
        assert_eq!(pairs[0].source(1), Some(8));
        assert_eq!(pairs[1].source(0), Some(15));
        assert_eq!(pairs[1].source(1), None);
        assert_eq!(pairs[0].width(), 2);
        assert_eq!(pairs[1].width(), 1);
    }

    #[test]
    fn fused_kernel_name_is_distinct() {
        let g = rmat(&RmatConfig::graph500(6, 300, 25));
        let cfg = CuShaConfig::cw()
            .with_vertices_per_shard(16)
            .with_fault_plan(
                cusha_simt::FaultPlan::seeded(7).fail_kernels_named("BFSx2", u64::MAX),
            );
        // The fused launch is poisoned by name...
        let fused = try_run(
            &FusedPair::new(TraversalKind::Bfs, [Some(0), Some(1)]),
            &g,
            &cfg,
        );
        assert!(fused.is_err());
        // ...while the singleton under the same plan is untouched.
        let single = try_run(&Bfs::new(0), &g, &cfg);
        assert!(single.is_ok());
    }

    #[test]
    fn labels_round_trip() {
        for kind in [TraversalKind::Bfs, TraversalKind::Sssp, TraversalKind::Sswp] {
            assert_eq!(TraversalKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(TraversalKind::parse("pagerank"), None);
    }
}
