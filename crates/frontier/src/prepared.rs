//! Program-agnostic topology for the frontier engine.
//!
//! The frontier engine needs both traversal directions of the same graph:
//! out-edges for **push** iterations (expand the compacted frontier) and
//! in-edges for **pull** iterations (every vertex folds its full in-edge
//! list). [`PreparedFrontier`] holds both as CSR — the in-edge side reuses
//! [`cusha_graph::Csr`], the out-edge side is built here by the same stable
//! counting sort — so a graph is prepared once and reused across programs
//! and warm re-entries (`cusha serve`).

use cusha_graph::{Csr, EdgeId, Graph, VertexId};
use std::sync::Arc;

/// Out-edge + in-edge CSR of one graph, shared by every frontier run.
#[derive(Clone, Debug)]
pub struct PreparedFrontier {
    num_vertices: u32,
    num_edges: u32,
    /// Out-edge offsets, `num_vertices + 1` entries.
    out_idxs: Vec<u32>,
    /// Destination of each out-edge slot (grouped by source, stable order).
    out_dsts: Vec<VertexId>,
    /// Original edge id of each out-edge slot (weight lookups).
    out_eids: Vec<EdgeId>,
    /// In-edge CSR (the pull direction); shared with whoever else holds it.
    csr: Arc<Csr>,
}

impl PreparedFrontier {
    /// Builds both directions from the edge list.
    pub fn build(g: &Graph) -> Self {
        Self::around(g, Arc::new(Csr::from_graph(g)))
    }

    /// Builds the out-edge direction around a caller-held in-edge CSR of `g`
    /// (one the VWC cells of the same graph run over, say).
    pub fn around(g: &Graph, csr: Arc<Csr>) -> Self {
        let n = g.num_vertices() as usize;
        let m = g.num_edges() as usize;
        // Stable counting sort of edges by source vertex.
        let mut out_idxs = vec![0u32; n + 1];
        for e in g.edges() {
            out_idxs[e.src as usize + 1] += 1;
        }
        for v in 0..n {
            out_idxs[v + 1] += out_idxs[v];
        }
        let mut cursor: Vec<u32> = out_idxs[..n].to_vec();
        let mut out_dsts = vec![0 as VertexId; m];
        let mut out_eids = vec![0 as EdgeId; m];
        for (id, e) in g.edges().iter().enumerate() {
            let slot = cursor[e.src as usize] as usize;
            cursor[e.src as usize] += 1;
            out_dsts[slot] = e.dst;
            out_eids[slot] = id as EdgeId;
        }
        PreparedFrontier {
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            out_idxs,
            out_dsts,
            out_eids,
            csr,
        }
    }

    /// Vertices in the prepared graph.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Edges in the prepared graph.
    pub fn num_edges(&self) -> u32 {
        self.num_edges
    }

    /// Out-edge offset array (`num_vertices + 1` entries).
    pub fn out_idxs(&self) -> &[u32] {
        &self.out_idxs
    }

    /// Destinations, grouped by source.
    pub fn out_dsts(&self) -> &[VertexId] {
        &self.out_dsts
    }

    /// Original edge ids, parallel to [`PreparedFrontier::out_dsts`].
    pub fn out_eids(&self) -> &[EdgeId] {
        &self.out_eids
    }

    /// Out-edge slots of `v`.
    pub fn out_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.out_idxs[v as usize] as usize..self.out_idxs[v as usize + 1] as usize
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_idxs[v as usize + 1] - self.out_idxs[v as usize]
    }

    /// The in-edge CSR (pull direction).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Host bytes held by both directions (prepared-state accounting for
    /// `cusha serve`'s admission control).
    pub fn footprint_bytes(&self) -> usize {
        let n = self.num_vertices as usize;
        let m = self.num_edges as usize;
        // Out side: offsets + dsts + eids; in side via the Csr's own model.
        (n + 1) * 4 + m * 8 + self.csr.footprint_bytes(4, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_graph::Edge;

    #[test]
    fn out_csr_groups_by_source_in_stable_order() {
        let g = Graph::new(
            4,
            vec![
                Edge::new(2, 0, 7),
                Edge::new(0, 1, 1),
                Edge::new(2, 3, 9),
                Edge::new(0, 2, 2),
            ],
        );
        let pf = PreparedFrontier::build(&g);
        assert_eq!(pf.out_idxs(), &[0, 2, 2, 4, 4]);
        assert_eq!(pf.out_dsts(), &[1, 2, 0, 3]);
        assert_eq!(pf.out_eids(), &[1, 3, 0, 2]);
        assert_eq!(pf.out_degree(2), 2);
        assert_eq!(pf.out_range(1), 2..2);
    }

    #[test]
    fn around_a_shared_csr_is_the_same_topology() {
        let g = Graph::new(3, vec![Edge::new(0, 1, 1), Edge::new(2, 1, 1)]);
        let csr = Arc::new(Csr::from_graph(&g));
        let (shared, own) = (
            PreparedFrontier::around(&g, Arc::clone(&csr)),
            PreparedFrontier::build(&g),
        );
        assert!(std::ptr::eq(shared.csr(), &*csr));
        assert_eq!(shared.out_dsts(), own.out_dsts());
        assert_eq!(shared.csr().src_indxs(), own.csr().src_indxs());
    }

    #[test]
    fn both_directions_agree_on_edge_count() {
        let g = Graph::new(3, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1)]);
        let pf = PreparedFrontier::build(&g);
        assert_eq!(pf.out_dsts().len(), 2);
        assert_eq!(pf.csr().src_indxs().len(), 2);
        assert!(pf.footprint_bytes() > 0);
    }
}
