//! Incremental graph construction with optional cleanup passes.

use crate::types::{Edge, Graph, VertexId};

/// Builds a [`Graph`] edge by edge, tracking the vertex-id high-water mark and
/// optionally deduplicating parallel edges and dropping self-loops.
///
/// Generators and IO use this so that every `Graph` in the workspace upholds
/// the "endpoints in range" invariant by construction.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    min_vertices: u32,
    drop_self_loops: bool,
    dedup: bool,
}

impl GraphBuilder {
    /// New builder with no edges; the final vertex count is the id
    /// high-water mark unless [`GraphBuilder::reserve_vertices`] raises it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the built graph has at least `n` vertices even if the trailing
    /// ids never appear in an edge (isolated vertices are common in sparse
    /// real-world graphs and matter for shard layout).
    pub fn reserve_vertices(mut self, n: u32) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Drop `v -> v` edges during [`GraphBuilder::build`].
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Deduplicate parallel edges during [`GraphBuilder::build`], keeping the
    /// smallest weight of each `(src, dst)` pair (a natural choice for the
    /// path-style algorithms).
    pub fn dedup_parallel(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Appends one edge.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, weight: u32) -> &mut Self {
        self.edges.push(Edge::new(src, dst, weight));
        self
    }

    /// Appends many edges.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = Edge>) -> &mut Self {
        self.edges.extend(edges);
        self
    }

    /// Number of edges currently staged (before cleanup passes).
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph, applying the configured cleanup passes. Panics
    /// on vertex id [`VertexId::MAX`], which no 32-bit vertex count holds.
    pub fn build(self) -> Graph {
        let GraphBuilder {
            mut edges,
            min_vertices,
            drop_self_loops,
            dedup,
        } = self;
        if drop_self_loops {
            edges.retain(|e| e.src != e.dst);
        }
        if dedup {
            // Sort so equal (src, dst) pairs are adjacent with the smallest
            // weight first, then keep the first of each run.
            edges.sort_unstable_by_key(|e| (e.src, e.dst, e.weight));
            edges.dedup_by_key(|e| (e.src, e.dst));
        }
        let high_water = edges
            .iter()
            .map(|e| e.src.max(e.dst).saturating_add(1))
            .max()
            .unwrap_or(0);
        Graph::new(high_water.max(min_vertices), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_mark_sets_vertex_count() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 9, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn reserve_vertices_overrides_high_water() {
        let mut b = GraphBuilder::new().reserve_vertices(20);
        b.add_edge(0, 1, 1);
        assert_eq!(b.clone().build().num_vertices(), 20);
        // ...but the high-water mark wins when larger.
        b.add_edge(0, 30, 1);
        assert_eq!(b.build().num_vertices(), 31);
    }

    #[test]
    fn drop_self_loops_removes_loops_only() {
        let mut b = GraphBuilder::new().drop_self_loops(true);
        b.add_edge(1, 1, 1).add_edge(1, 2, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge(0), Edge::new(1, 2, 2));
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = GraphBuilder::new().dedup_parallel(true);
        b.add_edge(0, 1, 7)
            .add_edge(0, 1, 3)
            .add_edge(0, 1, 9)
            .add_edge(1, 0, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.edges().contains(&Edge::new(0, 1, 3)));
        assert!(g.edges().contains(&Edge::new(1, 0, 4)));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn extend_appends_all() {
        let mut b = GraphBuilder::new();
        b.extend([Edge::new(0, 1, 1), Edge::new(2, 3, 1)]);
        assert_eq!(b.staged_edges(), 2);
        assert_eq!(b.build().num_edges(), 2);
    }
}
