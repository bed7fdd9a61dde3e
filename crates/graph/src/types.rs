//! Canonical directed graph types.
//!
//! The workspace uses 32-bit vertex and edge identifiers throughout: the
//! largest graph in the paper (LiveJournal) has 69 M edges and 4.8 M
//! vertices, comfortably within `u32` range, and halving index width is a
//! first-order memory-bandwidth win on both the real GPU and our simulator.

/// Index of a vertex. Dense in `0..graph.num_vertices()`.
pub type VertexId = u32;

/// Index of an edge. Dense in `0..graph.num_edges()`; used to look up the raw
/// weight seed of an edge regardless of the representation it is stored in.
pub type EdgeId = u32;

/// A directed edge `src -> dst` carrying a raw weight seed.
///
/// Algorithms derive their typed edge value from `weight` (e.g. SSSP uses it
/// directly as a `u32` distance, NN maps it into a small float). Unweighted
/// algorithms (BFS, CC, PR) ignore it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Raw weight seed, typically in `1..=64`.
    pub weight: u32,
}

impl Edge {
    /// Convenience constructor.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId, weight: u32) -> Self {
        Edge { src, dst, weight }
    }
}

/// A structural defect found by [`Graph::validate`] / [`Graph::try_new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a vertex `>= num_vertices`.
    EdgeOutOfRange {
        /// Index of the offending edge in the edge list.
        index: usize,
        /// The offending edge.
        edge: Edge,
        /// The graph's vertex count.
        num_vertices: u32,
    },
    /// The edge list does not fit the 32-bit [`EdgeId`] space.
    TooManyEdges {
        /// Actual edge count.
        count: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EdgeOutOfRange {
                index,
                edge,
                num_vertices,
            } => write!(
                f,
                "edge #{index} ({} -> {}) out of range for {num_vertices} vertices",
                edge.src, edge.dst
            ),
            GraphError::TooManyEdges { count } => {
                write!(f, "{count} edges exceed the 32-bit edge-id space")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed graph stored as a flat edge list.
///
/// This is the interchange format: generators produce it, representations
/// ([`crate::Csr`], G-Shards, Concatenated Windows) are built from it, and IO
/// reads/writes it. Vertex ids must be `< num_vertices` and `|E|` must fit an
/// [`EdgeId`]; every constructor checks or preserves both, so nothing
/// downstream re-checks a `Graph`. Weights are raw `u32` seeds, so non-finite
/// values are unrepresentable; algorithms that derive floats from the seed
/// map it through finite-preserving transforms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    num_vertices: u32,
    edges: Vec<Edge>,
}

/// Checks the invariants [`Graph`] maintains over raw parts.
fn check_parts(num_vertices: u32, edges: &[Edge]) -> Result<(), GraphError> {
    if edges.len() > EdgeId::MAX as usize {
        return Err(GraphError::TooManyEdges { count: edges.len() });
    }
    for (index, e) in edges.iter().enumerate() {
        if e.src >= num_vertices || e.dst >= num_vertices {
            return Err(GraphError::EdgeOutOfRange {
                index,
                edge: *e,
                num_vertices,
            });
        }
    }
    Ok(())
}

impl Graph {
    /// Builds a graph from parts, validating that every endpoint is in range.
    ///
    /// # Panics
    /// Panics if any edge references a vertex `>= num_vertices`. Fallible
    /// callers (file loaders, user-supplied inputs) use [`Graph::try_new`].
    pub fn new(num_vertices: u32, edges: Vec<Edge>) -> Self {
        Graph::try_new(num_vertices, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a graph from parts, returning the first structural defect
    /// instead of panicking.
    pub fn try_new(num_vertices: u32, edges: Vec<Edge>) -> Result<Self, GraphError> {
        check_parts(num_vertices, &edges)?;
        Ok(Graph {
            num_vertices,
            edges,
        })
    }

    /// Builds a graph from parts its caller has already checked edge by
    /// edge (the binary loader range-checks each record as it arrives; its
    /// `u32` edge count cannot exceed the id space; a validated batch's).
    pub(crate) fn from_checked_parts(num_vertices: u32, edges: Vec<Edge>) -> Self {
        debug_assert_eq!(check_parts(num_vertices, &edges), Ok(()));
        Graph {
            num_vertices,
            edges,
        }
    }

    /// Re-checks the invariants every constructor upholds (endpoints in
    /// range, edge count within [`EdgeId`]): an O(|E|) probe, always `Ok`.
    pub fn validate(&self) -> Result<(), GraphError> {
        check_parts(self.num_vertices, &self.edges)
    }

    /// An empty graph over `num_vertices` isolated vertices.
    pub fn empty(num_vertices: u32) -> Self {
        Graph {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Number of vertices, `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges, `|E|`.
    #[inline]
    pub fn num_edges(&self) -> u32 {
        self.edges.len() as u32
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge lookup by dense [`EdgeId`].
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id as usize]
    }

    /// Average degree `|E| / |V|` (0.0 for the empty vertex set).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.num_vertices as f64
        }
    }

    /// Out-degree of every vertex. Used as the `StaticVertex` input of
    /// PageRank (`NbrsNum` in Table 3 of the paper).
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            d[e.src as usize] += 1;
        }
        d
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            d[e.dst as usize] += 1;
        }
        d
    }

    /// Consumes the graph, returning its parts.
    pub fn into_parts(self) -> (u32, Vec<Edge>) {
        (self.num_vertices, self.edges)
    }

    /// Returns a copy with every edge reversed (`u -> v` becomes `v -> u`).
    /// Weights and edge order are preserved.
    pub fn reversed(&self) -> Graph {
        let edges = self
            .edges
            .iter()
            .map(|e| Edge::new(e.dst, e.src, e.weight))
            .collect();
        Graph {
            num_vertices: self.num_vertices,
            edges,
        }
    }

    /// Returns a copy with vertex ids renamed through `perm` (vertex `v`
    /// becomes `perm[v]`). Edge order and weights are preserved.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..num_vertices`.
    pub fn relabeled(&self, perm: &[VertexId]) -> Graph {
        assert_eq!(perm.len(), self.num_vertices as usize, "permutation length");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                (p as usize) < perm.len() && !std::mem::replace(&mut seen[p as usize], true),
                "not a permutation"
            );
        }
        let edges = self
            .edges
            .iter()
            .map(|e| Edge::new(perm[e.src as usize], perm[e.dst as usize], e.weight))
            .collect();
        Graph {
            num_vertices: self.num_vertices,
            edges,
        }
    }

    /// Returns a copy where for every edge `u -> v` the edge `v -> u` is also
    /// present (weights duplicated). Self-loops are not duplicated. The result
    /// may contain parallel edges if the input already had both directions.
    /// Panics if the doubled edge list exceeds the 32-bit edge-id space.
    pub fn symmetrized(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            edges.push(*e);
            if e.src != e.dst {
                edges.push(Edge::new(e.dst, e.src, e.weight));
            }
        }
        Graph::new(self.num_vertices, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::new(
            4,
            vec![Edge::new(0, 1, 5), Edge::new(1, 2, 3), Edge::new(3, 3, 1)],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge(1), Edge::new(1, 2, 3));
        assert!((g.avg_degree() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degrees() {
        let g = sample();
        assert_eq!(g.out_degrees(), vec![1, 1, 0, 1]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        Graph::new(2, vec![Edge::new(0, 2, 1)]);
    }

    #[test]
    fn try_new_reports_the_offending_edge() {
        let err = Graph::try_new(2, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::EdgeOutOfRange {
                index: 1,
                edge: Edge::new(1, 2, 1),
                num_vertices: 2
            }
        );
        assert!(err.to_string().contains("edge #1"));
    }

    #[test]
    fn validate_accepts_constructed_graphs() {
        assert_eq!(sample().validate(), Ok(()));
        assert_eq!(Graph::empty(0).validate(), Ok(()));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(7);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        let z = Graph::empty(0);
        assert_eq!(z.avg_degree(), 0.0);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let g = sample().reversed();
        assert_eq!(g.edge(0), Edge::new(1, 0, 5));
        assert_eq!(g.edge(2), Edge::new(3, 3, 1));
    }

    #[test]
    fn symmetrized_adds_back_edges_once() {
        let g = sample().symmetrized();
        // 2 non-loop edges duplicated + 1 self-loop kept single.
        assert_eq!(g.num_edges(), 5);
        assert!(g.edges().contains(&Edge::new(2, 1, 3)));
        assert_eq!(
            g.edges()
                .iter()
                .filter(|e| e.src == 3 && e.dst == 3)
                .count(),
            1
        );
    }
}
