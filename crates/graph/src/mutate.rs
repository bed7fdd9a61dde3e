//! Live graph mutation: validated edge insert/delete batches applied as
//! deltas to the canonical edge list.
//!
//! The shard layouts (G-Shards/CW) are built from a [`Graph`] and assumed
//! immutable for the duration of a run; a resident service that accepts
//! edge mutations therefore mutates the *graph* here and rebuilds (or
//! lazily re-derives) its prepared layouts per committed batch. A batch is
//! all-or-nothing: [`MutationBatch::validate`] rejects the whole batch
//! before any edge is touched, so a half-applied batch is unrepresentable
//! in memory — and the WAL layer in `cusha-serve` makes it unrepresentable
//! across a crash.
//!
//! Revisioning: [`fingerprint`] is the structural FNV-1a digest of the
//! graph (vertex count + every edge in order) used as the `graph_rev`
//! component of result-cache keys. It is a pure function of graph content,
//! so a revision recovered by WAL replay after a crash is bit-identical to
//! the revision of a from-scratch rebuild that applied the same committed
//! prefix — the property the crash-injection harness asserts.

use crate::types::{Edge, Graph, VertexId};

/// One edge-level mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the directed edge `src -> dst` with the given weight seed.
    /// Endpoints may name vertices beyond the current vertex count; the
    /// batch then grows the vertex set (isolated ids in between included).
    Insert {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Raw weight seed.
        weight: u32,
    },
    /// Delete every parallel copy of the directed edge `src -> dst`.
    Delete {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
}

/// Why a batch was rejected (nothing was applied).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// The batch contains no operations.
    EmptyBatch,
    /// A delete names an edge that does not exist at its point in the
    /// batch (deletes are checked against the graph plus the batch's own
    /// earlier inserts/deletes).
    MissingEdge {
        /// Index of the offending operation within the batch.
        index: usize,
        /// Source vertex of the missing edge.
        src: VertexId,
        /// Destination vertex of the missing edge.
        dst: VertexId,
    },
    /// Applying the batch would push the edge list past the 32-bit
    /// [`crate::EdgeId`] space.
    TooManyEdges {
        /// Edge count the batch would produce.
        count: u64,
    },
    /// An insert names vertex id [`VertexId::MAX`]: no 32-bit count holds it.
    VertexIdTooLarge {
        /// Index of the offending operation within the batch.
        index: usize,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::EmptyBatch => write!(f, "empty mutation batch"),
            MutationError::MissingEdge { index, src, dst } => {
                write!(f, "op #{index}: delete of missing edge {src} -> {dst}")
            }
            MutationError::TooManyEdges { count } => {
                write!(
                    f,
                    "batch would grow the graph to {count} edges, past the 32-bit edge-id space"
                )
            }
            MutationError::VertexIdTooLarge { index } => {
                write!(f, "op #{index}: vertex id 4294967295 has no 32-bit count")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// What applying a batch changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationDelta {
    /// Edges inserted.
    pub inserted: u32,
    /// Edge copies removed (a delete removes every parallel copy).
    pub deleted: u32,
    /// Vertices the graph grew by (0 when no insert named a new id).
    pub grew_vertices: u32,
}

/// An ordered, all-or-nothing set of edge mutations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MutationBatch {
    /// The operations, applied in order.
    pub ops: Vec<Mutation>,
}

impl MutationBatch {
    /// An empty batch (invalid to apply until ops are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an insert.
    pub fn insert(mut self, src: VertexId, dst: VertexId, weight: u32) -> Self {
        self.ops.push(Mutation::Insert { src, dst, weight });
        self
    }

    /// Appends a delete.
    pub fn delete(mut self, src: VertexId, dst: VertexId) -> Self {
        self.ops.push(Mutation::Delete { src, dst });
        self
    }

    /// Checks the whole batch against `graph` without touching it.
    ///
    /// Deletes are resolved in batch order against the graph *plus* the
    /// batch's earlier operations, so `insert a->b; delete a->b` is valid
    /// and `delete x->y; delete x->y` is not (the first delete removes
    /// every parallel copy). The graph's multiplicity of every pair the
    /// batch touches is counted in one scan of its edges.
    pub fn validate(&self, graph: &Graph) -> Result<Validated<'_>, MutationError> {
        if self.ops.is_empty() {
            return Err(MutationError::EmptyBatch);
        }
        let pair = |op: &Mutation| match *op {
            Mutation::Insert { src, dst, .. } | Mutation::Delete { src, dst } => (src, dst),
        };
        let mut pairs: Vec<(u32, u32)> = self.ops.iter().map(pair).collect();
        pairs.sort_unstable();
        pairs.dedup();
        // Net multiplicity of each touched pair, seeded from the graph.
        let mut touched = vec![0i64; pairs.len()];
        for e in graph.edges() {
            if let Ok(at) = pairs.binary_search(&(e.src, e.dst)) {
                touched[at] += 1;
            }
        }
        let (mut edge_count, mut inserted) = (graph.num_edges() as i64, 0u32);
        let mut max_vertex = graph.num_vertices() as i64 - 1;
        for (index, op) in self.ops.iter().enumerate() {
            let m = &mut touched[pairs.binary_search(&pair(op)).expect("a batch pair")];
            match *op {
                Mutation::Insert { src, dst, .. } => {
                    if src.max(dst) == VertexId::MAX {
                        return Err(MutationError::VertexIdTooLarge { index });
                    }
                    *m += 1;
                    (edge_count, inserted) = (edge_count + 1, inserted + 1);
                    max_vertex = max_vertex.max(src as i64).max(dst as i64);
                }
                Mutation::Delete { src, dst } => {
                    if *m <= 0 {
                        return Err(MutationError::MissingEdge { index, src, dst });
                    }
                    edge_count -= *m;
                    *m = 0;
                }
            }
        }
        if edge_count > crate::EdgeId::MAX as i64 {
            return Err(MutationError::TooManyEdges {
                count: edge_count as u64,
            });
        }
        let grew = (max_vertex + 1 - graph.num_vertices() as i64).max(0) as u32;
        // Every copy a delete removed, the batch's own inserts among them.
        let deleted = (graph.num_edges() as i64 + i64::from(inserted) - edge_count) as u32;
        let delta = MutationDelta {
            inserted,
            deleted,
            grew_vertices: grew,
        };
        let shape = (graph.num_vertices(), graph.num_edges());
        Ok(Validated {
            batch: self,
            delta,
            shape,
        })
    }

    /// Validates, then applies the batch to `graph` in order, returning
    /// the realized delta. On `Err` the graph is untouched.
    pub fn apply(&self, graph: &mut Graph) -> Result<MutationDelta, MutationError> {
        Ok(self.validate(graph)?.apply(graph))
    }
}

/// A batch [`MutationBatch::validate`] accepted against a graph, with the
/// delta it predicts. [`Validated::apply`] applies it to that graph without
/// scanning the edges again: a commit validates once, before its log write.
#[derive(Debug, PartialEq, Eq)]
pub struct Validated<'b> {
    batch: &'b MutationBatch,
    /// What the batch will change: exactly what [`Validated::apply`] returns.
    pub delta: MutationDelta,
    /// `(vertices, edges)` of the graph it was validated against.
    shape: (u32, u32),
}

impl Validated<'_> {
    /// Applies the batch to the graph it was validated against, in order,
    /// returning the realized delta.
    ///
    /// # Panics
    /// Panics if `graph` is not the shape it was validated at.
    pub fn apply(self, graph: &mut Graph) -> MutationDelta {
        let shape = (graph.num_vertices(), graph.num_edges());
        assert_eq!(
            shape, self.shape,
            "a batch applies to the graph it was validated against"
        );
        let (mut n, mut edges) = std::mem::take(graph).into_parts();
        let mut delta = MutationDelta::default();
        for op in &self.batch.ops {
            match *op {
                Mutation::Insert { src, dst, weight } => {
                    let needed = src.max(dst) + 1;
                    if needed > n {
                        delta.grew_vertices += needed - n;
                        n = needed;
                    }
                    edges.push(Edge::new(src, dst, weight));
                    delta.inserted += 1;
                }
                Mutation::Delete { src, dst } => {
                    let before = edges.len();
                    edges.retain(|e| !(e.src == src && e.dst == dst));
                    delta.deleted += (before - edges.len()) as u32;
                }
            }
        }
        *graph = Graph::from_checked_parts(n, edges); // validated: ids < n, |E| fits
        delta
    }
}

/// Not the FNV prime `0x100_0000_01b3` (one digit longer), and deliberate by
/// now: it is odd, and [`fingerprint`]'s value is the `graph_rev` existing
/// WALs are checked against on recovery.
const REV_MULTIPLIER: u64 = 0x1000_0000_01b3;

/// Structural FNV-1a fingerprint of a graph: vertex count plus every edge
/// (endpoints and weight) in list order. This is the `graph_rev` the
/// result cache keys on — a pure function of content, so replaying a WAL's
/// committed prefix after a crash lands on exactly the revision a
/// never-crashed service would report.
pub fn fingerprint(graph: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(REV_MULTIPLIER);
    };
    fold(graph.num_vertices() as u64);
    for e in graph.edges() {
        fold((e.src as u64) << 32 | e.dst as u64);
        fold(e.weight as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> Graph {
        Graph::new(
            4,
            vec![Edge::new(0, 1, 5), Edge::new(1, 2, 3), Edge::new(0, 1, 7)],
        )
    }

    /// `graph_rev` is compared across process lifetimes (WAL recovery), so
    /// the digest — computed before the multiplier got its name — is pinned.
    #[test]
    fn fingerprint_is_pinned() {
        let g = Graph::new(
            4,
            vec![Edge::new(0, 1, 5), Edge::new(1, 2, 7), Edge::new(3, 0, 9)],
        );
        assert_eq!(fingerprint(&g), 0x2e31_f35f_ce4b_9b9d);
    }

    #[test]
    fn insert_appends_and_grows() {
        let mut g = sample();
        let d = MutationBatch::new()
            .insert(2, 3, 9)
            .insert(5, 0, 1)
            .apply(&mut g)
            .unwrap();
        assert_eq!(d.inserted, 2);
        assert_eq!(d.grew_vertices, 2); // ids 4 and 5
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 5);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn delete_removes_all_parallel_copies() {
        let mut g = sample();
        let d = MutationBatch::new().delete(0, 1).apply(&mut g).unwrap();
        assert_eq!(d.deleted, 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge(0), Edge::new(1, 2, 3));
    }

    #[test]
    fn missing_delete_rejects_whole_batch() {
        let mut g = sample();
        let before = g.clone();
        let err = MutationBatch::new()
            .insert(3, 3, 1)
            .delete(2, 0)
            .apply(&mut g)
            .unwrap_err();
        assert!(matches!(err, MutationError::MissingEdge { index: 1, .. }));
        assert_eq!(g, before, "failed batch must leave the graph untouched");
    }

    #[test]
    fn delete_sees_earlier_batch_inserts() {
        let mut g = sample();
        MutationBatch::new()
            .insert(2, 0, 4)
            .delete(2, 0)
            .apply(&mut g)
            .unwrap();
        assert_eq!(g.num_edges(), 3);
        // But a second delete of the same pair has nothing left to remove.
        let err = MutationBatch::new()
            .delete(0, 1)
            .delete(0, 1)
            .validate(&g)
            .unwrap_err();
        assert!(matches!(err, MutationError::MissingEdge { index: 1, .. }));
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert_eq!(
            MutationBatch::new().validate(&sample()),
            Err(MutationError::EmptyBatch)
        );
    }

    #[test]
    fn fingerprint_tracks_content_not_history() {
        let mut a = sample();
        MutationBatch::new().insert(3, 0, 2).apply(&mut a).unwrap();
        // From-scratch graph with the same final content.
        let b = Graph::new(
            4,
            vec![
                Edge::new(0, 1, 5),
                Edge::new(1, 2, 3),
                Edge::new(0, 1, 7),
                Edge::new(3, 0, 2),
            ],
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&sample()));
        // Weight changes alone change the revision.
        let c = Graph::new(4, vec![Edge::new(0, 1, 6)]);
        let d = Graph::new(4, vec![Edge::new(0, 1, 5)]);
        assert_ne!(fingerprint(&c), fingerprint(&d));
    }

    /// Vertex id `u32::MAX` leaves no 32-bit vertex count: `validate`
    /// refuses the insert, and `apply` leaves the graph as it was instead of
    /// panicking on a graph no constructor allows.
    #[test]
    fn largest_vertex_id_is_refused() {
        let mut g = sample();
        let before = g.clone();
        for (index, batch) in [
            (0, MutationBatch::new().insert(u32::MAX, 0, 1)),
            (
                1,
                MutationBatch::new().insert(1, 2, 1).insert(0, u32::MAX, 1),
            ),
        ] {
            let want = format!("op #{index}: vertex id 4294967295 has no 32-bit count");
            let err = batch.validate(&g).expect_err("validate refuses the id");
            assert_eq!(err.to_string(), want);
            let err = batch.apply(&mut g).expect_err("apply refuses the id");
            assert_eq!(err.to_string(), want);
            assert_eq!(g, before, "a refused batch leaves the graph untouched");
        }
        // The largest id that fits grows the graph to the whole id space.
        let d = MutationBatch::new().insert(0, u32::MAX - 1, 1);
        assert_eq!(d.apply(&mut g).unwrap().grew_vertices, u32::MAX - 4);
        assert_eq!(g.num_vertices(), u32::MAX);
    }

    /// An id drawn from a few small ones and the two largest.
    fn id(pick: u32) -> VertexId {
        [0, 1, 2, 3, u32::MAX - 1, u32::MAX][pick as usize]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// No batch `validate` accepts makes `apply` fail, and what `apply`
        /// builds is a valid graph; a refused batch changes nothing.
        #[test]
        fn validated_batches_apply(ops in vec((0u32..2, 0u32..6, 0u32..6), 0..6)) {
            let batch = ops.iter().fold(MutationBatch::new(), |b, &(tag, s, d)| match tag {
                0 => b.insert(id(s), id(d), 1),
                _ => b.delete(id(s), id(d)),
            });
            let mut g = sample();
            let before = g.clone();
            match batch.validate(&g).map(|v| v.delta) {
                Ok(predicted) => {
                    // What validation predicts is what applying realizes.
                    prop_assert_eq!(batch.apply(&mut g), Ok(predicted));
                    prop_assert_eq!(g.validate(), Ok(()));
                }
                Err(_) => {
                    prop_assert!(batch.apply(&mut g).is_err());
                    prop_assert_eq!(&g, &before);
                }
            }
        }
    }
}
