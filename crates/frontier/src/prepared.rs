//! What a graph prepares, and the one store that owns it.
//!
//! The frontier engine needs both traversal directions of the same graph:
//! out-edges for **push** iterations (expand the compacted frontier) and
//! in-edges for **pull** iterations (every vertex folds its full in-edge
//! list). [`PreparedFrontier`] holds both as CSR — the in-edge side reuses
//! [`cusha_graph::Csr`], the out-edge side is built here by the same stable
//! counting sort. [`Prepared`] keys, builds, shares and releases everything
//! prepared from one graph, for `cusha serve`'s epochs and the experiment
//! matrix's datasets alike.

use cusha_core::memsize::{check_fits, ValueSizes};
use cusha_core::{CuShaConfig, EngineError, PreparedLayout, Repr};
use cusha_graph::{Csr, EdgeId, Graph, VertexId};
use cusha_simt::DeviceConfig;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// What one graph prepares, by key: whoever names a key shares its build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// The G-Shards sort (and the CW mapper) at this `|N|`: the shard engines.
    Shards(u32),
    /// The in-edge CSR: VWC and MTCPU.
    Csr,
    /// The out-adjacency around the in-edge CSR: the frontier engine.
    Frontier,
}

/// The handle in `slot`, built there if it is empty, and whether it was.
fn ask<T>(slot: &mut Option<Arc<T>>, build: impl FnOnce() -> T) -> (Arc<T>, bool) {
    let built = slot.is_none();
    let held = slot.get_or_insert_with(|| Arc::new(build()));
    (Arc::clone(held), built)
}

fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().expect("a build that panicked took the store")
}

/// The state prepared from one graph, by [`Family`]. The first asker of a key
/// builds it under its slot's lock (one each for the shard layouts, the CSR
/// and the frontier topology) while other askers of that slot wait; every
/// asker leaves with a counted handle, so a released key's state goes when
/// its last handle does. The store does not hold its graph: each ask passes
/// the one it was made for, and whoever changes that graph drops the store
/// too.
#[derive(Default)]
pub struct Prepared {
    shards: Mutex<BTreeMap<u32, Arc<PreparedLayout>>>,
    csr: Mutex<Option<Arc<Csr>>>,
    frontier: Mutex<Option<Arc<PreparedFrontier>>>,
}

impl Prepared {
    /// The pre-flight: the key a graph of `v` vertices and `e` edges files
    /// its state under for a program moving values of sizes `s` — the shard
    /// size `shards`' configuration picks, or the frontier topology when it
    /// names none — unless that representation cannot fit `device`
    /// ([`check_fits`]'s typed refusal).
    pub fn preflight<V>(
        v: u64,
        e: u64,
        s: ValueSizes,
        shards: Option<&CuShaConfig>,
        device: &DeviceConfig,
    ) -> Result<Family, EngineError<V>> {
        let shards = shards.map(|cfg| (cfg.repr, cfg.n_per_for(v, e, s.vertex)));
        check_fits(v, e, s, shards, device)?;
        Ok(shards.map_or(Family::Frontier, |(_, n_per)| Family::Shards(n_per)))
    }

    /// The shard layout of `g` at `n_per` for `repr`, and whether this call
    /// built it. Every asker of one `n_per` names the same `repr`: a handle
    /// is for the representation it was built in.
    pub fn shards(&self, g: &Graph, repr: Repr, n_per: u32) -> (Arc<PreparedLayout>, bool) {
        let mut held = lock(&self.shards);
        let built = !held.contains_key(&n_per);
        let layout = held
            .entry(n_per)
            .or_insert_with(|| Arc::new(PreparedLayout::build(g, repr, n_per)));
        debug_assert_eq!(layout.repr(), repr, "asked under another repr");
        (Arc::clone(layout), built)
    }

    /// The in-edge CSR of `g`, and whether this call built it.
    pub fn csr(&self, g: &Graph) -> (Arc<Csr>, bool) {
        ask(&mut lock(&self.csr), || Csr::from_graph(g))
    }

    /// The frontier topology of `g`, and whether this call built it: built
    /// around the held CSR while there is one (after a CSR build in
    /// progress); it is not put there for this family, where it would
    /// outlive a release of [`Family::Csr`].
    pub fn frontier(&self, g: &Graph) -> (Arc<PreparedFrontier>, bool) {
        ask(&mut lock(&self.frontier), || {
            let csr = lock(&self.csr).clone();
            match csr {
                Some(csr) => PreparedFrontier::around(g, csr),
                None => PreparedFrontier::build(g),
            }
        })
    }

    /// Every key with state held: shard sizes ascending, `Csr`, `Frontier`.
    pub fn keys(&self) -> Vec<Family> {
        let mut keys = Vec::from_iter(lock(&self.shards).keys().map(|&n| Family::Shards(n)));
        keys.extend(lock(&self.csr).as_ref().map(|_| Family::Csr));
        keys.extend(lock(&self.frontier).as_ref().map(|_| Family::Frontier));
        keys
    }

    /// Lets `key`'s state go: the next ask builds it again.
    pub fn release(&self, key: Family) {
        match key {
            Family::Shards(n_per) => drop(lock(&self.shards).remove(&n_per)),
            Family::Csr => drop(lock(&self.csr).take()),
            Family::Frontier => drop(lock(&self.frontier).take()),
        }
    }
}

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

    /// The in-edge CSR (pull direction).
    pub fn csr(&self) -> &Csr {
        &self.csr
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
    }

    /// A graph with enough shards at |N| = 64 for the launch records to fill.
    fn power_law() -> Graph {
        use cusha_graph::generators::rmat::{rmat, RmatConfig};
        rmat(&RmatConfig::graph500(9, 3000, 7))
    }

    #[test]
    fn askers_of_one_key_share_one_build() {
        let (g, store) = (power_law(), Prepared::default());
        let asks: Vec<(Arc<PreparedLayout>, bool)> = std::thread::scope(|scope| {
            let ask = || store.shards(&g, Repr::ConcatWindows, 64);
            let (a, b) = (scope.spawn(ask), scope.spawn(ask));
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        assert!(Arc::ptr_eq(&asks[0].0, &asks[1].0), "one build");
        assert_eq!(asks.iter().filter(|(_, built)| *built).count(), 1);
        assert_eq!(store.keys(), [Family::Shards(64)]);
        let (again, built) = store.shards(&g, Repr::ConcatWindows, 64);
        assert!(Arc::ptr_eq(&again, &asks[0].0) && !built);
    }

    #[test]
    fn a_released_key_is_built_again() {
        let (g, store) = (power_law(), Prepared::default());
        let (first, built) = store.csr(&g);
        assert!(built);
        store.release(Family::Csr);
        assert!(store.keys().is_empty());
        let (second, built) = store.csr(&g);
        assert!(built && !Arc::ptr_eq(&first, &second));
        assert_eq!(first.src_indxs(), second.src_indxs());
    }

    #[test]
    fn a_frontier_shares_the_held_csr_and_outlives_its_release() {
        use crate::{try_run_frontier_warm, FrontierConfig};
        use cusha_algos::Bfs;
        use cusha_core::NoopObserver;
        let (g, store) = (power_law(), Prepared::default());
        let (csr, _) = store.csr(&g);
        let (pf, built) = store.frontier(&g);
        assert!(built && std::ptr::eq(pf.csr(), &*csr));
        drop(csr);
        store.release(Family::Csr);
        assert_eq!(store.keys(), [Family::Frontier]);
        let cfg = FrontierConfig::new();
        let run = try_run_frontier_warm(&Bfs::new(0), &g, &pf, &cfg, None, &mut NoopObserver);
        let cold = crate::run_frontier(&Bfs::new(0), &g, &cfg);
        assert_eq!(run.unwrap().values, cold.values);
        // Without a CSR held, the frontier family builds its own.
        let fresh = Prepared::default();
        let (own, _) = fresh.frontier(&g);
        assert_eq!(fresh.keys(), [Family::Frontier]);
        assert_eq!(own.csr().src_indxs(), pf.csr().src_indxs());
    }

    #[test]
    fn the_held_layout_stays_warm_and_a_view_starts_cold() {
        use cusha_algos::Bfs;
        use cusha_core::{try_run_warm, NoopObserver};
        let (g, store) = (power_law(), Prepared::default());
        let cfg = CuShaConfig::cw();
        let run = |layout: &PreparedLayout| {
            let out = try_run_warm(&Bfs::new(0), &g, layout, &cfg, None, &mut NoopObserver);
            out.unwrap().stats.memo
        };
        let (layout, _) = store.shards(&g, Repr::ConcatWindows, 64);
        let first = run(&layout);
        assert!(first.replay_misses > 0, "{first:?}");
        let (again, built) = store.shards(&g, Repr::ConcatWindows, 64);
        assert!(!built);
        assert_eq!(run(&again).replay_misses, 0, "the store's handle is warm");
        let cold = run(&again.view(Repr::ConcatWindows));
        assert_eq!(
            cold.replay_misses, first.replay_misses,
            "a view is a fresh build"
        );
    }

    #[test]
    fn preflight_keys_by_family_or_refuses() {
        let (cfg, s) = (
            CuShaConfig::cw(),
            ValueSizes {
                vertex: 4,
                edge: 0,
                static_vertex: 0,
            },
        );
        let key = Prepared::preflight::<()>(1000, 8000, s, Some(&cfg), &cfg.device);
        assert_eq!(key.unwrap(), Family::Shards(cfg.n_per_for(1000, 8000, 4)));
        let key = Prepared::preflight::<()>(1000, 8000, s, None, &cfg.device);
        assert_eq!(key.unwrap(), Family::Frontier);
        let huge = Prepared::preflight::<()>(1 << 40, 1 << 40, s, None, &cfg.device);
        assert!(
            matches!(huge, Err(EngineError::DeviceOom { .. })),
            "{huge:?}"
        );
    }
}
