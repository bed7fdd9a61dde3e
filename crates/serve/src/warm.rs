//! One graph revision and the warm state prepared from it, and the one place
//! the service branches on its engine family. An [`Epoch`] owns its graph,
//! that graph's revision and what was prepared from it: it builds the state
//! a launch runs on ([`Epoch::ensure`]), hands it back with the graph it was
//! built from ([`Ready`]), and changes its graph only while handing the old
//! state over ([`Epoch::apply`]) — so no prepared state ever meets another
//! revision's graph. Either family files a piece of prepared state under a
//! `u32` key, so the rebuild window can remember "what was warm" without
//! knowing the family.

use crate::service::{ServeConfig, ServeEngine};
use cusha_core::memsize::{check_fits, ValueSizes};
use cusha_core::{
    try_run_warm, CuShaConfig, CuShaOutput, EngineError, PreparedLayout, RunObserver, VertexProgram,
};
use cusha_frontier::{try_run_frontier_warm, FrontierConfig, PreparedFrontier};
use cusha_graph::{fingerprint, Graph, MutationBatch, MutationDelta, MutationError};
use cusha_simt::FaultPlan;
use std::collections::HashMap;

/// The engine configuration every launch runs under, derived from the
/// [`ServeConfig`] once, by `Service::new`.
pub(crate) enum EngineConfig {
    /// CuSha shard engine: layouts by shard size (the autotuner picks one
    /// per vertex-value width).
    Shard(CuShaConfig),
    /// Frontier engine: one topology (key 0) shared by every program.
    Frontier(FrontierConfig),
}

impl EngineConfig {
    /// Derives the family's configuration. Rejects one the engines would
    /// refuse at the first launch.
    pub(crate) fn new(cfg: &ServeConfig) -> Result<Self, String> {
        let mut c = CuShaConfig::new(cfg.repr);
        c.vertices_per_shard = cfg.vertices_per_shard;
        c.max_iterations = cfg.max_iterations;
        c.device = cfg.device.clone();
        c.watchdog_interval = cfg.watchdog_interval;
        c.integrity = cfg.integrity;
        c.trace = cfg.trace.clone();
        c.validate()?;
        Ok(match cfg.engine {
            ServeEngine::Shard => EngineConfig::Shard(c),
            ServeEngine::Frontier => EngineConfig::Frontier(FrontierConfig::from_cusha(&c)),
        })
    }

    /// The key a graph of `v` vertices and `e` edges files its prepared state
    /// under at value sizes `s`, unless this family's representation of it
    /// cannot fit the device ([`check_fits`]): asked before a launch prepares
    /// state, and before a mutation commits to growing the graph.
    pub(crate) fn admit(&self, v: u64, e: u64, s: ValueSizes) -> Result<u32, EngineError<()>> {
        let (shards, device) = match self {
            EngineConfig::Shard(cfg) => {
                (Some((cfg.repr, cfg.n_per_for(v, e, s.vertex))), &cfg.device)
            }
            EngineConfig::Frontier(cfg) => (None, &cfg.device),
        };
        check_fits(v, e, s, shards, device)?;
        Ok(shards.map_or(0, |(_, n_per)| n_per))
    }
}

/// What was prepared from one graph: nothing at first, built on demand.
#[derive(Default)]
pub(crate) struct Warm {
    layouts: HashMap<u32, PreparedLayout>,
    topology: Option<PreparedFrontier>,
}

/// An epoch's prepared state for one launch, with the graph it was built
/// from and the configuration it runs under: what [`Epoch::ensure`] returns.
pub(crate) enum Ready<'a> {
    /// The graph, a layout built from it, the shard engine's configuration.
    Shard(&'a Graph, &'a PreparedLayout, &'a CuShaConfig),
    /// The graph, its topology, the frontier engine's configuration.
    Frontier(&'a Graph, &'a PreparedFrontier, &'a FrontierConfig),
}

impl Ready<'_> {
    /// One engine run of `prog`. The caller's `plan` is installed for the
    /// run and its advanced state written back on every exit path.
    pub(crate) fn run<P: VertexProgram, O: RunObserver>(
        &self,
        prog: &P,
        plan: Option<&mut FaultPlan>,
        observer: &mut O,
    ) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
        match *self {
            Ready::Shard(graph, layout, cfg) => {
                try_run_warm(prog, graph, layout, cfg, plan, observer)
            }
            Ready::Frontier(graph, pf, cfg) => {
                try_run_frontier_warm(prog, graph, pf, cfg, plan, observer)
            }
        }
    }
}

/// One graph revision and everything prepared from it. The graph changes
/// only through [`Epoch::apply`], which hands over what was prepared from
/// it in the same step: prepared state answers only for the graph it was
/// built from, and the revision is what cache keys pin.
pub(crate) struct Epoch {
    graph: Graph,
    rev: u64,
    warm: Warm,
}

impl Epoch {
    /// `graph` at its revision, nothing prepared yet.
    pub(crate) fn new(graph: Graph) -> Self {
        let (rev, warm) = (fingerprint(&graph), Warm::default());
        Epoch { graph, rev, warm }
    }

    /// The graph this epoch serves.
    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The graph's structural fingerprint.
    pub(crate) fn rev(&self) -> u64 {
        self.rev
    }

    /// Every key with prepared state.
    pub(crate) fn warm_keys(&self) -> impl Iterator<Item = u32> + '_ {
        let topology = self.warm.topology.iter().map(|_| 0);
        self.warm.layouts.keys().copied().chain(topology)
    }

    /// The prepared state under `key`, built from this epoch's graph if
    /// there was none, and whether it was warm already.
    pub(crate) fn ensure<'a>(
        &'a mut self,
        engine: &'a EngineConfig,
        key: u32,
    ) -> (Ready<'a>, bool) {
        let (graph, warm) = (&self.graph, &mut self.warm);
        match engine {
            EngineConfig::Shard(cfg) => {
                let was_warm = warm.layouts.contains_key(&key);
                let build = || PreparedLayout::build(graph, cfg.repr, key);
                let layout = warm.layouts.entry(key).or_insert_with(build);
                (Ready::Shard(graph, layout, cfg), was_warm)
            }
            EngineConfig::Frontier(cfg) => {
                let was_warm = warm.topology.is_some();
                let build = || PreparedFrontier::build(graph);
                let topology = warm.topology.get_or_insert_with(build);
                (Ready::Frontier(graph, topology, cfg), was_warm)
            }
        }
    }

    /// Drops everything prepared (a scrub): it is rebuilt on demand.
    pub(crate) fn scrub(&mut self) {
        self.warm = Warm::default();
    }

    /// Applies `batch` to the graph and re-fingerprints it, handing over what
    /// was prepared from the superseded revision: as an epoch of its own (a
    /// copy of the old graph, its revision and state) when `keep` asks for
    /// one to go on serving, dropped otherwise. A refused batch changes
    /// nothing.
    pub(crate) fn apply(
        &mut self,
        batch: &MutationBatch,
        keep: bool,
    ) -> Result<(MutationDelta, Option<Epoch>), MutationError> {
        let graph = keep.then(|| self.graph.clone());
        let delta = batch.apply(&mut self.graph)?;
        let rev = std::mem::replace(&mut self.rev, fingerprint(&self.graph));
        let warm = std::mem::take(&mut self.warm);
        Ok((delta, graph.map(|graph| Epoch { graph, rev, warm })))
    }
}
