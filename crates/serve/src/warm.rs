//! One graph revision and the store of what was prepared from it, and the
//! one place the service branches on its engine family. An [`Epoch`] owns
//! its graph, that graph's revision and a [`Prepared`] store of what was
//! prepared from it: the store builds what a launch asks for ([`Epoch::ready`]
//! hands it back with the graph it was built from), and the graph changes
//! only while the store is handed over ([`Epoch::apply`]) — so no prepared
//! state ever meets another revision's graph. The store's keys ([`Family`])
//! are what the rebuild window remembers as "what was warm".

use crate::service::{ServeConfig, ServeEngine};
use cusha_core::memsize::ValueSizes;
use cusha_core::{
    try_run_warm, CuShaConfig, CuShaOutput, EngineError, PreparedLayout, RunObserver, VertexProgram,
};
use cusha_frontier::{try_run_frontier_warm, Family, FrontierConfig, Prepared, PreparedFrontier};
use cusha_graph::{fingerprint, Graph, MutationBatch, MutationDelta, MutationError};
use cusha_simt::FaultPlan;
use std::sync::Arc;

/// The engine configuration every launch runs under, derived from the
/// [`ServeConfig`] once, by `Service::new`.
pub(crate) enum EngineConfig {
    /// CuSha shard engine: layouts by shard size (the autotuner picks one
    /// per vertex-value width).
    Shard(CuShaConfig),
    /// Frontier engine: one topology shared by every program.
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
    /// under at value sizes `s`, or the refusal of one this family's
    /// representation cannot fit ([`Prepared::preflight`]): asked before a
    /// launch prepares state, and before a mutation commits to growing the
    /// graph.
    pub(crate) fn admit(&self, v: u64, e: u64, s: ValueSizes) -> Result<Family, EngineError<()>> {
        match self {
            EngineConfig::Shard(cfg) => Prepared::preflight(v, e, s, Some(cfg), &cfg.device),
            EngineConfig::Frontier(cfg) => Prepared::preflight(v, e, s, None, &cfg.device),
        }
    }
}

/// An epoch's prepared state for one launch, with the graph it was built
/// from and the configuration it runs under: what [`Epoch::ready`] returns.
pub(crate) enum Ready<'a> {
    /// The graph, a layout built from it, the shard engine's configuration.
    Shard(&'a Graph, Arc<PreparedLayout>, &'a CuShaConfig),
    /// The graph, its topology, the frontier engine's configuration.
    Frontier(&'a Graph, Arc<PreparedFrontier>, &'a FrontierConfig),
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
        match self {
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
/// only through [`Epoch::apply`], which hands over the store of what was
/// prepared from it in the same step: prepared state answers only for the
/// graph it was built from, and the revision is what cache keys pin.
pub(crate) struct Epoch {
    graph: Graph,
    rev: u64,
    prepared: Prepared,
}

impl Epoch {
    /// `graph` at its revision, nothing prepared yet.
    pub(crate) fn new(graph: Graph) -> Self {
        let (rev, prepared) = (fingerprint(&graph), Prepared::default());
        Epoch {
            graph,
            rev,
            prepared,
        }
    }

    /// The graph this epoch serves.
    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The graph's structural fingerprint.
    pub(crate) fn rev(&self) -> u64 {
        self.rev
    }

    /// The store of what was prepared from the graph.
    pub(crate) fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    /// The prepared state under `key` (one `engine.admit` gave), asked of
    /// this epoch's store with this epoch's graph, and whether this call
    /// built it.
    pub(crate) fn ready<'a>(&'a self, engine: &'a EngineConfig, key: Family) -> (Ready<'a>, bool) {
        let (graph, prepared) = (&self.graph, &self.prepared);
        match engine {
            EngineConfig::Shard(cfg) => {
                let Family::Shards(n_per) = key else {
                    unreachable!("the shard engine's pre-flight keys shard layouts")
                };
                let (layout, built) = prepared.shards(graph, cfg.repr, n_per);
                (Ready::Shard(graph, layout, cfg), built)
            }
            EngineConfig::Frontier(cfg) => {
                let (topology, built) = prepared.frontier(graph);
                (Ready::Frontier(graph, topology, cfg), built)
            }
        }
    }

    /// Drops everything prepared (a scrub): it is rebuilt on demand.
    pub(crate) fn scrub(&self) {
        self.prepared
            .keys()
            .into_iter()
            .for_each(|key| self.prepared.release(key));
    }

    /// Applies `batch` to the graph and re-fingerprints it, handing over the
    /// store of what was prepared from the superseded revision: as an epoch
    /// of its own (a copy of the old graph, its revision and store) when
    /// `keep` asks for one to go on serving, dropped otherwise. A refused
    /// batch changes nothing.
    pub(crate) fn apply(
        &mut self,
        batch: &MutationBatch,
        keep: bool,
    ) -> Result<(MutationDelta, Option<Epoch>), MutationError> {
        let graph = keep.then(|| self.graph.clone());
        let delta = batch.apply(&mut self.graph)?;
        let rev = std::mem::replace(&mut self.rev, fingerprint(&self.graph));
        let prepared = std::mem::take(&mut self.prepared);
        let superseded = graph.map(|graph| Epoch {
            graph,
            rev,
            prepared,
        });
        Ok((delta, superseded))
    }
}
