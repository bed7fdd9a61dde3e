//! The warm prepared state of one graph revision, and the one place the
//! service branches on its engine family: is there prepared state for this
//! program, build it, run on it, drop it, which of it is warm. Either
//! family files a piece of prepared state under a `u32` key, so the rebuild
//! window can remember "what was warm" without knowing the family.

use crate::service::{ServeConfig, ServeEngine};
use cusha_core::memsize::{check_fits, ValueSizes};
use cusha_core::{
    try_run_warm, CuShaConfig, CuShaOutput, EngineError, PreparedLayout, RunObserver, VertexProgram,
};
use cusha_frontier::{try_run_frontier_warm, FrontierConfig, PreparedFrontier};
use cusha_graph::Graph;
use cusha_simt::FaultPlan;
use std::collections::HashMap;

/// What one engine run returns, whichever family ran it.
pub(crate) type RunResult<V> = Result<CuShaOutput<V>, EngineError<V>>;

/// Warm engine state plus the engine configuration every launch runs under
/// (derived from the [`ServeConfig`] once, not per launch).
pub(crate) enum Warm {
    /// CuSha shard engine: layouts by shard size (the autotuner picks one
    /// per vertex-value width), each stamped with its graph's revision.
    Shard {
        cfg: CuShaConfig,
        layouts: HashMap<u32, PreparedLayout>,
    },
    /// Frontier engine: one topology (key 0) shared by every program.
    Frontier {
        cfg: FrontierConfig,
        topology: Option<PreparedFrontier>,
    },
}

impl Warm {
    /// Nothing warm yet. Rejects a configuration the engines would refuse
    /// at the first launch.
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
            ServeEngine::Shard => Warm::Shard {
                cfg: c,
                layouts: HashMap::new(),
            },
            ServeEngine::Frontier => Warm::Frontier {
                cfg: FrontierConfig::from_cusha(&c),
                topology: None,
            },
        })
    }

    /// The key a graph of `v` vertices and `e` edges files its prepared state
    /// under at value sizes `s`, unless this family's representation of it
    /// cannot fit the device ([`check_fits`]): asked before a launch prepares
    /// state, and before a mutation commits to growing the graph.
    pub(crate) fn admit(&self, v: u64, e: u64, s: ValueSizes) -> Result<u32, EngineError<()>> {
        let (shards, device) = match self {
            Warm::Shard { cfg, .. } => {
                let n_per = cfg.n_per_for(v, e, s.vertex);
                (Some((cfg.repr, n_per)), &cfg.device)
            }
            Warm::Frontier { cfg, .. } => (None, &cfg.device),
        };
        check_fits(v, e, s, shards, device)?;
        Ok(shards.map_or(0, |(_, n_per)| n_per))
    }

    /// Every key with prepared state.
    pub(crate) fn keys(&self) -> Vec<u32> {
        match self {
            Warm::Shard { layouts, .. } => layouts.keys().copied().collect(),
            Warm::Frontier { topology, .. } => topology.iter().map(|_| 0).collect(),
        }
    }

    /// Makes sure prepared state exists under `key`, building it from
    /// `graph` at revision `rev` if not; returns whether it was warm already.
    pub(crate) fn ensure(&mut self, key: u32, graph: &Graph, rev: u64) -> bool {
        match self {
            Warm::Shard { cfg, layouts } => {
                let warm = layouts.contains_key(&key);
                layouts.entry(key).or_insert_with(|| {
                    let mut layout = PreparedLayout::build(graph, cfg.repr, key);
                    layout.stamp_rev(rev);
                    layout
                });
                warm
            }
            Warm::Frontier { topology, .. } => {
                let warm = topology.is_some();
                topology.get_or_insert_with(|| PreparedFrontier::build(graph));
                warm
            }
        }
    }

    /// Moves the prepared state out, leaving nothing warm behind (dropping
    /// the result is a scrub: it is rebuilt on demand).
    pub(crate) fn take(&mut self) -> Warm {
        match self {
            Warm::Shard { cfg, layouts } => Warm::Shard {
                cfg: cfg.clone(),
                layouts: std::mem::take(layouts),
            },
            Warm::Frontier { cfg, topology } => Warm::Frontier {
                cfg: cfg.clone(),
                topology: topology.take(),
            },
        }
    }

    /// One engine run of `prog` on the prepared state under `key`. The
    /// caller's `plan` is installed for the run and its advanced state
    /// written back on every exit path. The outer `Err` is an internal bug
    /// — prepared state missing, or stamped for a revision other than the
    /// `rev` being served — reported as its detail text so the service can
    /// fail that one launch typed instead of panicking.
    pub(crate) fn run<P: VertexProgram, O: RunObserver>(
        &self,
        key: u32,
        prog: &P,
        graph: &Graph,
        rev: u64,
        plan: Option<&mut FaultPlan>,
        observer: &mut O,
    ) -> Result<RunResult<P::V>, String> {
        match self {
            Warm::Shard { cfg, layouts } => match layouts.get(&key) {
                Some(layout) if layout.valid_for(rev) => {
                    Ok(try_run_warm(prog, graph, layout, cfg, plan, observer))
                }
                Some(_) => Err(format!(
                    "prepared layout for shard size {key} is stamped for a superseded graph \
                     revision"
                )),
                None => Err(format!(
                    "prepared layout for shard size {key} missing after build"
                )),
            },
            Warm::Frontier { cfg, topology } => match topology {
                Some(pf) => Ok(try_run_frontier_warm(prog, graph, pf, cfg, plan, observer)),
                None => Err("prepared frontier topology missing after build".into()),
            },
        }
    }
}
