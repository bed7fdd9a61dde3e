//! Benchmark and engine enumerations used by every experiment.

use cusha_algos::{
    Bfs, CircuitSimulation, ConnectedComponents, HeatSimulation, NeuralNetwork, PageRank, Sssp,
    Sswp,
};
use cusha_baselines::{
    try_run_mtcpu_warm, try_run_vwc_warm, MtcpuConfig, VwcConfig, VIRTUAL_WARP_SIZES,
};
use cusha_core::memsize::{check_fits, ValueSizes};
use cusha_core::{
    settle, try_run_warm, CuShaConfig, NoopObserver, PreparedLayout, Repr, RunStats, VertexProgram,
};
use cusha_frontier::{try_run_frontier_warm, FrontierConfig, PreparedFrontier};
use cusha_graph::{Csr, Graph, VertexId};
use std::sync::{Arc, Mutex};

/// The eight benchmarks of Table 3, in the paper's column order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Breadth-First Search.
    Bfs,
    /// Single-Source Shortest Path.
    Sssp,
    /// PageRank.
    Pr,
    /// Connected Components.
    Cc,
    /// Single-Source Widest Path.
    Sswp,
    /// Neural Network relaxation.
    Nn,
    /// Heat Simulation.
    Hs,
    /// Circuit Simulation.
    Cs,
}

impl Benchmark {
    /// All eight benchmarks in paper order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Bfs,
        Benchmark::Sssp,
        Benchmark::Pr,
        Benchmark::Cc,
        Benchmark::Sswp,
        Benchmark::Nn,
        Benchmark::Hs,
        Benchmark::Cs,
    ];

    /// Column label as in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bfs => "BFS",
            Benchmark::Sssp => "SSSP",
            Benchmark::Pr => "PR",
            Benchmark::Cc => "CC",
            Benchmark::Sswp => "SSWP",
            Benchmark::Nn => "NN",
            Benchmark::Hs => "HS",
            Benchmark::Cs => "CS",
        }
    }

    /// `sizeof(Vertex)`, `sizeof(Edge)`, `sizeof(StaticVertex)` of this
    /// benchmark (Figure 9's inputs).
    pub fn value_sizes(self) -> ValueSizes {
        match self {
            Benchmark::Bfs | Benchmark::Cc => ValueSizes {
                vertex: 4,
                edge: 0,
                static_vertex: 0,
            },
            Benchmark::Sssp | Benchmark::Sswp => ValueSizes {
                vertex: 4,
                edge: 4,
                static_vertex: 0,
            },
            Benchmark::Pr => ValueSizes {
                vertex: 4,
                edge: 0,
                static_vertex: 4,
            },
            Benchmark::Nn => ValueSizes {
                vertex: 4,
                edge: 4,
                static_vertex: 0,
            },
            Benchmark::Hs | Benchmark::Cs => ValueSizes {
                vertex: 8,
                edge: 4,
                static_vertex: 0,
            },
        }
    }

    /// Runs this benchmark on `engine`, returning only the statistics
    /// (values are validated in the test suites, not the harness): one cell
    /// over topology nobody else will use, [`Benchmark::run_on`] a fresh
    /// [`Prepared`].
    pub fn run(self, g: &Graph, engine: Engine, max_iterations: u32) -> RunStats {
        self.run_on(g, &Prepared::new(g), engine, max_iterations)
    }

    /// [`Benchmark::run`] over the topology `shared` holds for `g` (built
    /// here if this is the first cell to ask): a warm run on a cold replay
    /// table, so the statistics are those of `run`.
    pub fn run_on(
        self,
        g: &Graph,
        shared: &Prepared,
        engine: Engine,
        max_iterations: u32,
    ) -> RunStats {
        let (source, at) = (shared.source, (g, shared, engine, max_iterations));
        match self {
            Benchmark::Bfs => dispatch(&Bfs::new(source), at),
            Benchmark::Sssp => dispatch(&Sssp::new(source), at),
            Benchmark::Pr => dispatch(&PageRank::new(), at),
            Benchmark::Cc => dispatch(&ConnectedComponents::new(), at),
            Benchmark::Sswp => dispatch(&Sswp::new(source), at),
            Benchmark::Nn => dispatch(&NeuralNetwork::new(), at),
            Benchmark::Hs => dispatch(&HeatSimulation::new(), at),
            Benchmark::Cs => {
                let gnd = g.num_vertices().saturating_sub(1);
                dispatch(&CircuitSimulation::new(source, gnd), at)
            }
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An executor configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// CuSha with the G-Shards representation.
    CuShaGs,
    /// CuSha with Concatenated Windows.
    CuShaCw,
    /// Virtual warp-centric CSR with the given virtual warp width.
    Vwc(usize),
    /// Multithreaded CPU CSR with the given thread count.
    Mtcpu(usize),
    /// Frontier engine with push/pull direction switching.
    Frontier,
}

impl Engine {
    /// Report label ("CuSha-CW", "VWC-CSR/8", ...).
    pub fn label(self) -> String {
        match self {
            Engine::CuShaGs => "CuSha-GS".into(),
            Engine::CuShaCw => "CuSha-CW".into(),
            Engine::Vwc(vw) => format!("VWC-CSR/{vw}"),
            Engine::Mtcpu(t) => format!("MTCPU-CSR/{t}"),
            Engine::Frontier => "Frontier".into(),
        }
    }

    /// Whether this engine runs on the simulated GPU (its times are modeled
    /// rather than measured).
    pub fn is_gpu(self) -> bool {
        !matches!(self, Engine::Mtcpu(_))
    }

    /// Parses one `--engines` list element: `gs`, `cw`, `frontier`,
    /// `vwc:<width>` (a width [`run_vwc`] accepts), `mtcpu:<threads>`.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "gs" => Some(Engine::CuShaGs),
            "cw" => Some(Engine::CuShaCw),
            "frontier" => Some(Engine::Frontier),
            _ => {
                let (kind, n) = s.split_once(':')?;
                let n: usize = n.parse().ok()?;
                match (kind, n) {
                    (_, 0) => None,
                    ("vwc", _) if VIRTUAL_WARP_SIZES.contains(&n) => Some(Engine::Vwc(n)),
                    ("mtcpu", _) => Some(Engine::Mtcpu(n)),
                    _ => None,
                }
            }
        }
    }
}

/// The topology a cell runs over: cells of one graph that name the same
/// family share one build of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The G-Shards sort and the CW mapper at this `|N|`: GS and CW cells.
    Shards(u32),
    /// The in-edge CSR: VWC and MTCPU cells.
    Csr,
    /// The out-adjacency around the in-edge CSR: Frontier cells.
    Frontier,
}

impl Family {
    /// The family the cell `(b, e)` of `g` runs over.
    pub fn of(g: &Graph, b: Benchmark, e: Engine) -> Family {
        match e {
            Engine::CuShaGs | Engine::CuShaCw => {
                let vertex = b.value_sizes().vertex;
                Family::Shards(PreparedLayout::select_n_per(g, &CuShaConfig::gs(), vertex))
            }
            Engine::Vwc(_) | Engine::Mtcpu(_) => Family::Csr,
            Engine::Frontier => Family::Frontier,
        }
    }
}

/// Built topology by key: the first caller to ask for a key builds it while
/// the others wait, every caller leaves with a counted handle, and a released
/// key's state goes when the last handle does.
struct Held<K, T>(Mutex<Vec<(K, Arc<T>)>>);

impl<K, T> Default for Held<K, T> {
    fn default() -> Self {
        Held(Mutex::new(Vec::new()))
    }
}

impl<K: Copy + PartialEq, T> Held<K, T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(K, Arc<T>)>> {
        self.0.lock().expect("a build that panicked took the run")
    }

    /// What is held under `key` right now (after any build in progress).
    fn peek(&self, key: K) -> Option<Arc<T>> {
        let held = self.lock();
        held.iter().find(|(k, _)| *k == key).map(|(_, t)| t.clone())
    }

    fn get(&self, key: K, build: impl FnOnce() -> T) -> Arc<T> {
        let mut held = self.lock();
        let at = held.iter().position(|(k, _)| *k == key);
        let at = at.unwrap_or_else(|| {
            held.push((key, Arc::new(build())));
            held.len() - 1
        });
        held[at].1.clone()
    }

    fn release(&self, key: K) {
        self.lock().retain(|(k, _)| *k != key);
    }
}

/// What the cells of one graph have in common: the source vertex, and each
/// topology [`Family`] built on first use. Everything a cell is handed is
/// immutable and every cell runs on a replay table of its own, so a cell's
/// statistics do not depend on which cells ran before it or beside it.
pub struct Prepared {
    source: VertexId,
    /// By `|N|`, built with the mapper: CW cells run on a clone, GS cells on
    /// its G-Shards view.
    shards: Held<u32, PreparedLayout>,
    csr: Held<(), Csr>,
    frontier: Held<(), PreparedFrontier>,
}

impl Prepared {
    /// Scans `g` for its [`default_source`]; builds nothing else yet.
    pub fn new(g: &Graph) -> Self {
        Prepared {
            source: default_source(g),
            shards: Held::default(),
            csr: Held::default(),
            frontier: Held::default(),
        }
    }

    /// Lets `family`'s state go (its last cell has retired); a later cell
    /// that asks for it builds it again.
    pub fn release(&self, family: Family) {
        match family {
            Family::Shards(n_per) => self.shards.release(n_per),
            Family::Csr => self.csr.release(()),
            Family::Frontier => self.frontier.release(()),
        }
    }

    fn csr(&self, g: &Graph) -> Arc<Csr> {
        self.csr.get((), || Csr::from_graph(g))
    }

    /// Around the VWC cells' CSR while they hold one; it is not put there for
    /// them, where it would outlive this family's release.
    fn frontier(&self, g: &Graph) -> Arc<PreparedFrontier> {
        self.frontier.get((), || {
            let csr = self.csr.peek(());
            PreparedFrontier::around(g, csr.unwrap_or_else(|| Arc::new(Csr::from_graph(g))))
        })
    }
}

/// One cell: each engine's warm entry over `shared`'s topology, behind the
/// pre-flight its cold entry runs ([`check_fits`]; VWC's warm entry runs its
/// own, MTCPU has none).
fn dispatch<P: VertexProgram>(
    prog: &P,
    (g, shared, engine, max_iterations): (&Graph, &Prepared, Engine, u32),
) -> RunStats {
    let (v, e, sizes) = (
        g.num_vertices() as u64,
        g.num_edges() as u64,
        ValueSizes::of::<P>(),
    );
    let observer = &mut NoopObserver;
    settle(match engine {
        Engine::CuShaGs | Engine::CuShaCw => {
            let gs = engine == Engine::CuShaGs;
            let repr = if gs {
                Repr::GShards
            } else {
                Repr::ConcatWindows
            };
            let mut cfg = CuShaConfig::new(repr);
            cfg.max_iterations = max_iterations;
            let n_per = PreparedLayout::select_n_per(g, &cfg, sizes.vertex);
            check_fits(v, e, sizes, Some((repr, n_per)), &cfg.device).and_then(|()| {
                let build = || PreparedLayout::build(g, Repr::ConcatWindows, n_per);
                let layout = shared.shards.get(n_per, build).view(repr);
                try_run_warm(prog, g, &layout, &cfg, None, observer)
            })
        }
        Engine::Vwc(vw) => {
            let mut cfg = VwcConfig::new(vw);
            cfg.max_iterations = max_iterations;
            try_run_vwc_warm(prog, g, &shared.csr(g), &cfg, None, observer)
        }
        Engine::Mtcpu(t) => {
            let mut cfg = MtcpuConfig::new(t);
            cfg.max_iterations = max_iterations;
            try_run_mtcpu_warm(prog, g, &shared.csr(g), &cfg, observer)
        }
        Engine::Frontier => {
            let mut cfg = FrontierConfig::new();
            cfg.max_iterations = max_iterations;
            check_fits(v, e, sizes, None, &cfg.device).and_then(|()| {
                try_run_frontier_warm(prog, g, &shared.frontier(g), &cfg, None, observer)
            })
        }
    })
    .stats
}

/// Default traversal source: the vertex with the largest out-degree, so the
/// single-source algorithms reach a substantial part of every surrogate.
/// Among tied hubs it is the one with the *highest* id (`max_by_key` keeps the
/// last maximum) — an accident every committed golden now rests on, pinned by
/// `default_source_breaks_ties_towards_the_last_hub`.
pub fn default_source(g: &Graph) -> VertexId {
    let out = g.out_degrees();
    out.iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .map(|(v, _)| v as u32)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn every_benchmark_runs_on_every_engine_kind() {
        let g = rmat(&RmatConfig::graph500(6, 300, 50));
        for b in Benchmark::ALL {
            for e in [
                Engine::CuShaGs,
                Engine::CuShaCw,
                Engine::Vwc(8),
                Engine::Mtcpu(2),
                Engine::Frontier,
            ] {
                let stats = b.run(&g, e, 2000);
                assert!(stats.iterations > 0, "{b} on {}", e.label());
                assert!(stats.converged, "{b} on {} did not converge", e.label());
            }
        }
    }

    /// Every simulated cell over one `Prepared` against the same cell run
    /// cold. `RunStats` of a simulated engine holds no host time, so its
    /// `Debug` text is every field: modeled seconds to the bit, counters,
    /// per-iteration detail and `memo` — equal replay hits, misses and slots
    /// are what "each cell starts on a cold table" means.
    #[test]
    fn cells_over_one_prepared_match_cold_runs() {
        use cusha_graph::generators::lattice::lattice2d;
        let engines = [
            Engine::CuShaGs,
            Engine::CuShaCw,
            Engine::Vwc(8),
            Engine::Vwc(32),
            Engine::Frontier,
        ];
        // The last graph is sparse enough for the shared-memory quota to
        // clamp |N|: its 8-byte programs (HS, CS) run at half the 4-byte |N|.
        let graphs = [
            (rmat(&RmatConfig::graph500(8, 3000, 52)), 1),
            (lattice2d(20, 20, 0.9, 6, 53), 1),
            (rmat(&RmatConfig::graph500(14, 150, 54)), 2),
        ];
        for (g, shard_families) in &graphs {
            let shared = Prepared::new(g);
            let mut planned = Vec::new();
            for b in Benchmark::ALL {
                for e in engines {
                    let warm = b.run_on(g, &shared, e, 150);
                    let cold = b.run(g, e, 150);
                    assert_eq!(
                        format!("{warm:?}"),
                        format!("{cold:?}"),
                        "{b} on {}",
                        e.label()
                    );
                    if let Family::Shards(n_per) = Family::of(g, b, e) {
                        planned.push(n_per);
                    }
                }
            }
            // The sorts held are the ones `Family::of` plans releases by:
            // one per |N|, whatever the benchmark or representation.
            let mut held: Vec<u32> = shared.shards.lock().iter().map(|(n, _)| *n).collect();
            held.sort_unstable();
            planned.sort_unstable();
            planned.dedup();
            assert_eq!(held, planned);
            assert_eq!(held.len(), *shard_families);
        }
    }

    #[test]
    fn a_cell_builds_its_family_and_release_lets_it_go() {
        let g = rmat(&RmatConfig::graph500(6, 300, 50));
        let shared = Prepared::new(&g);
        Benchmark::Bfs.run_on(&g, &shared, Engine::Mtcpu(2), 100);
        assert!(shared.csr.peek(()).is_some());
        assert!(shared.frontier.peek(()).is_none() && shared.shards.lock().is_empty());
        // The frontier family borrows the CSR while there is one to borrow.
        Benchmark::Bfs.run_on(&g, &shared, Engine::Frontier, 100);
        let (csr, frontier) = (
            shared.csr.peek(()).unwrap(),
            shared.frontier.peek(()).unwrap(),
        );
        assert!(std::ptr::eq(&*csr, frontier.csr()));
        Benchmark::Bfs.run_on(&g, &shared, Engine::CuShaGs, 100);
        for family in [
            Family::Csr,
            Family::Frontier,
            Family::of(&g, Benchmark::Bfs, Engine::CuShaGs),
        ] {
            shared.release(family);
        }
        assert!(shared.csr.peek(()).is_none() && shared.frontier.peek(()).is_none());
        assert!(shared.shards.lock().is_empty());
    }

    #[test]
    fn default_source_breaks_ties_towards_the_last_hub() {
        use cusha_graph::Edge;
        // Vertices 1 and 3 both have out-degree 2.
        let edges = [(1, 0), (1, 2), (3, 0), (3, 4), (2, 0)];
        let edges = edges.iter().map(|&(s, d)| Edge::new(s, d, 1)).collect();
        let g = Graph::new(5, edges);
        assert_eq!(default_source(&g), 3);
        assert_eq!(Prepared::new(&g).source, 3);
        assert_eq!(default_source(&Graph::empty(4)), 3, "all tied at zero");
        assert_eq!(default_source(&Graph::empty(0)), 0);
    }

    #[test]
    fn default_source_is_a_hub() {
        let g = rmat(&RmatConfig::graph500(7, 2000, 51));
        let s = default_source(&g);
        let out = g.out_degrees();
        assert_eq!(out[s as usize], *out.iter().max().unwrap());
    }

    #[test]
    fn labels() {
        assert_eq!(Engine::Vwc(16).label(), "VWC-CSR/16");
        assert_eq!(Engine::CuShaCw.label(), "CuSha-CW");
        assert!(Engine::CuShaGs.is_gpu());
        assert!(!Engine::Mtcpu(4).is_gpu());
        assert!(Engine::Frontier.is_gpu());
        assert_eq!(Engine::Frontier.label(), "Frontier");
    }

    #[test]
    fn engine_list_elements_parse() {
        assert_eq!(Engine::parse("gs"), Some(Engine::CuShaGs));
        assert_eq!(Engine::parse("cw"), Some(Engine::CuShaCw));
        assert_eq!(Engine::parse("frontier"), Some(Engine::Frontier));
        assert_eq!(Engine::parse("vwc:8"), Some(Engine::Vwc(8)));
        assert_eq!(Engine::parse("mtcpu:4"), Some(Engine::Mtcpu(4)));
        for bad in [
            "", "vwc", "vwc:0", "vwc:3", "vwc:64", "vwc:x", "mtcpu:", "warp:8", "GS",
        ] {
            assert_eq!(Engine::parse(bad), None, "{bad:?} should not parse");
        }
    }
}
