//! Benchmark and engine enumerations used by every experiment.

use cusha_algos::{
    Bfs, CircuitSimulation, ConnectedComponents, HeatSimulation, NeuralNetwork, PageRank, Sssp,
    Sswp,
};
use cusha_baselines::{
    try_run_mtcpu_warm, try_run_vwc_warm, MtcpuConfig, VwcConfig, VIRTUAL_WARP_SIZES,
};
use cusha_core::memsize::ValueSizes;
use cusha_core::{
    settle, try_run_warm, CuShaConfig, NoopObserver, PreparedLayout, Repr, RunStats, VertexProgram,
};
use cusha_frontier::{try_run_frontier_warm, Family, FrontierConfig, Prepared};
use cusha_graph::{Graph, VertexId};

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
    /// [`Prepared`] from the graph's [`default_source`].
    pub fn run(self, g: &Graph, engine: Engine, max_iterations: u32) -> RunStats {
        let fresh = &Prepared::default();
        self.run_on(g, default_source(g), fresh, engine, max_iterations)
    }

    /// [`Benchmark::run`] from `source` over the topology `shared` holds for
    /// `g` (built there if this is the first cell to ask): a warm run on a
    /// cold replay table, so the statistics are those of `run`.
    pub fn run_on(
        self,
        g: &Graph,
        source: VertexId,
        shared: &Prepared,
        engine: Engine,
        max_iterations: u32,
    ) -> RunStats {
        let at = (g, shared, engine, max_iterations);
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

    /// The [`Family`] the cell of this benchmark on `e` over `g` runs over:
    /// what the matrix schedules and releases by.
    pub fn family(self, g: &Graph, e: Engine) -> Family {
        match e {
            Engine::CuShaGs | Engine::CuShaCw => {
                let vertex = self.value_sizes().vertex;
                Family::Shards(PreparedLayout::select_n_per(g, &CuShaConfig::gs(), vertex))
            }
            Engine::Vwc(_) | Engine::Mtcpu(_) => Family::Csr,
            Engine::Frontier => Family::Frontier,
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

/// One cell: each engine's warm entry over `shared`'s topology, behind the
/// pre-flight its cold entry runs ([`Prepared::preflight`]; VWC's warm entry
/// runs its own, MTCPU has none). A shard cell runs on a view of the CW
/// build: one sort serves both representations, on replay tables of the
/// cell's own.
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
            Prepared::preflight(v, e, sizes, Some(&cfg), &cfg.device).and_then(|key| {
                let Family::Shards(n_per) = key else {
                    unreachable!("a shard configuration keys shards")
                };
                let (layout, _) = shared.shards(g, Repr::ConcatWindows, n_per);
                try_run_warm(prog, g, &layout.view(repr), &cfg, None, observer)
            })
        }
        Engine::Vwc(vw) => {
            let mut cfg = VwcConfig::new(vw);
            cfg.max_iterations = max_iterations;
            try_run_vwc_warm(prog, g, &shared.csr(g).0, &cfg, None, observer)
        }
        Engine::Mtcpu(t) => {
            let mut cfg = MtcpuConfig::new(t);
            cfg.max_iterations = max_iterations;
            try_run_mtcpu_warm(prog, g, &shared.csr(g).0, &cfg, observer)
        }
        Engine::Frontier => {
            let mut cfg = FrontierConfig::new();
            cfg.max_iterations = max_iterations;
            Prepared::preflight(v, e, sizes, None, &cfg.device).and_then(|_| {
                try_run_frontier_warm(prog, g, &shared.frontier(g).0, &cfg, None, observer)
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
            let (source, shared) = (default_source(g), Prepared::default());
            let mut planned = Vec::new();
            for b in Benchmark::ALL {
                for e in engines {
                    let warm = b.run_on(g, source, &shared, e, 150);
                    let cold = b.run(g, e, 150);
                    assert_eq!(
                        format!("{warm:?}"),
                        format!("{cold:?}"),
                        "{b} on {}",
                        e.label()
                    );
                    if let Family::Shards(n_per) = b.family(g, e) {
                        planned.push(n_per);
                    }
                }
            }
            // The sorts held are the ones `Benchmark::family` plans releases
            // by: one per |N|, whatever the benchmark or representation.
            let keys = shared.keys().into_iter();
            let held: Vec<u32> = keys
                .filter_map(|key| match key {
                    Family::Shards(n_per) => Some(n_per),
                    _ => None,
                })
                .collect();
            planned.sort_unstable();
            planned.dedup();
            assert_eq!(held, planned);
            assert_eq!(held.len(), *shard_families);
        }
    }

    #[test]
    fn a_cell_builds_its_family_and_release_lets_it_go() {
        let g = rmat(&RmatConfig::graph500(6, 300, 50));
        let (source, shared) = (default_source(&g), Prepared::default());
        let cell = |e| Benchmark::Bfs.run_on(&g, source, &shared, e, 100);
        cell(Engine::Mtcpu(2));
        assert_eq!(shared.keys(), [Family::Csr]);
        // The frontier family borrows the CSR while there is one to borrow.
        cell(Engine::Frontier);
        assert_eq!(shared.keys(), [Family::Csr, Family::Frontier]);
        let ((csr, c), (frontier, f)) = (shared.csr(&g), shared.frontier(&g));
        assert!(!c && !f, "the cells left both in the store");
        assert!(std::ptr::eq(&*csr, frontier.csr()));
        cell(Engine::CuShaGs);
        let shards = Benchmark::Bfs.family(&g, Engine::CuShaGs);
        assert_eq!(shared.keys(), [shards, Family::Csr, Family::Frontier]);
        for family in [Family::Csr, Family::Frontier, shards] {
            shared.release(family);
        }
        assert!(shared.keys().is_empty());
    }

    #[test]
    fn default_source_breaks_ties_towards_the_last_hub() {
        use cusha_graph::Edge;
        // Vertices 1 and 3 both have out-degree 2.
        let edges = [(1, 0), (1, 2), (3, 0), (3, 4), (2, 0)];
        let edges = edges.iter().map(|&(s, d)| Edge::new(s, d, 1)).collect();
        let g = Graph::new(5, edges);
        assert_eq!(default_source(&g), 3);
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
