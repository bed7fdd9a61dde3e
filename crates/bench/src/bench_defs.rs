//! Benchmark and engine enumerations used by every experiment.

use cusha_algos::{
    Bfs, CircuitSimulation, ConnectedComponents, HeatSimulation, NeuralNetwork, PageRank, Sssp,
    Sswp,
};
use cusha_baselines::{run_mtcpu, run_vwc, MtcpuConfig, VwcConfig, VIRTUAL_WARP_SIZES};
use cusha_core::{run as run_cusha, CuShaConfig, Repr, RunStats, VertexProgram};
use cusha_frontier::{run_frontier, FrontierConfig};
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
    pub fn value_sizes(self) -> cusha_core::memsize::ValueSizes {
        use cusha_core::memsize::ValueSizes;
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
    /// (values are validated in the test suites, not the harness).
    pub fn run(self, g: &Graph, engine: Engine, max_iterations: u32) -> RunStats {
        let source = default_source(g);
        match self {
            Benchmark::Bfs => dispatch(&Bfs::new(source), g, engine, max_iterations),
            Benchmark::Sssp => dispatch(&Sssp::new(source), g, engine, max_iterations),
            Benchmark::Pr => dispatch(&PageRank::new(), g, engine, max_iterations),
            Benchmark::Cc => dispatch(&ConnectedComponents::new(), g, engine, max_iterations),
            Benchmark::Sswp => dispatch(&Sswp::new(source), g, engine, max_iterations),
            Benchmark::Nn => dispatch(&NeuralNetwork::new(), g, engine, max_iterations),
            Benchmark::Hs => dispatch(&HeatSimulation::new(), g, engine, max_iterations),
            Benchmark::Cs => {
                let gnd = g.num_vertices().saturating_sub(1);
                dispatch(
                    &CircuitSimulation::new(source, gnd),
                    g,
                    engine,
                    max_iterations,
                )
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

fn dispatch<P: VertexProgram>(
    prog: &P,
    g: &Graph,
    engine: Engine,
    max_iterations: u32,
) -> RunStats {
    match engine {
        Engine::CuShaGs => {
            let mut cfg = CuShaConfig::new(Repr::GShards);
            cfg.max_iterations = max_iterations;
            run_cusha(prog, g, &cfg).stats
        }
        Engine::CuShaCw => {
            let mut cfg = CuShaConfig::new(Repr::ConcatWindows);
            cfg.max_iterations = max_iterations;
            run_cusha(prog, g, &cfg).stats
        }
        Engine::Vwc(vw) => {
            let mut cfg = VwcConfig::new(vw);
            cfg.max_iterations = max_iterations;
            run_vwc(prog, g, &cfg).stats
        }
        Engine::Mtcpu(t) => {
            let mut cfg = MtcpuConfig::new(t);
            cfg.max_iterations = max_iterations;
            run_mtcpu(prog, g, &cfg).stats
        }
        Engine::Frontier => {
            let mut cfg = FrontierConfig::new();
            cfg.max_iterations = max_iterations;
            run_frontier(prog, g, &cfg).stats
        }
    }
}

/// Default traversal source: the vertex with the largest out-degree, so the
/// single-source algorithms reach a substantial part of every surrogate.
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
