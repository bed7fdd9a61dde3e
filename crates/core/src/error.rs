//! The engine's failure taxonomy.
//!
//! Every way a CuSha run can fail on user-supplied input or a faulty device
//! is an [`EngineError`] variant; the fallible entry points
//! ([`crate::try_run`], [`crate::try_run_streamed`]) return it instead of
//! panicking. The panicking wrappers ([`crate::run`],
//! [`crate::run_streamed`]) remain for callers that treat any failure as a
//! bug, matching the paper's abort-on-`cudaError` runs.
//!
//! Silent data corruption deliberately has **no** variant here: the
//! integrity layer ([`crate::integrity`]) always recovers — its ladder
//! bottoms out at the host fallback, whose memory the device flip model
//! cannot touch — so detected corruption surfaces as [`RunStats::sdc`]
//! counters (plus trace instants), never as an error.
//!
//! [`RunStats::sdc`]: crate::stats::RunStats

use crate::engine::CuShaOutput;
use cusha_graph::Graph;
use cusha_simt::{DeviceFault, FaultKind};

/// Why a CuSha run could not produce a (converged) result.
#[derive(Debug)]
pub enum EngineError<V> {
    /// The configuration is unusable; the string names the field and the
    /// constraint it violates.
    InvalidConfig(String),
    /// Device memory was exhausted, or a pre-flight found it would be. A
    /// streamed or fleet device rebatches and then degrades in place instead.
    DeviceOom {
        /// Bytes the failed allocation would have brought the total to.
        requested_bytes: u64,
        /// Device capacity in bytes.
        capacity_bytes: u64,
    },
    /// A host↔device copy failed and (for recovering engines) retries were
    /// exhausted.
    CopyFault {
        /// Direction of the failed copy.
        direction: FaultKind,
        /// Zero-based index of the failed operation among its kind.
        op_index: u64,
    },
    /// A kernel launch failed past the device's retries. A streamed or fleet
    /// device degrades in place instead.
    KernelFault {
        /// Name of the kernel whose launch failed.
        name: String,
        /// Zero-based launch index.
        op_index: u64,
    },
    /// The run hit its iteration cap without converging. The partial output
    /// — values as of the last completed iteration, plus full statistics —
    /// is carried so callers can inspect or resume from it.
    NonConverged {
        /// Output of the capped run (`stats.converged == false`).
        partial: Box<CuShaOutput<V>>,
    },
    /// The watchdog observed a livelock: the value vector returned to a
    /// previously-seen state without the convergence flag settling, so the
    /// loop would cycle forever.
    Watchdog {
        /// Iterations completed when the cycle was detected.
        iterations: u32,
    },
    /// The run's modeled-time deadline expired before convergence. Like the
    /// watchdog, the deadline is enforced at iteration boundaries — the
    /// kernel in flight always completes — so a cancelled run leaves no
    /// partially-written state behind. Raised by
    /// [`CuShaConfig::deadline_seconds`](crate::CuShaConfig) (the CLI's
    /// `--timeout-ms`) and by a resident caller's
    /// [`RunObserver`](crate::engine::RunObserver) cancelling the run.
    Deadline {
        /// Iterations completed when the deadline was enforced.
        iterations: u32,
        /// Modeled seconds elapsed at the enforcing iteration boundary.
        elapsed_seconds: f64,
    },
}

impl<V> EngineError<V> {
    /// Short machine-readable tag for the variant (used by CLI reporting).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::InvalidConfig(_) => "invalid-config",
            EngineError::DeviceOom { .. } => "device-oom",
            EngineError::CopyFault { .. } => "copy-fault",
            EngineError::KernelFault { .. } => "kernel-fault",
            EngineError::NonConverged { .. } => "non-converged",
            EngineError::Watchdog { .. } => "watchdog",
            EngineError::Deadline { .. } => "deadline",
        }
    }

    /// A capped run's partial output as its answer; any other error stays one.
    pub fn partial(self) -> Result<CuShaOutput<V>, Self> {
        match self {
            EngineError::NonConverged { partial } => Ok(*partial),
            e => Err(e),
        }
    }
}

/// What a panicking entry (`run`, `run_vwc`, ...) makes of an outcome: a
/// capped run is its partial output, any other failure panics.
pub fn settle<V>(outcome: Result<CuShaOutput<V>, EngineError<V>>) -> CuShaOutput<V> {
    outcome
        .or_else(EngineError::partial)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Refuses topology (a shard layout, a CSR, a frontier adjacency) built for a
/// graph of another shape, before a warm entry indexes one by the other. O(1):
/// a same-shape graph passes; a service pairs each layout with the revision
/// it was built from by holding both in one epoch.
pub fn check_topology<V>(what: &str, built: (u32, u32), g: &Graph) -> Result<(), EngineError<V>> {
    let of_graph = (g.num_vertices(), g.num_edges());
    (built == of_graph).then_some(()).ok_or_else(|| {
        let msg =
            format!("{what} was built for {built:?} (vertices, edges), graph has {of_graph:?}");
        EngineError::InvalidConfig(msg)
    })
}

impl<V> From<DeviceFault> for EngineError<V> {
    fn from(f: DeviceFault) -> Self {
        match f {
            DeviceFault::Oom {
                requested_bytes,
                capacity_bytes,
                ..
            } => EngineError::DeviceOom {
                requested_bytes,
                capacity_bytes,
            },
            DeviceFault::Copy { kind, op_index } => EngineError::CopyFault {
                direction: kind,
                op_index,
            },
            DeviceFault::Kernel { name, op_index } => EngineError::KernelFault { name, op_index },
        }
    }
}

impl<V> std::fmt::Display for EngineError<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::DeviceOom {
                requested_bytes,
                capacity_bytes,
            } => write!(
                f,
                "device out of memory: {requested_bytes} B requested, \
                 {capacity_bytes} B capacity"
            ),
            EngineError::CopyFault {
                direction,
                op_index,
            } => {
                let dir = match direction {
                    FaultKind::H2d => "host-to-device",
                    FaultKind::D2h => "device-to-host",
                    _ => "copy",
                };
                write!(f, "unrecovered {dir} copy fault at operation #{op_index}")
            }
            EngineError::KernelFault { name, op_index } => {
                write!(f, "unrecovered kernel fault at launch #{op_index} ({name})")
            }
            EngineError::NonConverged { partial } => write!(
                f,
                "did not converge within {} iterations",
                partial.stats.iterations
            ),
            EngineError::Watchdog { iterations } => write!(
                f,
                "watchdog detected a livelock after {iterations} iterations: \
                 values revisit an earlier state without converging"
            ),
            EngineError::Deadline {
                iterations,
                elapsed_seconds,
            } => write!(
                f,
                "deadline expired after {iterations} iterations \
                 ({:.6} modeled ms elapsed)",
                elapsed_seconds * 1e3
            ),
        }
    }
}

impl<V: std::fmt::Debug> std::error::Error for EngineError<V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_faults_map_to_engine_errors() {
        let e: EngineError<u32> = DeviceFault::Oom {
            requested_bytes: 100,
            capacity_bytes: 50,
            injected: true,
        }
        .into();
        assert!(matches!(
            e,
            EngineError::DeviceOom {
                requested_bytes: 100,
                ..
            }
        ));
        assert_eq!(e.kind(), "device-oom");

        let e: EngineError<u32> = DeviceFault::Copy {
            kind: FaultKind::D2h,
            op_index: 7,
        }
        .into();
        assert!(e.to_string().contains("device-to-host"));
        assert_eq!(e.kind(), "copy-fault");

        let e: EngineError<u32> = DeviceFault::Kernel {
            name: "k".into(),
            op_index: 2,
        }
        .into();
        assert!(e.to_string().contains("launch #2"));
        assert_eq!(e.kind(), "kernel-fault");
    }
}
