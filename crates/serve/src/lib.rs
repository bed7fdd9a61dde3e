#![warn(missing_docs)]

//! The resident CuSha query service.
//!
//! The engines in `cusha-core` are one-shot: build the shard layout, run
//! to convergence, exit. This crate keeps everything warm — the graph,
//! the G-Shards/CW layouts (one per value size), the fault-plan state,
//! a result cache — and answers a *stream* of queries through a CLI REPL
//! and a line-delimited JSON protocol (`cusha serve`):
//!
//! * [`proto`] — the wire protocol: hand-rolled JSON, request parsing,
//!   the REPL shorthand.
//! * [`admission`] — the bounded admission queue with typed load
//!   shedding (`rejected {reason}`, never a silent drop).
//! * [`cache`] — the LRU result cache keyed on
//!   `(graph_rev, program, source_set, integrity_mode)`.
//! * [`service`] — the service loop: fused query batching (two valued
//!   traversals per launch, up to 64 reach sources per launch),
//!   per-query deadlines enforced at iteration boundaries, fault retry
//!   with modeled backoff, blast-radius isolation by batch splitting,
//!   and warm-state scrubbing.
//! * [`telemetry`] — per-query serving records (queue wait, batch shape,
//!   warm/cold, retries, deadline slack), the sliding-window SLO tracker
//!   with burn rates, and the slow-query log behind `stats`/`--slow-log`.
//! * [`wal`] — the durable write-ahead mutation log: checksummed
//!   length-prefixed records, fsync-modeled commit points, snapshot
//!   compaction, torn-tail-truncating recovery, and deterministic
//!   crash-injection points for the recovery harness.
//!
//! ```
//! use cusha_graph::generators::rmat::{rmat, RmatConfig};
//! use cusha_serve::{run_session, ServeConfig, Service};
//!
//! let graph = rmat(&RmatConfig::graph500(8, 1_000, 42));
//! let mut svc = Service::new(graph, ServeConfig::default()).unwrap();
//! let mut out = Vec::new();
//! run_session(&mut svc, "bfs 0\nsssp 3\nflush\n".as_bytes(), &mut out).unwrap();
//! let text = String::from_utf8(out).unwrap();
//! assert!(text.contains("\"status\":\"ok\""));
//! ```

pub mod admission;
pub mod cache;
pub mod proto;
pub mod service;
pub mod telemetry;
pub mod wal;
mod warm;

pub use admission::{AdmissionQueue, ShedReason};
pub use cache::{cache_key, CachedResult, ResultCache};
pub use proto::{parse_json, parse_line, Json, MutateRequest, Query, QueryOp, Request};
pub use service::{run_session, RebuildPolicy, ServeConfig, ServeEngine, Service, WalConfig};
pub use telemetry::{
    QueryLog, QueryOutcome, QueryRecord, SloConfig, SloTracker, SlowQueryLog, Telemetry,
};
pub use wal::{CrashPoint, CrashSpec, RecoverySource, RecoveryStats, Wal, WalError, WalStats};
