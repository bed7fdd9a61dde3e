#![warn(missing_docs)]

//! Unified observability layer of the CuSha reproduction.
//!
//! The paper's argument rests on *observing* architectural behaviour
//! (Table 2 / Figure 8 profile counters); this crate turns the reproduction's
//! ad-hoc per-crate statistics into one subsystem shared by every engine:
//!
//! * [`trace`] — a lightweight span/event [`Tracer`]: ring-buffered
//!   [`Event`]s stamped with the **modeled clock** (the simulator's
//!   accumulated seconds, not wall time), organised into lanes
//!   (`pid` = device, `tid` = engine / copy / kernel / fault / per-SM).
//!   Disabled by default: a default-constructed tracer is a no-op handle
//!   that performs no allocation on any recording call.
//! * [`metrics`] — a [`MetricsRegistry`] of counters, gauges and histograms
//!   keyed by name + label pairs, with a versioned, byte-stable JSON
//!   snapshot. Engine stats types (`KernelStats`, `RunStats`, `FaultStats`,
//!   `MultiRunStats`) record themselves into it through one schema.
//! * [`export`] — exporters: Chrome `chrome://tracing` trace-event JSON
//!   (one lane per device and per simulated SM) and a structural validator
//!   used by the schema-stability tests and CI.
//! * [`log`] — a global leveled logger writing to stderr, so stdout stays
//!   reserved for machine-consumable results.
//!
//! See `DESIGN.md` §4.7 "Observability model" for the span taxonomy and
//! clock semantics.

pub mod export;
pub mod json;
pub mod log;
pub mod metrics;
pub mod snapshot;
pub mod trace;

pub use export::{chrome_trace_json, validate_chrome_trace};
pub use json::{parse_json, Json};
pub use log::Level;
pub use metrics::{Histogram, MetricsRegistry, METRICS_SCHEMA};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use trace::{lanes, ArgVal, Event, Ph, SpanGuard, Tracer, TRACE_SCHEMA};
