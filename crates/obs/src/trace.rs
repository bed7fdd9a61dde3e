//! Span/event tracer over the modeled clock.
//!
//! Engines stamp events with the simulator's **modeled time** (a device's
//! accumulated transfer + kernel seconds), not wall time: the timeline a
//! trace shows is the one the paper's tables are computed over. Events live
//! in a bounded ring buffer shared by cheap [`Tracer`] clones; when the
//! buffer is full the oldest events are dropped (and counted), so tracing a
//! long run degrades gracefully instead of exhausting memory.
//!
//! A default-constructed tracer is the **no-op** handle: every recording
//! method returns before touching the heap, so engines can thread a tracer
//! unconditionally and pay nothing when observability is off (asserted by
//! `tests/obs_overhead.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Schema tag embedded in exported traces.
pub const TRACE_SCHEMA: &str = "cusha-trace/v1";

/// Default ring-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Well-known `tid` lanes within a device's `pid`.
pub mod lanes {
    /// Engine-level spans: iterations, setup/teardown, batches, exchanges.
    pub const ENGINE: u32 = 0;
    /// Host↔device copy spans (H2D / D2H).
    pub const COPY: u32 = 1;
    /// Kernel launches and their phase sub-spans.
    pub const KERNEL: u32 = 2;
    /// Fault-recovery instants (retries, rebatches, degradations).
    pub const FAULT: u32 = 3;
    /// Query-service spans: admission, batch assembly, per-query lifecycle.
    pub const SERVE: u32 = 4;
    /// Live-mutation spans: WAL commits, batch application, epoch rebuilds.
    pub const MUTATE: u32 = 5;
    /// Per-SM occupancy lanes start here: `SM_BASE + sm_index`.
    pub const SM_BASE: u32 = 16;
}

/// Chrome trace-event phase of an [`Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ph {
    /// A complete span (`ph: "X"`): `ts` + `dur`.
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A named counter sample (`ph: "C"`).
    Counter,
}

/// One argument value attached to an event.
#[derive(Clone, Debug)]
pub enum ArgVal {
    /// Unsigned integer argument.
    U64(u64),
    /// Float argument (exported via shortest round-trip formatting).
    F64(f64),
    /// String argument.
    Str(String),
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Phase (span / instant / counter).
    pub ph: Ph,
    /// Process lane — the device index (fleet lane = device count).
    pub pid: u32,
    /// Thread lane within the device; see [`lanes`].
    pub tid: u32,
    /// Category ("engine", "copy", "kernel", "phase", "sm", "fault", ...).
    pub cat: &'static str,
    /// Event name.
    pub name: String,
    /// Modeled start time, microseconds.
    pub ts_us: f64,
    /// Modeled duration, microseconds (0 for instants).
    pub dur_us: f64,
    /// Attached arguments, in insertion order.
    pub args: Vec<(&'static str, ArgVal)>,
}

#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    pub(crate) events: VecDeque<Event>,
    pub(crate) capacity: usize,
    pub(crate) dropped: u64,
    /// `pid` → process label ("device0", "fleet").
    pub(crate) process_names: BTreeMap<u32, String>,
    /// `(pid, tid)` → lane label ("engine", "copy", "sm3", ...).
    pub(crate) lane_names: BTreeMap<(u32, u32), String>,
}

impl TraceBuf {
    fn push(&mut self, e: Event) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }
}

/// Handle to a shared trace buffer — or the no-op sink.
///
/// Cloning is cheap (an `Arc` bump, or nothing for the no-op handle); every
/// engine layer holds its own clone. All methods on a disabled tracer
/// return immediately without allocating.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceBuf>>>,
}

impl Tracer {
    /// A no-op tracer: records nothing, allocates nothing. Identical to
    /// `Tracer::default()`.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with the default ring-buffer capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer bounded to `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceBuf {
                capacity: capacity.max(1),
                ..Default::default()
            }))),
        }
    }

    /// Whether this handle records events.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle is the allocation-free no-op sink.
    pub fn is_noop(&self) -> bool {
        self.inner.is_none()
    }

    /// Number of events currently buffered (0 for the no-op handle).
    pub fn event_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |b| b.lock().unwrap().events.len())
    }

    /// Events dropped so far to honour the ring-buffer bound.
    pub fn dropped_count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |b| b.lock().unwrap().dropped)
    }

    /// Runs `f` over a snapshot of the buffered events, in record order.
    pub fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> Option<R> {
        self.inner.as_ref().map(|b| {
            let buf = b.lock().unwrap();
            let v: Vec<Event> = buf.events.iter().cloned().collect();
            f(&v)
        })
    }

    pub(crate) fn with_buf<R>(&self, f: impl FnOnce(&TraceBuf) -> R) -> Option<R> {
        self.inner.as_ref().map(|b| f(&b.lock().unwrap()))
    }

    /// Labels process lane `pid` (shown as the Chrome trace process name).
    pub fn name_process(&self, pid: u32, name: &str) {
        if let Some(b) = &self.inner {
            b.lock()
                .unwrap()
                .process_names
                .insert(pid, name.to_string());
        }
    }

    /// Labels thread lane `(pid, tid)` (shown as the Chrome thread name).
    pub fn name_lane(&self, pid: u32, tid: u32, name: &str) {
        if let Some(b) = &self.inner {
            b.lock()
                .unwrap()
                .lane_names
                .insert((pid, tid), name.to_string());
        }
    }

    /// Labels a device's standard lane set: process `device<pid>` with
    /// engine / copy / kernel / fault lanes and one lane per simulated SM.
    pub fn name_device_lanes(&self, pid: u32, num_sms: u32) {
        if !self.is_enabled() {
            return;
        }
        self.name_process(pid, &format!("device{pid}"));
        self.name_lane(pid, lanes::ENGINE, "engine");
        self.name_lane(pid, lanes::COPY, "copy");
        self.name_lane(pid, lanes::KERNEL, "kernel");
        self.name_lane(pid, lanes::FAULT, "fault");
        for sm in 0..num_sms {
            self.name_lane(pid, lanes::SM_BASE + sm, &format!("sm{sm}"));
        }
    }

    /// Records a complete span with no arguments. `ts`/`dur` are modeled
    /// seconds.
    pub fn complete(&self, pid: u32, tid: u32, cat: &'static str, name: &str, ts: f64, dur: f64) {
        self.complete_with(pid, tid, cat, name, ts, dur, Vec::new);
    }

    /// Records a complete span; `args` is only invoked when enabled, so a
    /// disabled tracer never pays for argument construction.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event tuple
    pub fn complete_with(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &str,
        ts: f64,
        dur: f64,
        args: impl FnOnce() -> Vec<(&'static str, ArgVal)>,
    ) {
        if let Some(b) = &self.inner {
            b.lock().unwrap().push(Event {
                ph: Ph::Complete,
                pid,
                tid,
                cat,
                name: name.to_string(),
                ts_us: ts * 1e6,
                dur_us: dur * 1e6,
                args: args(),
            });
        }
    }

    /// Records an instant marker at modeled time `ts`.
    pub fn instant(&self, pid: u32, tid: u32, cat: &'static str, name: &str, ts: f64) {
        if let Some(b) = &self.inner {
            b.lock().unwrap().push(Event {
                ph: Ph::Instant,
                pid,
                tid,
                cat,
                name: name.to_string(),
                ts_us: ts * 1e6,
                dur_us: 0.0,
                args: Vec::new(),
            });
        }
    }

    /// Records a counter sample at modeled time `ts`.
    pub fn counter(&self, pid: u32, tid: u32, name: &str, ts: f64, value: f64) {
        if let Some(b) = &self.inner {
            b.lock().unwrap().push(Event {
                ph: Ph::Counter,
                pid,
                tid,
                cat: "counter",
                name: name.to_string(),
                ts_us: ts * 1e6,
                dur_us: 0.0,
                args: vec![("value", ArgVal::F64(value))],
            });
        }
    }

    /// Opens a span at modeled time `start`; finish it with
    /// [`SpanGuard::end`]. A guard from a disabled tracer is inert.
    pub fn span(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &'static str,
        start: f64,
    ) -> SpanGuard {
        SpanGuard {
            tracer: self.clone(),
            pid,
            tid,
            cat,
            name,
            start,
        }
    }
}

/// An open span: created by [`Tracer::span`], recorded by [`end`]
/// (consuming the guard with the span's modeled end time). Dropping a guard
/// without ending it records nothing — the modeled clock cannot be read
/// implicitly, so an abandoned span has no meaningful duration.
///
/// [`end`]: SpanGuard::end
#[must_use = "end the span with SpanGuard::end(ts)"]
pub struct SpanGuard {
    tracer: Tracer,
    pid: u32,
    tid: u32,
    cat: &'static str,
    name: &'static str,
    start: f64,
}

impl SpanGuard {
    /// Closes the span at modeled time `ts` and records it.
    pub fn end(self, ts: f64) {
        self.end_with(ts, Vec::new)
    }

    /// Closes the span at `ts` with arguments (built only when enabled).
    pub fn end_with(self, ts: f64, args: impl FnOnce() -> Vec<(&'static str, ArgVal)>) {
        self.tracer.complete_with(
            self.pid,
            self.tid,
            self.cat,
            self.name,
            self.start,
            (ts - self.start).max(0.0),
            args,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        assert!(t.is_noop() && !t.is_enabled());
        t.complete(0, 0, "engine", "iteration", 0.0, 1.0);
        t.instant(0, 3, "fault", "copy-retry", 0.5);
        t.counter(0, 0, "updated", 1.0, 4.0);
        t.span(0, 0, "engine", "setup", 0.0).end(2.0);
        t.name_device_lanes(0, 4);
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    fn events_share_one_buffer_across_clones() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t.complete(0, 2, "kernel", "k", 0.0, 1e-3);
        t2.instant(1, 3, "fault", "oom-rebatch", 2e-3);
        assert_eq!(t.event_count(), 2);
        t.with_events(|ev| {
            assert_eq!(ev[0].ph, Ph::Complete);
            assert!((ev[0].dur_us - 1e3).abs() < 1e-9);
            assert_eq!(ev[1].pid, 1);
            assert_eq!(ev[1].name, "oom-rebatch");
        })
        .unwrap();
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.instant(0, 0, "engine", &format!("e{i}"), i as f64);
        }
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.dropped_count(), 3);
        t.with_events(|ev| {
            assert_eq!(ev[0].name, "e3");
            assert_eq!(ev[1].name, "e4");
        })
        .unwrap();
    }

    #[test]
    fn span_guard_records_duration() {
        let t = Tracer::enabled();
        let g = t.span(0, 0, "engine", "iteration", 1.0);
        g.end_with(1.5, || vec![("iter", ArgVal::U64(3))]);
        t.with_events(|ev| {
            assert_eq!(ev.len(), 1);
            assert!((ev[0].ts_us - 1e6).abs() < 1e-6);
            assert!((ev[0].dur_us - 0.5e6).abs() < 1e-6);
            assert_eq!(ev[0].args.len(), 1);
        })
        .unwrap();
    }

    #[test]
    fn lane_naming_is_idempotent() {
        let t = Tracer::enabled();
        t.name_device_lanes(0, 2);
        t.name_device_lanes(0, 2);
        t.with_buf(|b| {
            assert_eq!(b.process_names[&0], "device0");
            assert_eq!(b.lane_names[&(0, lanes::SM_BASE + 1)], "sm1");
        })
        .unwrap();
    }
}
