//! Per-query serve telemetry: query records, SLO tracking, and the
//! slow-query log.
//!
//! Every query that reaches a terminal state produces one [`QueryRecord`]
//! capturing the whole serving path — queue wait, which fused batch ran
//! it, warm vs. cold launch, cache hit, fault retries, modeled latency,
//! deadline slack, and the outcome. Records flow through a bounded ring
//! buffer ([`QueryLog`]; overflow is counted, never silent), feed a
//! sliding-window [`SloTracker`] that computes latency/error **burn
//! rates** against configurable objectives, and the slowest land in a
//! [`SlowQueryLog`] the CLI can dump via `--slow-log`.
//!
//! All times are **modeled seconds** (the service's deterministic clock),
//! so telemetry output is byte-reproducible like every other artifact.
//!
//! Burn-rate semantics (the standard SRE definition): an objective
//! grants an error budget — `1 - latency_target` of queries may exceed
//! the latency objective, `1 - availability_target` may fail. The burn
//! rate is the observed violation fraction over the window divided by
//! that budget: 1.0 means the budget is being consumed exactly at the
//! sustainable rate, above 1.0 the service is burning budget it does not
//! have. See DESIGN.md §4.7.

use cusha_obs::json::push_obj;
use std::collections::VecDeque;

/// Terminal state of a served query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Settled with a result (fresh or cached).
    Ok,
    /// Cancelled at an iteration boundary after its deadline expired.
    Deadline,
    /// Settled `failed` (fault exhaustion, watchdog, non-convergence).
    Failed,
    /// Shed at admission.
    Rejected,
}

impl QueryOutcome {
    /// Stable lower-case label (wire + JSON).
    pub fn label(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Deadline => "deadline",
            QueryOutcome::Failed => "failed",
            QueryOutcome::Rejected => "rejected",
        }
    }
}

/// One query's complete serving record.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// Admission sequence number (0 for queries settled at the door).
    pub seq: u64,
    /// Operation label (`bfs`, `reach`, `pagerank`, ...).
    pub op: &'static str,
    /// Modeled seconds spent waiting in the admission queue.
    pub queue_wait_s: f64,
    /// Id of the fused launch that ran the query (0 = no launch: cache
    /// hit or rejection).
    pub batch_id: u64,
    /// Number of queries fused into that launch.
    pub batch_width: u32,
    /// Whether the launch reused warm prepared state (layout already
    /// built) rather than building it first.
    pub warm: bool,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Fault retries the launch took before settling.
    pub retries: u32,
    /// Modeled seconds from admission to settlement.
    pub latency_s: f64,
    /// `deadline - latency` in modeled seconds (negative = violated);
    /// `None` when the query carried no deadline.
    pub deadline_slack_s: Option<f64>,
    /// Terminal state.
    pub outcome: QueryOutcome,
}

impl QueryRecord {
    /// Serializes the record as one compact JSON object (the slow-query
    /// log's line format).
    pub fn to_json(&self, out: &mut String) {
        push_obj(out, |o| {
            o.plain("seq", self.seq)
                .str("op", self.op)
                .str("outcome", self.outcome.label())
                .f64("latency_ms", self.latency_s * 1e3)
                .f64("queue_wait_ms", self.queue_wait_s * 1e3)
                .plain("batch_id", self.batch_id)
                .plain("batch_width", self.batch_width)
                .plain("warm", self.warm)
                .plain("cache_hit", self.cache_hit)
                .plain("retries", self.retries)
                .f64("deadline_slack_ms", self.deadline_slack_s.map(|s| s * 1e3));
        });
    }
}

/// Bounded ring buffer of recent [`QueryRecord`]s. Overflow evicts the
/// oldest record and increments [`QueryLog::dropped`] — truncation is
/// visible, like the tracer's drop counter.
#[derive(Debug)]
pub struct QueryLog {
    capacity: usize,
    ring: VecDeque<QueryRecord>,
    dropped: u64,
}

impl QueryLog {
    /// A log retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        QueryLog {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, rec: QueryRecord) {
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }

    /// Records currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &QueryRecord> {
        self.ring.iter()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Service-level objectives the tracker burns budget against.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Latency objective in modeled seconds: a query settling slower
    /// than this (or cancelled by deadline) violates the latency SLO.
    pub latency_objective_s: f64,
    /// Fraction of queries that must meet the latency objective
    /// (e.g. 0.99 → a 1% latency error budget).
    pub latency_target: f64,
    /// Fraction of queries that must not settle `failed`
    /// (e.g. 0.999 → a 0.1% availability error budget).
    pub availability_target: f64,
    /// Sliding-window size in queries.
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_objective_s: 0.050,
            latency_target: 0.99,
            availability_target: 0.999,
            window: 256,
        }
    }
}

/// Sliding-window SLO tracker.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    /// Per query: (violated latency objective, settled failed).
    window: VecDeque<(bool, bool)>,
}

impl SloTracker {
    /// A tracker over `cfg`'s objectives.
    pub fn new(cfg: SloConfig) -> Self {
        SloTracker {
            cfg,
            window: VecDeque::new(),
        }
    }

    /// The objectives in force.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Folds one settled query into the window. Rejections are admission
    /// control doing its job, not SLO violations — they are excluded.
    pub fn record(&mut self, rec: &QueryRecord) {
        if rec.outcome == QueryOutcome::Rejected {
            return;
        }
        let violated_latency =
            rec.outcome == QueryOutcome::Deadline || rec.latency_s > self.cfg.latency_objective_s;
        let errored = rec.outcome == QueryOutcome::Failed;
        if self.window.len() >= self.cfg.window.max(1) {
            self.window.pop_front();
        }
        self.window.push_back((violated_latency, errored));
    }

    /// Queries currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Latency burn rate over the window: violating fraction divided by
    /// the latency error budget (0 when the window is empty).
    pub fn latency_burn_rate(&self) -> f64 {
        self.burn(self.window.iter().filter(|(l, _)| *l).count(), {
            1.0 - self.cfg.latency_target
        })
    }

    /// Error burn rate over the window: failed fraction divided by the
    /// availability error budget (0 when the window is empty).
    pub fn error_burn_rate(&self) -> f64 {
        self.burn(self.window.iter().filter(|(_, e)| *e).count(), {
            1.0 - self.cfg.availability_target
        })
    }

    fn burn(&self, violations: usize, budget: f64) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let frac = violations as f64 / self.window.len() as f64;
        frac / budget.max(1e-9)
    }
}

/// The top-N slowest queries, kept sorted slowest-first.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    slowest: Vec<QueryRecord>,
}

impl SlowQueryLog {
    /// A log retaining the `capacity` slowest queries.
    pub fn new(capacity: usize) -> Self {
        SlowQueryLog {
            capacity: capacity.max(1),
            slowest: Vec::new(),
        }
    }

    /// Offers a record; it is kept if it ranks among the slowest.
    /// Rejections carry no meaningful latency and are skipped.
    pub fn offer(&mut self, rec: &QueryRecord) {
        if rec.outcome == QueryOutcome::Rejected {
            return;
        }
        let pos = self
            .slowest
            .partition_point(|r| r.latency_s >= rec.latency_s);
        if pos >= self.capacity {
            return;
        }
        self.slowest.insert(pos, rec.clone());
        self.slowest.truncate(self.capacity);
    }

    /// Retained records, slowest first.
    pub fn entries(&self) -> &[QueryRecord] {
        &self.slowest
    }

    /// Renders one JSON line per record, slowest first (the `--slow-log`
    /// file format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rec in &self.slowest {
            rec.to_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Query records the service's ring buffer keeps (overflow is counted).
pub const QUERY_LOG_CAPACITY: usize = 1024;
/// Queries the service's slow log keeps (top-N by latency).
pub const SLOW_LOG_CAPACITY: usize = 16;

/// The service's telemetry bundle: ring buffer, SLO window, slow log.
#[derive(Debug)]
pub struct Telemetry {
    /// Recent query records.
    pub log: QueryLog,
    /// Sliding-window SLO state.
    pub slo: SloTracker,
    /// Slowest queries seen.
    pub slow: SlowQueryLog,
}

impl Telemetry {
    /// Builds the bundle.
    pub fn new(slo: SloConfig) -> Self {
        Telemetry {
            log: QueryLog::new(QUERY_LOG_CAPACITY),
            slo: SloTracker::new(slo),
            slow: SlowQueryLog::new(SLOW_LOG_CAPACITY),
        }
    }

    /// Routes one record through all three sinks.
    pub fn record(&mut self, rec: QueryRecord) {
        self.slo.record(&rec);
        self.slow.offer(&rec);
        self.log.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(latency_ms: f64, outcome: QueryOutcome) -> QueryRecord {
        QueryRecord {
            seq: 1,
            op: "bfs",
            queue_wait_s: 0.0,
            batch_id: 1,
            batch_width: 1,
            warm: true,
            cache_hit: false,
            retries: 0,
            latency_s: latency_ms / 1e3,
            deadline_slack_s: None,
            outcome,
        }
    }

    #[test]
    fn ring_counts_drops() {
        let mut log = QueryLog::new(2);
        for i in 0..5 {
            log.push(rec(i as f64, QueryOutcome::Ok));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        // Oldest evicted: the survivors are the two most recent.
        let kept: Vec<f64> = log.iter().map(|r| r.latency_s * 1e3).collect();
        assert_eq!(kept, vec![3.0, 4.0]);
    }

    #[test]
    fn burn_rates_measure_budget_consumption() {
        let cfg = SloConfig {
            latency_objective_s: 0.010,
            latency_target: 0.9,       // 10% budget
            availability_target: 0.95, // 5% budget
            window: 100,
        };
        let mut slo = SloTracker::new(cfg);
        // 10 queries: 1 slow, 1 failed, 8 fine.
        for _ in 0..8 {
            slo.record(&rec(1.0, QueryOutcome::Ok));
        }
        slo.record(&rec(50.0, QueryOutcome::Ok));
        slo.record(&rec(1.0, QueryOutcome::Failed));
        // 10% violating latency against a 10% budget → burn 1.0.
        assert!((slo.latency_burn_rate() - 1.0).abs() < 1e-9);
        // 10% failing against a 5% budget → burn 2.0.
        assert!((slo.error_burn_rate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_burns_nothing() {
        let slo = SloTracker::new(SloConfig::default());
        assert_eq!(slo.latency_burn_rate(), 0.0);
        assert_eq!(slo.error_burn_rate(), 0.0);
    }

    #[test]
    fn deadline_cancellations_violate_latency() {
        let mut slo = SloTracker::new(SloConfig {
            latency_objective_s: 10.0,
            latency_target: 0.5,
            availability_target: 0.5,
            window: 10,
        });
        // Fast but deadline-cancelled: still a latency violation.
        slo.record(&rec(0.1, QueryOutcome::Deadline));
        assert!(slo.latency_burn_rate() > 0.0);
        assert_eq!(slo.error_burn_rate(), 0.0);
    }

    #[test]
    fn rejections_are_excluded() {
        let mut slo = SloTracker::new(SloConfig::default());
        slo.record(&rec(1e9, QueryOutcome::Rejected));
        assert_eq!(slo.window_len(), 0);
    }

    #[test]
    fn window_slides() {
        let mut slo = SloTracker::new(SloConfig {
            latency_objective_s: 0.010,
            latency_target: 0.5,
            availability_target: 0.5,
            window: 4,
        });
        for _ in 0..4 {
            slo.record(&rec(50.0, QueryOutcome::Ok)); // all violating
        }
        let burn_full = slo.latency_burn_rate();
        for _ in 0..4 {
            slo.record(&rec(1.0, QueryOutcome::Ok)); // all fine
        }
        assert!(burn_full > 0.0);
        assert_eq!(slo.latency_burn_rate(), 0.0, "old violations age out");
    }

    #[test]
    fn slow_log_keeps_the_slowest() {
        let mut slow = SlowQueryLog::new(2);
        for ms in [5.0, 30.0, 1.0, 20.0] {
            slow.offer(&rec(ms, QueryOutcome::Ok));
        }
        let kept: Vec<f64> = slow.entries().iter().map(|r| r.latency_s * 1e3).collect();
        assert_eq!(kept, vec![30.0, 20.0]);
        let text = slow.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"seq\":"));
    }

    #[test]
    fn record_json_shape() {
        let mut out = String::new();
        QueryRecord {
            seq: 7,
            op: "reach",
            queue_wait_s: 0.001,
            batch_id: 3,
            batch_width: 4,
            warm: false,
            cache_hit: false,
            retries: 2,
            latency_s: 0.025,
            deadline_slack_s: Some(-0.005),
            outcome: QueryOutcome::Deadline,
        }
        .to_json(&mut out);
        assert!(out.contains("\"op\":\"reach\""));
        assert!(out.contains("\"outcome\":\"deadline\""));
        assert!(out.contains("\"latency_ms\":25"));
        assert!(out.contains("\"deadline_slack_ms\":-5"));
        assert!(out.contains("\"retries\":2"));
        // Parses back as valid JSON.
        assert!(cusha_obs::parse_json(&out).is_ok());
    }
}
