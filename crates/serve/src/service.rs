//! The resident query service.
//!
//! Lifecycle of a query: **parse** → **admit** (a cache hit settles at the
//! door; a full queue sheds with a typed rejection) → **plan** at flush
//! (`plan_flush`: same-kind traversals fuse two-per-launch, `reach` queries
//! bitset-pack up to 64 sources per launch) → **prepare** + **run**
//! (`Service::launch`, on the serving `Epoch`'s warm state —
//! built once per key, never rebuilt unless scrubbed or superseded) →
//! **settle** (`launch_and_settle`: exactly one typed response per admitted
//! query) → **render**, in arrival order. Lifecycle of a mutation: **commit**
//! (WAL) → **apply** to the live `Epoch`, opening a `Window` → **rebuild**
//! when the next flush closes it; while a serve-previous window is open the
//! epoch it keeps is the serving one, chosen by reference.
//!
//! Isolation guarantees:
//!
//! * A query whose modeled-time **deadline** expires is cancelled at the
//!   next iteration boundary and settles `deadline`; its batch-mates keep
//!   running and settle normally. The whole launch is abandoned only when
//!   every lane in it has expired.
//! * A transient copy or launch **fault** is re-issued by the device itself,
//!   within its budget, at the one faulted operation. A fault that surfaces
//!   past that budget (or a device OOM) splits a multi-query launch into
//!   singletons, so only the genuinely poisoned query settles `failed` — and
//!   the warm state is scrubbed (layouts dropped and rebuilt) so subsequent
//!   queries see a clean device.
//! * **SDC** never surfaces as a failure: the engine's internal
//!   checkpoint/rollback ladder recovers, and the service only forwards
//!   the detection counters into its metrics.
//! * The **result cache** key is `(graph_rev, program, source_set,
//!   integrity_mode)` — every input that determines the answer — with LRU
//!   eviction; hits settle at admission without touching the device.

use crate::admission::{AdmissionQueue, Admitted, ShedReason};
use crate::cache::{cache_key, CachedResult, ResultCache};
use crate::proto::{parse_line, Json, MutateRequest, Query, QueryOp, Request};
use crate::telemetry::{QueryOutcome, QueryRecord, SloConfig, Telemetry};
use crate::wal::{CrashPoint, CrashSpec, RecoveryStats, Wal, WalError, MODELED_FSYNC_S};
use crate::warm::{EngineConfig, Epoch};
use cusha_algos::{
    extract_lane, Bfs, ConnectedComponents, FusedPair, MultiSourceBfs, PageRank, Sssp, Sswp,
    TraversalKind,
};
use cusha_core::integrity::checksum;
use cusha_core::memsize::ValueSizes;
use cusha_core::{
    CuShaOutput, EngineError, IntegrityConfig, Repr, RunObserver, Value, VertexProgram,
};
use cusha_frontier::Family;
use cusha_graph::Graph;
use cusha_obs::json::{push_f64, push_obj, push_str_lit, ObjWriter};
use cusha_obs::trace::lanes;
use cusha_obs::{MetricsRegistry, Tracer};
use cusha_simt::{DeviceConfig, FaultPlan};
use std::collections::BTreeSet;

/// What happens to queries that arrive between a committed mutation and
/// the warm-layout rebuild that follows it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// Shed them with the typed `rebuilding` rejection: strict freshness,
    /// bounded work.
    #[default]
    Shed,
    /// Serve them from the previous epoch's still-valid prepared state
    /// (graph, layouts, cache entries under the previous revision):
    /// bounded staleness, no availability dip. The window closes at the
    /// end of the next flush, when the new epoch's layouts are rebuilt
    /// warm and every superseded revision is invalidated from the cache.
    ServePrevious,
}

impl RebuildPolicy {
    /// Parses the CLI form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shed" => Some(RebuildPolicy::Shed),
            "serve-previous" => Some(RebuildPolicy::ServePrevious),
            _ => None,
        }
    }
}

/// Durable-mutation configuration: where the WAL lives and how it
/// compacts.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// WAL file path (`<path>.snap` holds the compaction snapshot).
    pub path: std::path::PathBuf,
    /// Snapshot-compact every N applied batches (0 = never).
    pub snapshot_every: u32,
    /// Deterministic kill point for the crash-injection harness.
    pub crash: Option<CrashSpec>,
}

/// Which warm engine the service launches queries on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEngine {
    /// CuSha shard engine over warm `PreparedLayout`s; [`ServeConfig::repr`]
    /// selects G-Shards or Concatenated Windows.
    Shard,
    /// Frontier engine over a warm `PreparedFrontier` (push/pull direction
    /// switching); `repr` is ignored.
    Frontier,
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Warm engine family every launch runs on.
    pub engine: ServeEngine,
    /// CuSha representation for every launch (shard engine only).
    pub repr: Repr,
    /// Explicit shard size; `None` = autotune per value size.
    pub vertices_per_shard: Option<u32>,
    /// Per-run iteration cap.
    pub max_iterations: u32,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Admission queue capacity (queries between flushes).
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Default per-query deadline (ms of modeled time) when a query does
    /// not carry one. `None` = no default deadline.
    pub default_deadline_ms: Option<f64>,
    /// Livelock watchdog interval forwarded to the engine.
    pub watchdog_interval: Option<u32>,
    /// SDC defense configuration forwarded to the engine.
    pub integrity: IntegrityConfig,
    /// Fault-injection schedule; lives with the service and advances
    /// across queries (a consumed one-shot fault never re-fires).
    pub fault_plan: Option<FaultPlan>,
    /// Span sink (the service emits on [`lanes::SERVE`]).
    pub trace: Tracer,
    /// Service-level objectives the telemetry layer burns budget against.
    pub slo: SloConfig,
    /// What queries see between a committed mutation and the rebuild.
    pub rebuild_policy: RebuildPolicy,
    /// Durable write-ahead mutation log; `None` = mutations are
    /// in-memory only.
    pub wal: Option<WalConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: ServeEngine::Shard,
            repr: Repr::ConcatWindows,
            vertices_per_shard: None,
            max_iterations: 10_000,
            device: DeviceConfig::gtx780(),
            queue_capacity: 64,
            cache_capacity: 128,
            default_deadline_ms: None,
            watchdog_interval: None,
            integrity: IntegrityConfig::default(),
            fault_plan: None,
            trace: Tracer::default(),
            slo: SloConfig::default(),
            rebuild_policy: RebuildPolicy::default(),
            wal: None,
        }
    }
}

impl ServeConfig {
    /// Checks the service-level fields, returning the first defect (the
    /// engine-level ones are checked when [`Service::new`] derives the
    /// engine configuration).
    pub fn validate(&self) -> Result<(), String> {
        let positive = |field: &str, v: f64| {
            // NaN fails `>` too.
            if v > 0.0 {
                Ok(())
            } else {
                Err(format!("{field} must be positive, got {v}"))
            }
        };
        if let Some(ms) = self.default_deadline_ms {
            positive("default_deadline_ms", ms)?;
        }
        positive("slo.latency_objective_s", self.slo.latency_objective_s)?;
        for (field, target) in [
            ("slo.latency_target", self.slo.latency_target),
            ("slo.availability_target", self.slo.availability_target),
        ] {
            if target.is_nan() || target <= 0.0 || target > 1.0 {
                return Err(format!("{field} must be in (0, 1], got {target}"));
            }
        }
        Ok(())
    }
}

/// Per-lane deadline tracking at iteration boundaries.
///
/// Lane `l` expires at the first boundary whose modeled elapsed time
/// reaches `deadline_s[l]`; the run is cancelled (observer returns
/// `false` → [`EngineError::Deadline`]) only once *every* lane has
/// expired, so batch-mates of an expired query are never aborted.
struct DeadlineObserver {
    deadline_s: Vec<Option<f64>>,
    expired: Vec<Option<(u32, f64)>>,
}

impl RunObserver for DeadlineObserver {
    fn on_iteration(&mut self, iteration: u32, _updated: u64, elapsed_seconds: f64) -> bool {
        for (l, d) in self.deadline_s.iter().enumerate() {
            if self.expired[l].is_none() {
                if let Some(d) = d {
                    if elapsed_seconds >= *d {
                        self.expired[l] = Some((iteration, elapsed_seconds));
                    }
                }
            }
        }
        !self.expired.iter().all(Option::is_some)
    }
}

/// How one engine launch ended, per lane.
enum Outcome<V> {
    /// The run finished; lanes that expired on the way carry their expiry.
    Done {
        out: Box<CuShaOutput<V>>,
        expired: Vec<Option<(u32, f64)>>,
    },
    /// Every lane expired and the run was abandoned.
    AllExpired { expired: Vec<(u32, f64)> },
    /// An engine error that is not a device fault (watchdog,
    /// non-convergence, bad config): every lane settles `failed` with this
    /// reason.
    Typed { kind: &'static str, detail: String },
    /// A device fault surfaced past the device's own budget, or an OOM.
    FaultExhausted { detail: String },
}

/// One query's settled response: how it ended, and the line that says so
/// (rendered when it settles, emitted at flush end in arrival order).
struct Settled {
    outcome: QueryOutcome,
    cached: bool,
    line: String,
}

impl Settled {
    /// A response of status `outcome`: the id, op and status every response
    /// line carries, then the fields `rest` adds.
    fn new(q: &Query, outcome: QueryOutcome, rest: impl FnOnce(&mut ObjWriter<'_>)) -> Self {
        let line = obj_line(|o| {
            q.id.render(o.key("id"));
            o.str("op", q.op.label()).str("status", outcome.label());
            rest(o);
        });
        Settled {
            outcome,
            cached: false,
            line,
        }
    }

    /// `answer`, fresh from a launch or `cached`; its values if `q` asked.
    fn ok(q: &Query, answer: &CachedResult, cached: bool) -> Self {
        let fields = |o: &mut ObjWriter<'_>| {
            o.plain("iterations", answer.iterations)
                .f64("modeled_ms", answer.modeled_seconds * 1e3)
                .plain("cached", cached)
                .hex64("checksum", answer.checksum);
            if q.want_values {
                let out = o.key("values");
                out.push('[');
                for (i, &b) in answer.value_bits.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match q.op {
                        QueryOp::PageRank => push_f64(out, f32::from_bits(b as u32) as f64),
                        // Reach bitsets are u64 words; hex strings survive
                        // f64-based JSON parsers (like the checksum).
                        QueryOp::Reach { .. } => push_str_lit(out, &format!("{b:x}")),
                        _ => out.push_str(&(b as u32).to_string()),
                    }
                }
                out.push(']');
            }
        };
        Settled {
            cached,
            ..Settled::new(q, QueryOutcome::Ok, fields)
        }
    }

    /// The deadline expired after `iterations`, `elapsed_seconds` in.
    fn expired(q: &Query, (iterations, elapsed_seconds): (u32, f64)) -> Self {
        Settled::new(q, QueryOutcome::Deadline, |o| {
            o.plain("iterations", iterations)
                .f64("modeled_ms", elapsed_seconds * 1e3);
        })
    }

    /// A typed failure.
    fn failed(q: &Query, reason: &str, detail: &str) -> Self {
        Settled::new(q, QueryOutcome::Failed, |o| {
            o.str("reason", reason).str("detail", detail);
        })
    }
}

/// One launch the flush planner emits: which admitted queries ride it
/// (indices into the drained queue, in lane order), which program runs and
/// how lane `l`'s answer is cut from its output.
enum Planned {
    /// One or two same-kind traversals on a `FusedPair` (kernel `BFSx2`);
    /// lane `l`'s answer is `extract_lane(l)`.
    Fused(FusedPair, Vec<usize>),
    /// `reach` queries packed into one `MultiSourceBfs`; lane `l`'s answer
    /// is its bit range of every vertex word.
    Reach(Vec<usize>),
    /// One query on its own plain program (kernel `BFS`), whose whole output
    /// is the answer: a PageRank / CC refresh, or one lane of a multi-lane
    /// launch a device fault split.
    Solo(usize),
}

/// Serving facts about the launch that settled a lane, joined back to each
/// query at flush end; all zero but the clocks for a query no launch served.
#[derive(Clone, Debug, Default)]
struct LaneMeta {
    /// Monotonic launch id (the `serve_batches_total` counter value).
    batch_id: u64,
    /// Queries fused into the launch.
    batch_width: u32,
    /// Transient faults the launch's device absorbed in place (0 when a
    /// fault surfaced).
    retries: u32,
    /// Whether warm prepared state already existed before the launch.
    warm: bool,
    /// Service clock when the launch started (queue-wait anchor).
    launch_start: f64,
    /// Service clock when the launch settled (latency anchor).
    settle_clock: f64,
}

impl LaneMeta {
    /// The serving facts of a query no launch served, waiting from `start`
    /// until it settled at `settle_clock`.
    fn no_launch(launch_start: f64, settle_clock: f64) -> Self {
        LaneMeta {
            launch_start,
            settle_clock,
            ..LaneMeta::default()
        }
    }
}

/// A settled lane and the launch that settled it; `None` until then.
type Slot = Option<(Settled, LaneMeta)>;

/// An open rebuild window: from a committed mutation to the end of the next
/// flush.
#[derive(Default)]
struct Window {
    /// Keys whose prepared state was warm when a batch joined the window;
    /// the close rebuilds exactly these, once, however many batches the
    /// window covered.
    warm_keys: BTreeSet<Family>,
    /// Under `ServePrevious` only: the epoch before the window's first
    /// batch — the snapshot in-window queries are admitted, cache-keyed and
    /// run against.
    prev: Option<Epoch>,
}

/// The epoch queries are served from: the one a serve-previous window
/// keeps while it is open, the live one otherwise.
fn serving<'a>(live: &'a Epoch, window: &'a Option<Window>) -> &'a Epoch {
    window
        .as_ref()
        .and_then(|w| w.prev.as_ref())
        .unwrap_or(live)
}

/// The resident service: one loaded graph, warm layouts, a stream of
/// queries. Drive it with [`Service::handle_line`] (one input line →
/// zero or more response lines) or [`run_session`].
pub struct Service {
    cfg: ServeConfig,
    /// What every launch runs under, whichever epoch it runs on.
    engine: EngineConfig,
    /// The newest epoch: the one mutations land on.
    live: Epoch,
    /// Mutation epoch number: 0 at load (or the recovered epoch when a WAL
    /// replayed), +1 per committed batch.
    epoch: u64,
    /// Open from a committed mutation until the next flush closes it.
    window: Option<Window>,
    wal: Option<Wal>,
    /// What WAL recovery found at startup, when a WAL is configured.
    recovery: Option<RecoveryStats>,
    /// Set when an injected WAL crash point fired; the session stops
    /// cold, as a real crash would.
    crashed: Option<CrashPoint>,
    cache: ResultCache,
    queue: AdmissionQueue,
    metrics: MetricsRegistry,
    telemetry: Telemetry,
    assigned_ids: u64,
    clock: f64,
    shut_down: bool,
}

impl Service {
    /// Builds a service over `graph` (valid by construction); layouts are
    /// built lazily on first use per value size.
    ///
    /// When [`ServeConfig::wal`] is set, the log is opened (created
    /// fresh, or recovered: committed batches replayed on top of `graph`
    /// or the compaction snapshot, torn tails truncated) and the service
    /// starts at the recovered epoch — see [`Service::recovery`].
    pub fn new(graph: Graph, cfg: ServeConfig) -> Result<Self, String> {
        cfg.validate()?;
        let engine = EngineConfig::new(&cfg)?;
        cfg.trace.name_lane(0, lanes::SERVE, "service");
        cfg.trace.name_lane(0, lanes::MUTATE, "mutate");
        let (graph, epoch, wal, recovery) = match &cfg.wal {
            None => (graph, 0, None, None),
            Some(wc) => {
                let (wal, recovered, epoch, rs) =
                    Wal::open(&wc.path, &graph, wc.snapshot_every, wc.crash)
                        .map_err(|e| e.to_string())?;
                cusha_obs::log::write(
                    cusha_obs::log::Level::Info,
                    &format!(
                        "serve: wal recovery source={} replayed={} truncated_bytes={} \
                         discarded_uncommitted={} epoch={} rev={:016x}",
                        rs.source.label(),
                        rs.replayed_batches,
                        rs.truncated_bytes,
                        rs.discarded_uncommitted,
                        rs.epoch,
                        rs.rev
                    ),
                );
                (recovered, epoch, Some(wal), Some(rs))
            }
        };
        let cache = ResultCache::new(cfg.cache_capacity);
        let queue = AdmissionQueue::new(cfg.queue_capacity);
        let telemetry = Telemetry::new(cfg.slo);
        let mut metrics = MetricsRegistry::new();
        metrics.set_gauge("serve_epoch", &[], epoch as f64);
        if let Some(rs) = &recovery {
            metrics.add("serve_wal_replayed_batches_total", &[], rs.replayed_batches);
            metrics.add("serve_wal_truncated_bytes_total", &[], rs.truncated_bytes);
        }
        Ok(Service {
            cfg,
            engine,
            live: Epoch::new(graph),
            epoch,
            window: None,
            wal,
            recovery,
            crashed: None,
            cache,
            queue,
            metrics,
            telemetry,
            assigned_ids: 0,
            clock: 0.0,
            shut_down: false,
        })
    }

    /// The loaded graph's structural fingerprint.
    pub fn graph_rev(&self) -> u64 {
        self.live.rev()
    }

    /// The mutation epoch (0 at load, +1 per committed batch; recovered
    /// from the WAL on restart).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What WAL recovery found and did at startup (`None` without a WAL).
    pub fn recovery(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// The injected crash point that fired, if any. A crashed service
    /// stops processing input, exactly like a killed process.
    pub fn injected_crash(&self) -> Option<CrashPoint> {
        self.crashed
    }

    /// Whether `shutdown` (or EOF handling) has run.
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// The service's metrics registry (`serve_*` series plus the
    /// per-launch engine series).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The service's telemetry bundle (query records, SLO window, slow
    /// log).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Folds the tracer's drop counter into the metrics registry as the
    /// `obs_trace_dropped` counter. Call once before snapshotting — a
    /// saturated span ring is data loss the snapshot must show.
    pub fn sync_trace_drops(&mut self) {
        let dropped = self.cfg.trace.dropped_count();
        if dropped > 0 {
            self.metrics.add("obs_trace_dropped", &[], dropped);
        }
    }

    /// Handles one input line, returning the response lines it settles
    /// (possibly none: an admitted query settles at the next flush).
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        match parse_line(line) {
            Ok(Request::Empty) => Vec::new(),
            Ok(Request::Query(q)) => self.admit(q).into_iter().collect(),
            Ok(Request::Mutate(m)) => self.mutate(m),
            Ok(Request::Flush) => {
                let mut out = self.flush();
                let settled = out.len();
                out.push(obj_line(|o| {
                    o.str("status", "flushed").plain("settled", settled);
                }));
                out
            }
            Ok(Request::Stats) => vec![self.render_stats()],
            Ok(Request::Shutdown) => self.shutdown(),
            Err(msg) => vec![obj_line(|o| {
                o.str("status", "error")
                    .str("reason", "parse")
                    .str("detail", &msg);
            })],
        }
    }

    /// Flushes the queue and marks the service stopped. Idempotent.
    pub fn shutdown(&mut self) -> Vec<String> {
        if self.shut_down {
            return vec!["{\"status\":\"shutdown\"}".to_string()];
        }
        let mut out = self.flush();
        self.shut_down = true;
        out.push("{\"status\":\"shutdown\"}".to_string());
        out
    }

    /// Commits one mutation batch: implicit query flush (a clean epoch
    /// boundary — everything admitted settles under the epoch it was
    /// admitted to) → validate → WAL commit (the durable point, fsync
    /// cost charged to the modeled clock) → apply in memory → epoch +1,
    /// revision re-fingerprinted, rebuild window opened.
    fn mutate(&mut self, m: MutateRequest) -> Vec<String> {
        let mut id = m.id;
        if id == Json::Null {
            self.assigned_ids += 1;
            id = Json::Num(self.assigned_ids as f64);
        }
        if self.shut_down {
            return vec![self.refuse_mutation(&id, "rejected", "shutting-down")];
        }
        let mut out = self.flush_queries();
        let start = self.clock;
        // Validate against the live graph — mutations always land on the
        // newest epoch, even mid-window — and never grow it past what the
        // device holds for the widest served program: refused here, nothing
        // has been logged yet.
        let graph = self.live.graph();
        let admissible = m.batch.validate(graph).map_err(|e| e.to_string());
        let admissible = admissible.and_then(|valid| {
            let delta = valid.delta;
            let v = graph.num_vertices() as u64 + delta.grew_vertices as u64;
            let e = graph.num_edges() as u64 + delta.inserted as u64 - delta.deleted as u64;
            let key = self.engine.admit(v, e, ValueSizes::of::<FusedPair>());
            key.map(|_| valid).map_err(|e| e.to_string())
        });
        let valid = match admissible {
            Ok(valid) => valid,
            Err(why) => {
                out.push(self.refuse_mutation(&id, "invalid", &why));
                return out;
            }
        };
        let next_epoch = self.epoch + 1;
        if let Some(wal) = self.wal.as_mut() {
            let syncs_before = wal.stats().syncs;
            let committed = wal.commit_batch(next_epoch, &m.batch);
            self.clock += (wal.stats().syncs - syncs_before) as f64 * MODELED_FSYNC_S;
            match committed {
                Ok(()) => {}
                Err(WalError::InjectedCrash(p)) => {
                    self.crashed = Some(p);
                    self.metrics
                        .add("serve_mutations_total", &[("status", "crashed")], 1);
                    self.cfg
                        .trace
                        .instant(0, lanes::MUTATE, "serve", "injected-crash", self.clock);
                    // A killed process answers nothing; already-settled
                    // flush responses stand (they left before the crash).
                    return out;
                }
                Err(e) => {
                    out.push(self.refuse_mutation(&id, "wal-error", &e.to_string()));
                    return out;
                }
            }
        }
        // Committed. Whatever is warm now is what the window close rebuilds,
        // once, however many batches the window covers. The first batch of a
        // serve-previous window keeps the pre-mutation epoch serving, on the
        // layouts it has; otherwise the superseded layouts go before the new
        // ones are built.
        let serve_previous = self.cfg.rebuild_policy == RebuildPolicy::ServePrevious;
        let (old_rev, warm_keys) = (self.live.rev(), self.live.prepared().keys());
        let keep = serve_previous && self.window.is_none();
        let (delta, superseded) = self.live.apply(valid, keep);
        self.epoch = next_epoch;
        let window = self.window.get_or_insert_with(Window::default);
        window.warm_keys.extend(warm_keys);
        if let Some(prev) = &window.prev {
            window.warm_keys.extend(prev.prepared().keys());
        }
        if superseded.is_some() {
            window.prev = superseded;
        } else if !serve_previous {
            // Shed serves nothing in the window: the superseded revision's
            // cache entries go with its layouts.
            self.invalidate(old_rev);
        }
        if let Some(wal) = self.wal.as_mut() {
            let syncs_before = wal.stats().syncs;
            let noted = wal.note_applied(self.live.graph(), self.epoch);
            self.clock += (wal.stats().syncs - syncs_before) as f64 * MODELED_FSYNC_S;
            match noted {
                Ok(true) => self.metrics.add("serve_wal_snapshots_total", &[], 1),
                Ok(false) => {}
                // The batch is committed and applied; a failed compaction
                // costs replay time on restart, not correctness.
                Err(e) => cusha_obs::log::write(
                    cusha_obs::log::Level::Warn,
                    &format!("serve: wal compaction failed, continuing on full log: {e}"),
                ),
            }
        }
        self.metrics
            .add("serve_mutations_total", &[("status", "ok")], 1);
        self.metrics
            .add("serve_mutation_inserted_total", &[], delta.inserted as u64);
        self.metrics
            .add("serve_mutation_deleted_total", &[], delta.deleted as u64);
        self.metrics
            .set_gauge("serve_epoch", &[], self.epoch as f64);
        self.cfg.trace.complete(
            0,
            lanes::MUTATE,
            "serve",
            "mutate",
            start,
            self.clock - start,
        );
        out.push(obj_line(|o| {
            id.render(o.key("id"));
            o.str("op", "mutate")
                .str("status", "ok")
                .plain("epoch", self.epoch)
                .hex64("graph_rev", self.live.rev())
                .plain("inserted", delta.inserted)
                .plain("deleted", delta.deleted)
                .plain("grew_vertices", delta.grew_vertices);
        }));
        out
    }

    /// The one way a refused mutation leaves: counted by `status`, rendered.
    fn refuse_mutation(&mut self, id: &Json, status: &str, detail: &str) -> String {
        self.metrics
            .add("serve_mutations_total", &[("status", status)], 1);
        obj_line(|o| {
            id.render(o.key("id"));
            o.str("op", "mutate")
                .str("status", "error")
                .str("reason", status)
                .str("detail", detail);
        })
    }

    /// Drops every cache entry keyed on the superseded revision `rev`.
    fn invalidate(&mut self, rev: u64) {
        let dropped = self.cache.invalidate_rev(rev);
        if dropped > 0 {
            self.metrics
                .add("serve_cache_invalidated_total", &[], dropped as u64);
        }
    }

    /// Admits (or immediately settles) one query. Returns a response line
    /// for cache hits, rejections and invalid sources; `None` when the
    /// query is queued for the next flush.
    fn admit(&mut self, mut q: Query) -> Option<String> {
        self.metrics.add("serve_queries_total", &[], 1);
        if q.id == Json::Null {
            self.assigned_ids += 1;
            q.id = Json::Num(self.assigned_ids as f64);
        }
        if let Some(reason) = self.validate_query(&q.op) {
            return Some(self.shed(&q, reason));
        }
        if self.shut_down {
            return Some(self.shed(&q, ShedReason::ShuttingDown));
        }
        if self.window.is_some() && self.cfg.rebuild_policy == RebuildPolicy::Shed {
            return Some(self.shed(&q, ShedReason::Rebuilding));
        }
        // Cache pass: a hit settles at the door without queue or device.
        let key = self.query_key(&q.op);
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.add("serve_cache_hits_total", &[], 1);
            let settled = Settled::ok(&q, &hit, true);
            return Some(self.respond_at_the_door(&q, settled));
        }
        self.metrics.add("serve_cache_misses_total", &[], 1);
        match self.queue.admit(q.clone(), self.clock) {
            Ok(_) => {
                self.metrics
                    .set_gauge("serve_queue_depth", &[], self.queue.depth() as f64);
                None
            }
            Err(reason) => Some(self.shed(&q, reason)),
        }
    }

    fn shed(&mut self, q: &Query, reason: ShedReason) -> String {
        self.metrics
            .add("serve_shed_total", &[("reason", reason.label())], 1);
        self.cfg
            .trace
            .instant(0, lanes::SERVE, "serve", "shed", self.clock);
        let rejected = Settled::new(q, QueryOutcome::Rejected, |o| {
            o.str("reason", reason.label());
        });
        self.respond_at_the_door(q, rejected)
    }

    /// Responds to a query that never launched — a cache hit or a shed — in
    /// zero modeled time.
    fn respond_at_the_door(&mut self, q: &Query, settled: Settled) -> String {
        let no_launch = LaneMeta::no_launch(self.clock, self.clock);
        self.respond(q, settled, (0, self.clock), &no_launch)
    }

    /// The one way a query leaves the service: counted by status, recorded
    /// in the telemetry bundle, rendered. `admitted` is its (sequence number,
    /// admission clock), `meta` the launch that settled it.
    fn respond(
        &mut self,
        q: &Query,
        settled: Settled,
        (seq, admit_clock): (u64, f64),
        meta: &LaneMeta,
    ) -> String {
        let outcome = settled.outcome;
        self.metrics
            .add("serve_responses_total", &[("status", outcome.label())], 1);
        if outcome == QueryOutcome::Deadline {
            self.metrics.add("serve_deadline_cancelled_total", &[], 1);
        }
        // Latency spans admission to the settling launch's end; queue wait
        // spans admission to that launch's start (both in modeled seconds,
        // so later lanes in a flush accrue the time earlier launches spent
        // running). A rejection has no meaningful latency: no slack, no
        // histogram sample.
        let served = outcome != QueryOutcome::Rejected;
        let latency_s = (meta.settle_clock - admit_clock).max(0.0);
        let queue_wait_s = (meta.launch_start - admit_clock).max(0.0);
        if served {
            self.metrics
                .observe("serve_query_latency_seconds", &[], latency_s);
            self.metrics
                .observe("serve_queue_wait_seconds", &[], queue_wait_s);
        }
        let deadline = self.deadline_of(q).filter(|_| served);
        self.telemetry.record(QueryRecord {
            seq,
            op: q.op.label(),
            queue_wait_s,
            batch_id: meta.batch_id,
            batch_width: meta.batch_width,
            warm: meta.warm,
            cache_hit: settled.cached,
            retries: meta.retries,
            latency_s,
            deadline_slack_s: deadline.map(|d| d - latency_s),
            outcome,
        });
        settled.line
    }

    fn validate_query(&self, op: &QueryOp) -> Option<ShedReason> {
        let n = serving(&self.live, &self.window).graph().num_vertices();
        match op {
            QueryOp::Traversal { source, .. } => (*source >= n).then_some(ShedReason::BadSource),
            QueryOp::Reach { sources } => {
                if sources.is_empty() || sources.len() > 64 {
                    Some(ShedReason::BadSourceSet)
                } else if sources.iter().any(|&s| s >= n) {
                    Some(ShedReason::BadSource)
                } else {
                    None
                }
            }
            QueryOp::PageRank | QueryOp::ConnectedComponents => None,
        }
    }

    fn query_key(&self, op: &QueryOp) -> String {
        let rev = serving(&self.live, &self.window).rev();
        let integ = self.cfg.integrity.mode.label();
        match op {
            QueryOp::Traversal { kind, source } => cache_key(rev, kind.label(), &[*source], integ),
            QueryOp::Reach { sources } => cache_key(rev, "reach", sources, integ),
            QueryOp::PageRank => cache_key(rev, "pagerank", &[], integ),
            QueryOp::ConnectedComponents => cache_key(rev, "cc", &[], integ),
        }
    }

    /// Runs everything queued (responses in arrival order), then closes
    /// any open rebuild window: the new epoch's layouts are rebuilt warm,
    /// the previous epoch is dropped, and every superseded revision is
    /// invalidated from the cache.
    pub fn flush(&mut self) -> Vec<String> {
        let responses = self.flush_queries();
        self.close_window();
        responses
    }

    /// Ends the rebuild window opened by a committed mutation: drops the
    /// previous epoch, rebuilds (warm) exactly the prepared state that was
    /// warm before the window, and invalidates superseded revisions.
    fn close_window(&mut self) {
        let Some(window) = self.window.take() else {
            return;
        };
        // The only superseded revision with cache entries is the one the
        // window served: nothing was ever keyed on the revisions between it
        // and the live one. Its layouts go before the new ones are built.
        if let Some(prev) = window.prev {
            self.invalidate(prev.rev());
        }
        for &key in &window.warm_keys {
            self.live.ready(&self.engine, key);
        }
        if !window.warm_keys.is_empty() {
            let rebuilt = window.warm_keys.len() as u64;
            self.metrics.add("serve_rebuilds_total", &[], rebuilt);
        }
        self.cfg
            .trace
            .instant(0, lanes::MUTATE, "serve", "window-close", self.clock);
    }

    /// Settles everything queued without closing the rebuild window, so
    /// consecutive mutation batches amortize a single rebuild: drain, plan,
    /// launch and settle, render. Launches run on the serving epoch — the
    /// snapshot the queries were admitted and cache-keyed against.
    fn flush_queries(&mut self) -> Vec<String> {
        let admitted = self.queue.drain();
        self.metrics.set_gauge("serve_queue_depth", &[], 0.0);
        if admitted.is_empty() {
            return Vec::new();
        }
        let flush_start = self.clock;
        self.metrics.add("serve_flushes_total", &[], 1);
        self.metrics
            .set_gauge("serve_inflight", &[], admitted.len() as f64);
        let mut slots: Vec<Slot> = admitted.iter().map(|_| None).collect();
        for planned in plan_flush(&admitted) {
            self.run_planned(planned, &admitted, &mut slots);
        }

        self.metrics.set_gauge("serve_inflight", &[], 0.0);
        self.metrics
            .set_gauge("serve_clock_seconds", &[], self.clock);
        self.cfg.trace.complete(
            0,
            lanes::SERVE,
            "serve",
            "flush",
            flush_start,
            self.clock - flush_start,
        );
        let mut responses = Vec::with_capacity(admitted.len());
        for (a, slot) in admitted.iter().zip(slots) {
            // Every admitted query settles exactly once; a lane no launch
            // claimed is an internal bug that must shed that one query
            // with a typed response, not take the service down.
            let (settled, meta) = slot.unwrap_or_else(|| {
                self.metrics.add("serve_internal_errors_total", &[], 1);
                let detail = "admitted query was never settled by any launch";
                let failed = Settled::failed(&a.query, "internal", detail);
                (failed, LaneMeta::no_launch(flush_start, self.clock))
            });
            responses.push(self.respond(&a.query, settled, (a.seq, a.admit_clock), &meta));
        }
        responses
    }

    fn deadline_of(&self, q: &Query) -> Option<f64> {
        q.deadline_ms
            .or(self.cfg.default_deadline_ms)
            .map(|ms| ms / 1e3)
    }

    /// One engine launch on the serving epoch: prepares the warm state the
    /// program needs (a cold launch builds it), then runs once — the device
    /// re-issues its own transient faults. `deadlines` has one slot per lane;
    /// the observer state feeds per-lane settlement.
    fn launch<P: VertexProgram>(
        &mut self,
        prog: &P,
        deadlines: &[Option<f64>],
    ) -> (Outcome<P::V>, LaneMeta) {
        let epoch = serving(&self.live, &self.window);
        let launch_start = self.clock;
        let (v, e) = (epoch.graph().num_vertices(), epoch.graph().num_edges());
        let key = match self.engine.admit(v as u64, e as u64, ValueSizes::of::<P>()) {
            Ok(key) => key,
            // A graph the device cannot hold launches nothing.
            Err(e) => {
                let (kind, detail) = (e.kind(), e.to_string());
                let no_launch = LaneMeta::no_launch(launch_start, launch_start);
                return (Outcome::Typed { kind, detail }, no_launch);
            }
        };
        let (ready, built) = epoch.ready(&self.engine, key);
        let warm = !built;
        self.metrics.add("serve_batches_total", &[], 1);
        let batch_id = self
            .metrics
            .counter("serve_batches_total", &[])
            .unwrap_or(1);
        self.metrics
            .observe("serve_batch_width", &[], deadlines.len() as f64);
        if !warm {
            self.metrics.add("serve_cold_launches_total", &[], 1);
        }
        let mut observer = DeadlineObserver {
            deadline_s: deadlines.to_vec(),
            expired: vec![None; deadlines.len()],
        };
        let ran = ready.run(prog, self.cfg.fault_plan.as_mut(), &mut observer);
        let (outcome, retries) = match ran {
            Ok(out) => {
                let (stats, scope) = (&out.stats, [("scope", "serve")]);
                self.clock += stats.total_seconds();
                self.metrics
                    .observe("serve_query_modeled_seconds", &[], stats.total_seconds());
                stats.fault.record_metrics(&mut self.metrics, &scope);
                stats.sdc.record_metrics(&mut self.metrics, &scope);
                let retries = stats.fault.copy_retries + stats.fault.kernel_retries;
                let (out, expired) = (Box::new(out), observer.expired);
                (Outcome::Done { out, expired }, retries)
            }
            Err(EngineError::Deadline {
                iterations,
                elapsed_seconds,
            }) => {
                self.clock += elapsed_seconds;
                let expired = observer.expired.into_iter();
                let expired = expired.map(|e| e.unwrap_or((iterations, elapsed_seconds)));
                let expired = expired.collect();
                (Outcome::AllExpired { expired }, 0)
            }
            Err(
                e @ (EngineError::CopyFault { .. }
                | EngineError::KernelFault { .. }
                | EngineError::DeviceOom { .. }),
            ) => {
                let detail = e.to_string();
                (Outcome::FaultExhausted { detail }, 0)
            }
            Err(e) => {
                let (kind, detail) = (e.kind(), e.to_string());
                (Outcome::Typed { kind, detail }, 0)
            }
        };
        let meta = LaneMeta {
            batch_id,
            batch_width: deadlines.len() as u32,
            retries,
            warm,
            launch_start,
            settle_clock: self.clock,
        };
        (outcome, meta)
    }

    /// Drops the serving epoch's warm state after an unrecoverable fault so
    /// later queries see a clean slate: it is rebuilt on demand; verified
    /// cache entries stay (their keys pin the graph revision and they were
    /// settled before the fault).
    fn scrub(&mut self) {
        serving(&self.live, &self.window).scrub();
        self.metrics.add("serve_scrubs_total", &[], 1);
        self.cfg
            .trace
            .instant(0, lanes::SERVE, "serve", "scrub", self.clock);
        cusha_obs::log::write(
            cusha_obs::log::Level::Warn,
            "serve: scrubbed warm layouts after a device fault past its budget",
        );
    }

    /// Builds the program a planned launch runs and hands it, with the rule
    /// that cuts lane `l`'s answer out of its output, to the one settle path.
    fn run_planned(&mut self, planned: Planned, admitted: &[Admitted], slots: &mut [Slot]) {
        match planned {
            Planned::Fused(prog, lanes) => {
                let cut = |values: &[(u32, u32)], lane| {
                    let lane_values = extract_lane(values, lane);
                    lane_values.iter().map(|v| v.to_bits()).collect()
                };
                self.launch_and_settle(&prog, &lanes, cut, admitted, slots);
            }
            Planned::Reach(lanes) => {
                let mut all_sources: Vec<u32> = Vec::new();
                let mut ranges: Vec<(usize, usize)> = Vec::new(); // (lo bit, width)
                for &i in &lanes {
                    let QueryOp::Reach { sources } = &admitted[i].query.op else {
                        unreachable!("the planner puts only reach queries on a reach launch");
                    };
                    ranges.push((all_sources.len(), sources.len()));
                    all_sources.extend_from_slice(sources);
                }
                let cut = |values: &[u64], lane: usize| {
                    let (lo, width) = ranges[lane];
                    let mask = if width == 64 {
                        u64::MAX
                    } else {
                        (1u64 << width) - 1
                    };
                    values.iter().map(|v| (v >> lo) & mask).collect()
                };
                let prog = MultiSourceBfs::new(all_sources);
                self.launch_and_settle(&prog, &lanes, cut, admitted, slots);
            }
            Planned::Solo(i) => match &admitted[i].query.op {
                &QueryOp::Traversal { kind, source } => match kind {
                    TraversalKind::Bfs => self.solo(&Bfs::new(source), i, admitted, slots),
                    TraversalKind::Sssp => self.solo(&Sssp::new(source), i, admitted, slots),
                    TraversalKind::Sswp => self.solo(&Sswp::new(source), i, admitted, slots),
                },
                // Alone, a `reach` sets only its own `sources.len()` low bits:
                // its whole output is its bit range.
                QueryOp::Reach { sources } => {
                    self.solo(&MultiSourceBfs::new(sources.clone()), i, admitted, slots)
                }
                QueryOp::PageRank => self.solo(&PageRank::new(), i, admitted, slots),
                QueryOp::ConnectedComponents => {
                    self.solo(&ConnectedComponents::new(), i, admitted, slots)
                }
            },
        }
    }

    /// A one-lane launch whose whole output, as value bits, is the answer.
    fn solo<P: VertexProgram>(
        &mut self,
        prog: &P,
        i: usize,
        admitted: &[Admitted],
        slots: &mut [Slot],
    ) {
        let whole = |values: &[P::V], _lane| values.iter().map(|v| v.to_bits()).collect();
        self.launch_and_settle(prog, &[i], whole, admitted, slots);
    }

    /// The one settle path: launches `prog` for the admitted queries
    /// `lanes` and turns the outcome into one settled slot per lane —
    /// per-lane expiry, cache fill, typed failure. A multi-lane launch whose
    /// device fault surfaced is split instead: each lane re-runs alone, so
    /// only the genuinely poisoned query fails; a faulted single lane
    /// settles `failed` and the warm state is scrubbed.
    fn launch_and_settle<P: VertexProgram>(
        &mut self,
        prog: &P,
        lanes: &[usize],
        cut: impl Fn(&[P::V], usize) -> Vec<u64>,
        admitted: &[Admitted],
        slots: &mut [Slot],
    ) {
        let deadlines: Vec<Option<f64>> = lanes
            .iter()
            .map(|&i| self.deadline_of(&admitted[i].query))
            .collect();
        let (outcome, meta) = self.launch(prog, &deadlines);
        let query = |i: usize| &admitted[i].query;
        match outcome {
            Outcome::Done { out, expired: at } => {
                let (iterations, modeled_seconds) =
                    (out.stats.iterations, out.stats.total_seconds());
                for (lane, &i) in lanes.iter().enumerate() {
                    let settled = match at[lane] {
                        Some(expiry) => Settled::expired(query(i), expiry),
                        None => {
                            let value_bits = cut(&out.values, lane);
                            let answer = CachedResult {
                                iterations,
                                modeled_seconds,
                                checksum: checksum(&value_bits),
                                value_bits,
                            };
                            let settled = Settled::ok(query(i), &answer, false);
                            self.cache.put(self.query_key(&query(i).op), answer);
                            settled
                        }
                    };
                    slots[i] = Some((settled, meta.clone()));
                }
            }
            Outcome::AllExpired { expired: at } => {
                for (lane, &i) in lanes.iter().enumerate() {
                    slots[i] = Some((Settled::expired(query(i), at[lane]), meta.clone()));
                }
            }
            Outcome::Typed { kind, detail } => {
                for &i in lanes {
                    slots[i] = Some((Settled::failed(query(i), kind, &detail), meta.clone()));
                }
            }
            Outcome::FaultExhausted { detail } => {
                if let [i] = *lanes {
                    let failed = Settled::failed(query(i), "fault-exhausted", &detail);
                    slots[i] = Some((failed, meta));
                    self.scrub();
                } else {
                    // Blast-radius isolation: re-run each query alone so
                    // only the poisoned one fails.
                    self.metrics.add("serve_splits_total", &[], 1);
                    for &i in lanes {
                        self.run_planned(Planned::Solo(i), admitted, slots);
                    }
                }
            }
        }
    }

    fn render_stats(&mut self) -> String {
        let (hits, misses) = self.cache.hit_miss();
        let shed: u64 = ShedReason::ALL
            .iter()
            .filter_map(|r| {
                self.metrics
                    .counter("serve_shed_total", &[("reason", r.label())])
            })
            .sum();
        let hit_rate = match hits + misses {
            0 => 0.0,
            looked_up => hits as f64 / looked_up as f64,
        };
        // Live latency quantiles out of the log-bucketed histogram.
        let (p50, p99) = self
            .metrics
            .histogram("serve_query_latency_seconds", &[])
            .map_or((0.0, 0.0), |h| (h.quantile(0.5), h.quantile(0.99)));
        let (slo, slowest) = (&self.telemetry.slo, self.telemetry.slow.entries().first());
        obj_line(|o| {
            o.str("status", "stats")
                .plain("epoch", self.epoch)
                .hex64("graph_rev", self.live.rev())
                .plain("rebuilding", self.window.is_some())
                .plain("queue_depth", self.queue.depth())
                .plain("admitted", self.queue.admitted_total())
                .plain("shed", shed)
                .plain("cache_hits", hits)
                .plain("cache_misses", misses)
                .plain("cache_entries", self.cache.len())
                .f64("cache_hit_rate", hit_rate)
                .f64("latency_p50_ms", p50 * 1e3)
                .f64("latency_p99_ms", p99 * 1e3);
            push_obj(o.key("slo"), |o| {
                o.f64(
                    "latency_objective_ms",
                    slo.config().latency_objective_s * 1e3,
                )
                .f64("latency_target", slo.config().latency_target)
                .f64("availability_target", slo.config().availability_target)
                .plain("window", slo.window_len())
                .f64("latency_burn_rate", slo.latency_burn_rate())
                .f64("error_burn_rate", slo.error_burn_rate());
            });
            o.f64("slowest_ms", slowest.map_or(0.0, |r| r.latency_s * 1e3))
                .plain("query_log_dropped", self.telemetry.log.dropped())
                .f64("clock_ms", self.clock * 1e3);
        })
    }
}

/// One response line: a compact JSON object.
fn obj_line(fields: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut line = String::new();
    push_obj(&mut line, fields);
    line
}

/// The flush planner: the launches one flush makes, in launch order, as
/// data. The order is part of the contract — the service clock and the batch
/// ids follow from it.
fn plan_flush(admitted: &[Admitted]) -> Vec<Planned> {
    let mut plan = Vec::new();
    // Valued traversals, fused two-per-launch per kind, in arrival order.
    for kind in [TraversalKind::Bfs, TraversalKind::Sssp, TraversalKind::Sswp] {
        let of_kind: Vec<(usize, u32)> = admitted
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a.query.op {
                QueryOp::Traversal { kind: k, source } if k == kind => Some((i, source)),
                _ => None,
            })
            .collect();
        for pair in of_kind.chunks(2) {
            let sources = [Some(pair[0].1), pair.get(1).map(|p| p.1)];
            let lanes = pair.iter().map(|p| p.0).collect();
            plan.push(Planned::Fused(FusedPair::new(kind, sources), lanes));
        }
    }
    // Reach queries, bitset-packed greedily up to 64 sources per launch.
    let mut group: Vec<usize> = Vec::new();
    let mut group_bits = 0usize;
    for (i, a) in admitted.iter().enumerate() {
        let QueryOp::Reach { sources } = &a.query.op else {
            continue;
        };
        if group_bits + sources.len() > 64 && !group.is_empty() {
            plan.push(Planned::Reach(std::mem::take(&mut group)));
            group_bits = 0;
        }
        group.push(i);
        group_bits += sources.len();
    }
    if !group.is_empty() {
        plan.push(Planned::Reach(group));
    }
    // Whole-graph refreshes, one launch each, in arrival order.
    for (i, a) in admitted.iter().enumerate() {
        if matches!(a.query.op, QueryOp::PageRank | QueryOp::ConnectedComponents) {
            plan.push(Planned::Solo(i));
        }
    }
    plan
}

/// Drives a service over line-based input/output until EOF, shutdown, or
/// an injected crash. EOF without an explicit `shutdown` still flushes
/// pending queries, so scripted sessions never lose admitted work — but
/// an injected crash stops the session cold with no drain and no
/// shutdown line, exactly like a killed process.
pub fn run_session<R: std::io::BufRead, W: std::io::Write>(
    service: &mut Service,
    input: R,
    output: &mut W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        for response in service.handle_line(&line) {
            writeln!(output, "{response}")?;
        }
        output.flush()?;
        if service.is_shut_down() || service.injected_crash().is_some() {
            return Ok(());
        }
    }
    for response in service.shutdown() {
        writeln!(output, "{response}")?;
    }
    output.flush()
}
