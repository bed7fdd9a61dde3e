//! `serve_read` and `serve_mutate`: one resident `Service` per pass, fed
//! wire-protocol lines through `handle_line` by a single closed-loop client.

use crate::harness::{percentile, timed_ms, HostReference, Metrics, Rng, Spans, HARNESS};
use crate::workload::{
    distinct_sources, hubs_first, op_medians, oracle_traversal, pooled, seeded_rmat, Pass,
    ProbeInputs, Workload, PROBE_MATRIX_SCALE,
};
use cusha::algos::TraversalKind;
use cusha::core::integrity::checksum;
use cusha::graph::{fingerprint, Graph, MutationBatch, VertexId};
use cusha::obs::Json;
use cusha::serve::{parse_json, ServeConfig, Service, WalConfig};
use std::path::{Path, PathBuf};

const KINDS: [TraversalKind; 3] = [TraversalKind::Bfs, TraversalKind::Sssp, TraversalKind::Sswp];

/// One scripted query with the checksum its response must carry.
struct Query {
    kind: TraversalKind,
    source: VertexId,
    line: String,
    checksum: String,
}

fn query_line(id: usize, kind: TraversalKind, source: VertexId) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"{}\",\"source\":{source}}}",
        kind.label()
    )
}

fn query(id: usize, kind: TraversalKind, source: VertexId, g: &Graph) -> Query {
    let (values, _) = oracle_traversal(g, kind, source);
    let bits: Vec<u64> = values.iter().map(|&v| u64::from(v)).collect();
    Query {
        kind,
        source,
        line: query_line(id, kind, source),
        checksum: format!("{:016x}", checksum(&bits)),
    }
}

/// What a settled query response said, after the timed region.
struct Settled {
    ok: bool,
    cached: bool,
    iterations: u64,
    modeled_ms: f64,
}

/// Parses one response line and checks it against the scripted query of
/// the same id: settled `ok`, oracle checksum, expected cache state.
fn verify(line: &str, script: &[Query], id_base: usize, want_cached: bool) -> Option<Settled> {
    let v = parse_json(line).ok()?;
    let id = v.get("id")?.as_u64()? as usize;
    let q = script.get(id.checked_sub(id_base)?)?;
    let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let ok = v.get("status").and_then(Json::as_str) == Some("ok")
        && v.get("checksum").and_then(Json::as_str) == Some(q.checksum.as_str())
        && cached == want_cached;
    Some(Settled {
        ok,
        cached,
        iterations: v.get("iterations").and_then(Json::as_u64).unwrap_or(0),
        modeled_ms: v.get("modeled_ms").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Books a phase's responses into the pass: every scripted query must have
/// settled exactly once, correctly.
fn book_responses(
    pass: &mut Pass,
    responses: &[String],
    script: &[Query],
    id_base: usize,
    want_cached: bool,
    edges: u64,
) {
    let mut seen = 0;
    for line in responses.iter().filter(|l| l.contains("\"id\":")) {
        let settled = verify(line, script, id_base, want_cached);
        let ok = settled.as_ref().is_some_and(|s| s.ok);
        if !ok {
            eprintln!("ledger: response fails its check (cached must be {want_cached}): {line}");
        }
        pass.book_op(ok);
        seen += 1;
        if let Some(s) = settled.filter(|s| s.ok && !s.cached) {
            pass.counts.iterations += s.iterations;
            pass.edge_iters += s.iterations * edges;
            pass.modeled_ms += s.modeled_ms;
        }
    }
    // A query the service never answered is a failed operation too.
    for _ in seen..script.len() {
        pass.book_op(false);
    }
}

/// Folds the service's own counters into the pass's deterministic counts.
fn book_service_counters(pass: &mut Pass, svc: &Service) {
    let m = svc.metrics();
    let counter = |name: &str| m.counter(name, &[]).unwrap_or(0);
    pass.counts.launches = counter("serve_batches_total");
    pass.counts.cache_hits = counter("serve_cache_hits_total");
    pass.counts.wal_commits = m
        .counter("serve_mutations_total", &[("status", "ok")])
        .unwrap_or(0);
    pass.sample("cold_launches", counter("serve_cold_launches_total") as f64);
    pass.sample(
        "fused_launch_share",
        m.histogram("serve_batch_width", &[])
            .map_or(0.0, |h| h.mean() - 1.0),
    );
    let shed: u64 = [
        "queue-full",
        "bad-source",
        "bad-source-set",
        "shutting-down",
        "rebuilding",
    ]
    .iter()
    .filter_map(|r| m.counter("serve_shed_total", &[("reason", r)]))
    .sum();
    pass.sample("shed_count", shed as f64);
}

/// Tells glibc to keep 64 MB of freed heap in the process (`M_TOP_PAD`), the
/// way a resident service is commonly deployed. The service builds a `Gpu`
/// and several MB of device buffers per launch and frees them after it; with
/// default settings glibc hands that memory back to the kernel and the next
/// launch faults every page in again, which in this guest is a third of a
/// `serve_read` pass and slows three times as much as the rest of the
/// program when the host is busy. A no-op where the allocator is not glibc.
fn keep_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TOP_PAD: i32 = -2;
        // SAFETY: `mallopt` sets one allocator parameter and touches no
        // memory of ours; this runs before the process has a second thread.
        let accepted = unsafe { mallopt(M_TOP_PAD, 64 << 20) };
        assert!(accepted == 1, "glibc refused M_TOP_PAD");
    }
}

/// Opens a service and answers one query from `warm`, which builds the
/// layout every later launch reuses (the service runs a lone traversal as a
/// one-lane fused pair, so there is one layout). Returns the open and
/// first-answer host milliseconds.
fn open_warm(graph: &Graph, cfg: &ServeConfig, warm: VertexId) -> (Service, f64, f64) {
    let (new_ms, svc) = timed_ms(|| Service::new(graph.clone(), cfg.clone()));
    let mut svc = svc.expect("generated graph and default config are valid");
    let (first_ms, ()) = timed_ms(|| {
        svc.handle_line(&format!("bfs {warm}"));
        svc.handle_line("flush");
    });
    (svc, new_ms, first_ms)
}

/// The opening query's source: the biggest hub.
fn warm_source(g: &Graph) -> VertexId {
    hubs_first(g)[0]
}

/// Per-layer metrics both serve workloads read off their passes.
fn common_layer_metrics(passes: &[Pass], out: &mut Metrics) {
    for sample in [
        "service_new_ms",
        "first_query_ms",
        "cold_launches",
        "fused_launch_share",
        "shed_count",
    ] {
        out.put_median(&format!("serve.{sample}"), &pooled(passes, sample));
    }
    let ops = op_medians(passes);
    out.put("serve.query_ms_p95", percentile(&ops, 0.95), ops.len());
}

/// Warm read path: no load and no layout build after the opening queries,
/// so per-query fixed costs are a visible share.
pub struct ServeRead {
    graph: Graph,
    seed: u64,
    tmp: PathBuf,
    cfg: ServeConfig,
    warm: VertexId,
    batch_width: usize,
    /// `solo`: distinct sources, each flushed alone — no fusion, no cache.
    solo: Vec<Query>,
    /// `batch`: distinct sources, sixteen per flush — fused pairs.
    batch: Vec<Query>,
    /// `hot`: repeats of the batch phase's last answers — cache hits.
    hot: Vec<Query>,
}

/// Distinct (source, kind) pairs the hot phase cycles over; they are the
/// last this-many answers of the batch phase, so they are still in the
/// 128-entry cache when the phase starts.
const HOT_SET: usize = 32;

/// Phase lengths of a `serve_read` script.
pub struct ReadScript {
    pub solo: usize,
    pub batches: usize,
    pub batch_width: usize,
    pub hot: usize,
}

impl ServeRead {
    pub fn setup(seed: u64, quick: bool, tmp: &Path) -> Self {
        keep_freed_heap();
        let script = ReadScript {
            solo: if quick { 16 } else { 48 },
            batches: if quick { 2 } else { 5 },
            batch_width: 16,
            hot: if quick { 64 } else { 160 },
        };
        Self::on(seeded_rmat(13, 200_000, seed, quick), seed, &script, tmp)
    }

    /// The script at the given phase lengths over any graph; the per-layer
    /// probes run a short one on every workload's own input.
    pub fn on(graph: Graph, seed: u64, script: &ReadScript, tmp: &Path) -> Self {
        let (solo_n, hot_n) = (script.solo, script.hot);
        let batch_n = script.batches * script.batch_width;
        let mut rng = Rng(seed ^ 0x5e_72ea);
        // The opening queries' answers are in the cache; a scripted query
        // for the same source would be a hit where the script expects none.
        let warm = warm_source(&graph);
        let sources = distinct_sources(&graph, solo_n + batch_n, &[warm], &mut rng);
        assert!(
            sources.len() == solo_n + batch_n,
            "graph too small for a distinct-source script"
        );
        let make = |id: usize| query(id, KINDS[id % KINDS.len()], sources[id], &graph);
        let solo: Vec<Query> = (0..solo_n).map(make).collect();
        let batch: Vec<Query> = (solo_n..solo_n + batch_n).map(make).collect();
        let hot_from = batch_n - HOT_SET.min(batch_n);
        let hot: Vec<Query> = (0..hot_n)
            .map(|i| {
                // Same request, fresh id: the response must come from the
                // cache and still carry the oracle checksum.
                let b = &batch[hot_from + i % (batch_n - hot_from)];
                Query {
                    line: query_line(solo_n + batch_n + i, b.kind, b.source),
                    checksum: b.checksum.clone(),
                    ..*b
                }
            })
            .collect();
        let cfg = ServeConfig {
            cache_capacity: 128,
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        ServeRead {
            warm,
            graph,
            seed,
            tmp: tmp.to_path_buf(),
            cfg,
            batch_width: script.batch_width,
            solo,
            batch,
            hot,
        }
    }
}

impl Workload for ServeRead {
    fn pass(&mut self, spans: &mut Spans, host: &mut HostReference) -> Pass {
        let mut pass = Pass::default();
        let edges = u64::from(self.graph.num_edges());
        let (mut svc, new_ms, first_ms) = open_warm(&self.graph, &self.cfg, self.warm);
        pass.sample("service_new_ms", new_ms);
        pass.sample("first_query_ms", first_ms);
        let before_hits = svc.metrics().counter("serve_cache_hits_total", &[]);

        let mut solo_out = Vec::with_capacity(self.solo.len());
        let mut batch_out = Vec::new();
        let mut hot_out = Vec::with_capacity(self.hot.len());
        let (wall_ms, ()) = timed_ms(|| {
            spans.scope(HARNESS, "pass", |s| {
                for q in &self.solo {
                    let (ms, ()) = timed_ms(|| {
                        solo_out.extend(s.scope("serve", "admit", |_| svc.handle_line(&q.line)));
                        solo_out.extend(s.scope("serve", "flush", |_| svc.handle_line("flush")));
                    });
                    pass.op_ms.push(ms);
                    host.tick();
                }
                for chunk in self.batch.chunks(self.batch_width) {
                    for q in chunk {
                        batch_out.extend(s.scope("serve", "admit", |_| svc.handle_line(&q.line)));
                    }
                    let (ms, out) =
                        timed_ms(|| s.scope("serve", "flush", |_| svc.handle_line("flush")));
                    batch_out.extend(out);
                    pass.sample("flush_ms", ms);
                    host.tick();
                }
                for q in &self.hot {
                    let (ms, out) =
                        timed_ms(|| s.scope("serve", "admit", |_| svc.handle_line(&q.line)));
                    hot_out.extend(out);
                    pass.sample("cache_hit_us", ms * 1e3);
                }
            })
        });
        pass.wall_s = wall_ms / 1e3;

        book_responses(&mut pass, &solo_out, &self.solo, 0, false, edges);
        book_responses(
            &mut pass,
            &batch_out,
            &self.batch,
            self.solo.len(),
            false,
            edges,
        );
        let hot_base = self.solo.len() + self.batch.len();
        book_responses(&mut pass, &hot_out, &self.hot, hot_base, true, edges);
        book_service_counters(&mut pass, &svc);
        // The opening queries are distinct sources: any hit before the hot
        // phase would mean `solo` or `batch` was served from the cache.
        let hits = pass.counts.cache_hits - before_hits.unwrap_or(0);
        pass.sample("hot_hit_ratio", hits as f64 / self.hot.len().max(1) as f64);
        pass
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            graph: &self.graph,
            source: self.warm,
            seed: self.seed,
            tmp: self.tmp.clone(),
            matrix_scale: PROBE_MATRIX_SCALE,
        }
    }

    fn layer_metrics(&self, passes: &[Pass], out: &mut Metrics) {
        common_layer_metrics(passes, out);
        out.put_median("serve.flush_ms_p50", &pooled(passes, "flush_ms"));
        out.put_median("serve.cache_hit_us", &pooled(passes, "cache_hit_us"));
        out.put_median("serve.cache_hit_ratio", &pooled(passes, "hot_hit_ratio"));
    }
}

/// One mutate → flush → eight queries → flush cycle, with what every
/// response in it must say.
struct Cycle {
    mutate: String,
    graph_rev: String,
    queries: Vec<Query>,
    /// Wire id of `queries[0]`; the rest follow consecutively.
    first_query_id: usize,
    edges: u64,
}

/// Writes beside reads: WAL append and fsync, apply, re-fingerprint, cache
/// invalidation and a layout rebuild every cycle.
pub struct ServeMutate {
    graph: Graph,
    seed: u64,
    tmp: PathBuf,
    warm: VertexId,
    cycles: Vec<Cycle>,
    /// `graph_rev` after the last cycle: what every recovery must land on.
    final_rev: u64,
    recoveries: usize,
    snapshot_every: u32,
    wal_dirs: u32,
}

/// Shape of a `serve_mutate` script.
pub struct MutateScript {
    pub cycles: usize,
    pub queries_per_cycle: usize,
    pub recoveries: usize,
    pub snapshot_every: u32,
}

impl ServeMutate {
    pub fn setup(seed: u64, quick: bool, tmp: &Path) -> Self {
        keep_freed_heap();
        // 60 cycles at a snapshot every 16 leaves a 12-batch tail to
        // replay on recovery, like 300 cycles at 32 would.
        let script = MutateScript {
            cycles: if quick { 12 } else { 60 },
            queries_per_cycle: 8,
            recoveries: if quick { 2 } else { 5 },
            snapshot_every: 16,
        };
        Self::on(seeded_rmat(12, 100_000, seed, quick), seed, &script, tmp)
    }

    /// The script at the given shape over any graph (see `ServeRead::on`).
    pub fn on(graph: Graph, seed: u64, script: &MutateScript, tmp: &Path) -> Self {
        let mut rng = Rng(seed ^ 0x6d_7574);
        let n = graph.num_vertices();
        let mut live = graph.clone();
        let mut next_id = 0;
        let cycles = (0..script.cycles)
            .map(|_| {
                let mut batch = MutationBatch::new();
                let mut line = format!("{{\"id\":{next_id},\"op\":\"mutate\",\"insert\":[");
                next_id += 1;
                for i in 0..6 {
                    let (s, d, w) = (rng.below(n), rng.below(n), 1 + rng.below(64));
                    batch = batch.insert(s, d, w);
                    line.push_str(&format!("{}[{s},{d},{w}]", if i > 0 { "," } else { "" }));
                }
                line.push_str("],\"delete\":[");
                let mut gone: Vec<(VertexId, VertexId)> = Vec::new();
                while gone.len() < 2 {
                    let e = live.edge(rng.below(live.num_edges()));
                    if !gone.contains(&(e.src, e.dst)) {
                        line.push_str(&format!(
                            "{}[{},{}]",
                            if gone.is_empty() { "" } else { "," },
                            e.src,
                            e.dst
                        ));
                        batch = batch.delete(e.src, e.dst);
                        gone.push((e.src, e.dst));
                    }
                }
                line.push_str("]}");
                // The from-scratch side of the revision check: the same
                // batches applied to a private copy.
                batch
                    .apply(&mut live)
                    .expect("generated batch is valid by construction");
                let first_query_id = next_id;
                let queries: Vec<Query> =
                    distinct_sources(&live, script.queries_per_cycle, &[], &mut rng)
                        .into_iter()
                        .enumerate()
                        .map(|(i, s)| query(first_query_id + i, TraversalKind::Bfs, s, &live))
                        .collect();
                next_id += queries.len();
                Cycle {
                    mutate: line,
                    graph_rev: format!("{:016x}", fingerprint(&live)),
                    queries,
                    first_query_id,
                    edges: u64::from(live.num_edges()),
                }
            })
            .collect();
        ServeMutate {
            warm: warm_source(&graph),
            final_rev: fingerprint(&live),
            graph,
            seed,
            tmp: tmp.to_path_buf(),
            cycles,
            recoveries: script.recoveries,
            snapshot_every: script.snapshot_every,
            wal_dirs: 0,
        }
    }

    fn cfg(&self, wal: &Path) -> ServeConfig {
        ServeConfig {
            wal: Some(WalConfig {
                path: wal.to_path_buf(),
                snapshot_every: self.snapshot_every,
                crash: None,
            }),
            ..ServeConfig::default()
        }
    }
}

impl Workload for ServeMutate {
    fn pass(&mut self, spans: &mut Spans, host: &mut HostReference) -> Pass {
        let mut pass = Pass::default();
        self.wal_dirs += 1;
        let dir = self.tmp.join(format!("wal-{}", self.wal_dirs));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        let cfg = self.cfg(&dir.join("graph.wal"));
        let (mut svc, new_ms, first_ms) = open_warm(&self.graph, &cfg, self.warm);
        pass.sample("service_new_ms", new_ms);
        pass.sample("first_query_ms", first_ms);

        let mut mutate_out: Vec<Vec<String>> = Vec::with_capacity(self.cycles.len());
        let mut query_out: Vec<Vec<String>> = Vec::with_capacity(self.cycles.len());
        let mut recovered: Vec<(u64, Vec<String>)> = Vec::new();
        let (wall_ms, ()) = timed_ms(|| {
            spans.scope(HARNESS, "pass", |s| {
                for c in &self.cycles {
                    let (ms, out) =
                        timed_ms(|| s.scope("serve", "mutate", |_| svc.handle_line(&c.mutate)));
                    pass.sample("mutate_ms", ms);
                    mutate_out.push(out);
                    // The flush that closes the rebuild window.
                    let (ms, _) =
                        timed_ms(|| s.scope("serve", "rebuild", |_| svc.handle_line("flush")));
                    pass.sample("rebuild_ms", ms);
                    let (ms, out) = timed_ms(|| {
                        let mut out = Vec::new();
                        for q in &c.queries {
                            out.extend(s.scope("serve", "admit", |_| svc.handle_line(&q.line)));
                        }
                        out.extend(s.scope("serve", "flush", |_| svc.handle_line("flush")));
                        out
                    });
                    pass.op_ms.push(ms / c.queries.len() as f64);
                    query_out.push(out);
                    host.tick();
                }
                book_service_counters(&mut pass, &svc);
                drop(svc);
                for _ in 0..self.recoveries {
                    let (ms, svc) = timed_ms(|| {
                        s.scope("serve", "recover", |_| {
                            Service::new(self.graph.clone(), cfg.clone())
                        })
                    });
                    pass.sample("recover_ms", ms);
                    let Ok(mut svc) = svc else {
                        recovered.push((0, Vec::new()));
                        continue;
                    };
                    let q = &self.cycles[self.cycles.len() - 1].queries[0];
                    let mut out = s.scope("serve", "admit", |_| svc.handle_line(&q.line));
                    out.extend(s.scope("serve", "flush", |_| svc.handle_line("flush")));
                    recovered.push((svc.graph_rev(), out));
                    host.tick();
                }
            })
        });
        pass.wall_s = wall_ms / 1e3;

        for ((c, m_out), q_out) in self.cycles.iter().zip(&mutate_out).zip(&query_out) {
            let rev_ok = m_out.iter().any(|l| {
                parse_json(l).is_ok_and(|v| {
                    v.get("status").and_then(Json::as_str) == Some("ok")
                        && v.get("graph_rev").and_then(Json::as_str) == Some(c.graph_rev.as_str())
                })
            });
            pass.book_op(rev_ok);
            book_responses(
                &mut pass,
                q_out,
                &c.queries,
                c.first_query_id,
                false,
                c.edges,
            );
        }
        let last = &self.cycles[self.cycles.len() - 1];
        for (rev, out) in &recovered {
            pass.book_op(*rev == self.final_rev);
            book_responses(
                &mut pass,
                out,
                &last.queries[..1],
                last.first_query_id,
                false,
                last.edges,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            graph: &self.graph,
            source: self.warm,
            seed: self.seed,
            tmp: self.tmp.clone(),
            matrix_scale: PROBE_MATRIX_SCALE,
        }
    }

    fn layer_metrics(&self, passes: &[Pass], out: &mut Metrics) {
        common_layer_metrics(passes, out);
        let mutate = pooled(passes, "mutate_ms");
        out.put_median("serve.mutate_ms_p50", &mutate);
        out.put(
            "serve.mutate_ms_p95",
            percentile(&mutate, 0.95),
            mutate.len(),
        );
        out.put_median("serve.rebuild_ms_p50", &pooled(passes, "rebuild_ms"));
        out.put_median("serve.recover_ms", &pooled(passes, "recover_ms"));
    }
}
