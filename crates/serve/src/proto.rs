//! The service wire protocol: line-delimited JSON plus a terse REPL form.
//!
//! One request per line, one typed response line per query — never zero,
//! never two. Lines starting with `{` are JSON objects; anything else is
//! the REPL shorthand (`bfs 5`, `reach 1 2 3`, `flush`, `quit`). Blank
//! lines and `#` comments are ignored.
//!
//! The JSON layer is the hand-rolled [`cusha_obs::json`] value parser
//! (objects, arrays, strings, numbers, booleans, null — the workspace
//! builds without external crates), re-exported here for protocol users.

use cusha_graph::{MutationBatch, VertexId};

pub use cusha_obs::json::{parse_json, Json};

/// What one input line asks the service to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A graph query to admit.
    Query(Query),
    /// A live edge-mutation batch to commit.
    Mutate(MutateRequest),
    /// Run everything queued.
    Flush,
    /// Report service counters.
    Stats,
    /// Flush, then stop reading.
    Shutdown,
    /// Nothing (blank line or comment).
    Empty,
}

/// A live-mutation request: an all-or-nothing batch of edge inserts and
/// deletes, committed through the WAL (when one is configured) before it
/// touches the in-memory graph.
#[derive(Clone, Debug, PartialEq)]
pub struct MutateRequest {
    /// Client-chosen id echoed in the response (`Json::Null` = let the
    /// service assign a sequence number).
    pub id: Json,
    /// The ordered batch.
    pub batch: MutationBatch,
}

/// A single admitted-or-shed unit of work.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Client-chosen id echoed in the response (`Json::Null` = let the
    /// service assign a sequence number).
    pub id: Json,
    /// The operation.
    pub op: QueryOp,
    /// Per-query modeled-time deadline, milliseconds.
    pub deadline_ms: Option<f64>,
    /// Whether the response should carry the full value vector.
    pub want_values: bool,
}

/// The operations the service answers.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOp {
    /// A valued single-source traversal (fusable two-per-launch).
    Traversal {
        /// Which traversal.
        kind: cusha_algos::TraversalKind,
        /// Source vertex.
        source: VertexId,
    },
    /// Multi-source reachability (up to 64 sources, bitset-packed with
    /// other `reach` queries in the same batch).
    Reach {
        /// Source vertices.
        sources: Vec<VertexId>,
    },
    /// Whole-graph PageRank refresh.
    PageRank,
    /// Whole-graph connected-components refresh.
    ConnectedComponents,
}

impl QueryOp {
    /// Wire label of the operation.
    pub fn label(&self) -> &'static str {
        match self {
            QueryOp::Traversal { kind, .. } => kind.label(),
            QueryOp::Reach { .. } => "reach",
            QueryOp::PageRank => "pagerank",
            QueryOp::ConnectedComponents => "cc",
        }
    }
}

/// A JSON number that is exactly a `u32`: a vertex id, an edge weight.
fn as_u32(x: &Json) -> Option<u32> {
    x.as_u64().and_then(|n| u32::try_from(n).ok())
}

/// Parses one input line (JSON or REPL shorthand) into a [`Request`].
pub fn parse_line(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Request::Empty);
    }
    if line.starts_with('{') {
        parse_json_request(line)
    } else {
        parse_repl_request(line)
    }
}

fn parse_json_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\" field")?;
    match op {
        "flush" => return Ok(Request::Flush),
        "stats" => return Ok(Request::Stats),
        "shutdown" | "quit" => return Ok(Request::Shutdown),
        "mutate" => return parse_mutate(&v),
        _ => {}
    }
    let id = v.get("id").cloned().unwrap_or(Json::Null);
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(d) => {
            let d = d.as_f64().ok_or("\"deadline_ms\" must be a number")?;
            if d.is_nan() || d <= 0.0 {
                return Err("\"deadline_ms\" must be positive".into());
            }
            Some(d)
        }
    };
    let want_values = v
        .get("values")
        .map(|b| b.as_bool().ok_or("\"values\" must be a boolean"))
        .transpose()?
        .unwrap_or(false);
    let source = || -> Result<VertexId, String> {
        v.get("source")
            .and_then(as_u32)
            .ok_or_else(|| format!("op {op:?} needs a \"source\" vertex id"))
    };
    let op = if let Some(kind) = cusha_algos::TraversalKind::parse(op) {
        QueryOp::Traversal {
            kind,
            source: source()?,
        }
    } else {
        match op {
            "reach" => {
                let arr = match v.get("sources") {
                    Some(Json::Arr(items)) => items,
                    _ => return Err("op \"reach\" needs a \"sources\" array".into()),
                };
                let sources: Option<Vec<VertexId>> = arr.iter().map(as_u32).collect();
                QueryOp::Reach {
                    sources: sources.ok_or("\"sources\" must be vertex ids")?,
                }
            }
            "pagerank" | "pr" => QueryOp::PageRank,
            "cc" => QueryOp::ConnectedComponents,
            other => return Err(format!("unknown op {other:?}")),
        }
    };
    Ok(Request::Query(Query {
        id,
        op,
        deadline_ms,
        want_values,
    }))
}

/// Parses `{"op":"mutate","insert":[[src,dst,weight],...],"delete":[[src,dst],...]}`.
/// Insert triples may omit the weight (defaults to 1); ops apply inserts
/// before deletes, each array in order.
fn parse_mutate(v: &Json) -> Result<Request, String> {
    let id = v.get("id").cloned().unwrap_or(Json::Null);
    let vertex = |x: &Json, what: &str| -> Result<VertexId, String> {
        as_u32(x).ok_or_else(|| format!("{what} must be a vertex id"))
    };
    let mut batch = MutationBatch::new();
    if let Some(arr) = v.get("insert") {
        let items = match arr {
            Json::Arr(items) => items,
            _ => return Err("\"insert\" must be an array of [src, dst, weight?]".into()),
        };
        for item in items {
            let t = match item {
                Json::Arr(t) if t.len() == 2 || t.len() == 3 => t,
                _ => return Err("each insert must be [src, dst] or [src, dst, weight]".into()),
            };
            let weight = match t.get(2) {
                None => 1,
                Some(w) => as_u32(w).ok_or("insert weight must be a u32")?,
            };
            batch = batch.insert(
                vertex(&t[0], "insert src")?,
                vertex(&t[1], "insert dst")?,
                weight,
            );
        }
    }
    if let Some(arr) = v.get("delete") {
        let items = match arr {
            Json::Arr(items) => items,
            _ => return Err("\"delete\" must be an array of [src, dst]".into()),
        };
        for item in items {
            let t = match item {
                Json::Arr(t) if t.len() == 2 => t,
                _ => return Err("each delete must be [src, dst]".into()),
            };
            batch = batch.delete(vertex(&t[0], "delete src")?, vertex(&t[1], "delete dst")?);
        }
    }
    if batch.ops.is_empty() {
        return Err("op \"mutate\" needs a non-empty \"insert\" and/or \"delete\" array".into());
    }
    Ok(Request::Mutate(MutateRequest { id, batch }))
}

fn parse_repl_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let head = words.next().expect("line is non-empty");
    let rest: Vec<&str> = words.collect();
    let sources = || -> Result<Vec<VertexId>, String> {
        rest.iter()
            .map(|w| w.parse::<u32>().map_err(|_| format!("bad vertex id {w:?}")))
            .collect()
    };
    let one_source = || -> Result<VertexId, String> {
        match sources()?.as_slice() {
            [s] => Ok(*s),
            _ => Err(format!("usage: {head} <source>")),
        }
    };
    let q = |op: QueryOp| {
        Ok(Request::Query(Query {
            id: Json::Null,
            op,
            deadline_ms: None,
            want_values: false,
        }))
    };
    match head {
        "flush" => Ok(Request::Flush),
        "stats" => Ok(Request::Stats),
        "quit" | "exit" | "shutdown" => Ok(Request::Shutdown),
        "insert" => {
            let (src, dst, weight) = match sources()?.as_slice() {
                [s, d] => (*s, *d, 1),
                [s, d, w] => (*s, *d, *w),
                _ => return Err("usage: insert <src> <dst> [weight]".into()),
            };
            Ok(Request::Mutate(MutateRequest {
                id: Json::Null,
                batch: MutationBatch::new().insert(src, dst, weight),
            }))
        }
        "delete" => match sources()?.as_slice() {
            [s, d] => Ok(Request::Mutate(MutateRequest {
                id: Json::Null,
                batch: MutationBatch::new().delete(*s, *d),
            })),
            _ => Err("usage: delete <src> <dst>".into()),
        },
        "bfs" | "sssp" | "sswp" => q(QueryOp::Traversal {
            kind: cusha_algos::TraversalKind::parse(head).expect("matched above"),
            source: one_source()?,
        }),
        "reach" => q(QueryOp::Reach {
            sources: sources()?,
        }),
        "pagerank" | "pr" => q(QueryOp::PageRank),
        "cc" => q(QueryOp::ConnectedComponents),
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusha_algos::TraversalKind;

    #[test]
    fn query_lines_parse() {
        let r = parse_line(r#"{"id":7,"op":"sssp","source":5,"deadline_ms":2.5}"#).unwrap();
        match r {
            Request::Query(q) => {
                assert_eq!(q.id, Json::Num(7.0));
                assert_eq!(q.deadline_ms, Some(2.5));
                assert_eq!(
                    q.op,
                    QueryOp::Traversal {
                        kind: TraversalKind::Sssp,
                        source: 5
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_line("flush").unwrap(), Request::Flush);
        assert_eq!(parse_line("  # comment").unwrap(), Request::Empty);
        assert_eq!(parse_line("").unwrap(), Request::Empty);
        assert_eq!(
            parse_line(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn repl_lines_parse() {
        match parse_line("bfs 12").unwrap() {
            Request::Query(q) => assert_eq!(
                q.op,
                QueryOp::Traversal {
                    kind: TraversalKind::Bfs,
                    source: 12
                }
            ),
            other => panic!("{other:?}"),
        }
        match parse_line("reach 1 2 3").unwrap() {
            Request::Query(q) => assert_eq!(
                q.op,
                QueryOp::Reach {
                    sources: vec![1, 2, 3]
                }
            ),
            other => panic!("{other:?}"),
        }
        assert!(parse_line("bfs").is_err());
        assert!(parse_line("warp 9").is_err());
    }

    #[test]
    fn mutate_lines_parse() {
        let r = parse_line(r#"{"id":3,"op":"mutate","insert":[[1,2,9],[4,5]],"delete":[[0,1]]}"#)
            .unwrap();
        match r {
            Request::Mutate(m) => {
                assert_eq!(m.id, Json::Num(3.0));
                assert_eq!(
                    m.batch,
                    MutationBatch::new()
                        .insert(1, 2, 9)
                        .insert(4, 5, 1)
                        .delete(0, 1)
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_line("insert 7 8").unwrap(),
            Request::Mutate(MutateRequest {
                id: Json::Null,
                batch: MutationBatch::new().insert(7, 8, 1),
            })
        );
        assert_eq!(
            parse_line("delete 7 8").unwrap(),
            Request::Mutate(MutateRequest {
                id: Json::Null,
                batch: MutationBatch::new().delete(7, 8),
            })
        );
        assert!(parse_line(r#"{"op":"mutate"}"#).is_err());
        assert!(parse_line(r#"{"op":"mutate","insert":[[1]]}"#).is_err());
        assert!(parse_line("insert 7").is_err());
        assert!(parse_line("delete 7 8 9").is_err());
    }

    #[test]
    fn bad_deadlines_are_rejected() {
        assert!(parse_line(r#"{"op":"bfs","source":1,"deadline_ms":0}"#).is_err());
        assert!(parse_line(r#"{"op":"bfs","source":1,"deadline_ms":-4}"#).is_err());
    }
}
