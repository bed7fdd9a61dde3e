//! Reader for serialized metrics snapshots.
//!
//! [`MetricsRegistry::to_json`](crate::MetricsRegistry::to_json) writes
//! `cusha-metrics/v2`, the one schema [`MetricsSnapshot::parse`] accepts.

use crate::json::{parse_json, Json};
use crate::metrics::METRICS_SCHEMA;
use std::collections::BTreeMap;

/// One deserialized histogram series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Mean as serialized.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Sparse log-bucket counts.
    pub buckets: BTreeMap<i32, u64>,
}

/// A deserialized metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The schema tag the snapshot was written under.
    pub schema: String,
    /// Counter series by flat key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge series by flat key.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram series by flat key.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Parses a serialized `cusha-metrics/v2` snapshot.
    pub fn parse(s: &str) -> Result<Self, String> {
        let v = parse_json(s.trim_end())?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != METRICS_SCHEMA {
            return Err(format!("unknown metrics schema {schema:?}"));
        }
        let mut snap = MetricsSnapshot {
            schema: schema.to_string(),
            ..Default::default()
        };
        for (k, c) in obj(&v, "counters")? {
            let c = c
                .as_u64()
                .ok_or_else(|| format!("counter {k:?} is not a non-negative integer"))?;
            snap.counters.insert(k.clone(), c);
        }
        for (k, g) in obj(&v, "gauges")? {
            snap.gauges.insert(k.clone(), num(g));
        }
        for (k, h) in obj(&v, "histograms")? {
            let mut hs = HistogramSnapshot {
                count: h.get("count").and_then(Json::as_u64).unwrap_or(0),
                sum: field(h, "sum"),
                min: field(h, "min"),
                max: field(h, "max"),
                mean: field(h, "mean"),
                p50: field(h, "p50"),
                p90: field(h, "p90"),
                p99: field(h, "p99"),
                buckets: BTreeMap::new(),
            };
            if let Some(Json::Obj(buckets)) = h.get("buckets") {
                for (idx, c) in buckets {
                    let idx: i32 = idx
                        .parse()
                        .map_err(|_| format!("bad bucket index {idx:?} in {k:?}"))?;
                    let c = c
                        .as_u64()
                        .ok_or_else(|| format!("bad bucket count in {k:?}"))?;
                    hs.buckets.insert(idx, c);
                }
            }
            snap.histograms.insert(k.clone(), hs);
        }
        Ok(snap)
    }
}

fn obj<'a>(v: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    match v.get(key) {
        Some(Json::Obj(fields)) => Ok(fields),
        Some(_) => Err(format!("{key:?} is not an object")),
        None => Ok(&[]),
    }
}

/// Numeric field with JSON `null` (serialized non-finite) reading as NaN.
fn num(v: &Json) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn field(h: &Json, key: &str) -> f64 {
    h.get(key).map(num).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn v2_round_trips_through_the_reader() {
        let mut r = MetricsRegistry::new();
        r.add("runs", &[("engine", "cw")], 3);
        r.set_gauge("eff", &[], 0.5);
        for v in [1.0, 2.0, 3.0] {
            r.observe("lat", &[], v);
        }
        let snap = MetricsSnapshot::parse(&r.to_json()).unwrap();
        assert_eq!(snap.schema, METRICS_SCHEMA);
        assert_eq!(snap.counters.get("runs{engine=cw}"), Some(&3));
        assert_eq!(snap.gauges.get("eff"), Some(&0.5));
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 6.0);
        let expected = r.histogram("lat", &[]).unwrap();
        assert_eq!(h.p50, expected.p50());
        assert_eq!(h.buckets, expected.buckets);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        // v1 (moments-only histograms) is no longer read: nothing writes it.
        let v1 = "{\"schema\":\"cusha-metrics/v1\",\"counters\":{\"iters\":5},\
                  \"gauges\":{},\"histograms\":{\"h\":{\"count\":2,\"sum\":3,\
                  \"min\":1,\"max\":2,\"mean\":1.5}}}\n";
        assert!(MetricsSnapshot::parse(v1).is_err());
        assert!(MetricsSnapshot::parse("{\"schema\":\"cusha-metrics/v9\"}").is_err());
        assert!(MetricsSnapshot::parse("not json").is_err());
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let mut r = MetricsRegistry::new();
        r.add("q", &[("id", "a\"b\\c\nd")], 1);
        let snap = MetricsSnapshot::parse(&r.to_json()).unwrap();
        assert_eq!(snap.counters.get("q{id=a\"b\\c\nd}"), Some(&1));
    }
}
