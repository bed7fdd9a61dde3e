//! Metrics registry: counters, gauges and quantile histograms under one
//! schema.
//!
//! Every engine's statistics (`KernelStats`, `RunStats`, `FaultStats`,
//! `MultiRunStats`) record themselves here through `record_metrics`
//! methods defined next to the types; the registry serializes to a flat,
//! versioned, byte-stable JSON snapshot ([`MetricsRegistry::to_json`]) that
//! the bench experiments write next to `results/*.json` and the CLI writes
//! for `--metrics-out`.
//!
//! Keys are `name{label1=value1,label2=value2}` with labels sorted, so the
//! same logical series always maps to the same flat key and `BTreeMap`
//! iteration makes exports deterministic.
//!
//! Histograms are log-bucketed: each observation lands in one of 8
//! sub-buckets per power-of-two octave, selected by pure bit manipulation
//! of the `f64` representation (no `log2` calls), so bucketing — and
//! therefore the serialized snapshot — is bit-identical across platforms
//! and optimization levels. Quantiles (p50/p90/p99) are read back from the
//! cumulative bucket counts with ≤ ~6% relative error, clamped to the
//! exact observed `[min, max]`.

use crate::json::{push_f64, push_str_lit};
use std::collections::BTreeMap;

/// Schema tag of the metrics snapshot format.
pub const METRICS_SCHEMA: &str = "cusha-metrics/v2";

/// Sub-buckets per power-of-two octave (a power of two; 8 gives buckets
/// ~12.5% wide, so a mid-bucket quantile estimate is within ~6%).
const SUB_BUCKETS: u64 = 8;
const SUB_SHIFT: u32 = 3;
/// Bucketed exponent range: values in `[2^-64, 2^64)` get exact octave
/// buckets; everything positive outside clamps into the edge buckets.
const MIN_EXP: i32 = -64;
const MAX_EXP: i32 = 64;
/// Bucket holding non-positive observations (and only those).
const ZERO_BUCKET: i32 = MIN_EXP * SUB_BUCKETS as i32 - 1;

/// Bucket index for a finite positive value.
fn bucket_index(v: f64) -> i32 {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        // Includes subnormals (biased exponent 0).
        MIN_EXP * SUB_BUCKETS as i32
    } else if exp >= MAX_EXP {
        MAX_EXP * SUB_BUCKETS as i32 - 1
    } else {
        let sub = ((bits >> (52 - SUB_SHIFT)) & (SUB_BUCKETS - 1)) as i32;
        exp * SUB_BUCKETS as i32 + sub
    }
}

/// Lower bound of bucket `i` (exact in f64: a power of two times
/// `1 + sub/8`).
fn bucket_lower(i: i32) -> f64 {
    let exp = i.div_euclid(SUB_BUCKETS as i32);
    let sub = i.rem_euclid(SUB_BUCKETS as i32);
    2f64.powi(exp) * (1.0 + sub as f64 / SUB_BUCKETS as f64)
}

/// Deterministic representative value of bucket `i` (its midpoint).
fn bucket_mid(i: i32) -> f64 {
    if i == ZERO_BUCKET {
        return 0.0;
    }
    (bucket_lower(i) + bucket_lower(i + 1)) / 2.0
}

/// Log-bucketed summary of observed values: exact moments (count, sum,
/// min, max) plus sparse bucket counts for quantile queries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Sparse log-bucket counts, keyed by bucket index.
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// Folds one observation in. Non-finite values count toward `count`
    /// and the edge buckets but are excluded from `sum`/`min`/`max` so the
    /// moments stay finite.
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = if v > 0.0 {
            bucket_index(v)
        } else {
            ZERO_BUCKET
        };
        *self.buckets.entry(idx).or_insert(0) += 1;
    }

    /// Mean of the observations (0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate for `q in [0, 1]` (0 when empty — never NaN).
    ///
    /// The estimate is the midpoint of the bucket holding the rank-`⌈qN⌉`
    /// observation, clamped to the exact `[min, max]`. The extreme ranks
    /// short-circuit to the exact moments: rank 1 returns `min` and rank
    /// `N` returns `max`, so `quantile(0.0)`/`quantile(1.0)` are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        let mut seen = 0u64;
        for (&i, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Serializes this histogram as a v2 JSON object.
    pub fn to_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        out.push_str(&self.count.to_string());
        out.push_str(",\"sum\":");
        push_f64(out, self.sum);
        out.push_str(",\"min\":");
        push_f64(out, self.min);
        out.push_str(",\"max\":");
        push_f64(out, self.max);
        out.push_str(",\"mean\":");
        push_f64(out, self.mean());
        out.push_str(",\"p50\":");
        push_f64(out, self.p50());
        out.push_str(",\"p90\":");
        push_f64(out, self.p90());
        out.push_str(",\"p99\":");
        push_f64(out, self.p99());
        out.push_str(",\"buckets\":{");
        for (i, (idx, c)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(out, &idx.to_string());
            out.push(':');
            out.push_str(&c.to_string());
        }
        out.push_str("}}");
    }
}

/// Registry of named metric series.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Builds the flat `name{k=v,...}` key; labels are sorted by key.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name{labels}`.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self.counters.entry(series_key(name, labels)).or_insert(0) += delta;
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(series_key(name, labels), value);
    }

    /// Folds `value` into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.histograms
            .entry(series_key(name, labels))
            .or_default()
            .observe(value);
    }

    /// Current value of a counter series, if recorded.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&series_key(name, labels)).copied()
    }

    /// Current value of a gauge series, if recorded.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&series_key(name, labels)).copied()
    }

    /// Current state of a histogram series, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        self.histograms.get(&series_key(name, labels)).cloned()
    }

    /// Total number of recorded series.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the versioned snapshot:
    /// `{"schema":"cusha-metrics/v2","counters":{..},"gauges":{..},"histograms":{..}}`.
    ///
    /// Output is byte-stable for identical registry contents: keys iterate
    /// in `BTreeMap` order, floats use shortest round-trip formatting, and
    /// histogram bucketing is exact bit manipulation.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":");
        push_str_lit(&mut out, METRICS_SCHEMA);
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, k);
            out.push(':');
            push_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, k);
            out.push(':');
            h.to_json(&mut out);
        }
        out.push_str("}}\n");
        out
    }

    /// Renders a human-readable snapshot (the `--profile` report's metrics
    /// section): one `key = value` line per series, sorted.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k}: count {} mean {} p50 {} p99 {} min {} max {}\n",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p99(),
                    h.min,
                    h.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_labels() {
        assert_eq!(series_key("x", &[]), "x");
        assert_eq!(
            series_key("x", &[("engine", "cw"), ("device", "0")]),
            "x{device=0,engine=cw}"
        );
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.add("iters", &[("engine", "cw")], 2);
        r.add("iters", &[("engine", "cw")], 3);
        r.set_gauge("eff", &[], 0.5);
        r.set_gauge("eff", &[], 0.75);
        assert_eq!(r.counter("iters", &[("engine", "cw")]), Some(5));
        assert_eq!(r.gauge("eff", &[]), Some(0.75));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn histogram_tracks_moments() {
        let mut r = MetricsRegistry::new();
        for v in [2.0, 1.0, 4.0] {
            r.observe("iter_seconds", &[], v);
        }
        let h = r.histogram("iter_seconds", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_all_zeros_never_nan() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p90(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert!(!h.mean().is_nan() && !h.p99().is_nan());
        let mut out = String::new();
        h.to_json(&mut out);
        assert!(
            !out.contains("null"),
            "empty histogram serializes finite: {out}"
        );
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        // Log buckets are ~12.5% wide; mid-bucket estimates land within
        // ~7% of the true quantile.
        let within = |est: f64, truth: f64| (est - truth).abs() / truth < 0.07;
        assert!(within(h.p50(), 500.0), "p50 {} vs 500", h.p50());
        assert!(within(h.p90(), 900.0), "p90 {} vs 900", h.p90());
        assert!(within(h.p99(), 990.0), "p99 {} vs 990", h.p99());
        assert_eq!(h.quantile(1.0), 1000.0, "q(1) is the exact max");
        assert_eq!(h.quantile(0.0).max(1.0), 1.0, "q(0) clamps to min");
    }

    #[test]
    fn single_observation_quantiles_are_exact() {
        let mut h = Histogram::default();
        h.observe(3.5);
        // min == max, so the clamp pins every quantile to the value.
        assert_eq!(h.p50(), 3.5);
        assert_eq!(h.p99(), 3.5);
    }

    #[test]
    fn nonpositive_and_nonfinite_values_are_contained() {
        let mut h = Histogram::default();
        h.observe(0.0);
        h.observe(-2.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count, 4);
        assert!(h.sum.is_finite());
        assert!(h.p50().is_finite());
        assert_eq!(h.min, -2.0);
    }

    #[test]
    fn bucketing_is_pure_bit_manipulation() {
        // Values in the same octave sub-range share a bucket; adjacent
        // sub-ranges do not.
        assert_eq!(bucket_index(1.0), bucket_index(1.05));
        assert_ne!(bucket_index(1.0), bucket_index(1.2));
        assert_eq!(bucket_index(1.0) + 8, bucket_index(2.0));
        // Exact bucket bounds: lower(idx(v)) <= v < lower(idx(v)+1).
        for v in [1e-9, 0.25, 1.0, 3.75, 1e6] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v < bucket_lower(i + 1), "{v}");
        }
        // Extremes clamp instead of overflowing.
        assert_eq!(bucket_index(f64::MIN_POSITIVE), MIN_EXP * 8);
        assert_eq!(bucket_index(f64::MAX), MAX_EXP * 8 - 1);
    }

    #[test]
    fn json_snapshot_is_versioned_and_stable() {
        let mut r = MetricsRegistry::new();
        r.add("b", &[], 1);
        r.add("a", &[], 2);
        r.set_gauge("g", &[("k", "v")], 0.25);
        r.observe("h", &[], 1.5);
        let j1 = r.to_json();
        let j2 = r.to_json();
        assert_eq!(j1, j2, "snapshot must be byte-stable");
        assert!(j1.starts_with("{\"schema\":\"cusha-metrics/v2\""));
        // BTreeMap ordering: "a" before "b".
        assert!(j1.find("\"a\":2").unwrap() < j1.find("\"b\":1").unwrap());
        assert!(j1.contains("\"g{k=v}\":0.25"));
        assert!(j1.contains(
            "\"h\":{\"count\":1,\"sum\":1.5,\"min\":1.5,\"max\":1.5,\"mean\":1.5,\
             \"p50\":1.5,\"p90\":1.5,\"p99\":1.5,\"buckets\":{\"4\":1}}"
        ));
    }

    #[test]
    fn text_rendering_lists_series() {
        let mut r = MetricsRegistry::new();
        r.add("c", &[], 7);
        r.observe("h", &[], 2.0);
        let t = r.render_text();
        assert!(t.contains("c = 7"));
        assert!(t.contains("h: count 1"));
    }
}
