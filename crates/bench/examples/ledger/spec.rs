//! The benchmark's contract — workload names, every metric's name and unit,
//! the end-to-end regression bounds — is the root `BENCHMARK.json` and
//! nothing else. This module reads it; the rest of the program produces
//! values by name and is told at the end which names the contract wants.

use cusha::obs::Json;

pub struct Spec {
    pub workloads: Vec<String>,
    /// `(name, unit, bound)`; measured with tracing off.
    pub end_to_end: Vec<(String, String, f64)>,
    /// `(name, unit)`; from a traced run.
    pub per_layer: Vec<(String, String)>,
}

fn text<'a>(entry: &'a Json, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("an entry lacks the string field {key:?}"))
}

impl Spec {
    /// Reads `./BENCHMARK.json`: the benchmark runs from the repository root.
    pub fn load() -> Result<Spec, String> {
        let raw = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read ./BENCHMARK.json ({e}); run from the repository root")
        })?;
        let doc = cusha::obs::parse_json(&raw)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no {key:?} array"))
        };
        let named = |key: &str, field: &str| -> Result<Vec<(String, String)>, String> {
            list(key)?
                .iter()
                .map(|e| Ok((text(e, "name")?.to_string(), text(e, field)?.to_string())))
                .collect()
        };
        let bounds: Vec<f64> = list("end_to_end")?
            .iter()
            .map(|e| {
                e.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end entry lacks a numeric bound")
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads: named("workloads", "why")?
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
            end_to_end: named("end_to_end", "unit")?
                .into_iter()
                .zip(bounds)
                .map(|((n, u), b)| (n, u, b))
                .collect(),
            per_layer: named("per_layer", "unit")?,
        })
    }

    /// The metrics a run of the given kind must report, in report order.
    pub fn table(&self, traced: bool) -> Vec<(&str, &str)> {
        if traced {
            self.per_layer
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(n, u, _)| (n.as_str(), u.as_str()))
                .collect()
        }
    }

    /// Layers that get a `<layer>.pass_self_ms` from the workloads' spans.
    pub fn span_layers(&self) -> Vec<&str> {
        self.per_layer
            .iter()
            .filter_map(|(n, _)| n.strip_suffix(".pass_self_ms"))
            .collect()
    }

    /// The regression bound of an end-to-end metric, as a share of its value.
    pub fn bound_of(&self, metric: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(n, ..)| n == metric)
            .map_or(0.0, |&(.., b)| b)
    }
}
