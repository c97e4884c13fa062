//! The benchmark's contract, read from the `BENCHMARK.json` this binary was
//! built beside: workload and metric names, directions and bounds.

use smtp::core::json::{self, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract; `bound` is set for end-to-end metrics only.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn specs(doc: &JsonValue, key: &str) -> Result<Vec<MetricSpec>, String> {
    let field = |m: &JsonValue, k: &str| {
        m.get(k)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or(format!("{key}: metric without string {k:?}"))
    };
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("no {key} array"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                higher_is_better: field(m, "better")? == "higher",
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

impl Contract {
    /// Parse the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Contract, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .ok_or("no workloads array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or("workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("no run_seconds")?,
            workloads,
            end_to_end: specs(&doc, "end_to_end")?,
            per_layer: specs(&doc, "per_layer")?,
        })
    }
}
