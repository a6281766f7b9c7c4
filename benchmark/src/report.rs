//! Named metric values, the `BENCHMARK.json` contract, and result files.

use std::collections::BTreeMap;

use ramr_telemetry::json::{self, Value};

/// Builds a JSON object from `(key, value)` members.
pub fn obj(members: &[(&str, Value)]) -> Value {
    Value::Obj(members.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in the README glossary.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Every value one run measured, in the order measured.
#[derive(Debug, Default)]
pub struct Values(Vec<Metric>);

impl Values {
    /// Records `name = value unit` and prints it.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        println!("  {name:<26} {value:>14.4} {unit}");
        self.0.push(Metric { name: name.to_string(), unit, value });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// `{name: {"value": v, "unit": u}}` for every recorded value.
    pub fn to_json(&self) -> Value {
        Value::Obj(self.0.iter().map(|m| (m.name.clone(), metric_json(m.value, m.unit))).collect())
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    obj(&[("value", Value::Num(value)), ("unit", Value::Str(unit.to_string()))])
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness itself consumes. The file is
/// the single source of which metrics a run reports and of their bounds.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics (reported by `--trace 0`).
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics (reported by `--trace 1`).
    pub per_layer: Vec<SpecMetric>,
}

impl Spec {
    /// Reads and checks `BENCHMARK.json` at `path`.
    ///
    /// # Errors
    ///
    /// A message naming the missing file or the malformed member.
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let arr = |key: &str| {
            doc.get(key).and_then(Value::as_arr).ok_or_else(|| format!("{path}: no array {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<SpecMetric>, String> {
            arr(key)?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{path}: a {key} metric lacks {k:?}"))
                    };
                    Ok(SpecMetric {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: match text("better")?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("{path}: better = {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: arr("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: no run_seconds"))?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct RunReport {
    /// Jobs attempted (warm-up included).
    pub attempted: u64,
    /// Jobs that returned `Err`, exhausted their retries, or whose output
    /// differed from the oracle's.
    pub failed: u64,
    /// Every other check the run made held (span accounting, layer outputs,
    /// count repeatability).
    pub checks_ok: bool,
    /// Everything measured.
    pub values: Values,
}

impl RunReport {
    /// `true` when nothing failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_ok
    }

    /// The contract's result line: `correct`, `attempted`, `failed`, and
    /// exactly the `wanted` metrics. With `detail`, every other measured
    /// value rides along under `"detail"` for the ledger.
    ///
    /// # Errors
    ///
    /// Names a wanted metric the run did not measure, or measured in
    /// another unit than `BENCHMARK.json` declares.
    pub fn result_line(&self, wanted: &[SpecMetric], detail: bool) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for want in wanted {
            let got = self
                .values
                .get(&want.name)
                .ok_or_else(|| format!("metric {:?} was not measured", want.name))?;
            if got.unit != want.unit {
                return Err(format!(
                    "metric {:?} measured in {:?}, BENCHMARK.json says {:?}",
                    want.name, got.unit, want.unit
                ));
            }
            metrics.insert(want.name.clone(), metric_json(got.value, got.unit));
        }
        let mut members = vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ];
        if detail {
            members.push(("detail", self.values.to_json()));
        }
        Ok(obj(&members).to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_wanted_metrics() {
        let mut values = Values::default();
        values.put("a_ms", "ms", 1.25);
        values.put("b", "count", 3.0);
        let report = RunReport { attempted: 7, failed: 0, checks_ok: true, values };
        let want = |name: &str, unit: &str| SpecMetric {
            name: name.into(),
            unit: unit.into(),
            lower_is_better: true,
            bound: None,
        };
        let line = report.result_line(&[want("a_ms", "ms")], false).expect("line");
        assert_eq!(
            line,
            r#"{"attempted":7,"correct":true,"failed":0,"metrics":{"a_ms":{"unit":"ms","value":1.25}}}"#
        );
        assert!(report.result_line(&[want("c", "ms")], false).is_err(), "unmeasured");
        assert!(report.result_line(&[want("b", "ms")], false).is_err(), "unit mismatch");
        let detailed = report.result_line(&[want("a_ms", "ms")], true).expect("line");
        assert!(detailed.contains(r#""detail":{"a_ms""#) && detailed.contains(r#""b":{"#));
    }

    #[test]
    fn the_repos_benchmark_json_parses_and_names_the_five_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Spec::load(path).expect("BENCHMARK.json");
        assert_eq!(
            spec.workloads,
            ["wc-zipf", "hg-dense", "synth-cpu", "km-iterate", "serve-small"]
        );
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
