//! `compare A.json B.json`: judge set B against set A by the bounds
//! `BENCHMARK.json` fixes.
//!
//! For every workload × end-to-end metric the medians of the two sets are
//! compared. B is a **regression** when its median is worse than A's by
//! more than the metric's bound; the pairing is **unresolved** — neither
//! "unchanged" nor "regressed" — when either set's own run-to-run spread
//! (IQR ÷ median, needs four runs) is wider than the bound. A higher
//! `failed_frac` is always a regression.

use ramr_telemetry::json::{self, Value};

use crate::report::{Spec, SpecMetric};
use crate::stats::{median, spread};

/// Runs a set needs before its spread is computed.
const MIN_RUNS_FOR_SPREAD: usize = 4;

/// The verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Within,
    /// B is worse than A by more than the bound.
    Regression,
    /// A set's own spread exceeds the bound; nothing can be concluded.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(metric: &SpecMetric, a: f64, b: f64) -> f64 {
    if metric.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Judges one pairing from the two sets' per-run values.
pub fn judge(metric: &SpecMetric, a: &[f64], b: &[f64]) -> (Verdict, f64, Option<f64>) {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let worse = worsening(metric, median(a), median(b));
    let widest = [a, b]
        .iter()
        .filter(|runs| runs.len() >= MIN_RUNS_FOR_SPREAD)
        .map(|runs| spread(runs))
        .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |m| m.max(s))));
    let verdict = if widest.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    };
    (verdict, worse, widest)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn series(set: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = set.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    values.get("values")?.as_arr()?.iter().map(Value::as_f64).collect()
}

fn failed_frac(set: &Value, workload: &str) -> Option<f64> {
    let w = set.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

/// Entry point of the `compare` subcommand; `Ok(false)` on any regression.
///
/// # Errors
///
/// Wrong usage, or a file that cannot be read or lacks a workload/metric.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (a_path, b_path, spec_path) = match args {
        [a, b] => (a, b, "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => (a, b, spec.as_str()),
        _ => return Err("usage: compare A.json B.json [--spec BENCHMARK.json]".into()),
    };
    let spec = Spec::load(spec_path)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressions = 0usize;
    println!(
        "{:<12} {:<20} {:>12} {:>12} {:>9} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse", "spread"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let get = |set, path: &str| {
                series(set, workload, &metric.name)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("{path}: no {workload} / {}", metric.name))
            };
            let (sa, sb) = (get(&a, a_path)?, get(&b, b_path)?);
            let (verdict, worse, widest) = judge(metric, &sa, &sb);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{workload:<12} {:<20} {:>12.4} {:>12.4} {:>+8.2}% {:>8}  {}",
                metric.name,
                median(&sa),
                median(&sb),
                worse * 100.0,
                widest.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
                match verdict {
                    Verdict::Within =>
                        format!("within {:.0}%", metric.bound.unwrap_or(0.0) * 100.0),
                    Verdict::Regression => "REGRESSION".to_string(),
                    Verdict::Unresolved => "unresolved (spread > bound)".to_string(),
                }
            );
        }
        let frac = |set, path: &str| {
            failed_frac(set, workload).ok_or_else(|| format!("{path}: no {workload} counts"))
        };
        let (fa, fb) = (frac(&a, a_path)?, frac(&b, b_path)?);
        let worse = fb > fa;
        regressions += usize::from(worse);
        println!(
            "{workload:<12} {:<20} {fa:>12.6} {fb:>12.6} {:>9} {:>8}  {}",
            "failed_frac",
            "",
            "",
            if worse { "REGRESSION" } else { "not higher" }
        );
    }
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool) -> SpecMetric {
        SpecMetric { name: "m".into(), unit: "ms".into(), lower_is_better, bound: Some(0.10) }
    }

    #[test]
    fn within_regression_and_direction() {
        let lower = metric(true);
        assert_eq!(judge(&lower, &[100.0], &[109.0]).0, Verdict::Within);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).0, Verdict::Regression);
        assert_eq!(judge(&lower, &[100.0], &[50.0]).0, Verdict::Within, "faster is fine");
        let higher = metric(false);
        assert_eq!(judge(&higher, &[100.0], &[91.0]).0, Verdict::Within);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).0, Verdict::Regression);
        assert_eq!(judge(&higher, &[100.0], &[200.0]).0, Verdict::Within);
    }

    #[test]
    fn a_noisy_set_is_unresolved_not_unchanged() {
        let lower = metric(true);
        // quartiles of 80 90 100 110 120 are 85 and 115: spread 0.30 > 0.10.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        let (verdict, worse, widest) = judge(&lower, &steady, &noisy);
        assert_eq!(verdict, Verdict::Unresolved);
        assert_eq!(worse, 0.0);
        assert_eq!(widest, Some(0.30));
        assert_eq!(judge(&lower, &steady, &steady).0, Verdict::Within);
        // Fewer than four runs: no spread, medians decide.
        assert_eq!(judge(&lower, &[100.0, 100.0], &[150.0, 150.0]).0, Verdict::Regression);
    }
}
