//! `--agree A.json B.json`: do two result sets of the same commit agree
//! within the benchmark's own bounds?
//!
//! A result set is an `--out` document: any number of end-to-end runs per
//! workload (one per seed). For every `(workload, metric)` the two sets'
//! medians are compared against the metric's bound from `BENCHMARK.json`,
//! and — where a set holds at least two runs — so is each set's own spread
//! (interquartile distance over median, as the acceptance rule takes it).
//! A row whose medians differ, or whose spread reaches, beyond the bound
//! is *unresolved*: at that noise the benchmark could not tell a
//! regression of that size from nothing.

use crate::report::END_TO_END;
use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;

/// `(workload, metric)` → values, one per end-to-end run in the document.
fn collect(doc: &Value) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in doc["runs"].as_array().map(Vec::as_slice).unwrap_or_default() {
        if run["trace"].as_bool() != Some(false) {
            continue;
        }
        let Some(workload) = run["workload"].as_str() else { continue };
        for metric in run["metrics"].as_array().map(Vec::as_slice).unwrap_or_default() {
            if let (Some(name), Some(value)) = (metric["name"].as_str(), metric["value"].as_f64()) {
                out.entry((workload.to_string(), name.to_string())).or_default().push(value);
            }
        }
    }
    out
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Bounds by metric name from `BENCHMARK.json`.
fn bounds(benchmark: &Value) -> BTreeMap<String, f64> {
    benchmark["end_to_end"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| Some((e["name"].as_str()?.to_string(), e["bound"].as_f64()?)))
        .collect()
}

/// One compared row.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// `|a − b|` as a share of the smaller magnitude.
    pub apart: f64,
    /// The wider of the two sets' own spreads, when either has two runs.
    pub spread: Option<f64>,
    pub bound: f64,
    pub resolved: bool,
}

/// Compares the two sets metric by metric; rows in catalog order per
/// workload. A pair present in only one set is an error.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<Vec<Row>, String> {
    let (a, b, bounds) = (collect(a), collect(b), bounds(benchmark));
    let mut rows = Vec::new();
    let workloads: Vec<&String> = {
        let mut seen: Vec<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
        seen.sort();
        seen.dedup();
        seen
    };
    for workload in workloads {
        for (metric, _, _) in END_TO_END {
            let key = (workload.clone(), metric.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{workload} {metric} is missing from one of the sets"));
            };
            let bound = *bounds
                .get(metric)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))?;
            let (ma, mb) = (median(va), median(vb));
            let apart = (ma - mb).abs() / ma.abs().min(mb.abs()).max(f64::MIN_POSITIVE);
            let spread = [spread(va), spread(vb)].into_iter().flatten().reduce(f64::max);
            // setup_s is reported and compared, but its spread is exempt,
            // exactly as the acceptance rule exempts it.
            let spread_ok = metric == "setup_s" || spread.is_none_or(|s| s <= bound);
            let resolved = apart <= bound && spread_ok;
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                median_a: ma,
                median_b: mb,
                apart,
                spread,
                bound,
                resolved,
            });
        }
    }
    Ok(rows)
}

/// Runs `--agree`; returns the process exit code.
pub fn main(path_a: &str, path_b: &str, benchmark_path: &str) -> i32 {
    let docs = read_json(path_a)
        .and_then(|a| Ok((a, read_json(path_b)?, read_json(benchmark_path)?)))
        .and_then(|(a, b, bench)| compare(&a, &b, &bench));
    let rows = match docs {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("perf --agree: {e}");
            return 2;
        }
    };
    println!("workload metric median_a median_b apart spread bound verdict");
    let mut unresolved = 0;
    for r in &rows {
        let spread = r.spread.map_or("-".to_string(), |s| format!("{:.4}", s));
        let verdict = if r.resolved { "agree" } else { "unresolved" };
        if !r.resolved {
            unresolved += 1;
        }
        println!(
            "{} {} {} {} {:.4} {spread} {} {verdict}",
            r.workload, r.metric, r.median_a, r.median_b, r.apart, r.bound
        );
    }
    println!("{} rows, {unresolved} unresolved", rows.len());
    i32::from(unresolved > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn set(values: &[f64]) -> Value {
        let runs: Vec<Value> = values
            .iter()
            .map(|&v| {
                let metrics: Vec<Value> = END_TO_END
                    .iter()
                    .map(|(name, unit, _)| json!({"name": *name, "value": v, "unit": *unit}))
                    .collect();
                json!({"workload": "w", "trace": false, "metrics": metrics})
            })
            .collect();
        json!({"runs": runs})
    }

    fn benchmark(bound: f64) -> Value {
        let list: Vec<Value> =
            END_TO_END.iter().map(|(name, _, _)| json!({"name": *name, "bound": bound})).collect();
        json!({"end_to_end": list})
    }

    #[test]
    fn equal_sets_agree_and_distant_sets_do_not() {
        let rows = compare(&set(&[1.0, 1.01, 0.99]), &set(&[1.0, 1.0, 1.02]), &benchmark(0.1));
        assert!(rows.expect("comparable").iter().all(|r| r.resolved));
        let rows = compare(&set(&[1.0]), &set(&[1.2]), &benchmark(0.1)).expect("comparable");
        assert!(rows.iter().all(|r| !r.resolved && r.spread.is_none()));
    }

    #[test]
    fn a_wide_spread_is_unresolved_except_for_setup() {
        let noisy = set(&[1.0, 1.5, 0.5, 1.0]);
        let rows = compare(&noisy, &noisy, &benchmark(0.1)).expect("comparable");
        for r in rows {
            assert_eq!(r.resolved, r.metric == "setup_s", "{}", r.metric);
        }
    }

    #[test]
    fn a_missing_pair_is_an_error() {
        let empty = json!({"runs": Vec::<Value>::new()});
        assert!(compare(&set(&[1.0]), &empty, &benchmark(0.1)).is_err());
    }
}
