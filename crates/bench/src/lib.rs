//! # `ec-bench` — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus shared
//! plumbing in this library:
//!
//! * [`Args`] — tiny `key=value` CLI parsing so every experiment accepts
//!   `scale=`, `epochs=`, `workers=` overrides;
//! * [`bench_dataset`] — bench-scale replica instantiation (smaller than
//!   the library defaults so the full suite regenerates in minutes; the
//!   exact sizes are printed with every run and recorded in
//!   `EXPERIMENTS.md`);
//! * [`emit`] — human-readable table rows plus machine-readable JSON lines
//!   (prefixed `#json`), so results can be diffed across runs.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

use ec_graph_data::{AttributedGraph, DatasetSpec};
use std::collections::HashMap;

/// Parsed `key=value` command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator of `key=value` strings.
    pub fn parse(it: impl IntoIterator<Item = String>) -> Self {
        let mut map = HashMap::new();
        for arg in it {
            if let Some((k, v)) = arg.split_once('=') {
                map.insert(k.trim_start_matches('-').to_string(), v.to_string());
            }
        }
        Self { map }
    }

    /// Typed lookup with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.map.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// String lookup with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.to_string())
    }
}

/// Bench-scale vertex counts per dataset: small enough that the entire
/// suite regenerates in minutes, large enough that the cross-system
/// orderings are stable. Scaled further by the `scale=` argument.
pub fn bench_vertices(spec: &DatasetSpec, scale: f64) -> usize {
    let base = match spec.name {
        "cora" => 2_708, // full size, like the paper
        "pubmed" => 4_000,
        "reddit" => 4_096, // degree clamps to the structural ceiling (~105)
        "products" => 4_096,
        "papers" => 8_192,
        _ => spec.default_vertices,
    };
    ((base as f64 * scale) as usize).max(64)
}

/// Bench-scale feature dimensions: Cora's 1433-dim features dominate
/// compute without affecting any communication conclusion, so benches trim
/// the two citation graphs.
pub fn bench_feature_dim(spec: &DatasetSpec) -> usize {
    match spec.name {
        "cora" => 256,
        "pubmed" => 128,
        _ => spec.feature_dim,
    }
}

/// Instantiates a dataset replica at bench scale.
pub fn bench_dataset(spec: &DatasetSpec, scale: f64, seed: u64) -> AttributedGraph {
    spec.instantiate_with(bench_vertices(spec, scale), bench_feature_dim(spec), seed)
}

/// The paper's hidden width per dataset (Section V-A: "the hidden layer
/// sizes are set to 16, 16, 16, 256, and 256"), capped at 64 at bench
/// scale so the suite regenerates quickly.
pub fn bench_hidden(spec: &DatasetSpec) -> usize {
    spec.default_hidden.min(64)
}

/// The paper's per-dataset GCN shape: `[d0, hidden × (layers-1), classes]`.
pub fn paper_dims(data: &AttributedGraph, hidden: usize, layers: usize) -> Vec<usize> {
    let mut dims = vec![data.feature_dim()];
    dims.extend(std::iter::repeat_n(hidden, layers - 1));
    dims.push(data.num_classes);
    dims
}

/// Emits a human table row to stdout and a `#json` machine line.
pub fn emit(experiment: &str, human: &str, json: serde_json::Value) {
    println!("{human}");
    println!(
        "#json {{\"experiment\":\"{experiment}\",{}}}",
        json.to_string().trim_start_matches('{').trim_end_matches('}')
    );
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_key_values() {
        let a = Args::parse(["scale=0.5".into(), "--epochs=20".into(), "flag".into()]);
        assert_eq!(a.get("scale", 1.0f64), 0.5);
        assert_eq!(a.get("epochs", 5usize), 20);
        assert_eq!(a.get("missing", 7usize), 7);
        assert_eq!(a.get_str("mode", "full"), "full");
    }

    #[test]
    fn bench_scale_respects_floor() {
        let spec = DatasetSpec::cora();
        assert_eq!(bench_vertices(&spec, 1.0), 2708);
        assert_eq!(bench_vertices(&spec, 1e-9), 64);
    }

    #[test]
    fn paper_dims_shape() {
        let data = DatasetSpec::cora().instantiate_with(100, 32, 1);
        assert_eq!(paper_dims(&data, 16, 3), vec![32, 16, 16, data.num_classes]);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.001).ends_with("ms"));
        assert_eq!(fmt_secs(2.5), "2.50");
        assert_eq!(fmt_secs(123.45), "123.5");
    }
}
pub mod systems;
