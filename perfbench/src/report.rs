//! Metric catalog, result records and their text / JSON forms.
//!
//! The catalog is the single list of metric names in the program; the
//! `BENCHMARK.json` at the repository root repeats the names, units and
//! directions (and adds the bounds), and a unit test below keeps the two
//! in step.

use serde_json::{json, Value};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Catalog entry: `(name, unit, direction)`.
pub type Def = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// What a user of the system sees; measured with benchmark tracing off,
/// telemetry off and sequential compute. Every workload reports all ten.
pub const END_TO_END: [Def; 10] = [
    ("setup_s", "s", Lower),
    ("epoch_host_s", "s", Lower),
    ("epoch_sim_s", "s", Lower),
    ("epoch_wire_bytes", "B", Lower),
    ("test_acc", "ratio", Higher),
    ("req_host_us", "us", Lower),
    ("req_sim_p50_ms", "ms", Lower),
    ("req_sim_p99_ms", "ms", Lower),
    ("sim_qps", "1/s", Higher),
    ("req_wire_bytes", "B", Lower),
];

/// One row per layer quantity; measured only by a traced run. Every
/// workload reports all of them (replays run at the workload's shapes even
/// where its own configuration bypasses the layer).
pub const PER_LAYER: [Def; 75] = [
    // ec-tensor
    ("tensor.matmul_gflops", "GFLOP/s", Higher),
    ("tensor.matmul_at_b_gflops", "GFLOP/s", Higher),
    ("tensor.matmul_a_bt_gflops", "GFLOP/s", Higher),
    ("tensor.spmm_gflops", "GFLOP/s", Higher),
    ("tensor.spmm_gbps", "GB/s", Higher),
    ("tensor.kernels_s_per_epoch", "s", Lower),
    ("tensor.pool_dispatch_us", "us", Lower),
    // ec-compress
    ("compress.quantize_b2_melems", "Melem/s", Higher),
    ("compress.quantize_b4_melems", "Melem/s", Higher),
    ("compress.quantize_b8_melems", "Melem/s", Higher),
    ("compress.dequantize_b2_melems", "Melem/s", Higher),
    ("compress.dequantize_b8_melems", "Melem/s", Higher),
    ("compress.codec_s_per_epoch", "s", Lower),
    ("compress.ratio", "ratio", Lower),
    // ec-graph (crates/core)
    ("core.reqec_ns_per_vertex", "ns", Lower),
    ("core.resec_ns_per_vertex", "ns", Lower),
    ("core.selector_pdt_share", "ratio", Higher),
    ("core.selector_cps_share", "ratio", Lower),
    ("core.exchange_s_per_epoch", "s", Lower),
    ("core.bits_mean", "bits", Lower),
    ("core.fp_bytes_per_epoch", "B", Lower),
    ("core.bp_bytes_per_epoch", "B", Lower),
    ("core.param_bytes_per_epoch", "B", Lower),
    ("core.messages_per_epoch", "count", Lower),
    ("core.compute_s_per_epoch", "s", Lower),
    ("core.comm_s_per_epoch", "s", Lower),
    ("core.epoch_host_seq_s", "s", Lower),
    ("core.epoch_sim_seq_s", "s", Lower),
    ("core.epoch_host_tail_s", "s", Lower),
    ("core.time_to_target_sim_s", "s", Lower),
    ("core.pack_s_per_epoch", "s", Lower),
    ("core.unpack_s_per_epoch", "s", Lower),
    ("core.wire_encode_gbps", "GB/s", Higher),
    ("core.wire_decode_gbps", "GB/s", Higher),
    ("core.snapshot_ms", "ms", Lower),
    ("core.restore_ms", "ms", Lower),
    ("core.evaluate_ms", "ms", Lower),
    ("core.engine_new_ms", "ms", Lower),
    ("core.unattributed_s_per_epoch", "s", Lower),
    // ec-comm
    ("comm.put_matrix_gbps", "GB/s", Higher),
    ("comm.get_matrix_gbps", "GB/s", Higher),
    ("comm.send_ns", "ns", Lower),
    ("comm.ps_step_us", "us", Lower),
    // ec-serve
    ("serve.answer_batch_us", "us", Lower),
    ("serve.answer_batch_tail_us", "us", Lower),
    ("serve.loop_share", "ratio", Lower),
    ("serve.cache_hit_rate", "ratio", Higher),
    ("serve.fetch_rows_per_req", "count", Lower),
    ("serve.fetch_bytes_per_req", "B", Lower),
    ("serve.mean_batch", "count", Higher),
    ("serve.cache_get_ns", "ns", Lower),
    ("serve.cache_insert_ns", "ns", Lower),
    ("serve.store_gather_ns_per_row", "ns", Lower),
    ("serve.reply_codec_ns_per_row", "ns", Lower),
    ("serve.refresh_ms", "ms", Lower),
    ("serve.service_new_ms", "ms", Lower),
    ("serve.model_load_ms", "ms", Lower),
    // ec-trace and the benchmark's own spans
    ("telemetry.overhead_epoch", "ratio", Lower),
    ("telemetry.overhead_superstep", "ratio", Lower),
    ("telemetry.overhead_trace", "ratio", Lower),
    ("telemetry.serve_overhead_trace", "ratio", Lower),
    ("bench.trace_overhead", "ratio", Lower),
    // set-up layers
    ("graph.generate_ms", "ms", Lower),
    ("graph.normalize_ms", "ms", Lower),
    ("partition.hash_ms", "ms", Lower),
    ("partition.edge_cut_fraction", "ratio", Lower),
    ("partition.avg_remote_degree", "count", Lower),
    // allocation and host
    ("alloc.count_per_epoch", "count", Lower),
    ("alloc.bytes_per_epoch", "B", Lower),
    ("alloc.count_per_req", "count", Lower),
    ("alloc.bytes_per_req", "B", Lower),
    ("alloc.peak_bytes", "B", Lower),
    ("host.stream_gbps", "GB/s", Higher),
    ("host.fma_gflops", "GFLOP/s", Higher),
    ("host.threads", "count", Higher),
];

/// Rows that need more than one thread to mean anything. They are printed
/// and written to `--out` when `threads_resolved > 1` and omitted — not
/// faked — otherwise, so they are outside the fixed contract list above.
pub const THREAD_ROWS: [Def; 3] = [
    ("core.epoch_host_mt_s", "s", Lower),
    ("core.thread_speedup", "ratio", Higher),
    ("tensor.kernel_mt_speedup", "ratio", Higher),
];

fn lookup(name: &str) -> Def {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&THREAD_ROWS)
        .copied()
        .find(|d| d.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile (0 = a single measurement
    /// or a count).
    pub n: usize,
    /// Free-form qualifier, e.g. the percentile a tail row is stated at.
    pub note: String,
}

/// The metrics of one run, in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a single measurement or count.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_n(name, value, 0, "");
    }

    /// Adds a value derived from `n` samples, with an optional note.
    pub fn put_n(&mut self, name: &str, value: f64, n: usize, note: &str) {
        let (name, unit, _) = lookup(name);
        self.0.push(Metric { name, value, unit, n, note: note.to_string() });
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one `(workload, seed, trace)` run produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    /// `(worker_threads, kernel_threads)` that `ComputeConfig::default()`
    /// resolves to on this host for this workload.
    pub threads_resolved: (usize, usize),
    pub wall_s: f64,
    /// Operations attempted: epochs plus requests.
    pub attempted: u64,
    /// Operations that failed, plus one per failed output check.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Metrics,
}

impl RunResult {
    /// True when no operation and no output check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Human-readable rows: `workload metric value unit [n=…] [note]`.
    pub fn print_rows(&self) {
        for m in &self.metrics.0 {
            let mut row = format!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
            if m.n > 0 {
                row.push_str(&format!(" n={}", m.n));
            }
            if !m.note.is_empty() {
                row.push_str(&format!(" ({})", m.note));
            }
            println!("{row}");
        }
        println!("{} ops_attempted {} count", self.workload, self.attempted);
        println!("{} ops_failed {} count", self.workload, self.failed);
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            println!("{} check {} {verdict} ({})", self.workload, c.name, c.detail);
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter restricted to `list` (the
    /// end-to-end or the per-layer catalog).
    pub fn contract_line(&self, list: &[Def]) -> Value {
        let metrics: Vec<(String, Value)> = list
            .iter()
            .filter_map(|(name, unit, _)| {
                self.metrics
                    .get(name)
                    .map(|v| (name.to_string(), json!({"value": v, "unit": *unit})))
            })
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// The run as it appears in the `--out` document.
    pub fn to_json(&self) -> Value {
        let metrics: Vec<Value> = self
            .metrics
            .0
            .iter()
            .map(|m| json!({"name": m.name, "value": m.value, "unit": m.unit, "n": m.n, "note": m.note}))
            .collect();
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| json!({"name": c.name, "ok": c.ok, "detail": c.detail}))
            .collect();
        json!({
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.traced,
            "seconds": self.seconds,
            "threads_resolved": vec![self.threads_resolved.0, self.threads_resolved.1],
            "wall_s": self.wall_s,
            "correct": self.correct(),
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "checks": checks,
            "metrics": metrics,
        })
    }
}

/// Names a metric may use (the contract's charset).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    /// `BENCHMARK.json` sits one level above the package.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        serde_json::from_str(&text).expect("parse BENCHMARK.json")
    }

    fn check_list(doc: &Value, key: &str, catalog: &[Def]) {
        let listed = doc[key].as_array().expect("metric list");
        assert_eq!(listed.len(), catalog.len(), "{key} length");
        for (entry, (name, unit, better)) in listed.iter().zip(catalog) {
            assert_eq!(entry["name"].as_str(), Some(*name));
            assert_eq!(entry["unit"].as_str(), Some(*unit), "{name}");
            let direction = if *better == Lower { "lower" } else { "higher" };
            assert_eq!(entry["better"].as_str(), Some(direction), "{name}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = benchmark_json();
        check_list(&doc, "end_to_end", &END_TO_END);
        check_list(&doc, "per_layer", &PER_LAYER);
        let workloads = doc["workloads"].as_array().expect("workloads");
        assert_eq!(workloads.len(), ALL.len());
        for (entry, w) in workloads.iter().zip(&ALL) {
            assert_eq!(entry["name"].as_str(), Some(w.name));
            assert_eq!(entry["why"].as_str(), Some(w.why));
        }
        for entry in doc["end_to_end"].as_array().expect("end_to_end") {
            let bound = entry["bound"].as_f64().expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(&PER_LAYER).chain(&THREAD_ROWS) {
            assert!(valid_name(name), "{name}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in &ALL {
            assert!(valid_name(w.name) && w.why.len() <= 200, "{}", w.name);
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
    }
}
