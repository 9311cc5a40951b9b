//! The serving run's result record: latency percentiles, throughput, cache
//! and traffic accounting, emitted as canonical JSON by `ecgraph serve`.
//!
//! Like [`ec_graph::report::RunResult`], the canonical JSON deliberately
//! excludes the attached telemetry: recording level must never change the
//! result bytes, and the determinism suite compares `to_json()` strings
//! between telemetry-off and telemetry-on runs to prove it.

use serde_json::{json, Value};

/// Per-worker serving outcome.
#[derive(Clone, Debug, Default)]
pub struct WorkerServeStats {
    /// Requests served by this worker.
    pub served: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch: f64,
    /// Served queries per simulated second.
    pub qps: f64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
}

/// Outcome of one closed-loop serving run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Dataset served.
    pub dataset: String,
    /// Serving workers.
    pub workers: usize,
    /// Requests issued by the load generator.
    pub issued: u64,
    /// Requests completed (equals `issued` once the loop drains).
    pub served: u64,
    /// Simulated makespan of the run (first issue to last completion).
    pub sim_duration_s: f64,
    /// Median simulated request latency.
    pub latency_p50_s: f64,
    /// 99th-percentile simulated request latency.
    pub latency_p99_s: f64,
    /// Mean simulated request latency.
    pub latency_mean_s: f64,
    /// Worst simulated request latency.
    pub latency_max_s: f64,
    /// Total served queries per simulated second.
    pub qps_total: f64,
    /// Per-worker breakdown.
    pub per_worker: Vec<WorkerServeStats>,
    /// Remote rows fetched over the network while serving.
    pub fetch_rows: u64,
    /// Fetch reply bytes moved while serving.
    pub fetch_bytes: u64,
    /// Checkpoint installs (initial load + refreshes).
    pub refreshes: u64,
    /// Bytes moved by checkpoint installs.
    pub refresh_bytes: u64,
    /// Modeled seconds of checkpoint installs (outside request latency).
    pub refresh_comm_s: f64,
    /// Total bytes on the serving network (requests + replies + installs).
    pub network_bytes: u64,
    /// Store version the run finished at.
    pub version: u32,
    /// Telemetry attached when recording was on — excluded from
    /// [`Self::to_json`] by design.
    pub telemetry: Option<ec_trace::TelemetryReport>,
}

impl ServeReport {
    /// Canonical JSON (telemetry excluded; see module docs).
    pub fn to_json(&self) -> Value {
        json!({
            "dataset": self.dataset,
            "workers": self.workers,
            "issued": self.issued,
            "served": self.served,
            "sim_duration_s": self.sim_duration_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_max_s": self.latency_max_s,
            "qps_total": self.qps_total,
            "per_worker": self.per_worker.iter().map(|w| json!({
                "served": w.served,
                "batches": w.batches,
                "mean_batch": w.mean_batch,
                "qps": w.qps,
                "cache_hits": w.cache_hits,
                "cache_misses": w.cache_misses,
            })).collect::<Vec<_>>(),
            "fetch_rows": self.fetch_rows,
            "fetch_bytes": self.fetch_bytes,
            "refreshes": self.refreshes,
            "refresh_bytes": self.refresh_bytes,
            "refresh_comm_s": self.refresh_comm_s,
            "network_bytes": self.network_bytes,
            "version": self.version,
        })
    }
}

/// `q`-quantile (`0 < q <= 1`) of `sorted` (ascending); 0.0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_ceiling_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_excludes_telemetry() {
        let r = ServeReport {
            dataset: "cora".into(),
            workers: 2,
            issued: 10,
            served: 10,
            sim_duration_s: 1.0,
            latency_p50_s: 0.1,
            latency_p99_s: 0.2,
            latency_mean_s: 0.12,
            latency_max_s: 0.3,
            qps_total: 10.0,
            per_worker: vec![WorkerServeStats::default()],
            fetch_rows: 5,
            fetch_bytes: 100,
            refreshes: 1,
            refresh_bytes: 50,
            refresh_comm_s: 0.01,
            network_bytes: 150,
            version: 0,
            telemetry: None,
        };
        let s = r.to_json().to_string();
        assert!(s.contains("\"latency_p99_s\""));
        assert!(!s.contains("telemetry"));
    }
}
