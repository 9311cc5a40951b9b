//! # `ec-serve` — checkpoint-backed inference over the partitioned store
//!
//! Training produces a checkpoint; this crate serves it. The north-star
//! workload ("serve heavy traffic from millions of users") is read-mostly,
//! latency-bound and cache-friendly — a different regime from training —
//! and EC-Graph's compressed wire machinery is exactly what keeps the
//! cross-partition embedding fetches cheap at serve time.
//!
//! The pieces, mirroring the training stack's layering:
//!
//! * [`store`] — the partitioned [`store::EmbeddingStore`]: materialized
//!   layer-`L−1` activations `H` and their final-layer products
//!   `P = H·W^{L-1}` (plus GraphSAGE's self product), version-tagged,
//!   rebuilt per checkpoint via the read-only
//!   [`ec_graph::infer::ModelWeights`] forward path;
//! * [`cache`] — per-worker deterministic LRU + pinned-hot-set
//!   [`cache::EmbeddingCache`] over fetched remote rows, held projected
//!   (`C` floats);
//! * [`wire`] — the fetch protocol ([`wire::ServeRequest`] /
//!   [`wire::ServeReply`]) carrying `P` rows when `C ≤ k` and `H` rows
//!   otherwise, per-row quantized so reconstruction does not depend on
//!   request batching (the cache-consistency property);
//! * [`service`] — [`service::InferenceService`]: batched per-vertex
//!   query answering over [`ec_comm::SimNetwork`], byte-identical to the
//!   full-graph forward pass in exact-fetch mode;
//! * [`loadgen`] — seeded closed-loop load generation (Zipf popularity,
//!   bursty think times) driving the service through a deterministic
//!   discrete-event loop;
//! * [`report`] — the [`report::ServeReport`] with p50/p99 latency and
//!   QPS per worker, emitted as canonical JSON by `ecgraph serve`.
//!
//! Everything is deterministic under `ec_comm::set_deterministic_timing`:
//! request latencies are *simulated* quantities (modeled network time +
//! modeled compute), so two runs of one config produce byte-identical
//! reports — the same discipline the training engine follows.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod cache;
pub mod loadgen;
pub mod report;
pub mod service;
pub mod store;
pub mod wire;

pub use cache::EmbeddingCache;
pub use loadgen::{run_closed_loop, WorkloadConfig};
pub use report::ServeReport;
pub use service::{BatchCost, InferenceService};
pub use store::EmbeddingStore;
pub use wire::{ServeReply, ServeRequest};

use ec_faults::FaultPlan;

/// Serving-side configuration: cache, fetch and fault knobs. Batching
/// (`loadgen`'s `MAX_BATCH` / `MAX_DELAY_S`), the network (Gigabit
/// Ethernet) and the compute cost model (`service`'s `SECS_PER_FLOP` /
/// `BATCH_OVERHEAD_S`) are fixed.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Serving workers (must equal the partition's part count).
    pub num_workers: usize,
    /// LRU capacity (rows) of each worker's embedding cache; 0 disables
    /// caching of fetched rows.
    pub cache_rows: usize,
    /// Remote rows each worker pins (prefetches) per checkpoint install,
    /// picked by descending in-edge degree.
    pub pinned_rows: usize,
    /// `None` ships exact `f32` rows (serving answers are then
    /// bit-identical to the full-graph forward pass); `Some(b)` ships each
    /// row — projected or not, as the store ships it — quantized to `b` bits
    /// with a per-row range. Every shipped row is encoded once per
    /// checkpoint install, so a fetch only decodes.
    pub fetch_bits: Option<u8>,
    /// Fault plan injected into the serving network: a straggler scales its
    /// node's compute and NIC time; drops and corruptions are retried until
    /// delivered, each failed attempt charged. Crashes do not apply.
    pub faults: FaultPlan,
    /// Kernel threads for store (re)materialization; 0 = auto.
    pub kernel_threads: usize,
    /// Telemetry recording level for serving metrics.
    pub telemetry: ec_trace::TelemetryConfig,
}

impl ServeConfig {
    /// Defaults for `num_workers` workers: a 256-row cache with 32 pinned
    /// rows and exact fetches.
    pub fn defaults(num_workers: usize) -> Self {
        Self {
            num_workers,
            cache_rows: 256,
            pinned_rows: 32,
            fetch_bits: None,
            faults: FaultPlan::none(),
            kernel_threads: 0,
            telemetry: ec_trace::TelemetryConfig::default(),
        }
    }

    /// Checks the knobs for consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_workers == 0 {
            return Err("need at least one serving worker".into());
        }
        if let Some(bits) = self.fetch_bits {
            if bits == 0 || bits > ec_compress::quantize::MAX_BITS {
                return Err(format!("fetch_bits {bits} out of range 1..=16"));
            }
        }
        self.faults.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::defaults(4).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut c = ServeConfig::defaults(4);
        c.fetch_bits = Some(0);
        assert!(c.validate().is_err());
        let mut c = ServeConfig::defaults(4);
        c.fetch_bits = Some(17);
        assert!(c.validate().is_err());
        assert!(ServeConfig::defaults(0).validate().is_err());
    }
}
