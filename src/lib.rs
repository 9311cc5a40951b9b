//! # EC-Graph reproduction — umbrella crate
//!
//! This crate re-exports the public API of the whole workspace so that the
//! runnable examples under `examples/` and the cross-crate integration
//! tests under `tests/` can use a single dependency.
//!
//! The actual functionality lives in the member crates:
//!
//! * [`tensor`] — dense/sparse linear-algebra kernels,
//! * [`data`] — graph storage, synthetic dataset replicas,
//! * [`partition`] — Hash / METIS-like / streaming partitioners,
//! * [`compress`] — B-bit bucket quantization with bit-packing,
//! * [`comm`] — the simulated cluster (network model, parameter servers),
//! * [`faults`] — deterministic fault injection (drops, corruption,
//!   stragglers, crashes) for the simulated cluster,
//! * [`nn`] — hand-rolled autodiff, softmax cross-entropy, accuracy,
//! * [`ecgraph`] — the EC-Graph distributed engine, ReqEC-FP, ResEC-BP and
//!   every baseline system from the paper's evaluation,
//! * [`serve`] — the checkpoint-backed inference service (embedding store,
//!   per-worker caches, request batching, closed-loop load generation),
//! * [`trace`] — deterministic span tracing and the EC-metrics registry,
//!   with Chrome-trace / metrics-JSON / timeline exporters.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub use ec_comm as comm;
pub use ec_compress as compress;
pub use ec_faults as faults;
pub use ec_graph as ecgraph;
pub use ec_graph_data as data;
pub use ec_nn as nn;
pub use ec_partition as partition;
pub use ec_serve as serve;
pub use ec_tensor as tensor;
pub use ec_trace as trace;
