//! # `ec-graph` — the EC-Graph distributed GNN system
//!
//! This crate is the reproduction's centerpiece: the distributed,
//! graph-centered full-batch GNN training system of *"EC-Graph: A
//! Distributed Graph Neural Network System with Error-Compensated
//! Compression"* (ICDE 2022), together with every baseline system its
//! evaluation compares against.
//!
//! ## The system
//!
//! * [`config`] — training configuration: forward/backward compression
//!   modes ([`config::FpMode`], [`config::BpMode`]) cover the paper's
//!   Non-cp / Cp-fp / Cp-bp / ReqEC-FP / ResEC-BP / Bit-Tuner grid and the
//!   DistGNN-style delayed aggregation;
//! * [`context`] — the Graph Engine: per-worker subgraph slices, remote
//!   1-hop dependency sets (the NAC's view), local vertex renumbering;
//! * [`fp`] — forward-pass message preparation: plain quantization and
//!   **ReqEC-FP** (trend groups, three candidate approximations, the
//!   Selector of Eq. 10, and the adaptive Bit-Tuner);
//! * [`bp`] — backward-pass message preparation: plain quantization and
//!   **ResEC-BP** (error-feedback residual, Eqs. 11–12);
//! * `link` (private) — the link table: per (requester, owner, layer) the
//!   gather plan, the block of the requester's remote operand and the
//!   compensation state resolved from the modes, and the one respond → send
//!   loop both exchanges are;
//! * [`engine`] — the superstep engine: Algorithms 1–6 over the simulated
//!   cluster, parameter-server pulls/pushes, byte-accurate traffic and
//!   simulated epoch times;
//! * [`trainer`] — the epoch loop: convergence tracking, evaluation,
//!   [`report::RunResult`] emission;
//! * [`sampling`] — offline per-layer fan-out sampling (EC-Graph-S) and
//!   mini-batch block sampling (DistDGL-style);
//! * [`baselines`] — DGL/PyG-like single-machine trainers, the
//!   ML-centered (AliGraph-FG / AGL) systems, and the DistDGL-like
//!   online-sampling trainer;
//! * [`cost_model`] — the analytic Table II cost comparison;
//! * [`infer`] — read-only inference: [`infer::ModelWeights`] detaches
//!   trained weights from the engine (or loads them straight from a
//!   checkpoint) and owns the forward kernels that `evaluate()` and the
//!   `ec-serve` serving layer share;
//! * [`report`] — experiment result records shared by the bench harness;
//! * [`wire`] — concrete serialization for every vertex message (the
//!   gRPC/protobuf stand-in), with tests proving the engine's analytic
//!   byte charges equal real serialized sizes.
//!
//! ## No `unsafe`
//!
//! Like every crate of the workspace except `ec-tensor` (whose worker pool
//! holds the one audited block), this crate is `#![forbid(unsafe_code)]`,
//! so an `unsafe` block anywhere in it is a compile error — and `forbid`,
//! unlike `deny`, cannot be lowered again further down.
//!
//! ```compile_fail
//! #![forbid(unsafe_code)]
//! fn first(buf: &[f32]) -> f32 {
//!     unsafe { *buf.get_unchecked(0) } // error: usage of an `unsafe` block
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod baselines;
pub mod bp;
pub mod config;
pub mod context;
pub mod cost_model;
pub mod engine;
pub mod exec;
pub mod fp;
pub mod infer;
mod link;
pub mod report;
pub mod sampling;
pub mod trainer;
pub mod wire;

pub use config::{BpMode, FpMode, ResilienceConfig, ResiliencePolicy, TrainingConfig};
pub use engine::{DistributedEngine, EngineSnapshot};
pub use report::{EpochRecord, RunResult};
pub use trainer::train;
