//! # `ec-nn` — hand-rolled neural-network substrate
//!
//! The paper's EC-Graph implementation delegates model definition and
//! forward/backward computation to PyTorch. This crate replaces that
//! dependency with a from-scratch stack:
//!
//! * [`tape`] — a reverse-mode automatic-differentiation tape over dense
//!   matrices and sparse aggregations. The single-machine baselines (the
//!   paper's DGL/PyG columns) train through this tape, and the distributed
//!   engine's manually derived gradients (Eqs. 4–6) are cross-checked
//!   against it in tests;
//! * [`layers`] — full-batch GCN and GraphSAGE networks built on the tape;
//! * [`loss`] — masked softmax cross-entropy (the `softmax` +
//!   `entropyloss` of Alg. 1), exposed standalone because the distributed
//!   engine computes the output-layer gradient manually;
//! * [`optim`] — Adam (the paper's optimizer) and SGD over parameter sets;
//! * [`metrics`] — accuracy for Table V.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod tape;

pub use layers::gcn::GcnNetwork;
pub use layers::sage::SageNetwork;
pub use tape::{Tape, VarId};
