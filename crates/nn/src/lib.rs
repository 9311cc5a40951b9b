//! # `ec-nn` — hand-rolled autodiff, the loss and accuracy
//!
//! The paper's EC-Graph implementation delegates model definition and
//! forward/backward computation to PyTorch. Here the distributed engine
//! states the model as the paper's explicit equations (Eqs. 2–6) and the
//! parameter servers run Adam; this crate holds what is left to share:
//!
//! * [`tape`] — a reverse-mode automatic-differentiation tape over dense
//!   matrices and sparse aggregations. The mini-batch comparators (the
//!   paper's DistDGL/AGL columns) train through this tape, and the
//!   distributed engine's manually derived gradients (Eqs. 4–6) are
//!   cross-checked against it in tests;
//! * [`loss`] — masked softmax cross-entropy (the `softmax` +
//!   `entropyloss` of Alg. 1), the one loss every trainer computes, with
//!   the divisor as an argument so a worker's share of a global mean is the
//!   same arithmetic as a batch mean;
//! * [`metrics`] — accuracy for Table V.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub mod loss;
pub mod metrics;
pub mod tape;

pub use tape::{Tape, VarId};
