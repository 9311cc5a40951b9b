//! # `ec-tensor` — linear-algebra substrate for the EC-Graph reproduction
//!
//! EC-Graph (ICDE 2022) uses PyTorch as its computation backend. This crate
//! is our from-scratch replacement: a small, deterministic, dependency-light
//! set of `f32` kernels sufficient for full-batch GNN training:
//!
//! * [`Matrix`] — a row-major dense matrix with the elementwise,
//!   matrix-multiply and row-gather operations the paper's Eqs. 2–6 need;
//! * [`CsrMatrix`] — a compressed-sparse-row matrix used for the normalized
//!   adjacency `Â = D^{-1/2}(A + I)D^{-1/2}` and the SpMM kernels
//!   (`Â · H` and `Âᵀ · G`) that dominate GNN compute;
//! * [`activations`] — ReLU / softmax and their derivatives;
//! * [`init`] — Xavier/Glorot and plain uniform / normal initializers (seeded,
//!   reproducible);
//! * [`stats`] — norms and summary statistics used by the error-compensation
//!   machinery (L1 selector distances, L2 residual norms for Theorem 1).
//!
//! Kernels are deterministic: the distributed engine built on top simulates
//! a cluster worker-by-worker, and determinism is what makes every
//! experiment in `EXPERIMENTS.md` exactly reproducible. The [`parallel`]
//! module offers thread-parallel variants of the hot kernels whose output
//! is bit-identical to the sequential ones (rows are partitioned across
//! the lanes of a persistent [`pool::WorkerPool`], each band computed in
//! the same order by the same tiled kernel body). The [`isa`] module
//! compiles each hot kernel body once per x86-64 instruction-set tier
//! (SSE2, AVX2, AVX-512) and picks the widest the CPU reports at run time
//! — also bit-identical: no tier uses FMA, so width only changes how many
//! output elements advance per instruction.

#![deny(unsafe_code, clippy::undocumented_unsafe_blocks, clippy::unnecessary_safety_comment)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod activations;
pub mod dense;
pub mod init;
pub mod isa;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod sparse;
pub mod stats;

pub use dense::Matrix;
pub use sparse::CsrMatrix;
