//! # `ec-graph-data` — graph storage and datasets for the EC-Graph reproduction
//!
//! The paper trains full-batch GCNs over five public graphs (Cora, Pubmed,
//! Reddit, OGBN-Products, OGBN-Papers100M). Those datasets cannot be shipped
//! with this reproduction, so this crate provides:
//!
//! * [`Graph`] — an undirected CSR adjacency structure with validated
//!   invariants,
//! * [`AttributedGraph`] — graph + vertex features + labels + the
//!   train/val/test split used for semi-supervised vertex classification,
//! * [`normalize`] — the GCN-normalized adjacency
//!   `Â = D^{-1/2}(A + I)D^{-1/2}`,
//! * [`generators`] — seeded synthetic graph generators (Erdős–Rényi,
//!   stochastic block model, planted-partition homophilous graphs),
//! * [`datasets`] — **synthetic replicas** of the paper's five datasets,
//!   matched on average degree, feature dimension, class count and label
//!   homophily (vertex counts of the two OGBN graphs are scaled down; the
//!   scale is recorded per replica), and
//! * [`io`] — plain-text edge-list and label persistence.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod attributed;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod normalize;

pub use attributed::{AttributedGraph, Split};
pub use csr::Graph;
pub use datasets::DatasetSpec;
