//! Full-batch GNN networks built on the autodiff tape.
//!
//! * [`gcn`] — Kipf–Welling graph convolutional network, the model the
//!   paper evaluates throughout Section V;
//! * [`sage`] — GraphSAGE with mean aggregation, which the paper reports
//!   "enjoys similar performance improvements" (results omitted there for
//!   conciseness, included here for completeness).

pub mod gcn;
pub mod sage;
