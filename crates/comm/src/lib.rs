//! # `ec-comm` — the simulated cluster substrate
//!
//! The paper runs on two physical CPU clusters connected by Gigabit
//! Ethernet, with gRPC/protobuf carrying vertex messages between workers
//! and parameter servers. This crate is the reproduction's substitute: an
//! in-process cluster whose messages are real serialized bytes and whose
//! time accounting follows the same physics the testbed imposes.
//!
//! * [`clock`] — the [`clock::NetworkModel`] converting (bytes, messages)
//!   into seconds; presets for the paper's Gigabit Ethernet and for the
//!   100 Gbps fabric DistDGL assumes;
//! * [`codec`] — little-endian wire encoding for matrices and index sets
//!   (the protobuf stand-in), with exact size accounting;
//! * [`network`] — [`network::SimNetwork`], the per-link byte/message
//!   ledger; epoch communication time is derived from the busiest NIC, the
//!   way a synchronous superstep over full-duplex Ethernet behaves;
//! * [`ps`] — range-partitioned parameter servers with `pull`/`push`
//!   operators and a server-side Adam optimizer (Section III-A's Parameter
//!   Manager);
//! * [`stats`] — per-epoch traffic summaries used by every experiment.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod clock;
pub mod codec;
pub mod network;
pub mod ps;
pub mod stats;

pub use clock::{set_deterministic_timing, HostTimer, NetworkModel};
pub use network::{SendError, SimNetwork};
pub use ps::{CheckpointError, ParameterServerGroup};
pub use stats::{LinkMatrix, TrafficStats};
