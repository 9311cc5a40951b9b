//! Offline stand-in for `serde`.
//!
//! Exposes the `Serialize` / `Deserialize` names (trait + derive macro) so
//! existing annotations compile without registry access. The traits are
//! markers: no in-tree code drives the serde data model — persistent state
//! goes through the explicit binary codec in `ec-comm` instead.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize<'de> {}
