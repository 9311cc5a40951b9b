//! Offline stand-in for `serde_derive`.
//!
//! The workspace derives `Serialize` / `Deserialize` on value types for
//! API-compatibility with downstream users, but nothing in-tree calls the
//! serde data model (checkpoints and wire messages use the explicit binary
//! codec in `ec-comm`). These derives therefore accept the annotation —
//! including `#[serde(...)]` attributes — and expand to nothing.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
