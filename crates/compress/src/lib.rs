//! # `ec-compress` — B-bit bucket quantization for vertex messages
//!
//! Section IV-A of the paper compresses every embedding / embedding-gradient
//! matrix crossing the network by mapping each `f32` coordinate into one of
//! `2^B` equal-width buckets and transmitting the `B`-bit bucket id instead
//! of the 32-bit float; the receiver reconstructs each coordinate as the
//! bucket's midpoint (the "average value of both bounds" in the paper's
//! Fig. 3).
//!
//! * [`bitpack`] — dense LSB-first packing of `B`-bit codes into bytes,
//! * [`quantize`] — [`quantize::Quantized`], the compressed-matrix type with
//!   compression, reconstruction and wire-format round-trips,
//! * [`error`] — residuals and error bounds used by the compensation
//!   algorithms (ReqEC-FP's Selector, ResEC-BP's error feedback, Thm. 1),
//! * [`topk`] — Top-k sparsification, the related-work comparator
//!   (the paper's [32]); `compressor_comparison` in the bench crate pits
//!   it against bucket quantization at equal byte budgets.
//!
//! ## Wire-size accounting
//!
//! The paper's message cost per embedding is `d·B + 2^B·b` bits, the second
//! term being the bucket-value table. Because the buckets are equal-width,
//! the whole table is derivable from `(min, max, B)`, so this implementation
//! transmits just those two floats — an equivalent reconstruction at
//! strictly smaller size (the paper itself notes the table cost "will be
//! amortized"; here it is 8 bytes regardless of `B`). The range is always
//! the data's own, as the paper computes it per message (Alg. 6 line 4):
//! one per message in the training exchange, one per row in a served reply
//! ([`quantize::RangeBlock`]).

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod bitpack;
pub mod error;
pub mod quantize;
pub mod topk;

pub use quantize::{Quantized, RangeBlock, MAX_BITS};
pub use topk::TopK;
