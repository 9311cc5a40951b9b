//! Wire formats for every vertex message the engine exchanges — the
//! gRPC/protobuf layer of the original system — and the one definition of
//! what each of them costs on the simulated wire.
//!
//! The exchange charges a message by its shape, without serializing it:
//! [`FpMessage::boundary_size`], [`FpMessage::selected_size`] and the two
//! priced-only formats below them, which the first-hop feature cache and the
//! comparators' feature fetches are charged by too. A message that is a single payload is
//! priced by that payload's codec (`codec::matrix_wire_size_for`,
//! `Quantized::wire_size_for`, `TopK::wire_size`). `wire_size()` of a built
//! message calls the same functions, and `tests/wire_bytes.rs` holds each
//! of them to `to_bytes().len()` over a grid of shapes.
//!
//! **Tag.** Every encoded message starts with a one-byte tag, and a charge
//! is `to_bytes().len() − 1`: the tag follows from the link's configured mode
//! and from whether epoch `t` is a trend boundary, which both ends know.

use ec_comm::codec;
use ec_compress::{bitpack, Quantized, RangeBlock};
use ec_tensor::Matrix;

/// A forward-pass response from a responding worker.
#[derive(Clone, Debug, PartialEq)]
pub enum FpMessage {
    /// Trend-boundary message: the exact embeddings. Alg. 4 builds it as
    /// `rm.buildMessage(H_res, M_cr)`; here the engine's boundary ships an
    /// empty (`0 × 0`) `m_cr`, and the requester derives `M_cr` from `h` and
    /// the `H_base` it holds (`fp::TrendState::absorb_boundary`) — priced
    /// by [`Self::boundary_size`]. An `h`-shaped `m_cr`, Alg. 4's full
    /// form, encodes and decodes too, and costs what it carries.
    Exact {
        /// The requested embedding rows, uncompressed.
        h: Matrix,
        /// The changing-rate matrix `M_cr`, or empty: derive it.
        m_cr: Matrix,
    },
    /// Plain quantized embeddings (`Cp-fp`).
    Compressed(Quantized),
    /// ReqEC-FP selected message: 2-bit selector per vertex plus the
    /// compressed rows of the non-predicted vertices and the Bit-Tuner
    /// proportion (`rm.buildMessage(SltArr, Ĥ_cps, proportion)` in Alg. 4).
    Selected {
        /// Per-vertex candidate ids (values in `{0, 1, 2}`).
        selector: Vec<u8>,
        /// Compressed rows for the vertices whose selector is not
        /// *predicted*; `None` when every vertex chose prediction.
        compressed: Option<Quantized>,
        /// Fraction of vertices that selected the predicted candidate.
        proportion: f32,
    },
}

const TAG_EXACT: u8 = 0;
const TAG_COMPRESSED: u8 = 1;
const TAG_SELECTED: u8 = 2;

/// Width of one Selector code.
const SELECTOR_BITS: u8 = 2;

/// Bytes of an optional `Quantized` payload of `(entries, bits)`.
fn payload_size(payload: Option<(usize, u8)>) -> usize {
    payload.map_or(0, |(entries, bits)| Quantized::wire_size_for(1, entries, bits))
}

impl FpMessage {
    /// Charge of a trend-boundary message whose `H` holds `entries`
    /// entries: `H` and the header of an empty `M_cr`, which the requester
    /// derives rather than receives.
    pub fn boundary_size(entries: usize) -> usize {
        codec::matrix_wire_size_for(entries) + codec::matrix_wire_size_for(0)
    }

    /// Charge of a Selected message: `choices` Selector codes (one per
    /// vertex, or one per element at element granularity), the payload of
    /// `(entries, bits)` when any choice needs one, and the proportion.
    pub fn selected_size(choices: usize, payload: Option<(usize, u8)>) -> usize {
        4 + bitpack::packed_len(choices, SELECTOR_BITS) + payload_size(payload) + 4
    }

    /// Charge of the matrix-wise ablation message: one Selector code for
    /// the whole message in a byte, the payload of `(entries, bits)` unless
    /// the code is *predicted*, and the proportion. Priced, not encoded.
    pub fn matrix_selected_size(payload: Option<(usize, u8)>) -> usize {
        1 + payload_size(payload) + 4
    }

    /// Charge of `rows` rows of `cols` floats shipped by index: an 8-byte
    /// header plus one `(u32 index, row)` pair per row — a DistGNN refresh,
    /// the first-hop feature cache, a mini-batch feature fetch. Priced, not
    /// encoded.
    pub fn indexed_rows_size(rows: usize, cols: usize) -> usize {
        8 + rows * (4 + 4 * cols)
    }

    /// Serialized size in bytes (must equal `to_bytes().len()`).
    pub fn wire_size(&self) -> usize {
        1 + match self {
            FpMessage::Exact { h, m_cr } => {
                codec::matrix_wire_size(h) + codec::matrix_wire_size(m_cr)
            }
            FpMessage::Compressed(q) => q.wire_size(),
            FpMessage::Selected { selector, compressed, .. } => {
                let payload = compressed.as_ref().map(|q| (q.shape().0 * q.shape().1, q.bits()));
                Self::selected_size(selector.len(), payload)
            }
        }
    }

    /// Serializes the message.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        match self {
            FpMessage::Exact { h, m_cr } => {
                buf.push(TAG_EXACT);
                codec::put_matrix(&mut buf, h);
                codec::put_matrix(&mut buf, m_cr);
            }
            FpMessage::Compressed(q) => {
                buf.push(TAG_COMPRESSED);
                buf.extend_from_slice(&q.to_bytes());
            }
            FpMessage::Selected { selector, compressed, proportion } => {
                buf.push(TAG_SELECTED);
                let codes: Vec<u32> = selector.iter().map(|&s| s as u32).collect();
                buf.extend_from_slice(&(selector.len() as u32).to_le_bytes());
                buf.extend_from_slice(&bitpack::pack(&codes, SELECTOR_BITS));
                if let Some(q) = compressed {
                    buf.extend_from_slice(&q.to_bytes());
                }
                buf.extend_from_slice(&proportion.to_le_bytes());
            }
        }
        buf
    }

    /// Deserializes a buffer produced by [`Self::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let (&tag, mut rest) = buf.split_first().ok_or("empty message")?;
        match tag {
            TAG_EXACT => {
                let h = codec::get_matrix(&mut rest)?;
                let m_cr = codec::get_matrix(&mut rest)?;
                codec::finish(rest)?;
                if m_cr.shape() != (0, 0) && m_cr.shape() != h.shape() {
                    return Err("M_cr is neither empty nor H-shaped".into());
                }
                Ok(FpMessage::Exact { h, m_cr })
            }
            TAG_COMPRESSED => {
                Ok(FpMessage::Compressed(Quantized::from_bytes(rest, RangeBlock::Message)?))
            }
            TAG_SELECTED => {
                let (count, rest) =
                    rest.split_first_chunk::<4>().ok_or("selector header truncated")?;
                let n = u32::from_le_bytes(*count) as usize;
                let (body, tail) = rest.split_last_chunk::<4>().ok_or("selector body truncated")?;
                let packed_len = bitpack::packed_len(n, SELECTOR_BITS);
                if body.len() < packed_len {
                    return Err("selector body truncated".into());
                }
                let (packed, middle) = body.split_at(packed_len);
                let codes = bitpack::unpack(packed, SELECTOR_BITS, n);
                let selector: Vec<u8> = codes.into_iter().map(|c| c as u8).collect();
                if selector.iter().any(|&s| s > 2) {
                    return Err("invalid selector code".into());
                }
                let compressed = if middle.is_empty() {
                    None
                } else {
                    Some(Quantized::from_bytes(middle, RangeBlock::Message)?)
                };
                Ok(FpMessage::Selected {
                    selector,
                    compressed,
                    proportion: f32::from_le_bytes(*tail),
                })
            }
            other => Err(format!("unknown FP message tag {other}")),
        }
    }
}

/// A backward-pass response from a responding worker. Each variant is a
/// single payload, priced by its codec.
#[derive(Clone, Debug, PartialEq)]
pub enum BpMessage {
    /// Uncompressed gradient rows.
    Exact(Matrix),
    /// Quantized (possibly error-compensated) gradient rows — the `M^{l,t}`
    /// of Alg. 6.
    Compressed(Quantized),
}

impl BpMessage {
    /// Serialized size in bytes (must equal `to_bytes().len()`).
    pub fn wire_size(&self) -> usize {
        1 + match self {
            BpMessage::Exact(g) => codec::matrix_wire_size(g),
            BpMessage::Compressed(q) => q.wire_size(),
        }
    }

    /// Serializes the message.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        match self {
            BpMessage::Exact(g) => {
                buf.push(TAG_EXACT);
                codec::put_matrix(&mut buf, g);
            }
            BpMessage::Compressed(q) => {
                buf.push(TAG_COMPRESSED);
                buf.extend_from_slice(&q.to_bytes());
            }
        }
        buf
    }

    /// Deserializes a buffer produced by [`Self::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let (&tag, mut rest) = buf.split_first().ok_or("empty message")?;
        match tag {
            TAG_EXACT => {
                let g = codec::get_matrix(&mut rest)?;
                codec::finish(rest)?;
                Ok(BpMessage::Exact(g))
            }
            TAG_COMPRESSED => {
                Ok(BpMessage::Compressed(Quantized::from_bytes(rest, RangeBlock::Message)?))
            }
            other => Err(format!("unknown BP message tag {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzed_inputs_error_cleanly() {
        for len in [0usize, 1, 3, 17, 64] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = FpMessage::from_bytes(&junk);
            let _ = BpMessage::from_bytes(&junk);
        }
        assert!(FpMessage::from_bytes(&[9, 0, 0]).is_err());
    }

    /// A boundary's `M_cr` is empty or `H`-shaped; any other shape is no
    /// boundary message. Every form costs the `M_cr` it carries.
    #[test]
    fn boundary_m_cr_is_empty_or_h_shaped() {
        let h = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        for (m_cr, decodes) in [
            (Matrix::zeros(0, 0), true),
            (h.clone(), true),
            (Matrix::zeros(2, 3), false),
            (Matrix::zeros(0, 2), false),
        ] {
            let msg = FpMessage::Exact { h: h.clone(), m_cr };
            let bytes = msg.to_bytes();
            assert_eq!(msg.wire_size(), bytes.len());
            assert_eq!(FpMessage::from_bytes(&bytes).is_ok(), decodes, "{msg:?}");
        }
    }
}
