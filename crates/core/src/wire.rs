//! Concrete wire formats for every vertex message the engine exchanges —
//! the gRPC/protobuf layer of the original system.
//!
//! The engine charges each message's byte count analytically (computing a
//! size is cheaper than serializing gigabytes inside a simulation). This
//! module makes those charges *honest*: every message kind can actually be
//! serialized, deserialized, and measured, and the tests assert that the
//! analytic formulas in [`crate::fp`] / [`crate::bp`] equal the real
//! serialized sizes byte-for-byte.

use ec_comm::codec;
use ec_compress::{bitpack, Quantized};
use ec_tensor::Matrix;

/// A forward-pass response from a responding worker.
#[derive(Clone, Debug, PartialEq)]
pub enum FpMessage {
    /// Trend-boundary message: exact embeddings plus the changing-rate
    /// matrix (`rm.buildMessage(H_res, M_cr)` in Alg. 4).
    Exact {
        /// The requested embedding rows, uncompressed.
        h: Matrix,
        /// The changing-rate matrix `M_cr`.
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

impl FpMessage {
    /// Serialized size in bytes (must equal `to_bytes().len()`).
    pub fn wire_size(&self) -> usize {
        1 + match self {
            FpMessage::Exact { h, m_cr } => {
                codec::matrix_wire_size(h) + codec::matrix_wire_size(m_cr)
            }
            FpMessage::Compressed(q) => q.wire_size(),
            FpMessage::Selected { selector, compressed, .. } => {
                let selector_bytes = 4 + (selector.len() * 2).div_ceil(8);
                selector_bytes + compressed.as_ref().map_or(0, Quantized::wire_size) + 4
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
                buf.extend_from_slice(&bitpack::pack(&codes, 2));
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
                if h.shape() != m_cr.shape() {
                    return Err("H/M_cr shape mismatch".into());
                }
                Ok(FpMessage::Exact { h, m_cr })
            }
            TAG_COMPRESSED => Ok(FpMessage::Compressed(Quantized::from_bytes(rest)?)),
            TAG_SELECTED => {
                let (count, rest) =
                    rest.split_first_chunk::<4>().ok_or("selector header truncated")?;
                let n = u32::from_le_bytes(*count) as usize;
                let (body, tail) = rest.split_last_chunk::<4>().ok_or("selector body truncated")?;
                let packed_len = (n * 2).div_ceil(8);
                if body.len() < packed_len {
                    return Err("selector body truncated".into());
                }
                let (packed, middle) = body.split_at(packed_len);
                let selector: Vec<u8> =
                    bitpack::unpack(packed, 2, n).into_iter().map(|c| c as u8).collect();
                if selector.iter().any(|&s| s > 2) {
                    return Err("invalid selector code".into());
                }
                let compressed =
                    if middle.is_empty() { None } else { Some(Quantized::from_bytes(middle)?) };
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

/// A backward-pass response from a responding worker.
#[derive(Clone, Debug, PartialEq)]
pub enum BpMessage {
    /// Uncompressed gradient rows.
    Exact(Matrix),
    /// Quantized (possibly error-compensated) gradient rows — the `M^{l,t}`
    /// of Alg. 6.
    Compressed(Quantized),
}

impl BpMessage {
    /// Serialized size in bytes.
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
            TAG_EXACT => Ok(BpMessage::Exact(codec::get_matrix(&mut rest)?)),
            TAG_COMPRESSED => Ok(BpMessage::Compressed(Quantized::from_bytes(rest)?)),
            other => Err(format!("unknown BP message tag {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_tensor::init;

    fn sample_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        init::uniform(rows, cols, -1.0, 1.0, seed)
    }

    #[test]
    fn exact_fp_round_trips_and_sizes_match() {
        let msg = FpMessage::Exact { h: sample_matrix(6, 4, 1), m_cr: sample_matrix(6, 4, 2) };
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size());
        assert_eq!(FpMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn compressed_fp_round_trips() {
        let q = Quantized::compress(&sample_matrix(8, 3, 3), 4);
        let msg = FpMessage::Compressed(q);
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size());
        assert_eq!(FpMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn selected_fp_round_trips_with_payload() {
        let q = Quantized::compress(&sample_matrix(3, 5, 4), 2);
        let msg = FpMessage::Selected {
            selector: vec![0, 1, 2, 1, 0],
            compressed: Some(q),
            proportion: 0.4,
        };
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size());
        assert_eq!(FpMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn selected_fp_round_trips_all_predicted() {
        let msg = FpMessage::Selected { selector: vec![1; 9], compressed: None, proportion: 1.0 };
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size());
        assert_eq!(FpMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn bp_messages_round_trip() {
        for msg in [
            BpMessage::Exact(sample_matrix(4, 4, 5)),
            BpMessage::Compressed(Quantized::compress(&sample_matrix(4, 4, 6), 8)),
        ] {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.wire_size());
            assert_eq!(BpMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn fuzzed_inputs_error_cleanly() {
        for len in [0usize, 1, 3, 17, 64] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = FpMessage::from_bytes(&junk);
            let _ = BpMessage::from_bytes(&junk);
        }
        assert!(FpMessage::from_bytes(&[9, 0, 0]).is_err());
    }

    /// The analytic byte charges in `fp.rs` must equal the real serialized
    /// sizes (minus the 1-byte tag the analytic model folds into its fixed
    /// request overhead).
    #[test]
    fn analytic_fp_sizes_match_serialization() {
        use crate::fp::{self, TrendState};
        let h0 = sample_matrix(16, 8, 7).map(|x| x.abs());
        let mut st = TrendState::default();

        // Boundary message: analytic charge = H + M_cr as raw matrices.
        let out0 = fp::reqec_step(&mut st, &h0, 2, 5, 0);
        let exact_msg = FpMessage::Exact { h: h0.clone(), m_cr: Matrix::zeros(16, 8) };
        assert_eq!(out0.wire as usize, exact_msg.wire_size() - 1);

        // Mid-group message: selector + filtered payload + proportion.
        let h1 = h0.map(|x| x + 0.05);
        let out1 = fp::reqec_step(&mut st, &h1, 2, 5, 1);
        let n_pdt = (out1.proportion * 16.0).round() as usize;
        let filtered_rows = 16 - n_pdt;
        let msg = FpMessage::Selected {
            selector: vec![0; 16],
            compressed: if filtered_rows > 0 {
                Some(Quantized::compress(&sample_matrix(filtered_rows, 8, 9), 2))
            } else {
                None
            },
            proportion: out1.proportion,
        };
        assert_eq!(out1.wire as usize, msg.wire_size() - 1);

        // Plain compression: analytic charge = Quantized wire size.
        let (_, wire) = fp::respond_compressed(&h1, 4);
        let q = Quantized::compress(&h1, 4);
        assert_eq!(wire as usize, FpMessage::Compressed(q).wire_size() - 1);
    }

    /// Same for the backward pass.
    #[test]
    fn analytic_bp_sizes_match_serialization() {
        use crate::bp::{self, ResidualState};
        let g = sample_matrix(12, 6, 11);
        let (_, exact_wire) = bp::respond_exact(&g);
        assert_eq!(exact_wire as usize, BpMessage::Exact(g.clone()).wire_size() - 1);

        let mut st = ResidualState::default();
        let (_, ec_wire) = bp::resec_step(&mut st, &g, 4);
        let q = Quantized::compress(&g, 4);
        assert_eq!(ec_wire as usize, BpMessage::Compressed(q).wire_size() - 1);
    }
}
