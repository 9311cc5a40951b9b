//! Wire formats for the serving-time embedding-fetch protocol.
//!
//! A cache miss on worker `w` for a vertex owned by worker `o` turns into a
//! [`ServeRequest`] `w → o` (control channel) answered by a [`ServeReply`]
//! `o → w` (forward channel). As in [`ec_graph::wire`], sizes are defined
//! here: the service charges [`ServeRequest::wire_size_for`] and
//! [`ServeReply::wire_size_for`] of a message's shape without building it.
//! The shape test below holds both to `to_bytes().len()`, and
//! `tests/wire_bytes.rs` pins every variant's bytes.
//!
//! A reply carries whichever rows the owner's store ships
//! ([`crate::store::EmbeddingStore::shipped`]): projected rows
//! `H^{L-1}·W^{L-1}` (`C` floats) when `C ≤ k`, layer-`L−1` rows (`k` floats)
//! otherwise — `min(k, C)` floats per row. The format does not say which:
//! both ends know the model's shape. A [`ServeReply::Quantized`] reply is one
//! [`Quantized`] with a range per row ([`RangeBlock::Row`]): a 9-byte header,
//! then each row's 8-byte range and packed codes. Its rows are the encoding
//! the owner made of its shipped matrix when the checkpoint was installed —
//! once per store version, never redone per request.
//!
//! Both messages carry the embedding-store *version* so a reply computed
//! against a stale checkpoint can never be installed into a cache that has
//! already moved on (the coherence rule of DESIGN.md §10).

use ec_comm::codec;
use ec_compress::{Quantized, RangeBlock};
use ec_tensor::Matrix;

/// A batched embedding-fetch request: "send me the shipped rows of these
/// global vertex ids, at store version `version`".
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// Embedding-store version the requester is serving at.
    pub version: u32,
    /// Global vertex ids, ascending.
    pub ids: Vec<u32>,
}

impl ServeRequest {
    /// Serialized size in bytes (must equal `to_bytes().len()`).
    pub fn wire_size(&self) -> usize {
        Self::wire_size_for(self.ids.len())
    }

    /// [`Self::wire_size`] of a request for `num_ids` rows — what the
    /// service charges, without building the message.
    pub fn wire_size_for(num_ids: usize) -> usize {
        1 + 4 + 4 + 4 * num_ids
    }

    /// Serializes the request.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        buf.push(TAG_REQUEST);
        buf.extend_from_slice(&self.version.to_le_bytes());
        codec::put_u32s(&mut buf, &self.ids);
        buf
    }

    /// Deserializes a buffer produced by [`Self::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let (&tag, mut rest) = buf.split_first().ok_or("empty serve request")?;
        if tag != TAG_REQUEST {
            return Err(format!("unknown serve request tag {tag}"));
        }
        if rest.len() < 4 {
            return Err("serve request version truncated".into());
        }
        let version = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        rest = &rest[4..];
        let ids = codec::get_u32s(&mut rest)?;
        codec::finish(rest)?;
        Ok(Self { version, ids })
    }
}

/// The owning worker's answer: the requested rows, in request order.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeReply {
    /// Uncompressed rows, stacked into one matrix.
    Exact {
        /// Store version the rows were read at.
        version: u32,
        /// One row per requested id, in request order.
        rows: Matrix,
    },
    /// Bucket quantization with one value range per row. Per-*row*
    /// (rather than per-message) ranges make reconstruction independent of
    /// which other ids happened to share the request — the property the
    /// embedding cache needs for cached and freshly fetched answers to agree
    /// byte-for-byte.
    Quantized {
        /// Store version the rows were read at.
        version: u32,
        /// One row per requested id, in request order, each with its own
        /// range.
        rows: Quantized,
    },
}

const TAG_REQUEST: u8 = 0x10;
const TAG_EXACT: u8 = 0x11;
const TAG_QUANTIZED: u8 = 0x12;

impl ServeReply {
    /// Serialized size in bytes (must equal `to_bytes().len()`).
    pub fn wire_size(&self) -> usize {
        1 + 4
            + match self {
                ServeReply::Exact { rows, .. } => codec::matrix_wire_size(rows),
                ServeReply::Quantized { rows, .. } => rows.wire_size(),
            }
    }

    /// [`Self::wire_size`] of a reply carrying `num_rows` rows of `dim`
    /// floats — exact, or each quantized to `fetch_bits` bits — without
    /// building the message. Every row one store ships is equally wide
    /// (`dim` is its `shipped_dim()`), so the size is a function of the
    /// shape alone.
    pub fn wire_size_for(num_rows: usize, dim: usize, fetch_bits: Option<u8>) -> usize {
        1 + 4
            + match fetch_bits {
                None => 8 + 4 * num_rows * dim,
                Some(bits) => Quantized::wire_size_for(num_rows, dim, bits),
            }
    }

    /// Serializes the reply.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        match self {
            ServeReply::Exact { version, rows } => {
                buf.push(TAG_EXACT);
                buf.extend_from_slice(&version.to_le_bytes());
                codec::put_matrix(&mut buf, rows);
            }
            ServeReply::Quantized { version, rows } => {
                buf.push(TAG_QUANTIZED);
                buf.extend_from_slice(&version.to_le_bytes());
                buf.extend_from_slice(&rows.to_bytes());
            }
        }
        buf
    }

    /// Deserializes a buffer produced by [`Self::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let (&tag, rest) = buf.split_first().ok_or("empty serve reply")?;
        if rest.len() < 4 {
            return Err("serve reply version truncated".into());
        }
        let version = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let mut rest = &rest[4..];
        match tag {
            TAG_EXACT => {
                let rows = codec::get_matrix(&mut rest)?;
                codec::finish(rest)?;
                Ok(ServeReply::Exact { version, rows })
            }
            // The decoder takes the whole rest as one message and checks its
            // length against the header before it allocates.
            TAG_QUANTIZED => Ok(ServeReply::Quantized {
                version,
                rows: Quantized::from_bytes(rest, RangeBlock::Row)?,
            }),
            other => Err(format!("unknown serve reply tag {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_tensor::init;
    use ec_tensor::isa::Tier;

    /// The service charges by shape; the charge must be the size of the
    /// message it stands for, serialized.
    #[test]
    fn shape_sizes_equal_the_constructed_messages() {
        for (n, dim) in [(0usize, 16usize), (1, 1), (3, 16), (7, 47), (40, 64)] {
            let ids: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let request = ServeRequest { version: 1, ids };
            assert_eq!(ServeRequest::wire_size_for(n), request.to_bytes().len());
            let rows = init::uniform(n, dim, -2.0, 2.0, (n + dim) as u64);
            let exact = ServeReply::Exact { version: 1, rows: rows.clone() };
            assert_eq!(ServeReply::wire_size_for(n, dim, None), exact.to_bytes().len());
            for bits in [1u8, 3, 8, 16] {
                let quantized = ServeReply::Quantized {
                    version: 1,
                    rows: Quantized::compress_at(Tier::best(), &rows, bits, RangeBlock::Row),
                };
                let charged = ServeReply::wire_size_for(n, dim, Some(bits));
                assert_eq!(charged, quantized.wire_size());
                assert_eq!(charged, quantized.to_bytes().len());
            }
        }
    }

    #[test]
    fn fuzzed_inputs_error_cleanly() {
        for len in [0usize, 1, 3, 9, 33] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let _ = ServeRequest::from_bytes(&junk);
            let _ = ServeReply::from_bytes(&junk);
        }
        assert!(ServeRequest::from_bytes(&[0xFF, 0, 0, 0, 0]).is_err());
        assert!(ServeReply::from_bytes(&[0xFF, 0, 0, 0, 0]).is_err());
        // tag · version · rows · cols (u32 LE) · bits, then the rows.
        let reply = |rows: u32, bits: u8, body: &[u8]| {
            let header =
                [&[TAG_QUANTIZED, 0, 0, 0, 0][..], &rows.to_le_bytes(), &[3, 0, 0, 0, bits]];
            ServeReply::from_bytes(&[&header.concat()[..], body].concat())
        };
        // One row of three 8-bit codes: range [-1, 1], codes 0, 128, 255.
        let row = [0x00, 0x00, 0x80, 0xbf, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x80, 0xff];
        assert!(matches!(reply(1, 8, &row), Ok(ServeReply::Quantized { .. })));
        // Rejected by the decoder's one size rule, which compares the
        // claimed size with the bytes present before anything is sized by
        // the claim: `u32::MAX` rows (32 GiB of ranges) in one row's bytes,
        // and a second row whose range is cut short.
        let err = |r: Result<ServeReply, String>| r.err().unwrap_or_default();
        assert!(err(reply(u32::MAX, 8, &row)).starts_with("payload length 11 != expected"));
        let truncated = [&row[..], &row[..5]].concat();
        assert!(err(reply(2, 8, &truncated)).starts_with("payload length 16 != expected 22"));
        // Bit widths outside 1..=16, whatever follows.
        for bits in [0u8, 17] {
            assert_eq!(err(reply(1, bits, &row)), format!("invalid bit width {bits}"));
        }
    }
}
