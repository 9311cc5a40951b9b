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
//! ([`crate::store::EmbeddingStore::shipped_row`]): projected rows
//! `H^{L-1}·W^{L-1}` (`C` floats) when `C ≤ k`, layer-`L−1` rows (`k` floats)
//! otherwise — `min(k, C)` floats per row. The format does not say which:
//! both ends know the model's shape. A [`ServeReply::RowQuantized`] row is
//! the encoding the owner made of its stored row when the checkpoint was
//! installed — one per row and store version, never redone per request.
//!
//! Both messages carry the embedding-store *version* so a reply computed
//! against a stale checkpoint can never be installed into a cache that has
//! already moved on (the coherence rule of DESIGN.md §10).

use ec_comm::codec;
use ec_compress::Quantized;
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
    /// Per-row bucket quantization: one [`Quantized`] per requested row,
    /// each with its own value range. Per-*row* (rather than per-message)
    /// ranges make reconstruction independent of which other ids happened
    /// to share the request — the property the embedding cache needs for
    /// cached and freshly fetched answers to agree byte-for-byte.
    RowQuantized {
        /// Store version the rows were read at.
        version: u32,
        /// One independently compressed row per requested id.
        rows: Vec<Quantized>,
    },
}

const TAG_REQUEST: u8 = 0x10;
const TAG_EXACT: u8 = 0x11;
const TAG_ROW_QUANTIZED: u8 = 0x12;

impl ServeReply {
    /// Serialized size in bytes (must equal `to_bytes().len()`).
    pub fn wire_size(&self) -> usize {
        1 + 4
            + match self {
                ServeReply::Exact { rows, .. } => codec::matrix_wire_size(rows),
                ServeReply::RowQuantized { rows, .. } => {
                    // One u32 length prefix per row: `Quantized::from_bytes`
                    // wants an exact slice.
                    4 + rows.iter().map(|q| 4 + q.wire_size()).sum::<usize>()
                }
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
                Some(bits) => 4 + num_rows * (4 + Quantized::wire_size_for(dim, bits)),
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
            ServeReply::RowQuantized { version, rows } => {
                buf.push(TAG_ROW_QUANTIZED);
                buf.extend_from_slice(&version.to_le_bytes());
                buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for q in rows {
                    let qb = q.to_bytes();
                    buf.extend_from_slice(&(qb.len() as u32).to_le_bytes());
                    buf.extend_from_slice(&qb);
                }
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
            TAG_ROW_QUANTIZED => {
                if rest.len() < 4 {
                    return Err("serve reply row count truncated".into());
                }
                let n = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                rest = &rest[4..];
                // Every row carries at least its 4-byte length, so a count
                // the remaining bytes cannot hold is rejected before it
                // sizes anything.
                if n > rest.len() / 4 {
                    return Err(format!("serve reply claims {n} rows in {} bytes", rest.len()));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    if rest.len() < 4 {
                        return Err("serve reply row length truncated".into());
                    }
                    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                    rest = &rest[4..];
                    if rest.len() < len {
                        return Err("serve reply row truncated".into());
                    }
                    rows.push(Quantized::from_bytes(&rest[..len])?);
                    rest = &rest[len..];
                }
                codec::finish(rest)?;
                Ok(ServeReply::RowQuantized { version, rows })
            }
            other => Err(format!("unknown serve reply tag {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_tensor::init;

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
                let quantized = ServeReply::RowQuantized {
                    version: 1,
                    rows: rows.rows_iter().map(|r| Quantized::compress_row(r, bits)).collect(),
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
        // A row-quantized reply claiming `u32::MAX` rows and carrying none.
        let hostile = [TAG_ROW_QUANTIZED, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff];
        assert!(ServeReply::from_bytes(&hostile).is_err());
    }
}
