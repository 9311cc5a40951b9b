//! Wire encoding for uncompressed payloads — the protobuf stand-in.
//!
//! Compressed payloads carry their own format (`ec_compress::Quantized`);
//! this module serializes everything else the cluster exchanges: dense
//! matrices (exact embeddings, changing-rate matrices, weight pulls) and
//! index sets (requested vertex lists).
//!
//! All integers are little-endian, matrices are row-major `f32`.

use ec_tensor::Matrix;

/// Serialized size of a dense matrix: `8` header bytes + `4` per entry.
pub fn matrix_wire_size(m: &Matrix) -> usize {
    matrix_wire_size_for(m.len())
}

/// [`matrix_wire_size`] of a matrix of `entries` entries.
pub fn matrix_wire_size_for(entries: usize) -> usize {
    8 + entries * 4
}

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Appends the little-endian bytes of every 4-byte word: one resize, then
/// a copy per word into its place, which compiles to a block move.
fn put_words<T: Copy>(buf: &mut Vec<u8>, words: &[T], to_le: impl Fn(T) -> [u8; 4]) {
    let start = buf.len();
    buf.resize(start + words.len() * 4, 0);
    for (dst, &w) in buf[start..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&to_le(w));
    }
}

/// Splits the next `n` bytes off the front of `buf`; `None`, with `buf`
/// untouched, when fewer remain.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n)?;
    *buf = rest;
    Some(head)
}

fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    take(buf, 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The little-endian 4-byte words of `body` (whose length the caller has
/// validated), decoded in order.
fn words<'a, T>(
    body: &'a [u8],
    from_le: impl Fn([u8; 4]) -> T + 'a,
) -> impl Iterator<Item = T> + 'a {
    body.chunks_exact(4).map(move |b| from_le([b[0], b[1], b[2], b[3]]))
}

/// Appends a matrix to `buf`.
pub fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    put_words(buf, m.as_slice(), f32::to_le_bytes);
}

/// Reads a matrix written by [`put_matrix`], advancing `buf`.
pub fn get_matrix(buf: &mut &[u8]) -> Result<Matrix, String> {
    let (Some(rows), Some(cols)) = (take_u32(buf), take_u32(buf)) else {
        return Err("matrix header truncated".into());
    };
    let (rows, cols) = (rows as usize, cols as usize);
    let bytes_needed = rows
        .checked_mul(cols)
        .and_then(|c| c.checked_mul(4))
        .ok_or_else(|| "matrix size overflow".to_string())?;
    let body = take(buf, bytes_needed)
        .ok_or_else(|| format!("matrix body truncated: need {} floats", rows * cols))?;
    Ok(Matrix::from_entries(rows, cols, words(body, f32::from_le_bytes)))
}

/// `Err` unless a decoder has read all of its buffer: what is left after
/// the last field is not part of any message.
pub fn finish(rest: &[u8]) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("{} trailing bytes after the message", rest.len()))
    }
}

/// Appends a `u32` list to `buf`.
pub fn put_u32s(buf: &mut Vec<u8>, v: &[u32]) {
    put_u32(buf, v.len() as u32);
    put_words(buf, v, u32::to_le_bytes);
}

/// Reads a `u32` list written by [`put_u32s`].
pub fn get_u32s(buf: &mut &[u8]) -> Result<Vec<u32>, String> {
    let len = take_u32(buf).ok_or("u32 list header truncated")? as usize;
    let body = take(buf, len * 4).ok_or("u32 list body truncated")?;
    Ok(words(body, u32::from_le_bytes).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| r as f32 - 0.25 * c as f32);
        let mut buf = Vec::new();
        put_matrix(&mut buf, &m);
        assert_eq!(buf.len(), matrix_wire_size(&m));
        let mut slice = buf.as_slice();
        assert_eq!(get_matrix(&mut slice).unwrap(), m);
        assert!(slice.is_empty());
    }

    #[test]
    fn empty_matrix_round_trip() {
        let m = Matrix::zeros(0, 7);
        let mut buf = Vec::new();
        put_matrix(&mut buf, &m);
        let mut slice = buf.as_slice();
        assert_eq!(get_matrix(&mut slice).unwrap().shape(), (0, 7));
    }

    #[test]
    fn u32s_round_trip() {
        let v = vec![0u32, 5, u32::MAX];
        let mut buf = Vec::new();
        put_u32s(&mut buf, &v);
        assert_eq!(buf.len(), 4 + 4 * v.len());
        assert_eq!(get_u32s(&mut buf.as_slice()).unwrap(), v);
    }

    #[test]
    fn sequential_fields_decode_in_order() {
        let m = Matrix::identity(2);
        let mut buf = Vec::new();
        put_u32s(&mut buf, &[9, 8]);
        put_matrix(&mut buf, &m);
        put_u32s(&mut buf, &[3]);
        let mut slice = buf.as_slice();
        assert_eq!(get_u32s(&mut slice).unwrap(), vec![9, 8]);
        assert_eq!(get_matrix(&mut slice).unwrap(), m);
        assert_eq!(get_u32s(&mut slice).unwrap(), vec![3]);
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let m = Matrix::identity(3);
        let mut buf = Vec::new();
        put_matrix(&mut buf, &m);
        for cut in [0, 4, 9, buf.len() - 1] {
            let mut slice = &buf[..cut];
            assert!(get_matrix(&mut slice).is_err(), "cut={cut} should fail");
        }
    }

    #[test]
    fn oversized_header_rejected_without_allocation() {
        let buf = [0xff; 8];
        let mut slice = buf.as_slice();
        assert!(get_matrix(&mut slice).is_err());
    }
}
