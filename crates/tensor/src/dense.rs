//! Row-major dense `f32` matrix.
//!
//! The embedding matrices `H^l`, gradient matrices `G^l` and weight matrices
//! `W^l` of the paper are all instances of [`Matrix`]. The type is
//! deliberately simple — a `(rows, cols)` shape over one contiguous
//! row-major slice — so that message serialization in `ec-comm` and
//! quantization in `ec-compress` can operate directly on that slice.
//!
//! **Alignment.** The slice starts on a 64-byte boundary: a cache line, and
//! one AVX-512 register. A 64-column row is then four whole lines, so the
//! widest tier's loads in SpMM, the dense tiles, the codecs and the Selector
//! never split one (a misaligned operand halved SpMM's 64-column rate). The
//! storage is a `Vec<f32>` allocated [`SLACK`] floats longer than the
//! matrix and read from its first aligned float on: no `unsafe`, and no
//! allocator of its own.

use std::fmt;

/// Bytes the entries are aligned to.
const ALIGN: usize = 64;

/// Floats an allocation carries beyond the entries, so that one of its
/// first `SLACK + 1` floats starts an [`ALIGN`]-byte line.
const SLACK: usize = ALIGN / std::mem::size_of::<f32>() - 1;

/// A row-major dense matrix of `f32`.
///
/// Invariant: `buf.len() == offset + rows * cols`; the entries are
/// `buf[offset..]`, and `buf[..offset]` pads them to an aligned start.
///
/// ```
/// use ec_tensor::{ops, Matrix};
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let c = ops::matmul(&a, &Matrix::identity(2));
/// assert_eq!(c, a);
/// assert_eq!(a.row(1), &[3.0, 4.0]);
/// ```
pub struct Matrix {
    rows: usize,
    cols: usize,
    buf: Vec<f32>,
    offset: usize,
}

/// Floats from `ptr` to the first [`ALIGN`]-byte boundary at or after it;
/// `0` where `align_offset` declines to say (it may, under Miri), which
/// costs the alignment and nothing else.
fn lead(ptr: *const f32) -> usize {
    let lead = ptr.align_offset(ALIGN);
    if lead <= SLACK {
        lead
    } else {
        0
    }
}

/// An empty buffer with room for `len` floats past its aligned start, padded
/// up to that start, and the padding's length; no allocation for `len == 0`.
fn storage(len: usize) -> (Vec<f32>, usize) {
    if len == 0 {
        return (Vec::new(), 0);
    }
    let mut buf = Vec::with_capacity(len + SLACK);
    let offset = lead(buf.as_ptr());
    buf.resize(offset, 0.0);
    (buf, offset)
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self::with_entries(self.rows, self.cols, |buf| buf.extend_from_slice(self.as_slice()))
    }

    /// Copies `source` into `self`'s buffer, which is reallocated only when
    /// it is too small — how a reusable message buffer takes a matrix.
    fn clone_from(&mut self, source: &Self) {
        self.clear_for(source.len());
        self.buf.extend_from_slice(source.as_slice());
        (self.rows, self.cols) = (source.rows, source.cols);
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.as_slice())
            .finish()
    }
}

impl Matrix {
    /// The `rows × cols` matrix whose entries `write` appends, row-major, to
    /// an empty aligned buffer with room for exactly them — so that every
    /// entry is written once.
    ///
    /// # Panics
    /// Panics if `write` appends other than `rows * cols` entries.
    fn with_entries(rows: usize, cols: usize, write: impl FnOnce(&mut Vec<f32>)) -> Self {
        let (mut buf, offset) = storage(rows * cols);
        write(&mut buf);
        assert_eq!(
            buf.len(),
            offset + rows * cols,
            "a {rows}x{cols} matrix needs that many entries"
        );
        Self { rows, cols, buf, offset }
    }

    /// Empties `self`'s buffer for `len` entries about to be appended: the
    /// one it owns when that has room, a new one otherwise.
    fn clear_for(&mut self, len: usize) {
        if self.offset + len > self.buf.capacity() {
            (self.buf, self.offset) = storage(len);
        }
        self.buf.truncate(self.offset);
    }

    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let len = rows * cols;
        if len == 0 {
            return Self { rows, cols, buf: Vec::new(), offset: 0 };
        }
        // One `vec!` — a zeroed allocation for `0.0` — and the slack cut off.
        let mut buf = vec![value; len + SLACK];
        let offset = lead(buf.as_ptr());
        buf.truncate(offset + len);
        Self { rows, cols, buf, offset }
    }

    /// Wraps an existing row-major buffer; copies it only when it does not
    /// start on an aligned boundary.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        if lead(data.as_ptr()) == 0 {
            return Self { rows, cols, buf: data, offset: 0 };
        }
        Self::with_entries(rows, cols, |buf| buf.extend_from_slice(&data))
    }

    /// Builds a `rows × cols` matrix of the values `entries` yields, in
    /// row-major order, written straight into aligned storage.
    ///
    /// # Panics
    /// Panics if `entries` yields other than `rows * cols` values.
    pub fn from_entries(rows: usize, cols: usize, entries: impl IntoIterator<Item = f32>) -> Self {
        Self::with_entries(rows, cols, |buf| buf.extend(entries))
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        Self::with_entries(rows, cols, |buf| {
            for r in 0..rows {
                for c in 0..cols {
                    buf.push(f(r, c));
                }
            }
        })
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        Self::with_entries(rows.len(), cols, |buf| {
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.len(), cols, "row {i} has length {} != {cols}", row.len());
                buf.extend_from_slice(row);
            }
        })
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.buf[self.offset + r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.buf[self.offset + r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        let start = self.offset + r * self.cols;
        &self.buf[start..start + self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let start = self.offset + r * self.cols;
        &mut self.buf[start..start + self.cols]
    }

    /// All entries, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.buf[self.offset..]
    }

    /// All entries, row-major, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.offset..]
    }

    /// Consumes the matrix, returning its entries in its own buffer (moved
    /// to the buffer's start when they were not there).
    pub fn into_vec(mut self) -> Vec<f32> {
        self.buf.drain(..self.offset);
        self.buf
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.as_slice().chunks_exact(self.cols.max(1))
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self::from_entries(self.rows, self.cols, self.as_slice().iter().map(|&x| f(x)))
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Copies the contents of `src` into row `r`.
    ///
    /// # Panics
    /// Panics if `src.len() != cols`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Returns a new matrix containing the listed rows, in order.
    ///
    /// This is the `gather` used when a worker assembles the embeddings of a
    /// requested remote-vertex set.
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(0, self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Self::gather_rows`] into `out`, whose buffer is reused: once it has
    /// grown to the largest message, gathering allocates nothing.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.clear_for(indices.len() * self.cols);
        for &src in indices {
            out.buf.extend_from_slice(self.row(src));
        }
        (out.rows, out.cols) = (indices.len(), self.cols);
    }

    /// Makes `self` a `rows × cols` matrix in the buffer it already owns,
    /// for a caller about to overwrite every entry: the entries are whatever
    /// the buffer held (zeros past its old end, all zeros where it had to be
    /// reallocated), never re-zeroed.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        if self.offset + rows * cols > self.buf.capacity() {
            *self = Self::zeros(rows, cols);
        } else {
            self.buf.resize(self.offset + rows * cols, 0.0);
            (self.rows, self.cols) = (rows, cols);
        }
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Self {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        Self::with_entries(self.rows + other.rows, self.cols, |buf| {
            buf.extend_from_slice(self.as_slice());
            buf.extend_from_slice(other.as_slice());
        })
    }

    /// The transpose of the matrix.
    ///
    /// Blocked over 32×32 tiles so both the source rows and the
    /// destination columns of the active tile stay cache-resident — a pure
    /// permutation, so the blocking has no numeric effect.
    pub fn transpose(&self) -> Self {
        const TILE: usize = 32;
        let mut out = Self::zeros(self.cols, self.rows);
        let (src_all, dst) = (self.as_slice(), out.as_mut_slice());
        for r0 in (0..self.rows).step_by(TILE) {
            let rh = TILE.min(self.rows - r0);
            for c0 in (0..self.cols).step_by(TILE) {
                let ch = TILE.min(self.cols - c0);
                for r in r0..r0 + rh {
                    let src = &src_all[r * self.cols + c0..r * self.cols + c0 + ch];
                    for (dc, &v) in src.iter().enumerate() {
                        dst[(c0 + dc) * self.rows + r] = v;
                    }
                }
            }
        }
        out
    }

    /// True when the two matrices have the same shape and all entries differ
    /// by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.as_slice().iter().zip(other.as_slice()).all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.into_vec(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn from_fn_evaluates_positions() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0., 1., 10., 11.]);
    }

    #[test]
    fn identity_is_diagonal() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn row_access_and_set_row() {
        let mut m = Matrix::zeros(2, 3);
        m.set_row(1, &[7., 8., 9.]);
        assert_eq!(m.row(1), &[7., 8., 9.]);
        assert_eq!(m.row(0), &[0., 0., 0.]);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_rows(&[vec![1., 1.], vec![2., 2.], vec![3., 3.]]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g.row(0), &[3., 3.]);
        assert_eq!(g.row(1), &[1., 1.]);
    }

    #[test]
    fn reused_buffers_take_any_shape_without_reallocating() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let mut buf = Matrix::zeros(0, 0);
        m.gather_rows_into(&[4, 0, 4, 2], &mut buf);
        assert_eq!(buf, m.gather_rows(&[4, 0, 4, 2]));
        let storage = buf.as_slice().as_ptr();
        m.gather_rows_into(&[1], &mut buf);
        assert_eq!(buf, m.gather_rows(&[1]));
        buf.reshape_for_overwrite(2, 5);
        assert_eq!((buf.shape(), buf.len()), ((2, 5), 10));
        buf.clone_from(&Matrix::filled(3, 4, 7.0));
        assert_eq!(buf, Matrix::filled(3, 4, 7.0));
        m.gather_rows_into(&[], &mut buf);
        assert_eq!(buf.shape(), (0, 3));
        assert_eq!(buf.as_slice().as_ptr(), storage, "the first gather sized the buffer");
    }

    /// Every way a matrix gets storage starts its entries on a 64-byte line:
    /// the constructors, a clone, and a reused buffer wherever it has to
    /// grow. Sizes from one float to an `mmap`-sized block, so that whatever
    /// the allocator's own alignment, some are misaligned unless the storage
    /// pads them. (Only the pointer check is compiled out under Miri, whose
    /// `align_offset` may decline to align; the rest still runs there.)
    #[test]
    fn storage_starts_a_cache_line() {
        fn assert_aligned(m: &Matrix, what: &str) {
            #[cfg(not(miri))]
            assert_eq!(m.as_slice().as_ptr() as usize % 64, 0, "{what} {:?}", m.shape());
            assert_eq!(m.as_slice().len(), m.rows() * m.cols(), "{what}");
        }
        let sizes: &[(usize, usize)] = if cfg!(miri) {
            &[(1, 1), (3, 5), (2, 17)]
        } else {
            &[(1, 1), (3, 5), (2, 17), (9, 64), (300, 64)]
        };
        for &(rows, cols) in sizes {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            assert_aligned(&Matrix::zeros(rows, cols), "zeros");
            assert_aligned(&Matrix::filled(rows, cols, -1.5), "filled");
            assert_aligned(&m, "from_fn");
            let data = m.as_slice().to_vec();
            let wrapped = Matrix::from_vec(rows, cols, data.clone());
            assert_aligned(&wrapped, "from_vec");
            assert_eq!(wrapped, m);
            assert_eq!(wrapped.into_vec(), data, "into_vec");
            assert_aligned(&m.clone(), "clone");
            let mut buf = Matrix::zeros(0, 0);
            buf.clone_from(&m);
            assert_aligned(&buf, "clone_from");
            assert_eq!(buf, m);
            let mut buf = Matrix::zeros(0, 0);
            m.gather_rows_into(&[rows - 1, 0], &mut buf);
            assert_aligned(&buf, "gather_rows_into");
            let mut buf = Matrix::zeros(1, 1);
            buf.reshape_for_overwrite(rows + 1, cols);
            assert_aligned(&buf, "reshape_for_overwrite");
            assert_aligned(&m.map(|x| x + 1.0), "map");
            assert_aligned(&Matrix::from_entries(rows, cols, data.iter().copied()), "from_entries");
            assert_aligned(&m.vstack(&m), "vstack");
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[vec![1., 2.]]);
        let b = Matrix::from_rows(&[vec![3., 4.], vec![5., 6.]]);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5., 6.]);
    }

    #[test]
    fn map_applies_function() {
        let m = Matrix::from_vec(1, 3, vec![1., -2., 3.]);
        let doubled = m.map(|x| x * 2.0);
        assert_eq!(doubled.as_slice(), &[2., -4., 6.]);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![1.0005, 2.0]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
    }
}
