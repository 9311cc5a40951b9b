//! Row-major dense `f32` matrix.
//!
//! The embedding matrices `H^l`, gradient matrices `G^l` and weight matrices
//! `W^l` of the paper are all instances of [`Matrix`]. The type is
//! deliberately simple — a `(rows, cols, Vec<f32>)` triple — so that message
//! serialization in `ec-comm` and quantization in `ec-compress` can operate
//! directly on the contiguous backing slice.

/// A row-major dense matrix of `f32`.
///
/// Invariant: `data.len() == rows * cols` at all times.
///
/// ```
/// use ec_tensor::{ops, Matrix};
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let c = ops::matmul(&a, &Matrix::identity(2));
/// assert_eq!(c, a);
/// assert_eq!(a.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Copies `source` into `self`'s buffer, which is reallocated only when
    /// it is too small — how a reusable message buffer takes a matrix.
    fn clone_from(&mut self, source: &Self) {
        (self.rows, self.cols) = (source.rows, source.cols);
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing row-major buffer.
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
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has length {} != {cols}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: n, cols, data }
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
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole backing buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
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
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &src in indices {
            out.data.extend_from_slice(self.row(src));
        }
        (out.rows, out.cols) = (indices.len(), self.cols);
    }

    /// Makes `self` a `rows × cols` matrix in the buffer it already owns,
    /// for a caller about to overwrite every entry: the entries are whatever
    /// the buffer held (zeros where it had to grow), never re-zeroed.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Self {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// The transpose of the matrix.
    ///
    /// Blocked over 32×32 tiles so both the source rows and the
    /// destination columns of the active tile stay cache-resident — a pure
    /// permutation, so the blocking has no numeric effect.
    pub fn transpose(&self) -> Self {
        const TILE: usize = 32;
        let mut out = Self::zeros(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TILE) {
            let rh = TILE.min(self.rows - r0);
            for c0 in (0..self.cols).step_by(TILE) {
                let ch = TILE.min(self.cols - c0);
                for r in r0..r0 + rh {
                    let src = &self.data[r * self.cols + c0..r * self.cols + c0 + ch];
                    for (dc, &v) in src.iter().enumerate() {
                        out.data[(c0 + dc) * self.rows + r] = v;
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
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
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
