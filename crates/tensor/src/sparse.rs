//! Compressed-sparse-row matrices and SpMM kernels.
//!
//! The normalized adjacency matrix `Â = D^{-1/2}(A + I)D^{-1/2}` of a GCN is
//! stored as a [`CsrMatrix`]. The two products the paper's equations need are
//!
//! * forward aggregation `Z = Âᵀ H_cat W` → [`CsrMatrix::spmm`] computes the
//!   sparse-dense part, and
//! * backward gradient flow `G^{l} = Â G^{l+1}_cat (W)ᵀ ⊙ σ'` → also SpMM.
//!
//! Because `Â` is symmetric for undirected graphs the engine mostly needs
//! `spmm`; `spmm_t` is provided (and tested against the dense reference) for
//! directed-graph support.
//!
//! SpMM is one body ([`SpmmBand`]) compiled per instruction-set tier and
//! selected at run time ([`crate::isa`]): each output row is accumulated a
//! register-resident chunk at a time over the row's nonzeros
//! (`ops::listed_row`), and the chunk is what grows with the tier — 16, 32
//! or 64 columns ([`Isa::LIST_NR`]), four accumulator registers each time.
//! A lane is one output element and takes its terms in CSR order through
//! one multiply and one add (no tier enables FMA), so the bits are the
//! reference's at any width. What the tiers do not change is that the rows
//! of the dense operand are gathered: at 16 columns SpMM stays bound by
//! that, and gains little.

use crate::dense::Matrix;
use crate::isa::{self, Isa, Kernel, Tier};
use crate::ops::{listed_row, with_tile_width, NR};

/// A sparse matrix in compressed-sparse-row format.
///
/// Invariants:
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`,
///   `indptr[rows] == indices.len() == values.len()`;
/// * `indptr` is non-decreasing;
/// * every entry of `indices` is `< cols`;
/// * column indices within a row are strictly increasing (checked by
///   [`CsrMatrix::new`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Panics
    /// Panics if any CSR invariant is violated.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows+1");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(indptr[rows], indices.len(), "indptr end mismatch");
        assert_eq!(indices.len(), values.len(), "indices/values length mismatch");
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
        }
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for pair in row.windows(2) {
                assert!(pair[0] < pair[1], "columns in row {r} must be strictly increasing");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "column index {last} out of bounds in row {r}");
            }
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// Builds a CSR matrix from `(row, col, value)` triples (need not be
    /// sorted; duplicate positions are summed).
    pub fn from_triples(rows: usize, cols: usize, triples: &[(usize, usize, f32)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f32)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triples {
            assert!(r < rows && c < cols, "triple ({r},{c}) out of bounds");
            per_row[r].push((c, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triples.len());
        let mut values = Vec::with_capacity(triples.len());
        indptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                indices.push(c as u32);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        Self { rows, cols, indptr, indices, values }
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

    /// Number of stored (structural) non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The `(column, value)` entries of row `r`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let span = self.indptr[r]..self.indptr[r + 1];
        self.indices[span.clone()].iter().zip(&self.values[span]).map(|(&c, &v)| (c as usize, v))
    }

    /// Sparse × dense product `self · B`.
    ///
    /// # Panics
    /// Panics if `self.cols() != b.rows()`.
    pub fn spmm(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            b.rows(),
            "spmm shape mismatch: {}x{} * {:?}",
            self.rows,
            self.cols,
            b.shape()
        );
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.spmm_into(b, 0, out.as_mut_slice());
        out
    }

    /// Computes the row band `[row0, row0 + out.len() / b.cols())` of
    /// `self · B` into `out` (row-major).
    ///
    /// Shared body of [`CsrMatrix::spmm`] and the band-parallel
    /// `parallel::spmm`. Nonzeros are applied in CSR (ascending-column)
    /// order per row and the inner AXPY is element-wise independent, so
    /// bits match the naive `ops::reference::spmm` loop exactly.
    pub fn spmm_into(&self, b: &Matrix, row0: usize, out: &mut [f32]) {
        isa::dispatch(self.spmm_kernel(b, row0, out));
    }

    /// [`CsrMatrix::spmm_into`] as a [`Kernel`], for [`isa::dispatch_on`]
    /// at an explicit tier.
    pub fn spmm_kernel<'a>(
        &'a self,
        b: &'a Matrix,
        row0: usize,
        out: &'a mut [f32],
    ) -> impl Kernel<Output = ()> + 'a {
        SpmmBand::new(
            self,
            b.cols(),
            #[inline(always)]
            |c| b.row(c),
            row0,
            out,
        )
    }

    /// [`CsrMatrix::spmm_into`] over the split operand `[local ; remote]`
    /// without materializing the stack: column `c < local.rows()` reads
    /// row `c` of `local`, any other column row
    /// `remote_row[c - local.rows()]` of `remote` — so the remote rows may
    /// sit in any order, the map naming where each column's row is. Same
    /// nonzero order as `spmm_into` over `local.vstack(remote in column
    /// order)`, so the bits are identical.
    ///
    /// Callers check `self.cols() == local.rows() + remote_row.len()`,
    /// `local.cols() == remote.cols()` and that every `remote_row` entry is
    /// a row of `remote` (see `parallel::spmm_split`).
    pub fn spmm_split_into(
        &self,
        local: &Matrix,
        remote: &Matrix,
        remote_row: &[u32],
        row0: usize,
        out: &mut [f32],
    ) {
        isa::dispatch(self.spmm_split_kernel(local, remote, remote_row, row0, out));
    }

    /// [`CsrMatrix::spmm_split_into`] as a [`Kernel`], for
    /// [`isa::dispatch_on`] at an explicit tier.
    pub fn spmm_split_kernel<'a>(
        &'a self,
        local: &'a Matrix,
        remote: &'a Matrix,
        remote_row: &'a [u32],
        row0: usize,
        out: &'a mut [f32],
    ) -> impl Kernel<Output = ()> + 'a {
        let n_local = local.rows();
        SpmmBand::new(
            self,
            local.cols(),
            #[inline(always)]
            move |c| {
                if c < n_local {
                    local.row(c)
                } else {
                    remote.row(remote_row[c - n_local] as usize)
                }
            },
            row0,
            out,
        )
    }

    /// Transposed sparse × dense product `selfᵀ · B` without materializing
    /// the transpose.
    pub fn spmm_t(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            b.rows(),
            "spmm_t shape mismatch: ({}x{})^T * {:?}",
            self.rows,
            self.cols,
            b.shape()
        );
        let mut out = Matrix::zeros(self.cols, b.cols());
        for r in 0..self.rows {
            let brow = b.row(r);
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[idx] as usize;
                let v = self.values[idx];
                let orow = out.row_mut(c);
                for (o, &x) in orow.iter_mut().zip(brow) {
                    *o += v * x;
                }
            }
        }
        out
    }

    /// Densifies the matrix (testing / small problems only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Extracts the sub-matrix of the listed rows (all columns kept).
    ///
    /// Used by workers to slice the global normalized adjacency down to
    /// their local partition.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for &r in rows {
            assert!(r < self.rows, "row {r} out of bounds");
            let span = self.indptr[r]..self.indptr[r + 1];
            indices.extend_from_slice(&self.indices[span.clone()]);
            values.extend_from_slice(&self.values[span]);
            indptr.push(indices.len());
        }
        CsrMatrix { rows: rows.len(), cols: self.cols, indptr, indices, values }
    }

    /// Remaps column indices through `map` (new column id per old id) and
    /// shrinks the column dimension to `new_cols`. Entries whose column maps
    /// to `None` are dropped.
    ///
    /// Workers use this to renumber global vertex ids into the local
    /// `[local vertices | cached remote vertices]` layout.
    pub fn remap_columns(
        &self,
        map: &dyn Fn(usize) -> Option<usize>,
        new_cols: usize,
    ) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut entries: Vec<(u32, f32)> = Vec::new();
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..self.rows {
            entries.clear();
            for (c, v) in self.row_entries(r) {
                if let Some(nc) = map(c) {
                    assert!(nc < new_cols, "mapped column {nc} out of bounds");
                    entries.push((nc as u32, v));
                }
            }
            entries.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in entries.iter() {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix { rows: self.rows, cols: new_cols, indptr, indices, values }
    }
}

/// The one SpMM body as a [`Kernel`]: `out[i] += v · row_of(c)` for every
/// nonzero `(c, v)` of row `row0 + i`, in CSR order; `n` is the operand
/// width.
struct SpmmBand<'a, F> {
    s: &'a CsrMatrix,
    n: usize,
    row_of: F,
    row0: usize,
    out: &'a mut [f32],
}

impl<'a, 'b, F: Fn(usize) -> &'b [f32]> SpmmBand<'a, F> {
    /// (A function so that the `row_of` closure can sit in argument
    /// position, the one place a closure takes `#[inline(always)]`.)
    fn new(s: &'a CsrMatrix, n: usize, row_of: F, row0: usize, out: &'a mut [f32]) -> Self {
        Self { s, n, row_of, row0, out }
    }
}

impl<'b, F: Fn(usize) -> &'b [f32]> Kernel for SpmmBand<'_, F> {
    type Output = ();
    #[inline(always)]
    fn run<I: Isa>(self) {
        debug_assert_eq!(self.out.len() % self.n.max(1), 0, "band must hold whole rows");
        if I::LIST_NR == NR {
            with_tile_width!(
                self.n,
                spmm_band::<I>(self.s, self.n, &self.row_of, self.row0, self.out)
            );
        } else if self.n >= NR {
            spmm_band::<I, NR>(self.s, self.n, &self.row_of, self.row0, self.out);
        } else {
            // Narrower operands take one tile of exactly their width at
            // every tier; only the baseline carries those instantiations.
            isa::dispatch_on(Tier::BASELINE, self);
        }
    }
}

/// [`SpmmBand`] at tile width `N`: each output row is accumulated a chunk
/// at a time, the chunk held in registers across the row's nonzeros
/// ([`crate::ops::listed_row`]).
#[inline(always)]
fn spmm_band<'a, I: Isa, const N: usize>(
    s: &CsrMatrix,
    n: usize,
    row_of: &impl Fn(usize) -> &'a [f32],
    row0: usize,
    out: &mut [f32],
) {
    for (orow, span) in out.chunks_exact_mut(n).zip(s.indptr[row0..].windows(2)) {
        let span = span[0]..span[1];
        listed_row::<I, N>(&s.indices[span.clone()], &s.values[span], row_of, orow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    fn sample() -> CsrMatrix {
        // [[1 0 2]
        //  [0 3 0]]
        CsrMatrix::from_triples(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn from_triples_builds_sorted_rows() {
        let m = CsrMatrix::from_triples(2, 3, &[(0, 2, 2.0), (0, 0, 1.0), (1, 1, 3.0)]);
        assert_eq!(m, sample());
    }

    #[test]
    fn duplicate_triples_are_summed() {
        let m = CsrMatrix::from_triples(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.to_dense().get(0, 1), 3.5);
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let s = sample();
        let b = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.], vec![5., 6.]]);
        let dense = matmul(&s.to_dense(), &b);
        assert_eq!(s.spmm(&b), dense);
    }

    #[test]
    fn spmm_t_matches_dense_reference() {
        let s = sample();
        let b = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        let dense = matmul(&s.to_dense().transpose(), &b);
        assert_eq!(s.spmm_t(&b), dense);
    }

    #[test]
    fn select_rows_extracts_submatrix() {
        let s = sample();
        let sel = s.select_rows(&[1]);
        assert_eq!(sel.rows(), 1);
        assert_eq!(sel.to_dense().row(0), &[0., 3., 0.]);
    }

    #[test]
    fn remap_columns_renumbers_and_drops() {
        let s = sample();
        // keep columns {0, 2}, renumbered to {0, 1}
        let remapped = s.remap_columns(
            &|c| match c {
                0 => Some(0),
                2 => Some(1),
                _ => None,
            },
            2,
        );
        let d = remapped.to_dense();
        assert_eq!(d.row(0), &[1., 2.]);
        assert_eq!(d.row(1), &[0., 0.]);
    }

    #[test]
    #[should_panic(expected = "indptr length")]
    fn new_validates_indptr_length() {
        let _ = CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn new_validates_column_order() {
        let _ = CsrMatrix::new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn row_entries_iterates_pairs() {
        let s = sample();
        let entries: Vec<_> = s.row_entries(0).collect();
        assert_eq!(entries, vec![(0, 1.0), (2, 2.0)]);
    }
}
