//! Dense matrix kernels: multiplication, elementwise arithmetic, reductions.
//!
//! The multiply kernels are cache-blocked and written around 8-wide inner
//! loops the compiler can vectorize, but their floating-point semantics are
//! pinned to the naive loops in [`reference`]: every output element
//! accumulates its terms in exactly the same order (ascending `k`, with the
//! same `== 0.0` skips), so results are **bit-identical** — blocking only
//! reorders *which element* is advanced next, never the additions within
//! one element. `tests/kernel_equivalence.rs` proptests that equivalence on
//! ragged shapes; the determinism suite depends on it.
//!
//! Blocking layout (see DESIGN.md §4): `matmul` tiles the output columns
//! (`TILE_J`) and the shared dimension (`TILE_K`) so the active `B` tile
//! (`TILE_K × TILE_J` floats = 32 KiB) stays L1-resident while a whole row
//! band of `A` streams past — without tiling, each output row re-reads all
//! of `B` through L2. Tiling engages only when `B` exceeds
//! [`TILE_BUDGET`]: below it `B` is cache-resident anyway and tiling would
//! just re-stream `A` and `C` per tile pass, so the loops collapse to a
//! single full-width pass (GNN weight matrices are small; the tiled path
//! serves wide layers and the benches). Visiting `k`-tiles in ascending
//! order keeps the per-element accumulation order identical to the untiled
//! loop, which is why the switch is shape-only and bit-invisible.
//! `matmul_at_b` keeps the reference's rank-1-update orientation (output
//! stays cache-resident while `A` and `B` stream past once) with the
//! chunked inner loop; `matmul_a_bt` packs `B` into k-major panels of
//! [`LANES`] rows so each output segment is a bundle of independent dot
//! products over contiguous memory.

use crate::dense::Matrix;

/// Output-column tile width of the blocked [`matmul`].
pub const TILE_J: usize = 64;
/// Shared-dimension tile depth of the blocked [`matmul`].
pub const TILE_K: usize = 128;
/// `B` footprint (in floats, 128 KiB) above which [`matmul`] tiles; below
/// it a single full-width pass wins because `B` is cache-resident anyway.
pub const TILE_BUDGET: usize = 32 * 1024;
/// Panel width (output columns per packed panel) of [`matmul_a_bt`].
pub const LANES: usize = 8;

/// In-place `acc[j] += s * src[j]` over two equal-length slices, written as
/// explicit 8-wide chunks so the autovectorizer emits full-width FMAs with
/// no runtime-length checks in the hot loop. Element-wise independent, so
/// bit-identical to the plain `zip` loop.
#[inline]
pub(crate) fn axpy_slice(acc: &mut [f32], src: &[f32], s: f32) {
    let mut acc8 = acc.chunks_exact_mut(8);
    let mut src8 = src.chunks_exact(8);
    for (a, b) in (&mut acc8).zip(&mut src8) {
        for u in 0..8 {
            a[u] += s * b[u];
        }
    }
    for (a, &b) in acc8.into_remainder().iter_mut().zip(src8.remainder()) {
        *a += s * b;
    }
}

/// Computes the row band `[row0, row0 + out.len() / n)` of `C = A · B`
/// into `out` (row-major, `n = b.cols()` columns per row).
///
/// This is the shared body of the sequential [`matmul`] and the
/// band-parallel `parallel::matmul` — one implementation, so sequential
/// and threaded results agree by construction.
pub fn matmul_into(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    let k = a.cols();
    let n = b.cols();
    if n == 0 {
        return;
    }
    debug_assert_eq!(out.len() % n, 0, "band must hold whole rows");
    let rows = out.len() / n;
    // Shape-only switch (identical for every band and thread count): tile
    // only when B outgrows the cache budget.
    let (tile_j, tile_k) =
        if k.saturating_mul(n) <= TILE_BUDGET { (n.max(1), k.max(1)) } else { (TILE_J, TILE_K) };
    for j0 in (0..n).step_by(tile_j) {
        let jw = tile_j.min(n - j0);
        for p0 in (0..k).step_by(tile_k) {
            let pw = tile_k.min(k - p0);
            for i in 0..rows {
                let aseg = &a.row(row0 + i)[p0..p0 + pw];
                let cseg = &mut out[i * n + j0..i * n + j0 + jw];
                for (dp, &av) in aseg.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    axpy_slice(cseg, &b.row(p0 + dp)[j0..j0 + jw], av);
                }
            }
        }
    }
}

/// `C = A · B`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, 0, c.as_mut_slice());
    c
}

/// Computes the row band `[row0, row0 + out.len() / n)` of `C = Aᵀ · B`
/// into `out` (band rows index the *columns* of `A`).
///
/// Keeps the reference's rank-1-update orientation — `A` and `B` stream
/// past exactly once while the output band stays cache-resident (it is
/// `a.cols() × b.cols()`, a weight-gradient shape, small by construction) —
/// but runs the chunked [`axpy_slice`] inner loop on the band's slice of
/// each `A` row. Per output element `(i, j)` the accumulation is still
/// `Σ_r a[r][i]·b[r][j]` in ascending `r` with the same `== 0.0` skip, so
/// bits match [`reference::matmul_at_b`] exactly.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    let n = b.cols();
    if n == 0 {
        return;
    }
    debug_assert_eq!(out.len() % n, 0, "band must hold whole rows");
    let rows = out.len() / n;
    for r in 0..a.rows() {
        let aseg = &a.row(r)[row0..row0 + rows];
        let brow = b.row(r);
        for (di, &av) in aseg.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy_slice(&mut out[di * n..(di + 1) * n], brow, av);
        }
    }
}

/// `C = Aᵀ · B` without materializing the transpose.
///
/// Used for the weight-gradient computation `Y^{l-1} = (H^{l-1})ᵀ (A G^l)`
/// (paper Eq. 6).
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    let mut c = Matrix::zeros(a.cols(), b.cols());
    matmul_at_b_into(a, b, 0, c.as_mut_slice());
    c
}

/// Packs the rows of `B` into k-major panels of [`LANES`] rows:
/// `panels[panel][p * LANES + u] = b[panel * LANES + u][p]`.
///
/// Only the `n / LANES` full panels are packed; [`matmul_a_bt_into`] reads
/// the `n % LANES` tail rows straight from `b`.
pub fn pack_bt_panels(b: &Matrix) -> Vec<f32> {
    let n = b.rows();
    let k = b.cols();
    let panels = n / LANES;
    let mut out = vec![0.0f32; panels * k * LANES];
    for panel in 0..panels {
        let base = panel * k * LANES;
        for u in 0..LANES {
            for (p, &v) in b.row(panel * LANES + u).iter().enumerate() {
                out[base + p * LANES + u] = v;
            }
        }
    }
    out
}

/// Computes the row band `[row0, row0 + out.len() / n)` of `C = A · Bᵀ`
/// into `out`, reading `B` through `panels` (from [`pack_bt_panels`]).
///
/// Each [`LANES`]-wide output segment keeps an accumulator per lane and
/// sweeps `p` once over the contiguous panel — [`LANES`] independent dot
/// products, each summing `a[i][p]·b[j][p]` in ascending `p` exactly like
/// the scalar loop, so bits match [`reference::matmul_a_bt`].
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, panels: &[f32], row0: usize, out: &mut [f32]) {
    let n = b.rows();
    let k = a.cols();
    if n == 0 {
        return;
    }
    debug_assert_eq!(out.len() % n, 0, "band must hold whole rows");
    let rows = out.len() / n;
    let full = n / LANES * LANES;
    for i in 0..rows {
        let arow = a.row(row0 + i);
        let crow = &mut out[i * n..(i + 1) * n];
        for (panel_idx, cseg) in crow[..full].chunks_exact_mut(LANES).enumerate() {
            let panel = &panels[panel_idx * k * LANES..(panel_idx + 1) * k * LANES];
            let mut acc = [0.0f32; LANES];
            for (p, &av) in arow.iter().enumerate() {
                let lanes = &panel[p * LANES..p * LANES + LANES];
                for u in 0..LANES {
                    acc[u] += av * lanes[u];
                }
            }
            cseg.copy_from_slice(&acc);
        }
        for (j, cell) in crow.iter_mut().enumerate().skip(full) {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += arow[p] * brow[p];
            }
            *cell = acc;
        }
    }
}

/// `C = A · Bᵀ` without materializing the transpose.
///
/// Used for the gradient flow `G^l ∝ G^{l+1} (W^{l+1})ᵀ` (paper Eq. 5).
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    let panels = pack_bt_panels(b);
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_a_bt_into(a, b, &panels, 0, c.as_mut_slice());
    c
}

/// The unblocked scalar kernels the optimized implementations are pinned
/// to, bit for bit.
///
/// These are the original (pre-pool) loops, kept as the ground truth for
/// the `kernel_equivalence` proptests. Do not "optimize" them.
pub mod reference {
    use crate::dense::Matrix;
    use crate::sparse::CsrMatrix;

    /// Naive `i-k-j` `C = A · B` (see [`super::matmul`] for the contract).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} x {:?}", a.shape(), b.shape());
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = a.row(i);
            let crow = c.row_mut(i);
            for (p, &av) in arow.iter().enumerate().take(k) {
                if av == 0.0 {
                    continue;
                }
                let brow = b.row(p);
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
        c
    }

    /// Naive in-place `C = Aᵀ · B` (rank-1 updates, ascending `r`).
    pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_at_b shape mismatch: {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        let m = a.cols();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        for r in 0..a.rows() {
            let arow = a.row(r);
            let brow = b.row(r);
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let crow = c.row_mut(i);
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
        c
    }

    /// Naive per-element dot products for `C = A · Bᵀ`.
    pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_a_bt shape mismatch: {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        let m = a.rows();
        let n = b.rows();
        let k = a.cols();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = a.row(i);
            let crow = c.row_mut(i);
            for (j, cv) in crow.iter_mut().enumerate().take(n) {
                let brow = b.row(j);
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += arow[p] * brow[p];
                }
                *cv = acc;
            }
        }
        c
    }

    /// Naive row-wise sparse × dense product (see [`CsrMatrix::spmm`]).
    pub fn spmm(s: &CsrMatrix, b: &Matrix) -> Matrix {
        assert_eq!(
            s.cols(),
            b.rows(),
            "spmm shape mismatch: {}x{} * {:?}",
            s.rows(),
            s.cols(),
            b.shape()
        );
        let mut out = Matrix::zeros(s.rows(), b.cols());
        for r in 0..s.rows() {
            let orow = out.row_mut(r);
            for (c, v) in s.row_entries(r) {
                let brow = b.row(c);
                for (o, &x) in orow.iter_mut().zip(brow) {
                    *o += v * x;
                }
            }
        }
        out
    }
}

/// Elementwise `A + B`.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    zip_with(a, b, |x, y| x + y)
}

/// Elementwise `A - B`.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    zip_with(a, b, |x, y| x - y)
}

/// Elementwise (Hadamard) product `A ⊙ B`.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    zip_with(a, b, |x, y| x * y)
}

/// `A * s` for a scalar `s`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    a.map(|x| x * s)
}

/// In-place `a += b`.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// In-place `a -= b`.
pub fn sub_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "sub_assign shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
}

/// In-place `a += b * s` (AXPY).
pub fn axpy(a: &mut Matrix, b: &Matrix, s: f32) {
    assert_eq!(a.shape(), b.shape(), "axpy shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y * s;
    }
}

/// Adds a row vector `bias` (length = `a.cols()`) to every row of `a`.
pub fn add_bias(a: &Matrix, bias: &[f32]) -> Matrix {
    assert_eq!(a.cols(), bias.len(), "bias length mismatch");
    let mut out = a.clone();
    for r in 0..out.rows() {
        for (x, &b) in out.row_mut(r).iter_mut().zip(bias) {
            *x += b;
        }
    }
    out
}

/// Column-wise sum, producing a vector of length `a.cols()`.
///
/// Used for bias gradients: `∂L/∂b = Σ_rows G`.
pub fn column_sums(a: &Matrix) -> Vec<f32> {
    let mut sums = vec![0.0f32; a.cols()];
    for r in 0..a.rows() {
        for (s, &v) in sums.iter_mut().zip(a.row(r)) {
            *s += v;
        }
    }
    sums
}

/// Row-wise mean, producing a vector of length `a.rows()`.
pub fn row_means(a: &Matrix) -> Vec<f32> {
    let denom = a.cols().max(1) as f32;
    a.rows_iter().map(|row| row.iter().sum::<f32>() / denom).collect()
}

fn zip_with(a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
    assert_eq!(
        a.shape(),
        b.shape(),
        "elementwise shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a23() -> Matrix {
        Matrix::from_rows(&[vec![1., 2., 3.], vec![4., 5., 6.]])
    }

    fn b32() -> Matrix {
        Matrix::from_rows(&[vec![7., 8.], vec![9., 10.], vec![11., 12.]])
    }

    #[test]
    fn matmul_small_known_answer() {
        let c = matmul(&a23(), &b32());
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = a23();
        let c = matmul(&a, &Matrix::identity(3));
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = a23();
        let b = Matrix::from_rows(&[vec![1., 0.], vec![0., 1.]]);
        let via_t = matmul(&a.transpose(), &b);
        assert_eq!(matmul_at_b(&a, &b), via_t);
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = a23();
        let b = Matrix::from_rows(&[vec![1., 2., 3.], vec![4., 5., 6.], vec![7., 8., 9.]]);
        let via_t = matmul(&a, &b.transpose());
        assert_eq!(matmul_a_bt(&a, &b), via_t);
    }

    #[test]
    fn blocked_kernels_match_reference_beyond_one_tile() {
        // `k·n > TILE_BUDGET` so the tiled path (not the full-width
        // collapse) actually runs, with shapes past TILE_J/TILE_K that are
        // not tile multiples, sign structure, and planted zeros so the
        // skip path is exercised.
        let (k, n) = (260usize, 140usize);
        assert!(k * n > TILE_BUDGET, "shapes must force the tiled path");
        let a = Matrix::from_fn(40, k, |r, c| {
            if (r + c) % 7 == 0 {
                0.0
            } else {
                ((r * 151 + c * 7) as f32 * 0.01).sin()
            }
        });
        let b = Matrix::from_fn(k, n, |r, c| ((r * 31 + c * 17) as f32 * 0.02).cos());
        assert_eq!(matmul(&a, &b), reference::matmul(&a, &b));
        let l = Matrix::from_fn(k, 40, |r, c| ((r * 13 + c) as f32 * 0.03).sin());
        assert_eq!(matmul_at_b(&l, &b), reference::matmul_at_b(&l, &b));
        let bt = Matrix::from_fn(n, k, |r, c| ((r * 3 + c * 5) as f32 * 0.015).cos());
        assert_eq!(matmul_a_bt(&a, &bt), reference::matmul_a_bt(&a, &bt));
    }

    #[test]
    fn band_entry_points_compute_partial_rows() {
        let a = Matrix::from_fn(9, 11, |r, c| (r as f32 - c as f32) * 0.25);
        let b = Matrix::from_fn(11, 5, |r, c| (r + 2 * c) as f32 * 0.1);
        let full = matmul(&a, &b);
        let mut band = vec![0.0f32; 4 * 5];
        matmul_into(&a, &b, 3, &mut band);
        assert_eq!(&full.as_slice()[3 * 5..7 * 5], &band[..]);
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        let empty_k = matmul(&Matrix::zeros(3, 0), &Matrix::zeros(0, 4));
        assert_eq!(empty_k, Matrix::zeros(3, 4));
        assert_eq!(matmul_a_bt(&Matrix::zeros(2, 0), &Matrix::zeros(5, 0)), Matrix::zeros(2, 5));
        assert_eq!(matmul_at_b(&Matrix::zeros(0, 3), &Matrix::zeros(0, 2)), Matrix::zeros(3, 2));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(add(&a, &b).as_slice(), &[5., 7., 9.]);
        assert_eq!(sub(&b, &a).as_slice(), &[3., 3., 3.]);
        assert_eq!(hadamard(&a, &b).as_slice(), &[4., 10., 18.]);
        assert_eq!(scale(&a, 2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(1, 2, vec![10., 20.]);
        add_assign(&mut a, &b);
        assert_eq!(a.as_slice(), &[11., 22.]);
        sub_assign(&mut a, &b);
        assert_eq!(a.as_slice(), &[1., 2.]);
        axpy(&mut a, &b, 0.5);
        assert_eq!(a.as_slice(), &[6., 12.]);
    }

    #[test]
    fn bias_and_column_sums() {
        let a = a23();
        let biased = add_bias(&a, &[1., 1., 1.]);
        assert_eq!(biased.row(0), &[2., 3., 4.]);
        assert_eq!(column_sums(&a), vec![5., 7., 9.]);
    }

    #[test]
    fn row_means_computed() {
        assert_eq!(row_means(&a23()), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let _ = matmul(&a23(), &a23());
    }
}
