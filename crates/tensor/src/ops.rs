//! Dense matrix kernels: multiplication, elementwise arithmetic, reductions.
//!
//! `A·B` and `Aᵀ·B` are register-tiled: an `MR × NR` block of `C` lives in
//! fixed-size local arrays (SSE registers once the constant-bound loops
//! unroll), the shared dimension runs innermost, and `C` is loaded and
//! stored once per tile and [`KB`]-deep block of the shared dimension. A
//! row-AXPY loop instead loads and stores the output row once per
//! multiply-add, which binds a 16-wide output to store-to-load forwarding
//! rather than to the multiplier. Floating-point semantics stay pinned to
//! the naive loops in [`reference`]: every output element accumulates its
//! terms in exactly the same order (ascending `k`, with the same `== 0.0`
//! skips), so results are **bit-identical** — tiling only changes *which
//! element* is advanced next, never the additions within one element.
//! `tests/kernel_equivalence.rs` proptests that on shapes around every tile
//! edge; the determinism suite depends on it.
//!
//! Tile scheme (see DESIGN.md §4). Two micro-kernels do all the arithmetic:
//!
//! * [`dense_tile`] — `MR` rows of `A` share each `NR`-wide load of a `B`
//!   row; no zero test, because it only ever sees row groups without an
//!   exact zero;
//! * [`listed_tile`] — one output row accumulates `v · row(c)` over an
//!   explicit `(c, v)` list. This is SpMM's inner loop
//!   (`CsrMatrix::spmm_rows_into`), and it is also how a dense product
//!   honours the zero-skip: a row group holding an exact zero (ReLU
//!   activations are about half zeros) has each row's nonzeros compacted
//!   into such a list — branch-free, once per `KB` block — and replayed per
//!   column tile. The skip is therefore a property of the list, not a
//!   data-dependent branch per `(row, k)` inside the tile, which would
//!   mispredict on every other element of a ReLU-sparse operand and cost
//!   more than the 16-wide multiply-add it guards.
//!
//! Both visit `k` in ascending order and the compaction preserves it, so
//! per-element order is untouched whichever one a row takes. Widths and
//! row counts that do not divide the tile run the same kernels at a
//! narrower instantiation (an output narrower than `NR` is one tile of
//! exactly its width; a single leftover row runs at `MR = 1`), and a ragged
//! last column tile is shifted left to end at the last column — it
//! recomputes a few columns the previous tile already finished and stores
//! only the new ones. `Aᵀ·B` transposes a `KB`-row × [`AT_COLS`]-column
//! block of `A` into a stack buffer and feeds its rows to the very same
//! row-group kernel, so `A` and `B` stream past exactly once however long
//! and thin they are. `matmul_a_bt` packs `B` into k-major panels of
//! [`LANES`] rows so each output segment is a bundle of independent dot
//! products over contiguous memory.

use crate::dense::Matrix;

/// Rows of `A` that share each load of a `B` row in [`dense_tile`].
pub const MR: usize = 2;
/// Widest output-column tile; `MR × NR` floats of `C` stay in registers.
pub const NR: usize = 16;
/// Depth of one block of the shared dimension: `C` tiles are loaded and
/// stored once per block, a row's compacted nonzero list holds at most
/// this many entries, and `Aᵀ·B` transposes this many rows of `A` at once.
pub const KB: usize = 256;
/// Columns of `A` (output rows) transposed per block by `Aᵀ·B` — one cache
/// line of each `A` row.
pub const AT_COLS: usize = 16;
/// Panel width (output columns per packed panel) of [`matmul_a_bt`].
pub const LANES: usize = 8;

/// Expands to `$f::<N>($args)` with `N` the column-tile width for `$n`
/// output columns: `$n` itself up to [`NR`] — the whole row is one tile,
/// whatever its width — and [`NR`] beyond (nothing for `$n == 0`).
macro_rules! with_tile_width {
    ($n:expr, $f:ident $args:tt) => {
        with_tile_width!(@arms $n, $f $args; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    };
    (@arms $n:expr, $f:ident $args:tt; $($w:literal)*) => {
        match $n {
            0 => {}
            $($w => $f::<$w> $args,)*
            _ => $f::<{ $crate::ops::NR }> $args,
        }
    };
}
pub(crate) use with_tile_width;

/// Calls `f(j, skip)` for every `N`-wide column tile covering `0..n`
/// (`n >= N`): tiles start at multiples of `N`, except that a ragged last
/// one is shifted left to end at `n` and must not store its first `skip`
/// columns — the previous tile already did.
#[inline(always)]
fn col_tiles<const N: usize>(n: usize, mut f: impl FnMut(usize, usize)) {
    let mut j = 0;
    while j + N <= n {
        f(j, 0);
        j += N;
    }
    if j < n {
        f(n - N, j + N - n);
    }
}

/// `acc[r] + Σ_p arows[r][p] · bblk[p][j..j + N]` over the rows `p` of the
/// block, ascending. No zero test: callers send row groups that hold an
/// exact zero through [`listed_tile`] instead.
#[inline(always)]
fn dense_tile<const M: usize, const N: usize>(
    arows: &[&[f32]; M],
    bblk: &[f32],
    n: usize,
    j: usize,
    mut acc: [[f32; N]; M],
) -> [[f32; N]; M] {
    for (p, brow) in bblk.chunks_exact(n).enumerate() {
        let Some((bv, _)) = brow[j..].split_first_chunk::<N>() else { break };
        for r in 0..M {
            let av = arows[r][p];
            for u in 0..N {
                acc[r][u] += av * bv[u];
            }
        }
    }
    acc
}

/// `acc + Σ_t vals[t] · row_of(cols[t])[j..j + N]` over the list, in order
/// — the inner loop of SpMM, and of a dense product's rows that hold zeros.
#[inline(always)]
fn listed_tile<'a, const N: usize>(
    cols: &[u32],
    vals: &[f32],
    row_of: impl Fn(usize) -> &'a [f32],
    j: usize,
    mut acc: [f32; N],
) -> [f32; N] {
    for (&c, &v) in cols.iter().zip(vals) {
        let Some((bv, _)) = row_of(c as usize)[j..].split_first_chunk::<N>() else { break };
        for u in 0..N {
            acc[u] += v * bv[u];
        }
    }
    acc
}

/// The `N` floats of `row` from column `j` (`j + N <= row.len()`).
#[inline(always)]
fn load_tile<const N: usize>(row: &[f32], j: usize) -> [f32; N] {
    let mut tile = [0.0f32; N];
    tile.copy_from_slice(&row[j..j + N]);
    tile
}

/// `crow += Σ_t vals[t] · row_of(cols[t])`, terms added in list order: one
/// register-resident `N`-wide chunk of the output row at a time
/// (`crow.len() >= N`).
#[inline(always)]
pub(crate) fn listed_row<'a, const N: usize>(
    cols: &[u32],
    vals: &[f32],
    row_of: impl Fn(usize) -> &'a [f32],
    crow: &mut [f32],
) {
    col_tiles::<N>(crow.len(), |j, skip| {
        let acc = listed_tile::<N>(cols, vals, &row_of, j, load_tile(crow, j));
        crow[j + skip..j + N].copy_from_slice(&acc[skip..]);
    });
}

/// Whether `row` holds an exact (positive or negative) zero.
fn has_zero(row: &[f32]) -> bool {
    // A count, not `any`: no early exit, so the scan vectorises.
    row.iter().map(|&v| u32::from(v == 0.0)).sum::<u32>() != 0
}

/// `c += arows · bblk` for `M` output rows (`c`: `M × n`, row-major) and
/// one block of the shared dimension (`arows[r].len() <= KB` rows of
/// `bblk`, `n` columns each), skipping every `arows[r][p] == 0.0` term.
fn row_group<const M: usize, const N: usize>(
    arows: [&[f32]; M],
    bblk: &[f32],
    n: usize,
    c: &mut [f32],
) {
    if arows.iter().any(|row| has_zero(row)) {
        for (arow, crow) in arows.iter().zip(c.chunks_exact_mut(n)) {
            // Branch-free compaction: always write, advance past nonzeros.
            let (mut cols, mut vals, mut len) = ([0u32; KB], [0.0f32; KB], 0);
            for (p, &av) in arow.iter().enumerate() {
                cols[len] = p as u32;
                vals[len] = av;
                len += usize::from(av != 0.0);
            }
            let row_of = |p: usize| &bblk[p * n..(p + 1) * n];
            listed_row::<N>(&cols[..len], &vals[..len], row_of, crow);
        }
    } else {
        col_tiles::<N>(n, |j, skip| {
            let acc: [[f32; N]; M] = std::array::from_fn(|r| load_tile(&c[r * n..], j));
            let acc = dense_tile::<M, N>(&arows, bblk, n, j, acc);
            for (r, tile) in acc.iter().enumerate() {
                c[r * n + j + skip..r * n + j + N].copy_from_slice(&tile[skip..]);
            }
        });
    }
}

/// [`row_group`] over every row of `c` (`n` columns each): [`MR`] rows at a
/// time, a leftover row on its own. `arow(i)` is the block's `A` row for
/// row `i` of `c`.
fn row_groups<'a, const N: usize>(
    arow: impl Fn(usize) -> &'a [f32],
    bblk: &[f32],
    n: usize,
    c: &mut [f32],
) {
    let mut groups = c.chunks_exact_mut(MR * n);
    let mut i = 0;
    for group in &mut groups {
        row_group::<MR, N>(std::array::from_fn(|r| arow(i + r)), bblk, n, group);
        i += MR;
    }
    for row in groups.into_remainder().chunks_exact_mut(n) {
        row_group::<1, N>([arow(i)], bblk, n, row);
        i += 1;
    }
}

/// [`matmul_into`] at tile width `N`: [`KB`] rows of `B` at a time (they
/// stay cache-resident while the band's row groups pass over them).
fn matmul_band<const N: usize>(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    let (k, n) = (a.cols(), b.cols());
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        let bblk = &b.as_slice()[k0 * n..k1 * n];
        row_groups::<N>(|i| &a.row(row0 + i)[k0..k1], bblk, n, out);
    }
}

/// Accumulates the row band `[row0, row0 + out.len() / n)` of `C = A · B`
/// into `out` (row-major, `n = b.cols()` columns per row; callers pass
/// zeros).
///
/// This is the shared body of the sequential [`matmul`] and the
/// band-parallel `parallel::matmul` — one implementation, so sequential
/// and threaded results agree by construction.
pub fn matmul_into(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len() % b.cols().max(1), 0, "band must hold whole rows");
    with_tile_width!(b.cols(), matmul_band(a, b, row0, out));
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

/// [`matmul_at_b_into`] at tile width `N`: [`KB`]-row blocks of `A`/`B`
/// outermost, so both stream past once; inside, [`AT_COLS`] columns of the
/// `A` block at a time are transposed into `at`, whose rows are then
/// exactly the `arows` [`row_group`] wants.
fn matmul_at_b_band<const N: usize>(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    let n = b.cols();
    let mut at = [[0.0f32; KB]; AT_COLS];
    for r0 in (0..a.rows()).step_by(KB) {
        let kb = KB.min(a.rows() - r0);
        let bblk = &b.as_slice()[r0 * n..(r0 + kb) * n];
        for (chunk, cblk) in out.chunks_mut(AT_COLS * n).enumerate() {
            let i0 = row0 + chunk * AT_COLS;
            let width = cblk.len() / n;
            for rr in 0..kb {
                for (col, &v) in at.iter_mut().zip(&a.row(r0 + rr)[i0..i0 + width]) {
                    col[rr] = v;
                }
            }
            row_groups::<N>(|ii| &at[ii][..kb], bblk, n, cblk);
        }
    }
}

/// Accumulates the row band `[row0, row0 + out.len() / n)` of
/// `C = Aᵀ · B` into `out` (band rows index the *columns* of `A`; callers
/// pass zeros).
///
/// Per output element `(i, j)` the accumulation is `Σ_r a[r][i]·b[r][j]`
/// in ascending `r` with the `== 0.0` skip, so bits match
/// [`reference::matmul_at_b`] exactly.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len() % b.cols().max(1), 0, "band must hold whole rows");
    with_tile_width!(b.cols(), matmul_at_b_band(a, b, row0, out));
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
    let mut out = a.clone();
    add_bias_assign(&mut out, bias);
    out
}

/// In-place [`add_bias`]: `a[r] += bias` for every row `r`.
pub fn add_bias_assign(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(a.cols(), bias.len(), "bias length mismatch");
    if bias.is_empty() {
        return;
    }
    for row in a.as_mut_slice().chunks_exact_mut(bias.len()) {
        for (x, &b) in row.iter_mut().zip(bias) {
            *x += b;
        }
    }
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
    fn tiled_kernels_match_reference_beyond_one_block() {
        // Past KB in the shared dimension and past NR in width, neither a
        // tile multiple, with sign structure and planted zeros so both the
        // dense and the listed tile run.
        let (k, n) = (260usize, 140usize);
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
        let mut biased = add_bias(&a, &[1., 1., 1.]);
        assert_eq!(biased.row(0), &[2., 3., 4.]);
        add_bias_assign(&mut biased, &[-1., 0., 1.]);
        assert_eq!(biased.row(1), &[4., 6., 8.]);
        assert_eq!(column_sums(&a), vec![5., 7., 9.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let _ = matmul(&a23(), &a23());
    }
}
