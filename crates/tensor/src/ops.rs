//! Dense matrix kernels: multiplication, elementwise arithmetic, reductions.
//!
//! The three products (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are register-tiled: an
//! `MR × NR` block of `C` lives in fixed-size local arrays (vector registers
//! once the constant-bound loops unroll), the shared dimension runs
//! innermost, and `C` is loaded and stored once per tile and [`KB`]-deep
//! block of the shared dimension. A row-AXPY loop instead loads and stores
//! the output row once per multiply-add, which binds a 16-wide output to
//! store-to-load forwarding rather than to the multiplier. Floating-point
//! semantics stay pinned to the naive loops in [`reference`]: every output
//! element accumulates its terms in exactly the same order (ascending `k`,
//! with the same `== 0.0` skips), so results are **bit-identical** — tiling
//! only changes *which element* is advanced next, never the additions
//! within one element. `tests/kernel_equivalence.rs` proptests that on
//! shapes around every tile edge; the determinism suite depends on it.
//!
//! **One source, three instruction-set tiers** ([`crate::isa`]). Every
//! kernel here is one generic body, compiled once each for baseline x86-64
//! (SSE2), AVX2 and AVX-512 and selected at run time from what the CPU
//! reports; the `*_into` entry points dispatch, so `parallel::*`, the pool
//! lanes and serving inherit it. Only two numbers change with the tier:
//! [`Isa::MR`], the rows of a register tile (2 / 4 / 8 — what the tier's
//! register file holds next to the operands), and [`Isa::LIST_NR`], the
//! chunk a list pass accumulates (16 / 32 / 64 columns — four accumulator
//! registers at the tier's width). `NR` stays 16, so the shifted ragged
//! tile is the same at every tier, and an output narrower than `NR` — one
//! tile of exactly its width, which no wider register helps — runs the
//! baseline instantiation whatever the tier: the wide entry points carry
//! the full-width tile only, not fifteen narrow copies each. No tier enables `fma`
//! and nothing here calls `f32`'s fused multiply-add: it rounds once where
//! the reference rounds twice. Without it a wider vector only changes which
//! lanes advance together — each lane is still one output element, taking
//! its `k`-terms in ascending order through the same multiply and the same
//! add — so every tier produces the baseline's bits. Everything between a
//! tier's entry point and the arithmetic is `#[inline(always)]`, closures
//! included; anything that is not would silently compile as baseline code.
//!
//! Tile scheme (see DESIGN.md §4). Two micro-kernels do all the arithmetic:
//!
//! * [`dense_tile`] — `MR` rows of the left operand share each `NR`-wide
//!   load of a `B` row; no zero test, because it only ever sees row groups
//!   without an exact zero (or a product that has no zero-skip);
//! * [`listed_tile`] — one output row accumulates `v · row(c)` over an
//!   explicit `(c, v)` list. This is SpMM's inner loop
//!   (`CsrMatrix::spmm_into`), and it is also how a dense product honours
//!   the zero-skip: a row group holding an exact zero (ReLU activations are
//!   about half zeros) has each row's nonzeros compacted into such a list —
//!   branch-free, once per `KB` block — and replayed per column chunk. The
//!   skip is therefore a property of the list, not a data-dependent branch
//!   per `(row, k)` inside the tile, which would mispredict on every other
//!   element of a ReLU-sparse operand and cost more than the 16-wide
//!   multiply-add it guards.
//!
//! Both visit `k` in ascending order and the compaction preserves it, so
//! per-element order is untouched whichever one a row takes. Widths and
//! row counts that do not divide the tile run the same kernels at a
//! narrower instantiation (an output narrower than `NR` is one tile of
//! exactly its width; leftover rows run in groups of `MR/2`, `MR/4`, … 1),
//! and a ragged last column tile is shifted left to end at the last column
//! — it recomputes a few columns an earlier tile already finished and
//! stores only the new ones. All three products are one band loop
//! ([`product_band`]) over one view of the left operand ([`Left`]): `Aᵀ·B`
//! reads `A` transposed *in place* — a tile broadcasts one scalar per
//! `(row, k)` whichever way `A` is stored, so nothing is copied — and
//! `A·Bᵀ` is `A · bt` on the dense tile with `B` transposed once up front
//! and the zero-skip (which a dot product does not have) switched off.

use crate::dense::Matrix;
use crate::isa::{self, Baseline, Isa, Kernel, Tier};

/// Widest output-column tile; `MR × NR` floats of `C` stay in registers
/// (`MR` is per tier: [`Isa::MR`]).
pub const NR: usize = 16;
/// Depth of one block of the shared dimension: `C` tiles are loaded and
/// stored once per block, and a row's compacted nonzero list holds at most
/// this many entries.
pub const KB: usize = 256;

/// Expands to `$f::<$g.., N>($args)` with `N` the column-tile width for
/// `$n` output columns: `$n` itself up to [`NR`] — the whole row is one
/// tile, whatever its width — and [`NR`] beyond (nothing for `$n == 0`).
macro_rules! with_tile_width {
    ($n:expr, $f:ident::<$($g:ident),*> $args:tt) => {
        with_tile_width!(@arms $n, $f [$($g),*] $args; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    };
    (@arms $n:expr, $f:ident $g:tt $args:tt; $($w:literal)*) => {
        match $n {
            0 => {}
            $($w => with_tile_width!(@call $f $g $w, $args),)*
            _ => with_tile_width!(@call $f $g { $crate::ops::NR }, $args),
        }
    };
    (@call $f:ident [$($g:ident),*] $w:tt, $args:tt) => {
        $f::<$($g,)* $w> $args
    };
}
pub(crate) use with_tile_width;

/// Calls `f(j, skip)` for every `N`-wide column tile covering `j0..n`
/// (`n >= N`): tiles start at `j0`, `j0 + N`, …, except that a ragged last
/// one is shifted left to end at `n` and must not store its first `skip`
/// columns — an earlier tile already did.
#[inline(always)]
fn col_tiles<const N: usize>(j0: usize, n: usize, mut f: impl FnMut(usize, usize)) {
    let mut j = j0;
    while j + N <= n {
        f(j, 0);
        j += N;
    }
    if j < n {
        f(n - N, j + N - n);
    }
}

/// The block of the left operand one [`row_groups`] call multiplies into
/// its output rows: element `(r, p)` scales row `p` of the right-hand
/// block into output row `r`. For `A·B` that is `a[row0 + r][k0 + p]`; for
/// `Aᵀ·B` (`T`) it is `a[k0 + p][row0 + r]`, read in place — a tile
/// broadcasts one scalar per `(r, p)` either way, so the transpose never
/// has to exist in memory.
#[derive(Clone, Copy)]
struct Left<'a, const T: bool> {
    /// The whole operand, row-major, `ld` floats per row.
    a: &'a [f32],
    ld: usize,
    /// First output row of the block (a row of `a`; a column if `T`).
    row0: usize,
    /// First step of the shared dimension, and how many the block spans.
    k0: usize,
    depth: usize,
}

impl<'a, const T: bool> Left<'a, T> {
    /// Position in `a` of element `(r, p)`.
    #[inline(always)]
    fn index(self, r: usize, p: usize) -> usize {
        if T {
            (self.k0 + p) * self.ld + self.row0 + r
        } else {
            (self.row0 + r) * self.ld + self.k0 + p
        }
    }

    #[inline(always)]
    fn at(self, r: usize, p: usize) -> f32 {
        self.a[self.index(r, p)]
    }

    /// The `len` elements that lie along memory from `(r, p)` on: the steps
    /// `p..` of row `r` — or, if transposed, the rows `r..` at step `p`.
    #[inline(always)]
    fn run(self, r: usize, p: usize, len: usize) -> &'a [f32] {
        let start = self.index(r, p);
        &self.a[start..start + len]
    }

    /// The same block, `r` output rows further down.
    #[inline(always)]
    fn skip_rows(self, r: usize) -> Self {
        Self { row0: self.row0 + r, ..self }
    }

    /// Adds to `zeros[r]` the number of exact (positive or negative)
    /// zeros in output row `r` of the block, for the first `zeros.len()`
    /// rows.
    #[inline(always)]
    fn count_zeros(self, zeros: &mut [u32]) {
        // Along memory either way, and counts rather than `any`: no early
        // exit, so the scan vectorises.
        if T {
            let rows = zeros.len();
            for p in 0..self.depth {
                for (count, &v) in zeros.iter_mut().zip(self.run(0, p, rows)) {
                    *count += u32::from(v == 0.0);
                }
            }
        } else {
            for (r, count) in zeros.iter_mut().enumerate() {
                for &v in self.run(r, 0, self.depth) {
                    *count += u32::from(v == 0.0);
                }
            }
        }
    }
}

/// `for r in 0..$m $body`, unrolled in the source (`$m <= 8`, the tallest
/// row group). Left as a loop, the compiler is free to vectorise *across
/// the rows of the tile* — it did, for `Aᵀ·B` at eight rows, turning the
/// register-resident accumulators into gathers and scatters at a tenth of
/// the speed — instead of along each row, which is the whole design.
macro_rules! for_each_row {
    ($r:ident < $m:ident, $body:block) => {
        for_each_row!(@rows $r, $m, $body; 0 1 2 3 4 5 6 7)
    };
    (@rows $r:ident, $m:ident, $body:block; $($i:literal)*) => {$(
        if $i < $m {
            let $r = $i;
            $body
        }
    )*};
}

/// `acc[r] + Σ_p left(r, p) · bblk[p][j..j + N]` over the rows `p` of the
/// block, ascending. No zero test: callers send row groups that must skip
/// an exact zero through [`listed_tile`] instead.
#[inline(always)]
fn dense_tile<const T: bool, const M: usize, const N: usize>(
    left: Left<T>,
    bblk: &[f32],
    n: usize,
    j: usize,
    mut acc: [[f32; N]; M],
) -> [[f32; N]; M] {
    // Slices of exactly the length the loops below index them to, so the
    // compiler drops the bounds checks: `M` rows of `depth` steps each, or
    // — transposed — per step the `M` neighbours in one row of `a`.
    let mut rows: [&[f32]; M] = [&[]; M];
    if !T {
        for (r, row) in rows.iter_mut().enumerate() {
            *row = left.run(r, 0, left.depth);
        }
    }
    for p in 0..left.depth {
        let Some(bv) = bblk[p * n + j..].first_chunk::<N>() else { break };
        let step = if T { left.run(0, p, M) } else { &[] };
        for_each_row!(r < M, {
            let av = if T { step[r] } else { rows[r][p] };
            for u in 0..N {
                acc[r][u] += av * bv[u];
            }
        });
    }
    acc
}

/// `acc + Σ_t vals[t] · row_of(cols[t])[j..j + W]` over the list, in order
/// — the inner loop of SpMM, and of a dense product's rows that hold zeros.
#[inline(always)]
fn listed_tile<'a, const W: usize>(
    cols: &[u32],
    vals: &[f32],
    row_of: &impl Fn(usize) -> &'a [f32],
    j: usize,
    mut acc: [f32; W],
) -> [f32; W] {
    for (&c, &v) in cols.iter().zip(vals) {
        let Some((bv, _)) = row_of(c as usize)[j..].split_first_chunk::<W>() else { break };
        for u in 0..W {
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

/// [`listed_tile`] over columns `j..j + W` of `crow`, storing all but the
/// first `skip` of them.
#[inline(always)]
fn listed_chunk<'a, const W: usize>(
    cols: &[u32],
    vals: &[f32],
    row_of: &impl Fn(usize) -> &'a [f32],
    crow: &mut [f32],
    j: usize,
    skip: usize,
) {
    let acc = listed_tile::<W>(cols, vals, row_of, j, load_tile(crow, j));
    crow[j + skip..j + W].copy_from_slice(&acc[skip..]);
}

/// `crow += Σ_t vals[t] · row_of(cols[t])`, terms added in list order: one
/// register-resident chunk of the output row at a time (`crow.len() >= N`)
/// — as wide as [`Isa::LIST_NR`] while the row lasts (a tier whose
/// `LIST_NR` exceeds [`NR`] only gets here at `N == NR`), `N`-wide tiles
/// for what is left.
#[inline(always)]
pub(crate) fn listed_row<'a, I: Isa, const N: usize>(
    cols: &[u32],
    vals: &[f32],
    row_of: impl Fn(usize) -> &'a [f32],
    crow: &mut [f32],
) {
    let n = crow.len();
    let mut j = 0;
    macro_rules! wide_chunks {
        ($($w:literal)*) => {$(
            if $w <= I::LIST_NR {
                while j + $w <= n {
                    listed_chunk::<$w>(cols, vals, &row_of, crow, j, 0);
                    j += $w;
                }
            }
        )*};
    }
    wide_chunks!(64 32);
    col_tiles::<N>(
        j,
        n,
        #[inline(always)]
        |j, skip| listed_chunk::<N>(cols, vals, &row_of, crow, j, skip),
    );
}

/// Scratch for one row's compacted nonzeros, `(step, value)` by position.
type NonzeroList = ([u32; KB], [f32; KB]);

/// `c += left · bblk` for `M` output rows (`c`: `M × n`, row-major) and
/// one block of the shared dimension (`left.depth <= KB` rows of `bblk`,
/// `n` columns each); if `listed`, without the terms whose `left(r, p)` is
/// an exact zero.
#[inline(always)]
fn row_group<I: Isa, const T: bool, const M: usize, const N: usize>(
    left: Left<T>,
    bblk: &[f32],
    n: usize,
    c: &mut [f32],
    listed: bool,
    (cols, vals): &mut NonzeroList,
) {
    if listed {
        for (r, crow) in c.chunks_exact_mut(n).enumerate() {
            // Branch-free compaction: always write, advance past nonzeros.
            let mut len = 0;
            for p in 0..left.depth {
                let av = left.at(r, p);
                cols[len] = p as u32;
                vals[len] = av;
                len += usize::from(av != 0.0);
            }
            listed_row::<I, N>(
                &cols[..len],
                &vals[..len],
                #[inline(always)]
                |p| &bblk[p * n..(p + 1) * n],
                crow,
            );
        }
    } else {
        col_tiles::<N>(
            0,
            n,
            #[inline(always)]
            |j, skip| {
                let mut acc = [[0.0f32; N]; M];
                for r in 0..M {
                    acc[r] = load_tile(&c[r * n..], j);
                }
                let acc = dense_tile::<T, M, N>(left, bblk, n, j, acc);
                for r in 0..M {
                    c[r * n + j + skip..r * n + j + N].copy_from_slice(&acc[r][skip..]);
                }
            },
        );
    }
}

/// Output rows whose zeros are counted in one go ([`Left::count_zeros`]): a
/// multiple of every tier's `MR`, so only a band's last chunk has leftover
/// rows.
const ZERO_SCAN_ROWS: usize = 64;

/// [`row_group`] over every row of `c` (`n` columns each), tallest groups
/// first: [`Isa::MR`] rows at a time, then the leftover rows in groups of
/// half that, a quarter, … one (every tier's `MR` is a power of two). If
/// `SKIP`, a group in which any row of `left` holds an exact zero takes
/// the listed path. (The wide tiers only ever get here at `N == NR`; see
/// [`Product`]'s `run`.)
#[inline(always)]
fn row_groups<I: Isa, const T: bool, const SKIP: bool, const N: usize>(
    left: Left<T>,
    bblk: &[f32],
    n: usize,
    c: &mut [f32],
    list: &mut NonzeroList,
) {
    for (chunk, c) in c.chunks_mut(ZERO_SCAN_ROWS * n).enumerate() {
        let left = left.skip_rows(chunk * ZERO_SCAN_ROWS);
        let rows = c.len() / n;
        let mut zeros = [0u32; ZERO_SCAN_ROWS];
        if SKIP {
            left.count_zeros(&mut zeros[..rows]);
        }
        let mut i = 0;
        macro_rules! groups_of {
            ($($m:literal)*) => {$(
                if $m <= I::MR {
                    while rows - i >= $m {
                        let listed = SKIP && zeros[i..i + $m].iter().any(|&count| count != 0);
                        let group = &mut c[i * n..(i + $m) * n];
                        row_group::<I, T, $m, N>(left.skip_rows(i), bblk, n, group, listed, list);
                        i += $m;
                    }
                }
            )*};
        }
        groups_of!(8 4 2 1);
    }
}

/// The band `[row0, row0 + out.len() / n)` of a dense product at tile
/// width `N`: [`KB`] rows of `B` at a time (they stay cache-resident while
/// the band's row groups pass over them).
#[inline(always)]
fn product_band<I: Isa, const T: bool, const SKIP: bool, const N: usize>(
    a: &Matrix,
    b: &Matrix,
    row0: usize,
    out: &mut [f32],
) {
    let (depth, n) = b.shape();
    let mut list = ([0u32; KB], [0.0f32; KB]);
    for k0 in (0..depth).step_by(KB) {
        let kb = KB.min(depth - k0);
        let left = Left::<T> { a: a.as_slice(), ld: a.cols(), row0, k0, depth: kb };
        let bblk = &b.as_slice()[k0 * n..(k0 + kb) * n];
        row_groups::<I, T, SKIP, N>(left, bblk, n, out, &mut list);
    }
}

/// One band of a dense product as a [`Kernel`]: `out += left · b`, where
/// the left operand is `a`, or `aᵀ` if `T`, and terms with an exactly zero
/// left factor are skipped if `SKIP`.
struct Product<'a, const T: bool, const SKIP: bool> {
    a: &'a Matrix,
    b: &'a Matrix,
    row0: usize,
    out: &'a mut [f32],
}

impl<const T: bool, const SKIP: bool> Kernel for Product<'_, T, SKIP> {
    type Output = ();
    #[inline(always)]
    fn run<I: Isa>(self) {
        debug_assert_eq!(self.out.len() % self.b.cols().max(1), 0, "band must hold whole rows");
        let n = self.b.cols();
        if I::MR == Baseline::MR {
            with_tile_width!(n, product_band::<I, T, SKIP>(self.a, self.b, self.row0, self.out));
        } else if n >= NR {
            product_band::<I, T, SKIP, NR>(self.a, self.b, self.row0, self.out);
        } else {
            // A narrower output is the same two-row tile at every tier (no
            // row of the per-shape table gains from a wider one), so only
            // the baseline carries the fifteen narrow instantiations.
            isa::dispatch_on(Tier::BASELINE, self);
        }
    }
}

/// [`matmul_into`] as a [`Kernel`], for [`isa::dispatch_on`] at an
/// explicit tier.
pub fn matmul_kernel<'a>(
    a: &'a Matrix,
    b: &'a Matrix,
    row0: usize,
    out: &'a mut [f32],
) -> impl Kernel<Output = ()> + 'a {
    Product::<false, true> { a, b, row0, out }
}

/// Accumulates the row band `[row0, row0 + out.len() / n)` of `C = A · B`
/// into `out` (row-major, `n = b.cols()` columns per row; callers pass
/// zeros).
///
/// This is the shared body of the sequential [`matmul`] and the
/// band-parallel `parallel::matmul` — one implementation, so sequential
/// and threaded results agree by construction.
pub fn matmul_into(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    isa::dispatch(matmul_kernel(a, b, row0, out));
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

/// [`matmul_at_b_into`] as a [`Kernel`], for [`isa::dispatch_on`] at an
/// explicit tier.
pub fn matmul_at_b_kernel<'a>(
    a: &'a Matrix,
    b: &'a Matrix,
    row0: usize,
    out: &'a mut [f32],
) -> impl Kernel<Output = ()> + 'a {
    Product::<true, true> { a, b, row0, out }
}

/// Accumulates the row band `[row0, row0 + out.len() / n)` of
/// `C = Aᵀ · B` into `out` (band rows index the *columns* of `A`; callers
/// pass zeros).
///
/// Per output element `(i, j)` the accumulation is `Σ_r a[r][i]·b[r][j]`
/// in ascending `r` with the `== 0.0` skip, so bits match
/// [`reference::matmul_at_b`] exactly.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, row0: usize, out: &mut [f32]) {
    isa::dispatch(matmul_at_b_kernel(a, b, row0, out));
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

/// [`matmul_a_bt_into`] as a [`Kernel`], for [`isa::dispatch_on`] at an
/// explicit tier.
pub fn matmul_a_bt_kernel<'a>(
    a: &'a Matrix,
    bt: &'a Matrix,
    row0: usize,
    out: &'a mut [f32],
) -> impl Kernel<Output = ()> + 'a {
    Product::<false, false> { a, b: bt, row0, out }
}

/// Accumulates the row band `[row0, row0 + out.len() / n)` of
/// `C = A · Bᵀ` into `out`, given `bt = Bᵀ` (callers pass zeros).
///
/// With `B` transposed once up front this is `A · bt` on the dense tile —
/// minus the zero-skip, which a dot product does not have: each output
/// element sums `a[i][p]·b[j][p]` in ascending `p` from `+0.0`, exactly
/// like the scalar loop, so bits match [`reference::matmul_a_bt`].
pub fn matmul_a_bt_into(a: &Matrix, bt: &Matrix, row0: usize, out: &mut [f32]) {
    isa::dispatch(matmul_a_bt_kernel(a, bt, row0, out));
}

/// `C = A · Bᵀ`.
///
/// Used for the gradient flow `G^l ∝ G^{l+1} (W^{l+1})ᵀ` (paper Eq. 5).
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_a_bt_into(a, &b.transpose(), 0, c.as_mut_slice());
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
    let entries = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y));
    Matrix::from_entries(a.rows(), a.cols(), entries)
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
        axpy(&mut a, &b, 0.5);
        assert_eq!(a.as_slice(), &[16., 32.]);
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
