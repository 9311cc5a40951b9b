//! Thread-parallel variants of the hot kernels, dispatched on the
//! persistent [`crate::pool`].
//!
//! Output rows are partitioned into contiguous bands, band `i` runs on
//! pool lane `i % threads`, and each band is computed by the **same**
//! tiled kernel body ([`crate::ops::matmul_into`] and friends) the
//! sequential entry points use — so results are bit-identical to
//! [`crate::ops::matmul`] / [`CsrMatrix::spmm`] by construction, and all
//! determinism guarantees of the simulation carry over. The paper's
//! workers are multi-core machines (4- and 32-core Xeons); these kernels
//! are what a production deployment would run inside each worker.
//!
//! Two guards keep dispatch from ever costing more than it buys:
//!
//! * [`effective_threads`] caps every request at the physical parallelism
//!   recorded when the shared pool was built — on a 1-core host all
//!   requests resolve to 1 and every kernel runs inline (the pre-pool
//!   scoped threads ran anyway and time-sliced the core, which is how the
//!   old 2-thread benchmark rows came out *slower* than sequential);
//! * [`band_count`] converts the kernel's multiply-accumulate count into a
//!   band budget, so matrices below [`MIN_BAND_WORK`] per band never leave
//!   the calling thread (the old `m < 2 * threads` row-count test let
//!   tiny, wide-enough matmuls pay dispatch overhead for microseconds of
//!   work).

use crate::dense::Matrix;
use crate::ops;
use crate::pool::{self, Task};
use crate::sparse::CsrMatrix;

/// Minimum multiply-accumulate count a band must carry before pool
/// dispatch pays for itself. Handing a task to a lane and collecting it
/// costs a few microseconds; 128 Ki MACs is roughly 50–100 µs of kernel
/// work, comfortably past break-even.
pub const MIN_BAND_WORK: usize = 128 * 1024;

/// Resolves a requested thread count: `0` means the shared pool's size,
/// anything else is capped by it. The cap is the physical parallelism
/// sampled at pool construction — kernel dispatch can never oversubscribe
/// the host, whatever the configuration asks for.
pub fn effective_threads(threads: usize) -> usize {
    let cap = pool::shared().threads();
    if threads == 0 {
        cap
    } else {
        threads.min(cap).max(1)
    }
}

/// Number of row bands worth dispatching for `rows` output rows totalling
/// `work` multiply-accumulates: at most one band per thread or per row,
/// and never so many that a band falls below [`MIN_BAND_WORK`]. Returns
/// `<= 1` when the whole kernel should stay on the calling thread.
fn band_count(threads: usize, rows: usize, work: usize) -> usize {
    threads.min(rows).min((work / MIN_BAND_WORK).max(1))
}

/// Band dispatch shared by every kernel below: allocates the zeroed
/// `rows × cols` output and has [`banded_into`] fill it.
fn banded(
    rows: usize,
    cols: usize,
    work: usize,
    threads: usize,
    body: &(impl Fn(usize, &mut [f32]) + Sync),
) -> Matrix {
    let mut c = Matrix::zeros(rows, cols);
    banded_into(&mut c, work, threads, body);
    c
}

/// Has `body(first_row, band)` fill the zeroed `out` — inline when
/// [`band_count`] grants `work` multiply-accumulates one band, else as
/// contiguous row bands on the shared pool.
fn banded_into(
    out: &mut Matrix,
    work: usize,
    threads: usize,
    body: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    let (rows, cols) = out.shape();
    let bands = band_count(effective_threads(threads), rows, work);
    if bands <= 1 {
        body(0, out.as_mut_slice());
        return;
    }
    let chunk = rows.div_ceil(bands);
    let mut tasks: Vec<Task<'_>> = Vec::with_capacity(bands);
    let mut rest = out.as_mut_slice();
    let mut row0 = 0usize;
    while row0 < rows {
        let here = chunk.min(rows - row0);
        let (band, tail) = rest.split_at_mut(here * cols);
        rest = tail;
        let start = row0;
        tasks.push(Box::new(move || body(start, band)));
        row0 += here;
    }
    pool::shared().run(tasks);
}

/// Parallel `C = A · B` over row bands of `A`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let work = m.saturating_mul(k).saturating_mul(n);
    banded(m, n, work, threads, &|row0, band| ops::matmul_into(a, b, row0, band))
}

/// [`matmul`] into `out`, which is reshaped to `A.rows() × B.cols()` and
/// zeroed in the storage it already has: once `out` has grown to the
/// largest product, a repeated call allocates nothing. Bit-identical to
/// [`matmul`].
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(a: &Matrix, b: &Matrix, threads: usize, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    out.reshape_for_overwrite(m, n);
    out.as_mut_slice().fill(0.0);
    let work = m.saturating_mul(k).saturating_mul(n);
    banded_into(out, work, threads, &|row0, band| ops::matmul_into(a, b, row0, band));
}

/// [`matmul_into`] where `rows` is `None`; else only rows `rows`
/// (ascending, distinct) of `C = A · B`, on the calling thread, for a
/// product whose rows are a small share of `A`'s. `out` is reshaped to
/// `A.rows() × B.cols()` and zeroed in the storage it already has, and every
/// row not named stays zero. Each run of consecutive rows is one call of
/// the kernel [`matmul`] runs, whose every element is pinned to the
/// reference sum, so a row formed here is bit-identical to that row of
/// [`matmul`].
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or a row is out of range.
pub fn matmul_rows_into(
    a: &Matrix,
    b: &Matrix,
    rows: Option<&[usize]>,
    threads: usize,
    out: &mut Matrix,
) {
    let Some(mut rest) = rows else { return matmul_into(a, b, threads, out) };
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let n = b.cols();
    out.reshape_for_overwrite(a.rows(), n);
    out.as_mut_slice().fill(0.0);
    while let Some(&first) = rest.first() {
        let run = 1 + rest.windows(2).take_while(|w| w[1] == w[0] + 1).count();
        ops::matmul_into(a, b, first, &mut out.as_mut_slice()[first * n..(first + run) * n]);
        rest = &rest[run..];
    }
}

/// Parallel sparse × dense product over row bands of the sparse matrix.
///
/// # Panics
/// Panics if `s.cols() != b.rows()`.
pub fn spmm(s: &CsrMatrix, b: &Matrix, threads: usize) -> Matrix {
    assert_eq!(s.cols(), b.rows(), "spmm shape mismatch");
    let work = s.nnz().saturating_mul(b.cols());
    banded(s.rows(), b.cols(), work, threads, &|row0, band| s.spmm_into(b, row0, band))
}

/// Parallel `S · [local ; remote]` without building the stacked operand:
/// the worker-side aggregation over `[H_local | H_remote]`, where remote
/// column `c` is row `remote_row[c]` of `remote`. Bit-identical to
/// `spmm(s, &local.vstack(&remote_in_column_order), threads)`.
///
/// # Panics
/// Panics if `s.cols() != local.rows() + remote_row.len()`, the two
/// operands differ in width, or `remote_row` names a row `remote` lacks.
pub fn spmm_split(
    s: &CsrMatrix,
    local: &Matrix,
    remote: &Matrix,
    remote_row: &[u32],
    threads: usize,
) -> Matrix {
    assert_eq!(s.cols(), local.rows() + remote_row.len(), "spmm_split shape mismatch");
    assert_eq!(local.cols(), remote.cols(), "spmm_split operand width mismatch");
    let n = local.cols();
    banded(s.rows(), n, s.nnz().saturating_mul(n), threads, &|row0, band| {
        s.spmm_split_into(local, remote, remote_row, row0, band)
    })
}

/// [`spmm_split`] into `out`, reshaped and zeroed like [`matmul_into`]'s
/// output: a repeated call allocates nothing once `out` has grown.
/// Bit-identical to [`spmm_split`].
///
/// # Panics
/// As [`spmm_split`].
pub fn spmm_split_into(
    s: &CsrMatrix,
    local: &Matrix,
    remote: &Matrix,
    remote_row: &[u32],
    threads: usize,
    out: &mut Matrix,
) {
    assert_eq!(s.cols(), local.rows() + remote_row.len(), "spmm_split shape mismatch");
    assert_eq!(local.cols(), remote.cols(), "spmm_split operand width mismatch");
    let n = local.cols();
    out.reshape_for_overwrite(s.rows(), n);
    out.as_mut_slice().fill(0.0);
    banded_into(out, s.nnz().saturating_mul(n), threads, &|row0, band| {
        s.spmm_split_into(local, remote, remote_row, row0, band)
    })
}

/// Parallel `C = Aᵀ · B` over row bands of the *output* (columns of `A`).
///
/// Each band runs [`crate::ops::matmul_at_b_into`] on its own column
/// slice of `A`: bands re-stream `B`, but the output shape is a weight
/// gradient (`a.cols() × b.cols()`, small) so each band's accumulator
/// stays cache-resident. Per output element the accumulation is still
/// `Σ_r a[r][i]·b[r][j]` in ascending `r` with the same `== 0.0` skip, so
/// the result is bit-identical to [`crate::ops::matmul_at_b`].
///
/// # Panics
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b shape mismatch");
    let m = a.cols();
    let n = b.cols();
    let work = m.saturating_mul(a.rows()).saturating_mul(n);
    banded(m, n, work, threads, &|row0, band| ops::matmul_at_b_into(a, b, row0, band))
}

/// Parallel `C = A · Bᵀ` over row bands of `A`.
///
/// `B` is transposed once on the calling thread; every output element
/// remains an independent dot product with the same ascending-`p` inner
/// loop as [`crate::ops::matmul_a_bt`], so results are bit-identical.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt shape mismatch");
    let m = a.rows();
    let n = b.rows();
    let work = m.saturating_mul(n).saturating_mul(a.cols());
    let bt = b.transpose();
    banded(m, n, work, threads, &|row0, band| ops::matmul_a_bt_into(a, &bt, row0, band))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, ops};

    #[test]
    fn parallel_matmul_is_bit_identical() {
        let a = init::uniform(67, 33, -1.0, 1.0, 1);
        let b = init::uniform(33, 29, -1.0, 1.0, 2);
        let seq = ops::matmul(&a, &b);
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(matmul(&a, &b, threads), seq, "threads={threads}");
        }
    }

    /// A reused output, shrunk, grown and left dirty in between, holds
    /// the allocating product bit for bit.
    #[test]
    fn matmul_into_reuses_its_output() {
        let mut out = Matrix::filled(5, 5, f32::NAN);
        for (m, k, n) in [(67, 33, 29), (3, 33, 7), (90, 12, 29)] {
            let a = init::uniform(m, k, -1.0, 1.0, 1);
            let b = init::uniform(k, n, -1.0, 1.0, 2);
            for threads in [1usize, 3] {
                matmul_into(&a, &b, threads, &mut out);
                assert_eq!(out, ops::matmul(&a, &b), "{m}×{k}·{k}×{n} threads={threads}");
            }
        }
    }

    /// The named rows, in runs and alone, at the ends and in the middle,
    /// hold the full product's bits; the rest of the reused, dirty output
    /// is zero; and `None` forms every row.
    #[test]
    fn matmul_rows_into_forms_only_the_named_rows() {
        let a = init::uniform(41, 33, -1.0, 1.0, 1);
        let b = init::uniform(33, 29, -1.0, 1.0, 2);
        let full = ops::matmul(&a, &b);
        let mut out = Matrix::filled(50, 50, f32::NAN);
        for rows in [vec![], vec![0, 1, 2, 7, 20, 21, 40], (0..41).collect()] {
            matmul_rows_into(&a, &b, Some(&rows), 3, &mut out);
            assert_eq!(out.shape(), full.shape());
            for r in 0..41 {
                let want = if rows.contains(&r) { full.row(r).to_vec() } else { vec![0.0; 29] };
                assert_eq!(out.row(r), want, "row {r} of {rows:?}");
            }
        }
        matmul_rows_into(&a, &b, None, 3, &mut out);
        assert_eq!(out, full, "every row");
    }

    #[test]
    fn parallel_spmm_is_bit_identical() {
        let s = CsrMatrix::from_triples(
            50,
            40,
            &(0..200)
                .map(|i| ((i * 7) % 50, (i * 13) % 40, (i as f32 * 0.3).sin()))
                .collect::<Vec<_>>(),
        );
        let b = init::uniform(40, 8, -1.0, 1.0, 3);
        let seq = s.spmm(&b);
        for threads in [2usize, 4, 7] {
            assert_eq!(spmm(&s, &b, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn spmm_split_equals_spmm_over_the_stack() {
        let s = CsrMatrix::from_triples(
            50,
            40,
            &(0..200)
                .map(|i| ((i * 7) % 50, (i * 13) % 40, (i as f32 * 0.3).sin()))
                .collect::<Vec<_>>(),
        );
        let b = init::uniform(40, 8, -1.0, 1.0, 3);
        // Every split point, including an empty local and an empty remote,
        // with the remote rows stored in reverse column order.
        for n_local in [0usize, 1, 17, 40] {
            let local = b.gather_rows(&(0..n_local).collect::<Vec<_>>());
            let remote = b.gather_rows(&(n_local..40).rev().collect::<Vec<_>>());
            let remote_row: Vec<u32> = (0..40 - n_local as u32).rev().collect();
            let mut reused = Matrix::filled(3, 60, f32::NAN);
            for threads in [1usize, 2, 7] {
                let got = spmm_split(&s, &local, &remote, &remote_row, threads);
                assert_eq!(got, s.spmm(&b), "{n_local}");
                spmm_split_into(&s, &local, &remote, &remote_row, threads, &mut reused);
                assert_eq!(reused, got, "{n_local} into a reused output");
            }
        }
    }

    #[test]
    fn parallel_matmul_at_b_is_bit_identical() {
        let a = init::uniform(41, 67, -1.0, 1.0, 4);
        let b = init::uniform(41, 23, -1.0, 1.0, 5);
        let seq = ops::matmul_at_b(&a, &b);
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(matmul_at_b(&a, &b, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matmul_a_bt_is_bit_identical() {
        let a = init::uniform(53, 31, -1.0, 1.0, 6);
        let b = init::uniform(27, 31, -1.0, 1.0, 7);
        let seq = ops::matmul_a_bt(&a, &b);
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(matmul_a_bt(&a, &b, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn transpose_kernels_handle_sparse_inputs_identically() {
        // The `av == 0.0` skip must fire in the same places as the
        // sequential kernel for the bit-identity argument to hold.
        let mut a = init::uniform(40, 48, -1.0, 1.0, 8);
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                if (r + c) % 3 == 0 {
                    a.set(r, c, 0.0);
                }
            }
        }
        let b = init::uniform(40, 16, -1.0, 1.0, 9);
        assert_eq!(matmul_at_b(&a, &b, 4), ops::matmul_at_b(&a, &b));
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let a = Matrix::identity(3);
        let b = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        assert_eq!(matmul(&a, &b, 8), b);
    }

    #[test]
    fn effective_threads_resolves_within_the_pool_cap() {
        let cap = crate::pool::shared().threads();
        assert_eq!(effective_threads(0), cap);
        assert_eq!(effective_threads(1), 1);
        // Explicit requests are honoured up to the cap, never beyond.
        assert_eq!(effective_threads(4), 4.min(cap));
        assert_eq!(effective_threads(1024), cap);
    }

    #[test]
    fn band_budget_is_work_based() {
        // Tiny work stays sequential however many rows/threads exist …
        assert_eq!(band_count(8, 1000, MIN_BAND_WORK - 1), 1);
        // … big work fans out, capped by threads and rows.
        assert_eq!(band_count(8, 1000, 64 * MIN_BAND_WORK), 8);
        assert_eq!(band_count(8, 3, 64 * MIN_BAND_WORK), 3);
        // Mid-size work limits the fan-out so bands stay above threshold.
        assert_eq!(band_count(8, 1000, 2 * MIN_BAND_WORK), 2);
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(matmul(&a, &b, 4).shape(), (0, 3));
        let s = CsrMatrix::from_triples(0, 5, &[]);
        assert_eq!(spmm(&s, &b, 4).shape(), (0, 3));
    }
}
