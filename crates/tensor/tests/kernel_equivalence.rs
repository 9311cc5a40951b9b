//! Bit-identity of the blocked/SIMD kernels against the naive reference.
//!
//! The engine's determinism guarantees (byte-identical RunResult JSON for
//! any thread count — `tests/determinism_suite.rs`) rest on the claim that
//! cache blocking, panel packing, and band-parallel dispatch never change
//! a single accumulation: per output element the terms are added in the
//! same order, with the same `== 0.0` skips. These proptests check that
//! claim on ragged shapes — empty dimensions, shapes below/straddling/
//! beyond one tile, planted zeros and denormal-ish magnitudes — for both
//! the sequential entry points and the pool-dispatched `parallel` ones.
//!
//! `assert_eq!` on `Matrix` compares `f32` bit patterns via `==`; NaN
//! inputs are excluded (NaN != NaN) but ±0.0 and infinities are fair game.

use ec_tensor::ops::{self, reference};
use ec_tensor::{parallel, CsrMatrix, Matrix};
use proptest::prelude::*;

/// A matrix with interesting structure: mixed magnitudes, planted exact
/// zeros (they drive the skip paths), negative zeros.
fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(2) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let draw = (state >> 33) as u32;
        match draw % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => (draw as f32 / u32::MAX as f32) * 1e-4,
            3 => -(draw as f32 / u32::MAX as f32) * 1e4,
            _ => (draw as f32 / u32::MAX as f32) - 0.5,
        }
    })
}

fn csr(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut state = seed.wrapping_mul(2) | 1;
    let mut triples = Vec::with_capacity(nnz);
    if rows > 0 && cols > 0 {
        for _ in 0..nnz {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize % rows;
            let c = (state >> 12) as usize % cols;
            triples.push((r, c, ((state as f32) * 1e-9).sin()));
        }
    }
    CsrMatrix::from_triples(rows, cols, &triples)
}

/// Raw bit patterns, for comparisons that must survive NaN outputs.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Dimension strategy: degenerate (0, 1), sub-tile, tile-straddling
/// (around ops::LANES = 8 and ops::TILE_J = 64), and beyond-one-tile
/// sizes, all non-multiples of the tile widths. The 200 arm makes
/// `k·n > ops::TILE_BUDGET` reachable, so some cases run the genuinely
/// tiled matmul path instead of the small-B full-width collapse.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        2usize..8,
        8usize..20,
        Just(63usize),
        64usize..80,
        Just(129usize),
        Just(200usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matmul_is_bit_identical(
        m in dim(), k in dim(), n in dim(), seed in 1u64..1_000_000,
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xABCD);
        let want = reference::matmul(&a, &b);
        prop_assert_eq!(&ops::matmul(&a, &b), &want);
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(&parallel::matmul(&a, &b, threads), &want);
        }
    }

    #[test]
    fn blocked_matmul_at_b_is_bit_identical(
        r in dim(), m in dim(), n in dim(), seed in 1u64..1_000_000,
    ) {
        let a = matrix(r, m, seed);
        let b = matrix(r, n, seed ^ 0x1234);
        let want = reference::matmul_at_b(&a, &b);
        prop_assert_eq!(&ops::matmul_at_b(&a, &b), &want);
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(&parallel::matmul_at_b(&a, &b, threads), &want);
        }
    }

    #[test]
    fn packed_matmul_a_bt_is_bit_identical(
        m in dim(), n in dim(), k in dim(), seed in 1u64..1_000_000,
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(n, k, seed ^ 0x5555);
        let want = reference::matmul_a_bt(&a, &b);
        prop_assert_eq!(&ops::matmul_a_bt(&a, &b), &want);
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(&parallel::matmul_a_bt(&a, &b, threads), &want);
        }
    }

    #[test]
    fn chunked_spmm_is_bit_identical(
        m in dim(), k in dim(), n in dim(), nnz in 0usize..300, seed in 1u64..1_000_000,
    ) {
        let s = csr(m, k, nnz, seed);
        let b = matrix(k, n, seed ^ 0x9999);
        let want = reference::spmm(&s, &b);
        prop_assert_eq!(&s.spmm(&b), &want);
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(&parallel::spmm(&s, &b, threads), &want);
        }
    }

    /// The split-operand SpMM must be the stacked one bit for bit: ragged
    /// shapes, an empty local or remote half (`dim()` yields 0), and — on a
    /// quarter of the cases — planted ±inf/NaN rows on either side of the
    /// split, so `inf·0` and `inf − inf` arise in the same places.
    #[test]
    fn split_spmm_equals_spmm_over_the_stack(
        m in dim(), n_local in dim(), n_remote in dim(), n in dim(),
        nnz in 0usize..300, seed in 1u64..1_000_000,
    ) {
        let s = csr(m, n_local + n_remote, nnz, seed);
        let mut local = matrix(n_local, n, seed ^ 0x7777);
        let mut remote = matrix(n_remote, n, seed ^ 0x3333);
        if seed % 4 == 0 && n > 0 {
            for (half, v) in [(&mut local, f32::INFINITY), (&mut remote, f32::NAN)] {
                if half.rows() > 0 {
                    let r = seed as usize % half.rows();
                    half.set(r, 0, v);
                    half.set(r, n - 1, f32::NEG_INFINITY);
                }
            }
        }
        let stacked = local.vstack(&remote);
        for threads in [1usize, 2, 3, 5] {
            prop_assert_eq!(
                bits(&parallel::spmm_split(&s, &local, &remote, threads)),
                bits(&parallel::spmm(&s, &stacked, threads))
            );
        }
    }

    #[test]
    fn blocked_transpose_is_a_permutation(
        m in dim(), n in dim(), seed in 1u64..1_000_000,
    ) {
        let a = matrix(m, n, seed);
        let t = a.transpose();
        prop_assert_eq!(t.shape(), (n, m));
        for r in 0..m {
            for c in 0..n {
                prop_assert_eq!(a.get(r, c).to_bits(), t.get(c, r).to_bits());
            }
        }
    }
}

/// Infinities and huge values must flow through the skip/accumulate logic
/// exactly like the reference (order changes would turn `inf + -inf` NaNs
/// on or off). `inf * 0.0` makes the outputs contain NaN, so this compares
/// raw bit patterns rather than float equality.
#[test]
fn non_finite_values_propagate_identically() {
    let mut a = matrix(19, 13, 77);
    a.set(0, 0, f32::INFINITY);
    a.set(5, 7, f32::NEG_INFINITY);
    a.set(18, 12, f32::MAX);
    let b = matrix(13, 9, 78);
    assert_eq!(bits(&ops::matmul(&a, &b)), bits(&reference::matmul(&a, &b)));
    let bt = matrix(9, 13, 79);
    assert_eq!(bits(&ops::matmul_a_bt(&a, &bt)), bits(&reference::matmul_a_bt(&a, &bt)));
    let l = matrix(19, 6, 80);
    assert_eq!(bits(&ops::matmul_at_b(&a, &l)), bits(&reference::matmul_at_b(&a, &l)));
}
