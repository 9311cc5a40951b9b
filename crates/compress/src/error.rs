//! Compression residuals and error accounting.
//!
//! Both compensation algorithms are built on the residual
//! `δ = X - C_bits(X)`:
//!
//! * ReqEC-FP's Selector ranks candidate approximations by per-vertex L1
//!   residual (Eq. 10);
//! * ResEC-BP carries the residual forward as error-feedback memory
//!   (Eqs. 11–12), whose squared L2 norm Theorem 1 bounds.

use crate::quantize::Quantized;
use ec_tensor::{init, ops, stats, Matrix};

/// `X - decompress(compress(X))`, the residual a single compression step
/// leaves behind.
pub fn residual(original: &Matrix, q: &Quantized) -> Matrix {
    ops::sub(original, &q.decompress())
}

/// Relative compression error `‖X - C(X)‖₂ / ‖X‖₂` (the `α` of the paper's
/// Eq. 13 when measured empirically).
pub fn relative_error(original: &Matrix, q: &Quantized) -> f32 {
    let denom = stats::l2_norm(original);
    if denom == 0.0 {
        0.0
    } else {
        stats::l2_norm(&residual(original, q)) / denom
    }
}

/// The empirical `α` of a `bits`-wide quantizer: the worst
/// [`relative_error`] over `seeds` standard-normal 32×16 matrices (seeds
/// `0..seeds`).
pub fn probe_alpha(bits: u8, seeds: u64) -> f32 {
    (0..seeds).fold(0.0f32, |alpha, seed| {
        let m = init::normal(32, 16, 1.0, seed);
        alpha.max(relative_error(&m, &Quantized::compress(&m, bits)))
    })
}

/// The Theorem-1 upper bound on `E‖δ_{t,l}‖²`:
/// `(1+α)^{L-l} · G² / (1 - α²(1 + 1/ρ))`.
///
/// Returns `None` when the bound's precondition `α² (1 + 1/ρ) < 1` fails.
pub fn theorem1_bound(
    alpha: f64,
    rho: f64,
    grad_norm_sq: f64,
    num_layers: usize,
    layer: usize,
) -> Option<f64> {
    assert!(layer >= 1 && layer <= num_layers, "layer out of range");
    let denom = 1.0 - alpha * alpha * (1.0 + 1.0 / rho);
    if denom <= 0.0 || rho <= 0.0 {
        return None;
    }
    Some((1.0 + alpha).powi((num_layers - layer) as i32) * grad_norm_sq / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn residual_is_zero_for_exact_reconstruction() {
        let m = Matrix::filled(2, 2, 1.0);
        let r = residual(&m, &Quantized::compress(&m, 4));
        assert!(stats::l2_norm(&r) < 1e-6);
    }

    #[test]
    fn residual_shrinks_with_more_bits() {
        let m = Matrix::from_fn(16, 16, |r, c| ((r * 16 + c) as f32).sin());
        let r2 = residual(&m, &Quantized::compress(&m, 2));
        let r8 = residual(&m, &Quantized::compress(&m, 8));
        assert!(stats::l2_norm(&r8) < stats::l2_norm(&r2) / 10.0);
    }

    #[test]
    fn relative_error_of_zero_matrix_is_zero() {
        let m = Matrix::zeros(3, 3);
        let q = Quantized::compress(&m, 2);
        assert_eq!(relative_error(&m, &q), 0.0);
    }

    #[test]
    fn theorem1_bound_monotone_in_layer_depth() {
        // Shallower layers (smaller l) accumulate more error.
        let b1 = theorem1_bound(0.3, 2.0, 1.0, 3, 1).unwrap();
        let b3 = theorem1_bound(0.3, 2.0, 1.0, 3, 3).unwrap();
        assert!(b1 > b3);
    }

    #[test]
    fn theorem1_bound_requires_small_alpha() {
        // α²(1+1/ρ) ≥ 1 → no bound.
        assert!(theorem1_bound(1.0, 1.0, 1.0, 2, 1).is_none());
        assert!(theorem1_bound(0.5, 2.0, 1.0, 2, 1).is_some());
    }

    proptest! {
        #[test]
        fn relative_error_below_one_for_nonzero(
            vals in proptest::collection::vec(0.01f32..1.0, 4..64),
            bits in 2u8..=8,
        ) {
            let m = Matrix::from_vec(1, vals.len(), vals);
            let q = Quantized::compress(&m, bits);
            prop_assert!(relative_error(&m, &q) < 1.0);
        }
    }
}
