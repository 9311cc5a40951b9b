//! Activation functions and their derivatives.
//!
//! The paper's GCN uses ReLU between layers and a row-wise softmax feeding a
//! cross-entropy loss at the output (Alg. 1 lines 12–13). Backward
//! propagation needs `σ'(Z)` (Eqs. 4–5), provided here as [`relu_grad`].

use crate::dense::Matrix;

/// Elementwise ReLU: `max(x, 0)`.
pub fn relu(m: &Matrix) -> Matrix {
    m.map(|x| x.max(0.0))
}

/// [`relu`] in place.
pub fn relu_assign(m: &mut Matrix) {
    m.map_inplace(|x| x.max(0.0));
}

/// Derivative of ReLU evaluated at the *pre-activation* `z`:
/// `1` where `z > 0`, else `0`.
pub fn relu_grad(z: &Matrix) -> Matrix {
    z.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// In-place ReLU backward step `flow ⊙= σ'(z)`: the product of `flow` with
/// [`relu_grad`]`(z)`, without materializing the mask. It multiplies by
/// `1.0`/`0.0` rather than selecting, so `-x · 0 = -0.0` and `NaN · 0 = NaN`
/// come out exactly as the mask-and-[`crate::ops::hadamard`] pair gives them.
///
/// # Panics
/// Panics if the shapes differ.
pub fn relu_backward_assign(flow: &mut Matrix, z: &Matrix) {
    assert_eq!(flow.shape(), z.shape(), "relu_backward_assign shape mismatch");
    for (f, &x) in flow.as_mut_slice().iter_mut().zip(z.as_slice()) {
        *f *= if x > 0.0 { 1.0 } else { 0.0 };
    }
}

/// Row-wise softmax with the standard max-subtraction for numerical
/// stability.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_row(out.row_mut(r));
    }
    out
}

/// [`softmax_rows`] of one row, in place.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let m = Matrix::from_vec(1, 4, vec![-2., -0.5, 0., 3.]);
        assert_eq!(relu(&m).as_slice(), &[0., 0., 0., 3.]);
    }

    #[test]
    fn relu_backward_assign_is_mask_times_flow_bit_for_bit() {
        let z = Matrix::from_vec(2, 3, vec![-1., 0., 2., -0.0, f32::NAN, 1e-30]);
        let flow = Matrix::from_vec(2, 3, vec![-3., f32::NAN, -0.0, -5., 7., f32::INFINITY]);
        let want = crate::ops::hadamard(&flow, &relu_grad(&z));
        let mut got = flow.clone();
        relu_backward_assign(&mut got, &z);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // The sign of a masked negative and the NaN survive.
        assert_eq!(got.get(0, 0).to_bits(), (-0.0f32).to_bits());
        assert!(got.get(0, 1).is_nan());
    }

    #[test]
    fn relu_grad_is_indicator() {
        let z = Matrix::from_vec(1, 3, vec![-1., 0., 2.]);
        assert_eq!(relu_grad(&z).as_slice(), &[0., 0., 1.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[vec![1., 2., 3.], vec![-5., 0., 5.]]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![101., 102., 103.]);
        assert!(softmax_rows(&a).approx_eq(&softmax_rows(&b), 1e-6));
    }

    #[test]
    fn softmax_handles_large_values_without_overflow() {
        let m = Matrix::from_vec(1, 2, vec![1000., 1001.]);
        let s = softmax_rows(&m);
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}
