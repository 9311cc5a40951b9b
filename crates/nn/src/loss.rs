//! Masked softmax cross-entropy — the `softmax` + `etropyloss` of Alg. 1.
//!
//! Semi-supervised vertex classification computes the loss only over the
//! labelled training vertices (`mask`). The gradient w.r.t. the logits is
//! the classic `softmax(z) - onehot(y)` on masked rows, zero elsewhere —
//! exactly the seed EC-Graph's backward pass starts from (`∇_{H^L} ℒ` in
//! Eq. 4, with the identity activation at the output layer).
//!
//! Every term is divided by `divisor`. A trainer that sees its whole batch
//! passes `mask.len()` and gets the batch mean; a distributed worker passes
//! the *global* training-set size, so the workers' losses and gradients sum
//! to the global mean's — and a worker without training rows contributes
//! zero.

use ec_tensor::{activations, Matrix};

/// Computes `(Σ loss / divisor, ∂(Σ loss / divisor)/∂logits)` over the rows
/// listed in `mask`. Only those rows are softmaxed, each in its row of the
/// gradient and from its logits every time it is listed.
///
/// # Panics
/// Panics if `divisor` is zero, `labels.len() != logits.rows()`, a masked
/// row is out of bounds, or a masked label is `>= logits.cols()`.
pub fn masked_softmax_cross_entropy(
    logits: &Matrix,
    labels: &[u32],
    mask: &[usize],
    divisor: usize,
) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "labels/logits row mismatch");
    assert!(divisor > 0, "zero loss divisor");
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let inv = 1.0 / divisor as f32;
    let mut loss = 0.0f32;
    for &v in mask {
        assert!(v < logits.rows(), "masked vertex {v} out of bounds");
        let y = labels[v] as usize;
        assert!(y < logits.cols(), "label {y} exceeds class count {}", logits.cols());
        let grow = grad.row_mut(v);
        grow.copy_from_slice(logits.row(v));
        activations::softmax_row(grow);
        loss -= grow[y].max(1e-12).ln();
        for (c, g) in grow.iter_mut().enumerate() {
            let indicator = if c == y { 1.0 } else { 0.0 };
            *g = (*g - indicator) * inv;
        }
    }
    (loss * inv, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batch mean: every masked row, divided by their count.
    fn mean_ce(logits: &Matrix, labels: &[u32], mask: &[usize]) -> (f32, Matrix) {
        masked_softmax_cross_entropy(logits, labels, mask, mask.len())
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        // Huge logit on the true class.
        let logits = Matrix::from_rows(&[vec![20.0, 0.0], vec![0.0, 20.0]]);
        let (loss, grad) = mean_ce(&logits, &[0, 1], &[0, 1]);
        assert!(loss < 1e-6, "loss {loss}");
        assert!(grad.as_slice().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _) = mean_ce(&logits, &[2], &[0]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot_scaled() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 0.5]]);
        let (_, grad) = mean_ce(&logits, &[1], &[0]);
        let p = activations::softmax_rows(&logits);
        assert!((grad.get(0, 0) - p.get(0, 0)).abs() < 1e-6);
        assert!((grad.get(0, 1) - (p.get(0, 1) - 1.0)).abs() < 1e-6);
        // Gradient rows sum to zero.
        let sum: f32 = grad.row(0).iter().sum();
        assert!(sum.abs() < 1e-6);
    }

    #[test]
    fn unmasked_rows_receive_zero_gradient() {
        let logits = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![3.0, -1.0]]);
        let (_, grad) = mean_ce(&logits, &[0, 1, 0], &[1]);
        assert!(grad.row(0).iter().all(|&g| g == 0.0));
        assert!(grad.row(2).iter().all(|&g| g == 0.0));
        assert!(grad.row(1).iter().any(|&g| g != 0.0));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[vec![0.3, -0.7, 1.1], vec![0.0, 0.4, -0.2]]);
        let labels = [2u32, 0];
        let mask = [0usize, 1];
        let (_, grad) = mean_ce(&logits, &labels, &mask);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp.set(r, c, lp.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, lm.get(r, c) - eps);
                let (fp, _) = mean_ce(&lp, &labels, &mask);
                let (fm, _) = mean_ce(&lm, &labels, &mask);
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - numeric).abs() < 1e-3,
                    "({r},{c}): {} vs {numeric}",
                    grad.get(r, c)
                );
            }
        }
    }

    /// Split across two "workers" by the global count, the shares sum to
    /// the mean over the union; a worker with no training rows contributes
    /// a zero loss and a zero gradient.
    #[test]
    fn shares_over_the_global_count_sum_to_the_mean() {
        let logits = Matrix::from_rows(&[vec![0.3, -0.7], vec![1.0, 0.4], vec![-0.2, 0.9]]);
        let labels = [1u32, 0, 1];
        let (mean, mean_grad) = mean_ce(&logits, &labels, &[0, 1, 2]);
        let (a, ga) = masked_softmax_cross_entropy(&logits, &labels, &[0, 2], 3);
        let (b, gb) = masked_softmax_cross_entropy(&logits, &labels, &[1], 3);
        assert!((a + b - mean).abs() < 1e-6, "{a} + {b} vs {mean}");
        assert!(ec_tensor::ops::add(&ga, &gb).approx_eq(&mean_grad, 1e-7));

        let (none, g) = masked_softmax_cross_entropy(&logits, &labels, &[], 3);
        assert_eq!(none, 0.0);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    /// The formulation that softmaxes every row and then reads the masked
    /// ones.
    fn all_rows_reference(
        logits: &Matrix,
        labels: &[u32],
        mask: &[usize],
        divisor: usize,
    ) -> (f32, Matrix) {
        let probs = activations::softmax_rows(logits);
        let mut grad = Matrix::zeros(logits.rows(), logits.cols());
        let inv = 1.0 / divisor as f32;
        let mut loss = 0.0f32;
        for &v in mask {
            let y = labels[v] as usize;
            loss -= probs.get(v, y).max(1e-12).ln();
            for (c, g) in grad.row_mut(v).iter_mut().enumerate() {
                let indicator = if c == y { 1.0 } else { 0.0 };
                *g = (probs.get(v, c) - indicator) * inv;
            }
        }
        (loss * inv, grad)
    }

    /// Loss and gradient bits equal the all-rows formulation: random logits
    /// (with a row far out of `exp`'s range), a mask that lists one row
    /// twice, and an empty mask.
    #[test]
    fn masked_rows_only_equals_the_all_rows_formulation_bit_for_bit() {
        let mut logits = ec_tensor::init::uniform(40, 7, -6.0, 6.0, 17);
        logits.row_mut(5).fill(-1e4);
        logits.set(5, 2, 1e4);
        let labels: Vec<u32> = (0..40).map(|v| (v * 5 % 7) as u32).collect();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mask in [vec![3, 5, 11, 3, 39, 0], vec![]] {
            let (loss, grad) = masked_softmax_cross_entropy(&logits, &labels, &mask, 29);
            let (want_loss, want_grad) = all_rows_reference(&logits, &labels, &mask, 29);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{mask:?}");
            assert_eq!(bits(&grad), bits(&want_grad), "{mask:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zero loss divisor")]
    fn rejects_a_zero_divisor() {
        let _ = mean_ce(&Matrix::zeros(1, 2), &[0], &[]);
    }
}
