//! Masked softmax cross-entropy — the `softmax` + `etropyloss` of Alg. 1.
//!
//! Semi-supervised vertex classification computes the loss only over the
//! labelled training vertices (`mask`), averaging so the gradient magnitude
//! is independent of the training-set size. The gradient w.r.t. the logits
//! is the classic `softmax(z) - onehot(y)` on masked rows, zero elsewhere —
//! exactly the seed EC-Graph's backward pass starts from (`∇_{H^L} ℒ` in
//! Eq. 4, with the identity activation at the output layer).

use ec_tensor::{activations, Matrix};

/// Computes `(mean loss, ∂loss/∂logits)` over the rows listed in `mask`.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()`, a masked row is out of
/// bounds, or a masked label is `>= logits.cols()`.
pub fn masked_softmax_cross_entropy(
    logits: &Matrix,
    labels: &[u32],
    mask: &[usize],
) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "labels/logits row mismatch");
    assert!(!mask.is_empty(), "empty training mask");
    let probs = activations::softmax_rows(logits);
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let inv = 1.0 / mask.len() as f32;
    let mut loss = 0.0f32;
    for &v in mask {
        assert!(v < logits.rows(), "masked vertex {v} out of bounds");
        let y = labels[v] as usize;
        assert!(y < logits.cols(), "label {y} exceeds class count {}", logits.cols());
        let p = probs.get(v, y).max(1e-12);
        loss -= p.ln();
        let grow = grad.row_mut(v);
        for (c, g) in grow.iter_mut().enumerate() {
            let indicator = if c == y { 1.0 } else { 0.0 };
            *g = (probs.get(v, c) - indicator) * inv;
        }
    }
    (loss * inv, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        // Huge logit on the true class.
        let logits = Matrix::from_rows(&[vec![20.0, 0.0], vec![0.0, 20.0]]);
        let (loss, grad) = masked_softmax_cross_entropy(&logits, &[0, 1], &[0, 1]);
        assert!(loss < 1e-6, "loss {loss}");
        assert!(grad.as_slice().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _) = masked_softmax_cross_entropy(&logits, &[2], &[0]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot_scaled() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 0.5]]);
        let (_, grad) = masked_softmax_cross_entropy(&logits, &[1], &[0]);
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
        let (_, grad) = masked_softmax_cross_entropy(&logits, &[0, 1, 0], &[1]);
        assert!(grad.row(0).iter().all(|&g| g == 0.0));
        assert!(grad.row(2).iter().all(|&g| g == 0.0));
        assert!(grad.row(1).iter().any(|&g| g != 0.0));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[vec![0.3, -0.7, 1.1], vec![0.0, 0.4, -0.2]]);
        let labels = [2u32, 0];
        let mask = [0usize, 1];
        let (_, grad) = masked_softmax_cross_entropy(&logits, &labels, &mask);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp.set(r, c, lp.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, lm.get(r, c) - eps);
                let (fp, _) = masked_softmax_cross_entropy(&lp, &labels, &mask);
                let (fm, _) = masked_softmax_cross_entropy(&lm, &labels, &mask);
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - numeric).abs() < 1e-3,
                    "({r},{c}): {} vs {numeric}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty training mask")]
    fn rejects_empty_mask() {
        let _ = masked_softmax_cross_entropy(&Matrix::zeros(1, 2), &[0], &[]);
    }
}
