//! Classification metrics for Table V.

use ec_tensor::Matrix;

/// Row-wise argmax: the predicted class per vertex.
pub fn argmax_rows(logits: &Matrix) -> Vec<u32> {
    logits
        .rows_iter()
        .map(|row| {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate().skip(1) {
                if v > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
}

/// Fraction of `indices` whose argmax prediction matches the label.
pub fn accuracy(logits: &Matrix, labels: &[u32], indices: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "logits/labels mismatch");
    if indices.is_empty() {
        return 0.0;
    }
    let preds = argmax_rows(logits);
    let correct = indices.iter().filter(|&&v| preds[v] == labels[v]).count();
    correct as f64 / indices.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_largest() {
        let m = Matrix::from_rows(&[vec![0.1, 0.9], vec![2.0, -1.0]]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    #[test]
    fn argmax_ties_break_to_first() {
        let m = Matrix::from_rows(&[vec![0.5, 0.5]]);
        assert_eq!(argmax_rows(&m), vec![0]);
    }

    #[test]
    fn accuracy_counts_subset_only() {
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let labels = [0u32, 1, 1];
        assert_eq!(accuracy(&m, &labels, &[0, 1, 2]), 2.0 / 3.0);
        assert_eq!(accuracy(&m, &labels, &[0]), 1.0);
        assert_eq!(accuracy(&m, &labels, &[1]), 0.0);
    }

    #[test]
    fn accuracy_of_empty_mask_is_zero() {
        let m = Matrix::zeros(1, 2);
        assert_eq!(accuracy(&m, &[0], &[]), 0.0);
    }
}
