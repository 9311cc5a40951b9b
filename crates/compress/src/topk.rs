//! Top-k sparsification — the alternative compressor from the paper's
//! related work (Stich et al., "Sparsified SGD with Memory", NeurIPS 2018,
//! the paper's [32]).
//!
//! Instead of quantizing every coordinate, Top-k keeps only the `k` largest
//! magnitudes per message and their indices. It is the natural comparison
//! point for bucket quantization: quantization spends bits uniformly,
//! sparsification concentrates them on the heavy coordinates. Like
//! ResEC-BP, Top-k is classically combined with error feedback — the same
//! [`crate::error`] residual machinery applies unchanged.

use ec_tensor::Matrix;

/// A top-k sparsified matrix: the `k` largest-magnitude entries with their
/// flat indices, plus the shape.
///
/// ```
/// use ec_compress::TopK;
/// use ec_tensor::Matrix;
/// let g = Matrix::from_vec(1, 4, vec![0.1, -5.0, 0.2, 3.0]);
/// let t = TopK::compress(&g, 2);
/// assert_eq!(t.decompress().as_slice(), &[0.0, -5.0, 0.0, 3.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TopK {
    rows: usize,
    cols: usize,
    /// Flat indices of the kept entries, strictly increasing.
    indices: Vec<u32>,
    /// Values of the kept entries, aligned with `indices`.
    values: Vec<f32>,
}

impl TopK {
    /// Keeps the `k` largest-magnitude entries of `m` (all entries when
    /// `k >= m.len()`).
    ///
    /// # Panics
    /// Panics if `k == 0` and the matrix is non-empty.
    pub fn compress(m: &Matrix, k: usize) -> Self {
        let len = m.len();
        assert!(k > 0 || len == 0, "k must be positive for non-empty matrices");
        let k = k.min(len);
        // Select the k largest |values| without a full sort.
        let mut order: Vec<u32> = (0..len as u32).collect();
        let data = m.as_slice();
        if k < len {
            order.select_nth_unstable_by(k, |&a, &b| {
                data[b as usize]
                    .abs()
                    .partial_cmp(&data[a as usize].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order.truncate(k);
        }
        order.sort_unstable();
        let values = order.iter().map(|&i| data[i as usize]).collect();
        Self { rows: m.rows(), cols: m.cols(), indices: order, values }
    }

    /// Reconstructs the dense matrix (non-kept entries are zero).
    pub fn decompress(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let data = m.as_mut_slice();
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            data[i as usize] = v;
        }
        m
    }

    /// Number of kept entries.
    pub fn k(&self) -> usize {
        self.indices.len()
    }

    /// Bytes on the wire: header + 4-byte index + 4-byte value per entry.
    pub fn wire_size(&self) -> usize {
        4 + 4 + 4 + self.indices.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_tensor::{ops, stats};

    #[test]
    fn keeps_the_largest_magnitudes() {
        let m = Matrix::from_vec(1, 5, vec![0.1, -5.0, 0.2, 3.0, -0.05]);
        let t = TopK::compress(&m, 2);
        let d = t.decompress();
        assert_eq!(d.as_slice(), &[0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn k_larger_than_len_is_lossless() {
        let m = Matrix::from_fn(3, 3, |r, c| (r as f32 - c as f32) * 0.7);
        let t = TopK::compress(&m, 100);
        assert_eq!(t.decompress(), m);
        assert_eq!(t.k(), 9);
    }

    #[test]
    fn indices_are_sorted_and_unique() {
        let m = Matrix::from_fn(4, 4, |r, c| ((r * 4 + c) as f32).sin());
        let t = TopK::compress(&m, 7);
        for w in t.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn reconstruction_error_decreases_with_k() {
        let m = Matrix::from_fn(8, 8, |r, c| ((r * 8 + c) as f32 * 0.37).sin());
        let err = |k: usize| {
            let t = TopK::compress(&m, k);
            stats::l2_norm(&ops::sub(&t.decompress(), &m))
        };
        assert!(err(32) < err(8));
        assert!(err(64) < 1e-6);
    }

    #[test]
    fn topk_is_the_best_k_term_approximation() {
        // No other k-entry subset can have lower L2 error.
        let m = Matrix::from_vec(1, 6, vec![5.0, -4.0, 3.0, -2.0, 1.0, 0.5]);
        let t = TopK::compress(&m, 3);
        let err = stats::l2_norm_sq(&ops::sub(&t.decompress(), &m));
        // Dropping the three smallest: 2² + 1² + 0.5² = 5.25.
        assert!((err - 5.25).abs() < 1e-5);
    }

    #[test]
    fn wire_size_is_header_plus_eight_bytes_per_entry() {
        let m = Matrix::from_fn(32, 32, |r, c| (r + c) as f32);
        let t = TopK::compress(&m, 32);
        // 32 entries × 8 bytes + 12 header = 268 ≈ the 2-bit quantizer's
        // 1024·2/8 = 256 payload bytes.
        assert_eq!(t.wire_size(), 12 + 32 * 8);
    }

    #[test]
    fn error_feedback_composes_with_topk() {
        // Same bias-removal property ResEC-BP relies on, with Top-k as the
        // compressor: the running average of fed-back compressions converges
        // to the true value.
        let g = Matrix::from_vec(1, 8, vec![0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let mut residual = Matrix::zeros(1, 8);
        let mut sum = Matrix::zeros(1, 8);
        let iters = 400;
        for _ in 0..iters {
            let compensated = ops::add(&g, &residual);
            let t = TopK::compress(&compensated, 2);
            let sent = t.decompress();
            residual = ops::sub(&compensated, &sent);
            ops::add_assign(&mut sum, &sent);
        }
        let avg = ops::scale(&sum, 1.0 / iters as f32);
        let bias = stats::l1_norm(&ops::sub(&avg, &g));
        assert!(bias < 0.05, "error feedback failed to debias top-k: {bias}");
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = Matrix::zeros(0, 4);
        let t = TopK::compress(&m, 1);
        assert_eq!(t.k(), 0);
        assert_eq!(t.decompress().shape(), (0, 4));
    }
}
