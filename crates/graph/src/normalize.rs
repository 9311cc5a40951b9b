//! GCN adjacency normalization.
//!
//! Kipf & Welling's GCN (and the paper's Eq. 2) propagates through
//! `Â = D̃^{-1/2}(A + I)D̃^{-1/2}` where `D̃` is the degree matrix of
//! `A + I`. For an undirected graph `Â` is symmetric, so `Âᵀ = Â` and the
//! forward (Eq. 2) and backward (Eq. 5) flows use the same matrix.

use crate::csr::Graph;
use ec_tensor::CsrMatrix;

/// Builds the symmetric GCN-normalized adjacency `D̃^{-1/2}(A+I)D̃^{-1/2}`
/// (self-loops included).
pub fn gcn_normalized_adjacency(g: &Graph) -> CsrMatrix {
    let n = g.num_vertices();
    // Degree of A + I.
    let inv_sqrt: Vec<f32> = (0..n).map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt()).collect();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices: Vec<u32> = Vec::with_capacity(g.num_arcs() + n);
    let mut values: Vec<f32> = Vec::with_capacity(g.num_arcs() + n);
    indptr.push(0);
    for v in 0..n {
        let mut inserted_self = false;
        for &u in g.neighbors(v) {
            let u = u as usize;
            if !inserted_self && u > v {
                indices.push(v as u32);
                values.push(inv_sqrt[v] * inv_sqrt[v]);
                inserted_self = true;
            }
            indices.push(u as u32);
            values.push(inv_sqrt[v] * inv_sqrt[u]);
        }
        if !inserted_self {
            indices.push(v as u32);
            values.push(inv_sqrt[v] * inv_sqrt[v]);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::new(n, n, indptr, indices, values)
}

/// Column-standardizes a feature matrix in place: each feature gets zero
/// mean and unit variance (constant columns become zero).
///
/// This mirrors the preprocessing the public datasets ship with (Reddit's
/// and OGBN's features are z-scored embeddings). It matters for GNN
/// optimization: with all-positive features and high average degree, the
/// aggregation `Â·X` is dominated by a shared positive component and GCN
/// training collapses into predicting the class prior.
pub fn standardize_columns(features: &mut ec_tensor::Matrix) {
    let (rows, cols) = features.shape();
    if rows == 0 || cols == 0 {
        return;
    }
    let mut mean = vec![0.0f64; cols];
    for r in 0..rows {
        for (m, &x) in mean.iter_mut().zip(features.row(r)) {
            *m += x as f64;
        }
    }
    for m in &mut mean {
        *m /= rows as f64;
    }
    let mut var = vec![0.0f64; cols];
    for r in 0..rows {
        for (v, (&x, &m)) in var.iter_mut().zip(features.row(r).iter().zip(&mean)) {
            let d = x as f64 - m;
            *v += d * d;
        }
    }
    let inv_std: Vec<f32> = var
        .iter()
        .map(|&v| {
            let std = (v / rows as f64).sqrt();
            if std > 1e-12 {
                (1.0 / std) as f32
            } else {
                0.0
            }
        })
        .collect();
    for r in 0..rows {
        for ((x, &m), &is) in features.row_mut(r).iter_mut().zip(&mean).zip(&inv_std) {
            *x = (*x - m as f32) * is;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_adjacency_is_symmetric() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let a = gcn_normalized_adjacency(&g).to_dense();
        for r in 0..4 {
            for c in 0..4 {
                assert!((a.get(r, c) - a.get(c, r)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn normalized_adjacency_known_values() {
        // path 0-1: degrees with self-loop are 2 and 2.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let a = gcn_normalized_adjacency(&g).to_dense();
        assert!((a.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((a.get(0, 1) - 0.5).abs() < 1e-6);
        assert!((a.get(1, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn self_loops_present_for_isolated_vertices() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let a = gcn_normalized_adjacency(&g).to_dense();
        assert!((a.get(2, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_adjacency_nnz_counts_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let a = gcn_normalized_adjacency(&g);
        assert_eq!(a.nnz(), g.num_arcs() + 3);
    }
}

#[cfg(test)]
mod standardize_tests {
    use super::*;

    #[test]
    fn standardize_columns_zero_mean_unit_var() {
        let mut f = ec_tensor::Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 5.0], vec![5.0, 5.0]]);
        standardize_columns(&mut f);
        // column 0: mean 3, std sqrt(8/3)
        let col0: Vec<f32> = (0..3).map(|r| f.get(r, 0)).collect();
        let mean: f32 = col0.iter().sum::<f32>() / 3.0;
        assert!(mean.abs() < 1e-6);
        let var: f32 = col0.iter().map(|x| x * x).sum::<f32>() / 3.0;
        assert!((var - 1.0).abs() < 1e-5);
        // constant column becomes zero
        assert!((0..3).all(|r| f.get(r, 1) == 0.0));
    }

    #[test]
    fn standardize_empty_is_noop() {
        let mut f = ec_tensor::Matrix::zeros(0, 3);
        standardize_columns(&mut f);
        assert_eq!(f.shape(), (0, 3));
    }
}
