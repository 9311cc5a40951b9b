//! Attributed graphs: structure + features + labels + splits.
//!
//! This is the `𝒢 = ⟨𝒱, ℰ, X_𝒱⟩` of the paper plus the semi-supervised
//! vertex-classification labelling (`y`, train/val/test split) every
//! experiment in Section V uses.

use crate::csr::Graph;
use ec_tensor::Matrix;

/// Index sets for semi-supervised training.
///
/// The paper reports dataset-specific split sizes (Table III discussion);
/// [`Split::by_fraction`] builds a deterministic split with the same
/// proportions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Split {
    /// Vertices whose labels drive the loss.
    pub train: Vec<usize>,
    /// Vertices used for early stopping / model selection.
    pub val: Vec<usize>,
    /// Held-out vertices for the reported accuracy.
    pub test: Vec<usize>,
}

impl Split {
    /// Deterministically splits `0..n` into train/val/test by fractions.
    ///
    /// Vertices are assigned in a fixed interleaved order (stride pattern)
    /// so that every partition of the graph receives a proportional share
    /// of each subset — mirroring how the public splits scatter labelled
    /// vertices across the whole graph.
    ///
    /// # Panics
    /// Panics if `train_frac + val_frac > 1.0`.
    pub fn by_fraction(n: usize, train_frac: f64, val_frac: f64) -> Self {
        assert!(
            train_frac >= 0.0 && val_frac >= 0.0 && train_frac + val_frac <= 1.0,
            "invalid split fractions"
        );
        let mut split = Split::default();
        // Spread assignment with a multiplicative hash walk for determinism
        // without clustering low ids into one subset.
        let n_train = (n as f64 * train_frac).round() as usize;
        let n_val = (n as f64 * val_frac).round() as usize;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&v| {
            (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        });
        for (i, &v) in order.iter().enumerate() {
            if i < n_train {
                split.train.push(v);
            } else if i < n_train + n_val {
                split.val.push(v);
            } else {
                split.test.push(v);
            }
        }
        split.train.sort_unstable();
        split.val.sort_unstable();
        split.test.sort_unstable();
        split
    }

    /// Total number of vertices covered by the split.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// True when no vertex is assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that the three subsets are disjoint and within `0..n`.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let mut seen = vec![false; n];
        for (name, set) in [("train", &self.train), ("val", &self.val), ("test", &self.test)] {
            for &v in set {
                if v >= n {
                    return Err(format!("{name} vertex {v} out of bounds"));
                }
                if seen[v] {
                    return Err(format!("vertex {v} in multiple subsets"));
                }
                seen[v] = true;
            }
        }
        Ok(())
    }
}

/// A vertex-attributed, vertex-labelled graph.
#[derive(Clone, Debug)]
pub struct AttributedGraph {
    /// Undirected structure.
    pub graph: Graph,
    /// `|V| × d₀` feature matrix (`X_𝒱`, the layer-0 embeddings `H⁰`).
    pub features: Matrix,
    /// Ground-truth class per vertex.
    pub labels: Vec<u32>,
    /// Number of distinct classes.
    pub num_classes: usize,
    /// Train/val/test assignment.
    pub split: Split,
    /// Human-readable name (e.g. `"cora-replica"`).
    pub name: String,
}

impl AttributedGraph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Input feature dimensionality `d₀`.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Checks cross-field consistency (shapes, label range, split bounds).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.features.rows() != n {
            return Err(format!("feature rows {} != vertices {n}", self.features.rows()));
        }
        if self.labels.len() != n {
            return Err(format!("labels {} != vertices {n}", self.labels.len()));
        }
        if let Some(&bad) = self.labels.iter().find(|&&c| c as usize >= self.num_classes) {
            return Err(format!("label {bad} >= num_classes {}", self.num_classes));
        }
        self.split.validate(n)?;
        self.graph.validate()
    }

    /// Fraction of edges whose endpoints share a label (edge homophily).
    ///
    /// The replicas target the homophily regimes of the originals: citation
    /// graphs ≈ 0.8, Reddit ≈ 0.76, OGBN products ≈ 0.81.
    pub fn edge_homophily(&self) -> f64 {
        let mut same = 0usize;
        let mut total = 0usize;
        for (u, v) in self.graph.edges() {
            total += 1;
            if self.labels[u as usize] == self.labels[v as usize] {
                same += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            same as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AttributedGraph {
        let graph = Graph::from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        AttributedGraph {
            graph,
            features: Matrix::zeros(4, 3),
            labels: vec![0, 0, 1, 1],
            num_classes: 2,
            split: Split::by_fraction(4, 0.5, 0.25),
            name: "tiny".into(),
        }
    }

    #[test]
    fn split_fractions_respected() {
        let s = Split::by_fraction(100, 0.6, 0.2);
        assert_eq!(s.train.len(), 60);
        assert_eq!(s.val.len(), 20);
        assert_eq!(s.test.len(), 20);
        assert!(s.validate(100).is_ok());
    }

    #[test]
    fn split_is_deterministic() {
        assert_eq!(Split::by_fraction(50, 0.5, 0.2), Split::by_fraction(50, 0.5, 0.2));
    }

    #[test]
    fn split_covers_all_vertices() {
        let s = Split::by_fraction(37, 0.4, 0.3);
        assert_eq!(s.len(), 37);
    }

    #[test]
    fn split_validate_catches_overlap() {
        let s = Split { train: vec![1], val: vec![1], test: vec![] };
        assert!(s.validate(5).is_err());
    }

    #[test]
    fn split_validate_catches_out_of_bounds() {
        let s = Split { train: vec![9], val: vec![], test: vec![] };
        assert!(s.validate(5).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid split fractions")]
    fn split_rejects_fractions_over_one() {
        let _ = Split::by_fraction(10, 0.8, 0.5);
    }

    #[test]
    fn attributed_graph_validates() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_label() {
        let mut g = tiny();
        g.labels[0] = 7;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let mut g = tiny();
        g.features = Matrix::zeros(3, 3);
        assert!(g.validate().is_err());
    }

    #[test]
    fn homophily_of_tiny() {
        // edges: (0,1) same class, (2,3) same class, (1,2) differ => 2/3
        let h = tiny().edge_homophily();
        assert!((h - 2.0 / 3.0).abs() < 1e-9);
    }
}
