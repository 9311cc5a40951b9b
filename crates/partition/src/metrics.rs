//! Partition quality metrics.
//!
//! These quantities drive EC-Graph's communication model: the per-epoch
//! traffic of the engine is `O(T · L · ḡ_rmt · d̄ / (32/B))` (Table II),
//! where `ḡ_rmt` — the average number of *remote* 1-hop neighbours — is a
//! pure function of the partition computed here.

use crate::Partition;
use ec_graph_data::Graph;

/// Number of undirected edges whose endpoints live on different parts.
pub fn edge_cut(g: &Graph, p: &Partition) -> usize {
    g.edges().filter(|&(u, v)| p.part_of(u as usize) != p.part_of(v as usize)).count()
}

/// Fraction of edges cut (0 when the graph has no edges).
pub fn edge_cut_fraction(g: &Graph, p: &Partition) -> f64 {
    let m = g.num_edges();
    if m == 0 {
        0.0
    } else {
        edge_cut(g, p) as f64 / m as f64
    }
}

/// Load imbalance: `max part size / ideal part size` (≥ 1, lower is better).
pub fn balance(p: &Partition) -> f64 {
    let sizes = p.part_sizes();
    let max = *sizes.iter().max().unwrap_or(&0) as f64;
    let ideal = p.num_vertices() as f64 / p.num_parts() as f64;
    if ideal == 0.0 {
        1.0
    } else {
        max / ideal
    }
}

/// Average number of remote 1-hop neighbours per vertex — the paper's
/// `ḡ_rmt`.
pub fn avg_remote_degree(g: &Graph, p: &Partition) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut remote = 0usize;
    for v in 0..n {
        let pv = p.part_of(v);
        remote += g.neighbors(v).iter().filter(|&&u| p.part_of(u as usize) != pv).count();
    }
    remote as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edge_cut_counts_cross_edges() {
        let g = path4();
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(edge_cut(&g, &p), 1);
        assert!((edge_cut_fraction(&g, &p) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_cut_zero_when_single_part() {
        let g = path4();
        let p = Partition::new(vec![0; 4], 1);
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn balance_of_even_partition_is_one() {
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(balance(&p), 1.0);
        let q = Partition::new(vec![0, 0, 0, 1], 2);
        assert_eq!(balance(&q), 1.5);
    }

    #[test]
    fn avg_remote_degree_of_split_path() {
        let g = path4();
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        // Only vertices 1 and 2 have one remote neighbour each → 2/4.
        assert_eq!(avg_remote_degree(&g, &p), 0.5);
    }
}
