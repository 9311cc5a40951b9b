//! Seeded synthetic graph generators.
//!
//! The reproduction cannot ship the paper's datasets, so the replicas in
//! [`crate::datasets`] are built from these generators. All generators are
//! deterministic in their seed and run in `O(edges)` expected time, which is
//! what makes the scaled Reddit replica (average degree ≈ 492) practical.

use crate::csr::Graph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// G(n, m)-style Erdős–Rényi graph: `m` distinct undirected edges sampled
/// uniformly at random.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max_edges, "requested {m} edges but only {max_edges} possible");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    while edges.len() < m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            edges.push(key);
        }
    }
    Graph::from_edges(n, &edges)
}

/// Stochastic block model over explicit class labels: every vertex draws
/// `degree/2` neighbours, each intra-class with probability `homophily`,
/// otherwise uniform over all vertices.
///
/// This is the workhorse behind the dataset replicas: it plants exactly the
/// label-correlated structure a GCN learns from, at any average degree, in
/// `O(n · degree)` time.
pub fn planted_partition(
    labels: &[u32],
    num_classes: usize,
    avg_degree: f64,
    homophily: f64,
    seed: u64,
) -> Graph {
    assert!((0.0..=1.0).contains(&homophily), "homophily must be in [0,1]");
    assert!(num_classes >= 1, "need at least one class");
    let n = labels.len();
    if n < 2 {
        return Graph::from_edges(n, &[]);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    // Bucket vertices per class for O(1) intra-class sampling.
    let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
    for (v, &c) in labels.iter().enumerate() {
        assert!((c as usize) < num_classes, "label {c} out of range");
        by_class[c as usize].push(v as u32);
    }
    // Sample distinct undirected edges until the exact target count is hit,
    // so the replica's average degree matches the spec instead of drifting
    // down with duplicate/reciprocal collisions.
    let target = ((n as f64 * avg_degree / 2.0).round() as usize).min(n * (n - 1) / 2);
    let mut seen = std::collections::HashSet::with_capacity(target * 2);
    let mut edges = Vec::with_capacity(target);
    let mut attempts = 0usize;
    let max_attempts = target.saturating_mul(20).max(1024);
    while edges.len() < target && attempts < max_attempts {
        attempts += 1;
        let v = rng.gen_range(0..n) as u32;
        let class = labels[v as usize] as usize;
        // When a class bucket saturates (dense replicas with small classes),
        // the intra draw degenerates to uniform, gracefully trading
        // homophily for the target degree.
        let u = if rng.gen_bool(homophily) && by_class[class].len() > 1 {
            by_class[class][rng.gen_range(0..by_class[class].len())]
        } else {
            rng.gen_range(0..n) as u32
        };
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            edges.push(key);
        }
    }
    // Saturated classes can make homophilous draws collide forever; top up
    // with uniform edges so the degree target is still met.
    while edges.len() < target {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            edges.push(key);
        }
    }
    Graph::from_edges(n, &edges)
}

/// Classic two-parameter stochastic block model with `k` equal blocks:
/// intra-block edge probability `p_in`, inter-block `p_out`.
/// Only practical for small `n` (used by tests and the quickstart example).
pub fn sbm(n: usize, k: usize, p_in: f64, p_out: f64, seed: u64) -> (Graph, Vec<u32>) {
    assert!(k >= 1 && n >= k, "invalid block structure");
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if labels[u] == labels[v] { p_in } else { p_out };
            if rng.gen_bool(p) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    (Graph::from_edges(n, &edges), labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_exact_edge_count() {
        let g = erdos_renyi(100, 250, 1);
        assert_eq!(g.num_edges(), 250);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        assert_eq!(erdos_renyi(50, 100, 9), erdos_renyi(50, 100, 9));
        assert_ne!(erdos_renyi(50, 100, 9), erdos_renyi(50, 100, 10));
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn erdos_renyi_rejects_too_many_edges() {
        let _ = erdos_renyi(3, 10, 0);
    }

    #[test]
    fn planted_partition_hits_target_degree() {
        let labels: Vec<u32> = (0..2000).map(|v| (v % 4) as u32).collect();
        let g = planted_partition(&labels, 4, 20.0, 0.8, 5);
        assert!(g.validate().is_ok());
        let d = g.avg_degree();
        assert!((d - 20.0).abs() < 3.0, "avg degree {d} too far from 20");
    }

    #[test]
    fn planted_partition_is_homophilous() {
        let labels: Vec<u32> = (0..1000).map(|v| (v % 5) as u32).collect();
        let g = planted_partition(&labels, 5, 16.0, 0.8, 7);
        let mut same = 0usize;
        let mut total = 0usize;
        for (u, v) in g.edges() {
            total += 1;
            if labels[u as usize] == labels[v as usize] {
                same += 1;
            }
        }
        let h = same as f64 / total as f64;
        assert!(h > 0.6, "homophily {h} too low");
    }

    #[test]
    fn sbm_labels_match_blocks() {
        let (g, labels) = sbm(60, 3, 0.5, 0.02, 4);
        assert!(g.validate().is_ok());
        assert_eq!(labels.iter().filter(|&&c| c == 0).count(), 20);
    }
}
