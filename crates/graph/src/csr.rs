//! Undirected graph in compressed-sparse-row form.
//!
//! EC-Graph's Graph Engine stores each worker's subgraph as adjacency lists;
//! this is the global structure those subgraphs are sliced from. Edges are
//! stored symmetrically (both `(u,v)` and `(v,u)` appear), matching the
//! undirected GCN setting of the paper's evaluation.

/// An undirected graph with vertices `0..n` in CSR form.
///
/// ```
/// use ec_graph_data::Graph;
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0)]);
/// assert_eq!(g.degree(2), 2);
/// assert!(g.has_edge(0, 1) && !g.has_edge(0, 3));
/// ```
///
/// Invariants:
/// * `offsets.len() == n + 1`, non-decreasing, `offsets[0] == 0`;
/// * neighbour lists are sorted, deduplicated and contain no self-loops;
/// * the adjacency is symmetric: `v ∈ N(u) ⇔ u ∈ N(v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an undirected edge list.
    ///
    /// Each `(u, v)` pair is inserted in both directions; duplicates and
    /// self-loops are dropped.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of bounds");
            if u == v {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Self { offsets, neighbors }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of stored directed arcs (twice [`Self::num_edges`]).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Average degree over all vertices.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Sorted neighbour list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// True when `u` and `v` are adjacent (binary search).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterator over every undirected edge `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u).iter().filter(move |&&v| (u as u32) < v).map(move |&v| (u as u32, v))
        })
    }

    /// Checks structural invariants; used by property tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        for v in 0..n {
            let nb = self.neighbors(v);
            for w in nb.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbours of {v} not strictly sorted"));
                }
            }
            for &u in nb {
                if u as usize >= n {
                    return Err(format!("neighbour {u} of {v} out of bounds"));
                }
                if u as usize == v {
                    return Err(format!("self-loop at {v}"));
                }
                if !self.has_edge(u as usize, v) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn counts_are_correct() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle_plus_tail();
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn duplicates_and_self_loops_dropped() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle_plus_tail();
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn avg_degree_counts_both_endpoints() {
        assert_eq!(triangle_plus_tail().avg_degree(), 2.0);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(triangle_plus_tail().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_bad_endpoint() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.validate().is_ok());
    }
}
