//! # `ec-partition` — graph partitioners for the EC-Graph reproduction
//!
//! EC-Graph's Graph Engine divides the input graph into one part per worker
//! (Section III-A). The paper ships *Hash* and *METIS* partitioning and
//! mentions streaming partitioners as future work; this crate provides
//! both families plus the quality metrics the evaluation reasons about:
//!
//! * [`hash`] — the paper's default equal-vertex Hash partitioner (used for
//!   Table IV / Fig. 9 because its partition time is "almost negligible"),
//! * [`metis`] — a from-scratch multilevel partitioner (heavy-edge-matching
//!   coarsening, greedy growing, boundary refinement) standing in for METIS
//!   in Fig. 11,
//! * [`ldg`] — the streaming Linear Deterministic Greedy partitioner the
//!   paper cites as future work,
//! * [`metrics`] — edge-cut, balance and the remote-neighbour statistics
//!   (`ḡ_rmt`) that drive EC-Graph's communication cost model.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod hash;
pub mod ldg;
pub mod metis;
pub mod metrics;

use ec_graph_data::Graph;

/// An assignment of every vertex to one of `num_parts` parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    num_parts: usize,
}

impl Partition {
    /// Wraps an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if any entry is `>= num_parts` or `num_parts == 0`.
    pub fn new(assignment: Vec<u32>, num_parts: usize) -> Self {
        assert!(num_parts > 0, "need at least one part");
        for (v, &p) in assignment.iter().enumerate() {
            assert!((p as usize) < num_parts, "vertex {v} assigned to invalid part {p}");
        }
        Self { assignment, num_parts }
    }

    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// The part vertex `v` lives on.
    #[inline]
    pub fn part_of(&self, v: usize) -> usize {
        self.assignment[v] as usize
    }

    /// Raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Members of part `p`, in ascending vertex order.
    pub fn members(&self, p: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q as usize == p)
            .map(|(v, _)| v)
            .collect()
    }

    /// Vertex count per part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }
}

/// Trait implemented by every partitioner in this crate.
pub trait Partitioner {
    /// Splits `g` into `num_parts` parts.
    fn partition(&self, g: &Graph, num_parts: usize) -> Partition;

    /// Short human-readable name (shows up in benchmark output).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_accessors() {
        let p = Partition::new(vec![0, 1, 0, 1], 2);
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.part_of(2), 0);
        assert_eq!(p.members(1), vec![1, 3]);
        assert_eq!(p.part_sizes(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "invalid part")]
    fn partition_rejects_out_of_range() {
        let _ = Partition::new(vec![0, 3], 2);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn partition_rejects_zero_parts() {
        let _ = Partition::new(vec![], 0);
    }
}
