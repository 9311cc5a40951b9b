//! The Graph Engine's per-worker view of the partitioned graph.
//!
//! After partitioning, each worker holds (Section III-A):
//! * its local vertices (features, labels, adjacency rows), and
//! * the identity of every *remote 1-hop neighbour* those rows reference —
//!   the set the 1-hop NAC (Neighbor Access Controller) fetches each layer.
//!
//! Locally, vertices are renumbered into `[0, n_local)` for local vertices
//! followed by `[n_local, n_local + n_remote)` for the cached remote
//! dependencies, so a layer's aggregation is a single SpMM over the
//! split operand `[H_local ; H_remote]` (Alg. 1 line 7's `concatenate`,
//! which `parallel::spmm_split` reads without materializing).
//!
//! The remote columns are numbered in `remote_deps` order, but the remote
//! operand `H_remote` is stored *owner-major*: the rows one owner ships sit
//! together, so a reply is decoded where the aggregation reads it. The
//! aggregation finds remote column `c` at row `remote_row[c]`, which keeps
//! every SpMM row's terms — and therefore its bits — in CSR order.
//!
//! Topology is per layer: full-batch EC-Graph uses one topology for every
//! layer, while the sampling mode (EC-Graph-S) trains on a different
//! fan-out-sampled adjacency per layer.

use ec_partition::Partition;
use ec_tensor::{parallel, CsrMatrix, Matrix};
use std::collections::HashMap;
use std::sync::Arc;

/// One layer's local adjacency slice and remote dependency sets.
#[derive(Clone, Debug)]
pub struct LayerTopology {
    /// Local rows of the (normalized) adjacency, columns renumbered to
    /// `[locals | remotes]`.
    pub adj_local: CsrMatrix,
    /// Sorted global ids of the remote vertices this worker must fetch;
    /// remote column `c` of `adj_local` is `remote_deps[c]`.
    pub remote_deps: Vec<usize>,
    /// `remote_deps` grouped by owning worker (entry `w` lists the global
    /// ids owned by worker `w`, sorted; the self entry is empty).
    pub deps_by_owner: Vec<Vec<usize>>,
    /// Responder-side gather plan of each link: `gather_rows[w][k]` is the
    /// row of `deps_by_owner[w][k]` in owner `w`'s local matrices.
    pub gather_rows: Vec<Vec<usize>>,
    /// The remote operand's owner-major blocks: `deps_by_owner[w]` occupies
    /// rows `link_start[w]..link_start[w + 1]`, in that order (`W + 1`
    /// entries, from 0 to `remote_deps.len()`).
    pub link_start: Vec<usize>,
    /// Row of the remote operand that holds remote column `c`.
    pub remote_row: Vec<u32>,
}

impl LayerTopology {
    /// The remote operand this worker holds of a global `h`: the rows of its
    /// remote dependencies, owner-major.
    pub fn remote_operand(&self, h: &Matrix) -> Matrix {
        h.gather_rows(&self.deps_by_owner.concat())
    }

    /// This worker's rows of `Â·[local ; remote]`, `remote` owner-major.
    pub fn aggregate(&self, local: &Matrix, remote: &Matrix, threads: usize) -> Matrix {
        parallel::spmm_split(&self.adj_local, local, remote, &self.remote_row, threads)
    }
}

/// Everything one worker knows about the partitioned graph.
#[derive(Clone, Debug)]
pub struct WorkerContext {
    /// This worker's id.
    pub worker_id: usize,
    /// Sorted global ids of the local vertices.
    pub local_vertices: Vec<usize>,
    /// Per-GNN-layer topology: `layers[l-1]` drives the aggregation that
    /// produces layer `l`.
    pub layers: Vec<Arc<LayerTopology>>,
}

impl WorkerContext {
    /// Number of local vertices.
    pub fn num_local(&self) -> usize {
        self.local_vertices.len()
    }
}

/// Builds one [`LayerTopology`] per worker for a single global adjacency.
pub fn build_layer_topologies(adj: &CsrMatrix, partition: &Partition) -> Vec<Arc<LayerTopology>> {
    let num_parts = partition.num_parts();
    let mut locals: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
    // Row of every vertex in its owner's local matrices.
    let mut local_row = vec![0usize; partition.num_vertices()];
    for v in 0..partition.num_vertices() {
        let part = &mut locals[partition.part_of(v)];
        local_row[v] = part.len();
        part.push(v);
    }
    (0..num_parts)
        .map(|w| {
            let local = &locals[w];
            // Collect remote columns referenced by the local rows.
            let rows = adj.select_rows(local);
            let mut remote_set: std::collections::BTreeSet<usize> =
                std::collections::BTreeSet::new();
            for r in 0..rows.rows() {
                for (c, _) in rows.row_entries(r) {
                    if partition.part_of(c) != w {
                        remote_set.insert(c);
                    }
                }
            }
            let remote_deps: Vec<usize> = remote_set.into_iter().collect();
            let remote_index: HashMap<usize, usize> =
                remote_deps.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            let n_local = local.len();
            let adj_local = rows.remap_columns(
                &|c| {
                    Some(if partition.part_of(c) == w {
                        local_row[c]
                    } else {
                        n_local + remote_index[&c]
                    })
                },
                n_local + remote_deps.len(),
            );
            let mut deps_by_owner: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
            let mut gather_rows: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
            for &v in &remote_deps {
                let owner = partition.part_of(v);
                deps_by_owner[owner].push(v);
                gather_rows[owner].push(local_row[v]);
            }
            let mut link_start = vec![0usize];
            for deps in &deps_by_owner {
                link_start.push(link_start[link_start.len() - 1] + deps.len());
            }
            // Each owner's block fills in `remote_deps` order.
            let mut next = link_start.clone();
            let remote_row = remote_deps
                .iter()
                .map(|&v| {
                    let slot = &mut next[partition.part_of(v)];
                    *slot += 1;
                    (*slot - 1) as u32
                })
                .collect();
            Arc::new(LayerTopology {
                adj_local,
                remote_deps,
                deps_by_owner,
                gather_rows,
                link_start,
                remote_row,
            })
        })
        .collect()
}

/// Builds the full worker contexts for per-layer adjacencies.
///
/// `adjs` has one (global, `n × n`) normalized adjacency per GNN layer;
/// pass the same `Arc` `L` times for the standard full-batch setup (the
/// topology is computed once per distinct matrix and shared).
pub fn build_worker_contexts(adjs: &[Arc<CsrMatrix>], partition: &Partition) -> Vec<WorkerContext> {
    assert!(!adjs.is_empty(), "need at least one layer adjacency");
    let num_parts = partition.num_parts();

    // Deduplicate identical Arcs so shared topologies are built once.
    let mut built: Vec<(usize, Vec<Arc<LayerTopology>>)> = Vec::new(); // (ptr, per-worker)
    let mut per_layer: Vec<Vec<Arc<LayerTopology>>> = Vec::new();
    for adj in adjs {
        let key = Arc::as_ptr(adj) as usize;
        if let Some((_, topos)) = built.iter().find(|(k, _)| *k == key) {
            per_layer.push(topos.clone());
        } else {
            let topos = build_layer_topologies(adj, partition);
            built.push((key, topos.clone()));
            per_layer.push(topos);
        }
    }

    let mut locals: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
    for v in 0..partition.num_vertices() {
        locals[partition.part_of(v)].push(v);
    }
    (0..num_parts)
        .map(|w| {
            let local_vertices = locals[w].clone();
            let layers = per_layer.iter().map(|l| Arc::clone(&l[w])).collect();
            WorkerContext { worker_id: w, local_vertices, layers }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_graph_data::{normalize, Graph};
    use ec_partition::Partition;
    use ec_tensor::ops;

    /// 4-cycle split in half: each worker needs two remote vertices.
    fn setup() -> (Arc<CsrMatrix>, Partition) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        (adj, p)
    }

    #[test]
    fn local_and_remote_sets_are_correct() {
        let (adj, p) = setup();
        let ctxs = build_worker_contexts(&[adj], &p);
        assert_eq!(ctxs[0].local_vertices, vec![0, 1]);
        assert_eq!(ctxs[1].local_vertices, vec![2, 3]);
        // Worker 0's locals touch 2 (via 1) and 3 (via 0).
        assert_eq!(ctxs[0].layers[0].remote_deps, vec![2, 3]);
        assert_eq!(ctxs[0].layers[0].deps_by_owner[1], vec![2, 3]);
        assert!(ctxs[0].layers[0].deps_by_owner[0].is_empty());
        // The gather plans name the rows the id lists name, in the owner's
        // local order (sorted, so a row is a binary search).
        for ctx in &ctxs {
            let topo = &ctx.layers[0];
            for (owner, deps) in topo.deps_by_owner.iter().enumerate() {
                let rows: Vec<usize> = deps
                    .iter()
                    .map(|v| ctxs[owner].local_vertices.binary_search(v).unwrap())
                    .collect();
                assert_eq!(topo.gather_rows[owner], rows);
            }
        }
    }

    /// The link blocks tile the remote operand in owner order, and
    /// `remote_row` sends each remote column to its owner's block, at its
    /// place in `deps_by_owner`: on a hash partition of a random graph, where
    /// owners interleave in `remote_deps`, and with an owner that has no
    /// vertex at all.
    #[test]
    fn link_blocks_tile_the_remote_operand_in_owner_order() {
        let g = ec_graph_data::generators::erdos_renyi(60, 150, 3);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
        let hashed = ec_partition::hash::HashPartitioner::new(3);
        let partitions = [
            ec_partition::Partitioner::partition(&hashed, &g, 4),
            Partition::new((0..60).map(|v| [0, 1, 3][v % 3]).collect(), 4),
        ];
        for p in &partitions {
            for ctx in build_worker_contexts(&[Arc::clone(&adj)], p) {
                let topo = &ctx.layers[0];
                let n_remote = topo.remote_deps.len();
                assert_eq!(topo.link_start.len(), p.num_parts() + 1);
                assert_eq!((topo.link_start[0], topo.link_start[p.num_parts()]), (0, n_remote));
                // Owner-major: the blocks listed in owner order are the
                // remote rows in order, each owner's ids in its block.
                let mut by_row: Vec<usize> = Vec::new();
                for (owner, deps) in topo.deps_by_owner.iter().enumerate() {
                    let block = topo.link_start[owner]..topo.link_start[owner + 1];
                    assert_eq!(block.len(), deps.len(), "worker {} owner {owner}", ctx.worker_id);
                    assert_eq!(block.start, by_row.len());
                    by_row.extend(deps);
                }
                // `remote_row` is the permutation from column to owner-major row.
                let mut seen = vec![false; n_remote];
                for (c, &row) in topo.remote_row.iter().enumerate() {
                    assert_eq!(by_row[row as usize], topo.remote_deps[c], "column {c}");
                    assert!(!std::mem::replace(&mut seen[row as usize], true), "row {row} twice");
                }
                assert_eq!(topo.remote_row.len(), n_remote);
            }
        }
    }

    #[test]
    fn distributed_spmm_matches_global() {
        // [H_local ; H_remote] aggregation per worker must reproduce the
        // global Â·H rows exactly.
        let (adj, p) = setup();
        let ctxs = build_worker_contexts(&[Arc::clone(&adj)], &p);
        let h = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let global = adj.spmm(&h);
        for ctx in &ctxs {
            let topo = &ctx.layers[0];
            let h_local = h.gather_rows(&ctx.local_vertices);
            let local_out = topo.aggregate(&h_local, &topo.remote_operand(&h), 1);
            let expected = global.gather_rows(&ctx.local_vertices);
            assert!(
                local_out.approx_eq(&expected, 1e-6),
                "worker {} mismatch: {:?} vs {:?}",
                ctx.worker_id,
                local_out,
                expected
            );
        }
    }

    #[test]
    fn distributed_xw_then_aggregate_matches_global() {
        let (adj, p) = setup();
        let ctxs = build_worker_contexts(&[Arc::clone(&adj)], &p);
        let h = Matrix::from_fn(4, 3, |r, c| ((r + 1) * (c + 1)) as f32 * 0.05);
        let w = Matrix::from_fn(3, 2, |r, c| 0.3 * r as f32 - 0.1 * c as f32);
        let global = adj.spmm(&ops::matmul(&h, &w));
        for ctx in &ctxs {
            let topo = &ctx.layers[0];
            let h_cat =
                h.gather_rows(&ctx.local_vertices).vstack(&h.gather_rows(&topo.remote_deps));
            let local_out = topo.adj_local.spmm(&ops::matmul(&h_cat, &w));
            assert!(local_out.approx_eq(&global.gather_rows(&ctx.local_vertices), 1e-5));
        }
    }

    #[test]
    fn per_layer_topologies_can_differ() {
        let g1 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g2 = Graph::from_edges(4, &[(0, 1)]); // sampled-down layer
        let a1 = Arc::new(normalize::gcn_normalized_adjacency(&g1));
        let a2 = Arc::new(normalize::gcn_normalized_adjacency(&g2));
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        let ctxs = build_worker_contexts(&[a1, a2], &p);
        assert_eq!(ctxs[0].layers.len(), 2);
        assert_eq!(ctxs[0].layers[0].remote_deps, vec![2, 3]);
        assert!(ctxs[0].layers[1].remote_deps.is_empty());
    }

    #[test]
    fn shared_arc_layers_share_topology() {
        let (adj, p) = setup();
        let ctxs = build_worker_contexts(&[Arc::clone(&adj), Arc::clone(&adj)], &p);
        assert!(Arc::ptr_eq(&ctxs[0].layers[0], &ctxs[0].layers[1]));
    }

    #[test]
    fn isolated_worker_has_no_deps() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        let ctxs = build_worker_contexts(&[adj], &p);
        assert!(ctxs[0].layers[0].remote_deps.is_empty());
        assert!(ctxs[1].layers[0].remote_deps.is_empty());
    }
}
