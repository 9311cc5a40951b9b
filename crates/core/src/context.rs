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
//! fan-out-sampled adjacency per layer. Training also gives the top layer
//! one plan per direction ([`build_training_contexts`]): the masked loss
//! reads `Z^L` only at training vertices and `G^L` is zero everywhere else,
//! so each pass there ships only the rows that reach the loss.

use ec_partition::Partition;
use ec_tensor::{parallel, CsrMatrix, Matrix};
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

    /// [`Self::aggregate`] into `out`, a buffer reused from call to call.
    pub fn aggregate_into(
        &self,
        local: &Matrix,
        remote: &Matrix,
        threads: usize,
        out: &mut Matrix,
    ) {
        parallel::spmm_split_into(&self.adj_local, local, remote, &self.remote_row, threads, out);
    }
}

/// Per worker, the ascending local rows that the plans of layer `l` in
/// direction `dir` read of its matrices: the local columns of its own plan
/// and every requester's gather rows from it. A matrix that only this
/// exchange and aggregation read needs no other row.
pub(crate) fn rows_read(contexts: &[WorkerContext], dir: Direction, l: usize) -> Vec<Vec<usize>> {
    let mut read: Vec<Vec<bool>> = contexts.iter().map(|c| vec![false; c.num_local()]).collect();
    for ctx in contexts {
        let (topo, n_local) = (ctx.plan(dir, l), ctx.num_local());
        for r in 0..n_local {
            for (c, _) in topo.adj_local.row_entries(r).filter(|&(c, _)| c < n_local) {
                read[ctx.worker_id][c] = true;
            }
        }
        for (owner, rows) in topo.gather_rows.iter().enumerate() {
            for &r in rows {
                read[owner][r] = true;
            }
        }
    }
    read.iter().map(|r| (0..r.len()).filter(|&i| r[i]).collect()).collect()
}

/// Which pass an exchange serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `H^{l-1}` rows for computing layer `l`.
    Forward,
    /// `G^l` rows for back-propagating through layer `l`.
    Backward,
}

/// Everything one worker knows about the partitioned graph.
#[derive(Clone, Debug)]
pub struct WorkerContext {
    /// This worker's id.
    pub worker_id: usize,
    /// Sorted global ids of the local vertices.
    pub local_vertices: Vec<usize>,
    /// Per-GNN-layer forward plan: `layers[l-1]` drives the aggregation
    /// that produces layer `l`.
    pub layers: Vec<Arc<LayerTopology>>,
    /// Per-GNN-layer backward plan: `backward[l-1]` aggregates `G^l`. The
    /// same `Arc` as `layers[l-1]` wherever both passes read the same rows.
    pub backward: Vec<Arc<LayerTopology>>,
}

impl WorkerContext {
    /// Number of local vertices.
    pub fn num_local(&self) -> usize {
        self.local_vertices.len()
    }

    /// The plan that aggregates layer `l` in direction `dir`.
    pub fn plan(&self, dir: Direction, l: usize) -> &Arc<LayerTopology> {
        match dir {
            Direction::Forward => &self.layers[l - 1],
            Direction::Backward => &self.backward[l - 1],
        }
    }
}

/// Where every vertex lives: its owner's local ids, in order, and its row
/// in its owner's local matrices.
struct Placement<'a> {
    partition: &'a Partition,
    locals: Vec<Vec<usize>>,
    local_row: Vec<usize>,
}

impl<'a> Placement<'a> {
    fn new(partition: &'a Partition) -> Self {
        let mut locals: Vec<Vec<usize>> = vec![Vec::new(); partition.num_parts()];
        let mut local_row = vec![0usize; partition.num_vertices()];
        for v in 0..partition.num_vertices() {
            let part = &mut locals[partition.part_of(v)];
            local_row[v] = part.len();
            part.push(v);
        }
        Self { partition, locals, local_row }
    }

    /// The topology over `adj_local` (columns `[locals | remotes]`) whose
    /// remote column `c` is the sorted `remote_deps[c]`: the owners' id
    /// lists, gather plans and owner-major blocks.
    fn topology(&self, adj_local: CsrMatrix, remote_deps: Vec<usize>) -> LayerTopology {
        let num_parts = self.partition.num_parts();
        let mut deps_by_owner: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
        let mut gather_rows: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
        for &v in &remote_deps {
            let owner = self.partition.part_of(v);
            deps_by_owner[owner].push(v);
            gather_rows[owner].push(self.local_row[v]);
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
                let slot = &mut next[self.partition.part_of(v)];
                *slot += 1;
                (*slot - 1) as u32
            })
            .collect();
        LayerTopology { adj_local, remote_deps, deps_by_owner, gather_rows, link_start, remote_row }
    }

    /// Worker `w`'s full 1-hop topology over the global `adj`, in one pass
    /// over its rows: since locals and remotes are each numbered in
    /// global-id order, a row renumbers into its locals then its remotes
    /// with no sort; a vertex-indexed stamp finds the remote columns, which
    /// hold their global ids until the sorted remote list numbers them.
    /// `col_of` and `stamp` are `n`-long scratch shared by all workers;
    /// `stamp` must not hold `w + 1` on entry.
    fn full(
        &self,
        adj: &CsrMatrix,
        w: usize,
        col_of: &mut [u32],
        stamp: &mut [u32],
    ) -> LayerTopology {
        let (local, part) = (&self.locals[w], self.partition.assignment());
        let n_local = local.len();
        let mut remote_deps = Vec::new();
        // Row `r`'s remote entries are `remote_start[r]..indptr[r + 1]`.
        let mut indptr = Vec::with_capacity(n_local + 1);
        let mut remote_start = Vec::with_capacity(n_local);
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        let mut row_remotes: Vec<(u32, f32)> = Vec::new();
        indptr.push(0);
        for &v in local {
            for (c, x) in adj.row_entries(v) {
                if part[c] as usize == w {
                    indices.push(self.local_row[c] as u32);
                    values.push(x);
                } else {
                    row_remotes.push((c as u32, x));
                    if stamp[c] != w as u32 + 1 {
                        stamp[c] = w as u32 + 1;
                        remote_deps.push(c);
                    }
                }
            }
            remote_start.push(indices.len());
            for (c, x) in row_remotes.drain(..) {
                indices.push(c);
                values.push(x);
            }
            indptr.push(indices.len());
        }
        remote_deps.sort_unstable();
        for (i, &v) in remote_deps.iter().enumerate() {
            col_of[v] = (n_local + i) as u32;
        }
        for (&start, &end) in remote_start.iter().zip(&indptr[1..]) {
            for c in &mut indices[start..end] {
                *c = col_of[*c as usize];
            }
        }
        let cols = n_local + remote_deps.len();
        let adj_local = CsrMatrix::new(n_local, cols, indptr, indices, values);
        self.topology(adj_local, remote_deps)
    }

    /// The entries of `full` in rows `keep_row` accepts and columns
    /// `keep_col` accepts (both in `adj_local`'s numbering), its remote
    /// columns renumbered to the ones still read — one pass over its
    /// entries, which keep their order.
    fn retain(
        &self,
        full: &LayerTopology,
        keep_row: impl Fn(usize) -> bool,
        keep_col: impl Fn(usize) -> bool,
    ) -> LayerTopology {
        let adj = &full.adj_local;
        let n_local = adj.rows();
        // The new column of each old remote column still read (`0` marks
        // one read until the kept ones are numbered).
        let mut kept_cols = vec![u32::MAX; full.remote_deps.len()];
        let mut indptr = Vec::with_capacity(n_local + 1);
        let (mut indices, mut values) = (Vec::with_capacity(adj.nnz()), Vec::new());
        indptr.push(0);
        for r in 0..n_local {
            for (c, x) in adj.row_entries(r).filter(|&(c, _)| keep_row(r) && keep_col(c)) {
                indices.push(c as u32);
                values.push(x);
                if c >= n_local {
                    kept_cols[c - n_local] = 0;
                }
            }
            indptr.push(indices.len());
        }
        let mut remote_deps = Vec::new();
        for (slot, &v) in kept_cols.iter_mut().zip(&full.remote_deps) {
            if *slot == 0 {
                *slot = (n_local + remote_deps.len()) as u32;
                remote_deps.push(v);
            }
        }
        for c in indices.iter_mut().filter(|c| **c as usize >= n_local) {
            *c = kept_cols[*c as usize - n_local];
        }
        let cols = n_local + remote_deps.len();
        let adj_local = CsrMatrix::new(n_local, cols, indptr, indices, values);
        self.topology(adj_local, remote_deps)
    }
}

/// One full [`LayerTopology`] per worker for a single global adjacency.
fn layer_topologies(adj: &CsrMatrix, placement: &Placement) -> Vec<Arc<LayerTopology>> {
    let n = placement.partition.num_vertices();
    let (mut col_of, mut stamp) = (vec![0u32; n], vec![0u32; n]);
    (0..placement.partition.num_parts())
        .map(|w| Arc::new(placement.full(adj, w, &mut col_of, &mut stamp)))
        .collect()
}

/// Builds the full worker contexts for per-layer adjacencies, with every
/// vertex in the loss: both passes of every layer read every remote 1-hop
/// neighbour.
///
/// `adjs` has one (global, `n × n`) normalized adjacency per GNN layer;
/// pass the same `Arc` `L` times for the standard full-batch setup (the
/// topology is computed once per distinct matrix and shared).
pub fn build_worker_contexts(adjs: &[Arc<CsrMatrix>], partition: &Partition) -> Vec<WorkerContext> {
    contexts(adjs, &Placement::new(partition), None)
}

/// [`build_worker_contexts`] for a loss that reads only the rows of
/// `loss_vertices`: the top layer `L` gets its own plan per direction, and
/// every other layer keeps the shared full topology.
///
/// * **Forward**: `Â` with every row outside the loss emptied. A worker
///   aggregates `Z^L` only at its loss rows and receives `H^{L-1}` only for
///   the remote neighbours of those rows; its other rows of `Z^L` carry no
///   neighbour term, which nothing reads.
/// * **Backward**: `Â` with every column outside the loss dropped. `G^L` is
///   exactly zero outside the loss rows, so `Â·G^L` skips only zero terms,
///   and a worker receives `G^L` only for the remote loss vertices next to
///   its own.
pub fn build_training_contexts(
    adjs: &[Arc<CsrMatrix>],
    partition: &Partition,
    loss_vertices: &[usize],
) -> Vec<WorkerContext> {
    let mut in_loss = vec![false; partition.num_vertices()];
    for &v in loss_vertices {
        in_loss[v] = true;
    }
    contexts(adjs, &Placement::new(partition), Some(&in_loss))
}

fn contexts(
    adjs: &[Arc<CsrMatrix>],
    placement: &Placement,
    in_loss: Option<&[bool]>,
) -> Vec<WorkerContext> {
    assert!(!adjs.is_empty(), "need at least one layer adjacency");
    // Deduplicate identical Arcs so shared topologies are built once.
    let mut built: Vec<(usize, Vec<Arc<LayerTopology>>)> = Vec::new(); // (ptr, per-worker)
    let mut per_layer: Vec<Vec<Arc<LayerTopology>>> = Vec::new();
    for adj in adjs {
        let key = Arc::as_ptr(adj) as usize;
        if let Some((_, topos)) = built.iter().find(|(k, _)| *k == key) {
            per_layer.push(topos.clone());
        } else {
            let topos = layer_topologies(adj, placement);
            built.push((key, topos.clone()));
            per_layer.push(topos);
        }
    }
    let top = adjs.len() - 1;
    (0..placement.partition.num_parts())
        .map(|w| {
            let local_vertices = placement.locals[w].clone();
            let mut layers: Vec<_> = per_layer.iter().map(|l| Arc::clone(&l[w])).collect();
            let mut backward = layers.clone();
            if let Some(in_loss) = in_loss {
                let full = &per_layer[top][w];
                let (local, remote) = (&local_vertices, &full.remote_deps);
                let col_in_loss: Vec<bool> =
                    local.iter().chain(remote).map(|&v| in_loss[v]).collect();
                let forward = placement.retain(full, |r| in_loss[local[r]], |_| true);
                layers[top] = Arc::new(forward);
                backward[top] = Arc::new(placement.retain(full, |_| true, |c| col_in_loss[c]));
            }
            WorkerContext { worker_id: w, local_vertices, layers, backward }
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

    /// The top layer's plans aggregate what the loss reads: forward, the
    /// global `Â·H` on every loss row; backward, the global `Â·G` on every
    /// row when `G` is zero outside the loss — while the layer below keeps
    /// the full topology in both directions.
    #[test]
    fn training_plans_aggregate_what_the_loss_reads() {
        let g = ec_graph_data::generators::erdos_renyi(90, 240, 5);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
        let p = ec_partition::Partitioner::partition(
            &ec_partition::hash::HashPartitioner::new(2),
            &g,
            3,
        );
        let loss: Vec<usize> = (0..90).step_by(3).collect();
        let h = Matrix::from_fn(90, 4, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.4);
        let g_loss = Matrix::from_fn(90, 4, |r, c| if r % 3 == 0 { h.get(r, c) } else { 0.0 });
        let (ah, ag) = (adj.spmm(&h), adj.spmm(&g_loss));
        let ctxs = build_training_contexts(&[Arc::clone(&adj), Arc::clone(&adj)], &p, &loss);
        for ctx in &ctxs {
            let (fwd, bwd) = (ctx.plan(Direction::Forward, 2), ctx.plan(Direction::Backward, 2));
            assert!(Arc::ptr_eq(ctx.plan(Direction::Forward, 1), ctx.plan(Direction::Backward, 1)));
            assert!(fwd.remote_deps.len() < ctx.layers[0].remote_deps.len());
            assert!(bwd.remote_deps.iter().all(|v| v % 3 == 0), "backward ships loss rows");
            let local = h.gather_rows(&ctx.local_vertices);
            let out = fwd.aggregate(&local, &fwd.remote_operand(&h), 1);
            let (rows, vertices): (Vec<usize>, Vec<usize>) =
                ctx.local_vertices.iter().enumerate().filter(|(_, v)| *v % 3 == 0).unzip();
            assert!(out.gather_rows(&rows).approx_eq(&ah.gather_rows(&vertices), 1e-6), "forward");
            let local = g_loss.gather_rows(&ctx.local_vertices);
            let out = bwd.aggregate(&local, &bwd.remote_operand(&g_loss), 1);
            assert!(out.approx_eq(&ag.gather_rows(&ctx.local_vertices), 1e-6), "backward");
        }
    }

    /// `rows_read` names every row an aggregate reads: with every other row
    /// of each owner's matrix zeroed, before its links gather from it and
    /// in its own operand, every worker's aggregate of either plan is
    /// bit-identical to the full one — and the top layer's plans do leave
    /// rows out.
    #[test]
    fn an_aggregate_reads_only_the_rows_rows_read_names() {
        let g = ec_graph_data::generators::erdos_renyi(90, 240, 5);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
        let p = ec_partition::Partitioner::partition(
            &ec_partition::hash::HashPartitioner::new(2),
            &g,
            3,
        );
        let loss: Vec<usize> = (0..90).step_by(3).collect();
        let ctxs = build_training_contexts(&[Arc::clone(&adj), Arc::clone(&adj)], &p, &loss);
        let h = Matrix::from_fn(90, 4, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.4);
        let full: Vec<Matrix> = ctxs.iter().map(|c| h.gather_rows(&c.local_vertices)).collect();
        for dir in [Direction::Forward, Direction::Backward] {
            let reads = rows_read(&ctxs, dir, 2);
            let kept: Vec<Matrix> = full
                .iter()
                .zip(&reads)
                .map(|(m, rows)| {
                    let mut kept = m.clone();
                    for r in (0..m.rows()).filter(|r| !rows.contains(r)) {
                        kept.row_mut(r).fill(0.0);
                    }
                    kept
                })
                .collect();
            for (w, ctx) in ctxs.iter().enumerate() {
                let topo = ctx.plan(dir, 2);
                let aggregate = |mats: &[Matrix]| {
                    let remote = (0..ctxs.len()).map(|j| mats[j].gather_rows(&topo.gather_rows[j]));
                    let remote = remote.reduce(|a, b| a.vstack(&b)).unwrap();
                    topo.aggregate(&mats[w], &remote, 1)
                };
                assert_eq!(aggregate(&kept), aggregate(&full), "{dir:?} worker {w}");
            }
            let left_out: usize =
                ctxs.iter().zip(&reads).map(|(c, r)| c.num_local() - r.len()).sum();
            assert!(left_out > 0, "{dir:?}: the top layer's plans read every row");
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
