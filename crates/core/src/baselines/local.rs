//! Single-machine full-batch baselines — the paper's DGL and PyG columns.
//!
//! Both train the exact same GCN to the exact same optimum; they differ in
//! how the sparse aggregation is executed, which is the real performance
//! difference between the two toolkits that Table IV surfaces:
//!
//! * **DGL-like** ([`LocalKind::DglLike`]) multiplies `H·W` first and runs
//!   a fused SpMM — DGL's kernel strategy (and EC-Graph's own
//!   "message-aggregating optimization");
//! * **PyG-like** ([`LocalKind::PygLike`]) materializes one message per
//!   edge (gather), then reduces (scatter) — PyG's classic
//!   `message`/`aggregate` path. It is slower and its peak memory grows
//!   with `nnz × d`, which is why PyG shows `-` (out of memory) on Reddit
//!   in the paper's Table IV. The same cutoff is modelled here.

use super::ml_centered::{full_batch_epoch, Closure};
use super::train_comparator;
use crate::config::TrainingConfig;
use crate::exec::Cluster;
use crate::report::RunResult;
use ec_comm::HostTimer;
use ec_graph_data::{normalize, AttributedGraph};
use ec_tensor::{parallel, CsrMatrix, Matrix};
use std::sync::Arc;

/// Which single-machine toolkit to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalKind {
    /// DGL-style fused SpMM aggregation.
    DglLike,
    /// PyG-style per-edge gather/scatter with materialized messages.
    PygLike,
}

impl LocalKind {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            LocalKind::DglLike => "dgl-like",
            LocalKind::PygLike => "pyg-like",
        }
    }
}

/// Memory budget in bytes: the paper's small-cluster machines have 32 GB.
const MEMORY_LIMIT: u64 = 32 << 30;

/// Estimated peak transient memory of one training epoch, in bytes.
pub fn estimated_peak_bytes(kind: LocalKind, adj: &CsrMatrix, dims: &[usize]) -> u64 {
    let n = adj.rows() as u64;
    let d_max = dims.iter().copied().max().unwrap_or(0) as u64;
    let activations = 2 * n * d_max * 4 * (dims.len() as u64 - 1);
    match kind {
        LocalKind::DglLike => activations,
        // PyG materializes one message per edge at the widest layer.
        LocalKind::PygLike => activations + adj.nnz() as u64 * d_max * 4,
    }
}

/// PyG-style aggregation: materialize every edge message, then reduce.
fn edgewise_spmm(adj: &CsrMatrix, x: &Matrix) -> Matrix {
    let d = x.cols();
    // Gather: one message row per stored entry.
    let mut messages = Matrix::zeros(adj.nnz(), d);
    let mut owners = Vec::with_capacity(adj.nnz());
    let mut k = 0usize;
    for r in 0..adj.rows() {
        for (c, w) in adj.row_entries(r) {
            let msg = messages.row_mut(k);
            for (m, &v) in msg.iter_mut().zip(x.row(c)) {
                *m = w * v;
            }
            owners.push(r);
            k += 1;
        }
    }
    // Scatter-reduce.
    let mut out = Matrix::zeros(adj.rows(), d);
    for (k, &r) in owners.iter().enumerate() {
        let row = out.row_mut(r);
        for (o, &m) in row.iter_mut().zip(messages.row(k)) {
            *o += m;
        }
    }
    out
}

/// Trains a full-batch GCN on one machine with `kind`'s aggregation kernel:
/// the ML-centered full-batch pass with one worker whose closure is the
/// whole graph, on a cluster whose worker and parameter store share a node,
/// so nothing is charged. Of `config`, the model shape, optimizer, seed,
/// epoch budget, patience and thread budget apply; `num_workers`,
/// `network` and the compression modes do not. The PyG-like
/// per-edge gather/scatter path stays sequential whatever
/// `compute.kernel_threads` says — the scatter order *is* the toolkit
/// behavior being modelled. Returns `Err` when the estimated peak memory
/// exceeds a 32 GB machine (the paper's `-` cells).
pub fn train_local(
    data: Arc<AttributedGraph>,
    config: &TrainingConfig,
    kind: LocalKind,
) -> Result<RunResult, String> {
    let base = TrainingConfig { num_workers: 1, ..config.clone() };
    let pre_start = HostTimer::start();
    let adj = normalize::gcn_normalized_adjacency(&data.graph);
    let peak = estimated_peak_bytes(kind, &adj, &base.dims);
    if peak > MEMORY_LIMIT {
        return Err(format!(
            "{}: estimated peak {peak} bytes exceeds the {MEMORY_LIMIT} byte budget",
            kind.label()
        ));
    }
    let cluster = Cluster::new(&base);
    let adj = Arc::new(adj);
    let whole_graph = [Closure {
        adj: Arc::clone(&adj),
        features: data.features.clone(),
        labels: data.labels.clone(),
        train_local: data.split.train.clone(),
    }];
    let preprocessing_s = pre_start.elapsed_s();

    let aggregate: fn(&CsrMatrix, &Matrix, usize) -> Matrix = match kind {
        LocalKind::DglLike => parallel::spmm,
        LocalKind::PygLike => |adj, m, _threads| edgewise_spmm(adj, m),
    };
    let program =
        |cluster: &mut Cluster, _epoch: usize| full_batch_epoch(cluster, &whole_graph, aggregate);
    Ok(train_comparator(cluster, program, &data, adj, &base, kind.label(), preprocessing_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_comm::ps::AdamParams;
    use ec_graph_data::DatasetSpec;

    fn data() -> Arc<AttributedGraph> {
        Arc::new(DatasetSpec::cora().instantiate_with(150, 16, 4))
    }

    fn base(data: &AttributedGraph, max_epochs: usize) -> TrainingConfig {
        TrainingConfig {
            adam: AdamParams { lr: 0.02, ..Default::default() },
            max_epochs,
            ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
        }
    }

    #[test]
    fn dgl_like_learns() {
        let d = data();
        let r = train_local(Arc::clone(&d), &base(&d, 60), LocalKind::DglLike).unwrap();
        assert!(r.best_val_acc > 0.6, "val {}", r.best_val_acc);
    }

    #[test]
    fn pyg_like_reaches_the_same_optimum_as_dgl_like() {
        // Same math, same seed → identical trajectories.
        let d = data();
        let cfg = base(&d, 10);
        let a = train_local(Arc::clone(&d), &cfg, LocalKind::DglLike).unwrap();
        let b = train_local(Arc::clone(&d), &cfg, LocalKind::PygLike).unwrap();
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert!((ea.loss - eb.loss).abs() < 1e-4, "losses diverge: {} vs {}", ea.loss, eb.loss);
        }
    }

    #[test]
    fn edgewise_matches_spmm() {
        let d = data();
        let adj = normalize::gcn_normalized_adjacency(&d.graph);
        let x = Matrix::from_fn(d.num_vertices(), 3, |r, c| ((r + c) as f32 * 0.17).sin());
        let a = adj.spmm(&x);
        let b = edgewise_spmm(&adj, &x);
        assert!(a.approx_eq(&b, 1e-4));
    }

    #[test]
    fn pyg_like_needs_more_memory() {
        let d = data();
        let adj = normalize::gcn_normalized_adjacency(&d.graph);
        let dims = vec![d.feature_dim(), 16, d.num_classes];
        assert!(
            estimated_peak_bytes(LocalKind::PygLike, &adj, &dims)
                > estimated_peak_bytes(LocalKind::DglLike, &adj, &dims)
        );
    }

    #[test]
    fn memory_budget_enforced() {
        let d = data();
        // A hidden width no 32 GB machine holds; the check runs before any
        // layer is allocated.
        let cfg =
            TrainingConfig { dims: vec![d.feature_dim(), 1 << 27, d.num_classes], ..base(&d, 60) };
        let err = train_local(Arc::clone(&d), &cfg, LocalKind::PygLike).unwrap_err();
        assert!(err.contains("exceeds"), "unexpected error: {err}");
    }
}
