//! The baseline systems of the paper's evaluation (Section V-A).
//!
//! | paper system | module | strategy reproduced |
//! |---|---|---|
//! | DGL | [`local`] | single-machine full-batch, `XW`-then-aggregate |
//! | PyG | [`local`] | single-machine full-batch, per-edge gather/scatter |
//! | DistGNN | [`crate::config::FpMode::Delayed`] | delayed partial aggregation on the distributed engine |
//! | DistDGL | [`distdgl`] | graph-centered online-sampling mini-batch |
//! | AliGraph-FG / AGL | [`ml_centered`] | ML-centered L-hop caching with redundant computation |
//! | EC-Graph-S | [`crate::sampling::sample_layer_graphs`] + the engine | offline per-layer sampling + compression |
//!
//! Every comparator is a **stage program** over the same [`crate::exec`]
//! cluster the EC-Graph engine runs on, built from the same
//! [`TrainingConfig`]: an epoch is charge-pull → barrier → a pure per-worker
//! compute block on the superstep driver → ordered replay of the block's
//! sends and gradient pushes → barrier. Timing, straggler scaling, the
//! clock, pool fan-out, pull envelopes and barrier placement thus have one
//! definition and systems differ only in *what they send*; early stopping,
//! `eval_every` and crash rollback come from
//! [`crate::trainer::run_epoch_loop`], evaluation from
//! [`crate::infer::ModelWeights::forward`], vertex ownership from
//! [`ec_partition::hash::HashPartitioner`].

pub mod distdgl;
pub mod local;
pub mod ml_centered;

use crate::config::{ModelKind, TrainingConfig};
use crate::engine::{EpochStats, Evaluation};
use crate::exec::{Cluster, ClusterSnapshot};
use crate::infer::ModelWeights;
use crate::report::RunResult;
use crate::trainer::{run_to_convergence, EpochSystem};
use ec_comm::ps::CheckpointError;
use ec_graph_data::AttributedGraph;
use ec_tensor::CsrMatrix;
use ec_trace::TelemetryReport;
use std::sync::Arc;

/// A comparator system as the epoch loop sees it: a cluster plus the stage
/// program one epoch runs on it. `program(cluster, epoch)` returns the
/// epoch's training loss; everything it needs beyond the cluster (closures,
/// sampled blocks) it captures, and a replayed epoch must depend on nothing
/// but the cluster's parameters and the epoch index.
struct Comparator<'a, P> {
    cluster: Cluster,
    program: P,
    data: &'a AttributedGraph,
    /// The full normalized adjacency (evaluation only).
    adj: Arc<CsrMatrix>,
    config: &'a TrainingConfig,
}

impl<P: FnMut(&mut Cluster, usize) -> f32> EpochSystem for Comparator<'_, P> {
    type Snapshot = ClusterSnapshot;

    fn epochs_run(&self) -> usize {
        self.cluster.epoch
    }

    fn run_epoch(&mut self) -> EpochStats {
        let epoch = self.cluster.begin_epoch();
        let loss = (self.program)(&mut self.cluster, epoch);
        let (totals, traffic) = self.cluster.end_epoch();
        EpochStats {
            epoch,
            loss,
            compute_s: totals.compute_s,
            comm_s: totals.comm_s,
            traffic,
            degraded: 0,
            degraded_drop: 0,
            degraded_corrupt: 0,
        }
    }

    fn evaluate(&self) -> Evaluation {
        let model = ModelWeights::from_parts(ModelKind::Gcn, self.cluster.ps.weights());
        let adj = Arc::clone(&self.adj);
        let adjs = vec![adj; self.config.num_layers()];
        // Evaluation runs outside the worker fan-out, so the kernels may
        // take the whole machine budget (`0` = auto), as in the engine.
        let threads = self.config.compute.kernel_threads;
        Evaluation::of(&model.forward(&adjs, &self.data.features, threads), self.data)
    }

    fn snapshot(&self) -> ClusterSnapshot {
        self.cluster.snapshot()
    }

    fn recover(&mut self, epoch: usize, snapshot: &ClusterSnapshot) -> Result<(), CheckpointError> {
        self.cluster.steps.telemetry.note_crash(epoch as u32);
        self.cluster.restore(snapshot)
    }

    fn take_telemetry(&self) -> Option<TelemetryReport> {
        self.cluster.take_telemetry()
    }
}

/// Trains the comparator `program` on `cluster` to convergence under
/// `config` and reports it as `system`. `adj` is the full GCN-normalized
/// adjacency of `data`, used for evaluation.
fn train_comparator(
    cluster: Cluster,
    program: impl FnMut(&mut Cluster, usize) -> f32,
    data: &AttributedGraph,
    adj: Arc<CsrMatrix>,
    config: &TrainingConfig,
    system: &str,
    preprocessing_s: f64,
) -> RunResult {
    assert_eq!(config.model, ModelKind::Gcn, "the comparator systems train GCN");
    let mut comparator = Comparator { cluster, program, data, adj, config };
    run_to_convergence(&mut comparator, &data.name, config, system, preprocessing_s)
}
