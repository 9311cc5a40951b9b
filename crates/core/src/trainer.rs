//! The epoch loop: trains any system of the evaluation to convergence and
//! emits a [`RunResult`].
//!
//! [`run_epoch_loop`] is the one definition of early stopping, `eval_every`,
//! crash rollback and the [`EpochStats`] → [`EpochRecord`] conversion. The
//! EC-Graph engine and every comparator under [`crate::baselines`] go
//! through it as an [`EpochSystem`].

use crate::config::TrainingConfig;
use crate::engine::{DistributedEngine, EngineSnapshot, EpochStats, Evaluation};
use crate::report::{EpochRecord, RunResult};
use ec_comm::ps::CheckpointError;
use ec_comm::HostTimer;
use ec_graph_data::{normalize, AttributedGraph};
use ec_partition::{Partition, Partitioner};
use ec_tensor::CsrMatrix;
use ec_trace::TelemetryReport;
use std::sync::Arc;

/// What the epoch loop needs from a system it trains.
pub trait EpochSystem {
    /// The complete mutable training state, as captured for crash recovery.
    type Snapshot;
    /// Number of completed epochs.
    fn epochs_run(&self) -> usize;
    /// Runs one training epoch.
    fn run_epoch(&mut self) -> EpochStats;
    /// Evaluates the current model exactly over the full graph.
    fn evaluate(&self) -> Evaluation;
    /// Captures the state a later [`Self::recover`] resumes from.
    fn snapshot(&self) -> Self::Snapshot;
    /// Marks the crash at `epoch` on the telemetry timeline and rolls back
    /// to `snapshot`; replaying from it must be deterministic.
    ///
    /// # Errors
    /// A [`CheckpointError`] when the snapshot does not fit this system.
    fn recover(&mut self, epoch: usize, snapshot: &Self::Snapshot) -> Result<(), CheckpointError>;
    /// Telemetry snapshot for the run report (`None` when recording is off).
    fn take_telemetry(&self) -> Option<TelemetryReport>;
}

impl EpochSystem for DistributedEngine {
    type Snapshot = EngineSnapshot;
    fn epochs_run(&self) -> usize {
        DistributedEngine::epochs_run(self)
    }
    fn run_epoch(&mut self) -> EpochStats {
        DistributedEngine::run_epoch(self)
    }
    fn evaluate(&self) -> Evaluation {
        DistributedEngine::evaluate(self)
    }
    fn snapshot(&self) -> EngineSnapshot {
        DistributedEngine::snapshot(self)
    }
    fn recover(&mut self, epoch: usize, snapshot: &EngineSnapshot) -> Result<(), CheckpointError> {
        self.telemetry_note_crash(epoch);
        self.restore(snapshot)
    }
    fn take_telemetry(&self) -> Option<TelemetryReport> {
        DistributedEngine::take_telemetry(self)
    }
}

/// Trains EC-Graph (or any mode expressible in [`TrainingConfig`]) on
/// `data` partitioned by `partitioner`, using the standard GCN-normalized
/// adjacency for every layer.
///
/// Partitioning time is measured and added to the preprocessing time, as in
/// the paper's Fig. 9 end-to-end accounting.
pub fn train(
    data: Arc<AttributedGraph>,
    partitioner: &dyn Partitioner,
    config: TrainingConfig,
    system: &str,
) -> RunResult {
    let part_start = HostTimer::start();
    let partition = partitioner.partition(&data.graph, config.num_workers);
    let partition_s = part_start.elapsed_s();
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let adjs = vec![Arc::clone(&adj); config.num_layers()];
    train_prepartitioned(data, adjs, partition, config, system, partition_s)
}

/// Trains with explicit per-layer adjacencies and a ready partition;
/// `extra_preprocessing_s` is added to the preprocessing time (partitioning
/// and/or offline sampling performed by the caller).
pub fn train_prepartitioned(
    data: Arc<AttributedGraph>,
    adjs: Vec<Arc<CsrMatrix>>,
    partition: Partition,
    config: TrainingConfig,
    system: &str,
    extra_preprocessing_s: f64,
) -> RunResult {
    let mut engine = DistributedEngine::new(Arc::clone(&data), adjs, partition, config.clone());
    let pre = engine.preprocessing();
    let preprocessing_s = extra_preprocessing_s + pre.build_s + pre.feature_cache_s;
    run_to_convergence(&mut engine, &data.name, &config, system, preprocessing_s)
}

/// Trains `system` under `config`'s epoch budget, patience and fault plan
/// and reports the run under the label `name`.
///
/// # Panics
/// Panics when crash recovery cannot restore its own in-memory snapshot.
#[expect(
    clippy::panic,
    reason = "orchestration boundary: a snapshot that no longer fits its system is a bug, and the loop below reports it as a typed error"
)]
pub fn run_to_convergence<S: EpochSystem>(
    system: &mut S,
    dataset: &str,
    config: &TrainingConfig,
    name: &str,
    preprocessing_s: f64,
) -> RunResult {
    let mut result = RunResult {
        system: name.to_string(),
        dataset: dataset.to_string(),
        num_layers: config.num_layers(),
        num_workers: config.num_workers,
        preprocessing_s,
        ..Default::default()
    };
    if let Err(e) = run_epoch_loop(system, config, &mut result) {
        // An in-memory restore can only fail when the snapshot and system
        // diverged structurally — a bug, not a runtime condition. The loop
        // reports it as a typed error (it sits on the fault-recovery hot
        // path); this orchestration boundary is where aborting is allowed.
        panic!("crash recovery failed: {e}");
    }
    result.telemetry = system.take_telemetry();
    result
}

/// Shared epoch loop with early stopping; appends records to `result`.
///
/// When the configured [`ec_faults::FaultPlan`] schedules worker crashes,
/// the loop also plays the failure-recovery protocol: it keeps an
/// in-memory checkpoint (refreshed every `resilience.checkpoint_every`
/// epochs), and a crash at epoch `E` discards all work since that
/// checkpoint — the discarded epochs' simulated time is charged to
/// [`RunResult::recovery_s`] — before restoring and replaying. Because a
/// restored system replays deterministically, the post-recovery loss curve
/// matches the uninterrupted one.
///
/// # Errors
/// [`CheckpointError::Missing`] when a scheduled crash fires with no
/// checkpoint to roll back to, and any [`CheckpointError`] from
/// [`EpochSystem::recover`] when the snapshot does not match the system —
/// both indicate a caller bug, never a recoverable fault.
pub fn run_epoch_loop<S: EpochSystem>(
    system: &mut S,
    config: &TrainingConfig,
    result: &mut RunResult,
) -> Result<(), CheckpointError> {
    let mut stopping = EarlyStopping::default();

    let mut crash_epochs: Vec<usize> = config.faults.crashes.iter().map(|c| c.epoch).collect();
    crash_epochs.sort_unstable();
    let mut next_crash = 0usize;
    let ckpt_every = config.resilience.checkpoint_every;
    // Only pay for snapshots when they can ever be consumed. A checkpoint
    // is the snapshot and the epoch count it was taken at.
    let mut checkpoint =
        (!crash_epochs.is_empty()).then(|| (system.epochs_run(), system.snapshot()));
    // Records that predate this loop (normally none) survive any rollback.
    let base_records = result.epochs.len();

    while system.epochs_run() < config.max_epochs {
        let t = system.epochs_run();
        if next_crash < crash_epochs.len() && crash_epochs[next_crash] == t {
            // A worker dies during epoch `t`: its in-memory state is gone,
            // so the cluster rolls back to the latest checkpoint. Each
            // scheduled crash fires once (the restarted worker stays up).
            next_crash += 1;
            let Some((ckpt_epoch, ckpt)) = checkpoint.as_ref() else {
                return Err(CheckpointError::Missing("crash recovery checkpoint"));
            };
            let keep = (base_records + ckpt_epoch).min(result.epochs.len());
            result.recovery_s += result.epochs.drain(keep..).map(|e| e.sim_time()).sum::<f64>();
            result.crashes_recovered += 1;
            system.recover(t, ckpt)?;
            // Rebuild the early-stopping tracker from the surviving
            // evaluations so the replay is indistinguishable from a run
            // that never went past the checkpoint.
            stopping = EarlyStopping::default();
            for e in &result.epochs[base_records..] {
                if e.epoch.is_multiple_of(config.eval_every) {
                    stopping.observe(e.val_acc, e.test_acc);
                }
            }
            continue;
        }
        if checkpoint.is_some() && ckpt_every > 0 && t > 0 && t.is_multiple_of(ckpt_every) {
            checkpoint = Some((t, system.snapshot()));
        }

        let stats = system.run_epoch();
        if stats.epoch.is_multiple_of(config.eval_every) {
            let eval = system.evaluate();
            stopping.observe(eval.val, eval.test);
        }
        result.epochs.push(EpochRecord {
            epoch: stats.epoch,
            loss: stats.loss,
            val_acc: stopping.last_val,
            test_acc: stopping.last_test,
            compute_s: stats.compute_s,
            comm_s: stats.comm_s,
            fp_bytes: stats.traffic.fp_bytes,
            bp_bytes: stats.traffic.bp_bytes,
            param_bytes: stats.traffic.param_bytes,
            retry_bytes: stats.traffic.retry_bytes,
            total_bytes: stats.traffic.total_bytes(),
            degraded: stats.degraded,
            degraded_drop: stats.degraded_drop,
            degraded_corrupt: stats.degraded_corrupt,
        });
        if let Some(patience) = config.patience {
            if stopping.since_best >= patience {
                break;
            }
        }
    }
    result.finalize();
    Ok(())
}

/// Early-stopping state over the evaluated epochs: the best validation
/// accuracy, the evaluations since it, and the latest evaluation (which
/// the epochs up to the next one report).
struct EarlyStopping {
    best_val: f64,
    since_best: usize,
    last_val: f64,
    last_test: f64,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        Self { best_val: f64::MIN, since_best: 0, last_val: 0.0, last_test: 0.0 }
    }
}

impl EarlyStopping {
    /// Takes one evaluation into account.
    fn observe(&mut self, val: f64, test: f64) {
        self.last_val = val;
        self.last_test = test;
        if val > self.best_val {
            self.best_val = val;
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BpMode, FpMode};
    use ec_graph_data::DatasetSpec;
    use ec_partition::hash::HashPartitioner;

    fn tiny_data() -> Arc<AttributedGraph> {
        Arc::new(DatasetSpec::cora().instantiate_with(120, 16, 3))
    }

    fn tiny_config(data: &AttributedGraph, epochs: usize) -> TrainingConfig {
        TrainingConfig {
            dims: vec![data.feature_dim(), 16, data.num_classes],
            num_workers: 3,
            max_epochs: epochs,
            ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
        }
    }

    #[test]
    fn exact_training_converges_on_tiny_replica() {
        let data = tiny_data();
        let config = tiny_config(&data, 60);
        let r = train(Arc::clone(&data), &HashPartitioner::default(), config, "ec-graph");
        assert_eq!(r.epochs.len(), 60);
        assert!(r.best_val_acc > 0.6, "val acc {} too low", r.best_val_acc);
        let first = r.epochs.first().unwrap().loss;
        let last = r.epochs.last().unwrap().loss;
        assert!(last < first, "loss {first} → {last} did not decrease");
    }

    #[test]
    fn compressed_training_moves_fewer_bytes() {
        let data = tiny_data();
        let mut cfg_exact = tiny_config(&data, 3);
        cfg_exact.dims = vec![data.feature_dim(), 16, 16, data.num_classes];
        let mut cfg_cp = cfg_exact.clone();
        cfg_cp.fp_mode = FpMode::Compressed { bits: 2 };
        cfg_cp.bp_mode = BpMode::Compressed { bits: 2 };
        let r_exact = train(Arc::clone(&data), &HashPartitioner::default(), cfg_exact, "non-cp");
        let r_cp = train(Arc::clone(&data), &HashPartitioner::default(), cfg_cp, "cp-2");
        let fp_exact: u64 = r_exact.epochs.iter().map(|e| e.fp_bytes).sum();
        let fp_cp: u64 = r_cp.epochs.iter().map(|e| e.fp_bytes).sum();
        assert!(fp_cp * 8 < fp_exact, "2-bit FP traffic {fp_cp} not ≪ exact {fp_exact}");
    }

    #[test]
    fn early_stopping_cuts_the_run_short() {
        let data = tiny_data();
        let mut config = tiny_config(&data, 500);
        config.patience = Some(5);
        let r = train(Arc::clone(&data), &HashPartitioner::default(), config, "ec-graph");
        assert!(r.epochs.len() < 500, "patience did not trigger");
    }
}
