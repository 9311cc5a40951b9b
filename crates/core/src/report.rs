//! Experiment result records.
//!
//! Every training run — EC-Graph in any mode, or any baseline — produces a
//! [`RunResult`]: the per-epoch history plus summary statistics. The bench
//! harness serializes these as JSON rows, which `EXPERIMENTS.md` quotes.

/// Validation-accuracy tolerance of the convergence point Fig. 8 and Fig. 9
/// time a run to: late sub-0.5 % fluctuations do not count as "still
/// converging".
pub const CONVERGENCE_TOL: f64 = 0.005;

/// One epoch's record.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Global training loss.
    pub loss: f32,
    /// Validation accuracy (carried forward between evaluation epochs).
    pub val_acc: f64,
    /// Test accuracy (carried forward between evaluation epochs).
    pub test_acc: f64,
    /// Measured compute seconds.
    pub compute_s: f64,
    /// Simulated communication seconds.
    pub comm_s: f64,
    /// Bytes of forward-pass embedding traffic.
    pub fp_bytes: u64,
    /// Bytes of backward-pass gradient traffic.
    pub bp_bytes: u64,
    /// Bytes of parameter traffic.
    pub param_bytes: u64,
    /// Bytes wasted on failed transmissions (fault injection).
    pub retry_bytes: u64,
    /// Total bytes (all channels).
    pub total_bytes: u64,
    /// FP messages replaced by the ReqEC prediction (EC-degrade policy).
    pub degraded: u64,
    /// Degraded messages whose final failed attempt was a drop.
    pub degraded_drop: u64,
    /// Degraded messages whose final failed attempt was a corruption.
    pub degraded_corrupt: u64,
}

impl EpochRecord {
    /// Simulated wall-clock time of this epoch.
    pub fn sim_time(&self) -> f64 {
        self.compute_s + self.comm_s
    }
}

/// Summary of one complete training run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// System label, e.g. `"ec-graph"`, `"distgnn"`, `"dgl-like"`.
    pub system: String,
    /// Dataset label, e.g. `"cora"`.
    pub dataset: String,
    /// Number of GNN layers.
    pub num_layers: usize,
    /// Number of workers (1 for single-machine baselines).
    pub num_workers: usize,
    /// Per-epoch history.
    pub epochs: Vec<EpochRecord>,
    /// Preprocessing seconds (partitioning, caches, offline sampling).
    pub preprocessing_s: f64,
    /// Simulated seconds lost to worker crashes: the work discarded when
    /// rolling back to the latest checkpoint (the replay itself appears in
    /// `epochs` like any other training time).
    pub recovery_s: f64,
    /// Worker crashes survived during the run.
    pub crashes_recovered: usize,
    /// Epoch (0-based) at which validation accuracy peaked.
    pub best_epoch: usize,
    /// Peak validation accuracy.
    pub best_val_acc: f64,
    /// Test accuracy at the peak-validation epoch.
    pub best_test_acc: f64,
    /// Telemetry snapshot (`None` when recording was off). Deliberately
    /// excluded from [`Self::to_json`]: the canonical image must stay
    /// byte-identical whatever the telemetry level, which is exactly what
    /// the determinism suite checks.
    pub telemetry: Option<ec_trace::TelemetryReport>,
}

impl RunResult {
    /// Mean simulated epoch time (the paper's Table IV metric).
    pub fn avg_epoch_time(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(EpochRecord::sim_time).sum::<f64>() / self.epochs.len() as f64
    }

    /// Total simulated training time across all executed epochs.
    pub fn total_train_time(&self) -> f64 {
        self.epochs.iter().map(EpochRecord::sim_time).sum()
    }

    /// Simulated time to reach the best-validation epoch — the paper's
    /// "full convergence time".
    pub fn convergence_time(&self) -> f64 {
        self.epochs.iter().take(self.best_epoch + 1).map(EpochRecord::sim_time).sum()
    }

    /// First epoch whose validation accuracy is within `tol` of the run's
    /// best — a noise-robust convergence point (late 0.1 % fluctuations
    /// should not count as "still converging").
    pub fn convergence_epoch_within(&self, tol: f64) -> usize {
        let threshold = self.best_val_acc - tol;
        self.epochs.iter().position(|e| e.val_acc >= threshold).unwrap_or(self.best_epoch)
    }

    /// Simulated time to reach [`Self::convergence_epoch_within`].
    pub fn convergence_time_within(&self, tol: f64) -> f64 {
        self.epochs
            .iter()
            .take(self.convergence_epoch_within(tol) + 1)
            .map(EpochRecord::sim_time)
            .sum()
    }

    /// End-to-end time (Fig. 9): preprocessing + crash-recovery losses +
    /// training time to within [`CONVERGENCE_TOL`] of the best validation
    /// accuracy.
    pub fn end_to_end_time(&self) -> f64 {
        self.preprocessing_s + self.recovery_s + self.convergence_time_within(CONVERGENCE_TOL)
    }

    /// Total bytes communicated over the run.
    pub fn total_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.total_bytes).sum()
    }

    /// Canonical JSON image of the full run: every summary field plus the
    /// complete epoch history, with keys in a fixed order. Two runs are
    /// byte-identical here iff they are behaviorally identical — the
    /// determinism suite diffs these strings directly.
    pub fn to_json(&self) -> serde_json::Value {
        let epochs: Vec<serde_json::Value> = self
            .epochs
            .iter()
            .map(|e| {
                serde_json::json!({
                    "epoch": e.epoch,
                    "loss": e.loss,
                    "val_acc": e.val_acc,
                    "test_acc": e.test_acc,
                    "compute_s": e.compute_s,
                    "comm_s": e.comm_s,
                    "fp_bytes": e.fp_bytes,
                    "bp_bytes": e.bp_bytes,
                    "param_bytes": e.param_bytes,
                    "retry_bytes": e.retry_bytes,
                    "total_bytes": e.total_bytes,
                    "degraded": e.degraded,
                    "degraded_drop": e.degraded_drop,
                    "degraded_corrupt": e.degraded_corrupt,
                })
            })
            .collect();
        serde_json::json!({
            "system": self.system,
            "dataset": self.dataset,
            "num_layers": self.num_layers,
            "num_workers": self.num_workers,
            "preprocessing_s": self.preprocessing_s,
            "recovery_s": self.recovery_s,
            "crashes_recovered": self.crashes_recovered,
            "best_epoch": self.best_epoch,
            "best_val_acc": self.best_val_acc,
            "best_test_acc": self.best_test_acc,
            "epochs": epochs,
        })
    }

    /// Recomputes the best-epoch summary fields from the history.
    pub fn finalize(&mut self) {
        let mut best = (0usize, f64::MIN, 0.0f64);
        for e in &self.epochs {
            if e.val_acc > best.1 {
                best = (e.epoch, e.val_acc, e.test_acc);
            }
        }
        self.best_epoch = best.0;
        self.best_val_acc = best.1.max(0.0);
        self.best_test_acc = best.2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: usize, val: f64, test: f64, compute: f64, comm: f64) -> EpochRecord {
        EpochRecord {
            epoch,
            val_acc: val,
            test_acc: test,
            compute_s: compute,
            comm_s: comm,
            total_bytes: 100,
            ..Default::default()
        }
    }

    fn sample() -> RunResult {
        let mut r = RunResult {
            system: "ec-graph".into(),
            dataset: "cora".into(),
            num_layers: 2,
            num_workers: 6,
            epochs: vec![
                rec(0, 0.5, 0.48, 1.0, 0.5),
                rec(1, 0.8, 0.79, 1.0, 0.5),
                rec(2, 0.7, 0.81, 1.0, 0.5),
            ],
            preprocessing_s: 2.0,
            ..Default::default()
        };
        r.finalize();
        r
    }

    #[test]
    fn finalize_tracks_best_validation() {
        let r = sample();
        assert_eq!(r.best_epoch, 1);
        assert_eq!(r.best_val_acc, 0.8);
        assert_eq!(r.best_test_acc, 0.79);
    }

    #[test]
    fn timing_summaries() {
        let r = sample();
        assert!((r.avg_epoch_time() - 1.5).abs() < 1e-12);
        assert!((r.total_train_time() - 4.5).abs() < 1e-12);
        assert!((r.convergence_time() - 3.0).abs() < 1e-12);
        assert!((r.end_to_end_time() - 5.0).abs() < 1e-12);
        assert_eq!(r.total_bytes(), 300);
        // End-to-end stops at the first epoch within tolerance of the best,
        // not at the best epoch itself.
        let mut late_peak = sample();
        late_peak.epochs[2].val_acc = 0.8 + CONVERGENCE_TOL / 2.0;
        late_peak.finalize();
        assert_eq!(late_peak.best_epoch, 2);
        assert!((late_peak.convergence_time() - 4.5).abs() < 1e-12);
        assert!((late_peak.end_to_end_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_time_counts_toward_end_to_end() {
        let mut r = sample();
        r.recovery_s = 2.5;
        r.crashes_recovered = 1;
        assert!((r.end_to_end_time() - 7.5).abs() < 1e-12);
        // ... but not toward the per-epoch averages.
        assert!((r.avg_epoch_time() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_safe() {
        let mut r = RunResult::default();
        r.finalize();
        assert_eq!(r.avg_epoch_time(), 0.0);
        assert_eq!(r.best_val_acc, 0.0);
    }

    #[test]
    fn convergence_within_tolerance_stops_at_first_good_epoch() {
        let mut r = sample();
        // val accs: 0.5, 0.8, 0.7 → best 0.8; within 0.15 first reached at
        // epoch 1; within 0.35 already at epoch 0.
        r.finalize();
        assert_eq!(r.convergence_epoch_within(0.15), 1);
        assert_eq!(r.convergence_epoch_within(0.35), 0);
        assert!((r.convergence_time_within(0.35) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn convergence_within_zero_tol_equals_best_epoch() {
        let r = sample();
        assert_eq!(r.convergence_epoch_within(0.0), r.best_epoch);
    }

    #[test]
    fn convergence_time_counts_through_best_epoch_inclusive() {
        let mut r = sample();
        r.epochs[0].val_acc = 0.99; // best at epoch 0
        r.finalize();
        assert!((r.convergence_time() - 1.5).abs() < 1e-12);
    }
}
