//! The training half: repetitions of a fixed epoch budget, each restarted
//! from the same epoch-0 snapshot so repetitions do identical work.

use crate::alloc;
use crate::trace::Tracer;
use crate::workloads::{Workload, T_TR};
use ec_comm::TrafficStats;
use ec_graph::engine::{DistributedEngine, EngineSnapshot, Evaluation};
use std::time::Instant;

/// What one `run_epoch` call returned, with the host time around it.
#[derive(Clone, Debug)]
pub struct EpochSample {
    pub sim_s: f64,
    pub compute_s: f64,
    pub comm_s: f64,
    pub loss: f32,
    pub traffic: TrafficStats,
    /// Accuracy after this epoch, for the epochs that are evaluated.
    pub eval: Option<Evaluation>,
    /// Heap allocations inside `run_epoch` (zero unless a traced run
    /// switched the counting allocator on).
    pub allocs: alloc::Snapshot,
}

/// The repetitions of one training phase.
pub struct TrainRun {
    /// Every epoch of the first repetition (the fixed budget the exact
    /// metrics are taken over).
    pub first: Vec<EpochSample>,
    /// Accuracy after the first repetition's budget.
    pub final_eval: Evaluation,
    /// `(epoch index, host seconds, EpochStats::sim_time())` of the
    /// measured epochs of all repetitions (the first `T_TR` of each
    /// repetition are warm-up and left out).
    pub measured: Vec<(usize, f64, f64)>,
    /// Completed repetitions.
    pub reps: usize,
    /// Epochs run over all repetitions.
    pub epochs: u64,
    /// Epochs whose loss was not finite.
    pub nonfinite: u64,
    /// Whether every later repetition reproduced the first one's loss
    /// sequence and traffic bit for bit.
    pub reps_identical: bool,
    /// Host seconds of each `evaluate` call.
    pub evaluate_s: Vec<f64>,
}

/// Runs whole repetitions of `w.epochs` epochs: always one, then more while
/// another is expected to end within `budget_s`. The first `eval_epochs`
/// epochs of every repetition are each followed by an `evaluate`: the
/// end-to-end run evaluates the warm-up trend group (for the thread
/// bit-identity check), the traced run every epoch (for the validation
/// curve). Accuracy after the budget is taken either way.
pub fn run_reps(
    engine: &mut DistributedEngine,
    epoch0: &EngineSnapshot,
    w: &Workload,
    budget_s: f64,
    eval_epochs: usize,
    tracer: &mut Tracer,
) -> TrainRun {
    tracer.enter("bench", "train_phase");
    let phase = Instant::now();
    let mut run = TrainRun {
        first: Vec::with_capacity(w.epochs),
        final_eval: Evaluation { train: 0.0, val: 0.0, test: 0.0 },
        measured: Vec::new(),
        reps: 0,
        epochs: 0,
        nonfinite: 0,
        reps_identical: true,
        evaluate_s: Vec::new(),
    };
    loop {
        let rep_start = Instant::now();
        if run.reps > 0 {
            let (restored, _) = tracer.timed("core", "restore", || engine.restore(epoch0));
            restored.expect("restore epoch-0 snapshot");
        }
        for e in 0..w.epochs {
            let before = alloc::snapshot();
            let (stats, host_s) = tracer.timed("core", "run_epoch", || engine.run_epoch());
            let allocs = alloc::since(before);
            tracer.count_last(stats.traffic.messages);
            run.epochs += 1;
            if !stats.loss.is_finite() {
                run.nonfinite += 1;
            }
            let eval = (e < eval_epochs).then(|| {
                let (eval, secs) = tracer.timed("core", "evaluate", || engine.evaluate());
                run.evaluate_s.push(secs);
                eval
            });
            if e >= T_TR {
                run.measured.push((e, host_s, stats.sim_time()));
            }
            if run.reps == 0 {
                run.first.push(EpochSample {
                    sim_s: stats.sim_time(),
                    compute_s: stats.compute_s,
                    comm_s: stats.comm_s,
                    loss: stats.loss,
                    traffic: stats.traffic,
                    eval,
                    allocs,
                });
            } else {
                let reference = &run.first[e];
                run.reps_identical &= reference.loss.to_bits() == stats.loss.to_bits()
                    && reference.traffic == stats.traffic;
            }
        }
        if run.reps == 0 {
            run.final_eval = match run.first.last().and_then(|s| s.eval) {
                Some(eval) => eval,
                None => {
                    let (eval, secs) = tracer.timed("core", "evaluate", || engine.evaluate());
                    run.evaluate_s.push(secs);
                    eval
                }
            };
        }
        run.reps += 1;
        let rep_s = rep_start.elapsed().as_secs_f64();
        if phase.elapsed().as_secs_f64() + rep_s > budget_s {
            break;
        }
    }
    tracer.exit();
    run
}

/// Seconds per epoch from `(epoch index, seconds)` samples: the lowest
/// sample at each position of the trend cycle (`index % T_TR`), averaged
/// over the positions.
///
/// Interference from other tenants of the host only ever *adds* time, so
/// the lowest of several identical pieces of work is the best estimate of
/// what the code costs; on the shared build host it repeats to a few
/// percent where the median of the same samples moves by 25 %. Taking the
/// minimum per cycle position rather than overall keeps the estimate an
/// average epoch: a trend-boundary epoch ships exact rows and skips the
/// codecs, and a plain minimum would report only those.
pub fn cycle_epoch_s(samples: impl Iterator<Item = (usize, f64)>) -> f64 {
    let mut best = [f64::INFINITY; T_TR];
    for (index, secs) in samples {
        let slot = &mut best[index % T_TR];
        *slot = slot.min(secs);
    }
    let seen: Vec<f64> = best.into_iter().filter(|b| b.is_finite()).collect();
    seen.iter().sum::<f64>() / seen.len() as f64
}

impl TrainRun {
    /// [`cycle_epoch_s`] of the host seconds around `run_epoch`.
    pub fn epoch_host_s(&self) -> f64 {
        cycle_epoch_s(self.measured.iter().map(|&(e, host, _)| (e, host)))
    }

    /// [`cycle_epoch_s`] of `EpochStats::sim_time()`, whose compute part
    /// is host-measured inside the engine.
    pub fn epoch_sim_s(&self) -> f64 {
        cycle_epoch_s(self.measured.iter().map(|&(e, _, sim)| (e, sim)))
    }

    /// Mean of `f` over the first repetition's full epoch budget.
    pub fn mean_over_budget(&self, f: impl Fn(&EpochSample) -> f64) -> f64 {
        self.first.iter().map(f).sum::<f64>() / self.first.len() as f64
    }

    /// Σ `sim_time()` up to the first epoch whose validation accuracy
    /// reaches `target` (Fig. 9's convergence time), and whether it was
    /// reached; a run that never gets there reports the whole budget's
    /// simulated time as a lower bound. Needs the per-epoch evaluations.
    pub fn time_to_target_sim_s(&self, target: f64) -> (f64, bool) {
        let mut cum = 0.0;
        for s in &self.first {
            cum += s.sim_s;
            if s.eval.is_some_and(|e| e.val >= target) {
                return (cum, true);
            }
        }
        (cum, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_estimate_averages_the_lowest_sample_of_each_position() {
        // Positions 0 and 1 of the cycle, two samples each; the boundary
        // position (T_TR - 1) costs less and must still count once.
        let samples = [
            (T_TR, 4.0),
            (2 * T_TR, 3.0),
            (T_TR + 1, 5.0),
            (2 * T_TR + 1, 9.0),
            (2 * T_TR - 1, 1.0),
        ];
        assert_eq!(cycle_epoch_s(samples.into_iter()), (3.0 + 5.0 + 1.0) / 3.0);
        // One slow outlier at a position with a clean sample changes nothing.
        let noisy = samples.into_iter().chain([(3 * T_TR, 40.0)]);
        assert_eq!(cycle_epoch_s(noisy), 3.0);
    }
}
