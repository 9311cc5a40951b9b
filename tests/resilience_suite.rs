//! Resilience subsystem integration tests: fault injection must be
//! deterministic and strictly opt-in (a none-plan is bit-identical to no
//! plan), checkpoints must resume training exactly, crash recovery must
//! reproduce the uninterrupted loss curve, and the EC-degrade policy must
//! buy simulated time without giving up accuracy.

use ec_graph_repro::comm::stats::Channel;
use ec_graph_repro::comm::{NetworkModel, SimNetwork};
use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::{BpMode, FpMode, ResiliencePolicy, TrainingConfig};
use ec_graph_repro::ecgraph::trainer::train;
use ec_graph_repro::ecgraph::DistributedEngine;
use ec_graph_repro::faults::FaultPlan;
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::Partitioner;
use proptest::prelude::*;
use std::sync::Arc;

fn reqec_config(data: &ec_graph_repro::data::AttributedGraph, epochs: usize) -> TrainingConfig {
    TrainingConfig {
        dims: vec![data.feature_dim(), 16, data.num_classes],
        num_workers: 4,
        fp_mode: FpMode::ReqEc { bits: 4, t_tr: 10, adaptive: false },
        bp_mode: BpMode::ResEc { bits: 4 },
        max_epochs: epochs,
        seed: 2,
        ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
    }
}

fn tiny_data() -> Arc<ec_graph_repro::data::AttributedGraph> {
    Arc::new(DatasetSpec::cora().instantiate_with(140, 12, 3))
}

fn engine_for(config: TrainingConfig) -> DistributedEngine {
    let data = tiny_data();
    let adj = Arc::new(ec_graph_repro::data::normalize::gcn_normalized_adjacency(&data.graph));
    let adjs = vec![adj; config.num_layers()];
    let partition = HashPartitioner::default().partition(&data.graph, config.num_workers);
    DistributedEngine::new(data, adjs, partition, config)
}

// ---------------------------------------------------------------------
// Fault-free equivalence: a zero-probability plan is the identity.
// ---------------------------------------------------------------------

/// A `FaultPlan::none()` engine must produce bit-identical traffic ledgers
/// and epoch times to an engine with no plan at all — the fault machinery
/// must cost nothing when unused.
#[test]
fn none_plan_training_is_bit_identical() {
    let data = tiny_data();
    let run = |faults: FaultPlan| {
        let mut config = reqec_config(&data, 4);
        config.faults = faults;
        let r = train(Arc::clone(&data), &HashPartitioner::default(), config, "x");
        r.epochs
            .iter()
            .map(|e| (e.loss.to_bits(), e.comm_s.to_bits(), e.total_bytes, e.retry_bytes))
            .collect::<Vec<_>>()
    };
    let plain = run(FaultPlan::none());
    let with_plan = run(FaultPlan::none());
    assert_eq!(plain, with_plan);
    // Zero-probability link faults short-circuit to the same fast path.
    let zero_probs = run(FaultPlan::uniform_drop(99, 0.0));
    assert_eq!(plain, zero_probs);
}

// ---------------------------------------------------------------------
// Checkpoint / restore.
// ---------------------------------------------------------------------

/// Snapshot mid-training, restore into a *fresh* engine, and the remaining
/// losses must be identical — the snapshot carries the Adam moments and the
/// EC trend/residual state, not just the weights.
#[test]
fn checkpoint_restore_resumes_identically() {
    let mut original = engine_for(reqec_config(&tiny_data(), 0));
    for _ in 0..6 {
        original.run_epoch();
    }
    let snapshot = original.snapshot();
    assert_eq!(snapshot.epoch(), 6);
    let tail: Vec<f32> = (0..8).map(|_| original.run_epoch().loss).collect();

    let mut restored = engine_for(reqec_config(&tiny_data(), 0));
    restored.restore(&snapshot).expect("snapshot fits an identically-built engine");
    assert_eq!(restored.epochs_run(), 6);
    let replayed: Vec<f32> = (0..8).map(|_| restored.run_epoch().loss).collect();
    assert_eq!(tail, replayed, "restored engine must replay the exact loss curve");
    assert_eq!(original.weights(), restored.weights(), "and end on the same bits");

    // Rolling the original back in place replays the curve as well: what a
    // restore does not rewrite (topology, the cached Â·X rows) never changes.
    original.restore(&snapshot).expect("an engine accepts its own snapshot");
    let rolled_back: Vec<f32> = (0..8).map(|_| original.run_epoch().loss).collect();
    assert_eq!(tail, rolled_back, "in-place rollback must replay the exact loss curve");
    assert_eq!(original.weights(), restored.weights());
}

/// A crash mid-run rolls back to the latest checkpoint and replays; the
/// final loss curve must match the uninterrupted run within 1e-4, and the
/// discarded work must be charged to `recovery_s`.
#[test]
fn crash_recovery_matches_uninterrupted_curve() {
    let data = tiny_data();
    let epochs = 12;
    let baseline = train(
        Arc::clone(&data),
        &HashPartitioner::default(),
        reqec_config(&data, epochs),
        "no-crash",
    );

    let mut config = reqec_config(&data, epochs);
    config.faults = FaultPlan::none().with_crash(1, 7);
    config.resilience.checkpoint_every = 4;
    let crashed = train(Arc::clone(&data), &HashPartitioner::default(), config, "crash");

    assert_eq!(crashed.crashes_recovered, 1);
    assert!(crashed.recovery_s > 0.0, "rolled-back epochs must be charged");
    assert_same_curve(&baseline, &crashed);

    // Early stopping with evaluation every third epoch: the replay must
    // count only the evaluated epochs towards the patience, as the
    // uninterrupted run does, or the recovered run stops early.
    for (seed, patience, crash_epoch) in [(2, 3, 7), (4, 4, 10)] {
        let config = TrainingConfig {
            seed,
            patience: Some(patience),
            eval_every: 3,
            ..reqec_config(&data, 60)
        };
        let baseline =
            train(Arc::clone(&data), &HashPartitioner::default(), config.clone(), "no-crash");
        let mut config = config;
        config.faults = FaultPlan::none().with_crash(1, crash_epoch);
        config.resilience.checkpoint_every = 3;
        let crashed = train(Arc::clone(&data), &HashPartitioner::default(), config, "crash");
        assert_eq!(crashed.crashes_recovered, 1, "seed {seed}");
        assert!(baseline.epochs.len() < 60, "seed {seed}: patience must stop the run");
        assert_same_curve(&baseline, &crashed);
    }
}

/// Same epochs, losses within 1e-4.
fn assert_same_curve(
    baseline: &ec_graph_repro::ecgraph::RunResult,
    crashed: &ec_graph_repro::ecgraph::RunResult,
) {
    assert_eq!(crashed.epochs.len(), baseline.epochs.len(), "epochs trained after recovery");
    for (a, b) in baseline.epochs.iter().zip(&crashed.epochs) {
        assert_eq!(a.epoch, b.epoch);
        assert!(
            (a.loss - b.loss).abs() <= 1e-4,
            "epoch {}: loss {} vs {} after recovery",
            a.epoch,
            a.loss,
            b.loss
        );
    }
}

/// Without periodic checkpoints the run still survives a crash — it
/// replays from epoch 0 (the implicit initial snapshot) and pays for it.
#[test]
fn crash_without_periodic_checkpoints_replays_from_scratch() {
    let data = tiny_data();
    let mut config = reqec_config(&data, 6);
    config.faults = FaultPlan::none().with_crash(0, 3);
    let r = train(Arc::clone(&data), &HashPartitioner::default(), config, "crash-0");
    assert_eq!(r.crashes_recovered, 1);
    assert_eq!(r.epochs.len(), 6);
    // Epochs 0..3 ran twice; the first pass is recovery time.
    let replay_cost: f64 = r.epochs.iter().take(3).map(|e| e.sim_time()).sum();
    assert!((r.recovery_s - replay_cost).abs() / replay_cost.max(1e-12) < 0.5);
}

// ---------------------------------------------------------------------
// EC-degrade vs retry-only under loss.
// ---------------------------------------------------------------------

/// Under message loss plus a straggler, the EC-degrade policy must train in
/// strictly less simulated communication time than retry-until-delivered,
/// at final accuracy no worse than the retry baseline — whether the
/// messages are dropped or corrupted, and each substitution is counted
/// under the fault that caused it.
#[test]
fn ec_degrade_beats_retry_only_under_loss() {
    let data = tiny_data();
    let dropping = FaultPlan::uniform_drop(13, 0.05).with_straggler(0, 2.0);
    let corrupting = FaultPlan { corrupt_p: 0.05, ..FaultPlan::none() }.with_straggler(0, 2.0);
    for (faults, corrupt) in [(dropping, false), (corrupting, true)] {
        let run = |policy: ResiliencePolicy| {
            let mut config = reqec_config(&data, 30);
            config.faults = faults.clone();
            config.resilience.policy = policy;
            config.resilience.max_attempts = 1;
            train(Arc::clone(&data), &HashPartitioner::default(), config, "policy")
        };
        let retry = run(ResiliencePolicy::RetryOnly);
        let degrade = run(ResiliencePolicy::EcDegrade);

        let comm = |r: &ec_graph_repro::ecgraph::RunResult| -> f64 {
            r.epochs.iter().map(|e| e.comm_s).sum()
        };
        let degraded_msgs: u64 = degrade.epochs.iter().map(|e| e.degraded).sum();
        assert!(degraded_msgs > 0, "5% loss over 30 epochs must trigger degradation");
        let by_drop: u64 = degrade.epochs.iter().map(|e| e.degraded_drop).sum();
        let by_corrupt: u64 = degrade.epochs.iter().map(|e| e.degraded_corrupt).sum();
        if corrupt {
            assert!(by_corrupt > 0, "corruption-only plan must degrade on checksum failures");
            assert_eq!(by_drop, 0, "a corruption-only plan drops nothing");
        }
        assert_eq!(by_drop + by_corrupt, degraded_msgs);
        assert_eq!(
            retry.epochs.iter().map(|e| e.degraded).sum::<u64>(),
            0,
            "retry-only must never substitute predictions"
        );
        assert!(
            comm(&degrade) < comm(&retry),
            "EC-degrade comm {} not below retry-only {}",
            comm(&degrade),
            comm(&retry)
        );
        assert!(
            degrade.best_test_acc >= retry.best_test_acc - 1e-9,
            "EC-degrade accuracy {} fell below retry-only {}",
            degrade.best_test_acc,
            retry.best_test_acc
        );
    }
}

/// Drops and corruptions make training slower, never less accurate, under
/// retry-only: the ledger charges wasted bytes and timeouts but every
/// payload arrives.
#[test]
fn retry_only_losses_cost_time_not_accuracy() {
    let data = tiny_data();
    let run = |faults: FaultPlan| {
        let mut config = reqec_config(&data, 8);
        config.faults = faults;
        train(Arc::clone(&data), &HashPartitioner::default(), config, "x")
    };
    let clean = run(FaultPlan::none());
    let losses = |r: &ec_graph_repro::ecgraph::RunResult| {
        r.epochs.iter().map(|e| e.loss).collect::<Vec<_>>()
    };
    let comm =
        |r: &ec_graph_repro::ecgraph::RunResult| -> f64 { r.epochs.iter().map(|e| e.comm_s).sum() };
    for faults in
        [FaultPlan::uniform_drop(5, 0.2), FaultPlan { corrupt_p: 0.2, ..FaultPlan::none() }]
    {
        let lossy = run(faults);
        assert_eq!(losses(&clean), losses(&lossy), "guaranteed delivery ⇒ identical training");
        assert!(comm(&lossy) > comm(&clean), "failed attempts must cost simulated time");
        assert!(lossy.epochs.iter().map(|e| e.retry_bytes).sum::<u64>() > 0);
    }
}

// ---------------------------------------------------------------------
// Property tests over the network layer.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Epoch communication time is exactly the sum of its flushed superstep
    /// times, for arbitrary traffic patterns — with and without faults.
    #[test]
    fn epoch_time_is_sum_of_supersteps(
        nodes in 2usize..6,
        drop_p in 0.0f64..0.4,
        seed in any::<u64>(),
        sends in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u64..10_000, 0u8..4), 1..60),
        flush_every in 1usize..8,
    ) {
        let plan = if drop_p == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::uniform_drop(seed, drop_p).with_straggler(0, 1.5)
        };
        let model = NetworkModel { bandwidth: 1e6, latency: 1e-4 };
        let mut net = SimNetwork::with_faults(nodes, model, plan);
        let mut superstep_sum = 0.0f64;
        for (k, &(from, to, bytes, ch)) in sends.iter().enumerate() {
            let channel = match ch {
                0 => Channel::Forward,
                1 => Channel::Backward,
                2 => Channel::Parameter,
                _ => Channel::Control,
            };
            net.send(from % nodes, to % nodes, channel, bytes);
            if (k + 1) % flush_every == 0 {
                superstep_sum += net.flush_superstep();
            }
        }
        superstep_sum += net.flush_superstep();
        let (_, epoch_time) = net.end_epoch();
        prop_assert!(
            (epoch_time - superstep_sum).abs() <= 1e-12 * superstep_sum.max(1.0),
            "epoch {epoch_time} != Σ supersteps {superstep_sum}"
        );
    }

    /// Zero-probability fault plans reproduce the fault-free byte ledger
    /// bit-for-bit, and the same seed reproduces the same faulty ledger.
    #[test]
    fn fault_injection_is_deterministic_and_strictly_optional(
        nodes in 2usize..6,
        seed in any::<u64>(),
        drop_p in 0.01f64..0.5,
        sends in proptest::collection::vec((0usize..6, 0usize..6, 1u64..5_000), 1..50),
    ) {
        let model = NetworkModel { bandwidth: 1e6, latency: 1e-4 };
        let replay = |plan: FaultPlan| {
            let mut net = SimNetwork::with_faults(nodes, model, plan);
            for &(from, to, bytes) in &sends {
                net.send(from % nodes, to % nodes, Channel::Forward, bytes);
            }
            net.flush_superstep();
            for &(from, to, bytes) in &sends {
                let _ = net.send_within(Some(1), to % nodes, from % nodes, Channel::Backward, bytes);
            }
            let (stats, time) = net.end_epoch();
            (stats, time.to_bits())
        };

        // p = 0 ⇒ bit-identical to no plan at all.
        let bare = replay(FaultPlan::none());
        let zero = replay(FaultPlan::uniform_drop(seed, 0.0));
        prop_assert_eq!(&bare, &zero);
        prop_assert_eq!(bare.0.retry_bytes, 0);

        // Same seed ⇒ same ledger; and the ledger is really different from
        // the clean one once failures actually occur.
        let a = replay(FaultPlan::uniform_drop(seed, drop_p));
        let b = replay(FaultPlan::uniform_drop(seed, drop_p));
        prop_assert_eq!(&a, &b);
        if a.0.retry_bytes > 0 {
            // Failures can only add wasted bytes (guaranteed sends retry on
            // top; single-attempt drops shift payload bytes into the retry
            // ledger) — never shrink the wire total.
            prop_assert!(a.0.total_bytes() >= bare.0.total_bytes());
            prop_assert!(a.0 != bare.0, "faulty ledger must differ from the clean one");
        }
    }
}
