//! Run-to-run determinism: the simulated cluster is a measurement
//! instrument, so two runs of the same config must be *byte-identical* —
//! same losses, same traffic, same report. This is the regression net under
//! the root `clippy.toml` bans (hash-container iteration, `Instant::now`,
//! interior mutability outside the pool): whatever slips past them — a
//! `HashSet` collected without the sort, say — shows up here as a diff
//! between two otherwise identical runs.
//!
//! Compute seconds are *measured* in normal operation and therefore differ
//! between runs; [`ec_comm::set_deterministic_timing`] zeroes them so the
//! canonical JSON report can be compared byte for byte.

use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::{BpMode, ComputeConfig, FpMode, TrainingConfig};
use ec_graph_repro::ecgraph::report::RunResult;
use ec_graph_repro::ecgraph::trainer::train;
use ec_graph_repro::faults::FaultPlan;
use ec_graph_repro::partition::ldg::LdgPartitioner;
use ec_graph_repro::trace::{TelemetryConfig, TelemetryLevel};
use std::sync::Arc;

/// Hidden widths of the fixture: the top layer (to 7 classes) narrows at 8
/// — `P` forward, `G` backward — and widens at 6 — `H` forward, `Q = G·Wᵀ`
/// backward, with its residual in `Q` space.
const HIDDEN: [usize; 2] = [8, 6];

fn run_once(seed: u64) -> RunResult {
    run_threaded(HIDDEN[0], seed, ComputeConfig::sequential(), FaultPlan::none())
}

fn run_threaded(hidden: usize, seed: u64, compute: ComputeConfig, faults: FaultPlan) -> RunResult {
    run_full(hidden, seed, compute, faults, TelemetryLevel::Off)
}

fn run_full(
    hidden: usize,
    seed: u64,
    compute: ComputeConfig,
    faults: FaultPlan,
    telemetry: TelemetryLevel,
) -> RunResult {
    ec_comm::set_deterministic_timing(true);
    let data = Arc::new(DatasetSpec::cora().instantiate_with(140, 12, 5));
    let config = TrainingConfig {
        dims: vec![12, hidden, data.num_classes],
        num_workers: 4,
        // The error-compensated modes exercise every piece of mutable
        // compensation state (trend groups, residuals, adaptive bits).
        fp_mode: FpMode::ReqEc { bits: 2, t_tr: 4, adaptive: true },
        bp_mode: BpMode::ResEc { bits: 4 },
        max_epochs: 12,
        seed,
        faults,
        compute,
        telemetry: TelemetryConfig::at(telemetry),
        ..TrainingConfig::defaults(12, data.num_classes)
    };
    train(data, &LdgPartitioner::default(), config, "ec-graph")
}

/// Two identical configs must produce byte-identical canonical reports.
#[test]
fn identical_runs_produce_byte_identical_reports() {
    let a = run_once(3).to_json().to_string();
    let b = run_once(3).to_json().to_string();
    assert!(!a.is_empty());
    assert_eq!(a, b, "two identical runs diverged — a nondeterministic path was exercised");
}

/// The comparison above must not pass vacuously: a different seed has to
/// change the report.
#[test]
fn different_seeds_produce_different_reports() {
    let a = run_once(3).to_json().to_string();
    let c = run_once(4).to_json().to_string();
    assert_ne!(a, c, "seed must influence the run");
}

/// Deterministic timing zeroes the measured compute seconds but leaves the
/// modeled communication seconds intact.
#[test]
fn deterministic_timing_zeroes_compute_but_not_comm() {
    let r = run_once(5);
    assert!(r.epochs.iter().all(|e| e.compute_s == 0.0), "compute must be zeroed");
    assert!(r.epochs.iter().all(|e| e.comm_s > 0.0), "modeled comm time must survive");
}

/// The intra-superstep thread fan-out is a pure performance knob: every
/// `worker_threads × kernel_threads` combination must produce the same
/// canonical report, byte for byte, as the sequential engine.
#[test]
fn thread_counts_never_change_the_report() {
    for hidden in HIDDEN {
        let sequential = ComputeConfig::sequential();
        let base = run_threaded(hidden, 3, sequential, FaultPlan::none()).to_json().to_string();
        for worker_threads in [1usize, 4] {
            for kernel_threads in [1usize, 4] {
                let compute = ComputeConfig { worker_threads, kernel_threads };
                let mt = run_threaded(hidden, 3, compute, FaultPlan::none()).to_json().to_string();
                assert_eq!(
                    mt, base,
                    "hidden {hidden}: report diverged at worker_threads={worker_threads} \
                     kernel_threads={kernel_threads}"
                );
            }
        }
    }
}

/// Fault injection (message drops, a straggler, and a mid-run crash with
/// checkpoint rollback) routes through the same replayed exchange path, so
/// it too must be thread-count invariant across the full
/// `worker_threads × kernel_threads` matrix. The crash leg doubles as the
/// persistent-pool survival check: recovery rolls the engine back through
/// snapshot-restore mid-run, and the pool must keep serving the remaining
/// epochs' fan-outs identically afterwards.
#[test]
fn fault_injected_runs_are_thread_count_invariant() {
    let faults = FaultPlan::uniform_drop(13, 0.05).with_straggler(0, 2.0).with_crash(1, 7);
    for hidden in HIDDEN {
        let seq = run_threaded(hidden, 3, ComputeConfig::sequential(), faults.clone());
        assert_eq!(seq.crashes_recovered, 1, "crash plan must actually fire");
        let seq = seq.to_json().to_string();
        for worker_threads in [1usize, 4] {
            for kernel_threads in [1usize, 4] {
                let compute = ComputeConfig { worker_threads, kernel_threads };
                let mt = run_threaded(hidden, 3, compute, faults.clone()).to_json().to_string();
                assert_eq!(
                    mt, seq,
                    "hidden {hidden}: fault-injected report diverged at \
                     worker_threads={worker_threads} kernel_threads={kernel_threads}"
                );
            }
        }
        // Not vacuous: the faults must actually change the run.
        let clean = run_threaded(hidden, 3, ComputeConfig::sequential(), FaultPlan::none());
        assert_ne!(seq, clean.to_json().to_string(), "fault plan had no observable effect");
    }
}

/// Every system of the evaluation runs on the engine's cluster, so the
/// comparators fan out on the same pool: each must repeat byte for byte and
/// ignore the worker-thread count, sampled ones included (their draws are
/// keyed by epoch, iteration and worker, not by execution order).
#[test]
fn every_system_is_repeatable_at_any_worker_thread_count() {
    use ec_bench::systems::{paper_config, run, System};

    ec_comm::set_deterministic_timing(true);
    let data = Arc::new(DatasetSpec::products().instantiate_with(200, 12, 5));
    let report = |system: System, worker_threads: usize| {
        let config = TrainingConfig {
            num_workers: 4,
            compute: ComputeConfig { worker_threads, ..ComputeConfig::sequential() },
            ..paper_config(&data, 2, 8, 4)
        };
        run(system, &data, &config).expect("fits the memory budget").to_json().to_string()
    };
    for system in System::all() {
        let base = report(system, 1);
        assert_eq!(report(system, 1), base, "{system:?}: two identical runs diverged");
        assert_eq!(report(system, 4), base, "{system:?}: diverged at worker_threads=4");
    }
}

/// A comparator's whole mutable training state is the cluster's (parameters
/// with their Adam moments, epoch counter, clock), so the shared epoch loop
/// can roll it back after a crash and the replay lands on the uninterrupted
/// loss curve — sampled draws included.
#[test]
fn comparators_replay_identically_after_a_crash() {
    use ec_bench::systems::{paper_config, run, System};

    ec_comm::set_deterministic_timing(true);
    let data = Arc::new(DatasetSpec::products().instantiate_with(200, 12, 5));
    for system in [System::DistDgl, System::AliGraphFg, System::DglLike] {
        let losses = |faults: FaultPlan| {
            let mut config =
                TrainingConfig { num_workers: 4, faults, ..paper_config(&data, 2, 8, 8) };
            config.resilience.checkpoint_every = 2;
            let r = run(system, &data, &config).expect("fits the memory budget");
            (r.crashes_recovered, r.epochs.iter().map(|e| e.loss.to_bits()).collect::<Vec<_>>())
        };
        let (crashes, crashed) = losses(FaultPlan::none().with_crash(0, 5));
        assert_eq!(crashes, 1, "{system:?}: crash plan must fire");
        assert_eq!(crashed, losses(FaultPlan::none()).1, "{system:?}: replay left the curve");
    }
}

/// Telemetry is a read-only observer: turning recording up to any level
/// must leave the canonical report byte-identical to the `Off` run. A
/// telemetry hook that perturbed an RNG draw, an iteration order, or a
/// simulated-time ledger would show up here as a diff.
#[test]
fn telemetry_levels_never_change_the_report() {
    let off =
        run_full(HIDDEN[0], 3, ComputeConfig::sequential(), FaultPlan::none(), TelemetryLevel::Off);
    assert!(off.telemetry.is_none(), "Off must not attach a report");
    let base = off.to_json().to_string();
    for level in [TelemetryLevel::Epoch, TelemetryLevel::Superstep, TelemetryLevel::Trace] {
        let r = run_full(HIDDEN[0], 3, ComputeConfig::sequential(), FaultPlan::none(), level);
        let report = r
            .telemetry
            .as_ref()
            .unwrap_or_else(|| panic!("{} run must attach a telemetry report", level.as_str()));
        assert!(
            report.rows_named("phase.compute").next().is_some(),
            "{} report must carry epoch metrics",
            level.as_str()
        );
        assert_eq!(
            r.to_json().to_string(),
            base,
            "canonical report diverged between Off and {}",
            level.as_str()
        );
    }
}

/// The invariance above must also hold when the fault injector is live —
/// drops, a straggler, and a mid-run crash with checkpoint rollback — since
/// the sink both counts faults and rewinds its rings on recovery.
#[test]
fn telemetry_is_inert_under_fault_injection() {
    let faults = FaultPlan::uniform_drop(13, 0.05).with_straggler(0, 2.0).with_crash(1, 7);
    let off =
        run_full(HIDDEN[0], 3, ComputeConfig::sequential(), faults.clone(), TelemetryLevel::Off);
    assert_eq!(off.crashes_recovered, 1, "crash plan must actually fire");
    let traced = run_full(HIDDEN[0], 3, ComputeConfig::sequential(), faults, TelemetryLevel::Trace);
    assert_eq!(
        traced.to_json().to_string(),
        off.to_json().to_string(),
        "fault-injected report diverged between Off and Trace telemetry"
    );
    let report = traced.telemetry.expect("Trace run must attach a telemetry report");
    assert!(
        report.rows_named("faults.dropped").next().is_some(),
        "fault counters must reach the registry"
    );
}

/// Builds a small trained checkpoint and runs the closed-loop serving
/// workload at `level` under `faults`. Everything is re-derived per call,
/// so each invocation is an independent, identically-seeded run.
fn serve_run(level: TelemetryLevel, faults: FaultPlan) -> ec_graph_repro::serve::ServeReport {
    use ec_graph_repro::partition::hash::HashPartitioner;
    use ec_graph_repro::partition::Partitioner;
    use ec_graph_repro::serve::{run_closed_loop, InferenceService, ServeConfig, WorkloadConfig};

    ec_comm::set_deterministic_timing(true);
    let data = Arc::new(DatasetSpec::cora().instantiate_with(140, 12, 5));
    let adj = Arc::new(ec_graph_repro::data::normalize::gcn_normalized_adjacency(&data.graph));
    let adjs = vec![adj; 2];
    let config = TrainingConfig {
        dims: vec![12, 8, data.num_classes],
        num_workers: 4,
        max_epochs: 2,
        seed: 3,
        ..TrainingConfig::defaults(12, data.num_classes)
    };
    let partition = Arc::new(HashPartitioner::default().partition(&data.graph, 4));
    let mut engine = ec_graph_repro::ecgraph::engine::DistributedEngine::new(
        Arc::clone(&data),
        adjs.clone(),
        (*partition).clone(),
        config,
    );
    engine.run_epoch();
    engine.run_epoch();
    let weights = engine.inference_model();

    let mut sc = ServeConfig::defaults(4);
    sc.telemetry = TelemetryConfig::at(level);
    sc.faults = faults;
    let mut svc = InferenceService::new(weights, data, adjs, partition, sc);
    let workload = WorkloadConfig { total_requests: 300, seed: 17, ..WorkloadConfig::defaults() };
    run_closed_loop(&mut svc, &workload)
}

/// The serving stack obeys the same discipline: a closed-loop run's
/// canonical `ServeReport` JSON must be byte-identical with telemetry off
/// and at every recording level, while the non-Off runs actually attach
/// the serving metrics — the request-level histograms included.
#[test]
fn serve_telemetry_levels_never_change_the_report() {
    let off = serve_run(TelemetryLevel::Off, FaultPlan::none());
    assert!(off.telemetry.is_none(), "Off must not attach a report");
    let base = off.to_json().to_string();
    for level in [TelemetryLevel::Epoch, TelemetryLevel::Superstep, TelemetryLevel::Trace] {
        let r = serve_run(level, FaultPlan::none());
        let report = r
            .telemetry
            .as_ref()
            .unwrap_or_else(|| panic!("{} run must attach a telemetry report", level.as_str()));
        for name in [
            "serve.cache_hit",
            "serve.batch_occupancy",
            "serve.latency_p99",
            "serve.qps",
            "serve.cache_hit_rate",
            "serve.queue_wait_s",
            "serve.fetch_s",
            "serve.compute_s",
            "serve.latency_log2",
        ] {
            assert!(
                report.rows_named(name).next().is_some(),
                "{} report must carry {name}",
                level.as_str()
            );
        }
        assert_eq!(
            r.to_json().to_string(),
            base,
            "serve report diverged between Off and {}",
            level.as_str()
        );
    }
}

/// The serving-side invariance must also hold with the fault injector
/// live (message drops plus a straggler), and the request spans must
/// actually land on the traced run.
#[test]
fn serve_telemetry_is_inert_under_fault_injection() {
    let faults = FaultPlan::uniform_drop(13, 0.05).with_straggler(0, 2.0);
    let off = serve_run(TelemetryLevel::Off, faults.clone());
    assert!(off.telemetry.is_none(), "Off must not attach a report");
    let base = off.to_json().to_string();
    let traced = serve_run(TelemetryLevel::Trace, faults.clone());
    assert_eq!(
        traced.to_json().to_string(),
        base,
        "fault-injected serve report diverged between Off and Trace telemetry"
    );
    let report = traced.telemetry.expect("Trace run must attach a telemetry report");
    for name in ["serve:queue", "serve:fetch", "serve:compute"] {
        assert!(
            report.spans.iter().any(|s| s.name == name),
            "request-level span {name} must be recorded"
        );
    }
    // Not vacuous: the straggler must actually slow the simulated run.
    let clean = serve_run(TelemetryLevel::Off, FaultPlan::none()).to_json().to_string();
    assert_ne!(base, clean, "fault plan had no observable effect on serving");
}
