//! The end-to-end run: what a user of the system sees. Benchmark spans
//! off, telemetry off, sequential compute (see the README for why the
//! bounded metrics are taken on one thread), output checks on.

use crate::report::{Check, Metrics, RunResult};
use crate::serve::{self, ServeRun};
use crate::setup::{build, new_engine, Built, Inputs};
use crate::stats::best;
use crate::trace::Tracer;
use crate::train::{self, TrainRun};
use crate::workloads::{Workload, T_TR};
use ec_graph::config::ComputeConfig;
use ec_graph::{BpMode, FpMode};
use ec_trace::TelemetryLevel;
use std::time::Instant;

/// Times the whole set-up is repeated; `setup_s` is the best of them.
pub const SETUP_REPS: usize = 5;

/// Share of `--seconds` given to the training half; serving gets the rest.
pub const TRAIN_SHARE: f64 = 0.6;

/// `(worker_threads, kernel_threads)` a CLI user's default resolves to.
pub fn threads_resolved(w: &Workload) -> (usize, usize) {
    ComputeConfig::default().resolve(w.workers)
}

/// Bytes per epoch of `w`'s exact twin (same graph, model and seed,
/// `FpMode::Exact` / `BpMode::Exact`), split `(fp + bp, total)`. Exact
/// traffic is the same every epoch, so one epoch measures it.
pub fn exact_twin_bytes(w: &Workload, inputs: &Inputs, seed: u64) -> (u64, u64) {
    let twin = Workload { fp: FpMode::Exact, bp: BpMode::Exact, ..*w };
    let mut engine =
        new_engine(&twin, inputs, seed, ComputeConfig::sequential(), TelemetryLevel::Off);
    let traffic = engine.run_epoch().traffic;
    (traffic.fp_bytes + traffic.bp_bytes, traffic.total_bytes())
}

/// Checks every run makes on the two halves' outputs.
pub fn common_checks(train: &TrainRun, serve: &ServeRun, checks: &mut Vec<Check>) {
    checks.push(Check {
        name: "losses_finite",
        ok: train.nonfinite == 0,
        detail: format!(
            "{} of {} epochs had a finite loss",
            train.epochs - train.nonfinite,
            train.epochs
        ),
    });
    checks.push(Check {
        name: "train_repetitions_identical",
        ok: train.reps_identical,
        detail: format!(
            "{} repetitions from one snapshot, loss and traffic bit for bit",
            train.reps
        ),
    });
    checks.push(Check {
        name: "issued_equals_served",
        ok: serve.issued == serve.served,
        detail: format!("issued {} served {}", serve.issued, serve.served),
    });
    checks.push(Check {
        name: "serve_repetitions_identical",
        ok: serve.reps_identical,
        detail: format!("{} repetitions, identical ServeReport JSON", serve.loop_s.len()),
    });
}

/// The default-thread engine must reproduce the sequential run's loss and
/// accuracy sequence bit for bit over the first trend group (which ends on
/// a trend boundary). Vacuous — and skipped — when the default resolves to
/// one thread.
fn check_threads_identical(w: &Workload, inputs: &Inputs, seed: u64, train: &TrainRun) -> Check {
    let name = "default_threads_bit_identical";
    let resolved = threads_resolved(w);
    if resolved == (1, 1) {
        return Check { name, ok: true, detail: "skipped: default resolves to 1 thread".into() };
    }
    let mut engine = new_engine(w, inputs, seed, ComputeConfig::default(), TelemetryLevel::Off);
    let mut same = 0;
    for reference in &train.first[..T_TR] {
        let loss = engine.run_epoch().loss;
        let eval = engine.evaluate();
        let expect = reference.eval.expect("first trend group is evaluated");
        if loss.to_bits() == reference.loss.to_bits()
            && eval.val.to_bits() == expect.val.to_bits()
            && eval.test.to_bits() == expect.test.to_bits()
        {
            same += 1;
        }
    }
    Check {
        name,
        ok: same == T_TR,
        detail: format!(
            "{same} of {T_TR} epochs equal the sequential loss/val/test at {}x{} threads",
            resolved.0, resolved.1
        ),
    }
}

/// One end-to-end run of `w`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let wall = Instant::now();
    let mut tracer = Tracer::new(w.name, false);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let b = build(w, seed, &mut tracer);
        setup_s.push(b.stages.total_s());
        built = Some(b);
    }
    let Built { inputs, mut engine, epoch0, model, service, .. } = built.expect("SETUP_REPS > 0");

    let train = train::run_reps(&mut engine, &epoch0, w, seconds * TRAIN_SHARE, T_TR, &mut tracer);
    let serve = serve::run_reps(
        service,
        w,
        &inputs,
        &model,
        seed,
        seconds * (1.0 - TRAIN_SHARE),
        &mut tracer,
    );

    let mut m = Metrics::default();
    let wire_bytes = train.mean_over_budget(|s| s.traffic.total_bytes() as f64);
    let requests = serve.report.served.max(1) as f64;
    m.put_n("setup_s", best(&setup_s), setup_s.len(), "best of whole set-ups");
    let how = "lowest sample per trend-cycle position, averaged";
    m.put_n("epoch_host_s", train.epoch_host_s(), train.measured.len(), how);
    m.put_n("epoch_sim_s", train.epoch_sim_s(), train.measured.len(), how);
    m.put_n("epoch_wire_bytes", wire_bytes, train.first.len(), "mean over the epoch budget");
    m.put_n("test_acc", train.final_eval.test, 0, &format!("after {} epochs", w.epochs));
    m.put_n(
        "req_host_us",
        best(&serve.loop_s) / requests * 1e6,
        serve.loop_s.len(),
        "best repetition",
    );
    m.put_n("req_sim_p50_ms", serve.report.latency_p50_s * 1e3, requests as usize, "");
    m.put_n("req_sim_p99_ms", serve.report.latency_p99_s * 1e3, requests as usize, "");
    m.put("sim_qps", serve.report.qps_total);
    m.put("req_wire_bytes", serve.report.network_bytes as f64 / requests);

    let mut checks = Vec::new();
    common_checks(&train, &serve, &mut checks);
    checks.push(check_threads_identical(w, &inputs, seed, &train));
    if w.compressed() {
        let (_, twin_total) = exact_twin_bytes(w, &inputs, seed);
        checks.push(Check {
            name: "fewer_bytes_than_exact_twin",
            ok: wire_bytes < twin_total as f64,
            detail: format!("{wire_bytes:.0} B/epoch against {twin_total} B/epoch exact"),
        });
    }
    let (rows_check, bad_rows) = serve::check_sampled_rows(w, &inputs, &model, seed, &mut tracer);
    checks.push(rows_check);

    let failed_ops = train.nonfinite + (serve.issued - serve.served.min(serve.issued)) + bad_rows;
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    RunResult {
        workload: w.name,
        seed,
        traced: false,
        seconds,
        threads_resolved: threads_resolved(w),
        wall_s: wall.elapsed().as_secs_f64(),
        attempted: train.epochs + serve.issued,
        failed: failed_ops + failed_checks,
        checks,
        metrics: m,
    }
}
