//! The traced run: the same workload again with the benchmark's spans and
//! the counting allocator on, sequential compute so shares add up, plus
//! the layer replays. It yields every per-layer row and the span file;
//! end-to-end metrics never come from here.

use crate::e2e::{common_checks, exact_twin_bytes, threads_resolved, TRAIN_SHARE};
use crate::layers;
use crate::report::{Metrics, RunResult};
use crate::setup::{build, load_config, new_engine, new_service, out_dir, Built, Inputs};
use crate::stats::{best, mean, median, tail};
use crate::trace::Tracer;
use crate::workloads::{Workload, T_TR};
use crate::{alloc, serve, train};
use ec_graph::config::ComputeConfig;
use ec_graph::context::build_worker_contexts;
use ec_graph::engine::EngineSnapshot;
use ec_partition::metrics as partition_metrics;
use ec_serve::run_closed_loop;
use ec_trace::{MetricValue, TelemetryLevel};
use std::time::Instant;

/// Epochs each arm of the steady-state comparison (untraced reference,
/// benchmark spans, telemetry levels, default threads) runs, all restarted
/// from the same snapshot taken after the first trend group: one whole
/// trend cycle.
const STEADY_EPOCHS: usize = T_TR;

/// Share of `--seconds` the traced repetitions of each half may use (one
/// repetition of each always runs); the replays are fixed work.
const TRACED_SHARE: f64 = 0.3;

/// Most direct `answer_batch` calls replayed (the replay otherwise covers
/// as many batches as the closed loop dispatched, so its cache warms the
/// same way).
const DIRECT_BATCHES: usize = 40_000;

/// One arm of the steady-state comparison.
struct Arm {
    compute: ComputeConfig,
    level: TelemetryLevel,
    /// Whether the benchmark's spans and allocation counting are on.
    observed: bool,
}

/// What one arm measured.
struct ArmRun {
    /// Host seconds of each epoch of the cycle.
    host_s: Vec<f64>,
    /// Mean `phase.pack` / `phase.unpack` gauges, when the arm's telemetry
    /// level records them.
    pack_unpack: Option<(f64, f64)>,
}

/// Runs `STEADY_EPOCHS` epochs from `steady` on one fresh engine per arm,
/// in lockstep — epoch `k` of every arm before epoch `k + 1` of any — so
/// that the arms' samples of one epoch are taken within a fraction of a
/// second of each other and share whatever the host is doing. Leaves spans
/// and counting off.
fn steady_lockstep(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    steady: &EngineSnapshot,
    arms: &[Arm],
    tracer: &mut Tracer,
) -> Vec<ArmRun> {
    let mut engines: Vec<_> = arms
        .iter()
        .map(|arm| {
            let mut engine = new_engine(w, inputs, seed, arm.compute, arm.level);
            engine.restore(steady).expect("restore steady-state snapshot");
            engine
        })
        .collect();
    let mut host_s = vec![Vec::with_capacity(STEADY_EPOCHS); arms.len()];
    for _ in 0..STEADY_EPOCHS {
        for ((arm, engine), secs) in arms.iter().zip(&mut engines).zip(&mut host_s) {
            tracer.set_keep(arm.observed);
            alloc::set_enabled(arm.observed);
            secs.push(tracer.timed("core", "run_epoch", || engine.run_epoch()).1);
        }
    }
    tracer.set_keep(false);
    alloc::set_enabled(false);
    let gauges = engines.iter().map(|engine| {
        let report = engine.take_telemetry()?;
        let series = |name: &str| -> Vec<f64> {
            report
                .rows_named(name)
                .filter_map(|r| match r.value {
                    MetricValue::Gauge(v) => Some(v),
                    _ => None,
                })
                .collect()
        };
        let (pack, unpack) = (series("phase.pack"), series("phase.unpack"));
        (!pack.is_empty()).then(|| (mean(&pack), mean(&unpack)))
    });
    host_s
        .into_iter()
        .zip(gauges)
        .map(|(host_s, pack_unpack)| ArmRun { host_s, pack_unpack })
        .collect()
}

/// Median over the cycle's epochs of `arm[k] / reference[k]`: one noisy
/// epoch on either side moves one ratio, not the result.
fn paired_ratio(arm: &[f64], reference: &[f64]) -> f64 {
    median(&arm.iter().zip(reference).map(|(a, r)| a / r).collect::<Vec<_>>())
}

/// One traced run of `w`; writes the span file before returning.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let wall = Instant::now();
    let mut tracer = Tracer::new(w.name, true);
    alloc::reset_peak();
    alloc::set_enabled(true);
    let mut m = Metrics::default();
    let resolved = threads_resolved(w);
    let multi = resolved != (1, 1);

    // ---- set-up layers ---------------------------------------------------
    let Built { inputs, mut engine, epoch0, model, service, stages } = build(w, seed, &mut tracer);
    m.put("graph.generate_ms", stages.generate_s * 1e3);
    m.put("graph.normalize_ms", stages.normalize_s * 1e3);
    m.put("partition.hash_ms", stages.partition_s * 1e3);
    let graph = &inputs.data.graph;
    m.put(
        "partition.edge_cut_fraction",
        partition_metrics::edge_cut_fraction(graph, &inputs.partition),
    );
    m.put(
        "partition.avg_remote_degree",
        partition_metrics::avg_remote_degree(graph, &inputs.partition),
    );
    m.put("core.engine_new_ms", stages.engine_new_s * 1e3);
    m.put("serve.model_load_ms", stages.model_load_s * 1e3);
    m.put("serve.service_new_ms", stages.service_new_s * 1e3);

    // ---- traced training repetitions --------------------------------------
    let budget = seconds * TRACED_SHARE;
    let train =
        train::run_reps(&mut engine, &epoch0, w, budget * TRAIN_SHARE, w.epochs, &mut tracer);
    let host_seq = train.epoch_host_s();
    let samples = train.measured.len();
    m.put_n("core.epoch_host_seq_s", host_seq, samples, "traced; estimator as epoch_host_s");
    m.put_n("core.epoch_sim_seq_s", train.epoch_sim_s(), samples, "");
    let host_s: Vec<f64> = train.measured.iter().map(|s| s.1).collect();
    let (p, value) = tail(&host_s);
    m.put_n("core.epoch_host_tail_s", value, samples, &format!("p{}", p * 100.0));
    m.put("core.compute_s_per_epoch", train.mean_over_budget(|s| s.compute_s));
    m.put("core.comm_s_per_epoch", train.mean_over_budget(|s| s.comm_s));
    m.put("core.fp_bytes_per_epoch", train.mean_over_budget(|s| s.traffic.fp_bytes as f64));
    m.put("core.bp_bytes_per_epoch", train.mean_over_budget(|s| s.traffic.bp_bytes as f64));
    m.put("core.param_bytes_per_epoch", train.mean_over_budget(|s| s.traffic.param_bytes as f64));
    let messages = train.mean_over_budget(|s| s.traffic.messages as f64);
    m.put("core.messages_per_epoch", messages);
    let (to_target, reached) = train.time_to_target_sim_s(w.target_val_acc);
    let note = if reached { "reached" } else { "NOT reached: budget total, a lower bound" };
    m.put_n(
        "core.time_to_target_sim_s",
        to_target,
        0,
        &format!("validation accuracy {} {note}", w.target_val_acc),
    );
    let bits: Vec<f64> = engine
        .fp_bits()
        .iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.iter().enumerate().filter(move |(j, _)| *j != i).map(|(_, &b)| b as f64)
        })
        .collect();
    m.put_n("core.bits_mean", mean(&bits), bits.len(), "fp_bits() over links after the budget");
    m.put_n("core.evaluate_ms", best(&train.evaluate_s) * 1e3, train.evaluate_s.len(), "");
    m.put("alloc.count_per_epoch", train.mean_over_budget(|s| s.allocs.count as f64));
    m.put("alloc.bytes_per_epoch", train.mean_over_budget(|s| s.allocs.bytes as f64));
    let snapshots: Vec<f64> =
        (0..3).map(|_| tracer.timed("core", "snapshot", || engine.snapshot()).1 * 1e3).collect();
    m.put_n("core.snapshot_ms", best(&snapshots), snapshots.len(), "");
    let restores: Vec<f64> = (0..3)
        .map(|_| tracer.timed("core", "restore", || engine.restore(&epoch0)).1 * 1e3)
        .collect();
    m.put_n("core.restore_ms", best(&restores), restores.len(), "");

    // ---- layer replays ---------------------------------------------------
    let contexts = build_worker_contexts(&inputs.adjs, &inputs.partition);
    let kernels_s = layers::tensor(&mut m, w, &inputs, &contexts, &mut tracer);
    layers::compress(&mut m, w, &inputs, &contexts, &mut tracer);
    let exchange =
        layers::exchange(&mut m, w, &inputs, &contexts, &mut engine, &epoch0, &mut tracer);
    let (send_s, ps_step_s) = layers::comm(&mut m, w, &inputs, &contexts, &mut tracer);
    layers::host(&mut m, &mut tracer);
    let explained = kernels_s + exchange.exchange_s_per_epoch + messages * send_s + ps_step_s;
    m.put_n(
        "core.unattributed_s_per_epoch",
        host_seq - explained,
        0,
        "epoch_host_seq_s - kernels - exchange - messages*send - ps_step",
    );
    let (twin_payload, _) = exact_twin_bytes(w, &inputs, seed);
    let payload = train.mean_over_budget(|s| (s.traffic.fp_bytes + s.traffic.bp_bytes) as f64);
    m.put_n(
        "compress.ratio",
        payload / twin_payload as f64,
        0,
        "fp+bp bytes over the exact twin's",
    );

    // ---- traced serving repetitions ---------------------------------------
    let serve = serve::run_reps(
        service,
        w,
        &inputs,
        &model,
        seed,
        budget * (1.0 - TRAIN_SHARE),
        &mut tracer,
    );
    let report = &serve.report;
    let requests = report.served.max(1) as f64;
    let (hits, misses) = report
        .per_worker
        .iter()
        .fold((0u64, 0u64), |(h, mi), s| (h + s.cache_hits, mi + s.cache_misses));
    let batches: u64 = report.per_worker.iter().map(|s| s.batches).sum();
    m.put("serve.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    m.put("serve.fetch_rows_per_req", report.fetch_rows as f64 / requests);
    m.put("serve.fetch_bytes_per_req", report.fetch_bytes as f64 / requests);
    let mean_batch = requests / batches.max(1) as f64;
    m.put("serve.mean_batch", mean_batch);
    m.put("alloc.count_per_req", serve.allocs.count as f64 / requests);
    m.put("alloc.bytes_per_req", serve.allocs.bytes as f64 / requests);

    let mut direct = new_service(w, &inputs, &model, TelemetryLevel::Off);
    let batch = (mean_batch.round() as usize).max(1);
    let calls = DIRECT_BATCHES.min(batches.max(1) as usize);
    let batch_s = layers::answer_batches(&mut direct, w, seed, batch, calls, &mut tracer);
    layers::put_answer_batch(&mut m, &batch_s);
    let in_batches = mean(&batch_s) * batches as f64;
    m.put_n(
        "serve.loop_share",
        1.0 - in_batches / serve.loop_s[0],
        batch_s.len(),
        "1 - mean direct answer_batch * batches / run_closed_loop wall",
    );
    layers::serve_micro(&mut m, w, &inputs, &model, &mut direct, &mut tracer);

    m.put("alloc.peak_bytes", alloc::peak_bytes() as f64);

    // ---- steady-state comparisons, all from one snapshot -------------------
    let seq = ComputeConfig::sequential();
    let off = TelemetryLevel::Off;
    let levels = ["epoch", "superstep", "trace"];
    let mut arms = vec![
        Arm { compute: seq, level: off, observed: false },
        Arm { compute: seq, level: off, observed: true },
    ];
    for level in levels {
        let level = level.parse().expect("known level");
        arms.push(Arm { compute: seq, level, observed: false });
    }
    if multi {
        arms.push(Arm { compute: ComputeConfig::default(), level: off, observed: false });
    }
    let steady = steady_lockstep(w, &inputs, seed, &exchange.steady, &arms, &mut tracer);
    let reference = &steady[0].host_s;
    m.put_n(
        "bench.trace_overhead",
        paired_ratio(&steady[1].host_s, reference) - 1.0,
        STEADY_EPOCHS,
        "spans + counting allocator",
    );
    for (level, arm) in levels.iter().zip(&steady[2..]) {
        let name = format!("telemetry.overhead_{level}");
        m.put_n(&name, paired_ratio(&arm.host_s, reference) - 1.0, STEADY_EPOCHS, "");
        if *level == "superstep" {
            let (pack, unpack) = arm.pack_unpack.expect("superstep level records the phase gauges");
            m.put("core.pack_s_per_epoch", pack);
            m.put("core.unpack_s_per_epoch", unpack);
        }
    }
    if multi {
        let threaded = &steady[steady.len() - 1].host_s;
        let note = format!("{}x{} threads", resolved.0, resolved.1);
        m.put_n("core.epoch_host_mt_s", mean(threaded), STEADY_EPOCHS, &note);
        m.put_n("core.thread_speedup", paired_ratio(reference, threaded), STEADY_EPOCHS, &note);
    }

    // Serving telemetry overhead on a quarter of the requests: best of
    // three alternating loops per level.
    let mut load = load_config(w, seed);
    load.total_requests = (load.total_requests / 4).max(1);
    let mut loop_s = |level: TelemetryLevel| {
        let mut svc = new_service(w, &inputs, &model, level);
        tracer.timed("serve", "run_closed_loop", || run_closed_loop(&mut svc, &load)).1
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        untraced.push(loop_s(off));
        traced.push(loop_s(TelemetryLevel::Trace));
    }
    m.put_n("telemetry.serve_overhead_trace", best(&traced) / best(&untraced) - 1.0, 3, "");

    let mut checks = Vec::new();
    common_checks(&train, &serve, &mut checks);
    let spans_path = out_dir().join(format!("trace-{}.json", w.name));
    std::fs::write(&spans_path, tracer.to_json().to_string()).expect("write span file");
    println!("{} spans {} written to {}", w.name, tracer.spans().len(), spans_path.display());
    for (layer, secs) in tracer.self_time_by_layer() {
        println!("{} self_time.{layer} {secs} s", w.name);
    }

    let failed_ops = train.nonfinite + (serve.issued - serve.served.min(serve.issued));
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    RunResult {
        workload: w.name,
        seed,
        traced: true,
        seconds,
        threads_resolved: resolved,
        wall_s: wall.elapsed().as_secs_f64(),
        attempted: train.epochs + serve.issued,
        failed: failed_ops + failed_checks,
        checks,
        metrics: m,
    }
}
