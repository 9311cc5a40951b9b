//! The serving half: repetitions of one closed loop, each on a fresh
//! service so every repetition starts from the same cold cache, plus the
//! check that served rows equal the full forward pass.

use crate::alloc;
use crate::report::Check;
use crate::setup::{load_config, new_service, Inputs};
use crate::trace::Tracer;
use crate::workloads::{Workload, SAMPLED_ROWS};
use ec_compress::Quantized;
use ec_graph::infer::ModelWeights;
use ec_serve::loadgen::ZipfSampler;
use ec_serve::{run_closed_loop, InferenceService, ServeReport};
use ec_tensor::Matrix;
use ec_trace::TelemetryLevel;
use rand::{rngs::SmallRng, SeedableRng};
use std::time::Instant;

/// The repetitions of one serving phase.
pub struct ServeRun {
    /// The first repetition's report (simulated quantities repeat exactly).
    pub report: ServeReport,
    /// Host seconds of each `run_closed_loop` call.
    pub loop_s: Vec<f64>,
    /// Requests issued over all repetitions.
    pub issued: u64,
    /// Requests served over all repetitions.
    pub served: u64,
    /// Whether every later repetition's report equalled the first's.
    pub reps_identical: bool,
    /// Heap allocations inside the first `run_closed_loop` (zero unless a
    /// traced run switched the counting allocator on).
    pub allocs: alloc::Snapshot,
}

/// Runs the closed loop on `first` (the service set-up built), then on
/// fresh services while another repetition is expected to end within
/// `budget_s`.
pub fn run_reps(
    first: InferenceService,
    w: &Workload,
    inputs: &Inputs,
    model: &ModelWeights,
    seed: u64,
    budget_s: f64,
    tracer: &mut Tracer,
) -> ServeRun {
    tracer.enter("bench", "serve_phase");
    let phase = Instant::now();
    let load = load_config(w, seed);
    let one_loop = |service: &mut InferenceService, tracer: &mut Tracer| {
        let before = alloc::snapshot();
        let (report, secs) =
            tracer.timed("serve", "run_closed_loop", || run_closed_loop(service, &load));
        tracer.count_last(report.served);
        (report, secs, alloc::since(before))
    };
    let mut service = first;
    let mut rep_start = phase;
    let (report, secs, allocs) = one_loop(&mut service, tracer);
    let mut run = ServeRun {
        issued: report.issued,
        served: report.served,
        report,
        loop_s: vec![secs],
        reps_identical: true,
        allocs,
    };
    loop {
        // The next repetition's service is built inside this repetition's
        // time, so that the budget check prices a whole repetition.
        service = tracer
            .timed("serve", "service_new", || new_service(w, inputs, model, TelemetryLevel::Off))
            .0;
        let rep_s = rep_start.elapsed().as_secs_f64();
        if phase.elapsed().as_secs_f64() + rep_s > budget_s {
            break;
        }
        rep_start = Instant::now();
        let (report, secs, _) = one_loop(&mut service, tracer);
        run.issued += report.issued;
        run.served += report.served;
        run.loop_s.push(secs);
        run.reps_identical &= report.to_json().to_string() == run.report.to_json().to_string();
    }
    tracer.exit();
    run
}

/// Compares `SAMPLED_ROWS` served rows against `ModelWeights::forward`:
/// bit for bit with exact fetches; with `b`-bit fetches within the bound
/// the per-row `Quantized::max_error` of each remote neighbour implies for
/// that output row. Returns the check and the number of rows that failed.
pub fn check_sampled_rows(
    w: &Workload,
    inputs: &Inputs,
    model: &ModelWeights,
    seed: u64,
    tracer: &mut Tracer,
) -> (Check, u64) {
    let mut service = new_service(w, inputs, model, TelemetryLevel::Off);
    let n = inputs.data.num_vertices();
    let reference = model.forward(&inputs.adjs, &inputs.data.features, 1);
    // The rows the store serves from, to derive each fetched row's bound.
    let hidden =
        model.forward_through(&inputs.adjs, &inputs.data.features, model.num_layers() - 1, 1);
    let (w_last, _) = model.layer(model.num_layers() - 1);
    let col_abs_sum: Vec<f32> = (0..w_last.cols())
        .map(|j| (0..w_last.rows()).map(|k| w_last.get(k, j).abs()).sum())
        .collect();
    let adj = &inputs.adjs[model.num_layers() - 1];

    let zipf = ZipfSampler::new(n, w.serve.zipf, seed ^ 0xC0FFEE);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    let rows = SAMPLED_ROWS.min(n);
    let (mut bad, mut worst) = (0u64, 0.0f32);
    for _ in 0..rows {
        let v = zipf.sample(&mut rng);
        let worker = service.route(v as usize);
        let (answer, _) =
            tracer.timed("serve", "answer_batch", || service.answer_batch(worker, &[v]));
        let Ok((out, _)) = answer else {
            bad += 1;
            continue;
        };
        let expect = reference.row(v as usize);
        let row_ok = match w.serve.fetch_bits {
            None => out.row(0).iter().zip(expect).all(|(a, b)| a.to_bits() == b.to_bits()),
            Some(bits) => {
                // |Δout_j| ≤ Σ_c a_vc · e_c · Σ_k |W_kj| over remote
                // neighbours c, e_c the row's half bucket width.
                let slack: f32 = adj
                    .row_entries(v as usize)
                    .filter(|&(c, _)| inputs.partition.part_of(c) != worker)
                    .map(|(c, a)| {
                        let row = Matrix::from_vec(1, hidden.cols(), hidden.row(c).to_vec());
                        a.abs() * Quantized::compress(&row, bits).max_error()
                    })
                    .sum();
                out.row(0).iter().zip(expect).zip(&col_abs_sum).all(|((a, b), s)| {
                    let err = (a - b).abs();
                    worst = worst.max(err);
                    err <= slack * s * 1.001 + 1e-5
                })
            }
        };
        if !row_ok {
            bad += 1;
        }
    }
    let mode = match w.serve.fetch_bits {
        None => "bit-identical to ModelWeights::forward".to_string(),
        Some(bits) => format!("within the {bits}-bit max_error bound, worst |err| {worst:.3e}"),
    };
    let check = Check {
        name: "served_rows_match_forward",
        ok: bad == 0,
        detail: format!("{} of {rows} sampled rows {mode}", rows as u64 - bad),
    };
    (check, bad)
}
