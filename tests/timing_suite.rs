//! Superstep accounting on measured (non-zero) compute seconds.
//!
//! Every other suite that looks at telemetry runs under
//! `set_deterministic_timing(true)`, where each compute second is 0 and the
//! scale / max / idle arithmetic is never checked on values. That flag is
//! process-wide, so this binary must never set it: the one test here runs
//! with the real host clock and asserts only relations between numbers the
//! public report carries, never the numbers themselves.

use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::{BpMode, FpMode, TrainingConfig};
use ec_graph_repro::ecgraph::DistributedEngine;
use ec_graph_repro::faults::FaultPlan;
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::Partitioner;
use ec_graph_repro::trace::{SpanEvent, TelemetryConfig, TelemetryLevel, NO_INDEX};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn superstep_gauges_spans_and_epoch_stats_agree_on_measured_time() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(300, 16, 3));
    let config = TrainingConfig {
        dims: vec![16, 12, 8, data.num_classes],
        num_workers: 3,
        fp_mode: FpMode::ReqEc { bits: 4, t_tr: 10, adaptive: false },
        bp_mode: BpMode::ResEc { bits: 4 },
        faults: FaultPlan::none().with_straggler(0, 2.0),
        telemetry: TelemetryConfig::at(TelemetryLevel::Trace),
        seed: 2,
        ..TrainingConfig::defaults(16, data.num_classes)
    };
    let adj = Arc::new(ec_graph_repro::data::normalize::gcn_normalized_adjacency(&data.graph));
    let partition = HashPartitioner::default().partition(&data.graph, config.num_workers);
    let mut engine = DistributedEngine::new(data, vec![adj; 3], partition, config);
    let stats: Vec<_> = (0..2).map(|_| engine.run_epoch()).collect();
    let rep = engine.take_telemetry().expect("Trace level yields a report");

    let end = |s: &SpanEvent| s.start_s + s.dur_s;
    for (e, st) in stats.iter().enumerate() {
        assert!(st.compute_s > 0.0, "real timing must measure something");
        let spans: Vec<&SpanEvent> = rep.spans.iter().filter(|s| s.epoch == e as i64).collect();
        let compute = || spans.iter().filter(|s| s.name.ends_with(":compute"));
        // Steps are keyed by superstep index; the un-indexed loss step is
        // the one at `NO_INDEX`.
        let steps: BTreeSet<i64> = compute().map(|s| s.superstep).collect();
        assert_eq!(steps.len(), 3 + 1 + 3, "three FP, the loss and three BP steps");
        let mut step_sum = 0.0;
        for ss in steps {
            let longest = compute()
                .filter(|s| s.superstep == ss)
                .max_by(|a, b| a.dur_s.total_cmp(&b.dur_s))
                .expect("the key came from a span");
            step_sum += longest.dur_s;
            if ss != NO_INDEX {
                let gauge = rep.gauge("superstep.compute", &[e as u32, ss as u32]);
                assert_eq!(gauge, Some(longest.dur_s), "epoch {e} superstep {ss}");
            }
            // Everyone else waits exactly until the longest worker is done.
            for wait in spans.iter().filter(|s| s.name == "idle:wait" && s.superstep == ss) {
                assert!((end(wait) - end(longest)).abs() < 1e-12, "{wait:?} vs {longest:?}");
                assert_ne!(wait.worker, longest.worker);
            }
        }
        let phase = rep.gauge("phase.compute", &[e as u32]).expect("epoch-level gauge");
        assert!((phase - step_sum).abs() < 1e-12, "epoch {e}: {phase} vs {step_sum}");
        assert_eq!(phase, st.compute_s);

        let epoch_span = spans.iter().find(|s| s.name == "epoch").expect("one per epoch");
        let (dur, sim) = (epoch_span.dur_s, st.sim_time());
        assert!((dur - sim).abs() < 1e-12, "epoch {e}: span {dur} vs stats {sim}");
    }
    assert_eq!(rep.rows_named("superstep.compute").count(), 2 * 6, "the loss step has no row");
    assert!(rep.spans.iter().any(|s| s.name == "idle:wait"), "three workers never tie throughout");
    assert_eq!(rep.gauge("faults.straggler_factor", &[0, 0]), Some(2.0));
}

/// The guard against silent de-vectorisation (`ec_tensor::isa`, "the trap"):
/// a kernel body that is not inlined into its `#[target_feature]` entry
/// point — a non-inlined closure between `dispatch` and the arithmetic is
/// enough — compiles, passes every bit-identity test and runs as baseline
/// code behind a call, slower than before. One dense product, one codec pass
/// and the ReqEC step (decode `Ĥ_cps`, then the Selector sweep over a
/// message on which all three candidates win rows) at 64 and 16 columns,
/// timed per tier the host supports; a wider tier that loses to the baseline
/// tier (for the 64-column sweep: that does not beat it) fails.
/// Timing-sensitive, so ignored by default:
/// `scripts/check.sh --perf-smoke` runs it on the release build.
#[test]
#[ignore = "timing guard; scripts/check.sh --perf-smoke runs it in release"]
fn wider_tiers_are_not_slower_than_the_baseline_tier() {
    use ec_graph_repro::comm::clock::HostTimer;
    use ec_graph_repro::compress::{Quantized, RangeBlock};
    use ec_graph_repro::ecgraph::fp::{self, SelectorSweep, TrendState};
    use ec_graph_repro::tensor::isa::{self, Tier};
    use ec_graph_repro::tensor::{ops, Matrix};
    use std::hint::black_box;

    let wave = |rows: usize, cols: usize| {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) as f32 * 0.37).sin() + 1.5)
    };
    // Reddit's layer-1 product on one worker block, and a 64-wide message.
    let (a, b, message) = (wave(336, 602), wave(602, 16), wave(336, 64));
    let mut out = vec![0.0f32; a.rows() * b.cols()];
    // A trend group two boundaries old and the message of the step after:
    // rows drift at their own rate with row-dependent noise, so quiet rows
    // are predicted, noisy ones compress and the rest average.
    let reqec_case = |cols: usize| {
        let at = |t: usize| {
            Matrix::from_fn(336, cols, |r, c| {
                let noise = ((r * 13 + c * 7 + t * 29) as f32 * 0.61).sin();
                ((r * 31 + c * 17) as f32 * 0.37).sin()
                    + 0.02 * (r % 5) as f32 * t as f32
                    + [0.0, 0.06, 0.4][r % 3] * noise
            })
        };
        let mut trend = TrendState::default();
        fp::reqec_step(&mut trend, &at(0), 4, 4, 0);
        fp::reqec_step(&mut trend, &at(3), 4, 4, 3);
        let mixed = fp::reqec_step(&mut trend.clone(), &at(4), 4, 4, 4).selected;
        assert!(mixed.iter().all(|&n| n >= 20), "a mixed selection, got {mixed:?}");
        let packed = Quantized::compress(&at(4), 4);
        (trend, at(4), packed)
    };
    let cases = [reqec_case(64), reqec_case(16)];
    let mut cps = cases.each_ref().map(|(_, h, _)| Matrix::zeros(h.rows(), h.cols()));
    // Seconds of one sample of measurement `kind` at `tier`: the product,
    // one 4-bit compress, and the ReqEC step at 64 and at 16 columns.
    let mut sample = |kind: usize, tier: Tier| {
        let timer = HostTimer::start();
        match kind {
            0 => {
                out.fill(0.0);
                isa::dispatch_on(tier, ops::matmul_kernel(black_box(&a), &b, 0, &mut out));
            }
            1 => {
                for _ in 0..20 {
                    let message = black_box(&message);
                    black_box(Quantized::compress_at(tier, message, 4, RangeBlock::Message));
                }
            }
            _ => {
                let ((trend, h, packed), cps) = (&cases[kind - 2], &mut cps[kind - 2]);
                let (Some(base), Some(m_cr), _) = trend.to_parts() else {
                    unreachable!("two boundaries set the trend group")
                };
                for _ in 0..20 {
                    packed.decompress_into_at(tier, cps.as_mut_slice());
                    let out = cps.as_mut_slice();
                    let sweep = SelectorSweep { base, m_cr, k: 1.0, h_rows: h, out };
                    black_box(isa::dispatch_on(tier, sweep));
                }
            }
        }
        timer.elapsed_s() / if kind == 0 { 1.0 } else { 20.0 }
    };
    // Best of 20, sampled round-robin: each repetition takes every
    // measurement at every tier in turn, so a burst from the host lands on
    // all tiers alike rather than on one tier's whole series.
    let tiers: Vec<Tier> = Tier::supported().collect();
    let mut best = vec![[f64::INFINITY; 4]; tiers.len()];
    for _ in 0..20 {
        for kind in 0..4 {
            for (best, &tier) in best.iter_mut().zip(&tiers) {
                best[kind] = best[kind].min(sample(kind, tier));
            }
        }
    }
    let rows: Vec<(Tier, f64, f64, [f64; 2])> =
        tiers.iter().zip(&best).map(|(&tier, b)| (tier, b[0], b[1], [b[2], b[3]])).collect();

    println!(
        "{:<8}{:>24}{:>22}{:>25}{:>25}",
        "tier",
        "A·B 336×602·16 GFLOP/s",
        "compress b4 Melem/s",
        "ReqEC 336×64 ns/vertex",
        "ReqEC 336×16 ns/vertex"
    );
    let (flops, elems) = ((2 * 336 * 602 * 16) as f64, message.len() as f64);
    for (tier, product, codec, reqec) in &rows {
        let per_vertex = reqec.map(|s| s / 336.0 * 1e9);
        println!(
            "{:<8}{:>24.1}{:>22.0}{:>25.1}{:>25.1}",
            tier.name(),
            flops / product / 1e9,
            elems / codec / 1e6,
            per_vertex[0],
            per_vertex[1]
        );
    }
    let (base_tier, base_product, base_codec, base_reqec) = rows[0];
    for (tier, product, codec, reqec) in &rows[1..] {
        assert!(*product <= base_product, "A·B at {tier} is slower than at {base_tier}");
        assert!(*codec <= base_codec, "compress at {tier} is slower than at {base_tier}");
        // De-vectorised, the sweep is the baseline's code behind a call and
        // ties with it, so at 64 columns — four lane chunks a row, measured
        // 0.6–0.8 of the baseline's time — a wider tier must win outright; at
        // 16 columns a row is one chunk, the tiers tie by construction and
        // only a loss beyond the noise means something.
        for (width, factor, (wide, base)) in
            [(64, 0.9, (reqec[0], base_reqec[0])), (16, 1.15, (reqec[1], base_reqec[1]))]
        {
            assert!(
                wide <= factor * base,
                "ReqEC at {width} columns: {tier} takes {:.2} of {base_tier}'s time (limit {factor})",
                wide / base
            );
        }
    }
}
