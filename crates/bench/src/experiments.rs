//! The experiment table: every table and figure of the paper, plus the
//! ablations of design choices the paper states without data. Each entry
//! keeps only the body that makes its rows — a row is one `json!` object,
//! from which [`Run::emit`] derives both output lines; parsing, dataset
//! selection, replica instantiation and banners are the harness's
//! ([`crate::reproduce`]).

#![allow(clippy::needless_range_loop)] // layer index is semantic

use crate::systems::{
    paper_config, paper_ec_bits, paper_fanouts, run as run_system, train_hash, System,
};
use crate::{bench_hidden, Bits, Body, Datasets, Experiment, Key, List, Run};
use ec_comm::HostTimer;
use ec_compress::error::{probe_alpha, theorem1_bound};
use ec_faults::FaultPlan;
use ec_graph::baselines::ml_centered::redundancy_factor;
use ec_graph::config::{BpMode, FpMode, ModelKind, ResiliencePolicy, TrainingConfig};
use ec_graph::cost_model::{ec_graph_costs, ml_centered_costs, CostParams};
use ec_graph::engine::DistributedEngine;
use ec_graph::fp::Granularity;
use ec_graph::report::{EpochRecord, RunResult, CONVERGENCE_TOL};
use ec_graph::sampling::sample_layer_graphs;
use ec_graph::trainer;
use ec_graph_data::{normalize, AttributedGraph, DatasetSpec};
use ec_partition::hash::HashPartitioner;
use ec_partition::metis::MetisLikePartitioner;
use ec_partition::{metrics, Partitioner};
use ec_tensor::stats;
use serde_json::json;
use std::num::{NonZeroU32, NonZeroUsize};
use std::sync::Arc;

const ALL: &str = "cora,pubmed,reddit,products,papers";
const SCALE: Key = Key::new::<f64>("scale", "1.0");
const WORKERS: Key = Key::new::<NonZeroUsize>("workers", "6");

const fn datasets(default: &'static str) -> Key {
    Key::new::<Datasets>("datasets", default)
}

const fn dataset(default: &'static str) -> Key {
    Key::new::<Datasets>("dataset", default)
}

const fn epochs(default: &'static str) -> Key {
    Key::new::<usize>("epochs", default)
}

const fn patience(default: &'static str) -> Key {
    Key::new::<usize>("patience", default)
}

const fn bits(default: &'static str) -> Key {
    Key::new::<Bits>("bits", default)
}

const fn layers(default: &'static str) -> Key {
    Key::new::<List<NonZeroUsize>>("layers", default)
}

/// Every experiment `reproduce` knows, in `all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table2",
        file: "table2_costs",
        title: "Table II: analytic cost comparison (per target vertex)",
        keys: &[Key::new::<f64>("scale", "0.25"), WORKERS, Key::new::<u32>("iterations", "100")],
        body: Body::Fixed(ALL, table2),
    },
    Experiment {
        name: "table4",
        file: "table4_epoch_time",
        title: "Table IV: avg training time per epoch (simulated seconds)",
        keys: &[datasets(ALL), epochs("5"), SCALE, WORKERS, layers("2,3,4")],
        body: Body::Selected(table4),
    },
    Experiment {
        name: "table5",
        file: "table5_accuracy",
        title: "Table V: test accuracy at convergence (2-layer)",
        keys: &[datasets(ALL), epochs("150"), patience("25"), SCALE, WORKERS],
        body: Body::Selected(table5),
    },
    Experiment {
        name: "fig6",
        file: "fig6_fp_bits",
        title: "Fig. 6: FP convergence vs compression bits",
        keys: BITS_SWEEP_KEYS,
        body: Body::Selected(|run, spec, data| bits_sweep(run, spec, data, Side::Fp)),
    },
    Experiment {
        name: "fig7",
        file: "fig7_bp_bits",
        title: "Fig. 7: BP convergence vs compression bits",
        keys: BITS_SWEEP_KEYS,
        body: Body::Selected(|run, spec, data| bits_sweep(run, spec, data, Side::Bp)),
    },
    Experiment {
        name: "fig8",
        file: "fig8_ablation",
        title: "Fig. 8: ablation — speedup over Non-cp (bars) + accuracy (lines)",
        keys: &[datasets(ALL), epochs("150"), SCALE, WORKERS, patience("25")],
        body: Body::Selected(fig8),
    },
    Experiment {
        name: "fig9",
        file: "fig9_end_to_end",
        title: "Fig. 9: end-to-end time (preprocessing + training to convergence)",
        keys: &[datasets("products"), epochs("150"), patience("25"), SCALE, WORKERS],
        body: Body::Selected(fig9),
    },
    Experiment {
        name: "fig10",
        file: "fig10_papers",
        title: "Fig. 10: EC-Graph vs EC-Graph-S on the OGBN-Papers replica",
        keys: &[epochs("120"), patience("40"), SCALE, WORKERS, layers("2,3")],
        body: Body::Fixed("papers", fig10),
    },
    Experiment {
        name: "fig11",
        file: "fig11_scalability",
        title: "Fig. 11: scalability with machines under Hash and METIS partitioning",
        keys: &[
            dataset("products"),
            epochs("5"),
            SCALE,
            Key::new::<List<NonZeroUsize>>("workers", "2,4,6,8,10,13"),
        ],
        body: Body::Selected(fig11),
    },
    Experiment {
        name: "compressor_comparison",
        file: "compressor_comparison",
        title: "BP compressor comparison: bucket quantization vs top-k at equal byte budgets",
        keys: &[dataset("reddit"), epochs("60"), bits("2"), SCALE, WORKERS],
        body: Body::Selected(compressor_comparison),
    },
    Experiment {
        name: "resilience_sweep",
        file: "resilience_sweep",
        title: "Resilience sweep: message drops × straggler × recovery policy (ReqEC-FP)",
        keys: &[
            dataset("cora"),
            bits("2"),
            epochs("60"),
            SCALE,
            WORKERS,
            Key::new::<f64>("straggler", "2.0"),
            Key::new::<NonZeroU32>("attempts", "1"),
        ],
        body: Body::Selected(resilience_sweep),
    },
    Experiment {
        name: "sage_parity",
        file: "sage_parity",
        title: "GCN vs GraphSAGE under EC-Graph's optimizations",
        keys: &[dataset("cora"), epochs("80"), SCALE, WORKERS],
        body: Body::Selected(sage_parity),
    },
    Experiment {
        name: "selector_granularity",
        file: "selector_granularity",
        title: "Selector granularity ablation (element / vertex / matrix)",
        keys: &[dataset("reddit"), epochs("60"), bits("1"), SCALE, WORKERS],
        body: Body::Selected(selector_granularity),
    },
    Experiment {
        name: "theorem1",
        file: "theorem1_bound",
        title: "Theorem 1: ResEC-BP residual bound",
        keys: &[
            epochs("60"),
            bits("2"),
            Key::new::<NonZeroUsize>("workers", "4"),
            Key::new::<NonZeroUsize>("n", "600"),
        ],
        body: Body::Once(theorem1),
    },
    Experiment {
        name: "ttr_sweep",
        file: "ttr_sweep",
        title: "T_tr sweep: trend-group length (ReqEC-FP)",
        keys: &[dataset("cora"), bits("2"), epochs("80"), SCALE, WORKERS],
        body: Body::Selected(ttr_sweep),
    },
];

const BITS_SWEEP_KEYS: &[Key] = &[
    datasets("cora,reddit"),
    epochs("100"),
    SCALE,
    WORKERS,
    Key::new::<NonZeroUsize>("every", "5"),
];

type Data = Arc<AttributedGraph>;

/// The setup shared by the engine-only experiments: the paper's 2-layer,
/// 16-hidden GCN on `workers=` workers for `epochs=` epochs, seed 3.
fn engine_config(run: &Run, data: &AttributedGraph) -> TrainingConfig {
    TrainingConfig {
        num_workers: run.get("workers"),
        seed: 3,
        ..paper_config(data, 2, 16, run.get("epochs"))
    }
}

fn reqec(bits: u8, adaptive: bool) -> FpMode {
    FpMode::ReqEc { bits, t_tr: 10, adaptive }
}

fn mean(r: &RunResult, of: impl Fn(&EpochRecord) -> f64) -> f64 {
    r.epochs.iter().map(of).sum::<f64>() / r.epochs.len().max(1) as f64
}

fn megabytes(r: &RunResult, of: impl Fn(&EpochRecord) -> u64) -> f64 {
    r.epochs.iter().map(of).sum::<u64>() as f64 / 1e6
}

/// **Table II** — analytic memory / computation / communication costs of
/// the ML-centered framework versus EC-Graph, instantiated with each
/// replica's measured parameters, plus the measured redundancy factor of
/// the actual ML-centered implementation as a cross-check.
fn table2(run: &mut Run, spec: &DatasetSpec, data: &Data) {
    let workers: usize = run.get("workers");
    let partition = HashPartitioner::default().partition(&data.graph, workers);
    let layers = spec.default_layers as u32;
    let p = CostParams {
        avg_degree: data.graph.avg_degree(),
        avg_dim: 16.0,
        input_dim: data.feature_dim() as f64,
        layers,
        iterations: run.get("iterations"),
        avg_remote_degree: metrics::avg_remote_degree(&data.graph, &partition),
        bits: 2,
    };
    let (ml, ec) = (ml_centered_costs(&p), ec_graph_costs(&p));
    let ec32 = ec_graph_costs(&CostParams { bits: 32, ..p });
    run.emit(json!({
        "dataset": spec.name, "avg_degree": p.avg_degree, "layers": layers,
        "ml_memory": ml.memory, "ml_compute": ml.compute, "ml_comm": ml.communication,
        "ec_memory": ec.memory, "ec_compute": ec.compute,
        "ec_comm_b32": ec32.communication, "ec_comm_b2": ec.communication,
        // Of the actual ML-centered closures (small replica; the analytic
        // ḡ^L is the upper bound).
        "measured_ml_redundancy": redundancy_factor(data, workers, layers as usize),
    }));
}

/// **Table IV** — training time per epoch for every system × dataset ×
/// layer count. The paper's shape: single-machine DGL wins on tiny graphs
/// (distributed overhead dominates); on the larger graphs EC-Graph beats
/// DGL and DistGNN in the full-batch group, and EC-Graph-S beats the
/// sampling-based group; PyG runs out of memory on dense graphs (`-`).
fn table4(run: &mut Run, spec: &DatasetSpec, data: &Data) {
    for layers in run.get::<List<usize>>("layers").0 {
        let config = TrainingConfig {
            num_workers: run.get("workers"),
            ..paper_config(data, layers, bench_hidden(spec), run.get("epochs"))
        };
        for system in System::all() {
            run.emit(match run_system(system, data, &config) {
                Ok(r) => json!({
                    "dataset": spec.name, "layers": layers, "system": system.label(),
                    "epoch_s": r.avg_epoch_time(),
                    "compute_s": mean(&r, |e| e.compute_s), "comm_s": mean(&r, |e| e.comm_s),
                    "epoch_bytes": r.total_bytes() / r.epochs.len().max(1) as u64,
                }),
                Err(e) => json!({
                    "dataset": spec.name, "layers": layers, "system": system.label(),
                    "epoch_s": serde_json::Value::Null, "error": e,
                }),
            });
        }
    }
}

/// **Table V** — final test accuracy per system per dataset. The paper's
/// shape: every exact full-batch system lands in the same band (EC-Graph
/// matches DGL/PyG within noise despite lossy messages); sampling-based
/// systems trail slightly; the dataset-specific absolute bands (Cora ≈
/// 0.87, Pubmed ≈ 0.865, Reddit ≈ 0.93, Products ≈ 0.86, Papers ≈ 0.45)
/// are planted into the replicas via label noise.
fn table5(run: &mut Run, spec: &DatasetSpec, data: &Data) {
    let config = TrainingConfig {
        num_workers: run.get("workers"),
        patience: Some(run.get("patience")),
        ..paper_config(data, 2, bench_hidden(spec), run.get("epochs"))
    };
    for system in System::all() {
        run.emit(match run_system(system, data, &config) {
            Ok(r) => json!({
                "dataset": spec.name, "system": system.label(), "test_acc": r.best_test_acc,
                "val_acc": r.best_val_acc, "best_epoch": r.best_epoch,
            }),
            Err(e) => json!({
                "dataset": spec.name, "system": system.label(),
                "test_acc": serde_json::Value::Null, "error": e,
            }),
        });
    }
}

/// Which pass a bit-width sweep compresses.
#[derive(Clone, Copy)]
enum Side {
    Fp,
    Bp,
}

/// **Fig. 6 / Fig. 7** — convergence under different bit widths on one
/// side, the other exact: Non-cp, plain `Cp-*-B` and the compensated
/// `ReqEC-FP-B` / `ResEC-BP-B` for `B ∈ {1, 2, 4, 8}`, test accuracy per
/// epoch. The paper's shape: low-bit compression alone stalls or degrades
/// convergence (most visibly on high-degree graphs); the compensated
/// variant restores near-Non-cp accuracy at the same bit width.
fn bits_sweep(run: &mut Run, spec: &DatasetSpec, data: &Data, side: Side) {
    let every: usize = run.get("every");
    let exact = (FpMode::Exact, BpMode::Exact);
    let mut modes = vec![("non-cp".to_string(), exact)];
    for bits in [1u8, 2, 4, 8] {
        modes.extend(match side {
            Side::Fp => [
                (format!("cp-fp-{bits}"), (FpMode::Compressed { bits }, exact.1)),
                (format!("reqec-fp-{bits}"), (reqec(bits, false), exact.1)),
            ],
            Side::Bp => [
                (format!("cp-bp-{bits}"), (exact.0, BpMode::Compressed { bits })),
                (format!("resec-bp-{bits}"), (exact.0, BpMode::ResEc { bits })),
            ],
        });
    }
    for (mode, (fp_mode, bp_mode)) in modes {
        let config =
            TrainingConfig { fp_mode, bp_mode, eval_every: every, ..engine_config(run, data) };
        let r = train_hash(data, config, &mode);
        for e in r.epochs.iter().step_by(every) {
            run.emit(json!({
                "dataset": spec.name, "mode": mode, "epoch": e.epoch, "loss": e.loss,
                "test_acc": e.test_acc, "fp_bytes": e.fp_bytes, "bp_bytes": e.bp_bytes,
            }));
        }
        let (tag, total_mb) = match side {
            Side::Fp => ("FP", megabytes(&r, |e| e.fp_bytes)),
            Side::Bp => ("BP", megabytes(&r, |e| e.bp_bytes)),
        };
        run.line(&format!(
            "  {:<12} {mode:<12} best test-acc {:.4}  total {tag} GB {:.4}",
            spec.name,
            r.best_test_acc,
            total_mb / 1e3
        ));
    }
}

/// The paper's Fig. 8 plain-compression bit settings `(Cp-fp, Cp-bp)`; the
/// compensated `(ReqEC, ResEC)` widths are [`paper_ec_bits`].
fn fig8_cp_bits(dataset: &str) -> (u8, u8) {
    match dataset {
        "cora" => (2, 4),
        "reddit" | "papers" => (8, 8),
        "products" => (16, 8),
        _ => (4, 4), // pubmed
    }
}

/// **Fig. 8** — ablation: Non-cp / Cp-fp / Cp-bp / ReqEC / ResEC /
/// ReqEC-adapt / full EC-Graph at the paper's per-dataset bit settings
/// ("2/4/1/2, 4/4/2/2, 8/8/2/4, 16/8/2/2, 8/8/4/4 bits for
/// Cp-fp/Cp-bp/ReqEC/ResEC"): convergence-time speedup over Non-cp and best
/// test accuracy. The paper's shape: plain compression can be *slower* than
/// no compression (it needs more epochs), while the compensated variants
/// are both faster and as accurate.
fn fig8(run: &mut Run, spec: &DatasetSpec, data: &Data) {
    let ((cp_fp, cp_bp), (b_reqec, b_resec)) = (fig8_cp_bits(spec.name), paper_ec_bits(spec.name));
    run.line(&format!("   bits(Cp-fp/Cp-bp/ReqEC/ResEC)={cp_fp}/{cp_bp}/{b_reqec}/{b_resec}"));
    let mut baseline_time = None;
    for (variant, fp_mode, bp_mode) in [
        ("non-cp", FpMode::Exact, BpMode::Exact),
        ("cp-fp", FpMode::Compressed { bits: cp_fp }, BpMode::Exact),
        ("cp-bp", FpMode::Exact, BpMode::Compressed { bits: cp_bp }),
        ("reqec", reqec(b_reqec, false), BpMode::Exact),
        ("resec", FpMode::Exact, BpMode::ResEc { bits: b_resec }),
        ("reqec-adapt", reqec(b_reqec, true), BpMode::Exact),
        ("ec-graph", reqec(b_reqec, true), BpMode::ResEc { bits: b_resec }),
    ] {
        let patience = Some(run.get("patience"));
        let config = TrainingConfig { fp_mode, bp_mode, patience, ..engine_config(run, data) };
        let r = train_hash(data, config, variant);
        let conv = r.convergence_time_within(CONVERGENCE_TOL);
        run.emit(json!({
            "dataset": spec.name, "variant": variant,
            "speedup_vs_noncp": *baseline_time.get_or_insert(conv) / conv.max(1e-12),
            "test_acc": r.best_test_acc, "convergence_s": conv,
            "epochs_to_conv": r.convergence_epoch_within(CONVERGENCE_TOL) + 1,
            "total_gb": r.total_bytes() as f64 / 1e9,
        }));
    }
}

/// One Fig. 9 bar: `(preprocessing, training to convergence, end-to-end)`
/// seconds, the last being [`RunResult::end_to_end_time`] — crash-recovery
/// losses included.
fn fig9_times(r: &RunResult) -> (f64, f64, f64) {
    (r.preprocessing_s, r.convergence_time_within(CONVERGENCE_TOL), r.end_to_end_time())
}

/// **Fig. 9** — end-to-end time: preprocessing + training-to-convergence,
/// with EC-Graph's speedup factors over each system (the paper highlights
/// the OGBN-Products column).
fn fig9(run: &mut Run, spec: &DatasetSpec, data: &Data) {
    let systems = [
        System::NonCp,
        System::DistGnn,
        System::AliGraphFg,
        System::DistDgl,
        System::Agl,
        System::EcGraph,
        System::EcGraphS,
    ];
    let config = TrainingConfig {
        num_workers: run.get("workers"),
        patience: Some(run.get("patience")),
        ..paper_config(data, spec.default_layers.min(3), bench_hidden(spec), run.get("epochs"))
    };
    let mut rows = Vec::new();
    for system in systems {
        match run_system(system, data, &config) {
            Ok(r) => rows.push((system, fig9_times(&r))),
            Err(e) => run.line(&format!("  {:<18} - ({e})", system.label())),
        }
    }
    let ec_graph_time = rows.iter().find(|(s, _)| *s == System::EcGraph).map(|(_, t)| t.2);
    for (system, (pre, conv, e2e)) in rows {
        run.emit(json!({
            "dataset": spec.name, "system": system.label(),
            "preprocessing_s": pre, "training_s": conv, "end_to_end_s": e2e,
            "ecgraph_speedup": ec_graph_time.map_or(f64::NAN, |t| e2e / t.max(1e-12)),
        }));
    }
}

/// **Fig. 10 / Table IV "OGBN-Papers" column** — EC-Graph on the largest
/// graph: full-batch EC-Graph vs EC-Graph-S per layer count, epoch time
/// and accuracy. The paper runs this on the larger 6-machine cluster; the
/// replica keeps Papers' degree/dims/classes at a reduced vertex count.
fn fig10(run: &mut Run, _spec: &DatasetSpec, data: &Data) {
    for layers in run.get::<List<usize>>("layers").0 {
        let config = TrainingConfig {
            num_workers: run.get("workers"),
            patience: Some(run.get("patience")),
            ..paper_config(data, layers, 64, run.get("epochs"))
        };
        for system in [System::EcGraph, System::EcGraphS] {
            let r = run_system(system, data, &config).expect("the engine has no memory budget");
            run.emit(json!({
                "layers": layers, "system": system.label(), "epoch_s": r.avg_epoch_time(),
                "test_acc": r.best_test_acc, "convergence_s": r.convergence_time(),
            }));
        }
    }
}

/// **Fig. 11** — scalability with the number of machines, under Hash and
/// METIS partitioning, for EC-Graph and EC-Graph-S. The paper's shape:
/// epoch time falls as machines are added; METIS sits below Hash because
/// its edge-cut (and therefore `ḡ_rmt`) is lower.
fn fig11(run: &mut Run, _spec: &DatasetSpec, data: &Data) {
    let partitioners: [(&str, Box<dyn Partitioner>); 2] = [
        ("hash", Box::new(HashPartitioner::default())),
        ("metis", Box::new(MetisLikePartitioner::default())),
    ];
    for workers in run.get::<List<usize>>("workers").0 {
        for (pname, partitioner) in &partitioners {
            for system in ["ec-graph", "ec-graph-s"] {
                let config = TrainingConfig {
                    num_workers: workers,
                    fp_mode: reqec(2, true),
                    bp_mode: BpMode::ResEc { bits: 4 },
                    seed: 3,
                    ..paper_config(data, 2, 16, run.get("epochs"))
                };
                let part_start = HostTimer::start();
                let partition = partitioner.partition(&data.graph, workers);
                let partition_s = part_start.elapsed_s();
                let g_rmt = metrics::avg_remote_degree(&data.graph, &partition);
                let edge_cut = metrics::edge_cut_fraction(&data.graph, &partition);
                let adjs = if system == "ec-graph-s" {
                    let fanouts = paper_fanouts(&data.name, 2).unwrap_or(vec![10, 10]);
                    sample_layer_graphs(&data.graph, &fanouts, 5).0
                } else {
                    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
                    vec![adj; 2]
                };
                let r = trainer::train_prepartitioned(
                    Arc::clone(data),
                    adjs,
                    partition,
                    config,
                    system,
                    partition_s,
                );
                run.emit(json!({
                    "system": system, "workers": workers, "partitioner": pname,
                    "epoch_s": r.avg_epoch_time(), "avg_remote_degree": g_rmt,
                    "edge_cut": edge_cut, "partition_s": partition_s,
                    "test_acc": r.best_test_acc,
                }));
            }
        }
    }
}

/// **Related-work comparison** — bucket quantization (the paper's choice)
/// versus Top-k sparsification (the paper's [32]) at equal byte budgets,
/// both with and without error feedback, on backward-pass gradients. The
/// paper argues for quantization implicitly (Section II-C reviews
/// SketchML, Top-k, 1-bit); this makes the comparison explicit.
fn compressor_comparison(run: &mut Run, _spec: &DatasetSpec, data: &Data) {
    let bits: u8 = run.get("bits");
    // Budget-matched ratio: B bits/coordinate vs 64 bits per kept entry.
    let ratio = bits as f32 / 64.0;
    for (compressor, bp_mode) in [
        ("non-cp", BpMode::Exact),
        ("quantize", BpMode::Compressed { bits }),
        ("quantize+ec", BpMode::ResEc { bits }),
        ("topk+ec", BpMode::TopkEc { ratio }),
    ] {
        let r =
            train_hash(data, TrainingConfig { bp_mode, ..engine_config(run, data) }, compressor);
        run.emit(json!({
            "compressor": compressor, "bits": bits, "ratio": ratio, "test_acc": r.best_test_acc,
            "final_loss": r.epochs.last().map_or(0.0, |e| e.loss),
            "bp_mb": megabytes(&r, |e| e.bp_bytes),
        }));
    }
}

/// **Resilience sweep** — training under injected faults: message drops ×
/// a straggler × recovery policy. EC-Graph's trend prediction has a second
/// use beyond bandwidth: when a forward-pass message is lost the requester
/// already holds a zero-payload approximation (`Ĥ_pdt = H_base + M_cr·k`),
/// so instead of burning timeouts on retries (`retry`: every loss costs
/// `timeout + resend`, accuracy untouched) it can accept the prediction
/// after bounded attempts and move on (`degrade`). Expected shape: at equal
/// drop rates `degrade` trains in strictly less simulated time with final
/// accuracy no worse than `retry` within noise.
fn resilience_sweep(run: &mut Run, _spec: &DatasetSpec, data: &Data) {
    let (bits, straggler): (u8, f64) = (run.get("bits"), run.get("straggler"));
    for drop_p in [0.0f64, 0.02, 0.05, 0.10] {
        for (label, policy) in
            [("retry", ResiliencePolicy::RetryOnly), ("degrade", ResiliencePolicy::EcDegrade)]
        {
            // One slow worker rides along at every drop rate: stragglers and
            // losses compound in real clusters.
            let faults = if drop_p == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::uniform_drop(41, drop_p).with_straggler(0, straggler)
            };
            let mut config = TrainingConfig {
                fp_mode: reqec(bits, false),
                bp_mode: BpMode::ResEc { bits },
                faults,
                ..engine_config(run, data)
            };
            config.resilience.policy = policy;
            // Degrade-path send attempts before accepting the prediction; 1
            // means the first loss already falls back (zero retransmission).
            config.resilience.max_attempts = run.get("attempts");
            let r = train_hash(data, config, label);
            run.emit(json!({
                "drop_p": drop_p, "policy": label, "straggler": straggler,
                "test_acc": r.best_test_acc,
                "comm_s": r.epochs.iter().map(|e| e.comm_s).sum::<f64>(),
                "avg_epoch_s": r.avg_epoch_time(), "retry_mb": megabytes(&r, |e| e.retry_bytes),
                "degraded": r.epochs.iter().map(|e| e.degraded).sum::<u64>(),
            }));
        }
    }
}

/// **Section V-A claim** — "Since GCN and GraphSAGE enjoy similar
/// performance improvements from our optimizations, we only show the
/// results of GCN for conciseness." The paper omits the GraphSAGE data;
/// this supplies it: Non-cp vs Cp vs full EC-Graph for both models.
fn sage_parity(run: &mut Run, _spec: &DatasetSpec, data: &Data) {
    for (mlabel, model) in [("gcn", ModelKind::Gcn), ("sage", ModelKind::Sage)] {
        for (variant, fp_mode, bp_mode) in [
            ("non-cp", FpMode::Exact, BpMode::Exact),
            ("cp-2/2", FpMode::Compressed { bits: 2 }, BpMode::Compressed { bits: 2 }),
            ("ec-graph", reqec(2, true), BpMode::ResEc { bits: 4 }),
        ] {
            let config = TrainingConfig { model, fp_mode, bp_mode, ..engine_config(run, data) };
            let r = train_hash(data, config, &format!("{mlabel}/{variant}"));
            run.emit(json!({
                "model": mlabel, "variant": variant, "test_acc": r.best_test_acc,
                "total_gb": r.total_bytes() as f64 / 1e9, "epoch_s": r.avg_epoch_time(),
            }));
        }
    }
}

/// **Section IV-B design choice** — Selector granularity. The paper:
/// "There are three kinds of granularity for the approximate
/// representations, including element-wise, vertex-wise and matrix-wise
/// schemas. We use vertex-wise approximations, which yields the best
/// balance between the message size and the accuracy empirically." No data
/// is shown; this regenerates the comparison at a fixed bit width:
/// element-wise reconstructs best but pays a 2-bit-per-coordinate selector,
/// matrix-wise is nearly free but too coarse, vertex-wise balances both.
fn selector_granularity(run: &mut Run, _spec: &DatasetSpec, data: &Data) {
    let bits: u8 = run.get("bits");
    for (granularity, reqec_granularity) in [
        ("element", Granularity::Element),
        ("vertex", Granularity::Vertex),
        ("matrix", Granularity::Matrix),
    ] {
        let fp_mode = reqec(bits, false);
        let config = TrainingConfig { fp_mode, reqec_granularity, ..engine_config(run, data) };
        let r = train_hash(data, config, granularity);
        run.emit(json!({
            "granularity": granularity, "bits": bits, "test_acc": r.best_test_acc,
            "fp_mb": megabytes(&r, |e| e.fp_bytes), "epoch_s": r.avg_epoch_time(),
        }));
    }
}

/// **Theorem 1** — empirical validation of the ResEC-BP error bound
/// `E‖δ_{t,l}‖² ≤ (1+α)^{L-l} · G² / (1 − α²(1 + 1/ρ))`: trains with
/// ResEC-BP while measuring (a) the empirical contraction factor `α` of
/// the quantizer, (b) the gradient norm bound `G²`, and (c) the live
/// residual norms per layer, and reports the worst observed residual
/// against the theorem's bound (which requires `α < √2/2`).
fn theorem1(run: &mut Run) {
    let (epochs, bits, workers): (usize, u8, usize) =
        (run.get("epochs"), run.get("bits"), run.get("workers"));
    // Empirical α for the quantizer at this bit width over random
    // gradient-like matrices (Eq. 13 measured).
    let alpha = probe_alpha(bits, 20);

    let data = Arc::new(DatasetSpec::cora().instantiate_with(run.get("n"), 32, 11));
    let layers = 3usize;
    let config = TrainingConfig {
        num_workers: workers,
        bp_mode: BpMode::ResEc { bits },
        seed: 5,
        ..paper_config(&data, layers, 16, epochs)
    };
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let partition = HashPartitioner::default().partition(&data.graph, workers);
    let mut engine =
        DistributedEngine::new(Arc::clone(&data), vec![adj; layers], partition, config);

    // The engine's residuals are per exchange layer l ∈ {2..L}.
    let mut residual_max: Vec<f64> = vec![0.0; layers + 1];
    for _ in 0..epochs {
        engine.run_epoch();
        for (layer, norm_sq) in engine.bp_residual_norms() {
            residual_max[layer] = residual_max[layer].max(norm_sq as f64);
        }
    }
    // G² from the logits-layer gradient norm of the final model state.
    let logits = engine.forward_global();
    let train = &data.split.train;
    let (_, g_full) =
        ec_nn::loss::masked_softmax_cross_entropy(&logits, &data.labels, train, train.len());
    // Headroom: per-layer norms shrink going down.
    let g_bound = (stats::l2_norm_sq(&g_full) as f64 * 4.0).max(1e-9);

    let rho = 2.0;
    for layer in 2..=layers {
        let bound = theorem1_bound(alpha as f64, rho, g_bound, layers, layer);
        let observed = residual_max[layer];
        run.emit(json!({
            "layer": layer, "bits": bits, "alpha": alpha, "rho": rho,
            "observed_residual_sq": observed, "bound": bound,
            "within_bound": bound.map(|b| observed <= b),
        }));
    }
}

/// **Section IV-B design choice** — trend-group length. The paper: "We set
/// T_tr = 10 empirically, which achieves a satisfactory performance for all
/// datasets." Small `T_tr` refreshes exact embeddings often (accurate but
/// bandwidth-hungry — the boundary message ships `H` uncompressed; the
/// requester derives `M_cr` from it and the `H_base` it holds), large
/// `T_tr` amortizes the boundary cost but lets the linear trend drift.
fn ttr_sweep(run: &mut Run, _spec: &DatasetSpec, data: &Data) {
    let bits: u8 = run.get("bits");
    for t_tr in [2usize, 4, 6, 10, 20, 40] {
        let fp_mode = FpMode::ReqEc { bits, t_tr, adaptive: false };
        let r = train_hash(data, TrainingConfig { fp_mode, ..engine_config(run, data) }, "reqec");
        run.emit(json!({
            "t_tr": t_tr, "bits": bits, "test_acc": r.best_test_acc,
            "fp_mb": megabytes(&r, |e| e.fp_bytes),
            "conv_epoch": r.convergence_epoch_within(CONVERGENCE_TOL),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 9 prints `RunResult::end_to_end_time`, not a second definition
    /// of it: a crashed run's rollback losses are part of its bar.
    #[test]
    fn fig9_end_to_end_is_the_run_results_including_recovery() {
        let epoch = |epoch, val_acc| EpochRecord {
            epoch,
            val_acc,
            compute_s: 1.0,
            comm_s: 0.5,
            ..Default::default()
        };
        let mut r = RunResult {
            epochs: vec![epoch(0, 0.5), epoch(1, 0.8), epoch(2, 0.801)],
            preprocessing_s: 2.0,
            recovery_s: 2.5,
            ..Default::default()
        };
        r.finalize();
        let (pre, conv, e2e) = fig9_times(&r);
        assert_eq!((pre, conv), (2.0, 3.0), "epoch 1 is within tolerance of the late peak");
        assert_eq!(e2e, r.end_to_end_time());
        assert_eq!(e2e, 2.0 + 2.5 + 3.0);
    }
}
