//! Unified runner for every system in the paper's evaluation.
//!
//! Experiments pick systems from [`System`] and call [`run`] with one
//! [`TrainingConfig`] (see [`paper_config`]): every system — engine or
//! comparator — is built from it and runs on the same simulated cluster.
//! What differs between the paper's systems (sampling fan-outs,
//! compression bits, staleness) is centralized here, including the paper's
//! own Table IV fan-out settings per dataset and layer count.

use ec_comm::HostTimer;
use ec_graph::baselines::distdgl::{train_minibatch, MiniBatchConfig, Sampling};
use ec_graph::baselines::local::{train_local, LocalKind};
use ec_graph::baselines::ml_centered::train_ml_centered;
use ec_graph::config::{BpMode, FpMode, TrainingConfig};
use ec_graph::report::RunResult;
use ec_graph::sampling::sample_layer_graphs;
use ec_graph::trainer;
use ec_graph_data::AttributedGraph;
use ec_partition::hash::HashPartitioner;
use ec_partition::Partitioner;
use std::sync::Arc;

/// Every system the paper's tables compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Single-machine DGL-style full batch.
    DglLike,
    /// Single-machine PyG-style full batch (per-edge messages).
    PygLike,
    /// DistGNN: delayed remote partial aggregation, `r = 5` (the paper's
    /// setting).
    DistGnn,
    /// EC-Graph full batch with both compensation algorithms.
    EcGraph,
    /// DistDGL: graph-centered online-sampling mini-batch.
    DistDgl,
    /// AGL: ML-centered offline-sampled mini-batch.
    Agl,
    /// AliGraph-FG: ML-centered full graph.
    AliGraphFg,
    /// EC-Graph-S: offline per-layer sampling + EC compression.
    EcGraphS,
    /// EC-Graph without compression (the ablation's Non-cp).
    NonCp,
}

impl System {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            System::DglLike => "dgl-like",
            System::PygLike => "pyg-like",
            System::DistGnn => "distgnn-like",
            System::EcGraph => "ec-graph",
            System::DistDgl => "distdgl-like",
            System::Agl => "agl-like",
            System::AliGraphFg => "aligraph-fg-like",
            System::EcGraphS => "ec-graph-s",
            System::NonCp => "non-cp",
        }
    }

    /// The paper's Table IV comparison set, in row order.
    pub fn all() -> Vec<System> {
        vec![
            System::DglLike,
            System::PygLike,
            System::DistGnn,
            System::EcGraph,
            System::DistDgl,
            System::Agl,
            System::AliGraphFg,
            System::EcGraphS,
        ]
    }
}

/// The paper's training setup for `data`: a `layers`-deep GCN of width
/// `hidden` trained for `epochs` epochs on six workers over Gigabit
/// Ethernet. Experiments override fields with struct-update syntax.
pub fn paper_config(
    data: &AttributedGraph,
    layers: usize,
    hidden: usize,
    epochs: usize,
) -> TrainingConfig {
    TrainingConfig {
        dims: crate::paper_dims(data, hidden, layers),
        max_epochs: epochs,
        ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
    }
}

/// Trains the engine under the paper's default hash partition.
pub fn train_hash(data: &Arc<AttributedGraph>, config: TrainingConfig, label: &str) -> RunResult {
    trainer::train(Arc::clone(data), &HashPartitioner::default(), config, label)
}

/// The paper's Fig. 8 ReqEC/ResEC bit settings per dataset.
pub fn paper_ec_bits(dataset: &str) -> (u8, u8) {
    match dataset {
        "cora" => (1, 2),
        "pubmed" => (2, 2),
        "reddit" => (2, 4),
        "products" => (2, 2),
        "papers" => (4, 4),
        _ => (2, 4),
    }
}

/// The paper's Table IV sampling fan-outs per (dataset, layer count);
/// `None` encodes the paper's "(full)" cells.
pub fn paper_fanouts(dataset: &str, layers: usize) -> Option<Vec<usize>> {
    let f: &[usize] = match (dataset, layers) {
        ("cora", 2) => return None, // (full)
        ("cora", 3) => &[20, 10, 5],
        ("cora", 4) => &[10, 5, 5, 5],
        ("pubmed", 2) => return None, // (full)
        ("pubmed", 3) => &[10, 10, 5],
        ("pubmed", 4) => &[5, 5, 5, 1],
        ("reddit", 2) => &[10, 5],
        ("reddit", 3) => &[5, 2, 2],
        ("reddit", 4) => &[5, 5, 1, 1],
        ("products", 2) => &[20, 5],
        ("products", 3) => &[10, 5, 1],
        ("products", 4) => &[10, 5, 2, 2],
        ("papers", 2) => &[10, 10],
        ("papers", 3) => &[10, 10, 10],
        ("papers", 4) => &[10, 10, 10, 10],
        (_, l) => return Some(vec![10; l]),
    };
    Some(f.to_vec())
}

/// Runs `system` on `data` under `config` and returns its [`RunResult`].
/// The system decides its own message treatment (`fp_mode` / `bp_mode`);
/// everything else — shape, cluster, optimizer, budget, threads — is
/// `config`'s.
pub fn run(
    system: System,
    data: &Arc<AttributedGraph>,
    config: &TrainingConfig,
) -> Result<RunResult, String> {
    let label = system.label();
    let layers = config.num_layers();
    let with = |fp_mode, bp_mode| TrainingConfig { fp_mode, bp_mode, ..config.clone() };
    let ec_graph = || {
        let (fp, bp) = paper_ec_bits(&data.name);
        with(FpMode::ReqEc { bits: fp, t_tr: 10, adaptive: true }, BpMode::ResEc { bits: bp })
    };
    Ok(match system {
        System::DglLike | System::PygLike => {
            let kind =
                if system == System::DglLike { LocalKind::DglLike } else { LocalKind::PygLike };
            return train_local(Arc::clone(data), config, kind);
        }
        System::NonCp => train_hash(data, with(FpMode::Exact, BpMode::Exact), label),
        System::DistGnn => train_hash(data, with(FpMode::Delayed { r: 5 }, BpMode::Exact), label),
        System::EcGraph => train_hash(data, ec_graph(), label),
        System::EcGraphS => match paper_fanouts(&data.name, layers) {
            None => train_hash(data, ec_graph(), label),
            Some(fanouts) => {
                // Offline sampling is preprocessing (measured).
                let sample_start = HostTimer::start();
                let (adjs, _) = sample_layer_graphs(&data.graph, &fanouts, config.seed ^ 0x5);
                let partition =
                    HashPartitioner::default().partition(&data.graph, config.num_workers);
                let sampling_s = sample_start.elapsed_s();
                trainer::train_prepartitioned(
                    Arc::clone(data),
                    adjs,
                    partition,
                    ec_graph(),
                    label,
                    sampling_s,
                )
            }
        },
        System::DistDgl | System::Agl => {
            let minibatch = MiniBatchConfig {
                base: config,
                fanouts: paper_fanouts(&data.name, layers).unwrap_or_else(|| vec![10; layers]),
                sampling: if system == System::DistDgl {
                    Sampling::Online
                } else {
                    Sampling::Prefetched
                },
            };
            train_minibatch(Arc::clone(data), &minibatch, label)
        }
        System::AliGraphFg => train_ml_centered(Arc::clone(data), config, label),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ec_bits_cover_all_datasets() {
        for ds in ["cora", "pubmed", "reddit", "products", "papers", "unknown"] {
            let (fp, bp) = paper_ec_bits(ds);
            assert!([1, 2, 4, 8, 16].contains(&fp), "{ds} fp bits {fp}");
            assert!([1, 2, 4, 8, 16].contains(&bp), "{ds} bp bits {bp}");
        }
        assert_eq!(paper_ec_bits("papers"), (4, 4));
    }

    #[test]
    fn paper_fanouts_match_layer_counts() {
        for ds in ["cora", "pubmed", "reddit", "products", "papers"] {
            for layers in 2..=4 {
                if let Some(f) = paper_fanouts(ds, layers) {
                    assert_eq!(f.len(), layers, "{ds} {layers}-layer");
                }
            }
        }
        assert!(paper_fanouts("cora", 2).is_none());
        assert!(paper_fanouts("pubmed", 2).is_none());
    }
}
