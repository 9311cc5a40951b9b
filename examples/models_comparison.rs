//! The two GNN models the engine trains — GCN and GraphSAGE — on the same
//! replica, uncompressed and with EC-Graph's compensated compression.
//!
//! The paper evaluates GCN and states that GraphSAGE "enjoys similar
//! performance improvements". Both exchange the same two message types —
//! neighbour embeddings forward, embedding gradients backward — so the same
//! ReqEC-FP / ResEC-BP pipeline applies to both, and this example shows it
//! cutting the bytes of each while both learn the task.
//!
//! ```sh
//! cargo run --release --example models_comparison
//! ```

use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::{BpMode, FpMode, ModelKind, TrainingConfig};
use ec_graph_repro::ecgraph::trainer::train;
use ec_graph_repro::partition::hash::HashPartitioner;
use std::sync::Arc;

fn main() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(1_000, 64, 33));
    println!(
        "dataset: {} replica — |V|={} |E|={} classes={}\n",
        data.name,
        data.num_vertices(),
        data.graph.num_edges(),
        data.num_classes
    );
    let dims = vec![data.feature_dim(), 16, data.num_classes];
    let modes = [
        ("exact", FpMode::Exact, BpMode::Exact),
        (
            "ec-graph",
            FpMode::ReqEc { bits: 2, t_tr: 10, adaptive: true },
            BpMode::ResEc { bits: 4 },
        ),
    ];

    println!(
        "{:<6} {:<9} {:>9} {:>14} {:>12} {:>8}",
        "model", "mode", "test-acc", "sim s/epoch", "MB/epoch", "params"
    );
    for model in [ModelKind::Gcn, ModelKind::Sage] {
        // GraphSAGE carries a second (self) transform per layer.
        let transforms = if model == ModelKind::Sage { 2 } else { 1 };
        let params: usize = dims.windows(2).map(|w| transforms * w[0] * w[1] + w[1]).sum();
        for (mode, fp_mode, bp_mode) in modes {
            let config = TrainingConfig {
                dims: dims.clone(),
                model,
                num_workers: 4,
                fp_mode,
                bp_mode,
                max_epochs: 80,
                seed: 5,
                ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
            };
            let r = train(Arc::clone(&data), &HashPartitioner::default(), config, mode);
            let epochs = r.epochs.len() as f64;
            println!(
                "{:<6} {:<9} {:>9.4} {:>14.4} {:>12.3} {:>8}",
                format!("{model:?}").to_lowercase(),
                mode,
                r.best_test_acc,
                r.avg_epoch_time(),
                r.total_bytes() as f64 / 1e6 / epochs,
                params
            );
        }
    }
}
