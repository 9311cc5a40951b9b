//! The two GNN models the engine trains — GCN and GraphSAGE — on the same
//! replica by the single-machine reference stack.
//!
//! The paper evaluates GCN and states that GraphSAGE "enjoys similar
//! performance improvements". This example shows both learning the same
//! task, which is what makes the engine's model-pluggability claim concrete.
//!
//! ```sh
//! cargo run --release --example models_comparison
//! ```

use ec_comm::HostTimer;
use ec_graph_repro::data::{normalize, DatasetSpec};
use ec_graph_repro::nn::{metrics, GcnNetwork, SageNetwork};
use std::sync::Arc;

fn main() {
    let data = DatasetSpec::cora().instantiate_with(1_000, 64, 33);
    println!(
        "dataset: {} replica — |V|={} |E|={} classes={}\n",
        data.name,
        data.num_vertices(),
        data.graph.num_edges(),
        data.num_classes
    );
    let dims = vec![data.feature_dim(), 16, data.num_classes];
    let epochs = 80;
    let gcn_adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let mean_adj = Arc::new(normalize::row_normalized_adjacency(&data.graph));

    println!("{:<10} {:>10} {:>12} {:>12}", "model", "test-acc", "s/epoch", "params");
    // GCN (tape-based).
    {
        let mut net = GcnNetwork::new(&dims, 0.02, 5);
        let start = HostTimer::start();
        for _ in 0..epochs {
            net.train_epoch(&gcn_adj, &data.features, &data.labels, &data.split.train);
        }
        let per_epoch = start.elapsed_s() / epochs as f64;
        let acc = metrics::accuracy(
            &net.forward(&gcn_adj, &data.features),
            &data.labels,
            &data.split.test,
        );
        let params: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        println!("{:<10} {:>10.4} {:>12.4} {:>12}", "gcn", acc, per_epoch, params);
    }
    // GraphSAGE (tape-based, mean aggregator).
    {
        let mut net = SageNetwork::new(&dims, 0.02, 5);
        let start = HostTimer::start();
        for _ in 0..epochs {
            net.train_epoch(&mean_adj, &data.features, &data.labels, &data.split.train);
        }
        let per_epoch = start.elapsed_s() / epochs as f64;
        let acc = metrics::accuracy(
            &net.forward(&mean_adj, &data.features),
            &data.labels,
            &data.split.test,
        );
        let params: usize = dims.windows(2).map(|w| 2 * w[0] * w[1] + w[1]).sum();
        println!("{:<10} {:>10.4} {:>12.4} {:>12}", "sage", acc, per_epoch, params);
    }
    println!("\nBoth exchange the same message types under distribution —");
    println!("neighbour embeddings forward, embedding gradients backward — which");
    println!("is the property EC-Graph's compression pipeline keys on, and both");
    println!("run distributed (`ModelKind`).");
}
