//! The load-bearing correctness test of the reproduction: with compression
//! disabled, the distributed engine (manual gradients, Eqs. 4–6, any
//! number of workers, any partitioner) must follow *exactly* the same
//! training trajectory as the single-machine autodiff trainer.

use ec_graph_repro::data::normalize;
use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::TrainingConfig;
use ec_graph_repro::ecgraph::engine::DistributedEngine;
use ec_graph_repro::nn::GcnNetwork;
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::metis::MetisLikePartitioner;
use ec_graph_repro::partition::Partitioner;
use std::sync::Arc;

fn build_engine(
    data: &Arc<ec_graph_repro::data::AttributedGraph>,
    dims: Vec<usize>,
    workers: usize,
    partitioner: &dyn Partitioner,
    seed: u64,
) -> DistributedEngine {
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let partition = partitioner.partition(&data.graph, workers);
    let config = TrainingConfig {
        dims,
        num_workers: workers,
        seed,
        ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
    };
    let adjs = vec![adj; config.num_layers()];
    DistributedEngine::new(Arc::clone(data), adjs, partition, config)
}

fn local_reference(
    data: &Arc<ec_graph_repro::data::AttributedGraph>,
    dims: &[usize],
    seed: u64,
    epochs: usize,
) -> GcnNetwork {
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let mut net = GcnNetwork::new(dims, 0.01, seed);
    for _ in 0..epochs {
        net.train_epoch(&adj, &data.features, &data.labels, &data.split.train);
    }
    net
}

#[test]
fn two_layer_engine_matches_autodiff_trajectory() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(100, 12, 7));
    let dims = vec![12, 8, data.num_classes];
    let mut engine = build_engine(&data, dims.clone(), 4, &HashPartitioner::default(), 42);
    for _ in 0..5 {
        engine.run_epoch();
    }
    let reference = local_reference(&data, &dims, 42, 5);
    let dist = engine.weights();
    for (l, (w, b)) in dist.iter().enumerate() {
        assert!(
            w.approx_eq(&reference.weights()[l], 2e-3),
            "layer {l} weights diverged after 5 epochs"
        );
        for (x, y) in b.iter().zip(reference.biases()[l].row(0)) {
            assert!((x - y).abs() < 2e-3, "layer {l} bias diverged");
        }
    }
}

#[test]
fn three_layer_engine_matches_autodiff_trajectory() {
    let data = Arc::new(DatasetSpec::pubmed().instantiate_with(90, 10, 9));
    let dims = vec![10, 8, 8, data.num_classes];
    let mut engine = build_engine(&data, dims.clone(), 3, &HashPartitioner::default(), 7);
    for _ in 0..4 {
        engine.run_epoch();
    }
    let reference = local_reference(&data, &dims, 7, 4);
    for (l, (w, _)) in engine.weights().iter().enumerate() {
        assert!(w.approx_eq(&reference.weights()[l], 3e-3), "3-layer engine diverged at layer {l}");
    }
}

/// `L = 1`: there is no exchange at all, so FP (`Z¹ = P_w·W⁰ + b`) and BP
/// (`Y⁰ = P_wᵀ·G¹`) both run purely off the cached first-hop aggregate.
#[test]
fn one_layer_engine_matches_autodiff_trajectory() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(100, 12, 7));
    let dims = vec![12, data.num_classes];
    let mut engine = build_engine(&data, dims.clone(), 4, &HashPartitioner::default(), 42);
    for _ in 0..5 {
        let stats = engine.run_epoch();
        assert_eq!(stats.traffic.fp_bytes + stats.traffic.bp_bytes, 0, "L = 1 exchanges nothing");
    }
    let reference = local_reference(&data, &dims, 42, 5);
    let (w, b) = &engine.weights()[0];
    assert!(w.approx_eq(&reference.weights()[0], 2e-3), "weights diverged after 5 epochs");
    for (x, y) in b.iter().zip(reference.biases()[0].row(0)) {
        assert!((x - y).abs() < 2e-3, "bias diverged");
    }
}

/// EC-Graph-S trains on a different sampled adjacency per layer, so the
/// cached `P_w` must be built from the layer-1 topology only: the first
/// loss equals a tape forward over the per-layer adjacencies, and the
/// 6-worker trajectory follows the 1-worker one.
#[test]
fn sampled_engine_is_independent_of_worker_count() {
    use ec_graph_repro::ecgraph::sampling::sample_layer_graphs;
    use ec_graph_repro::nn::loss::masked_softmax_cross_entropy;
    use ec_graph_repro::nn::Tape;
    use ec_graph_repro::tensor::{init, Matrix};

    let data = Arc::new(DatasetSpec::products().instantiate_with(150, 10, 9));
    let dims = vec![10usize, 8, data.num_classes];
    let seed = 17u64;
    let (adjs, _) = sample_layer_graphs(&data.graph, &[4, 2], 4);
    assert_ne!(adjs[0], adjs[1], "the fan-outs must give the layers different graphs");

    let mut tape = Tape::new();
    let mut h = tape.constant(data.features.clone());
    for l in 0..2 {
        let w = tape.parameter(init::xavier_uniform(dims[l], dims[l + 1], seed + l as u64));
        let b = tape.parameter(Matrix::zeros(1, dims[l + 1]));
        let hw = tape.matmul(h, w);
        let z = tape.spmm(Arc::clone(&adjs[l]), hw);
        let z = tape.add_bias(z, b);
        h = if l == 0 { tape.relu(z) } else { z };
    }
    let (loss, _) = masked_softmax_cross_entropy(tape.value(h), &data.labels, &data.split.train);

    let mut weights = Vec::new();
    for workers in [1usize, 6] {
        let config = TrainingConfig {
            dims: dims.clone(),
            num_workers: workers,
            seed,
            ..TrainingConfig::defaults(10, data.num_classes)
        };
        let partition = HashPartitioner::default().partition(&data.graph, workers);
        let mut engine = DistributedEngine::new(Arc::clone(&data), adjs.clone(), partition, config);
        let first = engine.run_epoch().loss;
        assert!((first - loss).abs() < 1e-4, "{workers} workers: loss {first} vs tape {loss}");
        for _ in 0..3 {
            engine.run_epoch();
        }
        weights.push(engine.weights());
    }
    for (l, ((wa, _), (wb, _))) in weights[0].iter().zip(&weights[1]).enumerate() {
        assert!(wa.approx_eq(wb, 2e-3), "worker-count dependence at layer {l}");
    }
}

#[test]
fn trajectory_is_independent_of_worker_count() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(80, 8, 3));
    let dims = vec![8, 8, data.num_classes];
    let mut weights = Vec::new();
    for workers in [1usize, 2, 5] {
        let mut engine =
            build_engine(&data, dims.clone(), workers, &HashPartitioner::default(), 11);
        for _ in 0..3 {
            engine.run_epoch();
        }
        weights.push(engine.weights());
    }
    for other in &weights[1..] {
        for (l, ((wa, _), (wb, _))) in weights[0].iter().zip(other).enumerate() {
            assert!(wa.approx_eq(wb, 2e-3), "worker-count dependence at layer {l}");
        }
    }
}

#[test]
fn trajectory_is_independent_of_partitioner() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(80, 8, 5));
    let dims = vec![8, 8, data.num_classes];
    let mut a = build_engine(&data, dims.clone(), 4, &HashPartitioner::default(), 13);
    let mut b = build_engine(&data, dims.clone(), 4, &MetisLikePartitioner::default(), 13);
    for _ in 0..3 {
        a.run_epoch();
        b.run_epoch();
    }
    for ((wa, _), (wb, _)) in a.weights().iter().zip(&b.weights()) {
        assert!(wa.approx_eq(wb, 2e-3), "partitioner changed the trajectory");
    }
}

#[test]
fn engine_loss_matches_local_loss_epoch_one() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(70, 8, 21));
    let dims = vec![8, 8, data.num_classes];
    let mut engine = build_engine(&data, dims.clone(), 3, &HashPartitioner::default(), 5);
    let stats = engine.run_epoch();

    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let net = GcnNetwork::new(&dims, 0.01, 5);
    let (loss, _, _) = net.compute_gradients(&adj, &data.features, &data.labels, &data.split.train);
    assert!((stats.loss - loss).abs() < 1e-4, "distributed loss {} vs local {loss}", stats.loss);
}

/// Sage-mode cross-check: the engine's manual Sage gradients must follow
/// the same trajectory as a tape-built reference of the same model
/// (`H^l = σ(Â(H W_n) + H W_s + b)`).
#[test]
fn sage_engine_matches_autodiff_trajectory() {
    use ec_graph_repro::ecgraph::config::ModelKind;
    use ec_graph_repro::nn::loss::masked_softmax_cross_entropy;
    use ec_graph_repro::nn::optim::Adam;
    use ec_graph_repro::nn::Tape;
    use ec_graph_repro::tensor::{init, Matrix};

    let data = Arc::new(DatasetSpec::cora().instantiate_with(90, 10, 31));
    let dims = vec![10usize, 8, data.num_classes];
    let num_layers = dims.len() - 1;
    let seed = 77u64;
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));

    // Distributed Sage engine.
    let config = TrainingConfig {
        dims: dims.clone(),
        model: ModelKind::Sage,
        num_workers: 3,
        seed,
        ..TrainingConfig::defaults(10, data.num_classes)
    };
    let partition = HashPartitioner::default().partition(&data.graph, 3);
    let mut engine = DistributedEngine::new(
        Arc::clone(&data),
        vec![Arc::clone(&adj); num_layers],
        partition,
        config,
    );

    // Tape reference with the *same* parameter initialization: the engine's
    // servers hold [W_n per layer | W_s per layer], xavier(seed + slot).
    let mut w_n: Vec<Matrix> = (0..num_layers)
        .map(|l| init::xavier_uniform(dims[l], dims[l + 1], seed.wrapping_add(l as u64)))
        .collect();
    let mut w_s: Vec<Matrix> = (0..num_layers)
        .map(|l| {
            init::xavier_uniform(dims[l], dims[l + 1], seed.wrapping_add((num_layers + l) as u64))
        })
        .collect();
    let mut biases: Vec<Matrix> = dims[1..].iter().map(|&d| Matrix::zeros(1, d)).collect();
    let mut shapes: Vec<(usize, usize)> = w_n.iter().map(|m| m.shape()).collect();
    shapes.extend(w_s.iter().map(|m| m.shape()));
    shapes.extend(biases.iter().map(|m| m.shape()));
    let mut adam = Adam::new(&shapes, 0.01);

    for _ in 0..4 {
        engine.run_epoch();

        let mut tape = Tape::new();
        let x = tape.constant(data.features.clone());
        let wn_ids: Vec<_> = w_n.iter().map(|w| tape.parameter(w.clone())).collect();
        let ws_ids: Vec<_> = w_s.iter().map(|w| tape.parameter(w.clone())).collect();
        let b_ids: Vec<_> = biases.iter().map(|b| tape.parameter(b.clone())).collect();
        let mut h = x;
        for l in 0..num_layers {
            let hw = tape.matmul(h, wn_ids[l]);
            let agg = tape.spmm(Arc::clone(&adj), hw);
            let hs = tape.matmul(h, ws_ids[l]);
            let sum = tape.add(agg, hs);
            let z = tape.add_bias(sum, b_ids[l]);
            h = if l + 1 < num_layers { tape.relu(z) } else { z };
        }
        let (_, grad) =
            masked_softmax_cross_entropy(tape.value(h), &data.labels, &data.split.train);
        tape.backward(h, grad);
        let mut params: Vec<Matrix> = w_n.iter().chain(&w_s).chain(&biases).cloned().collect();
        let grads: Vec<Matrix> = wn_ids
            .iter()
            .chain(&ws_ids)
            .chain(&b_ids)
            .map(|&id| tape.grad(id).unwrap().clone())
            .collect();
        adam.step(&mut params, &grads);
        w_n = params[..num_layers].to_vec();
        w_s = params[num_layers..2 * num_layers].to_vec();
        biases = params[2 * num_layers..].to_vec();
    }

    let dist = engine.weights();
    for l in 0..num_layers {
        assert!(dist[l].0.approx_eq(&w_n[l], 3e-3), "layer {l} W_n diverged");
        assert!(dist[num_layers + l].0.approx_eq(&w_s[l], 3e-3), "layer {l} W_s diverged");
        for (a, b) in dist[l].1.iter().zip(biases[l].row(0)) {
            assert!((a - b).abs() < 3e-3, "layer {l} bias diverged");
        }
    }
}
