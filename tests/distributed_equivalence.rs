//! The load-bearing correctness test of the reproduction: with compression
//! disabled, the distributed engine (manual gradients, Eqs. 4–6, any
//! number of workers, any partitioner) must follow *exactly* the same
//! training trajectory as a single-machine autodiff trainer.

use ec_graph_repro::comm::ParameterServerGroup;
use ec_graph_repro::data::{normalize, AttributedGraph, DatasetSpec};
use ec_graph_repro::ecgraph::config::{ModelKind, TrainingConfig};
use ec_graph_repro::ecgraph::engine::DistributedEngine;
use ec_graph_repro::nn::loss::masked_softmax_cross_entropy;
use ec_graph_repro::nn::{Tape, VarId};
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::metis::MetisLikePartitioner;
use ec_graph_repro::partition::Partitioner;
use ec_graph_repro::tensor::{CsrMatrix, Matrix};
use std::sync::Arc;

fn config_for(
    data: &AttributedGraph,
    dims: Vec<usize>,
    workers: usize,
    seed: u64,
) -> TrainingConfig {
    TrainingConfig {
        dims,
        num_workers: workers,
        seed,
        ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
    }
}

fn build_engine(
    data: &Arc<AttributedGraph>,
    dims: Vec<usize>,
    workers: usize,
    partitioner: &dyn Partitioner,
    seed: u64,
) -> DistributedEngine {
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let partition = partitioner.partition(&data.graph, workers);
    let config = config_for(data, dims, workers, seed);
    let adjs = vec![adj; config.num_layers()];
    DistributedEngine::new(Arc::clone(data), adjs, partition, config)
}

/// The single-machine reference: the model built on the autodiff tape over
/// the global graph, its parameters held and updated by the parameter
/// servers a run of the same configuration starts from. It shares the
/// engine's slot layout, Xavier seeds and Adam arithmetic, so what differs
/// from the engine is exactly what this file checks: manual gradients
/// against autodiff, on one machine against many.
struct Reference {
    model: ModelKind,
    adjs: Vec<Arc<CsrMatrix>>,
    ps: ParameterServerGroup,
}

impl Reference {
    fn new(config: &TrainingConfig, adjs: Vec<Arc<CsrMatrix>>) -> Self {
        Self { model: config.model, adjs, ps: config.parameter_servers() }
    }

    /// The full-batch mean loss at the current parameters and its gradient
    /// for every server slot (zero where the loss does not reach: the
    /// GraphSAGE self slots carry an unused bias).
    fn loss_and_grads(&self, data: &AttributedGraph) -> (f32, Vec<(Matrix, Vec<f32>)>) {
        let num_layers = self.adjs.len();
        let mut tape = Tape::new();
        let slots: Vec<(VarId, VarId)> = (0..self.ps.num_layers())
            .map(|s| {
                let (w, b) = self.ps.pull(s);
                let bias = Matrix::from_vec(1, b.len(), b.to_vec());
                (tape.parameter(w.clone()), tape.parameter(bias))
            })
            .collect();
        let mut h = tape.constant(data.features.clone());
        for (l, adj) in self.adjs.iter().enumerate() {
            let hw = tape.matmul(h, slots[l].0);
            let mut z = tape.spmm(Arc::clone(adj), hw);
            if self.model == ModelKind::Sage {
                let hs = tape.matmul(h, slots[num_layers + l].0);
                z = tape.add(z, hs);
            }
            let z = tape.add_bias(z, slots[l].1);
            h = if l + 1 < num_layers { tape.relu(z) } else { z };
        }
        let train = &data.split.train;
        let (loss, grad) =
            masked_softmax_cross_entropy(tape.value(h), &data.labels, train, train.len());
        tape.backward(h, grad);
        let grad_of = |id: VarId| {
            let (rows, cols) = tape.value(id).shape();
            tape.grad(id).cloned().unwrap_or_else(|| Matrix::zeros(rows, cols))
        };
        (loss, slots.iter().map(|&(w, b)| (grad_of(w), grad_of(b).into_vec())).collect())
    }

    /// One full-batch epoch: autodiff gradients, one push, one Adam step.
    fn train_epoch(&mut self, data: &AttributedGraph) {
        let (_, grads) = self.loss_and_grads(data);
        self.ps.push(&grads);
        self.ps.apply_update();
    }
}

/// The GCN reference over the symmetric-normalized adjacency, trained for
/// `epochs` epochs.
fn local_reference(
    data: &Arc<AttributedGraph>,
    dims: &[usize],
    seed: u64,
    epochs: usize,
) -> ParameterServerGroup {
    let config = config_for(data, dims.to_vec(), 1, seed);
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let mut reference = Reference::new(&config, vec![adj; config.num_layers()]);
    for _ in 0..epochs {
        reference.train_epoch(data);
    }
    reference.ps
}

/// On a narrowing top layer (8 → 7: `P` forward, `G` backward) and on a
/// widening one (6 → 7: `H` forward, `Q = G·Wᵀ` backward, and the weight
/// gradient taken from the kept forward aggregate).
#[test]
fn two_layer_engine_matches_autodiff_trajectory() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(100, 12, 7));
    for hidden in [8, 6] {
        let dims = vec![12, hidden, data.num_classes];
        let mut engine = build_engine(&data, dims.clone(), 4, &HashPartitioner::default(), 42);
        for _ in 0..5 {
            engine.run_epoch();
        }
        let reference = local_reference(&data, &dims, 42, 5);
        for (l, (w, b)) in engine.weights().iter().enumerate() {
            let (rw, rb) = reference.pull(l);
            assert!(w.approx_eq(rw, 2e-3), "{dims:?}: layer {l} weights diverged after 5 epochs");
            for (x, y) in b.iter().zip(rb) {
                assert!((x - y).abs() < 2e-3, "{dims:?}: layer {l} bias diverged");
            }
        }
    }
}

/// With layer 2 at a tie (8 → 8) and, in the second shape, widening
/// (4 → 8), so that the backward pass of layer 3 forms the `Q²` that
/// layer 2 ships.
#[test]
fn three_layer_engine_matches_autodiff_trajectory() {
    let data = Arc::new(DatasetSpec::pubmed().instantiate_with(90, 10, 9));
    for hidden in [8, 4] {
        let dims = vec![10, hidden, 8, data.num_classes];
        let mut engine = build_engine(&data, dims.clone(), 3, &HashPartitioner::default(), 7);
        for _ in 0..4 {
            engine.run_epoch();
        }
        let reference = local_reference(&data, &dims, 7, 4);
        for (l, (w, _)) in engine.weights().iter().enumerate() {
            let want = reference.pull(l).0;
            assert!(w.approx_eq(want, 3e-3), "{dims:?} engine diverged at layer {l}");
        }
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
    let ((w, b), (rw, rb)) = (&engine.weights()[0], reference.pull(0));
    assert!(w.approx_eq(rw, 2e-3), "weights diverged after 5 epochs");
    for (x, y) in b.iter().zip(rb) {
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

    let data = Arc::new(DatasetSpec::products().instantiate_with(150, 10, 9));
    let dims = vec![10usize, 8, data.num_classes];
    let seed = 17u64;
    let (adjs, _) = sample_layer_graphs(&data.graph, &[4, 2], 4);
    assert_ne!(adjs[0], adjs[1], "the fan-outs must give the layers different graphs");

    let reference = Reference::new(&config_for(&data, dims.clone(), 1, seed), adjs.clone());
    let (loss, _) = reference.loss_and_grads(&data);

    let mut weights = Vec::new();
    for workers in [1usize, 6] {
        let config = config_for(&data, dims.clone(), workers, seed);
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
    let reference = Reference::new(&config_for(&data, dims, 1, 5), vec![adj; 2]);
    let (loss, _) = reference.loss_and_grads(&data);
    assert!((stats.loss - loss).abs() < 1e-4, "distributed loss {} vs local {loss}", stats.loss);
}

/// Sage-mode cross-check: the engine's manual Sage gradients must follow
/// the same trajectory as a tape-built reference of the same model
/// (`H^l = σ(Â(H W_n) + H W_s + b)`), on a narrowing and on a widening top
/// layer (where `Q = G·W_nᵀ` ships and the local `G·W_sᵀ` term stays).
#[test]
fn sage_engine_matches_autodiff_trajectory() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(90, 10, 31));
    for hidden in [8, 6] {
        let dims = vec![10usize, hidden, data.num_classes];
        let num_layers = dims.len() - 1;
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let config = TrainingConfig { model: ModelKind::Sage, ..config_for(&data, dims, 3, 77) };
        let adjs = vec![adj; num_layers];

        let partition = HashPartitioner::default().partition(&data.graph, 3);
        let mut engine =
            DistributedEngine::new(Arc::clone(&data), adjs.clone(), partition, config.clone());
        let mut reference = Reference::new(&config, adjs);
        for _ in 0..4 {
            engine.run_epoch();
            reference.train_epoch(&data);
        }

        let dist = engine.weights();
        for l in 0..num_layers {
            let ((w_n, bias), (w_s, _)) = (reference.ps.pull(l), reference.ps.pull(num_layers + l));
            assert!(dist[l].0.approx_eq(w_n, 3e-3), "hidden {hidden}: layer {l} W_n diverged");
            assert!(
                dist[num_layers + l].0.approx_eq(w_s, 3e-3),
                "hidden {hidden}: layer {l} W_s diverged"
            );
            for (a, b) in dist[l].1.iter().zip(bias) {
                assert!((a - b).abs() < 3e-3, "hidden {hidden}: layer {l} bias diverged");
            }
        }
    }
}
