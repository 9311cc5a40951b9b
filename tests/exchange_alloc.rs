//! The exchange workspace's allocation budget: a steady-state, non-boundary
//! `run_epoch` of a 3-layer ReqEC-FP / ResEC-BP engine allocates nothing on
//! behalf of its four exchanges — no gathered copy, packed buffer or decoded
//! matrix per message, no remote operand per worker.
//!
//! An integration test of its own for the reason `tests/serving_alloc.rs` is
//! one: the counting `#[global_allocator]` of `tests/counting_alloc`, and a
//! single `#[test]` so that nothing else allocates while the counter is read.

mod counting_alloc;

use counting_alloc::allocations;
use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::{BpMode, ComputeConfig, FpMode, TrainingConfig};
use ec_graph_repro::ecgraph::context::build_worker_contexts;
use ec_graph_repro::ecgraph::engine::DistributedEngine;
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::Partitioner;
use std::sync::Arc;

const WORKERS: usize = 4;
const LAYERS: usize = 3;

/// Allocations of the measured epoch: the compute supersteps' results, the
/// pulled weights, the gradient push and the epoch's bookkeeping. Pinned —
/// the run is sequential and deterministic — so that an allocation creeping
/// back into the exchange (or anywhere else in the epoch) fails here and is
/// either removed or re-pinned on purpose. The hidden layers' ReLU runs in
/// place on `Z`, so `W·(L−1) = 8` fewer than when `Z` was kept beside `H`.
/// 29 fewer (145 → 116) since the parameter shard sizes are computed once
/// with the cluster: each of the three per-layer pulls built a slot list and
/// one size vector per worker (15), and each worker's push a size vector
/// plus one per layer (16). The epoch's link matrix, which grows to the
/// highest node it has seen, now grows three times instead of once (+2):
/// its first sends go from node 0 to nodes 1, 2 and 3, not to a fifth node.
/// 4 fewer (116 → 112) since the top layer (24 → 7 wide) exchanges
/// `P = H·W` rows: layer 2 forms each worker's `P` into a buffer it reuses,
/// and layer 3's aggregate is its output, without one product per worker.
/// 4 fewer (112 → 108) since layer 2, which ships `H`, aggregates into a
/// buffer each worker keeps for its weight gradient `Y¹ = A_wᵀ·G²` instead
/// of a fresh matrix per worker.
const EPOCH_ALLOCATIONS: u64 = 108;

/// What this same test body counted at the parent commit (`e9b4a17`, the
/// exchange before it had a workspace).
const PARENT_EPOCH_ALLOCATIONS: u64 = 321;

#[test]
fn a_steady_state_epoch_allocates_nothing_for_its_exchanges() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(160, 12, 5));
    let adj = Arc::new(ec_graph_repro::data::normalize::gcn_normalized_adjacency(&data.graph));
    let adjs = vec![adj; LAYERS];
    let config = TrainingConfig {
        dims: vec![12, 24, 24, data.num_classes],
        num_workers: WORKERS,
        // One trend group longer than the run: every epoch after the
        // bootstrap is a non-boundary one.
        fp_mode: FpMode::ReqEc { bits: 4, t_tr: 64, adaptive: false },
        bp_mode: BpMode::ResEc { bits: 4 },
        compute: ComputeConfig::sequential(),
        seed: 7,
        ..TrainingConfig::defaults(12, data.num_classes)
    };
    let partition = HashPartitioner::default().partition(&data.graph, WORKERS);
    // One FP and one BP message per link and epoch.
    let links: u64 = build_worker_contexts(&adjs, &partition)
        .iter()
        .flat_map(|ctx| &ctx.layers[1..])
        .map(|topo| topo.deps_by_owner.iter().filter(|deps| !deps.is_empty()).count() as u64)
        .sum();
    assert_eq!(links, (LAYERS as u64 - 1) * 12, "a hash partition links every ordered pair");
    let mut engine = DistributedEngine::new(data, adjs, partition, config);
    // The bootstrap boundary, then two epochs that grow every buffer to the
    // largest message.
    for _ in 0..3 {
        engine.run_epoch();
    }

    let before = allocations();
    let stats = engine.run_epoch();
    let allocations = allocations() - before;

    assert!(stats.loss.is_finite());
    assert_eq!(
        allocations, EPOCH_ALLOCATIONS,
        "a steady-state epoch's allocation count moved; if the exchange is not the cause, \
         re-pin EPOCH_ALLOCATIONS"
    );
    // At the parent every message cost a gathered copy, a packed buffer and
    // a decoded matrix (six per link, counting both directions) and every
    // exchange one remote operand per worker.
    let exchanges = 2 * (LAYERS as u64 - 1);
    assert!(
        allocations + 6 * links + WORKERS as u64 * exchanges <= PARENT_EPOCH_ALLOCATIONS,
        "{allocations} allocations against the parent's {PARENT_EPOCH_ALLOCATIONS}: the \
         workspace must save six per link ({links} links) and {WORKERS} per exchange"
    );
}
