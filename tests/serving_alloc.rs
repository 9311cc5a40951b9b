//! The serving workspace's allocation budget: a steady-state
//! `answer_batch` — warm workspace, warm cache, 8-bit fetches still
//! happening — allocates its answer matrix and nothing else, whether the
//! store ships projected rows or ships `H` rows that the batch projects.
//! A checkpoint refresh of that 8-bit service re-encodes every shipped row
//! without allocating for it: it allocates exactly as often as the same
//! refresh of an exact-fetch service.
//!
//! Integration tests are separate binaries, so this one can install the
//! counting `#[global_allocator]` of `tests/counting_alloc` without touching
//! any other test. It holds exactly one `#[test]`: nothing else in the
//! process allocates while the counter is read.

mod counting_alloc;

use counting_alloc::allocations;
use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::TrainingConfig;
use ec_graph_repro::ecgraph::engine::DistributedEngine;
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::Partitioner;
use ec_graph_repro::serve::{InferenceService, ServeConfig};
use std::sync::Arc;

const WORKERS: usize = 4;

#[test]
fn steady_state_batches_allocate_only_their_answer() {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(130, 10, 5));
    let adj = Arc::new(ec_graph_repro::data::normalize::gcn_normalized_adjacency(&data.graph));
    let adjs = vec![adj; 2];
    let partition = HashPartitioner::default().partition(&data.graph, WORKERS);
    // 7 classes: 8 hidden units ship projected rows, 4 ship `H` rows.
    for hidden in [8usize, 4] {
        let config = TrainingConfig {
            dims: vec![10, hidden, data.num_classes],
            num_workers: WORKERS,
            seed: 7,
            ..TrainingConfig::defaults(10, data.num_classes)
        };
        let mut engine =
            DistributedEngine::new(Arc::clone(&data), adjs.clone(), partition.clone(), config);
        engine.run_epoch();
        // A cache far smaller than the remote working set: the steady state
        // still misses, fetches through the 8-bit codec and evicts.
        let mut serve = ServeConfig::defaults(WORKERS);
        serve.fetch_bits = Some(8);
        serve.cache_rows = 12;
        serve.pinned_rows = 4;
        let mut svc = InferenceService::new(
            engine.inference_model(),
            data.clone(),
            adjs.clone(),
            Arc::new(partition.clone()),
            serve,
        );

        let batches: Vec<(usize, Vec<u32>)> = (0..WORKERS)
            .flat_map(|w| {
                let owned: Vec<u32> = (0..data.num_vertices() as u32)
                    .filter(|&v| svc.route(v as usize) == w)
                    .collect();
                owned.chunks(8).map(|chunk| (w, chunk.to_vec())).collect::<Vec<_>>()
            })
            .collect();
        // Two passes warm the workspace (it has seen every batch's size) and
        // bring the cache to its steady churn.
        for _ in 0..2 {
            for (w, ids) in &batches {
                svc.answer_batch(*w, ids).expect("valid batch");
            }
        }

        let before = allocations();
        let (mut fetched, mut hits) = (0u64, 0u64);
        for (w, ids) in &batches {
            let (logits, cost) = svc.answer_batch(*w, ids).expect("valid batch");
            assert_eq!(logits.rows(), ids.len());
            fetched += cost.fetch_rows;
            hits += cost.cache_hits;
        }
        let allocations = allocations() - before;

        assert!(
            fetched > 0 && hits > 0,
            "k={hidden}: the measured pass must both fetch ({fetched}) and hit ({hits})"
        );
        let n = batches.len() as u64;
        assert!(
            allocations >= n,
            "k={hidden}: the counter must see each answer matrix ({allocations} < {n})"
        );
        assert!(
            allocations <= 2 * n,
            "k={hidden}: {allocations} allocations over {n} steady-state batches: the workspace \
             regressed to per-row or per-batch buffers (budget: 2 per batch, the returned Matrix)"
        );

        // A refresh re-encodes every shipped row into the packed buffers the
        // previous install left behind, so the 8-bit service's refresh
        // allocates exactly what an exact-fetch service's refresh does.
        let exact_config = ServeConfig { fetch_bits: None, ..svc.config().clone() };
        let mut exact = InferenceService::new(
            engine.inference_model(),
            data.clone(),
            adjs.clone(),
            Arc::new(partition.clone()),
            exact_config,
        );
        engine.run_epoch();
        let refreshed = engine.inference_model();
        let (for_quantized, for_exact) = (refreshed.clone(), refreshed);
        let before = counting_alloc::allocations();
        svc.refresh(for_quantized);
        let quantized_refresh = counting_alloc::allocations() - before;
        let before = counting_alloc::allocations();
        exact.refresh(for_exact);
        let exact_refresh = counting_alloc::allocations() - before;
        assert_eq!(
            quantized_refresh, exact_refresh,
            "k={hidden}: an 8-bit refresh allocates {quantized_refresh} times, an exact one \
             {exact_refresh}: re-encoding the store allocated per row"
        );
    }
}
