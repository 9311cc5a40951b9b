//! The serving path's correctness contract:
//!
//! 1. a checkpoint written by a trained engine reloads — through a *fresh*
//!    engine and through the engine-free `ModelWeights` path — into
//!    byte-identical forward output;
//! 2. in exact-fetch mode every served answer is bit-identical to the
//!    corresponding row of the full-graph forward pass;
//! 3. the embedding cache is invisible: cache-on and cache-off runs return
//!    byte-identical answers, for exact *and* quantized fetches, before
//!    and after a checkpoint refresh (DESIGN.md §10's coherence rule);
//! 4. with 8-bit fetches of projected rows every answer stays inside the
//!    error bound the benchmark states on the hidden rows;
//! 5. the closed-loop load generator is a pure function of its seed.

use ec_graph_repro::compress::Quantized;
use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::{ModelKind, TrainingConfig};
use ec_graph_repro::ecgraph::engine::DistributedEngine;
use ec_graph_repro::ecgraph::infer::ModelWeights;
use ec_graph_repro::faults::FaultPlan;
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::{Partition, Partitioner};
use ec_graph_repro::serve::service::ServeError;
use ec_graph_repro::serve::{run_closed_loop, InferenceService, ServeConfig, WorkloadConfig};
use ec_graph_repro::tensor::{CsrMatrix, Matrix};
use std::sync::Arc;

type Fixture = (
    Arc<ec_graph_repro::data::AttributedGraph>,
    Vec<Arc<CsrMatrix>>,
    Arc<Partition>,
    TrainingConfig,
);

const WORKERS: usize = 4;

fn fixture(model: ModelKind) -> Fixture {
    let data = Arc::new(DatasetSpec::cora().instantiate_with(130, 10, 5));
    let adj = Arc::new(ec_graph_repro::data::normalize::gcn_normalized_adjacency(&data.graph));
    let adjs = vec![adj; 2];
    let config = TrainingConfig {
        dims: vec![10, 8, data.num_classes],
        model,
        num_workers: WORKERS,
        max_epochs: 3,
        seed: 7,
        ..TrainingConfig::defaults(10, data.num_classes)
    };
    let partition = Arc::new(HashPartitioner::default().partition(&data.graph, WORKERS));
    (data, adjs, partition, config)
}

/// [`fixture`] on a partition whose last worker owns no vertex.
fn fixture_with_an_empty_part(model: ModelKind) -> Fixture {
    let (data, adjs, _, config) = fixture(model);
    let parts = (0..data.num_vertices() as u32).map(|v| v % (WORKERS as u32 - 1)).collect();
    (data, adjs, Arc::new(Partition::new(parts, WORKERS)), config)
}

/// [`fixture`] with every edge of each fifth vertex removed: those vertices
/// have degree zero, and the normalized adjacency leaves them their
/// self-loop only.
fn fixture_with_isolated_vertices(model: ModelKind) -> Fixture {
    let (data, _, partition, config) = fixture(model);
    let isolated = |v: u32| v.is_multiple_of(5);
    let edges: Vec<(u32, u32)> =
        data.graph.edges().filter(|&(a, b)| !isolated(a) && !isolated(b)).collect();
    let graph = ec_graph_repro::data::Graph::from_edges(data.num_vertices(), &edges);
    assert!((0..data.num_vertices()).step_by(5).all(|v| graph.degree(v) == 0));
    let adj = Arc::new(ec_graph_repro::data::normalize::gcn_normalized_adjacency(&graph));
    let data = ec_graph_repro::data::AttributedGraph { graph, ..(*data).clone() };
    (Arc::new(data), vec![adj; 2], partition, config)
}

fn trained_engine(fx: &Fixture, epochs: usize) -> DistributedEngine {
    let (data, adjs, partition, config) = fx;
    let mut engine = DistributedEngine::new(
        Arc::clone(data),
        adjs.clone(),
        (**partition).clone(),
        config.clone(),
    );
    for _ in 0..epochs {
        engine.run_epoch();
    }
    engine
}

fn bits_of(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Serves every vertex through its owning worker in fixed-size batches and
/// stacks the answers back into vertex order.
fn serve_all(svc: &mut InferenceService, n: usize, out_dim: usize) -> Matrix {
    let mut out = Matrix::zeros(n, out_dim);
    for w in 0..svc.num_workers() {
        let owned: Vec<u32> = (0..n as u32).filter(|&v| svc.route(v as usize) == w).collect();
        for chunk in owned.chunks(8) {
            let (logits, _) = svc.answer_batch(w, chunk).expect("valid batch");
            for (i, &v) in chunk.iter().enumerate() {
                out.set_row(v as usize, logits.row(i));
            }
        }
    }
    out
}

/// Satellite: `save_checkpoint` → fresh engine → `load_checkpoint` must
/// reproduce `forward_global` to the bit, with the engine-free
/// `ModelWeights::load` path agreeing as a third witness.
#[test]
fn on_disk_checkpoint_round_trips_bit_identically() {
    for model in [ModelKind::Gcn, ModelKind::Sage] {
        let fx = fixture(model);
        let trained = trained_engine(&fx, 3);
        let reference = trained.forward_global();
        let path = std::env::temp_dir().join(format!(
            "serving_suite_rt_{:?}_{}.ckpt",
            model,
            std::process::id()
        ));
        trained.save_checkpoint(&path).expect("save");
        drop(trained);

        let mut fresh = trained_engine(&fx, 0);
        assert_ne!(
            bits_of(&fresh.forward_global()),
            bits_of(&reference),
            "fresh engine must start from different weights or the test is vacuous"
        );
        fresh.load_checkpoint(&path).expect("load");
        assert_eq!(bits_of(&fresh.forward_global()), bits_of(&reference));

        let standalone = ModelWeights::load(&path, model).expect("standalone load");
        let (_, adjs, _, _) = &fx;
        let out = standalone.forward(adjs, &fx.0.features, 1);
        assert_eq!(bits_of(&out), bits_of(&reference));
        let _ = std::fs::remove_file(&path);
    }
}

/// Acceptance: exact-fetch serving reproduces the full forward pass bit
/// for bit, for both model kinds.
#[test]
fn served_answers_match_the_full_forward_pass() {
    for model in [ModelKind::Gcn, ModelKind::Sage] {
        let fx = fixture(model);
        let engine = trained_engine(&fx, 3);
        let reference = engine.forward_global();
        let weights = engine.inference_model();
        let (data, adjs, partition, _) = &fx;
        let mut svc = InferenceService::new(
            weights,
            Arc::clone(data),
            adjs.clone(),
            Arc::clone(partition),
            ServeConfig::defaults(WORKERS),
        );
        let served = serve_all(&mut svc, data.num_vertices(), data.num_classes);
        assert_eq!(bits_of(&served), bits_of(&reference), "{model:?} serving diverged");
    }
}

/// Acceptance: the cache is invisible — cache-on and cache-off (direct)
/// answers are byte-identical under exact and quantized fetches, and stay
/// so after a simulated checkpoint refresh.
#[test]
fn cached_answers_are_byte_identical_to_direct_answers() {
    for fetch_bits in [None, Some(8u8)] {
        let fx = fixture(ModelKind::Gcn);
        let engine_v0 = trained_engine(&fx, 2);
        let weights_v0 = engine_v0.inference_model();
        let (data, adjs, partition, _) = &fx;
        let n = data.num_vertices();

        let build = |cache_rows: usize, pinned_rows: usize| {
            let mut sc = ServeConfig::defaults(WORKERS);
            sc.cache_rows = cache_rows;
            sc.pinned_rows = pinned_rows;
            sc.fetch_bits = fetch_bits;
            InferenceService::new(
                weights_v0.clone(),
                Arc::clone(data),
                adjs.clone(),
                Arc::clone(partition),
                sc,
            )
        };
        let mut cached = build(256, 32);
        let mut direct = build(0, 0);

        // Serve everything twice so the second pass hits warm cache rows.
        let _ = serve_all(&mut cached, n, data.num_classes);
        let warm = serve_all(&mut cached, n, data.num_classes);
        let cold = serve_all(&mut direct, n, data.num_classes);
        assert_eq!(
            bits_of(&warm),
            bits_of(&cold),
            "cache changed an answer (fetch_bits {fetch_bits:?})"
        );
        let hits: u64 = cached.cache_stats().iter().map(|s| s.0).sum();
        assert!(hits > 0, "the cached run must actually hit the cache");

        // Simulated checkpoint refresh: train further, push new weights.
        let engine_v1 = trained_engine(&fx, 3);
        let weights_v1 = engine_v1.inference_model();
        cached.refresh(weights_v1.clone());
        direct.refresh(weights_v1);
        assert_eq!(cached.version(), 1);
        let warm_v1 = serve_all(&mut cached, n, data.num_classes);
        let cold_v1 = serve_all(&mut direct, n, data.num_classes);
        assert_eq!(
            bits_of(&warm_v1),
            bits_of(&cold_v1),
            "cache served stale rows after refresh (fetch_bits {fetch_bits:?})"
        );
        assert_ne!(bits_of(&warm_v1), bits_of(&warm), "refresh must change the answers");
    }
}

/// The 8-bit error bound the benchmark's `served_rows_match_forward` check
/// applies, held on every vertex of a store that ships projected rows
/// (`C = 7 < k = 8`): answer element `j` of vertex `v` is within
/// `Σ_remote |a_vc| · max_error(8-bit H row c) · Σ_k |W_kj|` (× 1.001, + 1e-5)
/// of `ModelWeights::forward`, although what crossed the wire was the
/// quantized `P` row, not the `H` row the bound is stated on.
#[test]
fn eight_bit_answers_stay_inside_the_hidden_row_bound() {
    for model in [ModelKind::Gcn, ModelKind::Sage] {
        let fx = fixture(model);
        let weights = trained_engine(&fx, 3).inference_model();
        let (data, adjs, partition, _) = &fx;
        let config = ServeConfig { fetch_bits: Some(8), ..ServeConfig::defaults(WORKERS) };
        let mut svc = InferenceService::new(
            weights.clone(),
            Arc::clone(data),
            adjs.clone(),
            Arc::clone(partition),
            config,
        );
        let served = serve_all(&mut svc, data.num_vertices(), data.num_classes);
        let reference = weights.forward(adjs, &data.features, 1);
        let hidden = weights.forward_through(adjs, &data.features, 1, 1);
        assert!(weights.output_dim() < hidden.cols(), "the fixture must ship projected rows");
        let (w_last, _) = weights.layer(1);
        let col_abs_sum: Vec<f32> = (0..w_last.cols())
            .map(|j| (0..w_last.rows()).map(|k| w_last.get(k, j).abs()).sum())
            .collect();
        let mut remote_terms = 0;
        for v in 0..data.num_vertices() {
            let worker = partition.part_of(v);
            let slack: f32 = adjs[1]
                .row_entries(v)
                .filter(|&(c, _)| partition.part_of(c) != worker)
                .map(|(c, a)| {
                    let row = Matrix::from_vec(1, hidden.cols(), hidden.row(c).to_vec());
                    a.abs() * Quantized::compress(&row, 8).max_error()
                })
                .sum();
            remote_terms += usize::from(slack > 0.0);
            for ((got, want), s) in served.row(v).iter().zip(reference.row(v)).zip(&col_abs_sum) {
                let err = (got - want).abs();
                assert!(
                    err <= slack * s * 1.001 + 1e-5,
                    "{model:?} vertex {v}: |err| {err} over the bound {}",
                    slack * s * 1.001 + 1e-5
                );
            }
        }
        assert!(remote_terms > data.num_vertices() / 2, "{model:?}: too few remote neighbours");
    }
}

/// Routing misuse is reported as a value, never a panic (the request loop
/// is under `ec-serve`'s crate-root panic ban).
#[test]
fn misrouted_and_out_of_range_batches_are_rejected() {
    let fx = fixture(ModelKind::Gcn);
    let engine = trained_engine(&fx, 1);
    let (data, adjs, partition, _) = &fx;
    let mut svc = InferenceService::new(
        engine.inference_model(),
        Arc::clone(data),
        adjs.clone(),
        Arc::clone(partition),
        ServeConfig::defaults(WORKERS),
    );
    let v0 = 0u32;
    let wrong = (svc.route(0) + 1) % WORKERS;
    assert!(matches!(
        svc.answer_batch(wrong, &[v0]),
        Err(ServeError::WrongOwner { vertex: 0, .. })
    ));
    let out_of_range = data.num_vertices() as u32;
    assert!(matches!(
        svc.answer_batch(svc.route(0), &[out_of_range]),
        Err(ServeError::VertexOutOfRange(v)) if v == out_of_range
    ));
}

/// ROADMAP 10: a service whose last worker owns no vertex (an empty store
/// part, nothing routed to it) answers every request, exact and 8-bit.
#[test]
fn a_service_with_an_empty_part_serves_every_request() {
    let fx = fixture_with_an_empty_part(ModelKind::Gcn);
    let weights = trained_engine(&fx, 2).inference_model();
    let (data, adjs, partition, _) = &fx;
    for fetch_bits in [None, Some(8u8)] {
        let config = ServeConfig { fetch_bits, ..ServeConfig::defaults(WORKERS) };
        let mut svc = InferenceService::new(
            weights.clone(),
            Arc::clone(data),
            adjs.clone(),
            Arc::clone(partition),
            config,
        );
        let workload = WorkloadConfig { total_requests: 200, ..WorkloadConfig::defaults() };
        let report = run_closed_loop(&mut svc, &workload);
        assert_eq!((report.issued, report.served), (200, 200), "fetch_bits {fetch_bits:?}");
        assert_eq!(report.per_worker[WORKERS - 1].served, 0, "fetch_bits {fetch_bits:?}");
    }
}

/// ROADMAP 10: zero-degree vertices through serve, under GCN and SAGE. With
/// exact fetches every answer — the isolated vertices' included — is
/// `ModelWeights::forward`'s bit for bit; with 8-bit fetches every answer is
/// finite; and a closed loop serves every request it issues either way.
#[test]
fn zero_degree_vertices_are_served() {
    for model in [ModelKind::Gcn, ModelKind::Sage] {
        let fx = fixture_with_isolated_vertices(model);
        let weights = trained_engine(&fx, 2).inference_model();
        let (data, adjs, partition, _) = &fx;
        let reference = weights.forward(adjs, &data.features, 1);
        for fetch_bits in [None, Some(8u8)] {
            let config = ServeConfig { fetch_bits, ..ServeConfig::defaults(WORKERS) };
            let build = || {
                let (data, partition) = (Arc::clone(data), Arc::clone(partition));
                InferenceService::new(
                    weights.clone(),
                    data,
                    adjs.clone(),
                    partition,
                    config.clone(),
                )
            };
            let served = serve_all(&mut build(), data.num_vertices(), data.num_classes);
            let tag = format!("{model:?} fetch_bits {fetch_bits:?}");
            match fetch_bits {
                None => assert_eq!(bits_of(&served), bits_of(&reference), "{tag}"),
                Some(_) => assert!(served.as_slice().iter().all(|x| x.is_finite()), "{tag}"),
            }
            let workload = WorkloadConfig { total_requests: 200, ..WorkloadConfig::defaults() };
            let report = run_closed_loop(&mut build(), &workload);
            assert_eq!((report.issued, report.served), (200, 200), "{tag}");
        }
    }
}

/// The three closed-loop cells the suite pins: the default one, the
/// opposite corner of the old serving grid — no cache, one 2× straggler —
/// and the default with 8-bit fetches, the one cell whose replies are
/// quantized.
fn closed_loop_cells() -> [(&'static str, ServeConfig); 3] {
    let mut uncached_straggler = ServeConfig::defaults(WORKERS);
    uncached_straggler.cache_rows = 0;
    uncached_straggler.pinned_rows = 0;
    uncached_straggler.faults = FaultPlan::none().with_straggler(0, 2.0);
    let quantized8 = ServeConfig { fetch_bits: Some(8), ..ServeConfig::defaults(WORKERS) };
    [
        ("default", ServeConfig::defaults(WORKERS)),
        ("uncached_straggler", uncached_straggler),
        ("quantized8", quantized8),
    ]
}

/// One 400-request closed loop per call on a fresh service, as report JSON.
fn closed_loop_runner() -> impl Fn(&ServeConfig, u64) -> String {
    ec_graph_repro::comm::set_deterministic_timing(true);
    let fx = fixture(ModelKind::Gcn);
    let weights = trained_engine(&fx, 2).inference_model();
    move |config: &ServeConfig, seed: u64| {
        let (data, adjs, partition, _) = &fx;
        let mut svc = InferenceService::new(
            weights.clone(),
            Arc::clone(data),
            adjs.clone(),
            Arc::clone(partition),
            config.clone(),
        );
        let workload = WorkloadConfig { total_requests: 400, seed, ..WorkloadConfig::defaults() };
        run_closed_loop(&mut svc, &workload).to_json().to_string()
    }
}

/// The closed loop is a pure function of (config, seed): identical runs
/// emit byte-identical reports; a different seed must change them.
#[test]
fn closed_loop_reports_are_seed_deterministic() {
    let run = closed_loop_runner();
    for (_, config) in closed_loop_cells() {
        let a = run(&config, 17);
        assert_eq!(a, run(&config, 17), "identical serving runs diverged");
        assert_ne!(a, run(&config, 18), "the workload seed must influence the run");
    }
}

/// The report is a function of the lookups issued and the bytes and flops
/// counted — not of how the host answers a batch. The fixtures under
/// `tests/golden/serve_report_*.json` were last written by this test when
/// the store began shipping projected rows (fewer reply bytes, fewer
/// counted flops; the same lookups); a host-side rewrite of `answer_batch`,
/// the cache or the event loop must reproduce them byte for byte.
/// Regenerate only for a change that is *meant* to move a simulated
/// quantity: `UPDATE_GOLDEN=1 cargo test --test serving_suite`.
#[test]
fn closed_loop_reports_match_the_committed_goldens() {
    let run = closed_loop_runner();
    for (name, config) in closed_loop_cells() {
        let actual = run(&config, 17) + "\n";
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/serve_report_{name}.json"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &actual).expect("write golden fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read golden fixture {} ({e})", path.display()));
        assert_eq!(actual, expected, "the {name} cell's ServeReport drifted from its golden");
    }
}
