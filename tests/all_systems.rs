//! Every system from the paper's evaluation runs end-to-end on a small
//! replica and exhibits its defining structural property — not just "does
//! not crash", but "is the system it claims to be".

use ec_bench::systems::{paper_config, run, System};
use ec_graph_repro::comm::NetworkModel;
use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::TrainingConfig;
use ec_graph_repro::ecgraph::report::RunResult;
use std::sync::Arc;

const WORKERS: usize = 3;
const LAYERS: usize = 2;

fn small_replica() -> Arc<ec_graph_repro::data::AttributedGraph> {
    Arc::new(DatasetSpec::cora().instantiate_with(400, 24, 13))
}

fn params(epochs: usize) -> TrainingConfig {
    TrainingConfig { num_workers: WORKERS, ..paper_config(&small_replica(), LAYERS, 16, epochs) }
}

#[test]
fn all_systems_learn_the_small_replica() {
    let data = small_replica();
    for system in System::all() {
        let r = run(system, &data, &params(40)).unwrap_or_else(|e| panic!("{system:?}: {e}"));
        assert_eq!((r.system.as_str(), r.epochs.len()), (system.label(), 40), "{system:?}");
        let first = r.epochs.first().unwrap().loss;
        let last = r.epochs.last().unwrap().loss;
        assert!(last < first, "{system:?}: loss {first} → {last} did not decrease");
        assert!(r.best_val_acc > 0.3, "{system:?}: val accuracy {} too low", r.best_val_acc);
    }
}

#[test]
fn single_machine_systems_have_no_network_traffic() {
    let data = small_replica();
    for system in [System::DglLike, System::PygLike] {
        let r = run(system, &data, &params(3)).unwrap();
        assert_eq!(r.total_bytes(), 0, "{system:?} should be network-free");
        assert_eq!(r.num_workers, 1);
    }
}

#[test]
fn graph_centered_systems_move_vertex_messages() {
    let data = small_replica();
    for system in [System::NonCp, System::EcGraph, System::DistGnn] {
        let r = run(system, &data, &params(3)).unwrap();
        let fp: u64 = r.epochs.iter().map(|e| e.fp_bytes).sum();
        assert!(fp > 0, "{system:?} should exchange embeddings");
    }
}

#[test]
fn ml_centered_system_moves_no_vertex_messages_per_epoch() {
    let data = small_replica();
    let r = run(System::AliGraphFg, &data, &params(3)).unwrap();
    assert_eq!(
        r.epochs.iter().map(|e| e.fp_bytes).sum::<u64>(),
        0,
        "ML-centered training must not exchange embeddings"
    );
    let param: u64 = r.epochs.iter().map(|e| e.param_bytes).sum();
    assert!(param > 0, "but it still pulls/pushes parameters");
}

#[test]
fn ec_graph_moves_fewer_bytes_than_noncp() {
    let data = small_replica();
    let exact = run(System::NonCp, &data, &params(10)).unwrap();
    let ec = run(System::EcGraph, &data, &params(10)).unwrap();
    assert!(
        ec.total_bytes() < exact.total_bytes(),
        "EC-Graph {} bytes not below Non-cp {}",
        ec.total_bytes(),
        exact.total_bytes()
    );
}

#[test]
fn distgnn_moves_fewer_forward_bytes_than_noncp() {
    let data = small_replica();
    let exact = run(System::NonCp, &data, &params(10)).unwrap();
    let d = run(System::DistGnn, &data, &params(10)).unwrap();
    // Skip epoch 0 (full cache population) when comparing.
    let fp = |r: &RunResult| r.epochs.iter().skip(1).map(|e| e.fp_bytes).sum::<u64>();
    assert!(fp(&d) < fp(&exact) / 2, "delayed aggregation saved too little");
}

#[test]
fn sampled_systems_respect_the_epoch_structure() {
    let data = small_replica();
    for system in [System::DistDgl, System::Agl, System::EcGraphS] {
        let r = run(system, &data, &params(4)).unwrap();
        assert_eq!(r.epochs.len(), 4, "{system:?} epoch count");
        assert!(r.epochs.iter().all(|e| e.compute_s > 0.0));
    }
}

/// Every distributed system pays for its parameters on the one cluster's
/// clock: the same bytes, the same 16-byte request envelope per pull and
/// the same pull → compute → push barriers the engine pays. AliGraph-FG used
/// to skip the envelope and settle a whole epoch's traffic in a single
/// flush, where a worker's pull and push overlapped for free.
#[test]
fn comparators_pay_the_engines_parameter_server_costs() {
    let data = small_replica();
    let config = params(3);
    let fg = run(System::AliGraphFg, &data, &config).unwrap();
    let exact = run(System::NonCp, &data, &config).unwrap();

    // One request per (worker, layer) pull from the single server.
    let requests = 16 * (WORKERS * LAYERS) as u64;
    let layer_bytes: Vec<u64> = config
        .layer_shapes()
        .iter()
        .map(|&(rows, cols)| ((rows * cols + cols) * 4) as u64)
        .collect();
    let model_bytes: u64 = layer_bytes.iter().sum();
    for (a, b) in fg.epochs.iter().zip(&exact.epochs) {
        assert_eq!(a.param_bytes, b.param_bytes, "Parameter bytes");
        assert_eq!(a.param_bytes, 2 * WORKERS as u64 * model_bytes, "one pull and one push each");
        // Parameter-server traffic is all AliGraph-FG moves per epoch …
        assert_eq!(a.total_bytes, a.param_bytes + requests, "request Control bytes");
        // … and Non-cp pays exactly the same envelopes: its vertex messages
        // are pushed along fixed links, unrequested.
        let control = b.total_bytes - b.param_bytes - b.fp_bytes - b.bp_bytes;
        assert_eq!(control, requests, "non-cp control bytes are the pull envelopes");
    }

    // `comm_s` is modelled from bytes alone (no host timer enters it): one
    // flush per layer pull and one for the push, each as long as its busiest
    // NIC — the server's or a worker's — takes for max(in, out) bytes.
    let net = NetworkModel::gigabit_ethernet();
    let w = WORKERS as u64;
    let pulls: f64 = layer_bytes
        .iter()
        .map(|&bytes| {
            let server = net.transfer_time((w * bytes).max(w * 16), w);
            server.max(net.transfer_time(bytes.max(16), 1))
        })
        .sum();
    let push = net.transfer_time(w * model_bytes, 0).max(net.transfer_time(model_bytes, 1));
    for e in &fg.epochs {
        assert!(
            (e.comm_s - (pulls + push)).abs() < 1e-12,
            "comm_s {} vs {}",
            e.comm_s,
            pulls + push
        );
    }
}

/// The vertex exchange is one push round: on a latency-only network (one
/// second per message, free bytes) an epoch's clock counts the busiest NIC's
/// messages per superstep. Layer 1's pull is the server's `W` replies; each
/// later forward superstep a worker's pull request plus its `W − 1` replies
/// (the server's `W` ties it); each backward exchange `W − 1` replies; the
/// push one message. No link sends a request, so the only Control bytes are
/// the `W·L` pull envelopes.
#[test]
fn the_vertex_exchange_is_one_push_round_on_a_latency_only_network() {
    use ec_graph_repro::data::normalize;
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};
    use ec_graph_repro::ecgraph::engine::DistributedEngine;
    use ec_graph_repro::ecgraph::wire::REQUEST_BYTES;
    use ec_graph_repro::partition::{hash::HashPartitioner, Partitioner};

    let data = Arc::new(DatasetSpec::cora().instantiate_with(150, 12, 5));
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let modes = [
        (FpMode::Exact, BpMode::Exact),
        (FpMode::ReqEc { bits: 2, t_tr: 4, adaptive: true }, BpMode::ResEc { bits: 4 }),
    ];
    // (L, W) → (comm_s, messages): W + (L−1)·W + (L−1)·(W−1) + 1 seconds.
    for ((layers, workers), (comm_s, messages)) in
        [((2, 3), (9.0, 27)), ((3, 3), (14.0, 45)), ((2, 6), (18.0, 90))]
    {
        for (fp_mode, bp_mode) in modes {
            let mut dims = vec![12];
            dims.extend(std::iter::repeat_n(16, layers - 1));
            dims.push(data.num_classes);
            let config = TrainingConfig {
                dims,
                num_workers: workers,
                fp_mode,
                bp_mode,
                network: NetworkModel { bandwidth: f64::INFINITY, latency: 1.0 },
                ..TrainingConfig::defaults(12, data.num_classes)
            };
            let partition = HashPartitioner::default().partition(&data.graph, workers);
            let adjs = vec![Arc::clone(&adj); layers];
            let mut engine = DistributedEngine::new(Arc::clone(&data), adjs, partition, config);
            let epoch = engine.run_epoch();
            let case = format!("L={layers} W={workers} {fp_mode:?}/{bp_mode:?}");
            assert_eq!(epoch.comm_s, comm_s, "{case}: comm_s");
            assert_eq!(epoch.traffic.messages, messages, "{case}: messages");
            let envelopes = REQUEST_BYTES * (workers * layers) as u64;
            assert_eq!(epoch.traffic.control_bytes, envelopes, "{case}: only pull envelopes");
        }
    }
}

/// The whole experiment table runs in-process at the 64-vertex floor: each
/// experiment — addressed by the stem of its `results/` file, the alias of
/// its name — must emit at least one well-formed `#json` row tagged with its
/// own name, so a panicking figure body fails Tier-1.
#[test]
fn every_experiment_runs_at_smoke_scale() {
    assert_eq!(ec_bench::experiments::EXPERIMENTS.len(), 15);
    for experiment in ec_bench::experiments::EXPERIMENTS {
        let smoke = [("scale", "1e-9"), ("epochs", "2"), ("n", "64")];
        let args: Vec<String> = std::iter::once(experiment.file.to_string())
            .chain(
                smoke
                    .iter()
                    .filter(|(key, _)| experiment.keys.iter().any(|k| k.name == *key))
                    .map(|(key, value)| format!("{key}={value}")),
            )
            .collect();
        let mut out = Vec::new();
        ec_bench::reproduce(&args, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        let out = String::from_utf8(out).expect("rows are UTF-8");
        let rows: Vec<&str> = out.lines().filter_map(|l| l.strip_prefix("#json ")).collect();
        assert!(!rows.is_empty(), "{} emitted no #json row:\n{out}", experiment.name);
        for row in rows {
            let json = serde_json::from_str(row).unwrap_or_else(|e| panic!("{row}: {e:?}"));
            assert_eq!(json["experiment"].as_str(), Some(experiment.name), "{row}");
        }
    }
}
