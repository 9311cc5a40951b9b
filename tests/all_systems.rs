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
/// clock: the same bytes and the same pull → compute → push barriers the
/// engine pays. Shard `s` of the range-split model lives on worker `s`'s
/// node, so a worker pulls and pushes every shard but its own, and nothing
/// is requested: the owners send the epoch's slices unasked.
#[test]
fn comparators_pay_the_engines_parameter_server_costs() {
    let data = small_replica();
    let config = params(3);
    let fg = run(System::AliGraphFg, &data, &config).unwrap();
    let exact = run(System::NonCp, &data, &config).unwrap();

    let model_bytes: u64 =
        config.layer_shapes().iter().map(|&(rows, cols)| ((rows * cols + cols) * 4) as u64).sum();
    let shards = config.parameter_servers().shard_wire_sizes();
    assert_eq!((shards.len(), shards.iter().sum::<u64>()), (WORKERS, model_bytes));
    let w = WORKERS as u64;
    for (a, b) in fg.epochs.iter().zip(&exact.epochs) {
        assert_eq!(a.param_bytes, b.param_bytes, "Parameter bytes");
        assert_eq!(a.param_bytes, 2 * (w - 1) * model_bytes, "one pull and one push each");
        // Parameter traffic is all AliGraph-FG moves per epoch …
        assert_eq!(a.total_bytes, a.param_bytes, "no Control bytes");
        // … and Non-cp adds only its vertex messages, pushed along fixed
        // links, unrequested.
        assert_eq!(b.total_bytes, b.param_bytes + b.fp_bytes + b.bp_bytes, "no Control bytes");
    }

    // `comm_s` is modelled from bytes alone (no host timer enters it): one
    // pull barrier and one push barrier, each as long as the busiest node
    // takes for its `W − 1` messages and max(in, out) bytes. In the pull,
    // owner `s` sends `(W − 1)·S_s` and receives every other shard; the push
    // mirrors it.
    let net = NetworkModel::gigabit_ethernet();
    let barrier = shards
        .iter()
        .map(|&own| net.transfer_time(((w - 1) * own).max(model_bytes - own), w - 1))
        .fold(0.0, f64::max);
    for e in &fg.epochs {
        assert!(
            (e.comm_s - 2.0 * barrier).abs() < 1e-12,
            "comm_s {} vs {}",
            e.comm_s,
            2.0 * barrier
        );
    }
}

/// One engine epoch on a latency-only network (one second per message,
/// free bytes) for `workers` workers on `data` with layer widths `dims`.
fn latency_only_epoch(
    data: &Arc<ec_graph_repro::data::AttributedGraph>,
    dims: Vec<usize>,
    workers: usize,
    fp_mode: ec_graph_repro::ecgraph::config::FpMode,
    bp_mode: ec_graph_repro::ecgraph::config::BpMode,
) -> ec_graph_repro::ecgraph::engine::EpochStats {
    latency_only_engine(data, dims, workers, fp_mode, bp_mode).run_epoch()
}

/// The engine [`latency_only_epoch`] runs, hash-partitioned, before its
/// first epoch.
fn latency_only_engine(
    data: &Arc<ec_graph_repro::data::AttributedGraph>,
    dims: Vec<usize>,
    workers: usize,
    fp_mode: ec_graph_repro::ecgraph::config::FpMode,
    bp_mode: ec_graph_repro::ecgraph::config::BpMode,
) -> ec_graph_repro::ecgraph::engine::DistributedEngine {
    use ec_graph_repro::data::normalize;
    use ec_graph_repro::ecgraph::engine::DistributedEngine;
    use ec_graph_repro::partition::{hash::HashPartitioner, Partitioner};

    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let adjs = vec![adj; dims.len() - 1];
    let (d0, classes) = (dims[0], dims[dims.len() - 1]);
    let config = TrainingConfig {
        dims,
        num_workers: workers,
        fp_mode,
        bp_mode,
        network: NetworkModel { bandwidth: f64::INFINITY, latency: 1.0 },
        ..TrainingConfig::defaults(d0, classes)
    };
    let partition = HashPartitioner::default().partition(&data.graph, workers);
    DistributedEngine::new(Arc::clone(data), adjs, partition, config)
}

/// The vertex exchange and the parameter pull are each one push round: on
/// a latency-only network an epoch's clock counts the busiest NIC's
/// messages per superstep. Every node sends `W − 1` messages in each of
/// the `2L` barriers: the pull (each shard owner to every other worker),
/// the `L − 1` forward and `L − 1` backward exchanges (each owner to every
/// requester) and the push (each worker to every other shard). Nothing is
/// requested, so no Control byte is sent.
#[test]
fn the_vertex_exchange_is_one_push_round_on_a_latency_only_network() {
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};

    let data = Arc::new(DatasetSpec::cora().instantiate_with(150, 12, 5));
    let modes = [
        (FpMode::Exact, BpMode::Exact),
        (FpMode::ReqEc { bits: 2, t_tr: 4, adaptive: true }, BpMode::ResEc { bits: 4 }),
    ];
    // (L, W) → (comm_s, messages): 2L·(W − 1) seconds, 2L·W(W − 1) messages.
    for ((layers, workers), (comm_s, messages)) in
        [((2, 3), (8.0, 24)), ((3, 3), (12.0, 36)), ((2, 6), (20.0, 120))]
    {
        for (fp_mode, bp_mode) in modes {
            let mut dims = vec![12];
            dims.extend(std::iter::repeat_n(16, layers - 1));
            dims.push(data.num_classes);
            let epoch = latency_only_epoch(&data, dims, workers, fp_mode, bp_mode);
            let case = format!("L={layers} W={workers} {fp_mode:?}/{bp_mode:?}");
            assert_eq!(epoch.comm_s, comm_s, "{case}: comm_s");
            assert_eq!(epoch.traffic.messages, messages, "{case}: messages");
            assert_eq!(epoch.traffic.control_bytes, 0, "{case}: nothing is requested");
        }
    }
}

/// The 300-vertex `products` replica both exchange-size tests run: its
/// data, four hash-partitioned workers, three layers.
fn receptive_field_fixture() -> (Arc<ec_graph_repro::data::AttributedGraph>, Vec<usize>) {
    let data = Arc::new(DatasetSpec::products().instantiate_with(300, 12, 5));
    let dims = vec![12, 16, 8, data.num_classes];
    (data, dims)
}

/// The row count of every non-empty (requester, owner) link of one
/// exchange over `data` hash-partitioned onto `workers`, whose requester
/// vertex `v` reads `u`'s row iff `reads(v, u)`, derived from the graph.
fn link_rows(
    data: &ec_graph_repro::data::AttributedGraph,
    workers: usize,
    reads: &dyn Fn(usize, usize) -> bool,
) -> Vec<usize> {
    use ec_graph_repro::partition::{hash::HashPartitioner, Partitioner};
    use std::collections::BTreeSet;

    let g = &data.graph;
    let part = HashPartitioner::default().partition(g, workers);
    (0..workers)
        .flat_map(|i| (0..workers).map(move |j| (i, j)))
        .map(|(i, j)| {
            let rows: BTreeSet<usize> = (0..g.num_vertices())
                .filter(|&v| part.part_of(v) == i && i != j)
                .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v, u as usize)))
                .filter(|&(v, u)| part.part_of(u) == j && reads(v, u))
                .map(|(_, u)| u)
                .collect();
            rows.len()
        })
        .filter(|&rows| rows > 0)
        .collect()
}

/// The width of the rows either exchange of layer `l` ships, the narrower
/// side of the layer: forward `P = H^{l-1}·W^{l-1}` (`dims[l]` wide) or
/// `H^{l-1}` (`dims[l-1]`), outside the adaptive Bit-Tuner; backward
/// `Q = G^l·(W^{l-1})ᵀ` (`dims[l-1]` wide) or `G^l` (`dims[l]`).
fn shipped_width(dims: &[usize], l: usize) -> usize {
    dims[l - 1].min(dims[l])
}

/// In exact mode a link's message is its rows uncompressed,
/// `rows × width × 4 + 8` bytes, and the rows are the receptive field of the
/// loss, derived here from the graph alone: below the top layer every
/// remote neighbour of the requester's vertices, in both passes; at layer
/// `L`, forward the remote neighbours of the requester's training vertices
/// and backward the remote training vertices next to any of its vertices.
/// Rows are [`shipped_width`] wide: the fixture's layer 2 narrows (16 → 8)
/// and ships `P` forward and `G` backward; its layer 3 widens (8 → 47) and
/// ships `H` forward and `Q³ = G³·(W²)ᵀ` backward, 8 wide rather than 47.
#[test]
fn exact_exchanges_ship_the_receptive_field_of_the_loss() {
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};
    use std::collections::BTreeSet;

    let (data, dims) = receptive_field_fixture();
    let workers = 4;
    let train: BTreeSet<usize> = data.split.train.iter().copied().collect();
    // One message of `rows × width` floats and an 8-byte header per link.
    let exchange = |width: usize, reads: &dyn Fn(usize, usize) -> bool| -> u64 {
        link_rows(&data, workers, reads).iter().map(|&rows| (rows * width * 4 + 8) as u64).sum()
    };
    let (all, widths) = (|_: usize, _: usize| true, [2, 3].map(|l| shipped_width(&dims, l)));
    let fp = exchange(widths[0], &all) + exchange(widths[1], &|v, _| train.contains(&v));
    let bp = exchange(widths[0], &all) + exchange(widths[1], &|_, u| train.contains(&u));
    let full = exchange(widths[0], &all) + exchange(widths[1], &all);
    assert!(fp < full && bp < full, "the top layer's plans leave rows out");
    let epoch = latency_only_epoch(&data, dims, workers, FpMode::Exact, BpMode::Exact);
    assert_eq!((epoch.traffic.fp_bytes, epoch.traffic.bp_bytes), (fp, bp));
}

/// FP bytes of epoch 1 in [`a_reqec_trend_boundary_ships_h_and_an_empty_m_cr_header`].
const NON_BOUNDARY_FP_BYTES: u64 = 546;

/// What a ReqEC trend boundary costs: per link the exact rows and two
/// matrix headers, the second that of the empty `M_cr` the requester
/// derives from the `H_base` it holds — on the bootstrap epoch and on a
/// regular boundary, rows from the graph and widths from [`shipped_width`] as in
/// the exact test above. A non-boundary epoch's Selected messages are
/// priced as before the boundary stopped shipping `M_cr`: the literal is
/// that epoch's count when it did, and it did not move when layer 2 began
/// shipping `P`, since every row of that epoch is predicted and a
/// predicted row ships its selector code only, whatever its width.
#[test]
fn a_reqec_trend_boundary_ships_h_and_an_empty_m_cr_header() {
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};
    use std::collections::BTreeSet;

    let (data, dims) = receptive_field_fixture();
    let workers = 4;
    let train: BTreeSet<usize> = data.split.train.iter().copied().collect();
    let boundary = |width: usize, reads: &dyn Fn(usize, usize) -> bool| -> u64 {
        link_rows(&data, workers, reads).iter().map(|&rows| (rows * width * 4 + 16) as u64).sum()
    };
    let fp = boundary(shipped_width(&dims, 2), &|_, _| true)
        + boundary(shipped_width(&dims, 3), &|v, _| train.contains(&v));
    let reqec = FpMode::ReqEc { bits: 2, t_tr: 3, adaptive: false };
    let mut engine = latency_only_engine(&data, dims, workers, reqec, BpMode::Exact);
    // Epoch 0 bootstraps the trend group, epoch 2 ends it, epoch 1 predicts.
    let fp_bytes: Vec<u64> = (0..3).map(|_| engine.run_epoch().traffic.fp_bytes).collect();
    assert_eq!((fp_bytes[0], fp_bytes[2]), (fp, fp));
    assert_eq!(fp_bytes[1], NON_BOUNDARY_FP_BYTES);
}

/// Which side each forward exchange ships, priced from the graph on the
/// [`receptive_field_fixture`] graph: on a 2-layer exact model `P` rows,
/// `C` wide, when `C < k`, and `H` rows, `k` wide, when `C > k` or `C = k`;
/// at a 3-layer ReqEC trend boundary (exact rows and two headers per
/// link), `P` at a narrowing layer and `H` at a tie — except under the
/// adaptive Bit-Tuner, whose one width per pair is tuned at the top layer:
/// there a tie below the top keeps `H` at every layer, and `P` ships only
/// where every layer narrows.
#[test]
fn the_forward_exchange_ships_the_narrower_side() {
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};
    use std::collections::BTreeSet;

    let (data, _) = receptive_field_fixture();
    let (workers, c) = (4, data.num_classes);
    let train: BTreeSet<usize> = data.split.train.iter().copied().collect();
    let (all, top) = (|_: usize, _: usize| true, |v: usize, _: usize| train.contains(&v));
    // Per link: `rows × width` floats and `headers` 8-byte matrix headers.
    let priced = |width: usize, headers: usize, reads: &dyn Fn(usize, usize) -> bool| -> u64 {
        let rows = link_rows(&data, workers, reads);
        rows.iter().map(|&rows| (rows * width * 4 + 8 * headers) as u64).sum()
    };

    for (k, shipped) in [(c + 17, c), (c - 31, c - 31), (c, c)] {
        let epoch =
            latency_only_epoch(&data, vec![12, k, c], workers, FpMode::Exact, BpMode::Exact);
        assert_eq!(epoch.traffic.fp_bytes, priced(shipped, 1, &top), "k = {k}, C = {c}");
    }

    let fixed = FpMode::ReqEc { bits: 2, t_tr: 3, adaptive: false };
    let adaptive = FpMode::ReqEc { bits: 2, t_tr: 3, adaptive: true };
    for (dims, fp_mode, widths) in [
        (vec![12, 64, 64, c], fixed, [64, c]),
        (vec![12, 64, 64, c], adaptive, [64, 64]),
        (vec![12, 64, 56, c], adaptive, [56, c]),
    ] {
        let case = format!("{dims:?} {fp_mode:?}");
        let bootstrap = latency_only_epoch(&data, dims, workers, fp_mode, BpMode::Exact);
        let want = priced(widths[0], 2, &all) + priced(widths[1], 2, &top);
        assert_eq!(bootstrap.traffic.fp_bytes, want, "{case}");
    }
}

/// Which side each backward exchange ships, priced from the graph on the
/// [`receptive_field_fixture`] graph, on a 2-layer exact model whose top
/// layer ships the rows of the remote training vertices: `G²` rows, `C`
/// wide, when `C < k`; `Q² = G²·(W¹)ᵀ` rows, `k` wide, when `C > k`; and
/// `G²` at a tie `C = k`.
#[test]
fn the_backward_exchange_ships_the_narrower_side() {
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};
    use std::collections::BTreeSet;

    let (data, _) = receptive_field_fixture();
    let (workers, c) = (4, data.num_classes);
    let train: BTreeSet<usize> = data.split.train.iter().copied().collect();
    let top = |_: usize, u: usize| train.contains(&u);
    let priced = |width: usize| -> u64 {
        let rows = link_rows(&data, workers, &top);
        rows.iter().map(|&rows| (rows * width * 4 + 8) as u64).sum()
    };

    for (k, shipped) in [(c + 17, c), (c - 31, c - 31), (c, c)] {
        let epoch =
            latency_only_epoch(&data, vec![12, k, c], workers, FpMode::Exact, BpMode::Exact);
        assert_eq!(epoch.traffic.bp_bytes, priced(shipped), "k = {k}, C = {c}");
    }
}

/// A shard that holds no row and no bias entry of any slot sends and
/// receives nothing. With `W = 6` over the slots `4 × 3` and `3 × 3`,
/// shards 4 and 5 are empty: the four other owners each pull-send 5
/// messages, and in the push workers 0–3 send 3 messages and workers 4 and
/// 5 send 4 (the busiest NIC). The exchanges stay at `W − 1` per node.
#[test]
fn empty_parameter_shards_send_no_messages() {
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};

    let data = Arc::new(DatasetSpec::pubmed().instantiate_with(240, 4, 5));
    assert_eq!(data.num_classes, 3);
    let (workers, dims) = (6, vec![4, 3, 3]);
    let model_bytes = ((4 * 3 + 3) + (3 * 3 + 3)) * 4;
    let epoch = latency_only_epoch(&data, dims, workers, FpMode::Exact, BpMode::Exact);
    // Pull 4·5, exchanges 2·6·5, push 4·3 + 2·4.
    assert_eq!(epoch.traffic.messages, 20 + 60 + 20);
    // Pull 5, forward exchange 5, backward exchange 5, push 4.
    assert_eq!(epoch.comm_s, 19.0);
    assert_eq!(epoch.traffic.param_bytes, 2 * (workers as u64 - 1) * model_bytes);
}

/// One worker hosts the only shard, so its pull and push never leave the
/// node: no parameter byte, no message and no simulated second.
#[test]
fn a_single_worker_pays_nothing_for_its_parameters() {
    use ec_graph_repro::ecgraph::config::{BpMode, FpMode};

    let data = small_replica();
    let dims = vec![24, 16, data.num_classes];
    let epoch = latency_only_epoch(&data, dims, 1, FpMode::Exact, BpMode::Exact);
    assert_eq!(epoch.traffic.param_bytes, 0);
    assert_eq!(epoch.traffic.messages, 0);
    assert_eq!(epoch.comm_s, 0.0);
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
