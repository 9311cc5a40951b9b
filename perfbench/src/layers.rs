//! Per-layer measurement by replay.
//!
//! From outside, `run_epoch` and `answer_batch` are opaque spans. Each
//! layer under them is therefore measured by calling its public functions
//! directly, on operands with the workload's own shapes: per-worker
//! local/remote row counts and link sizes from
//! `context::build_worker_contexts`, the workload's dims and bit widths,
//! and — for the ReqEC Selector, whose cost and outcome depend on how
//! embeddings drift — the real layer-(L−1) embeddings of consecutive
//! epochs. Every replay reports a rate and, where it stands for work an
//! epoch does, seconds per epoch-equivalent to set beside
//! `core.epoch_host_seq_s`.

use crate::report::Metrics;
use crate::setup::Inputs;
use crate::stats::{best, median, tail};
use crate::trace::Tracer;
use crate::workloads::{Workload, T_TR};
use ec_comm::ps::AdamParams;
use ec_comm::stats::Channel;
use ec_comm::{codec, NetworkModel, ParameterServerGroup, SimNetwork};
use ec_compress::Quantized;
use ec_graph::bp::{self, ResidualState};
use ec_graph::context::WorkerContext;
use ec_graph::engine::{DistributedEngine, EngineSnapshot};
use ec_graph::fp::{self, TrendState, SELECT_CPS, SELECT_PDT};
use ec_graph::infer::ModelWeights;
use ec_graph::wire::{BpMessage, FpMessage};
use ec_graph::{BpMode, FpMode};
use ec_serve::loadgen::ZipfSampler;
use ec_serve::{EmbeddingCache, EmbeddingStore, InferenceService};
use ec_tensor::pool::{Task, WorkerPool};
use ec_tensor::{init, parallel, CsrMatrix, Matrix};
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of each epoch-equivalent replay; the best round is reported.
const ROUNDS: usize = 3;

/// Host seconds a rate measurement runs for at least.
const RATE_MIN_S: f64 = 0.03;

/// Host seconds one timed sample should last at least, so that the clock's
/// resolution is far below a percent of it.
const SAMPLE_MIN_S: f64 = 2e-4;

/// Times `f` until [`RATE_MIN_S`] and three samples have passed and
/// returns the seconds per call of each sample. A sample is one span
/// around as many back-to-back calls as [`SAMPLE_MIN_S`] needs, sized from
/// a first, discarded call.
fn sample(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let start = Instant::now();
    f();
    let first = start.elapsed().as_secs_f64().max(1e-9);
    let calls = ((SAMPLE_MIN_S / first).ceil() as usize).clamp(1, 100_000);
    let mut secs = Vec::new();
    while secs.len() < 3 || start.elapsed().as_secs_f64() < RATE_MIN_S {
        let ((), s) = tracer.timed(layer, name, || {
            for _ in 0..calls {
                f();
            }
        });
        tracer.count_last(calls as u64);
        secs.push(s / calls as f64);
    }
    secs
}

/// Dense operands by shape, generated once and reused across kernels.
#[derive(Default)]
struct Operands(BTreeMap<(usize, usize), Matrix>);

impl Operands {
    /// Generates the operand of `shape` unless it exists already.
    fn ensure(&mut self, shape: (usize, usize)) {
        let (rows, cols) = shape;
        self.0
            .entry(shape)
            .or_insert_with(|| init::uniform(rows, cols, -0.5, 0.5, (rows * 31 + cols) as u64));
    }

    fn get(&mut self, rows: usize, cols: usize) -> &Matrix {
        self.ensure((rows, cols));
        &self.0[&(rows, cols)]
    }
}

/// The non-empty links `(requester, owner, rows)` of the partitioned
/// graph: `rows` remote rows travel owner → requester per exchange.
pub fn links(contexts: &[WorkerContext]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for ctx in contexts {
        for (owner, deps) in ctx.layers[0].deps_by_owner.iter().enumerate() {
            if owner != ctx.worker_id && !deps.is_empty() {
                out.push((ctx.worker_id, owner, deps.len()));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- ec-tensor

#[derive(Clone, Copy, Default)]
struct KernelCost {
    secs: f64,
    flops: f64,
    bytes: f64,
}

const MATMUL: usize = 0;
const AT_B: usize = 1;
const A_BT: usize = 2;
const SPMM: usize = 3;

/// One round of kernel calls being timed: cost per kernel in the order
/// [`MATMUL`], [`AT_B`], [`A_BT`], [`SPMM`].
struct KernelRound<'a> {
    cost: [KernelCost; 4],
    ops: &'a mut Operands,
    tracer: &'a mut Tracer,
    /// Kernel threads every call is made with.
    kt: usize,
}

impl KernelRound<'_> {
    /// Times dense kernel `which` on operands of shapes `a` and `b`.
    fn dense(&mut self, which: usize, a: (usize, usize), b: (usize, usize)) {
        self.ops.ensure(a);
        self.ops.ensure(b);
        let (lhs, rhs) = (&self.ops.0[&a], &self.ops.0[&b]);
        let (name, flops) = match which {
            MATMUL => ("matmul", 2 * a.0 * a.1 * b.1),
            AT_B => ("matmul_at_b", 2 * a.0 * a.1 * b.1),
            _ => ("matmul_a_bt", 2 * a.0 * a.1 * b.0),
        };
        let kt = self.kt;
        let ((), secs) = self.tracer.timed("tensor", name, || {
            black_box(match which {
                MATMUL => parallel::matmul(lhs, rhs, kt),
                AT_B => parallel::matmul_at_b(lhs, rhs, kt),
                _ => parallel::matmul_a_bt(lhs, rhs, kt),
            });
        });
        self.cost[which].secs += secs;
        self.cost[which].flops += flops as f64;
    }

    /// Times `adj · B` for a dense `B` with `cols` columns.
    fn sparse(&mut self, adj: &CsrMatrix, cols: usize) {
        let kt = self.kt;
        let rhs = self.ops.get(adj.cols(), cols);
        let ((), secs) = self.tracer.timed("tensor", "spmm", || {
            black_box(parallel::spmm(adj, rhs, kt));
        });
        let cost = &mut self.cost[SPMM];
        cost.secs += secs;
        cost.flops += (2 * adj.nnz() * cols) as f64;
        // Computed, not measured: CSR entries (u32 index + f32 value) and
        // row pointers read once, one dense row gathered per nonzero, the
        // output written once.
        cost.bytes += (adj.nnz() * 8 + (adj.rows() + 1) * 8) as f64
            + (adj.nnz() * cols * 4) as f64
            + (adj.rows() * cols * 4) as f64;
    }
}

/// One epoch-equivalent of kernel calls for every worker, in the engine's
/// order (FP per layer: `H·W`, `Â·(HW)`; BP per layer: `Â·G`, `Hᵀ·(ÂG)`,
/// `(ÂG)·Wᵀ`; layer 1: `Â·H⁰`, `(ÂH⁰)ᵀ·G`), with `kt` kernel threads.
fn kernel_round(
    contexts: &[WorkerContext],
    dims: &[usize],
    ops: &mut Operands,
    kt: usize,
    tracer: &mut Tracer,
) -> [KernelCost; 4] {
    let mut round = KernelRound { cost: [KernelCost::default(); 4], ops, tracer, kt };
    let layers = dims.len() - 1;
    for ctx in contexts {
        let adj = &ctx.layers[0].adj_local;
        let (local, cat) = (adj.rows(), adj.cols());
        for l in 1..=layers {
            round.dense(MATMUL, (cat, dims[l - 1]), (dims[l - 1], dims[l]));
            round.sparse(adj, dims[l]);
        }
        for l in (2..=layers).rev() {
            round.sparse(adj, dims[l]);
            round.dense(AT_B, (local, dims[l - 1]), (local, dims[l]));
            round.dense(A_BT, (local, dims[l]), (dims[l - 1], dims[l]));
        }
        round.sparse(adj, dims[0]);
        round.dense(AT_B, (local, dims[0]), (local, dims[1]));
    }
    round.cost
}

/// `tensor.*` rows. Returns `tensor.kernels_s_per_epoch`.
pub fn tensor(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    contexts: &[WorkerContext],
    tracer: &mut Tracer,
) -> f64 {
    tracer.enter("bench", "replay_tensor");
    let mut ops = Operands::default();
    let rounds: Vec<[KernelCost; 4]> =
        (0..ROUNDS).map(|_| kernel_round(contexts, &inputs.dims, &mut ops, 1, tracer)).collect();
    let best_of = |k: usize| best(&rounds.iter().map(|r| r[k].secs).collect::<Vec<_>>());
    let names = [
        "tensor.matmul_gflops",
        "tensor.matmul_at_b_gflops",
        "tensor.matmul_a_bt_gflops",
        "tensor.spmm_gflops",
    ];
    for (k, name) in names.iter().enumerate() {
        m.put_n(name, rounds[0][k].flops / best_of(k) / 1e9, ROUNDS, "");
    }
    m.put_n(
        "tensor.spmm_gbps",
        rounds[0][SPMM].bytes / best_of(SPMM) / 1e9,
        ROUNDS,
        "bytes computed: nnz*8 + (rows+1)*8 + nnz*cols*4 + rows*cols*4",
    );
    let per_epoch =
        best(&rounds.iter().map(|r| r.iter().map(|c| c.secs).sum()).collect::<Vec<f64>>());
    m.put_n("tensor.kernels_s_per_epoch", per_epoch, ROUNDS, "");

    if parallel::effective_threads(0) > 1 {
        let auto: f64 =
            kernel_round(contexts, &inputs.dims, &mut ops, 0, tracer).iter().map(|c| c.secs).sum();
        m.put("tensor.kernel_mt_speedup", per_epoch / auto);
    }

    // Round trip of `num_workers` empty tasks through a pool sized like
    // the engine's: what every superstep fan-out pays before any work.
    let pool = WorkerPool::new(0);
    let trips: Vec<f64> = (0..20)
        .map(|_| {
            let ((), secs) = tracer.timed("tensor", "pool_dispatch", || {
                for _ in 0..100 {
                    let tasks: Vec<Task<'_>> =
                        (0..w.workers).map(|_| Box::new(|| {}) as Task<'_>).collect();
                    pool.run(tasks);
                }
            });
            secs / 100.0 * 1e6
        })
        .collect();
    m.put_n("tensor.pool_dispatch_us", best(&trips), trips.len(), "");
    tracer.exit();
    per_epoch
}

// -------------------------------------------------------------- ec-compress

/// `compress.*` rate rows and `compress.codec_s_per_epoch`.
pub fn compress(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    contexts: &[WorkerContext],
    tracer: &mut Tracer,
) {
    tracer.enter("bench", "replay_compress");
    let dims = &inputs.dims;
    let layers = dims.len() - 1;
    // Rates: worker 0's whole remote block at the exchanged width.
    let remote_rows = contexts[0].layers[0].remote_deps.len().max(1);
    let block = init::uniform(remote_rows, dims[layers - 1], -1.0, 1.0, 21);
    let elems = block.len() as f64;
    for bits in [2u8, 4, 8] {
        let secs = sample(tracer, "compress", "quantize", || {
            black_box(Quantized::compress(&block, bits));
        });
        m.put_n(
            &format!("compress.quantize_b{bits}_melems"),
            elems / best(&secs) / 1e6,
            secs.len(),
            "",
        );
        if bits != 4 {
            let q = Quantized::compress(&block, bits);
            let secs = sample(tracer, "compress", "dequantize", || {
                black_box(q.decompress());
            });
            m.put_n(
                &format!("compress.dequantize_b{bits}_melems"),
                elems / best(&secs) / 1e6,
                secs.len(),
                "",
            );
        }
    }
    // One epoch-equivalent: every link's FP and BP message of every
    // exchange layer, compressed and decompressed once.
    let links = links(contexts);
    let mut ops = Operands::default();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut total = 0.0;
            for &(_, _, rows) in &links {
                for l in 2..=layers {
                    for (cols, bits) in [(dims[l - 1], w.replay_bits.0), (dims[l], w.replay_bits.1)]
                    {
                        let rows_m = ops.get(rows, cols);
                        let ((), secs) = tracer.timed("compress", "codec_round_trip", || {
                            black_box(Quantized::compress(rows_m, bits).decompress());
                        });
                        total += secs;
                    }
                }
            }
            total
        })
        .collect();
    m.put_n("compress.codec_s_per_epoch", best(&rounds), ROUNDS, "");
    tracer.exit();
}

// ------------------------------------------------------- ec-graph exchange

/// What the exchange replays found.
pub struct ExchangeReplay {
    /// Engine state after `T_TR` epochs, for the steady-state comparisons.
    pub steady: EngineSnapshot,
    /// `core.exchange_s_per_epoch`.
    pub exchange_s_per_epoch: f64,
}

/// `core.reqec_*`, `core.resec_*`, `core.selector_*`, `core.wire_*` and
/// `core.exchange_s_per_epoch`. Drives `engine` from epoch 0 through two
/// trend groups, feeding `fp::reqec_step` the real layer-(L−1) embeddings
/// each epoch's forward pass exchanges; rates and Selector shares are
/// taken over the second group, where `M_cr` is established.
pub fn exchange(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    contexts: &[WorkerContext],
    engine: &mut DistributedEngine,
    epoch0: &EngineSnapshot,
    tracer: &mut Tracer,
) -> ExchangeReplay {
    tracer.enter("bench", "replay_exchange");
    let dims = &inputs.dims;
    let layers = dims.len() - 1;
    let links = links(contexts);
    let link_rows: Vec<Vec<usize>> =
        links.iter().map(|&(i, j, _)| contexts[i].layers[0].deps_by_owner[j].clone()).collect();
    let total_rows: usize = links.iter().map(|l| l.2).sum();

    // ReqEC over the real embeddings of consecutive epochs.
    engine.restore(epoch0).expect("restore epoch-0 snapshot");
    let mut states: Vec<TrendState> = vec![TrendState::default(); links.len()];
    let mut steady = None;
    let (mut reqec_s, mut reqec_rows) = (Vec::new(), 0usize);
    let mut selected = [0u64; 3];
    for t in 0..2 * T_TR {
        if t == T_TR {
            steady = Some(engine.snapshot());
        }
        let hidden = engine.inference_model().forward_through(
            &inputs.adjs,
            &inputs.data.features,
            layers - 1,
            1,
        );
        let messages: Vec<Matrix> = link_rows.iter().map(|r| hidden.gather_rows(r)).collect();
        let (outcomes, secs) = tracer.timed("core", "reqec_step", || {
            states
                .iter_mut()
                .zip(&messages)
                .map(|(state, rows)| fp::reqec_step(state, rows, w.replay_bits.0, T_TR, t))
                .collect::<Vec<_>>()
        });
        tracer.count_last(total_rows as u64);
        if t >= T_TR {
            reqec_s.push(secs);
            reqec_rows += total_rows;
            for out in &outcomes {
                for (acc, &c) in selected.iter_mut().zip(&out.selected) {
                    *acc += c as u64;
                }
            }
        }
        tracer.timed("core", "run_epoch", || engine.run_epoch());
    }
    let reqec_total: f64 = reqec_s.iter().sum();
    m.put_n(
        "core.reqec_ns_per_vertex",
        reqec_total / reqec_rows as f64 * 1e9,
        reqec_s.len(),
        "second trend group, real embeddings",
    );
    let decisions: u64 = selected.iter().sum::<u64>().max(1);
    m.put_n(
        "core.selector_pdt_share",
        selected[SELECT_PDT as usize] as f64 / decisions as f64,
        decisions as usize,
        "predicted rows ship no payload",
    );
    m.put_n(
        "core.selector_cps_share",
        selected[SELECT_CPS as usize] as f64 / decisions as f64,
        decisions as usize,
        "",
    );

    // ResEC: cost does not depend on the values, so gradient-sized noise.
    let mut residuals: Vec<ResidualState> = vec![ResidualState::default(); links.len()];
    let grads: Vec<Matrix> = links
        .iter()
        .map(|&(i, j, rows)| init::normal(rows, dims[layers], 0.01, (i * 64 + j) as u64))
        .collect();
    let resec_s: Vec<f64> = (0..T_TR)
        .map(|_| {
            tracer
                .timed("core", "resec_step", || {
                    for (state, g) in residuals.iter_mut().zip(&grads) {
                        black_box(bp::resec_step(state, g, w.replay_bits.1));
                    }
                })
                .1
        })
        .collect();
    m.put_n(
        "core.resec_ns_per_vertex",
        best(&resec_s) / total_rows as f64 * 1e9,
        resec_s.len(),
        "",
    );

    // What this workload's own exchange path spends in the fp/bp entry
    // points per epoch: (L−1) exchanges each way.
    let exchanges = (layers - 1) as f64;
    let fp_s = match w.fp {
        FpMode::Exact => {
            let hidden = init::uniform(total_rows.max(1), dims[layers - 1], 0.0, 1.0, 5);
            best(&sample(tracer, "core", "fp_respond_exact", || {
                black_box(fp::respond_exact(&hidden));
            }))
        }
        _ => reqec_total / reqec_s.len() as f64,
    };
    let bp_s = match w.bp {
        BpMode::Exact => {
            let grad = init::normal(total_rows.max(1), dims[layers], 0.01, 6);
            best(&sample(tracer, "core", "bp_respond_exact", || {
                black_box(bp::respond_exact(&grad));
            }))
        }
        _ => best(&resec_s),
    };
    let exchange_s_per_epoch = exchanges * (fp_s + bp_s);
    m.put("core.exchange_s_per_epoch", exchange_s_per_epoch);

    // Message (de)serialisation on the largest link's message, in the
    // form this workload ships it.
    let (big, _) = links.iter().enumerate().max_by_key(|(_, l)| l.2).expect("a link");
    let h = engine
        .inference_model()
        .forward_through(&inputs.adjs, &inputs.data.features, layers - 1, 1)
        .gather_rows(&link_rows[big]);
    let g = &grads[big];
    let (fp_msg, bp_msg) = if w.compressed() {
        let selector: Vec<u8> = (0..h.rows()).map(|v| (v % 3) as u8).collect();
        (
            FpMessage::Selected {
                selector,
                compressed: Some(Quantized::compress(&h, w.replay_bits.0)),
                proportion: 1.0 / 3.0,
            },
            BpMessage::Compressed(Quantized::compress(g, w.replay_bits.1)),
        )
    } else {
        (FpMessage::Exact { m_cr: h.clone(), h }, BpMessage::Exact(g.clone()))
    };
    let (fp_bytes, bp_bytes) = (fp_msg.to_bytes(), bp_msg.to_bytes());
    let wire_len = (fp_bytes.len() + bp_bytes.len()) as f64;
    let enc = sample(tracer, "core", "wire_encode", || {
        black_box((fp_msg.to_bytes(), bp_msg.to_bytes()));
    });
    let dec = sample(tracer, "core", "wire_decode", || {
        black_box(FpMessage::from_bytes(&fp_bytes).expect("decode own bytes"));
        black_box(BpMessage::from_bytes(&bp_bytes).expect("decode own bytes"));
    });
    m.put_n("core.wire_encode_gbps", wire_len / best(&enc) / 1e9, enc.len(), "");
    m.put_n("core.wire_decode_gbps", wire_len / best(&dec) / 1e9, dec.len(), "");
    tracer.exit();
    ExchangeReplay { steady: steady.expect("snapshot at T_TR"), exchange_s_per_epoch }
}

// ------------------------------------------------------------------ ec-comm

/// `comm.*` rows. Returns `(send_s, ps_step_s)`: seconds per
/// `SimNetwork::send` and per parameter-server step.
pub fn comm(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    contexts: &[WorkerContext],
    tracer: &mut Tracer,
) -> (f64, f64) {
    tracer.enter("bench", "replay_comm");
    let dims = &inputs.dims;
    let layers = dims.len() - 1;
    let remote_rows = contexts[0].layers[0].remote_deps.len().max(1);
    let block = init::uniform(remote_rows, dims[layers - 1], -1.0, 1.0, 22);
    let mut buf = Vec::with_capacity(codec::matrix_wire_size(&block));
    let put = sample(tracer, "comm", "put_matrix", || {
        buf.clear();
        codec::put_matrix(&mut buf, &block);
        black_box(&buf);
    });
    let bytes = buf.len() as f64;
    m.put_n("comm.put_matrix_gbps", bytes / best(&put) / 1e9, put.len(), "");
    let get = sample(tracer, "comm", "get_matrix", || {
        black_box(codec::get_matrix(&mut buf.as_slice()).expect("decode own bytes"));
    });
    m.put_n("comm.get_matrix_gbps", bytes / best(&get) / 1e9, get.len(), "");

    // One flushed superstep of the exchange pattern: a request and a
    // reply on every link.
    let links = links(contexts);
    let mut net = SimNetwork::new(w.workers + 1, NetworkModel::gigabit_ethernet());
    let sends = (2 * links.len()).max(1) as f64;
    let steps = sample(tracer, "comm", "send_superstep", || {
        for _ in 0..50 {
            for &(i, j, rows) in &links {
                net.send(i, j, Channel::Control, 16);
                net.send(j, i, Channel::Forward, (rows * dims[layers - 1]) as u64);
            }
            black_box(net.flush_superstep());
        }
    });
    let send_s = best(&steps) / 50.0 / sends;
    m.put_n("comm.send_ns", send_s * 1e9, steps.len(), "amortised over a flushed superstep");

    // push + apply_update + pull of every layer, at the model's shapes.
    let shapes: Vec<(usize, usize)> = dims.windows(2).map(|d| (d[0], d[1])).collect();
    let mut ps = ParameterServerGroup::new(&shapes, 1, AdamParams::default(), 3);
    let grads: Vec<(Matrix, Vec<f32>)> = shapes
        .iter()
        .map(|&(fi, fo)| (init::normal(fi, fo, 0.01, (fi + fo) as u64), vec![0.001; fo]))
        .collect();
    let steps = sample(tracer, "comm", "ps_step", || {
        ps.push(&grads);
        ps.apply_update();
        for l in 0..layers {
            black_box(ps.pull(l));
        }
    });
    let ps_step_s = best(&steps);
    m.put_n("comm.ps_step_us", ps_step_s * 1e6, steps.len(), "");
    tracer.exit();
    (send_s, ps_step_s)
}

// ----------------------------------------------------------------- ec-serve

/// Direct `answer_batch` calls on the workload's own batches: the request
/// stream of the closed loop (same popularity, same seed), routed to its
/// owner and cut into batches of the loop's mean size. Returns the seconds
/// of each call.
pub fn answer_batches(
    service: &mut InferenceService,
    w: &Workload,
    seed: u64,
    batch: usize,
    calls: usize,
    tracer: &mut Tracer,
) -> Vec<f64> {
    tracer.enter("bench", "replay_answer_batch");
    let zipf = ZipfSampler::new(service.store_vertices(), w.serve.zipf, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queues: Vec<Vec<u32>> = vec![Vec::new(); w.workers];
    let mut secs = Vec::with_capacity(calls);
    while secs.len() < calls {
        let v = zipf.sample(&mut rng);
        let worker = service.route(v as usize);
        queues[worker].push(v);
        if queues[worker].len() >= batch {
            let ids = std::mem::take(&mut queues[worker]);
            let (answer, s) =
                tracer.timed("serve", "answer_batch", || service.answer_batch(worker, &ids));
            tracer.count_last(ids.len() as u64);
            answer.expect("routed to the owner");
            secs.push(s);
        }
    }
    tracer.exit();
    secs
}

/// `serve.cache_*`, `serve.store_gather_*`, `serve.reply_codec_*` and
/// `serve.refresh_ms`.
pub fn serve_micro(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    model: &ModelWeights,
    service: &mut InferenceService,
    tracer: &mut Tracer,
) {
    tracer.enter("bench", "replay_serve");
    let layers = inputs.dims.len() - 1;
    let k = inputs.dims[layers - 1];
    let capacity = service.config().cache_rows.max(1);
    let row: Vec<f32> = (0..k).map(|i| i as f32 * 0.01).collect();

    // Hit-heavy: every key resident, recency bumped on each lookup.
    let mut cache = EmbeddingCache::new(capacity);
    for id in 0..capacity as u32 {
        cache.insert(id, row.clone());
    }
    const LOOKUPS: usize = 20_000;
    let gets = sample(tracer, "serve", "cache_get", || {
        let mut key = 1u32;
        for _ in 0..LOOKUPS {
            key = key.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            black_box(cache.get(key % capacity as u32));
        }
    });
    m.put_n("serve.cache_get_ns", best(&gets) / LOOKUPS as f64 * 1e9, gets.len(), "all hits");

    // Evict-heavy: every insert is a new key into a full cache. Rows are
    // built outside the timed loop; the cache takes them by value.
    const INSERTS: usize = 5_000;
    let mut next_id = capacity as u32;
    let mut inserts = Vec::new();
    for _ in 0..5 {
        let mut rows: Vec<Vec<f32>> = (0..INSERTS).map(|_| row.clone()).collect();
        let ((), secs) = tracer.timed("serve", "cache_insert", || {
            while let Some(r) = rows.pop() {
                cache.insert(next_id, r);
                next_id += 1;
            }
        });
        inserts.push(secs / INSERTS as f64 * 1e9);
    }
    m.put_n("serve.cache_insert_ns", best(&inserts), inserts.len(), "every insert evicts");

    // The store gather behind every fetch reply.
    let store =
        EmbeddingStore::build(model, &inputs.adjs, &inputs.data, Arc::clone(&inputs.partition), 1);
    let n = store.num_vertices() as u32;
    let ids: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(2_654_435_761) % n).collect();
    let gathers = sample(tracer, "serve", "store_gather", || {
        for chunk in ids.chunks(64) {
            black_box(store.gather(chunk));
        }
    });
    m.put_n(
        "serve.store_gather_ns_per_row",
        best(&gathers) / ids.len() as f64 * 1e9,
        gathers.len(),
        "",
    );

    // The per-row reply codec, at the workload's fetch width (8 bits for
    // a workload that ships exact rows and so bypasses it).
    let bits = w.serve.fetch_bits.unwrap_or(8);
    let codec_s = sample(tracer, "serve", "reply_codec", || {
        for &v in &ids {
            let r = store.row(v as usize);
            let q = Quantized::compress(&Matrix::from_vec(1, r.len(), r.to_vec()), bits);
            black_box(q.decompress().into_vec());
        }
    });
    m.put_n(
        "serve.reply_codec_ns_per_row",
        best(&codec_s) / ids.len() as f64 * 1e9,
        codec_s.len(),
        &format!("{bits}-bit quantize + dequantize of one row"),
    );

    let refreshes: Vec<f64> = (0..3)
        .map(|_| tracer.timed("serve", "refresh", || service.refresh(model.clone())).1 * 1e3)
        .collect();
    m.put_n("serve.refresh_ms", best(&refreshes), refreshes.len(), "");
    tracer.exit();
}

/// `serve.answer_batch_us` and its tail from the direct calls.
pub fn put_answer_batch(m: &mut Metrics, secs: &[f64]) {
    let us: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
    m.put_n("serve.answer_batch_us", median(&us), us.len(), "");
    let (p, value) = tail(&us);
    m.put_n("serve.answer_batch_tail_us", value, us.len(), &format!("p{}", p * 100.0));
}

// --------------------------------------------------------------------- host

/// Bench-side ceilings the kernel rates are read against: a streaming
/// triad over arrays far larger than cache, and a register-resident
/// multiply-add loop compiled with the same flags as the kernels.
pub fn host(m: &mut Metrics, tracer: &mut Tracer) {
    tracer.enter("bench", "host_ceilings");
    const N: usize = 4 << 20; // 3 arrays × 16 MiB
    let (b, c) = (vec![1.0f32; N], vec![2.0f32; N]);
    let mut a = vec![0.0f32; N];
    let stream = sample(tracer, "host", "stream_triad", || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 0.5 * *z;
        }
        black_box(&a);
    });
    // Ceilings are the best sample, not the typical one.
    let best = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
    m.put_n(
        "host.stream_gbps",
        (3 * N * 4) as f64 / best(&stream) / 1e9,
        stream.len(),
        "best triad pass, 2 reads + 1 write of 16 MiB arrays",
    );
    const LANES: usize = 64;
    const ITERS: usize = 200_000;
    let fma = sample(tracer, "host", "fma_loop", || {
        let mut acc = [1.0f32; LANES];
        for i in 0..ITERS {
            let s = 1.0 - (i & 1) as f32 * 1e-7;
            for x in &mut acc {
                *x = *x * s + 1e-9;
            }
        }
        black_box(acc);
    });
    m.put_n(
        "host.fma_gflops",
        (2 * LANES * ITERS) as f64 / best(&fma) / 1e9,
        fma.len(),
        "best pass, one thread, multiply + add on 64 independent lanes",
    );
    m.put("host.threads", parallel::effective_threads(0) as f64);
    tracer.exit();
}
