//! Distributed mini-batch sampling trainers.
//!
//! One stage program covers two of the paper's sampling-based systems:
//!
//! * **DistDGL-like** ([`Sampling::Online`]): graph-centered storage with
//!   *online* sampling — every iteration draws fresh layered blocks
//!   (paying the sampling RPCs and compute each time) and fetches the
//!   features of the sampled frontier from their owners;
//! * **AGL-like** ([`Sampling::Prefetched`]): ML-centered — blocks are
//!   sampled once in preprocessing (GraphFlat), features of every block are
//!   shipped to the worker up front, and each epoch re-vectorizes
//!   (re-gathers) the flattened sample before computing, the overhead the
//!   paper found AGL could not hide.
//!
//! Both train through the autodiff tape on the sampled blocks, push
//! gradients to the parameter servers once per iteration, and evaluate
//! against the full graph.

use super::train_comparator;
use crate::config::TrainingConfig;
use crate::exec::{Cluster, Stage};
use crate::report::RunResult;
use crate::sampling::{make_batches, sample_blocks, Block};
use crate::wire::FpMessage;
use ec_comm::stats::Channel;
use ec_comm::{HostTimer, ParameterServerGroup};
use ec_graph_data::{normalize, AttributedGraph};
use ec_nn::loss::masked_softmax_cross_entropy;
use ec_nn::{Tape, VarId};
use ec_partition::hash::HashPartitioner;
use ec_partition::Partitioner;
use ec_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// When blocks are sampled and when their input features travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// DistDGL: fresh blocks every iteration, frontier features fetched
    /// from their owners each time (graph-centered).
    Online,
    /// AGL: blocks sampled once at preprocessing and their features shipped
    /// up front (ML-centered).
    Prefetched,
}

/// Mini-batch size per worker.
const BATCH_SIZE: usize = 64;

/// What makes a mini-batch run itself, on top of the shared training
/// configuration.
#[derive(Clone, Debug)]
pub struct MiniBatchConfig<'a> {
    /// Model shape, cluster, optimizer, seed, epoch budget and threads.
    pub base: &'a TrainingConfig,
    /// Fan-out per layer (forward order), e.g. the paper's `(20, 5)`.
    pub fanouts: Vec<usize>,
    /// The system being reproduced.
    pub sampling: Sampling,
}

/// A mini-batch: its seed (training) vertices and their layered blocks.
type Batch = (Vec<usize>, Vec<Block>);

/// The sampling stream of `(epoch, stage, worker)`: every draw is keyed by
/// where it happens, so workers sample independently inside their timed
/// blocks and a replayed epoch redraws the same blocks. Stage 0 shuffles
/// the epoch's batches, stage `it + 1` samples iteration `it`.
fn stream(seed: u64, epoch: usize, stage: usize, worker: usize) -> SmallRng {
    let key = ((epoch as u64) << 40) ^ ((stage as u64) << 20) ^ worker as u64;
    SmallRng::seed_from_u64(seed ^ 0x0815 ^ key.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Forward and backward pass over one batch on the tape: the batch-mean
/// loss and the gradient of every layer's `(W, b)`, scaled by `scale`.
fn train_batch(
    data: &AttributedGraph,
    ps: &ParameterServerGroup,
    (seeds, blocks): &Batch,
    scale: f32,
    kernel_threads: usize,
) -> (f32, Vec<(Matrix, Vec<f32>)>) {
    let mut tape = Tape::with_threads(kernel_threads);
    let mut h = tape.constant(data.features.gather_rows(&blocks[0].src));
    let params: Vec<(VarId, VarId)> = (0..blocks.len())
        .map(|l| {
            let (w, b) = ps.pull(l);
            let bias = Matrix::from_vec(1, b.len(), b.to_vec());
            (tape.parameter(w.clone()), tape.parameter(bias))
        })
        .collect();
    for (l, (block, &(w, b))) in blocks.iter().zip(&params).enumerate() {
        let xw = tape.matmul(h, w);
        let agg = tape.spmm(Arc::new(block.adj.clone()), xw);
        let z = tape.add_bias(agg, b);
        h = if l + 1 < blocks.len() { tape.relu(z) } else { z };
    }
    let labels: Vec<u32> = seeds.iter().map(|&v| data.labels[v]).collect();
    let mask: Vec<usize> = (0..seeds.len()).collect();
    let (loss, mut grad) = masked_softmax_cross_entropy(tape.value(h), &labels, &mask, mask.len());
    grad.map_inplace(|x| x * scale);
    tape.backward(h, grad);
    // A parameter the backward sweep never reached has a zero gradient.
    let grad_of = |id: VarId| {
        let (rows, cols) = tape.value(id).shape();
        tape.grad(id).cloned().unwrap_or_else(|| Matrix::zeros(rows, cols))
    };
    (loss, params.iter().map(|&(w, b)| (grad_of(w), grad_of(b).into_vec())).collect())
}

/// Trains with distributed mini-batch sampling; see the module docs for
/// the system each [`Sampling`] reproduces.
pub fn train_minibatch(
    data: Arc<AttributedGraph>,
    config: &MiniBatchConfig,
    system: &str,
) -> RunResult {
    let base = config.base;
    assert_eq!(config.fanouts.len(), base.num_layers(), "need one fan-out per layer");
    let num_workers = base.num_workers;
    let mut cluster = Cluster::new(base);

    // Vertex ownership: the engine's default hash partition.
    let partition = HashPartitioner::default().partition(&data.graph, num_workers);
    let remote_to =
        |w: usize, vs: &[usize]| vs.iter().filter(|&&v| partition.part_of(v) != w).count();
    let mut train_by_worker: Vec<Vec<usize>> = vec![Vec::new(); num_workers];
    for &v in &data.split.train {
        train_by_worker[partition.part_of(v)].push(v);
    }

    // Preprocessing: offline sampling and feature prefetch for the
    // ML-centered variant.
    let pre_start = HostTimer::start();
    let mut offline: Vec<Vec<Batch>> = Vec::new();
    if config.sampling == Sampling::Prefetched {
        let mut rng = SmallRng::seed_from_u64(base.seed ^ 0xB10C);
        for (w, train) in train_by_worker.iter().enumerate() {
            let per_batch: Vec<Batch> = make_batches(train, BATCH_SIZE, &mut rng)
                .into_iter()
                .map(|seeds| {
                    let blocks = sample_blocks(&data.graph, &seeds, &config.fanouts, &mut rng);
                    (seeds, blocks)
                })
                .collect();
            for (_, blocks) in &per_batch {
                let share = remote_to(w, &blocks[0].src) / (num_workers - 1).max(1);
                for j in (0..num_workers).filter(|&j| j != w) {
                    let bytes = FpMessage::indexed_rows_size(share, data.feature_dim()) as u64;
                    cluster.network.send(j, w, Channel::Forward, bytes);
                }
            }
            offline.push(per_batch);
        }
    }
    let (_, prefetch_s) = cluster.network.end_epoch();
    let preprocessing_s = pre_start.elapsed_s() + prefetch_s;

    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let batches_of = |train: &Vec<usize>| train.len().div_ceil(BATCH_SIZE);
    let max_batches = train_by_worker.iter().map(batches_of).max().unwrap_or(0).max(1);
    let total_train = data.split.train.len().max(1);

    let online = config.sampling == Sampling::Online;
    let program = |cluster: &mut Cluster, epoch: usize| {
        let kt = cluster.kernel_threads;
        // DistDGL reshuffles every worker's seed batches each epoch.
        let reshuffle = |w: usize| {
            make_batches(&train_by_worker[w], BATCH_SIZE, &mut stream(base.seed, epoch, 0, w))
        };
        let order: Vec<_> = (0..num_workers).filter(|_| online).map(reshuffle).collect();
        let (mut loss_sum, mut loss_count) = (0.0f32, 0usize);
        for it in 0..max_batches {
            // DistDGL samples this iteration's blocks; AGL re-vectorizes
            // its flattened sample every epoch.
            let load = Stage::new("sample:compute", "sample");
            let batches: Vec<Option<Batch>> = cluster.steps.compute_superstep(load, |w| {
                if !online {
                    return offline[w].get(it).cloned();
                }
                let seeds = order[w].get(it)?;
                let mut rng = stream(base.seed, epoch, it + 1, w);
                let blocks = sample_blocks(&data.graph, seeds, &config.fanouts, &mut rng);
                Some((seeds.clone(), blocks))
            });
            // DistDGL then pays the sampling RPCs for remote frontier
            // vertices and fetches the input frontier's remote features
            // before it can compute.
            for (w, batch) in batches.iter().enumerate().filter(|_| online) {
                let Some((_, blocks)) = batch else { continue };
                let next = (w + 1) % num_workers;
                for remote in blocks.iter().map(|b| remote_to(w, &b.dst)).filter(|&r| r > 0) {
                    cluster.network.send(w, next, Channel::Control, (remote * 16) as u64);
                }
                let remote = remote_to(w, &blocks[0].src);
                if remote > 0 {
                    let bytes = FpMessage::indexed_rows_size(remote, data.feature_dim()) as u64;
                    cluster.network.send(next, w, Channel::Forward, bytes);
                }
            }
            cluster.pull_all_layers();

            let ps = &cluster.ps;
            let train = Stage::new("train:compute", "train");
            let results = cluster.steps.compute_superstep(train, |w| {
                let batch = batches[w].as_ref()?;
                // Rescale from batch-mean to global-batch-mean so worker
                // contributions sum correctly at the servers.
                let scale = batch.0.len() as f32 / total_train as f32 * max_batches as f32;
                Some(train_batch(&data, ps, batch, scale, kt))
            });
            for (w, result) in results.into_iter().enumerate() {
                let Some((loss, grads)) = result else { continue };
                loss_sum += loss;
                loss_count += 1;
                cluster.charge_push(w);
                cluster.ps.push(&grads);
            }
            cluster.apply_update();
        }
        loss_sum / loss_count.max(1) as f32
    };
    train_comparator(cluster, program, &data, adj, base, system, preprocessing_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_comm::ps::AdamParams;
    use ec_graph_data::DatasetSpec;

    fn data() -> Arc<AttributedGraph> {
        Arc::new(DatasetSpec::cora().instantiate_with(150, 16, 5))
    }

    fn base(data: &AttributedGraph) -> TrainingConfig {
        TrainingConfig {
            num_workers: 3,
            adam: AdamParams { lr: 0.02, ..Default::default() },
            seed: 2,
            max_epochs: 30,
            ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
        }
    }

    fn config(base: &TrainingConfig, sampling: Sampling) -> MiniBatchConfig<'_> {
        MiniBatchConfig { base, fanouts: vec![5, 5], sampling }
    }

    #[test]
    fn distdgl_like_learns() {
        let d = data();
        let r =
            train_minibatch(Arc::clone(&d), &config(&base(&d), Sampling::Online), "distdgl-like");
        assert!(r.best_val_acc > 0.5, "val {}", r.best_val_acc);
        let first = r.epochs.first().unwrap().loss;
        let last = r.epochs.last().unwrap().loss;
        assert!(last < first, "loss {first} → {last}");
    }

    #[test]
    fn agl_like_prefetches_and_learns() {
        let d = data();
        let r =
            train_minibatch(Arc::clone(&d), &config(&base(&d), Sampling::Prefetched), "agl-like");
        assert!(r.best_val_acc > 0.5, "val {}", r.best_val_acc);
        // ML-centered: no per-epoch forward feature traffic.
        assert_eq!(r.epochs[0].fp_bytes, 0);
        assert!(r.preprocessing_s > 0.0);
    }

    #[test]
    fn online_sampling_fetches_features_each_epoch() {
        let d = data();
        let r =
            train_minibatch(Arc::clone(&d), &config(&base(&d), Sampling::Online), "distdgl-like");
        assert!(r.epochs[0].fp_bytes > 0, "expected per-epoch feature traffic");
    }
}
