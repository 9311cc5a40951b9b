//! The distributed training engine: Algorithms 1–6 over the simulated
//! cluster.
//!
//! Execution is a sequence of synchronous supersteps per epoch:
//!
//! ```text
//! FP  (l = 1):                pull all W | compute Z^1, H^1 from the cached P_w
//! FP  (per layer l = 2..L):   exchange H^{l-1} or P^l | compute Z^l, H^l
//! loss:                       local masked softmax-CE → G^L (and Q^L)
//! BP  (per layer l = L..2):   exchange G^l or Q^l | compute Y^{l-1}, b-grad, G^{l-1}
//! BP  (l = 1):                compute Y^0 = P_wᵀ·G¹, b-grad locally
//! update:                     push gradients | servers apply Adam
//! ```
//!
//! The forward pass is aggregate-first: `Z^l = A_w·W^{l-1} + b` with
//! `A_w = Â_w·[H_local | H_remote]`, so a worker transforms only its
//! `n_local` aggregated rows. Layer 1's aggregate is epoch-invariant:
//! `P_w = Â_w·[X_local ; X_remote]` is computed once at build time from the
//! first-hop feature cache and read by FP layer 1 and BP layer 1.
//!
//! **Narrow-side exchange.** Every exchange ships the narrower side of its
//! layer ([`TrainingConfig::ships_transformed`]): forward
//! `P^l = H^{l-1}·W^{l-1}` where layer `l ≥ 2` narrows, backward
//! `Q^l = G^l·(W^{l-1})ᵀ` where it widens, else `H^{l-1}` / `G^l`. The
//! compute superstep before the exchange forms `P^l` or `Q^l` from its own
//! rows into a per-worker buffer reused every epoch (at the top layer, only
//! the rows its plans read), and the requester aggregates what arrives:
//! `Z^l = Â_w·[P_local | P_remote] + b`, `G^{l-1} = Â_w·[Q_local | Q_remote]
//! ⊙ σ'` (GraphSAGE adds its local `H·W_s` / `G·W_sᵀ` term). A layer that
//! ships `H` keeps `A_w` and takes `Y^{l-1} = Σ_w A_wᵀ·G^l`, the exact
//! gradient of the forward pass that ran, which no BP message reaches; a
//! `P` layer takes `Y^{l-1} = (H^{l-1})ᵀ·(Â·G^l)`.
//!
//! Each `|` above is a network barrier and each `compute` a compute
//! superstep of the [`crate::exec`] cluster's `SuperstepDriver` (worker
//! pool, telemetry, simulated clock, pull and push charges, as for every
//! comparator). [`DistributedEngine::run_epoch`] states only what is
//! exchanged, what each worker computes and how the results are stored or
//! summed; a worker block cannot send, record telemetry or read the clock.
//! The simulated epoch time is `Σ supersteps (max-worker compute + network
//! time)`, the paper's Table IV quantity.
//!
//! The top layer's exchanges carry only what reaches the masked loss: the
//! forward one the remote neighbours of training vertices, the backward one
//! the remote training vertices (`context::build_training_contexts`).
//!
//! Compression and compensation policy lives in [`crate::fp`] /
//! [`crate::bp`], and each (requester, owner, layer) link's memory and the
//! one loop both exchanges are in `crate::link`; [`DistributedEngine::new`]
//! resolves the configured modes into per-link state, so nothing below asks
//! which mode is in force.

use crate::config::{ModelKind, TrainingConfig};
use crate::context::{build_training_contexts, rows_read, WorkerContext};
use crate::exec::{Cluster, ClusterSnapshot, EpochTotals, Stage};
use crate::link::{
    CompensationState, Direction::Backward, Direction::Forward, EpochCounters, ExchangeWorkspace,
};
use crate::wire::FpMessage;
use crate::{bp, fp};
use ec_comm::ps::CheckpointError;
use ec_comm::stats::Channel;
use ec_comm::{HostTimer, TrafficStats};
use ec_graph_data::AttributedGraph;
use ec_nn::loss::masked_softmax_cross_entropy;
use ec_partition::Partition;
use ec_tensor::{activations, ops, parallel, CsrMatrix, Matrix};
use ec_trace::registry::labels;
use ec_trace::{MetricId, TelemetryLevel, TelemetryReport};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Compensation-strength constant `ρ` used when evaluating the Theorem 1
/// residual bound for telemetry (observation only).
const THEOREM1_RHO: f64 = 2.0;

/// Per-epoch outcome.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Global training loss (mean over all training vertices).
    pub loss: f32,
    /// Measured compute seconds (max-worker per superstep, summed).
    pub compute_s: f64,
    /// Simulated communication seconds.
    pub comm_s: f64,
    /// Traffic ledger for this epoch.
    pub traffic: TrafficStats,
    /// Forward-pass messages replaced by the ReqEC-FP prediction because
    /// the transfer kept failing (EC-degrade resilience policy).
    pub degraded: u64,
    /// Degraded messages whose final failed attempt was a drop.
    pub degraded_drop: u64,
    /// Degraded messages whose final failed attempt was a corruption.
    pub degraded_corrupt: u64,
}

impl EpochStats {
    /// Simulated wall-clock epoch time.
    pub fn sim_time(&self) -> f64 {
        self.compute_s + self.comm_s
    }
}

/// Accuracy snapshot over the three splits.
#[derive(Clone, Copy, Debug)]
pub struct Evaluation {
    /// Training-set accuracy.
    pub train: f64,
    /// Validation-set accuracy.
    pub val: f64,
    /// Held-out test accuracy.
    pub test: f64,
}

impl Evaluation {
    /// Accuracy of full-graph `logits` over `data`'s three splits.
    pub fn of(logits: &Matrix, data: &AttributedGraph) -> Self {
        let accuracy = |split| ec_nn::metrics::accuracy(logits, &data.labels, split);
        Self {
            train: accuracy(&data.split.train),
            val: accuracy(&data.split.val),
            test: accuracy(&data.split.test),
        }
    }
}

/// Preprocessing outcome (partition + feature caching).
#[derive(Clone, Copy, Debug, Default)]
pub struct PreprocessingStats {
    /// Seconds spent building worker contexts (measured).
    pub build_s: f64,
    /// Simulated seconds shipping remote features into the 1-hop caches.
    pub feature_cache_s: f64,
    /// Bytes of cached remote features.
    pub feature_cache_bytes: u64,
}

/// The EC-Graph distributed engine.
pub struct DistributedEngine {
    config: TrainingConfig,
    data: Arc<AttributedGraph>,
    adjs: Vec<Arc<CsrMatrix>>,
    contexts: Vec<WorkerContext>,
    /// Network, parameter servers, superstep driver and epoch counter.
    cluster: Cluster,
    preprocessing: PreprocessingStats,

    /// `h_local[w][l]` = local rows of `H^l` (`l = 0` is the features).
    h_local: Vec<Vec<Matrix>>,
    bufs: Vec<WorkerBuffers>,
    /// Per worker, the rows the top layer's plans read of its `P` or `Q`.
    top_rows: Vec<Vec<usize>>,
    /// `P_w = Â_w·[X_local ; X_remote]` over the layer-1 topology — built
    /// once from the paper's first-hop feature cache, never mutated.
    p0: Vec<Matrix>,

    labels_local: Vec<Vec<u32>>,
    train_local: Vec<Vec<usize>>,
    total_train: usize,

    comp: CompensationState,
    /// The exchanges' reusable buffers — not training state, so not in a
    /// snapshot.
    exchange_ws: ExchangeWorkspace,
    counters: EpochCounters,

    /// Empirical compression error `α` of the configured BP codec, probed
    /// once on synthetic matrices at build time (Theorem 1 gauge).
    alpha_probe: Option<f64>,
}

/// Worker `w`'s buffers, overwritten in place every epoch; `[l]` serves
/// layer `l`, and is empty where it does not apply.
#[derive(Clone)]
struct WorkerBuffers {
    /// Forward `P^l` or backward `Q^l` ([`TrainingConfig::ships_transformed`]).
    projected: Vec<Matrix>,
    /// `A_w = Â_w·[H_local | Ĥ_remote]` where layer `l` ships `H`, for `Y^{l-1}`.
    aggregate: Vec<Matrix>,
}

/// A complete in-memory image of the mutable training state: model
/// parameters with their Adam moments, the epoch counter, and every piece
/// of error-compensation memory — the whole link table (FP trend groups,
/// delayed-mode caches, pending Bit-Tuner observations, BP residuals) and
/// the adaptive bit widths.
/// Restoring it into an engine built from the same inputs resumes training
/// with losses identical to the uninterrupted run — activations and
/// gradients are recomputed each epoch and need no snapshotting.
#[derive(Clone)]
pub struct EngineSnapshot {
    cluster: ClusterSnapshot,
    comp: CompensationState,
}

impl EngineSnapshot {
    /// The epoch count at capture time (number of completed epochs).
    pub fn epoch(&self) -> usize {
        self.cluster.epoch
    }
}

impl DistributedEngine {
    /// Builds the engine from per-layer global adjacencies and a partition.
    ///
    /// `adjs` must contain one `n × n` normalized adjacency per GNN layer
    /// (share the `Arc` for the standard full-batch setup).
    pub fn new(
        data: Arc<AttributedGraph>,
        adjs: Vec<Arc<CsrMatrix>>,
        partition: Partition,
        config: TrainingConfig,
    ) -> Self {
        // Validates the config before anything is built from it.
        let mut cluster = Cluster::new(&config);
        let num_layers = config.num_layers();
        assert_eq!(adjs.len(), num_layers, "need one adjacency per layer");
        assert_eq!(config.dims[0], data.feature_dim(), "dims[0] must equal the feature dim");
        assert_eq!(
            config.dims[num_layers], data.num_classes,
            "output dim must equal the class count"
        );
        assert_eq!(partition.num_vertices(), data.num_vertices(), "partition size mismatch");
        assert_eq!(partition.num_parts(), config.num_workers, "partition/worker count mismatch");

        let build_start = HostTimer::start();
        let contexts = build_training_contexts(&adjs, &partition, &data.split.train);
        let build_s = build_start.elapsed_s();

        let num_workers = config.num_workers;

        // Preprocessing: each worker fetches the features of its layer-1
        // remote dependencies (the paper's first-hop cache) and folds them
        // into its rows of Â·X.
        let mut p0 = Vec::with_capacity(num_workers);
        // Outside the worker fan-out, so the kernel may take the whole
        // machine budget (`kernel_threads = 0` → auto).
        let kt = config.compute.kernel_threads;
        let mut h_local = Vec::with_capacity(num_workers);
        let mut labels_local = Vec::with_capacity(num_workers);
        let mut train_local = Vec::with_capacity(num_workers);
        let train_set: std::collections::HashSet<usize> =
            data.split.train.iter().copied().collect();
        for ctx in &contexts {
            let feats = data.features.gather_rows(&ctx.local_vertices);
            let topo0 = &ctx.layers[0];
            let remote_feats = topo0.remote_operand(&data.features);
            // Charge the one-time feature transfer, owner → this worker.
            for (owner, deps) in topo0.deps_by_owner.iter().enumerate() {
                if deps.is_empty() || owner == ctx.worker_id {
                    continue;
                }
                let bytes = FpMessage::indexed_rows_size(deps.len(), data.feature_dim()) as u64;
                cluster.network.send(owner, ctx.worker_id, Channel::Forward, bytes);
            }
            p0.push(topo0.aggregate(&feats, &remote_feats, kt));
            h_local.push(vec![feats]);
            labels_local.push(ctx.local_vertices.iter().map(|&v| data.labels[v]).collect());
            let rows = 0..ctx.num_local();
            train_local
                .push(rows.filter(|&i| train_set.contains(&ctx.local_vertices[i])).collect());
        }
        let (pre_traffic, feature_cache_s) = cluster.network.end_epoch();
        let preprocessing = PreprocessingStats {
            build_s,
            feature_cache_s,
            feature_cache_bytes: pre_traffic.total_bytes(),
        };

        // Allocate per-layer slots.
        for hl in &mut h_local {
            let rows = hl[0].rows();
            hl.extend(config.dims[1..].iter().map(|&k| Matrix::zeros(rows, k)));
        }
        let total_train = data.split.train.len();
        assert!(total_train > 0, "dataset has no training vertices");

        let empty = vec![Matrix::zeros(0, 0); num_layers + 1];
        let bufs = vec![WorkerBuffers { projected: empty.clone(), aggregate: empty }; num_workers];
        let top =
            [Forward, Backward].into_iter().find(|&d| config.ships_transformed(d, num_layers));
        let top_rows = top.map_or_else(Vec::new, |dir| rows_read(&contexts, dir, num_layers));
        let comp = CompensationState::new(&contexts, &config);
        let alpha_probe = (config.telemetry.level > TelemetryLevel::Off)
            .then(|| bp::probe_alpha(config.bp_mode))
            .flatten();

        Self {
            config,
            data,
            adjs,
            contexts,
            cluster,
            preprocessing,
            h_local,
            bufs,
            top_rows,
            p0,
            labels_local,
            train_local,
            total_train,
            comp,
            exchange_ws: ExchangeWorkspace::new(),
            counters: EpochCounters::default(),
            alpha_probe,
        }
    }

    /// Preprocessing statistics (partition-context build + feature cache).
    pub fn preprocessing(&self) -> PreprocessingStats {
        self.preprocessing
    }

    /// The configuration in force.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// The dataset being trained on.
    pub fn data(&self) -> &Arc<AttributedGraph> {
        &self.data
    }

    /// Detaches the current model parameters as a read-only
    /// [`crate::infer::ModelWeights`] — the inference entry point shared by
    /// [`Self::evaluate`] and the `ec-serve` serving layer. Pure forward
    /// queries never need a (mutable) training engine.
    pub fn inference_model(&self) -> crate::infer::ModelWeights {
        crate::infer::ModelWeights::from_parts(self.config.model, self.cluster.ps.weights())
    }

    /// Current epoch counter (number of completed epochs).
    pub fn epochs_run(&self) -> usize {
        self.cluster.epoch
    }

    /// Snapshot of the current model parameters.
    pub fn weights(&self) -> Vec<(Matrix, Vec<f32>)> {
        self.cluster.ps.weights()
    }

    /// Persists the current model weights to `path` (wire-codec format).
    pub fn save_checkpoint(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        self.cluster.ps.save_weights(path)
    }

    /// Restores model weights saved by [`Self::save_checkpoint`].
    pub fn load_checkpoint(&mut self, path: &std::path::Path) -> Result<(), CheckpointError> {
        self.cluster.ps.load_weights(path)
    }

    /// Captures the complete mutable training state — see
    /// [`EngineSnapshot`]. This is the checkpoint crash recovery restores
    /// from; unlike [`Self::save_checkpoint`] it includes the Adam moments
    /// and all error-compensation state, so the resumed loss curve matches
    /// the uninterrupted one exactly.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot { cluster: self.cluster.snapshot(), comp: self.comp.clone() }
    }

    /// Restores a state captured by [`Self::snapshot`]. The engine must
    /// have been built from the same configuration (layer shapes are
    /// checked; graph/partition consistency is the caller's contract).
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] when the snapshot's parameter state
    /// does not match this engine's layer shapes.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), CheckpointError> {
        self.cluster.restore(&snapshot.cluster)?;
        self.comp = snapshot.comp.clone();
        self.counters = EpochCounters::default();
        Ok(())
    }

    /// Current adaptive bit widths, `[requester][owner]`.
    pub fn fp_bits(&self) -> &[Vec<u8>] {
        &self.comp.fp_bits
    }

    /// Squared L2 norms of all live ResEC-BP residuals, keyed by exchange
    /// layer, in link order — layer, then (requester, owner) (Theorem-1
    /// instrumentation).
    pub fn bp_residual_norms(&self) -> Vec<(usize, f32)> {
        self.comp.bp_residual_norms().collect()
    }

    /// Telemetry snapshot for the run report (`None` when the level is
    /// [`TelemetryLevel::Off`]).
    pub fn take_telemetry(&self) -> Option<TelemetryReport> {
        self.cluster.take_telemetry()
    }

    /// Marks a crash rolled back at `epoch` on the telemetry timeline.
    /// Crash marks survive the rewind [`Self::restore`] performs — the
    /// replayed epochs re-record everything else, but the crash itself
    /// happens only once.
    pub fn telemetry_note_crash(&mut self, epoch: usize) {
        self.cluster.steps.telemetry.note_crash(epoch as u32);
    }

    /// Runs one full training epoch (Algorithms 1 + 2). Every compute
    /// block below is pure — it returns its results, and writes nothing but
    /// its own worker's buffers — and the loop after it
    /// stores or accumulates them in ascending worker order, so the epoch
    /// is bit-identical to the sequential engine at any thread count.
    pub fn run_epoch(&mut self) -> EpochStats {
        let num_layers = self.config.num_layers();
        let num_workers = self.config.num_workers;
        self.counters = EpochCounters::default();
        let t = self.cluster.begin_epoch();
        let kt = self.cluster.kernel_threads;
        let sage = self.config.model == ModelKind::Sage;

        // ---------------- Forward propagation ----------------
        // Every worker receives every slot in one round before layer 1.
        self.cluster.charge_pull();
        for l in 1..=num_layers {
            // Exchange H^{l-1}, or P^l where it is narrower (layer-0 features
            // are cached).
            let projected = self.config.ships_transformed(Forward, l);
            let remotes: &[Matrix] = if l >= 2 {
                let (comp, ws) = (&mut self.comp, &mut self.exchange_ws);
                let (h, b) = (&self.h_local, &self.bufs);
                let source = |j: usize| if projected { &b[j].projected[l] } else { &h[j][l - 1] };
                comp.exchange(ws, &mut self.cluster, &mut self.counters, Forward, l, source)
            } else {
                &[]
            };
            self.cluster.barrier(Stage::new("fp:exchange", "fp").at_layer(l));

            // Compute Z^l = A_w·W^{l-1} + b, keeping A_w = Â_w·[H_local | H_remote]
            // for BP, or Z^l = Â_w·[P_local | P_remote] + b, and H^l.
            let (w_l, b_l) = self.cluster.ps.pull(l - 1);
            let w_self = sage.then(|| self.cluster.ps.pull(num_layers + l - 1).0);
            // The weights that make P^{l+1} from H^l, where layer l + 1 ships it.
            let w_next =
                self.config.ships_transformed(Forward, l + 1).then(|| self.cluster.ps.pull(l).0);
            let (h_local, contexts, p0) = (&self.h_local, &self.contexts, &self.p0);
            let results = self.cluster.steps.compute_superstep_on(
                Stage::new("fp:compute", "fp").at_layer(l),
                &mut self.bufs,
                |w, buf| {
                    let topo = contexts[w].plan(Forward, l);
                    let mut z = match (l, projected) {
                        // Layer 1 has no exchange: its aggregate is the cached P_w.
                        (1, _) => parallel::matmul(&p0[w], w_l, kt),
                        (_, true) => topo.aggregate(&buf.projected[l], &remotes[w], kt),
                        (_, false) => {
                            let a = &mut buf.aggregate[l];
                            topo.aggregate_into(&h_local[w][l - 1], &remotes[w], kt, a);
                            parallel::matmul(a, w_l, kt)
                        }
                    };
                    if let Some(ws) = w_self {
                        ops::add_assign(&mut z, &parallel::matmul(&h_local[w][l - 1], ws, kt));
                    }
                    ops::add_bias_assign(&mut z, b_l);
                    // The output layer has no activation: Z^L is H^L.
                    if l < num_layers {
                        activations::relu_assign(&mut z);
                    }
                    if let Some(wp) = w_next {
                        let rows = (l + 1 == num_layers).then(|| &self.top_rows[w][..]);
                        parallel::matmul_rows_into(&z, wp, rows, kt, &mut buf.projected[l + 1]);
                    }
                    z
                },
            );
            for (w, h) in results.into_iter().enumerate() {
                self.h_local[w][l] = h;
            }
        }

        // ---------------- Loss, G^L and Q^L ----------------
        let wt_top = self.q_weights(num_layers);
        let results = self.cluster.steps.compute_superstep_on(
            Stage::new("loss:compute", "loss").unindexed(),
            &mut self.bufs,
            // Each worker's share of the global mean: its own training rows,
            // divided by the global training count.
            |w, buf| {
                let (loss, g) = masked_softmax_cross_entropy(
                    &self.h_local[w][num_layers],
                    &self.labels_local[w],
                    &self.train_local[w],
                    self.total_train,
                );
                if let Some(wt) = &wt_top {
                    let q = &mut buf.projected[num_layers];
                    parallel::matmul_rows_into(&g, wt, Some(&self.top_rows[w]), kt, q);
                }
                (loss, g)
            },
        );
        let mut loss_sum = 0.0f32;
        let mut g_cur: Vec<Matrix> = Vec::with_capacity(num_workers);
        for (loss, g) in results {
            loss_sum += loss;
            g_cur.push(g);
        }

        // Reference gradient magnitude for the Theorem 1 bound gauge
        // (‖G^L‖² summed over workers; observation only).
        let g_norm_sq: f64 = if self.cluster.steps.telemetry.enabled(TelemetryLevel::Epoch) {
            g_cur
                .iter()
                .map(|g| g.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>())
                .sum()
        } else {
            0.0
        };

        // ---------------- Backward propagation ----------------
        let num_slots = if sage { 2 * num_layers } else { num_layers };
        let mut grads: Vec<Option<(Matrix, Vec<f32>)>> = vec![None; num_slots];
        for l in (1..=num_layers).rev() {
            // Exchange G^l, or Q^l where it is narrower. Layer 1 needs none:
            // Y⁰ = P_wᵀ·G¹ is local, and there is no G⁰ to produce.
            let (q_side, wt) = (self.config.ships_transformed(Backward, l), self.q_weights(l - 1));
            let mut remotes: &[Matrix] = &[];
            if l >= 2 {
                let (comp, ws, counters) =
                    (&mut self.comp, &mut self.exchange_ws, &mut self.counters);
                let (g, b) = (&g_cur, &self.bufs);
                let source = |j: usize| if q_side { &b[j].projected[l] } else { &g[j] };
                remotes = comp.exchange(ws, &mut self.cluster, counters, Backward, l, source);
                self.cluster.barrier(Stage::new("bp:exchange", "bp").at_layer(l));
            }

            let w_lm1 = self.cluster.ps.pull(l - 1).0;
            let ws_lm1 = sage.then(|| self.cluster.ps.pull(num_layers + l - 1).0);
            let results = self.cluster.steps.compute_superstep_on(
                Stage::new("bp:compute", "bp").at_layer(l),
                &mut self.bufs,
                |w, buf| {
                    let (h_prev, g) = (&self.h_local[w][l - 1], &g_cur[w]);
                    let b_part = ops::column_sums(g);
                    // Self path: Y_s^{l-1} = (H^{l-1})ᵀ G^l — purely local.
                    let ys_part = sage.then(|| parallel::matmul_at_b(h_prev, g, kt));
                    if l == 1 {
                        let y_part = parallel::matmul_at_b(&self.p0[w], g, kt);
                        return (y_part, ys_part, b_part, None);
                    }
                    let local = if q_side { &buf.projected[l] } else { g };
                    let agg = self.contexts[w].plan(Backward, l).aggregate(local, &remotes[w], kt);
                    // Y^{l-1}, summed over workers: A_wᵀ G^l where layer l
                    // ships H forward — the exact gradient of the forward pass
                    // that ran, with no BP message in it — else (H^{l-1})ᵀ (Â G^l).
                    let y_part = match self.config.ships_transformed(Forward, l) {
                        true => parallel::matmul_at_b(h_prev, &agg, kt),
                        false => parallel::matmul_at_b(&buf.aggregate[l], g, kt),
                    };
                    // G^{l-1} = [Â Q^l or (Â G^l)(W^{l-1})ᵀ (+ G^l W_sᵀ)] ⊙ σ'(Z^{l-1});
                    // `H^{l-1} = max(Z^{l-1}, 0)` is positive exactly where
                    // `Z^{l-1}` is, so it serves as the mask.
                    let mut flow =
                        if q_side { agg } else { parallel::matmul_a_bt(&agg, w_lm1, kt) };
                    if let Some(ws) = ws_lm1 {
                        ops::add_assign(&mut flow, &parallel::matmul_a_bt(g, ws, kt));
                    }
                    activations::relu_backward_assign(&mut flow, h_prev);
                    if let Some(wt) = &wt {
                        parallel::matmul_into(&flow, wt, kt, &mut buf.projected[l - 1]);
                    }
                    (y_part, ys_part, b_part, Some(flow))
                },
            );
            let mut y_sum = Matrix::zeros(self.config.dims[l - 1], self.config.dims[l]);
            let mut ys_sum = Matrix::zeros(self.config.dims[l - 1], self.config.dims[l]);
            let mut b_sum = vec![0.0f32; self.config.dims[l]];
            for (w, (y_part, ys_part, b_part, g_new)) in results.into_iter().enumerate() {
                ops::add_assign(&mut y_sum, &y_part);
                for (acc, g) in b_sum.iter_mut().zip(b_part) {
                    *acc += g;
                }
                if let Some(ys_part) = ys_part {
                    ops::add_assign(&mut ys_sum, &ys_part);
                }
                if let Some(g_new) = g_new {
                    g_cur[w] = g_new;
                }
            }
            grads[l - 1] = Some((y_sum, b_sum));
            if sage {
                grads[num_layers + l - 1] = Some((ys_sum, vec![0.0; self.config.dims[l]]));
            }
        }

        // ---------------- Push gradients, server update ----------------
        // Each worker pushes its share; the aggregate equals the global
        // gradient, so we push the summed gradient once and charge each
        // worker's wire cost.
        for w in 0..num_workers {
            self.cluster.charge_push(w);
        }
        let grads: Vec<(Matrix, Vec<f32>)> = grads.into_iter().flatten().collect();
        assert_eq!(grads.len(), num_slots, "every gradient slot must be filled before the push");
        self.cluster.ps.push(&grads);
        self.cluster.apply_update();

        self.comp.tune_bits(&mut self.cluster.steps.telemetry, t);

        let (totals, traffic) = self.cluster.end_epoch();
        if self.cluster.steps.telemetry.enabled(TelemetryLevel::Epoch) {
            self.record_epoch_metrics(t, &traffic, &totals, g_norm_sq);
        }
        EpochStats {
            epoch: t,
            loss: loss_sum,
            compute_s: totals.compute_s,
            comm_s: totals.comm_s,
            traffic,
            degraded: self.counters.fp_degraded_drop + self.counters.fp_degraded_corrupt,
            degraded_drop: self.counters.fp_degraded_drop,
            degraded_corrupt: self.counters.fp_degraded_corrupt,
        }
    }

    /// `(W^{l-1})ᵀ`, which makes `Q^l = G^l·(W^{l-1})ᵀ`, where layer `l`
    /// ships `Q^l` backward.
    fn q_weights(&self, l: usize) -> Option<Matrix> {
        let ships = self.config.ships_transformed(Backward, l);
        ships.then(|| self.cluster.ps.pull(l - 1).0.transpose())
    }

    /// Flushes the per-epoch metric rows into the sink (Epoch level and
    /// above); called once per completed epoch, after the traffic ledger
    /// for epoch `t` has been taken.
    fn record_epoch_metrics(
        &mut self,
        t: usize,
        traffic: &TrafficStats,
        totals: &EpochTotals,
        g_norm_sq: f64,
    ) {
        let e = t as u32;
        let sink = &mut self.cluster.steps.telemetry;
        for (k, counts) in self.counters.fp_selected.iter().enumerate() {
            let Some(counts) = counts else { continue };
            let lbl = labels(&[e, k as u32 + 2]);
            sink.add(MetricId::SelectorCps, lbl, counts[fp::SELECT_CPS as usize]);
            sink.add(MetricId::SelectorPdt, lbl, counts[fp::SELECT_PDT as usize]);
            sink.add(MetricId::SelectorAvg, lbl, counts[fp::SELECT_AVG as usize]);
        }
        for (from, to, bytes) in traffic.links.iter_nonzero() {
            let lbl = labels(&[e, from as u32, to as u32]);
            sink.set(MetricId::LinkBytes, lbl, bytes as f64);
        }
        for (id, v) in [
            (MetricId::FaultDropped, traffic.dropped_msgs),
            (MetricId::FaultCorrupted, traffic.corrupted_msgs),
            (MetricId::FaultDegradedDrop, self.counters.fp_degraded_drop),
            (MetricId::FaultDegradedCorrupt, self.counters.fp_degraded_corrupt),
        ] {
            if v > 0 {
                sink.add(id, labels(&[e]), v);
            }
        }
        for (w, &f) in self.cluster.steps.factors.iter().enumerate() {
            if f != 1.0 {
                sink.set(MetricId::FaultStragglerFactor, labels(&[e, w as u32]), f);
            }
        }
        sink.set(MetricId::PhaseComputeS, labels(&[e]), totals.compute_s);
        sink.set(MetricId::PhaseCommS, labels(&[e]), totals.comm_s);
        sink.set(MetricId::TimelineHeadroomS, labels(&[e]), totals.idle_s);
        if sink.enabled(TelemetryLevel::Superstep) {
            sink.set(MetricId::PhasePackS, labels(&[e]), totals.pack_s);
            sink.set(MetricId::PhaseUnpackS, labels(&[e]), totals.unpack_s);
        }
        sink.set(MetricId::FpReconErrL1, labels(&[e]), self.counters.fp_recon_err);

        let mut by_layer: BTreeMap<usize, f64> = BTreeMap::new();
        for (layer, norm_sq) in self.comp.bp_residual_norms() {
            *by_layer.entry(layer).or_insert(0.0) += norm_sq as f64;
        }
        let num_layers = self.config.num_layers();
        // Theorem 1 bounds each layer's residual by a constant times the
        // true gradient magnitude; the probe α is empirical, so the
        // reference gets headroom over ‖G^L‖².
        let g_ref = 4.0 * g_norm_sq;
        for (layer, norm_sq) in by_layer {
            let lbl = labels(&[e, layer as u32]);
            sink.set(MetricId::ResecResidualSq, lbl, norm_sq);
            let bound = self.alpha_probe.and_then(|alpha| {
                ec_compress::error::theorem1_bound(alpha, THEOREM1_RHO, g_ref, num_layers, layer)
            });
            if let Some(bound) = bound {
                sink.set(MetricId::ResecT1Bound, lbl, bound);
            }
        }
    }

    /// Evaluates the current model exactly over the full graph.
    pub fn evaluate(&self) -> Evaluation {
        Evaluation::of(&self.forward_global(), &self.data)
    }

    /// Full-graph forward pass with the current weights (exact, no
    /// compression — evaluation is out-of-band). Delegates to the shared
    /// read-only [`crate::infer::ModelWeights`] kernels, so this is
    /// bit-identical to what a serving process computes from a checkpoint
    /// of the same weights.
    pub fn forward_global(&self) -> Matrix {
        // Evaluation runs outside the worker fan-out, so the full machine
        // budget (kernel_threads = 0 → auto) is available to the kernels.
        let kt = self.config.compute.kernel_threads;
        self.inference_model().forward(&self.adjs, &self.data.features, kt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BpMode, FpMode};
    use ec_graph_data::{normalize, DatasetSpec};
    use ec_partition::hash::HashPartitioner;
    use ec_partition::Partitioner;

    fn engine_with(fp: FpMode, bp: BpMode, workers: usize) -> DistributedEngine {
        layered_engine(fp, bp, workers, 2)
    }

    /// `layers` layers over the 12-feature cora replica, 8 hidden units.
    fn config_with(fp: FpMode, bp: BpMode, workers: usize, layers: usize) -> TrainingConfig {
        let mut dims = vec![8; layers + 1];
        (dims[0], dims[layers]) = (12, DatasetSpec::cora().num_classes);
        let defaults = TrainingConfig::defaults(12, dims[layers]);
        TrainingConfig { dims, num_workers: workers, fp_mode: fp, bp_mode: bp, ..defaults }
    }

    fn layered_engine(fp: FpMode, bp: BpMode, workers: usize, layers: usize) -> DistributedEngine {
        cora_engine(config_with(fp, bp, workers, layers))
    }

    /// `config` at seed 2 over the hash-partitioned 150-vertex cora replica.
    fn cora_engine(config: TrainingConfig) -> DistributedEngine {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(150, 12, 5));
        let (layers, workers) = (config.num_layers(), config.num_workers);
        let config = TrainingConfig { seed: 2, ..config };
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let partition = HashPartitioner::default().partition(&data.graph, workers);
        DistributedEngine::new(data, vec![adj; layers], partition, config)
    }

    /// Vertex v lives on worker v % 3; the ring v — v+3 stays inside a part
    /// and only parts 0 and 1 are linked, so worker 2 fetches nothing and
    /// serves nobody.
    fn ring_engine(fp: FpMode, bp: BpMode, layers: usize) -> DistributedEngine {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(150, 12, 5));
        let mut edges: Vec<(u32, u32)> = (0..150).map(|v| (v, (v + 3) % 150)).collect();
        edges.extend((0..150).step_by(3).map(|v| (v, v + 1)));
        let graph = ec_graph_data::Graph::from_edges(150, &edges);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&graph));
        let partition = Partition::new((0..150).map(|v| v % 3).collect(), 3);
        let config = config_with(fp, bp, 3, layers);
        DistributedEngine::new(data, vec![adj; layers], partition, config)
    }

    #[test]
    fn preprocessing_charges_feature_cache() {
        let e = engine_with(FpMode::Exact, BpMode::Exact, 3);
        let pre = e.preprocessing();
        assert!(pre.feature_cache_bytes > 0, "remote features must be shipped once");
        assert!(pre.feature_cache_s > 0.0);
    }

    /// The cached `P_w` is worker `w`'s rows of the global `Â·X`: on a
    /// hash partition, on a worker without remote dependencies, and on the
    /// single-worker engine (whose remote half is empty).
    #[test]
    fn cached_aggregate_is_the_local_rows_of_the_global_product() {
        let check = |e: &DistributedEngine| {
            let global = e.adjs[0].spmm(&e.data.features);
            for (ctx, p) in e.contexts.iter().zip(&e.p0) {
                let want = global.gather_rows(&ctx.local_vertices);
                assert!(p.approx_eq(&want, 1e-6), "worker {} of {}", ctx.worker_id, e.p0.len());
            }
        };
        check(&engine_with(FpMode::Exact, BpMode::Exact, 3));
        check(&engine_with(FpMode::Exact, BpMode::Exact, 1));

        let e = ring_engine(FpMode::Exact, BpMode::Exact, 2);
        assert!(e.contexts[2].layers[0].remote_deps.is_empty());
        assert!(!e.contexts[0].layers[0].remote_deps.is_empty());
        check(&e);
    }

    #[test]
    fn single_worker_has_no_vertex_traffic() {
        let mut e = engine_with(FpMode::Exact, BpMode::Exact, 1);
        let s = e.run_epoch();
        assert_eq!(s.traffic.fp_bytes, 0);
        assert_eq!(s.traffic.bp_bytes, 0);
        // Its one parameter shard shares node 0, so pull and push are free.
        assert_eq!(s.traffic.param_bytes, 0);
        assert_eq!(s.comm_s, 0.0);
    }

    #[test]
    fn fp_traffic_scales_with_bits() {
        let mut e1 = engine_with(FpMode::Compressed { bits: 1 }, BpMode::Exact, 3);
        let mut e8 = engine_with(FpMode::Compressed { bits: 8 }, BpMode::Exact, 3);
        let s1 = e1.run_epoch();
        let s8 = e8.run_epoch();
        assert!(
            s8.traffic.fp_bytes > 4 * s1.traffic.fp_bytes,
            "8-bit {} not ≫ 1-bit {}",
            s8.traffic.fp_bytes,
            s1.traffic.fp_bytes
        );
    }

    #[test]
    fn bp_traffic_scales_with_bits() {
        let mut e1 = engine_with(FpMode::Exact, BpMode::Compressed { bits: 1 }, 3);
        let mut e8 = engine_with(FpMode::Exact, BpMode::Compressed { bits: 8 }, 3);
        let s1 = e1.run_epoch();
        let s8 = e8.run_epoch();
        assert!(s8.traffic.bp_bytes > 4 * s1.traffic.bp_bytes);
    }

    /// The table exists from construction, a residual only once its link
    /// has answered: nothing is listed before the first epoch, one entry
    /// per link and exchange layer after it (in layer order), and a mode
    /// without error feedback never lists anything.
    #[test]
    fn resec_populates_residual_state() {
        for bp in [BpMode::ResEc { bits: 2 }, BpMode::TopkEc { ratio: 0.1 }] {
            let mut e = layered_engine(FpMode::Exact, bp, 3, 3);
            assert!(e.bp_residual_norms().is_empty(), "{bp:?} before the first epoch");
            e.run_epoch();
            let layers: Vec<usize> = e.bp_residual_norms().iter().map(|&(l, _)| l).collect();
            // Hash partition of a connected graph: all six ordered pairs.
            assert_eq!(layers, [[2; 6], [3; 6]].concat(), "{bp:?}");
        }
        for bp in [BpMode::Exact, BpMode::Compressed { bits: 2 }] {
            let mut e = layered_engine(FpMode::Exact, bp, 3, 3);
            e.run_epoch();
            assert!(e.bp_residual_norms().is_empty(), "{bp:?} keeps no residual");
        }
    }

    /// ROADMAP 9(b), through `run_epoch`: a worker with no remote neighbour
    /// takes part in every superstep of a 3-layer error-compensated run
    /// without a link, a vertex message or a tuned width of its own. Its
    /// node carries parameter traffic only: in each direction, one shard's
    /// pull and the other's push.
    #[test]
    fn a_worker_without_links_trains_through_every_exchange() {
        let mut e = ring_engine(
            FpMode::ReqEc { bits: 4, t_tr: 2, adaptive: true },
            BpMode::ResEc { bits: 4 },
            3,
        );
        let shards = e.config.parameter_servers().shard_wire_sizes();
        for _ in 0..3 {
            let stats = e.run_epoch();
            assert!(stats.loss.is_finite(), "epoch {} loss {}", stats.epoch, stats.loss);
            assert!(stats.traffic.fp_bytes > 0 && stats.traffic.bp_bytes > 0);
            for other in [0, 1] {
                assert_eq!(stats.traffic.links.get(2, other), shards[2] + shards[other]);
                assert_eq!(stats.traffic.links.get(other, 2), shards[2] + shards[other]);
            }
        }
        // Two exchange layers × the two links 0 → 1 and 1 → 0.
        assert_eq!(e.bp_residual_norms().len(), 4);
        assert!(e.evaluate().train.is_finite());
    }

    /// ROADMAP 10: a worker that owns no vertex at all — no rows, no links,
    /// no loss term — takes part in every superstep under each family of
    /// link state (none, trend + residual, delay + sparsification residual).
    #[test]
    fn an_empty_partition_trains_in_every_mode_family() {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(150, 12, 5));
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        for (fp, bp) in [
            (FpMode::Exact, BpMode::Exact),
            (FpMode::ReqEc { bits: 2, t_tr: 10, adaptive: true }, BpMode::ResEc { bits: 4 }),
            (FpMode::Delayed { r: 3 }, BpMode::TopkEc { ratio: 0.2 }),
        ] {
            // Worker 2 of 3 owns nothing.
            let partition = Partition::new((0..150).map(|v| v % 2).collect(), 3);
            let (data, adjs) = (Arc::clone(&data), vec![Arc::clone(&adj); 2]);
            let mut e = DistributedEngine::new(data, adjs, partition, config_with(fp, bp, 3, 2));
            assert_eq!(e.contexts[2].num_local(), 0);
            for _ in 0..4 {
                let stats = e.run_epoch();
                assert!(stats.loss.is_finite(), "{fp:?}/{bp:?} epoch {}", stats.epoch);
            }
        }
    }

    /// ROADMAP 9(b) through the exchange workspace, whose remote operands
    /// are reshaped from exchange to exchange and never re-zeroed: a
    /// partition with a single-vertex part — so every link out of it has one
    /// row — trains a 47-wide 3-layer model at `B = 1` and `B = 16` across a
    /// trend boundary while messages drop and degrade; and in an exact-mode
    /// twin under the same faults, whatever the buffers held before, every
    /// exchange leaves exactly the owners' current rows in them.
    #[test]
    fn no_stale_row_survives_in_the_reused_remote_operands() {
        use crate::config::{ResilienceConfig, ResiliencePolicy};
        let lonely = |fp: FpMode, bp: BpMode| {
            let data = Arc::new(DatasetSpec::cora().instantiate_with(150, 12, 5));
            let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
            // Vertex 0 alone on worker 2, the rest alternating.
            let parts = (0..150).map(|v| if v == 0 { 2 } else { v % 2 }).collect();
            let config = TrainingConfig {
                dims: vec![12, 47, 47, data.num_classes],
                faults: ec_faults::FaultPlan::uniform_drop(11, 0.3),
                resilience: ResilienceConfig {
                    policy: ResiliencePolicy::EcDegrade,
                    max_attempts: 1,
                    checkpoint_every: 0,
                },
                ..config_with(fp, bp, 3, 3)
            };
            DistributedEngine::new(data, vec![adj; 3], Partition::new(parts, 3), config)
        };

        for bits in [1u8, 16] {
            let mut e =
                lonely(FpMode::ReqEc { bits, t_tr: 2, adaptive: false }, BpMode::ResEc { bits });
            assert_eq!(e.contexts[2].num_local(), 1);
            assert_eq!(e.contexts[0].layers[1].deps_by_owner[2].len(), 1, "a one-row link");
            // Epochs 0 and 1 are trend boundaries; 2 is the first whose
            // messages the prediction can stand in for.
            let degraded: Vec<u64> = (0..3)
                .map(|_| {
                    let stats = e.run_epoch();
                    assert!(stats.loss.is_finite(), "B={bits} epoch {}", stats.epoch);
                    stats.degraded
                })
                .collect();
            assert!(degraded[2] > 0 && degraded[..2] == [0, 0], "B={bits}: {degraded:?}");
        }

        let mut e = lonely(FpMode::Exact, BpMode::Exact);
        for _ in 0..3 {
            e.run_epoch();
        }
        // `H^{l-1}` stands in for `G^l` backward: the exchange only asks for
        // the owners' local rows.
        for (dir, l) in [(Forward, 2), (Backward, 3), (Forward, 3), (Backward, 2)] {
            let width = |e: &DistributedEngine| e.h_local[0][l - 1].cols();
            let mut global = Matrix::zeros(150, width(&e));
            for (ctx, h) in e.contexts.iter().zip(&e.h_local) {
                for (row, &v) in ctx.local_vertices.iter().enumerate() {
                    global.set_row(v, h[l - 1].row(row));
                }
            }
            let (comp, ws, h) = (&mut e.comp, &mut e.exchange_ws, &e.h_local);
            let remotes =
                comp.exchange(ws, &mut e.cluster, &mut e.counters, dir, l, |j| &h[j][l - 1]);
            for (ctx, remote) in e.contexts.iter().zip(remotes) {
                let topo = ctx.plan(dir, l);
                assert_eq!(remote.rows(), topo.remote_deps.len());
                for (&v, &row) in topo.remote_deps.iter().zip(&topo.remote_row) {
                    let tag = format!("{dir:?} layer {l} worker {} vertex {v}", ctx.worker_id);
                    assert_eq!(remote.row(row as usize), global.row(v), "{tag}");
                }
            }
        }
    }

    /// The pruning's premise, under every BP mode: the rows of `G^L` the
    /// top layer's backward plans leave out — shipped to no requester and
    /// read by no local column — are exactly zero, so `Â·G^L` loses
    /// nothing; and the plans do leave rows out.
    #[test]
    fn every_row_of_the_top_gradient_no_plan_ships_is_zero() {
        let data = Arc::new(DatasetSpec::products().instantiate_with(300, 12, 5));
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let partition = HashPartitioner::default().partition(&data.graph, 3);
        for bp in [
            BpMode::Exact,
            BpMode::Compressed { bits: 2 },
            BpMode::ResEc { bits: 2 },
            BpMode::TopkEc { ratio: 0.2 },
        ] {
            let fp = FpMode::ReqEc { bits: 2, t_tr: 2, adaptive: true };
            let mut config = config_with(fp, bp, 3, 3);
            *config.dims.last_mut().unwrap() = data.num_classes;
            let (data, adjs) = (Arc::clone(&data), vec![Arc::clone(&adj); 3]);
            let mut e = DistributedEngine::new(data, adjs, partition.clone(), config);
            let (mut zero_rows, mut left_out) = (0, 0);
            for _ in 0..3 {
                e.run_epoch();
                for (j, ctx) in e.contexts.iter().enumerate() {
                    let (_, g) = masked_softmax_cross_entropy(
                        &e.h_local[j][3],
                        &e.labels_local[j],
                        &e.train_local[j],
                        e.total_train,
                    );
                    let own = &ctx.plan(Backward, 3).adj_local;
                    let mut read = vec![false; ctx.num_local()];
                    for (c, _) in (0..own.rows()).flat_map(|r| own.row_entries(r)) {
                        if c < ctx.num_local() {
                            read[c] = true;
                        }
                    }
                    for other in &e.contexts {
                        for &row in &other.plan(Backward, 3).gather_rows[j] {
                            read[row] = true;
                        }
                    }
                    for (r, _) in read.iter().enumerate().filter(|(_, &read)| !read) {
                        assert!(g.row(r).iter().all(|&x| x == 0.0), "{bp:?} worker {j} row {r}");
                        zero_rows += 1;
                    }
                    let full = e.contexts.iter().map(|c| c.plan(Forward, 2).gather_rows[j].len());
                    let pruned =
                        e.contexts.iter().map(|c| c.plan(Backward, 3).gather_rows[j].len());
                    left_out += full.sum::<usize>() - pruned.sum::<usize>();
                }
            }
            assert!(zero_rows > 0 && left_out > 0, "{bp:?}: {zero_rows} rows, {left_out} left out");
        }
    }

    /// Every state variant goes through the one clone: a snapshot taken in
    /// the middle of a trend group (or refresh cycle) and restored after
    /// two more epochs replays those epochs bit for bit — on 8-wide hidden
    /// layers, and on `[12, 4, 6, 7]`, whose two widening layers ship
    /// `Q = G·Wᵀ` backward and keep their residuals in `Q` space.
    #[test]
    fn snapshot_restore_replays_bit_identically_in_every_stateful_mode() {
        let modes = [
            (FpMode::ReqEc { bits: 2, t_tr: 4, adaptive: true }, BpMode::ResEc { bits: 4 }),
            (FpMode::Delayed { r: 3 }, BpMode::TopkEc { ratio: 0.2 }),
            (FpMode::Compressed { bits: 4 }, BpMode::Compressed { bits: 4 }),
        ];
        let widening = [12, 4, 6, DatasetSpec::cora().num_classes];
        for ((fp, bp), dims) in modes.into_iter().flat_map(|m| [(m, None), (m, Some(widening))]) {
            let config = config_with(fp, bp, 3, 3);
            let dims = dims.map_or(config.dims.clone(), Vec::from);
            let mut e = cora_engine(TrainingConfig { dims, ..config });
            e.run_epoch();
            e.run_epoch();
            let snapshot = e.snapshot();
            let two_epochs = |e: &mut DistributedEngine| -> (Vec<u32>, Vec<Vec<u32>>) {
                let losses = (0..2).map(|_| e.run_epoch().loss.to_bits()).collect();
                let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect();
                (losses, e.weights().iter().map(|(w, _)| bits(w)).collect())
            };
            let first = two_epochs(&mut e);
            e.restore(&snapshot).unwrap();
            assert_eq!(e.epochs_run(), 2);
            assert_eq!(two_epochs(&mut e), first, "{fp:?} / {bp:?} {:?}", e.config.dims);
        }
    }

    /// The weight gradient of a layer that ships `H` forward is
    /// `Y^{l-1} = A_wᵀ·G^l`, the forward aggregate against the local
    /// gradient, with no BP message in it. So after one exact-FP epoch the
    /// top slot's weights are bit-identical under exact, 1-bit and ResEC BP
    /// where the top layer ships `H` (widening 6 → 7, and a tie 7 → 7), and
    /// differ where it ships `P` (narrowing 8 → 7), whose
    /// `Y¹ = (H¹)ᵀ·(Â·G²)` reads the BP messages.
    #[test]
    fn the_weight_gradient_of_an_h_layer_carries_no_bp_error() {
        let c = DatasetSpec::cora().num_classes;
        let bp_modes = [BpMode::Exact, BpMode::Compressed { bits: 1 }, BpMode::ResEc { bits: 2 }];
        for (hidden, ships_h) in [(6, true), (c, true), (8, false)] {
            let top = bp_modes.map(|bp| {
                let config = config_with(FpMode::Exact, bp, 3, 2);
                let mut e = cora_engine(TrainingConfig { dims: vec![12, hidden, c], ..config });
                e.run_epoch();
                e.weights()[1].0.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            });
            let equal = [(0, 1), (0, 2), (1, 2)].map(|(a, b)| top[a] == top[b]);
            assert_eq!(equal, [ships_h; 3], "hidden {hidden}");
        }
    }

    #[test]
    fn exact_mode_has_zero_reconstruction_error() {
        let mut e = engine_with(FpMode::Exact, BpMode::Exact, 3);
        e.run_epoch();
        assert_eq!(e.counters.fp_recon_err, 0.0);
        let mut c = engine_with(FpMode::Compressed { bits: 1 }, BpMode::Exact, 3);
        c.run_epoch();
        assert!(c.counters.fp_recon_err > 0.0);
    }

    #[test]
    fn evaluate_reports_probabilities_in_range() {
        let mut e = engine_with(FpMode::Exact, BpMode::Exact, 2);
        for _ in 0..3 {
            e.run_epoch();
        }
        let eval = e.evaluate();
        for acc in [eval.train, eval.val, eval.test] {
            assert!((0.0..=1.0).contains(&acc));
        }
        assert_eq!(e.epochs_run(), 3);
    }

    #[test]
    fn loss_decreases_under_compression_too() {
        let mut e = engine_with(
            FpMode::ReqEc { bits: 4, t_tr: 10, adaptive: false },
            BpMode::ResEc { bits: 4 },
            3,
        );
        let first = e.run_epoch().loss;
        let mut last = first;
        for _ in 0..30 {
            last = e.run_epoch().loss;
        }
        assert!(last < first, "loss {first} → {last}");
    }

    #[test]
    fn per_layer_sampled_adjacency_trains() {
        let data = Arc::new(DatasetSpec::products().instantiate_with(200, 12, 9));
        let (adjs, _) = crate::sampling::sample_layer_graphs(&data.graph, &[5, 3], 4);
        let config = TrainingConfig {
            dims: vec![12, 8, data.num_classes],
            num_workers: 3,
            seed: 2,
            ..TrainingConfig::defaults(12, data.num_classes)
        };
        let partition = HashPartitioner::default().partition(&data.graph, 3);
        let mut e = DistributedEngine::new(data, adjs, partition, config);
        let first = e.run_epoch().loss;
        for _ in 0..20 {
            e.run_epoch();
        }
        let last = e.run_epoch().loss;
        assert!(last < first, "sampled training loss {first} → {last}");
    }

    #[test]
    fn checkpoint_round_trips_through_the_engine() {
        let mut a = engine_with(FpMode::Exact, BpMode::Exact, 2);
        for _ in 0..2 {
            a.run_epoch();
        }
        let mut path = std::env::temp_dir();
        path.push(format!("ecgraph-engine-ckpt-{}.bin", std::process::id()));
        a.save_checkpoint(&path).unwrap();
        let mut b = engine_with(FpMode::Exact, BpMode::Exact, 2);
        b.load_checkpoint(&path).unwrap();
        let logits_a = a.forward_global();
        let logits_b = b.forward_global();
        assert!(logits_a.approx_eq(&logits_b, 1e-6));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn telemetry_captures_ec_internals() {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(150, 12, 5));
        let config = TrainingConfig {
            dims: vec![12, 8, data.num_classes],
            num_workers: 3,
            fp_mode: FpMode::ReqEc { bits: 4, t_tr: 10, adaptive: true },
            bp_mode: BpMode::ResEc { bits: 4 },
            telemetry: ec_trace::TelemetryConfig::at(ec_trace::TelemetryLevel::Trace),
            seed: 2,
            ..TrainingConfig::defaults(12, data.num_classes)
        };
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let partition = HashPartitioner::default().partition(&data.graph, 3);
        let mut e = DistributedEngine::new(data, vec![adj; 2], partition, config);
        for _ in 0..3 {
            e.run_epoch();
        }
        let rep = e.take_telemetry().expect("trace level yields a report");
        // Epoch 0 ships trend boundaries; epoch 1 is the first epoch where
        // the Selector decides (exchange layer for L=2 is l=2).
        let decisions: u64 = ["selector.cps", "selector.pdt", "selector.avg"]
            .iter()
            .filter_map(|n| rep.counter(n, &[1, 2]))
            .sum();
        assert!(decisions > 0, "selector decisions must be recorded");
        assert!(rep.gauge("resec.residual_l2sq", &[1, 2]).is_some());
        assert!(rep.gauge("resec.theorem1_bound", &[1, 2]).is_some());
        assert!(rep.rows_named("bittuner.bits").next().is_some());
        assert!(rep.rows_named("traffic.link_bytes").next().is_some());
        assert!(rep.gauge("phase.compute", &[0]).is_some());
        assert!(rep.rows_named("fp.wire_bytes").next().is_some());
        assert!(rep.spans.iter().any(|s| s.name == "fp:exchange"));
        assert!(rep.spans.iter().any(|s| s.name == "epoch"));
        // Timeline attribution: the headroom gauge is always flushed, and
        // under real host timing three workers cannot finish every
        // superstep in lock-step, so barrier idle shows up as spans and
        // the codec work as `comm:pack` spans on the network track.
        assert!(rep.gauge("timeline.overlap_headroom_s", &[0]).is_some());
        assert!(rep.spans.iter().any(|s| s.name == "idle:wait" && s.cat == "idle"));
        assert!(rep.spans.iter().any(|s| s.name == "comm:pack" && s.cat == "pack"));
        assert!(rep.rows_named("timeline.idle_s").next().is_some());

        let off = engine_with(FpMode::Exact, BpMode::Exact, 2);
        assert!(off.take_telemetry().is_none(), "Off yields no report");
    }

    #[test]
    #[should_panic(expected = "one adjacency per layer")]
    fn rejects_wrong_adjacency_count() {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(50, 8, 1));
        let config = TrainingConfig {
            dims: vec![8, 8, data.num_classes],
            num_workers: 2,
            ..TrainingConfig::defaults(8, data.num_classes)
        };
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let partition = HashPartitioner::default().partition(&data.graph, 2);
        let _ = DistributedEngine::new(data, vec![adj], partition, config);
    }

    #[test]
    #[should_panic(expected = "feature dim")]
    fn rejects_dim_mismatch() {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(50, 8, 1));
        let config = TrainingConfig {
            dims: vec![9, 8, data.num_classes],
            num_workers: 2,
            ..TrainingConfig::defaults(9, data.num_classes)
        };
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let partition = HashPartitioner::default().partition(&data.graph, 2);
        let _ = DistributedEngine::new(data, vec![adj; 2], partition, config);
    }
}
