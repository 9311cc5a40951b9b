//! The link table: what every (requester, owner, exchange layer) triple
//! remembers, and the one loop that moves a message across it.
//!
//! The paper's two mechanisms are per-link memories — ReqEC-FP's `H_base` /
//! `M_cr` and Bit-Tuner width (Alg. 3–4), ResEC-BP's `δ` (Alg. 5–6). The
//! engine builds the table once: per direction and exchange layer
//! `l ∈ 2..=L`, one link per non-empty dependency set of that direction's
//! plan (`WorkerContext::plan`) in ascending `(requester, owner)` order,
//! with its index plans and the [`FpLink`] (forward) or [`BpLink`]
//! (backward) state the configured modes resolve to. Below the top layer
//! both directions list the same pairs over the same topology; at layer `L`
//! each ships only the rows that reach the loss. **The link order is the message order**: a fault
//! decision is keyed by the message's sequence number in its superstep, and
//! the ledgers, Selector counts and the float sums behind the
//! reconstruction-error and residual gauges accumulate per message — so a
//! front-to-back walk of the table replays a run byte for byte.
//!
//! A link does not know which matrix it carries: the exchange hands it the
//! owner's rows of whatever the engine sources, the narrower side of the
//! layer (`TrainingConfig::ships_transformed`). A forward link of a layer
//! that narrows carries `P = H^{l-1}·W^{l-1}` rather than `H^{l-1}`, and a
//! backward link of a layer that widens `Q = G^l·(W^{l-1})ᵀ` rather than
//! `G^l`, so its ResEC residual `δ` lives in `Q` space. The side is fixed
//! per layer and direction for the whole run, so each link's state always
//! has one width.

use crate::bp::BpLink;
use crate::config::{FpMode, TrainingConfig};
pub(crate) use crate::context::Direction;
use crate::context::{LayerTopology, WorkerContext};
use crate::exec::Cluster;
use crate::fp::{self, FpLink};
use ec_comm::codec;
use ec_comm::stats::Channel;
use ec_comm::{HostTimer, SendError};
use ec_compress::{Quantized, RangeBlock};
use ec_tensor::Matrix;
use ec_trace::registry::labels;
use ec_trace::{MetricId, TelemetryLevel, TelemetrySink};
use std::sync::Arc;

/// The buffers a message passes through on its way across a link, reused
/// from one message to the next: once each has grown to the largest message,
/// gathering and packing allocate nothing. The reply itself is decoded into
/// the requester's remote operand.
pub(crate) struct MessageBuffers {
    /// The owner's exact rows, gathered where a policy reads them as a
    /// matrix.
    pub exact: Matrix,
    /// The packed message, where the link's policy quantizes.
    pub codec: Quantized,
}

impl MessageBuffers {
    /// Empty buffers; the first messages size them.
    pub(crate) fn new() -> Self {
        Self { exact: Matrix::zeros(0, 0), codec: Quantized::default() }
    }
}

/// `C_bits(m)` into `codec` and its reconstruction into `out`; returns the
/// bytes on the wire (an empty message ships nothing).
pub(crate) fn round_trip(m: &Matrix, bits: u8, codec: &mut Quantized, out: &mut [f32]) -> u64 {
    if m.rows() == 0 {
        return 0;
    }
    codec.assign(m, bits, RangeBlock::Message);
    codec.decompress_into(out);
    codec.wire_size() as u64
}

/// The uncompressed reply: rows `rows` of `source` copied into `out` back to
/// back. Returns its bytes on the wire.
pub(crate) fn copy_rows(source: &Matrix, rows: &[usize], out: &mut [f32]) -> u64 {
    for (dst, &r) in out.chunks_exact_mut(source.cols().max(1)).zip(rows) {
        dst.copy_from_slice(source.row(r));
    }
    codec::matrix_wire_size_for(out.len()) as u64
}

/// What a link's policy says about the reply it decoded into its block of
/// the remote operand.
pub(crate) struct Reply {
    /// Bytes on the wire.
    pub wire: u64,
    /// L1 distance of the reply from the exact rows (0 where they are exact,
    /// and for gradients, whose error the residual tracks instead).
    pub recon_l1: f32,
    /// Selector decision counts, when a Selector ran.
    pub selected: Option<[u32; 3]>,
    /// EC-degrade: present when the requester can do without this reply, and
    /// then the L1 distance of what [`FpLink::degrade`] puts in its place if
    /// it does not arrive within the cluster's attempt bound.
    pub fallback_l1: Option<f32>,
}

impl Reply {
    /// A reply with nothing to report beyond its size.
    pub(crate) fn plain(wire: u64) -> Self {
        Self { wire, recon_l1: 0.0, selected: None, fallback_l1: None }
    }
}

/// One (requester, owner) pair of one exchange layer, in one direction.
#[derive(Clone)]
struct Link<P> {
    requester: usize,
    owner: usize,
    /// The requester's plan of this layer and direction:
    /// `gather_rows[owner]` is this link's gather plan,
    /// `link_start[owner]..link_start[owner + 1]` its block of the remote
    /// operand.
    topo: Arc<LayerTopology>,
    policy: P,
}

/// How a link's owner answers in one direction ([`FpLink`] forward,
/// [`BpLink`] backward), and what stands in for a reply that does not
/// arrive.
pub(crate) trait Policy {
    /// The ledger the link's messages are charged to.
    const CHANNEL: Channel;
    /// The per-message size histogram.
    const WIRE_METRIC: MetricId;

    /// Answers the link's gather plan `rows` of the owner's `source` at
    /// iteration `t` and writes what the requester reconstructs into `reply`
    /// (`rows.len()` rows). `bits` is the pair's current ReqEC width. With
    /// `degradable`, a reply the requester can do without says what
    /// [`Self::degrade`] would cost instead.
    #[expect(clippy::too_many_arguments, reason = "the plan, its buffers and the step's state")]
    fn respond(
        &mut self,
        source: &Matrix,
        rows: &[usize],
        buf: &mut MessageBuffers,
        reply: &mut [f32],
        bits: u8,
        t: usize,
        degradable: bool,
    ) -> Reply;

    /// Overwrites `rows` with what the requester falls back to when the
    /// reply to a [`Self::respond`] that offered a `fallback_l1` is lost;
    /// a policy that never offers one has nothing to do.
    fn degrade(&self, _t: usize, _rows: &mut [f32]) {}
}

/// The links of one direction, per exchange layer `l ∈ 2..=L`.
#[derive(Clone)]
struct LinkTable<P> {
    /// `layers[l - 2]` = the links of exchange layer `l`, in message order.
    layers: Vec<Vec<Link<P>>>,
    /// `remote_rows[l - 2][w]` = rows of worker `w`'s remote operand in
    /// exchange layer `l`.
    remote_rows: Vec<Vec<usize>>,
}

/// Every piece of error-compensation memory the two ends of a link keep in
/// step. The engine and its snapshot hold the same struct and the snapshot
/// clones it whole, so state added to a link is captured and restored
/// without a list to extend.
#[derive(Clone)]
pub(crate) struct CompensationState {
    /// The forward links, each with its ReqEC / delayed / codec state.
    fp: LinkTable<FpLink>,
    /// The backward links, each with its ResEC / Top-k residual or codec.
    bp: LinkTable<BpLink>,
    /// Current ReqEC bit width per `[requester][owner]`, shared by the
    /// pair's links across layers.
    pub fp_bits: Vec<Vec<u8>>,
}

/// Everything an exchange writes that no later exchange reads: the engine
/// holds one beside the link table, outside [`CompensationState`], so a
/// snapshot neither clones nor restores it, and it is sized by the first
/// exchange that uses it rather than at construction.
pub(crate) struct ExchangeWorkspace {
    /// `remotes[worker]`: the remote operand of the exchange in flight,
    /// owner-major (`LayerTopology::link_start`). An exchange's operands are
    /// consumed by the compute superstep that follows it, so every exchange
    /// reshapes the same `W` buffers — small enough to stay cache-resident —
    /// and none is ever re-zeroed: the links' blocks tile each operand, and
    /// each block is overwritten by its link's reply, retry or fallback.
    remotes: Vec<Matrix>,
    message: MessageBuffers,
}

impl ExchangeWorkspace {
    pub(crate) fn new() -> Self {
        Self { remotes: Vec::new(), message: MessageBuffers::new() }
    }
}

/// Diagnostics of the current epoch only; reset by assignment when an
/// epoch starts and when a snapshot is restored.
#[derive(Default)]
pub(crate) struct EpochCounters {
    /// Total L1 reconstruction error of all FP messages (exact modes
    /// report 0).
    pub fp_recon_err: f64,
    /// FP messages degraded to the prediction, by the failure of their
    /// final attempt.
    pub fp_degraded_drop: u64,
    pub fp_degraded_corrupt: u64,
    /// Selector decision counts of exchange layer `l` at index `l - 2`;
    /// `None` where no Selector ran.
    pub fp_selected: Vec<Option<[u64; 3]>>,
}

impl CompensationState {
    /// Walks the worker contexts once and resolves every link's state from
    /// `config`.
    pub(crate) fn new(contexts: &[WorkerContext], config: &TrainingConfig) -> Self {
        let num_layers = config.num_layers();
        let fp = LinkTable::new(contexts, Direction::Forward, num_layers, |l| {
            FpLink::new(config.fp_mode, config.reqec_granularity, l == num_layers)
        });
        let bp = LinkTable::new(contexts, Direction::Backward, num_layers, |_| {
            BpLink::new(config.bp_mode)
        });
        let init_bits = match config.fp_mode {
            FpMode::ReqEc { bits, .. } | FpMode::Compressed { bits } => bits,
            _ => 16,
        };
        let fp_bits = vec![vec![init_bits; contexts.len()]; contexts.len()];
        Self { fp, bp, fp_bits }
    }

    /// `(exchange layer, ‖δ‖²)` of every live BP residual, in link order.
    pub(crate) fn bp_residual_norms(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.bp.layers.iter().enumerate().flat_map(|(k, links)| {
            links.iter().filter_map(move |link| Some((k + 2, link.policy.residual_norm_sq()?)))
        })
    }

    /// One exchange of layer `l` in direction `dir` in the cluster's current
    /// epoch, a single push round: for every link of that direction, owner
    /// `j`'s policy answers from its rows of `source(j)` straight into the
    /// link's block of requester `i`'s remote operand, unrequested, since
    /// the gather plans are fixed when the table is built. Returns the
    /// remote operands indexed by worker, in `ws`.
    pub(crate) fn exchange<'a, 'w>(
        &mut self,
        ws: &'w mut ExchangeWorkspace,
        cluster: &mut Cluster,
        counters: &mut EpochCounters,
        dir: Direction,
        l: usize,
        source: impl Fn(usize) -> &'a Matrix,
    ) -> &'w [Matrix] {
        let bits = &self.fp_bits;
        match dir {
            Direction::Forward => self.fp.exchange(ws, cluster, counters, bits, l, source),
            Direction::Backward => self.bp.exchange(ws, cluster, counters, bits, l, source),
        }
    }

    /// The adaptive Bit-Tuner (Alg. 3 lines 13–18), after the last FP
    /// exchange of epoch `t`: every pair whose last-layer link observed a
    /// predicted proportion gets its width for the next epoch.
    pub(crate) fn tune_bits(&mut self, telemetry: &mut TelemetrySink, t: usize) {
        for link in self.fp.layers.last_mut().into_iter().flatten() {
            if let Some(proportion) = link.policy.take_observation() {
                let (i, j) = (link.requester, link.owner);
                let bits = fp::tune_bits(self.fp_bits[i][j], proportion);
                self.fp_bits[i][j] = bits;
                let lbl = labels(&[t as u32, i as u32, j as u32]);
                telemetry.set(MetricId::BitTunerBits, lbl, bits as f64);
            }
        }
    }
}

impl<P: Policy + Clone> LinkTable<P> {
    /// Per exchange layer, one link per non-empty dependency set of `dir`'s
    /// plans in ascending `(requester, owner)` order, each with the state
    /// `policy(l)`.
    fn new(
        contexts: &[WorkerContext],
        dir: Direction,
        num_layers: usize,
        policy: impl Fn(usize) -> P,
    ) -> Self {
        let remote_rows = (2..=num_layers)
            .map(|l| contexts.iter().map(|ctx| ctx.plan(dir, l).remote_deps.len()).collect())
            .collect();
        let layers = (2..=num_layers)
            .map(|l| {
                let policy = policy(l);
                let mut links = Vec::new();
                for ctx in contexts {
                    let topo = ctx.plan(dir, l);
                    for (owner, deps) in topo.deps_by_owner.iter().enumerate() {
                        if !deps.is_empty() && owner != ctx.worker_id {
                            links.push(Link {
                                requester: ctx.worker_id,
                                owner,
                                topo: Arc::clone(topo),
                                policy: policy.clone(),
                            });
                        }
                    }
                }
                links
            })
            .collect();
        Self { layers, remote_rows }
    }

    /// [`CompensationState::exchange`] over this direction's links.
    fn exchange<'a, 'w>(
        &mut self,
        ws: &'w mut ExchangeWorkspace,
        cluster: &mut Cluster,
        counters: &mut EpochCounters,
        fp_bits: &[Vec<u8>],
        l: usize,
        source: impl Fn(usize) -> &'a Matrix,
    ) -> &'w [Matrix] {
        let t = cluster.epoch;
        let measure = cluster.steps.telemetry.enabled(TelemetryLevel::Superstep);
        let degrade = cluster.degrade_attempts;
        let cols = source(0).cols();
        let ExchangeWorkspace { remotes, message } = ws;
        remotes.resize(fp_bits.len(), Matrix::zeros(0, 0));
        for (remote, &rows) in remotes.iter_mut().zip(&self.remote_rows[l - 2]) {
            remote.reshape_for_overwrite(rows, cols);
        }
        counters.fp_selected.resize(self.layers.len(), None);
        for link in &mut self.layers[l - 2] {
            let (i, j, topo) = (link.requester, link.owner, &link.topo);
            let block = (topo.link_start[j] * cols)..(topo.link_start[j + 1] * cols);
            let block = &mut remotes[i].as_mut_slice()[block];
            let (owned, rows) = (source(j), &topo.gather_rows[j]);
            let pack_timer = measure.then(HostTimer::start);
            let reply = link.policy.respond(
                owned,
                rows,
                message,
                block,
                fp_bits[i][j],
                t,
                degrade.is_some(),
            );
            cluster.steps.pack_s += pack_timer.map_or(0.0, |tm| tm.elapsed_s());
            if let Some(selected) = reply.selected {
                let acc = counters.fp_selected[l - 2].get_or_insert([0; 3]);
                for (acc, c) in acc.iter_mut().zip(selected) {
                    *acc += c as u64;
                }
            }
            let lbl = labels(&[t as u32]);
            cluster.steps.telemetry.observe(P::WIRE_METRIC, lbl, reply.wire as f64);
            // A bounded wait only where a fallback stands by; else retry.
            let attempts = reply.fallback_l1.and(degrade);
            let delivery = cluster.network.send_within(attempts, j, i, P::CHANNEL, reply.wire);
            let unpack_timer = measure.then(HostTimer::start);
            let recon_l1 = match (delivery, reply.fallback_l1) {
                (Err(err), Some(fallback_l1)) => {
                    match err {
                        SendError::Corrupted => counters.fp_degraded_corrupt += 1,
                        SendError::Dropped => counters.fp_degraded_drop += 1,
                    }
                    link.policy.degrade(t, block);
                    fallback_l1
                }
                _ => reply.recon_l1,
            };
            counters.fp_recon_err += recon_l1 as f64;
            cluster.steps.unpack_s += unpack_timer.map_or(0.0, |tm| tm.elapsed_s());
        }
        remotes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{build_training_contexts, build_worker_contexts};
    use ec_graph_data::{normalize, DatasetSpec};
    use ec_partition::Partition;
    use std::collections::BTreeSet;
    use Direction::{Backward, Forward};

    /// `(requester, owner, ids shipped)` of every link of `links`, in table
    /// order.
    fn listed<P>(links: &[Link<P>]) -> Vec<(usize, usize, Vec<usize>)> {
        links
            .iter()
            .map(|k| (k.requester, k.owner, k.topo.deps_by_owner[k.owner].clone()))
            .collect()
    }

    impl CompensationState {
        fn listed(&self, dir: Direction, l: usize) -> Vec<(usize, usize, Vec<usize>)> {
            match dir {
                Forward => listed(&self.fp.layers[l - 2]),
                Backward => listed(&self.bp.layers[l - 2]),
            }
        }
    }

    /// The table is the non-empty dependency sets — per layer, so sampled
    /// adjacencies get different tables — in ascending (requester, owner)
    /// order; a fault-free exchange costs each link one unrequested reply
    /// and, in the exact modes, delivers the owners' rows.
    #[test]
    fn links_are_the_dependency_sets_in_message_order_and_cost_one_message_each() {
        let data = DatasetSpec::products().instantiate_with(200, 12, 9);
        let (mut adjs, _) = crate::sampling::sample_layer_graphs(&data.graph, &[5, 3], 4);
        // Layer 3 aggregates over the single edge 0 — 1: parts 0 and 1 only.
        let edge = ec_graph_data::Graph::from_edges(200, &[(0, 1)]);
        adjs.push(Arc::new(normalize::gcn_normalized_adjacency(&edge)));
        let config = TrainingConfig {
            dims: vec![12, 8, 8, data.num_classes],
            num_workers: 4,
            ..TrainingConfig::defaults(12, data.num_classes)
        };
        let partition = Partition::new((0..200).map(|v| v % 4).collect(), 4);
        let contexts = build_worker_contexts(&adjs, &partition);
        let mut comp = CompensationState::new(&contexts, &config);
        let mut cluster = Cluster::new(&config);
        let mut ws = ExchangeWorkspace::new();
        let mut counters = EpochCounters::default();
        assert_eq!((comp.fp.layers.len(), comp.bp.layers.len()), (2, 2), "layers are 2..=L");

        let global = Matrix::from_fn(200, 8, |r, c| (r * 8 + c) as f32);
        let sources: Vec<Matrix> =
            contexts.iter().map(|ctx| global.gather_rows(&ctx.local_vertices)).collect();
        let mut per_layer = Vec::new();
        for l in 2..=3 {
            let mut want = Vec::new();
            for ctx in &contexts {
                for (owner, deps) in ctx.layers[l - 1].deps_by_owner.iter().enumerate() {
                    if !deps.is_empty() {
                        want.push((ctx.worker_id, owner, deps.clone()));
                    }
                }
            }
            assert!(want.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)), "ascending");
            assert!(want.iter().all(|&(i, j, _)| i != j));

            for dir in [Forward, Backward] {
                // Every vertex is in the loss: both directions list the pairs.
                assert_eq!(comp.listed(dir, l), want, "layer {l} {dir:?}");
                let before = cluster.network.total_stats().messages;
                let remotes =
                    comp.exchange(&mut ws, &mut cluster, &mut counters, dir, l, |j| &sources[j]);
                let sent = cluster.network.total_stats().messages - before;
                assert_eq!(sent, want.len() as u64, "layer {l} {dir:?}");
                for (ctx, remote) in contexts.iter().zip(remotes) {
                    let topo = ctx.plan(dir, l);
                    assert_eq!(remote.shape(), (topo.remote_deps.len(), 8));
                    for (&v, &row) in topo.remote_deps.iter().zip(&topo.remote_row) {
                        assert_eq!(remote.row(row as usize), global.row(v), "{dir:?} layer {l}");
                    }
                }
            }
            per_layer.push(want.into_iter().map(|(i, j, _)| (i, j)).collect::<Vec<_>>());
        }
        assert_eq!(per_layer[0].len(), 12, "a sampled products layer links every pair");
        assert_eq!(per_layer[1], [(0, 1), (1, 0)]);
        assert_eq!(counters.fp_recon_err, 0.0);
        assert!(counters.fp_selected.iter().all(Option::is_none), "no Selector in exact mode");
    }

    /// With a loss over the training split, the top layer's links carry
    /// only rows that reach it — forward, the remote neighbours of the
    /// requester's training vertices; backward, the remote training
    /// vertices next to any of the requester's vertices — while the lower
    /// layers keep every remote 1-hop neighbour in both directions. On a
    /// hash partition of a random graph, shared adjacency and sampled.
    #[test]
    fn top_layer_links_carry_only_the_rows_the_loss_reads() {
        let data = DatasetSpec::products().instantiate_with(300, 12, 9);
        let (g, train) = (&data.graph, &data.split.train);
        let in_loss: BTreeSet<usize> = train.iter().copied().collect();
        let partition = ec_partition::Partitioner::partition(
            &ec_partition::hash::HashPartitioner::new(3),
            g,
            4,
        );
        let config = TrainingConfig {
            dims: vec![12, 8, 8, data.num_classes],
            num_workers: 4,
            ..TrainingConfig::defaults(12, data.num_classes)
        };
        let shared = Arc::new(normalize::gcn_normalized_adjacency(g));
        let (sampled, _) = crate::sampling::sample_layer_graphs(g, &[5, 3, 2], 4);
        for adjs in [vec![shared; 3], sampled] {
            let contexts = build_training_contexts(&adjs, &partition, train);
            let comp = CompensationState::new(&contexts, &config);
            let mut pruned = [0usize; 2];
            for l in 2..=3 {
                for (d, dir) in [Forward, Backward].into_iter().enumerate() {
                    let mut want = Vec::new();
                    for i in 0..4 {
                        let mut deps = vec![BTreeSet::new(); 4];
                        for v in (0..300).filter(|&v| partition.part_of(v) == i) {
                            let row_read = l < 3 || dir == Backward || in_loss.contains(&v);
                            for (u, _) in adjs[l - 1].row_entries(v).filter(|_| row_read) {
                                let col_read = l < 3 || dir == Forward || in_loss.contains(&u);
                                if partition.part_of(u) != i && col_read {
                                    deps[partition.part_of(u)].insert(u);
                                }
                            }
                        }
                        for (j, deps) in deps.into_iter().enumerate() {
                            if !deps.is_empty() {
                                want.push((i, j, deps.into_iter().collect::<Vec<_>>()));
                            }
                        }
                    }
                    assert_eq!(comp.listed(dir, l), want, "layer {l} {dir:?}");
                    if l == 3 {
                        let full: usize = build_worker_contexts(&adjs, &partition)
                            .iter()
                            .map(|c| c.layers[2].remote_deps.len())
                            .sum();
                        let rows: usize = want.iter().map(|(_, _, deps)| deps.len()).sum();
                        pruned[d] += full - rows;
                    }
                }
            }
            assert!(pruned.iter().all(|&p| p > 0), "both top-layer plans drop rows: {pruned:?}");
        }
    }
}
