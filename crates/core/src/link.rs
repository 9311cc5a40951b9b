//! The link table: what every (requester, owner, exchange layer) triple
//! remembers, and the one loop that moves a message across it.
//!
//! The paper's two mechanisms are per-link memories — ReqEC-FP's `H_base` /
//! `M_cr` and Bit-Tuner width (Alg. 3–4), ResEC-BP's `δ` (Alg. 5–6). The
//! engine builds the table once: per exchange layer `l ∈ 2..=L`, one link
//! per non-empty dependency set in ascending `(requester, owner)` order,
//! with its index plans and the [`FpLink`] / [`BpLink`] state the configured
//! modes resolve to. **The link order is the message order**: a fault
//! decision is keyed by the message's sequence number in its superstep, and
//! the ledgers, Selector counts and the float sums behind the
//! reconstruction-error and residual gauges accumulate per message — so a
//! front-to-back walk of the table replays a run byte for byte.

use crate::bp::BpLink;
use crate::config::{FpMode, TrainingConfig};
use crate::context::{LayerTopology, WorkerContext};
use crate::exec::Cluster;
use crate::fp::{self, FpLink};
use ec_comm::codec;
use ec_comm::stats::Channel;
use ec_comm::{HostTimer, SendError};
use ec_compress::Quantized;
use ec_tensor::Matrix;
use ec_trace::registry::labels;
use ec_trace::{MetricId, TelemetryLevel, TelemetrySink};
use std::sync::Arc;

/// Which pass an exchange serves.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Direction {
    /// `H^{l-1}` rows for computing layer `l`.
    Forward,
    /// `G^l` rows for back-propagating through layer `l`.
    Backward,
}

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
        Self { exact: Matrix::zeros(0, 0), codec: Quantized::compress_row(&[], 1) }
    }
}

/// `C_bits(m)` into `codec` and its reconstruction into `out`; returns the
/// bytes on the wire (an empty message ships nothing).
pub(crate) fn round_trip(m: &Matrix, bits: u8, codec: &mut Quantized, out: &mut [f32]) -> u64 {
    if m.rows() == 0 {
        return 0;
    }
    codec.assign(m, bits);
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

/// One (requester, owner) pair of one exchange layer.
#[derive(Clone)]
struct Link {
    requester: usize,
    owner: usize,
    /// The requester's topology of this layer: `gather_rows[owner]` is this
    /// link's gather plan, `link_start[owner]..link_start[owner + 1]` its
    /// block of the remote operand.
    topo: Arc<LayerTopology>,
    fp: FpLink,
    bp: BpLink,
}

/// Every piece of error-compensation memory the two ends of a link keep in
/// step. The engine and its snapshot hold the same struct and the snapshot
/// clones it whole, so state added to a link is captured and restored
/// without a list to extend.
#[derive(Clone)]
pub(crate) struct CompensationState {
    /// `layers[l - 2]` = the links of exchange layer `l`, in message order.
    layers: Vec<Vec<Link>>,
    /// `remote_rows[l - 2][w]` = rows of worker `w`'s remote operand in
    /// exchange layer `l`.
    remote_rows: Vec<Vec<usize>>,
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
        let remote_rows = (2..=num_layers)
            .map(|l| contexts.iter().map(|ctx| ctx.layers[l - 1].remote_deps.len()).collect())
            .collect();
        let layers = (2..=num_layers)
            .map(|l| {
                let fp = FpLink::new(config.fp_mode, config.reqec_granularity, l == num_layers);
                let bp = BpLink::new(config.bp_mode);
                let mut links = Vec::new();
                for ctx in contexts {
                    let topo = &ctx.layers[l - 1];
                    for (owner, deps) in topo.deps_by_owner.iter().enumerate() {
                        if !deps.is_empty() && owner != ctx.worker_id {
                            links.push(Link {
                                requester: ctx.worker_id,
                                owner,
                                topo: Arc::clone(topo),
                                fp: fp.clone(),
                                bp: bp.clone(),
                            });
                        }
                    }
                }
                links
            })
            .collect();
        let init_bits = match config.fp_mode {
            FpMode::ReqEc { bits, .. } | FpMode::Compressed { bits } => bits,
            _ => 16,
        };
        let fp_bits = vec![vec![init_bits; contexts.len()]; contexts.len()];
        Self { layers, remote_rows, fp_bits }
    }

    /// `(exchange layer, ‖δ‖²)` of every live BP residual, in link order.
    pub(crate) fn bp_residual_norms(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.layers.iter().enumerate().flat_map(|(k, links)| {
            links.iter().filter_map(move |link| Some((k + 2, link.bp.residual_norm_sq()?)))
        })
    }

    /// One exchange of layer `l` in the cluster's current epoch, a single push
    /// round: for every link, owner `j`'s policy answers from its rows of
    /// `source(j)` straight into the link's block of requester `i`'s remote
    /// operand, unrequested, since the gather plans are fixed when the table
    /// is built. Returns the remote operands indexed by worker, in `ws`.
    pub(crate) fn exchange<'a, 'w>(
        &mut self,
        ws: &'w mut ExchangeWorkspace,
        cluster: &mut Cluster,
        counters: &mut EpochCounters,
        dir: Direction,
        l: usize,
        source: impl Fn(usize) -> &'a Matrix,
    ) -> &'w [Matrix] {
        use Direction::{Backward, Forward};
        let t = cluster.epoch;
        let measure = cluster.steps.telemetry.enabled(TelemetryLevel::Superstep);
        let (channel, wire_metric) = match dir {
            Forward => (Channel::Forward, MetricId::FpWireBytes),
            Backward => (Channel::Backward, MetricId::BpWireBytes),
        };
        let degrade = cluster.degrade_attempts;
        let cols = source(0).cols();
        let ExchangeWorkspace { remotes, message } = ws;
        remotes.resize(self.fp_bits.len(), Matrix::zeros(0, 0));
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
            let reply = match dir {
                Forward => {
                    let bits = self.fp_bits[i][j];
                    link.fp.respond(owned, rows, message, block, bits, t, degrade.is_some())
                }
                Backward => Reply::plain(link.bp.respond(owned, rows, message, block)),
            };
            cluster.steps.pack_s += pack_timer.map_or(0.0, |tm| tm.elapsed_s());
            if let Some(selected) = reply.selected {
                let acc = counters.fp_selected[l - 2].get_or_insert([0; 3]);
                for (acc, c) in acc.iter_mut().zip(selected) {
                    *acc += c as u64;
                }
            }
            let lbl = labels(&[t as u32]);
            cluster.steps.telemetry.observe(wire_metric, lbl, reply.wire as f64);
            // A bounded wait only where a fallback stands by; else retry.
            let attempts = reply.fallback_l1.and(degrade);
            let delivery = cluster.network.send_within(attempts, j, i, channel, reply.wire);
            let unpack_timer = measure.then(HostTimer::start);
            let recon_l1 = match (delivery, reply.fallback_l1) {
                (Err(err), Some(fallback_l1)) => {
                    match err {
                        SendError::Corrupted => counters.fp_degraded_corrupt += 1,
                        SendError::Dropped => counters.fp_degraded_drop += 1,
                    }
                    link.fp.degrade(t, block);
                    fallback_l1
                }
                _ => reply.recon_l1,
            };
            counters.fp_recon_err += recon_l1 as f64;
            cluster.steps.unpack_s += unpack_timer.map_or(0.0, |tm| tm.elapsed_s());
        }
        remotes
    }

    /// The adaptive Bit-Tuner (Alg. 3 lines 13–18), after the last FP
    /// exchange of epoch `t`: every pair whose last-layer link observed a
    /// predicted proportion gets its width for the next epoch.
    pub(crate) fn tune_bits(&mut self, telemetry: &mut TelemetrySink, t: usize) {
        for link in self.layers.last_mut().into_iter().flatten() {
            if let Some(proportion) = link.fp.take_observation() {
                let (i, j) = (link.requester, link.owner);
                let bits = fp::tune_bits(self.fp_bits[i][j], proportion);
                self.fp_bits[i][j] = bits;
                let lbl = labels(&[t as u32, i as u32, j as u32]);
                telemetry.set(MetricId::BitTunerBits, lbl, bits as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::build_worker_contexts;
    use ec_graph_data::DatasetSpec;
    use ec_partition::Partition;

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
        adjs.push(Arc::new(ec_graph_data::normalize::gcn_normalized_adjacency(&edge)));
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
        assert_eq!(comp.layers.len(), 2, "exchange layers are 2..=L");

        let global = Matrix::from_fn(200, 8, |r, c| (r * 8 + c) as f32);
        let sources: Vec<Matrix> =
            contexts.iter().map(|ctx| global.gather_rows(&ctx.local_vertices)).collect();
        let mut per_layer = Vec::new();
        for l in 2..=3 {
            let mut want = Vec::new();
            for ctx in &contexts {
                for (owner, deps) in ctx.layers[l - 1].deps_by_owner.iter().enumerate() {
                    if !deps.is_empty() {
                        want.push((ctx.worker_id, owner));
                    }
                }
            }
            let got: Vec<_> = comp.layers[l - 2].iter().map(|k| (k.requester, k.owner)).collect();
            assert_eq!(got, want, "layer {l}");
            assert!(want.windows(2).all(|w| w[0] < w[1]), "ascending (requester, owner)");
            assert!(want.iter().all(|&(i, j)| i != j));

            for dir in [Direction::Forward, Direction::Backward] {
                let before = cluster.network.total_stats().messages;
                let remotes =
                    comp.exchange(&mut ws, &mut cluster, &mut counters, dir, l, |j| &sources[j]);
                let sent = cluster.network.total_stats().messages - before;
                assert_eq!(sent, want.len() as u64, "layer {l} {dir:?}");
                for (ctx, remote) in contexts.iter().zip(remotes) {
                    let topo = &ctx.layers[l - 1];
                    assert_eq!(remote.shape(), (topo.remote_deps.len(), 8));
                    for (&v, &row) in topo.remote_deps.iter().zip(&topo.remote_row) {
                        assert_eq!(remote.row(row as usize), global.row(v), "{dir:?} layer {l}");
                    }
                }
            }
            per_layer.push(want);
        }
        assert_eq!(per_layer[0].len(), 12, "a sampled products layer links every pair");
        assert_eq!(per_layer[1], [(0, 1), (1, 0)]);
        assert_eq!(counters.fp_recon_err, 0.0);
        assert!(counters.fp_selected.iter().all(Option::is_none), "no Selector in exact mode");
    }
}
