//! Forward-pass message preparation: plain quantization, **ReqEC-FP**
//! (Algorithms 3–4) and DistGNN-style delayed refresh.
//!
//! Each function prepares the embedding rows one responding worker ships to
//! one requesting worker for one layer, returning the matrix the requester
//! will reconstruct together with the bytes the message occupies on the
//! simulated wire, as [`crate::wire`] prices its shape. Both ends of
//! ReqEC-FP maintain identical trend state by construction: a trend-boundary
//! message carries the exact `H` alone, and responder and requester each run
//! [`TrendState::absorb_boundary`] on it, which forms `M_cr` from the
//! `H_base` both already hold; non-boundary messages leave the state alone.
//! So the simulation keeps a single [`TrendState`] per (responder →
//! requester, layer) tuple, and it stands for both ends.
//!
//! What a link keeps between exchanges, and which of the functions below
//! answers on it, is [`FpLink`]: one variant per [`FpMode`], built when the
//! engine's link table is.
//!
//! "`H`" below is whatever the forward exchange of the link's layer ships:
//! `H^{l-1}`, or `P = H^{l-1}·W^{l-1}` where that is narrower
//! (`TrainingConfig::ships_transformed`). At a `P` layer the trend group,
//! the Selector's candidates and the reconstruction error are all in `P`
//! space; nothing here tells the two apart.
//!
//! **Reduction order.** Every L1 distance here — the Selector's three per
//! row (Eq. 10), [`ReqEcOutcome::recon_l1`], [`rowwise_l1_total`] — is
//! summed in the sixteen-lane order of [`stats::row_l1_distance`]: lane `j`
//! adds the columns `≡ j (mod 16)` of the full 16-column chunks in ascending
//! order, one fixed tree folds the lanes, the `cols % 16` tail columns follow
//! in ascending order. A float sum depends on its order, so the order is
//! written in the source rather than left to the vector width: the Selector
//! sweep ([`SelectorSweep`]) is compiled per instruction-set tier and
//! returns the same bits on every tier, host and thread count. There is one
//! sweep and no switch.
//!
//! The public step functions allocate what they return; the engine's
//! exchange runs the same code through reused buffers
//! (`link::MessageBuffers`) and decodes each reply straight into its block of
//! the requester's remote operand, so a steady-state message allocates
//! nothing.

use crate::config::FpMode;
use crate::link::{copy_rows, round_trip, MessageBuffers, Policy, Reply};
use crate::wire::FpMessage;
use ec_comm::codec;
use ec_comm::stats::Channel;
use ec_compress::Quantized;
use ec_tensor::isa::{self, Isa, Kernel};
use ec_tensor::{ops, stats, Matrix};
use ec_trace::MetricId;

/// Selector codes (paper: "00, 01 and 10 for compressed, predicted, and
/// average approximations").
pub const SELECT_CPS: u8 = 0;
/// Predicted approximation (`Ĥ_pdt`): costs no payload.
pub const SELECT_PDT: u8 = 1;
/// Average of predicted and compressed (`Ĥ_avg`).
pub const SELECT_AVG: u8 = 2;

/// Trend-group state shared by responder and requester for one
/// (responder → requester, layer) pair.
#[derive(Clone, Debug, Default)]
pub struct TrendState {
    /// Exact embeddings shipped at the last trend boundary (`H_base`).
    base: Option<Matrix>,
    /// Changing-rate matrix `M_cr` (zeros until the second exact send).
    m_cr: Option<Matrix>,
    /// Iteration at which `base` was captured.
    base_t: usize,
}

impl TrendState {
    /// The predicted candidate `Ĥ_pdt = H_base + M_cr · k` at iteration
    /// `t`, or `None` before the first trend boundary. This is what a
    /// requester can substitute for a lost non-boundary message under the
    /// EC-degrade resilience policy: the prediction needs no payload, and
    /// because non-boundary exchanges never mutate the trend state, both
    /// ends stay consistent.
    pub fn predict(&self, t: usize) -> Option<Matrix> {
        let base = self.base.as_ref()?;
        let mut pdt = Matrix::zeros(base.rows(), base.cols());
        self.predict_into(t, pdt.as_mut_slice()).then_some(pdt)
    }

    /// [`Self::predict`] into `out` (`H_base`'s size), with `axpy`'s
    /// arithmetic; `false`, with `out` untouched, before the first trend
    /// boundary.
    fn predict_into(&self, t: usize, out: &mut [f32]) -> bool {
        let (Some(base), Some(m_cr)) = (&self.base, &self.m_cr) else { return false };
        assert_eq!(out.len(), base.len(), "prediction size");
        let k = t.saturating_sub(self.base_t) as f32;
        for ((o, &b), &m) in out.iter_mut().zip(base.as_slice()).zip(m_cr.as_slice()) {
            *o = b + m * k;
        }
        true
    }

    /// The trend-boundary update, run by both ends on the exact `H` a
    /// boundary message carries: `M_cr = (H − H_base) / elapsed` over the
    /// iterations since the last boundary (`T_tr` between regular
    /// boundaries, fewer for the bootstrap group; zeros at the bootstrap,
    /// which has no `H_base`), then `H_base = H` and `base_t = t`. A
    /// requester that absorbs every boundary's `H` holds the responder's
    /// state bit for bit, so `M_cr` never crosses the wire.
    pub fn absorb_boundary(&mut self, h: &Matrix, t: usize) {
        let m_cr = match self.base.take() {
            // Formed in one pass in the buffer the outgoing `H_base` leaves
            // behind.
            Some(mut base) => {
                assert_eq!(base.shape(), h.shape(), "trend group shape changed");
                let inv = 1.0 / (t - self.base_t).max(1) as f32;
                for (b, &x) in base.as_mut_slice().iter_mut().zip(h.as_slice()) {
                    *b = (x - *b) * inv;
                }
                base
            }
            None => Matrix::zeros(h.rows(), h.cols()),
        };
        // The new `H_base` takes the buffer the outgoing `M_cr` leaves behind.
        let mut base = self.m_cr.replace(m_cr).unwrap_or_else(|| Matrix::zeros(0, 0));
        base.clone_from(h);
        self.base = Some(base);
        self.base_t = t;
    }

    /// The state's parts, for inspection.
    pub fn to_parts(&self) -> (Option<&Matrix>, Option<&Matrix>, usize) {
        (self.base.as_ref(), self.m_cr.as_ref(), self.base_t)
    }
}

/// Granularity at which the Selector chooses among the three candidate
/// approximations. The paper: "There are three kinds of granularity for
/// the approximate representations, including element-wise, vertex-wise
/// and matrix-wise schemas. We use vertex-wise approximations, which
/// yields the best balance between the message size and the accuracy
/// empirically." All three are implemented; `selector_granularity` in the
/// bench crate reproduces that comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Granularity {
    /// One selection per embedding coordinate (2 bits each — precise but
    /// selector-heavy, and the compressed payload cannot skip whole rows).
    Element,
    /// One selection per vertex (the paper's choice).
    #[default]
    Vertex,
    /// One selection for the entire message (1 byte — coarse).
    Matrix,
}

/// Outcome of one ReqEC-FP exchange.
#[derive(Clone, Debug)]
pub struct ReqEcOutcome {
    /// The embedding matrix the requester reconstructs and uses.
    pub reconstructed: Matrix,
    /// Fraction of vertices whose predicted approximation was selected —
    /// the Bit-Tuner's signal.
    pub proportion: f32,
    /// Bytes on the wire for this message.
    pub wire: u64,
    /// True when this exchange shipped exact embeddings (trend boundary).
    pub exact_sent: bool,
    /// Selector decision counts, indexed by [`SELECT_CPS`] / [`SELECT_PDT`]
    /// / [`SELECT_AVG`] (telemetry; all zero for boundary messages, which
    /// make no selection).
    pub selected: [u32; 3],
    /// L1 distance between [`Self::reconstructed`] and the exact rows,
    /// summed per row and then over rows in row order — the quantity the
    /// engine's `fp.recon_err_l1` gauge accumulates, carried out of the
    /// Selector pass that computes it anyway (0 for boundary messages).
    pub recon_l1: f32,
}

/// What one ReqEC-FP exchange reports beside the rows it reconstructs.
#[derive(Clone, Copy, Debug, Default)]
struct ReqEcReport {
    proportion: f32,
    wire: u64,
    exact_sent: bool,
    selected: [u32; 3],
    recon_l1: f32,
    /// L1 distance of the prediction `Ĥ_pdt` from the exact rows, summed
    /// like `recon_l1` — what the message costs in accuracy if EC-degrade
    /// replaces it (0 for boundary messages, which cannot be replaced).
    pdt_l1: f32,
}

/// The forward half of a link: the memory one (requester, owner, layer)
/// triple carries from one exchange to the next, with the parameters of the
/// policy that reads it. Built from the configured [`FpMode`] once, so a
/// mode's state exists on exactly the links of a run in that mode.
#[derive(Clone, Debug)]
pub(crate) enum FpLink {
    /// *Non-cp*: nothing to remember.
    Exact,
    /// *Cp-fp-B*: nothing to remember.
    Compressed { bits: u8 },
    /// *ReqEC-FP*: the trend group both ends hold.
    ReqEc {
        trend: TrendState,
        /// Predicted proportion of this epoch's message, until the
        /// Bit-Tuner takes it at epoch end.
        observed: Option<f32>,
        t_tr: usize,
        granularity: Granularity,
        /// Whether the Bit-Tuner reads this link: adaptive mode, and the
        /// last FP exchange of the epoch (Alg. 3 line 13: `l == L`).
        tuned: bool,
    },
    /// DistGNN-style delay: the requester's stale copy of the rows.
    Delayed { cache: Option<Matrix>, r: usize },
}

impl FpLink {
    /// The empty state of a link under `mode`; `last_layer` says the link
    /// belongs to the exchange feeding layer `L`.
    pub(crate) fn new(mode: FpMode, granularity: Granularity, last_layer: bool) -> Self {
        match mode {
            FpMode::Exact => Self::Exact,
            FpMode::Compressed { bits } => Self::Compressed { bits },
            FpMode::ReqEc { t_tr, adaptive, .. } => Self::ReqEc {
                trend: TrendState::default(),
                observed: None,
                t_tr,
                granularity,
                tuned: adaptive && last_layer,
            },
            FpMode::Delayed { r } => Self::Delayed { cache: None, r },
        }
    }

    /// Hands the pending Bit-Tuner observation over, if there is one.
    pub(crate) fn take_observation(&mut self) -> Option<f32> {
        let Self::ReqEc { observed, .. } = self else { return None };
        observed.take()
    }
}

impl Policy for FpLink {
    const CHANNEL: Channel = Channel::Forward;
    const WIRE_METRIC: MetricId = MetricId::FpWireBytes;

    /// `bits` is read by ReqEC only: plain compression keeps the configured
    /// width.
    fn respond(
        &mut self,
        source: &Matrix,
        rows: &[usize],
        buf: &mut MessageBuffers,
        reply: &mut [f32],
        bits: u8,
        t: usize,
        degradable: bool,
    ) -> Reply {
        let MessageBuffers { exact, codec } = buf;
        match self {
            Self::Exact => Reply::plain(copy_rows(source, rows, reply)),
            Self::Compressed { bits: configured } => {
                source.gather_rows_into(rows, exact);
                let wire = round_trip(exact, *configured, codec, reply);
                Reply { recon_l1: rows_l1_total(reply, exact), ..Reply::plain(wire) }
            }
            Self::ReqEc { trend, observed, t_tr, granularity, tuned } => {
                source.gather_rows_into(rows, exact);
                let out = reqec_step_into(trend, exact, bits, *t_tr, t, *granularity, codec, reply);
                if *tuned && !out.exact_sent {
                    *observed = Some(out.proportion);
                }
                Reply {
                    wire: out.wire,
                    recon_l1: out.recon_l1,
                    selected: Some(out.selected),
                    // Degrading is only safe for non-boundary messages:
                    // boundaries mutate the shared trend state, so losing
                    // one would desynchronize requester and responder.
                    fallback_l1: (degradable && !out.exact_sent).then_some(out.pdt_l1),
                }
            }
            Self::Delayed { cache, r } => {
                source.gather_rows_into(rows, exact);
                let wire = delayed_step_into(cache, exact, *r, t, reply);
                Reply { recon_l1: rows_l1_total(reply, exact), ..Reply::plain(wire) }
            }
        }
    }

    /// EC-degrade: overwrites `rows` with the zero-payload prediction
    /// `Ĥ_pdt = H_base + M_cr·k` the requester falls back to when the reply
    /// to a [`Self::respond`] that offered a `fallback_l1` is lost.
    fn degrade(&self, t: usize, rows: &mut [f32]) {
        if let Self::ReqEc { trend, .. } = self {
            trend.predict_into(t, rows);
        }
    }
}

/// Uncompressed response (`Non-cp`): ships raw `f32` rows. (A link owns the
/// rows it has just gathered and ships those without this copy.)
pub fn respond_exact(h_rows: &Matrix) -> (Matrix, u64) {
    (h_rows.clone(), codec::matrix_wire_size(h_rows) as u64)
}

/// Plain `B`-bit quantized response (`Cp-fp-B`).
///
/// The paper describes FP compression over a fixed `[0, 1]` domain (its
/// features are unit-normalized); hidden ReLU activations are not bounded
/// by 1, however, so — exactly as the paper already does for gradients
/// (Alg. 6 line 4) — the bucket range is computed per message and shipped
/// as two `f32`s. This keeps the error proportional to `range / 2^B`, the
/// scaling the paper's bit-sensitivity results (Fig. 6) rely on.
pub fn respond_compressed(h_rows: &Matrix, bits: u8) -> (Matrix, u64) {
    let mut reply = Matrix::zeros(h_rows.rows(), h_rows.cols());
    let wire = round_trip(h_rows, bits, &mut MessageBuffers::new().codec, reply.as_mut_slice());
    (reply, wire)
}

/// One ReqEC-FP exchange (Algorithms 3 and 4) at iteration `t`.
///
/// * At trend boundaries (`(t+1) % t_tr == 0`) — and at `t = 0` to
///   bootstrap — the responder ships the exact embeddings alone, and both
///   ends derive the changing-rate matrix `M_cr = (H_now − H_base)/T_tr`
///   from them and the `H_base` they hold ([`TrendState::absorb_boundary`]).
/// * Otherwise the responder builds the three candidates
///   (`Ĥ_cps`, `Ĥ_pdt`, `Ĥ_avg`), selects per vertex by L1 distance
///   (Eq. 10), and ships the 2-bit selector array plus the compressed rows
///   of the non-predicted vertices only.
pub fn reqec_step(
    state: &mut TrendState,
    h_rows: &Matrix,
    bits: u8,
    t_tr: usize,
    t: usize,
) -> ReqEcOutcome {
    reqec_step_with(state, h_rows, bits, t_tr, t, Granularity::Vertex)
}

/// [`reqec_step`] with an explicit Selector granularity.
pub fn reqec_step_with(
    state: &mut TrendState,
    h_rows: &Matrix,
    bits: u8,
    t_tr: usize,
    t: usize,
    granularity: Granularity,
) -> ReqEcOutcome {
    let mut reconstructed = Matrix::zeros(h_rows.rows(), h_rows.cols());
    let (codec, out) = (&mut MessageBuffers::new().codec, reconstructed.as_mut_slice());
    let report = reqec_step_into(state, h_rows, bits, t_tr, t, granularity, codec, out);
    ReqEcOutcome {
        reconstructed,
        proportion: report.proportion,
        wire: report.wire,
        exact_sent: report.exact_sent,
        selected: report.selected,
        recon_l1: report.recon_l1,
    }
}

/// [`reqec_step_with`] through a reused codec buffer: the packed candidate
/// in `codec`, the rows the requester reconstructs in `out` (`h_rows`'
/// size).
#[expect(clippy::too_many_arguments, reason = "the step's five parameters plus two buffers")]
fn reqec_step_into(
    state: &mut TrendState,
    h_rows: &Matrix,
    bits: u8,
    t_tr: usize,
    t: usize,
    granularity: Granularity,
    codec: &mut Quantized,
    out: &mut [f32],
) -> ReqEcReport {
    if h_rows.rows() == 0 {
        return ReqEcReport::default();
    }
    // Non-boundary steps read the live trend group; when the group has not
    // been bootstrapped yet (`base` is `None`) control falls through to the
    // boundary path below, which creates it.
    if !(t + 1).is_multiple_of(t_tr) {
        if let (Some(base), Some(m_cr)) = (&state.base, &state.m_cr) {
            let k = (t - state.base_t) as f32;
            return match granularity {
                Granularity::Vertex => reqec_vertex(base, m_cr, k, h_rows, bits, codec, out),
                _ => reqec_whole_matrix(base, m_cr, k, h_rows, bits, granularity, out),
            };
        }
    }

    // Trend boundary (or bootstrap): ship the exact embeddings alone; both
    // ends restart the group from them.
    state.absorb_boundary(h_rows, t);
    out.copy_from_slice(h_rows.as_slice());
    let wire = FpMessage::boundary_size(h_rows.len()) as u64;
    ReqEcReport { wire, exact_sent: true, ..ReqEcReport::default() }
}

/// The vertex-wise non-boundary exchange — the paper's choice and the
/// per-message hot path: `Ĥ_cps` is decoded straight into the output matrix
/// and a [`SelectorSweep`] rewrites the rows the Selector gives to another
/// candidate. No candidate matrix is materialised.
fn reqec_vertex(
    base: &Matrix,
    m_cr: &Matrix,
    k: f32,
    h_rows: &Matrix,
    bits: u8,
    codec: &mut Quantized,
    reconstructed: &mut [f32],
) -> ReqEcReport {
    let (rows, cols) = h_rows.shape();
    assert_eq!(base.shape(), h_rows.shape(), "trend group shape changed");
    assert_eq!(m_cr.shape(), h_rows.shape(), "trend group shape changed");
    round_trip(h_rows, bits, codec, reconstructed);
    let SelectorTotals { selected, recon_l1, pdt_l1 } =
        isa::dispatch(SelectorSweep { base, m_cr, k, h_rows, out: reconstructed });
    let predicted = selected[SELECT_PDT as usize] as usize;
    // Only the non-predicted vertices ship compressed rows.
    let non_pdt = rows - predicted;
    let payload = (non_pdt > 0).then_some((non_pdt * cols, bits));
    let wire = FpMessage::selected_size(rows, payload) as u64;
    let proportion = predicted as f32 / rows as f32;
    ReqEcReport { proportion, wire, exact_sent: false, selected, recon_l1, pdt_l1 }
}

/// The Selector (Eq. 10) over one message, as a [`Kernel`] — what
/// [`reqec_step`] dispatches at the best tier and the per-tier tests at each:
/// per row, the L1 distances of the three candidates from `h_rows`, the
/// argmin (first wins ties; a NaN distance never wins `<`, so a row with
/// nothing finite to compare falls to [`SELECT_CPS`]), and the row of `out`
/// rewritten in place unless `Ĥ_cps` won.
///
/// Each distance is summed in the lane order of the module header
/// ([`stats::row_l1_distance`]'s), and the arithmetic per element is that of
/// the multi-pass formulation (`Ĥ_pdt = H_base + M_cr·k` and
/// `Ĥ_avg = (Ĥ_pdt + Ĥ_cps)·½` as matrices, then
/// [`stats::rowwise_l1_distance`] per candidate), which the tests keep as
/// the reference: rows, decisions and sums equal it bit for bit. Everything
/// between the tier's entry point and the arithmetic is `#[inline(always)]`.
pub struct SelectorSweep<'a> {
    /// `H_base` of the link's trend group.
    pub base: &'a Matrix,
    /// `M_cr` of the link's trend group.
    pub m_cr: &'a Matrix,
    /// Iterations since the trend boundary.
    pub k: f32,
    /// The owner's exact rows.
    pub h_rows: &'a Matrix,
    /// `Ĥ_cps` on entry, the reconstruction on return (`h_rows`' size,
    /// row-major).
    pub out: &'a mut [f32],
}

/// What a [`SelectorSweep`] counted and summed, each sum over rows in row
/// order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectorTotals {
    /// Decisions, indexed by Selector code.
    pub selected: [u32; 3],
    /// `Σ_v` distance of the candidate chosen for `v`.
    pub recon_l1: f32,
    /// `Σ_v d_pdt[v]`: the error of answering with the prediction alone.
    pub pdt_l1: f32,
}

impl Kernel for SelectorSweep<'_> {
    type Output = SelectorTotals;

    #[inline(always)]
    fn run<I: Isa>(self) -> SelectorTotals {
        let Self { base, m_cr, k, h_rows, out } = self;
        let cols = h_rows.cols();
        assert_eq!(out.len(), h_rows.len(), "Selector output size");
        let mut totals = SelectorTotals { selected: [0; 3], recon_l1: 0.0, pdt_l1: 0.0 };
        for v in 0..h_rows.rows() {
            let (h, b, m) = (h_rows.row(v), base.row(v), m_cr.row(v));
            let out = &mut out[v * cols..(v + 1) * cols];
            let distances = selector_distances(h, b, m, out, k);
            let sid = stats::argmin(&distances);
            totals.selected[sid] += 1;
            totals.recon_l1 += distances[sid];
            totals.pdt_l1 += distances[SELECT_PDT as usize];
            match sid as u8 {
                SELECT_CPS => {}
                SELECT_PDT => {
                    for ((o, &b), &m) in out.iter_mut().zip(b).zip(m) {
                        *o = b + m * k;
                    }
                }
                _ => {
                    for ((o, &b), &m) in out.iter_mut().zip(b).zip(m) {
                        *o = (b + m * k + *o) * 0.5;
                    }
                }
            }
        }
        totals
    }
}

/// One row of the Selector: the distances of `Ĥ_cps` (`cps`), `Ĥ_pdt` and
/// `Ĥ_avg` from `h`, indexed by Selector code, all three accumulated in one
/// pass over the row in the lane order (see [`SelectorSweep`]).
#[inline(always)]
fn selector_distances(h: &[f32], b: &[f32], m: &[f32], cps: &[f32], k: f32) -> [f32; 3] {
    const LANES: usize = stats::L1_LANES;
    let full = h.len() / LANES * LANES;
    let ((h, h_tail), (b, b_tail)) = (h.split_at(full), b.split_at(full));
    let ((m, m_tail), (cps, cps_tail)) = (m.split_at(full), cps.split_at(full));
    let (mut d_cps, mut d_pdt, mut d_avg) = ([0.0f32; LANES], [0.0f32; LANES], [0.0f32; LANES]);
    let chunks = h.chunks_exact(LANES).zip(b.chunks_exact(LANES));
    for ((h, b), (m, c)) in chunks.zip(m.chunks_exact(LANES).zip(cps.chunks_exact(LANES))) {
        for u in 0..LANES {
            let pdt = b[u] + m[u] * k;
            let avg = (pdt + c[u]) * 0.5;
            d_cps[u] += (c[u] - h[u]).abs();
            d_pdt[u] += (pdt - h[u]).abs();
            d_avg[u] += (avg - h[u]).abs();
        }
    }
    // Indexed by Selector code.
    let mut distances =
        [stats::fold_l1_lanes(d_cps), stats::fold_l1_lanes(d_pdt), stats::fold_l1_lanes(d_avg)];
    for ((&h, &b), (&m, &c)) in h_tail.iter().zip(b_tail).zip(m_tail.iter().zip(cps_tail)) {
        let pdt = b + m * k;
        let avg = (pdt + c) * 0.5;
        distances[SELECT_CPS as usize] += (c - h).abs();
        distances[SELECT_PDT as usize] += (pdt - h).abs();
        distances[SELECT_AVG as usize] += (avg - h).abs();
    }
    distances
}

/// The element-wise and matrix-wise non-boundary exchanges (the
/// `selector_granularity` comparison; not on the default path): all three
/// candidates are built as whole matrices (Eqs. 7–9) and the Selector
/// chooses per coordinate or once per message.
fn reqec_whole_matrix(
    base: &Matrix,
    m_cr: &Matrix,
    k: f32,
    h_rows: &Matrix,
    bits: u8,
    granularity: Granularity,
    out: &mut [f32],
) -> ReqEcReport {
    let rows = h_rows.rows();
    let cols = h_rows.cols();
    let mut pdt = base.clone();
    ops::axpy(&mut pdt, m_cr, k);
    let q = Quantized::compress(h_rows, bits);
    let cps = q.decompress();
    let avg = ops::scale(&ops::add(&pdt, &cps), 0.5);

    let pdt_l1 = rowwise_l1_total(&pdt, h_rows);
    let mut selected = [0u32; 3];
    let (reconstructed, proportion, wire) = if granularity == Granularity::Element {
        // Per-coordinate selection: most accurate reconstruction, but
        // the selector array costs 2 bits per element and the payload
        // still packs codes for every non-predicted element.
        let (h, c, p, a) = (h_rows.as_slice(), cps.as_slice(), pdt.as_slice(), avg.as_slice());
        let mut data = Vec::with_capacity(h.len());
        for i in 0..h.len() {
            let dc = (c[i] - h[i]).abs();
            let dp = (p[i] - h[i]).abs();
            let da = (a[i] - h[i]).abs();
            data.push(if dp <= dc && dp <= da {
                selected[SELECT_PDT as usize] += 1;
                p[i]
            } else if dc <= da {
                selected[SELECT_CPS as usize] += 1;
                c[i]
            } else {
                selected[SELECT_AVG as usize] += 1;
                a[i]
            });
        }
        let predicted = selected[SELECT_PDT as usize] as usize;
        let non_pdt = h.len() - predicted;
        let payload = (non_pdt > 0).then_some((non_pdt, bits));
        let wire = FpMessage::selected_size(h.len(), payload) as u64;
        (Matrix::from_vec(rows, cols, data), predicted as f32 / h.len() as f32, wire)
    } else {
        // One selection for the whole message.
        let d_cps = stats::l1_norm(&ops::sub(&cps, h_rows));
        let d_pdt = stats::l1_norm(&ops::sub(&pdt, h_rows));
        let d_avg = stats::l1_norm(&ops::sub(&avg, h_rows));
        let sid = stats::argmin(&[d_cps, d_pdt, d_avg]) as u8;
        selected[sid as usize] = 1;
        let payload = (sid != SELECT_PDT).then_some((h_rows.len(), bits));
        let wire = FpMessage::matrix_selected_size(payload) as u64;
        match sid {
            SELECT_CPS => (cps, 0.0f32, wire),
            SELECT_PDT => (pdt, 1.0, wire),
            _ => (avg, 0.0, wire),
        }
    };
    let recon_l1 = rowwise_l1_total(&reconstructed, h_rows);
    out.copy_from_slice(reconstructed.as_slice());
    ReqEcReport { proportion, wire, exact_sent: false, selected, recon_l1, pdt_l1 }
}

/// `Σ_v Σ_i |a[v,i] − b[v,i]|`, each row summed by
/// [`stats::row_l1_distance`] and the rows then added in row order — the
/// reconstruction-error figure of a message whose preparation did not
/// already produce it, in the order the Selector sweep sums its own.
pub fn rowwise_l1_total(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "rowwise_l1_total shape mismatch");
    rows_l1_total(a.as_slice(), b)
}

/// [`rowwise_l1_total`] of `a`, `b`'s shape row-major, against `b`.
fn rows_l1_total(a: &[f32], b: &Matrix) -> f32 {
    assert_eq!(a.len(), b.len(), "rowwise_l1_total size mismatch");
    isa::dispatch(
        #[inline(always)]
        || rowwise_l1_total_kernel(a, b),
    )
}

#[inline(always)]
fn rowwise_l1_total_kernel(a: &[f32], b: &Matrix) -> f32 {
    let mut total = 0.0f32;
    for (ra, rb) in a.chunks_exact(b.cols().max(1)).zip(b.rows_iter()) {
        total += stats::row_l1_distance(ra, rb);
    }
    total
}

/// DistGNN-style delayed partial aggregation: each epoch only the rows with
/// `(row + t) % r == 0` are refreshed (uncompressed); the requester keeps
/// using its stale cache for the rest. The first call populates the cache
/// in full.
pub fn delayed_step(
    cache: &mut Option<Matrix>,
    h_rows: &Matrix,
    r: usize,
    t: usize,
) -> (Matrix, u64) {
    let mut out = Matrix::zeros(h_rows.rows(), h_rows.cols());
    let wire = delayed_step_into(cache, h_rows, r, t, out.as_mut_slice());
    (out, wire)
}

/// [`delayed_step`] with the requester's view of the rows copied into `out`
/// (`h_rows`' size).
fn delayed_step_into(
    cache: &mut Option<Matrix>,
    h_rows: &Matrix,
    r: usize,
    t: usize,
    out: &mut [f32],
) -> u64 {
    let rows = h_rows.rows();
    if rows == 0 {
        return 0;
    }
    match cache {
        None => {
            *cache = Some(h_rows.clone());
            out.copy_from_slice(h_rows.as_slice());
            codec::matrix_wire_size(h_rows) as u64
        }
        Some(cached) => {
            let mut refreshed = 0usize;
            for v in 0..rows {
                if (v + t).is_multiple_of(r) {
                    cached.set_row(v, h_rows.row(v));
                    refreshed += 1;
                }
            }
            out.copy_from_slice(cached.as_slice());
            FpMessage::indexed_rows_size(refreshed, h_rows.cols()) as u64
        }
    }
}

/// The adaptive Bit-Tuner (Alg. 3 lines 13–18): doubles `B` (≤ 16) when
/// predicted embeddings exceed 60 %, halves it (≥ 1) below 40 %.
pub fn tune_bits(bits: u8, proportion: f32) -> u8 {
    if proportion > 0.6 && bits < 16 {
        bits * 2
    } else if proportion < 0.4 && bits > 1 {
        bits / 2
    } else {
        bits
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rows(vals: &[[f32; 2]]) -> Matrix {
        Matrix::from_rows(&vals.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn exact_response_round_trips() {
        let h = rows(&[[0.1, 0.9], [0.4, 0.2]]);
        let (m, wire) = respond_exact(&h);
        assert_eq!(m, h);
        assert_eq!(wire, 8 + 16);
    }

    #[test]
    fn compressed_response_is_smaller_and_close() {
        let h = Matrix::from_fn(32, 16, |r, c| ((r + c) as f32 * 0.37).fract());
        let (exact, exact_wire) = respond_exact(&h);
        let (dec, wire) = respond_compressed(&h, 4);
        assert!(wire < exact_wire / 4);
        assert!(stats::l1_norm(&ops::sub(&dec, &exact)) / h.len() as f32 <= 0.05);
    }

    #[test]
    fn first_reqec_step_bootstraps_with_exact() {
        let mut st = TrendState::default();
        let h = rows(&[[0.5, 0.5]]);
        let out = reqec_step(&mut st, &h, 2, 5, 0);
        assert!(out.exact_sent);
        assert_eq!(out.reconstructed, h);
    }

    #[test]
    fn boundary_updates_changing_rate() {
        let mut st = TrendState::default();
        let h0 = rows(&[[0.0, 0.0]]);
        reqec_step(&mut st, &h0, 2, 5, 0);
        // Boundary at t=4, base captured at t=0 → M_cr = (h4 - h0)/4.
        let h4 = rows(&[[1.0, 0.5]]);
        let out = reqec_step(&mut st, &h4, 2, 5, 4);
        assert!(out.exact_sent);
        let mcr = st.m_cr.as_ref().unwrap();
        assert!((mcr.get(0, 0) - 0.25).abs() < 1e-6);
        assert!((mcr.get(0, 1) - 0.125).abs() < 1e-6);
    }

    #[test]
    fn prediction_wins_for_linear_trends() {
        // Embeddings evolving linearly are predicted almost exactly, so the
        // Selector should pick PDT and ship (nearly) nothing.
        let mut st = TrendState::default();
        let t_tr = 5;
        let at = |t: usize| Matrix::from_fn(4, 3, |r, c| 0.1 * t as f32 + 0.01 * (r + c) as f32);
        reqec_step(&mut st, &at(0), 1, t_tr, 0);
        let out4 = reqec_step(&mut st, &at(4), 1, t_tr, 4); // boundary: sets m_cr
        assert!(out4.exact_sent);
        let out5 = reqec_step(&mut st, &at(5), 1, t_tr, 5);
        assert!(!out5.exact_sent);
        assert!(out5.proportion > 0.9, "proportion {}", out5.proportion);
        assert!(out5.reconstructed.approx_eq(&at(5), 1e-4));
    }

    #[test]
    fn compressed_candidate_wins_for_erratic_changes() {
        let mut st = TrendState::default();
        reqec_step(&mut st, &rows(&[[0.0, 0.0]]), 8, 10, 0);
        // A jump the linear trend cannot see; 8-bit quantization is close.
        let h = rows(&[[0.9, 0.1]]);
        let out = reqec_step(&mut st, &h, 8, 10, 1);
        assert!(out.proportion < 0.5);
        assert!(out.reconstructed.approx_eq(&h, 0.01));
    }

    #[test]
    fn reconstruction_error_bounded_by_compression_error() {
        // The Selector can only improve on plain compression.
        let mut st = TrendState::default();
        let h_seq: Vec<Matrix> = (0..6)
            .map(|t| Matrix::from_fn(8, 4, |r, c| ((t * 13 + r * 7 + c) as f32 * 0.11).fract()))
            .collect();
        for (t, h) in h_seq.iter().enumerate() {
            let out = reqec_step(&mut st, h, 2, 4, t);
            if !out.exact_sent {
                let (plain, _) = respond_compressed(h, 2);
                let ec_err = stats::l1_norm(&ops::sub(&out.reconstructed, h));
                let plain_err = stats::l1_norm(&ops::sub(&plain, h));
                assert!(ec_err <= plain_err + 1e-5, "t={t}: {ec_err} > {plain_err}");
            }
        }
    }

    #[test]
    fn predicted_rows_cost_no_payload() {
        let mut st = TrendState::default();
        let at = |t: usize| Matrix::from_fn(16, 8, |_, c| 0.05 * t as f32 + 0.02 * c as f32);
        reqec_step(&mut st, &at(0), 4, 5, 0);
        reqec_step(&mut st, &at(4), 4, 5, 4);
        let out = reqec_step(&mut st, &at(5), 4, 5, 5);
        assert!((out.proportion - 1.0).abs() < 1e-6);
        // Selector and proportion only — no quantized payload.
        assert_eq!(out.wire, FpMessage::selected_size(16, None) as u64);
    }

    #[test]
    fn predict_matches_the_pdt_candidate() {
        let mut st = TrendState::default();
        assert!(st.predict(0).is_none(), "no prediction before the bootstrap");
        let at = |t: usize| Matrix::from_fn(4, 3, |r, c| 0.1 * t as f32 + 0.01 * (r + c) as f32);
        reqec_step(&mut st, &at(0), 1, 5, 0);
        reqec_step(&mut st, &at(4), 1, 5, 4);
        // Linear trend ⇒ the prediction at t = 6 is (nearly) exact, and it
        // must agree with what the Selector would build internally.
        let pdt = st.predict(6).unwrap();
        assert!(pdt.approx_eq(&at(6), 1e-4));
        // A clone — what a snapshot holds — predicts the same.
        assert_eq!(st.clone().predict(6).unwrap(), pdt);
    }

    #[test]
    fn selector_counts_cover_every_vertex() {
        let mut st = TrendState::default();
        let at =
            |t: usize| Matrix::from_fn(8, 4, |r, c| ((t * 13 + r * 7 + c) as f32 * 0.11).fract());
        let boundary = reqec_step(&mut st, &at(0), 2, 4, 0);
        assert_eq!(boundary.selected, [0; 3], "boundaries make no selection");
        let out = reqec_step(&mut st, &at(1), 2, 4, 1);
        assert_eq!(out.selected.iter().sum::<u32>(), 8, "one decision per vertex");
        assert_eq!(out.selected[SELECT_PDT as usize] as f32 / 8.0, out.proportion);
    }

    #[test]
    fn delayed_first_call_ships_everything() {
        let mut cache = None;
        let h = rows(&[[1.0, 2.0], [3.0, 4.0]]);
        let (m, wire) = delayed_step(&mut cache, &h, 5, 0);
        assert_eq!(m, h);
        assert_eq!(wire, codec::matrix_wire_size(&h) as u64);
    }

    #[test]
    fn delayed_refreshes_one_in_r_rows() {
        let mut cache = None;
        let h0 = Matrix::zeros(10, 2);
        delayed_step(&mut cache, &h0, 5, 0);
        let h1 = Matrix::filled(10, 2, 1.0);
        let (m, wire) = delayed_step(&mut cache, &h1, 5, 1);
        // Rows with (v + 1) % 5 == 0 → v ∈ {4, 9} refreshed.
        let refreshed: Vec<usize> = (0..10).filter(|v| m.row(*v)[0] == 1.0).collect();
        assert_eq!(refreshed, vec![4, 9]);
        assert_eq!(wire, FpMessage::indexed_rows_size(2, 2) as u64);
    }

    #[test]
    fn delayed_converges_to_fresh_after_r_epochs() {
        let mut cache = None;
        let h = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32);
        delayed_step(&mut cache, &Matrix::zeros(6, 2), 3, 0);
        for t in 1..=3 {
            delayed_step(&mut cache, &h, 3, t);
        }
        assert_eq!(cache.unwrap(), h);
    }

    #[test]
    fn bit_tuner_thresholds() {
        assert_eq!(tune_bits(2, 0.7), 4);
        assert_eq!(tune_bits(16, 0.9), 16); // capped
        assert_eq!(tune_bits(4, 0.3), 2);
        assert_eq!(tune_bits(1, 0.1), 1); // floored
        assert_eq!(tune_bits(8, 0.5), 8); // dead zone
    }

    #[test]
    fn bit_tuner_stays_in_paper_set() {
        let paper_set = [1u8, 2, 4, 8, 16];
        for &b in &paper_set {
            assert!(paper_set.contains(&tune_bits(b, 0.9)));
            assert!(paper_set.contains(&tune_bits(b, 0.1)));
        }
    }

    #[test]
    fn element_granularity_is_most_accurate() {
        // Element-wise selection can mix candidates within one row, so its
        // reconstruction error is ≤ the vertex-wise one.
        let mut st_v = TrendState::default();
        let mut st_e = TrendState::default();
        let at =
            |t: usize| Matrix::from_fn(8, 6, |r, c| ((t * 13 + r * 7 + c * 3) as f32 * 0.17).sin());
        reqec_step_with(&mut st_v, &at(0), 1, 5, 0, Granularity::Vertex);
        reqec_step_with(&mut st_e, &at(0), 1, 5, 0, Granularity::Element);
        for t in 1..4 {
            let h = at(t);
            let v = reqec_step_with(&mut st_v, &h, 1, 5, t, Granularity::Vertex);
            let e = reqec_step_with(&mut st_e, &h, 1, 5, t, Granularity::Element);
            let err = |m: &Matrix| stats::l1_norm(&ops::sub(m, &h));
            assert!(
                err(&e.reconstructed) <= err(&v.reconstructed) + 1e-5,
                "t={t}: element {} > vertex {}",
                err(&e.reconstructed),
                err(&v.reconstructed)
            );
        }
    }

    #[test]
    fn matrix_granularity_has_tiny_selector_cost() {
        let mut st = TrendState::default();
        let at = |t: usize| Matrix::from_fn(32, 8, |_, c| 0.05 * t as f32 + 0.02 * c as f32);
        reqec_step_with(&mut st, &at(0), 4, 5, 0, Granularity::Matrix);
        reqec_step_with(&mut st, &at(4), 4, 5, 4, Granularity::Matrix);
        let out = reqec_step_with(&mut st, &at(5), 4, 5, 5, Granularity::Matrix);
        // Linear trend → the whole matrix selects PDT → 5 bytes total.
        assert!((out.proportion - 1.0).abs() < 1e-6);
        assert_eq!(out.wire, 5);
    }

    #[test]
    fn vertex_granularity_beats_matrix_on_mixed_rows() {
        // Half the rows follow the trend, half jump erratically: vertex-wise
        // selection adapts per row, matrix-wise cannot.
        let mut st_v = TrendState::default();
        let mut st_m = TrendState::default();
        let base = Matrix::from_fn(8, 4, |r, c| 0.1 * (r + c) as f32);
        reqec_step_with(&mut st_v, &base, 1, 10, 0, Granularity::Vertex);
        reqec_step_with(&mut st_m, &base, 1, 10, 0, Granularity::Matrix);
        let h = Matrix::from_fn(8, 4, |r, c| {
            if r < 4 {
                0.1 * (r + c) as f32
            } else {
                ((r * 5 + c) as f32 * 0.77).sin()
            }
        });
        let v = reqec_step_with(&mut st_v, &h, 1, 10, 1, Granularity::Vertex);
        let m = reqec_step_with(&mut st_m, &h, 1, 10, 1, Granularity::Matrix);
        let err = |x: &Matrix| stats::l1_norm(&ops::sub(x, &h));
        assert!(err(&v.reconstructed) <= err(&m.reconstructed) + 1e-5);
    }

    #[test]
    fn empty_dep_set_is_free() {
        let mut st = TrendState::default();
        let h = Matrix::zeros(0, 4);
        let out = reqec_step(&mut st, &h, 2, 5, 3);
        assert_eq!(out.wire, 0);
        let (_, wire) = respond_compressed(&h, 2);
        assert_eq!(wire, 0);
    }

    /// The lane order of every L1 distance in this workspace, spelled out
    /// with plain indexing: lane `i % 16` takes column `i` of the full
    /// 16-column chunks in ascending order, the sixteen lanes fold
    /// `+8`, `+4`, `(s0 + s2) + (s1 + s3)`, and the tail columns are then
    /// added in ascending order.
    fn row_l1_lanes_reference(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let full = a.len() / 16 * 16;
        let mut lanes = [0.0f32; 16];
        for i in 0..full {
            lanes[i % 16] += (a[i] - b[i]).abs();
        }
        let mut eight = [0.0f32; 8];
        for u in 0..8 {
            eight[u] = lanes[u] + lanes[u + 8];
        }
        let mut four = [0.0f32; 4];
        for u in 0..4 {
            four[u] = eight[u] + eight[u + 4];
        }
        let mut distance = (four[0] + four[2]) + (four[1] + four[3]);
        for i in full..a.len() {
            distance += (a[i] - b[i]).abs();
        }
        distance
    }

    fn rowwise_l1_lanes_reference(a: &Matrix, b: &Matrix) -> Vec<f32> {
        (0..a.rows()).map(|v| row_l1_lanes_reference(a.row(v), b.row(v))).collect()
    }

    /// The multi-pass formulation of [`reqec_step`]: every candidate a fresh
    /// matrix (clone + `axpy`, `compress`/`decompress`, `add` + `scale`),
    /// three row-wise distance sweeps in the lane order of
    /// [`row_l1_lanes_reference`], a `set_row` copy per vertex,
    /// `scale(&sub(..))` at boundaries and a separate distance sweep for the
    /// reconstruction error.
    fn reqec_step_reference(
        state: &mut TrendState,
        h_rows: &Matrix,
        bits: u8,
        t_tr: usize,
        t: usize,
    ) -> ReqEcOutcome {
        let (rows, cols) = h_rows.shape();
        if !(t + 1).is_multiple_of(t_tr) {
            if let (Some(base), Some(m_cr)) = (&state.base, &state.m_cr) {
                let k = (t - state.base_t) as f32;
                let mut pdt = base.clone();
                ops::axpy(&mut pdt, m_cr, k);
                let cps = Quantized::compress(h_rows, bits).decompress();
                let avg = ops::scale(&ops::add(&pdt, &cps), 0.5);
                let d_cps = rowwise_l1_lanes_reference(&cps, h_rows);
                let d_pdt = rowwise_l1_lanes_reference(&pdt, h_rows);
                let d_avg = rowwise_l1_lanes_reference(&avg, h_rows);
                let mut reconstructed = Matrix::zeros(rows, cols);
                let mut selected = [0u32; 3];
                for v in 0..rows {
                    let sid = stats::argmin(&[d_cps[v], d_pdt[v], d_avg[v]]) as u8;
                    selected[sid as usize] += 1;
                    let row = match sid {
                        SELECT_CPS => cps.row(v),
                        SELECT_PDT => pdt.row(v),
                        _ => avg.row(v),
                    };
                    reconstructed.set_row(v, row);
                }
                let predicted = selected[SELECT_PDT as usize] as usize;
                let non_pdt = rows - predicted;
                let payload = (non_pdt > 0).then_some((non_pdt * cols, bits));
                let recon_l1 = rowwise_l1_lanes_reference(&reconstructed, h_rows).iter().sum();
                return ReqEcOutcome {
                    reconstructed,
                    proportion: predicted as f32 / rows as f32,
                    wire: FpMessage::selected_size(rows, payload) as u64,
                    exact_sent: false,
                    selected,
                    recon_l1,
                };
            }
        }
        let m_cr = match &state.base {
            Some(base) => {
                let elapsed = (t - state.base_t).max(1) as f32;
                ops::scale(&ops::sub(h_rows, base), 1.0 / elapsed)
            }
            None => Matrix::zeros(rows, cols),
        };
        let wire = FpMessage::boundary_size(h_rows.len()) as u64;
        state.base = Some(h_rows.clone());
        state.m_cr = Some(m_cr);
        state.base_t = t;
        ReqEcOutcome {
            reconstructed: h_rows.clone(),
            proportion: 0.0,
            wire,
            exact_sent: true,
            selected: [0; 3],
            recon_l1: 0.0,
        }
    }

    /// Bit pattern with every NaN folded to one value: which payload a
    /// NaN-with-NaN addition keeps is the compiler's choice of operand
    /// order, not part of the contract.
    pub(crate) fn canonical_bits(x: f32) -> u32 {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    pub(crate) fn bit_patterns(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|&x| canonical_bits(x)).collect()
    }

    /// Runs the fused step and the reference side by side over `steps` and
    /// asserts every output and both trend states equal bit for bit;
    /// returns the Selector totals so callers can check coverage.
    fn assert_fused_equals_reference(steps: &[Matrix], bits: u8, t_tr: usize) -> [u32; 3] {
        let (mut fused, mut reference) = (TrendState::default(), TrendState::default());
        let mut totals = [0u32; 3];
        for (t, h) in steps.iter().enumerate() {
            let got = reqec_step(&mut fused, h, bits, t_tr, t);
            let want = reqec_step_reference(&mut reference, h, bits, t_tr, t);
            assert_eq!(
                bit_patterns(&got.reconstructed),
                bit_patterns(&want.reconstructed),
                "t={t}"
            );
            assert_eq!(got.selected, want.selected, "t={t}");
            assert_eq!(got.proportion.to_bits(), want.proportion.to_bits(), "t={t}");
            assert_eq!(got.wire, want.wire, "t={t}");
            assert_eq!(got.exact_sent, want.exact_sent, "t={t}");
            assert_eq!(canonical_bits(got.recon_l1), canonical_bits(want.recon_l1), "t={t}");
            for (a, b) in [(&fused.base, &reference.base), (&fused.m_cr, &reference.m_cr)] {
                assert_eq!(a.as_ref().map(bit_patterns), b.as_ref().map(bit_patterns), "t={t}");
            }
            assert_eq!(fused.base_t, reference.base_t);
            for (acc, c) in totals.iter_mut().zip(got.selected) {
                *acc += c;
            }
        }
        totals
    }

    /// Embeddings that drift linearly per row at a row-specific rate, plus
    /// row-specific noise: quiet rows are predicted, noisy rows compress,
    /// the ones in between average.
    fn drifting_rows(rows: usize, cols: usize, steps: usize, seed: u64, noise: f32) -> Vec<Matrix> {
        let start = ec_tensor::init::uniform(rows, cols, 0.0, 1.0, seed);
        let rate = ec_tensor::init::uniform(rows, cols, -0.05, 0.05, seed ^ 0xA5A5);
        (0..steps)
            .map(|t| {
                let jitter =
                    ec_tensor::init::uniform(rows, cols, -1.0, 1.0, seed + 7 * t as u64 + 1);
                Matrix::from_fn(rows, cols, |r, c| {
                    let amp = noise * (r % 4) as f32 / 3.0;
                    (start.get(r, c) + rate.get(r, c) * t as f32 + amp * jitter.get(r, c)).max(0.0)
                })
            })
            .collect()
    }

    #[test]
    fn fused_vertex_pass_equals_the_multi_pass_reference() {
        // Three trend groups at every Bit-Tuner width, on rows of two full
        // lane chunks and a tail; all three candidates must actually be
        // chosen somewhere or the comparison is hollow.
        let mut totals = [0u32; 3];
        for bits in [1u8, 2, 4, 8, 16] {
            let steps = drifting_rows(24, 41, 13, bits as u64, 0.08);
            for (acc, c) in totals.iter_mut().zip(assert_fused_equals_reference(&steps, bits, 4)) {
                *acc += c;
            }
        }
        assert!(totals.iter().all(|&c| c > 0), "Selector coverage {totals:?}");

        // Degenerate inputs: one vertex, one column, exactly one chunk,
        // T_tr = 1 (all boundaries), an all-equal message, and rows with no
        // finite entry or a stray infinity in a lane and in the tail
        // (distances go NaN / Inf; CPS wins NaN ties).
        assert_fused_equals_reference(&drifting_rows(1, 1, 6, 3, 0.1), 1, 3);
        assert_fused_equals_reference(&drifting_rows(5, 1, 6, 4, 0.1), 16, 2);
        assert_fused_equals_reference(&drifting_rows(7, 16, 6, 8, 0.1), 2, 3);
        assert_fused_equals_reference(&drifting_rows(3, 7, 4, 5, 0.1), 4, 1);
        assert_fused_equals_reference(&vec![Matrix::filled(4, 5, 0.25); 5], 2, 3);
        let mut hostile = drifting_rows(6, 21, 7, 6, 0.05);
        for h in hostile.iter_mut().skip(2) {
            h.row_mut(1).fill(f32::NAN);
            h.set(3, 4, f32::INFINITY);
            h.set(4, 0, f32::NEG_INFINITY);
            h.set(5, 19, f32::INFINITY);
        }
        assert_fused_equals_reference(&hostile, 4, 5);
    }

    /// The Selector over one message in the multi-pass formulation: the
    /// candidates as whole matrices, [`row_l1_lanes_reference`] per candidate
    /// and row, first-wins argmin.
    fn selector_reference(
        base: &Matrix,
        m_cr: &Matrix,
        k: f32,
        h: &Matrix,
        cps: &Matrix,
    ) -> (Matrix, SelectorTotals) {
        let mut pdt = base.clone();
        ops::axpy(&mut pdt, m_cr, k);
        let avg = ops::scale(&ops::add(&pdt, cps), 0.5);
        let candidates = [cps, &pdt, &avg];
        let mut out = cps.clone();
        let mut totals = SelectorTotals { selected: [0; 3], recon_l1: 0.0, pdt_l1: 0.0 };
        for v in 0..h.rows() {
            let distances = candidates.map(|m| row_l1_lanes_reference(m.row(v), h.row(v)));
            let mut sid = 0;
            for (candidate, distance) in distances.iter().enumerate().skip(1) {
                if *distance < distances[sid] {
                    sid = candidate;
                }
            }
            totals.selected[sid] += 1;
            totals.recon_l1 += distances[sid];
            totals.pdt_l1 += distances[SELECT_PDT as usize];
            out.set_row(v, candidates[sid].row(v));
        }
        (out, totals)
    }

    fn totals_bits(t: SelectorTotals) -> ([u32; 3], u32, u32) {
        (t.selected, canonical_bits(t.recon_l1), canonical_bits(t.pdt_l1))
    }

    /// Non-finite values through the sweep, each with its documented result
    /// at every tier: a distance that is NaN never wins `<`, so a row with a
    /// NaN anywhere the three candidates all see it (the exact row, here)
    /// keeps `Ĥ_cps`; an infinity there makes the three distances tie at
    /// `+Inf`, and the first candidate — `Ĥ_cps` again — wins the tie.
    #[test]
    fn non_finite_rows_fall_to_the_compressed_candidate_at_every_tier() {
        let (rows, cols, k) = (6usize, 37usize, 2.0f32);
        let base = ec_tensor::init::uniform(rows, cols, 0.0, 1.0, 11);
        let m_cr = ec_tensor::init::uniform(rows, cols, -0.02, 0.02, 12);
        // The trend continues exactly: without the planted values every row
        // is predicted.
        let mut h = base.clone();
        ops::axpy(&mut h, &m_cr, k);
        h.set(1, 3, f32::NAN); // in a lane
        h.set(2, 35, f32::NAN); // in the tail
        h.set(3, 20, f32::INFINITY);
        h.set(4, 36, f32::NEG_INFINITY);
        let cps = Quantized::compress(&h, 4).decompress();
        let (want, want_totals) = selector_reference(&base, &m_cr, k, &h, &cps);
        assert_eq!(want_totals.selected, [4, 2, 0], "rows 0 and 5 are predicted");
        assert!(want_totals.recon_l1.is_nan() && want_totals.pdt_l1.is_nan());
        for v in 1..5 {
            assert_eq!(
                bit_patterns(&want).chunks(cols).nth(v),
                bit_patterns(&cps).chunks(cols).nth(v)
            );
        }
        for tier in isa::Tier::supported() {
            let mut out = cps.clone();
            let sweep =
                SelectorSweep { base: &base, m_cr: &m_cr, k, h_rows: &h, out: out.as_mut_slice() };
            let totals = isa::dispatch_on(tier, sweep);
            assert_eq!(totals_bits(totals), totals_bits(want_totals), "{tier}");
            assert_eq!(bit_patterns(&out), bit_patterns(&want), "{tier}");
        }
    }

    /// What EC-degrade is told a lost reply costs is what the prediction it
    /// substitutes measures — `Σ_v d_pdt[v]` out of the sweep equals
    /// [`rowwise_l1_total`] of [`TrendState::predict`] bit for bit — and
    /// `degrade` puts exactly that prediction in the reply's place.
    #[test]
    fn the_sweep_prices_the_fallback_the_link_degrades_to() {
        let steps = drifting_rows(9, 47, 8, 21, 0.08);
        let mut link = FpLink::new(
            FpMode::ReqEc { bits: 4, t_tr: 5, adaptive: false },
            Granularity::Vertex,
            true,
        );
        let mut buf = MessageBuffers::new();
        let every_row: Vec<usize> = (0..9).collect();
        let mut out = Matrix::zeros(9, 47);
        let mut offered = 0;
        for (t, h) in steps.iter().enumerate() {
            let reply = link.respond(h, &every_row, &mut buf, out.as_mut_slice(), 4, t, true);
            let FpLink::ReqEc { trend, .. } = &link else { unreachable!() };
            let boundary = t == 0 || (t + 1) % 5 == 0;
            assert_eq!(reply.fallback_l1.is_none(), boundary, "t={t}");
            if let Some(fallback_l1) = reply.fallback_l1 {
                let pdt = trend.predict(t).expect("a non-boundary step has a trend group");
                assert_eq!(fallback_l1.to_bits(), rowwise_l1_total(&pdt, h).to_bits(), "t={t}");
                link.degrade(t, out.as_mut_slice());
                assert_eq!(bit_patterns(&out), bit_patterns(&pdt), "t={t}");
                offered += 1;
            }
        }
        assert_eq!(offered, 6);
        // Without the policy nothing is offered.
        let reply = link.respond(&steps[1], &every_row, &mut buf, out.as_mut_slice(), 4, 8, false);
        assert!(reply.fallback_l1.is_none());
    }

    proptest::proptest! {
        /// The dispatched sweep, `stats::rowwise_l1_distance` and
        /// `rowwise_l1_total` against the plain-indexing references, bit for
        /// bit at every tier the host supports: rows narrower than a chunk,
        /// exact chunks, 41/47-wide rows and tails, empty messages, every
        /// Bit-Tuner width, and NaN / ±Inf planted in `H`, `H_base` or
        /// `M_cr` (so single candidates go non-finite too).
        #[test]
        fn dispatched_sweep_equals_the_lane_reference_at_every_tier(
            rows in 0usize..=9,
            cols in 1usize..=80,
            width in 0usize..5,
            k in 1usize..6,
            seed in proptest::prelude::any::<u64>(),
            noise in 0.0f32..0.3,
            planted in proptest::collection::vec((0usize..3, 0usize..720, 0usize..3), 0..4),
        ) {
            let mut operands = [
                drifting_rows(rows, cols, 1, seed, noise).remove(0),
                ec_tensor::init::uniform(rows, cols, 0.0, 1.0, seed ^ 0x55),
                ec_tensor::init::uniform(rows, cols, -0.05, 0.05, seed ^ 0xAA),
            ];
            for (which, at, value) in planted {
                if rows > 0 {
                    let value = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][value];
                    operands[which].as_mut_slice()[at % (rows * cols)] = value;
                }
            }
            let [h, base, m_cr] = operands;
            let k = k as f32;
            let cps = Quantized::compress(&h, [1u8, 2, 4, 8, 16][width]).decompress();
            let (want, want_totals) = selector_reference(&base, &m_cr, k, &h, &cps);
            let want_rows = rowwise_l1_lanes_reference(&cps, &h);
            let mut want_total = 0.0f32;
            for d in &want_rows {
                want_total += d;
            }
            let row_bits = |d: &[f32]| d.iter().map(|&x| canonical_bits(x)).collect::<Vec<_>>();
            proptest::prop_assert_eq!(
                row_bits(&stats::rowwise_l1_distance(&cps, &h)),
                row_bits(&want_rows)
            );
            for tier in isa::Tier::supported() {
                let mut out = cps.clone();
                let sweep = SelectorSweep { base: &base, m_cr: &m_cr, k, h_rows: &h, out: out.as_mut_slice() };
                let totals = isa::dispatch_on(tier, sweep);
                proptest::prop_assert_eq!(totals_bits(totals), totals_bits(want_totals), "{}", tier);
                proptest::prop_assert_eq!(bit_patterns(&out), bit_patterns(&want), "{}", tier);
                let total = isa::dispatch_on(
                    tier,
                    #[inline(always)]
                    || rowwise_l1_total_kernel(cps.as_slice(), &h),
                );
                proptest::prop_assert_eq!(canonical_bits(total), canonical_bits(want_total), "{}", tier);
            }
        }

        #[test]
        fn fused_vertex_pass_equals_the_reference_on_drawn_sequences(
            rows in 1usize..14,
            cols in 1usize..70,
            bits in 1u8..=16,
            t_tr in 1usize..7,
            steps in 2usize..16,
            seed in proptest::prelude::any::<u64>(),
            noise in 0.0f32..0.3,
        ) {
            assert_fused_equals_reference(&drifting_rows(rows, cols, steps, seed, noise), bits, t_tr);
        }
    }
}
