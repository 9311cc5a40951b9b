//! Backward-pass message preparation: plain quantization and **ResEC-BP**
//! (Algorithms 5–6, Eqs. 11–12).
//!
//! ResEC-BP is responding-end error feedback: the quantization residual of
//! iteration `t` is added to the gradient rows before they are compressed
//! at iteration `t+1`, so the error the requester accumulates stays bounded
//! (Theorem 1) instead of compounding.
//!
//! What a link keeps between exchanges, and which of the functions below
//! answers on it, is [`BpLink`]: one variant per [`BpMode`], built when the
//! engine's link table is.
//!
//! "`G`" below is whatever the backward exchange of the link's layer ships:
//! `G^l`, or `Q = G^l·(W^{l-1})ᵀ` where that is narrower, at a layer that
//! widens (`TrainingConfig::ships_transformed`). At a `Q` layer the residual
//! `δ` is a `Q`-space matrix, which moves with `W` as well as with `G`.
//! Where the forward exchange of the same layer ships `H`, the engine takes
//! the layer's weight gradient from its forward aggregate, so no message
//! answered here reaches it; it still reaches `G^{l-1}`.

use crate::config::BpMode;
use crate::link::{copy_rows, round_trip, MessageBuffers, Policy, Reply};
use ec_comm::codec;
use ec_comm::stats::Channel;
use ec_compress::Quantized;
use ec_tensor::{ops, Matrix};
use ec_trace::MetricId;

/// Residual memory for one (responder → requester, layer) pair.
#[derive(Clone, Debug, Default)]
pub struct ResidualState {
    /// `δ^{l,t-1}` — zeros before the first exchange.
    residual: Option<Matrix>,
}

impl ResidualState {
    /// Squared L2 norm of the current residual (Theorem-1 tracking).
    pub fn residual_norm_sq(&self) -> f32 {
        self.residual.as_ref().map_or(0.0, ec_tensor::stats::l2_norm_sq)
    }

    /// The residual matrix, for checkpointing.
    pub fn residual(&self) -> Option<&Matrix> {
        self.residual.as_ref()
    }
}

/// The backward half of a link: the responder's memory for one (requester,
/// owner, layer) triple, with the parameters of the codec that reads it.
/// Built from the configured [`BpMode`] once, so a residual exists on
/// exactly the links of a run with error feedback.
#[derive(Clone, Debug)]
pub(crate) enum BpLink {
    /// Raw gradients; nothing to remember.
    Exact,
    /// *Cp-bp-B*: nothing to remember.
    Compressed { bits: u8 },
    /// *ResEC-BP*: the quantization residual `δ`.
    ResEc { delta: ResidualState, bits: u8 },
    /// Top-k with memory: the sparsification residual.
    TopkEc { delta: ResidualState, ratio: f32 },
}

impl BpLink {
    /// The empty state of a link under `mode`.
    pub(crate) fn new(mode: BpMode) -> Self {
        match mode {
            BpMode::Exact => Self::Exact,
            BpMode::Compressed { bits } => Self::Compressed { bits },
            BpMode::ResEc { bits } => Self::ResEc { delta: ResidualState::default(), bits },
            BpMode::TopkEc { ratio } => Self::TopkEc { delta: ResidualState::default(), ratio },
        }
    }

    /// `‖δ‖²` once the link has answered under error feedback, else `None`.
    pub(crate) fn residual_norm_sq(&self) -> Option<f32> {
        let (Self::ResEc { delta, .. } | Self::TopkEc { delta, .. }) = self else { return None };
        delta.residual().map(ec_tensor::stats::l2_norm_sq)
    }
}

impl Policy for BpLink {
    const CHANNEL: Channel = Channel::Backward;
    const WIRE_METRIC: MetricId = MetricId::BpWireBytes;

    /// ResEC reads the rows where they are, adding them into `δ`; the other
    /// codecs gather them first. A gradient reply offers no fallback, and
    /// `bits`, `t` and `degradable` are the forward pass's.
    fn respond(
        &mut self,
        source: &Matrix,
        rows: &[usize],
        buf: &mut MessageBuffers,
        reply: &mut [f32],
        _bits: u8,
        _t: usize,
        _degradable: bool,
    ) -> Reply {
        let MessageBuffers { exact, codec } = buf;
        Reply::plain(match self {
            Self::Exact => copy_rows(source, rows, reply),
            Self::Compressed { bits } => {
                source.gather_rows_into(rows, exact);
                round_trip(exact, *bits, codec, reply)
            }
            Self::ResEc { delta, bits } => {
                let g_rows = rows.iter().map(|&r| source.row(r));
                resec_step_into(delta, g_rows, source.cols(), *bits, codec, reply)
            }
            Self::TopkEc { delta, ratio } => {
                source.gather_rows_into(rows, exact);
                let (sent, wire) = topk_ec_step(delta, exact, *ratio);
                reply.copy_from_slice(sent.as_slice());
                wire
            }
        })
    }
}

/// Worst observed relative quantization error of ResEC-BP's codec over a
/// few synthetic Gaussian matrices — the empirical stand-in for Theorem 1's
/// `α` (`None` for every other mode: the theorem bounds a quantization
/// residual). Feeds the bound gauge only, never training.
pub(crate) fn probe_alpha(mode: BpMode) -> Option<f64> {
    let BpMode::ResEc { bits } = mode else {
        return None;
    };
    Some(ec_compress::error::probe_alpha(bits, 8) as f64)
}

/// Uncompressed gradient response. (A link owns the rows it has just
/// gathered and ships those without this copy.)
pub fn respond_exact(g_rows: &Matrix) -> (Matrix, u64) {
    (g_rows.clone(), codec::matrix_wire_size(g_rows) as u64)
}

/// One ResEC-BP exchange (Eqs. 11–12):
///
/// ```text
/// G_cpt = G^{l,t} + δ^{l,t-1}
/// M     = C_bits(G_cpt)          (shipped)
/// δ^{l,t} = G_cpt − M            (kept for the next iteration)
/// ```
///
/// Returns the matrix the requester decompresses and the wire bytes.
///
/// `G_cpt` is formed in the residual buffer the link already owns and is
/// turned into `δ^{l,t}` in place once `M` has been decoded. Per element
/// this is the same sum (addition commutes) and the same `G_cpt − M` as
/// building both as fresh matrices, which the test reference does.
pub fn resec_step(state: &mut ResidualState, g_rows: &Matrix, bits: u8) -> (Matrix, u64) {
    let mut out = Matrix::zeros(g_rows.rows(), g_rows.cols());
    let g = (0..g_rows.rows()).map(|v| g_rows.row(v));
    let codec = &mut MessageBuffers::new().codec;
    let wire = resec_step_into(state, g, g_rows.cols(), bits, codec, out.as_mut_slice());
    (out, wire)
}

/// [`resec_step`] over `G`'s rows wherever they are (`cols` wide each)
/// through a reused codec buffer — `M` packed in `codec` and decoded into
/// `out` — so that a link past its first exchange allocates nothing.
fn resec_step_into<'g>(
    state: &mut ResidualState,
    g_rows: impl ExactSizeIterator<Item = &'g [f32]>,
    cols: usize,
    bits: u8,
    codec: &mut Quantized,
    out: &mut [f32],
) -> u64 {
    let rows = g_rows.len();
    if rows == 0 {
        return 0;
    }
    let carried = match &mut state.residual {
        Some(delta) => {
            assert_eq!(delta.shape(), (rows, cols), "residual shape changed");
            for (v, g) in g_rows.enumerate() {
                for (d, &x) in delta.row_mut(v).iter_mut().zip(g) {
                    *d += x;
                }
            }
            delta
        }
        None => {
            let mut first = Matrix::zeros(rows, cols);
            for (v, g) in g_rows.enumerate() {
                first.set_row(v, g);
            }
            state.residual.insert(first)
        }
    };
    let wire = round_trip(carried, bits, codec, out);
    for (d, &m) in carried.as_mut_slice().iter_mut().zip(out.iter()) {
        *d -= m;
    }
    wire
}

/// One Top-k-with-error-feedback exchange ("Sparsified SGD with Memory",
/// the paper's related-work comparator [32]): identical residual feedback
/// to [`resec_step`], with sparsification instead of quantization as the
/// compressor. `ratio` is the fraction of coordinates kept.
pub fn topk_ec_step(state: &mut ResidualState, g_rows: &Matrix, ratio: f32) -> (Matrix, u64) {
    if g_rows.rows() == 0 {
        return (g_rows.clone(), 0);
    }
    let compensated = match &state.residual {
        Some(delta) => ops::add(g_rows, delta),
        None => g_rows.clone(),
    };
    let k = ((g_rows.len() as f32 * ratio).ceil() as usize).clamp(1, g_rows.len());
    let t = ec_compress::TopK::compress(&compensated, k);
    let sent = t.decompress();
    state.residual = Some(ops::sub(&compensated, &sent));
    (sent, t.wire_size() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::respond_compressed;
    use crate::fp::tests::bit_patterns;
    use ec_tensor::stats;

    #[test]
    fn exact_round_trips() {
        let g = Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.1);
        let (m, wire) = respond_exact(&g);
        assert_eq!(m, g);
        assert_eq!(wire, 8 + 24);
    }

    #[test]
    fn resec_first_step_equals_plain_compression() {
        let g = Matrix::from_fn(4, 4, |r, c| ((r * 4 + c) as f32).sin());
        let mut st = ResidualState::default();
        let (ec, _) = resec_step(&mut st, &g, 3);
        let (plain, _) = respond_compressed(&g, 3);
        assert_eq!(ec, plain);
    }

    #[test]
    fn residual_matches_eq11() {
        let g = Matrix::from_vec(1, 2, vec![0.3, -0.7]);
        let mut st = ResidualState::default();
        let (m, _) = resec_step(&mut st, &g, 2);
        let expected = ops::sub(&g, &m);
        let delta = st.residual.as_ref().unwrap();
        assert!(delta.approx_eq(&expected, 1e-6));
    }

    /// The defining property of error feedback: over many iterations of a
    /// *constant* gradient, the running average of the shipped values
    /// converges to the true gradient, while plain compression keeps the
    /// same bias forever.
    #[test]
    fn error_feedback_removes_bias_of_constant_gradient() {
        let g = Matrix::from_vec(1, 3, vec![0.37, -0.21, 0.55]);
        let mut st = ResidualState::default();
        let iters = 200;
        let mut sum_ec = Matrix::zeros(1, 3);
        let mut sum_plain = Matrix::zeros(1, 3);
        for _ in 0..iters {
            let (ec, _) = resec_step(&mut st, &g, 1);
            ops::add_assign(&mut sum_ec, &ec);
            let (plain, _) = respond_compressed(&g, 1);
            ops::add_assign(&mut sum_plain, &plain);
        }
        let avg_ec = ops::scale(&sum_ec, 1.0 / iters as f32);
        let avg_plain = ops::scale(&sum_plain, 1.0 / iters as f32);
        let ec_bias = stats::l1_norm(&ops::sub(&avg_ec, &g));
        let plain_bias = stats::l1_norm(&ops::sub(&avg_plain, &g));
        assert!(ec_bias < 0.02, "EC bias {ec_bias} should vanish");
        assert!(plain_bias > 5.0 * ec_bias, "plain bias {plain_bias} should persist");
    }

    /// Theorem 1: the residual norm stays bounded when the compression
    /// contraction factor α is small enough.
    #[test]
    fn residual_norm_stays_bounded() {
        let mut st = ResidualState::default();
        let mut max_norm: f32 = 0.0;
        for t in 0..100 {
            let g = Matrix::from_fn(4, 4, |r, c| ((t * 17 + r * 5 + c) as f32 * 0.13).sin());
            resec_step(&mut st, &g, 4); // 4 bits → α ≈ 1/2^4 per coordinate scale
            max_norm = max_norm.max(st.residual_norm_sq());
        }
        let g_norm_sq = 16.0; // ‖G‖² ≤ rows·cols·1
                              // Bound with α ~ 2^-4 · √(range): generous constant-factor check.
        assert!(max_norm < g_norm_sq, "residual norm² {max_norm} unbounded");
    }

    #[test]
    fn resec_with_high_bits_is_nearly_exact() {
        let g = Matrix::from_fn(8, 8, |r, c| ((r + 2 * c) as f32 * 0.21).cos());
        let mut st = ResidualState::default();
        let (m, _) = resec_step(&mut st, &g, 16);
        assert!(m.approx_eq(&g, 1e-3));
        assert!(st.residual_norm_sq() < 1e-6);
    }

    #[test]
    fn empty_rows_are_free() {
        let g = Matrix::zeros(0, 5);
        let mut st = ResidualState::default();
        let (m, wire) = resec_step(&mut st, &g, 2);
        assert_eq!(m.shape(), (0, 5));
        assert_eq!(wire, 0);
    }

    #[test]
    fn topk_ec_debiases_like_resec() {
        let g = Matrix::from_vec(1, 8, vec![0.9, -0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let mut st = ResidualState::default();
        let mut sum = Matrix::zeros(1, 8);
        let iters = 300;
        for _ in 0..iters {
            let (sent, _) = topk_ec_step(&mut st, &g, 0.25);
            ops::add_assign(&mut sum, &sent);
        }
        let avg = ops::scale(&sum, 1.0 / iters as f32);
        assert!(stats::l1_norm(&ops::sub(&avg, &g)) < 0.05);
    }

    #[test]
    fn topk_ec_wire_scales_with_ratio() {
        let g = Matrix::from_fn(32, 8, |r, c| ((r + c) as f32).sin());
        let mut s1 = ResidualState::default();
        let mut s2 = ResidualState::default();
        let (_, w_small) = topk_ec_step(&mut s1, &g, 0.05);
        let (_, w_big) = topk_ec_step(&mut s2, &g, 0.5);
        assert!(w_big > 5 * w_small);
    }

    #[test]
    fn wire_size_scales_with_bits() {
        let g = Matrix::from_fn(64, 16, |r, c| (r + c) as f32 * 0.01);
        let mut st2 = ResidualState::default();
        let mut st8 = ResidualState::default();
        let (_, w2) = resec_step(&mut st2, &g, 2);
        let (_, w8) = resec_step(&mut st8, &g, 8);
        assert!(w8 > 3 * w2);
    }

    /// The multi-pass formulation of [`resec_step`] the in-place one
    /// replaced, verbatim: `G_cpt` and the new `δ` as fresh matrices.
    fn resec_step_reference(state: &mut ResidualState, g_rows: &Matrix, bits: u8) -> (Matrix, u64) {
        if g_rows.rows() == 0 {
            return (g_rows.clone(), 0);
        }
        let compensated = match &state.residual {
            Some(delta) => ops::add(g_rows, delta),
            None => g_rows.clone(),
        };
        let q = Quantized::compress(&compensated, bits);
        let decompressed = q.decompress();
        state.residual = Some(ops::sub(&compensated, &decompressed));
        (decompressed, q.wire_size() as u64)
    }

    fn assert_in_place_equals_reference(grads: &[Matrix], bits: u8) {
        let (mut fused, mut reference) = (ResidualState::default(), ResidualState::default());
        for (t, g) in grads.iter().enumerate() {
            let (got, got_wire) = resec_step(&mut fused, g, bits);
            let (want, want_wire) = resec_step_reference(&mut reference, g, bits);
            assert_eq!(got.shape(), want.shape());
            assert_eq!(bit_patterns(&got), bit_patterns(&want), "t={t}");
            assert_eq!(got_wire, want_wire, "t={t}");
            assert_eq!(
                fused.residual().map(bit_patterns),
                reference.residual().map(bit_patterns),
                "t={t}"
            );
        }
    }

    #[test]
    fn in_place_resec_equals_the_multi_pass_reference() {
        let grads = |rows, cols, steps: u64, seed: u64| -> Vec<Matrix> {
            (0..steps).map(|t| ec_tensor::init::normal(rows, cols, 0.01, seed * 100 + t)).collect()
        };
        for bits in [1u8, 2, 4, 8, 16] {
            assert_in_place_equals_reference(&grads(17, 13, 12, bits as u64), bits);
        }
        assert_in_place_equals_reference(&grads(1, 1, 5, 7), 1);
        assert_in_place_equals_reference(&grads(0, 4, 3, 8), 4);
        assert_in_place_equals_reference(&vec![Matrix::zeros(3, 5); 4], 2);
        // A diverged step: the residual absorbs the non-finite entries and
        // both formulations carry them forward identically.
        let mut hostile = grads(4, 6, 6, 9);
        hostile[2].row_mut(1).fill(f32::NAN);
        hostile[3].set(0, 0, f32::INFINITY);
        assert_in_place_equals_reference(&hostile, 4);
    }

    proptest::proptest! {
        #[test]
        fn in_place_resec_equals_the_reference_on_drawn_sequences(
            rows in 1usize..12,
            cols in 1usize..70,
            bits in 1u8..=16,
            steps in 1u64..14,
            seed in proptest::prelude::any::<u64>(),
            sigma in 0.0001f32..2.0,
        ) {
            let grads: Vec<Matrix> = (0..steps)
                .map(|t| ec_tensor::init::normal(rows, cols, sigma, seed.wrapping_add(t)))
                .collect();
            assert_in_place_equals_reference(&grads, bits);
        }
    }
}
