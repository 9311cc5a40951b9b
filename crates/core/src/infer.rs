//! Read-only inference over trained weights — the code path shared by
//! [`crate::engine::DistributedEngine::evaluate`] and the `ec-serve`
//! serving layer.
//!
//! Training needs the full engine (partition contexts, compensation state,
//! parameter servers); a pure forward query needs none of that. This module
//! isolates the forward kernels behind [`ModelWeights`], a plain value type
//! that can be built from a live engine *or* loaded straight from an
//! on-disk checkpoint written by
//! [`crate::engine::DistributedEngine::save_checkpoint`] — so a serving
//! process never has to construct a training engine at all.
//!
//! Bit-identity contract: [`ModelWeights::forward`] reproduces the
//! historical `forward_global` loop exactly (same kernels, same layer
//! order), and [`ModelWeights::output_row`] replays the final layer's
//! SpMM/bias accumulation in the same element order — so a per-vertex
//! serving answer computed from exact layer-`L−1` rows is byte-identical
//! to the corresponding row of the full-graph forward pass. The serving
//! cache-consistency tests rely on this.

use crate::config::ModelKind;
use ec_comm::ps::CheckpointError;
use ec_tensor::{activations, ops, parallel, CsrMatrix, Matrix};
use std::sync::Arc;

/// A trained model's weights, detached from any engine: one `(W, b)` pair
/// per parameter slot, laid out exactly like the parameter servers store
/// them (layers `0..L`, then — for GraphSAGE — the self/root transforms at
/// slots `L..2L`).
#[derive(Clone, Debug)]
pub struct ModelWeights {
    model: ModelKind,
    slots: Vec<(Matrix, Vec<f32>)>,
}

impl ModelWeights {
    /// Wraps a parameter snapshot (the layout `DistributedEngine::weights`
    /// returns) as an inference model.
    ///
    /// # Panics
    /// Panics when the slot count is inconsistent with the model kind
    /// (GraphSAGE carries two slots per layer).
    pub fn from_parts(model: ModelKind, slots: Vec<(Matrix, Vec<f32>)>) -> Self {
        assert!(!slots.is_empty(), "a model needs at least one layer");
        if model == ModelKind::Sage {
            assert!(slots.len().is_multiple_of(2), "GraphSAGE checkpoints carry 2 slots per layer");
        }
        Self { model, slots }
    }

    /// Loads the weights saved by `DistributedEngine::save_checkpoint` /
    /// `ParameterServerGroup::save_weights`. The file records shapes, so no
    /// engine or configuration is needed — only the model kind, which fixes
    /// how the slots split into aggregate and self transforms.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] on I/O failure, a file
    /// [`ec_comm::ps::read_weights`] rejects, or a slot count that
    /// contradicts `model`.
    pub fn load(path: &std::path::Path, model: ModelKind) -> Result<Self, CheckpointError> {
        let slots = ec_comm::ps::read_weights(&std::fs::read(path)?)?;
        let count = slots.len();
        if count == 0 || (model == ModelKind::Sage && !count.is_multiple_of(2)) {
            return Err(CheckpointError::LayerCount { found: count, expected: count.max(2) });
        }
        Ok(Self { model, slots })
    }

    /// The model kind these weights drive.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// Number of GNN layers `L`.
    pub fn num_layers(&self) -> usize {
        match self.model {
            ModelKind::Gcn => self.slots.len(),
            ModelKind::Sage => self.slots.len() / 2,
        }
    }

    /// Layer dimensions `[d₀, h₁, …, C]`, recovered from the weight shapes.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.slots[0].0.rows()];
        dims.extend(self.slots[..self.num_layers()].iter().map(|(w, _)| w.cols()));
        dims
    }

    /// The output (class) dimensionality.
    pub fn output_dim(&self) -> usize {
        self.slots[self.num_layers() - 1].0.cols()
    }

    /// The aggregate weight and bias of layer `l`.
    pub fn layer(&self, l: usize) -> (&Matrix, &[f32]) {
        let (w, b) = &self.slots[l];
        (w, b)
    }

    /// The GraphSAGE self/root transform of layer `l` (`None` for GCN).
    pub fn self_weight(&self, l: usize) -> Option<&Matrix> {
        (self.model == ModelKind::Sage).then(|| &self.slots[self.num_layers() + l].0)
    }

    /// Total serialized size of every slot on the parameter wire — the byte
    /// charge for shipping this model to one serving worker.
    pub fn wire_size(&self) -> u64 {
        self.slots
            .iter()
            // The bias travels as a 1×n matrix, exactly like the
            // checkpoint writes it.
            .map(|(w, b)| (ec_comm::codec::matrix_wire_size(w) + 8 + 4 * b.len()) as u64)
            .sum()
    }

    /// Full-graph forward pass: exactly the historical
    /// `DistributedEngine::forward_global` loop (evaluation is out-of-band,
    /// no compression). `adjs` holds one normalized adjacency per layer.
    pub fn forward(
        &self,
        adjs: &[Arc<CsrMatrix>],
        features: &Matrix,
        kernel_threads: usize,
    ) -> Matrix {
        self.forward_through(adjs, features, self.num_layers(), kernel_threads)
    }

    /// Forward pass stopping after `upto` layers (so `upto = L - 1` yields
    /// the layer the serving store materializes: the last *hidden*
    /// activations `H^{L-1}`, ReLU applied). `upto = L` is [`Self::forward`].
    pub fn forward_through(
        &self,
        adjs: &[Arc<CsrMatrix>],
        features: &Matrix,
        upto: usize,
        kernel_threads: usize,
    ) -> Matrix {
        let num_layers = self.num_layers();
        assert!(upto <= num_layers, "layer {upto} out of range (L = {num_layers})");
        assert_eq!(adjs.len(), num_layers, "need one adjacency per layer");
        let kt = kernel_threads;
        let mut h = features.clone();
        for (l, adj) in adjs.iter().enumerate().take(upto) {
            let (w, b) = self.layer(l);
            let xw = parallel::matmul(&h, w, kt);
            let mut z = parallel::spmm(adj, &xw, kt);
            if let Some(ws) = self.self_weight(l) {
                ops::add_assign(&mut z, &parallel::matmul(&h, ws, kt));
            }
            ops::add_bias_assign(&mut z, b);
            h = if l + 1 < num_layers { activations::relu(&z) } else { z };
        }
        h
    }

    /// Projects a stack of layer-`L−1` embedding rows through the final
    /// aggregate weight with one tiled product: `out`, `m × C` row-major,
    /// becomes `rows[..m] · W^{L-1}` — the serving path's batched form of
    /// [`Self::project_row`], bit-identical to it row by row. `rows` may
    /// hold more than `m` rows (a reused arena); the rest are not read.
    pub fn project_rows_into(&self, rows: &Matrix, out: &mut [f32]) {
        let w = self.layer(self.num_layers() - 1).0;
        assert_eq!(rows.cols(), w.rows(), "projection shape mismatch");
        assert!(out.len() <= rows.rows() * w.cols(), "more output rows than input rows");
        out.fill(0.0);
        ops::matmul_into(rows, w, 0, out);
    }

    /// Projects one layer-`L−1` embedding row through the final aggregate
    /// weight: the row `h · W^{L-1}` of the full matmul, reproduced with the
    /// same accumulation order as [`ec_tensor::ops::matmul`] so the result
    /// is bit-identical to the batched kernel's row. The scalar reference
    /// [`Self::project_rows_into`] is held to.
    pub fn project_row(&self, h_row: &[f32]) -> Vec<f32> {
        row_times(h_row, self.layer(self.num_layers() - 1).0)
    }

    /// Same projection through the final GraphSAGE self transform (`None`
    /// for GCN).
    pub fn project_self_row(&self, h_row: &[f32]) -> Option<Vec<f32>> {
        self.self_weight(self.num_layers() - 1).map(|ws| row_times(h_row, ws))
    }

    /// Computes the final-layer output (logits) row of global vertex `v`
    /// from projected neighbour rows: `xw_of(c)` must return
    /// [`Self::project_row`] of vertex `c`'s layer-`L−1` embedding, and
    /// `self_term` the projected self row for GraphSAGE (ignored for GCN).
    ///
    /// Replays the SpMM accumulation in CSR entry order, then the self
    /// term, then the bias — the exact element order of the full-graph
    /// forward pass, so exact inputs give bit-identical logits. Serving
    /// runs [`Self::output_row_into`]; this allocating form with its
    /// infallible lookup is what that one is tested against.
    pub fn output_row<'a>(
        &self,
        adj_last: &CsrMatrix,
        v: usize,
        mut xw_of: impl FnMut(usize) -> &'a [f32],
        self_term: Option<&[f32]>,
    ) -> Vec<f32> {
        let (_, bias) = self.layer(self.num_layers() - 1);
        let mut z = vec![0.0f32; self.output_dim()];
        for (c, a) in adj_last.row_entries(v) {
            let xw = xw_of(c);
            for (o, &x) in z.iter_mut().zip(xw) {
                *o += a * x;
            }
        }
        if self.model == ModelKind::Sage {
            if let Some(xs) = self_term {
                for (o, &x) in z.iter_mut().zip(xs) {
                    *o += x;
                }
            }
        }
        for (o, &b) in z.iter_mut().zip(bias) {
            *o += b;
        }
        z
    }

    /// [`Self::output_row`] written into `out` (`C` floats, overwritten),
    /// with a lookup that can fail: `xw_of(c)` returns the projected row of
    /// neighbour `c`, or `None` when the caller holds none — reported as
    /// [`MissingRow`] instead of an answer that silently lacks the term.
    ///
    /// # Errors
    /// Returns the first neighbour of `v`, in CSR order, without a row.
    pub fn output_row_into<'a>(
        &self,
        adj_last: &CsrMatrix,
        v: usize,
        mut xw_of: impl FnMut(usize) -> Option<&'a [f32]>,
        self_term: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<(), MissingRow> {
        let (_, bias) = self.layer(self.num_layers() - 1);
        out.fill(0.0);
        for (c, a) in adj_last.row_entries(v) {
            let xw = xw_of(c).ok_or(MissingRow(c))?;
            debug_assert_eq!(xw.len(), out.len(), "projected row width");
            for (o, &x) in out.iter_mut().zip(xw) {
                *o += a * x;
            }
        }
        if self.model == ModelKind::Sage {
            if let Some(xs) = self_term {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o += x;
                }
            }
        }
        for (o, &b) in out.iter_mut().zip(bias) {
            *o += b;
        }
        Ok(())
    }
}

/// A neighbour (global vertex id) whose projected row
/// [`ModelWeights::output_row_into`] asked for and did not get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissingRow(pub usize);

impl std::fmt::Display for MissingRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no projected row for neighbour {}", self.0)
    }
}

impl std::error::Error for MissingRow {}

/// One row of `h · W`, accumulated exactly like [`ec_tensor::ops::matmul`]
/// computes it (k-major with the zero-skip, streaming over `W`'s rows).
fn row_times(h_row: &[f32], w: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; w.cols()];
    for (p, &av) in h_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = w.row(p);
        for (o, &bv) in out.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BpMode, FpMode, TrainingConfig};
    use crate::engine::DistributedEngine;
    use ec_graph_data::{normalize, DatasetSpec};
    use ec_partition::hash::HashPartitioner;
    use ec_partition::Partitioner;

    fn bits_of(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn trained_engine(model: ModelKind, epochs: usize) -> (DistributedEngine, Vec<Arc<CsrMatrix>>) {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(120, 10, 3));
        let config = TrainingConfig {
            dims: vec![10, 8, data.num_classes],
            model,
            num_workers: 3,
            fp_mode: FpMode::Exact,
            bp_mode: BpMode::Exact,
            seed: 5,
            ..TrainingConfig::defaults(10, data.num_classes)
        };
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let adjs = vec![adj; 2];
        let partition = HashPartitioner::default().partition(&data.graph, 3);
        let mut e = DistributedEngine::new(data, adjs.clone(), partition, config);
        for _ in 0..epochs {
            e.run_epoch();
        }
        (e, adjs)
    }

    #[test]
    fn forward_matches_engine_forward_global() {
        for model in [ModelKind::Gcn, ModelKind::Sage] {
            let (e, adjs) = trained_engine(model, 2);
            let via_engine = e.forward_global();
            let via_model = e.inference_model().forward(&adjs, &e.data().features, 1);
            assert_eq!(via_engine.as_slice(), via_model.as_slice(), "{model:?} diverged");
        }
    }

    #[test]
    fn output_row_is_bit_identical_to_full_forward() {
        for model in [ModelKind::Gcn, ModelKind::Sage] {
            let (e, adjs) = trained_engine(model, 2);
            let m = e.inference_model();
            let logits = m.forward(&adjs, &e.data().features, 1);
            let hidden = m.forward_through(&adjs, &e.data().features, m.num_layers() - 1, 1);
            // Project every row once, then replay the final layer per vertex.
            let xw: Vec<Vec<f32>> =
                (0..hidden.rows()).map(|r| m.project_row(hidden.row(r))).collect();
            for v in 0..logits.rows() {
                let self_term = m.project_self_row(hidden.row(v));
                let row = m.output_row(&adjs[1], v, |c| &xw[c], self_term.as_deref());
                let want: Vec<u32> = logits.row(v).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{model:?} vertex {v} logits diverged");
            }
        }
    }

    /// The batched serving forms against the scalar ones, and the lookup
    /// that fails: the old closure had to return *some* slice, so a caller
    /// without a neighbour's row handed back an empty one and the answer
    /// silently lost the term.
    #[test]
    fn batched_projection_and_fallible_aggregation_match_the_row_forms() {
        for model in [ModelKind::Gcn, ModelKind::Sage] {
            let (e, adjs) = trained_engine(model, 2);
            let m = e.inference_model();
            let hidden = m.forward_through(&adjs, &e.data().features, m.num_layers() - 1, 1);
            let (n, c) = (hidden.rows(), m.output_dim());
            // A product over the first 50 rows of a taller arena.
            let mut xw = vec![f32::NAN; 50 * c];
            m.project_rows_into(&hidden, &mut xw);
            for r in 0..50 {
                assert_eq!(bits_of(&xw[r * c..][..c]), bits_of(&m.project_row(hidden.row(r))));
            }
            let mut xw = vec![0.0f32; n * c];
            m.project_rows_into(&hidden, &mut xw);
            let xw_of = |v: usize| Some(&xw[v * c..][..c]);
            for v in [0usize, 7, n - 1] {
                let self_term = m.project_self_row(hidden.row(v));
                let want = m.output_row(&adjs[1], v, |u| &xw[u * c..][..c], self_term.as_deref());
                let mut got = vec![f32::NAN; c];
                m.output_row_into(&adjs[1], v, xw_of, self_term.as_deref(), &mut got).unwrap();
                assert_eq!(bits_of(&got), bits_of(&want), "{model:?} vertex {v}");
                // Withhold one neighbour's row.
                let (gone, _) = adjs[1].row_entries(v).last().unwrap();
                let without = |u: usize| (u != gone).then(|| &xw[u * c..][..c]);
                let lost = m.output_row_into(&adjs[1], v, without, self_term.as_deref(), &mut got);
                assert_eq!(lost, Err(MissingRow(gone)));
            }
        }
    }

    #[test]
    fn checkpoint_loads_without_an_engine() {
        let (e, adjs) = trained_engine(ModelKind::Gcn, 2);
        let mut path = std::env::temp_dir();
        path.push(format!("ecgraph-infer-ckpt-{}.bin", std::process::id()));
        e.save_checkpoint(&path).unwrap();
        let loaded = ModelWeights::load(&path, ModelKind::Gcn).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.num_layers(), 2);
        assert_eq!(loaded.dims(), vec![10, 8, e.data().num_classes]);
        let a = e.inference_model().forward(&adjs, &e.data().features, 1);
        let b = loaded.forward(&adjs, &e.data().features, 1);
        assert_eq!(a.as_slice(), b.as_slice(), "loaded weights must reproduce the forward pass");
    }

    #[test]
    fn load_rejects_garbage() {
        let mut path = std::env::temp_dir();
        path.push(format!("ecgraph-infer-junk-{}.bin", std::process::id()));
        let load = |bytes: &[u8], model| {
            std::fs::write(&path, bytes).unwrap();
            ModelWeights::load(&path, model)
        };
        assert!(matches!(load(&[1, 0], ModelKind::Gcn), Err(CheckpointError::Truncated(_))));
        // Three well-formed empty slots: odd, so not a GraphSAGE model.
        let mut odd = 3u32.to_le_bytes().to_vec();
        odd.extend([0u8; 6 * 8]);
        assert!(load(&odd, ModelKind::Gcn).is_ok());
        let parity = load(&odd, ModelKind::Sage);
        assert!(matches!(parity, Err(CheckpointError::LayerCount { found: 3, .. })));
        // A slot count of `u32::MAX` and nothing behind it: an error, not an
        // allocation sized by the count.
        let hostile = load(&[0xff; 4], ModelKind::Gcn);
        assert!(matches!(hostile, Err(CheckpointError::Decode(_))));
        std::fs::remove_file(&path).ok();
    }
}
