//! The partitioned embedding store: each worker's shard of the
//! materialized layer-`L−1` activations `H^{L-1}` and of their final-layer
//! product `P = H^{L-1}·W^{L-1}`.
//!
//! At checkpoint (re)load the store runs the shared read-only forward pass
//! ([`ModelWeights::forward_through`]) up to the last hidden layer, then
//! projects every row once through the final aggregate weight with the
//! product [`ModelWeights::forward`] runs for that layer — so a `P` row is
//! bit for bit the row the full forward pass aggregates. GraphSAGE also
//! keeps `P_self = H^{L-1}·W_self^{L-1}`. Per-vertex queries then only
//! aggregate: a one-row SpMM over the vertex's in-neighborhood, reading
//! projected rows from the local shard, the worker's cache, or the owning
//! worker over the network.
//!
//! What a fetch ships is a shape fact, not a knob: `P` rows when they are no
//! wider than `H` rows (`C ≤ k`), `H` rows otherwise, which the requester
//! projects itself ([`EmbeddingStore::ships_projected`]). With quantized
//! fetches the service encodes that matrix ([`EmbeddingStore::shipped`])
//! once per store version, one range per row, and decodes fetched rows
//! from the encoding.
//!
//! As everywhere in this codebase the cluster is simulated in-process: the
//! store holds the full matrices, and *ownership* is an access discipline
//! enforced by the service (a worker only reads rows it owns; everything
//! else moves through [`crate::wire`] messages whose bytes are charged to
//! the [`ec_comm::SimNetwork`]).

use ec_graph::infer::ModelWeights;
use ec_graph_data::AttributedGraph;
use ec_partition::Partition;
use ec_tensor::{parallel, CsrMatrix, Matrix};
use std::sync::Arc;

/// Version-tagged materialization of `H^{L-1}` and its final-layer
/// products, sharded by the partition.
#[derive(Clone, Debug)]
pub struct EmbeddingStore {
    version: u32,
    hidden: Matrix,
    /// `hidden · W^{L-1}`, `N × C`.
    projected: Matrix,
    /// GraphSAGE only: `hidden · W_self^{L-1}`, `N × C`.
    projected_self: Option<Matrix>,
    partition: Arc<Partition>,
}

impl EmbeddingStore {
    /// Materializes the store for `model` at version 0.
    pub fn build(
        model: &ModelWeights,
        adjs: &[Arc<CsrMatrix>],
        data: &AttributedGraph,
        partition: Arc<Partition>,
        kernel_threads: usize,
    ) -> Self {
        let (hidden, projected, projected_self) = materialize(model, adjs, data, kernel_threads);
        Self { version: 0, hidden, projected, projected_self, partition }
    }

    /// Re-materializes the store for refreshed weights, bumping the
    /// version. Every consumer holding rows of the old version must drop
    /// them (the service resets all caches).
    pub fn refresh(
        &mut self,
        model: &ModelWeights,
        adjs: &[Arc<CsrMatrix>],
        data: &AttributedGraph,
        kernel_threads: usize,
    ) {
        (self.hidden, self.projected, self.projected_self) =
            materialize(model, adjs, data, kernel_threads);
        self.version += 1;
    }

    /// Current store version (bumped once per refresh).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of vertices materialized.
    pub fn num_vertices(&self) -> usize {
        self.hidden.rows()
    }

    /// Hidden dimensionality `k` of the stored `H` rows.
    pub fn dim(&self) -> usize {
        self.hidden.cols()
    }

    /// Output dimensionality `C` of the stored `P` rows.
    pub fn output_dim(&self) -> usize {
        self.projected.cols()
    }

    /// Whether a fetch ships `P` rows (`C ≤ k`: a projected row is never
    /// the wider one) rather than `H` rows for the requester to project.
    pub fn ships_projected(&self) -> bool {
        self.output_dim() <= self.dim()
    }

    /// Floats per fetched row: `min(k, C)`.
    pub fn shipped_dim(&self) -> usize {
        self.dim().min(self.output_dim())
    }

    /// The worker owning vertex `v`'s row.
    pub fn owner(&self, v: usize) -> usize {
        self.partition.part_of(v)
    }

    /// The partition the shards follow.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Vertex `v`'s layer-`L−1` row. Callers uphold the ownership
    /// discipline: the service only calls this for rows the acting worker
    /// owns (or on the owner's behalf when building a reply).
    pub fn row(&self, v: usize) -> &[f32] {
        self.hidden.row(v)
    }

    /// Vertex `v`'s projected row `H^{L-1}_v · W^{L-1}`; same discipline.
    pub fn projected_row(&self, v: usize) -> &[f32] {
        self.projected.row(v)
    }

    /// Vertex `v`'s GraphSAGE self term `H^{L-1}_v · W_self^{L-1}` (`None`
    /// for GCN).
    pub fn projected_self_row(&self, v: usize) -> Option<&[f32]> {
        self.projected_self.as_ref().map(|m| m.row(v))
    }

    /// The matrix a fetch ships rows of: `P` when [`Self::ships_projected`],
    /// else `H`.
    pub fn shipped(&self) -> &Matrix {
        if self.ships_projected() {
            &self.projected
        } else {
            &self.hidden
        }
    }

    /// The requested layer-`L−1` rows stacked into one matrix, in request
    /// order.
    pub fn gather(&self, ids: &[u32]) -> Matrix {
        let idx: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
        self.hidden.gather_rows(&idx)
    }
}

/// `H^{L-1}`, then its products with the final layer's aggregate and (for
/// GraphSAGE) self transforms — the very `parallel::matmul` calls
/// [`ModelWeights::forward`] makes for that layer, on the very same `H`.
fn materialize(
    model: &ModelWeights,
    adjs: &[Arc<CsrMatrix>],
    data: &AttributedGraph,
    kernel_threads: usize,
) -> (Matrix, Matrix, Option<Matrix>) {
    let last = model.num_layers() - 1;
    let hidden = model.forward_through(adjs, &data.features, last, kernel_threads);
    let projected = parallel::matmul(&hidden, model.layer(last).0, kernel_threads);
    let projected_self =
        model.self_weight(last).map(|ws| parallel::matmul(&hidden, ws, kernel_threads));
    (hidden, projected, projected_self)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ServeReply;
    use ec_compress::{Quantized, RangeBlock};
    use ec_graph::config::ModelKind;
    use ec_graph_data::{normalize, DatasetSpec};
    use ec_partition::{hash::HashPartitioner, Partitioner};
    use ec_tensor::isa::Tier;

    /// A 7-class replica of `vertices` vertices whose model has `hidden`
    /// units.
    fn fixture(
        model: ModelKind,
        vertices: usize,
        hidden: usize,
    ) -> (Arc<AttributedGraph>, Vec<Arc<CsrMatrix>>, ModelWeights, Arc<Partition>) {
        let data = Arc::new(DatasetSpec::cora().instantiate_with(vertices, 8, 1));
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
        let adjs = vec![adj; 2];
        let config = ec_graph::config::TrainingConfig {
            dims: vec![8, hidden, data.num_classes],
            model,
            num_workers: 3,
            seed: 2,
            ..ec_graph::config::TrainingConfig::defaults(8, data.num_classes)
        };
        let partition = Arc::new(HashPartitioner::default().partition(&data.graph, 3));
        let engine = ec_graph::engine::DistributedEngine::new(
            data.clone(),
            adjs.clone(),
            (*partition).clone(),
            config,
        );
        let model = engine.inference_model();
        (data, adjs, model, partition)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn store_matches_the_shared_forward_path() {
        let (data, adjs, model, partition) = fixture(ModelKind::Gcn, 80, 6);
        let store = EmbeddingStore::build(&model, &adjs, &data, partition, 1);
        let hidden = model.forward_through(&adjs, &data.features, 1, 1);
        assert_eq!(store.version(), 0);
        assert_eq!(store.num_vertices(), data.num_vertices());
        assert_eq!((store.dim(), store.output_dim()), (6, 7));
        for v in [0usize, 7, 79] {
            assert_eq!(store.row(v), hidden.row(v));
        }
        let g = store.gather(&[3, 1, 3]);
        assert_eq!(g.row(0), hidden.row(3));
        assert_eq!(g.row(1), hidden.row(1));
        assert_eq!(g.row(2), hidden.row(3));
    }

    /// Every `P` row (and GraphSAGE's `P_self` row) is the scalar
    /// `project_row` of its `H` row bit for bit, at one and at four kernel
    /// threads; aggregating `P` rows in CSR order, self term and bias after,
    /// reproduces `ModelWeights::forward` bit for bit. At 6 400 vertices both
    /// products are past `parallel::MIN_BAND_WORK` twice over, so four
    /// threads do split them into row bands.
    #[test]
    fn projected_rows_are_the_forward_pass_final_layer_products() {
        for model_kind in [ModelKind::Gcn, ModelKind::Sage] {
            for hidden_units in [6usize, 12] {
                let (data, adjs, model, partition) = fixture(model_kind, 6_400, hidden_units);
                assert!(6_400 * hidden_units * 7 >= 2 * parallel::MIN_BAND_WORK);
                let logits = model.forward(&adjs, &data.features, 1);
                for threads in [1usize, 4] {
                    let store =
                        EmbeddingStore::build(&model, &adjs, &data, partition.clone(), threads);
                    let tag = format!("{model_kind:?} k={hidden_units} threads={threads}");
                    assert_eq!(
                        store.projected_self_row(0).is_some(),
                        model_kind == ModelKind::Sage,
                        "{tag}"
                    );
                    for v in 0..store.num_vertices() {
                        let h = store.row(v);
                        assert_eq!(
                            bits(store.projected_row(v)),
                            bits(&model.project_row(h)),
                            "{tag}"
                        );
                        let self_row = model.project_self_row(h);
                        assert_eq!(
                            store.projected_self_row(v).map(bits),
                            self_row.as_deref().map(bits),
                            "{tag}"
                        );
                        let row = model.output_row(
                            &adjs[1],
                            v,
                            |c| store.projected_row(c),
                            store.projected_self_row(v),
                        );
                        assert_eq!(bits(&row), bits(logits.row(v)), "{tag} vertex {v}");
                    }
                }
            }
        }
    }

    /// The wire choice follows the shape: `C = 7 > k = 6` ships `H` rows,
    /// `C = 7 ≤ k = 12` ships `P` rows; either way a reply of shipped rows
    /// round-trips, and the shape-only charge is its serialized size.
    #[test]
    fn replies_ship_the_narrower_rows_and_are_charged_their_size() {
        for (hidden_units, projected) in [(6usize, false), (12, true)] {
            let (data, adjs, model, partition) = fixture(ModelKind::Gcn, 80, hidden_units);
            let store = EmbeddingStore::build(&model, &adjs, &data, partition, 1);
            assert_eq!(store.ships_projected(), projected);
            assert_eq!(store.shipped_dim(), hidden_units.min(7));
            let ids = [4u32, 0, 79, 13];
            for &v in &ids {
                let want =
                    if projected { store.projected_row(v as usize) } else { store.row(v as usize) };
                assert_eq!(store.shipped().row(v as usize), want);
            }
            let width = store.shipped_dim();
            let shipped: Vec<f32> =
                ids.iter().flat_map(|&v| store.shipped().row(v as usize).to_vec()).collect();
            let rows = Matrix::from_vec(ids.len(), width, shipped);
            let exact = ServeReply::Exact { version: 3, rows: rows.clone() };
            let bytes = exact.to_bytes();
            assert_eq!(bytes.len(), ServeReply::wire_size_for(ids.len(), width, None));
            assert_eq!(ServeReply::from_bytes(&bytes), Ok(exact));
            for b in [3u8, 8] {
                let rows = Quantized::compress_at(Tier::best(), &rows, b, RangeBlock::Row);
                let reply = ServeReply::Quantized { version: 3, rows };
                let bytes = reply.to_bytes();
                assert_eq!(bytes.len(), ServeReply::wire_size_for(ids.len(), width, Some(b)));
                assert_eq!(ServeReply::from_bytes(&bytes), Ok(reply));
            }
        }
    }

    #[test]
    fn refresh_bumps_the_version() {
        let (data, adjs, model, partition) = fixture(ModelKind::Gcn, 80, 6);
        let mut store = EmbeddingStore::build(&model, &adjs, &data, partition, 1);
        store.refresh(&model, &adjs, &data, 1);
        assert_eq!(store.version(), 1);
    }
}
