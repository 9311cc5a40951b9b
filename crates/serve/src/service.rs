//! The inference service: batched per-vertex query answering over the
//! partitioned store and simulated network.
//!
//! A query for vertex `v` is routed to `v`'s owning worker. The owner
//! computes only the *final* GNN layer for `v`: it aggregates the projected
//! rows `H^{L-1}·W^{L-1}` of `v`'s in-neighbors, replaying the SpMM/bias
//! accumulation in the training kernels' exact element order
//! ([`ModelWeights::output_row_into`]). Projected rows come from, in order:
//! the worker's own shard of the store, its [`EmbeddingCache`], or a
//! [`crate::wire`] fetch from the owning worker (bytes charged to the
//! [`SimNetwork`]; one network superstep per dispatched batch). A fetch
//! ships `P` rows when `C ≤ k`; otherwise it ships `H` rows, and the
//! requester projects just those, with one tiled product, before caching
//! them ([`EmbeddingStore::ships_projected`]).
//!
//! A batch runs gather → decode → aggregate over a [`Workspace`] the
//! service keeps between batches: the batch's distinct neighbours as one
//! ascending id list, their projected rows written by position into one
//! row-major arena, and CSR-order aggregation reading the arena by
//! position. In steady state a batch allocates its answer matrix and
//! nothing else (DESIGN.md §10).
//!
//! Consistency: in exact-fetch mode every answer is bit-identical to the
//! corresponding row of the full-graph forward pass. With quantized
//! fetches, every row is quantized against its own range, so a row's
//! encoding is a pure function of the stored row and the store version —
//! which is why a cached copy and a fresh fetch agree byte-for-byte and the
//! cache can be toggled without changing any answer. The service therefore
//! encodes the shipped matrix once per checkpoint, into one [`Quantized`]
//! with a range per row, and a fetch only decodes its rows. A refresh bumps
//! the store version, re-encodes into the same buffer and resets every
//! cache wholesale (DESIGN.md §10).
//!
//! This file is on the serving request hot path and under the crate
//! root's panic ban: malformed requests are reported as values, not panics.

use crate::cache::EmbeddingCache;
use crate::store::EmbeddingStore;
use crate::wire::{ServeReply, ServeRequest};
use crate::ServeConfig;
use ec_comm::stats::Channel;
use ec_comm::{NetworkModel, SimNetwork};
use ec_compress::{Quantized, RangeBlock};
use ec_graph::infer::ModelWeights;
use ec_graph_data::AttributedGraph;
use ec_partition::Partition;
use ec_tensor::{CsrMatrix, Matrix};
use ec_trace::registry::{labels, log2_bucket};
use ec_trace::{MetricId, SpanEvent, TelemetryLevel, TelemetrySink};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Simulated cost of answering one dispatched batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchCost {
    /// Modeled network seconds of the batch's fetch superstep.
    pub comm_s: f64,
    /// Modeled compute seconds of the batch's final-layer kernels: the
    /// projection of rows fetched as `H`, and the aggregation
    /// (straggler-scaled).
    pub compute_s: f64,
    /// Remote rows fetched over the network.
    pub fetch_rows: u64,
    /// Reply payload bytes fetched over the network.
    pub fetch_bytes: u64,
    /// Neighbor rows answered by the cache (pinned or LRU).
    pub cache_hits: u64,
    /// Neighbor rows that missed the cache.
    pub cache_misses: u64,
}

/// Why a batch could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A queried vertex id is outside the graph.
    VertexOutOfRange(u32),
    /// A query was routed to a worker that does not own the vertex.
    WrongOwner {
        /// The queried vertex.
        vertex: u32,
        /// The worker the batch was dispatched on.
        worker: usize,
        /// The vertex's actual owner.
        owner: usize,
    },
    /// Aggregating `vertex` needed the projected row of `neighbor` and the
    /// batch's workspace holds none: an internal inconsistency, reported
    /// rather than answered with the term left out.
    MissingNeighbor {
        /// The queried vertex.
        vertex: u32,
        /// The in-neighbor without a row.
        neighbor: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            ServeError::WrongOwner { vertex, worker, owner } => {
                write!(f, "vertex {vertex} dispatched on worker {worker} but owned by {owner}")
            }
            ServeError::MissingNeighbor { vertex, neighbor } => {
                write!(f, "no row for neighbor {neighbor} while answering vertex {vertex}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Modeled seconds per floating-point operation of a batch's final-layer
/// compute: a 5 GFLOP/s per-worker budget, modeled (not measured) so that
/// latencies are deterministic.
const SECS_PER_FLOP: f64 = 2e-10;

/// Modeled fixed cost of dispatching one batch (scheduling, kernel launch).
const BATCH_OVERHEAD_S: f64 = 20e-6;

/// "Not in this batch" in [`Workspace::pos_of`].
const NO_POS: u32 = u32::MAX;

/// The buffers one batch is answered in, kept between batches so that a
/// warm service allocates nothing but its answer. Everything is indexed by
/// *position* in [`Self::ids`]; a row that was never written cannot be
/// looked up, because there is no lookup — only positions the gather loop
/// itself produced.
struct Workspace {
    /// The rows the batch needs, as global vertex ids: in `answer_batch`
    /// the distinct in-neighbours of the queried vertices, ascending.
    ids: Vec<u32>,
    /// Row `p` is the projected row `H^{L-1}·W^{L-1}` of `ids[p]` (own
    /// shard, cache, or a fetch — copied, or decoded from the owner's
    /// install-time encoding), `C` wide. Holds at least `ids.len()` rows;
    /// grows, never shrinks.
    xw: Matrix,
    /// Global id → position in `ids` while a batch aggregates, [`NO_POS`]
    /// otherwise (reset by walking `ids`, not by a fill).
    pos_of: Vec<u32>,
    /// Per owning worker, the positions to fetch from it; emptied once the
    /// fetched rows are in the cache.
    fetch: Vec<Vec<u32>>,
    /// The positions whose `H` row was fetched to be projected here, in
    /// fetch order. Stays empty while the store ships `P` rows (`C ≤ k`).
    project: Vec<u32>,
    /// Row `j` is the fetched `H` row of position `project[j]` (copied or
    /// decoded, like an `xw` row), `k` wide.
    fetched: Matrix,
    /// `fetched · W^{L-1}`, `project.len() × C`.
    fetched_xw: Vec<f32>,
}

impl Workspace {
    fn new(num_vertices: usize, dim: usize, out_dim: usize, num_workers: usize) -> Self {
        Self {
            ids: Vec::new(),
            xw: Matrix::zeros(0, out_dim),
            pos_of: vec![NO_POS; num_vertices],
            fetch: vec![Vec::new(); num_workers],
            project: Vec::new(),
            fetched: Matrix::zeros(0, dim),
            fetched_xw: Vec::new(),
        }
    }
}

/// Makes `arena` at least `rows` tall (contents are not kept: every row a
/// batch reads it has written first).
fn grow_rows(arena: &mut Matrix, rows: usize) {
    if arena.rows() < rows {
        *arena = Matrix::zeros(rows.next_power_of_two(), arena.cols());
    }
}

/// The serving cluster: one store shard + cache per worker, a parameter
/// node broadcasting checkpoints, and the simulated network between them.
pub struct InferenceService {
    model: ModelWeights,
    data: Arc<AttributedGraph>,
    adjs: Vec<Arc<CsrMatrix>>,
    store: EmbeddingStore,
    caches: Vec<EmbeddingCache>,
    ws: Workspace,
    /// With quantized fetches, the store's shipped matrix at its current
    /// version, one range per row: row `v` is the reply row `v`'s owner
    /// ships. Empty with exact fetches.
    encoded: Quantized,
    network: SimNetwork,
    config: ServeConfig,
    telemetry: TelemetrySink,
    /// Per-worker pinned-hot-set candidates (remote 1-hop dependencies by
    /// descending in-degree), fixed by the graph + partition.
    hot_sets: Vec<Vec<u32>>,
    /// Modeled seconds spent installing checkpoints (broadcast + pinning).
    refresh_comm_s: f64,
    /// Bytes moved by checkpoint installs.
    refresh_bytes: u64,
    /// Checkpoints installed (including the initial one).
    refreshes: u64,
}

impl InferenceService {
    /// Builds the serving cluster for `model` over `partition` and
    /// installs the initial checkpoint (weight broadcast + hot-set
    /// pinning, charged to the network).
    ///
    /// # Panics
    /// Panics (outside the request hot path) when the configuration is
    /// inconsistent with the model or data shapes.
    pub fn new(
        model: ModelWeights,
        data: Arc<AttributedGraph>,
        adjs: Vec<Arc<CsrMatrix>>,
        partition: Arc<Partition>,
        config: ServeConfig,
    ) -> Self {
        let validated = config.validate();
        assert!(validated.is_ok(), "invalid serve config: {validated:?}");
        assert_eq!(adjs.len(), model.num_layers(), "need one adjacency per layer");
        assert_eq!(model.dims()[0], data.feature_dim(), "model/feature dim mismatch");
        assert_eq!(partition.num_vertices(), data.num_vertices(), "partition size mismatch");
        assert_eq!(partition.num_parts(), config.num_workers, "partition/worker mismatch");

        let num_workers = config.num_workers;
        // Node layout: workers 0..W, parameter node W (checkpoint source).
        let network = SimNetwork::with_faults(
            num_workers + 1,
            NetworkModel::gigabit_ethernet(),
            config.faults.clone(),
        );
        let telemetry = TelemetrySink::new(&config.telemetry, num_workers);
        let store =
            EmbeddingStore::build(&model, &adjs, &data, partition.clone(), config.kernel_threads);
        let hot_sets = hot_sets(&adjs[model.num_layers() - 1], &partition, &data, num_workers);
        let (n, k, c) = (store.num_vertices(), store.dim(), store.output_dim());
        let caches = (0..num_workers)
            .map(|_| EmbeddingCache::with_shape(config.cache_rows, config.pinned_rows, c, n))
            .collect();
        let mut svc = Self {
            model,
            data,
            adjs,
            ws: Workspace::new(n, k, c, num_workers),
            encoded: Quantized::default(),
            store,
            caches,
            network,
            config,
            telemetry,
            hot_sets,
            refresh_comm_s: 0.0,
            refresh_bytes: 0,
            refreshes: 0,
        };
        svc.install_checkpoint();
        svc
    }

    /// The serving configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current store version (0 initially; +1 per [`Self::refresh`]).
    pub fn version(&self) -> u32 {
        self.store.version()
    }

    /// The worker queries for vertex `v` must be dispatched on.
    pub fn route(&self, v: usize) -> usize {
        self.store.owner(v)
    }

    /// Number of serving workers.
    pub fn num_workers(&self) -> usize {
        self.config.num_workers
    }

    /// Number of vertices in the served graph (the queryable id range).
    pub fn store_vertices(&self) -> usize {
        self.store.num_vertices()
    }

    /// Name of the dataset being served.
    pub fn dataset_name(&self) -> &str {
        &self.data.name
    }

    /// Modeled seconds spent installing checkpoints so far.
    pub fn refresh_comm_s(&self) -> f64 {
        self.refresh_comm_s
    }

    /// Bytes moved by checkpoint installs so far.
    pub fn refresh_bytes(&self) -> u64 {
        self.refresh_bytes
    }

    /// Checkpoints installed so far (≥ 1).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Per-worker `(hits, misses, evictions, pinned)` cache counters.
    pub fn cache_stats(&self) -> Vec<(u64, u64, u64, usize)> {
        self.caches.iter().map(|c| (c.hits, c.misses, c.evictions, c.pinned_len())).collect()
    }

    /// Total traffic moved on the serving network so far.
    pub fn traffic(&self) -> ec_comm::TrafficStats {
        self.network.total_stats()
    }

    /// The telemetry recorded so far (`None` when recording is off).
    pub fn telemetry_report(&self) -> Option<ec_trace::TelemetryReport> {
        if self.telemetry.level() == ec_trace::TelemetryLevel::Off {
            None
        } else {
            Some(self.telemetry.report())
        }
    }

    /// Records the run-level latency/QPS gauges (called by the load
    /// generator once the closed loop drains).
    pub fn record_run_metrics(&mut self, p50_s: f64, p99_s: f64, qps_per_worker: &[f64]) {
        let version = self.store.version();
        self.telemetry.set(MetricId::ServeLatencyP50, labels(&[version]), p50_s);
        self.telemetry.set(MetricId::ServeLatencyP99, labels(&[version]), p99_s);
        for (w, &qps) in qps_per_worker.iter().enumerate() {
            self.telemetry.set(MetricId::ServeQps, labels(&[version, w as u32]), qps);
        }
        for (w, (hits, misses, _, _)) in self.cache_stats().into_iter().enumerate() {
            let total = hits + misses;
            if total > 0 {
                let rate = hits as f64 / total as f64;
                self.telemetry.set(MetricId::ServeCacheHitRate, labels(&[version, w as u32]), rate);
            }
        }
    }

    /// Records request-level trace data for one dispatched batch: each
    /// request's queue wait (simulated seconds between arrival and
    /// dispatch) into the `serve.queue_wait_s` histogram, the batch's
    /// fetch/compute stages into their histograms, and — at `Trace` —
    /// `serve:queue` / `serve:fetch` / `serve:compute` spans on the
    /// worker's track at the simulated dispatch time. Called by the load
    /// generator; pure observation, never feeds back into the simulation.
    pub fn note_batch_trace(
        &mut self,
        worker: usize,
        dispatch_s: f64,
        waits: &[f64],
        cost: &BatchCost,
    ) {
        if self.telemetry.level() == TelemetryLevel::Off {
            return;
        }
        let version = self.store.version();
        let wl = labels(&[version, worker as u32]);
        let mut max_wait = 0.0f64;
        for &wait in waits {
            self.telemetry.observe(MetricId::ServeQueueWaitS, wl, wait);
            max_wait = max_wait.max(wait);
        }
        self.telemetry.observe(MetricId::ServeFetchS, wl, cost.comm_s);
        self.telemetry.observe(MetricId::ServeComputeS, wl, cost.compute_s);
        if !self.telemetry.enabled(TelemetryLevel::Trace) {
            return;
        }
        let track = self.telemetry.layout().worker(worker);
        if max_wait > 0.0 {
            self.telemetry.span(
                SpanEvent::new("serve:queue", "idle", track, dispatch_s - max_wait, max_wait)
                    .at_epoch(version as usize)
                    .at_worker(worker),
            );
        }
        for (name, start, dur) in [
            ("serve:fetch", dispatch_s, cost.comm_s),
            ("serve:compute", dispatch_s + cost.comm_s, cost.compute_s),
        ] {
            if dur > 0.0 {
                self.telemetry.span(
                    SpanEvent::new(name, "serve", track, start, dur)
                        .at_epoch(version as usize)
                        .at_worker(worker),
                );
            }
        }
    }

    /// Buckets one request's end-to-end simulated latency into the
    /// deterministic `serve.latency_log2` histogram (bucket `64 + floor
    /// log2(latency)`, clamped; see [`log2_bucket`]).
    pub fn note_request_latency(&mut self, latency_s: f64) {
        let version = self.store.version();
        let bucket = log2_bucket(latency_s);
        self.telemetry.add(MetricId::ServeLatencyBucket, labels(&[version, bucket]), 1);
    }

    /// Installs refreshed weights: re-materializes the store (version + 1),
    /// resets every cache to the new version, and re-runs the install
    /// traffic. Returns the modeled seconds of the install superstep.
    ///
    /// The coherence rule: caches never hold rows of two versions — a
    /// refresh invalidates wholesale, and the hot set is re-pinned against
    /// the *new* store before the next request is answered.
    pub fn refresh(&mut self, model: ModelWeights) -> f64 {
        assert_eq!(model.dims(), self.model.dims(), "refreshed model changed shape");
        assert_eq!(model.model(), self.model.model(), "refreshed model changed kind");
        self.model = model;
        self.store.refresh(&self.model, &self.adjs, &self.data, self.config.kernel_threads);
        self.install_checkpoint()
    }

    /// Encodes the shipped matrix of the current store version once (with
    /// quantized fetches), broadcasts the current weights to every worker
    /// and re-pins each worker's hot set at that version, charging all
    /// bytes and returning the install superstep's modeled seconds.
    fn install_checkpoint(&mut self) -> f64 {
        if let Some(bits) = self.config.fetch_bits {
            // Reuses the packed buffer after the first install.
            self.encoded.assign(self.store.shipped(), bits, RangeBlock::Row);
        }
        let version = self.store.version();
        let weight_bytes = self.model.wire_size();
        let param_node = self.config.num_workers;
        let mut bytes = 0u64;
        for w in 0..self.config.num_workers {
            self.network.send(param_node, w, Channel::Parameter, weight_bytes);
            bytes += weight_bytes;
            self.caches[w].reset_to_version(version);
        }
        // Pin the hot sets through the regular fetch path, after the rows
        // are encoded, so pinned rows reconstruct exactly like an LRU fill
        // would.
        for w in 0..self.config.num_workers {
            let hot = &self.hot_sets[w];
            self.ws.ids.clear();
            self.ws.ids.extend_from_slice(&hot[..hot.len().min(self.config.pinned_rows)]);
            grow_rows(&mut self.ws.xw, self.ws.ids.len());
            for (p, &v) in self.ws.ids.iter().enumerate() {
                self.ws.fetch[self.store.owner(v as usize)].push(p as u32);
            }
            bytes += self.fetch_queued(w, |cache, id, row| cache.pin(id, row)).0;
        }
        let t = self.network.flush_superstep();
        self.refresh_comm_s += t;
        self.refresh_bytes += bytes;
        self.refreshes += 1;
        t
    }

    /// Fetches every position queued in the workspace's fetch lists for
    /// `requester`, one request/reply pair per owner in ascending order,
    /// each row copied or decoded straight into its arena row;
    /// projects the `H` rows among them with one tiled product (only when
    /// the store ships `H`); then hands each fetched projected row to `keep`
    /// with the requester's cache, in fetch order, and empties the lists.
    /// Returns the reply bytes and the number of rows projected here.
    fn fetch_queued(
        &mut self,
        requester: usize,
        mut keep: impl FnMut(&mut EmbeddingCache, u32, &[f32]),
    ) -> (u64, usize) {
        if !self.store.ships_projected() {
            let queued = self.ws.fetch.iter().map(Vec::len).sum();
            grow_rows(&mut self.ws.fetched, queued);
        }
        let bytes =
            (0..self.config.num_workers).map(|owner| self.fetch_rows(requester, owner)).sum();
        let ws = &mut self.ws;
        let projected = ws.project.len();
        if projected > 0 {
            let c = self.store.output_dim();
            ws.fetched_xw.resize(ws.fetched_xw.len().max(projected * c), 0.0);
            let xw = &mut ws.fetched_xw[..projected * c];
            self.model.project_rows_into(&ws.fetched, xw);
            for (&p, row) in ws.project.iter().zip(xw.chunks_exact(c)) {
                ws.xw.row_mut(p as usize).copy_from_slice(row);
            }
            ws.project.clear();
        }
        for list in &mut ws.fetch {
            for &p in list.iter() {
                keep(&mut self.caches[requester], ws.ids[p as usize], ws.xw.row(p as usize));
            }
            list.clear();
        }
        (bytes, projected)
    }

    /// Moves one request/reply pair `requester ↔ owner` over the network
    /// for the positions queued in the workspace's fetch list of `owner`:
    /// each shipped row is read from the owner's shard — copied when exact,
    /// decoded from its install-time encoding when quantized — straight into
    /// its arena row: the position's `xw` row for a `P` row, the next
    /// `fetched` row (queued for projection) for an `H` row. Returns the
    /// reply's wire bytes; nothing queued moves nothing. Same-worker "fetches" are free by `SimNetwork`
    /// rules but never occur: callers only queue rows the requester does
    /// not own.
    fn fetch_rows(&mut self, requester: usize, owner: usize) -> u64 {
        let wanted = self.ws.fetch[owner].len();
        if wanted == 0 {
            return 0;
        }
        let version = self.store.version();
        let request = ServeRequest::wire_size_for(wanted);
        self.network.send(requester, owner, Channel::Control, request as u64);
        let fetch_bits = self.config.fetch_bits;
        let ships_projected = self.store.ships_projected();
        let ws = &mut self.ws;
        for &p in &ws.fetch[owner] {
            let id = ws.ids[p as usize] as usize;
            let row = if ships_projected {
                ws.xw.row_mut(p as usize)
            } else {
                ws.project.push(p);
                ws.fetched.row_mut(ws.project.len() - 1)
            };
            match fetch_bits {
                None => row.copy_from_slice(self.store.shipped().row(id)),
                Some(_) => self.encoded.decompress_block_into(id, row),
            }
        }
        let wire = ServeReply::wire_size_for(wanted, self.store.shipped_dim(), fetch_bits) as u64;
        self.network.send(owner, requester, Channel::Forward, wire);
        self.telemetry.add(
            MetricId::ServeFetchBytes,
            labels(&[version, owner as u32, requester as u32]),
            wire,
        );
        wire
    }

    /// Answers one dispatched batch on `worker`: the final-layer output
    /// (logits) row for every queried vertex, in request order, plus the
    /// batch's simulated cost. The batch is one network superstep.
    ///
    /// # Errors
    /// Returns a [`ServeError`] when a vertex is out of range or not owned
    /// by `worker`; the batch is rejected before any state changes.
    /// ([`ServeError::MissingNeighbor`] would mean the workspace contradicts
    /// itself; nothing a caller passes can produce it.)
    pub fn answer_batch(
        &mut self,
        worker: usize,
        ids: &[u32],
    ) -> Result<(Matrix, BatchCost), ServeError> {
        let n_vertices = self.data.num_vertices();
        for &v in ids {
            if v as usize >= n_vertices {
                return Err(ServeError::VertexOutOfRange(v));
            }
            let owner = self.store.owner(v as usize);
            if owner != worker {
                return Err(ServeError::WrongOwner { vertex: v, worker, owner });
            }
        }
        // Owned `Arc` clone so the adjacency stays usable across the
        // `&mut self` fetch calls below.
        let adj_last = Arc::clone(&self.adjs[self.model.num_layers() - 1]);
        let version = self.store.version();
        let mut cost = BatchCost::default();

        // 1. The batch's distinct neighbor list (ascending — deterministic,
        //    and the order every cache lookup below is issued in).
        self.ws.ids.clear();
        for &v in ids {
            self.ws.ids.extend(adj_last.row_entries(v as usize).map(|(c, _)| c as u32));
        }
        let entries = self.ws.ids.len();
        self.ws.ids.sort_unstable();
        self.ws.ids.dedup();
        grow_rows(&mut self.ws.xw, self.ws.ids.len());

        // 2. Resolve each neighbor into its projected arena row: own shard,
        //    cache, or the owner's fetch list.
        for (p, &c) in self.ws.ids.iter().enumerate() {
            let owner = self.store.owner(c as usize);
            if owner == worker {
                self.ws.xw.row_mut(p).copy_from_slice(self.store.projected_row(c as usize));
            } else if let Some(row) = self.caches[worker].get(c) {
                cost.cache_hits += 1;
                self.ws.xw.row_mut(p).copy_from_slice(row);
            } else {
                cost.cache_misses += 1;
                self.ws.fetch[owner].push(p as u32);
            }
        }

        // 3. Fetch the misses, owner by owner, project them if they came
        //    as `H` rows, and fill the cache.
        cost.fetch_rows = cost.cache_misses; // every miss is fetched, once
        let (fetch_bytes, projected) =
            self.fetch_queued(worker, |cache, id, row| cache.insert(id, row));
        cost.fetch_bytes = fetch_bytes;
        cost.comm_s = self.network.flush_superstep();

        // 4. Aggregate in CSR order, reading the arena by position.
        let ws = &mut self.ws;
        for (p, &c) in ws.ids.iter().enumerate() {
            ws.pos_of[c as usize] = p as u32;
        }
        let answer = aggregate(&self.model, &self.store, &adj_last, ws, ids);
        for &c in &ws.ids {
            ws.pos_of[c as usize] = NO_POS;
        }
        let out = answer?;
        let (k, out_dim) = (self.store.dim(), self.store.output_dim());
        let flops = (projected * 2 * (k * out_dim) + (2 * entries + ids.len()) * out_dim) as u64;
        let straggle = self.network.faults().map_or(1.0, |inj| inj.straggler_factor(worker));
        cost.compute_s = flops as f64 * SECS_PER_FLOP * straggle + BATCH_OVERHEAD_S;

        // 5. Serving metrics (pure observation; never feeds back).
        let wl = labels(&[version, worker as u32]);
        self.telemetry.add(MetricId::ServeCacheHit, wl, cost.cache_hits);
        self.telemetry.add(MetricId::ServeCacheMiss, wl, cost.cache_misses);
        self.telemetry.observe(MetricId::ServeBatchOccupancy, wl, ids.len() as f64);
        Ok((out, cost))
    }
}

/// The answer rows of `ids` from a workspace whose projected rows and
/// position index are in place: SpMM accumulation in CSR entry order, then
/// the stored self term, then the bias, each row written straight into the
/// output.
fn aggregate(
    model: &ModelWeights,
    store: &EmbeddingStore,
    adj_last: &CsrMatrix,
    ws: &Workspace,
    ids: &[u32],
) -> Result<Matrix, ServeError> {
    let out_dim = model.output_dim();
    let mut out = Matrix::zeros(ids.len(), out_dim);
    for (i, &v) in ids.iter().enumerate() {
        let xw_of = |c: usize| {
            let p = ws.pos_of.get(c).copied().filter(|&p| p != NO_POS)?;
            ws.xw.as_slice().get(p as usize * out_dim..)?.get(..out_dim)
        };
        let self_term = store.projected_self_row(v as usize);
        model.output_row_into(adj_last, v as usize, xw_of, self_term, out.row_mut(i)).map_err(
            |missing| ServeError::MissingNeighbor { vertex: v, neighbor: missing.0 as u32 },
        )?;
    }
    Ok(out)
}

/// Each worker's remote 1-hop dependencies (vertices feeding its owned
/// rows' final layer, owned elsewhere), by descending in-degree then
/// ascending id — the pinning priority.
fn hot_sets(
    adj_last: &CsrMatrix,
    partition: &Partition,
    data: &AttributedGraph,
    num_workers: usize,
) -> Vec<Vec<u32>> {
    let mut deps: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); num_workers];
    for v in 0..partition.num_vertices() {
        let w = partition.part_of(v);
        for (c, _) in adj_last.row_entries(v) {
            if partition.part_of(c) != w {
                deps[w].insert(c as u32);
            }
        }
    }
    deps.into_iter()
        .map(|set| {
            let mut ranked: Vec<u32> = set.into_iter().collect();
            ranked.sort_by_key(|&c| (std::cmp::Reverse(data.graph.degree(c as usize)), c));
            ranked
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_faults::FaultPlan;
    use ec_graph::config::{ModelKind, TrainingConfig};
    use ec_graph::engine::DistributedEngine;
    use ec_graph_data::{normalize, DatasetSpec};
    use ec_partition::{hash::HashPartitioner, Partitioner};
    use ec_tensor::isa::Tier;
    use std::collections::BTreeMap;

    /// The map-based path [`InferenceService::answer_batch`] replaced, kept
    /// in its shape: a `BTreeSet` of neighbours, a `Vec` per row in two
    /// `BTreeMap`s, constructed wire messages measured by `wire_size`, one
    /// scalar `project_row` per row it projects. It projects own rows and
    /// self terms from `H` itself rather than reading the store's products,
    /// ships whichever rows the store says, and where those are `H` rows it
    /// is the formulation before the projected store: decode, project,
    /// aggregate. It is what the workspace path is compared against, bit for
    /// bit and counter for counter.
    impl InferenceService {
        fn fetch_rows_reference(
            &mut self,
            requester: usize,
            owner: usize,
            ids: &[u32],
        ) -> (Vec<Vec<f32>>, u64) {
            let version = self.store.version();
            let request = ServeRequest { version, ids: ids.to_vec() };
            self.network.send(requester, owner, Channel::Control, request.wire_size() as u64);
            let idx: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
            let rows = self.store.shipped().gather_rows(&idx);
            let reply = match self.config.fetch_bits {
                None => ServeReply::Exact { version, rows },
                Some(bits) => ServeReply::Quantized {
                    version,
                    rows: Quantized::compress_at(Tier::best(), &rows, bits, RangeBlock::Row),
                },
            };
            let wire = reply.wire_size() as u64;
            self.network.send(owner, requester, Channel::Forward, wire);
            self.telemetry.add(
                MetricId::ServeFetchBytes,
                labels(&[version, owner as u32, requester as u32]),
                wire,
            );
            let rows = match reply {
                ServeReply::Exact { rows, .. } => rows.rows_iter().map(<[f32]>::to_vec).collect(),
                ServeReply::Quantized { rows, .. } => {
                    rows.decompress().rows_iter().map(<[f32]>::to_vec).collect()
                }
            };
            (rows, wire)
        }

        fn answer_batch_reference(
            &mut self,
            worker: usize,
            ids: &[u32],
        ) -> Result<(Matrix, BatchCost), ServeError> {
            let adj_last = Arc::clone(&self.adjs[self.model.num_layers() - 1]);
            let mut cost = BatchCost::default();
            let mut needed: BTreeSet<u32> = BTreeSet::new();
            for &v in ids {
                needed.extend(adj_last.row_entries(v as usize).map(|(c, _)| c as u32));
            }
            let k = self.store.dim();
            let out_dim = self.model.output_dim();
            let mut flops = 0u64;
            let mut remote_xw: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
            let mut fetch_by_owner: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for &c in &needed {
                let owner = self.store.owner(c as usize);
                if owner == worker {
                    continue;
                }
                if let Some(row) = self.caches[worker].get(c) {
                    cost.cache_hits += 1;
                    remote_xw.insert(c, row.to_vec());
                } else {
                    cost.cache_misses += 1;
                    fetch_by_owner.entry(owner).or_default().push(c);
                }
            }
            for (owner, fetch_ids) in fetch_by_owner {
                let (rows, wire) = self.fetch_rows_reference(worker, owner, &fetch_ids);
                cost.fetch_bytes += wire;
                cost.fetch_rows += fetch_ids.len() as u64;
                for (&c, row) in fetch_ids.iter().zip(rows) {
                    let xw = if self.store.ships_projected() {
                        row
                    } else {
                        flops += 2 * (k * out_dim) as u64;
                        self.model.project_row(&row)
                    };
                    self.caches[worker].insert(c, xw.clone());
                    remote_xw.insert(c, xw);
                }
            }
            cost.comm_s = self.network.flush_superstep();
            let mut xw: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
            for &c in &needed {
                let row = match remote_xw.remove(&c) {
                    Some(row) => row,
                    None => self.model.project_row(self.store.row(c as usize)),
                };
                xw.insert(c, row);
            }
            let mut out = Matrix::zeros(ids.len(), out_dim);
            for (i, &v) in ids.iter().enumerate() {
                let self_term = self.model.project_self_row(self.store.row(v as usize));
                let row = self.model.output_row(
                    &adj_last,
                    v as usize,
                    |c| &xw[&(c as u32)],
                    self_term.as_deref(),
                );
                flops += (2 * adj_last.row_entries(v as usize).count() * out_dim + out_dim) as u64;
                out.set_row(i, &row);
            }
            let straggle = self.network.faults().map_or(1.0, |inj| inj.straggler_factor(worker));
            cost.compute_s = flops as f64 * SECS_PER_FLOP * straggle + BATCH_OVERHEAD_S;
            Ok((out, cost))
        }
    }

    const WORKERS: usize = 4;

    struct Fixture {
        data: Arc<AttributedGraph>,
        adjs: Vec<Arc<CsrMatrix>>,
        /// Weights after two and after three epochs (a refresh's before/after).
        weights: [ModelWeights; 2],
    }

    impl Fixture {
        /// A 130-vertex, 7-class replica whose model has `hidden` units: 8
        /// makes the store ship projected rows, 4 makes it ship `H` rows.
        fn new(model: ModelKind, hidden: usize) -> Self {
            let data = Arc::new(DatasetSpec::cora().instantiate_with(130, 10, 5));
            let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
            let adjs = vec![adj; 2];
            let config = TrainingConfig {
                dims: vec![10, hidden, data.num_classes],
                model,
                num_workers: WORKERS,
                seed: 7,
                ..TrainingConfig::defaults(10, data.num_classes)
            };
            let partition = HashPartitioner::default().partition(&data.graph, WORKERS);
            let mut engine = DistributedEngine::new(data.clone(), adjs.clone(), partition, config);
            engine.run_epoch();
            engine.run_epoch();
            let v0 = engine.inference_model();
            engine.run_epoch();
            Self { data, adjs, weights: [v0, engine.inference_model()] }
        }

        fn service(&self, config: ServeConfig) -> InferenceService {
            let parts = config.num_workers;
            let partition = Arc::new(HashPartitioner::default().partition(&self.data.graph, parts));
            InferenceService::new(
                self.weights[0].clone(),
                self.data.clone(),
                self.adjs.clone(),
                partition,
                config,
            )
        }
    }

    /// Runs `ids` on both services and compares the answers' bits and every
    /// cost field.
    fn assert_same_batch(
        new: &mut InferenceService,
        reference: &mut InferenceService,
        worker: usize,
        ids: &[u32],
        tag: &str,
    ) {
        let (got, cost) = new.answer_batch(worker, ids).expect("valid batch");
        let (want, want_cost) = reference.answer_batch_reference(worker, ids).expect("valid batch");
        assert_eq!(got.shape(), want.shape(), "{tag}: shape, ids {ids:?}");
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&got), bits(&want), "{tag}: logits, worker {worker} ids {ids:?}");
        let fields = |c: &BatchCost| {
            let times = (c.comm_s.to_bits(), c.compute_s.to_bits());
            (times, c.fetch_rows, c.fetch_bytes, c.cache_hits, c.cache_misses)
        };
        assert_eq!(fields(&cost), fields(&want_cost), "{tag}: cost, worker {worker} ids {ids:?}");
    }

    /// Every vertex through its owner in batches of `batch`, twice over (the
    /// second pass runs on a warm cache), then the degenerate batches.
    fn drive(fx: &Fixture, config: ServeConfig, tag: &str) {
        let mut new = fx.service(config.clone());
        let mut reference = fx.service(config.clone());
        let n = fx.data.num_vertices() as u32;
        let owned = |svc: &InferenceService, w: usize| -> Vec<u32> {
            (0..n).filter(|&v| svc.route(v as usize) == w).collect()
        };
        for pass in 0..2 {
            for w in 0..config.num_workers {
                for chunk in owned(&new, w).chunks(if pass == 0 { 8 } else { 3 }) {
                    assert_same_batch(&mut new, &mut reference, w, chunk, tag);
                }
            }
        }
        let mine = owned(&new, 0);
        // Empty, duplicates within one batch, and a batch larger than any
        // before it (the workspace grows).
        assert_same_batch(&mut new, &mut reference, 0, &[], tag);
        let dup = [mine[1], mine[0], mine[1], mine[1], mine[0]];
        assert_same_batch(&mut new, &mut reference, 0, &dup, tag);
        assert_same_batch(&mut new, &mut reference, 0, &mine, tag);
        // A refresh, and the first batches after it.
        let t = new.refresh(fx.weights[1].clone());
        assert_eq!(t.to_bits(), reference.refresh(fx.weights[1].clone()).to_bits(), "{tag}");
        for w in 0..config.num_workers {
            for chunk in owned(&new, w).chunks(8).take(3) {
                assert_same_batch(&mut new, &mut reference, w, chunk, tag);
            }
        }
        assert_eq!(new.cache_stats(), reference.cache_stats(), "{tag}: cache counters");
        if config.num_workers > 1 && config.cache_rows > 0 {
            let (hits, evictions) =
                new.cache_stats().iter().fold((0, 0), |(h, e), s| (h + s.0, e + s.2));
            assert!(hits > 0, "{tag}: the cache must be exercised");
            assert!(evictions > 0 || config.cache_rows > 24, "{tag}: a 24-row cache must evict");
        }
        assert_eq!(new.refresh_bytes(), reference.refresh_bytes(), "{tag}: install bytes");
        assert_eq!(
            new.traffic().total_bytes(),
            reference.traffic().total_bytes(),
            "{tag}: network bytes"
        );
    }

    /// The grid runs once over a store that ships `P` rows (`C = 7 ≤ k = 8`)
    /// and once over one that ships `H` rows for the requester to project
    /// (`C = 7 > k = 4`).
    #[test]
    fn workspace_path_matches_the_map_based_reference() {
        for (model, hidden) in
            [ModelKind::Gcn, ModelKind::Sage].into_iter().flat_map(|m| [(m, 8), (m, 4)])
        {
            let fx = Fixture::new(model, hidden);
            assert_eq!(fx.service(ServeConfig::defaults(1)).store.ships_projected(), hidden == 8);
            for cached in [true, false] {
                for fetch_bits in [None, Some(8u8), Some(3)] {
                    for straggler in [false, true] {
                        let mut config = ServeConfig::defaults(WORKERS);
                        config.fetch_bits = fetch_bits;
                        if !cached {
                            config.cache_rows = 0;
                            config.pinned_rows = 0;
                        } else {
                            // Small enough that the passes evict.
                            config.cache_rows = 24;
                            config.pinned_rows = 6;
                        }
                        if straggler {
                            config.faults = FaultPlan::none().with_straggler(0, 2.0);
                        }
                        let tag = format!(
                            "{model:?} k={hidden} cached={cached} bits={fetch_bits:?} \
                             straggler={straggler}"
                        );
                        drive(&fx, config, &tag);
                    }
                }
            }
            // The default cache shape, and one worker owning everything (no
            // remote rows at all).
            drive(&fx, ServeConfig::defaults(WORKERS), &format!("{model:?} k={hidden} defaults"));
            drive(&fx, ServeConfig::defaults(1), &format!("{model:?} k={hidden} single worker"));
        }
    }

    /// A quantized reply's rows are the owner's install-time encoding of
    /// them: each row of the encoding has the range and reconstruction of
    /// that row quantized alone, the reply built from the rows is exactly
    /// as long as the shape price the service charges, and decoding it gives
    /// the arena rows a fetch wrote, bit for bit — before and after a
    /// refresh re-encodes the store, over a store that ships `P` rows and one
    /// that ships `H` rows.
    #[test]
    fn the_stored_encoding_is_the_reply_that_is_priced() {
        let (requester, owner) = (0usize, 1usize);
        let bits_of = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for hidden in [8usize, 4] {
            let fx = Fixture::new(ModelKind::Gcn, hidden);
            for bits in [8u8, 3] {
                let mut config = ServeConfig::defaults(WORKERS);
                config.fetch_bits = Some(bits);
                let mut svc = fx.service(config);
                let ids: Vec<u32> =
                    (0..130u32).filter(|&v| svc.route(v as usize) == owner).take(6).collect();
                for round in 0..2 {
                    if round == 1 {
                        svc.refresh(fx.weights[1].clone());
                    }
                    let tag = format!("k={hidden} bits={bits} round={round}");
                    let (n, dim) = (ids.len(), svc.store.shipped_dim());
                    let ws = &mut svc.ws;
                    ws.ids.clone_from(&ids);
                    grow_rows(&mut ws.xw, n);
                    grow_rows(&mut ws.fetched, n);
                    ws.fetch[owner].extend(0..n as u32);
                    let charged = svc.fetch_rows(requester, owner);

                    let idx: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
                    let shipped = svc.store.shipped().gather_rows(&idx);
                    let rows =
                        Quantized::compress_at(Tier::best(), &shipped, bits, RangeBlock::Row);
                    for (j, &v) in ids.iter().enumerate() {
                        let alone = Matrix::from_vec(1, dim, shipped.row(j).to_vec());
                        let alone = Quantized::compress(&alone, bits);
                        let mut stored = vec![f32::NAN; dim];
                        svc.encoded.decompress_block_into(v as usize, &mut stored);
                        assert_eq!(svc.encoded.range(v as usize), alone.range(0), "{tag}: row {v}");
                        assert_eq!(
                            bits_of(&stored),
                            bits_of(alone.decompress().as_slice()),
                            "{tag}"
                        );
                    }
                    let reply = ServeReply::Quantized { version: svc.version(), rows };
                    let bytes = reply.to_bytes();
                    assert_eq!(bytes.len(), ServeReply::wire_size_for(n, dim, Some(bits)), "{tag}");
                    assert_eq!(bytes.len() as u64, charged, "{tag}");

                    let Ok(ServeReply::Quantized { rows, .. }) = ServeReply::from_bytes(&bytes)
                    else {
                        panic!("{tag}: the reply does not decode as quantized");
                    };
                    let ships_projected = svc.store.ships_projected();
                    for (j, decoded) in rows.decompress().rows_iter().enumerate() {
                        let arena =
                            if ships_projected { svc.ws.xw.row(j) } else { svc.ws.fetched.row(j) };
                        assert_eq!(bits_of(decoded), bits_of(arena), "{tag}: row {j}");
                    }
                    svc.ws.fetch[owner].clear();
                    svc.ws.project.clear();
                }
            }
        }
    }

    /// A neighbour without a row is an error, not a term left out: the
    /// map-based path looked rows up with `map_or(&[], …)` and answered
    /// with whatever was left.
    #[test]
    fn a_neighbor_without_a_row_is_reported_not_zeroed() {
        let fx = Fixture::new(ModelKind::Gcn, 8);
        let mut svc = fx.service(ServeConfig::defaults(WORKERS));
        let v = (0..130u32).find(|&v| svc.route(v as usize) == 0).expect("worker 0 owns a vertex");
        svc.answer_batch(0, &[v]).expect("valid batch");
        // Between batches the position index is blank, so aggregating
        // against the left-over arena finds no neighbour at all.
        let adj = Arc::clone(&svc.adjs[1]);
        let (first, _) = adj.row_entries(v as usize).next().expect("self loop");
        assert_eq!(
            aggregate(&svc.model, &svc.store, &adj, &svc.ws, &[v]).map(|m| m.shape()),
            Err(ServeError::MissingNeighbor { vertex: v, neighbor: first as u32 })
        );
        // And the batch itself left the service answering as before.
        let (again, _) = svc.answer_batch(0, &[v]).expect("valid batch");
        let want = fx.weights[0].forward(&fx.adjs, &fx.data.features, 1);
        assert_eq!(again.row(0), want.row(v as usize));
    }
}
