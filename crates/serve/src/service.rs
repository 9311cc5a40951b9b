//! The inference service: batched per-vertex query answering over the
//! partitioned store and simulated network.
//!
//! A query for vertex `v` is routed to `v`'s owning worker. The owner
//! computes only the *final* GNN layer for `v`: it projects the
//! layer-`L−1` rows of `v`'s in-neighbors through the last weight matrix
//! and replays the SpMM/bias accumulation in the training kernels' exact
//! element order ([`ModelWeights::output_row`]). Neighbor rows come from,
//! in order: the worker's own shard, its [`EmbeddingCache`], or a
//! [`crate::wire`] fetch from the owning worker (bytes charged to the
//! [`SimNetwork`]; one network superstep per dispatched batch).
//!
//! Consistency: in exact-fetch mode every answer is bit-identical to the
//! corresponding row of the full-graph forward pass. With quantized
//! fetches, rows are compressed *per row* with a per-row range, so a
//! reconstruction is a pure function of the stored row — which is why a
//! cached copy and a fresh fetch agree byte-for-byte and the cache can be
//! toggled without changing any answer. On checkpoint refresh the store
//! version bumps and every cache resets wholesale (DESIGN.md §10).
//!
//! This file is on the serving request hot path and inside `ec-lint`'s
//! `no-panic-hot-path` scope: malformed requests are reported as values,
//! not panics.

use crate::cache::EmbeddingCache;
use crate::store::EmbeddingStore;
use crate::wire::{ServeReply, ServeRequest};
use crate::ServeConfig;
use ec_comm::stats::Channel;
use ec_comm::SimNetwork;
use ec_compress::Quantized;
use ec_graph::infer::ModelWeights;
use ec_graph_data::AttributedGraph;
use ec_partition::Partition;
use ec_tensor::{CsrMatrix, Matrix};
use ec_trace::registry::{labels, log2_bucket};
use ec_trace::{MetricId, SpanEvent, TelemetryLevel, TelemetrySink};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Simulated cost of answering one dispatched batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchCost {
    /// Modeled network seconds of the batch's fetch superstep.
    pub comm_s: f64,
    /// Modeled compute seconds of the batch's final-layer kernels
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
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            ServeError::WrongOwner { vertex, worker, owner } => {
                write!(f, "vertex {vertex} dispatched on worker {worker} but owned by {owner}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The serving cluster: one store shard + cache per worker, a parameter
/// node broadcasting checkpoints, and the simulated network between them.
pub struct InferenceService {
    model: ModelWeights,
    data: Arc<AttributedGraph>,
    adjs: Vec<Arc<CsrMatrix>>,
    store: EmbeddingStore,
    caches: Vec<EmbeddingCache>,
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
        let network =
            SimNetwork::with_faults(num_workers + 1, config.network, config.faults.clone());
        let telemetry = TelemetrySink::new(&config.telemetry, num_workers);
        let store =
            EmbeddingStore::build(&model, &adjs, &data, partition.clone(), config.kernel_threads);
        let hot_sets = hot_sets(&adjs[model.num_layers() - 1], &partition, &data, num_workers);
        let caches = (0..num_workers).map(|_| EmbeddingCache::new(config.cache_rows)).collect();
        let mut svc = Self {
            model,
            data,
            adjs,
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

    /// Broadcasts the current weights to every worker and re-pins each
    /// worker's hot set at the current store version, charging all bytes
    /// and returning the install superstep's modeled seconds.
    fn install_checkpoint(&mut self) -> f64 {
        let version = self.store.version();
        let weight_bytes = self.model.wire_size();
        let param_node = self.config.num_workers;
        let mut bytes = 0u64;
        for w in 0..self.config.num_workers {
            self.network.send(param_node, w, Channel::Parameter, weight_bytes);
            bytes += weight_bytes;
            self.caches[w].reset_to_version(version);
        }
        // Pin the hot sets through the regular fetch codec so pinned rows
        // reconstruct exactly like an LRU fill would.
        for w in 0..self.config.num_workers {
            let pinned: Vec<u32> =
                self.hot_sets[w].iter().take(self.config.pinned_rows).copied().collect();
            let mut by_owner: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for &v in &pinned {
                by_owner.entry(self.store.owner(v as usize)).or_default().push(v);
            }
            for (owner, ids) in by_owner {
                let (rows, wire) = self.fetch_rows(w, owner, &ids);
                bytes += wire;
                for (v, row) in ids.iter().zip(rows) {
                    self.caches[w].pin(*v, row);
                }
            }
        }
        let t = self.network.flush_superstep();
        self.refresh_comm_s += t;
        self.refresh_bytes += bytes;
        self.refreshes += 1;
        t
    }

    /// Moves one request/reply pair `requester ↔ owner` over the network
    /// and returns the reconstructed rows (request order) plus the reply's
    /// wire bytes. Same-worker "fetches" are free by `SimNetwork` rules but
    /// never occur: callers only fetch rows they do not own.
    fn fetch_rows(&mut self, requester: usize, owner: usize, ids: &[u32]) -> (Vec<Vec<f32>>, u64) {
        let version = self.store.version();
        let request = ServeRequest { version, ids: ids.to_vec() };
        self.network.send(requester, owner, Channel::Control, request.wire_size() as u64);
        let reply = match self.config.fetch_bits {
            None => ServeReply::Exact { version, rows: self.store.gather(ids) },
            Some(bits) => ServeReply::RowQuantized {
                version,
                rows: ids
                    .iter()
                    .map(|&v| Quantized::compress_row(self.store.row(v as usize), bits))
                    .collect(),
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
            ServeReply::Exact { rows, .. } => {
                (0..rows.rows()).map(|r| rows.row(r).to_vec()).collect()
            }
            ServeReply::RowQuantized { rows, .. } => rows
                .iter()
                .map(|q| {
                    let mut row = vec![0.0f32; q.shape().1];
                    q.decompress_into(&mut row);
                    row
                })
                .collect(),
        };
        (rows, wire)
    }

    /// Answers one dispatched batch on `worker`: the final-layer output
    /// (logits) row for every queried vertex, in request order, plus the
    /// batch's simulated cost. The batch is one network superstep.
    ///
    /// # Errors
    /// Returns a [`ServeError`] when a vertex is out of range or not owned
    /// by `worker`; the batch is rejected before any state changes.
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
        // `&mut self` cache/fetch calls below.
        let adj_last = Arc::clone(&self.adjs[self.model.num_layers() - 1]);
        let version = self.store.version();
        let mut cost = BatchCost::default();

        // 1. The batch's distinct neighbor set (ascending — deterministic).
        let mut needed: BTreeSet<u32> = BTreeSet::new();
        for &v in ids {
            needed.extend(adj_last.row_entries(v as usize).map(|(c, _)| c as u32));
        }

        // 2. Resolve each neighbor: own shard, cache, or fetch list.
        let mut remote_rows: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
        let mut fetch_by_owner: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &c in &needed {
            let owner = self.store.owner(c as usize);
            if owner == worker {
                continue;
            }
            if let Some(row) = self.caches[worker].get(c) {
                cost.cache_hits += 1;
                remote_rows.insert(c, row.to_vec());
            } else {
                cost.cache_misses += 1;
                fetch_by_owner.entry(owner).or_default().push(c);
            }
        }

        // 3. Fetch the misses, owner by owner, and fill the cache.
        for (owner, fetch_ids) in std::mem::take(&mut fetch_by_owner) {
            let (rows, wire) = self.fetch_rows(worker, owner, &fetch_ids);
            cost.fetch_bytes += wire;
            cost.fetch_rows += fetch_ids.len() as u64;
            for (&c, row) in fetch_ids.iter().zip(rows) {
                self.caches[worker].insert(c, row.clone());
                remote_rows.insert(c, row);
            }
        }
        cost.comm_s = self.network.flush_superstep();

        // 4. Final-layer compute, replaying the training kernels' element
        //    order. Each distinct neighbor is projected once per batch.
        let k = self.store.dim();
        let out_dim = self.model.output_dim();
        let mut flops = 0u64;
        let mut xw: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
        for &c in &needed {
            let h: &[f32] = if self.store.owner(c as usize) == worker {
                self.store.row(c as usize)
            } else {
                remote_rows.get(&c).map_or(&[], Vec::as_slice)
            };
            xw.insert(c, self.model.project_row(h));
            flops += 2 * (k * out_dim) as u64;
        }
        static EMPTY: &[f32] = &[];
        let mut out = Matrix::zeros(ids.len(), out_dim);
        for (i, &v) in ids.iter().enumerate() {
            let self_term = self.model.project_self_row(self.store.row(v as usize));
            if self_term.is_some() {
                flops += 2 * (k * out_dim) as u64;
            }
            let row = self.model.output_row(
                &adj_last,
                v as usize,
                |c| xw.get(&(c as u32)).map_or(EMPTY, Vec::as_slice),
                self_term.as_deref(),
            );
            flops += (2 * adj_last.row_entries(v as usize).count() * out_dim + out_dim) as u64;
            out.set_row(i, &row);
        }
        let straggle = self.network.faults().map_or(1.0, |inj| inj.straggler_factor(worker));
        cost.compute_s =
            flops as f64 * self.config.secs_per_flop * straggle + self.config.batch_overhead_s;

        // 5. Serving metrics (pure observation; never feeds back).
        let wl = labels(&[version, worker as u32]);
        self.telemetry.add(MetricId::ServeCacheHit, wl, cost.cache_hits);
        self.telemetry.add(MetricId::ServeCacheMiss, wl, cost.cache_misses);
        self.telemetry.observe(MetricId::ServeBatchOccupancy, wl, ids.len() as f64);
        Ok((out, cost))
    }

    /// Convenience wrapper: argmax class predictions for a batch.
    ///
    /// # Errors
    /// Same contract as [`Self::answer_batch`].
    pub fn predict(
        &mut self,
        worker: usize,
        ids: &[u32],
    ) -> Result<(Vec<u32>, BatchCost), ServeError> {
        let (logits, cost) = self.answer_batch(worker, ids)?;
        let classes = (0..logits.rows())
            .map(|r| {
                let row = logits.row(r);
                let mut best = 0usize;
                for (j, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = j;
                    }
                }
                best as u32
            })
            .collect();
        Ok((classes, cost))
    }
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
