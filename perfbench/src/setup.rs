//! Set-up: everything a user pays before the first measured epoch or
//! request — replica generation, partitioning, adjacency normalisation,
//! `DistributedEngine::new`, and for the serve half the brief training,
//! checkpoint save, `ModelWeights::load` and `InferenceService::new`.
//! Each stage is one span and one timing, so work moved into set-up shows.

use crate::trace::Tracer;
use crate::workloads::{Workload, CLIENTS, SERVE_TRAIN_EPOCHS};
use ec_graph::config::{ComputeConfig, ModelKind, TrainingConfig};
use ec_graph::engine::{DistributedEngine, EngineSnapshot};
use ec_graph::infer::ModelWeights;
use ec_graph_data::{normalize, AttributedGraph, DatasetSpec};
use ec_partition::{hash::HashPartitioner, Partition, Partitioner};
use ec_serve::{InferenceService, ServeConfig, WorkloadConfig};
use ec_tensor::CsrMatrix;
use ec_trace::{TelemetryConfig, TelemetryLevel};
use std::path::PathBuf;
use std::sync::Arc;

/// Host seconds of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub generate_s: f64,
    pub partition_s: f64,
    pub normalize_s: f64,
    pub engine_new_s: f64,
    pub brief_train_s: f64,
    pub checkpoint_save_s: f64,
    pub model_load_s: f64,
    pub service_new_s: f64,
}

impl StageTimes {
    /// The `setup_s` metric: all stages.
    pub fn total_s(&self) -> f64 {
        self.generate_s
            + self.partition_s
            + self.normalize_s
            + self.engine_new_s
            + self.brief_train_s
            + self.checkpoint_save_s
            + self.model_load_s
            + self.service_new_s
    }
}

/// The generated inputs of one workload at one seed.
#[derive(Clone)]
pub struct Inputs {
    pub data: Arc<AttributedGraph>,
    pub partition: Arc<Partition>,
    /// One normalised adjacency per layer (the same `Arc`, full batch).
    pub adjs: Vec<Arc<CsrMatrix>>,
    /// `[feature_dim, hidden.., classes]`.
    pub dims: Vec<usize>,
}

/// A workload ready to measure: engine at epoch 0, model and service from
/// the brief training's checkpoint.
pub struct Built {
    pub inputs: Inputs,
    pub engine: DistributedEngine,
    /// The engine's state at epoch 0; every repetition restarts from it.
    pub epoch0: EngineSnapshot,
    pub model: ModelWeights,
    pub service: InferenceService,
    pub stages: StageTimes,
}

/// Directory for files a run leaves behind (checkpoint scratch, span
/// files): `out/` inside the benchmark's own directory — where the package
/// was built from, which for the driver is its checkout — git-ignored.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

/// Training configuration of `w`: the `TrainingConfig::defaults` a CLI
/// user gets, with the workload's model, traffic modes and seed.
pub fn training_config(
    w: &Workload,
    dims: &[usize],
    seed: u64,
    compute: ComputeConfig,
    telemetry: TelemetryLevel,
) -> TrainingConfig {
    TrainingConfig {
        dims: dims.to_vec(),
        num_workers: w.workers,
        fp_mode: w.fp,
        bp_mode: w.bp,
        seed,
        compute,
        telemetry: TelemetryConfig::at(telemetry),
        max_epochs: w.epochs,
        ..TrainingConfig::defaults(dims[0], dims[dims.len() - 1])
    }
}

/// Serving configuration of `w`: `ServeConfig::defaults` (256-row LRU, 32
/// pinned rows, batches of 8 or 2 ms) with the workload's fetch width.
/// Store materialisation is pinned to one kernel thread like the rest of
/// the end-to-end run.
pub fn serve_config(w: &Workload, telemetry: TelemetryLevel) -> ServeConfig {
    ServeConfig {
        fetch_bits: w.serve.fetch_bits,
        kernel_threads: 1,
        telemetry: TelemetryConfig::at(telemetry),
        ..ServeConfig::defaults(w.workers)
    }
}

/// The closed loop driving the serve half: 64 clients, 1 ms mean think
/// time and the default bursts, the workload's popularity and request
/// count, seeded from `--seed`.
pub fn load_config(w: &Workload, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        clients: CLIENTS,
        total_requests: w.serve.requests,
        zipf_exponent: w.serve.zipf,
        seed,
        ..WorkloadConfig::defaults()
    }
}

/// Generates the replica, partitions it and normalises the adjacency.
pub fn generate(w: &Workload, seed: u64, tracer: &mut Tracer, stages: &mut StageTimes) -> Inputs {
    let spec = DatasetSpec::all()
        .into_iter()
        .find(|s| s.name == w.dataset)
        .unwrap_or_else(|| panic!("workload {} names unknown dataset {}", w.name, w.dataset));
    let (data, secs) = tracer
        .timed("graph", "generate", || spec.instantiate_with(w.vertices, w.feature_dim, seed));
    stages.generate_s = secs;
    let (partition, secs) = tracer.timed("partition", "hash", || {
        HashPartitioner::default().partition(&data.graph, w.workers)
    });
    stages.partition_s = secs;
    let (adj, secs) =
        tracer.timed("graph", "normalize", || normalize::gcn_normalized_adjacency(&data.graph));
    stages.normalize_s = secs;
    let mut dims = vec![data.feature_dim()];
    dims.extend_from_slice(w.hidden);
    dims.push(data.num_classes);
    let adj = Arc::new(adj);
    Inputs {
        data: Arc::new(data),
        partition: Arc::new(partition),
        adjs: vec![adj; dims.len() - 1],
        dims,
    }
}

/// A fresh engine over `inputs`.
pub fn new_engine(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    compute: ComputeConfig,
    telemetry: TelemetryLevel,
) -> DistributedEngine {
    DistributedEngine::new(
        Arc::clone(&inputs.data),
        inputs.adjs.clone(),
        (*inputs.partition).clone(),
        training_config(w, &inputs.dims, seed, compute, telemetry),
    )
}

/// A fresh serving cluster for `model` over `inputs`.
pub fn new_service(
    w: &Workload,
    inputs: &Inputs,
    model: &ModelWeights,
    telemetry: TelemetryLevel,
) -> InferenceService {
    InferenceService::new(
        model.clone(),
        Arc::clone(&inputs.data),
        inputs.adjs.clone(),
        Arc::clone(&inputs.partition),
        serve_config(w, telemetry),
    )
}

/// The whole set-up, once, with sequential compute and telemetry off.
pub fn build(w: &Workload, seed: u64, tracer: &mut Tracer) -> Built {
    tracer.enter("bench", "setup");
    let mut stages = StageTimes::default();
    let inputs = generate(w, seed, tracer, &mut stages);
    let (mut engine, secs) = tracer.timed("core", "engine_new", || {
        new_engine(w, &inputs, seed, ComputeConfig::sequential(), TelemetryLevel::Off)
    });
    stages.engine_new_s = secs;
    let epoch0 = engine.snapshot();

    // Serve half: a few epochs, through a checkpoint on disk — the
    // deployment path, where the server never holds a trainer.
    let ((), secs) = tracer.timed("core", "brief_train", || {
        for _ in 0..SERVE_TRAIN_EPOCHS {
            engine.run_epoch();
        }
    });
    stages.brief_train_s = secs;
    let ckpt = out_dir().join(format!("{}-{}-{seed}.ckpt", w.name, std::process::id()));
    let (saved, secs) = tracer.timed("core", "save_checkpoint", || engine.save_checkpoint(&ckpt));
    saved.expect("save checkpoint");
    stages.checkpoint_save_s = secs;
    let (model, secs) =
        tracer.timed("core", "model_load", || ModelWeights::load(&ckpt, ModelKind::Gcn));
    let model = model.expect("load checkpoint");
    stages.model_load_s = secs;
    let _ = std::fs::remove_file(&ckpt);
    let (service, secs) = tracer
        .timed("serve", "service_new", || new_service(w, &inputs, &model, TelemetryLevel::Off));
    stages.service_new_s = secs;

    engine.restore(&epoch0).expect("restore epoch-0 snapshot");
    tracer.exit();
    Built { inputs, engine, epoch0, model, service, stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    #[test]
    fn same_seed_generates_identical_inputs_and_another_seed_differs() {
        let w = ALL[0].smoke();
        let mut tracer = Tracer::new(w.name, false);
        let gen =
            |seed: u64, tracer: &mut Tracer| generate(&w, seed, tracer, &mut StageTimes::default());
        let (a, b, c) = (gen(7, &mut tracer), gen(7, &mut tracer), gen(8, &mut tracer));
        assert_eq!(a.data.graph, b.data.graph);
        assert_eq!(a.data.features, b.data.features);
        assert_eq!(a.data.labels, b.data.labels);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
        assert_eq!(a.dims, b.dims);
        assert_ne!(a.data.graph, c.data.graph);
        assert_ne!(a.data.features, c.data.features);
    }

    #[test]
    fn same_seed_issues_identical_requests() {
        use rand::{rngs::SmallRng, SeedableRng};
        let w = ALL[0].smoke();
        let draw = |seed: u64| {
            let cfg = load_config(&w, seed);
            let zipf = ec_serve::loadgen::ZipfSampler::new(w.vertices, cfg.zipf_exponent, cfg.seed);
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            (0..64).map(|_| zipf.sample(&mut rng)).collect::<Vec<u32>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
