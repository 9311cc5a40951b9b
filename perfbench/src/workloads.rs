//! The workloads. Every size lives here: nothing is read from the
//! `ec_bench` library, whose bench-scale constants later changes may
//! retune. `--seed` drives replica generation, weight initialisation and
//! the load generator; the program only ever sees the generated inputs.
//!
//! Each workload is one dataset replica that is trained *and* served, so
//! every end-to-end metric applies to every workload (ROADMAP aim 1: the
//! triple per replica). The train and serve halves are chosen so that each
//! optimisation target has one workload that exercises it and one that
//! bypasses it; the `why` strings say which.

use ec_graph::config::{BpMode, FpMode};

/// Trend-group length of every ReqEC workload (the paper's `T_tr`); also
/// the number of warm-up epochs dropped from each repetition's timings,
/// because the first trend group ships exact rows and does other work.
pub const T_TR: usize = 10;

/// Epochs of training behind the checkpoint the serve half loads.
pub const SERVE_TRAIN_EPOCHS: usize = 5;

/// Closed-loop clients of every serve half (each waits for its reply
/// before thinking and issuing again).
pub const CLIENTS: usize = 64;

/// Rows of `answer_batch` output compared against the full forward pass.
pub const SAMPLED_ROWS: usize = 1000;

/// How the trained model is served.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Zipf popularity exponent (0 = uniform: the cache churns).
    pub zipf: f64,
    /// Per-row quantized fetches at this width; `None` ships exact rows.
    pub fetch_bits: Option<u8>,
    /// Requests per repetition of the closed loop: enough for 100 samples
    /// beyond the 99th percentile, and few enough that a repetition lasts
    /// well under a second, so several fit between two bursts of
    /// interference from the host's other tenants.
    pub requests: u64,
}

/// One replica with its training and serving configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in every output row.
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// `DatasetSpec` replica name.
    pub dataset: &'static str,
    /// Vertices instantiated.
    pub vertices: usize,
    /// Input feature width instantiated.
    pub feature_dim: usize,
    /// Hidden widths; the model is `[feature_dim, hidden.., classes]`.
    pub hidden: &'static [usize],
    /// Simulated workers (training and serving share the partition).
    pub workers: usize,
    /// Forward-pass traffic mode.
    pub fp: FpMode,
    /// Backward-pass traffic mode.
    pub bp: BpMode,
    /// Bit widths the layer replays use. Equal to the configured widths
    /// for compressed workloads; for the exact twin they are its
    /// compressed twin's, so the codec rows say what compression *would*
    /// cost on these shapes.
    pub replay_bits: (u8, u8),
    /// Fixed epoch budget of one training repetition.
    pub epochs: usize,
    /// Validation accuracy `core.time_to_target_sim_s` waits for: 0.95 ×
    /// the plateau validation accuracy (median over seeds 1–10) at the
    /// commit that defined the benchmark; the exact twin's plateau for a
    /// compressed workload that has one.
    pub target_val_acc: f64,
    /// The serve half.
    pub serve: ServeSpec,
}

const fn reqec(bits: u8) -> FpMode {
    FpMode::ReqEc { bits, t_tr: T_TR, adaptive: true }
}

/// All workloads, in the order they are run and listed.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "cora-ec",
        why: "tiny blocks, ~W^2 small messages per superstep: fixed costs (dispatch, PS, per-message latency, allocation) dominate; serve is hit-heavy Zipf with exact rows",
        dataset: "cora",
        vertices: 2_708,
        feature_dim: 256,
        hidden: &[16],
        workers: 6,
        fp: reqec(2),
        bp: BpMode::ResEc { bits: 2 },
        replay_bits: (2, 2),
        epochs: 100,
        target_val_acc: 0.81,
        serve: ServeSpec { zipf: 0.9, fetch_bits: None, requests: 100_000 },
    },
    Workload {
        name: "reddit-ec",
        why: "dense graph, 602-wide features: SpMM and X*W dominate training; serve is uniform popularity with 8-bit rows, so cache insert/evict and per-row codecs dominate",
        dataset: "reddit",
        vertices: 2_048,
        feature_dim: 602,
        hidden: &[16],
        workers: 6,
        fp: reqec(2),
        bp: BpMode::ResEc { bits: 4 },
        replay_bits: (2, 4),
        epochs: 30,
        target_val_acc: 0.87,
        serve: ServeSpec { zipf: 0.0, fetch_bits: Some(8), requests: 10_000 },
    },
    Workload {
        name: "products-ec",
        why: "3 layers, two 64-wide exchanges each way over dense remote neighbourhoods: gather, Selector, quantize+pack are about half of host time; serve fetches 8-bit rows",
        dataset: "products",
        vertices: 2_048,
        feature_dim: 100,
        hidden: &[64, 64],
        workers: 6,
        fp: reqec(4),
        bp: BpMode::ResEc { bits: 4 },
        replay_bits: (4, 4),
        epochs: 60,
        target_val_acc: 0.79,
        serve: ServeSpec { zipf: 0.9, fetch_bits: Some(8), requests: 10_000 },
    },
    Workload {
        name: "products-exact",
        why: "same graph, model and seed with exact traffic in training and serving: Selector and codecs bypassed, 4x the bytes; a codec change predicts no change here",
        dataset: "products",
        vertices: 2_048,
        feature_dim: 100,
        hidden: &[64, 64],
        workers: 6,
        fp: FpMode::Exact,
        bp: BpMode::Exact,
        replay_bits: (4, 4),
        epochs: 60,
        target_val_acc: 0.79,
        serve: ServeSpec { zipf: 0.9, fetch_bits: None, requests: 10_000 },
    },
    Workload {
        name: "pubmed-ec",
        why: "large sparse graph, working set far beyond the 288-row cache: serve is the event loop, batching and cache lookups at ~2 rows per request; training is long thin blocks",
        dataset: "pubmed",
        vertices: 19_717,
        feature_dim: 128,
        hidden: &[16],
        workers: 4,
        fp: reqec(2),
        bp: BpMode::ResEc { bits: 2 },
        replay_bits: (2, 2),
        epochs: 25,
        target_val_acc: 0.80,
        serve: ServeSpec { zipf: 0.9, fetch_bits: None, requests: 100_000 },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// Whether either traffic direction is compressed.
    pub fn compressed(&self) -> bool {
        self.fp != FpMode::Exact || self.bp != BpMode::Exact
    }

    /// The same workload at roughly 1/20 of its size, for `--smoke`: a
    /// twentieth of the requests, a tenth of the epochs (never fewer than
    /// one trend group plus two measured epochs) and an eighth of the
    /// vertices, which together cut the work by about that factor.
    pub fn smoke(&self) -> Workload {
        Workload {
            vertices: (self.vertices / 8).max(256),
            epochs: (self.epochs / 10).max(T_TR + 2),
            serve: ServeSpec { requests: (self.serve.requests / 20).max(500), ..self.serve },
            ..*self
        }
    }
}
