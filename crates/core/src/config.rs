//! Training configuration for the distributed engine.

use crate::context::Direction;
use ec_comm::ps::AdamParams;
use ec_comm::{NetworkModel, ParameterServerGroup};
use ec_faults::FaultPlan;

/// Which GNN model the distributed engine trains.
///
/// The paper's claim that "other GNN models … can be integrated into
/// EC-Graph straightforwardly" holds because they exchange the same two
/// message types (neighbour embeddings in FP, embedding gradients in BP);
/// [`ModelKind::Sage`] demonstrates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Graph convolutional network (the paper's evaluation model):
    /// `H^l = σ(Â (H^{l-1} W) + b)`.
    Gcn,
    /// GraphSAGE with the GCN-normalized aggregator and a separate root
    /// transform: `H^l = σ(Â (H^{l-1} W_n) + H^{l-1} W_s + b)`.
    Sage,
}

/// Forward-pass treatment of remote embedding messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FpMode {
    /// Uncompressed `f32` embeddings (the paper's *Non-cp*).
    Exact,
    /// B-bit bucket quantization without compensation (*Cp-fp-B*).
    Compressed {
        /// Quantization bit width.
        bits: u8,
    },
    /// Requesting-end error compensation (*ReqEC-FP-B*), Section IV-B.
    ReqEc {
        /// Initial quantization bit width.
        bits: u8,
        /// Trend-group length `T_tr` (the paper uses 10).
        t_tr: usize,
        /// Enables the adaptive Bit-Tuner (*ReqEC-adapt*).
        adaptive: bool,
    },
    /// DistGNN-style delayed partial aggregation: each epoch only `1/r` of
    /// the cached remote embeddings are refreshed (uncompressed); the rest
    /// stay stale.
    Delayed {
        /// Refresh period `r` (the paper sets `r = 5` for DistGNN).
        r: usize,
    },
}

/// Backward-pass treatment of remote embedding-gradient messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BpMode {
    /// Uncompressed `f32` gradients.
    Exact,
    /// B-bit quantization without compensation (*Cp-bp-B*).
    Compressed {
        /// Quantization bit width.
        bits: u8,
    },
    /// Responding-end error compensation (*ResEC-BP-B*), Section IV-C.
    ResEc {
        /// Quantization bit width.
        bits: u8,
    },
    /// Top-k sparsification with error feedback — the related-work
    /// comparator ("Sparsified SGD with Memory", the paper's [32]).
    TopkEc {
        /// Fraction of gradient coordinates kept per message.
        ratio: f32,
    },
}

/// How the engine reacts when a forward-pass embedding fetch fails
/// (dropped or corrupted under fault injection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResiliencePolicy {
    /// Keep retrying until the message arrives; every failed attempt is
    /// charged to the simulated clock (the conventional baseline).
    #[default]
    RetryOnly,
    /// After `max_attempts` failures, substitute the ReqEC-FP predicted
    /// candidate `Ĥ_pdt = H_base + M_cr · k` for the missing message — zero
    /// payload, zero further waiting. Falls back to retrying for traffic
    /// that has no trend state (exact modes, trend boundaries, gradients).
    EcDegrade,
}

/// Resilience knobs for training under an active [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Reaction to failed forward-pass fetches.
    pub policy: ResiliencePolicy,
    /// Transmission attempts before the policy's fallback engages.
    pub max_attempts: u32,
    /// Snapshot the full engine state every this many epochs (crash
    /// recovery restarts from the latest snapshot). `0` disables periodic
    /// checkpoints; a crash then replays from epoch 0.
    pub checkpoint_every: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self { policy: ResiliencePolicy::RetryOnly, max_attempts: 3, checkpoint_every: 0 }
    }
}

/// Intra-process parallelism of the simulated cluster.
///
/// Both level counts are *real-machine* knobs with zero effect on any
/// simulated quantity: worker compute blocks are independent between
/// superstep barriers, and the kernels in [`ec_tensor::parallel`] are
/// bit-identical to their sequential counterparts, so every run report is
/// byte-identical whatever the thread counts (enforced by
/// `tests/determinism_suite.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComputeConfig {
    /// Threads running worker compute blocks concurrently inside each
    /// superstep: `0` = auto (machine parallelism, capped at the worker
    /// count), `1` = sequential (the historical behavior).
    pub worker_threads: usize,
    /// Threads inside each dense/sparse kernel invocation: `0` = auto
    /// (machine parallelism divided by the resolved worker threads), `1` =
    /// sequential.
    pub kernel_threads: usize,
}

impl ComputeConfig {
    /// Fully sequential execution — today's single-threaded semantics,
    /// byte-identical to every other setting but with deterministic-ish
    /// scheduling that is easiest to profile.
    pub fn sequential() -> Self {
        Self { worker_threads: 1, kernel_threads: 1 }
    }

    /// Resolves `(worker_threads, kernel_threads)` for `num_workers`
    /// simulated workers: auto worker threads cap at the worker count, auto
    /// kernel threads divide the remaining machine parallelism, and *both*
    /// levels — explicit or auto — cap at the physical parallelism the
    /// shared [`ec_tensor::pool`] reported at construction. Requesting 8
    /// threads on a 2-core host therefore runs 2, never 8 time-sliced
    /// lanes: oversubscription only adds context-switch cost, and the
    /// self-timed compute blocks would report inflated wall clocks.
    pub fn resolve(&self, num_workers: usize) -> (usize, usize) {
        let machine = ec_tensor::parallel::effective_threads(0);
        let wt = if self.worker_threads == 0 { machine } else { self.worker_threads.min(machine) }
            .min(num_workers.max(1));
        let kt = if self.kernel_threads == 0 {
            (machine / wt.max(1)).max(1)
        } else {
            self.kernel_threads.min(machine)
        };
        (wt.max(1), kt.max(1))
    }
}

/// Full configuration of one distributed training run.
#[derive(Clone, Debug)]
pub struct TrainingConfig {
    /// Layer dimensions `[d₀, h₁, …, C]` (`len - 1` GCN layers).
    pub dims: Vec<usize>,
    /// Model variant (GCN by default).
    pub model: ModelKind,
    /// Number of workers (machines holding graph partitions).
    pub num_workers: usize,
    /// Forward compression mode.
    pub fp_mode: FpMode,
    /// Selector granularity for ReqEC-FP (the paper picks vertex-wise).
    pub reqec_granularity: crate::fp::Granularity,
    /// Backward compression mode.
    pub bp_mode: BpMode,
    /// Optimizer hyper-parameters (server-side Adam).
    pub adam: AdamParams,
    /// Network timing model for the simulated cluster.
    pub network: NetworkModel,
    /// Fault-injection plan for the simulated cluster
    /// ([`FaultPlan::none`] = the ideal, loss-free network).
    pub faults: FaultPlan,
    /// Reaction to injected faults (ignored when `faults` is none).
    pub resilience: ResilienceConfig,
    /// Intra-process parallelism (worker-level and kernel-level threads);
    /// affects wall-clock only, never simulated results.
    pub compute: ComputeConfig,
    /// Observability level and span-ring sizing ([`ec_trace::TelemetryLevel::Off`]
    /// by default); recording never perturbs training results.
    pub telemetry: ec_trace::TelemetryConfig,
    /// Seed for weight initialization.
    pub seed: u64,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Early-stop patience: stop when validation accuracy has not improved
    /// for this many epochs (`None` disables early stopping).
    pub patience: Option<usize>,
    /// Evaluate accuracy every this many epochs (1 = every epoch).
    pub eval_every: usize,
}

impl TrainingConfig {
    /// A reasonable default for a dataset with `d0` input features and
    /// `classes` output classes: the paper's 2-layer, 16-hidden setup.
    pub fn defaults(d0: usize, classes: usize) -> Self {
        Self {
            dims: vec![d0, 16, classes],
            model: ModelKind::Gcn,
            num_workers: 6,
            fp_mode: FpMode::Exact,
            reqec_granularity: crate::fp::Granularity::Vertex,
            bp_mode: BpMode::Exact,
            adam: AdamParams::default(),
            network: NetworkModel::gigabit_ethernet(),
            faults: FaultPlan::none(),
            resilience: ResilienceConfig::default(),
            compute: ComputeConfig::default(),
            telemetry: ec_trace::TelemetryConfig::default(),
            seed: 1,
            max_epochs: 200,
            patience: None,
            eval_every: 1,
        }
    }

    /// Number of GCN layers `L`.
    pub fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// The `(fan_in, fan_out)` weight shapes, layer-major.
    pub fn layer_shapes(&self) -> Vec<(usize, usize)> {
        self.dims.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Whether the exchange of layer `l` in direction `dir` ships the
    /// transformed side of the layer: forward `P = H^{l-1}·W^{l-1}`
    /// (`dims[l]` wide) instead of `H^{l-1}` (`dims[l-1]` wide), backward
    /// `Q = G^l·(W^{l-1})ᵀ` (`dims[l-1]` wide) instead of `G^l` (`dims[l]`
    /// wide). Since `Â·(H·W) = (Â·H)·W` and `Â·(G·Wᵀ) = (Â·G)·Wᵀ`, either
    /// gives the requester the same result; the strictly narrower one ships,
    /// and a tie keeps the untransformed side. So forward `P` ships where a
    /// layer narrows and backward `Q` where it widens, never both. The
    /// adaptive Bit-Tuner keeps one width per pair, tuned at the top layer
    /// and used at every forward exchange layer, so under it `P` ships only
    /// where every exchange layer ships `P`: a `P` layer never sets the
    /// width of an `H` one. Layer 1 exchanges nothing.
    pub fn ships_transformed(&self, dir: Direction, l: usize) -> bool {
        let exchanges = 2..=self.num_layers();
        let narrows = |l: usize| self.dims[l] < self.dims[l - 1];
        let adaptive = matches!(self.fp_mode, FpMode::ReqEc { adaptive: true, .. });
        exchanges.contains(&l)
            && match dir {
                Direction::Forward => narrows(l) && (!adaptive || exchanges.clone().all(narrows)),
                Direction::Backward => self.dims[l - 1] < self.dims[l],
            }
    }

    /// The parameter servers a run of this configuration starts from: one
    /// Xavier-initialized slot per layer, seeded from [`Self::seed`], and for
    /// GraphSAGE the second (root/self) transform of layer `l` at slot
    /// `L + l`, range-split into one shard per worker and updated by
    /// server-side Adam with [`Self::adam`].
    pub fn parameter_servers(&self) -> ParameterServerGroup {
        let mut shapes = self.layer_shapes();
        if self.model == ModelKind::Sage {
            shapes.extend(self.layer_shapes());
        }
        ParameterServerGroup::new(&shapes, self.num_workers, self.adam, self.seed)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.dims.len() < 2 || self.dims.contains(&0) {
            return Err(format!("need at least one layer and positive widths: {:?}", self.dims));
        }
        if self.num_workers == 0 {
            return Err("need at least one worker".into());
        }
        if self.eval_every == 0 {
            return Err("eval_every must be positive".into());
        }
        let check_bits = |bits: u8| -> Result<(), String> {
            if !(1..=ec_compress::MAX_BITS).contains(&bits) {
                Err(format!("bit width {bits} out of range"))
            } else {
                Ok(())
            }
        };
        match self.fp_mode {
            FpMode::Compressed { bits } => check_bits(bits)?,
            FpMode::ReqEc { bits, t_tr, .. } => {
                check_bits(bits)?;
                if t_tr < 2 {
                    return Err("T_tr must be at least 2".into());
                }
            }
            FpMode::Delayed { r } => {
                if r == 0 {
                    return Err("delay period must be positive".into());
                }
            }
            FpMode::Exact => {}
        }
        match self.bp_mode {
            BpMode::Compressed { bits } | BpMode::ResEc { bits } => check_bits(bits)?,
            BpMode::TopkEc { ratio } => {
                if !(ratio > 0.0 && ratio <= 1.0) {
                    return Err(format!("top-k ratio {ratio} out of (0, 1]"));
                }
            }
            BpMode::Exact => {}
        }
        self.faults.validate()?;
        if self.resilience.max_attempts == 0 {
            return Err("resilience.max_attempts must be positive".into());
        }
        for crash in &self.faults.crashes {
            if crash.worker >= self.num_workers {
                return Err(format!(
                    "crash event targets worker {} but only {} exist",
                    crash.worker, self.num_workers
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(TrainingConfig::defaults(16, 3).validate().is_ok());
    }

    #[test]
    fn layer_accessors() {
        let c = TrainingConfig { dims: vec![8, 16, 16, 4], ..TrainingConfig::defaults(8, 4) };
        assert_eq!(c.num_layers(), 3);
        assert_eq!(c.layer_shapes(), vec![(8, 16), (16, 16), (16, 4)]);
    }

    #[test]
    fn validation_catches_bad_bits() {
        let mut c = TrainingConfig::defaults(8, 2);
        c.fp_mode = FpMode::Compressed { bits: 0 };
        assert!(c.validate().is_err());
        c.fp_mode = FpMode::Compressed { bits: 17 };
        assert!(c.validate().is_err());
        c.fp_mode = FpMode::ReqEc { bits: 2, t_tr: 1, adaptive: false };
        assert!(c.validate().is_err());
        c.fp_mode = FpMode::Delayed { r: 0 };
        assert!(c.validate().is_err());
        let mut c = TrainingConfig::defaults(8, 2);
        c.bp_mode = BpMode::TopkEc { ratio: 0.0 };
        assert!(c.validate().is_err());
        c.bp_mode = BpMode::TopkEc { ratio: 1.5 };
        assert!(c.validate().is_err());
        c.bp_mode = BpMode::TopkEc { ratio: 0.1 };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_resilience() {
        let mut c = TrainingConfig::defaults(8, 2);
        c.resilience.max_attempts = 0;
        assert!(c.validate().is_err());
        let mut c = TrainingConfig::defaults(8, 2);
        c.faults = FaultPlan::uniform_drop(1, 2.0);
        assert!(c.validate().is_err(), "probabilities above 1 must be rejected");
        let mut c = TrainingConfig::defaults(8, 2);
        c.faults = FaultPlan::none().with_crash(c.num_workers, 3);
        assert!(c.validate().is_err(), "crash must target an existing worker");
        c.faults = FaultPlan::none().with_crash(0, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn compute_config_resolution() {
        // Explicit counts pass through up to the physical parallelism of
        // the host (and workers cap the worker level) — the assertions are
        // phrased against `machine` so they hold on any core count.
        let machine = ec_tensor::parallel::effective_threads(0);
        assert_eq!(
            ComputeConfig { worker_threads: 3, kernel_threads: 2 }.resolve(8),
            (3.min(machine), 2.min(machine))
        );
        assert_eq!(
            ComputeConfig { worker_threads: 16, kernel_threads: 1 }.resolve(4),
            (4.min(machine), 1)
        );
        assert_eq!(ComputeConfig::sequential().resolve(6), (1, 1));
        // Oversubscription never survives resolution.
        let (wt, kt) = ComputeConfig { worker_threads: 1024, kernel_threads: 1024 }.resolve(2048);
        assert!(wt <= machine && kt <= machine);
        // Auto resolves to at least one thread per level.
        let (wt, kt) = ComputeConfig::default().resolve(4);
        assert!((1..=4).contains(&wt));
        assert!(kt >= 1);
    }

    #[test]
    fn validation_catches_structural_errors() {
        let mut c = TrainingConfig::defaults(8, 2);
        c.dims = vec![8];
        assert!(c.validate().is_err());
        let mut c = TrainingConfig::defaults(8, 2);
        c.num_workers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_zero_width_layer() {
        for dims in [vec![0, 16, 2], vec![8, 0, 2], vec![8, 16, 16, 0]] {
            let c = TrainingConfig { dims: dims.clone(), ..TrainingConfig::defaults(8, 2) };
            let err = c.validate().unwrap_err();
            assert!(err.contains("positive widths"), "{dims:?}: {err}");
        }
    }
}
