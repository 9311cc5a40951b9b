//! Parameter servers — the paper's Parameter Manager (PM).
//!
//! "PM divides GNN parameters onto m servers according to some user-defined
//! partition strategy. By default, we implement a built-in range-based
//! partition method, which divides the weights W and biases B of each layer
//! evenly." Here `m` is the worker count and shard `s` lives on worker `s`'s
//! node. Each epoch every shard owner sends every other worker its slices
//! of all slots in one unrequested round, and workers push gradients after
//! the backward pass; "the servers receive gradients from each worker, add
//! them up to obtain the global gradients, and update the weights with the
//! global gradients" using Adam.
//!
//! The slices held by individual shards are mathematically independent, so
//! the group updates each layer's full matrix in one pass; the range split
//! only matters for wire accounting, exposed via
//! [`ParameterServerGroup::shard_wire_sizes`].

use ec_tensor::{init, Matrix};

/// Why loading or restoring parameter-server state failed.
///
/// [`read_weights`], `load_weights` and `restore` run on the
/// crash-recovery and serving paths, so they report malformed input through
/// this type instead of panicking (the crate root denies `unwrap`, `expect`
/// and `panic!`).
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The input ended before the named field could be read.
    Truncated(&'static str),
    /// The checkpoint or snapshot holds a different number of layers than
    /// this group.
    LayerCount {
        /// Layer count found in the checkpoint or snapshot.
        found: usize,
        /// Layer count of the group being restored.
        expected: usize,
    },
    /// A layer's weight or bias shape does not match this group's.
    ShapeMismatch,
    /// A serialized matrix failed to decode.
    Decode(String),
    /// A recovery was requested but the named checkpoint does not exist.
    Missing(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated(what) => write!(f, "checkpoint truncated: {what}"),
            CheckpointError::LayerCount { found, expected } => {
                write!(f, "checkpoint has {found} layers, expected {expected}")
            }
            CheckpointError::ShapeMismatch => write!(f, "checkpoint shape mismatch"),
            CheckpointError::Decode(msg) => write!(f, "checkpoint decode error: {msg}"),
            CheckpointError::Missing(what) => write!(f, "no checkpoint to restore: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<String> for CheckpointError {
    fn from(msg: String) -> Self {
        CheckpointError::Decode(msg)
    }
}

/// Decodes a weights file written by
/// [`ParameterServerGroup::save_weights`]: a little-endian `u32` slot count,
/// then one `(W, b)` matrix pair per slot. The result grows one decoded slot
/// at a time, so a hostile count costs no more memory than the file's own
/// bytes can fill.
///
/// # Errors
/// [`CheckpointError::Truncated`] when the count itself is cut off, and
/// [`CheckpointError::Decode`] when a slot does not decode.
pub fn read_weights(bytes: &[u8]) -> Result<Vec<(Matrix, Vec<f32>)>, CheckpointError> {
    let (count, mut rest) =
        bytes.split_first_chunk::<4>().ok_or(CheckpointError::Truncated("slot count"))?;
    let mut slots = Vec::new();
    for _ in 0..u32::from_le_bytes(*count) {
        let w = crate::codec::get_matrix(&mut rest)?;
        let b = crate::codec::get_matrix(&mut rest)?;
        slots.push((w, b.into_vec()));
    }
    Ok(slots)
}

/// Adam hyper-parameters (the paper uses the standard Adam optimizer).
#[derive(Clone, Copy, Debug)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// L2 weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for AdamParams {
    fn default() -> Self {
        Self { lr: 0.01, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// One GNN layer's parameters and their Adam state.
#[derive(Clone, Debug)]
struct LayerParams {
    w: Matrix,
    b: Vec<f32>,
    m_w: Matrix,
    v_w: Matrix,
    m_b: Vec<f32>,
    v_b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
}

/// The group of `m` parameter shards, owning every layer's weights.
#[derive(Clone, Debug)]
pub struct ParameterServerGroup {
    num_shards: usize,
    adam: AdamParams,
    step: u64,
    layers: Vec<LayerParams>,
    pushes_since_update: usize,
}

impl ParameterServerGroup {
    /// Creates `num_shards` shards holding Xavier-initialized weights for
    /// the given `(fan_in, fan_out)` layer shapes.
    pub fn new(shapes: &[(usize, usize)], num_shards: usize, adam: AdamParams, seed: u64) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let layers = shapes
            .iter()
            .enumerate()
            .map(|(l, &(fi, fo))| LayerParams {
                w: init::xavier_uniform(fi, fo, seed.wrapping_add(l as u64)),
                b: vec![0.0; fo],
                m_w: Matrix::zeros(fi, fo),
                v_w: Matrix::zeros(fi, fo),
                m_b: vec![0.0; fo],
                v_b: vec![0.0; fo],
                grad_w: Matrix::zeros(fi, fo),
                grad_b: vec![0.0; fo],
            })
            .collect();
        Self { num_shards, adam, step: 0, layers, pushes_since_update: 0 }
    }

    /// Number of layers managed.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// `pull(l)`: the layer's current weights and bias.
    pub fn pull(&self, layer: usize) -> (&Matrix, &[f32]) {
        let lp = &self.layers[layer];
        (&lp.w, &lp.b)
    }

    /// `push(grads)`: a worker delivers its gradient contribution for every
    /// layer; the servers sum contributions until [`Self::apply_update`].
    ///
    /// # Panics
    /// Panics if the shapes do not match the layer shapes.
    pub fn push(&mut self, grads: &[(Matrix, Vec<f32>)]) {
        assert_eq!(grads.len(), self.layers.len(), "gradient count mismatch");
        for (lp, (gw, gb)) in self.layers.iter_mut().zip(grads) {
            assert_eq!(gw.shape(), lp.w.shape(), "weight-gradient shape mismatch");
            assert_eq!(gb.len(), lp.b.len(), "bias-gradient length mismatch");
            ec_tensor::ops::add_assign(&mut lp.grad_w, gw);
            for (a, &g) in lp.grad_b.iter_mut().zip(gb) {
                *a += g;
            }
        }
        self.pushes_since_update += 1;
    }

    /// Bytes of each shard's slices of every slot, one entry per shard:
    /// the range-partitioned rows of each `W` plus the bias slice, `f32`
    /// each. One pull ships a shard's entry from its owner to one worker,
    /// and one push ships it from one worker back to the owner.
    pub fn shard_wire_sizes(&self) -> Vec<u64> {
        (0..self.num_shards)
            .map(|s| {
                let slice = |lp: &LayerParams| {
                    let (rs, re) = range(lp.w.rows(), self.num_shards, s);
                    let (bs, be) = range(lp.b.len(), self.num_shards, s);
                    (((re - rs) * lp.w.cols() + (be - bs)) * 4) as u64
                };
                self.layers.iter().map(slice).sum()
            })
            .collect()
    }

    /// Applies one Adam step using the accumulated (summed) gradients, then
    /// clears the accumulators. Returns the number of pushes consumed.
    pub fn apply_update(&mut self) -> usize {
        let pushed = std::mem::take(&mut self.pushes_since_update);
        if pushed == 0 {
            return 0;
        }
        self.step += 1;
        let a = self.adam;
        let bc1 = 1.0 - a.beta1.powi(self.step as i32);
        let bc2 = 1.0 - a.beta2.powi(self.step as i32);
        for lp in &mut self.layers {
            adam_step(
                lp.w.as_mut_slice(),
                lp.grad_w.as_mut_slice(),
                lp.m_w.as_mut_slice(),
                lp.v_w.as_mut_slice(),
                a,
                bc1,
                bc2,
            );
            adam_step(&mut lp.b, &mut lp.grad_b, &mut lp.m_b, &mut lp.v_b, a, bc1, bc2);
        }
        pushed
    }

    /// Snapshot of all weights (testing / checkpointing).
    pub fn weights(&self) -> Vec<(Matrix, Vec<f32>)> {
        self.layers.iter().map(|lp| (lp.w.clone(), lp.b.clone())).collect()
    }

    /// Every layer's `(W shape, bias length)`.
    fn shapes(&self) -> Vec<((usize, usize), usize)> {
        self.layers.iter().map(|lp| (lp.w.shape(), lp.b.len())).collect()
    }

    /// `Ok` when `found` lists exactly this group's layer shapes.
    fn check_shapes(&self, found: &[((usize, usize), usize)]) -> Result<(), CheckpointError> {
        let expected = self.shapes();
        if found.len() != expected.len() {
            return Err(CheckpointError::LayerCount {
                found: found.len(),
                expected: expected.len(),
            });
        }
        if found != expected {
            return Err(CheckpointError::ShapeMismatch);
        }
        Ok(())
    }

    /// Puts back the complete state of `snapshot`, a clone of this group
    /// taken earlier: weights, biases, Adam moments, pending gradients, the
    /// step counter and the pending push count, so training continues
    /// bit-identically to an uninterrupted run. (Contrast with
    /// [`Self::load_weights`], which restores only the inference state.)
    ///
    /// # Errors
    /// Fails, leaving this group untouched, when the snapshot's layer shapes
    /// do not match this group's.
    pub fn restore(&mut self, snapshot: &ParameterServerGroup) -> Result<(), CheckpointError> {
        self.check_shapes(&snapshot.shapes())?;
        self.clone_from(snapshot);
        Ok(())
    }

    /// Overwrites all weights (used to clone model state across baseline
    /// systems so comparisons start from identical parameters).
    pub fn set_weights(&mut self, weights: &[(Matrix, Vec<f32>)]) {
        assert_eq!(weights.len(), self.layers.len(), "layer count mismatch");
        for (lp, (w, b)) in self.layers.iter_mut().zip(weights) {
            assert_eq!(w.shape(), lp.w.shape(), "weight shape mismatch");
            assert_eq!(b.len(), lp.b.len(), "bias length mismatch");
            lp.w = w.clone();
            lp.b = b.clone();
        }
    }
}

/// In-place Adam on a flat parameter slice; zeroes the gradient slice.
fn adam_step(
    params: &mut [f32],
    grads: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    a: AdamParams,
    bias_c1: f32,
    bias_c2: f32,
) {
    for i in 0..params.len() {
        let mut g = grads[i];
        if a.weight_decay != 0.0 {
            g += a.weight_decay * params[i];
        }
        m[i] = a.beta1 * m[i] + (1.0 - a.beta1) * g;
        v[i] = a.beta2 * v[i] + (1.0 - a.beta2) * g * g;
        let m_hat = m[i] / bias_c1;
        let v_hat = v[i] / bias_c2;
        params[i] -= a.lr * m_hat / (v_hat.sqrt() + a.eps);
        grads[i] = 0.0;
    }
}

fn range(n: usize, parts: usize, p: usize) -> (usize, usize) {
    let base = n / parts;
    let extra = n % parts;
    let start = p * base + p.min(extra);
    (start, start + base + usize::from(p < extra))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> ParameterServerGroup {
        ParameterServerGroup::new(&[(4, 3), (3, 2)], 2, AdamParams::default(), 7)
    }

    #[test]
    fn pull_returns_layer_shapes() {
        let ps = group();
        let (w0, b0) = ps.pull(0);
        assert_eq!(w0.shape(), (4, 3));
        assert_eq!(b0.len(), 3);
        let (w1, _) = ps.pull(1);
        assert_eq!(w1.shape(), (3, 2));
    }

    #[test]
    fn shard_sizes_sum_to_the_model_bytes() {
        let shapes = [(4, 3), (3, 2), (602, 16)];
        let model: u64 = shapes.iter().map(|&(r, c)| ((r * c + c) * 4) as u64).sum();
        for shards in [1, 4, 7] {
            let ps = ParameterServerGroup::new(&shapes, shards, AdamParams::default(), 7);
            let sizes = ps.shard_wire_sizes();
            assert_eq!(sizes.len(), shards);
            assert_eq!(sizes.iter().sum::<u64>(), model, "{shards} shards");
        }
        // Seven shards of a four- and a three-row slot: the last three hold
        // no row and no bias entry.
        let ps = ParameterServerGroup::new(&shapes[..2], 7, AdamParams::default(), 7);
        assert_eq!(ps.shard_wire_sizes(), [28, 28, 24, 12, 0, 0, 0]);
    }

    #[test]
    fn push_then_apply_moves_weights() {
        let mut ps = group();
        let before = ps.pull(0).0.clone();
        let grads = vec![
            (Matrix::filled(4, 3, 1.0), vec![1.0; 3]),
            (Matrix::filled(3, 2, 1.0), vec![1.0; 2]),
        ];
        ps.push(&grads);
        assert_eq!(ps.apply_update(), 1);
        let after = ps.pull(0).0;
        assert!(!before.approx_eq(after, 1e-9));
        // First Adam step moves every coordinate by ≈ lr (bias-corrected).
        for (x, y) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((x - y - 0.01).abs() < 1e-3, "step {} not ≈ lr", x - y);
        }
    }

    #[test]
    fn apply_without_push_is_noop() {
        let mut ps = group();
        let before = ps.weights();
        assert_eq!(ps.apply_update(), 0);
        let after = ps.weights();
        assert_eq!(before[0].0, after[0].0);
    }

    #[test]
    fn pushes_from_multiple_workers_sum() {
        // Two half-gradients must equal one full gradient.
        let mut ps_two = group();
        let mut ps_one = ps_two.clone();
        let half = vec![
            (Matrix::filled(4, 3, 0.5), vec![0.5; 3]),
            (Matrix::filled(3, 2, 0.5), vec![0.5; 2]),
        ];
        let full = vec![
            (Matrix::filled(4, 3, 1.0), vec![1.0; 3]),
            (Matrix::filled(3, 2, 1.0), vec![1.0; 2]),
        ];
        ps_two.push(&half);
        ps_two.push(&half);
        ps_two.apply_update();
        ps_one.push(&full);
        ps_one.apply_update();
        assert!(ps_two.pull(0).0.approx_eq(ps_one.pull(0).0, 1e-6));
    }

    #[test]
    fn set_weights_round_trips() {
        let mut a = group();
        let b = ParameterServerGroup::new(&[(4, 3), (3, 2)], 2, AdamParams::default(), 99);
        a.set_weights(&b.weights());
        assert_eq!(a.pull(0).0, b.pull(0).0);
    }

    #[test]
    fn adam_descends_on_quadratic() {
        // Minimize f(w) = w² from w=1 with repeated push/apply cycles.
        let mut ps = ParameterServerGroup::new(
            &[(1, 1)],
            1,
            AdamParams { lr: 0.1, ..Default::default() },
            1,
        );
        let start = ps.pull(0).0.get(0, 0);
        for _ in 0..200 {
            let w = ps.pull(0).0.get(0, 0);
            ps.push(&[(Matrix::from_vec(1, 1, vec![2.0 * w]), vec![0.0])]);
            ps.apply_update();
        }
        let end = ps.pull(0).0.get(0, 0);
        assert!(end.abs() < 0.05, "start {start}, end {end} not near 0");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn push_rejects_wrong_shape() {
        let mut ps = group();
        ps.push(&[(Matrix::zeros(2, 2), vec![0.0; 3]), (Matrix::zeros(3, 2), vec![0.0; 2])]);
    }
}

impl ParameterServerGroup {
    /// Persists the current weights (not the optimizer state) to `path`
    /// using the wire codec: one `(W, b)` pair per layer.
    pub fn save_weights(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for lp in &self.layers {
            crate::codec::put_matrix(&mut buf, &lp.w);
            let bias = Matrix::from_vec(1, lp.b.len(), lp.b.clone());
            crate::codec::put_matrix(&mut buf, &bias);
        }
        std::fs::write(path, buf)?;
        Ok(())
    }

    /// Restores weights saved by [`Self::save_weights`].
    ///
    /// Fails when the file does not decode or its layer shapes do not match
    /// this group's.
    pub fn load_weights(&mut self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let weights = read_weights(&std::fs::read(path)?)?;
        let found: Vec<_> = weights.iter().map(|(w, b)| (w.shape(), b.len())).collect();
        self.check_shapes(&found)?;
        self.set_weights(&weights);
        Ok(())
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ecgraph-ckpt-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_round_trips() {
        let ps = ParameterServerGroup::new(&[(4, 3), (3, 2)], 2, AdamParams::default(), 7);
        let path = tmp("roundtrip.bin");
        ps.save_weights(&path).unwrap();
        let mut other = ParameterServerGroup::new(&[(4, 3), (3, 2)], 2, AdamParams::default(), 99);
        assert_ne!(other.pull(0).0, ps.pull(0).0);
        other.load_weights(&path).unwrap();
        assert_eq!(other.pull(0).0, ps.pull(0).0);
        assert_eq!(other.pull(1).1, ps.pull(1).1);
        std::fs::remove_file(path).ok();
    }

    /// A weights file carries no Adam moments, so a group loaded from one
    /// diverges from the group that wrote it at the next update; the
    /// complete state travels by [`ParameterServerGroup::restore`].
    #[test]
    fn weights_only_restore_diverges_once_moments_matter() {
        let shapes = [(4, 3), (3, 2)];
        let grads = |s: f32| {
            vec![(Matrix::filled(4, 3, s), vec![s; 3]), (Matrix::filled(3, 2, s), vec![s; 2])]
        };
        let mut ps = ParameterServerGroup::new(&shapes, 2, AdamParams::default(), 7);
        for i in 0..5 {
            ps.push(&grads(0.1 * i as f32));
            ps.apply_update();
        }
        let mut weights_only = ParameterServerGroup::new(&shapes, 2, AdamParams::default(), 99);
        let path = tmp("weights-only.bin");
        ps.save_weights(&path).unwrap();
        weights_only.load_weights(&path).unwrap();
        std::fs::remove_file(path).ok();
        let mut full = ParameterServerGroup::new(&shapes, 2, AdamParams::default(), 99);
        full.restore(&ps).unwrap();
        let g = grads(0.2);
        for group in [&mut ps, &mut weights_only, &mut full] {
            group.push(&g);
            group.apply_update();
        }
        assert_ne!(ps.pull(0).0, weights_only.pull(0).0);
        assert_eq!(ps.pull(0).0, full.pull(0).0);
    }

    #[test]
    fn restore_rejects_mismatch() {
        let snap = ParameterServerGroup::new(&[(4, 3)], 1, AdamParams::default(), 1);
        let mut other = ParameterServerGroup::new(&[(4, 3), (3, 2)], 1, AdamParams::default(), 1);
        assert!(matches!(
            other.restore(&snap),
            Err(CheckpointError::LayerCount { found: 1, expected: 2 })
        ));
        let mut wrong_shape = ParameterServerGroup::new(&[(5, 3)], 1, AdamParams::default(), 2);
        let before = wrong_shape.pull(0).0.clone();
        assert!(matches!(wrong_shape.restore(&snap), Err(CheckpointError::ShapeMismatch)));
        assert_eq!(wrong_shape.pull(0).0, &before, "a failed restore changes nothing");
        let mut ok = ParameterServerGroup::new(&[(4, 3)], 1, AdamParams::default(), 2);
        assert!(ok.restore(&snap).is_ok());
        assert_eq!(ok.pull(0).0, snap.pull(0).0);
    }

    #[test]
    fn load_rejects_layer_mismatch() {
        let ps = ParameterServerGroup::new(&[(4, 3)], 1, AdamParams::default(), 1);
        let path = tmp("mismatch.bin");
        ps.save_weights(&path).unwrap();
        let mut other = ParameterServerGroup::new(&[(4, 3), (3, 2)], 1, AdamParams::default(), 1);
        assert!(other.load_weights(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let ps = ParameterServerGroup::new(&[(4, 3)], 1, AdamParams::default(), 1);
        let path = tmp("shape.bin");
        ps.save_weights(&path).unwrap();
        let mut other = ParameterServerGroup::new(&[(5, 3)], 1, AdamParams::default(), 1);
        assert!(other.load_weights(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let path = tmp("garbage.bin");
        let mut ps = ParameterServerGroup::new(&[(2, 2)], 1, AdamParams::default(), 1);
        std::fs::write(&path, [1, 2, 3]).unwrap();
        assert!(matches!(ps.load_weights(&path), Err(CheckpointError::Truncated(_))));
        // A slot count of `u32::MAX` with no slots behind it.
        std::fs::write(&path, [0xff; 4]).unwrap();
        assert!(matches!(ps.load_weights(&path), Err(CheckpointError::Decode(_))));
        std::fs::remove_file(path).ok();
    }
}
