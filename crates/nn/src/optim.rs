//! Optimizers over parameter sets.
//!
//! The single-machine baselines own their parameters directly (no parameter
//! servers), so they need a local optimizer. [`Adam`] matches the paper's
//! choice; [`Sgd`] exists for ablations and tests.
//!
//! A "parameter set" is a `Vec<Matrix>`; the GNN networks flatten their
//! weights and biases into one such list.

use ec_tensor::Matrix;

/// Adam optimizer state over a list of parameter tensors.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam state for parameters with the given shapes.
    pub fn new(shapes: &[(usize, usize)], lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
            v: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
        }
    }

    /// Applies one update step: `params[i] -= lr · m̂ / (√v̂ + ε)`.
    ///
    /// # Panics
    /// Panics if `params`/`grads` lengths or shapes disagree with the state.
    pub fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((p, g), (m, v)) in
            params.iter_mut().zip(grads).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(p.shape(), g.shape(), "parameter/gradient shape mismatch");
            let (ps, gs) = (p.as_mut_slice(), g.as_slice());
            let (ms, vs) = (m.as_mut_slice(), v.as_mut_slice());
            for i in 0..ps.len() {
                ms[i] = self.beta1 * ms[i] + (1.0 - self.beta1) * gs[i];
                vs[i] = self.beta2 * vs[i] + (1.0 - self.beta2) * gs[i] * gs[i];
                let m_hat = ms[i] / bc1;
                let v_hat = vs[i] / bc2;
                ps[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Creates SGD state; `momentum = 0` gives vanilla gradient descent.
    pub fn new(shapes: &[(usize, usize)], lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, velocity: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect() }
    }

    /// Applies one update step.
    pub fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), self.velocity.len(), "parameter count mismatch");
        for ((p, g), vel) in params.iter_mut().zip(grads).zip(self.velocity.iter_mut()) {
            assert_eq!(p.shape(), g.shape(), "parameter/gradient shape mismatch");
            let (ps, gs, vs) = (p.as_mut_slice(), g.as_slice(), vel.as_mut_slice());
            for i in 0..ps.len() {
                vs[i] = self.momentum * vs[i] + gs[i];
                ps[i] -= self.lr * vs[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent(opt: &mut dyn FnMut(&mut [Matrix], &[Matrix]), steps: usize) -> f32 {
        // Minimize f(w) = ½‖w‖² from w = (3, -2).
        let mut params = vec![Matrix::from_vec(1, 2, vec![3.0, -2.0])];
        for _ in 0..steps {
            let grads = vec![params[0].clone()]; // ∇f = w
            opt(&mut params, &grads);
        }
        ec_tensor::stats::l2_norm(&params[0])
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(&[(1, 2)], 0.1);
        let norm = quadratic_descent(&mut |p, g| adam.step(p, g), 300);
        assert!(norm < 0.05, "‖w‖ = {norm}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(&[(1, 2)], 0.1, 0.0);
        let norm = quadratic_descent(&mut |p, g| sgd.step(p, g), 200);
        assert!(norm < 1e-3, "‖w‖ = {norm}");
    }

    #[test]
    fn momentum_accelerates_sgd() {
        let mut plain = Sgd::new(&[(1, 2)], 0.01, 0.0);
        let mut heavy = Sgd::new(&[(1, 2)], 0.01, 0.9);
        let slow = quadratic_descent(&mut |p, g| plain.step(p, g), 50);
        let fast = quadratic_descent(&mut |p, g| heavy.step(p, g), 50);
        assert!(fast < slow, "momentum {fast} not faster than plain {slow}");
    }

    #[test]
    fn first_adam_step_is_lr_sized() {
        let mut adam = Adam::new(&[(1, 1)], 0.01);
        let mut params = vec![Matrix::from_vec(1, 1, vec![1.0])];
        adam.step(&mut params, &[Matrix::from_vec(1, 1, vec![0.5])]);
        // Bias correction makes the first step ≈ lr regardless of |g|.
        assert!((params[0].get(0, 0) - (1.0 - 0.01)).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn adam_rejects_wrong_arity() {
        let mut adam = Adam::new(&[(1, 1)], 0.01);
        let mut params = vec![Matrix::zeros(1, 1), Matrix::zeros(1, 1)];
        let grads = vec![Matrix::zeros(1, 1), Matrix::zeros(1, 1)];
        adam.step(&mut params, &grads);
    }
}
