//! Seeded, reproducible weight initializers.
//!
//! Every run in the reproduction is driven by an explicit seed so that the
//! convergence curves regenerated for Figs. 6–8 are bit-identical across
//! invocations.

use crate::dense::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialization: entries drawn from
/// `U(-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
///
/// This is the initializer Kipf & Welling's GCN reference implementation
/// uses, and the one the paper's PyTorch backend would apply by default to
/// its linear layers.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-limit..limit))
}

/// A matrix with i.i.d. `U(lo, hi)` entries.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Matrix {
    assert!(lo < hi, "empty uniform range");
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// A matrix with i.i.d. standard-normal entries scaled by `std`
/// (Box–Muller over the seeded RNG).
pub fn normal(rows: usize, cols: usize, std: f32, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_reproducible() {
        assert_eq!(xavier_uniform(16, 8, 42), xavier_uniform(16, 8, 42));
    }

    #[test]
    fn xavier_differs_across_seeds() {
        assert_ne!(xavier_uniform(16, 8, 1), xavier_uniform(16, 8, 2));
    }

    #[test]
    fn xavier_respects_limit() {
        let limit = (6.0f32 / 24.0).sqrt();
        let m = xavier_uniform(16, 8, 7);
        assert!(m.as_slice().iter().all(|x| x.abs() <= limit));
    }

    #[test]
    fn uniform_respects_range() {
        let m = uniform(10, 10, -0.25, 0.75, 3);
        assert!(m.as_slice().iter().all(|&x| (-0.25..0.75).contains(&x)));
    }

    #[test]
    fn normal_has_roughly_zero_mean() {
        let m = normal(100, 100, 1.0, 11);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
    }
}
