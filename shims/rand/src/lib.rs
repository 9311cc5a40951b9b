//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the tiny API subset it actually uses: [`rngs::SmallRng`] (xoshiro256++
//! seeded via SplitMix64), [`SeedableRng::seed_from_u64`], and the
//! [`Rng`] methods `gen_range`, `gen`, and `gen_bool`.
//!
//! Streams differ from upstream `rand`, but every consumer in this
//! workspace only requires determinism for a fixed seed, which this
//! implementation provides.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

/// Low-level entropy source.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding interface; only `seed_from_u64` is provided.
pub trait SeedableRng: Sized {
    /// Constructs the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive; ints or floats).
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// A uniform sample of the full type domain (`f32`/`f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn unit_f32(bits: u64) -> f32 {
    (bits >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Types samplable over their whole domain by [`Rng::gen`].
pub trait Standard {
    /// Draws one value.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        unit_f32(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges accepted by [`Rng::gen_range`], producing values of type `T`.
///
/// Parameterizing over `T` (instead of an associated type) lets the
/// *expected* result type drive float-literal inference, matching upstream
/// `rand`: `let x: f32 = rng.gen_range(0.0..1.0)` picks `Range<f32>`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize);

macro_rules! impl_range_signed {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64 + 1;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_range_signed!(i8, i16, i32, i64, isize);

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample<R: RngCore>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + unit_f32(rng.next_u64()) * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator (xoshiro256++).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as upstream rand seeds xoshiro.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(1u8..=16);
            assert!((1..=16).contains(&y));
            let f = rng.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&f));
            let d: f64 = rng.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn distinct_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0u64..u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0u64..u64::MAX)).collect();
        assert_ne!(va, vb);
    }
}
