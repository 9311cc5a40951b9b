//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro, [`prop_assert!`] / [`prop_assert_eq!`], integer and
//! float range strategies, tuple strategies, [`any`], [`Just`] /
//! [`prop_oneof!`], and [`collection::vec`]. Inputs are drawn from a deterministic generator
//! seeded by the test's fully-qualified name and the case index, so every
//! run explores the same cases (failures are always reproducible; there is
//! no shrinking).

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

/// Per-test configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the offline suite fast while
        // still exercising a meaningful spread of inputs.
        Self { cases: 64 }
    }
}

/// Deterministic case generator (xoshiro256++ seeded per test name + case).
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Generator for case `case` of the test named `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut x = h ^ ((case as u64) << 32 | 0x9E37);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self { s: [next(), next(), next(), next()] }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_uint {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_strategy_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_sint {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_strategy_sint!(i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_strategy_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_strategy_tuple!(A: 0, B: 1);
impl_strategy_tuple!(A: 0, B: 1, C: 2);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Constant strategy (upstream `Just`).
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among same-typed strategies; built by [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Union over `options` (must be non-empty).
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one strategy");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let pick = (rng.next_u64() % self.options.len() as u64) as usize;
        self.options[pick].generate(rng)
    }
}

/// Uniform choice among strategies producing the same value type
/// (upstream's `prop_oneof!`, minus per-arm weights).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(Box::new($strat) as Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

/// Full-domain strategy returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The strategy for an arbitrary value of `T`.
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        // Finite, sign-balanced; avoids NaN/inf which upstream filters too.
        (rng.unit_f64() as f32 - 0.5) * 2e6
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        (rng.unit_f64() - 0.5) * 2e12
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy producing `Vec`s with lengths drawn from `len`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: std::ops::Range<usize>,
    }

    /// `Vec` strategy with element strategy `elem` and a length in `len`.
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Just,
        ProptestConfig, Strategy, Union,
    };
}

/// Asserts a property-level condition (panics on failure, like a failed
/// case in upstream proptest — minus the shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Property-level equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Declares deterministic property tests.
///
/// Supports the upstream surface used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0usize..10, v in collection::vec(any::<u8>(), 0..64)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..cfg.cases {
                let mut __rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(
            x in 3usize..17,
            y in 1u8..=16,
            f in -2.0f32..2.0,
            (a, b) in (0u32..10, 5u64..6),
        ) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=16).contains(&y));
            prop_assert!((-2.0..2.0).contains(&f));
            prop_assert!(a < 10);
            prop_assert_eq!(b, 5);
        }

        #[test]
        fn vecs_respect_length(v in collection::vec(any::<u8>(), 2..12)) {
            prop_assert!((2..12).contains(&v.len()));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..4).map(|c| super::TestRng::for_case("t", c).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|c| super::TestRng::for_case("t", c).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }
}
