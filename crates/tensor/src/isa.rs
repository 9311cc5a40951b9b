//! Instruction-set tiers: one kernel source, compiled once per tier,
//! selected at run time from what the CPU reports.
//!
//! Every build of this workspace targets baseline x86-64, whose widest
//! vector is the 128-bit SSE2 register. The hot kernels are plain safe
//! Rust that the autovectoriser lowers to whatever width the *function
//! being compiled* may use — so compiling the same generic body inside a
//! `#[target_feature(enable = "avx2")]` function yields 256-bit code, and
//! inside an AVX-512 one 512-bit code, from one source. [`dispatch_on`]
//! owns those entry points: it takes a [`Kernel`] (a closure, or a type
//! whose body wants the tier's [`Isa`] constants), inlines its
//! `#[inline(always)]` body into the entry point for the requested
//! [`Tier`] and runs it. [`dispatch`] is `dispatch_on(Tier::best(), …)`.
//!
//! **Soundness.** Executing an AVX instruction on a CPU without it is
//! undefined behaviour, which is why calling a `#[target_feature]` function
//! is `unsafe`. A [`Tier`] is the proof that the call is fine: its field is
//! private, and the only constructors are [`Tier::best`] and
//! [`Tier::supported`], which return a tier only after
//! `is_x86_feature_detected!` (CPUID plus the OS's register-state support,
//! cached by std — this module keeps no static of its own) reported every
//! feature the tier's entry point enables. Safe code therefore cannot reach
//! wide code on a CPU that lacks it. On other architectures — and under
//! Miri, where detection reports only what the build enabled — only
//! [`Tier::BASELINE`] exists and every kernel runs the baseline body.
//!
//! **Bit-identity.** No tier enables `fma` and no kernel calls `f32`'s
//! fused multiply-add method: fused, the operation rounds once where the
//! reference rounds twice, and would change results. Without it, width changes only *which lanes
//! advance together* — every output element still receives the same
//! single-precision multiplies and adds in the same order — so every tier
//! produces the bits of the baseline build, and reports are byte-identical
//! across hosts. `tests/kernel_equivalence.rs` runs every kernel at every
//! tier the host supports against `ops::reference`.
//!
//! **The trap this scheme has.** A function or closure that is *not*
//! inlined into the entry point is compiled as a baseline function and
//! merely called from the wide one — silently 128-bit, and slower than
//! before because the wide caller spills around the call. Everything
//! between an entry point and the arithmetic must be `#[inline(always)]`,
//! closures included; `scripts/check.sh --perf-smoke` times one dense
//! product and one codec call per tier and fails if a wider tier loses to
//! a narrower one.

use std::fmt;

/// Compile-time constants of one tier: the tile shapes the kernels
/// instantiate when compiled for it, chosen per tier from the measured
/// per-shape table (EXPERIMENTS.md "Instruction-set tiers (PR 19)").
pub trait Isa {
    /// Rows of the left operand that share each load of a row of the right
    /// operand in the dense micro-kernel (`ops::dense_tile`): `MR × 16`
    /// floats of the output stay in registers, next to one broadcast per
    /// row and the right operand's row. Two rows are 8 of the 16 XMM
    /// registers; four are 8 of the 16 YMM (six spilled: twelve
    /// accumulators plus six live broadcasts do not fit); eight are 8 of
    /// the 32 ZMM, and more buys nothing — without FMA the tile is bound by
    /// the two 512-bit arithmetic ports from eight rows on.
    const MR: usize;
    /// Widest output chunk one pass over a nonzero list accumulates
    /// (`ops::listed_row`: SpMM, and the zero-skipping rows of a dense
    /// product): four accumulator registers at the tier's width, the fewest
    /// independent chains that hide the add latency.
    const LIST_NR: usize;
}

/// Baseline x86-64 (SSE2) — and the only tier on every other architecture.
pub struct Baseline;
/// AVX2: 256-bit vectors, 16 registers.
pub struct Avx2;
/// AVX-512 (F, BW, DQ, VL): 512-bit vectors, 32 registers.
pub struct Avx512;

impl Isa for Baseline {
    const MR: usize = 2;
    const LIST_NR: usize = 16;
}

impl Isa for Avx2 {
    const MR: usize = 4;
    const LIST_NR: usize = 32;
}

impl Isa for Avx512 {
    const MR: usize = 8;
    const LIST_NR: usize = 64;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Proof that the running CPU executes a tier's instructions. Obtainable
/// only from [`Tier::best`] / [`Tier::supported`] (and the always-valid
/// [`Tier::BASELINE`]); see the module docs for why that makes
/// [`dispatch_on`] safe to call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tier(Level);

impl Tier {
    /// The tier every build already targets.
    pub const BASELINE: Tier = Tier(Level::Baseline);

    /// The widest tier this CPU (and OS) supports.
    pub fn best() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // Exactly the features the AVX-512 entry point enables.
            let avx512 = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl");
            return Tier(if avx512 { Level::Avx512 } else { Level::Avx2 });
        }
        Tier::BASELINE
    }

    /// Every tier this CPU supports, narrowest first; ends with
    /// [`Tier::best`].
    pub fn supported() -> impl Iterator<Item = Tier> {
        let all = [
            Level::Baseline,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2,
            #[cfg(target_arch = "x86_64")]
            Level::Avx512,
        ];
        let best = Tier::best();
        all.into_iter().filter(move |&level| level <= best.0).map(Tier)
    }

    /// `sse2` (the baseline build), `avx2` or `avx512`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline => "sse2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => "avx512",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A kernel body [`dispatch_on`] can compile for every tier. Implement
/// `run` with `#[inline(always)]`, and mark every function and closure it
/// reaches before the arithmetic the same way (module docs, "the trap").
///
/// Closures are kernels that ignore the constants: `dispatch(|| …)` is
/// all a body that is the same loop at every width needs. (`FnMut`, not
/// `FnOnce`: calling a by-reference closure through `FnOnce` goes through
/// a compiler-generated shim that `#[inline(always)]` on the closure does
/// not reach — the module docs' trap, met in the first cut of this module.)
pub trait Kernel {
    /// What the body returns.
    type Output;
    /// The body, compiled with tier `I`'s instructions and constants.
    fn run<I: Isa>(self) -> Self::Output;
}

impl<R, F: FnMut() -> R> Kernel for F {
    type Output = R;
    #[inline(always)]
    fn run<I: Isa>(mut self) -> R {
        self()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn enter_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<Avx2>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn enter_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<Avx512>()
}

/// Runs `kernel` compiled for `tier`.
///
/// Never inlined: a kernel that re-dispatches part of its work to a
/// narrower tier from inside a wide entry point (`ops`' narrow outputs)
/// must reach that tier's *own* instantiation, not a copy of it inlined
/// into — and compiled for — the wide one.
#[inline(never)]
#[cfg_attr(target_arch = "x86_64", expect(unsafe_code, reason = "see the SAFETY comments"))]
pub fn dispatch_on<K: Kernel>(tier: Tier, kernel: K) -> K::Output {
    match tier.0 {
        Level::Baseline => kernel.run::<Baseline>(),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `enter_avx2` requires a CPU with AVX2. `Tier`'s field is
        // private, and a value at this level is built only by `Tier::best`
        // after `is_x86_feature_detected!("avx2")` returned true on this
        // CPU — or by `Tier::supported` below a `best` of AVX-512, which
        // `best` reports only when AVX2 was detected as well.
        Level::Avx2 => unsafe { enter_avx2(kernel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `enter_avx512` requires AVX-512 F, BW, DQ and VL. A
        // value at this level is built only by `Tier::best` (and re-issued
        // by `Tier::supported` when `best` returned it), after detecting
        // all four on this CPU.
        Level::Avx512 => unsafe { enter_avx512(kernel) },
    }
}

/// Runs `kernel` compiled for [`Tier::best`].
pub fn dispatch<K: Kernel>(kernel: K) -> K::Output {
    dispatch_on(Tier::best(), kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_tiers_ascend_from_baseline_to_best() {
        let tiers: Vec<Tier> = Tier::supported().collect();
        assert_eq!(tiers.first(), Some(&Tier::BASELINE));
        assert_eq!(tiers.last(), Some(&Tier::best()));
        assert!(tiers.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn every_tier_runs_closures_and_constant_kernels() {
        struct Rows;
        impl Kernel for Rows {
            type Output = usize;
            #[inline(always)]
            fn run<I: Isa>(self) -> usize {
                I::MR
            }
        }
        let mut seen = Vec::new();
        for tier in Tier::supported() {
            assert_eq!(dispatch_on(tier, || 6 * 7), 42);
            seen.push((tier.name(), dispatch_on(tier, Rows)));
        }
        let all = [("sse2", Baseline::MR), ("avx2", Avx2::MR), ("avx512", Avx512::MR)];
        assert_eq!(seen, all[..seen.len()]);
    }
}
