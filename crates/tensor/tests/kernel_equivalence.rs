//! Bit-identity of the tiled kernels against the naive reference.
//!
//! The engine's determinism guarantees (byte-identical RunResult JSON for
//! any thread count — `tests/determinism_suite.rs`) rest on the claim that
//! register tiling, nonzero compaction, block transposition, panel packing
//! and band-parallel dispatch never change a single accumulation: per
//! output element the terms are added in the same order, with the same
//! `== 0.0` skips. These tests check that claim on shapes drawn around
//! every tile edge (`ops::MR`, `ops::NR`, `ops::KB`, `ops::AT_COLS`, each
//! ± 1, plus 0, 1 and the engine's own widths), on dense, mixed and
//! ReLU-sparse operands, with signed zeros and non-finite values, for the
//! sequential entry points, the pool-dispatched `parallel` ones, and bands
//! that start at rows no tile boundary falls on.
//!
//! Comparisons are on raw `f32` bit patterns, with one concession: every
//! NaN counts as the same value. When *both* operands of an addition are
//! NaN, IEEE 754 leaves the surviving payload to the implementation and
//! the compiler may commute the operands, so which NaN comes out is not a
//! property of the source. Where a NaN appears is, and that is checked.

use ec_tensor::isa::{self, Avx2, Avx512, Baseline, Isa, Tier};
use ec_tensor::ops::{self, reference, KB, NR};
use ec_tensor::{parallel, CsrMatrix, Matrix};
use proptest::prelude::*;

/// Tallest row group of any tier.
const MR_MAX: usize = Avx512::MR;

/// Output rows `row0..row0 + len` (`n` columns each, starting from zeros)
/// of the kernel the last argument builds from `(row0, out)`, run at
/// `tier`.
macro_rules! band_at {
    ($tier:expr, $row0:expr, $len:expr, $n:expr, |$r0:ident, $out:ident| $kernel:expr) => {{
        let mut band = vec![0.0f32; $len * $n];
        let ($r0, $out) = ($row0, &mut band[..]);
        isa::dispatch_on($tier, $kernel);
        band
    }};
}

/// Inside a proptest: the kernel built from `(row0, out)` must reproduce
/// the matrix `$want` bit for bit at every tier the host supports, over the
/// whole output and over every band of [`bands`].
macro_rules! prop_assert_kernel_matches {
    ($want:expr, |$r0:ident, $out:ident| $kernel:expr) => {
        let (rows, n) = $want.shape();
        for tier in Tier::supported() {
            for (row0, len) in bands(rows).into_iter().chain([(0, rows)]) {
                let band = band_at!(tier, row0, len, n, |$r0, $out| $kernel);
                let expect = &$want.as_slice()[row0 * n..(row0 + len) * n];
                prop_assert_eq!(bits(&band), bits(expect), "{} rows {}+{}", tier, row0, len);
            }
        }
    };
}

/// Printed on CI's release run of this suite, so a runner that silently
/// tested only the baseline is visible in the log.
#[test]
fn tiers_covered() {
    let tiers: Vec<&str> = Tier::supported().map(Tier::name).collect();
    println!("kernel_equivalence: tiers covered = {}", tiers.join(", "));
    assert_eq!(tiers[0], "sse2");
}

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// What a generated operand looks like.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Mixed magnitudes with a quarter exact zeros of either sign.
    Mixed,
    /// No zeros at all (the dense tile's case).
    Dense,
    /// ReLU output: at least half exact zeros, one whole zero row and one
    /// whole zero column (the listed tile's case).
    ReluSparse,
}

fn kind() -> impl Strategy<Value = Kind> {
    prop_oneof![Just(Kind::Mixed), Just(Kind::Dense), Just(Kind::ReluSparse)]
}

fn matrix(rows: usize, cols: usize, seed: u64, kind: Kind) -> Matrix {
    let mut state = seed.wrapping_mul(2) | 1;
    let (zero_row, zero_col) = (seed as usize % rows.max(1), (seed >> 8) as usize % cols.max(1));
    Matrix::from_fn(rows, cols, |r, c| {
        let draw = next(&mut state) as u32;
        let unit = draw as f32 / u32::MAX as f32;
        match kind {
            Kind::Mixed => match draw % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => unit * 1e-4,
                3 => -unit * 1e4,
                _ => unit - 0.5,
            },
            Kind::Dense => unit + 0.25,
            Kind::ReluSparse if r == zero_row || c == zero_col || draw % 16 < 9 => 0.0,
            Kind::ReluSparse => unit,
        }
    })
}

/// Plants `±Inf` and `NaN` at seed-chosen cells (a no-op on empty input).
fn plant_non_finite(m: &mut Matrix, seed: u64) {
    if m.rows() == 0 || m.cols() == 0 {
        return;
    }
    let mut state = seed | 1;
    for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let (r, c) = (next(&mut state) as usize % m.rows(), next(&mut state) as usize % m.cols());
        m.set(r, c, v);
    }
}

/// A CSR matrix with repeated draws (so rows of every length, including
/// empty ones) and, among the stored values, explicit zeros — SpMM has no
/// zero-skip, so `0 · Inf` must surface exactly where the reference has it.
fn csr(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut state = seed.wrapping_mul(2) | 1;
    let mut triples = Vec::with_capacity(nnz);
    if rows > 0 && cols > 0 {
        for _ in 0..nnz {
            let r = next(&mut state) as usize % rows;
            let c = next(&mut state) as usize % cols;
            let draw = next(&mut state);
            let v = if draw.is_multiple_of(8) { 0.0 } else { ((draw as f32) * 1e-9).sin() };
            triples.push((r, c, v));
        }
    }
    CsrMatrix::from_triples(rows, cols, &triples)
}

/// Raw bit patterns with every NaN folded onto one (see the module docs).
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

fn mbits(m: &Matrix) -> Vec<u32> {
    bits(m.as_slice())
}

/// Dimension strategy: degenerate (0, 1), every tile constant ± 1 (each
/// tier's row-group height and list-chunk width, the column-tile width,
/// the shared-dimension block and two of them plus one), row counts that
/// leave every possible number of leftover rows under the tallest group,
/// the engine's layer widths, and ragged values in between. 602 (Reddit's feature width) is
/// covered by `engine_shapes_match_reference`, not drawn here: three such
/// dims at once would make a case cost seconds.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Baseline::MR - 1..=Baseline::MR + 1,
        Avx2::MR - 1..=Avx2::MR + 1,
        Avx512::MR - 1..=Avx512::MR + 1,
        NR - 1..=NR + 1,
        Avx2::LIST_NR - 1..=Avx2::LIST_NR + 1,
        Avx512::LIST_NR - 1..=Avx512::LIST_NR + 1,
        3 * MR_MAX + 1..4 * MR_MAX,
        KB - 1..=KB + 1,
        Just(2 * KB + 1),
        Just(2 * NR),
        Just(3usize),
        Just(7usize),
        Just(41usize),
        Just(47usize),
        Just(64usize),
        Just(100usize),
        2usize..40,
    ]
}

/// Band starts and lengths that straddle every tier's row groups.
fn bands(rows: usize) -> Vec<(usize, usize)> {
    [(1, rows.saturating_sub(1)), (3, 3), (MR_MAX - 1, 2 * MR_MAX + 3), (rows / 2, rows / 3)]
        .into_iter()
        .filter(|&(row0, len)| len > 0 && row0 + len <= rows)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tiled_matmul_is_bit_identical(
        m in dim(), k in dim(), n in dim(), a_kind in kind(), seed in 1u64..1_000_000,
    ) {
        let mut a = matrix(m, k, seed, a_kind);
        let mut b = matrix(k, n, seed ^ 0xABCD, Kind::Mixed);
        if seed.is_multiple_of(4) {
            plant_non_finite(&mut a, seed);
            plant_non_finite(&mut b, seed ^ 0x77);
        }
        let want = reference::matmul(&a, &b);
        prop_assert_eq!(mbits(&ops::matmul(&a, &b)), mbits(&want));
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(mbits(&parallel::matmul(&a, &b, threads)), mbits(&want));
        }
        prop_assert_kernel_matches!(want, |r0, out| ops::matmul_kernel(&a, &b, r0, out));
    }

    #[test]
    fn tiled_matmul_at_b_is_bit_identical(
        r in dim(), m in dim(), n in dim(), a_kind in kind(), seed in 1u64..1_000_000,
    ) {
        let mut a = matrix(r, m, seed, a_kind);
        let mut b = matrix(r, n, seed ^ 0x1234, Kind::Mixed);
        if seed.is_multiple_of(4) {
            plant_non_finite(&mut a, seed);
            plant_non_finite(&mut b, seed ^ 0x77);
        }
        let want = reference::matmul_at_b(&a, &b);
        prop_assert_eq!(mbits(&ops::matmul_at_b(&a, &b)), mbits(&want));
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(mbits(&parallel::matmul_at_b(&a, &b, threads)), mbits(&want));
        }
        prop_assert_kernel_matches!(want, |r0, out| ops::matmul_at_b_kernel(&a, &b, r0, out));
    }

    #[test]
    fn packed_matmul_a_bt_is_bit_identical(
        m in dim(), n in dim(), k in dim(), seed in 1u64..1_000_000,
    ) {
        let mut a = matrix(m, k, seed, Kind::Mixed);
        let mut b = matrix(n, k, seed ^ 0x5555, Kind::Mixed);
        if seed.is_multiple_of(4) {
            // No zero-skip here: a zero opposite an infinity must give NaN.
            plant_non_finite(&mut a, seed);
            plant_non_finite(&mut b, seed ^ 0x77);
        }
        let want = reference::matmul_a_bt(&a, &b);
        prop_assert_eq!(mbits(&ops::matmul_a_bt(&a, &b)), mbits(&want));
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(mbits(&parallel::matmul_a_bt(&a, &b, threads)), mbits(&want));
        }
        let bt = b.transpose();
        prop_assert_kernel_matches!(want, |r0, out| ops::matmul_a_bt_kernel(&a, &bt, r0, out));
    }

    #[test]
    fn tiled_spmm_is_bit_identical(
        m in dim(), k in dim(), n in dim(), nnz in 0usize..600, seed in 1u64..1_000_000,
    ) {
        let s = csr(m, k, nnz, seed);
        let mut b = matrix(k, n, seed ^ 0x9999, Kind::Mixed);
        if seed.is_multiple_of(4) {
            plant_non_finite(&mut b, seed);
        }
        let want = reference::spmm(&s, &b);
        prop_assert_eq!(mbits(&s.spmm(&b)), mbits(&want));
        for threads in [2usize, 3, 5] {
            prop_assert_eq!(mbits(&parallel::spmm(&s, &b, threads)), mbits(&want));
        }
        prop_assert_kernel_matches!(want, |r0, out| s.spmm_kernel(&b, r0, out));
    }

    /// The split-operand SpMM must be the stacked one bit for bit: ragged
    /// shapes, an empty local or remote half (`dim()` yields 0), the remote
    /// rows stored in a seed-drawn order that the `remote_row` map undoes,
    /// and — on a quarter of the cases — planted ±inf/NaN rows on either side
    /// of the split, so `inf·0` and `inf − inf` arise in the same places.
    #[test]
    fn split_spmm_equals_spmm_over_the_stack(
        m in dim(), n_local in dim(), n_remote in dim(), n in dim(),
        nnz in 0usize..300, seed in 1u64..1_000_000,
    ) {
        let s = csr(m, n_local + n_remote, nnz, seed);
        let mut local = matrix(n_local, n, seed ^ 0x7777, Kind::Mixed);
        let mut remote = matrix(n_remote, n, seed ^ 0x3333, Kind::Mixed);
        if seed.is_multiple_of(4) {
            plant_non_finite(&mut local, seed);
            plant_non_finite(&mut remote, seed ^ 0x77);
        }
        let want = reference::spmm(&s, &local.vstack(&remote));
        // Fisher–Yates: remote column `c` is stored as row `remote_row[c]`.
        let mut remote_row: Vec<u32> = (0..n_remote as u32).collect();
        let mut state = seed;
        for i in (1..n_remote).rev() {
            remote_row.swap(i, next(&mut state) as usize % (i + 1));
        }
        let mut stored = Matrix::zeros(n_remote, n);
        for (c, &row) in remote_row.iter().enumerate() {
            stored.set_row(row as usize, remote.row(c));
        }
        for threads in [1usize, 2, 3, 5] {
            let got = parallel::spmm_split(&s, &local, &stored, &remote_row, threads);
            prop_assert_eq!(mbits(&got), mbits(&want));
        }
        for tier in Tier::supported() {
            let got = band_at!(tier, 0, m, n, |r0, out| {
                s.spmm_split_kernel(&local, &stored, &remote_row, r0, out)
            });
            prop_assert_eq!(bits(&got), mbits(&want), "{}", tier);
        }
    }

    #[test]
    fn blocked_transpose_is_a_permutation(
        m in dim(), n in dim(), seed in 1u64..1_000_000,
    ) {
        let a = matrix(m, n, seed, Kind::Mixed);
        let t = a.transpose();
        prop_assert_eq!(t.shape(), (n, m));
        for r in 0..m {
            for c in 0..n {
                prop_assert_eq!(a.get(r, c).to_bits(), t.get(c, r).to_bits());
            }
        }
    }
}

/// The products the benchmark workloads actually run, at their own shapes
/// (`P_w·W⁰` and `P_wᵀ·G¹` of each replica; the 64- and 47-wide hidden
/// layers of `products` with a ReLU-sparse `H`), which the proptests' `dim()`
/// cannot reach all at once.
#[test]
fn engine_shapes_match_reference() {
    // (rows of the worker block, inner width, output width, kind of A)
    let shapes = [
        (341, 602, 16, Kind::Dense),
        (451, 256, 16, Kind::Dense),
        (1233, 128, 16, Kind::Mixed),
        (341, 100, 64, Kind::Dense),
        (341, 64, 47, Kind::ReluSparse),
        (341, 64, 64, Kind::ReluSparse),
        (341, 16, 41, Kind::ReluSparse),
        (451, 16, 7, Kind::ReluSparse),
        (1233, 16, 3, Kind::ReluSparse),
    ];
    for (i, &(rows, k, n, a_kind)) in shapes.iter().enumerate() {
        let seed = 1000 + i as u64;
        let a = matrix(rows, k, seed, a_kind);
        let w = matrix(k, n, seed ^ 0xABCD, Kind::Mixed);
        let g = matrix(rows, n, seed ^ 0x1234, Kind::Mixed);
        let (want, want_at_b) = (reference::matmul(&a, &w), reference::matmul_at_b(&a, &g));
        // The gradient flow `G · Wᵀ` back to the layer's input width.
        let (want_a_bt, wt) = (reference::matmul_a_bt(&g, &w), w.transpose());
        for tier in Tier::supported() {
            let got = band_at!(tier, 0, rows, n, |r0, out| ops::matmul_kernel(&a, &w, r0, out));
            assert_eq!(bits(&got), mbits(&want), "A·B {i} {tier}");
            let got = band_at!(tier, 0, k, n, |r0, out| ops::matmul_at_b_kernel(&a, &g, r0, out));
            assert_eq!(bits(&got), mbits(&want_at_b), "AᵀB {i} {tier}");
            let got =
                band_at!(tier, 0, rows, k, |r0, out| ops::matmul_a_bt_kernel(&g, &wt, r0, out));
            assert_eq!(bits(&got), mbits(&want_a_bt), "A·Bᵀ {i} {tier}");
        }
        assert_eq!(mbits(&parallel::matmul_at_b(&a, &g, 3)), mbits(&want_at_b), "AᵀB {i} x3");
    }
}

/// Infinities and huge values must flow through the skip/accumulate logic
/// exactly like the reference (order changes would turn `inf + -inf` NaNs
/// on or off), and a zero in `A` must keep shielding an `Inf`/`NaN` in the
/// matching row of `B` — in the dense tile's rows and the listed tile's
/// rows alike.
#[test]
fn non_finite_values_propagate_identically() {
    let mut a = matrix(19, 13, 77, Kind::Mixed);
    a.set(0, 0, f32::INFINITY);
    a.set(5, 7, f32::NEG_INFINITY);
    a.set(18, 12, f32::MAX);
    let b = matrix(13, 9, 78, Kind::Mixed);
    let bt = matrix(9, 13, 79, Kind::Mixed);
    let l = matrix(19, 6, 80, Kind::Mixed);

    // One zero per row of an otherwise dense A, opposite a row of B that is
    // all Inf/NaN: the skip is the only thing keeping the output finite.
    let poison = |m: &mut Matrix, row: usize| {
        for c in 0..m.cols() {
            m.set(row, c, if c % 2 == 0 { f32::INFINITY } else { f32::NAN });
        }
    };
    let mut shielded = matrix(2 * MR_MAX + 1, KB + 3, 81, Kind::Dense);
    let mut poisoned = matrix(KB + 3, NR + 1, 82, Kind::Dense);
    poison(&mut poisoned, KB + 1);
    for r in 0..shielded.rows() {
        shielded.set(r, KB + 1, if r % 2 == 0 { 0.0 } else { -0.0 });
    }
    // The same for Aᵀ·B: a zero row of A opposite the poisoned row of G.
    let mut shielded_t = matrix(KB + 3, 2 * MR_MAX + 1, 83, Kind::Dense);
    let mut poisoned_g = matrix(KB + 3, NR + 1, 84, Kind::Dense);
    poison(&mut poisoned_g, KB + 1);
    for c in 0..shielded_t.cols() {
        shielded_t.set(KB + 1, c, if c % 2 == 0 { 0.0 } else { -0.0 });
    }

    for tier in Tier::supported() {
        let got = band_at!(tier, 0, 19, 9, |r0, out| ops::matmul_kernel(&a, &b, r0, out));
        assert_eq!(bits(&got), mbits(&reference::matmul(&a, &b)), "{tier}");
        let btt = bt.transpose();
        let got = band_at!(tier, 0, 19, 9, |r0, out| ops::matmul_a_bt_kernel(&a, &btt, r0, out));
        assert_eq!(bits(&got), mbits(&reference::matmul_a_bt(&a, &bt)), "{tier}");
        let got = band_at!(tier, 0, 13, 6, |r0, out| ops::matmul_at_b_kernel(&a, &l, r0, out));
        assert_eq!(bits(&got), mbits(&reference::matmul_at_b(&a, &l)), "{tier}");

        let (rows, n) = (shielded.rows(), poisoned.cols());
        let got =
            band_at!(tier, 0, rows, n, |r0, out| ops::matmul_kernel(&shielded, &poisoned, r0, out));
        assert!(got.iter().all(|v| v.is_finite()), "{tier}: the zero-skip must shield Inf/NaN");
        assert_eq!(bits(&got), mbits(&reference::matmul(&shielded, &poisoned)), "{tier}");

        let (rows, n) = (shielded_t.cols(), poisoned_g.cols());
        let got = band_at!(tier, 0, rows, n, |r0, out| {
            ops::matmul_at_b_kernel(&shielded_t, &poisoned_g, r0, out)
        });
        assert!(got.iter().all(|v| v.is_finite()), "{tier}: the zero-skip must shield Inf/NaN");
        assert_eq!(bits(&got), mbits(&reference::matmul_at_b(&shielded_t, &poisoned_g)), "{tier}");
    }
}
