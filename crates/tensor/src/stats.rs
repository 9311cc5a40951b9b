//! Norms and summary statistics.
//!
//! The compensation machinery relies on these: the ReqEC-FP Selector ranks
//! candidate approximations by row-wise L1 distance (paper Eq. 10), the
//! Bit-Tuner thresholds a proportion, and the Theorem-1 validation tracks
//! squared L2 norms of the gradient residuals.

use crate::dense::Matrix;
use crate::isa;

/// Sum of absolute entry values (entrywise L1 norm).
pub fn l1_norm(m: &Matrix) -> f32 {
    m.as_slice().iter().map(|x| x.abs()).sum()
}

/// Frobenius norm (entrywise L2 norm).
pub fn l2_norm(m: &Matrix) -> f32 {
    m.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Squared Frobenius norm, avoiding the square root.
pub fn l2_norm_sq(m: &Matrix) -> f32 {
    m.as_slice().iter().map(|x| x * x).sum()
}

/// Lanes of a row's L1 distance ([`row_l1_distance`]): sixteen independent
/// partial sums, so the reduction is four (SSE), two (AVX2) or one (AVX-512)
/// vector add per sixteen columns instead of one serial dependency chain.
/// The same sixteen at every instruction-set tier, like [`min_max`]'s — a
/// float sum depends on its order, so the order is fixed here, in the
/// source, and not left to the vector width.
pub const L1_LANES: usize = 16;

/// Folds the sixteen lane sums of a distance by one fixed tree:
/// `b[u] = a[u] + a[u+8]`, `s[u] = b[u] + b[u+4]`, `(s0 + s2) + (s1 + s3)`.
#[inline(always)]
pub fn fold_l1_lanes(a: [f32; L1_LANES]) -> f32 {
    let b: [f32; 8] = std::array::from_fn(|u| a[u] + a[u + 8]);
    let s: [f32; 4] = std::array::from_fn(|u| b[u] + b[u + 4]);
    (s[0] + s[2]) + (s[1] + s[3])
}

/// `Σ_i |a[i] − b[i]|` of one row (paper Eq. 10) in the **lane order** every
/// Selector distance and reconstruction-error figure of this workspace is
/// summed in: lane `j` adds the columns `≡ j (mod 16)` of the full
/// 16-column chunks in ascending order, [`fold_l1_lanes`] folds the lanes,
/// and the `len % 16` tail columns are then added in ascending order. A row
/// narrower than sixteen columns is therefore summed left to right.
///
/// A kernel body: `#[inline(always)]`, to be called under an
/// [`isa::dispatch`] — the order is the same at every tier, only the
/// registers the lanes sit in change.
///
/// # Panics
/// Panics if the rows differ in length.
#[inline(always)]
pub fn row_l1_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "row_l1_distance length mismatch");
    let full = a.len() / L1_LANES * L1_LANES;
    let ((a, a_tail), (b, b_tail)) = (a.split_at(full), b.split_at(full));
    let mut lanes = [0.0f32; L1_LANES];
    for (ca, cb) in a.chunks_exact(L1_LANES).zip(b.chunks_exact(L1_LANES)) {
        for u in 0..L1_LANES {
            lanes[u] += (ca[u] - cb[u]).abs();
        }
    }
    let mut distance = fold_l1_lanes(lanes);
    for (x, y) in a_tail.iter().zip(b_tail) {
        distance += (x - y).abs();
    }
    distance
}

/// Row-wise L1 distance between two equally-shaped matrices:
/// `out[v] = Σ_i |a[v,i] - b[v,i]|` (paper Eq. 10), each row summed by
/// [`row_l1_distance`].
pub fn rowwise_l1_distance(a: &Matrix, b: &Matrix) -> Vec<f32> {
    assert_eq!(a.shape(), b.shape(), "rowwise_l1_distance shape mismatch");
    isa::dispatch(
        #[inline(always)]
        || {
            a.rows_iter()
                .zip(b.rows_iter())
                .map(
                    #[inline(always)]
                    |(ra, rb)| row_l1_distance(ra, rb),
                )
                .collect()
        },
    )
}

/// Lanes of the [`min_max`] scan: sixteen independent running bounds, so
/// the loop is four (SSE), two (AVX2) or one (AVX-512) `minps`/`maxps` pair
/// per sixteen entries instead of one serial dependency chain. The same
/// sixteen at every instruction-set tier: only the registers they sit in
/// change.
const MIN_MAX_LANES: usize = 16;

/// Minimum and maximum over the *finite* entries of `xs` — the bucket range
/// of a quantized message. NaN and ±Inf entries are skipped; `(0.0, 0.0)`
/// when no entry is finite (including the empty slice). A zero bound is
/// always `+0.0`, whichever signed zeros the data holds: the minimum's bit
/// pattern goes on the wire, so it must not depend on scan order.
///
/// The minimum of a set of finite floats is exact and, up to the sign of
/// zero, unique, so the lane-wise scan returns bit for bit what a
/// left-to-right scan returns.
pub fn min_max(xs: &[f32]) -> (f32, f32) {
    isa::dispatch(
        #[inline(always)]
        || min_max_lanes(xs),
    )
}

/// The body of [`min_max`], compiled once per instruction-set tier.
#[inline(always)]
fn min_max_lanes(xs: &[f32]) -> (f32, f32) {
    // `a < b` selects are NaN-skipping (a NaN never compares below or above
    // the running bound) and lower to a single min/max instruction.
    let (mut min, mut max) = if xs.len() < MIN_MAX_LANES {
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &x in xs {
            min = if x < min { x } else { min };
            max = if x > max { x } else { max };
        }
        (min, max)
    } else {
        let mut lo = [f32::INFINITY; MIN_MAX_LANES];
        let mut hi = [f32::NEG_INFINITY; MIN_MAX_LANES];
        let mut chunks = xs.chunks_exact(MIN_MAX_LANES);
        for chunk in &mut chunks {
            scan_chunk(&mut lo, &mut hi, chunk);
        }
        // The tail is scanned as the last sixteen entries, overlapping the
        // chunks: min and max are idempotent, so an entry seen twice changes
        // nothing, and no scalar loop runs.
        if !chunks.remainder().is_empty() {
            scan_chunk(&mut lo, &mut hi, &xs[xs.len() - MIN_MAX_LANES..]);
        }
        fold_lanes(lo, hi)
    };
    if !(min.is_finite() && max.is_finite()) {
        // An infinity (or nothing finite at all) reached a bound: rescan,
        // skipping the infinities too. Cold — healthy messages are finite.
        (min, max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &x in xs.iter().filter(|x| x.is_finite()) {
            min = min.min(x);
            max = max.max(x);
        }
        if min > max {
            return (0.0, 0.0);
        }
    }
    // `-0.0 + 0.0 == +0.0`; every other value is unchanged.
    (min + 0.0, max + 0.0)
}

/// One sixteen-entry step of the [`min_max`] scan.
#[inline(always)]
fn scan_chunk(lo: &mut [f32; MIN_MAX_LANES], hi: &mut [f32; MIN_MAX_LANES], chunk: &[f32]) {
    for u in 0..MIN_MAX_LANES {
        lo[u] = if chunk[u] < lo[u] { chunk[u] } else { lo[u] };
        hi[u] = if chunk[u] > hi[u] { chunk[u] } else { hi[u] };
    }
}

/// The least of `lo` and the greatest of `hi`, folded pairwise (a tree
/// four selects deep rather than a scan of sixteen dependent ones).
///
/// Out of line and by value on purpose — both measured. Folded inside the
/// scan's own function, the compiler re-derived the scan loop's lane order
/// from the fold's pairing and the loop ran five times slower (19 200
/// floats: 1.7 → 8.1 µs); handed the lanes by reference, it kept them in
/// memory across the baseline loop (1.6 → 2.9 µs); and scanning them in
/// place after a 512-bit loop reads sixteen scalars back out of one vector
/// store, which stalls (a 16-float row: 16 → 36 ns). Like this every tier
/// is at or below the scan it replaced at every length.
#[inline(never)]
fn fold_lanes(mut lo: [f32; MIN_MAX_LANES], mut hi: [f32; MIN_MAX_LANES]) -> (f32, f32) {
    for width in [8, 4, 2, 1] {
        for u in 0..width {
            lo[u] = if lo[u + width] < lo[u] { lo[u + width] } else { lo[u] };
            hi[u] = if hi[u + width] > hi[u] { hi[u + width] } else { hi[u] };
        }
    }
    (lo[0], hi[0])
}

/// Mean entry value. Returns `0.0` for an empty matrix.
pub fn mean(m: &Matrix) -> f32 {
    if m.is_empty() {
        0.0
    } else {
        m.as_slice().iter().sum::<f32>() / m.len() as f32
    }
}

/// Index of the minimum value of a slice (first occurrence).
///
/// Used by the Selector: `argmin(S)` over the three candidate distances,
/// once per row inside its dispatched sweep — hence `#[inline(always)]`.
#[inline(always)]
pub fn argmin(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmin of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v < values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Tier;
    use proptest::prelude::*;

    #[test]
    fn norms_of_simple_matrix() {
        let m = Matrix::from_vec(1, 3, vec![3., -4., 0.]);
        assert_eq!(l1_norm(&m), 7.0);
        assert_eq!(l2_norm(&m), 5.0);
        assert_eq!(l2_norm_sq(&m), 25.0);
    }

    #[test]
    fn rowwise_l1_distance_per_row() {
        let a = Matrix::from_rows(&[vec![1., 2.], vec![0., 0.]]);
        let b = Matrix::from_rows(&[vec![1., 0.], vec![3., -1.]]);
        assert_eq!(rowwise_l1_distance(&a, &b), vec![2.0, 4.0]);
    }

    /// The sum is in lane order, not left to right, at every tier: 2^24
    /// absorbs sixteen 1.0s added one at a time, but not the 2s, 4s and 8
    /// the fold tree hands it, nor the tail's 3.0.
    #[test]
    fn row_l1_distance_sums_in_lane_order() {
        let mut a = [1.0f32; 19];
        (a[0], a[18]) = (16_777_216.0, 3.0);
        let zero = [0.0f32; 19];
        assert_eq!(a.iter().sum::<f32>(), 16_777_220.0, "left to right");
        for tier in Tier::supported() {
            let at = |n: usize| {
                isa::dispatch_on(
                    tier,
                    #[inline(always)]
                    || row_l1_distance(&a[..n], &zero[..n]),
                )
            };
            // b0 = 2^24 + 1 → 2^24; s0 = 2^24 + 2; (s0 + 4) + (4 + 4).
            assert_eq!(at(16), 16_777_230.0, "{tier}");
            // Tail, one column at a time: + 1 → …232 (ties to even), + 1
            // absorbed, + 3 → …236.
            assert_eq!(at(19), 16_777_236.0, "{tier}");
            // Fewer than sixteen columns: no lanes, left to right.
            assert_eq!(at(15), 16_777_216.0, "{tier}");
        }
    }

    #[test]
    fn min_max_and_mean() {
        let m = Matrix::from_vec(1, 4, vec![-1., 2., 0.5, 2.5]);
        assert_eq!(min_max(m.as_slice()), (-1.0, 2.5));
        assert_eq!(mean(&m), 1.0);
    }

    /// The left-to-right scan the lane-wise [`min_max`] must equal bit for
    /// bit, zero signs and non-finite entries included.
    fn min_max_reference(xs: &[f32]) -> (f32, f32) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &x in xs.iter().filter(|x| x.is_finite()) {
            if x < lo {
                lo = x;
            }
            if x > hi {
                hi = x;
            }
        }
        if lo > hi {
            return (0.0, 0.0);
        }
        let plus_zero = |x: f32| if x == 0.0 { 0.0 } else { x };
        (plus_zero(lo), plus_zero(hi))
    }

    fn bits(pair: (f32, f32)) -> (u32, u32) {
        (pair.0.to_bits(), pair.1.to_bits())
    }

    /// [`min_max`]'s body at every instruction-set tier the host supports.
    fn min_max_at_every_tier(xs: &[f32]) -> Vec<(Tier, (f32, f32))> {
        let at = |tier| {
            isa::dispatch_on(
                tier,
                #[inline(always)]
                || min_max_lanes(xs),
            )
        };
        Tier::supported().map(|tier| (tier, at(tier))).collect()
    }

    #[test]
    fn min_max_skips_non_finite_entries_and_reports_plus_zero() {
        let nan = f32::NAN;
        let inf = f32::INFINITY;
        let cases: [&[f32]; 9] = [
            &[],
            &[nan],
            &[nan, inf, -inf],
            &[-0.0],
            &[-0.0, 0.0, -0.0],
            &[3.0, inf, -2.0, nan],
            &[-inf, 5.0],
            &[nan, 7.5, nan],
            &[-1.0, -0.0],
        ];
        let want = [
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
            (-2.0, 3.0),
            (5.0, 5.0),
            (7.5, 7.5),
            (-1.0, 0.0),
        ];
        for (xs, want) in cases.iter().zip(want) {
            assert_eq!(bits(min_max(xs)), bits(want), "{xs:?}");
            // The same entries past the lane width, so the lanes see them.
            let long: Vec<f32> = xs.iter().cycle().take(xs.len() * 23).copied().collect();
            for (tier, got) in min_max_at_every_tier(&long) {
                assert_eq!(bits(got), bits(want), "{xs:?} × 23 at {tier}");
            }
        }
    }

    /// Every length through five lane widths, at every tier, against the
    /// left-to-right scan: each tail position — past the last full chunk,
    /// where the overlapping chunk reads — holds in turn a NaN, an infinity,
    /// a negative zero or the extreme, over finite data and over zeros.
    #[test]
    fn min_max_reads_every_tail_position_at_every_length_and_tier() {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, -9.0, 9.0];
        for len in 0..=80usize {
            let finite: Vec<f32> = (0..len).map(|i| ((i * 7) % 13) as f32 * 0.5 - 3.0).collect();
            for base in [finite, vec![0.0; len]] {
                let mut cases = vec![base.clone()];
                for p in len / MIN_MAX_LANES * MIN_MAX_LANES..len {
                    for &x in &specials {
                        let mut xs = base.clone();
                        xs[p] = x;
                        cases.push(xs);
                    }
                }
                for xs in &cases {
                    let want = bits(min_max_reference(xs));
                    assert_eq!(bits(min_max(xs)), want, "{xs:?}");
                    for (tier, got) in min_max_at_every_tier(xs) {
                        assert_eq!(bits(got), want, "{tier} {xs:?}");
                    }
                }
            }
        }
    }

    proptest! {
        /// Lane-wise equals sequential at every length around the lane
        /// width, with signed zeros, NaNs and infinities at drawn positions.
        #[test]
        fn lane_wise_min_max_equals_the_sequential_scan(
            vals in proptest::collection::vec(-4.0f32..4.0, 0..80),
            marks in proptest::collection::vec(0u8..12, 80..81),
        ) {
            let xs: Vec<f32> = vals
                .iter()
                .zip(&marks)
                .map(|(&v, &m)| match m {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    5 => v.trunc(), // repeated values and exact zeros
                    _ => v,
                })
                .collect();
            // Zeros only: the sign of the reported bound must not depend on
            // which zero a lane happened to see first.
            let zeros: Vec<f32> = marks.iter().map(|&m| if m % 2 == 0 { 0.0 } else { -0.0 }).collect();
            prop_assert_eq!(bits(min_max(&xs)), bits(min_max_reference(&xs)), "{:?}", xs);
            for (tier, got) in min_max_at_every_tier(&xs) {
                prop_assert_eq!(bits(got), bits(min_max_reference(&xs)), "{} {:?}", tier, xs);
            }
            for (tier, got) in min_max_at_every_tier(&zeros[..vals.len()]) {
                prop_assert_eq!(bits(got), bits((0.0, 0.0)), "{}", tier);
            }
        }
    }

    #[test]
    fn argmin_first_occurrence() {
        assert_eq!(argmin(&[3., 1., 1., 2.]), 1);
        assert_eq!(argmin(&[0.5]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmin_rejects_empty() {
        let _ = argmin(&[]);
    }
}
