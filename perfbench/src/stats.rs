//! Order statistics the benchmark reports: medians, the quartiles the
//! acceptance rule uses, and the tail percentile a sample can support.

/// Sorted copy of `values` (total order; the benchmark never feeds NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for even counts);
/// `NaN` for an empty sample so a missing measurement cannot pass as 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The lowest sample; `NaN` for an empty sample. Used wherever the same
/// piece of work is timed several times: interference from other tenants
/// of the host only ever adds time, so the lowest sample is the best
/// estimate of what the code costs.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the acceptance rule in `BENCHMARK.json`'s contract is
/// stated in those terms, so `--agree` must reproduce them digit for digit.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the contract bounds. `None` below two samples or at median 0.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Percentiles a tail row may be stated at, ascending.
const TAIL_CANDIDATES: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, and its value: `(percentile, value)`. A sample too
/// small to support even the median's tail (fewer than 20) reports the
/// median, and the caller states `n` beside it.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.5, f64::NAN);
    }
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    let p = TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_CANDIDATES[0]);
    (p, v[rank(p) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_is_the_lowest_sample() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert!(best(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), Some((15.0, 120.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: even the median has only 9 beyond it → falls back.
        assert_eq!(tail(&sample(19)), (0.5, 10.0));
        // 20 samples: exactly 10 beyond the median.
        assert_eq!(tail(&sample(20)), (0.5, 10.0));
        // 100 samples: p90 leaves exactly 10 beyond; p95 would leave 5.
        assert_eq!(tail(&sample(100)), (0.9, 90.0));
        // 1 000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail(&sample(1000)), (0.99, 990.0));
        // 999 samples: p99 → rank 990, 9 beyond → p95.
        assert_eq!(tail(&sample(999)).0, 0.95);
        // 10 000 samples: p99.9.
        assert_eq!(tail(&sample(10_000)), (0.999, 9990.0));
        assert!(tail(&[]).1.is_nan());
    }
}
