//! Summary statistics of timing samples.

/// Percentiles a tail is reported at, in tenths of a percent, highest first
/// (integers, so ranks at exact sample counts do not round up).
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// A tail percentile with the sample count that supports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`).
    pub percentile: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
}

/// Sort a sample in place (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Nearest-rank 1-based rank of the `permille`/10 percentile in a sample
/// of `n`.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Median of a sample (the mean of the two middle values for even sizes);
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// The highest of 99.9/99/95/90/75/50 that has at least ten samples beyond
/// its rank, with the sample count. A sample too small for even the median
/// to qualify reports its median; `None` for an empty sample.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let permille = TAIL_PERMILLE
        .into_iter()
        .find(|&p| n - rank(p, n) >= MIN_BEYOND)
        .unwrap_or(500);
    Some(Tail {
        percentile: permille as f64 / 10.0,
        value: v[rank(permille, n) - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers have to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank(p99) = 990, leaving exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 (rank 990) has only 9 beyond, so p95 (rank 950).
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
        // 10000 samples support p99.9; 9999 do not.
        assert_eq!(tail(&ramp(10_000)).unwrap().percentile, 99.9);
        assert_eq!(tail(&ramp(9_999)).unwrap().percentile, 99.0);
        // 20 samples: the median (rank 10) has 10 beyond; p75 (rank 15) has 5.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
    }

    #[test]
    fn tail_of_a_tiny_sample_falls_back_to_the_median_rank() {
        let t = tail(&ramp(5)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 3.0, 5));
        assert_eq!(tail(&[]), None);
    }
}
