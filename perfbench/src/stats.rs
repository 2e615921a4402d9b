//! Order statistics for host timings.

/// Median of `xs` (mean of the middle pair for an even count); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fewest samples that must lie beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with its sample counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly ranked beyond it.
    pub beyond: usize,
}

/// 1-based nearest rank of quantile `q` (in `(0, 1]`) among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples rank beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The nearest-rank `q` quantile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (too few to say anything about
/// that tail).
pub fn percentile(xs: &[f64], q: f64) -> Option<Percentile> {
    let n = xs.len();
    if beyond(n, q) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Percentile {
        value: v[rank(n, q) - 1],
        samples: n,
        beyond: beyond(n, q),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ms: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(percentile(&ms, 0.9), None, "99 samples leave 9 beyond p90");
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&ms, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!((p.value, p.samples, p.beyond), (90.0, 100, 10));
    }

    #[test]
    fn small_workloads_get_no_tail_percentile() {
        // paper-64 runs 12 machines a pass, wide-1024 one.
        assert_eq!(percentile(&[5.0; 12], 0.9), None);
        assert_eq!(percentile(&[5.0], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        // The median of 12 leaves 6 beyond it: still too few.
        assert_eq!(percentile(&[5.0; 12], 0.5), None);
        assert!(percentile(&[5.0; 20], 0.5).is_some());
    }
}
