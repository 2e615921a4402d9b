//! Small statistical accumulators used throughout the simulator.
//!
//! Heavier, figure-specific collectors live in the `sb-stats` crate; the
//! bounded histogram here is the generic building block the substrate
//! crates also need.

/// A fixed-bucket histogram over `u64` samples with a catch-all overflow
/// bucket, mirroring how the paper reports "14, more" style distributions.
///
/// Bucket `i` counts samples with `value / bucket_width == i`; samples at or
/// beyond `buckets * bucket_width` land in the overflow bucket.
///
/// # Examples
///
/// ```
/// use sb_engine::stats::Histogram;
///
/// let mut h = Histogram::new(4, 10); // buckets [0,10) [10,20) [20,30) [30,40) + overflow
/// h.record(5);
/// h.record(35);
/// h.record(1000);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(3), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    max: Option<u64>,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `bucket_width == 0`.
    pub fn new(buckets: usize, bucket_width: u64) -> Self {
        assert!(buckets > 0 && bucket_width > 0, "histogram needs geometry");
        Histogram {
            width: bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
            sum: 0,
            max: None,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(Some(v));
        let idx = (v / self.width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Exact sum of all recorded samples (overflow included).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Count in bucket `i` (0 if out of range).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Count of samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all recorded samples (not bucketized).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Number of regular (non-overflow) buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bucket.
    pub fn bucket_width(&self) -> u64 {
        self.width
    }

    /// Fraction of samples in bucket `i` (0.0 when empty).
    pub fn bucket_fraction(&self, i: usize) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.bucket_count(i) as f64 / self.total() as f64
        }
    }

    /// Fraction of samples in the overflow bucket.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total() as f64
        }
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "bucket width mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value below which `q` (0..=1) of the samples fall, estimated at
    /// bucket granularity (upper edge of the containing bucket).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut cum = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return (i as u64 + 1) * self.width;
            }
        }
        self.max.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(3, 5);
        for v in [0, 4, 5, 14, 15, 100] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
        assert_eq!(h.max(), Some(100));
        assert!((h.bucket_fraction(0) - 2.0 / 6.0).abs() < 1e-12);
        assert!((h.overflow_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_and_quantile() {
        let mut a = Histogram::new(10, 10);
        let mut b = Histogram::new(10, 10);
        for v in 0..50 {
            a.record(v);
        }
        for v in 50..100 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.total(), 100);
        assert_eq!(a.quantile(0.5), 50);
        assert_eq!(a.quantile(1.0), 100);
        assert_eq!(Histogram::new(2, 2).quantile(0.9), 0);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn histogram_zero_buckets_panics() {
        Histogram::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn histogram_merge_geometry_mismatch_panics() {
        let mut a = Histogram::new(2, 2);
        a.merge(&Histogram::new(2, 3));
    }

    #[test]
    fn empty_histogram_is_all_neutral() {
        let h = Histogram::new(4, 10);
        assert_eq!(h.total(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        for i in 0..h.buckets() {
            assert_eq!(h.bucket_count(i), 0);
            assert_eq!(h.bucket_fraction(i), 0.0);
        }
        assert_eq!(h.overflow_fraction(), 0.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn merging_empties_stays_empty() {
        let mut h = Histogram::new(4, 10);
        h.merge(&Histogram::new(4, 10));
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), None);
        // Merging an empty histogram into a populated one changes
        // nothing.
        let mut p = Histogram::new(4, 10);
        p.record(7);
        p.merge(&Histogram::new(4, 10));
        assert_eq!(p.total(), 1);
        assert_eq!(p.mean(), 7.0);
    }
}
