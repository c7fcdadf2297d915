//! Order statistics over raw samples.

use std::time::Duration;

/// Samples sorted once, read at any quantile by nearest rank.
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sorts `samples` (NaN-free by construction: every sample is a
    /// measured duration, count or ratio of positive counts).
    pub fn new(mut samples: Vec<f64>) -> Sorted {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// 1-based nearest rank of quantile `q`: the smallest rank r with
    /// r/n ≥ q, clamped to [1, n].
    fn rank(&self, q: f64) -> usize {
        let n = self.0.len();
        ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// The nearest-rank `q`-quantile; 0 when there are no samples.
    pub fn q(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0[self.rank(q) - 1]
    }

    /// How many samples lie strictly beyond the `q`-quantile's rank — the
    /// sample support of a tail percentile.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len().saturating_sub(self.rank(q))
    }

    /// Arithmetic mean; 0 when there are no samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Median of `samples` by nearest rank (0 when empty).
pub fn median(samples: Vec<f64>) -> f64 {
    Sorted::new(samples).q(0.5)
}

/// Duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selects_the_expected_sample() {
        let s = Sorted::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.q(0.5), 50.0);
        assert_eq!(s.q(0.9), 90.0);
        assert_eq!(s.q(0.99), 99.0);
        assert_eq!(s.q(1.0), 100.0);
        assert_eq!(s.q(0.0), 1.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn small_and_empty_sets_are_total() {
        let one = Sorted::new(vec![7.0]);
        assert_eq!(one.q(0.01), 7.0);
        assert_eq!(one.q(0.99), 7.0);
        assert_eq!(one.beyond(0.5), 0);
        // Odd count: the middle sample; even count: the lower middle.
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        let empty = Sorted::new(Vec::new());
        assert_eq!(empty.q(0.5), 0.0);
        assert_eq!(empty.beyond(0.5), 0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
