//! Order statistics that carry the sample count they rest on.
//!
//! A failed item enters a latency sample set as `f64::INFINITY`, so it
//! sorts above every real latency and counts as missing any limit.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample set, with the count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile: the sample at rank `ceil(q * n)` (1-based)
/// of the sorted set. `None` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<Pct> {
    percentile(samples, 0.5)
}

/// The `q` percentile, but only when at least [`MIN_BEYOND`] samples
/// lie beyond it; for p90 that takes 100 samples.
pub fn tail(samples: &[f64], q: f64) -> Option<Pct> {
    percentile(samples, q).filter(|p| p.beyond >= MIN_BEYOND)
}

/// The `q` tail where the sample count allows one, else the maximum:
/// an upper bound on the percentile, reported with `beyond == 0` so
/// the shortfall is visible next to the value.
pub fn tail_or_max(samples: &[f64], q: f64) -> Option<Pct> {
    tail(samples, q).or_else(|| percentile(samples, 1.0))
}

/// The median for `q <= 0.5`, else [`tail_or_max`].
pub fn at(samples: &[f64], q: f64) -> Option<Pct> {
    if q <= 0.5 {
        median(samples)
    } else {
        tail_or_max(samples, q)
    }
}

/// Sum of a sample set; 0 (not the `-0` of `Iterator::sum`) when empty.
pub fn total(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |a, b| a + b)
}

/// Arithmetic mean, 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        total(samples) / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        let p = tail(&ramp(100), 0.9).expect("100 samples carry a p90");
        assert_eq!((p.value, p.n, p.beyond), (90.0, 100, 10));
        assert!(tail(&ramp(99), 0.9).is_none(), "99 samples leave 9 beyond");
        let p = tail(&ramp(1000), 0.9).expect("p90");
        assert_eq!((p.value, p.beyond), (900.0, 100));
    }

    #[test]
    fn short_sets_fall_back_to_the_stated_maximum() {
        let p = tail_or_max(&[3.0, 1.0, 2.0, 4.0], 0.9).expect("non-empty");
        assert_eq!((p.value, p.n, p.beyond), (4.0, 4, 0));
        let p = tail_or_max(&ramp(200), 0.9).expect("p90");
        assert_eq!((p.value, p.beyond), (180.0, 20));
    }

    #[test]
    fn median_is_an_observed_sample_and_counts_its_set() {
        let p = median(&[5.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!((p.value, p.n, p.beyond), (3.0, 3, 1));
        assert!(median(&[]).is_none());
    }

    #[test]
    fn failed_items_sort_as_infinite_latency() {
        // Ten failures among 100 samples push the p90 up to the worst
        // real latency, eleven push it to infinity.
        let mut s = ramp(90);
        s.extend([f64::INFINITY; 10]);
        let p = tail(&s, 0.9).expect("p90");
        assert_eq!(p.value, 90.0);
        s[0] = f64::INFINITY;
        assert_eq!(tail(&s, 0.9).expect("p90").value, f64::INFINITY);
        // A failure never lowers a percentile, wherever it sits.
        let mut t = ramp(100);
        t[99] = f64::INFINITY;
        assert_eq!(median(&t).expect("median").value, 50.0);
        t[0] = f64::INFINITY;
        assert_eq!(median(&t).expect("median").value, 51.0);
    }
}
