//! Order statistics over exact sample sets.
//!
//! Percentiles use the nearest-rank rule, the same one
//! `sr_obs::LatencySamples` applies to the server's own samples: the
//! reported value is always a sample that was actually measured.

/// Nearest-rank percentile of `values` (`p` in `[0, 100]`): the smallest
/// sample with at least `p`% of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median by the nearest-rank rule (the lower middle of an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// [`median`], NaN when there are no samples (reported as an incorrect run).
pub fn median_or_nan(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// Samples ranked above the nearest-rank `p` percentile of `n` samples —
/// how deep the tail behind a reported percentile is.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Samples a latency class needs so that at least `tail` of them lie beyond
/// its percentile `p`.
pub fn samples_for_tail(p: f64, tail: usize) -> usize {
    let mut n = tail.max(1);
    while beyond(n, p) < tail {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let v = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 90.0), Some(50.0));
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0), "lower middle");
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p90_of_a_hundred_samples_leaves_ten_beyond() {
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&h, 90.0), Some(90.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(0, 90.0), 0);
        assert_eq!(samples_for_tail(90.0, 10), 100);
        assert_eq!(samples_for_tail(50.0, 10), 20);
    }

    #[test]
    fn nan_free_ordering_is_total() {
        let v = [2.5, -1.0, 0.0, 7.25];
        assert_eq!(percentile(&v, 25.0), Some(-1.0));
        assert_eq!(percentile(&v, 75.0), Some(2.5));
    }
}
