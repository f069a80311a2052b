//! Discrete power-law (Zipf-like) samplers.
//!
//! Web degree distributions and host sizes are heavy-tailed; the generator
//! samples everything from truncated discrete power laws via inverse-CDF
//! tables, which keeps sampling O(log max) and fully deterministic given the
//! RNG stream.

use rand::Rng;

/// Samples integers `1..=max` with `P(k) ∝ k^-gamma`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative distribution over `1..=max` (last entry == 1.0).
    cdf: Vec<f64>,
    mean: f64,
}

impl ZipfSampler {
    /// Builds the inverse-CDF table.
    ///
    /// # Panics
    /// Panics if `gamma <= 0`, or `max == 0`.
    pub fn new(gamma: f64, max: usize) -> Self {
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        assert!(max >= 1, "max must be at least 1");
        let mut weights: Vec<f64> = (1..=max).map(|k| (k as f64).powf(-gamma)).collect();
        let total: f64 = weights.iter().sum();
        let mean = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (i + 1) as f64 * w)
            .sum::<f64>()
            / total;
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        *weights.last_mut().unwrap() = 1.0; // guard against rounding drift
        ZipfSampler { cdf: weights, mean }
    }

    /// Expected value of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample in `1..=max`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of entries < u, i.e. the index of
        // the first cdf entry >= u; +1 maps index to value.
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

/// Samples integer degrees with a power-law shape rescaled to a target mean.
#[derive(Debug, Clone)]
pub struct DegreeSampler {
    zipf: ZipfSampler,
    scale: f64,
}

impl DegreeSampler {
    /// A sampler whose draws have shape `k^-gamma` (truncated at `max`)
    /// rescaled so the expected value is approximately `mean`.
    pub fn with_mean(gamma: f64, mean: f64, max: usize) -> Self {
        assert!(mean >= 1.0, "mean degree must be >= 1, got {mean}");
        let zipf = ZipfSampler::new(gamma, max);
        DegreeSampler {
            scale: mean / zipf.mean(),
            zipf,
        }
    }

    /// Draws one degree (always >= 1).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        crate::round_count(self.zipf.sample(rng) as f64 * self.scale).max(1)
    }
}

/// Samples an index `0..n` with probability proportional to `weights[i]`
/// (cumulative table + binary search).
#[derive(Debug, Clone)]
pub struct WeightedIndexSampler {
    cum: Vec<f64>,
}

impl WeightedIndexSampler {
    /// Builds from non-negative weights summing to a positive total.
    ///
    /// # Panics
    /// Panics on negative/non-finite weights or an all-zero total.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "weights must be finite and non-negative"
            );
            acc += w;
            cum.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        WeightedIndexSampler { cum }
    }

    /// Draws one index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cum.last().unwrap();
        let u: f64 = rng.gen::<f64>() * total;
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// Splits `total` units into `n` parts whose sizes follow `P(k) ∝ k^-gamma`
/// (each part >= 1). Sampled sizes are rescaled to hit `total` exactly,
/// with the remainder spread over the largest parts.
pub fn partition_power_law<R: Rng>(
    total: usize,
    n: usize,
    gamma: f64,
    max_part: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(n >= 1, "need at least one part");
    assert!(
        total >= n,
        "total {total} cannot cover {n} parts of size >= 1"
    );
    let zipf = ZipfSampler::new(gamma, max_part.max(1));
    let raw: Vec<usize> = (0..n).map(|_| zipf.sample(rng)).collect();
    let raw_sum: usize = raw.iter().sum();
    let scale = total as f64 / raw_sum as f64;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "each part is at most total (a usize); flooring is the intended rounding, the drift is fixed up below"
    )]
    let mut parts: Vec<usize> = raw
        .iter()
        .map(|&r| ((r as f64 * scale) as usize).max(1))
        .collect();
    // Fix up rounding drift: distribute the residual over the largest parts
    // (or trim from them), never dropping a part below 1.
    let mut diff = total as isize - parts.iter().sum::<usize>() as isize;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(parts[i]));
    let mut idx = 0;
    while diff != 0 {
        let i = order[idx % n];
        if diff > 0 {
            parts[i] += 1;
            diff -= 1;
        } else if parts[i] > 1 {
            parts[i] -= 1;
            diff += 1;
        }
        idx += 1;
        // Safety valve: if every part is 1 and diff < 0, the assert above
        // guaranteed this cannot happen.
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_samples_in_range() {
        let z = ZipfSampler::new(2.0, 50);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let s = z.sample(&mut rng);
            assert!((1..=50).contains(&s));
        }
    }

    #[test]
    fn zipf_favors_small_values() {
        let z = ZipfSampler::new(2.5, 100);
        let mut rng = SmallRng::seed_from_u64(2);
        let ones = (0..5000).filter(|_| z.sample(&mut rng) == 1).count();
        // P(1) for gamma=2.5 is ~0.75.
        assert!(ones > 3000, "got {ones} ones out of 5000");
    }

    #[test]
    fn zipf_empirical_mean_close_to_analytic() {
        let z = ZipfSampler::new(2.0, 100);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let sum: usize = (0..n).map(|_| z.sample(&mut rng)).sum();
        let emp = sum as f64 / n as f64;
        assert!(
            (emp - z.mean()).abs() / z.mean() < 0.05,
            "emp {emp} vs analytic {}",
            z.mean()
        );
    }

    #[test]
    fn degree_sampler_hits_target_mean() {
        let d = DegreeSampler::with_mean(2.7, 8.0, 200);
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 50_000;
        let sum: usize = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = sum as f64 / n as f64;
        assert!((emp - 8.0).abs() < 1.2, "empirical mean {emp}, wanted ~8");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndexSampler::new(&[1.0, 0.0, 3.0]);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > 2 * counts[0], "{counts:?}");
    }

    #[test]
    fn partition_sums_exactly() {
        let mut rng = SmallRng::seed_from_u64(6);
        let parts = partition_power_law(10_000, 137, 1.8, 5_000, &mut rng);
        assert_eq!(parts.len(), 137);
        assert_eq!(parts.iter().sum::<usize>(), 10_000);
        assert!(parts.iter().all(|&p| p >= 1));
    }

    #[test]
    fn partition_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(7);
        let parts = partition_power_law(100_000, 1_000, 1.6, 50_000, &mut rng);
        let max = *parts.iter().max().unwrap();
        let min = *parts.iter().min().unwrap();
        assert!(max > 50 * min, "max {max}, min {min}");
    }

    #[test]
    fn partition_tight_total() {
        let mut rng = SmallRng::seed_from_u64(8);
        let parts = partition_power_law(5, 5, 2.0, 100, &mut rng);
        assert_eq!(parts, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn determinism_under_same_seed() {
        let z = ZipfSampler::new(2.0, 30);
        let a: Vec<usize> = (0..20)
            .scan(SmallRng::seed_from_u64(9), |r, _| Some(z.sample(r)))
            .collect();
        let b: Vec<usize> = (0..20)
            .scan(SmallRng::seed_from_u64(9), |r, _| Some(z.sample(r)))
            .collect();
        assert_eq!(a, b);
    }
}
