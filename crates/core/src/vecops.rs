//! Parallel dense-vector kernels used by the ranking solvers.
//!
//! All reductions run through [`sr_par::map_reduce_blocks`]: fixed blocks of
//! [`sr_par::PAR_THRESHOLD`] elements folded **in block order**, so the
//! floating-point association depends only on the vector length — results
//! are bit-identical across thread counts (and, below the threshold, to a
//! plain sequential loop). Block-wise summation still differs from a single
//! unblocked fold above the threshold; every tolerance in this workspace
//! (1e-9 convergence, 1e-12 assertions) is far above that wobble.

/// `sum_i |x_i|`.
pub fn l1_norm(x: &[f64]) -> f64 {
    sr_par::map_reduce_blocks(
        x.len(),
        |r| x[r].iter().map(|v| v.abs()).sum::<f64>(),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// `sqrt(sum_i x_i^2)`.
pub fn l2_norm(x: &[f64]) -> f64 {
    sr_par::map_reduce_blocks(
        x.len(),
        |r| x[r].iter().map(|v| v * v).sum::<f64>(),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
    .sqrt()
}

/// `sum_i |x_i - y_i|`.
pub fn l1_distance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    sr_par::map_reduce_blocks(
        x.len(),
        |r| {
            x[r.clone()]
                .iter()
                .zip(&y[r])
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// `sqrt(sum_i (x_i - y_i)^2)` — the paper's convergence metric
/// ("L2-distance of successive iterations of the Power Method").
pub fn l2_distance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    sr_par::map_reduce_blocks(
        x.len(),
        |r| {
            x[r.clone()]
                .iter()
                .zip(&y[r])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0)
    .sqrt()
}

/// Scales `x` in place so its L1 norm is 1. No-op on a zero vector.
pub fn normalize_l1(x: &mut [f64]) {
    let n = l1_norm(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
}

/// `x *= factor` element-wise.
pub fn scale(x: &mut [f64], factor: f64) {
    sr_par::for_each_mut(x, |v| *v *= factor);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_small() {
        let x = [3.0, -4.0];
        assert_eq!(l1_norm(&x), 7.0);
        assert_eq!(l2_norm(&x), 5.0);
    }

    #[test]
    fn distances_small() {
        let x = [1.0, 2.0];
        let y = [4.0, -2.0];
        assert_eq!(l1_distance(&x, &y), 7.0);
        assert_eq!(l2_distance(&x, &y), 5.0);
    }

    #[test]
    fn normalize_l1_makes_unit_mass() {
        let mut x = vec![1.0, 3.0];
        normalize_l1(&mut x);
        assert_eq!(x, vec![0.25, 0.75]);
        let mut z = vec![0.0, 0.0];
        normalize_l1(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut x = vec![1.0, 2.0, 3.0];
        scale(&mut x, 2.0);
        assert_eq!(x, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn empty_vectors() {
        assert_eq!(l1_norm(&[]), 0.0);
        assert_eq!(l2_norm(&[]), 0.0);
        assert_eq!(l2_distance(&[], &[]), 0.0);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let n = 3 * sr_par::PAR_THRESHOLD;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| ((i * 53) % 97) as f64 / 97.0 - 0.5)
            .collect();
        let seq_l1: f64 = x.iter().map(|v| v.abs()).sum();
        assert!((l1_norm(&x) - seq_l1).abs() < 1e-9);
        let seq_l2 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((l2_norm(&x) - seq_l2).abs() < 1e-9);
        let seq_l2_distance = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!((l2_distance(&x, &y) - seq_l2_distance).abs() < 1e-9);
    }

    #[test]
    fn reductions_are_thread_count_invariant() {
        let n = 3 * sr_par::PAR_THRESHOLD + 7;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| ((i * 53) % 97) as f64 / 97.0 - 0.5)
            .collect();
        let at = |t: usize| {
            sr_par::with_threads(t, || {
                [
                    l1_norm(&x),
                    l2_norm(&x),
                    l1_distance(&x, &y),
                    l2_distance(&x, &y),
                ]
            })
        };
        let base = at(1);
        for t in [2, 8] {
            let got = at(t);
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
