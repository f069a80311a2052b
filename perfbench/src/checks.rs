//! Answer checks. An operation whose answer fails one of these counts as a
//! failed operation in the run's ledger.

use sr_core::{IterationStats, RankVector};

/// Largest accepted `|Σ scores − 1|` of a rank vector.
pub const L1_TOL: f64 = 1e-9;

/// FNV-1a hash of a vector's score bits, plus its iteration count: what
/// every repetition of an operation must reproduce exactly.
pub fn fingerprint(v: &RankVector) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in v.scores() {
        for byte in s.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (h, v.stats().iterations)
}

/// A rank vector must have converged, hold finite non-negative scores, and
/// be L1-normalised within [`L1_TOL`].
pub fn check_rank(label: &str, v: &RankVector) -> Result<(), String> {
    let stats = v.stats();
    if !stats.converged {
        return Err(format!(
            "{label}: not converged after {} iterations (residual {:e})",
            stats.iterations, stats.final_residual
        ));
    }
    if let Some(bad) = v.scores().iter().find(|s| !s.is_finite() || **s < 0.0) {
        return Err(format!("{label}: score {bad} is not a probability"));
    }
    let sum: f64 = v.scores().iter().sum();
    if (sum - 1.0).abs() > L1_TOL {
        return Err(format!("{label}: scores sum to {sum}, not 1"));
    }
    Ok(())
}

/// Whether two score vectors are bit-identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A ranked `(id, score)` reply must equal the top-`k` of `exact`, ids and
/// score bits alike.
pub fn ranked_matches(reply: &[(u32, f64)], exact: &RankVector, k: usize) -> Result<(), String> {
    let ids = exact.top_k(k);
    if reply.len() != ids.len() {
        return Err(format!(
            "reply has {} pairs, expected {}",
            reply.len(),
            ids.len()
        ));
    }
    for (&(id, score), &want) in reply.iter().zip(&ids) {
        let want_score = exact.scores()[want as usize];
        if id != want || score.to_bits() != want_score.to_bits() {
            return Err(format!(
                "pair ({id}, {score:e}) differs from exact ({want}, {want_score:e})"
            ));
        }
    }
    Ok(())
}

/// The additive error bound `sr_core::approx` states for its walk cache
/// (Hoeffding over `walks` walks of at most `max_hops` hops at continuation
/// `beta`, per-node failure probability `delta`), scaled by the residual
/// mass left for the walks to close — at most the push target.
pub fn approx_bound(residual: f64, walks: u32, max_hops: u32, beta: f64, delta: f64) -> f64 {
    let hoeffding = ((2.0 / delta).ln() / (2.0 * f64::from(walks.max(1)))).sqrt();
    residual * (1.0 - beta) * f64::from(max_hops + 1) * hoeffding
}

/// Every pair of an approximate reply must lie within `bound` of the exact
/// score of the same id.
pub fn within_bound(reply: &[(u32, f64)], exact: &[f64], bound: f64) -> Result<(), String> {
    if reply.is_empty() {
        return Err("empty approximate reply".into());
    }
    for &(id, score) in reply {
        let Some(&want) = exact.get(id as usize) else {
            return Err(format!("reply names page {id}, graph has {}", exact.len()));
        };
        if !score.is_finite() || (score - want).abs() > bound {
            return Err(format!(
                "page {id}: approx {score:e} vs exact {want:e} exceeds bound {bound:e}"
            ));
        }
    }
    Ok(())
}

/// A converged rank vector over `scores`, for building oracles from dumped
/// server vectors.
pub fn vector(scores: Vec<f64>) -> RankVector {
    RankVector::new(
        scores,
        IterationStats {
            iterations: 0,
            final_residual: 0.0,
            converged: true,
            residual_history: Vec::new(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(scores: Vec<f64>, converged: bool) -> RankVector {
        RankVector::new(
            scores,
            IterationStats {
                iterations: 3,
                final_residual: 1e-12,
                converged,
                residual_history: Vec::new(),
            },
        )
    }

    #[test]
    fn rank_vectors_must_converge_and_normalise() {
        assert!(check_rank("ok", &ranked(vec![0.25, 0.75], true)).is_ok());
        assert!(check_rank("slow", &ranked(vec![0.25, 0.75], false)).is_err());
        assert!(check_rank("mass", &ranked(vec![0.25, 0.7], true)).is_err());
        assert!(check_rank("neg", &ranked(vec![-0.25, 1.25], true)).is_err());
        assert!(check_rank("nan", &ranked(vec![f64::NAN, 1.0], true)).is_err());
    }

    #[test]
    fn fingerprints_see_every_bit_and_the_iteration_count() {
        let a = ranked(vec![0.25, 0.75], true);
        let b = ranked(vec![0.25, f64::from_bits(0.75f64.to_bits() + 1)], true);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&ranked(vec![0.25, 0.75], true))
        );
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let slower = RankVector::new(
            vec![0.25, 0.75],
            IterationStats {
                iterations: 4,
                ..a.stats().clone()
            },
        );
        assert_ne!(fingerprint(&a), fingerprint(&slower));
        assert!(same_bits(a.scores(), &[0.25, 0.75]));
        assert!(!same_bits(a.scores(), b.scores()));
        assert!(!same_bits(a.scores(), &[0.25]));
    }

    #[test]
    fn ranked_replies_must_equal_the_exact_top_k() {
        let exact = vector(vec![0.1, 0.5, 0.4]);
        assert!(ranked_matches(&[(1, 0.5), (2, 0.4)], &exact, 2).is_ok());
        assert!(
            ranked_matches(&[(2, 0.4), (1, 0.5)], &exact, 2).is_err(),
            "order"
        );
        assert!(ranked_matches(&[(1, 0.5)], &exact, 2).is_err(), "length");
        let off = f64::from_bits(0.5f64.to_bits() ^ 1);
        assert!(
            ranked_matches(&[(1, off), (2, 0.4)], &exact, 2).is_err(),
            "bits"
        );
    }

    #[test]
    fn approximate_replies_are_held_to_the_stated_bound() {
        let exact = [0.1, 0.5, 0.4];
        assert!(within_bound(&[(1, 0.52)], &exact, 0.05).is_ok());
        assert!(within_bound(&[(1, 0.6)], &exact, 0.05).is_err());
        assert!(
            within_bound(&[(9, 0.6)], &exact, 1.0).is_err(),
            "id out of range"
        );
        assert!(within_bound(&[], &exact, 1.0).is_err());
        let loose = approx_bound(0.25, 32, 32, 0.85, 1e-6);
        let tight = approx_bound(0.25, 512, 32, 0.85, 1e-6);
        assert!(tight < loose && tight > 0.0, "more walks tighten the bound");
        assert!(
            approx_bound(0.0, 32, 32, 0.85, 1e-6) == 0.0,
            "no residual, no error"
        );
    }
}
