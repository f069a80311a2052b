//! Deterministic, NaN-total orderings for rank scores.
//!
//! The repo-wide policy (clippy.toml disallows `partial_cmp`): rank
//! scores are never compared with `partial_cmp` — a NaN from a
//! pathological upstream solve must order *deterministically*, and must
//! always rank as the **worst** score, never the best. Plain
//! `f64::total_cmp` gets the determinism right but not the policy: IEEE
//! total order puts positive NaN above `+inf`, so a naive descending
//! `total_cmp` sort would crown a NaN score the top result — the exact
//! spam-amplifying outcome the throttle heuristics must avoid (an unknown
//! proximity must not earn a source full throttling, an unknown rank must
//! not win the ranking).
//!
//! These comparators started life private to `ThrottleVector` (PR 3's NaN
//! panic fix); they are promoted here so `RankVector`, the rank-correlation
//! metrics and the eval experiments share one policy instead of three
//! re-implementations.

use std::cmp::Ordering;

/// Descending order with NaN sorted last (rank position ∞).
///
/// Total: every pair of `f64`s, NaN included, compares consistently, so it
/// is safe for `sort_by`/`min_by`/`max_by`. For descending rank lists this
/// keeps NaN scores at the tail — "unknown" never beats "known".
#[inline]
pub fn cmp_desc_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN after every real score
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Ascending order with NaN sorted last.
///
/// The ascending twin: for "pick the minimum" selections (coldest page,
/// smallest residual) a NaN must not win the minimum either, so it sorts
/// after every real value here too. Note this is *not* the reverse of
/// [`cmp_desc_nan_last`] — both pin NaN to the tail.
#[inline]
pub fn cmp_asc_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_sorts_nan_last() {
        let mut v = [f64::NAN, 1.0, f64::INFINITY, -1.0, f64::NAN, 0.0];
        v.sort_by(|a, b| cmp_desc_nan_last(*a, *b));
        assert_eq!(&v[..4], &[f64::INFINITY, 1.0, 0.0, -1.0]);
        assert!(v[4].is_nan() && v[5].is_nan());
    }

    #[test]
    fn asc_sorts_nan_last() {
        let mut v = [f64::NAN, 1.0, -f64::INFINITY, 0.0];
        v.sort_by(|a, b| cmp_asc_nan_last(*a, *b));
        assert_eq!(&v[..3], &[-f64::INFINITY, 0.0, 1.0]);
        assert!(v[3].is_nan());
    }

    #[test]
    fn min_by_never_picks_nan() {
        let v = [f64::NAN, 2.0, 1.0];
        let m = v
            .iter()
            .copied()
            .min_by(|a, b| cmp_asc_nan_last(*a, *b))
            .unwrap();
        assert_eq!(m, 1.0);
    }

    #[test]
    fn zero_signs_and_nan_payloads_are_deterministic() {
        // total_cmp distinguishes -0.0 < +0.0 — an arbitrary but *stable*
        // choice, which is all determinism needs.
        assert_eq!(cmp_desc_nan_last(0.0, -0.0), std::cmp::Ordering::Less);
        assert_eq!(cmp_desc_nan_last(f64::NAN, f64::NAN), Ordering::Equal);
    }
}
