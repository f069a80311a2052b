//! Fixture: waived `partial_cmp` — a `mod reference` keeping a naive
//! kernel verbatim for differential tests, and a tolerance comparison.

#[expect(
    clippy::disallowed_methods,
    reason = "the pre-total-order ordering, kept verbatim as a differential-test oracle"
)]
pub mod reference {
    pub fn sorted_desc(scores: &mut [f64]) {
        scores.sort_by(|a, b| b.partial_cmp(a).expect("finite scores"));
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "comparing solver tolerances, not rank scores; NaN yields false by design"
)]
pub fn epsilon_equal(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Equal)
}
