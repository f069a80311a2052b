//! Fixture: a justified `debug_assert!`, and the build-profile predicates
//! that are not assertions at all and need no waiver.

#[expect(
    clippy::disallowed_macros,
    reason = "re-validates the builder's sorted-row invariant; this runs once per edge in the hottest decode loop"
)]
pub fn apply_gap(prev: u32, gap: u32) -> u32 {
    debug_assert!(gap > 0, "gaps are strictly positive");
    prev + gap
}

pub fn checks_enabled() -> bool {
    cfg!(debug_assertions)
}

#[cfg(not(debug_assertions))]
pub fn release_only() {}
