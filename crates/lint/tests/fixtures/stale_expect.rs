//! Fixture: a waiver that outlived its site. The cast it covered became
//! a lossless `u64::from`, so the `#[expect]` has nothing to suppress and
//! `unfulfilled_lint_expectations` fails the build.

#[expect(
    clippy::cast_possible_truncation,
    reason = "was a narrowing cast; now widening"
)]
pub fn widen(v: u32) -> u64 {
    u64::from(v)
}
