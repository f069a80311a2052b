//! Fixture: narrowing casts that pass — a masked cast clippy proves
//! lossless by itself, and a waived one that states why the value fits.

pub fn low_byte(v: u32) -> u8 {
    (v & 0x7f) as u8
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "asserted to fit on the line above"
)]
pub fn checked(idx: usize) -> u32 {
    assert!(idx <= u32::MAX as usize);
    idx as u32
}
