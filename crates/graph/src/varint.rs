//! LEB128 variable-length integer coding.
//!
//! The adjacency row codec ([`crate::codec`]) stores gap-encoded
//! successor lists as LEB128 varints — the same family of instantaneous codes
//! the WebGraph framework (the paper's storage layer) builds on, chosen here
//! for byte alignment and decode speed over bit-level ζ-codes.

/// Appends `value` to `out` as an unsigned LEB128 varint (1–5 bytes for u32).
#[inline]
pub fn write_u32(out: &mut Vec<u8>, mut value: u32) {
    loop {
        // lint-ok(numeric-cast): masked to the low 7 bits, always fits u8.
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes an unsigned LEB128 varint from `buf[pos..]`, advancing `pos`.
///
/// Returns `None` on truncated input or a varint longer than 5 bytes; `pos`
/// is only advanced on success. The body is a fully unrolled 5-step decode:
/// gap-coded crawl rows are dominated by 1-byte varints, so the first-byte
/// fast path (one load, one compare) carries the block-decode hot loop of
/// the pipelined out-of-core solve.
#[inline]
pub fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let p = *pos;
    let b0 = *buf.get(p)?;
    if b0 < 0x80 {
        *pos = p + 1;
        return Some(u32::from(b0));
    }
    let mut value = u32::from(b0 & 0x7f);
    let b1 = *buf.get(p + 1)?;
    value |= u32::from(b1 & 0x7f) << 7;
    if b1 < 0x80 {
        *pos = p + 2;
        return Some(value);
    }
    let b2 = *buf.get(p + 2)?;
    value |= u32::from(b2 & 0x7f) << 14;
    if b2 < 0x80 {
        *pos = p + 3;
        return Some(value);
    }
    let b3 = *buf.get(p + 3)?;
    value |= u32::from(b3 & 0x7f) << 21;
    if b3 < 0x80 {
        *pos = p + 4;
        return Some(value);
    }
    let b4 = *buf.get(p + 4)?;
    if b4 > 0x0f {
        return None; // continuation past 5 bytes, or bits 32+ set
    }
    *pos = p + 5;
    Some(value | (u32::from(b4) << 28))
}

/// ZigZag-encodes a signed value so small magnitudes get short varints.
///
/// Checked: returns `None` when `v` is outside the representable range
/// `i32::MIN..=i32::MAX` (the widest interval whose zigzag image fits a
/// `u32`). The former `debug_assert!` range check compiled out in release
/// builds, so an oversized gap silently truncated into a *wrong but
/// decodable* varint — a data-corruption bug, not a crash.
#[inline]
pub fn try_zigzag(v: i64) -> Option<u32> {
    if (i64::from(i32::MIN)..=i64::from(i32::MAX)).contains(&v) {
        // lint-ok(numeric-cast): the zigzag image of an i32-range value fits
        // u32 by construction; the range is checked directly above.
        Some(((v << 1) ^ (v >> 63)) as u32)
    } else {
        None
    }
}

/// ZigZag-encodes a signed value, panicking when out of range.
///
/// # Panics
/// Panics (in every build profile) when `v` is outside
/// `i32::MIN..=i32::MAX`. Use [`try_zigzag`] to handle the overflow as a
/// value.
#[inline]
pub fn zigzag(v: i64) -> u32 {
    try_zigzag(v).unwrap_or_else(|| panic!("zigzag overflow: {v} exceeds the i32 gap range"))
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u32) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Number of bytes [`write_u32`] uses for `value`.
#[inline]
pub fn encoded_len(value: u32) -> usize {
    match value {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            write_u32(&mut buf, v);
            assert_eq!(buf.len(), encoded_len(v), "length for {v}");
            let mut pos = 0;
            assert_eq!(read_u32(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 300);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos), None);
    }

    #[test]
    fn overflow_final_byte_rejected() {
        // 5th byte may only carry 4 bits for u32.
        let buf = [0xffu8, 0xff, 0xff, 0xff, 0x10];
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, 1000, -1000, i64::from(i32::MAX / 2)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_roundtrips_at_the_exact_boundaries() {
        // The full i32 range is representable; its extremes map to the top
        // of the u32 space.
        assert_eq!(try_zigzag(i64::from(i32::MAX)), Some(u32::MAX - 1));
        assert_eq!(try_zigzag(i64::from(i32::MIN)), Some(u32::MAX));
        for v in [i64::from(i32::MIN), i64::from(i32::MAX)] {
            assert_eq!(unzigzag(try_zigzag(v).unwrap()), v);
        }
    }

    #[test]
    fn zigzag_overflow_is_detected_not_truncated() {
        // Regression: these used to silently truncate in release builds
        // (the range check was a debug_assert!), producing a *decodable*
        // varint for the wrong value.
        for v in [
            i64::from(i32::MAX) + 1,
            i64::from(i32::MIN) - 1,
            i64::from(u32::MAX),
            -i64::from(u32::MAX),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(try_zigzag(v), None, "value {v} must not encode");
        }
    }

    #[test]
    #[should_panic(expected = "zigzag overflow")]
    fn zigzag_panics_on_overflow_in_every_profile() {
        zigzag(i64::from(i32::MAX) + 1);
    }

    #[test]
    fn zigzag_small_magnitudes_are_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn sequential_decoding() {
        let mut buf = Vec::new();
        for v in [5u32, 500, 50_000] {
            write_u32(&mut buf, v);
        }
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos), Some(5));
        assert_eq!(read_u32(&buf, &mut pos), Some(500));
        assert_eq!(read_u32(&buf, &mut pos), Some(50_000));
        assert_eq!(read_u32(&buf, &mut pos), None);
    }
}
