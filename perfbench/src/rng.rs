//! SplitMix64: the benchmark's own seed-derived choices (request pages,
//! seed sets), so the code under test sees only generated inputs.

/// A SplitMix64 stream.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s = SplitMix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        u32::try_from(self.next_u64() % u64::from(n.max(1))).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_salt() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = SplitMix::new(5, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let mut r = SplitMix::new(9, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
