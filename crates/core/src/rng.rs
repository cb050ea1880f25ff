//! A small, fast, dependency-free pseudo-random generator.
//!
//! The exploration strategies only need reproducible schedule shuffling,
//! not cryptographic quality, so a SplitMix64 generator (Steele, Lea &
//! Flood, OOPSLA 2014 — the seeding generator of `java.util.SplittableRandom`
//! and the reference seeder for xoshiro) is plenty: it passes BigCrush,
//! costs a handful of arithmetic ops per draw, and keeps the workspace
//! free of external dependencies.

/// A deterministic SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is at most
    /// `n / 2^64`, irrelevant for schedule selection.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range needs a non-empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_reference_values() {
        // Reference vector for seed 1234567 from the SplitMix64 paper's
        // published implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.gen_range(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut r = SplitMix64::new(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
