//! The in-repo seeded PRNG the randomized suites share
//! (`mod common;` in each). The workspace fetches no external crates, so
//! the generators run on this instead of `proptest`. Every case derives
//! deterministically from a fixed seed, so a failure's printed case number
//! reproduces it exactly.

// Each suite that includes this module uses only some of its methods.
#![allow(dead_code)]

/// xorshift64* — a tiny, seedable, statistically decent PRNG; good enough
/// to explore input spaces, with none of proptest's shrinking (the spaces
/// here are small enough that the printed case number suffices).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Avoid the all-zeros fixed point and decorrelate small seeds.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[lo, hi)`. The modulo bias is irrelevant at these range
    /// sizes (≪ 2⁶⁴).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.usize_in(0, xs.len())]
    }
}
