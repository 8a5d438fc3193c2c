//! Deterministic randomness.
//!
//! Every stochastic choice in the workspace (overlay labels aside, which are
//! hashed) flows through a [`DetRng`] seeded explicitly, so any run —
//! including any w.h.p.-style experiment — can be replayed bit-for-bit from
//! its seed. Built on SplitMix64 directly rather than `rand`'s `StdRng` so
//! seeds stay human-readable `u64`s and stream-splitting is cheap.

use crate::hashing::split_mix64;

/// A small, fast, seedable RNG (SplitMix64 sequence).
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        DetRng {
            state: split_mix64(seed ^ 0xDEAD_BEEF_CAFE_F00D),
        }
    }

    /// Derive an independent stream, e.g. one per node from a run seed.
    pub fn split(&self, stream: u64) -> DetRng {
        DetRng::new(split_mix64(
            self.state ^ split_mix64(stream.wrapping_add(0x9E37)),
        ))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64_inline(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        split_mix64(self.state)
    }

    /// Uniform in `[0, bound)`. Uses rejection-free multiply-shift (Lemire);
    /// bias is < 2^-32 for the bounds this workspace uses, far below any
    /// experiment's resolution.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64_inline() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform f64 in [0,1).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64_inline() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Pick one element uniformly (panics on empty slice).
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

impl crate::statehash::StateHash for DetRng {
    fn state_hash(&self, h: &mut crate::statehash::StateHasher) {
        h.write_u64(self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64_inline(), b.next_u64_inline());
        }
    }

    #[test]
    fn split_streams_diverge() {
        let root = DetRng::new(7);
        let mut a = root.split(0);
        let mut b = root.split(1);
        let same = (0..64)
            .filter(|_| a.next_u64_inline() == b.next_u64_inline())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound_and_is_roughly_uniform() {
        let mut rng = DetRng::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let v = rng.below(10);
            assert!(v < 10);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = DetRng::new(11);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.range(5, 8);
            assert!((5..=8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = DetRng::new(17);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits));
    }
}
