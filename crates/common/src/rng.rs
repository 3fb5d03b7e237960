//! Deterministic random number generation.
//!
//! All stochastic components in Hercules draw from a [`SimRng`] seeded
//! explicitly by the caller; two runs with the same seed are bit-identical.
//! [`SimRng::fork`] derives independent child streams (e.g. one per inference
//! thread) without the children perturbing the parent's sequence.
//!
//! The generator is a self-contained xoshiro256++ (the algorithm behind
//! `rand`'s 64-bit `SmallRng`) with SplitMix64 state expansion, so the crate
//! carries no external dependency and the stream is stable across toolchains.

/// SplitMix64's increment (the golden-ratio gamma).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's finalizer: a bijective avalanche of `z`. Every seeded hash
/// in the workspace (fork derivation, fault scenarios, trace sampling,
/// shard routing, arena fill) is this mix of some keyed input.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances `state` by [`GOLDEN_GAMMA`] and returns
/// the mixed new state.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// A seeded, splittable random number generator for simulations.
///
/// ```
/// use hercules_common::rng::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
    forks: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            seed,
            forks: 0,
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator.
    ///
    /// Children are keyed by a fork counter mixed with the parent seed, so a
    /// parent can hand out any number of decorrelated streams and later draws
    /// from the parent do not depend on how many children were forked.
    pub fn fork(&mut self) -> SimRng {
        self.forks += 1;
        // SplitMix64 avalanche over (seed, fork index).
        SimRng::seed_from(mix64(
            self.seed
                .wrapping_add(self.forks.wrapping_mul(GOLDEN_GAMMA)),
        ))
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> the unit interval, the standard double conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[0, 1)` guaranteed to be strictly positive
    /// (safe as a logarithm argument).
    pub fn uniform_pos(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.bounded(n as u64) as usize
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.bounded(span + 1)
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Unbiased uniform draw in `[0, n)` via Lemire's multiply-shift with
    /// rejection.
    fn bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let m = self.next_u64() as u128 * n as u128;
        let mut lo = m as u64;
        if lo < n {
            // Slow path (probability n / 2^64): compute the rejection
            // threshold once and resample draws from the biased region.
            let threshold = n.wrapping_neg() % n;
            let mut m = m;
            while lo < threshold {
                m = self.next_u64() as u128 * n as u128;
                lo = m as u64;
            }
            return (m >> 64) as u64;
        }
        (m >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_decorrelated_and_stable() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        // Same fork index from same seed -> identical child.
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Next fork differs from first.
        let mut c3 = parent1.fork();
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn fork_does_not_disturb_parent_stream() {
        let mut a = SimRng::seed_from(55);
        let mut b = SimRng::seed_from(55);
        let _ = a.fork();
        let _ = a.fork();
        // b never forked; parents should still agree because forking only
        // advances the fork counter, not the RNG state.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_bounds() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
        for _ in 0..1000 {
            let v = rng.int_range(3, 5);
            assert!((3..=5).contains(&v));
        }
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(99);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
