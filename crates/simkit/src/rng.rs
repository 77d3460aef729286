//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the reproduction (Poisson arrivals, simulated
//! annealing acceptance, Blover's random search, trace noise) draws from a
//! [`SimRng`], a xoshiro256++ generator seeded through SplitMix64. A fixed
//! seed therefore reproduces an experiment bit-for-bit, which is what lets
//! the benchmark harness compare schemes on identical request streams.
//!
//! The generator also implements [`rand::RngCore`] so it composes with the
//! wider `rand` ecosystem where convenient.

use rand::RngCore;

/// xoshiro256++ PRNG with convenience samplers for the distributions the
/// simulator needs (uniform, exponential, normal, Poisson counts).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Distinct seeds give
    /// statistically independent streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            state,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator; used to give each simulation
    /// component (arrivals, optimizer, traces) its own stream.
    ///
    /// Forking **advances** this generator, so the *order* of forks matters.
    /// For a set of named sibling streams where adding a new member must not
    /// perturb the existing ones, use [`SimRng::substream`] instead.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Derives an independent child generator identified by `label`
    /// **without advancing this generator**: the child depends only on the
    /// current state and the label. Deriving further sub-streams (in any
    /// order, at any later point) therefore cannot perturb the draws of
    /// streams derived earlier — the property that lets new randomness
    /// consumers (e.g. additional workload streams) be added without
    /// changing existing seeded results.
    pub fn substream(&self, label: u64) -> SimRng {
        let mut acc = 0x243F_6A88_85A3_08D3u64 ^ label.wrapping_mul(0xA076_1D64_78BD_642F);
        for &word in &self.state {
            acc = splitmix64(&mut acc).wrapping_add(word);
        }
        SimRng::new(splitmix64(&mut acc))
    }

    /// Next raw 64-bit output.
    #[inline]
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

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + self.f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "SimRng::below(0)");
        let n = n as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed sample with the given rate (events per
    /// second); this is the inter-arrival time of a Poisson process.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // 1 - f64() is in (0, 1], so ln() is finite.
        -(1.0 - self.f64()).ln() / rate
    }

    /// Standard normal sample (Box-Muller with caching).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let (u1, u2) = (1.0 - self.f64(), self.f64());
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Poisson-distributed count with the given mean (Knuth for small means,
    /// normal approximation above 64 where the error is negligible for our
    /// workload-generation use).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0);
        if mean == 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let s = self.normal_with(mean, mean.sqrt()).round();
            return s.max(0.0) as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Picks a uniformly random element of the slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        SimRng::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::new(9);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::new(11);
        let rate = 4.0;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn poisson_small_and_large_mean() {
        let mut rng = SimRng::new(17);
        let n = 50_000;
        for &mean in &[0.5, 3.0, 200.0] {
            let total: u64 = (0..n).map(|_| rng.poisson(mean)).sum();
            let sample_mean = total as f64 / n as f64;
            assert!(
                (sample_mean - mean).abs() / mean < 0.05,
                "mean {mean} got {sample_mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn substream_does_not_advance_parent() {
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        let _ = a.substream(1);
        let _ = a.substream(2);
        // Parent sequence is untouched by substream derivation.
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn substreams_are_label_stable_and_independent() {
        let root = SimRng::new(7);
        // Same label, derived at different times → identical stream.
        let mut x = root.substream(5);
        let mut y = root.substream(5);
        for _ in 0..32 {
            assert_eq!(x.next_u64(), y.next_u64());
        }
        // Different labels → statistically independent streams.
        let mut p = root.substream(1);
        let mut q = root.substream(2);
        let same = (0..64).filter(|_| p.next_u64() == q.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::new(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(21);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
