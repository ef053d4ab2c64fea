//! Deterministic random-number generation for the simulator.
//!
//! [`SimRng`] is a self-contained xoshiro256++ generator seeded through a
//! SplitMix64 expansion, with the distribution samplers the workspace needs
//! (normal, lognormal, exponential, Pareto, jittered values) implemented
//! in-tree. Keeping the whole generator in-tree makes the sampling
//! algorithms part of the reviewed reproduction code and leaves the
//! workspace with zero external dependencies.
//!
//! Every stochastic component takes a `&mut SimRng` explicitly; nothing in
//! the workspace reads ambient entropy, so a run is a pure function of its
//! seeds.

/// One step of the SplitMix64 sequence (Steele, Lea & Flood 2014). Used to
/// expand 64-bit seeds into full generator state and to derive
/// collision-free child seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable random source (xoshiro256++).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed. The seed is expanded through
    /// SplitMix64 so that similar seeds (0, 1, 2, ...) still yield
    /// decorrelated state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        let s = [
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator. Useful for giving each
    /// subsystem its own stream so that adding draws in one subsystem does
    /// not perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Next raw 64-bit output (xoshiro256++ core step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of the 64-bit step).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A fingerprint of the generator state: equal iff the two generators
    /// will produce identical future streams. Used by the datapath
    /// equivalence suite to pin exact RNG stream position.
    pub fn state_fingerprint(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for &w in &self.s {
            acc = (acc ^ w).wrapping_mul(0x100_0000_01b3);
        }
        acc
    }

    /// Fill a byte slice with generator output.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform in `[0, 1)` with full 53-bit mantissa resolution.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Panics if `lo > hi`; returns `lo` when equal.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range: lo {lo} > hi {hi}");
        if lo == hi {
            return lo;
        }
        loop {
            // Rounding can land exactly on `hi` for extreme spans; resample
            // to honour the half-open contract.
            let v = lo + self.uniform() * (hi - lo);
            if v < hi {
                return v;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive, unbiased (Lemire's
    /// multiply-shift rejection).
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: lo {lo} > hi {hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let range = span + 1;
        let threshold = range.wrapping_neg() % range;
        loop {
            let m = (self.next_u64() as u128) * (range as u128);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.uniform_u64(0, n as u64 - 1) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal via the Marsaglia polar method.
    pub fn std_normal(&mut self) -> f64 {
        loop {
            let u = self.uniform_range(-1.0, 1.0);
            let v = self.uniform_range(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal with the given mean and (non-negative) standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "normal: negative std_dev {std_dev}");
        mean + std_dev * self.std_normal()
    }

    /// Normal truncated below at `floor` (resampled via clamping — adequate
    /// for the mild truncations used by the cost models).
    pub fn normal_clamped_min(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        self.normal(mean, std_dev).max(floor)
    }

    /// Lognormal parameterized by the *underlying* normal's mu/sigma.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential with the given mean (> 0).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential: non-positive mean {mean}");
        let u: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Pareto with scale `x_min` (> 0) and shape `alpha` (> 0); heavy-tailed
    /// samples used for burst modelling.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0, "pareto: bad params");
        let u: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        x_min / u.powf(1.0 / alpha)
    }

    /// A value multiplicatively jittered by ±`frac` (uniform). `frac` of
    /// 0.1 yields a value in `[0.9v, 1.1v)`.
    pub fn jitter(&mut self, value: f64, frac: f64) -> f64 {
        value * (1.0 + self.uniform_range(-frac, frac))
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_streams_are_independent_of_parent_draw_count() {
        let mut a = SimRng::seed_from_u64(9);
        let child_seed_stream: Vec<u64> = {
            let mut c = a.fork();
            (0..5).map(|_| c.next_u64()).collect()
        };
        // Forking again gives a *different* child.
        let mut c2 = a.fork();
        let other: Vec<u64> = (0..5).map(|_| c2.next_u64()).collect();
        assert_ne!(child_seed_stream, other);
    }

    #[test]
    fn state_fingerprint_distinguishes_positions() {
        let mut a = SimRng::seed_from_u64(5);
        let b = a.clone();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        a.next_u64();
        assert_ne!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(50);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn uniform_u64_is_unbiased_over_small_range() {
        let mut r = SimRng::seed_from_u64(51);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.uniform_u64(0, 6) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "count {c}");
        }
    }

    #[test]
    fn uniform_u64_full_range_does_not_hang() {
        let mut r = SimRng::seed_from_u64(52);
        let _ = r.uniform_u64(0, u64::MAX);
        let _ = r.uniform_u64(5, 5);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::seed_from_u64(53);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = SimRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut r = SimRng::seed_from_u64(43);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = SimRng::seed_from_u64(44);
        for _ in 0..1_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(45);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SimRng::seed_from_u64(46);
        for _ in 0..1_000 {
            let v = r.jitter(10.0, 0.2);
            assert!((8.0..12.0).contains(&v), "v = {v}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(47);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_range_degenerate() {
        let mut r = SimRng::seed_from_u64(48);
        assert_eq!(r.uniform_range(3.0, 3.0), 3.0);
    }

    #[test]
    fn normal_clamped_min_floors() {
        let mut r = SimRng::seed_from_u64(49);
        for _ in 0..1_000 {
            assert!(r.normal_clamped_min(0.0, 5.0, 0.0) >= 0.0);
        }
    }
}
