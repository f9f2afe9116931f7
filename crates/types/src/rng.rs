//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the workspace — data generation, workload
//! arrival processes, cardinality-error injection — flows from a [`DetRng`]
//! seeded explicitly by the caller. We implement xoshiro256++ (seeded through
//! SplitMix64) rather than depending on an external crate's stream, so that
//! experiment outputs are stable across dependency upgrades.

/// xoshiro256++ PRNG with SplitMix64 seeding.
///
/// Passes BigCrush; plenty for simulation workloads. Not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        DetRng { s }
    }

    /// Derives an independent child generator; used to give each table /
    /// query / component its own stream so adding a consumer does not perturb
    /// the draws of existing consumers.
    pub fn fork(&mut self, stream: u64) -> DetRng {
        DetRng::seed_from_u64(self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64 random bits.
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

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    /// Uses Lemire's multiply-shift rejection method (unbiased). The
    /// rejection threshold `2^64 mod bound` is below `bound`, so a draw whose
    /// low half is at least `bound` is accepted without computing it: the
    /// 64-bit `%` runs on fewer than `bound / 2^64` of the draws.
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        loop {
            let m = (self.next_u64() as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
            // Rejected (probability < bound / 2^64); resample.
        }
    }

    /// Uniform integer in `[lo, hi)` as i64. Panics if the range is empty.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo.wrapping_add(self.u64_below((hi - lo) as u64) as i64)
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential inter-arrival sample with the given rate (events/sec).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = (1.0 - self.f64()).max(1e-300);
        -u.ln() / rate
    }

    /// Uniformly chooses an element by reference. Panics on empty input.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.usize_below(items.len())]
    }

    /// A multiplicative error factor in `[1/f, f]`, log-uniform, used to
    /// inject cardinality misestimation (§3.3 evaluates monitor recovery
    /// under estimation error).
    pub fn error_factor(&mut self, f: f64) -> f64 {
        assert!(f >= 1.0, "error factor must be >= 1");
        let lo = -(f.ln());
        let hi = f.ln();
        self.range_f64(lo, hi).exp()
    }
}

/// Zipf-distributed ranks in `[0, n)` with skew `theta` (0 = uniform-ish).
///
/// Uses the rejection-free inverse-power approximation adequate for
/// workload skew modelling (hot/cold attribute access in §4). The domain's
/// power is computed once here, so a draw costs one `powf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: usize,
    /// The inverse CDF's constants `(n^(1 - theta) - 1, 1 / (1 - theta))`;
    /// `None` below `theta = 1e-9`, where ranks are drawn uniformly.
    power: Option<(f64, f64)>,
}

impl Zipf {
    /// The sampler over `[0, n)`. Panics if `n == 0`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over empty domain");
        if theta <= 1e-9 {
            return Zipf { n, power: None };
        }
        let one_minus = 1.0 - theta.min(0.999_999);
        let power = Some(((n as f64).powf(one_minus) - 1.0, 1.0 / one_minus));
        Zipf { n, power }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let Some((span, exponent)) = self.power else {
            return rng.usize_below(self.n);
        };
        // Inverse CDF of a continuous power-law, discretized.
        let u = rng.f64().max(1e-12);
        let v = (span * u + 1.0).powf(exponent);
        ((v - 1.0) as usize).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn u64_below_respects_bound_and_is_roughly_uniform() {
        let mut r = DetRng::seed_from_u64(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.u64_below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 each; allow generous 10% slack.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_endpoints() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
            let f = r.range_f64(2.0, 4.0);
            assert!((2.0..4.0).contains(&f));
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = DetRng::seed_from_u64(13);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn zipf_is_skewed() {
        let mut r = DetRng::seed_from_u64(17);
        let mut head = 0usize;
        let n = 20_000;
        let skewed = Zipf::new(100, 0.9);
        for _ in 0..n {
            if skewed.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // With strong skew, the top decile should get well over its uniform 10%.
        assert!(
            head as f64 / n as f64 > 0.3,
            "head share {}",
            head as f64 / n as f64
        );
        // Uniform fallback at theta=0.
        let mut uni = 0usize;
        let uniform = Zipf::new(100, 0.0);
        for _ in 0..n {
            if uniform.sample(&mut r) < 10 {
                uni += 1;
            }
        }
        let share = uni as f64 / n as f64;
        assert!((share - 0.1).abs() < 0.02, "uniform share {share}");
    }

    /// Lemire's method with the threshold computed on every draw.
    fn u64_below_reference(r: &mut DetRng, bound: u64) -> u64 {
        loop {
            let m = (r.next_u64() as u128).wrapping_mul(bound as u128);
            if m as u64 >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// The inverse-power formula with both powers taken on every draw.
    fn zipf_reference(r: &mut DetRng, n: usize, theta: f64) -> usize {
        if theta <= 1e-9 {
            return u64_below_reference(r, n as u64) as usize;
        }
        let u = r.f64().max(1e-12);
        let x = (n as f64).powf(1.0 - theta.min(0.999_999));
        let v = ((x - 1.0) * u + 1.0).powf(1.0 / (1.0 - theta.min(0.999_999)));
        ((v - 1.0) as usize).min(n - 1)
    }

    #[test]
    fn u64_below_matches_the_reference_draw_for_draw() {
        let mut bounds = vec![1, 2, 3, 10, 1_000_003, u64::MAX, u64::MAX - 1];
        for k in 1..64 {
            bounds.extend([(1u64 << k) - 1, 1u64 << k, (1u64 << k) + 1]);
        }
        // Bounds just above 2^63 reject almost half the draws, so both
        // branches of the acceptance test run.
        bounds.extend([(1u64 << 63) + 12_345, u64::MAX / 3 * 2]);
        for (i, &bound) in bounds.iter().enumerate() {
            let mut fast = DetRng::seed_from_u64(i as u64);
            let mut reference = fast.clone();
            for _ in 0..2_000 {
                assert_eq!(
                    fast.u64_below(bound),
                    u64_below_reference(&mut reference, bound),
                    "bound {bound}"
                );
            }
            assert_eq!(fast, reference, "bound {bound} consumed a different stream");
        }
    }

    #[test]
    fn zipf_sampler_matches_the_reference_draw_for_draw() {
        for (i, &(n, theta)) in [
            (1, 0.6),
            (2, 0.6),
            (100, 0.9),
            (10_000, 0.6),
            (10_000, 0.0),
            (10_000, 1e-9),
            (10_000, 2e-9),
            (7, 1.0),
            (1 << 20, 5.0),
            (33, f64::NAN),
        ]
        .iter()
        .enumerate()
        {
            let sampler = Zipf::new(n, theta);
            let mut fast = DetRng::seed_from_u64(100 + i as u64);
            let mut reference = fast.clone();
            for _ in 0..2_000 {
                assert_eq!(
                    sampler.sample(&mut fast),
                    zipf_reference(&mut reference, n, theta),
                    "n {n} theta {theta}"
                );
            }
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed_from_u64(23);
        let mut v: Vec<u32> = (0..50).collect();
        // Fisher–Yates: `usize_below(i + 1)` must stay within `0..=i`.
        for i in (1..v.len()).rev() {
            v.swap(i, r.usize_below(i + 1));
        }
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn error_factor_bounds() {
        let mut r = DetRng::seed_from_u64(29);
        for _ in 0..1000 {
            let f = r.error_factor(4.0);
            assert!((0.25..=4.0).contains(&f), "factor {f}");
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = DetRng::seed_from_u64(5);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }
}
