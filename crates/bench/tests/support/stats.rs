//! Sample summaries for the claim tests: E2 summarizes estimator error
//! with [`Summary::of`].

/// A one-pass (Welford) accumulator for mean and standard deviation.
#[derive(Debug, Clone, Default)]
pub struct Online {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Online {
    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (0 if fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }
}

/// A full-sample summary with exact percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample set. Returns an all-zero summary for empty input.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut acc = Online::default();
        for &x in samples {
            acc.push(x);
        }
        Summary {
            count: samples.len(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Percentile by linear interpolation over a pre-sorted slice.
/// `q` is in `[0, 1]`. Panics (debug) on empty input.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = Online::default();
        for &x in &xs {
            acc.push(x);
        }
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.std_dev() - 2.0).abs() < 1e-12);
        let mut one = Online::default();
        one.push(3.0);
        assert_eq!((one.mean(), one.std_dev()), (3.0, 0.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 3.0);
        assert_eq!(percentile_sorted(&sorted, 0.25), 2.0);
        assert!((percentile_sorted(&sorted, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_and_singleton() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, 0.0);
        let one = Summary::of(&[7.5]);
        assert_eq!(one.count, 1);
        assert_eq!(one.p50, 7.5);
        assert_eq!(one.min, 7.5);
        assert_eq!(one.max, 7.5);
    }

    #[test]
    fn summary_of_nan_sample_does_not_panic() {
        let s = Summary::of(&[1.0, f64::NAN, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
    }
}
