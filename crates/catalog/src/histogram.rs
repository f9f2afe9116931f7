//! Equi-width histograms for numeric columns.

use ci_storage::pruning::{ColumnBound, Endpoint};
use ci_storage::value::Value;

/// An equi-width histogram over a numeric domain.
///
/// Buckets span `[lo, hi]` uniformly; counts are exact at build time.
/// Selectivity of a range bound is estimated with the uniform-within-bucket
/// assumption — the textbook estimator, intentionally fallible so the DOP
/// monitor has realistic errors to correct.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `buckets` buckets from numeric samples,
    /// skipping non-finite ones. Walks `values` twice (domain, then counts)
    /// and copies none of them.
    /// Returns `None` for empty input or a degenerate (single-point) domain
    /// handled as a one-bucket histogram.
    pub fn build(values: impl Iterator<Item = f64> + Clone, buckets: usize) -> Option<Histogram> {
        let finite = values.filter(|v| v.is_finite());
        let (mut lo, mut hi, mut total) = (f64::INFINITY, f64::NEG_INFINITY, 0u64);
        for v in finite.clone() {
            lo = lo.min(v);
            hi = hi.max(v);
            total += 1;
        }
        if total == 0 || buckets == 0 {
            return None;
        }
        if lo == hi {
            return Some(Histogram {
                lo,
                hi,
                counts: vec![total],
                total,
            });
        }
        let mut counts = vec![0u64; buckets];
        let k = domain_scale(lo, hi);
        let width = (hi * k - lo * k) / buckets as f64;
        for v in finite {
            let mut b = ((v * k - lo * k) / width) as usize;
            if b >= buckets {
                b = buckets - 1; // v == hi lands in the last bucket
            }
            counts[b] += 1;
        }
        Some(Histogram {
            lo,
            hi,
            counts,
            total,
        })
    }

    /// Total row count the histogram covers.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated fraction of rows with value in `[a, b]` (clamped to the
    /// domain), using uniform interpolation inside buckets.
    pub fn range_selectivity(&self, a: f64, b: f64) -> f64 {
        if self.total == 0 || b < a {
            return 0.0;
        }
        let k = domain_scale(self.lo, self.hi);
        let (lo, hi) = (self.lo * k, self.hi * k);
        let a = (a * k).max(lo);
        let b = (b * k).min(hi);
        if b < a {
            return 0.0;
        }
        if lo == hi {
            // Single-point domain: all rows match iff the point is inside.
            return if a <= lo && lo <= b { 1.0 } else { 0.0 };
        }
        let width = (hi - lo) / self.counts.len() as f64;
        let mut matched = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let b_lo = lo + i as f64 * width;
            let b_hi = b_lo + width;
            let ov_lo = a.max(b_lo);
            let ov_hi = b.min(b_hi);
            if ov_hi > ov_lo {
                matched += c as f64 * (ov_hi - ov_lo) / width;
            } else if ov_hi == ov_lo && (ov_lo == b_lo || ov_hi == b_hi) && a == b {
                // Point query on a bucket boundary: attribute to this bucket once.
                matched += c as f64 * 0.0;
            }
        }
        // Point queries (a == b) match zero measure under the continuous
        // model; fall back to 1/total-scaled bucket density.
        if a == b {
            let mut bkt = ((a - lo) / width) as usize;
            if bkt >= self.counts.len() {
                bkt = self.counts.len() - 1;
            }
            return (self.counts[bkt] as f64 / width.max(1e-12)).min(self.total as f64)
                / self.total as f64
                * 1.0_f64.min(width);
        }
        (matched / self.total as f64).clamp(0.0, 1.0)
    }

    /// Selectivity of a [`ColumnBound`] against this histogram. Non-numeric
    /// bound values fall back to a default selectivity of `0.1`.
    pub fn bound_selectivity(&self, bound: &ColumnBound) -> f64 {
        let num = |v: &Value| v.as_f64();
        let lo = match &bound.lower {
            Endpoint::Unbounded => Some(f64::NEG_INFINITY),
            Endpoint::Inclusive(v) | Endpoint::Exclusive(v) => num(v),
        };
        let hi = match &bound.upper {
            Endpoint::Unbounded => Some(f64::INFINITY),
            Endpoint::Inclusive(v) | Endpoint::Exclusive(v) => num(v),
        };
        match (lo, hi) {
            (Some(a), Some(b)) => self.range_selectivity(a, b),
            _ => 0.1,
        }
    }
}

/// The factor bucket arithmetic scales the domain by: `1` (exact, so every
/// histogram over a representable span is unchanged), or `1/2` when
/// `hi - lo` overflows `f64`, which halves the span back into range.
fn domain_scale(lo: f64, hi: f64) -> f64 {
    if (hi - lo).is_finite() {
        1.0
    } else {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use ci_types::DetRng;

    use super::*;

    /// The build as it was before it walked its input twice: collect the
    /// finite values, fold the domain, bucket.
    fn collected_build(values: &[f64], buckets: usize) -> Option<Histogram> {
        let vals: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if vals.is_empty() || buckets == 0 {
            return None;
        }
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let total = vals.len() as u64;
        if lo == hi {
            let counts = vec![total];
            return Some(Histogram {
                lo,
                hi,
                counts,
                total,
            });
        }
        let mut counts = vec![0u64; buckets];
        let width = (hi - lo) / buckets as f64;
        for v in &vals {
            counts[(((v - lo) / width) as usize).min(buckets - 1)] += 1;
        }
        Some(Histogram {
            lo,
            hi,
            counts,
            total,
        })
    }

    #[test]
    fn build_matches_the_collecting_reference_when_the_span_is_finite() {
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            5e-324,
        ];
        for seed in 0..300 {
            let mut r = DetRng::seed_from_u64(seed);
            let n = r.usize_below(200);
            // Subnormal spans too, where halving the domain would round.
            let scale = *r.choose(&[1.0, 1e-300, 1e-322, 1e6, 1e300]);
            let p_special = *r.choose(&[0.0, 0.2]);
            let vals: Vec<f64> = (0..n)
                .map(|_| {
                    if r.bool_with(p_special) {
                        *r.choose(&specials)
                    } else {
                        r.range_f64(-1.0, 1.0) * scale
                    }
                })
                .collect();
            let buckets = r.usize_below(70);
            let got = Histogram::build(vals.iter().copied(), buckets);
            let want = collected_build(&vals, buckets);
            assert_eq!(got, want, "seed {seed}");
            if let (Some(g), Some(w)) = (got, want) {
                assert_eq!(g.lo.to_bits(), w.lo.to_bits(), "seed {seed}");
                assert_eq!(g.hi.to_bits(), w.hi.to_bits(), "seed {seed}");
            }
        }
    }

    fn uniform() -> Histogram {
        Histogram::build((0..1000).map(|i| i as f64), 10).unwrap()
    }

    #[test]
    fn uniform_range_selectivity() {
        let h = uniform();
        assert!((h.range_selectivity(0.0, 999.0) - 1.0).abs() < 0.01);
        let half = h.range_selectivity(0.0, 499.5);
        assert!((half - 0.5).abs() < 0.01, "half = {half}");
        let tenth = h.range_selectivity(100.0, 199.9);
        assert!((tenth - 0.1).abs() < 0.01, "tenth = {tenth}");
    }

    #[test]
    fn out_of_domain_ranges() {
        let h = uniform();
        assert_eq!(h.range_selectivity(2000.0, 3000.0), 0.0);
        assert_eq!(h.range_selectivity(-10.0, -1.0), 0.0);
        assert_eq!(h.range_selectivity(500.0, 100.0), 0.0);
    }

    #[test]
    fn skewed_data_buckets() {
        // 90% of mass in [0, 10), 10% in [90, 100).
        let vals = (0..900)
            .map(|i| (i % 10) as f64)
            .chain((0..100).map(|i| 90.0 + (i % 10) as f64));
        let h = Histogram::build(vals, 10).unwrap();
        let head = h.range_selectivity(0.0, 9.99);
        assert!(head > 0.8, "head {head}");
        let tail = h.range_selectivity(90.0, 99.99);
        assert!(tail < 0.2, "tail {tail}");
    }

    #[test]
    fn single_point_domain() {
        let h = Histogram::build(std::iter::repeat_n(5.0, 10), 4).unwrap();
        assert_eq!(h.range_selectivity(0.0, 10.0), 1.0);
        assert_eq!(h.range_selectivity(6.0, 10.0), 0.0);
    }

    #[test]
    fn overflowing_domain_spreads_rows_and_keeps_selectivity_finite() {
        // Before the fix every row fell in bucket 0 and the full-range
        // selectivity was NaN.
        let vals = [f64::MIN, f64::MIN / 2.0, 0.0, f64::MAX / 2.0, f64::MAX];
        let h = Histogram::build(vals.into_iter(), 64).unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!((h.lo, h.hi), (f64::MIN, f64::MAX));
        assert_eq!(h.counts[0], 1, "only MIN in the first bucket");
        assert_eq!(h.counts[63], 1, "MAX lands in the last bucket");
        assert_eq!(h.counts.iter().filter(|&&c| c > 0).count(), 5);
        assert_eq!(h.range_selectivity(f64::MIN, f64::MAX), 1.0);
        assert_eq!(h.range_selectivity(f64::NEG_INFINITY, f64::INFINITY), 1.0);
        // 0, MAX/2 and MAX: three rows of five.
        let upper = h.range_selectivity(0.0, f64::MAX);
        assert!((upper - 0.6).abs() < 0.05, "upper half {upper}");
        for (a, b) in [
            (0.0, 0.0),
            (f64::MAX, f64::MAX),
            (f64::MIN, f64::MIN),
            (-1.0, 1.0),
            (1e300, f64::INFINITY),
            (f64::MIN, -1e308),
        ] {
            let s = h.range_selectivity(a, b);
            assert!((0.0..=1.0).contains(&s), "[{a}, {b}] -> {s}");
        }
    }

    #[test]
    fn empty_input_is_none() {
        assert!(Histogram::build(std::iter::empty(), 8).is_none());
        assert!(Histogram::build([1.0].into_iter(), 0).is_none());
    }

    #[test]
    fn bound_selectivity_uses_endpoints() {
        let h = uniform();
        let b = ColumnBound::range(0, Some((Value::Int(0), true)), Some((Value::Int(99), true)));
        let s = h.bound_selectivity(&b);
        assert!((s - 0.1).abs() < 0.02, "s = {s}");
        // String bound on numeric histogram: default fallback.
        let sb = ColumnBound::eq(0, Value::from("x"));
        assert_eq!(h.bound_selectivity(&sb), 0.1);
    }
}
