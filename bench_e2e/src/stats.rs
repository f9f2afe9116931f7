//! The benchmark's own statistics, kept apart from the program under test so
//! a change to `ci_types::stats` cannot move a reported number.

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `q` in `[0, 1]` of an ascending slice, linearly interpolated.
/// `NaN` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentile of an unsorted sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(xs), q)
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of positive samples (`NaN` when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median of each kind's samples; `ops` are `(kind, value)` with
/// `kind < n_kinds`. Kinds without samples get `NaN`.
pub fn kind_medians(ops: &[(usize, f64)], n_kinds: usize) -> Vec<f64> {
    let mut by_kind = vec![Vec::new(); n_kinds];
    for &(k, v) in ops {
        by_kind[k].push(v);
    }
    by_kind.iter().map(|v| median(v)).collect()
}

/// Each op's value over the median of its kind: 1.0 is a typical op, the
/// upper percentiles are the stalls a median hides.
pub fn slowdowns(ops: &[(usize, f64)], n_kinds: usize) -> Vec<f64> {
    let med = kind_medians(ops, n_kinds);
    ops.iter().map(|&(k, v)| v / med[k]).collect()
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives (the
/// acceptance rule's definition). `None` below four samples.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 4 {
        return None;
    }
    let s = sorted(xs);
    let m = s.len() + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&s).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.25), 2.0);
        assert!((percentile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // A 10% win on a 0.03 ms op counts like 10% on a 350 ms op.
        let base = geomean(&[0.03, 350.0]);
        let a = geomean(&[0.027, 350.0]);
        let b = geomean(&[0.03, 315.0]);
        assert!((a / base - b / base).abs() < 1e-12);
    }

    #[test]
    fn slowdown_is_relative_to_the_kind_median() {
        // kind 0: median 10; kind 1: median 100.
        let ops = [
            (0, 10.0),
            (0, 9.0),
            (0, 30.0),
            (1, 100.0),
            (1, 90.0),
            (1, 110.0),
        ];
        assert_eq!(kind_medians(&ops, 2), vec![10.0, 100.0]);
        let s = slowdowns(&ops, 2);
        assert_eq!(s, vec![1.0, 0.9, 3.0, 1.0, 0.9, 1.1]);
        // The slow small op dominates the tail although it is 70 ms shorter
        // than the fastest large one.
        assert_eq!(percentile(&s, 1.0), 3.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let ys = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert!((quartile_spread(&ys).unwrap() - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }
}
