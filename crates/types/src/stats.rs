//! Relative error, the metric the estimator is validated with (§3.1,
//! experiment E2) and `bench_e2e` reports as `est_*_relerr_p90`.

/// Relative error `|predicted - actual| / actual`. Returns absolute error
/// when `actual` is ~0 to avoid division blow-ups on tiny baselines.
pub fn relative_error(predicted: f64, actual: f64) -> f64 {
    if actual.abs() < 1e-12 {
        (predicted - actual).abs()
    } else {
        (predicted - actual).abs() / actual.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_metrics() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(0.5, 0.0) - 0.5).abs() < 1e-12);
    }
}
