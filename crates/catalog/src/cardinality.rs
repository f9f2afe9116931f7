//! Cardinality estimation with controllable error injection.
//!
//! Estimates follow the classic System-R playbook (histogram selectivities,
//! NDV-based join estimates, independence across conjuncts) — good enough to
//! plan with, wrong enough to matter. The [`ErrorInjector`] deterministically
//! perturbs estimates to emulate the misestimation regimes of §3.3, letting
//! experiments dial q-error from 1 (oracle) upward and measure how each
//! auto-scaling policy copes.

use ci_storage::pruning::ColumnBound;
use ci_types::DetRng;

use crate::tstats::TableStats;

/// Selectivity assumed for predicates we cannot model (e.g. string ranges
/// without histograms).
pub const DEFAULT_SELECTIVITY: f64 = 0.1;

/// Pure estimation routines over table statistics.
#[derive(Debug, Clone, Default)]
pub struct CardinalityEstimator;

impl CardinalityEstimator {
    /// New estimator.
    pub fn new() -> Self {
        CardinalityEstimator
    }

    /// Estimated selectivity of one bound on one column.
    pub fn bound_selectivity(&self, stats: &TableStats, bound: &ColumnBound) -> f64 {
        match stats.columns.get(bound.column) {
            None => DEFAULT_SELECTIVITY,
            Some(col) => {
                // Equality on a column with known NDV: 1/ndv beats the
                // histogram point estimate.
                if let (
                    ci_storage::pruning::Endpoint::Inclusive(lo),
                    ci_storage::pruning::Endpoint::Inclusive(hi),
                ) = (&bound.lower, &bound.upper)
                {
                    if lo == hi {
                        // Dict-encoded string column: the dictionary is the
                        // exact value domain. A literal absent from it
                        // matches nothing; estimate one row (conservative
                        // floor, never zero) instead of rows/ndv.
                        if let (Some(dict), ci_storage::value::Value::Str(s)) =
                            (&col.dictionary, lo)
                        {
                            return if dict.id_of(s).is_some() {
                                1.0 / col.ndv.max(1) as f64
                            } else {
                                1.0 / stats.row_count.max(1) as f64
                            };
                        }
                        if col.ndv > 0 {
                            return 1.0 / col.ndv as f64;
                        }
                    }
                }
                match &col.histogram {
                    Some(h) => h.bound_selectivity(bound),
                    None => DEFAULT_SELECTIVITY,
                }
            }
        }
    }

    /// Estimated output rows of a conjunctive filter (independence assumed).
    pub fn filter_rows(&self, stats: &TableStats, bounds: &[ColumnBound]) -> f64 {
        let sel: f64 = bounds
            .iter()
            .map(|b| self.bound_selectivity(stats, b))
            .product();
        (stats.row_count as f64 * sel).max(0.0)
    }

    /// Estimated equi-join output: `|L|·|R| / max(ndv_L, ndv_R)`.
    pub fn join_rows(&self, left_rows: f64, left_ndv: u64, right_rows: f64, right_ndv: u64) -> f64 {
        let denom = left_ndv.max(right_ndv).max(1) as f64;
        (left_rows * right_rows / denom).max(0.0)
    }

    /// Estimated group count of an aggregation over columns with the given
    /// NDVs, capped by input rows (and damped for multi-column keys, since
    /// the full cross product never materializes).
    pub fn group_rows(&self, input_rows: f64, ndvs: &[u64]) -> f64 {
        if ndvs.is_empty() {
            return 1.0; // global aggregate
        }
        let mut product = 1.0f64;
        for &n in ndvs {
            product *= n.max(1) as f64;
        }
        // Classic attenuation: cap by input size.
        product.min(input_rows).max(1.0)
    }
}

/// Deterministically injects multiplicative error into cardinality
/// estimates. `factor_bound = 1.0` is the oracle; `4.0` draws a log-uniform
/// factor in `[1/4, 4]` per estimation site. A bound that is not a finite
/// number above 1 perturbs nothing.
#[derive(Debug, Clone)]
pub struct ErrorInjector {
    rng: DetRng,
    factor_bound: f64,
}

impl ErrorInjector {
    /// Oracle injector: no error.
    pub fn oracle() -> ErrorInjector {
        ErrorInjector {
            rng: DetRng::seed_from_u64(0),
            factor_bound: 1.0,
        }
    }

    /// Injector drawing factors in `[1/bound, bound]` from `seed`; the
    /// oracle when `factor_bound` is not a finite number above 1.
    pub fn with_bound(seed: u64, factor_bound: f64) -> ErrorInjector {
        if !(factor_bound.is_finite() && factor_bound > 1.0) {
            return ErrorInjector::oracle();
        }
        ErrorInjector {
            rng: DetRng::seed_from_u64(seed),
            factor_bound,
        }
    }

    /// Perturbs one estimate. Consecutive calls advance the stream, so each
    /// estimation site in a plan gets its own factor, deterministically.
    pub fn perturb(&mut self, estimate: f64) -> f64 {
        if self.factor_bound <= 1.0 {
            return estimate;
        }
        estimate * self.rng.error_factor(self.factor_bound)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_storage::batch::RecordBatch;
    use ci_storage::column::ColumnData;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::table_from_batch;
    use ci_storage::value::{DataType, Value};
    use ci_types::TableId;

    use super::*;

    fn stats() -> TableStats {
        let schema = Arc::new(Schema::of(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let ks: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let vs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let t = table_from_batch(
            TableId::new(0),
            "t",
            RecordBatch::new(schema, vec![ColumnData::Int64(ks), ColumnData::Float64(vs)]).unwrap(),
        );
        TableStats::compute(&t)
    }

    #[test]
    fn equality_uses_ndv() {
        let s = stats();
        let est = CardinalityEstimator::new();
        let sel = est.bound_selectivity(&s, &ColumnBound::eq(0, Value::Int(5)));
        assert!((sel - 0.01).abs() < 1e-9, "1/ndv = 1/100, got {sel}");
        let rows = est.filter_rows(&s, &[ColumnBound::eq(0, Value::Int(5))]);
        assert!((rows - 10.0).abs() < 1e-6);
    }

    #[test]
    fn string_equality_probes_dictionary_domain() {
        let schema = Arc::new(Schema::of(vec![Field::new("g", DataType::Utf8)]));
        let gs: Vec<String> = (0..1000).map(|i| format!("g{}", i % 25)).collect();
        let t = table_from_batch(
            TableId::new(0),
            "t",
            RecordBatch::new(schema, vec![ColumnData::Utf8(gs)]).unwrap(),
        )
        .dict_encoded();
        let s = TableStats::compute(&t);
        let est = CardinalityEstimator::new();
        // Present literal: exact 1/ndv.
        let hit = est.bound_selectivity(&s, &ColumnBound::eq(0, Value::from("g7")));
        assert!((hit - 1.0 / 25.0).abs() < 1e-12, "hit {hit}");
        // Absent literal: the dictionary proves zero matches; estimate a
        // one-row floor instead of rows/ndv.
        let miss = est.bound_selectivity(&s, &ColumnBound::eq(0, Value::from("nope")));
        assert!((miss - 1.0 / 1000.0).abs() < 1e-12, "miss {miss}");
        assert!(
            (est.filter_rows(&s, &[ColumnBound::eq(0, Value::from("nope"))]) - 1.0).abs() < 1e-9
        );
    }

    #[test]
    fn range_uses_histogram() {
        let s = stats();
        let est = CardinalityEstimator::new();
        let b = ColumnBound::range(
            1,
            Some((Value::Float(0.0), true)),
            Some((Value::Float(249.0), true)),
        );
        let rows = est.filter_rows(&s, &[b]);
        assert!((rows - 250.0).abs() < 30.0, "rows {rows}");
    }

    #[test]
    fn conjunction_multiplies() {
        let s = stats();
        let est = CardinalityEstimator::new();
        let rows = est.filter_rows(
            &s,
            &[
                ColumnBound::eq(0, Value::Int(5)),
                ColumnBound::range(
                    1,
                    Some((Value::Float(0.0), true)),
                    Some((Value::Float(499.0), true)),
                ),
            ],
        );
        // 0.01 * ~0.5 * 1000 = ~5.
        assert!((rows - 5.0).abs() < 1.5, "rows {rows}");
    }

    #[test]
    fn join_estimate_formula() {
        let est = CardinalityEstimator::new();
        let j = est.join_rows(1000.0, 100, 500.0, 50);
        assert!((j - 5000.0).abs() < 1e-9);
        // Degenerate NDVs don't divide by zero.
        assert!(est.join_rows(10.0, 0, 10.0, 0).is_finite());
    }

    #[test]
    fn group_estimates() {
        let est = CardinalityEstimator::new();
        assert_eq!(est.group_rows(1000.0, &[]), 1.0);
        assert_eq!(est.group_rows(1000.0, &[10]), 10.0);
        assert_eq!(est.group_rows(1000.0, &[100, 100]), 1000.0); // capped
        assert_eq!(est.group_rows(0.0, &[10]), 1.0);
    }

    #[test]
    fn oracle_injector_is_identity() {
        let mut inj = ErrorInjector::oracle();
        assert_eq!(inj.perturb(123.0), 123.0);
        assert_eq!(inj.perturb(123.0), 123.0);
        // So is every bound that is not a finite number above 1.
        for bound in [f64::NAN, 0.5, 1.0, f64::INFINITY] {
            assert_eq!(ErrorInjector::with_bound(7, bound).perturb(123.0), 123.0);
        }
    }

    #[test]
    fn injector_is_deterministic_and_bounded() {
        let mut a = ErrorInjector::with_bound(7, 4.0);
        let mut b = ErrorInjector::with_bound(7, 4.0);
        for _ in 0..100 {
            let x = a.perturb(100.0);
            assert_eq!(x, b.perturb(100.0));
            assert!((25.0..=400.0).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn injector_actually_errs() {
        let mut inj = ErrorInjector::with_bound(3, 4.0);
        let vals: Vec<u64> = (0..10).map(|_| inj.perturb(100.0).to_bits()).collect();
        let uniq: std::collections::BTreeSet<_> = vals.into_iter().collect();
        assert!(uniq.len() > 5, "expected diverse factors");
    }
}
