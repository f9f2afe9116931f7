//! Zone-map pruning predicates.
//!
//! A [`ColumnBound`] is the planner's distilled view of a conjunctive filter
//! on one column: an optional lower and upper bound. Micro-partitions whose
//! zone map ([min, max] per column) cannot intersect the bound are skipped
//! without fetching them from the object store — the standard trick that
//! makes reclustering (§4's example tuning action) valuable: sorting a table
//! by an attribute tightens zone maps and multiplies pruning power.

use crate::value::Value;

/// Inclusive-or-exclusive endpoint of a bound.
#[derive(Debug, Clone, PartialEq)]
pub enum Endpoint {
    /// No bound on this side.
    Unbounded,
    /// Bound including the value (`>=` / `<=`).
    Inclusive(Value),
    /// Bound excluding the value (`>` / `<`).
    Exclusive(Value),
}

/// A per-column range constraint extracted from a predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBound {
    /// Index of the constrained column in the table schema.
    pub column: usize,
    /// Lower endpoint.
    pub lower: Endpoint,
    /// Upper endpoint.
    pub upper: Endpoint,
}

impl ColumnBound {
    /// An equality constraint `col = v`.
    pub fn eq(column: usize, v: Value) -> ColumnBound {
        ColumnBound {
            column,
            lower: Endpoint::Inclusive(v.clone()),
            upper: Endpoint::Inclusive(v),
        }
    }

    /// A range constraint; `None` endpoints are unbounded, the `bool`
    /// flags inclusivity.
    pub fn range(
        column: usize,
        lower: Option<(Value, bool)>,
        upper: Option<(Value, bool)>,
    ) -> ColumnBound {
        let mk = |e: Option<(Value, bool)>| match e {
            None => Endpoint::Unbounded,
            Some((v, true)) => Endpoint::Inclusive(v),
            Some((v, false)) => Endpoint::Exclusive(v),
        };
        ColumnBound {
            column,
            lower: mk(lower),
            upper: mk(upper),
        }
    }

    /// Can a partition with zone map `[zmin, zmax]` on this column contain a
    /// qualifying row? Conservative: returns `true` when values are
    /// incomparable (never prunes what it cannot prove out).
    pub fn may_overlap(&self, zmin: &Value, zmax: &Value) -> bool {
        // Fail the partition only if zmax < lower or zmin > upper.
        let below = match &self.lower {
            Endpoint::Unbounded => false,
            Endpoint::Inclusive(lo) => {
                matches!(zmax.partial_cmp_sql(lo), Some(std::cmp::Ordering::Less))
            }
            Endpoint::Exclusive(lo) => matches!(
                zmax.partial_cmp_sql(lo),
                Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
            ),
        };
        if below {
            return false;
        }
        let above = match &self.upper {
            Endpoint::Unbounded => false,
            Endpoint::Inclusive(hi) => {
                matches!(zmin.partial_cmp_sql(hi), Some(std::cmp::Ordering::Greater))
            }
            Endpoint::Exclusive(hi) => matches!(
                zmin.partial_cmp_sql(hi),
                Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
            ),
        };
        !above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_bound_overlap() {
        let b = ColumnBound::eq(0, Value::Int(50));
        assert!(b.may_overlap(&Value::Int(0), &Value::Int(100)));
        assert!(b.may_overlap(&Value::Int(50), &Value::Int(50)));
        assert!(!b.may_overlap(&Value::Int(51), &Value::Int(90)));
        assert!(!b.may_overlap(&Value::Int(0), &Value::Int(49)));
    }

    #[test]
    fn exclusive_endpoints_prune_boundary() {
        // col > 10: a zone ending exactly at 10 has no qualifying row.
        let b = ColumnBound::range(0, Some((Value::Int(10), false)), None);
        assert!(!b.may_overlap(&Value::Int(0), &Value::Int(10)));
        assert!(b.may_overlap(&Value::Int(0), &Value::Int(11)));
        // col < 10 mirrored.
        let c = ColumnBound::range(0, None, Some((Value::Int(10), false)));
        assert!(!c.may_overlap(&Value::Int(10), &Value::Int(20)));
        assert!(c.may_overlap(&Value::Int(9), &Value::Int(20)));
    }

    #[test]
    fn unbounded_never_prunes() {
        let b = ColumnBound::range(3, None, None);
        assert!(b.may_overlap(&Value::Int(i64::MIN), &Value::Int(i64::MAX)));
    }

    #[test]
    fn incomparable_types_are_conservative() {
        let b = ColumnBound::eq(0, Value::from("abc"));
        // Int zone map vs string bound: cannot prove disjoint, keep it.
        assert!(b.may_overlap(&Value::Int(0), &Value::Int(5)));
    }

    #[test]
    fn contains_matches_overlap_semantics() {
        // A one-value zone overlaps the bound exactly when the bound holds
        // the value.
        let b = ColumnBound::range(0, Some((Value::Int(5), true)), Some((Value::Int(8), false)));
        let contains = |v: i64| b.may_overlap(&Value::Int(v), &Value::Int(v));
        assert!(!contains(4));
        assert!(contains(5));
        assert!(contains(7));
        assert!(!contains(8));
    }

    #[test]
    fn string_ranges() {
        let b = ColumnBound::range(1, Some((Value::from("m"), true)), None);
        assert!(!b.may_overlap(&Value::from("a"), &Value::from("c")));
        assert!(b.may_overlap(&Value::from("a"), &Value::from("z")));
    }
}
