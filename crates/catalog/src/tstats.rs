//! Table and column statistics.
//!
//! The metadata service keeps "low-latency access to ... table statistics
//! necessary for query planning" (§3). Statistics are computed once at load
//! (or refreshed by background compute) and read by the cardinality
//! estimator and cost models. A column's exact NDV comes from
//! [`ci_storage::pages::count_distinct`], the distinct counter the page
//! codec race uses, or, for an `Int64` column over a dense range, from the
//! occurrence counts its histogram is built from: this crate keeps no
//! bitmap or hash set of its own.

use std::sync::Arc;

use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::pages::count_distinct;
use ci_storage::table::Table;
use ci_storage::value::{DataType, Value};

use crate::histogram::Histogram;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct values (exact at build time; for dict-encoded
    /// string columns this is counted directly from the dictionary ids, no
    /// hashing involved).
    pub ndv: u64,
    /// Minimum value, if the column is non-empty.
    pub min: Option<Value>,
    /// Maximum value, if the column is non-empty.
    pub max: Option<Value>,
    /// Equi-width histogram for numeric columns.
    pub histogram: Option<Histogram>,
    /// Average decoded (logical) width in bytes — what a row of this column
    /// occupies once decoded into operators.
    pub avg_width: f64,
    /// Average *encoded* width in bytes per row under the size-picked page
    /// codec, excluding dictionary sections (those ship once, not per row).
    /// The wire width exchange and gather cost terms charge.
    pub avg_encoded_width: f64,
    /// The table-wide dictionary, when the column is dict-encoded. The
    /// exact value domain: [`crate::CardinalityEstimator`] probes it to give
    /// string-equality predicates `1/ndv` selectivity on hits and a one-row
    /// floor on literals provably absent from the column.
    pub dictionary: Option<Arc<Dictionary>>,
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total rows.
    pub row_count: u64,
    /// Total logical (decoded) bytes.
    pub total_bytes: u64,
    /// Total encoded bytes — the billed object-store footprint.
    pub total_encoded_bytes: u64,
    /// Number of micro-partitions.
    pub partition_count: usize,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// Number of histogram buckets used at stats-build time.
const HISTOGRAM_BUCKETS: usize = 64;

/// An `Int64` column counts each value's occurrences in an array over its
/// zone-map range when that array has fewer than `max(2 · rows, this)`
/// `u32` slots: no larger than the column's own `i64`s, or 128 KiB on a
/// short column.
const DENSE_MIN_SLOTS: u64 = 1 << 15;

/// An `Int64` column's NDV and histogram, its values in `[min, max]`. A
/// dense range fills one occurrence array in one pass: the NDV is its
/// non-zero slots, and the histogram buckets each distinct value once with
/// its count. A sparse one counts through [`count_distinct`], then buckets
/// every row in a second pass over the domain `[min, max]` (`i64 → f64`
/// is monotone, so that is the rows' `f64` domain too).
fn int_stats<'a>(
    cols: impl Iterator<Item = &'a [i64]> + Clone,
    rows: usize,
    (min, max): (i64, i64),
) -> (u64, Option<Histogram>) {
    let (lo, hi) = (min as f64, max as f64);
    let span = (max as u64).wrapping_sub(min as u64);
    if span >= (2 * rows as u64).max(DENSE_MIN_SLOTS) || u32::try_from(rows).is_err() {
        let ndv = count_distinct(cols.clone().map(|v| v.iter().copied()), (min, max));
        let vals = cols.flat_map(|v| v.iter().map(|&x| (x as f64, 1)));
        return (ndv, Histogram::from_counts(lo, hi, HISTOGRAM_BUCKETS, vals));
    }
    // `span` is below `DENSE_MIN_SLOTS` or `2 · rows`, and every value lies
    // in `[min, max]`, so each offset indexes the array; no slot overflows
    // `u32` since `rows` fits one.
    let mut slots = vec![0u32; span as usize + 1];
    for v in cols {
        for &x in v {
            slots[x.wrapping_sub(min) as u64 as usize] += 1;
        }
    }
    let counted = (slots.iter().enumerate())
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (min.wrapping_add(i as i64) as f64, u64::from(c)));
    let histogram = Histogram::from_counts(lo, hi, HISTOGRAM_BUCKETS, counted);
    let ndv = slots.iter().filter(|&&c| c > 0).count() as u64;
    (ndv, histogram)
}

impl TableStats {
    /// Computes full statistics, linear in the table's rows: min and max
    /// merge the partitions' zone maps, which also give the histograms
    /// their domain, and no value is copied. The distinct count is exact.
    /// An `Int64` column over a dense zone-map range is read once: one
    /// occurrence array gives its NDV and its histogram
    /// ([`Histogram::from_counts`]). Every other column's NDV comes from
    /// [`count_distinct`], the counter the page codec race uses (sparse
    /// ints within their zone-map range, floats by their bits, bools as
    /// 0/1, ids over a shared dictionary), and a numeric one is read once
    /// more for its histogram — twice when a float column's zone-map
    /// extremes are not its finite extremes ([`Histogram::build`]). A
    /// string column without one shared dictionary (a table not yet
    /// registered) interns its values into a fresh dictionary instead.
    pub fn compute(table: &Table) -> TableStats {
        let arity = table.schema.arity();
        let row_count = table.row_count();
        let mut columns = Vec::with_capacity(arity);
        for col_idx in 0..arity {
            columns.push(Self::column_stats(table, col_idx));
        }
        TableStats {
            row_count,
            total_bytes: table.total_bytes(),
            total_encoded_bytes: table.total_encoded_bytes(),
            partition_count: table.partition_count(),
            columns,
        }
    }

    fn column_stats(table: &Table, col_idx: usize) -> ColumnStats {
        let cols = || {
            table
                .partitions
                .iter()
                .map(move |p| p.batch.column(col_idx))
        };
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for (pmin, pmax) in table
            .partitions
            .iter()
            .filter_map(|p| p.zone_map.ranges.get(col_idx))
        {
            min = Some(match min {
                None => pmin.clone(),
                Some(m) => m.min_sql(pmin.clone()),
            });
            max = Some(match max {
                None => pmax.clone(),
                Some(m) => m.max_sql(pmax.clone()),
            });
        }
        let rows: usize = cols().map(ColumnData::len).sum();
        let bytes: usize = cols().map(ColumnData::byte_size).sum();
        // Encoded payload bytes from the partitions' page accounting,
        // excluding inline dictionary sections (wire exchanges ship those
        // once per column, not per row).
        let encoded_payload: u64 = table
            .partitions
            .iter()
            .filter_map(|p| p.pages.get(col_idx))
            .map(|pg| pg.encoded_bytes - pg.dict_bytes)
            .sum();

        let shared_dict = table.column_dictionary(col_idx).cloned();
        let data_type = table.schema.field(col_idx).data_type;
        let floats = || cols().map(|c| c.as_f64().unwrap_or_default());
        let (ndv, histogram) = match (data_type, &shared_dict) {
            (DataType::Int64, _) => {
                let range = match (&min, &max) {
                    (Some(Value::Int(lo)), Some(Value::Int(hi))) => (*lo, *hi),
                    _ => (0, 0),
                };
                int_stats(cols().filter_map(|c| c.as_i64().ok()), rows, range)
            }
            (DataType::Float64, _) => {
                let bits = floats().map(|v| v.iter().map(|x| x.to_bits() as i64));
                let ndv = count_distinct(bits, (i64::MIN, i64::MAX));
                let vals = floats().flat_map(|v| v.iter().copied());
                // The zone maps' extremes are the finite values' extremes
                // when both are finite (a fold of `f64::min` / `max` skips
                // NaN) and non-zero: the two folds may keep different signs
                // of a zero, and an infinite extreme hides the finite one.
                let known = |v: &Option<Value>| match v {
                    Some(Value::Float(x)) if x.is_finite() && *x != 0.0 => Some(*x),
                    _ => None,
                };
                let histogram = match (known(&min), known(&max)) {
                    (Some(lo), Some(hi)) => {
                        Histogram::from_counts(lo, hi, HISTOGRAM_BUCKETS, vals.map(|v| (v, 1)))
                    }
                    _ => Histogram::build(vals, HISTOGRAM_BUCKETS),
                };
                (ndv, histogram)
            }
            (DataType::Bool, _) => {
                let bools = cols().map(|c| c.as_bool().unwrap_or_default());
                let bools = bools.map(|v| v.iter().map(|&b| i64::from(b)));
                (count_distinct(bools, (0, 1)), None)
            }
            (DataType::Utf8, Some(dict)) => {
                let ids = cols().filter_map(ColumnData::as_dict);
                let ids = ids.map(|(ids, _)| ids.iter().map(|&id| i64::from(id)));
                (count_distinct(ids, (0, dict.len() as i64 - 1)), None)
            }
            (DataType::Utf8, None) => {
                let mut values = Dictionary::new();
                for (ids, dict) in cols().filter_map(ColumnData::as_dict) {
                    for &id in ids {
                        values.intern(dict.get(id));
                    }
                }
                (values.len() as u64, None)
            }
        };
        ColumnStats {
            ndv,
            min,
            max,
            histogram,
            avg_width: if rows == 0 {
                0.0
            } else {
                bytes as f64 / rows as f64
            },
            avg_encoded_width: if rows == 0 {
                0.0
            } else {
                encoded_payload as f64 / rows as f64
            },
            dictionary: shared_dict,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_storage::batch::RecordBatch;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::TableBuilder;
    use ci_storage::value::DataType;
    use ci_types::TableId;

    use super::*;

    fn table() -> Table {
        let schema = Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
        ]));
        // One batch per partition, each with a dictionary of its own: the
        // table `dict_encoded` has not yet given one shared dictionary.
        let mut b = TableBuilder::new(TableId::new(0), "t", schema.clone(), 16).unwrap();
        for start in (0..100).step_by(16) {
            let rows = start..(start + 16).min(100);
            let ids = ColumnData::Int64(rows.clone().collect());
            let grps = ColumnData::strings(rows.map(|i| format!("g{}", i % 5)));
            b.append(RecordBatch::new(schema.clone(), vec![ids, grps]).unwrap())
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn basic_table_stats() {
        let s = TableStats::compute(&table());
        assert_eq!(s.row_count, 100);
        assert_eq!(s.partition_count, 7); // 6 * 16 + 4
        assert_eq!(s.columns.len(), 2);
    }

    #[test]
    fn ndv_exact() {
        let s = TableStats::compute(&table());
        assert_eq!(s.columns[0].ndv, 100);
        assert_eq!(s.columns[1].ndv, 5);
    }

    #[test]
    fn min_max_span_partitions() {
        let s = TableStats::compute(&table());
        assert_eq!(s.columns[0].min, Some(Value::Int(0)));
        assert_eq!(s.columns[0].max, Some(Value::Int(99)));
        assert_eq!(s.columns[1].min, Some(Value::from("g0")));
        assert_eq!(s.columns[1].max, Some(Value::from("g4")));
    }

    #[test]
    fn histogram_only_for_numeric() {
        let s = TableStats::compute(&table());
        assert!(s.columns[0].histogram.is_some());
        assert!(s.columns[1].histogram.is_none());
        let h = s.columns[0].histogram.as_ref().unwrap();
        let sel = h.range_selectivity(0.0, 49.0);
        assert!((sel - 0.5).abs() < 0.05, "sel {sel}");
    }

    #[test]
    fn widths_are_positive() {
        let s = TableStats::compute(&table());
        assert!((s.columns[0].avg_width - 8.0).abs() < 1e-9);
        assert!(s.columns[1].avg_width > 0.0);
    }

    #[test]
    fn encoded_widths_reflect_compression() {
        let s = TableStats::compute(&table().dict_encoded());
        // grp has 5 distinct values: ids bit-pack to 3 bits, far under the
        // decoded "g0"-string width of 6 bytes.
        assert!(
            s.columns[1].avg_encoded_width < s.columns[1].avg_width / 2.0,
            "encoded {} vs decoded {}",
            s.columns[1].avg_encoded_width,
            s.columns[1].avg_width
        );
        assert!(s.columns[1].avg_encoded_width > 0.0);
        // The table-level encoded footprint beats the logical one.
        assert!(s.total_encoded_bytes > 0);
        assert!(s.total_encoded_bytes < s.total_bytes);
    }

    #[test]
    fn int_avg_encoded_width_reflects_delta_pages() {
        // The id column is sorted within each partition, so its pages
        // collapse under the Delta codec: the per-row wire width the
        // exchange cost terms charge drops far below the 8-byte decoded
        // width, without any dictionary in play.
        let s = TableStats::compute(&table());
        assert!((s.columns[0].avg_width - 8.0).abs() < 1e-9);
        assert!(
            s.columns[0].avg_encoded_width < s.columns[0].avg_width / 2.0,
            "sorted ints must encode below half their decoded width: {}",
            s.columns[0].avg_encoded_width
        );
        assert!(s.columns[0].avg_encoded_width > 0.0);
        assert!(s.total_encoded_bytes < s.total_bytes);
    }

    #[test]
    fn dict_encoded_table_reports_exact_ndv_from_dictionary() {
        let t = table().dict_encoded();
        let s = TableStats::compute(&t);
        assert_eq!(s.columns[1].ndv, 5);
        let dict = s.columns[1].dictionary.as_ref().expect("shared dictionary");
        assert_eq!(dict.len(), 5);
        // Non-string columns carry no dictionary.
        assert!(s.columns[0].dictionary.is_none());
        // Value-level stats are encoding-independent.
        let naive = TableStats::compute(&table());
        assert_eq!(s.columns[1].min, naive.columns[1].min);
        assert_eq!(s.columns[1].max, naive.columns[1].max);
        assert!((s.columns[1].avg_width - naive.columns[1].avg_width).abs() < 1e-12);
    }

    #[test]
    fn empty_table_stats() {
        let schema = Arc::new(Schema::of(vec![Field::new("id", DataType::Int64)]));
        let t = TableBuilder::new(TableId::new(1), "e", schema, 8)
            .unwrap()
            .finish()
            .unwrap();
        let s = TableStats::compute(&t);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].ndv, 0);
        assert_eq!(s.columns[0].min, None);
        assert!(s.columns[0].histogram.is_none());
    }
}
