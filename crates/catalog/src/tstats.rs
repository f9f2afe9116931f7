//! Table and column statistics.
//!
//! The metadata service keeps "low-latency access to ... table statistics
//! necessary for query planning" (§3). Statistics are computed once at load
//! (or refreshed by background compute) and read by the cardinality
//! estimator and cost models.

use std::collections::HashSet;
use std::sync::Arc;

use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::table::Table;
use ci_storage::value::Value;

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

impl TableStats {
    /// Computes full statistics by scanning the table once.
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
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut bytes = 0usize;
        let mut rows = 0usize;
        // Encoded payload bytes from the partitions' page accounting,
        // excluding inline dictionary sections (wire exchanges ship those
        // once per column, not per row).
        let encoded_payload: u64 = table
            .partitions
            .iter()
            .filter_map(|p| p.pages.get(col_idx))
            .map(|pg| pg.encoded_bytes - pg.dict_bytes)
            .sum();

        // NDV: dict-encoded columns count referenced ids against the shared
        // dictionary (exact, no hashing); everything else hashes a canonical
        // encoding of each value.
        let shared_dict = table.column_dictionary(col_idx).cloned();
        let mut seen_ids = vec![false; shared_dict.as_ref().map_or(0, |d| d.len())];
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut numeric: Vec<f64> = Vec::new();
        let mut is_numeric = true;

        for part in &table.partitions {
            let col = part.batch.column(col_idx);
            rows += col.len();
            bytes += col.byte_size();
            if let Some((pmin, pmax)) = col.min_max() {
                min = Some(match min {
                    None => pmin.clone(),
                    Some(m) => m.min_sql(pmin.clone()),
                });
                max = Some(match max {
                    None => pmax,
                    Some(m) => m.max_sql(pmax),
                });
            }
            match col {
                ColumnData::Int64(v) => {
                    for &x in v {
                        distinct.insert(x as u64);
                        numeric.push(x as f64);
                    }
                }
                ColumnData::Float64(v) => {
                    for &x in v {
                        distinct.insert(x.to_bits());
                        numeric.push(x);
                    }
                }
                ColumnData::Utf8(v) => {
                    is_numeric = false;
                    for s in v {
                        distinct.insert(fnv1a(s.as_bytes()));
                    }
                }
                ColumnData::Bool(v) => {
                    is_numeric = false;
                    for &b in v {
                        distinct.insert(b as u64);
                    }
                }
                ColumnData::Dict { ids, dict } => {
                    is_numeric = false;
                    if shared_dict.is_some() {
                        for &id in ids {
                            seen_ids[id as usize] = true;
                        }
                    } else {
                        // Partitions carry unrelated dictionaries: fall back
                        // to value hashing so ids from different dicts never
                        // collide.
                        for &id in ids {
                            distinct.insert(fnv1a(dict.get(id).as_bytes()));
                        }
                    }
                }
            }
        }

        let ndv = if shared_dict.is_some() {
            seen_ids.iter().filter(|&&s| s).count() as u64
        } else {
            distinct.len() as u64
        };
        let histogram = if is_numeric {
            Histogram::build(numeric.into_iter(), HISTOGRAM_BUCKETS)
        } else {
            None
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

    /// Average row width in bytes.
    pub fn avg_row_width(&self) -> f64 {
        self.columns.iter().map(|c| c.avg_width).sum()
    }
}

/// FNV-1a for string NDV hashing (collision odds negligible at our scales).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
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
        let mut b = TableBuilder::new(TableId::new(0), "t", schema.clone(), 16).unwrap();
        let ids: Vec<i64> = (0..100).collect();
        let grps: Vec<String> = (0..100).map(|i| format!("g{}", i % 5)).collect();
        b.append(
            RecordBatch::new(schema, vec![ColumnData::Int64(ids), ColumnData::Utf8(grps)]).unwrap(),
        )
        .unwrap();
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
        assert!(s.avg_row_width() > 8.0);
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
