//! Table and column statistics.
//!
//! The metadata service keeps "low-latency access to ... table statistics
//! necessary for query planning" (§3). Statistics are computed once at load
//! (or refreshed by background compute) and read by the cardinality
//! estimator and cost models.

use std::sync::Arc;

use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::table::Table;
use ci_storage::tiers::fnv1a64;
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

/// An `Int64` column counts its distinct values in a bitmap over
/// `value - min` when that bitmap needs at most one 64-bit word per row, or
/// at most this many words (128 KiB) on a short column.
const BITMAP_MIN_WORDS: u64 = 1 << 14;

impl TableStats {
    /// Computes full statistics, linear in the table's rows: min and max
    /// merge the partitions' zone maps, and each column's values are read
    /// three times at most (distinct count, histogram domain, histogram
    /// counts), copied never. The distinct count is exact: dictionary ids
    /// against a shared dictionary, a bitmap for narrow `Int64` ranges, and a
    /// presized word set over each value's 64-bit image otherwise.
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
        let ndv = match &shared_dict {
            Some(dict) => dict_ndv(dict, cols()),
            None => match (&min, &max) {
                (Some(Value::Int(lo)), Some(Value::Int(hi))) => int_ndv(*lo, *hi, rows, cols()),
                _ => hashed_ndv(rows, cols()),
            },
        };
        let histogram = match table.schema.field(col_idx).data_type {
            DataType::Int64 => Histogram::build(
                cols().flat_map(|c| c.as_i64().unwrap_or_default().iter().map(|&x| x as f64)),
                HISTOGRAM_BUCKETS,
            ),
            DataType::Float64 => Histogram::build(
                cols().flat_map(|c| c.as_f64().unwrap_or_default().iter().copied()),
                HISTOGRAM_BUCKETS,
            ),
            DataType::Utf8 | DataType::Bool => None,
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

/// Distinct ids referenced across partitions that all share `dict` (exact,
/// no hashing).
fn dict_ndv<'a>(dict: &Dictionary, cols: impl Iterator<Item = &'a ColumnData>) -> u64 {
    let mut seen = vec![false; dict.len()];
    let mut ndv = 0;
    for (ids, _) in cols.filter_map(ColumnData::as_dict) {
        for &id in ids {
            ndv += u64::from(!std::mem::replace(&mut seen[id as usize], true));
        }
    }
    ndv
}

/// Distinct values of an `Int64` column spanning `[lo, hi]`: a bitmap over
/// `value - lo` when the span is narrow, else the word set.
fn int_ndv<'a>(
    lo: i64,
    hi: i64,
    rows: usize,
    cols: impl Iterator<Item = &'a ColumnData> + Clone,
) -> u64 {
    let words = (hi as u64).wrapping_sub(lo as u64) / 64 + 1;
    if words > (rows as u64).max(BITMAP_MIN_WORDS) {
        return hashed_ndv(rows, cols);
    }
    let mut bits = vec![0u64; words as usize];
    let mut ndv = 0;
    for v in cols.map(|c| c.as_i64().unwrap_or_default()) {
        for &x in v {
            let off = (x as u64).wrapping_sub(lo as u64);
            let (word, bit) = (&mut bits[(off / 64) as usize], 1u64 << (off % 64));
            ndv += u64::from(*word & bit == 0);
            *word |= bit;
        }
    }
    ndv
}

/// Distinct 64-bit images of the `rows` values: the integer's bits, a
/// float's bits, a bool as 0/1, or FNV-1a of a string ([`fnv1a64`], the
/// tier files' checksum; collision odds are negligible at these scales).
/// A partition whose strings are dictionary ids (dictionaries not shared
/// across partitions) hashes each id it references once, so ids from
/// different dictionaries never collide.
fn hashed_ndv<'a>(rows: usize, cols: impl Iterator<Item = &'a ColumnData>) -> u64 {
    let mut set = WordSet::with_capacity(rows);
    for col in cols {
        match col {
            ColumnData::Int64(v) => v.iter().for_each(|&x| set.insert(x as u64)),
            ColumnData::Float64(v) => v.iter().for_each(|x| set.insert(x.to_bits())),
            ColumnData::Utf8(v) => v.iter().for_each(|s| set.insert(fnv1a64(s.as_bytes()))),
            ColumnData::Bool(v) => v.iter().for_each(|&b| set.insert(b as u64)),
            ColumnData::Dict { ids, dict } => {
                let mut seen = vec![false; dict.len()];
                for &id in ids {
                    if !std::mem::replace(&mut seen[id as usize], true) {
                        set.insert(fnv1a64(dict.get(id).as_bytes()));
                    }
                }
            }
        }
    }
    set.len() as u64
}

/// An insert-only open-addressing set of `u64` words with a fixed
/// multiplicative hash, sized up front to stay at most 4/5 full for the
/// number of insertions its caller makes. A half-full bound would double
/// the table (4 MiB for a 200 000-row column, twice the column itself), and
/// freeing a block that large raised the process's peak RSS on the CAB
/// query workloads by ≈ 5 MB through the allocator's mmap threshold. Slot
/// value 0 means empty, so the key 0 is kept aside in a flag.
struct WordSet {
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    len: usize,
    has_zero: bool,
}

impl WordSet {
    /// A set for at most `inserts` insertions.
    fn with_capacity(inserts: usize) -> WordSet {
        let slots = (inserts.max(8) * 5 / 4 + 1).next_power_of_two();
        WordSet {
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            has_zero: false,
        }
    }

    fn len(&self) -> usize {
        self.len + usize::from(self.has_zero)
    }

    #[inline]
    fn insert(&mut self, key: u64) {
        if key == 0 {
            self.has_zero = true;
            return;
        }
        let mask = self.slots.len() - 1;
        let mixed = (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (mixed >> self.shift) as usize;
        // Never full (see `with_capacity`), so the probe meets the key or
        // an empty slot.
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    self.len += 1;
                    return;
                }
                k if k == key => return,
                _ => i = (i + 1) & mask,
            }
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
