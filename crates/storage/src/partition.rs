//! Micro-partitions: the unit of object-store storage and I/O.
//!
//! Mirrors Snowflake's micro-partitions / Parquet row groups: a horizontal
//! slice of a table stored as one object, carrying a zone map (per-column
//! min/max) used for pruning. In this reproduction the payload lives in
//! memory, but every byte is accounted for so the object-store model can
//! charge realistic fetch times.
//!
//! Two byte figures describe one partition, and they answer different
//! questions:
//!
//! * [`MicroPartition::stored_bytes`] — the **logical (decoded)** payload
//!   size, [`RecordBatch::byte_size`]. This is what decode produces, what
//!   flows through operators, and the size statistics/row-width estimates
//!   are defined over. It is codec-invariant by construction.
//! * [`MicroPartition::encoded_bytes`] — the **billed (encoded)** object
//!   size: each column compressed under its size-picked page codec
//!   ([`crate::pages::best_page`]), summed. This is what a GET transfers,
//!   what scan-time and storage bills charge, and what pruning reports as
//!   saved I/O.
//!
//! Both figures, and the pages behind the second, are the same whatever
//! dictionary a string column's ids point into: a string page holds only
//! the entries its rows reference, in first-appearance order. Registration
//! re-interns a table's string columns into one dictionary and keeps them
//! as they are.
//!
//! The gap between the two is exactly the compression the cost model can
//! now reward.

use std::sync::Arc;

use crate::batch::RecordBatch;
use crate::pages::{EncodedPage, WireSketch};
use crate::pruning::ColumnBound;
use crate::value::Value;

/// Per-column [min, max] of one micro-partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// `(min, max)` per column, in schema order.
    pub ranges: Vec<(Value, Value)>,
}

impl ZoneMap {
    /// Computes the zone map of a batch. Empty batches get an empty map.
    pub fn of(batch: &RecordBatch) -> ZoneMap {
        let ranges = batch.columns().iter().filter_map(|c| c.min_max()).collect();
        ZoneMap { ranges }
    }

    /// Could a row satisfying all `bounds` exist in this partition?
    pub fn may_contain(&self, bounds: &[ColumnBound]) -> bool {
        bounds.iter().all(|b| {
            match self.ranges.get(b.column) {
                // No zone info for that column (empty partition): keep.
                None => true,
                Some((zmin, zmax)) => b.may_overlap(zmin, zmax),
            }
        })
    }
}

/// One stored micro-partition.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroPartition {
    /// The data (in-memory stand-in for the object payload).
    pub batch: RecordBatch,
    /// Zone map over `batch`.
    pub zone_map: ZoneMap,
    /// Logical (decoded) payload size in bytes. **Not** what a fetch
    /// transfers — see [`MicroPartition::encoded_bytes`] and the module docs
    /// for the distinction.
    pub stored_bytes: u64,
    /// Encoded object size in bytes (what a GET transfers and scans bill):
    /// the sum of [`MicroPartition::pages`] sizes.
    pub encoded_bytes: u64,
    /// Per-column encoded-page metadata under the size-based codec picker,
    /// in schema order. Value-level (encoding-invariant) like the zone map:
    /// a dict-encoded and a plain column holding the same strings produce
    /// identical page accounting.
    pub pages: Vec<EncodedPage>,
    /// The wire plan of `batch`'s columns, taken from the codec race that
    /// sized [`MicroPartition::pages`]: a scan morsel spanning the whole
    /// partition ships it to the exchange instead of sketching again. Kept
    /// current by whatever swaps `batch`'s columns.
    pub wire: Arc<WireSketch>,
}

impl MicroPartition {
    /// Wraps a batch into a partition, computing its metadata (zone map,
    /// decoded size, per-column best-codec page sizes and wire plan). Selected batches
    /// are compacted first — stored objects are dense.
    pub fn from_batch(batch: RecordBatch) -> MicroPartition {
        let batch = if batch.selection().is_some() {
            batch.compacted()
        } else {
            batch
        };
        let zone_map = ZoneMap::of(&batch);
        let stored_bytes = batch.byte_size() as u64;
        let (wire, pages) = WireSketch::with_pages(&batch);
        let encoded_bytes = pages.iter().map(|p| p.encoded_bytes).sum();
        MicroPartition {
            batch,
            zone_map,
            stored_bytes,
            encoded_bytes,
            pages,
            wire: Arc::new(wire),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.batch.rows()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::column::ColumnData;
    use crate::dict::Dictionary;
    use crate::pages::PageCodec;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn part(ids: Vec<i64>) -> MicroPartition {
        let schema = Arc::new(Schema::of(vec![Field::new("id", DataType::Int64)]));
        MicroPartition::from_batch(RecordBatch::new(schema, vec![ColumnData::Int64(ids)]).unwrap())
    }

    #[test]
    fn zone_map_is_min_max() {
        let p = part(vec![5, 1, 9]);
        assert_eq!(p.zone_map.ranges, vec![(Value::Int(1), Value::Int(9))]);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.stored_bytes, 24);
    }

    #[test]
    fn stored_is_logical_encoded_is_billed() {
        // A constant column: decoded size is rows × 8, encoded collapses to
        // a width-0 frame-of-reference page.
        let p = part(vec![42; 1024]);
        assert_eq!(p.stored_bytes, 1024 * 8, "stored_bytes stays logical");
        assert!(
            p.encoded_bytes < p.stored_bytes / 10,
            "encoded {} vs stored {}",
            p.encoded_bytes,
            p.stored_bytes
        );
        assert_eq!(p.pages.len(), 1);
        assert_eq!(p.pages[0].codec, PageCodec::For);
        assert_eq!(p.pages[0].decoded_bytes, p.stored_bytes);
        assert_eq!(p.pages[0].rows, 1024);
        assert_eq!(p.encoded_bytes, p.pages[0].encoded_bytes);
    }

    #[test]
    fn sorted_int_partitions_bill_delta_pages() {
        // A clustered (sorted) id column: the Delta codec collapses it far
        // below Plain, so the billed fetch sees the recluster win.
        let p = part((0..4096).collect());
        assert_eq!(p.pages[0].codec, PageCodec::Delta);
        assert!(
            p.encoded_bytes * 4 < p.stored_bytes,
            "sorted ints must encode >= 4x smaller: {} vs {}",
            p.encoded_bytes,
            p.stored_bytes
        );
    }

    #[test]
    fn page_accounting_is_encoding_invariant() {
        let schema = Arc::new(Schema::of(vec![Field::new("s", DataType::Utf8)]));
        let vals: Vec<String> = (0..100).map(|i| format!("grp{}", i % 4)).collect();
        let fresh = MicroPartition::from_batch(
            RecordBatch::new(schema.clone(), vec![ColumnData::strings(&vals)]).unwrap(),
        );
        // The same values over a larger, table-wide dictionary whose ids
        // differ: registration's re-intern relies on the page accounting
        // not seeing the dictionary.
        let mut wide = Dictionary::new();
        (0..50).rev().for_each(|i| {
            wide.intern(&format!("grp{i}"));
        });
        let ids: Vec<u32> = vals.iter().map(|s| wide.intern(s)).collect();
        let over = |dict: Dictionary| {
            let col = ColumnData::Dict {
                ids: ids.clone(),
                dict: Arc::new(dict),
            };
            MicroPartition::from_batch(RecordBatch::new(schema.clone(), vec![col]).unwrap())
        };
        let (table_wide, re_interned) = (over(wide.clone()), over(wide));
        assert_eq!(fresh.encoded_bytes, table_wide.encoded_bytes);
        assert_eq!(fresh.stored_bytes, table_wide.stored_bytes);
        assert_eq!(fresh.pages, table_wide.pages);
        assert_eq!(fresh.pages[0].codec, PageCodec::Dict);
        assert!(fresh.encoded_bytes < fresh.stored_bytes);
        // A wire page ships ids against the whole dictionary, so the wire
        // sketch follows the dictionary's entries, not its `Arc`: a column
        // interned where it is made and the same entries re-interned at
        // registration sketch alike.
        assert_eq!(*table_wide.wire, *re_interned.wire);
        assert_eq!(table_wide.pages, re_interned.pages);
    }

    #[test]
    fn pruning_respects_bounds() {
        let p = part(vec![10, 20, 30]);
        assert!(p
            .zone_map
            .may_contain(&[ColumnBound::eq(0, Value::Int(20))]));
        assert!(!p
            .zone_map
            .may_contain(&[ColumnBound::eq(0, Value::Int(31))]));
        // Conjunction: any failing bound prunes.
        assert!(!p.zone_map.may_contain(&[
            ColumnBound::eq(0, Value::Int(20)),
            ColumnBound::eq(0, Value::Int(99)),
        ]));
        // No bounds: always kept.
        assert!(p.zone_map.may_contain(&[]));
    }

    #[test]
    fn empty_partition_is_conservative() {
        let p = part(vec![]);
        assert!(p.zone_map.may_contain(&[ColumnBound::eq(0, Value::Int(1))]));
    }
}
