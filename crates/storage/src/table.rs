//! Tables: named collections of micro-partitions.

use std::sync::Arc;

use ci_types::{CiError, Result, TableId};

use crate::batch::RecordBatch;
use crate::column::ColumnData;
use crate::dict::Dictionary;
use crate::pages::WireSketch;
use crate::partition::MicroPartition;
use crate::pruning::ColumnBound;
use crate::schema::SchemaRef;
use crate::value::{f64_sort_key, DataType};

/// A stored table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Catalog id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Schema shared by all partitions.
    pub schema: SchemaRef,
    /// The micro-partitions, in storage order.
    pub partitions: Vec<MicroPartition>,
    /// Column index the table is physically clustered (sorted) by, if any.
    /// Reclustering (§4's example tuning action) sets this and tightens
    /// zone maps.
    pub clustered_by: Option<usize>,
}

/// Result of partition pruning: which partitions survive and how much was
/// skipped, stated in both byte currencies — logical bytes for data-volume
/// intuition, encoded bytes for what the skipped GETs would actually have
/// transferred (the billed savings).
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// Indices of surviving partitions.
    pub kept: Vec<usize>,
    /// Partitions skipped thanks to zone maps.
    pub pruned_partitions: usize,
    /// Logical (decoded) bytes that did not need decoding.
    pub pruned_bytes: u64,
    /// Encoded bytes that did not need fetching — pruning savings in billed
    /// bytes.
    pub pruned_encoded_bytes: u64,
}

impl Table {
    /// Total row count.
    pub fn row_count(&self) -> u64 {
        self.partitions.iter().map(|p| p.rows() as u64).sum()
    }

    /// Total logical (decoded) bytes across partitions.
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.stored_bytes).sum()
    }

    /// Total encoded bytes across partitions — the object-store footprint
    /// that storage bills and full-table I/O (recluster, MV builds) pay.
    pub fn total_encoded_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.encoded_bytes).sum()
    }

    /// Number of micro-partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Applies zone-map pruning for a conjunction of column bounds.
    pub fn prune(&self, bounds: &[ColumnBound]) -> PruneOutcome {
        let mut kept = Vec::new();
        let mut pruned_partitions = 0usize;
        let mut pruned_bytes = 0u64;
        let mut pruned_encoded_bytes = 0u64;
        for (i, p) in self.partitions.iter().enumerate() {
            if p.zone_map.may_contain(bounds) {
                kept.push(i);
            } else {
                pruned_partitions += 1;
                pruned_bytes += p.stored_bytes;
                pruned_encoded_bytes += p.encoded_bytes;
            }
        }
        PruneOutcome {
            kept,
            pruned_partitions,
            pruned_bytes,
            pruned_encoded_bytes,
        }
    }

    /// Materializes the whole table as one batch: the rows
    /// [`Table::reclustered_by`] sorts, and what tests and oracle execution
    /// read.
    pub fn to_batch(&self) -> Result<RecordBatch> {
        if self.partitions.is_empty() {
            return Ok(RecordBatch::empty(self.schema.clone()));
        }
        let batches: Vec<RecordBatch> = self.partitions.iter().map(|p| p.batch.clone()).collect();
        RecordBatch::concat(&batches)
    }

    /// Gives every string column one [`Dictionary`]: a column whose
    /// partitions do not already share one dictionary `Arc` is re-interned
    /// across all partitions (in storage order, so the ids are
    /// deterministic) into a dictionary every partition's batch shares.
    /// Values, zone maps, and `stored_bytes` are unchanged — page accounting
    /// counts only the entries a page references. Called by the catalog at
    /// registration ("interned per table at load"); idempotent.
    pub fn dict_encoded(mut self) -> Table {
        let string_cols: Vec<usize> = (0..self.schema.arity())
            .filter(|&i| self.schema.field(i).data_type == DataType::Utf8)
            .filter(|&i| !self.partitions.is_empty() && self.column_dictionary(i).is_none())
            .collect();
        if string_cols.is_empty() {
            return self;
        }
        // Intern each string column across partitions, top to bottom.
        let mut encoded: Vec<Vec<Arc<ColumnData>>> = Vec::with_capacity(string_cols.len());
        for &ci in &string_cols {
            let mut dict = Dictionary::new();
            // Every string column is dictionary ids (a batch's columns match
            // its schema), so no partition is skipped.
            let per_part: Vec<Vec<u32>> = (self.partitions.iter())
                .filter_map(|p| p.batch.column(ci).as_dict())
                .map(|(ids, d)| ids.iter().map(|&id| dict.intern(d.get(id))).collect())
                .collect();
            let dict = Arc::new(dict);
            encoded.push(
                per_part
                    .into_iter()
                    .map(|ids| {
                        Arc::new(ColumnData::Dict {
                            ids,
                            dict: dict.clone(),
                        })
                    })
                    .collect(),
            );
        }
        // Rebuild partitions with the encoded columns swapped in. Zone maps,
        // stored_bytes, and page accounting are value-level quantities (a
        // page holds only the entries its rows reference), so they are
        // preserved verbatim rather than recomputed.
        for (pi, part) in self.partitions.iter_mut().enumerate() {
            for (k, &ci) in string_cols.iter().enumerate() {
                part.batch.replace_column(ci, encoded[k][pi].clone());
            }
            // The swapped-in columns get ids-only wire plans; the others
            // keep theirs.
            part.wire = Arc::new(WireSketch::reusing(&part.batch, &part.wire));
        }
        self
    }

    /// The shared dictionary of column `i`, when every partition holds the
    /// same dict encoding for it (the invariant [`Table::dict_encoded`]
    /// establishes).
    pub fn column_dictionary(&self, i: usize) -> Option<&Arc<Dictionary>> {
        let mut parts = self.partitions.iter();
        let (_, first) = parts.next()?.batch.column(i).as_dict()?;
        for p in parts {
            let (_, d) = p.batch.column(i).as_dict()?;
            if !Arc::ptr_eq(first, d) {
                return None;
            }
        }
        Some(first)
    }

    /// Rebuilds the table physically sorted by `column`, re-chunked into
    /// partitions of `rows_per_partition`. This is the §4 "recluster" tuning
    /// action: the data is identical, but zone maps on the cluster column
    /// become tight, so selective scans prune far more.
    pub fn reclustered_by(&self, column: usize, rows_per_partition: usize) -> Result<Table> {
        if column >= self.schema.arity() {
            return Err(CiError::Catalog(format!(
                "recluster column {column} out of range"
            )));
        }
        if rows_per_partition == 0 {
            return Err(CiError::Config("rows_per_partition must be > 0".into()));
        }
        let all = self.to_batch()?;
        let mut indices: Vec<usize> = (0..all.rows()).collect();
        // A stable sort on the key's own type: each comparison agrees with
        // `Value::partial_cmp_sql`, so the permutation is the one a sort over
        // `Value`s gives, without building any. Floats sort in the sort
        // sink's order ([`f64_sort_key`]), which puts NaN last.
        match all.column(column) {
            ColumnData::Int64(v) => indices.sort_by_key(|&i| v[i]),
            ColumnData::Float64(v) => indices.sort_by_key(|&i| f64_sort_key(v[i])),
            ColumnData::Bool(v) => indices.sort_by_key(|&i| v[i]),
            ColumnData::Dict { ids, dict } => {
                indices.sort_by(|&a, &b| dict.get(ids[a]).cmp(dict.get(ids[b])))
            }
        }
        let sorted = all.take(&indices)?;
        let mut partitions = Vec::new();
        let mut offset = 0;
        while offset < sorted.rows() {
            let len = rows_per_partition.min(sorted.rows() - offset);
            partitions.push(MicroPartition::from_batch(sorted.slice(offset, len)?));
            offset += len;
        }
        Ok(Table {
            id: self.id,
            name: self.name.clone(),
            schema: self.schema.clone(),
            partitions,
            clustered_by: Some(column),
        })
    }
}

/// Builds a table by appending batches, chunking into micro-partitions.
#[derive(Debug)]
pub struct TableBuilder {
    id: TableId,
    name: String,
    schema: SchemaRef,
    rows_per_partition: usize,
    /// Appended rows not yet in a partition, fewer than
    /// `rows_per_partition` in all.
    pending: Vec<RecordBatch>,
    pending_rows: usize,
    partitions: Vec<MicroPartition>,
}

impl TableBuilder {
    /// Starts a builder. `rows_per_partition` controls micro-partition size
    /// (object granularity for I/O models and pruning resolution).
    pub fn new(
        id: TableId,
        name: impl Into<String>,
        schema: SchemaRef,
        rows_per_partition: usize,
    ) -> Result<TableBuilder> {
        if rows_per_partition == 0 {
            return Err(CiError::Config("rows_per_partition must be > 0".into()));
        }
        Ok(TableBuilder {
            id,
            name: name.into(),
            schema,
            rows_per_partition,
            pending: Vec::new(),
            pending_rows: 0,
            partitions: Vec::new(),
        })
    }

    /// Appends a batch (schema must match). Full partitions are cut straight
    /// off `batch` at a running offset, each one the concatenation of the
    /// pending remainder and the rows it takes from `batch`, and the rows
    /// left over join the remainder. A row is copied once on its way into a
    /// partition (twice if it waits in the remainder), so the cost is linear
    /// in the rows appended, whatever the batch sizes.
    pub fn append(&mut self, batch: RecordBatch) -> Result<()> {
        if batch.schema().as_ref() != self.schema.as_ref() {
            return Err(CiError::Catalog(format!(
                "append schema mismatch for table '{}'",
                self.name
            )));
        }
        let rows = batch.rows();
        let mut offset = 0;
        while self.pending_rows + (rows - offset) >= self.rows_per_partition {
            let len = self.rows_per_partition - self.pending_rows;
            let mut pieces = std::mem::take(&mut self.pending);
            pieces.push(batch.slice(offset, len)?);
            let part = RecordBatch::concat(&pieces)?;
            self.partitions.push(MicroPartition::from_batch(part));
            self.pending_rows = 0;
            offset += len;
        }
        if offset < rows {
            self.pending.push(batch.slice(offset, rows - offset)?);
            self.pending_rows += rows - offset;
        }
        Ok(())
    }

    /// Finishes the table, flushing any remainder as a final short partition.
    pub fn finish(mut self) -> Result<Table> {
        if self.pending_rows > 0 {
            let combined = RecordBatch::concat(&self.pending)?;
            self.partitions.push(MicroPartition::from_batch(combined));
        }
        Ok(Table {
            id: self.id,
            name: self.name,
            schema: self.schema,
            partitions: self.partitions,
            clustered_by: None,
        })
    }
}

/// Builds a single-partition table directly from a batch (test fixtures).
pub fn table_from_batch(id: TableId, name: &str, batch: RecordBatch) -> Table {
    Table {
        id,
        name: name.to_owned(),
        schema: batch.schema().clone(),
        partitions: vec![MicroPartition::from_batch(batch)],
        clustered_by: None,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::column::ColumnData;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn schema() -> SchemaRef {
        Arc::new(Schema::of(vec![Field::new("id", DataType::Int64)]))
    }

    fn batch(ids: Vec<i64>) -> RecordBatch {
        RecordBatch::new(schema(), vec![ColumnData::Int64(ids)]).unwrap()
    }

    #[test]
    fn builder_chunks_into_partitions() {
        let mut b = TableBuilder::new(TableId::new(0), "t", schema(), 3).unwrap();
        b.append(batch(vec![1, 2])).unwrap();
        b.append(batch(vec![3, 4, 5, 6, 7])).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.partition_count(), 3); // 3 + 3 + 1
        assert_eq!(t.row_count(), 7);
        assert_eq!(t.partitions[0].rows(), 3);
        assert_eq!(t.partitions[2].rows(), 1);
        // Order preserved end-to-end.
        let all = t.to_batch().unwrap();
        assert_eq!(all.column(0), &ColumnData::Int64(vec![1, 2, 3, 4, 5, 6, 7]));
    }

    #[test]
    fn builder_rejects_schema_mismatch() {
        let other = Arc::new(Schema::of(vec![Field::new("x", DataType::Float64)]));
        let mut b = TableBuilder::new(TableId::new(0), "t", schema(), 3).unwrap();
        let bad = RecordBatch::new(other, vec![ColumnData::Float64(vec![1.0])]).unwrap();
        assert!(b.append(bad).is_err());
    }

    #[test]
    fn pruning_on_unsorted_data_is_weak() {
        // Interleaved values: every partition spans the full range -> no pruning.
        let mut b = TableBuilder::new(TableId::new(0), "t", schema(), 2).unwrap();
        b.append(batch(vec![1, 100, 2, 99, 3, 98])).unwrap();
        let t = b.finish().unwrap();
        // 50 sits inside every partition's [min, max] span: nothing prunes.
        let out = t.prune(&[ColumnBound::eq(0, Value::Int(50))]);
        assert_eq!(out.pruned_partitions, 0, "zone maps all span [low, high]");
    }

    #[test]
    fn recluster_tightens_zone_maps() {
        let mut b = TableBuilder::new(TableId::new(0), "t", schema(), 2).unwrap();
        b.append(batch(vec![1, 100, 2, 99, 3, 98])).unwrap();
        let t = b.finish().unwrap().reclustered_by(0, 2).unwrap();
        assert_eq!(t.clustered_by, Some(0));
        assert_eq!(t.partition_count(), 3);
        let out = t.prune(&[ColumnBound::eq(0, Value::Int(1))]);
        assert_eq!(out.kept, vec![0], "only the first partition can hold 1");
        assert_eq!(out.pruned_partitions, 2);
        assert!(out.pruned_bytes > 0);
        // Billed savings are reported alongside logical ones (tiny pages can
        // exceed their logical size by the fixed page header).
        let expected: u64 = t.partitions[1..].iter().map(|p| p.encoded_bytes).sum();
        assert_eq!(out.pruned_encoded_bytes, expected);
        // Reclustering preserves the multiset of rows.
        let mut vals = t.to_batch().unwrap().column(0).as_i64().unwrap().to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2, 3, 98, 99, 100]);
    }

    #[test]
    fn recluster_validates_inputs() {
        let t = table_from_batch(TableId::new(0), "t", batch(vec![1]));
        assert!(t.reclustered_by(9, 2).is_err());
        assert!(t.reclustered_by(0, 0).is_err());
    }

    #[test]
    fn dict_encoding_shares_one_dictionary_across_partitions() {
        let schema = Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
        ]));
        // Two batches, each over a dictionary of its own: no partition
        // shares the dictionary of another until registration.
        let mut b = TableBuilder::new(TableId::new(0), "t", schema.clone(), 2).unwrap();
        for (ids, grps) in [
            (vec![1, 2, 3], vec!["b", "a", "b"]),
            (vec![4, 5], vec!["c", "a"]),
        ] {
            let columns = vec![ColumnData::Int64(ids), ColumnData::strings(grps)];
            b.append(RecordBatch::new(schema.clone(), columns).unwrap())
                .unwrap();
        }
        let plain = b.finish().unwrap();
        assert!(plain.column_dictionary(1).is_none());
        let plain_bytes = plain.total_bytes();
        let plain_encoded = plain.total_encoded_bytes();
        let plain_rows = plain.to_batch().unwrap();

        let t = plain.dict_encoded();
        assert_eq!(t.partition_count(), 3);
        let dict = t.column_dictionary(1).expect("shared dict").clone();
        assert_eq!(dict.len(), 3, "b, a, c interned once each");
        for p in &t.partitions {
            let (_, d) = p.batch.column(1).as_dict().expect("dict-encoded");
            assert!(Arc::ptr_eq(d, &dict));
        }
        // Values, byte accounting (both currencies), and zone maps are
        // unchanged.
        assert_eq!(t.total_bytes(), plain_bytes);
        assert_eq!(t.total_encoded_bytes(), plain_encoded);
        assert_eq!(t.to_batch().unwrap(), plain_rows);
        assert_eq!(
            t.partitions[0].zone_map.ranges[1],
            (Value::from("a"), Value::from("b"))
        );
        // Idempotent, and the int column is untouched.
        let again = t.clone().dict_encoded();
        assert!(Arc::ptr_eq(
            again.column_dictionary(1).unwrap(),
            t.column_dictionary(1).unwrap()
        ));
        assert!(t.column_dictionary(0).is_none());
        // Reclustering preserves the shared dictionary.
        let re = t.reclustered_by(1, 2).unwrap();
        assert!(Arc::ptr_eq(re.column_dictionary(1).unwrap(), &dict));
    }

    /// Every partition's wire sketch is the sketch of its batch as it
    /// stands, over its current column `Arc`s: after the builder, after
    /// dict encoding swaps the string columns in, and after reclustering.
    #[test]
    fn partition_wire_sketches_track_their_batches() {
        let schema = Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("x", DataType::Float64),
            Field::new("hot", DataType::Bool),
        ]));
        let ids: Vec<i64> = vec![7, 1, 5, 3, 3, 9, 2];
        let columns = vec![
            ColumnData::Int64(ids.clone()),
            ColumnData::strings(ids.iter().map(|i| format!("g{}", i % 3))),
            ColumnData::Float64(ids.iter().map(|&i| i as f64 / 2.0).collect()),
            ColumnData::Bool(ids.iter().map(|i| i % 2 == 0).collect()),
        ];
        let mut b = TableBuilder::new(TableId::new(0), "t", schema.clone(), 3).unwrap();
        b.append(RecordBatch::new(schema, columns).unwrap())
            .unwrap();
        let check = |t: &Table, when: &str| {
            for p in &t.partitions {
                assert_eq!(*p.wire, WireSketch::of(&p.batch), "{when}");
                let arity = p.batch.columns().len();
                assert!((0..arity).all(|i| p.wire.covers(&p.batch, i)), "{when}");
            }
        };
        let built = b.finish().unwrap();
        check(&built, "built");
        let dicted = built.dict_encoded();
        assert!(dicted.column_dictionary(1).is_some());
        check(&dicted, "dict encoded");
        check(&dicted.reclustered_by(0, 2).unwrap(), "reclustered");
    }

    #[test]
    fn empty_table_materializes_empty() {
        let t = TableBuilder::new(TableId::new(0), "t", schema(), 4)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(t.row_count(), 0);
        assert!(t.to_batch().unwrap().is_empty());
        assert_eq!(t.prune(&[]).kept.len(), 0);
    }
}
