//! Record batches: the unit of data flowing between operators.

use std::sync::Arc;

use ci_types::{CiError, Result};

use crate::column::ColumnData;
use crate::schema::SchemaRef;
use crate::selection::SelectionVector;
use crate::value::Value;

/// When a filter leaves fewer than this fraction of the physical rows
/// selected, [`RecordBatch::filter`] compacts eagerly instead of carrying
/// the sparse selection further: a near-empty selection would otherwise pin
/// large physical columns (and pay selection-iteration overhead) through the
/// rest of a long pipeline for a handful of rows.
pub const COMPACT_DENSITY: f64 = 1.0 / 16.0;

/// A horizontal chunk of a table: one [`ColumnData`] per schema field, all
/// the same length. Columns are `Arc`-shared, so cloning a batch, projecting
/// columns, or re-schematizing a partition's payload never copies data.
///
/// Filtering is **late-materializing**: [`RecordBatch::filter`] attaches a
/// [`SelectionVector`] naming the surviving physical rows and shares every
/// column untouched, and filtering an already-selected batch just composes
/// selections — O(selected), no per-row column copies. All logical accessors
/// ([`RecordBatch::rows`], [`RecordBatch::row`], [`RecordBatch::byte_size`],
/// equality) read through the selection, so a selected batch is
/// indistinguishable from its eagerly-filtered equivalent. Rows are
/// physically moved only by [`RecordBatch::compacted`] (pipeline sinks:
/// hash-table build, sort buffer, exchange, final results), by
/// [`RecordBatch::take`], or when density drops below [`COMPACT_DENSITY`].
#[derive(Debug, Clone)]
pub struct RecordBatch {
    schema: SchemaRef,
    columns: Vec<Arc<ColumnData>>,
    /// Physical rows held by each column.
    rows: usize,
    /// Deferred filter: the logical view is the selected subsequence.
    selection: Option<Arc<SelectionVector>>,
}

impl RecordBatch {
    /// Builds a batch, validating column count, types, and equal lengths.
    pub fn new(schema: SchemaRef, columns: Vec<ColumnData>) -> Result<RecordBatch> {
        RecordBatch::from_arcs(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Builds a batch from already-shared columns (zero-copy: the batch
    /// holds references, not clones). Validation is identical to
    /// [`RecordBatch::new`].
    pub fn from_arcs(schema: SchemaRef, columns: Vec<Arc<ColumnData>>) -> Result<RecordBatch> {
        if columns.len() != schema.arity() {
            return Err(CiError::Exec(format!(
                "batch has {} columns, schema expects {}",
                columns.len(),
                schema.arity()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(CiError::Exec(format!(
                    "column {i} has {} rows, expected {rows}",
                    c.len()
                )));
            }
            if c.data_type() != schema.field(i).data_type {
                return Err(CiError::Exec(format!(
                    "column {i} is {}, schema field '{}' is {}",
                    c.data_type(),
                    schema.field(i).name,
                    schema.field(i).data_type
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            rows,
            selection: None,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: SchemaRef) -> RecordBatch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(ColumnData::empty(f.data_type)))
            .collect();
        RecordBatch {
            schema,
            columns,
            rows: 0,
            selection: None,
        }
    }

    /// The batch's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of *logical* rows: the selected count when a selection is
    /// attached, the physical count otherwise.
    pub fn rows(&self) -> usize {
        self.selection.as_ref().map_or(self.rows, |s| s.len())
    }

    /// Number of physical rows each column holds (`>= rows()`).
    pub fn physical_rows(&self) -> usize {
        self.rows
    }

    /// The deferred filter, when one is attached.
    pub fn selection(&self) -> Option<&SelectionVector> {
        self.selection.as_deref()
    }

    /// `true` when the batch holds no logical rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// The shared *physical* columns in schema order; when a selection is
    /// attached, readers must go through it (or [`RecordBatch::compacted`]).
    pub fn columns(&self) -> &[Arc<ColumnData>] {
        &self.columns
    }

    /// One physical column by index.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// Swaps in `col` for physical column `i`. The caller's invariant:
    /// `col` re-encodes that column — the same type and row count (as
    /// [`crate::table::Table::dict_encoded`]'s ids, one per old id) — so
    /// the batch keeps the shape [`RecordBatch::from_arcs`] checked.
    pub(crate) fn replace_column(&mut self, i: usize, col: Arc<ColumnData>) {
        let old = &self.columns[i];
        debug_assert_eq!((col.data_type(), col.len()), (old.data_type(), old.len()));
        self.columns[i] = col;
    }

    /// One full logical row as values (clones strings); for tests and
    /// result display.
    pub fn row(&self, i: usize) -> Vec<Value> {
        let phys = self.selection.as_ref().map_or(i, |s| s.physical(i));
        self.columns.iter().map(|c| c.value(phys)).collect()
    }

    /// Exact encoded payload size in bytes of the *logical* rows, so cost
    /// and billing accounting are identical whether a filter was
    /// materialized eagerly or deferred behind a selection.
    pub fn byte_size(&self) -> usize {
        match &self.selection {
            None => self.columns.iter().map(|c| c.byte_size()).sum(),
            Some(sel) => self.columns.iter().map(|c| c.byte_size_selected(sel)).sum(),
        }
    }

    /// The physical view: every column shared, no selection. Operators that
    /// iterate rows through [`RecordBatch::selection`] themselves (key
    /// encoders, accumulators) evaluate over this view to avoid gathers.
    pub fn unselected(&self) -> RecordBatch {
        RecordBatch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            rows: self.rows,
            selection: None,
        }
    }

    /// Materializes the selection (if any) into dense columns. This is the
    /// single point where deferred filters physically move rows; pipeline
    /// sinks call it (directly or via [`RecordBatch::concat`] /
    /// [`RecordBatch::take`]). Dense batches return a zero-copy clone.
    pub fn compacted(&self) -> RecordBatch {
        let Some(sel) = &self.selection else {
            return self.clone();
        };
        let columns: Vec<Arc<ColumnData>> = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(sel)))
            .collect();
        RecordBatch {
            schema: self.schema.clone(),
            columns,
            rows: sel.len(),
            selection: None,
        }
    }

    /// Attaches a selection over the current *logical* view (composing with
    /// any existing selection). Errors unless `sel.total()` equals
    /// [`RecordBatch::rows`]. Shares every column; applies the
    /// [`COMPACT_DENSITY`] heuristic like [`RecordBatch::filter`].
    pub fn select(&self, sel: SelectionVector) -> Result<RecordBatch> {
        if sel.total() != self.rows() {
            return Err(CiError::Exec(format!(
                "selection covers {} rows, batch has {}",
                sel.total(),
                self.rows()
            )));
        }
        let composed = match &self.selection {
            None => sel,
            Some(cur) => cur.compose(&sel)?,
        };
        Ok(self.with_composed_selection(composed))
    }

    /// Wraps a selection already expressed over *physical* rows, dropping it
    /// when full and compacting when sparse.
    fn with_composed_selection(&self, sel: SelectionVector) -> RecordBatch {
        if sel.is_full() {
            return self.unselected();
        }
        let sparse = sel.density() < COMPACT_DENSITY;
        let out = RecordBatch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            rows: self.rows,
            selection: Some(Arc::new(sel)),
        };
        if sparse {
            out.compacted()
        } else {
            out
        }
    }

    /// New batch keeping logical rows where `keep` is true. Zero column
    /// copies: composes the mask into the batch's selection (O(selected)),
    /// unless density falls below [`COMPACT_DENSITY`], in which case the
    /// survivors are compacted immediately.
    pub fn filter(&self, keep: &[bool]) -> Result<RecordBatch> {
        if keep.len() != self.rows() {
            return Err(CiError::Exec(format!(
                "filter mask has {} entries for {} rows",
                keep.len(),
                self.rows()
            )));
        }
        let sel = match &self.selection {
            None => SelectionVector::from_mask(keep),
            Some(cur) => cur.refine(keep)?,
        };
        Ok(self.with_composed_selection(sel))
    }

    /// New batch gathering the given *logical* row indices (indices may
    /// repeat and reorder, so the output is always dense). On a dense batch,
    /// bounds are validated inline during the first column's gather (single
    /// pass, erroring on the first bad index) and the remaining columns
    /// gather unchecked; on a selected batch, the indices are validated and
    /// mapped to physical rows up front, then every column gathers
    /// unchecked.
    pub fn take(&self, indices: &[usize]) -> Result<RecordBatch> {
        let rows = self.rows();
        if let Some(sel) = &self.selection {
            // Map logical indices to physical rows, then gather densely.
            if let Some(&bad) = indices.iter().find(|&&i| i >= rows) {
                return Err(CiError::Exec(format!(
                    "take index {bad} out of bounds for {rows} rows"
                )));
            }
            let phys: Vec<usize> = indices.iter().map(|&i| sel.physical(i)).collect();
            let columns: Vec<ColumnData> = self.columns.iter().map(|c| c.take(&phys)).collect();
            return RecordBatch::new(self.schema.clone(), columns);
        }
        let Some((first, rest)) = self.columns.split_first() else {
            // Zero-column batch: nothing to gather, but still validate.
            if let Some(&bad) = indices.iter().find(|&&i| i >= rows) {
                return Err(CiError::Exec(format!(
                    "take index {bad} out of bounds for {rows} rows"
                )));
            }
            return RecordBatch::new(self.schema.clone(), Vec::new());
        };
        let mut columns = Vec::with_capacity(self.columns.len());
        columns.push(first.try_take(indices)?);
        columns.extend(rest.iter().map(|c| c.take(indices)));
        RecordBatch::new(self.schema.clone(), columns)
    }

    /// New batch projecting columns by index; schema is re-derived, columns
    /// are shared, and any selection is carried over — projection never
    /// copies or compacts.
    pub fn project(&self, indices: &[usize]) -> Result<RecordBatch> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.columns.len()) {
            return Err(CiError::Exec(format!(
                "project index {bad} out of bounds for {} columns",
                self.columns.len()
            )));
        }
        let schema = Arc::new(self.schema.project(indices));
        let columns: Vec<Arc<ColumnData>> =
            indices.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(RecordBatch {
            schema,
            columns,
            rows: self.rows,
            selection: self.selection.clone(),
        })
    }

    /// Contiguous *logical* row slice `[offset, offset+len)`. A full-range
    /// slice is zero-copy (shares every column); on a selected batch every
    /// sub-range is also zero-copy (the selection is sliced instead);
    /// dense sub-ranges copy fixed-width payloads and dict ids only.
    pub fn slice(&self, offset: usize, len: usize) -> Result<RecordBatch> {
        let rows = self.rows();
        if offset + len > rows {
            return Err(CiError::Exec(format!(
                "slice [{offset}, {}) out of bounds for {rows} rows",
                offset + len
            )));
        }
        if offset == 0 && len == rows {
            return Ok(self.clone());
        }
        if let Some(sel) = &self.selection {
            return Ok(RecordBatch {
                schema: self.schema.clone(),
                columns: self.columns.clone(),
                rows: self.rows,
                selection: Some(Arc::new(sel.slice(offset, len))),
            });
        }
        let columns: Vec<ColumnData> = self.columns.iter().map(|c| c.slice(offset, len)).collect();
        RecordBatch::new(self.schema.clone(), columns)
    }

    /// Re-labels the batch under a new schema of identical arity and types
    /// (e.g. table schema → engine slot schema) without touching column data
    /// or the selection.
    pub fn with_schema(&self, schema: SchemaRef) -> Result<RecordBatch> {
        let relabeled = RecordBatch::from_arcs(schema, self.columns.clone())?;
        Ok(RecordBatch {
            selection: self.selection.clone(),
            ..relabeled
        })
    }

    /// Concatenates batches sharing one schema, compacting any deferred
    /// selections (concat feeds pipeline breakers — a materialization
    /// point). Errors on empty input or schema mismatch.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch> {
        let first = batches
            .first()
            .ok_or_else(|| CiError::Exec("concat of zero batches".into()))?;
        if batches.len() == 1 {
            return Ok(first.compacted());
        }
        // Seed with empty slices of the first batch's columns so dict
        // encodings (and their shared dictionary) survive concatenation.
        let mut columns: Vec<ColumnData> = first.columns.iter().map(|c| c.slice(0, 0)).collect();
        for b in batches {
            if b.schema.as_ref() != first.schema.as_ref() {
                return Err(CiError::Exec("concat schema mismatch".into()));
            }
            let dense = b.compacted();
            for (dst, src) in columns.iter_mut().zip(&dense.columns) {
                dst.extend_from(src)?;
            }
        }
        RecordBatch::new(first.schema.clone(), columns)
    }
}

/// Equality over the *logical* rows: a batch carrying a selection equals the
/// dense batch holding the rows the selection names. Keeps result comparison
/// (tests, the determinism oracle) independent of whether a plan path
/// materialized its filters eagerly or lazily.
impl PartialEq for RecordBatch {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema {
            return false;
        }
        match (&self.selection, &other.selection) {
            (None, None) => self.rows == other.rows && self.columns == other.columns,
            _ => {
                self.rows() == other.rows() && self.compacted().columns == other.compacted().columns
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]))
    }

    fn sample() -> RecordBatch {
        RecordBatch::new(
            schema(),
            vec![
                ColumnData::Int64(vec![1, 2, 3]),
                ColumnData::strings(["a", "b", "c"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        // Wrong arity.
        assert!(RecordBatch::new(schema(), vec![ColumnData::Int64(vec![1])]).is_err());
        // Ragged lengths.
        assert!(RecordBatch::new(
            schema(),
            vec![ColumnData::Int64(vec![1, 2]), ColumnData::strings(["a"])]
        )
        .is_err());
        // Type mismatch.
        assert!(RecordBatch::new(
            schema(),
            vec![ColumnData::Bool(vec![true]), ColumnData::strings(["a"])]
        )
        .is_err());
    }

    #[test]
    fn filter_take_slice() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.rows(), 2);
        assert_eq!(f.row(1), vec![Value::Int(3), Value::from("c")]);

        let t = b.take(&[2, 2, 0]).unwrap();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), vec![Value::Int(3), Value::from("c")]);
        assert!(b.take(&[9]).is_err());

        let s = b.slice(1, 2).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), vec![Value::Int(2), Value::from("b")]);
        assert!(b.slice(2, 5).is_err());
    }

    #[test]
    fn filter_defers_materialization() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        // The logical view is filtered...
        assert_eq!(f.rows(), 2);
        assert_eq!(f.physical_rows(), 3);
        assert_eq!(
            f.selection().unwrap().iter().collect::<Vec<_>>(),
            vec![0, 2]
        );
        // ...but every column is still shared, untouched.
        for i in 0..2 {
            assert!(Arc::ptr_eq(&f.columns()[i], &b.columns()[i]));
        }
        // Compaction materializes the eager equivalent.
        let dense = f.compacted();
        assert!(dense.selection().is_none());
        assert_eq!(dense.column(0), &ColumnData::Int64(vec![1, 3]));
        assert_eq!(f, dense, "selected and dense views are logically equal");
    }

    #[test]
    fn filter_on_selected_batch_composes_without_copies() {
        let b = sample();
        let once = b.filter(&[true, true, false]).unwrap();
        // Mask is over the *logical* rows (1, 2).
        let twice = once.filter(&[false, true]).unwrap();
        assert_eq!(twice.rows(), 1);
        assert_eq!(twice.row(0), vec![Value::Int(2), Value::from("b")]);
        for i in 0..2 {
            assert!(
                Arc::ptr_eq(&twice.columns()[i], &b.columns()[i]),
                "composed filter must not copy columns"
            );
        }
        // Fully-true masks drop the selection on a dense batch.
        assert!(b.filter(&[true; 3]).unwrap().selection().is_none());
    }

    #[test]
    fn sparse_filters_compact_eagerly() {
        let n = 64;
        let wide = Arc::new(Schema::of(vec![Field::new("x", DataType::Int64)]));
        let b = RecordBatch::new(wide, vec![ColumnData::Int64((0..n).collect())]).unwrap();
        // 2/64 survivors: below COMPACT_DENSITY, so the result is dense.
        let mut keep = vec![false; n as usize];
        keep[3] = true;
        keep[7] = true;
        let f = b.filter(&keep).unwrap();
        assert!(f.selection().is_none(), "sparse filter compacts");
        assert_eq!(f.column(0), &ColumnData::Int64(vec![3, 7]));
        // An all-false mask compacts to an empty dense batch.
        let none = b.filter(&vec![false; n as usize]).unwrap();
        assert!(none.is_empty() && none.selection().is_none());
    }

    #[test]
    fn selected_batch_accessors_read_through_selection() {
        let b = sample();
        let f = b.filter(&[false, true, true]).unwrap();
        assert_eq!(f.byte_size(), 16 + (1 + 4) * 2);
        assert_eq!(f.take(&[1, 0]).unwrap().row(0), b.row(2));
        assert!(f.take(&[2]).is_err(), "take bounds are logical");
        let s = f.slice(1, 1).unwrap();
        assert_eq!(s.rows(), 1);
        assert_eq!(s.row(0), vec![Value::Int(3), Value::from("c")]);
        assert!(
            Arc::ptr_eq(&s.columns()[0], &b.columns()[0]),
            "slicing a selected batch is zero-copy"
        );
        // Unselected view exposes the physical rows again.
        assert_eq!(f.unselected().rows(), 3);
    }

    #[test]
    fn select_composes_and_validates() {
        let b = sample();
        let f = b
            .select(SelectionVector::from_mask(&[true, false, true]))
            .unwrap();
        assert_eq!(f.rows(), 2);
        // A further selection is expressed over the logical view.
        let g = f
            .select(SelectionVector::from_mask(&[false, true]))
            .unwrap();
        assert_eq!(g.rows(), 1);
        assert_eq!(g.row(0), vec![Value::Int(3), Value::from("c")]);
        // Wrong cardinality is rejected.
        assert!(f.select(SelectionVector::from_mask(&[true])).is_err());
    }

    #[test]
    fn take_error_names_first_bad_index() {
        let err = sample().take(&[1, 5, 9]).unwrap_err().to_string();
        assert!(
            err.contains("take index 5 out of bounds for 3 rows"),
            "{err}"
        );
    }

    #[test]
    fn filter_mask_length_checked() {
        assert!(sample().filter(&[true]).is_err());
    }

    #[test]
    fn project_rederives_schema_and_shares_columns() {
        let b = sample();
        let p = b.project(&[1]).unwrap();
        assert_eq!(p.schema().arity(), 1);
        assert_eq!(p.schema().field(0).name, "name");
        assert!(Arc::ptr_eq(&p.columns()[0], &b.columns()[1]));
        assert!(sample().project(&[5]).is_err());
        // Projection carries the selection along, still zero-copy.
        let f = b.filter(&[true, false, true]).unwrap();
        let fp = f.project(&[0]).unwrap();
        assert_eq!(fp.rows(), 2);
        assert_eq!(fp.row(1), vec![Value::Int(3)]);
        assert!(Arc::ptr_eq(&fp.columns()[0], &b.columns()[0]));
    }

    #[test]
    fn full_slice_is_zero_copy() {
        let b = sample();
        let s = b.slice(0, 3).unwrap();
        assert!(Arc::ptr_eq(&s.columns()[0], &b.columns()[0]));
        assert!(Arc::ptr_eq(&s.columns()[1], &b.columns()[1]));
    }

    #[test]
    fn with_schema_relabels_without_copy() {
        let b = sample();
        let renamed = Arc::new(Schema::of(vec![
            Field::new("s0", DataType::Int64),
            Field::new("s1", DataType::Utf8),
        ]));
        let r = b.with_schema(renamed.clone()).unwrap();
        assert!(Arc::ptr_eq(&r.columns()[0], &b.columns()[0]));
        assert_eq!(r.schema().field(0).name, "s0");
        // Arity mismatch is rejected.
        let bad = Arc::new(Schema::of(vec![Field::new("x", DataType::Int64)]));
        assert!(b.with_schema(bad).is_err());
        // Selections survive relabeling.
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.with_schema(renamed).unwrap().rows(), 2);
    }

    #[test]
    fn concat_appends_rows() {
        let b = sample();
        let c = RecordBatch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.rows(), 6);
        assert_eq!(c.row(3), vec![Value::Int(1), Value::from("a")]);
        assert!(RecordBatch::concat(&[]).is_err());
        // Selected inputs are compacted, not concatenated physically.
        let f = b.filter(&[true, false, true]).unwrap();
        let fc = RecordBatch::concat(&[f.clone(), f]).unwrap();
        assert_eq!(fc.rows(), 4);
        assert_eq!(fc.column(0), &ColumnData::Int64(vec![1, 3, 1, 3]));
        assert!(fc.selection().is_none());
    }

    #[test]
    fn concat_preserves_dict_encoding() {
        let dicted = RecordBatch::new(
            schema(),
            vec![
                ColumnData::Int64(vec![1, 2, 3]),
                ColumnData::strings(["a", "b", "a"]),
            ],
        )
        .unwrap();
        let left = dicted.slice(0, 2).unwrap();
        let right = dicted.slice(2, 1).unwrap();
        let joined = RecordBatch::concat(&[left, right]).unwrap();
        let (ids, dict) = joined.column(1).as_dict().expect("still dict-encoded");
        assert_eq!(ids, &[0, 1, 0]);
        assert!(Arc::ptr_eq(dict, dicted.column(1).as_dict().unwrap().1));
    }

    #[test]
    fn empty_batch() {
        let e = RecordBatch::empty(schema());
        assert!(e.is_empty());
        assert_eq!(e.byte_size(), 0);
    }

    #[test]
    fn byte_size_counts_payload() {
        // ids: 3*8 = 24; names: (1+4)*3 = 15.
        assert_eq!(sample().byte_size(), 24 + 15);
    }
}
