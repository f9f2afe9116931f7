//! Batches read as one, and the row gather.
//!
//! [`Chunks`] holds the batches a pipeline breaker buffered (the hash-join
//! build, the sort) and names each of their rows by one `u32` *location*.
//! [`gather`] is the one per-type loop that copies rows by index: every
//! gather by row number or by location — [`ColumnData::gather`]'s scattered
//! rows, [`crate::RecordBatch::take`], the join's two sides and the sort's
//! output — runs it.

use std::sync::Arc;

use ci_types::{CiError, Result};

use crate::batch::RecordBatch;
use crate::column::ColumnData;
use crate::schema::SchemaRef;

/// Buffered batches, each a *chunk* whose rows are named by a location,
/// `chunk << shift | row`: a `u32` whose low `shift` bits hold any physical
/// row of the widest chunk (row `l & mask` of chunk `l >> shift`; a lone
/// chunk's locations are its rows). Locations ascend in arrival order, and
/// every location is below `u32::MAX`, which a caller may keep as a
/// sentinel.
///
/// [`Chunks::seal`] keeps the batches as they came — columns shared,
/// selections and all — unless they would not read as one: a batch whose
/// schema or string dictionaries are not the first's, or more chunks than
/// `u32` locations number. Those are first made one chunk by
/// [`RecordBatch::concat`]. So every chunk's column has the first chunk's
/// variant and dictionary, and a gather's dictionaries are the ones the
/// concatenated batches would have.
#[derive(Debug)]
pub struct Chunks {
    batches: Vec<RecordBatch>,
    shift: u32,
}

impl Chunks {
    /// Seals `batches` (no batch: one empty batch of `schema`). Errors when
    /// batches that must be concatenated do not share one schema, or when
    /// one chunk holds more rows than `u32` locations name.
    pub fn seal(schema: &SchemaRef, mut batches: Vec<RecordBatch>) -> Result<Chunks> {
        if batches.is_empty() {
            batches.push(RecordBatch::empty(schema.clone()));
        }
        let first = &batches[0];
        if !locatable(batches.len(), widest(&batches))
            || !batches.iter().all(|b| appends_as_is(first, b))
        {
            batches = vec![RecordBatch::concat(&batches)?];
            if !locatable(1, widest(&batches)) {
                return Err(CiError::Exec(format!(
                    "{} rows exceed the rows a u32 location names",
                    batches[0].physical_rows()
                )));
            }
        }
        let shift = row_bits(widest(&batches));
        Ok(Chunks { batches, shift })
    }

    /// The chunks, in arrival order.
    pub fn batches(&self) -> &[RecordBatch] {
        &self.batches
    }

    /// The location of physical row `row` of chunk `chunk`.
    #[inline]
    pub fn location(&self, chunk: usize, row: usize) -> u32 {
        // Fits: `seal` keeps every location below `u32::MAX`.
        ((chunk as u64) << self.shift | row as u64) as u32
    }

    /// Every column's rows at `locations`, in order (locations may repeat).
    pub fn gather(&self, locations: &[u32]) -> Vec<Arc<ColumnData>> {
        let arity = self.batches[0].columns().len();
        (0..arity)
            .map(|col| {
                let parts: Vec<&ColumnData> = self.batches.iter().map(|b| b.column(col)).collect();
                Arc::new(gather(&parts, locations, self.shift))
            })
            .collect()
    }
}

/// Physical rows of the widest of `batches`.
fn widest(batches: &[RecordBatch]) -> usize {
    batches
        .iter()
        .map(RecordBatch::physical_rows)
        .max()
        .unwrap_or(0)
}

/// Row bits a location needs for every row of a chunk of `widest` rows.
fn row_bits(widest: usize) -> u32 {
    usize::BITS - widest.saturating_sub(1).leading_zeros()
}

/// Whether every location of `chunks` chunks of at most `widest` rows is a
/// `u32` below `u32::MAX`. One chunk's locations are its rows.
fn locatable(chunks: usize, widest: usize) -> bool {
    match chunks {
        0 | 1 => widest <= u32::MAX as usize,
        _ => {
            let shift = row_bits(widest);
            shift < 32 && (chunks as u128) << shift <= u128::from(u32::MAX)
        }
    }
}

/// Whether `batch`'s columns append to `first`'s as they are: the same
/// schema (so the same column variants) and dictionaries.
fn appends_as_is(first: &RecordBatch, batch: &RecordBatch) -> bool {
    first.schema() == batch.schema()
        && (first.columns().iter().zip(batch.columns())).all(|(a, b)| {
            match (a.as_dict(), b.as_dict()) {
                (Some((_, x)), Some((_, y))) => Arc::ptr_eq(x, y),
                _ => true,
            }
        })
}

/// The values at `locations` of one column held in `parts`, in order: row
/// `l & mask` of part `l >> shift`, or row `l` of a lone part. Every part
/// has the first part's variant and dictionary (a sealed [`Chunks`] column,
/// or one column alone), and the gathered column keeps both.
///
/// # Panics
///
/// On a location past its part, or a part of another variant: callers
/// name only rows they hold.
pub(crate) fn gather(parts: &[&ColumnData], locations: &[u32], shift: u32) -> ColumnData {
    fn pick<'a, T: Copy + 'a>(
        parts: &[&'a ColumnData],
        locations: &[u32],
        shift: u32,
        values: impl Fn(&'a ColumnData) -> Option<&'a [T]>,
    ) -> Vec<T> {
        let values = |c| values(c).expect("parts share one column variant");
        if let [only] = parts {
            let only = values(only);
            return locations.iter().map(|&l| only[l as usize]).collect();
        }
        // Two parts or more leave `shift` at most 31 (`locatable`).
        let parts: Vec<&[T]> = parts.iter().map(|&c| values(c)).collect();
        let mask = (1 << shift) - 1;
        (locations.iter())
            .map(|&l| parts[(l >> shift) as usize][(l & mask) as usize])
            .collect()
    }
    match parts[0] {
        ColumnData::Int64(_) => {
            ColumnData::Int64(pick(parts, locations, shift, |c| c.as_i64().ok()))
        }
        ColumnData::Float64(_) => {
            ColumnData::Float64(pick(parts, locations, shift, |c| c.as_f64().ok()))
        }
        ColumnData::Bool(_) => {
            ColumnData::Bool(pick(parts, locations, shift, |c| c.as_bool().ok()))
        }
        ColumnData::Dict { dict, .. } => ColumnData::Dict {
            ids: pick(parts, locations, shift, |c| c.as_dict().map(|(ids, _)| ids)),
            dict: dict.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::Dictionary;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn schema() -> SchemaRef {
        Arc::new(Schema::of(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ]))
    }

    fn batch(keys: Vec<i64>, strings: ColumnData) -> RecordBatch {
        RecordBatch::new(schema(), vec![ColumnData::Int64(keys), strings]).unwrap()
    }

    /// Every logical row of `batches`, in order.
    fn rows_of(batches: &[RecordBatch]) -> Vec<Vec<Value>> {
        let rows = |b: &RecordBatch| (0..b.rows()).map(|r| b.row(r)).collect::<Vec<_>>();
        batches.iter().flat_map(rows).collect()
    }

    /// The gather of every logical row of `chunks`, in arrival order.
    fn gathered(chunks: &Chunks) -> RecordBatch {
        let locations: Vec<u32> = (chunks.batches().iter().enumerate())
            .flat_map(|(c, b)| {
                let rows: Vec<usize> = match b.selection() {
                    Some(sel) => sel.iter().collect(),
                    None => (0..b.rows()).collect(),
                };
                rows.into_iter().map(move |r| (c, r))
            })
            .map(|(c, r)| chunks.location(c, r))
            .collect();
        RecordBatch::from_arcs(schema(), chunks.gather(&locations)).unwrap()
    }

    #[test]
    fn locations_pack_at_their_edges() {
        // The widest chunk sets the row bits: 2^k rows need k, 2^k + 1 need
        // k + 1.
        for k in [0u32, 1, 4, 10] {
            let wide = 1usize << k;
            assert_eq!(row_bits(wide.max(3)), k.max(2));
            assert_eq!(row_bits(wide + 1), k + 1);
        }
        assert_eq!(row_bits(0), 0);
        // Chunks × 2^shift must stay below 2^32: the top `u32` is no row.
        // One chunk's locations are its rows.
        let max = u32::MAX as usize;
        assert!(locatable(1, max) && locatable(2, 1 << 30) && locatable((1 << 16) - 1, 1 << 16));
        assert!(!locatable(1, max + 1) && !locatable(2, 1 << 31) && !locatable(1 << 16, 1 << 16));
        assert!(!locatable(2, max));
    }

    #[test]
    fn shared_dictionaries_stay_chunks_and_gather_across_them() {
        let whole = batch(
            (0..7).collect(),
            ColumnData::strings(["a", "b", "c", "a", "d", "b", "e"]),
        );
        // A selected chunk keeps its selection; a location names its
        // physical row.
        let first = whole.slice(0, 5).unwrap();
        let first = first.filter(&[true, false, true, true, false]).unwrap();
        let second = whole.slice(5, 2).unwrap();
        let parts = vec![first.clone(), second.clone(), first.clone()];
        let chunks = Chunks::seal(&schema(), parts.clone()).unwrap();
        assert_eq!(chunks.batches().len(), 3);
        assert!(chunks.batches()[0].selection().is_some());
        assert_eq!((chunks.location(0, 4), chunks.location(2, 1)), (4, 17));
        let out = gathered(&chunks);
        assert_eq!(rows_of(std::slice::from_ref(&out)), rows_of(&parts));
        let dict = whole.column(1).as_dict().unwrap().1;
        assert!(Arc::ptr_eq(out.column(1).as_dict().unwrap().1, dict));
        // Locations may repeat and come in any order.
        let cols = chunks.gather(&[chunks.location(1, 1), 0, chunks.location(1, 1)]);
        assert_eq!(*cols[0], ColumnData::Int64(vec![6, 0, 6]));
        assert_eq!(*cols[1], ColumnData::strings(["e", "a", "e"]));
    }

    #[test]
    fn foreign_dictionaries_and_too_many_chunks_seal_as_one() {
        // The same strings over a dictionary that first interns decoys.
        let mut dict = Dictionary::new();
        for s in ["zz", "y", "x"] {
            dict.intern(s);
        }
        let ids = ["x", "y"].iter().map(|s| dict.intern(s)).collect();
        let foreign = ColumnData::Dict {
            ids,
            dict: Arc::new(dict),
        };
        let parts = vec![
            batch(vec![1, 2, 3], ColumnData::strings(["a", "b", "a"]))
                .filter(&[true, false, true])
                .unwrap(),
            batch(vec![4, 5], foreign),
        ];
        let chunks = Chunks::seal(&schema(), parts.clone()).unwrap();
        assert_eq!(chunks.batches().len(), 1);
        let concat = RecordBatch::concat(&parts).unwrap();
        let out = gathered(&chunks);
        assert_eq!(out, concat);
        assert_eq!(
            out.column(1).as_dict().unwrap().1.as_ref(),
            concat.column(1).as_dict().unwrap().1.as_ref(),
            "the concat's dictionary"
        );
        // A 2^16-row chunk leaves 16 bits to number chunks: 2^16 more
        // one-row chunks are too many.
        let wide = 1usize << 16;
        let names = (0..2 * wide).map(|r| format!("s{}", r % 7));
        let all = batch((0..2 * wide as i64).collect(), ColumnData::strings(names));
        let mut parts = vec![all.slice(0, wide).unwrap()];
        parts.extend((wide..2 * wide).map(|r| all.slice(r, 1).unwrap()));
        let two = Chunks::seal(&schema(), parts[..2].to_vec()).unwrap();
        assert_eq!(two.batches().len(), 2);
        let chunks = Chunks::seal(&schema(), parts).unwrap();
        assert_eq!(chunks.batches().len(), 1);
        assert_eq!(gathered(&chunks), all);
        // No batch at all: one empty chunk.
        let empty = Chunks::seal(&schema(), Vec::new()).unwrap();
        assert_eq!(empty.batches().len(), 1);
        assert!(gathered(&empty).is_empty());
    }
}
