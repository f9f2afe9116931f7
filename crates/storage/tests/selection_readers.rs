//! Property tests: every reader of a selection reads exactly the rows a
//! naive `filter`-`collect` index list names.
//!
//! A selection is stored as a range run or as sorted `u32` indices, and
//! readers walk the two shapes differently (a sub-slice, an index slice).
//! Here each reader — `gather`, `byte_size_selected`, `RecordBatch::take`,
//! a `Chunks` gather over several selected parts, the wire sketch and
//! encoder, and `RowSet`'s rows — is compared with the same computation over
//! columns read value by value at the naive index list, for every column
//! type and for empty, full, single-row, edge-row, range and scattered
//! selections.

use std::sync::Arc;

use ci_storage::column::ColumnData;
use ci_storage::pages::{WireEncoder, WireSketch};
use ci_storage::schema::{Field, Schema};
use ci_storage::{Chunks, RecordBatch, RowSet, SelectionVector};
use proptest::prelude::*;

const INTS: [i64; 7] = [i64::MIN, -3, 0, 1, 1, 42, i64::MAX];
const FLOATS: [f64; 8] = [
    f64::NAN,
    f64::NEG_INFINITY,
    f64::INFINITY,
    0.0,
    -0.0,
    1.5,
    1.5,
    -2.25,
];
const STRS: [&str; 4] = ["", "a", "bb", "a longer string"];

/// One generated row: an int, a float, a bool, a string index and the coin
/// that decides whether the scattered selection keeps it.
type Row = (i64, f64, bool, usize, bool);

fn rows() -> impl Strategy<Value = Vec<Row>> {
    let row = (
        select(INTS.to_vec()),
        select(FLOATS.to_vec()),
        any::<bool>(),
        0usize..STRS.len(),
        any::<bool>(),
    );
    proptest::collection::vec(row, 0..120)
}

/// One column of every type over `rows`.
fn dense(rows: &[Row]) -> RecordBatch {
    let columns = vec![
        ColumnData::Int64(rows.iter().map(|r| r.0).collect()),
        ColumnData::Float64(rows.iter().map(|r| r.1).collect()),
        ColumnData::Bool(rows.iter().map(|r| r.2).collect()),
        ColumnData::strings(rows.iter().map(|r| STRS[r.3])),
    ];
    let fields = (columns.iter().enumerate())
        .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
        .collect();
    RecordBatch::new(Arc::new(Schema::of(fields)), columns).unwrap()
}

/// The selection masks over `n` rows: empty, full, the single row `at`,
/// the first and last rows, the run `[at, at + len)`, and the rows whose
/// coin is set.
fn masks(rows: &[Row], at: usize, len: usize) -> Vec<Vec<bool>> {
    let n = rows.len();
    let at = at % (n + 1);
    let len = len % (n - at + 1);
    vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i == at).collect(),
        (0..n).map(|i| i == 0 || i + 1 == n).collect(),
        (0..n).map(|i| (at..at + len).contains(&i)).collect(),
        rows.iter().map(|r| r.4).collect(),
    ]
}

/// `col`'s rows at `indices`, read value by value: the oracle every gather
/// is compared with. It starts from an empty slice of `col`, so a string
/// column interns into a copy of `col`'s dictionary: the same entries and
/// ids, which the wire blobs ship.
fn values_at(col: &ColumnData, indices: &[usize]) -> ColumnData {
    let mut out = col.slice(0, 0);
    for &i in indices {
        out.push(col.value(i)).unwrap();
    }
    out
}

/// [`values_at`] for every column of `batch`.
fn rows_at(batch: &RecordBatch, indices: &[usize]) -> RecordBatch {
    let columns = (batch.columns().iter())
        .map(|c| values_at(c, indices))
        .collect();
    RecordBatch::new(batch.schema().clone(), columns).unwrap()
}

/// Floats by bit pattern, so NaN and -0.0 compare as stored.
fn bits(col: &ColumnData) -> ColumnData {
    match col {
        ColumnData::Float64(v) => ColumnData::Int64(v.iter().map(|x| x.to_bits() as i64).collect()),
        other => other.clone(),
    }
}

/// The wire sketch's size and the encoded blobs of `batch` as the first
/// batch of a fresh stream.
fn wire(batch: &RecordBatch) -> (u64, Vec<Vec<u8>>) {
    let sketch = WireSketch::of(batch);
    let bytes = WireEncoder::new()
        .sketched_wire_bytes(batch, &sketch)
        .unwrap();
    let blobs = WireEncoder::new().encode_sketched(batch, &sketch).unwrap();
    (bytes, blobs)
}

proptest! {
    #[test]
    fn selection_readers_match_a_naive_index_list(
        rows in rows(),
        run in (0usize..1000, 0usize..1000)
    ) {
        let batch = dense(&rows);
        for mask in masks(&rows, run.0, run.1) {
            let naive: Vec<usize> = (0..rows.len()).filter(|&i| mask[i]).collect();
            let sel = SelectionVector::from_mask(&mask);
            prop_assert_eq!(sel.rows().iter().collect::<Vec<_>>(), naive.clone());
            prop_assert_eq!(sel.rows().len(), naive.len());
            let picked: Vec<u32> = naive.iter().map(|&i| i as u32).collect();
            match sel.rows() {
                RowSet::Range(r) => prop_assert_eq!(r.collect::<Vec<_>>(), naive.clone()),
                RowSet::Picked(p) => prop_assert_eq!(p, &picked[..]),
            }
            for col in batch.columns() {
                let want = values_at(col, &naive);
                prop_assert_eq!(bits(&col.gather(&sel)), bits(&want));
                prop_assert_eq!(col.byte_size_selected(&sel), want.byte_size());
            }

            // A batch carrying the selection (kept, dropped when full or
            // compacted when sparse) against the rows read one by one.
            let selected = batch.select(sel.clone()).unwrap();
            let want = rows_at(&batch, &naive);
            prop_assert_eq!(selected.byte_size(), want.byte_size());
            prop_assert_eq!(wire(&selected), wire(&want));
            let taken = selected.take(&(0..naive.len()).rev().collect::<Vec<_>>()).unwrap();
            let reversed: Vec<usize> = naive.iter().rev().copied().collect();
            for (got, want) in taken.columns().iter().zip(rows_at(&batch, &reversed).columns()) {
                prop_assert_eq!(bits(got), bits(want));
            }

            // The rows split in three parts sharing one dictionary, each
            // carrying its share of the selection, gathered through `Chunks`
            // locations in reverse.
            let n = rows.len();
            let cuts = [0, n / 3, 2 * n / 3, n];
            let parts = cuts.windows(2).map(|w| {
                batch.slice(w[0], w[1] - w[0]).unwrap().filter(&mask[w[0]..w[1]]).unwrap()
            });
            let chunks = Chunks::seal(batch.schema(), parts.collect()).unwrap();
            prop_assert_eq!(chunks.batches().len(), 3);
            let mut locations = Vec::new();
            for (c, part) in chunks.batches().iter().enumerate() {
                locations.extend(RowSet::of(part).iter().map(|r| chunks.location(c, r)));
            }
            locations.reverse();
            for (got, col) in chunks.gather(&locations).iter().zip(batch.columns()) {
                prop_assert_eq!(bits(got), bits(&values_at(col, &reversed)));
            }
            let of_batch: Vec<usize> = RowSet::of(&selected).iter().collect();
            prop_assert_eq!(of_batch.len(), naive.len());
            for (c, col) in selected.columns().iter().enumerate() {
                let read: Vec<_> = of_batch.iter().map(|&p| col.value(p)).collect();
                let want: Vec<_> = naive.iter().map(|&p| batch.column(c).value(p)).collect();
                prop_assert_eq!(format!("{read:?}"), format!("{want:?}"));
            }
        }
        let all = RowSet::of_selection(None, rows.len());
        prop_assert_eq!(all.iter().collect::<Vec<_>>(), (0..rows.len()).collect::<Vec<_>>());
    }
}
