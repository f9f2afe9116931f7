//! Property tests: the hash join must agree with a nested-loop reference
//! and hash aggregation with a linear-scan reference on arbitrary data — the
//! engine's correctness anchor, since every experiment trusts its true
//! cardinalities. Both references also pin the output *order* (probe order
//! then ascending build row; groups by first appearance): shipped bytes and
//! therefore bills depend on it.

use std::sync::Arc;

use ci_exec::operators::{AggregateState, JoinHashTable};
use ci_plan::expr::{AggExpr, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::value::{DataType, Value};
use ci_types::Result;
use proptest::prelude::*;

/// The key layouts the encoder treats differently.
#[derive(Clone, Copy, Debug)]
enum KeyShape {
    /// One int column: the inline fast path.
    Int,
    /// Int + dict-encoded string; every batch built here interns its own
    /// dictionary, so the other side's is always foreign.
    IntDict,
    /// Raw strings: always the boxed form.
    RawUtf8,
    /// Five int columns: past `MAX_INLINE_PARTS`, always boxed.
    Wide,
}

const SHAPES: [KeyShape; 4] = [
    KeyShape::Int,
    KeyShape::IntDict,
    KeyShape::RawUtf8,
    KeyShape::Wide,
];

/// A generated row before its key shape is chosen: an int and the index of
/// a pooled string.
type RawRow = (i64, usize);

fn key_types(shape: KeyShape) -> Vec<DataType> {
    match shape {
        KeyShape::Int => vec![DataType::Int64],
        KeyShape::IntDict => vec![DataType::Int64, DataType::Utf8],
        KeyShape::RawUtf8 => vec![DataType::Utf8],
        KeyShape::Wide => vec![DataType::Int64; 5],
    }
}

/// The key of `row` as values — what the references compare.
fn key_values(shape: KeyShape, (a, s): RawRow) -> Vec<Value> {
    let text = Value::Str(format!("v{s}"));
    match shape {
        KeyShape::Int => vec![Value::Int(a)],
        KeyShape::IntDict => vec![Value::Int(a), text],
        KeyShape::RawUtf8 => vec![text],
        KeyShape::Wide => [a, s as i64, a & 1, -a, a + s as i64]
            .map(Value::Int)
            .to_vec(),
    }
}

/// A batch of `rows` under `shape`: the key columns, then `payload`.
fn table(shape: KeyShape, rows: &[RawRow], payload: &[i64]) -> RecordBatch {
    let types = key_types(shape);
    let mut columns: Vec<ColumnData> = types
        .iter()
        .map(|&t| ColumnData::with_capacity(t, rows.len()))
        .collect();
    for &row in rows {
        for (col, v) in columns.iter_mut().zip(key_values(shape, row)) {
            col.push(v).expect("typed push");
        }
    }
    if matches!(shape, KeyShape::IntDict) {
        columns[1] = columns[1].dict_encoded();
    }
    columns.push(ColumnData::Int64(payload.to_vec()));
    let fields = types
        .iter()
        .chain([&DataType::Int64])
        .enumerate()
        .map(|(i, &t)| Field::new(format!("s{i}"), t))
        .collect();
    RecordBatch::new(Arc::new(Schema::of(fields)), columns).expect("batch")
}

/// `rows` cut into consecutive pieces whose lengths cycle through `lens`.
fn cut<'a, T>(rows: &'a [T], lens: &[usize]) -> Vec<&'a [T]> {
    let mut pieces = Vec::new();
    let mut rest = rows;
    for &len in lens.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(len.min(rest.len()));
        pieces.push(piece);
        rest = tail;
    }
    pieces
}

fn batch_of(keys: Vec<i64>) -> RecordBatch {
    let schema = Arc::new(Schema::of(vec![
        Field::new("k", DataType::Int64),
        Field::new("tag", DataType::Int64),
    ]));
    let n = keys.len() as i64;
    RecordBatch::new(
        schema,
        vec![ColumnData::Int64(keys), ColumnData::Int64((0..n).collect())],
    )
    .expect("batch")
}

proptest! {
    #[test]
    fn hash_join_equals_nested_loop(
        build_keys in proptest::collection::vec(-8i64..8, 0..60),
        probe_keys in proptest::collection::vec(-8i64..8, 0..60),
        morsel in 1usize..16,
    ) {
        let build = batch_of(build_keys.clone());
        let probe = batch_of(probe_keys.clone());

        let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
        // Stream the build side in morsels of arbitrary size.
        let mut off = 0;
        while off < build.rows() {
            let len = morsel.min(build.rows() - off);
            ht.insert_batch(build.slice(off, len).expect("slice")).expect("insert");
            off += len;
        }
        ht.finalize().expect("finalize");

        let out_schema = Arc::new(Schema::of(vec![
            Field::new("pk", DataType::Int64),
            Field::new("ptag", DataType::Int64),
            Field::new("bk", DataType::Int64),
            Field::new("btag", DataType::Int64),
        ]));
        let joined = ht.probe(&probe, &[0], out_schema).expect("probe");

        // Nested-loop reference: multiset of (probe_tag, build_tag) pairs.
        let mut expected: Vec<(i64, i64)> = Vec::new();
        for (pi, pk) in probe_keys.iter().enumerate() {
            for (bi, bk) in build_keys.iter().enumerate() {
                if pk == bk {
                    expected.push((pi as i64, bi as i64));
                }
            }
        }
        let mut got: Vec<(i64, i64)> = (0..joined.rows())
            .map(|r| {
                let ptag = joined.column(1).as_i64().expect("ints")[r];
                let btag = joined.column(3).as_i64().expect("ints")[r];
                (ptag, btag)
            })
            .collect();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);

        // Join keys equal on every output row.
        for r in 0..joined.rows() {
            prop_assert_eq!(
                joined.column(0).as_i64().expect("ints")[r],
                joined.column(2).as_i64().expect("ints")[r]
            );
        }
    }
}

proptest! {
    /// The join output *sequence* is the nested loop's — probe rows in
    /// order (through a selection), each with its matches in ascending build
    /// row — for every key shape, duplicate-heavy and all-distinct build
    /// sides, and any build morsel sizes.
    #[test]
    fn join_sequence_equals_nested_loop_for_every_key_shape(
        build_rows in proptest::collection::vec((-8i64..8, 0usize..4), 0..60),
        probe_rows in proptest::collection::vec((-8i64..8, 0usize..6), 0..60),
        keep in proptest::collection::vec(any::<bool>(), 60),
        morsels in proptest::collection::vec(1usize..16, 1..6),
        build_mode in 0usize..3,
    ) {
        let build_rows: Vec<RawRow> = match build_mode {
            // As drawn: a few rows per key.
            0 => build_rows,
            // Duplicate-heavy: two distinct keys.
            1 => build_rows.iter().map(|&(a, _)| (a & 1, 0)).collect(),
            // All distinct.
            _ => (0..build_rows.len()).map(|i| (i as i64, i % 4)).collect(),
        };
        let keep = &keep[..probe_rows.len()];
        for shape in SHAPES {
            let key_positions: Vec<usize> = (0..key_types(shape).len()).collect();
            let tag_position = key_positions.len();
            let tags = |n: usize| (0..n as i64).collect::<Vec<i64>>();
            let build = table(shape, &build_rows, &tags(build_rows.len()));
            let probe = table(shape, &probe_rows, &tags(probe_rows.len()))
                .filter(keep)
                .expect("filter");

            let mut ht = JoinHashTable::new(build.schema().clone(), key_positions.clone());
            let mut off = 0;
            for piece in cut(&build_rows, &morsels) {
                ht.insert_batch(build.slice(off, piece.len()).expect("slice")).expect("insert");
                off += piece.len();
            }
            ht.finalize().expect("finalize");

            let out_fields = probe
                .schema()
                .fields()
                .iter()
                .chain(build.schema().fields())
                .enumerate()
                .map(|(i, f)| Field::new(format!("o{i}"), f.data_type))
                .collect();
            let joined = ht
                .probe(&probe, &key_positions, Arc::new(Schema::of(out_fields)))
                .expect("probe");

            let mut expected: Vec<(i64, i64)> = Vec::new();
            for (pi, &p) in probe_rows.iter().enumerate().filter(|&(pi, _)| keep[pi]) {
                for (bi, &b) in build_rows.iter().enumerate() {
                    if key_values(shape, p) == key_values(shape, b) {
                        expected.push((pi as i64, bi as i64));
                    }
                }
            }
            let ptags = joined.column(tag_position).as_i64().expect("ints");
            let btags = joined.column(2 * tag_position + 1).as_i64().expect("ints");
            let got: Vec<(i64, i64)> = ptags.iter().copied().zip(btags.iter().copied()).collect();
            prop_assert_eq!(got, expected, "{:?}, build mode {}", shape, build_mode);
        }
    }

    /// Groups come out in first-appearance order with the scan reference's
    /// aggregates when morsels fold in sequence — for every key shape, with
    /// every morsel carrying its own dictionary.
    #[test]
    fn aggregation_equals_scan_oracle(
        rows in proptest::collection::vec((-3i64..3, 0usize..5), 0..80),
        values in proptest::collection::vec(-50i64..50, 80),
        morsels in proptest::collection::vec(1usize..12, 1..6),
    ) {
        let values = &values[..rows.len()];
        for shape in SHAPES {
            let types = key_types(shape);
            let g = types.len();
            let slot_types: Vec<DataType> =
                types.iter().copied().chain([DataType::Int64]).collect();
            let out_fields = types
                .iter()
                .copied()
                .chain([DataType::Int64; 4])
                .enumerate()
                .map(|(i, t)| Field::new(format!("o{i}"), t))
                .collect();
            let out_schema = Arc::new(Schema::of(out_fields));
            let agg = |func, arg: Option<usize>| AggExpr {
                func,
                arg: arg.map(PlanExpr::Col),
                distinct: false,
            };
            let in_types = |slot: usize| -> Result<DataType> { Ok(slot_types[slot]) };
            let mut state = AggregateState::new(
                (0..g).map(PlanExpr::Col).collect(),
                vec![
                    agg(AggFunc::Count, None),
                    agg(AggFunc::Sum, Some(g)),
                    agg(AggFunc::Min, Some(g)),
                    agg(AggFunc::Max, Some(g)),
                ],
                ColMap::from_slots(&(0..=g).collect::<Vec<_>>()),
                &in_types,
                out_schema,
            )
            .expect("state");
            // One batch per morsel, each interning its own dictionary.
            let batches: Vec<RecordBatch> = cut(&rows, &morsels)
                .into_iter()
                .zip(cut(values, &morsels))
                .map(|(r, v)| table(shape, r, v))
                .collect();

            for b in &batches {
                state.update(b).expect("update");
            }

            // (key, count, sum, min, max) in first-appearance order.
            let mut oracle: Vec<(Vec<Value>, i64, i64, i64, i64)> = Vec::new();
            for (&row, &v) in rows.iter().zip(values) {
                let key = key_values(shape, row);
                match oracle.iter_mut().find(|group| group.0 == key) {
                    Some(group) => {
                        group.1 += 1;
                        group.2 += v;
                        group.3 = group.3.min(v);
                        group.4 = group.4.max(v);
                    }
                    None => oracle.push((key, 1, v, v, v)),
                }
            }
            let expected: Vec<Vec<Value>> = oracle
                .into_iter()
                .map(|(key, count, sum, min, max)| {
                    key.into_iter()
                        .chain([count, sum, min, max].map(Value::Int))
                        .collect()
                })
                .collect();
            prop_assert_eq!(state.group_count(), expected.len());
            let out = state.finalize().expect("finalize");
            let got: Vec<Vec<Value>> = (0..out.rows()).map(|r| out.row(r)).collect();
            prop_assert_eq!(&got, &expected, "{:?}", shape);
        }
    }
}
