//! Property tests: the hash join must agree with a nested-loop reference
//! and hash aggregation with a linear-scan reference on arbitrary data — the
//! engine's correctness anchor, since every experiment trusts its true
//! cardinalities. Both references also pin the output *order* (probe order
//! then ascending build row; groups by first appearance): shipped bytes and
//! therefore bills depend on it.

use std::collections::HashMap;
use std::sync::Arc;

use ci_exec::operators::{AggregateState, JoinHashTable};
use ci_exec::{KeyEncoder, KeyIndex};
use ci_plan::expr::{AggExpr, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::schema::{Field, Schema};
use ci_storage::value::{DataType, Value};
use ci_storage::RowSet;
use ci_types::Result;
use proptest::prelude::*;

/// `col`'s strings over a *foreign* dictionary: one that first interns
/// decoys and the strings in reverse, so its ids differ from a fresh
/// dictionary's and it holds entries no row references. Other columns are
/// returned as they are.
fn foreign(col: ColumnData) -> ColumnData {
    let Some((ids, dict)) = col.as_dict() else {
        return col;
    };
    let mut other = Dictionary::new();
    let vals = ids.iter().map(|&id| dict.get(id));
    for s in ["zz-decoy", "aa-decoy"]
        .into_iter()
        .chain(vals.clone().rev())
    {
        other.intern(s);
    }
    let ids = vals.map(|s| other.intern(s)).collect();
    ColumnData::Dict {
        ids,
        dict: Arc::new(other),
    }
}

/// The key layouts the encoder and index treat differently.
#[derive(Clone, Copy, Debug)]
enum KeyShape {
    /// One int column: the one-word fast path.
    Int,
    /// Int + dict-encoded string; every batch built here interns its own
    /// dictionary, so the other side's is always foreign.
    IntDict,
    /// Strings over a foreign dictionary in every batch: sparse ids, and
    /// unreferenced entries on both sides.
    Foreign,
    /// Five int columns: one word past the widest `const N` probe.
    Wide,
    /// Eight columns — ints, a fresh-dictionary string (column 1) and a
    /// foreign-dictionary string (column 5) — whose first four agree on many
    /// rows that differ later.
    Wide8,
}

const SHAPES: [KeyShape; 5] = [
    KeyShape::Int,
    KeyShape::IntDict,
    KeyShape::Foreign,
    KeyShape::Wide,
    KeyShape::Wide8,
];

/// A generated row before its key shape is chosen: an int and the index of
/// a pooled string.
type RawRow = (i64, usize);

fn key_types(shape: KeyShape) -> Vec<DataType> {
    match shape {
        KeyShape::Int => vec![DataType::Int64],
        KeyShape::IntDict => vec![DataType::Int64, DataType::Utf8],
        KeyShape::Foreign => vec![DataType::Utf8],
        KeyShape::Wide => vec![DataType::Int64; 5],
        KeyShape::Wide8 => {
            use DataType::{Int64, Utf8};
            vec![Int64, Utf8, Int64, Int64, Int64, Utf8, Int64, Int64]
        }
    }
}

/// The key of `row` as values — what the references compare.
fn key_values(shape: KeyShape, (a, s): RawRow) -> Vec<Value> {
    let text = Value::Str(format!("v{s}"));
    match shape {
        KeyShape::Int => vec![Value::Int(a)],
        KeyShape::IntDict => vec![Value::Int(a), text],
        KeyShape::Foreign => vec![text],
        KeyShape::Wide => [a, s as i64, a & 1, -a, a + s as i64]
            .map(Value::Int)
            .to_vec(),
        KeyShape::Wide8 => {
            let int = |x: i64| Value::Int(x);
            let low = Value::Str(format!("v{}", s & 1));
            let (a2, s) = (a.rem_euclid(2), s as i64);
            vec![
                int(a2),
                low,
                int(a2 * 3),
                int(-a2),
                int(a),
                text,
                int(s),
                int(a - s),
            ]
        }
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
    let foreign_at = match shape {
        KeyShape::Foreign => Some(0),
        KeyShape::Wide8 => Some(5),
        _ => None,
    };
    if let Some(c) = foreign_at {
        columns[c] = foreign(columns[c].clone());
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

// The seams under the properties above — batch key encoder → word-keyed
// `KeyIndex` → per-aggregate folds. Each case names a mutation it was seen
// to fail under.

/// How a batch column reaches the encoder, one per `ColPlan` variant (and
/// the column no plan fits). The strings the encoder's own dictionary holds
/// are `v0`..`v3`; batches draw from `v0`..`v5`.
#[derive(Clone, Copy, Debug)]
enum ColKind {
    I64,
    F64,
    Bool,
    /// A dict column sharing the encoder's dictionary.
    Ids,
    /// A dict column with its own dictionary: `v4`, `v5` are outside the
    /// encoder's.
    Translated,
    /// A dict column over a foreign dictionary (decoys, unreferenced
    /// entries, another order): `v4`, `v5` are outside the encoder's.
    Foreign,
    /// A float column where the encoder expects ints.
    Mismatch,
}

const COL_KINDS: [ColKind; 7] = [
    ColKind::I64,
    ColKind::F64,
    ColKind::Bool,
    ColKind::Ids,
    ColKind::Translated,
    ColKind::Foreign,
    ColKind::Mismatch,
];

fn strings(indices: impl Iterator<Item = usize>) -> ColumnData {
    ColumnData::strings(indices.map(|s| format!("v{s}")))
}

/// The column the encoder derives its mode from.
fn authoritative(kind: ColKind) -> ColumnData {
    match kind {
        ColKind::I64 | ColKind::Mismatch => ColumnData::Int64(vec![0]),
        ColKind::F64 => ColumnData::Float64(vec![0.0]),
        ColKind::Bool => ColumnData::Bool(vec![false]),
        ColKind::Ids | ColKind::Translated | ColKind::Foreign => strings(0..4),
    }
}

/// `rows` as a batch column of `kind`, against the encoder's column `auth`.
fn batch_column(kind: ColKind, rows: &[RawRow], auth: &ColumnData) -> ColumnData {
    match kind {
        ColKind::I64 => ColumnData::Int64(rows.iter().map(|r| r.0).collect()),
        ColKind::F64 | ColKind::Mismatch => {
            ColumnData::Float64(rows.iter().map(|r| r.0 as f64 / 2.0).collect())
        }
        ColKind::Bool => ColumnData::Bool(rows.iter().map(|r| r.0 & 1 == 1).collect()),
        ColKind::Ids => {
            let (_, dict) = auth.as_dict().expect("dict mode");
            let id = |s: usize| dict.id_of(&format!("v{}", s % 4)).expect("in dictionary");
            ColumnData::Dict {
                ids: rows.iter().map(|r| id(r.1)).collect(),
                dict: dict.clone(),
            }
        }
        ColKind::Translated => strings(rows.iter().map(|r| r.1)),
        ColKind::Foreign => foreign(strings(rows.iter().map(|r| r.1))),
    }
}

/// The per-row reference: the key word of `row` under `kind`, computed from
/// the raw values alone. `unseen` lists, in first-appearance order, the
/// column's strings outside `dict` that were inserted so far; `insert` says
/// whether this row adds to it. `None` for a word no stored key can hold.
fn reference_word(
    kind: ColKind,
    (a, s): RawRow,
    dict: &Dictionary,
    unseen: &mut Vec<usize>,
    insert: bool,
) -> Option<u64> {
    match kind {
        ColKind::I64 => Some(a as u64),
        ColKind::F64 => Some((a as f64 / 2.0).to_bits()),
        ColKind::Bool => Some(u64::from(a & 1 == 1)),
        ColKind::Ids => dict.id_of(&format!("v{}", s % 4)).map(u64::from),
        ColKind::Translated | ColKind::Foreign => match dict.id_of(&format!("v{s}")) {
            Some(id) => Some(u64::from(id)),
            None => {
                if insert && !unseen.contains(&s) {
                    unseen.push(s);
                }
                let rank = unseen.iter().position(|&u| u == s);
                rank.map(|k| (dict.len() + k) as u64)
            }
        },
        ColKind::Mismatch => None,
    }
}

proptest! {
    /// (a) The batch encoder writes, row-major, exactly the words a per-row
    /// reference computes — for every column plan, 1–8 key columns, a row
    /// range and then a sparse selection into one index. A string outside
    /// the dictionary is word `dict.len()` + its first-appearance rank once
    /// inserted; before that, and for a column of the wrong type, a lookup
    /// misses and (wrong type) an insert is a typed error that leaves the
    /// index alone. Fails when column `c` of a 2-word key is written at
    /// stride 1, and when extension ids start at 0 instead of `dict.len()`.
    #[test]
    fn batch_encoder_equals_per_row_reference(
        rows in proptest::collection::vec((-8i64..8, 0usize..6), 0..50),
        kinds in proptest::collection::vec(0usize..COL_KINDS.len(), 1..9),
        with_misses in any::<bool>(),
        keep in proptest::collection::vec(any::<bool>(), 50),
        start in 0usize..50,
    ) {
        // Half the cases keep every string inside the dictionary.
        let rows: Vec<RawRow> = rows
            .into_iter()
            .map(|(a, s)| (a, if with_misses { s } else { s % 4 }))
            .collect();
        let kinds: Vec<ColKind> = kinds.into_iter().map(|k| COL_KINDS[k]).collect();
        let auth: Vec<ColumnData> = kinds.iter().map(|&k| authoritative(k)).collect();
        let auth_refs: Vec<&ColumnData> = auth.iter().collect();
        let reference_dict = authoritative(ColKind::Ids);
        let (_, dict) = reference_dict.as_dict().expect("dict");
        let columns: Vec<ColumnData> = kinds
            .iter()
            .zip(&auth)
            .map(|(&k, a)| batch_column(k, &rows, a))
            .collect();
        let column_refs: Vec<&ColumnData> = columns.iter().collect();
        let start = start.min(rows.len());
        let picked: Vec<u32> = (0..rows.len() as u32).filter(|&r| keep[r as usize]).collect();
        let mismatched = kinds.iter().any(|k| matches!(k, ColKind::Mismatch));

        let encoder = KeyEncoder::for_columns(&auth_refs);
        let row_encoder = encoder.prepare(&column_refs).expect("prepare");
        let mut index = encoder.new_index(0);
        // The reference's state: per column the strings inserted from
        // outside the dictionary, and the keys in id order.
        let mut unseen: Vec<Vec<usize>> = vec![Vec::new(); kinds.len()];
        let mut stored: Vec<Vec<u64>> = Vec::new();
        for row_set in [RowSet::Range(start..rows.len()), RowSet::Picked(&picked)] {
            let mut key_of = |r: usize, insert: bool| -> Option<Vec<u64>> {
                let words = kinds.iter().zip(&mut unseen);
                words.map(|(&k, u)| reference_word(k, rows[r], dict, u, insert)).collect()
            };
            // Looking up first: only what earlier inserts stored is found.
            let expected: Vec<u32> = row_set
                .iter()
                .map(|r| {
                    let id = key_of(r, false).and_then(|k| stored.iter().position(|s| *s == k));
                    id.map_or(KeyIndex::MISS, |id| id as u32)
                })
                .collect();
            let mut ids = vec![7; 3]; // stale content must not survive
            row_encoder.ids(&row_set, &index, &mut ids);
            prop_assert_eq!(&ids, &expected, "lookup {:?} {:?}", kinds, row_set);

            let inserted = row_encoder.ids_or_insert(&row_set, &mut index, &mut ids);
            if mismatched {
                prop_assert!(inserted.is_err(), "{:?}", kinds);
                prop_assert_eq!(index.len(), 0);
                continue;
            }
            inserted.expect("insert");
            let expected: Vec<u32> = row_set
                .iter()
                .map(|r| {
                    let key = key_of(r, true).expect("every inserted string has a word");
                    let id = stored.iter().position(|s| *s == key).unwrap_or(stored.len());
                    if id == stored.len() {
                        stored.push(key);
                    }
                    id as u32
                })
                .collect();
            prop_assert_eq!(&ids, &expected, "insert {:?} {:?}", kinds, row_set);
            prop_assert_eq!(index.len(), stored.len());
            for (id, key) in stored.iter().enumerate() {
                prop_assert_eq!(index.key(id), &key[..], "{:?} {:?}", kinds, row_set);
            }
        }
    }

    /// (b) `ids_or_insert` hands out first-appearance ranks, `ids` finds
    /// exactly the stored keys and `key(id)` returns them in order, against
    /// a `HashMap` + `Vec` oracle: 0–8-word keys, fed in batches, from pools
    /// holding words equal in their low 20 bits, the `i64` extremes, the
    /// dict-miss word `u64::MAX`, NaN / `-0.0` / `0.0` bit patterns, keys
    /// that share their first four words, and a 300-key tail that takes an
    /// index grown from nothing through more than five directory doublings
    /// (8 slots at ½ load → 1024). Fails when the word compare after a
    /// directory hit is skipped, and when the compare of a key wider than
    /// four words stops at the fourth.
    #[test]
    fn word_key_index_matches_std_oracle(
        arity in 0usize..9,
        stream in proptest::collection::vec(wide_key_strategy(), 0..400),
        lookups in proptest::collection::vec(wide_key_strategy(), 40),
        batches in proptest::collection::vec(1usize..64, 1..6),
        capacity in 0usize..40,
    ) {
        let tail = (0..300u64).map(|x| vec![x, x << 20, !x, 1, x & 3, 0, x >> 4, 9]);
        let stream: Vec<Vec<u64>> = stream
            .into_iter()
            .chain(tail)
            .map(|mut key| { key.truncate(arity); key })
            .collect();
        let mut index = KeyIndex::new(arity, capacity);
        let mut oracle_ids: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut oracle_order: Vec<Vec<u64>> = Vec::new();
        for batch in cut(&stream, &batches) {
            let words = batch.concat();
            // Looking up first: only keys of earlier batches are present.
            let mut found = Vec::new();
            index.ids(&words, batch.len(), &mut found);
            let expected: Vec<u32> = batch
                .iter()
                .map(|key| oracle_ids.get(key).copied().unwrap_or(KeyIndex::MISS))
                .collect();
            prop_assert_eq!(found, expected);
            let expected: Vec<u32> = batch
                .iter()
                .map(|key| {
                    let next = oracle_order.len() as u32;
                    *oracle_ids.entry(key.clone()).or_insert_with(|| {
                        oracle_order.push(key.clone());
                        next
                    })
                })
                .collect();
            let mut ids = vec![9]; // ids are appended
            index.ids_or_insert(&words, batch.len(), &mut ids);
            prop_assert_eq!(&ids[1..], &expected[..]);
            prop_assert_eq!(index.len(), oracle_order.len());
        }
        prop_assert!(arity == 0 || index.len() >= 300);
        for (id, key) in oracle_order.iter().enumerate() {
            prop_assert_eq!(index.key(id), &key[..]);
        }
        let lookups: Vec<Vec<u64>> = lookups
            .into_iter()
            .chain(oracle_order.iter().cloned())
            .map(|mut key| { key.truncate(arity); key })
            .collect();
        let mut found = Vec::new();
        index.ids(&lookups.concat(), lookups.len(), &mut found);
        let expected: Vec<u32> = lookups
            .iter()
            .map(|key| oracle_ids.get(key).copied().unwrap_or(KeyIndex::MISS))
            .collect();
        prop_assert_eq!(found, expected);
    }

    /// (h) The offset-addressed form against the same oracle: one-word
    /// streams whose first batch is dense — `base + k` about a base of 0, -8
    /// (a span across zero), `i64::MAX − 64` or `i64::MIN` — and whose later
    /// batches mix words of and past the span with `word_strategy()`'s, so
    /// most streams leave the span mid-batch and go on hashed. Ids, keys and
    /// lookups at and past either end of the span (and `u64::MAX`) equal a
    /// `HashMap`'s whichever way the index addresses its directory. Fails
    /// when the lookup bound admits `span` and when the reseat keeps offset
    /// addressing.
    #[test]
    fn offset_word_index_matches_std_oracle(
        base in proptest::sample::select(DENSE_BASES.to_vec()),
        first in proptest::collection::vec(0u64..16, 1..40),
        later in proptest::collection::vec((any::<bool>(), 0u64..24, word_strategy()), 0..200),
        batches in proptest::collection::vec(1usize..64, 1..6),
        capacity in 0usize..40,
    ) {
        let near = |k: u64| base.wrapping_add(k);
        let later = later.iter().map(|&(dense, k, w)| if dense { near(k) } else { w });
        let stream: Vec<u64> = first.iter().map(|&k| near(k)).chain(later).collect();
        let mut batches = batches;
        batches.insert(0, first.len()); // the first batch is the dense one
        let mut index = KeyIndex::new(1, capacity);
        let mut oracle_ids: HashMap<u64, u32> = HashMap::new();
        let mut oracle_order: Vec<u64> = Vec::new();
        let found = |index: &KeyIndex, words: &[u64]| {
            let mut ids = Vec::new();
            index.ids(words, words.len(), &mut ids);
            ids
        };
        let lookups: Vec<u64> = (0..26).map(|k| near(k).wrapping_sub(2)).chain([u64::MAX]).collect();
        for batch in cut(&stream, &batches) {
            let expected: Vec<u32> = lookups
                .iter()
                .chain(batch)
                .map(|w| oracle_ids.get(w).copied().unwrap_or(KeyIndex::MISS))
                .collect();
            prop_assert_eq!(found(&index, &[&lookups[..], batch].concat()), expected);
            let expected: Vec<u32> = batch
                .iter()
                .map(|&w| {
                    let next = oracle_order.len() as u32;
                    *oracle_ids.entry(w).or_insert_with(|| {
                        oracle_order.push(w);
                        next
                    })
                })
                .collect();
            let mut ids = Vec::new();
            index.ids_or_insert(batch, batch.len(), &mut ids);
            prop_assert_eq!(ids, expected);
            prop_assert_eq!(index.len(), oracle_order.len());
        }
        for (id, &w) in oracle_order.iter().enumerate() {
            prop_assert_eq!(index.key(id), &[w][..]);
        }
        let expected: Vec<u32> = lookups
            .iter()
            .chain(&oracle_order)
            .map(|w| oracle_ids.get(w).copied().unwrap_or(KeyIndex::MISS))
            .collect();
        prop_assert_eq!(found(&index, &[&lookups[..], &oracle_order].concat()), expected);
    }

    /// (d) Float `SUM` / `AVG` are the scan oracle's row-order fold bit for
    /// bit: each group adds its rows in arrival order, whatever the morsel
    /// cut, over values whose sum depends on the order (1e16 beside 1).
    /// Fails when a morsel's rows are folded in reverse.
    #[test]
    fn float_aggregates_fold_in_row_order(
        rows in proptest::collection::vec((0i64..4, 0usize..6), 1..80),
        morsels in proptest::collection::vec(1usize..12, 1..6),
    ) {
        const VALUES: [f64; 6] = [1.0, 1e16, -1e16, 0.1, 3.0, -0.7];
        let batch_of = |rows: &[RawRow]| {
            let schema = Arc::new(Schema::of(vec![
                Field::new("s0", DataType::Int64),
                Field::new("s1", DataType::Float64),
            ]));
            let keys = ColumnData::Int64(rows.iter().map(|r| r.0).collect());
            let values = ColumnData::Float64(rows.iter().map(|r| VALUES[r.1]).collect());
            RecordBatch::new(schema, vec![keys, values]).expect("batch")
        };
        let agg = |func| AggExpr { func, arg: Some(PlanExpr::Col(1)), distinct: false };
        let out_schema = Arc::new(Schema::of(vec![
            Field::new("g", DataType::Int64),
            Field::new("sum", DataType::Float64),
            Field::new("avg", DataType::Float64),
        ]));
        let in_types = |slot: usize| -> Result<DataType> {
            Ok([DataType::Int64, DataType::Float64][slot])
        };
        let mut state = AggregateState::new(
            vec![PlanExpr::Col(0)],
            vec![agg(AggFunc::Sum), agg(AggFunc::Avg)],
            ColMap::from_slots(&[0, 1]),
            &in_types,
            out_schema,
        )
        .expect("state");
        for piece in cut(&rows, &morsels) {
            state.update(&batch_of(piece)).expect("update");
        }
        let out = state.finalize().expect("finalize");

        // (key, sum, count) in first-appearance order, summed in row order.
        let mut oracle: Vec<(i64, f64, i64)> = Vec::new();
        for &(key, v) in &rows {
            match oracle.iter_mut().find(|group| group.0 == key) {
                Some(group) => {
                    group.1 += VALUES[v];
                    group.2 += 1;
                }
                None => oracle.push((key, VALUES[v], 1)),
            }
        }
        let bits = |col: usize| -> Vec<u64> {
            out.column(col).as_f64().expect("floats").iter().map(|x| x.to_bits()).collect()
        };
        let keys: Vec<i64> = oracle.iter().map(|g| g.0).collect();
        prop_assert_eq!(out.column(0).as_i64().expect("ints"), &keys[..]);
        let sums: Vec<u64> = oracle.iter().map(|g| g.1.to_bits()).collect();
        prop_assert_eq!(bits(1), sums);
        let avgs: Vec<u64> = oracle.iter().map(|g| (g.1 / g.2 as f64).to_bits()).collect();
        prop_assert_eq!(bits(2), avgs);
    }
}

/// The argument column of the `DISTINCT` case: pool entry `v` as `kind`'s
/// type. Strings arrive over a fresh or a foreign dictionary of each
/// morsel's own, so later morsels bring strings the first one's dictionary
/// lacks.
fn distinct_arg(kind: DataType, pool: &[usize], dict: bool) -> ColumnData {
    const FLOATS: [f64; 8] = [1.0, 1e16, -1e16, 0.0, -0.0, f64::NAN, 0.1, -0.7];
    match kind {
        DataType::Int64 => ColumnData::Int64(pool.iter().map(|&v| v as i64 * 5 - 11).collect()),
        DataType::Float64 => ColumnData::Float64(pool.iter().map(|&v| FLOATS[v]).collect()),
        _ if dict => strings(pool.iter().copied()),
        _ => foreign(strings(pool.iter().copied())),
    }
}

/// The scan oracle's `DISTINCT` fold: `set` (distinct already) in the
/// canonical order — ints by value, floats by bit pattern, strings
/// lexically — then `SUM` / `AVG` added left to right in `f64`, `MIN` / `MAX`
/// a left fold that keeps the bound when IEEE cannot compare (NaN).
fn distinct_oracle(mut set: Vec<Value>, func: AggFunc) -> Value {
    set.sort_by(|a, b| match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.to_bits().cmp(&y.to_bits()),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        other => unreachable!("one set, one type: {other:?}"),
    });
    let num = |v: &Value| match v {
        Value::Int(x) => *x as f64,
        Value::Float(x) => *x,
        other => unreachable!("numeric fold over {other:?}"),
    };
    let keeps = |bound: &Value, v: &Value, losing: std::cmp::Ordering| match (bound, v) {
        (Value::Float(b), Value::Float(x)) => b.partial_cmp(x) != Some(losing),
        (Value::Int(b), Value::Int(x)) => b.cmp(x) != losing,
        (Value::Str(b), Value::Str(x)) => b.cmp(x) != losing,
        other => unreachable!("{other:?}"),
    };
    let extreme = |losing| {
        let mut values = set.iter();
        let first = values.next().expect("a group has a row").clone();
        values.fold(first, |bound, v| {
            if keeps(&bound, v, losing) {
                bound
            } else {
                v.clone()
            }
        })
    };
    match func {
        AggFunc::Count => Value::Int(set.len() as i64),
        AggFunc::Sum => Value::Float(set.iter().map(num).sum()),
        AggFunc::Avg => Value::Float(set.iter().map(num).sum::<f64>() / set.len() as f64),
        AggFunc::Min => extreme(std::cmp::Ordering::Greater),
        AggFunc::Max => extreme(std::cmp::Ordering::Less),
    }
}

proptest! {
    /// (f) `COUNT` / `SUM` / `AVG` / `MIN` / `MAX(DISTINCT x)` per group equal
    /// the scan oracle bit for bit — over ints, floats (NaN, both zeros and
    /// an order-sensitive 1e16 pair, distinct by bit pattern) and strings
    /// that arrive under fresh or foreign per-morsel dictionaries — whatever the
    /// morsel cut. Fails when the distinct set is folded in arrival order.
    #[test]
    fn distinct_aggregates_equal_scan_oracle(
        rows in proptest::collection::vec((0i64..3, 0usize..8), 1..80),
        morsels in proptest::collection::vec((1usize..12, any::<bool>()), 1..6),
    ) {
        for kind in [DataType::Int64, DataType::Float64, DataType::Utf8] {
            let funcs: &[AggFunc] = match kind {
                DataType::Utf8 => &[AggFunc::Count, AggFunc::Min, AggFunc::Max],
                _ => &[AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max],
            };
            let out_type = |f: &AggFunc| match f {
                AggFunc::Count => DataType::Int64,
                AggFunc::Sum | AggFunc::Avg => DataType::Float64,
                AggFunc::Min | AggFunc::Max => kind,
            };
            let out_fields = [DataType::Int64]
                .into_iter()
                .chain(funcs.iter().map(out_type))
                .enumerate()
                .map(|(i, t)| Field::new(format!("o{i}"), t))
                .collect();
            let in_schema = Arc::new(Schema::of(vec![
                Field::new("s0", DataType::Int64),
                Field::new("s1", kind),
            ]));
            let in_types = |slot: usize| -> Result<DataType> { Ok([DataType::Int64, kind][slot]) };
            let aggs = funcs
                .iter()
                .map(|&func| AggExpr { func, arg: Some(PlanExpr::Col(1)), distinct: true })
                .collect();
            let mut state = AggregateState::new(
                vec![PlanExpr::Col(0)],
                aggs,
                ColMap::from_slots(&[0, 1]),
                &in_types,
                Arc::new(Schema::of(out_fields)),
            )
            .expect("state");

            // (group, distinct values in arrival order), first appearance.
            let mut oracle: Vec<(i64, Vec<Value>)> = Vec::new();
            let mut rest = &rows[..];
            for &(len, dict) in morsels.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at(len.min(rest.len()));
                rest = tail;
                let pool: Vec<usize> = piece.iter().map(|r| r.1).collect();
                let groups = ColumnData::Int64(piece.iter().map(|r| r.0).collect());
                let arg = distinct_arg(kind, &pool, dict);
                let batch = RecordBatch::new(in_schema.clone(), vec![groups, arg]).expect("batch");
                state.update(&batch).expect("update");
                for (r, &(g, _)) in piece.iter().enumerate() {
                    let v = batch.row(r)[1].clone();
                    // Distinct by bit pattern: `Value`'s `==` would merge
                    // the zeros and split NaN from itself.
                    let same = |a: &Value| match (a, &v) {
                        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                        (a, v) => a == v,
                    };
                    let at = oracle.iter().position(|e| e.0 == g).unwrap_or(oracle.len());
                    if at == oracle.len() {
                        oracle.push((g, Vec::new()));
                    }
                    if !oracle[at].1.iter().any(same) {
                        oracle[at].1.push(v);
                    }
                }
            }
            let out = state.finalize().expect("finalize");
            prop_assert_eq!(out.rows(), oracle.len());
            for (r, (g, set)) in oracle.into_iter().enumerate() {
                let got = out.row(r);
                prop_assert_eq!(&got[0], &Value::Int(g));
                for (j, &func) in funcs.iter().enumerate() {
                    let expected = distinct_oracle(set.clone(), func);
                    let same = match (&got[j + 1], &expected) {
                        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                        (a, b) => a == b,
                    };
                    prop_assert!(
                        same,
                        "{:?}(DISTINCT {:?}) of group {}: {:?}, oracle {:?}",
                        func, kind, g, got[j + 1], expected
                    );
                }
            }
        }
    }
}

/// Bases of the dense word runs: zero, a run across zero, and runs at
/// either end of the `i64` range.
const DENSE_BASES: [u64; 4] = [0, -8i64 as u64, i64::MAX as u64 - 64, i64::MIN as u64];

/// Key words from small pools, so streams repeat them.
fn word_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..48).prop_map(|x| x << 20),
        proptest::sample::select(vec![i64::MIN as u64, i64::MAX as u64, u64::MAX, 0, 1]),
        proptest::sample::select(vec![
            f64::NAN.to_bits(),
            (-0.0f64).to_bits(),
            0.0f64.to_bits()
        ]),
        0u64..4096,
        // Dense runs `base + k`: one-word keys an offset-addressed index
        // holds, beside the other arms' words that leave its span.
        (proptest::sample::select(DENSE_BASES.to_vec()), 0u64..16)
            .prop_map(|(base, k)| base.wrapping_add(k)),
    ]
}

/// Eight key words; half the keys share one four-word prefix, so they
/// differ only where a key wider than four words is still compared.
fn wide_key_strategy() -> impl Strategy<Value = Vec<u64>> {
    (proptest::collection::vec(word_strategy(), 8), any::<bool>()).prop_map(
        |(mut key, shared_prefix)| {
            if shared_prefix {
                key[..4].copy_from_slice(&[1, 1 << 20, u64::MAX, 0]);
            }
            key
        },
    )
}

/// A `(group string, int)` batch for the mid-stream case; `dict` says how
/// the strings arrive.
fn string_int_batch(rows: &[(&str, i64)], dict: Option<&ColumnData>) -> RecordBatch {
    let schema = Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Utf8),
        Field::new("s1", DataType::Int64),
        Field::new("s2", DataType::Int64),
    ]));
    let strs = match dict {
        // A foreign dictionary of the batch's own.
        None => foreign(ColumnData::strings(rows.iter().map(|r| r.0))),
        // Ids into the shared dictionary of `shared` (every string present).
        Some(shared) => {
            let (_, dict) = shared.as_dict().expect("dict column");
            ColumnData::Dict {
                ids: rows
                    .iter()
                    .map(|r| dict.id_of(r.0).expect("present"))
                    .collect(),
                dict: dict.clone(),
            }
        }
    };
    let ints = ColumnData::Int64(rows.iter().map(|r| r.1).collect());
    let values = ColumnData::Int64((0..rows.len() as i64).map(|i| i * 7 + 1).collect());
    RecordBatch::new(schema, vec![strs, ints, values]).expect("batch")
}

/// (c) A string outside the dictionary in the middle of a morsel stream: the
/// first morsels key 40 `(dict string, int)` groups by dictionary id (the
/// directory has doubled from 8 to 128 slots by then), a morsel over a
/// dictionary of its own brings the first strings outside the dictionary, a foreign-dictionary
/// morsel repeats them and adds one, and a last morsel on the original
/// dictionary must land in the groups the first made. Group order, counts
/// and sums equal the scan oracle's. Fails when extension ids start at 0
/// instead of after the dictionary's (`zz` then joins `v0`'s groups).
#[test]
fn string_outside_dictionary_mid_stream_keeps_ids_order_and_accumulators() {
    let names = ["v0", "v1", "v2", "v3"];
    let shared = ColumnData::strings(names);
    let grid: Vec<(&str, i64)> = (0..40).map(|i| (names[i % 4], (i / 4) as i64)).collect();
    let unseen: Vec<(&str, i64)> = vec![("v1", 3), ("zz", 0), ("v3", 9), ("zz", 0), ("yy", 1)];
    let foreign: Vec<(&str, i64)> = vec![("zz", 0), ("v0", 0), ("xx", 2), ("yy", 1), ("v2", 8)];
    let foreign_col = ColumnData::strings(foreign.iter().map(|r| r.0));
    let morsels = [
        string_int_batch(&grid[..25], Some(&shared)),
        string_int_batch(&grid[10..], Some(&shared)),
        string_int_batch(&unseen, None),
        string_int_batch(&foreign, Some(&foreign_col)),
        string_int_batch(&grid[5..30], Some(&shared)),
    ];

    let slot_types = [DataType::Utf8, DataType::Int64, DataType::Int64];
    let in_types = |slot: usize| -> Result<DataType> { Ok(slot_types[slot]) };
    let out_schema = Arc::new(Schema::of(vec![
        Field::new("g0", DataType::Utf8),
        Field::new("g1", DataType::Int64),
        Field::new("n", DataType::Int64),
        Field::new("sum", DataType::Int64),
    ]));
    let mut state = AggregateState::new(
        vec![PlanExpr::Col(0), PlanExpr::Col(1)],
        vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(PlanExpr::Col(2)),
                distinct: false,
            },
        ],
        ColMap::from_slots(&[0, 1, 2]),
        &in_types,
        out_schema,
    )
    .expect("state");
    let mut oracle: Vec<(Vec<Value>, i64, i64)> = Vec::new();
    for (m, morsel) in morsels.iter().enumerate() {
        state.update(morsel).expect("update");
        for r in 0..morsel.rows() {
            let row = morsel.row(r);
            let Value::Int(v) = row[2] else {
                unreachable!("int payload")
            };
            match oracle.iter_mut().find(|group| group.0 == row[..2]) {
                Some(group) => {
                    group.1 += 1;
                    group.2 += v;
                }
                None => oracle.push((row[..2].to_vec(), 1, v)),
            }
        }
        assert_eq!(state.group_count(), oracle.len(), "after morsel {m}");
    }
    assert_eq!(oracle.len(), 43, "40 dictionary groups, then zz / yy / xx");
    let expected: Vec<Vec<Value>> = oracle
        .into_iter()
        .map(|(key, n, sum)| key.into_iter().chain([n, sum].map(Value::Int)).collect())
        .collect();
    let out = state.finalize().expect("finalize");
    let got: Vec<Vec<Value>> = (0..out.rows()).map(|r| out.row(r)).collect();
    assert_eq!(got, expected);
}

/// (e) The two extremes of a probe: a stream that matches nothing — through
/// a sparse selection too — returns the empty batch under the output
/// schema, and an all-distinct build side (every CSR list one row long)
/// returns the nested loop's sequence, for every key shape.
#[test]
fn all_miss_probe_is_empty_and_all_distinct_build_is_the_nested_loop() {
    let build_rows: Vec<RawRow> = (0..300).map(|i| (i as i64, i)).collect();
    let miss_rows: Vec<RawRow> = (0..200).map(|i| (-1 - i as i64, 1000 + i)).collect();
    let hit_rows: Vec<RawRow> = (0..200)
        .map(|i| ((i * 7 % 450) as i64, i * 7 % 450))
        .collect();
    let tags = |n: usize| (0..n as i64).collect::<Vec<i64>>();
    for shape in SHAPES {
        let key_positions: Vec<usize> = (0..key_types(shape).len()).collect();
        let tag_position = key_positions.len();
        let build = table(shape, &build_rows, &tags(build_rows.len()));
        let mut ht = JoinHashTable::new(build.schema().clone(), key_positions.clone());
        ht.insert_batch(build.clone()).expect("insert");
        ht.finalize().expect("finalize");
        let out_schema = |probe: &RecordBatch| {
            let fields = probe
                .schema()
                .fields()
                .iter()
                .chain(build.schema().fields());
            let fields = fields
                .enumerate()
                .map(|(i, f)| Field::new(format!("o{i}"), f.data_type));
            Arc::new(Schema::of(fields.collect()))
        };

        let misses = table(shape, &miss_rows, &tags(miss_rows.len()));
        let sparse: Vec<bool> = (0..miss_rows.len()).map(|i| i % 3 != 1).collect();
        for probe in [misses.clone(), misses.filter(&sparse).expect("filter")] {
            let schema = out_schema(&probe);
            let joined = ht
                .probe(&probe, &key_positions, schema.clone())
                .expect("probe");
            assert_eq!(joined, RecordBatch::empty(schema), "{shape:?}");
        }

        let hits = table(shape, &hit_rows, &tags(hit_rows.len()));
        let joined = ht
            .probe(&hits, &key_positions, out_schema(&hits))
            .expect("probe");
        let expected: Vec<(i64, i64)> = hit_rows
            .iter()
            .enumerate()
            .filter(|&(_, &p)| build_rows.contains(&p))
            .map(|(pi, &p)| (pi as i64, p.0))
            .collect();
        assert!(expected.len() > 100 && expected.len() < hit_rows.len());
        let ptags = joined.column(tag_position).as_i64().expect("ints");
        let btags = joined.column(2 * tag_position + 1).as_i64().expect("ints");
        let got: Vec<(i64, i64)> = ptags.iter().copied().zip(btags.iter().copied()).collect();
        assert_eq!(got, expected, "{shape:?}");
    }
}

/// (g) A probe key column of another type than the build's equals no build
/// key — `1.0` is not `1`, nor is `"1"` — so the join is empty, not an error
/// and not a match by bit pattern, numeric value or dictionary id, whether
/// the `Int64` build keys are dense (bucketed by value) or span past `i64`
/// (keyed). Fails when a mismatched column is encoded by its raw value
/// (float bits `0` then match int `0`).
#[test]
fn type_mismatched_probe_key_matches_nothing() {
    let probe_key = [
        ColumnData::Float64(vec![0.0, 1.0, 2.0, f64::from_bits(3)]),
        ColumnData::strings(["0", "1", "2", "3"]),
    ];
    for build_keys in [vec![0, 1, 2, 1, 3], vec![0, 1, 2, 3, i64::MIN]] {
        let build = batch_of(build_keys);
        let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
        ht.insert_batch(build.clone()).expect("insert");
        ht.finalize().expect("finalize");
        for key in &probe_key {
            let probe_schema = Arc::new(Schema::of(vec![
                Field::new("k", key.data_type()),
                Field::new("tag", DataType::Int64),
            ]));
            let probe = RecordBatch::new(
                probe_schema,
                vec![key.clone(), ColumnData::Int64(vec![0, 1, 2, 3])],
            )
            .expect("batch");
            let fields = probe
                .schema()
                .fields()
                .iter()
                .chain(build.schema().fields());
            let fields = fields
                .enumerate()
                .map(|(i, f)| Field::new(format!("o{i}"), f.data_type));
            let out_schema = Arc::new(Schema::of(fields.collect()));
            let joined = ht.probe(&probe, &[0], out_schema.clone()).expect("probe");
            assert_eq!(joined, RecordBatch::empty(out_schema));
        }
    }
}

/// The join build keeps its morsels as chunks. Feeding the same build rows
/// as one batch or cut into chunks (empty ones, one-row ones, up to a
/// morsel) must not show in the output: both equal the nested-loop
/// reference row for row, and each other in every column's `ColumnData`
/// variant and dictionary `Arc` — for distinct and duplicate build keys,
/// int, fresh- and foreign-dictionary string keys, every payload type, and
/// probe batches
/// with and without a selection.
mod chunked_builds {
    use super::*;

    /// Rows per build chunk, at most.
    const MORSEL: usize = 16;

    /// How the key column is encoded on both sides.
    #[derive(Clone, Copy, Debug)]
    enum KeyKind {
        Int,
        /// Dict-encoded: the build side's chunks share one dictionary, the
        /// probe side carries its own.
        Dict,
        /// Both sides over foreign dictionaries: sparse ids, unreferenced
        /// entries.
        Foreign,
    }

    fn key_column(kind: KeyKind, keys: &[i64]) -> ColumnData {
        let strings = || ColumnData::strings(keys.iter().map(|k| format!("k{k}")));
        match kind {
            KeyKind::Int => ColumnData::Int64(keys.to_vec()),
            KeyKind::Dict => strings(),
            KeyKind::Foreign => foreign(strings()),
        }
    }

    fn batch(columns: Vec<ColumnData>) -> RecordBatch {
        let fields = (columns.iter().enumerate())
            .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
            .collect();
        RecordBatch::new(Arc::new(Schema::of(fields)), columns).expect("batch")
    }

    /// The build side: key, then one payload column of every type.
    fn build_batch(kind: KeyKind, keys: &[i64]) -> RecordBatch {
        let n = keys.len() as i64;
        let text = |r: i64| format!("b{}", r % 5);
        batch(vec![
            key_column(kind, keys),
            ColumnData::Int64((0..n).collect()),
            ColumnData::Float64((0..n).map(|r| r as f64 / 4.0).collect()),
            ColumnData::Bool((0..n).map(|r| r % 3 == 0).collect()),
            ColumnData::strings((0..n).map(text)),
            foreign(ColumnData::strings((0..n).map(|r| text(r * 7)))),
        ])
    }

    /// The probe side: key, a tag, a fresh- and a foreign-dictionary string
    /// column.
    fn probe_batch(kind: KeyKind, keys: &[i64]) -> RecordBatch {
        let n = keys.len() as i64;
        batch(vec![
            key_column(kind, keys),
            ColumnData::Int64((0..n).collect()),
            ColumnData::strings((0..n).map(|r| format!("p{}", r % 3))),
            foreign(ColumnData::strings((0..n).map(|r| format!("q{r}")))),
        ])
    }

    /// `rows` rows cut at the given chunk sizes, the rest in a last chunk.
    fn chunks(build: &RecordBatch, sizes: &[usize]) -> Vec<RecordBatch> {
        let mut out = Vec::new();
        let mut at = 0;
        for &size in sizes {
            let size = size.min(build.rows() - at);
            out.push(build.slice(at, size).expect("slice"));
            at += size;
        }
        out.push(build.slice(at, build.rows() - at).expect("slice"));
        out
    }

    fn join(build: &[RecordBatch], probe: &RecordBatch) -> RecordBatch {
        let mut ht = JoinHashTable::new(build[0].schema().clone(), vec![0]);
        for chunk in build {
            ht.insert_batch(chunk.clone()).expect("insert");
        }
        ht.finalize().expect("finalize");
        let fields = (probe.schema().fields().iter())
            .chain(build[0].schema().fields())
            .enumerate()
            .map(|(i, f)| Field::new(format!("o{i}"), f.data_type))
            .collect();
        ht.probe(probe, &[0], Arc::new(Schema::of(fields)))
            .expect("probe")
    }

    /// Same variant, and for dict columns the same dictionary `Arc`.
    fn same_form(a: &ColumnData, b: &ColumnData) -> bool {
        match (a.as_dict(), b.as_dict()) {
            (Some((_, x)), Some((_, y))) => Arc::ptr_eq(x, y),
            _ => std::mem::discriminant(a) == std::mem::discriminant(b),
        }
    }

    proptest! {
        #[test]
        fn chunked_build_equals_one_batch_and_the_nested_loop(
            dup_keys in proptest::collection::vec(-4i64..4, 0..60),
            probe_keys in proptest::collection::vec(-6i64..64, 0..50),
            keep in proptest::collection::vec(any::<bool>(), 50),
            sizes in proptest::collection::vec(
                prop_oneof![Just(0usize), Just(1usize), 0usize..MORSEL + 1],
                0..8,
            ),
            distinct in any::<bool>(),
            kind in proptest::sample::select(vec![KeyKind::Int, KeyKind::Dict, KeyKind::Foreign]),
            selected in any::<bool>(),
        ) {
            // Distinct keys: as many, each once, scrambled (7 is invertible
            // modulo the prime 61, which exceeds every row count).
            let build_keys: Vec<i64> = if distinct {
                (0..dup_keys.len() as i64).map(|r| (r * 7 + 3) % 61).collect()
            } else {
                dup_keys
            };
            let build = build_batch(kind, &build_keys);
            let probe = probe_batch(kind, &probe_keys);
            let probe = if selected {
                probe.filter(&keep[..probe_keys.len()]).expect("filter")
            } else {
                probe
            };

            let whole = join(std::slice::from_ref(&build), &probe);
            let chunked = join(&chunks(&build, &sizes), &probe);

            let mut expected: Vec<Vec<Value>> = Vec::new();
            for p in 0..probe.rows() {
                for b in 0..build.rows() {
                    if probe.row(p)[0] == build.row(b)[0] {
                        expected.push(probe.row(p).into_iter().chain(build.row(b)).collect());
                    }
                }
            }
            for out in [&whole, &chunked] {
                let got: Vec<Vec<Value>> = (0..out.rows()).map(|r| out.row(r)).collect();
                prop_assert_eq!(&got, &expected, "{:?}", kind);
            }
            for (a, b) in whole.columns().iter().zip(chunked.columns()) {
                prop_assert!(same_form(a, b), "{:?}: {:?} vs {:?}", kind, a, b);
            }
        }
    }
}

/// One `Int64` key column whose build keys span at most `max(2 · rows,
/// 2^16)` values is bucketed by `key − min`; any other int key by key id.
/// Both sides of that bound, spans that overflow `i64`, negative keys,
/// probe keys outside the span, duplicates across chunks, selections and
/// empty builds must all join as the nested loop does, row for row.
mod dense_int_keys {
    use super::*;

    /// The dense span bound of a build of fewer than 2^15 rows.
    const SMALL_BOUND: i64 = 1 << 16;

    /// An int key column and a tag column numbering the rows from `tag0`.
    fn keyed(keys: &[i64], tag0: i64) -> RecordBatch {
        let tags = (tag0..tag0 + keys.len() as i64).collect();
        let columns = vec![ColumnData::Int64(keys.to_vec()), ColumnData::Int64(tags)];
        RecordBatch::new(batch_of(Vec::new()).schema().clone(), columns).expect("batch")
    }

    /// The build keys cut into chunks of the given sizes (an empty chunk
    /// first), their tags running on across chunks.
    fn chunked(keys: &[i64], sizes: &[usize]) -> Vec<RecordBatch> {
        let mut chunks = vec![keyed(&[], 0)];
        let mut at = 0;
        for piece in cut(keys, sizes) {
            chunks.push(keyed(piece, at as i64));
            at += piece.len();
        }
        chunks
    }

    /// The joined rows, probe columns then build columns.
    fn join(build: &[RecordBatch], probe: &RecordBatch) -> Vec<Vec<Value>> {
        let schema = keyed(&[], 0).schema().clone();
        let mut ht = JoinHashTable::new(schema.clone(), vec![0]);
        for chunk in build {
            ht.insert_batch(chunk.clone()).expect("insert");
        }
        ht.finalize().expect("finalize");
        let fields = (probe.schema().fields().iter())
            .chain(schema.fields())
            .enumerate()
            .map(|(i, f)| Field::new(format!("o{i}"), f.data_type))
            .collect();
        let out = ht
            .probe(probe, &[0], Arc::new(Schema::of(fields)))
            .expect("probe");
        (0..out.rows()).map(|r| out.row(r)).collect()
    }

    /// Probe rows in order, each with its matches in build arrival order.
    fn nested_loop(build: &[RecordBatch], probe: &RecordBatch) -> Vec<Vec<Value>> {
        let build = RecordBatch::concat(build).expect("concat");
        let mut rows = Vec::new();
        for p in 0..probe.rows() {
            for b in 0..build.rows() {
                if probe.row(p)[0] == build.row(b)[0] {
                    rows.push(probe.row(p).into_iter().chain(build.row(b)).collect());
                }
            }
        }
        rows
    }

    proptest! {
        /// Keys from `base` up: a span one short of, at, or one past the
        /// bound, or one that overflows `i64` (`far`), at both ends of the
        /// `i64` range, probed below, inside and above the span.
        #[test]
        fn dense_int_join_equals_nested_loop_at_every_edge(
            base in proptest::sample::select(vec![
                0,
                -5,
                -1_000_000,
                i64::MIN,
                i64::MIN + 1,
                i64::MAX - SMALL_BOUND,
                i64::MAX - SMALL_BOUND + 1,
                i64::MAX - 7,
            ]),
            far in proptest::sample::select(vec![
                None,
                Some(SMALL_BOUND - 2),
                Some(SMALL_BOUND - 1),
                Some(SMALL_BOUND),
                Some(i64::MAX),
            ]),
            steps in proptest::collection::vec(0i64..6, 0..40),
            sizes in proptest::collection::vec(1usize..9, 1..5),
            probe_steps in proptest::collection::vec(-3i64..9, 0..40),
            keep in proptest::collection::vec(any::<bool>(), 47),
            selected in any::<bool>(),
        ) {
            let at = |step: i64| base.wrapping_add(step);
            // `base` is the least key unless `far` wraps below it.
            let mut keys: Vec<i64> = far.map(at).into_iter().collect();
            keys.extend(steps.iter().map(|&s| at(s)));
            keys.push(base);
            keys.extend(far.map(at));
            let mut probe_keys: Vec<i64> = probe_steps.iter().map(|&s| at(s)).collect();
            if let Some(far) = far {
                probe_keys.extend([far - 1, far, far.saturating_add(1)].map(at));
            }
            probe_keys.extend([i64::MIN, i64::MAX, base]);
            let probe = keyed(&probe_keys, 0);
            let probe = if selected {
                probe.filter(&keep[..probe_keys.len()]).expect("filter")
            } else {
                probe
            };
            let build = chunked(&keys, &sizes);
            prop_assert_eq!(join(&build, &probe), nested_loop(&build, &probe));
        }
    }

    /// Past 2^15 rows the bound is twice the rows: keys repeated across
    /// 8 192-row chunks up to a span of exactly `2 · rows`, or one more.
    #[test]
    fn large_builds_join_as_the_nested_loop_at_twice_their_rows() {
        let rows = 40_000i64;
        for last in [2 * rows - 2, 2 * rows - 1] {
            // -1, -1, 3, 3, 7, …: two rows a key, then `last`.
            let keys: Vec<i64> = (0..rows - 1).map(|i| i / 2 * 4 - 1).chain([last]).collect();
            let build = chunked(&keys, &[8_192]);
            let mut probe_keys: Vec<i64> = (-3..60).map(|i| i * 1_301 - 2).collect();
            probe_keys.extend([last - 1, last, last + 1, 3, -1, -2]);
            let keep: Vec<bool> = (0..probe_keys.len()).map(|i| i % 5 != 2).collect();
            let probe = keyed(&probe_keys, 0).filter(&keep).expect("filter");
            let expected = nested_loop(&build, &probe);
            assert!(expected.len() > 20, "{last}: {}", expected.len());
            assert_eq!(join(&build, &probe), expected, "{last}");
        }
    }

    /// No build rows — no chunk, or empty chunks only — join to nothing.
    #[test]
    fn empty_builds_join_to_nothing() {
        let probe = keyed(&[0, -1, i64::MIN, i64::MAX], 0);
        for build in [
            vec![],
            vec![keyed(&[], 0)],
            vec![keyed(&[], 0), keyed(&[], 0)],
        ] {
            assert_eq!(join(&build, &probe), Vec::<Vec<Value>>::new());
        }
    }
}
