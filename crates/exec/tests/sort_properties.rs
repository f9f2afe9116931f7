//! `SortBuffer` against a naive oracle.
//!
//! The sort sink orders rows by its keys in the one documented order:
//! numbers ascending with `-0.0` equal to `0.0` and NaN after every number
//! (all NaNs equal), strings by value whatever dictionary holds them,
//! `false` before `true`; `DESC` reverses a key, so NaN comes first there;
//! rows equal on every key keep their arrival order. A `LIMIT` keeps the
//! first rows of that order. The oracle materializes every logical row as
//! `Value`s, stable-sorts them by that order and truncates; the sink must
//! return exactly those rows (floats by bits), and never panic, for any
//! morsel layout, selection, key set and limit.

use std::cmp::Ordering;
use std::sync::Arc;

use ci_exec::operators::SortBuffer;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{DataType, Value};
use ci_types::DetRng;

fn schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("i", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("b", DataType::Bool),
        Field::new("d", DataType::Utf8),
        Field::new("s", DataType::Utf8),
    ]))
}

fn shared_dict() -> Arc<Dictionary> {
    let mut d = Dictionary::new();
    for s in ["kiwi", "", "apple", "fig", "banana", "date"] {
        d.intern(s);
    }
    Arc::new(d)
}

fn float_value(r: &mut DetRng) -> f64 {
    let specials = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    if r.bool_with(0.3) {
        *r.choose(&specials)
    } else {
        // Few distinct values, so every key has ties for the next to break.
        r.range_i64(-3, 3) as f64 * 0.5
    }
}

/// One morsel of `rows` physical rows. `d` holds ids of the one shared
/// dictionary; `s` holds ids of the shared dictionary or of a foreign one
/// of its own, with overlapping values. About a third of the morsels carry
/// a selection.
fn morsel(r: &mut DetRng, rows: usize, shared: &Arc<Dictionary>) -> RecordBatch {
    let shared_ids = |r: &mut DetRng| -> Vec<u32> {
        (0..rows)
            .map(|_| r.u64_below(shared.len() as u64) as u32)
            .collect()
    };
    let s = if r.bool_with(0.5) {
        ColumnData::Dict {
            ids: shared_ids(r),
            dict: shared.clone(),
        }
    } else {
        let words = ["fig", "zucchini", "", "apple", "cherry", "date"];
        ColumnData::strings((0..rows).map(|_| *r.choose(&words)))
    };
    let b = RecordBatch::new(
        schema(),
        vec![
            ColumnData::Int64((0..rows).map(|_| r.range_i64(-3, 3)).collect()),
            ColumnData::Float64((0..rows).map(|_| float_value(r)).collect()),
            ColumnData::Bool((0..rows).map(|_| r.bool_with(0.5)).collect()),
            ColumnData::Dict {
                ids: shared_ids(r),
                dict: shared.clone(),
            },
            s,
        ],
    )
    .unwrap();
    if r.bool_with(0.35) {
        let keep: Vec<bool> = (0..rows).map(|_| r.bool_with(0.6)).collect();
        b.filter(&keep).unwrap()
    } else {
        b
    }
}

/// The documented order of two values of one key column, ascending.
fn value_order(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => match (x.is_nan(), y.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            // `==` holds for -0.0 and 0.0.
            (false, false) if x == y => Ordering::Equal,
            (false, false) if x < y => Ordering::Less,
            (false, false) => Ordering::Greater,
        },
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => panic!("one key column holds one type: {a:?} vs {b:?}"),
    }
}

/// Every logical row of `morsels`, stable-sorted by `keys` and truncated.
fn oracle(
    morsels: &[RecordBatch],
    keys: &[(usize, bool)],
    limit: Option<usize>,
) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = morsels
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |i| b.row(i)))
        .collect();
    rows.sort_by(|x, y| {
        keys.iter()
            .map(|&(pos, asc)| {
                let ord = value_order(&x[pos], &y[pos]);
                if asc {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows.truncate(limit.unwrap_or(usize::MAX));
    rows
}

/// Rows with floats by bits, so NaN and -0.0 compare exactly.
fn exact(rows: Vec<Vec<Value>>) -> Vec<Vec<String>> {
    rows.into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| match v {
                    Value::Float(x) => format!("f{:016x}", x.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect()
}

fn sorted(morsels: &[RecordBatch], keys: &[(usize, bool)], limit: Option<usize>) -> RecordBatch {
    let mut sb = SortBuffer::new(schema(), keys.to_vec()).with_limit(limit);
    for m in morsels {
        sb.push(m.clone());
    }
    sb.finalize().unwrap()
}

fn check(morsels: &[RecordBatch], keys: &[(usize, bool)], limit: Option<usize>, what: &str) {
    let out = sorted(morsels, keys, limit);
    let got: Vec<Vec<Value>> = (0..out.rows()).map(|i| out.row(i)).collect();
    assert_eq!(
        exact(got),
        exact(oracle(morsels, keys, limit)),
        "{what}: keys {keys:?}, limit {limit:?}"
    );
}

#[test]
fn sort_buffer_matches_the_oracle_for_every_limit() {
    let shared = shared_dict();
    for seed in 0..250 {
        let mut r = DetRng::seed_from_u64(seed);
        let morsels: Vec<RecordBatch> = (0..1 + r.usize_below(5))
            .map(|_| {
                let rows = r.usize_below(60);
                morsel(&mut r, rows, &shared)
            })
            .collect();
        let rows: usize = morsels.iter().map(RecordBatch::rows).sum();
        let keys: Vec<(usize, bool)> = (0..1 + r.usize_below(3))
            .map(|_| (r.usize_below(5), r.bool_with(0.5)))
            .collect();
        let k = 2 + r.usize_below(rows.max(3) - 2);
        for limit in [
            None,
            Some(0),
            Some(1),
            Some(k),
            Some(rows.saturating_sub(1)),
            Some(rows),
            Some(rows + 5),
        ] {
            check(&morsels, &keys, limit, &format!("seed {seed}"));
        }
    }
}

#[test]
fn a_limit_far_below_the_rows_keeps_the_rows_that_win() {
    // Several times the candidate set's capacity (the limit plus at least
    // 1 024 rows): the sink drops rows against its bar and selects back
    // down several times before the last morsel.
    let shared = shared_dict();
    for seed in 0..12 {
        let mut r = DetRng::seed_from_u64(1_000 + seed);
        let morsels: Vec<RecordBatch> = (0..8).map(|_| morsel(&mut r, 700, &shared)).collect();
        for keys in [
            vec![(1, false), (0, true)],
            vec![(1, true)],
            vec![(4, false), (1, true), (2, false)],
            vec![(3, true), (0, false)],
        ] {
            for limit in [1, 3, 20, 100] {
                check(&morsels, &keys, Some(limit), &format!("seed {seed}"));
            }
        }
    }
}

#[test]
fn nan_float_keys_sort_nan_last_without_panicking() {
    // Where NaN compared equal to every number, the comparator was no total
    // order, and the standard sort panicked on most of these inputs, with
    // or without a limit. Every sort runs before any output is judged, so
    // such a panic shows as one.
    let schema = Arc::new(Schema::of(vec![
        Field::new("x", DataType::Float64),
        Field::new("i", DataType::Int64),
    ]));
    let cases: Vec<(Vec<RecordBatch>, Option<usize>, RecordBatch)> = (0..100)
        .flat_map(|seed| {
            let mut r = DetRng::seed_from_u64(seed);
            let morsels: Vec<RecordBatch> = (0..3)
                .map(|_| {
                    let n = 20 + r.usize_below(100);
                    let xs = (0..n)
                        .map(|_| {
                            if r.bool_with(0.3) {
                                f64::NAN
                            } else {
                                r.range_i64(-20, 20) as f64
                            }
                        })
                        .collect();
                    let is = (0..n as i64).collect();
                    RecordBatch::new(
                        schema.clone(),
                        vec![ColumnData::Float64(xs), ColumnData::Int64(is)],
                    )
                    .unwrap()
                })
                .collect();
            [None, Some(40)].map(|limit| {
                let mut sb = SortBuffer::new(schema.clone(), vec![(0, true)]).with_limit(limit);
                for m in &morsels {
                    sb.push(m.clone());
                }
                (morsels.clone(), limit, sb.finalize().unwrap())
            })
        })
        .collect();
    for (morsels, limit, out) in cases {
        let got: Vec<Vec<Value>> = (0..out.rows()).map(|i| out.row(i)).collect();
        assert_eq!(
            exact(got),
            exact(oracle(&morsels, &[(0, true)], limit)),
            "limit {limit:?}"
        );
    }
}
