//! Property tests: execution over dictionary ids is result-identical to a
//! naive `Vec<String>` reference computed here, and to the same strings
//! over a *foreign* dictionary (other ids, unreferenced entries).
//!
//! Covers the three hot paths dictionary ids serve — expression evaluation
//! (filter masks), hash aggregation (group-by on string keys), and hash
//! joins (string-key build/probe, across dictionaries) — plus the
//! compact-key guarantee: keys over int/float/bool/string columns stay
//! inline (zero heap allocations per row).

use std::sync::Arc;

use ci_exec::operators::{AggregateState, JoinHashTable};
use ci_exec::{DictKeyEntry, KeyEncoder};
use ci_plan::expr::{AggExpr, BinOp, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{DataType, Value};
use ci_storage::RecordBatch;
use ci_storage::RowSet;
use ci_types::Result;
use proptest::prelude::*;

fn schema2() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Utf8),
        Field::new("s1", DataType::Int64),
    ]))
}

fn ints_of(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| i * 3 % 17).collect()
}

/// `strs` and an int payload; the strings over a fresh dictionary when
/// `dict` says so, else over a foreign one that first interns decoys and
/// `strs` in reverse.
fn batch(strs: &[String], dict: bool) -> RecordBatch {
    let col = if dict {
        ColumnData::strings(strs)
    } else {
        let mut d = Dictionary::new();
        for s in ["zz-decoy", "aa-decoy"]
            .into_iter()
            .chain(strs.iter().rev().map(String::as_str))
        {
            d.intern(s);
        }
        let ids = strs.iter().map(|s| d.intern(s)).collect();
        ColumnData::Dict {
            ids,
            dict: Arc::new(d),
        }
    };
    RecordBatch::new(schema2(), vec![col, ColumnData::Int64(ints_of(strs.len()))]).unwrap()
}

fn rows_of(batch: &RecordBatch) -> Vec<Vec<Value>> {
    (0..batch.rows()).map(|r| batch.row(r)).collect()
}

fn group_by_strings(input: &RecordBatch, morsel: usize) -> Result<RecordBatch> {
    let out = Arc::new(Schema::of(vec![
        Field::new("g", DataType::Utf8),
        Field::new("cnt", DataType::Int64),
        Field::new("sum", DataType::Int64),
    ]));
    let types = |s: usize| -> Result<DataType> {
        Ok(if s == 0 {
            DataType::Utf8
        } else {
            DataType::Int64
        })
    };
    let mut st = AggregateState::new(
        vec![PlanExpr::Col(0)],
        vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(PlanExpr::Col(1)),
                distinct: false,
            },
        ],
        ColMap::from_slots(&[0, 1]),
        &types,
        out,
    )?;
    let mut off = 0;
    while off < input.rows() {
        let len = morsel.min(input.rows() - off);
        st.update(&input.slice(off, len)?)?;
        off += len;
    }
    st.finalize()
}

proptest! {
    /// Comparison masks over string columns equal the naive reference on
    /// either dictionary, for literal probes (hit and miss) and
    /// column-vs-column comparisons.
    #[test]
    fn eval_masks_match_naive_path(strs in string_column(5, 1..100)) {
        let naive = batch(&strs, false);
        let dict = batch(&strs, true);
        let map = ColMap::from_slots(&[0, 1]);
        let keep = |op: BinOp, o: std::cmp::Ordering| match op {
            BinOp::Eq => o.is_eq(),
            BinOp::NotEq => o.is_ne(),
            BinOp::Lt => o.is_lt(),
            _ => o.is_ge(),
        };
        // "v2" may or may not be present; "zzz" never is.
        for lit in ["v0", "v2", "zzz"] {
            for op in [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::GtEq] {
                let want: Vec<bool> = strs.iter().map(|s| keep(op, s.as_str().cmp(lit))).collect();
                let flipped_want: Vec<bool> =
                    strs.iter().map(|s| keep(op, lit.cmp(s.as_str()))).collect();
                let e = PlanExpr::bin(op, PlanExpr::Col(0), PlanExpr::Lit(Value::from(lit)));
                let flipped = PlanExpr::bin(op, PlanExpr::Lit(Value::from(lit)), PlanExpr::Col(0));
                for b in [&dict, &naive] {
                    prop_assert_eq!(e.eval_mask(b, &map).unwrap(), want.clone());
                    prop_assert_eq!(flipped.eval_mask(b, &map).unwrap(), flipped_want.clone());
                }
            }
        }
        let self_eq = PlanExpr::bin(BinOp::Eq, PlanExpr::Col(0), PlanExpr::Col(0));
        prop_assert_eq!(
            self_eq.eval_mask(&dict, &map).unwrap(),
            vec![true; strs.len()]
        );
    }

    /// Group-by on a string key produces the naive reference's rows
    /// (values *and* first-appearance order) on either dictionary,
    /// regardless of morsel size.
    #[test]
    fn group_by_matches_naive_path(
        strs in string_column(6, 1..150),
        morsel in 1usize..40,
    ) {
        let mut want: Vec<(String, i64, i64)> = Vec::new();
        for (s, x) in strs.iter().zip(ints_of(strs.len())) {
            match want.iter_mut().find(|g| &g.0 == s) {
                Some(g) => (g.1, g.2) = (g.1 + 1, g.2 + x),
                None => want.push((s.clone(), 1, x)),
            }
        }
        let want: Vec<Vec<Value>> = (want.into_iter())
            .map(|(s, n, sum)| vec![Value::Str(s), Value::Int(n), Value::Int(sum)])
            .collect();
        let naive = group_by_strings(&batch(&strs, false), morsel).unwrap();
        let dict = group_by_strings(&batch(&strs, true), morsel).unwrap();
        prop_assert_eq!(rows_of(&dict), want);
        prop_assert_eq!(dict, naive);
    }

    /// String-key hash joins produce the naive nested loop's rows on either
    /// dictionary and across the two, including probe strings absent from
    /// the build side.
    #[test]
    fn hash_join_matches_naive_path(
        build_strs in string_column(4, 1..80),
        probe_strs in string_column(6, 1..80),
        morsel in 1usize..40,
    ) {
        let out_schema = Arc::new(Schema::of(vec![
            Field::new("p0", DataType::Utf8),
            Field::new("p1", DataType::Int64),
            Field::new("b0", DataType::Utf8),
            Field::new("b1", DataType::Int64),
        ]));
        let run = |dict: bool| -> RecordBatch {
            let build = batch(&build_strs, dict);
            let probe = batch(&probe_strs, dict);
            let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
            let mut off = 0;
            while off < build.rows() {
                let len = morsel.min(build.rows() - off);
                ht.insert_batch(build.slice(off, len).unwrap()).unwrap();
                off += len;
            }
            ht.finalize().unwrap();
            ht.probe(&probe, &[0], out_schema.clone()).unwrap()
        };
        let naive = run(false);
        let dict = run(true);
        prop_assert_eq!(&dict, &naive);
        let (bi, pi) = (ints_of(build_strs.len()), ints_of(probe_strs.len()));
        let mut want: Vec<Vec<Value>> = Vec::new();
        for (p, &px) in probe_strs.iter().zip(&pi) {
            for (b, &bx) in build_strs.iter().zip(&bi).filter(|(b, _)| *b == p) {
                want.push(vec![p.clone().into(), px.into(), b.clone().into(), bx.into()]);
            }
        }
        let mut got = rows_of(&dict);
        got.sort_by_key(|r| format!("{r:?}"));
        want.sort_by_key(|r| format!("{r:?}"));
        prop_assert_eq!(got, want);

        // Cross-dictionary probe: a fresh build probed over a foreign one.
        let build = batch(&build_strs, true);
        let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
        ht.insert_batch(build).unwrap();
        ht.finalize().unwrap();
        let crossed = ht.probe(&batch(&probe_strs, false), &[0], out_schema).unwrap();
        prop_assert_eq!(&crossed, &naive);
    }

    /// The compact key encoding is `arity` words for every row of
    /// int/float/bool/dict-string key columns — one key per distinct row,
    /// in row order — and the stored words decode back to the row's values,
    /// the dictionary column through its own ids (nothing spills).
    #[test]
    fn fixed_width_keys_never_allocate(strs in string_column(5, 1..100)) {
        let n = strs.len();
        let ints = ColumnData::Int64((0..n as i64).collect());
        let floats = ColumnData::Float64((0..n).map(|i| i as f64 / 3.0).collect());
        let bools = ColumnData::Bool((0..n).map(|i| i % 2 == 0).collect());
        let dicts = ColumnData::strings(&strs);
        let cols: Vec<&ColumnData> = vec![&ints, &floats, &bools, &dicts];
        let enc = KeyEncoder::for_columns(&cols);
        let mut index = enc.new_index(0);
        let mut ids = Vec::new();
        enc.prepare(&cols)
            .unwrap()
            .ids_or_insert(&RowSet::Range(0..n), &mut index, &mut ids)
            .unwrap();
        prop_assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        let (dict_ids, _) = dicts.as_dict().unwrap();
        for row in 0..n {
            prop_assert_eq!(index.key(row).len(), cols.len());
            prop_assert_eq!(enc.dict_entry(&index, row, 3), Some(DictKeyEntry::Id(dict_ids[row])));
            let decoded: Vec<Value> = (0..cols.len())
                .map(|c| enc.key_value_at(&index, row, c))
                .collect();
            prop_assert_eq!(
                decoded,
                vec![
                    Value::Int(row as i64),
                    Value::Float(row as f64 / 3.0),
                    Value::Bool(row % 2 == 0),
                    Value::Str(strs[row].clone())
                ]
            );
        }
    }
}
