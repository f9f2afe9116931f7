//! Property tests: the dict-encoded execution path is result-identical to
//! the naive `Vec<String>` path.
//!
//! Covers the three hot paths the zero-copy refactor touched — expression
//! evaluation (filter masks), hash aggregation (group-by on string keys),
//! and hash joins (string-key build/probe) — plus the compact-key
//! guarantee: keys over int/float/bool/dict-string columns stay inline
//! (zero heap allocations per row).

use std::sync::Arc;

use ci_exec::operators::{AggregateState, JoinHashTable};
use ci_exec::{DictKeyEntry, KeyEncoder, RowSet};
use ci_plan::expr::{AggExpr, BinOp, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{DataType, Value};
use ci_storage::RecordBatch;
use ci_types::Result;
use proptest::prelude::*;

fn schema2() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Utf8),
        Field::new("s1", DataType::Int64),
    ]))
}

fn batch(strs: &[String], dict: bool) -> RecordBatch {
    let ints: Vec<i64> = (0..strs.len() as i64).map(|i| i * 3 % 17).collect();
    let col = ColumnData::Utf8(strs.to_vec());
    let col = if dict { col.dict_encoded() } else { col };
    RecordBatch::new(schema2(), vec![col, ColumnData::Int64(ints)]).unwrap()
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
    /// Comparison masks over dict columns equal the naive path, for literal
    /// probes (hit and miss) and column-vs-column comparisons.
    #[test]
    fn eval_masks_match_naive_path(strs in string_column(5, 1..100)) {
        let naive = batch(&strs, false);
        let dict = batch(&strs, true);
        let map = ColMap::from_slots(&[0, 1]);
        // "v2" may or may not be present; "zzz" never is.
        for lit in ["v0", "v2", "zzz"] {
            for op in [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::GtEq] {
                let e = PlanExpr::bin(op, PlanExpr::Col(0), PlanExpr::Lit(Value::from(lit)));
                prop_assert_eq!(
                    e.eval_mask(&dict, &map).unwrap(),
                    e.eval_mask(&naive, &map).unwrap()
                );
                let flipped = PlanExpr::bin(op, PlanExpr::Lit(Value::from(lit)), PlanExpr::Col(0));
                prop_assert_eq!(
                    flipped.eval_mask(&dict, &map).unwrap(),
                    flipped.eval_mask(&naive, &map).unwrap()
                );
            }
        }
        let self_eq = PlanExpr::bin(BinOp::Eq, PlanExpr::Col(0), PlanExpr::Col(0));
        prop_assert_eq!(
            self_eq.eval_mask(&dict, &map).unwrap(),
            vec![true; strs.len()]
        );
    }

    /// Group-by on a string key produces identical rows (values *and*
    /// order) on both encodings, regardless of morsel size.
    #[test]
    fn group_by_matches_naive_path(
        strs in string_column(6, 1..150),
        morsel in 1usize..40,
    ) {
        let naive = group_by_strings(&batch(&strs, false), morsel).unwrap();
        let dict = group_by_strings(&batch(&strs, true), morsel).unwrap();
        prop_assert_eq!(dict, naive);
    }

    /// String-key hash joins produce identical results on both encodings,
    /// including probe strings absent from the build side.
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

        // Cross-encoding probe: dict build probed with a naive batch.
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
        let dicts = ColumnData::Utf8(strs.clone()).dict_encoded();
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
