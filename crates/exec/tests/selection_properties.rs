//! Property tests: the selection-vector (late-materialization) data path is
//! bit-identical to eager materialization.
//!
//! Every property runs the same operator chain twice — once letting batches
//! carry deferred selections, once compacting after every step — and pins
//! values *and row order* equal across filter chains, projections, hash
//! aggregation, and hash-join probes, including the degenerate selections
//! (empty, full, single row) that exercise the compaction heuristic's edges.

use std::sync::Arc;

use ci_exec::operators::{apply_filter, apply_project, AggregateState, JoinHashTable};
use ci_plan::expr::{AggExpr, BinOp, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{DataType, Value};
use ci_storage::{RecordBatch, SelectionVector};
use ci_types::{DetRng, Result};
use proptest::prelude::*;

fn schema2() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Utf8),
        Field::new("s1", DataType::Int64),
    ]))
}

/// `strs` and an int payload; the strings over a fresh dictionary when
/// `dict` says so, else over a foreign one that first interns decoys and
/// `strs` in reverse (other ids, unreferenced entries).
fn batch(strs: &[String], dict: bool) -> RecordBatch {
    let ints: Vec<i64> = (0..strs.len() as i64).map(|i| i * 5 % 23).collect();
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
    RecordBatch::new(schema2(), vec![col, ColumnData::Int64(ints)]).unwrap()
}

/// A deterministic predicate chain drawn from `seed`: alternating dict-able
/// string comparisons and int comparisons with varied selectivity.
fn pred_chain(seed: u64) -> Vec<PlanExpr> {
    let mut rng = DetRng::seed_from_u64(seed);
    let ops = [BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq, BinOp::NotEq];
    (0..3)
        .map(|i| {
            let op = ops[rng.u64_below(ops.len() as u64) as usize];
            if i % 2 == 0 {
                let lit = format!("v{}", rng.u64_below(6));
                PlanExpr::bin(op, PlanExpr::Col(0), PlanExpr::Lit(Value::Str(lit)))
            } else {
                let lit = rng.u64_below(23) as i64;
                PlanExpr::bin(op, PlanExpr::Col(1), PlanExpr::Lit(Value::Int(lit)))
            }
        })
        .collect()
}

/// Runs a filter chain + projection; `eager` compacts after every operator
/// (the pre-selection-vector behaviour).
fn filter_project(input: &RecordBatch, preds: &[PlanExpr], eager: bool) -> Result<RecordBatch> {
    let map = ColMap::from_slots(&[0, 1]);
    let mut cur = input.clone();
    for pred in preds {
        cur = apply_filter(&cur, pred, &map)?;
        if eager {
            cur = cur.compacted();
        }
    }
    let out_schema = Arc::new(Schema::of(vec![
        Field::new("v", DataType::Int64),
        Field::new("g", DataType::Utf8),
    ]));
    let exprs = vec![
        (PlanExpr::Col(1), "v".to_owned()),
        (PlanExpr::Col(0), "g".to_owned()),
    ];
    apply_project(&cur, &exprs, &map, out_schema)
}

fn group_by(input: &RecordBatch, morsel: usize, eager: bool) -> Result<RecordBatch> {
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
        let chunk = input.slice(off, len)?;
        st.update(&if eager { chunk.compacted() } else { chunk })?;
        off += len;
    }
    st.finalize()
}

proptest! {
    /// Filter→filter→filter→project chains produce identical rows in
    /// identical order whether selections are carried or compacted at every
    /// step — on both string encodings.
    #[test]
    fn filter_chains_match_eager_materialization(
        strs in string_column(6, 1..150),
        seed in 0u64..500,
    ) {
        let preds = pred_chain(seed);
        for dict in [false, true] {
            let input = batch(&strs, dict);
            let lazy = filter_project(&input, &preds, false).unwrap();
            let eager = filter_project(&input, &preds, true).unwrap();
            prop_assert_eq!(&lazy, &eager);
            prop_assert_eq!(lazy.rows(), eager.rows());
            for i in 0..lazy.rows() {
                prop_assert_eq!(lazy.row(i), eager.row(i), "row {} diverged", i);
            }
        }
    }

    /// A filter over an already-selected batch composes selections without
    /// touching column data (when density stays above the compaction
    /// threshold, the physical columns remain the scan's own Arcs).
    #[test]
    fn composed_filters_share_columns(strs in string_column(4, 8..120)) {
        let input = batch(&strs, true);
        // ~75% then ~66% survivors: composed density stays >= 1/16.
        let map = ColMap::from_slots(&[0, 1]);
        let p1 = PlanExpr::bin(BinOp::NotEq, PlanExpr::Col(0), PlanExpr::Lit(Value::from("v0")));
        let p2 = PlanExpr::bin(BinOp::Lt, PlanExpr::Col(1), PlanExpr::Lit(Value::Int(16)));
        let once = apply_filter(&input, &p1, &map).unwrap();
        let twice = apply_filter(&once, &p2, &map).unwrap();
        if let Some(sel) = twice.selection() {
            prop_assert!(sel.density() >= 1.0 / 16.0);
            for i in 0..2 {
                prop_assert!(
                    Arc::ptr_eq(&twice.columns()[i], &input.columns()[i]),
                    "column {} was copied by a composed filter", i
                );
            }
        } else {
            // Compacted: only legal when the survivors were sparse or full.
            let density = twice.rows() as f64 / input.rows() as f64;
            prop_assert!(density < 1.0 / 16.0 || twice.rows() == input.rows());
        }
    }

    /// Hash aggregation over selected morsels equals aggregation over their
    /// compacted equivalents — values and group order — for any morsel size.
    #[test]
    fn group_by_matches_eager_materialization(
        strs in string_column(5, 1..120),
        seed in 0u64..300,
        morsel in 1usize..40,
    ) {
        let pred = pred_chain(seed).remove(0);
        let map = ColMap::from_slots(&[0, 1]);
        for dict in [false, true] {
            let filtered = apply_filter(&batch(&strs, dict), &pred, &map).unwrap();
            let lazy = group_by(&filtered, morsel, false).unwrap();
            let eager = group_by(&filtered, morsel, true).unwrap();
            prop_assert_eq!(lazy, eager);
        }
    }

    /// Join probes over selected batches equal probes over their compacted
    /// equivalents, including probe strings absent from the build side.
    #[test]
    fn join_probe_matches_eager_materialization(
        build_strs in string_column(4, 1..80),
        probe_strs in string_column(6, 1..100),
        seed in 0u64..300,
    ) {
        let out_schema = Arc::new(Schema::of(vec![
            Field::new("p0", DataType::Utf8),
            Field::new("p1", DataType::Int64),
            Field::new("b0", DataType::Utf8),
            Field::new("b1", DataType::Int64),
        ]));
        let pred = pred_chain(seed).remove(0);
        let map = ColMap::from_slots(&[0, 1]);
        for dict in [false, true] {
            let build = batch(&build_strs, dict);
            let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
            // Build from *selected* morsels too (finalize compacts them).
            ht.insert_batch(apply_filter(&build, &pred, &map).unwrap()).unwrap();
            ht.finalize().unwrap();
            let probe = apply_filter(&batch(&probe_strs, dict), &pred, &map).unwrap();
            let lazy = ht.probe(&probe, &[0], out_schema.clone()).unwrap();
            let eager = ht.probe(&probe.compacted(), &[0], out_schema.clone()).unwrap();
            prop_assert_eq!(lazy, eager);
        }
    }
}

/// Degenerate selections: empty, full, and single-row.
#[test]
fn edge_selections_stay_bit_identical() {
    let strs: Vec<String> = (0..32).map(|i| format!("v{}", i % 5)).collect();
    for dict in [false, true] {
        let input = batch(&strs, dict);
        let n = input.rows();

        // Empty selection: compacts to an empty dense batch everywhere.
        let none = input.filter(&vec![false; n]).unwrap();
        assert!(none.is_empty());
        assert_eq!(none, input.compacted().filter(&vec![false; n]).unwrap());
        assert_eq!(group_by(&none, 7, false).unwrap().rows(), 0);

        // Full selection: drops the selection, shares all columns.
        let all = input.filter(&vec![true; n]).unwrap();
        assert!(all.selection().is_none());
        assert_eq!(all, input);

        // Single-row selection (sparse → compacted) vs an explicit one-row
        // selection attached by hand.
        let mut one = vec![false; n];
        one[17] = true;
        let single = input.filter(&one).unwrap();
        assert_eq!(single.rows(), 1);
        assert_eq!(single.row(0), input.row(17));
        let by_hand = input
            .select(SelectionVector::from_indices(vec![17], n).unwrap())
            .unwrap();
        assert_eq!(single, by_hand);
        assert_eq!(
            group_by(&single, 3, false).unwrap(),
            group_by(&by_hand, 3, true).unwrap()
        );
    }
}
