//! Property tests: predicate masks and the selections built from them,
//! judged by a row-at-a-time reference written here, not by the engine.
//!
//! `PlanExpr::eval` of a boolean expression is `eval_mask`, so the engine
//! cannot be its own oracle. The reference compares each row's two values
//! with `partial_cmp().unwrap_or(Equal)` (NaN compares Equal, ints against
//! floats in f64), maps the ordering to the operator's verdict, and folds
//! `AND` / `OR` / `NOT` per row; selections are `filter`-`collect`s of the
//! physical row numbers. Columns mix NaN, ±0.0, ±inf and the `i64`
//! extremes; predicates nest, put literals on either side, and run over
//! dense, range-selected and index-selected batches.

use std::cmp::Ordering;
use std::sync::Arc;

use ci_exec::operators::apply_filter;
use ci_plan::expr::{BinOp, ColMap, PlanExpr};
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::value::{DataType, Value};
use ci_storage::{RecordBatch, SelectionVector};
use proptest::prelude::*;

const INTS: [i64; 10] = [
    i64::MIN,
    i64::MIN + 1,
    -3,
    -1,
    0,
    1,
    3,
    9_007_199_254_740_993, // 2^53 + 1: not exact in f64
    i64::MAX - 1,
    i64::MAX,
];

const FLOATS: [f64; 13] = [
    f64::NAN,
    f64::NEG_INFINITY,
    f64::INFINITY,
    0.0,
    -0.0,
    -1.0,
    1.0,
    2.5,
    3.0,
    9_007_199_254_740_992.0,     // 2^53
    9_223_372_036_854_775_807.0, // i64::MAX as f64 = 2^63
    -9_223_372_036_854_775_808.0,
    f64::MIN_POSITIVE,
];

const OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];

/// Slots of the test batch: an int, a float and a bool column, then the
/// physical row number (which the predicates never read).
const INT: usize = 0;
const FLOAT: usize = 1;
const BOOL: usize = 2;
const ROW_ID: usize = 3;

/// One generated row: its three values and a coin that decides whether the
/// index-selected batch keeps it.
type Row = (i64, f64, bool, bool);

fn rows() -> impl Strategy<Value = Vec<Row>> {
    let row = (
        select(INTS.to_vec()),
        select(FLOATS.to_vec()),
        any::<bool>(),
        any::<bool>(),
    );
    proptest::collection::vec(row, 0..160)
}

/// A numeric operand: either numeric column or a literal of either type.
fn numeric() -> impl Strategy<Value = PlanExpr> {
    prop_oneof![
        Just(PlanExpr::Col(INT)),
        Just(PlanExpr::Col(FLOAT)),
        select(INTS.to_vec()).prop_map(|x| PlanExpr::Lit(Value::Int(x))),
        select(FLOATS.to_vec()).prop_map(|x| PlanExpr::Lit(Value::Float(x))),
    ]
}

fn boolean() -> impl Strategy<Value = PlanExpr> {
    prop_oneof![
        Just(PlanExpr::Col(BOOL)),
        any::<bool>().prop_map(|b| PlanExpr::Lit(Value::Bool(b))),
    ]
}

/// Nested `AND` / `OR` / `NOT` over comparisons in every operand order.
fn predicate() -> impl Strategy<Value = PlanExpr> {
    let op = || select(OPS.to_vec());
    let comparison = prop_oneof![
        (op(), numeric(), numeric()).prop_map(|(op, l, r)| PlanExpr::bin(op, l, r)),
        (op(), boolean(), boolean()).prop_map(|(op, l, r)| PlanExpr::bin(op, l, r)),
    ];
    comparison.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| PlanExpr::bin(BinOp::And, l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| PlanExpr::bin(BinOp::Or, l, r)),
            inner.prop_map(|e| PlanExpr::Not(Box::new(e))),
        ]
    })
}

/// The reference value of an operand at one row.
fn operand(e: &PlanExpr, row: &Row) -> Value {
    match e {
        PlanExpr::Col(INT) => Value::Int(row.0),
        PlanExpr::Col(FLOAT) => Value::Float(row.1),
        PlanExpr::Col(BOOL) => Value::Bool(row.2),
        PlanExpr::Lit(v) => v.clone(),
        other => panic!("not an operand: {other}"),
    }
}

/// The reference verdict of `e` at one row.
fn verdict(e: &PlanExpr, row: &Row) -> bool {
    let (op, left, right) = match e {
        PlanExpr::Not(inner) => return !verdict(inner, row),
        PlanExpr::Bin {
            op: BinOp::And,
            left,
            right,
        } => return verdict(left, row) & verdict(right, row),
        PlanExpr::Bin {
            op: BinOp::Or,
            left,
            right,
        } => return verdict(left, row) | verdict(right, row),
        PlanExpr::Bin { op, left, right } => (*op, left, right),
        other => panic!("not a predicate: {other}"),
    };
    let nan_equal = |x: f64, y: f64| x.partial_cmp(&y).unwrap_or(Ordering::Equal);
    let ord = match (operand(left, row), operand(right, row)) {
        (Value::Int(x), Value::Int(y)) => x.cmp(&y),
        (Value::Int(x), Value::Float(y)) => nan_equal(x as f64, y),
        (Value::Float(x), Value::Int(y)) => nan_equal(x, y as f64),
        (Value::Float(x), Value::Float(y)) => nan_equal(x, y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
        (l, r) => panic!("ill-typed comparison {l:?} vs {r:?}"),
    };
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        other => panic!("not a comparison: {other:?}"),
    }
}

fn dense_batch(rows: &[Row]) -> RecordBatch {
    let schema = Arc::new(Schema::of(vec![
        Field::new("i", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("b", DataType::Bool),
        Field::new("row", DataType::Int64),
    ]));
    let columns = vec![
        ColumnData::Int64(rows.iter().map(|r| r.0).collect()),
        ColumnData::Float64(rows.iter().map(|r| r.1).collect()),
        ColumnData::Bool(rows.iter().map(|r| r.2).collect()),
        ColumnData::Int64((0..rows.len() as i64).collect()),
    ];
    RecordBatch::new(schema, columns).unwrap()
}

/// The three batch shapes over one set of rows, each with the physical row
/// of every logical row: dense; a range run `[start, start + len)`; and the
/// even rows plus the odd rows whose coin is set (at least half the rows,
/// so the batch keeps its selection instead of compacting).
fn shapes(rows: &[Row], start: usize, len: usize) -> Vec<(RecordBatch, Vec<usize>)> {
    let n = rows.len();
    let dense = dense_batch(rows);
    let start = start % (n + 1);
    let len = len % (n - start + 1);
    let run = SelectionVector::from_range(start, len, n).unwrap();
    let picked: Vec<usize> = (0..n).filter(|&i| i % 2 == 0 || rows[i].3).collect();
    let indices = picked.iter().map(|&i| i as u32).collect();
    let scattered = SelectionVector::from_indices(indices, n).unwrap();
    vec![
        (dense.select(run).unwrap(), (start..start + len).collect()),
        (dense.select(scattered).unwrap(), picked),
        (dense, (0..n).collect()),
    ]
}

/// Physical rows of a batch's logical rows, read from its row-id column.
fn row_ids(batch: &RecordBatch) -> Vec<usize> {
    let ids = PlanExpr::Col(ROW_ID)
        .eval(batch, &ColMap::from_slots(&[INT, FLOAT, BOOL, ROW_ID]))
        .unwrap();
    ids.as_i64().unwrap().iter().map(|&i| i as usize).collect()
}

proptest! {
    /// `eval_mask`, `eval` and the filter the engine applies agree with the
    /// reference on every row, in every batch shape.
    #[test]
    fn masks_match_a_row_at_a_time_oracle(
        rows in rows(),
        pred in predicate(),
        run in (0usize..1000, 0usize..1000)
    ) {
        let map = ColMap::from_slots(&[INT, FLOAT, BOOL, ROW_ID]);
        for (batch, phys) in shapes(&rows, run.0, run.1) {
            prop_assert_eq!(row_ids(&batch), phys.clone());
            let want: Vec<bool> = phys.iter().map(|&p| verdict(&pred, &rows[p])).collect();
            let mask = pred.eval_mask(&batch, &map).unwrap();
            prop_assert_eq!(&mask, &want, "{} over {} of {} rows", pred, phys.len(), rows.len());
            prop_assert_eq!(pred.eval(&batch, &map).unwrap(), ColumnData::Bool(want.clone()));
            let kept: Vec<usize> = phys.iter().zip(&want).filter(|&(_, &k)| k).map(|(&p, _)| p).collect();
            let filtered = apply_filter(&batch, &pred, &map).unwrap();
            prop_assert_eq!(row_ids(&filtered), kept, "{}", pred);
        }
    }

    /// `from_mask` and `refine` are the naive index collections, whatever
    /// the selection's shape.
    #[test]
    fn selections_match_naive_index_collection(
        rows in rows(),
        keep in proptest::collection::vec(any::<bool>(), 160usize),
        run in (0usize..1000, 0usize..1000)
    ) {
        let n = rows.len();
        let mask = &keep[..n];
        let naive: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
        let sel = SelectionVector::from_mask(mask);
        prop_assert_eq!(sel.iter().collect::<Vec<_>>(), naive);
        prop_assert_eq!(sel.total(), n);
        for (batch, phys) in shapes(&rows, run.0, run.1) {
            let Some(sel) = batch.selection() else { continue };
            let verdicts = &keep[..phys.len()];
            let naive: Vec<usize> =
                phys.iter().zip(verdicts).filter(|&(_, &k)| k).map(|(&p, _)| p).collect();
            let refined = sel.refine(verdicts).unwrap();
            prop_assert_eq!(refined.iter().collect::<Vec<_>>(), naive);
            prop_assert_eq!(refined.total(), n);
        }
    }
}
