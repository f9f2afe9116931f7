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
//! dense, range-selected and index-selected batches. Conjunction chains —
//! the shape a filter refines survivor by survivor, folding int bounds into
//! one interval — get their own generator, with a dictionary string column.

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
const STR: usize = 4;

/// The string column's values; the chains also compare against a literal
/// no row holds.
const STRS: [&str; 3] = ["a", "b", "ab"];

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

/// The reference value of an operand at one row; `row_str` is the row's
/// string, which only the chains read.
fn operand(e: &PlanExpr, row: &Row, row_str: &str) -> Value {
    match e {
        PlanExpr::Col(INT) => Value::Int(row.0),
        PlanExpr::Col(FLOAT) => Value::Float(row.1),
        PlanExpr::Col(BOOL) => Value::Bool(row.2),
        PlanExpr::Col(STR) => Value::from(row_str),
        PlanExpr::Lit(v) => v.clone(),
        other => panic!("not an operand: {other}"),
    }
}

/// The reference verdict of `e` at one row.
fn verdict(e: &PlanExpr, row: &Row) -> bool {
    verdict_with(e, row, "")
}

/// [`verdict`] at a row whose string is `row_str`.
fn verdict_with(e: &PlanExpr, row: &Row, row_str: &str) -> bool {
    let (op, left, right) = match e {
        PlanExpr::Not(inner) => return !verdict_with(inner, row, row_str),
        PlanExpr::Bin {
            op: BinOp::And,
            left,
            right,
        } => return verdict_with(left, row, row_str) & verdict_with(right, row, row_str),
        PlanExpr::Bin {
            op: BinOp::Or,
            left,
            right,
        } => return verdict_with(left, row, row_str) | verdict_with(right, row, row_str),
        PlanExpr::Bin { op, left, right } => (*op, left, right),
        other => panic!("not a predicate: {other}"),
    };
    let nan_equal = |x: f64, y: f64| x.partial_cmp(&y).unwrap_or(Ordering::Equal);
    let ord = match (operand(left, row, row_str), operand(right, row, row_str)) {
        (Value::Int(x), Value::Int(y)) => x.cmp(&y),
        (Value::Int(x), Value::Float(y)) => nan_equal(x as f64, y),
        (Value::Float(x), Value::Int(y)) => nan_equal(x, y as f64),
        (Value::Float(x), Value::Float(y)) => nan_equal(x, y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
        (Value::Str(x), Value::Str(y)) => x.cmp(&y),
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

/// [`dense_batch`] plus a dictionary string column: row `i` holds
/// `STRS[strs[i]]`.
fn string_batch(rows: &[Row], strs: &[usize]) -> RecordBatch {
    let schema = Arc::new(Schema::of(vec![
        Field::new("i", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("b", DataType::Bool),
        Field::new("row", DataType::Int64),
        Field::new("s", DataType::Utf8),
    ]));
    let mut columns: Vec<ColumnData> = dense_batch(rows)
        .columns()
        .iter()
        .map(|c| (**c).clone())
        .collect();
    columns.push(ColumnData::strings(
        (0..rows.len()).map(|i| STRS[strs[i] % STRS.len()]),
    ));
    RecordBatch::new(schema, columns).unwrap()
}

/// The three batch shapes over one set of rows, each with the physical row
/// of every logical row: dense; a range run `[start, start + len)`; and the
/// even rows plus the odd rows whose coin is set (at least half the rows,
/// so the batch keeps its selection instead of compacting).
fn shapes(rows: &[Row], start: usize, len: usize) -> Vec<(RecordBatch, Vec<usize>)> {
    shapes_of(dense_batch(rows), rows, start, len)
}

/// [`shapes`] over a given dense batch of `rows`.
fn shapes_of(
    dense: RecordBatch,
    rows: &[Row],
    start: usize,
    len: usize,
) -> Vec<(RecordBatch, Vec<usize>)> {
    let n = rows.len();
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

/// Literals around the `i64` extremes and the generated ints, so bounds
/// hit rows, sit next to them and overflow when moved by one.
const BOUNDS: [i64; 9] = [
    i64::MIN,
    i64::MIN + 1,
    -2,
    -1,
    0,
    1,
    3,
    i64::MAX - 1,
    i64::MAX,
];

/// An int comparison on the `Int64` column against an int literal, the
/// literal on either side: what a filter folds into one interval.
fn int_bound() -> impl Strategy<Value = PlanExpr> {
    (select(OPS.to_vec()), select(BOUNDS.to_vec()), any::<bool>()).prop_map(|(op, y, flip)| {
        let (col, lit) = (PlanExpr::Col(INT), PlanExpr::Lit(Value::Int(y)));
        if flip {
            PlanExpr::bin(op, lit, col)
        } else {
            PlanExpr::bin(op, col, lit)
        }
    })
}

/// Any conjunct a chain may hold: int bounds; the `Int64` column against a
/// float literal (compared in f64, never an int interval); float bounds
/// over NaN, ±0.0 and ±inf; dictionary string `=` / `<>`; and conjuncts no
/// kernel takes — an `OR`, a column–column comparison.
fn conjunct() -> impl Strategy<Value = PlanExpr> {
    let op = || select(OPS.to_vec());
    prop_oneof![
        int_bound(),
        int_bound(),
        (op(), select(FLOATS.to_vec())).prop_map(|(op, y)| PlanExpr::bin(
            op,
            PlanExpr::Col(INT),
            PlanExpr::Lit(Value::Float(y))
        )),
        (op(), select(FLOATS.to_vec())).prop_map(|(op, y)| PlanExpr::bin(
            op,
            PlanExpr::Col(FLOAT),
            PlanExpr::Lit(Value::Float(y))
        )),
        (op(), select(BOUNDS.to_vec())).prop_map(|(op, y)| PlanExpr::bin(
            op,
            PlanExpr::Lit(Value::Int(y)),
            PlanExpr::Col(FLOAT)
        )),
        (
            select(vec![BinOp::Eq, BinOp::NotEq]),
            select(vec!["a", "b", "ab", "absent"])
        )
            .prop_map(|(op, y)| PlanExpr::bin(
                op,
                PlanExpr::Col(STR),
                PlanExpr::Lit(Value::from(y))
            )),
        (int_bound(), int_bound()).prop_map(|(l, r)| PlanExpr::bin(BinOp::Or, l, r)),
        op().prop_map(|op| PlanExpr::bin(op, PlanExpr::Col(INT), PlanExpr::Col(FLOAT))),
    ]
}

/// `AND` of the parts, nested to the left or to the right.
fn and_chain(parts: Vec<PlanExpr>, right: bool) -> PlanExpr {
    let mut parts = parts.into_iter();
    let first = parts.next().expect("a chain has a conjunct");
    if right {
        let rest: Vec<PlanExpr> = parts.collect();
        rest.into_iter()
            .rev()
            .chain(std::iter::once(first))
            .reduce(|acc, e| PlanExpr::bin(BinOp::And, e, acc))
            .expect("non-empty")
    } else {
        parts.fold(first, |acc, e| PlanExpr::bin(BinOp::And, acc, e))
    }
}

/// Chains of 2–4 conjuncts: int bounds on one column alone (agreeing,
/// contradictory, at the extremes), or any mix of conjuncts.
fn chain() -> impl Strategy<Value = PlanExpr> {
    prop_oneof![
        (proptest::collection::vec(int_bound(), 2..5), any::<bool>())
            .prop_map(|(parts, right)| and_chain(parts, right)),
        (proptest::collection::vec(conjunct(), 2..5), any::<bool>())
            .prop_map(|(parts, right)| and_chain(parts, right)),
    ]
}

/// Every pair of int bounds, the literal on either side, over a batch that
/// holds every generated int, in every batch shape: the folded interval's
/// edges (`> i64::MAX`, `< i64::MIN`, contradictions, one value) checked
/// exhaustively rather than by sampling.
#[test]
fn int_bound_pairs_match_the_oracle_exhaustively() {
    let bounds: Vec<PlanExpr> = (OPS.iter())
        .flat_map(|&op| BOUNDS.iter().map(move |&y| (op, y)))
        .flat_map(|(op, y)| {
            let (col, lit) = (PlanExpr::Col(INT), PlanExpr::Lit(Value::Int(y)));
            [
                PlanExpr::bin(op, col.clone(), lit.clone()),
                PlanExpr::bin(op, lit, col),
            ]
        })
        .collect();
    let rows: Vec<Row> = (INTS.iter().chain(&INTS))
        .enumerate()
        .map(|(i, &x)| (x, 0.0, false, i % 3 == 0))
        .collect();
    let map = ColMap::from_slots(&[INT, FLOAT, BOOL, ROW_ID]);
    for (batch, phys) in shapes(&rows, 3, 11) {
        for first in &bounds {
            for second in &bounds {
                let pred = PlanExpr::bin(BinOp::And, first.clone(), second.clone());
                let kept: Vec<usize> = phys
                    .iter()
                    .copied()
                    .filter(|&p| verdict(&pred, &rows[p]))
                    .collect();
                let filtered = apply_filter(&batch, &pred, &map).unwrap();
                assert_eq!(row_ids(&filtered), kept, "{pred}");
            }
        }
    }
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

    /// A conjunction chain's filter — survivors refined conjunct by
    /// conjunct, int bounds folded into one interval — keeps exactly the
    /// rows the reference keeps, and its mask is the reference's, in every
    /// batch shape.
    #[test]
    fn conjunction_chains_match_a_row_at_a_time_oracle(
        rows in rows(),
        strs in proptest::collection::vec(0usize..3, 160usize),
        pred in chain(),
        run in (0usize..1000, 0usize..1000)
    ) {
        let map = ColMap::from_slots(&[INT, FLOAT, BOOL, ROW_ID, STR]);
        let row_str = |p: usize| STRS[strs[p] % STRS.len()];
        let dense = string_batch(&rows, &strs);
        for (batch, phys) in shapes_of(dense, &rows, run.0, run.1) {
            let want: Vec<bool> =
                phys.iter().map(|&p| verdict_with(&pred, &rows[p], row_str(p))).collect();
            let mask = pred.eval_mask(&batch, &map).unwrap();
            prop_assert_eq!(&mask, &want, "{} over {} of {} rows", pred, phys.len(), rows.len());
            let kept: Vec<usize> = phys.iter().zip(&want).filter(|&(_, &k)| k).map(|(&p, _)| p).collect();
            // Survivors are physical rows of `batch`, which a sparse
            // selection compacted; its row-id column names the rows.
            let survivors = pred.survivors(&batch, &map).unwrap();
            let ids = batch.column(ROW_ID).as_i64().unwrap();
            let named: Vec<usize> = survivors.iter().map(|p| ids[p] as usize).collect();
            prop_assert_eq!(named, kept.clone(), "{}", pred);
            prop_assert_eq!(survivors.total(), batch.physical_rows());
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
