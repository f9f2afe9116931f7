//! Name-resolved, executable expressions.
//!
//! After binding, every column reference is a **global slot**: the offset of
//! the column in the concatenation of all base-relation schemas (in relation
//! order). Global slots are stable under join reordering — an operator's
//! output is described by the list of global slots it carries, and a
//! [`ColMap`] translates slots to physical batch positions at evaluation
//! time. `BETWEEN` and `IN` are desugared at bind time, so the executable
//! core stays small.
//!
//! **Evaluation model.** Predicates are evaluated as boolean masks by
//! [`PlanExpr::eval_mask`], which owns the boolean structure: `AND` / `OR`
//! fold the right operand's mask into the left one in place, `NOT` inverts
//! its operand's mask in place, and a comparison between a column and a
//! literal (in either order) is one loop per column type and operator that
//! reads the column where it lies — through the batch's selection when it
//! carries one — with no column copy and no literal broadcast. String
//! literals against dictionary columns are resolved once per dictionary
//! entry. Other comparisons evaluate both operands and compare them row by
//! row. [`PlanExpr::eval`] of a boolean expression wraps the mask, so there
//! is exactly one comparison path.
//!
//! **NaN compares Equal.** Float comparisons follow
//! `partial_cmp().unwrap_or(Equal)`: a NaN on either side makes `=`, `<=`
//! and `>=` true and `<>`, `<`, `>` false. The kernels state this without a
//! branch (`<=` is `!(x > y)`, `=` is `!(x < y) & !(x > y)`). It is today's
//! behaviour, not SQL's; changing it changes results.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::value::{DataType, Value};
use ci_storage::{RecordBatch, SelectionVector};
use ci_types::{CiError, Result};

/// Executable binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical OR (bool × bool).
    Or,
    /// Logical AND (bool × bool).
    And,
    /// Equality (any matching type).
    Eq,
    /// Inequality.
    NotEq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    LtEq,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    GtEq,
    /// Addition (numeric).
    Add,
    /// Subtraction (numeric).
    Sub,
    /// Multiplication (numeric).
    Mul,
    /// Division (numeric; always float result).
    Div,
}

impl BinOp {
    /// `true` for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Maps global column slots to positions within a concrete batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColMap {
    map: HashMap<usize, usize>,
}

impl ColMap {
    /// Builds a map from the list of global slots a batch carries, in batch
    /// column order.
    pub fn from_slots(slots: &[usize]) -> ColMap {
        ColMap {
            map: slots.iter().enumerate().map(|(i, &g)| (g, i)).collect(),
        }
    }

    /// Physical position of a global slot.
    pub fn position(&self, slot: usize) -> Result<usize> {
        self.map
            .get(&slot)
            .copied()
            .ok_or_else(|| CiError::Exec(format!("column slot {slot} not present in batch")))
    }

    /// Number of mapped slots.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no slots are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanExpr {
    /// Reference to a global column slot.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<PlanExpr>,
        /// Right operand.
        right: Box<PlanExpr>,
    },
    /// Logical negation.
    Not(Box<PlanExpr>),
    /// Arithmetic negation.
    Neg(Box<PlanExpr>),
}

impl PlanExpr {
    /// Convenience constructor.
    pub fn bin(op: BinOp, left: PlanExpr, right: PlanExpr) -> PlanExpr {
        PlanExpr::Bin {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Collects referenced global slots.
    pub fn slots(&self, out: &mut Vec<usize>) {
        match self {
            PlanExpr::Col(s) => out.push(*s),
            PlanExpr::Lit(_) => {}
            PlanExpr::Bin { left, right, .. } => {
                left.slots(out);
                right.slots(out);
            }
            PlanExpr::Not(e) | PlanExpr::Neg(e) => e.slots(out),
        }
    }

    /// Infers the output type given a resolver from slot to [`DataType`].
    pub fn data_type(&self, slot_type: &dyn Fn(usize) -> Result<DataType>) -> Result<DataType> {
        match self {
            PlanExpr::Col(s) => slot_type(*s),
            PlanExpr::Lit(v) => Ok(v.data_type()),
            PlanExpr::Bin { op, left, right } => {
                if *op == BinOp::And || *op == BinOp::Or || op.is_comparison() {
                    return Ok(DataType::Bool);
                }
                let lt = left.data_type(slot_type)?;
                let rt = right.data_type(slot_type)?;
                match (*op, lt, rt) {
                    (BinOp::Div, _, _) => Ok(DataType::Float64),
                    (_, DataType::Int64, DataType::Int64) => Ok(DataType::Int64),
                    (_, DataType::Int64, DataType::Float64)
                    | (_, DataType::Float64, DataType::Int64)
                    | (_, DataType::Float64, DataType::Float64) => Ok(DataType::Float64),
                    (op, lt, rt) => Err(CiError::Plan(format!("type error: {lt} {op:?} {rt}"))),
                }
            }
            PlanExpr::Not(_) => Ok(DataType::Bool),
            PlanExpr::Neg(e) => {
                let t = e.data_type(slot_type)?;
                match t {
                    DataType::Int64 | DataType::Float64 => Ok(t),
                    other => Err(CiError::Plan(format!("cannot negate {other}"))),
                }
            }
        }
    }

    /// Evaluates over a batch, returning one column of `batch.rows()`
    /// *logical* values: when the batch carries a selection (a deferred
    /// filter), column references gather the selected rows and predicates
    /// read through the selection in place, so downstream operators never
    /// see unselected rows. A boolean expression is its
    /// [`PlanExpr::eval_mask`].
    pub fn eval(&self, batch: &RecordBatch, map: &ColMap) -> Result<ColumnData> {
        match self {
            PlanExpr::Col(s) => {
                let col = batch.column(map.position(*s)?);
                Ok(match batch.selection() {
                    None => col.clone(),
                    Some(sel) => col.gather(sel),
                })
            }
            PlanExpr::Lit(v) => Ok(broadcast(v, batch.rows())),
            PlanExpr::Bin {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div),
                left,
                right,
            } => arith(*op, &left.eval(batch, map)?, &right.eval(batch, map)?),
            PlanExpr::Bin { .. } | PlanExpr::Not(_) => {
                Ok(ColumnData::Bool(self.eval_mask(batch, map)?))
            }
            PlanExpr::Neg(e) => {
                let inner = e.eval(batch, map)?;
                match inner {
                    ColumnData::Int64(v) => Ok(ColumnData::Int64(v.iter().map(|x| -x).collect())),
                    ColumnData::Float64(v) => {
                        Ok(ColumnData::Float64(v.iter().map(|x| -x).collect()))
                    }
                    other => Err(CiError::Exec(format!(
                        "cannot negate {} column",
                        other.data_type()
                    ))),
                }
            }
        }
    }

    /// Evaluates an expression expected to be boolean, returning one verdict
    /// per logical row. `AND` / `OR` evaluate both sides, left first, and
    /// fold the right mask into the left one; `NOT` inverts in place; a
    /// column–literal comparison is a kernel over the column as stored.
    pub fn eval_mask(&self, batch: &RecordBatch, map: &ColMap) -> Result<Vec<bool>> {
        match self {
            PlanExpr::Bin {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => {
                let mut mask = left.eval_mask(batch, map)?;
                let rhs = right.eval_mask(batch, map)?;
                if *op == BinOp::And {
                    mask.iter_mut().zip(&rhs).for_each(|(m, &r)| *m &= r);
                } else {
                    mask.iter_mut().zip(&rhs).for_each(|(m, &r)| *m |= r);
                }
                Ok(mask)
            }
            PlanExpr::Not(e) => {
                let mut mask = e.eval_mask(batch, map)?;
                mask.iter_mut().for_each(|m| *m = !*m);
                Ok(mask)
            }
            PlanExpr::Bin { op, left, right } => match Cmp::of(*op) {
                Some(cmp) => match literal_compare(cmp, left, right, batch, map)? {
                    Some(mask) => Ok(mask),
                    None => compare(cmp, &left.eval(batch, map)?, &right.eval(batch, map)?),
                },
                None => into_mask(self.eval(batch, map)?),
            },
            other => into_mask(other.eval(batch, map)?),
        }
    }
}

/// A boolean column's values; any other column is a type error.
fn into_mask(col: ColumnData) -> Result<Vec<bool>> {
    match col {
        ColumnData::Bool(mask) => Ok(mask),
        col => Err(CiError::Exec(format!(
            "expected BOOLEAN column, got {}",
            col.data_type()
        ))),
    }
}

impl fmt::Display for PlanExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanExpr::Col(s) => write!(f, "#{s}"),
            PlanExpr::Lit(v) => write!(f, "{v}"),
            PlanExpr::Bin { op, left, right } => write!(f, "({left} {op:?} {right})"),
            PlanExpr::Not(e) => write!(f, "(NOT {e})"),
            PlanExpr::Neg(e) => write!(f, "(-{e})"),
        }
    }
}

/// A comparison operator, resolved once per expression node.
#[derive(Clone, Copy)]
enum Cmp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl Cmp {
    /// The comparison `op` names, `None` for logical and arithmetic ops.
    fn of(op: BinOp) -> Option<Cmp> {
        Some(match op {
            BinOp::Eq => Cmp::Eq,
            BinOp::NotEq => Cmp::NotEq,
            BinOp::Lt => Cmp::Lt,
            BinOp::LtEq => Cmp::LtEq,
            BinOp::Gt => Cmp::Gt,
            BinOp::GtEq => Cmp::GtEq,
            BinOp::Or | BinOp::And | BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                return None
            }
        })
    }

    /// The comparison with its operands swapped: `lit < col` is
    /// `col > lit`. Flipped, not negated.
    fn flipped(self) -> Cmp {
        match self {
            Cmp::Lt => Cmp::Gt,
            Cmp::Gt => Cmp::Lt,
            Cmp::LtEq => Cmp::GtEq,
            Cmp::GtEq => Cmp::LtEq,
            Cmp::Eq | Cmp::NotEq => self,
        }
    }

    /// The verdict for an ordering.
    fn keep(self, o: Ordering) -> bool {
        match self {
            Cmp::Eq => o == Ordering::Equal,
            Cmp::NotEq => o != Ordering::Equal,
            Cmp::Lt => o == Ordering::Less,
            Cmp::LtEq => o != Ordering::Greater,
            Cmp::Gt => o == Ordering::Greater,
            Cmp::GtEq => o != Ordering::Less,
        }
    }
}

/// `column <cmp> literal`, in either operand order, over the column as
/// stored: one loop per (column type, operator) with no column copy and no
/// literal broadcast. Ints and bools compare natively; an `Int64` column
/// against a float literal compares in f64, and a `Float64` column converts
/// an int literal once. A string literal against a dictionary column is
/// resolved once per dictionary entry, leaving an id lookup per row.
/// `Ok(None)` for any other shape, which the general [`compare`] handles.
fn literal_compare(
    cmp: Cmp,
    left: &PlanExpr,
    right: &PlanExpr,
    batch: &RecordBatch,
    map: &ColMap,
) -> Result<Option<Vec<bool>>> {
    let (slot, lit, cmp) = match (left, right) {
        (PlanExpr::Col(s), PlanExpr::Lit(v)) => (*s, v, cmp),
        (PlanExpr::Lit(v), PlanExpr::Col(s)) => (*s, v, cmp.flipped()),
        _ => return Ok(None),
    };
    let sel = batch.selection();
    Ok(Some(match (batch.column(map.position(slot)?), lit) {
        (ColumnData::Int64(c), Value::Int(y)) => compare_kernel(cmp, c, sel, |x| x, *y),
        (ColumnData::Int64(c), Value::Float(y)) => compare_kernel(cmp, c, sel, |x| x as f64, *y),
        (ColumnData::Float64(c), Value::Float(y)) => compare_kernel(cmp, c, sel, |x| x, *y),
        (ColumnData::Float64(c), Value::Int(y)) => compare_kernel(cmp, c, sel, |x| x, *y as f64),
        (ColumnData::Bool(c), Value::Bool(y)) => compare_kernel(cmp, c, sel, |x| x, *y),
        (ColumnData::Dict { ids, dict }, Value::Str(y)) => {
            let verdicts: Vec<bool> = (0..dict.len() as u32)
                .map(|id| cmp.keep(dict.get(id).cmp(y.as_str())))
                .collect();
            map_rows(ids, sel, |id| verdicts[id as usize])
        }
        _ => return Ok(None),
    }))
}

/// `x_of(row) <cmp> y` for every logical row of `col`, without a branch per
/// row. The forms keep the NaN-compares-Equal convention of
/// [`Cmp::keep`]`(partial_cmp().unwrap_or(Equal))` — a plain `x <= y` would
/// be false on NaN — and are the ordinary operators on a total order.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the negations are the NaN rule
fn compare_kernel<S: Copy, T: PartialOrd + Copy>(
    cmp: Cmp,
    col: &[S],
    sel: Option<&SelectionVector>,
    x_of: impl Fn(S) -> T,
    y: T,
) -> Vec<bool> {
    match cmp {
        Cmp::Lt => map_rows(col, sel, |x| x_of(x) < y),
        Cmp::Gt => map_rows(col, sel, |x| x_of(x) > y),
        Cmp::LtEq => map_rows(col, sel, |x| !(x_of(x) > y)),
        Cmp::GtEq => map_rows(col, sel, |x| !(x_of(x) < y)),
        Cmp::Eq => map_rows(col, sel, |x| {
            let x = x_of(x);
            !(x < y) & !(x > y)
        }),
        Cmp::NotEq => map_rows(col, sel, |x| {
            let x = x_of(x);
            (x < y) | (x > y)
        }),
    }
}

/// `f` of every logical row of a physical column: all of it, a range run's
/// slice, or the selected rows read in place.
fn map_rows<S: Copy>(col: &[S], sel: Option<&SelectionVector>, f: impl Fn(S) -> bool) -> Vec<bool> {
    match sel.map(|s| (s, s.as_range())) {
        None => col.iter().map(|&x| f(x)).collect(),
        Some((_, Some((start, len)))) => col[start..start + len].iter().map(|&x| f(x)).collect(),
        Some((sel, None)) => sel.iter().map(|i| f(col[i])).collect(),
    }
}

fn broadcast(v: &Value, n: usize) -> ColumnData {
    match v {
        Value::Int(x) => ColumnData::Int64(vec![*x; n]),
        Value::Float(x) => ColumnData::Float64(vec![*x; n]),
        Value::Str(s) => ColumnData::Utf8(vec![s.clone(); n]),
        Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
    }
}

fn arith(op: BinOp, l: &ColumnData, r: &ColumnData) -> Result<ColumnData> {
    match op {
        BinOp::Add => int_or_float(l, r, i64::wrapping_add, |x, y| x + y),
        BinOp::Sub => int_or_float(l, r, i64::wrapping_sub, |x, y| x - y),
        BinOp::Mul => int_or_float(l, r, i64::wrapping_mul, |x, y| x * y),
        // Division always yields float (SQL-style safe semantics, x/0 = inf).
        BinOp::Div => float_arith(l, r, |x, y| x / y),
        other => Err(CiError::Exec(format!("{other:?} is not arithmetic"))),
    }
}

/// `int` over two `Int64` columns, `float` over any other numeric pair.
fn int_or_float(
    l: &ColumnData,
    r: &ColumnData,
    int: impl Fn(i64, i64) -> i64,
    float: impl Fn(f64, f64) -> f64,
) -> Result<ColumnData> {
    match (l, r) {
        (ColumnData::Int64(a), ColumnData::Int64(b)) => Ok(ColumnData::Int64(
            a.iter().zip(b).map(|(&x, &y)| int(x, y)).collect(),
        )),
        _ => float_arith(l, r, float),
    }
}

fn float_arith(l: &ColumnData, r: &ColumnData, f: impl Fn(f64, f64) -> f64) -> Result<ColumnData> {
    let (a, b) = (numeric_f64(l)?, numeric_f64(r)?);
    Ok(ColumnData::Float64(
        a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect(),
    ))
}

fn numeric_f64(c: &ColumnData) -> Result<Vec<f64>> {
    match c {
        ColumnData::Int64(v) => Ok(v.iter().map(|&x| x as f64).collect()),
        ColumnData::Float64(v) => Ok(v.clone()),
        other => Err(CiError::Exec(format!(
            "expected numeric column, got {}",
            other.data_type()
        ))),
    }
}

/// The general comparison of two evaluated operands, row by row.
fn compare(cmp: Cmp, l: &ColumnData, r: &ColumnData) -> Result<Vec<bool>> {
    use ColumnData::*;
    Ok(match (l, r) {
        (Int64(a), Int64(b)) => a.iter().zip(b).map(|(x, y)| cmp.keep(x.cmp(y))).collect(),
        (Bool(a), Bool(b)) => a.iter().zip(b).map(|(x, y)| cmp.keep(x.cmp(y))).collect(),
        // Equality between columns sharing one dictionary is pure id equality.
        (Dict { ids: a, dict: da }, Dict { ids: b, dict: db })
            if std::sync::Arc::ptr_eq(da, db) && matches!(cmp, Cmp::Eq | Cmp::NotEq) =>
        {
            a.iter().zip(b).map(|(x, y)| cmp.keep(x.cmp(y))).collect()
        }
        // Any string-vs-string combination compares borrowed &str — dict
        // columns decode by reference, never cloning.
        _ if l.data_type() == DataType::Utf8 && r.data_type() == DataType::Utf8 => (0..l.len())
            .map(|i| match (l.str_at(i), r.str_at(i)) {
                (Some(a), Some(b)) => Ok(cmp.keep(a.cmp(b))),
                _ => Err(CiError::Exec(
                    "string comparison over a non-string column".into(),
                )),
            })
            .collect::<Result<_>>()?,
        _ => {
            let (a, b) = (numeric_f64(l)?, numeric_f64(r)?);
            a.iter()
                .zip(&b)
                .map(|(x, y)| cmp.keep(x.partial_cmp(y).unwrap_or(Ordering::Equal)))
                .collect()
        }
    })
}

/// A resolved aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Which aggregate.
    pub func: AggFunc,
    /// Argument; `None` only for `COUNT(*)`.
    pub arg: Option<PlanExpr>,
    /// DISTINCT modifier.
    pub distinct: bool,
}

impl AggExpr {
    /// Output type of the aggregate given its input type resolver.
    pub fn data_type(&self, slot_type: &dyn Fn(usize) -> Result<DataType>) -> Result<DataType> {
        match self.func {
            AggFunc::Count => Ok(DataType::Int64),
            AggFunc::Avg => Ok(DataType::Float64),
            AggFunc::Sum => {
                let t = self.required_arg()?.data_type(slot_type)?;
                match t {
                    DataType::Int64 => Ok(DataType::Int64),
                    DataType::Float64 => Ok(DataType::Float64),
                    other => Err(CiError::Plan(format!("cannot SUM {other}"))),
                }
            }
            AggFunc::Min | AggFunc::Max => self.required_arg()?.data_type(slot_type),
        }
    }

    /// The argument of an aggregate other than `COUNT(*)`.
    fn required_arg(&self) -> Result<&PlanExpr> {
        self.arg
            .as_ref()
            .ok_or_else(|| CiError::Plan(format!("{} requires an argument", self.func.name())))
    }

    /// Display name used for auto-generated output columns.
    pub fn default_name(&self) -> String {
        match &self.arg {
            None => format!("{}(*)", self.func.name().to_lowercase()),
            Some(a) => format!("{}({a})", self.func.name().to_lowercase()),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_storage::schema::{Field, Schema};

    use super::*;

    fn batch() -> (RecordBatch, ColMap) {
        let schema = Arc::new(Schema::of(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]));
        let b = RecordBatch::new(
            schema,
            vec![
                ColumnData::Int64(vec![1, 2, 3, 4]),
                ColumnData::Float64(vec![0.5, 1.5, 2.5, 3.5]),
                ColumnData::Utf8(vec!["x".into(), "y".into(), "x".into(), "z".into()]),
            ],
        )
        .unwrap();
        // Global slots 10, 11, 12 map to columns 0, 1, 2.
        (b, ColMap::from_slots(&[10, 11, 12]))
    }

    #[test]
    fn column_and_literal() {
        let (b, m) = batch();
        assert_eq!(
            PlanExpr::Col(10).eval(&b, &m).unwrap(),
            ColumnData::Int64(vec![1, 2, 3, 4])
        );
        assert_eq!(
            PlanExpr::Lit(Value::Int(7)).eval(&b, &m).unwrap(),
            ColumnData::Int64(vec![7; 4])
        );
        assert!(PlanExpr::Col(99).eval(&b, &m).is_err());
    }

    #[test]
    fn arithmetic_coercion() {
        let (b, m) = batch();
        // int + float -> float
        let e = PlanExpr::bin(BinOp::Add, PlanExpr::Col(10), PlanExpr::Col(11));
        assert_eq!(
            e.eval(&b, &m).unwrap(),
            ColumnData::Float64(vec![1.5, 3.5, 5.5, 7.5])
        );
        // int * int -> int
        let e = PlanExpr::bin(BinOp::Mul, PlanExpr::Col(10), PlanExpr::Col(10));
        assert_eq!(
            e.eval(&b, &m).unwrap(),
            ColumnData::Int64(vec![1, 4, 9, 16])
        );
        // div always float
        let e = PlanExpr::bin(BinOp::Div, PlanExpr::Col(10), PlanExpr::Lit(Value::Int(2)));
        assert_eq!(
            e.eval(&b, &m).unwrap(),
            ColumnData::Float64(vec![0.5, 1.0, 1.5, 2.0])
        );
    }

    #[test]
    fn comparisons_and_logic() {
        let (b, m) = batch();
        let gt = PlanExpr::bin(BinOp::Gt, PlanExpr::Col(10), PlanExpr::Lit(Value::Int(2)));
        assert_eq!(
            gt.eval_mask(&b, &m).unwrap(),
            vec![false, false, true, true]
        );
        let eq_str = PlanExpr::bin(
            BinOp::Eq,
            PlanExpr::Col(12),
            PlanExpr::Lit(Value::from("x")),
        );
        assert_eq!(
            eq_str.eval_mask(&b, &m).unwrap(),
            vec![true, false, true, false]
        );
        let both = PlanExpr::bin(BinOp::And, gt, eq_str);
        assert_eq!(
            both.eval_mask(&b, &m).unwrap(),
            vec![false, false, true, false]
        );
        let not = PlanExpr::Not(Box::new(both));
        assert_eq!(
            not.eval_mask(&b, &m).unwrap(),
            vec![true, true, false, true]
        );
    }

    #[test]
    fn negation() {
        let (b, m) = batch();
        let e = PlanExpr::Neg(Box::new(PlanExpr::Col(10)));
        assert_eq!(
            e.eval(&b, &m).unwrap(),
            ColumnData::Int64(vec![-1, -2, -3, -4])
        );
        let bad = PlanExpr::Neg(Box::new(PlanExpr::Col(12)));
        assert!(bad.eval(&b, &m).is_err());
    }

    #[test]
    fn type_inference() {
        let ty = |s: usize| -> Result<DataType> {
            Ok(match s {
                10 => DataType::Int64,
                11 => DataType::Float64,
                _ => DataType::Utf8,
            })
        };
        let add = PlanExpr::bin(BinOp::Add, PlanExpr::Col(10), PlanExpr::Col(10));
        assert_eq!(add.data_type(&ty).unwrap(), DataType::Int64);
        let mixed = PlanExpr::bin(BinOp::Add, PlanExpr::Col(10), PlanExpr::Col(11));
        assert_eq!(mixed.data_type(&ty).unwrap(), DataType::Float64);
        let cmp = PlanExpr::bin(BinOp::Lt, PlanExpr::Col(10), PlanExpr::Col(11));
        assert_eq!(cmp.data_type(&ty).unwrap(), DataType::Bool);
        let bad = PlanExpr::bin(BinOp::Add, PlanExpr::Col(12), PlanExpr::Col(10));
        assert!(bad.data_type(&ty).is_err());
    }

    #[test]
    fn slot_collection() {
        let e = PlanExpr::bin(
            BinOp::Add,
            PlanExpr::Col(3),
            PlanExpr::Neg(Box::new(PlanExpr::Col(7))),
        );
        let mut slots = Vec::new();
        e.slots(&mut slots);
        assert_eq!(slots, vec![3, 7]);
    }

    #[test]
    fn agg_types() {
        let ty = |_: usize| -> Result<DataType> { Ok(DataType::Int64) };
        let count = AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        assert_eq!(count.data_type(&ty).unwrap(), DataType::Int64);
        assert_eq!(count.default_name(), "count(*)");
        let avg = AggExpr {
            func: AggFunc::Avg,
            arg: Some(PlanExpr::Col(0)),
            distinct: false,
        };
        assert_eq!(avg.data_type(&ty).unwrap(), DataType::Float64);
        let sum = AggExpr {
            func: AggFunc::Sum,
            arg: Some(PlanExpr::Col(0)),
            distinct: false,
        };
        assert_eq!(sum.data_type(&ty).unwrap(), DataType::Int64);
        // An argument-less SUM / MIN is a typed plan error, not a panic.
        for func in [AggFunc::Sum, AggFunc::Min] {
            let bare = AggExpr {
                func,
                arg: None,
                distinct: false,
            };
            assert!(matches!(bare.data_type(&ty), Err(CiError::Plan(_))));
        }
    }

    fn dict_batch() -> (RecordBatch, ColMap) {
        let schema = Arc::new(Schema::of(vec![
            Field::new("s", DataType::Utf8),
            Field::new("t", DataType::Utf8),
        ]));
        let s =
            ColumnData::Utf8(vec!["x".into(), "y".into(), "x".into(), "z".into()]).dict_encoded();
        let t =
            ColumnData::Utf8(vec!["x".into(), "x".into(), "z".into(), "z".into()]).dict_encoded();
        let b = RecordBatch::new(schema, vec![s, t]).unwrap();
        (b, ColMap::from_slots(&[0, 1]))
    }

    #[test]
    fn dict_literal_comparisons_match_utf8_semantics() {
        let (b, m) = dict_batch();
        let eq = PlanExpr::bin(BinOp::Eq, PlanExpr::Col(0), PlanExpr::Lit(Value::from("x")));
        assert_eq!(
            eq.eval_mask(&b, &m).unwrap(),
            vec![true, false, true, false]
        );
        // Literal absent from the dictionary: nothing matches / everything differs.
        let none = PlanExpr::bin(BinOp::Eq, PlanExpr::Col(0), PlanExpr::Lit(Value::from("q")));
        assert_eq!(none.eval_mask(&b, &m).unwrap(), vec![false; 4]);
        let ne = PlanExpr::bin(
            BinOp::NotEq,
            PlanExpr::Col(0),
            PlanExpr::Lit(Value::from("q")),
        );
        assert_eq!(ne.eval_mask(&b, &m).unwrap(), vec![true; 4]);
        // Range comparison resolves per dictionary entry.
        let lt = PlanExpr::bin(BinOp::Lt, PlanExpr::Col(0), PlanExpr::Lit(Value::from("y")));
        assert_eq!(
            lt.eval_mask(&b, &m).unwrap(),
            vec![true, false, true, false]
        );
        // Literal on the left flips the ordering correctly.
        let flipped = PlanExpr::bin(BinOp::Lt, PlanExpr::Lit(Value::from("y")), PlanExpr::Col(0));
        assert_eq!(
            flipped.eval_mask(&b, &m).unwrap(),
            vec![false, false, false, true]
        );
    }

    #[test]
    fn dict_column_to_column_comparisons() {
        let (b, m) = dict_batch();
        // Different dictionaries: compared by decoded value.
        let eq = PlanExpr::bin(BinOp::Eq, PlanExpr::Col(0), PlanExpr::Col(1));
        assert_eq!(
            eq.eval_mask(&b, &m).unwrap(),
            vec![true, false, false, true]
        );
        // Same dictionary (column vs itself): id fast path.
        let self_eq = PlanExpr::bin(BinOp::Eq, PlanExpr::Col(0), PlanExpr::Col(0));
        assert_eq!(self_eq.eval_mask(&b, &m).unwrap(), vec![true; 4]);
        let lt = PlanExpr::bin(BinOp::Lt, PlanExpr::Col(0), PlanExpr::Col(1));
        assert_eq!(
            lt.eval_mask(&b, &m).unwrap(),
            vec![false, false, true, false]
        );
    }

    #[test]
    fn eval_reads_through_selection() {
        let (b, m) = batch();
        let f = b.filter(&[true, false, true, true]).unwrap();
        assert!(f.selection().is_some(), "filter defers materialization");
        assert_eq!(
            PlanExpr::Col(10).eval(&f, &m).unwrap(),
            ColumnData::Int64(vec![1, 3, 4])
        );
        let gt = PlanExpr::bin(BinOp::Gt, PlanExpr::Col(10), PlanExpr::Lit(Value::Int(2)));
        assert_eq!(gt.eval_mask(&f, &m).unwrap(), vec![false, true, true]);
        // Masks over the selected view match the compacted equivalent.
        assert_eq!(
            gt.eval_mask(&f, &m).unwrap(),
            gt.eval_mask(&f.compacted(), &m).unwrap()
        );
    }

    #[test]
    fn dict_literal_compare_reads_through_selection() {
        let (b, m) = dict_batch();
        let f = b.filter(&[false, true, true, true]).unwrap();
        let eq = PlanExpr::bin(BinOp::Eq, PlanExpr::Col(0), PlanExpr::Lit(Value::from("x")));
        assert_eq!(eq.eval_mask(&f, &m).unwrap(), vec![false, true, false]);
        assert_eq!(
            eq.eval_mask(&f, &m).unwrap(),
            eq.eval_mask(&f.compacted(), &m).unwrap()
        );
    }

    #[test]
    fn division_by_zero_is_infinite_not_panic() {
        let (b, m) = batch();
        let e = PlanExpr::bin(BinOp::Div, PlanExpr::Col(10), PlanExpr::Lit(Value::Int(0)));
        let out = e.eval(&b, &m).unwrap();
        let v = out.as_f64().unwrap();
        assert!(v.iter().all(|x| x.is_infinite()));
    }
}
