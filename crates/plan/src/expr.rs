//! Name-resolved, executable expressions.
//!
//! After binding, every column reference is a **global slot**: the offset of
//! the column in the concatenation of all base-relation schemas (in relation
//! order). Global slots are stable under join reordering — an operator's
//! output is described by the list of global slots it carries, and a
//! [`ColMap`] translates slots to physical batch positions at evaluation
//! time. `BETWEEN` and `IN` are desugared at bind time, so the executable
//! core stays small.

use std::collections::HashMap;
use std::fmt;

use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::value::{DataType, Value};
use ci_storage::RecordBatch;
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
    /// filter), column references gather the selected rows and the dict
    /// fast path reads ids through the selection in place, so downstream
    /// operators never see unselected rows.
    pub fn eval(&self, batch: &RecordBatch, map: &ColMap) -> Result<ColumnData> {
        let n = batch.rows();
        match self {
            PlanExpr::Col(s) => {
                let col = batch.column(map.position(*s)?);
                Ok(match batch.selection() {
                    None => col.clone(),
                    Some(sel) => col.gather(sel),
                })
            }
            PlanExpr::Lit(v) => Ok(broadcast(v, n)),
            PlanExpr::Not(e) => {
                let inner = e.eval(batch, map)?;
                let b = inner.as_bool()?;
                Ok(ColumnData::Bool(b.iter().map(|x| !x).collect()))
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
            PlanExpr::Bin { op, left, right } => {
                if op.is_comparison() {
                    if let Some(mask) = dict_literal_compare(*op, left, right, batch, map)? {
                        return Ok(mask);
                    }
                }
                let l = left.eval(batch, map)?;
                let r = right.eval(batch, map)?;
                eval_binary(*op, &l, &r)
            }
        }
    }

    /// Evaluates an expression expected to be boolean, returning the mask.
    pub fn eval_mask(&self, batch: &RecordBatch, map: &ColMap) -> Result<Vec<bool>> {
        let col = self.eval(batch, map)?;
        Ok(col.as_bool()?.to_vec())
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

/// Fast path for `dict_column <cmp> 'literal'` (either operand order): the
/// comparison is resolved once per dictionary entry, then the row mask is a
/// pure id lookup — no per-row string compare, no literal broadcast. Returns
/// `Ok(None)` when the shape doesn't match and the general path should run.
fn dict_literal_compare(
    op: BinOp,
    left: &PlanExpr,
    right: &PlanExpr,
    batch: &RecordBatch,
    map: &ColMap,
) -> Result<Option<ColumnData>> {
    let (slot, lit, col_is_left) = match (left, right) {
        (PlanExpr::Col(s), PlanExpr::Lit(Value::Str(lit))) => (*s, lit, true),
        (PlanExpr::Lit(Value::Str(lit)), PlanExpr::Col(s)) => (*s, lit, false),
        _ => return Ok(None),
    };
    let Some((ids, dict)) = batch.column(map.position(slot)?).as_dict() else {
        return Ok(None);
    };
    let keep = comparison_keep(op);
    let verdicts: Vec<bool> = (0..dict.len() as u32)
        .map(|id| {
            let ord = if col_is_left {
                dict.get(id).cmp(lit.as_str())
            } else {
                lit.as_str().cmp(dict.get(id))
            };
            keep(ord)
        })
        .collect();
    let mask: Vec<bool> = match batch.selection() {
        None => ids.iter().map(|&id| verdicts[id as usize]).collect(),
        // Deferred filter upstream: the mask covers the logical rows only,
        // read straight through the selection (no id gather).
        Some(sel) => sel.iter().map(|i| verdicts[ids[i] as usize]).collect(),
    };
    Ok(Some(ColumnData::Bool(mask)))
}

fn broadcast(v: &Value, n: usize) -> ColumnData {
    match v {
        Value::Int(x) => ColumnData::Int64(vec![*x; n]),
        Value::Float(x) => ColumnData::Float64(vec![*x; n]),
        Value::Str(s) => ColumnData::Utf8(vec![s.clone(); n]),
        Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
    }
}

fn eval_binary(op: BinOp, l: &ColumnData, r: &ColumnData) -> Result<ColumnData> {
    use ColumnData::*;
    match op {
        BinOp::And => {
            let (a, b) = (l.as_bool()?, r.as_bool()?);
            Ok(Bool(a.iter().zip(b).map(|(x, y)| *x && *y).collect()))
        }
        BinOp::Or => {
            let (a, b) = (l.as_bool()?, r.as_bool()?);
            Ok(Bool(a.iter().zip(b).map(|(x, y)| *x || *y).collect()))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, l, r),
        _ => compare(op, l, r),
    }
}

fn arith(op: BinOp, l: &ColumnData, r: &ColumnData) -> Result<ColumnData> {
    use ColumnData::*;
    // Division always yields float (SQL-style safe semantics, x/0 = inf).
    if op == BinOp::Div {
        let a = numeric_f64(l)?;
        let b = numeric_f64(r)?;
        return Ok(Float64(a.iter().zip(&b).map(|(x, y)| x / y).collect()));
    }
    match (l, r) {
        (Int64(a), Int64(b)) => {
            let f = |x: &i64, y: &i64| match op {
                BinOp::Add => x.wrapping_add(*y),
                BinOp::Sub => x.wrapping_sub(*y),
                BinOp::Mul => x.wrapping_mul(*y),
                _ => unreachable!(),
            };
            Ok(Int64(a.iter().zip(b).map(|(x, y)| f(x, y)).collect()))
        }
        _ => {
            let a = numeric_f64(l)?;
            let b = numeric_f64(r)?;
            let f = |x: f64, y: f64| match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                _ => unreachable!(),
            };
            Ok(Float64(a.iter().zip(&b).map(|(x, y)| f(*x, *y)).collect()))
        }
    }
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

/// The boolean verdict a comparison operator assigns to an ordering.
fn comparison_keep(op: BinOp) -> impl Fn(std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    move |o: Ordering| match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::NotEq => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::LtEq => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::GtEq => o != Ordering::Less,
        _ => unreachable!(),
    }
}

fn compare(op: BinOp, l: &ColumnData, r: &ColumnData) -> Result<ColumnData> {
    use std::cmp::Ordering;
    let keep = comparison_keep(op);
    use ci_storage::value::DataType;
    use ColumnData::*;
    let out: Vec<bool> = match (l, r) {
        (Int64(a), Int64(b)) => a.iter().zip(b).map(|(x, y)| keep(x.cmp(y))).collect(),
        (Bool(a), Bool(b)) => a.iter().zip(b).map(|(x, y)| keep(x.cmp(y))).collect(),
        // Equality between columns sharing one dictionary is pure id equality.
        (Dict { ids: a, dict: da }, Dict { ids: b, dict: db })
            if std::sync::Arc::ptr_eq(da, db) && matches!(op, BinOp::Eq | BinOp::NotEq) =>
        {
            a.iter().zip(b).map(|(x, y)| keep(x.cmp(y))).collect()
        }
        // Any string-vs-string combination compares borrowed &str — dict
        // columns decode by reference, never cloning.
        _ if l.data_type() == DataType::Utf8 && r.data_type() == DataType::Utf8 => (0..l.len())
            .map(|i| {
                let a = l.str_at(i).expect("string column");
                let b = r.str_at(i).expect("string column");
                keep(a.cmp(b))
            })
            .collect(),
        _ => {
            let a = numeric_f64(l)?;
            let b = numeric_f64(r)?;
            a.iter()
                .zip(&b)
                .map(|(x, y)| keep(x.partial_cmp(y).unwrap_or(Ordering::Equal)))
                .collect()
        }
    };
    Ok(ColumnData::Bool(out))
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
                let t = self
                    .arg
                    .as_ref()
                    .expect("SUM requires an argument")
                    .data_type(slot_type)?;
                match t {
                    DataType::Int64 => Ok(DataType::Int64),
                    DataType::Float64 => Ok(DataType::Float64),
                    other => Err(CiError::Plan(format!("cannot SUM {other}"))),
                }
            }
            AggFunc::Min | AggFunc::Max => self
                .arg
                .as_ref()
                .expect("MIN/MAX require an argument")
                .data_type(slot_type),
        }
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
