//! Abstract syntax tree for the SQL subset.

use std::fmt;

/// A literal value in SQL text. (The storage layer has its own `Value`;
/// the planner converts. The parser stays independent of storage.)
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v:?}"),
            Literal::Str(v) => write!(f, "'{}'", v.replace('\'', "''")),
            Literal::Bool(v) => write!(f, "{}", if *v { "TRUE" } else { "FALSE" }),
        }
    }
}

/// Binary operators, loosest-binding first in the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// Equality.
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
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinaryOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// COUNT(*) or COUNT(expr).
    Count,
    /// SUM(expr).
    Sum,
    /// AVG(expr).
    Avg,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Scalar / aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified (`t.col`).
    Column {
        /// Table name or alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal constant.
    Literal(Literal),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Aggregate call. `expr` is `None` only for `COUNT(*)`.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` means `*`.
        expr: Option<Box<Expr>>,
        /// `DISTINCT` modifier (COUNT(DISTINCT x)).
        distinct: bool,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// `expr IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Negated form.
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for a binary expression.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `true` if any node in the tree is an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Column { .. } | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
        }
    }

    /// Collects all column references (qualifier, name) in the tree.
    pub fn columns(&self, out: &mut Vec<(Option<String>, String)>) {
        match self {
            Expr::Column { qualifier, name } => out.push((qualifier.clone(), name.clone())),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            Expr::Unary { expr, .. } => expr.columns(out),
            Expr::Aggregate { expr, .. } => {
                if let Some(e) = expr {
                    e.columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.columns(out);
                low.columns(out);
                high.columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.columns(out);
                for e in list {
                    e.columns(out);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            Expr::Aggregate {
                func,
                expr,
                distinct,
            } => {
                let d = if *distinct { "DISTINCT " } else { "" };
                match expr {
                    Some(e) => write!(f, "{}({d}{e})", func.name()),
                    None => write!(f, "{}(*)", func.name()),
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let n = if *negated { " NOT" } else { "" };
                write!(f, "({expr}{n} BETWEEN {low} AND {high})")
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let n = if *negated { " NOT" } else { "" };
                write!(f, "({expr}{n} IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `expr [AS alias]`.
    Expr {
        /// The expression.
        expr: Expr,
        /// Output alias.
        alias: Option<String>,
    },
}

/// A base table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name (lower-cased by the tokenizer).
    pub name: String,
    /// Alias, if given.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table binds in scope (alias if present).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One JOIN clause (INNER equi-joins; the analytical core).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Right-hand table.
    pub table: TableRef,
    /// ON condition; `None` for comma-style cross joins constrained in WHERE.
    pub on: Option<Expr>,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// `true` for ascending (default).
    pub asc: bool,
}

/// A parsed SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list.
    pub items: Vec<SelectItem>,
    /// First FROM table.
    pub from: TableRef,
    /// Subsequent joined tables.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Expr {
        /// Convenience constructor for an unqualified column.
        fn col(name: &str) -> Expr {
            Expr::Column {
                qualifier: None,
                name: name.to_owned(),
            }
        }

        /// Convenience constructor for a qualified column.
        fn qcol(qualifier: &str, name: &str) -> Expr {
            Expr::Column {
                qualifier: Some(qualifier.to_owned()),
                name: name.to_owned(),
            }
        }
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = Expr::binary(
            BinaryOp::And,
            Expr::binary(BinaryOp::Gt, Expr::col("a"), Expr::Literal(Literal::Int(3))),
            Expr::Between {
                expr: Box::new(Expr::qcol("t", "b")),
                low: Box::new(Expr::Literal(Literal::Int(1))),
                high: Box::new(Expr::Literal(Literal::Int(9))),
                negated: false,
            },
        );
        assert_eq!(e.to_string(), "((a > 3) AND (t.b BETWEEN 1 AND 9))");
    }

    #[test]
    fn aggregate_detection() {
        let plain = Expr::binary(BinaryOp::Add, Expr::col("a"), Expr::col("b"));
        assert!(!plain.contains_aggregate());
        let agg = Expr::binary(
            BinaryOp::Div,
            Expr::Aggregate {
                func: AggFunc::Sum,
                expr: Some(Box::new(Expr::col("x"))),
                distinct: false,
            },
            Expr::Literal(Literal::Int(2)),
        );
        assert!(agg.contains_aggregate());
    }

    #[test]
    fn column_collection() {
        let e = Expr::binary(
            BinaryOp::Eq,
            Expr::qcol("o", "id"),
            Expr::binary(
                BinaryOp::Add,
                Expr::col("x"),
                Expr::Literal(Literal::Int(1)),
            ),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(
            cols,
            vec![
                (Some("o".to_owned()), "id".to_owned()),
                (None, "x".to_owned())
            ]
        );
    }

    #[test]
    fn binding_prefers_alias() {
        let t = TableRef {
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding(), "o");
        let u = TableRef {
            name: "orders".into(),
            alias: None,
        };
        assert_eq!(u.binding(), "orders");
    }

    #[test]
    fn literal_display_escapes() {
        assert_eq!(Literal::Str("a'b".into()).to_string(), "'a''b'");
        assert_eq!(Literal::Bool(true).to_string(), "TRUE");
        assert_eq!(Literal::Float(1.5).to_string(), "1.5");
    }
}
