//! SQL front end for the analytical subset the warehouse speaks.
//!
//! Grammar (informally):
//!
//! ```text
//! query     := SELECT select_list FROM table_ref (join)* [WHERE expr]
//!              [GROUP BY expr_list] [HAVING expr] [ORDER BY order_list]
//!              [LIMIT n]
//! join      := [INNER] JOIN table_ref ON expr | ',' table_ref
//! table_ref := ident [[AS] alias]
//! expr      := the usual precedence ladder: OR < AND < NOT < comparison
//!              < add/sub < mul/div, with parentheses, literals, qualified
//!              column refs, BETWEEN, IN (list), and aggregate calls
//!              COUNT/SUM/AVG/MIN/MAX.
//! ```
//!
//! The parser is a hand-written recursive-descent with precedence climbing —
//! small, fast, and panic-free on arbitrary input (property-tested).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod parser;
pub mod token;

pub use ast::{
    BinaryOp, Expr, JoinClause, Literal, OrderItem, Query, SelectItem, TableRef, UnaryOp,
};
pub use parser::parse;
pub use token::{tokenize, Token, TokenKind};
